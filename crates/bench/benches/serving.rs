//! Shared-cache serving benchmark: N concurrent correlated traces through
//! one [`SharedPlanCache`]-backed [`BatchScheduler`] versus the same
//! traces each served by a session with its own private cache.
//!
//! Spike tiles repeat across concurrent requests running the same model,
//! so a shared cache turns N independent sessions into one amortized
//! planning workload: whichever session plans a tile first warms it for
//! every sibling. Scenarios:
//!
//! * `shared_cache_{2,4,8}` — multi-tenant correlated timestep streams
//!   (`tracegen::generate_tenant_streams`): aggregate wall time of
//!   per-session private caches vs one shared cache under round-robin
//!   scheduling. The acceptance row is 4
//!   tenants: shared ≥ 1.3× aggregate over private.
//! * `fig8_admission` — the fig8 SpikingBERT trace (rare tile repetition)
//!   with the adaptive insertion-bypass admission policy on vs off: the
//!   row that used to document the cache-bookkeeping regression.
//! * `warm_start` — cache warm-up persistence: one correlated stream
//!   served cold (fresh cache) vs by a process restored from the cold
//!   run's [`PlanSnapshot`] (encoded → decoded → imported, the full
//!   restart path). Records the per-timestep hit-rate curve of both
//!   passes: the restored process starts at the exporting process's
//!   steady-state hit rate instead of 0 %.
//! * `qos` — the scheduling policies beyond throughput: a weighted 1:1:4
//!   tenant mix (deficit round robin must hand the weight-4 tenant ≥2.5×
//!   the step share of a weight-1 tenant while all lanes are runnable, at
//!   unchanged aggregate throughput vs round-robin), a feasible deadline
//!   mix (EDF must record zero misses where round-robin misses the tight
//!   budgets), and a skewed-length round-robin guard (1000:10:10 — the
//!   live-lane list keeps long-tail batches linear in executed steps).
//! * `preemption` — the scheduling quantum sliced below the GeMM: a
//!   1000:10:10 size-skewed mix (one lane of 16-row-tile monster GeMMs,
//!   two lanes of single-row-tile GeMMs) dispatched whole-GeMM vs in
//!   row-tile slice quanta {1, 2, 4, 8}. Records wall time until both
//!   short tenants complete and until the batch drains, per quantum, plus
//!   the knee of the sweep. Acceptance: ≥ 2× short-tenant completion
//!   improvement at ≥ 0.95× aggregate throughput.
//! * `shard_tuning` — the shared cache's measured `lock_hold_ns` and wall
//!   time across shard counts {1, 2, 4, 8, 16} on the 4-tenant correlated
//!   workload, plus the capacity/thread-derived default
//!   (`SharedPlanCache::recommended_shards`) the builders now pick.
//! * `resilience` — the fault-tolerance layer under load: one lane of a
//!   3-tenant mix panics on its first step (the panic unwinds out of the
//!   scheduler's isolation region, quarantining the lane), and the
//!   surviving lanes must serve bit-exact at ≥ 0.9× the throughput of the
//!   same two tenants with no fault at all; plus the crash-safe
//!   [`SnapshotStore`] path — saves, a hand-corrupted newest file, and the
//!   checksum-verified loader quarantining it and recovering the previous
//!   good snapshot.
//! * `fleet` — fleet mode: a cold process joining a warm fleet via
//!   snapshot gossip ([`ServiceConfig::with_gossip`] over the members'
//!   [`SnapshotStore`] directories, the layout shared with
//!   `examples/fleet.rs`). Two members serve correlated tenant streams
//!   and export; the joiner gossip-bootstraps from their directories and
//!   serves a fresh tenant. Records per-step hit-rate curves and the
//!   steps until steady state (hit rate ≥ 0.9) for the warm join vs the
//!   same process starting alone, plus the cross-process duplicate-plan
//!   savings (plans the joiner adopted instead of recomputing).
//!   Acceptance: warm-join steps-to-steady strictly below cold-alone.
//!
//! Every scenario gates on bit-identical outputs against the serial
//! private-cache oracle before timing anything. Per-session stats and the
//! shared-cache aggregate are serialized into every row so hit / miss /
//! eviction / bypass behaviour is auditable per scenario. Results are
//! printed and written to `BENCH_serving.json` (override with
//! `BENCH_SERVING_OUT`); `PROSPERITY_SERVING_SMOKE=1` shrinks sizes for
//! CI, and `PROSPERITY_SERVING_ONLY=<substring>` runs just the matching
//! scenarios (correctness gates included, JSON write skipped). Run:
//!
//! ```text
//! cargo bench -p prosperity-bench --bench serving
//! ```

use prosperity_bench::time_ms;
use prosperity_core::engine::{
    AdmissionConfig, BatchPolicy, BatchScheduler, EngineConfig, EngineStats, FleetHarness,
    PlanSnapshot, ServiceConfig, ServingLoop, Session, SharedCacheStats, SharedPlanCache,
    SnapshotStore, TraceStep,
};
use prosperity_models::tracegen::{TraceGen, TraceGenParams};
use prosperity_models::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spikemat::gemm::{OutputMatrix, WeightMatrix};
use spikemat::{SpikeMatrix, TileShape};

/// One multi-tenant scenario's measurements.
struct ServingOut {
    name: String,
    tenants: usize,
    /// GeMMs across all tenants per end-to-end pass.
    gemms: usize,
    /// Aggregate wall time, per-session private caches (serial sweep).
    private_ms: f64,
    /// Aggregate wall time, shared cache, round-robin interleave.
    shared_rr_ms: f64,
    /// Fleet-merged session stats of the shared round-robin pass.
    merged: EngineStats,
    /// Per-tenant session stats of the shared round-robin pass.
    per_session: Vec<EngineStats>,
    /// Shared-cache aggregate of the shared round-robin pass.
    cache: SharedCacheStats,
    /// Merged stats of the private-cache baseline (for the audit trail).
    private_merged: EngineStats,
}

impl ServingOut {
    fn speedup_rr(&self) -> f64 {
        self.private_ms / self.shared_rr_ms
    }
}

/// Builds the tenant streams + per-tenant weights for one tenant count.
struct TenantCase {
    streams: Vec<Vec<SpikeMatrix>>,
    weights: Vec<WeightMatrix<i64>>,
}

impl TenantCase {
    fn traces(&self) -> Vec<Vec<TraceStep<'_, i64>>> {
        self.streams
            .iter()
            .zip(&self.weights)
            .map(|(stream, w)| stream.iter().map(|s| (s, w)).collect())
            .collect()
    }
}

fn tenant_case(tenants: usize, smoke: bool) -> TenantCase {
    let (steps, rows, k, n) = if smoke {
        (4, 512, 128, 8)
    } else {
        (6, 1024, 256, 8)
    };
    // Concurrent requests to one model are more alike *across tenants* than
    // across time: per-row cross-tenant correlation 0.9995 compounds over
    // the 256-row tile height to ≈ 0.88 of tiles shared tenant-to-tenant,
    // while temporal persistence 0.999 leaves ≈ 0.77 shared step-to-step —
    // so a private cache re-plans the temporal churn once per tenant, a
    // shared cache once for the whole fleet.
    let gen = TraceGen::new(TraceGenParams::uncorrelated(0.30));
    let mut rng = StdRng::seed_from_u64(0x5E41 + tenants as u64);
    let streams = gen.generate_tenant_streams(tenants, steps, rows, k, 0.999, 0.9995, &mut rng);
    let weights = (0..tenants)
        .map(|t| WeightMatrix::from_fn(k, n, |r, c| (r * 31 + c * 7 + t * 13) as i64 % 255 - 127))
        .collect();
    TenantCase { streams, weights }
}

/// Serial per-tenant private-cache oracle outputs (the correctness gate).
fn oracle(case: &TenantCase, config: EngineConfig) -> Vec<Vec<OutputMatrix<i64>>> {
    case.streams
        .iter()
        .zip(&case.weights)
        .map(|(stream, w)| {
            let mut engine = Session::new(config);
            stream
                .iter()
                .map(|s| {
                    let mut out = OutputMatrix::zeros(0, 0);
                    engine.gemm_into(s, w, &mut out);
                    out
                })
                .collect()
        })
        .collect()
}

/// Shared vs private at one tenant count.
fn shared_vs_private(tenants: usize, smoke: bool, reps: usize) -> ServingOut {
    let case = tenant_case(tenants, smoke);
    let tile = TileShape::prosperity_default();
    let config = EngineConfig::new(tile, 4096);
    let traces = case.traces();
    let gemms: usize = traces.iter().map(Vec::len).sum();

    // Correctness gate + stats capture for the shared pass.
    let want = oracle(&case, config);
    let mut sched = BatchScheduler::new(config, BatchPolicy::RoundRobin);
    sched.run(&traces, |t, s, out| {
        assert_eq!(out, &want[t][s], "shared rr lost bits: tenant {t} step {s}");
    });
    let merged = sched.merged_stats();
    let per_session = sched.session_stats();
    let cache = sched.shared_cache().stats();

    // Private baseline stats (fresh engines, same aggregate work).
    let mut private_merged = EngineStats::default();
    for (stream, w) in case.streams.iter().zip(&case.weights) {
        let mut e = Session::new(config);
        let mut o = OutputMatrix::zeros(0, 0);
        for s in stream {
            e.gemm_into(s, w, &mut o);
        }
        private_merged.merge(&e.stats());
    }

    // Timed passes: fresh caches per rep — each measurement is the whole
    // cold-to-warm batch, end to end.
    let private_ms = time_ms(reps, || {
        let mut acc = 0i64;
        for (stream, w) in case.streams.iter().zip(&case.weights) {
            let mut e = Session::new(config);
            let mut o = OutputMatrix::zeros(0, 0);
            for s in stream {
                e.gemm_into(s, w, &mut o);
            }
            acc ^= o.as_slice().first().copied().unwrap_or(0);
        }
        acc
    });
    let shared_rr_ms = time_ms(reps, || {
        let mut sched = BatchScheduler::new(config, BatchPolicy::RoundRobin);
        let mut acc = 0i64;
        sched.run(&traces, |_, _, out| {
            acc ^= out.as_slice().first().copied().unwrap_or(0);
        });
        acc
    });

    ServingOut {
        name: format!("shared_cache_{tenants}"),
        tenants,
        gemms,
        private_ms,
        shared_rr_ms,
        merged,
        per_session,
        cache,
        private_merged,
    }
}

/// The fig8 row re-run: admission on vs off on a miss-heavy model trace.
struct AdmissionOut {
    gemms: usize,
    off_ms: f64,
    on_ms: f64,
    stats_off: EngineStats,
    stats_on: EngineStats,
}

impl AdmissionOut {
    fn speedup(&self) -> f64 {
        self.off_ms / self.on_ms
    }
}

fn fig8_admission(smoke: bool, reps: usize) -> AdmissionOut {
    let workload = Workload::spikingbert_sst2();
    let scale = if smoke { 0.02 } else { 0.06 };
    let trace = workload.generate_trace(scale);
    let tile = TileShape::prosperity_default();
    let weights: Vec<WeightMatrix<i64>> = trace
        .layers
        .iter()
        .map(|l| l.synthetic_weights(7))
        .collect();
    let off = EngineConfig::new(tile, 2048);
    let on = off.with_admission(AdmissionConfig::default());

    // Correctness gate: admission decisions cannot change results.
    let mut e_off = Session::new(off);
    let mut e_on = Session::new(on);
    let mut a = OutputMatrix::zeros(0, 0);
    let mut b = OutputMatrix::zeros(0, 0);
    for (layer, w) in trace.layers.iter().zip(&weights) {
        e_off.gemm_into(&layer.spikes, w, &mut a);
        e_on.gemm_into(&layer.spikes, w, &mut b);
        assert_eq!(a, b, "admission lost bits on {}", layer.spec.name);
    }
    let (stats_off, stats_on) = (e_off.stats(), e_on.stats());

    let run = |config: EngineConfig| {
        let mut e = Session::new(config);
        let mut o = OutputMatrix::zeros(0, 0);
        for (layer, w) in trace.layers.iter().zip(&weights) {
            e.gemm_into(&layer.spikes, w, &mut o);
        }
        o.as_slice().first().copied().unwrap_or(0)
    };
    let off_ms = time_ms(reps, || run(off));
    let on_ms = time_ms(reps, || run(on));

    AdmissionOut {
        gemms: trace.layers.len(),
        off_ms,
        on_ms,
        stats_off,
        stats_on,
    }
}

/// Cold vs snapshot-restored serving of one correlated stream.
struct WarmStartOut {
    steps: usize,
    /// Plans in the snapshot / bytes of its encoded form.
    snapshot_plans: usize,
    snapshot_bytes: usize,
    /// Wall time of a full restart-to-served pass: cold constructs a fresh
    /// session, warm imports the snapshot first (import cost included).
    cold_ms: f64,
    warm_ms: f64,
    /// Per-timestep hit rate of each pass (fraction of the step's tiles
    /// served from the cache).
    cold_curve: Vec<f64>,
    warm_curve: Vec<f64>,
    stats_cold: EngineStats,
    stats_warm: EngineStats,
}

impl WarmStartOut {
    fn speedup(&self) -> f64 {
        self.cold_ms / self.warm_ms
    }
}

fn warm_start(smoke: bool, reps: usize) -> WarmStartOut {
    let (steps, rows, k, n) = if smoke {
        (6, 512, 128, 8)
    } else {
        (10, 1024, 256, 8)
    };
    let gen = TraceGen::new(TraceGenParams::uncorrelated(0.30));
    let mut rng = StdRng::seed_from_u64(0x4A11);
    let stream = gen.generate_timesteps(steps, rows, k, 0.999, &mut rng);
    let weights = WeightMatrix::from_fn(k, n, |r, c| (r * 31 + c * 7) as i64 % 255 - 127);
    let config = EngineConfig::new(TileShape::prosperity_default(), 4096);

    // Correctness gate + per-step hit curves. The hit rate of step `s` is
    // the fraction of its tiles served from the cache.
    let curve_of = |engine: &mut Session<i64>, want: Option<&[OutputMatrix<i64>]>| {
        let mut curve = Vec::with_capacity(steps);
        let mut outs = Vec::with_capacity(steps);
        let mut out = OutputMatrix::zeros(0, 0);
        for (s, spikes) in stream.iter().enumerate() {
            let before = engine.stats();
            engine.gemm_into(spikes, &weights, &mut out);
            let after = engine.stats();
            let tiles = (after.tiles - before.tiles).max(1);
            curve.push((after.cache_hits - before.cache_hits) as f64 / tiles as f64);
            if let Some(want) = want {
                assert_eq!(out, want[s], "warm start lost bits at step {s}");
            }
            outs.push(out.clone());
        }
        (curve, outs)
    };
    let mut cold = Session::new(config);
    let (cold_curve, want) = curve_of(&mut cold, None);
    let stats_cold = cold.stats();

    // The full restart path: export at "shutdown", encode to bytes, decode
    // in the "new process", import, serve the same stream again.
    let snapshot = cold.export_snapshot(config.cache_capacity);
    let bytes = snapshot.encode();
    let snapshot_bytes = bytes.len();
    let restored = PlanSnapshot::decode(bytes).expect("snapshot roundtrip");
    let (mut warm, report) = Session::warm_start(config, &restored);
    assert_eq!(report.restored, snapshot.len(), "restore must be total");
    let (warm_curve, _) = curve_of(&mut warm, Some(&want));
    let stats_warm = warm.stats();
    assert_eq!(
        stats_warm.restored_hits, stats_warm.cache_hits,
        "every warm hit comes from the snapshot"
    );

    // Timed passes measure restart-to-served wall time: session
    // construction (cold) or snapshot import (warm) plus the whole stream.
    let serve = |engine: &mut Session<i64>| {
        let mut out = OutputMatrix::zeros(0, 0);
        let mut acc = 0i64;
        for spikes in &stream {
            engine.gemm_into(spikes, &weights, &mut out);
            acc ^= out.as_slice().first().copied().unwrap_or(0);
        }
        acc
    };
    let cold_ms = time_ms(reps, || {
        let mut engine = Session::new(config);
        serve(&mut engine)
    });
    let warm_ms = time_ms(reps, || {
        let (mut engine, _) = Session::warm_start(config, &restored);
        serve(&mut engine)
    });

    WarmStartOut {
        steps,
        snapshot_plans: snapshot.len(),
        snapshot_bytes,
        cold_ms,
        warm_ms,
        cold_curve,
        warm_curve,
        stats_cold,
        stats_warm,
    }
}

/// The `qos` scenario's measurements: weighted share, deadline misses,
/// and the skewed round-robin guard.
struct QosOut {
    /// GeMMs per tenant in the weighted/deadline mixes (3 equal traces).
    steps: usize,
    weights: Vec<u32>,
    /// Wall time of the same 3-tenant mix under each policy.
    rr_ms: f64,
    weighted_ms: f64,
    deadline_ms: f64,
    /// Step share of the weight-4 lane relative to the mean weight-1 lane,
    /// measured while every lane was still runnable.
    weighted_share_ratio: f64,
    rr_share_ratio: f64,
    /// Total steps per lane of the weighted pass (everything completes).
    weighted_lane_steps: Vec<u64>,
    /// The feasible deadline mix (global-step budgets per lane).
    budgets: Vec<u64>,
    edf_misses: u64,
    rr_misses: u64,
    edf_completion: Vec<u64>,
    rr_completion: Vec<u64>,
    /// Skewed-length round-robin guard.
    skew_lengths: Vec<usize>,
    skew_gemms: usize,
    skew_rr_ms: f64,
}

fn qos(smoke: bool, reps: usize) -> QosOut {
    let case = tenant_case(3, smoke);
    let tile = TileShape::prosperity_default();
    let config = EngineConfig::new(tile, 4096);
    let traces = case.traces();
    let steps = traces[0].len();
    let want = oracle(&case, config);

    let weights = vec![1u32, 1, 4];
    let weighted = BatchPolicy::Weighted {
        weights: weights.clone(),
    };

    // Correctness gate + live-window share accounting: per-lane step
    // counts captured at the moment the first lane completes (while every
    // lane was still contending for steps).
    let share_of = |policy: BatchPolicy| {
        let mut sched = BatchScheduler::new(config, policy);
        let mut counts = vec![0u64; traces.len()];
        let mut live = None;
        sched.run(&traces, |t, s, out| {
            assert_eq!(out, &want[t][s], "qos lost bits: tenant {t} step {s}");
            counts[t] += 1;
            if s + 1 == traces[t].len() && live.is_none() {
                live = Some(counts.clone());
            }
        });
        (
            live.expect("some lane completes"),
            sched.scheduler_stats().clone(),
        )
    };
    let share_ratio = |live: &[u64]| live[2] as f64 / ((live[0] + live[1]) as f64 / 2.0);
    let (w_live, w_stats) = share_of(weighted.clone());
    let (rr_live, rr_stats) = share_of(BatchPolicy::RoundRobin);
    let weighted_share_ratio = share_ratio(&w_live);
    let rr_share_ratio = share_ratio(&rr_live);
    assert!(
        weighted_share_ratio >= 2.5,
        "weight-4 tenant must receive >= 2.5x the weight-1 share while \
         contended, got {weighted_share_ratio:.2} ({w_live:?})"
    );

    // Feasible deadline mix: EDF serves the tightest budget first and
    // meets all three; round-robin drags every completion to the end and
    // must miss the tight ones. Budgets are in global executed steps.
    let l = steps as u64;
    let budgets = vec![l + 1, 2 * l + 1, 3 * l];
    let mut edf = BatchScheduler::new(
        config,
        BatchPolicy::Deadline {
            budgets: budgets.clone(),
        },
    );
    edf.run(&traces, |t, s, out| {
        assert_eq!(out, &want[t][s], "qos edf lost bits: tenant {t} step {s}");
    });
    let edf_stats = edf.scheduler_stats().clone();
    let edf_misses = edf_stats.deadline_misses;
    let rr_misses = rr_stats.misses_against(&budgets);
    assert_eq!(edf_misses, 0, "EDF must meet a feasible budget mix");
    assert!(
        rr_misses >= 1,
        "round robin must miss the tight budget: {:?} vs {budgets:?}",
        rr_stats.completion_steps
    );

    // Timed passes: the same mix, fresh caches per rep, under each policy
    // (aggregate throughput must be policy-independent on this workload).
    let time_policy = |policy: &BatchPolicy| {
        time_ms(reps, || {
            let mut sched = BatchScheduler::new(config, policy.clone());
            let mut acc = 0i64;
            sched.run(&traces, |_, _, out| {
                acc ^= out.as_slice().first().copied().unwrap_or(0);
            });
            acc
        })
    };
    let rr_ms = time_policy(&BatchPolicy::RoundRobin);
    let weighted_ms = time_policy(&weighted);
    let deadline_ms = time_policy(&BatchPolicy::Deadline {
        budgets: budgets.clone(),
    });

    // Skewed-length guard: one long-tail trace among finished ones. The
    // live-lane list keeps the scheduling loop linear in executed steps
    // (exhausted lanes used to be re-scanned every round).
    let (long, short) = if smoke { (120, 3) } else { (1000, 10) };
    let skew_lengths = vec![long, short, short];
    let mut rng = StdRng::seed_from_u64(0x5E3A);
    let skew_spikes: Vec<SpikeMatrix> = (0..3)
        .map(|_| SpikeMatrix::random(64, 64, 0.3, &mut rng))
        .collect();
    let skew_w = WeightMatrix::from_fn(64, 4, |r, c| (r * 5 + c) as i64 - 9);
    let skew_traces: Vec<Vec<TraceStep<'_, i64>>> = skew_spikes
        .iter()
        .zip(&skew_lengths)
        .map(|(s, &len)| vec![(s, &skew_w); len])
        .collect();
    let skew_gemms: usize = skew_lengths.iter().sum();
    let skew_config = EngineConfig::new(TileShape::new(16, 16), 1024);
    {
        // Gate once: skewed lengths must still cover every step exactly.
        let mut sched = BatchScheduler::new(skew_config, BatchPolicy::RoundRobin);
        let mut count = 0usize;
        sched.run(&skew_traces, |_, _, _| count += 1);
        assert_eq!(count, skew_gemms, "skewed batch must complete exactly");
    }
    let skew_rr_ms = time_ms(reps, || {
        let mut sched = BatchScheduler::new(skew_config, BatchPolicy::RoundRobin);
        let mut acc = 0i64;
        sched.run(&skew_traces, |_, _, out| {
            acc ^= out.as_slice().first().copied().unwrap_or(0);
        });
        acc
    });

    QosOut {
        steps,
        weights,
        rr_ms,
        weighted_ms,
        deadline_ms,
        weighted_share_ratio,
        rr_share_ratio,
        weighted_lane_steps: w_stats.lane_steps,
        budgets,
        edf_misses,
        rr_misses,
        edf_completion: edf_stats.completion_steps,
        rr_completion: rr_stats.completion_steps,
        skew_lengths,
        skew_gemms,
        skew_rr_ms,
    }
}

/// The `resilience` scenario's measurements: lane quarantine under load
/// and crash-safe snapshot recovery.
struct ResilienceOut {
    /// GeMMs the two surviving tenants execute per pass.
    survivor_gemms: usize,
    /// Wall time of the survivors' work with no fault anywhere.
    clean_ms: f64,
    /// Wall time of the same work while lane 0 panics and is quarantined.
    faulted_ms: f64,
    /// Scheduler fault counters of the faulted gate pass.
    lane_faults: u64,
    shard_resets: u64,
    /// Crash-safe store leg: saves performed, corrupt files quarantined by
    /// the loader, and plans recovered from the newest *valid* snapshot.
    snapshot_saves: usize,
    snapshots_quarantined: u64,
    recovered_plans: usize,
}

impl ResilienceOut {
    /// Survivor throughput under a fault relative to a fault-free fleet.
    fn surviving_throughput_ratio(&self) -> f64 {
        self.clean_ms / self.faulted_ms
    }
}

fn resilience(smoke: bool, reps: usize) -> ResilienceOut {
    let case = tenant_case(3, smoke);
    let tile = TileShape::prosperity_default();
    let config = EngineConfig::new(tile, 4096);
    let traces = case.traces();
    let want = oracle(&case, config);

    // The injected fault needs no hook: the sink runs inside the
    // scheduler's per-step isolation region, so a panic raised there is
    // exactly a lane crash. Silence the default hook's backtrace for these
    // expected panics (delegating everything else).
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let expected = payload
            .downcast_ref::<&str>()
            .map(|s| s.contains("bench fault"))
            .or_else(|| {
                payload
                    .downcast_ref::<String>()
                    .map(|s| s.contains("bench fault"))
            })
            .unwrap_or(false);
        if !expected {
            prev_hook(info);
        }
    }));

    // Gate: lane 0 crashes on its first step; the fleet must not abort,
    // lane 0 must be quarantined and counted, and the survivors must stay
    // bit-identical to the serial private-cache oracle.
    let mut sched = BatchScheduler::new(config, BatchPolicy::RoundRobin);
    let mut seen = vec![0usize; traces.len()];
    sched.run(&traces, |t, s, out| {
        if t == 0 {
            panic!("bench fault: lane 0 crashes at step {s}");
        }
        assert_eq!(out, &want[t][s], "survivor lost bits: tenant {t} step {s}");
        seen[t] += 1;
    });
    let stats = sched.scheduler_stats().clone();
    assert_eq!(stats.lane_faults, 1, "lane 0 must be quarantined");
    assert_eq!(seen[1], traces[1].len(), "survivor 1 must complete");
    assert_eq!(seen[2], traces[2].len(), "survivor 2 must complete");
    let survivor_gemms = traces[1].len() + traces[2].len();

    // Timed passes: identical survivor work with and without the crash.
    let survivor_traces: Vec<Vec<TraceStep<'_, i64>>> = vec![traces[1].clone(), traces[2].clone()];
    let clean_ms = time_ms(reps, || {
        let mut sched = BatchScheduler::new(config, BatchPolicy::RoundRobin);
        let mut acc = 0i64;
        sched.run(&survivor_traces, |_, _, out| {
            acc ^= out.as_slice().first().copied().unwrap_or(0);
        });
        acc
    });
    let faulted_ms = time_ms(reps, || {
        let mut sched = BatchScheduler::new(config, BatchPolicy::RoundRobin);
        let mut acc = 0i64;
        sched.run(&traces, |t, s, out| {
            if t == 0 {
                panic!("bench fault: lane 0 crashes at step {s}");
            }
            acc ^= out.as_slice().first().copied().unwrap_or(0);
        });
        acc
    });

    // Crash-safe store leg: persist the warmed cache a few times, rot one
    // byte of the newest file on disk, and let the checksum-verified loader
    // quarantine it and fall back to the previous good snapshot.
    let dir = std::env::temp_dir().join(format!(
        "prosperity_bench_resilience_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SnapshotStore::new(&dir, 8).expect("snapshot store");
    let snapshot = sched.shared_cache().export_hottest(256);
    let snapshot_saves = 3;
    let mut newest = std::path::PathBuf::new();
    for _ in 0..snapshot_saves {
        newest = store.save(&snapshot).expect("save snapshot");
    }
    let mut bytes = std::fs::read(&newest).expect("read newest snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&newest, &bytes).expect("write rotted snapshot");
    let recovered = store
        .load_latest_valid()
        .expect("recovery must not error")
        .expect("an older good snapshot must survive");
    assert_eq!(recovered.len(), snapshot.len(), "recovery must be total");
    let snapshots_quarantined = store.quarantined();
    assert!(snapshots_quarantined >= 1, "rot must be quarantined");
    let _ = std::fs::remove_dir_all(&dir);

    ResilienceOut {
        survivor_gemms,
        clean_ms,
        faulted_ms,
        lane_faults: stats.lane_faults,
        shard_resets: stats.shard_resets,
        snapshot_saves,
        snapshots_quarantined,
        recovered_plans: recovered.len(),
    }
}

/// The `fleet` scenario's measurements: a cold process joining a warm
/// fleet through snapshot gossip vs the same process starting alone.
struct FleetOut {
    /// Warm fleet members (the joiner is on top of these).
    nodes: usize,
    /// Timesteps of the joiner's stream.
    steps: usize,
    /// The steady-state bar: a step counts as steady when ≥ this fraction
    /// of its tile lookups hit the cache.
    steady_hit_rate: f64,
    /// Steps before the first steady step, starting alone vs joining.
    cold_alone_steps_to_steady: usize,
    warm_join_steps_to_steady: usize,
    /// Per-step hit-rate curves of both passes.
    cold_curve: Vec<f64>,
    warm_curve: Vec<f64>,
    /// Cross-process duplicate-plan savings: plans the cold-alone pass
    /// computed that the warm join did not (cold misses − warm misses).
    duplicate_plans_saved: u64,
    /// Gossip accounting of the warm join.
    gossip_imports: u64,
    gossip_plans_adopted: u64,
    /// Joiner lookups served by plans a *peer* computed.
    restored_hits: u64,
    /// Restart-to-served wall time: fresh loop + whole stream, with the
    /// gossip bootstrap (warm) or without (cold).
    cold_ms: f64,
    warm_ms: f64,
    /// The gossip bootstrap alone (fresh loop, scan + decode + import of
    /// every peer snapshot, zero steps served) — the one-time price of
    /// joining warm, paid inside `warm_ms` too. Fleet mode buys hit-rate
    /// warmth from step 0 and fleet-wide deduplicated planning; on a
    /// stream this short the bootstrap is not amortized, so `warm_ms` may
    /// exceed `cold_ms` — the contract metrics are the steady-state steps
    /// and the duplicate-plan savings.
    bootstrap_ms: f64,
}

fn fleet(smoke: bool, reps: usize) -> FleetOut {
    let (steps, rows, k, n) = if smoke {
        (4, 512, 128, 8)
    } else {
        (6, 1024, 256, 8)
    };
    // Same shape as `tenant_case`, but tighter cross-tenant correlation:
    // 0.99995 per row compounds to ≈ 0.99 of tiles shared tenant-to-tenant
    // over the 256-row tile height — the fleet's caches cover nearly every
    // tile the joiner is about to serve, which is the regime fleet mode
    // exists for (same model replicated across processes).
    let gen = TraceGen::new(TraceGenParams::uncorrelated(0.30));
    let mut rng = StdRng::seed_from_u64(0xF1EE7);
    let streams = gen.generate_tenant_streams(3, steps, rows, k, 0.999, 0.99995, &mut rng);
    let weights = WeightMatrix::from_fn(k, n, |r, c| (r * 31 + c * 7) as i64 % 255 - 127);
    let tile = TileShape::prosperity_default();
    let config = EngineConfig::new(tile, 4096);
    let steady_hit_rate = 0.9;

    // Serial private-cache oracle for the joiner's stream (the bit gate).
    let want: Vec<OutputMatrix<i64>> = {
        let mut engine = Session::new(config);
        streams[2]
            .iter()
            .map(|s| {
                let mut out = OutputMatrix::zeros(0, 0);
                engine.gemm_into(s, &weights, &mut out);
                out
            })
            .collect()
    };

    // The warm fleet: two members serve their tenants and export their
    // hottest plans to their store directories (the `node-<id>` layout the
    // multi-process example shares).
    let root = std::env::temp_dir().join(format!("prosperity_bench_fleet_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let service = ServiceConfig::default().with_gossip(1, Vec::new());
    let mut fleet: FleetHarness<i64> =
        FleetHarness::new(&root, config, BatchPolicy::RoundRobin, service);
    for id in [0u64, 1] {
        fleet.join(id).expect("join fleet");
        let traces: Vec<Vec<TraceStep<'_, i64>>> =
            vec![streams[id as usize].iter().map(|s| (s, &weights)).collect()];
        fleet.node_mut(id).unwrap().run(&traces, |_, _, _| {});
        fleet.export_now(id, 4096).expect("export");
    }
    let peer_dirs = vec![
        FleetHarness::<i64>::store_dir(&root, 0),
        FleetHarness::<i64>::store_dir(&root, 1),
    ];

    // Per-step hit-rate curve of one serving loop over the joiner stream,
    // gated bit-identical against the serial oracle.
    let curve_of = |serving: &mut ServingLoop<i64>| {
        let mut curve = Vec::with_capacity(steps);
        let mut misses_total = 0u64;
        for (s, spikes) in streams[2].iter().enumerate() {
            let before = serving.shared_cache().stats();
            let trace: Vec<Vec<TraceStep<'_, i64>>> = vec![vec![(spikes, &weights)]];
            serving.run(&trace, |_, _, out| {
                assert_eq!(out, &want[s], "fleet lost bits at step {s}");
            });
            let after = serving.shared_cache().stats();
            let hits = after.hits - before.hits;
            let misses = after.misses - before.misses;
            misses_total += misses;
            curve.push(hits as f64 / (hits + misses).max(1) as f64);
        }
        (curve, misses_total)
    };
    let steps_to_steady = |curve: &[f64]| {
        curve
            .iter()
            .position(|&r| r >= steady_hit_rate)
            .unwrap_or(curve.len())
    };

    // Cold alone: the joiner with no fleet behind it.
    let mut cold =
        ServingLoop::<i64>::new(config, BatchPolicy::RoundRobin, ServiceConfig::default());
    let (cold_curve, cold_misses) = curve_of(&mut cold);

    // Warm join: same process shape, but gossip-bootstrapped from the
    // fleet's directories before its first step.
    fleet.join(2).expect("join fleet");
    let joiner = fleet.node_mut(2).unwrap();
    let (warm_curve, warm_misses) = curve_of(joiner);
    let stats = joiner.stats();
    let cache = joiner.shared_cache().stats();
    assert!(
        stats.gossip_plans_adopted > 0,
        "gossip must adopt: {stats:?}"
    );

    let cold_alone_steps_to_steady = steps_to_steady(&cold_curve);
    let warm_join_steps_to_steady = steps_to_steady(&warm_curve);
    assert!(
        warm_join_steps_to_steady < cold_alone_steps_to_steady,
        "joining a warm fleet must reach steady state sooner: \
         warm {warm_curve:?} vs cold {cold_curve:?}"
    );
    assert!(
        warm_misses < cold_misses,
        "the warm join must recompute fewer plans ({warm_misses} vs {cold_misses})"
    );

    // Timed restart-to-served passes: fresh loop per rep; the warm pass
    // pays the gossip bootstrap (scan + decode + import) inside the
    // measurement.
    let whole: Vec<Vec<TraceStep<'_, i64>>> =
        vec![streams[2].iter().map(|s| (s, &weights)).collect()];
    let cold_ms = time_ms(reps, || {
        let mut serving =
            ServingLoop::<i64>::new(config, BatchPolicy::RoundRobin, ServiceConfig::default());
        let mut acc = 0i64;
        serving.run(&whole, |_, _, out| {
            acc ^= out.as_slice().first().copied().unwrap_or(0);
        });
        acc
    });
    let warm_ms = time_ms(reps, || {
        let service = ServiceConfig::default().with_gossip(1, peer_dirs.clone());
        let mut serving = ServingLoop::<i64>::new(config, BatchPolicy::RoundRobin, service);
        let mut acc = 0i64;
        serving.run(&whole, |_, _, out| {
            acc ^= out.as_slice().first().copied().unwrap_or(0);
        });
        acc
    });
    let bootstrap_ms = time_ms(reps, || {
        let service = ServiceConfig::default().with_gossip(1, peer_dirs.clone());
        let mut serving = ServingLoop::<i64>::new(config, BatchPolicy::RoundRobin, service);
        // Zero steps: the run does nothing but the bootstrap sweep.
        serving.run(&[Vec::<TraceStep<'_, i64>>::new()], |_, _, _| {});
        serving.shared_cache().stats().resident
    });
    let _ = std::fs::remove_dir_all(&root);

    FleetOut {
        nodes: 2,
        steps,
        steady_hit_rate,
        cold_alone_steps_to_steady,
        warm_join_steps_to_steady,
        cold_curve,
        warm_curve,
        duplicate_plans_saved: cold_misses - warm_misses,
        gossip_imports: stats.gossip_imports,
        gossip_plans_adopted: stats.gossip_plans_adopted,
        restored_hits: cache.restored_hits,
        cold_ms,
        warm_ms,
        bootstrap_ms,
    }
}

/// The `preemption` scenario's measurements: the scheduling quantum sliced
/// below the GeMM under a size-skewed 1000:10:10 tenant mix.
struct PreemptionOut {
    /// Trace lengths: one long monster-GeMM lane, two short small-GeMM lanes.
    long_steps: usize,
    short_steps: usize,
    /// Row-tiles per monster GeMM (how divisible the quantum makes it).
    monster_row_tiles: usize,
    /// Whole-GeMM baseline (quantum 0): wall time until both short lanes
    /// complete, and until the whole batch drains.
    whole_short_ms: f64,
    whole_total_ms: f64,
    /// Quantum sweep: (row-tiles per visit, short-completion ms, total ms).
    sweep: Vec<(usize, f64, f64)>,
    /// The knee: the largest (cheapest) quantum still within 10 % of the
    /// sweep's best short-tenant completion latency.
    knee_quantum: usize,
    knee_short_ms: f64,
    knee_total_ms: f64,
}

impl PreemptionOut {
    /// Short-tenant completion speedup of the knee quantum over whole-GeMM
    /// dispatch.
    fn latency_improvement(&self) -> f64 {
        self.whole_short_ms / self.knee_short_ms
    }
    /// Aggregate throughput of the knee quantum relative to whole-GeMM
    /// dispatch (≥ 1 means slicing costs nothing end to end).
    fn throughput_ratio(&self) -> f64 {
        self.whole_total_ms / self.knee_total_ms
    }
}

fn preemption(smoke: bool, reps: usize) -> PreemptionOut {
    use std::sync::Arc;
    let (long_steps, short_steps) = if smoke { (120, 3) } else { (1000, 10) };
    // A 16-row tile makes the 256-row monster GeMM 16 preemption points
    // while the 16-row short GeMMs stay single-slice; k = 128 keeps each
    // row-tile wide enough (8 column-tiles) that per-visit overhead is
    // amortized over real work.
    let tile = TileShape::new(16, 16);
    let config = EngineConfig::new(tile, 4096);
    let mut rng = StdRng::seed_from_u64(0x9EE3);
    let monster = SpikeMatrix::random(256, 128, 0.3, &mut rng);
    let small = SpikeMatrix::random(16, 128, 0.35, &mut rng);
    let w = WeightMatrix::from_fn(128, 8, |r, c| (r * 17 + c * 3) as i64 % 255 - 127);
    let monster_row_tiles = monster.rows().div_ceil(tile.m);
    let traces: Vec<Vec<TraceStep<'_, i64>>> = vec![
        vec![(&monster, &w); long_steps],
        vec![(&small, &w); short_steps],
        vec![(&small, &w); short_steps],
    ];

    // Correctness gate: whole-GeMM and sliced dispatch are bit-identical
    // to the serial private-cache oracle at every swept quantum.
    let want = {
        let mut engine = Session::new(config);
        let mut want_monster = OutputMatrix::zeros(0, 0);
        engine.gemm_into(&monster, &w, &mut want_monster);
        let mut want_small = OutputMatrix::zeros(0, 0);
        engine.gemm_into(&small, &w, &mut want_small);
        (want_monster, want_small)
    };
    let quanta = [1usize, 2, 4, 8];
    for quantum in std::iter::once(0).chain(quanta) {
        let mut sched =
            BatchScheduler::new(config, BatchPolicy::RoundRobin).with_slice_quantum(quantum);
        let mut count = 0usize;
        sched.run(&traces, |lane, step, out| {
            let want = if lane == 0 { &want.0 } else { &want.1 };
            assert_eq!(
                out, want,
                "preemption lost bits: q{quantum} l{lane} s{step}"
            );
            count += 1;
        });
        assert_eq!(count, long_steps + 2 * short_steps, "q{quantum}");
    }

    // Timed passes: wall time until *both* short lanes complete (the
    // latency the quantum exists to shrink) and until the batch drains
    // (the throughput it must not cost). Preemption is a steady-state
    // serving property, so every pass plans through one pre-warmed shared
    // cache (the monster's 128-tile cold plan on its first visit would
    // otherwise dominate short-lane completion identically in every mode);
    // fresh scheduler per rep, best of reps per metric.
    let warm_cache = Arc::new(SharedPlanCache::with_shards(
        config.cache_capacity,
        SharedPlanCache::recommended_shards(config.cache_capacity),
        None,
    ));
    {
        let mut sched =
            BatchScheduler::with_cache(config, BatchPolicy::RoundRobin, Arc::clone(&warm_cache));
        let warm_traces: Vec<Vec<TraceStep<'_, i64>>> =
            vec![vec![(&monster, &w); 1], vec![(&small, &w); 1]];
        sched.run(&warm_traces, |_, _, _| {});
    }
    let measure = |quantum: usize| -> (f64, f64) {
        let (mut best_short, mut best_total) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..reps {
            let mut sched = BatchScheduler::with_cache(
                config,
                BatchPolicy::RoundRobin,
                Arc::clone(&warm_cache),
            )
            .with_slice_quantum(quantum);
            let mut shorts_done = 0usize;
            let mut short_ms = None;
            let start = std::time::Instant::now();
            sched.run(&traces, |lane, step, _| {
                if lane > 0 && step + 1 == short_steps {
                    shorts_done += 1;
                    if shorts_done == 2 {
                        short_ms = Some(start.elapsed().as_secs_f64() * 1e3);
                    }
                }
            });
            let total = start.elapsed().as_secs_f64() * 1e3;
            best_short = best_short.min(short_ms.expect("short lanes complete"));
            best_total = best_total.min(total);
        }
        (best_short, best_total)
    };
    let (whole_short_ms, whole_total_ms) = measure(0);
    let sweep: Vec<(usize, f64, f64)> = quanta
        .iter()
        .map(|&q| {
            let (s, t) = measure(q);
            (q, s, t)
        })
        .collect();

    // The knee: short-tenant latency is flat near its minimum across small
    // quanta, then climbs toward the whole-GeMM figure; take the largest
    // quantum still within 10 % of the best latency (fewest preemption
    // points that still buys the full win).
    let best_short = sweep
        .iter()
        .map(|&(_, s, _)| s)
        .fold(f64::INFINITY, f64::min);
    let &(knee_quantum, knee_short_ms, knee_total_ms) = sweep
        .iter()
        .rev()
        .find(|&&(_, s, _)| s <= best_short * 1.10)
        .expect("sweep is non-empty");

    let out = PreemptionOut {
        long_steps,
        short_steps,
        monster_row_tiles,
        whole_short_ms,
        whole_total_ms,
        sweep,
        knee_quantum,
        knee_short_ms,
        knee_total_ms,
    };
    assert!(
        out.latency_improvement() >= 2.0,
        "sliced dispatch must at least halve short-tenant completion: \
         whole {:.3} ms vs knee(q{}) {:.3} ms",
        out.whole_short_ms,
        out.knee_quantum,
        out.knee_short_ms,
    );
    assert!(
        out.throughput_ratio() >= 0.95,
        "slice overhead must stay within 5 % of whole-GeMM throughput: \
         whole {:.3} ms vs knee(q{}) {:.3} ms",
        out.whole_total_ms,
        out.knee_quantum,
        out.knee_total_ms,
    );
    out
}

/// The `shard_tuning` row's measurements: wall time and measured lock-hold
/// time of the 4-tenant correlated workload per shard count, plus what
/// [`SharedPlanCache::recommended_shards`] would pick (PR 7 left the shard
/// count "not yet tuned against" this contention counter).
struct ShardTuningOut {
    gemms: usize,
    /// (shards, wall ms, lock_hold_ns of one full gate pass).
    sweep: Vec<(usize, f64, u64)>,
    recommended: usize,
}

fn shard_tuning(smoke: bool, reps: usize) -> ShardTuningOut {
    use std::sync::Arc;
    let case = tenant_case(4, smoke);
    let tile = TileShape::prosperity_default();
    let capacity = 4096;
    let config = EngineConfig::new(tile, capacity);
    let traces = case.traces();
    let want = oracle(&case, config);
    let gemms: usize = traces.iter().map(Vec::len).sum();
    let sweep = [1usize, 2, 4, 8, 16]
        .iter()
        .map(|&shards| {
            // Gate pass: exact results, and the shard-lock hold time of
            // one cold-cache pass (planning + lookups) for this layout.
            let cache = Arc::new(SharedPlanCache::with_shards(capacity, shards, None));
            let mut sched = BatchScheduler::with_cache(config, BatchPolicy::RoundRobin, cache);
            sched.run(&traces, |t, s, out| {
                assert_eq!(out, &want[t][s], "shard_tuning lost bits: {shards} shards");
            });
            let lock_hold_ns = sched.shared_cache().stats().lock_hold_ns;
            let ms = time_ms(reps, || {
                let cache = Arc::new(SharedPlanCache::with_shards(capacity, shards, None));
                let mut sched = BatchScheduler::with_cache(config, BatchPolicy::RoundRobin, cache);
                let mut acc = 0i64;
                sched.run(&traces, |_, _, out| {
                    acc ^= out.as_slice().first().copied().unwrap_or(0);
                });
                acc
            });
            (shards, ms, lock_hold_ns)
        })
        .collect();
    ShardTuningOut {
        gemms,
        sweep,
        recommended: SharedPlanCache::recommended_shards(capacity),
    }
}

fn json_stats(s: &EngineStats) -> String {
    format!(
        concat!(
            "{{\"gemms\": {}, \"tiles\": {}, \"hits\": {}, \"misses\": {}, ",
            "\"evictions\": {}, \"bypasses\": {}, \"restored_hits\": {}, ",
            "\"hit_rate\": {:.4}}}"
        ),
        s.gemms,
        s.tiles,
        s.cache_hits,
        s.cache_misses,
        s.cache_evictions,
        s.cache_bypasses,
        s.restored_hits,
        s.hit_rate(),
    )
}

fn json_shared(c: &SharedCacheStats) -> String {
    format!(
        concat!(
            "{{\"hits\": {}, \"misses\": {}, \"insertions\": {}, ",
            "\"evictions\": {}, \"bypasses\": {}, \"dedups\": {}, ",
            "\"restored_hits\": {}, \"resident\": {}, \"restored_resident\": {}, ",
            "\"tenants\": {}, \"shards\": {}, \"capacity\": {}, ",
            "\"shard_resets\": {}, \"hit_rate\": {:.4}}}"
        ),
        c.hits,
        c.misses,
        c.insertions,
        c.evictions,
        c.bypasses,
        c.dedups,
        c.restored_hits,
        c.resident,
        c.restored_resident,
        c.tenants,
        c.shards,
        c.capacity,
        c.shard_resets,
        c.hit_rate(),
    )
}

fn json_curve(curve: &[f64]) -> String {
    let points: Vec<String> = curve.iter().map(|v| format!("{v:.4}")).collect();
    format!("[{}]", points.join(", "))
}

fn json_ints<I: std::fmt::Display>(values: &[I]) -> String {
    let items: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(", "))
}

fn json_qos(q: &QosOut) -> String {
    format!(
        concat!(
            "    {{\"name\": \"qos\", \"tenants\": 3, \"gemms\": {},\n",
            "     \"weighted\": {{\"weights\": {}, \"rr_ms\": {:.3}, ",
            "\"weighted_ms\": {:.3}, \"throughput_ratio\": {:.3}, ",
            "\"share_ratio\": {:.2}, \"rr_share_ratio\": {:.2}, ",
            "\"lane_steps\": {}}},\n",
            "     \"deadline\": {{\"budgets\": {}, \"deadline_ms\": {:.3}, ",
            "\"edf_misses\": {}, \"rr_misses\": {}, ",
            "\"edf_completion\": {}, \"rr_completion\": {}}},\n",
            "     \"rr_skew\": {{\"lengths\": {}, \"gemms\": {}, ",
            "\"rr_ms\": {:.3}}}}}"
        ),
        q.steps * 3,
        json_ints(&q.weights),
        q.rr_ms,
        q.weighted_ms,
        q.rr_ms / q.weighted_ms,
        q.weighted_share_ratio,
        q.rr_share_ratio,
        json_ints(&q.weighted_lane_steps),
        json_ints(&q.budgets),
        q.deadline_ms,
        q.edf_misses,
        q.rr_misses,
        json_ints(&q.edf_completion),
        json_ints(&q.rr_completion),
        json_ints(&q.skew_lengths),
        q.skew_gemms,
        q.skew_rr_ms,
    )
}

fn json_preemption(p: &PreemptionOut) -> String {
    let sweep: Vec<String> = p
        .sweep
        .iter()
        .map(|&(q, s, t)| {
            format!("{{\"quantum\": {q}, \"short_ms\": {s:.3}, \"total_ms\": {t:.3}}}")
        })
        .collect();
    format!(
        concat!(
            "    {{\"name\": \"preemption\", \"tenants\": 3, \"gemms\": {}, ",
            "\"lengths\": {}, \"monster_row_tiles\": {},\n",
            "     \"whole_short_ms\": {:.3}, \"whole_total_ms\": {:.3},\n",
            "     \"sweep\": [{}],\n",
            "     \"knee_quantum\": {}, \"knee_short_ms\": {:.3}, ",
            "\"knee_total_ms\": {:.3}, \"latency_improvement\": {:.2}, ",
            "\"throughput_ratio\": {:.3}}}"
        ),
        p.long_steps + 2 * p.short_steps,
        json_ints(&[p.long_steps, p.short_steps, p.short_steps]),
        p.monster_row_tiles,
        p.whole_short_ms,
        p.whole_total_ms,
        sweep.join(", "),
        p.knee_quantum,
        p.knee_short_ms,
        p.knee_total_ms,
        p.latency_improvement(),
        p.throughput_ratio(),
    )
}

fn json_shard_tuning(s: &ShardTuningOut) -> String {
    let sweep: Vec<String> = s
        .sweep
        .iter()
        .map(|&(shards, ms, ns)| {
            format!("{{\"shards\": {shards}, \"ms\": {ms:.3}, \"lock_hold_ns\": {ns}}}")
        })
        .collect();
    format!(
        concat!(
            "    {{\"name\": \"shard_tuning\", \"tenants\": 4, \"gemms\": {}, ",
            "\"recommended_shards\": {},\n",
            "     \"sweep\": [{}]}}"
        ),
        s.gemms,
        s.recommended,
        sweep.join(", "),
    )
}

fn json_fleet(f: &FleetOut) -> String {
    format!(
        concat!(
            "    {{\"name\": \"fleet\", \"nodes\": {}, \"tenants\": 3, \"gemms\": {}, ",
            "\"steady_hit_rate\": {:.2}, ",
            "\"cold_alone_steps_to_steady\": {}, \"warm_join_steps_to_steady\": {}, ",
            "\"duplicate_plans_saved\": {}, \"gossip_imports\": {}, ",
            "\"gossip_plans_adopted\": {}, \"restored_hits\": {}, ",
            "\"cold_ms\": {:.3}, \"warm_ms\": {:.3}, \"bootstrap_ms\": {:.3},\n",
            "     \"cold_hit_curve\": {},\n",
            "     \"warm_hit_curve\": {}}}"
        ),
        f.nodes,
        f.steps,
        f.steady_hit_rate,
        f.cold_alone_steps_to_steady,
        f.warm_join_steps_to_steady,
        f.duplicate_plans_saved,
        f.gossip_imports,
        f.gossip_plans_adopted,
        f.restored_hits,
        f.cold_ms,
        f.warm_ms,
        f.bootstrap_ms,
        json_curve(&f.cold_curve),
        json_curve(&f.warm_curve),
    )
}

fn json_scenario(r: &ServingOut) -> String {
    let sessions: Vec<String> = r.per_session.iter().map(json_stats).collect();
    format!(
        concat!(
            "    {{\"name\": \"{}\", \"tenants\": {}, \"gemms\": {}, ",
            "\"private_ms\": {:.3}, \"shared_rr_ms\": {:.3}, ",
            "\"speedup_rr\": {:.2},\n",
            "     \"merged\": {},\n",
            "     \"private_merged\": {},\n",
            "     \"shared_cache\": {},\n",
            "     \"sessions\": [{}]}}"
        ),
        r.name,
        r.tenants,
        r.gemms,
        r.private_ms,
        r.shared_rr_ms,
        r.speedup_rr(),
        json_stats(&r.merged),
        json_stats(&r.private_merged),
        json_shared(&r.cache),
        sessions.join(", "),
    )
}

fn main() {
    let smoke = std::env::var("PROSPERITY_SERVING_SMOKE").is_ok_and(|v| v != "0");
    // Substring filter over scenario names ("qos", "shared", "warm_start",
    // …): matching scenarios run with their correctness gates; the JSON
    // write is skipped since the file must carry every scenario.
    let only = std::env::var("PROSPERITY_SERVING_ONLY").ok();
    let wanted = |name: &str| only.as_deref().is_none_or(|o| name.contains(o));
    let reps = if smoke { 2 } else { 4 };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "Shared-cache serving benchmark (best-of-{reps} wall time, {threads} HW threads{}{})",
        if smoke { ", SMOKE" } else { "" },
        only.as_deref()
            .map(|o| format!(", only '{o}'"))
            .unwrap_or_default(),
    );
    println!(
        "{:<16} {:>7} {:>7} {:>11} {:>11} {:>11} {:>8} {:>9}",
        "scenario", "tenants", "gemms", "private ms", "rr ms", "other ms", "rr spd", "hit rate"
    );
    let results: Vec<ServingOut> = [2usize, 4, 8]
        .iter()
        .filter(|&&t| wanted(&format!("shared_cache_{t}")))
        .map(|&t| shared_vs_private(t, smoke, reps))
        .collect();
    for r in &results {
        println!(
            "{:<16} {:>7} {:>7} {:>11.2} {:>11.2} {:>11} {:>7.2}x {:>8.1}%",
            r.name,
            r.tenants,
            r.gemms,
            r.private_ms,
            r.shared_rr_ms,
            "-",
            r.speedup_rr(),
            100.0 * r.merged.hit_rate(),
        );
    }
    let adm = wanted("fig8_admission").then(|| fig8_admission(smoke, reps));
    if let Some(adm) = &adm {
        println!(
            "{:<16} {:>7} {:>7} {:>11.2} {:>11.2} {:>11} {:>7.2}x {:>8.1}%",
            "fig8_admission",
            1,
            adm.gemms,
            adm.off_ms,
            adm.on_ms,
            "-",
            adm.speedup(),
            100.0 * adm.stats_on.hit_rate(),
        );
    }
    let ws = wanted("warm_start").then(|| warm_start(smoke, reps));
    if let Some(ws) = &ws {
        println!(
            "{:<16} {:>7} {:>7} {:>11.2} {:>11.2} {:>11} {:>7.2}x {:>8.1}%",
            "warm_start",
            1,
            ws.steps,
            ws.cold_ms,
            ws.warm_ms,
            "-",
            ws.speedup(),
            100.0 * ws.stats_warm.hit_rate(),
        );
        println!(
            "  warm start: {} plans, {} KiB snapshot; step-0 hit rate {:.0}% cold -> {:.0}% restored",
            ws.snapshot_plans,
            ws.snapshot_bytes / 1024,
            100.0 * ws.cold_curve.first().copied().unwrap_or(0.0),
            100.0 * ws.warm_curve.first().copied().unwrap_or(0.0),
        );
    }
    let q = wanted("qos").then(|| qos(smoke, reps));
    if let Some(q) = &q {
        println!(
            "{:<16} {:>7} {:>7} {:>11.2} {:>11.2} {:>11.2} {:>8} {:>9}",
            "qos",
            3,
            q.steps * 3,
            q.rr_ms,
            q.weighted_ms,
            q.deadline_ms,
            "-",
            "-",
        );
        println!(
            "  qos: weighted 1:1:4 share {:.2}x (rr {:.2}x), throughput ratio {:.2}; \
             deadline misses edf {} vs rr {}; skew {:?} rr {:.2} ms",
            q.weighted_share_ratio,
            q.rr_share_ratio,
            q.rr_ms / q.weighted_ms,
            q.edf_misses,
            q.rr_misses,
            q.skew_lengths,
            q.skew_rr_ms,
        );
    }

    let pre = wanted("preemption").then(|| preemption(smoke, reps));
    if let Some(pre) = &pre {
        println!(
            "{:<16} {:>7} {:>7} {:>11.2} {:>11.2} {:>11.2} {:>7.2}x {:>9}",
            "preemption",
            3,
            pre.long_steps + 2 * pre.short_steps,
            pre.whole_short_ms,
            pre.knee_short_ms,
            pre.knee_total_ms,
            pre.latency_improvement(),
            "-",
        );
        let sweep: Vec<String> = pre
            .sweep
            .iter()
            .map(|&(q, s, _)| format!("q{q} {s:.2}"))
            .collect();
        println!(
            "  preemption: {}:{}:{} mix, {}-row-tile monster; short completion \
             {:.2} ms whole -> {:.2} ms at knee q{} ({:.2}x, throughput {:.2}x); \
             sweep [{}] ms",
            pre.long_steps,
            pre.short_steps,
            pre.short_steps,
            pre.monster_row_tiles,
            pre.whole_short_ms,
            pre.knee_short_ms,
            pre.knee_quantum,
            pre.latency_improvement(),
            pre.throughput_ratio(),
            sweep.join(", "),
        );
    }

    let st = wanted("shard_tuning").then(|| shard_tuning(smoke, reps));
    if let Some(st) = &st {
        let sweep: Vec<String> = st
            .sweep
            .iter()
            .map(|&(s, ms, ns)| format!("{s} shards {ms:.2} ms/{ns} ns"))
            .collect();
        println!(
            "  shard_tuning: recommended {} shards for this host; [{}] lock-hold",
            st.recommended,
            sweep.join(", "),
        );
    }

    let rz = wanted("resilience").then(|| resilience(smoke, reps));
    if let Some(rz) = &rz {
        println!(
            "{:<16} {:>7} {:>7} {:>11.2} {:>11.2} {:>11} {:>8} {:>9}",
            "resilience", 3, rz.survivor_gemms, rz.clean_ms, rz.faulted_ms, "-", "-", "-",
        );
        println!(
            "  resilience: surviving throughput {:.2}x of fault-free; {} lane fault(s), \
             {} shard reset(s); store quarantined {} of {} saves, recovered {} plans",
            rz.surviving_throughput_ratio(),
            rz.lane_faults,
            rz.shard_resets,
            rz.snapshots_quarantined,
            rz.snapshot_saves,
            rz.recovered_plans,
        );
    }

    let fl = wanted("fleet").then(|| fleet(smoke, reps));
    if let Some(fl) = &fl {
        println!(
            "{:<16} {:>7} {:>7} {:>11.2} {:>11.2} {:>11.2} {:>8} {:>9}",
            "fleet", 3, fl.steps, fl.cold_ms, fl.warm_ms, fl.bootstrap_ms, "-", "-",
        );
        println!(
            "  fleet: {} members + joiner; steady (≥{:.0}%) in {} step(s) warm-join \
             vs {} cold-alone; {} duplicate plans saved, {} adopted over {} import(s), \
             {} restored hits; {:.2} ms bootstrap",
            fl.nodes,
            100.0 * fl.steady_hit_rate,
            fl.warm_join_steps_to_steady,
            fl.cold_alone_steps_to_steady,
            fl.duplicate_plans_saved,
            fl.gossip_plans_adopted,
            fl.gossip_imports,
            fl.restored_hits,
            fl.bootstrap_ms,
        );
    }

    let out_path = std::env::var("BENCH_SERVING_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json").to_string()
    });
    if only.is_some() {
        println!("\nscenario filter active: not writing {out_path}");
        return;
    }
    let (adm, ws, q, pre, st, rz, fl) = (
        adm.expect("unfiltered run has fig8_admission"),
        ws.expect("unfiltered run has warm_start"),
        q.expect("unfiltered run has qos"),
        pre.expect("unfiltered run has preemption"),
        st.expect("unfiltered run has shard_tuning"),
        rz.expect("unfiltered run has resilience"),
        fl.expect("unfiltered run has fleet"),
    );
    let mut body: Vec<String> = results.iter().map(json_scenario).collect();
    body.push(format!(
        concat!(
            "    {{\"name\": \"fig8_admission\", \"tenants\": 1, \"gemms\": {}, ",
            "\"admission_off_ms\": {:.3}, \"admission_on_ms\": {:.3}, ",
            "\"speedup_admission\": {:.2},\n",
            "     \"stats_off\": {},\n",
            "     \"stats_on\": {}}}"
        ),
        adm.gemms,
        adm.off_ms,
        adm.on_ms,
        adm.speedup(),
        json_stats(&adm.stats_off),
        json_stats(&adm.stats_on),
    ));
    body.push(format!(
        concat!(
            "    {{\"name\": \"warm_start\", \"tenants\": 1, \"gemms\": {}, ",
            "\"snapshot_plans\": {}, \"snapshot_bytes\": {}, ",
            "\"cold_ms\": {:.3}, \"warm_ms\": {:.3}, \"speedup_warm\": {:.2},\n",
            "     \"cold_hit_curve\": {},\n",
            "     \"warm_hit_curve\": {},\n",
            "     \"stats_cold\": {},\n",
            "     \"stats_warm\": {}}}"
        ),
        ws.steps,
        ws.snapshot_plans,
        ws.snapshot_bytes,
        ws.cold_ms,
        ws.warm_ms,
        ws.speedup(),
        json_curve(&ws.cold_curve),
        json_curve(&ws.warm_curve),
        json_stats(&ws.stats_cold),
        json_stats(&ws.stats_warm),
    ));
    body.push(json_qos(&q));
    body.push(json_preemption(&pre));
    body.push(json_shard_tuning(&st));
    body.push(format!(
        concat!(
            "    {{\"name\": \"resilience\", \"tenants\": 3, \"gemms\": {}, ",
            "\"clean_ms\": {:.3}, \"faulted_ms\": {:.3}, ",
            "\"surviving_throughput_ratio\": {:.3},\n",
            "     \"lane_faults\": {}, \"shard_resets\": {}, ",
            "\"snapshot_saves\": {}, \"snapshots_quarantined\": {}, ",
            "\"recovered_plans\": {}}}"
        ),
        rz.survivor_gemms,
        rz.clean_ms,
        rz.faulted_ms,
        rz.surviving_throughput_ratio(),
        rz.lane_faults,
        rz.shard_resets,
        rz.snapshot_saves,
        rz.snapshots_quarantined,
        rz.recovered_plans,
    ));
    body.push(json_fleet(&fl));
    // `threads_effective` is the rayon pool size, as in BENCH_kernels.json;
    // sessions ignore it and execute on their lane's thread.
    let json = format!(
        "{{\n  \"bench\": \"serving\",\n  \"unit\": \"ms\",\n  \"timing\": \
         \"best_of_reps\",\n  \"smoke\": {},\n  \"threads\": {},\n  \
         \"threads_effective\": {},\n  \"scenarios\": [\n{}\n  ]\n}}\n",
        smoke,
        threads,
        prosperity_core::parallel_threads(),
        body.join(",\n")
    );
    if smoke {
        println!("\nsmoke mode: not overwriting {out_path}");
    } else {
        std::fs::write(&out_path, &json).expect("write bench json");
        println!("\nwrote {out_path}");
    }
}
