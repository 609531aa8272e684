//! The traced run: spans around the benchmark's own calls into each
//! layer's public functions, plus deltas of the counters the program
//! already keeps. Every repetition starts from freshly built, identically
//! warmed state, so the counts it reports repeat exactly for a seed.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use prosperity_core::engine::{
    EngineStats, ServiceConfig, ServingLoop, Session, SharedCacheStats, SharedPlanCache,
    SnapshotStore,
};
use prosperity_core::exec::execute_plan_serial;
use prosperity_core::{ProSparsityPlan, ProStats};
use spikemat::gemm::OutputMatrix;
use spikemat::SpikeMatrix;

use crate::measure::{checksum, median, metric, ns, Metric};
use crate::workloads::{tile, warm_server, Inputs, MixServer, Server, WorkDir, TENANTS};

/// Repetitions the traced run makes at least, however short `--seconds`.
const MIN_REPS: usize = 2;
/// Untraced/traced pass pairs per repetition for the tracing overhead:
/// at least this many, and for an eighth of the run (at most 1.5 s).
const MIN_PAIRS: usize = 2;
/// Calls per timed block of the gossip and GC sweep probes.
const SWEEP_CALLS: u32 = 32;

/// Session-layer counters over one pass.
#[derive(Debug, Clone, Copy, Default)]
struct SessionTrace {
    /// Sum of the spans around each call into the session (for
    /// `tenant_mix`, around each `run_batch_as`).
    span_ns: u64,
    stats: EngineStats,
}

/// Serving-layer counters over one pass.
#[derive(Debug, Clone, Copy, Default)]
struct ServingTrace {
    /// Sum of the spans around each batch.
    span_ns: u64,
    /// Sum of the spans inside the benchmark's sink.
    sink_ns: u64,
    /// Lanes' session counters, merged over the pass.
    lanes: EngineStats,
    /// Scheduler visits (row-tile slices) over the pass.
    visits: u64,
    shared: SharedCacheStats,
    snapshots_exported: u64,
    gossip_sweeps: u64,
    gc_sweeps: u64,
}

/// Direct calls into the lifecycle layers on a warmed cache.
#[derive(Debug, Clone, Copy, Default)]
struct ServiceProbe {
    export_ns: u64,
    snapshot_bytes: u64,
    gossip_ns: f64,
    gc_ns: f64,
}

/// Direct calls into the kernels over every matrix of the pass.
#[derive(Debug, Clone, Copy, Default)]
struct KernelProbe {
    tiles: u64,
    extract_ns: u64,
    plan_ns: u64,
    narrow_tiles: u64,
    narrow_ns: u64,
    wide_tiles: u64,
    wide_ns: u64,
    stats: ProStats,
}

/// One repetition of the traced run.
#[derive(Debug, Clone, Copy, Default)]
struct Rep {
    /// Median walls of the untraced and traced passes.
    untraced_wall_ns: f64,
    traced_wall_ns: f64,
    session: SessionTrace,
    serving: ServingTrace,
    service: ServiceProbe,
    kernels: KernelProbe,
    attempted: u64,
    failed: u64,
}

impl Rep {
    fn plan_ns_per_tile(&self) -> f64 {
        self.kernels.plan_ns as f64 / self.kernels.tiles.max(1) as f64
    }

    /// The counts that must repeat exactly for a seed.
    fn deterministic_counts(&self) -> [u64; 9] {
        let s = &self.session.stats;
        [
            s.cache_hits,
            s.cache_misses,
            s.cache_bypasses,
            s.cache_evictions,
            self.serving.shared.dedups,
            self.serving.visits,
            self.kernels.stats.bit_ops,
            self.kernels.stats.pro_ops,
            self.service.snapshot_bytes,
        ]
    }
}

/// Result of the traced run.
#[derive(Debug)]
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub reps: usize,
    pub attempted: u64,
    pub failed: u64,
    pub warnings: Vec<String>,
}

/// Runs traced repetitions for at least `seconds` (and [`MIN_REPS`]) and
/// reports every per-layer metric: medians for times, the first
/// repetition for counts.
pub fn run(inputs: &Inputs, seconds: f64, work_root: &Path) -> std::io::Result<Traced> {
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let overhead_time = Duration::from_secs_f64((seconds / 8.0).clamp(0.0, 1.5));
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed() < budget {
        reps.push(one_rep(inputs, work_root, overhead_time)?);
    }
    let mut warnings = Vec::new();
    let first = reps[0];
    if reps
        .iter()
        .any(|r| r.deterministic_counts() != first.deterministic_counts())
    {
        warnings.push("deterministic counts differ between repetitions".to_string());
    }
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let per = |num: u64, den: u64| num as f64 / den.max(1) as f64;

    let lookup = med(&|r| {
        let s = &r.session.stats;
        (s.plan_ns as f64 - s.cache_misses as f64 * r.plan_ns_per_tile()) / s.tiles.max(1) as f64
    });
    if lookup < 0.0 {
        warnings.push(format!(
            "cache.lookup_ns_per_tile is negative ({lookup:.1}): the outside plan timing and the session's plan_ns disagree"
        ));
    }
    let other = med(&|r| {
        let s = &r.session;
        (s.span_ns as f64 - s.stats.plan_ns as f64 - s.stats.exec_ns as f64)
            / s.stats.gemms.max(1) as f64
    });
    if other < 0.0 {
        warnings.push(format!(
            "session prepare + exec exceed the call span by {:.0} ns per GeMM",
            -other
        ));
    }
    let overhead = med(&|r| r.traced_wall_ns) / med(&|r| r.untraced_wall_ns) - 1.0;
    let s = first.session.stats;
    let k = first.kernels;
    let metrics = vec![
        metric(
            "spikemat.extract_ns_per_tile",
            "ns",
            med(&|r| per(r.kernels.extract_ns, r.kernels.tiles)),
        ),
        metric("cache.lookup_ns_per_tile", "ns", lookup),
        metric("cache.hit_rate", "ratio", per(s.cache_hits, s.tiles)),
        metric("cache.misses", "count", s.cache_misses as f64),
        metric("cache.bypasses", "count", s.cache_bypasses as f64),
        metric("cache.evictions", "count", s.cache_evictions as f64),
        metric("plan.ns_per_tile", "ns", med(&|r| r.plan_ns_per_tile())),
        metric("plan.bit_density", "ratio", k.stats.bit_density()),
        metric("plan.pro_density", "ratio", k.stats.pro_density()),
        metric(
            "exec.ns_per_tile_narrow",
            "ns",
            med(&|r| per(r.kernels.narrow_ns, r.kernels.narrow_tiles)),
        ),
        metric(
            "exec.ns_per_tile_wide",
            "ns",
            med(&|r| per(r.kernels.wide_ns, r.kernels.wide_tiles)),
        ),
        metric(
            "session.prepare_ns_per_gemm",
            "ns",
            med(&|r| per(r.session.stats.plan_ns, r.session.stats.gemms)),
        ),
        metric(
            "session.exec_ns_per_gemm",
            "ns",
            med(&|r| per(r.session.stats.exec_ns, r.session.stats.gemms)),
        ),
        metric("session.other_ns_per_gemm", "ns", other),
        metric(
            "shared.lock_hold_ns_per_op",
            "ns",
            med(&|r| {
                let sh = &r.serving.shared;
                per(sh.lock_hold_ns, sh.hits + sh.misses + sh.insertions)
            }),
        ),
        metric("shared.dedups", "count", first.serving.shared.dedups as f64),
        metric("batch.visits", "count", first.serving.visits as f64),
        metric(
            "batch.overhead_ns_per_visit",
            "ns",
            med(&|r| {
                let v = &r.serving;
                let lifecycle = v.gossip_sweeps as f64 * r.service.gossip_ns
                    + v.gc_sweeps as f64 * r.service.gc_ns;
                (v.span_ns as f64
                    - v.lanes.plan_ns as f64
                    - v.lanes.exec_ns as f64
                    - v.sink_ns as f64
                    - lifecycle)
                    / v.visits.max(1) as f64
            }),
        ),
        metric(
            "service.export_ms",
            "ms",
            med(&|r| r.service.export_ns as f64 / 1e6),
        ),
        metric(
            "service.snapshots_exported",
            "count",
            med(&|r| r.serving.snapshots_exported as f64),
        ),
        metric(
            "snapshot.bytes",
            "bytes",
            first.service.snapshot_bytes as f64,
        ),
        metric(
            "service.gossip_us_per_sweep",
            "us",
            med(&|r| r.service.gossip_ns / 1e3),
        ),
        metric(
            "service.gc_us_per_sweep",
            "us",
            med(&|r| r.service.gc_ns / 1e3),
        ),
        metric("trace.overhead_frac", "ratio", overhead),
    ];
    Ok(Traced {
        metrics,
        reps: reps.len(),
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        warnings,
    })
}

/// One pass's wall time and correctness tally.
#[derive(Debug, Clone, Copy, Default)]
struct Pass {
    wall_ns: u64,
    attempted: u64,
    failed: u64,
}

impl Rep {
    fn tally(&mut self, pass: &Pass) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
    }

    /// Alternates untraced and traced passes over an already warmed
    /// server, at least [`MIN_PAIRS`] pairs and `min_time` long, and
    /// keeps the median wall of each kind.
    fn overhead_pairs(&mut self, min_time: Duration, mut pass: impl FnMut(bool) -> Pass) {
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let start = Instant::now();
        let mut pairs = 0;
        while pairs < MIN_PAIRS || start.elapsed() < min_time {
            let order = if pairs % 2 == 0 {
                [false, true]
            } else {
                [true, false]
            };
            for with_trace in order {
                let p = pass(with_trace);
                self.tally(&p);
                let walls = if with_trace { &mut traced } else { &mut plain };
                walls.push(p.wall_ns as f64);
            }
            pairs += 1;
        }
        self.untraced_wall_ns = median(&plain);
        self.traced_wall_ns = median(&traced);
    }
}

/// One repetition from freshly built state: a traced pass whose counts
/// are reported, the tracing-overhead pairs, the serving-layer and
/// lifecycle probes, and the kernel probes.
fn one_rep(inputs: &Inputs, work_root: &Path, overhead_time: Duration) -> std::io::Result<Rep> {
    let mut rep = Rep::default();
    let work = WorkDir::create(work_root, "probe")?;
    match warm_server(inputs, work_root, &mut || {})? {
        Server::Session(mut session) => {
            let (pass, trace) = stream_pass(&mut session, inputs, true);
            rep.tally(&pass);
            rep.session = trace;
            rep.overhead_pairs(overhead_time, |traced| {
                stream_pass(&mut session, inputs, traced).0
            });
            let (pass, serving, replay) = stream_replay(inputs);
            rep.tally(&pass);
            rep.serving = serving;
            rep.service = service_probe(inputs, replay.shared_cache(), &[0], work.path(), None)?;
        }
        Server::Mix(mut mix) => {
            let (pass, serving) = mix_pass(&mut mix, inputs, true);
            rep.tally(&pass);
            rep.session = SessionTrace {
                span_ns: serving.span_ns,
                stats: serving.lanes,
            };
            rep.serving = serving;
            rep.service = service_probe(
                inputs,
                mix.serving.shared_cache(),
                &TENANTS,
                work.path(),
                Some(&mix.peer_dir),
            )?;
            rep.overhead_pairs(overhead_time, |traced| mix_pass(&mut mix, inputs, traced).0);
        }
    }
    let (kernels, failed) = kernel_probe(inputs);
    rep.kernels = kernels;
    rep.failed += failed;
    Ok(rep)
}

/// Deltas of the counters the benchmark reads; any other field keeps its
/// `after` value, so counters added to the program later do not break
/// the benchmark.
fn stats_delta(after: EngineStats, before: EngineStats) -> EngineStats {
    EngineStats {
        gemms: after.gemms - before.gemms,
        tiles: after.tiles - before.tiles,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        cache_evictions: after.cache_evictions - before.cache_evictions,
        cache_bypasses: after.cache_bypasses - before.cache_bypasses,
        plan_ns: after.plan_ns - before.plan_ns,
        exec_ns: after.exec_ns - before.exec_ns,
        ..after
    }
}

fn shared_delta(after: SharedCacheStats, before: SharedCacheStats) -> SharedCacheStats {
    SharedCacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        insertions: after.insertions - before.insertions,
        evictions: after.evictions - before.evictions,
        bypasses: after.bypasses - before.bypasses,
        dedups: after.dedups - before.dedups,
        lock_hold_ns: after.lock_hold_ns - before.lock_hold_ns,
        ..after
    }
}

/// One pass of a stream workload through `session`.
fn stream_pass(session: &mut Session<i64>, inputs: &Inputs, traced: bool) -> (Pass, SessionTrace) {
    let lane = &inputs.lanes[0];
    let mut out = OutputMatrix::zeros(0, 0);
    let mut trace = SessionTrace::default();
    let mut pass = Pass {
        attempted: lane.spikes.len() as u64,
        ..Pass::default()
    };
    let before = session.stats();
    let start = Instant::now();
    for (spikes, &want) in lane.spikes.iter().zip(&lane.sums) {
        if traced {
            let call = Instant::now();
            session.gemm_into(spikes, &lane.weights, &mut out);
            trace.span_ns += ns(call.elapsed());
        } else {
            session.gemm_into(spikes, &lane.weights, &mut out);
        }
        pass.failed += u64::from(checksum(&out) != want);
    }
    pass.wall_ns = ns(start.elapsed());
    trace.stats = stats_delta(session.stats(), before);
    (pass, trace)
}

/// The stream replayed as one lane of a serving loop built like
/// `tenant_mix`'s but without lifecycle jobs: the batch and shared layers
/// on the stream's own tiles. One warm-up pass, one traced.
fn stream_replay(inputs: &Inputs) -> (Pass, ServingTrace, ServingLoop<i64>) {
    let mut serving = ServingLoop::with_scheduler(inputs.scheduler(), ServiceConfig::default());
    let lane = &inputs.lanes[0];
    let trace: Vec<_> = lane.spikes.iter().map(|s| (s, &lane.weights)).collect();
    let traces = [trace];
    serving.run_batch_as(&[0], &traces, |_, _, _| {});
    let before = serving.shared_cache().stats();
    let mut t = ServingTrace::default();
    let mut pass = Pass {
        attempted: lane.spikes.len() as u64,
        ..Pass::default()
    };
    let start = Instant::now();
    serving.run_batch_as(&[0], &traces, |_, idx, out| {
        let s0 = Instant::now();
        pass.failed += u64::from(checksum(out) != lane.sums[idx]);
        t.sink_ns += ns(s0.elapsed());
    });
    t.span_ns = ns(start.elapsed());
    pass.wall_ns = t.span_ns;
    t.lanes = serving.scheduler().merged_stats();
    t.visits = max_completion(&serving);
    t.shared = shared_delta(serving.shared_cache().stats(), before);
    pass.failed += pass.attempted - t.lanes.gemms.min(pass.attempted);
    (pass, t, serving)
}

/// Scheduler visits of the loop's last batch: the largest completion
/// step of any lane.
fn max_completion(serving: &ServingLoop<i64>) -> u64 {
    serving
        .stats()
        .completion_steps
        .iter()
        .copied()
        .max()
        .unwrap_or(0)
}

/// One cycle of `tenant_mix` batches through `mix`.
fn mix_pass(mix: &mut MixServer, inputs: &Inputs, traced: bool) -> (Pass, ServingTrace) {
    let s = inputs.sizes;
    let mut t = ServingTrace::default();
    let mut pass = Pass::default();
    let executed_before = mix.executed;
    let shared_before = mix.serving.shared_cache().stats();
    let exported_before = mix.serving.stats().snapshots_exported;
    let check = |lane: usize, idx: usize, out: &OutputMatrix<i64>| {
        u64::from(checksum(out) != inputs.lanes[lane].sums[idx])
    };
    let start = Instant::now();
    for _ in 0..inputs.batches_per_cycle() {
        let lost = if traced {
            let batch = Instant::now();
            let (sink_ns, failed) = (&mut t.sink_ns, &mut pass.failed);
            let lost = mix.run_batch(inputs, |lane, idx, out| {
                let s0 = Instant::now();
                *failed += check(lane, idx, out);
                *sink_ns += ns(s0.elapsed());
            });
            t.span_ns += ns(batch.elapsed());
            t.visits += max_completion(&mix.serving);
            t.lanes.merge(&mix.serving.scheduler().merged_stats());
            lost
        } else {
            mix.run_batch(inputs, |lane, idx, out| {
                pass.failed += check(lane, idx, out)
            })
        };
        pass.attempted += (TENANTS.len() * s.steps_per_batch) as u64;
        pass.failed += lost;
    }
    pass.wall_ns = ns(start.elapsed());
    t.shared = shared_delta(mix.serving.shared_cache().stats(), shared_before);
    t.snapshots_exported = mix.serving.stats().snapshots_exported - exported_before;
    let fired = |every: usize| {
        let every = every.max(1) as u64;
        mix.executed / every - executed_before / every
    };
    t.gossip_sweeps = fired(s.gossip_every);
    t.gc_sweeps = fired(s.gc_every);
    (pass, t)
}

/// Direct calls into the lifecycle layers on a warmed cache: export plus
/// save, a gossip sweep over a peer directory that has nothing new (the
/// loop's steady state), and a GC sweep with its tenant touches.
fn service_probe(
    inputs: &Inputs,
    shared: &SharedPlanCache,
    tenants: &[u64],
    work: &Path,
    peer_dir: Option<&Path>,
) -> std::io::Result<ServiceProbe> {
    let io = |e: prosperity_core::engine::SnapshotError| std::io::Error::other(format!("{e:?}"));
    let mut p = ServiceProbe::default();
    let store = SnapshotStore::new(work.join("export"), 2).map_err(io)?;
    let start = Instant::now();
    let snapshot = shared.export_hottest(inputs.sizes.snapshot_plans);
    store.save(&snapshot).map_err(io)?;
    p.export_ns = ns(start.elapsed());
    p.snapshot_bytes = store.bytes_encoded();

    let peer = match peer_dir {
        Some(dir) => SnapshotStore::new(dir, 1).map_err(io)?,
        None => store,
    };
    let seq = peer
        .load_newer_than(None)
        .map_err(io)?
        .map(|(seq, _)| seq)
        .ok_or_else(|| std::io::Error::other("gossip peer directory holds no snapshot"))?;
    let start = Instant::now();
    for _ in 0..SWEEP_CALLS {
        black_box(peer.load_newer_than(Some(seq)).map_err(io)?);
    }
    p.gossip_ns = ns(start.elapsed()) as f64 / f64::from(SWEEP_CALLS);

    let start = Instant::now();
    for _ in 0..SWEEP_CALLS {
        for &tenant in tenants {
            shared.touch_tenant(tenant);
        }
        black_box(shared.gc_tenants(inputs.sizes.gc_max_idle));
    }
    p.gc_ns = ns(start.elapsed()) as f64 / f64::from(SWEEP_CALLS);
    Ok(p)
}

/// Tile extraction, serial planning and serial execution over every
/// matrix of the pass. Narrow execution uses each narrow lane's weights;
/// wide execution uses the wide lane's, or for the stream workloads the
/// stream's plans against [`Inputs::probe_wide`]. Returns the probe and
/// the executions whose output missed its oracle.
fn kernel_probe(inputs: &Inputs) -> (KernelProbe, u64) {
    let shape = tile();
    let mut k = KernelProbe::default();
    let mut failed = 0u64;
    let mut buf = SpikeMatrix::zeros(0, 0);
    for lane in &inputs.lanes {
        for (spikes, &want) in lane.spikes.iter().zip(&lane.sums) {
            let (gm, gk) = shape.grid(spikes.rows(), spikes.cols());
            let tiles = (gm * gk) as u64;
            k.tiles += tiles;

            let start = Instant::now();
            for ti in 0..gm {
                for tj in 0..gk {
                    spikes.submatrix_into(ti * shape.m, tj * shape.k, shape.m, shape.k, &mut buf);
                    black_box(&buf);
                }
            }
            k.extract_ns += ns(start.elapsed());

            let start = Instant::now();
            let plan = ProSparsityPlan::build_tiled_serial(spikes, shape);
            k.plan_ns += ns(start.elapsed());
            k.stats += *plan.stats();

            let start = Instant::now();
            let out = execute_plan_serial(&plan, &lane.weights);
            let exec_ns = ns(start.elapsed());
            failed += u64::from(checksum(&out) != want);
            if lane.wide {
                k.wide_ns += exec_ns;
                k.wide_tiles += tiles;
                continue;
            }
            k.narrow_ns += exec_ns;
            k.narrow_tiles += tiles;
            if inputs.lanes.iter().all(|l| !l.wide) {
                let start = Instant::now();
                black_box(execute_plan_serial(&plan, &inputs.probe_wide));
                k.wide_ns += ns(start.elapsed());
                k.wide_tiles += tiles;
            }
        }
    }
    (k, failed)
}
