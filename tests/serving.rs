//! Serving-runtime correctness: N sessions sharing one sharded plan cache
//! — interleaved by the batch scheduler or running on real threads — must
//! produce outputs bit-identical to each session run serially with a
//! private cache, across ragged tilings, eviction-pressure-sized caches,
//! and adaptive-admission bypass decisions. Plans are pure functions of
//! tile content, so sharing may only ever change *who* plans a tile.

use prosperity::core::engine::{
    AdmissionConfig, BatchPolicy, BatchScheduler, EngineConfig, EngineStats, PlanSnapshot,
    ServiceConfig, ServingLoop, Session, SharedPlanCache, TraceStep,
};
use prosperity::models::tracegen::{TraceGen, TraceGenParams};
use prosperity::models::Workload;
use prosperity::spikemat::gemm::{OutputMatrix, WeightMatrix};
use prosperity::spikemat::TileShape;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A multi-tenant batch: per tenant, a timestep stream and its own weights
/// (plan sharing is keyed on spikes only, so weights may differ freely).
struct TenantBatch {
    streams: Vec<Vec<prosperity::spikemat::SpikeMatrix>>,
    weights: Vec<WeightMatrix<i64>>,
}

fn random_batch(rng: &mut StdRng) -> TenantBatch {
    let tenants = rng.gen_range(2..=4);
    let steps = rng.gen_range(2..=4);
    let rows = rng.gen_range(20..70);
    let k = rng.gen_range(10..50);
    let n = rng.gen_range(1..6);
    let gen = TraceGen::new(TraceGenParams::uncorrelated(rng.gen_range(0.1..0.5)));
    let streams = gen.generate_tenant_streams(tenants, steps, rows, k, 0.9, 0.9, rng);
    let weights = (0..tenants)
        .map(|_| WeightMatrix::from_fn(k, n, |_, _| rng.gen_range(-30i64..30)))
        .collect();
    TenantBatch { streams, weights }
}

/// The oracle: each tenant alone through a serial private-cache session.
fn serial_private_oracle(batch: &TenantBatch, config: EngineConfig) -> Vec<Vec<OutputMatrix<i64>>> {
    batch
        .streams
        .iter()
        .zip(&batch.weights)
        .map(|(stream, w)| {
            let mut engine = Session::new(config);
            let mut outs = Vec::with_capacity(stream.len());
            for spikes in stream {
                let mut out = OutputMatrix::zeros(0, 0);
                engine.gemm_into(spikes, w, &mut out);
                outs.push(out);
            }
            outs
        })
        .collect()
}

fn traces_of(batch: &TenantBatch) -> Vec<Vec<TraceStep<'_, i64>>> {
    batch
        .streams
        .iter()
        .zip(&batch.weights)
        .map(|(stream, w)| stream.iter().map(|s| (s, w)).collect())
        .collect()
}

/// Acceptance property: shared-cache sessions interleaved by the batch
/// scheduler (every policy) are bit-identical to the serial private-cache
/// oracle, across ragged tilings and eviction-pressure-sized caches.
#[test]
fn scheduled_shared_sessions_match_serial_private_oracle() {
    let mut rng = StdRng::seed_from_u64(0x5EB1);
    for trial in 0..10 {
        let batch = random_batch(&mut rng);
        let tile = TileShape::new(rng.gen_range(1..=20), rng.gen_range(1..=20));
        // Tiny capacities put every shard under constant eviction pressure.
        let config = EngineConfig::new(tile, rng.gen_range(1..32));
        let oracle = serial_private_oracle(&batch, config);
        let traces = traces_of(&batch);
        let policies = [
            BatchPolicy::RoundRobin,
            BatchPolicy::Weighted {
                weights: (0..batch.streams.len())
                    .map(|_| rng.gen_range(1..5))
                    .collect(),
            },
            BatchPolicy::Deadline {
                budgets: (0..batch.streams.len())
                    .map(|_| rng.gen_range(1..200))
                    .collect(),
            },
        ];
        for policy in policies {
            let mut sched = BatchScheduler::new(config, policy.clone());
            let mut executed = 0usize;
            sched.run(&traces, |tenant, step, out| {
                assert_eq!(
                    out, &oracle[tenant][step],
                    "trial {trial} {policy:?} tenant {tenant} step {step}"
                );
                executed += 1;
            });
            assert_eq!(executed, oracle.iter().map(Vec::len).sum::<usize>());
            // Scheduler-level stats must account for every tile exactly.
            let merged = sched.merged_stats();
            assert_eq!(merged.cache_hits + merged.cache_misses, merged.tiles);
            let cs = sched.shared_cache().stats();
            assert_eq!(cs.hits, merged.cache_hits, "trial {trial} {policy:?}");
            assert_eq!(cs.misses, merged.cache_misses);
            // Single-threaded scheduling cannot race: every miss was either
            // inserted or bypassed by admission (none configured here).
            assert_eq!(cs.insertions, cs.misses);
            assert_eq!(cs.bypasses, 0);
            // Every lane settles a credit balance, whatever the policy
            // (non-Weighted policies settle all-zero balances).
            let ss = sched.scheduler_stats();
            assert_eq!(ss.credit_balances.len(), traces.len(), "{policy:?}");
            if !matches!(policy, BatchPolicy::Weighted { .. }) {
                assert!(ss.credit_balances.iter().all(|&c| c == 0), "{policy:?}");
            }
        }
    }
}

/// Tile-granular preemption property: dispatching in sub-GeMM slice quanta
/// must be bit-identical to the serial private-cache oracle for every
/// policy and every quantum, across ragged tilings. Row-tiles are
/// independent, so slicing a GeMM across scheduler visits may change only
/// *when* row-tiles execute, never what they produce — and the row-tile
/// accounting must come out identical whatever the quantum.
///
/// It also pins the equivalence the scheduler is built on: `RoundRobin` is
/// deficit round robin with every weight 1, so at every quantum a
/// unit-weight `Weighted` run fires the sink in the same `(lane, step)`
/// order and records the same `SchedulerStats`.
#[test]
fn sliced_scheduling_matches_serial_private_oracle_across_quanta() {
    let mut rng = StdRng::seed_from_u64(0x51CE);
    for trial in 0..8 {
        let batch = random_batch(&mut rng);
        let tile = TileShape::new(rng.gen_range(1..=20), rng.gen_range(1..=20));
        let config = EngineConfig::new(tile, rng.gen_range(1..32));
        let oracle = serial_private_oracle(&batch, config);
        let traces = traces_of(&batch);
        let policies = [
            BatchPolicy::RoundRobin,
            BatchPolicy::Weighted {
                weights: vec![1; batch.streams.len()],
            },
            BatchPolicy::Weighted {
                weights: (0..batch.streams.len())
                    .map(|_| rng.gen_range(1..5))
                    .collect(),
            },
            BatchPolicy::Deadline {
                budgets: (0..batch.streams.len())
                    .map(|_| rng.gen_range(1..200))
                    .collect(),
            },
        ];
        let mut round_robin_runs = Vec::new();
        for policy in policies {
            let unit_weights = match &policy {
                BatchPolicy::Weighted { weights } => weights.iter().all(|&w| w == 1),
                _ => false,
            };
            let mut row_tiles_by_quantum = Vec::new();
            for (qi, quantum) in [1usize, 3, 0].into_iter().enumerate() {
                let mut sched =
                    BatchScheduler::new(config, policy.clone()).with_slice_quantum(quantum);
                let mut order = Vec::new();
                sched.run(&traces, |tenant, step, out| {
                    assert_eq!(
                        out, &oracle[tenant][step],
                        "trial {trial} {policy:?} quantum {quantum} tenant {tenant} step {step}"
                    );
                    order.push((tenant, step));
                });
                assert_eq!(order.len(), oracle.iter().map(Vec::len).sum::<usize>());
                let stats = sched.scheduler_stats();
                if policy == BatchPolicy::RoundRobin {
                    round_robin_runs.push((order, stats.clone()));
                } else if unit_weights {
                    assert_eq!(
                        (&order, stats),
                        (&round_robin_runs[qi].0, &round_robin_runs[qi].1),
                        "trial {trial} quantum {quantum}: unit-weight DRR must visit as round robin"
                    );
                }
                assert_eq!(
                    stats.lane_steps,
                    batch
                        .streams
                        .iter()
                        .map(|s| s.len() as u64)
                        .collect::<Vec<_>>(),
                    "trial {trial} {policy:?} quantum {quantum}: a sliced GeMM counts once"
                );
                row_tiles_by_quantum.push(stats.lane_row_tiles.clone());
                let merged = sched.merged_stats();
                assert_eq!(merged.cache_hits + merged.cache_misses, merged.tiles);
            }
            // Same per-lane row-tile totals under every quantum (identical
            // units, so QoS share ratios stay auditable across modes).
            assert_eq!(row_tiles_by_quantum[0], row_tiles_by_quantum[1]);
            assert_eq!(row_tiles_by_quantum[0], row_tiles_by_quantum[2]);
            assert!(row_tiles_by_quantum[0].iter().all(|&t| t > 0));
        }
    }
}

/// Session-level slicing: driving `gemm_slice` by hand — with a different
/// random bound every visit, including 0 = "the rest" — matches the
/// private-session oracle; the cursor state machine reports in-flight correctly and
/// `reset_slice` abandons a partial GeMM cleanly.
#[test]
fn session_gemm_slice_matches_serial_across_mixed_quanta() {
    let mut rng = StdRng::seed_from_u64(0x717E);
    for trial in 0..12 {
        let batch = random_batch(&mut rng);
        let tile = TileShape::new(rng.gen_range(1..=20), rng.gen_range(1..=20));
        let config = EngineConfig::new(tile, 64);
        let oracle = serial_private_oracle(&batch, config);
        let mut engine = Session::new(config);
        for (tenant, (stream, w)) in batch.streams.iter().zip(&batch.weights).enumerate() {
            for (step, spikes) in stream.iter().enumerate() {
                let mut out = OutputMatrix::zeros(0, 0);
                let mut visits = 0usize;
                loop {
                    let max = if rng.gen_bool(0.2) {
                        0 // finish the GeMM in one go
                    } else {
                        rng.gen_range(1..=3)
                    };
                    let run = engine.gemm_slice(spikes, w, &mut out, max);
                    visits += 1;
                    if run.done {
                        assert!(!engine.slice_in_flight());
                        break;
                    }
                    assert!(engine.slice_in_flight());
                    assert!(visits < 10_000, "cursor must make progress");
                }
                assert_eq!(
                    out, oracle[tenant][step],
                    "trial {trial} tenant {tenant} step {step}"
                );
            }
        }
        // Abandoning a partial GeMM with reset_slice leaves the session
        // ready to plan fresh work with exact results.
        let spikes = &batch.streams[0][0];
        let w = &batch.weights[0];
        let mut out = OutputMatrix::zeros(0, 0);
        let run = engine.gemm_slice(spikes, w, &mut out, 1);
        if !run.done {
            engine.reset_slice();
        }
        assert!(!engine.slice_in_flight());
        engine.gemm_into(spikes, w, &mut out);
        assert_eq!(out, oracle[0][0], "trial {trial} after reset_slice");
    }
}

/// The same property on real threads: one session per tenant, all planning
/// through one shared cache concurrently.
#[test]
fn concurrent_shared_sessions_match_serial_private_oracle() {
    use std::sync::Mutex;
    let mut rng = StdRng::seed_from_u64(0xC0CC);
    for trial in 0..6 {
        let batch = random_batch(&mut rng);
        let tile = TileShape::new(rng.gen_range(1..=16), rng.gen_range(1..=16));
        let config = EngineConfig::new(tile, rng.gen_range(1..24));
        let oracle = serial_private_oracle(&batch, config);
        let traces = traces_of(&batch);
        let mut sched = BatchScheduler::new(config, BatchPolicy::RoundRobin);
        let got: Mutex<Vec<Vec<Option<OutputMatrix<i64>>>>> =
            Mutex::new(oracle.iter().map(|outs| vec![None; outs.len()]).collect());
        sched.run_concurrent(&traces, |tenant, step, out| {
            got.lock().unwrap()[tenant][step] = Some(out.clone());
        });
        let got = got.into_inner().unwrap();
        for (tenant, outs) in oracle.iter().enumerate() {
            for (step, want) in outs.iter().enumerate() {
                assert_eq!(
                    got[tenant][step].as_ref(),
                    Some(want),
                    "trial {trial} tenant {tenant} step {step}"
                );
            }
        }
        // However the threads raced, lookups balance: every tile either hit
        // or missed, and shard counters saw exactly the sessions' traffic.
        let merged = sched.merged_stats();
        assert_eq!(merged.cache_hits + merged.cache_misses, merged.tiles);
        let cs = sched.shared_cache().stats();
        assert_eq!(cs.hits + cs.misses, merged.tiles);
    }
}

/// Bare shared sessions (no scheduler): a session can join an already-warm
/// cache mid-flight and stays exact; the late joiner plans strictly less.
#[test]
fn late_joining_session_reuses_warm_cache_exactly() {
    let mut rng = StdRng::seed_from_u64(0x1A7E);
    let batch = random_batch(&mut rng);
    let tile = TileShape::new(8, 8);
    let config = EngineConfig::new(tile, 512);
    let oracle = serial_private_oracle(&batch, config);
    let shared = Arc::new(SharedPlanCache::with_shards(512, 4, None));
    let mut first = Session::with_shared(config, Arc::clone(&shared));
    let mut out = OutputMatrix::zeros(0, 0);
    for (step, spikes) in batch.streams[0].iter().enumerate() {
        first.gemm_into(spikes, &batch.weights[0], &mut out);
        assert_eq!(out, oracle[0][step]);
    }
    // Tenant 1 is 90 % correlated with tenant 0: most of its plans are
    // already resident, and its outputs are still exactly the oracle's.
    let mut late = Session::with_shared(config, Arc::clone(&shared));
    for (step, spikes) in batch.streams[1].iter().enumerate() {
        late.gemm_into(spikes, &batch.weights[1], &mut out);
        assert_eq!(out, oracle[1][step]);
    }
    assert!(
        late.stats().cache_misses < first.stats().cache_misses,
        "late joiner should plan less: {:?} vs {:?}",
        late.stats(),
        first.stats()
    );
}

/// Multi-tenant fig8-style model traces through the scheduler: the
/// workload-layer batch helpers compose with the runtime and stay exact.
#[test]
fn tenant_model_traces_serve_exactly() {
    let workload = Workload::spikingbert_sst2();
    let tenants = workload.generate_tenant_traces(0.02, 3, 0.3);
    let weights: Vec<Vec<WeightMatrix<i64>>> = tenants
        .iter()
        .map(|t| t.layers.iter().map(|l| l.synthetic_weights(7)).collect())
        .collect();
    let traces: Vec<Vec<TraceStep<'_, i64>>> = tenants
        .iter()
        .zip(&weights)
        .map(|(t, ws)| {
            t.layers
                .iter()
                .zip(ws)
                .map(|(l, w)| (&l.spikes, w))
                .collect()
        })
        .collect();
    let tile = TileShape::prosperity_default();
    let config = EngineConfig::new(tile, 1024);
    // Oracle: per-tenant serial private sessions.
    let oracle: Vec<Vec<OutputMatrix<i64>>> = traces
        .iter()
        .map(|trace| {
            let mut engine = Session::new(config);
            trace
                .iter()
                .map(|&(s, w)| {
                    let mut out = OutputMatrix::zeros(0, 0);
                    engine.gemm_into(s, w, &mut out);
                    out
                })
                .collect()
        })
        .collect();
    let mut sched = BatchScheduler::new(config, BatchPolicy::RoundRobin);
    sched.run(&traces, |tenant, step, out| {
        assert_eq!(out, &oracle[tenant][step], "tenant {tenant} step {step}");
    });
    let merged = sched.merged_stats();
    assert_eq!(
        merged.gemms as usize,
        traces.iter().map(Vec::len).sum::<usize>()
    );
}

/// Adaptive admission on an uncorrelated stream: results stay exact while
/// insertions are bypassed, and a correlated stream keeps its hits.
#[test]
fn admission_bypass_is_lossless_and_reversible() {
    let mut rng = StdRng::seed_from_u64(0xADA1);
    let tile = TileShape::new(16, 16);
    let admission = AdmissionConfig {
        window: 64,
        min_hit_permille: 50,
        probe_period: 8,
    };
    let config = EngineConfig::new(tile, 256).with_admission(admission);
    let oracle_config = EngineConfig::new(tile, 256);
    let mut engine = Session::new(config);
    let mut oracle = Session::new(oracle_config);
    let mut out = OutputMatrix::zeros(0, 0);
    let mut want = OutputMatrix::zeros(0, 0);
    // Phase 1: uncorrelated — every matrix distinct.
    for _ in 0..6 {
        let s = prosperity::spikemat::SpikeMatrix::random(64, 48, 0.4, &mut rng);
        let w = WeightMatrix::from_fn(48, 4, |r, c| (r * 3 + c) as i64 - 20);
        engine.gemm_into(&s, &w, &mut out);
        oracle.gemm_into(&s, &w, &mut want);
        assert_eq!(out, want);
    }
    assert!(
        engine.stats().cache_bypasses > 0,
        "uncorrelated stream should bypass: {:?}",
        engine.stats()
    );
    // Phase 2: a correlated stream (repeats) keeps hitting despite the
    // earlier bypass phase — probes re-seed the cache.
    let s = prosperity::spikemat::SpikeMatrix::random(64, 48, 0.4, &mut rng);
    let w = WeightMatrix::from_fn(48, 4, |r, c| (r + c) as i64);
    let before = engine.stats().cache_hits;
    for _ in 0..20 {
        engine.gemm_into(&s, &w, &mut out);
        oracle.gemm_into(&s, &w, &mut want);
        assert_eq!(out, want);
    }
    assert!(
        engine.stats().cache_hits > before,
        "correlated phase should recover hits: {:?}",
        engine.stats()
    );
}

/// Snapshot warm-start property: encode → decode → import reproduces the
/// exporting cache exactly. A warm-started session serves the same outputs
/// as the original *and* as a cold session, but its first pass over the
/// trace hits on restored plans instead of re-planning.
#[test]
fn snapshot_restored_sessions_serve_identically_but_warmer() {
    let mut rng = StdRng::seed_from_u64(0x5A9D);
    for trial in 0..8 {
        let tile = TileShape::new(rng.gen_range(2..=16), rng.gen_range(2..=16));
        let config = EngineConfig::new(tile, rng.gen_range(16..512));
        let steps = rng.gen_range(2..=4);
        let rows = rng.gen_range(20..60);
        let k = rng.gen_range(10..40);
        let gen = TraceGen::new(TraceGenParams::uncorrelated(rng.gen_range(0.1..0.5)));
        let stream = &gen.generate_tenant_streams(1, steps, rows, k, 0.95, 1.0, &mut rng)[0];
        let w = WeightMatrix::from_fn(k, 3, |r, c| (r * 7 + c) as i64 - 9);

        // Process 1: serve cold, then snapshot at "shutdown".
        let mut original = Session::new(config);
        let mut out = OutputMatrix::zeros(0, 0);
        let mut want = Vec::new();
        for s in stream {
            original.gemm_into(s, &w, &mut out);
            want.push(out.clone());
        }
        let snapshot = original.export_snapshot(config.cache_capacity);
        let resident = original.cached_plans();
        assert_eq!(snapshot.len(), resident, "trial {trial}");

        // The snapshot survives its binary format bit-for-bit: a restored
        // cache re-exports the identical byte stream.
        let bytes = snapshot.encode();
        let decoded = PlanSnapshot::decode(bytes.clone()).expect("decode");
        let (mut warm, report) = Session::warm_start(config, &decoded);
        assert_eq!(report.restored, resident, "trial {trial}: {report:?}");
        assert_eq!(warm.cached_plans(), resident);
        let re_encoded = warm.export_snapshot(config.cache_capacity).encode();
        assert_eq!(
            bytes.to_vec(),
            re_encoded.to_vec(),
            "trial {trial}: restored cache must re-export the identical snapshot"
        );

        // Process 2: the warm session's first pass serves from restored
        // plans; every output is still exactly the original's.
        for (step, s) in stream.iter().enumerate() {
            warm.gemm_into(s, &w, &mut out);
            assert_eq!(out, want[step], "trial {trial} step {step}");
        }
        let stats = warm.stats();
        assert_eq!(
            stats.cache_misses, 0,
            "trial {trial}: nothing the original planned may be re-planned"
        );
        assert_eq!(
            stats.restored_hits, stats.cache_hits,
            "trial {trial}: first-pass hits all come from the snapshot"
        );
    }
}

/// Plans restored from a decoded snapshot replay losslessly at every
/// output width: the two the executor specializes (16, 128) and a runtime
/// width with a tail strip (130), through the whole-GeMM and quantum-1
/// sliced paths. Rows drawn from a few base rows give deep prefix
/// chains, so the derived replay order is exercised.
#[test]
fn snapshot_restored_plans_replay_losslessly_at_every_width() {
    use prosperity::spikemat::gemm::spiking_gemm;
    use prosperity::spikemat::SpikeMatrix;
    let mut rng = StdRng::seed_from_u64(0x1617);
    let (m, k) = (150, 40);
    let bases = SpikeMatrix::random(3, k, 0.25, &mut rng);
    let rows = (0..m)
        .map(|_| {
            let mut row = bases.row(rng.gen_range(0..3)).clone();
            for _ in 0..rng.gen_range(0..4) {
                row.set(rng.gen_range(0..k), true);
            }
            row
        })
        .collect();
    let spikes = SpikeMatrix::from_rows(rows);
    let config = EngineConfig::new(TileShape::new(64, 16), 256);
    let mut original = Session::<i64>::new(config);
    original.gemm(&spikes, &WeightMatrix::from_fn(k, 1, |r, _| r as i64));
    let snapshot = original.export_snapshot(config.cache_capacity);
    let decoded = PlanSnapshot::decode(snapshot.encode()).expect("decode");
    for n in [16, 128, 130] {
        let w = WeightMatrix::from_fn(k, n, |_, _| rng.gen_range(-100i64..100));
        let want = spiking_gemm(&spikes, &w);
        let (mut warm, report) = Session::warm_start(config, &decoded);
        assert_eq!(report.restored, snapshot.len(), "n {n}");
        let mut out = OutputMatrix::zeros(0, 0);
        warm.gemm_into(&spikes, &w, &mut out);
        assert_eq!(out, want, "n {n}: gemm_into");
        while !warm.gemm_slice(&spikes, &w, &mut out, 1).done {}
        assert_eq!(out, want, "n {n}: gemm_slice quantum 1");
        assert_eq!(
            warm.stats().cache_misses,
            0,
            "n {n}: served from the snapshot"
        );
    }
}

/// Warm-starting a whole scheduler fleet: the shared cache restored from a
/// previous fleet's snapshot starts at that fleet's steady-state hit rate.
#[test]
fn scheduler_warm_start_erases_cold_misses() {
    let mut rng = StdRng::seed_from_u64(0xF1EE);
    let batch = random_batch(&mut rng);
    let config = EngineConfig::new(TileShape::new(8, 8), 2048);
    let oracle = serial_private_oracle(&batch, config);
    let traces = traces_of(&batch);
    let mut fleet1 = BatchScheduler::new(config, BatchPolicy::RoundRobin);
    fleet1.run(&traces, |_, _, _| {});
    let cold_misses = fleet1.merged_stats().cache_misses;
    assert!(cold_misses > 0);
    let snapshot = fleet1.shared_cache().export_hottest(2048);

    let (mut fleet2, report) =
        BatchScheduler::warm_start(config, BatchPolicy::RoundRobin, &snapshot);
    assert_eq!(report.restored, snapshot.len());
    fleet2.run(&traces, |tenant, step, out| {
        assert_eq!(out, &oracle[tenant][step], "tenant {tenant} step {step}");
    });
    let warm = fleet2.merged_stats();
    assert_eq!(
        warm.cache_misses, 0,
        "the restored fleet replays entirely from the snapshot: {warm:?}"
    );
    assert!(warm.restored_hits > 0);
    let cache = fleet2.shared_cache().stats();
    assert_eq!(cache.restored_hits, warm.restored_hits);
    assert_eq!(cache.restored_resident, snapshot.len());
}

/// The ROADMAP-documented cross-tenant admission leak, as a regression
/// test: a correlated tenant and an uncorrelated tenant sharing one cache
/// get *independent* admission decisions — the cold tenant's insertions
/// close while the hot tenant's stay open, and both stay bit-exact.
#[test]
fn per_tenant_admission_isolates_hot_and_cold_tenants() {
    let mut rng = StdRng::seed_from_u64(0x7E4A);
    let tile = TileShape::new(16, 16);
    let admission = AdmissionConfig {
        window: 32,
        min_hit_permille: 100,
        probe_period: 0,
    };
    let config = EngineConfig::new(tile, 4096);
    let shared = Arc::new(SharedPlanCache::with_shards(4096, 8, Some(admission)));
    let mut hot = Session::with_shared_tenant(config, Arc::clone(&shared), 0);
    let mut cold = Session::with_shared_tenant(config, Arc::clone(&shared), 1);
    assert_eq!((hot.tenant(), cold.tenant()), (0, 1));
    let w = WeightMatrix::from_fn(48, 4, |r, c| (r * 3 + c) as i64 - 20);
    let mut out = OutputMatrix::zeros(0, 0);
    let mut want = OutputMatrix::zeros(0, 0);
    let mut oracle = Session::new(config);
    // The hot tenant replays one matrix; the cold tenant never repeats.
    let hot_spikes = prosperity::spikemat::SpikeMatrix::random(64, 48, 0.4, &mut rng);
    for _ in 0..24 {
        hot.gemm_into(&hot_spikes, &w, &mut out);
        oracle.gemm_into(&hot_spikes, &w, &mut want);
        assert_eq!(out, want);
        let cold_spikes = prosperity::spikemat::SpikeMatrix::random(64, 48, 0.4, &mut rng);
        cold.gemm_into(&cold_spikes, &w, &mut out);
        oracle.gemm_into(&cold_spikes, &w, &mut want);
        assert_eq!(out, want);
    }
    // Independent decisions: the cold tenant's stream closed its own
    // admission window, while the hot tenant (a ~100 % hit stream sharing
    // the same shards) never bypassed anything.
    assert!(
        cold.stats().cache_bypasses > 0,
        "cold tenant must be bypassed despite the hot tenant's hits: {:?}",
        cold.stats()
    );
    assert_eq!(
        hot.stats().cache_bypasses,
        0,
        "hot tenant must not inherit the cold tenant's closed window: {:?}",
        hot.stats()
    );
    assert!(hot.stats().cache_hits > 0);
    assert_eq!(shared.stats().tenants, 2);
}

/// The lane-reuse leak, as a regression test: without `begin_batch`, a
/// second `run` with a *different* trace set inherits the previous traces'
/// admission windows under the same lane ids — run A's closed window gates
/// run B's insertions. `begin_batch` must hand run B fresh tenants whose
/// windows start open.
#[test]
fn begin_batch_stops_run_a_admission_from_gating_run_b() {
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    let tile = TileShape::new(16, 16);
    // No probes: once a window closes it stays closed — the sharpest
    // version of the leak.
    let admission = AdmissionConfig {
        window: 32,
        min_hit_permille: 100,
        probe_period: 0,
    };
    let config = EngineConfig::new(tile, 4096).with_admission(admission);
    let w = WeightMatrix::from_fn(48, 4, |r, c| (r * 3 + c) as i64 - 20);

    // Run A: an uncorrelated tenant (every matrix distinct) closes its
    // admission window on lane 0.
    let cold_stream: Vec<prosperity::spikemat::SpikeMatrix> = (0..40)
        .map(|_| prosperity::spikemat::SpikeMatrix::random(64, 48, 0.4, &mut rng))
        .collect();
    let run_a: Vec<Vec<TraceStep<'_, i64>>> = vec![cold_stream.iter().map(|s| (s, &w)).collect()];
    // Run B: a correlated tenant (one matrix replayed) on the same lane.
    let hot = prosperity::spikemat::SpikeMatrix::random(64, 48, 0.4, &mut rng);
    let run_b: Vec<Vec<TraceStep<'_, i64>>> = vec![vec![(&hot, &w); 12]];

    // Without begin_batch, run B inherits run A's closed window: its very
    // first (cold) tiles are bypassed and it can never warm up.
    let mut leaky = BatchScheduler::new(config, BatchPolicy::RoundRobin);
    leaky.run(&run_a, |_, _, _| {});
    assert!(leaky.merged_stats().cache_bypasses > 0, "run A must close");
    leaky.reset_stats();
    leaky.run(&run_b, |_, _, _| {});
    let inherited = leaky.merged_stats();
    assert!(
        inherited.cache_bypasses > 0,
        "without begin_batch run B is gated by run A's window: {inherited:?}"
    );

    // With begin_batch, run B gets a fresh tenant: its window starts open,
    // the first step inserts, and every later step hits.
    let mut clean = BatchScheduler::new(config, BatchPolicy::RoundRobin);
    clean.run(&run_a, |_, _, _| {});
    clean.begin_batch();
    clean.run(&run_b, |lane, step, out| {
        let mut oracle = Session::new(EngineConfig::new(tile, 4096));
        let mut want = OutputMatrix::zeros(0, 0);
        oracle.gemm_into(&hot, &w, &mut want);
        assert_eq!(out, &want, "lane {lane} step {step}");
    });
    let fresh = clean.merged_stats();
    assert_eq!(
        fresh.cache_bypasses, 0,
        "begin_batch must give run B an open window: {fresh:?}"
    );
    assert!(fresh.cache_hits > 0);

    // Explicit remap: run B can also pin run A's tenant back on purpose —
    // the remap path, not the leak, decides who inherits a window.
    let mut pinned = BatchScheduler::new(config, BatchPolicy::RoundRobin);
    pinned.run(&run_a, |_, _, _| {});
    pinned.begin_batch_as(&[0]);
    pinned.run(&run_b, |_, _, _| {});
    assert!(
        pinned.merged_stats().cache_bypasses > 0,
        "begin_batch_as(0) deliberately re-attaches run A's window"
    );
}

/// Background snapshot export racing in-flight planning: while the serving
/// loop executes lanes, export threads walk the shared cache shard by
/// shard. Every collected snapshot must encode → decode cleanly and import
/// into a fresh cache as verified entries that serve bit-exact outputs.
#[test]
fn background_export_races_planning_and_stays_decodable() {
    let mut rng = StdRng::seed_from_u64(0xBACE);
    for trial in 0..4 {
        let batch = random_batch(&mut rng);
        let tile = TileShape::new(rng.gen_range(4..=12), rng.gen_range(4..=12));
        let config = EngineConfig::new(tile, 512);
        let oracle = serial_private_oracle(&batch, config);
        let traces = traces_of(&batch);
        // Export every 2 executed steps so several exports overlap the run.
        let service = ServiceConfig::default().with_snapshots(2, 512);
        let mut serving = ServingLoop::new(config, BatchPolicy::RoundRobin, service);
        serving.run(&traces, |tenant, step, out| {
            assert_eq!(
                out, &oracle[tenant][step],
                "trial {trial} tenant {tenant} step {step}"
            );
        });
        let snapshots = serving.take_snapshots();
        assert!(!snapshots.is_empty(), "trial {trial}: cadence must fire");
        assert_eq!(
            serving.stats().snapshots_exported,
            snapshots.len() as u64,
            "trial {trial}"
        );
        for (i, snap) in snapshots.iter().enumerate() {
            // The full persistence path: encode → decode (checksums and
            // per-entry hashes verified) → import into a fresh cache.
            let decoded = PlanSnapshot::decode(snap.encode())
                .unwrap_or_else(|e| panic!("trial {trial} snapshot {i}: {e}"));
            assert_eq!(decoded.len(), snap.len());
            let restored = SharedPlanCache::new(512);
            let report = restored.import(&decoded, tile);
            assert_eq!(report.requested, decoded.len(), "trial {trial} snap {i}");
            assert_eq!(
                report.skipped_shape, 0,
                "exports carry only this tile shape"
            );
            assert_eq!(
                report.restored + report.skipped_capacity + report.skipped_duplicate,
                report.requested,
                "trial {trial} snap {i}: every entry accounted for"
            );
            assert_eq!(restored.len(), report.restored);
        }
        // The newest snapshot warm-starts a process that serves the same
        // batch bit-identically.
        let last = snapshots.last().unwrap();
        let (mut warm, _) = BatchScheduler::warm_start(config, BatchPolicy::RoundRobin, last);
        warm.run(&traces, |tenant, step, out| {
            assert_eq!(
                out, &oracle[tenant][step],
                "trial {trial} warm tenant {tenant} step {step}"
            );
        });
    }
}

/// Admission-table GC bounds the tenant registry under unbounded churn:
/// 1000 one-shot tenants stream through the serving loop, and the table
/// must stay within the GC's idle horizon instead of growing to 1000 —
/// while a returning tenant's window survives every sweep.
#[test]
fn admission_gc_bounds_the_table_under_tenant_churn() {
    let mut rng = StdRng::seed_from_u64(0x6C6C);
    let tile = TileShape::new(16, 16);
    let config = EngineConfig::new(tile, 2048).with_admission(AdmissionConfig::default());
    // One GC sweep per batch (each batch below runs 2 steps); windows may
    // sit idle for at most 2 sweeps.
    let service = ServiceConfig::default().with_gc(2, 2);
    let mut serving = ServingLoop::<i64>::new(config, BatchPolicy::RoundRobin, service);
    let w = WeightMatrix::from_fn(32, 3, |r, c| (r + c) as i64 - 4);
    let spikes = prosperity::spikemat::SpikeMatrix::random(32, 32, 0.3, &mut rng);
    let keeper = 5000u64; // returns in every batch
    let mut max_tenants = 0usize;
    for batch_no in 0..500u64 {
        // Two fresh tenants per batch + the keeper: 1000 distinct one-shot
        // ids over the run.
        let tenants = [keeper, 2 * batch_no, 2 * batch_no + 1];
        let traces: Vec<Vec<TraceStep<'_, i64>>> =
            tenants.iter().map(|_| vec![(&spikes, &w)]).collect();
        serving.run_batch_as(&tenants, &traces, |_, _, _| {});
        max_tenants = max_tenants.max(serving.shared_cache().stats().tenants);
    }
    let stats = serving.stats();
    assert!(
        stats.gc_evictions >= 900,
        "churned windows evicted: {stats:?}"
    );
    // Bound: the keeper + at most (idle horizon + 1) batches of 2 one-shot
    // tenants may be live at any instant — far below the 1000 minted.
    assert!(
        max_tenants <= 1 + 2 * 4,
        "table must stay bounded under churn, peaked at {max_tenants}"
    );
    let final_tenants = serving.shared_cache().stats().tenants;
    assert!(final_tenants <= 1 + 2 * 4, "final size {final_tenants}");
}

/// Stats merging is the audited sum of per-session counters.
#[test]
fn merged_stats_account_for_every_session() {
    let mut rng = StdRng::seed_from_u64(0x57A7);
    let batch = random_batch(&mut rng);
    let config = EngineConfig::new(TileShape::new(8, 8), 64);
    let traces = traces_of(&batch);
    let mut sched = BatchScheduler::new(config, BatchPolicy::RoundRobin);
    sched.run(&traces, |_, _, _| {});
    let per_session = sched.session_stats();
    assert_eq!(per_session.len(), batch.streams.len());
    let merged = sched.merged_stats();
    assert_eq!(merged, EngineStats::merged(per_session.iter()));
    let by_hand = per_session
        .iter()
        .fold(EngineStats::default(), |mut acc, s| {
            acc.merge(s);
            acc
        });
    assert_eq!(merged, by_hand);
    assert_eq!(
        merged.gemms as usize,
        batch.streams.iter().map(Vec::len).sum::<usize>()
    );
}
