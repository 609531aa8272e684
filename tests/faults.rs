//! Fault-tolerance properties of the serving runtime, driven by the
//! deterministic fault-injection harness (`--features fault-injection`).
//!
//! The acceptance property: under **any** injected single fault — a lane
//! panic, a panic under a shard lock, snapshot bit rot, a snapshot-store
//! IO error, or a rotted gossip peer file — the serving loop never aborts,
//! every surviving lane's output stays bit-identical to the serial
//! private-cache oracle, and the fault is visible in the scheduler's
//! counters.
#![cfg(feature = "fault-injection")]

use prosperity::core::engine::faults::{self, FaultPlan};
use prosperity::core::engine::{
    AdmissionConfig, BatchPolicy, EngineConfig, PlanSnapshot, ServiceConfig, ServingLoop, Session,
    SharedPlanCache, SnapshotStore, TraceStep,
};
use prosperity::models::tracegen::{TraceGen, TraceGenParams};
use prosperity::spikemat::gemm::{OutputMatrix, WeightMatrix};
use prosperity::spikemat::TileShape;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A multi-tenant batch: per tenant, a timestep stream and its own weights.
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

/// A snapshot directory removed on drop, unique per test.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("prosperity_faults_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The tentpole acceptance property. For every seed, [`FaultPlan::seeded`]
/// arms exactly one fault of one of the four kinds somewhere in the serving
/// path; whatever it was, the loop completes, survivors match the oracle
/// bit-for-bit, and the fired fault is accounted in the stats.
#[test]
fn any_single_injected_fault_leaves_survivors_bit_identical() {
    faults::silence_injected_panics();
    let dir = TempDir::new("property");
    let mut rng = StdRng::seed_from_u64(0xFA17);
    for seed in 0..24u64 {
        let batch = random_batch(&mut rng);
        let tenants = batch.streams.len();
        let steps = batch.streams[0].len();
        let tile = TileShape::new(rng.gen_range(4..=16), rng.gen_range(4..=16));
        let config = EngineConfig::new(tile, rng.gen_range(8..64));
        let oracle = serial_private_oracle(&batch, config);
        let traces = traces_of(&batch);

        // Fresh store per seed so retention/quarantine counters are local.
        let store_dir = dir.0.join(format!("seed{seed}"));
        let store = Arc::new(SnapshotStore::new(&store_dir, 16).expect("store"));
        let service = ServiceConfig::default().with_snapshots(2, 256);
        let mut serving = ServingLoop::new(config, BatchPolicy::RoundRobin, service)
            .with_snapshot_store(Arc::clone(&store));

        let plan = FaultPlan::seeded(seed, tenants, steps);
        let guard = faults::install(plan);
        let mut got: Vec<Vec<Option<OutputMatrix<i64>>>> =
            oracle.iter().map(|outs| vec![None; outs.len()]).collect();
        serving.run(&traces, |tenant, step, out| {
            got[tenant][step] = Some(out.clone());
        });
        let _ = serving.take_snapshots(); // join any in-flight export
        let fired = guard.fired(); // sampled before our own load below
        drop(guard);

        // Survivors are bit-identical; a faulted lane produced an exact
        // prefix and then went silent.
        let quarantined = serving.scheduler().quarantined();
        assert!(quarantined.len() <= 1, "seed {seed}: single fault");
        for (tenant, outs) in oracle.iter().enumerate() {
            let fault = quarantined.iter().find(|f| f.lane == tenant);
            for (step, want) in outs.iter().enumerate() {
                match (&got[tenant][step], fault) {
                    (Some(out), _) => assert_eq!(out, want, "seed {seed} t{tenant} s{step}"),
                    (None, Some(f)) => assert!(
                        step >= f.step,
                        "seed {seed} t{tenant}: silent only from the fault step"
                    ),
                    (None, None) => panic!("seed {seed} t{tenant} s{step}: survivor lost a step"),
                }
            }
        }

        // Every fired fault is visible in the counters.
        let stats = serving.stats();
        if fired.lane_panic || fired.shard_panic {
            assert_eq!(stats.lane_faults, 1, "seed {seed}: {stats:?}");
            assert_eq!(quarantined.len(), 1, "seed {seed}");
        } else {
            assert_eq!(stats.lane_faults, 0, "seed {seed}: {stats:?}");
        }
        if fired.shard_panic {
            assert!(stats.shard_resets >= 1, "seed {seed}: {stats:?}");
        }
        if fired.fail_io {
            // Every IO op during the run belongs to a store save, and a
            // failed save is retried with backoff.
            assert!(stats.snapshot_io_retries >= 1, "seed {seed}: {stats:?}");
        }
        // Whatever happened on disk, recovery never aborts: the newest
        // *valid* snapshot (if any) loads, and injected bit rot is caught,
        // quarantined, and counted — lazily, when the rotted file becomes
        // the newest candidate (peel newer valid files off to prove it).
        let loaded = store.load_latest_valid().expect("recovery never errors");
        if fired.corrupt_snapshot {
            while store.quarantined() == 0 {
                let files = store.files().expect("list");
                let newest = files
                    .last()
                    .unwrap_or_else(|| panic!("seed {seed}: rot must surface before disk is empty"))
                    .clone();
                std::fs::remove_file(newest).expect("remove");
                let _ = store.load_latest_valid().expect("recovery never errors");
            }
            assert!(store.quarantined() >= 1, "seed {seed}");
            assert_eq!(
                serving.stats().snapshots_quarantined,
                store.quarantined(),
                "seed {seed}"
            );
        } else if stats.snapshots_exported > 0 && !fired.fail_io {
            assert!(loaded.is_some(), "seed {seed}: clean exports must load");
            assert_eq!(store.quarantined(), 0, "seed {seed}");
        }
    }
}

/// Tile-granular preemption under fault: a lane quarantined *mid-slice* —
/// after some but not all row-tiles of its in-flight GeMM executed — never
/// surfaces the partial output (the sink fires only on a GeMM's completing
/// slice), and every surviving lane stays bit-exact under sub-GeMM quanta.
#[test]
fn lane_quarantined_mid_slice_leaves_survivors_bit_exact() {
    use prosperity::core::engine::BatchScheduler;
    faults::silence_injected_panics();
    let mut rng = StdRng::seed_from_u64(0x51FA);
    for trial in 0..6u64 {
        let batch = random_batch(&mut rng);
        let tile = TileShape::new(8, 8);
        let config = EngineConfig::new(tile, rng.gen_range(8..64));
        let oracle = serial_private_oracle(&batch, config);
        let traces = traces_of(&batch);
        // Arm the *second* slice visit of lane 1's step-1 GeMM: with 20+
        // rows under an 8-row tile every GeMM spans ≥ 3 row-tiles, so at
        // quantum 1 the panic lands genuinely mid-GeMM — one row-tile
        // executed, the rest never run.
        let guard = faults::install(FaultPlan::lane_panic_at_visit(1, 1, 1));
        let mut sched = BatchScheduler::new(config, BatchPolicy::RoundRobin).with_slice_quantum(1);
        let mut got: Vec<Vec<Option<OutputMatrix<i64>>>> =
            oracle.iter().map(|outs| vec![None; outs.len()]).collect();
        sched.run(&traces, |tenant, step, out| {
            got[tenant][step] = Some(out.clone());
        });
        assert!(guard.fired().lane_panic, "trial {trial}");
        drop(guard);
        let quarantined = sched.quarantined();
        assert_eq!(quarantined.len(), 1, "trial {trial}");
        assert_eq!(
            (quarantined[0].lane, quarantined[0].step),
            (1, 1),
            "trial {trial}"
        );
        // Row-tile accounting pins the quarantine mid-GeMM: lane 1 ran all
        // of step 0 plus exactly one row-tile of step 1 (the panicking
        // visit itself executed nothing and charged nothing).
        let gm = batch.streams[1][0].rows().div_ceil(8) as u64;
        let stats = sched.scheduler_stats();
        assert_eq!(stats.lane_row_tiles[1], gm + 1, "trial {trial}");
        assert_eq!(stats.lane_steps[1], 1, "trial {trial}");
        // The partial GeMM's output was never observed; completed steps
        // were exact; survivors served every step bit-identically.
        for (tenant, outs) in oracle.iter().enumerate() {
            for (step, want) in outs.iter().enumerate() {
                match &got[tenant][step] {
                    Some(out) => assert_eq!(out, want, "trial {trial} t{tenant} s{step}"),
                    None => assert!(
                        tenant == 1 && step >= 1,
                        "trial {trial} t{tenant} s{step}: survivor lost a step"
                    ),
                }
            }
        }
    }
}

/// Lifecycle edge: `begin_batch` after a quarantined lane hands the next
/// batch fresh lanes — the quarantine is lifted, the new run completes on
/// every lane, and no fault counters leak across the batch boundary.
#[test]
fn begin_batch_after_a_quarantined_lane_starts_clean() {
    faults::silence_injected_panics();
    let mut rng = StdRng::seed_from_u64(0xC1EA);
    let batch = random_batch(&mut rng);
    let config =
        EngineConfig::new(TileShape::new(8, 8), 128).with_admission(AdmissionConfig::default());
    let oracle = serial_private_oracle(&batch, config);
    let traces = traces_of(&batch);
    let service = ServiceConfig::default();
    let mut serving = ServingLoop::new(config, BatchPolicy::RoundRobin, service);

    let guard = faults::install(FaultPlan::lane_panic(0, 1));
    serving.run_batch(&traces, |_, _, _| {});
    assert!(guard.fired().lane_panic);
    drop(guard);
    assert_eq!(serving.stats().lane_faults, 1);
    let tenants_after_fault = serving.shared_cache().stats().tenants;

    // The next batch (no faults armed) starts clean: every lane serves
    // every step exactly, nothing remembers the quarantine, and the new
    // lanes are fresh tenant ids rather than the faulted batch's.
    let mut executed = 0usize;
    serving.run_batch(&traces, |tenant, step, out| {
        assert_eq!(out, &oracle[tenant][step], "t{tenant} s{step}");
        executed += 1;
    });
    assert_eq!(executed, oracle.iter().map(Vec::len).sum::<usize>());
    assert_eq!(serving.stats().lane_faults, 0, "no stats leak");
    assert!(serving.scheduler().quarantined().is_empty());
    assert!(
        serving.shared_cache().stats().tenants > tenants_after_fault,
        "begin_batch mints fresh tenant ids"
    );
}

/// Lifecycle edge: a background snapshot export racing a shard reset. The
/// export walks the cache shard by shard while an injected panic poisons
/// one shard mid-run; every snapshot it produced must still decode, import
/// into a fresh cache, and load back from the crash-safe store.
#[test]
fn snapshot_export_races_a_shard_reset() {
    faults::silence_injected_panics();
    let dir = TempDir::new("export_race");
    let mut rng = StdRng::seed_from_u64(0x5AFE);
    let batch = random_batch(&mut rng);
    let tile = TileShape::new(8, 8);
    let config = EngineConfig::new(tile, 512);
    let oracle = serial_private_oracle(&batch, config);
    let traces = traces_of(&batch);
    let store = Arc::new(SnapshotStore::new(&dir.0, 4).expect("store"));
    let service = ServiceConfig::default().with_snapshots(2, 512);
    let mut serving = ServingLoop::new(config, BatchPolicy::RoundRobin, service)
        .with_snapshot_store(Arc::clone(&store));

    let guard = faults::install(FaultPlan::shard_panic(3));
    serving.run(&traces, |tenant, step, out| {
        assert_eq!(out, &oracle[tenant][step], "t{tenant} s{step}");
    });
    let fired = guard.fired().shard_panic;
    drop(guard);

    let snapshots = serving.take_snapshots();
    assert!(!snapshots.is_empty(), "cadence must fire");
    for (i, snap) in snapshots.iter().enumerate() {
        let decoded =
            PlanSnapshot::decode(snap.encode()).unwrap_or_else(|e| panic!("snap {i}: {e}"));
        let restored = SharedPlanCache::new(512);
        let report = restored.import(&decoded, tile);
        assert_eq!(report.requested, decoded.len(), "snap {i}");
    }
    let loaded = store.load_latest_valid().expect("load");
    assert!(loaded.is_some(), "persisted exports survive the reset");
    // The store-level codec counters surface through the serving stats:
    // exports encoded bytes/plans, and the load above read some back.
    let stats = serving.stats();
    assert!(stats.snapshot_bytes_encoded > 0, "{stats:?}");
    assert!(stats.snapshot_bytes_loaded > 0, "{stats:?}");
    assert!(
        stats.snapshot_plans_encoded >= stats.snapshot_plans_loaded,
        "a load can only see plans some export encoded: {stats:?}"
    );
    if fired {
        let stats = serving.stats();
        assert_eq!(stats.lane_faults, 1, "{stats:?}");
        assert!(stats.shard_resets >= 1, "{stats:?}");
    }
}

/// Fleet-mode acceptance property: a **hostile peer snapshot** — rotted by
/// a flipped byte or a truncation, [`FaultPlan::seeded_peer_rot`] picks —
/// is quarantined to `*.bad` by the gossip sweep and never poisons the
/// importing node's warm cache: every output of the gossiping node stays
/// bit-identical to the no-gossip serial oracle, and nothing from the
/// rotted file is adopted.
#[test]
fn rotted_peer_snapshot_is_quarantined_and_never_poisons_serving() {
    faults::silence_injected_panics();
    let dir = TempDir::new("peer_rot");
    let mut rng = StdRng::seed_from_u64(0x60A7);
    for seed in 0..12u64 {
        let batch = random_batch(&mut rng);
        let tile = TileShape::new(8, 8);
        let config = EngineConfig::new(tile, 256);
        let oracle = serial_private_oracle(&batch, config);
        let traces = traces_of(&batch);

        // The peer: a warm donor whose store directory holds one valid
        // snapshot, which the joiner gossips in cleanly first.
        let peer_dir = dir.0.join(format!("seed{seed}"));
        let peer_store = SnapshotStore::new(&peer_dir, 16).expect("peer store");
        let mut donor = ServingLoop::new(config, BatchPolicy::RoundRobin, ServiceConfig::default());
        donor.run(&traces, |_, _, _| {});
        let exported = donor.shared_cache().export_hottest(256);
        assert!(!exported.is_empty(), "seed {seed}: donor must be warm");
        peer_store.save(&exported).expect("save");

        let service = ServiceConfig::default().with_gossip(1, vec![peer_dir.clone()]);
        let mut joiner = ServingLoop::new(config, BatchPolicy::RoundRobin, service);
        joiner.run(&traces, |tenant, step, out| {
            assert_eq!(out, &oracle[tenant][step], "seed {seed} t{tenant} s{step}");
        });
        let warm = joiner.stats();
        assert!(warm.gossip_plans_adopted > 0, "seed {seed}: {warm:?}");

        // The donor exports again, but this time the file the sweep reads
        // is rotted in flight. The joiner's cache is warm now; the rot
        // must be caught by decode, quarantined, and change nothing.
        peer_store
            .save(&donor.shared_cache().export_hottest(256))
            .expect("save");
        let guard = faults::install(FaultPlan::seeded_peer_rot(seed));
        joiner.run(&traces, |tenant, step, out| {
            assert_eq!(out, &oracle[tenant][step], "seed {seed} t{tenant} s{step}");
        });
        let fired = guard.fired().rot_peer;
        drop(guard);
        assert!(
            fired,
            "seed {seed}: every-step sweeps must read the new file"
        );

        let stats = joiner.stats();
        assert_eq!(
            stats.gossip_plans_adopted, warm.gossip_plans_adopted,
            "seed {seed}: nothing from the rotted file may be adopted"
        );
        let bad: Vec<_> = std::fs::read_dir(&peer_dir)
            .expect("list peer dir")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "bad"))
            .collect();
        assert_eq!(
            bad.len(),
            1,
            "seed {seed}: rotted file quarantined to *.bad"
        );
        // The first (valid) snapshot is still on disk and still loads —
        // quarantine is surgical, not a directory wipe.
        assert!(
            peer_store.load_latest_valid().expect("walk").is_some(),
            "seed {seed}"
        );
    }
}

/// Fleet-mode lifecycle edge: a gossip import racing the node's **own**
/// background export — the peer directory under the sweep is the store the
/// export thread is writing into. Saves are atomic (temp file + rename),
/// so the sweep must never observe a torn file: no quarantine, no decode
/// failure, outputs bit-identical throughout.
#[test]
fn self_gossip_import_races_local_export() {
    faults::silence_injected_panics();
    let dir = TempDir::new("self_gossip");
    let mut rng = StdRng::seed_from_u64(0x5E1F);
    let batch = random_batch(&mut rng);
    let tile = TileShape::new(8, 8);
    let config = EngineConfig::new(tile, 256);
    let oracle = serial_private_oracle(&batch, config);
    let traces = traces_of(&batch);
    let store = Arc::new(SnapshotStore::new(&dir.0, 4).expect("store"));
    // Export every 2 steps from the background thread, sweep the same
    // directory every step from the serving thread.
    let service = ServiceConfig::default()
        .with_snapshots(2, 256)
        .with_gossip(1, vec![dir.0.clone()]);
    let mut serving = ServingLoop::new(config, BatchPolicy::RoundRobin, service)
        .with_snapshot_store(Arc::clone(&store));
    for round in 0..3 {
        serving.run(&traces, |tenant, step, out| {
            assert_eq!(
                out, &oracle[tenant][step],
                "round {round} t{tenant} s{step}"
            );
        });
        let _ = serving.take_snapshots();
    }
    let stats = serving.stats();
    assert!(stats.snapshots_exported > 0, "{stats:?}");
    assert!(
        stats.gossip_imports > 0,
        "sweeps must see the local exports: {stats:?}"
    );
    assert_eq!(
        store.quarantined(),
        0,
        "atomic saves must never surface a torn read: {stats:?}"
    );
    assert_eq!(stats.lane_faults, 0, "{stats:?}");
}

/// Lifecycle edge: admission-table GC keeps sweeping while a lane sits in
/// quarantine. During the faulted run the loop stays up and the survivors'
/// outputs stay exact; at the next batch boundary the quarantined batch's
/// windows (the faulted lane's included) go idle and the sweeps collect
/// them, so a fault cannot pin the admission table.
#[test]
fn admission_gc_collects_a_quarantined_lanes_window() {
    faults::silence_injected_panics();
    let mut rng = StdRng::seed_from_u64(0x6C11);
    let tile = TileShape::new(16, 16);
    let config = EngineConfig::new(tile, 2048).with_admission(AdmissionConfig::default());
    // GC every 2 executed steps; a window may idle for at most 1 sweep.
    let service = ServiceConfig::default().with_gc(2, 1);
    let mut serving = ServingLoop::<i64>::new(config, BatchPolicy::RoundRobin, service);
    let w = WeightMatrix::from_fn(32, 3, |r, c| (r + c) as i64 - 4);
    // One hot matrix replayed 12 steps by 3 lanes; lane 0 faults at its
    // third step, after its admission window exists.
    let spikes = prosperity::spikemat::SpikeMatrix::random(32, 32, 0.3, &mut rng);
    let traces: Vec<Vec<TraceStep<'_, i64>>> = (0..3).map(|_| vec![(&spikes, &w); 12]).collect();
    let mut oracle_engine = Session::new(EngineConfig::new(tile, 2048));
    let mut want = OutputMatrix::zeros(0, 0);
    oracle_engine.gemm_into(&spikes, &w, &mut want);

    let guard = faults::install(FaultPlan::lane_panic(0, 2));
    let mut per_lane = [0usize; 3];
    serving.run_batch(&traces, |lane, _, out| {
        assert_eq!(out, &want, "lane {lane}");
        per_lane[lane] += 1;
    });
    assert!(guard.fired().lane_panic);
    drop(guard);

    assert_eq!(per_lane, [2, 12, 12], "survivors run to completion");
    let faulted = serving.stats();
    assert_eq!(faulted.lane_faults, 1, "{faulted:?}");
    assert_eq!(serving.shared_cache().stats().tenants, 3);

    // Next batch: fresh lanes. The faulted batch's windows — quarantined
    // lane included — are no longer live and the continuing sweeps evict
    // them, while the new batch serves exactly.
    serving.run_batch(&traces, |lane, _, out| {
        assert_eq!(out, &want, "fresh lane {lane}");
    });
    let stats = serving.stats();
    assert_eq!(stats.lane_faults, 0, "quarantine does not leak");
    assert!(
        stats.gc_evictions >= 3,
        "the faulted batch's windows must be collected: {stats:?}"
    );
    assert_eq!(
        serving.shared_cache().stats().tenants,
        3,
        "only the live batch's windows remain: {stats:?}"
    );
}
