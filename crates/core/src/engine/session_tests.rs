//! Unit tests (kept beside the module, out of its main file).

use super::super::threshold_spikes;
use super::*;
use crate::exec::prosparsity_gemm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spikemat::gemm::spiking_gemm;
use spikemat::TileShape;

fn random_case(rng: &mut StdRng) -> (SpikeMatrix, WeightMatrix<i64>) {
    let m = rng.gen_range(1..50);
    let k = rng.gen_range(1..40);
    let n = rng.gen_range(1..8);
    let s = SpikeMatrix::random(m, k, rng.gen_range(0.05..0.6), rng);
    let w = WeightMatrix::from_fn(k, n, |_, _| rng.gen_range(-50i64..50));
    (s, w)
}

#[test]
fn engine_matches_reference_across_random_cases() {
    let mut rng = StdRng::seed_from_u64(11);
    for trial in 0..20 {
        let (s, w) = random_case(&mut rng);
        let tile = TileShape::new(rng.gen_range(1..=16), rng.gen_range(1..=16));
        let mut engine = Session::new(EngineConfig::new(tile, rng.gen_range(0..8)));
        let mut out = OutputMatrix::zeros(0, 0);
        engine.gemm_into(&s, &w, &mut out);
        assert_eq!(out, spiking_gemm(&s, &w), "trial {trial}");
        assert_eq!(out, prosparsity_gemm(&s, &w, tile), "trial {trial}");
    }
}

/// A sliced GeMM accrues `plan_ns` once, on the visit that plans it, and
/// `exec_ns` on every visit.
#[test]
fn slices_time_planning_once_and_execution_per_slice() {
    let mut rng = StdRng::seed_from_u64(12);
    let s = SpikeMatrix::random(64, 32, 0.3, &mut rng);
    let w = WeightMatrix::from_fn(32, 16, |r, c| (r * 5 + c) as i64 - 60);
    let mut session = Session::new(EngineConfig::new(TileShape::new(8, 16), 64));
    let mut out = OutputMatrix::zeros(0, 0);
    assert!(!session.gemm_slice(&s, &w, &mut out, 1).done);
    let planned = session.stats();
    assert!(planned.plan_ns > 0, "{planned:?}");
    while !session.gemm_slice(&s, &w, &mut out, 1).done {}
    let done = session.stats();
    assert_eq!(done.plan_ns, planned.plan_ns, "later slices do not plan");
    assert!(done.exec_ns > 0, "{done:?}");
    assert_eq!(out, spiking_gemm(&s, &w));
}

/// A whole-GeMM plan is, tile for tile, the plans a session caches and
/// replays, on ragged shapes too: edge and non-origin tiles carry no
/// placement or valid region.
#[test]
fn grid_plans_equal_cached_plans() {
    use crate::plan::ProSparsityPlan;
    let mut rng = StdRng::seed_from_u64(30);
    let cases = [
        (50, 40, TileShape::new(16, 16)),
        (37, 70, TileShape::new(8, 64)),
        (9, 5, TileShape::new(4, 3)),
        (300, 20, TileShape::new(256, 16)),
    ];
    for (m, k, shape) in cases {
        let s = SpikeMatrix::random(m, k, 0.3, &mut rng);
        let w = WeightMatrix::from_fn(k, 3, |_, _| rng.gen_range(-9i64..9));
        let mut session = Session::new(EngineConfig::new(shape, 1024));
        session.gemm(&s, &w);
        let cached = session.export_snapshot(1024);
        let plan = ProSparsityPlan::build_tiled(&s, shape);
        let (gm, gk) = shape.grid(m, k);
        assert_eq!(plan.tiles().len(), gm * gk);
        let mut key = Vec::new();
        for (t, meta) in plan.tiles().iter().enumerate() {
            let what = format!("{m}×{k} in {}×{} tiles, tile {t}", shape.m, shape.k);
            let (row, col) = (t / gk * shape.m, t % gk * shape.k);
            s.tile_key_into(row, col, shape.m, shape.k, &mut key);
            let entry = cached.entries.iter().find(|e| *e.limbs == key[..]);
            assert_eq!(entry.map(|e| &*e.meta), Some(meta), "{what}");
            assert_eq!(&*session.tiles[t], meta, "{what}");
        }
    }
}

#[test]
fn repeated_matrix_hits_cache_and_stays_lossless() {
    let mut rng = StdRng::seed_from_u64(13);
    let s = SpikeMatrix::random(64, 32, 0.3, &mut rng);
    let w = WeightMatrix::from_fn(32, 4, |r, c| (r * 7 + c) as i64 - 9);
    let mut engine = Session::new(EngineConfig::new(TileShape::new(16, 16), 64));
    let reference = spiking_gemm(&s, &w);
    let mut out = OutputMatrix::zeros(0, 0);
    engine.gemm_into(&s, &w, &mut out);
    let misses_first = engine.stats().cache_misses;
    assert_eq!(out, reference);
    engine.gemm_into(&s, &w, &mut out);
    assert_eq!(out, reference);
    let stats = engine.stats();
    assert_eq!(stats.gemms, 2);
    // Second pass must be all hits.
    assert_eq!(stats.cache_misses, misses_first);
    assert_eq!(stats.cache_hits, misses_first);
    assert!(stats.hit_rate() > 0.49 && stats.hit_rate() < 0.51);
}

#[test]
fn identical_tiles_within_one_matrix_share_a_plan() {
    // Two identical 4-row bands → the second band's tile is a hit even
    // on the very first GeMM.
    let band = [
        &[1u8, 0, 1, 0][..],
        &[1, 0, 0, 1],
        &[1, 0, 1, 1],
        &[0, 1, 0, 0],
    ];
    let rows: Vec<&[u8]> = band.iter().chain(band.iter()).copied().collect();
    let s = SpikeMatrix::from_rows_of_bits(&rows);
    let w = WeightMatrix::from_fn(4, 3, |r, c| (r + 2 * c) as i64);
    let mut engine = Session::new(EngineConfig::new(TileShape::new(4, 4), 8));
    let mut out = OutputMatrix::zeros(0, 0);
    engine.gemm_into(&s, &w, &mut out);
    assert_eq!(out, spiking_gemm(&s, &w));
    let stats = engine.stats();
    assert_eq!(stats.tiles, 2);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 1);
}

#[test]
fn lru_evicts_oldest_and_result_stays_exact() {
    let mut rng = StdRng::seed_from_u64(14);
    // Capacity 2 with 4 distinct tiles per GeMM → constant eviction.
    let s = SpikeMatrix::random(16, 16, 0.4, &mut rng);
    let w = WeightMatrix::from_fn(16, 3, |r, c| (r * 3 + c) as i64 - 20);
    let mut engine = Session::new(EngineConfig::new(TileShape::new(4, 16), 2));
    let reference = spiking_gemm(&s, &w);
    let mut out = OutputMatrix::zeros(0, 0);
    for _ in 0..3 {
        engine.gemm_into(&s, &w, &mut out);
        assert_eq!(out, reference);
    }
    let stats = engine.stats();
    assert!(stats.cache_evictions > 0, "{stats:?}");
    assert!(engine.cached_plans() <= 2);
}

#[test]
fn zero_capacity_disables_cache() {
    let mut rng = StdRng::seed_from_u64(15);
    let s = SpikeMatrix::random(20, 10, 0.3, &mut rng);
    let w = WeightMatrix::from_fn(10, 2, |r, c| (r + c) as i64);
    let mut engine = Session::new(EngineConfig::new(TileShape::new(8, 8), 0));
    let mut out = OutputMatrix::zeros(0, 0);
    engine.gemm_into(&s, &w, &mut out);
    engine.gemm_into(&s, &w, &mut out);
    assert_eq!(out, spiking_gemm(&s, &w));
    assert_eq!(engine.stats().cache_hits, 0);
    assert_eq!(engine.cached_plans(), 0);
}

#[test]
fn shared_sessions_see_each_others_plans() {
    let mut rng = StdRng::seed_from_u64(31);
    let s = SpikeMatrix::random(64, 32, 0.3, &mut rng);
    let w = WeightMatrix::from_fn(32, 4, |r, c| (r * 5 + c) as i64 - 7);
    let shared = Arc::new(SharedPlanCache::new(256));
    let config = EngineConfig::new(TileShape::new(16, 16), 0);
    let mut a = Session::with_shared(config, Arc::clone(&shared));
    let mut b = Session::with_shared(config, Arc::clone(&shared));
    let reference = spiking_gemm(&s, &w);
    let mut out = OutputMatrix::zeros(0, 0);
    a.gemm_into(&s, &w, &mut out);
    assert_eq!(out, reference);
    let a_misses = a.stats().cache_misses;
    assert!(a_misses > 0);
    // Session B planned nothing: every tile was warmed by A.
    b.gemm_into(&s, &w, &mut out);
    assert_eq!(out, reference);
    assert_eq!(b.stats().cache_misses, 0);
    assert_eq!(b.stats().cache_hits, a_misses + a.stats().cache_hits);
    assert!(a.shared_cache().is_some());
    assert_eq!(a.cached_plans(), shared.len());
    // Shared-cache counters audit the combined traffic.
    let cs = shared.stats();
    assert_eq!(cs.misses, a_misses);
    assert_eq!(cs.insertions, a_misses);
}

#[test]
fn admission_bypass_keeps_results_exact() {
    // A stream of all-distinct matrices: admission closes after the
    // first window, bypassed tiles still execute losslessly.
    let mut rng = StdRng::seed_from_u64(33);
    let config =
        EngineConfig::new(TileShape::new(8, 8), 64).with_admission(super::super::AdmissionConfig {
            window: 16,
            min_hit_permille: 100,
            probe_period: 8,
        });
    let mut engine = Session::new(config);
    let mut out = OutputMatrix::zeros(0, 0);
    for _ in 0..12 {
        let s = SpikeMatrix::random(24, 24, 0.5, &mut rng);
        let w = WeightMatrix::from_fn(24, 3, |r, c| (r + c) as i64 - 11);
        engine.gemm_into(&s, &w, &mut out);
        assert_eq!(out, spiking_gemm(&s, &w));
    }
    let stats = engine.stats();
    assert!(stats.cache_bypasses > 0, "{stats:?}");
    // Bypassed plans never displaced anything.
    assert!(engine.cached_plans() <= 64);
}

#[test]
fn forward_chain_matches_manual_loop() {
    let mut rng = StdRng::seed_from_u64(18);
    let input = SpikeMatrix::random(24, 12, 0.35, &mut rng);
    let dims = [12usize, 9, 7, 5];
    let layers: Vec<WeightMatrix<i64>> = dims
        .windows(2)
        .map(|d| WeightMatrix::from_fn(d[0], d[1], |_, _| rng.gen_range(-3i64..4)))
        .collect();
    let threshold = 2i64;

    let mut engine = Session::new(EngineConfig::new(TileShape::new(8, 8), 32));
    let mut got = SpikeMatrix::zeros(0, 0);
    engine.forward_chain(&input, &layers, threshold, &mut got);

    // Manual reference: gemm + threshold per layer.
    let mut cur = input.clone();
    for w in &layers {
        let out = spiking_gemm(&cur, w);
        let mut next = SpikeMatrix::zeros(0, 0);
        threshold_spikes(&out, threshold, &mut next);
        cur = next;
    }
    assert_eq!(got, cur);
    // A second pass through the warmed engine is identical.
    let mut again = SpikeMatrix::zeros(0, 0);
    engine.forward_chain(&input, &layers, threshold, &mut again);
    assert_eq!(again, cur);
    assert!(engine.stats().cache_hits > 0);
}

#[test]
#[should_panic(expected = "does not chain")]
fn forward_chain_rejects_broken_adjacency() {
    let mut engine = Session::<i64>::default();
    let input = SpikeMatrix::zeros(4, 8);
    let layers = vec![
        WeightMatrix::from_fn(8, 6, |_, _| 1i64),
        WeightMatrix::from_fn(5, 3, |_, _| 1i64), // 6 != 5
    ];
    let mut out = SpikeMatrix::zeros(0, 0);
    engine.forward_chain(&input, &layers, 1, &mut out);
}

#[test]
fn chain_layout_revalidates_on_geometry_change() {
    let mut rng = StdRng::seed_from_u64(19);
    let mut engine = Session::new(EngineConfig::new(TileShape::new(8, 8), 32));
    let mut got = SpikeMatrix::zeros(0, 0);
    for dims in [[10usize, 8, 6], [12usize, 5, 9]] {
        let input = SpikeMatrix::random(16, dims[0], 0.3, &mut rng);
        let layers: Vec<WeightMatrix<i64>> = dims
            .windows(2)
            .map(|d| WeightMatrix::from_fn(d[0], d[1], |_, _| rng.gen_range(-3i64..4)))
            .collect();
        engine.forward_chain(&input, &layers, 1, &mut got);
        let mut cur = input.clone();
        for w in &layers {
            let out = spiking_gemm(&cur, w);
            let mut next = SpikeMatrix::zeros(0, 0);
            threshold_spikes(&out, 1, &mut next);
            cur = next;
        }
        assert_eq!(got, cur, "dims {dims:?}");
    }
}

#[test]
fn empty_and_degenerate_shapes() {
    let mut engine = Session::<i64>::default();
    let mut out = OutputMatrix::zeros(0, 0);
    // Zero output columns.
    let s = SpikeMatrix::random(5, 4, 0.5, &mut StdRng::seed_from_u64(1));
    let w0 = WeightMatrix::from_fn(4, 0, |_, _| 0i64);
    engine.gemm_into(&s, &w0, &mut out);
    assert_eq!((out.rows(), out.cols()), (5, 0));
    // Zero-row spike matrix.
    let empty = SpikeMatrix::zeros(0, 4);
    let w = WeightMatrix::from_fn(4, 3, |_, _| 1i64);
    engine.gemm_into(&empty, &w, &mut out);
    assert_eq!((out.rows(), out.cols()), (0, 3));
}

#[test]
#[should_panic(expected = "does not match weight rows")]
fn shape_mismatch_panics() {
    let mut engine = Session::<i64>::default();
    let s = SpikeMatrix::zeros(2, 3);
    let w = WeightMatrix::from_fn(4, 2, |_, _| 0i64);
    let mut out = OutputMatrix::zeros(0, 0);
    engine.gemm_into(&s, &w, &mut out);
}

/// `gemm_into` is `gemm_slice(.., 0)`: called while a sliced GeMM is in
/// flight it would silently resume that GeMM, so debug builds refuse.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "in flight")]
fn gemm_into_refuses_to_resume_an_in_flight_slice() {
    let mut rng = StdRng::seed_from_u64(19);
    let s = SpikeMatrix::random(32, 8, 0.3, &mut rng);
    let w = WeightMatrix::from_fn(8, 4, |r, c| (r + c) as i64);
    let mut engine = Session::new(EngineConfig::new(TileShape::new(8, 8), 16));
    let mut out = OutputMatrix::zeros(0, 0);
    let run = engine.gemm_slice(&s, &w, &mut out, 1);
    assert!(!run.done, "quantum 1 leaves 3 of 4 row-tiles pending");
    engine.gemm_into(&s, &w, &mut out);
}

/// The paper's default 256×16 tile over a ragged 300×70 input (a 44-row
/// tail row-tile and a 6-column tail k-tile): every backend plans its
/// misses from the lookup key, through `gemm_into` and quantum-1
/// `gemm_slice`. Outputs are bit-identical to the dense
/// reference and the cache counts are pinned per backend. A session's own
/// cache and a one-shard shared cache (`recommended_shards(12)` is 1) end
/// with byte-identical snapshots.
#[test]
fn default_tile_plans_from_the_key_under_every_backend() {
    let mut rng = StdRng::seed_from_u64(41);
    let a = SpikeMatrix::random(300, 70, 0.3, &mut rng);
    let b = SpikeMatrix::random(300, 70, 0.1, &mut rng);
    let w = WeightMatrix::from_fn(70, 16, |r, c| (r * 3 + c) as i64 - 40);
    let tile = TileShape::prosperity_default();
    // (gemms, tiles, hits, misses, evictions, bypasses, restored hits):
    // 10 tiles per GeMM. The 12-plan caches hit all of the repeated `a`;
    // `b` then evicts 8 plans, and the last `a` misses all 10 tiles and
    // evicts 10 more.
    let sessions = [
        (
            "off",
            Session::new(EngineConfig::new(tile, 0)),
            (4, 40, 0, 40, 0, 0, 0),
        ),
        (
            "private",
            Session::new(EngineConfig::new(tile, 12)),
            (4, 40, 10, 30, 18, 0, 0),
        ),
        (
            "shared",
            Session::with_shared(
                EngineConfig::new(tile, 0),
                Arc::new(SharedPlanCache::new(12)),
            ),
            (4, 40, 10, 30, 18, 0, 0),
        ),
    ];
    let mut out = OutputMatrix::zeros(0, 0);
    let mut exports = Vec::new();
    for (backend, mut session, expected) in sessions {
        for (step, s) in [&a, &a, &b, &a].into_iter().enumerate() {
            if step == 2 {
                while !session.gemm_slice(s, &w, &mut out, 1).done {}
            } else {
                session.gemm_into(s, &w, &mut out);
            }
            assert_eq!(out, spiking_gemm(s, &w), "{backend} step {step}");
        }
        let st = session.stats();
        let counts = (
            st.gemms,
            st.tiles,
            st.cache_hits,
            st.cache_misses,
            st.cache_evictions,
            st.cache_bypasses,
            st.restored_hits,
        );
        assert_eq!(counts, expected, "{backend}");
        exports.push(session.export_snapshot(12).encode());
    }
    assert_eq!(exports[1], exports[2], "private and shared snapshots");
}

/// A session's own cache is a one-shard [`SharedPlanCache`], so a panic
/// under its shard lock poisons it like any shared shard: the next call
/// resets the shard and serves the exact result.
#[test]
fn own_cache_recovers_from_a_panic_under_its_shard_lock() {
    use super::super::faults::{self, FaultPlan};
    faults::silence_injected_panics();
    let mut rng = StdRng::seed_from_u64(43);
    let s = SpikeMatrix::random(32, 16, 0.3, &mut rng);
    let w = WeightMatrix::from_fn(16, 4, |r, c| (r + 3 * c) as i64 - 20);
    let mut session = Session::new(EngineConfig::new(TileShape::new(8, 8), 64));
    let mut out = OutputMatrix::zeros(0, 0);
    let guard = faults::install(FaultPlan::shard_panic(0));
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        session.gemm_into(&s, &w, &mut out);
    }));
    assert!(run.is_err(), "the first insert panics under the shard lock");
    assert!(guard.fired().shard_panic);
    session.gemm_into(&s, &w, &mut out);
    assert_eq!(out, spiking_gemm(&s, &w));
    assert_eq!(session.shared_cache().unwrap().stats().shard_resets, 1);
}

/// The executor's arena holds one 16-column strip per tile row plus the
/// zero row, whatever the output width: a wide GeMM does not grow it.
#[test]
fn arena_holds_one_strip_per_tile_row_at_every_width() {
    let mut rng = StdRng::seed_from_u64(44);
    let tile = TileShape::new(32, 16);
    let s = SpikeMatrix::random(64, 48, 0.3, &mut rng);
    let mut session = Session::new(EngineConfig::new(tile, 64));
    let mut out = OutputMatrix::zeros(0, 0);
    for n in [128, 130] {
        let w = WeightMatrix::from_fn(48, n, |_, _| rng.gen_range(-50i64..50));
        session.gemm_into(&s, &w, &mut out);
        assert_eq!(out, spiking_gemm(&s, &w), "n {n}");
        assert_eq!(session.arena.len(), (tile.m + 1) * 16, "n {n}");
    }
}
