//! End-to-end engine correctness: the trace execution engine (plan cache +
//! buffer pooling + row-tile parallelism) must be bit-identical to the
//! per-call `prosparsity_gemm` loop — and to the bit-sparse reference —
//! layer by layer on whole model traces, whatever the cache capacity,
//! eviction pressure, or temporal correlation of the input.

use prosperity::core::attention::{spiking_qk, spiking_qk_with};
use prosperity::core::engine::{threshold_spikes, Element, EngineConfig, Session};
use prosperity::core::exec::{execute_plan, execute_plan_serial, prosparsity_gemm};
use prosperity::core::ProSparsityPlan;
use prosperity::models::tracegen::{TraceGen, TraceGenParams};
use prosperity::models::Workload;
use prosperity::spikemat::gemm::{spiking_gemm, OutputMatrix, WeightMatrix};
use prosperity::spikemat::{SpikeMatrix, TileShape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Acceptance property: running a calibrated fig8-suite trace through one
/// engine gives, for every layer, exactly the output of the naive per-call
/// `prosparsity_gemm` loop (which is itself property-tested against the
/// bit-sparse reference).
#[test]
fn engine_is_bit_identical_to_per_call_loop_on_model_trace() {
    let workload = Workload::spikingbert_sst2();
    let trace = workload.generate_trace(0.04);
    let tile = TileShape::prosperity_default();
    let mut engine = Session::new(EngineConfig::new(tile, 256));
    let weights: Vec<_> = trace
        .layers
        .iter()
        .map(|l| l.synthetic_weights(7))
        .collect();
    let mut out = OutputMatrix::zeros(0, 0);
    for (layer, w) in trace.layers.iter().zip(&weights) {
        engine.gemm_into(&layer.spikes, w, &mut out);
        assert_eq!(
            out,
            prosparsity_gemm(&layer.spikes, w, tile),
            "layer {} diverged",
            layer.spec.name
        );
    }
    assert_eq!(engine.stats().gemms as usize, trace.layers.len());
}

/// Temporally-correlated timesteps: high persistence must produce real
/// cache hits, and every step must stay exact despite the reuse.
#[test]
fn correlated_timesteps_hit_cache_and_stay_exact() {
    let mut rng = StdRng::seed_from_u64(77);
    let gen = TraceGen::new(TraceGenParams::uncorrelated(0.25));
    // A tile hits only when all of its rows persisted, so the per-row rate
    // compounds over the 64-row tile height: 0.995^64 ≈ 0.73 per tile.
    let steps = gen.generate_timesteps(6, 256, 32, 0.995, &mut rng);
    let w = prosperity::spikemat::gemm::WeightMatrix::from_fn(32, 8, |r, c| {
        (r * 13 + c * 5) as i64 - 40
    });
    let mut engine = Session::new(EngineConfig::new(TileShape::new(64, 16), 512));
    let mut out = OutputMatrix::zeros(0, 0);
    for (t, spikes) in steps.iter().enumerate() {
        engine.gemm_into(spikes, &w, &mut out);
        assert_eq!(out, spiking_gemm(spikes, &w), "timestep {t}");
    }
    let stats = engine.stats();
    assert!(
        stats.hit_rate() > 0.3,
        "persistence 0.995 should produce hits: {stats:?}"
    );
}

/// A session stays exact under eviction pressure from a tiny cache.
#[test]
fn engine_matches_dense_under_eviction() {
    let mut rng = StdRng::seed_from_u64(99);
    let mut session = Session::new(EngineConfig::new(TileShape::new(16, 8), 3));
    for _ in 0..8 {
        let m = rng.gen_range(1..80);
        let k = rng.gen_range(1..40);
        let n = rng.gen_range(1..6);
        let s = SpikeMatrix::random(m, k, rng.gen_range(0.05..0.6), &mut rng);
        let w = prosperity::spikemat::gemm::WeightMatrix::from_fn(k, n, |_, _| {
            rng.gen_range(-20i64..20)
        });
        let mut out = OutputMatrix::zeros(0, 0);
        session.gemm_into(&s, &w, &mut out);
        assert_eq!(out, spiking_gemm(&s, &w));
    }
    assert!(session.stats().cache_evictions > 0, "{:?}", session.stats());
}

/// Every executor path equals the dense reference at output widths around
/// the executor's 16-column strips, for `i32` and `i64`, on ragged tile
/// shapes (including `k > 64`, multi-limb patterns), with prefix-heavy and
/// sparse inputs.
#[test]
fn strip_boundary_widths_are_lossless_on_every_path() {
    let mut rng = StdRng::seed_from_u64(130);
    // Prefix-heavy: every row is one of four base rows plus 0–2 extra bits.
    let bases = SpikeMatrix::random(4, 150, 0.2, &mut rng);
    let correlated = SpikeMatrix::from_rows(
        (0..70)
            .map(|i| {
                let mut row = bases.row(i % 4).clone();
                for _ in 0..rng.gen_range(0..3) {
                    row.set(rng.gen_range(0..150), true);
                }
                row
            })
            .collect(),
    );
    let sparse = SpikeMatrix::random(70, 128, 0.1, &mut rng);
    let shapes = [TileShape::new(32, 16), TileShape::new(9, 100)];
    for s in [&correlated, &sparse] {
        for shape in shapes {
            let plan = ProSparsityPlan::build_tiled(s, shape);
            for n in [1, 7, 15, 16, 17, 31, 32, 33, 64, 128, 130] {
                let what = format!(
                    "{}x{} tile {}x{} n={n}",
                    s.rows(),
                    s.cols(),
                    shape.m,
                    shape.k
                );
                let w64 = WeightMatrix::from_fn(s.cols(), n, |_, _| rng.gen_range(-99i64..99));
                check_every_path(&plan, s, &w64, shape, &what);
                let w32 = WeightMatrix::from_fn(s.cols(), n, |_, _| rng.gen_range(-99i32..99));
                check_every_path(&plan, s, &w32, shape, &what);
            }
        }
    }
}

/// `execute_plan`, `execute_plan_serial` and a quantum-1 sliced session
/// each equal `spiking_gemm`.
fn check_every_path<T>(
    plan: &ProSparsityPlan,
    s: &SpikeMatrix,
    w: &WeightMatrix<T>,
    shape: TileShape,
    what: &str,
) where
    T: Element + PartialEq + std::fmt::Debug,
{
    let want = spiking_gemm(s, w);
    assert_eq!(execute_plan(plan, w), want, "{what}: execute_plan");
    assert_eq!(execute_plan_serial(plan, w), want, "{what}: serial");
    let mut session = Session::<T>::new(EngineConfig::new(shape, 64));
    let mut out = OutputMatrix::zeros(0, 0);
    while !session.gemm_slice(s, w, &mut out, 1).done {}
    assert_eq!(out, want, "{what}: gemm_slice quantum 1");
}

/// Attention lowered through the engine equals the direct lowering, and a
/// multi-timestep attention stream reuses cached query tiles.
#[test]
fn engine_attention_is_exact_and_reuses_tiles() {
    let mut rng = StdRng::seed_from_u64(1234);
    let tile = TileShape::new(32, 16);
    let mut engine = Session::new(EngineConfig::new(tile, 128));
    let gen = TraceGen::new(TraceGenParams::uncorrelated(0.2));
    let keys = SpikeMatrix::random(24, 48, 0.25, &mut rng);
    let qs = gen.generate_timesteps(4, 64, 48, 0.95, &mut rng);
    let mut scores = OutputMatrix::zeros(0, 0);
    for q in &qs {
        spiking_qk_with(&mut engine, q, &keys, &mut scores);
        assert_eq!(scores, spiking_qk(q, &keys, tile));
    }
    assert!(engine.stats().cache_hits > 0);
}

/// Chained layer execution (threshold → next layer) stays exact across
/// repeated calls through warm pooled buffers.
#[test]
fn engine_chain_is_stable_across_repeated_runs() {
    let mut rng = StdRng::seed_from_u64(55);
    let input = SpikeMatrix::random(48, 20, 0.3, &mut rng);
    let dims = [20usize, 16, 12];
    let layers: Vec<_> = dims
        .windows(2)
        .map(|d| {
            prosperity::spikemat::gemm::WeightMatrix::from_fn(d[0], d[1], |_, _| {
                rng.gen_range(-4i64..5)
            })
        })
        .collect();
    // Reference chain via the naive loop.
    let mut cur = input.clone();
    for w in &layers {
        let out = spiking_gemm(&cur, w);
        let mut next = SpikeMatrix::zeros(0, 0);
        threshold_spikes(&out, 3, &mut next);
        cur = next;
    }
    let mut engine = Session::new(EngineConfig::new(TileShape::new(16, 16), 64));
    let mut got = SpikeMatrix::zeros(0, 0);
    for _ in 0..3 {
        engine.forward_chain(&input, &layers, 3, &mut got);
        assert_eq!(got, cur);
    }
}
