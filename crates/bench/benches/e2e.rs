//! End-to-end trace execution benchmark: the reusable [`Session`] (tile plan
//! cache + scratch reuse + buffer pooling) against the naive loop that calls
//! [`prosparsity_gemm`] once per layer/timestep, re-planning and
//! re-allocating everything each time.
//!
//! Three scenarios:
//!
//! * `correlated_trace` — a temporally-correlated timestep stream from
//!   `tracegen::generate_timesteps`: most rows persist between adjacent
//!   timesteps, so whole spike tiles repeat and the engine's plan cache
//!   skips the Detector/Pruner/Dispatcher for them. This is the acceptance
//!   scenario (target ≥ 1.5× single-threaded).
//! * `fig8_spikingbert` — a calibrated fig8-suite model trace executed
//!   layer-by-layer with synthetic weights; measures the engine on a
//!   realistic layer mix where cross-layer tile repetition is rare. Runs
//!   with the adaptive insertion-bypass admission policy, which erases the
//!   cache-bookkeeping cost this scenario used to document.
//! * `attention_stream` — `Q·Kᵀ` spiking attention over a correlated query
//!   stream, engine-routed vs per-call lowering.
//!
//! Every scenario gates on bit-identical outputs before timing anything.
//! Results are printed and written to `BENCH_e2e.json` (override with
//! `BENCH_E2E_OUT`); `PROSPERITY_E2E_SMOKE=1` shrinks sizes for CI. Run:
//!
//! ```text
//! cargo bench -p prosperity-bench --bench e2e
//! ```

use prosperity_bench::time_ms;
use prosperity_core::attention::{lower_keys, spiking_qk, spiking_qk_prelowered, spiking_qk_with};
use prosperity_core::engine::{AdmissionConfig, EngineConfig, EngineStats, Session};
use prosperity_core::exec::prosparsity_gemm;
use prosperity_models::tracegen::{TraceGen, TraceGenParams};
use prosperity_models::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spikemat::gemm::{OutputMatrix, WeightMatrix};
use spikemat::{SpikeMatrix, TileShape};

/// One scenario's measurements.
struct ScenarioOut {
    name: &'static str,
    /// GeMM calls per end-to-end pass.
    gemms: usize,
    naive_ms: f64,
    engine_ms: f64,
    stats: EngineStats,
}

impl ScenarioOut {
    fn speedup(&self) -> f64 {
        self.naive_ms / self.engine_ms
    }
}

/// The acceptance scenario: a temporally-correlated timestep stream.
fn correlated_trace(smoke: bool, reps: usize) -> ScenarioOut {
    let (steps, rows, k, n) = if smoke {
        (6, 512, 128, 8)
    } else {
        (12, 1024, 256, 16)
    };
    // Per-tile hit probability compounds the per-row persistence over the
    // tile height (256 rows at the default geometry): 0.9995^256 ≈ 0.88.
    let persistence = 0.9995;
    let tile = TileShape::prosperity_default();
    let gen = TraceGen::new(TraceGenParams::uncorrelated(0.30));
    let mut rng = StdRng::seed_from_u64(0xE2E);
    let spikes = gen.generate_timesteps(steps, rows, k, persistence, &mut rng);
    let weights = WeightMatrix::from_fn(k, n, |r, c| (r * 31 + c * 7) as i64 % 255 - 127);
    let config = EngineConfig::new(tile, 4096);

    // Correctness gate + stats capture: a fresh engine must reproduce the
    // naive loop bit-for-bit on every timestep.
    let mut engine = Session::new(config);
    let mut out = OutputMatrix::zeros(0, 0);
    for s in &spikes {
        engine.gemm_into(s, &weights, &mut out);
        assert_eq!(out, prosparsity_gemm(s, &weights, tile), "engine lost bits");
    }
    let stats = engine.stats();

    let naive_ms = time_ms(reps, || {
        let mut acc = 0i64;
        for s in &spikes {
            let o = prosparsity_gemm(s, &weights, tile);
            acc ^= o.as_slice().first().copied().unwrap_or(0);
        }
        acc
    });
    // Fresh engine per rep: the measurement includes the cold first
    // timestep and the warm remainder — the whole trace, end to end.
    let engine_ms = time_ms(reps, || {
        let mut e = Session::new(config);
        let mut o = OutputMatrix::zeros(0, 0);
        for s in &spikes {
            e.gemm_into(s, &weights, &mut o);
        }
        o.as_slice().first().copied().unwrap_or(0)
    });

    ScenarioOut {
        name: "correlated_trace",
        gemms: steps,
        naive_ms,
        engine_ms,
        stats,
    }
}

/// A calibrated fig8-suite model trace, layer by layer.
fn fig8_trace(smoke: bool, reps: usize) -> ScenarioOut {
    let workload = Workload::spikingbert_sst2();
    let scale = if smoke { 0.02 } else { 0.06 };
    let trace = workload.generate_trace(scale);
    let tile = TileShape::prosperity_default();
    let weights: Vec<WeightMatrix<i64>> = trace
        .layers
        .iter()
        .map(|l| l.synthetic_weights(7))
        .collect();
    // Cross-layer tile repetition is rare here, so the adaptive admission
    // policy bypasses most insertions — the engine stops paying cache
    // bookkeeping for reuse that never materializes (the former 0.9x row).
    let config = EngineConfig::new(tile, 2048).with_admission(AdmissionConfig::default());

    let mut engine = Session::new(config);
    let mut out = OutputMatrix::zeros(0, 0);
    for (layer, w) in trace.layers.iter().zip(&weights) {
        engine.gemm_into(&layer.spikes, w, &mut out);
        assert_eq!(
            out,
            prosparsity_gemm(&layer.spikes, w, tile),
            "engine lost bits on {}",
            layer.spec.name
        );
    }
    let stats = engine.stats();

    let naive_ms = time_ms(reps, || {
        let mut acc = 0i64;
        for (layer, w) in trace.layers.iter().zip(&weights) {
            let o = prosparsity_gemm(&layer.spikes, w, tile);
            acc ^= o.as_slice().first().copied().unwrap_or(0);
        }
        acc
    });
    let engine_ms = time_ms(reps, || {
        let mut e = Session::new(config);
        let mut o = OutputMatrix::zeros(0, 0);
        for (layer, w) in trace.layers.iter().zip(&weights) {
            e.gemm_into(&layer.spikes, w, &mut o);
        }
        o.as_slice().first().copied().unwrap_or(0)
    });

    ScenarioOut {
        name: "fig8_spikingbert",
        gemms: trace.layers.len(),
        naive_ms,
        engine_ms,
        stats,
    }
}

/// `Q·Kᵀ` spiking attention over a temporally-correlated query stream.
fn attention_stream(smoke: bool, reps: usize) -> ScenarioOut {
    let (steps, l, d) = if smoke { (4, 128, 64) } else { (8, 256, 128) };
    let tile = TileShape::prosperity_default();
    let gen = TraceGen::new(TraceGenParams::uncorrelated(0.20));
    let mut rng = StdRng::seed_from_u64(0xA77);
    let queries = gen.generate_timesteps(steps, l, d, 0.9995, &mut rng);
    let keys = SpikeMatrix::random(64, d, 0.2, &mut rng);
    let config = EngineConfig::new(tile, 2048);

    let mut engine = Session::new(config);
    let mut out = OutputMatrix::zeros(0, 0);
    for q in &queries {
        spiking_qk_with(&mut engine, q, &keys, &mut out);
        assert_eq!(out, spiking_qk(q, &keys, tile), "attention lost bits");
    }
    let stats = engine.stats();

    // Naive serving style: per-call lowering, per-call planning. Session
    // serving style: keys lowered once, scores through the plan cache.
    let naive_ms = time_ms(reps, || {
        let mut acc = 0i64;
        for q in &queries {
            let o = spiking_qk(q, &keys, tile);
            acc ^= o.as_slice().first().copied().unwrap_or(0);
        }
        acc
    });
    let kt_weights = lower_keys(&keys);
    let engine_ms = time_ms(reps, || {
        let mut e = Session::new(config);
        let mut o = OutputMatrix::zeros(0, 0);
        for q in &queries {
            spiking_qk_prelowered(&mut e, q, &kt_weights, &mut o);
        }
        o.as_slice().first().copied().unwrap_or(0)
    });

    ScenarioOut {
        name: "attention_stream",
        gemms: steps,
        naive_ms,
        engine_ms,
        stats,
    }
}

fn json_scenario(r: &ScenarioOut) -> String {
    format!(
        concat!(
            "    {{\"name\": \"{}\", \"gemms\": {}, \"tiles\": {}, ",
            "\"cache_hits\": {}, \"cache_misses\": {}, \"cache_evictions\": {}, ",
            "\"cache_bypasses\": {}, ",
            "\"hit_rate\": {:.4}, ",
            "\"naive_ms\": {:.3}, \"engine_ms\": {:.3}, \"speedup\": {:.2}}}"
        ),
        r.name,
        r.gemms,
        r.stats.tiles,
        r.stats.cache_hits,
        r.stats.cache_misses,
        r.stats.cache_evictions,
        r.stats.cache_bypasses,
        r.stats.hit_rate(),
        r.naive_ms,
        r.engine_ms,
        r.speedup(),
    )
}

fn main() {
    let smoke = std::env::var("PROSPERITY_E2E_SMOKE").is_ok_and(|v| v != "0");
    let reps = if smoke { 2 } else { 5 };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "End-to-end engine benchmark (best-of-{reps} wall time, {threads} HW threads{})",
        if smoke { ", SMOKE" } else { "" }
    );
    println!(
        "{:<20} {:>7} {:>11} {:>11} {:>9} {:>9}",
        "scenario", "gemms", "naive ms", "engine ms", "speedup", "hit rate"
    );
    let results = vec![
        correlated_trace(smoke, reps),
        fig8_trace(smoke, reps),
        attention_stream(smoke, reps),
    ];
    for r in &results {
        println!(
            "{:<20} {:>7} {:>11.2} {:>11.2} {:>8.2}x {:>8.1}%",
            r.name,
            r.gemms,
            r.naive_ms,
            r.engine_ms,
            r.speedup(),
            100.0 * r.stats.hit_rate(),
        );
    }

    let out_path = std::env::var("BENCH_E2E_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e2e.json").to_string()
    });
    let body: Vec<String> = results.iter().map(json_scenario).collect();
    // Sessions execute on the calling thread; `threads_effective` is what
    // the naive column's `prosparsity_gemm` fans its row-tiles across.
    let json = format!(
        "{{\n  \"bench\": \"e2e\",\n  \"unit\": \"ms\",\n  \"timing\": \
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
