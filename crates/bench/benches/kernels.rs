//! Micro-benchmark of the ProSparsity software kernels: whole-GeMM planning
//! (Detector → Pruner → Dispatcher) and lossless plan execution, measured
//! against the **pre-optimization** implementation that shipped before the
//! word-parallel / zero-allocation rewrite.
//!
//! The legacy kernels are embedded here verbatim-in-structure so the
//! before/after comparison stays honest as the library evolves:
//!
//! * bit-by-bit tile extraction (one `get`/`set` pair per bit),
//! * staged detection that materializes a `Vec<bool>` SI vector per query
//!   and a candidate list per row,
//! * a `Vec<Vec<T>>` tile-local accumulator with a `.clone()` per prefix
//!   load.
//!
//! Results are printed as a table and written to `BENCH_kernels.json`
//! (override the path with `BENCH_KERNELS_OUT`); the file is regenerated
//! per run and checked in, so the perf trajectory lives in its git
//! history. Run with:
//!
//! ```text
//! cargo bench -p prosperity-bench --bench kernels
//! ```

use prosperity_bench::time_ms;
use prosperity_core::exec::{execute_plan, execute_plan_serial};
use prosperity_core::plan::ProSparsityPlan;
use prosperity_core::ProStats;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spikemat::gemm::{spiking_gemm, WeightMatrix};
use spikemat::{SpikeMatrix, TileShape};

/// The pre-optimization (seed) kernels, kept as the benchmark baseline.
mod legacy {
    use prosperity_core::detect::{DetectedTile, TcamDetector};
    use prosperity_core::order::BitonicSorter;
    use prosperity_core::prune::{prune_tile, PrunedRow};
    use spikemat::gemm::{OutputMatrix, WeightMatrix};
    use spikemat::{BitRow, SpikeMatrix, TileShape};
    use std::ops::AddAssign;

    /// Bit-by-bit zero-padded tile extraction (the original
    /// `BitRow::slice`-based path: one get/set pair per bit).
    fn submatrix_bitwise(
        src: &SpikeMatrix,
        row_start: usize,
        col_start: usize,
        n_rows: usize,
        n_cols: usize,
    ) -> SpikeMatrix {
        let mut out = SpikeMatrix::zeros(n_rows, n_cols);
        for r in 0..n_rows {
            if row_start + r >= src.rows() {
                continue;
            }
            for c in 0..n_cols {
                if col_start + c < src.cols() && src.get(row_start + r, col_start + c) {
                    out.set(r, c, true);
                }
            }
        }
        out
    }

    /// Staged detection allocating one SI `Vec<bool>` per query row.
    fn detect_tile_staged(tile: &SpikeMatrix) -> DetectedTile {
        let tcam = TcamDetector::load(tile);
        let popcounts: Vec<usize> = tile.row_slice().iter().map(BitRow::popcount).collect();
        let subset_candidates = (0..tile.rows())
            .map(|i| {
                tcam.query(tile.row(i))
                    .into_iter()
                    .enumerate()
                    .filter(|&(j, matched)| matched && j != i && popcounts[j] > 0)
                    .map(|(j, _)| j)
                    .collect()
            })
            .collect();
        DetectedTile {
            subset_candidates,
            popcounts,
        }
    }

    /// One planned tile as the original planner stored it: a heap row per
    /// tile row.
    pub struct Tile {
        row_start: usize,
        col_start: usize,
        valid_rows: usize,
        rows: Vec<PrunedRow>,
        order: Vec<usize>,
    }

    /// The original serial planner: staged detect → prune → sort per tile,
    /// fresh allocations throughout.
    pub fn build_tiled(spikes: &SpikeMatrix, shape: TileShape) -> Vec<Tile> {
        let (gm, gk) = shape.grid(spikes.rows(), spikes.cols());
        let mut tiles = Vec::new();
        for ti in 0..gm {
            for tj in 0..gk {
                let row_start = ti * shape.m;
                let col_start = tj * shape.k;
                let data = submatrix_bitwise(spikes, row_start, col_start, shape.m, shape.k);
                let detected = detect_tile_staged(&data);
                let pruned = prune_tile(&data, &detected);
                let (order, _) = BitonicSorter::sort(&detected.popcounts);
                tiles.push(Tile {
                    row_start,
                    col_start,
                    valid_rows: (spikes.rows() - row_start).min(shape.m),
                    rows: pruned,
                    order,
                });
            }
        }
        tiles
    }

    /// The original executor: one heap row per tile row plus a `.clone()`
    /// per prefix load.
    pub fn execute<T: Copy + Default + AddAssign>(
        tiles: &[Tile],
        m: usize,
        weights: &WeightMatrix<T>,
    ) -> OutputMatrix<T> {
        let n = weights.cols();
        let mut out = OutputMatrix::zeros(m, n);
        for tile in tiles {
            let tile_rows = tile.rows.len();
            let mut local: Vec<Vec<T>> = vec![vec![T::default(); n]; tile_rows];
            for &r in &tile.order {
                let meta = &tile.rows[r];
                let mut acc = match meta.prefix {
                    Some(p) => local[p].clone(),
                    None => vec![T::default(); n],
                };
                for bit in meta.pattern.ones() {
                    let wk = tile.col_start + bit;
                    if wk >= weights.rows() {
                        continue;
                    }
                    for (a, &w) in acc.iter_mut().zip(weights.row(wk)) {
                        *a += w;
                    }
                }
                local[r] = acc;
            }
            #[allow(clippy::needless_range_loop)]
            for r in 0..tile.valid_rows {
                out.accumulate_row(tile.row_start + r, &local[r]);
            }
        }
        out
    }
}

/// One benchmark configuration.
struct Scenario {
    name: &'static str,
    m: usize,
    k: usize,
    n: usize,
    density: f64,
    tile: TileShape,
    reps: usize,
}

/// Measured milliseconds for one kernel variant.
struct Measurement {
    plan_ms: f64,
    exec_ms: f64,
}

impl Measurement {
    fn total_ms(&self) -> f64 {
        self.plan_ms + self.exec_ms
    }
}

/// Results of one scenario across all variants.
struct ScenarioResult {
    scenario: Scenario,
    legacy: Measurement,
    optimized: Measurement,
    optimized_serial: Measurement,
    stats: ProStats,
}

fn run_scenario(scenario: Scenario) -> ScenarioResult {
    let mut rng = StdRng::seed_from_u64(0x5EED ^ scenario.m as u64 ^ scenario.k as u64);
    let spikes = SpikeMatrix::random(scenario.m, scenario.k, scenario.density, &mut rng);
    let weights = WeightMatrix::from_fn(scenario.k, scenario.n, |r, c| {
        (r * 131 + c * 17) as i32 % 255 - 127
    });
    let reps = scenario.reps;
    let shape = scenario.tile;

    // Correctness gate before timing anything: every variant must be
    // bit-identical to the bit-sparse reference.
    let reference = spiking_gemm(&spikes, &weights);
    let legacy_tiles = legacy::build_tiled(&spikes, shape);
    let legacy_out = legacy::execute(&legacy_tiles, spikes.rows(), &weights);
    let plan = ProSparsityPlan::build_tiled(&spikes, shape);
    assert_eq!(legacy_out, reference, "legacy kernel lost bits");
    assert_eq!(execute_plan(&plan, &weights), reference, "kernel lost bits");
    assert_eq!(
        execute_plan_serial(&plan, &weights),
        reference,
        "serial kernel lost bits"
    );

    let legacy = Measurement {
        plan_ms: time_ms(reps, || legacy::build_tiled(&spikes, shape)),
        exec_ms: time_ms(reps, || {
            legacy::execute(&legacy_tiles, spikes.rows(), &weights)
        }),
    };
    let optimized = Measurement {
        plan_ms: time_ms(reps, || ProSparsityPlan::build_tiled(&spikes, shape)),
        exec_ms: time_ms(reps, || execute_plan(&plan, &weights)),
    };
    let optimized_serial = Measurement {
        plan_ms: time_ms(reps, || ProSparsityPlan::build_tiled_serial(&spikes, shape)),
        exec_ms: time_ms(reps, || execute_plan_serial(&plan, &weights)),
    };
    let stats = *plan.stats();
    ScenarioResult {
        scenario,
        legacy,
        optimized,
        optimized_serial,
        stats,
    }
}

fn json_scenario(r: &ScenarioResult) -> String {
    let s = &r.scenario;
    format!(
        concat!(
            "    {{\"name\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, ",
            "\"density\": {}, \"tile_m\": {}, \"tile_k\": {}, ",
            "\"bit_density\": {:.5}, \"pro_density\": {:.5}, ",
            "\"legacy_plan_ms\": {:.3}, \"legacy_exec_ms\": {:.3}, ",
            "\"legacy_total_ms\": {:.3}, ",
            "\"opt_plan_ms\": {:.3}, \"opt_exec_ms\": {:.3}, ",
            "\"opt_total_ms\": {:.3}, ",
            "\"opt_serial_plan_ms\": {:.3}, \"opt_serial_exec_ms\": {:.3}, ",
            "\"opt_serial_total_ms\": {:.3}, ",
            "\"speedup_plan\": {:.2}, \"speedup_exec\": {:.2}, ",
            "\"speedup_total\": {:.2}, \"speedup_total_serial\": {:.2}}}"
        ),
        s.name,
        s.m,
        s.k,
        s.n,
        s.density,
        s.tile.m,
        s.tile.k,
        r.stats.bit_density(),
        r.stats.pro_density(),
        r.legacy.plan_ms,
        r.legacy.exec_ms,
        r.legacy.total_ms(),
        r.optimized.plan_ms,
        r.optimized.exec_ms,
        r.optimized.total_ms(),
        r.optimized_serial.plan_ms,
        r.optimized_serial.exec_ms,
        r.optimized_serial.total_ms(),
        r.legacy.plan_ms / r.optimized.plan_ms,
        r.legacy.exec_ms / r.optimized.exec_ms,
        r.legacy.total_ms() / r.optimized.total_ms(),
        r.legacy.total_ms() / r.optimized_serial.total_ms(),
    )
}

fn main() {
    let scenarios = vec![
        Scenario {
            name: "tile_default_256x16",
            m: 1024,
            k: 128,
            n: 64,
            density: 0.30,
            tile: TileShape::prosperity_default(),
            reps: 5,
        },
        Scenario {
            name: "mid_1024x256",
            m: 1024,
            k: 256,
            n: 64,
            density: 0.15,
            tile: TileShape::new(128, 16),
            reps: 5,
        },
        Scenario {
            name: "acceptance_4096x1024",
            m: 4096,
            k: 1024,
            n: 16,
            density: 0.10,
            tile: TileShape::new(128, 128),
            reps: 6,
        },
        // The serving shapes: `stream_warm`/`stream_fresh`'s narrow GeMM and
        // `tenant_mix`'s wide one, on the paper's tile, so both time the
        // one-limb executor body at the constant widths 16 and 128.
        Scenario {
            name: "serving_narrow_512x256x16",
            m: 512,
            k: 256,
            n: 16,
            density: 0.30,
            tile: TileShape::prosperity_default(),
            reps: 10,
        },
        Scenario {
            name: "serving_wide_512x768x128",
            m: 512,
            k: 768,
            n: 128,
            density: 0.15,
            tile: TileShape::prosperity_default(),
            reps: 10,
        },
    ];

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("ProSparsity kernel micro-benchmark (best-of-N wall time, {threads} HW threads)");
    println!(
        "{:<24} {:>13} {:>13} {:>13} {:>13} {:>9} {:>9}",
        "scenario", "legacy ms", "opt ms", "opt-ser ms", "legacy/opt", "plan x", "exec x"
    );
    let mut results = Vec::new();
    for scenario in scenarios {
        let r = run_scenario(scenario);
        println!(
            "{:<24} {:>13.2} {:>13.2} {:>13.2} {:>12.2}x {:>8.2}x {:>8.2}x",
            r.scenario.name,
            r.legacy.total_ms(),
            r.optimized.total_ms(),
            r.optimized_serial.total_ms(),
            r.legacy.total_ms() / r.optimized.total_ms(),
            r.legacy.plan_ms / r.optimized.plan_ms,
            r.legacy.exec_ms / r.optimized.exec_ms,
        );
        results.push(r);
    }

    // Default to the workspace root regardless of the bench's working dir.
    let out_path = std::env::var("BENCH_KERNELS_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json").to_string()
    });
    let body: Vec<String> = results.iter().map(json_scenario).collect();
    // `threads_effective` is what the parallel paths actually get (the
    // rayon pool size): the JSON checker only holds
    // parallel timings to the ≥serial bar when it exceeds 1.
    let json = format!(
        "{{\n  \"bench\": \"kernels\",\n  \"unit\": \"ms\",\n  \"timing\": \
         \"best_of_reps\",\n  \"threads\": {},\n  \"threads_effective\": {},\n  \
         \"scenarios\": [\n{}\n  ]\n}}\n",
        threads,
        prosperity_core::parallel_threads(),
        body.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("\nwrote {out_path}");
}
