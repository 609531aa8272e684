//! Fig. 11 — activation-density comparison across the workload suite: bit
//! density (PTB/SATO class), FS-neuron density (Stellar class), and product
//! density (ours).
//!
//! Paper reference: product density up to 19.7× and on average 5.0× lower
//! than bit density, and on average 3.2× lower than the FS-neuron density;
//! every workload lands below 5 % product density except LN5.

use prosperity_baselines::stellar::fs_density;
use prosperity_bench::{header, pct, rule, scale};
use prosperity_core::ProSparsityPlan;
use prosperity_models::Workload;
use spikemat::TileShape;

fn main() {
    header("Fig. 11", "Density: bit vs FS neuron vs product");
    let s = scale();
    let workloads = Workload::fig11_suite();
    let tile = TileShape::prosperity_default();

    println!(
        "{:<24} {:>10} {:>10} {:>10} {:>12}",
        "workload", "bit", "FS", "product", "bit/product"
    );
    rule(72);
    let mut reductions = Vec::new();
    let mut fs_ratios = Vec::new();
    let results: Vec<(String, f64, f64, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = workloads
            .iter()
            .map(|w| {
                scope.spawn(move || {
                    let trace = w.generate_trace(s);
                    let mut bit = 0u64;
                    let mut pro = 0u64;
                    let mut dense = 0u64;
                    for l in &trace.layers {
                        let plan = ProSparsityPlan::build_tiled(&l.spikes, tile);
                        bit += plan.stats().bit_ops;
                        pro += plan.stats().pro_ops;
                        dense += plan.stats().dense_ops;
                    }
                    let bit_d = bit as f64 / dense as f64;
                    let pro_d = pro as f64 / dense as f64;
                    let fs_d = fs_density(bit_d, 4, 2);
                    (w.name(), bit_d, fs_d, pro_d)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("workload thread panicked"))
            .collect()
    });

    for (name, bit_d, fs_d, pro_d) in &results {
        println!(
            "{:<24} {:>10} {:>10} {:>10} {:>11.2}x",
            name,
            pct(*bit_d),
            pct(*fs_d),
            pct(*pro_d),
            bit_d / pro_d
        );
        reductions.push(bit_d / pro_d);
        fs_ratios.push(fs_d / pro_d);
    }
    rule(72);
    let mean_red = reductions.iter().sum::<f64>() / reductions.len() as f64;
    let max_red = reductions.iter().cloned().fold(0.0f64, f64::max);
    let mean_fs = fs_ratios.iter().sum::<f64>() / fs_ratios.len() as f64;
    println!("bit/product: mean {mean_red:.1}x (paper 5.0x), max {max_red:.1}x (paper 19.7x)");
    println!("FS/product : mean {mean_fs:.1}x (paper 3.2x)");
}
