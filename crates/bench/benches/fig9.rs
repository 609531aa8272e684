//! Fig. 9 — ablation ladder, averaged over all evaluated models:
//!
//! 1. PTB (structured bit sparsity)                      — 1.00× reference
//! 2. + unstructured bit sparsity (row-wise dataflow)    — paper: 2.28×
//! 3. + ProSparsity with high-overhead dispatch          — paper: ×2.16 more
//! 4. + overhead-free dispatch (full Prosperity)         — paper: ×1.49 more
//!
//! (Paper anchors relative to dense Eyeriss: 1.00 → 2.62 → 5.97 → 12.87 →
//! 19.12; note 5.97 here is PTB's dense-relative speedup context.)

use prosperity_baselines::eyeriss::Eyeriss;
use prosperity_baselines::ptb::Ptb;
use prosperity_bench::{geomean, header, rule, scale};
use prosperity_models::Workload;
use prosperity_sim::{simulate_model, ProsperityConfig, SimMode};

fn main() {
    header(
        "Fig. 9",
        "Ablation: bit sparsity -> ProSparsity -> fast dispatch",
    );
    let s = scale();
    let workloads = Workload::fig8_suite();

    let mut vs_dense = vec![Vec::new(); 4]; // ptb, bit, slow, full
    std::thread::scope(|scope| {
        let handles: Vec<_> = workloads
            .iter()
            .map(|w| {
                scope.spawn(move || {
                    let trace = w.generate_trace(s);
                    let dense = Eyeriss::default().simulate(&trace).time_s;
                    let ptb = Ptb::default().simulate(&trace).time_s;
                    let run = |mode| {
                        simulate_model(&trace, &ProsperityConfig::with_mode(mode)).time_seconds()
                    };
                    (
                        dense / ptb,
                        dense / run(SimMode::BitSparsityOnly),
                        dense / run(SimMode::ProSparsitySlowDispatch),
                        dense / run(SimMode::Full),
                    )
                })
            })
            .collect();
        for h in handles {
            let (a, b, c, d) = h.join().expect("workload thread panicked");
            vs_dense[0].push(a);
            vs_dense[1].push(b);
            vs_dense[2].push(c);
            vs_dense[3].push(d);
        }
    });

    let g: Vec<f64> = vs_dense.iter().map(|v| geomean(v)).collect();
    println!(
        "{:<46} {:>10} {:>10}",
        "configuration", "vs dense", "step gain"
    );
    rule(70);
    let labels = [
        "PTB (structured bit sparsity)",
        "Prosperity: unstructured bit sparsity",
        "+ ProSparsity, high-overhead dispatch",
        "+ overhead-free dispatch (full Prosperity)",
    ];
    let mut prev = 1.0;
    for (label, &gm) in labels.iter().zip(&g) {
        println!("{:<46} {:>9.2}x {:>9.2}x", label, gm, gm / prev);
        prev = gm;
    }
    rule(70);
    println!("paper step gains: 2.28x (unstructured), 2.16x (ProSparsity),");
    println!("                  1.49x (overhead-free dispatch); 3.2x bit->pro overall.");
}
