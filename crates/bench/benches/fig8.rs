//! Fig. 8 — end-to-end speedup and energy efficiency of Prosperity vs
//! Eyeriss / PTB / SATO / MINT / Stellar / A100 over the 16-workload suite,
//! all normalized to Eyeriss.
//!
//! Paper reference points: geomean speedup 7.4× over PTB and 1.8× over
//! A100; geomean energy-efficiency gains 8.0× and 193×.

use prosperity_bench::{geomean, header, rule, run_ensemble, scale, Ensemble};
use prosperity_models::Workload;

fn main() {
    header(
        "Fig. 8",
        "End-to-end speedup & energy efficiency (norm. to Eyeriss)",
    );
    let workloads = Workload::fig8_suite();
    let s = scale();

    let mut results: Vec<Ensemble> = Vec::with_capacity(workloads.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = workloads
            .iter()
            .map(|w| {
                scope.spawn(move || {
                    let trace = w.generate_trace(s);
                    run_ensemble(&w.name(), &trace)
                })
            })
            .collect();
        for h in handles {
            results.push(h.join().expect("workload thread panicked"));
        }
    });

    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10}",
        "workload (speedup)", "PTB", "SATO", "MINT", "Stellar", "A100", "Prosperity"
    );
    rule(78);
    let mut sp = Agg::default();
    for e in &results {
        let base = &e.eyeriss;
        let spd = |p: &prosperity_baselines::BaselinePerf| base.time_s / p.time_s;
        let stellar = e.stellar.as_ref().map(spd);
        println!(
            "{:<22} {:>8.2} {:>8.2} {:>8.2} {:>8} {:>8.2} {:>10.2}",
            e.name,
            spd(&e.ptb),
            spd(&e.sato),
            spd(&e.mint),
            stellar.map_or("-".to_string(), |v| format!("{v:.2}")),
            spd(&e.a100),
            spd(&e.prosperity_perf),
        );
        sp.push_time(e);
    }
    rule(78);
    sp.print_geomeans("geomean speedup");

    println!();
    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10}",
        "workload (energy)", "PTB", "SATO", "MINT", "Stellar", "A100", "Prosperity"
    );
    rule(78);
    let mut en = Agg::default();
    for e in &results {
        let base = &e.eyeriss;
        let gain = |p: &prosperity_baselines::BaselinePerf| base.energy_j / p.energy_j;
        let stellar = e.stellar.as_ref().map(gain);
        println!(
            "{:<22} {:>8.2} {:>8.2} {:>8.2} {:>8} {:>8.2} {:>10.2}",
            e.name,
            gain(&e.ptb),
            gain(&e.sato),
            gain(&e.mint),
            stellar.map_or("-".to_string(), |v| format!("{v:.2}")),
            gain(&e.a100),
            gain(&e.prosperity_perf),
        );
        en.push_energy(e);
    }
    rule(78);
    en.print_geomeans("geomean energy gain");

    let vs = |f: &dyn Fn(&Ensemble) -> f64| -> f64 {
        geomean(&results.iter().map(f).collect::<Vec<_>>())
    };
    println!();
    println!("headline (measured vs paper):");
    println!(
        "  speedup over PTB : {:>6.2}x   (paper: 7.4x)",
        vs(&|e| e.ptb.time_s / e.prosperity_perf.time_s)
    );
    println!(
        "  speedup over A100: {:>6.2}x   (paper: 1.8x)",
        vs(&|e| e.a100.time_s / e.prosperity_perf.time_s)
    );
    println!(
        "  energy over PTB  : {:>6.2}x   (paper: 8.0x)",
        vs(&|e| e.ptb.energy_j / e.prosperity_perf.energy_j)
    );
    println!(
        "  energy over A100 : {:>6.1}x   (paper: 193x)",
        vs(&|e| e.a100.energy_j / e.prosperity_perf.energy_j)
    );
}

#[derive(Default)]
struct Agg {
    ptb: Vec<f64>,
    sato: Vec<f64>,
    mint: Vec<f64>,
    stellar: Vec<f64>,
    a100: Vec<f64>,
    prosperity: Vec<f64>,
}

impl Agg {
    fn push_time(&mut self, e: &Ensemble) {
        let base = e.eyeriss.time_s;
        self.ptb.push(base / e.ptb.time_s);
        self.sato.push(base / e.sato.time_s);
        self.mint.push(base / e.mint.time_s);
        if let Some(s) = &e.stellar {
            self.stellar.push(base / s.time_s);
        }
        self.a100.push(base / e.a100.time_s);
        self.prosperity.push(base / e.prosperity_perf.time_s);
    }

    fn push_energy(&mut self, e: &Ensemble) {
        let base = e.eyeriss.energy_j;
        self.ptb.push(base / e.ptb.energy_j);
        self.sato.push(base / e.sato.energy_j);
        self.mint.push(base / e.mint.energy_j);
        if let Some(s) = &e.stellar {
            self.stellar.push(base / s.energy_j);
        }
        self.a100.push(base / e.a100.energy_j);
        self.prosperity.push(base / e.prosperity_perf.energy_j);
    }

    fn print_geomeans(&self, label: &str) {
        println!(
            "{:<22} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>10.2}",
            label,
            geomean(&self.ptb),
            geomean(&self.sato),
            geomean(&self.mint),
            geomean(&self.stellar),
            geomean(&self.a100),
            geomean(&self.prosperity),
        );
    }
}
