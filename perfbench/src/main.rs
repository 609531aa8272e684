//! Command line of the benchmark:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload stream_warm --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints a provenance line, then the result line as the last line of
//! standard output. Exits 1 when any output was wrong, 2 on bad arguments
//! or an I/O failure (without a result line).

use std::path::PathBuf;
use std::process::ExitCode;

use prosperity_perfbench::workloads::{Sizes, Workload};
use prosperity_perfbench::{run, Options};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

/// Sets the kernels' worker threads: `RAYON_NUM_THREADS` when given,
/// capped at the host's parallelism; otherwise the host's parallelism for
/// `tenant_mix`, so the parallel dispatch paths and their thread spawns
/// are measured, and 1 for the stream workloads, whose single session
/// would only add the second core's state to their noise. The count used
/// is recorded with every result. Runs before any thread exists, so
/// changing the environment is race-free.
fn set_worker_threads(workload: Workload) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let default = match workload {
        Workload::TenantMix => nproc,
        Workload::StreamWarm | Workload::StreamFresh => 1,
    };
    let requested = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0);
    let threads = requested.map_or(default, |n| n.min(nproc));
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required and valid");
    };
    set_worker_threads(workload);
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        sizes: Sizes::full(),
        work_root: PathBuf::from(".bench_work"),
    };
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for w in &outcome.warnings {
        eprintln!("warning: {w}");
    }
    let _ = std::fs::remove_dir(&opts.work_root);
    println!("{}", outcome.provenance_line());
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: {} of {} checked GeMMs were wrong or lost",
            outcome.failed, outcome.attempted
        );
        ExitCode::from(1)
    }
}
