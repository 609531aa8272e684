//! Self-checks of the benchmark at tiny sizes: every metric named in
//! `BENCHMARK.json` is emitted with its unit, every output is correct,
//! a wrong output is caught, and the deterministic per-layer counts
//! repeat exactly for a seed.

use std::path::PathBuf;

use prosperity_perfbench::workloads::{run_timed, setup, Sizes, Workload};
use prosperity_perfbench::{run, Options, Outcome};

fn work_root() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selfcheck")
}

fn tiny(workload: Workload, trace: bool) -> Outcome {
    run(&Options {
        workload,
        seed: 7,
        seconds: 0.05,
        trace,
        sizes: Sizes::tiny(),
        work_root: work_root(),
    })
    .expect("tiny run completes")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
/// read with plain string search (the file is flat and machine-checked).
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits next to the benchmark directory");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..]
            .split('"')
            .next()
            .expect("closing quote")
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn assert_emits(outcome: &Outcome, section: &str) {
    let want = declared(section);
    let got: Vec<(String, String)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(got, want, "{section} metrics and units");
    assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
}

#[test]
fn every_metric_is_emitted_with_its_unit_and_every_output_is_correct() {
    for workload in Workload::ALL {
        let e2e = tiny(workload, false);
        assert_emits(&e2e, "end_to_end");
        assert!(e2e.correct(), "{}: {e2e:?}", workload.name());
        assert_eq!(e2e.failed, 0);
        assert!(e2e.metrics.iter().all(|m| m.value > 0.0), "{e2e:?}");
        assert!(e2e.result_line().starts_with("{\"correct\": true"));

        let traced = tiny(workload, true);
        assert_emits(&traced, "per_layer");
        assert!(traced.correct(), "{}: {traced:?}", workload.name());
        assert_eq!(traced.failed, 0);
    }
}

#[test]
fn deterministic_counts_repeat_for_a_seed() {
    const COUNTS: [&str; 9] = [
        "cache.hit_rate",
        "cache.misses",
        "cache.bypasses",
        "cache.evictions",
        "plan.bit_density",
        "plan.pro_density",
        "batch.visits",
        "shared.dedups",
        "snapshot.bytes",
    ];
    for workload in Workload::ALL {
        let a = tiny(workload, true);
        let b = tiny(workload, true);
        for name in COUNTS {
            assert_eq!(a.value(name), b.value(name), "{}: {name}", workload.name());
        }
        assert!(
            a.warnings.iter().all(|w| !w.contains("differ")),
            "{}: {:?}",
            workload.name(),
            a.warnings
        );
    }
}

#[test]
fn a_wrong_output_is_counted_as_failed() {
    let mut prepared = setup(
        Workload::StreamWarm,
        Sizes::tiny(),
        7,
        &work_root(),
        &mut || {},
    )
    .expect("tiny set-up");
    prepared.inputs.lanes[0].sums[0] ^= 1;
    let timed = run_timed(&mut prepared, 0.01);
    assert!(timed.failed > 0, "{timed:?}");
}

#[test]
fn only_units_with_quiet_probes_on_both_sides_are_kept() {
    use prosperity_perfbench::measure::quiet_limit;
    use prosperity_perfbench::workloads::{Timed, Unit};
    let unit = |first| Unit {
        span_ns: 1,
        thread_cpu_ns: 1,
        inner_probe: 0.0,
        first,
        gemms: 1,
    };
    let timed = Timed {
        latencies_ns: vec![1; 6],
        lanes: vec![0; 6],
        units: (0..6).map(unit).collect(),
        probes: vec![1.0, 1.0, 1.0, 1.9, 1.0, 1.1, 1.0],
        ..Timed::default()
    };
    let limit = quiet_limit(&timed.probes);
    assert!((limit - 1.25).abs() < 1e-9, "{limit}");
    let firsts = |units: Vec<Unit>| units.iter().map(|u| u.first).collect::<Vec<_>>();
    // Quiet units need quiet probes on both sides and one more beyond each.
    assert_eq!(firsts(timed.quiet_units(limit)), [0, 5]);
    assert_eq!(firsts(timed.quietest_units(1)), [0]);
    // A loud probe inside a unit (a `tenant_mix` completion) drops it too.
    let mut loud_inside = timed;
    loud_inside.units[5].inner_probe = 1.9;
    assert_eq!(firsts(loud_inside.quiet_units(limit)), [0]);
    // A run that never saw the quiet state does not call its slow state
    // quiet: the reference is capped at the quiet reading.
    assert!(quiet_limit(&[1.8, 1.9, 2.0]) < 1.8);
}
