//! End-to-end and per-layer benchmark of the Prosperity serving engine.
//!
//! Each workload runs in a closed loop on one process against the public
//! serving API (`Session`, `ServingLoop`): the next GeMM, or the next
//! batch, is issued only after the previous one returned. An untraced run
//! reports the end-to-end metrics; a separate traced run reports the
//! per-layer ones. Every output is checked against an oracle computed at
//! set-up. See `README.md` for the workloads and the metric map.

pub mod gen;
pub mod layers;
pub mod measure;
pub mod workloads;

use std::path::PathBuf;
use std::time::Instant;

use measure::{json_number, json_string, metric, percentile, Metric};
use workloads::{Sizes, Workload};

/// Set-ups per end-to-end run: beyond the workload's minimum, repeat while
/// they total under this many seconds, up to [`MAX_SETUPS`].
const SETUP_TIME_S: f64 = 4.0;
const MAX_SETUPS: usize = 60;
/// With fewer quiet GeMMs than this, the run reports the tenth of its
/// units with the lowest probe readings instead, and warns.
const MIN_QUIET_REPORTED: usize = 200;

/// One invocation of the benchmark.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: per-layer metrics.
    pub trace: bool,
    pub sizes: Sizes,
    /// Directory for the snapshot stores; everything under it that the
    /// run creates is removed before it returns.
    pub work_root: PathBuf,
}

/// What one invocation measured.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Provenance and sample counts, as `(key, JSON value)`.
    pub provenance: Vec<(&'static str, String)>,
    pub warnings: Vec<String>,
}

impl Outcome {
    /// Whether every checked output matched its oracle.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The value of metric `name`, if emitted.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The provenance record as one JSON object line.
    pub fn provenance_line(&self) -> String {
        let mut fields: Vec<String> = self
            .provenance
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_string(k)))
            .collect();
        let warnings: Vec<String> = self.warnings.iter().map(|w| json_string(w)).collect();
        fields.push(format!("\"warnings\": [{}]", warnings.join(", ")));
        format!("{{\"provenance\": {{{}}}}}", fields.join(", "))
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(m.name),
                    json_number(m.value),
                    json_string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one invocation.
pub fn run(opts: &Options) -> std::io::Result<Outcome> {
    std::fs::create_dir_all(&opts.work_root)?;
    let mut outcome = if opts.trace {
        run_traced(opts)?
    } else {
        run_end_to_end(opts)?
    };
    let features: Vec<&str> = [
        ("parallel", prosperity_core::parallel_enabled()),
        ("simd", prosperity_core::simd_active()),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut provenance = vec![
        ("workload", json_string(opts.workload.name())),
        ("seed", opts.seed.to_string()),
        ("seconds", json_number(opts.seconds)),
        ("trace", opts.trace.to_string()),
        ("nproc", nproc.to_string()),
        (
            "parallel_threads",
            prosperity_core::parallel_threads().to_string(),
        ),
        ("simd_active", prosperity_core::simd_active().to_string()),
        (
            "features",
            format!(
                "[{}]",
                features
                    .iter()
                    .map(|f| json_string(f))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        ("loop", json_string("closed, one caller, no load threads")),
    ];
    provenance.append(&mut outcome.provenance);
    provenance.push((
        "failed_frac",
        json_number(outcome.failed as f64 / outcome.attempted.max(1) as f64),
    ));
    outcome.provenance = provenance;
    Ok(outcome)
}

fn run_end_to_end(opts: &Options) -> std::io::Result<Outcome> {
    // Set up at least `sizes.setups` times, and more (up to `MAX_SETUPS`)
    // while they total under `SETUP_TIME_S`, reading the host probe
    // between the steps of each set-up.
    let mut probe = measure::HostProbe::new();
    let mut setups: Vec<Vec<Step>> = Vec::new();
    let mut setup_total_s: Vec<f64> = Vec::new();
    let mut prepared = None;
    while setups.len() < opts.sizes.setups.max(1)
        || (setup_total_s.iter().sum::<f64>() < SETUP_TIME_S && setups.len() < MAX_SETUPS)
    {
        // Drop the previous set-up first so two never coexist in memory.
        drop(prepared.take());
        let mut steps = Vec::new();
        let mut before = probe.read();
        let mut last = Instant::now();
        let mut lap = || {
            let ns = measure::ns(last.elapsed());
            let after = probe.read();
            steps.push(Step { ns, before, after });
            before = after;
            last = Instant::now();
        };
        let p = workloads::setup(
            opts.workload,
            opts.sizes,
            opts.seed,
            &opts.work_root,
            &mut lap,
        )?;
        lap();
        setup_total_s.push(steps.iter().map(|s| s.ns as f64).sum::<f64>() / 1e9);
        setups.push(steps);
        prepared = Some(p);
    }
    let mut prepared = prepared.expect("at least one set-up ran");
    let setup_peak_rss_mb = measure::peak_rss_mb();
    let timed = workloads::run_timed(&mut prepared, opts.seconds);
    // The program's peak: the set-up's, or the timed loop's less the
    // benchmark's own per-unit records, read before anything else
    // allocates.
    let loop_peak_rss_mb = measure::peak_rss_mb() - timed.record_bytes() as f64 / (1 << 20) as f64;
    let peak_rss_mb = setup_peak_rss_mb.max(loop_peak_rss_mb);
    let (verify_attempted, verify_failed) = workloads::verify(&mut prepared);
    drop(prepared);

    // Report the timed units that ran while the host was quiet (see
    // `measure::HostProbe`); the whole-run figures and the p99, which no
    // choice of units kept steady on a shared host, go to the provenance
    // line.
    let mut warnings = Vec::new();
    let limit = measure::quiet_limit(&timed.probes);
    let mut kept = timed.quiet_units(limit);
    let quiet_share = kept.len() as f64 / timed.units.len().max(1) as f64;
    if kept.iter().map(|u| u.gemms).sum::<usize>() < MIN_QUIET_REPORTED {
        warnings.push(format!(
            "only {:.1}% of the timed units ran while the host was quiet; reporting the quietest tenth",
            quiet_share * 100.0
        ));
        kept = timed.quietest_units(timed.units.len().div_ceil(10));
    }

    let q = UnitStats::of(&kept, &timed);
    let all = UnitStats::of(&timed.units, &timed);
    let metrics = vec![
        metric("gemm_per_s", "1/s", q.gemm_per_s),
        metric("gemm_p50_us", "us", q.p50_us),
        metric("cpu_us_per_gemm", "us", q.cpu_us_per_gemm),
        metric("peak_rss_mb", "MB", peak_rss_mb),
        metric("setup_s", "s", quiet_setup_s(&setups, limit)),
    ];
    let mut sorted_probes = timed.probes.clone();
    sorted_probes.sort_by(f64::total_cmp);
    let probe_at = |q: f64| sorted_probes[((sorted_probes.len() - 1) as f64 * q) as usize];
    Ok(Outcome {
        attempted: timed.attempted + verify_attempted,
        failed: timed.failed + verify_failed,
        metrics,
        provenance: vec![
            ("latency_samples", all.gemms.to_string()),
            ("quiet_latency_samples", q.gemms.to_string()),
            ("quiet_unit_share", json_number(quiet_share)),
            ("quiet_gemm_p99_us", json_number(q.p99_us)),
            ("samples_beyond_p99", q.beyond_p99.to_string()),
            ("probe_p10", json_number(probe_at(0.10))),
            ("probe_p90", json_number(probe_at(0.90))),
            ("quiet_limit", json_number(limit)),
            ("all_gemm_per_s", json_number(all.gemm_per_s)),
            ("all_gemm_p50_us", json_number(all.p50_us)),
            ("all_gemm_p99_us", json_number(all.p99_us)),
            ("all_cpu_us_per_gemm", json_number(all.cpu_us_per_gemm)),
            ("timed_wall_s", json_number(timed.wall_s)),
            ("setup_peak_rss_mb", json_number(setup_peak_rss_mb)),
            ("setups", setups.len().to_string()),
            ("all_setup_s", json_number(measure::median(&setup_total_s))),
        ],
        warnings,
    })
}

/// One step of a set-up: its duration and the host-probe readings around
/// it.
#[derive(Debug, Clone, Copy)]
struct Step {
    ns: u64,
    before: f64,
    after: f64,
}

/// Set-up time in the host's quiet state. Every set-up of a run takes the
/// same steps; each step counts with the median of its runs that read
/// quiet on both sides, or with its fastest run when none did. A set-up
/// lasts longer than most quiet stretches, so whole set-ups are rarely
/// quiet, while its steps (one GeMM, one batch, one oracle output) are.
fn quiet_setup_s(setups: &[Vec<Step>], limit: f64) -> f64 {
    let steps = setups.first().map_or(0, Vec::len);
    if setups.iter().any(|s| s.len() != steps) {
        let totals: Vec<f64> = setups
            .iter()
            .map(|s| s.iter().map(|st| st.ns as f64).sum::<f64>() / 1e9)
            .collect();
        return measure::median(&totals);
    }
    (0..steps)
        .map(|k| {
            let runs = setups.iter().map(|s| s[k]);
            let quiet: Vec<f64> = runs
                .clone()
                .filter(|st| st.before <= limit && st.after <= limit)
                .map(|st| st.ns as f64)
                .collect();
            if quiet.is_empty() {
                runs.map(|st| st.ns).min().unwrap_or(0) as f64
            } else {
                measure::median(&quiet)
            }
        })
        .sum::<f64>()
        / 1e9
}

/// End-to-end figures over a set of timed units.
struct UnitStats {
    gemms: usize,
    gemm_per_s: f64,
    p50_us: f64,
    p99_us: f64,
    cpu_us_per_gemm: f64,
    beyond_p99: usize,
}

impl UnitStats {
    /// Throughput is the units' GeMMs ÷ the units' wall time (probe time
    /// excluded). The median is each lane's median latency, averaged over
    /// the lanes: the lanes of a batch complete in clusters, and a pooled
    /// median would sit on the edge between two of them. The p99 pools the
    /// units' GeMMs. CPU per GeMM is the calling thread's over the units
    /// plus the other threads' share of the whole loop.
    fn of(units: &[workloads::Unit], timed: &workloads::Timed) -> Self {
        let samples = || units.iter().flat_map(|u| u.first..u.first + u.gemms);
        let mut lat: Vec<u64> = samples().map(|i| timed.latencies_ns[i]).collect();
        lat.sort_unstable();
        let mut per_lane: Vec<Vec<u64>> = Vec::new();
        for i in samples() {
            let lane = usize::from(timed.lanes[i]);
            if per_lane.len() <= lane {
                per_lane.resize(lane + 1, Vec::new());
            }
            per_lane[lane].push(timed.latencies_ns[i]);
        }
        let lane_p50s: Vec<f64> = per_lane
            .iter_mut()
            .filter(|l| !l.is_empty())
            .map(|l| {
                l.sort_unstable();
                percentile(l, 0.50) as f64
            })
            .collect();
        let p50_ns = lane_p50s.iter().sum::<f64>() / lane_p50s.len().max(1) as f64;
        let gemms = lat.len();
        let span_s = units.iter().map(|u| u.span_ns as f64).sum::<f64>() / 1e9;
        let thread_s = units.iter().map(|u| u.thread_cpu_ns as f64).sum::<f64>() / 1e9;
        let other_s_per_gemm = timed.other_threads_cpu_s / timed.latencies_ns.len().max(1) as f64;
        let p99 = percentile(&lat, 0.99);
        Self {
            gemms,
            gemm_per_s: gemms as f64 / span_s.max(1e-9),
            p50_us: p50_ns / 1e3,
            p99_us: p99 as f64 / 1e3,
            cpu_us_per_gemm: (thread_s / gemms.max(1) as f64 + other_s_per_gemm) * 1e6,
            beyond_p99: lat.iter().filter(|&&l| l > p99).count(),
        }
    }
}

fn run_traced(opts: &Options) -> std::io::Result<Outcome> {
    let inputs = workloads::Inputs::generate(opts.workload, opts.sizes, opts.seed, &mut || {});
    let traced = layers::run(&inputs, opts.seconds, &opts.work_root)?;
    Ok(Outcome {
        attempted: traced.attempted,
        failed: traced.failed,
        metrics: traced.metrics,
        provenance: vec![("traced_reps", traced.reps.to_string())],
        warnings: traced.warnings,
    })
}
