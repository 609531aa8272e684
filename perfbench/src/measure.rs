//! Measurement primitives: process CPU and memory from `/proc`, latency
//! percentiles, the output checksum, and the result line.

use spikemat::gemm::OutputMatrix;
use std::time::Duration;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields (Linux
/// `USER_HZ`, fixed at 100 on every mainstream architecture).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of the whole process so far, threads that
/// already exited included. `0.0` where `/proc` is unavailable.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3
    // (`state`); `utime` and `stime` are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// CPU nanoseconds of the calling thread so far, from
/// `/proc/thread-self/schedstat`; the process's tick-resolution CPU where
/// that file is missing or reads zero.
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| (process_cpu_s() * 1e9) as u64)
}

/// The process's peak resident set (`VmHWM`) in MiB; `0.0` where `/proc`
/// is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reads how much slower than its quiet state the host is running the
/// benchmark's core right now.
///
/// On a shared host the core's throughput switches between a quiet state
/// and a state about 1.8× slower (a neighbour on the sibling hardware
/// thread), for stretches of milliseconds to minutes. A reading is the
/// time of a burst of independent adds (throughput-bound, slowed by a busy
/// sibling) over the time of a chain of dependent multiplies
/// (latency-bound, not slowed by it), so it does not depend on the clock
/// frequency either. The timed loop reads the probe between its units of
/// work and keeps the units with a quiet reading on both sides.
#[derive(Debug)]
pub struct HostProbe {
    acc: Vec<i64>,
    add: Vec<i64>,
}

impl HostProbe {
    const LEN: usize = 2048;
    const ADD_REPS: i64 = 48;
    const CHAIN: u64 = 10_000;

    pub fn new() -> Self {
        Self {
            acc: vec![0; Self::LEN],
            add: (0..Self::LEN as i64).collect(),
        }
    }

    /// Runs both bursts (about 20 µs each on a quiet core); returns the
    /// ratio of their durations. An untimed first pass brings the arrays
    /// back into L1, so what the program did before does not show.
    pub fn read(&mut self) -> f64 {
        self.pass(0);
        let start = std::time::Instant::now();
        for rep in 1..=Self::ADD_REPS {
            self.pass(rep);
        }
        let adds = start.elapsed();
        let start = std::time::Instant::now();
        let mut x = std::hint::black_box(0x1234_5678_9ABC_DEF1u64);
        for _ in 0..Self::CHAIN {
            x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ 1;
        }
        std::hint::black_box(x);
        adds.as_secs_f64() / start.elapsed().as_secs_f64().max(1e-9)
    }

    fn pass(&mut self, rep: i64) {
        for (a, x) in self.acc.iter_mut().zip(&self.add) {
            *a = a.wrapping_add(*x ^ rep);
        }
        std::hint::black_box(&mut self.acc);
    }
}

impl Default for HostProbe {
    fn default() -> Self {
        Self::new()
    }
}

/// The quiet-state probe reading on the 2-vCPU Sapphire Rapids host the
/// benchmark was tuned on (10th percentile ≈ 1.03; the slow state reads
/// 1.5–2.0). It caps the reference, so a run that never saw the quiet
/// state keeps nothing instead of calling the slow state quiet.
const QUIET_READING: f64 = 1.05;

/// The largest value [`quiet_limit`] returns.
pub const MAX_QUIET_LIMIT: f64 = 1.25 * QUIET_READING;

/// The largest probe reading counted as quiet: 1.25× the smaller of the
/// run's 10th-percentile reading and [`QUIET_READING`].
pub fn quiet_limit(readings: &[f64]) -> f64 {
    let mut sorted = readings.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p10 = sorted
        .get(sorted.len() / 10)
        .copied()
        .unwrap_or(QUIET_READING);
    1.25 * p10.min(QUIET_READING)
}

/// Nanoseconds in `d`, saturating.
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Nearest-rank percentile `q` (0..=1) of `sorted`; 0 when empty.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (upper median for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

/// Order- and position-sensitive 64-bit digest of an output. Its cost
/// depends only on the output's size, so checking every timed GeMM with
/// it costs the same on every version of the program under test.
pub fn checksum(out: &OutputMatrix<i64>) -> u64 {
    let mut acc = (out.rows() as u64) << 32 | out.cols() as u64;
    for (i, &v) in out.as_slice().iter().enumerate() {
        let weight = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        acc = acc.wrapping_add((v as u64).wrapping_mul(weight));
    }
    acc
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// `module.metric` for per-layer metrics, a bare name end to end.
    pub name: &'static str,
    /// Unit as printed, e.g. `ns`, `1/s`, `count`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// Shorthand constructor for [`Metric`].
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Formats a float as a JSON number (non-finite values become 0, which
/// JSON cannot otherwise carry).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Escapes `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
