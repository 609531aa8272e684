//! Common performance-result type for baseline accelerators.

/// Simulated performance of one model inference on a baseline accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselinePerf {
    /// Accelerator name (e.g. `"PTB"`).
    pub name: String,
    /// Inference latency in seconds.
    pub time_s: f64,
    /// Inference energy in joules.
    pub energy_j: f64,
    /// Dense-equivalent operations `Σ M·K·N` — the common numerator for
    /// throughput across accelerators (Table IV's GOP metric).
    pub effective_ops: u64,
}

impl BaselinePerf {
    /// Dense-equivalent throughput in GOP/s.
    pub fn throughput_gops(&self) -> f64 {
        if self.time_s <= 0.0 {
            0.0
        } else {
            self.effective_ops as f64 / self.time_s / 1e9
        }
    }

    /// Energy efficiency in GOP/J.
    pub fn energy_eff_gopj(&self) -> f64 {
        if self.energy_j <= 0.0 {
            0.0
        } else {
            self.effective_ops as f64 / self.energy_j / 1e9
        }
    }

    /// Speedup of `self` over `other` (same workload).
    pub fn speedup_over(&self, other: &BaselinePerf) -> f64 {
        other.time_s / self.time_s
    }

    /// Energy-efficiency gain of `self` over `other`.
    pub fn energy_gain_over(&self, other: &BaselinePerf) -> f64 {
        other.energy_j / self.energy_j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(time: f64, energy: f64) -> BaselinePerf {
        BaselinePerf {
            name: "X".into(),
            time_s: time,
            energy_j: energy,
            effective_ops: 1_000_000_000,
        }
    }

    #[test]
    fn derived_metrics() {
        let a = p(1e-3, 1e-3);
        assert!((a.throughput_gops() - 1000.0).abs() < 1e-9);
        assert!((a.energy_eff_gopj() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn speedup_and_energy_gain() {
        let fast = p(1e-3, 2e-3);
        let slow = p(4e-3, 4e-3);
        assert!((fast.speedup_over(&slow) - 4.0).abs() < 1e-12);
        assert!((fast.energy_gain_over(&slow) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_time_guard() {
        let z = p(0.0, 0.0);
        assert_eq!(z.throughput_gops(), 0.0);
        assert_eq!(z.energy_eff_gopj(), 0.0);
    }
}
