//! Simulation result types.

use crate::config::ProsperityConfig;
use crate::events::EventCounts;
use prosperity_core::stats::ProStats;

/// Performance of one spiking-GeMM layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayerPerf {
    /// Total cycles (max of compute-side and DRAM-side with double buffering).
    pub cycles: u64,
    /// Compute-side cycles (inter-phase-pipelined PPU time).
    pub compute_cycles: u64,
    /// DRAM transfer cycles at the configured bandwidth.
    pub dram_cycles: u64,
    /// Micro-architectural events.
    pub events: EventCounts,
    /// Sparsity statistics.
    pub stats: ProStats,
}

/// Aggregated performance of a whole model inference.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelPerf {
    /// Configuration the model was simulated under.
    pub config: ProsperityConfig,
    /// Per-layer results, in network order.
    pub layers: Vec<LayerPerf>,
    /// Σ layer cycles (layers execute back to back).
    pub cycles: u64,
    /// Σ layer events.
    pub events: EventCounts,
    /// Σ layer sparsity statistics.
    pub stats: ProStats,
    /// Σ `M·K·N` over layers: the dense-equivalent operation count used for
    /// throughput normalization (Table IV reports GOP/s of this quantity).
    pub effective_ops: u64,
}

impl ModelPerf {
    /// Aggregates per-layer results.
    pub fn from_layers(
        config: ProsperityConfig,
        layers: Vec<LayerPerf>,
        effective_ops: u64,
    ) -> Self {
        let cycles = layers.iter().map(|l| l.cycles).sum();
        let events = layers.iter().map(|l| l.events).sum();
        let stats = layers.iter().map(|l| l.stats).sum();
        Self {
            config,
            layers,
            cycles,
            events,
            stats,
            effective_ops,
        }
    }

    /// Wall-clock inference latency in seconds.
    pub fn time_seconds(&self) -> f64 {
        self.cycles as f64 * self.config.cycle_time()
    }

    /// Dense-equivalent throughput in GOP/s (the Table IV metric).
    pub fn throughput_gops(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.effective_ops as f64 / self.time_seconds() / 1e9
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_sums_layers() {
        let l1 = LayerPerf {
            cycles: 100,
            compute_cycles: 100,
            dram_cycles: 50,
            ..LayerPerf::default()
        };
        let l2 = LayerPerf {
            cycles: 200,
            compute_cycles: 150,
            dram_cycles: 200,
            ..LayerPerf::default()
        };
        let m = ModelPerf::from_layers(ProsperityConfig::default(), vec![l1, l2], 1_000_000);
        assert_eq!(m.cycles, 300);
        assert!((m.time_seconds() - 300.0 * 2e-9).abs() < 1e-15);
        // 1e6 ops in 600 ns = 1666.7 GOP/s.
        assert!((m.throughput_gops() - 1_000_000.0 / 600e-9 / 1e9).abs() < 1e-6);
    }

    #[test]
    fn empty_model_has_zero_throughput() {
        let m = ModelPerf::from_layers(ProsperityConfig::default(), vec![], 0);
        assert_eq!(m.throughput_gops(), 0.0);
    }
}
