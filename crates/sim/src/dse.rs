//! Tile-size design-space exploration (paper Fig. 7 and Sec. VII-B).
//!
//! Sweeps the spike-tile geometry `m × k`, reporting for each point the
//! latency normalized to the bit-sparsity baseline, the achieved product
//! density, and the area/power proxies of the hardware cost curves.

use crate::accel::simulate_model;
use crate::config::{ProsperityConfig, SimMode};
use crate::energy::{AreaModel, EnergyModel};
use prosperity_models::workload::ModelTrace;

/// One point of the tile-size sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DsePoint {
    /// Tile rows `m`.
    pub m: usize,
    /// Tile columns `k`.
    pub k: usize,
    /// Latency normalized to the bit-sparsity baseline at the same geometry
    /// (the Fig. 7 bar metric; < 1 means ProSparsity wins).
    pub norm_latency: f64,
    /// Achieved product density.
    pub pro_density: f64,
    /// Bit density (constant across the sweep, for reference).
    pub bit_density: f64,
    /// Normalized area (1.0 at the default 256 × 16 geometry).
    pub norm_area: f64,
    /// Normalized nominal power (1.0 at the default geometry).
    pub norm_power: f64,
}

/// Sweeps tile `m` at fixed `k`, averaging over the given traces.
pub fn sweep_m(traces: &[ModelTrace], ms: &[usize], k: usize) -> Vec<DsePoint> {
    ms.iter().map(|&m| evaluate(traces, m, k)).collect()
}

/// Sweeps tile `k` at fixed `m`.
pub fn sweep_k(traces: &[ModelTrace], m: usize, ks: &[usize]) -> Vec<DsePoint> {
    ks.iter().map(|&k| evaluate(traces, m, k)).collect()
}

/// Evaluates one tile geometry against all traces.
pub fn evaluate(traces: &[ModelTrace], m: usize, k: usize) -> DsePoint {
    let pro_cfg = ProsperityConfig::with_tile(m, k);
    let bit_cfg = ProsperityConfig {
        mode: SimMode::BitSparsityOnly,
        ..pro_cfg
    };
    let mut pro_cycles = 0u64;
    let mut bit_cycles = 0u64;
    let mut pro_ops = 0u64;
    let mut bit_ops = 0u64;
    let mut dense = 0u64;
    for t in traces {
        let pro = simulate_model(t, &pro_cfg);
        let bit = simulate_model(t, &bit_cfg);
        pro_cycles += pro.cycles;
        bit_cycles += bit.cycles;
        pro_ops += pro.stats.pro_ops;
        bit_ops += pro.stats.bit_ops;
        dense += pro.stats.dense_ops;
    }
    let area_model = AreaModel::default();
    let default_cfg = ProsperityConfig::default();
    let norm_area = area_model.area(&pro_cfg).total() / area_model.area(&default_cfg).total();
    DsePoint {
        m,
        k,
        norm_latency: if bit_cycles == 0 {
            1.0
        } else {
            pro_cycles as f64 / bit_cycles as f64
        },
        pro_density: if dense == 0 {
            0.0
        } else {
            pro_ops as f64 / dense as f64
        },
        bit_density: if dense == 0 {
            0.0
        } else {
            bit_ops as f64 / dense as f64
        },
        norm_area,
        norm_power: nominal_power_ratio(&pro_cfg, &default_cfg),
    }
}

/// Nominal-power proxy: the Detector's TCAM searches `m × k` bits every
/// cycle and dominates on-chip power (Fig. 10), so nominal power scales with
/// the per-cycle activity of the CAM plus the (area-proportional) leakage of
/// the remaining blocks.
fn nominal_power_ratio(cfg: &ProsperityConfig, base: &ProsperityConfig) -> f64 {
    let activity = |c: &ProsperityConfig| (c.tile.m * c.tile.k) as f64;
    let area = AreaModel::default();
    let a = 0.7 * activity(cfg) / activity(base);
    let l = 0.3 * area.area(cfg).total() / area.area(base).total();
    a + l
}

/// The energy model, re-exported here so DSE consumers can report power.
pub fn default_energy_model() -> EnergyModel {
    EnergyModel::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prosperity_models::{Architecture, Dataset, Workload};

    fn traces() -> Vec<ModelTrace> {
        vec![Workload::new(Architecture::LeNet5, Dataset::Mnist, 0.4, 0.08, 5).generate_trace(0.25)]
    }

    #[test]
    fn larger_m_improves_density() {
        let t = traces();
        let pts = sweep_m(&t, &[4, 64, 256], 16);
        // Fig. 7 (left): larger m → lower product density, monotonically.
        assert!(pts[0].pro_density >= pts[1].pro_density);
        assert!(pts[1].pro_density >= pts[2].pro_density);
        // m = 4 cannot beat bit sparsity by much.
        assert!(pts[0].pro_density <= pts[0].bit_density + 1e-12);
    }

    #[test]
    fn area_and_power_grow_with_m() {
        let t = traces();
        let pts = sweep_m(&t, &[64, 256, 512], 16);
        assert!(pts[0].norm_area < pts[1].norm_area);
        assert!(pts[1].norm_area < pts[2].norm_area);
        assert!(pts[0].norm_power < pts[2].norm_power);
        // Normalization anchor: m=256 ⇒ 1.0.
        assert!((pts[1].norm_area - 1.0).abs() < 1e-9);
        assert!((pts[1].norm_power - 1.0).abs() < 1e-9);
    }

    #[test]
    fn latency_normalized_to_bit_sparsity_is_below_one_for_default() {
        let t = traces();
        let p = evaluate(&t, 256, 16);
        assert!(
            p.norm_latency < 1.0,
            "ProSparsity should beat bit sparsity: {}",
            p.norm_latency
        );
    }

    #[test]
    fn k_sweep_has_an_interior_sweet_spot_or_monotone_edge() {
        let t = traces();
        let pts = sweep_k(&t, 256, &[4, 16, 128]);
        // Density at k=16 should not be worse than at the extremes jointly
        // (the paper finds an interior optimum near k=16).
        let d4 = pts[0].pro_density;
        let d16 = pts[1].pro_density;
        let d128 = pts[2].pro_density;
        assert!(d16 <= d4.max(d128) + 1e-9, "d4={d4} d16={d16} d128={d128}");
    }
}
