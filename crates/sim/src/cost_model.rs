//! The closed-form cost trade-off analysis of Sec. VII-G.
//!
//! ProSparsity processing costs TCAM bit-ops (`m² · k` per tile, dominating
//! the sorter's `2m log m` and the pruner's `m + log m` comparisons) and
//! saves `ΔS · m · k · n` floating-point additions, where `ΔS` is the
//! sparsity increase over bit sparsity. With an addition costing
//! [`FP_ADD_OVER_TCAM_BITOP`] = 45× a TCAM bit-op, the benefit-cost ratio is
//!
//! ```text
//!       ΔS · m · k · n · 45
//! R = ──────────────────────
//!            m² · k
//! ```
//!
//! which exceeds 1 whenever `ΔS > m / (45 n)` — 4.4 % at the default
//! `m = 256, n = 128`.

/// Relative hardware cost of one floating-point addition versus one TCAM
/// bitwise operation (paper Sec. VII-G: "a floating-point addition incurs
/// 45× the hardware overhead of a single TCAM bitwise operation").
pub const FP_ADD_OVER_TCAM_BITOP: f64 = 45.0;

/// Inputs to the benefit/cost analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostInputs {
    /// Tile rows `m`.
    pub m: usize,
    /// Tile columns `k`.
    pub k: usize,
    /// Output tile width `n`.
    pub n: usize,
    /// Sparsity increase `ΔS` of product over bit sparsity
    /// (bit density − product density).
    pub delta_s: f64,
}

impl CostInputs {
    /// The paper's operating point: default tile and the measured average
    /// `ΔS = 13.35 %`.
    pub fn paper_default() -> Self {
        Self {
            m: 256,
            k: 16,
            n: 128,
            delta_s: 0.1335,
        }
    }

    /// ProSparsity processing cost in TCAM-bit-op equivalents (`m² k`).
    pub fn processing_cost(&self) -> f64 {
        (self.m * self.m * self.k) as f64
    }

    /// Saved computation in TCAM-bit-op equivalents
    /// (`ΔS · m · k · n · 45`).
    pub fn savings(&self) -> f64 {
        self.delta_s * (self.m * self.k * self.n) as f64 * FP_ADD_OVER_TCAM_BITOP
    }

    /// Benefit-cost ratio `R`; ProSparsity pays off when `R > 1`.
    pub fn benefit_cost_ratio(&self) -> f64 {
        self.savings() / self.processing_cost()
    }

    /// The break-even sparsity increase `ΔS* = m / (45 n)`.
    pub fn break_even_delta_s(&self) -> f64 {
        self.m as f64 / (FP_ADD_OVER_TCAM_BITOP * self.n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_threshold_is_4_4_percent() {
        let c = CostInputs::paper_default();
        assert!(
            (c.break_even_delta_s() - 0.0444).abs() < 0.001,
            "got {}",
            c.break_even_delta_s()
        );
    }

    #[test]
    fn paper_operating_point_gives_ratio_3() {
        // Sec. VII-G: "the benefit-cost ratio reaches 3.0×".
        let r = CostInputs::paper_default().benefit_cost_ratio();
        assert!((r - 3.0).abs() < 0.05, "ratio {r}");
    }

    #[test]
    fn ratio_exceeds_one_exactly_above_break_even() {
        let mut c = CostInputs::paper_default();
        c.delta_s = c.break_even_delta_s() * 1.01;
        assert!(c.benefit_cost_ratio() > 1.0);
        c.delta_s = c.break_even_delta_s() * 0.99;
        assert!(c.benefit_cost_ratio() < 1.0);
    }

    #[test]
    fn bigger_tiles_raise_the_bar() {
        let small = CostInputs {
            m: 128,
            ..CostInputs::paper_default()
        };
        let big = CostInputs {
            m: 512,
            ..CostInputs::paper_default()
        };
        assert!(big.break_even_delta_s() > small.break_even_delta_s());
    }
}
