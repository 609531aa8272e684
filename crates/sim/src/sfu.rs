//! Special Function Unit (SFU) model — transformer support (paper Sec. IV).
//!
//! Spiking transformers add operations that are not spiking GeMM: the
//! softmax in (some) spiking attention blocks and layer normalization. The
//! PPU is reused for the GeMM-like parts (`Q·Kᵀ`, `attn·V`); the SFU
//! supplies the element-wise exponentiation, multiplication and division.
//! Table III sizes it at 128 AND/OR, 32 multipliers, 8 EXP units and 1
//! divider.

use crate::events::EventCounts;

/// SFU configuration (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SfuConfig {
    /// Bitwise AND/OR lanes (spike masking).
    pub and_or_units: usize,
    /// Multiplier lanes.
    pub mul_units: usize,
    /// Exponentiation units.
    pub exp_units: usize,
    /// Dividers.
    pub div_units: usize,
}

impl Default for SfuConfig {
    fn default() -> Self {
        Self {
            and_or_units: 128,
            mul_units: 32,
            exp_units: 8,
            div_units: 1,
        }
    }
}

/// Cycle/energy cost of one SFU pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SfuCost {
    /// SFU cycles (serialized after the producing GeMM).
    pub cycles: u64,
    /// Element-wise operations executed, by unit kind:
    /// `(and_or, mul, exp, div)`.
    pub ops: (u64, u64, u64, u64),
}

impl SfuConfig {
    /// Cost of a softmax over an `rows × cols` attention score matrix:
    /// per row, `cols` exponentiations, a `cols`-element sum (reusing the
    /// multiplier/adder lanes) and `cols` divisions by the row sum.
    pub fn softmax_cost(&self, rows: usize, cols: usize) -> SfuCost {
        let n = (rows * cols) as u64;
        let exp_cycles = n.div_ceil(self.exp_units as u64);
        let sum_cycles = n.div_ceil(self.mul_units as u64);
        let div_cycles = n.div_ceil(self.div_units as u64);
        SfuCost {
            cycles: exp_cycles + sum_cycles + div_cycles,
            ops: (0, n, n, n),
        }
    }

    /// Cost of layer normalization over `rows × cols`: two reduction passes
    /// (mean, variance) on the multiplier lanes plus a scale/shift pass.
    pub fn layernorm_cost(&self, rows: usize, cols: usize) -> SfuCost {
        let n = (rows * cols) as u64;
        let reduce = 2 * n.div_ceil(self.mul_units as u64);
        let scale = n.div_ceil(self.mul_units as u64);
        let rsqrt = (rows as u64).div_ceil(self.div_units as u64);
        SfuCost {
            cycles: reduce + scale + rsqrt,
            ops: (0, 3 * n, 0, rows as u64),
        }
    }

    /// Cost of binary spike masking (AND/OR) over `rows × cols` bits.
    pub fn mask_cost(&self, rows: usize, cols: usize) -> SfuCost {
        let n = (rows * cols) as u64;
        SfuCost {
            cycles: n.div_ceil(self.and_or_units as u64),
            ops: (n, 0, 0, 0),
        }
    }
}

impl SfuCost {
    /// Adds this pass's activity into an event-count accumulator
    /// (multiplications are charged as neuron-class updates, the dominant
    /// SFU energy term).
    pub fn accumulate_into(&self, events: &mut EventCounts) {
        let (_and_or, mul, exp, div) = self.ops;
        events.neuron_updates += mul + 2 * exp + 4 * div;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_is_divider_bound() {
        let sfu = SfuConfig::default();
        let c = sfu.softmax_cost(64, 64);
        // 4096 divisions through a single divider dominate.
        assert!(c.cycles >= 4096);
        assert_eq!(c.ops.3, 4096);
        assert_eq!(c.ops.2, 4096);
    }

    #[test]
    fn layernorm_scales_linearly() {
        let sfu = SfuConfig::default();
        let small = sfu.layernorm_cost(16, 128);
        let big = sfu.layernorm_cost(32, 128);
        assert!(big.cycles > small.cycles);
        assert!(big.cycles <= 2 * small.cycles + 32);
    }

    #[test]
    fn mask_uses_all_lanes() {
        let sfu = SfuConfig::default();
        // 128 lanes: 256 bits in 2 cycles.
        assert_eq!(sfu.mask_cost(2, 128).cycles, 2);
    }

    #[test]
    fn accumulate_charges_events() {
        let sfu = SfuConfig::default();
        let mut ev = EventCounts::default();
        sfu.softmax_cost(4, 4).accumulate_into(&mut ev);
        assert!(ev.neuron_updates > 0);
    }

    #[test]
    fn zero_size_costs_nothing() {
        let sfu = SfuConfig::default();
        assert_eq!(sfu.softmax_cost(0, 64).cycles, 0);
        assert_eq!(sfu.mask_cost(0, 0).cycles, 0);
    }
}
