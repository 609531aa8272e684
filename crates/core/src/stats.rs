//! Operation and density statistics for product sparsity.

use std::ops::{Add, AddAssign};

/// Aggregate ProSparsity statistics for one tile, one GeMM, or a whole model.
///
/// All `*_ops` counts are **per output column** (i.e. weight-row
/// accumulations counted once, not multiplied by `N`); multiply by the output
/// width to obtain total scalar operations. `dense_ops` is the `M × K`
/// element count, so `bit_ops / dense_ops` is the paper's *bit density* and
/// `pro_ops / dense_ops` its *product density*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProStats {
    /// Total matrix elements `M × K` (dense operation count per output col).
    pub dense_ops: u64,
    /// Total 1-bits (bit-sparse operation count per output column).
    pub bit_ops: u64,
    /// Total remaining 1-bits after prefix reuse (product-sparse ops).
    pub pro_ops: u64,
    /// Rows examined.
    pub rows: u64,
    /// Rows with a Partial Match prefix.
    pub pm_rows: u64,
    /// Rows with an Exact Match prefix.
    pub em_rows: u64,
    /// Rows with no prefix (computed from scratch).
    pub root_rows: u64,
}

impl ProStats {
    /// Bit density `nnz / (M·K)` (1.0 ⇒ dense). Returns 0 for empty stats.
    pub fn bit_density(&self) -> f64 {
        ratio(self.bit_ops, self.dense_ops)
    }

    /// Product density after prefix reuse.
    pub fn pro_density(&self) -> f64 {
        ratio(self.pro_ops, self.dense_ops)
    }

    /// Computation-reduction factor of product over bit sparsity
    /// (`bit_ops / pro_ops`); `f64::INFINITY` if no product ops remain.
    pub fn reduction(&self) -> f64 {
        if self.pro_ops == 0 {
            if self.bit_ops == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.bit_ops as f64 / self.pro_ops as f64
        }
    }

    /// Fraction of rows that found a prefix (the paper's "prefix ratio").
    pub fn prefix_ratio(&self) -> f64 {
        ratio(self.pm_rows + self.em_rows, self.rows)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Add for ProStats {
    type Output = Self;

    fn add(mut self, rhs: Self) -> Self {
        self += rhs;
        self
    }
}

impl AddAssign for ProStats {
    fn add_assign(&mut self, rhs: Self) {
        self.dense_ops += rhs.dense_ops;
        self.bit_ops += rhs.bit_ops;
        self.pro_ops += rhs.pro_ops;
        self.rows += rhs.rows;
        self.pm_rows += rhs.pm_rows;
        self.em_rows += rhs.em_rows;
        self.root_rows += rhs.root_rows;
    }
}

impl std::iter::Sum for ProStats {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProStats {
        ProStats {
            dense_ops: 24,
            bit_ops: 14,
            pro_ops: 6,
            rows: 6,
            pm_rows: 4,
            em_rows: 1,
            root_rows: 1,
        }
    }

    #[test]
    fn densities() {
        let s = sample();
        assert!((s.bit_density() - 14.0 / 24.0).abs() < 1e-12);
        assert!((s.pro_density() - 0.25).abs() < 1e-12);
        assert!((s.reduction() - 14.0 / 6.0).abs() < 1e-12);
        assert!((s.prefix_ratio() - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero_not_nan() {
        let s = ProStats::default();
        assert_eq!(s.bit_density(), 0.0);
        assert_eq!(s.pro_density(), 0.0);
        assert_eq!(s.reduction(), 1.0);
        assert_eq!(s.prefix_ratio(), 0.0);
    }

    #[test]
    fn reduction_with_zero_pro_ops_is_infinite() {
        let s = ProStats {
            dense_ops: 8,
            bit_ops: 4,
            pro_ops: 0,
            rows: 2,
            pm_rows: 0,
            em_rows: 2,
            root_rows: 0,
        };
        assert!(s.reduction().is_infinite());
    }

    #[test]
    fn add_and_sum_accumulate() {
        let total: ProStats = vec![sample(), sample()].into_iter().sum();
        assert_eq!(total.dense_ops, 48);
        assert_eq!(total.pro_ops, 12);
        assert_eq!(total.rows, 12);
        // Ratios are scale-invariant.
        assert!((total.pro_density() - sample().pro_density()).abs() < 1e-12);
    }
}
