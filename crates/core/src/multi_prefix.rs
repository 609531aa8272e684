//! Two-prefix design-space variant (paper Table II).
//!
//! The paper's preliminary study asks how much extra sparsity a *second*
//! prefix would buy. A second prefix for row `i` must be a subset of the
//! remaining pattern after the first prefix is removed (equivalently: a
//! subset of `S_i` disjoint from the first prefix) so that both partial
//! results can be summed without double counting. The study found <6 % of
//! rows can use one and the extra density gain is small, which justifies the
//! one-prefix hardware; this module reproduces those numbers.

use crate::detect::detect_tile;
use crate::prune::select_prefix;
use spikemat::{SpikeMatrix, TileShape};
use std::ops::AddAssign;

/// Density/prefix statistics for the one- vs two-prefix comparison.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MultiPrefixStats {
    /// Matrix cells examined (`M × K`).
    pub dense_ops: u64,
    /// 1-bits (bit-sparsity ops).
    pub bit_ops: u64,
    /// Remaining ops with at most one prefix per row.
    pub one_prefix_ops: u64,
    /// Remaining ops with at most two (disjoint) prefixes per row.
    pub two_prefix_ops: u64,
    /// Rows examined.
    pub rows: u64,
    /// Rows using exactly one prefix (under the two-prefix policy).
    pub rows_with_one: u64,
    /// Rows using two prefixes.
    pub rows_with_two: u64,
}

impl MultiPrefixStats {
    /// Bit density.
    pub fn bit_density(&self) -> f64 {
        div(self.bit_ops, self.dense_ops)
    }

    /// Product density with one prefix.
    pub fn one_prefix_density(&self) -> f64 {
        div(self.one_prefix_ops, self.dense_ops)
    }

    /// Product density with two prefixes.
    pub fn two_prefix_density(&self) -> f64 {
        div(self.two_prefix_ops, self.dense_ops)
    }

    /// Fraction of rows using exactly one prefix (two-prefix policy).
    pub fn one_prefix_ratio(&self) -> f64 {
        div(self.rows_with_one, self.rows)
    }

    /// Fraction of rows using two prefixes.
    pub fn two_prefix_ratio(&self) -> f64 {
        div(self.rows_with_two, self.rows)
    }
}

fn div(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

impl AddAssign for MultiPrefixStats {
    fn add_assign(&mut self, r: Self) {
        self.dense_ops += r.dense_ops;
        self.bit_ops += r.bit_ops;
        self.one_prefix_ops += r.one_prefix_ops;
        self.two_prefix_ops += r.two_prefix_ops;
        self.rows += r.rows;
        self.rows_with_one += r.rows_with_one;
        self.rows_with_two += r.rows_with_two;
    }
}

/// Analyzes one padded tile under both the one- and two-prefix policies.
pub fn analyze_tile(tile: &SpikeMatrix, valid_rows: usize) -> MultiPrefixStats {
    let detected = detect_tile(tile);
    let pc = &detected.popcounts;
    let mut s = MultiPrefixStats::default();
    for i in 0..valid_rows.min(tile.rows()) {
        s.dense_ops += tile.cols() as u64;
        s.bit_ops += pc[i] as u64;
        s.rows += 1;
        let first = select_prefix(i, &detected.subset_candidates[i], pc);
        let Some(p1) = first else {
            s.one_prefix_ops += pc[i] as u64;
            s.two_prefix_ops += pc[i] as u64;
            continue;
        };
        let pattern1 = tile.row(i).xor(tile.row(p1));
        let rem1 = pattern1.popcount() as u64;
        s.one_prefix_ops += rem1;
        // Second prefix: a candidate subset of the *remaining* pattern —
        // i.e. disjoint from the first prefix — maximizing popcount.
        let second = detected.subset_candidates[i]
            .iter()
            .copied()
            .filter(|&j| j != p1 && pc[j] > 0 && tile.row(j).is_subset_of(&pattern1))
            .max_by_key(|&j| (pc[j], j));
        match second {
            Some(p2) => {
                let rem2 = pattern1.xor(tile.row(p2)).popcount() as u64;
                s.two_prefix_ops += rem2;
                s.rows_with_two += 1;
            }
            None => {
                s.two_prefix_ops += rem1;
                s.rows_with_one += 1;
            }
        }
    }
    s
}

/// Analyzes a whole matrix under the accelerator tile geometry.
pub fn analyze_matrix(spikes: &SpikeMatrix, shape: TileShape) -> MultiPrefixStats {
    let mut total = MultiPrefixStats::default();
    for t in spikes.tiles(shape) {
        // Restrict column accounting to valid columns by re-slicing.
        let sub = t.data.submatrix(0, 0, t.data.rows(), t.valid_cols.max(1));
        let mut s = analyze_tile(&sub, t.valid_rows);
        // analyze_tile counted cols of the sliced tile; fix dense count for
        // fully padded tiles.
        if t.valid_cols == 0 {
            s.dense_ops = 0;
        }
        total += s;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_prefix_never_worse() {
        let tile = SpikeMatrix::from_rows_of_bits(&[
            &[1, 0, 0, 0, 0, 0],
            &[0, 0, 0, 1, 1, 0],
            &[1, 0, 0, 1, 1, 1],
        ]);
        let s = analyze_tile(&tile, 3);
        // Row 2 first prefix = row 1 (pc 2), pattern = 100001; second prefix
        // row 0 ⊆ pattern → remaining 1 op.
        assert_eq!(s.one_prefix_ops, 1 + 2 + 2);
        assert_eq!(s.two_prefix_ops, 1 + 2 + 1);
        assert_eq!(s.rows_with_two, 1);
        assert_eq!(s.rows_with_one, 0);
    }

    #[test]
    fn second_prefix_must_be_disjoint() {
        // Candidates overlapping the first prefix are rejected.
        let tile = SpikeMatrix::from_rows_of_bits(&[&[1, 1, 0, 0], &[0, 1, 1, 0], &[1, 1, 1, 0]]);
        let s = analyze_tile(&tile, 3);
        // Row 2: first prefix row 1 (tie pc → larger index), pattern 1000;
        // row 0 = 1100 ⊄ 1000, so no second prefix.
        assert_eq!(s.rows_with_two, 0);
        assert_eq!(s.one_prefix_ops, s.two_prefix_ops);
    }

    #[test]
    fn densities_are_ordered() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        let m = SpikeMatrix::random(128, 16, 0.3, &mut rng);
        let s = analyze_matrix(&m, TileShape::new(64, 16));
        assert!(s.two_prefix_density() <= s.one_prefix_density() + 1e-12);
        assert!(s.one_prefix_density() <= s.bit_density() + 1e-12);
        assert!(s.one_prefix_ratio() + s.two_prefix_ratio() <= 1.0 + 1e-12);
    }

    #[test]
    fn empty_matrix_yields_zero_stats() {
        let s = analyze_matrix(&SpikeMatrix::zeros(0, 0), TileShape::new(4, 4));
        assert_eq!(s.rows, 0);
        assert_eq!(s.bit_density(), 0.0);
    }
}
