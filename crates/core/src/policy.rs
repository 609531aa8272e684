//! Prefix-selection policy ablation.
//!
//! The paper's pruning rule keeps the candidate with the **largest common
//! sub-combination** (argmax popcount, ties to the larger index). This
//! module makes the policy a parameter so the design choice can be ablated:
//! how much sparsity does the argmax rule actually buy over cheaper
//! alternatives (first match, random-ish smallest match), and how do the
//! Exact-Match and Partial-Match mechanisms contribute individually?

use crate::detect::detect_tile;
use crate::stats::ProStats;
use spikemat::{SpikeMatrix, TileShape};

/// Which prefix a row picks among its valid subset candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefixPolicy {
    /// The paper's rule: largest subset, ties toward the larger index.
    LargestSubset,
    /// The *smallest* valid subset — a lower bound on per-row benefit.
    SmallestSubset,
    /// The first valid candidate in index order — what a cheaper,
    /// priority-encoder-only Pruner would produce.
    FirstMatch,
    /// Only Exact Matches are exploited (duplicate-row elimination only).
    ExactOnly,
    /// Only Partial Matches are exploited (no duplicate elimination).
    PartialOnly,
}

impl PrefixPolicy {
    /// All policies, for sweeps.
    pub fn all() -> [PrefixPolicy; 5] {
        [
            PrefixPolicy::LargestSubset,
            PrefixPolicy::SmallestSubset,
            PrefixPolicy::FirstMatch,
            PrefixPolicy::ExactOnly,
            PrefixPolicy::PartialOnly,
        ]
    }
}

/// Analyzes one padded tile under `policy`, counting only `valid_rows`.
pub fn analyze_tile_with_policy(
    tile: &SpikeMatrix,
    valid_rows: usize,
    policy: PrefixPolicy,
) -> ProStats {
    let detected = detect_tile(tile);
    let pc = &detected.popcounts;
    let mut s = ProStats::default();
    for i in 0..valid_rows.min(tile.rows()) {
        s.dense_ops += tile.cols() as u64;
        s.bit_ops += pc[i] as u64;
        s.rows += 1;
        let valid = detected.subset_candidates[i].iter().copied().filter(|&j| {
            let ordered = pc[j] < pc[i] || (pc[j] == pc[i] && j < i);
            let kind_ok = match policy {
                PrefixPolicy::ExactOnly => pc[j] == pc[i],
                PrefixPolicy::PartialOnly => pc[j] < pc[i],
                _ => true,
            };
            ordered && kind_ok
        });
        let chosen = match policy {
            PrefixPolicy::LargestSubset => valid.max_by_key(|&j| (pc[j], j)),
            PrefixPolicy::SmallestSubset => valid.min_by_key(|&j| (pc[j], j)),
            PrefixPolicy::FirstMatch => valid.min(),
            PrefixPolicy::ExactOnly | PrefixPolicy::PartialOnly => {
                valid.max_by_key(|&j| (pc[j], j))
            }
        };
        match chosen {
            Some(p) => {
                let remaining = (pc[i] - pc[p]) as u64;
                s.pro_ops += remaining;
                if pc[p] == pc[i] {
                    s.em_rows += 1;
                } else {
                    s.pm_rows += 1;
                }
            }
            None => {
                s.pro_ops += pc[i] as u64;
                s.root_rows += 1;
            }
        }
    }
    s
}

/// Analyzes a whole matrix under `policy` with the given tile geometry.
pub fn analyze_matrix_with_policy(
    spikes: &SpikeMatrix,
    shape: TileShape,
    policy: PrefixPolicy,
) -> ProStats {
    let mut total = ProStats::default();
    for t in spikes.tiles(shape) {
        let sub = t.data.submatrix(0, 0, t.data.rows(), t.valid_cols.max(1));
        let mut s = analyze_tile_with_policy(&sub, t.valid_rows, policy);
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
    use crate::plan::ProSparsityPlan;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample() -> SpikeMatrix {
        let mut rng = StdRng::seed_from_u64(77);
        SpikeMatrix::random(256, 32, 0.3, &mut rng)
    }

    #[test]
    fn largest_subset_matches_the_default_plan() {
        let m = sample();
        let shape = TileShape::new(128, 16);
        let s = analyze_matrix_with_policy(&m, shape, PrefixPolicy::LargestSubset);
        let plan = ProSparsityPlan::build_tiled(&m, shape);
        assert_eq!(s.pro_ops, plan.stats().pro_ops);
        assert_eq!(s.em_rows, plan.stats().em_rows);
        assert_eq!(s.pm_rows, plan.stats().pm_rows);
    }

    #[test]
    fn largest_subset_is_per_row_optimal() {
        let m = sample();
        let shape = TileShape::new(128, 16);
        let best = analyze_matrix_with_policy(&m, shape, PrefixPolicy::LargestSubset);
        for policy in [
            PrefixPolicy::SmallestSubset,
            PrefixPolicy::FirstMatch,
            PrefixPolicy::ExactOnly,
            PrefixPolicy::PartialOnly,
        ] {
            let other = analyze_matrix_with_policy(&m, shape, policy);
            assert!(
                best.pro_ops <= other.pro_ops,
                "{policy:?}: {} < {}",
                other.pro_ops,
                best.pro_ops
            );
        }
    }

    #[test]
    fn exact_only_has_no_pm_rows_and_vice_versa() {
        let m = sample();
        let shape = TileShape::new(128, 16);
        let em = analyze_matrix_with_policy(&m, shape, PrefixPolicy::ExactOnly);
        assert_eq!(em.pm_rows, 0);
        let pm = analyze_matrix_with_policy(&m, shape, PrefixPolicy::PartialOnly);
        assert_eq!(pm.em_rows, 0);
    }

    #[test]
    fn every_policy_stays_within_bit_ops() {
        let m = sample();
        let shape = TileShape::new(64, 16);
        for policy in PrefixPolicy::all() {
            let s = analyze_matrix_with_policy(&m, shape, policy);
            assert!(s.pro_ops <= s.bit_ops, "{policy:?}");
            assert_eq!(s.rows, 256 * 2); // rows × k-tiles
        }
    }

    #[test]
    fn exact_only_pattern_is_zero_cost_rows() {
        // Duplicates only: ExactOnly equals LargestSubset.
        let row: &[u8] = &[1, 0, 1, 1];
        let m = SpikeMatrix::from_rows_of_bits(&[row; 8]);
        let shape = TileShape::new(8, 4);
        let em = analyze_matrix_with_policy(&m, shape, PrefixPolicy::ExactOnly);
        let best = analyze_matrix_with_policy(&m, shape, PrefixPolicy::LargestSubset);
        assert_eq!(em.pro_ops, best.pro_ops);
        assert_eq!(em.pro_ops, 3); // first row pays, 7 reuse
    }
}
