//! Prefix selection and ProSparsity-pattern generation (the PPU **Pruner**,
//! Sec. V-C, and the pruning rules of Sec. III-D).
//!
//! The Detector's candidate list may contain many subset rows per query row.
//! The Pruner reduces this to **at most one prefix per row** with two rules:
//!
//! 1. *Proper-subset filter* (partial ordering): a candidate `j` for query
//!    `i` is valid iff `pc(j) < pc(i)` (Partial Match) or `pc(j) == pc(i)
//!    && j < i` (Exact Match — only the earlier duplicate may be the prefix).
//! 2. *Argmax*: among the valid candidates, keep the one with the largest
//!    popcount (the most similar prefix); ties are broken toward the larger
//!    row index, matching the paper's rule.
//!
//! The ProSparsity pattern is then `S_i ⊕ S_prefix` (hardware: one XOR unit),
//! which equals the set difference because the prefix is a subset.

use crate::detect::DetectedTile;
use spikemat::{BitRow, SpikeMatrix};

/// How a row relates to its selected prefix. The discriminants are the
/// kind bytes of the plan-snapshot format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MatchKind {
    /// No usable prefix: the row is computed from scratch (pure bit sparsity).
    None = 0,
    /// Partial Match: the prefix is a proper subset; the pattern bits remain.
    Partial = 1,
    /// Exact Match: the prefix equals the row; zero accumulations remain.
    Exact = 2,
}

/// The pruned spatial meta-information for one row of a tile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrunedRow {
    /// Selected prefix row index within the tile, if any.
    pub prefix: Option<usize>,
    /// Relationship to the prefix.
    pub kind: MatchKind,
    /// The ProSparsity pattern: bits still to accumulate (`S_i ⊕ S_prefix`,
    /// or the row itself when there is no prefix).
    pub pattern: BitRow,
}

impl PrunedRow {
    /// Number of weight-row accumulations this row still requires per output
    /// column (the row's contribution to product density).
    pub fn remaining_ops(&self) -> usize {
        self.pattern.popcount()
    }
}

/// Selects the prefix for a single query row given its candidate list.
///
/// Returns `None` when no candidate survives the proper-subset filter.
pub fn select_prefix(query: usize, candidates: &[usize], popcounts: &[usize]) -> Option<usize> {
    candidates
        .iter()
        .copied()
        .filter(|&j| {
            popcounts[j] < popcounts[query] || (popcounts[j] == popcounts[query] && j < query)
        })
        // max_by_key returns the *last* maximal element, which implements the
        // paper's "keep the edge from the node with the largest index"
        // tie-break as long as candidates are in ascending index order.
        .max_by_key(|&j| (popcounts[j], j))
}

/// Runs the Pruner over a detected tile, producing one [`PrunedRow`] per row.
///
/// # Panics
///
/// Panics if `detected` does not match the tile's row count.
pub fn prune_tile(tile: &SpikeMatrix, detected: &DetectedTile) -> Vec<PrunedRow> {
    assert_eq!(detected.rows(), tile.rows(), "detector/tile row mismatch");
    (0..tile.rows())
        .map(|i| {
            let row = tile.row(i);
            match select_prefix(i, &detected.subset_candidates[i], &detected.popcounts) {
                Some(p) => {
                    let kind = if detected.popcounts[p] == detected.popcounts[i] {
                        MatchKind::Exact
                    } else {
                        MatchKind::Partial
                    };
                    PrunedRow {
                        prefix: Some(p),
                        kind,
                        pattern: row.xor(tile.row(p)),
                    }
                }
                None => PrunedRow {
                    prefix: None,
                    kind: MatchKind::None,
                    pattern: row.clone(),
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::detect_tile;

    fn fig3_tile() -> SpikeMatrix {
        SpikeMatrix::from_rows_of_bits(&[
            &[1, 0, 1, 0],
            &[1, 0, 0, 1],
            &[1, 0, 1, 1],
            &[0, 0, 1, 0],
            &[1, 0, 1, 1],
            &[1, 1, 0, 1],
        ])
    }

    fn pruned_fig3() -> Vec<PrunedRow> {
        let tile = fig3_tile();
        prune_tile(&tile, &detect_tile(&tile))
    }

    #[test]
    fn fig3_forest_edges() {
        // Expected ProSparsity forest of Fig. 3 (c):
        //   3 → 0, 0 → 2 or 1 → 2 (argmax over pc ties → larger index wins;
        //   pc(0)=2, pc(1)=2 so row 2's prefix is row 1), 2 → 4 (EM),
        //   1 → 5, 3 is a root, 1 has prefix 3? pc(3)=1 ⊆ 1001? 0010 ⊄ 1001.
        let p = pruned_fig3();
        assert_eq!(p[0].prefix, Some(3)); // 0010 ⊂ 1010
        assert_eq!(p[0].kind, MatchKind::Partial);
        assert_eq!(p[1].prefix, None); // nothing ⊆ 1001 except zero rows
        assert_eq!(p[2].prefix, Some(1)); // tie pc=2 between rows 0,1 → larger index 1
        assert_eq!(p[2].kind, MatchKind::Partial);
        assert_eq!(p[3].prefix, None);
        assert_eq!(p[4].prefix, Some(2)); // EM with smaller-index duplicate
        assert_eq!(p[4].kind, MatchKind::Exact);
        assert_eq!(p[5].prefix, Some(1)); // 1001 ⊂ 1101
    }

    #[test]
    fn patterns_are_xor_differences() {
        let p = pruned_fig3();
        assert_eq!(p[0].pattern, BitRow::from_bits(&[1, 0, 0, 0])); // 1010⊕0010
        assert_eq!(p[2].pattern, BitRow::from_bits(&[0, 0, 1, 0])); // 1011⊕1001
        assert!(p[4].pattern.is_zero()); // exact match
        assert_eq!(p[5].pattern, BitRow::from_bits(&[0, 1, 0, 0])); // 1101⊕1001
    }

    #[test]
    fn no_prefix_keeps_full_row() {
        let p = pruned_fig3();
        assert_eq!(p[1].pattern, BitRow::from_bits(&[1, 0, 0, 1]));
        assert_eq!(p[1].remaining_ops(), 2);
    }

    #[test]
    fn em_only_earlier_duplicate_is_prefix() {
        let tile = SpikeMatrix::from_rows_of_bits(&[&[1, 1, 0, 0], &[1, 1, 0, 0], &[1, 1, 0, 0]]);
        let p = prune_tile(&tile, &detect_tile(&tile));
        assert_eq!(p[0].prefix, None);
        // Larger-index tie-break among valid EM candidates: row 2 picks row 1.
        assert_eq!(p[1].prefix, Some(0));
        assert_eq!(p[2].prefix, Some(1));
        assert!(p[1].pattern.is_zero());
    }

    #[test]
    fn total_ops_match_paper_fig1() {
        // Fig. 1 (d): product sparsity leaves 6 OPs out of the dense 24.
        // (Matrix of Fig. 1 differs from Fig. 3 in row 4: 1101.)
        let tile = SpikeMatrix::from_rows_of_bits(&[
            &[1, 0, 1, 0],
            &[1, 0, 0, 1],
            &[1, 0, 1, 1],
            &[0, 0, 1, 0],
            &[1, 1, 0, 1],
            &[1, 1, 0, 1],
        ]);
        let p = prune_tile(&tile, &detect_tile(&tile));
        let ops: usize = p.iter().map(PrunedRow::remaining_ops).sum();
        assert_eq!(ops, 6);
    }

    #[test]
    fn prefix_is_always_subset() {
        let tile = fig3_tile();
        let p = pruned_fig3();
        for (i, row) in p.iter().enumerate() {
            if let Some(pre) = row.prefix {
                assert!(tile.row(pre).is_subset_of(tile.row(i)));
                assert!(tile.row(pre).popcount() > 0);
            }
        }
    }

    #[test]
    fn select_prefix_empty_candidates() {
        assert_eq!(select_prefix(0, &[], &[2]), None);
    }
}
