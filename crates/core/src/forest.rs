//! The ProSparsity forest (paper Sec. III-D).
//!
//! After pruning, every row has at most one prefix, so the prefix edges form
//! a directed forest: roots are rows computed from scratch, and each non-root
//! reuses its parent's inner-product result. The forest's topological order
//! (root → leaves) is the processing-order constraint the Dispatcher must
//! respect.

use crate::prune::{MatchKind, PrunedRow};

/// A pruned one-prefix-per-row forest over the rows of one tile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProSparsityForest {
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    kinds: Vec<MatchKind>,
}

impl ProSparsityForest {
    /// Builds the forest from the Pruner's per-row output.
    ///
    /// # Panics
    ///
    /// Panics if a prefix index is out of range or a row is its own prefix.
    pub fn from_pruned(rows: &[PrunedRow]) -> Self {
        let m = rows.len();
        let mut parent = Vec::with_capacity(m);
        let mut children = vec![Vec::new(); m];
        let mut kinds = Vec::with_capacity(m);
        for (i, r) in rows.iter().enumerate() {
            if let Some(p) = r.prefix {
                assert!(p < m, "prefix {p} out of range for {m} rows");
                assert_ne!(p, i, "row {i} cannot be its own prefix");
                children[p].push(i);
            }
            parent.push(r.prefix);
            kinds.push(r.kind);
        }
        Self {
            parent,
            children,
            kinds,
        }
    }

    /// Number of rows (nodes).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the forest has no nodes.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The prefix (parent) of row `i`, if any.
    pub fn parent(&self, i: usize) -> Option<usize> {
        self.parent[i]
    }

    /// The suffix rows that reuse row `i`'s result.
    pub fn children(&self, i: usize) -> &[usize] {
        &self.children[i]
    }

    /// Match kind of row `i` with respect to its prefix.
    pub fn kind(&self, i: usize) -> MatchKind {
        self.kinds[i]
    }

    /// Root rows (no prefix).
    pub fn roots(&self) -> impl Iterator<Item = usize> + '_ {
        self.parent
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_none())
            .map(|(i, _)| i)
    }

    /// Depth of node `i` (roots have depth 0).
    ///
    /// This is the reuse-chain length: the number of prefix hops until a row
    /// that was computed from scratch.
    pub fn depth(&self, i: usize) -> usize {
        let mut d = 0;
        let mut cur = i;
        while let Some(p) = self.parent[cur] {
            d += 1;
            cur = p;
            assert!(
                d <= self.len(),
                "cycle detected in ProSparsity forest at row {i}"
            );
        }
        d
    }

    /// Maximum node depth (`d` in the paper's O(m·d) slow-dispatch bound).
    pub fn max_depth(&self) -> usize {
        (0..self.len()).map(|i| self.depth(i)).max().unwrap_or(0)
    }

    /// Verifies the structural invariants:
    ///
    /// * acyclicity (every chain terminates at a root),
    /// * child lists consistent with parents.
    ///
    /// Returns `true` when all hold. Primarily for property tests.
    pub fn validate(&self) -> bool {
        for i in 0..self.len() {
            // depth() panics on cycles; catch via length bound instead.
            let mut seen = 0;
            let mut cur = i;
            while let Some(p) = self.parent[cur] {
                seen += 1;
                if seen > self.len() {
                    return false;
                }
                cur = p;
            }
        }
        for (p, kids) in self.children.iter().enumerate() {
            for &c in kids {
                if self.parent[c] != Some(p) {
                    return false;
                }
            }
        }
        true
    }

    /// Counts nodes by match kind: `(no-prefix, partial, exact)`.
    pub fn kind_counts(&self) -> (usize, usize, usize) {
        let mut none = 0;
        let mut partial = 0;
        let mut exact = 0;
        for k in &self.kinds {
            match k {
                MatchKind::None => none += 1,
                MatchKind::Partial => partial += 1,
                MatchKind::Exact => exact += 1,
            }
        }
        (none, partial, exact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::detect_tile;
    use crate::prune::prune_tile;
    use spikemat::SpikeMatrix;

    fn fig3_forest() -> ProSparsityForest {
        let tile = SpikeMatrix::from_rows_of_bits(&[
            &[1, 0, 1, 0],
            &[1, 0, 0, 1],
            &[1, 0, 1, 1],
            &[0, 0, 1, 0],
            &[1, 0, 1, 1],
            &[1, 1, 0, 1],
        ]);
        ProSparsityForest::from_pruned(&prune_tile(&tile, &detect_tile(&tile)))
    }

    #[test]
    fn roots_and_parents() {
        let f = fig3_forest();
        assert_eq!(f.roots().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(f.parent(0), Some(3));
        assert_eq!(f.parent(2), Some(1));
        assert_eq!(f.parent(4), Some(2));
        assert_eq!(f.parent(5), Some(1));
    }

    #[test]
    fn children_are_inverse_of_parent() {
        let f = fig3_forest();
        assert_eq!(f.children(1), &[2, 5]);
        assert_eq!(f.children(3), &[0]);
        assert!(f.children(0).is_empty());
        assert!(f.validate());
    }

    #[test]
    fn depths() {
        let f = fig3_forest();
        assert_eq!(f.depth(1), 0);
        assert_eq!(f.depth(2), 1);
        assert_eq!(f.depth(4), 2); // 4 → 2 → 1
        assert_eq!(f.max_depth(), 2);
    }

    #[test]
    fn kind_counts_sum_to_rows() {
        let f = fig3_forest();
        let (n, p, e) = f.kind_counts();
        assert_eq!(n + p + e, f.len());
        assert_eq!(e, 1); // row 4 is the exact match
        assert_eq!(n, 2); // rows 1 and 3
        assert_eq!(p, 3);
    }

    #[test]
    fn empty_forest() {
        let f = ProSparsityForest::from_pruned(&[]);
        assert!(f.is_empty());
        assert_eq!(f.max_depth(), 0);
        assert!(f.validate());
    }

    #[test]
    #[should_panic(expected = "own prefix")]
    fn self_prefix_rejected() {
        use crate::prune::PrunedRow;
        use spikemat::BitRow;
        let bad = PrunedRow {
            prefix: Some(0),
            kind: MatchKind::Exact,
            pattern: BitRow::zeros(4),
        };
        let _ = ProSparsityForest::from_pruned(&[bad]);
    }
}
