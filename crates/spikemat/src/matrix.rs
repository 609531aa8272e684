//! The binary spike matrix.

use crate::bitrow::BitRow;
use crate::tile::{TileIter, TileShape};
use crate::LIMB_BITS;
use rand::Rng;

/// An `M × K` binary spike matrix.
///
/// In an SNN layer, the activations across all `T` time steps are unrolled and
/// concatenated into a single binary matrix (paper Sec. II-A), so `M` is
/// typically `T × L` (transformers) or `T × OH × OW` (convolutions after
/// im2col) and `K` is the input feature dimension.
///
/// # Examples
///
/// ```
/// use spikemat::SpikeMatrix;
///
/// let m = SpikeMatrix::from_rows_of_bits(&[
///     &[1, 0, 1, 0],
///     &[1, 0, 0, 1],
/// ]);
/// assert_eq!((m.rows(), m.cols()), (2, 4));
/// assert_eq!(m.total_spikes(), 4);
/// assert!((m.density() - 0.5).abs() < 1e-9);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct SpikeMatrix {
    rows: Vec<BitRow>,
    cols: usize,
}

impl SpikeMatrix {
    /// Creates an all-zero matrix of shape `rows × cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows: vec![BitRow::zeros(cols); rows],
            cols,
        }
    }

    /// Builds a matrix from pre-constructed rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all have the same length.
    pub fn from_rows(rows: Vec<BitRow>) -> Self {
        let cols = rows.first().map_or(0, BitRow::len);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "row {i} has length {} != {cols}", r.len());
        }
        Self { rows, cols }
    }

    /// Builds a matrix from slices of 0/1 bytes, one per row.
    ///
    /// # Panics
    ///
    /// Panics if the slices have differing lengths.
    pub fn from_rows_of_bits(rows: &[&[u8]]) -> Self {
        Self::from_rows(rows.iter().map(|r| BitRow::from_bits(r)).collect())
    }

    /// Samples a matrix where each bit is 1 with probability `density`.
    pub fn random<R: Rng + ?Sized>(rows: usize, cols: usize, density: f64, rng: &mut R) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                if rng.gen_bool(density.clamp(0.0, 1.0)) {
                    m.set(i, j, true);
                }
            }
        }
        m
    }

    /// Number of rows `M`.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns `K`.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the row at index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &BitRow {
        &self.rows[i]
    }

    /// All rows in order.
    pub fn row_slice(&self) -> &[BitRow] {
        &self.rows
    }

    /// Reads bit `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> bool {
        self.rows[i].get(j)
    }

    /// Writes bit `(i, j)`.
    pub fn set(&mut self, i: usize, j: usize, value: bool) {
        self.rows[i].set(j, value);
    }

    /// Total number of 1-bits in the matrix.
    pub fn total_spikes(&self) -> usize {
        self.rows.iter().map(BitRow::popcount).sum()
    }

    /// Fraction of 1-bits: the paper's *bit density* (1 − bit sparsity).
    ///
    /// Returns 0 for an empty matrix.
    pub fn density(&self) -> f64 {
        let cells = self.rows() * self.cols;
        if cells == 0 {
            0.0
        } else {
            self.total_spikes() as f64 / cells as f64
        }
    }

    /// Extracts the sub-matrix at `(row_start, col_start)` of shape
    /// `(n_rows, n_cols)`, zero-padding past the matrix edge.
    pub fn submatrix(
        &self,
        row_start: usize,
        col_start: usize,
        n_rows: usize,
        n_cols: usize,
    ) -> Self {
        let mut out = Self::zeros(0, n_cols);
        self.submatrix_into(row_start, col_start, n_rows, n_cols, &mut out);
        out
    }

    /// Extracts a zero-padded sub-matrix into `out`, reusing its row
    /// allocations when the column count matches.
    ///
    /// This is the zero-allocation tile-extraction path used by the planner:
    /// together with [`BitRow::slice_into`] a steady-state tile extraction
    /// performs no heap allocation at all. The serving engine calls it only
    /// on a plan-cache miss, to build the tile it plans; hits are resolved
    /// from [`SpikeMatrix::tile_key_into`] alone.
    pub fn submatrix_into(
        &self,
        row_start: usize,
        col_start: usize,
        n_rows: usize,
        n_cols: usize,
        out: &mut Self,
    ) {
        if out.cols != n_cols {
            out.rows.clear();
            out.cols = n_cols;
        }
        out.rows.resize_with(n_rows, || BitRow::zeros(n_cols));
        for (r, dst) in out.rows.iter_mut().enumerate() {
            if row_start + r < self.rows.len() {
                self.rows[row_start + r].slice_into(col_start, dst);
            } else {
                dst.clear();
            }
        }
    }

    /// Writes the raw limbs of the zero-padded `m × k` tile at
    /// `(row_start, col_start)` into `key`, row-major: `m · ⌈k/64⌉` limbs,
    /// exactly the concatenated [`BitRow::limbs`] of
    /// `self.submatrix(row_start, col_start, m, k)`, without building it.
    ///
    /// This is the plan cache's content key. When `k ≤ 64` each row's
    /// window is one shift of the two source limbs it straddles plus a
    /// mask; wider tiles go through [`BitRow::window_into`]. `key` is
    /// resized in place, so a reused buffer makes this allocation-free.
    // analyze: hot-path
    pub fn tile_key_into(
        &self,
        row_start: usize,
        col_start: usize,
        m: usize,
        k: usize,
        key: &mut Vec<u64>,
    ) {
        let words = k.div_ceil(LIMB_BITS);
        key.resize(m * words, 0);
        let rows = self.rows.get(row_start..).unwrap_or(&[]);
        let filled = rows.len().min(m) * words;
        if words == 1 {
            let word0 = col_start / LIMB_BITS;
            let shift = col_start % LIMB_BITS;
            let mask = u64::MAX >> (LIMB_BITS - k);
            // Loop-invariant, so the loop is unswitched: a window inside
            // one limb (every tile when k divides 64) loads only that limb.
            let straddles = shift + k > LIMB_BITS;
            for (dst, row) in key.iter_mut().zip(rows) {
                let src = row.limbs();
                let lo = u128::from(src.get(word0).copied().unwrap_or(0));
                let hi = if straddles {
                    u128::from(src.get(word0 + 1).copied().unwrap_or(0))
                } else {
                    0
                };
                *dst = (((hi << LIMB_BITS) | lo) >> shift) as u64 & mask;
            }
        } else if words > 1 {
            for (dst, row) in key.chunks_exact_mut(words).zip(rows) {
                row.window_into(col_start, k, dst);
            }
        }
        if let Some(padding) = key.get_mut(filled..) {
            padding.fill(0);
        }
    }

    /// Iterates over `m × k` tiles in row-major tile order.
    ///
    /// Edge tiles are zero-padded to the full tile shape, matching the
    /// accelerator's fixed-geometry spike buffer and TCAM.
    pub fn tiles(&self, shape: TileShape) -> TileIter<'_> {
        TileIter::new(self, shape)
    }

    /// Resizes this matrix in place to an all-zero `rows × cols`, reusing the
    /// row allocations whenever the column count is unchanged.
    ///
    /// This is the buffer-recycling primitive behind the engine's spike-chain
    /// pooling: a matrix bounced between layers of matching width is cleared
    /// and refilled without touching the heap.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        if self.cols != cols {
            self.rows.clear();
            self.cols = cols;
        }
        self.rows.resize_with(rows, || BitRow::zeros(cols));
        for r in &mut self.rows {
            r.clear();
        }
    }

    /// Returns the transpose (`K × M`) of this matrix.
    ///
    /// Used to lower `Q·Kᵀ` spiking attention onto spiking GeMM. Runs one
    /// 64×64 block at a time through [`crate::bitops::transpose64`], so the
    /// cost is ~6·32 word operations per block instead of one get/set pair
    /// per bit.
    pub fn transpose(&self) -> Self {
        let mut t = Self::zeros(self.cols, self.rows());
        self.transpose_into(&mut t);
        t
    }

    /// Word-parallel [`SpikeMatrix::transpose`] into a caller-owned matrix
    /// (resized in place, so a reused buffer makes transposition
    /// allocation-free).
    pub fn transpose_into(&self, t: &mut Self) {
        t.reset(self.cols, self.rows());
        let row_blocks = self.rows.len().div_ceil(64);
        let col_blocks = self.cols.div_ceil(64);
        let mut block = [0u64; 64];
        for rb in 0..row_blocks {
            for cb in 0..col_blocks {
                crate::bitops::gather_block(&self.rows, rb, cb, &mut block);
                crate::bitops::transpose64(&mut block);
                // Source bits above the valid region are zero (the BitRow
                // invariant), so the transposed block only carries bits that
                // land inside `t`'s valid region.
                for (c, &limb) in block.iter().enumerate() {
                    if limb == 0 {
                        continue;
                    }
                    let col = cb * 64 + c;
                    t.rows[col].limbs_mut()[rb] = limb;
                }
            }
        }
    }

    /// Vertically concatenates matrices (e.g. unrolling time steps).
    ///
    /// # Panics
    ///
    /// Panics if column counts differ or `parts` is empty.
    pub fn vconcat(parts: &[Self]) -> Self {
        assert!(!parts.is_empty(), "vconcat of zero matrices");
        let cols = parts[0].cols;
        let mut rows = Vec::with_capacity(parts.iter().map(Self::rows).sum());
        for p in parts {
            assert_eq!(p.cols, cols, "vconcat column mismatch");
            rows.extend(p.rows.iter().cloned());
        }
        Self { rows, cols }
    }
}

impl std::fmt::Debug for SpikeMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "SpikeMatrix {}x{} [", self.rows(), self.cols)?;
        for r in &self.rows {
            writeln!(f, "  {r:?}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn paper_matrix() -> SpikeMatrix {
        // Fig. 1 (b) / Fig. 2 (a) spike matrix.
        SpikeMatrix::from_rows_of_bits(&[
            &[1, 0, 1, 0],
            &[1, 0, 0, 1],
            &[1, 0, 1, 1],
            &[0, 0, 1, 0],
            &[1, 1, 0, 1],
            &[1, 1, 0, 1],
        ])
    }

    #[test]
    fn shape_and_density() {
        let m = paper_matrix();
        assert_eq!(m.rows(), 6);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.total_spikes(), 14);
        assert!((m.density() - 14.0 / 24.0).abs() < 1e-12);
    }

    #[test]
    fn zeros_density_is_zero() {
        assert_eq!(SpikeMatrix::zeros(3, 5).density(), 0.0);
        assert_eq!(SpikeMatrix::zeros(0, 0).density(), 0.0);
    }

    #[test]
    fn submatrix_extracts_and_pads() {
        let m = paper_matrix();
        let s = m.submatrix(4, 2, 3, 3);
        // rows 4,5 cols 2..5 (col 4 padded), row 6 padded.
        assert_eq!(s.rows(), 3);
        assert_eq!(s.cols(), 3);
        assert_eq!(s.row(0), &BitRow::from_bits(&[0, 1, 0]));
        assert_eq!(s.row(1), &BitRow::from_bits(&[0, 1, 0]));
        assert!(s.row(2).is_zero());
    }

    #[test]
    fn submatrix_into_reuses_buffers() {
        let m = paper_matrix();
        let mut out = SpikeMatrix::zeros(0, 0);
        // First use resizes; second reuses rows of matching width.
        m.submatrix_into(4, 2, 3, 3, &mut out);
        assert_eq!(out, m.submatrix(4, 2, 3, 3));
        m.submatrix_into(0, 0, 3, 3, &mut out);
        assert_eq!(out, m.submatrix(0, 0, 3, 3));
        // Width change rebuilds rows correctly.
        m.submatrix_into(1, 1, 2, 4, &mut out);
        assert_eq!(out, m.submatrix(1, 1, 2, 4));
    }

    #[test]
    fn tile_key_equals_flattened_submatrix_limbs() {
        // Every shift inside a limb and across limbs (all col_start in
        // 0..K), row groups running past the last row, and windows running
        // past the right edge. One reused key buffer also checks that stale
        // contents of any length are fully overwritten.
        let mut rng = StdRng::seed_from_u64(0x7117);
        let m = SpikeMatrix::random(37, 150, 0.4, &mut rng);
        let mut key = vec![u64::MAX; 3];
        for k in [1, 15, 16, 17, 63, 64, 65, 128, 130] {
            for col_start in 0..m.cols() {
                for (row_start, rows) in [(0, 16), (16, 16), (30, 16), (37, 4), (40, 3), (0, 37)] {
                    m.tile_key_into(row_start, col_start, rows, k, &mut key);
                    let expect: Vec<u64> = m
                        .submatrix(row_start, col_start, rows, k)
                        .row_slice()
                        .iter()
                        .flat_map(|r| r.limbs().iter().copied())
                        .collect();
                    assert_eq!(key, expect, "k={k} col={col_start} rows={row_start}+{rows}");
                }
            }
        }
        m.tile_key_into(0, 0, 4, 0, &mut key);
        assert!(key.is_empty(), "k = 0 has no limbs");
    }

    #[test]
    fn random_density_is_close_to_target() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = SpikeMatrix::random(200, 200, 0.2, &mut rng);
        assert!((m.density() - 0.2).abs() < 0.02, "got {}", m.density());
    }

    #[test]
    fn transpose_roundtrip() {
        let m = paper_matrix();
        let t = m.transpose();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.cols(), 6);
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                assert_eq!(m.get(i, j), t.get(j, i));
            }
        }
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn transpose_matches_naive_across_ragged_shapes() {
        // The word-parallel block transpose must agree with the bit-at-a-time
        // reference on every limb-boundary alignment, including empty edges.
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        let dims = [0usize, 1, 3, 63, 64, 65, 100, 127, 128, 130];
        for &m in &dims {
            for &k in &dims {
                let s = SpikeMatrix::random(m, k, 0.35, &mut rng);
                let t = s.transpose();
                assert_eq!((t.rows(), t.cols()), (k, m), "{m}x{k}");
                let mut naive = SpikeMatrix::zeros(k, m);
                for i in 0..m {
                    for j in s.row(i).ones() {
                        naive.set(j, i, true);
                    }
                }
                assert_eq!(t, naive, "{m}x{k}");
                assert_eq!(t.transpose(), s, "{m}x{k} roundtrip");
            }
        }
    }

    #[test]
    fn transpose_into_reuses_buffer() {
        let m = paper_matrix();
        let mut t = SpikeMatrix::zeros(9, 9); // stale shape and contents
        t.set(0, 0, true);
        m.transpose_into(&mut t);
        assert_eq!(t, m.transpose());
        // Matching width: reset clears rows in place, result stays correct.
        m.transpose_into(&mut t);
        assert_eq!(t, m.transpose());
    }

    #[test]
    fn reset_clears_and_reshapes() {
        let mut m = paper_matrix();
        m.reset(3, 4);
        assert_eq!((m.rows(), m.cols()), (3, 4));
        assert_eq!(m.total_spikes(), 0);
        m.reset(2, 7);
        assert_eq!((m.rows(), m.cols()), (2, 7));
        assert_eq!(m.total_spikes(), 0);
    }

    #[test]
    fn vconcat_stacks_time_steps() {
        let a = paper_matrix();
        let b = paper_matrix();
        let c = SpikeMatrix::vconcat(&[a.clone(), b]);
        assert_eq!(c.rows(), 12);
        assert_eq!(c.row(6), a.row(0));
    }

    #[test]
    #[should_panic(expected = "column mismatch")]
    fn vconcat_rejects_mismatched_cols() {
        let a = SpikeMatrix::zeros(1, 3);
        let b = SpikeMatrix::zeros(1, 4);
        let _ = SpikeMatrix::vconcat(&[a, b]);
    }

    #[test]
    #[should_panic(expected = "row 1 has length")]
    fn from_rows_rejects_ragged() {
        let _ = SpikeMatrix::from_rows(vec![BitRow::zeros(3), BitRow::zeros(4)]);
    }
}
