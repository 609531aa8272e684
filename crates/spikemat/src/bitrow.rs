//! Bit-packed spike rows.

use crate::LIMB_BITS;
use std::fmt;

/// A bit-packed binary spike row of fixed length.
///
/// A `BitRow` models one row of the binary spike matrix: bit `j` is 1 iff the
/// neuron at column `j` fired. In the paper's set notation a row `i` is the
/// spike set `S_i = { j | M[i, j] = 1 }`; subset and equality tests on
/// `BitRow`s are exactly the set relations used to define Partial Match and
/// Exact Match product sparsity.
///
/// Bits are stored LSB-first in `u64` limbs, so all set operations run in
/// O(len / 64) words.
///
/// # Invariant
///
/// Bits of the last limb above `len` are always zero. Every constructor and
/// mutator preserves this, and the word-level kernels (`window_into`,
/// `subset_query`, equality, popcount) rely on it.
///
/// # Examples
///
/// ```
/// use spikemat::BitRow;
///
/// let prefix = BitRow::from_bits(&[1, 0, 0, 1]);
/// let row = BitRow::from_bits(&[1, 1, 0, 1]);
/// assert!(prefix.is_subset_of(&row));
/// let pattern = row.xor(&prefix); // bits still to accumulate
/// assert_eq!(pattern.ones().collect::<Vec<_>>(), vec![1]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitRow {
    limbs: Vec<u64>,
    len: usize,
}

impl BitRow {
    /// Creates an all-zero row of `len` bits.
    pub fn zeros(len: usize) -> Self {
        let words = len.div_ceil(LIMB_BITS);
        Self {
            limbs: vec![0; words],
            len,
        }
    }

    /// Creates a row from a slice of 0/1 values.
    ///
    /// Any nonzero byte is treated as a spike.
    pub fn from_bits(bits: &[u8]) -> Self {
        let mut row = Self::zeros(bits.len());
        for (j, &b) in bits.iter().enumerate() {
            if b != 0 {
                row.set(j, true);
            }
        }
        row
    }

    /// Creates a row of `len` bits with spikes at the given column indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn from_ones(len: usize, ones: &[usize]) -> Self {
        let mut row = Self::zeros(len);
        for &j in ones {
            assert!(j < len, "spike index {j} out of range for row of len {len}");
            row.set(j, true);
        }
        row
    }

    /// Creates a row of `len` bits from its LSB-first limbs.
    ///
    /// Returns `None` unless `limbs` holds exactly `⌈len / 64⌉` words with
    /// no bit set at or past `len`.
    pub fn from_limbs(len: usize, limbs: &[u64]) -> Option<Self> {
        let tail = len % LIMB_BITS;
        let tail_clear = tail == 0 || limbs.last().is_some_and(|&l| l >> tail == 0);
        (limbs.len() == len.div_ceil(LIMB_BITS) && tail_clear).then(|| Self {
            limbs: limbs.to_vec(),
            len,
        })
    }

    /// Number of bit positions in the row.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the row has zero bit positions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the bit at column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.len()`.
    pub fn get(&self, j: usize) -> bool {
        assert!(j < self.len, "bit index {j} out of range ({})", self.len);
        (self.limbs[j / LIMB_BITS] >> (j % LIMB_BITS)) & 1 == 1
    }

    /// Sets the bit at column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.len()`.
    pub fn set(&mut self, j: usize, value: bool) {
        assert!(j < self.len, "bit index {j} out of range ({})", self.len);
        let mask = 1u64 << (j % LIMB_BITS);
        if value {
            self.limbs[j / LIMB_BITS] |= mask;
        } else {
            self.limbs[j / LIMB_BITS] &= !mask;
        }
    }

    /// Clears every bit, keeping the row length and allocation.
    pub fn clear(&mut self) {
        self.limbs.fill(0);
    }

    /// Number of spikes in the row (the paper's "Number of Ones", NO).
    ///
    /// This is the popcount computed by the Detector's popcount units and
    /// used as the sort key for temporal-information generation.
    pub fn popcount(&self) -> usize {
        self.limbs.iter().map(|l| l.count_ones() as usize).sum()
    }

    /// Returns `true` if the row contains no spikes.
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// Set-inclusion test: `true` iff every spike of `self` is also in `other`.
    ///
    /// This is the semantic model of the TCAM search in the Detector: querying
    /// the TCAM with `other` (1-bits masked to "don't care") returns exactly
    /// the stored entries `e` with `e.is_subset_of(other)`.
    ///
    /// Note that equality counts as inclusion (an Exact Match), and the empty
    /// row is a subset of every row.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn is_subset_of(&self, other: &Self) -> bool {
        self.check_len(other);
        self.subset_query(&other.limbs)
    }

    /// Returns `true` if the rows are a *proper* subset pair (Partial Match).
    pub fn is_proper_subset_of(&self, other: &Self) -> bool {
        self.is_subset_of(other) && self != other
    }

    /// Subset test against a raw limb view: `true` iff every spike of `self`
    /// is present in `query` (the Detector's TCAM semantics).
    ///
    /// This is the borrowed fast path of [`BitRow::is_subset_of`] for callers
    /// that already hold [`BitRow::limbs`] of the query row; it skips the
    /// length bookkeeping entirely and compares word by word.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the limb counts differ.
    #[inline]
    pub fn subset_query(&self, query: &[u64]) -> bool {
        debug_assert_eq!(self.limbs.len(), query.len(), "limb count mismatch");
        self.limbs.iter().zip(query).all(|(&a, &b)| a & !b == 0)
    }

    /// Bitwise XOR, producing the ProSparsity pattern `S_q − S_p` when
    /// `self` is the query row and `prefix ⊆ self`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn xor(&self, other: &Self) -> Self {
        self.check_len(other);
        Self {
            limbs: self
                .limbs
                .iter()
                .zip(&other.limbs)
                .map(|(&a, &b)| a ^ b)
                .collect(),
            len: self.len,
        }
    }

    /// Bitwise AND (set intersection).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn and(&self, other: &Self) -> Self {
        self.check_len(other);
        Self {
            limbs: self
                .limbs
                .iter()
                .zip(&other.limbs)
                .map(|(&a, &b)| a & b)
                .collect(),
            len: self.len,
        }
    }

    /// Bitwise OR (set union).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn or(&self, other: &Self) -> Self {
        self.check_len(other);
        Self {
            limbs: self
                .limbs
                .iter()
                .zip(&other.limbs)
                .map(|(&a, &b)| a | b)
                .collect(),
            len: self.len,
        }
    }

    /// In-place bitwise XOR: `self ^= other`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn xor_assign(&mut self, other: &Self) {
        self.check_len(other);
        for (a, &b) in self.limbs.iter_mut().zip(&other.limbs) {
            *a ^= b;
        }
    }

    /// In-place bitwise AND: `self &= other`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn and_assign(&mut self, other: &Self) {
        self.check_len(other);
        for (a, &b) in self.limbs.iter_mut().zip(&other.limbs) {
            *a &= b;
        }
    }

    /// In-place bitwise OR: `self |= other`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn or_assign(&mut self, other: &Self) {
        self.check_len(other);
        for (a, &b) in self.limbs.iter_mut().zip(&other.limbs) {
            *a |= b;
        }
    }

    /// Iterates over the column indices of 1-bits in ascending order.
    ///
    /// The ascending order matches the Processor's address decoder, which
    /// repeatedly applies bit-scan-forward and clears the found bit.
    pub fn ones(&self) -> Ones<'_> {
        Ones {
            row: self,
            word: 0,
            bits: self.limbs.first().copied().unwrap_or(0),
        }
    }

    /// Extracts the sub-row covering columns `[start, start + len)`.
    ///
    /// Columns past the end of the row read as 0, so a tile on the ragged
    /// right edge of a matrix is implicitly zero-padded.
    pub fn slice(&self, start: usize, len: usize) -> Self {
        let mut out = Self::zeros(len);
        self.slice_into(start, &mut out);
        out
    }

    /// Overwrites `out` with columns `[start, start + out.len())` of `self`,
    /// zero-padding past the end of the row. `out` keeps its length and
    /// allocation; the work is one [`BitRow::window_into`].
    pub fn slice_into(&self, start: usize, out: &mut BitRow) {
        self.window_into(start, out.len, &mut out.limbs);
    }

    /// Writes columns `[start, start + len)` of `self` into `out` as raw
    /// limbs (LSB-first, `len.div_ceil(64)` of them), zero-padding past the
    /// end of the row and masking the bits above `len`.
    ///
    /// This is the word-shift kernel behind [`BitRow::slice_into`] and
    /// [`SpikeMatrix::tile_key_into`](crate::SpikeMatrix::tile_key_into):
    /// each output limb is assembled from at most two source limbs, so
    /// extraction costs O(len / 64) instead of one get/set pair per bit.
    // analyze: hot-path
    pub fn window_into(&self, start: usize, len: usize, out: &mut [u64]) {
        debug_assert_eq!(out.len(), len.div_ceil(LIMB_BITS), "window limb count");
        let src = self.limbs.get(start / LIMB_BITS..).unwrap_or(&[]);
        let shift = start % LIMB_BITS;
        for (w, dst) in out.iter_mut().enumerate() {
            let lo = src.get(w).copied().unwrap_or(0) >> shift;
            let hi = if shift == 0 {
                0
            } else {
                src.get(w + 1).copied().unwrap_or(0) << (LIMB_BITS - shift)
            };
            *dst = lo | hi;
        }
        let tail = len % LIMB_BITS;
        if tail != 0 {
            if let Some(last) = out.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Raw limb view (LSB-first), for hashing and fast comparisons.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Mutable raw limb view for word-level writers inside this crate.
    ///
    /// Callers must uphold the invariant that bits of the last limb above
    /// `len` stay zero.
    pub(crate) fn limbs_mut(&mut self) -> &mut [u64] {
        &mut self.limbs
    }

    fn check_len(&self, other: &Self) {
        assert_eq!(
            self.len, other.len,
            "bit-row length mismatch: {} vs {}",
            self.len, other.len
        );
    }
}

impl fmt::Debug for BitRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitRow(\"")?;
        for j in 0..self.len {
            write!(f, "{}", u8::from(self.get(j)))?;
        }
        write!(f, "\")")
    }
}

/// Iterator over the 1-bit column indices of a [`BitRow`].
///
/// Created by [`BitRow::ones`].
#[derive(Debug)]
pub struct Ones<'a> {
    row: &'a BitRow,
    word: usize,
    bits: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.bits != 0 {
                let tz = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1; // clear lowest set bit
                return Some(self.word * LIMB_BITS + tz);
            }
            self.word += 1;
            if self.word >= self.row.limbs.len() {
                return None;
            }
            self.bits = self.row.limbs[self.word];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_no_spikes() {
        let r = BitRow::zeros(100);
        assert_eq!(r.len(), 100);
        assert_eq!(r.popcount(), 0);
        assert!(r.is_zero());
        assert!(!r.is_empty());
    }

    #[test]
    fn set_get_roundtrip_across_limb_boundary() {
        let mut r = BitRow::zeros(130);
        for j in [0, 1, 63, 64, 65, 127, 128, 129] {
            r.set(j, true);
            assert!(r.get(j), "bit {j} should be set");
        }
        assert_eq!(r.popcount(), 8);
        r.set(64, false);
        assert!(!r.get(64));
        assert_eq!(r.popcount(), 7);
    }

    #[test]
    fn from_bits_matches_manual_set() {
        let r = BitRow::from_bits(&[1, 0, 1, 1]);
        assert_eq!(r, BitRow::from_ones(4, &[0, 2, 3]));
    }

    #[test]
    fn from_limbs_roundtrips_and_rejects_bits_past_len() {
        let r = BitRow::from_ones(70, &[0, 63, 64, 69]);
        assert_eq!(BitRow::from_limbs(70, r.limbs()), Some(r));
        assert_eq!(BitRow::from_limbs(70, &[0, 1 << 6]), None);
        assert_eq!(BitRow::from_limbs(70, &[0]), None);
        assert_eq!(
            BitRow::from_limbs(64, &[u64::MAX]).map(|r| r.popcount()),
            Some(64)
        );
        assert_eq!(BitRow::from_limbs(0, &[]), Some(BitRow::zeros(0)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_ones_rejects_out_of_range() {
        let _ = BitRow::from_ones(4, &[4]);
    }

    #[test]
    fn subset_relations_match_paper_example() {
        // Fig. 2: Row 1 = 1001 is a proper subset of Row 4 = 1101.
        let row1 = BitRow::from_bits(&[1, 0, 0, 1]);
        let row4 = BitRow::from_bits(&[1, 1, 0, 1]);
        let row5 = row4.clone();
        assert!(row1.is_subset_of(&row4));
        assert!(row1.is_proper_subset_of(&row4));
        assert!(row4.is_subset_of(&row5)); // exact match
        assert!(!row4.is_proper_subset_of(&row5));
        assert!(!row4.is_subset_of(&row1));
    }

    #[test]
    fn empty_set_is_subset_of_everything() {
        let zero = BitRow::zeros(8);
        let any = BitRow::from_bits(&[0, 1, 0, 1, 1, 0, 0, 0]);
        assert!(zero.is_subset_of(&any));
        assert!(zero.is_subset_of(&zero));
    }

    #[test]
    fn xor_yields_prosparsity_pattern() {
        // Paper Sec. V-C: 1011 XOR 1001 = 0010.
        let query = BitRow::from_bits(&[1, 0, 1, 1]);
        let prefix = BitRow::from_bits(&[1, 0, 0, 1]);
        assert_eq!(query.xor(&prefix), BitRow::from_bits(&[0, 0, 1, 0]));
    }

    #[test]
    fn ones_iterates_ascending() {
        let r = BitRow::from_ones(200, &[5, 63, 64, 150, 199]);
        assert_eq!(r.ones().collect::<Vec<_>>(), vec![5, 63, 64, 150, 199]);
    }

    #[test]
    fn ones_on_zero_row_is_empty() {
        assert_eq!(BitRow::zeros(77).ones().count(), 0);
    }

    #[test]
    fn slice_zero_pads_past_end() {
        let r = BitRow::from_ones(10, &[8, 9]);
        let s = r.slice(8, 4);
        assert_eq!(s, BitRow::from_bits(&[1, 1, 0, 0]));
    }

    #[test]
    fn slice_matches_bitwise_reference_across_offsets() {
        // Word-shift slicing (`slice`, `slice_into` and the `window_into`
        // kernel under both) must agree with a bit-by-bit reference for
        // every (start, len) alignment around limb boundaries, whatever
        // stale bits the destination held.
        let src = BitRow::from_ones(200, &[0, 1, 5, 63, 64, 65, 127, 128, 150, 198, 199]);
        for start in [0, 1, 7, 63, 64, 65, 100, 128, 190, 199, 200, 260] {
            for len in [0, 1, 3, 63, 64, 65, 130, 200] {
                let mut expect = BitRow::zeros(len);
                for j in (0..len).filter(|&j| start + j < src.len() && src.get(start + j)) {
                    expect.set(j, true);
                }
                assert_eq!(src.slice(start, len), expect, "start={start} len={len}");
                let mut sliced = BitRow::from_ones(len, &(0..len).collect::<Vec<_>>());
                src.slice_into(start, &mut sliced);
                assert_eq!(sliced, expect, "start={start} len={len}");
                let mut window = vec![u64::MAX; len.div_ceil(LIMB_BITS)];
                src.window_into(start, len, &mut window);
                assert_eq!(window, expect.limbs(), "start={start} len={len}");
            }
        }
    }

    #[test]
    fn slice_into_reuses_and_masks_tail() {
        let src = BitRow::from_ones(100, &[64, 65, 66, 99]);
        let mut out = BitRow::from_ones(5, &[0, 1, 2, 3, 4]); // stale bits
        src.slice_into(64, &mut out);
        assert_eq!(out, BitRow::from_bits(&[1, 1, 1, 0, 0]));
        // The tail bits above len must stay zero so popcount/eq stay honest.
        assert_eq!(out.popcount(), 3);
    }

    #[test]
    fn subset_query_matches_is_subset_of() {
        let a = BitRow::from_ones(130, &[0, 64, 129]);
        let b = BitRow::from_ones(130, &[0, 1, 64, 100, 129]);
        assert!(a.subset_query(b.limbs()));
        assert!(!b.subset_query(a.limbs()));
        assert!(a.subset_query(a.limbs()));
    }

    #[test]
    fn assign_ops_match_pure_ops() {
        let a = BitRow::from_ones(150, &[0, 5, 64, 100, 149]);
        let b = BitRow::from_ones(150, &[5, 64, 65, 149]);
        let mut x = a.clone();
        x.xor_assign(&b);
        assert_eq!(x, a.xor(&b));
        let mut y = a.clone();
        y.and_assign(&b);
        assert_eq!(y, a.and(&b));
        let mut z = a.clone();
        z.or_assign(&b);
        assert_eq!(z, a.or(&b));
    }

    #[test]
    fn clear_zeroes_in_place() {
        let mut r = BitRow::from_ones(90, &[0, 50, 89]);
        r.clear();
        assert!(r.is_zero());
        assert_eq!(r.len(), 90);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn assign_length_mismatch_panics() {
        let mut a = BitRow::zeros(4);
        let b = BitRow::zeros(5);
        a.xor_assign(&b);
    }

    #[test]
    fn and_or_behave_as_set_ops() {
        let a = BitRow::from_bits(&[1, 1, 0, 0]);
        let b = BitRow::from_bits(&[0, 1, 1, 0]);
        assert_eq!(a.and(&b), BitRow::from_bits(&[0, 1, 0, 0]));
        assert_eq!(a.or(&b), BitRow::from_bits(&[1, 1, 1, 0]));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let a = BitRow::zeros(4);
        let b = BitRow::zeros(5);
        let _ = a.is_subset_of(&b);
    }

    #[test]
    fn debug_renders_bits() {
        let r = BitRow::from_bits(&[1, 0, 1]);
        assert_eq!(format!("{r:?}"), "BitRow(\"101\")");
    }
}
