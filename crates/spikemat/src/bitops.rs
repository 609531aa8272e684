//! Word-parallel bit-matrix kernels shared by the planner and substrates.

use crate::bitrow::BitRow;

/// Gathers the 64×64 bit block at `(row_block, col_block)` of `rows` into
/// `block`, zero-padding past the matrix edge — the row-major input layout
/// [`transpose64`] expects.
pub fn gather_block(rows: &[BitRow], row_block: usize, col_block: usize, block: &mut [u64; 64]) {
    for (r, limb) in block.iter_mut().enumerate() {
        let row = row_block * 64 + r;
        *limb = if row < rows.len() {
            rows[row].limbs().get(col_block).copied().unwrap_or(0)
        } else {
            0
        };
    }
}

/// Transposes a 64×64 bit matrix in place.
///
/// `a[r]` holds row `r`, LSB-first (bit `c` ⇔ column `c`); on return
/// `a[c]` holds the original column `c` (bit `r` ⇔ original row `r`).
///
/// Classic block-swap network (Hacker's Delight §7-3): log₂64 rounds of
/// exchanging off-diagonal sub-blocks, so the whole transpose costs
/// ~6 × 32 word operations instead of 64 × 64 single-bit moves. Each
/// round swaps contiguous runs of limbs, which the compiler vectorizes.
#[inline]
pub fn transpose64(a: &mut [u64; 64]) {
    round::<32>(a, 0x0000_0000_FFFF_FFFF);
    round::<16>(a, 0x0000_FFFF_0000_FFFF);
    round::<8>(a, 0x00FF_00FF_00FF_00FF);
    round::<4>(a, 0x0F0F_0F0F_0F0F_0F0F);
    round::<2>(a, 0x3333_3333_3333_3333);
    round::<1>(a, 0x5555_5555_5555_5555);
}

/// One swap round at distance `J`: in every `2J`-limb chunk, the bits of
/// the low half selected by `mask << J` trade places with the bits of the
/// high half selected by `mask`.
#[inline(always)]
fn round<const J: usize>(a: &mut [u64; 64], mask: u64) {
    for chunk in a.chunks_exact_mut(2 * J) {
        let (lo, hi) = chunk.split_at_mut(J);
        for (x, y) in lo.iter_mut().zip(hi) {
            let t = ((*x >> J) ^ *y) & mask;
            *x ^= t << J;
            *y ^= t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_transpose(a: &[u64; 64]) -> [u64; 64] {
        let mut out = [0u64; 64];
        for (r, &row) in a.iter().enumerate() {
            for (c, dst) in out.iter_mut().enumerate() {
                if (row >> c) & 1 == 1 {
                    *dst |= 1u64 << r;
                }
            }
        }
        out
    }

    #[test]
    fn transpose_matches_naive_on_patterns() {
        // A mix of structured and pseudo-random patterns.
        let mut cases: Vec<[u64; 64]> = vec![[0u64; 64], [u64::MAX; 64]];
        let mut diag = [0u64; 64];
        let mut rows = [0u64; 64];
        let mut state = 0x0123_4567_89AB_CDEFu64;
        let mut random = [0u64; 64];
        for i in 0..64 {
            diag[i] = 1u64 << i;
            rows[i] = if i % 3 == 0 { u64::MAX } else { 0 };
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            random[i] = state ^ (state >> 31);
        }
        cases.push(diag);
        cases.push(rows);
        cases.push(random);
        for case in cases {
            let mut got = case;
            transpose64(&mut got);
            assert_eq!(got, naive_transpose(&case));
        }
    }

    #[test]
    fn transpose_is_involution() {
        let mut a = [0u64; 64];
        let mut state = 42u64;
        for limb in a.iter_mut() {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            *limb = state;
        }
        let original = a;
        transpose64(&mut a);
        transpose64(&mut a);
        assert_eq!(a, original);
    }
}
