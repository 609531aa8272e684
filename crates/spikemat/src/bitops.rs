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
/// Dispatches to the AVX2 swap network when the `simd` feature is
/// compiled in and the CPU supports it ([`crate::simd::active`]);
/// otherwise — and as the property-tested oracle either way — runs
/// [`transpose64_scalar`]. Both produce identical bits.
#[inline]
pub fn transpose64(a: &mut [u64; 64]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if crate::simd::active() {
        // SAFETY: `active()` verified AVX2 support on this CPU.
        unsafe { crate::simd::avx2::transpose64(a) };
        return;
    }
    transpose64_scalar(a)
}

/// Portable scalar transpose — the reference semantics of [`transpose64`].
///
/// Classic block-swap network (Hacker's Delight §7-3): log₂64 rounds of
/// exchanging off-diagonal sub-blocks, so the whole transpose costs
/// ~6 × 32 word operations instead of 64 × 64 single-bit moves.
pub fn transpose64_scalar(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut mask = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & mask;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
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
            let mut scalar = case;
            transpose64_scalar(&mut scalar);
            assert_eq!(got, scalar, "routed and scalar paths must agree");
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
