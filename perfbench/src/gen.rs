//! Seeded input generator owned by the benchmark.
//!
//! The workloads are defined here, not by the library's trace generators,
//! so recalibrating those cannot silently change what the benchmark
//! measures. The same seed always gives the same matrices.

use spikemat::gemm::WeightMatrix;
use spikemat::{BitRow, SpikeMatrix};

/// SplitMix64: small, fast, and fully specified by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from generators for nearby
    /// seeds by one mixing round.
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng(seed ^ 0x5EED_BE7C_4A11_0F00);
        rng.next_u64();
        rng
    }

    /// An independent generator for sub-stream `stream` of this one.
    pub fn fork(&mut self, stream: u64) -> Self {
        Rng::new(self.next_u64() ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// A row of `cols` bits, each set with probability `density`.
pub fn random_row(rng: &mut Rng, cols: usize, density: f64) -> BitRow {
    let ones: Vec<usize> = (0..cols).filter(|_| rng.chance(density)).collect();
    BitRow::from_ones(cols, &ones)
}

/// A `rows × cols` matrix of independent bits.
pub fn random_matrix(rng: &mut Rng, rows: usize, cols: usize, density: f64) -> SpikeMatrix {
    SpikeMatrix::from_rows((0..rows).map(|_| random_row(rng, cols, density)).collect())
}

/// A temporally correlated stream: from one step to the next, a share
/// `1 - persistence` of the rows is re-sampled and the rest kept, so a
/// `256`-row tile repeats with probability about `persistence^256`. The
/// number of re-sampled rows is exact (fractions carry to later steps) and
/// the `j`-th re-sampled row lies in band `j mod bands` of `band_rows`
/// rows (a row-tile); only its row within the band is random. So the
/// stream's count of distinct tiles, and with it the plan cache's work,
/// does not depend on the seed.
pub fn persistent_stream(
    rng: &mut Rng,
    steps: usize,
    rows: usize,
    cols: usize,
    density: f64,
    persistence: f64,
    band_rows: usize,
) -> Vec<SpikeMatrix> {
    let mut out: Vec<SpikeMatrix> = Vec::with_capacity(steps);
    let mut current: Vec<BitRow> = (0..rows).map(|_| random_row(rng, cols, density)).collect();
    let band_rows = band_rows.clamp(1, rows.max(1));
    let bands = rows.div_ceil(band_rows);
    let mut due = 0.0;
    let mut changed = 0usize;
    for step in 0..steps {
        if step > 0 && rows > 0 {
            due += rows as f64 * (1.0 - persistence);
            while due >= 1.0 {
                due -= 1.0;
                let start = (changed % bands) * band_rows;
                let len = band_rows.min(rows - start);
                let row = start + rng.below(len as u64) as usize;
                current[row] = random_row(rng, cols, density);
                changed += 1;
            }
        }
        out.push(SpikeMatrix::from_rows(current.clone()));
    }
    out
}

/// A stream cross-correlated with `base`: exactly `diverged` rows are
/// sampled independently, at step 0 and whenever the base row changes;
/// every other row copies the base. The `j`-th diverged row lies in band
/// `j mod bands` of `band_rows` rows, at a random row within it. The
/// derived stream is therefore exactly as persistent as the base, and
/// shares every tile without a diverged row with it (and with other
/// streams derived from it).
pub fn derived_stream(
    rng: &mut Rng,
    base: &[SpikeMatrix],
    density: f64,
    diverged: usize,
    band_rows: usize,
) -> Vec<SpikeMatrix> {
    let mut out: Vec<SpikeMatrix> = Vec::with_capacity(base.len());
    let Some(first) = base.first() else {
        return out;
    };
    let (rows, cols) = (first.rows(), first.cols());
    let band_rows = band_rows.clamp(1, rows.max(1));
    let bands = rows.div_ceil(band_rows);
    let mut own = vec![false; rows];
    let mut placed = 0usize;
    while placed < diverged.min(rows) {
        let start = (placed % bands) * band_rows;
        let len = band_rows.min(rows - start);
        let row = start + rng.below(len as u64) as usize;
        if !own[row] {
            own[row] = true;
            placed += 1;
        }
    }
    let mut current: Vec<BitRow> = first.row_slice().to_vec();
    for (i, row) in current.iter_mut().enumerate() {
        if own[i] {
            *row = random_row(rng, cols, density);
        }
    }
    out.push(SpikeMatrix::from_rows(current.clone()));
    for pair in base.windows(2) {
        let (prev, next) = (&pair[0], &pair[1]);
        for (i, row) in current.iter_mut().enumerate() {
            if next.row(i) != prev.row(i) {
                *row = if own[i] {
                    random_row(rng, cols, density)
                } else {
                    next.row(i).clone()
                };
            }
        }
        out.push(SpikeMatrix::from_rows(current.clone()));
    }
    out
}

/// A `k × n` weight matrix of small signed integers in `-127..=127`.
pub fn weights(rng: &mut Rng, k: usize, n: usize) -> WeightMatrix<i64> {
    WeightMatrix::from_fn(k, n, |_, _| rng.below(255) as i64 - 127)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a = persistent_stream(&mut Rng::new(7), 4, 32, 16, 0.3, 0.9, 8);
        let b = persistent_stream(&mut Rng::new(7), 4, 32, 16, 0.3, 0.9, 8);
        let c = persistent_stream(&mut Rng::new(8), 4, 32, 16, 0.3, 0.9, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn persistence_and_divergence_shape_the_streams() {
        let mut rng = Rng::new(1);
        let base = persistent_stream(&mut rng, 6, 64, 16, 0.3, 1.0, 16);
        assert!(base.windows(2).all(|w| w[0] == w[1]));
        let same = derived_stream(&mut rng, &base, 0.3, 0, 16);
        assert_eq!(same, base);
        let one = derived_stream(&mut rng, &base, 0.3, 1, 16);
        let differing = (0..64).filter(|&i| one[0].row(i) != base[0].row(i)).count();
        assert!(differing <= 1, "{differing}");
        // Four re-sampled rows per step, one in each 16-row band.
        let banded = persistent_stream(&mut rng, 2, 64, 16, 0.3, 1.0 - 4.0 / 64.0, 16);
        let bands: Vec<usize> = (0..64)
            .filter(|&i| banded[0].row(i) != banded[1].row(i))
            .map(|i| i / 16)
            .collect();
        assert!(bands.windows(2).all(|w| w[0] < w[1]), "{bands:?}");
        let fresh = persistent_stream(&mut rng, 2, 64, 16, 0.3, 0.0, 16);
        assert_ne!(fresh[0], fresh[1]);
        let density = random_matrix(&mut rng, 256, 64, 0.3).density();
        assert!((density - 0.3).abs() < 0.03, "density {density}");
    }
}
