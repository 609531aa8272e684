//! Spiking attention on the PPU (paper Sec. IV, "Support for Transformers").
//!
//! Spiking self-attention multiplies *binary* matrices: `Q·Kᵀ` is a spike
//! matrix times a spike matrix, and `attn·V` likewise. Both are
//! "spiking-GeMM-like" and are executed on the same ProSparsity pipeline by
//! treating one binary operand as a 0/1 integer weight matrix — which is why
//! Prosperity supports spiking transformers that prior SNN ASICs cannot.

use crate::engine::Session;
use crate::exec::prosparsity_gemm;
use spikemat::gemm::{OutputMatrix, WeightMatrix};
use spikemat::{SpikeMatrix, TileShape};

/// Lowers a binary spike matrix into a 0/1 integer weight matrix so it can
/// serve as the stationary operand of a spiking GeMM.
pub fn spikes_as_weights(spikes: &SpikeMatrix) -> WeightMatrix<i64> {
    WeightMatrix::from_fn(spikes.rows(), spikes.cols(), |r, c| {
        i64::from(spikes.get(r, c))
    })
}

/// Computes the spiking attention score matrix `Q · Kᵀ` under product
/// sparsity.
///
/// `q` is `(T·L) × d` and `k` is `L × d` (key vectors per position); the
/// result is the `(T·L) × L` integer score matrix. Exact: binary × binary
/// products are integer dot products, so ProSparsity reuse is lossless.
///
/// # Panics
///
/// Panics if the head dimensions of `q` and `k` differ.
pub fn spiking_qk(q: &SpikeMatrix, k: &SpikeMatrix, tile: TileShape) -> OutputMatrix<i64> {
    assert_eq!(q.cols(), k.cols(), "Q and K head dimensions differ");
    let kt = k.transpose(); // d × L
    prosparsity_gemm(q, &spikes_as_weights(&kt), tile)
}

/// Computes `attn · V` for *binary* attention maps (spike-driven attention):
/// the binarized score matrix selects and accumulates value rows.
pub fn spiking_av(
    attn: &SpikeMatrix,
    values: &WeightMatrix<i64>,
    tile: TileShape,
) -> OutputMatrix<i64> {
    prosparsity_gemm(attn, values, tile)
}

/// Lowers a key matrix once for repeated [`spiking_qk_prelowered`] calls:
/// `Kᵀ` as a 0/1 weight matrix (`d × L`).
pub fn lower_keys(k: &SpikeMatrix) -> WeightMatrix<i64> {
    spikes_as_weights(&k.transpose())
}

/// [`spiking_qk`] through a reusable [`Session`]: the score GeMM goes via the
/// tile plan cache and pooled output buffer, so repeated attention heads and
/// timesteps (whose query tiles are temporally correlated) skip re-planning.
/// The tile geometry comes from the engine's configuration.
///
/// This re-lowers `k` on every call for parity with [`spiking_qk`]; a
/// serving loop whose keys are fixed across timesteps should [`lower_keys`]
/// once and call [`spiking_qk_prelowered`] so the steady state stays
/// allocation-free.
///
/// # Panics
///
/// Panics if the head dimensions of `q` and `k` differ.
pub fn spiking_qk_with(
    engine: &mut Session<i64>,
    q: &SpikeMatrix,
    k: &SpikeMatrix,
    out: &mut OutputMatrix<i64>,
) {
    assert_eq!(q.cols(), k.cols(), "Q and K head dimensions differ");
    spiking_qk_prelowered(engine, q, &lower_keys(k), out);
}

/// [`spiking_qk_with`] with keys already lowered by [`lower_keys`] — the
/// zero-steady-state-allocation attention path for constant-key streams.
pub fn spiking_qk_prelowered(
    engine: &mut Session<i64>,
    q: &SpikeMatrix,
    kt_weights: &WeightMatrix<i64>,
    out: &mut OutputMatrix<i64>,
) {
    engine.gemm_into(q, kt_weights, out);
}

/// [`spiking_av`] through a reusable [`Session`] (cached plans + pooled
/// output); binary attention maps across timesteps are highly repetitive,
/// which is exactly what the tile cache exploits.
pub fn spiking_av_with(
    engine: &mut Session<i64>,
    attn: &SpikeMatrix,
    values: &WeightMatrix<i64>,
    out: &mut OutputMatrix<i64>,
) {
    engine.gemm_into(attn, values, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use spikemat::gemm::spiking_gemm;

    fn q_matrix() -> SpikeMatrix {
        SpikeMatrix::from_rows_of_bits(&[
            &[1, 0, 1, 0],
            &[1, 0, 0, 1],
            &[1, 0, 1, 1],
            &[1, 0, 1, 0], // duplicate of row 0 → EM reuse in attention
        ])
    }

    fn k_matrix() -> SpikeMatrix {
        SpikeMatrix::from_rows_of_bits(&[&[1, 1, 0, 0], &[0, 0, 1, 1], &[1, 0, 1, 0]])
    }

    #[test]
    fn qk_scores_are_set_intersections() {
        let scores = spiking_qk(&q_matrix(), &k_matrix(), TileShape::new(4, 4));
        // score[i][j] = |S_qi ∩ S_kj|.
        let q = q_matrix();
        let k = k_matrix();
        for i in 0..q.rows() {
            for j in 0..k.rows() {
                let expect = q.row(i).and(k.row(j)).popcount() as i64;
                assert_eq!(scores.get(i, j), expect, "({i},{j})");
            }
        }
    }

    #[test]
    fn qk_matches_reference_gemm() {
        let q = q_matrix();
        let k = k_matrix();
        let kt = k.transpose();
        let w = spikes_as_weights(&kt);
        assert_eq!(
            spiking_qk(&q, &k, TileShape::new(2, 2)),
            spiking_gemm(&q, &w)
        );
    }

    #[test]
    fn duplicate_queries_share_score_rows() {
        let scores = spiking_qk(&q_matrix(), &k_matrix(), TileShape::new(4, 4));
        assert_eq!(scores.row(0), scores.row(3));
    }

    #[test]
    fn av_accumulates_selected_values() {
        let attn = SpikeMatrix::from_rows_of_bits(&[&[1, 0, 1], &[0, 1, 0]]);
        let v = WeightMatrix::from_vec(3, 2, vec![1, 2, 10, 20, 100, 200]);
        let out = spiking_av(&attn, &v, TileShape::new(2, 3));
        assert_eq!(out.row(0), &[101, 202]);
        assert_eq!(out.row(1), &[10, 20]);
    }

    #[test]
    fn engine_attention_matches_direct_lowering() {
        use crate::engine::EngineConfig;
        use spikemat::TileShape;
        let q = q_matrix();
        let k = k_matrix();
        let tile = TileShape::new(2, 2);
        let mut engine = Session::new(EngineConfig::new(tile, 32));
        let mut scores = OutputMatrix::zeros(0, 0);
        spiking_qk_with(&mut engine, &q, &k, &mut scores);
        assert_eq!(scores, spiking_qk(&q, &k, tile));
        // Binarize the scores and push them through attn·V on both paths.
        let attn =
            SpikeMatrix::from_rows_of_bits(&[&[1, 0, 1], &[0, 1, 0], &[1, 1, 0], &[1, 0, 1]]);
        let v = WeightMatrix::from_fn(3, 2, |r, c| (r * 2 + c) as i64 + 1);
        let mut av = OutputMatrix::zeros(0, 0);
        spiking_av_with(&mut engine, &attn, &v, &mut av);
        assert_eq!(av, spiking_av(&attn, &v, tile));
        // Re-running the same head is served from the cache, identically.
        let hits_before = engine.stats().cache_hits;
        let mut again = OutputMatrix::zeros(0, 0);
        spiking_qk_with(&mut engine, &q, &k, &mut again);
        assert_eq!(again, scores);
        assert!(engine.stats().cache_hits > hits_before);
    }

    #[test]
    #[should_panic(expected = "head dimensions differ")]
    fn dimension_mismatch_panics() {
        let q = SpikeMatrix::zeros(2, 4);
        let k = SpikeMatrix::zeros(2, 5);
        let _ = spiking_qk(&q, &k, TileShape::new(2, 2));
    }
}
