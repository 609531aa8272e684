//! Whole-GeMM ProSparsity planning: meta information per tile
//! (paper Fig. 3 (d) and Sec. V).
//!
//! A [`ProSparsityPlan`] runs Detector → Pruner → Dispatcher over every
//! `m × k` tile of a spike matrix and records the *meta information* the
//! hardware would hold in its product-sparsity table: per row the prefix
//! index and ProSparsity pattern (spatial info), plus the sorted execution
//! order (temporal info).
//!
//! # Performance
//!
//! Planning is the first hot path of the software pipeline, so the builder
//! fuses the Detector and Pruner into a word-parallel kernel instead of
//! materializing the staged subset-candidate lists
//! ([`crate::detect::detect_tile`]) and reducing them
//! ([`crate::prune::prune_tile`]):
//!
//! * the tile is transposed once into per-column **row masks** (bit `j` of
//!   mask `c` ⇔ row `j` spikes at column `c`);
//! * for each candidate prefix `j`, the rows containing `j` (its *supersets*)
//!   are the intersection of the masks of `j`'s one-columns — 64 rows per
//!   word, with early exit as soon as the intersection collapses to `{j}`
//!   (after two or three columns on weakly correlated data);
//! * candidates are processed in ascending `(popcount, index)` — the
//!   Pruner's argmax key — and scattered onto their supersets, so the last
//!   valid writer of each row *is* the Pruner's selected prefix.
//!
//! The Dispatcher's bitonic network statistics are data-independent, so the
//! builder takes them from [`BitonicSorter::model`] and orders rows with a
//! stable sort. Tile extraction reuses one scratch [`SpikeMatrix`] per worker
//! ([`SpikeMatrix::submatrix_into`]), and independent tiles are planned
//! across threads. The staged `detect_tile`/`prune_tile` functions remain
//! the property-test oracle for this fused path.

use crate::forest::ProSparsityForest;
use crate::order::BitonicSorter;
use crate::prune::{MatchKind, PrunedRow};
use crate::stats::ProStats;
use spikemat::{BitRow, SpikeMatrix, TileShape};
use std::ops::Range;

/// Spatial meta information for one row of a tile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowMeta {
    /// Prefix row index *within the tile*, if any.
    pub prefix: Option<usize>,
    /// Relationship to the prefix.
    pub kind: MatchKind,
    /// ProSparsity pattern: the bits still to accumulate.
    pub pattern: BitRow,
}

impl RowMeta {
    /// Accumulations this row performs per output column.
    pub fn ops(&self) -> usize {
        self.pattern.popcount()
    }
}

/// Meta information for one `m × k` tile.
#[derive(Debug, Clone)]
pub struct TileMeta {
    /// First source row covered by the tile.
    pub row_start: usize,
    /// First source column covered by the tile.
    pub col_start: usize,
    /// Valid (non-padding) rows in the tile.
    pub valid_rows: usize,
    /// Valid (non-padding) columns in the tile.
    pub valid_cols: usize,
    /// Per-row spatial info, indexed by tile-local row.
    pub rows: Vec<RowMeta>,
    /// All rows' ProSparsity patterns packed contiguously,
    /// [`TileMeta::pattern_words`] limbs per row — the executor's
    /// cache-friendly view of the per-row [`RowMeta::pattern`]s.
    pub pattern_limbs: Vec<u64>,
    /// Temporal info: tile-local row indices in execution order.
    pub order: Vec<usize>,
    /// Latency of the bitonic sorting network that produced `order`, in
    /// comparator stages.
    pub sorter_stages: usize,
}

impl TileMeta {
    /// The meta of a zero-row, zero-column tile: no rows, no patterns, no
    /// order. Allocation-free — the plan cache parks this in freed slots so
    /// evicted payloads drop immediately, and every shard of a sharded
    /// cache can hold its own placeholder without planning anything.
    pub fn empty() -> Self {
        Self {
            row_start: 0,
            col_start: 0,
            valid_rows: 0,
            valid_cols: 0,
            rows: Vec::new(),
            pattern_limbs: Vec::new(),
            order: Vec::new(),
            sorter_stages: 0,
        }
    }

    /// Builds meta information for one padded tile.
    pub fn build(tile: &SpikeMatrix, row_start: usize, col_start: usize) -> Self {
        let (meta, _) = build_tile_meta(tile, row_start, col_start, &mut PlanScratch::default());
        meta
    }

    /// [`TileMeta::build`] with caller-owned scratch buffers: returns the
    /// meta plus the tile's spike-bit count. Repeated planning through one
    /// [`PlanScratch`] reuses the transpose blocks, column masks, and
    /// superset accumulators, allocating only for the meta it emits. This is
    /// the entry point the execution engine's plan cache fills misses
    /// through.
    pub fn build_with(
        tile: &SpikeMatrix,
        row_start: usize,
        col_start: usize,
        scratch: &mut PlanScratch,
    ) -> (Self, u64) {
        build_tile_meta(tile, row_start, col_start, scratch)
    }

    /// Limbs per row in [`TileMeta::pattern_limbs`] (every pattern spans the
    /// full padded tile width).
    pub fn pattern_words(&self) -> usize {
        self.rows
            .first()
            .map_or(0, |r| r.pattern.len().div_ceil(64))
    }

    /// The ProSparsity forest induced by this tile's prefixes.
    pub fn forest(&self) -> ProSparsityForest {
        let pruned: Vec<PrunedRow> = self
            .rows
            .iter()
            .map(|r| PrunedRow {
                prefix: r.prefix,
                kind: r.kind,
                pattern: r.pattern.clone(),
            })
            .collect();
        ProSparsityForest::from_pruned(&pruned)
    }

    /// Statistics for this tile, counting only valid (non-padding) cells.
    pub fn stats(&self, spike_bits: u64) -> ProStats {
        let mut s = ProStats {
            dense_ops: (self.valid_rows * self.valid_cols) as u64,
            bit_ops: spike_bits,
            ..ProStats::default()
        };
        for (i, r) in self.rows.iter().enumerate() {
            // Padding rows are all-zero: no prefix, no pattern bits. They are
            // excluded from row counts but harmless in op counts.
            if i >= self.valid_rows {
                continue;
            }
            s.rows += 1;
            s.pro_ops += r.ops() as u64;
            match r.kind {
                MatchKind::None => s.root_rows += 1,
                MatchKind::Partial => s.pm_rows += 1,
                MatchKind::Exact => s.em_rows += 1,
            }
        }
        s
    }
}

/// Reusable buffers for the fused tile planner; one per worker thread, so a
/// steady-state planning sweep allocates only for the plan it emits.
///
/// Thread one instance through [`ProSparsityPlan::build_tiled_with`] or
/// [`TileMeta::build_with`] to keep repeated planning (e.g. across the
/// timesteps of a model trace) free of transient allocation; the engine's
/// plan cache owns one for exactly this purpose.
#[derive(Debug, Default)]
pub struct PlanScratch {
    /// Scratch tile extracted from the source matrix.
    tile: SpikeMatrix,
    /// NO vector of the current tile.
    popcounts: Vec<usize>,
    /// Transposed tile: per column, an m-bit mask of the rows spiking there.
    col_masks: Vec<u64>,
    /// Superset accumulator for the current candidate, as an m-bit mask.
    supersets: Vec<u64>,
    /// Selected prefix per row (`usize::MAX` = none), in argmax order.
    best: Vec<usize>,
}

impl PlanScratch {
    /// Creates an empty scratch; buffers grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Fused Detector + Pruner + Dispatcher for one padded tile.
///
/// Returns the tile meta plus the tile's spike-bit count (reused for stats).
/// See the module docs for the word-parallel candidate-mask scheme.
fn build_tile_meta(
    tile: &SpikeMatrix,
    row_start: usize,
    col_start: usize,
    scratch: &mut PlanScratch,
) -> (TileMeta, u64) {
    let rows = tile.row_slice();
    let m = rows.len();
    let k = tile.cols();
    let mask_words = m.div_ceil(64);
    let PlanScratch {
        popcounts,
        col_masks,
        supersets,
        best,
        ..
    } = scratch;

    popcounts.clear();
    popcounts.extend(rows.iter().map(BitRow::popcount));
    let spike_bits: u64 = popcounts.iter().map(|&p| p as u64).sum();
    // (popcount, index) keys make the unstable sort equivalent to the
    // Dispatcher's stable sort by popcount, without a merge-sort temp buffer.
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_unstable_by_key(|&i| (popcounts[i], i));
    debug_assert_eq!(order, crate::order::sorted_order(popcounts));
    let sorter = BitonicSorter::model(m);

    // Transpose the tile into column→row-set masks, one 64×64 bit block at
    // a time (word-parallel; ~6·32 word ops per block instead of a bit-by-
    // bit scatter). Columns are padded to whole blocks so every block store
    // is unconditional; masks past column k are simply never consulted.
    let col_words = k.div_ceil(64);
    col_masks.clear();
    col_masks.resize(col_words * 64 * mask_words, 0);
    let mut block = [0u64; 64];
    for row_block in 0..mask_words {
        for col_block in 0..col_words {
            spikemat::bitops::gather_block(rows, row_block, col_block, &mut block);
            spikemat::bitops::transpose64(&mut block);
            for (c, &limb) in block.iter().enumerate() {
                col_masks[(col_block * 64 + c) * mask_words + row_block] = limb;
            }
        }
    }

    // Scatter candidates onto their supersets in ascending (popcount, index)
    // order — the Pruner's argmax key — so the last valid write into
    // `best[i]` is exactly the staged pipeline's selected prefix.
    best.clear();
    best.resize(m, usize::MAX);
    for &j in &order {
        let pc_j = popcounts[j];
        if pc_j == 0 {
            continue; // zero rows are never prefixes
        }
        // supersets(j) = ⋂ over j's one-columns of that column's row mask.
        let (self_word, self_bit) = (j / 64, 1u64 << (j % 64));
        let mut ones = rows[j].ones();
        let first = ones.next().expect("pc_j > 0");
        supersets.clear();
        supersets.extend_from_slice(&col_masks[first * mask_words..(first + 1) * mask_words]);
        for c in ones {
            let mask = &col_masks[c * mask_words..(c + 1) * mask_words];
            if spikemat::simd::intersect_fold(supersets, mask, self_word, self_bit) == 0 {
                break; // only j itself survives; no supersets to scatter to
            }
        }
        for (w, &bits) in supersets.iter().enumerate() {
            let mut bits = if w == self_word {
                bits & !self_bit
            } else {
                bits
            };
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // Equal popcount + subset ⇒ identical rows (Exact Match):
                // only the earlier duplicate may be the prefix.
                if pc_j == popcounts[i] && j > i {
                    continue;
                }
                best[i] = j;
            }
        }
    }

    let words_per_row = k.div_ceil(64);
    let mut pattern_limbs = Vec::with_capacity(m * words_per_row);
    let row_metas = (0..m)
        .map(|i| {
            let meta = match best[i] {
                usize::MAX => RowMeta {
                    prefix: None,
                    kind: MatchKind::None,
                    pattern: rows[i].clone(),
                },
                j => RowMeta {
                    prefix: Some(j),
                    kind: if popcounts[j] == popcounts[i] {
                        MatchKind::Exact
                    } else {
                        MatchKind::Partial
                    },
                    pattern: rows[i].xor(&rows[j]),
                },
            };
            pattern_limbs.extend_from_slice(meta.pattern.limbs());
            meta
        })
        .collect();
    (
        TileMeta {
            row_start,
            col_start,
            valid_rows: tile.rows(),
            valid_cols: tile.cols(),
            rows: row_metas,
            pattern_limbs,
            order,
            sorter_stages: sorter.stages(),
        },
        spike_bits,
    )
}

/// The complete ProSparsity meta information for one spiking GeMM.
#[derive(Debug, Clone)]
pub struct ProSparsityPlan {
    shape: TileShape,
    source_rows: usize,
    source_cols: usize,
    tiles: Vec<TileMeta>,
    stats: ProStats,
}

impl ProSparsityPlan {
    /// Plans the whole matrix as a single tile (no tiling); convenient for
    /// algorithm studies where hardware geometry is irrelevant.
    pub fn build(spikes: &SpikeMatrix) -> Self {
        let shape = TileShape::new(spikes.rows().max(1), spikes.cols().max(1));
        Self::build_tiled(spikes, shape)
    }

    /// Plans the matrix under the accelerator tile geometry `shape`.
    ///
    /// Tiles are planned independently: they are split into contiguous
    /// row-major ranges across the rayon workers (one range at one thread),
    /// each worker reusing one scratch tile buffer. The result is identical
    /// to the serial build ([`ProSparsityPlan::build_tiled_serial`]).
    pub fn build_tiled(spikes: &SpikeMatrix, shape: TileShape) -> Self {
        let (gm, gk) = shape.grid(spikes.rows(), spikes.cols());
        let n_tiles = gm * gk;
        let parts = Self::build_parts(spikes, shape, gk, n_tiles);
        let mut tiles = Vec::with_capacity(n_tiles);
        let mut stats = ProStats::default();
        for (part_tiles, part_stats) in parts {
            tiles.extend(part_tiles);
            stats += part_stats;
        }
        Self {
            shape,
            source_rows: spikes.rows(),
            source_cols: spikes.cols(),
            tiles,
            stats,
        }
    }

    /// Strictly single-threaded [`ProSparsityPlan::build_tiled`]; the
    /// baseline the parallel build is property-tested against.
    pub fn build_tiled_serial(spikes: &SpikeMatrix, shape: TileShape) -> Self {
        Self::build_tiled_with(spikes, shape, &mut PlanScratch::default())
    }

    /// [`ProSparsityPlan::build_tiled_serial`] with caller-owned scratch:
    /// repeated planning through one [`PlanScratch`] reuses the extracted
    /// tile, transpose blocks, mask buffers, and prefix accumulators, so a
    /// steady-state planning sweep allocates only for the plan it returns.
    pub fn build_tiled_with(
        spikes: &SpikeMatrix,
        shape: TileShape,
        scratch: &mut PlanScratch,
    ) -> Self {
        let (gm, gk) = shape.grid(spikes.rows(), spikes.cols());
        let n_tiles = gm * gk;
        let (tiles, stats) = build_tile_range_with(spikes, shape, gk, 0..n_tiles, scratch);
        Self {
            shape,
            source_rows: spikes.rows(),
            source_cols: spikes.cols(),
            tiles,
            stats,
        }
    }

    fn build_parts(
        spikes: &SpikeMatrix,
        shape: TileShape,
        gk: usize,
        n_tiles: usize,
    ) -> Vec<(Vec<TileMeta>, ProStats)> {
        use rayon::prelude::*;
        let workers = rayon::current_num_threads().min(n_tiles.max(1));
        if workers <= 1 {
            return vec![build_tile_range(spikes, shape, gk, 0..n_tiles)];
        }
        let per_worker = n_tiles.div_ceil(workers);
        let ranges: Vec<Range<usize>> = (0..workers)
            .map(|w| (w * per_worker).min(n_tiles)..((w + 1) * per_worker).min(n_tiles))
            .collect();
        ranges
            .into_par_iter()
            .map(|r| build_tile_range(spikes, shape, gk, r))
            .collect()
    }

    /// The tile geometry used.
    pub fn shape(&self) -> TileShape {
        self.shape
    }

    /// Source matrix dimensions `(M, K)`.
    pub fn source_dims(&self) -> (usize, usize) {
        (self.source_rows, self.source_cols)
    }

    /// Per-tile meta information in row-major tile order.
    pub fn tiles(&self) -> &[TileMeta] {
        &self.tiles
    }

    /// Aggregated statistics over all tiles.
    pub fn stats(&self) -> &ProStats {
        &self.stats
    }
}

/// Plans the row-major tile range `[range.start, range.end)` of the grid,
/// reusing one scratch tile and one popcount buffer across all of them.
fn build_tile_range(
    spikes: &SpikeMatrix,
    shape: TileShape,
    gk: usize,
    range: Range<usize>,
) -> (Vec<TileMeta>, ProStats) {
    build_tile_range_with(spikes, shape, gk, range, &mut PlanScratch::default())
}

/// [`build_tile_range`] through caller-owned scratch buffers.
fn build_tile_range_with(
    spikes: &SpikeMatrix,
    shape: TileShape,
    gk: usize,
    range: Range<usize>,
    scratch: &mut PlanScratch,
) -> (Vec<TileMeta>, ProStats) {
    let mut tiles = Vec::with_capacity(range.len());
    let mut stats = ProStats::default();
    for t in range {
        let (ti, tj) = (t / gk, t % gk);
        let row_start = ti * shape.m;
        let col_start = tj * shape.k;
        let mut tile_buf = std::mem::take(&mut scratch.tile);
        spikes.submatrix_into(row_start, col_start, shape.m, shape.k, &mut tile_buf);
        let (mut meta, spike_bits) = build_tile_meta(&tile_buf, row_start, col_start, scratch);
        scratch.tile = tile_buf;
        // Padding rows/cols are all-zero, so the whole-tile spike count above
        // already equals the valid-region count.
        meta.valid_rows = (spikes.rows() - row_start).min(shape.m);
        meta.valid_cols = (spikes.cols() - col_start).min(shape.k);
        stats += meta.stats(spike_bits);
        tiles.push(meta);
    }
    (tiles, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1_matrix() -> SpikeMatrix {
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
    fn single_tile_plan_matches_fig1() {
        let plan = ProSparsityPlan::build(&fig1_matrix());
        let s = plan.stats();
        assert_eq!(s.dense_ops, 24);
        assert_eq!(s.bit_ops, 14);
        assert_eq!(s.pro_ops, 6); // Fig. 1 (d): 6 OPs, 4× speedup over dense
        assert_eq!(s.em_rows, 1);
        assert_eq!(plan.tiles().len(), 1);
    }

    #[test]
    fn tiled_plan_covers_all_cells() {
        let m = fig1_matrix();
        let plan = ProSparsityPlan::build_tiled(&m, TileShape::new(4, 2));
        assert_eq!(plan.tiles().len(), 2 * 2);
        let s = plan.stats();
        assert_eq!(s.dense_ops, 24);
        assert_eq!(s.bit_ops, 14);
        // Smaller tiles can only keep or lose reuse, never create ops beyond
        // bit sparsity.
        assert!(s.pro_ops >= 6);
        assert!(s.pro_ops <= s.bit_ops);
        assert_eq!(s.rows, 6 * 2); // each row appears once per k-tile
    }

    #[test]
    fn tiny_tiles_degenerate_to_bit_sparsity() {
        // With m = 1 there is never a prefix candidate.
        let m = fig1_matrix();
        let plan = ProSparsityPlan::build_tiled(&m, TileShape::new(1, 4));
        assert_eq!(plan.stats().pro_ops, plan.stats().bit_ops);
        assert_eq!(plan.stats().root_rows, plan.stats().rows);
    }

    #[test]
    fn order_is_topologically_valid_per_tile() {
        use crate::order::is_valid_order;
        let m = fig1_matrix();
        for shape in [
            TileShape::new(6, 4),
            TileShape::new(3, 2),
            TileShape::new(4, 4),
        ] {
            let plan = ProSparsityPlan::build_tiled(&m, shape);
            for t in plan.tiles() {
                assert!(is_valid_order(&t.forest(), &t.order));
            }
        }
    }

    #[test]
    fn stats_row_counts_exclude_padding() {
        let m = fig1_matrix();
        let plan = ProSparsityPlan::build_tiled(&m, TileShape::new(4, 4));
        // Two row-tiles: 4 valid rows + 2 valid rows.
        assert_eq!(plan.stats().rows, 6);
    }

    #[test]
    fn fused_build_matches_staged_detect_prune_oracle() {
        use crate::detect::detect_tile;
        use crate::prune::prune_tile;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1234);
        for trial in 0..50 {
            let m = rng.gen_range(1..40);
            let k = rng.gen_range(1..30);
            let density = rng.gen_range(0.0..0.7);
            let tile = SpikeMatrix::random(m, k, density, &mut rng);
            let meta = TileMeta::build(&tile, 0, 0);
            let pruned = prune_tile(&tile, &detect_tile(&tile));
            assert_eq!(meta.rows.len(), pruned.len(), "trial {trial}");
            for (i, (got, want)) in meta.rows.iter().zip(&pruned).enumerate() {
                assert_eq!(got.prefix, want.prefix, "trial {trial} row {i}");
                assert_eq!(got.kind, want.kind, "trial {trial} row {i}");
                assert_eq!(got.pattern, want.pattern, "trial {trial} row {i}");
            }
        }
    }

    #[test]
    fn parallel_and_serial_builds_agree() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..10 {
            let m = rng.gen_range(1..70);
            let k = rng.gen_range(1..50);
            let s = SpikeMatrix::random(m, k, 0.3, &mut rng);
            let shape = TileShape::new(rng.gen_range(1..=16), rng.gen_range(1..=16));
            let par = ProSparsityPlan::build_tiled(&s, shape);
            let ser = ProSparsityPlan::build_tiled_serial(&s, shape);
            assert_eq!(par.stats(), ser.stats());
            assert_eq!(par.tiles().len(), ser.tiles().len());
            for (a, b) in par.tiles().iter().zip(ser.tiles()) {
                assert_eq!(a.row_start, b.row_start);
                assert_eq!(a.col_start, b.col_start);
                assert_eq!(a.valid_rows, b.valid_rows);
                assert_eq!(a.valid_cols, b.valid_cols);
                assert_eq!(a.rows, b.rows);
                assert_eq!(a.order, b.order);
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_builds() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut scratch = PlanScratch::new();
        // One scratch threaded through matrices of varying shapes must give
        // exactly the same plans as fresh builds.
        for _ in 0..15 {
            let m = rng.gen_range(1..60);
            let k = rng.gen_range(1..40);
            let s = SpikeMatrix::random(m, k, rng.gen_range(0.05..0.5), &mut rng);
            let shape = TileShape::new(rng.gen_range(1..=16), rng.gen_range(1..=16));
            let with = ProSparsityPlan::build_tiled_with(&s, shape, &mut scratch);
            let fresh = ProSparsityPlan::build_tiled_serial(&s, shape);
            assert_eq!(with.stats(), fresh.stats());
            for (a, b) in with.tiles().iter().zip(fresh.tiles()) {
                assert_eq!(a.rows, b.rows);
                assert_eq!(a.order, b.order);
                assert_eq!(a.pattern_limbs, b.pattern_limbs);
            }
        }
    }

    #[test]
    fn empty_meta_matches_built_empty_tile() {
        let built = TileMeta::build(&SpikeMatrix::zeros(0, 0), 0, 0);
        let empty = TileMeta::empty();
        assert_eq!(empty.rows, built.rows);
        assert_eq!(empty.order, built.order);
        assert_eq!(empty.pattern_limbs, built.pattern_limbs);
        assert_eq!(empty.pattern_words(), 0);
    }

    #[test]
    fn empty_matrix_plan() {
        let m = SpikeMatrix::zeros(0, 0);
        let plan = ProSparsityPlan::build(&m);
        assert_eq!(plan.stats().dense_ops, 0);
        assert_eq!(plan.tiles().len(), 0);
    }
}
