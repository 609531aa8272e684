//! Whole-GeMM ProSparsity planning: meta information per tile
//! (paper Fig. 3 (d) and Sec. V).
//!
//! A [`ProSparsityPlan`] runs Detector → Pruner → Dispatcher over every
//! `m × k` tile of a spike matrix and records the *meta information* the
//! hardware would hold in its product-sparsity table: per row the prefix
//! index and ProSparsity pattern (spatial info), plus the execution order
//! (temporal info).
//!
//! # Performance
//!
//! Planning is the first hot path of the software pipeline, so the builder
//! fuses the Detector and Pruner into a word-parallel kernel instead of
//! materializing the staged subset-candidate lists
//! ([`crate::detect::detect_tile`]) and reducing them
//! ([`crate::prune::prune_tile`]):
//!
//! * the planner's one input is the tile's row-major limbs, exactly the
//!   plan-cache key [`SpikeMatrix::tile_key_into`] writes, so a cache miss
//!   plans from the key it just looked up and no tile is extracted;
//! * each row's popcount comes straight from its limbs, and the
//!   Dispatcher's execution order is a **counting sort** of the rows by
//!   popcount into `k + 1` buckets filled in index order — exactly the
//!   paper's stable sort, with no comparisons;
//! * the tile is transposed once into per-column masks in
//!   Dispatcher-position space (bit `p` of mask `c` ⇔ the row at position
//!   `p` spikes at column `c`), gathering and transposing one 64×64 bit
//!   block at a time;
//! * the Pruner **pulls**, the software form of the Detector's one TCAM
//!   query per row plus the Pruner's `(popcount, index)` argmax:
//!   Dispatcher positions ascend in that key, so a row's valid prefixes
//!   are exactly its nonzero subsets at lower positions and its prefix is
//!   the highest of them. Per 4-column group a 16-entry table holds the OR
//!   of the masks of each column subset. A row's non-subsets are the OR of
//!   one entry per group, indexed by the row's complement; masked to the
//!   nonzero positions before the row, the highest remaining bit is the
//!   prefix, taken without a branch. Masks and tables hold 256 positions
//!   (the paper's default tile height) per step, and a taller tile queries
//!   its steps in ascending order. In its own step a row reads only the
//!   mask words up to its own position's, the only ones holding
//!   candidates; in earlier steps it reads all four;
//! * the patterns are one copy of the limbs, each prefixed row XORed in
//!   place with its prefix's limbs;
//! * a tile of at most 64 columns (the paper's default 256 × 16 tile
//!   among them) runs the planner with a constant one-limb row stride in
//!   the popcount pass, the transpose gather, the per-row query and the
//!   pattern XOR; wider tiles run the same body with a runtime stride;
//! * the stored order is the **replay order**: the Dispatcher's order
//!   re-sorted stably by (forest depth, pattern popcount) with two more
//!   counting passes, so rows the executor replays back to back do the same
//!   work. A prefix is one level shallower than its row, so this order is
//!   topological too. A row's pattern popcount is its popcount minus its
//!   prefix's, since a prefix is a subset of its row. The Dispatcher's
//!   order itself is a derived view, [`TileMeta::dispatch_order`].
//!
//! A [`TileMeta`] is only the plan, so equal tiles have equal plans
//! wherever they sit. Placement is the grid's: a plan's tiles are
//! row-major, and `k`-tile `j` of a row group starts at weight row
//! `j · width`. The valid (non-padding) region is known where the tile is
//! cut, and [`TileMeta::stats`] takes it as arguments. Independent tiles
//! are planned across threads, each worker writing tile keys into its
//! [`PlanScratch`]. The staged `detect_tile`/`prune_tile` functions remain
//! the property-test oracle for this fused path.

use crate::forest::ProSparsityForest;
use crate::prune::{MatchKind, PrunedRow};
use crate::stats::ProStats;
use spikemat::{BitRow, SpikeMatrix, TileShape};
use std::ops::Range;

/// [`TileMeta::prefix`] of a row without a prefix (snapshots store it too).
pub const NO_PREFIX: u32 = u32::MAX;

/// Spatial meta information for one row of a tile, as an owned view that
/// [`TileMeta::row`] builds on demand. It has the staged Pruner's shape.
pub type RowMeta = PrunedRow;

/// Meta information for one `m × k` tile, stored flat: a prefix and a
/// packed pattern per row plus the executor's replay order. A row's [`MatchKind`]
/// is derived, never stored: no prefix means [`MatchKind::None`], an
/// all-zero pattern [`MatchKind::Exact`], anything else
/// [`MatchKind::Partial`]. The default is the allocation-free meta of a
/// zero-row, zero-column tile.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TileMeta {
    /// Padded tile column count: the bit length of every pattern.
    pub width: usize,
    /// Per tile-local row, its prefix row within the tile, or
    /// [`NO_PREFIX`].
    pub prefix: Vec<u32>,
    /// All rows' ProSparsity patterns (the bits still to accumulate),
    /// [`TileMeta::pattern_words`] limbs per row.
    pub pattern_limbs: Vec<u64>,
    /// Temporal info: tile-local row indices in the executor's replay
    /// order, the Dispatcher's order re-sorted stably by (forest depth,
    /// pattern popcount) (module docs).
    pub exec_order: Vec<u32>,
}

impl TileMeta {
    /// Builds meta information for one padded tile, planned from its key
    /// as the execution engine plans a miss.
    pub fn build(tile: &SpikeMatrix) -> Self {
        let mut key = Vec::new();
        tile.tile_key_into(0, 0, tile.rows(), tile.cols(), &mut key);
        build_tile_meta(&key, tile.rows(), tile.cols(), &mut PlanScratch::default()).0
    }

    /// Limbs per row in [`TileMeta::pattern_limbs`].
    pub fn pattern_words(&self) -> usize {
        self.width.div_ceil(64)
    }

    /// Row `i`'s packed pattern limbs.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a row of the tile.
    pub fn pattern(&self, i: usize) -> &[u64] {
        let w = self.pattern_words();
        &self.pattern_limbs[i * w..(i + 1) * w]
    }

    /// Accumulations row `i` performs per output column.
    pub fn ops(&self, i: usize) -> usize {
        self.pattern(i)
            .iter()
            .map(|l| l.count_ones() as usize)
            .sum()
    }

    /// Row `i`'s relationship to its prefix, derived as the type docs say.
    pub fn kind(&self, i: usize) -> MatchKind {
        derived_kind(self.prefix[i], self.pattern(i))
    }

    /// An owned view of row `i`.
    pub fn row(&self, i: usize) -> RowMeta {
        RowMeta {
            prefix: (self.prefix[i] != NO_PREFIX).then_some(self.prefix[i] as usize),
            kind: self.kind(i),
            pattern: BitRow::from_limbs(self.width, self.pattern(i))
                .expect("patterns carry no bits past the tile width"),
        }
    }

    /// Owned views of every row, padding included.
    pub fn rows(&self) -> impl Iterator<Item = RowMeta> + '_ {
        (0..self.prefix.len()).map(|i| self.row(i))
    }

    /// The Dispatcher's order (paper Sec. V-D): rows stably sorted by
    /// popcount. Derived on demand, since the plan stores only the replay
    /// order.
    pub fn dispatch_order(&self) -> Vec<u32> {
        let mut bufs = OrderBufs::default();
        self.dispatch_order_into(&mut bufs);
        bufs.dispatch
    }

    /// [`TileMeta::dispatch_order`] in caller-owned buffers, so warm ones
    /// derive it without allocating. Row popcounts are the pattern's plus
    /// the prefix's, summed down the forest in `exec_order`, which visits
    /// every prefix before its rows.
    pub(crate) fn dispatch_order_into<'a>(&self, bufs: &'a mut OrderBufs) -> &'a [u32] {
        let OrderBufs {
            popcounts,
            dispatch,
            buckets,
            ..
        } = bufs;
        popcounts.clear();
        popcounts.resize(self.prefix.len(), 0);
        let mut keys = 0;
        for &r in &self.exec_order {
            let r = r as usize;
            let seed = popcounts.get(self.prefix[r] as usize).copied().unwrap_or(0);
            popcounts[r] = seed + self.ops(r);
            keys = keys.max(popcounts[r] + 1);
        }
        counting_pass(
            0..self.prefix.len() as u32,
            |r| popcounts[r],
            keys,
            buckets,
            dispatch,
        );
        dispatch
    }

    /// Snapshot decode's step from a stored order to the plan's: with
    /// `exec_order` holding a topological order read from a file, names
    /// the corrupt field if it is not the Dispatcher's order or a zero row
    /// is a prefix, and otherwise replaces it with the replay order.
    pub(crate) fn replay_stored_dispatch_order(&mut self) -> Result<(), &'static str> {
        let mut bufs = OrderBufs::default();
        if self.dispatch_order_into(&mut bufs) != self.exec_order.as_slice() {
            return Err("execution order");
        }
        // The executor skips zero rows, so none may be a prefix.
        if self
            .prefix
            .iter()
            .any(|&p| bufs.popcounts.get(p as usize) == Some(&0))
        {
            return Err("row prefix");
        }
        let op_keys = bufs.popcounts.iter().max().map_or(0, |&p| p + 1);
        self.exec_order = replay_order(&self.prefix, op_keys, &mut bufs);
        Ok(())
    }

    /// The ProSparsity forest induced by this tile's prefixes.
    pub fn forest(&self) -> ProSparsityForest {
        ProSparsityForest::from_pruned(&self.rows().collect::<Vec<_>>())
    }

    /// Statistics for this tile, counting only the valid (non-padding)
    /// `valid_rows × valid_cols` region, which the caller knows from where
    /// it cut the tile.
    pub fn stats(&self, valid_rows: usize, valid_cols: usize, spike_bits: u64) -> ProStats {
        let mut s = ProStats {
            dense_ops: (valid_rows * valid_cols) as u64,
            bit_ops: spike_bits,
            rows: valid_rows as u64,
            ..ProStats::default()
        };
        // Padding rows are all-zero with no prefix: excluded from row
        // counts, and they add no ops.
        for i in 0..valid_rows {
            s.pro_ops += self.ops(i) as u64;
            match self.kind(i) {
                MatchKind::None => s.root_rows += 1,
                MatchKind::Partial => s.pm_rows += 1,
                MatchKind::Exact => s.em_rows += 1,
            }
        }
        s
    }
}

/// The [`MatchKind`] of a row with `prefix` and packed `pattern`.
pub(crate) fn derived_kind(prefix: u32, pattern: &[u64]) -> MatchKind {
    match prefix {
        NO_PREFIX => MatchKind::None,
        _ if pattern.iter().all(|&l| l == 0) => MatchKind::Exact,
        _ => MatchKind::Partial,
    }
}

/// Reusable buffers for the fused tile planner; one per worker thread, so a
/// steady-state planning sweep allocates only for the plan it emits.
///
/// Thread one instance through [`ProSparsityPlan::build_tiled_with`] to
/// keep repeated planning (e.g. across the timesteps of a model trace) free
/// of transient allocation; each engine `Session` owns one for exactly this
/// purpose. Buffers are sized by the
/// tile, not by the row stride the planner runs with, so tiles of any
/// width share one instance.
#[derive(Debug, Default)]
pub struct PlanScratch {
    /// The current tile's row-major limbs (its plan-cache key).
    key: Vec<u64>,
    /// The current tile's popcounts and orders.
    orders: OrderBufs,
    /// Transposed tile: per column, an m-bit mask of the Dispatcher
    /// positions spiking there (see [`transpose`]).
    col_masks: Vec<Step>,
    /// The Pruner's subset OR tables (see [`prune`]).
    subset_tables: Vec<Table>,
    /// The Pruner's position→row lookup, [`NO_PREFIX`] at slot 0.
    position_row: Vec<u32>,
}

impl PlanScratch {
    /// Creates an empty scratch; buffers grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Buffers of the counting passes behind a tile's Dispatcher and replay
/// orders.
#[derive(Debug, Default)]
pub(crate) struct OrderBufs {
    /// Per row, its popcount (the NO vector).
    popcounts: Vec<usize>,
    /// The Dispatcher's order.
    dispatch: Vec<u32>,
    /// Counting-sort bucket offsets.
    buckets: Vec<u32>,
    /// Per row, its depth in the ProSparsity forest, plus a "no prefix"
    /// sentinel.
    depth: Vec<u32>,
    /// Per row, its pattern popcount.
    ops: Vec<u32>,
    /// The Dispatcher's order stably sorted by pattern popcount.
    by_pattern: Vec<u32>,
}

/// One stable counting-sort pass: writes the rows of `src` to `dst` by
/// ascending `key(row)`, each below `keys`, ties kept in `src` order. With
/// `src` in index order and popcount keys this is the paper's
/// "overhead-free" Dispatcher: `k + 1` buckets filled in index order.
fn counting_pass(
    src: impl Iterator<Item = u32> + Clone,
    key: impl Fn(usize) -> usize,
    keys: usize,
    buckets: &mut Vec<u32>,
    dst: &mut Vec<u32>,
) {
    buckets.clear();
    buckets.resize(keys + 1, 0);
    for r in src.clone() {
        buckets[key(r as usize) + 1] += 1;
    }
    place(src, buckets, key, dst);
}

/// The placement half of [`counting_pass`]: `buckets` holds the histogram
/// of `key` over `src`, shifted up one slot.
fn place(
    src: impl Iterator<Item = u32>,
    buckets: &mut [u32],
    key: impl Fn(usize) -> usize,
    dst: &mut Vec<u32>,
) {
    for b in 1..buckets.len() {
        buckets[b] += buckets[b - 1];
    }
    dst.clear();
    dst.resize(buckets.last().map_or(0, |&n| n as usize), 0);
    for r in src {
        let b = &mut buckets[key(r as usize)];
        dst[*b as usize] = r;
        *b += 1;
    }
}

/// A tile's replay order: the Dispatcher's topological order
/// `bufs.dispatch` re-sorted stably by pattern popcount, then by forest
/// depth, so it runs by (depth, pattern popcount) with ties in Dispatcher
/// position. Both keys are counting passes: `op_keys` bounds every row's
/// popcount from above, and the depth buckets are sized by the row count,
/// so they stay `O(k + depth)` even for a chain of identical rows. The
/// planner passes `k + 1`; snapshot decode derives the bound from the
/// popcounts, so a declared width sizes nothing. One sweep computes both
/// keys and both histograms.
fn replay_order(prefix: &[u32], op_keys: usize, bufs: &mut OrderBufs) -> Vec<u32> {
    let m = prefix.len();
    let OrderBufs {
        popcounts,
        dispatch,
        buckets,
        depth,
        ops,
        by_pattern,
    } = bufs;
    // Index `m` stands for "no prefix": a root's depth wraps to 0 from it.
    depth.clear();
    depth.resize(m + 1, u32::MAX);
    ops.clear();
    ops.resize(m, 0);
    // Histograms, each shifted up one slot: pattern popcounts
    // `0..op_keys`, then depths `0..=m`.
    buckets.clear();
    buckets.resize(op_keys + 1 + m + 2, 0);
    let (by_ops, by_depth) = buckets.split_at_mut(op_keys + 1);
    let mut max_depth = 0;
    for &r in dispatch.iter() {
        let r = r as usize;
        let p = (prefix[r] as usize).min(m);
        let d = depth[p].wrapping_add(1);
        depth[r] = d;
        max_depth = max_depth.max(d as usize);
        // A prefix is a subset of its row, so the pattern popcount is the
        // row's popcount minus the prefix's.
        let o = popcounts[r] - popcounts.get(p).copied().unwrap_or(0);
        ops[r] = o as u32;
        by_ops[o + 1] += 1;
        by_depth[d as usize + 1] += 1;
    }
    place(
        dispatch.iter().copied(),
        by_ops,
        |r| ops[r] as usize,
        by_pattern,
    );
    let mut order = Vec::new();
    place(
        by_pattern.iter().copied(),
        &mut by_depth[..max_depth + 2],
        |r| depth[r] as usize,
        &mut order,
    );
    order
}

/// Fused Detector + Pruner + Dispatcher for one `m × k` tile given as its
/// row-major limbs, `⌈k/64⌉` per row with no bits past column `k`: the
/// plan-cache key that [`SpikeMatrix::tile_key_into`] writes.
///
/// Returns the tile's meta plus its spike-bit count (reused for stats).
/// Runs [`plan_tile`] with the row stride the module docs give for `k`.
// analyze: hot-path
pub(crate) fn build_tile_meta(
    limbs: &[u64],
    m: usize,
    k: usize,
    scratch: &mut PlanScratch,
) -> (TileMeta, u64) {
    match k.div_ceil(64) {
        1 => plan_tile::<1>(limbs, m, k, scratch),
        _ => plan_tile::<0>(limbs, m, k, scratch),
    }
}

/// [`build_tile_meta`]'s body for `W` limbs per row, or for the runtime
/// `⌈k/64⌉` when `W` is 0.
// analyze: hot-path
fn plan_tile<const W: usize>(
    limbs: &[u64],
    m: usize,
    k: usize,
    scratch: &mut PlanScratch,
) -> (TileMeta, u64) {
    let words = if W == 0 { k.div_ceil(64) } else { W };
    assert!(m < NO_PREFIX as usize, "{m} rows overflow a u32 row index");
    assert_eq!(limbs.len(), m * words, "not the limbs of a {m}×{k} tile");
    let PlanScratch {
        orders,
        col_masks,
        subset_tables,
        position_row,
        ..
    } = scratch;
    let OrderBufs {
        popcounts,
        dispatch,
        buckets,
        ..
    } = orders;

    popcounts.clear();
    popcounts.resize(m, 0);
    for (pc, row) in popcounts.iter_mut().zip(limbs.chunks_exact(words.max(1))) {
        *pc = row.iter().map(|l| l.count_ones() as usize).sum();
    }
    let spike_bits: u64 = popcounts.iter().map(|&p| p as u64).sum();
    let popcount = |r: usize| popcounts.get(r).copied().unwrap_or(0);
    counting_pass(0..m as u32, popcount, k + 1, buckets, dispatch);
    debug_assert!(dispatch
        .iter()
        .map(|&i| i as usize)
        .eq(crate::order::sorted_order(popcounts)));

    // Zero rows lead the Dispatcher's order and are never prefixes.
    let zero_rows = popcounts.iter().filter(|&&p| p == 0).count();
    let mut prefix = vec![NO_PREFIX; m];
    let rows = (limbs, words);
    transpose::<W>(rows, dispatch, col_masks);
    let bufs = (subset_tables, position_row);
    prune::<W>(rows, k, (dispatch, zero_rows), col_masks, bufs, &mut prefix);

    let mut pattern_limbs = limbs.to_vec();
    if words > 0 {
        for (row, &p) in pattern_limbs.chunks_exact_mut(words).zip(&prefix) {
            if p == NO_PREFIX {
                continue;
            }
            let at = p as usize * words;
            let prefix_limbs = limbs.get(at..at + words).unwrap_or(&[]);
            for (a, b) in row.iter_mut().zip(prefix_limbs) {
                *a ^= b;
            }
        }
    }
    (
        TileMeta {
            width: k,
            // No row has a bit past column `k`.
            exec_order: replay_order(&prefix, k + 1, orders),
            prefix,
            pattern_limbs,
        },
        spike_bits,
    )
}

/// Columns per subset table: the Pruner reads a row's complement one
/// nibble at a time.
const GROUP: usize = 4;

/// Entries per subset table, one per subset of a group's columns.
const ENTRIES: usize = 1 << GROUP;

/// Mask words per step of the Pruner's query: 256 Dispatcher positions,
/// the paper's default tile height.
const STEP: usize = 4;

/// One step of a position mask: bit `p % 64` of word `p / 64 % STEP`.
type Step = [u64; STEP];

/// Per subset of a group's columns, the OR of their masks in one step.
type Table = [Step; ENTRIES];

/// Transposes a tile into column masks in Dispatcher-position space: bit
/// `p % 64` of word `p / 64 % STEP` of column `c`'s mask in step
/// `p / (64 · STEP)` is set iff the row at position `p` of `dispatch`
/// spikes at column `c`. `rows` is the tile's row-major limbs and their
/// count per row. Masks are stored step-major, `64 · words` columns per
/// step, columns past `k` zero. Each 64×64 bit block is gathered and
/// transposed at once (~6·32 word ops instead of a bit-by-bit scatter).
/// `W` is [`plan_tile`]'s limb count.
// analyze: hot-path
fn transpose<const W: usize>(
    (limbs, words): (&[u64], usize),
    dispatch: &[u32],
    col_masks: &mut Vec<Step>,
) {
    let words = if W == 0 { words } else { W };
    let cols = 64 * words;
    col_masks.clear();
    col_masks.resize(dispatch.len().div_ceil(64 * STEP) * cols, [0; STEP]);
    let mut block = [0u64; 64];
    for (step, masks) in dispatch
        .chunks(64 * STEP)
        .zip(col_masks.chunks_mut(cols.max(1)))
    {
        for (i, positions) in step.chunks(64).enumerate() {
            for (col_block, dst) in masks.chunks_exact_mut(64).enumerate() {
                block.fill(0);
                for (limb, &r) in block.iter_mut().zip(positions) {
                    let at = r as usize * words + col_block;
                    *limb = limbs.get(at).copied().unwrap_or(0);
                }
                spikemat::bitops::transpose64(&mut block);
                for (mask, &limb) in dst.iter_mut().zip(&block) {
                    if let Some(word) = mask.get_mut(i) {
                        *word = limb;
                    }
                }
            }
        }
    }
}

/// The Pruner (module docs), writing each nonzero row's prefix. `rows` is
/// the tile's row-major limbs and their count per row (`W` is
/// [`plan_tile`]'s), `dispatch` the Dispatcher's order and the number of
/// zero rows leading it, and `col_masks` the tile as [`transpose`] lays it
/// out. `tables` receives, per step and [`GROUP`]-column group, the OR of
/// the column masks of each subset of the group's columns; `position_row`
/// receives the row at position `p` in slot `p + 1` and [`NO_PREFIX`] in
/// slot 0, so the highest subset position plus one, or 0 for none, looks up
/// the prefix.
// analyze: hot-path
fn prune<const W: usize>(
    (limbs, words): (&[u64], usize),
    k: usize,
    (dispatch, zero_rows): (&[u32], usize),
    col_masks: &[Step],
    (tables, position_row): (&mut Vec<Table>, &mut Vec<u32>),
    prefix: &mut [u32],
) {
    let words = if W == 0 { words } else { W };
    position_row.clear();
    position_row.push(NO_PREFIX);
    position_row.extend_from_slice(dispatch);
    let groups = k.div_ceil(GROUP).max(1);
    tables.clear();
    tables.resize(
        dispatch.len().div_ceil(64 * STEP) * groups,
        [[0; STEP]; ENTRIES],
    );
    let step_masks = col_masks.chunks((64 * words).max(1));
    for (q, (step, masks)) in tables.chunks_exact_mut(groups).zip(step_masks).enumerate() {
        // Only the words that hold this step's rows can be nonzero.
        let live = dispatch.len().saturating_sub(64 * STEP * q).div_ceil(64);
        for (table, group) in step.iter_mut().zip(masks.chunks(GROUP)) {
            // Entry `s` is the entry without `s`'s lowest column, plus that
            // column's mask.
            for s in 1..ENTRIES {
                let (built, rest) = table.split_at_mut(s);
                let (Some(low), Some(column), Some(entry)) = (
                    built.get(s & (s - 1)),
                    group.get(s.trailing_zeros() as usize),
                    rest.first_mut(),
                ) else {
                    continue;
                };
                for ((e, &l), &c) in entry.iter_mut().zip(low).zip(column).take(live) {
                    *e = l | c;
                }
            }
        }
    }
    for (q, step) in tables.chunks_exact(groups).enumerate() {
        let start = 64 * STEP * q;
        // The nonzero positions of this step visited so far: every later
        // row's candidates here. Steps ascend in position, so a subset
        // found in a later step replaces an earlier step's.
        let mut window = [0u64; STEP];
        for (p, &r) in dispatch.iter().enumerate().skip(start.max(zero_rows)) {
            let at = r as usize * words;
            let row = limbs.get(at..at + words).unwrap_or(&[]);
            // A row in this step finds candidates only in the words up to
            // its own; a row of a later step in all of them.
            let slot = match (p - start) / 64 {
                0 => subset_slot::<1>(step, start, row, &window),
                1 => subset_slot::<2>(step, start, row, &window),
                2 => subset_slot::<3>(step, start, row, &window),
                _ => subset_slot::<STEP>(step, start, row, &window),
            };
            if let (Some(dst), Some(&found)) = (prefix.get_mut(r as usize), position_row.get(slot))
            {
                *dst = if slot != 0 { found } else { *dst };
            }
            if let Some(w) = window.get_mut((p - start) / 64) {
                *w |= 1 << (p % 64);
            }
        }
    }
}

/// The highest position among `candidates` that holds a subset of `row`,
/// plus one, or 0 for none, querying the first `S` words of one step's
/// `tables` whose first position is `start`: a position outside the
/// subsets has a bit in a column the row lacks, so it is in the row's
/// complement's table entry for some group.
// analyze: hot-path
fn subset_slot<const S: usize>(
    tables: &[Table],
    start: usize,
    row: &[u64],
    candidates: &Step,
) -> usize {
    let mut outside = [0u64; S];
    for (limb_tables, &limb) in tables.chunks(64 / GROUP).zip(row) {
        let mut absent = !limb;
        for table in limb_tables {
            if let Some(entry) = table.get(absent as usize % ENTRIES) {
                for (o, &e) in outside.iter_mut().zip(entry) {
                    *o |= e;
                }
            }
            absent >>= GROUP;
        }
    }
    let mut slot = 0;
    for (i, (&o, &c)) in outside.iter().zip(candidates).enumerate() {
        let subsets = !o & c;
        let top = start + 64 * (i + 1) - subsets.leading_zeros() as usize;
        slot = if subsets != 0 { top } else { slot };
    }
    slot
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
    /// each worker reusing one [`PlanScratch`]. The result is identical
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
    /// repeated planning through one [`PlanScratch`] reuses the tile key,
    /// mask buffers, and order buffers, so a
    /// steady-state planning sweep allocates only for the plan it returns.
    pub fn build_tiled_with(
        spikes: &SpikeMatrix,
        shape: TileShape,
        scratch: &mut PlanScratch,
    ) -> Self {
        let (gm, gk) = shape.grid(spikes.rows(), spikes.cols());
        let n_tiles = gm * gk;
        let (tiles, stats) = build_tile_range(spikes, shape, gk, 0..n_tiles, scratch);
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
            let scratch = &mut PlanScratch::default();
            return vec![build_tile_range(spikes, shape, gk, 0..n_tiles, scratch)];
        }
        let per_worker = n_tiles.div_ceil(workers);
        let ranges: Vec<Range<usize>> = (0..workers)
            .map(|w| (w * per_worker).min(n_tiles)..((w + 1) * per_worker).min(n_tiles))
            .collect();
        ranges
            .into_par_iter()
            .map(|r| build_tile_range(spikes, shape, gk, r, &mut PlanScratch::default()))
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

/// Plans the row-major tile range `[range.start, range.end)` of the grid
/// through one set of planner buffers, planning each tile from its key.
fn build_tile_range(
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
        let mut key = std::mem::take(&mut scratch.key);
        spikes.tile_key_into(row_start, col_start, shape.m, shape.k, &mut key);
        let (meta, spike_bits) = build_tile_meta(&key, shape.m, shape.k, scratch);
        scratch.key = key;
        // Padding rows/cols are all-zero, so the whole-tile spike count above
        // already equals the valid-region count.
        let valid_rows = (spikes.rows() - row_start).min(shape.m);
        let valid_cols = (spikes.cols() - col_start).min(shape.k);
        stats += meta.stats(valid_rows, valid_cols, spike_bits);
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
                for order in [&t.exec_order, &t.dispatch_order()] {
                    let order: Vec<usize> = order.iter().map(|&r| r as usize).collect();
                    assert!(is_valid_order(&t.forest(), &order));
                }
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

    /// Rows drawn from four base rows plus 0–2 extra bits, one in eight
    /// all-zero: many exact-match ties and zero rows.
    fn duplicate_heavy_tile(m: usize, k: usize, rng: &mut impl rand::Rng) -> SpikeMatrix {
        let bases = SpikeMatrix::random(4, k, 0.2, rng);
        let rows = (0..m)
            .map(|_| {
                if rng.gen_range(0..8) == 0 {
                    return BitRow::zeros(k);
                }
                let mut row = bases.row(rng.gen_range(0..4)).clone();
                for _ in 0..rng.gen_range(0..3) {
                    row.set(rng.gen_range(0..k), true);
                }
                row
            })
            .collect();
        SpikeMatrix::from_rows(rows)
    }

    #[test]
    fn fused_build_matches_staged_detect_prune_oracle() {
        use crate::detect::detect_tile;
        use crate::prune::prune_tile;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1234);
        // Up to 300 rows and 140 columns: several mask words and pattern
        // limbs, so the unclaimed mask and the self-bit exclusion cross
        // word boundaries.
        for trial in 0..60 {
            let m = rng.gen_range(1..=300);
            let k = rng.gen_range(1..=140);
            let tile = if trial % 2 == 0 {
                SpikeMatrix::random(m, k, rng.gen_range(0.0..0.7), &mut rng)
            } else {
                duplicate_heavy_tile(m, k, &mut rng)
            };
            let meta = TileMeta::build(&tile);
            let pruned = prune_tile(&tile, &detect_tile(&tile));
            assert_eq!(meta.rows().collect::<Vec<_>>(), pruned, "trial {trial}");
            assert_orders(&tile, &meta, &format!("trial {trial}"));
        }
    }

    /// The Pruner against the staged oracle across mask-word and
    /// pattern-limb boundaries. One scratch is threaded through every
    /// shape, so each tile reuses buffers sized by the one before it; the
    /// key-fed planner must equal [`TileMeta::build`].
    #[test]
    fn pruner_arms_match_the_staged_oracle() {
        use crate::detect::detect_tile;
        use crate::prune::prune_tile;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xA4);
        let (mut scratch, mut key) = (PlanScratch::new(), Vec::new());
        for m in [1, 63, 64, 65, 192, 193, 255, 256, 257, 300] {
            for k in [1, 16, 63, 64, 65, 140] {
                let tiles = [
                    (
                        "random",
                        SpikeMatrix::random(m, k, rng.gen_range(0.05..0.6), &mut rng),
                    ),
                    ("duplicate-heavy", duplicate_heavy_tile(m, k, &mut rng)),
                    ("zero", SpikeMatrix::zeros(m, k)),
                ];
                for (input, tile) in tiles {
                    let what = format!("{m}×{k} {input}");
                    tile.tile_key_into(0, 0, m, k, &mut key);
                    let (meta, spike_bits) = build_tile_meta(&key, m, k, &mut scratch);
                    assert_eq!(meta, TileMeta::build(&tile), "{what}");
                    assert_eq!(spike_bits, tile.total_spikes() as u64, "{what}");
                    let pruned = prune_tile(&tile, &detect_tile(&tile));
                    assert_eq!(meta.rows().collect::<Vec<_>>(), pruned, "{what}");
                    assert_orders(&tile, &meta, &what);
                }
            }
        }
    }

    /// The Pruner against the staged oracle on random, duplicate-heavy,
    /// all-identical, single-bit, all-zero and ragged tiles, across one to
    /// five mask words and one to three pattern limbs, so both limb-count
    /// bodies of the planner run. Besides random heights, every height at
    /// a switch in the per-row query's word count runs.
    #[test]
    fn pruner_matches_the_staged_oracle_on_edge_tiles() {
        use crate::detect::detect_tile;
        use crate::prune::prune_tile;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x9011);
        let (mut scratch, mut key) = (PlanScratch::new(), Vec::new());
        let word_boundaries = [63, 64, 65, 127, 128, 129, 191, 192, 193, 255, 256, 257];
        for k in [1, 3, 4, 5, 16, 17, 63, 64, 65, 140] {
            // The first tile is the paper's 256 rows high: a 256-deep
            // identical chain. `None` draws a random height.
            let heights = [Some(256), None, None]
                .into_iter()
                .chain(word_boundaries.map(Some));
            for m in heights {
                let m = m.unwrap_or_else(|| rng.gen_range(1..=300));
                let mut identical = SpikeMatrix::random(1, k, 0.5, &mut rng).row(0).clone();
                identical.set(k - 1, true);
                let single_bit = (0..m)
                    .map(|_| {
                        let mut row = BitRow::zeros(k);
                        row.set(rng.gen_range(0..k), true);
                        row
                    })
                    .collect();
                // A source matrix ending inside the tile, keyed past its
                // last row from an offset column: zero padding rows and
                // columns.
                let short = SpikeMatrix::random(m / 2 + 1, k + 7, 0.3, &mut rng);
                let tiles = [
                    (
                        "random",
                        SpikeMatrix::random(m, k, rng.gen_range(0.02..0.9), &mut rng),
                        (0, 0),
                    ),
                    (
                        "duplicate-heavy",
                        duplicate_heavy_tile(m, k, &mut rng),
                        (0, 0),
                    ),
                    (
                        "identical",
                        SpikeMatrix::from_rows(vec![identical; m]),
                        (0, 0),
                    ),
                    ("single-bit", SpikeMatrix::from_rows(single_bit), (0, 0)),
                    ("zero", SpikeMatrix::zeros(m, k), (0, 0)),
                    ("ragged", short, (m / 4, 7)),
                ];
                for (input, source, (row_start, col_start)) in tiles {
                    let what = format!("{m}×{k} {input}");
                    source.tile_key_into(row_start, col_start, m, k, &mut key);
                    let tile = source.submatrix(row_start, col_start, m, k);
                    let (meta, _) = build_tile_meta(&key, m, k, &mut scratch);
                    let pruned = prune_tile(&tile, &detect_tile(&tile));
                    assert_eq!(meta.rows().collect::<Vec<_>>(), pruned, "{what}");
                }
            }
        }
    }

    #[test]
    fn replay_order_of_an_identical_row_chain() {
        // 300 identical rows chain 0 <- 1 <- ... <- 299 (depth 299): one
        // depth bucket per row, and the replay order is the chain itself.
        let row: &[u8] = &[1, 0, 1, 1, 0, 0, 1, 0, 1];
        let tile = SpikeMatrix::from_rows_of_bits(&[row; 300]);
        let meta = TileMeta::build(&tile);
        assert_eq!(meta.forest().max_depth(), 299);
        assert_eq!(meta.exec_order, (0..300).collect::<Vec<u32>>());
        assert_orders(&tile, &meta, "chain");
    }

    /// Checks both orders of `meta`, built from `tile`, against their
    /// oracles. The Dispatcher's order is the stable popcount sort. The
    /// replay order is a permutation that puts every prefix before its
    /// row, never decreases in (forest depth, pattern popcount), and keeps
    /// ties in Dispatcher position.
    fn assert_orders(tile: &SpikeMatrix, meta: &TileMeta, what: &str) {
        use crate::order::sorted_order;
        let popcounts: Vec<usize> = tile.row_slice().iter().map(BitRow::popcount).collect();
        let dispatch: Vec<usize> = meta.dispatch_order().iter().map(|&r| r as usize).collect();
        assert_eq!(dispatch, sorted_order(&popcounts), "{what}");
        let m = meta.prefix.len();
        let mut position = vec![usize::MAX; m];
        for (pos, &r) in meta.exec_order.iter().enumerate() {
            assert_eq!(position[r as usize], usize::MAX, "{what}: row {r} twice");
            position[r as usize] = pos;
        }
        assert_eq!(meta.exec_order.len(), m, "{what}: not a permutation");
        for (r, &p) in meta.prefix.iter().enumerate() {
            if p != NO_PREFIX {
                assert!(
                    position[p as usize] < position[r],
                    "{what}: row {r} before its prefix"
                );
            }
        }
        let forest = meta.forest();
        let mut dispatch_pos = vec![0; m];
        for (pos, &r) in dispatch.iter().enumerate() {
            dispatch_pos[r] = pos;
        }
        let key = |r: u32| {
            let r = r as usize;
            (forest.depth(r), meta.ops(r), dispatch_pos[r])
        };
        for pair in meta.exec_order.windows(2) {
            assert!(
                key(pair[0]) < key(pair[1]),
                "{what}: rows {pair:?} out of order"
            );
        }
    }

    #[test]
    fn counting_pass_is_the_stable_sort_by_popcount() {
        use crate::order::sorted_order;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC0);
        let (mut buckets, mut order) = (Vec::new(), Vec::new());
        let mut check = |pcs: &[usize], k: usize| {
            counting_pass(
                0..pcs.len() as u32,
                |r| pcs[r],
                k + 1,
                &mut buckets,
                &mut order,
            );
            let got: Vec<usize> = order.iter().map(|&i| i as usize).collect();
            assert_eq!(got, sorted_order(pcs), "k {k} popcounts {pcs:?}");
        };
        check(&[], 0);
        check(&[], 16);
        check(&[0; 9], 0);
        check(&[0; 9], 16);
        check(&[5; 70], 5);
        check(&[16, 0, 16, 3, 16], 16);
        for _ in 0..200 {
            let k = rng.gen_range(0..=140);
            let pcs: Vec<usize> = (0..rng.gen_range(0..=300))
                .map(|_| rng.gen_range(0..=k))
                .collect();
            check(&pcs, k);
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
            assert_eq!(par.tiles(), ser.tiles());
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
        let mut cases: Vec<(SpikeMatrix, TileShape)> = (0..15)
            .map(|_| {
                let m = rng.gen_range(1..60);
                let k = rng.gen_range(1..40);
                let s = SpikeMatrix::random(m, k, rng.gen_range(0.05..0.5), &mut rng);
                (
                    s,
                    TileShape::new(rng.gen_range(1..=16), rng.gen_range(1..=16)),
                )
            })
            .collect();
        // 256-, 300- and 16-row tiles need 4, 5 and 1 mask words, so each
        // switch reuses buffers sized for another height.
        let tall = SpikeMatrix::random(600, 40, 0.3, &mut rng);
        for rows in [256, 300, 16, 256, 16, 300, 256] {
            cases.push((tall.clone(), TileShape::new(rows, 16)));
        }
        for (s, shape) in &cases {
            let with = ProSparsityPlan::build_tiled_with(s, *shape, &mut scratch);
            let fresh = ProSparsityPlan::build_tiled_serial(s, *shape);
            assert_eq!(with.stats(), fresh.stats(), "{shape:?}");
            assert_eq!(with.tiles(), fresh.tiles(), "{shape:?}");
        }
    }

    #[test]
    fn empty_meta_matches_built_empty_tile() {
        let built = TileMeta::build(&SpikeMatrix::zeros(0, 0));
        assert_eq!(TileMeta::default(), built);
        assert_eq!(built.pattern_words(), 0);
    }

    #[test]
    fn empty_matrix_plan() {
        let m = SpikeMatrix::zeros(0, 0);
        let plan = ProSparsityPlan::build(&m);
        assert_eq!(plan.stats().dense_ops, 0);
        assert_eq!(plan.tiles().len(), 0);
    }
}
