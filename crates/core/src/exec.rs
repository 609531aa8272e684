//! Lossless execution of a ProSparsity plan (the **Processor**'s row-wise
//! dataflow, Sec. V-E, as a software kernel).
//!
//! For every tile, rows are processed in the Dispatcher's order. A row with a
//! prefix starts from the prefix's *tile-local* partial result (Step 9 of the
//! pipeline: "load Prefix"), then accumulates the weight rows selected by the
//! 1-bits of its ProSparsity pattern (Steps 10–11, address decoding by
//! bit-scan-forward), and finally adds its tile-local result into the global
//! output row (Step 12, the cross-`k`-tile partial-sum accumulation).
//!
//! # Performance
//!
//! The kernel is built for speed:
//!
//! * One row loop serves every row. Each row is built in fixed strips of
//!   16 output columns (plus one narrower tail strip): a strip is a `[T; 16]`
//!   accumulator the compiler keeps in registers while the bit scan adds the
//!   selected weight-row strips into it, so the accumulator is loaded once
//!   (from the prefix's partial, or zero) and written out once per strip,
//!   not once per set pattern bit. The code is plain safe Rust; the compiler
//!   vectorizes the constant-width strip adds.
//! * Tile-local partials live in one flat arena of `tile_rows × n` elements
//!   per row-tile, indexed by row offset — no per-row heap allocation inside
//!   the tile loop. Only rows that a later row loads as its prefix store
//!   their partial there; when `n` fits in one strip every row stores, which
//!   costs less than finding the prefix rows.
//! * Row-tiles own disjoint output rows, so they execute across threads
//!   over disjoint `&mut` chunks of the output; the `k`-tiles of one row
//!   group fold sequentially into that chunk, which keeps the result
//!   bit-identical to the serial kernel.
//!
//! With integer weights the result is bit-for-bit equal to the reference
//! [`spikemat::gemm::spiking_gemm`]; this is the paper's losslessness claim
//! and is enforced by property tests (serial *and* parallel paths).

use crate::plan::{ProSparsityPlan, TileMeta, NO_PREFIX};
use spikemat::gemm::{OutputMatrix, WeightMatrix};
use spikemat::{SpikeMatrix, TileShape};
use std::ops::AddAssign;

/// Executes a spiking GeMM under product sparsity with tile shape `shape`.
///
/// Plans each tile (Detector → Pruner → Dispatcher) and replays the meta
/// information on the weight matrix. See [`execute_plan`] to reuse an
/// existing plan.
///
/// # Panics
///
/// Panics if `spikes.cols() != weights.rows()`.
pub fn prosparsity_gemm<T: Copy + Default + AddAssign + Send + Sync>(
    spikes: &SpikeMatrix,
    weights: &WeightMatrix<T>,
    shape: TileShape,
) -> OutputMatrix<T> {
    let plan = ProSparsityPlan::build_tiled(spikes, shape);
    execute_plan(&plan, weights)
}

/// Replays a previously built plan against a weight matrix, parallelizing
/// across row-tiles (disjoint output-row groups).
///
/// # Panics
///
/// Panics if the plan's source column count differs from `weights.rows()`.
pub fn execute_plan<T: Copy + Default + AddAssign + Send + Sync>(
    plan: &ProSparsityPlan,
    weights: &WeightMatrix<T>,
) -> OutputMatrix<T> {
    use rayon::prelude::*;
    let mut out = new_output(plan, weights);
    let n = weights.cols();
    let gk = col_tile_count(plan);
    if gk == 0 || n == 0 {
        return out;
    }
    let chunk_elems = plan.shape().m * n;
    let tiles = plan.tiles();
    let row_chunks: Vec<(usize, &mut [T])> = out
        .as_mut_slice()
        .chunks_mut(chunk_elems)
        .enumerate()
        .collect();
    row_chunks.into_par_iter().for_each(|(ti, chunk)| {
        let mut arena = Vec::new();
        let mut parents = Vec::new();
        execute_row_tile(
            &tiles[ti * gk..(ti + 1) * gk],
            weights,
            chunk,
            &mut arena,
            &mut parents,
            n,
        );
    });
    out
}

/// Strictly single-threaded [`execute_plan`]; the baseline the parallel
/// executor is property-tested against. One arena allocation serves the
/// entire GeMM.
///
/// # Panics
///
/// Panics if the plan's source column count differs from `weights.rows()`.
pub fn execute_plan_serial<T: Copy + Default + AddAssign>(
    plan: &ProSparsityPlan,
    weights: &WeightMatrix<T>,
) -> OutputMatrix<T> {
    let mut out = new_output(plan, weights);
    let n = weights.cols();
    let gk = col_tile_count(plan);
    if gk == 0 || n == 0 {
        return out;
    }
    let chunk_elems = plan.shape().m * n;
    let tiles = plan.tiles();
    let mut arena = Vec::new();
    let mut parents = Vec::new();
    for (ti, chunk) in out.as_mut_slice().chunks_mut(chunk_elems).enumerate() {
        execute_row_tile(
            &tiles[ti * gk..(ti + 1) * gk],
            weights,
            chunk,
            &mut arena,
            &mut parents,
            n,
        );
    }
    out
}

/// Allocates the output and checks the plan/weight inner dimension.
fn new_output<T: Copy + Default + AddAssign>(
    plan: &ProSparsityPlan,
    weights: &WeightMatrix<T>,
) -> OutputMatrix<T> {
    let (m, k) = plan.source_dims();
    assert_eq!(
        k,
        weights.rows(),
        "plan K={k} does not match weight rows {}",
        weights.rows()
    );
    OutputMatrix::zeros(m, weights.cols())
}

/// Number of `k`-tiles per row group (0 for an empty plan).
fn col_tile_count(plan: &ProSparsityPlan) -> usize {
    let (_, k) = plan.source_dims();
    if plan.tiles().is_empty() {
        0
    } else {
        k.div_ceil(plan.shape().k)
    }
}

/// A planned tile the executor can replay: its meta information plus its
/// placement in the source matrix.
///
/// [`TileMeta`] carries its own placement; the serving runtime instead
/// replays *cached*, position-independent metas under per-instance
/// placements — possibly borrowed (via `Arc`) from a plan cache shared
/// with other sessions — so the executor core is generic over this view
/// rather than over one concrete meta lifetime.
pub trait TileExec {
    /// The planned meta information (prefixes, packed patterns, order).
    fn meta(&self) -> &TileMeta;
    /// First weight row this tile's patterns address.
    fn col_start(&self) -> usize;
}

impl TileExec for TileMeta {
    fn meta(&self) -> &TileMeta {
        self
    }
    fn col_start(&self) -> usize {
        self.col_start
    }
}

/// Executes the `k`-tiles of one row group into its output chunk.
///
/// `out_chunk` holds the group's `valid_rows × n` output elements; the
/// scratch buffers are caller-owned and reused across every tile this worker
/// processes, so the loop itself never allocates.
///
/// Each `k`-tile walks its rows in the Dispatcher's topological order and
/// builds every row strip by strip in registers ([`execute_row`]). A row
/// that some later row loads as its prefix (a *parent*) also stores its
/// tile-local partial in the flat `arena` (Step 9's prefix load source);
/// `parents` marks them when rows span several strips. Padding rows fall
/// past the end of `out_chunk`, so only the arena ever sees them.
// analyze: hot-path
pub(crate) fn execute_row_tile<T: Copy + Default + AddAssign, V: TileExec>(
    k_tiles: &[V],
    weights: &WeightMatrix<T>,
    out_chunk: &mut [T],
    arena: &mut Vec<T>,
    parents: &mut Vec<bool>,
    n: usize,
) {
    let wdata = weights.as_slice();
    let tile_rows = k_tiles
        .iter()
        .map(|t| t.meta().prefix.len())
        .max()
        .unwrap_or(0);
    if arena.len() < tile_rows * n {
        arena.resize(tile_rows * n, T::default());
    }
    // A one-strip row's store costs less than finding out whether a later
    // row loads it as its prefix, so such rows always store.
    let store_all = n <= STRIP;
    for tile in k_tiles {
        let meta = tile.meta();
        if !store_all {
            parents.clear();
            parents.resize(tile_rows, false);
            // `NO_PREFIX` falls past the end and marks nothing.
            for &p in &meta.prefix {
                if let Some(flag) = parents.get_mut(p as usize) {
                    *flag = true;
                }
            }
        }
        let wpr = meta.pattern_words();
        for &r in &meta.order {
            let r = r as usize;
            let store = store_all || parents.get(r).copied().unwrap_or(false);
            let out_row = out_chunk.get_mut(r * n..(r + 1) * n);
            if !store && out_row.is_none() {
                continue; // padding row nobody depends on
            }
            // The planner sizes both to the tile's rows, so these always
            // resolve; `get` keeps the loop free of panic paths.
            let (Some(&prefix), Some(pattern)) = (
                meta.prefix.get(r),
                meta.pattern_limbs.get(r * wpr..(r + 1) * wpr),
            ) else {
                continue;
            };
            let job = RowJob {
                pattern,
                col_start: tile.col_start(),
                seed: (prefix != NO_PREFIX).then(|| prefix as usize * n),
                store: store.then_some(r * n),
            };
            execute_row(&job, wdata, n, arena, out_row);
        }
    }
}

/// Executes a contiguous range of row groups `[start, start + count)` of a
/// placed-tile grid serially, each into its `tile_m × n` output chunk.
///
/// This is the executor the session's serial whole-GeMM path and its sliced
/// (`gemm_slice`) path share: a slice is just a sub-range of row groups, so
/// executing `[0, gm)` in one call and executing it as several disjoint
/// ranges produce bit-identical output — row groups never share output
/// elements or carry state across each other.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_row_tiles<T: Copy + Default + AddAssign, V: TileExec>(
    tiles: &[V],
    gk: usize,
    weights: &WeightMatrix<T>,
    out: &mut [T],
    start: usize,
    count: usize,
    arena: &mut Vec<T>,
    parents: &mut Vec<bool>,
    tile_m: usize,
    n: usize,
) {
    let chunk_elems = tile_m * n;
    for (ti, chunk) in out
        .chunks_mut(chunk_elems)
        .enumerate()
        .skip(start)
        .take(count)
    {
        execute_row_tile(
            &tiles[ti * gk..(ti + 1) * gk],
            weights,
            chunk,
            arena,
            parents,
            n,
        );
    }
}

/// Output columns per register-resident accumulator strip.
const STRIP: usize = 16;

/// One row of one `k`-tile, as [`execute_row`] replays it.
struct RowJob<'a> {
    /// The row's packed ProSparsity pattern limbs.
    pattern: &'a [u64],
    /// First weight row the pattern addresses.
    col_start: usize,
    /// Arena offset of the prefix's partial to start from (Step 9).
    seed: Option<usize>,
    /// Arena offset to store this row's partial at, if a later row may
    /// load it.
    store: Option<usize>,
}

/// Steps 9–12 for one row, in `STRIP`-wide column strips (and one
/// narrower tail strip when `n` is not a multiple of `STRIP`). Always
/// inlined: left out of line, the call per row visit took about a fifth of
/// the executor's time on 16-column outputs.
// analyze: hot-path
#[inline(always)]
fn execute_row<T: Copy + Default + AddAssign>(
    job: &RowJob<'_>,
    wdata: &[T],
    n: usize,
    arena: &mut [T],
    mut out_row: Option<&mut [T]>,
) {
    let mut c = 0;
    while c + STRIP <= n {
        execute_strip(job, wdata, n, arena, out_row.as_deref_mut(), c, STRIP);
        c += STRIP;
    }
    if c < n {
        execute_strip(job, wdata, n, arena, out_row, c, n - c);
    }
}

/// Builds columns `c..c + width` of one row in a register-resident
/// accumulator: seed it from the prefix's arena strip or zero, add the
/// weight-row strips selected by the pattern's set bits (Steps 10–11,
/// bit-scan-forward), store it to the arena if a later row may load it, and
/// add it into the output row (Step 12). Inlined with `width == STRIP`, every
/// loop here has a constant trip count.
// analyze: hot-path
#[inline(always)]
fn execute_strip<T: Copy + Default + AddAssign>(
    job: &RowJob<'_>,
    wdata: &[T],
    n: usize,
    arena: &mut [T],
    out_row: Option<&mut [T]>,
    c: usize,
    width: usize,
) {
    let mut acc = [T::default(); STRIP];
    if let Some(src) = job.seed.and_then(|p| arena.get(p + c..p + c + width)) {
        for (a, &x) in acc.iter_mut().zip(src) {
            *a = x;
        }
    }
    for (word, &limb) in job.pattern.iter().enumerate() {
        let mut bits = limb;
        let base = job.col_start + word * 64;
        while bits != 0 {
            let off = (base + bits.trailing_zeros() as usize) * n + c;
            bits &= bits - 1;
            // Zero-padded tile columns address past the last weight row,
            // where `get` finds nothing.
            if let Some(src) = wdata.get(off..off + width) {
                for (a, &x) in acc.iter_mut().zip(src) {
                    *a += x;
                }
            }
        }
    }
    if let Some(dst) = job.store.and_then(|r| arena.get_mut(r + c..r + c + width)) {
        for (d, &a) in dst.iter_mut().zip(&acc) {
            *d = a;
        }
    }
    if let Some(dst) = out_row.and_then(|o| o.get_mut(c..c + width)) {
        for (d, &a) in dst.iter_mut().zip(&acc) {
            *d += a;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spikemat::gemm::spiking_gemm;

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
    fn matches_reference_single_tile() {
        let s = fig1_matrix();
        let w = WeightMatrix::from_fn(4, 3, |r, c| (r * 3 + c) as i64 - 5);
        let got = prosparsity_gemm(&s, &w, TileShape::new(6, 4));
        assert_eq!(got, spiking_gemm(&s, &w));
    }

    #[test]
    fn matches_reference_under_every_tiling() {
        let s = fig1_matrix();
        let w = WeightMatrix::from_fn(4, 2, |r, c| (r as i64 + 1) * (c as i64 + 2));
        let reference = spiking_gemm(&s, &w);
        for m in 1..=7 {
            for k in 1..=5 {
                let got = prosparsity_gemm(&s, &w, TileShape::new(m, k));
                assert_eq!(got, reference, "tile {m}x{k}");
            }
        }
    }

    #[test]
    fn serial_and_default_paths_agree() {
        let s = fig1_matrix();
        let w = WeightMatrix::from_fn(4, 3, |r, c| (r * 5 + c) as i64 - 7);
        for m in 1..=7 {
            for k in 1..=5 {
                let plan = ProSparsityPlan::build_tiled(&s, TileShape::new(m, k));
                assert_eq!(
                    execute_plan(&plan, &w),
                    execute_plan_serial(&plan, &w),
                    "tile {m}x{k}"
                );
            }
        }
    }

    #[test]
    fn exact_match_rows_get_identical_outputs() {
        let s = fig1_matrix();
        let w = WeightMatrix::from_fn(4, 3, |r, c| (r * r + c) as i64);
        let out = prosparsity_gemm(&s, &w, TileShape::new(6, 4));
        assert_eq!(out.row(4), out.row(5));
    }

    #[test]
    fn random_matrices_are_lossless() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..10 {
            let m = rng.gen_range(1..40);
            let k = rng.gen_range(1..30);
            let n = rng.gen_range(1..10);
            let density = rng.gen_range(0.05..0.6);
            let s = SpikeMatrix::random(m, k, density, &mut rng);
            let w = WeightMatrix::from_fn(k, n, |_, _| rng.gen_range(-100i64..100));
            let shape = TileShape::new(rng.gen_range(1..=m.max(1)), rng.gen_range(1..=k.max(1)));
            assert_eq!(
                prosparsity_gemm(&s, &w, shape),
                spiking_gemm(&s, &w),
                "trial {trial}"
            );
        }
        // Strip boundaries: every width in STRIP_NS, both element types.
        let inputs = [
            ("correlated", correlated_matrix(50, 150, &mut rng)),
            ("sparse", SpikeMatrix::random(50, 128, 0.1, &mut rng)),
        ];
        // Ragged in both dimensions; k > 64 gives multi-limb patterns.
        let shapes = [
            TileShape::new(16, 8),
            TileShape::new(7, 70),
            TileShape::new(64, 128),
        ];
        for (name, s) in &inputs {
            for shape in shapes {
                let plan = ProSparsityPlan::build_tiled(s, shape);
                if *name == "correlated" {
                    let mut prefixes = plan.tiles().iter().flat_map(|t| &t.prefix);
                    assert!(prefixes.any(|&p| p != NO_PREFIX), "no prefixes");
                }
                for n in STRIP_NS {
                    let what = format!("{name} {}x{} n={n}", shape.m, shape.k);
                    let k = s.cols();
                    let w64 = WeightMatrix::from_fn(k, n, |_, _| rng.gen_range(-100i64..100));
                    assert_lossless(&plan, s, &w64, &what);
                    let w32 = WeightMatrix::from_fn(k, n, |_, _| rng.gen_range(-100i32..100));
                    assert_lossless(&plan, s, &w32, &what);
                }
            }
        }
    }

    /// Output widths around the executor's 16-column strips: inside one
    /// strip, exactly one, one plus a tail, several, and several plus a tail.
    const STRIP_NS: [usize; 11] = [1, 7, 15, 16, 17, 31, 32, 33, 64, 128, 130];

    /// Rows drawn from four base rows plus a few extra bits, so most rows
    /// find a prefix (exact or partial match) in every tile.
    fn correlated_matrix(m: usize, k: usize, rng: &mut impl rand::Rng) -> SpikeMatrix {
        let bases = SpikeMatrix::random(4, k, 0.2, rng);
        let rows = (0..m)
            .map(|i| {
                let mut row = bases.row(i % 4).clone();
                for _ in 0..rng.gen_range(0..3) {
                    row.set(rng.gen_range(0..k), true);
                }
                row
            })
            .collect();
        SpikeMatrix::from_rows(rows)
    }

    fn assert_lossless<T>(plan: &ProSparsityPlan, s: &SpikeMatrix, w: &WeightMatrix<T>, what: &str)
    where
        T: Copy + Default + AddAssign + Send + Sync + PartialEq + std::fmt::Debug,
    {
        let want = spiking_gemm(s, w);
        assert_eq!(execute_plan(plan, w), want, "{what}: execute_plan");
        assert_eq!(execute_plan_serial(plan, w), want, "{what}: serial");
    }

    #[test]
    fn empty_output_dimension_is_fine() {
        let s = fig1_matrix();
        let w = WeightMatrix::from_fn(4, 0, |_, _| 0i64);
        let out = prosparsity_gemm(&s, &w, TileShape::new(4, 4));
        assert_eq!(out.rows(), 6);
        assert_eq!(out.cols(), 0);
    }

    #[test]
    #[should_panic(expected = "does not match weight rows")]
    fn weight_shape_mismatch_panics() {
        let s = fig1_matrix();
        let w = WeightMatrix::from_fn(5, 2, |_, _| 0i32);
        let _ = prosparsity_gemm(&s, &w, TileShape::new(6, 4));
    }
}
