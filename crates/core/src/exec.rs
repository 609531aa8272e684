//! Lossless execution of a ProSparsity plan (the **Processor**'s row-wise
//! dataflow, Sec. V-E, as a software kernel).
//!
//! For every tile, rows are processed in a topological order. A row with a
//! prefix starts from the prefix's *tile-local* partial result (Step 9 of the
//! pipeline: "load Prefix"), then accumulates the weight rows selected by the
//! 1-bits of its ProSparsity pattern (Steps 10–11, address decoding by
//! bit-scan-forward), and finally adds its tile-local result into the global
//! output row (Step 12, the cross-`k`-tile partial-sum accumulation).
//!
//! A row group's `k`-tiles arrive as a slice of plans in grid order: a
//! [`ProSparsityPlan`]'s own [`TileMeta`]s, or the `Arc<TileMeta>`s a
//! session takes from its plan cache (the kernel accepts anything that
//! borrows as a [`TileMeta`]). Plans carry no placement: `k`-tile `j`
//! addresses weight rows from `j · width` on.
//!
//! # Performance
//!
//! The kernel is built so that consecutive rows do the same work, which
//! keeps its branches predictable:
//!
//! * One row loop serves every row. Each `k`-tile replays its rows once per
//!   strip of 16 output columns (plus one narrower tail strip), each row
//!   into a `[T; 16]` accumulator the compiler keeps in registers while the
//!   bit scan adds the selected weight-row strips into it. The code is
//!   plain safe Rust; the compiler vectorizes the constant-width adds.
//! * The output widths the measured workloads serve, 16 and 128, get the
//!   loop specialized to a constant width, so the strip count and the
//!   weight-row stride are constants. Every other width runs the same loop
//!   with a runtime width.
//! * Each `k`-tile's replay is dispatched on its pattern limb count exactly
//!   as the planner dispatches `plan_tile`: tiles of at most 64 columns
//!   (the paper's 256×16 tile among them) run a body with one constant
//!   limb per row, so a row's bit scan is one `u64` with no limb loop;
//!   wider tiles run the same body with a runtime limb count.
//! * The strip body is generic over the strip width: every full strip
//!   runs it at the constant width 16, so each weight-row and output strip
//!   access has a constant length, and the narrower tail strip (`n % 16`
//!   columns) runs it at a runtime width. The arena is viewed as
//!   `[T; 16]` strips, so a row's accumulator is seeded and its partial
//!   stored by whole-array copies.
//! * Tile-local partials live in one flat arena of `(tile_rows + 1) × 16`
//!   elements, one strip per tile row plus a zero row, whatever the output
//!   width: 33 KB of `i64` for a 256-row tile, so prefix loads and partial
//!   stores stay in L1 on wide GeMMs too. Every replayed row stores its
//!   partial there, so no row needs to know whether a later row loads it,
//!   and a row without a prefix seeds from the zero row without a branch.
//!   All-zero rows, padding included, lead the replay order and are never
//!   prefixes, so each tile skips that run before its row loop.
//! * Rows run in the plan's replay order ([`TileMeta::exec_order`]): the
//!   Dispatcher's order re-sorted by (forest depth, pattern popcount), so
//!   rows with the same bit-scan trip count run back to back.
//! * Row-tiles own disjoint output rows, so they execute across threads
//!   over disjoint `&mut` chunks of the output; the `k`-tiles of one row
//!   group fold sequentially into that chunk, which keeps the result
//!   bit-identical to the serial kernel.
//!
//! With integer weights the result is bit-for-bit equal to the reference
//! [`spikemat::gemm::spiking_gemm`]; this is the paper's losslessness claim
//! and is enforced by property tests (serial *and* parallel paths).

use crate::plan::{ProSparsityPlan, TileMeta};
use spikemat::gemm::{OutputMatrix, WeightMatrix};
use spikemat::{SpikeMatrix, TileShape};
use std::borrow::Borrow;
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
        execute_row_tile(
            &tiles[ti * gk..(ti + 1) * gk],
            weights,
            chunk,
            &mut arena,
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
    for (ti, chunk) in out.as_mut_slice().chunks_mut(chunk_elems).enumerate() {
        execute_row_tile(
            &tiles[ti * gk..(ti + 1) * gk],
            weights,
            chunk,
            &mut arena,
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

/// Executes the `k`-tiles of one row group into its output chunk.
///
/// `out_chunk` holds the group's `valid_rows × n` output elements; the
/// arena is caller-owned and reused across every tile this worker
/// processes, so the loop itself never allocates. Widths 16 and 128 run a
/// body specialized to their constant width, and each `k`-tile of at most
/// 64 columns one specialized to a single pattern limb per row; every full
/// 16-column strip runs at a constant strip width (module docs).
///
/// Kept out of line: inlined into [`execute_row_tiles`]' row-group loop, it
/// made a session's 512×256×16 GeMM (N = 16) about 20% slower at the median
/// on a 2-vCPU x86-64 host.
// analyze: hot-path
#[inline(never)]
pub(crate) fn execute_row_tile<T: Copy + Default + AddAssign, V: Borrow<TileMeta>>(
    k_tiles: &[V],
    weights: &WeightMatrix<T>,
    out_chunk: &mut [T],
    arena: &mut Vec<T>,
    n: usize,
) {
    let wdata = weights.as_slice();
    match n {
        16 => replay_row_tile::<T, V, 16>(k_tiles, wdata, out_chunk, arena, n),
        128 => replay_row_tile::<T, V, 128>(k_tiles, wdata, out_chunk, arena, n),
        _ => replay_row_tile::<T, V, 0>(k_tiles, wdata, out_chunk, arena, n),
    }
}

/// [`execute_row_tile`]'s body for output width `N`, or for the runtime
/// width `n` when `N` is 0.
///
/// Clears the arena's zero row, views the arena as `[T; STRIP]` strips once,
/// and replays each `k`-tile through [`replay_k_tile`], dispatched on its
/// pattern limb count as the planner dispatches `plan_tile`: one limb for
/// tiles of at most 64 columns, a runtime count otherwise.
// analyze: hot-path
#[inline(always)]
fn replay_row_tile<T: Copy + Default + AddAssign, V: Borrow<TileMeta>, const N: usize>(
    k_tiles: &[V],
    wdata: &[T],
    out_chunk: &mut [T],
    arena: &mut Vec<T>,
    n: usize,
) {
    let n = if N == 0 { n } else { N };
    let tile_rows = k_tiles
        .iter()
        .map(|t| t.borrow().prefix.len())
        .max()
        .unwrap_or(0);
    if arena.len() < (tile_rows + 1) * STRIP {
        arena.resize((tile_rows + 1) * STRIP, T::default());
    }
    let (strips, _) = arena.as_chunks_mut::<STRIP>();
    let Some(strips) = strips.get_mut(..=tile_rows) else {
        return;
    };
    if let Some(zeros) = strips.last_mut() {
        *zeros = [T::default(); STRIP];
    }
    for (j, tile) in k_tiles.iter().enumerate() {
        let meta: &TileMeta = tile.borrow();
        let col_start = j * meta.width;
        match meta.pattern_words() {
            1 => replay_k_tile::<T, 1>(meta, col_start, wdata, out_chunk, strips, n),
            _ => replay_k_tile::<T, 0>(meta, col_start, wdata, out_chunk, strips, n),
        }
    }
}

/// Replays one `k`-tile, whose weight rows start at `col_start`, with `W`
/// pattern limbs per row, or the tile's runtime count when `W` is 0: once
/// per full strip of `STRIP` output columns, then once for the narrower
/// tail strip if `n` leaves one.
// analyze: hot-path
#[inline(always)]
fn replay_k_tile<T: Copy + Default + AddAssign, const W: usize>(
    meta: &TileMeta,
    col_start: usize,
    wdata: &[T],
    out_chunk: &mut [T],
    strips: &mut [[T; STRIP]],
    n: usize,
) {
    let wpr = if W == 0 { meta.pattern_words() } else { W };
    // All-zero rows (padding included) lead the replay order: depth 0, no
    // pattern bits. They add nothing and are never prefixes, so the run is
    // skipped before the row loop. A row with a prefix follows every root,
    // and its prefix chain starts at a root with a pattern bit, so the run
    // ends at the first pattern bit.
    let zero_rows = meta
        .exec_order
        .iter()
        .take_while(|&&r| {
            let r = r as usize;
            meta.pattern_limbs
                .get(r * wpr..(r + 1) * wpr)
                .is_some_and(|p| p.iter().all(|&l| l == 0))
        })
        .count();
    let rows = meta.exec_order.get(zero_rows..).unwrap_or_default();
    let mut c = 0;
    while c + STRIP <= n {
        let weights = wdata.get(col_start * n + c..).unwrap_or_default();
        let out = out_chunk.get_mut(c..).unwrap_or_default();
        replay_strip::<T, W, STRIP>(meta, rows, weights, out, strips, n, STRIP);
        c += STRIP;
    }
    if c < n {
        let weights = wdata.get(col_start * n + c..).unwrap_or_default();
        let out = out_chunk.get_mut(c..).unwrap_or_default();
        replay_strip::<T, W, 0>(meta, rows, weights, out, strips, n, n - c);
    }
}

/// Replays `rows` of one `k`-tile on one output strip of width `S`, or of
/// the runtime `width` when `S` is 0. `weights` and `out` start at the
/// strip's first column, `weights` also at the tile's first weight row.
///
/// Per row, a register-resident accumulator is seeded by copying its
/// prefix's partial from the arena (Step 9; `strips` ends in the zero row),
/// plus the weight-row strips selected by the pattern's set bits (Steps
/// 10–11, bit-scan-forward), copied back to the arena as the row's own
/// partial, and added into the output row (Step 12).
// analyze: hot-path
#[inline(always)]
fn replay_strip<T: Copy + Default + AddAssign, const W: usize, const S: usize>(
    meta: &TileMeta,
    rows: &[u32],
    weights: &[T],
    out: &mut [T],
    strips: &mut [[T; STRIP]],
    n: usize,
    width: usize,
) {
    let width = if S == 0 { width } else { S };
    let wpr = if W == 0 { meta.pattern_words() } else { W };
    let (prefix, patterns) = (meta.prefix.as_slice(), meta.pattern_limbs.as_slice());
    let zero = strips.len() - 1;
    for &r in rows {
        let r = r as usize;
        // The planner sizes both to the tile's rows, so these always
        // resolve; `get` keeps the loop free of panic paths.
        let (Some(&p), Some(pattern)) = (prefix.get(r), patterns.get(r * wpr..(r + 1) * wpr))
        else {
            continue;
        };
        // `NO_PREFIX` clamps to the zero row.
        let Some(&seed) = strips.get((p as usize).min(zero)) else {
            continue;
        };
        let mut acc = seed;
        for (word, &limb) in pattern.iter().enumerate() {
            let mut bits = limb;
            while bits != 0 {
                let off = (word * 64 + bits.trailing_zeros() as usize) * n;
                bits &= bits - 1;
                // Zero-padded tile columns address past the last weight
                // row, where `get` finds nothing.
                if let Some(src) = weights.get(off..off + width) {
                    for (a, &x) in acc.iter_mut().zip(src) {
                        *a += x;
                    }
                }
            }
        }
        if let Some(dst) = strips.get_mut(r) {
            *dst = acc;
        }
        if let Some(dst) = out.get_mut(r * n..r * n + width) {
            for (d, &a) in dst.iter_mut().zip(&acc) {
                *d += a;
            }
        }
    }
}

/// Executes a contiguous range of row groups `[start, start + count)` of a
/// row-major tile grid serially, each into its `tile_m × n` output chunk.
///
/// This is the session's executor: a slice (`gemm_slice`) is a sub-range of
/// row groups and a whole GeMM is `[0, gm)`, so executing it in one call or
/// as several disjoint ranges produces bit-identical output — row groups
/// never share output elements or carry state across each other.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_row_tiles<T: Copy + Default + AddAssign, V: Borrow<TileMeta>>(
    tiles: &[V],
    gk: usize,
    weights: &WeightMatrix<T>,
    out: &mut [T],
    start: usize,
    count: usize,
    arena: &mut Vec<T>,
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
        execute_row_tile(&tiles[ti * gk..(ti + 1) * gk], weights, chunk, arena, n);
    }
}

/// Output columns per register-resident accumulator strip.
const STRIP: usize = 16;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::NO_PREFIX;
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
        // Ragged in both dimensions; k > 64 gives multi-limb patterns. 32×64
        // reaches pattern bit 63 on the one-limb body, and 32×65 is the
        // narrowest tile on the runtime limb count.
        let shapes = [
            TileShape::new(16, 8),
            TileShape::new(7, 70),
            TileShape::new(64, 128),
            TileShape::new(32, 64),
            TileShape::new(32, 65),
        ];
        for (name, s) in &inputs {
            for shape in shapes {
                let plan = ProSparsityPlan::build_tiled(s, shape);
                if *name == "correlated" {
                    let mut prefixes = plan.tiles().iter().flat_map(|t| &t.prefix);
                    assert!(prefixes.any(|&p| p != NO_PREFIX), "no prefixes");
                }
                if shape.k == 64 {
                    let mut limbs = plan.tiles().iter().flat_map(|t| &t.pattern_limbs);
                    assert!(limbs.any(|&l| l >> 63 == 1), "{name}: no pattern bit 63");
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
    fn stale_arena_contents_never_reach_the_output() {
        // A reused arena arrives holding another GeMM's partials: every
        // replayed row stores its partial before a later row loads it, the
        // zero row is cleared on entry, and the skipped rows (all-zero rows
        // and the 14 padding rows of the last row-tile) are never loaded, so
        // none of the stale values may leak.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use spikemat::BitRow;
        let mut rng = StdRng::seed_from_u64(0x57A1E);
        let c = correlated_matrix(50, 40, &mut rng);
        let s = SpikeMatrix::from_rows(
            (0..50)
                .map(|r| match r % 7 {
                    3 => BitRow::zeros(40),
                    _ => c.row(r).clone(),
                })
                .collect(),
        );
        let shape = TileShape::new(16, 16);
        let plan = ProSparsityPlan::build_tiled(&s, shape);
        let (gm, gk) = shape.grid(50, 40);
        for n in [16, 128, 130] {
            let w = WeightMatrix::from_fn(40, n, |_, _| rng.gen_range(-100i64..100));
            let mut out = OutputMatrix::zeros(50, n);
            let mut arena = vec![1_000_003i64; (shape.m + 1) * STRIP];
            execute_row_tiles(
                plan.tiles(),
                gk,
                &w,
                out.as_mut_slice(),
                0,
                gm,
                &mut arena,
                shape.m,
                n,
            );
            assert_eq!(out, spiking_gemm(&s, &w), "n {n}");
        }
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
