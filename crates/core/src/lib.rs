//! Product Sparsity (ProSparsity) — the primary contribution of the paper
//! *Prosperity: Accelerating Spiking Neural Networks via Product Sparsity*
//! (HPCA 2025).
//!
//! Bit sparsity skips the zero bits of a binary spike matrix. Product
//! sparsity goes further: when spike row `S_j` is a subset of spike row `S_i`
//! (*Partial Match*) or equal to it (*Exact Match*), the inner-product result
//! of `S_j` can be **reused** as the starting partial sum of `S_i`, leaving
//! only the difference bits `S_i ⊕ S_j` to accumulate. Across a tile this
//! collapses the redundant combinatorial structure of SNN activations — e.g.
//! SpikeBERT drops from 13.19 % bit density to 1.23 % product density.
//!
//! Pipeline of this crate, mirroring the hardware stages of the PPU:
//!
//! 1. [`detect`] — find all subset candidates for each row (the Detector's
//!    TCAM search) and each row's popcount (temporal information).
//! 2. [`prune`] — apply the paper's pruning rules to select exactly one
//!    prefix per row and emit the XOR ProSparsity pattern (the Pruner).
//! 3. [`forest`] — the resulting one-prefix structure as a ProSparsity
//!    forest, with validation and depth statistics.
//! 4. [`order`] — temporal-information generation: the overhead-free stable
//!    sort by popcount, and the slow forest-walk order used as the ablation
//!    baseline (the Dispatcher).
//! 5. [`plan`] / [`exec`] — tile-level meta information for a whole spiking
//!    GeMM and a lossless executor that replays it.
//! 6. [`multi_prefix`] — the two-prefix design-space variant of Table II.
//! 7. [`attention`] — spiking attention (`Q·Kᵀ`, `attn·V`) lowered onto the
//!    same ProSparsity pipeline (transformer support, Sec. IV).
//! 8. [`policy`] — prefix-selection policy ablation (largest-subset vs
//!    cheaper alternatives; EM-only / PM-only contribution split).
//! 9. [`engine`] — the serving runtime, a layered module tree
//!    (`engine::{cache, shared, snapshot, store, session, batch, service,
//!    stats, fleet}`): reusable [`Session`]s run whole models through the
//!    kernels with a tile-level plan cache (temporally correlated tiles
//!    skip planning), recycled buffers, and zero steady-state allocation;
//!    a sharded [`SharedPlanCache`] lets concurrent sessions reuse each
//!    other's plans, a [`BatchScheduler`] interleaves many traces through
//!    it, and an adaptive admission policy protects uncorrelated streams
//!    from cache-bookkeeping overhead.
//!
//! # Losslessness
//!
//! ProSparsity is algorithm-agnostic and exact: for integer weights,
//! [`exec::prosparsity_gemm`] returns bit-for-bit the same output as
//! [`spikemat::gemm::spiking_gemm`]. This invariant is property-tested.
//!
//! # Kernel performance
//!
//! Planning and execution are the software hot path and are written to run
//! as fast as the hardware allows:
//!
//! * the planner fuses Detector + Pruner into a word-parallel scan (see
//!   [`plan`]), with `detect`/`prune` kept as the oracle;
//! * the executor accumulates into one reused strip arena, sized in
//!   [`exec`], with no heap allocation inside the tile loop;
//! * the one-shot kernels ([`plan::ProSparsityPlan::build_tiled`],
//!   [`exec::execute_plan`], [`exec::prosparsity_gemm`]) distribute
//!   independent tiles / row-tiles across threads via `rayon`
//!   (`RAYON_NUM_THREADS` sets the count), with bit-identical results —
//!   serial reference entry points
//!   ([`plan::ProSparsityPlan::build_tiled_serial`],
//!   [`exec::execute_plan_serial`]) remain for ablation and testing.
//!
//! # Threads
//!
//! `RAYON_NUM_THREADS` governs only those one-shot kernels. An
//! [`engine::Session`] — and [`engine::BatchScheduler::run`], which drives
//! sessions — executes every GeMM and slice on the calling thread, one
//! row-tile at a time. Lane-level parallelism comes from
//! [`engine::BatchScheduler::run_concurrent`], one thread per lane.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod attention;
pub mod detect;
pub mod engine;
pub mod exec;
pub mod forest;
pub mod multi_prefix;
pub mod order;
pub mod plan;
pub mod policy;
pub mod prune;
pub mod relation;
pub mod stats;

pub use detect::{DetectedTile, TcamDetector};
pub use engine::{
    BatchPolicy, BatchScheduler, EngineConfig, EngineStats, Session, SharedCacheStats,
    SharedPlanCache,
};

/// Whether planning/execution can distribute across threads. Always true:
/// the thread count, not a build flag, selects the serial program (see
/// [`parallel_threads`]). Kept for bench provenance lines.
pub fn parallel_enabled() -> bool {
    true
}

/// Worker threads the one-shot kernels (`build_tiled`, `execute_plan`,
/// `prosparsity_gemm`) fan out across: rayon's pool size (respects
/// `RAYON_NUM_THREADS`). At 1 they run the serial code. Sessions and
/// `BatchScheduler::run` ignore it and execute on the calling thread. Benches
/// record this as `threads_effective` so single-core runs are not held to
/// parallel≥serial expectations.
pub fn parallel_threads() -> usize {
    rayon::current_num_threads()
}

/// Always `false`: the limb kernels are scalar word loops with no
/// hand-written SIMD path. Kept because benchmark provenance records it.
pub fn simd_active() -> bool {
    false
}
pub use forest::ProSparsityForest;
pub use order::{forest_walk_order, sorted_order};
pub use plan::{ProSparsityPlan, RowMeta, TileMeta};
pub use prune::{prune_tile, MatchKind};
pub use relation::{classify, Relation};
pub use stats::ProStats;
