//! The serving runtime: end-to-end trace execution for one stream or many
//! concurrent streams, layered as
//!
//! | module | layer |
//! |---|---|
//! | [`cache`] | the per-shard content-addressed plan LRU + the adaptive admission estimator |
//! | [`shared`] | the sharded concurrent [`SharedPlanCache`], per-tenant admission |
//! | [`snapshot`] | [`PlanSnapshot`]: persist hot plans across restarts (atomic writes) |
//! | [`store`] | [`SnapshotStore`]: retained, checksum-verified snapshot directory with corrupt-file quarantine |
//! | [`session`] | one stream's state: [`Session`], planning through its own one-shard [`SharedPlanCache`], a shared one, or none |
//! | [`batch`] | [`BatchScheduler`] interleaving many traces over one shared cache (QoS policies, lane quarantine) |
//! | [`service`] | [`ServingLoop`]: background snapshot export + admission GC cadences |
//! | [`stats`] | mergeable per-session counters + shared-cache/scheduler aggregates |
//! | [`fleet`] | consistent-hash tenant placement ([`Ring`]) + the in-process multi-node [`FleetHarness`] |
//! | `faults` | deterministic fault injection (tests and the `fault-injection` feature only) |
//!
//! [`crate::exec::prosparsity_gemm`] re-plans and re-allocates everything on
//! every call. That is the right shape for one-shot algorithm studies but
//! wrong for serving model traces, where the same layer geometry recurs
//! every timestep and the spike matrices are *temporally correlated*: SNN
//! neurons tend to keep (or barely change) their firing pattern across
//! adjacent timesteps, so whole spike tiles repeat verbatim — across
//! timesteps, across layers, and across concurrent requests running the
//! same model. The runtime exploits every form of that redundancy:
//!
//! * **Plan cache** — per-tile meta information is keyed by a fast hash of
//!   the tile's raw bit limbs (verified by full limb comparison, so a hash
//!   collision can never substitute a wrong plan) and held in an LRU. A
//!   repeated tile skips the Detector/Pruner/Dispatcher entirely. Cached
//!   plans are position-independent: the same entry serves a tile wherever
//!   it appears in the grid — or in whichever *session* it appears, when
//!   sessions plan through one [`SharedPlanCache`] (sharded by the top
//!   bits of the content hash, one lock per shard, misses planned outside
//!   the lock and deduplicated on insert).
//! * **Adaptive admission** — a sliding-window hit-rate estimator
//!   ([`AdmissionConfig`]) bypasses cache insertion when the stream is
//!   uncorrelated, so miss-heavy traffic stops paying key-copy + LRU +
//!   eviction bookkeeping for reuse that never materializes; a sparse
//!   probe stream re-opens admission when correlation returns. On a
//!   shared cache the estimator is keyed per *tenant*
//!   ([`Session::with_shared_tenant`]), so co-located hot and cold
//!   streams get independent admission decisions.
//! * **Warm-start snapshots** — the hottest plans of any cache can be
//!   exported to a versioned, checksummed binary [`PlanSnapshot`] and
//!   re-imported after a process restart ([`Session::warm_start`],
//!   [`BatchScheduler::warm_start`]), so a restarted server begins at a
//!   warm hit rate instead of re-planning its whole working set;
//!   restored-plan hits are surfaced as [`EngineStats::restored_hits`].
//! * **Scratch reuse** — cache misses are planned through one persistent
//!   [`PlanScratch`](crate::plan::PlanScratch), so steady-state planning
//!   allocates only for the meta it emits.
//! * **Buffer reuse** — output matrices, the executor arena, and the
//!   spike-chain ping-pong buffers are recycled across layers, calls, and
//!   (via the [`BatchScheduler`]'s persistent lanes) whole traces.
//! * **Caller-thread execution** — a session runs a GeMM's row-tiles in
//!   order on the thread that calls it; concurrency is across lanes
//!   ([`BatchScheduler::run_concurrent`]), one thread per session.
//! * **QoS scheduling + lifecycle** — the [`BatchScheduler`] runs
//!   [`BatchPolicy::Weighted`] (deficit-round-robin step shares; the
//!   default [`BatchPolicy::RoundRobin`] is every weight 1) and
//!   [`BatchPolicy::Deadline`] (earliest-deadline-first over step budgets
//!   with a starvation guard), recorded in [`SchedulerStats`]; a
//!   [`ServingLoop`] adds the long-running-process jobs — background
//!   snapshot export and admission-table GC on step cadences.
//!
//! Losslessness is preserved throughout: for any input,
//! [`Session::gemm_into`] produces bit-for-bit the output of
//! [`crate::exec::prosparsity_gemm`] (and thus of the reference
//! [`spikemat::gemm::spiking_gemm`]) — whatever the cache backend,
//! admission decisions, scheduling policy, or number of concurrent
//! sessions. Plans are pure functions of tile content, so sharing them can
//! change *who* plans, never *what* runs. Cache effectiveness is surfaced
//! through [`EngineStats`] / [`SharedCacheStats`].
//!
//! The runtime is additionally **fault tolerant**: a panicking lane is
//! quarantined ([`LaneFault`]) instead of aborting the batch, a poisoned
//! shared-cache shard recovers by resetting only its own entries, and
//! snapshots are written atomically with retention and corrupt-file
//! quarantine ([`SnapshotStore`]). All of it is exercised by the
//! deterministic fault-injection harness (`faults`, compiled for tests and
//! the `fault-injection` feature) and accounted in [`SchedulerStats`].

pub mod batch;
pub mod cache;
#[cfg(any(test, feature = "fault-injection"))]
pub mod faults;
pub mod fleet;
pub mod service;
pub mod session;
pub mod shared;
pub mod snapshot;
pub mod stats;
pub mod store;

pub use batch::{BatchPolicy, BatchScheduler, LaneFault, TraceStep, DEADLINE_STARVATION_GUARD};
pub use cache::AdmissionConfig;
pub use fleet::{FleetHarness, Ring};
pub use service::{ServiceConfig, ServingLoop};
pub use session::{Session, SliceRun};
pub use shared::SharedPlanCache;
pub use snapshot::{ImportReport, PlanSnapshot, SnapshotError};
pub use stats::{EngineStats, SchedulerStats, SharedCacheStats};
pub use store::SnapshotStore;

use spikemat::gemm::OutputMatrix;
use spikemat::{SpikeMatrix, TileShape};
use std::ops::AddAssign;

/// Element types the engine can accumulate: `Send + Sync` so sessions and
/// their weights can serve lanes on other threads (every integer and float
/// type qualifies).
pub trait Element: Copy + Default + AddAssign + Send + Sync + 'static {}
impl<T: Copy + Default + AddAssign + Send + Sync + 'static> Element for T {}

/// Session construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Accelerator tile geometry every GeMM is decomposed under.
    pub tile: TileShape,
    /// Maximum number of cached tile plans (LRU evicted beyond this);
    /// 0 disables the cache entirely. For a session created with
    /// [`Session::with_shared`], capacity belongs to the shared cache and
    /// this field is ignored.
    pub cache_capacity: usize,
    /// Adaptive cache-insertion bypass; `None` always admits (the
    /// historical behaviour).
    pub admission: Option<AdmissionConfig>,
}

impl EngineConfig {
    /// Config with the given tile geometry and cache capacity, no
    /// admission policy.
    pub fn new(tile: TileShape, cache_capacity: usize) -> Self {
        Self {
            tile,
            cache_capacity,
            admission: None,
        }
    }

    /// Enables the adaptive insertion-bypass policy.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = Some(admission);
        self
    }
}

impl Default for EngineConfig {
    /// The paper's default tile geometry with a 1024-plan cache.
    fn default() -> Self {
        Self::new(TileShape::prosperity_default(), 1024)
    }
}

/// Binarizes an integer/float output into spikes: bit `(i, j)` fires iff
/// `values[i][j] >= threshold`. `out` is resized in place (the session's
/// layer-chaining step).
pub fn threshold_spikes<T: Copy + Default + AddAssign + PartialOrd>(
    values: &OutputMatrix<T>,
    threshold: T,
    out: &mut SpikeMatrix,
) {
    out.reset(values.rows(), values.cols());
    for i in 0..values.rows() {
        for (j, v) in values.row(i).iter().enumerate() {
            if *v >= threshold {
                out.set(i, j, true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_spikes_binarizes() {
        let mut o = OutputMatrix::<i64>::zeros(2, 3);
        o.accumulate_row(0, &[3, -1, 2]);
        o.accumulate_row(1, &[0, 2, 1]);
        let mut s = SpikeMatrix::zeros(9, 9);
        threshold_spikes(&o, 2, &mut s);
        assert_eq!(s, SpikeMatrix::from_rows_of_bits(&[&[1, 0, 1], &[0, 1, 0]]));
    }

    #[test]
    fn config_builders_compose() {
        let c =
            EngineConfig::new(TileShape::new(4, 4), 8).with_admission(AdmissionConfig::default());
        assert_eq!(c.cache_capacity, 8);
        assert!(c.admission.is_some());
        assert_eq!(EngineConfig::default().admission, None);
    }
}
