//! One serving session: plan cache handle, planner scratch, and recycled
//! buffers that persist across GeMMs, layers, and timesteps.

use std::sync::Arc;

use crate::exec::execute_row_tiles;
use crate::plan::{build_tile_meta, PlanScratch, TileMeta};
use spikemat::gemm::{OutputMatrix, WeightMatrix};
use spikemat::SpikeMatrix;

use super::cache::{hash_limbs, Admission, InsertOutcome};
use super::shared::SharedPlanCache;
use super::snapshot::{ImportReport, PlanSnapshot};
use super::stats::EngineStats;
use super::{Element, EngineConfig};
use std::sync::Mutex;

/// What one [`Session::gemm_slice`] visit accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceRun {
    /// Row-tiles executed by this slice (0 only for a degenerate GeMM with
    /// no planned row-tiles, which completes in one visit).
    pub row_tiles: usize,
    /// Whether this slice executed the GeMM's last row-tile. The output is
    /// complete — and may be observed — only once this is true.
    pub done: bool,
}

/// Resumable position inside one planned GeMM: [`Session::gemm_slice`]
/// plans on its first visit and then walks `next_row_tile` through
/// `row_tiles` across visits, so a scheduler can preempt the session
/// between row-tiles. The plans, executor arena, and spike-chain buffers
/// all live on the session, so nothing is re-derived on resume.
#[derive(Debug, Default)]
struct StepCursor {
    /// Next unexecuted row-tile of the in-flight GeMM.
    next_row_tile: usize,
    /// Total row-tiles the in-flight GeMM planned.
    row_tiles: usize,
}

impl StepCursor {
    /// Whether a sliced GeMM is in flight (planned but not fully executed).
    fn active(&self) -> bool {
        self.next_row_tile < self.row_tiles
    }
}

/// A reusable end-to-end execution session: plan cache, planner scratch, and
/// recycled buffers that persist across GeMMs, layers, and timesteps.
///
/// One session serves one logical stream of spiking GeMMs (a model being
/// replayed timestep after timestep). It is `&mut self` throughout and
/// executes every GeMM and every slice on the calling thread, one row-tile
/// at a time, as the accelerator's datapath does. Parallelism is across
/// *streams*: give each its own session, share planning work through one
/// [`SharedPlanCache`] ([`Session::with_shared`]), and run the lanes of a
/// [`BatchScheduler`](super::BatchScheduler) on their own threads with
/// [`run_concurrent`](super::BatchScheduler::run_concurrent).
///
/// ```
/// use prosperity_core::engine::Session;
/// use spikemat::gemm::{spiking_gemm, OutputMatrix, WeightMatrix};
/// use spikemat::SpikeMatrix;
///
/// let mut session = Session::<i64>::default();
/// let spikes = SpikeMatrix::from_rows_of_bits(&[&[1, 0, 1], &[1, 0, 1]]);
/// let weights = WeightMatrix::from_fn(3, 2, |r, c| (r + c) as i64);
/// let mut out = OutputMatrix::zeros(0, 0);
/// session.gemm_into(&spikes, &weights, &mut out);
/// assert_eq!(out, spiking_gemm(&spikes, &weights));
/// ```
#[derive(Debug)]
pub struct Session<T = i64> {
    config: EngineConfig,
    /// The plan cache; `None` when caching is off (every tile is planned).
    cache: Option<Arc<SharedPlanCache>>,
    /// Which tenant's admission window this session's cache traffic feeds.
    tenant: u64,
    /// The tenant's admission window, resolved once at construction so the
    /// per-tile hot path locks only this window, never a registry.
    admission: Option<Arc<Mutex<Admission>>>,
    plan_scratch: PlanScratch,
    /// Scratch flat key (the tile's row-major limbs) every lookup hashes
    /// and verifies, and every miss is planned from.
    key_buf: Vec<u64>,
    /// The current GeMM's plans, row-major (`k`-tile `j` of a row group
    /// starts at weight row `j · tile.k`); reused across calls.
    tiles: Vec<Arc<TileMeta>>,
    /// k-tiles per row group of the current GeMM.
    gk: usize,
    /// Sliced-execution position within the current GeMM.
    cursor: StepCursor,
    /// The executor's prefix-row arena, reused by every row-tile and GeMM;
    /// sized in the [`crate::exec`] docs.
    arena: Vec<T>,
    /// Layer output recycled by [`Session::forward_chain`].
    chain_out: OutputMatrix<T>,
    /// Spike-chain ping-pong buffers for [`Session::forward_chain`].
    chain_a: SpikeMatrix,
    chain_b: SpikeMatrix,
    stats: EngineStats,
}

impl<T: Element> Default for Session<T> {
    fn default() -> Self {
        Self::new(EngineConfig::default())
    }
}

impl<T: Element> Session<T> {
    /// Creates a session with its own plan cache: a one-shard
    /// [`SharedPlanCache`] of `config.cache_capacity` plans under
    /// `config.admission`, planned through as tenant `0` (or no cache when
    /// `config.cache_capacity == 0`). One shard keeps eviction a single
    /// global LRU.
    pub fn new(config: EngineConfig) -> Self {
        let cache = (config.cache_capacity > 0).then(|| {
            Arc::new(SharedPlanCache::with_shards(
                config.cache_capacity,
                1,
                config.admission,
            ))
        });
        Self::build(config, cache, 0)
    }

    /// Creates a session planning through a cache shared with other
    /// sessions, as tenant `0`. The shared cache owns capacity and
    /// admission policy; `config.cache_capacity`/`config.admission` are
    /// ignored in this mode. Multi-tenant deployments should use
    /// [`Session::with_shared_tenant`] so each stream gets its own
    /// admission window.
    pub fn with_shared(config: EngineConfig, shared: Arc<SharedPlanCache>) -> Self {
        Self::with_shared_tenant(config, shared, 0)
    }

    /// [`Session::with_shared`] with an explicit tenant id.
    ///
    /// The shared cache's admission policy tracks one sliding window per
    /// tenant, so sessions carrying distinct ids get independent admission
    /// decisions: a hot tenant's hits cannot hold insertion open for a
    /// cold tenant, and a cold tenant's misses cannot close it for a hot
    /// one. Sessions serving the same logical stream should share an id.
    ///
    /// Construction resolves (and generation-stamps) the tenant's window in
    /// the cache's admission table; under admission-table GC
    /// ([`SharedPlanCache::gc_tenants`]) that stamp is what keeps a
    /// returning tenant's registry entry alive. A session whose entry is
    /// GC'd keeps working unchanged — it holds the window's `Arc` — but a
    /// *later* session for the same tenant id starts a fresh window.
    pub fn with_shared_tenant(
        config: EngineConfig,
        shared: Arc<SharedPlanCache>,
        tenant: u64,
    ) -> Self {
        Self::build(config, Some(shared), tenant)
    }

    /// Creates a [`Session::new`] session pre-warmed from a snapshot, so the
    /// first timesteps after a process restart hit instead of re-planning.
    /// Returns the session plus what the import did (a snapshot larger
    /// than the cache degrades to a partial restore of the hottest plans).
    ///
    /// For a shared cache, import into the cache itself instead
    /// ([`SharedPlanCache::import`], or
    /// [`BatchScheduler::warm_start`](super::BatchScheduler::warm_start)).
    pub fn warm_start(config: EngineConfig, snapshot: &PlanSnapshot) -> (Self, ImportReport) {
        let mut session = Self::new(config);
        let report = session.import_snapshot(snapshot);
        (session, report)
    }

    fn build(config: EngineConfig, cache: Option<Arc<SharedPlanCache>>, tenant: u64) -> Self {
        Self {
            config,
            admission: cache.as_ref().and_then(|c| c.admission_handle(tenant)),
            cache,
            tenant,
            plan_scratch: PlanScratch::new(),
            key_buf: Vec::new(),
            tiles: Vec::new(),
            gk: 0,
            cursor: StepCursor::default(),
            arena: Vec::new(),
            chain_out: OutputMatrix::zeros(0, 0),
            chain_a: SpikeMatrix::zeros(0, 0),
            chain_b: SpikeMatrix::zeros(0, 0),
            stats: EngineStats::default(),
        }
    }

    /// The session's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The cache this session plans through — its own or one shared with
    /// other sessions — or `None` when caching is off.
    pub fn shared_cache(&self) -> Option<&Arc<SharedPlanCache>> {
        self.cache.as_ref()
    }

    /// The tenant id this session's cache admission traffic is keyed by
    /// (0 unless set via [`Session::with_shared_tenant`]).
    pub fn tenant(&self) -> u64 {
        self.tenant
    }

    /// Exports the up-to-`n` hottest plans of this session's cache as a
    /// [`PlanSnapshot`] (for a shared cache: the whole fleet's hottest,
    /// exported shard by shard without a global pause). With caching off
    /// the snapshot is empty.
    pub fn export_snapshot(&self, n: usize) -> PlanSnapshot {
        self.cache
            .as_ref()
            .map_or_else(PlanSnapshot::default, |c| c.export_hottest(n))
    }

    /// Restores a snapshot's plans into this session's cache (see
    /// [`Session::warm_start`] for the usual entry point). Respects
    /// capacity — surplus entries are dropped, never evicting live ones —
    /// and leaves admission state untouched. Entries whose tile geometry
    /// does not match this session's `config.tile` are dropped as
    /// [`ImportReport::skipped_shape`] (a decoded snapshot is internally
    /// consistent, but only the importer knows the shape it serves). With
    /// caching off every matching entry is reported as skipped for
    /// capacity.
    pub fn import_snapshot(&mut self, snapshot: &PlanSnapshot) -> ImportReport {
        let tile = self.config.tile;
        if let Some(c) = &self.cache {
            return c.import(snapshot, tile);
        }
        let skipped_shape = snapshot
            .entries
            .iter()
            .filter(|e| !e.matches_shape(tile.m, tile.k))
            .count();
        ImportReport {
            requested: snapshot.len(),
            skipped_capacity: snapshot.len() - skipped_shape,
            skipped_shape,
            ..ImportReport::default()
        }
    }

    /// Cache/reuse counters accumulated since the last
    /// [`Session::reset_stats`].
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Zeroes the statistics counters (the cache itself is untouched).
    pub fn reset_stats(&mut self) {
        self.stats = EngineStats::default();
    }

    /// Number of tile plans currently resident in this session's cache
    /// (for a shared cache: all sessions' plans).
    pub fn cached_plans(&self) -> usize {
        self.cache.as_ref().map_or(0, |c| c.len())
    }

    /// Plans one spike matrix through the tile cache, leaving the plans in
    /// `self.tiles` (row-major).
    fn plan(&mut self, spikes: &SpikeMatrix) {
        let shape = self.config.tile;
        let (gm, gk) = shape.grid(spikes.rows(), spikes.cols());
        self.gk = gk;
        self.tiles.clear();
        for ti in 0..gm {
            for tj in 0..gk {
                self.stats.tiles += 1;
                let meta = self.plan_tile(spikes, ti * shape.m, tj * shape.k);
                self.tiles.push(meta);
            }
        }
    }

    /// Resolves one tile to a plan: cache hit, or plan-and-offer.
    ///
    /// The tile's key is built straight from the spike rows; a lookup
    /// hashes and verifies it, and a miss (every tile when caching is off)
    /// is planned from it, so no tile is extracted. Planning happens
    /// *outside* the shard lock so concurrent sessions sharing a cache
    /// overlap their Detector/Pruner work; the offer afterwards
    /// deduplicates racing planners (identical by construction — planning
    /// is a pure function of the tile bits).
    fn plan_tile(
        &mut self,
        spikes: &SpikeMatrix,
        row_start: usize,
        col_start: usize,
    ) -> Arc<TileMeta> {
        let Self {
            config,
            cache,
            plan_scratch,
            key_buf,
            admission,
            stats,
            ..
        } = self;
        let shape = config.tile;
        spikes.tile_key_into(row_start, col_start, shape.m, shape.k, key_buf);
        let key: &[u64] = key_buf;
        let mut fresh = || Arc::new(build_tile_meta(key, shape.m, shape.k, plan_scratch).0);
        let Some(cache) = cache else {
            stats.cache_misses += 1;
            return fresh();
        };
        let admission = admission.as_deref();
        let hash = hash_limbs(key);
        if let Some((meta, restored)) = cache.lookup(hash, key, admission) {
            stats.cache_hits += 1;
            stats.restored_hits += u64::from(restored);
            return meta;
        }
        stats.cache_misses += 1;
        let (meta, outcome) = cache.insert(hash, key, fresh(), admission);
        match outcome {
            // Deduplicated: a racing session won the insert; the resident
            // plan is used and no admission bypass is recorded (none
            // happened).
            InsertOutcome::Inserted | InsertOutcome::Deduplicated => {}
            InsertOutcome::Evicted => stats.cache_evictions += 1,
            InsertOutcome::Bypassed => stats.cache_bypasses += 1,
        }
        meta
    }

    /// Executes one spiking GeMM into `out` (resized in place, so a reused
    /// buffer makes the call allocation-free apart from cache insertions).
    ///
    /// Bit-identical to [`crate::exec::prosparsity_gemm`] with this
    /// session's tile shape; row-tiles run in order on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if `spikes.cols() != weights.rows()`. Debug builds also
    /// panic while a sliced GeMM is in flight.
    pub fn gemm_into(
        &mut self,
        spikes: &SpikeMatrix,
        weights: &WeightMatrix<T>,
        out: &mut OutputMatrix<T>,
    ) {
        debug_assert!(
            !self.cursor.active(),
            "gemm_into while a sliced GeMM is in flight"
        );
        self.gemm_slice(spikes, weights, out, 0);
    }

    /// Convenience [`Session::gemm_into`] allocating a fresh output.
    pub fn gemm(&mut self, spikes: &SpikeMatrix, weights: &WeightMatrix<T>) -> OutputMatrix<T> {
        let mut out = OutputMatrix::zeros(0, 0);
        self.gemm_into(spikes, weights, &mut out);
        out
    }

    /// Executes up to `max_row_tiles` row-tiles of one spiking GeMM and
    /// yields — the preemptible form of [`Session::gemm_into`].
    ///
    /// The first visit plans the whole GeMM (one plan-cache pass) and
    /// resets `out`; each visit then executes a bounded slice of row-tiles.
    /// Keep calling with the *same* `spikes`, `weights`, and `out` until the
    /// returned [`SliceRun::done`] is true; only then is `out` the complete
    /// GeMM result. Row-tiles are
    /// independent (no output element or scratch state crosses a row-group
    /// boundary), so any partition into slices is bit-identical to the
    /// one-shot call.
    ///
    /// `max_row_tiles == 0` means "the rest of the GeMM": `gemm_into` is
    /// this call with 0. `gemms`/`tiles`/`plan_ns` accrue once at plan
    /// time, `exec_ns` accrues per slice.
    ///
    /// # Panics
    ///
    /// Panics if `spikes.cols() != weights.rows()` (checked at plan time).
    // analyze: hot-path
    pub fn gemm_slice(
        &mut self,
        spikes: &SpikeMatrix,
        weights: &WeightMatrix<T>,
        out: &mut OutputMatrix<T>,
        max_row_tiles: usize,
    ) -> SliceRun {
        self.slice_prepare(spikes, weights, out);
        let (start, count) = self.slice_bounds(max_row_tiles);
        let executed = std::time::Instant::now();
        self.execute_slice(weights, out, start, count);
        self.stats.exec_ns += executed.elapsed().as_nanos() as u64;
        self.slice_advance(count)
    }

    /// Whether a sliced GeMM is in flight (planned, not yet fully
    /// executed). While true, the only valid operations are further
    /// `gemm_slice` visits for the same GeMM or [`Session::reset_slice`].
    pub fn slice_in_flight(&self) -> bool {
        self.cursor.active()
    }

    /// Abandons an in-flight sliced GeMM (its partial output is left as-is
    /// and must not be observed). The next `gemm_slice` call plans fresh.
    pub fn reset_slice(&mut self) {
        self.cursor = StepCursor::default();
    }

    /// Row-tiles (row groups) the most recent plan placed.
    fn planned_row_tiles(&self) -> usize {
        self.tiles.len().checked_div(self.gk).unwrap_or(0)
    }

    /// First-visit planning for `gemm_slice`: plans + resets the output
    /// and arms the cursor; resumed visits only sanity-check geometry.
    fn slice_prepare(
        &mut self,
        spikes: &SpikeMatrix,
        weights: &WeightMatrix<T>,
        out: &mut OutputMatrix<T>,
    ) {
        if !self.cursor.active() {
            self.gemm_prepare(spikes, weights, out);
            self.cursor = StepCursor {
                next_row_tile: 0,
                row_tiles: self.planned_row_tiles(),
            };
        } else {
            debug_assert_eq!(
                (out.rows(), out.cols()),
                (spikes.rows(), weights.cols()),
                "gemm_slice: GeMM geometry changed mid-flight"
            );
        }
    }

    /// The `[start, start + count)` row-tile range the next slice covers.
    // analyze: hot-path
    fn slice_bounds(&self, max_row_tiles: usize) -> (usize, usize) {
        let start = self.cursor.next_row_tile;
        let remaining = self.cursor.row_tiles - start;
        let count = if max_row_tiles == 0 {
            remaining
        } else {
            remaining.min(max_row_tiles)
        };
        (start, count)
    }

    /// Advances the cursor past an executed slice; past the GeMM's last
    /// row-tile no slice is in flight.
    // analyze: hot-path
    fn slice_advance(&mut self, count: usize) -> SliceRun {
        self.cursor.next_row_tile += count;
        SliceRun {
            row_tiles: count,
            done: !self.cursor.active(),
        }
    }

    /// Plan + output-shape phase of a GeMM's first slice.
    fn gemm_prepare(
        &mut self,
        spikes: &SpikeMatrix,
        weights: &WeightMatrix<T>,
        out: &mut OutputMatrix<T>,
    ) {
        assert_eq!(
            spikes.cols(),
            weights.rows(),
            "engine: spike K={} does not match weight rows {}",
            spikes.cols(),
            weights.rows()
        );
        debug_assert!(
            !self.cursor.active(),
            "planning a new GeMM while a sliced GeMM is in flight \
             (finish the gemm_slice sequence or call reset_slice first)"
        );
        self.stats.gemms += 1;
        let planned = std::time::Instant::now();
        self.plan(spikes);
        self.stats.plan_ns += planned.elapsed().as_nanos() as u64;
        out.reset(spikes.rows(), weights.cols());
    }

    /// Executes `count` row-tiles starting at row group `start` of the last
    /// plan into their chunks of `out`, in order, through one recycled arena.
    // analyze: hot-path
    fn execute_slice(
        &mut self,
        weights: &WeightMatrix<T>,
        out: &mut OutputMatrix<T>,
        start: usize,
        count: usize,
    ) {
        let n = weights.cols();
        if count == 0 || n == 0 {
            return;
        }
        let Self {
            config,
            tiles,
            gk,
            arena,
            ..
        } = self;
        execute_row_tiles(
            tiles,
            *gk,
            weights,
            out.as_mut_slice(),
            start,
            count,
            arena,
            config.tile.m,
            n,
        );
    }

    /// Runs a feed-forward chain: layer `ℓ`'s integer output is thresholded
    /// (`v >= threshold` fires) into the spike input of layer `ℓ+1`, using
    /// the session's recycled ping-pong buffers, and the final layer's
    /// spikes are left in `out_spikes` (resized in place). No steady-state
    /// allocation once the buffers are warm.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty, the input does not match the first
    /// layer, or adjacent layer shapes do not chain (`N_ℓ != K_{ℓ+1}`).
    pub fn forward_chain(
        &mut self,
        input: &SpikeMatrix,
        layers: &[WeightMatrix<T>],
        threshold: T,
        out_spikes: &mut SpikeMatrix,
    ) where
        T: PartialOrd,
    {
        assert!(!layers.is_empty(), "forward_chain needs at least one layer");
        assert_eq!(
            input.cols(),
            layers[0].rows(),
            "forward_chain: input K={} does not match weight rows {}",
            input.cols(),
            layers[0].rows()
        );
        for (i, pair) in layers.windows(2).enumerate() {
            assert_eq!(
                pair[0].cols(),
                pair[1].rows(),
                "forward_chain: layer {} output N={} does not chain into layer {} K={}",
                i,
                pair[0].cols(),
                i + 1,
                pair[1].rows()
            );
        }
        let mut acc = std::mem::take(&mut self.chain_out);
        let mut ping = std::mem::take(&mut self.chain_a);
        let mut pong = std::mem::take(&mut self.chain_b);
        for (i, weights) in layers.iter().enumerate() {
            let src: &SpikeMatrix = if i == 0 { input } else { &ping };
            self.gemm_into(src, weights, &mut acc);
            super::threshold_spikes(&acc, threshold, &mut pong);
            std::mem::swap(&mut ping, &mut pong);
        }
        // Final spikes are in `ping`; hand them to the caller and keep the
        // other buffer (plus whatever the caller passed in) for reuse.
        std::mem::swap(out_spikes, &mut ping);
        self.chain_out = acc;
        self.chain_a = ping;
        self.chain_b = pong;
    }
}

#[cfg(test)]
#[path = "session_tests.rs"]
mod tests;
