//! The concurrent shard layer over the plan cache: a [`SharedPlanCache`]
//! any number of sessions hit together, with admission tracked *per
//! tenant* and snapshot export that never stops the world.
//!
//! Sharding covers concurrency: the key space is split across power-of-two
//! shards by the top bits of the content hash, one mutexed LRU per shard,
//! so sessions contend only on same-shard tiles and misses are planned
//! outside any lock. Admission, by contrast, is a *stream* property, not a
//! key-space property — a tenant replaying a correlated trace should keep
//! inserting while an uncorrelated tenant sharing the cache gets bypassed
//! — so the sliding-window estimators live in a per-tenant table beside
//! the shards, keyed by the session's tenant id. Snapshot export locks one
//! shard at a time and interleaves the per-shard recency lists, so a
//! serving fleet can checkpoint its hot plans without a global pause.
//!
//! **Fault tolerance.** A lane that panics while holding a shard mutex
//! (the scheduler catches the panic and quarantines the lane — see
//! [`BatchScheduler`](super::BatchScheduler)) leaves that mutex poisoned.
//! Rather than propagating the poison to every other tenant, all lock
//! acquisitions go through recovery helpers: a poisoned *shard* has its
//! entries dropped (the panicking lane may have left the LRU mid-update)
//! and the event counted in [`SharedCacheStats::shard_resets`]; poisoned
//! admission state is adopted as-is, since the sliding-window estimators
//! are advisory counters that no partial update can corrupt structurally.
//! Only the affected shard loses its plans — the other shards, and every
//! surviving tenant, keep serving.

use crate::plan::TileMeta;
use spikemat::TileShape;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use super::cache::{Admission, AdmissionConfig, InsertOutcome, PlanCache};
use super::snapshot::{ImportReport, PlanSnapshot, SnapshotEntry};
use super::stats::SharedCacheStats;

/// Locks `m`, adopting the state as-is if a previous holder panicked
/// (clearing the poison so later acquisitions stay on the fast path).
///
/// Correct only for state that stays structurally valid under a partial
/// update — advisory counters, admission estimators, collected fault
/// lists. Shard caches instead go through `SharedPlanCache::lock_shard`,
/// which resets the recovered shard's entries.
pub(crate) fn lock_recovering<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            m.clear_poison();
            poisoned.into_inner()
        }
    }
}

/// Per-shard aggregate counters, updated under the shard lock.
#[derive(Debug, Default, Clone, Copy)]
struct ShardCounters {
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    bypasses: u64,
    dedups: u64,
    restored_hits: u64,
    /// Nanoseconds this shard's mutex was held across lookups and
    /// insertions (acquisition → release), the serving hot path's
    /// contention budget. Updated under the lock already held, so lanes
    /// on other shards never write the same counter.
    lock_hold_ns: u64,
}

/// One lock domain of the shared cache.
#[derive(Debug)]
struct Shard {
    cache: PlanCache,
    counters: ShardCounters,
}

/// Registry of the cache's tenants and (when an admission policy is
/// configured) their per-tenant sliding-window admission estimators.
///
/// Every tenant gets its own [`Admission`] window behind its own mutex,
/// created lazily when the first session for that tenant asks for a
/// [`handle`](AdmissionTable::handle), so admission decisions are
/// independent across tenants: one hot tenant's hits cannot hold
/// insertion open for a cold tenant (the historical per-shard leak), and
/// one cold tenant's misses cannot close it for a hot one.
///
/// The table exists even without an admission policy — entries are then
/// liveness-only (no window), so [`SharedCacheStats::tenants`] still
/// reports how many tenants registered sessions and GC still bounds the
/// registry under churn. (The historical bug: the whole table was gated
/// on the policy, so every no-admission deployment reported 0 tenants.)
///
/// Admission is consulted on every lookup and every insert, so the hot
/// path must not funnel through any table-wide lock — that would
/// re-introduce exactly the global serialization point the cache shards
/// exist to avoid. Sessions therefore resolve their tenant's
/// `Arc<Mutex<Admission>>` handle *once* at construction and hit only
/// that mutex afterwards; the registry's own mutex is touched once per
/// session (plus `stats()`), never per tile. Sessions of the *same*
/// tenant still serialize on their shared window — that is the
/// semantics, not a bottleneck to engineer away.
///
/// Deployments with *unbounded* tenant churn (ids minted per request, or a
/// long-lived process serving an open tenant population) would otherwise
/// grow the table forever, so windows carry a last-touched **generation**
/// stamp: every [`handle`](AdmissionTable::handle) resolution stamps the
/// current generation, every [`gc`](AdmissionTable::gc) sweep advances it
/// and evicts windows idle for more than the caller's threshold. Eviction
/// only drops the *registry entry* — sessions still holding the window's
/// `Arc` keep functioning unchanged; a new session for the same tenant id
/// simply starts a fresh window. The
/// [`ServingLoop`](super::ServingLoop) schedules sweeps on a step cadence.
#[derive(Debug)]
struct AdmissionTable {
    /// Admission policy applied per tenant; `None` registers tenants
    /// without windows (liveness tracking only).
    cfg: Option<AdmissionConfig>,
    /// GC clock: advanced once per [`AdmissionTable::gc`] sweep.
    generation: AtomicU64,
    states: Mutex<HashMap<u64, TenantWindow>>,
}

/// One tenant's registry entry: its admission window (when the cache has
/// an admission policy) plus its GC bookkeeping.
#[derive(Debug)]
struct TenantWindow {
    window: Option<Arc<Mutex<Admission>>>,
    /// Generation at which this tenant last resolved its handle.
    last_touch: u64,
}

impl AdmissionTable {
    fn new(cfg: Option<AdmissionConfig>) -> Self {
        Self {
            cfg,
            generation: AtomicU64::new(0),
            states: Mutex::new(HashMap::new()),
        }
    }

    /// Registers `tenant` (stamping the current GC generation either way)
    /// and returns its shared admission window — created on first request,
    /// `None` when the cache has no admission policy.
    fn handle(&self, tenant: u64) -> Option<Arc<Mutex<Admission>>> {
        let mut states = lock_recovering(&self.states);
        // Read the generation under the states lock so the stamp
        // linearizes with concurrent `gc` sweeps (a sweep between load and
        // stamp would otherwise record a one-generation-stale touch).
        let generation = self.generation.load(Ordering::Relaxed);
        let cfg = self.cfg;
        let entry = states.entry(tenant).or_insert_with(|| TenantWindow {
            window: cfg.map(|c| Arc::new(Mutex::new(Admission::new(c)))),
            last_touch: generation,
        });
        entry.last_touch = generation;
        entry.window.clone()
    }

    /// Re-stamps `tenant`'s last touch to the current generation, if its
    /// window is still registered (never creates one). The serving loop
    /// calls this for its live lanes before each sweep so *actively
    /// executing* tenants can never be evicted mid-batch — handle
    /// resolution alone only marks batch starts.
    fn touch(&self, tenant: u64) {
        let mut states = lock_recovering(&self.states);
        let generation = self.generation.load(Ordering::Relaxed);
        if let Some(entry) = states.get_mut(&tenant) {
            entry.last_touch = generation;
        }
    }

    /// One GC sweep: evicts every window whose last touch is more than
    /// `max_idle` generations old (idle 0 = touched since the previous
    /// sweep), then advances the generation. Returns the number evicted.
    /// The clock is read and advanced under the states lock, so stamps
    /// ([`handle`](AdmissionTable::handle)/[`touch`](AdmissionTable::touch))
    /// linearize with sweeps.
    fn gc(&self, max_idle: u64) -> usize {
        let mut states = lock_recovering(&self.states);
        let generation = self.generation.load(Ordering::Relaxed);
        let before = states.len();
        states.retain(|_, w| generation.saturating_sub(w.last_touch) <= max_idle);
        // Advance *after* the sweep, so a window stamped since the
        // previous sweep measures idle 0 at this one.
        self.generation.store(generation + 1, Ordering::Relaxed);
        before - states.len()
    }

    fn tenant_count(&self) -> usize {
        lock_recovering(&self.states).len()
    }
}

/// A concurrent tile-plan cache shared by any number of sessions.
///
/// The key space is split across `2^shard_bits` independent shards by the
/// top bits of the content hash; each shard is a content-addressed LRU
/// behind its
/// own mutex, so sessions planning concurrently contend only when their
/// tiles land in the same shard. Misses are planned *outside* the lock and
/// offered afterwards through an insert that deduplicates racing
/// planners: if another session inserted the same tile first, the resident
/// plan is returned and the duplicate dropped, so memory is shared and
/// results are (trivially — planning is deterministic) bit-identical.
///
/// Eviction is per shard (capacity is divided evenly), so global recency is
/// approximate; with a content-addressed cache this only affects *which*
/// plan is evicted, never correctness. Admission (when configured) is
/// tracked per *tenant*, not per shard — see
/// [`Session::with_shared_tenant`](super::Session::with_shared_tenant).
///
/// ```
/// use prosperity_core::engine::{EngineConfig, Session, SharedPlanCache};
/// use spikemat::gemm::{spiking_gemm, OutputMatrix, WeightMatrix};
/// use spikemat::SpikeMatrix;
/// use std::sync::Arc;
///
/// // Two sessions plan through one cache: whichever session plans a tile
/// // first warms it for the other, bit-identically.
/// let shared = Arc::new(SharedPlanCache::new(1024));
/// let config = EngineConfig::default();
/// let mut a = Session::<i64>::with_shared(config, Arc::clone(&shared));
/// let mut b = Session::<i64>::with_shared(config, Arc::clone(&shared));
///
/// let spikes = SpikeMatrix::from_rows_of_bits(&[&[1, 0, 1], &[1, 1, 1]]);
/// let weights = WeightMatrix::from_fn(3, 2, |r, c| (r + 2 * c) as i64);
/// let mut out = OutputMatrix::zeros(0, 0);
/// a.gemm_into(&spikes, &weights, &mut out);
/// b.gemm_into(&spikes, &weights, &mut out);
/// assert_eq!(out, spiking_gemm(&spikes, &weights));
/// // Session `a` planned the tiles; session `b` reused every one of them.
/// assert_eq!(b.stats().cache_misses, 0);
/// assert_eq!(shared.stats().dedups, 0);
/// ```
#[derive(Debug)]
pub struct SharedPlanCache {
    shards: Box<[Mutex<Shard>]>,
    shard_bits: u32,
    capacity: usize,
    /// Tenant registry (admission windows when a policy is configured;
    /// liveness-only entries otherwise).
    admission: AdmissionTable,
    /// Poisoned shards recovered (entries dropped) — see module docs.
    shard_resets: AtomicU64,
}

impl SharedPlanCache {
    /// Shard count ceiling for [`SharedPlanCache::recommended_shards`].
    const MAX_RECOMMENDED_SHARDS: usize = 64;

    /// Creates a shared cache with `capacity` total plans, no admission
    /// policy, and a shard count derived from the host's parallelism and
    /// the capacity ([`SharedPlanCache::recommended_shards`]). Use
    /// [`SharedPlanCache::with_shards`] to pin an explicit shard count.
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, Self::recommended_shards(capacity), None)
    }

    /// The shard count [`SharedPlanCache::new`] would pick for `capacity`:
    /// about four lock domains per hardware thread — measured
    /// `lock_hold_ns` per operation is flat from 1 to 4+ threads' worth of
    /// shards on the serving bench, so the extra headroom costs nothing —
    /// rounded up to a power of two, capped at 64, and never more than one
    /// shard per 8 plans of capacity so tiny caches don't fragment into
    /// single-slot LRUs (a 0-capacity cache gets 1 shard).
    pub fn recommended_shards(capacity: usize) -> usize {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let by_threads = (threads * 4)
            .next_power_of_two()
            .min(Self::MAX_RECOMMENDED_SHARDS);
        let by_capacity = (capacity / 8).max(1).next_power_of_two();
        by_threads.min(by_capacity)
    }

    /// Creates a shared cache with an explicit shard count (rounded up to a
    /// power of two, at least 1) and optional admission policy (tracked per
    /// tenant). The requested `capacity` is divided evenly across shards,
    /// rounding each shard *up* so a tiny capacity still gives every shard
    /// at least one slot; [`SharedPlanCache::capacity`] reports the
    /// resulting effective total (`per_shard × shards`, ≥ the request), so
    /// `resident` can never exceed the advertised capacity.
    pub fn with_shards(capacity: usize, shards: usize, admission: Option<AdmissionConfig>) -> Self {
        let n = shards.max(1).next_power_of_two();
        let shard_bits = n.trailing_zeros();
        let per_shard = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(n)
        };
        let capacity = per_shard * n;
        let shards = (0..n)
            .map(|_| {
                Mutex::new(Shard {
                    cache: PlanCache::new(per_shard),
                    counters: ShardCounters::default(),
                })
            })
            .collect();
        Self {
            shards,
            shard_bits,
            capacity,
            admission: AdmissionTable::new(admission),
            shard_resets: AtomicU64::new(0),
        }
    }

    /// Locks a shard, recovering from poison by dropping the shard's
    /// entries: a lane that panicked under this lock may have left the
    /// LRU mid-update, so the shard restarts cold (its plans are
    /// re-planned on demand — deterministically, so results are
    /// unchanged) rather than serving possibly-torn state. Each recovery
    /// bumps [`SharedPlanCache::shard_resets`]; counters and the other
    /// shards are untouched.
    fn lock_shard<'a>(&self, m: &'a Mutex<Shard>) -> std::sync::MutexGuard<'a, Shard> {
        match m.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                m.clear_poison();
                let mut guard = poisoned.into_inner();
                guard.cache.clear();
                self.shard_resets.fetch_add(1, Ordering::Relaxed);
                guard
            }
        }
    }

    /// Poisoned shard mutexes recovered so far (entries dropped, serving
    /// continued). Also reported as [`SharedCacheStats::shard_resets`].
    pub fn shard_resets(&self) -> u64 {
        self.shard_resets.load(Ordering::Relaxed)
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Effective total plan capacity across all shards (the construction
    /// request rounded up to a whole number of slots per shard).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Plans currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| self.lock_shard(s).cache.len())
            .sum()
    }

    /// Whether no plans are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Zeroes the per-shard aggregate counters (hits, misses, insertions,
    /// evictions, bypasses, dedups, restored hits, lock hold time). Cache
    /// contents, residency, and admission state are untouched — this resets
    /// the *ledger*, not the cache. Visible to every session sharing this
    /// cache, so call it at a quiesced point (e.g.
    /// [`BatchScheduler::reset_stats`](super::BatchScheduler::reset_stats)
    /// between measurement windows).
    pub fn reset_stats(&self) {
        for s in self.shards.iter() {
            self.lock_shard(s).counters = ShardCounters::default();
        }
    }

    /// One tenant-table GC sweep: advances the table's generation clock
    /// and evicts every tenant entry that has not resolved a handle
    /// (session construction, [`BatchScheduler::begin_batch_as`]) for more
    /// than `max_idle` sweeps. Returns the number of entries evicted.
    /// Without an admission policy the entries are liveness-only, but GC
    /// still bounds the registry under tenant churn.
    ///
    /// Sessions still holding an evicted window's handle keep working —
    /// only the registry entry is dropped, bounding the table under
    /// unbounded tenant churn; a later session for the same tenant id
    /// starts a fresh window. The [`ServingLoop`](super::ServingLoop) runs
    /// sweeps on a step cadence
    /// ([`ServiceConfig::gc_every`](super::ServiceConfig)).
    ///
    /// [`BatchScheduler::begin_batch_as`]: super::BatchScheduler::begin_batch_as
    pub fn gc_tenants(&self, max_idle: u64) -> usize {
        self.admission.gc(max_idle)
    }

    /// Marks `tenant` as alive *now* for tenant-table GC purposes, without
    /// registering it (a no-op for unknown tenants). Handle resolution
    /// only stamps batch starts; the serving loop calls this for its live
    /// lanes before each sweep so a tenant in the middle of a long batch
    /// is never treated as idle.
    pub fn touch_tenant(&self, tenant: u64) {
        self.admission.touch(tenant);
    }

    /// Aggregate counters summed over shards at this instant.
    pub fn stats(&self) -> SharedCacheStats {
        let mut out = SharedCacheStats {
            shards: self.shards.len(),
            capacity: self.capacity,
            tenants: self.admission.tenant_count(),
            ..SharedCacheStats::default()
        };
        for s in self.shards.iter() {
            let s = self.lock_shard(s);
            out.hits += s.counters.hits;
            out.misses += s.counters.misses;
            out.insertions += s.counters.insertions;
            out.evictions += s.counters.evictions;
            out.bypasses += s.counters.bypasses;
            out.dedups += s.counters.dedups;
            out.restored_hits += s.counters.restored_hits;
            out.lock_hold_ns += s.counters.lock_hold_ns;
            out.resident += s.cache.len();
            out.restored_resident += s.cache.restored_resident();
        }
        // Read after the loop: locking every shard above recovers any
        // still-poisoned shard, so the count is settled by now.
        out.shard_resets = self.shard_resets.load(Ordering::Relaxed);
        out
    }

    /// Exports the up-to-`n` hottest plans across all shards as a
    /// [`PlanSnapshot`], without stopping the world: shards are locked one
    /// at a time, and their recency lists are interleaved rank-by-rank
    /// (every shard's MRU entry before any shard's second entry), the same
    /// approximation of global recency that per-shard eviction already
    /// accepts.
    pub fn export_hottest(&self, n: usize) -> PlanSnapshot {
        // First pass: shard depths only, so the clone work below can be
        // bounded — without this, every shard would have to export up to
        // `n` entries (shards × n clones under the locks) for the merge
        // to keep only `n`.
        let lens: Vec<usize> = self
            .shards
            .iter()
            .map(|s| self.lock_shard(s).cache.len())
            .collect();
        let target = n.min(lens.iter().sum());
        // Smallest per-shard depth whose rank interleave covers `target`
        // entries; at most `target + shards` entries are then cloned.
        let (mut lo, mut hi) = (0usize, lens.iter().copied().max().unwrap_or(0));
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if lens.iter().map(|&l| l.min(mid)).sum::<usize>() >= target {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let depth = lo;
        // Second pass: export and merge. A shard mutated between the
        // passes can only make the export slightly smaller or staler —
        // the same approximation concurrent eviction already imposes.
        let mut per_shard: Vec<std::vec::IntoIter<SnapshotEntry>> = self
            .shards
            .iter()
            .zip(&lens)
            .map(|(s, &l)| {
                self.lock_shard(s)
                    .cache
                    .export_hottest(l.min(depth))
                    .into_iter()
            })
            .collect();
        let mut entries = Vec::with_capacity(target);
        'merge: for _rank in 0..depth {
            for shard in per_shard.iter_mut() {
                if let Some(entry) = shard.next() {
                    if entries.len() == n {
                        break 'merge;
                    }
                    entries.push(entry);
                }
            }
        }
        PlanSnapshot { entries }
    }

    /// Restores a snapshot's plans into this cache, routing every entry to
    /// its shard (shards are locked one at a time). `tile` is the shape
    /// this cache's sessions serve: entries planned for a different
    /// geometry are dropped as [`ImportReport::skipped_shape`] — a
    /// wrong-shape plan's key can (rarely) equal a live tile's flat limbs
    /// and would then misindex the executor at serve time. Capacity is
    /// respected per shard — surplus entries degrade to a partial restore,
    /// live entries are never evicted — and the admission table is
    /// untouched: a restore is not traffic. Returns the merged per-shard
    /// report.
    pub fn import(&self, snapshot: &PlanSnapshot, tile: TileShape) -> ImportReport {
        let mut routed: Vec<Vec<SnapshotEntry>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        let mut skipped_shape = 0;
        for entry in &snapshot.entries {
            if entry.matches_shape(tile.m, tile.k) {
                routed[self.shard_index(entry.hash)].push(entry.clone());
            } else {
                skipped_shape += 1;
            }
        }
        let mut report = ImportReport {
            requested: skipped_shape,
            skipped_shape,
            ..ImportReport::default()
        };
        for (shard, entries) in self.shards.iter().zip(routed) {
            let delta = self.lock_shard(shard).cache.import(entries);
            report.merge(&delta);
        }
        report
    }

    #[inline]
    fn shard_index(&self, hash: u64) -> usize {
        // Top bits: decorrelated from the HashMap bucket index, which uses
        // the low bits of the same hash.
        if self.shard_bits == 0 {
            0
        } else {
            (hash >> (64 - self.shard_bits)) as usize
        }
    }

    #[inline]
    fn shard_of(&self, hash: u64) -> &Mutex<Shard> {
        &self.shards[self.shard_index(hash)]
    }

    /// Registers `tenant` in the tenant table and returns its admission
    /// window (`None` when this cache has no admission policy — the tenant
    /// is still registered, so it counts in [`SharedCacheStats::tenants`]).
    /// Sessions resolve this once at construction and pass it to
    /// [`SharedPlanCache::lookup`]/[`SharedPlanCache::insert`], so the per-
    /// tile hot path touches only the tenant's own mutex, never a table.
    pub(crate) fn admission_handle(&self, tenant: u64) -> Option<Arc<Mutex<Admission>>> {
        self.admission.handle(tenant)
    }

    /// Shard-locked lookup of the tile with this key (and its
    /// [`hash_limbs`](super::cache::hash_limbs)); refreshes recency and
    /// feeds the caller's admission window (its session's tenant — see
    /// [`SharedPlanCache::admission_handle`]). A hit reports whether the
    /// serving entry was snapshot-restored.
    pub(crate) fn lookup(
        &self,
        hash: u64,
        key: &[u64],
        admission: Option<&Mutex<Admission>>,
    ) -> Option<(Arc<TileMeta>, bool)> {
        let found = {
            let mut shard = self.lock_shard(self.shard_of(hash));
            let held = std::time::Instant::now();
            let found = shard.cache.lookup(hash, key);
            match &found {
                Some((_, restored)) => {
                    shard.counters.hits += 1;
                    shard.counters.restored_hits += u64::from(*restored);
                }
                None => shard.counters.misses += 1,
            }
            shard.counters.lock_hold_ns += held.elapsed().as_nanos() as u64;
            found
        };
        // The shard lock is already released; the tenant's window is its
        // own (brief) lock domain.
        if let Some(a) = admission {
            lock_recovering(a).record(found.is_some());
        }
        found
    }

    /// Offers a freshly planned tile; returns the plan to use plus the
    /// insertion outcome. If a racing session inserted the same tile
    /// while this one was planning, the resident plan wins (deduplication)
    /// and the offer is dropped without counting as an insertion;
    /// otherwise the caller's tenant admission window (if any) decides
    /// whether the plan is stored or bypassed.
    pub(crate) fn insert(
        &self,
        hash: u64,
        key: &[u64],
        meta: Arc<TileMeta>,
        admission: Option<&Mutex<Admission>>,
    ) -> (Arc<TileMeta>, InsertOutcome) {
        let mut shard = self.lock_shard(self.shard_of(hash));
        let held = std::time::Instant::now();
        // Injected-fault hook: a panic here unwinds with the shard mutex
        // held, poisoning it — exactly the scenario `lock_shard` recovers.
        #[cfg(any(test, feature = "fault-injection"))]
        super::faults::maybe_panic_shard();
        // Dedup check: the offering session already counted its miss in
        // `lookup`, so this probe feeds neither hit/miss counters nor
        // admission; the race is recorded as its own outcome so the ledger
        // stays balanced (insertions + bypasses + dedups == misses).
        let result = if let Some((resident, _)) = shard.cache.lookup(hash, key) {
            shard.counters.dedups += 1;
            (resident, InsertOutcome::Deduplicated)
        // Tenant admission, consulted only for a real (non-dedup) offer.
        // Lock order is always shard → admission window, so the nesting
        // cannot deadlock against `lookup` (which takes them disjointly).
        } else if admission.is_some_and(|a| !lock_recovering(a).should_insert()) {
            shard.counters.bypasses += 1;
            (meta, InsertOutcome::Bypassed)
        } else {
            let outcome = shard.cache.insert(hash, key, Arc::clone(&meta));
            match outcome {
                InsertOutcome::Inserted => shard.counters.insertions += 1,
                InsertOutcome::Evicted => {
                    shard.counters.insertions += 1;
                    shard.counters.evictions += 1;
                }
                InsertOutcome::Bypassed => shard.counters.bypasses += 1,
                InsertOutcome::Deduplicated => unreachable!("PlanCache never dedups"),
            }
            (meta, outcome)
        };
        shard.counters.lock_hold_ns += held.elapsed().as_nanos() as u64;
        result
    }
}

#[cfg(test)]
#[path = "shared_tests.rs"]
mod tests;
