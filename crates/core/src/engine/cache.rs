//! Content-addressed plan caching: the LRU each cache shard holds and the
//! adaptive admission policy that stops uncorrelated streams from paying
//! cache-bookkeeping costs for reuse that never materializes. Sessions plan
//! through [`super::shared::SharedPlanCache`], which locks one LRU per
//! shard and keeps one admission window per tenant; a session's own cache
//! is a one-shard instance of it.
//!
//! Plans are keyed by tile *content*, never by position. A key is one flat
//! `&[u64]`: the tile's row-major limbs, as
//! [`SpikeMatrix::tile_key_into`](spikemat::SpikeMatrix::tile_key_into)
//! writes them straight from the spike rows (and as snapshots store them),
//! so a cache hit never builds a tile. `hash_limbs` selects a bucket and
//! one slice comparison resolves it, so a hash collision can never
//! substitute a wrong plan. Because [`TileMeta`] construction is a pure
//! function of the tile bits, a plan served from any cache, inserted by
//! any session, is value-identical to the plan the session would have
//! built itself. That is what makes shared caching bit-exact by
//! construction.

use crate::plan::TileMeta;
use std::collections::HashMap;
use std::sync::Arc;

use super::snapshot::{ImportReport, SnapshotEntry};

/// Pseudo-random multiplier for the limb-folding tile hash (the golden-ratio
/// constant used by Fx-style hashers).
const HASH_K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Initial state of the hash's four lanes.
const HASH_SEEDS: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

/// Content hash of a flat key: limb `i` folds into lane `i % 4`.
///
/// Four independent lanes break the multiply dependency chain (a single
/// folded lane costs ~5 cycles *per limb* in latency, which dominated
/// miss-heavy streams); collisions are resolved by full key comparison in
/// the cache, never trusted. The output is part of the snapshot format
/// (files store each entry's hash and the codec re-derives it from the
/// stored key), so it must never change.
// analyze: hot-path
pub(crate) fn hash_limbs(limbs: &[u64]) -> u64 {
    let fold = |lane: u64, limb: u64| (lane.rotate_left(5) ^ limb).wrapping_mul(HASH_K);
    let mut lanes = HASH_SEEDS;
    let chunks = limbs.chunks_exact(4);
    let rest = chunks.remainder();
    for chunk in chunks {
        for (lane, &limb) in lanes.iter_mut().zip(chunk) {
            *lane = fold(*lane, limb);
        }
    }
    for (lane, &limb) in lanes.iter_mut().zip(rest) {
        *lane = fold(*lane, limb);
    }
    lanes
        .into_iter()
        .fold((limbs.len() as u64).wrapping_mul(HASH_K), fold)
}

/// Map keys are already hashes, so the cache map uses a pass-through hasher
/// instead of paying SipHash per probe.
#[derive(Debug, Default, Clone, Copy)]
struct PassThroughHasher(u64);

impl std::hash::Hasher for PassThroughHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("cache keys are hashed as u64");
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

type PassThroughState = std::hash::BuildHasherDefault<PassThroughHasher>;

/// Adaptive cache-insertion bypass: parameters of the sliding-window
/// hit-rate estimator.
///
/// On an uncorrelated stream every tile misses, so every tile pays hash +
/// key copy + LRU bookkeeping + eviction for a plan that will never be seen
/// again — the documented fig8 regression. The admission policy watches the
/// hit rate over a sliding window of lookups; when it falls below
/// [`AdmissionConfig::min_hit_permille`], insertions are *bypassed* except
/// for a sparse probe stream (every [`AdmissionConfig::probe_period`]-th
/// miss), which keeps enough fresh plans resident that a stream turning
/// correlated again is detected and admission re-opens on a later window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Lookups per estimation window.
    pub window: u32,
    /// Minimum hit rate, in permille (‰), for insertions to stay open in
    /// the next window.
    pub min_hit_permille: u32,
    /// While bypassing, still insert every `probe_period`-th miss so the
    /// estimator can observe correlation returning. `0` disables probing
    /// (bypass becomes permanent once triggered).
    pub probe_period: u32,
}

impl Default for AdmissionConfig {
    /// 256-lookup windows, re-open at ≥ 5 % hits, probe every 16th miss.
    fn default() -> Self {
        Self {
            window: 256,
            min_hit_permille: 50,
            probe_period: 16,
        }
    }
}

/// Sliding-window hit-rate admission state.
///
/// One instance tracks one *stream*: the shared cache keys one per tenant
/// ([`super::shared::SharedPlanCache`]) so a hot tenant's hits cannot hold
/// admission open for a cold tenant sharing the cache (and a cold tenant's
/// misses cannot close it for a hot one).
#[derive(Debug, Clone)]
pub(crate) struct Admission {
    cfg: AdmissionConfig,
    lookups: u32,
    hits: u32,
    /// Whether insertions are currently open. Starts open: the first window
    /// always admits, otherwise the cache could never warm up.
    open: bool,
    /// Misses until the next probe insertion while bypassing.
    probe_countdown: u32,
}

impl Admission {
    pub(crate) fn new(cfg: AdmissionConfig) -> Self {
        Self {
            cfg,
            lookups: 0,
            hits: 0,
            open: true,
            probe_countdown: cfg.probe_period,
        }
    }

    /// Records one lookup outcome, rolling the window when it fills.
    pub(crate) fn record(&mut self, hit: bool) {
        self.lookups += 1;
        self.hits += u32::from(hit);
        if self.lookups >= self.cfg.window.max(1) {
            let permille = (self.hits as u64 * 1000) / self.lookups as u64;
            self.open = permille >= self.cfg.min_hit_permille as u64;
            self.lookups = 0;
            self.hits = 0;
        }
    }

    /// Whether the miss being resolved right now should be inserted.
    pub(crate) fn should_insert(&mut self) -> bool {
        if self.open {
            return true;
        }
        if self.cfg.probe_period == 0 {
            return false;
        }
        if self.probe_countdown <= 1 {
            self.probe_countdown = self.cfg.probe_period;
            true
        } else {
            self.probe_countdown -= 1;
            false
        }
    }
}

/// What happened to a freshly planned tile offered to a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InsertOutcome {
    /// Stored without displacing anything.
    Inserted,
    /// Stored; the LRU plan was evicted to make room.
    Evicted,
    /// Skipped by the admission policy (or a zero-capacity cache).
    Bypassed,
    /// Dropped because a racing session inserted the same tile first; the
    /// resident plan was returned instead.
    Deduplicated,
}

const NIL: u32 = u32::MAX;

/// One resident cache entry, linked into the LRU list.
#[derive(Debug)]
struct Slot {
    hash: u64,
    /// The tile's raw limbs, row-major — the full key behind the hash.
    limbs: Box<[u64]>,
    meta: Arc<TileMeta>,
    /// Times this plan has been served (lookup or dedup) since insertion.
    /// Exported with the entry so a warm-started cache inherits popularity.
    hits: u64,
    /// Whether the entry arrived through a snapshot import rather than live
    /// planning — hits on restored plans are the warm-start payoff and are
    /// counted separately.
    restored: bool,
    prev: u32,
    next: u32,
}

/// Content-addressed LRU of tile plans: a slab of slots threaded on an
/// intrusive doubly-linked recency list, indexed by a hash → slot multimap
/// (the per-hash `Vec` absorbs collisions). All operations are O(1)
/// amortized. A [`SharedPlanCache`](super::shared::SharedPlanCache) holds
/// one per shard behind a lock; admission lives there, per tenant, not
/// here.
#[derive(Debug)]
pub(crate) struct PlanCache {
    capacity: usize,
    map: HashMap<u64, Vec<u32>, PassThroughState>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    /// Shared empty meta parked in freed slots so evicted payloads drop
    /// immediately instead of lingering until slot reuse.
    placeholder: Arc<TileMeta>,
    /// Resident entries that came from a snapshot import.
    restored_resident: usize,
}

impl PlanCache {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            placeholder: Arc::new(TileMeta::default()),
            restored_resident: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Resident entries that arrived through a snapshot import (and have not
    /// been evicted since).
    pub(crate) fn restored_resident(&self) -> usize {
        self.restored_resident
    }

    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.restored_resident = 0;
    }

    /// Looks up the plan for the tile with this key (and its
    /// [`hash_limbs`]), refreshing its recency and per-slot hit count. A
    /// hit reports whether the serving entry was snapshot-restored.
    pub(crate) fn lookup(&mut self, hash: u64, key: &[u64]) -> Option<(Arc<TileMeta>, bool)> {
        let idx = self.find(hash, key)?;
        self.unlink(idx);
        self.push_front(idx);
        let slot = &mut self.slots[idx as usize];
        slot.hits += 1;
        Some((Arc::clone(&slot.meta), slot.restored))
    }

    /// Whether a plan for this key is resident, without touching recency
    /// (snapshot import's duplicate check).
    pub(crate) fn peek(&self, hash: u64, key: &[u64]) -> bool {
        self.find(hash, key).is_some()
    }

    fn find(&self, hash: u64, key: &[u64]) -> Option<u32> {
        let bucket = self.map.get(&hash)?;
        bucket
            .iter()
            .copied()
            .find(|&i| *self.slots[i as usize].limbs == *key)
    }

    /// Stores a freshly planned tile (a copy of the key and the meta),
    /// evicting the LRU entry if full. The caller has already consulted
    /// admission.
    pub(crate) fn insert(&mut self, hash: u64, key: &[u64], meta: Arc<TileMeta>) -> InsertOutcome {
        if self.capacity == 0 {
            return InsertOutcome::Bypassed;
        }
        let outcome = if self.len() >= self.capacity {
            self.evict_lru();
            InsertOutcome::Evicted
        } else {
            InsertOutcome::Inserted
        };
        self.place(hash, Box::from(key), meta, 0, false);
        outcome
    }

    /// Links a fully-formed slot at the MRU end of the list.
    fn place(
        &mut self,
        hash: u64,
        limbs: Box<[u64]>,
        meta: Arc<TileMeta>,
        hits: u64,
        restored: bool,
    ) {
        let slot = Slot {
            hash,
            limbs,
            meta,
            hits,
            restored,
            prev: NIL,
            next: NIL,
        };
        self.restored_resident += usize::from(restored);
        let idx = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        };
        self.map.entry(hash).or_default().push(idx);
        self.push_front(idx);
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let s = &self.slots[idx as usize];
            (s.prev, s.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, idx: u32) {
        let old_head = self.head;
        {
            let s = &mut self.slots[idx as usize];
            s.prev = NIL;
            s.next = old_head;
        }
        match old_head {
            NIL => self.tail = idx,
            h => self.slots[h as usize].prev = idx,
        }
        self.head = idx;
    }

    fn evict_lru(&mut self) {
        let idx = self.tail;
        debug_assert_ne!(idx, NIL, "evict on empty cache");
        self.unlink(idx);
        let hash = self.slots[idx as usize].hash;
        if let Some(bucket) = self.map.get_mut(&hash) {
            bucket.retain(|&i| i != idx);
            if bucket.is_empty() {
                self.map.remove(&hash);
            }
        }
        self.restored_resident -= usize::from(self.slots[idx as usize].restored);
        // Drop the payload now; the slot itself is recycled.
        self.slots[idx as usize].limbs = Box::new([]);
        self.slots[idx as usize].meta = Arc::clone(&self.placeholder);
        self.slots[idx as usize].restored = false;
        self.free.push(idx);
    }

    /// The up-to-`n` most recently used entries, hottest first, as owned
    /// snapshot entries (keys, metas, and hit counts cloned; the cache is
    /// not mutated). This is the per-cache half of snapshot export; the
    /// sharded cache interleaves these per shard.
    pub(crate) fn export_hottest(&self, n: usize) -> Vec<SnapshotEntry> {
        let mut out = Vec::with_capacity(n.min(self.len()));
        let mut idx = self.head;
        while idx != NIL && out.len() < n {
            let slot = &self.slots[idx as usize];
            out.push(SnapshotEntry {
                hash: slot.hash,
                limbs: slot.limbs.clone(),
                meta: Arc::clone(&slot.meta),
                hits: slot.hits,
            });
            idx = slot.next;
        }
        out
    }

    /// Restores snapshot entries (given hottest-first) into this cache.
    ///
    /// Import is a *restore*, not traffic: it never evicts live entries —
    /// when the snapshot holds more plans than the cache has room for, the
    /// coldest surplus is dropped (partial restore). Entries land with their
    /// exported hit counts, marked restored, and in snapshot recency order
    /// (the snapshot's hottest entry becomes this cache's MRU).
    pub(crate) fn import(&mut self, entries: Vec<SnapshotEntry>) -> ImportReport {
        let mut report = ImportReport {
            requested: entries.len(),
            ..ImportReport::default()
        };
        let room = self.capacity.saturating_sub(self.len());
        let mut accepted: Vec<SnapshotEntry> = Vec::with_capacity(room.min(entries.len()));
        for entry in entries {
            // Duplicates — whether already resident or repeated *within*
            // the snapshot (crate-exported files never repeat a key, but
            // third-party ones may) — must be classified here, before the
            // room check, so they never consume a slot a later unique
            // entry was entitled to.
            let dup = self.peek(entry.hash, &entry.limbs)
                || accepted
                    .iter()
                    .any(|a| a.hash == entry.hash && a.limbs == entry.limbs);
            if dup {
                report.skipped_duplicate += 1;
            } else if accepted.len() < room {
                accepted.push(entry);
            } else {
                report.skipped_capacity += 1;
            }
        }
        // Insert coldest-first so the snapshot's hottest entry ends up MRU.
        for entry in accepted.into_iter().rev() {
            self.place(entry.hash, entry.limbs, entry.meta, entry.hits, true);
            report.restored += 1;
        }
        report
    }
}

#[cfg(test)]
#[path = "cache_tests.rs"]
mod tests;
