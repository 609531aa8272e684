//! Reuse counters for sessions, the shared plan cache, and the scheduler.
//!
//! Every [`Session`](super::Session) keeps its own [`EngineStats`]; a
//! serving deployment additionally snapshots the aggregate
//! [`SharedCacheStats`] of its [`SharedPlanCache`](super::SharedPlanCache).
//! Per-session counters are mergeable ([`EngineStats::merge`]) so a batch
//! scheduler can report one fleet-wide row next to the per-session ones.
//! The [`BatchScheduler`](super::BatchScheduler) additionally records
//! *scheduling* behaviour — per-lane step counts, deficit credits, deadline
//! misses — in a [`SchedulerStats`], which the
//! [`ServingLoop`](super::ServingLoop) extends with its lifecycle counters
//! (background snapshot exports, admission-table GC evictions).

/// Counters describing how effectively one session is reusing work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// GeMMs executed.
    pub gemms: u64,
    /// Tiles encountered across all GeMMs.
    pub tiles: u64,
    /// Tiles whose plan was served from the cache (private or shared).
    pub cache_hits: u64,
    /// Tiles that had to be planned (includes every tile when the cache is
    /// disabled).
    pub cache_misses: u64,
    /// Cached plans evicted to make room for this session's insertions.
    pub cache_evictions: u64,
    /// Freshly planned tiles whose insertion was skipped by the admission
    /// policy (uncorrelated-stream bypass).
    pub cache_bypasses: u64,
    /// Subset of `cache_hits` served by plans that entered the cache
    /// through a snapshot import rather than live planning — the measured
    /// payoff of warm-starting (see [`super::snapshot`]).
    pub restored_hits: u64,
    /// Nanoseconds spent in the planning phase — tiling, cache lookups,
    /// and (on misses) Detector → Pruner → Dispatcher planning — summed
    /// over all GeMMs. `plan_ns / tiles` is mean per-tile planning cost.
    pub plan_ns: u64,
    /// Nanoseconds spent in plan execution (the weight-accumulate kernel),
    /// summed over all GeMMs. `exec_ns / tiles` is the steady-state
    /// per-tile execution cost the perf bench tracks.
    pub exec_ns: u64,
}

impl EngineStats {
    /// Fraction of tiles served from the plan cache (0 when no tiles ran).
    pub fn hit_rate(&self) -> f64 {
        if self.tiles == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.tiles as f64
        }
    }

    /// Accumulates another session's counters into this one — the batch
    /// scheduler's fleet-wide view, and the way per-shard or per-worker
    /// stats fold into one auditable row.
    pub fn merge(&mut self, other: &EngineStats) {
        self.gemms += other.gemms;
        self.tiles += other.tiles;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.cache_bypasses += other.cache_bypasses;
        self.restored_hits += other.restored_hits;
        self.plan_ns += other.plan_ns;
        self.exec_ns += other.exec_ns;
    }

    /// [`EngineStats::merge`] over any number of per-session stats.
    pub fn merged<'a, I: IntoIterator<Item = &'a EngineStats>>(stats: I) -> EngineStats {
        let mut total = EngineStats::default();
        for s in stats {
            total.merge(s);
        }
        total
    }
}

/// Aggregate counters of a [`SharedPlanCache`](super::SharedPlanCache),
/// summed over its shards at snapshot time.
///
/// Shared-cache counters are accumulated under the per-shard locks, so they
/// see every session's traffic; they equal the merged per-session counters
/// for lookups/insertions but additionally expose residency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Lookups answered from a shard.
    pub hits: u64,
    /// Lookups that missed every resident plan.
    pub misses: u64,
    /// Plans inserted (including re-insertions after eviction).
    pub insertions: u64,
    /// Plans evicted under capacity pressure.
    pub evictions: u64,
    /// Insertions skipped by the admission policy.
    pub bypasses: u64,
    /// Offers dropped because a racing session inserted the same tile
    /// first (its resident plan was reused instead).
    pub dedups: u64,
    /// Subset of `hits` served by snapshot-restored plans.
    pub restored_hits: u64,
    /// Plans resident at snapshot time.
    pub resident: usize,
    /// Resident plans that arrived through a snapshot import (and have
    /// not been evicted since).
    pub restored_resident: usize,
    /// Tenants registered in the cache's tenant table — every tenant id a
    /// live session was constructed with (minus GC'd idle entries). With
    /// an admission policy configured each entry also carries that
    /// tenant's admission window; without one the entries are
    /// liveness-only, but the count is reported either way.
    pub tenants: usize,
    /// Number of shards the cache is split across.
    pub shards: usize,
    /// Total plan capacity across all shards.
    pub capacity: usize,
    /// Shards whose mutex was found poisoned (a lane panicked while
    /// holding it) and recovered by dropping only that shard's entries —
    /// see [`SharedPlanCache`](super::SharedPlanCache) fault tolerance.
    pub shard_resets: u64,
    /// Nanoseconds shard mutexes were held across lookups and insertions,
    /// summed over shards — the serving hot path's contention budget.
    /// Divide by `hits + misses + insertions` for mean hold time per
    /// operation.
    pub lock_hold_ns: u64,
}

impl SharedCacheStats {
    /// Fraction of lookups served from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// How a [`BatchScheduler`](super::BatchScheduler) run distributed steps
/// across lanes, plus the serving-loop lifecycle counters.
///
/// Lane-indexed vectors describe the scheduler's **last `run` call** (the
/// policy state is rebuilt per run); `deadline_misses` is counted by the
/// [`Deadline`](super::BatchPolicy::Deadline) policy, and
/// [`SchedulerStats::misses_against`] re-derives miss counts for any policy
/// from the recorded completion steps (how the bench scores round-robin
/// against the same budgets). `gc_evictions` / `snapshots_exported` /
/// `snapshot_io_retries` / `snapshots_quarantined` stay 0 on a bare
/// scheduler — they are filled in by
/// [`ServingLoop::stats`](super::ServingLoop::stats). The fault counters
/// (`lane_faults`, `shard_resets`) are maintained by the scheduler itself.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// GeMM steps completed per lane (a GeMM sliced across several visits
    /// still counts once, on its completing slice).
    pub lane_steps: Vec<u64>,
    /// Row-tiles executed per lane — the fine-grained work unit under a
    /// sub-GeMM
    /// [`slice_quantum`](super::BatchScheduler::with_slice_quantum). Also
    /// filled in whole-GeMM mode (each visit adds the GeMM's full row-tile
    /// count), so share ratios can be audited in identical units under
    /// either quantum.
    pub lane_row_tiles: Vec<u64>,
    /// Leftover deficit-round-robin credit per lane
    /// ([`BatchPolicy::Weighted`](super::BatchPolicy::Weighted) only;
    /// zeros under other policies).
    pub credit_balances: Vec<u64>,
    /// Global scheduler-visit count (1-based, across all lanes) at which
    /// each lane finished its trace; 0 for a lane whose trace was empty.
    /// With the default whole-GeMM quantum a visit is one GeMM step; with
    /// a sub-GeMM `slice_quantum` a visit is one slice, so these (and the
    /// `Deadline` budgets scored against them) are denominated in slices.
    pub completion_steps: Vec<u64>,
    /// Lanes that completed after their step budget
    /// ([`BatchPolicy::Deadline`](super::BatchPolicy::Deadline) only).
    pub deadline_misses: u64,
    /// Idle tenant admission windows evicted by the serving loop's GC.
    pub gc_evictions: u64,
    /// Background snapshot exports launched by the serving loop.
    pub snapshots_exported: u64,
    /// Lanes currently quarantined after a caught panic
    /// ([`BatchScheduler::quarantined`](super::BatchScheduler::quarantined);
    /// cleared by `begin_batch`). Surviving lanes keep serving — a fault
    /// never aborts the batch.
    pub lane_faults: u64,
    /// Poisoned shared-cache shard mutexes recovered by dropping only that
    /// shard's entries (mirrors
    /// [`SharedCacheStats::shard_resets`]).
    pub shard_resets: u64,
    /// Snapshot-store IO operations retried after a transient failure
    /// (filled by [`ServingLoop::stats`](super::ServingLoop::stats) when a
    /// [`SnapshotStore`](super::SnapshotStore) is attached; 0 on a bare
    /// scheduler).
    pub snapshot_io_retries: u64,
    /// Corrupt snapshot files quarantined to `*.bad` by
    /// [`SnapshotStore::load_latest_valid`](super::SnapshotStore::load_latest_valid)
    /// (filled by `ServingLoop::stats`).
    pub snapshots_quarantined: u64,
    /// Bytes serialized by snapshot-store saves (filled by
    /// `ServingLoop::stats` from
    /// [`SnapshotStore::bytes_encoded`](super::SnapshotStore::bytes_encoded)).
    pub snapshot_bytes_encoded: u64,
    /// Plan entries serialized by snapshot-store saves (filled by
    /// `ServingLoop::stats`).
    pub snapshot_plans_encoded: u64,
    /// Bytes of successfully decoded snapshots returned by warm-restart
    /// loads (filled by `ServingLoop::stats` from
    /// [`SnapshotStore::bytes_loaded`](super::SnapshotStore::bytes_loaded)).
    pub snapshot_bytes_loaded: u64,
    /// Plan entries decoded by warm-restart loads (filled by
    /// `ServingLoop::stats`).
    pub snapshot_plans_loaded: u64,
    /// Gossip sweeps that imported a peer snapshot (filled by
    /// `ServingLoop::stats` when
    /// [`ServiceConfig::with_gossip`](super::ServiceConfig::with_gossip)
    /// is enabled; one count per peer snapshot decoded and offered to the
    /// cache).
    pub gossip_imports: u64,
    /// Plan entries a gossip import actually restored into the shared
    /// cache (the capacity-respecting subset of what peers offered —
    /// [`ImportReport::restored`](super::ImportReport) summed over every
    /// gossip import).
    pub gossip_plans_adopted: u64,
    /// Gossip peer sweeps skipped without reading because the peer's
    /// newest snapshot had already been imported (sequence number not
    /// newer than the last import from that peer).
    pub gossip_skipped_stale: u64,
}

impl SchedulerStats {
    /// Number of lanes whose recorded completion step exceeded its budget
    /// (`budgets[lane]`; lanes beyond the slice have no deadline). Lets a
    /// caller score *any* policy's run against a budget mix — e.g. the
    /// round-robin baseline the `qos` bench compares EDF to.
    pub fn misses_against(&self, budgets: &[u64]) -> u64 {
        self.completion_steps
            .iter()
            .enumerate()
            .filter(|&(lane, &done)| {
                done > 0 && done > budgets.get(lane).copied().unwrap_or(u64::MAX)
            })
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_every_counter() {
        let a = EngineStats {
            gemms: 1,
            tiles: 10,
            cache_hits: 4,
            cache_misses: 6,
            cache_evictions: 2,
            cache_bypasses: 1,
            restored_hits: 3,
            plan_ns: 100,
            exec_ns: 200,
        };
        let b = EngineStats {
            gemms: 2,
            tiles: 30,
            cache_hits: 20,
            cache_misses: 10,
            cache_evictions: 0,
            cache_bypasses: 5,
            restored_hits: 1,
            plan_ns: 11,
            exec_ns: 22,
        };
        let mut m = a;
        m.merge(&b);
        assert_eq!(
            m,
            EngineStats {
                gemms: 3,
                tiles: 40,
                cache_hits: 24,
                cache_misses: 16,
                cache_evictions: 2,
                cache_bypasses: 6,
                restored_hits: 4,
                plan_ns: 111,
                exec_ns: 222,
            }
        );
        assert_eq!(EngineStats::merged([a, b].iter()), m);
        assert!((m.hit_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_rates_are_zero() {
        assert_eq!(EngineStats::default().hit_rate(), 0.0);
        assert_eq!(SharedCacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn misses_against_scores_completions_not_empty_lanes() {
        let stats = SchedulerStats {
            completion_steps: vec![10, 0, 25, 7],
            ..SchedulerStats::default()
        };
        // Lane 0 on time, lane 1 never ran (empty trace), lane 2 late,
        // lane 3 has no budget at all.
        assert_eq!(stats.misses_against(&[10, 1, 24]), 1);
        assert_eq!(stats.misses_against(&[9, 1, 24]), 2);
        assert_eq!(stats.misses_against(&[]), 0);
    }

    #[test]
    fn shared_hit_rate() {
        let s = SharedCacheStats {
            hits: 3,
            misses: 1,
            ..SharedCacheStats::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }
}
