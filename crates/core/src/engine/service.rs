//! The serving lifecycle layer: a [`ServingLoop`] that owns a
//! [`BatchScheduler`] and, while traces execute, keeps the long-running
//! process healthy — periodic **background snapshot exports** (the
//! warm-start API existed since the snapshot layer landed, but nothing
//! scheduled it) and **admission-table GC** (bounding the per-tenant
//! window registry under unbounded tenant churn).
//!
//! Both jobs run on an executed-step cadence ([`ServiceConfig`]), counted
//! across every run the loop serves, so a process alternating many short
//! batches gets the same hygiene as one serving a single long trace:
//!
//! * **Snapshot export** spawns a real background thread over the shared
//!   cache's `Arc` — [`SharedPlanCache::export_hottest`] locks one shard
//!   at a time, so the lanes keep planning and executing while the export
//!   walks the cache (no stop-the-world; the race is property-tested in
//!   `tests/serving.rs`). Finished snapshots are collected with
//!   [`ServingLoop::take_snapshots`]; if an export is still in flight when
//!   the next cadence tick arrives, the tick is skipped rather than piling
//!   up threads.
//! * **Admission GC** calls [`SharedPlanCache::gc_tenants`]: each sweep
//!   advances the table's generation clock and evicts windows idle for
//!   more than [`ServiceConfig::gc_max_idle`] sweeps. Live lanes keep
//!   their resolved window handles either way.
//!
//! Neither job can change results: exports only *read* plans (clones of
//! resident entries), and admission decisions never alter outputs — the
//! bit-identity property the whole runtime is tested for.
//!
//! Attaching a [`SnapshotStore`]
//! ([`ServingLoop::with_snapshot_store`]) additionally *persists* each
//! export: the background thread writes the snapshot through the store's
//! atomic, retried, retention-pruned path before handing it to
//! [`ServingLoop::take_snapshots`]. Persistence failures never reach the
//! lanes — an export whose save exhausts its retries is dropped with the
//! failure visible in [`SchedulerStats::snapshot_io_retries`] /
//! [`SchedulerStats::snapshots_quarantined`], and serving continues.
//!
//! **Snapshot gossip** ([`ServiceConfig::with_gossip`]) closes the loop
//! in the other direction: on a step cadence — plus one bootstrap sweep
//! the first time the loop runs, so a process *joining* a fleet warms up
//! before serving its first step — the loop scans its peers' store
//! directories, decodes each peer's newest snapshot
//! ([`SnapshotStore::load_newer_than`]: corrupt files are quarantined to
//! `*.bad` exactly as in a warm restart, and a peer that has produced
//! nothing new since the last sweep is skipped from the directory listing
//! alone), and imports it capacity-respecting through
//! [`SharedPlanCache::import`]. Plans are pure functions of tile content,
//! so gossip can change *who* plans a tile, never *what* runs — warmth
//! moves between processes, results cannot. The sweeps are accounted in
//! [`SchedulerStats::gossip_imports`] /
//! [`SchedulerStats::gossip_plans_adopted`] /
//! [`SchedulerStats::gossip_skipped_stale`]. See
//! [`fleet`](super::fleet) for the placement ring and the multi-process
//! harness built on top of this cadence.
//!
//! ```
//! use prosperity_core::engine::{
//!     BatchPolicy, EngineConfig, ServiceConfig, ServingLoop,
//! };
//! use spikemat::gemm::{spiking_gemm, WeightMatrix};
//! use spikemat::SpikeMatrix;
//!
//! let spikes = SpikeMatrix::from_rows_of_bits(&[&[1, 0, 1], &[0, 1, 1]]);
//! let w = WeightMatrix::from_fn(3, 2, |r, c| (r + c) as i64);
//! let traces = vec![vec![(&spikes, &w); 4], vec![(&spikes, &w); 4]];
//!
//! // Export a 64-plan snapshot every 3 executed steps.
//! let service = ServiceConfig::default().with_snapshots(3, 64);
//! let mut serving =
//!     ServingLoop::new(EngineConfig::default(), BatchPolicy::RoundRobin, service);
//! serving.run(&traces, |_, _, out| {
//!     assert_eq!(out, &spiking_gemm(&spikes, &w));
//! });
//! let snapshots = serving.take_snapshots();
//! assert!(!snapshots.is_empty());
//! assert_eq!(serving.stats().snapshots_exported, snapshots.len() as u64);
//! ```

use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use spikemat::gemm::OutputMatrix;
use spikemat::TileShape;

use super::batch::{BatchPolicy, BatchScheduler, TraceStep};
use super::shared::SharedPlanCache;
use super::snapshot::PlanSnapshot;
use super::stats::SchedulerStats;
use super::store::SnapshotStore;
use super::{Element, EngineConfig};

/// Lifecycle cadences of a [`ServingLoop`], in executed steps (GeMMs),
/// counted across every run the loop serves. The default disables every
/// job; enable them with the builders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Executed steps between background snapshot exports; 0 disables.
    pub snapshot_every: usize,
    /// Hottest plans captured per export.
    pub snapshot_plans: usize,
    /// Executed steps between admission-table GC sweeps; 0 disables.
    pub gc_every: usize,
    /// Sweeps a tenant window may sit idle (no handle resolution) before a
    /// sweep evicts it.
    pub gc_max_idle: u64,
    /// Executed steps between gossip import sweeps over
    /// [`ServiceConfig::gossip_peers`]; 0 disables gossip (including the
    /// bootstrap sweep).
    pub gossip_every: usize,
    /// Peer snapshot-store directories each gossip sweep scans (one
    /// [`SnapshotStore`] layout per peer process).
    pub gossip_peers: Vec<PathBuf>,
}

impl Default for ServiceConfig {
    /// Every job off; `snapshot_plans` 1024 and `gc_max_idle` 2 as the
    /// starting points the builders inherit.
    fn default() -> Self {
        Self {
            snapshot_every: 0,
            snapshot_plans: 1024,
            gc_every: 0,
            gc_max_idle: 2,
            gossip_every: 0,
            gossip_peers: Vec::new(),
        }
    }
}

impl ServiceConfig {
    /// Enables background snapshot export: the hottest `plans` entries
    /// every `every` executed steps.
    pub fn with_snapshots(mut self, every: usize, plans: usize) -> Self {
        self.snapshot_every = every;
        self.snapshot_plans = plans;
        self
    }

    /// Enables admission-table GC: one sweep every `every` executed steps,
    /// evicting windows idle for more than `max_idle` sweeps.
    pub fn with_gc(mut self, every: usize, max_idle: u64) -> Self {
        self.gc_every = every;
        self.gc_max_idle = max_idle;
        self
    }

    /// Enables snapshot gossip: every `every` executed steps (plus one
    /// bootstrap sweep before the loop's first run), scan each peer store
    /// directory in `peers` and import its newest not-yet-seen snapshot
    /// into the shared cache. Peers are other processes' [`SnapshotStore`]
    /// directories; a peer directory that does not exist yet is simply
    /// empty until its process starts exporting.
    pub fn with_gossip(mut self, every: usize, peers: Vec<PathBuf>) -> Self {
        self.gossip_every = every;
        self.gossip_peers = peers;
        self
    }
}

/// One gossip peer's import state: the peer's store directory, the store
/// handle once it opened, and the staleness cutoff (newest sequence number
/// already imported from this peer).
#[derive(Debug)]
struct GossipPeer {
    dir: PathBuf,
    store: Option<SnapshotStore>,
    last_seq: Option<u64>,
}

impl GossipPeer {
    fn new(dir: PathBuf) -> Self {
        Self {
            dir,
            store: None,
            last_seq: None,
        }
    }

    /// One import attempt from this peer: `(imported, adopted, stale)`.
    /// Opening the store is retried on every sweep until it succeeds; IO
    /// and decode failures never escape (corrupt files are quarantined by
    /// the walk, unreadable ones retried next sweep).
    // analyze: hot-path
    fn sweep(&mut self, shared: &SharedPlanCache, tile: TileShape) -> (u64, u64, u64) {
        if self.store.is_none() {
            self.store = SnapshotStore::new(&self.dir, 1).ok();
        }
        let Some(store) = &self.store else {
            return (0, 0, 0);
        };
        match store.load_newer_than(self.last_seq) {
            Ok(Some((seq, snapshot))) => {
                let report = shared.import(&snapshot, tile);
                self.last_seq = Some(seq);
                (1, report.restored as u64, 0)
            }
            // Nothing strictly newer than what we already imported: a
            // stale skip when we had imported before, plain emptiness
            // otherwise (new peer that has not exported yet).
            Ok(None) => (0, 0, u64::from(self.last_seq.is_some())),
            Err(_) => (0, 0, 0),
        }
    }
}

/// A [`BatchScheduler`] wrapped with the long-running-process jobs:
/// step-cadence background snapshot export and admission-table GC.
///
/// The loop owns the scheduler ([`ServingLoop::scheduler`] reads it) and
/// serves batches through
/// [`ServingLoop::run`] (lanes persist, same-tenant replay) or
/// [`ServingLoop::run_batch`]/[`run_batch_as`](ServingLoop::run_batch_as)
/// (fresh lanes per batch — the tenant-churn shape the GC exists for).
#[derive(Debug)]
pub struct ServingLoop<T = i64> {
    sched: BatchScheduler<T>,
    service: ServiceConfig,
    /// Executed steps since the last export / sweep (across runs).
    since_snapshot: usize,
    since_gc: usize,
    since_gossip: usize,
    /// Lifecycle counters surfaced through [`ServingLoop::stats`].
    snapshots_exported: u64,
    gc_evictions: u64,
    gossip_imports: u64,
    gossip_plans_adopted: u64,
    gossip_skipped_stale: u64,
    /// Per-peer import state, built from
    /// [`ServiceConfig::gossip_peers`] (and refreshed by
    /// [`ServingLoop::set_gossip_peers`]).
    gossip: Vec<GossipPeer>,
    /// The bootstrap sweep runs once, before the loop's first run.
    gossip_bootstrapped: bool,
    /// The in-flight export thread, if any.
    export: Option<JoinHandle<()>>,
    /// Finished exports travel back over this channel.
    snapshot_tx: Sender<PlanSnapshot>,
    snapshot_rx: Receiver<PlanSnapshot>,
    /// When attached, every background export is persisted through this
    /// store (atomic write, bounded retry, retention prune).
    store: Option<Arc<SnapshotStore>>,
}

impl<T: Element> ServingLoop<T> {
    /// Creates a serving loop over a fresh scheduler
    /// ([`BatchScheduler::new`]).
    pub fn new(config: EngineConfig, policy: BatchPolicy, service: ServiceConfig) -> Self {
        Self::with_scheduler(BatchScheduler::new(config, policy), service)
    }

    /// Wraps an existing scheduler (e.g. one built with
    /// [`BatchScheduler::warm_start`] or over a shared cache).
    pub fn with_scheduler(sched: BatchScheduler<T>, service: ServiceConfig) -> Self {
        let (snapshot_tx, snapshot_rx) = channel();
        let gossip = service
            .gossip_peers
            .iter()
            .map(|dir| GossipPeer::new(dir.clone()))
            .collect();
        Self {
            sched,
            service,
            since_snapshot: 0,
            since_gc: 0,
            since_gossip: 0,
            snapshots_exported: 0,
            gc_evictions: 0,
            gossip_imports: 0,
            gossip_plans_adopted: 0,
            gossip_skipped_stale: 0,
            gossip,
            gossip_bootstrapped: false,
            export: None,
            snapshot_tx,
            snapshot_rx,
            store: None,
        }
    }

    /// Replaces the gossip peer set (fleet membership change: a node
    /// joined or left). Import state is preserved for directories present
    /// in both the old and new set, so an unchanged peer is not
    /// re-imported from scratch; genuinely new peers start cold and are
    /// picked up by the next sweep.
    pub fn set_gossip_peers(&mut self, peers: Vec<PathBuf>) {
        let mut old: Vec<GossipPeer> = std::mem::take(&mut self.gossip);
        self.gossip = peers
            .iter()
            .map(|dir| {
                old.iter()
                    .position(|p| p.dir == *dir)
                    .map(|i| old.swap_remove(i))
                    .unwrap_or_else(|| GossipPeer::new(dir.clone()))
            })
            .collect();
        self.service.gossip_peers = peers;
    }

    /// Attaches a [`SnapshotStore`]: every background export from now on
    /// is also persisted through it (crash-safe, retried, pruned to the
    /// store's retention). The handle is shared so callers can read the
    /// store's counters and files while the loop serves.
    pub fn with_snapshot_store(mut self, store: Arc<SnapshotStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// The lifecycle cadences.
    pub fn service_config(&self) -> &ServiceConfig {
        &self.service
    }

    /// The wrapped scheduler.
    pub fn scheduler(&self) -> &BatchScheduler<T> {
        &self.sched
    }

    /// The shared plan cache all lanes plan through.
    pub fn shared_cache(&self) -> &Arc<SharedPlanCache> {
        self.sched.shared_cache()
    }

    /// The last run's scheduling record with this loop's lifecycle
    /// counters filled in (`snapshots_exported`, `gc_evictions`, the
    /// gossip trio `gossip_imports` / `gossip_plans_adopted` /
    /// `gossip_skipped_stale`, and —
    /// when a [`SnapshotStore`] is attached — `snapshot_io_retries` /
    /// `snapshots_quarantined` plus the encode/load volume counters
    /// `snapshot_bytes_encoded` / `snapshot_plans_encoded` /
    /// `snapshot_bytes_loaded` / `snapshot_plans_loaded`; a bare scheduler
    /// reports all of them as 0). `shard_resets` is refreshed from the
    /// live cache so resets by other holders of the cache since the last
    /// run are visible too.
    pub fn stats(&self) -> SchedulerStats {
        let mut stats = self.sched.scheduler_stats().clone();
        stats.snapshots_exported = self.snapshots_exported;
        stats.gc_evictions = self.gc_evictions;
        stats.gossip_imports = self.gossip_imports;
        stats.gossip_plans_adopted = self.gossip_plans_adopted;
        stats.gossip_skipped_stale = self.gossip_skipped_stale;
        stats.shard_resets = self.shared_cache().shard_resets();
        if let Some(store) = &self.store {
            stats.snapshot_io_retries = store.io_retries();
            stats.snapshots_quarantined = store.quarantined();
            stats.snapshot_bytes_encoded = store.bytes_encoded();
            stats.snapshot_plans_encoded = store.plans_encoded();
            stats.snapshot_bytes_loaded = store.bytes_loaded();
            stats.snapshot_plans_loaded = store.plans_loaded();
        }
        stats
    }

    /// Runs one batch through the scheduler, lanes persisting from the
    /// previous run (same-tenant replay — see [`BatchScheduler::run`]),
    /// triggering the cadence jobs as steps execute.
    pub fn run<'a, S, F>(&mut self, traces: &[S], sink: F)
    where
        T: 'a,
        S: AsRef<[TraceStep<'a, T>]>,
        F: FnMut(usize, usize, &OutputMatrix<T>),
    {
        self.run_inner(traces, sink);
    }

    /// [`ServingLoop::run`] for a *new* batch: retires every lane first
    /// ([`BatchScheduler::begin_batch`]), so the traces get fresh sessions,
    /// stats, and freshly minted admission tenant ids.
    pub fn run_batch<'a, S, F>(&mut self, traces: &[S], sink: F)
    where
        T: 'a,
        S: AsRef<[TraceStep<'a, T>]>,
        F: FnMut(usize, usize, &OutputMatrix<T>),
    {
        self.sched.begin_batch();
        self.run_inner(traces, sink);
    }

    /// [`ServingLoop::run_batch`] with explicit tenant ids per lane
    /// ([`BatchScheduler::begin_batch_as`]): lane `i` serves `tenants[i]`.
    /// Resolving the handles stamps each tenant's last-touched generation,
    /// which is what keeps *returning* tenants alive across GC sweeps.
    pub fn run_batch_as<'a, S, F>(&mut self, tenants: &[u64], traces: &[S], sink: F)
    where
        T: 'a,
        S: AsRef<[TraceStep<'a, T>]>,
        F: FnMut(usize, usize, &OutputMatrix<T>),
    {
        self.sched.begin_batch_as(tenants);
        self.run_inner(traces, sink);
    }

    fn run_inner<'a, S, F>(&mut self, traces: &[S], mut sink: F)
    where
        T: 'a,
        S: AsRef<[TraceStep<'a, T>]>,
        F: FnMut(usize, usize, &OutputMatrix<T>),
    {
        // The scheduler is mutably borrowed for the whole run, so the
        // cadence jobs work through locals + the cache's `Arc` and are
        // written back after.
        let service = self.service.clone();
        let shared = Arc::clone(self.sched.shared_cache());
        let tile = self.sched.config().tile;
        // Gossip bootstrap: a process joining a fleet sweeps its peers
        // once *before* serving its first step, so it starts warm instead
        // of rediscovering plans its peers already hold.
        if service.gossip_every > 0 && !self.gossip_bootstrapped {
            self.gossip_bootstrapped = true;
            for peer in &mut self.gossip {
                let (imports, adopted, stale) = peer.sweep(&shared, tile);
                self.gossip_imports += imports;
                self.gossip_plans_adopted += adopted;
                self.gossip_skipped_stale += stale;
            }
        }
        let mut gossip = std::mem::take(&mut self.gossip);
        let mut since_gossip = self.since_gossip;
        let mut gossip_imports = 0u64;
        let mut gossip_plans_adopted = 0u64;
        let mut gossip_skipped_stale = 0u64;
        // Materialize the lanes now so this run's tenant set is known:
        // before every GC sweep the live tenants are re-stamped, so a
        // tenant in the middle of a batch longer than the GC horizon is
        // never evicted as "idle" (handle resolution only marks batch
        // starts).
        self.sched.ensure_lanes(traces.len());
        let live_tenants: Vec<u64> = self
            .sched
            .tenants()
            .into_iter()
            .take(traces.len())
            .collect();
        let tx = self.snapshot_tx.clone();
        let store = self.store.clone();
        #[cfg(any(test, feature = "fault-injection"))]
        let fault_state = super::faults::snapshot();
        let mut since_snapshot = self.since_snapshot;
        let mut since_gc = self.since_gc;
        let mut snapshots_exported = 0u64;
        let mut gc_evictions = 0u64;
        let mut export = self.export.take();
        self.sched.run(traces, |lane, step, out| {
            sink(lane, step, out);
            if service.snapshot_every > 0 {
                since_snapshot += 1;
                if since_snapshot >= service.snapshot_every {
                    since_snapshot = 0;
                    // One export in flight at a time: a tick landing while
                    // the previous walk is still running is skipped, never
                    // queued — the next tick exports a fresher cache
                    // anyway.
                    if export.as_ref().is_none_or(JoinHandle::is_finished) {
                        if let Some(done) = export.take() {
                            let _ = done.join();
                        }
                        let shared = Arc::clone(&shared);
                        let tx = tx.clone();
                        let plans = service.snapshot_plans;
                        let store = store.clone();
                        #[cfg(any(test, feature = "fault-injection"))]
                        let fault_state = fault_state.clone();
                        export = Some(std::thread::spawn(move || {
                            // Spawned threads start with an empty fault
                            // plan; re-adopt the serving thread's so
                            // injected IO faults reach the store path.
                            #[cfg(any(test, feature = "fault-injection"))]
                            let _faults = super::faults::adopt(fault_state);
                            // Locks one shard at a time; lanes keep
                            // planning concurrently.
                            let snapshot = shared.export_hottest(plans);
                            if let Some(store) = &store {
                                // A save that exhausts its retries is
                                // dropped here — persistence hygiene must
                                // never abort serving; the store's
                                // counters record what happened.
                                let _ = store.save(&snapshot);
                            }
                            let _ = tx.send(snapshot);
                        }));
                        snapshots_exported += 1;
                    }
                }
            }
            if service.gc_every > 0 {
                since_gc += 1;
                if since_gc >= service.gc_every {
                    since_gc = 0;
                    for &tenant in &live_tenants {
                        shared.touch_tenant(tenant);
                    }
                    gc_evictions += shared.gc_tenants(service.gc_max_idle) as u64;
                }
            }
            if service.gossip_every > 0 {
                since_gossip += 1;
                if since_gossip >= service.gossip_every {
                    since_gossip = 0;
                    // Synchronous by design: one bounded directory scan
                    // (plus at most one snapshot decode) per peer, and a
                    // deterministic import order — the fleet tests pin
                    // bit-identity against a no-gossip oracle, which a
                    // racing import thread could not.
                    for peer in &mut gossip {
                        let (imports, adopted, stale) = peer.sweep(&shared, tile);
                        gossip_imports += imports;
                        gossip_plans_adopted += adopted;
                        gossip_skipped_stale += stale;
                    }
                }
            }
        });
        self.since_snapshot = since_snapshot;
        self.since_gc = since_gc;
        self.since_gossip = since_gossip;
        self.snapshots_exported += snapshots_exported;
        self.gc_evictions += gc_evictions;
        self.gossip_imports += gossip_imports;
        self.gossip_plans_adopted += gossip_plans_adopted;
        self.gossip_skipped_stale += gossip_skipped_stale;
        self.gossip = gossip;
        self.export = export;
    }

    /// Collects every background export finished so far, oldest first,
    /// joining an in-flight export thread if there is one (exports are a
    /// bounded walk over the shards, so this blocks at most briefly).
    /// Returns an empty vector when no cadence has fired since the last
    /// call.
    pub fn take_snapshots(&mut self) -> Vec<PlanSnapshot> {
        if let Some(handle) = self.export.take() {
            let _ = handle.join();
        }
        self.snapshot_rx.try_iter().collect()
    }
}

impl<T> Drop for ServingLoop<T> {
    fn drop(&mut self) {
        // Never leak a running export thread past the loop's lifetime.
        if let Some(handle) = self.export.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spikemat::gemm::{spiking_gemm, WeightMatrix};
    use spikemat::{SpikeMatrix, TileShape};

    fn test_traces() -> (SpikeMatrix, WeightMatrix<i64>) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0x5EF);
        let spikes = SpikeMatrix::random(32, 16, 0.3, &mut rng);
        let w = WeightMatrix::from_fn(16, 4, |r, c| (r * 3 + c) as i64 - 5);
        (spikes, w)
    }

    #[test]
    fn cadence_exports_decodable_snapshots() {
        let (spikes, w) = test_traces();
        let traces = vec![vec![(&spikes, &w); 6], vec![(&spikes, &w); 6]];
        let service = ServiceConfig::default().with_snapshots(4, 128);
        let mut serving = ServingLoop::new(
            EngineConfig::new(TileShape::new(8, 8), 128),
            BatchPolicy::RoundRobin,
            service,
        );
        serving.run(&traces, |_, _, out| {
            assert_eq!(out, &spiking_gemm(&spikes, &w));
        });
        let snapshots = serving.take_snapshots();
        assert!(!snapshots.is_empty());
        assert_eq!(serving.stats().snapshots_exported, snapshots.len() as u64);
        for snap in &snapshots {
            let decoded = PlanSnapshot::decode(snap.encode()).expect("decodable");
            assert_eq!(decoded.len(), snap.len());
        }
        // Cadence state persists across runs; nothing new without steps.
        assert!(serving.take_snapshots().is_empty());
    }

    #[test]
    fn disabled_service_never_exports_or_sweeps() {
        let (spikes, w) = test_traces();
        let traces = vec![vec![(&spikes, &w); 8]];
        let mut serving = ServingLoop::new(
            EngineConfig::new(TileShape::new(8, 8), 128),
            BatchPolicy::RoundRobin,
            ServiceConfig::default(),
        );
        serving.run(&traces, |_, _, _| {});
        assert!(serving.take_snapshots().is_empty());
        let stats = serving.stats();
        assert_eq!(stats.snapshots_exported, 0);
        assert_eq!(stats.gc_evictions, 0);
        assert_eq!(stats.lane_steps, vec![8]);
    }

    #[test]
    fn gc_never_evicts_an_actively_executing_tenant() {
        use super::super::cache::AdmissionConfig;
        let (spikes, w) = test_traces();
        let config =
            EngineConfig::new(TileShape::new(8, 8), 256).with_admission(AdmissionConfig::default());
        // The most aggressive horizon possible: sweep every step, evict
        // anything not touched since the previous sweep. A tenant in the
        // middle of a batch far longer than that horizon must still be
        // alive at the end — live lanes are re-stamped before each sweep.
        let service = ServiceConfig::default().with_gc(1, 0);
        let mut serving = ServingLoop::<i64>::new(config, BatchPolicy::RoundRobin, service);
        let traces = vec![vec![(&spikes, &w); 32]];
        serving.run(&traces, |_, _, _| {});
        assert_eq!(serving.stats().gc_evictions, 0);
        assert_eq!(
            serving.shared_cache().stats().tenants,
            1,
            "the executing tenant's window must survive mid-batch sweeps"
        );
    }

    #[test]
    fn attached_store_persists_every_export_crash_safely() {
        let (spikes, w) = test_traces();
        let dir = std::env::temp_dir().join("prosperity_service_store_test");
        std::fs::remove_dir_all(&dir).ok();
        let store = Arc::new(SnapshotStore::new(&dir, 2).expect("open store"));
        let traces = vec![vec![(&spikes, &w); 6], vec![(&spikes, &w); 6]];
        let service = ServiceConfig::default().with_snapshots(4, 128);
        let mut serving = ServingLoop::new(
            EngineConfig::new(TileShape::new(8, 8), 128),
            BatchPolicy::RoundRobin,
            service,
        )
        .with_snapshot_store(Arc::clone(&store));
        serving.run(&traces, |_, _, out| {
            assert_eq!(out, &spiking_gemm(&spikes, &w));
        });
        let snapshots = serving.take_snapshots();
        assert!(!snapshots.is_empty());
        // Every export also landed on disk (bounded by retention) and the
        // newest loads back valid.
        let files = store.files().expect("list");
        assert!(!files.is_empty() && files.len() <= 2, "{files:?}");
        let loaded = store
            .load_latest_valid()
            .expect("walk")
            .expect("a valid snapshot is retained");
        assert_eq!(loaded.len(), snapshots.last().unwrap().len());
        let stats = serving.stats();
        assert_eq!(stats.snapshot_io_retries, 0);
        assert_eq!(stats.snapshots_quarantined, 0);
        drop(serving);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_export_io_failure_retries_without_touching_results() {
        use super::super::faults;
        faults::silence_injected_panics();
        let (spikes, w) = test_traces();
        let dir = std::env::temp_dir().join("prosperity_service_retry_test");
        std::fs::remove_dir_all(&dir).ok();
        let store = Arc::new(
            SnapshotStore::new(&dir, 2)
                .expect("open store")
                .with_retry(3, std::time::Duration::from_micros(50)),
        );
        let traces = vec![vec![(&spikes, &w); 8]];
        let service = ServiceConfig::default().with_snapshots(3, 64);
        let mut serving = ServingLoop::new(
            EngineConfig::new(TileShape::new(8, 8), 128),
            BatchPolicy::RoundRobin,
            service,
        )
        .with_snapshot_store(Arc::clone(&store));
        // Fail the first store IO op: the export thread (which adopted
        // the plan) retries and the save lands; serving stays exact.
        let guard = faults::install(faults::FaultPlan::fail_io(0));
        serving.run(&traces, |_, _, out| {
            assert_eq!(out, &spiking_gemm(&spikes, &w));
        });
        let snapshots = serving.take_snapshots();
        assert!(!snapshots.is_empty());
        assert!(guard.fired().fail_io, "export thread hit the injected op");
        drop(guard);
        assert_eq!(serving.stats().snapshot_io_retries, 1);
        assert!(store.load_latest_valid().expect("walk").is_some());
        drop(serving);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gossip_bootstrap_imports_a_peer_snapshot_then_skips_stale() {
        let (spikes, w) = test_traces();
        let traces = vec![vec![(&spikes, &w); 8]];
        let dir = std::env::temp_dir().join(format!(
            "prosperity_service_gossip_test_{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        // A donor process's store directory holding one warm snapshot.
        let store = SnapshotStore::new(&dir, 4).expect("open store");
        let mut donor = ServingLoop::new(
            EngineConfig::new(TileShape::new(8, 8), 128),
            BatchPolicy::RoundRobin,
            ServiceConfig::default(),
        );
        donor.run(&traces, |_, _, _| {});
        let exported = donor.shared_cache().export_hottest(128);
        assert!(!exported.is_empty());
        store.save(&exported).expect("save");

        // A joiner gossiping on that directory warms up on its bootstrap
        // sweep (before step 0) and serves bit-exact results.
        let service = ServiceConfig::default().with_gossip(4, vec![dir.clone()]);
        let mut joiner = ServingLoop::new(
            EngineConfig::new(TileShape::new(8, 8), 128),
            BatchPolicy::RoundRobin,
            service,
        );
        joiner.run(&traces, |_, _, out| {
            assert_eq!(out, &spiking_gemm(&spikes, &w));
        });
        let stats = joiner.stats();
        assert!(stats.gossip_imports >= 1, "{stats:?}");
        assert!(stats.gossip_plans_adopted > 0, "{stats:?}");
        // Nothing new in the peer directory: every further sweep is a
        // stale skip resolved from the listing alone.
        let before = joiner.stats().gossip_skipped_stale;
        joiner.run(&traces, |_, _, _| {});
        let after = joiner.stats();
        assert!(after.gossip_skipped_stale > before, "{after:?}");
        assert_eq!(after.gossip_plans_adopted, stats.gossip_plans_adopted);
        drop(joiner);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gossip_disabled_keeps_counters_zero() {
        let (spikes, w) = test_traces();
        let traces = vec![vec![(&spikes, &w); 8]];
        let mut serving = ServingLoop::new(
            EngineConfig::new(TileShape::new(8, 8), 128),
            BatchPolicy::RoundRobin,
            ServiceConfig::default(),
        );
        serving.run(&traces, |_, _, _| {});
        let stats = serving.stats();
        assert_eq!(stats.gossip_imports, 0);
        assert_eq!(stats.gossip_plans_adopted, 0);
        assert_eq!(stats.gossip_skipped_stale, 0);
    }

    #[test]
    fn set_gossip_peers_preserves_state_for_kept_directories() {
        let (spikes, w) = test_traces();
        let traces = vec![vec![(&spikes, &w); 4]];
        let base = std::env::temp_dir().join(format!(
            "prosperity_service_peerset_test_{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&base).ok();
        let kept = base.join("kept");
        let fresh = base.join("fresh");
        let store = SnapshotStore::new(&kept, 4).expect("open store");
        let mut donor = ServingLoop::new(
            EngineConfig::new(TileShape::new(8, 8), 128),
            BatchPolicy::RoundRobin,
            ServiceConfig::default(),
        );
        donor.run(&traces, |_, _, _| {});
        store
            .save(&donor.shared_cache().export_hottest(128))
            .expect("save");

        let service = ServiceConfig::default().with_gossip(2, vec![kept.clone()]);
        let mut joiner = ServingLoop::new(
            EngineConfig::new(TileShape::new(8, 8), 128),
            BatchPolicy::RoundRobin,
            service,
        );
        joiner.run(&traces, |_, _, _| {});
        let imported = joiner.stats().gossip_imports;
        assert!(imported >= 1);
        // Membership change keeping the old peer: its staleness cutoff
        // survives, so the kept directory is not re-imported.
        joiner.set_gossip_peers(vec![kept.clone(), fresh.clone()]);
        joiner.run(&traces, |_, _, _| {});
        assert_eq!(joiner.stats().gossip_imports, imported);
        drop(joiner);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn gc_cadence_counts_evictions() {
        use super::super::cache::AdmissionConfig;
        let (spikes, w) = test_traces();
        let config =
            EngineConfig::new(TileShape::new(8, 8), 256).with_admission(AdmissionConfig::default());
        let service = ServiceConfig::default().with_gc(2, 0);
        let mut serving = ServingLoop::<i64>::new(config, BatchPolicy::RoundRobin, service);
        // Every batch mints a fresh tenant; with max_idle 0, each sweep
        // evicts every window not touched since the previous sweep.
        for _ in 0..6 {
            let traces = vec![vec![(&spikes, &w); 4]];
            serving.run_batch(&traces, |_, _, _| {});
        }
        assert!(serving.stats().gc_evictions > 0);
        let tenants = serving.shared_cache().stats().tenants;
        assert!(tenants <= 2, "table must stay bounded, got {tenants}");
    }
}
