//! Cross-trace batch scheduling: interleaving many logical GeMM streams
//! through one [`SharedPlanCache`] so concurrent requests amortize each
//! other's planning work — with QoS policies deciding *which* trace runs
//! next.
//!
//! Spike tiles repeat not just across the timesteps of one request but
//! across concurrent requests running the same model: whichever session
//! plans a tile first warms it for every other session. The scheduler owns
//! one [`Session`] per concurrent trace (recycled across [`run`] calls, so
//! per-session pools stay warm) and decides the interleaving order:
//!
//! * [`BatchPolicy::Weighted`] — deficit round robin: every lane accrues
//!   its weight in credits per round and runs one step per credit, so a
//!   weight-3 tenant gets 3× the steps of a weight-1 tenant while both are
//!   runnable. Credits carry the deficit across rounds.
//! * [`BatchPolicy::RoundRobin`] — `Weighted` with every weight 1: one step
//!   per trace per round, in trace order. Fair, and keeps sibling traces in
//!   temporal lockstep so their shared tiles are resident when the next
//!   trace arrives at the same timestep.
//! * [`BatchPolicy::Deadline`] — earliest-deadline-first over per-trace
//!   step budgets (the global step count by which the trace should have
//!   finished), with a starvation guard so budget-less background traces
//!   still make progress.
//!
//! Scheduling order never changes *results* — plans are content-addressed
//! and pure in the tile bits — only latency distribution; every policy is
//! property-tested bit-identical to the serial private-cache oracle in
//! `tests/serving.rs`. What a run did is recorded in a
//! [`SchedulerStats`] (per-lane steps, completion steps, credits, deadline
//! misses).
//!
//! **Scheduling quantum.** Every scheduler visit is one
//! [`Session::gemm_slice`] call. By default its quantum is 0, which runs
//! the whole GeMM. With [`BatchScheduler::with_slice_quantum`] the quantum
//! drops below the GeMM: a visit executes at most that many *row-tiles*
//! via the session's resumable cursor, then yields — so every policy can
//! preempt a monster GeMM mid-flight, and `Weighted`/`Deadline` charge
//! credits/budgets per slice executed rather than per whole GeMM. The sink
//! still fires exactly once per GeMM, on its completing slice. See the
//! `SchedulerStats` docs for how the global clock (and thus deadlines and
//! completion steps) is denominated in sliced mode.
//!
//! **Fault tolerance.** A panic inside one lane's step (planning,
//! execution, or the caller's sink) is caught at the step boundary and
//! *quarantines* that lane — the fault is recorded as a [`LaneFault`],
//! the lane leaves the scheduling loop, and every surviving lane keeps
//! serving, still bit-identical to the oracle (the only cross-lane state
//! is the content-addressed shared cache, whose poisoned shards recover
//! by resetting — see [`SharedPlanCache`]). Quarantine persists across
//! [`run`] calls until [`BatchScheduler::begin_batch`] retires the lanes;
//! [`SchedulerStats::lane_faults`] counts the quarantined lanes and
//! [`SchedulerStats::shard_resets`] the shard recoveries.
//!
//! [`run`]: BatchScheduler::run

use std::sync::Arc;

use spikemat::gemm::{OutputMatrix, WeightMatrix};
use spikemat::SpikeMatrix;

use super::session::{Session, SliceRun};
use super::shared::SharedPlanCache;
use super::snapshot::{ImportReport, PlanSnapshot};
use super::stats::{EngineStats, SchedulerStats};
use super::{Element, EngineConfig};

/// One step of a logical trace: a spiking GeMM to execute.
pub type TraceStep<'a, T> = (&'a SpikeMatrix, &'a WeightMatrix<T>);

/// Record of a caught lane panic: which lane, at which trace-local step,
/// and the panic payload (when it was a string). The lane is quarantined —
/// skipped by every subsequent [`BatchScheduler::run`] — until
/// [`BatchScheduler::begin_batch`] retires it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneFault {
    /// Lane (trace index) that panicked.
    pub lane: usize,
    /// Trace-local step that was executing when the panic unwound.
    pub step: usize,
    /// Stringified panic payload (`"non-string panic payload"` when the
    /// payload was not a `&str`/`String`).
    pub reason: String,
}

/// Best-effort stringification of a caught panic payload.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One scheduler visit of `lane` at trace-local `step`: at most `quantum`
/// row-tiles of the GeMM (0 = the rest of it) through the session's slice
/// cursor, then `sink` if that slice completed the GeMM. Both
/// [`BatchScheduler::run`] and [`BatchScheduler::run_concurrent`] visit
/// lanes through here.
///
/// A panic in the body is caught and comes back as the lane's
/// [`LaneFault`]. `AssertUnwindSafe` is a deliberate, audited choice: the
/// states the closure can leave torn are this lane's session and output
/// buffer — both unreachable after quarantine except through
/// plain-counter stats reads — and the shared cache, whose poisoned shards
/// recover by resetting ([`SharedPlanCache`] fault tolerance). A panicking
/// caller `sink` vouches for its own captures by panicking into a
/// scheduler that documents continuing.
fn visit_lane<T: Element>(
    session: &mut Session<T>,
    out: &mut OutputMatrix<T>,
    lane: usize,
    step: usize,
    (spikes, weights): TraceStep<'_, T>,
    quantum: usize,
    sink: impl FnOnce(usize, usize, &OutputMatrix<T>),
) -> Result<SliceRun, LaneFault> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        #[cfg(any(test, feature = "fault-injection"))]
        super::faults::maybe_panic_lane(lane, step);
        let slice = session.gemm_slice(spikes, weights, out, quantum);
        if slice.done {
            sink(lane, step, out);
        }
        slice
    }))
    .map_err(|payload| LaneFault {
        lane,
        step,
        reason: panic_reason(payload.as_ref()),
    })
}

/// How the scheduler interleaves runnable traces.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum BatchPolicy {
    /// One step per trace per round, in trace order: [`BatchPolicy::Weighted`]
    /// with every weight 1.
    #[default]
    RoundRobin,
    /// Deficit round robin: lane `i` accrues `weights[i]` credits per round
    /// and runs one step per credit, so a weight-`w` tenant receives `w`×
    /// the steps of a weight-1 tenant while both are runnable. Lanes beyond
    /// the vector (and zero weights, which could never be scheduled) default
    /// to weight 1.
    Weighted {
        /// Per-lane scheduling weight, indexed by lane.
        weights: Vec<u32>,
    },
    /// Earliest-deadline-first: lane `i` should finish within `budgets[i]`
    /// global steps (across all lanes); each decision runs the runnable
    /// lane with the smallest budget. Lanes beyond the vector have no
    /// deadline and are scheduled last — except that the starvation guard
    /// forces a step for any lane that has waited
    /// [`DEADLINE_STARVATION_GUARD`] steps, so they cannot be starved
    /// forever. Completions later than the budget are counted as
    /// [`SchedulerStats::deadline_misses`].
    Deadline {
        /// Per-lane step budget (deadline in global executed steps),
        /// indexed by lane.
        budgets: Vec<u64>,
    },
}

/// Steps a runnable lane may wait under [`BatchPolicy::Deadline`] before
/// the scheduler forces it a step regardless of its deadline rank — the
/// starvation guard for budget-less (or latest-deadline) traces behind a
/// long stream of tighter deadlines.
pub const DEADLINE_STARVATION_GUARD: u64 = 128;

/// Per-run scheduling state, resolved from the policy at the top of
/// [`BatchScheduler::run`] so the loop below never re-inspects the policy
/// enum (and so lane-count-dependent vectors are sized exactly once).
enum PolicyState {
    Weighted {
        /// Effective per-lane weight (defaulted and zero-clamped).
        weights: Vec<u64>,
        /// Deficit credit balance per lane.
        credits: Vec<u64>,
    },
    Deadline {
        /// Effective per-lane deadline (defaulted to `u64::MAX`).
        deadlines: Vec<u64>,
        /// Steps since each lane last ran (starvation guard input).
        waits: Vec<u64>,
    },
}

impl PolicyState {
    fn new(policy: &BatchPolicy, lanes: usize) -> Self {
        match policy {
            // Every lane beyond an empty weight vector defaults to weight
            // 1: one step per live lane per round, in lane order.
            BatchPolicy::RoundRobin => Self::new(&BatchPolicy::Weighted { weights: vec![] }, lanes),
            BatchPolicy::Weighted { weights } => PolicyState::Weighted {
                weights: (0..lanes)
                    .map(|i| u64::from(weights.get(i).copied().unwrap_or(1).max(1)))
                    .collect(),
                credits: vec![0; lanes],
            },
            BatchPolicy::Deadline { budgets } => PolicyState::Deadline {
                deadlines: (0..lanes)
                    .map(|i| budgets.get(i).copied().unwrap_or(u64::MAX))
                    .collect(),
                waits: vec![0; lanes],
            },
        }
    }
}

/// Interleaves multiple traces through sessions sharing one plan cache.
///
/// Sessions (and their pooled buffers) persist across [`BatchScheduler::run`]
/// calls; lane `i` always maps to session `i` *and* to that session's
/// admission tenant id, so a caller replaying the same tenant on the same
/// lane keeps its warm state and its own admission window. When the *next*
/// run serves a different tenant set, call [`BatchScheduler::begin_batch`]
/// (or [`begin_batch_as`](BatchScheduler::begin_batch_as) for explicit
/// tenant ids) first — otherwise the new traces inherit the previous
/// tenants' admission windows and per-lane stats.
///
/// ```
/// use prosperity_core::engine::{BatchPolicy, BatchScheduler, EngineConfig};
/// use spikemat::gemm::{spiking_gemm, WeightMatrix};
/// use spikemat::SpikeMatrix;
///
/// // Two tenants replay the same spikes against their own weights.
/// let spikes = SpikeMatrix::from_rows_of_bits(&[&[1, 0, 1], &[0, 1, 1]]);
/// let w0 = WeightMatrix::from_fn(3, 2, |r, c| (r + c) as i64);
/// let w1 = WeightMatrix::from_fn(3, 2, |r, c| (r * 2 + c) as i64);
/// let traces = vec![vec![(&spikes, &w0)], vec![(&spikes, &w1)]];
///
/// let mut sched =
///     BatchScheduler::new(EngineConfig::default(), BatchPolicy::RoundRobin);
/// sched.run(&traces, |lane, _step, out| {
///     let want = if lane == 0 { &w0 } else { &w1 };
///     assert_eq!(out, &spiking_gemm(&spikes, want));
/// });
/// // Lane 1 reused lane 0's plans: plan sharing is keyed on spikes only.
/// assert_eq!(sched.session_stats()[1].cache_misses, 0);
/// ```
#[derive(Debug)]
pub struct BatchScheduler<T = i64> {
    config: EngineConfig,
    policy: BatchPolicy,
    shared: Arc<SharedPlanCache>,
    sessions: Vec<Session<T>>,
    /// Admission tenant id the next freshly created lane receives; advances
    /// monotonically so [`BatchScheduler::begin_batch`] mints ids no
    /// previous batch ever used.
    next_tenant: u64,
    /// Pooled per-lane output buffers (kept across `begin_batch`, which
    /// only retires sessions).
    outs: Vec<OutputMatrix<T>>,
    /// Scheduling record of the last [`BatchScheduler::run`] call.
    sched_stats: SchedulerStats,
    /// Per-lane quarantine slot: `Some` after a caught panic, until
    /// [`BatchScheduler::begin_batch`] retires the lanes.
    quarantine: Vec<Option<LaneFault>>,
    /// Max row-tiles per scheduler visit; 0 = whole-GeMM quantum.
    slice_quantum: usize,
}

impl<T: Element> BatchScheduler<T> {
    /// Creates a scheduler with a fresh shared cache sized by
    /// `config.cache_capacity` (and `config.admission`, applied per
    /// tenant). The cache's shard count is derived from the host's
    /// parallelism and the capacity ([`SharedPlanCache::recommended_shards`]);
    /// build the cache explicitly and use [`BatchScheduler::with_cache`] to
    /// pin a specific shard count.
    pub fn new(config: EngineConfig, policy: BatchPolicy) -> Self {
        let shared = Arc::new(SharedPlanCache::with_shards(
            config.cache_capacity,
            SharedPlanCache::recommended_shards(config.cache_capacity),
            config.admission,
        ));
        Self::with_cache(config, policy, shared)
    }

    /// Creates a scheduler over an existing shared cache (e.g. one also
    /// used by sessions outside this scheduler).
    pub fn with_cache(
        config: EngineConfig,
        policy: BatchPolicy,
        shared: Arc<SharedPlanCache>,
    ) -> Self {
        Self {
            config,
            policy,
            shared,
            sessions: Vec::new(),
            next_tenant: 0,
            outs: Vec::new(),
            sched_stats: SchedulerStats::default(),
            quarantine: Vec::new(),
            slice_quantum: 0,
        }
    }

    /// Sets the scheduling quantum: each scheduler visit executes at most
    /// `quantum` row-tiles of the chosen lane's current GeMM (resuming it
    /// across visits via the session's [`Session::gemm_slice`] cursor), or
    /// the whole GeMM when `quantum == 0` (the default).
    ///
    /// A sub-GeMM quantum makes preemption tile-granular: round-robin
    /// interleaves row-tiles instead of whole GeMMs, deficit-round-robin
    /// shares become fine-grained, and EDF can take a monster GeMM off the
    /// core between row-tiles. Outputs are bit-identical under any quantum
    /// — slicing partitions work, never reorders accumulation — but the
    /// global clock that `Deadline` budgets and
    /// [`SchedulerStats::completion_steps`] are denominated in counts
    /// scheduler visits, so with `quantum > 0` those units shrink from
    /// whole GeMMs to slices.
    #[must_use]
    pub fn with_slice_quantum(mut self, quantum: usize) -> Self {
        self.slice_quantum = quantum;
        self
    }

    /// The scheduling quantum in row-tiles (0 = whole GeMMs).
    pub fn slice_quantum(&self) -> usize {
        self.slice_quantum
    }

    /// [`BatchScheduler::new`] pre-warmed from a snapshot exported by a
    /// previous process ([`SharedPlanCache::export_hottest`] or
    /// `Session::export_snapshot`), so the fleet's first pass starts at a
    /// warm hit rate. Returns the scheduler plus what the import did (a
    /// snapshot larger than the cache degrades to a partial restore;
    /// entries not matching `config.tile` are dropped as
    /// [`ImportReport::skipped_shape`]).
    pub fn warm_start(
        config: EngineConfig,
        policy: BatchPolicy,
        snapshot: &PlanSnapshot,
    ) -> (Self, ImportReport) {
        let sched = Self::new(config, policy);
        let report = sched.shared.import(snapshot, config.tile);
        (sched, report)
    }

    /// The engine configuration every lane session is built with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The scheduling policy.
    pub fn policy(&self) -> &BatchPolicy {
        &self.policy
    }

    /// The shared plan cache all lanes plan through.
    pub fn shared_cache(&self) -> &Arc<SharedPlanCache> {
        &self.shared
    }

    /// Per-lane session statistics (one entry per lane of the current
    /// batch).
    pub fn session_stats(&self) -> Vec<EngineStats> {
        self.sessions.iter().map(Session::stats).collect()
    }

    /// All lanes' statistics merged into one fleet-wide row.
    pub fn merged_stats(&self) -> EngineStats {
        let stats = self.session_stats();
        EngineStats::merged(stats.iter())
    }

    /// Scheduling record of the last [`BatchScheduler::run`] call: per-lane
    /// step and completion counts, leftover DRR credits, deadline misses.
    /// (Rebuilt at the top of every `run`; [`BatchScheduler::run_concurrent`]
    /// does not interleave, so it clears this instead.)
    pub fn scheduler_stats(&self) -> &SchedulerStats {
        &self.sched_stats
    }

    /// Zeroes every lane's statistics counters **and** the shared cache's
    /// aggregate counters, so post-reset `merged_stats()` and
    /// `shared_cache().stats()` count the same traffic again (resetting
    /// only the lanes made every later comparison double-count the
    /// pre-reset lookups — the historical bug). Cache *contents* and
    /// residency are untouched. Note the shared side is visible to every
    /// holder of this cache: callers sharing it outside this scheduler
    /// should reset via [`SharedPlanCache::reset_stats`] at a quiesced
    /// point instead.
    pub fn reset_stats(&mut self) {
        for s in &mut self.sessions {
            s.reset_stats();
        }
        self.shared.reset_stats();
        self.sched_stats = SchedulerStats::default();
    }

    /// Retires every lane so the next [`BatchScheduler::run`] serves a
    /// *new* batch: fresh sessions, fresh per-lane [`EngineStats`], and
    /// freshly minted admission tenant ids that no previous batch used.
    ///
    /// Without this, lanes persist across runs by design (same-tenant
    /// replay keeps warm pools and its own admission window) — which means
    /// a second `run` with a *different* trace set would inherit the
    /// previous traces' admission windows and stats under the same lane
    /// ids. The shared plan cache (the expensive state) stays warm either
    /// way; only per-lane session state is rebuilt.
    pub fn begin_batch(&mut self) {
        self.begin_batch_as(&[]);
    }

    /// The recorded faults of currently quarantined lanes, in lane order.
    /// Empty while every lane is healthy; cleared (with the lanes) by
    /// [`BatchScheduler::begin_batch`].
    pub fn quarantined(&self) -> Vec<LaneFault> {
        self.quarantine.iter().flatten().cloned().collect()
    }

    /// [`BatchScheduler::begin_batch`] with an explicit tenant id per lane:
    /// lane `i` of the next run serves `tenants[i]` (admission window and
    /// all). Lanes beyond the slice — if the next run has more traces —
    /// get freshly minted ids, guaranteed distinct from every explicit id
    /// ever passed here.
    pub fn begin_batch_as(&mut self, tenants: &[u64]) {
        self.sessions.clear();
        self.quarantine.clear();
        for &tenant in tenants {
            self.next_tenant = self.next_tenant.max(tenant.saturating_add(1));
            self.push_lane(tenant);
        }
    }

    /// The admission tenant id each current lane serves, in lane order.
    pub fn tenants(&self) -> Vec<u64> {
        self.sessions.iter().map(Session::tenant).collect()
    }

    /// Appends one lane serving `tenant` through the shared cache. Output
    /// buffers outlive `begin_batch`, so a new lane reuses a pooled one
    /// when the previous batch left it behind.
    fn push_lane(&mut self, tenant: u64) {
        self.sessions.push(Session::with_shared_tenant(
            self.config,
            Arc::clone(&self.shared),
            tenant,
        ));
        if self.outs.len() < self.sessions.len() {
            self.outs.push(OutputMatrix::zeros(0, 0));
        }
    }

    pub(crate) fn ensure_lanes(&mut self, n: usize) {
        while self.sessions.len() < n {
            // Each lane's session carries its own admission tenant id, so
            // each trace's stream gets its own sliding window. Ids are
            // minted from a monotone counter (not the lane index) so a
            // `begin_batch` can never alias a previous batch's windows.
            let tenant = self.next_tenant;
            self.next_tenant += 1;
            self.push_lane(tenant);
        }
        if self.quarantine.len() < n {
            self.quarantine.resize_with(n, || None);
        }
    }

    /// Runs every trace to completion on one thread, interleaving steps
    /// according to the policy. `sink` observes `(trace, step, output)` for
    /// every executed GeMM before the lane's output buffer is recycled.
    ///
    /// Results are bit-identical to running each trace alone through a
    /// private-cache session: plans are content-addressed, so sharing only
    /// changes *who* planned a tile, never what the plan computes. The
    /// policy likewise only shapes latency; what a run did is recorded in
    /// [`BatchScheduler::scheduler_stats`].
    ///
    /// Exhausted traces leave the scheduling loop entirely (a live-lane
    /// list), so long-tail batches — one long trace among many finished
    /// ones — pay O(1) per step, not O(lanes).
    ///
    /// A panic inside a lane's step (planning, execution, or the caller's
    /// `sink`) does not abort the run: the lane is quarantined with a
    /// recorded [`LaneFault`] and the surviving lanes complete normally.
    /// Quarantined lanes (including ones from previous runs) are skipped —
    /// their sink is never called — until [`BatchScheduler::begin_batch`].
    pub fn run<'a, S, F>(&mut self, traces: &[S], mut sink: F)
    where
        T: 'a,
        S: AsRef<[TraceStep<'a, T>]>,
        F: FnMut(usize, usize, &OutputMatrix<T>),
    {
        self.ensure_lanes(traces.len());
        let mut cursors = vec![0usize; traces.len()];
        // Lanes with steps remaining, in lane order. Exhausted lanes are
        // removed so no policy ever re-scans them.
        let mut live: Vec<usize> = (0..traces.len())
            .filter(|&i| !traces[i].as_ref().is_empty() && self.quarantine[i].is_none())
            .collect();
        self.sched_stats = SchedulerStats {
            lane_steps: vec![0; traces.len()],
            lane_row_tiles: vec![0; traces.len()],
            credit_balances: vec![0; traces.len()],
            completion_steps: vec![0; traces.len()],
            ..SchedulerStats::default()
        };
        let mut state = PolicyState::new(&self.policy, traces.len());
        // Global executed-step clock (1-based after the first step), the
        // unit deadlines are expressed in.
        let mut t: u64 = 0;
        while !live.is_empty() {
            match &mut state {
                PolicyState::Weighted { weights, credits } => {
                    live.retain(|&i| {
                        credits[i] += weights[i];
                        let mut alive = true;
                        while credits[i] > 0 && alive {
                            credits[i] -= 1;
                            alive = self.step_lane(i, &mut cursors, traces, &mut t, &mut sink);
                        }
                        alive
                    });
                }
                PolicyState::Deadline { deadlines, waits } => {
                    // Starvation guard first, then earliest deadline
                    // (ties toward the lowest lane index).
                    let pos = live
                        .iter()
                        .position(|&i| waits[i] >= DEADLINE_STARVATION_GUARD)
                        .unwrap_or_else(|| {
                            live.iter()
                                .enumerate()
                                .min_by_key(|&(_, &i)| (deadlines[i], i))
                                .map(|(pos, _)| pos)
                                .expect("no runnable trace")
                        });
                    let lane = live[pos];
                    for &other in &live {
                        waits[other] += 1;
                    }
                    waits[lane] = 0;
                    if !self.step_lane(lane, &mut cursors, traces, &mut t, &mut sink) {
                        live.remove(pos);
                        // A quarantined lane never completed — score only
                        // real completions against the budget.
                        if self.sched_stats.completion_steps[lane] > 0 && t > deadlines[lane] {
                            self.sched_stats.deadline_misses += 1;
                        }
                    }
                }
            }
        }
        if let PolicyState::Weighted { credits, .. } = state {
            self.sched_stats.credit_balances = credits;
        }
        self.settle_fault_counters();
    }

    /// Fills the fault counters of [`BatchScheduler::scheduler_stats`] at
    /// the end of a run. Locking every shard (via `stats`) first settles
    /// any shard left poisoned by a caught panic, so the recovery — and
    /// its `shard_resets` increment — happens here deterministically
    /// rather than at an arbitrary later lock site.
    fn settle_fault_counters(&mut self) {
        self.sched_stats.lane_faults = self.quarantine.iter().flatten().count() as u64;
        if self.sched_stats.lane_faults > 0 {
            let _ = self.shared.stats();
        }
        self.sched_stats.shard_resets = self.shared.shard_resets();
    }

    /// Executes one scheduler visit of lane `i` — the next
    /// [`BatchScheduler::slice_quantum`] row-tiles of its current GeMM
    /// (all of them at quantum 0) — advances the global clock, and records
    /// per-lane accounting. The lane's trace cursor advances (and `sink`
    /// fires) only on a GeMM's completing slice. Returns whether the lane
    /// still has work left — `false` also when the visit panicked and the
    /// lane was quarantined (cursors and clock do not advance; the step is
    /// recorded as the lane's [`LaneFault`], and a partially executed
    /// GeMM's output is never observed — `sink` had not fired).
    fn step_lane<'a, S, F>(
        &mut self,
        lane: usize,
        cursors: &mut [usize],
        traces: &[S],
        t: &mut u64,
        sink: &mut F,
    ) -> bool
    where
        T: 'a,
        S: AsRef<[TraceStep<'a, T>]>,
        F: FnMut(usize, usize, &OutputMatrix<T>),
    {
        let trace = traces[lane].as_ref();
        let step = cursors[lane];
        debug_assert!(step < trace.len(), "stepping an exhausted lane");
        let visited = visit_lane(
            &mut self.sessions[lane],
            &mut self.outs[lane],
            lane,
            step,
            trace[step],
            self.slice_quantum,
            &mut *sink,
        );
        let slice = match visited {
            Ok(slice) => slice,
            Err(fault) => {
                self.quarantine[lane] = Some(fault);
                return false;
            }
        };
        *t += 1;
        self.sched_stats.lane_row_tiles[lane] += slice.row_tiles as u64;
        if !slice.done {
            return true;
        }
        cursors[lane] += 1;
        self.sched_stats.lane_steps[lane] += 1;
        if cursors[lane] >= trace.len() {
            self.sched_stats.completion_steps[lane] = *t;
            false
        } else {
            true
        }
    }

    /// Runs every trace to completion with one worker thread per trace,
    /// all planning through the shared cache. `sink` is called from worker
    /// threads and must synchronize its own state. The interleaving policy
    /// does not apply (every lane has its own thread), so
    /// [`BatchScheduler::scheduler_stats`] is cleared rather than filled
    /// (the fault counters are still settled at the end of the run).
    ///
    /// Bit-identical to [`BatchScheduler::run`] (and to serial per-trace
    /// execution): the only cross-thread state is the content-addressed
    /// cache, and plans are deterministic in the tile bits.
    ///
    /// Each worker runs its lane's GeMMs as whole-GeMM visits (quantum 0)
    /// into the lane's pooled output buffer, through the same visit body
    /// as [`BatchScheduler::run`], so fault tolerance matches: a panic in
    /// one lane's step quarantines that lane and stops only its own worker;
    /// the other workers — and the scope join — proceed normally.
    pub fn run_concurrent<'a, S, F>(&mut self, traces: &[S], sink: F)
    where
        T: 'a,
        S: AsRef<[TraceStep<'a, T>]> + Sync,
        F: Fn(usize, usize, &OutputMatrix<T>) + Sync,
    {
        self.ensure_lanes(traces.len());
        self.sched_stats = SchedulerStats::default();
        let sink = &sink;
        // Quarantine checks happen on this thread (the worker loop below
        // needs `sessions` exclusively), and caught faults are collected
        // for application after the scope joins.
        let skip: Vec<bool> = self.quarantine.iter().map(Option::is_some).collect();
        let caught: std::sync::Mutex<Vec<LaneFault>> = std::sync::Mutex::new(Vec::new());
        let caught_ref = &caught;
        #[cfg(any(test, feature = "fault-injection"))]
        let fault_state = super::faults::snapshot();
        std::thread::scope(|scope| {
            let lanes = self.sessions.iter_mut().zip(&mut self.outs).zip(traces);
            for (lane, ((session, out), trace)) in lanes.enumerate() {
                if skip[lane] {
                    continue;
                }
                #[cfg(any(test, feature = "fault-injection"))]
                let fault_state = fault_state.clone();
                scope.spawn(move || {
                    // Scoped threads start with an empty fault plan;
                    // re-adopt the installing thread's so injected faults
                    // reach the workers.
                    #[cfg(any(test, feature = "fault-injection"))]
                    let _faults = super::faults::adopt(fault_state);
                    for (step, &pair) in trace.as_ref().iter().enumerate() {
                        if let Err(fault) = visit_lane(session, out, lane, step, pair, 0, sink) {
                            super::shared::lock_recovering(caught_ref).push(fault);
                            return;
                        }
                    }
                });
            }
        });
        for fault in caught
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
        {
            let lane = fault.lane;
            self.quarantine[lane] = Some(fault);
        }
        self.settle_fault_counters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spikemat::gemm::spiking_gemm;
    use spikemat::TileShape;

    fn traces_for_test() -> (Vec<SpikeMatrix>, WeightMatrix<i64>) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        let base = SpikeMatrix::random(32, 16, 0.3, &mut rng);
        // Three near-identical "tenants" of the same matrix.
        let mut tenants = vec![base.clone(), base.clone(), base];
        tenants[1].set(0, 0, true);
        tenants[2].set(31, 15, true);
        let w = WeightMatrix::from_fn(16, 4, |r, c| (r * 3 + c) as i64 - 5);
        (tenants, w)
    }

    #[test]
    fn round_robin_covers_every_step_exactly() {
        let (tenants, w) = traces_for_test();
        let traces: Vec<Vec<TraceStep<'_, i64>>> =
            tenants.iter().map(|t| vec![(t, &w), (t, &w)]).collect();
        let mut sched = BatchScheduler::new(
            EngineConfig::new(TileShape::new(8, 8), 128),
            BatchPolicy::RoundRobin,
        );
        let mut seen = vec![0usize; traces.len()];
        sched.run(&traces, |lane, step, out| {
            assert_eq!(
                out,
                &spiking_gemm(&tenants[lane], &w),
                "lane {lane} step {step}"
            );
            seen[lane] += 1;
        });
        assert_eq!(seen, vec![2, 2, 2]);
        // Tenant 1's second pass over shared tiles must hit.
        assert!(sched.merged_stats().cache_hits > 0);
        assert_eq!(sched.session_stats().len(), 3);
        assert_eq!(sched.scheduler_stats().lane_steps, vec![2, 2, 2]);
        // Round robin finishes the lanes in lane order, on the last round.
        assert_eq!(sched.scheduler_stats().completion_steps, vec![4, 5, 6]);
    }

    #[test]
    fn weighted_policy_delivers_proportional_steps_while_contended() {
        let (tenants, w) = traces_for_test();
        let traces: Vec<Vec<TraceStep<'_, i64>>> =
            tenants.iter().map(|t| vec![(t, &w); 8]).collect();
        let mut sched = BatchScheduler::new(
            EngineConfig::new(TileShape::new(8, 8), 128),
            BatchPolicy::Weighted {
                weights: vec![1, 1, 4],
            },
        );
        // Count per-lane steps at the moment the first lane completes:
        // while every lane is runnable, DRR must hand lane 2 exactly 4× the
        // steps of each weight-1 lane.
        let mut counts = [0u64; 3];
        let mut at_first_completion = None;
        sched.run(&traces, |lane, step, out| {
            assert_eq!(out, &spiking_gemm(&tenants[lane], &w));
            counts[lane] += 1;
            if step + 1 == 8 && at_first_completion.is_none() {
                at_first_completion = Some(counts);
            }
        });
        let live = at_first_completion.expect("some lane completes first");
        assert_eq!(live, [2, 2, 8], "weight-4 lane gets 4x while contended");
        // Everything still completes exactly once per step.
        assert_eq!(sched.scheduler_stats().lane_steps, vec![8, 8, 8]);
        assert_eq!(sched.scheduler_stats().deadline_misses, 0);
    }

    #[test]
    fn weighted_defaults_missing_and_zero_weights_to_one() {
        let (tenants, w) = traces_for_test();
        let traces: Vec<Vec<TraceStep<'_, i64>>> =
            tenants.iter().map(|t| vec![(t, &w); 3]).collect();
        // Weight 0 would never accrue credit (an infinite loop); the
        // scheduler clamps it — and lanes beyond the vector — to 1.
        let mut sched = BatchScheduler::new(
            EngineConfig::new(TileShape::new(8, 8), 128),
            BatchPolicy::Weighted { weights: vec![0] },
        );
        let mut count = 0;
        sched.run(&traces, |_, _, _| count += 1);
        assert_eq!(count, 9);
    }

    #[test]
    fn deadline_policy_runs_earliest_deadline_first_and_counts_misses() {
        let (tenants, w) = traces_for_test();
        let traces: Vec<Vec<TraceStep<'_, i64>>> =
            tenants.iter().map(|t| vec![(t, &w); 4]).collect();
        // Feasible budgets: EDF serves lane 1 (tightest), then 0, then 2.
        let mut sched = BatchScheduler::new(
            EngineConfig::new(TileShape::new(8, 8), 128),
            BatchPolicy::Deadline {
                budgets: vec![8, 4, 12],
            },
        );
        sched.run(&traces, |lane, _, out| {
            assert_eq!(out, &spiking_gemm(&tenants[lane], &w));
        });
        let stats = sched.scheduler_stats().clone();
        assert_eq!(stats.completion_steps, vec![8, 4, 12]);
        assert_eq!(stats.deadline_misses, 0);
        // An infeasible budget is recorded as a miss, not an error.
        let mut late = BatchScheduler::new(
            EngineConfig::new(TileShape::new(8, 8), 128),
            BatchPolicy::Deadline {
                budgets: vec![1, 1, 1],
            },
        );
        late.run(&traces, |_, _, _| {});
        assert_eq!(late.scheduler_stats().deadline_misses, 3);
    }

    #[test]
    fn deadline_starvation_guard_forces_background_progress() {
        let (tenants, w) = traces_for_test();
        let long = (DEADLINE_STARVATION_GUARD + 64) as usize;
        // Lane 0 has the earliest deadline and a very long trace; lane 1
        // has no budget at all. Pure EDF would finish all of lane 0 first;
        // the guard must force lane 1 a step once it has waited long
        // enough.
        let traces: Vec<Vec<TraceStep<'_, i64>>> =
            vec![vec![(&tenants[0], &w); long], vec![(&tenants[1], &w); 2]];
        let mut sched = BatchScheduler::new(
            EngineConfig::new(TileShape::new(8, 8), 128),
            BatchPolicy::Deadline { budgets: vec![0] },
        );
        let mut executed = 0u64;
        let mut lane1_first_step = None;
        sched.run(&traces, |lane, _, _| {
            executed += 1;
            if lane == 1 && lane1_first_step.is_none() {
                lane1_first_step = Some(executed);
            }
        });
        let first = lane1_first_step.expect("lane 1 must run");
        assert!(
            first < long as u64,
            "guard must schedule the budget-less lane before the long trace \
             drains: first ran at step {first} of {long}"
        );
    }

    #[test]
    fn lanes_and_buffers_persist_across_runs() {
        let (tenants, w) = traces_for_test();
        let traces: Vec<Vec<TraceStep<'_, i64>>> = tenants.iter().map(|t| vec![(t, &w)]).collect();
        let mut sched = BatchScheduler::<i64>::new(
            EngineConfig::new(TileShape::new(8, 8), 128),
            BatchPolicy::RoundRobin,
        );
        sched.run(&traces, |_, _, _| {});
        let first_misses = sched.merged_stats().cache_misses;
        assert!(first_misses > 0);
        // Second run of the same tenants: the shared cache is warm.
        sched.run(&traces, |_, _, _| {});
        assert_eq!(sched.merged_stats().cache_misses, first_misses);
        sched.reset_stats();
        assert_eq!(sched.merged_stats(), EngineStats::default());
        assert!(!sched.shared_cache().is_empty());
    }

    #[test]
    fn reset_stats_resets_the_shared_cache_counters_too() {
        let (tenants, w) = traces_for_test();
        let traces: Vec<Vec<TraceStep<'_, i64>>> =
            tenants.iter().map(|t| vec![(t, &w), (t, &w)]).collect();
        let mut sched = BatchScheduler::new(
            EngineConfig::new(TileShape::new(8, 8), 128),
            BatchPolicy::RoundRobin,
        );
        sched.run(&traces, |_, _, _| {});
        let first = sched.shared_cache().stats();
        assert!(first.hits + first.misses > 0);
        sched.reset_stats();
        // The regression: lane stats were zeroed but the shared counters
        // kept pre-reset traffic, so merged-vs-shared comparisons
        // double-counted. Both sides must now restart from zero…
        let cleared = sched.shared_cache().stats();
        assert_eq!(cleared.hits + cleared.misses, 0);
        assert_eq!(cleared.insertions + cleared.bypasses + cleared.dedups, 0);
        // …while residency (actual cache contents) is untouched.
        assert_eq!(cleared.resident, first.resident);
        sched.run(&traces, |_, _, _| {});
        let merged = sched.merged_stats();
        let cs = sched.shared_cache().stats();
        assert_eq!(cs.hits, merged.cache_hits);
        assert_eq!(cs.misses, merged.cache_misses);
    }

    #[test]
    fn begin_batch_gives_the_next_run_fresh_tenants_and_stats() {
        let (tenants, w) = traces_for_test();
        let traces: Vec<Vec<TraceStep<'_, i64>>> = tenants.iter().map(|t| vec![(t, &w)]).collect();
        let mut sched = BatchScheduler::<i64>::new(
            EngineConfig::new(TileShape::new(8, 8), 128),
            BatchPolicy::RoundRobin,
        );
        sched.run(&traces, |_, _, _| {});
        assert!(sched.merged_stats().gemms > 0);
        sched.begin_batch();
        assert!(sched.session_stats().is_empty(), "lanes retired");
        sched.run(&traces, |_, _, _| {});
        // Fresh lanes: stats describe only the new batch.
        assert_eq!(sched.merged_stats().gemms, 3);
        // Fresh tenant ids: the two batches registered disjoint windows
        // (visible as distinct admission tenants when admission is on —
        // covered in tests/serving.rs; here we check the id counter).
        sched.begin_batch_as(&[100, 200]);
        sched.run(&traces, |_, _, _| {});
        assert_eq!(sched.session_stats().len(), 3);
    }

    #[test]
    fn ragged_trace_lengths_complete() {
        let (tenants, w) = traces_for_test();
        let traces: Vec<Vec<TraceStep<'_, i64>>> = vec![
            vec![(&tenants[0], &w); 3],
            vec![],
            vec![(&tenants[2], &w); 1],
        ];
        for policy in [
            BatchPolicy::RoundRobin,
            BatchPolicy::Weighted {
                weights: vec![2, 1, 3],
            },
            BatchPolicy::Deadline {
                budgets: vec![4, 1, 8],
            },
        ] {
            let mut sched =
                BatchScheduler::new(EngineConfig::new(TileShape::new(8, 8), 64), policy.clone());
            let mut per_lane = vec![0usize; 3];
            sched.run(&traces, |lane, _, _| per_lane[lane] += 1);
            assert_eq!(per_lane, vec![3, 0, 1], "{policy:?}");
            assert_eq!(
                sched.scheduler_stats().completion_steps[1],
                0,
                "{policy:?}: empty lane never completes"
            );
        }
    }

    /// The live-lane list must keep heavily skewed batches linear in the
    /// *executed* steps: exhausted lanes leave the loop instead of being
    /// re-scanned every round (the historical O(lanes)/step overhead).
    #[test]
    fn skewed_trace_lengths_complete_exactly() {
        let (tenants, w) = traces_for_test();
        let traces: Vec<Vec<TraceStep<'_, i64>>> = vec![
            vec![(&tenants[0], &w); 200],
            vec![(&tenants[1], &w); 2],
            vec![(&tenants[2], &w); 2],
        ];
        let mut sched = BatchScheduler::new(
            EngineConfig::new(TileShape::new(8, 8), 128),
            BatchPolicy::RoundRobin,
        );
        let mut count = 0usize;
        sched.run(&traces, |_, _, _| count += 1);
        assert_eq!(count, 204);
        assert_eq!(sched.scheduler_stats().lane_steps, vec![200, 2, 2]);
    }

    #[test]
    fn injected_lane_panic_quarantines_only_that_lane() {
        use super::super::faults;
        faults::silence_injected_panics();
        let (tenants, w) = traces_for_test();
        let traces: Vec<Vec<TraceStep<'_, i64>>> =
            tenants.iter().map(|t| vec![(t, &w), (t, &w)]).collect();
        let mut sched = BatchScheduler::new(
            EngineConfig::new(TileShape::new(8, 8), 128),
            BatchPolicy::RoundRobin,
        );
        let guard = faults::install(faults::FaultPlan::lane_panic(1, 0));
        let mut seen = vec![0usize; 3];
        sched.run(&traces, |lane, _, out| {
            assert_eq!(out, &spiking_gemm(&tenants[lane], &w));
            seen[lane] += 1;
        });
        assert!(guard.fired().lane_panic);
        drop(guard);
        // Lane 1 never reached the sink; the survivors ran every step.
        assert_eq!(seen, vec![2, 0, 2]);
        assert!(sched.quarantined().iter().any(|f| f.lane == 1));
        let faults = sched.quarantined();
        assert_eq!((faults[0].lane, faults[0].step), (1, 0));
        assert!(faults[0].reason.contains("injected fault"));
        let stats = sched.scheduler_stats();
        assert_eq!(stats.lane_faults, 1);
        assert_eq!(stats.lane_steps, vec![2, 0, 2]);
        assert_eq!(stats.completion_steps[1], 0, "faulted lane never completes");

        // Quarantine persists across runs (no faults installed now)…
        seen = vec![0; 3];
        sched.run(&traces, |lane, _, _| seen[lane] += 1);
        assert_eq!(seen, vec![2, 0, 2], "quarantined lane stays skipped");
        assert_eq!(sched.scheduler_stats().lane_faults, 1);
        // …until begin_batch retires the lanes.
        sched.begin_batch();
        assert!(sched.quarantined().is_empty());
        seen = vec![0; 3];
        sched.run(&traces, |lane, _, out| {
            assert_eq!(out, &spiking_gemm(&tenants[lane], &w));
            seen[lane] += 1;
        });
        assert_eq!(seen, vec![2, 2, 2]);
        assert_eq!(sched.scheduler_stats().lane_faults, 0);
    }

    #[test]
    fn panic_under_the_shard_lock_resets_one_shard_and_serving_continues() {
        use super::super::faults;
        faults::silence_injected_panics();
        let (tenants, w) = traces_for_test();
        let traces: Vec<Vec<TraceStep<'_, i64>>> =
            tenants.iter().map(|t| vec![(t, &w), (t, &w)]).collect();
        let mut sched = BatchScheduler::new(
            EngineConfig::new(TileShape::new(8, 8), 128),
            BatchPolicy::RoundRobin,
        );
        let guard = faults::install(faults::FaultPlan::shard_panic(0));
        sched.run(&traces, |lane, _, out| {
            assert_eq!(
                out,
                &spiking_gemm(&tenants[lane], &w),
                "exact despite reset"
            );
        });
        assert!(guard.fired().shard_panic);
        drop(guard);
        // The panic unwound with the shard mutex held: the panicking lane
        // is quarantined, the poisoned shard was reset, everyone else kept
        // serving exact results.
        let stats = sched.scheduler_stats();
        assert_eq!(stats.lane_faults, 1);
        assert_eq!(stats.shard_resets, 1);
        assert_eq!(sched.shared_cache().stats().shard_resets, 1);
        assert_eq!(sched.shared_cache().shard_resets(), 1);
    }

    #[test]
    fn deadline_policy_does_not_score_a_faulted_lane_as_a_miss() {
        use super::super::faults;
        faults::silence_injected_panics();
        let (tenants, w) = traces_for_test();
        let traces: Vec<Vec<TraceStep<'_, i64>>> =
            tenants.iter().map(|t| vec![(t, &w); 4]).collect();
        let mut sched = BatchScheduler::new(
            EngineConfig::new(TileShape::new(8, 8), 128),
            BatchPolicy::Deadline {
                budgets: vec![8, 1, 12],
            },
        );
        // Lane 1 has an infeasible budget but faults at its first step: it
        // never *completed* late, so it must not count as a miss.
        let _guard = faults::install(faults::FaultPlan::lane_panic(1, 0));
        sched.run(&traces, |_, _, _| {});
        let stats = sched.scheduler_stats();
        assert_eq!(stats.lane_faults, 1);
        assert_eq!(stats.deadline_misses, 0);
        // The global clock never advanced for the faulted attempt: the
        // survivors complete after 4 and 8 executed steps.
        assert_eq!(stats.completion_steps[0], 4);
        assert_eq!(stats.completion_steps[2], 8);
    }

    #[test]
    fn concurrent_injected_panic_quarantines_without_aborting() {
        use super::super::faults;
        use std::sync::Mutex;
        faults::silence_injected_panics();
        let (tenants, w) = traces_for_test();
        let traces: Vec<Vec<TraceStep<'_, i64>>> =
            tenants.iter().map(|t| vec![(t, &w), (t, &w)]).collect();
        let mut sched = BatchScheduler::new(
            EngineConfig::new(TileShape::new(8, 8), 64),
            BatchPolicy::RoundRobin,
        );
        // Lane 2 panics at its second step: its first step's output must
        // still have been exact, and the other lanes run to completion.
        let guard = faults::install(faults::FaultPlan::lane_panic(2, 1));
        let seen: Mutex<Vec<usize>> = Mutex::new(vec![0; 3]);
        sched.run_concurrent(&traces, |lane, _, out| {
            assert_eq!(out, &spiking_gemm(&tenants[lane], &w));
            seen.lock().unwrap()[lane] += 1;
        });
        assert!(guard.fired().lane_panic, "worker thread adopted the plan");
        drop(guard);
        assert_eq!(*seen.lock().unwrap(), vec![2, 2, 1]);
        assert!(sched.quarantined().iter().any(|f| f.lane == 2));
        assert_eq!(sched.quarantined()[0].step, 1);
        assert_eq!(sched.scheduler_stats().lane_faults, 1);
        // The next serial run skips the quarantined lane.
        let seen2: Mutex<Vec<usize>> = Mutex::new(vec![0; 3]);
        sched.run(&traces, |lane, _, _| seen2.lock().unwrap()[lane] += 1);
        assert_eq!(*seen2.lock().unwrap(), vec![2, 2, 0]);
    }

    #[test]
    fn sliced_quanta_stay_bit_exact_and_account_row_tiles() {
        let (tenants, w) = traces_for_test();
        let traces: Vec<Vec<TraceStep<'_, i64>>> =
            tenants.iter().map(|t| vec![(t, &w), (t, &w)]).collect();
        // 32 rows under an 8-row tile: 4 row-tiles per GeMM, so quantum 1
        // splits each GeMM across 4 visits and quantum 3 across 2 (3 + 1).
        for quantum in [1usize, 2, 3, 0] {
            let mut sched = BatchScheduler::new(
                EngineConfig::new(TileShape::new(8, 8), 128),
                BatchPolicy::RoundRobin,
            )
            .with_slice_quantum(quantum);
            assert_eq!(sched.slice_quantum(), quantum);
            let mut seen = vec![0usize; 3];
            sched.run(&traces, |lane, step, out| {
                assert_eq!(
                    out,
                    &spiking_gemm(&tenants[lane], &w),
                    "quantum {quantum} lane {lane} step {step}"
                );
                seen[lane] += 1;
            });
            assert_eq!(seen, vec![2, 2, 2], "quantum {quantum}");
            let stats = sched.scheduler_stats();
            // GeMM steps count once, on the completing slice; row-tile
            // accounting is identical in every mode (2 steps × 4 tiles).
            assert_eq!(stats.lane_steps, vec![2, 2, 2], "quantum {quantum}");
            assert_eq!(stats.lane_row_tiles, vec![8, 8, 8], "quantum {quantum}");
        }
    }

    #[test]
    fn slice_quantum_lets_short_lanes_finish_inside_a_monster_gemm() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        // Lane 0 runs a monster GeMM (64 rows = 8 row-tiles under the 8-row
        // tile); lanes 1 and 2 run single-row-tile GeMMs.
        let monster = SpikeMatrix::random(64, 16, 0.3, &mut rng);
        let small = SpikeMatrix::random(8, 16, 0.4, &mut rng);
        let w = WeightMatrix::from_fn(16, 4, |r, c| (r * 3 + c) as i64 - 5);
        let traces: Vec<Vec<TraceStep<'_, i64>>> =
            vec![vec![(&monster, &w)], vec![(&small, &w)], vec![(&small, &w)]];
        let run = |quantum: usize| {
            let mut sched = BatchScheduler::new(
                EngineConfig::new(TileShape::new(8, 8), 128),
                BatchPolicy::RoundRobin,
            )
            .with_slice_quantum(quantum);
            sched.run(&traces, |lane, _, out| {
                let want = if lane == 0 { &monster } else { &small };
                assert_eq!(out, &spiking_gemm(want, &w), "quantum {quantum}");
            });
            sched.scheduler_stats().clone()
        };
        // Whole-GeMM quantum: the monster monopolizes the first visit.
        assert_eq!(run(0).completion_steps, vec![1, 2, 3]);
        // Quantum 1: round robin yields after one row-tile, so the short
        // lanes complete while the monster is still mid-GeMM — the
        // tile-granular preemption the bench measures as latency.
        let sliced = run(1);
        assert_eq!(sliced.completion_steps, vec![10, 2, 3]);
        assert_eq!(sliced.lane_row_tiles, vec![8, 1, 1]);
        assert_eq!(sliced.lane_steps, vec![1, 1, 1]);
    }

    #[test]
    fn weighted_shares_become_row_tile_granular_under_slicing() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(13);
        // Both lanes run 4-row-tile GeMMs; with quantum 1 the DRR credits
        // are charged per visit = per row-tile, so a weight-3 lane gets 3
        // row-tiles per round while both lanes stay runnable.
        let t = SpikeMatrix::random(32, 16, 0.3, &mut rng);
        let w = WeightMatrix::from_fn(16, 4, |r, c| (r * 3 + c) as i64 - 5);
        let traces: Vec<Vec<TraceStep<'_, i64>>> = vec![vec![(&t, &w); 4], vec![(&t, &w); 4]];
        let mut sched = BatchScheduler::new(
            EngineConfig::new(TileShape::new(8, 8), 128),
            BatchPolicy::Weighted {
                weights: vec![1, 3],
            },
        )
        .with_slice_quantum(1);
        sched.run(&traces, |_, _, out| {
            assert_eq!(out, &spiking_gemm(&t, &w));
        });
        let stats = sched.scheduler_stats();
        assert_eq!(stats.lane_steps, vec![4, 4]);
        assert_eq!(stats.lane_row_tiles, vec![16, 16]);
        // Lane 1 (weight 3, 16 row-tiles) drains while lane 0 still has
        // work: its completion visit reflects the 3:1 fine-grained share —
        // strictly earlier than the 1:1 interleave (visit 31) despite the
        // GeMMs being the same size.
        assert!(
            stats.completion_steps[1] < 31,
            "weight-3 lane must finish ahead of a 1:1 interleave, \
             completed at visit {}",
            stats.completion_steps[1]
        );
        assert_eq!(stats.completion_steps[0], 32, "all 32 row-tiles executed");
    }

    #[test]
    fn concurrent_run_matches_serial_oracle() {
        use std::sync::Mutex;
        let (tenants, w) = traces_for_test();
        let traces: Vec<Vec<TraceStep<'_, i64>>> =
            tenants.iter().map(|t| vec![(t, &w), (t, &w)]).collect();
        let mut sched = BatchScheduler::new(
            EngineConfig::new(TileShape::new(8, 8), 64),
            BatchPolicy::RoundRobin,
        );
        let got: Mutex<Vec<Vec<Option<OutputMatrix<i64>>>>> =
            Mutex::new(vec![vec![None, None], vec![None, None], vec![None, None]]);
        sched.run_concurrent(&traces, |lane, step, out| {
            got.lock().unwrap()[lane][step] = Some(out.clone());
        });
        let got = got.into_inner().unwrap();
        for (lane, tenant) in tenants.iter().enumerate() {
            let want = spiking_gemm(tenant, &w);
            for (step, slot) in got[lane].iter().enumerate() {
                assert_eq!(slot.as_ref(), Some(&want), "lane {lane} step {step}");
            }
        }
    }
}
