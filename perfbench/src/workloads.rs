//! The workloads: their inputs, the program set up to serve them, and the
//! closed-loop timed run that yields the end-to-end metrics.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use prosperity_core::engine::{
    AdmissionConfig, BatchPolicy, BatchScheduler, EngineConfig, ServiceConfig, ServingLoop,
    Session, SharedPlanCache, SnapshotStore,
};
use spikemat::gemm::{spiking_gemm, OutputMatrix, WeightMatrix};
use spikemat::{SpikeMatrix, TileShape};

use crate::gen::{self, Rng};
use crate::measure::{checksum, ns, process_cpu_s, thread_cpu_ns, HostProbe, MAX_QUIET_LIMIT};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One session replaying a temporally correlated stream from a warm
    /// plan cache: execution plus extract/hash/lookup, no planning.
    StreamWarm,
    /// One session with admission over independent matrices: the
    /// Detector/Pruner/Dispatcher runs on almost every tile.
    StreamFresh,
    /// One serving loop, four tenants (one wide, three narrow and
    /// cross-correlated), row-tile round robin and every lifecycle job.
    TenantMix,
}

impl Workload {
    /// Every workload, in the order they are documented.
    pub const ALL: [Workload; 3] = [
        Workload::StreamWarm,
        Workload::StreamFresh,
        Workload::TenantMix,
    ];

    /// The name the command line uses.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamWarm => "stream_warm",
            Workload::StreamFresh => "stream_fresh",
            Workload::TenantMix => "tenant_mix",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Every size and cadence a workload is built from. [`Sizes::full`] is the
/// benchmark; [`Sizes::tiny`] runs each workload in a fraction of a second
/// for the self-checks.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Stream matrices are `stream_rows × stream_k` against `stream_k ×
    /// stream_n` weights.
    pub stream_rows: usize,
    pub stream_k: usize,
    pub stream_n: usize,
    pub stream_density: f64,
    /// `stream_warm`: steps of the replayed stream and its row persistence.
    pub warm_steps: usize,
    pub warm_persistence: f64,
    /// `stream_fresh`: independent matrices the session cycles through.
    pub fresh_pool: usize,
    /// `tenant_mix` tenant 0 (SpikingBERT-shaped) and the width the
    /// stream workloads' wide-execution probe uses.
    pub wide_rows: usize,
    pub wide_k: usize,
    pub wide_n: usize,
    pub wide_density: f64,
    /// `tenant_mix` tenants 1–3: `narrow_rows × stream_k`, `stream_n` wide.
    pub narrow_rows: usize,
    /// `tenant_mix` stream length, rows re-sampled per step in each stream
    /// (below 1, so most batches are hit-only and each lane's median latency
    /// lies among them), and the rows in which each narrow tenant diverges
    /// from their common base.
    pub mix_steps: usize,
    pub mix_changes_per_step: f64,
    pub mix_diverged_rows: usize,
    /// GeMMs each tenant runs per `run_batch_as` batch.
    pub steps_per_batch: usize,
    /// Plan-cache capacity of `stream_warm` and `tenant_mix`.
    pub capacity: usize,
    /// Plan-cache capacity of `stream_fresh`, a small share of its pool's
    /// tiles so admission's probe insertions cannot lift the hit rate.
    pub fresh_capacity: usize,
    /// Lifecycle cadences of `tenant_mix`, in executed GeMMs.
    pub snapshot_every: usize,
    pub snapshot_plans: usize,
    pub gc_every: usize,
    pub gc_max_idle: u64,
    pub gossip_every: usize,
    /// Plans the set-up writes into the gossip peer's directory.
    pub peer_plans: usize,
    /// Set-ups per end-to-end run at least; `setup_s` is their median.
    pub setups: usize,
}

impl Sizes {
    /// The benchmark's sizes. The stream workloads' plans (about 26 KB
    /// per 256 × 16 tile) fit in a 2 MB L2 cache, so their speed does not
    /// follow the memory traffic of other tenants of the host.
    pub fn full() -> Self {
        Self {
            stream_rows: 512,
            stream_k: 256,
            stream_n: 16,
            stream_density: 0.30,
            warm_steps: 3,
            warm_persistence: 0.998,
            fresh_pool: 16,
            wide_rows: 512,
            wide_k: 768,
            wide_n: 128,
            wide_density: 0.15,
            narrow_rows: 256,
            mix_steps: 16,
            mix_changes_per_step: 0.25,
            mix_diverged_rows: 1,
            steps_per_batch: 1,
            capacity: 256,
            fresh_capacity: 16,
            snapshot_every: 128,
            snapshot_plans: 64,
            gc_every: 32,
            gc_max_idle: 2,
            gossip_every: 16,
            peer_plans: 256,
            setups: 3,
        }
    }

    /// Small enough for a test to run every workload twice in seconds.
    pub fn tiny() -> Self {
        Self {
            stream_rows: 256,
            stream_k: 64,
            stream_n: 8,
            warm_steps: 6,
            fresh_pool: 8,
            wide_rows: 512,
            wide_k: 96,
            wide_n: 32,
            narrow_rows: 256,
            mix_steps: 8,
            capacity: 64,
            fresh_capacity: 8,
            snapshot_every: 8,
            snapshot_plans: 8,
            gc_every: 4,
            gossip_every: 4,
            peer_plans: 16,
            setups: 1,
            ..Self::full()
        }
    }
}

/// The accelerator tile every workload is served under (256 × 16).
pub fn tile() -> TileShape {
    TileShape::prosperity_default()
}

/// One lane of traffic: its spike matrices in order, its weights, and the
/// checksums of the oracle outputs computed at set-up. The outputs
/// themselves are not kept, so the benchmark's own memory stays small
/// next to the program's.
#[derive(Debug)]
pub struct Lane {
    pub spikes: Vec<SpikeMatrix>,
    pub weights: WeightMatrix<i64>,
    pub sums: Vec<u64>,
    /// Whether this lane is the wide (hundreds of output columns) shape.
    pub wide: bool,
}

impl Lane {
    fn new(
        spikes: Vec<SpikeMatrix>,
        weights: WeightMatrix<i64>,
        wide: bool,
        lap: &mut dyn FnMut(),
    ) -> Self {
        let mut lane = Self {
            spikes,
            weights,
            sums: Vec::new(),
            wide,
        };
        lane.sums = (0..lane.spikes.len())
            .map(|i| {
                let sum = checksum(&lane.oracle(i));
                lap();
                sum
            })
            .collect();
        lane
    }

    /// The oracle output of matrix `idx`: the dense reference
    /// `spiking_gemm`, which shares no code with the planner, the
    /// executor or the serving path.
    pub fn oracle(&self, idx: usize) -> OutputMatrix<i64> {
        spiking_gemm(&self.spikes[idx], &self.weights)
    }
}

/// A workload's generated inputs.
#[derive(Debug)]
pub struct Inputs {
    pub workload: Workload,
    pub sizes: Sizes,
    /// One lane for the stream workloads; four tenants for `tenant_mix`
    /// (lane 0 wide).
    pub lanes: Vec<Lane>,
    /// `stream_k × wide_n` weights for the wide-execution probe of the
    /// stream workloads, which have no wide lane of their own.
    pub probe_wide: WeightMatrix<i64>,
}

impl Inputs {
    /// Generates the inputs of `workload` from `seed` and computes their
    /// oracle outputs, calling `lap` after each step of that work.
    pub fn generate(workload: Workload, sizes: Sizes, seed: u64, lap: &mut dyn FnMut()) -> Self {
        let s = sizes;
        let mut rng = Rng::new(seed);
        let narrow_w = gen::weights(&mut rng.fork(1), s.stream_k, s.stream_n);
        let wide_w = gen::weights(&mut rng.fork(2), s.wide_k, s.wide_n);
        let probe_wide = gen::weights(&mut rng.fork(3), s.stream_k, s.wide_n);
        lap();
        let lanes = match workload {
            Workload::StreamWarm => {
                let spikes = gen::persistent_stream(
                    &mut rng.fork(4),
                    s.warm_steps,
                    s.stream_rows,
                    s.stream_k,
                    s.stream_density,
                    s.warm_persistence,
                    tile().m,
                );
                lap();
                vec![Lane::new(spikes, narrow_w, false, lap)]
            }
            Workload::StreamFresh => {
                let mut r = rng.fork(5);
                let spikes = (0..s.fresh_pool)
                    .map(|_| {
                        gen::random_matrix(&mut r, s.stream_rows, s.stream_k, s.stream_density)
                    })
                    .collect();
                lap();
                vec![Lane::new(spikes, narrow_w, false, lap)]
            }
            Workload::TenantMix => {
                let wide = gen::persistent_stream(
                    &mut rng.fork(6),
                    s.mix_steps,
                    s.wide_rows,
                    s.wide_k,
                    s.wide_density,
                    1.0 - s.mix_changes_per_step / s.wide_rows as f64,
                    tile().m,
                );
                let base = gen::persistent_stream(
                    &mut rng.fork(7),
                    s.mix_steps,
                    s.narrow_rows,
                    s.stream_k,
                    s.stream_density,
                    1.0 - s.mix_changes_per_step / s.narrow_rows as f64,
                    tile().m,
                );
                lap();
                let mut lanes = vec![Lane::new(wide, wide_w, true, lap)];
                for t in 1..=3u64 {
                    let derived = gen::derived_stream(
                        &mut rng.fork(7 + t),
                        &base,
                        s.stream_density,
                        s.mix_diverged_rows,
                        tile().m,
                    );
                    lap();
                    lanes.push(Lane::new(derived, narrow_w.clone(), false, lap));
                }
                lanes
            }
        };
        Self {
            workload,
            sizes,
            lanes,
            probe_wide,
        }
    }

    /// The session configuration the workload serves with.
    pub fn config(&self) -> EngineConfig {
        let s = self.sizes;
        match self.workload {
            Workload::StreamWarm => EngineConfig::new(tile(), s.capacity),
            Workload::StreamFresh => EngineConfig::new(tile(), s.fresh_capacity)
                .with_admission(AdmissionConfig::default()),
            Workload::TenantMix => {
                EngineConfig::new(tile(), s.capacity).with_admission(AdmissionConfig::default())
            }
        }
    }

    /// The batch scheduler every serving loop of the benchmark uses: round
    /// robin with a one-row-tile quantum over a shared cache sized and
    /// admitted like the workload's session. The cache has one shard: with
    /// several, which plans a shard evicts depends on how the tiles hash,
    /// so the miss count (and with it every timing) would follow the seed.
    pub fn scheduler(&self) -> BatchScheduler<i64> {
        let config = self.config();
        let shared = Arc::new(SharedPlanCache::with_shards(
            config.cache_capacity,
            1,
            config.admission,
        ));
        BatchScheduler::with_cache(config, BatchPolicy::RoundRobin, shared).with_slice_quantum(1)
    }

    /// `tenant_mix` batches in one pass over the streams.
    pub fn batches_per_cycle(&self) -> usize {
        self.sizes.mix_steps.div_ceil(self.sizes.steps_per_batch)
    }

    /// Matrix index lane `lane` serves at step `step` of batch `batch`.
    pub fn batch_index(&self, lane: usize, batch: usize, step: usize) -> usize {
        (batch * self.sizes.steps_per_batch + step) % self.lanes[lane].spikes.len()
    }

    /// The traces of `tenant_mix` batch `batch`: `steps_per_batch` GeMMs
    /// per tenant, moving forward through the streams.
    pub fn batch_traces(&self, batch: usize) -> Vec<Vec<(&SpikeMatrix, &WeightMatrix<i64>)>> {
        self.lanes
            .iter()
            .enumerate()
            .map(|(lane, l)| {
                (0..self.sizes.steps_per_batch)
                    .map(|step| (&l.spikes[self.batch_index(lane, batch, step)], &l.weights))
                    .collect()
            })
            .collect()
    }
}

/// A directory inside the benchmark's work root, removed on drop.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates a fresh, empty directory under `root`.
    pub fn create(root: &Path, label: &str) -> std::io::Result<Self> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!("{label}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The `tenant_mix` serving loop with its on-disk state. The loop is
/// declared first so it (and its export thread) is gone before the
/// directory is removed.
#[derive(Debug)]
pub struct MixServer {
    pub serving: ServingLoop<i64>,
    /// The peer directory the gossip sweeps scan.
    pub peer_dir: PathBuf,
    /// Next batch number (batches continue across calls).
    pub next_batch: usize,
    /// GeMMs the loop has executed so far (the lifecycle cadences' clock).
    pub executed: u64,
    pub work: WorkDir,
}

/// Tenant ids of the four `tenant_mix` lanes.
pub const TENANTS: [u64; 4] = [0, 1, 2, 3];

impl MixServer {
    /// Builds the loop: round robin with a one-row-tile quantum over a
    /// shared cache with admission, background export into a snapshot
    /// store, admission GC, and gossip from a peer directory filled here.
    pub fn new(inputs: &Inputs, work_root: &Path) -> std::io::Result<Self> {
        let s = inputs.sizes;
        let work = WorkDir::create(work_root, "tenant_mix")?;
        let peer_dir = work.path().join("peer");
        write_peer_snapshot(inputs, &peer_dir)?;
        let service = ServiceConfig::default()
            .with_snapshots(s.snapshot_every, s.snapshot_plans)
            .with_gc(s.gc_every, s.gc_max_idle)
            .with_gossip(s.gossip_every, vec![peer_dir.clone()]);
        let store = SnapshotStore::new(work.path().join("store"), 2).map_err(io_error)?;
        let serving = ServingLoop::with_scheduler(inputs.scheduler(), service)
            .with_snapshot_store(Arc::new(store));
        Ok(Self {
            serving,
            peer_dir,
            next_batch: 0,
            executed: 0,
            work,
        })
    }

    /// Runs the next batch; `sink(lane, matrix_index, output)` observes
    /// every completed GeMM. Returns the GeMMs lost to quarantined lanes.
    pub fn run_batch<F>(&mut self, inputs: &Inputs, mut sink: F) -> u64
    where
        F: FnMut(usize, usize, &OutputMatrix<i64>),
    {
        let batch = self.next_batch;
        self.next_batch += 1;
        let traces = inputs.batch_traces(batch);
        let mut done = 0u64;
        self.serving
            .run_batch_as(&TENANTS, &traces, |lane, step, out| {
                done += 1;
                sink(lane, inputs.batch_index(lane, batch, step), out);
            });
        // Collect finished exports so they do not pile up in the channel.
        self.serving.take_snapshots();
        let expected = (TENANTS.len() * inputs.sizes.steps_per_batch) as u64;
        self.executed += done;
        expected - done.min(expected)
    }
}

/// Fills `dir` with one snapshot of plans a peer serving the same model
/// would hold: the first steps of the wide and the first narrow tenant.
fn write_peer_snapshot(inputs: &Inputs, dir: &Path) -> std::io::Result<()> {
    let mut peer = Session::<i64>::new(EngineConfig::new(tile(), inputs.sizes.peer_plans));
    let mut out = OutputMatrix::zeros(0, 0);
    for lane in &inputs.lanes[..2] {
        for spikes in lane.spikes.iter().take(2) {
            peer.gemm_into(spikes, &lane.weights, &mut out);
        }
    }
    let store = SnapshotStore::new(dir, 1).map_err(io_error)?;
    store
        .save(&peer.export_snapshot(inputs.sizes.peer_plans))
        .map_err(io_error)?;
    Ok(())
}

fn io_error(e: impl std::fmt::Debug) -> std::io::Error {
    std::io::Error::other(format!("{e:?}"))
}

/// The program set up to serve one workload.
#[derive(Debug)]
pub enum Server {
    Session(Session<i64>),
    Mix(MixServer),
}

/// A workload's inputs plus the warmed program serving them.
#[derive(Debug)]
pub struct Prepared {
    pub inputs: Inputs,
    pub server: Server,
}

/// Builds a fresh server for `inputs` and runs its warm-up: one pass over
/// the stream for the stream workloads (for `stream_warm` the cold
/// planning pass), one cycle of batches for `tenant_mix`. Calls `lap`
/// after each step.
pub fn warm_server(
    inputs: &Inputs,
    work_root: &Path,
    lap: &mut dyn FnMut(),
) -> std::io::Result<Server> {
    match inputs.workload {
        Workload::StreamWarm | Workload::StreamFresh => {
            let mut session = Session::new(inputs.config());
            let lane = &inputs.lanes[0];
            let mut out = OutputMatrix::zeros(0, 0);
            for spikes in &lane.spikes {
                session.gemm_into(spikes, &lane.weights, &mut out);
                lap();
            }
            Ok(Server::Session(session))
        }
        Workload::TenantMix => {
            let mut mix = MixServer::new(inputs, work_root)?;
            lap();
            for _ in 0..inputs.batches_per_cycle() {
                mix.run_batch(inputs, |_, _, _| {});
                lap();
            }
            Ok(Server::Mix(mix))
        }
    }
}

/// Set-up: input generation, oracle outputs, and warm-up. `lap` is called
/// after each step, the same sequence of steps for a given workload and
/// sizes.
pub fn setup(
    workload: Workload,
    sizes: Sizes,
    seed: u64,
    work_root: &Path,
    lap: &mut dyn FnMut(),
) -> std::io::Result<Prepared> {
    let inputs = Inputs::generate(workload, sizes, seed, lap);
    let server = warm_server(&inputs, work_root, lap)?;
    Ok(Prepared { inputs, server })
}

/// One unit of timed work between two host probes: one GeMM of a stream
/// workload, one batch of `tenant_mix`.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    /// Wall time of the unit's call into the program.
    pub span_ns: u64,
    /// CPU of the benchmark's (calling) thread over the unit.
    pub thread_cpu_ns: u64,
    /// The loudest probe reading taken inside the unit (0 when none was).
    pub inner_probe: f64,
    /// The unit's GeMMs are `latencies_ns[first..first + gemms]`.
    pub first: usize,
    pub gemms: usize,
}

/// What the timed closed loop observed.
#[derive(Debug, Default)]
pub struct Timed {
    /// Per-GeMM latency in ns, one sample per completed GeMM, and the lane
    /// that GeMM ran on.
    pub latencies_ns: Vec<u64>,
    pub lanes: Vec<u8>,
    pub units: Vec<Unit>,
    /// Host-probe readings: one before each unit and one after the last.
    pub probes: Vec<f64>,
    /// GeMMs attempted and failed (wrong checksum or lost to a lane fault).
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    /// CPU over the whole loop of the program's other threads (the export
    /// thread, the rayon shim's workers): process CPU minus the calling
    /// thread's.
    pub other_threads_cpu_s: f64,
}

/// A unit counts as quiet when the probes on both sides of it, and
/// [`QUIET_MARGIN`] more on each side, read quiet: a unit between two
/// quiet probes may still straddle a short slow stretch, and one inside a
/// longer quiet stretch rarely does.
const QUIET_MARGIN: usize = 1;

impl Timed {
    /// Whether unit `i` ran inside a quiet stretch by `limit`.
    fn is_quiet(&self, i: usize, limit: f64) -> bool {
        let from = i.saturating_sub(QUIET_MARGIN);
        let to = (i + 2 + QUIET_MARGIN).min(self.probes.len());
        self.units[i].inner_probe <= limit && self.probes[from..to].iter().all(|&p| p <= limit)
    }

    /// The units that ran inside a quiet stretch by `limit`.
    pub fn quiet_units(&self, limit: f64) -> Vec<Unit> {
        (0..self.units.len())
            .filter(|&i| self.is_quiet(i, limit))
            .map(|i| self.units[i])
            .collect()
    }

    /// GeMMs in the units [`Timed::quiet_units`] would keep, without
    /// allocating.
    pub fn quiet_gemms(&self, limit: f64) -> usize {
        (0..self.units.len())
            .filter(|&i| self.is_quiet(i, limit))
            .map(|i| self.units[i].gemms)
            .sum()
    }

    /// Bytes of the per-unit records, which grow with the run's length and
    /// are not the program's memory.
    pub fn record_bytes(&self) -> usize {
        self.latencies_ns.len() * std::mem::size_of::<u64>()
            + self.lanes.len()
            + self.units.len() * std::mem::size_of::<Unit>()
            + self.probes.len() * std::mem::size_of::<f64>()
    }

    /// The `n` units with the lowest louder-side probe reading.
    pub fn quietest_units(&self, n: usize) -> Vec<Unit> {
        let mut ranked: Vec<(f64, Unit)> = self
            .units
            .iter()
            .zip(self.probes.windows(2))
            .map(|(u, p)| (p[0].max(p[1]), *u))
            .collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        ranked.into_iter().take(n).map(|(_, u)| u).collect()
    }
}

/// The timed loop runs past `--seconds`, up to [`MAX_STRETCH`] times as
/// long, until this many GeMMs ran in quiet units (by the loosest limit
/// the end of the run can choose).
pub const MIN_QUIET_GEMMS: usize = 2000;
const MAX_STRETCH: u32 = 3;

/// Runs the closed loop for `seconds` (longer while too few GeMMs ran in
/// quiet units): the next GeMM (or batch) is issued only when the previous
/// one returned, and the host probe runs between them. Every output is
/// checked against its oracle checksum.
pub fn run_timed(prepared: &mut Prepared, seconds: f64) -> Timed {
    let inputs = &prepared.inputs;
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let mut t = Timed::default();
    let mut probe = HostProbe::new();
    let mut out = OutputMatrix::zeros(0, 0);
    let mut i = 0usize;
    t.probes.push(probe.read());
    let (process_before, thread_before) = (process_cpu_s(), thread_cpu_ns());
    let start = Instant::now();
    let mut next_check = budget;
    loop {
        let elapsed = start.elapsed();
        if !t.units.is_empty() && elapsed >= next_check {
            if elapsed >= budget * MAX_STRETCH || t.quiet_gemms(MAX_QUIET_LIMIT) >= MIN_QUIET_GEMMS
            {
                break;
            }
            next_check = elapsed + Duration::from_millis(250);
        }
        let first = t.latencies_ns.len();
        let cpu_before = thread_cpu_ns();
        let mut inner_probe = 0.0f64;
        // Probe time spent inside the unit, left out of its span, its CPU
        // and its GeMMs' latencies.
        let mut probe_ns = 0u64;
        let span_ns = match &mut prepared.server {
            Server::Session(session) => {
                let lane = &inputs.lanes[0];
                let idx = i % lane.spikes.len();
                i += 1;
                let call = Instant::now();
                session.gemm_into(&lane.spikes[idx], &lane.weights, &mut out);
                let span_ns = ns(call.elapsed());
                t.latencies_ns.push(span_ns);
                t.lanes.push(0);
                t.attempted += 1;
                t.failed += u64::from(checksum(&out) != lane.sums[idx]);
                span_ns
            }
            Server::Mix(mix) => {
                // The batch runs for milliseconds, so the probe also runs
                // at each completion, inside the sink.
                let batch_start = Instant::now();
                let mut last = [(batch_start, 0u64); TENANTS.len()];
                let (lat, lanes, failed) = (&mut t.latencies_ns, &mut t.lanes, &mut t.failed);
                let (inner, spent) = (&mut inner_probe, &mut probe_ns);
                let lost = mix.run_batch(inputs, |lane, idx, out| {
                    let now = Instant::now();
                    let (since, spent_then) = last[lane];
                    lat.push(ns(now - since).saturating_sub(*spent - spent_then));
                    lanes.push(lane as u8);
                    *failed += u64::from(checksum(out) != inputs.lanes[lane].sums[idx]);
                    last[lane] = (now, *spent);
                    let probe_start = Instant::now();
                    *inner = inner.max(probe.read());
                    *spent += ns(probe_start.elapsed());
                });
                t.attempted += (TENANTS.len() * inputs.sizes.steps_per_batch) as u64;
                t.failed += lost;
                ns(batch_start.elapsed()).saturating_sub(probe_ns)
            }
        };
        t.units.push(Unit {
            span_ns,
            thread_cpu_ns: thread_cpu_ns()
                .saturating_sub(cpu_before)
                .saturating_sub(probe_ns),
            inner_probe,
            first,
            gemms: t.latencies_ns.len() - first,
        });
        t.probes.push(probe.read());
    }
    t.wall_s = start.elapsed().as_secs_f64();
    let thread_s = thread_cpu_ns().saturating_sub(thread_before) as f64 / 1e9;
    t.other_threads_cpu_s = (process_cpu_s() - process_before - thread_s).max(0.0);
    t
}

/// Untimed full bit compare after the timed loop: every input once more
/// through the warmed program, each output compared with its oracle.
/// Returns `(attempted, failed)`.
pub fn verify(prepared: &mut Prepared) -> (u64, u64) {
    let inputs = &prepared.inputs;
    let (mut attempted, mut failed) = (0u64, 0u64);
    match &mut prepared.server {
        Server::Session(session) => {
            let lane = &inputs.lanes[0];
            let mut out = OutputMatrix::zeros(0, 0);
            for (idx, spikes) in lane.spikes.iter().enumerate() {
                session.gemm_into(spikes, &lane.weights, &mut out);
                attempted += 1;
                failed += u64::from(out != lane.oracle(idx));
            }
        }
        Server::Mix(mix) => {
            for _ in 0..inputs.batches_per_cycle() {
                let lost = mix.run_batch(inputs, |lane, idx, out| {
                    failed += u64::from(out != &inputs.lanes[lane].oracle(idx));
                });
                attempted += (TENANTS.len() * inputs.sizes.steps_per_batch) as u64;
                failed += lost;
            }
        }
    }
    (attempted, failed)
}
