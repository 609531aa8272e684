//! Deterministic fault injection for the serving runtime.
//!
//! Compiled only for this crate's own unit tests and under the
//! `fault-injection` feature (which the umbrella crate's `tests/faults.rs`
//! suite and the dedicated CI step enable) — release serving builds carry
//! none of these hooks.
//!
//! A [`FaultPlan`] describes at most one fault of each kind; installing it
//! with [`install`] arms the hooks threaded through the serving runtime:
//!
//! * **lane panic** — panic when lane `L` executes trace-local step `N`
//!   (hooked in [`BatchScheduler`](super::BatchScheduler)'s step dispatch,
//!   inside the `catch_unwind` isolation region);
//! * **shard panic** — panic on the `N`th shared-cache insert offer
//!   *while the shard mutex is held*, leaving the mutex poisoned (hooked
//!   in [`SharedPlanCache`](super::SharedPlanCache)'s insert path);
//! * **snapshot corruption** — XOR one byte of the next snapshot a
//!   [`SnapshotStore`](super::SnapshotStore) writes, simulating bit rot
//!   the checksummed loader must quarantine;
//! * **IO failure** — fail the `N`th snapshot-store filesystem operation
//!   with a synthetic error, exercising the bounded-backoff retry path;
//! * **peer-file rot** — flip a byte of (or truncate) the next snapshot
//!   file a store walk is about to read *on disk*, simulating a hostile or
//!   half-written peer image the gossip import path must quarantine
//!   instead of adopting.
//!
//! Installation is per *thread* so concurrently running tests cannot see
//! each other's faults; the scheduler's `run_concurrent` lane threads and
//! the [`ServingLoop`](super::ServingLoop) export thread re-adopt the
//! installing thread's state explicitly ([`adopt`]). Every fault fires at
//! most once and records that it fired, so a property test can assert the
//! matching counters moved — or skip the assertion when the seeded plan
//! never reached its trigger point.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// At most one injected fault per kind; see the [module docs](self).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Panic when this lane executes this trace-local step.
    pub lane_panic: Option<(usize, usize)>,
    /// Fire the lane panic on the `n`th (0-based) scheduler *visit* of its
    /// `(lane, step)` target instead of the first. Under a sub-GeMM
    /// [`slice_quantum`](super::BatchScheduler::with_slice_quantum) the
    /// scheduler revisits the same trace step once per slice, so a
    /// positive `n` lands the panic mid-GeMM — after `n` slices already
    /// executed. 0 (the default, and the only sensible value for
    /// whole-GeMM dispatch) fires on the first visit.
    pub lane_panic_visit: u64,
    /// Panic under the shard lock on the `n`th (0-based) shared-cache
    /// insert offer, poisoning that shard's mutex.
    pub shard_panic: Option<u64>,
    /// XOR byte `m % len` of the next snapshot a `SnapshotStore` writes.
    pub corrupt_snapshot_byte: Option<usize>,
    /// Fail the `n`th (0-based) snapshot-store IO operation.
    pub fail_io_op: Option<u64>,
    /// Rot the next snapshot file a store walk reads, on disk, before the
    /// read — the hostile-peer case of the gossip import path.
    pub rot_peer_file: Option<PeerRot>,
}

/// How [`FaultPlan::rot_peer_file`] mangles the file on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerRot {
    /// XOR byte `m % len` of the file.
    FlipByte(usize),
    /// Truncate the file to at most `len` bytes (half-written image).
    Truncate(u64),
}

impl FaultPlan {
    /// A single-fault plan derived deterministically from `seed`: one of
    /// the four kinds, with its parameters drawn from the seed, bounded by
    /// `lanes` / `steps` (so lane panics always target a real step) and
    /// small IO-op / insert indices (so the trigger is usually reached).
    pub fn seeded(seed: u64, lanes: usize, steps: usize) -> Self {
        let mut s = seed;
        let mut next = move || {
            // splitmix64: cheap, deterministic, dependency-free.
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let lanes = lanes.max(1) as u64;
        let steps = steps.max(1) as u64;
        match next() % 4 {
            0 => Self {
                lane_panic: Some(((next() % lanes) as usize, (next() % steps) as usize)),
                ..Self::default()
            },
            1 => Self {
                shard_panic: Some(next() % 8),
                ..Self::default()
            },
            2 => Self {
                corrupt_snapshot_byte: Some((next() % 4096) as usize),
                ..Self::default()
            },
            _ => Self {
                fail_io_op: Some(next() % 6),
                ..Self::default()
            },
        }
    }

    /// Plan with only a lane panic at `(lane, step)`.
    pub fn lane_panic(lane: usize, step: usize) -> Self {
        Self {
            lane_panic: Some((lane, step)),
            ..Self::default()
        }
    }

    /// [`FaultPlan::lane_panic`] firing on the `visit`th (0-based)
    /// scheduler visit of the target step — with a sub-GeMM slice quantum,
    /// a crash *mid-GeMM*, after `visit` slices already executed.
    pub fn lane_panic_at_visit(lane: usize, step: usize, visit: u64) -> Self {
        Self {
            lane_panic: Some((lane, step)),
            lane_panic_visit: visit,
            ..Self::default()
        }
    }

    /// Plan with only a panic under the shard lock on the `n`th insert.
    pub fn shard_panic(nth_insert: u64) -> Self {
        Self {
            shard_panic: Some(nth_insert),
            ..Self::default()
        }
    }

    /// Plan that corrupts byte `m % len` of the next stored snapshot.
    pub fn corrupt_snapshot(byte: usize) -> Self {
        Self {
            corrupt_snapshot_byte: Some(byte),
            ..Self::default()
        }
    }

    /// Plan that fails the `n`th snapshot-store IO operation.
    pub fn fail_io(nth_op: u64) -> Self {
        Self {
            fail_io_op: Some(nth_op),
            ..Self::default()
        }
    }

    /// Plan that rots the next snapshot file a store walk reads — the
    /// hostile-peer gossip fault ([`PeerRot`] picks flip vs truncate).
    pub fn rot_peer(rot: PeerRot) -> Self {
        Self {
            rot_peer_file: Some(rot),
            ..Self::default()
        }
    }

    /// A single-fault gossip-era plan derived deterministically from
    /// `seed`: one of the two [`PeerRot`] kinds with its parameter drawn
    /// from the seed. Kept separate from [`FaultPlan::seeded`] so the
    /// historical four-kind seed mapping (and every test pinned to it)
    /// is unchanged.
    pub fn seeded_peer_rot(seed: u64) -> Self {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let rot = if next() % 2 == 0 {
            PeerRot::FlipByte((next() % 8192) as usize)
        } else {
            // Keep at least the header-sized prefix sometimes, sometimes
            // almost nothing — both must decode-fail cleanly.
            PeerRot::Truncate(next() % 64)
        };
        Self::rot_peer(rot)
    }
}

/// Which faults of an installed [`FaultPlan`] actually fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FiredReport {
    /// The lane panic fired.
    pub lane_panic: bool,
    /// The under-shard-lock panic fired.
    pub shard_panic: bool,
    /// A stored snapshot byte was corrupted.
    pub corrupt_snapshot: bool,
    /// A snapshot-store IO operation was failed.
    pub fail_io: bool,
    /// A snapshot file was rotted on disk ahead of a store-walk read.
    pub rot_peer: bool,
}

/// Shared state of one installed plan: the plan plus fire-once latches and
/// the operation counters the `n`th-op triggers consume.
#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    io_ops: AtomicU64,
    inserts: AtomicU64,
    /// Scheduler visits of the lane panic's exact `(lane, step)` target
    /// (the `lane_panic_visit` trigger consumes this).
    lane_visits: AtomicU64,
    lane_fired: AtomicBool,
    shard_fired: AtomicBool,
    corrupt_fired: AtomicBool,
    io_fired: AtomicBool,
    rot_fired: AtomicBool,
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<FaultState>>> = const { RefCell::new(None) };
}

/// Arms `plan` for the current thread (and any runtime-spawned thread that
/// [`adopt`]s it). Dropping the returned guard disarms it and restores
/// whatever was installed before, so nested installs compose and a
/// panicking test never leaks its faults into the next one.
pub fn install(plan: FaultPlan) -> FaultGuard {
    let state = Arc::new(FaultState {
        plan,
        io_ops: AtomicU64::new(0),
        inserts: AtomicU64::new(0),
        lane_visits: AtomicU64::new(0),
        lane_fired: AtomicBool::new(false),
        shard_fired: AtomicBool::new(false),
        corrupt_fired: AtomicBool::new(false),
        io_fired: AtomicBool::new(false),
        rot_fired: AtomicBool::new(false),
    });
    let prev = CURRENT.with(|c| c.borrow_mut().replace(Arc::clone(&state)));
    FaultGuard {
        state: Some(state),
        prev,
    }
}

/// The installing thread's state, for re-adoption on a spawned thread.
pub(crate) fn snapshot() -> Option<FaultHandle> {
    CURRENT
        .with(|c| c.borrow().clone())
        .map(|state| FaultHandle { state })
}

/// An installed plan, cloneable across the runtime's own thread spawns.
#[derive(Debug, Clone)]
pub(crate) struct FaultHandle {
    state: Arc<FaultState>,
}

/// Re-arms a [`snapshot`]ted plan on the current (spawned) thread. The
/// counters and fire-once latches are shared with the installing thread,
/// so "the `n`th IO op" counts across every adopting thread.
pub(crate) fn adopt(handle: Option<FaultHandle>) -> FaultGuard {
    let state = handle.map(|h| h.state);
    let prev = CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        match state.clone() {
            Some(s) => cur.replace(s),
            None => cur.take(),
        }
    });
    FaultGuard { state, prev }
}

/// RAII disarm for [`install`]/[`adopt`]; also answers which faults fired.
#[derive(Debug)]
pub struct FaultGuard {
    state: Option<Arc<FaultState>>,
    prev: Option<Arc<FaultState>>,
}

impl FaultGuard {
    /// Which of the installed plan's faults have fired so far.
    pub fn fired(&self) -> FiredReport {
        self.state
            .as_ref()
            .map(|s| FiredReport {
                lane_panic: s.lane_fired.load(Ordering::SeqCst),
                shard_panic: s.shard_fired.load(Ordering::SeqCst),
                corrupt_snapshot: s.corrupt_fired.load(Ordering::SeqCst),
                fail_io: s.io_fired.load(Ordering::SeqCst),
                rot_peer: s.rot_fired.load(Ordering::SeqCst),
            })
            .unwrap_or_default()
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Installs — once per process — a panic hook that suppresses the default
/// stderr report for panics whose payload mentions `injected fault` (every
/// panic this module raises), delegating all other panics to the previous
/// hook. Purely cosmetic: the scheduler catches injected panics either
/// way, this just keeps test and bench output free of expected backtraces.
pub fn silence_injected_panics() {
    static QUIET: std::sync::Once = std::sync::Once::new();
    QUIET.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.contains("injected fault"))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<String>()
                        .map(|s| s.contains("injected fault"))
                })
                .unwrap_or(false);
            if !injected {
                prev(info);
            }
        }));
    });
}

/// Hook: panic if the installed plan targets `(lane, step)` — on the
/// plan's `lane_panic_visit`th visit of that target (the first, unless a
/// mid-slice crash was requested). Called from the scheduler's visit
/// dispatch, inside its `catch_unwind` region, once per visit (so once per
/// slice under a sub-GeMM quantum).
pub(crate) fn maybe_panic_lane(lane: usize, step: usize) {
    CURRENT.with(|c| {
        if let Some(s) = c.borrow().as_ref() {
            if s.plan.lane_panic == Some((lane, step))
                && s.lane_visits.fetch_add(1, Ordering::SeqCst) >= s.plan.lane_panic_visit
                && !s.lane_fired.swap(true, Ordering::SeqCst)
            {
                panic!("injected fault: lane {lane} panics at step {step}");
            }
        }
    });
}

/// Hook: panic on the plan's `n`th insert offer. Called while the shard
/// mutex is held, so the unwind leaves it poisoned.
pub(crate) fn maybe_panic_shard() {
    CURRENT.with(|c| {
        if let Some(s) = c.borrow().as_ref() {
            if let Some(n) = s.plan.shard_panic {
                if s.inserts.fetch_add(1, Ordering::SeqCst) == n {
                    s.shard_fired.store(true, Ordering::SeqCst);
                    panic!("injected fault: panic under shard lock (insert {n})");
                }
            }
        }
    });
}

/// Hook: corrupt one byte of an encoded snapshot about to hit disk.
pub(crate) fn maybe_corrupt_snapshot(bytes: &mut [u8]) {
    CURRENT.with(|c| {
        if let Some(s) = c.borrow().as_ref() {
            if let Some(m) = s.plan.corrupt_snapshot_byte {
                if !bytes.is_empty() && !s.corrupt_fired.swap(true, Ordering::SeqCst) {
                    bytes[m % bytes.len()] ^= 0x40;
                }
            }
        }
    });
}

/// Hook: rot the file at `path` on disk — flip one byte or truncate,
/// per the plan — immediately before a store walk reads it. Called from
/// [`SnapshotStore::load_newer_than`](super::SnapshotStore::load_newer_than)
/// once per candidate file; fires at most once. Best effort: a file that
/// cannot be rewritten is left alone (the latch stays unfired so a test
/// can tell).
pub(crate) fn maybe_rot_peer_file(path: &std::path::Path) {
    CURRENT.with(|c| {
        if let Some(s) = c.borrow().as_ref() {
            if let Some(rot) = s.plan.rot_peer_file {
                if s.rot_fired.load(Ordering::SeqCst) {
                    return;
                }
                let rotted = match rot {
                    PeerRot::FlipByte(m) => std::fs::read(path).is_ok_and(|mut bytes| {
                        if bytes.is_empty() {
                            return false;
                        }
                        let i = m % bytes.len();
                        bytes[i] ^= 0x40;
                        std::fs::write(path, &bytes).is_ok()
                    }),
                    PeerRot::Truncate(len) => std::fs::OpenOptions::new()
                        .write(true)
                        .open(path)
                        .and_then(|f| f.set_len(len))
                        .is_ok(),
                };
                if rotted {
                    s.rot_fired.store(true, Ordering::SeqCst);
                }
            }
        }
    });
}

/// Hook: the synthetic error for the plan's `n`th snapshot-store IO
/// operation, `None` otherwise. Every call advances the shared op counter.
pub(crate) fn maybe_io_error(op: &'static str) -> Option<std::io::Error> {
    CURRENT.with(|c| {
        c.borrow().as_ref().and_then(|s| {
            let n = s.plan.fail_io_op?;
            if s.io_ops.fetch_add(1, Ordering::SeqCst) == n {
                s.io_fired.store(true, Ordering::SeqCst);
                Some(std::io::Error::other(format!("injected fault: {op}")))
            } else {
                None
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_single_fault() {
        for seed in 0..64 {
            let a = FaultPlan::seeded(seed, 4, 6);
            let b = FaultPlan::seeded(seed, 4, 6);
            assert_eq!(a, b, "seed {seed}");
            let kinds = usize::from(a.lane_panic.is_some())
                + usize::from(a.shard_panic.is_some())
                + usize::from(a.corrupt_snapshot_byte.is_some())
                + usize::from(a.fail_io_op.is_some());
            assert_eq!(kinds, 1, "seed {seed}: exactly one fault");
            if let Some((lane, step)) = a.lane_panic {
                assert!(lane < 4 && step < 6, "seed {seed}: in-range target");
            }
        }
    }

    #[test]
    fn install_is_scoped_and_restores_the_previous_plan() {
        assert!(maybe_io_error("noop").is_none(), "nothing installed");
        let outer = install(FaultPlan::fail_io(0));
        {
            let inner = install(FaultPlan::default());
            // The inner (empty) plan shadows the outer one.
            assert!(maybe_io_error("read").is_none());
            assert_eq!(inner.fired(), FiredReport::default());
        }
        // Outer plan restored: its 0th IO op now fails, exactly once.
        assert!(maybe_io_error("read").is_some());
        assert!(maybe_io_error("read").is_none());
        assert!(outer.fired().fail_io);
        drop(outer);
        assert!(maybe_io_error("read").is_none(), "disarmed after drop");
    }

    #[test]
    fn lane_panic_fires_once_at_its_exact_target() {
        let guard = install(FaultPlan::lane_panic(1, 2));
        maybe_panic_lane(0, 2);
        maybe_panic_lane(1, 1);
        assert!(!guard.fired().lane_panic);
        let caught = std::panic::catch_unwind(|| maybe_panic_lane(1, 2));
        assert!(caught.is_err(), "target step must panic");
        assert!(guard.fired().lane_panic);
        maybe_panic_lane(1, 2); // fire-once: a replayed step is safe
    }

    #[test]
    fn adopted_threads_share_counters_with_the_installer() {
        let guard = install(FaultPlan::fail_io(1));
        let handle = snapshot();
        assert!(maybe_io_error("op0").is_none()); // op 0 on this thread
        std::thread::scope(|s| {
            s.spawn(|| {
                let _g = adopt(handle.clone());
                // Op 1 lands here because the counter is shared.
                assert!(maybe_io_error("op1").is_some());
            });
        });
        assert!(guard.fired().fail_io);
    }

    #[test]
    fn peer_rot_mangles_a_file_once() {
        let dir = std::env::temp_dir().join(format!("prosperity_rot_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("peer.psnp");
        let clean = vec![7u8; 16];
        std::fs::write(&path, &clean).expect("seed file");
        {
            let guard = install(FaultPlan::rot_peer(PeerRot::FlipByte(3)));
            maybe_rot_peer_file(&path);
            assert!(guard.fired().rot_peer);
            let mut want = clean.clone();
            want[3] ^= 0x40;
            assert_eq!(std::fs::read(&path).expect("read"), want);
            // Fire-once: a second walk leaves the file alone.
            maybe_rot_peer_file(&path);
            assert_eq!(std::fs::read(&path).expect("read"), want);
        }
        std::fs::write(&path, &clean).expect("reset");
        {
            let guard = install(FaultPlan::rot_peer(PeerRot::Truncate(5)));
            maybe_rot_peer_file(&path);
            assert!(guard.fired().rot_peer);
            assert_eq!(std::fs::read(&path).expect("read").len(), 5);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seeded_peer_rot_is_deterministic() {
        for seed in 0..32 {
            let a = FaultPlan::seeded_peer_rot(seed);
            assert_eq!(a, FaultPlan::seeded_peer_rot(seed), "seed {seed}");
            assert!(a.rot_peer_file.is_some());
        }
    }

    #[test]
    fn corruption_flips_exactly_one_byte_once() {
        let guard = install(FaultPlan::corrupt_snapshot(10));
        let clean = vec![0u8; 4];
        let mut bytes = clean.clone();
        maybe_corrupt_snapshot(&mut bytes);
        assert_eq!(bytes, vec![0, 0, 0x40, 0], "byte 10 % 4 = 2 flipped");
        assert!(guard.fired().corrupt_snapshot);
        let mut again = clean.clone();
        maybe_corrupt_snapshot(&mut again);
        assert_eq!(again, clean, "fires once");
    }
}
