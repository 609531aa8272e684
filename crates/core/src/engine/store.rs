//! Crash-safe snapshot retention: a directory of sequence-numbered
//! [`PlanSnapshot`] files with bounded-backoff writes, pruning, and a
//! corrupt-tolerant loader.
//!
//! A *single* snapshot write is atomic (temp file, fsync, rename); a
//! serving process additionally needs a *history* of them — the newest image might
//! be the one a crash (or bit rot) mangled, and a warm restart is strictly
//! better served by the previous good snapshot than by nothing. A
//! [`SnapshotStore`] owns one directory and provides:
//!
//! * **sequence-numbered saves** — `snap-00000042.psnp`, monotonically
//!   increasing, each written via the atomic temp-file + fsync + rename
//!   path, retried under bounded exponential backoff on transient IO
//!   errors (counted in [`SnapshotStore::io_retries`]);
//! * **retention** — after each save, all but the newest K files are
//!   pruned;
//! * **[`SnapshotStore::load_latest_valid`]** — walks the retained files
//!   newest-first, fully decoding each (magic, version, checksum, and
//!   every structural cross-check of [`PlanSnapshot::decode`]); a file
//!   that fails is *quarantined* — renamed to `<name>.bad` for post-mortem
//!   and counted in [`SnapshotStore::quarantined`] — and the walk falls
//!   back to the next-newest, so one corrupt file can never stop a warm
//!   restart that an older good file could serve.
//!
//! The [`ServingLoop`](super::ServingLoop) drives its background exports
//! through a store when one is attached
//! ([`ServingLoop::with_snapshot_store`](super::ServingLoop::with_snapshot_store)),
//! surfacing the counters as
//! [`SchedulerStats::snapshot_io_retries`](super::SchedulerStats) and
//! [`SchedulerStats::snapshots_quarantined`](super::SchedulerStats).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use bytes::BytesMut;

use super::snapshot::{atomic_write, io_fault, PlanSnapshot, SnapshotError};

/// Prefix of every snapshot file this store writes.
const FILE_PREFIX: &str = "snap-";
/// Extension of every snapshot file this store writes.
const FILE_SUFFIX: &str = ".psnp";

/// A directory of retained, checksum-verified plan snapshots. See the
/// [module docs](self).
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    retain: usize,
    attempts: u32,
    base_delay: Duration,
    next_seq: AtomicU64,
    io_retries: AtomicU64,
    quarantined: AtomicU64,
    files_scanned: AtomicU64,
    /// Reused encode buffer: after the first save its capacity covers the
    /// working-set image size, so steady-state exports allocate nothing.
    encode_buf: Mutex<BytesMut>,
    bytes_encoded: AtomicU64,
    plans_encoded: AtomicU64,
    bytes_loaded: AtomicU64,
    plans_loaded: AtomicU64,
}

impl SnapshotStore {
    /// Default write attempts per save (1 initial + 2 retries).
    pub const DEFAULT_ATTEMPTS: u32 = 3;
    /// Default first-retry backoff delay (doubles per retry).
    pub const DEFAULT_BASE_DELAY: Duration = Duration::from_millis(1);

    /// Opens (creating if needed) a store over `dir` retaining the newest
    /// `retain` snapshots (clamped to at least 1). Sequence numbering
    /// resumes after the highest-numbered file already present, so a
    /// restarted process never overwrites its predecessor's snapshots.
    pub fn new(dir: impl Into<PathBuf>, retain: usize) -> Result<Self, SnapshotError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| SnapshotError::Io(e.to_string()))?;
        let next_seq = Self::list_files(&dir)
            .map_err(|e| SnapshotError::Io(e.to_string()))?
            .last()
            .map_or(0, |&(seq, _)| seq + 1);
        Ok(Self {
            dir,
            retain: retain.max(1),
            attempts: Self::DEFAULT_ATTEMPTS,
            base_delay: Self::DEFAULT_BASE_DELAY,
            next_seq: AtomicU64::new(next_seq),
            io_retries: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            files_scanned: AtomicU64::new(0),
            encode_buf: Mutex::new(BytesMut::new()),
            bytes_encoded: AtomicU64::new(0),
            plans_encoded: AtomicU64::new(0),
            bytes_loaded: AtomicU64::new(0),
            plans_loaded: AtomicU64::new(0),
        })
    }

    /// Overrides the retry schedule: `attempts` total tries per save
    /// (clamped to at least 1) with `base_delay` before the first retry,
    /// doubling per retry (bounded exponential backoff).
    pub fn with_retry(mut self, attempts: u32, base_delay: Duration) -> Self {
        self.attempts = attempts.max(1);
        self.base_delay = base_delay;
        self
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Newest snapshots kept after each save's prune.
    pub fn retain(&self) -> usize {
        self.retain
    }

    /// Saves failed mid-write and retried (each backoff counts once).
    pub fn io_retries(&self) -> u64 {
        self.io_retries.load(Ordering::Relaxed)
    }

    /// Corrupt files renamed to `*.bad` by
    /// [`SnapshotStore::load_latest_valid`].
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Snapshot files examined (read + verified) by the load walks — the
    /// one-pass guarantee's audit counter: a single
    /// [`SnapshotStore::load_latest_valid`] call over a directory of `K`
    /// rotted files advances this by exactly `K` (+1 if an older good file
    /// is then decoded), never `O(K²)` — quarantining a newer bad file
    /// must not restart the walk or re-read the survivors.
    pub fn files_scanned(&self) -> u64 {
        self.files_scanned.load(Ordering::Relaxed)
    }

    /// Total bytes serialized by [`SnapshotStore::save`] (pre-write, so
    /// failed saves still count their encode work).
    pub fn bytes_encoded(&self) -> u64 {
        self.bytes_encoded.load(Ordering::Relaxed)
    }

    /// Total plan entries serialized by [`SnapshotStore::save`].
    pub fn plans_encoded(&self) -> u64 {
        self.plans_encoded.load(Ordering::Relaxed)
    }

    /// Total bytes of successfully decoded snapshots returned by
    /// [`SnapshotStore::load_latest_valid`].
    pub fn bytes_loaded(&self) -> u64 {
        self.bytes_loaded.load(Ordering::Relaxed)
    }

    /// Total plan entries in successfully decoded snapshots returned by
    /// [`SnapshotStore::load_latest_valid`].
    pub fn plans_loaded(&self) -> u64 {
        self.plans_loaded.load(Ordering::Relaxed)
    }

    /// Writes `snapshot` as the next sequence-numbered file, retrying
    /// failed writes under bounded exponential backoff, then prunes to the
    /// retention limit. Returns the path written. The write itself is
    /// atomic (temp file, fsync, rename), so no
    /// attempt — failed or killed — can leave a torn file under a
    /// snapshot name.
    pub fn save(&self, snapshot: &PlanSnapshot) -> Result<PathBuf, SnapshotError> {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let path = self.dir.join(format!("{FILE_PREFIX}{seq:08}{FILE_SUFFIX}"));
        // Encode into the store's reusable buffer: zero allocations once
        // its capacity has warmed up to the image size.
        let mut bytes = self.encode_buf.lock().unwrap_or_else(|p| p.into_inner());
        snapshot.encode_into(&mut bytes);
        self.bytes_encoded
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.plans_encoded
            .fetch_add(snapshot.len() as u64, Ordering::Relaxed);
        // Injected-fault hook: bit-rot one byte of this image on its way
        // to disk, so tests can drive the quarantine path end to end.
        #[cfg(any(test, feature = "fault-injection"))]
        super::faults::maybe_corrupt_snapshot(&mut bytes);
        let mut attempt = 0;
        loop {
            match atomic_write(&path, &bytes) {
                Ok(()) => break,
                Err(err) => {
                    attempt += 1;
                    if attempt >= self.attempts {
                        return Err(SnapshotError::Io(err.to_string()));
                    }
                    self.io_retries.fetch_add(1, Ordering::Relaxed);
                    // 1×, 2×, 4×, … the base delay: long enough to ride
                    // out a transient (EINTR, momentary ENOSPC churn),
                    // bounded so a dead disk fails the save instead of
                    // wedging the export thread.
                    std::thread::sleep(self.base_delay * (1 << (attempt - 1).min(16)));
                }
            }
        }
        self.prune().map_err(|e| SnapshotError::Io(e.to_string()))?;
        Ok(path)
    }

    /// Decodes the newest fully valid retained snapshot. Files that fail
    /// to decode — bad magic, version skew, truncation, checksum or any
    /// structural mismatch — are renamed to `<name>.bad` (quarantined for
    /// post-mortem, never re-read) and the walk falls back to the
    /// next-newest file. Returns `Ok(None)` when no file survives.
    /// Unreadable files (IO errors) are skipped without quarantine: the
    /// bytes on disk may be fine and a later load may succeed.
    pub fn load_latest_valid(&self) -> Result<Option<PlanSnapshot>, SnapshotError> {
        Ok(self.load_newer_than(None)?.map(|(_, snapshot)| snapshot))
    }

    /// [`SnapshotStore::load_latest_valid`] with a staleness cutoff: the
    /// walk considers only files whose sequence number is strictly greater
    /// than `newer_than` (everything at or below it was already consumed),
    /// and returns the decoded snapshot *with* its sequence number so the
    /// caller can advance its cutoff. This is the gossip import primitive:
    /// a peer whose store has produced nothing new since the last sweep is
    /// detected from the directory listing alone — no file is re-read, no
    /// image re-verified.
    ///
    /// The walk is **one pass**: the directory is listed once, each
    /// candidate file is read and verified at most once, and quarantining
    /// a newer bad file continues with the already-listed older files —
    /// it never restarts the walk ([`SnapshotStore::files_scanned`] is
    /// the regression counter pinning this).
    pub fn load_newer_than(
        &self,
        newer_than: Option<u64>,
    ) -> Result<Option<(u64, PlanSnapshot)>, SnapshotError> {
        let files = Self::list_files(&self.dir).map_err(|e| SnapshotError::Io(e.to_string()))?;
        for (seq, path) in files.iter().rev() {
            if newer_than.is_some_and(|cutoff| *seq <= cutoff) {
                // Files are sorted by sequence: everything from here on is
                // at least as stale. Stop without touching the bytes.
                return Ok(None);
            }
            self.files_scanned.fetch_add(1, Ordering::Relaxed);
            // Injected-fault hook: a hostile peer rots this file on disk
            // right before the read, so tests can drive the gossip
            // quarantine path end to end.
            #[cfg(any(test, feature = "fault-injection"))]
            super::faults::maybe_rot_peer_file(path);
            if io_fault("read snapshot").is_err() {
                continue;
            }
            let bytes = match std::fs::read(path) {
                Ok(bytes) => bytes,
                Err(_) => continue,
            };
            let len = bytes.len();
            match PlanSnapshot::decode(bytes.into()) {
                Ok(snapshot) => {
                    self.bytes_loaded.fetch_add(len as u64, Ordering::Relaxed);
                    self.plans_loaded
                        .fetch_add(snapshot.len() as u64, Ordering::Relaxed);
                    return Ok(Some((*seq, snapshot)));
                }
                Err(_) => {
                    let mut bad = path.as_os_str().to_os_string();
                    bad.push(".bad");
                    if std::fs::rename(path, PathBuf::from(bad)).is_err() {
                        // Could not quarantine (e.g. read-only dir):
                        // last-resort removal keeps the file from being
                        // re-decoded forever; best effort either way.
                        let _ = std::fs::remove_file(path);
                    }
                    self.quarantined.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Ok(None)
    }

    /// Paths of the retained snapshot files, oldest first.
    pub fn files(&self) -> Result<Vec<PathBuf>, SnapshotError> {
        Ok(Self::list_files(&self.dir)
            .map_err(|e| SnapshotError::Io(e.to_string()))?
            .into_iter()
            .map(|(_, path)| path)
            .collect())
    }

    /// Removes all but the newest [`SnapshotStore::retain`] files.
    fn prune(&self) -> std::io::Result<()> {
        let files = Self::list_files(&self.dir)?;
        for (_, path) in files.iter().rev().skip(self.retain) {
            std::fs::remove_file(path)?;
        }
        Ok(())
    }

    /// The store's snapshot files as `(sequence, path)`, sorted ascending.
    /// Non-matching names (including `*.tmp` and `*.bad`) are ignored.
    fn list_files(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
        let mut files = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(stem) = name
                .strip_prefix(FILE_PREFIX)
                .and_then(|s| s.strip_suffix(FILE_SUFFIX))
            else {
                continue;
            };
            if let Ok(seq) = stem.parse::<u64>() {
                files.push((seq, path));
            }
        }
        files.sort();
        Ok(files)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::faults;
    use crate::engine::{EngineConfig, Session};
    use spikemat::gemm::{OutputMatrix, WeightMatrix};
    use spikemat::{SpikeMatrix, TileShape};

    /// A non-empty snapshot to store (planned from a fixed tile).
    fn sample_snapshot() -> PlanSnapshot {
        let config = EngineConfig::new(TileShape::new(8, 8), 64);
        let mut engine = Session::<i64>::new(config);
        let row: &[u8] = &[1, 0, 1, 1, 0, 0, 1, 0];
        let spikes = SpikeMatrix::from_rows_of_bits(&[row; 8]);
        let w = WeightMatrix::from_fn(8, 2, |r, c| (r + c) as i64);
        let mut out = OutputMatrix::zeros(0, 0);
        engine.gemm_into(&spikes, &w, &mut out);
        let snap = engine.export_snapshot(64);
        assert!(!snap.is_empty());
        snap
    }

    /// Fresh scratch directory for one test, removed on drop.
    struct TempDir(PathBuf);
    impl TempDir {
        fn new(name: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("prosperity_store_{name}"));
            std::fs::remove_dir_all(&dir).ok();
            Self(dir)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    #[test]
    fn saves_are_sequence_numbered_and_pruned_to_retention() {
        let tmp = TempDir::new("retention");
        let store = SnapshotStore::new(&tmp.0, 3).expect("open");
        let snap = sample_snapshot();
        for _ in 0..5 {
            store.save(&snap).expect("save");
        }
        let files = store.files().expect("list");
        assert_eq!(files.len(), 3, "pruned to retention");
        let names: Vec<String> = files
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap().to_string())
            .collect();
        assert_eq!(
            names,
            vec![
                "snap-00000002.psnp",
                "snap-00000003.psnp",
                "snap-00000004.psnp"
            ],
            "newest three, oldest first"
        );
        // A reopened store resumes numbering after the survivors.
        let reopened = SnapshotStore::new(&tmp.0, 3).expect("reopen");
        let path = reopened.save(&snap).expect("save");
        assert!(path.ends_with("snap-00000005.psnp"), "{path:?}");
    }

    #[test]
    fn load_latest_valid_skips_and_quarantines_corrupt_files() {
        let tmp = TempDir::new("quarantine");
        let store = SnapshotStore::new(&tmp.0, 4).expect("open");
        let snap = sample_snapshot();
        store.save(&snap).expect("save good");
        let newest = store.save(&snap).expect("save to corrupt");
        // Bit-rot the newest file on disk.
        let mut bytes = std::fs::read(&newest).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        std::fs::write(&newest, &bytes).expect("corrupt");
        let loaded = store
            .load_latest_valid()
            .expect("walk")
            .expect("older file serves");
        assert_eq!(loaded.len(), snap.len());
        assert_eq!(store.quarantined(), 1);
        assert!(!newest.exists(), "corrupt file moved aside");
        let mut bad = newest.as_os_str().to_os_string();
        bad.push(".bad");
        assert!(PathBuf::from(bad).exists(), "quarantined for post-mortem");
        // The quarantined file no longer participates in later walks.
        assert!(store.load_latest_valid().expect("walk").is_some());
        assert_eq!(store.quarantined(), 1);
    }

    #[test]
    fn k_rotted_files_quarantine_in_one_pass() {
        let tmp = TempDir::new("one_pass");
        let store = SnapshotStore::new(&tmp.0, 16).expect("open");
        let snap = sample_snapshot();
        // One good oldest file, then K rotted newer ones.
        const K: usize = 5;
        store.save(&snap).expect("good save");
        for _ in 0..K {
            let path = store.save(&snap).expect("save to rot");
            let mut bytes = std::fs::read(&path).expect("read");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x01;
            std::fs::write(&path, &bytes).expect("rot");
        }
        let loaded = store
            .load_latest_valid()
            .expect("walk terminates")
            .expect("the oldest good file survives");
        assert_eq!(loaded.len(), snap.len());
        assert_eq!(store.quarantined(), K as u64, "all K quarantined");
        // The one-pass guarantee: K bad files + 1 good file were each
        // read and verified exactly once. A walk that restarted after
        // every quarantine would have scanned O(K^2) files.
        assert_eq!(store.files_scanned(), K as u64 + 1);
        // And the quarantined files no longer participate at all.
        let again = store.load_latest_valid().expect("walk").expect("good");
        assert_eq!(again.len(), snap.len());
        assert_eq!(store.files_scanned(), K as u64 + 2, "one more read only");
        assert_eq!(store.quarantined(), K as u64);
    }

    #[test]
    fn load_newer_than_skips_stale_without_reading() {
        let tmp = TempDir::new("newer_than");
        let store = SnapshotStore::new(&tmp.0, 8).expect("open");
        let snap = sample_snapshot();
        store.save(&snap).expect("save 0");
        store.save(&snap).expect("save 1");
        let (seq, loaded) = store
            .load_newer_than(None)
            .expect("walk")
            .expect("newest decodes");
        assert_eq!(seq, 1);
        assert_eq!(loaded.len(), snap.len());
        assert_eq!(store.files_scanned(), 1);
        // Nothing newer than seq 1: the sweep ends at the listing, with
        // zero file reads.
        assert!(store.load_newer_than(Some(seq)).expect("walk").is_none());
        assert_eq!(store.files_scanned(), 1, "stale sweep reads nothing");
        // A new save is picked up again.
        store.save(&snap).expect("save 2");
        let (seq2, _) = store
            .load_newer_than(Some(seq))
            .expect("walk")
            .expect("fresh file");
        assert_eq!(seq2, 2);
    }

    #[test]
    fn encode_and_load_volume_counters_accumulate() {
        let tmp = TempDir::new("volume_counters");
        let store = SnapshotStore::new(&tmp.0, 4).expect("open");
        let snap = sample_snapshot();
        let path = store.save(&snap).expect("save");
        let on_disk = std::fs::metadata(&path).expect("stat").len();
        assert_eq!(store.bytes_encoded(), on_disk);
        assert_eq!(store.plans_encoded(), snap.len() as u64);
        assert_eq!(store.bytes_loaded(), 0, "nothing loaded yet");
        let loaded = store.load_latest_valid().expect("walk").expect("valid");
        assert_eq!(store.bytes_loaded(), on_disk);
        assert_eq!(store.plans_loaded(), loaded.len() as u64);
        store.save(&snap).expect("save again");
        assert_eq!(store.bytes_encoded(), 2 * on_disk, "counters accumulate");
    }

    #[test]
    fn empty_store_loads_none() {
        let tmp = TempDir::new("empty");
        let store = SnapshotStore::new(&tmp.0, 2).expect("open");
        assert!(store.load_latest_valid().expect("walk").is_none());
        assert_eq!(store.quarantined(), 0);
    }

    #[test]
    fn transient_io_failure_is_retried_with_backoff() {
        let tmp = TempDir::new("retry");
        let store = SnapshotStore::new(&tmp.0, 2)
            .expect("open")
            .with_retry(3, Duration::from_micros(50));
        let snap = sample_snapshot();
        // Fail the very first IO op of the save: the fire-once fault makes
        // the first retry succeed.
        let guard = faults::install(faults::FaultPlan::fail_io(0));
        let path = store.save(&snap).expect("retried save succeeds");
        assert!(guard.fired().fail_io);
        drop(guard);
        assert_eq!(store.io_retries(), 1);
        assert!(path.exists());
        assert_eq!(
            store
                .load_latest_valid()
                .expect("walk")
                .expect("valid")
                .len(),
            snap.len()
        );
    }

    #[test]
    fn exhausted_retries_surface_as_io_error() {
        let tmp = TempDir::new("exhausted");
        let store = SnapshotStore::new(&tmp.0, 2)
            .expect("open")
            .with_retry(1, Duration::ZERO);
        // A single attempt with the first op failing: no retry budget.
        let _guard = faults::install(faults::FaultPlan::fail_io(0));
        let err = store.save(&sample_snapshot());
        assert!(matches!(err, Err(SnapshotError::Io(_))));
        assert_eq!(store.io_retries(), 0);
        assert!(store.files().expect("list").is_empty(), "nothing torn");
    }

    #[test]
    fn injected_corruption_is_caught_by_the_next_load() {
        let tmp = TempDir::new("injected_corruption");
        let store = SnapshotStore::new(&tmp.0, 4).expect("open");
        let snap = sample_snapshot();
        store.save(&snap).expect("good save");
        {
            // Corrupt byte 100 of the next image on its way to disk.
            let guard = faults::install(faults::FaultPlan::corrupt_snapshot(100));
            store.save(&snap).expect("corrupted save still writes");
            assert!(guard.fired().corrupt_snapshot);
        }
        let loaded = store.load_latest_valid().expect("walk");
        assert_eq!(loaded.expect("fallback").len(), snap.len());
        assert_eq!(store.quarantined(), 1);
    }
}
