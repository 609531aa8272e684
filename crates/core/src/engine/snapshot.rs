//! Plan-cache snapshots: persist the hottest plans across process restarts.
//!
//! The serving runtime's whole advantage is a warm plan cache — but the
//! cache dies with the process, so every restart pays the full cold
//! planning cost again until the hit rate recovers. A [`PlanSnapshot`]
//! captures the hottest N entries of a cache (keys, tile metas, pattern
//! limbs, recency order, and per-entry hit counts) in a versioned,
//! checksummed binary format, and a restarted process imports it to start
//! at a warm hit rate instead of zero.
//!
//! Snapshots are taken at shutdown (`Session::export_snapshot`,
//! [`SharedPlanCache::export_hottest`](super::SharedPlanCache::export_hottest))
//! or *periodically while serving*: a
//! [`ServingLoop`](super::ServingLoop) launches shard-at-a-time exports
//! on a background thread on an executed-step cadence, so a long-running
//! fleet always has a recent warm-start image without ever pausing its
//! lanes.
//!
//! The codec follows the `trace_io` style: a hand-rolled little-endian
//! layout over [`bytes`], and decode paths that fail cleanly (never
//! panic) on truncated, corrupt, or version-skewed input. Restores are *exact*: an imported entry is
//! bit-identical to the exported one — same key limbs, same
//! [`TileMeta`] down to the packed pattern limbs —
//! so a warm-started cache serves exactly the plans the original process
//! would have (property-tested in `tests/serving.rs`).
//!
//! Format (little-endian):
//!
//! ```text
//! magic "PSNP" | version u32 | entry count u32 | payload checksum u64
//! payload, per entry (hottest first):
//!   hash u64 | hits u64 | key limb count u32 | key limbs (u64 each)
//!   row_start u64 | col_start u64 | valid_rows u32 | valid_cols u32
//!   sorter_stages u32 | row count u32 | pattern bit-length u32
//!   per row: prefix u32 (u32::MAX = none) | kind u8 (`MatchKind as u8`)
//!            | pattern limbs (⌈bits/64⌉ u64 each)
//!   Dispatcher order: row count × u32
//! ```
//!
//! A plan holds no placement, valid region or sorter stage count, so the
//! encoder writes `row_start`, `col_start`, `valid_rows`, `valid_cols` and
//! `sorter_stages` as the constants every cached plan carries: `0`, `0`,
//! the row count, the bit length and `BitonicSorter::model(rows).stages()`.
//! Decode checks that the valid region fits the tile and reads none of the
//! five back.
//!
//! The checksum (FNV-1a over the payload) is verified before any payload
//! field is trusted; the per-entry hash is additionally re-derived from
//! the key limbs on decode, so a flipped bit in either is caught twice.
//! The kind byte is redundant too: decode rejects one that differs from
//! the kind derived from the row's prefix and pattern. The per-row
//! pattern limbs, concatenated, are [`TileMeta::pattern_limbs`]. The
//! stored order is [`TileMeta::dispatch_order`], so it is redundant as
//! well: decode rejects one that differs from the order derived from the
//! prefixes and patterns, then derives [`TileMeta::exec_order`]. It also
//! rejects an all-zero row used as a prefix, since the executor skips
//! all-zero rows.
//!
//! Typical lifecycle:
//!
//! ```
//! use prosperity_core::engine::{PlanSnapshot, Session};
//! use spikemat::gemm::{OutputMatrix, WeightMatrix};
//! use spikemat::SpikeMatrix;
//!
//! // A serving process warms its cache...
//! let mut engine = Session::<i64>::default();
//! let spikes = SpikeMatrix::from_rows_of_bits(&[&[1, 0, 1], &[1, 0, 1]]);
//! let weights = WeightMatrix::from_fn(3, 2, |r, c| (r + c) as i64);
//! let mut out = OutputMatrix::zeros(0, 0);
//! engine.gemm_into(&spikes, &weights, &mut out);
//!
//! // ...snapshots the hottest plans at shutdown...
//! let bytes = engine.export_snapshot(1024).encode();
//!
//! // ...and the next process starts warm instead of cold.
//! let snapshot = PlanSnapshot::decode(bytes).expect("valid snapshot");
//! let (mut warm, report) = Session::<i64>::warm_start(*engine.config(), &snapshot);
//! assert_eq!(report.restored, snapshot.len());
//! warm.gemm_into(&spikes, &weights, &mut out);
//! assert_eq!(warm.stats().restored_hits, warm.stats().cache_hits);
//! ```

use crate::order::BitonicSorter;
use crate::plan::{derived_kind, OrderBufs, TileMeta, NO_PREFIX};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::cell::Cell;
use std::fmt;
use std::sync::Arc;

use super::cache::hash_limbs;

const MAGIC: &[u8; 4] = b"PSNP";
const VERSION: u32 = 1;
/// Fixed header size: magic (4) + version (4) + count (4) + checksum (8).
const HEADER_BYTES: usize = 20;

/// Errors raised while decoding a serialized snapshot or while a
/// [`SnapshotStore`](super::SnapshotStore) reads, writes or lists its files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with the `PSNP` magic.
    BadMagic,
    /// Unsupported format version (older/newer writer).
    BadVersion(u32),
    /// The buffer ended before the declared contents.
    Truncated,
    /// The payload checksum does not match its contents.
    ChecksumMismatch,
    /// A field held an invalid value (e.g. an out-of-range prefix index).
    Corrupt(&'static str),
    /// A filesystem operation failed: creating the store directory, or
    /// reading, writing, renaming, listing or pruning snapshot files.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a plan snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Truncated => write!(f, "snapshot buffer truncated"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot field: {what}"),
            SnapshotError::Io(err) => write!(f, "snapshot io: {err}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// What an import did with the snapshot's entries.
///
/// `requested == restored + skipped_capacity + skipped_duplicate +
/// skipped_shape` always holds; a partial restore (snapshot larger than
/// the restoring cache) shows up as `skipped_capacity > 0`, never as an
/// error.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImportReport {
    /// Entries the snapshot offered.
    pub requested: usize,
    /// Entries now resident because of this import.
    pub restored: usize,
    /// Hottest-first surplus dropped because the cache ran out of room
    /// (import never evicts live entries).
    pub skipped_capacity: usize,
    /// Entries whose key was already resident (e.g. importing into an
    /// already-warm cache).
    pub skipped_duplicate: usize,
    /// Entries whose tile geometry does not match the importing session's
    /// configured tile shape (a snapshot from a differently-configured
    /// process — its plans could never be looked up here, and a
    /// wrong-shape plan must never be served).
    pub skipped_shape: usize,
}

impl ImportReport {
    /// Accumulates another shard's or session's report into this one.
    pub fn merge(&mut self, other: &ImportReport) {
        self.requested += other.requested;
        self.restored += other.restored;
        self.skipped_capacity += other.skipped_capacity;
        self.skipped_duplicate += other.skipped_duplicate;
        self.skipped_shape += other.skipped_shape;
    }
}

/// One exported cache entry: the full content key, the plan, and its
/// popularity metadata.
#[derive(Debug, Clone)]
pub(crate) struct SnapshotEntry {
    /// Content hash of `limbs` (redundant — re-derived and cross-checked on
    /// decode).
    pub(crate) hash: u64,
    /// The tile's raw limbs, row-major — the cache key.
    pub(crate) limbs: Box<[u64]>,
    pub(crate) meta: Arc<TileMeta>,
    /// Times the original cache served this plan.
    pub(crate) hits: u64,
}

impl SnapshotEntry {
    /// Whether this entry's plan was built for an `m × k` tile.
    ///
    /// The decoder can only check that an entry is *internally*
    /// consistent; whether it fits the importing cache's tile shape is
    /// known only at import time. A wrong-shape plan is worse than
    /// useless — its key can (rarely) collide with a live tile's flat
    /// limbs and then the executor would index out of bounds — so every
    /// import path drops mismatches, reported as
    /// [`ImportReport::skipped_shape`].
    pub(crate) fn matches_shape(&self, m: usize, k: usize) -> bool {
        self.meta.prefix.len() == m && self.meta.width == k
    }
}

/// The hottest plans of a cache, in recency order (hottest first), ready to
/// be encoded to bytes or imported into a fresh cache.
///
/// Produced by `Session::export_snapshot` /
/// [`SharedPlanCache::export_hottest`](super::SharedPlanCache::export_hottest);
/// consumed by the `warm_start` constructors and `import_snapshot` methods.
/// See the [module docs](self) for the lifecycle and format.
#[derive(Debug, Clone, Default)]
pub struct PlanSnapshot {
    pub(crate) entries: Vec<SnapshotEntry>,
}

impl PlanSnapshot {
    /// Number of plans captured.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot holds no plans.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes the snapshot into the versioned, checksummed binary
    /// format.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Serializes into a caller-owned buffer, reusing its capacity.
    ///
    /// This is the steady-state encode path: the header is written with a
    /// placeholder checksum, the payload is appended in place (no side
    /// buffer), and the checksum bytes are backpatched — so a warm buffer
    /// makes the whole encode allocation-free. The export thread's
    /// [`super::SnapshotStore`] holds one such buffer per store.
    // analyze: hot-path
    pub fn encode_into(&self, buf: &mut BytesMut) {
        buf.clear();
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u32_le(self.entries.len() as u32);
        buf.put_u64_le(0); // checksum placeholder, backpatched below
        for entry in &self.entries {
            encode_entry(buf, entry);
        }
        let checksum = fnv1a(&buf[HEADER_BYTES..]);
        buf[12..HEADER_BYTES].copy_from_slice(&checksum.to_le_bytes());
    }

    /// Decodes a snapshot previously written by [`PlanSnapshot::encode`].
    ///
    /// Never panics on malformed input: truncation, bit flips (caught by
    /// the payload checksum and the per-entry hash cross-check), version
    /// skew, and out-of-range fields all surface as [`SnapshotError`]s.
    pub fn decode(mut buf: Bytes) -> Result<Self, SnapshotError> {
        need(&buf, 4)?;
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        need(&buf, 16)?;
        let version = buf.get_u32_le();
        if version != VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let count = buf.get_u32_le() as usize;
        let checksum = buf.get_u64_le();
        if fnv1a(&buf) != checksum {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let mut entries = Vec::with_capacity(count.min(buf.remaining() / MIN_ENTRY_BYTES));
        for _ in 0..count {
            entries.push(decode_entry(&mut buf)?);
        }
        if buf.remaining() != 0 {
            return Err(SnapshotError::Corrupt("trailing bytes"));
        }
        Ok(Self { entries })
    }
}

/// Smallest possible encoded entry (all counts zero) — bounds the upfront
/// `Vec` reservation against a corrupt entry count.
const MIN_ENTRY_BYTES: usize = 8 + 8 + 4 + 8 + 8 + 4 + 4 + 4 + 4 + 4;

/// Crash-safe file write: `bytes` land in `<path>.tmp` first (written and
/// fsynced), then rename into place — the POSIX atomic-replace idiom, so a
/// crash at any point leaves either the previous complete file or the new
/// complete one at `path`, never a torn mix. A failed write removes its
/// temp file (best effort). The [`SnapshotStore`](super::SnapshotStore)
/// writes every snapshot file through it; every filesystem operation
/// passes through the fault-injection [`io_fault`] hook.
pub(crate) fn atomic_write(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let tmp = tmp_path(path);
    let result = (|| {
        io_fault("create temp file")?;
        let mut file = std::fs::File::create(&tmp)?;
        io_fault("write temp file")?;
        file.write_all(bytes)?;
        io_fault("sync temp file")?;
        file.sync_all()?;
        drop(file);
        io_fault("rename into place")?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// `<path>.tmp`, the staging name [`atomic_write`] renames from.
fn tmp_path(path: &std::path::Path) -> std::path::PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    std::path::PathBuf::from(os)
}

/// The injected failure for this IO operation, if a fault plan targets it;
/// compiles to `Ok(())` outside tests and the `fault-injection` feature.
#[inline]
pub(crate) fn io_fault(_op: &'static str) -> std::io::Result<()> {
    #[cfg(any(test, feature = "fault-injection"))]
    if let Some(err) = super::faults::maybe_io_error(_op) {
        return Err(err);
    }
    Ok(())
}

/// FNV-1a over the payload; cheap, order-sensitive, and enough to catch
/// the accidental corruption this format defends against (bit rot,
/// truncated writes) — it is not a cryptographic integrity check.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn need(buf: &Bytes, n: usize) -> Result<(), SnapshotError> {
    if buf.remaining() < n {
        Err(SnapshotError::Truncated)
    } else {
        Ok(())
    }
}

thread_local! {
    /// The encoder's buffers for deriving each entry's stored Dispatcher
    /// order; warm after a thread's first encode, so a warm encode stays
    /// allocation-free.
    static DISPATCH_BUFS: Cell<OrderBufs> = Cell::default();
}

// analyze: hot-path
fn encode_entry(buf: &mut BytesMut, entry: &SnapshotEntry) {
    buf.put_u64_le(entry.hash);
    buf.put_u64_le(entry.hits);
    buf.put_u32_le(entry.limbs.len() as u32);
    for &limb in entry.limbs.iter() {
        buf.put_u64_le(limb);
    }
    let meta = &entry.meta;
    let rows = meta.prefix.len();
    // Placement, valid region and sorter stages: the constants every
    // cached plan carries (module docs).
    buf.put_u64_le(0);
    buf.put_u64_le(0);
    buf.put_u32_le(rows as u32);
    buf.put_u32_le(meta.width as u32);
    buf.put_u32_le(BitonicSorter::model(rows).stages() as u32);
    buf.put_u32_le(rows as u32);
    buf.put_u32_le(meta.width as u32);
    let words = meta.pattern_words();
    for (i, &prefix) in meta.prefix.iter().enumerate() {
        let pattern = meta
            .pattern_limbs
            .get(i * words..(i + 1) * words)
            .unwrap_or_default();
        buf.put_u32_le(prefix);
        buf.put_u8(derived_kind(prefix, pattern) as u8);
        for &limb in pattern {
            buf.put_u64_le(limb);
        }
    }
    let mut bufs = DISPATCH_BUFS.take();
    for &i in meta.dispatch_order_into(&mut bufs) {
        buf.put_u32_le(i);
    }
    DISPATCH_BUFS.set(bufs);
}

fn decode_entry(buf: &mut Bytes) -> Result<SnapshotEntry, SnapshotError> {
    need(buf, 20)?;
    let hash = buf.get_u64_le();
    let hits = buf.get_u64_le();
    let limb_count = buf.get_u32_le() as usize;
    need(buf, limb_count * 8)?;
    let limbs: Box<[u64]> = (0..limb_count).map(|_| buf.get_u64_le()).collect();
    if hash_limbs(&limbs) != hash {
        return Err(SnapshotError::Corrupt("entry hash"));
    }
    need(buf, 8 + 8 + 4 + 4 + 4 + 4 + 4)?;
    // Placement and sorter stages are not read back; the valid region is
    // only checked (module docs).
    let _placement = (buf.get_u64_le(), buf.get_u64_le());
    let valid_rows = buf.get_u32_le() as usize;
    let valid_cols = buf.get_u32_le() as usize;
    let _sorter_stages = buf.get_u32_le();
    let row_count = buf.get_u32_le() as usize;
    let pattern_bits = buf.get_u32_le() as usize;
    let pattern_words = pattern_bits.div_ceil(64);
    // Cross-field consistency: the key is `row_count` rows of
    // `pattern_words` limbs each, and the valid (non-padding) region can
    // never exceed the padded tile. A file that lies about any of these
    // must fail here, not panic later inside the executor.
    if limb_count != row_count * pattern_words {
        return Err(SnapshotError::Corrupt("key geometry"));
    }
    if valid_rows > row_count {
        return Err(SnapshotError::Corrupt("valid rows"));
    }
    if valid_cols > pattern_bits {
        return Err(SnapshotError::Corrupt("valid cols"));
    }
    // Reservations are clamped by the bytes actually present, so a
    // malformed count cannot force a huge upfront allocation.
    let mut prefixes = Vec::with_capacity(row_count.min(buf.remaining() / (5 + pattern_words * 8)));
    let mut pattern_limbs =
        Vec::with_capacity((row_count * pattern_words).min(buf.remaining() / 8));
    // A stored limb may only carry bits within the declared pattern
    // length (the BitRow invariant the executor kernels rely on).
    let tail_mask = u64::MAX >> ((64 - pattern_bits % 64) % 64);
    for _ in 0..row_count {
        need(buf, 5 + pattern_words * 8)?;
        let prefix = buf.get_u32_le();
        if prefix != NO_PREFIX && prefix as usize >= row_count {
            return Err(SnapshotError::Corrupt("row prefix"));
        }
        let kind = buf.get_u8();
        let start = pattern_limbs.len();
        pattern_limbs.extend((0..pattern_words).map(|_| buf.get_u64_le()));
        let pattern = &pattern_limbs[start..];
        if pattern.last().is_some_and(|&l| l & !tail_mask != 0) {
            return Err(SnapshotError::Corrupt("pattern tail bits"));
        }
        if kind != derived_kind(prefix, pattern) as u8 {
            return Err(SnapshotError::Corrupt("row kind"));
        }
        prefixes.push(prefix);
    }
    need(buf, row_count * 4)?;
    let mut position = vec![usize::MAX; row_count];
    let mut order = Vec::with_capacity(row_count);
    for pos in 0..row_count {
        let i = buf.get_u32_le() as usize;
        if i >= row_count || position[i] != usize::MAX {
            return Err(SnapshotError::Corrupt("execution order"));
        }
        position[i] = pos;
        order.push(i as u32);
    }
    // The order must be *topological*, not just a permutation: the
    // executor computes each row on top of its prefix's already-finished
    // output, so a prefix scheduled after (or equal to) its dependent row
    // would silently read garbage — reject it here instead.
    for (i, &p) in prefixes.iter().enumerate() {
        if p != NO_PREFIX && (p as usize == i || position[p as usize] >= position[i]) {
            return Err(SnapshotError::Corrupt("execution order"));
        }
    }
    let mut meta = TileMeta {
        width: pattern_bits,
        prefix: prefixes,
        pattern_limbs,
        exec_order: order,
    };
    // The file stores the Dispatcher's order, which the plan derives: a
    // topological order that is not the stable popcount sort, or a zero
    // row used as a prefix, was not written by this planner.
    meta.replay_stored_dispatch_order()
        .map_err(SnapshotError::Corrupt)?;
    Ok(SnapshotEntry {
        hash,
        limbs,
        meta: Arc::new(meta),
        hits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, Session};
    use crate::prune::MatchKind;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use spikemat::gemm::{OutputMatrix, WeightMatrix};
    use spikemat::{SpikeMatrix, TileShape};

    /// A session warmed on a few random matrices, plus its traffic.
    fn warm_session(seed: u64, cache_capacity: usize) -> (Session<i64>, Vec<SpikeMatrix>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = EngineConfig::new(TileShape::new(8, 8), cache_capacity);
        let mut engine = Session::new(config);
        let w = WeightMatrix::from_fn(24, 3, |r, c| (r * 5 + c) as i64 - 11);
        let mut out = OutputMatrix::zeros(0, 0);
        let spikes: Vec<SpikeMatrix> = (0..6)
            .map(|_| SpikeMatrix::random(20, 24, rng.gen_range(0.1..0.5), &mut rng))
            .collect();
        for s in &spikes {
            engine.gemm_into(s, &w, &mut out);
            engine.gemm_into(s, &w, &mut out); // second pass: per-slot hits
        }
        (engine, spikes)
    }

    fn entry_eq(a: &SnapshotEntry, b: &SnapshotEntry) -> bool {
        a.hash == b.hash && a.limbs == b.limbs && a.hits == b.hits && a.meta == b.meta
    }

    /// One seeded 256×16 plan, keyed the way the plan cache keys it.
    fn seeded_plan_snapshot() -> PlanSnapshot {
        let mut rng = StdRng::seed_from_u64(0x16);
        tile_snapshot(&SpikeMatrix::random(256, 16, 0.3, &mut rng))
    }

    /// The plan of `tile`, keyed the way the plan cache keys it.
    fn tile_snapshot(tile: &SpikeMatrix) -> PlanSnapshot {
        let mut limbs = Vec::new();
        tile.tile_key_into(0, 0, tile.rows(), tile.cols(), &mut limbs);
        let entry = SnapshotEntry {
            hash: hash_limbs(&limbs),
            limbs: limbs.into(),
            meta: Arc::new(TileMeta::build(tile)),
            hits: 7,
        };
        PlanSnapshot {
            entries: vec![entry],
        }
    }

    /// `hash_limbs` over the bytes read as zero-padded little-endian words.
    fn digest(bytes: &[u8]) -> u64 {
        let words: Vec<u64> = bytes
            .chunks(8)
            .map(|c| {
                let mut w = [0u8; 8];
                w[..c.len()].copy_from_slice(c);
                u64::from_le_bytes(w)
            })
            .collect();
        hash_limbs(&words)
    }

    /// `clean` after `mutate` with the checksum re-forged, the way a
    /// writer that lies about a field would write it.
    fn forged(clean: &[u8], mutate: impl Fn(&mut Vec<u8>)) -> Vec<u8> {
        let mut bytes = clean.to_vec();
        mutate(&mut bytes);
        let sum = fnv1a(&bytes[HEADER_BYTES..]);
        bytes[12..HEADER_BYTES].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    /// Decodes [`forged`] bytes.
    fn reforged(
        clean: &[u8],
        mutate: impl Fn(&mut Vec<u8>),
    ) -> Result<PlanSnapshot, SnapshotError> {
        PlanSnapshot::decode(Bytes::from(forged(clean, mutate)))
    }

    #[test]
    fn seeded_plan_encodes_to_the_pinned_bytes() {
        // The digest pins the on-disk format: a change to the in-memory
        // plan layout must still write exactly these bytes.
        const DIGEST: u64 = 0x4e60_e39d_697e_9f40;
        let snap = seeded_plan_snapshot();
        let meta = &snap.entries[0].meta;
        let stats = meta.stats(meta.prefix.len(), meta.width, 0);
        assert!(stats.em_rows > 0 && stats.pm_rows > 0 && stats.root_rows > 0);
        let bytes = snap.encode();
        assert_eq!(digest(&bytes), DIGEST);
        let decoded = PlanSnapshot::decode(bytes).expect("roundtrip");
        assert!(entry_eq(&snap.entries[0], &decoded.entries[0]));
    }

    #[test]
    fn placed_plan_bytes_still_load() {
        // Files written while plans carried their placement hold the
        // seeded plan, built at row 512, column 32, as bytes of this
        // digest. Writing those two values into the placement fields of
        // today's encoding must give exactly those bytes, and they must
        // still decode to the same plan.
        const PLACED_DIGEST: u64 = 0x9f68_b540_c8be_250c;
        let snap = seeded_plan_snapshot();
        let clean = snap.encode().to_vec();
        // Header, then hash | hits | key limb count | key limbs.
        let row_start_at = HEADER_BYTES + 20 + snap.entries[0].limbs.len() * 8;
        let placed = forged(&clean, |b| {
            b[row_start_at..row_start_at + 8].copy_from_slice(&512u64.to_le_bytes());
            b[row_start_at + 8..row_start_at + 16].copy_from_slice(&32u64.to_le_bytes());
        });
        assert_eq!(digest(&placed), PLACED_DIGEST);
        let decoded = PlanSnapshot::decode(Bytes::from(placed)).expect("placed bytes decode");
        assert!(entry_eq(&snap.entries[0], &decoded.entries[0]));
    }

    #[test]
    fn stored_kind_must_match_the_derived_kind() {
        let snap = seeded_plan_snapshot();
        let meta = &snap.entries[0].meta;
        let clean = snap.encode().to_vec();
        // Header, then hash | hits | key limb count | key limbs | 36 bytes
        // of placement and geometry; each row is prefix u32 | kind u8 |
        // one pattern limb.
        let rows_at = HEADER_BYTES + 20 + meta.prefix.len() * 8 + 36;
        for kind in [MatchKind::Partial, MatchKind::Exact] {
            let i = (0..meta.prefix.len())
                .find(|&i| meta.kind(i) == kind)
                .expect("the seeded plan has rows of both kinds");
            let at = rows_at + i * 13 + 4;
            assert_eq!(clean[at], kind as u8);
            assert!(matches!(
                reforged(&clean, |b| b[at] ^= 3), // 1 ↔ 2
                Err(SnapshotError::Corrupt("row kind"))
            ));
        }
        assert!(reforged(&clean, |_| {}).is_ok());
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        for seed in 0..8u64 {
            let (engine, _) = warm_session(0x500 + seed, 256);
            let snap = engine.export_snapshot(256);
            assert!(!snap.is_empty(), "seed {seed}");
            let decoded = PlanSnapshot::decode(snap.encode()).expect("roundtrip");
            assert_eq!(decoded.len(), snap.len(), "seed {seed}");
            for (i, (a, b)) in snap.entries.iter().zip(&decoded.entries).enumerate() {
                assert!(entry_eq(a, b), "seed {seed} entry {i} differs");
            }
        }
    }

    #[test]
    fn encode_into_matches_encode_and_reuses_buffer() {
        let (engine, _) = warm_session(0x5EED, 256);
        let snap = engine.export_snapshot(256);
        let reference = snap.encode();
        let mut buf = BytesMut::new();
        snap.encode_into(&mut buf);
        assert_eq!(&buf[..], &reference[..], "backpatched encode must agree");
        // A second pass into the same (now warm) buffer is identical too.
        snap.encode_into(&mut buf);
        assert_eq!(&buf[..], &reference[..]);
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let snap = PlanSnapshot::default();
        let bytes = snap.encode();
        assert_eq!(PlanSnapshot::decode(bytes).expect("empty ok").len(), 0);
    }

    #[test]
    fn every_truncation_point_errors_cleanly() {
        let (engine, _) = warm_session(0x77, 64);
        let bytes = engine.export_snapshot(4).encode();
        for cut in 0..bytes.len() {
            assert!(
                PlanSnapshot::decode(bytes.slice(0..cut)).is_err(),
                "cut at {cut}/{} must fail",
                bytes.len()
            );
        }
        assert!(PlanSnapshot::decode(bytes).is_ok());
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let (engine, _) = warm_session(0x99, 64);
        let clean = engine.export_snapshot(3).encode().to_vec();
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x40;
            assert!(
                PlanSnapshot::decode(Bytes::from(bad)).is_err(),
                "flip at byte {i} slipped through"
            );
        }
    }

    #[test]
    fn version_skew_rejected() {
        let (engine, _) = warm_session(0xAB, 64);
        let mut bytes = engine.export_snapshot(2).encode().to_vec();
        bytes[4] = 99;
        assert!(matches!(
            PlanSnapshot::decode(Bytes::from(bytes)),
            Err(SnapshotError::BadVersion(99))
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = PlanSnapshot::default().encode().to_vec();
        bytes[0] = b'X';
        assert!(matches!(
            PlanSnapshot::decode(Bytes::from(bytes)),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn forged_checksum_cannot_smuggle_inconsistent_geometry() {
        // A writer can recompute the (non-cryptographic) checksum, so the
        // decoder must reject cross-field lies on its own — at decode
        // time, not as an executor panic at serve time.
        let (engine, _) = warm_session(0xBEEF, 64);
        let clean = engine.export_snapshot(1).encode().to_vec();
        // Entry layout after the 20-byte header: hash u64 | hits u64 |
        // limb_count u32 | limbs | row_start u64 | col_start u64 |
        // valid_rows u32 | valid_cols u32 | ...
        let limb_count = u32::from_le_bytes(clean[36..40].try_into().unwrap()) as usize;
        let valid_rows_at = 40 + limb_count * 8 + 16;
        assert!(matches!(
            reforged(&clean, |b| b[valid_rows_at..valid_rows_at + 4]
                .copy_from_slice(&u32::MAX.to_le_bytes())),
            Err(SnapshotError::Corrupt("valid rows"))
        ));
        assert!(matches!(
            reforged(&clean, |b| b[valid_rows_at + 4..valid_rows_at + 8]
                .copy_from_slice(&u32::MAX.to_le_bytes())),
            Err(SnapshotError::Corrupt("valid cols"))
        ));
        // Huge declared counts must error, never attempt the allocation.
        let row_count_at = valid_rows_at + 12;
        assert!(matches!(
            reforged(&clean, |b| {
                b[row_count_at..row_count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                b[row_count_at + 4..row_count_at + 8].copy_from_slice(&u32::MAX.to_le_bytes());
            }),
            Err(SnapshotError::Corrupt("key geometry"))
        ));
        // Untouched, the same reforge pipeline decodes fine.
        assert!(reforged(&clean, |_| {}).is_ok());
        // A rowless entry may declare any width: nothing is sized by it,
        // so it decodes without a width-sized allocation. Layout of this
        // one-entry file: 20-byte header, hash | hits | limb count 0 |
        // row_start | col_start | valid_rows | valid_cols | sorter_stages |
        // row_count 0 | pattern_bits.
        let empty = PlanSnapshot {
            entries: vec![SnapshotEntry {
                hash: hash_limbs(&[]),
                limbs: Box::default(),
                meta: Arc::new(TileMeta::default()),
                hits: 1,
            }],
        };
        let clean = empty.encode().to_vec();
        assert_eq!(clean.len(), 76);
        let wide = reforged(&clean, |b| {
            b[72..76].copy_from_slice(&u32::MAX.to_le_bytes())
        })
        .expect("a rowless entry of any width is well formed");
        assert_eq!(wide.entries[0].meta.width, u32::MAX as usize);
        assert!(wide.entries[0].meta.exec_order.is_empty());
    }

    #[test]
    fn forged_non_topological_order_is_rejected() {
        // A permutation is not enough: the executor computes each row on
        // top of its prefix, so a prefix ordered after its dependent row
        // (or a self-prefix) must fail at decode, not corrupt outputs at
        // serve time. Build a tile guaranteed to contain a prefix pair.
        let tile = SpikeMatrix::from_rows_of_bits(&[&[1, 0, 0, 1], &[1, 1, 0, 1]]);
        let config = EngineConfig::new(TileShape::new(2, 4), 16);
        let mut engine = Session::<i64>::new(config);
        let w = WeightMatrix::from_fn(4, 2, |r, c| (r + c) as i64);
        let mut out = OutputMatrix::zeros(0, 0);
        engine.gemm_into(&tile, &w, &mut out);
        let snap = engine.export_snapshot(16);
        assert_eq!(snap.len(), 1);
        let meta = &snap.entries[0].meta;
        assert_eq!(meta.prefix[1], 0, "row 1 must depend on row 0");
        assert_eq!(meta.dispatch_order(), vec![0, 1]);
        let clean = snap.encode().to_vec();
        // The two order u32s are the last 8 bytes; swap them (prefix now
        // scheduled after its dependent) and re-forge the checksum.
        let order_at = clean.len() - 8;
        assert!(matches!(
            reforged(&clean, |b| {
                b[order_at..order_at + 4].copy_from_slice(&1u32.to_le_bytes());
                b[order_at + 4..order_at + 8].copy_from_slice(&0u32.to_le_bytes());
            }),
            Err(SnapshotError::Corrupt("execution order"))
        ));
        assert!(reforged(&clean, |_| {}).is_ok());
    }

    #[test]
    fn forged_order_that_is_not_the_dispatch_order_is_rejected() {
        // Two unrelated rows of one popcount: both orders are topological,
        // but only [0, 1] is the Dispatcher's stable sort, the one order
        // the file may store.
        let tile = SpikeMatrix::from_rows_of_bits(&[&[1, 0, 0, 1], &[0, 1, 1, 0]]);
        let snap = tile_snapshot(&tile);
        let meta = &snap.entries[0].meta;
        assert_eq!(meta.prefix, vec![NO_PREFIX; 2]);
        assert_eq!(meta.dispatch_order(), vec![0, 1]);
        let clean = snap.encode().to_vec();
        let order_at = clean.len() - 8;
        assert!(matches!(
            reforged(&clean, |b| {
                b[order_at..order_at + 4].copy_from_slice(&1u32.to_le_bytes());
                b[order_at + 4..order_at + 8].copy_from_slice(&0u32.to_le_bytes());
            }),
            Err(SnapshotError::Corrupt("execution order"))
        ));
        assert!(reforged(&clean, |_| {}).is_ok());
    }

    #[test]
    fn forged_zero_row_prefix_is_rejected() {
        // The executor skips all-zero rows, so a file may not make one the
        // prefix of another row, even with a consistent kind and order.
        let tile = SpikeMatrix::from_rows_of_bits(&[&[0, 0, 0, 0], &[1, 0, 0, 1]]);
        let snap = tile_snapshot(&tile);
        let meta = &snap.entries[0].meta;
        assert_eq!(meta.prefix, vec![NO_PREFIX; 2]);
        assert_eq!(meta.dispatch_order(), vec![0, 1]);
        let clean = snap.encode().to_vec();
        // The last row (prefix u32 | kind u8 | one pattern limb) sits just
        // before the two order u32s.
        let row1_at = clean.len() - 8 - 13;
        assert!(matches!(
            reforged(&clean, |b| {
                b[row1_at..row1_at + 4].copy_from_slice(&0u32.to_le_bytes());
                b[row1_at + 4] = MatchKind::Partial as u8;
            }),
            Err(SnapshotError::Corrupt("row prefix"))
        ));
        assert!(reforged(&clean, |_| {}).is_ok());
    }

    #[test]
    fn import_drops_entries_of_a_different_tile_shape() {
        // A snapshot from a process configured with another tile geometry
        // must not be served here: its plans could never be looked up, and
        // a (freak) key collision with a live tile would misindex the
        // executor. The session import path drops them, reported as such.
        let (engine, _) = warm_session(0x51A9, 256);
        let snap = engine.export_snapshot(256);
        let other = EngineConfig::new(TileShape::new(16, 4), 256);
        let (warm, report) = Session::<i64>::warm_start(other, &snap);
        assert_eq!(report.requested, snap.len());
        assert_eq!(report.skipped_shape, snap.len());
        assert_eq!(report.restored, 0);
        assert_eq!(warm.cached_plans(), 0);
        // Matching shape restores everything, skipping nothing.
        let (_, report) = Session::<i64>::warm_start(*engine.config(), &snap);
        assert_eq!(report.skipped_shape, 0);
        assert_eq!(report.restored, snap.len());
    }

    #[test]
    fn caching_off_import_classifies_shape_before_capacity() {
        // With caching off nothing is restored, but wrong-shape entries are
        // still reported as such: only the entries this session could serve
        // count as capacity skips.
        let (engine, _) = warm_session(0x0FF, 256);
        let mut snap = engine.export_snapshot(256);
        let fit = snap.len();
        snap.entries.extend(seeded_plan_snapshot().entries); // a 256×16 plan
        let off = EngineConfig::new(TileShape::new(8, 8), 0);
        let (warm, report) = Session::<i64>::warm_start(off, &snap);
        assert_eq!(report.requested, fit + 1);
        assert_eq!(report.skipped_shape, 1);
        assert_eq!(report.skipped_capacity, fit);
        assert_eq!(
            report.requested,
            report.restored
                + report.skipped_capacity
                + report.skipped_duplicate
                + report.skipped_shape
        );
        assert_eq!(warm.cached_plans(), 0);
    }

    #[test]
    fn oversized_snapshot_degrades_to_partial_restore() {
        let (engine, spikes) = warm_session(0xCA, 256);
        let snap = engine.export_snapshot(256);
        let total = snap.len();
        assert!(total > 4, "need eviction pressure for this test");
        // Restore into a cache with room for only 4 plans: the 4 hottest
        // land, the rest are reported skipped, nothing panics.
        let small = EngineConfig::new(TileShape::new(8, 8), 4);
        let (mut warm, report) = Session::<i64>::warm_start(small, &snap);
        assert_eq!(report.requested, total);
        assert_eq!(report.restored, 4);
        assert_eq!(report.skipped_capacity, total - 4);
        assert_eq!(report.skipped_duplicate, 0);
        assert_eq!(warm.cached_plans(), 4);
        // The partially-restored session still serves correctly.
        let w = WeightMatrix::from_fn(24, 3, |r, c| (r * 5 + c) as i64 - 11);
        let mut out = OutputMatrix::zeros(0, 0);
        warm.gemm_into(&spikes[0], &w, &mut out);
        assert_eq!(out, spikemat::gemm::spiking_gemm(&spikes[0], &w));
    }

    #[test]
    fn import_into_warm_cache_skips_duplicates() {
        let (engine, _) = warm_session(0xD0, 256);
        let snap = engine.export_snapshot(256);
        let config = *engine.config();
        let (mut warm, first) = Session::<i64>::warm_start(config, &snap);
        assert_eq!(first.restored, snap.len());
        let again = warm.import_snapshot(&snap);
        assert_eq!(again.restored, 0);
        assert_eq!(again.skipped_duplicate, snap.len());
        assert_eq!(warm.cached_plans(), snap.len());
    }

    fn read_file(path: &std::path::Path) -> Bytes {
        Bytes::from(std::fs::read(path).expect("read snapshot file"))
    }

    #[test]
    fn every_file_truncation_point_errors_cleanly() {
        // The on-disk mirror of the in-memory truncation property: a
        // partially written file — every possible torn length — must load
        // as a clean error, never a panic or a silently short snapshot.
        let (engine, _) = warm_session(0xF2, 64);
        let bytes = engine.export_snapshot(4).encode();
        let path = std::env::temp_dir().join("prosperity_snapshot_file_trunc_test.psnp");
        for cut in 0..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).expect("write truncated file");
            assert!(
                PlanSnapshot::decode(read_file(&path)).is_err(),
                "file cut at {cut}/{} must fail to load",
                bytes.len()
            );
        }
        std::fs::write(&path, &bytes[..]).expect("write full file");
        assert!(PlanSnapshot::decode(read_file(&path)).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_is_atomic_and_a_failed_save_leaves_no_debris() {
        use crate::engine::faults;
        let (engine, _) = warm_session(0xF3, 64);
        let snap = engine.export_snapshot(8);
        let path = std::env::temp_dir().join("prosperity_snapshot_atomic_test.psnp");
        let tmp = super::tmp_path(&path);
        std::fs::remove_file(&path).ok();

        // Fail each of the four IO ops in turn: the save errors, the
        // destination never appears, and no temp file is left behind.
        for op in 0..4 {
            let guard = faults::install(faults::FaultPlan::fail_io(op));
            let err = super::atomic_write(&path, &snap.encode());
            assert!(guard.fired().fail_io, "op {op} targeted");
            assert!(err.is_err(), "op {op}");
            assert!(!path.exists(), "op {op}: destination must not appear");
            assert!(!tmp.exists(), "op {op}: temp file must be cleaned up");
        }

        // A clean save lands, leaves no temp file, and loads back.
        super::atomic_write(&path, &snap.encode()).expect("save");
        assert!(!tmp.exists(), "temp renamed away");
        let loaded = PlanSnapshot::decode(read_file(&path)).expect("load");
        assert_eq!(loaded.len(), snap.len());

        // Overwrite with a failing save: the previous complete file
        // survives untouched — the atomic-replace guarantee.
        let before = std::fs::read(&path).expect("read");
        let _guard = faults::install(faults::FaultPlan::fail_io(2));
        assert!(super::atomic_write(&path, &snap.encode()).is_err());
        assert_eq!(std::fs::read(&path).expect("read"), before);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn report_merge_sums_every_field() {
        let mut a = ImportReport {
            requested: 5,
            restored: 3,
            skipped_capacity: 1,
            skipped_duplicate: 1,
            skipped_shape: 0,
        };
        a.merge(&ImportReport {
            requested: 2,
            restored: 2,
            ..ImportReport::default()
        });
        assert_eq!(
            a,
            ImportReport {
                requested: 7,
                restored: 5,
                skipped_capacity: 1,
                skipped_duplicate: 1,
                skipped_shape: 0,
            }
        );
    }
}
