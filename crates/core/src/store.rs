//! The pluggable state-store layer: packed row storage with disk spill.
//!
//! The engine's persistent per-vertex share state — the state shares and
//! the double-buffered inboxes — lives behind the [`StateStore`] trait.
//! Two backends implement it:
//!
//! * [`MemStore`] — the flat bit-packed in-memory layout (one bit per
//!   share bit, `⌈width/64⌉` words per row) that every prior PR used.
//! * [`SpillStore`] — the same packed rows, paged to disk in fixed-size
//!   segments of [`SEGMENT_ROWS`] rows.  A bounded set of segments stays
//!   resident (LRU, dirty-tracked); an evicted dirty segment is written
//!   over its own fixed slot in the spill file — one fixed slot per
//!   segment, so the file never outgrows the store's packed bytes.
//!   Hand-rolled files, like the [`Wire`] codec — no registry crates.
//!
//! Both backends expose the same segment view (`segment_words` /
//! `load_segment`), so round-boundary checkpoints are backend-invariant:
//! a run checkpointed under one backend resumes under the other.
//!
//! Spill files live in a run-scoped directory owned by a [`RunDirGuard`]
//! whose `Drop` removes the whole directory — including on error paths,
//! so a failed round never orphans spill segments.
//!
//! [`Wire`]: dstress_net::wire::Wire

use core::fmt;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::wire::{
    checkpoint_version, CheckpointManifest, SegmentDigest, SegmentRecord, CHECKPOINT_VERSION,
};
use dstress_net::wire::Wire;

/// Rows per spill/checkpoint segment — fixed across backends so the
/// checkpoint segment layout never depends on where the rows lived.
///
/// 64 rows keeps segments small enough that modest test graphs span
/// several of them (so the paging machinery is exercised end to end)
/// while staying large enough that a big run's slot writes are batched
/// I/O, not per-row writes.
pub const SEGMENT_ROWS: usize = 64;

/// Errors produced by the state-store layer.
#[derive(Debug)]
pub enum StoreError {
    /// A filesystem operation on a spill or checkpoint file failed.
    Io {
        /// What was being done, with the underlying error.
        context: String,
    },
    /// A spill or checkpoint file held data that fails validation
    /// (digest mismatch, wrong segment geometry, truncated record).
    Corrupt {
        /// What failed validation.
        context: String,
    },
    /// A checkpoint file was written in another layout version than the
    /// one this build reads; nothing after the version is decoded.
    Version {
        /// The file's layout version.
        found: u32,
        /// The version this build writes and reads.
        expected: u32,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { context } => write!(f, "store i/o error: {context}"),
            StoreError::Corrupt { context } => write!(f, "store corruption: {context}"),
            StoreError::Version { found, expected } => write!(
                f,
                "checkpoint layout version {found}, this build reads version {expected}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// Wraps an [`std::io::Error`] with its operation context.
fn io_err(context: impl fmt::Display, e: std::io::Error) -> StoreError {
    StoreError::Io {
        context: format!("{context}: {e}"),
    }
}

/// 64-bit FNV-1a over a byte stream — the digest pinning spill segments
/// and checkpoint records.  Not cryptographic; it guards against torn
/// writes and file mix-ups, not adversaries (who are modelled at the
/// protocol layer, not the local filesystem).
pub fn digest64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// [`digest64`] over the little-endian bytes of a word slice (the digest
/// of one packed segment).
pub fn digest64_words(words: &[u64]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &w in words {
        for b in w.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// A fixed-width bit-packed row store.
///
/// One row is one member's share vector (a state row or one inbox slot).
/// All methods are fallible: the in-memory backend never errors, the
/// spilling backend surfaces file I/O failures.  Reads take `&self` —
/// the spilling backend pages segments in behind a [`RefCell`], which is
/// sound because the engine drives every store from its scheduling
/// thread only (tasks carry copies of their inputs).
pub trait StateStore: fmt::Debug {
    /// Number of rows.
    fn rows(&self) -> usize;

    /// Row width in bits.
    fn width(&self) -> usize;

    /// Unpacks one row onto the end of `out`.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] if the backing file fails.
    fn read_into(&self, row: usize, out: &mut Vec<bool>) -> Result<(), StoreError>;

    /// Overwrites one row.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] if the backing file fails.
    fn write(&mut self, row: usize, bits: &[bool]) -> Result<(), StoreError>;

    /// The packed words of checkpoint segment `seg` (rows
    /// `seg · SEGMENT_ROWS ..` up to the next boundary or the end).
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] if the backing file fails.
    fn segment_words(&self, seg: usize) -> Result<Vec<u64>, StoreError>;

    /// Replaces checkpoint segment `seg` with `words` (the resume path).
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] on geometry mismatch or file failure.
    fn load_segment(&mut self, seg: usize, words: &[u64]) -> Result<(), StoreError>;

    /// Bytes currently held in memory by this store (packed words of
    /// resident segments; the whole store for the in-memory backend).
    fn resident_bytes(&self) -> usize;

    /// High-water mark of the backing spill file in bytes (0 for the
    /// in-memory backend).
    fn spill_file_bytes(&self) -> u64;
}

/// Unpacks one row.
fn read_row_into(
    words: &[u64],
    words_per_row: usize,
    row_in_slice: usize,
    width: usize,
    out: &mut Vec<bool>,
) {
    let base = row_in_slice * words_per_row;
    out.extend((0..width).map(|bit| (words[base + bit / 64] >> (bit % 64)) & 1 == 1));
}

/// Packs `bits` over one row.
fn write_row(
    words: &mut [u64],
    words_per_row: usize,
    row_in_slice: usize,
    width: usize,
    bits: &[bool],
) {
    debug_assert_eq!(bits.len(), width, "row width");
    let base = row_in_slice * words_per_row;
    words[base..base + words_per_row].fill(0);
    for (bit, &b) in bits.iter().enumerate() {
        if b {
            words[base + bit / 64] |= 1 << (bit % 64);
        }
    }
}

/// Number of checkpoint segments a store of `rows` rows has.
pub fn segment_count(rows: usize) -> usize {
    rows.div_ceil(SEGMENT_ROWS).max(1)
}

/// Rows in segment `seg` of a store with `rows` rows.
fn rows_in_segment(rows: usize, seg: usize) -> usize {
    let start = seg * SEGMENT_ROWS;
    rows.saturating_sub(start).min(SEGMENT_ROWS)
}

/// Packed size in bytes of a store of `rows` rows of `width` bits — the
/// figure the spill budget is compared against.
pub fn packed_bytes(rows: usize, width: usize) -> usize {
    rows * width.div_ceil(64) * 8
}

// ---------------------------------------------------------------------------
// In-memory backend
// ---------------------------------------------------------------------------

/// The flat in-memory packed layout (formerly `PackedRows` inside the
/// engine): one contiguous word vector, `⌈width/64⌉` words per row.
#[derive(Clone, Debug)]
pub struct MemStore {
    rows: usize,
    width: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

impl MemStore {
    /// Creates a zeroed store of `rows` rows of `width` bits each.
    pub fn new(rows: usize, width: usize) -> Self {
        let words_per_row = width.div_ceil(64);
        MemStore {
            rows,
            width,
            words_per_row,
            words: vec![0; rows * words_per_row],
        }
    }
}

impl StateStore for MemStore {
    fn rows(&self) -> usize {
        self.rows
    }

    fn width(&self) -> usize {
        self.width
    }

    fn read_into(&self, row: usize, out: &mut Vec<bool>) -> Result<(), StoreError> {
        read_row_into(&self.words, self.words_per_row, row, self.width, out);
        Ok(())
    }

    fn write(&mut self, row: usize, bits: &[bool]) -> Result<(), StoreError> {
        write_row(&mut self.words, self.words_per_row, row, self.width, bits);
        Ok(())
    }

    fn segment_words(&self, seg: usize) -> Result<Vec<u64>, StoreError> {
        let start = seg * SEGMENT_ROWS * self.words_per_row;
        let len = rows_in_segment(self.rows, seg) * self.words_per_row;
        Ok(self.words[start..start + len].to_vec())
    }

    fn load_segment(&mut self, seg: usize, words: &[u64]) -> Result<(), StoreError> {
        let start = seg * SEGMENT_ROWS * self.words_per_row;
        let len = rows_in_segment(self.rows, seg) * self.words_per_row;
        if words.len() != len {
            return Err(StoreError::Corrupt {
                context: format!(
                    "segment {seg} holds {} words, store geometry needs {len}",
                    words.len()
                ),
            });
        }
        self.words[start..start + len].copy_from_slice(words);
        Ok(())
    }

    fn resident_bytes(&self) -> usize {
        self.words.len() * 8
    }

    fn spill_file_bytes(&self) -> u64 {
        0
    }
}

// ---------------------------------------------------------------------------
// Spilling backend
// ---------------------------------------------------------------------------

/// One resident segment of a [`SpillStore`].
#[derive(Debug)]
struct Segment {
    words: Vec<u64>,
    dirty: bool,
    /// Tick of the most recent access — the eviction policy evicts the
    /// smallest (least recently used).
    last_used: u64,
}

/// The mutable state of a [`SpillStore`], behind a `RefCell` so reads
/// can page segments in through `&self`.
#[derive(Debug)]
struct SpillInner {
    rows: usize,
    width: usize,
    words_per_row: usize,
    /// Resident segments cap (≥ 1), derived from the byte budget.
    max_resident: usize,
    resident: BTreeMap<usize, Segment>,
    /// Monotonic access counter feeding `Segment::last_used`.
    tick: u64,
    /// Whether each segment's slot in the file has ever been written.
    spilled: Vec<bool>,
    file: File,
    /// High-water mark of the written slot extents.
    max_file_len: u64,
}

/// The spilling backend: packed rows paged between a bounded resident
/// set and a file holding one fixed slot per segment.
#[derive(Debug)]
pub struct SpillStore {
    inner: RefCell<SpillInner>,
}

impl SpillStore {
    /// Creates a zeroed spilling store whose resident set is bounded by
    /// `budget_bytes` (at least one segment stays resident), backed by a
    /// fresh spill file at `path`.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] if the spill file cannot be created.
    pub fn create(
        rows: usize,
        width: usize,
        budget_bytes: usize,
        path: PathBuf,
    ) -> Result<Self, StoreError> {
        let words_per_row = width.div_ceil(64);
        let segment_bytes = (SEGMENT_ROWS * words_per_row * 8).max(1);
        let max_resident = (budget_bytes / segment_bytes).max(1);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| io_err(format!("create spill file {}", path.display()), e))?;
        Ok(SpillStore {
            inner: RefCell::new(SpillInner {
                rows,
                width,
                words_per_row,
                max_resident,
                resident: BTreeMap::new(),
                tick: 0,
                spilled: vec![false; segment_count(rows)],
                file,
                max_file_len: 0,
            }),
        })
    }
}

impl SpillInner {
    /// Byte offset of segment `seg`'s slot: every slot but the last
    /// holds a full segment, so slots tile the file without gaps.
    fn slot_offset(&self, seg: usize) -> u64 {
        (seg * SEGMENT_ROWS * self.words_per_row * 8) as u64
    }

    /// Writes a segment's packed words over its own slot.
    fn write_segment(&mut self, seg: usize, words: &[u64]) -> Result<(), StoreError> {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let offset = self.slot_offset(seg);
        self.file
            .seek(SeekFrom::Start(offset))
            .and_then(|_| self.file.write_all(&bytes))
            .map_err(|e| io_err(format!("write spill segment {seg}"), e))?;
        self.spilled[seg] = true;
        self.max_file_len = self.max_file_len.max(offset + bytes.len() as u64);
        Ok(())
    }

    /// Makes `seg` resident (reading its slot back, or materialising
    /// zeros for never-spilled segments), evicting LRU segments past the
    /// budget, and returns a mutable handle to it.
    fn fetch(&mut self, seg: usize) -> Result<&mut Segment, StoreError> {
        if !self.resident.contains_key(&seg) {
            while self.resident.len() >= self.max_resident {
                let victim = self
                    .resident
                    .iter()
                    .min_by_key(|(_, segment)| segment.last_used)
                    .map(|(&index, _)| index)
                    .expect("resident set is non-empty past the cap");
                let evicted = self.resident.remove(&victim).expect("victim is resident");
                if evicted.dirty {
                    self.write_segment(victim, &evicted.words)?;
                }
            }
            let len = rows_in_segment(self.rows, seg) * self.words_per_row;
            let words = if self.spilled[seg] {
                let mut bytes = vec![0u8; len * 8];
                let offset = self.slot_offset(seg);
                self.file
                    .seek(SeekFrom::Start(offset))
                    .and_then(|_| self.file.read_exact(&mut bytes))
                    .map_err(|e| io_err(format!("page in spill segment {seg}"), e))?;
                bytes
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                    .collect()
            } else {
                vec![0u64; len]
            };
            self.resident.insert(
                seg,
                Segment {
                    words,
                    dirty: false,
                    last_used: 0,
                },
            );
        }
        self.tick += 1;
        let tick = self.tick;
        let segment = self
            .resident
            .get_mut(&seg)
            .expect("resident or just inserted");
        segment.last_used = tick;
        Ok(segment)
    }
}

impl StateStore for SpillStore {
    fn rows(&self) -> usize {
        self.inner.borrow().rows
    }

    fn width(&self) -> usize {
        self.inner.borrow().width
    }

    fn read_into(&self, row: usize, out: &mut Vec<bool>) -> Result<(), StoreError> {
        let mut inner = self.inner.borrow_mut();
        let (width, words_per_row) = (inner.width, inner.words_per_row);
        let segment = inner.fetch(row / SEGMENT_ROWS)?;
        read_row_into(
            &segment.words,
            words_per_row,
            row % SEGMENT_ROWS,
            width,
            out,
        );
        Ok(())
    }

    fn write(&mut self, row: usize, bits: &[bool]) -> Result<(), StoreError> {
        let mut inner = self.inner.borrow_mut();
        let (width, words_per_row) = (inner.width, inner.words_per_row);
        let segment = inner.fetch(row / SEGMENT_ROWS)?;
        write_row(
            &mut segment.words,
            words_per_row,
            row % SEGMENT_ROWS,
            width,
            bits,
        );
        segment.dirty = true;
        Ok(())
    }

    fn segment_words(&self, seg: usize) -> Result<Vec<u64>, StoreError> {
        let mut inner = self.inner.borrow_mut();
        Ok(inner.fetch(seg)?.words.clone())
    }

    fn load_segment(&mut self, seg: usize, words: &[u64]) -> Result<(), StoreError> {
        let mut inner = self.inner.borrow_mut();
        let len = rows_in_segment(inner.rows, seg) * inner.words_per_row;
        if words.len() != len {
            return Err(StoreError::Corrupt {
                context: format!(
                    "segment {seg} holds {} words, store geometry needs {len}",
                    words.len()
                ),
            });
        }
        let segment = inner.fetch(seg)?;
        segment.words.copy_from_slice(words);
        segment.dirty = true;
        Ok(())
    }

    fn resident_bytes(&self) -> usize {
        let inner = self.inner.borrow();
        inner
            .resident
            .values()
            .map(|segment| segment.words.len() * 8)
            .sum()
    }

    fn spill_file_bytes(&self) -> u64 {
        self.inner.borrow().max_file_len
    }
}

// ---------------------------------------------------------------------------
// Run-scoped spill directory
// ---------------------------------------------------------------------------

/// Distinguishes concurrent runs of one process in the same base
/// directory.
static RUN_DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A run-scoped spill directory, removed — with everything in it — when
/// the guard drops.  The engine creates the guard *before* the stores,
/// so the directory outlives every open spill file and is removed on
/// every exit path, error or not.
#[derive(Debug)]
pub struct RunDirGuard {
    path: PathBuf,
}

impl RunDirGuard {
    /// Creates a fresh uniquely-named directory under `base` (the system
    /// temp directory when `None`), tagged with the run seed for
    /// debuggability.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] if the directory cannot be created.
    pub fn create(base: Option<&Path>, tag: u64) -> Result<RunDirGuard, StoreError> {
        let base = base
            .map(Path::to_path_buf)
            .unwrap_or_else(std::env::temp_dir);
        let unique = format!(
            "dstress-run-{tag:016x}-{}-{}",
            std::process::id(),
            RUN_DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        );
        let path = base.join(unique);
        std::fs::create_dir_all(&path)
            .map_err(|e| io_err(format!("create spill directory {}", path.display()), e))?;
        Ok(RunDirGuard { path })
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for RunDirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

// ---------------------------------------------------------------------------
// Checkpoint files
// ---------------------------------------------------------------------------

/// File name of the checkpoint whose manifest says "resume at `round`".
fn checkpoint_file_name(round: u64) -> String {
    format!("checkpoint-{round:08}.ckpt")
}

/// Parses a checkpoint file name back to its round.
fn parse_checkpoint_name(name: &str) -> Option<u64> {
    name.strip_prefix("checkpoint-")?
        .strip_suffix(".ckpt")?
        .parse()
        .ok()
}

/// The round of the newest checkpoint in `dir`, if any.
///
/// # Errors
///
/// Returns a [`StoreError`] if the directory exists but cannot be read.
pub fn latest_checkpoint_round(dir: &Path) -> Result<Option<u64>, StoreError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(format!("read checkpoint dir {}", dir.display()), e)),
    };
    let mut latest = None;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read checkpoint dir entry", e))?;
        if let Some(round) = entry.file_name().to_str().and_then(parse_checkpoint_name) {
            latest = latest.max(Some(round));
        }
    }
    Ok(latest)
}

/// Collects every checkpoint segment of `stores` (tagged with their
/// store ids) as `(manifest digests, records)` in store-major order.
///
/// # Errors
///
/// Returns a [`StoreError`] if a spilled segment cannot be paged in.
pub fn collect_segments(
    stores: &[(u8, &dyn StateStore)],
) -> Result<(Vec<SegmentDigest>, Vec<SegmentRecord>), StoreError> {
    let mut digests = Vec::new();
    let mut records = Vec::new();
    for &(id, store) in stores {
        for seg in 0..segment_count(store.rows()) {
            let words = store.segment_words(seg)?;
            digests.push(SegmentDigest {
                store: id,
                index: seg as u64,
                digest: digest64_words(&words),
            });
            records.push(SegmentRecord {
                store: id,
                index: seg as u64,
                words,
            });
        }
    }
    Ok((digests, records))
}

/// Writes one round-boundary checkpoint — the manifest followed by every
/// segment record, one file — atomically (temp file + rename), then
/// prunes older checkpoints.  Returns the checkpoint's size in bytes.
///
/// # Errors
///
/// Returns a [`StoreError`] on any filesystem failure.
pub fn write_checkpoint(
    dir: &Path,
    manifest: &CheckpointManifest,
    records: &[SegmentRecord],
) -> Result<u64, StoreError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| io_err(format!("create checkpoint dir {}", dir.display()), e))?;
    let mut bytes = manifest.encode();
    for record in records {
        record.encode_into(&mut bytes);
    }
    let final_path = dir.join(checkpoint_file_name(manifest.round));
    let tmp_path = final_path.with_extension("tmp");
    std::fs::write(&tmp_path, &bytes)
        .map_err(|e| io_err(format!("write checkpoint {}", tmp_path.display()), e))?;
    std::fs::rename(&tmp_path, &final_path)
        .map_err(|e| io_err(format!("publish checkpoint {}", final_path.display()), e))?;
    // Older checkpoints are now superseded; remove them so the directory
    // holds exactly one recovery point.
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            if let Some(round) = entry.file_name().to_str().and_then(parse_checkpoint_name) {
                if round < manifest.round {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
    }
    Ok(bytes.len() as u64)
}

/// Loads the newest checkpoint in `dir`: decodes the manifest, decodes
/// exactly the segment records the manifest lists, and validates every
/// record against the manifest's digests (the records' own digests are
/// validated during decoding).
///
/// # Errors
///
/// Returns a [`StoreError`] if no checkpoint exists, the file cannot be
/// read, or validation fails — [`StoreError::Version`] when the file was
/// written in another layout version.
pub fn load_latest_checkpoint(
    dir: &Path,
) -> Result<(CheckpointManifest, Vec<SegmentRecord>), StoreError> {
    let Some(round) = latest_checkpoint_round(dir)? else {
        return Err(StoreError::Corrupt {
            context: format!("no checkpoint found in {}", dir.display()),
        });
    };
    let path = dir.join(checkpoint_file_name(round));
    let bytes = std::fs::read(&path)
        .map_err(|e| io_err(format!("read checkpoint {}", path.display()), e))?;
    if let Some(found) = checkpoint_version(&bytes).filter(|&v| v != CHECKPOINT_VERSION) {
        return Err(StoreError::Version {
            found,
            expected: CHECKPOINT_VERSION,
        });
    }
    let mut buf = bytes.as_slice();
    let corrupt = |context: String| StoreError::Corrupt { context };
    let manifest = CheckpointManifest::decode(&mut buf)
        .map_err(|e| corrupt(format!("checkpoint manifest in {}: {e}", path.display())))?;
    let mut records = Vec::with_capacity(manifest.segments.len());
    for expected in &manifest.segments {
        let record = SegmentRecord::decode(&mut buf)
            .map_err(|e| corrupt(format!("checkpoint segment record: {e}")))?;
        if record.store != expected.store || record.index != expected.index {
            return Err(corrupt(format!(
                "checkpoint segment order mismatch: manifest lists store {} segment {}, \
                 file holds store {} segment {}",
                expected.store, expected.index, record.store, record.index
            )));
        }
        if digest64_words(&record.words) != expected.digest {
            return Err(corrupt(format!(
                "checkpoint segment digest mismatch for store {} segment {}",
                record.store, record.index
            )));
        }
        records.push(record);
    }
    if !buf.is_empty() {
        return Err(corrupt(format!(
            "checkpoint {} has {} trailing bytes",
            path.display(),
            buf.len()
        )));
    }
    Ok((manifest, records))
}

/// Restores a store from a checkpoint's records (those tagged with
/// `store_id`).
///
/// # Errors
///
/// Returns a [`StoreError`] if the records do not tile the store.
pub fn restore_store(
    store: &mut dyn StateStore,
    store_id: u8,
    records: &[SegmentRecord],
) -> Result<(), StoreError> {
    let mut loaded = 0usize;
    for record in records.iter().filter(|r| r.store == store_id) {
        store.load_segment(record.index as usize, &record.words)?;
        loaded += 1;
    }
    let expected = segment_count(store.rows());
    if loaded != expected {
        return Err(StoreError::Corrupt {
            context: format!(
                "checkpoint holds {loaded} segments for store {store_id}, geometry needs {expected}"
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstress_math::rng::{DetRng, Xoshiro256};

    fn random_rows(rows: usize, width: usize, seed: u64) -> Vec<Vec<bool>> {
        let mut rng = Xoshiro256::new(seed);
        (0..rows)
            .map(|_| (0..width).map(|_| rng.next_bool()).collect())
            .collect()
    }

    fn read_row(store: &dyn StateStore, row: usize) -> Vec<bool> {
        let mut out = Vec::new();
        store.read_into(row, &mut out).unwrap();
        out
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        assert_eq!(digest64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(digest64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(digest64_words(&[0x61]), digest64(&0x61u64.to_le_bytes()));
        assert_ne!(digest64_words(&[1, 2]), digest64_words(&[2, 1]));
    }

    #[test]
    fn mem_store_round_trips_rows() {
        let rows = random_rows(40, 70, 1);
        let mut store = MemStore::new(40, 70);
        for (i, bits) in rows.iter().enumerate() {
            store.write(i, bits).unwrap();
        }
        for (i, bits) in rows.iter().enumerate() {
            assert_eq!(&read_row(&store, i), bits);
        }
    }

    #[test]
    fn spill_store_matches_mem_store_under_a_tiny_budget() {
        // More than 4 segments with room for only one resident: every
        // access pattern pages through the spill file.
        let guard = RunDirGuard::create(None, 0xA).unwrap();
        let rows = 4 * SEGMENT_ROWS + 100;
        let width = 12;
        let mut mem = MemStore::new(rows, width);
        let mut spill =
            SpillStore::create(rows, width, 1, guard.path().join("store.spill")).unwrap();
        let data = random_rows(200, width, 2);
        let mut rng = Xoshiro256::new(3);
        // Scattered writes across all segments, then full verification.
        let positions: Vec<usize> = (0..200)
            .map(|_| rng.next_below(rows as u64) as usize)
            .collect();
        for (bits, &row) in data.iter().zip(&positions) {
            mem.write(row, bits).unwrap();
            spill.write(row, bits).unwrap();
        }
        for row in 0..rows {
            assert_eq!(read_row(&mem, row), read_row(&spill, row), "row {row}");
        }
        assert!(spill.spill_file_bytes() > 0, "a 1-byte budget must spill");
        assert!(spill.resident_bytes() <= SEGMENT_ROWS * 8);
        assert_eq!(mem.spill_file_bytes(), 0);
    }

    #[test]
    fn spill_store_rewrites_segments_in_place() {
        let guard = RunDirGuard::create(None, 0xB).unwrap();
        let (rows, width) = (2 * SEGMENT_ROWS, 64);
        let mut spill =
            SpillStore::create(rows, width, 1, guard.path().join("store.spill")).unwrap();
        let ones = vec![true; width];
        // Alternate between the two segments so each write evicts (and
        // rewrites) the other: 40 evictions land on the same two slots.
        for pass in 0..20 {
            for seg in 0..2 {
                spill.write(seg * SEGMENT_ROWS + pass, &ones).unwrap();
            }
        }
        assert_eq!(spill.spill_file_bytes(), packed_bytes(rows, width) as u64);
        for row in 0..rows {
            let expected = vec![row % SEGMENT_ROWS < 20; width];
            assert_eq!(read_row(&spill, row), expected, "row {row}");
        }
        assert_eq!(spill.spill_file_bytes(), packed_bytes(rows, width) as u64);
    }

    #[test]
    fn a_spill_file_cut_short_is_an_io_error() {
        let guard = RunDirGuard::create(None, 0xF).unwrap();
        let path = guard.path().join("store.spill");
        let (rows, width) = (2 * SEGMENT_ROWS, 64);
        let mut spill = SpillStore::create(rows, width, 1, path.clone()).unwrap();
        let ones = vec![true; width];
        // Both segments reach their slots; segment 0 ends up resident
        // and clean, so paging segment 1 back in writes nothing first.
        spill.write(0, &ones).unwrap();
        spill.write(SEGMENT_ROWS, &ones).unwrap();
        assert_eq!(read_row(&spill, 0), ones);
        let full = packed_bytes(rows, width) as u64;
        assert_eq!(spill.spill_file_bytes(), full);
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(full - 8)
            .unwrap();
        let mut out = Vec::new();
        let err = spill.read_into(SEGMENT_ROWS, &mut out).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "got {err}");
        assert!(out.is_empty(), "no row is produced from a short slot");
    }

    #[test]
    fn segments_move_between_backends() {
        let guard = RunDirGuard::create(None, 0xC).unwrap();
        let rows = SEGMENT_ROWS + 17;
        let width = 9;
        let data = random_rows(rows, width, 4);
        let mut mem = MemStore::new(rows, width);
        for (i, bits) in data.iter().enumerate() {
            mem.write(i, bits).unwrap();
        }
        let mut spill =
            SpillStore::create(rows, width, 1, guard.path().join("store.spill")).unwrap();
        for seg in 0..segment_count(rows) {
            let words = mem.segment_words(seg).unwrap();
            spill.load_segment(seg, &words).unwrap();
        }
        for (i, bits) in data.iter().enumerate() {
            assert_eq!(&read_row(&spill, i), bits);
        }
        // And back: geometry mismatches are rejected, not mangled.
        let mut small = MemStore::new(10, width);
        assert!(matches!(
            small.load_segment(0, &mem.segment_words(0).unwrap()),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn run_dir_guard_removes_directory_with_contents() {
        let guard = RunDirGuard::create(None, 0xD).unwrap();
        let path = guard.path().to_path_buf();
        std::fs::write(path.join("orphan.spill"), b"segments").unwrap();
        assert!(path.exists());
        drop(guard);
        assert!(!path.exists(), "guard must remove the run directory");
    }

    #[test]
    fn checkpoint_files_round_trip_and_validate() {
        let guard = RunDirGuard::create(None, 0xE).unwrap();
        let dir = guard.path().join("ckpt");
        assert_eq!(latest_checkpoint_round(&dir).unwrap(), None);

        let mut state = MemStore::new(300, 8);
        let data = random_rows(300, 8, 5);
        for (i, bits) in data.iter().enumerate() {
            state.write(i, bits).unwrap();
        }
        let (digests, records) = collect_segments(&[(0, &state)]).unwrap();
        let manifest = CheckpointManifest {
            round: 2,
            iterations: 4,
            fingerprint: 0xF00D,
            rng_state: [1, 2, 3, 4],
            initialization: Default::default(),
            computation: Default::default(),
            communication: Default::default(),
            traffic: Vec::new(),
            segments: digests,
        };
        write_checkpoint(&dir, &manifest, &records).unwrap();
        assert_eq!(latest_checkpoint_round(&dir).unwrap(), Some(2));

        let (loaded_manifest, loaded_records) = load_latest_checkpoint(&dir).unwrap();
        assert_eq!(loaded_manifest, manifest);
        assert_eq!(loaded_records, records);

        let mut restored = MemStore::new(300, 8);
        restore_store(&mut restored, 0, &loaded_records).unwrap();
        for (i, bits) in data.iter().enumerate() {
            assert_eq!(&read_row(&restored, i), bits);
        }

        // A newer checkpoint supersedes (and prunes) the old one.
        let mut newer = manifest.clone();
        newer.round = 3;
        write_checkpoint(&dir, &newer, &records).unwrap();
        assert_eq!(latest_checkpoint_round(&dir).unwrap(), Some(3));
        assert!(!dir.join(checkpoint_file_name(2)).exists());

        // Flipping one payload byte is caught by the digest validation.
        let path = dir.join(checkpoint_file_name(3));
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 5;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_latest_checkpoint(&dir),
            Err(StoreError::Corrupt { .. })
        ));
    }
}
