//! The on-disk content-addressed store.
//!
//! ## Layout
//!
//! ```text
//! <root>/
//!   ab/cd/abcd…32-hex….trace      one artifact per file
//!   ab/cd/abcd…32-hex….gram
//! ```
//!
//! The first two shard levels are the leading four hex characters of the
//! fingerprint, keeping any single directory small even for millions of
//! artifacts. The extension encodes the [`ArtifactKind`], so one
//! fingerprint may coexist at several kinds (trace + graph of the same
//! run) without ambiguity.
//!
//! ## Frame
//!
//! Every file is framed:
//!
//! ```text
//! magic  b"ANST"        4 bytes
//! format u8             frame layout version (2)
//! schema u16 LE         store payload schema (STORE_SCHEMA_VERSION)
//! kind   u8             ArtifactKind discriminant
//! payload …             artifact wire encoding
//! checksum u64 LE       the word-wide sum below, over everything above
//! ```
//!
//! [`ArtifactStore::put`] encodes the payload straight after the header
//! into the one buffer it writes, and [`ArtifactStore::get`] decodes it
//! straight out of the buffer it read.
//!
//! The checksum reads the framed bytes as little-endian 64-bit words, in
//! 32-byte blocks over four independent lanes: lane `k` takes words `k`,
//! `k + 4`, `k + 8`, … through `lane = ((lane ^ word) · P).rotate_left(31)`
//! with `P` odd. For a fixed lane that step is a bijection of the word, and
//! for a fixed word a bijection of the lane, so a change confined to one
//! aligned 8-byte word (any flipped byte) always changes its lane's final
//! state. The lanes are then combined by xor under distinct rotations,
//! and the tail words, the zero-padded tail bytes and the length are
//! folded in by the same step: each of those is a bijection of the sum,
//! so such a change always changes the checksum. The rotation keeps two
//! flips of a word's top bit, 32 bytes apart, from cancelling, as they
//! would under a multiply alone.
//!
//! A wrong magic, kind, unknown format or checksum mismatch is
//! **corruption** ([`StoreError::Corrupt`]). A schema mismatch, and a
//! frame of format 1 (whose FNV-1a footer this build does not compute),
//! is a clean **miss**: old artifacts are invalidated, not errors.
//!
//! ## Durability
//!
//! Publication is atomic: write to a temp file in the same directory,
//! then rename it over the artifact's path. Concurrent readers and a
//! killed process therefore see a whole artifact or none. Durability is
//! paid once per batch, not per file: [`ArtifactStore::sync`] flushes
//! everything the handle published since its last call with one
//! filesystem barrier (`syncfs` on the root), and the campaign engine
//! calls it once before a campaign returns. A power loss *before* that
//! barrier can leave a renamed file empty or torn; it reads as a miss or
//! as [`StoreError::Corrupt`], and the campaign that next needs it
//! recomputes and republishes it, since every artifact is a pure function
//! of its key.
//!
//! ## Concurrency
//!
//! All operations take `&self`; the store is `Send + Sync`. Writers
//! racing on the same key both publish identical bytes (content
//! addressing), so last-rename-wins is harmless. A reader that loses a
//! race with [`ArtifactStore::gc`] sees a miss, and its caller
//! recomputes and republishes the same bytes.

use crate::artifact::{Artifact, ArtifactKind};
use crate::fingerprint::Fingerprint;
use crate::wire::{ByteWriter, WireError};
use anacin_obs::{Counter, MetricsRegistry};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::SystemTime;

/// File magic: "ANacin STore".
pub const MAGIC: [u8; 4] = *b"ANST";
/// Frame layout version (header/footer shape, not payload shape).
pub const FORMAT_VERSION: u8 = 2;
/// The format whose footer was FNV-1a 64: its frames read as misses.
const FNV_FORMAT_VERSION: u8 = 1;
/// Payload schema version. Bump when any artifact's wire layout changes;
/// every existing artifact then reads as a miss and is recomputed.
pub const STORE_SCHEMA_VERSION: u16 = 1;
/// Frame overhead: 8-byte header + 8-byte checksum footer.
pub const FRAME_OVERHEAD: usize = 16;

/// The buffer [`ArtifactStore::put`] starts a frame in: a page, so the
/// smallest growth steps of the larger artifacts are skipped.
const PUT_CAPACITY: usize = 4096;

/// The checksum's odd multiplier (the 64-bit golden ratio).
const CHECKSUM_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// Each lane's starting state (hex digits of π).
const CHECKSUM_SEEDS: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

/// One checksum step: a bijection of `lane` for a fixed `word` and of
/// `word` for a fixed `lane`.
#[inline(always)]
fn checksum_step(lane: u64, word: u64) -> u64 {
    ((lane ^ word).wrapping_mul(CHECKSUM_MUL)).rotate_left(31)
}

/// The frame checksum: four independent lanes over 32-byte blocks of
/// little-endian words, combined by xor under distinct rotations, then
/// the tail words (the last one zero-padded) and the length folded in
/// (see the module doc).
fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = CHECKSUM_SEEDS;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = word.try_into().expect("an 8-byte chunk");
            *lane = checksum_step(*lane, u64::from_le_bytes(word));
        }
    }
    let mut sum =
        lanes[0] ^ lanes[1].rotate_left(16) ^ lanes[2].rotate_left(32) ^ lanes[3].rotate_left(48);
    for tail in blocks.remainder().chunks(8) {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        sum = checksum_step(sum, u64::from_le_bytes(word));
    }
    checksum_step(sum, bytes.len() as u64)
}

/// A store failure.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem error.
    Io(io::Error),
    /// The artifact exists but its frame or checksum is damaged.
    Corrupt {
        /// Path of the damaged file.
        path: PathBuf,
        /// Human-readable cause ("checksum mismatch", "bad magic", …).
        reason: String,
    },
    /// The payload framed correctly but did not decode as its type.
    Decode(WireError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::Corrupt { path, reason } => {
                write!(f, "corrupt artifact {}: {reason}", path.display())
            }
            StoreError::Decode(e) => write!(f, "artifact decode error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Decode(e) => Some(e),
            StoreError::Corrupt { .. } => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<WireError> for StoreError {
    fn from(e: WireError) -> Self {
        StoreError::Decode(e)
    }
}

/// Internal activity totals, mirrored into `crates/obs` counters when a
/// registry is attached.
#[derive(Default)]
struct Activity {
    hits: AtomicU64,
    misses: AtomicU64,
    puts: AtomicU64,
    corrupt: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    syncs: AtomicU64,
}

/// obs counter handles, created once at [`ArtifactStore::attach_metrics`].
struct ObsCounters {
    hits: Counter,
    misses: Counter,
    puts: Counter,
    corrupt: Counter,
    bytes_read: Counter,
    bytes_written: Counter,
    syncs: Counter,
}

/// A point-in-time snapshot of store activity counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ActivitySnapshot {
    /// Gets that found the artifact.
    pub hits: u64,
    /// Gets that found nothing (including schema-invalidated artifacts).
    pub misses: u64,
    /// Artifacts published.
    pub puts: u64,
    /// Corrupt frames encountered.
    pub corrupt: u64,
    /// Frame bytes read from disk.
    pub bytes_read: u64,
    /// Frame bytes written to disk.
    pub bytes_written: u64,
    /// Durability barriers issued by [`ArtifactStore::sync`].
    pub syncs: u64,
}

/// On-disk usage summary from [`ArtifactStore::stats`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Total artifact files.
    pub files: u64,
    /// Total bytes across artifact files (frames included).
    pub bytes: u64,
    /// (kind, files, bytes) per artifact kind, in kind order.
    pub by_kind: Vec<(ArtifactKind, u64, u64)>,
}

/// Result of a [`ArtifactStore::verify`] walk.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Files whose frame and checksum verified.
    pub ok: u64,
    /// Artifacts written under a different (older/newer) schema; valid
    /// frames, but invisible to `get`.
    pub stale_schema: u64,
    /// Damaged files: (path, reason).
    pub corrupt: Vec<(PathBuf, String)>,
}

/// Result of a [`ArtifactStore::gc`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Files deleted.
    pub evicted_files: u64,
    /// Bytes reclaimed.
    pub evicted_bytes: u64,
    /// Files kept.
    pub kept_files: u64,
    /// Bytes still on disk after the pass.
    pub kept_bytes: u64,
}

/// A content-addressed, versioned artifact store rooted at one directory.
pub struct ArtifactStore {
    root: PathBuf,
    activity: Activity,
    obs: Mutex<Option<ObsCounters>>,
    /// Set by every publication, cleared by [`ArtifactStore::sync`]. The
    /// store after a rename (`Release`) pairs with the swap in `sync`
    /// (`Acquire`): a barrier that sees the flag starts after that rename.
    unsynced: AtomicBool,
}

/// Sequence number of the next temp file, shared by every handle in the
/// process: the daemon opens one handle per job on one root, and with a
/// per-handle counter two jobs publishing the same key in the same order
/// shared a temp path, so one job's rename failed.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArtifactStore")
            .field("root", &self.root)
            .finish_non_exhaustive()
    }
}

impl ArtifactStore {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: impl AsRef<Path>) -> Result<ArtifactStore, StoreError> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(ArtifactStore {
            root,
            activity: Activity::default(),
            obs: Mutex::new(None),
            unsynced: AtomicBool::new(false),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The on-disk path an artifact would live at.
    pub fn path_of(&self, fp: Fingerprint, kind: ArtifactKind) -> PathBuf {
        let hex = fp.hex();
        self.root
            .join(&hex[0..2])
            .join(&hex[2..4])
            .join(format!("{hex}.{}", kind.ext()))
    }

    /// A fresh temp-file path beside [`ArtifactStore::path_of`], unique
    /// per (process, call) whichever handle asks, so concurrent writers
    /// of the same key never share a temp file.
    fn temp_path(&self, fp: Fingerprint, kind: ArtifactKind) -> PathBuf {
        self.path_of(fp, kind).with_file_name(format!(
            ".tmp-{}-{}-{}",
            fp.hex(),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    // ------------------------------------------------------------- metrics

    /// Mirror this store's activity counters into `m` under `store/…`
    /// names. Current totals are carried over, so attaching late loses
    /// nothing.
    pub fn attach_metrics(&self, m: &MetricsRegistry) {
        let c = ObsCounters {
            hits: m.counter("store/hits"),
            misses: m.counter("store/misses"),
            puts: m.counter("store/puts"),
            corrupt: m.counter("store/corrupt"),
            bytes_read: m.counter("store/bytes_read"),
            bytes_written: m.counter("store/bytes_written"),
            syncs: m.counter("store/syncs"),
        };
        let snap = self.activity();
        c.hits.add(snap.hits);
        c.misses.add(snap.misses);
        c.puts.add(snap.puts);
        c.corrupt.add(snap.corrupt);
        c.bytes_read.add(snap.bytes_read);
        c.bytes_written.add(snap.bytes_written);
        c.syncs.add(snap.syncs);
        *self.obs.lock().expect("obs slot poisoned") = Some(c);
    }

    /// Current activity totals.
    pub fn activity(&self) -> ActivitySnapshot {
        let a = &self.activity;
        ActivitySnapshot {
            hits: a.hits.load(Ordering::Relaxed),
            misses: a.misses.load(Ordering::Relaxed),
            puts: a.puts.load(Ordering::Relaxed),
            corrupt: a.corrupt.load(Ordering::Relaxed),
            bytes_read: a.bytes_read.load(Ordering::Relaxed),
            bytes_written: a.bytes_written.load(Ordering::Relaxed),
            syncs: a.syncs.load(Ordering::Relaxed),
        }
    }

    fn bump(&self, which: fn(&Activity) -> &AtomicU64, obs: fn(&ObsCounters) -> &Counter, n: u64) {
        which(&self.activity).fetch_add(n, Ordering::Relaxed);
        if let Some(c) = &*self.obs.lock().expect("obs slot poisoned") {
            obs(c).add(n);
        }
    }

    // ------------------------------------------------------------- put/get

    /// Publish an artifact under `fp`. Atomic: concurrent readers see
    /// either the previous state or the complete new file, never a tear.
    /// Durable once [`ArtifactStore::sync`] returns.
    pub fn put<A: Artifact>(&self, fp: Fingerprint, value: &A) -> Result<(), StoreError> {
        self.publish(
            fp,
            A::KIND,
            &frame(A::KIND, PUT_CAPACITY, |w| value.encode_into(w)),
        )
    }

    /// Fetch and decode an artifact. `Ok(None)` means absent or written
    /// under a different schema or frame format; [`StoreError::Corrupt`]
    /// means the file exists but is damaged.
    pub fn get<A: Artifact>(&self, fp: Fingerprint) -> Result<Option<A>, StoreError> {
        self.read(fp, A::KIND, |payload| Ok(A::from_wire(payload)?))
    }

    /// Publish raw payload bytes under `(fp, kind)`: temp file, then
    /// rename. Nothing is flushed here; see [`ArtifactStore::sync`].
    pub fn put_bytes(
        &self,
        fp: Fingerprint,
        kind: ArtifactKind,
        payload: &[u8],
    ) -> Result<(), StoreError> {
        let capacity = payload.len() + FRAME_OVERHEAD;
        self.publish(fp, kind, &frame(kind, capacity, |w| w.bytes(payload)))
    }

    /// Write a whole frame to `(fp, kind)`'s path.
    fn publish(&self, fp: Fingerprint, kind: ArtifactKind, frame: &[u8]) -> Result<(), StoreError> {
        let path = self.path_of(fp, kind);
        let dir = path.parent().expect("sharded path has a parent");
        fs::create_dir_all(dir)?;
        // The final rename is atomic and idempotent because
        // content-addressed bytes are identical.
        let tmp = self.temp_path(fp, kind);
        fs::write(&tmp, frame)?;
        if let Err(e) = fs::rename(&tmp, &path) {
            let _ = fs::remove_file(&tmp);
            return Err(e.into());
        }
        self.unsynced.store(true, Ordering::Release);

        self.bump(|a| &a.puts, |c| &c.puts, 1);
        self.bump(
            |a| &a.bytes_written,
            |c| &c.bytes_written,
            frame.len() as u64,
        );
        Ok(())
    }

    /// Make everything this handle published since the last call
    /// durable, with one filesystem barrier on the store root: it covers
    /// the file data, the renames and any new shard directories alike
    /// (and anything else dirty on that filesystem). Does nothing when
    /// nothing was published. A failed flush is [`StoreError::Io`] and
    /// is retried by the next call.
    pub fn sync(&self) -> Result<(), StoreError> {
        if !self.unsynced.swap(false, Ordering::AcqRel) {
            return Ok(());
        }
        if let Err(e) = barrier::flush(&self.root) {
            self.unsynced.store(true, Ordering::Release);
            return Err(e.into());
        }
        self.bump(|a| &a.syncs, |c| &c.syncs, 1);
        Ok(())
    }

    /// Fetch raw payload bytes for `(fp, kind)` from disk. See
    /// [`ArtifactStore::get`] for the result contract.
    pub fn get_bytes(
        &self,
        fp: Fingerprint,
        kind: ArtifactKind,
    ) -> Result<Option<Vec<u8>>, StoreError> {
        self.read(fp, kind, |payload| Ok(payload.to_vec()))
    }

    /// Read `(fp, kind)`'s frame and hand its checked payload to
    /// `decode`, in the buffer the file was read into.
    fn read<T>(
        &self,
        fp: Fingerprint,
        kind: ArtifactKind,
        decode: impl FnOnce(&[u8]) -> Result<T, StoreError>,
    ) -> Result<Option<T>, StoreError> {
        let path = self.path_of(fp, kind);
        let frame = match fs::read(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.bump(|a| &a.misses, |c| &c.misses, 1);
                return Ok(None);
            }
            Err(e) => return Err(e.into()),
        };
        self.bump(|a| &a.bytes_read, |c| &c.bytes_read, frame.len() as u64);
        match unframe(&path, &frame, kind) {
            Ok(Unframed::Payload(payload)) => {
                self.bump(|a| &a.hits, |c| &c.hits, 1);
                decode(payload).map(Some)
            }
            Ok(Unframed::Stale) => {
                // Invalidated by a schema or format bump: a miss, not an
                // error.
                self.bump(|a| &a.misses, |c| &c.misses, 1);
                Ok(None)
            }
            Err(e) => {
                self.bump(|a| &a.corrupt, |c| &c.corrupt, 1);
                Err(e)
            }
        }
    }

    // ------------------------------------------------------------ walking

    fn walk(&self) -> Result<Vec<(PathBuf, ArtifactKind, u64, SystemTime)>, StoreError> {
        let mut out = Vec::new();
        let shards = match fs::read_dir(&self.root) {
            Ok(d) => d,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e.into()),
        };
        for shard in shards {
            let shard = shard?;
            if !shard.file_type()?.is_dir() {
                continue;
            }
            for sub in fs::read_dir(shard.path())? {
                let sub = sub?;
                if !sub.file_type()?.is_dir() {
                    continue;
                }
                for entry in fs::read_dir(sub.path())? {
                    let entry = entry?;
                    let path = entry.path();
                    if !entry.file_type()?.is_file() {
                        continue;
                    }
                    let Some(kind) = artifact_kind_of(&path) else {
                        continue; // temp files and strangers are not artifacts
                    };
                    let meta = entry.metadata()?;
                    let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                    out.push((path, kind, meta.len(), mtime));
                }
            }
        }
        Ok(out)
    }

    /// Disk usage summary: file and byte totals, per artifact kind.
    pub fn stats(&self) -> Result<StoreStats, StoreError> {
        let mut stats = StoreStats::default();
        let mut per = ArtifactKind::ALL.map(|kind| (kind, 0, 0));
        for (_, kind, len, _) in self.walk()? {
            stats.files += 1;
            stats.bytes += len;
            let (_, files, bytes) = &mut per[kind.index()];
            *files += 1;
            *bytes += len;
        }
        stats.by_kind = per.into_iter().filter(|&(_, files, _)| files > 0).collect();
        Ok(stats)
    }

    /// Read and checksum every artifact, reporting damage without
    /// erroring out of the walk.
    pub fn verify(&self) -> Result<VerifyReport, StoreError> {
        let mut report = VerifyReport::default();
        for (path, kind, _, _) in self.walk()? {
            let frame = match fs::read(&path) {
                Ok(f) => f,
                Err(e) => {
                    report.corrupt.push((path, format!("unreadable: {e}")));
                    continue;
                }
            };
            match unframe(&path, &frame, kind) {
                Ok(Unframed::Payload(_)) => report.ok += 1,
                Ok(Unframed::Stale) => report.stale_schema += 1,
                Err(StoreError::Corrupt { path, reason }) => report.corrupt.push((path, reason)),
                Err(e) => return Err(e),
            }
        }
        Ok(report)
    }

    /// Delete oldest artifacts (by mtime) until on-disk usage is within
    /// `byte_budget`.
    pub fn gc(&self, byte_budget: u64) -> Result<GcReport, StoreError> {
        let mut files = self.walk()?;
        let total: u64 = files.iter().map(|(_, _, len, _)| *len).sum();
        let mut report = GcReport {
            kept_files: files.len() as u64,
            kept_bytes: total,
            ..GcReport::default()
        };
        if total <= byte_budget {
            return Ok(report);
        }
        files.sort_by_key(|(_, _, _, mtime)| *mtime);
        let mut excess = total - byte_budget;
        for (path, _, len, _) in files {
            if excess == 0 {
                break;
            }
            match fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
            report.evicted_files += 1;
            report.evicted_bytes += len;
            report.kept_files -= 1;
            report.kept_bytes -= len;
            excess = excess.saturating_sub(len);
        }
        Ok(report)
    }
}

/// The filesystem barrier behind [`ArtifactStore::sync`].
mod barrier {
    use std::io;
    use std::path::Path;

    /// `syncfs(2)`: flush every dirty page and metadata update of the
    /// filesystem holding `root`.
    #[cfg(target_os = "linux")]
    pub fn flush(root: &Path) -> io::Result<()> {
        use std::os::fd::AsRawFd;
        // std already links libc; declaring the one symbol needed avoids
        // a dependency on the libc crate.
        extern "C" {
            fn syncfs(fd: i32) -> i32;
        }
        let dir = std::fs::File::open(root)?;
        // SAFETY: `dir` stays open for the whole call, so the descriptor
        // is valid; `syncfs` reads and writes no memory of this process.
        if unsafe { syncfs(dir.as_raw_fd()) } == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// Without `syncfs`, POSIX `sync(2)` flushes every filesystem, this
    /// one included.
    #[cfg(all(unix, not(target_os = "linux")))]
    pub fn flush(_root: &Path) -> io::Result<()> {
        extern "C" {
            fn sync();
        }
        // SAFETY: `sync` takes no arguments and touches no memory of this
        // process.
        unsafe { sync() };
        Ok(())
    }

    /// Elsewhere, flush every file under `root`, one at a time.
    #[cfg(not(unix))]
    pub fn flush(root: &Path) -> io::Result<()> {
        for entry in std::fs::read_dir(root)? {
            let path = entry?.path();
            if path.is_dir() {
                flush(&path)?;
            } else {
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(&path)?
                    .sync_all()?;
            }
        }
        Ok(())
    }
}

/// A frame of `kind` around what `encode` writes as its payload, built in
/// one buffer of `capacity` bytes to start with.
fn frame(kind: ArtifactKind, capacity: usize, encode: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(capacity);
    w.bytes(&MAGIC);
    w.u8(FORMAT_VERSION);
    w.bytes(&STORE_SCHEMA_VERSION.to_le_bytes());
    w.u8(kind as u8);
    encode(&mut w);
    let mut frame = w.into_bytes();
    let sum = checksum(&frame);
    frame.extend_from_slice(&sum.to_le_bytes());
    frame
}

enum Unframed<'a> {
    Payload(&'a [u8]),
    /// Written under another schema, or in the FNV-1a format.
    Stale,
}

/// Validate a frame: magic, format, checksum, kind.
fn unframe<'a>(
    path: &Path,
    frame: &'a [u8],
    expect_kind: ArtifactKind,
) -> Result<Unframed<'a>, StoreError> {
    let corrupt = |reason: &str| StoreError::Corrupt {
        path: path.to_path_buf(),
        reason: reason.to_string(),
    };
    if frame.len() < FRAME_OVERHEAD {
        return Err(corrupt("truncated frame"));
    }
    if frame[0..4] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    match frame[4] {
        FORMAT_VERSION => {}
        // Its footer is a sum this build does not compute: recompute the
        // artifact rather than trust the frame or call it damaged.
        FNV_FORMAT_VERSION => return Ok(Unframed::Stale),
        _ => return Err(corrupt("unknown frame format")),
    }
    let (body, footer) = frame.split_at(frame.len() - 8);
    let stored = u64::from_le_bytes(footer.try_into().unwrap());
    if checksum(body) != stored {
        return Err(corrupt("checksum mismatch"));
    }
    let kind_byte = frame[7];
    match ArtifactKind::from_u8(kind_byte) {
        None => return Err(corrupt("unknown artifact kind")),
        Some(k) if k != expect_kind => return Err(corrupt("kind mismatch")),
        Some(_) => {}
    }
    let schema = u16::from_le_bytes(frame[5..7].try_into().unwrap());
    if schema != STORE_SCHEMA_VERSION {
        return Ok(Unframed::Stale);
    }
    Ok(Unframed::Payload(&body[8..]))
}

/// The kind of an artifact file named `<32-hex>.<ext>`; anything else
/// is not an artifact.
fn artifact_kind_of(path: &Path) -> Option<ArtifactKind> {
    let name = path.file_name()?.to_str()?;
    let (stem, ext) = name.split_once('.')?;
    Fingerprint::from_hex(stem)?;
    ArtifactKind::from_ext(ext)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::DistanceSample;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("anacin-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_round_trip_and_counters() {
        let root = tmp_root("roundtrip");
        let store = ArtifactStore::open(&root).unwrap();
        let fp = Fingerprint::of(b"run-0");
        let d = DistanceSample(vec![1.0, 2.5, -0.0]);
        assert_eq!(store.get::<DistanceSample>(fp).unwrap(), None);
        store.put(fp, &d).unwrap();
        let back: DistanceSample = store.get(fp).unwrap().unwrap();
        assert_eq!(back, d);
        let a = store.activity();
        assert_eq!((a.hits, a.misses, a.puts, a.corrupt), (1, 1, 1, 0));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn disk_read_after_cold_open() {
        let root = tmp_root("cold");
        let fp = Fingerprint::of(b"run-1");
        let d = DistanceSample(vec![3.25]);
        {
            let store = ArtifactStore::open(&root).unwrap();
            store.put(fp, &d).unwrap();
        }
        let store = ArtifactStore::open(&root).unwrap();
        let back: DistanceSample = store.get(fp).unwrap().unwrap();
        assert_eq!(back, d);
        assert!(store.activity().bytes_read > 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn sharded_layout_and_filename() {
        let root = tmp_root("layout");
        let store = ArtifactStore::open(&root).unwrap();
        let fp = Fingerprint::of(b"layout");
        store.put(fp, &DistanceSample(vec![1.0])).unwrap();
        let hex = fp.hex();
        let expect = root
            .join(&hex[0..2])
            .join(&hex[2..4])
            .join(format!("{hex}.dist"));
        assert!(expect.is_file(), "missing {}", expect.display());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn flipped_byte_is_corruption_not_garbage() {
        let root = tmp_root("corrupt");
        let store = ArtifactStore::open(&root).unwrap();
        let fp = Fingerprint::of(b"victim");
        store.put(fp, &DistanceSample(vec![42.0])).unwrap();
        let path = store.path_of(fp, ArtifactKind::Distances);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let err = store.get::<DistanceSample>(fp).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        assert_eq!(store.activity().corrupt, 1);
        // Self-heal: republish over the damaged file.
        store.put(fp, &DistanceSample(vec![42.0])).unwrap();
        assert!(store.get::<DistanceSample>(fp).unwrap().is_some());
        let _ = fs::remove_dir_all(&root);
    }

    /// Frames of every payload length from 0 to 63, so the frame lengths
    /// cover each residue mod 32 twice.
    fn frames() -> Vec<Vec<u8>> {
        (0..64usize)
            .map(|len| {
                let payload: Vec<u8> = (0..len).map(|i| (31 * i + len) as u8).collect();
                frame(ArtifactKind::Distances, 0, |w| w.bytes(&payload))
            })
            .collect()
    }

    fn is_corrupt(frame: &[u8]) -> bool {
        matches!(
            unframe(Path::new("f"), frame, ArtifactKind::Distances),
            Err(StoreError::Corrupt { .. })
        )
    }

    /// Any value in any one byte, and any truncation, is damage. The one
    /// exception is by design: a format byte of 1 reads as a stale frame.
    #[test]
    fn every_changed_byte_and_every_truncation_is_corrupt() {
        for mut frame in frames() {
            let len = frame.len();
            assert!(!is_corrupt(&frame), "intact frame of {len} bytes");
            for at in 0..len {
                let kept = frame[at];
                for value in (0..=u8::MAX).filter(|&v| v != kept) {
                    frame[at] = value;
                    if at == 4 && value == FNV_FORMAT_VERSION {
                        let stale = unframe(Path::new("f"), &frame, ArtifactKind::Distances);
                        assert!(matches!(stale, Ok(Unframed::Stale)));
                    } else {
                        assert!(is_corrupt(&frame), "{len}-byte frame, byte {at} = {value}");
                    }
                }
                frame[at] = kept;
            }
            for cut in 0..len {
                assert!(is_corrupt(&frame[..cut]), "{len}-byte frame cut to {cut}");
            }
        }
    }

    /// Two flips of bit 63 in two words of one lane, 32 bytes apart. The
    /// rotation is what catches them: under a multiply-only lane the
    /// first flip passes through the multiply as bit 63 and the second
    /// one cancels it.
    #[test]
    fn two_top_bit_flips_in_one_lane_are_detected() {
        let multiply_only = |bytes: &[u8]| {
            let mut lanes = CHECKSUM_SEEDS;
            for block in bytes.chunks_exact(32) {
                for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                    let word = u64::from_le_bytes(word.try_into().unwrap());
                    *lane = (*lane ^ word).wrapping_mul(CHECKSUM_MUL);
                }
            }
            lanes
        };
        let frame = frame(ArtifactKind::Distances, 0, |w| w.bytes(&[0x5A; 80]));
        let mut bad = frame.clone();
        // The top bytes of words 1 and 5, both lane 1.
        bad[15] ^= 0x80;
        bad[47] ^= 0x80;
        assert_eq!(multiply_only(&bad[..64]), multiply_only(&frame[..64]));
        assert!(is_corrupt(&bad));
    }

    /// FNV-1a 64, the footer of format-1 frames.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// A format-1 frame, as stores written before the word-wide checksum
    /// hold them, reads as a miss and verifies as stale, never as damage.
    #[test]
    fn format_1_frame_is_a_clean_miss() {
        let root = tmp_root("format-1");
        let store = ArtifactStore::open(&root).unwrap();
        let fp = Fingerprint::of(b"written by format 1");
        store.put(fp, &DistanceSample(vec![7.0, 8.5])).unwrap();
        let path = store.path_of(fp, ArtifactKind::Distances);
        let frame = fs::read(&path).unwrap();
        let mut old = frame[..frame.len() - 8].to_vec();
        old[4] = FNV_FORMAT_VERSION;
        let sum = fnv1a(&old);
        old.extend_from_slice(&sum.to_le_bytes());
        fs::write(&path, &old).unwrap();
        assert_eq!(store.get::<DistanceSample>(fp).unwrap(), None);
        let a = store.activity();
        assert_eq!((a.hits, a.misses, a.corrupt), (0, 1, 0));
        let v = store.verify().unwrap();
        assert_eq!((v.ok, v.stale_schema, v.corrupt.len()), (0, 1, 0));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn schema_mismatch_is_a_miss() {
        let root = tmp_root("schema");
        let store = ArtifactStore::open(&root).unwrap();
        let fp = Fingerprint::of(b"old-schema");
        store.put(fp, &DistanceSample(vec![7.0])).unwrap();
        // Rewrite the frame with a bumped schema and a fixed-up checksum.
        let path = store.path_of(fp, ArtifactKind::Distances);
        let mut frame = fs::read(&path).unwrap();
        let body_len = frame.len() - 8;
        frame[5..7].copy_from_slice(&(STORE_SCHEMA_VERSION + 1).to_le_bytes());
        let sum = checksum(&frame[..body_len]);
        frame[body_len..].copy_from_slice(&sum.to_le_bytes());
        fs::write(&path, &frame).unwrap();
        assert_eq!(store.get::<DistanceSample>(fp).unwrap(), None);
        let v = store.verify().unwrap();
        assert_eq!((v.ok, v.stale_schema, v.corrupt.len()), (0, 1, 0));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn verify_reports_ok_and_corrupt() {
        let root = tmp_root("verify");
        let store = ArtifactStore::open(&root).unwrap();
        let good = Fingerprint::of(b"good");
        let bad = Fingerprint::of(b"bad");
        store.put(good, &DistanceSample(vec![1.0])).unwrap();
        store.put(bad, &DistanceSample(vec![2.0])).unwrap();
        let path = store.path_of(bad, ArtifactKind::Distances);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let v = store.verify().unwrap();
        assert_eq!(v.ok, 1);
        assert_eq!(v.corrupt.len(), 1);
        assert!(v.corrupt[0].1.contains("checksum"));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn stats_counts_files_and_kinds() {
        let root = tmp_root("stats");
        let store = ArtifactStore::open(&root).unwrap();
        store
            .put(Fingerprint::of(b"a"), &DistanceSample(vec![1.0]))
            .unwrap();
        store
            .put(Fingerprint::of(b"b"), &DistanceSample(vec![2.0, 3.0]))
            .unwrap();
        let s = store.stats().unwrap();
        assert_eq!(s.files, 2);
        assert!(s.bytes > 2 * FRAME_OVERHEAD as u64);
        assert_eq!(s.by_kind.len(), 1);
        assert_eq!(s.by_kind[0].0, ArtifactKind::Distances);
        assert_eq!(s.by_kind[0].1, 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_respects_budget() {
        let root = tmp_root("gc");
        let store = ArtifactStore::open(&root).unwrap();
        for i in 0..6u8 {
            let fp = Fingerprint::of(&[b'g', i]);
            store.put(fp, &DistanceSample(vec![i as f64; 64])).unwrap();
        }
        let total = store.stats().unwrap().bytes;
        let per_file = total / 6;
        // Six equal files, a budget of two: the four oldest go.
        let report = store.gc(per_file * 2).unwrap();
        assert_eq!(
            (report.evicted_files, report.kept_files),
            (4, 2),
            "{report:?}"
        );
        assert_eq!(report.kept_bytes, per_file * 2, "{report:?}");
        assert_eq!(store.stats().unwrap().files, 2);
        // Under budget: a second pass is a no-op.
        let quiet = store.gc(total).unwrap();
        assert_eq!(quiet.evicted_files, 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn concurrent_put_get_is_safe() {
        let root = tmp_root("concurrent");
        let store = ArtifactStore::open(&root).unwrap();
        std::thread::scope(|s| {
            for t in 0..4u8 {
                let store = &store;
                s.spawn(move || {
                    for i in 0..25u8 {
                        let fp = Fingerprint::of(&[b'c', t, i]);
                        let d = DistanceSample(vec![t as f64, i as f64]);
                        store.put(fp, &d).unwrap();
                        let back: DistanceSample = store.get(fp).unwrap().unwrap();
                        assert_eq!(back, d);
                    }
                });
            }
        });
        assert_eq!(store.stats().unwrap().files, 100);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn racing_writers_on_one_key_converge() {
        let root = tmp_root("race");
        let store = ArtifactStore::open(&root).unwrap();
        let fp = Fingerprint::of(b"contended");
        let d = DistanceSample(vec![9.0; 16]);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (store, d) = (&store, &d);
                s.spawn(move || {
                    for _ in 0..10 {
                        store.put(fp, d).unwrap();
                        let back: DistanceSample = store.get(fp).unwrap().unwrap();
                        assert_eq!(&back, d);
                    }
                });
            }
        });
        // No temp files left behind.
        let leftovers: Vec<_> = store
            .walk()
            .unwrap()
            .iter()
            .map(|(p, _, _, _)| p.clone())
            .collect();
        assert_eq!(leftovers.len(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn handles_on_one_root_never_share_a_temp_name() {
        let root = tmp_root("temp-names");
        let (a, b) = (
            ArtifactStore::open(&root).unwrap(),
            ArtifactStore::open(&root).unwrap(),
        );
        let fp = Fingerprint::of(b"same key");
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            for store in [&a, &b] {
                let tmp = store.temp_path(fp, ArtifactKind::Distances);
                assert_eq!(
                    tmp.parent(),
                    store.path_of(fp, ArtifactKind::Distances).parent()
                );
                assert!(
                    seen.insert(tmp.clone()),
                    "temp name reused: {}",
                    tmp.display()
                );
            }
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn two_handles_publish_one_key_concurrently_without_error() {
        let root = tmp_root("two-handles");
        let fp = Fingerprint::of(b"contended across handles");
        let d = DistanceSample(vec![4.0; 8]);
        let handles = [
            ArtifactStore::open(&root).unwrap(),
            ArtifactStore::open(&root).unwrap(),
        ];
        std::thread::scope(|s| {
            for store in &handles {
                let d = &d;
                s.spawn(move || {
                    for i in 0..1000 {
                        if let Err(e) = store.put(fp, d) {
                            panic!("put {i} failed: {e}");
                        }
                    }
                });
            }
        });
        let back: DistanceSample = handles[0].get(fp).unwrap().unwrap();
        assert_eq!(back, d);
        let path = handles[0].path_of(fp, ArtifactKind::Distances);
        let names: Vec<_> = fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names.len(), 1, "temp files left behind: {names:?}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn metrics_attach_mirrors_totals() {
        let root = tmp_root("metrics");
        let store = ArtifactStore::open(&root).unwrap();
        let fp = Fingerprint::of(b"m");
        store.put(fp, &DistanceSample(vec![1.0])).unwrap();
        let _: Option<DistanceSample> = store.get(fp).unwrap();
        let m = MetricsRegistry::new();
        store.attach_metrics(&m); // late attach carries totals over
        let _: Option<DistanceSample> = store.get(fp).unwrap();
        let r = m.report();
        assert_eq!(r.counter("store/puts"), Some(1));
        assert_eq!(r.counter("store/hits"), Some(2));
        assert!(r.counter("store/bytes_written").unwrap() > 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn sync_flushes_once_per_batch_of_publications() {
        let root = tmp_root("sync");
        let store = ArtifactStore::open(&root).unwrap();
        let m = MetricsRegistry::new();
        store.attach_metrics(&m);
        store.sync().unwrap();
        assert_eq!(
            store.activity().syncs,
            0,
            "nothing published, nothing flushed"
        );
        for i in 0..3u8 {
            store
                .put(Fingerprint::of(&[i]), &DistanceSample(vec![i as f64]))
                .unwrap();
        }
        store.sync().unwrap();
        store.sync().unwrap();
        assert_eq!(store.activity().syncs, 1, "one barrier covers every put");
        let _: Option<DistanceSample> = store.get(Fingerprint::of(&[0])).unwrap();
        store.sync().unwrap();
        assert_eq!(store.activity().syncs, 1, "reads publish nothing");
        store
            .put(Fingerprint::of(b"late"), &DistanceSample(vec![]))
            .unwrap();
        store.sync().unwrap();
        assert_eq!(store.activity().syncs, 2);
        assert_eq!(m.report().counter("store/syncs"), Some(2));
        let _ = fs::remove_dir_all(&root);
    }
}
