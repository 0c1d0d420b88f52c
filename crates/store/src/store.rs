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
//! format u8             frame layout version (1)
//! schema u16 LE         store payload schema (STORE_SCHEMA_VERSION)
//! kind   u8             ArtifactKind discriminant
//! payload …             artifact wire encoding
//! checksum u64 LE       FNV-1a 64 over everything above
//! ```
//!
//! A wrong magic/format/kind or checksum mismatch is **corruption**
//! ([`StoreError::Corrupt`]); a schema mismatch is a clean **miss**
//! (old artifacts are invalidated, not errors). Publication is atomic:
//! write to a temp file in the same directory, fsync, rename.
//!
//! ## Concurrency
//!
//! All operations take `&self`; the store is `Send + Sync`. Writers
//! racing on the same key both publish identical bytes (content
//! addressing), so last-rename-wins is harmless. [`ArtifactStore::pin`]
//! guards a key against [`ArtifactStore::gc`] while a reader is between
//! `contains` and `get`.

use crate::artifact::{Artifact, ArtifactKind};
use crate::fingerprint::Fingerprint;
use crate::wire::WireError;
use anacin_obs::{Counter, MetricsRegistry};
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::SystemTime;

/// File magic: "ANacin STore".
pub const MAGIC: [u8; 4] = *b"ANST";
/// Frame layout version (header/footer shape, not payload shape).
pub const FORMAT_VERSION: u8 = 1;
/// Payload schema version. Bump when any artifact's wire layout changes;
/// every existing artifact then reads as a miss and is recomputed.
pub const STORE_SCHEMA_VERSION: u16 = 1;
/// Frame overhead: 8-byte header + 8-byte checksum footer.
pub const FRAME_OVERHEAD: usize = 16;

/// Default in-memory LRU budget (bytes).
pub const DEFAULT_LRU_BUDGET: usize = 64 << 20;

/// FNV-1a 64 over a byte slice — the frame checksum.
fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
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

type Key = (u128, u8);

/// In-memory LRU front: decoded-frame payload bytes keyed by
/// (fingerprint, kind), evicted lowest-tick-first under a byte budget.
struct Lru {
    map: HashMap<Key, (Vec<u8>, u64)>,
    bytes: usize,
    budget: usize,
    tick: u64,
}

impl Lru {
    fn new(budget: usize) -> Self {
        Lru {
            map: HashMap::new(),
            bytes: 0,
            budget,
            tick: 0,
        }
    }

    fn get(&mut self, key: &Key) -> Option<Vec<u8>> {
        self.tick += 1;
        let tick = self.tick;
        let (bytes, stamp) = self.map.get_mut(key)?;
        *stamp = tick;
        Some(bytes.clone())
    }

    fn put(&mut self, key: Key, bytes: Vec<u8>) {
        if bytes.len() > self.budget {
            return; // would evict everything and still not fit
        }
        self.tick += 1;
        if let Some((old, _)) = self.map.insert(key, (bytes.clone(), self.tick)) {
            self.bytes -= old.len();
        }
        self.bytes += bytes.len();
        while self.bytes > self.budget {
            // Evict the least-recently-used entry (lowest tick).
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(k, _)| *k)
                .expect("over budget implies non-empty");
            if victim == key {
                break; // never evict the entry just inserted
            }
            if let Some((old, _)) = self.map.remove(&victim) {
                self.bytes -= old.len();
            }
        }
    }

    fn remove(&mut self, key: &Key) {
        if let Some((old, _)) = self.map.remove(key) {
            self.bytes -= old.len();
        }
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
    lru_hits: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

/// obs counter handles, created once at [`ArtifactStore::attach_metrics`].
struct ObsCounters {
    hits: Counter,
    misses: Counter,
    puts: Counter,
    corrupt: Counter,
    lru_hits: Counter,
    bytes_read: Counter,
    bytes_written: Counter,
}

/// A point-in-time snapshot of store activity counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ActivitySnapshot {
    /// Disk (or LRU) gets that found the artifact.
    pub hits: u64,
    /// Gets that found nothing (including schema-invalidated artifacts).
    pub misses: u64,
    /// Artifacts published.
    pub puts: u64,
    /// Corrupt frames encountered.
    pub corrupt: u64,
    /// Hits served from the in-memory LRU without touching disk.
    pub lru_hits: u64,
    /// Frame bytes read from disk.
    pub bytes_read: u64,
    /// Frame bytes written to disk.
    pub bytes_written: u64,
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
    /// Files that were over-budget candidates but pinned by a live
    /// [`PinGuard`] and therefore kept.
    pub pinned_skipped: u64,
}

/// A content-addressed, versioned artifact store rooted at one directory.
pub struct ArtifactStore {
    root: PathBuf,
    lru: Mutex<Lru>,
    pins: Mutex<HashMap<Key, usize>>,
    activity: Activity,
    obs: Mutex<Option<ObsCounters>>,
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

/// Keeps one (fingerprint, kind) safe from [`ArtifactStore::gc`] while
/// alive. Cloning the underlying refcount is not supported — take another
/// pin instead.
pub struct PinGuard<'a> {
    store: &'a ArtifactStore,
    key: Key,
}

impl Drop for PinGuard<'_> {
    fn drop(&mut self) {
        let mut pins = self.store.pins.lock().expect("pin map poisoned");
        if let Some(n) = pins.get_mut(&self.key) {
            *n -= 1;
            if *n == 0 {
                pins.remove(&self.key);
            }
        }
    }
}

impl ArtifactStore {
    /// Open (creating if needed) a store rooted at `root`, with the
    /// default in-memory LRU budget.
    pub fn open(root: impl AsRef<Path>) -> Result<ArtifactStore, StoreError> {
        Self::open_with_lru_budget(root, DEFAULT_LRU_BUDGET)
    }

    /// Open with an explicit LRU byte budget (0 disables the memory front).
    pub fn open_with_lru_budget(
        root: impl AsRef<Path>,
        lru_budget: usize,
    ) -> Result<ArtifactStore, StoreError> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(ArtifactStore {
            root,
            lru: Mutex::new(Lru::new(lru_budget)),
            pins: Mutex::new(HashMap::new()),
            activity: Activity::default(),
            obs: Mutex::new(None),
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
            lru_hits: m.counter("store/lru_hits"),
            bytes_read: m.counter("store/bytes_read"),
            bytes_written: m.counter("store/bytes_written"),
        };
        let snap = self.activity();
        c.hits.add(snap.hits);
        c.misses.add(snap.misses);
        c.puts.add(snap.puts);
        c.corrupt.add(snap.corrupt);
        c.lru_hits.add(snap.lru_hits);
        c.bytes_read.add(snap.bytes_read);
        c.bytes_written.add(snap.bytes_written);
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
            lru_hits: a.lru_hits.load(Ordering::Relaxed),
            bytes_read: a.bytes_read.load(Ordering::Relaxed),
            bytes_written: a.bytes_written.load(Ordering::Relaxed),
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
    pub fn put<A: Artifact>(&self, fp: Fingerprint, value: &A) -> Result<(), StoreError> {
        self.put_bytes(fp, A::KIND, &value.to_wire())
    }

    /// Fetch and decode an artifact. `Ok(None)` means absent or written
    /// under a different schema version; [`StoreError::Corrupt`] means the
    /// file exists but is damaged.
    pub fn get<A: Artifact>(&self, fp: Fingerprint) -> Result<Option<A>, StoreError> {
        match self.get_bytes(fp, A::KIND)? {
            Some(payload) => Ok(Some(A::from_wire(&payload)?)),
            None => Ok(None),
        }
    }

    /// True when a valid-looking artifact file exists for the key (does
    /// not read or verify the payload).
    pub fn contains(&self, fp: Fingerprint, kind: ArtifactKind) -> bool {
        if self
            .lru
            .lock()
            .expect("lru poisoned")
            .map
            .contains_key(&(fp.0, kind as u8))
        {
            return true;
        }
        self.path_of(fp, kind).is_file()
    }

    /// Publish raw payload bytes under `(fp, kind)`.
    pub fn put_bytes(
        &self,
        fp: Fingerprint,
        kind: ArtifactKind,
        payload: &[u8],
    ) -> Result<(), StoreError> {
        let mut frame = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
        frame.extend_from_slice(&MAGIC);
        frame.push(FORMAT_VERSION);
        frame.extend_from_slice(&STORE_SCHEMA_VERSION.to_le_bytes());
        frame.push(kind as u8);
        frame.extend_from_slice(payload);
        let sum = checksum(&frame);
        frame.extend_from_slice(&sum.to_le_bytes());

        let path = self.path_of(fp, kind);
        let dir = path.parent().expect("sharded path has a parent");
        fs::create_dir_all(dir)?;
        // The final rename is atomic and idempotent because
        // content-addressed bytes are identical.
        let tmp = self.temp_path(fp, kind);
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&frame)?;
        f.sync_all()?;
        drop(f);
        if let Err(e) = fs::rename(&tmp, &path) {
            let _ = fs::remove_file(&tmp);
            return Err(e.into());
        }
        // Best-effort directory durability; not all platforms support it.
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }

        self.bump(|a| &a.puts, |c| &c.puts, 1);
        self.bump(
            |a| &a.bytes_written,
            |c| &c.bytes_written,
            frame.len() as u64,
        );
        self.lru
            .lock()
            .expect("lru poisoned")
            .put((fp.0, kind as u8), payload.to_vec());
        Ok(())
    }

    /// Fetch raw payload bytes for `(fp, kind)`, trying the in-memory LRU
    /// before disk. See [`ArtifactStore::get`] for the result contract.
    pub fn get_bytes(
        &self,
        fp: Fingerprint,
        kind: ArtifactKind,
    ) -> Result<Option<Vec<u8>>, StoreError> {
        let key = (fp.0, kind as u8);
        if let Some(bytes) = self.lru.lock().expect("lru poisoned").get(&key) {
            self.bump(|a| &a.hits, |c| &c.hits, 1);
            self.bump(|a| &a.lru_hits, |c| &c.lru_hits, 1);
            return Ok(Some(bytes));
        }
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
        match unframe(&path, &frame, Some(kind)) {
            Ok(Unframed::Payload(payload)) => {
                self.bump(|a| &a.hits, |c| &c.hits, 1);
                let payload = payload.to_vec();
                self.lru
                    .lock()
                    .expect("lru poisoned")
                    .put(key, payload.clone());
                Ok(Some(payload))
            }
            Ok(Unframed::StaleSchema) => {
                // Invalidated by a schema bump: a miss, not an error.
                self.bump(|a| &a.misses, |c| &c.misses, 1);
                Ok(None)
            }
            Err(e) => {
                self.bump(|a| &a.corrupt, |c| &c.corrupt, 1);
                self.lru.lock().expect("lru poisoned").remove(&key);
                Err(e)
            }
        }
    }

    /// Remove one artifact (used by self-healing after corruption).
    pub fn evict(&self, fp: Fingerprint, kind: ArtifactKind) -> Result<(), StoreError> {
        self.lru
            .lock()
            .expect("lru poisoned")
            .remove(&(fp.0, kind as u8));
        match fs::remove_file(self.path_of(fp, kind)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    // ---------------------------------------------------------------- pin

    /// Guard `(fp, kind)` against [`ArtifactStore::gc`] for the guard's
    /// lifetime. Reentrant: pins nest by refcount.
    pub fn pin(&self, fp: Fingerprint, kind: ArtifactKind) -> PinGuard<'_> {
        let key = (fp.0, kind as u8);
        *self
            .pins
            .lock()
            .expect("pin map poisoned")
            .entry(key)
            .or_insert(0) += 1;
        PinGuard { store: self, key }
    }

    fn is_pinned(&self, key: &Key) -> bool {
        self.pins
            .lock()
            .expect("pin map poisoned")
            .contains_key(key)
    }

    // ------------------------------------------------------------ walking

    fn walk(&self) -> Result<Vec<(PathBuf, Key, u64, SystemTime)>, StoreError> {
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
                    let Some(key) = parse_artifact_name(&path) else {
                        continue; // temp files and strangers are not artifacts
                    };
                    let meta = entry.metadata()?;
                    let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                    out.push((path, key, meta.len(), mtime));
                }
            }
        }
        Ok(out)
    }

    /// Disk usage summary: file and byte totals, per artifact kind.
    pub fn stats(&self) -> Result<StoreStats, StoreError> {
        let mut stats = StoreStats::default();
        let mut per: HashMap<u8, (u64, u64)> = HashMap::new();
        for (_, (_, kind_byte), len, _) in self.walk()? {
            stats.files += 1;
            stats.bytes += len;
            let e = per.entry(kind_byte).or_insert((0, 0));
            e.0 += 1;
            e.1 += len;
        }
        for kind in ArtifactKind::ALL {
            if let Some(&(files, bytes)) = per.get(&(kind as u8)) {
                stats.by_kind.push((kind, files, bytes));
            }
        }
        Ok(stats)
    }

    /// Read and checksum every artifact, reporting damage without
    /// erroring out of the walk.
    pub fn verify(&self) -> Result<VerifyReport, StoreError> {
        let mut report = VerifyReport::default();
        for (path, (_, kind_byte), _, _) in self.walk()? {
            let frame = match fs::read(&path) {
                Ok(f) => f,
                Err(e) => {
                    report.corrupt.push((path, format!("unreadable: {e}")));
                    continue;
                }
            };
            let expect = ArtifactKind::from_u8(kind_byte);
            match unframe(&path, &frame, expect) {
                Ok(Unframed::Payload(_)) => report.ok += 1,
                Ok(Unframed::StaleSchema) => report.stale_schema += 1,
                Err(StoreError::Corrupt { path, reason }) => report.corrupt.push((path, reason)),
                Err(e) => return Err(e),
            }
        }
        Ok(report)
    }

    /// Delete oldest artifacts (by mtime) until on-disk usage is within
    /// `byte_budget`. Pinned keys are never deleted, even when the budget
    /// cannot be met without them.
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
        for (path, key, len, _) in files {
            if excess == 0 {
                break;
            }
            if self.is_pinned(&key) {
                report.pinned_skipped += 1;
                continue;
            }
            match fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
            self.lru.lock().expect("lru poisoned").remove(&key);
            report.evicted_files += 1;
            report.evicted_bytes += len;
            report.kept_files -= 1;
            report.kept_bytes -= len;
            excess = excess.saturating_sub(len);
        }
        Ok(report)
    }
}

enum Unframed<'a> {
    Payload(&'a [u8]),
    StaleSchema,
}

/// Validate a frame: magic, format, kind, checksum. `expect_kind` of
/// `None` accepts any known kind (verify walks mixed extensions).
fn unframe<'a>(
    path: &Path,
    frame: &'a [u8],
    expect_kind: Option<ArtifactKind>,
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
    if frame[4] != FORMAT_VERSION {
        return Err(corrupt("unknown frame format"));
    }
    let (body, footer) = frame.split_at(frame.len() - 8);
    let stored = u64::from_le_bytes(footer.try_into().unwrap());
    if checksum(body) != stored {
        return Err(corrupt("checksum mismatch"));
    }
    let kind_byte = frame[7];
    match (ArtifactKind::from_u8(kind_byte), expect_kind) {
        (None, _) => return Err(corrupt("unknown artifact kind")),
        (Some(k), Some(want)) if k != want => return Err(corrupt("kind mismatch")),
        _ => {}
    }
    let schema = u16::from_le_bytes(frame[5..7].try_into().unwrap());
    if schema != STORE_SCHEMA_VERSION {
        return Ok(Unframed::StaleSchema);
    }
    Ok(Unframed::Payload(&body[8..]))
}

/// Parse `<32-hex>.<ext>` into a key; anything else is not an artifact.
fn parse_artifact_name(path: &Path) -> Option<Key> {
    let name = path.file_name()?.to_str()?;
    let (stem, ext) = name.split_once('.')?;
    let fp = Fingerprint::from_hex(stem)?;
    let kind = ArtifactKind::from_ext(ext)?;
    Some((fp.0, kind as u8))
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
        assert!(store.contains(fp, ArtifactKind::Distances));
        let back: DistanceSample = store.get(fp).unwrap().unwrap();
        assert_eq!(back, d);
        let a = store.activity();
        assert_eq!((a.hits, a.misses, a.puts, a.corrupt), (1, 1, 1, 0));
        assert_eq!(a.lru_hits, 1, "second read should hit the memory front");
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
        let a = store.activity();
        assert_eq!(a.lru_hits, 0);
        assert!(a.bytes_read > 0);
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
        let store = ArtifactStore::open_with_lru_budget(&root, 0).unwrap();
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
        // Self-heal: evict then republish.
        store.evict(fp, ArtifactKind::Distances).unwrap();
        store.put(fp, &DistanceSample(vec![42.0])).unwrap();
        assert!(store.get::<DistanceSample>(fp).unwrap().is_some());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn schema_mismatch_is_a_miss() {
        let root = tmp_root("schema");
        let store = ArtifactStore::open_with_lru_budget(&root, 0).unwrap();
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
    fn gc_respects_budget_and_pins() {
        let root = tmp_root("gc");
        let store = ArtifactStore::open(&root).unwrap();
        let mut fps = Vec::new();
        for i in 0..6u8 {
            let fp = Fingerprint::of(&[b'g', i]);
            store.put(fp, &DistanceSample(vec![i as f64; 64])).unwrap();
            fps.push(fp);
        }
        let total = store.stats().unwrap().bytes;
        let per_file = total / 6;
        // Pin one artifact and GC down to roughly two files' worth.
        let _pin = store.pin(fps[0], ArtifactKind::Distances);
        let report = store.gc(per_file * 2).unwrap();
        assert!(report.evicted_files >= 3, "{report:?}");
        assert!(
            store.contains(fps[0], ArtifactKind::Distances),
            "pinned artifact must survive GC"
        );
        assert!(report.kept_bytes <= per_file * 3, "{report:?}");
        // Under budget: a second pass is a no-op.
        let quiet = store.gc(total).unwrap();
        assert_eq!(quiet.evicted_files, 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn pin_refcounts_nest() {
        let root = tmp_root("pins");
        let store = ArtifactStore::open(&root).unwrap();
        let fp = Fingerprint::of(b"pinned");
        store.put(fp, &DistanceSample(vec![1.0])).unwrap();
        let key = (fp.0, ArtifactKind::Distances as u8);
        {
            let _a = store.pin(fp, ArtifactKind::Distances);
            {
                let _b = store.pin(fp, ArtifactKind::Distances);
                assert!(store.is_pinned(&key));
            }
            assert!(store.is_pinned(&key), "outer pin still live");
        }
        assert!(!store.is_pinned(&key));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn lru_evicts_oldest_under_byte_budget() {
        let root = tmp_root("lru");
        // Budget fits ~2 payloads of 256 bytes.
        let store = ArtifactStore::open_with_lru_budget(&root, 600).unwrap();
        let fps: Vec<Fingerprint> = (0..3u8).map(|i| Fingerprint::of(&[b'l', i])).collect();
        for &fp in &fps {
            store.put(fp, &DistanceSample(vec![1.0; 31])).unwrap(); // 256-byte payload
        }
        // fps[0] was inserted first and never touched since: it should be
        // the LRU victim, so reading it now must go to disk.
        let before = store.activity().lru_hits;
        let _: DistanceSample = store.get(fps[0]).unwrap().unwrap();
        assert_eq!(store.activity().lru_hits, before, "fps[0] must be evicted");
        // fps[2] is fresh: memory hit.
        let _: DistanceSample = store.get(fps[2]).unwrap().unwrap();
        assert_eq!(store.activity().lru_hits, before + 1);
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
}
