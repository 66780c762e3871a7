//! Crash-safe checkpoint persistence: atomic writes, a versioned and
//! checksummed snapshot envelope, and a directory store that always
//! recovers the newest *valid* snapshot.
//!
//! ## Crash model
//!
//! A run may die at any instruction (process kill, OOM, power loss) and
//! any in-flight write may be torn. The store defends with three layers:
//!
//! 1. **Atomic replace** ([`atomic_write`]): payloads go to a temporary
//!    file in the target directory, are fsynced, then renamed over the
//!    final path — readers never observe a half-written file *created by
//!    this writer*.
//! 2. **Checksummed envelope**: every snapshot file starts with
//!    `OFDSNAP v1 <fnv64-hex> <len>` followed by the JSON body; a torn or
//!    bit-rotted file fails validation and is skipped, never trusted.
//! 3. **Append-only sequence** ([`SnapshotStore`]): each checkpoint gets a
//!    fresh `name.NNNNNN.ckpt` file; [`SnapshotStore::load_latest`] walks
//!    the sequence newest-first and returns the first snapshot that
//!    validates, so corrupting the newest file merely falls back to the
//!    one before it.
//!
//! Snapshot-write faults from a [`FaultPlan`](crate::FaultPlan) are
//! injected here — a clean I/O error, or a deliberately torn file at the
//! final path (simulating a *non-atomic* writer dying mid-write), which
//! the loader must reject by checksum.

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use serde_json::Value;

use crate::fault::{FaultPlan, SnapshotFault};
use crate::Relation;
use ofd_ontology::Ontology;

/// Version of the snapshot envelope and of every body schema; bump on any
/// incompatible change (older snapshots are then skipped, not misread).
pub const SNAPSHOT_VERSION: u32 = 1;

const MAGIC: &str = "OFDSNAP";

/// 64-bit FNV-1a: the snapshot checksum (also used for input
/// fingerprints). Not cryptographic — it guards against torn writes and
/// bit rot, not adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Incremental FNV-1a hasher for building input fingerprints from
/// heterogeneous parts without materializing one buffer.
#[derive(Debug, Clone)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// A fresh hasher.
    pub fn new() -> Fingerprint {
        Fingerprint::default()
    }

    /// Feeds raw bytes.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Feeds a length-prefixed string (so `["ab","c"]` ≠ `["a","bc"]`).
    pub fn update_str(&mut self, s: &str) -> &mut Self {
        self.update(&(s.len() as u64).to_le_bytes());
        self.update(s.as_bytes())
    }

    /// Feeds one u64.
    pub fn update_u64(&mut self, v: u64) -> &mut Self {
        self.update(&v.to_le_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Feeds a relation — schema names, cell contents and value pool — into a
/// fingerprint. Two relations with the same digest are cell-for-cell
/// identical (up to FNV collisions).
pub fn hash_relation(fp: &mut Fingerprint, rel: &Relation) {
    let schema = rel.schema();
    fp.update_u64(schema.len() as u64);
    for a in schema.attrs() {
        fp.update_str(schema.name(a));
    }
    fp.update_u64(rel.n_rows() as u64);
    for a in schema.attrs() {
        for &v in rel.column(a) {
            fp.update_u64(v.index() as u64);
        }
    }
    fp.update_u64(rel.pool().len() as u64);
    for (_, text) in rel.pool().iter() {
        fp.update_str(text);
    }
}

/// Feeds an ontology — concept labels, parent links and synonym sets — into
/// a fingerprint.
pub fn hash_ontology(fp: &mut Fingerprint, onto: &Ontology) {
    fp.update_u64(onto.len() as u64);
    for concept in onto.concepts() {
        fp.update_str(concept.label());
        fp.update_u64(concept.parent().map_or(u64::MAX, |p| p.index() as u64));
        fp.update_u64(concept.synonyms().len() as u64);
        for s in concept.synonyms() {
            fp.update_str(s);
        }
    }
}

/// Checkpoint configuration shared by the discovery and cleaning drivers:
/// where snapshots go, and whether to restore from the newest valid one
/// before running.
#[derive(Debug, Clone)]
pub struct CheckpointOptions {
    /// Where snapshots are written and read. Install a [`FaultPlan`] on
    /// the store to inject snapshot-write faults.
    pub store: SnapshotStore,
    /// Restore from the newest valid snapshot before running. A missing,
    /// corrupt or fingerprint-mismatched snapshot falls back to a fresh
    /// run — resume is always safe to request.
    pub resume: bool,
}

impl CheckpointOptions {
    /// Checkpoints into `dir`, without resuming.
    pub fn new(dir: impl Into<PathBuf>) -> CheckpointOptions {
        CheckpointOptions {
            store: SnapshotStore::new(dir),
            resume: false,
        }
    }

    /// Toggles resume-from-snapshot.
    pub fn resume(mut self, on: bool) -> CheckpointOptions {
        self.resume = on;
        self
    }
}

/// Errors of the snapshot layer.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying filesystem operation failed (includes injected
    /// `snapshot-io` faults).
    Io(io::Error),
    /// A snapshot file failed validation (bad magic, version, checksum or
    /// JSON) — reported with the reason; loaders skip such files.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What failed to validate.
        reason: String,
    },
    /// A stream name outside [`valid_stream_name`]'s rule: it could
    /// address a file outside the store's directory.
    BadName(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O: {e}"),
            SnapshotError::Corrupt { path, reason } => {
                write!(f, "corrupt snapshot {}: {reason}", path.display())
            }
            SnapshotError::BadName(name) => write!(
                f,
                "bad snapshot stream name {name:?} (want 1-64 bytes of [A-Za-z0-9_-])"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

/// Fsyncs a directory so a rename that landed in it survives power loss.
///
/// POSIX only guarantees a rename is durable once the *directory* entry
/// is flushed; without this a checkpoint can pass its own fsync, be
/// renamed into place, and still vanish when power is cut before the
/// kernel writes the directory block back. On Unix a failure here is a
/// real durability gap and is propagated; on platforms where directory
/// handles cannot be opened or synced (e.g. Windows) the call is
/// best-effort and reports success.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        fs::File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename over the destination, then fsync of the parent directory
/// so the rename itself is durable ([`fsync_dir`]). On any error before
/// the rename the destination is left untouched (either the old content
/// or absent); an error from the directory fsync means the new content is
/// visible but its durability across power loss is not guaranteed — which
/// checkpoint writers must treat as a failed snapshot.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    // The temp name must be unique per call, not just per process: two
    // threads (serve workers sharing a checkpoint dir) writing the same
    // destination would otherwise truncate each other's in-flight temp
    // file and fail the rename.
    static TMP_NONCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let nonce = TMP_NONCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut tmp = path.to_path_buf();
    tmp.set_file_name(format!(
        ".{}.tmp.{}.{}",
        file_name.to_string_lossy(),
        std::process::id(),
        nonce
    ));
    let result = (|| -> io::Result<()> {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)?;
        // Persist the rename itself: without the directory fsync the
        // checkpoint can vanish on power loss between the rename and the
        // kernel's own directory flush. Propagated, not best-effort — a
        // checkpoint whose durability is unknown counts as failed.
        if let Some(dir) = dir {
            fsync_dir(dir)?;
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Serializes `body` into the versioned, checksummed envelope.
pub fn encode_snapshot(body: &Value) -> Vec<u8> {
    let json = serde_json::to_string(body).expect("JSON trees always serialize");
    let mut out = format!(
        "{MAGIC} v{SNAPSHOT_VERSION} {:016x} {}\n",
        fnv1a64(json.as_bytes()),
        json.len()
    )
    .into_bytes();
    out.extend_from_slice(json.as_bytes());
    out
}

/// Parses and validates an envelope produced by [`encode_snapshot`].
pub fn decode_snapshot(path: &Path, bytes: &[u8]) -> Result<Value, SnapshotError> {
    let corrupt = |reason: String| SnapshotError::Corrupt {
        path: path.to_path_buf(),
        reason,
    };
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| corrupt("missing envelope header".into()))?;
    let header = std::str::from_utf8(&bytes[..newline])
        .map_err(|_| corrupt("non-UTF-8 envelope header".into()))?;
    let mut parts = header.split_ascii_whitespace();
    if parts.next() != Some(MAGIC) {
        return Err(corrupt("bad magic".into()));
    }
    match parts.next() {
        Some(v) if v == format!("v{SNAPSHOT_VERSION}") => {}
        Some(v) => return Err(corrupt(format!("unsupported version {v:?}"))),
        None => return Err(corrupt("missing version".into())),
    }
    let checksum = parts
        .next()
        .and_then(|c| u64::from_str_radix(c, 16).ok())
        .ok_or_else(|| corrupt("missing checksum".into()))?;
    let len: usize = parts
        .next()
        .and_then(|l| l.parse().ok())
        .ok_or_else(|| corrupt("missing length".into()))?;
    let body = &bytes[newline + 1..];
    if body.len() != len {
        return Err(corrupt(format!("length mismatch: header {len}, body {}", body.len())));
    }
    if fnv1a64(body) != checksum {
        return Err(corrupt("checksum mismatch".into()));
    }
    let text = std::str::from_utf8(body).map_err(|_| corrupt("non-UTF-8 body".into()))?;
    serde_json::from_str(text).map_err(|e| corrupt(format!("body is not valid JSON: {e}")))
}

/// Whether `name` may name a snapshot stream (and a catalog dataset):
/// 1–64 bytes of `[A-Za-z0-9_-]`. No separator, dot or absolute path can
/// pass, so a stream's files stay inside its store's directory, and the
/// `.` before the sequence number stays unambiguous.
pub fn valid_stream_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

fn checked(name: &str) -> Result<&str, SnapshotError> {
    if valid_stream_name(name) {
        Ok(name)
    } else {
        Err(SnapshotError::BadName(name.to_owned()))
    }
}

/// A directory of sequenced snapshots for one or more named streams.
/// Every method that takes a stream name rejects one that fails
/// [`valid_stream_name`] with [`SnapshotError::BadName`].
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    dir: PathBuf,
    faults: FaultPlan,
}

impl SnapshotStore {
    /// A store rooted at `dir` (created on first save).
    pub fn new(dir: impl Into<PathBuf>) -> SnapshotStore {
        SnapshotStore {
            dir: dir.into(),
            faults: FaultPlan::none(),
        }
    }

    /// Installs a fault plan probed on every save.
    pub fn with_faults(mut self, faults: FaultPlan) -> SnapshotStore {
        self.faults = faults;
        self
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn file_path(&self, name: &str, seq: u64) -> Result<PathBuf, SnapshotError> {
        Ok(self.dir.join(format!("{}.{seq:06}.ckpt", checked(name)?)))
    }

    /// Saves `body` as snapshot `seq` of stream `name`, atomically.
    /// Injected faults surface as errors (and, for torn writes, leave an
    /// invalid file at the final path — exactly what a non-atomic crash
    /// would, so loaders get exercised against it).
    pub fn save(&self, name: &str, seq: u64, body: &Value) -> Result<PathBuf, SnapshotError> {
        let path = self.file_path(name, seq)?;
        fs::create_dir_all(&self.dir)?;
        let bytes = encode_snapshot(body);
        match self.faults.snapshot_write_fault() {
            Some(SnapshotFault::Error) => {
                return Err(SnapshotError::Io(io::Error::other("injected snapshot I/O fault")));
            }
            Some(SnapshotFault::Torn) => {
                // Simulate a non-atomic writer dying mid-write: half the
                // envelope lands at the final path.
                let torn = &bytes[..bytes.len() / 2];
                fs::write(&path, torn)?;
                return Err(SnapshotError::Io(io::Error::other("injected torn snapshot write")));
            }
            None => {}
        }
        atomic_write(&path, &bytes)?;
        Ok(path)
    }

    /// Loads the newest snapshot of stream `name` that validates, as
    /// `(seq, body, skipped)` where `skipped` counts newer files rejected
    /// as corrupt. `Ok(None)` when the stream has no valid snapshot (or
    /// the directory does not exist).
    pub fn load_latest(&self, name: &str) -> Result<Option<LoadedSnapshot>, SnapshotError> {
        let prefix = format!("{}.", checked(name)?);
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let mut seqs: Vec<(u64, PathBuf)> = Vec::new();
        for entry in entries {
            let entry = entry?;
            let file_name = entry.file_name();
            let Some(fname) = file_name.to_str() else {
                continue;
            };
            let Some(middle) = fname
                .strip_prefix(&prefix)
                .and_then(|rest| rest.strip_suffix(".ckpt"))
            else {
                continue;
            };
            if let Ok(seq) = middle.parse::<u64>() {
                seqs.push((seq, entry.path()));
            }
        }
        seqs.sort_by_key(|&(seq, _)| std::cmp::Reverse(seq));
        let mut skipped = 0;
        for (seq, path) in seqs {
            let bytes = match fs::read(&path) {
                Ok(b) => b,
                Err(_) => {
                    skipped += 1;
                    continue;
                }
            };
            match decode_snapshot(&path, &bytes) {
                Ok(body) => {
                    return Ok(Some(LoadedSnapshot {
                        seq,
                        body,
                        path,
                        skipped,
                    }))
                }
                Err(_) => skipped += 1,
            }
        }
        Ok(None)
    }

    /// Loads snapshot `seq` of stream `name` exactly. `Ok(None)` when the
    /// file does not exist; a file that fails validation is an error (the
    /// caller asked for that precise version, so silently falling back
    /// would lie).
    pub fn load_seq(&self, name: &str, seq: u64) -> Result<Option<LoadedSnapshot>, SnapshotError> {
        let path = self.file_path(name, seq)?;
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let body = decode_snapshot(&path, &bytes)?;
        Ok(Some(LoadedSnapshot {
            seq,
            body,
            path,
            skipped: 0,
        }))
    }

    /// Distinct stream names present in the store's directory, sorted.
    /// Files that do not match the `name.NNNNNN.ckpt` pattern are ignored;
    /// a missing directory is an empty store, not an error.
    pub fn streams(&self) -> Result<Vec<String>, SnapshotError> {
        let mut names: Vec<String> = self
            .walk()?
            .into_iter()
            .map(|(name, _, _)| name)
            .collect();
        names.sort();
        names.dedup();
        Ok(names)
    }

    /// All sequence numbers on disk for stream `name`, ascending. Presence
    /// only — a listed sequence may still fail validation when loaded.
    pub fn versions(&self, name: &str) -> Result<Vec<u64>, SnapshotError> {
        let mut seqs: Vec<u64> = self
            .walk()?
            .into_iter()
            .filter(|(n, _, _)| n == name)
            .map(|(_, seq, _)| seq)
            .collect();
        seqs.sort_unstable();
        seqs.dedup();
        Ok(seqs)
    }

    /// Deletes all but the newest `keep_last` snapshots of stream `name`,
    /// returning how many files were removed. Streams that snapshot every
    /// batch (e.g. the serve session layer) call this after each save to
    /// bound disk growth; keeping more than one file preserves the
    /// newest-first corrupt-skipping fallback of [`SnapshotStore::load_latest`].
    pub fn prune(&self, name: &str, keep_last: usize) -> Result<usize, SnapshotError> {
        checked(name)?;
        let mut files: Vec<(u64, PathBuf)> = self
            .walk()?
            .into_iter()
            .filter(|(n, _, _)| n == name)
            .map(|(_, seq, path)| (seq, path))
            .collect();
        files.sort_unstable_by_key(|(seq, _)| *seq);
        let cut = files.len().saturating_sub(keep_last);
        let mut removed = 0;
        for (_, path) in &files[..cut] {
            match fs::remove_file(path) {
                Ok(()) => removed += 1,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(removed)
    }

    /// Deletes snapshot `seq` of stream `name`, returning whether a file
    /// was actually removed. Used by replicated writers to roll back a
    /// version that failed to reach quorum; a missing file is a no-op so
    /// rollback is idempotent.
    pub fn remove(&self, name: &str, seq: u64) -> Result<bool, SnapshotError> {
        match fs::remove_file(self.file_path(name, seq)?) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    /// Every `(stream, seq, path)` triple in the directory.
    fn walk(&self) -> Result<Vec<(String, u64, PathBuf)>, SnapshotError> {
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let mut out = Vec::new();
        for entry in entries {
            let entry = entry?;
            let file_name = entry.file_name();
            let Some(fname) = file_name.to_str() else {
                continue;
            };
            let Some(stem) = fname.strip_suffix(".ckpt") else {
                continue;
            };
            let Some((name, seq)) = stem.rsplit_once('.') else {
                continue;
            };
            if let Ok(seq) = seq.parse::<u64>() {
                out.push((name.to_owned(), seq, entry.path()));
            }
        }
        Ok(out)
    }
}

/// A successfully loaded and validated snapshot.
#[derive(Debug, Clone)]
pub struct LoadedSnapshot {
    /// Sequence number of the snapshot file.
    pub seq: u64,
    /// The decoded JSON body.
    pub body: Value,
    /// The file it came from.
    pub path: PathBuf,
    /// Newer files that failed validation and were skipped to reach this
    /// one.
    pub skipped: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSite;
    use serde_json::json;

    fn temp_store(tag: &str) -> SnapshotStore {
        let dir = std::env::temp_dir().join(format!(
            "ofd_snapshot_test_{tag}_{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        SnapshotStore::new(dir)
    }

    #[test]
    fn stream_names_cannot_leave_the_store() {
        let root = std::env::temp_dir().join(format!("ofd_snapshot_names_{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let store = SnapshotStore::new(root.join("job-0123456789abcdef"));
        // The directories a traversal would aim at exist, as another
        // job's would.
        let sibling = root.join("job-fedcba9876543210");
        let absolute = root.join("planted");
        fs::create_dir_all(&sibling).unwrap();
        fs::create_dir_all(&absolute).unwrap();
        let empty = |dir: &Path| fs::read_dir(dir).unwrap().next().is_none();
        let body = json!({"level": 1});
        let bad = [
            "../job-fedcba9876543210/discovery".to_owned(),
            "..".to_owned(),
            "a/b".to_owned(),
            absolute.join("discovery").display().to_string(),
            String::new(),
            "x".repeat(65),
            "dotted.name".to_owned(),
        ];
        for name in &bad {
            let err = store
                .save(name, 7, &body)
                .expect_err("save refuses the name");
            assert!(err.to_string().contains("stream name"), "{name:?}: {err}");
            assert!(store.load_latest(name).is_err(), "{name:?}: load_latest");
            assert!(store.load_seq(name, 7).is_err(), "{name:?}: load_seq");
            assert!(store.prune(name, 0).is_err(), "{name:?}: prune");
            assert!(store.remove(name, 7).is_err(), "{name:?}: remove");
        }
        assert!(empty(&sibling), "nothing was written into the sibling job");
        assert!(empty(&absolute), "nothing was written at the absolute path");
        assert!(!store.dir().exists(), "a refused save creates nothing");
        store
            .save(&"x".repeat(64), 1, &body)
            .expect("64 bytes are allowed");
        store
            .save("A-z_09", 1, &body)
            .expect("the full alphabet is allowed");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn save_load_round_trip() {
        let store = temp_store("roundtrip");
        let body = json!({"version": 1, "level": 3, "sigma": [1, 2, 3]});
        store.save("discovery", 3, &body).unwrap();
        let loaded = store.load_latest("discovery").unwrap().unwrap();
        assert_eq!(loaded.seq, 3);
        assert_eq!(loaded.body, body);
        assert_eq!(loaded.skipped, 0);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn newest_valid_snapshot_wins() {
        let store = temp_store("newest");
        store.save("d", 1, &json!({"level": 1})).unwrap();
        store.save("d", 2, &json!({"level": 2})).unwrap();
        let loaded = store.load_latest("d").unwrap().unwrap();
        assert_eq!(loaded.seq, 2);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous() {
        let store = temp_store("fallback");
        store.save("d", 1, &json!({"level": 1})).unwrap();
        let p2 = store.save("d", 2, &json!({"level": 2})).unwrap();
        // Corrupt the newest file in place.
        let mut bytes = fs::read(&p2).unwrap();
        let mid = bytes.len() / 2;
        bytes.truncate(mid);
        fs::write(&p2, &bytes).unwrap();
        let loaded = store.load_latest("d").unwrap().unwrap();
        assert_eq!(loaded.seq, 1);
        assert_eq!(loaded.skipped, 1);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn bit_flip_is_detected() {
        let store = temp_store("bitflip");
        let p = store.save("d", 1, &json!({"x": 42})).unwrap();
        let mut bytes = fs::read(&p).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        fs::write(&p, &bytes).unwrap();
        assert!(store.load_latest("d").unwrap().is_none());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn missing_directory_is_empty_not_error() {
        let store = SnapshotStore::new("/nonexistent/ofd/snapshot/dir");
        assert!(store.load_latest("d").unwrap().is_none());
        assert_eq!(store.prune("d", 1).unwrap(), 0);
    }

    #[test]
    fn prune_keeps_the_newest_and_other_streams() {
        let store = temp_store("prune");
        for seq in 1..=5 {
            store.save("session", seq, &json!({"seq": seq})).unwrap();
        }
        store.save("other", 1, &json!({"seq": 1})).unwrap();
        assert_eq!(store.prune("session", 2).unwrap(), 3);
        assert_eq!(store.versions("session").unwrap(), vec![4, 5]);
        assert_eq!(store.versions("other").unwrap(), vec![1]);
        let loaded = store.load_latest("session").unwrap().unwrap();
        assert_eq!(loaded.seq, 5);
        // Pruning to more files than exist removes nothing.
        assert_eq!(store.prune("session", 10).unwrap(), 0);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn streams_are_independent() {
        let store = temp_store("streams");
        store.save("a", 5, &json!({"s": "a"})).unwrap();
        store.save("b", 9, &json!({"s": "b"})).unwrap();
        assert_eq!(store.load_latest("a").unwrap().unwrap().seq, 5);
        assert_eq!(store.load_latest("b").unwrap().unwrap().seq, 9);
        assert!(store.load_latest("c").unwrap().is_none());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn concurrent_handles_share_a_directory_without_corruption() {
        // The serve worker pool hands every job its own store handle, and
        // several of them point at subdirectories of one checkpoint root
        // — or, for same-stream writers, at the very same directory. Two
        // handles interleaving saves must never corrupt or cross-load.
        let store = temp_store("concurrent");
        let dir = store.dir().to_path_buf();
        let writers: Vec<_> = ["alpha", "beta"]
            .into_iter()
            .map(|stream| {
                let dir = dir.clone();
                std::thread::spawn(move || {
                    let handle = SnapshotStore::new(&dir);
                    for seq in 1..=40u64 {
                        handle
                            .save(stream, seq, &json!({"stream": stream, "seq": seq}))
                            .unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        // A third handle reads both streams: each latest is intact, from
        // the right writer, with nothing skipped as corrupt.
        let reader = SnapshotStore::new(&dir);
        for stream in ["alpha", "beta"] {
            let loaded = reader.load_latest(stream).unwrap().unwrap();
            assert_eq!(loaded.seq, 40);
            assert_eq!(loaded.skipped, 0, "no snapshot of {stream} was torn");
            assert_eq!(
                loaded.body.get("stream").and_then(Value::as_str),
                Some(stream),
                "stream {stream} cross-loaded another writer's snapshot"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interleaved_writers_on_one_stream_yield_a_self_consistent_latest() {
        // Worst case: two handles race on the SAME stream (two servers
        // misconfigured onto one job directory). Atomic writes mean the
        // loader must always see a checksum-valid snapshot whose body is
        // internally consistent — one writer's or the other's, never a
        // splice of both.
        let store = temp_store("interleave");
        let dir = store.dir().to_path_buf();
        let writers: Vec<_> = [1u64, 2u64]
            .into_iter()
            .map(|writer| {
                let dir = dir.clone();
                std::thread::spawn(move || {
                    let handle = SnapshotStore::new(&dir);
                    for seq in 1..=25u64 {
                        let body = json!({
                            "writer": writer,
                            "seq": seq,
                            "fingerprint": writer.wrapping_mul(1_000_003) ^ seq,
                        });
                        handle.save("discovery", seq, &body).unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let loaded = SnapshotStore::new(&dir)
            .load_latest("discovery")
            .unwrap()
            .unwrap();
        assert_eq!(loaded.seq, 25);
        let writer = loaded.body.get("writer").and_then(Value::as_u64).unwrap();
        let fp = loaded.body.get("fingerprint").and_then(Value::as_u64).unwrap();
        assert!(writer == 1 || writer == 2);
        assert_eq!(
            fp,
            writer.wrapping_mul(1_000_003) ^ loaded.seq,
            "loaded body mixes fields from both writers"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_io_fault_leaves_previous_snapshot_intact() {
        let store = temp_store("iofault");
        store.save("d", 1, &json!({"level": 1})).unwrap();
        let faulty = store
            .clone()
            .with_faults(FaultPlan::scheduled(FaultSite::SnapshotIo, 1));
        assert!(matches!(
            faulty.save("d", 2, &json!({"level": 2})),
            Err(SnapshotError::Io(_))
        ));
        let loaded = store.load_latest("d").unwrap().unwrap();
        assert_eq!(loaded.seq, 1, "failed write must not clobber the stream");
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn injected_torn_write_is_skipped_by_the_loader() {
        let store = temp_store("torn");
        store.save("d", 1, &json!({"level": 1})).unwrap();
        let faulty = store
            .clone()
            .with_faults(FaultPlan::scheduled(FaultSite::SnapshotTorn, 1));
        assert!(faulty.save("d", 2, &json!({"level": 2})).is_err());
        let loaded = store.load_latest("d").unwrap().unwrap();
        assert_eq!(loaded.seq, 1);
        assert_eq!(loaded.skipped, 1, "torn file observed and rejected");
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn atomic_write_replaces_existing_content() {
        let dir = std::env::temp_dir().join(format!("ofd_aw_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        atomic_write(&path, b"first").unwrap();
        atomic_write(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        // No temp litter.
        let leftover: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftover.is_empty(), "temp files must be cleaned up");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_fsyncs_the_parent_directory() {
        // The durability path: rename, then fsync_dir on the parent. A
        // live directory syncs cleanly; a vanished one must surface as an
        // error instead of a silently non-durable checkpoint.
        let dir = std::env::temp_dir().join(format!("ofd_fsync_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        fsync_dir(&dir).expect("fsync of a real directory succeeds");
        atomic_write(&dir.join("snap.ckpt"), b"payload").expect("write with dir fsync");
        assert_eq!(fs::read(dir.join("snap.ckpt")).unwrap(), b"payload");
        let _ = fs::remove_dir_all(&dir);
        #[cfg(unix)]
        {
            assert!(
                fsync_dir(&dir).is_err(),
                "fsync of a missing directory reports the durability gap"
            );
            assert!(
                atomic_write(&dir.join("snap.ckpt"), b"x").is_err(),
                "atomic_write cannot pretend durability without its parent"
            );
        }
    }

    #[test]
    fn store_enumerates_streams_and_versions() {
        let store = temp_store("enumerate");
        store.save("catalog-a", 1, &json!({"v": 1})).unwrap();
        store.save("catalog-a", 3, &json!({"v": 3})).unwrap();
        store.save("catalog-b", 7, &json!({"v": 7})).unwrap();
        assert_eq!(store.streams().unwrap(), vec!["catalog-a", "catalog-b"]);
        assert_eq!(store.versions("catalog-a").unwrap(), vec![1, 3]);
        assert_eq!(store.versions("catalog-b").unwrap(), vec![7]);
        assert!(store.versions("catalog-c").unwrap().is_empty());
        // Exact-version load: hit, miss, and corrupt-is-an-error.
        assert_eq!(
            store.load_seq("catalog-a", 3).unwrap().unwrap().body,
            json!({"v": 3})
        );
        assert!(store.load_seq("catalog-a", 2).unwrap().is_none());
        let p = store.save("catalog-a", 4, &json!({"v": 4})).unwrap();
        let mut bytes = fs::read(&p).unwrap();
        bytes.truncate(bytes.len() / 2);
        fs::write(&p, &bytes).unwrap();
        assert!(matches!(
            store.load_seq("catalog-a", 4),
            Err(SnapshotError::Corrupt { .. })
        ));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn missing_directory_enumerates_empty() {
        let store = SnapshotStore::new("/nonexistent/ofd/snapshot/dir");
        assert!(store.streams().unwrap().is_empty());
        assert!(store.versions("d").unwrap().is_empty());
        assert!(store.load_seq("d", 1).unwrap().is_none());
    }

    #[test]
    fn fingerprint_is_order_and_boundary_sensitive() {
        let mut a = Fingerprint::new();
        a.update_str("ab").update_str("c");
        let mut b = Fingerprint::new();
        b.update_str("a").update_str("bc");
        assert_ne!(a.finish(), b.finish());
        let mut c = Fingerprint::new();
        c.update_str("ab").update_str("c");
        assert_eq!(a.finish(), c.finish());
        assert_ne!(
            Fingerprint::new().update_u64(1).update_u64(2).finish(),
            Fingerprint::new().update_u64(2).update_u64(1).finish()
        );
    }

    #[test]
    fn envelope_rejects_wrong_version_and_magic() {
        let body = json!({"v": 1});
        let bytes = encode_snapshot(&body);
        let p = Path::new("test.ckpt");
        assert!(decode_snapshot(p, &bytes).is_ok());
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert!(matches!(
            decode_snapshot(p, &wrong),
            Err(SnapshotError::Corrupt { .. })
        ));
        let v2 = String::from_utf8(bytes.clone())
            .unwrap()
            .replace("v1", "v2");
        assert!(decode_snapshot(p, v2.as_bytes()).is_err());
    }

    /// `base` with byte flips, inserts and deletes, picked by `ops`.
    fn mutate(base: &[u8], ops: &[(u8, usize, u8)]) -> Vec<u8> {
        let mut out = base.to_vec();
        for &(op, at, byte) in ops {
            let at = at % (out.len() + 1);
            match op {
                0 if at < out.len() => out[at] = byte,
                1 => out.insert(at, byte),
                _ if at < out.len() => {
                    out.remove(at);
                }
                _ => {}
            }
        }
        out
    }

    /// `decode_snapshot` is total: arbitrary bytes and byte edits of a
    /// real envelope (header digits, the claimed length, the checksum,
    /// the JSON body) decode or return a typed error, and whatever
    /// decodes re-encodes to the same value.
    #[test]
    fn decode_snapshot_is_total() {
        use proptest::prelude::*;
        let valid = encode_snapshot(&json!({"level": 3, "sigma": [[1, 2]], "note": "a\nb"}));
        let path = Path::new("fuzz.ckpt");
        // Header bytes are drawn one time in three.
        let byte = || {
            (0u16..384).prop_map(|x| match x {
                0..=255 => x as u8,
                _ => b"OFDSNAP v1 0123456789abcdef\n{}[]\""[usize::from(x % 32)],
            })
        };
        proptest!(ProptestConfig::with_cases(512), |(
            raw in prop::collection::vec(byte(), 0..120),
            ops in prop::collection::vec((0u8..3, 0usize..512, byte()), 1..6),
        )| {
            for bytes in [raw.clone(), mutate(&valid, &ops)] {
                if let Ok(body) = decode_snapshot(path, &bytes) {
                    let again = encode_snapshot(&body);
                    prop_assert_eq!(decode_snapshot(path, &again).unwrap(), body);
                }
            }
        });
    }
}
