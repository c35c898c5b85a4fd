//! Crash-safe, generation-swapped segment store.
//!
//! A [`GenerationStore`] owns a directory of immutable [`Segment`] images
//! plus a `MANIFEST` file naming the durable generations. Publishing a new
//! generation is atomic at every byte: the segment image and the manifest
//! are each written to a temp file, fsynced, renamed into place, and the
//! directory fsynced, so a crash anywhere in the sequence leaves either the
//! old or the new generation fully intact — never a torn mix.
//!
//! Readers go through a [`SwapCell`]: loading the current generation is an
//! atomic epoch read plus an uncontended lock-guarded `Arc` clone, so
//! in-flight requests finish on the generation they pinned while new
//! requests observe the swap immediately. No allocation happens on the
//! load path.
//!
//! On boot, [`GenerationStore::open`] replays the manifest newest-first:
//! images that fail length, content-hash, or structural validation are
//! quarantined (renamed aside with a `.quarantined` suffix and counted)
//! and the newest fully-valid generation is recovered. Orphan images newer
//! than the recovered generation — the footprint of a crash between the
//! segment rename and the manifest rename — are quarantined too, and
//! leftover temp files are deleted.
//!
//! The manifest (`uops-manifest v2`) records each image's
//! [`image_hash`]: four interleaved FNV-style lanes over 64-bit words,
//! ~0.2 ms over a 3.2 MB image. The store takes it from
//! [`Segment::content_hash`], which caches it on the segment, so a
//! published generation is hashed once for the manifest, the server's
//! ETags and anyone else; recovery seeds the cache with the hash it just
//! verified.
//!
//! Stores written before the image hash have a `uops-manifest v1`
//! manifest, whose lines hold byte-wise FNV-1a ([`fnv1a_64`]) hashes.
//! [`GenerationStore::open`] still reads them: it checks each image with
//! [`fnv1a_64`], does not seed the segment's cache with that value, and
//! records the recovered generation under its [`image_hash`], so the first
//! publish after the upgrade writes a complete `v2` manifest (the older
//! `v1` fallback line falls off the retention horizon with it). Nothing
//! writes `v1`.
//!
//! All filesystem mutations route through the [`StoreIo`] trait so callers
//! (notably the server's `--features fault-injection` shim) can script
//! write/fsync/rename faults against the publish path without patching
//! this crate.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::error::DbError;
use crate::hash::image_hash;
use crate::plan::fnv1a_64;
use crate::segment::Segment;

/// Slots in a [`SwapCell`] ring. A reader that loads the epoch and is then
/// descheduled stays coherent as long as fewer than `SWAP_SLOTS` publishes
/// land before it takes the slot lock; swaps are rare (ingest-driven), so
/// eight slots is far beyond any realistic publish burst.
const SWAP_SLOTS: usize = 8;

/// Manifest generations retained on disk (current plus fallbacks). Older
/// images are deleted once a publish pushes them past the horizon.
const RETAIN_GENERATIONS: usize = 2;

// Recovery from a `v1` manifest rehashes only the recovered generation, so
// its older `v1` lines must all fall off at the first publish.
const _: () = assert!(RETAIN_GENERATIONS <= 2);

/// First line of a `MANIFEST` file; bump the trailing version on format
/// changes.
const MANIFEST_HEADER: &str = "uops-manifest v2";

/// First line of a manifest whose hashes are [`fnv1a_64`]: read on
/// recovery, never written.
const MANIFEST_HEADER_V1: &str = "uops-manifest v1";

/// Name of the manifest file inside a store directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// A lock-free-read cell holding an `Arc<T>` that can be atomically
/// replaced. The std-only stand-in for `arc_swap`: a ring of
/// [`RwLock<Arc<T>>`] slots indexed by an atomic epoch counter.
///
/// [`SwapCell::load`] is one atomic load (`Acquire`), one read-lock on a
/// slot that is uncontended outside the instant of a swap, and one `Arc`
/// clone — no allocation, suitable for a per-request hot path.
/// [`SwapCell::swap`] installs the new value in the *next* slot before
/// bumping the epoch, so concurrent loaders never observe a half-written
/// slot.
pub struct SwapCell<T> {
    slots: [RwLock<Arc<T>>; SWAP_SLOTS],
    epoch: AtomicUsize,
    /// Serializes swappers so the read-modify-write on `epoch` is safe
    /// even when several threads publish concurrently.
    swap: Mutex<()>,
}

impl<T> SwapCell<T> {
    /// Creates a cell holding `initial`.
    #[must_use]
    pub fn new(initial: Arc<T>) -> SwapCell<T> {
        SwapCell {
            slots: std::array::from_fn(|_| RwLock::new(Arc::clone(&initial))),
            epoch: AtomicUsize::new(0),
            swap: Mutex::new(()),
        }
    }

    /// The current value. Allocation-free: epoch load + slot read-lock +
    /// `Arc` clone.
    #[must_use]
    pub fn load(&self) -> Arc<T> {
        let at = self.epoch.load(Ordering::Acquire);
        let slot =
            self.slots[at % SWAP_SLOTS].read().unwrap_or_else(std::sync::PoisonError::into_inner);
        Arc::clone(&slot)
    }

    /// Atomically replaces the current value. Readers either see the old
    /// value (and keep their pinned `Arc` alive as long as they need it)
    /// or the new one; never a mix.
    pub fn swap(&self, next: Arc<T>) {
        let _swapper = self.swap.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let at = self.epoch.load(Ordering::Relaxed).wrapping_add(1);
        {
            let mut slot = self.slots[at % SWAP_SLOTS]
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            *slot = next;
        }
        self.epoch.store(at, Ordering::Release);
    }
}

impl<T: fmt::Debug> fmt::Debug for SwapCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SwapCell").field("current", &self.load()).finish()
    }
}

/// The filesystem mutations a [`GenerationStore`] performs while
/// publishing. The default implementation ([`RealStoreIo`]) calls straight
/// into `std::fs`; the server's fault-injection shim substitutes an
/// implementation that consults a fault script first, which is how chaos
/// tests prove a fault at any publish step never tears a generation.
pub trait StoreIo: Send + Sync {
    /// Creates (truncating) `path` and writes `bytes` to it.
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Flushes `path`'s data and metadata to stable storage.
    fn fsync_file(&self, path: &Path) -> io::Result<()>;
    /// Atomically renames `from` to `to` (same directory).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Flushes the directory entry table at `dir` so prior renames are
    /// durable.
    fn fsync_dir(&self, dir: &Path) -> io::Result<()>;
}

/// [`StoreIo`] that performs the real syscalls with no interposition.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealStoreIo;

impl StoreIo for RealStoreIo {
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut file = OpenOptions::new().write(true).create(true).truncate(true).open(path)?;
        file.write_all(bytes)
    }

    fn fsync_file(&self, path: &Path) -> io::Result<()> {
        File::open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }
}

/// One durable generation: the id and its validated segment image. The
/// [`image_hash`] recorded in the `v2` manifest is the segment's cached
/// [`Segment::content_hash`], which also seeds the ETags when a server
/// serves this generation. A generation recovered from a `v1` manifest
/// was checked with [`fnv1a_64`]; its segment computes the
/// [`image_hash`] once, at recovery, for the next manifest.
#[derive(Debug)]
pub struct Generation {
    /// Monotonic generation id; manifest file names are `gen-<id>.seg`.
    pub id: u64,
    /// The validated, immutable segment image.
    pub segment: Arc<Segment>,
}

/// One manifest line: a generation the store still retains on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ManifestEntry {
    id: u64,
    file: String,
    hash: u64,
    len: u64,
}

impl ManifestEntry {
    fn render(&self, out: &mut String) {
        use fmt::Write as _;
        let _ = writeln!(out, "{} {} {:016x} {}", self.id, self.file, self.hash, self.len);
    }

    fn parse(line: &str) -> Option<ManifestEntry> {
        let mut parts = line.split_ascii_whitespace();
        let id = parts.next()?.parse().ok()?;
        let file = parts.next()?.to_string();
        let hash = u64::from_str_radix(parts.next()?, 16).ok()?;
        let len = parts.next()?.parse().ok()?;
        if parts.next().is_some() || file.contains('/') || file.contains("..") {
            return None;
        }
        Some(ManifestEntry { id, file, hash, len })
    }
}

/// Mutable publish-side state, guarded by the publish mutex so concurrent
/// ingests serialize: manifest contents and the next generation id.
#[derive(Debug)]
struct PublishState {
    next_id: u64,
    retained: Vec<ManifestEntry>,
}

/// The result of opening a store directory: the store plus how many
/// invalid images recovery quarantined.
#[derive(Debug)]
pub struct RecoveredStore {
    /// The opened store, serving the newest valid generation.
    pub store: GenerationStore,
    /// Images renamed aside because they failed validation or hashing.
    pub quarantined: u64,
}

/// A crash-safe store of segment generations backed by one directory.
/// See the module docs for the durability contract.
pub struct GenerationStore {
    dir: PathBuf,
    current: SwapCell<Generation>,
    publish: Mutex<PublishState>,
    quarantined: AtomicU64,
}

impl fmt::Debug for GenerationStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let current = self.current.load();
        f.debug_struct("GenerationStore")
            .field("dir", &self.dir)
            .field("generation", &current.id)
            .field("records", &current.segment.len())
            .finish()
    }
}

fn io_error(path: &Path, err: &io::Error) -> DbError {
    DbError::Io { path: path.display().to_string(), message: err.to_string() }
}

fn generation_file(id: u64) -> String {
    format!("gen-{id}.seg")
}

impl GenerationStore {
    /// Creates a new store at `dir` (the directory is created if missing)
    /// and durably publishes `segment` as generation 1. Fails if `dir`
    /// already holds a manifest — use [`GenerationStore::open`] then.
    pub fn bootstrap(
        dir: impl AsRef<Path>,
        segment: Arc<Segment>,
        io: &dyn StoreIo,
    ) -> Result<GenerationStore, DbError> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir).map_err(|e| io_error(dir, &e))?;
        if dir.join(MANIFEST_FILE).exists() {
            return Err(DbError::Io {
                path: dir.display().to_string(),
                message: "directory already holds a manifest; open it instead".to_string(),
            });
        }
        let placeholder = Arc::new(Generation { id: 0, segment: Arc::clone(&segment) });
        let store = GenerationStore {
            dir: dir.to_path_buf(),
            current: SwapCell::new(placeholder),
            publish: Mutex::new(PublishState { next_id: 1, retained: Vec::new() }),
            quarantined: AtomicU64::new(0),
        };
        store.publish(segment, io)?;
        Ok(store)
    }

    /// Opens the store at `dir`, recovering the newest valid generation.
    /// Returns `Ok(None)` when `dir` holds no manifest (a fresh
    /// directory); invalid images are quarantined and counted in the
    /// returned [`RecoveredStore`].
    pub fn open(dir: impl AsRef<Path>) -> Result<Option<RecoveredStore>, DbError> {
        let dir = dir.as_ref();
        let manifest_path = dir.join(MANIFEST_FILE);
        let manifest = match fs::read_to_string(&manifest_path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_error(&manifest_path, &e)),
        };
        let mut lines = manifest.lines();
        let v1 = match lines.next().map(str::trim) {
            Some(MANIFEST_HEADER) => false,
            Some(MANIFEST_HEADER_V1) => true,
            _ => {
                return Err(DbError::Io {
                    path: manifest_path.display().to_string(),
                    message: format!(
                        "bad manifest header (want `{MANIFEST_HEADER}` or `{MANIFEST_HEADER_V1}`)"
                    ),
                })
            }
        };
        // Malformed lines are skipped rather than fatal: the manifest is
        // published atomically, so a bad line means bit rot, and the
        // recovery sweep below decides what is still servable.
        let entries: Vec<ManifestEntry> = lines.filter_map(ManifestEntry::parse).collect();
        if entries.is_empty() {
            return Err(DbError::Io {
                path: manifest_path.display().to_string(),
                message: "manifest lists no generations".to_string(),
            });
        }

        let mut quarantined = 0u64;
        let mut recovered: Option<(Generation, usize)> = None;
        // Newest entry last in the file; validate newest-first.
        for (at, entry) in entries.iter().enumerate().rev() {
            let path = dir.join(&entry.file);
            match Self::validate_image(&path, entry, v1) {
                Ok(segment) => {
                    recovered = Some((Generation { id: entry.id, segment: Arc::new(segment) }, at));
                    break;
                }
                Err(_) => {
                    quarantine(&path);
                    quarantined += 1;
                }
            }
        }
        let Some((generation, keep_from)) = recovered else {
            return Err(DbError::Io {
                path: dir.display().to_string(),
                message: format!(
                    "no valid generation: all {} manifest entries failed validation",
                    entries.len()
                ),
            });
        };

        let mut retained: Vec<ManifestEntry> = entries[..=keep_from].to_vec();
        if v1 {
            retained[keep_from].hash = generation.segment.content_hash();
        }
        let mut max_id = entries.iter().map(|e| e.id).max().unwrap_or(generation.id);

        // Sweep the directory: temp files die, orphan images newer than
        // the recovered generation (a crash between segment rename and
        // manifest rename) are quarantined, stale retention leftovers are
        // deleted.
        if let Ok(listing) = fs::read_dir(dir) {
            for dirent in listing.flatten() {
                let name = dirent.file_name();
                let Some(name) = name.to_str() else { continue };
                let path = dirent.path();
                if name.ends_with(".tmp") {
                    let _ = fs::remove_file(&path);
                    continue;
                }
                let Some(id) = parse_generation_file(name) else { continue };
                if retained.iter().any(|e| e.file == name) {
                    continue;
                }
                max_id = max_id.max(id);
                if id > generation.id {
                    quarantine(&path);
                    quarantined += 1;
                } else {
                    let _ = fs::remove_file(&path);
                }
            }
        }

        let store = GenerationStore {
            dir: dir.to_path_buf(),
            current: SwapCell::new(Arc::new(generation)),
            publish: Mutex::new(PublishState { next_id: max_id + 1, retained }),
            quarantined: AtomicU64::new(quarantined),
        };
        Ok(Some(RecoveredStore { store, quarantined }))
    }

    /// Reads the image `entry` names and checks its length, its hash
    /// ([`fnv1a_64`] for a `v1` manifest, else [`image_hash`]) and its
    /// structure.
    fn validate_image(path: &Path, entry: &ManifestEntry, v1: bool) -> Result<Segment, DbError> {
        let bytes = fs::read(path).map_err(|e| io_error(path, &e))?;
        if bytes.len() as u64 != entry.len {
            return Err(DbError::Io {
                path: path.display().to_string(),
                message: format!(
                    "length mismatch: {} on disk, {} in manifest",
                    bytes.len(),
                    entry.len
                ),
            });
        }
        let hash = if v1 { fnv1a_64(&bytes) } else { image_hash(&bytes) };
        if hash != entry.hash {
            return Err(DbError::Io {
                path: path.display().to_string(),
                message: "content hash mismatch".to_string(),
            });
        }
        // An image hash just verified seeds the segment's cache: recovery
        // hashes the image once, not again for the first ETag. A `v1`
        // FNV-1a value must not stand in for it.
        if v1 {
            Segment::from_bytes(bytes)
        } else {
            Segment::from_hashed_bytes(bytes, hash)
        }
    }

    /// The directory this store publishes into.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current generation. Allocation-free; callers keep the returned
    /// `Arc` for the duration of a request to stay on one coherent
    /// generation.
    #[must_use]
    pub fn current(&self) -> Arc<Generation> {
        self.current.load()
    }

    /// Images quarantined by recovery (and any later noted via
    /// [`GenerationStore::note_quarantined`]).
    #[must_use]
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Adds to the quarantine counter (used when a caller quarantines an
    /// image outside recovery).
    pub fn note_quarantined(&self, n: u64) {
        self.quarantined.fetch_add(n, Ordering::Relaxed);
    }

    /// Durably publishes `segment` as the next generation and swaps it
    /// live. The write sequence is temp + fsync + rename + dir-fsync for
    /// the image, then the same dance for the manifest; an error at any
    /// step leaves the previous generation fully intact (on disk and in
    /// memory) and the partial temp files for the boot sweep to delete.
    pub fn publish(
        &self,
        segment: Arc<Segment>,
        io: &dyn StoreIo,
    ) -> Result<Arc<Generation>, DbError> {
        let mut state = self.publish.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        self.publish_locked(&mut state, segment, io)
    }

    /// Merges `incoming` into the current generation (last-writer-wins,
    /// via [`Segment::merge_refs`]) and durably publishes the result. The
    /// read-merge-publish runs under the publish lock, so concurrent
    /// ingests serialize and none is lost.
    pub fn publish_merged(
        &self,
        incoming: &Segment,
        io: &dyn StoreIo,
    ) -> Result<Arc<Generation>, DbError> {
        let mut state = self.publish.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let current = self.current.load();
        let merged = Segment::merge_refs(&[&current.segment, incoming]);
        self.publish_locked(&mut state, Arc::new(merged), io)
    }

    fn publish_locked(
        &self,
        state: &mut PublishState,
        segment: Arc<Segment>,
        io: &dyn StoreIo,
    ) -> Result<Arc<Generation>, DbError> {
        let id = state.next_id;
        let file = generation_file(id);
        let bytes = segment.as_bytes();
        let entry = ManifestEntry {
            id,
            file: file.clone(),
            hash: segment.content_hash(),
            len: bytes.len() as u64,
        };

        // Image: temp + fsync + rename + dir-fsync.
        let tmp = self.dir.join(format!("{file}.tmp"));
        let live = self.dir.join(&file);
        io.write_file(&tmp, bytes).map_err(|e| io_error(&tmp, &e))?;
        io.fsync_file(&tmp).map_err(|e| io_error(&tmp, &e))?;
        io.rename(&tmp, &live).map_err(|e| io_error(&live, &e))?;
        io.fsync_dir(&self.dir).map_err(|e| io_error(&self.dir, &e))?;

        // Manifest: same dance. Until the manifest rename lands, the new
        // image is an orphan the boot sweep quarantines; after it lands,
        // the new generation is the durable truth.
        let mut retained = state.retained.clone();
        retained.push(entry);
        if retained.len() > RETAIN_GENERATIONS {
            retained.drain(..retained.len() - RETAIN_GENERATIONS);
        }
        let mut manifest = String::with_capacity(64 + retained.len() * 48);
        manifest.push_str(MANIFEST_HEADER);
        manifest.push('\n');
        for kept in &retained {
            kept.render(&mut manifest);
        }
        let manifest_tmp = self.dir.join(format!("{MANIFEST_FILE}.tmp"));
        let manifest_live = self.dir.join(MANIFEST_FILE);
        io.write_file(&manifest_tmp, manifest.as_bytes())
            .map_err(|e| io_error(&manifest_tmp, &e))?;
        io.fsync_file(&manifest_tmp).map_err(|e| io_error(&manifest_tmp, &e))?;
        io.rename(&manifest_tmp, &manifest_live).map_err(|e| io_error(&manifest_live, &e))?;
        io.fsync_dir(&self.dir).map_err(|e| io_error(&self.dir, &e))?;

        // Durable: retire images that fell off the retention horizon and
        // swap the new generation live.
        for dropped in &state.retained {
            if !retained.iter().any(|kept| kept.file == dropped.file) {
                let _ = fs::remove_file(self.dir.join(&dropped.file));
            }
        }
        state.retained = retained;
        state.next_id = id + 1;
        let generation = Arc::new(Generation { id, segment });
        self.current.swap(Arc::clone(&generation));
        Ok(generation)
    }
}

fn parse_generation_file(name: &str) -> Option<u64> {
    name.strip_prefix("gen-")?.strip_suffix(".seg")?.parse().ok()
}

/// Renames `path` aside with a `.quarantined` suffix (falling back to
/// numbered suffixes if a previous quarantine of the same name exists).
fn quarantine(path: &Path) {
    let mut aside = path.as_os_str().to_owned();
    aside.push(".quarantined");
    let mut target = PathBuf::from(aside);
    let mut n = 0u32;
    while target.exists() {
        n += 1;
        let mut numbered = path.as_os_str().to_owned();
        numbered.push(format!(".quarantined.{n}"));
        target = PathBuf::from(numbered);
    }
    // Best-effort: an unreadable/unrenameable image is left in place; it
    // will fail validation again next boot.
    let _ = fs::rename(path, &target);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{Snapshot, VariantRecord};
    use std::sync::atomic::AtomicU32;

    static DIRS: AtomicU32 = AtomicU32::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        let n = DIRS.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("uops_store_{tag}_{}_{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn snapshot(records: &[(&str, &str, u32)]) -> Snapshot {
        let mut snapshot = Snapshot::new("store tests");
        for (mnemonic, uarch, uops) in records {
            snapshot.records.push(VariantRecord {
                mnemonic: (*mnemonic).to_string(),
                variant: "R64, R64".to_string(),
                uarch: (*uarch).to_string(),
                uop_count: *uops,
                ..Default::default()
            });
        }
        snapshot
    }

    fn segment(records: &[(&str, &str, u32)]) -> Arc<Segment> {
        Arc::new(Segment::from_bytes(Segment::encode(&snapshot(records))).unwrap())
    }

    /// A `StoreIo` that fails the Nth mutation (0-based) with `EIO` and
    /// passes everything else through — enough to enumerate every publish
    /// step as a fault point.
    struct FailAt {
        at: u32,
        calls: AtomicU32,
    }

    impl FailAt {
        fn new(at: u32) -> FailAt {
            FailAt { at, calls: AtomicU32::new(0) }
        }

        fn check(&self) -> io::Result<()> {
            if self.calls.fetch_add(1, Ordering::Relaxed) == self.at {
                Err(io::Error::new(io::ErrorKind::Other, "injected fault"))
            } else {
                Ok(())
            }
        }
    }

    impl StoreIo for FailAt {
        fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            self.check()?;
            RealStoreIo.write_file(path, bytes)
        }
        fn fsync_file(&self, path: &Path) -> io::Result<()> {
            self.check()?;
            RealStoreIo.fsync_file(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            self.check()?;
            RealStoreIo.rename(from, to)
        }
        fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
            self.check()?;
            RealStoreIo.fsync_dir(dir)
        }
    }

    #[test]
    fn swap_cell_load_swap_round_trip() {
        let cell = SwapCell::new(Arc::new(1u32));
        assert_eq!(*cell.load(), 1);
        let pinned = cell.load();
        for n in 2..20u32 {
            cell.swap(Arc::new(n));
            assert_eq!(*cell.load(), n);
        }
        // A pinned handle survives arbitrarily many swaps unchanged.
        assert_eq!(*pinned, 1);
    }

    #[test]
    fn bootstrap_publish_and_reopen() {
        let dir = scratch_dir("boot");
        let store =
            GenerationStore::bootstrap(&dir, segment(&[("ADD", "Skylake", 1)]), &RealStoreIo)
                .unwrap();
        assert_eq!(store.current().id, 1);
        let gen2 = store.publish(segment(&[("ADD", "Skylake", 2)]), &RealStoreIo).unwrap();
        assert_eq!(gen2.id, 2);
        assert_eq!(store.current().id, 2);

        let recovered = GenerationStore::open(&dir).unwrap().expect("manifest exists");
        assert_eq!(recovered.quarantined, 0);
        let current = recovered.store.current();
        assert_eq!(current.id, 2);
        assert_eq!(current.segment.as_bytes(), gen2.segment.as_bytes());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_published_or_recovered_image_carries_its_manifest_hash() {
        let dir = scratch_dir("hash");
        let store =
            GenerationStore::bootstrap(&dir, segment(&[("ADD", "Skylake", 1)]), &RealStoreIo)
                .unwrap();
        let incoming = segment(&[("SUB", "Skylake", 2)]);
        let published = store.publish_merged(&incoming, &RealStoreIo).unwrap();
        // Publishing hashed the image for the manifest; the segment keeps
        // that hash, so a server swapping it in does not hash it again.
        assert!(published.segment.is_hashed());
        assert_eq!(published.segment.content_hash(), image_hash(published.segment.as_bytes()));
        let manifest = fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        let entry = manifest.lines().rev().find_map(ManifestEntry::parse).unwrap();
        assert_eq!(entry.hash, published.segment.content_hash());

        // Recovery seeds the cache from the hash it verified.
        let recovered = GenerationStore::open(&dir).unwrap().expect("manifest exists");
        let current = recovered.store.current();
        assert!(current.segment.is_hashed());
        assert_eq!(current.segment.content_hash(), entry.hash);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_fresh_directory_returns_none() {
        let dir = scratch_dir("fresh");
        fs::create_dir_all(&dir).unwrap();
        assert!(GenerationStore::open(&dir).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn publish_merged_is_last_writer_wins() {
        let dir = scratch_dir("merge");
        let store =
            GenerationStore::bootstrap(&dir, segment(&[("ADD", "Skylake", 1)]), &RealStoreIo)
                .unwrap();
        let incoming = segment(&[("ADD", "Skylake", 4), ("MUL", "Skylake", 3)]);
        let merged = store.publish_merged(&incoming, &RealStoreIo).unwrap();
        assert_eq!(merged.segment.len(), 2);
        let db = merged.segment.db();
        let expected = Segment::merge_refs(&[&segment(&[("ADD", "Skylake", 1)]), &incoming]);
        assert_eq!(merged.segment.as_bytes(), expected.as_bytes());
        drop(db);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_at_every_publish_step_never_tears_a_generation() {
        // The publish sequence performs exactly 8 StoreIo mutations
        // (write+fsync+rename+dirsync, twice). Fail each one in turn:
        // the publish must error, the in-memory generation must be
        // unchanged, a reopen must recover the old generation
        // byte-identically, and a clean retry must succeed.
        for fault_at in 0..8u32 {
            let dir = scratch_dir("fault");
            let first = segment(&[("ADD", "Skylake", 1)]);
            let store = GenerationStore::bootstrap(&dir, Arc::clone(&first), &RealStoreIo).unwrap();
            let baseline = store.current();

            let io = FailAt::new(fault_at);
            let next = segment(&[("ADD", "Skylake", 9)]);
            let err = store.publish(Arc::clone(&next), &io);
            assert!(err.is_err(), "fault at step {fault_at} must surface");
            assert_eq!(store.current().id, baseline.id, "fault at step {fault_at}");

            let recovered = GenerationStore::open(&dir).unwrap().expect("manifest intact");
            let current = recovered.store.current();
            let intact_old = current.id == baseline.id
                && current.segment.as_bytes() == baseline.segment.as_bytes();
            let intact_new = current.segment.as_bytes() == next.as_bytes();
            assert!(intact_old || intact_new, "fault at step {fault_at}: torn generation");
            // Only the very last step (the dir fsync after the manifest
            // rename) may leave the new generation durable; at every
            // earlier step the old generation must be what recovers.
            if fault_at < 7 {
                assert!(intact_old, "fault at step {fault_at}: old generation must recover");
            }

            // Retry cleanly on the recovered store: publishes and swaps.
            let published = recovered.store.publish(Arc::clone(&next), &RealStoreIo).unwrap();
            assert!(published.id > baseline.id);
            assert_eq!(recovered.store.current().segment.as_bytes(), next.as_bytes());
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn fault_between_image_and_manifest_quarantines_orphan() {
        // Fail the manifest rename (mutation #6): the new image was
        // renamed live but never became durable truth. Recovery must
        // serve the old generation and quarantine the orphan.
        let dir = scratch_dir("orphan");
        let first = segment(&[("ADD", "Skylake", 1)]);
        let store = GenerationStore::bootstrap(&dir, Arc::clone(&first), &RealStoreIo).unwrap();
        let io = FailAt::new(6);
        assert!(store.publish(segment(&[("ADD", "Skylake", 7)]), &io).is_err());

        let recovered = GenerationStore::open(&dir).unwrap().expect("manifest intact");
        assert_eq!(recovered.store.current().id, 1);
        assert_eq!(recovered.quarantined, 1);
        assert!(dir.join("gen-2.seg.quarantined").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_image_is_quarantined_and_previous_generation_recovered() {
        let dir = scratch_dir("corrupt");
        let first = segment(&[("ADD", "Skylake", 1)]);
        let store = GenerationStore::bootstrap(&dir, Arc::clone(&first), &RealStoreIo).unwrap();
        store.publish(segment(&[("ADD", "Skylake", 2)]), &RealStoreIo).unwrap();

        // Flip bytes in the newest image after it went durable.
        let newest = dir.join("gen-2.seg");
        let mut bytes = fs::read(&newest).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0xff;
        fs::write(&newest, bytes).unwrap();

        let recovered = GenerationStore::open(&dir).unwrap().expect("manifest intact");
        assert_eq!(recovered.quarantined, 1);
        assert!(dir.join("gen-2.seg.quarantined").exists());
        let current = recovered.store.current();
        assert_eq!(current.id, 1);
        assert_eq!(current.segment.as_bytes(), first.as_bytes());

        // The store keeps working: a publish after recovery succeeds and
        // does not collide with the quarantined id.
        let next =
            recovered.store.publish(segment(&[("MUL", "Skylake", 3)]), &RealStoreIo).unwrap();
        assert!(next.id > 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_keeps_two_generations() {
        let dir = scratch_dir("retain");
        let store =
            GenerationStore::bootstrap(&dir, segment(&[("ADD", "Skylake", 1)]), &RealStoreIo)
                .unwrap();
        for n in 2..=5u32 {
            store.publish(segment(&[("ADD", "Skylake", n)]), &RealStoreIo).unwrap();
        }
        let images: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter_map(|d| d.file_name().to_str().map(str::to_string))
            .filter(|name| parse_generation_file(name).is_some())
            .collect();
        assert_eq!(images.len(), RETAIN_GENERATIONS, "kept: {images:?}");
        assert!(images.contains(&"gen-5.seg".to_string()));
        assert!(images.contains(&"gen-4.seg".to_string()));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Writes a store as it was before the image hash: `images` as
    /// generations 1, 2, … under a `v1` manifest of [`fnv1a_64`] hashes.
    fn write_v1_store(dir: &Path, images: &[&Segment]) {
        fs::create_dir_all(dir).unwrap();
        let mut manifest = format!("{MANIFEST_HEADER_V1}\n");
        for (at, image) in images.iter().enumerate() {
            let id = at as u64 + 1;
            let file = generation_file(id);
            let bytes = image.as_bytes();
            fs::write(dir.join(&file), bytes).unwrap();
            ManifestEntry { id, file, hash: fnv1a_64(bytes), len: bytes.len() as u64 }
                .render(&mut manifest);
        }
        fs::write(dir.join(MANIFEST_FILE), manifest).unwrap();
    }

    /// The manifest's header and its entries.
    fn read_manifest(dir: &Path) -> (String, Vec<ManifestEntry>) {
        let manifest = fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        let mut lines = manifest.lines();
        let header = lines.next().unwrap().to_string();
        (header, lines.filter_map(ManifestEntry::parse).collect())
    }

    #[test]
    fn v1_store_opens_and_serves_the_same_image() {
        let dir = scratch_dir("v1_open");
        let first = segment(&[("ADD", "Skylake", 1)]);
        let second = segment(&[("ADD", "Skylake", 2), ("SUB", "Skylake", 1)]);
        write_v1_store(&dir, &[&first, &second]);
        let before = fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();

        let recovered = GenerationStore::open(&dir).unwrap().expect("manifest exists");
        assert_eq!(recovered.quarantined, 0);
        let current = recovered.store.current();
        assert_eq!(current.id, 2);
        assert_eq!(current.segment.as_bytes(), second.as_bytes());
        // The segment's hash is the image hash, never the FNV-1a value the
        // v1 manifest was checked with.
        assert_eq!(current.segment.content_hash(), image_hash(second.as_bytes()));
        // Opening reads the old manifest; it does not rewrite it.
        assert_eq!(fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap(), before);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_store_quarantines_a_flipped_newest_image() {
        let dir = scratch_dir("v1_corrupt");
        let first = segment(&[("ADD", "Skylake", 1)]);
        let second = segment(&[("ADD", "Skylake", 2)]);
        write_v1_store(&dir, &[&first, &second]);
        let newest = dir.join("gen-2.seg");
        let mut bytes = fs::read(&newest).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0xff;
        fs::write(&newest, bytes).unwrap();

        let recovered = GenerationStore::open(&dir).unwrap().expect("manifest exists");
        assert_eq!(recovered.quarantined, 1);
        assert!(dir.join("gen-2.seg.quarantined").exists());
        let current = recovered.store.current();
        assert_eq!(current.id, 1);
        assert_eq!(current.segment.as_bytes(), first.as_bytes());

        // The v2 manifest the next publish writes keeps the recovered
        // generation as the fallback, under its image hash: when the new
        // image is corrupted too, generation 1 still recovers.
        let next = recovered.store.publish(segment(&[("MUL", "Skylake", 3)]), &RealStoreIo);
        let next = next.unwrap();
        let (header, entries) = read_manifest(&dir);
        assert_eq!(header, MANIFEST_HEADER);
        assert_eq!(entries.iter().map(|e| e.id).collect::<Vec<_>>(), [1, next.id]);
        let newest = dir.join(generation_file(next.id));
        let mut bytes = fs::read(&newest).unwrap();
        bytes[0] ^= 0x01;
        fs::write(&newest, bytes).unwrap();
        let again = GenerationStore::open(&dir).unwrap().expect("manifest exists");
        assert_eq!(again.quarantined, 1);
        assert_eq!(again.store.current().id, 1);
        assert_eq!(again.store.current().segment.as_bytes(), first.as_bytes());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn first_publish_after_a_v1_open_writes_a_v2_manifest() {
        let dir = scratch_dir("v1_upgrade");
        let first = segment(&[("ADD", "Skylake", 1)]);
        let second = segment(&[("ADD", "Skylake", 2)]);
        write_v1_store(&dir, &[&first, &second]);
        let recovered = GenerationStore::open(&dir).unwrap().expect("manifest exists");
        let incoming = segment(&[("SUB", "Skylake", 4)]);
        let published = recovered.store.publish_merged(&incoming, &RealStoreIo).unwrap();
        assert_eq!(published.id, 3);

        // A complete v2 manifest: the v1 fallback (generation 1) is gone,
        // and every line holds the image hash of the file it names.
        let (header, entries) = read_manifest(&dir);
        assert_eq!(header, MANIFEST_HEADER);
        assert_eq!(entries.iter().map(|e| e.id).collect::<Vec<_>>(), [2, 3]);
        for entry in &entries {
            assert_eq!(entry.hash, image_hash(&fs::read(dir.join(&entry.file)).unwrap()));
        }
        assert!(!dir.join("gen-1.seg").exists());

        let reopened = GenerationStore::open(&dir).unwrap().expect("manifest exists");
        assert_eq!(reopened.quarantined, 0);
        let current = reopened.store.current();
        assert_eq!(current.id, 3);
        assert_eq!(current.segment.as_bytes(), published.segment.as_bytes());
        let expected = Segment::merge_refs(&[&second, &incoming]);
        assert_eq!(current.segment.as_bytes(), expected.as_bytes());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_manifest_header_is_an_error() {
        let dir = scratch_dir("v3");
        let first = segment(&[("ADD", "Skylake", 1)]);
        write_v1_store(&dir, &[&first]);
        let manifest = fs::read_to_string(dir.join(MANIFEST_FILE)).unwrap();
        let v3 = manifest.replacen(MANIFEST_HEADER_V1, "uops-manifest v3", 1);
        fs::write(dir.join(MANIFEST_FILE), v3).unwrap();
        let err = GenerationStore::open(&dir).unwrap_err();
        assert!(err.to_string().contains("bad manifest header"), "{err}");
        // Nothing was quarantined or deleted.
        assert!(dir.join("gen-1.seg").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_round_trips_entries() {
        let entry = ManifestEntry {
            id: 12,
            file: "gen-12.seg".to_string(),
            hash: 0xdead_beef_0bad_f00d,
            len: 4096,
        };
        let mut line = String::new();
        entry.render(&mut line);
        assert_eq!(ManifestEntry::parse(line.trim()), Some(entry));
        assert_eq!(ManifestEntry::parse("not a manifest line"), None);
        assert_eq!(ManifestEntry::parse("1 ../escape deadbeef 4"), None);
    }
}
