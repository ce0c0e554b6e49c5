//! Storage backends and fault surface under the write-ahead log.
//!
//! The WAL journals through a byte-sink abstraction ([`WalSink`]) with
//! two backends:
//!
//! - [`DurableFile`]: the real thing — an append-only file whose
//!   [`WalSink::sync`] is `fsync`, whose [`WalSink::rewrite`] goes
//!   through a temp file + atomic rename and then fsyncs the directory,
//!   and whose open fsyncs the directory after creating the journal and
//!   cleans up the stale `.tmp` a crash between temp-write and rename
//!   leaves behind.
//! - [`SimDisk`]: a seeded in-memory disk with *page-granular crash
//!   persistence*. It records the full operation history (writes, fsync
//!   barriers, atomic rewrites) so a test can ask, after the fact, "what
//!   would the media hold if the process had died **here**?" — at any
//!   fsync barrier plus any byte prefix of the not-yet-synced window
//!   ([`SimDisk::crash_image`]). On top of honest crash semantics it
//!   injects the failure modes real disks exhibit, each a pure function
//!   of `(seed, offset/page, attempt)` from a
//!   [`StorageFaultPlan`]: transient per-mille write/fsync
//!   errors, an `ENOSPC` byte budget, whole un-fsynced pages dropped at
//!   crash, and single-bit rot on pages read back after a crash.
//!
//! Determinism is the point: the crash-point torture fuzzer
//! (`tests/wal_torture.rs`, `benches/wal_torture.rs`) enumerates fsync
//! barriers × byte offsets × fault mixes and replays each one exactly,
//! so the WAL's recovery invariants are *searched*, not spot-checked.
//!
//! The module also owns the CRC32C ([`crc32c`]) used by the WAL's
//! per-record framing — the Castagnoli polynomial, computed eight bytes
//! at a time from const-built tables (no external crates).

use rcacopilot_core::retrieval::fnv1a;
use rcacopilot_simcloud::StorageFaultPlan;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// CRC-32C (Castagnoli) lookup table, built at compile time.
const CRC32C_TABLE: [u32; 256] = {
    // Reflected polynomial 0x1EDC6F41.
    let poly: u32 = 0x82F6_3B78;
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ poly
            } else {
                crc >> 1
            };
            j += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Slicing-by-8 tables, built at compile time: `CRC32C_SLICES[k][b]` is
/// the CRC register contribution of byte `b` followed by `k` zero bytes,
/// so one step folds eight bytes with eight independent lookups.
static CRC32C_SLICES: [[u32; 256]; 8] = {
    let mut slices = [CRC32C_TABLE; 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = slices[k - 1][i];
            slices[k][i] = (prev >> 8) ^ CRC32C_TABLE[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    slices
};

/// CRC-32C (Castagnoli) of `bytes` — the checksum behind the WAL's
/// per-record framing. Eight bytes per step (slicing-by-8), then the
/// tail a byte at a time.
pub fn crc32c(bytes: &[u8]) -> u32 {
    let t = &CRC32C_SLICES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ CRC32C_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// True when an I/O error is the disk running out of space (`ENOSPC`) —
/// the one sink failure the WAL answers with checkpoint-fold-and-retry
/// instead of detaching.
pub fn is_out_of_space(e: &std::io::Error) -> bool {
    e.raw_os_error() == Some(28) || e.get_ref().is_some_and(|inner| inner.is::<OutOfSpace>())
}

fn out_of_space(detail: String) -> std::io::Error {
    std::io::Error::other(OutOfSpace(detail))
}

/// Error payload carrying ENOSPC identity for [`SimDisk`], since the
/// simulated disk has no OS errno to report.
#[derive(Debug)]
struct OutOfSpace(String);

impl std::fmt::Display for OutOfSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "out of space: {}", self.0)
    }
}

impl std::error::Error for OutOfSpace {}

/// The byte sink under a [`crate::wal::WriteAheadLog`].
///
/// The WAL appends newline-terminated record frames via
/// [`WalSink::append`] and treats a successful [`WalSink::sync`] as the
/// durability barrier: a commit is acknowledged once its bytes are
/// synced. [`WalSink::rewrite`] atomically replaces the whole journal
/// (checkpoint folding, tenant-merge adoption) and is itself a
/// durability barrier. [`WalSink::contents`] reads the sink's current
/// view of the journal for load-time recovery.
pub trait WalSink: std::fmt::Debug + Send {
    /// Appends bytes to the journal. Buffered until the next
    /// [`WalSink::sync`]; an error leaves durability state unchanged.
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()>;

    /// Flushes appended bytes to stable storage. Everything appended
    /// before a successful sync survives a crash.
    fn sync(&mut self) -> std::io::Result<()>;

    /// Atomically replaces the journal's entire contents, durably:
    /// after a crash the media holds either the old bytes or the new,
    /// never a mix.
    fn rewrite(&mut self, contents: &[u8]) -> std::io::Result<()>;

    /// The sink's current contents (the page-cache view, not the
    /// crash-surviving view).
    fn contents(&mut self) -> std::io::Result<Vec<u8>>;

    /// Cumulative wall-clock nanoseconds this sink has spent inside
    /// durability barriers (`fsync` and the synced half of rewrites).
    /// Virtual backends report 0 — only [`DurableFile`] burns real time
    /// — which is what lets the engine surface fsync stalls in real
    /// mode without perturbing the DES timeline.
    fn sync_nanos(&self) -> u64 {
        0
    }
}

/// The real durable backend: an append-only file with `fsync` barriers
/// and temp-file + atomic-rename rewrites.
#[derive(Debug)]
pub struct DurableFile {
    file: File,
    path: PathBuf,
    /// Wall nanos spent in durability barriers: `sync_data` on appends
    /// and rewrites, and the directory fsyncs after create and rename.
    sync_nanos: u64,
}

/// The directory holding `path`: its parent, or `.` for a bare file
/// name.
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

/// Fsyncs the directory holding `path`, so that a file created or
/// renamed there keeps its name after a power loss.
#[cfg(unix)]
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    File::open(parent_dir(path))?.sync_all()
}

/// Directories cannot be opened for fsync here; the rename is as durable
/// as the platform makes it.
#[cfg(not(unix))]
fn sync_parent_dir(_path: &Path) -> std::io::Result<()> {
    Ok(())
}

/// Runs one durability barrier and adds its wall time to `total`.
fn timed_sync(total: &mut u64, sync: impl FnOnce() -> std::io::Result<()>) -> std::io::Result<()> {
    let t0 = std::time::Instant::now();
    let result = sync();
    *total = total.saturating_add(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
    result
}

impl DurableFile {
    /// Opens (or creates) the journal file at `path`, and fsyncs the
    /// directory so that a newly created journal keeps its name.
    ///
    /// A stale `<path minus extension>.tmp` — the debris of a crash
    /// between a checkpoint fold's temp-file write and its rename — is
    /// removed first, so an interrupted fold can never be mistaken for
    /// (or collide with) a live one. Removal is best-effort: if the
    /// `.tmp` cannot be unlinked, the open proceeds and the next
    /// rewrite's `File::create` truncates it anyway.
    ///
    /// # Errors
    ///
    /// Returns the I/O error from creating or syncing the file or its
    /// directory.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(path.with_extension("tmp"));
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        file.sync_data()?;
        let mut sync_nanos = 0;
        timed_sync(&mut sync_nanos, || sync_parent_dir(&path))?;
        Ok(DurableFile {
            file,
            path,
            sync_nanos,
        })
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl WalSink for DurableFile {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.file.write_all(bytes)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        timed_sync(&mut self.sync_nanos, || self.file.sync_data())
    }

    fn rewrite(&mut self, contents: &[u8]) -> std::io::Result<()> {
        let tmp = self.path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(contents)?;
            timed_sync(&mut self.sync_nanos, || f.sync_data())?;
        }
        if let Err(e) = std::fs::rename(&tmp, &self.path) {
            // Don't leave the orphaned temp file beside the journal.
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        // Until the directory is synced, a power loss can bring back the
        // old journal and leave the fold, with every commit appended
        // after it, in the `.tmp` that the next open deletes.
        timed_sync(&mut self.sync_nanos, || sync_parent_dir(&self.path))
    }

    fn contents(&mut self) -> std::io::Result<Vec<u8>> {
        let mut buf = Vec::new();
        match File::open(&self.path) {
            Ok(mut f) => {
                f.read_to_end(&mut buf)?;
                Ok(buf)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(buf),
            Err(e) => Err(e),
        }
    }

    fn sync_nanos(&self) -> u64 {
        self.sync_nanos
    }
}

/// How the simulated disk misbehaves. Usually built from a
/// [`StorageFaultPlan`] via [`SimDiskConfig::from_plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimDiskConfig {
    /// Seed of every fault decision.
    pub seed: u64,
    /// Persistence granule: crash loss and bit rot strike per page.
    pub page_size: usize,
    /// Byte budget before writes fail with `ENOSPC`; `None` unbounded.
    pub capacity_bytes: Option<usize>,
    /// Per-mille chance a write attempt fails transiently.
    pub write_error_per_mille: u16,
    /// Per-mille chance an fsync attempt fails transiently.
    pub fsync_error_per_mille: u16,
    /// Per-mille chance an un-fsynced page is zeroed at crash.
    pub page_drop_per_mille: u16,
    /// Per-mille chance a page in a crash image takes a single-bit
    /// flip.
    pub bit_flip_per_mille: u16,
}

impl Default for SimDiskConfig {
    fn default() -> Self {
        SimDiskConfig::from_plan(&StorageFaultPlan::clean(0))
    }
}

impl SimDiskConfig {
    /// Translates a `simcloud` storage fault plan into disk behaviour.
    pub fn from_plan(plan: &StorageFaultPlan) -> Self {
        SimDiskConfig {
            seed: plan.seed,
            page_size: (plan.page_size.max(1)) as usize,
            capacity_bytes: plan.capacity_bytes.map(|c| c as usize),
            write_error_per_mille: plan.write_error_per_mille,
            fsync_error_per_mille: plan.fsync_error_per_mille,
            page_drop_per_mille: plan.page_drop_per_mille,
            bit_flip_per_mille: plan.bit_flip_per_mille,
        }
    }
}

/// One recorded disk operation, for post-hoc crash replay.
#[derive(Debug, Clone)]
enum DiskOp {
    /// Bytes appended (buffered until the next barrier).
    Write(Vec<u8>),
    /// An fsync barrier: everything written before it is durable.
    Sync,
    /// An atomic durable replacement of the whole file.
    Rewrite(Vec<u8>),
}

#[derive(Debug)]
struct DiskState {
    config: SimDiskConfig,
    ops: Vec<DiskOp>,
    /// Logical file length (page-cache view).
    len: usize,
    write_attempts: u64,
    sync_attempts: u64,
    rewrite_attempts: u64,
}

/// A crash point: how much of the disk's history survives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Number of durability barriers (syncs + rewrites) that completed
    /// before the crash. Everything on media at the last of them
    /// survives intact (modulo bit rot). A value past the recorded
    /// barrier count means "no crash": the whole history survives.
    pub barriers: usize,
    /// Byte prefix of the post-barrier un-fsynced window that reached
    /// media before the crash (the torn tail). Clamped to the window.
    pub tail_bytes: usize,
    /// Distinguishes fault draws across crash points sharing a barrier,
    /// so sweeping `nonce` explores different drop/rot patterns.
    pub nonce: u64,
}

/// What the media holds after a crash, plus exactly which injected
/// corruptions produced it — so a test can assert quarantines match.
#[derive(Debug, Clone)]
pub struct CrashImage {
    /// Surviving file bytes.
    pub bytes: Vec<u8>,
    /// Absolute byte offsets that took a single-bit flip.
    pub flipped: Vec<usize>,
    /// Page indices of un-fsynced pages zeroed by the crash.
    pub dropped_pages: Vec<usize>,
}

/// A seeded in-memory disk with page-granular crash persistence and
/// injected write/fsync errors, `ENOSPC` budgets and bit rot.
///
/// Handles are cheap clones sharing one state — the point: the WAL owns
/// one handle as its [`WalSink`] while the torture fuzzer keeps another
/// to take [`SimDisk::crash_image`]s after the "process" (the WAL) is
/// gone, exactly like a disk outliving a crashed process.
#[derive(Debug, Clone)]
pub struct SimDisk {
    state: Arc<Mutex<DiskState>>,
}

impl SimDisk {
    /// An empty disk behaving per `config`.
    pub fn new(config: SimDiskConfig) -> Self {
        SimDisk {
            state: Arc::new(Mutex::new(DiskState {
                config,
                ops: Vec::new(),
                len: 0,
                write_attempts: 0,
                sync_attempts: 0,
                rewrite_attempts: 0,
            })),
        }
    }

    /// A disk restored from a crash image: `image` is on media and
    /// durable, as if written by a completed atomic rewrite.
    pub fn restore(config: SimDiskConfig, image: &[u8]) -> Self {
        let disk = SimDisk::new(config);
        {
            let mut st = disk.lock();
            st.len = image.len();
            st.ops.push(DiskOp::Rewrite(image.to_vec()));
        }
        disk
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, DiskState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The disk's fault configuration.
    pub fn config(&self) -> SimDiskConfig {
        self.lock().config.clone()
    }

    /// Bytes written between consecutive durability barriers: entry `k`
    /// is the size of the un-fsynced window after barrier `k` (entry 0
    /// covers writes before any barrier). Always non-empty; the last
    /// entry is the window a crash "now" would tear.
    pub fn barrier_windows(&self) -> Vec<usize> {
        let st = self.lock();
        let mut windows = vec![0usize];
        for op in &st.ops {
            match op {
                DiskOp::Write(b) => {
                    if let Some(last) = windows.last_mut() {
                        *last += b.len();
                    }
                }
                DiskOp::Sync | DiskOp::Rewrite(_) => windows.push(0),
            }
        }
        windows
    }

    /// Number of durability barriers (syncs + rewrites) recorded.
    pub fn barriers(&self) -> usize {
        self.barrier_windows().len() - 1
    }

    /// The media bytes a crash at `point` would leave behind, with the
    /// exact injected corruptions reported alongside. Pure in
    /// `(recorded history, config seed, point)`: the same call always
    /// returns the same image.
    pub fn crash_image(&self, point: CrashPoint) -> CrashImage {
        let st = self.lock();
        let cfg = &st.config;
        // Replay the history to the chosen barrier, then collect the
        // un-fsynced window that follows it.
        let mut file: Vec<u8> = Vec::new();
        let mut window: Vec<u8> = Vec::new();
        let mut seen = 0usize;
        let mut at_barrier = point.barriers == 0;
        for op in &st.ops {
            match op {
                DiskOp::Write(b) => {
                    if at_barrier {
                        window.extend_from_slice(b);
                    } else {
                        file.extend_from_slice(b);
                    }
                }
                DiskOp::Sync => {
                    if at_barrier {
                        break;
                    }
                    seen += 1;
                    at_barrier = seen == point.barriers;
                }
                DiskOp::Rewrite(img) => {
                    if at_barrier {
                        break;
                    }
                    file = img.clone();
                    seen += 1;
                    at_barrier = seen == point.barriers;
                }
            }
        }
        if !at_barrier {
            // `point.barriers` exceeds the recorded count: no crash —
            // the entire history (there is no pending window) survives.
            window.clear();
        }
        let tail_offset = file.len();
        let keep = point.tail_bytes.min(window.len());
        let mut bytes = file;
        bytes.extend_from_slice(&window[..keep]);

        let page = cfg.page_size.max(1);
        // Un-fsynced pages may vanish wholesale: zero each page of the
        // torn tail that loses its seeded roll. The durable prefix is
        // never touched — that is what fsync bought.
        let mut dropped_pages = Vec::new();
        if cfg.page_drop_per_mille > 0 && keep > 0 {
            let first = tail_offset / page;
            let last = (bytes.len() - 1) / page;
            for p in first..=last {
                let roll = decide(cfg.seed, b'D', point.nonce, p as u64) % 1000;
                if (roll as u16) < cfg.page_drop_per_mille {
                    let start = (p * page).max(tail_offset);
                    let end = ((p + 1) * page).min(bytes.len());
                    for b in &mut bytes[start..end] {
                        *b = 0;
                    }
                    dropped_pages.push(p);
                }
            }
        }
        // Bit rot strikes pages anywhere on media — including fsync'd
        // ones. CRC framing exists to catch exactly this.
        let mut flipped = Vec::new();
        if cfg.bit_flip_per_mille > 0 && !bytes.is_empty() {
            let last = (bytes.len() - 1) / page;
            for p in 0..=last {
                let h = decide(cfg.seed, b'B', point.nonce, p as u64);
                if ((h % 1000) as u16) < cfg.bit_flip_per_mille {
                    let start = p * page;
                    let end = ((p + 1) * page).min(bytes.len());
                    let off = start
                        + (decide(cfg.seed, b'b', point.nonce, p as u64) as usize) % (end - start);
                    bytes[off] ^= 1 << ((h >> 32) % 8);
                    flipped.push(off);
                }
            }
        }
        CrashImage {
            bytes,
            flipped,
            dropped_pages,
        }
    }
}

/// One seeded 64-bit draw, pure in its inputs — the same
/// `seed`-first hashing discipline as `WorkerFaultPlan::decide`.
fn decide(seed: u64, kind: u8, a: u64, b: u64) -> u64 {
    let mut bytes = Vec::with_capacity(25);
    bytes.extend_from_slice(&seed.to_le_bytes());
    bytes.push(kind);
    bytes.extend_from_slice(&a.to_le_bytes());
    bytes.extend_from_slice(&b.to_le_bytes());
    fnv1a(&bytes)
}

impl WalSink for SimDisk {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.write_attempts += 1;
        let offset = st.len;
        if let Some(cap) = st.config.capacity_bytes {
            if offset + bytes.len() > cap {
                return Err(out_of_space(format!(
                    "append of {} bytes at offset {offset} exceeds budget {cap}",
                    bytes.len()
                )));
            }
        }
        if st.config.write_error_per_mille > 0 {
            let roll = decide(st.config.seed, b'W', offset as u64, st.write_attempts) % 1000;
            if (roll as u16) < st.config.write_error_per_mille {
                return Err(std::io::Error::other(format!(
                    "injected write error at offset {offset}"
                )));
            }
        }
        st.len += bytes.len();
        st.ops.push(DiskOp::Write(bytes.to_vec()));
        Ok(())
    }

    fn sync(&mut self) -> std::io::Result<()> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.sync_attempts += 1;
        if st.config.fsync_error_per_mille > 0 {
            let roll = decide(st.config.seed, b'S', st.len as u64, st.sync_attempts) % 1000;
            if (roll as u16) < st.config.fsync_error_per_mille {
                return Err(std::io::Error::other("injected fsync error"));
            }
        }
        st.ops.push(DiskOp::Sync);
        Ok(())
    }

    fn rewrite(&mut self, contents: &[u8]) -> std::io::Result<()> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.rewrite_attempts += 1;
        if let Some(cap) = st.config.capacity_bytes {
            if contents.len() > cap {
                return Err(out_of_space(format!(
                    "rewrite of {} bytes exceeds budget {cap}",
                    contents.len()
                )));
            }
        }
        if st.config.write_error_per_mille > 0 {
            let roll = decide(
                st.config.seed,
                b'R',
                contents.len() as u64,
                st.rewrite_attempts,
            ) % 1000;
            if (roll as u16) < st.config.write_error_per_mille {
                return Err(std::io::Error::other("injected rewrite error"));
            }
        }
        st.len = contents.len();
        st.ops.push(DiskOp::Rewrite(contents.to_vec()));
        Ok(())
    }

    fn contents(&mut self) -> std::io::Result<Vec<u8>> {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let mut file: Vec<u8> = Vec::new();
        for op in &st.ops {
            match op {
                DiskOp::Write(b) => file.extend_from_slice(b),
                DiskOp::Sync => {}
                DiskOp::Rewrite(img) => file = img.clone(),
            }
        }
        Ok(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn crc32c_matches_known_vectors() {
        // The canonical CRC-32C check value.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        assert_ne!(crc32c(b"a"), crc32c(b"b"));
        // RFC 3720 (iSCSI) vectors, long enough for the 8-byte steps.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
    }

    /// The CRC-32C definition: one table lookup per byte.
    fn bytewise_crc32c(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC32C_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    proptest! {
        /// Slicing-by-8 equals the bytewise loop at every length up to
        /// 256 and at every alignment of the slice.
        #[test]
        fn sliced_crc32c_equals_the_bytewise_loop(
            bytes in proptest::collection::vec(0u8..=255, 264..265),
            offset in 0usize..8,
            len in 0usize..257,
        ) {
            let slice = &bytes[offset..offset + len];
            prop_assert_eq!(crc32c(slice), bytewise_crc32c(slice));
        }
    }

    #[test]
    fn parent_dir_of_a_bare_name_is_the_working_directory() {
        assert_eq!(parent_dir(Path::new("journal.wal")), Path::new("."));
        assert_eq!(parent_dir(Path::new("./journal.wal")), Path::new("."));
        assert_eq!(parent_dir(Path::new("a/b/journal.wal")), Path::new("a/b"));
        assert_eq!(parent_dir(Path::new("/journal.wal")), Path::new("/"));
    }

    fn clean_disk() -> SimDisk {
        SimDisk::new(SimDiskConfig::default())
    }

    #[test]
    fn synced_bytes_survive_and_unsynced_bytes_tear_per_crash_point() {
        let mut disk = clean_disk();
        disk.append(b"alpha\n").unwrap();
        disk.sync().unwrap();
        disk.append(b"beta\n").unwrap();
        // No sync for "beta": it lives in the torn window.
        assert_eq!(disk.barriers(), 1);
        assert_eq!(disk.barrier_windows(), vec![6, 5]);

        let at_barrier = disk.crash_image(CrashPoint {
            barriers: 1,
            tail_bytes: 0,
            nonce: 0,
        });
        assert_eq!(at_barrier.bytes, b"alpha\n");
        let torn = disk.crash_image(CrashPoint {
            barriers: 1,
            tail_bytes: 3,
            nonce: 0,
        });
        assert_eq!(torn.bytes, b"alpha\nbet");
        // Before the first barrier nothing is durable.
        let nothing = disk.crash_image(CrashPoint {
            barriers: 0,
            tail_bytes: 0,
            nonce: 0,
        });
        assert!(nothing.bytes.is_empty());
        // Past the last barrier: no crash, the page-cache view.
        let all = disk.crash_image(CrashPoint {
            barriers: 2,
            tail_bytes: 0,
            nonce: 0,
        });
        assert_eq!(all.bytes, disk.contents().unwrap());
    }

    #[test]
    fn rewrite_is_an_atomic_durability_barrier() {
        let mut disk = clean_disk();
        disk.append(b"old line\n").unwrap();
        disk.sync().unwrap();
        disk.rewrite(b"folded\n").unwrap();
        disk.append(b"tail\n").unwrap();
        assert_eq!(disk.barriers(), 2);
        let before = disk.crash_image(CrashPoint {
            barriers: 1,
            tail_bytes: usize::MAX,
            nonce: 0,
        });
        // Crash between the sync and the rewrite: the old file, never a
        // mix (the pending window ends at the rewrite).
        assert_eq!(before.bytes, b"old line\n");
        let after = disk.crash_image(CrashPoint {
            barriers: 2,
            tail_bytes: 0,
            nonce: 0,
        });
        assert_eq!(after.bytes, b"folded\n");
    }

    #[test]
    fn crash_images_are_deterministic_and_nonce_varies_faults() {
        let cfg = SimDiskConfig {
            seed: 11,
            page_size: 8,
            bit_flip_per_mille: 400,
            page_drop_per_mille: 400,
            ..SimDiskConfig::default()
        };
        let mut disk = SimDisk::new(cfg);
        disk.append(&[0xAA; 64]).unwrap();
        disk.sync().unwrap();
        disk.append(&[0xBB; 64]).unwrap();
        let p = CrashPoint {
            barriers: 1,
            tail_bytes: 64,
            nonce: 3,
        };
        let a = disk.crash_image(p);
        let b = disk.crash_image(p);
        assert_eq!(a.bytes, b.bytes);
        assert_eq!(a.flipped, b.flipped);
        assert_eq!(a.dropped_pages, b.dropped_pages);
        // At these rates some nonce in a small sweep must differ.
        let differs = (0..16).any(|nonce| {
            let other = disk.crash_image(CrashPoint { nonce, ..p });
            other.bytes != a.bytes
        });
        assert!(differs, "fault draws should vary with the nonce");
        // Dropped pages only ever strike the un-fsynced tail.
        for &page in &a.dropped_pages {
            assert!(
                page * 8 + 8 > 64,
                "page {page} is inside the durable prefix"
            );
        }
    }

    #[test]
    fn enospc_and_injected_errors_fire_deterministically() {
        let cfg = SimDiskConfig {
            capacity_bytes: Some(10),
            ..SimDiskConfig::default()
        };
        let mut disk = SimDisk::new(cfg);
        disk.append(b"12345").unwrap();
        let err = disk.append(b"678901").unwrap_err();
        assert!(is_out_of_space(&err), "{err}");
        assert!(err.to_string().contains("out of space"));
        // A fitting append still succeeds after the refusal.
        disk.append(b"67890").unwrap();
        let err = disk.rewrite(b"this is far too long").unwrap_err();
        assert!(is_out_of_space(&err));
        // ENOSPC never corrupts: media still replays cleanly.
        assert_eq!(disk.contents().unwrap(), b"1234567890");

        let flaky = SimDiskConfig {
            seed: 5,
            write_error_per_mille: 300,
            fsync_error_per_mille: 300,
            ..SimDiskConfig::default()
        };
        let mut disk = SimDisk::new(flaky);
        let mut write_errors = 0;
        let mut sync_errors = 0;
        for i in 0..200 {
            if disk.append(format!("line {i}\n").as_bytes()).is_err() {
                write_errors += 1;
            }
            if disk.sync().is_err() {
                sync_errors += 1;
            }
        }
        assert!((20..120).contains(&write_errors), "{write_errors}");
        assert!((20..120).contains(&sync_errors), "{sync_errors}");
        // Injected transient errors are not ENOSPC.
        let mut disk2 = SimDisk::new(SimDiskConfig {
            seed: 5,
            write_error_per_mille: 1000,
            ..SimDiskConfig::default()
        });
        let err = disk2.append(b"x").unwrap_err();
        assert!(!is_out_of_space(&err));
    }

    #[test]
    fn restore_round_trips_a_crash_image() {
        let mut disk = clean_disk();
        disk.append(b"one\n").unwrap();
        disk.sync().unwrap();
        let image = disk.crash_image(CrashPoint {
            barriers: 1,
            tail_bytes: 0,
            nonce: 0,
        });
        let mut restored = SimDisk::restore(SimDiskConfig::default(), &image.bytes);
        assert_eq!(restored.contents().unwrap(), b"one\n");
        assert_eq!(restored.barriers(), 1, "restored image is durable");
        restored.append(b"two\n").unwrap();
        restored.sync().unwrap();
        assert_eq!(restored.contents().unwrap(), b"one\ntwo\n");
    }

    #[test]
    fn durable_file_cleans_stale_checkpoint_tmp_on_open() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/storage-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stale.wal");
        let tmp = path.with_extension("tmp");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&tmp, b"half-written checkpoint").unwrap();
        let mut sink = DurableFile::open(&path).unwrap();
        assert!(!tmp.exists(), "stale checkpoint temp file must be removed");
        sink.append(b"hello\n").unwrap();
        sink.sync().unwrap();
        assert_eq!(sink.contents().unwrap(), b"hello\n");
        sink.rewrite(b"replaced\n").unwrap();
        assert!(!tmp.exists());
        assert_eq!(std::fs::read(&path).unwrap(), b"replaced\n");
        // Appends continue on the renamed handle.
        sink.append(b"more\n").unwrap();
        sink.sync().unwrap();
        assert_eq!(sink.contents().unwrap(), b"replaced\nmore\n");
    }
}
