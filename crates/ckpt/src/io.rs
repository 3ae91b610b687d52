//! The storage abstraction every disk touch in this crate goes through — and the
//! deterministic fault-injection backend that makes "the disk failed at exactly op N"
//! a replayable test input.
//!
//! [`snapshot`](crate::snapshot) and [`wal`](crate::wal) never call `std::fs` directly;
//! they take an [`Fs`] handle and issue numbered operations through it. The default
//! backend ([`Fs::real`]) forwards to the real filesystem. The injectable backend
//! ([`Fs::faulty`]) wraps it with a global **operation counter**: every create, write,
//! fsync, rename, read, … increments the counter, and a [`FaultPlan`] decides — purely
//! from the counter value and the operation's [`OpClass`] — whether that operation
//! fails, writes short, returns corrupted bytes, or stalls. Two runs of the same
//! workload over the same plan inject the same fault at the same site, which is what
//! lets `tests/fault_injection.rs` sweep "fail at I/O op N" for *every* N the way the
//! recovery suite already sweeps torn-tail byte offsets.
//!
//! Injected failures surface as ordinary [`std::io::Error`]s (and therefore as
//! [`CkptError::Io`](crate::CkptError::Io) upstream) whose message names the op index
//! and class — a failed sweep case always says exactly which site it poisoned.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What kind of storage operation is being issued — the granularity at which faults
/// are targeted and counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Creating (and truncating) a file for writing.
    CreateFile,
    /// Opening an existing file for read/write.
    OpenFile,
    /// Reading bytes from a file opened for reading: a whole file ([`Fs::read`]) or one
    /// chunk of a streamed one ([`StorageReader::read_at`]).
    Read,
    /// Listing a directory.
    ReadDir,
    /// Appending/writing bytes to an open file.
    Write,
    /// `fdatasync` on an open file.
    SyncData,
    /// `fsync` on an open file.
    SyncAll,
    /// Truncating/extending an open file.
    SetLen,
    /// Renaming a path (the atomic-publish step).
    Rename,
    /// Deleting a file.
    RemoveFile,
    /// Creating a directory chain.
    CreateDir,
    /// Syncing a directory so renames in it survive power loss.
    SyncDir,
}

/// What an armed fault does to the operation it fires on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Pick the most realistic failure for the op's class: a [`OpClass::Write`] becomes
    /// a short write (half the bytes land, then an error), an [`OpClass::Read`] returns
    /// silently corrupted bytes, everything else fails outright.
    Auto,
    /// The operation fails with an injected [`std::io::Error`]; nothing is persisted.
    Fail,
    /// A write persists only the first half of its bytes, then errors — the torn-write
    /// shape a power cut produces.
    ShortWrite,
    /// A read succeeds but one byte of the returned data is flipped — silent media rot
    /// that only checksums can catch. Non-read classes fall back to [`FaultKind::Fail`].
    CorruptRead,
    /// The operation succeeds after sleeping this long (tail-latency injection, e.g. a
    /// slow fsync). Not an error: the workload proceeds.
    Latency(Duration),
}

/// One targeting rule of a [`FaultPlan`]: fire `kind` on operations whose global index
/// lies in `[from_op, to_op)` and whose class matches (when constrained).
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// First global op index the rule arms at.
    pub from_op: u64,
    /// Exclusive end of the armed window (`u64::MAX` = forever).
    pub to_op: u64,
    /// Restrict to one [`OpClass`]; `None` matches any.
    pub class: Option<OpClass>,
    /// What firing does.
    pub kind: FaultKind,
    /// Fire at most once, then disarm (lets a retry succeed — the self-healing tests
    /// rely on it). `false` fires on every matching op.
    pub once: bool,
}

/// A deterministic schedule of storage faults, keyed by the global operation counter.
///
/// Plans are pure data: the same plan over the same workload injects the same faults.
/// Compose with the builder-style `with_*` methods.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    /// Seeded chaos: `(seed, permille)` — each op fires an [`FaultKind::Auto`] fault
    /// with probability `permille/1000`, decided by a hash of `(seed, op index)`.
    chaos: Option<(u64, u32)>,
}

impl FaultPlan {
    /// No faults: the backend only counts operations (the sweep's baseline pass).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Fail exactly global op `n`, once, with the class-appropriate fault
    /// ([`FaultKind::Auto`]). The workhorse of the fail-at-every-op sweep.
    pub fn fail_op(n: u64) -> FaultPlan {
        FaultPlan::none().with_rule(FaultRule {
            from_op: n,
            to_op: n + 1,
            class: None, // any class: Auto resolves the kind at fire time
            kind: FaultKind::Auto,
            once: true,
        })
    }

    /// Fail every matching op in `[from_op, to_op)` — a sustained outage window (the
    /// degraded-mode tests use this to keep a log down across several rounds).
    pub fn fail_ops(from_op: u64, to_op: u64, class: Option<OpClass>) -> FaultPlan {
        FaultPlan::none().with_rule(FaultRule {
            from_op,
            to_op,
            class,
            kind: FaultKind::Fail,
            once: false,
        })
    }

    /// Add `latency` to every operation of `class` (e.g. a persistently slow fsync).
    pub fn slow(class: OpClass, latency: Duration) -> FaultPlan {
        FaultPlan::none().with_rule(FaultRule {
            from_op: 0,
            to_op: u64::MAX,
            class: Some(class),
            kind: FaultKind::Latency(latency),
            once: false,
        })
    }

    /// Seeded chaos: every op fails (class-appropriately) with probability
    /// `permille/1000`, decided deterministically from `(seed, op index)`.
    pub fn seeded(seed: u64, permille: u32) -> FaultPlan {
        FaultPlan {
            rules: Vec::new(),
            chaos: Some((seed, permille.min(1000))),
        }
    }

    /// Appends a rule (builder style).
    pub fn with_rule(mut self, rule: FaultRule) -> FaultPlan {
        self.rules.push(rule);
        self
    }
}

/// Mutable injection state shared by an injected [`Fs`], its open files, and the
/// [`FaultProbe`] a test holds.
#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    rule_fired: Vec<bool>,
    next_op: u64,
    fired: Vec<(u64, OpClass)>,
}

impl FaultState {
    /// Counts the op and decides what, if anything, to inject. `Latency` is resolved
    /// here (the caller just proceeds); error-shaped kinds are returned resolved
    /// against the class (`Auto` → short write / corrupt read / fail).
    fn on_op(&mut self, class: OpClass) -> Option<FaultKind> {
        let op = self.next_op;
        self.next_op += 1;
        let kind = self.match_op(op, class)?;
        let resolved = resolve(kind, class);
        if let FaultKind::Latency(wait) = resolved {
            self.fired.push((op, class));
            std::thread::sleep(wait);
            return None;
        }
        self.fired.push((op, class));
        Some(resolved)
    }

    fn match_op(&mut self, op: u64, class: OpClass) -> Option<FaultKind> {
        for (i, rule) in self.plan.rules.iter().enumerate() {
            if self.rule_fired[i] && rule.once {
                continue;
            }
            if op < rule.from_op || op >= rule.to_op {
                continue;
            }
            if rule.class.is_some_and(|c| c != class) {
                continue;
            }
            self.rule_fired[i] = true;
            return Some(rule.kind);
        }
        if let Some((seed, permille)) = self.plan.chaos {
            if mix(seed, op) % 1000 < permille as u64 {
                return Some(FaultKind::Auto);
            }
        }
        None
    }
}

/// SplitMix64-style avalanche of `(seed, op)` — the chaos plan's coin flip.
fn mix(seed: u64, op: u64) -> u64 {
    let mut z = seed ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn resolve(kind: FaultKind, class: OpClass) -> FaultKind {
    match kind {
        FaultKind::Auto => match class {
            OpClass::Write => FaultKind::ShortWrite,
            OpClass::Read => FaultKind::CorruptRead,
            _ => FaultKind::Fail,
        },
        FaultKind::ShortWrite if class != OpClass::Write => FaultKind::Fail,
        FaultKind::CorruptRead if class != OpClass::Read => FaultKind::Fail,
        other => other,
    }
}

fn injected_error(op: u64, class: OpClass) -> io::Error {
    io::Error::other(format!("injected {class:?} fault at storage op {op}"))
}

/// An open file behind the [`Storage`] abstraction. Only the operations the snapshot
/// and WAL writers actually issue are modelled.
pub trait StorageFile: Send {
    /// Writes all of `buf` at the current position.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// `fdatasync`.
    fn sync_data(&mut self) -> io::Result<()>;
    /// `fsync`.
    fn sync_all(&mut self) -> io::Result<()>;
    /// Truncates (or extends) the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Seeks to the end of the file, returning the new position.
    fn seek_end(&mut self) -> io::Result<u64>;
}

/// A file opened for reading behind the [`Storage`] abstraction: positioned reads of a
/// file whose length was fixed when it was opened. Each [`StorageReader::read_at`] is one
/// numbered [`OpClass::Read`] op, so a reader that streams a file chunk by chunk exposes
/// every chunk as its own fault site.
pub trait StorageReader: Send {
    /// Byte length of the file when it was opened.
    fn size(&self) -> u64;
    /// Reads into `buf` from byte `offset`, filling it unless the file ends first;
    /// returns the number of bytes read (short only at the end of the file).
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize>;
}

/// A filesystem backend: the real one, or an injected one counting and poisoning ops.
pub trait Storage: Send + Sync {
    /// Short backend name for `Debug` output.
    fn label(&self) -> &'static str;
    /// Creates (truncating) a file open for read/write.
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;
    /// Opens an existing file for read/write without truncating.
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;
    /// Opens an existing file for reading. Opening is not a counted op; every read
    /// through the returned handle is.
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn StorageReader>>;
    /// Renames `from` to `to` (atomic within a directory on POSIX).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Deletes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Creates a directory and its ancestors.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Lists a directory's entries as `(file name, full path)`, unsorted.
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<(String, PathBuf)>>;
    /// Fsyncs a directory so renames inside it survive power loss. Backends return
    /// `Ok` on platforms where directories cannot be opened for syncing (the operation
    /// is then meaningless), but a *failed* sync on a platform that supports it is an
    /// error.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// True when `path` exists (metadata probe; never counted or poisoned).
    fn exists(&self, path: &Path) -> bool;
}

// ---------------------------------------------------------------------------
// Real backend

/// The passthrough backend: `std::fs`, no counting, no faults.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

struct RealFile(File);

impl StorageFile for RealFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }
    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
    fn seek_end(&mut self) -> io::Result<u64> {
        self.0.seek(SeekFrom::End(0))
    }
}

struct RealReader {
    file: File,
    size: u64,
}

impl StorageReader for RealReader {
    fn size(&self) -> u64 {
        self.size
    }
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        self.file.seek(SeekFrom::Start(offset))?;
        let mut filled = 0;
        while filled < buf.len() {
            match self.file.read(&mut buf[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(filled)
    }
}

impl Storage for RealFs {
    fn label(&self) -> &'static str {
        "real"
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Box::new(RealFile(file)))
    }
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        Ok(Box::new(RealFile(file)))
    }
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn StorageReader>> {
        let file = File::open(path)?;
        let size = file.metadata()?.len();
        Ok(Box::new(RealReader { file, size }))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<(String, PathBuf)>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if let Some(name) = entry.file_name().to_str() {
                out.push((name.to_string(), entry.path()));
            }
        }
        Ok(out)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Platforms where a directory cannot be opened simply skip the sync; a sync
        // that *fails* after opening is a real durability signal and propagates.
        match File::open(dir) {
            Ok(d) => d.sync_all(),
            Err(_) => Ok(()),
        }
    }
    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

// ---------------------------------------------------------------------------
// Fault-injecting backend

struct FaultFs {
    inner: RealFs,
    state: Arc<Mutex<FaultState>>,
}

struct FaultFile {
    inner: Box<dyn StorageFile>,
    state: Arc<Mutex<FaultState>>,
}

/// Counts the op under the lock and resolves the injection decision. `Fail` surfaces
/// here as the injected error; `ShortWrite`/`CorruptRead` come back with their op index
/// for the caller to enact.
fn gate(state: &Mutex<FaultState>, class: OpClass) -> io::Result<Option<(u64, FaultKind)>> {
    let mut s = state.lock().expect("fault state poisoned");
    let op = s.next_op; // on_op increments; capture first for the error message
    match s.on_op(class) {
        Some(FaultKind::Fail) => Err(injected_error(op, class)),
        Some(special) => Ok(Some((op, special))), // ShortWrite / CorruptRead
        None => Ok(None),
    }
}

impl StorageFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match gate(&self.state, OpClass::Write)? {
            Some((op, FaultKind::ShortWrite)) => {
                // Persist half the bytes, then fail — a torn append on real media.
                self.inner.write_all(&buf[..buf.len() / 2])?;
                Err(injected_error(op, OpClass::Write))
            }
            _ => self.inner.write_all(buf),
        }
    }
    fn sync_data(&mut self) -> io::Result<()> {
        gate(&self.state, OpClass::SyncData)?;
        self.inner.sync_data()
    }
    fn sync_all(&mut self) -> io::Result<()> {
        gate(&self.state, OpClass::SyncAll)?;
        self.inner.sync_all()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        gate(&self.state, OpClass::SetLen)?;
        self.inner.set_len(len)
    }
    fn seek_end(&mut self) -> io::Result<u64> {
        // Position bookkeeping, not media I/O: never counted or poisoned.
        self.inner.seek_end()
    }
}

struct FaultReader {
    inner: Box<dyn StorageReader>,
    state: Arc<Mutex<FaultState>>,
}

impl StorageReader for FaultReader {
    fn size(&self) -> u64 {
        self.inner.size()
    }
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let corrupt = matches!(
            gate(&self.state, OpClass::Read)?,
            Some((_, FaultKind::CorruptRead))
        );
        let n = self.inner.read_at(offset, buf)?;
        if corrupt && n > 0 {
            // Flip one byte in the middle of what was read: silent rot the CRCs must
            // catch.
            buf[n / 2] ^= 0x40;
        }
        Ok(n)
    }
}

impl Storage for FaultFs {
    fn label(&self) -> &'static str {
        "fault"
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        gate(&self.state, OpClass::CreateFile)?;
        let inner = self.inner.create(path)?;
        Ok(Box::new(FaultFile {
            inner,
            state: self.state.clone(),
        }))
    }
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        gate(&self.state, OpClass::OpenFile)?;
        let inner = self.inner.open_rw(path)?;
        Ok(Box::new(FaultFile {
            inner,
            state: self.state.clone(),
        }))
    }
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn StorageReader>> {
        let inner = self.inner.open_read(path)?;
        Ok(Box::new(FaultReader {
            inner,
            state: self.state.clone(),
        }))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        gate(&self.state, OpClass::Rename)?;
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        gate(&self.state, OpClass::RemoveFile)?;
        self.inner.remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        gate(&self.state, OpClass::CreateDir)?;
        self.inner.create_dir_all(path)
    }
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<(String, PathBuf)>> {
        gate(&self.state, OpClass::ReadDir)?;
        self.inner.read_dir(dir)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        gate(&self.state, OpClass::SyncDir)?;
        self.inner.sync_dir(dir)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

/// A test's window into a running injected backend: how many ops the workload issued
/// and which ones were poisoned.
#[derive(Clone)]
pub struct FaultProbe {
    state: Arc<Mutex<FaultState>>,
}

impl FaultProbe {
    /// Global operations counted so far (the sweep bound: a clean counting pass
    /// establishes `N`, then every op index in `0..N` is poisoned in turn).
    pub fn ops(&self) -> u64 {
        self.state.lock().expect("fault state poisoned").next_op
    }

    /// Every fault fired so far, as `(op index, class)` in firing order.
    pub fn fired(&self) -> Vec<(u64, OpClass)> {
        self.state
            .lock()
            .expect("fault state poisoned")
            .fired
            .clone()
    }
}

impl fmt::Debug for FaultProbe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.state.lock().expect("fault state poisoned");
        f.debug_struct("FaultProbe")
            .field("ops", &s.next_op)
            .field("fired", &s.fired.len())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// The handle

/// A cheap, cloneable handle to a [`Storage`] backend. Everything in this crate that
/// touches disk takes one; [`Fs::default`] is the real filesystem.
#[derive(Clone)]
pub struct Fs {
    backend: Arc<dyn Storage>,
}

impl Fs {
    /// The real filesystem.
    pub fn real() -> Fs {
        Fs {
            backend: Arc::new(RealFs),
        }
    }

    /// A fault-injecting filesystem executing `plan`, plus the probe that reports the
    /// op count and fired faults. Clones of the returned `Fs` (and files opened
    /// through it) share one op counter.
    pub fn faulty(plan: FaultPlan) -> (Fs, FaultProbe) {
        let rule_fired = vec![false; plan.rules.len()];
        let state = Arc::new(Mutex::new(FaultState {
            plan,
            rule_fired,
            next_op: 0,
            fired: Vec::new(),
        }));
        let fs = Fs {
            backend: Arc::new(FaultFs {
                inner: RealFs,
                state: state.clone(),
            }),
        };
        (fs, FaultProbe { state })
    }

    /// See [`Storage::create`].
    pub fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        self.backend.create(path)
    }
    /// See [`Storage::open_rw`].
    pub fn open_rw(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        self.backend.open_rw(path)
    }
    /// See [`Storage::open_read`].
    pub fn open_read(&self, path: &Path) -> io::Result<Box<dyn StorageReader>> {
        self.backend.open_read(path)
    }
    /// Reads a whole file into memory in one [`OpClass::Read`] op (the snapshot
    /// loader's read; the WAL streams its segments through [`Fs::open_read`] instead).
    pub fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut file = self.open_read(path)?;
        let size = usize::try_from(file.size()).map_err(io::Error::other)?;
        let mut bytes = vec![0u8; size];
        let n = file.read_at(0, &mut bytes)?;
        bytes.truncate(n);
        Ok(bytes)
    }
    /// See [`Storage::rename`].
    pub fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.backend.rename(from, to)
    }
    /// See [`Storage::remove_file`].
    pub fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.backend.remove_file(path)
    }
    /// See [`Storage::create_dir_all`].
    pub fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.backend.create_dir_all(path)
    }
    /// See [`Storage::read_dir`].
    pub fn read_dir(&self, dir: &Path) -> io::Result<Vec<(String, PathBuf)>> {
        self.backend.read_dir(dir)
    }
    /// See [`Storage::sync_dir`].
    pub fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.backend.sync_dir(dir)
    }
    /// See [`Storage::exists`].
    pub fn exists(&self, path: &Path) -> bool {
        self.backend.exists(path)
    }

    /// Publishes `bytes` at `path` atomically and returns the published file, still
    /// open at its end: the bytes go to `<path>.tmp`, which is `fsync`ed and renamed
    /// into place, then the containing directory is synced so the rename survives power
    /// loss. A crash at any step leaves either the previous file at `path` or the
    /// complete new one (plus, at worst, the `.tmp`). A failed directory sync is an
    /// error: nothing that depends on the new name may be acknowledged.
    pub fn publish(&self, path: &Path, bytes: &[u8]) -> io::Result<Box<dyn StorageFile>> {
        // Append ".tmp" to the whole name (`x.ckpt` → `x.ckpt.tmp`); `with_extension`
        // would *replace* the extension and collide with an unrelated `x.tmp`.
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let mut file = self.create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        self.rename(&tmp, path)?;
        if let Some(parent) = path.parent() {
            self.sync_dir(parent)?;
        }
        Ok(file)
    }
}

impl Default for Fs {
    fn default() -> Fs {
        Fs::real()
    }
}

impl fmt::Debug for Fs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fs({})", self.backend.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "crowd-io-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A small fixed workload: publish (create, write, sync, rename, dir sync), read back.
    fn workload(fs: &Fs, dir: &Path) -> io::Result<Vec<u8>> {
        let path = dir.join("file.bin");
        fs.publish(&path, b"0123456789abcdef")?;
        fs.read(&path)
    }

    #[test]
    fn counting_mode_is_transparent_and_counts_every_op() {
        let dir = tmp_dir("count");
        let real = workload(&Fs::real(), &dir).unwrap();
        let (fs, probe) = Fs::faulty(FaultPlan::none());
        let injected = workload(&fs, &dir).unwrap();
        assert_eq!(real, injected, "counting mode must not alter behaviour");
        // create + write + sync_all + rename + sync_dir + read = 6 counted ops.
        assert_eq!(probe.ops(), 6);
        assert!(probe.fired().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fail_op_poisons_exactly_one_site_and_is_deterministic() {
        let dir = tmp_dir("sweep");
        let (_, probe) = {
            let (fs, probe) = Fs::faulty(FaultPlan::none());
            workload(&fs, &dir).unwrap();
            (fs, probe)
        };
        let total = probe.ops();
        for n in 0..total {
            let (fs, probe) = Fs::faulty(FaultPlan::fail_op(n));
            let first = workload(&fs, &dir);
            assert_eq!(
                probe.fired().len(),
                1,
                "fault at op {n} must fire exactly once"
            );
            assert_eq!(probe.fired()[0].0, n);
            // Read-time corruption (the final op) succeeds with damaged bytes; every
            // other site surfaces as an error.
            let read_site = total - 1;
            if n == read_site {
                assert_ne!(first.unwrap(), b"0123456789abcdef".to_vec());
            } else {
                let err = first.expect_err("poisoned op must error");
                assert!(err.to_string().contains(&format!("op {n}")), "{err}");
            }
            // The once-rule is spent: the same workload now succeeds cleanly.
            let healed = workload(&fs, &dir).unwrap();
            assert_eq!(healed, b"0123456789abcdef".to_vec());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_write_persists_a_prefix_then_errors() {
        let dir = tmp_dir("short");
        let (fs, _) = Fs::faulty(FaultPlan::fail_op(1)); // op 0 = create, op 1 = write
        let tmp = dir.join("torn.bin");
        let mut f = fs.create(&tmp).unwrap();
        let err = f.write_all(b"0123456789abcdef").unwrap_err();
        assert!(err.to_string().contains("Write"), "{err}");
        drop(f);
        assert_eq!(std::fs::read(&tmp).unwrap(), b"01234567".to_vec());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latency_rules_slow_but_do_not_fail() {
        let dir = tmp_dir("slow");
        let (fs, probe) = Fs::faulty(FaultPlan::slow(OpClass::SyncAll, Duration::from_millis(5)));
        let start = std::time::Instant::now();
        let bytes = workload(&fs, &dir).unwrap();
        assert_eq!(bytes, b"0123456789abcdef".to_vec());
        assert!(start.elapsed() >= Duration::from_millis(5));
        assert_eq!(probe.fired().len(), 1, "one sync_all in the workload");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seeded_chaos_is_deterministic() {
        let dir = tmp_dir("chaos");
        let run = |seed: u64| {
            let (fs, probe) = Fs::faulty(FaultPlan::seeded(seed, 400));
            let result = workload(&fs, &dir).map_err(|e| e.to_string());
            let _ = std::fs::remove_file(dir.join("file.bin.tmp"));
            let _ = std::fs::remove_file(dir.join("file.bin"));
            (result, probe.fired())
        };
        assert_eq!(run(7), run(7), "same seed, same faults");
        let mut seeds_differ = false;
        for seed in 0..16 {
            if run(seed) != run(7) {
                seeds_differ = true;
            }
        }
        assert!(seeds_differ, "different seeds must eventually differ");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn outage_window_fails_until_it_ends() {
        let (fs, probe) = Fs::faulty(FaultPlan::fail_ops(0, 3, None));
        let dir = tmp_dir("window");
        let p = dir.join("x");
        assert!(fs.create(&p).is_err()); // op 0
        assert!(fs.create(&p).is_err()); // op 1
        assert!(fs.create(&p).is_err()); // op 2
        assert!(fs.create(&p).is_ok()); // op 3: window over
        assert_eq!(probe.fired().len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
