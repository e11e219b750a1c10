//! Fault-injecting [`Vfs`] for crash-consistency testing.
//!
//! [`FaultVfs`] wraps a real directory (the *working tree* — what the
//! process sees) and maintains, in memory, a shadow *durable image*: the
//! bytes that would survive a power cut at this instant. The model follows
//! the POSIX rules the storage layer's durability contract (DESIGN.md §12)
//! is written against:
//!
//! * file writes, truncations, and creations live only in the working tree
//!   until the file is fsync'd — a sync copies the file's current bytes
//!   into the durable image;
//! * a rename or remove is a *pending directory operation* until its
//!   directory is fsync'd — only then is it applied to the durable image;
//! * a rename whose source was never synced durably produces an *empty*
//!   file (the adversarial reading of "metadata durable, data not").
//!
//! A scripted fault plan ([`FaultVfs::arm`]) picks an operation class and a
//! step index; the N-th matching operation after arming misbehaves:
//!
//! * [`FaultKind::FailWrite`] — the write/create/truncate/remove errors
//!   cleanly, changing nothing;
//! * [`FaultKind::ShortWrite`] — an append writes only a prefix, then
//!   errors (a torn frame in the working tree);
//! * [`FaultKind::FailSync`] — the fsync errors; the durable image is not
//!   updated (fsyncgate: the data may be gone, not merely late);
//! * [`FaultKind::TornRename`] — the rename lands in the working tree and
//!   power dies immediately, so the durable image never sees it;
//! * [`FaultKind::PowerCut`] — the operation never happens and every
//!   subsequent operation fails: the machine is off.
//!
//! After a simulated power loss, [`FaultVfs::materialize_durable`] rewrites
//! the real directory from the durable image so the store can be reopened
//! with the production [`StdVfs`](crate::vfs::StdVfs) and checked against
//! what a real crash would have left behind.

use std::collections::BTreeMap;
use std::ffi::OsString;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::vfs::{Vfs, VfsFile};

/// The kinds of I/O failure [`FaultVfs`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A write-shaped operation (create, append, truncate, remove, chmod)
    /// fails cleanly without applying.
    FailWrite,
    /// An append writes a prefix of its data, then fails.
    ShortWrite,
    /// A file or directory fsync fails; nothing new becomes durable.
    FailSync,
    /// A rename is applied to the working tree and the power dies before
    /// the directory entry becomes durable.
    TornRename,
    /// The power dies: the operation does not happen and every later
    /// operation fails.
    PowerCut,
}

impl FaultKind {
    /// All injectable kinds, in matrix-sweep order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::FailWrite,
        FaultKind::ShortWrite,
        FaultKind::FailSync,
        FaultKind::TornRename,
        FaultKind::PowerCut,
    ];

    fn matches(self, class: OpClass) -> bool {
        match self {
            FaultKind::FailWrite => matches!(
                class,
                OpClass::Create
                    | OpClass::Append
                    | OpClass::SetLen
                    | OpClass::Remove
                    | OpClass::SetPerm
            ),
            FaultKind::ShortWrite => matches!(class, OpClass::Append),
            FaultKind::FailSync => matches!(class, OpClass::SyncFile | OpClass::SyncDir),
            FaultKind::TornRename => matches!(class, OpClass::Rename),
            FaultKind::PowerCut => true,
        }
    }

    fn label(self) -> &'static str {
        match self {
            FaultKind::FailWrite => "fail_write",
            FaultKind::ShortWrite => "short_write",
            FaultKind::FailSync => "fail_sync",
            FaultKind::TornRename => "torn_rename",
            FaultKind::PowerCut => "power_cut",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpClass {
    Create,
    Append,
    SetLen,
    Remove,
    SetPerm,
    SyncFile,
    SyncDir,
    Rename,
}

impl OpClass {
    fn name(self) -> &'static str {
        match self {
            OpClass::Create => "create",
            OpClass::Append => "append",
            OpClass::SetLen => "set_len",
            OpClass::Remove => "remove",
            OpClass::SetPerm => "set_permissions",
            OpClass::SyncFile => "sync",
            OpClass::SyncDir => "sync_dir",
            OpClass::Rename => "rename",
        }
    }
}

#[derive(Debug)]
enum DirOp {
    Rename { from: PathBuf, to: PathBuf },
    Remove(PathBuf),
}

impl DirOp {
    fn dir(&self) -> PathBuf {
        match self {
            DirOp::Rename { to, .. } => crate::vfs::parent_dir(to),
            DirOp::Remove(p) => crate::vfs::parent_dir(p),
        }
    }
}

#[derive(Debug)]
struct Plan {
    kind: FaultKind,
    remaining: u64,
}

#[derive(Debug, Default)]
struct FaultState {
    plan: Option<Plan>,
    durable: BTreeMap<PathBuf, Vec<u8>>,
    pending: Vec<DirOp>,
    powered_off: bool,
    injected: u64,
    op_log: Vec<String>,
}

enum Step {
    Go,
    Fault(FaultKind),
}

impl FaultState {
    fn power_err() -> io::Error {
        io::Error::other("simulated power loss: storage is offline")
    }

    fn fault_err(kind: FaultKind, class: OpClass) -> io::Error {
        io::Error::other(format!("injected fault: {kind} at {}", class.name()))
    }

    /// Decide whether this operation proceeds, faults, or is refused
    /// because the power is already off. Also appends to the op log.
    fn step(&mut self, class: OpClass, path: &Path) -> io::Result<Step> {
        if self.powered_off {
            return Err(Self::power_err());
        }
        let file = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        self.op_log.push(format!("{} {file}", class.name()));
        if let Some(plan) = &mut self.plan {
            if plan.kind.matches(class) {
                if plan.remaining == 0 {
                    let kind = plan.kind;
                    self.plan = None;
                    self.injected += 1;
                    if neptune_obs::enabled() {
                        neptune_obs::registry()
                            .counter(&neptune_obs::labeled(
                                "neptune_storage_faults_injected_total",
                                "kind",
                                kind.label(),
                            ))
                            .inc();
                    }
                    return Ok(Step::Fault(kind));
                }
                plan.remaining -= 1;
            }
        }
        Ok(Step::Go)
    }

    /// Apply the pending directory operations under `dir` to the durable
    /// image, in the order they were issued.
    fn apply_pending(&mut self, dir: &Path) {
        let mut remaining = Vec::new();
        for op in self.pending.drain(..) {
            if op.dir() != dir {
                remaining.push(op);
                continue;
            }
            match op {
                DirOp::Rename { from, to } => {
                    // A source that was never synced leaves an empty file:
                    // the directory entry is durable, the data is not.
                    let bytes = self.durable.remove(&from).unwrap_or_default();
                    self.durable.insert(to, bytes);
                }
                DirOp::Remove(path) => {
                    self.durable.remove(&path);
                }
            }
        }
        self.pending = remaining;
    }

    fn mark_file_durable(&mut self, path: &Path) -> io::Result<()> {
        let bytes = fs::read(path)?;
        self.durable.insert(path.to_path_buf(), bytes);
        Ok(())
    }
}

/// A [`Vfs`] that injects one scripted fault and models what survives it.
#[derive(Debug, Clone)]
pub struct FaultVfs {
    state: Arc<Mutex<FaultState>>,
}

impl Default for FaultVfs {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultVfs {
    /// A fresh, disarmed fault Vfs with an empty durable image.
    pub fn new() -> FaultVfs {
        FaultVfs {
            state: Arc::new(Mutex::new(FaultState::default())),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state.lock().expect("fault vfs poisoned")
    }

    /// Arm the fault: the `at`-th operation (0-based) matching `kind`'s
    /// class from now on misbehaves. Replaces any previous plan.
    pub fn arm(&self, kind: FaultKind, at: u64) {
        self.lock().plan = Some(Plan {
            kind,
            remaining: at,
        });
    }

    /// Remove any armed fault plan.
    pub fn disarm(&self) {
        self.lock().plan = None;
    }

    /// How many faults have been injected so far.
    pub fn injected(&self) -> u64 {
        self.lock().injected
    }

    /// Whether a simulated power loss has occurred.
    pub fn is_powered_off(&self) -> bool {
        self.lock().powered_off
    }

    /// Cut the power now: later operations fail, and the durable image is
    /// frozen as-is (pending renames/removes are lost).
    pub fn power_off(&self) {
        self.lock().powered_off = true;
    }

    /// The operations issued so far, as `"op file_name"` strings.
    pub fn op_log(&self) -> Vec<String> {
        self.lock().op_log.clone()
    }

    /// Clear the operation log (e.g. between phases of a test).
    pub fn clear_op_log(&self) {
        self.lock().op_log.clear();
    }

    /// Rewrite the real directory tree under `root` from the durable
    /// image: exactly what a machine restarting after a power cut at the
    /// frozen instant would find on disk.
    pub fn materialize_durable(&self, root: &Path) -> io::Result<()> {
        let st = self.lock();
        if root.exists() {
            fs::remove_dir_all(root)?;
        }
        fs::create_dir_all(root)?;
        for (path, bytes) in &st.durable {
            if !path.starts_with(root) {
                continue;
            }
            if let Some(parent) = path.parent() {
                fs::create_dir_all(parent)?;
            }
            fs::write(path, bytes)?;
        }
        Ok(())
    }

    /// Paths currently present in the durable image (for diagnostics).
    pub fn durable_paths(&self) -> Vec<PathBuf> {
        self.lock().durable.keys().cloned().collect()
    }
}

#[derive(Debug)]
struct FaultVfsFile {
    path: PathBuf,
    file: File,
    append_mode: bool,
    state: Arc<Mutex<FaultState>>,
}

impl FaultVfsFile {
    fn write_at_end(&mut self, data: &[u8]) -> io::Result<()> {
        if !self.append_mode {
            self.file.seek(SeekFrom::End(0))?;
        }
        self.file.write_all(data)
    }
}

impl VfsFile for FaultVfsFile {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        let mut st = self.state.lock().expect("fault vfs poisoned");
        match st.step(OpClass::Append, &self.path)? {
            Step::Go => {}
            Step::Fault(FaultKind::ShortWrite) => {
                // Half the data reaches the working tree; none of it is
                // durable until a (never-coming) successful sync.
                drop(st);
                self.write_at_end(&data[..data.len() / 2])?;
                return Err(FaultState::fault_err(
                    FaultKind::ShortWrite,
                    OpClass::Append,
                ));
            }
            Step::Fault(FaultKind::PowerCut) => {
                st.powered_off = true;
                return Err(FaultState::power_err());
            }
            Step::Fault(kind) => return Err(FaultState::fault_err(kind, OpClass::Append)),
        }
        drop(st);
        self.write_at_end(data)
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut st = self.state.lock().expect("fault vfs poisoned");
        match st.step(OpClass::SyncFile, &self.path)? {
            Step::Go => {}
            Step::Fault(FaultKind::PowerCut) => {
                st.powered_off = true;
                return Err(FaultState::power_err());
            }
            Step::Fault(kind) => return Err(FaultState::fault_err(kind, OpClass::SyncFile)),
        }
        self.file.sync_data()?;
        st.mark_file_durable(&self.path)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        let mut st = self.state.lock().expect("fault vfs poisoned");
        match st.step(OpClass::SetLen, &self.path)? {
            Step::Go => {}
            Step::Fault(FaultKind::PowerCut) => {
                st.powered_off = true;
                return Err(FaultState::power_err());
            }
            Step::Fault(kind) => return Err(FaultState::fault_err(kind, OpClass::SetLen)),
        }
        drop(st);
        self.file.set_len(len)
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        if self.state.lock().expect("fault vfs poisoned").powered_off {
            return Err(FaultState::power_err());
        }
        self.file.seek(SeekFrom::Start(0))?;
        let mut bytes = Vec::new();
        self.file.read_to_end(&mut bytes)?;
        Ok(bytes)
    }

    fn len(&self) -> io::Result<u64> {
        if self.state.lock().expect("fault vfs poisoned").powered_off {
            return Err(FaultState::power_err());
        }
        Ok(self.file.metadata()?.len())
    }
}

impl Vfs for FaultVfs {
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        if self.lock().powered_off {
            return Err(FaultState::power_err());
        }
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        Ok(Box::new(FaultVfsFile {
            path: path.to_path_buf(),
            file,
            append_mode: true,
            state: Arc::clone(&self.state),
        }))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let mut st = self.lock();
        match st.step(OpClass::Create, path)? {
            Step::Go => {}
            Step::Fault(FaultKind::PowerCut) => {
                st.powered_off = true;
                return Err(FaultState::power_err());
            }
            Step::Fault(kind) => return Err(FaultState::fault_err(kind, OpClass::Create)),
        }
        drop(st);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Box::new(FaultVfsFile {
            path: path.to_path_buf(),
            file,
            append_mode: false,
            state: Arc::clone(&self.state),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        if self.lock().powered_off {
            return Err(FaultState::power_err());
        }
        fs::read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = self.lock();
        match st.step(OpClass::Rename, to)? {
            Step::Go => {
                drop(st);
                fs::rename(from, to)?;
                let mut st = self.lock();
                st.pending.push(DirOp::Rename {
                    from: from.to_path_buf(),
                    to: to.to_path_buf(),
                });
                Ok(())
            }
            Step::Fault(FaultKind::TornRename) => {
                // The rename reaches the working tree, then the machine
                // dies: the caller sees success, the durable image never
                // records the swap.
                fs::rename(from, to)?;
                st.powered_off = true;
                Ok(())
            }
            Step::Fault(FaultKind::PowerCut) => {
                st.powered_off = true;
                Err(FaultState::power_err())
            }
            Step::Fault(kind) => Err(FaultState::fault_err(kind, OpClass::Rename)),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut st = self.lock();
        match st.step(OpClass::Remove, path)? {
            Step::Go => {}
            Step::Fault(FaultKind::PowerCut) => {
                st.powered_off = true;
                return Err(FaultState::power_err());
            }
            Step::Fault(kind) => return Err(FaultState::fault_err(kind, OpClass::Remove)),
        }
        drop(st);
        fs::remove_file(path)?;
        self.lock().pending.push(DirOp::Remove(path.to_path_buf()));
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut st = self.lock();
        match st.step(OpClass::SyncDir, dir)? {
            Step::Go => {}
            Step::Fault(FaultKind::PowerCut) => {
                st.powered_off = true;
                return Err(FaultState::power_err());
            }
            Step::Fault(kind) => return Err(FaultState::fault_err(kind, OpClass::SyncDir)),
        }
        File::open(dir)?.sync_all()?;
        st.apply_pending(dir);
        Ok(())
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        // Directory creation happens only at store creation time and is
        // not a fault point; the durable image tracks files, not dirs.
        if self.lock().powered_off {
            return Err(FaultState::power_err());
        }
        fs::create_dir_all(dir)
    }

    fn remove_dir_all(&self, dir: &Path) -> io::Result<()> {
        // Whole-store teardown (destroyGraph): not a crash-sweep fault
        // point, but the shadow durable image must forget the subtree too
        // or a later materialize_durable would resurrect destroyed files.
        let mut st = self.lock();
        if st.powered_off {
            return Err(FaultState::power_err());
        }
        st.durable.retain(|p, _| !p.starts_with(dir));
        st.pending.retain(|op| {
            let touched = match op {
                DirOp::Rename { from, to } => from.starts_with(dir) || to.starts_with(dir),
                DirOp::Remove(p) => p.starts_with(dir),
            };
            !touched
        });
        drop(st);
        fs::remove_dir_all(dir)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<OsString>> {
        if self.lock().powered_off {
            return Err(FaultState::power_err());
        }
        let mut names = Vec::new();
        for entry in fs::read_dir(dir)? {
            names.push(entry?.file_name());
        }
        Ok(names)
    }

    fn exists(&self, path: &Path) -> bool {
        if self.lock().powered_off {
            return false;
        }
        path.exists()
    }

    fn set_permissions(&self, path: &Path, mode: u32) -> io::Result<()> {
        let mut st = self.lock();
        match st.step(OpClass::SetPerm, path)? {
            Step::Go => {}
            Step::Fault(FaultKind::PowerCut) => {
                st.powered_off = true;
                return Err(FaultState::power_err());
            }
            Step::Fault(kind) => return Err(FaultState::fault_err(kind, OpClass::SetPerm)),
        }
        drop(st);
        crate::vfs::StdVfs.set_permissions(path, mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;

    fn tmpdir(name: &str) -> TempDir {
        let dir = TempDir::new(&format!("neptune-fault-{name}"));
        fs::create_dir_all(dir.path()).unwrap();
        dir
    }

    #[test]
    fn unsynced_data_does_not_survive_power_cut() {
        let dir = tmpdir("unsynced");
        let vfs = FaultVfs::new();
        let path = dir.path().join("f");
        let mut f = vfs.create(&path).unwrap();
        f.append(b"durable").unwrap();
        f.sync().unwrap();
        f.append(b" lost").unwrap();
        // No sync: the tail exists only in the working tree.
        vfs.power_off();
        vfs.materialize_durable(dir.path()).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"durable");
    }

    #[test]
    fn rename_needs_dir_sync_to_survive() {
        let dir = tmpdir("rename");
        let vfs = FaultVfs::new();
        let tmp = dir.path().join("x.tmp");
        let real = dir.path().join("x");
        let mut f = vfs.create(&tmp).unwrap();
        f.append(b"v1").unwrap();
        f.sync().unwrap();
        drop(f);
        vfs.rename(&tmp, &real).unwrap();
        // Working tree sees the rename...
        assert!(real.exists() && !tmp.exists());
        // ...but power dies before the directory fsync.
        vfs.power_off();
        vfs.materialize_durable(dir.path()).unwrap();
        assert!(tmp.exists(), "unsynced rename must roll back to the source");
        assert!(!real.exists());
        assert_eq!(fs::read(&tmp).unwrap(), b"v1");
    }

    #[test]
    fn dir_sync_makes_rename_durable() {
        let dir = tmpdir("rename-sync");
        let vfs = FaultVfs::new();
        let tmp = dir.path().join("x.tmp");
        let real = dir.path().join("x");
        let mut f = vfs.create(&tmp).unwrap();
        f.append(b"v1").unwrap();
        f.sync().unwrap();
        drop(f);
        vfs.rename(&tmp, &real).unwrap();
        vfs.sync_dir(dir.path()).unwrap();
        vfs.power_off();
        vfs.materialize_durable(dir.path()).unwrap();
        assert!(!tmp.exists());
        assert_eq!(fs::read(&real).unwrap(), b"v1");
    }

    #[test]
    fn short_write_tears_the_working_tree_only() {
        let dir = tmpdir("short");
        let vfs = FaultVfs::new();
        let path = dir.path().join("f");
        let mut f = vfs.create(&path).unwrap();
        f.append(b"base").unwrap();
        f.sync().unwrap();
        vfs.arm(FaultKind::ShortWrite, 0);
        let err = f.append(b"12345678").unwrap_err();
        assert!(err.to_string().contains("short_write"), "{err}");
        assert_eq!(vfs.injected(), 1);
        // Working tree has the torn prefix; the durable image does not.
        assert_eq!(fs::read(&path).unwrap(), b"base1234");
        vfs.power_off();
        vfs.materialize_durable(dir.path()).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"base");
    }

    #[test]
    fn failed_sync_leaves_durable_image_stale() {
        let dir = tmpdir("failsync");
        let vfs = FaultVfs::new();
        let path = dir.path().join("f");
        let mut f = vfs.create(&path).unwrap();
        f.append(b"old").unwrap();
        f.sync().unwrap();
        f.set_len(0).unwrap();
        f.append(b"new").unwrap();
        vfs.arm(FaultKind::FailSync, 0);
        assert!(f.sync().is_err());
        vfs.power_off();
        vfs.materialize_durable(dir.path()).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"old");
    }

    #[test]
    fn torn_rename_reports_success_but_is_not_durable() {
        let dir = tmpdir("torn-rename");
        let vfs = FaultVfs::new();
        let tmp = dir.path().join("s.tmp");
        let real = dir.path().join("s");
        let mut f = vfs.create(&tmp).unwrap();
        f.append(b"snap").unwrap();
        f.sync().unwrap();
        drop(f);
        vfs.arm(FaultKind::TornRename, 0);
        vfs.rename(&tmp, &real).unwrap(); // reports success!
        assert!(vfs.is_powered_off());
        assert!(vfs.sync_dir(dir.path()).is_err(), "power is off");
        vfs.materialize_durable(dir.path()).unwrap();
        assert!(tmp.exists() && !real.exists());
    }

    #[test]
    fn power_cut_freezes_everything() {
        let dir = tmpdir("powercut");
        let vfs = FaultVfs::new();
        let path = dir.path().join("f");
        let mut f = vfs.create(&path).unwrap();
        f.append(b"kept").unwrap();
        f.sync().unwrap();
        vfs.arm(FaultKind::PowerCut, 0);
        assert!(f
            .append(b"never")
            .unwrap_err()
            .to_string()
            .contains("power"));
        assert!(f.sync().is_err());
        assert!(vfs.create(&dir.path().join("g")).is_err());
        assert!(vfs.read(&path).is_err());
        vfs.materialize_durable(dir.path()).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"kept");
    }

    #[test]
    fn step_counting_targets_the_nth_matching_op() {
        let dir = tmpdir("nth");
        let vfs = FaultVfs::new();
        let mut f = vfs.create(&dir.path().join("f")).unwrap();
        vfs.arm(FaultKind::ShortWrite, 2);
        f.append(b"aa").unwrap();
        f.sync().unwrap(); // not an append: does not advance the counter
        f.append(b"bb").unwrap();
        assert!(f.append(b"cc").is_err());
        assert_eq!(vfs.injected(), 1);
        // Plan consumed: later appends succeed again.
        f.append(b"dd").unwrap();
    }

    #[test]
    fn op_log_records_order() {
        let dir = tmpdir("oplog");
        let vfs = FaultVfs::new();
        let mut f = vfs.create(&dir.path().join("w")).unwrap();
        f.append(b"x").unwrap();
        f.sync().unwrap();
        drop(f);
        vfs.sync_dir(dir.path()).unwrap();
        let log = vfs.op_log();
        let names: Vec<&str> = log.iter().map(|s| s.split(' ').next().unwrap()).collect();
        assert_eq!(names, vec!["create", "append", "sync", "sync_dir"]);
    }

    #[test]
    fn unsynced_rename_source_materializes_empty() {
        // fsync(file) was skipped before rename + dir sync: the directory
        // entry is durable but the data is not.
        let dir = tmpdir("empty-rename");
        let vfs = FaultVfs::new();
        let tmp = dir.path().join("x.tmp");
        let real = dir.path().join("x");
        vfs.create(&tmp).unwrap().append(b"data").unwrap();
        vfs.rename(&tmp, &real).unwrap();
        vfs.sync_dir(dir.path()).unwrap();
        vfs.power_off();
        vfs.materialize_durable(dir.path()).unwrap();
        assert_eq!(fs::read(&real).unwrap(), b"");
    }
}
