//! Pluggable filesystem interface for the durable write path.
//!
//! Everything in this crate that *writes* durable state (the WAL, snapshot
//! files, the blob store) goes through a [`Vfs`] rather than `std::fs`
//! directly. In production that is [`StdVfs`], a zero-cost passthrough. In
//! tests it is [`crate::fault::FaultVfs`], which injects scripted I/O
//! failures and simulates power loss, so the exact fsync/rename orderings
//! the durability contract relies on (DESIGN.md §12) are executable, not
//! just documented.
//!
//! The surface is deliberately small — append-only file handles plus the
//! handful of directory operations the storage layer actually uses. There
//! is no seek: every consumer either appends, truncates, or reads a file
//! whole, and keeping the trait that narrow is what makes the fault model
//! tractable (each method is one injectable step).

use std::fmt::Debug;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// An open file handle obtained from a [`Vfs`].
///
/// Writes always go to the end of the file (the WAL and snapshot writers
/// are strictly append-shaped); [`VfsFile::set_len`] is the only way to
/// shrink one.
pub trait VfsFile: Send + Sync + Debug {
    /// Append `data` at the end of the file.
    fn append(&mut self, data: &[u8]) -> io::Result<()>;
    /// Force the file's contents to stable storage (`fdatasync`).
    fn sync(&mut self) -> io::Result<()>;
    /// Truncate (or extend with zeros) to exactly `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Read the entire file from the start.
    fn read_all(&mut self) -> io::Result<Vec<u8>>;
    /// Current length in bytes.
    fn len(&self) -> io::Result<u64>;
    /// Whether the file is empty.
    fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }
}

/// A filesystem as seen by the storage layer's durable write path.
pub trait Vfs: Send + Sync + Debug {
    /// Open `path` for appending, creating it if absent.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Create `path` (truncating any existing file) for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Read the entire file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Atomically rename `from` to `to`. Durable only after
    /// [`Vfs::sync_dir`] on the parent directory.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Fsync a directory, making completed renames/removes in it durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Create `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Remove `dir` and everything under it (`destroyGraph`'s teardown).
    /// Like `rename`/`remove_file`, durable only after [`Vfs::sync_dir`]
    /// on the parent.
    fn remove_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// File names (not full paths) of the entries in `dir`.
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<std::ffi::OsString>>;
    /// Whether anything exists at `path`.
    fn exists(&self, path: &Path) -> bool;
    /// Set Unix permission bits on `path` (no-op on non-Unix platforms).
    fn set_permissions(&self, path: &Path, mode: u32) -> io::Result<()>;
}

/// The production [`Vfs`]: a direct passthrough to `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdVfs;

impl StdVfs {
    /// A shared handle to the passthrough Vfs.
    pub fn arc() -> Arc<dyn Vfs> {
        Arc::new(StdVfs)
    }
}

#[derive(Debug)]
struct StdVfsFile {
    file: File,
    /// O_APPEND handles position writes at the end themselves; create-mode
    /// handles (O_APPEND and O_TRUNC are mutually exclusive) seek first.
    append_mode: bool,
}

impl VfsFile for StdVfsFile {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        if !self.append_mode {
            self.file.seek(SeekFrom::End(0))?;
        }
        self.file.write_all(data)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.file.seek(SeekFrom::Start(0))?;
        let mut bytes = Vec::new();
        self.file.read_to_end(&mut bytes)?;
        Ok(bytes)
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }
}

impl Vfs for StdVfs {
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        Ok(Box::new(StdVfsFile {
            file,
            append_mode: true,
        }))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Box::new(StdVfsFile {
            file,
            append_mode: false,
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn remove_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::remove_dir_all(dir)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<std::ffi::OsString>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(dir)? {
            names.push(entry?.file_name());
        }
        Ok(names)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    #[cfg(unix)]
    fn set_permissions(&self, path: &Path, mode: u32) -> io::Result<()> {
        use std::os::unix::fs::PermissionsExt;
        fs::set_permissions(path, fs::Permissions::from_mode(mode))
    }

    #[cfg(not(unix))]
    fn set_permissions(&self, _path: &Path, _mode: u32) -> io::Result<()> {
        Ok(())
    }
}

/// Parent directory of `path` for durability syncs: an empty parent (a bare
/// relative file name) means the current directory.
pub fn parent_dir(path: &Path) -> PathBuf {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;

    fn tmpdir(name: &str) -> TempDir {
        let dir = TempDir::new(&format!("neptune-vfs-{name}"));
        fs::create_dir_all(dir.path()).unwrap();
        dir
    }

    #[test]
    fn append_read_roundtrip() {
        let dir = tmpdir("rt");
        let vfs = StdVfs;
        let path = dir.path().join("f");
        let mut f = vfs.create(&path).unwrap();
        f.append(b"hello ").unwrap();
        f.append(b"world").unwrap();
        f.sync().unwrap();
        assert_eq!(f.read_all().unwrap(), b"hello world");
        // Reads do not break append positioning.
        f.append(b"!").unwrap();
        assert_eq!(f.len().unwrap(), 12);
        drop(f);
        assert_eq!(vfs.read(&path).unwrap(), b"hello world!");
    }

    #[test]
    fn set_len_then_append_continues_at_new_end() {
        let dir = tmpdir("truncate");
        let vfs = StdVfs;
        let mut f = vfs.create(&dir.path().join("f")).unwrap();
        f.append(b"0123456789").unwrap();
        f.set_len(4).unwrap();
        f.append(b"XY").unwrap();
        assert_eq!(f.read_all().unwrap(), b"0123XY");
    }

    #[test]
    fn open_append_preserves_existing_contents() {
        let dir = tmpdir("append");
        let vfs = StdVfs;
        let path = dir.path().join("f");
        vfs.create(&path).unwrap().append(b"abc").unwrap();
        let mut f = vfs.open_append(&path).unwrap();
        f.append(b"def").unwrap();
        assert_eq!(f.read_all().unwrap(), b"abcdef");
    }

    #[test]
    fn rename_and_dir_ops() {
        let dir = tmpdir("dirops");
        let vfs = StdVfs;
        let a = dir.path().join("a");
        let b = dir.path().join("b");
        vfs.create(&a).unwrap().append(b"x").unwrap();
        vfs.rename(&a, &b).unwrap();
        vfs.sync_dir(dir.path()).unwrap();
        assert!(!vfs.exists(&a));
        assert!(vfs.exists(&b));
        let names = vfs.read_dir(dir.path()).unwrap();
        assert_eq!(names, vec![std::ffi::OsString::from("b")]);
        vfs.remove_file(&b).unwrap();
        assert!(!vfs.exists(&b));
    }

    #[test]
    fn parent_dir_of_bare_name_is_cwd() {
        assert_eq!(parent_dir(Path::new("wal.log")), PathBuf::from("."));
        assert_eq!(parent_dir(Path::new("/a/b")), PathBuf::from("/a"));
    }
}
