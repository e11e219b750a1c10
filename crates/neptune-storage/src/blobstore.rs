//! Directory-backed blob store with Unix-style protections.
//!
//! The HAM's `createGraph` takes a `Directory × Protections` and
//! `changeNodeProtection` sets *"the protections for the file storing the
//! contents of node NodeIndex"* (paper §A.2). A [`BlobStore`] maps u64
//! object ids onto files inside a graph directory and carries the paper's
//! `Protections` domain through to the filesystem where the platform
//! supports it.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::error::{Result, StorageError};
use crate::vfs::{StdVfs, Vfs};

/// The paper's `Protections` domain: "one of the possible file protection
/// modes". Modeled as the classic owner/group/other read-write triplet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Protections {
    /// Unix-style permission bits (e.g. `0o644`).
    pub mode: u32,
}

impl Protections {
    /// Owner read/write, group and world read.
    pub const DEFAULT: Protections = Protections { mode: 0o644 };
    /// Owner read/write only.
    pub const PRIVATE: Protections = Protections { mode: 0o600 };
    /// Read-only for everyone.
    pub const READ_ONLY: Protections = Protections { mode: 0o444 };

    /// Whether the owner may write under these protections.
    pub fn owner_writable(&self) -> bool {
        self.mode & 0o200 != 0
    }
}

impl Default for Protections {
    fn default() -> Self {
        Protections::DEFAULT
    }
}

impl crate::codec::Encode for Protections {
    fn encode(&self, w: &mut crate::codec::Writer) {
        w.put_u64(self.mode as u64);
    }
}

impl crate::codec::Decode for Protections {
    fn decode(r: &mut crate::codec::Reader<'_>) -> Result<Self> {
        Ok(Protections {
            mode: r.get_u64()? as u32,
        })
    }
}

/// A store of uninterpreted blobs, one file per object id.
#[derive(Debug)]
pub struct BlobStore {
    vfs: Arc<dyn Vfs>,
    root: PathBuf,
    protections: Protections,
}

impl BlobStore {
    /// Open (creating if needed) a blob store rooted at `root` on the
    /// standard filesystem.
    pub fn open(root: impl AsRef<Path>, protections: Protections) -> Result<BlobStore> {
        Self::open_with(StdVfs::arc(), root, protections)
    }

    /// Open (creating if needed) a blob store rooted at `root` through
    /// `vfs`.
    pub fn open_with(
        vfs: Arc<dyn Vfs>,
        root: impl AsRef<Path>,
        protections: Protections,
    ) -> Result<BlobStore> {
        let root = root.as_ref().to_path_buf();
        vfs.create_dir_all(&root)?;
        Ok(BlobStore {
            vfs,
            root,
            protections,
        })
    }

    fn path_for(&self, id: u64) -> PathBuf {
        self.root.join(format!("{id:016x}.blob"))
    }

    /// Write (or overwrite) the blob for `id`.
    ///
    /// The blob's contents are synced and the file renamed into place, but
    /// the *directory entry* is not synced here: blobs are a mirror of
    /// state the snapshot + WAL already own, and callers batching many puts
    /// (checkpointing) make them all durable with one [`BlobStore::sync_root`].
    pub fn put(&self, id: u64, contents: &[u8]) -> Result<()> {
        let path = self.path_for(id);
        let tmp = path.with_extension("blob.tmp");
        {
            let mut f = self.vfs.create(&tmp)?;
            f.append(contents)?;
            f.sync()?;
        }
        self.vfs.rename(&tmp, &path)?;
        self.vfs.set_permissions(&path, self.protections.mode)?;
        Ok(())
    }

    /// Fsync the store's directory, making every completed put/delete
    /// durable. Errors propagate — a swallowed failure here would let a
    /// checkpoint truncate the WAL with the mirror not actually on disk.
    pub fn sync_root(&self) -> Result<()> {
        self.vfs.sync_dir(&self.root)?;
        Ok(())
    }

    /// Read the blob for `id`.
    pub fn get(&self, id: u64) -> Result<Vec<u8>> {
        match self.vfs.read(&self.path_for(id)) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(StorageError::NotFound { id })
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Whether a blob exists for `id`.
    pub fn contains(&self, id: u64) -> bool {
        self.vfs.exists(&self.path_for(id))
    }

    /// Delete the blob for `id` (idempotent).
    pub fn delete(&self, id: u64) -> Result<()> {
        match self.vfs.remove_file(&self.path_for(id)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Apply `protections` to the blob for `id` — the HAM's
    /// `changeNodeProtection`.
    pub fn set_protections(&self, id: u64, protections: Protections) -> Result<()> {
        let path = self.path_for(id);
        if !self.vfs.exists(&path) {
            return Err(StorageError::NotFound { id });
        }
        self.vfs.set_permissions(&path, protections.mode)?;
        Ok(())
    }

    /// All object ids currently stored, unsorted.
    pub fn ids(&self) -> Result<Vec<u64>> {
        let mut ids = Vec::new();
        for name in self.vfs.read_dir(&self.root)? {
            let name = name.to_string_lossy();
            if let Some(hex) = name.strip_suffix(".blob") {
                if let Ok(id) = u64::from_str_radix(hex, 16) {
                    ids.push(id);
                }
            }
        }
        Ok(ids)
    }

    /// Root directory of the store.
    pub fn root(&self) -> &Path {
        &self.root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use std::fs;

    fn store(name: &str) -> (TempDir, BlobStore) {
        let dir = TempDir::new(&format!("neptune-blob-{name}"));
        let store = BlobStore::open(dir.path(), Protections::DEFAULT).unwrap();
        (dir, store)
    }

    #[test]
    fn put_get_roundtrip() {
        let (_dir, s) = store("rt");
        s.put(1, b"node one").unwrap();
        s.put(2, b"").unwrap();
        assert_eq!(s.get(1).unwrap(), b"node one".to_vec());
        assert_eq!(s.get(2).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn overwrite_replaces() {
        let (_dir, s) = store("ow");
        s.put(7, b"old").unwrap();
        s.put(7, b"new contents").unwrap();
        assert_eq!(s.get(7).unwrap(), b"new contents".to_vec());
    }

    #[test]
    fn missing_blob_is_not_found() {
        let (_dir, s) = store("missing");
        assert!(matches!(s.get(99), Err(StorageError::NotFound { id: 99 })));
        assert!(!s.contains(99));
    }

    #[test]
    fn delete_is_idempotent() {
        let (_dir, s) = store("del");
        s.put(3, b"x").unwrap();
        s.delete(3).unwrap();
        s.delete(3).unwrap();
        assert!(!s.contains(3));
    }

    #[test]
    fn ids_lists_contents() {
        let (_dir, s) = store("ids");
        s.put(10, b"a").unwrap();
        s.put(20, b"b").unwrap();
        let mut ids = s.ids().unwrap();
        ids.sort_unstable();
        assert_eq!(ids, vec![10, 20]);
    }

    #[cfg(unix)]
    #[test]
    fn protections_are_applied() {
        use std::os::unix::fs::PermissionsExt;
        let (_dir, s) = store("prot");
        s.put(5, b"guarded").unwrap();
        s.set_protections(5, Protections::READ_ONLY).unwrap();
        let meta = fs::metadata(s.root().join(format!("{:016x}.blob", 5u64))).unwrap();
        assert_eq!(meta.permissions().mode() & 0o777, 0o444);
        // Restore writability so temp cleanup works elsewhere.
        s.set_protections(5, Protections::DEFAULT).unwrap();
    }

    #[test]
    fn set_protections_on_missing_blob_fails() {
        let (_dir, s) = store("prot-missing");
        assert!(s.set_protections(42, Protections::PRIVATE).is_err());
    }

    #[test]
    fn protections_helpers() {
        assert!(Protections::DEFAULT.owner_writable());
        assert!(!Protections::READ_ONLY.owner_writable());
    }
}
