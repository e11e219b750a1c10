//! Test helpers: deterministic pseudo-randomness and private temp dirs.
//!
//! The workspace builds with no external crates, so randomized tests and
//! workload generators use this small xorshift64* generator instead of
//! `rand`. It is seeded explicitly, making every "random" run reproducible
//! from its seed. [`TempDir`] stands in for the `tempfile` crate.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::vfs::{StdVfs, Vfs};

/// A directory path under the system temp dir that no other `TempDir` in
/// any live process shares (process id plus a per-process counter), so
/// tests running in parallel threads never remove each other's stores.
/// The directory itself is not created — stores create their own — and it
/// is removed, with everything in it, when the `TempDir` drops.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// A fresh path named `<prefix>-<pid>-<n>`. A leftover directory of
    /// that name (from a crashed process that had the same pid) is removed.
    pub fn new(prefix: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("{prefix}-{}-{n}", std::process::id()));
        let _ = StdVfs.remove_dir_all(&path);
        TempDir { path }
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = StdVfs.remove_dir_all(&self.path);
    }
}

/// A xorshift64* pseudo-random generator (Vigna, 2016).
///
/// Not cryptographic; statistically good enough for fuzz-style tests and
/// benchmark workloads.
#[derive(Debug, Clone)]
pub struct XorShift {
    state: u64,
}

impl XorShift {
    /// Create a generator from a seed (zero is remapped: xorshift has an
    /// all-zero fixed point).
    pub fn new(seed: u64) -> XorShift {
        XorShift {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, bound)`. Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        self.next_u64() % bound
    }

    /// Uniform `usize` index in `[0, len)`. Panics if `len` is zero.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// A boolean with probability numerator/denominator.
    pub fn chance(&mut self, numerator: u64, denominator: u64) -> bool {
        self.below(denominator) < numerator
    }

    /// A vector of `len` uniform bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let chunk = self.next_u64().to_le_bytes();
            let take = chunk.len().min(len - out.len());
            out.extend_from_slice(&chunk[..take]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_dirs_are_distinct_and_removed_on_drop() {
        let a = TempDir::new("neptune-testutil");
        let b = TempDir::new("neptune-testutil");
        assert_ne!(a.path(), b.path());
        std::fs::create_dir_all(a.path().join("nested")).unwrap();
        std::fs::write(a.path().join("nested/file"), b"x").unwrap();
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = XorShift::new(7);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = XorShift::new(7);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c = XorShift::new(8).next_u64();
        assert_ne!(a[0], c);
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut r = XorShift::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = XorShift::new(42);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
        }
    }

    #[test]
    fn bytes_has_requested_length() {
        let mut r = XorShift::new(3);
        assert_eq!(r.bytes(0).len(), 0);
        assert_eq!(r.bytes(13).len(), 13);
    }
}
