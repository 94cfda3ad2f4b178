//! Durable file primitives for the snapshot persistence path: a streaming
//! FNV-1a 64 checksum and an atomic write-rename.
//!
//! The on-disk snapshot format (restore-core's `persist`) frames a file as
//! `payload ++ fnv1a64(payload)`; the serving layer writes such files with
//! [`write_atomic`] so a reader can never observe a half-written snapshot:
//! either the old file, the new file, or (after a crash inside the write)
//! a leftover `*.tmp-*` file that boot scans ignore.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64 checksum. Fast, dependency-free, and good enough to
/// catch the failure modes persistence cares about (truncation, bit flips,
/// torn writes) — this is corruption *detection*, not an adversarial MAC.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.state;
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self.state = h;
    }

    /// The checksum over everything fed so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// FNV-1a 64 of a byte slice in one call.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// The suffix marker of in-progress atomic writes; scanners must skip any
/// file whose name contains it (a crash between write and rename leaves
/// one behind).
pub(crate) const TMP_MARKER: &str = ".tmp-";

/// True when `name` is a leftover (or in-flight) atomic-write temp file.
pub fn is_tmp_name(name: &str) -> bool {
    name.contains(TMP_MARKER)
}

/// Writes `bytes` to `path` atomically and durably:
///
/// 1. write to `path.tmp-<pid>` in the same directory,
/// 2. fsync the temp file (data hits the disk before the name does),
/// 3. rename over `path` (atomic on POSIX: readers see old xor new),
/// 4. fsync the directory (the rename itself is durable).
///
/// A crash at any point leaves either the previous `path` content intact
/// or a `*.tmp-*` leftover that [`is_tmp_name`] identifies for skipping.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp: PathBuf = match dir {
        Some(d) => d.join(format!("{file_name}{TMP_MARKER}{}", std::process::id())),
        None => PathBuf::from(format!("{file_name}{TMP_MARKER}{}", std::process::id())),
    };
    let result = (|| {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        if let Some(d) = dir {
            // Directory fsync makes the rename durable; some filesystems
            // refuse to open directories for writing, so open read-only.
            File::open(d)?.sync_all()?;
        }
        Ok(())
    })();
    if result.is_err() {
        // Best-effort cleanup; the scan-side tmp filter covers the rest.
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut h = Fnv64::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), fnv1a64(data));
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("restore-fsio-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.bin");
        write_atomic(&path, b"v1").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"v1");
        write_atomic(&path, b"v2-longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"v2-longer");
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| is_tmp_name(n))
            .collect();
        assert!(leftovers.is_empty(), "tmp leftovers: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tmp_names_are_recognized() {
        assert!(is_tmp_name("v0001.snap.tmp-1234"));
        assert!(!is_tmp_name("v0001.snap"));
    }
}
