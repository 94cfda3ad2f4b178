//! The on-disk snapshot directory the server boots from and the rebuild
//! pipeline publishes into.
//!
//! Layout: one subdirectory per tenant, one file per version:
//!
//! ```text
//! <root>/
//!   housing/
//!     v00001.snap
//!     v00002.snap
//!     v00003.snap.tmp-4242   ← in-flight (or crashed) atomic write: ignored
//!   telemetry/
//!     v00001.snap
//! ```
//!
//! Writers go through [`SnapshotStore::save_version`], which delegates to
//! [`Snapshot::save`]'s write-fsync-rename-fsync sequence — a reader can
//! never observe a half-written version file. Readers go through
//! [`SnapshotStore::load_latest`], which walks a tenant's versions newest
//! first and returns the first one that validates; corrupt, truncated or
//! unreadable files are *skipped with a recorded reason*, never a crash,
//! so one bad file cannot take a tenant (let alone the server) down.

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use restore_core::{PersistError, Snapshot};
use restore_util::is_tmp_name;

/// File extension of snapshot version files.
const SNAP_EXT: &str = ".snap";

/// A snapshot version successfully loaded from disk.
pub struct LoadedSnapshot {
    pub tenant: String,
    pub version: u32,
    pub snapshot: Snapshot,
    /// File size in bytes.
    pub bytes: u64,
    /// Wall-clock load time (read + validate + rehydrate).
    pub load_ms: f64,
    pub path: PathBuf,
}

/// A version file the scan decided not to serve, and why — surfaced in
/// logs so a corrupt snapshot is an incident report, not a mystery.
#[derive(Debug)]
pub struct SkippedSnapshot {
    pub path: PathBuf,
    pub reason: String,
}

/// Versioned snapshot directory: `root/<tenant>/v<NNNNN>.snap`.
#[derive(Clone, Debug)]
pub struct SnapshotStore {
    root: PathBuf,
}

impl SnapshotStore {
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self { root: root.into() }
    }

    /// The canonical path of `tenant`'s version `version`.
    pub fn version_path(&self, tenant: &str, version: u32) -> PathBuf {
        self.root
            .join(tenant)
            .join(format!("v{version:05}{SNAP_EXT}"))
    }

    /// Tenants present in the store (sorted). A tenant with only temp or
    /// unparsable files still appears — the load step reports why nothing
    /// is servable.
    pub(crate) fn tenants(&self) -> Vec<String> {
        let mut names = Vec::new();
        if let Ok(entries) = fs::read_dir(&self.root) {
            for entry in entries.flatten() {
                if entry.file_type().map(|t| t.is_dir()).unwrap_or(false) {
                    if let Ok(name) = entry.file_name().into_string() {
                        names.push(name);
                    }
                }
            }
        }
        names.sort();
        names
    }

    /// All version numbers present for `tenant`, ascending. Temp files and
    /// names that are not `v<digits>.snap` are ignored.
    pub fn versions(&self, tenant: &str) -> Vec<u32> {
        let mut versions = Vec::new();
        if let Ok(entries) = fs::read_dir(self.root.join(tenant)) {
            for entry in entries.flatten() {
                let Ok(name) = entry.file_name().into_string() else {
                    continue;
                };
                if let Some(v) = parse_version_name(&name) {
                    versions.push(v);
                }
            }
        }
        versions.sort_unstable();
        versions.dedup();
        versions
    }

    /// The highest version number present for `tenant` (valid or not).
    /// Rebuilds write `latest_version + 1` so a corrupt newest file is
    /// superseded, never overwritten in place.
    pub(crate) fn latest_version(&self, tenant: &str) -> Option<u32> {
        self.versions(tenant).last().copied()
    }

    /// Atomically writes `snapshot` as `tenant`'s version `version`.
    /// Serialization is deterministic, so re-saving the same snapshot at
    /// the same version is byte-idempotent. Returns `(path, bytes)`.
    pub fn save_version(
        &self,
        tenant: &str,
        version: u32,
        snapshot: &Snapshot,
    ) -> Result<(PathBuf, u64), PersistError> {
        let path = self.version_path(tenant, version);
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let bytes = snapshot.save(&path)?;
        Ok((path, bytes))
    }

    /// Loads `tenant`'s newest valid version, walking versions newest
    /// first. Every file that fails to load lands in the skipped list with
    /// its reason; an empty tenant directory yields `(None, [])`.
    pub fn load_latest(&self, tenant: &str) -> (Option<LoadedSnapshot>, Vec<SkippedSnapshot>) {
        let mut skipped = Vec::new();
        for version in self.versions(tenant).into_iter().rev() {
            let path = self.version_path(tenant, version);
            let started = Instant::now();
            match Snapshot::load(&path) {
                Ok(snapshot) => {
                    let load_ms = started.elapsed().as_secs_f64() * 1e3;
                    let bytes = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                    return (
                        Some(LoadedSnapshot {
                            tenant: tenant.to_string(),
                            version,
                            snapshot,
                            bytes,
                            load_ms,
                            path,
                        }),
                        skipped,
                    );
                }
                Err(e) => skipped.push(SkippedSnapshot {
                    path,
                    reason: e.to_string(),
                }),
            }
        }
        (None, skipped)
    }
}

/// Parses `v<digits>.snap` into its version number. Temp-marked names
/// (in-flight or crashed atomic writes) are rejected here, which is what
/// makes a crash inside [`restore_util::write_atomic`] invisible to boot.
fn parse_version_name(name: &str) -> Option<u32> {
    if is_tmp_name(name) {
        return None;
    }
    let stem = name.strip_prefix('v')?.strip_suffix(SNAP_EXT)?;
    if stem.is_empty() || !stem.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    stem.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_names_parse_strictly() {
        assert_eq!(parse_version_name("v00001.snap"), Some(1));
        assert_eq!(parse_version_name("v123.snap"), Some(123));
        assert_eq!(parse_version_name("v00002.snap.tmp-999"), None);
        assert_eq!(parse_version_name("v.snap"), None);
        assert_eq!(parse_version_name("vx1.snap"), None);
        assert_eq!(parse_version_name("snapshot.bin"), None);
    }

    #[test]
    fn empty_store_has_no_tenants() {
        let store = SnapshotStore::new("/nonexistent/restore-store-test");
        assert!(store.tenants().is_empty());
        assert!(store.versions("anyone").is_empty());
        let (loaded, skipped) = store.load_latest("anyone");
        assert!(loaded.is_none());
        assert!(skipped.is_empty());
    }
}
