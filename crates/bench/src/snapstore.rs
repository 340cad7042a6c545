//! On-disk warm-start snapshot store (`mcd-serve --warm DIR`).
//!
//! A [`SnapStore`] keeps the latest shard-boundary snapshot of each run,
//! keyed by the run's full identity (benchmark, scheme, every
//! report-shaping knob, and the simulator configuration). A later
//! identical run restores the snapshot and simulates only the tail —
//! byte-identical to a cold run by the shard-equivalence invariant — so
//! a service restart answers warm instead of re-simulating from zero.
//!
//! Every entry is stamped with the writing binary's
//! [`code_fingerprint`]: a snapshot produced by different code is a
//! *miss*, never trusted. Entries are written to a temporary file and
//! renamed into place, so a crash mid-write leaves either the old entry
//! or none — a truncated entry additionally fails the engine's own
//! framing checks on restore and falls back to a cold run.

use std::path::{Path, PathBuf};

use mcd_sim::snapshot::{fnv1a64, FNV_OFFSET};

use crate::checkpoint::{code_fingerprint, write_file};
use crate::error::RunError;

/// Framing version of the store's header (bumped when it changes).
const STORE_VERSION: u32 = 1;

/// A directory of warm-start snapshots (see the module docs).
#[derive(Debug, Clone)]
pub struct SnapStore {
    dir: PathBuf,
    code: String,
}

impl SnapStore {
    /// Opens (creating if needed) `dir` under the running binary's code
    /// fingerprint.
    pub fn open(dir: impl Into<PathBuf>) -> Result<SnapStore, RunError> {
        Self::open_for_code(dir, code_fingerprint())
    }

    /// [`SnapStore::open`] under an explicit code fingerprint — the test
    /// surface for proving that a stale store is rejected, mirroring
    /// [`crate::checkpoint::code_fingerprint_for`].
    pub fn open_for_code(dir: impl Into<PathBuf>, code: String) -> Result<SnapStore, RunError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| RunError::Io {
            path: dir.display().to_string(),
            message: e.to_string(),
        })?;
        Ok(SnapStore { dir, code })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Entry file for `key`: the key hash names the file, and the full
    /// key is repeated in the header so a hash collision reads as a miss
    /// instead of restoring the wrong run's state.
    fn path(&self, key: &str) -> PathBuf {
        self.dir.join(format!(
            "{:016x}.msnap",
            fnv1a64(FNV_OFFSET, key.as_bytes())
        ))
    }

    /// Stores `snapshot` as the latest boundary for `key`, atomically
    /// (write-to-temp then rename — readers see the old entry or the new
    /// one, never a torn mix).
    pub fn save(&self, key: &str, snapshot: &[u8]) -> Result<(), RunError> {
        let header = format!("msnap {STORE_VERSION}\n{}\n{key}\n", self.code);
        let mut buf = Vec::with_capacity(header.len() + snapshot.len());
        buf.extend_from_slice(header.as_bytes());
        buf.extend_from_slice(snapshot);
        write_file(&self.path(key), &buf)
    }

    /// The stored snapshot for `key`, or `None` for anything that must
    /// not be trusted: absent entries, a different store version, a
    /// different code fingerprint, a key-hash collision, or a header too
    /// mangled to parse.
    pub fn load(&self, key: &str) -> Option<Vec<u8>> {
        let bytes = std::fs::read(self.path(key)).ok()?;
        let (version, rest) = split_line(&bytes)?;
        (version == format!("msnap {STORE_VERSION}")).then_some(())?;
        let (code, rest) = split_line(rest)?;
        (code == self.code).then_some(())?;
        let (stored_key, rest) = split_line(rest)?;
        (stored_key == key).then_some(())?;
        Some(rest.to_vec())
    }
}

/// Splits off the first `\n`-terminated line as UTF-8 text.
fn split_line(bytes: &[u8]) -> Option<(&str, &[u8])> {
    let nl = bytes.iter().position(|&b| b == b'\n')?;
    Some((std::str::from_utf8(&bytes[..nl]).ok()?, &bytes[nl + 1..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn scratch_dir() -> PathBuf {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        std::env::temp_dir().join(format!(
            "mcd-snapstore-test-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn save_then_load_roundtrips_bytes() {
        let dir = scratch_dir();
        let store = SnapStore::open(&dir).expect("open");
        assert_eq!(store.load("run-a"), None, "empty store misses");
        store.save("run-a", &[1, 2, 3, 0, 255]).expect("save");
        assert_eq!(store.load("run-a"), Some(vec![1, 2, 3, 0, 255]));
        // Overwrite keeps only the latest boundary.
        store.save("run-a", &[9]).expect("save again");
        assert_eq!(store.load("run-a"), Some(vec![9]));
        assert_eq!(store.dir(), dir.as_path());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_code_fingerprint_is_a_miss_not_a_hit() {
        let dir = scratch_dir();
        let old = SnapStore::open_for_code(&dir, "v0.0.0-old+xdead".into()).expect("open old");
        old.save("run-a", b"old-state").expect("save");
        let current = SnapStore::open(&dir).expect("open current");
        assert_eq!(
            current.load("run-a"),
            None,
            "a snapshot written by different code must never be trusted"
        );
        // The old binary would still see its own entry.
        assert_eq!(old.load("run-a").as_deref(), Some(&b"old-state"[..]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_key_and_torn_entries_are_misses() {
        let dir = scratch_dir();
        let store = SnapStore::open(&dir).expect("open");
        store.save("run-a", b"payload").expect("save");
        assert_eq!(store.load("run-b"), None, "different key, different entry");
        // Truncate the entry below its header: unreadable, so a miss.
        let path = store.path("run-a");
        let bytes = std::fs::read(&path).expect("read entry");
        std::fs::write(&path, &bytes[..4]).expect("truncate");
        assert_eq!(store.load("run-a"), None, "torn entries are not trusted");
        std::fs::remove_dir_all(&dir).ok();
    }
}
