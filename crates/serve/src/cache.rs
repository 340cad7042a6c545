//! Bounded, content-addressed result cache with checkpoint-format
//! persistence.
//!
//! Entries are keyed by the request fingerprint
//! ([`CheckpointDir::fingerprint`] + experiment id), which already
//! embeds the [`code_fingerprint`] of the running binary — the cache is
//! content-addressed over *everything* that shapes response bytes.
//! Capacity is bounded with least-recently-used eviction, so a server
//! that sees millions of distinct configurations holds memory constant.
//!
//! Persistence reuses the checkpoint record format (DESIGN.md §7): on
//! graceful shutdown each entry is flushed as `<hash>.report.txt` +
//! `<hash>.record.json` (plus `<hash>.key.txt` mapping the hash back to
//! its experiment id and fingerprint), under a `manifest.json` pinned to
//! the current [`code_fingerprint`]. A restarted server warm-loads the
//! directory; a directory flushed by an *older binary* fails the
//! manifest check and is discarded — a stale cache is a miss, never a
//! hit.

use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::{Arc, Mutex};

use mcd_bench::checkpoint::{code_fingerprint, write_file, CheckpointDir, CompletedRun};
use mcd_bench::error::RunError;
use mcd_sim::snapshot::{fnv1a64, FNV_OFFSET};

/// One cached run: the experiment id, the full fingerprint it is
/// addressed by, and the completed-run record whose bytes every
/// response for this fingerprint is rendered from.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedRun {
    /// Experiment id (`fig9`, `table2`, …).
    pub id: String,
    /// The content address: config fingerprint + experiment id.
    pub key: String,
    /// The completed run in checkpoint-record shape.
    pub run: CompletedRun,
}

struct Inner {
    map: HashMap<String, Arc<CachedRun>>,
    /// Recency order, least-recent at the front. Small (≤ capacity), so
    /// the O(n) promote scan is noise next to a simulation run.
    order: VecDeque<String>,
}

/// The bounded LRU cache itself. All methods take `&self`; callers on
/// worker threads share it behind an `Arc`.
pub struct ResultCache {
    cap: usize,
    inner: Mutex<Inner>,
}

/// What a warm load found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarmReport {
    /// Entries loaded into the cache.
    pub loaded: usize,
    /// True when a directory existed but was flushed by a different
    /// binary version and therefore discarded.
    pub stale_rejected: bool,
}

impl ResultCache {
    /// An empty cache holding at most `cap` entries.
    pub fn new(cap: usize) -> ResultCache {
        ResultCache {
            cap: cap.max(1),
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
        }
    }

    /// Looks up `key`, promoting it to most-recently-used on a hit.
    pub fn get(&self, key: &str) -> Option<Arc<CachedRun>> {
        let mut inner = self.inner.lock().expect("cache poisoned");
        let entry = inner.map.get(key).cloned()?;
        if let Some(pos) = inner.order.iter().position(|k| k == key) {
            inner.order.remove(pos);
        }
        inner.order.push_back(key.to_string());
        Some(entry)
    }

    /// Inserts (or refreshes) `entry` under `key`, evicting the
    /// least-recently-used entries beyond capacity.
    pub fn put(&self, key: &str, entry: CachedRun) {
        let mut inner = self.inner.lock().expect("cache poisoned");
        if inner.map.insert(key.to_string(), Arc::new(entry)).is_some() {
            if let Some(pos) = inner.order.iter().position(|k| k == key) {
                inner.order.remove(pos);
            }
        }
        inner.order.push_back(key.to_string());
        while inner.map.len() > self.cap {
            let Some(evicted) = inner.order.pop_front() else {
                break;
            };
            inner.map.remove(&evicted);
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache poisoned").map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flushes every entry to `dir` in checkpoint format under the
    /// current code fingerprint; returns how many entries were written.
    /// A directory left by an older binary is discarded first (its
    /// entries could never validate).
    pub fn flush(&self, dir: &Path) -> Result<usize, RunError> {
        let ck = open_current(dir)?;
        let entries: Vec<Arc<CachedRun>> = {
            let inner = self.inner.lock().expect("cache poisoned");
            inner.map.values().cloned().collect()
        };
        for e in &entries {
            let name = format!("{:016x}", fnv1a64(FNV_OFFSET, e.key.as_bytes()));
            ck.store(&name, &e.run)?;
            write_file(
                &dir.join(format!("{name}.key.txt")),
                format!("{}\n{}\n", e.id, e.key).as_bytes(),
            )?;
        }
        Ok(entries.len())
    }

    /// Loads a previously flushed directory into the cache. Absent
    /// directories load nothing; a directory recorded under a different
    /// code fingerprint is removed and reported as `stale_rejected`.
    pub fn warm_load(&self, dir: &Path) -> Result<WarmReport, RunError> {
        if !dir.exists() {
            return Ok(WarmReport::default());
        }
        let ck = match CheckpointDir::open(dir, &code_fingerprint()) {
            Ok(ck) => ck,
            Err(RunError::Config(_)) => {
                // Flushed by a different binary: every entry is stale.
                // Reject wholesale rather than serving old reports.
                std::fs::remove_dir_all(dir).map_err(|e| RunError::Io {
                    path: dir.display().to_string(),
                    message: e.to_string(),
                })?;
                return Ok(WarmReport {
                    loaded: 0,
                    stale_rejected: true,
                });
            }
            Err(e) => return Err(e),
        };
        let mut loaded = 0;
        for name in ck.ids() {
            let Some(run) = ck.load(&name) else { continue };
            let Ok(keyfile) = std::fs::read_to_string(dir.join(format!("{name}.key.txt"))) else {
                continue;
            };
            let mut lines = keyfile.lines();
            let (Some(id), Some(key)) = (lines.next(), lines.next()) else {
                continue;
            };
            self.put(
                key,
                CachedRun {
                    id: id.to_string(),
                    key: key.to_string(),
                    run,
                },
            );
            loaded += 1;
        }
        Ok(WarmReport {
            loaded,
            stale_rejected: false,
        })
    }
}

/// Opens `dir` as a checkpoint pinned to the current code fingerprint,
/// discarding it first if it was recorded by a different binary.
fn open_current(dir: &Path) -> Result<CheckpointDir, RunError> {
    match CheckpointDir::open(dir, &code_fingerprint()) {
        Ok(ck) => Ok(ck),
        Err(RunError::Config(_)) => {
            std::fs::remove_dir_all(dir).map_err(|e| RunError::Io {
                path: dir.display().to_string(),
                message: e.to_string(),
            })?;
            CheckpointDir::open(dir, &code_fingerprint())
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn scratch_dir() -> PathBuf {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        std::env::temp_dir().join(format!(
            "mcd-serve-cache-test-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn entry(key: &str) -> CachedRun {
        CachedRun {
            id: "fig9".into(),
            key: key.into(),
            run: CompletedRun {
                report: format!("report for {key}\n"),
                kind: "simulation".into(),
                wall_s: 0.25,
                runs: 2,
                instructions: 1000,
                baseline_requests: 0,
                events_processed: 40,
                cycles_skipped: 160,
                run_wall_p50_s: 0.125,
                run_wall_p99_s: 0.25,
            },
        }
    }

    #[test]
    fn put_get_roundtrips() {
        let c = ResultCache::new(4);
        assert!(c.is_empty());
        c.put("a", entry("a"));
        assert_eq!(c.get("a").expect("present").key, "a");
        assert!(c.get("b").is_none());
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let c = ResultCache::new(2);
        c.put("a", entry("a"));
        c.put("b", entry("b"));
        // Touch "a" so "b" is the LRU victim.
        assert!(c.get("a").is_some());
        c.put("c", entry("c"));
        assert_eq!(c.len(), 2);
        assert!(c.get("a").is_some(), "recently used survives");
        assert!(c.get("b").is_none(), "LRU entry evicted");
        assert!(c.get("c").is_some());
    }

    #[test]
    fn refresh_does_not_grow_the_order_queue() {
        let c = ResultCache::new(2);
        for _ in 0..10 {
            c.put("a", entry("a"));
        }
        c.put("b", entry("b"));
        c.put("c", entry("c"));
        assert_eq!(c.len(), 2, "duplicate puts must not inflate occupancy");
    }

    #[test]
    fn flush_then_warm_load_roundtrips() {
        let dir = scratch_dir();
        let c = ResultCache::new(8);
        c.put("k1", entry("k1"));
        c.put("k2", entry("k2"));
        assert_eq!(c.flush(&dir).expect("flush"), 2);

        let warm = ResultCache::new(8);
        let report = warm.warm_load(&dir).expect("warm load");
        assert_eq!(
            report,
            WarmReport {
                loaded: 2,
                stale_rejected: false
            }
        );
        assert_eq!(
            warm.get("k1").expect("loaded"),
            c.get("k1").expect("still here")
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The version-flip regression (ISSUE 4 bugfix): a warm dir flushed
    /// by an older binary must be a miss, not a hit.
    #[test]
    fn stale_version_warm_dir_is_rejected() {
        use mcd_bench::checkpoint::code_fingerprint_for;
        let dir = scratch_dir();
        // Simulate an older binary's flush: same layout, old fingerprint.
        let old = CheckpointDir::open(&dir, &code_fingerprint_for("0.0.0-old")).expect("open old");
        old.store("deadbeef00000000", &entry("k1").run)
            .expect("store");
        write_file(&dir.join("deadbeef00000000.key.txt"), b"fig9\nk1\n").expect("write key");

        let warm = ResultCache::new(8);
        let report = warm.warm_load(&dir).expect("warm load");
        assert_eq!(
            report,
            WarmReport {
                loaded: 0,
                stale_rejected: true
            }
        );
        assert!(warm.get("k1").is_none(), "stale entry must not be served");
        // The discarded directory is reusable by the current binary.
        let c = ResultCache::new(8);
        c.put("k1", entry("k1"));
        assert_eq!(c.flush(&dir).expect("flush over discarded dir"), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_dir_warm_loads_nothing() {
        let warm = ResultCache::new(8);
        let report = warm.warm_load(&scratch_dir()).expect("no dir is fine");
        assert_eq!(report, WarmReport::default());
    }
}
