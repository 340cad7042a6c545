//! Resumable sweep checkpoints (`repro --checkpoint DIR`, DESIGN.md §7).
//!
//! A checkpoint directory records each completed experiment as two files,
//! written the moment the experiment finishes so a killed sweep loses at
//! most the run in flight:
//!
//! * `<id>.report.txt` — the rendered report, byte-exact;
//! * `<id>.record.json` — the bench record (wall-clock, run and
//!   instruction counters) in the same shape as one `--bench-out` entry,
//!   read back through the strict [`mcd_trace::json`] reader.
//!
//! `manifest.json` pins the configuration fingerprint (ops, seed, PID
//! interval, q_ref scale) *and* a fingerprint of the code that rendered
//! the reports (crate version plus a hash of the experiment registry —
//! see [`code_fingerprint`]). Resuming against a directory recorded
//! under a different configuration — or by a different binary version —
//! is refused: mixing reports from two configurations would silently
//! corrupt the regenerated output, and a stale directory left by an
//! older binary would silently serve reports the current code no longer
//! produces. Reports are deterministic for a fixed configuration and
//! code version, so an entry replayed from the checkpoint is
//! byte-identical to re-running it.
//!
//! The same format backs the `mcd-serve` result cache: the service
//! flushes its content-addressed cache as checkpoint entries on graceful
//! shutdown and warm-loads them on restart, with the code fingerprint
//! rejecting caches flushed by an older binary.

use std::path::{Path, PathBuf};

use mcd_sim::snapshot::{fnv1a64, FNV_OFFSET};
use mcd_trace::json;

use crate::error::RunError;
use crate::runner::RunConfig;

/// Maps an `std::io::Error` at `path` onto the typed taxonomy.
fn io_err(path: &Path, e: std::io::Error) -> RunError {
    RunError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// Writes `contents` to `path` atomically, creating missing parent
/// directories. Every file the harness emits (`--out`, `--bench-out`,
/// `--trace-out`, checkpoints, warm snapshots) goes through here so path
/// handling and error reporting are uniform.
///
/// The write lands in a temporary sibling first and is renamed into
/// place, so a reader — including `--resume` after the writer was killed
/// mid-write — sees the old contents or the new contents, never a
/// truncated mix. (The rename is atomic on the POSIX filesystems the
/// harness targets because the temporary lives in the same directory.)
pub fn write_file(path: &Path, contents: &[u8]) -> Result<(), RunError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| io_err(parent, e))?;
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, contents).map_err(|e| io_err(&tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        // Leave no stray temporary behind a failed rename (e.g. the
        // destination is a directory).
        std::fs::remove_file(&tmp).ok();
        io_err(path, e)
    })
}

/// One completed experiment as recorded in (or replayed from) a
/// checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedRun {
    /// The rendered report, byte-exact.
    pub report: String,
    /// Experiment kind label (`simulation` / `analysis`).
    pub kind: String,
    /// Wall-clock seconds the original run took.
    pub wall_s: f64,
    /// Simulations the run executed.
    pub runs: u64,
    /// Instructions simulated.
    pub instructions: u64,
    /// Baseline lookups the experiment issued (hits and computes alike —
    /// see `RunStats::baseline_requests` for why requests, not hits, are
    /// the deterministic quantity).
    pub baseline_requests: u64,
    /// Scheduler events the experiment's simulations dispatched.
    pub events_processed: u64,
    /// Clock edges and sampling periods the event-driven core absorbed
    /// through steady-state replay or sample batching instead of
    /// dispatching them individually.
    pub cycles_skipped: u64,
    /// Median per-simulation wall time within this experiment, seconds
    /// (0 when the experiment ran no simulations).
    pub run_wall_p50_s: f64,
    /// 99th-percentile per-simulation wall time, seconds.
    pub run_wall_p99_s: f64,
}

impl CompletedRun {
    /// Renders the `--bench-out`-shaped record line.
    ///
    /// `wall_s` is quantized to the printed millisecond resolution
    /// *before* the derived MIPS figure is computed, so rendering is
    /// idempotent across a store/load round-trip: a record re-rendered
    /// from its parsed fields is byte-identical to the file it came
    /// from. `mcd-serve` relies on this for byte-identical warm-cache
    /// responses across restarts.
    pub fn record_json(&self, id: &str) -> String {
        let wall_s = (self.wall_s * 1000.0).round() / 1000.0;
        let mips = if wall_s > 0.0 {
            self.instructions as f64 / wall_s / 1e6
        } else {
            0.0
        };
        // Same quantize-before-render rule as wall_s, for the same
        // idempotency reason.
        let p50 = (self.run_wall_p50_s * 1000.0).round() / 1000.0;
        let p99 = (self.run_wall_p99_s * 1000.0).round() / 1000.0;
        // Skipped-per-event is derived from the two integer counters, so
        // it re-renders identically from a parsed record.
        let skipped_per_event = if self.events_processed > 0 {
            self.cycles_skipped as f64 / self.events_processed as f64
        } else {
            0.0
        };
        format!(
            "{{\"experiment\": \"{id}\", \"kind\": \"{}\", \"wall_s\": {wall_s:.3}, \"runs\": {}, \
             \"instructions\": {}, \"baseline_requests\": {}, \"simulated_mips\": {mips:.2}, \
             \"events_processed\": {}, \"cycles_skipped\": {}, \
             \"cycles_skipped_per_event\": {skipped_per_event:.2}, \
             \"run_wall_p50_s\": {p50:.3}, \"run_wall_p99_s\": {p99:.3}}}",
            self.kind,
            self.runs,
            self.instructions,
            self.baseline_requests,
            self.events_processed,
            self.cycles_skipped,
        )
    }
}

/// Fingerprint of the *code* that renders reports: the crate version
/// plus a hash of the experiment registry (every id and its kind). Two
/// binaries that disagree on either produce incomparable reports, so a
/// checkpoint or warm-cache directory recorded by one is rejected by the
/// other instead of being replayed stale.
pub fn code_fingerprint() -> String {
    code_fingerprint_for(env!("CARGO_PKG_VERSION"))
}

/// [`code_fingerprint`] with an explicit version label — the test
/// surface for proving that flipping the version invalidates a stale
/// cache instead of serving it.
pub fn code_fingerprint_for(version: &str) -> String {
    let mut h = FNV_OFFSET;
    for id in crate::experiments::ALL {
        h = fnv1a64(h, id.as_bytes());
        let kind = crate::experiments::kind(id)
            .expect("every registry id classifies")
            .label();
        h = fnv1a64(h, kind.as_bytes());
    }
    format!("v{version}+x{h:016x}")
}

/// An open checkpoint directory with a verified configuration manifest.
#[derive(Debug, Clone)]
pub struct CheckpointDir {
    dir: PathBuf,
}

impl CheckpointDir {
    /// The fingerprint recorded in the manifest: everything a `repro`
    /// sweep lets the user vary that changes report bytes, prefixed by
    /// the [`code_fingerprint`] of the binary that wrote it — so a
    /// checkpoint recorded by an older binary is refused, not replayed.
    pub fn fingerprint(cfg: &RunConfig) -> String {
        Self::fingerprint_for(cfg, &code_fingerprint())
    }

    /// [`Self::fingerprint`] under an explicit code fingerprint (see
    /// [`code_fingerprint_for`]); tests use this to simulate a version
    /// flip.
    pub fn fingerprint_for(cfg: &RunConfig, code: &str) -> String {
        format!(
            "{code};ops={};seed={};pid_interval={};q_ref_scale={}",
            cfg.ops, cfg.seed, cfg.pid_interval, cfg.q_ref_scale
        )
    }

    /// Opens (creating if needed) `dir` for the configuration described
    /// by `fingerprint`. Refuses a directory recorded under a different
    /// fingerprint.
    pub fn open(dir: impl Into<PathBuf>, fingerprint: &str) -> Result<Self, RunError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        let manifest = dir.join("manifest.json");
        match std::fs::read_to_string(&manifest) {
            Ok(text) => {
                let parsed = json::parse(&text).ok();
                let recorded = (parsed.as_ref().and_then(|m| m.get("fingerprint")?.as_str()))
                    .ok_or_else(|| RunError::Io {
                        path: manifest.display().to_string(),
                        message: "manifest is not JSON with a fingerprint field".into(),
                    })?;
                if recorded != fingerprint {
                    return Err(RunError::Config(format!(
                        "checkpoint {} was recorded under a different configuration \
                         ({recorded}) than the one requested ({fingerprint}); \
                         use a fresh directory",
                        dir.display()
                    )));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                write_file(
                    &manifest,
                    format!("{{\"version\": 1, \"fingerprint\": \"{fingerprint}\"}}\n").as_bytes(),
                )?;
            }
            Err(e) => return Err(io_err(&manifest, e)),
        }
        Ok(CheckpointDir { dir })
    }

    fn report_path(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.report.txt"))
    }

    fn record_path(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.record.json"))
    }

    /// Records a completed experiment. The report is written before the
    /// record, so a crash between the two leaves an entry [`Self::load`]
    /// treats as incomplete.
    pub fn store(&self, id: &str, run: &CompletedRun) -> Result<(), RunError> {
        write_file(&self.report_path(id), run.report.as_bytes())?;
        let mut record = run.record_json(id);
        record.push('\n');
        write_file(&self.record_path(id), record.as_bytes())
    }

    /// The directory this checkpoint lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Ids of every *complete* entry (report and record both present),
    /// sorted. Partial entries — a crash between the two writes — are
    /// skipped, exactly as [`Self::load`] would skip them.
    pub fn ids(&self) -> Vec<String> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut ids: Vec<String> = entries
            .filter_map(|e| {
                let name = e.ok()?.file_name().into_string().ok()?;
                let id = name.strip_suffix(".record.json")?;
                self.report_path(id).exists().then(|| id.to_string())
            })
            .collect();
        ids.sort();
        ids
    }

    /// Replays a completed experiment, or `None` if the entry is absent,
    /// partial, or unreadable (those simply re-run).
    pub fn load(&self, id: &str) -> Option<CompletedRun> {
        let report = std::fs::read_to_string(self.report_path(id)).ok()?;
        let record = json::parse(&std::fs::read_to_string(self.record_path(id)).ok()?).ok()?;
        let uint = |key| record.get(key)?.as_u64();
        let float = |key| record.get(key)?.as_f64();
        Some(CompletedRun {
            report,
            kind: record.get("kind")?.as_str()?.to_string(),
            wall_s: float("wall_s")?,
            runs: uint("runs")?,
            instructions: uint("instructions")?,
            // Renamed from "baseline_cache_hits" when the counter became
            // request-granular: records written under the old name (or
            // before a field existed) fail to load and simply re-run —
            // the standard incomplete-entry path, which also covers any
            // truncated file an unclean kill might have left before
            // writes became atomic.
            baseline_requests: uint("baseline_requests")?,
            events_processed: uint("events_processed")?,
            cycles_skipped: uint("cycles_skipped")?,
            run_wall_p50_s: float("run_wall_p50_s")?,
            run_wall_p99_s: float("run_wall_p99_s")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn scratch_dir() -> PathBuf {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        std::env::temp_dir().join(format!(
            "mcd-checkpoint-test-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn sample() -> CompletedRun {
        CompletedRun {
            report: "Figure N\n\nline one\nline two\n".into(),
            kind: "simulation".into(),
            wall_s: 1.25,
            runs: 7,
            instructions: 123_456,
            baseline_requests: 3,
            events_processed: 9_876,
            cycles_skipped: 54_321,
            run_wall_p50_s: 0.125,
            run_wall_p99_s: 0.5,
        }
    }

    #[test]
    fn store_then_load_roundtrips() {
        let dir = scratch_dir();
        let ck = CheckpointDir::open(&dir, "ops=1;seed=1").expect("open");
        assert_eq!(ck.load("fig9"), None, "empty checkpoint has no entries");
        ck.store("fig9", &sample()).expect("store");
        let back = ck.load("fig9").expect("entry present");
        assert_eq!(back, sample());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_fingerprint_is_refused() {
        let dir = scratch_dir();
        CheckpointDir::open(&dir, "ops=600000;seed=1").expect("create");
        let err = CheckpointDir::open(&dir, "ops=40000;seed=1").unwrap_err();
        assert_eq!(err.kind(), "config-invalid");
        assert!(err.to_string().contains("different configuration"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partial_entries_do_not_resume() {
        let dir = scratch_dir();
        let ck = CheckpointDir::open(&dir, "fp").expect("open");
        // Report written but no record (simulated crash between the two).
        write_file(&dir.join("fig7.report.txt"), b"partial").expect("write");
        assert_eq!(ck.load("fig7"), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_file_creates_parents() {
        let dir = scratch_dir();
        let deep = dir.join("a/b/c.txt");
        write_file(&deep, b"x").expect("nested write");
        assert_eq!(std::fs::read(&deep).expect("read back"), b"x");
        let err = write_file(&dir.join("a/b"), b"clobber a directory").unwrap_err();
        assert_eq!(err.kind(), "io");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_file_leaves_no_temporaries_behind() {
        let dir = scratch_dir();
        write_file(&dir.join("out.txt"), b"payload").expect("write");
        // Failed rename (destination is a directory) cleans up too.
        std::fs::create_dir_all(dir.join("taken")).expect("mkdir");
        write_file(&dir.join("taken"), b"clobber").unwrap_err();
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .expect("dir")
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "stray temporaries: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The kill-mid-write regression: a record truncated at any byte —
    /// what a non-atomic writer could leave when killed — must read as
    /// "incomplete, re-run", never as a resumable entry. With atomic
    /// writes the file can no longer *be* truncated, but `--resume` must
    /// also survive directories written by older binaries or mangled by
    /// the filesystem.
    #[test]
    fn truncated_record_is_rerun_not_trusted() {
        let dir = scratch_dir();
        let ck = CheckpointDir::open(&dir, "fp").expect("open");
        ck.store("fig9", &sample()).expect("store");
        let record_path = dir.join("fig9.record.json");
        let full = std::fs::read(&record_path).expect("read record");
        for cut in [1, full.len() / 2, full.len() - 10] {
            std::fs::write(&record_path, &full[..cut]).expect("truncate");
            assert_eq!(
                ck.load("fig9"),
                None,
                "a record cut at byte {cut} must not resume"
            );
        }
        // Restoring the full bytes resumes again — load keys off content,
        // not some side channel.
        std::fs::write(&record_path, &full).expect("restore");
        assert_eq!(ck.load("fig9"), Some(sample()));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Records written under the pre-rename schema (`baseline_cache_hits`)
    /// re-run instead of resuming with a garbage counter.
    #[test]
    fn old_schema_records_rerun() {
        let dir = scratch_dir();
        let ck = CheckpointDir::open(&dir, "fp").expect("open");
        ck.store("fig9", &sample()).expect("store");
        let record_path = dir.join("fig9.record.json");
        let new_schema = std::fs::read_to_string(&record_path).expect("read");
        let old_schema = new_schema.replace("baseline_requests", "baseline_cache_hits");
        assert_ne!(new_schema, old_schema);
        std::fs::write(&record_path, old_schema).expect("rewrite");
        assert_eq!(ck.load("fig9"), None, "old-schema records must re-run");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_tracks_report_shaping_knobs() {
        let full = RunConfig::full();
        let mut other = RunConfig::full();
        other.q_ref_scale = 1.5;
        assert_ne!(
            CheckpointDir::fingerprint(&full),
            CheckpointDir::fingerprint(&other)
        );
        assert_ne!(
            CheckpointDir::fingerprint(&full),
            CheckpointDir::fingerprint(&RunConfig::quick())
        );
    }

    #[test]
    fn fingerprint_tracks_code_version() {
        let cfg = RunConfig::quick();
        let current = CheckpointDir::fingerprint(&cfg);
        let old = CheckpointDir::fingerprint_for(&cfg, &code_fingerprint_for("0.0.0-old"));
        assert_ne!(current, old, "a version flip must change the fingerprint");
        assert!(
            current.starts_with(&format!("v{}+x", env!("CARGO_PKG_VERSION"))),
            "fingerprint names the recording version: {current}"
        );
    }

    /// The regression the service depends on: a checkpoint (or warm
    /// cache) recorded by an older binary must be refused on open — a
    /// stale entry is a miss, never a hit.
    #[test]
    fn stale_code_version_is_refused_not_served() {
        let dir = scratch_dir();
        let cfg = RunConfig::quick();
        let old = CheckpointDir::fingerprint_for(&cfg, &code_fingerprint_for("0.0.0-old"));
        let ck = CheckpointDir::open(&dir, &old).expect("record under the old version");
        ck.store("fig9", &sample()).expect("store");
        let err = CheckpointDir::open(&dir, &CheckpointDir::fingerprint(&cfg)).unwrap_err();
        assert_eq!(err.kind(), "config-invalid");
        assert!(err.to_string().contains("different configuration"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ids_lists_complete_entries_only() {
        let dir = scratch_dir();
        let ck = CheckpointDir::open(&dir, "fp").expect("open");
        assert!(ck.ids().is_empty());
        ck.store("fig9", &sample()).expect("store");
        ck.store("table2", &sample()).expect("store");
        // A partial entry (record without report) is not listed.
        write_file(&dir.join("fig7.record.json"), b"{}").expect("write");
        assert_eq!(ck.ids(), vec!["fig9".to_string(), "table2".to_string()]);
        assert_eq!(ck.dir(), dir.as_path());
        std::fs::remove_dir_all(&dir).ok();
    }
}
