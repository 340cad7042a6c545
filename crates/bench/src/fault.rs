//! Deterministic fault injection for hardening tests.
//!
//! Compiled in only under the `fault-inject` feature (CI's `faults` job);
//! the default build compiles the hook down to a no-op. Faults are
//! described by the `MCD_FAULTS` environment variable as a
//! comma-separated list of `key=action` entries, keyed by experiment id:
//!
//! * `fig7=panic` — panic every time the experiment starts (a permanent
//!   failure: the retry panics too).
//! * `fig7=panic-once` — panic on the first attempt only, so the
//!   harness's single retry succeeds (a transient failure).
//! * `table3=delay:200` — sleep 200 ms before the experiment body, long
//!   enough to trip a small `--run-timeout` budget. Like a simulation,
//!   the delay honours the installed deadline: it sleeps only until the
//!   deadline and then fails with `RunError::Timeout`.
//!
//! Keys that match nothing are ignored, so one `MCD_FAULTS` value can
//! drive a whole sweep.

#[cfg(feature = "fault-inject")]
mod imp {
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock};
    use std::time::{Duration, Instant};

    use crate::error::RunError;

    /// Keys whose `panic-once` fault already fired in this process.
    static FIRED: OnceLock<Mutex<HashSet<String>>> = OnceLock::new();

    fn first_firing(key: &str) -> bool {
        FIRED
            .get_or_init(|| Mutex::new(HashSet::new()))
            .lock()
            .expect("fault-injection state poisoned")
            .insert(key.to_string())
    }

    /// Applies any `MCD_FAULTS` entry matching `key`.
    pub fn injected_fault(key: &str) -> Result<(), RunError> {
        let Ok(spec) = std::env::var("MCD_FAULTS") else {
            return Ok(());
        };
        for entry in spec.split(',') {
            let Some((k, action)) = entry.trim().split_once('=') else {
                continue;
            };
            if k != key {
                continue;
            }
            match action {
                "panic" => panic!("injected fault: {key}"),
                "panic-once" => {
                    if first_firing(key) {
                        panic!("injected fault (once): {key}");
                    }
                }
                other => {
                    let Some(ms) = other.strip_prefix("delay:") else {
                        return Err(RunError::Config(format!(
                            "unknown MCD_FAULTS action {other:?} for {key}"
                        )));
                    };
                    let ms: u64 = ms.parse().map_err(|_| {
                        RunError::Config(format!("bad MCD_FAULTS delay {other:?} for {key}"))
                    })?;
                    let delay = Duration::from_millis(ms);
                    let deadline = crate::parallel::current_deadline();
                    let left =
                        deadline.map_or(delay, |d| d.at.saturating_duration_since(Instant::now()));
                    std::thread::sleep(delay.min(left));
                    if let Some(d) = deadline {
                        d.check()?;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(feature = "fault-inject")]
pub use imp::injected_fault;

/// No-op in default builds; see the module docs.
#[cfg(not(feature = "fault-inject"))]
#[inline]
pub fn injected_fault(_key: &str) -> Result<(), crate::error::RunError> {
    Ok(())
}
