//! The `--trace-out` JSONL format: its one writer and its one reader.
//!
//! [`render_jsonl`] is the writer (it splices each event's own `to_json`
//! body after the run tag), and [`parse_jsonl`] inverts it exactly:
//! `f64` text produced by the writer is the shortest round-trip form, so
//! `parse → render` returns the original bytes — the property the
//! `.mcdt` converter is gated on.

use mcd_power::{OpIndex, TimePs};
use mcd_sim::{CtrlEvent, DomainId, ResetReason, SignalKind, StepDir, TraceEvent};

use crate::codec::{DIRS, REASONS, SIGNALS};
use crate::json::{self, json_escape, Value};
use crate::{err, RunRecording, TraceCodecError};

/// Renders recordings as the harness's JSON-lines format: one event per
/// line, each tagged with the run label that produced it. Specs and
/// anchors have no JSONL form.
pub fn render_jsonl(recordings: &[RunRecording]) -> String {
    let mut out = String::new();
    for r in recordings {
        let run = json_escape(&r.label);
        for ev in &r.events {
            let body = ev.to_json();
            // Splice the run tag into the event object: {"run":"...",...}.
            out.push_str(&format!("{{\"run\": \"{run}\", {}\n", &body[1..]));
        }
    }
    out
}

// ---------------------------------------------------------- field access

/// A trace line, read through [`crate::json`].
struct Fields(Value);

impl Fields {
    fn field<'s, T>(
        &'s self,
        key: &str,
        what: &str,
        read: impl FnOnce(&'s Value) -> Option<T>,
    ) -> Result<T, TraceCodecError> {
        (self.0.get(key).and_then(read))
            .ok_or_else(|| err(format!("field {key:?}: expected {what}")))
    }

    fn str(&self, key: &str) -> Result<&str, TraceCodecError> {
        self.field(key, "a string", Value::as_str)
    }

    /// An unsigned field that must fit `T` (`u64` times, `u32`
    /// occupancies, `u16` operating-point indices).
    fn uint<T: TryFrom<u64>>(&self, key: &str) -> Result<T, TraceCodecError> {
        let v = self.field(key, "a u64", Value::as_u64)?;
        T::try_from(v).map_err(|_| err(format!("field {key:?} out of range: {v}")))
    }

    /// An `f64` field as the writer emits it: a JSON number in shortest
    /// round-trip form, or `null` for non-finite values (decoded as NaN,
    /// which the writer maps back to `null`).
    fn f64(&self, key: &str) -> Result<f64, TraceCodecError> {
        self.field(key, "a number or null", |v| match v {
            Value::Null => Some(f64::NAN),
            v => v.as_f64(),
        })
    }

    fn counts(&self, key: &str) -> Result<Vec<u64>, TraceCodecError> {
        self.field(key, "an array of u64", |v| match v {
            Value::Arr(items) => items.iter().map(Value::as_u64).collect(),
            _ => None,
        })
    }

    /// A label field, inverted through the writer's own `label` so each
    /// string is spelled once, in mcd-sim.
    fn label<T: Copy, L: AsRef<str>>(
        &self,
        key: &str,
        all: &[T],
        label: impl Fn(T) -> L,
    ) -> Result<T, TraceCodecError> {
        let s = self.str(key)?;
        (all.iter().copied().find(|&v| label(v).as_ref() == s))
            .ok_or_else(|| err(format!("unknown {key} {s:?}")))
    }
}

/// Parses one trace line into its run label and event.
pub(crate) fn parse_line(line: &str) -> Result<(String, TraceEvent), TraceCodecError> {
    let fields = Fields(json::parse(line).map_err(|e| err(e.to_string()))?);
    let run = fields.str("run")?.to_string();
    let domain = fields.label("domain", &DomainId::ALL, |d| d.to_string())?;
    let signal = || fields.label("signal", &SIGNALS, SignalKind::label);
    let dir = || fields.label("dir", &DIRS, StepDir::label);
    let at = TimePs::new(fields.uint("t_ps")?);
    let kind = fields.str("kind")?;
    let ctrl = |event: CtrlEvent| TraceEvent::Controller { domain, event };
    let event = match kind {
        "window_enter" => ctrl(CtrlEvent::WindowEnter {
            at,
            signal: signal()?,
            value: fields.f64("value")?,
            occupancy: fields.uint("occupancy")?,
            dir: dir()?,
        }),
        "window_exit" => ctrl(CtrlEvent::WindowExit {
            at,
            signal: signal()?,
            value: fields.f64("value")?,
            occupancy: fields.uint("occupancy")?,
        }),
        "relay_arm" => ctrl(CtrlEvent::RelayArm {
            at,
            signal: signal()?,
            dir: dir()?,
            remaining: fields.f64("remaining")?,
        }),
        "relay_fire" => ctrl(CtrlEvent::RelayFire {
            at,
            signal: signal()?,
            dir: dir()?,
        }),
        "relay_reset" => ctrl(CtrlEvent::RelayReset {
            at,
            signal: signal()?,
            why: fields.label("why", &REASONS, ResetReason::label)?,
        }),
        "freq_step" => {
            let step = TraceEvent::FreqStep {
                at,
                domain,
                from: OpIndex(fields.uint("from_idx")?),
                to: OpIndex(fields.uint("to_idx")?),
                from_mhz: fields.f64("from_mhz")?,
                to_mhz: fields.f64("to_mhz")?,
                from_mv: fields.f64("from_mv")?,
                to_mv: fields.f64("to_mv")?,
            };
            // "dir" is derived from from/to by the writer; re-derivation
            // on render reproduces it, so it is validated, not stored.
            if step.step_dir() != Some(dir()?) {
                return Err(err("freq_step dir disagrees with from_idx/to_idx"));
            }
            step
        }
        "queue_histogram" => TraceEvent::QueueHistogram {
            at,
            domain,
            samples: fields.uint("samples")?,
            counts: fields.counts("counts")?,
        },
        other => return Err(err(format!("unknown event kind {other:?}"))),
    };
    Ok((run, event))
}

/// Parses a full JSONL trace back into recordings, grouping lines by run
/// label in first-appearance order (the writer emits runs contiguously,
/// so `parse → render` is the identity on its output). JSONL carries no
/// specs or anchors; those exist only in `.mcdt`.
pub fn parse_jsonl(text: &str) -> Result<Vec<RunRecording>, TraceCodecError> {
    let mut runs: Vec<RunRecording> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let (label, event) =
            parse_line(line).map_err(|e| err(format!("line {}: {}", i + 1, e.0)))?;
        match runs.iter_mut().find(|r| r.label == label) {
            Some(run) => run.events.push(event),
            None => runs.push(RunRecording {
                label,
                spec: None,
                events: vec![event],
                anchors: Vec::new(),
            }),
        }
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Controller {
                domain: DomainId::Int,
                event: CtrlEvent::WindowEnter {
                    at: TimePs::new(12_345),
                    signal: SignalKind::Occupancy,
                    value: -0.362_500_000_000_000_04,
                    occupancy: 3,
                    dir: StepDir::Down,
                },
            },
            TraceEvent::Controller {
                domain: DomainId::Fp,
                event: CtrlEvent::RelayArm {
                    at: TimePs::new(12_400),
                    signal: SignalKind::Delta,
                    dir: StepDir::Up,
                    remaining: 2.5,
                },
            },
            TraceEvent::Controller {
                domain: DomainId::Ls,
                event: CtrlEvent::RelayReset {
                    at: TimePs::new(13_000),
                    signal: SignalKind::Occupancy,
                    why: ResetReason::SideFlip,
                },
            },
            TraceEvent::FreqStep {
                at: TimePs::new(14_000),
                domain: DomainId::Int,
                from: OpIndex(100),
                to: OpIndex(96),
                from_mhz: 812.5,
                to_mhz: 800.0,
                from_mv: 1_012.5,
                to_mv: 1_000.0,
            },
            TraceEvent::QueueHistogram {
                at: TimePs::new(20_000),
                domain: DomainId::Ls,
                samples: 41,
                counts: vec![0, 7, 12, 0, 1],
            },
        ]
    }

    fn recording(label: &str, events: Vec<TraceEvent>) -> RunRecording {
        RunRecording {
            label: label.to_string(),
            spec: None,
            events,
            anchors: Vec::new(),
        }
    }

    #[test]
    fn parse_render_is_the_identity_on_writer_output() {
        let traces = vec![
            recording("fig9|adaptive|ops=1000", sample_events()),
            recording("weird \"label\"\\with\u{1}escapes", sample_events()),
        ];
        let text = render_jsonl(&traces);
        let parsed = parse_jsonl(&text).expect("writer output parses");
        assert_eq!(render_jsonl(&parsed), text);
        assert_eq!(parsed, traces);
    }

    #[test]
    fn null_value_round_trips_as_nan() {
        let traces = vec![recording(
            "r",
            vec![TraceEvent::Controller {
                domain: DomainId::Int,
                event: CtrlEvent::WindowExit {
                    at: TimePs::new(1),
                    signal: SignalKind::Occupancy,
                    value: f64::NAN,
                    occupancy: 0,
                },
            }],
        )];
        let text = render_jsonl(&traces);
        assert!(text.contains("\"value\":null"));
        let parsed = parse_jsonl(&text).expect("parses");
        assert_eq!(render_jsonl(&parsed), text);
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        for bad in [
            "{\"run\": \"x\"}", // no domain/kind
            "not json at all",
            "{\"run\": \"x\", \"domain\":\"INT\",\"t_ps\":1,\"kind\":\"nope\"}",
            "{\"run\": \"x\", \"domain\":\"INT\",\"t_ps\":-3,\"kind\":\"relay_fire\"}",
        ] {
            assert!(parse_jsonl(bad).is_err(), "accepted: {bad}");
        }
        // The strict reader's refusals, each one edit away from a line
        // that parses: a duplicate key, trailing bytes, a raw control
        // character, a non-JSON number, an array where a scalar belongs.
        let ok = "{\"run\": \"x\", \"domain\":\"INT\",\"t_ps\":1,\"kind\":\"relay_fire\",\
                  \"signal\":\"delta\",\"dir\":\"up\"}";
        assert!(parse_jsonl(ok).is_ok());
        for bad in [
            ok.replace("\"domain\"", "\"run\": \"y\", \"domain\""),
            format!("{ok} x"),
            ok.replace("\"x\"", "\"a\u{1}b\""),
            ok.replace(":1,", ":+1,"),
            ok.replace(":1,", ":[1],"),
        ] {
            assert!(parse_jsonl(&bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn dir_field_must_agree_with_indices() {
        let line = "{\"run\": \"x\", \"domain\":\"INT\",\"t_ps\":5,\"kind\":\"freq_step\",\
                    \"dir\":\"up\",\"from_idx\":5,\"to_idx\":3,\"from_mhz\":1,\"to_mhz\":1,\
                    \"from_mv\":1,\"to_mv\":1}";
        assert!(parse_jsonl(line).is_err());
    }
}
