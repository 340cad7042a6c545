//! The `--trace-out` JSONL format: its one writer and its one reader.
//!
//! [`render_jsonl`] is the writer (it splices each event's own `to_json`
//! body after the run tag), and [`parse_jsonl`] inverts it exactly:
//! `f64` text produced by the writer is the shortest round-trip form, so
//! `parse → render` returns the original bytes — the property the
//! `.mcdt` converter is gated on.

use mcd_power::{OpIndex, TimePs};
use mcd_sim::{CtrlEvent, DomainId, ResetReason, SignalKind, StepDir, TraceEvent};

use crate::{err, RunRecording, TraceCodecError};

/// Escapes a string for embedding in a JSON string literal: run labels
/// in trace lines, and every string mcd-serve writes into a JSON body.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

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

// -------------------------------------------------------- flat tokenizer

/// A value in a flat trace-line object: a string, a raw scalar token
/// (number or `null`), or an array of raw scalar tokens.
enum JVal {
    Str(String),
    Raw(String),
    Arr(Vec<String>),
}

struct Scan<'a> {
    s: &'a [u8],
    pos: usize,
}

impl<'a> Scan<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.s.len() && self.s[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), TraceCodecError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(err(format!(
                "expected {:?} at byte {} of trace line",
                b as char, self.pos
            )))
        }
    }

    fn string(&mut self) -> Result<String, TraceCodecError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self
                .peek()
                .ok_or_else(|| err("unterminated string in trace line"))?
            {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex).map_err(|_| err("bad \\u hex"))?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| err("bad \\u hex"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| err("\\u escape is not a scalar value"))?,
                            );
                        }
                        other => return Err(err(format!("unknown escape \\{}", other as char))),
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through unchanged).
                    let rest = std::str::from_utf8(&self.s[self.pos..])
                        .map_err(|_| err("trace line is not UTF-8"))?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn raw_scalar(&mut self) -> Result<String, TraceCodecError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b',' | b'}' | b']') || b.is_ascii_whitespace() {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(err("empty scalar in trace line"));
        }
        Ok(String::from_utf8_lossy(&self.s[start..self.pos]).into_owned())
    }

    fn value(&mut self) -> Result<JVal, TraceCodecError> {
        self.skip_ws();
        match self
            .peek()
            .ok_or_else(|| err("missing value in trace line"))?
        {
            b'"' => Ok(JVal::Str(self.string()?)),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(JVal::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.raw_scalar()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(JVal::Arr(items));
                        }
                        _ => return Err(err("unterminated array in trace line")),
                    }
                }
            }
            _ => Ok(JVal::Raw(self.raw_scalar()?)),
        }
    }
}

/// Parses one flat trace-line object into key/value pairs.
fn parse_flat_object(line: &str) -> Result<Vec<(String, JVal)>, TraceCodecError> {
    let mut sc = Scan {
        s: line.as_bytes(),
        pos: 0,
    };
    sc.skip_ws();
    sc.expect(b'{')?;
    let mut fields = Vec::new();
    sc.skip_ws();
    if sc.peek() == Some(b'}') {
        return Ok(fields);
    }
    loop {
        sc.skip_ws();
        let key = sc.string()?;
        sc.skip_ws();
        sc.expect(b':')?;
        let val = sc.value()?;
        fields.push((key, val));
        sc.skip_ws();
        match sc.peek() {
            Some(b',') => sc.pos += 1,
            Some(b'}') => {
                sc.pos += 1;
                sc.skip_ws();
                if sc.pos != sc.s.len() {
                    return Err(err("trailing bytes after trace-line object"));
                }
                return Ok(fields);
            }
            _ => return Err(err("unterminated trace-line object")),
        }
    }
}

// ---------------------------------------------------------- field access

struct Fields(Vec<(String, JVal)>);

impl Fields {
    fn get(&self, key: &str) -> Option<&JVal> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn str(&self, key: &str) -> Result<&str, TraceCodecError> {
        match self.get(key) {
            Some(JVal::Str(s)) => Ok(s),
            _ => Err(err(format!("missing string field {key:?}"))),
        }
    }

    fn u64(&self, key: &str) -> Result<u64, TraceCodecError> {
        match self.get(key) {
            Some(JVal::Raw(s)) => s
                .parse::<u64>()
                .map_err(|_| err(format!("field {key:?} is not a u64: {s:?}"))),
            _ => Err(err(format!("missing numeric field {key:?}"))),
        }
    }

    /// An `f64` field as the writer emits it: a JSON number in shortest
    /// round-trip form, or `null` for non-finite values (decoded as NaN,
    /// which the writer maps back to `null`).
    fn f64(&self, key: &str) -> Result<f64, TraceCodecError> {
        match self.get(key) {
            Some(JVal::Raw(s)) if s == "null" => Ok(f64::NAN),
            Some(JVal::Raw(s)) => s
                .parse::<f64>()
                .map_err(|_| err(format!("field {key:?} is not an f64: {s:?}"))),
            _ => Err(err(format!("missing numeric field {key:?}"))),
        }
    }

    fn counts(&self, key: &str) -> Result<Vec<u64>, TraceCodecError> {
        match self.get(key) {
            Some(JVal::Arr(items)) => items
                .iter()
                .map(|s| {
                    s.parse::<u64>()
                        .map_err(|_| err(format!("count {s:?} is not a u64")))
                })
                .collect(),
            _ => Err(err(format!("missing array field {key:?}"))),
        }
    }
}

fn domain_from_label(s: &str) -> Result<DomainId, TraceCodecError> {
    match s {
        "front-end" => Ok(DomainId::FrontEnd),
        "INT" => Ok(DomainId::Int),
        "FP" => Ok(DomainId::Fp),
        "LS" => Ok(DomainId::Ls),
        _ => Err(err(format!("unknown domain {s:?}"))),
    }
}

fn signal_from_label(s: &str) -> Result<SignalKind, TraceCodecError> {
    match s {
        "occupancy" => Ok(SignalKind::Occupancy),
        "delta" => Ok(SignalKind::Delta),
        _ => Err(err(format!("unknown signal {s:?}"))),
    }
}

fn dir_from_label(s: &str) -> Result<StepDir, TraceCodecError> {
    match s {
        "up" => Ok(StepDir::Up),
        "down" => Ok(StepDir::Down),
        _ => Err(err(format!("unknown direction {s:?}"))),
    }
}

fn why_from_label(s: &str) -> Result<ResetReason, TraceCodecError> {
    match s {
        "back-inside" => Ok(ResetReason::BackInside),
        "side-flip" => Ok(ResetReason::SideFlip),
        "cancelled" => Ok(ResetReason::Cancelled),
        "acted" => Ok(ResetReason::Acted),
        _ => Err(err(format!("unknown reset reason {s:?}"))),
    }
}

/// Parses one trace line into its run label and event.
pub(crate) fn parse_line(line: &str) -> Result<(String, TraceEvent), TraceCodecError> {
    let fields = Fields(parse_flat_object(line)?);
    let run = fields.str("run")?.to_string();
    let domain = domain_from_label(fields.str("domain")?)?;
    let at = TimePs::new(fields.u64("t_ps")?);
    let kind = fields.str("kind")?;
    let ctrl = |event: CtrlEvent| TraceEvent::Controller { domain, event };
    let occupancy = || {
        fields
            .u64("occupancy")
            .and_then(|v| u32::try_from(v).map_err(|_| err("occupancy > u32")))
    };
    let event = match kind {
        "window_enter" => ctrl(CtrlEvent::WindowEnter {
            at,
            signal: signal_from_label(fields.str("signal")?)?,
            value: fields.f64("value")?,
            occupancy: occupancy()?,
            dir: dir_from_label(fields.str("dir")?)?,
        }),
        "window_exit" => ctrl(CtrlEvent::WindowExit {
            at,
            signal: signal_from_label(fields.str("signal")?)?,
            value: fields.f64("value")?,
            occupancy: occupancy()?,
        }),
        "relay_arm" => ctrl(CtrlEvent::RelayArm {
            at,
            signal: signal_from_label(fields.str("signal")?)?,
            dir: dir_from_label(fields.str("dir")?)?,
            remaining: fields.f64("remaining")?,
        }),
        "relay_fire" => ctrl(CtrlEvent::RelayFire {
            at,
            signal: signal_from_label(fields.str("signal")?)?,
            dir: dir_from_label(fields.str("dir")?)?,
        }),
        "relay_reset" => ctrl(CtrlEvent::RelayReset {
            at,
            signal: signal_from_label(fields.str("signal")?)?,
            why: why_from_label(fields.str("why")?)?,
        }),
        "freq_step" => {
            let from =
                OpIndex(u16::try_from(fields.u64("from_idx")?).map_err(|_| err("from_idx > u16"))?);
            let to =
                OpIndex(u16::try_from(fields.u64("to_idx")?).map_err(|_| err("to_idx > u16"))?);
            // "dir" is derived from from/to by the writer; re-derivation
            // on render reproduces it, so it is validated, not stored.
            let dir = dir_from_label(fields.str("dir")?)?;
            let derived = if to.0 > from.0 {
                StepDir::Up
            } else {
                StepDir::Down
            };
            if dir != derived {
                return Err(err("freq_step dir disagrees with from_idx/to_idx"));
            }
            TraceEvent::FreqStep {
                at,
                domain,
                from,
                to,
                from_mhz: fields.f64("from_mhz")?,
                to_mhz: fields.f64("to_mhz")?,
                from_mv: fields.f64("from_mv")?,
                to_mv: fields.f64("to_mv")?,
            }
        }
        "queue_histogram" => TraceEvent::QueueHistogram {
            at,
            domain,
            samples: fields.u64("samples")?,
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
    fn escape_covers_quotes_controls_and_passthrough() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("l1\nl2\tt\r"), "l1\\nl2\\tt\\r");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
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
    }

    #[test]
    fn dir_field_must_agree_with_indices() {
        let line = "{\"run\": \"x\", \"domain\":\"INT\",\"t_ps\":5,\"kind\":\"freq_step\",\
                    \"dir\":\"up\",\"from_idx\":5,\"to_idx\":3,\"from_mhz\":1,\"to_mhz\":1,\
                    \"from_mv\":1,\"to_mv\":1}";
        assert!(parse_jsonl(line).is_err());
    }
}
