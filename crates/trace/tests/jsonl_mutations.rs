//! Mutation suite for the JSONL reader. One line of every event kind,
//! rendered by `render_jsonl`, is cut at every byte and flipped at every
//! bit, and `parse_jsonl` must return a value or a typed error, never
//! panic. A cut line is never a whole object, so every cut but the one
//! that keeps the line must be refused. JSONL carries no checksum, so a
//! flip inside a number or a string can read as another valid event;
//! whatever the reader returns must then be something the writer renders
//! and the reader reads back unchanged. Flips that leave invalid UTF-8
//! reach the reader as U+FFFD, as a lossy decode would hand them over.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mcd_power::{OpIndex, TimePs};
use mcd_sim::{CtrlEvent, DomainId, ResetReason, SignalKind, StepDir, TraceEvent};
use mcd_trace::{parse_jsonl, render_jsonl, RunRecording, TraceCodecError};

/// One event of every kind the JSONL format carries.
fn every_kind() -> Vec<TraceEvent> {
    let ctrl = |domain, event| TraceEvent::Controller { domain, event };
    vec![
        ctrl(
            DomainId::Int,
            CtrlEvent::WindowEnter {
                at: TimePs::new(12_345),
                signal: SignalKind::Occupancy,
                value: -0.362_500_000_000_000_04,
                occupancy: 3,
                dir: StepDir::Down,
            },
        ),
        ctrl(
            DomainId::Fp,
            CtrlEvent::WindowExit {
                at: TimePs::new(12_390),
                signal: SignalKind::Delta,
                value: 1.25e-7,
                occupancy: 17,
            },
        ),
        ctrl(
            DomainId::Fp,
            CtrlEvent::RelayArm {
                at: TimePs::new(12_400),
                signal: SignalKind::Delta,
                dir: StepDir::Up,
                remaining: 2.5,
            },
        ),
        ctrl(
            DomainId::Ls,
            CtrlEvent::RelayFire {
                at: TimePs::new(12_950),
                signal: SignalKind::Occupancy,
                dir: StepDir::Up,
            },
        ),
        ctrl(
            DomainId::Ls,
            CtrlEvent::RelayReset {
                at: TimePs::new(13_000),
                signal: SignalKind::Occupancy,
                why: ResetReason::SideFlip,
            },
        ),
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

/// `event`'s JSONL line (newline included), under a run label that
/// needs escaping.
fn line_of(event: &TraceEvent) -> Vec<u8> {
    let recording = RunRecording {
        label: "fig9|adaptive \"q\"\\ops".to_string(),
        spec: None,
        events: vec![event.clone()],
        anchors: Vec::new(),
    };
    render_jsonl(&[recording]).into_bytes()
}

/// Parses `bytes`, turning a panic into a test failure that names the
/// input.
fn parse(bytes: &[u8], what: &str) -> Result<Vec<RunRecording>, TraceCodecError> {
    let text = String::from_utf8_lossy(bytes);
    catch_unwind(AssertUnwindSafe(|| parse_jsonl(&text)))
        .unwrap_or_else(|_| panic!("parse_jsonl panicked on {what}: {text:?}"))
}

#[test]
fn every_cut_is_refused_or_the_whole_line() {
    for event in every_kind() {
        let line = line_of(&event);
        for len in 0..=line.len() {
            let what = format!("the first {len} bytes");
            match parse(&line[..len], &what) {
                Ok(runs) if len >= line.len() - 1 => {
                    assert_eq!(runs.len(), 1, "{what}");
                    assert_eq!(runs[0].events, std::slice::from_ref(&event), "{what}");
                }
                // Blank input is an empty trace, not an error.
                Ok(runs) if len == 0 => assert!(runs.is_empty()),
                Ok(runs) => panic!("{what} of {line:?} read as {runs:?}"),
                Err(TraceCodecError(msg)) => assert!(!msg.is_empty(), "{what}"),
            }
        }
    }
}

#[test]
fn every_bit_flip_is_refused_or_reads_back_unchanged() {
    let (mut refused, mut flips) = (0, 0);
    for event in every_kind() {
        let line = line_of(&event);
        for bit in 0..line.len() * 8 {
            let mut bytes = line.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            let what = format!("bit {bit} flipped");
            flips += 1;
            match parse(&bytes, &what) {
                Ok(runs) => {
                    let again = render_jsonl(&runs);
                    let reread = parse(again.as_bytes(), &format!("{what}, re-rendered"));
                    let reread = reread.unwrap_or_else(|e| panic!("{what}: {e:?}"));
                    assert_eq!(render_jsonl(&reread), again, "{what}");
                }
                Err(TraceCodecError(msg)) => {
                    assert!(!msg.is_empty(), "{what}");
                    refused += 1;
                }
            }
        }
    }
    // Most flips break the syntax, a key or a label; only those inside
    // numbers and the run label can still read.
    assert!(refused * 2 > flips, "{refused} of {flips} flips refused");
}
