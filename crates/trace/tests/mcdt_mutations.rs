//! Mutation suite for the `.mcdt` decoders and the stream frames.
//! Generated recordings (runs, anchors and the index) and one frame of
//! each kind are cut at every length and flipped at every bit, and every
//! reader — `read_mcdt`, `read_index`, `read_anchor_at`, `read_segment`,
//! `decode_frame` — must return the original value or a typed error,
//! never panic. CRC-32 detects every single-bit flip, so no flip decodes
//! to a different value. Flips re-sealed under a fresh CRC reach the
//! payload decoders behind it: those may decode to other values, but
//! must not panic either. Whatever a reader returns holds no vector
//! reserved past the input's length in elements (every element takes at
//! least one byte of input).

mod common;

use common::blocks;
use mcd_power::{OpIndex, TimePs};
use mcd_sim::{CtrlEvent, DomainId, ResetReason, SignalKind, StepDir, TraceEvent};
use mcd_trace::{
    crc32, decode_frame, encode_event_frame, encode_meta_frame, read_anchor_at, read_index,
    read_mcdt, read_segment, write_mcdt, Anchor, RunRecording, StreamFrame, TraceIndex, FOOTER_LEN,
    MAGIC,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// A strategy from a plain generator function.
struct Gen<F>(F);

impl<T, F: Fn(&mut TestRng) -> T> Strategy for Gen<F> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

fn pick<T: Copy>(rng: &mut TestRng, all: &[T]) -> T {
    all[(rng.next_u64() % all.len() as u64) as usize]
}

/// A finite `f64` from random bits, so decoded values compare with `==`.
fn arb_f64(rng: &mut TestRng) -> f64 {
    loop {
        let f = f64::from_bits(rng.next_u64());
        if f.is_finite() {
            return f;
        }
    }
}

/// Any event variant, at a timestamp near `t` (sometimes before it, so
/// the delta chain steps backwards).
fn arb_event(rng: &mut TestRng, t: u64) -> TraceEvent {
    let at = TimePs::new(t.wrapping_add(rng.next_u64() % 5_000).wrapping_sub(1_000));
    let domain = pick(rng, &DomainId::ALL);
    let signal = pick(rng, &[SignalKind::Occupancy, SignalKind::Delta]);
    let dir = pick(rng, &[StepDir::Up, StepDir::Down]);
    let ctrl = |event| TraceEvent::Controller { domain, event };
    match rng.next_u64() % 7 {
        0 => ctrl(CtrlEvent::WindowEnter {
            at,
            signal,
            value: arb_f64(rng),
            occupancy: rng.next_u64() as u32,
            dir,
        }),
        1 => ctrl(CtrlEvent::WindowExit {
            at,
            signal,
            value: arb_f64(rng),
            occupancy: rng.next_u64() as u32,
        }),
        2 => ctrl(CtrlEvent::RelayArm {
            at,
            signal,
            dir,
            remaining: arb_f64(rng),
        }),
        3 => ctrl(CtrlEvent::RelayFire { at, signal, dir }),
        4 => ctrl(CtrlEvent::RelayReset {
            at,
            signal,
            why: pick(
                rng,
                &[
                    ResetReason::BackInside,
                    ResetReason::SideFlip,
                    ResetReason::Cancelled,
                    ResetReason::Acted,
                ],
            ),
        }),
        5 => TraceEvent::FreqStep {
            at,
            domain,
            from: OpIndex(rng.next_u64() as u16),
            to: OpIndex(rng.next_u64() as u16),
            from_mhz: arb_f64(rng),
            to_mhz: arb_f64(rng),
            from_mv: arb_f64(rng),
            to_mv: arb_f64(rng),
        },
        _ => TraceEvent::QueueHistogram {
            at,
            domain,
            samples: rng.next_u64() >> (rng.next_u64() % 64),
            counts: (0..rng.next_u64() % 6)
                .map(|_| rng.next_u64() % 300)
                .collect(),
        },
    }
}

/// One or two runs of up to 20 events, with anchors (a few bytes of
/// snapshot each) at sorted positions, the run's end included.
fn arb_runs(rng: &mut TestRng) -> Vec<RunRecording> {
    (0..1 + rng.next_u64() % 2)
        .map(|r| {
            let n = rng.next_u64() % 21;
            let events: Vec<TraceEvent> = (0..n).map(|i| arb_event(rng, 10_000 * i)).collect();
            let mut at: Vec<u64> = (0..rng.next_u64() % 4)
                .map(|_| rng.next_u64() % (n + 1))
                .collect();
            at.sort_unstable();
            let anchors = at
                .into_iter()
                .zip(1..)
                .map(|(event_index, retired)| Anchor {
                    event_index,
                    retired,
                    snapshot: (0..rng.next_u64() % 9)
                        .map(|_| rng.next_u64() as u8)
                        .collect(),
                })
                .collect();
            RunRecording {
                label: format!("run{r}"),
                spec: rng
                    .next_u64()
                    .is_multiple_of(2)
                    .then(|| "{\"k\":1}".to_string()),
                events,
                anchors,
            }
        })
        .collect()
}

/// Every read a replay or a reader of the whole file makes, with its
/// result on the unmutated bytes.
struct Reads {
    index: TraceIndex,
    runs: Vec<RunRecording>,
    anchors: Vec<(u64, Anchor)>,
    /// `(run, from anchor, to, events)` for every anchor or the run's
    /// start as `from`, and as `to` the first event, the middle of the
    /// rest, every later anchor and the run's end.
    segments: Vec<(usize, Option<usize>, u64, Vec<TraceEvent>)>,
}

fn reads(bytes: &[u8], runs: &[RunRecording]) -> Reads {
    let index = read_index(bytes).expect("index decodes");
    let mut anchors = Vec::new();
    let mut segments = Vec::new();
    for (ri, run) in index.runs.iter().enumerate() {
        for (k, a) in run.anchors.iter().enumerate() {
            anchors.push((a.offset, runs[ri].anchors[k].clone()));
        }
        let froms = std::iter::once((None, 0)).chain(
            run.anchors
                .iter()
                .enumerate()
                .map(|(k, a)| (Some(k), a.event_index)),
        );
        for (from, first) in froms {
            let mut tos: Vec<u64> = [first, (first + run.event_count) / 2, run.event_count]
                .into_iter()
                .chain(run.anchors.iter().map(|a| a.event_index))
                .filter(|&to| to >= first)
                .collect();
            tos.sort_unstable();
            tos.dedup();
            for to in tos {
                let events = runs[ri].events[first as usize..to as usize].to_vec();
                segments.push((ri, from, to, events));
            }
        }
    }
    Reads {
        index,
        runs: runs.to_vec(),
        anchors,
        segments,
    }
}

/// No vector a reader returned holds more elements than the input has
/// bytes.
fn bounded(len: usize, events: &[TraceEvent], cap: usize) -> Result<(), TestCaseError> {
    prop_assert!(cap <= len, "{cap} events reserved from {len} bytes");
    for ev in events {
        if let TraceEvent::QueueHistogram { counts, .. } = ev {
            prop_assert!(
                counts.capacity() <= len,
                "{} counts reserved",
                counts.capacity()
            );
        }
    }
    Ok(())
}

/// Runs every reader over `bytes`. With `exact`, each must return what
/// it returns on the original bytes or a typed error; without, any
/// value. Either way: no panic, and bounded vectors.
fn check(bytes: &[u8], want: &Reads, exact: bool) -> Result<(), TestCaseError> {
    let len = bytes.len();
    if let Ok(file) = read_mcdt(bytes) {
        for run in &file.runs {
            bounded(len, &run.events, run.events.capacity())?;
            prop_assert!(run.anchors.iter().all(|a| a.snapshot.capacity() <= len));
        }
        if exact {
            prop_assert_eq!(&file.index, &want.index);
            prop_assert_eq!(&file.runs, &want.runs);
        }
    }
    let index = read_index(bytes);
    if exact {
        if let Ok(index) = &index {
            prop_assert_eq!(index, &want.index);
        }
    }
    for (offset, anchor) in &want.anchors {
        if let Ok(got) = read_anchor_at(bytes, *offset) {
            prop_assert!(got.snapshot.capacity() <= len);
            if exact {
                prop_assert_eq!(&got, anchor);
            }
        }
    }
    for (ri, from, to, events) in &want.segments {
        if let Ok(got) = read_segment(bytes, &want.index, *ri, *from, *to) {
            bounded(len, &got, got.capacity())?;
            if exact {
                prop_assert_eq!(&got, events);
            }
        }
    }
    // A mutated index drives the segment reader to wherever it points.
    if let (Ok(index), false) = (&index, exact) {
        for (ri, run) in index.runs.iter().enumerate() {
            for from in std::iter::once(None).chain((0..run.anchors.len()).map(Some)) {
                if let Ok(got) = read_segment(bytes, index, ri, from, run.event_count) {
                    bounded(len, &got, got.capacity())?;
                }
            }
        }
    }
    Ok(())
}

/// Calls `f` on `bytes` with each bit of each block's kind byte and
/// payload flipped in turn, the block's CRC recomputed over the change.
fn each_resealed_flip(
    bytes: &mut [u8],
    from: usize,
    end: usize,
    mut f: impl FnMut(&[u8]) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    for (start, payload, crc_at) in blocks(bytes, from, end) {
        let sealed: [u8; 4] = bytes[crc_at..crc_at + 4].try_into().expect("4 bytes");
        for i in std::iter::once(start).chain(payload..crc_at) {
            for bit in 0..8 {
                bytes[i] ^= 1 << bit;
                let crc = crc32(&bytes[start..crc_at]).to_le_bytes();
                bytes[crc_at..crc_at + 4].copy_from_slice(&crc);
                f(bytes)?;
                bytes[i] ^= 1 << bit;
            }
        }
        bytes[crc_at..crc_at + 4].copy_from_slice(&sealed);
    }
    Ok(())
}

/// Every cut and every single-bit flip of `bytes` through `f`.
fn each_cut_and_flip(
    bytes: &mut [u8],
    mut f: impl FnMut(&[u8]) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    for cut in 0..bytes.len() {
        f(&bytes[..cut])?;
    }
    for i in 0..bytes.len() {
        for bit in 0..8 {
            bytes[i] ^= 1 << bit;
            f(bytes)?;
            bytes[i] ^= 1 << bit;
        }
    }
    Ok(())
}

fn arb_frames(rng: &mut TestRng) -> [StreamFrame; 2] {
    let t = rng.next_u64() >> 8;
    let event = StreamFrame::Event {
        label: format!("run|{}", rng.next_u64() % 1_000),
        event: arb_event(rng, t),
    };
    let meta = StreamFrame::Meta {
        line: format!("{{\"done\":true,\"n\":{}}}", rng.next_u64()),
    };
    [event, meta]
}

fn encode_frame(frame: &StreamFrame) -> Vec<u8> {
    match frame {
        StreamFrame::Event { label, event } => encode_event_frame(label, event),
        StreamFrame::Meta { line } => encode_meta_frame(line),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_cut_and_flip_of_a_recording_is_the_original_or_a_typed_error(
        runs in Gen(arb_runs)
    ) {
        let mut bytes = write_mcdt(&runs);
        let want = reads(&bytes, &runs);
        check(&bytes, &want, true)?;
        each_cut_and_flip(&mut bytes, |b| check(b, &want, true))?;
    }

    #[test]
    fn resealed_flips_of_a_recording_never_panic(runs in Gen(arb_runs)) {
        let mut bytes = write_mcdt(&runs);
        let want = reads(&bytes, &runs);
        let end = bytes.len() - FOOTER_LEN;
        each_resealed_flip(&mut bytes, MAGIC.len(), end, |b| check(b, &want, false))?;
    }

    #[test]
    fn every_cut_and_flip_of_a_frame_is_the_original_or_a_typed_error(
        frames in Gen(arb_frames)
    ) {
        for frame in frames {
            let mut bytes = encode_frame(&frame);
            prop_assert_eq!(decode_frame(&bytes), Ok((frame.clone(), bytes.len())));
            each_cut_and_flip(&mut bytes, |b| {
                if let Ok((got, used)) = decode_frame(b) {
                    prop_assert_eq!((&got, used), (&frame, b.len()));
                }
                Ok(())
            })?;
            let end = bytes.len();
            each_resealed_flip(&mut bytes, 0, end, |b| {
                if let Ok((StreamFrame::Event { event, .. }, _)) = decode_frame(b) {
                    bounded(b.len(), std::slice::from_ref(&event), 0)?;
                }
                Ok(())
            })?;
        }
    }
}
