//! File-level `.mcdt` properties: encode→decode is the identity on
//! recordings, the footer index equals the streamed index, anchors are
//! randomly addressable, any segment from an anchor to an event index
//! decodes on its own, corruption anywhere is detected, and the written
//! bytes are pinned.

mod common;

use common::blocks;
use mcd_power::{OpIndex, TimePs};
use mcd_sim::snapshot::{fnv1a64, FNV_OFFSET};
use mcd_sim::{CtrlEvent, DomainId, SignalKind, StepDir, TraceEvent};
use mcd_trace::{
    catalog_episodes, decode_frame, encode_event_frame, read_anchor_at, read_index, read_mcdt,
    read_segment, render_jsonl, write_mcdt, Anchor, RunRecording, EVENTS_PER_BLOCK, FOOTER_LEN,
    MAGIC,
};

fn enter(t: u64, domain: DomainId) -> TraceEvent {
    TraceEvent::Controller {
        domain,
        event: CtrlEvent::WindowEnter {
            at: TimePs::new(t),
            signal: SignalKind::Occupancy,
            value: (t as f64) / 7.0,
            occupancy: (t % 17) as u32,
            dir: StepDir::Down,
        },
    }
}

fn step(t: u64, domain: DomainId) -> TraceEvent {
    TraceEvent::FreqStep {
        at: TimePs::new(t),
        domain,
        from: OpIndex(50),
        to: OpIndex(46),
        from_mhz: 887.5,
        to_mhz: 875.0,
        from_mv: 1_087.5,
        to_mv: 1_075.0,
    }
}

fn histogram(t: u64, domain: DomainId, samples: u64) -> TraceEvent {
    TraceEvent::QueueHistogram {
        at: TimePs::new(t),
        domain,
        samples,
        counts: (0..8).map(|i| (samples * 3 + i) % 11).collect(),
    }
}

fn sample_runs() -> Vec<RunRecording> {
    // Run 0: long enough to span multiple event blocks, with two anchors.
    let mut events = Vec::new();
    for i in 0..(EVENTS_PER_BLOCK + 100) {
        let t = 1_000 + i * 250;
        events.push(match i % 3 {
            0 => enter(t, DomainId::Int),
            1 => step(t + 10, DomainId::Int),
            _ => histogram(t + 20, DomainId::Fp, i),
        });
    }
    let anchors = vec![
        Anchor {
            event_index: 0,
            retired: 0,
            snapshot: vec![1, 2, 3],
        },
        Anchor {
            event_index: EVENTS_PER_BLOCK / 2,
            retired: 40_000,
            snapshot: vec![9; 1_024],
        },
    ];
    vec![
        RunRecording {
            label: "fig9|adaptive|ops=600000|seed=1".into(),
            spec: Some("{\"benchmark\":\"gzip\",\"scheme\":\"adaptive\"}".into()),
            events,
            anchors,
        },
        RunRecording {
            label: "fig9|baseline|ops=600000|seed=1".into(),
            spec: None,
            events: vec![enter(10, DomainId::Ls), step(400, DomainId::Ls)],
            anchors: Vec::new(),
        },
    ]
}

#[test]
fn encode_decode_is_the_identity_on_recordings() {
    let runs = sample_runs();
    let bytes = write_mcdt(&runs);
    let file = read_mcdt(&bytes).expect("well-formed file decodes");
    assert_eq!(file.runs.len(), runs.len());
    for (got, want) in file.runs.iter().zip(&runs) {
        assert_eq!(got.label, want.label);
        assert_eq!(got.spec, want.spec);
        assert_eq!(got.events, want.events);
        assert_eq!(got.anchors.len(), want.anchors.len());
        for (ga, wa) in got.anchors.iter().zip(&want.anchors) {
            assert_eq!(ga.event_index, wa.event_index);
            assert_eq!(ga.retired, wa.retired);
            assert_eq!(ga.snapshot, wa.snapshot);
        }
    }
}

#[test]
fn footer_index_matches_streamed_catalog() {
    let runs = sample_runs();
    let bytes = write_mcdt(&runs);
    let index = read_index(&bytes).expect("index decodes");
    let full = read_mcdt(&bytes).expect("file decodes");
    assert_eq!(index, full.index);
    for (ri, run) in index.runs.iter().enumerate() {
        assert_eq!(run.label, runs[ri].label);
        assert_eq!(run.event_count, runs[ri].events.len() as u64);
        // The indexed episodes equal the in-memory catalog, offsets aside.
        let expected = catalog_episodes(&runs[ri].events);
        assert_eq!(run.episodes.len(), expected.len());
        for (got, want) in run.episodes.iter().zip(&expected) {
            assert_eq!(got.domain, want.domain);
            assert_eq!(got.onset_event_index, want.onset_event_index);
            assert_eq!(got.onset_ps, want.onset_ps);
            assert_eq!(got.close_event_index, want.close_event_index);
            assert_eq!(got.close_ps, want.close_ps);
            assert_eq!(got.reaction_ps, want.reaction_ps);
            assert_eq!(got.relay_resets, want.relay_resets);
            assert!(
                got.block_offset > 0,
                "episode block offset must point into the file"
            );
        }
    }
}

#[test]
fn anchors_are_randomly_addressable_via_the_index() {
    let runs = sample_runs();
    let bytes = write_mcdt(&runs);
    let index = read_index(&bytes).expect("index decodes");
    let refs = &index.runs[0].anchors;
    assert_eq!(refs.len(), 2);
    for (ar, want) in refs.iter().zip(&runs[0].anchors) {
        let anchor = read_anchor_at(&bytes, ar.offset).expect("anchor decodes");
        assert_eq!(anchor.event_index, want.event_index);
        assert_eq!(anchor.retired, want.retired);
        assert_eq!(anchor.snapshot, want.snapshot);
    }
}

#[test]
fn episode_block_offsets_address_the_onset_block() {
    let runs = sample_runs();
    let bytes = write_mcdt(&runs);
    let index = read_index(&bytes).expect("index decodes");
    for run in &index.runs {
        for ep in &run.episodes {
            // The byte at the episode's block offset is an events-block
            // kind tag: decoding a block there must succeed.
            assert_eq!(
                bytes[ep.block_offset as usize], 0x02,
                "offset points at an events block"
            );
        }
    }
}

#[test]
fn every_flipped_byte_in_a_block_is_detected() {
    let runs = sample_runs();
    let bytes = write_mcdt(&runs);
    // Flip a byte inside the first events block payload (skip header/
    // run-start): full decode must fail the CRC.
    let mut corrupt = bytes.clone();
    let target = bytes.len() / 3;
    corrupt[target] ^= 0x20;
    assert!(
        read_mcdt(&corrupt).is_err(),
        "flipped byte at {target} went undetected"
    );
    // Truncation loses the footer.
    assert!(read_mcdt(&bytes[..bytes.len() - 4]).is_err());
    // Garbage is rejected outright.
    assert!(read_mcdt(b"not a trace").is_err());
}

#[test]
fn mcdt_of_rendered_jsonl_round_trips_to_identical_text() {
    let runs = sample_runs();
    let text = render_jsonl(&runs);
    let bytes = write_mcdt(&runs);
    let decoded = read_mcdt(&bytes).expect("decodes");
    assert_eq!(
        render_jsonl(&decoded.runs),
        text,
        "mcdt → JSONL must be byte-identical"
    );
    // And the binary form is materially smaller than the text form.
    assert!(
        bytes.len() * 2 < text.len(),
        "binary ({}) should be at most half the JSONL ({})",
        bytes.len(),
        text.len()
    );
}

fn anchor(event_index: u64, retired: u64) -> Anchor {
    Anchor {
        event_index,
        retired,
        snapshot: vec![event_index as u8; 16],
    }
}

/// Three runs whose anchors sit at the run start, mid-block, exactly on
/// an events-block boundary, back to back, and after the last event —
/// with timestamps that step backwards now and then, so a segment only
/// decodes right from its anchor's delta base.
fn segmented_runs() -> Vec<RunRecording> {
    let events = |n: u64, t0: u64| -> Vec<TraceEvent> {
        (0..n)
            .map(|i| {
                let t = t0 + i * 333 - (i % 5 == 4) as u64 * 700;
                match i % 4 {
                    0 => enter(t, DomainId::Int),
                    1 => histogram(t, DomainId::Fp, i),
                    2 => step(t, DomainId::Ls),
                    _ => step(t, DomainId::Int),
                }
            })
            .collect()
    };
    let n0 = 2 * EVENTS_PER_BLOCK + 300;
    vec![
        RunRecording {
            label: "a".into(),
            spec: Some("{}".into()),
            events: events(n0, 5_000_000),
            anchors: vec![
                anchor(0, 0),
                anchor(1_000, 10),
                anchor(EVENTS_PER_BLOCK + 1_000, 20),
                anchor(EVENTS_PER_BLOCK + 1_000, 21),
                anchor(n0 - 7, 30),
            ],
        },
        RunRecording {
            label: "b".into(),
            spec: None,
            events: events(500, 77),
            anchors: Vec::new(),
        },
        RunRecording {
            label: "c".into(),
            spec: None,
            events: events(900, 1 << 40),
            anchors: vec![anchor(1, 5), anchor(450, 6), anchor(900, 7)],
        },
    ]
}

#[test]
fn every_anchor_bounded_segment_matches_the_full_decode() {
    let runs = segmented_runs();
    let bytes = write_mcdt(&runs);
    let index = read_index(&bytes).expect("index decodes");
    let file = read_mcdt(&bytes).expect("file decodes");
    let mut straddling = 0;
    for (ri, run) in index.runs.iter().enumerate() {
        // `None` is the run's start. The end bound is an event index:
        // every anchor's position and the run's end, plus positions one
        // either side of them and of every events-block boundary.
        let froms: Vec<Option<usize>> = std::iter::once(None)
            .chain((0..run.anchors.len()).map(Some))
            .collect();
        let mut tos: Vec<u64> = run
            .anchors
            .iter()
            .map(|a| a.event_index)
            .chain((0..=run.event_count / EVENTS_PER_BLOCK).map(|b| b * EVENTS_PER_BLOCK))
            .chain([0, run.event_count])
            .flat_map(|t| [t.saturating_sub(1), t, t + 1])
            .collect();
        tos.sort_unstable();
        tos.dedup();
        let at = |b: Option<usize>| b.map_or(0, |k| run.anchors[k].event_index);
        for &from in &froms {
            for &to in &tos {
                let first = at(from);
                if first > to || to > run.event_count {
                    assert!(read_segment(&bytes, &index, ri, from, to).is_err());
                    continue;
                }
                let (anchor, got) = read_segment(&bytes, &index, ri, from, to)
                    .unwrap_or_else(|e| panic!("run {ri} [{from:?}, {to}): {e}"));
                let want = &file.runs[ri].events[first as usize..to as usize];
                assert_eq!(got, want, "run {ri} segment [{from:?}, {to})");
                assert_eq!(
                    anchor.as_ref(),
                    from.map(|k| &file.runs[ri].anchors[k]),
                    "run {ri} segment [{from:?}, {to}) start anchor"
                );
                let skipped = run
                    .anchors
                    .iter()
                    .filter(|a| first < a.event_index && a.event_index < to)
                    .count();
                straddling += usize::from(skipped > 0);
            }
        }
    }
    assert!(straddling > 0, "some segments skip intermediate anchors");
    // Bounds that name no anchor or run, or lie past the run, are refused.
    let n0 = index.runs[0].event_count;
    assert!(read_segment(&bytes, &index, 0, Some(9), n0).is_err());
    assert!(read_segment(&bytes, &index, 3, None, 0).is_err());
    assert!(read_segment(&bytes, &index, 0, None, n0 + 1).is_err());
}

#[test]
fn anchor_delta_bases_continue_each_runs_timestamp_chain() {
    let runs = segmented_runs();
    let index = read_index(&write_mcdt(&runs)).expect("index decodes");
    for (run, rec) in index.runs.iter().zip(&runs) {
        for a in &run.anchors {
            let want = match a.event_index {
                0 => 0,
                i => rec.events[i as usize - 1].at().as_ps(),
            };
            assert_eq!(
                a.delta_base, want,
                "{} anchor at {}",
                rec.label, a.event_index
            );
        }
    }
}

#[test]
fn a_corrupt_segment_block_is_a_typed_error_and_others_are_not_read() {
    let runs = segmented_runs();
    let bytes = write_mcdt(&runs);
    let index = read_index(&bytes).expect("index decodes");
    let anchors = &index.runs[0].anchors;
    // A byte of the events block just before anchor 2 lies inside
    // [anchor 1, anchor 2) and outside [anchor 2, end of run).
    let mut corrupt = bytes.clone();
    corrupt[anchors[2].offset as usize - 6] ^= 0x10;
    let e = read_segment(&corrupt, &index, 0, Some(1), anchors[2].event_index)
        .expect_err("corrupt segment");
    assert!(e.to_string().contains("crc mismatch"), "{e}");
    let (_, far) = read_segment(&corrupt, &index, 0, Some(2), index.runs[0].event_count)
        .expect("untouched segment");
    assert_eq!(far, &runs[0].events[anchors[2].event_index as usize..]);
    assert!(read_mcdt(&corrupt).is_err(), "the full decode sees it");
}

/// Start offsets of every framed block in the body and index.
fn block_starts(bytes: &[u8]) -> Vec<usize> {
    let end = bytes.len() - FOOTER_LEN;
    blocks(bytes, MAGIC.len(), end)
        .into_iter()
        .map(|(start, ..)| start)
        .collect()
}

#[test]
fn a_flipped_kind_byte_fails_the_block_crc() {
    let mut runs = sample_runs();
    runs[0].events.truncate(40);
    runs[0].anchors[1].event_index = 20;
    let bytes = write_mcdt(&runs);
    let starts = block_starts(&bytes);
    assert!(
        starts.len() >= 6,
        "run starts, events, anchors and the index"
    );
    for &at in &starts {
        for bit in 0..8 {
            let mut bad = bytes.clone();
            bad[at] ^= 1 << bit;
            let e = read_mcdt(&bad).expect_err("kind flip");
            assert!(
                e.to_string().contains("crc mismatch"),
                "block at {at}, bit {bit}: {e}"
            );
        }
    }
    let frame = encode_event_frame("run", &step(42, DomainId::Fp));
    for bit in 0..8 {
        let mut bad = frame.clone();
        bad[0] ^= 1 << bit;
        let e = decode_frame(&bad).expect_err("kind flip");
        assert!(
            e.to_string().contains("crc mismatch"),
            "frame bit {bit}: {e}"
        );
    }
}

#[test]
fn other_format_versions_are_refused_by_name() {
    let runs = sample_runs();
    let mut bytes = write_mcdt(&runs);
    assert_eq!(&bytes[..6], b"MCDT2\n");
    bytes[4] = b'1';
    let index = read_index(&write_mcdt(&runs)).expect("index decodes");
    for e in [
        read_mcdt(&bytes).expect_err("MCDT1 file"),
        read_index(&bytes).expect_err("MCDT1 index"),
        read_segment(&bytes, &index, 0, None, index.runs[0].event_count)
            .expect_err("MCDT1 segment"),
    ] {
        assert!(e.to_string().contains("version MCDT1"), "{e}");
    }
    bytes[..6].copy_from_slice(b"XXXX2\n");
    let e = read_index(&bytes).expect_err("not a trace");
    assert!(e.to_string().contains("header magic"), "{e}");
}

#[test]
fn the_wire_bytes_are_pinned() {
    // The goldens pin block offsets and the benchmark digests decoded
    // events; only this pins the file bytes themselves, so an encoder
    // and a decoder that drift together (the same wrong CRC on both
    // sides) cannot pass unseen. A changed constant is a format change.
    let sample = write_mcdt(&sample_runs());
    assert_eq!(
        (sample.len(), fnv1a64(FNV_OFFSET, &sample)),
        (120_189, 0x4462_8e1c_2179_1f8c)
    );
    let segmented = write_mcdt(&segmented_runs());
    assert_eq!(
        (segmented.len(), fnv1a64(FNV_OFFSET, &segmented)),
        (311_891, 0x2f62_fa91_ba71_8cd4)
    );
}
