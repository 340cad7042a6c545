//! File-level `.mcdt` properties: encode→decode is the identity on
//! recordings, the footer index equals the streamed index, anchors are
//! randomly addressable, and corruption anywhere is detected.

use mcd_power::{OpIndex, TimePs};
use mcd_sim::{CtrlEvent, DomainId, SignalKind, StepDir, TraceEvent};
use mcd_trace::{
    catalog_episodes, read_anchor_at, read_index, read_mcdt, render_jsonl, write_mcdt, Anchor,
    RunRecording, EVENTS_PER_BLOCK,
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
