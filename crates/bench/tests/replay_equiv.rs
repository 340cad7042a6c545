//! The replay contract: `repro trace replay` of **any** catalogued
//! episode must reproduce the original trace slice byte for byte. This
//! suite records a sharded sweep to `.mcdt` and replays every episode,
//! covering cold starts (onset before the first anchor), warm anchor
//! restores, and end-of-run segments — plus the typed refusals for
//! out-of-range ordinals and spec-less recordings, and the checks that a
//! replay reads only its own segment, stops at the episode's close (in
//! the simulation and in the recording) and verifies it bit for bit.

use mcd_bench::replay::replay_episode;
use mcd_bench::runner::{RunConfig, RunSet, Scheme};
use mcd_sim::{CtrlEvent, TraceEvent};
use mcd_trace::{
    block, read_index, read_mcdt, write_mcdt, Anchor, Episode, RunRecording, TraceIndex, FOOTER_LEN,
};

/// Records one sharded, traced sweep and returns its `.mcdt` bytes.
fn record(benchmark: &str, scheme: Scheme, ops: u64, shard: u64) -> Vec<u8> {
    let rs = RunSet::new(2).with_tracing();
    let cfg = RunConfig::quick().with_ops(ops).with_shard_ops(shard);
    rs.run(benchmark, scheme, &cfg).expect("run succeeds");
    write_mcdt(&rs.drain_recordings().expect("tracing on"))
}

#[test]
fn every_catalogued_episode_replays_byte_identically() {
    let bytes = record("gzip", Scheme::Adaptive, 20_000, 4_000);
    let index = read_index(&bytes).expect("index decodes");
    let total = index.episode_count();
    assert!(total > 0, "an adaptive run has episodes");
    let mut cold = 0usize;
    let mut warm = 0usize;
    for k in 0..total {
        let outcome = replay_episode(&bytes, k).unwrap_or_else(|e| {
            panic!("episode {k}/{total} failed to replay: {e}");
        });
        assert!(
            outcome.byte_identical,
            "episode {k}/{total} diverged: run {} segment [{}, {})",
            outcome.run_label, outcome.start_event_index, outcome.end_event_index,
        );
        assert!(!outcome.replayed.is_empty(), "episode {k} replayed nothing");
        // The segment is `[anchor, close]`; a run-end close replays to
        // the end of the run.
        let (ri, ei) = index.locate_episode(k).expect("in range");
        let run = &index.runs[ri];
        let close = run.episodes[ei].close_event_index;
        assert_eq!(outcome.end_event_index, (close + 1).min(run.event_count));
        assert_eq!(
            outcome.replayed.len() as u64,
            outcome.end_event_index - outcome.start_event_index,
            "episode {k}"
        );
        match outcome.anchor_retired {
            None => cold += 1,
            Some(_) => warm += 1,
        }
    }
    assert!(cold > 0, "episodes before the first anchor start cold");
    assert!(warm > 0, "episodes after an anchor restore from it");
}

#[test]
fn unsharded_recordings_replay_whole_runs_cold() {
    // No sharding -> no anchors: every episode replays the entire run
    // from a cold start, and must still match byte for byte.
    let bytes = record("swim", Scheme::Adaptive, 12_000, 0);
    let index = read_index(&bytes).expect("index decodes");
    assert!(index.runs.iter().all(|r| r.anchors.is_empty()));
    let total = index.episode_count();
    assert!(total > 0);
    // Whole-run cold replays are identical work per episode; one from
    // each end of the catalog keeps the suite fast.
    for k in [0, total - 1] {
        let outcome = replay_episode(&bytes, k).expect("replays");
        assert!(outcome.byte_identical, "episode {k} diverged");
        assert_eq!(outcome.anchor_retired, None);
        assert_eq!(outcome.start_event_index, 0);
    }
}

#[test]
fn out_of_range_ordinals_are_typed_errors() {
    let bytes = record("gzip", Scheme::Adaptive, 8_000, 4_000);
    let total = read_index(&bytes).expect("index decodes").episode_count();
    let e = replay_episode(&bytes, total + 10).expect_err("out of range");
    assert_eq!(e.kind(), "config-invalid");
    assert!(e.to_string().contains("out of range"), "{e}");
}

#[test]
fn recordings_without_a_replay_spec_are_refused() {
    // Hand-build a recording the way `trace convert` does from JSONL:
    // events only, no spec, no anchors.
    let rs = RunSet::new(1).with_tracing();
    let cfg = RunConfig::quick().with_ops(8_000).with_shard_ops(4_000);
    rs.run("gzip", Scheme::Adaptive, &cfg)
        .expect("run succeeds");
    let stripped: Vec<RunRecording> = rs
        .drain_recordings()
        .expect("tracing on")
        .into_iter()
        .map(|mut r| {
            r.spec = None;
            r.anchors.clear();
            r
        })
        .collect();
    let bytes = write_mcdt(&stripped);
    let total = read_index(&bytes).expect("index decodes").episode_count();
    assert!(total > 0);
    let e = replay_episode(&bytes, 0).expect_err("no spec, no replay");
    assert_eq!(e.kind(), "config-invalid");
    assert!(e.to_string().contains("no replay spec"), "{e}");
}

/// The first episode passing `pick` (given its run and the episode) that
/// restores from an anchor other than its run's first: its global
/// ordinal, run, and the episode.
fn warm_episode(
    index: &TraceIndex,
    pick: impl Fn(usize, &Episode) -> bool,
) -> (usize, usize, Episode) {
    let mut k = 0;
    for (ri, run) in index.runs.iter().enumerate() {
        for ep in &run.episodes {
            let start = run
                .anchors
                .iter()
                .rposition(|a| a.event_index <= ep.onset_event_index);
            if matches!(start, Some(1..)) && pick(ri, ep) {
                return (k, ri, *ep);
            }
            k += 1;
        }
    }
    panic!("no episode starts from a later anchor");
}

#[test]
fn replay_reads_only_its_segment() {
    let bytes = record("gzip", Scheme::Adaptive, 16_000, 4_000);
    let index = read_index(&bytes).expect("index decodes");
    let (k, ri, ep) = warm_episode(&index, |_, _| true);
    let run = &index.runs[ri];
    let a = run
        .anchors
        .iter()
        .rposition(|a| a.event_index <= ep.onset_event_index)
        .expect("warm start");
    let start = run.anchors[a].offset as usize;
    // The last CRC byte of the block just before the start anchor lies
    // outside the replayed segment.
    let mut outside = bytes.clone();
    outside[start - 1] ^= 0x40;
    assert!(read_mcdt(&outside).is_err(), "the corruption is real");
    let outcome = replay_episode(&outside, k).expect("segment untouched");
    assert!(outcome.byte_identical, "episode {k} diverged");
    // A byte of the onset's own events block is inside it.
    let mut inside = bytes.clone();
    inside[ep.block_offset as usize + 8] ^= 0x40;
    let e = replay_episode(&inside, k).expect_err("corrupt segment");
    assert_eq!(e.kind(), "config-invalid");
    assert!(e.to_string().contains("crc mismatch"), "{e}");
}

#[test]
fn a_one_ulp_difference_replays_as_diverged() {
    let bytes = record("gzip", Scheme::Adaptive, 16_000, 4_000);
    let index = read_index(&bytes).expect("index decodes");
    let (k, ri, ep) = warm_episode(&index, |_, ep| ep.reaction_ps.is_some());
    let mut runs = read_mcdt(&bytes).expect("decodes").runs;
    // Nudge the step that answered the onset: inside the replayed
    // segment, and invisible to the episode catalog.
    let nudged = runs[ri].events[ep.onset_event_index as usize..=ep.close_event_index as usize]
        .iter_mut()
        .find_map(|ev| match ev {
            TraceEvent::FreqStep { to_mhz, .. } => {
                *to_mhz = to_mhz.next_up();
                Some(())
            }
            _ => None,
        });
    assert!(nudged.is_some(), "the episode's segment steps a frequency");
    let edited = write_mcdt(&runs);
    assert_eq!(read_index(&edited).expect("index decodes"), index);
    let outcome = replay_episode(&edited, k).expect("a divergence is a verdict, not an error");
    assert!(!outcome.byte_identical, "a one-ulp change went unseen");
    assert!(replay_episode(&bytes, k).expect("replays").byte_identical);
}

/// Moves the event's first `f64` field up by one ulp; `false` if it has
/// none.
fn nudge(ev: &mut TraceEvent) -> bool {
    let x = match ev {
        TraceEvent::FreqStep { to_mhz, .. } => to_mhz,
        TraceEvent::Controller { event, .. } => match event {
            CtrlEvent::WindowEnter { value, .. } | CtrlEvent::WindowExit { value, .. } => value,
            CtrlEvent::RelayArm { remaining, .. } => remaining,
            CtrlEvent::RelayFire { .. } | CtrlEvent::RelayReset { .. } => return false,
        },
        TraceEvent::QueueHistogram { .. } => return false,
    };
    *x = x.next_up();
    true
}

#[test]
fn a_segment_ending_mid_shard_verifies_only_up_to_the_close() {
    let bytes = record("gzip", Scheme::Adaptive, 16_000, 4_000);
    let index = read_index(&bytes).expect("index decodes");
    let runs = read_mcdt(&bytes).expect("decodes").runs;
    // A warm episode whose segment ends strictly before the next anchor
    // (mid-shard), and whose close and the event just past it both
    // carry an `f64` field.
    let editable = |ri: usize, i: u64| {
        runs[ri]
            .events
            .get(i as usize)
            .is_some_and(|ev| nudge(&mut ev.clone()))
    };
    let (k, ri, ep) = warm_episode(&index, |ri, ep| {
        let end = ep.close_event_index + 1;
        let next_anchor = index.runs[ri]
            .anchors
            .iter()
            .find(|a| a.event_index > ep.close_event_index);
        next_anchor.is_some_and(|a| end < a.event_index)
            && editable(ri, ep.close_event_index)
            && editable(ri, end)
    });
    let outcome = replay_episode(&bytes, k).expect("replays");
    assert!(outcome.byte_identical, "episode {k} diverged");
    assert_eq!(outcome.end_event_index, ep.close_event_index + 1);

    // One ulp on an event of the recording, written back as a file with
    // the same index.
    let edit = |i: u64| {
        let mut runs = runs.clone();
        assert!(nudge(&mut runs[ri].events[i as usize]));
        let edited = write_mcdt(&runs);
        assert_eq!(read_index(&edited).expect("index decodes"), index);
        replay_episode(&edited, k).expect("a divergence is a verdict, not an error")
    };
    // Just past the close: outside the verified segment.
    assert!(
        edit(ep.close_event_index + 1).byte_identical,
        "an edit past the close reached the verdict"
    );
    // The close itself is the segment's last event.
    assert!(
        !edit(ep.close_event_index).byte_identical,
        "an edit of the close went unseen"
    );
}

/// Where a `.mcdt` file's index block starts, from its footer.
fn index_offset(bytes: &[u8]) -> usize {
    let footer = &bytes[bytes.len() - FOOTER_LEN..];
    u64::from_le_bytes(footer[..8].try_into().expect("8 bytes")) as usize
}

/// One framed block of a run: its file offset, kind, and the run
/// positions of the events it holds (empty unless an events block).
struct Framed {
    offset: usize,
    kind: u8,
    events: std::ops::Range<u64>,
}

/// The blocks of run `ri`, in file order, parsed from their frames.
fn run_blocks(bytes: &[u8], index: &TraceIndex, ri: usize) -> Vec<Framed> {
    let varint = |i: &mut usize| {
        let (mut v, mut shift) = (0u64, 0);
        loop {
            let b = bytes[*i];
            *i += 1;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return v;
            }
            shift += 7;
        }
    };
    let end = index
        .runs
        .get(ri + 1)
        .map_or(index_offset(bytes), |r| r.start_offset as usize);
    let (mut pos, mut at) = (index.runs[ri].start_offset as usize, 0);
    let mut out = Vec::new();
    while pos < end {
        let kind = bytes[pos];
        let mut payload = pos + 1;
        let len = varint(&mut payload) as usize;
        let n = if kind == block::EVENTS {
            varint(&mut payload.clone())
        } else {
            0
        };
        out.push(Framed {
            offset: pos,
            kind,
            events: at..at + n,
        });
        at += n;
        pos = payload + len + 4;
    }
    assert_eq!(pos, end, "blocks tile the run");
    out
}

#[test]
fn replay_reads_stop_at_the_close_block() {
    // Shards of several thousand events: more than one events block
    // between anchors.
    let bytes = record("gzip", Scheme::Adaptive, 40_000, 10_000);
    let index = read_index(&bytes).expect("index decodes");
    let layout: Vec<Vec<Framed>> = (0..index.runs.len())
        .map(|ri| run_blocks(&bytes, &index, ri))
        .collect();
    // The block after the one holding an episode's close.
    let after_close = |ri: usize, ep: &Episode| {
        let blocks = &layout[ri];
        let at = blocks
            .iter()
            .position(|b| b.events.contains(&ep.close_event_index))?;
        blocks.get(at + 1)
    };
    // One whose shard goes on in another events block after the close's.
    let (k, ri, ep) = warm_episode(&index, |ri, ep| {
        after_close(ri, ep).is_some_and(|next| next.kind == block::EVENTS)
    });
    let next = after_close(ri, &ep).expect("picked");
    // A byte of the events block after the close's, before the next
    // anchor, lies outside what the replay reads.
    let mut after = bytes.clone();
    after[next.offset + 8] ^= 0x40;
    assert!(read_mcdt(&after).is_err(), "the corruption is real");
    let outcome = replay_episode(&after, k).expect("read stops before the corruption");
    assert!(outcome.byte_identical, "episode {k} diverged");
    assert_eq!(
        outcome.replayed,
        replay_episode(&bytes, k).expect("replays").replayed
    );
    // The last CRC byte of the close's own block is inside it.
    let mut own = bytes.clone();
    own[next.offset - 1] ^= 0x40;
    let e = replay_episode(&own, k).expect_err("corrupt close block");
    assert_eq!(e.kind(), "config-invalid");
    assert!(e.to_string().contains("crc mismatch"), "{e}");
}

#[test]
fn a_close_just_before_an_anchor_still_checks_the_count() {
    let bytes = record("gzip", Scheme::Adaptive, 40_000, 10_000);
    let index = read_index(&bytes).expect("index decodes");
    let runs = read_mcdt(&bytes).expect("decodes").runs;
    // A warm episode with room for two more events in its shard.
    let (k, ri, ep) = warm_episode(&index, |ri, ep| {
        let run = &index.runs[ri];
        let room = run
            .anchors
            .iter()
            .find(|a| a.event_index > ep.close_event_index)
            .map_or(run.event_count, |a| a.event_index - 1);
        ep.close_event_index + 2 <= room
    });
    // The recording with one more anchor (never restored: it lies past
    // the onset) at run position `at`.
    let with_anchor_at = |at: u64| {
        let mut runs = runs.clone();
        let anchors = &mut runs[ri].anchors;
        let j = anchors.partition_point(|a| a.event_index < at);
        let retired = anchors[j - 1].retired + 1;
        anchors.insert(
            j,
            Anchor {
                event_index: at,
                retired,
                snapshot: Vec::new(),
            },
        );
        write_mcdt(&runs)
    };
    // The close is the last event before the new anchor: the read stops
    // at that anchor's position exactly, and the replay verifies.
    let fenced = with_anchor_at(ep.close_event_index + 1);
    let outcome = replay_episode(&fenced, k).expect("replays");
    assert!(outcome.byte_identical, "episode {k} diverged");
    assert_eq!(outcome.end_event_index, ep.close_event_index + 1);
    // The same body with the anchor one event later, under the first
    // file's index: the close's block now runs one event past the
    // anchor position the index states, and the read refuses it.
    let later = with_anchor_at(ep.close_event_index + 2);
    let body = index_offset(&later);
    let mut spliced = later[..body].to_vec();
    spliced.extend_from_slice(&fenced[index_offset(&fenced)..fenced.len() - FOOTER_LEN]);
    spliced.extend_from_slice(&(body as u64).to_le_bytes());
    spliced.extend_from_slice(&fenced[fenced.len() - 8..]);
    let e = replay_episode(&spliced, k).expect_err("index and stream disagree");
    assert_eq!(e.kind(), "config-invalid");
    assert!(e.to_string().contains("the index places"), "{e}");
}
