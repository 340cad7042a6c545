//! Decoders: the O(1) footer→index path, the random-access anchor
//! reader, and one block walker under both the full-file reader and the
//! segment reader.

use mcd_sim::TraceEvent;

use crate::codec::{decode_event, get_opt_str, get_str, read_block, Reader};
use crate::{
    block, err, Anchor, AnchorRef, Episode, RunIndex, RunRecording, TraceCodecError, TraceIndex,
    FOOTER_LEN, FOOTER_MAGIC, MAGIC,
};

/// A fully decoded `.mcdt` file: the event streams plus the index as
/// written (the reader cross-checks them against each other).
#[derive(Debug, Clone, PartialEq)]
pub struct McdtFile {
    /// The decoded runs, in file order.
    pub runs: Vec<RunRecording>,
    /// The trailing index, as stored.
    pub index: TraceIndex,
}

/// Accepts exactly [`MAGIC`]; another `MCDT<v>` header is refused by
/// its version, since its blocks do not frame or index the same way.
fn check_magic(head: &[u8]) -> Result<(), TraceCodecError> {
    if head == MAGIC {
        return Ok(());
    }
    let want = String::from_utf8_lossy(&MAGIC[..5]);
    match head {
        [b'M', b'C', b'D', b'T', _, b'\n'] => Err(err(format!(
            "unsupported .mcdt version {}: this reader reads {want}; re-record the trace",
            String::from_utf8_lossy(&head[..5])
        ))),
        _ => Err(err(format!("missing {want} header magic"))),
    }
}

fn footer_index_offset(bytes: &[u8]) -> Result<usize, TraceCodecError> {
    if bytes.len() < MAGIC.len() + FOOTER_LEN {
        return Err(err(format!(
            "{} bytes is too short for a .mcdt file",
            bytes.len()
        )));
    }
    check_magic(&bytes[..MAGIC.len()])?;
    let tail = &bytes[bytes.len() - FOOTER_LEN..];
    if &tail[8..] != FOOTER_MAGIC {
        return Err(err("missing MCDTEND1 footer magic (truncated file?)"));
    }
    let offset = u64::from_le_bytes(tail[..8].try_into().expect("8 bytes"));
    let offset = usize::try_from(offset).map_err(|_| err("index offset overflows usize"))?;
    if offset < MAGIC.len() || offset >= bytes.len() - FOOTER_LEN {
        return Err(err(format!("index offset {offset} out of bounds")));
    }
    Ok(offset)
}

fn decode_episode(r: &mut Reader<'_>) -> Result<Episode, TraceCodecError> {
    let domain = usize::from(r.u8()?);
    if domain > 2 {
        return Err(err(format!(
            "bad back-end domain index {domain} in episode"
        )));
    }
    let onset_event_index = r.varint()?;
    let onset_ps = r.varint()?;
    let close_event_index = r.varint()?;
    let close_ps = r.varint()?;
    let reaction_ps = match r.u8()? {
        0 => None,
        1 => Some(r.varint()?),
        b => return Err(err(format!("bad reaction flag {b}"))),
    };
    let relay_resets = r.varint()?;
    let block_offset = r.varint()?;
    Ok(Episode {
        domain,
        onset_event_index,
        onset_ps,
        close_event_index,
        close_ps,
        reaction_ps,
        relay_resets,
        block_offset,
    })
}

/// The ordering a replay relies on: anchors sit at non-decreasing event
/// positions within the run and at strictly increasing retired counts,
/// and every episode has `onset ≤ close ≤ event_count`.
fn check_run_index(ri: usize, run: &RunIndex) -> Result<(), TraceCodecError> {
    for (k, pair) in run.anchors.windows(2).enumerate() {
        let (p, a) = (&pair[0], &pair[1]);
        if a.event_index < p.event_index || a.retired <= p.retired {
            return Err(err(format!(
                "run {ri}: anchor {} (event {}, retired {}) does not follow \
                 anchor {k} (event {}, retired {})",
                k + 1,
                a.event_index,
                a.retired,
                p.event_index,
                p.retired
            )));
        }
    }
    // In order, so only the last anchor can lie past the run.
    if let Some(a) = run
        .anchors
        .last()
        .filter(|a| a.event_index > run.event_count)
    {
        return Err(err(format!(
            "run {ri}: anchor at event {} past the run's {} events",
            a.event_index, run.event_count
        )));
    }
    for (k, e) in run.episodes.iter().enumerate() {
        if e.close_event_index < e.onset_event_index || e.close_event_index > run.event_count {
            return Err(err(format!(
                "run {ri}: episode {k} onset {} / close {} out of order in a run of {} events",
                e.onset_event_index, e.close_event_index, run.event_count
            )));
        }
    }
    Ok(())
}

fn decode_index(payload: &[u8]) -> Result<TraceIndex, TraceCodecError> {
    let mut r = Reader::new(payload);
    let n = r.varint()?;
    let mut runs = Vec::new();
    for _ in 0..n {
        let label = get_str(&mut r)?;
        let spec = get_opt_str(&mut r)?;
        let start_offset = r.varint()?;
        let event_count = r.varint()?;
        let na = r.varint()?;
        let mut anchors = Vec::new();
        for _ in 0..na {
            anchors.push(AnchorRef {
                event_index: r.varint()?,
                retired: r.varint()?,
                offset: r.varint()?,
                delta_base: r.varint()?,
            });
        }
        let ne = r.varint()?;
        let mut episodes = Vec::new();
        for _ in 0..ne {
            episodes.push(decode_episode(&mut r)?);
        }
        let run = RunIndex {
            label,
            spec,
            start_offset,
            event_count,
            anchors,
            episodes,
        };
        check_run_index(runs.len(), &run)?;
        runs.push(run);
    }
    if !r.is_empty() {
        return Err(err("trailing bytes after index payload"));
    }
    Ok(TraceIndex { runs })
}

/// Reads only the trailing index: footer seek, one block decode — O(index
/// size), independent of how many events the file holds.
pub fn read_index(bytes: &[u8]) -> Result<TraceIndex, TraceCodecError> {
    let offset = footer_index_offset(bytes)?;
    let mut r = Reader::at(bytes, offset)?;
    let (kind, payload) = read_block(&mut r)?;
    if kind != block::INDEX {
        return Err(err(format!(
            "block at index offset has kind {kind:#04x}, not index"
        )));
    }
    decode_index(payload)
}

fn decode_anchor(payload: &[u8]) -> Result<Anchor, TraceCodecError> {
    let mut r = Reader::new(payload);
    let event_index = r.varint()?;
    let retired = r.varint()?;
    let len = usize::try_from(r.varint()?).map_err(|_| err("snapshot length overflows usize"))?;
    let snapshot = r.take(len)?.to_vec();
    if !r.is_empty() {
        return Err(err("trailing bytes after anchor payload"));
    }
    Ok(Anchor {
        event_index,
        retired,
        snapshot,
    })
}

/// Random-access read of one anchor block at a file offset taken from the
/// index ([`AnchorRef::offset`]).
pub fn read_anchor_at(bytes: &[u8], offset: u64) -> Result<Anchor, TraceCodecError> {
    let offset = usize::try_from(offset).map_err(|_| err("anchor offset overflows usize"))?;
    let mut r = Reader::at(bytes, offset)?;
    let (kind, payload) = read_block(&mut r)?;
    if kind != block::ANCHOR {
        return Err(err(format!(
            "block at offset {offset} has kind {kind:#04x}, not anchor"
        )));
    }
    decode_anchor(payload)
}

/// One body block, as [`Blocks`] yields it.
enum Block<'a> {
    /// A run starts here; the timestamp delta chain restarts at 0.
    RunStart { label: String, spec: Option<String> },
    /// An events block, already decoded onto the caller's vector.
    Events,
    /// An anchor block's payload (CRC-checked), decoded only on demand.
    Anchor(&'a [u8]),
}

/// The one body decoder: walks blocks up to the end of its slice,
/// verifying each CRC and carrying the run's timestamp delta chain from
/// block to block. The chain spans the whole run, so a walk that starts
/// at an anchor starts from that anchor's [`AnchorRef::delta_base`].
struct Blocks<'a> {
    r: Reader<'a>,
    prev_t: u64,
}

impl<'a> Blocks<'a> {
    /// Walks `body` from offset `from` with the delta chain at `prev_t`.
    fn new(body: &'a [u8], from: usize, prev_t: u64) -> Result<Self, TraceCodecError> {
        Ok(Blocks {
            r: Reader::at(body, from)?,
            prev_t,
        })
    }

    /// The next block, or `None` at the end of the slice. An events
    /// block's events are appended to `events`.
    fn next(&mut self, events: &mut Vec<TraceEvent>) -> Result<Option<Block<'a>>, TraceCodecError> {
        if self.r.is_empty() {
            return Ok(None);
        }
        let (kind, payload) = read_block(&mut self.r)?;
        let mut p = Reader::new(payload);
        let block = match kind {
            block::RUN_START => {
                self.prev_t = 0;
                Block::RunStart {
                    label: get_str(&mut p)?,
                    spec: get_opt_str(&mut p)?,
                }
            }
            block::EVENTS => {
                let count = p.varint()?;
                for _ in 0..count {
                    events.push(decode_event(&mut p, &mut self.prev_t)?);
                }
                Block::Events
            }
            block::ANCHOR => return Ok(Some(Block::Anchor(payload))),
            block::INDEX => return Err(err("index block before the footer offset")),
            other => return Err(err(format!("unknown block kind {other:#04x}"))),
        };
        if !p.is_empty() {
            return Err(err(format!("trailing bytes after block kind {kind:#04x}")));
        }
        Ok(Some(block))
    }
}

/// Decodes the whole file, verifying every block CRC and cross-checking
/// the stream against the trailing index.
pub fn read_mcdt(bytes: &[u8]) -> Result<McdtFile, TraceCodecError> {
    let index_offset = footer_index_offset(bytes)?;
    let mut walk = Blocks::new(&bytes[..index_offset], MAGIC.len(), 0)?;
    let mut runs: Vec<RunRecording> = Vec::new();
    // Only a run start may precede the first run; anything decoded into
    // this vector is refused below.
    let mut orphans = Vec::new();
    while let Some(block) = walk.next(runs.last_mut().map_or(&mut orphans, |r| &mut r.events))? {
        match (block, runs.last_mut()) {
            (Block::RunStart { label, spec }, _) => runs.push(RunRecording {
                label,
                spec,
                events: Vec::new(),
                anchors: Vec::new(),
            }),
            (Block::Events, Some(_)) => {}
            (Block::Anchor(payload), Some(run)) => run.anchors.push(decode_anchor(payload)?),
            (_, None) => return Err(err("events or anchor block before any run start")),
        }
    }
    let index = read_index(bytes)?;
    if index.runs.len() != runs.len() {
        return Err(err(format!(
            "index lists {} runs but the stream holds {}",
            index.runs.len(),
            runs.len()
        )));
    }
    for (ri, (run, idx)) in runs.iter().zip(&index.runs).enumerate() {
        if run.label != idx.label {
            return Err(err(format!(
                "run {ri}: stream label {:?} != index label {:?}",
                run.label, idx.label
            )));
        }
        if run.events.len() as u64 != idx.event_count {
            return Err(err(format!(
                "run {ri}: stream holds {} events, index says {}",
                run.events.len(),
                idx.event_count
            )));
        }
        if run.anchors.len() != idx.anchors.len() {
            return Err(err(format!(
                "run {ri}: stream holds {} anchors, index says {}",
                run.anchors.len(),
                idx.anchors.len()
            )));
        }
    }
    Ok(McdtFile { runs, index })
}

/// Decodes one segment of run `run`: its start anchor `from` (`None`:
/// the run's start, no anchor) and the events `[first, to)`, where
/// `first` is that anchor's position. The walk starts at the anchor's
/// block, which it always decodes, even for an empty segment, and stops
/// after the events block that brings the segment to `to` events, so
/// only the blocks up to the one holding event `to − 1` are read — with
/// [`read_index`] a replay costs O(index + segment), not O(file). Every
/// block read is CRC-checked and fully decoded, and anchors in between
/// are CRC-checked and skipped. Wherever the walk reaches a later
/// anchor's position or the run's end, it must hold exactly the events
/// the index places there.
pub fn read_segment(
    bytes: &[u8],
    index: &TraceIndex,
    run: usize,
    from: Option<usize>,
    to: u64,
) -> Result<(Option<Anchor>, Vec<TraceEvent>), TraceCodecError> {
    let index_offset = footer_index_offset(bytes)?;
    let ri = index
        .runs
        .get(run)
        .ok_or_else(|| err(format!("no run {run} in a {}-run index", index.runs.len())))?;
    let (start, base, first) = match from {
        Some(k) => ri
            .anchors
            .get(k)
            .map(|a| (a.offset, a.delta_base, a.event_index))
            .ok_or_else(|| err(format!("run {run} has no anchor {k}")))?,
        None => (ri.start_offset, 0, 0),
    };
    let end = index
        .runs
        .get(run + 1)
        .map_or(index_offset as u64, |next| next.start_offset);
    let offset = |o: u64| usize::try_from(o).ok().filter(|&o| o <= index_offset);
    let (start, end, want) = match (offset(start), offset(end)) {
        (Some(s), Some(e)) if s <= e && first <= to && to <= ri.event_count => (s, e, to - first),
        _ => {
            return Err(err(format!(
                "run {run}: segment from byte {start} (run ends at {end}) with events \
                 [{first}, {to}) is not a range of the file"
            )))
        }
    };
    // Where the index places each anchor after the start one and the
    // run's end, counted from `first`; `decode_index` keeps them in order.
    let mut anchors = ri.anchors[from.map_or(0, |k| k + 1)..]
        .iter()
        .map(|a| a.event_index.saturating_sub(first));
    let mut next_anchor = anchors.next();
    let run_end = ri.event_count - first;
    let mut walk = Blocks::new(&bytes[..end], start, base)?;
    // Each event takes at least three bytes: the reservation stays
    // bounded by the input whatever the index claims.
    let mut events = Vec::with_capacity((want as usize).min((end - start) / 3));
    let anchor = match from {
        Some(k) => match walk.next(&mut events)? {
            Some(Block::Anchor(payload)) => Some(decode_anchor(payload)?),
            _ => {
                return Err(err(format!(
                    "run {run}: the block at anchor {k}'s offset is not an anchor"
                )))
            }
        },
        None => None,
    };
    let mut first_block = from.is_none();
    while (events.len() as u64) < want {
        let block = walk.next(&mut events)?;
        let held = events.len() as u64;
        let bound = next_anchor.unwrap_or(run_end);
        match block {
            None => {
                return Err(err(format!(
                    "run {run}: segment ends after {held} events, short of the {want} \
                     the index places there"
                )))
            }
            Some(Block::RunStart { .. }) if !first_block => {
                return Err(err(format!("run {run}: segment crosses a run start")))
            }
            Some(Block::RunStart { .. }) => {}
            // An anchor block sits exactly where the index places it...
            Some(Block::Anchor(_)) if next_anchor == Some(held) => next_anchor = anchors.next(),
            Some(Block::Anchor(_)) => {
                return Err(err(format!(
                    "run {run}: segment meets an anchor after {held} events, \
                     the index places the next one after {bound}"
                )))
            }
            // ...and no events block runs past it or past the run's end.
            Some(Block::Events) if held > bound => {
                return Err(err(format!(
                    "run {run}: segment holds {held} events past the boundary \
                     the index places after {bound}"
                )))
            }
            Some(Block::Events) => {}
        }
        first_block = false;
    }
    events.truncate(want as usize);
    Ok((anchor, events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::write_block;
    use crate::sink::{encode_index, write_mcdt};
    use crate::EVENTS_PER_BLOCK;
    use mcd_power::TimePs;
    use mcd_sim::{CtrlEvent, DomainId, SignalKind, StepDir};

    fn valid() -> TraceIndex {
        let anchor = |event_index, retired| AnchorRef {
            event_index,
            retired,
            offset: 6,
            delta_base: 0,
        };
        TraceIndex {
            runs: vec![RunIndex {
                label: "gzip|adaptive".into(),
                spec: None,
                start_offset: 6,
                event_count: 100,
                anchors: vec![
                    anchor(0, 0),
                    anchor(40, 10),
                    anchor(40, 11),
                    anchor(100, 20),
                ],
                episodes: vec![
                    Episode {
                        domain: 1,
                        onset_event_index: 30,
                        onset_ps: 1_000,
                        close_event_index: 30,
                        close_ps: 1_000,
                        reaction_ps: Some(0),
                        relay_resets: 0,
                        block_offset: 6,
                    },
                    Episode {
                        domain: 2,
                        onset_event_index: 90,
                        onset_ps: 2_000,
                        close_event_index: 100,
                        close_ps: 3_000,
                        reaction_ps: None,
                        relay_resets: 2,
                        block_offset: 6,
                    },
                ],
            }],
        }
    }

    fn refused(edit: impl FnOnce(&mut RunIndex), what: &str) {
        let mut index = valid();
        edit(&mut index.runs[0]);
        match decode_index(&encode_index(&index)) {
            Err(TraceCodecError(msg)) => assert!(msg.contains(what), "{what}: {msg}"),
            Ok(_) => panic!("accepted an index with {what}"),
        }
    }

    #[test]
    fn a_well_ordered_index_round_trips() {
        let index = valid();
        assert_eq!(decode_index(&encode_index(&index)), Ok(index));
    }

    #[test]
    fn an_anchor_past_the_run_is_refused() {
        refused(|r| r.anchors[3].event_index = 101, "past the run");
    }

    #[test]
    fn anchors_out_of_event_order_are_refused() {
        refused(|r| r.anchors[1].event_index = 41, "does not follow");
    }

    #[test]
    fn anchors_with_repeated_or_falling_retired_counts_are_refused() {
        refused(|r| r.anchors[2].retired = 10, "does not follow");
        refused(|r| r.anchors[3].retired = 5, "does not follow");
    }

    #[test]
    fn an_episode_closing_before_its_onset_is_refused() {
        refused(|r| r.episodes[0].close_event_index = 29, "out of order");
    }

    #[test]
    fn an_episode_closing_past_the_run_is_refused() {
        refused(|r| r.episodes[1].close_event_index = 101, "out of order");
    }

    /// One run of 9 000 events with anchors at its start and at 5 000,
    /// mid-way through its second events block.
    fn recording() -> Vec<u8> {
        let events = (0..9_000)
            .map(|i| TraceEvent::Controller {
                domain: DomainId::Int,
                event: CtrlEvent::RelayFire {
                    at: TimePs::new(100 * i),
                    signal: SignalKind::Delta,
                    dir: StepDir::Up,
                },
            })
            .collect();
        let anchor = |event_index, retired| Anchor {
            event_index,
            retired,
            snapshot: vec![7; 32],
        };
        write_mcdt(&[RunRecording {
            label: "r".into(),
            spec: None,
            events,
            anchors: vec![anchor(0, 0), anchor(5_000, 1)],
        }])
    }

    /// `bytes` with its index replaced by `edit` of it, re-sealed.
    fn reindexed(bytes: &[u8], edit: impl FnOnce(&mut RunIndex)) -> (Vec<u8>, TraceIndex) {
        let mut index = read_index(bytes).expect("index decodes");
        edit(&mut index.runs[0]);
        let at = footer_index_offset(bytes).expect("footer");
        let mut out = bytes[..at].to_vec();
        write_block(&mut out, block::INDEX, &encode_index(&index));
        out.extend_from_slice(&(at as u64).to_le_bytes());
        out.extend_from_slice(FOOTER_MAGIC);
        (out, index)
    }

    fn misread(bytes: &[u8], index: &TraceIndex, from: Option<usize>, to: u64, what: &str) {
        match read_segment(bytes, index, 0, from, to) {
            Err(TraceCodecError(msg)) => assert!(msg.contains(what), "{what}: {msg}"),
            Ok(_) => panic!("[{from:?}, {to}) read past an index that disagrees ({what})"),
        }
    }

    #[test]
    fn a_segment_stopping_at_an_anchor_or_the_run_end_checks_the_count() {
        let bytes = recording();
        let index = read_index(&bytes).expect("index decodes");
        let cases = [
            (None, 4_999),
            (None, 5_000),
            (Some(1), 9_000),
            (Some(1), 5_000),
            (Some(0), 7),
        ];
        for (from, to) in cases {
            let (anchor, got) = read_segment(&bytes, &index, 0, from, to).expect("consistent");
            let first = from.map_or(0, |k| index.runs[0].anchors[k].event_index);
            assert_eq!(got.len() as u64, to - first);
            // The start anchor comes back decoded, even for no events.
            assert_eq!(anchor.map(|a| a.event_index), from.map(|_| first));
        }
        // The index places the anchor one event early: the block that
        // holds the segment's last event runs past it.
        let (early, ix) = reindexed(&bytes, |r| r.anchors[1].event_index = 4_999);
        misread(
            &early,
            &ix,
            None,
            4_999,
            "past the boundary the index places after 4999",
        );
        // One event late: the walk meets the anchor block first.
        let (late, ix) = reindexed(&bytes, |r| r.anchors[1].event_index = 5_001);
        misread(&late, &ix, None, 5_001, "meets an anchor after 5000 events");
        // A stop short of every boundary reads no further, so it cannot
        // see the disagreement.
        assert!(read_segment(&late, &ix, 0, None, EVENTS_PER_BLOCK).is_ok());
        // The run's end one event early, then one late.
        let (short, ix) = reindexed(&bytes, |r| r.event_count = 8_999);
        misread(
            &short,
            &ix,
            Some(1),
            8_999,
            "past the boundary the index places after 3999",
        );
        let (long, ix) = reindexed(&bytes, |r| r.event_count = 9_001);
        misread(&long, &ix, Some(1), 9_001, "short of the 4001");
    }
}
