//! The streaming `.mcdt` encoder: a [`TraceSink`] that frames events into
//! CRC'd blocks, catalogs episodes as it goes, and appends the seek index
//! on finish.

use mcd_sim::{TraceEvent, TraceSink};

use crate::codec::{encode_event, put_opt_str, put_str, put_varint, write_block};
use crate::episodes::EpisodeTracker;
use crate::{
    block, Anchor, AnchorRef, Episode, RunIndex, RunRecording, TraceIndex, EVENTS_PER_BLOCK,
    FOOTER_MAGIC, MAGIC,
};

struct CurRun {
    label: String,
    spec: Option<String>,
    start_offset: u64,
    /// Wire-form events of the open (unflushed) block.
    block: Vec<u8>,
    block_events: u64,
    /// File offset the open block will land at. Valid because nothing
    /// else is appended to the file until this block flushes — anchors,
    /// run starts and the index all flush it first.
    block_offset: u64,
    prev_t: u64,
    event_index: u64,
    last_t: u64,
    anchors: Vec<AnchorRef>,
    tracker: EpisodeTracker,
}

/// An incremental `.mcdt` writer implementing [`TraceSink`].
///
/// Call [`BinarySink::start_run`] before each run's events (a sink driven
/// directly by the engine without one gets a single implicit unnamed
/// run), then [`BinarySink::finish`] to append the index and footer.
pub struct BinarySink {
    buf: Vec<u8>,
    runs: Vec<RunIndex>,
    events_total: u64,
    cur: Option<CurRun>,
}

impl Default for BinarySink {
    fn default() -> Self {
        BinarySink::new()
    }
}

impl BinarySink {
    /// A fresh sink holding only the file header.
    pub fn new() -> Self {
        BinarySink {
            buf: MAGIC.to_vec(),
            runs: Vec::new(),
            events_total: 0,
            cur: None,
        }
    }

    /// Opens a run: closes any previous one and writes its start block.
    pub fn start_run(&mut self, label: &str, spec: Option<&str>) {
        self.close_run();
        let start_offset = self.buf.len() as u64;
        let mut payload = Vec::with_capacity(label.len() + 16);
        put_str(&mut payload, label);
        put_opt_str(&mut payload, spec);
        write_block(&mut self.buf, block::RUN_START, &payload);
        self.cur = Some(CurRun {
            label: label.to_string(),
            spec: spec.map(str::to_string),
            start_offset,
            block: Vec::new(),
            block_events: 0,
            block_offset: 0,
            prev_t: 0,
            event_index: 0,
            last_t: 0,
            anchors: Vec::new(),
            tracker: EpisodeTracker::default(),
        });
    }

    fn cur_mut(&mut self) -> &mut CurRun {
        if self.cur.is_none() {
            self.start_run("", None);
        }
        self.cur.as_mut().expect("run opened above")
    }

    fn flush_block(&mut self) {
        let Some(cur) = self.cur.as_mut() else { return };
        if cur.block_events == 0 {
            return;
        }
        let mut payload = Vec::with_capacity(cur.block.len() + 4);
        put_varint(&mut payload, cur.block_events);
        payload.extend_from_slice(&cur.block);
        write_block(&mut self.buf, block::EVENTS, &payload);
        cur.block.clear();
        cur.block_events = 0;
    }

    fn close_run(&mut self) {
        self.flush_block();
        let Some(cur) = self.cur.take() else { return };
        self.runs.push(RunIndex {
            label: cur.label,
            spec: cur.spec,
            start_offset: cur.start_offset,
            event_count: cur.event_index,
            anchors: cur.anchors,
            episodes: cur.tracker.finish(cur.event_index, cur.last_t),
        });
    }

    /// Events recorded so far, across all runs.
    pub fn events_recorded(&self) -> u64 {
        self.events_total
    }

    /// Closes the open run, appends the index block and footer, and
    /// returns the finished file bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.close_run();
        let index_offset = self.buf.len() as u64;
        let payload = encode_index(&TraceIndex {
            runs: std::mem::take(&mut self.runs),
        });
        write_block(&mut self.buf, block::INDEX, &payload);
        self.buf.extend_from_slice(&index_offset.to_le_bytes());
        self.buf.extend_from_slice(FOOTER_MAGIC);
        self.buf
    }
}

impl TraceSink for BinarySink {
    fn record(&mut self, event: &TraceEvent) {
        let buf_len = self.buf.len() as u64;
        self.events_total += 1;
        let cur = self.cur_mut();
        if cur.block_events == 0 {
            cur.block_offset = buf_len;
        }
        cur.tracker
            .observe(cur.event_index, cur.block_offset, event);
        encode_event(&mut cur.block, &mut cur.prev_t, event);
        cur.last_t = event.at().as_ps();
        cur.event_index += 1;
        cur.block_events += 1;
        if cur.block_events >= EVENTS_PER_BLOCK {
            self.flush_block();
        }
    }

    fn record_anchor(&mut self, retired: u64, snapshot: &[u8]) {
        // Touch the current run first so an anchor before any event still
        // opens the implicit run, then seal the open event block — the
        // anchor must sit between blocks for its offset to be seekable.
        let _ = self.cur_mut();
        self.flush_block();
        let offset = self.buf.len() as u64;
        let cur = self.cur.as_mut().expect("run opened above");
        let mut payload = Vec::with_capacity(snapshot.len() + 16);
        put_varint(&mut payload, cur.event_index);
        put_varint(&mut payload, retired);
        put_varint(&mut payload, snapshot.len() as u64);
        payload.extend_from_slice(snapshot);
        write_block(&mut self.buf, block::ANCHOR, &payload);
        cur.anchors.push(AnchorRef {
            event_index: cur.event_index,
            retired,
            offset,
            delta_base: cur.prev_t,
        });
    }
}

fn encode_episode(buf: &mut Vec<u8>, e: &Episode) {
    buf.push(e.domain as u8);
    put_varint(buf, e.onset_event_index);
    put_varint(buf, e.onset_ps);
    put_varint(buf, e.close_event_index);
    put_varint(buf, e.close_ps);
    match e.reaction_ps {
        Some(r) => {
            buf.push(1);
            put_varint(buf, r);
        }
        None => buf.push(0),
    }
    put_varint(buf, e.relay_resets);
    put_varint(buf, e.block_offset);
}

pub(crate) fn encode_index(index: &TraceIndex) -> Vec<u8> {
    let mut buf = Vec::new();
    put_varint(&mut buf, index.runs.len() as u64);
    for run in &index.runs {
        put_str(&mut buf, &run.label);
        put_opt_str(&mut buf, run.spec.as_deref());
        put_varint(&mut buf, run.start_offset);
        put_varint(&mut buf, run.event_count);
        put_varint(&mut buf, run.anchors.len() as u64);
        for a in &run.anchors {
            put_varint(&mut buf, a.event_index);
            put_varint(&mut buf, a.retired);
            put_varint(&mut buf, a.offset);
            put_varint(&mut buf, a.delta_base);
        }
        put_varint(&mut buf, run.episodes.len() as u64);
        for e in &run.episodes {
            encode_episode(&mut buf, e);
        }
    }
    buf
}

/// Encodes finished recordings into one `.mcdt` file, interleaving each
/// run's anchors at their recorded event positions.
pub fn write_mcdt(runs: &[RunRecording]) -> Vec<u8> {
    let mut sink = BinarySink::new();
    for run in runs {
        sink.start_run(&run.label, run.spec.as_deref());
        let mut ai = 0usize;
        let place = |sink: &mut BinarySink, a: &Anchor| {
            sink.record_anchor(a.retired, &a.snapshot);
        };
        for (i, ev) in run.events.iter().enumerate() {
            while ai < run.anchors.len() && run.anchors[ai].event_index <= i as u64 {
                place(&mut sink, &run.anchors[ai]);
                ai += 1;
            }
            sink.record(ev);
        }
        while ai < run.anchors.len() {
            place(&mut sink, &run.anchors[ai]);
            ai += 1;
        }
    }
    sink.finish()
}
