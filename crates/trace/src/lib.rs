//! Flight-recorder trace codec: the `.mcdt` binary format.
//!
//! The PR 2 trace layer serializes controller events as JSON lines — easy
//! to grep, expensive to store, and impossible to seek. This crate defines
//! the compact self-describing binary format the harness records into:
//!
//! * **Framed blocks with CRC.** A `.mcdt` file is a magic header followed
//!   by `[kind][varint len][payload][crc32]` blocks (the CRC covers kind,
//!   length and payload): run starts, event batches (timestamps as one
//!   zigzag-delta chain per run, domain/signal bytes, raw IEEE-754 bits
//!   for lossless `f64` round-trips), snapshot anchors, and one trailing
//!   index. A fixed-size footer points at the index so readers seek to it
//!   in O(1) without scanning the stream.
//! * **Episode catalog.** While encoding, [`BinarySink`] runs the events
//!   through [`mcd_sim::OnsetTracker`], the onset rule the engine and
//!   `trace analyze` use: every window enter→exit episode lands in the
//!   index with onset time, reaction time, relay resets and the file
//!   offset of the block holding its onset — episode queries against a
//!   `.mcdt` file never decode events.
//! * **Anchors for time-travel.** The sharded runner drops `Machine`
//!   snapshots at shard boundaries through
//!   [`TraceSink::record_anchor`]; the index records where they landed and
//!   the delta chain's base there, so a replay restores the nearest anchor
//!   and [`read_segment`] decodes just the segment around an episode.
//! * **Lossless JSONL interop.** [`render_jsonl`] writes the
//!   `--trace-out` JSONL format, and [`parse_jsonl`] inverts it exactly
//!   (shortest-round-trip `f64` text both ways), so `.mcdt` ⇄ JSONL
//!   conversion is proven by byte comparison, not by eyeballing.
//! * **The workspace's one JSON reader.** [`json::parse`] reads trace
//!   lines, replay specs, checkpoint records and mcd-serve `/run` bodies;
//!   [`json::json_escape`] is the escape every JSON writer shares.
//!
//! [`TraceSink::record_anchor`]: mcd_sim::TraceSink::record_anchor

use std::fmt;

pub use mcd_sim::TraceEvent;

mod codec;
mod episodes;
mod frame;
pub mod json;
mod jsonl;
mod read;
mod sink;

pub use codec::{crc32, wire_identical};
pub use episodes::{catalog_episodes, Episode};
pub use frame::{decode_frame, encode_event_frame, encode_meta_frame, StreamFrame};
pub use jsonl::{parse_jsonl, render_jsonl};
pub use read::{read_anchor_at, read_index, read_mcdt, read_segment, McdtFile};
pub use sink::{write_mcdt, BinarySink};

/// File-level magic prefix of a `.mcdt` stream. Version 2 added the
/// anchors' delta bases to the index and the kind and length to each
/// block's CRC; readers refuse other versions by name.
pub const MAGIC: &[u8; 6] = b"MCDT2\n";
/// Trailing magic; the 8 bytes before it are the little-endian index offset.
pub const FOOTER_MAGIC: &[u8; 8] = b"MCDTEND1";
/// Total footer size: `u64` index offset + [`FOOTER_MAGIC`].
pub const FOOTER_LEN: usize = 8 + FOOTER_MAGIC.len();

/// Block kinds, one byte each, leading every frame.
pub mod block {
    /// Starts a run: label + optional replay spec.
    pub const RUN_START: u8 = 0x01;
    /// A batch of delta-encoded events.
    pub const EVENTS: u8 = 0x02;
    /// A resumable machine snapshot between events.
    pub const ANCHOR: u8 = 0x03;
    /// The trailing seek index (exactly one, last block in the file).
    pub const INDEX: u8 = 0x04;
}

/// Events per [`block::EVENTS`] frame before the encoder flushes — small
/// enough that a block is a cheap decode unit, large enough that framing
/// overhead (6-ish bytes + CRC) vanishes against the payload.
pub const EVENTS_PER_BLOCK: u64 = 4096;

/// A decode/encode failure: corrupt framing, CRC mismatch, unknown tags,
/// or JSONL text that is not the PR 2 trace shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCodecError(pub String);

impl fmt::Display for TraceCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace codec: {}", self.0)
    }
}

impl std::error::Error for TraceCodecError {}

pub(crate) fn err(msg: impl Into<String>) -> TraceCodecError {
    TraceCodecError(msg.into())
}

/// A snapshot anchor carried inside a recording: the machine state at
/// `event_index` (i.e. after that many events of its run were emitted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Anchor {
    /// Events of the owning run emitted before this snapshot was taken.
    pub event_index: u64,
    /// Retired-instruction count at the snapshot point.
    pub retired: u64,
    /// The serialized machine state (`mcd-snap` codec bytes).
    pub snapshot: Vec<u8>,
}

/// One run's worth of recorded material: the label the harness filed it
/// under, an optional replay spec (flat JSON describing how to rebuild
/// the machine), the event stream, and any snapshot anchors.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecording {
    /// The harness run label (`benchmark|scheme|ops=..|..`).
    pub label: String,
    /// Flat-JSON replay spec, when the harness knows how to rebuild the
    /// run from scratch; absent for ad-hoc custom runs.
    pub spec: Option<String>,
    /// The recorded events, in emission order.
    pub events: Vec<TraceEvent>,
    /// Snapshot anchors, ordered by `event_index`.
    pub anchors: Vec<Anchor>,
}

/// Where an anchor landed in the file (the index entry; the snapshot
/// bytes themselves live in the [`block::ANCHOR`] block at `offset`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnchorRef {
    /// Events of the owning run emitted before the snapshot.
    pub event_index: u64,
    /// Retired-instruction count at the snapshot point.
    pub retired: u64,
    /// File offset of the anchor block.
    pub offset: u64,
    /// The run's timestamp delta chain at the anchor: the last event's
    /// timestamp before it (0 before the first event). Events after the
    /// anchor decode from here without the blocks before it.
    pub delta_base: u64,
}

/// One run's entry in the trailing index.
#[derive(Debug, Clone, PartialEq)]
pub struct RunIndex {
    /// The harness run label.
    pub label: String,
    /// The replay spec, if one was recorded.
    pub spec: Option<String>,
    /// File offset of the run's [`block::RUN_START`] block.
    pub start_offset: u64,
    /// Total events recorded for the run.
    pub event_count: u64,
    /// Anchor locations, ordered by `event_index`.
    pub anchors: Vec<AnchorRef>,
    /// The episode catalog, in onset order.
    pub episodes: Vec<Episode>,
}

/// The trailing seek index of a `.mcdt` file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceIndex {
    /// Per-run entries, in file order.
    pub runs: Vec<RunIndex>,
}

impl TraceIndex {
    /// Total episodes across all runs.
    pub fn episode_count(&self) -> usize {
        self.runs.iter().map(|r| r.episodes.len()).sum()
    }

    /// Resolves a global episode ordinal (catalog order: runs in file
    /// order, episodes in onset order) to `(run index, episode index)`.
    pub fn locate_episode(&self, k: usize) -> Option<(usize, usize)> {
        let mut seen = 0;
        for (ri, run) in self.runs.iter().enumerate() {
            if k < seen + run.episodes.len() {
                return Some((ri, k - seen));
            }
            seen += run.episodes.len();
        }
        None
    }
}
