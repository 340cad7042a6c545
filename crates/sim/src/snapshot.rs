//! Machine-state snapshots: pausing a run between events and resuming it
//! elsewhere, bit-identically.
//!
//! A snapshot captures every piece of evolving simulation state — domain
//! clocks (including their jitter-stream positions), regulators, energy
//! meters, the pipeline (fetch buffer, ROB, issue queues, free lists,
//! scoreboards), the memory hierarchy, the branch predictor, all metrics,
//! the event-scheduler population (per-domain sleep slots with their
//! frozen tie-break ranks derive from these), the controllers, and the
//! trace generator's RNG position. Static configuration (the
//! [`crate::SimConfig`], the VF curve, cache geometry) is *not* stored:
//! a restore target is built through the normal constructor with the same
//! configuration, and the snapshot overwrites only what evolves. A
//! configuration hash in the header rejects mismatched restores early.
//!
//! Snapshots are only taken *between* events — [`crate::Machine`]'s
//! `try_advance_traced` pauses at a retired-instruction boundary, at
//! which point the per-tick scratch buffers are provably empty — so no
//! transient state needs encoding.
//!
//! The encoding is [`mcd_snap`]'s little-endian fixed-width format; all
//! `f64` state round-trips through `to_bits`, so a restored run continues
//! with bit-identical arithmetic.

use mcd_snap::{SnapReader, SnapResult, SnapWriter};

use crate::config::SimConfig;

/// Snapshot file magic: `MCDS` as a little-endian u32.
pub const SNAPSHOT_MAGIC: u32 = u32::from_le_bytes(*b"MCDS");

/// Bump whenever the snapshot layout changes; restores of other versions
/// are rejected, never reinterpreted.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 1;

/// A workload source whose read position can be captured and restored.
///
/// Implemented by [`mcd_workloads::TraceGenerator`]; any other trace
/// source used with snapshots must serialize enough state that iteration
/// after a restore yields exactly the ops an uninterrupted run would
/// have produced.
pub trait SnapshotSource {
    /// Serializes the source's evolving read state.
    fn save_state(&self, w: &mut SnapWriter);
    /// Restores state captured by [`SnapshotSource::save_state`] into a
    /// freshly-constructed source of the same specification.
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> SnapResult<()>;
}

impl SnapshotSource for mcd_workloads::TraceGenerator {
    fn save_state(&self, w: &mut SnapWriter) {
        mcd_workloads::TraceGenerator::save_state(self, w);
    }
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> SnapResult<()> {
        mcd_workloads::TraceGenerator::load_state(self, r)
    }
}

/// FNV-1a 64-bit offset basis: the seed of an [`fnv1a64`] chain.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a, folded over `bytes` starting from `h` (chain calls
/// with the previous result; seed with [`FNV_OFFSET`]).
pub fn fnv1a64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A structural fingerprint of a [`SimConfig`], stored in every snapshot
/// header so a restore into a differently-configured machine fails with a
/// named mismatch instead of corrupted state.
///
/// FNV-1a over the config's `Debug` rendering: every field participates
/// (the derive prints them all), and `f64` fields print with
/// shortest-round-trip precision, so distinct configurations hash
/// distinctly for all practical purposes.
pub fn config_hash(cfg: &SimConfig) -> u64 {
    fnv1a64(FNV_OFFSET, format!("{cfg:?}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_hash_distinguishes_configs() {
        let a = SimConfig::default();
        let mut b = SimConfig::default();
        b.rob_size += 1;
        assert_ne!(config_hash(&a), config_hash(&b));
        assert_eq!(config_hash(&a), config_hash(&SimConfig::default()));
    }

    #[test]
    fn magic_is_ascii_mcds() {
        assert_eq!(SNAPSHOT_MAGIC.to_le_bytes(), *b"MCDS");
    }
}
