//! Combined issue/interface queues.
//!
//! In the MCD design the synchronization interface between the front end
//! and each back-end domain is folded into that domain's issue queue
//! (Section 2 of the paper): the front end writes entries across the clock
//! boundary, and an entry becomes *visible* to the consumer domain only
//! after the synchronization window has passed. The occupancy of these
//! queues is the signal every DVFS controller in this study observes.

use mcd_power::TimePs;
use mcd_workloads::MicroOp;

/// One queue entry: a micro-op plus its synchronization and memory-order
/// bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IqEntry {
    /// The micro-op itself.
    pub op: MicroOp,
    /// First instant a consumer-domain clock edge may observe this entry
    /// (dispatch time + synchronization window).
    pub visible_at: TimePs,
    /// For loads: sequence number of the youngest older store to the same
    /// address, which must complete first.
    pub mem_dep: Option<u64>,
    /// Cached exact readiness instant, filled by the issue scan once every
    /// producer's completion time is known. Producers' completion times
    /// and the synchronization penalty never change after they are
    /// recorded, so the cached value stays exact for the entry's lifetime
    /// — later scans compare one timestamp instead of re-walking sources.
    pub ready_hint: Option<TimePs>,
    /// The unissued producer the issue scan's last walk stopped at. While
    /// it is still not completion-tracked the entry cannot be ready, so the
    /// scan probes that one source instead of re-walking them all (a
    /// resolved producer never becomes unresolved). A scan-time shortcut,
    /// not state: `None` at dispatch and after restore, never serialized.
    pub blocked_on: Option<u64>,
}

/// A bounded issue/interface queue.
#[derive(Debug, Clone)]
pub struct IssueQueue {
    entries: Vec<IqEntry>,
    capacity: usize,
    peak: usize,
}

impl IssueQueue {
    /// Creates an empty queue with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        IssueQueue {
            entries: Vec::with_capacity(capacity),
            capacity,
            peak: 0,
        }
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the queue is full (dispatch must stall).
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Maximum capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Highest occupancy ever observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Inserts an entry at the tail.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full — callers must check [`IssueQueue::is_full`].
    #[inline]
    pub fn push(&mut self, entry: IqEntry) {
        assert!(!self.is_full(), "push into full issue queue");
        self.entries.push(entry);
        self.peak = self.peak.max(self.entries.len());
    }

    /// Iterates entries in age order (oldest first).
    pub fn iter(&self) -> std::slice::Iter<'_, IqEntry> {
        self.entries.iter()
    }

    /// Mutable iteration in age order — the issue scan uses this to fill
    /// each entry's [`IqEntry::ready_hint`] cache in place.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, IqEntry> {
        self.entries.iter_mut()
    }

    /// Removes the entries at the given **sorted ascending** indices
    /// (as produced by an age-ordered select pass).
    ///
    /// # Panics
    ///
    /// Panics (debug) if the indices are not strictly ascending or out of
    /// range.
    #[inline]
    pub fn remove_issued(&mut self, sorted_indices: &[usize]) {
        debug_assert!(sorted_indices.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(sorted_indices
            .last()
            .is_none_or(|&i| i < self.entries.len()));
        // Each run of survivors between two issued entries slides down
        // once, over every gap opened so far.
        for (k, &idx) in sorted_indices.iter().enumerate() {
            let end = sorted_indices
                .get(k + 1)
                .copied()
                .unwrap_or(self.entries.len());
            self.entries.copy_within(idx + 1..end, idx - k);
        }
        self.entries
            .truncate(self.entries.len() - sorted_indices.len());
    }

    /// Serializes the queue's entries and peak (capacity comes from
    /// construction).
    pub fn save_state(&self, w: &mut mcd_snap::SnapWriter) {
        w.put_u64(self.entries.len() as u64);
        for e in &self.entries {
            e.save_state(w);
        }
        w.put_u64(self.peak as u64);
    }

    /// Restores state captured by [`IssueQueue::save_state`] into a queue
    /// of the same capacity.
    pub fn load_state(&mut self, r: &mut mcd_snap::SnapReader<'_>) -> mcd_snap::SnapResult<()> {
        let len = r.take_usize()?;
        if len > self.capacity {
            return Err(mcd_snap::SnapError::Mismatch(format!(
                "issue queue length {len} exceeds capacity {}",
                self.capacity
            )));
        }
        self.entries.clear();
        for _ in 0..len {
            self.entries.push(IqEntry::load_state(r)?);
        }
        self.peak = r.take_usize()?;
        Ok(())
    }
}

impl IqEntry {
    /// Serializes the entry for a state snapshot.
    pub fn save_state(&self, w: &mut mcd_snap::SnapWriter) {
        self.op.save_state(w);
        w.put_u64(self.visible_at.as_ps());
        w.put_opt_u64(self.mem_dep);
        w.put_opt_u64(self.ready_hint.map(TimePs::as_ps));
    }

    /// Decodes an entry written by [`IqEntry::save_state`].
    pub fn load_state(r: &mut mcd_snap::SnapReader<'_>) -> mcd_snap::SnapResult<IqEntry> {
        Ok(IqEntry {
            op: MicroOp::load_state(r)?,
            visible_at: TimePs::new(r.take_u64()?),
            mem_dep: r.take_opt_u64()?,
            ready_hint: r.take_opt_u64()?.map(TimePs::new),
            blocked_on: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_workloads::OpClass;

    fn entry(seq: u64) -> IqEntry {
        IqEntry {
            op: MicroOp::compute(seq, OpClass::IntAlu, 0x400, None, None),
            visible_at: TimePs::ZERO,
            mem_dep: None,
            ready_hint: None,
            blocked_on: None,
        }
    }

    fn bytes(e: &IqEntry) -> Vec<u8> {
        let mut w = mcd_snap::SnapWriter::new();
        e.save_state(&mut w);
        w.into_bytes()
    }

    /// `blocked_on` is a scan shortcut, not state: it never reaches the
    /// snapshot, and a decoded entry starts without it.
    #[test]
    fn blocked_on_is_not_serialized() {
        let mut e = entry(9);
        e.op = MicroOp::compute(9, OpClass::IntAlu, 0x400, Some(3), Some(5));
        let plain = bytes(&e);
        e.blocked_on = Some(5);
        assert_eq!(bytes(&e), plain);
        let back = IqEntry::load_state(&mut mcd_snap::SnapReader::new(&plain)).expect("decode");
        assert_eq!(back.blocked_on, None);
        assert_eq!(back.op, e.op);
    }

    #[test]
    fn push_and_capacity_limits() {
        let mut q = IssueQueue::new(2);
        assert!(q.is_empty());
        q.push(entry(0));
        q.push(entry(1));
        assert!(q.is_full());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peak(), 2);
    }

    #[test]
    #[should_panic(expected = "full issue queue")]
    fn overfull_push_panics() {
        let mut q = IssueQueue::new(1);
        q.push(entry(0));
        q.push(entry(1));
    }

    #[test]
    fn remove_issued_preserves_age_order() {
        let mut q = IssueQueue::new(8);
        for i in 0..5 {
            q.push(entry(i));
        }
        q.remove_issued(&[1, 3]);
        let seqs: Vec<u64> = q.iter().map(|e| e.op.seq).collect();
        assert_eq!(seqs, vec![0, 2, 4]);
        assert_eq!(q.peak(), 5, "peak survives removals");

        for (issued, left) in [
            (&[0, 2, 5][..], &[1, 3, 4, 6, 7][..]),
            (&[0, 1, 2, 3, 4, 5, 6, 7][..], &[][..]),
            (&[6, 7][..], &[0, 1, 2, 3, 4, 5][..]),
        ] {
            let mut q = IssueQueue::new(8);
            for i in 0..8 {
                q.push(entry(i));
            }
            q.remove_issued(issued);
            let seqs: Vec<u64> = q.iter().map(|e| e.op.seq).collect();
            assert_eq!(seqs, left, "after issuing {issued:?}");
        }
    }

    #[test]
    fn remove_nothing_is_noop() {
        let mut q = IssueQueue::new(4);
        q.push(entry(7));
        q.remove_issued(&[]);
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = IssueQueue::new(0);
    }
}
