//! Reorder buffer (in-order dispatch and retirement bookkeeping).

use std::collections::VecDeque;

use mcd_workloads::OpClass;

/// One reorder-buffer entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RobEntry {
    /// Dynamic sequence number of the instruction.
    pub seq: u64,
    /// Operation class (decides which register pool it holds).
    pub class: OpClass,
    /// Data address for stores, so retirement can prune the engine's
    /// store-forwarding map; `None` for everything else.
    pub addr: Option<u64>,
}

impl RobEntry {
    /// Whether the entry holds a physical integer register.
    pub fn holds_int_reg(&self) -> bool {
        self.class.produces_value() && !self.class.is_fp()
    }

    /// Whether the entry holds a physical floating-point register.
    pub fn holds_fp_reg(&self) -> bool {
        self.class.produces_value() && self.class.is_fp()
    }
}

/// A bounded in-order reorder buffer.
#[derive(Debug, Clone)]
pub struct Rob {
    entries: VecDeque<RobEntry>,
    capacity: usize,
}

impl Rob {
    /// Creates an empty ROB of `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ROB capacity must be positive");
        Rob {
            entries: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ROB is empty (pipeline drained).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the ROB is full (dispatch must stall).
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Oldest (next-to-retire) entry.
    pub fn head(&self) -> Option<&RobEntry> {
        self.entries.front()
    }

    /// Appends a dispatched instruction.
    ///
    /// # Panics
    ///
    /// Panics if the ROB is full.
    #[inline]
    pub fn push(&mut self, entry: RobEntry) {
        assert!(!self.is_full(), "push into full ROB");
        self.entries.push_back(entry);
    }

    /// Retires the head entry.
    ///
    /// # Panics
    ///
    /// Panics if the ROB is empty.
    #[inline]
    pub fn retire_head(&mut self) -> RobEntry {
        self.entries.pop_front().expect("retire from empty ROB")
    }

    /// Serializes the in-flight entries (capacity comes from construction).
    pub fn save_state(&self, w: &mut mcd_snap::SnapWriter) {
        w.put_u64(self.entries.len() as u64);
        for e in &self.entries {
            w.put_u64(e.seq);
            w.put_u8(e.class.index());
            w.put_opt_u64(e.addr);
        }
    }

    /// Restores state captured by [`Rob::save_state`] into a ROB of the
    /// same capacity.
    pub fn load_state(&mut self, r: &mut mcd_snap::SnapReader<'_>) -> mcd_snap::SnapResult<()> {
        let len = r.take_usize()?;
        if len > self.capacity {
            return Err(mcd_snap::SnapError::Mismatch(format!(
                "ROB length {len} exceeds capacity {}",
                self.capacity
            )));
        }
        self.entries.clear();
        for _ in 0..len {
            let seq = r.take_u64()?;
            let class_idx = r.take_u8()?;
            let class = OpClass::from_index(class_idx).ok_or_else(|| {
                mcd_snap::SnapError::Mismatch(format!("ROB op class index {class_idx} invalid"))
            })?;
            let addr = r.take_opt_u64()?;
            self.entries.push_back(RobEntry { seq, class, addr });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_is_preserved() {
        let mut rob = Rob::new(4);
        for i in 0..3 {
            rob.push(RobEntry {
                seq: i,
                class: OpClass::IntAlu,
                addr: None,
            });
        }
        assert_eq!(rob.head().map(|e| e.seq), Some(0));
        assert_eq!(rob.retire_head().seq, 0);
        assert_eq!(rob.retire_head().seq, 1);
        assert_eq!(rob.len(), 1);
    }

    #[test]
    fn fullness_tracks_capacity() {
        let mut rob = Rob::new(2);
        assert!(!rob.is_full());
        rob.push(RobEntry {
            seq: 0,
            class: OpClass::Load,
            addr: None,
        });
        rob.push(RobEntry {
            seq: 1,
            class: OpClass::Store,
            addr: None,
        });
        assert!(rob.is_full());
    }

    #[test]
    fn register_holding_predicates() {
        let int = RobEntry {
            seq: 0,
            class: OpClass::IntAlu,
            addr: None,
        };
        let fp = RobEntry {
            seq: 1,
            class: OpClass::FpMul,
            addr: None,
        };
        let ld = RobEntry {
            seq: 2,
            class: OpClass::Load,
            addr: None,
        };
        let st = RobEntry {
            seq: 3,
            class: OpClass::Store,
            addr: None,
        };
        let br = RobEntry {
            seq: 4,
            class: OpClass::Branch,
            addr: None,
        };
        assert!(int.holds_int_reg() && !int.holds_fp_reg());
        assert!(fp.holds_fp_reg() && !fp.holds_int_reg());
        assert!(ld.holds_int_reg(), "loads write an integer register here");
        assert!(!st.holds_int_reg() && !st.holds_fp_reg());
        assert!(!br.holds_int_reg() && !br.holds_fp_reg());
    }

    #[test]
    #[should_panic(expected = "full ROB")]
    fn overfull_push_panics() {
        let mut rob = Rob::new(1);
        rob.push(RobEntry {
            seq: 0,
            class: OpClass::IntAlu,
            addr: None,
        });
        rob.push(RobEntry {
            seq: 1,
            class: OpClass::IntAlu,
            addr: None,
        });
    }

    #[test]
    #[should_panic(expected = "empty ROB")]
    fn empty_retire_panics() {
        let mut rob = Rob::new(1);
        let _ = rob.retire_head();
    }
}
