//! Physical register free lists (rename bookkeeping).

/// Free-list accounting for one physical register space.
///
/// The simulator is trace-driven, so only the *count* of free registers
/// matters: rename stalls when the pool is empty and registers return to
/// the pool at retirement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreeList {
    capacity: usize,
    free: usize,
}

impl FreeList {
    /// Creates a full free list of `capacity` registers.
    pub fn new(capacity: usize) -> Self {
        FreeList {
            capacity,
            free: capacity,
        }
    }

    /// Registers currently available.
    pub fn free(&self) -> usize {
        self.free
    }

    /// Total registers in the pool.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Attempts to allocate one register. Returns `false` (without side
    /// effects) when the pool is empty.
    pub fn try_alloc(&mut self) -> bool {
        if self.free == 0 {
            false
        } else {
            self.free -= 1;
            true
        }
    }

    /// Returns one register to the pool.
    ///
    /// # Panics
    ///
    /// Panics if more registers are released than were allocated.
    #[inline]
    pub fn release(&mut self) {
        assert!(self.free < self.capacity, "free-list overflow");
        self.free += 1;
    }

    /// Serializes the free count (capacity comes from construction).
    pub fn save_state(&self, w: &mut mcd_snap::SnapWriter) {
        w.put_u64(self.free as u64);
    }

    /// Restores state captured by [`FreeList::save_state`] into a list of
    /// the same capacity.
    pub fn load_state(&mut self, r: &mut mcd_snap::SnapReader<'_>) -> mcd_snap::SnapResult<()> {
        let free = r.take_usize()?;
        if free > self.capacity {
            return Err(mcd_snap::SnapError::Mismatch(format!(
                "free list count {free} exceeds capacity {}",
                self.capacity
            )));
        }
        self.free = free;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_release_roundtrip() {
        let mut fl = FreeList::new(2);
        assert_eq!(fl.free(), 2);
        assert!(fl.try_alloc());
        assert!(fl.try_alloc());
        assert!(!fl.try_alloc(), "pool exhausted");
        fl.release();
        assert!(fl.try_alloc());
        assert_eq!(fl.capacity(), 2);
    }

    #[test]
    #[should_panic(expected = "free-list overflow")]
    fn over_release_panics() {
        let mut fl = FreeList::new(1);
        fl.release();
    }
}
