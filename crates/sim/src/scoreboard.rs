//! Allocation- and hash-free completion tracking for the issue/retire
//! hot path.
//!
//! The engine consults two per-instruction maps on every back-end clock
//! edge, once per source operand of every queued micro-op:
//!
//! * *completed*: sequence number → completion record, queried by
//!   [`engine::Machine`](crate::engine::Machine)'s readiness check;
//! * *store map*: data address → youngest in-flight store, queried once
//!   per dispatched load.
//!
//! Both were `std::collections::HashMap`s, which meant SipHash plus a
//! probe chain on the hottest lookup in the simulator. The two
//! structures here exploit what the engine knows about its keys:
//!
//! * [`SeqScoreboard`] — sequence numbers are dense and live ones span a
//!   window no wider than the ROB (entries are inserted at issue, i.e.
//!   while in the ROB, and removed at retirement). A power-of-two ring
//!   indexed by `seq & mask` is therefore collision-free: one AND, one
//!   load, one tag compare per lookup — no hashing, no probing.
//! * [`AddrMap`] — addresses are *not* dense, so this is an open-addressed
//!   table with Fibonacci (multiply-shift) hashing, linear probing, and
//!   backward-shift deletion (no tombstones to accumulate). The engine
//!   prunes a store's entry when the store retires, bounding the table by
//!   the in-flight window instead of the touched-address footprint.
//!
//! Neither structure is ever iterated — all access is by key — so
//! swapping them in for `HashMap` is observably identical; only by-key
//! results reach simulation state.

use std::fmt;

/// Slot tag meaning "no entry". Sequence numbers are trace positions and
/// never reach `u64::MAX` (a trace that long would not finish simulating).
const EMPTY: u64 = u64::MAX;

/// A map from instruction sequence number to a per-instruction record,
/// valid while all live keys fit inside a fixed-width sliding window.
///
/// The caller guarantees that at any instant the live keys span less than
/// the `window` passed to [`SeqScoreboard::new`] (for the engine: an
/// instruction has a completion record only between issue and retirement,
/// and the ROB holds at most `rob_size` consecutive sequence numbers).
/// Under that invariant, `seq & mask` is injective over live keys and
/// every operation is a single indexed access.
#[derive(Clone)]
pub struct SeqScoreboard<V> {
    seqs: Vec<u64>,
    vals: Vec<V>,
    mask: u64,
}

impl<V: Copy + Default> SeqScoreboard<V> {
    /// Creates a scoreboard for live keys spanning at most `window`
    /// consecutive sequence numbers.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "scoreboard window must be positive");
        let cap = window.next_power_of_two();
        SeqScoreboard {
            seqs: vec![EMPTY; cap],
            vals: vec![V::default(); cap],
            mask: cap as u64 - 1,
        }
    }

    #[inline]
    fn slot(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    /// The record for `seq`, if one is present.
    #[inline]
    pub fn get(&self, seq: u64) -> Option<&V> {
        let i = self.slot(seq);
        if self.seqs[i] == seq {
            Some(&self.vals[i])
        } else {
            None
        }
    }

    /// Inserts (or overwrites) the record for `seq`.
    ///
    /// In debug builds, panics if the slot is occupied by a *different*
    /// live key — that means the caller broke the window invariant and
    /// results would silently corrupt.
    #[inline]
    pub fn insert(&mut self, seq: u64, value: V) {
        let i = self.slot(seq);
        debug_assert!(
            self.seqs[i] == EMPTY || self.seqs[i] == seq,
            "scoreboard window violated: seq {} collides with live seq {}",
            seq,
            self.seqs[i]
        );
        self.seqs[i] = seq;
        self.vals[i] = value;
    }

    /// Removes the record for `seq`, if present.
    #[inline]
    pub fn remove(&mut self, seq: u64) {
        let i = self.slot(seq);
        if self.seqs[i] == seq {
            self.seqs[i] = EMPTY;
        }
    }

    /// Serializes the raw slot arrays (`save_val` encodes each live value),
    /// preserving the exact layout so a restore is indistinguishable from
    /// the original — empty slots keep stale values, which are never read.
    pub fn save_state(
        &self,
        w: &mut mcd_snap::SnapWriter,
        mut save_val: impl FnMut(&mut mcd_snap::SnapWriter, &V),
    ) {
        w.put_u64(self.seqs.len() as u64);
        for (i, &seq) in self.seqs.iter().enumerate() {
            w.put_u64(seq);
            if seq != EMPTY {
                save_val(w, &self.vals[i]);
            }
        }
    }

    /// Restores state captured by [`SeqScoreboard::save_state`] into a
    /// scoreboard of the same capacity.
    pub fn load_state(
        &mut self,
        r: &mut mcd_snap::SnapReader<'_>,
        mut load_val: impl FnMut(&mut mcd_snap::SnapReader<'_>) -> mcd_snap::SnapResult<V>,
    ) -> mcd_snap::SnapResult<()> {
        r.expect_u64(self.seqs.len() as u64, "scoreboard capacity")?;
        for i in 0..self.seqs.len() {
            let seq = r.take_u64()?;
            self.seqs[i] = seq;
            self.vals[i] = if seq != EMPTY {
                load_val(r)?
            } else {
                V::default()
            };
        }
        Ok(())
    }
}

impl<V> fmt::Debug for SeqScoreboard<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let live = self.seqs.iter().filter(|&&s| s != EMPTY).count();
        f.debug_struct("SeqScoreboard")
            .field("capacity", &self.seqs.len())
            .field("live", &live)
            .finish()
    }
}

/// An open-addressed `u64 → u64` map (data address → store sequence
/// number) with Fibonacci hashing and linear probing.
///
/// Deletion uses backward shifting, so probe chains stay short without
/// tombstone cleanup; the table grows (never shrinks) at 7/8 load. Keys
/// must be below `u64::MAX`, which is reserved as the empty tag —
/// simulated data addresses are far below that.
#[derive(Clone)]
pub struct AddrMap {
    keys: Vec<u64>,
    vals: Vec<u64>,
    mask: usize,
    shift: u32,
    len: usize,
}

/// 2^64 / φ, the multiplier of Fibonacci hashing: consecutive and
/// stride-patterned addresses (exactly what address generators emit)
/// spread uniformly across the high bits.
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

impl AddrMap {
    /// Creates an empty map with a small initial capacity.
    pub fn new() -> Self {
        Self::with_capacity_pow2(64)
    }

    fn with_capacity_pow2(cap: usize) -> Self {
        debug_assert!(cap.is_power_of_two());
        AddrMap {
            keys: vec![EMPTY; cap],
            vals: vec![0; cap],
            mask: cap - 1,
            shift: 64 - cap.trailing_zeros(),
            len: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(PHI) >> self.shift) as usize
    }

    /// The value for `key`, if present.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u64> {
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(self.vals[i]);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Inserts or overwrites the value for `key`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `key` is the reserved empty tag `u64::MAX`.
    #[inline]
    pub fn insert(&mut self, key: u64, value: u64) {
        debug_assert!(key != EMPTY, "u64::MAX is reserved as the empty tag");
        if (self.len + 1) * 8 > (self.mask + 1) * 7 {
            self.grow();
        }
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key {
                self.vals[i] = value;
                return;
            }
            if k == EMPTY {
                self.keys[i] = key;
                self.vals[i] = value;
                self.len += 1;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Removes `key` only if it currently maps to `value`; returns whether
    /// an entry was removed.
    ///
    /// This is the retire-time pruning primitive: a committing store must
    /// not evict a *younger* store that has since overwritten its address
    /// slot, so the caller passes its own sequence number as `value`.
    #[inline]
    pub fn remove_if(&mut self, key: u64, value: u64) -> bool {
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key {
                if self.vals[i] != value {
                    return false;
                }
                self.remove_slot(i);
                return true;
            }
            if k == EMPTY {
                return false;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Backward-shift deletion: walk the probe chain after `i`, moving
    /// back any entry whose home position precedes the hole, so lookups
    /// never need tombstones.
    fn remove_slot(&mut self, mut i: usize) {
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            let k = self.keys[j];
            if k == EMPTY {
                break;
            }
            // The entry at j may fill the hole at i iff i lies on its
            // probe path, i.e. dist(home(k) → j) >= dist(i → j).
            let dist_home = j.wrapping_sub(self.home(k)) & self.mask;
            let dist_hole = j.wrapping_sub(i) & self.mask;
            if dist_home >= dist_hole {
                self.keys[i] = k;
                self.vals[i] = self.vals[j];
                i = j;
            }
        }
        self.keys[i] = EMPTY;
        self.len -= 1;
    }

    /// Serializes the raw table arrays. Capacity and probe-chain layout are
    /// preserved exactly, so lookups and deletions after a restore walk the
    /// same slots the original table would have.
    pub fn save_state(&self, w: &mut mcd_snap::SnapWriter) {
        w.put_u64((self.mask + 1) as u64);
        w.put_u64(self.len as u64);
        for i in 0..=self.mask {
            w.put_u64(self.keys[i]);
            w.put_u64(self.vals[i]);
        }
    }

    /// Restores a table captured by [`AddrMap::save_state`], replacing
    /// `self` entirely (the capacity comes from the snapshot, since the
    /// table grows dynamically).
    pub fn load_state(&mut self, r: &mut mcd_snap::SnapReader<'_>) -> mcd_snap::SnapResult<()> {
        let cap = r.take_usize()?;
        if !cap.is_power_of_two() {
            return Err(mcd_snap::SnapError::Mismatch(format!(
                "addr map capacity {cap} is not a power of two"
            )));
        }
        let len = r.take_usize()?;
        if len > cap {
            return Err(mcd_snap::SnapError::Mismatch(format!(
                "addr map length {len} exceeds capacity {cap}"
            )));
        }
        // A corrupt capacity must fail before allocation: cap slots occupy
        // 16 bytes each in the snapshot, so they must fit what remains.
        if cap > r.remaining() / 16 {
            return Err(mcd_snap::SnapError::Mismatch(format!(
                "addr map capacity {cap} exceeds remaining snapshot bytes"
            )));
        }
        let mut fresh = Self::with_capacity_pow2(cap);
        for i in 0..cap {
            fresh.keys[i] = r.take_u64()?;
            fresh.vals[i] = r.take_u64()?;
        }
        fresh.len = len;
        *self = fresh;
        Ok(())
    }

    fn grow(&mut self) {
        let bigger = Self::with_capacity_pow2((self.mask + 1) * 2);
        let old = std::mem::replace(self, bigger);
        for (k, v) in old.keys.into_iter().zip(old.vals) {
            if k != EMPTY {
                self.insert(k, v);
            }
        }
    }
}

impl Default for AddrMap {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for AddrMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AddrMap")
            .field("capacity", &(self.mask + 1))
            .field("len", &self.len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoreboard_window_roundtrip() {
        let mut sb: SeqScoreboard<u32> = SeqScoreboard::new(80);
        for seq in 0..80u64 {
            sb.insert(seq, seq as u32 * 3);
        }
        for seq in 0..80u64 {
            assert_eq!(sb.get(seq), Some(&(seq as u32 * 3)));
        }
        assert_eq!(sb.get(80), None);
        // Slide the window: retire the oldest, admit a new youngest.
        sb.remove(0);
        assert_eq!(sb.get(0), None);
        sb.insert(128, 7); // 128 & 127 == 0: reuses the freed slot
        assert_eq!(sb.get(128), Some(&7));
        assert_eq!(sb.get(0), None, "old key must not alias the new one");
    }

    #[test]
    fn scoreboard_sliding_window_never_confuses_keys() {
        let mut sb: SeqScoreboard<u64> = SeqScoreboard::new(8);
        for seq in 0..1000u64 {
            sb.insert(seq, seq ^ 0xABCD);
            if seq >= 7 {
                let old = seq - 7;
                assert_eq!(sb.get(old), Some(&(old ^ 0xABCD)));
                sb.remove(old);
                assert_eq!(sb.get(old), None);
            }
        }
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let _: SeqScoreboard<u8> = SeqScoreboard::new(0);
    }

    #[test]
    fn addr_map_insert_get_overwrite() {
        let mut m = AddrMap::new();
        assert!(m.is_empty());
        m.insert(0x1000, 5);
        m.insert(0x2000, 9);
        assert_eq!(m.get(0x1000), Some(5));
        assert_eq!(m.get(0x2000), Some(9));
        assert_eq!(m.get(0x3000), None);
        m.insert(0x1000, 42); // younger store to the same address
        assert_eq!(m.get(0x1000), Some(42));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn addr_map_remove_if_respects_value() {
        let mut m = AddrMap::new();
        m.insert(0x40, 3);
        assert!(!m.remove_if(0x40, 99), "wrong seq must not evict");
        assert_eq!(m.get(0x40), Some(3));
        assert!(m.remove_if(0x40, 3));
        assert_eq!(m.get(0x40), None);
        assert!(!m.remove_if(0x40, 3), "double remove is a no-op");
        assert!(m.is_empty());
    }

    #[test]
    fn addr_map_grows_and_keeps_everything() {
        let mut m = AddrMap::new();
        // Strided addresses, well past the initial capacity.
        for i in 0..10_000u64 {
            m.insert(i * 64, i);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(m.get(i * 64), Some(i), "addr {:#x}", i * 64);
        }
    }

    #[test]
    fn addr_map_backward_shift_keeps_chains_reachable() {
        // Build clustered keys (same stride ⇒ adjacent probe chains),
        // delete from the middle, and verify every survivor stays
        // reachable — the failure mode tombstone-free deletion must avoid.
        let mut m = AddrMap::new();
        let keys: Vec<u64> = (0..500).map(|i| i * 8).collect();
        for (i, &k) in keys.iter().enumerate() {
            m.insert(k, i as u64);
        }
        for (i, &k) in keys.iter().enumerate() {
            if i % 3 == 0 {
                assert!(m.remove_if(k, i as u64));
            }
        }
        for (i, &k) in keys.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(m.get(k), None);
            } else {
                assert_eq!(m.get(k), Some(i as u64), "lost key {k:#x}");
            }
        }
    }

    #[test]
    fn addr_map_churn_matches_std_hashmap() {
        use std::collections::HashMap;
        // Deterministic pseudo-random churn cross-checked against the
        // reference implementation the engine used to rely on.
        let mut m = AddrMap::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        let mut state = 0x0123_4567_89AB_CDEFu64;
        for round in 0..50_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (state >> 33) % 4096 * 8;
            match state % 3 {
                0 | 1 => {
                    m.insert(key, round);
                    reference.insert(key, round);
                }
                _ => {
                    let expect = reference.get(&key).copied();
                    assert_eq!(m.get(key), expect);
                    if let Some(v) = expect {
                        assert!(m.remove_if(key, v));
                        reference.remove(&key);
                    }
                }
            }
        }
        assert_eq!(m.len(), reference.len());
        for (&k, &v) in &reference {
            assert_eq!(m.get(k), Some(v));
        }
    }
}
