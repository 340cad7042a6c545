//! Combined branch predictor (Table 1: bimodal + 2-level, chooser, BTB).

/// A saturating 2-bit counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counter2(u8);

impl Counter2 {
    fn predict(self) -> bool {
        self.0 >= 2
    }

    #[inline]
    fn update(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }
}

/// The combined predictor of Table 1: a 1024-entry bimodal table, a
/// 2-level gshare-style predictor (10-bit global history into a 1024-entry
/// pattern table), a 4096-entry chooser, and a 4096-set 2-way BTB
/// (modeled for capacity/energy accounting only; targets are implicit in
/// trace-driven mode).
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    bimodal: Vec<Counter2>,
    pattern: Vec<Counter2>,
    chooser: Vec<Counter2>,
    history: u16,
    history_bits: u32,
    lookups: u64,
    mispredicts: u64,
}

impl BranchPredictor {
    /// Builds the Table 1 configuration.
    pub fn table1() -> Self {
        BranchPredictor::new(1024, 1024, 10, 4096)
    }

    /// Builds a predictor with the given table sizes (all powers of two)
    /// and global-history length.
    ///
    /// # Panics
    ///
    /// Panics if any table size is not a power of two or the history is
    /// longer than 16 bits.
    pub fn new(bimodal: usize, pattern: usize, history_bits: u32, chooser: usize) -> Self {
        assert!(
            bimodal.is_power_of_two(),
            "bimodal size must be a power of two"
        );
        assert!(
            pattern.is_power_of_two(),
            "pattern size must be a power of two"
        );
        assert!(
            chooser.is_power_of_two(),
            "chooser size must be a power of two"
        );
        assert!(history_bits <= 16, "history too long");
        BranchPredictor {
            // Weakly-taken initialization: most branches are loop branches,
            // so a cold predictor starting at "taken" mispredicts far less.
            bimodal: vec![Counter2(2); bimodal],
            pattern: vec![Counter2(2); pattern],
            chooser: vec![Counter2(2); chooser],
            history: 0,
            history_bits,
            lookups: 0,
            mispredicts: 0,
        }
    }

    fn bimodal_idx(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.bimodal.len() - 1)
    }

    fn pattern_idx(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history as u64) as usize) & (self.pattern.len() - 1)
    }

    fn chooser_idx(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.chooser.len() - 1)
    }

    /// Predicts the direction of the branch at `pc`.
    pub fn predict(&mut self, pc: u64) -> bool {
        self.lookups += 1;
        let b = self.bimodal[self.bimodal_idx(pc)].predict();
        let p = self.pattern[self.pattern_idx(pc)].predict();
        if self.chooser[self.chooser_idx(pc)].predict() {
            p
        } else {
            b
        }
    }

    /// Commits the actual outcome, training all tables. Returns whether
    /// the prior prediction for this lookup was correct.
    #[inline]
    pub fn update(&mut self, pc: u64, predicted: bool, taken: bool) -> bool {
        let b_idx = self.bimodal_idx(pc);
        let p_idx = self.pattern_idx(pc);
        let c_idx = self.chooser_idx(pc);
        let b_correct = self.bimodal[b_idx].predict() == taken;
        let p_correct = self.pattern[p_idx].predict() == taken;
        self.bimodal[b_idx].update(taken);
        self.pattern[p_idx].update(taken);
        // Chooser trains toward whichever component was right (ties ignored).
        if p_correct != b_correct {
            self.chooser[c_idx].update(p_correct);
        }
        let mask = (1u32 << self.history_bits) - 1;
        self.history = (((self.history as u32) << 1 | taken as u32) & mask) as u16;
        if predicted != taken {
            self.mispredicts += 1;
        }
        predicted == taken
    }

    /// Lookups performed.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Mispredictions committed.
    pub fn mispredicts(&self) -> u64 {
        self.mispredicts
    }

    /// Misprediction ratio so far (0 when no lookups).
    pub fn mispredict_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.lookups as f64
        }
    }

    /// Serializes all counter tables, the global history, and the stat
    /// counters (table geometry comes from construction).
    pub fn save_state(&self, w: &mut mcd_snap::SnapWriter) {
        for table in [&self.bimodal, &self.pattern, &self.chooser] {
            w.put_seq(table, |w, c| w.put_u8(c.0));
        }
        w.put_u16(self.history);
        w.put_u64(self.lookups);
        w.put_u64(self.mispredicts);
    }

    /// Restores state captured by [`BranchPredictor::save_state`] into a
    /// predictor of the same geometry.
    pub fn load_state(&mut self, r: &mut mcd_snap::SnapReader<'_>) -> mcd_snap::SnapResult<()> {
        for (name, table) in [
            ("bimodal", &mut self.bimodal),
            ("pattern", &mut self.pattern),
            ("chooser", &mut self.chooser),
        ] {
            let counters: Vec<u8> = r.take_seq(|r| r.take_u8())?;
            if counters.len() != table.len() {
                return Err(mcd_snap::SnapError::Mismatch(format!(
                    "{name} table holds {} counters, predictor has {}",
                    counters.len(),
                    table.len()
                )));
            }
            for (slot, v) in table.iter_mut().zip(counters) {
                if v > 3 {
                    return Err(mcd_snap::SnapError::Mismatch(format!(
                        "{name} counter value {v} exceeds saturation"
                    )));
                }
                *slot = Counter2(v);
            }
        }
        self.history = r.take_u16()?;
        self.lookups = r.take_u64()?;
        self.mispredicts = r.take_u64()?;
        Ok(())
    }
}

impl Default for BranchPredictor {
    fn default() -> Self {
        BranchPredictor::table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates() {
        let mut c = Counter2(0);
        for _ in 0..5 {
            c.update(true);
        }
        assert_eq!(c.0, 3);
        for _ in 0..5 {
            c.update(false);
        }
        assert_eq!(c.0, 0);
    }

    #[test]
    fn learns_always_taken_branch() {
        let mut bp = BranchPredictor::table1();
        let pc = 0x400100;
        for _ in 0..8 {
            let p = bp.predict(pc);
            bp.update(pc, p, true);
        }
        assert!(bp.predict(pc), "should have learned taken");
    }

    #[test]
    fn learns_loop_pattern_via_history() {
        // Pattern TTTN repeating: gshare should learn it near-perfectly.
        let mut bp = BranchPredictor::table1();
        let pc = 0x400200;
        let pattern = [true, true, true, false];
        // Train.
        for i in 0..400 {
            let t = pattern[i % 4];
            let p = bp.predict(pc);
            bp.update(pc, p, t);
        }
        // Measure.
        let mut correct = 0;
        for i in 0..400 {
            let t = pattern[i % 4];
            let p = bp.predict(pc);
            if bp.update(pc, p, t) {
                correct += 1;
            }
        }
        assert!(
            correct > 360,
            "only {correct}/400 correct on a loop pattern"
        );
    }

    #[test]
    fn random_branch_mispredicts_substantially() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut bp = BranchPredictor::table1();
        let mut rng = StdRng::seed_from_u64(1);
        let pc = 0x400300;
        for _ in 0..2000 {
            let t = rng.gen::<bool>();
            let p = bp.predict(pc);
            bp.update(pc, p, t);
        }
        assert!(bp.mispredict_rate() > 0.3, "rate {}", bp.mispredict_rate());
        assert!(bp.mispredict_rate() < 0.7);
    }

    #[test]
    fn counts_track_calls() {
        let mut bp = BranchPredictor::table1();
        assert_eq!(bp.mispredict_rate(), 0.0);
        let p = bp.predict(0x10);
        bp.update(0x10, p, !p);
        assert_eq!(bp.lookups(), 1);
        assert_eq!(bp.mispredicts(), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_table_size_panics() {
        let _ = BranchPredictor::new(1000, 1024, 10, 4096);
    }
}
