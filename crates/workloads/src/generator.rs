//! The seeded micro-op trace generator.

use std::collections::{HashMap, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::benchmarks::BenchmarkSpec;
use crate::phase::PhaseSpec;
use crate::uop::{MicroOp, OpClass};

/// Cache-line size assumed by the address-stream generator.
const LINE: u64 = 64;
/// Hot data region: 32 KiB (fits the 64 KiB L1 D-cache).
const HOT_LINES: u64 = 512;
/// Warm data region: 128 KiB of lines touched round-robin. The cyclic
/// order defeats the 2-way L1 (4 lines per set, so every touch misses) but
/// the footprint fits the 1 MiB direct-mapped L2, so warm traffic hits L2
/// after its first pass — matching the "miss L1, hit L2" role.
const WARM_LINES: u64 = 2_048;

/// Base addresses of the three locality regions (disjoint).
const HOT_BASE: u64 = 0x1000_0000;
const WARM_BASE: u64 = 0x2000_0000;
const COLD_BASE: u64 = 0x4000_0000;

/// How many recent producers of each value space to remember for
/// dependency generation.
const PRODUCER_WINDOW: usize = 64;

/// An infinite-capable iterator of [`MicroOp`]s for one benchmark.
///
/// The generator walks the benchmark's phase list (looping if the spec says
/// so), draws op classes from the phase mix, wires register dependences
/// through per-space producer windows at the phase's mean distance, and
/// emits addresses from hot/warm/cold regions so the *real* caches in the
/// simulator experience approximately the phase's target miss rates.
///
/// Everything is derived from a single `u64` seed: two generators with the
/// same `(spec, total_ops, seed)` yield identical traces.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    rng: StdRng,
    phases: Vec<PhaseSpec>,
    /// Per phase, the log of the geometric lookback's continuation
    /// probability (see [`TraceGenerator::pick_producer`]).
    lookback_ln: Vec<f64>,
    loops: bool,
    phase_idx: usize,
    ops_left_in_phase: u64,
    total_left: u64,
    seq: u64,
    /// Recent producer seqs by value space, oldest first: rings of at most
    /// `PRODUCER_WINDOW` entries.
    recent_int: VecDeque<u64>,
    recent_fp: VecDeque<u64>,
    recent_load: VecDeque<u64>,
    /// Per-phase instruction pointer within the phase's code footprint.
    code_pos: u64,
    /// Round-robin cursors for the warm and cold regions.
    warm_pos: u64,
    cold_pos: u64,
    /// Branch-site pattern state: pc -> iterations since last not-taken.
    loop_counters: HashMap<u64, u32>,
    /// Per-phase static instruction layout: the op class at each code
    /// position. Built lazily so every static site has a stable class —
    /// branch sites stay branch sites, which is what lets the simulator's
    /// branch predictor and I-cache behave as they would on real code.
    class_maps: Vec<Option<Vec<OpClass>>>,
    seed: u64,
}

impl TraceGenerator {
    /// Creates a generator that will emit exactly `total_ops` micro-ops for
    /// `spec`, deterministically derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no phases or `total_ops` is zero; use
    /// [`TraceGenerator::try_new`] to handle that as an error.
    pub fn new(spec: &BenchmarkSpec, total_ops: u64, seed: u64) -> Self {
        Self::try_new(spec, total_ops, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible sibling of [`TraceGenerator::new`]: returns a description
    /// of what makes the workload unusable instead of panicking.
    pub fn try_new(spec: &BenchmarkSpec, total_ops: u64, seed: u64) -> Result<Self, String> {
        if spec.phases.is_empty() {
            return Err(format!("benchmark {} has no phases", spec.name));
        }
        if total_ops == 0 {
            return Err("trace must contain at least one op".to_string());
        }
        if let Some(p) = spec.phases.iter().find(|p| p.len_ops == 0) {
            return Err(format!(
                "benchmark {} has a zero-length phase ({})",
                spec.name, p.name
            ));
        }
        // Mix the benchmark name into the seed so different benchmarks
        // with the same user seed do not share random streams.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in spec.name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
        let first_len = spec.phases[0].len_ops;
        let n_phases = spec.phases.len();
        Ok(TraceGenerator {
            rng: StdRng::seed_from_u64(seed ^ h),
            phases: spec.phases.clone(),
            lookback_ln: spec
                .phases
                .iter()
                .map(|p| Self::lookback_ln(p.dep_mean))
                .collect(),
            class_maps: vec![None; n_phases],
            seed: seed ^ h,
            loops: spec.loops,
            phase_idx: 0,
            ops_left_in_phase: first_len,
            total_left: total_ops,
            seq: 0,
            recent_int: VecDeque::with_capacity(PRODUCER_WINDOW),
            recent_fp: VecDeque::with_capacity(PRODUCER_WINDOW),
            recent_load: VecDeque::with_capacity(PRODUCER_WINDOW),
            code_pos: 0,
            warm_pos: 0,
            cold_pos: 0,
            loop_counters: HashMap::new(),
        })
    }

    /// The phase currently being generated.
    pub fn current_phase(&self) -> &PhaseSpec {
        &self.phases[self.phase_idx]
    }

    /// Micro-ops still to be emitted.
    pub fn remaining(&self) -> u64 {
        self.total_left
    }

    /// Serializes the generator's evolving state: RNG position, phase
    /// cursor, producer windows, address cursors, and branch-site pattern
    /// counters. The phase specs, loop flag, and derived seed come from
    /// construction and are not written; `class_maps` are omitted because
    /// each is a pure function of the seed and phase index and rebuilds
    /// identically on demand.
    pub fn save_state(&self, w: &mut mcd_snap::SnapWriter) {
        for word in self.rng.state() {
            w.put_u64(word);
        }
        w.put_usize(self.phase_idx);
        w.put_u64(self.ops_left_in_phase);
        w.put_u64(self.total_left);
        w.put_u64(self.seq);
        // Front to back: the `put_seq` layout of the window as a slice.
        for window in [&self.recent_int, &self.recent_fp, &self.recent_load] {
            w.put_usize(window.len());
            for &s in window {
                w.put_u64(s);
            }
        }
        w.put_u64(self.code_pos);
        w.put_u64(self.warm_pos);
        w.put_u64(self.cold_pos);
        // HashMap iteration order is nondeterministic: serialize the
        // branch-site counters sorted by pc so identical states produce
        // identical bytes.
        let mut counters: Vec<(u64, u32)> =
            self.loop_counters.iter().map(|(&k, &v)| (k, v)).collect();
        counters.sort_unstable_by_key(|&(pc, _)| pc);
        w.put_seq(&counters, |w, &(pc, n)| {
            w.put_u64(pc);
            w.put_u32(n);
        });
    }

    /// Restores state captured by [`TraceGenerator::save_state`] into a
    /// generator built from the same spec, total ops, and seed. The
    /// restored generator continues the exact op stream of the saved one.
    pub fn load_state(&mut self, r: &mut mcd_snap::SnapReader<'_>) -> mcd_snap::SnapResult<()> {
        let mut words = [0u64; 4];
        for word in &mut words {
            *word = r.take_u64()?;
        }
        // All zeros is xoshiro's one forbidden state, which a saved
        // generator can never hold; `from_state` would panic on it.
        if words == [0; 4] {
            return Err(mcd_snap::SnapError::Mismatch(
                "trace generator RNG state is all zeros".to_string(),
            ));
        }
        self.rng = StdRng::from_state(words);
        let phase_idx = r.take_usize()?;
        if phase_idx >= self.phases.len() {
            return Err(mcd_snap::SnapError::Mismatch(format!(
                "phase index {phase_idx} out of range ({} phases)",
                self.phases.len()
            )));
        }
        self.phase_idx = phase_idx;
        self.ops_left_in_phase = r.take_u64()?;
        self.total_left = r.take_u64()?;
        self.seq = r.take_u64()?;
        self.recent_int = r.take_seq(|r| r.take_u64())?.into();
        self.recent_fp = r.take_seq(|r| r.take_u64())?.into();
        self.recent_load = r.take_seq(|r| r.take_u64())?.into();
        self.code_pos = r.take_u64()?;
        self.warm_pos = r.take_u64()?;
        self.cold_pos = r.take_u64()?;
        let counters = r.take_seq(|r| Ok((r.take_u64()?, r.take_u32()?)))?;
        self.loop_counters = counters.into_iter().collect();
        Ok(())
    }

    fn advance_phase(&mut self) {
        if self.phase_idx + 1 < self.phases.len() {
            self.phase_idx += 1;
        } else if self.loops {
            self.phase_idx = 0;
        } else {
            // Non-looping benchmarks stay in their final phase forever.
        }
        self.ops_left_in_phase = self.phases[self.phase_idx].len_ops;
        self.code_pos = 0;
    }

    /// `ln(1-p)` of the geometric lookback with mean distance `dep_mean`:
    /// P(k) ∝ (1-p)^k with mean (1-p)/p = dep_mean-1.
    fn lookback_ln(dep_mean: f64) -> f64 {
        let p = 1.0 / dep_mean.max(1.0);
        (1.0 - p).max(1e-9).ln()
    }

    /// Picks a producer from `window`, geometrically biased toward recent
    /// entries; `lookback_ln` is the phase's [`TraceGenerator::lookback_ln`].
    fn pick_producer(rng: &mut StdRng, window: &VecDeque<u64>, lookback_ln: f64) -> Option<u64> {
        if window.is_empty() {
            return None;
        }
        let u: f64 = rng.gen::<f64>().max(1e-12);
        let k = (u.ln() / lookback_ln).floor() as usize;
        let k = k.min(window.len() - 1);
        Some(window[window.len() - 1 - k])
    }

    fn push_producer(window: &mut VecDeque<u64>, seq: u64) {
        if window.len() == PRODUCER_WINDOW {
            window.pop_front();
        }
        window.push_back(seq);
    }

    /// The stable op class of static code position `pos` in phase
    /// `phase_idx`. The per-phase layout assigns classes by exact quota
    /// (largest-remainder) and a seeded shuffle, so dynamic mixes match the
    /// phase spec while every static site keeps one class for the whole run.
    fn class_at(&mut self, phase_idx: usize, pos: u64) -> OpClass {
        if self.class_maps[phase_idx].is_none() {
            let phase = &self.phases[phase_idx];
            let n = phase.code_footprint as usize;
            let mut map: Vec<OpClass> = Vec::with_capacity(n);
            let mut quotas: Vec<(OpClass, usize, f64)> = OpClass::ALL
                .iter()
                .map(|&c| {
                    let exact = phase.mix.fraction(c) * n as f64;
                    (c, exact.floor() as usize, exact - exact.floor())
                })
                .collect();
            for &(c, q, _) in &quotas {
                map.extend(std::iter::repeat_n(c, q));
            }
            quotas.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("fractions are finite"));
            let mut i = 0;
            while map.len() < n {
                map.push(quotas[i % quotas.len()].0);
                i += 1;
            }
            let mut rng = StdRng::seed_from_u64(
                self.seed ^ (phase_idx as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            for j in (1..map.len()).rev() {
                let k = rng.gen_range(0..=j);
                map.swap(j, k);
            }
            self.class_maps[phase_idx] = Some(map);
        }
        let map = self.class_maps[phase_idx].as_ref().expect("just built");
        map[pos as usize % map.len()]
    }

    fn gen_addr(&mut self) -> u64 {
        let phase = &self.phases[self.phase_idx];
        let u: f64 = self.rng.gen();
        let p_cold = phase.l1d_miss * phase.l2_miss;
        let p_warm = phase.l1d_miss * (1.0 - phase.l2_miss);
        if u < p_cold {
            // Cold: strictly increasing line addresses — misses everywhere.
            self.cold_pos += 1;
            COLD_BASE + self.cold_pos * LINE
        } else if u < p_cold + p_warm {
            // Warm: round-robin over a region bigger than L1, smaller in
            // reuse distance than L2.
            self.warm_pos = (self.warm_pos + 1) % WARM_LINES;
            WARM_BASE + self.warm_pos * LINE
        } else {
            // Hot: random line inside an L1-resident set.
            let line = self.rng.gen_range(0..HOT_LINES);
            HOT_BASE + line * LINE
        }
    }

    fn gen_branch_outcome(&mut self, pc: u64) -> bool {
        let phase = &self.phases[self.phase_idx];
        // A fixed per-site hash decides whether this branch site is
        // "random" (data-dependent) or patterned (loop-like: taken except
        // every Nth execution) — patterned sites are what the predictor
        // learns.
        let site_hash = pc.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
        let random_site = (site_hash % 1000) as f64 / 1000.0 < phase.branch_random;
        if random_site {
            self.rng.gen::<f64>() < phase.branch_taken
        } else {
            let period = 8 + (site_hash % 25) as u32; // loop trip counts 8..32
            let c = self.loop_counters.entry(pc).or_insert(0);
            *c += 1;
            if *c >= period {
                *c = 0;
                false // loop exit
            } else {
                true
            }
        }
    }
}

impl Iterator for TraceGenerator {
    type Item = MicroOp;

    fn next(&mut self) -> Option<MicroOp> {
        if self.total_left == 0 {
            return None;
        }
        if self.ops_left_in_phase == 0 {
            self.advance_phase();
        }
        self.total_left -= 1;
        self.ops_left_in_phase = self.ops_left_in_phase.saturating_sub(1);

        let seq = self.seq;
        self.seq += 1;

        // Program counter walks the phase's code footprint cyclically, with
        // a distinct base per phase so footprints do not alias.
        let pos = self.code_pos % self.phases[self.phase_idx].code_footprint;
        let pc = 0x40_0000 + (self.phase_idx as u64) * 0x10_0000 + pos * 4;
        self.code_pos += 1;

        let class = self.class_at(self.phase_idx, pos);
        let lookback = self.lookback_ln[self.phase_idx];

        let op = match class {
            OpClass::IntAlu | OpClass::IntMul => {
                let s1 = Self::pick_producer(&mut self.rng, &self.recent_int, lookback);
                let s2 = if self.rng.gen::<f64>() < 0.4 {
                    Self::pick_producer(&mut self.rng, &self.recent_load, lookback)
                } else {
                    None
                };
                let op = MicroOp::compute(seq, class, pc, s1, s2);
                Self::push_producer(&mut self.recent_int, seq);
                op
            }
            OpClass::FpAlu | OpClass::FpMul | OpClass::FpDiv => {
                let s1 = Self::pick_producer(&mut self.rng, &self.recent_fp, lookback);
                let s2 = if self.rng.gen::<f64>() < 0.5 {
                    Self::pick_producer(&mut self.rng, &self.recent_load, lookback)
                } else {
                    Self::pick_producer(&mut self.rng, &self.recent_fp, lookback)
                };
                let op = MicroOp::compute(seq, class, pc, s1, s2);
                Self::push_producer(&mut self.recent_fp, seq);
                op
            }
            OpClass::Load => {
                let addr = self.gen_addr();
                let s1 = Self::pick_producer(&mut self.rng, &self.recent_int, lookback);
                let op = MicroOp::mem(seq, OpClass::Load, pc, addr, s1);
                Self::push_producer(&mut self.recent_load, seq);
                op
            }
            OpClass::Store => {
                let addr = self.gen_addr();
                // Stores consume a value from whichever space is active.
                let fp_active = self.phases[self.phase_idx].mix.fp_fraction() > 0.05;
                let s1 = if fp_active && self.rng.gen::<f64>() < 0.5 {
                    Self::pick_producer(&mut self.rng, &self.recent_fp, lookback)
                } else {
                    Self::pick_producer(&mut self.rng, &self.recent_int, lookback)
                };
                MicroOp::mem(seq, OpClass::Store, pc, addr, s1)
            }
            OpClass::Branch => {
                let taken = self.gen_branch_outcome(pc);
                let s1 = Self::pick_producer(&mut self.rng, &self.recent_int, lookback);
                MicroOp::branch(seq, pc, taken, s1)
            }
        };
        Some(op)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::try_from(self.total_left).unwrap_or(usize::MAX);
        (n, Some(n))
    }
}

impl ExactSizeIterator for TraceGenerator {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;
    use std::collections::HashMap;

    fn spec(name: &str) -> BenchmarkSpec {
        registry::by_name(name).expect("benchmark exists")
    }

    #[test]
    fn generates_exactly_total_ops_with_dense_seqs() {
        let g = TraceGenerator::new(&spec("gzip"), 5_000, 1);
        let ops: Vec<_> = g.collect();
        assert_eq!(ops.len(), 5_000);
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(op.seq, i as u64);
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a: Vec<_> = TraceGenerator::new(&spec("swim"), 2_000, 7).collect();
        let b: Vec<_> = TraceGenerator::new(&spec("swim"), 2_000, 7).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<_> = TraceGenerator::new(&spec("swim"), 2_000, 7).collect();
        let b: Vec<_> = TraceGenerator::new(&spec("swim"), 2_000, 8).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn different_benchmarks_differ_with_same_seed() {
        let a: Vec<_> = TraceGenerator::new(&spec("gzip"), 2_000, 7).collect();
        let b: Vec<_> = TraceGenerator::new(&spec("mcf"), 2_000, 7).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn dependencies_point_backwards() {
        let ops: Vec<_> = TraceGenerator::new(&spec("applu"), 20_000, 3).collect();
        for op in &ops {
            for s in op.sources() {
                assert!(s < op.seq, "op {} depends on future op {}", op.seq, s);
            }
        }
    }

    #[test]
    fn mix_roughly_matches_phase_spec() {
        let s = spec("wupwise"); // single long fp phase
        let want = s.phases[0].mix;
        let ops: Vec<_> = TraceGenerator::new(&s, 100_000, 5).collect();
        let mut counts: HashMap<OpClass, u64> = HashMap::new();
        for op in &ops {
            *counts.entry(op.class).or_insert(0) += 1;
        }
        for &c in &OpClass::ALL {
            let got = *counts.get(&c).unwrap_or(&0) as f64 / ops.len() as f64;
            assert!(
                (got - want.fraction(c)).abs() < 0.01,
                "{c}: got {got:.4}, want {:.4}",
                want.fraction(c)
            );
        }
    }

    #[test]
    fn memory_ops_have_addresses_others_do_not() {
        let ops: Vec<_> = TraceGenerator::new(&spec("mcf"), 10_000, 2).collect();
        for op in &ops {
            assert_eq!(op.addr.is_some(), op.class.is_mem());
        }
    }

    #[test]
    fn branch_outcomes_mix_taken_and_not_taken() {
        let ops: Vec<_> = TraceGenerator::new(&spec("gcc"), 50_000, 11).collect();
        let branches: Vec<_> = ops.iter().filter(|o| o.class == OpClass::Branch).collect();
        assert!(!branches.is_empty());
        let taken = branches.iter().filter(|b| b.taken).count();
        assert!(taken > 0 && taken < branches.len());
    }

    #[test]
    fn non_looping_benchmark_stays_in_final_phase() {
        let s = spec("epic_decode");
        assert!(!s.loops);
        let total: u64 = s.phases.iter().map(|p| p.len_ops).sum();
        let mut g = TraceGenerator::new(&s, total + 10_000, 1);
        // Drain past the end of the phase list.
        for _ in 0..total + 5_000 {
            g.next().expect("trace long enough");
        }
        let last = s.phases.last().expect("has phases").name;
        assert_eq!(g.current_phase().name, last);
    }

    #[test]
    fn looping_benchmark_revisits_first_phase() {
        let s = spec("mpeg2_decode");
        assert!(s.loops);
        let cycle: u64 = s.phases.iter().map(|p| p.len_ops).sum();
        let mut g = TraceGenerator::new(&s, cycle * 2, 1);
        let first = g.current_phase().name;
        for _ in 0..cycle + 1 {
            g.next().expect("trace long enough");
        }
        assert_eq!(g.current_phase().name, first);
    }

    fn state_bytes(g: &TraceGenerator) -> Vec<u8> {
        let mut w = mcd_snap::SnapWriter::new();
        g.save_state(&mut w);
        w.into_bytes()
    }

    /// With every producer window wrapped past its capacity, a snapshot
    /// restores into a fresh generator that continues the identical op
    /// stream and re-serializes to the identical bytes.
    #[test]
    fn wrapped_windows_round_trip_through_a_snapshot() {
        let s = spec("wupwise");
        let mut g = TraceGenerator::new(&s, 40_000, 9);
        for _ in 0..20_000 {
            g.next().expect("trace long enough");
        }
        for window in [&g.recent_int, &g.recent_fp, &g.recent_load] {
            assert_eq!(window.len(), PRODUCER_WINDOW);
            assert!(window.iter().all(|&seq| seq >= PRODUCER_WINDOW as u64));
        }
        let bytes = state_bytes(&g);
        let mut restored = TraceGenerator::new(&s, 40_000, 9);
        restored
            .load_state(&mut mcd_snap::SnapReader::new(&bytes))
            .expect("round trip");
        assert_eq!(state_bytes(&restored), bytes);
        for i in 0..10_000 {
            assert_eq!(restored.next(), g.next(), "op {i} after restore");
        }
        assert_eq!(state_bytes(&restored), state_bytes(&g));
    }

    /// A blob whose RNG words are all zero (xoshiro's forbidden state) is a
    /// typed error, not a panic in `StdRng::from_state`.
    #[test]
    fn zeroed_rng_state_is_a_typed_error() {
        let s = spec("gzip");
        let mut g = TraceGenerator::new(&s, 1_000, 3);
        g.next();
        let mut bytes = state_bytes(&g);
        // Layout: the four RNG state words lead the blob.
        bytes[..32].fill(0);
        let err = TraceGenerator::new(&s, 1_000, 3)
            .load_state(&mut mcd_snap::SnapReader::new(&bytes))
            .expect_err("a zero RNG state must not restore");
        assert!(matches!(err, mcd_snap::SnapError::Mismatch(_)), "{err}");
    }

    #[test]
    fn size_hint_tracks_remaining() {
        let mut g = TraceGenerator::new(&spec("gzip"), 100, 1);
        assert_eq!(g.size_hint(), (100, Some(100)));
        g.next();
        assert_eq!(g.len(), 99);
    }
}
