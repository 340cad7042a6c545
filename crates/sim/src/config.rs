//! Simulator configuration (the paper's Table 1).

use mcd_power::{DomainClass, DvfsStyle, TimePs, VfCurve};

use crate::error::SimError;

/// Identity of one of the four on-chip clock domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainId {
    /// Fetch/decode/rename/dispatch/retire (fixed at maximum frequency).
    FrontEnd,
    /// Integer execution core.
    Int,
    /// Floating-point execution core.
    Fp,
    /// Load/store unit and on-chip caches.
    Ls,
}

impl DomainId {
    /// All four domains.
    pub const ALL: [DomainId; 4] = [
        DomainId::FrontEnd,
        DomainId::Int,
        DomainId::Fp,
        DomainId::Ls,
    ];

    /// The three DVFS-controlled back-end domains.
    pub const BACKEND: [DomainId; 3] = [DomainId::Int, DomainId::Fp, DomainId::Ls];

    /// Dense index (0..4) for array storage.
    pub fn index(self) -> usize {
        match self {
            DomainId::FrontEnd => 0,
            DomainId::Int => 1,
            DomainId::Fp => 2,
            DomainId::Ls => 3,
        }
    }

    /// Dense index among the back-end domains (0..3).
    ///
    /// # Panics
    ///
    /// Panics if called on [`DomainId::FrontEnd`].
    #[inline]
    pub fn backend_index(self) -> usize {
        match self {
            DomainId::FrontEnd => panic!("front end is not a back-end domain"),
            DomainId::Int => 0,
            DomainId::Fp => 1,
            DomainId::Ls => 2,
        }
    }

    /// The power-model class of this domain.
    pub fn class(self) -> DomainClass {
        match self {
            DomainId::FrontEnd => DomainClass::FrontEnd,
            DomainId::Int => DomainClass::Integer,
            DomainId::Fp => DomainClass::FloatingPoint,
            DomainId::Ls => DomainClass::LoadStore,
        }
    }
}

impl std::fmt::Display for DomainId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DomainId::FrontEnd => "front-end",
            DomainId::Int => "INT",
            DomainId::Fp => "FP",
            DomainId::Ls => "LS",
        })
    }
}

/// The inter-domain synchronization interface family (Section 2 of the
/// paper surveys both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncModel {
    /// Arbitration-based queues with a stoppable clock (Sjogren & Myers),
    /// as used by the Semeraro et al. MCD implementation: every transfer
    /// whose source and destination edges fall closer than the
    /// synchronization window waits for the next destination edge.
    Arbitration,
    /// Token-ring FIFOs: no synchronization cost while the FIFO is
    /// neither full nor empty; a transfer into an empty queue still pays
    /// the window before the consumer can see it.
    TokenRing,
}

/// Full machine configuration. Defaults reproduce the paper's Table 1.
///
/// This is a passive parameter record in the C-struct spirit: all fields
/// are public, and [`SimConfig::default`] is the authoritative Table 1
/// instance (`repro table1` prints it).
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Voltage/frequency operating range and step table
    /// (250 MHz–1.0 GHz, 0.65–1.20 V, 320 steps).
    pub vf_curve: VfCurve,
    /// DVFS transition semantics (XScale-style by default).
    pub dvfs_style: DvfsStyle,
    /// Queue-signal sampling period (250 MHz ⇒ 4 ns).
    pub sample_period: TimePs,
    /// Clock-jitter standard deviation; edges are clamped to ±3σ (±10 ps).
    pub jitter_sigma_ps: f64,
    /// Inter-domain synchronization window (300 ps).
    pub sync_window: TimePs,
    /// Synchronization interface family.
    pub sync_model: SyncModel,
    /// Fetch/decode width (instructions per front-end cycle).
    pub decode_width: u32,
    /// Per-domain issue width (instructions per back-end cycle).
    pub issue_width: u32,
    /// Retire width (instructions per front-end cycle).
    pub retire_width: u32,
    /// Reorder-buffer capacity.
    pub rob_size: usize,
    /// INT issue-queue capacity.
    pub int_queue: usize,
    /// FP issue-queue capacity.
    pub fp_queue: usize,
    /// LS queue capacity.
    pub ls_queue: usize,
    /// Physical integer registers.
    pub int_regs: usize,
    /// Physical floating-point registers.
    pub fp_regs: usize,
    /// Number of integer ALUs.
    pub int_alus: u32,
    /// Number of integer multiplier/divider units.
    pub int_muls: u32,
    /// Number of FP ALUs.
    pub fp_alus: u32,
    /// Number of FP multiply/divide/sqrt units.
    pub fp_muls: u32,
    /// Number of load/store ports.
    pub ls_ports: u32,
    /// L1 instruction cache size in bytes (64 KB, 2-way).
    pub l1i_bytes: usize,
    /// L1 instruction cache associativity.
    pub l1i_assoc: usize,
    /// L1 data cache size in bytes (64 KB, 2-way).
    pub l1d_bytes: usize,
    /// L1 data cache associativity.
    pub l1d_assoc: usize,
    /// Unified L2 size in bytes (1 MB, direct-mapped).
    pub l2_bytes: usize,
    /// L2 associativity (1 = direct-mapped).
    pub l2_assoc: usize,
    /// Cache line size in bytes.
    pub line_bytes: usize,
    /// L1 access latency in local cycles.
    pub l1_latency: u32,
    /// L2 access latency in LS-domain cycles.
    pub l2_latency: u32,
    /// Main-memory first-chunk latency (frequency independent).
    pub mem_first_chunk: TimePs,
    /// Main-memory inter-chunk latency (frequency independent).
    pub mem_inter_chunk: TimePs,
    /// Chunks per cache line transferred from memory.
    pub mem_chunks: u32,
    /// Branch-misprediction redirect penalty in front-end cycles (on top of
    /// waiting for the branch to resolve).
    pub mispredict_penalty: u32,
    /// Leakage-power scale (1.0 ≈ 0.18 µm technology; 0 disables static
    /// power; larger values model leakier processes).
    pub leakage_scale: f64,
    /// Master RNG seed for clock jitter.
    pub jitter_seed: u64,
    /// Record per-sample queue-occupancy traces (needed by the spectral
    /// analysis experiments; off by default to save memory).
    pub record_occupancy: bool,
    /// Record frequency traces (time, per-domain relative frequency).
    pub record_frequency: bool,
    /// Safety valve: abort if simulated time exceeds this bound.
    pub max_sim_time: TimePs,
    /// Debug/validation escape hatch: process every clock edge through the
    /// per-event path instead of sleeping domains through provably
    /// uneventful intervals (see `scheduler.rs`). Results are identical
    /// either way — the equivalence is property-tested — so this exists
    /// only to exercise the reference stepping path.
    pub cycle_stepping: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            vf_curve: VfCurve::mcd_default(),
            dvfs_style: DvfsStyle::XScale,
            sample_period: TimePs::from_ns(4), // 250 MHz
            jitter_sigma_ps: 10.0 / 3.0,
            sync_window: TimePs::new(300),
            sync_model: SyncModel::Arbitration,
            decode_width: 4,
            issue_width: 6,
            retire_width: 11,
            rob_size: 80,
            int_queue: 20,
            fp_queue: 16,
            ls_queue: 16,
            int_regs: 72,
            fp_regs: 72,
            int_alus: 4,
            int_muls: 1,
            fp_alus: 2,
            fp_muls: 1,
            ls_ports: 2,
            l1i_bytes: 64 * 1024,
            l1i_assoc: 2,
            l1d_bytes: 64 * 1024,
            l1d_assoc: 2,
            l2_bytes: 1024 * 1024,
            l2_assoc: 1,
            line_bytes: 64,
            l1_latency: 2,
            l2_latency: 12,
            mem_first_chunk: TimePs::from_ns(80),
            mem_inter_chunk: TimePs::from_ns(2),
            mem_chunks: 4,
            mispredict_penalty: 7,
            leakage_scale: 1.0,
            jitter_seed: 0x5eed,
            record_occupancy: false,
            record_frequency: false,
            max_sim_time: TimePs::from_us(2_000_000), // 2 s of simulated time
            cycle_stepping: false,
        }
    }
}

impl SimConfig {
    /// Structural validation: every width, capacity and latency the
    /// engine divides by or indexes with must be usable. Returns the
    /// first problem found, phrased for an error report.
    ///
    /// [`crate::Machine::try_new`] calls this, so a malformed
    /// configuration surfaces as [`SimError::InvalidConfig`] instead of a
    /// panic deep inside construction or the run loop.
    pub fn validate(&self) -> Result<(), SimError> {
        let bad = |why: String| Err(SimError::InvalidConfig(why));
        if self.decode_width == 0 || self.issue_width == 0 || self.retire_width == 0 {
            return bad(format!(
                "pipeline widths must be positive (decode {}, issue {}, retire {})",
                self.decode_width, self.issue_width, self.retire_width
            ));
        }
        if self.rob_size == 0 {
            return bad("reorder buffer needs at least one entry".into());
        }
        if self.int_queue == 0 || self.fp_queue == 0 || self.ls_queue == 0 {
            return bad(format!(
                "issue queues need at least one entry (INT {}, FP {}, LS {})",
                self.int_queue, self.fp_queue, self.ls_queue
            ));
        }
        if self.int_regs == 0 || self.fp_regs == 0 {
            return bad("register files need at least one physical register".into());
        }
        if self.int_alus == 0 || self.fp_alus == 0 || self.ls_ports == 0 {
            return bad("each domain needs at least one functional unit/port".into());
        }
        if self.line_bytes == 0 || !self.line_bytes.is_power_of_two() {
            return bad(format!(
                "cache line size must be a positive power of two, got {}",
                self.line_bytes
            ));
        }
        for (what, bytes, assoc) in [
            ("L1I", self.l1i_bytes, self.l1i_assoc),
            ("L1D", self.l1d_bytes, self.l1d_assoc),
            ("L2", self.l2_bytes, self.l2_assoc),
        ] {
            if assoc == 0 || bytes < self.line_bytes * assoc {
                return bad(format!(
                    "{what} cache of {bytes} B cannot hold {assoc} way(s) of {} B lines",
                    self.line_bytes
                ));
            }
        }
        if self.mem_chunks == 0 {
            return bad("memory transfers need at least one chunk per line".into());
        }
        if self.sample_period <= TimePs::ZERO {
            return bad("controller sample period must be positive".into());
        }
        if !self.jitter_sigma_ps.is_finite() || self.jitter_sigma_ps < 0.0 {
            return bad(format!(
                "jitter sigma must be finite and non-negative, got {}",
                self.jitter_sigma_ps
            ));
        }
        if !self.leakage_scale.is_finite() || self.leakage_scale < 0.0 {
            return bad(format!(
                "leakage scale must be finite and non-negative, got {}",
                self.leakage_scale
            ));
        }
        if self.max_sim_time <= TimePs::ZERO {
            return bad("max_sim_time must be positive (it is the livelock guard)".into());
        }
        Ok(())
    }

    /// Enables occupancy and frequency trace recording (used by the Figure
    /// 7/8 experiments).
    pub fn with_traces(mut self) -> Self {
        self.record_occupancy = true;
        self.record_frequency = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_power::Frequency;

    #[test]
    fn default_matches_table1() {
        let c = SimConfig::default();
        assert_eq!(c.vf_curve.min().frequency, Frequency::from_mhz(250.0));
        assert_eq!(c.vf_curve.max().frequency, Frequency::from_ghz(1.0));
        assert_eq!(c.sample_period, TimePs::from_ns(4));
        assert_eq!(c.sync_window.as_ps(), 300);
        assert_eq!(c.int_queue, 20);
        assert_eq!(c.fp_queue, 16);
        assert_eq!(c.ls_queue, 16);
        assert_eq!(c.rob_size, 80);
        assert_eq!(c.int_regs, 72);
        assert_eq!((c.decode_width, c.issue_width, c.retire_width), (4, 6, 11));
        assert_eq!(c.l1d_bytes, 65536);
        assert_eq!(c.l2_assoc, 1);
        assert_eq!(c.mem_first_chunk, TimePs::from_ns(80));
    }

    #[test]
    fn domain_indices_are_dense_and_distinct() {
        let mut seen = [false; 4];
        for &d in &DomainId::ALL {
            assert!(!seen[d.index()]);
            seen[d.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(DomainId::Int.backend_index(), 0);
        assert_eq!(DomainId::Ls.backend_index(), 2);
    }

    #[test]
    #[should_panic(expected = "not a back-end domain")]
    fn frontend_has_no_backend_index() {
        let _ = DomainId::FrontEnd.backend_index();
    }

    #[test]
    fn with_traces_enables_recording() {
        let c = SimConfig::default().with_traces();
        assert!(c.record_occupancy && c.record_frequency);
    }

    #[test]
    fn display_names() {
        assert_eq!(format!("{}", DomainId::Int), "INT");
        assert_eq!(format!("{}", DomainId::FrontEnd), "front-end");
    }
}
