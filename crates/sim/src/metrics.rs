//! Run-time trace recording (occupancy and frequency series).

use mcd_power::TimePs;

/// Why dispatch stopped in a front-end cycle (the first blocking reason,
/// since dispatch is in-order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// Reorder buffer full.
    RobFull,
    /// INT issue queue full.
    IntQueueFull,
    /// FP issue queue full.
    FpQueueFull,
    /// LS queue full.
    LsQueueFull,
    /// No free physical integer register.
    IntRegs,
    /// No free physical FP register.
    FpRegs,
}

impl StallCause {
    /// All causes, in reporting order.
    pub const ALL: [StallCause; 6] = [
        StallCause::RobFull,
        StallCause::IntQueueFull,
        StallCause::FpQueueFull,
        StallCause::LsQueueFull,
        StallCause::IntRegs,
        StallCause::FpRegs,
    ];

    /// Inverse of [`StallCause::index`], rejecting out-of-range values
    /// (the snapshot decoding).
    pub fn from_index(i: usize) -> Option<StallCause> {
        StallCause::ALL.get(i).copied()
    }

    /// Dense index for counter arrays.
    pub fn index(self) -> usize {
        match self {
            StallCause::RobFull => 0,
            StallCause::IntQueueFull => 1,
            StallCause::FpQueueFull => 2,
            StallCause::LsQueueFull => 3,
            StallCause::IntRegs => 4,
            StallCause::FpRegs => 5,
        }
    }
}

impl std::fmt::Display for StallCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StallCause::RobFull => "ROB full",
            StallCause::IntQueueFull => "INT queue full",
            StallCause::FpQueueFull => "FP queue full",
            StallCause::LsQueueFull => "LS queue full",
            StallCause::IntRegs => "INT registers",
            StallCause::FpRegs => "FP registers",
        })
    }
}

/// A point in a domain's frequency trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreqTracePoint {
    /// Sample time.
    pub time: TimePs,
    /// Relative frequency `f/f_max` at that time.
    pub rel_freq: f64,
}

/// Optional per-sample traces collected during a run.
///
/// Indices into the per-domain arrays follow
/// [`crate::config::DomainId::backend_index`]: 0 = INT, 1 = FP, 2 = LS.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Per-backend-domain queue occupancy, one `u8` per sampling period
    /// (empty when recording is disabled).
    pub occupancy: [Vec<u8>; 3],
    /// Per-backend-domain relative-frequency trace, one point per sampling
    /// period (empty when recording is disabled).
    pub frequency: [Vec<FreqTracePoint>; 3],
    /// Instructions retired as of each sampling period (recorded together
    /// with the frequency traces; Figure 7's x-axis is instructions).
    pub retired_trace: Vec<u64>,
    /// Sampling periods elapsed.
    pub samples: u64,
    /// DVFS actions started, per backend domain.
    pub dvfs_actions: [u64; 3],
    /// Running occupancy sums for cheap averages (always collected).
    pub occupancy_sum: [u64; 3],
    /// Dispatch-stall cycles by first blocking cause (indexed by
    /// [`StallCause::index`]; counted on front-end cycles where at least
    /// one instruction was waiting but none dispatched).
    pub dispatch_stalls: [u64; 6],
    /// Enqueues per backend domain whose visibility was pushed past the
    /// consumer's next clock edge by the synchronization interface (the
    /// inter-domain communication cost of Section 2).
    pub sync_enqueues: [u64; 3],
    /// Local cycles each backend domain spent settled at the lowest
    /// operating point.
    pub fmin_cycles: [u64; 3],
    /// Local cycles each backend domain spent settled at the highest
    /// operating point.
    pub fmax_cycles: [u64; 3],
    /// Time each backend domain's regulator spent slewing between
    /// operating points.
    pub transition_time_ps: [u64; 3],
    /// Time-delay relay arms per backend domain (both signals).
    pub relay_arms: [u64; 3],
    /// Time-delay relay firings per backend domain (both signals).
    pub relay_fires: [u64; 3],
    /// Time-delay relay resets per backend domain (both signals).
    pub relay_resets: [u64; 3],
    /// Upward frequency steps issued per backend domain.
    pub freq_steps_up: [u64; 3],
    /// Downward frequency steps issued per backend domain.
    pub freq_steps_down: [u64; 3],
    /// Sum of reaction times (deviation onset to the frequency step that
    /// answered it) per backend domain, in ps.
    pub reaction_sum_ps: [u64; 3],
    /// Number of reaction times accumulated per backend domain.
    pub reaction_count: [u64; 3],
    /// Queue-occupancy histograms per backend domain: `hist[d][q]` counts
    /// sampling periods that observed occupancy `q` (length capacity + 1;
    /// always collected — one add per sample).
    pub occupancy_hist: [Vec<u64>; 3],
    /// Events dispatched by the event-driven scheduler's main loop (clock
    /// edges of awake domains, samples, and domain wake-ups).
    pub events_processed: u64,
    /// Clock edges and sampling periods absorbed by steady-state replay
    /// or sample batching instead of the per-event path. The ratio
    /// `cycles_skipped / events_processed` is the event core's leverage
    /// on a given workload.
    pub cycles_skipped: u64,
}

impl Metrics {
    /// Total dispatch-stall cycles across all causes.
    pub fn total_dispatch_stalls(&self) -> u64 {
        self.dispatch_stalls.iter().sum()
    }

    /// Serializes every metric, including the full trace series, so a
    /// restored run continues appending to bit-identical history.
    pub fn save_state(&self, w: &mut mcd_snap::SnapWriter) {
        for d in 0..3 {
            w.put_seq(&self.occupancy[d], |w, &q| w.put_u8(q));
            w.put_seq(&self.frequency[d], |w, p| {
                w.put_u64(p.time.as_ps());
                w.put_f64(p.rel_freq);
            });
            w.put_seq(&self.occupancy_hist[d], |w, &n| w.put_u64(n));
        }
        w.put_seq(&self.retired_trace, |w, &n| w.put_u64(n));
        w.put_u64(self.samples);
        for arr in [
            &self.dvfs_actions,
            &self.occupancy_sum,
            &self.sync_enqueues,
            &self.fmin_cycles,
            &self.fmax_cycles,
            &self.transition_time_ps,
            &self.relay_arms,
            &self.relay_fires,
            &self.relay_resets,
            &self.freq_steps_up,
            &self.freq_steps_down,
            &self.reaction_sum_ps,
            &self.reaction_count,
        ] {
            for &v in arr.iter() {
                w.put_u64(v);
            }
        }
        for &v in &self.dispatch_stalls {
            w.put_u64(v);
        }
        w.put_u64(self.events_processed);
        w.put_u64(self.cycles_skipped);
    }

    /// Restores state captured by [`Metrics::save_state`].
    pub fn load_state(&mut self, r: &mut mcd_snap::SnapReader<'_>) -> mcd_snap::SnapResult<()> {
        for d in 0..3 {
            self.occupancy[d] = r.take_seq(|r| r.take_u8())?;
            self.frequency[d] = r.take_seq(|r| {
                Ok(FreqTracePoint {
                    time: TimePs::new(r.take_u64()?),
                    rel_freq: r.take_f64()?,
                })
            })?;
            self.occupancy_hist[d] = r.take_seq(|r| r.take_u64())?;
        }
        self.retired_trace = r.take_seq(|r| r.take_u64())?;
        self.samples = r.take_u64()?;
        for arr in [
            &mut self.dvfs_actions,
            &mut self.occupancy_sum,
            &mut self.sync_enqueues,
            &mut self.fmin_cycles,
            &mut self.fmax_cycles,
            &mut self.transition_time_ps,
            &mut self.relay_arms,
            &mut self.relay_fires,
            &mut self.relay_resets,
            &mut self.freq_steps_up,
            &mut self.freq_steps_down,
            &mut self.reaction_sum_ps,
            &mut self.reaction_count,
        ] {
            for v in arr.iter_mut() {
                *v = r.take_u64()?;
            }
        }
        for v in &mut self.dispatch_stalls {
            *v = r.take_u64()?;
        }
        self.events_processed = r.take_u64()?;
        self.cycles_skipped = r.take_u64()?;
        Ok(())
    }
}

impl Metrics {
    /// Mean queue occupancy of backend domain `idx` over the run.
    pub fn mean_occupancy(&self, idx: usize) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.occupancy_sum[idx] as f64 / self.samples as f64
        }
    }

    /// Occupancy series of backend domain `idx` as `f64` (for spectral
    /// analysis).
    pub fn occupancy_series(&self, idx: usize) -> Vec<f64> {
        self.occupancy[idx].iter().map(|&q| q as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_occupancy_handles_empty() {
        let m = Metrics::default();
        assert_eq!(m.mean_occupancy(0), 0.0);
    }

    #[test]
    fn mean_occupancy_divides_by_samples() {
        let m = Metrics {
            samples: 4,
            occupancy_sum: [8, 0, 2],
            ..Metrics::default()
        };
        assert_eq!(m.mean_occupancy(0), 2.0);
        assert_eq!(m.mean_occupancy(2), 0.5);
    }

    #[test]
    fn stall_causes_are_dense_and_displayable() {
        let mut seen = [false; 6];
        for &c in &StallCause::ALL {
            assert!(!seen[c.index()], "duplicate index for {c}");
            seen[c.index()] = true;
            assert!(!format!("{c}").is_empty());
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn total_dispatch_stalls_sums() {
        let m = Metrics {
            dispatch_stalls: [1, 2, 3, 4, 5, 6],
            ..Metrics::default()
        };
        assert_eq!(m.total_dispatch_stalls(), 21);
    }

    #[test]
    fn occupancy_series_converts_to_f64() {
        let mut m = Metrics::default();
        m.occupancy[1] = vec![1, 2, 3];
        assert_eq!(m.occupancy_series(1), vec![1.0, 2.0, 3.0]);
        assert!(m.occupancy_series(0).is_empty());
    }
}
