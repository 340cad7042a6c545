//! Output digests and the reference files they are checked against.
//!
//! A digest is FNV-1a over the bit patterns of a result (`f64` through
//! `to_bits`), so two results digest equal only when they are
//! bit-identical. The engine's own work counters (`events_processed`,
//! `cycles_skipped`) are deliberately left out: they measure how the
//! simulator got to the answer, not the answer, and a scheduling
//! optimisation may change them while every report stays byte-identical.
//! Structs are destructured exhaustively so a field added later fails to
//! compile here instead of silently escaping the digest.

use std::collections::HashMap;
use std::path::Path;

use mcd_power::EnergyBreakdown;
use mcd_sim::metrics::{FreqTracePoint, Metrics};
use mcd_sim::result::DomainResult;
use mcd_sim::{SimResult, TraceEvent};

/// Streaming FNV-1a, 64-bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds one integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds one float by its bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Folds a slice of integers, length first.
    pub fn u64s(&mut self, vs: &[u64]) -> &mut Self {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v);
        }
        self
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn energy(h: &mut Fnv, e: &EnergyBreakdown) {
    let EnergyBreakdown {
        clock,
        compute,
        memory,
        pipeline,
        leakage,
    } = e;
    for part in [clock, compute, memory, pipeline, leakage] {
        h.f64(part.as_joules());
    }
}

fn metrics(h: &mut Fnv, m: &Metrics) {
    let Metrics {
        occupancy,
        frequency,
        retired_trace,
        samples,
        dvfs_actions,
        occupancy_sum,
        dispatch_stalls,
        sync_enqueues,
        fmin_cycles,
        fmax_cycles,
        transition_time_ps,
        relay_arms,
        relay_fires,
        relay_resets,
        freq_steps_up,
        freq_steps_down,
        reaction_sum_ps,
        reaction_count,
        occupancy_hist,
        // Work counters of the event core, not model outputs.
        events_processed: _,
        cycles_skipped: _,
    } = m;
    for series in occupancy {
        h.u64(series.len() as u64).bytes(series);
    }
    for series in frequency {
        h.u64(series.len() as u64);
        for FreqTracePoint { time, rel_freq } in series {
            h.u64(time.as_ps()).f64(*rel_freq);
        }
    }
    h.u64s(retired_trace).u64(*samples);
    for counters in [
        dvfs_actions,
        occupancy_sum,
        sync_enqueues,
        fmin_cycles,
        fmax_cycles,
        transition_time_ps,
        relay_arms,
        relay_fires,
        relay_resets,
        freq_steps_up,
        freq_steps_down,
        reaction_sum_ps,
        reaction_count,
    ] {
        h.u64s(counters);
    }
    h.u64s(dispatch_stalls);
    for hist in occupancy_hist {
        h.u64s(hist);
    }
}

/// Digest of one simulation result (see the module docs for what is
/// covered).
pub fn sim_result(r: &SimResult) -> u64 {
    let SimResult {
        instructions,
        sim_time,
        domains,
        regulator_energy,
        metrics: m,
        queue_peaks,
        l1d_miss_rate,
        l2_miss_rate,
        mispredict_rate,
    } = r;
    let mut h = Fnv::default();
    h.u64(*instructions).u64(sim_time.as_ps());
    h.u64(domains.len() as u64);
    for d in domains {
        let DomainResult {
            domain,
            cycles,
            energy: e,
            mean_rel_freq,
            transitions,
        } = d;
        h.u64(domain.index() as u64).u64(*cycles);
        energy(&mut h, e);
        h.f64(*mean_rel_freq).u64(*transitions);
    }
    h.f64(regulator_energy.as_joules());
    metrics(&mut h, m);
    for &p in queue_peaks {
        h.u64(p as u64);
    }
    h.f64(*l1d_miss_rate)
        .f64(*l2_miss_rate)
        .f64(*mispredict_rate);
    h.finish()
}

/// Digest of an event stream in its canonical JSON-lines form — the
/// form `replay_episode` compares and `repro --trace-out` writes.
pub fn events(events: &[TraceEvent]) -> u64 {
    let mut h = Fnv::default();
    h.u64(events.len() as u64);
    for e in events {
        h.bytes(e.to_json().as_bytes());
    }
    h.finish()
}

/// Digest of a string.
pub fn text(s: &str) -> u64 {
    Fnv::default().bytes(s.as_bytes()).finish()
}

/// Reference digests: whitespace-separated lines `<seed> <key> <hex>...`,
/// `#` comments. Keyed by `(seed, key)`.
#[derive(Debug, Default)]
pub struct Reference {
    entries: HashMap<(u64, String), Vec<u64>>,
    /// Seeds present, ascending.
    pub seeds: Vec<u64>,
}

impl Reference {
    /// Loads a reference file.
    pub fn load(path: &Path) -> Result<Reference, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read reference {}: {e}", path.display()))?;
        let mut entries = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("{}:{}: malformed reference line", path.display(), n + 1);
            let mut fields = line.split_whitespace();
            let seed: u64 = fields.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
            let key = fields.next().ok_or_else(bad)?.to_string();
            let digests = fields
                .map(|f| u64::from_str_radix(f, 16).map_err(|_| bad()))
                .collect::<Result<Vec<u64>, String>>()?;
            entries.insert((seed, key), digests);
        }
        let mut seeds: Vec<u64> = entries.keys().map(|(s, _)| *s).collect();
        seeds.sort_unstable();
        seeds.dedup();
        if seeds.is_empty() {
            return Err(format!("reference {} is empty", path.display()));
        }
        Ok(Reference { entries, seeds })
    }

    /// The digests recorded for `(seed, key)`.
    pub fn get(&self, seed: u64, key: &str) -> Option<&[u64]> {
        self.entries
            .get(&(seed, key.to_string()))
            .map(Vec::as_slice)
    }
}

/// Renders one reference line.
pub fn reference_line(seed: u64, key: &str, digests: &[u64]) -> String {
    let hex: Vec<String> = digests.iter().map(|d| format!("{d:016x}")).collect();
    format!("{seed} {key} {}", hex.join(" "))
}
