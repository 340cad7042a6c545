//! What a workload run hands back, the statistics it is summarised
//! with, and the one JSON line the benchmark ends on.

use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed or produced wrong output.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub failures: Vec<String>,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Free-form lines printed before the result (host accounting,
    /// layer rows, exact counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one checked operation; `Err` names what went wrong.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.failures.push(why);
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Adds a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Prints the notes, the failures, a metric table, and — last — the
    /// result as one JSON object.
    pub fn print(&self) {
        for line in &self.notes {
            println!("{line}");
        }
        for why in self.failures.iter().take(20) {
            println!("FAILED: {why}");
        }
        if self.failures.len() > 20 {
            println!("FAILED: ... and {} more", self.failures.len() - 20);
        }
        println!(
            "failed_ratio {} ({} failed / {} attempted)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for m in &self.metrics {
            println!("{:<40} {:>18} {}", m.name, fmt_value(m.value), m.unit);
        }
        println!("{}", self.json());
    }

    fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_value(m.value),
                m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        )
    }
}

/// A JSON number with every digit `f64` carries (shortest round-trip).
/// Non-finite values cannot be measured results; they render as 0 and
/// are caught by the metric's own sanity checks upstream.
fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Median of `xs` (mean of the middle two for even lengths); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of `xs`; 0 if empty.
pub fn percentile(xs: &[f64], pct: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median over `windows` (passes, or slices of an open-loop window) of
/// each window's nearest-rank percentile; empty windows are skipped.
/// A burst of host noise then moves one window's figure, not the
/// reported one, the way a slow pass moves one `wall_s` sample.
pub fn windowed_percentile(windows: &[Vec<f64>], pct: f64) -> f64 {
    let per: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| percentile(w, pct))
        .collect();
    median(&per)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Seeded generator for the benchmark's own input choices (splitmix64).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// A seeded permutation of `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}
