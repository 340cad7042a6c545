//! Prometheus text-exposition rendering and a format lint.
//!
//! [`PromText`] builds a `text/plain; version=0.0.4` page one metric
//! *family* at a time: each [`PromText::counter`] / [`gauge`] /
//! [`histogram`] call writes the `# HELP` / `# TYPE` header and returns
//! a writer for that family's samples, so all samples of a family are
//! contiguous (the exposition format requires uninterrupted groups).
//!
//! [`lint`] is the other half of the contract: it re-parses a rendered
//! page and rejects anything a Prometheus scraper would choke on —
//! invalid UTF-8, samples without a preceding `# TYPE`, `# TYPE`
//! without `# HELP`, bad metric/label names, broken label escaping,
//! non-monotone histogram `le` bounds, or a missing `+Inf` bucket. CI
//! runs it against the live `/metrics` page.
//!
//! [`gauge`]: PromText::gauge
//! [`histogram`]: PromText::histogram

use crate::histogram::HistogramSnapshot;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;

/// Content-Type value for the text exposition format.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Escapes a label value: backslash, double quote, and newline.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders a finite f64 the way Prometheus expects (shortest
/// round-trip form; integral values print without a trailing `.0`).
fn fmt_value(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn write_sample(buf: &mut String, name: &str, labels: &[(&str, &str)], value: &str) {
    buf.push_str(name);
    if !labels.is_empty() {
        buf.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            let _ = write!(buf, "{k}=\"{}\"", escape_label(v));
        }
        buf.push('}');
    }
    buf.push(' ');
    buf.push_str(value);
    buf.push('\n');
}

/// A Prometheus text-exposition page under construction.
#[derive(Debug, Default)]
pub struct PromText {
    buf: String,
}

impl PromText {
    /// An empty page.
    pub fn new() -> PromText {
        PromText::default()
    }

    fn header(&mut self, name: &str, kind: &str, help: &str) {
        debug_assert!(valid_metric_name(name), "bad metric name {name}");
        // HELP text escapes backslash and newline (not quotes).
        let help = help.replace('\\', "\\\\").replace('\n', "\\n");
        let _ = writeln!(self.buf, "# HELP {name} {help}");
        let _ = writeln!(self.buf, "# TYPE {name} {kind}");
    }

    /// Starts a counter family; write each labelled series through the
    /// returned writer before starting the next family.
    pub fn counter<'a>(&'a mut self, name: &'a str, help: &str) -> Family<'a> {
        self.header(name, "counter", help);
        Family { page: self, name }
    }

    /// Starts a gauge family.
    pub fn gauge<'a>(&'a mut self, name: &'a str, help: &str) -> Family<'a> {
        self.header(name, "gauge", help);
        Family { page: self, name }
    }

    /// Starts a histogram family; each labelled series renders the
    /// snapshot's occupied buckets as cumulative `_bucket{le=...}`
    /// samples plus `_sum` and `_count`.
    pub fn histogram<'a>(&'a mut self, name: &'a str, help: &str) -> HistogramFamily<'a> {
        self.header(name, "histogram", help);
        HistogramFamily { page: self, name }
    }

    /// The finished page.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Sample writer for one counter or gauge family.
#[derive(Debug)]
pub struct Family<'a> {
    page: &'a mut PromText,
    name: &'a str,
}

impl Family<'_> {
    /// Writes one integer-valued series.
    pub fn sample(&mut self, labels: &[(&str, &str)], value: u64) -> &mut Self {
        write_sample(&mut self.page.buf, self.name, labels, &value.to_string());
        self
    }
}

/// Sample writer for one histogram family.
#[derive(Debug)]
pub struct HistogramFamily<'a> {
    page: &'a mut PromText,
    name: &'a str,
}

impl HistogramFamily<'_> {
    /// Renders `snap` as one labelled series. `scale` converts recorded
    /// (integer) values into exposition units — e.g. a histogram
    /// recording microseconds renders in seconds with `scale = 1e-6`.
    /// Empty snapshots still emit `+Inf`/`_sum`/`_count` so the series
    /// exists from the first scrape.
    pub fn series(
        &mut self,
        labels: &[(&str, &str)],
        snap: &HistogramSnapshot,
        scale: f64,
    ) -> &mut Self {
        let bucket = format!("{}_bucket", self.name);
        let mut cumulative = 0u64;
        for (upper, count) in snap.occupied() {
            cumulative += count;
            let le = fmt_value(upper as f64 * scale);
            let mut with_le = labels.to_vec();
            with_le.push(("le", &le));
            write_sample(
                &mut self.page.buf,
                &bucket,
                &with_le,
                &cumulative.to_string(),
            );
        }
        let mut with_le = labels.to_vec();
        with_le.push(("le", "+Inf"));
        write_sample(
            &mut self.page.buf,
            &bucket,
            &with_le,
            &snap.count().to_string(),
        );
        write_sample(
            &mut self.page.buf,
            &format!("{}_sum", self.name),
            labels,
            &fmt_value(snap.sum() as f64 * scale),
        );
        write_sample(
            &mut self.page.buf,
            &format!("{}_count", self.name),
            labels,
            &snap.count().to_string(),
        );
        self
    }
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// One parsed sample line.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
    line_no: usize,
}

/// Parses `name{k="v",...} value`, validating names and escapes.
fn parse_sample(line: &str, line_no: usize) -> Result<Sample, String> {
    let err = |msg: &str| format!("line {line_no}: {msg}: {line:?}");
    let name_end = line
        .find(|c: char| c == '{' || c.is_whitespace())
        .ok_or_else(|| err("no value"))?;
    let name = &line[..name_end];
    if !valid_metric_name(name) {
        return Err(err("invalid metric name"));
    }
    let mut labels = Vec::new();
    let rest = &line[name_end..];
    let rest = if let Some(body) = rest.strip_prefix('{') {
        let mut chars = body.char_indices();
        // The loop breaks with the byte index of the closing `}`.
        let consumed = 'series: loop {
            // Either `}` (end) or a `key="value"` pair.
            let mut key = String::new();
            for (i, c) in chars.by_ref() {
                match c {
                    '}' if key.is_empty() && labels.is_empty() => break 'series i,
                    '=' => break,
                    c => key.push(c),
                }
            }
            if !valid_label_name(key.trim()) {
                return Err(err("invalid label name"));
            }
            let key = key.trim().to_string();
            if !matches!(chars.next(), Some((_, '"'))) {
                return Err(err("label value not quoted"));
            }
            let mut value = String::new();
            let mut closed = false;
            while let Some((_, c)) = chars.next() {
                match c {
                    '"' => {
                        closed = true;
                        break;
                    }
                    '\\' => match chars.next() {
                        Some((_, '\\')) => value.push('\\'),
                        Some((_, '"')) => value.push('"'),
                        Some((_, 'n')) => value.push('\n'),
                        _ => return Err(err("invalid escape in label value")),
                    },
                    '\n' => return Err(err("raw newline in label value")),
                    c => value.push(c),
                }
            }
            if !closed {
                return Err(err("unterminated label value"));
            }
            labels.push((key, value));
            match chars.next() {
                Some((_, ',')) => continue,
                Some((i, '}')) => break 'series i,
                _ => return Err(err("expected , or } after label")),
            }
        };
        &body[consumed + 1..]
    } else {
        rest
    };
    let value_str = rest.trim();
    if value_str.is_empty() {
        return Err(err("no value"));
    }
    // Prometheus accepts Go-style floats plus +Inf/-Inf/NaN.
    let value = match value_str {
        "+Inf" | "Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        s => s
            .parse::<f64>()
            .map_err(|_| err("value does not parse as a number"))?,
    };
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
        line_no,
    })
}

/// Base family name for a sample: strips `_bucket`/`_sum`/`_count` when
/// the stripped name was declared as a histogram.
fn family_of<'a>(name: &'a str, types: &HashMap<String, String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                return base;
            }
        }
    }
    name
}

/// Validates a text-exposition page. Returns `Err` with a line-numbered
/// message on the first violation: invalid UTF-8, unknown or duplicate
/// `# TYPE`, `# TYPE` without preceding `# HELP`, samples without a
/// `# TYPE`, samples interleaving another family's group, invalid
/// metric/label names or escapes, unparsable values, non-monotone or
/// non-cumulative histogram `le` buckets, a missing `+Inf` bucket, or a
/// `_count` that disagrees with the `+Inf` bucket.
pub fn lint(page: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(page).map_err(|e| format!("page is not UTF-8: {e}"))?;
    let mut helped: HashSet<String> = HashSet::new();
    let mut types: HashMap<String, String> = HashMap::new();
    let mut current_family: Option<String> = None;
    // (family, non-le labels) → histogram series accumulator.
    type SeriesKey = (String, Vec<(String, String)>);
    let mut hist_series: BTreeMap<SeriesKey, HistSeries> = BTreeMap::new();

    #[derive(Default)]
    struct HistSeries {
        buckets: Vec<(f64, f64)>, // (le, cumulative count)
        count: Option<f64>,
        first_line: usize,
    }

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("HELP ") {
                let name = rest.split_whitespace().next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err(format!("line {line_no}: HELP for invalid name {name:?}"));
                }
                helped.insert(name.to_string());
            } else if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err(format!("line {line_no}: TYPE for invalid name {name:?}"));
                }
                if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                    return Err(format!("line {line_no}: unknown TYPE {kind:?} for {name}"));
                }
                if types.insert(name.to_string(), kind.to_string()).is_some() {
                    return Err(format!("line {line_no}: duplicate TYPE for {name}"));
                }
                if !helped.contains(name) {
                    return Err(format!(
                        "line {line_no}: TYPE {name} without preceding HELP"
                    ));
                }
                current_family = Some(name.to_string());
            }
            // Other comments are legal and ignored.
            continue;
        }

        let sample = parse_sample(line, line_no)?;
        let family = family_of(&sample.name, &types).to_string();
        let Some(kind) = types.get(&family) else {
            return Err(format!(
                "line {line_no}: sample {} without a # TYPE",
                sample.name
            ));
        };
        if current_family.as_deref() != Some(family.as_str()) {
            return Err(format!(
                "line {line_no}: sample {} interleaves another family's group",
                sample.name
            ));
        }
        for (k, _) in &sample.labels {
            if k == "le" && kind == "histogram" && sample.name.ends_with("_bucket") {
                continue;
            }
            if !valid_label_name(k) {
                return Err(format!("line {line_no}: invalid label name {k:?}"));
            }
        }

        if kind == "histogram" {
            let mut labels = sample.labels.clone();
            let le = labels
                .iter()
                .position(|(k, _)| k == "le")
                .map(|i| labels.remove(i).1);
            labels.sort();
            let key = (family.clone(), labels);
            let series = hist_series.entry(key).or_default();
            if series.first_line == 0 {
                series.first_line = sample.line_no;
            }
            if sample.name.ends_with("_bucket") {
                let Some(le) = le else {
                    return Err(format!("line {line_no}: _bucket sample without le label"));
                };
                let le = match le.as_str() {
                    "+Inf" => f64::INFINITY,
                    s => s
                        .parse::<f64>()
                        .map_err(|_| format!("line {line_no}: unparsable le {s:?}"))?,
                };
                series.buckets.push((le, sample.value));
            } else if sample.name.ends_with("_count") {
                series.count = Some(sample.value);
            }
        }
    }

    for ((family, labels), series) in &hist_series {
        let at = series.first_line;
        let mut prev: Option<(f64, f64)> = None;
        for &(le, cum) in &series.buckets {
            if let Some((ple, pcum)) = prev {
                if le <= ple {
                    return Err(format!(
                        "histogram {family} {labels:?} (line {at}): le not strictly increasing ({ple} then {le})"
                    ));
                }
                if cum < pcum {
                    return Err(format!(
                        "histogram {family} {labels:?} (line {at}): bucket counts not cumulative"
                    ));
                }
            }
            prev = Some((le, cum));
        }
        match prev {
            Some((le, cum)) if le == f64::INFINITY => {
                if let Some(count) = series.count {
                    if count != cum {
                        return Err(format!(
                            "histogram {family} {labels:?} (line {at}): _count {count} != +Inf bucket {cum}"
                        ));
                    }
                }
            }
            _ => {
                return Err(format!(
                    "histogram {family} {labels:?} (line {at}): missing +Inf bucket"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;

    fn page_with_histogram() -> String {
        let h = Histogram::new();
        for v in [3u64, 90, 90, 4000] {
            h.record(v);
        }
        let mut page = PromText::new();
        page.counter("mcd_requests_total", "Requests by outcome.")
            .sample(&[("outcome", "ok")], 7)
            .sample(&[("outcome", "shed")], 2);
        page.gauge("mcd_queue_depth", "Worker queue depth.")
            .sample(&[], 3);
        page.histogram("mcd_latency_seconds", "Request latency.")
            .series(&[("endpoint", "run")], &h.snapshot(), 1e-6);
        page.finish()
    }

    #[test]
    fn rendered_page_passes_lint() {
        let page = page_with_histogram();
        lint(page.as_bytes()).unwrap_or_else(|e| panic!("lint failed: {e}\n{page}"));
        assert!(page.contains("# TYPE mcd_requests_total counter"));
        assert!(page.contains("mcd_requests_total{outcome=\"ok\"} 7"));
        assert!(page.contains("le=\"+Inf\"} 4"));
        assert!(page.contains("mcd_latency_seconds_count{endpoint=\"run\"} 4"));
    }

    #[test]
    fn empty_histogram_series_still_valid() {
        let mut page = PromText::new();
        page.histogram("mcd_empty_seconds", "Never recorded.")
            .series(&[], &Histogram::new().snapshot(), 1.0);
        let page = page.finish();
        lint(page.as_bytes()).unwrap();
        assert!(page.contains("mcd_empty_seconds_bucket{le=\"+Inf\"} 0"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut page = PromText::new();
        page.counter("mcd_odd_total", "Odd labels.")
            .sample(&[("path", "a\\b\"c\nd")], 1);
        let page = page.finish();
        lint(page.as_bytes()).unwrap();
        assert!(page.contains("path=\"a\\\\b\\\"c\\nd\""));
    }

    #[test]
    fn lint_rejects_missing_type() {
        assert!(lint(b"mcd_orphan_total 1\n").is_err());
    }

    #[test]
    fn lint_rejects_type_without_help() {
        assert!(lint(b"# TYPE mcd_x counter\nmcd_x 1\n").is_err());
    }

    #[test]
    fn lint_rejects_non_monotone_le() {
        let page = "\
# HELP mcd_h x
# TYPE mcd_h histogram
mcd_h_bucket{le=\"2\"} 1
mcd_h_bucket{le=\"1\"} 2
mcd_h_bucket{le=\"+Inf\"} 2
mcd_h_count 2
";
        assert!(lint(page.as_bytes()).is_err());
    }

    #[test]
    fn lint_rejects_missing_inf_bucket() {
        let page = "\
# HELP mcd_h x
# TYPE mcd_h histogram
mcd_h_bucket{le=\"1\"} 1
mcd_h_count 1
";
        assert!(lint(page.as_bytes()).is_err());
    }

    #[test]
    fn lint_rejects_interleaved_families() {
        let page = "\
# HELP mcd_a x
# TYPE mcd_a counter
# HELP mcd_b x
# TYPE mcd_b counter
mcd_a 1
";
        assert!(lint(page.as_bytes()).is_err());
    }

    #[test]
    fn lint_rejects_bad_escape() {
        assert!(lint(b"# HELP mcd_a x\n# TYPE mcd_a counter\nmcd_a{l=\"\\q\"} 1\n").is_err());
    }

    #[test]
    fn lint_rejects_invalid_utf8() {
        assert!(lint(&[0xff, 0xfe]).is_err());
    }
}
