//! Open-loop HTTP load generator for the `mcd-serve` service.
//!
//! The generator models *offered* load, not closed-loop request/reply
//! lockstep: arrivals follow a Poisson process at a fixed rate, each
//! arrival is stamped with its scheduled instant, and latency is
//! measured from that stamp to response completion — so queueing delay
//! inside the server (and inside the generator's own dispatch queue)
//! counts against the service, exactly as a production client would
//! experience it.
//!
//! Two phases exercise the two connection disciplines:
//!
//! * **keepalive** — a fixed pool of worker connections reuses sockets
//!   across requests (HTTP/1.1 default). The phase report's
//!   `reuse_ratio` (requests per connection opened) is the number the
//!   CI load gate holds at ≥ 5x.
//! * **oneshot** — every request opens a fresh connection and sends
//!   `Connection: close`, the pre-event-loop behavior, kept as the
//!   baseline the keep-alive discipline is measured against.
//!
//! Everything is deterministic given `--seed` except the latencies
//! themselves: arrivals come from a seeded LCG, run bodies cycle
//! through a fixed set of fingerprints, and the report is plain JSON
//! rendered with stable field order.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Connection discipline for a load phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Reuse a pool of persistent connections (HTTP/1.1 default).
    KeepAlive,
    /// One connection per request, `Connection: close` on the wire.
    OneShot,
}

impl Mode {
    /// Stable name used in reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            Mode::KeepAlive => "keepalive",
            Mode::OneShot => "oneshot",
        }
    }
}

/// One load phase's shape: where, how hard, for how long.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address.
    pub addr: SocketAddr,
    /// Offered load in requests per second (Poisson arrival rate).
    pub rate: f64,
    /// How long to generate arrivals for.
    pub duration: Duration,
    /// Worker (and, for keep-alive, connection-pool) size.
    pub connections: usize,
    /// Distinct run fingerprints to cycle through: the first pass
    /// through them executes, later passes replay the server's cache.
    pub distinct: u64,
    /// `ops` field of each run body.
    pub ops: u64,
    /// Arrival-process seed.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            addr: "127.0.0.1:7979".parse().expect("literal address"),
            rate: 200.0,
            duration: Duration::from_secs(10),
            connections: 8,
            distinct: 8,
            ops: 6000,
            seed: 1,
        }
    }
}

/// What one phase measured.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// The connection discipline, by [`Mode::name`].
    pub mode: &'static str,
    /// Requests completed (any HTTP status).
    pub requests: u64,
    /// 200 responses.
    pub ok: u64,
    /// 503 responses (the server's load-shed path).
    pub shed: u64,
    /// Other HTTP statuses — always a gate failure.
    pub unexpected_status: u64,
    /// Requests that died on a connection error.
    pub errors: u64,
    /// Of those, connection resets (RST while reading a response — the
    /// trap the shed path's drain-then-close exists to prevent).
    pub resets: u64,
    /// Connections opened over the phase.
    pub connections_opened: u64,
    /// `requests / connections_opened`.
    pub reuse_ratio: f64,
    /// Median open-loop latency, microseconds.
    pub p50_us: u64,
    /// Tail open-loop latency, microseconds.
    pub p99_us: u64,
    /// Worst observed latency, microseconds.
    pub max_us: u64,
    /// Offered arrival rate (configured).
    pub offered_rps: f64,
    /// Completed requests over the measured wall time.
    pub achieved_rps: f64,
    /// `shed / requests`.
    pub shed_rate: f64,
    /// Wall time from first arrival to last completion, seconds.
    pub wall_s: f64,
}

impl PhaseReport {
    /// One stable-order JSON object per phase.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"mode\": \"{}\", \"requests\": {}, \"ok\": {}, \"shed\": {}, \
             \"unexpected_status\": {}, \"errors\": {}, \"resets\": {}, \
             \"connections_opened\": {}, \"reuse_ratio\": {:.2}, \
             \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}, \
             \"offered_rps\": {:.1}, \"achieved_rps\": {:.1}, \
             \"shed_rate\": {:.4}, \"wall_s\": {:.3}}}",
            self.mode,
            self.requests,
            self.ok,
            self.shed,
            self.unexpected_status,
            self.errors,
            self.resets,
            self.connections_opened,
            self.reuse_ratio,
            self.p50_us,
            self.p99_us,
            self.max_us,
            self.offered_rps,
            self.achieved_rps,
            self.shed_rate,
            self.wall_s,
        )
    }
}

/// Renders the full record the CI gate consumes: the workload shape
/// plus one [`PhaseReport`] per phase, stable field order throughout.
pub fn render_record(cfg: &LoadConfig, phases: &[PhaseReport]) -> String {
    let rendered: Vec<String> = phases
        .iter()
        .map(|p| format!("    {}", p.to_json()))
        .collect();
    format!(
        "{{\n  \"rate_rps\": {:.1},\n  \"duration_s\": {:.1},\n  \
         \"connections\": {},\n  \
         \"workload\": {{\"experiment\": \"fig8\", \"ops\": {}, \"distinct\": {}}},\n  \
         \"phases\": [\n{}\n  ]\n}}\n",
        cfg.rate,
        cfg.duration.as_secs_f64(),
        cfg.connections,
        cfg.ops,
        cfg.distinct,
        rendered.join(",\n"),
    )
}

/// Percentile of an unsorted latency sample by rounded index: sorts in
/// place and returns the element at zero-based index
/// `round(pct/100 · (n − 1))`, with no interpolation. This is not
/// nearest-rank (rank `ceil(pct/100 · n)`): at n = 100 its p50 is the
/// 51st value, where nearest-rank takes the 50th. Returns 0 for an
/// empty sample.
pub fn percentile_us(samples: &mut [u64], pct: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((pct / 100.0) * (samples.len() - 1) as f64).round() as usize;
    samples[rank.min(samples.len() - 1)]
}

/// Deterministic 64-bit LCG (same constants as the simulator's
/// workload generators) with an exponential-variate helper for
/// Poisson inter-arrival gaps.
#[derive(Debug, Clone)]
pub struct Lcg {
    state: u64,
}

impl Lcg {
    /// Seeds the generator; seed 0 is remapped to a fixed constant.
    pub fn new(seed: u64) -> Lcg {
        Lcg {
            state: if seed == 0 { 0x9e3779b97f4a7c15 } else { seed },
        }
    }

    /// Next raw 64-bit state.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.state
    }

    /// Uniform in (0, 1] — never 0, so `ln` below is always finite.
    pub fn next_unit(&mut self) -> f64 {
        let mantissa = (self.next_u64() >> 11) as f64;
        (mantissa + 1.0) / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap for a Poisson process at `rate`
    /// events per second.
    pub fn next_gap(&mut self, rate: f64) -> Duration {
        let gap_s = -self.next_unit().ln() / rate.max(1e-9);
        Duration::from_secs_f64(gap_s.min(60.0))
    }
}

/// The run body for the `n`-th request: `distinct` fingerprints cycle,
/// so the steady state exercises the cache/coalesce read path while
/// the first pass through the cycle costs real simulation work.
pub fn body_for(n: u64, cfg: &LoadConfig) -> String {
    format!(
        "{{\"experiment\": \"fig8\", \"ops\": {}, \"seed\": {}}}",
        cfg.ops,
        n % cfg.distinct.max(1)
    )
}

/// How one request ended.
enum Fate {
    Status(u16, bool),
    ConnError(std::io::Error),
}

/// A minimal blocking HTTP/1.1 client over one socket, framing
/// responses by `Content-Length`.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    served: u64,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: Vec::new(),
            served: 0,
        })
    }

    /// Sends one `POST /run` and reads the reply. Returns the status
    /// and whether the server is closing the connection.
    fn exchange(&mut self, body: &str, close: bool) -> std::io::Result<(u16, bool)> {
        let connection = if close { "Connection: close\r\n" } else { "" };
        let wire = format!(
            "POST /run HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n{connection}\r\n{body}",
            body.len()
        );
        self.stream.write_all(wire.as_bytes())?;
        let head = self.read_until_blank()?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(ErrorKind::InvalidData, format!("bad status line: {head:?}"))
            })?;
        let len: usize = header_value(&head, "content-length")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "missing Content-Length"))?;
        self.read_exact_buffered(len)?;
        let closing =
            header_value(&head, "connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
        self.served += 1;
        Ok((status, closing))
    }

    fn fill(&mut self) -> std::io::Result<usize> {
        let mut chunk = [0u8; 8192];
        let n = self.stream.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    fn read_until_blank(&mut self) -> std::io::Result<String> {
        loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head: Vec<u8> = self.buf.drain(..pos + 4).collect();
                return Ok(String::from_utf8_lossy(&head).into_owned());
            }
            if self.fill()? == 0 {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "connection closed before response head",
                ));
            }
        }
    }

    fn read_exact_buffered(&mut self, n: usize) -> std::io::Result<()> {
        while self.buf.len() < n {
            if self.fill()? == 0 {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
        }
        self.buf.drain(..n);
        Ok(())
    }
}

fn header_value(head: &str, wanted: &str) -> Option<String> {
    head.lines().find_map(|l| {
        let (name, value) = l.split_once(':')?;
        if name.trim().eq_ignore_ascii_case(wanted) {
            Some(value.trim().to_string())
        } else {
            None
        }
    })
}

struct WorkerTally {
    latencies_us: Vec<u64>,
    ok: u64,
    shed: u64,
    unexpected: u64,
    errors: u64,
    resets: u64,
    opened: u64,
    last_done: Option<Instant>,
}

/// Runs one phase: a scheduler thread emits Poisson-stamped arrivals,
/// `cfg.connections` workers consume them over the chosen connection
/// discipline, and the merged tallies become the [`PhaseReport`].
pub fn run_phase(cfg: &LoadConfig, mode: Mode) -> PhaseReport {
    let (tx, rx) = mpsc::channel::<Instant>();
    let rx = Arc::new(Mutex::new(rx));
    let request_no = Arc::new(AtomicU64::new(0));
    let started = Instant::now();

    let workers: Vec<_> = (0..cfg.connections.max(1))
        .map(|_| {
            let rx = Arc::clone(&rx);
            let request_no = Arc::clone(&request_no);
            let cfg = cfg.clone();
            std::thread::spawn(move || worker_loop(&cfg, mode, &rx, &request_no))
        })
        .collect();

    // Scheduler: absolute deadlines keep the offered rate honest even
    // when individual sleeps overshoot.
    let mut lcg = Lcg::new(cfg.seed);
    let mut next = Instant::now();
    let phase_end = next + cfg.duration;
    while next < phase_end {
        let now = Instant::now();
        if next > now {
            std::thread::sleep(next - now);
        }
        if tx.send(next).is_err() {
            break;
        }
        next += lcg.next_gap(cfg.rate);
    }
    drop(tx);

    let mut merged = WorkerTally {
        latencies_us: Vec::new(),
        ok: 0,
        shed: 0,
        unexpected: 0,
        errors: 0,
        resets: 0,
        opened: 0,
        last_done: None,
    };
    for w in workers {
        let t = w.join().expect("load worker panicked");
        merged.latencies_us.extend(t.latencies_us);
        merged.ok += t.ok;
        merged.shed += t.shed;
        merged.unexpected += t.unexpected;
        merged.errors += t.errors;
        merged.resets += t.resets;
        merged.opened += t.opened;
        merged.last_done = match (merged.last_done, t.last_done) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    let requests = merged.latencies_us.len() as u64;
    let wall_s = merged
        .last_done
        .map(|t| (t - started).as_secs_f64())
        .unwrap_or(0.0)
        .max(1e-9);
    let p50 = percentile_us(&mut merged.latencies_us, 50.0);
    let p99 = percentile_us(&mut merged.latencies_us, 99.0);
    let max = merged.latencies_us.last().copied().unwrap_or(0);
    PhaseReport {
        mode: mode.name(),
        requests,
        ok: merged.ok,
        shed: merged.shed,
        unexpected_status: merged.unexpected,
        errors: merged.errors,
        resets: merged.resets,
        connections_opened: merged.opened,
        reuse_ratio: requests as f64 / merged.opened.max(1) as f64,
        p50_us: p50,
        p99_us: p99,
        max_us: max,
        offered_rps: cfg.rate,
        achieved_rps: requests as f64 / wall_s,
        shed_rate: merged.shed as f64 / requests.max(1) as f64,
        wall_s,
    }
}

fn worker_loop(
    cfg: &LoadConfig,
    mode: Mode,
    rx: &Mutex<mpsc::Receiver<Instant>>,
    request_no: &AtomicU64,
) -> WorkerTally {
    let mut tally = WorkerTally {
        latencies_us: Vec::new(),
        ok: 0,
        shed: 0,
        unexpected: 0,
        errors: 0,
        resets: 0,
        opened: 0,
        last_done: None,
    };
    let mut conn: Option<Client> = None;
    loop {
        // Hold the lock only to receive; the exchange happens outside.
        let scheduled = match rx.lock().expect("receiver lock").recv() {
            Ok(t) => t,
            Err(_) => break,
        };
        let n = request_no.fetch_add(1, Ordering::Relaxed);
        let body = body_for(n, cfg);
        let close = mode == Mode::OneShot;
        match attempt(cfg, &mut conn, &mut tally.opened, &body, close) {
            Fate::Status(status, closing) => {
                let done = Instant::now();
                tally.latencies_us.push(
                    done.duration_since(scheduled)
                        .as_micros()
                        .min(u64::MAX as u128) as u64,
                );
                tally.last_done = Some(done);
                match status {
                    200 => tally.ok += 1,
                    503 => tally.shed += 1,
                    _ => tally.unexpected += 1,
                }
                if closing || close {
                    conn = None;
                }
            }
            Fate::ConnError(e) => {
                tally.errors += 1;
                if matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::BrokenPipe) {
                    tally.resets += 1;
                }
                conn = None;
            }
        }
    }
    tally
}

/// One request attempt. A send on a pooled connection that the server
/// has since closed (idle deadline, earlier shed) fails fast — that is
/// the normal keep-alive stale-socket race, so it retries once on a
/// fresh connection before counting anything as an error.
fn attempt(
    cfg: &LoadConfig,
    conn: &mut Option<Client>,
    opened: &mut u64,
    body: &str,
    close: bool,
) -> Fate {
    for retry in 0..2 {
        let reused = conn.is_some();
        let client = match conn {
            Some(c) => c,
            None => match Client::connect(cfg.addr) {
                Ok(c) => {
                    *opened += 1;
                    conn.insert(c)
                }
                Err(e) => return Fate::ConnError(e),
            },
        };
        match client.exchange(body, close) {
            Ok((status, closing)) => return Fate::Status(status, closing),
            Err(e) => {
                *conn = None;
                if reused && retry == 0 {
                    continue; // stale pooled socket: one fresh retry
                }
                return Fate::ConnError(e);
            }
        }
    }
    unreachable!("attempt loop returns within two iterations")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_take_the_rounded_index() {
        let mut v: Vec<u64> = (1..=100).collect();
        // round(0.5 * 99) = 50, zero-indexed into 1..=100 → 51.
        assert_eq!(percentile_us(&mut v, 50.0), 51);
        assert_eq!(percentile_us(&mut v, 99.0), 99);
        assert_eq!(percentile_us(&mut v, 100.0), 100);
        assert_eq!(percentile_us(&mut [], 99.0), 0);
        assert_eq!(percentile_us(&mut [7], 50.0), 7);
    }

    #[test]
    fn lcg_is_deterministic_and_gaps_are_positive() {
        let mut a = Lcg::new(42);
        let mut b = Lcg::new(42);
        for _ in 0..1000 {
            let u = a.next_unit();
            assert!(u > 0.0 && u <= 1.0, "unit variate out of range: {u}");
            assert_eq!(a.state, {
                b.next_unit();
                b.state
            });
        }
        let mut gaps = Lcg::new(7);
        let mean: f64 = (0..10_000)
            .map(|_| gaps.next_gap(100.0).as_secs_f64())
            .sum::<f64>()
            / 10_000.0;
        assert!(
            (mean - 0.01).abs() < 0.002,
            "mean inter-arrival at 100 rps should be ~10ms, got {mean}"
        );
    }

    #[test]
    fn bodies_cycle_through_distinct_fingerprints() {
        let cfg = LoadConfig {
            distinct: 3,
            ops: 500,
            ..LoadConfig::default()
        };
        assert_eq!(body_for(0, &cfg), body_for(3, &cfg));
        assert_ne!(body_for(0, &cfg), body_for(1, &cfg));
        assert!(body_for(2, &cfg).contains("\"ops\": 500"));
    }

    #[test]
    fn record_renders_every_gated_field() {
        let cfg = LoadConfig::default();
        let phase = PhaseReport {
            mode: "keepalive",
            requests: 10,
            ok: 9,
            shed: 1,
            unexpected_status: 0,
            errors: 0,
            resets: 0,
            connections_opened: 2,
            reuse_ratio: 5.0,
            p50_us: 1000,
            p99_us: 9000,
            max_us: 12000,
            offered_rps: 200.0,
            achieved_rps: 190.0,
            shed_rate: 0.1,
            wall_s: 1.0,
        };
        let record = render_record(&cfg, &[phase]);
        for field in [
            "\"rate_rps\"",
            "\"phases\"",
            "\"mode\"",
            "\"p50_us\"",
            "\"p99_us\"",
            "\"shed_rate\"",
            "\"reuse_ratio\"",
            "\"errors\"",
            "\"resets\"",
            "\"achieved_rps\"",
        ] {
            assert!(record.contains(field), "missing {field} in {record}");
        }
    }
}
