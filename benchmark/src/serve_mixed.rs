//! `serve-mixed`: open-loop traffic against an in-process `mcd-serve`
//! server. Arrivals are a Poisson process at a fixed rate, each request
//! stamped at its scheduled send; about nine in ten bodies cycle over a
//! hot set of `fig8` fingerprints (cache hits after warm-up) and the rest
//! carry a fresh seed (a miss that simulates and then fills the cache).
//!
//! The HTTP event loop and cache reads set the median; the miss path —
//! pool, coalescer, a `RunSet` per request, machine build, engine — sets
//! the tail.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mcd_bench::{RunConfig, RunSet};
use mcd_serve::{ServeConfig, Server, ServerHandle};

use crate::digest::{self, Reference};
use crate::layers::{finish_traced, LayerMetrics};
use crate::measure::{check_host, timed_setups};
use crate::report::{median, percentile, ratio, windowed_percentile, Outcome, Rng};
use crate::spans::{self, Breakdown, Layer};
use crate::{host, Args};

/// Offered load, requests per second.
const RATE_RPS: f64 = 200.0;
/// Hot fingerprints the bulk of the traffic cycles over.
const HOT: usize = 8;
/// Every this many requests, one carries a fresh seed (10 %). Spacing
/// the misses evenly over the Poisson arrivals, instead of drawing them
/// independently, keeps the run-to-run spread of the tail down to what
/// the server does rather than to how the draw happened to cluster.
const MISS_EVERY: usize = 10;
/// `ops` of every `fig8` body.
const OPS: u64 = 6_000;
/// Latency limit for goodput: about five times the unloaded miss
/// median on the reference host.
const LIMIT_MS: f64 = 50.0;
/// Seeds with reference report digests (hot and fresh are drawn from
/// these without repetition within a run).
const POOL_SEEDS: u64 = 1024;
const REF_FILE: &str = "ref/serve-mixed.txt";

fn body(seed: u64) -> String {
    format!("{{\"experiment\": \"fig8\", \"ops\": {OPS}, \"seed\": {seed}}}")
}

/// The escaped `report` string of a `/run` body.
fn report_field(body: &[u8]) -> Option<&[u8]> {
    let key = b"\"report\": \"";
    let start = body.windows(key.len()).position(|w| w == key)? + key.len();
    let end = body.len() - body.iter().rev().position(|&b| b == b'"')? - 1;
    (end >= start).then(|| &body[start..end])
}

/// A blocking HTTP/1.1 keep-alive connection framing responses by
/// `Content-Length`.
struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            buf: Vec::new(),
        }
    }

    fn stream(&mut self) -> std::io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, Duration::from_secs(10))?;
            s.set_read_timeout(Some(Duration::from_secs(60)))?;
            s.set_write_timeout(Some(Duration::from_secs(10)))?;
            s.set_nodelay(true)?;
            self.buf.clear();
            self.stream = Some(s);
        }
        Ok(self.stream.as_mut().expect("connected above"))
    }

    /// One request/response; on any error the connection is dropped so
    /// the next call reconnects.
    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let result = self.try_exchange(method, path, body);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn try_exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let wire = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream()?.write_all(wire.as_bytes())?;
        let bad = |what: &str| std::io::Error::new(ErrorKind::InvalidData, what.to_string());
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let header = |name: &str| {
            head.lines().find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.trim()
                    .eq_ignore_ascii_case(name)
                    .then(|| v.trim().to_string())
            })
        };
        let len: usize = header("content-length")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("missing Content-Length"))?;
        while self.buf.len() < head_end + len {
            self.fill()?;
        }
        let body = self.buf[head_end..head_end + len].to_vec();
        self.buf.drain(..head_end + len);
        if header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close")) {
            self.stream = None;
        }
        Ok((status, body))
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 16384];
        let n = self.stream()?.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

/// A parsed `/metrics` page: every sample by its full series name.
#[derive(Debug, Default)]
struct Scrape(HashMap<String, f64>);

impl Scrape {
    fn parse(text: &str) -> Scrape {
        let mut map = HashMap::new();
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            if let Some((series, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    map.insert(series.to_string(), v);
                }
            }
        }
        Scrape(map)
    }

    fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// Cumulative buckets `(le, count)` of a histogram series whose
    /// labels start with `labels` (empty for an unlabelled histogram).
    fn buckets(&self, name: &str, labels: &str) -> Vec<(f64, f64)> {
        let prefix = if labels.is_empty() {
            format!("{name}_bucket{{le=\"")
        } else {
            format!("{name}_bucket{{{labels},le=\"")
        };
        let mut out: Vec<(f64, f64)> = self
            .0
            .iter()
            .filter_map(|(k, &v)| {
                let le = k.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((le, v))
            })
            .collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }
}

/// Quantile `q` of the observations a histogram gained between two
/// scrapes, interpolated linearly inside the bucket that holds it (the
/// exported buckets are log-spaced, so a bare bucket bound would read
/// the same on most runs).
fn window_quantile(before: &Scrape, after: &Scrape, name: &str, labels: &str, q: f64) -> f64 {
    let b = before.buckets(name, labels);
    let a = after.buckets(name, labels);
    let cum = |bs: &[(f64, f64)], x: f64| {
        bs.iter()
            .take_while(|(le, _)| *le <= x)
            .last()
            .map_or(0.0, |(_, c)| *c)
    };
    let gained: Vec<(f64, f64)> = a.iter().map(|&(le, c)| (le, c - cum(&b, le))).collect();
    let total = gained.last().map_or(0.0, |x| x.1);
    if total <= 0.0 {
        return 0.0;
    }
    let target = q * total;
    let (mut lower, mut below) = (0.0, 0.0);
    for &(le, n) in &gained {
        if n >= target {
            if !le.is_finite() {
                return lower;
            }
            return lower + (le - lower) * ratio(target - below, n - below);
        }
        (lower, below) = (le, n);
    }
    lower
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
struct Planned {
    at: Duration,
    seed: u64,
    hot: bool,
}

/// How one request went.
#[derive(Debug)]
struct Done {
    plan: Planned,
    latency_ms: f64,
    lag_ms: f64,
    status: Result<u16, String>,
    body: Vec<u8>,
}

/// A window's schedule: `RATE_RPS * window` arrivals placed uniformly
/// at random over the window and sorted — a Poisson process conditioned
/// on its count, so every window offers exactly the configured load.
/// Every [`MISS_EVERY`]-th request carries the next fresh seed; the rest
/// cycle over the hot set.
fn schedule(
    rng: &mut Rng,
    window: Duration,
    hot: &[u64],
    fresh: &mut impl Iterator<Item = u64>,
) -> Vec<Planned> {
    let n = (RATE_RPS * window.as_secs_f64()).round() as usize;
    let mut at: Vec<f64> = (0..n).map(|_| rng.unit() * window.as_secs_f64()).collect();
    at.sort_by(f64::total_cmp);
    let phase = rng.below(MISS_EVERY as u64) as usize;
    let mut next_hot = rng.below(hot.len() as u64) as usize;
    at.into_iter()
        .enumerate()
        .map(|(i, t)| {
            let fresh_seed = (i % MISS_EVERY == phase).then(|| fresh.next()).flatten();
            let (seed, is_hot) = match fresh_seed {
                Some(s) => (s, false),
                None => {
                    next_hot += 1;
                    (hot[next_hot % hot.len()], true)
                }
            };
            Planned {
                at: Duration::from_secs_f64(t),
                seed,
                hot: is_hot,
            }
        })
        .collect()
}

/// Sleeps until `due` (with the thread's timer slack at its minimum).
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Plays `plan` over `conns` (one load thread per connection), open
/// loop: each request is due at its scheduled instant whether or not
/// the previous one has answered. Returns the per-request results,
/// the window's wall time and the load threads' CPU time.
fn play(plan: &[Planned], conns: &mut [Conn], traced: bool) -> (Vec<Done>, f64, u64) {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(plan.len()));
    let cpu = Mutex::new(0u64);
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|s| {
        for conn in conns.iter_mut() {
            let (next, done, cpu) = (&next, &done, &cpu);
            s.spawn(move || {
                host::precise_sleeps();
                let cpu0 = host::thread_cpu_ns();
                let mut local = Vec::new();
                let mut work = || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&p) = plan.get(i) else { break };
                    let due = start + p.at;
                    if traced {
                        spans::span(Layer::ClientWait, || wait_until(due));
                    } else {
                        wait_until(due);
                    }
                    let sent = Instant::now();
                    let req = body(p.seed);
                    let mut ex = || conn.exchange("POST", "/run", &req);
                    let result = if traced {
                        spans::span(Layer::Http, ex)
                    } else {
                        ex()
                    };
                    let end = Instant::now();
                    let (status, body) = match result {
                        Ok((code, body)) => (Ok(code), body),
                        Err(e) => (Err(e.to_string()), Vec::new()),
                    };
                    local.push(Done {
                        plan: p,
                        latency_ms: end.saturating_duration_since(due).as_secs_f64() * 1e3,
                        lag_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                        status,
                        body,
                    });
                };
                if traced {
                    spans::span(Layer::Task, work);
                } else {
                    work();
                }
                *cpu.lock().expect("cpu tally poisoned") += host::thread_cpu_ns() - cpu0;
                done.lock().expect("results poisoned").extend(local);
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_ns = cpu.into_inner().expect("cpu tally poisoned");
    (done.into_inner().expect("results poisoned"), wall_s, cpu_ns)
}

/// Scrapes `/metrics` over `conn`, as a span when traced.
fn scrape(conn: &mut Conn, traced: bool) -> Result<Scrape, String> {
    let mut get = || conn.exchange("GET", "/metrics", "");
    let (status, body) = if traced {
        spans::span(Layer::Metrics, get)
    } else {
        get()
    }
    .map_err(|e| format!("GET /metrics failed: {e}"))?;
    if status != 200 {
        return Err(format!("GET /metrics answered {status}"));
    }
    Ok(Scrape::parse(&String::from_utf8_lossy(&body)))
}

/// A server, warmed: every hot fingerprint simulated once and its bytes
/// kept as the reference for later hits.
struct Warm {
    server: ServerHandle,
    first_bytes: HashMap<u64, Vec<u8>>,
    unloaded_miss_ms: Vec<f64>,
}

fn start_warm(workers: usize, hot: &[u64]) -> Result<Warm, String> {
    let server = Server::start(ServeConfig {
        workers,
        inner_jobs: 1,
        queue_cap: 64,
        cache_cap: 256,
        base_cfg: RunConfig::quick(),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start failed: {e}"))?;
    let mut conn = Conn::new(server.addr());
    let mut first_bytes = HashMap::new();
    let mut unloaded_miss_ms = Vec::new();
    for &seed in hot {
        let t = Instant::now();
        let (status, bytes) = conn
            .exchange("POST", "/run", &body(seed))
            .map_err(|e| format!("warm-up request failed: {e}"))?;
        unloaded_miss_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if status != 200 {
            return Err(format!("warm-up request for seed {seed} answered {status}"));
        }
        first_bytes.insert(seed, bytes);
    }
    Ok(Warm {
        server,
        first_bytes,
        unloaded_miss_ms,
    })
}

/// One measured window's results.
struct Window {
    done: Vec<Done>,
    wall_s: f64,
    client_cpu_ns: u64,
    server_cpu_ns: u64,
    before: Scrape,
    after: Scrape,
}

impl Window {
    fn latencies(&self, hot: Option<bool>) -> Vec<f64> {
        self.done
            .iter()
            .filter(|d| hot.is_none_or(|h| d.plan.hot == h))
            .map(|d| d.latency_ms)
            .collect()
    }

    /// Latencies grouped by the one-second slice of the window their
    /// request was scheduled in, optionally of one class only.
    fn slices(&self, hot: Option<bool>) -> Vec<Vec<f64>> {
        let mut out: Vec<Vec<f64>> = Vec::new();
        for d in self
            .done
            .iter()
            .filter(|d| hot.is_none_or(|h| d.plan.hot == h))
        {
            let k = d.plan.at.as_secs() as usize;
            if out.len() <= k {
                out.resize_with(k + 1, Vec::new);
            }
            out[k].push(d.latency_ms);
        }
        out
    }

    fn delta(&self, series: &str) -> f64 {
        self.after.get(series) - self.before.get(series)
    }
}

fn window(conns: &mut [Conn], plan: &[Planned], traced: bool) -> Result<Window, String> {
    let before = scrape(&mut conns[0], traced)?;
    let main0 = host::thread_cpu_ns();
    let proc0 = host::process_cpu_ns();
    let (done, wall_s, client_cpu_ns) = play(plan, conns, traced);
    let proc_ns = host::process_cpu_ns() - proc0;
    let main_ns = host::thread_cpu_ns() - main0;
    let after = scrape(&mut conns[0], traced)?;
    Ok(Window {
        done,
        wall_s,
        client_cpu_ns,
        server_cpu_ns: proc_ns.saturating_sub(client_cpu_ns + main_ns),
        before,
        after,
    })
}

/// Checks every response: status 200, hits byte-identical to the bytes
/// first served for their fingerprint, fresh reports equal to the
/// reference. Returns how many were good and within the latency limit.
fn check(w: &Window, warm: &Warm, reference: &Reference, out: &mut Outcome) -> u64 {
    let mut good = 0;
    for d in &w.done {
        let what = format!(
            "serve-mixed seed {} ({})",
            d.plan.seed,
            if d.plan.hot { "hot" } else { "fresh" }
        );
        let verdict = match &d.status {
            Err(e) => Err(format!("{what}: connection error {e}")),
            Ok(code) if *code != 200 => Err(format!("{what}: status {code}")),
            Ok(_) if d.plan.hot => {
                if warm.first_bytes.get(&d.plan.seed) == Some(&d.body) {
                    Ok(())
                } else {
                    Err(format!("{what}: body differs from the bytes first served"))
                }
            }
            Ok(_) => {
                check_report(reference, d.plan.seed, &d.body).map_err(|e| format!("{what}: {e}"))
            }
        };
        if verdict.is_ok() && d.latency_ms <= LIMIT_MS {
            good += 1;
        }
        out.check(verdict);
    }
    good
}

fn check_report(reference: &Reference, seed: u64, body: &[u8]) -> Result<(), String> {
    let report = report_field(body).ok_or("no report field")?;
    let want = reference
        .get(seed, "fig8")
        .and_then(|w| w.first())
        .ok_or("no reference digest")?;
    if *want == digest::Fnv::default().bytes(report).finish() {
        Ok(())
    } else {
        Err("report differs from the reference".into())
    }
}

fn shutdown(warm: Warm) -> Result<(), String> {
    warm.server
        .shutdown()
        .map(|_| ())
        .map_err(|e| format!("server shutdown failed: {e}"))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let nproc = host::nproc();
    let (threads, connections) = (nproc.min(2), nproc.min(2));
    let host_note = check_host(threads, connections)?;
    let reference = Reference::load(&crate::bench_dir().join(REF_FILE))?;
    let mut seeds = reference.seeds.clone();
    let mut rng = Rng::new(args.seed, 3);
    rng.shuffle(&mut seeds);
    let hot: Vec<u64> = seeds[..HOT].to_vec();
    let (warm, setup_times) = timed_setups(
        || start_warm(nproc, &hot),
        |w| {
            if let Ok(w) = w {
                let _ = shutdown(w);
            }
        },
    );
    let warm = warm?;
    let mut out = Outcome::default();
    out.note(host_note);
    let measured = measure(args, &warm, &reference, rng, &seeds, connections, &mut out);
    // Shut down whatever happened, so no server thread outlives the run.
    let stopped = shutdown(warm);
    measured?;
    stopped?;
    if !args.trace {
        out.metric("setup_s", median(&setup_times), "s");
        out.metric("peak_rss_mb", host::peak_rss_mb(), "MB");
    }
    Ok(out)
}

fn measure(
    args: &Args,
    warm: &Warm,
    reference: &Reference,
    mut rng: Rng,
    seeds: &[u64],
    connections: usize,
    out: &mut Outcome,
) -> Result<(), String> {
    let hot = &seeds[..HOT];
    let mut fresh = seeds[HOT..].iter().copied();
    for &seed in hot {
        out.check(
            check_report(reference, seed, &warm.first_bytes[&seed])
                .map_err(|e| format!("serve-mixed hot seed {seed}: {e}")),
        );
    }
    out.note(format!(
        "unloaded miss median {:.3} ms over {} warm-up requests; latency limit {LIMIT_MS} ms",
        median(&warm.unloaded_miss_ms),
        warm.unloaded_miss_ms.len()
    ));
    let mut conns: Vec<Conn> = (0..connections)
        .map(|_| Conn::new(warm.server.addr()))
        .collect();
    let span = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let plan = schedule(&mut rng, span, hot, &mut fresh);
    let untraced = window(&mut conns, &plan, false)?;
    let good = check(&untraced, warm, reference, out);
    let lat = untraced.latencies(None);
    out.note(format!(
        "window: {} requests over {:.3} s wall; client-thread cpu {:.4} s, server cpu {:.4} s",
        lat.len(),
        untraced.wall_s,
        untraced.client_cpu_ns as f64 / 1e9,
        untraced.server_cpu_ns as f64 / 1e9
    ));
    for (class, xs) in [
        ("hit", untraced.latencies(Some(true))),
        ("miss", untraced.latencies(Some(false))),
        ("send lag", untraced.done.iter().map(|d| d.lag_ms).collect()),
    ] {
        let q: Vec<String> = [10.0, 50.0, 90.0, 99.0]
            .iter()
            .map(|&p| format!("p{p} {:.3}", percentile(&xs, p)))
            .collect();
        out.note(format!("{class} ms, whole window: {}", q.join(", ")));
    }
    if !args.trace {
        let instr = untraced.delta("mcd_sim_instructions_total");
        let misses = untraced.slices(Some(false));
        let all = untraced.slices(None);
        out.note(format!(
            "latency samples {} in {} one-second slices ({} misses); {good} answered correctly within the limit",
            lat.len(),
            all.len(),
            misses.iter().map(Vec::len).sum::<usize>()
        ));
        out.metric("wall_s", untraced.wall_s, "s");
        let server_cpu_s = untraced.server_cpu_ns as f64 / 1e9;
        out.metric("mips_per_core", instr / server_cpu_s / 1e6, "MIPS");
        out.metric("p50_ms", windowed_percentile(&misses, 50.0), "ms");
        out.metric("goodput_rps", good as f64 / untraced.wall_s, "1/s");
        return Ok(());
    }

    let _ = spans::drain();
    let plan = schedule(&mut rng, span, hot, &mut fresh);
    let w = window(&mut conns, &plan, true)?;
    check(&w, warm, reference, out);
    let (totals, records) = spans::drain();
    let mut m = LayerMetrics::default();
    let hits = w.latencies(Some(true));
    let misses = w.latencies(Some(false));
    out.note(format!(
        "traced window: {} hits, {} misses",
        hits.len(),
        misses.len()
    ));
    m.set("serve.hit_p50_ms", percentile(&hits, 50.0));
    m.set("serve.miss_p50_ms", percentile(&misses, 50.0));
    m.set("serve.miss_p99_ms", percentile(&misses, 99.0));
    let req = "mcd_serve_request_seconds";
    let run_quantile = |outcome: &str, q: f64| {
        let labels = format!("endpoint=\"run\",outcome=\"{outcome}\"");
        window_quantile(&w.before, &w.after, req, &labels, q)
    };
    m.set("serve.server_hit_p50_us", run_quantile("hit", 0.5) * 1e6);
    m.set("serve.server_miss_p50_ms", run_quantile("miss", 0.5) * 1e3);
    m.set(
        "serve.cache_hit_ratio",
        ratio(
            w.delta("mcd_serve_cache_hits_total"),
            w.delta("mcd_serve_run_requests_total"),
        ),
    );
    m.set(
        "serve.runs_executed",
        w.delta("mcd_serve_runs_executed_total"),
    );
    m.set("serve.coalesced", w.delta("mcd_serve_coalesced_total"));
    m.set("serve.shed", w.delta("mcd_serve_shed_total"));
    let loop_p99 = window_quantile(
        &w.before,
        &w.after,
        "mcd_serve_loop_iteration_seconds",
        "",
        0.99,
    );
    m.set("serve.loop_iter_p99_us", loop_p99 * 1e6);
    let lags: Vec<f64> = w.done.iter().map(|d| d.lag_ms).collect();
    m.set("client.send_lag_p99_ms", percentile(&lags, 99.0));
    m.set(
        "tail.p99_ms",
        windowed_percentile(&untraced.slices(None), 99.0),
    );
    let traced_p50 = percentile(&w.latencies(None), 50.0);
    m.set(
        "serve-mixed.traced_overhead_pct",
        (ratio(traced_p50, percentile(&lat, 50.0)) - 1.0) * 100.0,
    );
    let server_ns = |outcome: &str| {
        let series = format!("{req}_sum{{endpoint=\"run\",outcome=\"{outcome}\"}}");
        (w.delta(&series) * 1e9) as u64
    };
    let breakdown = Breakdown::new(
        &totals,
        &[],
        &[
            (Layer::Http, "mcd-serve.router.hit", server_ns("hit")),
            (Layer::Http, "mcd-serve.router.miss", server_ns("miss")),
        ],
        totals.sum_ns(),
        format!(
            "{} load threads over a {:.3} s window, plus /metrics scrapes",
            conns.len(),
            w.wall_s
        ),
    );
    finish_traced(out, &m, &breakdown, &records, args)
}

/// Renders `fig8` for every pool seed through the library entry point
/// `experiments::run_on` and writes `ref/serve-mixed.txt`.
pub fn write_reference() -> Result<(), String> {
    let rs = RunSet::new(host::nproc());
    let mut lines = vec![format!(
        "# serve-mixed reference digests: fig8 report (JSON-escaped as served), {OPS} instructions"
    )];
    lines.push("# <seed> fig8 <report digest>".into());
    let seeds: Vec<u64> = (1..=POOL_SEEDS).collect();
    let reports = rs.par(seeds, |seed| {
        let mut cfg = RunConfig::quick().with_ops(OPS);
        cfg.seed = seed;
        mcd_bench::experiments::run_on(&RunSet::new(1), "fig8", &cfg)
            .map(|r| (seed, mcd_serve::http::json_escape(&r)))
    });
    for r in reports {
        let (seed, escaped) = r.map_err(|e| format!("reference fig8 run failed: {e}"))?;
        lines.push(digest::reference_line(
            seed,
            "fig8",
            &[digest::text(&escaped)],
        ));
    }
    crate::write_reference_file(REF_FILE, &lines)
}
