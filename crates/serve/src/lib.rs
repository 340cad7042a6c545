//! `mcd-serve`: a load-shedding simulation service over the `mcd-bench`
//! harness.
//!
//! A small std-only HTTP/1.1 server (no async runtime, no external
//! crates) that exposes the experiment registry as a service:
//!
//! | Endpoint              | Behaviour                                           |
//! |-----------------------|-----------------------------------------------------|
//! | `POST /run`           | Validate → cache → coalesce → execute an experiment |
//! | `POST /run?stream=1`  | Same, streaming live trace events over chunked NDJSON; the final line is the exact `/run` body |
//! | `GET /watch/<fp>`     | Tail an in-flight run's event stream by fingerprint |
//! | `GET /experiments`    | The registry with each experiment's kind            |
//! | `GET /metrics`        | Service + simulation counters (DESIGN.md §6)        |
//! | `GET /healthz`        | `ok` / `draining`                                   |
//! | `POST /shutdown`      | Begin graceful drain                                |
//!
//! Since the event-loop rebuild (DESIGN.md §11) all connections are
//! multiplexed on one readiness-driven loop thread (epoll,
//! level-triggered, std-only): HTTP/1.1 keep-alive and pipelining,
//! per-connection read/idle/write deadlines, and bounded buffers —
//! a slow or hostile client costs a buffer and a timer, never a
//! thread. Simulations still execute on the bounded worker pool.
//!
//! Properties the test suite proves (DESIGN.md §8, §11):
//!
//! - **Coalescing**: concurrent identical requests share one simulation
//!   and receive byte-identical responses.
//! - **Shedding**: when the bounded queue is full, excess requests get
//!   an immediate 503 with `Retry-After` on a connection that always
//!   closes (`Connection: close`), and every request that *was*
//!   admitted still completes.
//! - **Streaming equals non-streaming**: a streamed run's final line is
//!   byte-identical to the body an unstreamed run returns, and taps
//!   never perturb report bytes (trace_noninterference).
//! - **Graceful shutdown**: in-flight work and open streams drain, new
//!   connections are refused, and the result cache flushes to a
//!   checkpoint-format directory so a restarted server starts warm. A
//!   warm directory flushed by an older binary is rejected, never
//!   served.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod coalesce;
mod event_loop;
pub mod http;
pub mod metrics;
pub mod pool;
pub mod router;
pub mod stream;
mod sys;

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mcd_bench::error::RunError;
use mcd_bench::runner::RunConfig;

use cache::WarmReport;
use event_loop::LoopConfig;
use pool::Pool;
use router::{App, Job};
use stream::LoopSender;
use sys::{Epoll, EPOLLIN};

/// Everything that shapes a server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads executing simulation runs.
    pub workers: usize,
    /// Bounded queue depth; run requests beyond it are shed with 503.
    pub queue_cap: usize,
    /// Result-cache capacity (entries, LRU-evicted).
    pub cache_cap: usize,
    /// Inner simulation parallelism per run ([`RunConfig`] fan-out).
    pub inner_jobs: usize,
    /// Wall-clock budget per run attempt: an attempt over budget stops
    /// at its next simulation chunk and answers 504. A timed-out run
    /// makes up to [`mcd_bench::parallel::ATTEMPTS`] attempts, so the
    /// worst case is that many times this. A budget too large for the
    /// clock means no budget.
    pub run_timeout: Duration,
    /// Base run configuration; `/run` bodies override its swept knobs.
    pub base_cfg: RunConfig,
    /// Checkpoint-format directory: warm-loaded at start, flushed on
    /// graceful shutdown. `None` disables persistence.
    pub warm_dir: Option<PathBuf>,
    /// Seconds advertised in `Retry-After` on shed responses.
    pub retry_after_s: u64,
    /// Slow-loris bound: first byte of a request → complete parse.
    pub read_timeout: Duration,
    /// Idle keep-alive connections close after this long.
    pub idle_timeout: Duration,
    /// Pending output making no progress is abandoned after this long.
    pub write_timeout: Duration,
    /// Connections held concurrently; beyond this, accepts are shed.
    pub max_conns: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_cap: 32,
            cache_cap: 256,
            inner_jobs: 2,
            run_timeout: Duration::from_secs(60),
            base_cfg: RunConfig::quick(),
            warm_dir: None,
            retry_after_s: 1,
            read_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            max_conns: 256,
        }
    }
}

/// How a graceful shutdown went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShutdownReport {
    /// Cache entries flushed to the warm directory (0 when disabled).
    pub flushed: usize,
}

/// A running server. Obtain with [`Server::start`]; stop with
/// [`ServerHandle::shutdown`] (or [`ServerHandle::finish`] if shutdown
/// was already triggered over HTTP). Dropping the handle without calling
/// either leaks the loop and worker threads — always shut down.
pub struct ServerHandle {
    addr: SocketAddr,
    app: Arc<App>,
    warm: WarmReport,
    warm_dir: Option<PathBuf>,
    loop_thread: Option<JoinHandle<()>>,
    pool: Option<Pool<Job>>,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// What the warm load found at startup.
    pub fn warm(&self) -> WarmReport {
        self.warm
    }

    /// Shared application state (metrics, shutdown trigger) — mainly
    /// for tests; clients should use the HTTP surface.
    pub fn app(&self) -> &Arc<App> {
        &self.app
    }

    /// Triggers graceful shutdown and waits for it to complete.
    pub fn shutdown(self) -> Result<ShutdownReport, RunError> {
        self.app.trigger_shutdown();
        self.finish()
    }

    /// Waits for an already-triggered shutdown (e.g. `POST /shutdown`
    /// or a deadline inside the binary) to complete: joins the event
    /// loop (which exits once every connection has drained), drains the
    /// pool, flushes the cache.
    pub fn finish(mut self) -> Result<ShutdownReport, RunError> {
        if let Some(t) = self.loop_thread.take() {
            let _ = t.join();
        }
        // The listener died inside the loop's drain, so new connections
        // are already refused; any job still executing for a connection
        // that disappeared finishes here.
        if let Some(p) = self.pool.take() {
            p.close_and_drain();
        }
        let mut flushed = 0;
        if let Some(dir) = &self.warm_dir {
            flushed = self.app.cache.flush(dir)?;
        }
        Ok(ShutdownReport { flushed })
    }
}

/// The server constructor namespace.
pub struct Server;

impl Server {
    /// Binds, warm-loads the cache, spawns the worker pool and the
    /// event-loop thread, and returns a handle.
    pub fn start(cfg: ServeConfig) -> Result<ServerHandle, RunError> {
        let io_err = |path: &str, message: String| RunError::Io {
            path: path.to_string(),
            message,
        };
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| io_err(&cfg.addr, format!("bind failed: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| io_err(&cfg.addr, format!("no local addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| io_err(&cfg.addr, format!("nonblocking listener: {e}")))?;

        let epoll = Epoll::new().map_err(|e| io_err("epoll", e.to_string()))?;
        let loop_tx = LoopSender::new().map_err(|e| io_err("eventfd", e.to_string()))?;
        {
            use std::os::unix::io::AsRawFd;
            epoll
                .add(listener.as_raw_fd(), EPOLLIN, event_loop::LISTENER)
                .map_err(|e| io_err("epoll add listener", e.to_string()))?;
            epoll
                .add(loop_tx.wake_fd(), EPOLLIN, event_loop::WAKE)
                .map_err(|e| io_err("epoll add eventfd", e.to_string()))?;
        }

        // The pool's handler needs the App, and the App needs the
        // pool's handle for its gauges; a OnceLock slot breaks the
        // cycle — the slot is filled before any connection can arrive.
        let app_slot: Arc<std::sync::OnceLock<Arc<App>>> = Arc::new(std::sync::OnceLock::new());
        let handler_slot = Arc::clone(&app_slot);
        let pool = Pool::new(cfg.workers, cfg.queue_cap, move |job: Job| {
            if let Some(app) = handler_slot.get() {
                app.execute_job(job);
            }
        });
        // The warm dir also hosts a snapshot store: runs whose result is
        // not yet cached resume from their latest stored shard boundary
        // instead of simulating from instruction zero (see
        // `mcd_bench::snapstore`). Results stay byte-identical — the
        // shard-equivalence invariant — so this only moves wall time.
        let mut base_cfg = cfg.base_cfg.clone();
        if base_cfg.warm_dir.is_none() {
            base_cfg.warm_dir = cfg.warm_dir.as_ref().map(|d| d.join("snapshots"));
        }
        let app = Arc::new(App::new(
            cfg.cache_cap,
            base_cfg,
            cfg.run_timeout,
            cfg.inner_jobs,
            pool.handle(),
            loop_tx.clone(),
        ));
        let _ = app_slot.set(Arc::clone(&app));

        let mut warm = WarmReport::default();
        if let Some(dir) = &cfg.warm_dir {
            warm = app.cache.warm_load(dir)?;
        }

        let loop_thread = {
            let app = Arc::clone(&app);
            let loop_cfg = LoopConfig {
                read_timeout: cfg.read_timeout,
                idle_timeout: cfg.idle_timeout,
                write_timeout: cfg.write_timeout,
                max_conns: cfg.max_conns.max(1),
                retry_after_s: cfg.retry_after_s,
            };
            std::thread::Builder::new()
                .name("mcd-serve-loop".to_string())
                .spawn(move || event_loop::run(listener, epoll, app, loop_tx, loop_cfg))
                .map_err(|e| io_err("loop thread", e.to_string()))?
        };

        Ok(ServerHandle {
            addr,
            app,
            warm,
            warm_dir: cfg.warm_dir,
            loop_thread: Some(loop_thread),
            pool: Some(pool),
        })
    }
}
