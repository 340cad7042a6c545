//! The readiness-based connection path: one loop thread multiplexing
//! every connection over epoll (DESIGN.md §11).
//!
//! Replaces the PR 4 thread-per-connection model. The loop owns the
//! listener, a nonblocking socket per connection, and the worker→loop
//! message queue; simulation work still runs on the bounded worker pool
//! — the loop only parses, routes, and shuttles bytes, so a slow client
//! costs a buffer and a deadline, never a thread.
//!
//! Connection state machine (per [`Conn`]):
//!
//! ```text
//!   reading ──complete request──► inline answer ──► writing ──► reading
//!       │                     └──► POST /run: dispatched to pool
//!       │                           └─ Done/StreamEnd message ─► writing
//!       ├── parse error / shed ──► write + drain + close
//!       └── deadline expiry ──► 408 (mid-request) or silent close (idle)
//! ```
//!
//! Guarantees carried over from PR 4 and extended here:
//!
//! - **Shed never leaves a reusable connection**: a 503 renders with
//!   `Connection: close`, the connection keeps *reading* (and
//!   discarding) until the response is flushed, and teardown drains
//!   the socket once more — closing with unread bytes makes the kernel
//!   send RST, which would destroy the 503 in flight.
//! - **Keep-alive + pipelining**: HTTP/1.1 connections serve requests
//!   back to back; at most one dispatched run is in flight per
//!   connection, so pipelined responses come back in request order.
//! - **Deadlines**: a request must complete within `read_timeout` of
//!   its first byte (slow-loris), an idle keep-alive connection closes
//!   after `idle_timeout`, and a write making no progress for
//!   `write_timeout` is abandoned.
//! - **Drain**: on shutdown the listener closes immediately (connects
//!   refuse at the TCP layer), idle connections close, and the loop
//!   runs until every dispatched request and open stream finishes.

use std::collections::{BTreeSet, HashMap};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::http::{
    chunk, chunk_end, parse_request, stream_head, stream_head_mcdt, Parsed, Request, Response,
    MAX_BODY, MAX_HEADER_BYTES,
};
use crate::metrics::{Endpoint, Outcome, Series};
use crate::router::{App, Job};
use crate::stream::{LoopMsg, LoopSender};
use crate::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Token reserved for the listening socket.
pub(crate) const LISTENER: u64 = 0;
/// Token reserved for the worker→loop eventfd.
pub(crate) const WAKE: u64 = 1;
/// First token handed to a connection.
const FIRST_CONN: u64 = 2;

/// Hard bound on buffered, unparsed input per connection.
const INBUF_CAP: usize = MAX_HEADER_BYTES + MAX_BODY + 4096;

/// Knobs the loop needs, split out of `ServeConfig` by `Server::start`.
pub(crate) struct LoopConfig {
    /// First byte of a request → complete parse (slow-loris bound).
    pub read_timeout: Duration,
    /// Keep-alive connection with no request in progress.
    pub idle_timeout: Duration,
    /// Pending output making no progress.
    pub write_timeout: Duration,
    /// Connections held concurrently; beyond this, accepts are shed.
    pub max_conns: usize,
    /// `Retry-After` seconds on shed responses.
    pub retry_after_s: u64,
}

/// Which timer a connection is currently running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeadlineKind {
    Read,
    Idle,
    Write,
}

struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    /// Bytes of `outbuf` already written to the socket.
    written: usize,
    /// A `POST /run` job is on the pool; responses for this connection
    /// arrive as loop messages, and further pipelined requests wait.
    dispatched: bool,
    /// The connection carries a chunked stream (runner or watcher).
    streaming: bool,
    /// Close once `outbuf` is flushed.
    close_after_write: bool,
    /// Read and discard input (post-error / post-shed drain).
    discard_input: bool,
    /// Peer closed its write half (EOF seen).
    read_closed: bool,
    /// `Connection: close` requested by the in-flight request.
    wants_close: bool,
    requests_served: u64,
    deadline: Option<(Instant, DeadlineKind)>,
    interest: u32,
}

/// Runs the event loop until shutdown completes. Owns the listener;
/// dropping it on drain is what makes post-shutdown connects fail at
/// the TCP layer.
pub(crate) fn run(
    listener: TcpListener,
    epoll: Epoll,
    app: Arc<App>,
    rx: LoopSender,
    cfg: LoopConfig,
) {
    let mut lp = EventLoop {
        epoll,
        listener: Some(listener),
        app,
        rx,
        cfg,
        conns: HashMap::new(),
        deadlines: BTreeSet::new(),
        next_token: FIRST_CONN,
        shutting_down: false,
    };
    lp.run();
}

struct EventLoop {
    epoll: Epoll,
    listener: Option<TcpListener>,
    app: Arc<App>,
    rx: LoopSender,
    cfg: LoopConfig,
    conns: HashMap<u64, Conn>,
    deadlines: BTreeSet<(Instant, u64)>,
    next_token: u64,
    shutting_down: bool,
}

impl EventLoop {
    fn run(&mut self) {
        let mut events = vec![EpollEvent::zeroed(); 256];
        loop {
            let timeout = self.next_timeout_ms();
            let n = match self.epoll.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(_) => break, // epoll itself failing is unrecoverable
            };
            let began = Instant::now();
            self.app.metrics.set(Series::LoopReady, n as u64);
            for ev in events.iter().take(n) {
                let (token, bits) = (ev.token(), ev.readiness());
                match token {
                    LISTENER => self.accept_ready(),
                    WAKE => self.drain_messages(),
                    _ => self.conn_ready(token, bits),
                }
            }
            self.expire_deadlines();
            let fds = self.conns.len() as u64 + 1 + u64::from(self.listener.is_some());
            self.app.metrics.set(Series::LoopFds, fds);
            self.app
                .metrics
                .record_loop_iteration(began.elapsed().as_micros().min(u64::MAX as u128) as u64);
            if self.shutting_down && self.conns.is_empty() {
                return;
            }
        }
    }

    /// Milliseconds until the earliest deadline, or -1 (wait forever).
    fn next_timeout_ms(&self) -> i32 {
        match self.deadlines.iter().next() {
            Some(&(when, _)) => {
                let now = Instant::now();
                if when <= now {
                    0
                } else {
                    // +1 rounds up so we never wake a hair early and spin.
                    (when - now).as_millis().min(i32::MAX as u128 - 1) as i32 + 1
                }
            }
            None => -1,
        }
    }

    // ---- accept -----------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            if self.shutting_down {
                continue; // racing the drain: drop unanswered
            }
            self.app.metrics.add(Series::Accepted, 1);
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let token = self.next_token;
            self.next_token += 1;
            let mut conn = Conn {
                stream,
                inbuf: Vec::new(),
                outbuf: Vec::new(),
                written: 0,
                dispatched: false,
                streaming: false,
                close_after_write: false,
                discard_input: false,
                read_closed: false,
                wants_close: false,
                requests_served: 0,
                deadline: None,
                interest: EPOLLIN | EPOLLRDHUP,
            };
            let overloaded = self.conns.len() >= self.cfg.max_conns;
            if overloaded {
                // Event-loop backpressure: over the connection bound the
                // accept converts straight into the shed path.
                self.app.metrics.add(Series::Shed, 1);
                self.app
                    .metrics
                    .record_latency(Endpoint::Other, Outcome::Shed, 0);
                conn.outbuf = Response::shed(self.cfg.retry_after_s).render(true);
                conn.close_after_write = true;
                conn.discard_input = true;
            }
            if self
                .epoll
                .add(conn.stream.as_raw_fd(), conn.interest, token)
                .is_err()
            {
                continue; // conn drops, client sees a reset
            }
            self.conns.insert(token, conn);
            if overloaded {
                self.try_write(token);
            } else {
                self.set_deadline(token, DeadlineKind::Idle, self.cfg.idle_timeout);
            }
        }
    }

    // ---- worker messages --------------------------------------------

    fn drain_messages(&mut self) {
        for msg in self.rx.drain() {
            match msg {
                LoopMsg::Done { token, response } => {
                    let Some(conn) = self.conns.get_mut(&token) else {
                        continue;
                    };
                    conn.dispatched = false;
                    let close = conn.wants_close || conn.read_closed || self.shutting_down;
                    self.queue_response(token, &response, close);
                    self.process_inbuf(token);
                }
                LoopMsg::StreamStart { token, binary } => {
                    let Some(conn) = self.conns.get_mut(&token) else {
                        continue;
                    };
                    conn.streaming = true;
                    conn.outbuf.extend_from_slice(&if binary {
                        stream_head_mcdt()
                    } else {
                        stream_head()
                    });
                    self.app.metrics.add(Series::StreamsOpened, 1);
                    self.clear_deadline(token);
                    self.try_write(token);
                }
                LoopMsg::StreamLine { token, data } => {
                    let Some(conn) = self.conns.get_mut(&token) else {
                        continue;
                    };
                    if conn.streaming && !conn.close_after_write {
                        conn.outbuf.extend_from_slice(&chunk(&data));
                        self.try_write(token);
                    }
                }
                LoopMsg::StreamEnd { token, final_chunk } => {
                    let Some(conn) = self.conns.get_mut(&token) else {
                        continue;
                    };
                    if !conn.streaming || conn.close_after_write {
                        continue;
                    }
                    if let Some(payload) = final_chunk {
                        conn.outbuf.extend_from_slice(&chunk(&payload));
                    }
                    conn.outbuf.extend_from_slice(chunk_end());
                    conn.dispatched = false;
                    conn.close_after_write = true;
                    self.try_write(token);
                }
                LoopMsg::Shutdown => self.begin_drain(),
            }
        }
    }

    fn begin_drain(&mut self) {
        if self.shutting_down {
            return;
        }
        self.shutting_down = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.epoll.delete(listener.as_raw_fd());
            // Dropping the listener here is what refuses new connects.
        }
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| !c.dispatched && !c.streaming && c.written == c.outbuf.len())
            .map(|(&t, _)| t)
            .collect();
        for token in idle {
            self.teardown(token);
        }
    }

    // ---- connection readiness ---------------------------------------

    fn conn_ready(&mut self, token: u64, bits: u32) {
        if bits & (EPOLLHUP | EPOLLERR) != 0 {
            self.teardown(token);
            return;
        }
        if bits & (EPOLLIN | EPOLLRDHUP) != 0 {
            self.on_readable(token);
        }
        if bits & EPOLLOUT != 0 {
            self.try_write(token);
        }
    }

    fn on_readable(&mut self, token: u64) {
        let mut dead = false;
        let mut oversized = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let mut buf = [0u8; 16384];
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        conn.read_closed = true;
                        break;
                    }
                    Ok(n) => {
                        if conn.discard_input || conn.streaming {
                            // Drain-and-discard: shed/error responses in
                            // flight, or chatter on an open stream.
                            continue;
                        }
                        conn.inbuf.extend_from_slice(&buf[..n]);
                        if conn.inbuf.len() > INBUF_CAP {
                            oversized = true;
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
        }
        if dead {
            self.teardown(token);
            return;
        }
        if oversized {
            let resp = crate::http::HttpError::HeadersTooLarge.response();
            self.app
                .metrics
                .record_latency(Endpoint::Other, Outcome::Error, 0);
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.discard_input = true;
                conn.inbuf.clear();
            }
            self.queue_response(token, &resp, true);
            return;
        }
        let eof_teardown = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            conn.read_closed
                && (conn.streaming
                    || (!conn.dispatched
                        && conn.written == conn.outbuf.len()
                        && !matches!(parse_request(&conn.inbuf), Parsed::Complete { .. })))
        };
        if eof_teardown {
            // A disconnecting streamer or a peer that left without a
            // pending exchange. Teardown unsubscribes any fan-out
            // registrations, so mid-stream disconnects leak nothing.
            self.teardown(token);
            return;
        }
        self.process_inbuf(token);
    }

    /// Parses and serves as many buffered requests as possible. Stops at
    /// a partial request, a dispatched job (pipelining order), or a
    /// connection already committed to closing.
    fn process_inbuf(&mut self, token: u64) {
        loop {
            let request = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                if conn.dispatched || conn.streaming || conn.close_after_write || conn.discard_input
                {
                    return;
                }
                match parse_request(&conn.inbuf) {
                    Parsed::Complete { request, consumed } => {
                        conn.inbuf.drain(..consumed);
                        self.app.metrics.add(Series::Requests, 1);
                        conn.requests_served += 1;
                        if conn.requests_served > 1 {
                            self.app.metrics.add(Series::KeepaliveReuses, 1);
                        }
                        conn.wants_close = request.wants_close;
                        request
                    }
                    Parsed::Partial => {
                        if conn.inbuf.is_empty() {
                            self.set_deadline(token, DeadlineKind::Idle, self.cfg.idle_timeout);
                        } else if !matches!(conn.deadline, Some((_, DeadlineKind::Read))) {
                            // First bytes of a request start the
                            // slow-loris clock; more bytes don't reset it.
                            self.set_deadline(token, DeadlineKind::Read, self.cfg.read_timeout);
                        }
                        return;
                    }
                    Parsed::Error(e) => {
                        let resp = e.response();
                        conn.discard_input = true;
                        conn.inbuf.clear();
                        self.app
                            .metrics
                            .record_latency(Endpoint::Other, Outcome::Error, 0);
                        self.queue_response(token, &resp, true);
                        return;
                    }
                }
            };
            self.handle_request(token, request);
        }
    }

    fn handle_request(&mut self, token: u64, request: Request) {
        if request.method == "POST" && request.path == "/run" {
            match self.app.submit(Job { token, request }) {
                Ok(()) => {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.dispatched = true;
                    }
                    // No client-facing deadline while the run executes;
                    // the pool's own run_timeout bounds the work.
                    self.clear_deadline(token);
                }
                Err(()) => {
                    // Bounded queue full (or pool draining): the shed
                    // path. 503 + Retry-After, Connection: close, and
                    // the input keeps draining until the bytes are out.
                    self.app.metrics.add(Series::Shed, 1);
                    self.app
                        .metrics
                        .record_latency(Endpoint::Run, Outcome::Shed, 0);
                    let resp = Response::shed(self.cfg.retry_after_s);
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.discard_input = true;
                    }
                    self.queue_response(token, &resp, true);
                }
            }
            return;
        }
        if request.method == "GET" && request.path.starts_with("/watch/") {
            let started = Instant::now();
            let key = request.path["/watch/".len()..].to_string();
            if self.shutting_down || !self.app.watch(&key, token, request.accepts_mcdt) {
                let resp = Response::error(
                    404,
                    "no-active-flight",
                    "no run is currently executing under that fingerprint",
                );
                self.app.metrics.record_latency(
                    Endpoint::Other,
                    Outcome::Error,
                    started.elapsed().as_micros().min(u64::MAX as u128) as u64,
                );
                self.queue_response(token, &resp, request.wants_close);
                return;
            }
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.streaming = true;
                conn.outbuf.extend_from_slice(&if request.accepts_mcdt {
                    stream_head_mcdt()
                } else {
                    stream_head()
                });
            }
            self.app.metrics.add(Series::StreamsOpened, 1);
            self.app.metrics.record_latency(
                Endpoint::Other,
                Outcome::Ok,
                started.elapsed().as_micros().min(u64::MAX as u128) as u64,
            );
            self.clear_deadline(token);
            self.try_write(token);
            return;
        }
        let response = self.app.handle_inline(&request);
        let close = request.wants_close || self.shutting_down || self.app.is_draining();
        self.queue_response(token, &response, close);
    }

    // ---- writing ----------------------------------------------------

    fn queue_response(&mut self, token: u64, response: &Response, close: bool) {
        let close = close || response.retry_after.is_some();
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.outbuf.extend_from_slice(&response.render(close));
        if close {
            conn.close_after_write = true;
        }
        self.try_write(token);
    }

    fn try_write(&mut self, token: u64) {
        let mut dead = false;
        let (flushed, close_after, progressed) = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let before = conn.written;
            while conn.written < conn.outbuf.len() {
                match conn.stream.write(&conn.outbuf[conn.written..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => conn.written += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if conn.written == conn.outbuf.len() {
                conn.outbuf.clear();
                conn.written = 0;
            } else if conn.written > 65536 {
                conn.outbuf.drain(..conn.written);
                conn.written = 0;
            }
            (
                conn.outbuf.is_empty(),
                conn.close_after_write,
                conn.written != before || conn.outbuf.is_empty(),
            )
        };
        if dead {
            self.teardown(token);
            return;
        }
        self.update_interest(token);
        if flushed {
            if close_after {
                self.teardown(token);
                return;
            }
            let (dispatched, streaming, idle, read_closed) = {
                let conn = &self.conns[&token];
                (
                    conn.dispatched,
                    conn.streaming,
                    conn.inbuf.is_empty(),
                    conn.read_closed,
                )
            };
            if read_closed && !dispatched {
                self.teardown(token);
            } else if !dispatched && !streaming && idle {
                self.set_deadline(token, DeadlineKind::Idle, self.cfg.idle_timeout);
            }
        } else if progressed {
            // Still pending, but moving: restart the stall clock.
            self.set_deadline(token, DeadlineKind::Write, self.cfg.write_timeout);
        } else if !matches!(
            self.conns.get(&token).and_then(|c| c.deadline),
            Some((_, DeadlineKind::Write))
        ) {
            self.set_deadline(token, DeadlineKind::Write, self.cfg.write_timeout);
        }
    }

    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut want = EPOLLIN | EPOLLRDHUP;
        if conn.written < conn.outbuf.len() {
            want |= EPOLLOUT;
        }
        if want != conn.interest {
            conn.interest = want;
            let _ = self.epoll.modify(conn.stream.as_raw_fd(), want, token);
        }
    }

    // ---- deadlines --------------------------------------------------

    fn set_deadline(&mut self, token: u64, kind: DeadlineKind, after: Duration) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if let Some((old, _)) = conn.deadline.take() {
            self.deadlines.remove(&(old, token));
        }
        let when = Instant::now() + after;
        conn.deadline = Some((when, kind));
        self.deadlines.insert((when, token));
    }

    fn clear_deadline(&mut self, token: u64) {
        if let Some(conn) = self.conns.get_mut(&token) {
            if let Some((old, _)) = conn.deadline.take() {
                self.deadlines.remove(&(old, token));
            }
        }
    }

    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        loop {
            let Some(&(when, token)) = self.deadlines.iter().next() else {
                return;
            };
            if when > now {
                return;
            }
            self.deadlines.remove(&(when, token));
            let kind = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    continue;
                };
                match conn.deadline {
                    Some((w, kind)) if w == when => {
                        conn.deadline = None;
                        kind
                    }
                    _ => continue, // stale entry for a re-armed timer
                }
            };
            self.app.metrics.add(Series::DeadlineCloses, 1);
            match kind {
                DeadlineKind::Idle | DeadlineKind::Write => self.teardown(token),
                DeadlineKind::Read => {
                    // Mid-request stall: answer 408 and close. The
                    // request never parsed, so no handler ran.
                    let resp = Response::error(
                        408,
                        "request-timeout",
                        "request did not complete within the read deadline",
                    );
                    self.app
                        .metrics
                        .record_latency(Endpoint::Other, Outcome::Error, 0);
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.discard_input = true;
                        conn.inbuf.clear();
                    }
                    self.queue_response(token, &resp, true);
                }
            }
        }
    }

    // ---- teardown ---------------------------------------------------

    fn teardown(&mut self, token: u64) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        if let Some((when, _)) = conn.deadline.take() {
            self.deadlines.remove(&(when, token));
        }
        let _ = self.epoll.delete(conn.stream.as_raw_fd());
        // Final courtesy drain: unread bytes at close make the kernel
        // send RST, which can destroy a response still in flight (the
        // PR 4 trap). Nonblocking, so this is a handful of reads at most.
        let mut buf = [0u8; 4096];
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(_) => break,
            }
        }
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        self.app.broadcast().unsubscribe(token);
    }
}
