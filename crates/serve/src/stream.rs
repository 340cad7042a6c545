//! Live trace streaming: rooms, fan-out, and the worker→loop channel.
//!
//! Every leader execution opens a **room** keyed by the run's cache
//! fingerprint and publishes each §6 trace event into it as one JSONL
//! line. Two kinds of subscriber tap a room:
//!
//! - **Runners** — connections that asked `POST /run?stream=1`. They get
//!   the event lines; their *final* result line is delivered by their
//!   own job's completion (leader, follower, or cache hit — the normal
//!   `/run` pipeline), never by the room. This is what makes a streamed
//!   run's final bytes provably equal to an unstreamed run's body.
//! - **Watchers** — `GET /watch/<fingerprint>` connections tailing a
//!   flight someone else started. They get the event lines, then the
//!   shared response body as a final line when the room closes.
//!
//! All delivery goes through [`LoopSender`]: a mutex-guarded FIFO plus
//! an eventfd the event loop polls. One queue for every producer means
//! event lines always precede the final line for any one connection —
//! ordering is by construction, not by locking discipline.
//!
//! When nobody subscribes to a room, the tap's per-event check is a
//! single relaxed atomic load of the room's subscriber count
//! ([`Room::is_watched`]), preserving the zero-cost NullSink path end to
//! end.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::http::Response;
use crate::sys::EventFd;

/// A message from a worker thread (or the shutdown path) to the event
/// loop. `token` addresses the connection the message is for; a token
/// whose connection has gone away is silently dropped.
pub enum LoopMsg {
    /// A dispatched request finished; write `response` on the connection.
    Done {
        /// Target connection.
        token: u64,
        /// The rendered-body response to write.
        response: Response,
    },
    /// A streaming run was admitted: write the chunked stream head.
    StreamStart {
        /// Target connection.
        token: u64,
        /// Whether the subscriber negotiated the binary frame format
        /// (`Accept: application/x-mcdt`); selects the stream head.
        binary: bool,
    },
    /// One event payload for an open stream: a newline-terminated JSONL
    /// line for NDJSON subscribers, or one CRC'd frame for binary ones.
    /// Either way the loop wraps it as one HTTP chunk.
    StreamLine {
        /// Target connection.
        token: u64,
        /// The payload bytes.
        data: Arc<[u8]>,
    },
    /// A stream is complete: optionally write a final payload, then the
    /// terminating chunk, then close.
    StreamEnd {
        /// Target connection.
        token: u64,
        /// Final payload (the `/run` response body as a line or meta
        /// frame) for runner streams; `None` for watcher streams, whose
        /// final arrives as a [`LoopMsg::StreamLine`] at room close.
        final_chunk: Option<Vec<u8>>,
    },
    /// Begin graceful drain: stop accepting, finish in-flight work.
    Shutdown,
}

struct LoopShared {
    queue: Mutex<VecDeque<LoopMsg>>,
    wake: EventFd,
}

/// Cloneable sending half of the worker→loop channel. The loop holds a
/// clone too and drains it each time the eventfd reports readable.
#[derive(Clone)]
pub struct LoopSender {
    shared: Arc<LoopShared>,
}

impl LoopSender {
    /// Creates the channel (allocates the eventfd).
    pub fn new() -> io::Result<LoopSender> {
        Ok(LoopSender {
            shared: Arc::new(LoopShared {
                queue: Mutex::new(VecDeque::new()),
                wake: EventFd::new()?,
            }),
        })
    }

    /// Enqueues a message and wakes the loop.
    pub fn send(&self, msg: LoopMsg) {
        self.shared
            .queue
            .lock()
            .expect("loop queue poisoned")
            .push_back(msg);
        self.shared.wake.signal();
    }

    /// The eventfd the loop registers for `EPOLLIN`.
    pub(crate) fn wake_fd(&self) -> std::os::unix::io::RawFd {
        self.shared.wake.fd()
    }

    /// Drains everything queued (loop side). Resets the eventfd first so
    /// a send racing the drain leaves the fd readable for the next wait.
    pub(crate) fn drain(&self) -> VecDeque<LoopMsg> {
        self.shared.wake.drain();
        std::mem::take(&mut *self.shared.queue.lock().expect("loop queue poisoned"))
    }
}

/// Which delivery contract a subscriber signed up for (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubKind {
    /// A `POST /run?stream=1` connection: events only; final line comes
    /// from its own job.
    Runner,
    /// A `GET /watch/...` connection: events, then the shared final
    /// line and stream end at room close.
    Watcher,
}

struct Sub {
    token: u64,
    kind: SubKind,
    /// Deliver binary frames instead of JSONL lines.
    binary: bool,
}

/// One published event, pre-rendered in both wire encodings so a mixed
/// room (NDJSON and binary subscribers) pays each encoding exactly once
/// and the backlog replays correctly to either kind of late watcher.
#[derive(Clone)]
struct StreamItem {
    /// The newline-terminated JSONL line.
    text: Arc<[u8]>,
    /// The equivalent self-contained binary frame.
    frame: Arc<[u8]>,
}

impl StreamItem {
    fn payload(&self, binary: bool) -> Arc<[u8]> {
        if binary {
            Arc::clone(&self.frame)
        } else {
            Arc::clone(&self.text)
        }
    }
}

/// Most-recent event lines a room retains for late subscribers. Bounded
/// so a watched multi-million-event run holds a window, not the whole
/// stream: a watcher attaching mid-flight sees the recent past and then
/// follows live, exactly like `tail -f`.
pub const BACKLOG_CAP: usize = 256;

/// Everything that must stay mutually consistent under one lock: who is
/// subscribed, and which lines they have already been sent. Replaying
/// the backlog to a new watcher happens under this same lock, so a
/// concurrent publish is either fully before the attach (line is in the
/// backlog, replayed) or fully after (subscriber is registered,
/// delivered live) — never both, never neither.
struct RoomState {
    subs: Vec<Sub>,
    backlog: VecDeque<StreamItem>,
}

/// One in-flight execution's fan-out point.
pub struct Room {
    state: Mutex<RoomState>,
    /// Mirrors `state.subs.len()`, readable without the lock — this is
    /// the per-event "anyone listening?" check on the simulation hot
    /// path. (It also gates event serialization, so the backlog only
    /// accumulates while someone subscribes: unwatched runs keep the
    /// zero-cost NullSink path and retain nothing.)
    sub_count: AtomicUsize,
    /// True while a leader execution is feeding the room. Watch requests
    /// only attach to active rooms; subscribing can race the close, in
    /// which case the subscriber is cleaned up at connection teardown.
    active: std::sync::atomic::AtomicBool,
}

impl Room {
    fn new() -> Room {
        Room {
            state: Mutex::new(RoomState {
                subs: Vec::new(),
                backlog: VecDeque::new(),
            }),
            sub_count: AtomicUsize::new(0),
            active: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Whether anyone is subscribed right now (relaxed; hot path).
    pub fn is_watched(&self) -> bool {
        self.sub_count.load(Ordering::Relaxed) > 0
    }

    fn push(&self, token: u64, kind: SubKind, binary: bool) {
        let mut st = self.state.lock().expect("room state poisoned");
        if st.subs.iter().any(|s| s.token == token) {
            return;
        }
        st.subs.push(Sub {
            token,
            kind,
            binary,
        });
        self.sub_count.store(st.subs.len(), Ordering::Relaxed);
    }

    fn remove(&self, token: u64) -> bool {
        let mut st = self.state.lock().expect("room state poisoned");
        let before = st.subs.len();
        st.subs.retain(|s| s.token != token);
        self.sub_count.store(st.subs.len(), Ordering::Relaxed);
        st.subs.len() != before
    }
}

/// The room registry: one per server, shared by workers (open, publish,
/// close) and the event loop (watch, unsubscribe-on-teardown).
pub struct Broadcast {
    rooms: Mutex<HashMap<String, Arc<Room>>>,
    tx: LoopSender,
    /// Event payloads fanned out to subscribers, cumulative (both
    /// encodings).
    events_published: AtomicU64,
    /// Binary frames among those deliveries, cumulative.
    frames_published: AtomicU64,
}

impl Broadcast {
    /// Creates an empty registry delivering through `tx`.
    pub fn new(tx: LoopSender) -> Broadcast {
        Broadcast {
            rooms: Mutex::new(HashMap::new()),
            tx,
            events_published: AtomicU64::new(0),
            frames_published: AtomicU64::new(0),
        }
    }

    fn room(&self, key: &str) -> Arc<Room> {
        let mut rooms = self.rooms.lock().expect("room registry poisoned");
        Arc::clone(
            rooms
                .entry(key.to_string())
                .or_insert_with(|| Arc::new(Room::new())),
        )
    }

    /// Opens (or reuses) the room for `key` and marks it active. Called
    /// by the flight leader before execution starts.
    pub fn open(&self, key: &str) -> Arc<Room> {
        let room = self.room(key);
        room.active.store(true, Ordering::SeqCst);
        room
    }

    /// Subscribes a streaming-run connection to `key`'s room, creating
    /// the room if the leader has not opened it yet (the leader's
    /// `open` will then find it). `binary` selects frame delivery.
    pub fn subscribe(&self, key: &str, token: u64, binary: bool) {
        self.room(key).push(token, SubKind::Runner, binary);
    }

    /// Attaches a watcher to `key`'s room **only if** a flight is
    /// actively feeding it. Returns whether the subscription happened.
    ///
    /// A successful attach immediately replays the room's backlog — the
    /// most recent [`BACKLOG_CAP`] event lines published while the room
    /// was watched — to the new token, *under the same lock `publish`
    /// takes*, so the replayed prefix and the live tail form one gapless,
    /// duplicate-free stream.
    pub fn watch(&self, key: &str, token: u64, binary: bool) -> bool {
        let room = {
            let rooms = self.rooms.lock().expect("room registry poisoned");
            rooms.get(key).cloned()
        };
        match room {
            Some(room) if room.active.load(Ordering::SeqCst) => {
                let mut st = room.state.lock().expect("room state poisoned");
                if !st.subs.iter().any(|s| s.token == token) {
                    st.subs.push(Sub {
                        token,
                        kind: SubKind::Watcher,
                        binary,
                    });
                    room.sub_count.store(st.subs.len(), Ordering::Relaxed);
                    self.events_published
                        .fetch_add(st.backlog.len() as u64, Ordering::Relaxed);
                    if binary {
                        self.frames_published
                            .fetch_add(st.backlog.len() as u64, Ordering::Relaxed);
                    }
                    for item in st.backlog.iter() {
                        self.tx.send(LoopMsg::StreamLine {
                            token,
                            data: item.payload(binary),
                        });
                    }
                }
                true
            }
            _ => false,
        }
    }

    /// Fans one event out to every subscriber of `room` — the JSONL
    /// `text` to NDJSON subscribers, the binary `frame` to frame
    /// subscribers — and appends both encodings to the room's bounded
    /// replay backlog for late watchers.
    pub fn publish(&self, room: &Room, text: &str, frame: &[u8]) {
        let mut st = room.state.lock().expect("room state poisoned");
        let item = StreamItem {
            text: Arc::from(text.as_bytes()),
            frame: Arc::from(frame),
        };
        if st.backlog.len() == BACKLOG_CAP {
            st.backlog.pop_front();
        }
        st.backlog.push_back(item.clone());
        if st.subs.is_empty() {
            return;
        }
        self.events_published
            .fetch_add(st.subs.len() as u64, Ordering::Relaxed);
        let frames = st.subs.iter().filter(|s| s.binary).count() as u64;
        self.frames_published.fetch_add(frames, Ordering::Relaxed);
        for sub in st.subs.iter() {
            self.tx.send(LoopMsg::StreamLine {
                token: sub.token,
                data: item.payload(sub.binary),
            });
        }
    }

    /// Closes `key`'s room: watchers receive `final_line` and a stream
    /// end; runner subscriptions are dropped (their own jobs deliver
    /// their finals). The room leaves the registry, so late watch
    /// requests see 404 rather than a stream that will never move.
    pub fn close(&self, key: &str, final_line: &str, final_frame: &[u8]) {
        let room = {
            let mut rooms = self.rooms.lock().expect("room registry poisoned");
            rooms.remove(key)
        };
        let Some(room) = room else { return };
        room.active.store(false, Ordering::SeqCst);
        let mut st = room.state.lock().expect("room state poisoned");
        st.backlog.clear();
        let final_item = StreamItem {
            text: Arc::from(final_line.as_bytes()),
            frame: Arc::from(final_frame),
        };
        for sub in st.subs.drain(..) {
            if sub.kind == SubKind::Watcher {
                self.tx.send(LoopMsg::StreamLine {
                    token: sub.token,
                    data: final_item.payload(sub.binary),
                });
                self.tx.send(LoopMsg::StreamEnd {
                    token: sub.token,
                    final_chunk: None,
                });
            }
        }
        room.sub_count.store(0, Ordering::Relaxed);
    }

    /// Removes `token` from every room (connection teardown) and
    /// garbage-collects rooms that are inactive and empty — the
    /// "no leaked fan-out registrations" invariant.
    pub fn unsubscribe(&self, token: u64) {
        let mut rooms = self.rooms.lock().expect("room registry poisoned");
        rooms.retain(|_, room| {
            room.remove(token);
            room.active.load(Ordering::SeqCst) || room.sub_count.load(Ordering::Relaxed) > 0
        });
    }

    /// Total live subscriptions across all rooms (gauge).
    pub fn subscribers(&self) -> usize {
        let rooms = self.rooms.lock().expect("room registry poisoned");
        rooms
            .values()
            .map(|r| r.sub_count.load(Ordering::Relaxed))
            .sum()
    }

    /// Rooms currently registered (gauge).
    pub fn rooms(&self) -> usize {
        self.rooms.lock().expect("room registry poisoned").len()
    }

    /// Event payloads fanned out so far, both encodings (counter).
    pub fn events_published(&self) -> u64 {
        self.events_published.load(Ordering::Relaxed)
    }

    /// Binary frames among those deliveries (counter).
    pub fn frames_published(&self) -> u64 {
        self.frames_published.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_tokens(tx: &LoopSender) -> Vec<(u64, &'static str)> {
        tx.drain()
            .into_iter()
            .map(|m| match m {
                LoopMsg::StreamLine { token, .. } => (token, "line"),
                LoopMsg::StreamEnd { token, .. } => (token, "end"),
                LoopMsg::Done { token, .. } => (token, "done"),
                LoopMsg::StreamStart { token, .. } => (token, "start"),
                LoopMsg::Shutdown => (0, "shutdown"),
            })
            .collect()
    }

    #[test]
    fn publish_reaches_every_subscriber_and_close_ends_watchers_only() {
        let tx = LoopSender::new().expect("eventfd");
        let b = Broadcast::new(tx.clone());
        let room = b.open("k");
        assert!(!room.is_watched(), "empty room is unwatched");
        b.subscribe("k", 10, false); // runner
        assert!(b.watch("k", 20, false), "active room accepts watchers");
        assert!(room.is_watched());
        assert_eq!(b.subscribers(), 2);

        b.publish(&room, "{\"e\":1}\n", b"\xe1frame");
        let msgs = drain_tokens(&tx);
        assert!(msgs.contains(&(10, "line")) && msgs.contains(&(20, "line")));
        assert_eq!(b.events_published(), 2, "one line × two subscribers");
        assert_eq!(b.frames_published(), 0, "no binary subscribers yet");

        b.close("k", "{\"final\":true}\n", b"\xe0final");
        let msgs = drain_tokens(&tx);
        // Watcher 20 gets final line + end; runner 10 gets nothing more.
        assert!(msgs.contains(&(20, "line")) && msgs.contains(&(20, "end")));
        assert!(!msgs.iter().any(|(t, _)| *t == 10));
        assert_eq!(b.rooms(), 0, "closed rooms leave the registry");
        assert!(!b.watch("k", 30, false), "closed rooms refuse watchers");
    }

    #[test]
    fn binary_subscribers_get_frames_and_text_subscribers_get_lines() {
        let tx = LoopSender::new().expect("eventfd");
        let b = Broadcast::new(tx.clone());
        let room = b.open("k");
        b.subscribe("k", 1, false);
        assert!(b.watch("k", 2, true), "binary watcher attaches");

        b.publish(&room, "text\n", b"FRAME");
        let payloads: Vec<(u64, Vec<u8>)> = tx
            .drain()
            .into_iter()
            .filter_map(|m| match m {
                LoopMsg::StreamLine { token, data } => Some((token, data.to_vec())),
                _ => None,
            })
            .collect();
        assert!(payloads.contains(&(1, b"text\n".to_vec())));
        assert!(payloads.contains(&(2, b"FRAME".to_vec())));
        assert_eq!(b.frames_published(), 1, "one frame delivery");
        assert_eq!(b.events_published(), 2, "two deliveries total");

        // A late binary watcher replays the backlog as frames.
        assert!(b.watch("k", 3, true));
        let replayed: Vec<Vec<u8>> = tx
            .drain()
            .into_iter()
            .filter_map(|m| match m {
                LoopMsg::StreamLine { token: 3, data } => Some(data.to_vec()),
                _ => None,
            })
            .collect();
        assert_eq!(replayed, vec![b"FRAME".to_vec()]);

        // Close delivers each watcher its own encoding of the final.
        b.close("k", "final\n", b"METAFRAME");
        let finals: Vec<(u64, Vec<u8>)> = tx
            .drain()
            .into_iter()
            .filter_map(|m| match m {
                LoopMsg::StreamLine { token, data } => Some((token, data.to_vec())),
                _ => None,
            })
            .collect();
        assert!(finals.contains(&(2, b"METAFRAME".to_vec())));
        assert!(finals.contains(&(3, b"METAFRAME".to_vec())));
        assert!(!finals.iter().any(|(t, _)| *t == 1), "runner gets no final");
    }

    #[test]
    fn unsubscribe_garbage_collects_inactive_rooms() {
        let tx = LoopSender::new().expect("eventfd");
        let b = Broadcast::new(tx);
        // A runner subscribing before the leader opened the room — then
        // the leader never comes (e.g. its flight hit the cache).
        b.subscribe("orphan", 7, false);
        assert_eq!(b.rooms(), 1);
        b.unsubscribe(7);
        assert_eq!(b.rooms(), 0, "empty inactive room collected");
        assert_eq!(b.subscribers(), 0);

        // An active room survives losing its last subscriber.
        let room = b.open("live");
        b.subscribe("live", 8, false);
        b.unsubscribe(8);
        assert_eq!(b.rooms(), 1, "active room persists for the leader");
        assert!(!room.is_watched());
        b.close("live", "x\n", b"x");
        assert_eq!(b.rooms(), 0);
    }

    fn drain_lines_for(tx: &LoopSender, token: u64) -> Vec<String> {
        tx.drain()
            .into_iter()
            .filter_map(|m| match m {
                LoopMsg::StreamLine { token: t, data } if t == token => {
                    Some(String::from_utf8_lossy(&data).into_owned())
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn late_watchers_replay_the_bounded_backlog_then_follow_live() {
        let tx = LoopSender::new().expect("eventfd");
        let b = Broadcast::new(tx.clone());
        let room = b.open("k");
        b.subscribe("k", 1, false); // a runner keeps the room watched
        for i in 0..300 {
            b.publish(&room, &format!("{i}\n"), &[i as u8]);
        }
        tx.drain();

        // The late watcher gets exactly the newest BACKLOG_CAP lines, in
        // publish order, as its replayed prefix.
        assert!(b.watch("k", 2, false));
        let replayed = drain_lines_for(&tx, 2);
        assert_eq!(replayed.len(), BACKLOG_CAP);
        assert_eq!(replayed.first().map(String::as_str), Some("44\n"));
        assert_eq!(replayed.last().map(String::as_str), Some("299\n"));

        // A duplicate attach neither re-subscribes nor re-replays.
        assert!(b.watch("k", 2, false));
        assert!(drain_lines_for(&tx, 2).is_empty());
        assert_eq!(b.subscribers(), 2);

        // Live lines resume after the replayed prefix with no gap or dup.
        b.publish(&room, "live\n", b"live");
        assert_eq!(drain_lines_for(&tx, 2), ["live\n"]);

        // Close still ends watchers with the final line; the backlog is
        // not replayed again to anyone.
        b.close("k", "final\n", b"final");
        assert_eq!(drain_lines_for(&tx, 2), ["final\n"]);
    }

    #[test]
    fn duplicate_subscriptions_collapse() {
        let tx = LoopSender::new().expect("eventfd");
        let b = Broadcast::new(tx.clone());
        let room = b.open("k");
        b.subscribe("k", 5, false);
        b.subscribe("k", 5, true);
        assert_eq!(b.subscribers(), 1);
        b.publish(&room, "x\n", b"x");
        assert_eq!(drain_tokens(&tx).len(), 1);
        b.close("k", "f\n", b"f");
    }

    #[test]
    fn sender_queue_is_fifo() {
        let tx = LoopSender::new().expect("eventfd");
        tx.send(LoopMsg::StreamStart {
            token: 1,
            binary: false,
        });
        tx.send(LoopMsg::StreamLine {
            token: 1,
            data: Arc::from(&b"a\n"[..]),
        });
        tx.send(LoopMsg::StreamEnd {
            token: 1,
            final_chunk: None,
        });
        let kinds: Vec<&str> = tx
            .drain()
            .into_iter()
            .map(|m| match m {
                LoopMsg::StreamStart { .. } => "start",
                LoopMsg::StreamLine { .. } => "line",
                LoopMsg::StreamEnd { .. } => "end",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, ["start", "line", "end"]);
    }
}
