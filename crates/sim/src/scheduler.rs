//! Event scheduling for the simulator core: the ordered event queue and
//! its deterministic tie-break contract.
//!
//! The engine no longer walks every clock edge of every domain. Each main
//! loop iteration dispatches exactly one *event* from a fixed population:
//!
//! * [`EventKind::Sample`] — the 4 ns queue-occupancy sampling tick that
//!   drives every DVFS controller (one recurring event).
//! * [`EventKind::Edge`] — the next clock edge of an *awake* domain (one
//!   per awake domain).
//! * [`EventKind::Wake`] — the scheduled end of a *sleeping* domain's
//!   provably-uneventful interval (one per sleeping domain). Processing a
//!   wake replays the domain's skipped edges in a closed loop (see
//!   `engine.rs`) and returns it to the awake population.
//!
//! # Tie-break ordering contract
//!
//! Events are totally ordered by `(time, rank)` with ranks
//!
//! | rank | event                 |
//! |------|-----------------------|
//! | 0    | `Sample`              |
//! | 1    | `Edge`/`Wake` front end |
//! | 2    | `Edge`/`Wake` integer |
//! | 3    | `Edge`/`Wake` floating-point |
//! | 4    | `Edge`/`Wake` load/store |
//!
//! At equal timestamps the sample fires first, then domains in index
//! order. This is exactly the order the original per-cycle loop produced
//! with its strict `<` five-way minimum, so the event-driven core replays
//! history identically; it is frozen as a contract here (and unit-tested
//! below) because every golden report depends on it.
//!
//! [`pick_next`] is the queue's pop operation. The population is small and
//! statically known (≤ 5 live events), so the "queue" is an indexed
//! five-slot scan rather than a materialized `BinaryHeap` — the
//! [`Event`] `Ord` impl is the same total order, and the tests verify the
//! scan against a real `BinaryHeap<Reverse<Event>>` on randomized
//! populations.

use crate::config::DomainId;
use mcd_power::TimePs;

/// What a scheduled event does when dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The recurring queue-occupancy sample (controller invocation point).
    Sample,
    /// The next clock edge of an awake domain.
    Edge(DomainId),
    /// The scheduled wake-up of a sleeping domain.
    Wake(DomainId),
}

impl EventKind {
    /// Tie-break rank; see the module-level ordering contract.
    pub fn rank(self) -> u8 {
        match self {
            EventKind::Sample => 0,
            EventKind::Edge(d) | EventKind::Wake(d) => 1 + d.index() as u8,
        }
    }
}

/// A scheduled event: totally ordered by `(time, rank)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// When the event fires.
    pub time: TimePs,
    /// What firing it does.
    pub kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.kind.rank()).cmp(&(other.time, other.kind.rank()))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One domain's pending event: its next edge while awake, or its wake
/// deadline while sleeping (`TimePs::new(u64::MAX)` ≈ "woken only by an
/// explicit signal").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainSlot {
    /// Awake: the domain's next clock edge.
    Edge(TimePs),
    /// Asleep: the domain's wake deadline.
    Wake(TimePs),
}

impl DomainSlot {
    fn time(self) -> TimePs {
        match self {
            DomainSlot::Edge(t) | DomainSlot::Wake(t) => t,
        }
    }

    fn kind(self, d: DomainId) -> EventKind {
        match self {
            DomainSlot::Edge(_) => EventKind::Edge(d),
            DomainSlot::Wake(_) => EventKind::Wake(d),
        }
    }
}

/// Pops the earliest event from the live population under the `(time,
/// rank)` order: the strict `<` scan keeps the sample on ties and the
/// lowest-index domain on domain-vs-domain ties.
#[inline]
pub fn pick_next(sample_at: TimePs, domains: &[DomainSlot; 4]) -> Event {
    let mut best = Event {
        time: sample_at,
        kind: EventKind::Sample,
    };
    for (i, slot) in domains.iter().enumerate() {
        let t = slot.time();
        if t < best.time {
            best = Event {
                time: t,
                kind: slot.kind(DomainId::ALL[i]),
            };
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn ps(t: u64) -> TimePs {
        TimePs::new(t)
    }

    /// Reference implementation: a real priority queue over the same
    /// population with the same `(time, rank)` order.
    fn heap_pick(sample_at: TimePs, domains: &[DomainSlot; 4]) -> Event {
        let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
        heap.push(Reverse(Event {
            time: sample_at,
            kind: EventKind::Sample,
        }));
        for (i, slot) in domains.iter().enumerate() {
            heap.push(Reverse(Event {
                time: slot.time(),
                kind: slot.kind(DomainId::ALL[i]),
            }));
        }
        heap.pop().expect("population is non-empty").0
    }

    #[test]
    fn sample_wins_ties_against_every_domain() {
        let domains = [
            DomainSlot::Edge(ps(100)),
            DomainSlot::Edge(ps(100)),
            DomainSlot::Wake(ps(100)),
            DomainSlot::Edge(ps(100)),
        ];
        let ev = pick_next(ps(100), &domains);
        assert_eq!(ev.kind, EventKind::Sample);
        assert_eq!(ev.time, ps(100));
    }

    #[test]
    fn lower_domain_index_wins_ties() {
        let domains = [
            DomainSlot::Edge(ps(50)),
            DomainSlot::Edge(ps(50)),
            DomainSlot::Edge(ps(50)),
            DomainSlot::Edge(ps(50)),
        ];
        let ev = pick_next(ps(51), &domains);
        assert_eq!(ev.kind, EventKind::Edge(DomainId::FrontEnd));
        let domains = [
            DomainSlot::Edge(ps(60)),
            DomainSlot::Edge(ps(50)),
            DomainSlot::Edge(ps(50)),
            DomainSlot::Edge(ps(50)),
        ];
        assert_eq!(
            pick_next(ps(51), &domains).kind,
            EventKind::Edge(DomainId::Int)
        );
    }

    #[test]
    fn wake_ties_like_its_domain_edge() {
        // A sleeping front end's wake at t outranks a back-end edge at t.
        let domains = [
            DomainSlot::Wake(ps(70)),
            DomainSlot::Edge(ps(70)),
            DomainSlot::Edge(ps(90)),
            DomainSlot::Edge(ps(90)),
        ];
        let ev = pick_next(ps(80), &domains);
        assert_eq!(ev.kind, EventKind::Wake(DomainId::FrontEnd));
    }

    #[test]
    fn earliest_time_dominates_rank() {
        let domains = [
            DomainSlot::Edge(ps(500)),
            DomainSlot::Edge(ps(400)),
            DomainSlot::Edge(ps(300)),
            DomainSlot::Edge(ps(200)),
        ];
        let ev = pick_next(ps(600), &domains);
        assert_eq!(ev.kind, EventKind::Edge(DomainId::Ls));
        assert_eq!(ev.time, ps(200));
    }

    #[test]
    fn event_only_sleepers_never_win() {
        let never = ps(u64::MAX);
        let domains = [
            DomainSlot::Wake(never),
            DomainSlot::Wake(never),
            DomainSlot::Wake(never),
            DomainSlot::Wake(never),
        ];
        let ev = pick_next(ps(4000), &domains);
        assert_eq!(ev.kind, EventKind::Sample);
    }

    #[test]
    fn scan_matches_binary_heap_on_randomized_populations() {
        // Deterministic xorshift so the test needs no clock or OS entropy.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..10_000 {
            // Small time range to force frequent ties.
            let t = |v: u64| ps(v % 8);
            let slot = |v: u64| {
                if v & 1 == 0 {
                    DomainSlot::Edge(t(v >> 1))
                } else {
                    DomainSlot::Wake(t(v >> 1))
                }
            };
            let domains = [slot(next()), slot(next()), slot(next()), slot(next())];
            let sample = t(next());
            assert_eq!(pick_next(sample, &domains), heap_pick(sample, &domains));
        }
    }
}
