//! Request coalescing: concurrent identical requests share one run.
//!
//! Requests are identical when their configuration fingerprints match
//! (`checkpoint::fingerprint` plus the experiment id — everything that
//! shapes response bytes). The first arrival for a fingerprint becomes
//! the **leader** and executes the run; everyone who arrives while it is
//! in flight becomes a **follower** and waits on the leader's flight.
//! The leader publishes one `Arc`'d response that every member of the
//! flight returns verbatim — duplicates are byte-identical by
//! construction, because there is only one byte buffer.
//!
//! Lifecycle invariant: a flight is removed from the index *in the same
//! lock hold* that publishes its value, so a request arriving after
//! publication can never join a dead flight — it either hits the result
//! cache (the leader fills it before publishing) or becomes a fresh
//! leader. Follower waits are bounded; a leader that somehow never
//! publishes costs its followers a timeout, not a deadlock.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One in-flight computation; followers block on [`Flight::wait`].
pub struct Flight<T> {
    slot: Mutex<Option<Arc<T>>>,
    ready: Condvar,
}

impl<T> Flight<T> {
    fn new() -> Flight<T> {
        Flight {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn publish(&self, value: Arc<T>) {
        let mut slot = self.slot.lock().expect("flight slot poisoned");
        *slot = Some(value);
        drop(slot);
        self.ready.notify_all();
    }

    /// Blocks until the leader publishes, or `timeout` elapses (`None`).
    /// A timeout too large for the clock waits without a deadline.
    pub fn wait(&self, timeout: Duration) -> Option<Arc<T>> {
        let deadline = Instant::now().checked_add(timeout);
        let mut slot = self.slot.lock().expect("flight slot poisoned");
        loop {
            if let Some(v) = slot.as_ref() {
                return Some(Arc::clone(v));
            }
            slot = match deadline {
                None => self.ready.wait(slot).expect("flight slot poisoned"),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    self.ready
                        .wait_timeout(slot, deadline - now)
                        .expect("flight slot poisoned")
                        .0
                }
            };
        }
    }
}

/// What [`Coalescer::join`] hands back.
pub enum Ticket<T> {
    /// This request runs the computation and must eventually
    /// [`Coalescer::publish`] for its key.
    Leader,
    /// This request waits on an existing flight.
    Follower(Arc<Flight<T>>),
}

/// The flight index: fingerprint → in-flight computation.
pub struct Coalescer<T> {
    flights: Mutex<HashMap<String, Arc<Flight<T>>>>,
}

impl<T> Default for Coalescer<T> {
    fn default() -> Self {
        Coalescer {
            flights: Mutex::new(HashMap::new()),
        }
    }
}

impl<T> Coalescer<T> {
    /// Joins the flight for `key`, creating it (and becoming leader) if
    /// none is in flight.
    pub fn join(&self, key: &str) -> Ticket<T> {
        let mut flights = self.flights.lock().expect("flight index poisoned");
        match flights.get(key) {
            Some(flight) => Ticket::Follower(Arc::clone(flight)),
            None => {
                flights.insert(key.to_string(), Arc::new(Flight::new()));
                Ticket::Leader
            }
        }
    }

    /// Publishes the leader's result for `key` and retires the flight.
    /// Removal and publication happen under one index lock hold, so no
    /// later arrival can join a flight that already completed.
    pub fn publish(&self, key: &str, value: Arc<T>) {
        let mut flights = self.flights.lock().expect("flight index poisoned");
        if let Some(flight) = flights.remove(key) {
            flight.publish(value);
        }
    }

    /// Flights currently in the index (for metrics/tests).
    pub fn in_flight(&self) -> usize {
        self.flights.lock().expect("flight index poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_join_leads_second_follows() {
        let c: Coalescer<u32> = Coalescer::default();
        assert!(matches!(c.join("k"), Ticket::Leader));
        let Ticket::Follower(flight) = c.join("k") else {
            panic!("second join must follow");
        };
        assert_eq!(c.in_flight(), 1);
        c.publish("k", Arc::new(7));
        assert_eq!(*flight.wait(Duration::from_secs(1)).expect("published"), 7);
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn after_publish_the_next_join_leads_again() {
        let c: Coalescer<u32> = Coalescer::default();
        assert!(matches!(c.join("k"), Ticket::Leader));
        c.publish("k", Arc::new(1));
        assert!(matches!(c.join("k"), Ticket::Leader), "flight was retired");
    }

    #[test]
    fn followers_share_one_allocation() {
        let c: Coalescer<String> = Coalescer::default();
        assert!(matches!(c.join("k"), Ticket::Leader));
        let followers: Vec<Arc<Flight<String>>> = (0..4)
            .map(|_| match c.join("k") {
                Ticket::Follower(f) => f,
                Ticket::Leader => panic!("flight already exists"),
            })
            .collect();
        let value = Arc::new("body".to_string());
        c.publish("k", Arc::clone(&value));
        for f in followers {
            let got = f.wait(Duration::from_secs(1)).expect("published");
            assert!(Arc::ptr_eq(&got, &value), "bytes are shared, not copied");
        }
    }

    #[test]
    fn wait_times_out_when_leader_never_publishes() {
        let c: Coalescer<u32> = Coalescer::default();
        assert!(matches!(c.join("k"), Ticket::Leader));
        let Ticket::Follower(flight) = c.join("k") else {
            panic!("second join must follow");
        };
        assert!(flight.wait(Duration::from_millis(30)).is_none());
    }

    #[test]
    fn a_timeout_past_the_clocks_range_waits_for_the_leader() {
        let c: Arc<Coalescer<u32>> = Arc::default();
        assert!(matches!(c.join("k"), Ticket::Leader));
        let Ticket::Follower(flight) = c.join("k") else {
            panic!("second join must follow");
        };
        let leader = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                c.publish("k", Arc::new(9));
            })
        };
        assert_eq!(*flight.wait(Duration::MAX).expect("published"), 9);
        leader.join().expect("leader publishes");
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let c: Coalescer<u32> = Coalescer::default();
        assert!(matches!(c.join("a"), Ticket::Leader));
        assert!(matches!(c.join("b"), Ticket::Leader));
        assert_eq!(c.in_flight(), 2);
    }
}
