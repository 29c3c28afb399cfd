//! Idempotent-request deduplication.
//!
//! The retrying client stamps each *logical* call with an idempotency
//! key; the server remembers the first **completed** response per key
//! and answers every later request carrying that key from memory,
//! byte-identically, without re-executing. That is what makes a retry
//! after a torn response (connection reset, truncated or corrupted
//! frame — the evaluation already ran, only the answer was lost) both
//! safe and exact.
//!
//! State machine per key:
//!
//! * **absent** → the first claimer becomes the *owner* and executes;
//! * **in flight** → later claimers block until the owner finishes (a
//!   retry racing its own first attempt must not re-execute);
//! * **done** → the stored response is cloned back instantly;
//! * **aborted** (owner failed or panicked) → the entry is removed and
//!   the next claimer becomes the new owner — failed attempts committed
//!   nothing, so re-execution is correct.
//!
//! Only *successful* responses are remembered: caching a transient
//! failure would turn every retry of it into the same failure forever.
//! Completed entries are evicted FIFO past `capacity`; in-flight entries
//! are never evicted (they are bounded by the admission gate's permits).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use crate::protocol::Response;

#[derive(Debug, Clone)]
enum Slot {
    InFlight,
    Done(Response),
}

#[derive(Debug, Default)]
struct State {
    /// Insertion-ordered (FIFO eviction); the working set is small, so a
    /// scan beats a hashed structure, mirroring the scenario LRU.
    entries: VecDeque<(u64, Slot)>,
}

impl State {
    fn position(&self, key: u64) -> Option<usize> {
        self.entries.iter().position(|(k, _)| *k == key)
    }
}

/// The outcome of [`DedupMap::begin`].
pub(crate) enum Begin<'a> {
    /// This caller owns the key: execute, then [`Claim::complete`] (or
    /// drop the claim to abort and free the key).
    Owner(Claim<'a>),
    /// The key already completed; here is the remembered response.
    Replay(Response),
}

/// A bounded map from idempotency keys to completed responses.
#[derive(Debug)]
pub(crate) struct DedupMap {
    capacity: usize,
    state: Mutex<State>,
    settled: Condvar,
}

impl DedupMap {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            state: Mutex::new(State::default()),
            settled: Condvar::new(),
        }
    }

    /// How many keys (in-flight and completed) are resident.
    pub(crate) fn len(&self) -> usize {
        self.state.lock().expect("dedup lock").entries.len()
    }

    /// Claims `key`: returns [`Begin::Owner`] when this caller must
    /// execute, or [`Begin::Replay`] with the remembered response.
    /// Blocks while another claimer holds the key in flight.
    pub(crate) fn begin(&self, key: u64) -> Begin<'_> {
        let mut state = self.state.lock().expect("dedup lock");
        loop {
            match state.position(key) {
                None => {
                    if state.entries.len() >= self.capacity {
                        // Evict the oldest *completed* entry; in-flight
                        // entries have live waiters and must survive.
                        if let Some(pos) = state
                            .entries
                            .iter()
                            .position(|(_, slot)| matches!(slot, Slot::Done(_)))
                        {
                            state.entries.remove(pos);
                        }
                    }
                    state.entries.push_back((key, Slot::InFlight));
                    return Begin::Owner(Claim { map: self, key });
                }
                Some(pos) => match &state.entries[pos].1 {
                    Slot::Done(response) => return Begin::Replay(response.clone()),
                    Slot::InFlight => {
                        state = self.settled.wait(state).expect("dedup lock");
                    }
                },
            }
        }
    }

    fn settle(&self, key: u64, outcome: Option<&Response>) {
        let mut state = self.state.lock().expect("dedup lock");
        if let Some(pos) = state.position(key) {
            match outcome {
                Some(response) => state.entries[pos].1 = Slot::Done(response.clone()),
                None => {
                    state.entries.remove(pos);
                }
            }
        }
        drop(state);
        self.settled.notify_all();
    }
}

/// Ownership of one in-flight key. Dropping the claim without
/// [`Claim::complete`] **aborts**: the key is freed so a retry can
/// re-execute — this is the panic-safety path (the worker's
/// `catch_unwind` unwinds through this drop).
#[derive(Debug)]
pub(crate) struct Claim<'a> {
    map: &'a DedupMap,
    key: u64,
}

impl Claim<'_> {
    /// Commits `response` as the key's remembered answer and releases
    /// the waiters.
    pub(crate) fn complete(self, response: &Response) {
        self.map.settle(self.key, Some(response));
        std::mem::forget(self);
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.map.settle(self.key, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Payload;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    fn pong(id: u64) -> Response {
        Response::success(Some(id), Payload::Pong)
    }

    #[test]
    fn owner_completes_then_replays() {
        let map = DedupMap::new(8);
        let Begin::Owner(claim) = map.begin(7) else {
            panic!("first claim must own");
        };
        claim.complete(&pong(1));
        let Begin::Replay(response) = map.begin(7) else {
            panic!("completed key must replay");
        };
        assert_eq!(response, pong(1));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn abort_frees_the_key_for_reexecution() {
        let map = DedupMap::new(8);
        let Begin::Owner(claim) = map.begin(7) else {
            panic!("first claim must own");
        };
        drop(claim); // abort
        let Begin::Owner(claim) = map.begin(7) else {
            panic!("aborted key must be claimable again");
        };
        claim.complete(&pong(2));
        let Begin::Replay(response) = map.begin(7) else {
            panic!("completed key must replay");
        };
        assert_eq!(response, pong(2));
    }

    #[test]
    fn waiters_block_until_the_owner_settles() {
        let map = Arc::new(DedupMap::new(8));
        let Begin::Owner(claim) = map.begin(42) else {
            panic!("first claim must own");
        };
        let waiter = {
            let map = Arc::clone(&map);
            thread::spawn(move || match map.begin(42) {
                Begin::Replay(response) => response,
                Begin::Owner(_) => panic!("waiter must replay, not re-own"),
            })
        };
        thread::sleep(Duration::from_millis(50)); // waiter blocks
        claim.complete(&pong(9));
        assert_eq!(waiter.join().expect("waiter"), pong(9));
    }

    #[test]
    fn waiter_inherits_ownership_after_abort() {
        let map = Arc::new(DedupMap::new(8));
        let Begin::Owner(claim) = map.begin(42) else {
            panic!("first claim must own");
        };
        let waiter = {
            let map = Arc::clone(&map);
            thread::spawn(move || match map.begin(42) {
                Begin::Owner(claim) => {
                    claim.complete(&pong(3));
                    true
                }
                Begin::Replay(_) => false,
            })
        };
        thread::sleep(Duration::from_millis(50));
        drop(claim); // abort: the waiter must become the new owner
        assert!(waiter.join().expect("waiter"), "waiter must re-own");
    }

    #[test]
    fn eviction_is_fifo_over_completed_entries() {
        let map = DedupMap::new(2);
        for key in 0..2 {
            let Begin::Owner(claim) = map.begin(key) else {
                panic!("own");
            };
            claim.complete(&pong(key));
        }
        // A third key evicts the oldest completed entry (key 0).
        let Begin::Owner(claim) = map.begin(2) else {
            panic!("own");
        };
        claim.complete(&pong(2));
        assert_eq!(map.len(), 2);
        assert!(matches!(map.begin(1), Begin::Replay(_)), "key 1 survives");
        // Reclaiming the evicted key makes its caller the owner again
        // (and, at capacity, evicts the now-oldest completed entry).
        assert!(
            matches!(map.begin(0), Begin::Owner(_)),
            "evicted key re-owns"
        );
    }

    #[test]
    fn in_flight_entries_survive_eviction_pressure() {
        let map = DedupMap::new(1);
        let Begin::Owner(first) = map.begin(1) else {
            panic!("own");
        };
        // Capacity is 1 and the only entry is in flight: the new key
        // must still be admitted without evicting the live claim.
        let Begin::Owner(second) = map.begin(2) else {
            panic!("own");
        };
        second.complete(&pong(2));
        first.complete(&pong(1));
        assert!(matches!(map.begin(1), Begin::Replay(_)));
    }
}
