//! The admission gate: at most `permits` evaluations run at once, each
//! on the connection handler that parsed it, and at most `capacity` more
//! handlers wait; beyond that a request is refused at once so the caller
//! can answer `queue_full`. Closing refuses newcomers but still admits
//! the handlers already waiting. Waiters are not admitted in arrival
//! order: a newcomer may take a released permit before the woken waiter.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Why [`Gate::enter`] refused a handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refused {
    /// Every permit is taken and the waiting room is full — shed the load.
    Full,
    /// The gate was closed — the server is shutting down.
    Closed,
}

struct State {
    running: usize,
    waiting: usize,
    closed: bool,
}

/// A counting gate with a bounded waiting room.
pub(crate) struct Gate {
    permits: usize,
    capacity: usize,
    state: Mutex<State>,
    released: Condvar,
}

impl Gate {
    /// A gate admitting `permits` holders at once and letting `capacity`
    /// more wait (both clamped to ≥ 1).
    pub(crate) fn new(permits: usize, capacity: usize) -> Self {
        Self {
            permits: permits.max(1),
            capacity: capacity.max(1),
            state: Mutex::new(State {
                running: 0,
                waiting: 0,
                closed: false,
            }),
            released: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// How many handlers may wait for a permit.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many handlers wait for a permit right now.
    pub(crate) fn waiting(&self) -> usize {
        self.lock().waiting
    }

    /// Takes a permit, waiting for one if all are held.
    ///
    /// # Errors
    ///
    /// [`Refused::Full`] when every permit is held and `capacity`
    /// handlers already wait, [`Refused::Closed`] after [`Self::close`].
    pub(crate) fn enter(&self) -> Result<Permit<'_>, Refused> {
        let mut state = self.lock();
        if state.closed {
            return Err(Refused::Closed);
        }
        if state.running >= self.permits {
            if state.waiting >= self.capacity {
                return Err(Refused::Full);
            }
            state.waiting += 1;
            while state.running >= self.permits {
                state = self
                    .released
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            state.waiting -= 1;
        }
        state.running += 1;
        Ok(Permit(self))
    }

    /// Refuses every later [`Self::enter`]; handlers already waiting are
    /// still admitted.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
    }
}

/// One running evaluation's hold on the gate; dropping it (also on
/// unwind) lets one waiter in.
pub(crate) struct Permit<'a>(&'a Gate);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.lock().running -= 1;
        self.0.released.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::{Duration, Instant};

    /// Spins until `gate` has `n` waiters (bounded, so a bug fails fast).
    fn until_waiting(gate: &Gate, n: usize) {
        let start = Instant::now();
        while gate.waiting() != n {
            assert!(start.elapsed() < Duration::from_secs(10), "no waiter");
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn refuses_full_only_when_permits_and_waiting_room_are_taken() {
        let gate = Arc::new(Gate::new(2, 1));
        let a = gate.enter().expect("first permit");
        let _b = gate.enter().expect("second permit");
        let waiter = {
            let gate = Arc::clone(&gate);
            thread::spawn(move || gate.enter().map(drop))
        };
        until_waiting(&gate, 1);
        assert_eq!(gate.enter().err(), Some(Refused::Full));
        drop(a);
        assert_eq!(waiter.join().unwrap(), Ok(()));
        assert_eq!(gate.waiting(), 0);
    }

    #[test]
    fn close_refuses_newcomers_but_admits_waiters() {
        let gate = Arc::new(Gate::new(1, 4));
        let held = gate.enter().expect("permit");
        let waiter = {
            let gate = Arc::clone(&gate);
            thread::spawn(move || gate.enter().map(drop))
        };
        until_waiting(&gate, 1);
        gate.close();
        assert_eq!(gate.enter().err(), Some(Refused::Closed));
        drop(held);
        assert_eq!(waiter.join().unwrap(), Ok(()), "a waiter is drained");
    }

    #[test]
    fn sizes_are_clamped_to_one() {
        let gate = Arc::new(Gate::new(0, 0));
        assert_eq!(gate.capacity(), 1);
        let held = gate.enter().expect("one permit");
        let waiter = {
            let gate = Arc::clone(&gate);
            thread::spawn(move || gate.enter().map(drop))
        };
        until_waiting(&gate, 1);
        assert_eq!(gate.enter().err(), Some(Refused::Full));
        drop(held);
        assert_eq!(waiter.join().unwrap(), Ok(()));
    }
}
