//! Deterministic parallel batch evaluation.
//!
//! Every experiment in this crate is sweep-shaped: a list of independent
//! points (speeds, temperatures, supplies, corners, configuration-grid
//! cells, Monte Carlo draws) mapped through a pure evaluation. A
//! [`SweepExecutor`] runs that map inline until it has measured enough
//! work to pay for scoped OS threads, then hands the rest out in chunks
//! and writes every result into its input slot, so the parallel output is
//! **bit-identical** to the serial one: no reduction happens across
//! threads, only element-wise mapping.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Environment variable overriding [`SweepExecutor::available`]'s worker
/// count, so deployments (servers, CI) can pin parallelism without
/// plumbing flags. The value must be a positive integer; `0` or anything
/// non-numeric is rejected — [`SweepExecutor::available`] warns and falls
/// back to the hardware count, [`SweepExecutor::try_available`] errors.
pub const THREADS_ENV_VAR: &str = "MONITYRE_THREADS";

/// The machine's available parallelism (1 when undetectable).
fn hardware_parallelism() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Parses a [`THREADS_ENV_VAR`] value into a worker count. `Ok(None)`
/// means unset (use the hardware count); a set-but-invalid value — zero,
/// negative, non-numeric — is an error, never a silent fallback.
fn parse_threads_override(raw: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = raw else {
        return Ok(None);
    };
    match raw.trim().parse::<usize>() {
        Ok(0) => Err(format!(
            "{THREADS_ENV_VAR}={raw:?} is invalid: the worker count must be at least 1"
        )),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(format!(
            "{THREADS_ENV_VAR}={raw:?} is invalid: expected a positive integer"
        )),
    }
}

/// What fanning a map out costs per spawned worker: p50 of 2000 scoped
/// spawn + join calls on a 2-CPU container was 43 µs for 1 worker, 82 µs
/// for 2 and 161 µs for 4.
const SPAWN_COST: Duration = Duration::from_micros(40);

/// An order-preserving parallel map over sweep points that fans out only
/// when the work pays for the threads.
///
/// The caller evaluates items inline and times them. Once the elapsed
/// time and the projected rest both exceed the cost of spawning the other
/// `threads - 1` workers, the rest is handed out in chunks and the caller
/// works as one of the workers. Cheap maps therefore never spawn, and the
/// serial prefix costs at most about twice the spawn cost — or one item,
/// when a single item costs more than that.
///
/// ```
/// use monityre_core::SweepExecutor;
///
/// let squares = SweepExecutor::new(4).map(&[1, 2, 3, 4, 5], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepExecutor {
    threads: usize,
}

impl Default for SweepExecutor {
    fn default() -> Self {
        Self::serial()
    }
}

impl SweepExecutor {
    /// The serial executor: evaluates inline on the calling thread.
    #[must_use]
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// An executor with `threads` workers (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// An executor sized to the machine's available parallelism, unless
    /// the [`THREADS_ENV_VAR`] environment variable overrides it with a
    /// positive integer. An invalid override (`0`, non-numeric) is
    /// **rejected**, not silently absorbed: this constructor warns on
    /// stderr and uses the hardware count; strict callers (the server's
    /// startup path) use [`Self::try_available`] to fail fast instead.
    #[must_use]
    pub fn available() -> Self {
        match Self::try_available() {
            Ok(executor) => executor,
            Err(message) => {
                eprintln!("warning: {message}; using the hardware thread count");
                Self::new(hardware_parallelism())
            }
        }
    }

    /// Like [`Self::available`], but a set-and-invalid [`THREADS_ENV_VAR`]
    /// is an error instead of a warning-and-fallback.
    ///
    /// # Errors
    ///
    /// Returns a description of the rejected value when the environment
    /// variable is set to `0` or to anything non-numeric.
    pub fn try_available() -> Result<Self, String> {
        let raw = std::env::var(THREADS_ENV_VAR).ok();
        let threads = parse_threads_override(raw.as_deref())?.unwrap_or_else(hardware_parallelism);
        Ok(Self::new(threads))
    }

    /// The worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The chunk size used for `len` items: enough chunks for ~4
    /// hand-outs per worker (bounded load imbalance without fine-grained
    /// contention).
    #[must_use]
    pub fn chunk_for(&self, len: usize) -> usize {
        len.div_ceil(self.threads * 4).max(1)
    }

    /// Whether the rest of a map is worth fanning out, given that its
    /// first `done` items took `elapsed` and `left` items remain: both
    /// the measured prefix and the projected rest must outweigh spawning
    /// the other workers.
    fn worth_fanning_out(&self, elapsed: Duration, done: usize, left: usize) -> bool {
        if self.threads == 1 {
            return false;
        }
        let spawn = SPAWN_COST * (self.threads - 1) as u32;
        elapsed > spawn && elapsed.mul_f64(left as f64 / done as f64) > spawn
    }

    /// Maps `f` over `items`, preserving input order in the output.
    ///
    /// `f` receives the item's index and the item. The result equals
    /// `items.iter().enumerate().map(..).collect()` exactly — workers only
    /// partition the index space, they never reorder or combine results.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_cancellable(items, &|| false, f)
            .expect("a never-cancelled map always completes")
    }

    /// Like [`Self::map`], but polls `cancelled` between chunks and gives
    /// up cooperatively: once any worker observes `cancelled() == true`,
    /// no further chunk is started and the call returns `None`.
    ///
    /// A completed map (`Some`) is bit-identical to [`Self::map`]: the
    /// cancellation poll happens only at chunk boundaries and never
    /// changes what any item computes. Deadline-aware callers (the
    /// serving layer) pass `|| Instant::now() >= deadline`.
    pub fn map_cancellable<T, R, F, C>(&self, items: &[T], cancelled: &C, f: F) -> Option<Vec<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
        C: Fn() -> bool + Sync,
    {
        if cancelled() {
            return None;
        }
        // One span per batch — never per point — so a 196-step sweep pays
        // for a single histogram record.
        let _span = monityre_obs::span!("sweep.batch");
        let len = items.len();
        let mut results = Vec::with_capacity(len);

        // The serial prefix: the clock and the cancellation flag are read
        // after 1, 2, 4, 8, … items (and at least once per chunk), so a
        // cheap map reads them O(log n) times and never spawns.
        let started = Instant::now();
        let chunk = self.chunk_for(len);
        let mut checkpoint = 1;
        while results.len() < len {
            let index = results.len();
            results.push(f(index, &items[index]));
            let done = index + 1;
            if done == checkpoint && done < len {
                if cancelled() {
                    return None;
                }
                if self.worth_fanning_out(started.elapsed(), done, len - done) {
                    break;
                }
                checkpoint += checkpoint.min(chunk);
            }
        }
        let done = results.len();
        if done == len {
            return Some(results);
        }

        // The fan-out: the rest's result slots are handed out chunk by
        // chunk under one lock, and every worker writes its chunk in place.
        let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(len - done).collect();
        let chunk = self.chunk_for(len - done);
        let stop = AtomicBool::new(false);
        let handout = Mutex::new(slots.chunks_mut(chunk).enumerate());
        let work = || loop {
            if stop.load(Ordering::Relaxed) || cancelled() {
                stop.store(true, Ordering::Relaxed);
                break;
            }
            let next = handout
                .lock()
                .expect("no worker panics while holding the hand-out lock")
                .next();
            let Some((n, out)) = next else { break };
            let start = done + n * chunk;
            for (offset, slot) in out.iter_mut().enumerate() {
                *slot = Some(f(start + offset, &items[start + offset]));
            }
        };
        // Trace context is thread-local; capture the caller's and
        // re-install it inside each scoped worker so spans recorded
        // there stay in the request's causal tree.
        let ctx = monityre_obs::current_context();
        let spawned = (self.threads - 1).min((len - done).div_ceil(chunk) - 1);
        thread::scope(|scope| {
            for _ in 0..spawned {
                scope.spawn(|| {
                    let _ctx = ctx.map(monityre_obs::install_context);
                    work();
                });
            }
            work();
        });
        if stop.load(Ordering::Relaxed) {
            return None;
        }
        results.extend(
            slots
                .into_iter()
                .map(|slot| slot.expect("every chunk is evaluated unless cancelled")),
        );
        Some(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;

    /// Returns `value` after ~200 µs: several times the spawn cost, so a
    /// multi-threaded map over such items always fans out.
    fn slow<V>(value: V) -> V {
        thread::sleep(Duration::from_micros(200));
        value
    }

    /// Asserts that more than one thread evaluated items, the caller
    /// among them — i.e. that the map took the threaded path.
    fn assert_fanned_out(ids: impl IntoIterator<Item = ThreadId>, what: &str) {
        let ids: HashSet<ThreadId> = ids.into_iter().collect();
        assert!(ids.len() > 1, "{what}: the map never fanned out");
        assert!(
            ids.contains(&thread::current().id()),
            "{what}: the caller must work as one of the workers"
        );
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..503).collect();
        let serial = SweepExecutor::serial().map(&items, |i, &x| x * 3 + i as u64);
        for threads in [2, 3, 4, 8] {
            let cheap = SweepExecutor::new(threads).map(&items, |i, &x| x * 3 + i as u64);
            assert_eq!(cheap, serial, "threads {threads}, cheap items");
            let slow_items = &items[..96];
            let evaluated = SweepExecutor::new(threads).map(slow_items, |i, &x| {
                slow((x * 3 + i as u64, thread::current().id()))
            });
            let values: Vec<u64> = evaluated.iter().map(|&(value, _)| value).collect();
            assert_eq!(values, serial[..96], "threads {threads}, slow items");
            assert_fanned_out(
                evaluated.iter().map(|&(_, id)| id),
                &format!("threads {threads}"),
            );
        }
    }

    #[test]
    fn trace_context_propagates_into_scoped_workers() {
        let ctx = monityre_obs::TraceContext::root(3);
        let _g = monityre_obs::install_context(ctx);
        let items: Vec<u64> = (0..64).collect();
        let seen = SweepExecutor::new(4).map(&items, |_, _| {
            slow((
                monityre_obs::current_context().map(|c| c.trace_id),
                thread::current().id(),
            ))
        });
        assert!(
            seen.iter().all(|(id, _)| *id == Some(ctx.trace_id)),
            "every worker must see the caller's trace context"
        );
        assert_fanned_out(seen.iter().map(|&(_, id)| id), "trace context");
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<i32> = Vec::new();
        assert!(SweepExecutor::new(4).map(&none, |_, &x| x).is_empty());
        assert_eq!(SweepExecutor::new(4).map(&[9], |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn indices_match_positions() {
        let items: Vec<String> = (0..48).map(|i| format!("item{i}")).collect();
        let indexed =
            SweepExecutor::new(3).map(&items, |i, s| slow((i, s.clone(), thread::current().id())));
        for (position, (index, item, _)) in indexed.iter().enumerate() {
            assert_eq!(position, *index);
            assert_eq!(*item, items[position]);
        }
        assert_fanned_out(indexed.iter().map(|(_, _, id)| *id), "indices");
    }

    #[test]
    fn threads_clamped_to_one() {
        assert_eq!(SweepExecutor::new(0).threads(), 1);
        assert!(SweepExecutor::available().threads() >= 1);
    }

    #[test]
    fn default_chunking_covers_input() {
        let executor = SweepExecutor::new(4);
        let chunk = executor.chunk_for(196);
        assert!(chunk >= 1);
        // Enough hand-outs to balance, few enough to amortize locking.
        assert!(196usize.div_ceil(chunk) >= 4);
    }

    #[test]
    fn cancellable_map_completes_when_never_cancelled() {
        let items: Vec<u64> = (0..97).collect();
        let expected = SweepExecutor::serial().map(&items, |i, &x| x + i as u64);
        for threads in [1, 2, 4] {
            let got = SweepExecutor::new(threads)
                .map_cancellable(&items, &|| false, |i, &x| x + i as u64)
                .expect("not cancelled");
            assert_eq!(got, expected, "threads {threads}");
        }
    }

    #[test]
    fn cancelled_upfront_returns_none() {
        let items: Vec<u64> = (0..64).collect();
        for threads in [1, 4] {
            let out = SweepExecutor::new(threads).map_cancellable(&items, &|| true, |_, &x| x);
            assert!(out.is_none(), "threads {threads}");
        }
    }

    #[test]
    fn cancellation_mid_run_is_observed_at_chunk_boundaries() {
        use std::sync::atomic::AtomicUsize;
        let items: Vec<u64> = (0..1024).collect();
        let evaluated = AtomicUsize::new(0);
        let ids = Mutex::new(HashSet::new());
        let out = SweepExecutor::new(2).map_cancellable(
            &items,
            &|| evaluated.load(Ordering::Relaxed) >= 8,
            |_, &x| {
                ids.lock().unwrap().insert(thread::current().id());
                evaluated.fetch_add(1, Ordering::Relaxed);
                slow(x)
            },
        );
        assert!(out.is_none());
        // Far fewer evaluations than items: the map gave up early.
        assert!(evaluated.load(Ordering::Relaxed) < items.len());
        assert_fanned_out(ids.into_inner().unwrap(), "mid-run cancellation");
    }

    #[test]
    fn env_var_overrides_available_parallelism() {
        // Runs in one test so the env mutations cannot race each other.
        std::env::set_var(THREADS_ENV_VAR, "3");
        assert_eq!(SweepExecutor::available().threads(), 3);
        assert_eq!(SweepExecutor::try_available().unwrap().threads(), 3);
        std::env::set_var(THREADS_ENV_VAR, " 7 ");
        assert_eq!(SweepExecutor::available().threads(), 7);
        // Invalid overrides: `available` warns and falls back to the
        // hardware count; `try_available` rejects them outright.
        let hardware = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        std::env::set_var(THREADS_ENV_VAR, "0");
        assert_eq!(SweepExecutor::available().threads(), hardware);
        let err = SweepExecutor::try_available().unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        std::env::set_var(THREADS_ENV_VAR, "lots");
        assert_eq!(SweepExecutor::available().threads(), hardware);
        let err = SweepExecutor::try_available().unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
        std::env::remove_var(THREADS_ENV_VAR);
        assert_eq!(SweepExecutor::available().threads(), hardware);
        assert_eq!(SweepExecutor::try_available().unwrap().threads(), hardware);
    }

    #[test]
    fn threads_override_parsing() {
        assert_eq!(parse_threads_override(None).unwrap(), None);
        assert_eq!(parse_threads_override(Some("4")).unwrap(), Some(4));
        assert_eq!(parse_threads_override(Some(" 12 ")).unwrap(), Some(12));
        assert!(parse_threads_override(Some("0")).is_err());
        assert!(parse_threads_override(Some("-2")).is_err());
        assert!(parse_threads_override(Some("4.5")).is_err());
        assert!(parse_threads_override(Some("lots")).is_err());
        assert!(parse_threads_override(Some("")).is_err());
    }
}
