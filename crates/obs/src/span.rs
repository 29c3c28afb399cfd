//! Named timer scopes.
//!
//! [`span`] (or the [`crate::span!`] macro) returns a [`SpanGuard`] that,
//! when dropped, records the elapsed wall time into the global registry
//! histogram of the same name and — if a trace sink is installed — emits
//! one JSON event line. Spans sit at batch boundaries (a whole sweep, a
//! whole Monte Carlo run), so the per-span cost (one `Instant::now` pair,
//! one histogram record) is amortized over thousands of evaluations.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::context::{SpanIds, TraceContext};
use crate::registry::Registry;
use crate::sink::trace_event_with;

/// Process-wide instrumentation switch, on by default. Disabling turns
/// [`span`] into a single relaxed load returning an inert guard.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether spans currently record.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span recording on or off process-wide. The bench harness uses
/// this to measure instrumented-vs-inert sweep throughput.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The instant the span clock first ticked; trace `ts_us` fields are
/// relative to this so events within one process are ordered and small.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the span epoch, for records and dump headers.
/// Public so embedders (the serve layer's self-scrape loop) can stamp
/// time-series samples on the same clock the recorder uses.
#[must_use]
pub fn now_us() -> u64 {
    instant_us(Instant::now())
}

/// `instant` as microseconds since the span epoch (0 if it predates it).
fn instant_us(instant: Instant) -> u64 {
    u64::try_from(instant.saturating_duration_since(epoch()).as_micros()).unwrap_or(u64::MAX)
}

/// Starts a named timer scope. The returned guard records into the
/// global registry histogram `name` when it drops:
///
/// ```
/// {
///     let _guard = monityre_obs::span("example.work");
///     // ... timed work ...
/// }
/// assert!(monityre_obs::Registry::global()
///     .snapshot()
///     .histograms
///     .iter()
///     .any(|h| h.name == "example.work" && h.count >= 1));
/// ```
#[must_use = "the span records when the guard drops; binding it to `_` drops immediately"]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            live: None,
            name,
            ids: None,
            restore: None,
            open_token: None,
        };
    }
    let start = Instant::now();
    // Link into the current trace (if any): the span gets its own id with
    // the current context as parent, and becomes current for its extent.
    let (ids, restore) = crate::context::enter_span();
    let open_token = crate::recorder::open_span(name, instant_us(start), ids);
    SpanGuard {
        live: Some(start),
        name,
        ids,
        restore,
        open_token,
    }
}

/// An active timer scope; see [`span`].
#[derive(Debug)]
pub struct SpanGuard {
    /// `None` when instrumentation was disabled at creation — drop is a no-op.
    live: Option<Instant>,
    name: &'static str,
    /// Trace linkage when a [`TraceContext`] was current at creation.
    ids: Option<SpanIds>,
    /// Previous thread-current context to restore on drop.
    restore: Option<Option<TraceContext>>,
    /// Flight-recorder open-span registration, closed on drop.
    open_token: Option<u64>,
}

impl SpanGuard {
    /// The span's registered name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The span's trace linkage, if it runs inside an installed context.
    #[must_use]
    pub fn ids(&self) -> Option<SpanIds> {
        self.ids
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        crate::context::exit_span(self.restore.take());
        let Some(start) = self.live else {
            return;
        };
        let elapsed = start.elapsed();
        Registry::global().histogram(self.name).record(elapsed);
        let start_us = instant_us(start);
        let dur_us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        crate::recorder::close_span(self.open_token.take());
        crate::recorder::record_span(self.name, start_us, dur_us, self.ids);
        if crate::sink::active() {
            trace_event_with(self.name, start_us, dur_us, self.ids);
        }
    }
}

/// Records an externally timed phase (one the caller measured itself,
/// like a request's wait for admission) as a finished span: into the flight
/// recorder and the trace sink, linked under this thread's current
/// context exactly like a [`span`] guard. Unlike [`span`], no histogram
/// is touched — callers that aggregate the phase (the serving layer's
/// private stats registry) keep doing so themselves, so the merged
/// Prometheus exposition never double-counts.
pub fn record_phase(name: &'static str, start: Instant, elapsed: Duration) {
    if !enabled() {
        return;
    }
    let (ids, restore) = crate::context::enter_span();
    crate::context::exit_span(restore);
    let start_us = instant_us(start);
    let dur_us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
    crate::recorder::record_span(name, start_us, dur_us, ids);
    if crate::sink::active() {
        trace_event_with(name, start_us, dur_us, ids);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_into_the_global_registry() {
        {
            let guard = span("span.unit");
            assert_eq!(guard.name(), "span.unit");
        }
        let snap = Registry::global().snapshot();
        let hist = snap
            .histograms
            .iter()
            .find(|h| h.name == "span.unit")
            .expect("histogram registered");
        assert!(hist.count >= 1);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        set_enabled(false);
        {
            let _guard = span("span.disabled");
        }
        set_enabled(true);
        let snap = Registry::global().snapshot();
        assert!(
            !snap.histograms.iter().any(|h| h.name == "span.disabled"),
            "disabled span must not touch the registry"
        );
    }
}
