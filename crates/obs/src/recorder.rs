//! The always-on flight recorder.
//!
//! Every finished span (and every injected-fault event) is additionally
//! pushed into a fixed-size per-thread ring of recent records. In steady
//! state nothing else happens — the ring overwrites itself and costs one
//! uncontended lock plus one slot write per span, far below the trace
//! sink's per-event formatting and I/O. When something goes wrong — a
//! worker panic, an injected fault, a missed deadline, or an explicit
//! `obs dump` — the rings are dumped as JSON lines to the path named by
//! [`FLIGHT_RECORDER_ENV_VAR`] (or [`set_dump_path`]), giving post-mortem
//! visibility into the last moments of every thread.
//!
//! Spans still open at dump time (a worker mid-panic never reaches its
//! guard's drop) are flushed as `"truncated":true` records with the
//! duration elapsed so far, so no timing is lost to the crash itself.
//!
//! Each thread owns its ring behind a `Mutex` that only the owner touches
//! on the record path; the dump path is the sole cross-thread reader, and
//! it recovers poisoned locks with `into_inner` so a panicking worker can
//! never wedge the dump that is trying to explain the panic.
//!
//! A log outlives its thread but is not kept for it: when a recording
//! thread exits, its log goes on a free list and the next thread that
//! records adopts it. The log count is the peak number of live recording
//! threads, so short-lived threads (one per connection, one per sweep
//! fan-out) cost neither memory nor profiler time once they are gone,
//! and a dead thread's recent history stays dumpable until overwritten.

use std::borrow::Cow;
use std::fs::OpenOptions;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::context::SpanIds;

/// Environment variable naming the flight-recorder dump file. Setting it
/// arms automatic dumps on panic / fault / deadline-miss triggers; the
/// recorder itself records regardless.
pub const FLIGHT_RECORDER_ENV_VAR: &str = "MONITYRE_FLIGHT_RECORDER";

/// Records each thread keeps. Spans sit at batch/request boundaries, so
/// 256 records cover seconds of recent history per thread.
const RING_CAPACITY: usize = 256;

/// What one flight-recorder entry describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A finished span (has a real duration).
    Span,
    /// A point-in-time event (an injected fault, a dump trigger).
    Event,
    /// A span still open at dump time; `dur_us` is elapsed-so-far.
    Truncated,
}

/// One entry of the flight recorder.
#[derive(Debug, Clone)]
pub struct FlightRecord {
    /// Start time, microseconds since the process span epoch.
    pub ts_us: u64,
    /// Span or event name.
    pub name: Cow<'static, str>,
    /// Duration in microseconds (0 for events).
    pub dur_us: u64,
    /// Trace linkage; `None` for records outside any request.
    pub ids: Option<SpanIds>,
    /// Span, event, or truncated-span marker.
    pub kind: RecordKind,
}

impl FlightRecord {
    /// Renders the record as one JSON object line (no trailing newline),
    /// the same shape the trace sink emits so `obs trace` reads both.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut line = format!(
            "{{\"ts_us\":{},\"span\":{},\"dur_us\":{}",
            self.ts_us,
            serde_json::to_string(&self.name.to_string()).unwrap_or_else(|_| "\"?\"".to_owned()),
            self.dur_us
        );
        if let Some(ids) = self.ids {
            line.push_str(&format!(
                ",\"trace\":\"{:016x}\",\"span_id\":\"{:016x}\",\"parent\":\"{:016x}\"",
                ids.trace_id, ids.span_id, ids.parent_id
            ));
        }
        match self.kind {
            RecordKind::Span => {}
            RecordKind::Event => line.push_str(",\"event\":true"),
            RecordKind::Truncated => line.push_str(",\"truncated\":true"),
        }
        line.push('}');
        line
    }
}

/// A span in flight: registered at guard creation, removed at drop, and
/// flushed as a truncated record if a dump happens in between.
#[derive(Debug, Clone)]
struct OpenSpan {
    token: u64,
    name: &'static str,
    start_us: u64,
    ids: Option<SpanIds>,
}

/// One thread's recent history plus its currently open spans.
#[derive(Debug, Default)]
struct ThreadLog {
    ring: Vec<FlightRecord>,
    /// Next slot to overwrite once the ring is full.
    next: usize,
    open: Vec<OpenSpan>,
    next_token: u64,
}

impl ThreadLog {
    fn push(&mut self, record: FlightRecord) {
        if self.ring.len() < RING_CAPACITY {
            self.ring.push(record);
        } else {
            self.ring[self.next] = record;
            self.next = (self.next + 1) % RING_CAPACITY;
        }
    }

    /// Records oldest-first (the ring stores them wrapped).
    fn ordered(&self) -> Vec<FlightRecord> {
        let mut out = Vec::with_capacity(self.ring.len());
        out.extend_from_slice(&self.ring[self.next..]);
        out.extend_from_slice(&self.ring[..self.next]);
        out
    }
}

type SharedLog = Arc<Mutex<ThreadLog>>;

/// Locks `mutex`, recovering a poisoned lock: a panicking thread must
/// never wedge the dump that is trying to explain the panic.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Every log ever handed out (for the dump path to walk), and the logs
/// whose thread has exited, waiting for the next thread that records.
struct Logs {
    all: Vec<SharedLog>,
    free: Vec<SharedLog>,
}

static LOGS: Mutex<Logs> = Mutex::new(Logs {
    all: Vec::new(),
    free: Vec::new(),
});

/// A thread's claim on one log. When the thread exits, the log goes back
/// on the free list with its ring intact, so the log count is the peak
/// number of live recording threads, not the number that ever lived.
struct LocalLog(SharedLog);

impl LocalLog {
    fn claim() -> Self {
        let mut logs = lock(&LOGS);
        if let Some(log) = logs.free.pop() {
            return Self(log);
        }
        let log = SharedLog::default();
        logs.all.push(Arc::clone(&log));
        Self(log)
    }
}

impl Drop for LocalLog {
    fn drop(&mut self) {
        // Span guards close on unwind; anything still open belongs to a
        // thread that no longer exists and must not pass to the next owner.
        lock(&self.0).open.clear();
        lock(&LOGS).free.push(Arc::clone(&self.0));
    }
}

thread_local! {
    static LOCAL: LocalLog = LocalLog::claim();
}

/// Runs `f` on this thread's log; `None` once the thread is tearing down
/// its locals (a record made that late is dropped).
fn with_local_log<R>(f: impl FnOnce(&mut ThreadLog) -> R) -> Option<R> {
    LOCAL.try_with(|local| f(&mut lock(&local.0))).ok()
}

/// Whether the rings record at all; on by default (the whole point is
/// being armed *before* anything goes wrong). The bench harness toggles
/// this to price the steady-state cost.
static RECORDING: AtomicBool = AtomicBool::new(true);

/// Whether the flight recorder is currently recording.
#[must_use]
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Turns ring recording on or off process-wide.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
}

/// Where dumps go: resolved once from [`FLIGHT_RECORDER_ENV_VAR`], then
/// overridable via [`set_dump_path`].
fn dump_path_slot() -> &'static Mutex<Option<PathBuf>> {
    static SLOT: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    SLOT.get_or_init(|| {
        Mutex::new(
            std::env::var(FLIGHT_RECORDER_ENV_VAR)
                .ok()
                .filter(|path| !path.trim().is_empty())
                .map(PathBuf::from),
        )
    })
}

/// Arms automatic dumps to `path` (the CLI's `--flight-recorder` flag).
pub fn set_dump_path(path: &Path) {
    *lock(dump_path_slot()) = Some(path.to_path_buf());
}

/// The armed dump path, if any.
#[must_use]
pub fn dump_path() -> Option<PathBuf> {
    lock(dump_path_slot()).clone()
}

/// Pushes one finished-span record. Called from the span guard's drop.
pub(crate) fn record_span(name: &'static str, start_us: u64, dur_us: u64, ids: Option<SpanIds>) {
    if !recording() {
        return;
    }
    with_local_log(|log| {
        log.push(FlightRecord {
            ts_us: start_us,
            name: Cow::Borrowed(name),
            dur_us,
            ids,
            kind: RecordKind::Span,
        });
    });
}

/// Records a point-in-time event (an injected fault, a trigger) linked
/// to the current trace context.
pub fn record_event(name: impl Into<Cow<'static, str>>) {
    if !recording() {
        return;
    }
    let ids = crate::context::current_context().map(|ctx| SpanIds {
        trace_id: ctx.trace_id,
        span_id: ctx.span_id,
        parent_id: 0,
    });
    let record = FlightRecord {
        ts_us: crate::span::now_us(),
        name: name.into(),
        dur_us: 0,
        ids,
        kind: RecordKind::Event,
    };
    with_local_log(|log| log.push(record));
}

/// Registers an open span; returns a token for [`close_span`].
pub(crate) fn open_span(name: &'static str, start_us: u64, ids: Option<SpanIds>) -> Option<u64> {
    if !recording() {
        return None;
    }
    with_local_log(|log| {
        log.next_token = log.next_token.wrapping_add(1);
        let token = log.next_token;
        log.open.push(OpenSpan {
            token,
            name,
            start_us,
            ids,
        });
        token
    })
}

/// Removes the open-span registration made by [`open_span`].
pub(crate) fn close_span(token: Option<u64>) {
    let Some(token) = token else {
        return;
    };
    with_local_log(|log| {
        if let Some(pos) = log.open.iter().rposition(|span| span.token == token) {
            log.open.remove(pos);
        }
    });
}

/// Every log, copied out so no caller holds [`LOGS`] while it walks them.
fn all_logs() -> Vec<SharedLog> {
    lock(&LOGS).all.clone()
}

/// Visits every thread's currently-open span stack (root first), one
/// callback per thread that has at least one span open. Returns how many
/// threads were visited. This is the sampling profiler's read path: it
/// takes the same locks as the dump path in the same outer→inner order,
/// copies the `&'static str` names out, and releases the thread's lock
/// before invoking `visit`, so the sampled thread is blocked only for a
/// handful of pointer copies and no lock is ever held across user code.
pub fn visit_open_spans(mut visit: impl FnMut(&[&'static str])) -> usize {
    let mut names: Vec<&'static str> = Vec::with_capacity(8);
    let mut seen = 0usize;
    for log in all_logs() {
        let log = lock(&log);
        if log.open.is_empty() {
            continue;
        }
        names.clear();
        names.extend(log.open.iter().map(|span| span.name));
        drop(log);
        seen += 1;
        visit(&names);
    }
    seen
}

/// Collects every thread's records (oldest-first per thread, threads
/// concatenated) plus truncated records for still-open spans, sorted by
/// start time. This is the dump payload; tests read it directly.
#[must_use]
pub fn snapshot() -> Vec<FlightRecord> {
    let now = crate::span::now_us();
    let mut records = Vec::new();
    for log in all_logs() {
        let log = lock(&log);
        records.extend(log.ordered());
        for open in &log.open {
            records.push(FlightRecord {
                ts_us: open.start_us,
                name: Cow::Borrowed(open.name),
                dur_us: now.saturating_sub(open.start_us),
                ids: open.ids,
                kind: RecordKind::Truncated,
            });
        }
    }
    records.sort_by_key(|record| record.ts_us);
    records
}

/// Writes the full snapshot as JSON lines to `writer`, preceded by one
/// `{"dump":"<reason>",…}` header line. Returns the record count.
///
/// # Errors
///
/// Propagates write errors from `writer`.
pub fn dump_to<W: Write>(writer: &mut W, reason: &str) -> std::io::Result<usize> {
    let records = snapshot();
    writeln!(
        writer,
        "{{\"dump\":{},\"ts_us\":{},\"records\":{}}}",
        serde_json::to_string(&reason.to_owned()).unwrap_or_else(|_| "\"?\"".to_owned()),
        crate::span::now_us(),
        records.len()
    )?;
    for record in &records {
        writeln!(writer, "{}", record.to_json_line())?;
    }
    writer.flush()?;
    Ok(records.len())
}

/// Dumps to the armed path (append mode — successive triggers accumulate
/// in one post-mortem file). Returns the path written and the record
/// count, `None` when the recorder is unarmed or the write failed
/// (reported to stderr, never a panic: dumps run inside panic handlers).
pub fn dump(reason: &str) -> Option<(PathBuf, usize)> {
    let path = dump_path()?;
    let file = OpenOptions::new().create(true).append(true).open(&path);
    match file {
        Ok(file) => {
            let mut writer = BufWriter::new(file);
            match dump_to(&mut writer, reason) {
                Ok(count) => Some((path, count)),
                Err(err) => {
                    eprintln!(
                        "monityre-obs: flight-recorder dump to {} failed: {err}",
                        path.display()
                    );
                    None
                }
            }
        }
        Err(err) => {
            eprintln!(
                "monityre-obs: cannot open flight-recorder dump {}: {err}",
                path.display()
            );
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{install_context, TraceContext};

    #[test]
    fn spans_land_in_the_ring_with_trace_ids() {
        let ctx = TraceContext::root(99);
        {
            let _g = install_context(ctx);
            let _span = crate::span("recorder.unit");
        }
        let records = snapshot();
        let record = records
            .iter()
            .find(|r| r.name == "recorder.unit" && r.kind == RecordKind::Span)
            .expect("span recorded");
        let ids = record.ids.expect("linked to the trace");
        assert_eq!(ids.trace_id, ctx.trace_id);
        assert_eq!(ids.parent_id, ctx.span_id);
        let line = record.to_json_line();
        assert!(line.contains("\"span\":\"recorder.unit\""), "{line}");
        assert!(
            line.contains(&format!("\"trace\":\"{:016x}\"", ctx.trace_id)),
            "{line}"
        );
    }

    #[test]
    fn open_spans_dump_as_truncated_records() {
        let ctx = TraceContext::root(123);
        let _g = install_context(ctx);
        let _held = crate::span("recorder.open");
        // Dump while the span is still open: it must appear truncated.
        let mut out = Vec::new();
        let count = dump_to(&mut out, "unit-test").expect("dump writes");
        assert!(count >= 1);
        let text = String::from_utf8(out).unwrap();
        let line = text
            .lines()
            .find(|l| l.contains("recorder.open"))
            .expect("open span flushed");
        assert!(line.contains("\"truncated\":true"), "{line}");
        assert!(
            line.contains(&format!("\"trace\":\"{:016x}\"", ctx.trace_id)),
            "{line}"
        );
        assert!(text.starts_with("{\"dump\":\"unit-test\""), "{text}");
        // Once the guard drops it records normally and leaves the open set.
        drop(_held);
        let open_left = snapshot()
            .into_iter()
            .filter(|r| r.name == "recorder.open" && r.kind == RecordKind::Truncated)
            .count();
        assert_eq!(open_left, 0, "closed span must leave the open set");
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let mut log = ThreadLog::default();
        for i in 0..(RING_CAPACITY + 10) {
            log.push(FlightRecord {
                ts_us: i as u64,
                name: Cow::Borrowed("ring.fill"),
                dur_us: 1,
                ids: None,
                kind: RecordKind::Span,
            });
        }
        let ordered = log.ordered();
        assert_eq!(ordered.len(), RING_CAPACITY);
        assert_eq!(ordered.first().unwrap().ts_us, 10);
        assert_eq!(
            ordered.last().unwrap().ts_us,
            (RING_CAPACITY + 10 - 1) as u64
        );
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        set_recording(false);
        let before = snapshot()
            .iter()
            .filter(|r| r.name == "recorder.off")
            .count();
        {
            let _span = crate::span("recorder.off");
            record_event("recorder.off");
        }
        set_recording(true);
        let after = snapshot()
            .iter()
            .filter(|r| r.name == "recorder.off")
            .count();
        assert_eq!(before, after, "recording off must be inert");
    }

    #[test]
    fn exited_threads_hand_their_log_to_the_next_thread() {
        const THREADS: usize = 2000;
        let before = snapshot().len();
        for i in 0..THREADS {
            std::thread::spawn(move || {
                for _ in 0..4 {
                    let _span = crate::span("recorder.churn");
                }
                if i == THREADS - 1 {
                    record_event("recorder.churn.last");
                }
            })
            .join()
            .expect("churn thread");
        }
        let records = snapshot();
        assert!(
            records.len() < before + 8 * RING_CAPACITY,
            "{THREADS} exited threads grew the recorder from {before} to {} records",
            records.len()
        );
        assert!(
            records.iter().any(|r| r.name == "recorder.churn.last"),
            "the last thread's history must survive its exit"
        );
    }

    #[test]
    fn events_carry_the_current_context() {
        let ctx = TraceContext::root(555);
        {
            let _g = install_context(ctx);
            record_event("fault.conn_reset");
        }
        let records = snapshot();
        let event = records
            .iter()
            .rev()
            .find(|r| r.name == "fault.conn_reset" && r.kind == RecordKind::Event)
            .expect("event recorded");
        assert_eq!(event.ids.expect("linked").trace_id, ctx.trace_id);
        assert!(event.to_json_line().contains("\"event\":true"));
    }
}
