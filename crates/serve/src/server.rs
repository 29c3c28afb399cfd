//! The TCP server: acceptor, connection handlers, admission, shutdown.
//!
//! Threading model (all `std::net` + `std::thread`, no async runtime):
//!
//! * one **acceptor** thread blocks on `accept` and spawns a handler per
//!   connection;
//! * each **connection handler** reads line-delimited requests in
//!   lockstep (one outstanding job per connection), with a short read
//!   timeout so it can poll the shutdown flag, and evaluates each job
//!   itself on the shared `SweepExecutor` once the admission gate grants
//!   it one of `workers` permits. When all permits are held it waits, and
//!   when `queue_capacity` handlers already wait the request is shed with
//!   `queue_full`.
//!
//! Shutdown (the `shutdown` op or [`ServerHandle::shutdown`]) flips one
//! flag, closes the gate, and pokes the acceptor with a loopback
//! connection so `accept` returns. Handlers already waiting at the gate
//! are still admitted — every accepted job gets its response. Connection
//! handlers run detached and are counted, not joined: the acceptor waits
//! for the count of live handlers to reach zero, and the acceptor and
//! observers join before [`ServerHandle::wait`] returns.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use monityre_core::SweepExecutor;
use monityre_faults::{FaultKind, FaultPlan};

use crate::admission::{Gate, Refused};
use crate::dedup::DedupMap;
use crate::protocol::{ErrorCode, Op, Payload, Request, Response, MAX_LINE_BYTES};
use crate::stats::{Stats, StatsSnapshot};
use crate::worker::{run_job, Engine, Job};

/// How often blocked reads wake up to poll the shutdown flag.
const POLL_PERIOD: Duration = Duration::from_millis(200);

/// Server tuning; every field has a sensible default.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub bind: String,
    /// How many evaluations run at once (clamped to ≥ 1); each runs on
    /// the connection handler that parsed it.
    pub workers: usize,
    /// Threads of the shared `SweepExecutor`; 0 means
    /// [`SweepExecutor::available`] (which honours `MONITYRE_THREADS`).
    pub threads: usize,
    /// How many handlers may wait for an evaluation slot (clamped to
    /// ≥ 1); excess load is shed with `queue_full`.
    pub queue_capacity: usize,
    /// Scenario LRU capacity (warm `EvalCache` entries).
    pub cache_capacity: usize,
    /// Idempotency-dedup capacity (remembered responses). In-flight keys
    /// are never evicted; completed ones go FIFO past this bound.
    pub dedup_capacity: usize,
    /// Fault plan to inject. `None` falls back to the
    /// [`monityre_faults::FAULTS_ENV_VAR`] environment variable at
    /// [`ServerConfig::start`]; absent both, the hooks are inert.
    pub faults: Option<Arc<FaultPlan>>,
    /// Segment-store directory of the `ingest` pipeline. `None` (the
    /// default) keeps ingestion purely in memory; set, the server
    /// replays the directory at startup — reconstructing pre-crash
    /// window state — and appends durably from then on.
    pub ingest_dir: Option<std::path::PathBuf>,
    /// Sliding-window span of the ingest aggregation, microseconds.
    pub ingest_window_us: u64,
    /// Self-scrape cadence of the observation loop, microseconds: every
    /// tick snapshots the merged registries into the time-series rings
    /// and re-evaluates the SLO engine. `0` disables the loop (the
    /// `series` op finds no metrics and `health` stays `ok`).
    pub scrape_interval_us: u64,
    /// Wall-clock profiler sampling cadence, microseconds. Deliberately
    /// defaults to a prime-ish period (9973 µs ≈ 100 Hz) so the sampler
    /// never locks step with periodic work. `0` disables the sampler.
    pub profile_interval_us: u64,
    /// Fast SLO burn window of the default objectives, microseconds.
    pub slo_fast_us: u64,
    /// Slow SLO burn window of the default objectives, microseconds.
    pub slo_slow_us: u64,
    /// Objective overrides. `None` installs the default serve objectives
    /// (execute-p99, error-ratio, ingest-deficit-rate) over the
    /// configured windows; tests and harnesses may pin their own.
    pub slos: Option<Vec<monityre_obs::SloSpec>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            bind: "127.0.0.1:0".to_owned(),
            workers: 2,
            threads: 0,
            queue_capacity: 64,
            cache_capacity: 16,
            dedup_capacity: 256,
            faults: None,
            ingest_dir: None,
            ingest_window_us: monityre_ingest::DEFAULT_WINDOW_US,
            scrape_interval_us: 1_000_000,
            profile_interval_us: 9_973,
            slo_fast_us: monityre_obs::DEFAULT_FAST_US,
            slo_slow_us: monityre_obs::DEFAULT_SLOW_US,
            slos: None,
        }
    }
}

/// The default serve objectives: p99 execute latency below 250 ms,
/// error ratio below 0.1 %, and ingest deficit alerts below 50/s — the
/// three failure modes of the paper's pipeline (slow sweeps, shed or
/// failed requests, a fleet running at an energy deficit).
fn default_objectives(fast_us: u64, slow_us: u64) -> Vec<monityre_obs::SloSpec> {
    use monityre_obs::{SloKind, SloSpec};
    let own = |names: &[&str]| -> Vec<String> { names.iter().map(|&n| n.to_owned()).collect() };
    vec![
        SloSpec::new(
            "execute-p99",
            SloKind::GaugeAbove {
                metric: format!("{}.p99_us", monityre_obs::names::SERVE_EXECUTE),
                threshold: 250_000.0,
                tolerance: 0.1,
            },
        )
        .with_windows(fast_us, slow_us)
        .with_exemplar_from(monityre_obs::names::SERVE_EXECUTE),
        SloSpec::new(
            "error-ratio",
            SloKind::RatioAbove {
                bad: own(&["serve.rejected", "serve.timed_out", "serve.eval_failed"]),
                total: own(&[
                    "serve.rejected",
                    "serve.timed_out",
                    "serve.eval_failed",
                    "serve.served",
                    "serve.bad_requests",
                ]),
                budget: 0.001,
            },
        )
        .with_windows(fast_us, slow_us)
        .with_exemplar_from(monityre_obs::names::SERVE_EXECUTE),
        SloSpec::new(
            "ingest-deficit-rate",
            SloKind::RateAbove {
                metric: monityre_obs::names::SERVE_INGEST_ALERTS.to_owned(),
                max_per_sec: 50.0,
            },
        )
        .with_windows(fast_us, slow_us),
    ]
}

impl ServerConfig {
    /// Binds, spawns the acceptor and the observers, and returns the
    /// running server's handle.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(self) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&self.bind)?;
        let addr = listener.local_addr()?;
        let executor = if self.threads == 0 {
            SweepExecutor::available()
        } else {
            SweepExecutor::new(self.threads)
        };
        let faults = match self.faults {
            Some(plan) => Some(plan),
            // A malformed env spec must fail loudly, not silently disarm
            // the chaos run.
            None => FaultPlan::from_env()
                .map_err(|message| io::Error::new(io::ErrorKind::InvalidInput, message))?
                .map(Arc::new),
        };
        // Open (and, after a crash, recover) the ingest pipeline before
        // accepting connections: the first `ingest_state` served must
        // already see the replayed window state.
        let ingestor = monityre_ingest::Ingestor::open(monityre_ingest::IngestConfig {
            dir: self.ingest_dir,
            window_us: self.ingest_window_us,
            ..monityre_ingest::IngestConfig::default()
        })?;
        let replay = ingestor.replay_report().clone();
        let specs = self
            .slos
            .unwrap_or_else(|| default_objectives(self.slo_fast_us, self.slo_slow_us));
        let shared = Arc::new(Shared {
            addr,
            shutdown: AtomicBool::new(false),
            gate: Gate::new(self.workers, self.queue_capacity),
            engine: Engine {
                executor,
                lru: crate::worker::ScenarioLru::new(self.cache_capacity),
                stats: Arc::new(Stats::new()),
                dedup: DedupMap::new(self.dedup_capacity),
                sheet: std::sync::Mutex::new(crate::worker::reference_sheet(executor)),
                ingest: std::sync::Mutex::new(ingestor),
                last_ledger: std::sync::Mutex::new(crate::worker::startup_ledger()),
            },
            faults,
            connections: Mutex::new(0),
            connection_closed: Condvar::new(),
            series: monityre_obs::SeriesStore::new(&monityre_obs::DEFAULT_TIERS),
            profiler: monityre_obs::Profiler::new(),
            slo: std::sync::Mutex::new(monityre_obs::SloEngine::new(specs)),
            health: std::sync::Mutex::new(monityre_obs::HealthReport {
                status: "ok".to_owned(),
                objectives: Vec::new(),
            }),
        });
        let mut observers: Vec<JoinHandle<()>> = Vec::new();
        if self.scrape_interval_us > 0 {
            let shared = Arc::clone(&shared);
            let interval = Duration::from_micros(self.scrape_interval_us);
            observers.push(thread::spawn(move || scrape_loop(&shared, interval)));
        }
        if self.profile_interval_us > 0 {
            let shared = Arc::clone(&shared);
            let interval = Duration::from_micros(self.profile_interval_us);
            observers.push(thread::spawn(move || profile_loop(&shared, interval)));
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(ServerHandle {
            shared,
            acceptor: Some(acceptor),
            observers,
            replay,
        })
    }
}

/// The self-scrape loop: each tick snapshots the merged registries into
/// the time-series rings and re-evaluates the SLO engine, refreshing the
/// health report the `health` op serves. Sleeps in short slices so even
/// second-scale cadences observe shutdown within [`POLL_PERIOD`].
fn scrape_loop(shared: &Shared, interval: Duration) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        shared.scrape_once();
        sleep_polling(&shared.shutdown, interval);
    }
}

/// The wall-clock profiler loop: each tick samples every thread's open
/// span stack into the flame table the `profile` op serves.
fn profile_loop(shared: &Shared, interval: Duration) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        shared.profiler.sample();
        sleep_polling(&shared.shutdown, interval);
    }
}

/// Locks `mutex`, recovering a poisoned lock: a panicked handler must
/// not wedge shutdown, the observers or the exposition.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Sleeps `total`, waking at least every [`POLL_PERIOD`] to check the
/// shutdown flag so graceful drain never waits out a long cadence.
fn sleep_polling(shutdown: &AtomicBool, total: Duration) {
    let mut remaining = total;
    while !shutdown.load(Ordering::SeqCst) && !remaining.is_zero() {
        let slice = remaining.min(POLL_PERIOD);
        thread::sleep(slice);
        remaining = remaining.saturating_sub(slice);
    }
}

struct Shared {
    addr: SocketAddr,
    shutdown: AtomicBool,
    /// Bounds the evaluations running at once and the handlers waiting.
    gate: Gate,
    engine: Engine,
    /// The installed fault plan; `None` keeps every hook inert.
    faults: Option<Arc<FaultPlan>>,
    /// Live connection handlers; the acceptor waits for zero at shutdown.
    connections: Mutex<usize>,
    /// Signalled when the last live connection handler ends.
    connection_closed: Condvar,
    /// Fixed-memory time-series rings the self-scrape loop fills and the
    /// `series` op reads.
    series: monityre_obs::SeriesStore,
    /// The wall-clock profiler's flame table, fed by the sampler thread.
    profiler: monityre_obs::Profiler,
    /// The SLO engine, advanced once per scrape tick.
    slo: std::sync::Mutex<monityre_obs::SloEngine>,
    /// The most recent health report — the readiness answer the `health`
    /// op serves without waiting on a scrape.
    health: std::sync::Mutex<monityre_obs::HealthReport>,
}

impl Shared {
    /// One merged registry snapshot: refresh the point-in-time gauges,
    /// then merge this server's private registry with the process-global
    /// one (where the core evaluation spans live). Both the `metrics`
    /// exposition and the self-scrape loop read through here, so the
    /// time-series rings see exactly what Prometheus would.
    fn merged_snapshot(&self) -> monityre_obs::RegistrySnapshot {
        let stats = &self.engine.stats;
        let registry = stats.registry();
        let clamp = |n: usize| i64::try_from(n).unwrap_or(i64::MAX);
        registry
            .gauge("serve.queue_depth")
            .set(clamp(self.gate.waiting()));
        registry
            .gauge("serve.queue_capacity")
            .set(clamp(self.gate.capacity()));
        registry
            .gauge(monityre_obs::names::SERVE_CONNECTIONS_OPEN)
            .set(clamp(*lock(&self.connections)));
        registry
            .gauge("serve.lru_entries")
            .set(clamp(self.engine.lru.len()));
        registry
            .gauge("serve.dedup_entries")
            .set(clamp(self.engine.dedup.len()));
        if let Ok(ingest) = self.engine.ingest.lock() {
            registry
                .gauge("serve.ingest_vehicles")
                .set(clamp(ingest.vehicles()));
            registry
                .gauge("serve.ingest_window_points")
                .set(i64::try_from(ingest.points_in_window()).unwrap_or(i64::MAX));
        }
        // Per-block attribution gauges from the most recent ledger (the
        // startup reference ledger until an `explain` is served), so the
        // series store charts any block's dynamic/static share over time.
        if let Ok(ledger) = self.engine.last_ledger.lock() {
            if let Some(ledger) = ledger.as_ref() {
                let prefix = monityre_obs::names::ENERGY_BLOCK_PREFIX;
                for entry in &ledger.blocks {
                    registry
                        .gauge(&format!("{prefix}.{}.dynamic_nj", entry.block))
                        .set(entry.dynamic_nj);
                    registry
                        .gauge(&format!("{prefix}.{}.static_nj", entry.block))
                        .set(entry.static_nj);
                }
            }
        }
        registry
            .snapshot()
            .merged(monityre_obs::Registry::global().snapshot())
    }

    /// Renders the `metrics` op body.
    fn prometheus_text(&self) -> String {
        self.merged_snapshot().to_prometheus()
    }

    /// One self-scrape tick: sample every counter, gauge and derived
    /// histogram quantile into the rings, then re-evaluate the SLO
    /// engine against them and cache the resulting health report.
    fn scrape_once(&self) {
        let snapshot = self.merged_snapshot();
        let now_us = monityre_obs::now_us();
        self.series.record_snapshot(now_us, &snapshot);
        let report = lock(&self.slo).evaluate(&self.series, &snapshot, now_us);
        *lock(&self.health) = report;
    }

    /// The cached readiness answer (the last scrape tick's report).
    fn health_report(&self) -> monityre_obs::HealthReport {
        lock(&self.health).clone()
    }

    /// Idempotent shutdown trigger: flag, gate close, acceptor poke.
    fn trigger_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.gate.close();
        // Unblock `accept` so the acceptor observes the flag. The poke
        // connection is handled (and immediately dropped) like any other.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running server. Dropping the handle shuts the server down
/// gracefully (so a panicking test never leaks threads); call
/// [`Self::wait`] to instead serve until a client sends `shutdown`.
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    observers: Vec<JoinHandle<()>>,
    replay: monityre_ingest::ReplayReport,
}

impl ServerHandle {
    /// The bound address (with the resolved ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A statistics snapshot, read directly (no wire round trip).
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.engine.stats.snapshot()
    }

    /// The Prometheus text exposition the `metrics` op serves, read
    /// directly (no wire round trip).
    #[must_use]
    pub fn prometheus_text(&self) -> String {
        self.shared.prometheus_text()
    }

    /// The cached readiness answer (what the `health` op serves), read
    /// directly (no wire round trip).
    #[must_use]
    pub fn health(&self) -> monityre_obs::HealthReport {
        self.shared.health_report()
    }

    /// The wall-clock profiler's flame table (what the `profile` op
    /// serves), read directly (no wire round trip).
    #[must_use]
    pub fn flame_table(&self) -> monityre_obs::FlameTable {
        self.shared.profiler.snapshot()
    }

    /// One metric's self-scraped time-series ring (what the `series` op
    /// serves for a default query), read directly (no wire round trip).
    /// `None` until the scrape loop has sampled the metric at least once.
    #[must_use]
    pub fn series(&self, metric: &str) -> Option<monityre_obs::SeriesSlice> {
        self.shared
            .series
            .query(metric, None, None, monityre_obs::now_us())
    }

    /// What the startup ingest replay found (all zeros when
    /// [`ServerConfig::ingest_dir`] was `None` or the directory was
    /// fresh) — `monityre serve` prints this so a post-crash restart
    /// tells the operator how much state it reconstructed.
    #[must_use]
    pub fn ingest_replay(&self) -> &monityre_ingest::ReplayReport {
        &self.replay
    }

    /// Whether shutdown has been triggered.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Initiates graceful shutdown and blocks until every queued job is
    /// answered and every thread has joined.
    pub fn shutdown(mut self) {
        self.shared.trigger_shutdown();
        self.join_all();
    }

    /// Blocks until a client triggers shutdown (the `shutdown` op), then
    /// drains and joins — the body of `monityre serve`. Returns the final
    /// statistics snapshot for the exit summary.
    pub fn wait(mut self) -> StatsSnapshot {
        self.join_all();
        self.shared.engine.stats.snapshot()
    }

    fn join_all(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // The scrape and sampler threads poll the shutdown flag at least
        // every POLL_PERIOD, so this drain is bounded.
        for observer in self.observers.drain(..) {
            let _ = observer.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.trigger_shutdown();
        self.join_all();
    }
}

/// Counts one live connection handler. Dropping it — when the handler
/// returns, panics, or never starts — releases the count and wakes the
/// shutdown drain once no handler is left.
struct ConnectionGuard(Arc<Shared>);

impl ConnectionGuard {
    fn new(shared: &Arc<Shared>) -> Self {
        *lock(&shared.connections) += 1;
        Self(Arc::clone(shared))
    }
}

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        let mut open = lock(&self.0.connections);
        *open -= 1;
        if *open == 0 {
            self.0.connection_closed.notify_all();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    // The shutdown poke (or a late client); stop accepting.
                    drop(stream);
                    break;
                }
                if let Some(plan) = shared.faults.as_deref() {
                    if plan.decide(FaultKind::AcceptDrop) {
                        // Injected: the dial succeeded, then the peer
                        // vanished before reading anything.
                        drop(stream);
                        continue;
                    }
                }
                let guard = ConnectionGuard::new(shared);
                // The handler runs detached, so its stack is freed when it
                // exits. If the spawn fails, the closure is dropped unrun:
                // the stream closes and the guard releases the count.
                let spawned =
                    thread::Builder::new().spawn(move || handle_connection(stream, &guard.0));
                if spawned.is_err() {
                    shared.engine.stats.record_spawn_failed();
                }
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Transient accept failure; keep serving.
            }
        }
    }
    // Handlers poll the shutdown flag every POLL_PERIOD, so this drain
    // is bounded.
    let mut open = lock(&shared.connections);
    while *open > 0 {
        open = shared
            .connection_closed
            .wait(open)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    if stream.set_read_timeout(Some(POLL_PERIOD)).is_err() {
        return;
    }
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    // The line buffer persists across reads: a timeout can strike
    // mid-line, and the bytes already consumed from the socket stay here
    // until the terminating newline arrives.
    let mut line: Vec<u8> = Vec::new();
    loop {
        let outcome = read_more(&mut reader, &mut line);
        // A line (complete, or still arriving) past the limit is refused
        // and the connection closed.
        if matches!(outcome, ReadOutcome::Line | ReadOutcome::WouldBlock)
            && line.len() > MAX_LINE_BYTES
        {
            let response = Response::failure(
                None,
                ErrorCode::BadRequest,
                format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            );
            shared.engine.stats.record_bad_request();
            let _ = send_response(&mut writer, &response, shared.faults.as_deref());
            return;
        }
        match outcome {
            ReadOutcome::Line => {
                let keep_going = serve_line(&line, &mut writer, shared);
                line.clear();
                if !keep_going {
                    return;
                }
            }
            ReadOutcome::WouldBlock => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            ReadOutcome::Eof => {
                if !line.is_empty() {
                    // Final unterminated line: serve it, then hang up.
                    let _ = serve_line(&line, &mut writer, shared);
                }
                return;
            }
            ReadOutcome::Error => return,
        }
    }
}

enum ReadOutcome {
    /// A complete `\n`-terminated line sits in the buffer.
    Line,
    /// The read timed out (possibly mid-line); poll the shutdown flag.
    WouldBlock,
    /// The peer closed the connection.
    Eof,
    /// A hard I/O error; drop the connection.
    Error,
}

/// Reads until a newline, EOF, or timeout. Partial bytes accumulate in
/// `line` across calls — `read_until` appends everything it consumed
/// before an error, so nothing is lost to a timeout.
fn read_more<R: Read>(reader: &mut BufReader<R>, line: &mut Vec<u8>) -> ReadOutcome {
    match reader.read_until(b'\n', line) {
        Ok(0) => ReadOutcome::Eof,
        Ok(_) => {
            if line.last() == Some(&b'\n') {
                ReadOutcome::Line
            } else {
                // `read_until` only returns a short read at EOF.
                ReadOutcome::Eof
            }
        }
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
            ) =>
        {
            ReadOutcome::WouldBlock
        }
        Err(_) => ReadOutcome::Error,
    }
}

/// Serves one request line; returns `false` when the connection (or the
/// whole server) should stop.
fn serve_line(raw: &[u8], writer: &mut TcpStream, shared: &Arc<Shared>) -> bool {
    let received = Instant::now();
    let stats = &shared.engine.stats;
    let faults = shared.faults.as_deref();
    if let Some(plan) = faults {
        if plan.decide(FaultKind::SlowRead) {
            // Injected: a slow server — the request sits unparsed.
            thread::sleep(plan.delay());
        }
    }
    let text = match std::str::from_utf8(raw) {
        Ok(text) => text.trim_end_matches(['\n', '\r']).trim(),
        Err(_) => {
            stats.record_bad_request();
            let response =
                Response::failure(None, ErrorCode::BadRequest, "request line is not UTF-8");
            return send_response(writer, &response, faults).is_ok();
        }
    };
    if text.is_empty() {
        return true; // blank keep-alive line
    }
    let request: Request = match serde_json::from_str(text) {
        Ok(request) => request,
        Err(e) => {
            stats.record_bad_request();
            let response = Response::failure(
                None,
                ErrorCode::BadRequest,
                format!("request does not parse: {e}"),
            );
            return send_response(writer, &response, faults).is_ok();
        }
    };
    let id = request.id;
    if let Err(message) = request.validate() {
        stats.record_bad_request();
        let response = Response::failure(id, ErrorCode::BadRequest, message);
        return send_response(writer, &response, faults).is_ok();
    }
    // Install the wire trace context for everything this request does on
    // this thread, control ops and evaluation alike.
    let _trace = request.trace.map(monityre_obs::install_context);
    if request.op.is_control() {
        return match request.op {
            Op::Ping => {
                send_response(writer, &Response::success(id, Payload::Pong), faults).is_ok()
            }
            Op::Stats => {
                let snapshot = shared.engine.stats.snapshot();
                send_response(
                    writer,
                    &Response::success(id, Payload::Stats(snapshot)),
                    faults,
                )
                .is_ok()
            }
            Op::Metrics => {
                let text = shared.prometheus_text();
                send_response(
                    writer,
                    &Response::success(id, Payload::Metrics(text)),
                    faults,
                )
                .is_ok()
            }
            Op::Dump => {
                monityre_obs::recorder::record_event("dump.requested");
                let payload = match monityre_obs::recorder::dump("wire_request") {
                    Some((path, records)) => Payload::Dumped {
                        path: Some(path.display().to_string()),
                        records,
                    },
                    // Unarmed (or the write failed): still acknowledge
                    // with the record count so the caller learns the
                    // recorder is alive but has nowhere to dump.
                    None => Payload::Dumped {
                        path: None,
                        records: monityre_obs::recorder::snapshot().len(),
                    },
                };
                send_response(writer, &Response::success(id, payload), faults).is_ok()
            }
            Op::Series => {
                let params = &request.params;
                let metric = params.metric.as_deref().unwrap_or_default();
                let step_us = params
                    .resolution
                    .as_deref()
                    .and_then(monityre_obs::parse_duration_us);
                let range_us = params.range_s.map(|s| s.saturating_mul(1_000_000));
                let response =
                    match shared
                        .series
                        .query(metric, step_us, range_us, monityre_obs::now_us())
                    {
                        Some(slice) => Response::success(id, Payload::Series(slice)),
                        None => {
                            // An unknown metric is a caller mistake, not an
                            // empty chart: name the nearest recorded series
                            // so a typo is a one-round-trip fix.
                            let nearest = nearest_metrics(metric, &shared.series.metric_names());
                            let hint = if nearest.is_empty() {
                                "no series recorded yet — is the scrape loop enabled?".to_owned()
                            } else {
                                format!("nearest recorded: {}", nearest.join(", "))
                            };
                            Response::failure(
                                id,
                                ErrorCode::EvalFailed,
                                format!("metric `{metric}` has no recorded series ({hint})"),
                            )
                        }
                    };
                send_response(writer, &response, faults).is_ok()
            }
            Op::Health => {
                let report = shared.health_report();
                send_response(
                    writer,
                    &Response::success(id, Payload::Health(report)),
                    faults,
                )
                .is_ok()
            }
            Op::Profile => {
                let table = shared.profiler.snapshot();
                send_response(
                    writer,
                    &Response::success(id, Payload::Profile(table)),
                    faults,
                )
                .is_ok()
            }
            _ => {
                // Acknowledge first so the client sees the answer even
                // though this connection closes right after. Never
                // faulted: losing the ack would strand the drain.
                let _ = write_response(writer, &Response::success(id, Payload::Draining));
                shared.trigger_shutdown();
                false
            }
        };
    }
    // Evaluation op: run it on this thread once the gate admits it. A
    // full waiting room sheds the request right here with a structured
    // error.
    let response = match shared.gate.enter() {
        Ok(_permit) => {
            let job = Job {
                deadline: request
                    .deadline_ms
                    .map(|ms| received + Duration::from_millis(ms)),
                request,
                received,
            };
            run_job(&shared.engine, &job, faults)
        }
        Err(Refused::Full) => {
            stats.record_rejected();
            Response::failure(
                id,
                ErrorCode::QueueFull,
                format!(
                    "job queue is at capacity ({}); retry later",
                    shared.gate.capacity()
                ),
            )
        }
        Err(Refused::Closed) => {
            Response::failure(id, ErrorCode::ShuttingDown, "server is draining")
        }
    };
    send_response(writer, &response, faults).is_ok()
}

/// Ranks the recorded series names by edit distance to the requested
/// metric and returns the closest few, nearest first (name order breaks
/// ties so the hint is deterministic).
fn nearest_metrics(target: &str, names: &[String]) -> Vec<String> {
    let mut ranked: Vec<(usize, &String)> = names
        .iter()
        .map(|name| (edit_distance(target, name), name))
        .collect();
    ranked.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(b.1)));
    ranked
        .into_iter()
        .take(3)
        .map(|(_, name)| format!("`{name}`"))
        .collect()
}

/// Plain Levenshtein distance; the name sets involved are tiny (a few
/// dozen metrics of a few dozen bytes), so the O(n·m) table row is fine.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

fn write_response(writer: &mut TcpStream, response: &Response) -> io::Result<()> {
    let mut payload = serde_json::to_string(response)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    payload.push('\n');
    writer.write_all(payload.as_bytes())?;
    writer.flush()
}

/// [`write_response`] behind the response-path fault hooks. Every hook is
/// a conditional on the (usually absent) plan, so the fault-free path
/// costs one branch.
///
/// Injection sites, in the order they are considered:
///
/// * `conn_reset` — close the socket instead of answering; the result
///   exists server-side (and, with an `idem` key, in the dedup map) but
///   never travels.
/// * `stall_read` / `delay_response` — hold the response for the plan's
///   stall/delay; the client's read timeout (not a hang) must handle it.
/// * `truncate_frame` — write a newline-less prefix, then close.
/// * `corrupt_frame` — flip the first byte to an invalid-UTF-8 value
///   (`{` ⊕ 0x80), so damage is always *detectable*: an arbitrary bit
///   flip could still parse and silently return a wrong result.
/// * `partial_write` — split the write in two flushes with a pause
///   between; benign, the frame still completes.
fn send_response(
    writer: &mut TcpStream,
    response: &Response,
    faults: Option<&FaultPlan>,
) -> io::Result<()> {
    let Some(plan) = faults else {
        return write_response(writer, response);
    };
    if plan.decide(FaultKind::ConnReset) {
        let _ = writer.shutdown(Shutdown::Both);
        return Err(io::Error::new(
            io::ErrorKind::ConnectionReset,
            "injected connection reset",
        ));
    }
    if plan.decide(FaultKind::StallRead) {
        thread::sleep(plan.stall());
    } else if plan.decide(FaultKind::DelayResponse) {
        thread::sleep(plan.delay());
    }
    let mut payload = serde_json::to_string(response)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    payload.push('\n');
    let mut bytes = payload.into_bytes();
    if plan.decide(FaultKind::TruncateFrame) {
        let cut = bytes.len() / 2;
        writer.write_all(&bytes[..cut])?;
        writer.flush()?;
        let _ = writer.shutdown(Shutdown::Both);
        return Err(io::Error::new(
            io::ErrorKind::WriteZero,
            "injected truncated frame",
        ));
    }
    if plan.decide(FaultKind::CorruptFrame) {
        bytes[0] ^= 0x80;
    }
    if plan.decide(FaultKind::PartialWrite) {
        let cut = (bytes.len() / 2).max(1);
        writer.write_all(&bytes[..cut])?;
        writer.flush()?;
        thread::sleep(plan.pause());
        writer.write_all(&bytes[cut..])?;
        return writer.flush();
    }
    writer.write_all(&bytes)?;
    writer.flush()
}

/// Resolves a `host:port` string to a socket address (first match).
///
/// # Errors
///
/// Propagates resolution failures; an empty resolution is
/// [`io::ErrorKind::AddrNotAvailable`].
pub fn resolve_addr(spec: &str) -> io::Result<SocketAddr> {
    spec.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::AddrNotAvailable,
            format!("`{spec}` resolves to no address"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    #[test]
    fn a_panic_caught_by_run_job_releases_the_permit() {
        let plan = FaultPlan::new(7).with_fault(FaultKind::WorkerPanic, 1.0);
        let handle = ServerConfig {
            workers: 1,
            queue_capacity: 1,
            faults: Some(Arc::new(plan)),
            ..ServerConfig::default()
        }
        .start()
        .expect("bind loopback");
        let mut client = Client::connect(handle.addr()).expect("connect");
        client
            .set_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        // With one permit, a leaked one would leave the second request
        // waiting forever.
        for id in 0..3 {
            let response = client
                .request(&Request::new(Op::Breakeven).with_id(id))
                .expect("answered");
            assert_eq!(response.error_code(), Some(ErrorCode::Internal));
        }
        drop(handle.shared.gate.enter().expect("the permit came back"));
        handle.shutdown();
    }
}
