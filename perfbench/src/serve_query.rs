//! `serve-query`: the server's read path. `nproc` persistent lockstep
//! connections in a closed loop (each waits for its reply, as `Client`
//! users do) over a Zipf-skewed pool of scenarios six times the size of
//! the server's 16-slot scenario cache.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use monityre_core::SweepExecutor;
use monityre_node::Architecture;
use monityre_serve::{
    decode_response_line, evaluate, Client, ErrorCode, Op, Payload, Request, Response,
    ScenarioSpec, ServerConfig, ServerHandle,
};
use monityre_sheet::PowerSheet;

use crate::trace::Tracer;
use crate::util::{ns_since, prometheus_quantile_us, record_proc, vm_hwm_mb, Rng, Zipf};
use crate::{explore, Check, Config, Outcome, ProbeInputs, Sample};

/// Distinct scenarios in the request pool: six times the 16-slot LRU.
pub const POOL: usize = 96;
const EVAL_STEPS: usize = 32;
const SWEEP_STEPS: usize = 16;
/// Share of a connection's stateless requests kept for the byte check.
const SAMPLE_SHARE: f64 = 1.0 / 32.0;
const MAX_SAMPLES_PER_CONNECTION: usize = 512;
/// Share of connection 0's requests that are workbook ops, and the edit
/// share among those. Only connection 0 touches the shared workbook, so
/// its edit order — and so every workbook answer — is deterministic.
const SHEET_SHARE: f64 = 0.08;
const SHEET_EDIT_SHARE: f64 = 0.25;
/// Set-ups before and after the measured window; `setup_s` is their
/// median, so it samples the machine at two moments of the run.
const SETUPS_EACH_SIDE: usize = 5;
/// `peak_rss_mb` is read after this many requests over all connections;
/// the window runs on until they are done even when `--seconds` has
/// passed.
const RSS_AT_REQUESTS: u64 = 16_384;

/// Requests completed over all connections, and the VmHWM reading taken
/// when they reached `RSS_AT_REQUESTS`.
#[derive(Default)]
struct Progress {
    done: AtomicU64,
    rss_mb: OnceLock<f64>,
}

impl Progress {
    fn running(&self, start: Instant, seconds: f64) -> bool {
        self.done.load(Ordering::Relaxed) < RSS_AT_REQUESTS
            || start.elapsed().as_secs_f64() < seconds
    }

    fn finished_one(&self) {
        if self.done.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AT_REQUESTS {
            let _ = self.rss_mb.set(vm_hwm_mb());
        }
    }
}

/// Starts the default in-process server and warms it with one request of
/// each evaluating op; returns it with the seconds that took.
pub fn start_server() -> (ServerHandle, f64) {
    let start = Instant::now();
    let handle = ServerConfig::default().start().expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect to own server");
    for op in [Op::Ping, Op::Breakeven, Op::Explain, Op::Balance] {
        let response = client.request(&Request::new(op)).expect("warm-up request");
        assert!(response.is_ok(), "warm-up {op:?} failed: {response:?}");
    }
    (handle, ns_since(start) as f64 / 1e9)
}

/// The reference workbook the server's `sheet_*` ops run against, built
/// the way the server builds it.
pub fn reference_sheet() -> PowerSheet {
    let mut sheet =
        PowerSheet::new(Architecture::reference().database()).expect("reference workbook");
    monityre_core::install_parallel_recompute(sheet.sheet_mut(), SweepExecutor::available());
    sheet
        .sheet_mut()
        .compile()
        .expect("reference workbook compiles");
    sheet
}

/// The workbook's literal (editable) cells and its aggregate cells.
fn sheet_cells() -> (Vec<String>, Vec<String>) {
    let sheet = reference_sheet();
    let mut literals = Vec::new();
    let mut aggregates = Vec::new();
    for name in sheet.sheet().names() {
        if name.starts_with("node.") {
            aggregates.push(name.to_owned());
        } else if !name.starts_with("cond.") {
            literals.push(name.to_owned());
        }
    }
    literals.sort();
    aggregates.sort();
    (literals, aggregates)
}

/// The seeded request generator of one connection.
pub struct Mix {
    rng: Rng,
    pool: Vec<ScenarioSpec>,
    zipf: Zipf,
    literals: Vec<String>,
    aggregates: Vec<String>,
    sheet_ops: bool,
    next_id: u64,
}

impl Mix {
    pub fn new(seed: u64, connection: u64, pool: &[ScenarioSpec], sheet_ops: bool) -> Self {
        let (literals, aggregates) = sheet_cells();
        Self {
            rng: Rng::lane(seed, 100 + connection),
            pool: pool.to_vec(),
            zipf: Zipf::new(pool.len()),
            literals,
            aggregates,
            sheet_ops,
            next_id: connection << 40,
        }
    }

    pub fn next(&mut self) -> Request {
        self.next_id += 1;
        let rng = &mut self.rng;
        if self.sheet_ops && rng.chance(SHEET_SHARE) {
            let mut request;
            if rng.chance(SHEET_EDIT_SHARE) {
                request = Request::new(Op::SheetEdit);
                request.params.cell = Some(rng.pick(&self.literals).clone());
                request.params.value = Some(rng.range(0.1, 50.0));
            } else {
                request = Request::new(Op::SheetEval);
                let cells = if rng.chance(0.5) {
                    &self.aggregates
                } else {
                    &self.literals
                };
                request.params.cell = Some(rng.pick(cells).clone());
            }
            return request.with_id(self.next_id);
        }
        let draw = rng.unit();
        let mut request = if draw < 0.35 {
            let mut r = Request::new(Op::Breakeven);
            r.params.steps = Some(EVAL_STEPS);
            r
        } else if draw < 0.60 {
            let mut r = Request::new(Op::Explain);
            r.params.speed_kmh = Some(rng.range(5.0, 200.0));
            r
        } else if draw < 0.85 {
            let mut r = Request::new(Op::Balance);
            r.params.steps = Some(EVAL_STEPS);
            r
        } else {
            let mut r = Request::new(Op::Sweep);
            r.params.steps = Some(SWEEP_STEPS);
            r
        };
        request.scenario = self.pool[self.zipf.sample(rng)].clone();
        request.with_id(self.next_id)
    }

    pub fn sample(&mut self) -> bool {
        self.rng.chance(SAMPLE_SHARE)
    }
}

/// The scenario pool of a seed: `POOL` distinct seeded specs.
pub fn pool(seed: u64) -> Vec<ScenarioSpec> {
    let mut rng = Rng::lane(seed, 4);
    (0..POOL)
        .map(|_| explore::scenario_spec(&mut rng))
        .collect()
}

/// What one connection saw.
#[derive(Default)]
struct Connection {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    refused: u64,
    checked: Vec<(Request, String)>,
    sheet_log: Vec<(Request, String)>,
    tracer: Option<Tracer>,
}

fn drive(
    addr: std::net::SocketAddr,
    mut mix: Mix,
    start: Instant,
    seconds: f64,
    traced: bool,
    progress: &Progress,
) -> Connection {
    let mut conn = Connection::default();
    let mut tracer = Tracer::new(traced);
    let mut client = Client::connect(addr).expect("connect to own server");
    while progress.running(start, seconds) {
        let gen = tracer.open("bench.generate");
        let request = mix.next();
        let keep = mix.sample();
        tracer.close(gen, 1);
        conn.attempted += 1;
        let sent = Instant::now();
        let raw = tracer.time("serve.client.request", 1, || client.request_raw(&request));
        let took = ns_since(sent);
        progress.finished_one();
        let Ok(raw) = raw else {
            conn.samples
                .push(Sample::latency(ns_since(start), took, 0.0));
            conn.failed += 1;
            client = Client::connect(addr).expect("reconnect to own server");
            continue;
        };
        let response = decode_response_line(raw.as_bytes());
        let served = matches!(&response, Ok(r) if r.is_ok());
        conn.samples.push(Sample::latency(
            ns_since(start),
            took,
            if served { 1.0 } else { 0.0 },
        ));
        match response {
            Ok(response) if response.is_ok() => {}
            Ok(response) => match response.error_code() {
                Some(ErrorCode::QueueFull | ErrorCode::DeadlineExceeded) => conn.refused += 1,
                _ => conn.failed += 1,
            },
            Err(_) => conn.failed += 1,
        }
        if matches!(request.op, Op::SheetEdit | Op::SheetEval) {
            conn.sheet_log.push((request, raw));
        } else if keep && conn.checked.len() < MAX_SAMPLES_PER_CONNECTION {
            conn.checked.push((request, raw));
        }
    }
    tracer.finish();
    conn.tracer = Some(tracer);
    conn
}

/// The line the server must send for `request`, from in-process evaluation.
pub fn expected_line(request: &Request) -> Option<String> {
    let payload = evaluate(request, &SweepExecutor::serial()).ok()?;
    serde_json::to_string(&Response::success(request.id, payload)).ok()
}

/// Replays connection 0's workbook ops on a local reference workbook and
/// compares every answer byte for byte.
fn replay_sheet(log: &[(Request, String)]) -> usize {
    let mut sheet = reference_sheet();
    let mut mismatches = 0;
    for (request, raw) in log {
        let cell = request.params.cell.as_deref().unwrap_or_default();
        let payload = if request.op == Op::SheetEdit {
            let value = request.params.value.expect("edits carry a value");
            sheet
                .sheet_mut()
                .set_number(cell, value)
                .expect("literal edit applies");
            let wave = sheet.sheet().last_recompute();
            Payload::SheetEdit {
                cell: cell.to_owned(),
                value: sheet.value(cell).expect("edited cell reads"),
                evaluated: wave.evaluated,
                cut: wave.cut,
            }
        } else {
            Payload::SheetEval {
                cell: cell.to_owned(),
                value: sheet.value(cell).expect("cell reads"),
            }
        };
        let expected = serde_json::to_string(&Response::success(request.id, payload))
            .expect("response serializes");
        if &expected != raw {
            mismatches += 1;
        }
    }
    mismatches
}

/// Server-side readings at the end of a run, from the `stats` and
/// `metrics` views.
pub fn server_readings(handle: &ServerHandle, out: &mut Outcome) {
    let stats = handle.stats();
    let prometheus = handle.prometheus_text();
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    out.layer.insert(
        "serve.cache_hit_ratio",
        ratio(stats.cache_hits, stats.cache_misses),
    );
    out.layer.insert(
        "serve.memo_hit_ratio",
        ratio(stats.eval_memo.hits, stats.eval_memo.misses),
    );
    // Counts add up over the servers of a run; ratios and quantiles are
    // the last server's.
    *out.layer.entry("serve.refused").or_default() += (stats.rejected + stats.timed_out) as f64;
    *out.layer.entry("serve.dedup_hits").or_default() += stats.dedup_hits as f64;
    for (metric, histogram) in [
        ("serve.queue_wait_p50_us", "monityre_serve_queue_wait"),
        ("serve.execute_p50_us", "monityre_serve_execute"),
    ] {
        if let Some(us) = prometheus_quantile_us(&prometheus, histogram, 0.5) {
            out.layer.insert(metric, us);
        }
    }
}

pub fn run(cfg: &Config, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::new("requests");
    for _ in 1..SETUPS_EACH_SIDE {
        let (started, took) = start_server();
        out.setup_s.push(took);
        started.shutdown();
    }
    let (handle, took) = start_server();
    out.setup_s.push(took);
    let addr = handle.addr();
    let pool = pool(cfg.seed);

    let progress = Progress::default();
    let start = Instant::now();
    let connections: Vec<Connection> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..cfg.threads as u64)
            .map(|c| {
                let mix = Mix::new(cfg.seed, c, &pool, c == 0);
                let progress = &progress;
                scope.spawn(move || drive(addr, mix, start, seconds, traced, progress))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    out.window_s = start.elapsed().as_secs_f64();
    out.peak_rss_mb = progress.rss_mb.get().copied().unwrap_or(f64::NAN);
    out.rss_work = format!("{RSS_AT_REQUESTS} requests");
    record_proc(&mut out.layer);
    server_readings(&handle, &mut out);
    handle.shutdown();
    for _ in 0..SETUPS_EACH_SIDE {
        let (started, took) = start_server();
        out.setup_s.push(took);
        started.shutdown();
    }

    let mut checked = Vec::new();
    let mut sheet_log = Vec::new();
    for mut conn in connections {
        out.samples.append(&mut conn.samples);
        out.attempted += conn.attempted;
        out.failed += conn.failed;
        out.refused += conn.refused;
        checked.append(&mut conn.checked);
        sheet_log.append(&mut conn.sheet_log);
        out.trace.push(conn.tracer.take().expect("driven"));
    }
    out.layer.insert("client.attempts", out.attempted as f64);
    out.layer.insert("client.retries", 0.0);

    let mismatched = checked
        .iter()
        .filter(|(request, raw)| expected_line(request).as_deref() != Some(raw.as_str()))
        .count();
    out.checks.push(Check::new(
        "serve-query.sampled_lines_byte_identical_to_evaluate",
        mismatched == 0 && !checked.is_empty(),
        format!("{} sampled lines, {mismatched} differ", checked.len()),
    ));
    let sheet_mismatches = replay_sheet(&sheet_log);
    out.checks.push(Check::new(
        "serve-query.workbook_answers_match_local_replay",
        sheet_mismatches == 0,
        format!(
            "{} workbook ops, {sheet_mismatches} differ",
            sheet_log.len()
        ),
    ));
    out.probe = ProbeInputs {
        specs: pool,
        requests: checked.into_iter().map(|(request, _)| request).collect(),
        ..ProbeInputs::default()
    };
    out
}
