//! The monityre benchmark: four seeded workloads against the public APIs
//! of `core`, `sheet`, `serve`, `ingest` and `fleet`.
//!
//! ```text
//! monityre-perfbench --workload <explore|workbook|serve-query|fleet-ingest>
//!                    --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! `--trace 0` measures the workload for `--seconds` and prints the
//! end-to-end metrics; `--trace 1` runs it untraced and traced for half
//! the time each, probes every layer, and prints the per-layer metrics.
//! Either way the last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; a failed output check makes
//! `correct` false and the exit code 1. See `perfbench/METRICS.md`.

mod explore;
mod fleet_ingest;
mod probe;
mod serve_query;
mod trace;
mod util;
mod workbook;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use monityre_ingest::TelemetryPoint;
use monityre_serve::{Request, ScenarioSpec};

use crate::trace::TraceSet;
use crate::util::{median, percentile_ms, quantile, vm_hwm_mb};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Client threads / executor width: the machine's parallelism.
    pub threads: usize,
    /// Where traces and scratch files go.
    pub out: PathBuf,
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub pass: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, pass: bool, detail: String) -> Self {
        Self { name, pass, detail }
    }
}

/// Workload inputs handed to the layer probes, so layers are probed on
/// the workload's own data where it has some.
#[derive(Debug, Clone, Default)]
pub struct ProbeInputs {
    pub specs: Vec<ScenarioSpec>,
    pub requests: Vec<Request>,
    pub points: Vec<TelemetryPoint>,
}

/// One timed operation of the measured window.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When it ended, nanoseconds into the window.
    pub end_ns: u64,
    /// How long it took, nanoseconds.
    pub took_ns: u64,
    /// Headline work it completed (scenarios, cells, requests, points).
    pub work: f64,
    /// A latency sample (an operation a user waits for), or busy time
    /// the headline rate is taken over (the workbook's full recalcs).
    pub kind: SampleKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleKind {
    Latency,
    Busy,
}

impl Sample {
    pub fn latency(end_ns: u64, took_ns: u64, work: f64) -> Self {
        Self {
            end_ns,
            took_ns,
            work,
            kind: SampleKind::Latency,
        }
    }

    pub fn busy(end_ns: u64, took_ns: u64, work: f64) -> Self {
        Self {
            end_ns,
            took_ns,
            work,
            kind: SampleKind::Busy,
        }
    }
}

/// End-to-end rates and latencies are taken per window of this length.
pub const WINDOW_S: f64 = 1.0;

/// Each run reports the level its windows reach in at least a quarter of
/// the run: the upper quartile of window rates and the lower quartile of
/// window latencies. Load from other tenants of a shared host only ever
/// slows a window, and comes in bursts of tens of seconds, so this
/// follows the program while a burst covers up to three quarters of a
/// run; a change that slows every window still moves it in full.
const WINDOW_QUARTILE: f64 = 0.25;

/// What one measured run of a workload produced.
#[derive(Debug)]
pub struct Outcome {
    /// Unit of the headline work count.
    pub work_unit: &'static str,
    /// Every set-up's duration, seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of the measured window, seconds.
    pub window_s: f64,
    /// Every timed operation of the window.
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    /// Requests the server refused (`queue_full`, deadline).
    pub refused: u64,
    pub retries: u64,
    pub checks: Vec<Check>,
    /// VmHWM (MB) read when the workload reached its fixed amount of work
    /// (`rss_work` says which), NaN until then.
    pub peak_rss_mb: f64,
    pub rss_work: String,
    /// Workload-specific names for end-to-end figures, printed for reading.
    pub aliases: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer readings taken directly (counts, ratios, server stats).
    pub layer: BTreeMap<&'static str, f64>,
    /// Spans of the measured window, one tracer per client thread.
    pub trace: TraceSet,
    /// Spans of the timed calls made after the window (checks, probes).
    pub probe_trace: TraceSet,
    pub probe: ProbeInputs,
}

impl Outcome {
    pub fn new(work_unit: &'static str) -> Self {
        Self {
            work_unit,
            setup_s: Vec::new(),
            window_s: 0.0,
            samples: Vec::new(),
            attempted: 0,
            failed: 0,
            refused: 0,
            retries: 0,
            checks: Vec::new(),
            peak_rss_mb: f64::NAN,
            rss_work: String::new(),
            aliases: Vec::new(),
            layer: BTreeMap::new(),
            trace: TraceSet::default(),
            probe_trace: TraceSet::default(),
            probe: ProbeInputs::default(),
        }
    }

    pub fn work(&self) -> f64 {
        self.samples.iter().map(|s| s.work).sum()
    }

    fn rate_over_busy(&self) -> bool {
        self.samples.iter().any(|s| s.kind == SampleKind::Busy)
    }

    /// Headline rate over the whole window: work per second of window,
    /// or per second of busy time when the workload times a phase.
    pub fn throughput(&self) -> f64 {
        if self.rate_over_busy() {
            let busy: u64 = self
                .samples
                .iter()
                .filter(|s| s.kind == SampleKind::Busy)
                .map(|s| s.took_ns)
                .sum();
            self.work() / (busy as f64 / 1e9)
        } else {
            self.work() / self.window_s
        }
    }

    pub fn latencies_ns(&self) -> Vec<u64> {
        self.samples
            .iter()
            .filter(|s| s.kind == SampleKind::Latency)
            .map(|s| s.took_ns)
            .collect()
    }

    /// Per-window throughput, p50 and p99 (ms) over the full windows.
    pub fn windows(&self) -> Vec<(f64, f64, f64)> {
        let count = ((self.window_s / WINDOW_S).floor() as usize).max(1);
        let width_ns = (self.window_s / count as f64 * 1e9) as u64;
        let mut buckets: Vec<Vec<Sample>> = vec![Vec::new(); count];
        for sample in &self.samples {
            let index = (sample.end_ns / width_ns.max(1)) as usize;
            if let Some(bucket) = buckets.get_mut(index) {
                bucket.push(*sample);
            }
        }
        let busy_rate = self.rate_over_busy();
        buckets
            .iter()
            .map(|bucket| {
                let work: f64 = bucket.iter().map(|s| s.work).sum();
                let rate = if busy_rate {
                    let busy: u64 = bucket
                        .iter()
                        .filter(|s| s.kind == SampleKind::Busy)
                        .map(|s| s.took_ns)
                        .sum();
                    work / (busy as f64 / 1e9)
                } else {
                    work / (width_ns as f64 / 1e9)
                };
                let latencies: Vec<u64> = bucket
                    .iter()
                    .filter(|s| s.kind == SampleKind::Latency)
                    .map(|s| s.took_ns)
                    .collect();
                (
                    rate,
                    percentile_ms(&latencies, 0.50),
                    percentile_ms(&latencies, 0.99),
                )
            })
            .collect()
    }

    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    pub fn error_rate(&self) -> f64 {
        (self.failed + self.refused) as f64 / self.attempted.max(1) as f64
    }
}

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 4] = ["explore", "workbook", "serve-query", "fleet-ingest"];

fn run_workload(cfg: &Config, seconds: f64, traced: bool) -> Outcome {
    match cfg.workload.as_str() {
        "explore" => explore::run(cfg, seconds, traced),
        "workbook" => workbook::run(cfg, seconds, traced),
        "serve-query" => serve_query::run(cfg, seconds, traced),
        "fleet-ingest" => fleet_ingest::run(cfg, seconds, traced),
        other => unreachable!("workload `{other}` was validated"),
    }
}

fn parse_args() -> Result<Config, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from("perfbench/target/out");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    Ok(Config {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        threads: std::thread::available_parallelism().map_or(1, usize::from),
        out,
    })
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn end_to_end(outcome: &Outcome) -> Vec<Metric> {
    let windows = outcome.windows();
    let over_windows = |pick: fn(&(f64, f64, f64)) -> f64, q: f64| -> f64 {
        quantile(&windows.iter().map(pick).collect::<Vec<f64>>(), q)
    };
    vec![
        metric("setup_s", median(&outcome.setup_s), "s"),
        metric(
            "throughput_per_s",
            over_windows(|w| w.0, 1.0 - WINDOW_QUARTILE),
            "1/s",
        ),
        metric(
            "latency_p50_ms",
            over_windows(|w| w.1, WINDOW_QUARTILE),
            "ms",
        ),
        metric(
            "latency_p99_ms",
            over_windows(|w| w.2, WINDOW_QUARTILE),
            "ms",
        ),
        metric("peak_rss_mb", outcome.peak_rss_mb, "MB"),
    ]
}

fn print_header(cfg: &Config) {
    println!(
        "# monityre-perfbench workload={} seed={} seconds={} trace={} nproc={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.threads
    );
}

fn print_outcome(outcome: &Outcome) {
    println!(
        "# window {:.3} s: {:.0} {}, {:.1}/s overall; attempted {} succeeded {} failed {} refused {} retries {} error_rate {}",
        outcome.window_s,
        outcome.work(),
        outcome.work_unit,
        outcome.throughput(),
        outcome.attempted,
        outcome.attempted - outcome.failed - outcome.refused,
        outcome.failed,
        outcome.refused,
        outcome.retries,
        outcome.error_rate()
    );
    let latencies = outcome.latencies_ns();
    println!(
        "# latency sample: {} operations (overall p50 {:.4} ms, p99 {:.4} ms); {} windows of {WINDOW_S} s; setup repeated {} times",
        latencies.len(),
        percentile_ms(&latencies, 0.50),
        percentile_ms(&latencies, 0.99),
        outcome.windows().len(),
        outcome.setup_s.len()
    );
    let windows = outcome.windows();
    let column = |pick: fn(&(f64, f64, f64)) -> String| -> String {
        windows.iter().map(pick).collect::<Vec<String>>().join(" ")
    };
    println!("# per-window rate: {}", column(|w| format!("{:.0}", w.0)));
    println!("# per-window p99 ms: {}", column(|w| format!("{:.3}", w.2)));
    println!(
        "# peak_rss_mb read after {}: {:.3} MB (VmHWM now, after the whole run: {:.3} MB)",
        outcome.rss_work,
        outcome.peak_rss_mb,
        vm_hwm_mb()
    );
    for (name, value, unit) in &outcome.aliases {
        println!("# {name} = {value} {unit}");
    }
    for check in &outcome.checks {
        println!(
            "# check {} {}: {}",
            check.name,
            if check.pass { "ok" } else { "FAILED" },
            check.detail
        );
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                serde_json::to_string(&m.value).expect("finite floats serialize")
            } else {
                "null".to_owned()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(message) => {
            eprintln!("monityre-perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.out) {
        eprintln!(
            "monityre-perfbench: cannot create {}: {e}",
            cfg.out.display()
        );
        return ExitCode::from(2);
    }
    print_header(&cfg);

    let (correct, attempted, failed, metrics) = if cfg.trace {
        traced_run(&cfg)
    } else {
        let outcome = run_workload(&cfg, cfg.seconds, false);
        print_outcome(&outcome);
        let metrics = end_to_end(&outcome);
        (
            outcome.passed() && outcome.error_rate() == 0.0,
            outcome.attempted,
            outcome.failed + outcome.refused,
            metrics,
        )
    };
    for m in &metrics {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", json_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The per-layer run: the workload untraced and traced for half the time
/// each (their difference is the tracing overhead), then the layer
/// probes on the traced run's inputs.
fn traced_run(cfg: &Config) -> (bool, u64, u64, Vec<Metric>) {
    let half = cfg.seconds / 2.0;
    let untraced = run_workload(cfg, half, false);
    println!("# untraced half:");
    print_outcome(&untraced);
    let mut traced = run_workload(cfg, half, true);
    println!("# traced half:");
    print_outcome(&traced);

    let books = traced.trace.books();
    let mut probes = probe::run(cfg, &mut traced);
    probes.threads.append(&mut traced.probe_trace.threads);

    // One file, window threads first, then the probe threads.
    let mut window = std::mem::take(&mut traced.trace);
    let window_threads = window.threads.len();
    window.threads.append(&mut probes.threads);
    let spans = cfg
        .out
        .join(format!("trace-{}-seed{}.jsonl", cfg.workload, cfg.seed));
    if let Err(e) = std::fs::write(&spans, window.to_jsonl()) {
        eprintln!("monityre-perfbench: cannot write {}: {e}", spans.display());
    }
    println!("# spans written to {}", spans.display());
    let probes = TraceSet {
        threads: window.threads.split_off(window_threads),
    };

    let metrics = probe::layer_metrics(&traced, &untraced, &books, &window, &probes);
    println!(
        "# layer self-time shares of {:.3} thread-s:",
        books.wall_ns as f64 / 1e9
    );
    for (layer, ns) in &books.self_ns {
        println!(
            "#   {layer:<22} {:.4}",
            *ns as f64 / books.wall_ns.max(1) as f64
        );
    }
    println!("#   {:<22} {:.4}", "untimed", books.untimed_share());
    let conserved = books.balanced();
    println!(
        "# check trace.conservation {}: spans nest ({} misnested), self times {} ns + untimed {} ns = wall {} ns",
        if conserved { "ok" } else { "FAILED" },
        books.misnested,
        books.self_ns.values().sum::<u64>(),
        books.untimed_ns,
        books.wall_ns
    );
    let correct = traced.passed()
        && untraced.passed()
        && conserved
        && traced.error_rate() == 0.0
        && untraced.error_rate() == 0.0;
    (
        correct,
        traced.attempted + untraced.attempted,
        traced.failed + traced.refused + untraced.failed + untraced.refused,
        metrics,
    )
}
