//! Layer probes and the per-layer metric table.
//!
//! After the traced window, every layer is timed directly through its
//! public functions — on the workload's own inputs where it has them
//! (scenarios, request lines, telemetry points), on seeded inputs
//! otherwise — so every per-layer metric is a measurement on every
//! workload. A layer the workload itself calls is reported from the
//! window's spans; its `trace.share.*` says how much of the workload it
//! is, and a zero share marks a layer the workload never reaches.

use monityre_core::{
    BreakEvenOptimizer, EnergyBalance, MonteCarlo, Scenario, SweepExecutor, VariationModel,
};
use monityre_ingest::{
    synthetic_points, Ingestor, SegmentStore, StoreConfig, TelemetryPoint, WindowEngine,
    DEFAULT_WINDOW_US,
};
use monityre_obs::{names, Registry};
use monityre_serve::{decode_request_line, evaluate, Response, RetryPolicy, RetryingClient};
use monityre_units::Speed;

use crate::explore::{SWEEP_HI_KMH, SWEEP_LO_KMH, SWEEP_STEPS};
use crate::serve_query::{self, server_readings, start_server, Mix};
use crate::trace::{LayerBooks, TraceSet, Tracer};
use crate::util::{median, Rng};
use crate::{metric, workbook, Check, Config, Metric, Outcome};

const CORE_SPECS: usize = 24;
const OPTIMIZER_SPECS: usize = 2;
const OPTIMIZER_STEPS: usize = 48;
const MONTECARLO_DRAWS: usize = 16;
const SERVE_REQUESTS: usize = 256;
const SERVER_PROBE_REQUESTS: usize = 300;
const INGEST_VEHICLES: u64 = 16;
const INGEST_POINTS_PER_VEHICLE: usize = 192;
const STORE_BATCHES: usize = 24;
const SHEET_WIDTH: usize = 256;
const SHEET_DEPTH: usize = 4;
const SHEET_EDITS: usize = 64;
const RECALC_PAIRS: usize = 5;

/// Layers whose self-time share the traced run reports.
pub const SHARE_LAYERS: [&str; 10] = [
    "bench",
    "core.scenario",
    "core.cache",
    "core.executor",
    "core.balance",
    "core.optimizer",
    "core.montecarlo",
    "sheet",
    "serve.client",
    "untimed",
];

/// Span-derived metrics: (metric, span names in order of preference,
/// nanoseconds per unit, unit).
const SPAN_METRICS: [(&str, &[&str], f64, &str); 16] = [
    (
        "core.cache.node_energy_ns",
        &["core.cache.node_energy"],
        1.0,
        "ns",
    ),
    ("core.cache.build_us", &["core.cache.build"], 1e3, "us"),
    ("core.balance.point_ns", &["core.balance.point"], 1.0, "ns"),
    (
        "core.balance.explain_ns",
        &["core.balance.explain"],
        1.0,
        "ns",
    ),
    (
        "core.executor.sweep_us",
        &["core.executor.sweep", "core.executor.sweep_threads"],
        1e3,
        "us",
    ),
    (
        "core.optimizer.search_ms",
        &["core.optimizer.search"],
        1e6,
        "ms",
    ),
    (
        "core.montecarlo.draw_us",
        &["core.montecarlo.draws"],
        1e3,
        "us",
    ),
    (
        "sheet.recalc_full_us",
        &["sheet.recalc_full", "sheet.recalc_threads"],
        1e3,
        "us",
    ),
    ("sheet.edit_us", &["sheet.edit"], 1e3, "us"),
    (
        "serve.protocol.decode_ns",
        &["serve.protocol.decode"],
        1.0,
        "ns",
    ),
    (
        "serve.protocol.encode_ns",
        &["serve.protocol.encode"],
        1.0,
        "ns",
    ),
    ("serve.evaluate_us", &["serve.evaluate"], 1e3, "us"),
    (
        "ingest.codec.decode_ns",
        &["ingest.codec.decode"],
        1.0,
        "ns",
    ),
    (
        "ingest.window.observe_ns",
        &["ingest.window.observe"],
        1.0,
        "ns",
    ),
    ("ingest.pipeline_us", &["ingest.pipeline"], 1e3, "us"),
    (
        "ingest.store.append_us",
        &["ingest.store.append"],
        1e3,
        "us",
    ),
];

/// Direct readings (counts, ratios, server quantiles) and their units.
const READINGS: [(&str, &str); 13] = [
    ("sheet.cells_evaluated", "count"),
    ("sheet.cells_cut", "count"),
    ("sheet.levels", "count"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.execute_p50_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.memo_hit_ratio", "ratio"),
    ("serve.refused", "count"),
    ("serve.dedup_hits", "count"),
    ("client.attempts", "count"),
    ("client.retries", "count"),
    ("process.threads", "count"),
    ("process.maps", "count"),
];

/// Runs every layer probe after the traced window; records its own
/// checks and readings into `outcome` (without overwriting the
/// workload's) and returns the probe spans.
pub fn run(cfg: &Config, outcome: &mut Outcome) -> TraceSet {
    let mut tracer = Tracer::new(true);
    let mut rng = Rng::lane(cfg.seed, 7);
    probe_core(cfg, outcome, &mut tracer);
    if !outcome.layer.contains_key("sheet.levels") {
        probe_sheet(cfg, outcome, &mut tracer, &mut rng);
    }
    probe_serve(cfg, outcome, &mut tracer);
    probe_ingest(cfg, outcome, &mut tracer, &mut rng);
    tracer.finish();
    let mut set = TraceSet::default();
    set.push(tracer);
    set
}

fn probe_core(cfg: &Config, outcome: &Outcome, tracer: &mut Tracer) {
    let specs = if outcome.probe.specs.is_empty() {
        serve_query::pool(cfg.seed)
    } else {
        outcome.probe.specs.clone()
    };
    let threads = SweepExecutor::new(cfg.threads);
    let (lo, hi) = (Speed::from_kmh(SWEEP_LO_KMH), Speed::from_kmh(SWEEP_HI_KMH));
    let speeds = monityre_core::speed_grid(lo, hi, SWEEP_STEPS);
    for (i, spec) in specs.iter().take(CORE_SPECS).enumerate() {
        let scenario = spec.build().expect("probe scenarios are valid");
        let balance = tracer
            .time("core.cache.build", 1, || EnergyBalance::new(&scenario))
            .expect("probe scenario evaluates");
        let cache = scenario.cache().expect("probe scenario caches");
        tracer.time("core.cache.node_energy", speeds.len() as u64, || {
            for &speed in &speeds {
                std::hint::black_box(cache.node_energy(speed).expect("positive speed"));
            }
        });
        tracer.time("core.balance.point", speeds.len() as u64, || {
            for &speed in &speeds {
                std::hint::black_box(balance.point(speed).expect("positive speed"));
            }
        });
        for &speed in speeds.iter().step_by(49) {
            let ledger = tracer.time("core.balance.explain", 1, || balance.explain(speed));
            std::hint::black_box(ledger.expect("explain evaluates"));
        }
        let serial = tracer.time("core.executor.sweep_serial", 1, || {
            balance.sweep(lo, hi, SWEEP_STEPS)
        });
        let threaded = tracer.time("core.executor.sweep_threads", 1, || {
            balance.sweep_with(lo, hi, SWEEP_STEPS, &threads)
        });
        std::hint::black_box((serial, threaded));
        if i < OPTIMIZER_SPECS {
            let report = tracer.time("core.optimizer.search", 1, || {
                BreakEvenOptimizer::new(&scenario).search(
                    lo,
                    hi,
                    OPTIMIZER_STEPS,
                    &threads,
                    &|| false,
                )
            });
            std::hint::black_box(report.expect("search evaluates"));
        }
    }
    let distribution = tracer.time("core.montecarlo.draws", MONTECARLO_DRAWS as u64, || {
        MonteCarlo::new(
            &Scenario::reference(),
            VariationModel::reference(),
            cfg.seed,
        )
        .break_even_distribution_with(MONTECARLO_DRAWS, &threads)
    });
    std::hint::black_box(distribution.expect("reference draws cross"));
}

fn probe_sheet(cfg: &Config, outcome: &mut Outcome, tracer: &mut Tracer, rng: &mut Rng) {
    let executor = SweepExecutor::new(cfg.threads);
    let mut sheet = workbook::build(rng, SHEET_WIDTH, SHEET_DEPTH, executor);
    let mut serial = workbook::serial_copy(&sheet);
    for _ in 0..RECALC_PAIRS {
        tracer
            .time("sheet.recalc_serial", 1, || serial.recompute_all())
            .expect("serial recompute");
        tracer
            .time("sheet.recalc_threads", 1, || sheet.recompute_all())
            .expect("threaded recompute");
    }
    let levels = sheet.last_recompute().levels;
    let (mut evaluated, mut cut) = (0u64, 0u64);
    for _ in 0..SHEET_EDITS {
        let name = format!("in{}", rng.below(SHEET_WIDTH));
        let value = rng.unit();
        tracer
            .time("sheet.edit", 1, || sheet.set_number(&name, value))
            .expect("literal edit");
        let wave = sheet.last_recompute();
        evaluated += wave.evaluated;
        cut += wave.cut;
    }
    outcome
        .layer
        .insert("sheet.cells_evaluated", evaluated as f64);
    outcome.layer.insert("sheet.cells_cut", cut as f64);
    outcome.layer.insert("sheet.levels", levels as f64);
}

fn probe_serve(cfg: &Config, outcome: &mut Outcome, tracer: &mut Tracer) {
    let pool = serve_query::pool(cfg.seed);
    let requests = if outcome.probe.requests.is_empty() {
        let mut mix = Mix::new(cfg.seed, 99, &pool, false);
        (0..SERVE_REQUESTS).map(|_| mix.next()).collect()
    } else {
        outcome.probe.requests.clone()
    };
    let executor = SweepExecutor::serial();
    for request in requests.iter().take(SERVE_REQUESTS) {
        let line = serde_json::to_string(request).expect("request serializes");
        let decoded = tracer
            .time("serve.protocol.decode", 1, || {
                decode_request_line(line.as_bytes())
            })
            .expect("own lines decode");
        let payload = tracer
            .time("serve.evaluate", 1, || evaluate(&decoded, &executor))
            .expect("probe requests evaluate");
        let response = Response::success(decoded.id, payload);
        let encoded = tracer.time("serve.protocol.encode", 1, || {
            serde_json::to_string(&response)
        });
        std::hint::black_box(encoded.expect("response serializes"));
    }
    if outcome.layer.contains_key("serve.cache_hit_ratio") {
        return;
    }
    // No server in this workload: drive a short closed loop against one.
    let attempts_before = Registry::global().counter(names::CLIENT_ATTEMPTS).get();
    let (handle, _) = start_server();
    let mut client = RetryingClient::new(handle.addr(), RetryPolicy::default());
    let mut mix = Mix::new(cfg.seed, 98, &pool, false);
    let mut failed = 0;
    for _ in 0..SERVER_PROBE_REQUESTS {
        let request = mix.next();
        let response = tracer.time("serve.client.request", 1, || client.call(&request));
        failed += usize::from(response.is_err());
    }
    server_readings(&handle, outcome);
    handle.shutdown();
    outcome.checks.push(Check::new(
        "serve.probe_requests_succeed",
        failed == 0,
        format!("{SERVER_PROBE_REQUESTS} requests, {failed} failed"),
    ));
    let attempts = Registry::global().counter(names::CLIENT_ATTEMPTS).get() - attempts_before;
    outcome.layer.insert("client.attempts", attempts as f64);
    outcome
        .layer
        .insert("client.retries", client.retries_performed() as f64);
}

fn probe_ingest(cfg: &Config, outcome: &mut Outcome, tracer: &mut Tracer, rng: &mut Rng) {
    let points: Vec<TelemetryPoint> = if outcome.probe.points.is_empty() {
        (1..=INGEST_VEHICLES)
            .flat_map(|vehicle| {
                synthetic_points(
                    vehicle,
                    INGEST_POINTS_PER_VEHICLE,
                    rng.next_u64(),
                    1_000_000,
                )
            })
            .collect()
    } else {
        outcome.probe.points.clone()
    };
    let mut encoded = Vec::new();
    for point in &points {
        point.encode(&mut encoded);
    }
    tracer.time("ingest.codec.decode", points.len() as u64, || {
        let mut rest = encoded.as_slice();
        while !rest.is_empty() {
            let (point, used) = TelemetryPoint::decode(rest).expect("own records decode");
            std::hint::black_box(point);
            rest = &rest[used..];
        }
    });
    let mut window = WindowEngine::new(DEFAULT_WINDOW_US);
    tracer.time("ingest.window.observe", points.len() as u64, || {
        for point in &points {
            std::hint::black_box(window.observe(point));
        }
    });
    let mut ingestor = Ingestor::in_memory(DEFAULT_WINDOW_US);
    for batch in points.chunks(64) {
        tracer
            .time("ingest.pipeline", 1, || ingestor.ingest(batch, None))
            .expect("in-memory ingest");
    }
    // The durable store, fsync on, in a scratch directory of the run.
    let dir = cfg
        .out
        .join(format!("store-{}-{}", cfg.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = SegmentStore::open(StoreConfig::new(&dir)).expect("open scratch store");
    for batch in points.chunks(64).take(STORE_BATCHES) {
        tracer
            .time("ingest.store.append", 1, || store.append_batch(batch, None))
            .expect("append to scratch store");
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The per-layer metrics, in the order `BENCHMARK.json` lists them.
pub fn layer_metrics(
    traced: &Outcome,
    untraced: &Outcome,
    books: &LayerBooks,
    window: &TraceSet,
    probes: &TraceSet,
) -> Vec<Metric> {
    // A layer's own calls in the window win over the probes' calls.
    let from_spans = |names: &[&str]| -> Vec<f64> {
        for set in [window, probes] {
            for name in names {
                let values = set.per_item_ns(name);
                if !values.is_empty() {
                    return values;
                }
            }
        }
        Vec::new()
    };
    let mut metrics = Vec::new();
    for (name, spans, scale, unit) in SPAN_METRICS {
        metrics.push(metric(name, median(&from_spans(spans)) / scale, unit));
    }
    let ratio_of_medians = |a: &str, b: &str| median(&from_spans(&[a])) / median(&from_spans(&[b]));
    metrics.push(metric(
        "core.executor.speedup",
        ratio_of_medians("core.executor.sweep_serial", "core.executor.sweep_threads"),
        "ratio",
    ));
    metrics.push(metric(
        "sheet.parallel_speedup",
        ratio_of_medians("sheet.recalc_serial", "sheet.recalc_threads"),
        "ratio",
    ));
    let loopback = from_spans(&["serve.client.request", "serve.client.call"]);
    metrics.push(metric(
        "serve.outside_eval_share",
        1.0 - median(&from_spans(&["serve.evaluate"])) / median(&loopback),
        "share",
    ));
    for (name, unit) in READINGS {
        metrics.push(metric(
            name,
            traced.layer.get(name).copied().unwrap_or(f64::NAN),
            unit,
        ));
    }
    metrics.push(metric(
        "process.vm_mb",
        traced
            .layer
            .get("process.vm_mb")
            .copied()
            .unwrap_or(f64::NAN),
        "MB",
    ));
    metrics.push(metric("error_rate", traced.error_rate(), "ratio"));
    for layer in SHARE_LAYERS {
        let share = if layer == "untimed" {
            books.untimed_share()
        } else {
            books.share(layer)
        };
        metrics.push(metric(format!("trace.share.{layer}"), share, "share"));
    }
    metrics.push(metric(
        "trace.overhead_share",
        1.0 - traced.throughput() / untraced.throughput(),
        "share",
    ));
    metrics.push(metric("trace.spans", window.span_count() as f64, "count"));
    metrics
}
