//! EXP-SERVE — loopback throughput of the batch evaluation server:
//! concurrent clients drive `monityre-serve` over real TCP connections
//! in lockstep (one outstanding request per connection) and the harness
//! reports end-to-end requests per second plus the server's own service
//! time percentiles. The batch is a warm-cache break-even sweep, so the
//! row measures serving overhead on top of evaluation, not the one-off
//! `EvalCache` construction.

use std::thread;
use std::time::Instant;

use monityre_bench::{
    bench_path, best_overhead, cpus, expect, header, parse_args, record_row, ObsBenchResult,
    ServeBenchResult,
};
use monityre_serve::{Client, Op, Request, ServerConfig, TraceContext};

/// Concurrent client connections.
const CLIENTS: usize = 4;
/// Requests each client sends during the timed pass.
const BATCH: usize = 64;
/// Evaluations the server runs at once (`ServerConfig::workers`).
const WORKERS: usize = 2;

/// The benchmarked request: a small break-even sweep that hits the
/// shared scenario cache after the warm-up round.
fn breakeven(id: u64) -> Request {
    let mut request = Request::new(Op::Breakeven).with_id(id);
    request.params.steps = Some(32);
    request
}

/// Best-of-`reps` lockstep throughput of one connection against `addr`.
fn lockstep_rps(addr: std::net::SocketAddr, batch: usize, reps: usize) -> f64 {
    let mut client = Client::connect(addr).expect("connect");
    let mut best = 0.0f64;
    for rep in 0..reps {
        let start = Instant::now();
        for i in 0..batch {
            let id = 2_000_000 + (rep * batch + i) as u64;
            let response = client.request(&breakeven(id)).expect("request");
            assert!(response.is_ok(), "request {id} failed: {response:?}");
        }
        best = best.max(batch as f64 / start.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let options = parse_args();
    header(
        "EXP-SERVE",
        "loopback throughput of the batch evaluation server",
    );

    let handle = ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    }
    .start()
    .expect("bind loopback");
    let addr = handle.addr();
    let batch = if options.check { 8 } else { BATCH };

    // Warm the scenario/EvalCache LRU so the timed pass measures serving.
    {
        let mut client = Client::connect(addr).expect("connect");
        let response = client.request(&breakeven(0)).expect("warm-up");
        assert!(response.is_ok(), "warm-up failed: {response:?}");
    }

    let start = Instant::now();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for i in 0..batch {
                    let id = (c * batch + i) as u64;
                    let response = client.request(&breakeven(id)).expect("request");
                    assert!(response.is_ok(), "request {id} failed: {response:?}");
                    assert_eq!(response.id, Some(id));
                }
                batch
            })
        })
        .collect();
    let served: usize = clients
        .into_iter()
        .map(|client| client.join().expect("client thread"))
        .sum();
    let elapsed = start.elapsed().as_secs_f64();
    let stats = handle.stats();
    handle.shutdown();

    let total = CLIENTS * batch;
    assert_eq!(served, total, "every request must be answered");
    let result = ServeBenchResult {
        name: "exp-serve-loopback".to_owned(),
        clients: CLIENTS,
        batches: batch,
        workers: WORKERS,
        cpus: cpus(),
        requests_per_sec: total as f64 / elapsed,
        p50_ms: stats.p50_ms,
        p99_ms: stats.p99_ms,
    };

    expect(
        options,
        "server counted every request (warm-up included)",
        stats.served >= (total + 1) as u64,
    );
    expect(
        options,
        "lockstep clients never overflow the queue",
        stats.rejected == 0 && stats.timed_out == 0,
    );
    expect(
        options,
        "the warm cache absorbed the identical scenarios",
        stats.cache_misses == 1 && stats.cache_hits >= total as u64,
    );
    expect(
        options,
        "throughput is positive and percentiles are ordered",
        result.requests_per_sec > 0.0 && result.p50_ms <= result.p99_ms,
    );
    // Tracing overhead: the same lockstep batch through one connection,
    // every request stamped with a wire trace context (so the server
    // installs it, links every phase span, and stamps exemplars) vs the
    // trace-less protocol. Best-of-reps per side to shave loopback noise.
    let handle = ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    }
    .start()
    .expect("bind loopback");
    let addr = handle.addr();
    let trace_reps = if options.check { 1 } else { 3 };
    let pass = |traced: bool| -> f64 {
        let mut client = Client::connect(addr).expect("connect");
        let mut best = 0.0f64;
        for rep in 0..trace_reps {
            let start = Instant::now();
            for i in 0..batch {
                let id = 1_000_000 + (rep * batch + i) as u64;
                let mut request = breakeven(id);
                if traced {
                    request = request.with_trace(TraceContext::root(id));
                }
                let response = client.request(&request).expect("request");
                assert!(response.is_ok(), "request {id} failed: {response:?}");
            }
            best = best.max(batch as f64 / start.elapsed().as_secs_f64());
        }
        best
    };
    let _ = pass(false); // warm the cache on the fresh server
    let rounds = if options.check { 3 } else { 6 };
    let target_pct = if options.check { 15.0 } else { 2.0 };
    // Loopback latency on a loaded box drifts far more than the trace
    // stamp costs; keep the least-polluted round (noise only inflates).
    let (traced_rps, untraced_rps, trace_pct) =
        best_overhead(rounds, target_pct, || (pass(true), pass(false)));
    handle.shutdown();

    expect(
        options,
        "traced and untraced passes make progress",
        traced_rps > 0.0 && untraced_rps > 0.0,
    );

    // Continuous-self-observation overhead: the same single-connection
    // lockstep batch against a server whose observer thread is armed vs
    // one with both observers off. Each observer is measured alone so a
    // regression names its culprit. The scrape runs at 10 ms — 100× the
    // production cadence — and the profiler at its production ~100 Hz;
    // both still have to fit the 2 % budget.
    let axes: [(&str, u64, u64); 2] = [
        ("serve-self-scrape", 10_000, 0),
        (
            "serve-profiler",
            0,
            ServerConfig::default().profile_interval_us,
        ),
    ];
    let mut observation = Vec::new();
    for (name, scrape_us, profile_us) in axes {
        let observed = ServerConfig {
            workers: WORKERS,
            scrape_interval_us: scrape_us,
            profile_interval_us: profile_us,
            ..ServerConfig::default()
        }
        .start()
        .expect("bind loopback");
        let bare = ServerConfig {
            workers: WORKERS,
            scrape_interval_us: 0,
            profile_interval_us: 0,
            ..ServerConfig::default()
        }
        .start()
        .expect("bind loopback");
        // Warm both fresh servers' caches off the clock.
        let _ = lockstep_rps(observed.addr(), batch, 1);
        let _ = lockstep_rps(bare.addr(), batch, 1);
        let (on_rps, off_rps, pct) = best_overhead(rounds, target_pct, || {
            (
                lockstep_rps(observed.addr(), batch, trace_reps),
                lockstep_rps(bare.addr(), batch, trace_reps),
            )
        });
        if name == "serve-self-scrape" {
            // The armed server must actually have been self-scraping.
            expect(
                options,
                "the scrape loop filled the served counter's ring",
                observed.series("serve.served").is_some(),
            );
        }
        observed.shutdown();
        bare.shutdown();
        expect(
            options,
            "observed and bare passes make progress",
            on_rps > 0.0 && off_rps > 0.0,
        );
        observation.push((name, on_rps, off_rps, pct));
    }

    if options.check {
        // Check mode is a functional smoke that runs concurrently with the
        // whole test suite on shared CPUs: the guards only screen out
        // catastrophic (order-of-magnitude) regressions, the release run
        // enforces the real 2 % budget.
        expect(
            options,
            "wire-trace overhead is within the noise guard (< 50 %)",
            trace_pct < 50.0,
        );
        for (name, _, _, pct) in &observation {
            expect(
                options,
                &format!("{name} overhead is within the noise guard (< 50 %)"),
                *pct < 50.0,
            );
        }
        return; // never race concurrent test runs on the BENCH files
    }
    assert!(
        trace_pct < 2.0,
        "wire-trace overhead {trace_pct:.2} % exceeds the 2 % budget \
         (traced {traced_rps:.0} req/s vs untraced {untraced_rps:.0} req/s)"
    );
    for (name, on_rps, off_rps, pct) in &observation {
        assert!(
            *pct < 2.0,
            "{name} overhead {pct:.2} % exceeds the 2 % budget \
             (observed {on_rps:.0} req/s vs bare {off_rps:.0} req/s)"
        );
    }
    record_row(&bench_path("BENCH_serve.json"), result);
    let row = ObsBenchResult {
        name: "serve-loopback-traced".into(),
        points: batch,
        batches: trace_reps,
        cpus: cpus(),
        enabled_points_per_sec: traced_rps,
        disabled_points_per_sec: untraced_rps,
        overhead_pct: trace_pct,
    };
    record_row(&bench_path("BENCH_obs.json"), row);
    for (name, on_rps, off_rps, pct) in observation {
        let row = ObsBenchResult {
            name: (*name).to_owned(),
            points: batch,
            batches: trace_reps,
            cpus: cpus(),
            enabled_points_per_sec: on_rps,
            disabled_points_per_sec: off_rps,
            overhead_pct: pct,
        };
        record_row(&bench_path("BENCH_obs.json"), row);
    }
}
