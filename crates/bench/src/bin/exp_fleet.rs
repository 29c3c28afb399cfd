//! EXP-FLEET — end-to-end throughput of the deterministic K-vehicle
//! workload generator: a seeded fleet streams telemetry batches and
//! break-even requests at a loopback server through the retrying
//! client, serially and fanned out, and one served `optimize` op times
//! the break-even candidate search. Determinism is asserted on every
//! run — the serial and fanned reports must be byte-identical — so the
//! recorded throughput always describes a *verified* golden fleet.

use std::time::Instant;

use monityre_bench::{bench_path, cpus, expect, header, parse_args, record_row, FleetBenchResult};
use monityre_fleet::{run_fleet, FleetReport, FleetRun, FleetSpec, FLEET_EVAL_STEPS};
use monityre_serve::{Client, Op, Payload, Request, ServerConfig};

/// Worker threads for the fanned pass.
const FAN_THREADS: usize = 4;

/// Streams `run` at a fresh loopback server and times it.
fn timed_run(run: &FleetRun) -> (f64, FleetReport) {
    let handle = ServerConfig::default().start().expect("bind loopback");
    let start = Instant::now();
    let report = run_fleet(handle.addr(), run).expect("fleet run");
    let secs = start.elapsed().as_secs_f64();
    handle.shutdown();
    (secs, report)
}

fn main() {
    let options = parse_args();
    header(
        "EXP-FLEET",
        "deterministic fleet streaming and optimize-search throughput",
    );

    let spec = if options.check || options.smoke {
        FleetSpec::reference()
    } else {
        FleetSpec::reference().with_vehicles(24).with_rounds(96)
    };
    let total = spec.total_points() as usize;

    let (serial_secs, serial) = timed_run(&FleetRun::new(spec.clone()));
    let (fanned_secs, fanned) = timed_run(&FleetRun::new(spec.clone()).with_threads(FAN_THREADS));

    expect(
        options,
        "the server accepted every generated point",
        serial.accepted_total() == spec.total_points(),
    );
    expect(
        options,
        "every vehicle crossed break-even in the swept range",
        serial.vehicles.iter().all(|v| v.break_even_kmh.is_some()),
    );
    expect(
        options,
        "serial and fanned fleet reports are byte-identical",
        serial.canonical_json() == fanned.canonical_json(),
    );

    // The optimize search, timed as one served op: the worst-drawn
    // vehicle's scenario against the full candidate grid.
    let handle = ServerConfig::default().start().expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut request = Request::new(Op::Optimize).with_id(1);
    request.scenario = spec.vehicle(1).scenario_spec();
    request.params.steps = Some(FLEET_EVAL_STEPS);
    let start = Instant::now();
    let response = client.request(&request).expect("optimize");
    let optimize_secs = start.elapsed().as_secs_f64();
    handle.shutdown();
    let Some(Payload::Optimize(report)) = response.ok else {
        panic!("unexpected optimize response: {response:?}");
    };
    expect(
        options,
        "the optimizer never loses to its own baseline",
        match (report.baseline_kmh, report.best_kmh) {
            (Some(base), Some(best)) => best <= base,
            _ => false,
        },
    );
    expect(
        options,
        "both passes and the search made progress",
        serial_secs > 0.0 && fanned_secs > 0.0 && optimize_secs > 0.0,
    );

    if options.check {
        return;
    }

    let best_secs = serial_secs.min(fanned_secs);
    let row = FleetBenchResult {
        name: "exp-fleet-stream".to_owned(),
        vehicles: spec.vehicles as usize,
        rounds: spec.rounds as usize,
        points: total,
        threads: FAN_THREADS,
        cpus: cpus(),
        vehicles_per_sec: spec.vehicles as f64 / best_secs,
        points_per_sec: total as f64 / best_secs,
        optimize_candidates_per_sec: report.candidates as f64 / optimize_secs,
    };
    record_row(&bench_path("BENCH_fleet.json"), row);
}
