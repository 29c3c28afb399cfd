//! `fleet-ingest`: the server's write path. A `FleetSpec`-seeded fleet is
//! streamed the way `run_fleet` streams it — `nproc` vehicles at a time,
//! each on a new `RetryingClient` connection with idempotency-stamped
//! 64-point `ingest` batches, then one 48-step `breakeven`. Each fleet
//! (an epoch) gets a fresh in-memory server, so every epoch's accepted
//! points and final window state can be checked exactly.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use monityre_fleet::{FleetSpec, FLEET_EVAL_STEPS};
use monityre_ingest::{Ingestor, TelemetryPoint};
use monityre_obs::{names, splitmix64, Registry};
use monityre_serve::{
    ClientError, ErrorCode, Op, Payload, Request, Response, RetryPolicy, RetryingClient,
    ScenarioSpec, ServerHandle,
};

use crate::serve_query::{server_readings, start_server};
use crate::trace::Tracer;
use crate::util::{ns_since, record_proc, vm_hwm_mb, Rng};
use crate::{Check, Config, Outcome, ProbeInputs, Sample};

/// Vehicles per epoch: 2000 connections per server, enough for the
/// per-connection thread-stack cost to show in `peak_rss_mb`, which is
/// read once the first epoch is done.
pub const VEHICLES_PER_EPOCH: u64 = 2000;
/// Set-ups made before the first epoch, so `setup_s` is a median of
/// several even when few epochs fit in the run.
const EXTRA_SETUPS: usize = 16;
/// Vehicles whose points feed the ingest layer probes.
const PROBE_VEHICLES: usize = 16;

/// One vehicle's pre-generated inputs.
struct Vehicle {
    id: u64,
    points: Vec<TelemetryPoint>,
    scenario: ScenarioSpec,
}

struct Tally {
    /// Streaming-time clock: the epoch's start and the streaming time of
    /// the epochs before it, so samples of all epochs share one axis.
    clock: (Instant, u64),
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    refused: u64,
    retries: u64,
    accepted: u64,
}

impl Tally {
    fn new(clock: (Instant, u64)) -> Self {
        Self {
            clock,
            samples: Vec::new(),
            attempted: 0,
            failed: 0,
            refused: 0,
            retries: 0,
            accepted: 0,
        }
    }

    fn merge(&mut self, mut other: Tally) {
        self.samples.append(&mut other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.refused += other.refused;
        self.retries += other.retries;
        self.accepted += other.accepted;
    }

    /// One call; its latency sample carries the points it got accepted.
    fn call(
        &mut self,
        tracer: &mut Tracer,
        client: &mut RetryingClient,
        request: &Request,
    ) -> Option<Payload> {
        self.attempted += 1;
        let sent = Instant::now();
        let outcome = tracer.time("serve.client.call", 1, || client.call(request));
        let took = ns_since(sent);
        let end = self.clock.1 + ns_since(self.clock.0);
        let accepted = match &outcome {
            Ok(Response {
                ok: Some(Payload::Ingest { accepted, .. }),
                ..
            }) => *accepted,
            _ => 0,
        };
        self.accepted += accepted;
        self.samples
            .push(Sample::latency(end, took, accepted as f64));
        match outcome {
            Ok(response) => response.ok,
            Err(ClientError::Server(e)) if e.code == ErrorCode::DeadlineExceeded => {
                self.refused += 1;
                None
            }
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }
}

fn stream_vehicle(
    addr: std::net::SocketAddr,
    spec: &FleetSpec,
    vehicle: &Vehicle,
    tracer: &mut Tracer,
    tally: &mut Tally,
) {
    let root = tracer.open("bench.vehicle");
    let policy = RetryPolicy {
        jitter_seed: splitmix64(spec.seed ^ vehicle.id.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        ..RetryPolicy::default()
    };
    let mut client = RetryingClient::new(addr, policy);
    for (i, batch) in vehicle.points.chunks(spec.batch).enumerate() {
        let mut request = Request::new(Op::Ingest).with_id((vehicle.id << 32) + i as u64);
        request.params.points = Some(batch.to_vec());
        match tally.call(tracer, &mut client, &request) {
            Some(Payload::Ingest { .. }) | None => {}
            Some(_) => tally.failed += 1,
        }
    }
    let mut breakeven = Request::new(Op::Breakeven).with_id((vehicle.id << 32) + (1 << 31));
    breakeven.scenario = vehicle.scenario.clone();
    breakeven.params.steps = Some(FLEET_EVAL_STEPS);
    if let Some(payload) = tally.call(tracer, &mut client, &breakeven) {
        if !matches!(payload, Payload::Breakeven { .. }) {
            tally.failed += 1;
        }
    }
    tally.retries += client.retries_performed();
    tracer.close(root, 1);
}

/// The offline fold of every vehicle's batches, as the server folds them.
fn offline_state(spec: &FleetSpec, vehicles: &[Vehicle]) -> String {
    let mut ingestor = Ingestor::in_memory(monityre_ingest::DEFAULT_WINDOW_US);
    for vehicle in vehicles {
        for batch in vehicle.points.chunks(spec.batch) {
            ingestor.ingest(batch, None).expect("in-memory ingest");
        }
    }
    serde_json::to_string(&ingestor.state()).expect("state serializes")
}

fn served_state(handle: &ServerHandle) -> Option<String> {
    let mut client = RetryingClient::new(handle.addr(), RetryPolicy::default());
    let response = client.call(&Request::new(Op::IngestState)).ok()?;
    match response.ok {
        Some(Payload::IngestState { vehicles, .. }) => serde_json::to_string(&vehicles).ok(),
        _ => None,
    }
}

pub fn run(cfg: &Config, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::new("points");
    for _ in 0..EXTRA_SETUPS {
        let (handle, took) = start_server();
        out.setup_s.push(took);
        handle.shutdown();
    }
    let registry = Registry::global();
    let attempts_before = registry.counter(names::CLIENT_ATTEMPTS).get();
    let mut tally = Tally::new((Instant::now(), 0));
    let mut seeds = Rng::lane(cfg.seed, 5);
    let mut streamed_s = 0.0;
    let mut epochs = 0u64;
    let mut state_mismatches = 0u64;
    let mut accepted_mismatches = 0u64;
    let mut probe_points = Vec::new();
    let mut probe_requests = Vec::new();
    while streamed_s < seconds {
        let spec = FleetSpec::reference()
            .with_vehicles(VEHICLES_PER_EPOCH)
            .with_seed(seeds.next_u64());
        let vehicles: Vec<Vehicle> = spec
            .vehicle_ids()
            .into_iter()
            .map(|id| {
                let profile = spec.vehicle(id);
                Vehicle {
                    id,
                    points: profile.workload(&spec).expect("fleet workload generates"),
                    scenario: profile.scenario_spec(),
                }
            })
            .collect();
        if probe_points.is_empty() {
            for vehicle in &vehicles[..PROBE_VEHICLES] {
                probe_points.extend_from_slice(&vehicle.points);
                for (i, batch) in vehicle.points.chunks(spec.batch).enumerate() {
                    let mut request =
                        Request::new(Op::Ingest).with_id((vehicle.id << 32) + i as u64);
                    request.params.points = Some(batch.to_vec());
                    probe_requests.push(request);
                }
            }
        }

        let (handle, took) = start_server();
        out.setup_s.push(took);
        let addr = handle.addr();
        let next = AtomicUsize::new(0);
        let start = Instant::now();
        let clock = (start, (streamed_s * 1e9) as u64);
        let results: Vec<(Tally, Tracer)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..cfg.threads)
                .map(|_| {
                    let (spec, vehicles, next) = (&spec, &vehicles, &next);
                    scope.spawn(move || {
                        let mut tracer = Tracer::new(traced);
                        let mut tally = Tally::new(clock);
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(vehicle) = vehicles.get(i) else {
                                break;
                            };
                            stream_vehicle(addr, spec, vehicle, &mut tracer, &mut tally);
                        }
                        tracer.finish();
                        (tally, tracer)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("fleet worker"))
                .collect()
        });
        streamed_s += start.elapsed().as_secs_f64();
        let accepted_before = tally.accepted;
        for (epoch_tally, tracer) in results {
            tally.merge(epoch_tally);
            out.trace.push(tracer);
        }
        if tally.accepted - accepted_before != spec.total_points() {
            accepted_mismatches += 1;
        }
        if served_state(&handle) != Some(offline_state(&spec, &vehicles)) {
            state_mismatches += 1;
        }
        if epochs == 0 {
            out.peak_rss_mb = vm_hwm_mb();
        }
        record_proc(&mut out.layer);
        server_readings(&handle, &mut out);
        handle.shutdown();
        epochs += 1;
    }
    out.rss_work = format!("the first fleet of {VEHICLES_PER_EPOCH} vehicles");
    out.window_s = streamed_s;
    out.samples = tally.samples;
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    out.refused = tally.refused;
    out.retries = tally.retries;
    out.layer.insert(
        "client.attempts",
        (registry.counter(names::CLIENT_ATTEMPTS).get() - attempts_before) as f64,
    );
    out.layer.insert("client.retries", tally.retries as f64);
    out.checks.push(Check::new(
        "fleet-ingest.accepted_equals_total_points",
        accepted_mismatches == 0,
        format!("{epochs} fleets of {VEHICLES_PER_EPOCH} vehicles, {accepted_mismatches} short"),
    ));
    out.checks.push(Check::new(
        "fleet-ingest.ingest_state_equals_offline_fold",
        state_mismatches == 0,
        format!("{epochs} fleets, {state_mismatches} differ"),
    ));
    out.probe = ProbeInputs {
        points: probe_points,
        requests: probe_requests,
        ..ProbeInputs::default()
    };
    out
}
