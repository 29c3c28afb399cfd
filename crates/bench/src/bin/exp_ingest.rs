//! EXP-INGEST — throughput and recovery cost of the streaming-ingest
//! pipeline: a synthetic multi-vehicle telemetry stream is pushed
//! through the crash-safe segment store alone (aggregation off), then
//! through the full append + sliding-window pipeline (aggregation on),
//! and finally the segment directory is reopened to time the startup
//! replay that reconstructs the window state after a crash. The replayed
//! state must match the live run bit for bit — the harness asserts it on
//! every run, so the recorded replay throughput is always a *verified*
//! recovery.

use std::time::Instant;

use monityre_bench::{bench_path, cpus, expect, header, parse_args, record_row, IngestBenchResult};
use monityre_ingest::{
    synthetic_points, IngestConfig, Ingestor, SegmentStore, StoreConfig, TelemetryPoint,
};

/// Vehicles interleaved in the stream.
const VEHICLES: usize = 8;
/// Points per ingested batch (one append + one fsync each).
const BATCH: usize = 512;
/// Sliding-window span: long enough to keep a few hundred points per
/// vehicle live at the synthetic 4 Hz per-vehicle rate.
const WINDOW_US: u64 = 60_000_000;

/// A deterministic stream: `total` points across [`VEHICLES`] vehicles,
/// interleaved in timestamp order (the window engine's fast path).
fn stream(total: usize) -> Vec<TelemetryPoint> {
    let per_vehicle = total / VEHICLES;
    let mut lanes: Vec<Vec<TelemetryPoint>> = (0..VEHICLES)
        .map(|v| synthetic_points(v as u64, per_vehicle, 2011 + v as u64, 1_000_000))
        .collect();
    let mut merged = Vec::with_capacity(per_vehicle * VEHICLES);
    for i in 0..per_vehicle {
        for lane in &mut lanes {
            merged.push(lane[i]);
        }
    }
    merged
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("monityre-exp-ingest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn main() {
    let options = parse_args();
    header(
        "EXP-INGEST",
        "streaming-ingest throughput and crash-recovery replay cost",
    );

    let total = if options.check || options.smoke {
        20_000
    } else {
        200_000
    };
    let points = stream(total);
    let total = points.len(); // VEHICLES-divisible

    // Aggregation off: the durable append path alone.
    let store_dir = temp_dir("store");
    let store_secs = {
        let mut store = SegmentStore::open(StoreConfig::new(&store_dir)).expect("open store");
        let start = Instant::now();
        for chunk in points.chunks(BATCH) {
            store.append_batch(chunk, None).expect("append");
        }
        start.elapsed().as_secs_f64()
    };

    // Aggregation on: append + window fold + deficit-edge detection.
    let pipeline_dir = temp_dir("pipeline");
    let durable = IngestConfig {
        dir: Some(pipeline_dir.clone()),
        window_us: WINDOW_US,
        ..IngestConfig::default()
    };
    let (pipeline_secs, live_state, live_alerts) = {
        let mut ingestor = Ingestor::open(durable.clone()).expect("open pipeline");
        let start = Instant::now();
        for chunk in points.chunks(BATCH) {
            ingestor.ingest(chunk, None).expect("ingest");
        }
        let secs = start.elapsed().as_secs_f64();
        let state = serde_json::to_string(&ingestor.state()).expect("serialize state");
        (secs, state, ingestor.alerts_total())
    };

    // Crash recovery: reopen the pipeline directory and replay every
    // durable record into a fresh window engine.
    let (replay_secs, replayed) = {
        let start = Instant::now();
        let reopened = Ingestor::open(durable).expect("replay");
        (start.elapsed().as_secs_f64(), reopened)
    };

    expect(
        options,
        "the pipeline tracked every vehicle",
        replayed.vehicles() == VEHICLES,
    );
    expect(
        options,
        "replay folded every durable point",
        replayed.replay_report().points == total as u64
            && replayed.replay_report().truncated_bytes == 0,
    );
    expect(
        options,
        "replayed window state is bit-identical to the live run",
        serde_json::to_string(&replayed.state()).expect("serialize state") == live_state,
    );
    expect(
        options,
        "replay reconstructed the alert history",
        replayed.alerts_total() == live_alerts,
    );
    expect(
        options,
        "all three passes made progress",
        store_secs > 0.0 && pipeline_secs > 0.0 && replay_secs > 0.0,
    );

    std::fs::remove_dir_all(&store_dir).expect("cleanup store dir");
    std::fs::remove_dir_all(&pipeline_dir).expect("cleanup pipeline dir");

    if options.check {
        return;
    }

    let store = total as f64 / store_secs;
    let pipeline = total as f64 / pipeline_secs;
    let replay = total as f64 / replay_secs;
    let row = IngestBenchResult {
        name: "exp-ingest-stream".to_owned(),
        points: total,
        batch: BATCH,
        vehicles: VEHICLES,
        cpus: cpus(),
        store_points_per_sec: store,
        pipeline_points_per_sec: pipeline,
        aggregation_overhead_pct: (store - pipeline) / store * 100.0,
        replay_points_per_sec: replay,
        replay_ms_per_million: 1.0e9 / replay,
    };
    record_row(&bench_path("BENCH_ingest.json"), row);
}
