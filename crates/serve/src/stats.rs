//! Server statistics, rebuilt on the `monityre-obs` metrics registry.
//!
//! Each server owns a **private** [`Registry`] so its counters are exact
//! and unpolluted by other servers in the same process (the loopback
//! tests pin exact counts). The legacy `stats` op is a thin snapshot view
//! over that registry — its original nine wire fields keep their exact
//! values (counters straight from the registry, percentiles from an
//! exact-rank [`Reservoir`], never bucketed) — extended with per-op
//! latency series. The `metrics` op renders the same registry (merged
//! with the process-global span registry) as Prometheus text.

use std::sync::Arc;
use std::time::Duration;

use monityre_obs::{Counter, Registry, Reservoir};
use serde::{Deserialize, Serialize};

/// The trace id of the installed request context, `0` (no exemplar) when
/// the job carried no trace.
fn current_trace_id() -> u64 {
    monityre_obs::current_context().map_or(0, |ctx| ctx.trace_id)
}

/// Shared, thread-safe statistics registry.
#[derive(Debug)]
pub(crate) struct Stats {
    /// This server's private metric registry (counters below live in it,
    /// as do the per-op / queue-wait / execute histograms).
    registry: Registry,
    served: Arc<Counter>,
    rejected: Arc<Counter>,
    timed_out: Arc<Counter>,
    bad_requests: Arc<Counter>,
    eval_failed: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    dedup_hits: Arc<Counter>,
    sheet_cells_cut: Arc<Counter>,
    ingest_points: Arc<Counter>,
    ingest_alerts: Arc<Counter>,
    spawn_failed: Arc<Counter>,
    /// Exact-rank window over recent service times: the pinned
    /// `p50_ms`/`p99_ms` wire fields must not move to bucket estimates.
    service: Reservoir,
}

impl Stats {
    pub(crate) fn new() -> Self {
        let registry = Registry::new();
        let counter = |name: &str| registry.counter(name);
        Self {
            served: counter("serve.served"),
            rejected: counter("serve.rejected"),
            timed_out: counter("serve.timed_out"),
            bad_requests: counter("serve.bad_requests"),
            eval_failed: counter("serve.eval_failed"),
            cache_hits: counter("serve.cache_hits"),
            cache_misses: counter("serve.cache_misses"),
            dedup_hits: counter(monityre_obs::names::SERVE_DEDUP_HITS),
            sheet_cells_cut: counter(monityre_obs::names::SHEET_CELLS_CUT),
            ingest_points: counter(monityre_obs::names::SERVE_INGEST_POINTS),
            ingest_alerts: counter(monityre_obs::names::SERVE_INGEST_ALERTS),
            spawn_failed: counter(monityre_obs::names::SERVE_CONNECTIONS_SPAWN_FAILED),
            service: Reservoir::new(),
            registry,
        }
    }

    /// The server's private registry, for the `metrics` op exposition and
    /// for gauges set at scrape time.
    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A job for `op` completed successfully after `elapsed` in the server
    /// (parse to response — the service time the percentiles summarize).
    /// Stamps the current trace id (if a request context is installed) as
    /// the per-op histogram bucket's exemplar, so a slow op names a trace.
    pub(crate) fn record_served(&self, op: &str, elapsed: Duration) {
        self.served.inc();
        self.service.record(elapsed);
        self.registry
            .histogram(&format!("serve.op.{op}"))
            .record_traced(elapsed, current_trace_id());
    }

    /// How long a job waited for an admission permit after its request
    /// was read. Stamps the current trace id (if a request context is
    /// installed) as the bucket's exemplar, so a tail `queue_wait` bucket
    /// in the Prometheus exposition names an offending trace.
    pub(crate) fn record_queue_wait(&self, elapsed: Duration) {
        self.registry
            .histogram(monityre_obs::names::SERVE_QUEUE_WAIT)
            .record_traced(elapsed, current_trace_id());
    }

    /// How long a job's evaluation phase ran (excluding queue wait).
    /// Exemplar-stamped like [`Self::record_queue_wait`].
    pub(crate) fn record_execute(&self, elapsed: Duration) {
        self.registry
            .histogram(monityre_obs::names::SERVE_EXECUTE)
            .record_traced(elapsed, current_trace_id());
    }

    /// A job was shed with `queue_full`.
    pub(crate) fn record_rejected(&self) {
        self.rejected.inc();
    }

    /// A job missed its deadline (waiting for admission or mid-evaluation).
    pub(crate) fn record_timed_out(&self) {
        self.timed_out.inc();
    }

    /// An accepted connection was dropped: its handler thread could not
    /// be spawned.
    pub(crate) fn record_spawn_failed(&self) {
        self.spawn_failed.inc();
    }

    /// A request line failed to parse or validate.
    pub(crate) fn record_bad_request(&self) {
        self.bad_requests.inc();
    }

    /// An evaluation failed after being accepted.
    pub(crate) fn record_eval_failed(&self) {
        self.eval_failed.inc();
    }

    /// The scenario LRU answered from warm state.
    pub(crate) fn record_cache_hit(&self) {
        self.cache_hits.inc();
    }

    /// The scenario LRU had to build a fresh entry.
    pub(crate) fn record_cache_miss(&self) {
        self.cache_misses.inc();
    }

    /// An idempotent retry was answered from the dedup map without
    /// re-executing.
    pub(crate) fn record_dedup_hit(&self) {
        self.dedup_hits.inc();
    }

    /// A `sheet_edit` recompute wave finished: `elapsed` goes into the
    /// `sheet.recompute` histogram (exemplar-stamped like the phase
    /// histograms) and `cut` cells accumulate into `sheet.cells_cut`.
    pub(crate) fn record_sheet_recompute(&self, elapsed: Duration, cut: u64) {
        self.registry
            .histogram(monityre_obs::names::SHEET_RECOMPUTE)
            .record_traced(elapsed, current_trace_id());
        self.sheet_cells_cut.add(cut);
    }

    /// A served `ingest` batch finished: `points` accepted and `alerts`
    /// deficit edges crossed, in `elapsed` (append + fold). The
    /// `serve.ingest` histogram stamps the batch's trace id as its
    /// exemplar, so a slow or alert-heavy bucket names a trace.
    pub(crate) fn record_ingest(&self, points: u64, alerts: u64, elapsed: Duration) {
        self.ingest_points.add(points);
        self.ingest_alerts.add(alerts);
        self.registry
            .histogram(monityre_obs::names::SERVE_INGEST)
            .record_traced(elapsed, current_trace_id());
    }

    /// A self-consistent (per counter; relaxed across counters) snapshot.
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        let percentiles = self.service.percentiles_ms(&[0.50, 0.99]);
        let ops = self
            .registry
            .snapshot()
            .histograms
            .into_iter()
            .filter_map(|h| {
                h.name.strip_prefix("serve.op.").map(|op| OpLatency {
                    op: op.to_owned(),
                    count: h.count,
                    p50_ms: h.p50_us / 1000.0,
                    p90_ms: h.p90_us / 1000.0,
                    p99_ms: h.p99_us / 1000.0,
                    exemplar: h.exemplars.as_deref().and_then(|exemplars| {
                        exemplars
                            .iter()
                            .max_by_key(|e| e.value_us)
                            .map(|e| e.trace_id.clone())
                    }),
                })
            })
            .collect();
        StatsSnapshot {
            served: self.served.get(),
            rejected: self.rejected.get(),
            timed_out: self.timed_out.get(),
            bad_requests: self.bad_requests.get(),
            eval_failed: self.eval_failed.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            p50_ms: percentiles[0],
            p99_ms: percentiles[1],
            eval_memo: CacheCounts::default(),
            ops,
            dedup_hits: self.dedup_hits.get(),
            ingest_points: self.ingest_points.get(),
            ingest_alerts: self.ingest_alerts.get(),
        }
    }
}

/// Hit/miss/eviction tallies of the retired per-speed evaluation memo.
/// Kept on the wire so existing readers of `eval_memo` still parse a
/// snapshot; every field now reads zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheCounts {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that had to evaluate.
    pub misses: u64,
    /// Entries displaced to stay within capacity.
    pub evictions: u64,
}

/// Bucket-estimated latency summary of one evaluation op, from the
/// server's `serve.op.<name>` histograms.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct OpLatency {
    /// The wire op name (`balance`, `sweep`, ...).
    pub op: String,
    /// Completed jobs of this op.
    pub count: u64,
    /// Estimated median service time, milliseconds.
    pub p50_ms: f64,
    /// Estimated 90th-percentile service time, milliseconds.
    pub p90_ms: f64,
    /// Estimated 99th-percentile service time, milliseconds.
    pub p99_ms: f64,
    /// Trace id of the slowest traced request this histogram has seen
    /// (its largest-valued exemplar); absent when no request carried a
    /// trace context, and omitted from the wire so old peers still parse.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub exemplar: Option<String>,
}

/// What the `stats` op returns: cumulative counters since start plus
/// percentiles over the most recent service times. The first nine fields
/// predate the metrics registry and keep their exact wire values; the
/// tail (`eval_memo`, `ops`) is additive, with defaults so old snapshots
/// still parse.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Jobs evaluated and answered successfully.
    pub served: u64,
    /// Jobs shed with `queue_full`.
    pub rejected: u64,
    /// Jobs that missed their deadline.
    pub timed_out: u64,
    /// Lines that failed to parse or validate.
    pub bad_requests: u64,
    /// Accepted jobs whose evaluation failed.
    pub eval_failed: u64,
    /// Scenario-cache hits.
    pub cache_hits: u64,
    /// Scenario-cache misses.
    pub cache_misses: u64,
    /// Median service time (parse-to-response) in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile service time in milliseconds.
    pub p99_ms: f64,
    /// Always zero: the server no longer memoizes per-speed figures.
    /// Kept so readers of the field still parse.
    #[serde(default)]
    pub eval_memo: CacheCounts,
    /// Per-op latency series, sorted by op name.
    #[serde(default)]
    pub ops: Vec<OpLatency>,
    /// Idempotent retries answered from the dedup map without
    /// re-executing.
    #[serde(default)]
    pub dedup_hits: u64,
    /// Telemetry points accepted by served `ingest` batches.
    #[serde(default)]
    pub ingest_points: u64,
    /// Deficit-alert edges the served ingest pipeline emitted.
    #[serde(default)]
    pub ingest_alerts: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_tally() {
        let stats = Stats::new();
        stats.record_served("breakeven", Duration::from_millis(2));
        stats.record_served("sweep", Duration::from_millis(4));
        stats.record_rejected();
        stats.record_timed_out();
        stats.record_bad_request();
        stats.record_eval_failed();
        stats.record_cache_hit();
        stats.record_cache_miss();
        let snap = stats.snapshot();
        assert_eq!(snap.served, 2);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.timed_out, 1);
        assert_eq!(snap.bad_requests, 1);
        assert_eq!(snap.eval_failed, 1);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.cache_misses, 1);
    }

    #[test]
    fn per_op_latencies_split_by_op() {
        let stats = Stats::new();
        stats.record_served("breakeven", Duration::from_millis(2));
        stats.record_served("sweep", Duration::from_millis(4));
        stats.record_served("sweep", Duration::from_millis(6));
        let snap = stats.snapshot();
        let names: Vec<&str> = snap.ops.iter().map(|o| o.op.as_str()).collect();
        assert_eq!(names, vec!["breakeven", "sweep"]);
        assert_eq!(snap.ops[0].count, 1);
        assert_eq!(snap.ops[1].count, 2);
        assert!(snap.ops[1].p50_ms > 0.0);
        assert!(snap.ops[1].p50_ms <= snap.ops[1].p99_ms);
    }

    #[test]
    fn percentiles_track_the_window() {
        let stats = Stats::new();
        for ms in 1..=100u64 {
            stats.record_served("sweep", Duration::from_millis(ms));
        }
        let snap = stats.snapshot();
        assert!((snap.p50_ms - 50.0).abs() <= 1.5, "p50 {}", snap.p50_ms);
        assert!((snap.p99_ms - 99.0).abs() <= 1.5, "p99 {}", snap.p99_ms);
        assert!(snap.p50_ms <= snap.p99_ms);
    }

    #[test]
    fn empty_window_reports_zero() {
        let snap = Stats::new().snapshot();
        assert_eq!(snap.p50_ms, 0.0);
        assert_eq!(snap.p99_ms, 0.0);
        assert!(snap.ops.is_empty());
        assert_eq!(snap.eval_memo, CacheCounts::default());
    }

    #[test]
    fn phase_histograms_register() {
        let stats = Stats::new();
        stats.record_queue_wait(Duration::from_micros(150));
        stats.record_execute(Duration::from_millis(3));
        let snap = stats.registry().snapshot();
        let names: Vec<&str> = snap.histograms.iter().map(|h| h.name.as_str()).collect();
        assert!(names.contains(&"serve.queue_wait"), "{names:?}");
        assert!(names.contains(&"serve.execute"), "{names:?}");
    }

    #[test]
    fn exposition_covers_counters_and_phases() {
        let stats = Stats::new();
        stats.record_served("breakeven", Duration::from_millis(2));
        stats.record_queue_wait(Duration::from_micros(10));
        let text = stats.registry().snapshot().to_prometheus();
        assert!(text.contains("monityre_serve_served 1"), "{text}");
        assert!(
            text.contains("monityre_serve_queue_wait_seconds_count 1"),
            "{text}"
        );
        assert!(
            text.contains("monityre_serve_op_breakeven_seconds_count 1"),
            "{text}"
        );
    }

    #[test]
    fn phase_records_stamp_exemplars_under_a_trace_context() {
        let stats = Stats::new();
        let ctx = monityre_obs::TraceContext::root(7);
        {
            let _g = monityre_obs::install_context(ctx);
            stats.record_execute(Duration::from_micros(15));
        }
        stats.record_queue_wait(Duration::from_micros(15)); // no context
        let snap = stats.registry().snapshot();
        let execute = snap
            .histograms
            .iter()
            .find(|h| h.name == monityre_obs::names::SERVE_EXECUTE)
            .unwrap();
        let exemplar = &execute.exemplars.as_deref().expect("traced")[0];
        assert_eq!(exemplar.trace_id, format!("{:016x}", ctx.trace_id));
        let wait = snap
            .histograms
            .iter()
            .find(|h| h.name == monityre_obs::names::SERVE_QUEUE_WAIT)
            .unwrap();
        assert!(wait.exemplars.is_none(), "untraced record has no exemplar");
    }

    #[test]
    fn op_latencies_surface_the_slowest_exemplar() {
        let stats = Stats::new();
        let slow = monityre_obs::TraceContext::root(0xfeed);
        let fast = monityre_obs::TraceContext::root(0xbeef);
        {
            let _g = monityre_obs::install_context(fast);
            stats.record_served("sweep", Duration::from_millis(1));
        }
        {
            let _g = monityre_obs::install_context(slow);
            stats.record_served("sweep", Duration::from_millis(40));
        }
        stats.record_served("breakeven", Duration::from_millis(2)); // untraced
        let snap = stats.snapshot();
        let sweep = snap.ops.iter().find(|o| o.op == "sweep").unwrap();
        assert_eq!(
            sweep.exemplar.as_deref(),
            Some(format!("{:016x}", slow.trace_id).as_str())
        );
        let breakeven = snap.ops.iter().find(|o| o.op == "breakeven").unwrap();
        assert_eq!(breakeven.exemplar, None);
        // The field stays off the wire when absent.
        let json = serde_json::to_string(&snap).unwrap();
        assert_eq!(json.matches("exemplar").count(), 1, "{json}");
    }

    #[test]
    fn ingest_records_tally_and_expose() {
        let stats = Stats::new();
        stats.record_ingest(128, 3, Duration::from_micros(420));
        stats.record_ingest(64, 0, Duration::from_micros(210));
        let snap = stats.snapshot();
        assert_eq!(snap.ingest_points, 192);
        assert_eq!(snap.ingest_alerts, 3);
        let text = stats.registry().snapshot().to_prometheus();
        assert!(text.contains("monityre_serve_ingest_points 192"), "{text}");
        assert!(text.contains("monityre_serve_ingest_alerts 3"), "{text}");
        assert!(
            text.contains("monityre_serve_ingest_seconds_count 2"),
            "{text}"
        );
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let stats = Stats::new();
        stats.record_served("montecarlo", Duration::from_micros(1234));
        let mut snap = stats.snapshot();
        snap.eval_memo = CacheCounts {
            hits: 3,
            misses: 2,
            evictions: 1,
        };
        let json = serde_json::to_string(&snap).unwrap();
        let back: StatsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn legacy_snapshots_without_new_fields_still_parse() {
        // A pre-registry peer (or an old recorded snapshot) omits
        // `eval_memo` and `ops` entirely.
        let legacy = r#"{"served":3,"rejected":0,"timed_out":1,"bad_requests":0,
            "eval_failed":0,"cache_hits":2,"cache_misses":1,"p50_ms":1.5,"p99_ms":9.0}"#;
        let snap: StatsSnapshot = serde_json::from_str(legacy).unwrap();
        assert_eq!(snap.served, 3);
        assert_eq!(snap.eval_memo, CacheCounts::default());
        assert!(snap.ops.is_empty());
    }
}
