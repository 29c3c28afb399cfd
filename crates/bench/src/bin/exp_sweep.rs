//! EXP-SWEEP — the observability overhead guard. The balance sweep is the
//! hot path every tool shares; the profiling spans wrapping it
//! (`balance.sweep`, `sweep.batch`) must stay effectively free. This
//! harness times the same replicated sweep batch along four axes —
//! spans enabled vs disabled (`monityre_obs::set_enabled`), a trace
//! context installed vs not (`monityre_obs::install_context`), the
//! flight recorder on vs off (`monityre_obs::recorder::set_recording`),
//! and energy-ledger attribution on vs off (one
//! [`EnergyBalance::explain`] per batch, the shape the serve layer's
//! per-block gauges add) — verifies the spans actually reach the global
//! registry, and records each overhead in `BENCH_obs.json` (target:
//! < 2 % apiece).

use monityre_bench::{
    bench_path, best_overhead, cpus, expect, header, parse_args, points_per_sec, record_row,
    reference_scenario, ObsBenchResult,
};
use monityre_core::{EnergyBalance, SweepExecutor};
use monityre_units::Speed;

/// Points per sweep batch (the canonical Fig. 2 grid).
const POINTS: usize = 196;
/// Replicated batches per timed pass. A pass must run tens of
/// milliseconds so the on/off comparison measures the spans, not the
/// timer noise of a sub-millisecond pass.
const BATCHES: usize = 200;
/// Timing repetitions; the best pass is kept.
const REPS: usize = 5;

fn main() {
    let options = parse_args();
    header("EXP-SWEEP", "sweep throughput with spans on vs off");

    let scenario = reference_scenario();
    let balance = EnergyBalance::new(&scenario).expect("scenario evaluates");
    let executor = SweepExecutor::serial();
    let total = POINTS * BATCHES;
    let run_pass = || {
        for _ in 0..BATCHES {
            let report = balance.sweep_with(
                Speed::from_kmh(5.0),
                Speed::from_kmh(200.0),
                POINTS,
                &executor,
            );
            assert!(report.break_even().is_some(), "curves must cross");
        }
    };

    // Functional pins first: one enabled pass must land spans in the
    // global registry, one disabled pass must record nothing.
    monityre_obs::set_enabled(true);
    let before = span_count("balance.sweep");
    run_pass();
    let recorded = span_count("balance.sweep") - before;
    monityre_obs::set_enabled(false);
    let base = span_count("balance.sweep");
    run_pass();
    let while_off = span_count("balance.sweep") - base;
    monityre_obs::set_enabled(true);

    // A loaded single-CPU box drifts several percent between back-to-back
    // passes; re-measuring and keeping the *least* polluted round (noise
    // can only inflate an overhead) makes the 2 % budget assertable.
    let rounds = if options.check { 3 } else { 6 };
    let target_pct = if options.check { 15.0 } else { 2.0 };

    // Axis 1 — spans enabled (the shipped default) vs fully disabled.
    let (enabled, disabled, overhead_pct) = best_overhead(rounds, target_pct, || {
        monityre_obs::set_enabled(true);
        let on = points_per_sec(total, REPS, run_pass);
        monityre_obs::set_enabled(false);
        let off = points_per_sec(total, REPS, run_pass);
        monityre_obs::set_enabled(true);
        (on, off)
    });

    // Axis 2 — trace context installed (every span minting and linking
    // trace ids) vs the anonymous default, spans enabled throughout.
    let (with_context, without_context, context_pct) = best_overhead(rounds, target_pct, || {
        let on = {
            let _ctx = monityre_obs::install_context(monityre_obs::TraceContext::root(0xbe));
            points_per_sec(total, REPS, run_pass)
        };
        (on, points_per_sec(total, REPS, run_pass))
    });

    // Axis 3 — flight-recorder rings on (the shipped default: every span
    // additionally writes one ring slot) vs off.
    let (recorder_on, recorder_off, recorder_pct) = best_overhead(rounds, target_pct, || {
        monityre_obs::recorder::set_recording(true);
        let on = points_per_sec(total, REPS, run_pass);
        monityre_obs::recorder::set_recording(false);
        let off = points_per_sec(total, REPS, run_pass);
        monityre_obs::recorder::set_recording(true);
        (on, off)
    });

    // Axis 4 — ledger attribution on (each batch additionally explains
    // one operating point, the shape the serve layer's per-block gauges
    // add to a scrape interval) vs the plain sweep. The ledger is
    // pay-per-call, so this is the marginal cost of one conservation-
    // checked attribution per 196-point batch.
    let run_pass_with_ledger = || {
        for _ in 0..BATCHES {
            let report = balance.sweep_with(
                Speed::from_kmh(5.0),
                Speed::from_kmh(200.0),
                POINTS,
                &executor,
            );
            assert!(report.break_even().is_some(), "curves must cross");
            let ledger = balance
                .explain(Speed::from_kmh(60.0))
                .expect("reference scenario explains");
            assert!(ledger.conserved, "the ledger must conserve");
        }
    };
    let (ledger_on, ledger_off, ledger_pct) = best_overhead(rounds, target_pct, || {
        let on = points_per_sec(total, REPS, run_pass_with_ledger);
        (on, points_per_sec(total, REPS, run_pass))
    });

    expect(
        options,
        "enabled spans reach the global registry",
        recorded >= BATCHES as u64,
    );
    expect(options, "disabled spans record nothing", while_off == 0);
    expect(
        options,
        "the flight recorder captured the sweep spans",
        monityre_obs::recorder::snapshot()
            .iter()
            .any(|r| r.name == "balance.sweep"),
    );

    if options.check {
        // Debug test builds race the rest of the suite for shared CPUs, so
        // the guard only screens out catastrophic (order-of-magnitude)
        // regressions; the release recording run asserts the 2 % budget.
        for (axis, pct) in [
            ("span", overhead_pct),
            ("context", context_pct),
            ("recorder", recorder_pct),
            ("ledger", ledger_pct),
        ] {
            expect(
                options,
                &format!("{axis} overhead is within the noise guard (< 50 %)"),
                pct < 50.0,
            );
        }
        return;
    }

    let cpus = cpus();
    for (name, on, off, pct) in [
        ("balance-sweep-spans", enabled, disabled, overhead_pct),
        (
            "balance-sweep-context",
            with_context,
            without_context,
            context_pct,
        ),
        (
            "balance-sweep-recorder",
            recorder_on,
            recorder_off,
            recorder_pct,
        ),
        ("balance-sweep-ledger", ledger_on, ledger_off, ledger_pct),
    ] {
        assert!(
            pct < 2.0,
            "{name}: observability overhead {pct:.2} % exceeds the 2 % budget \
             (on {on:.0} pts/s vs off {off:.0} pts/s)"
        );
        let row = ObsBenchResult {
            name: name.into(),
            points: POINTS,
            batches: BATCHES,
            cpus,
            enabled_points_per_sec: on,
            disabled_points_per_sec: off,
            overhead_pct: pct,
        };
        record_row(&bench_path("BENCH_obs.json"), row);
    }
}

/// How many `name` spans the process-global registry has recorded so far.
fn span_count(name: &str) -> u64 {
    monityre_obs::Registry::global()
        .snapshot()
        .histograms
        .iter()
        .find(|h| h.name == name)
        .map_or(0, |h| h.count)
}
