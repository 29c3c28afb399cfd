//! `explore`: offline design-space exploration through the library, the
//! way `monityre balance` / `optimize` users run it.

use std::time::Instant;

use monityre_core::{
    BreakEvenOptimizer, EnergyBalance, MonteCarlo, Scenario, SweepExecutor, VariationModel,
};
use monityre_serve::ScenarioSpec;
use monityre_units::Speed;

use crate::trace::Tracer;
use crate::util::{ns_since, record_proc, vm_hwm_mb, Rng};
use crate::{Check, Config, Outcome, ProbeInputs, Sample};

/// The pinned reference break-even of the Fig. 2 sweep, km/h.
pub const REFERENCE_BREAK_EVEN_KMH: f64 = 34.526_307_817_678_656;
/// Fig. 2 sweep: 5–200 km/h in 196 points.
pub const SWEEP_LO_KMH: f64 = 5.0;
pub const SWEEP_HI_KMH: f64 = 200.0;
pub const SWEEP_STEPS: usize = 196;
/// Every `HEAVY_EVERY`-th scenario also runs the optimizer search and a
/// Monte Carlo break-even distribution. Nothing in the repository fixes
/// how often users search relative to plain balance runs, so this is an
/// assumption, chosen so the per-scenario path (balance, sweep,
/// break-even, explain) keeps the larger share of the run's time; the
/// traced run reports both shares (`trace.share.core.*`).
const HEAVY_EVERY: u64 = 128;
const OPTIMIZER_STEPS: usize = 48;
const MONTECARLO_DRAWS: usize = 16;
/// Monte Carlo runs on a heavy scenario only when its break-even leaves
/// the draws room to cross below the 220 km/h Monte Carlo ceiling; the
/// reference scenario stands in otherwise, so no draw set can fail.
const MONTECARLO_MAX_BREAK_EVEN_KMH: f64 = 150.0;
/// Scenarios kept for the per-layer probes and the serial-vs-threads check.
const SAMPLE_EVERY: u64 = 32;
/// Kept scenarios whose sweeps are compared serial vs threaded after the
/// window, on every run.
const SWEEP_CHECKS: usize = 32;
/// `peak_rss_mb` is read after this many scenarios; the window runs on
/// until they are done even when `--seconds` has passed.
const RSS_AT_SCENARIOS: u64 = 8192;
/// Set-ups before and after the measured window; `setup_s` is their
/// median, so it samples the machine at two moments of the run.
const SETUPS_EACH_SIDE: usize = 5;

/// One seeded scenario covering every axis the wire exposes.
pub fn scenario_spec(rng: &mut Rng) -> ScenarioSpec {
    let radio_loss_prob = rng.chance(0.5).then(|| rng.range(0.0, 0.3));
    ScenarioSpec {
        temp_c: Some(rng.range(-20.0, 85.0)),
        supply_v: Some(rng.range(1.0, 1.4)),
        corner: Some((*rng.pick(&["ss", "tt", "ff"])).to_owned()),
        samples_per_round: Some(1 + rng.below(12) as u32),
        tx_period_rounds: Some(1 + rng.below(16) as u32),
        payload_bytes: Some(4 + rng.below(60) as u32),
        chain_scale: Some(rng.range(0.8, 3.0)),
        radio_loss_prob,
        radio_retries: radio_loss_prob.map(|_| rng.below(6) as u32),
        age_years: rng.chance(0.5).then(|| rng.range(0.0, 10.0)),
    }
}

/// The bits of every point of a sweep, for bitwise comparison.
fn sweep_bits(report: &monityre_core::BalanceReport) -> Vec<(u64, u64)> {
    report
        .points()
        .iter()
        .map(|p| {
            (
                p.generated.joules().to_bits(),
                p.required.joules().to_bits(),
            )
        })
        .collect()
}

fn sweep(balance: &EnergyBalance, executor: &SweepExecutor) -> monityre_core::BalanceReport {
    balance.sweep_with(
        Speed::from_kmh(SWEEP_LO_KMH),
        Speed::from_kmh(SWEEP_HI_KMH),
        SWEEP_STEPS,
        executor,
    )
}

/// Set-up: the reference scenario's balance, its Fig. 2 sweep serial and
/// on the threaded executor, and its optimizer search — warms every path
/// the workload takes and checks the pinned break-even.
fn setup(executor: &SweepExecutor) -> (f64, bool) {
    let start = Instant::now();
    let scenario = Scenario::reference();
    let balance = EnergyBalance::new(&scenario).expect("reference scenario builds");
    let serial = sweep(&balance, &SweepExecutor::serial()).break_even();
    let threaded = sweep(&balance, executor).break_even();
    let searched = BreakEvenOptimizer::new(&scenario).search(
        Speed::from_kmh(SWEEP_LO_KMH),
        Speed::from_kmh(SWEEP_HI_KMH),
        OPTIMIZER_STEPS,
        executor,
        &|| false,
    );
    let elapsed = ns_since(start) as f64 / 1e9;
    std::hint::black_box(searched.expect("reference search evaluates"));
    let pinned = |be: Option<Speed>| {
        be.is_some_and(|s| s.kmh().to_bits() == REFERENCE_BREAK_EVEN_KMH.to_bits())
    };
    (elapsed, pinned(serial) && pinned(threaded))
}

pub fn run(cfg: &Config, seconds: f64, traced: bool) -> Outcome {
    let executor = SweepExecutor::new(cfg.threads);
    let mut out = Outcome::new("scenarios");
    let mut pinned = true;
    for _ in 0..SETUPS_EACH_SIDE {
        let (elapsed, ok) = setup(&executor);
        out.setup_s.push(elapsed);
        pinned &= ok;
    }

    let mut rng = Rng::lane(cfg.seed, 1);
    let mut tracer = Tracer::new(traced);
    let mut samples: Vec<ScenarioSpec> = Vec::new();
    let mut index = 0u64;
    let start = Instant::now();
    while index < RSS_AT_SCENARIOS || start.elapsed().as_secs_f64() < seconds {
        let spec = scenario_spec(&mut rng);
        let speed = Speed::from_kmh(rng.range(SWEEP_LO_KMH, SWEEP_HI_KMH));
        let heavy = index % HEAVY_EVERY == HEAVY_EVERY - 1;
        let op_start = Instant::now();
        let root = tracer.open("bench.scenario");
        let ok = explore_one(&mut tracer, &spec, speed, heavy, index, &executor);
        tracer.close(root, 1);
        out.samples
            .push(Sample::latency(ns_since(start), ns_since(op_start), 1.0));
        out.attempted += 1;
        if !ok {
            out.failed += 1;
        }
        if index.is_multiple_of(SAMPLE_EVERY) {
            samples.push(spec);
        }
        index += 1;
        if index == RSS_AT_SCENARIOS {
            out.peak_rss_mb = vm_hwm_mb();
        }
    }
    out.window_s = start.elapsed().as_secs_f64();
    out.rss_work = format!("{RSS_AT_SCENARIOS} scenarios");
    record_proc(&mut out.layer);
    tracer.finish();
    for _ in 0..SETUPS_EACH_SIDE {
        let (elapsed, ok) = setup(&executor);
        out.setup_s.push(elapsed);
        pinned &= ok;
    }
    out.checks.push(Check::new(
        "explore.reference_break_even_bit_equal",
        pinned,
        format!(
            "{REFERENCE_BREAK_EVEN_KMH} km/h, serial and {} threads, {} set-ups",
            cfg.threads,
            out.setup_s.len()
        ),
    ));
    let (compared, differ) = compare_sweeps(&samples[..samples.len().min(SWEEP_CHECKS)], &executor);
    out.checks.push(Check::new(
        "explore.sweep_serial_bit_identical_to_threads",
        compared > 0 && differ == 0,
        format!(
            "{compared} sampled scenarios' Fig. 2 sweeps, serial vs {} threads, {differ} differ",
            cfg.threads
        ),
    ));
    out.trace.push(tracer);
    out.probe = ProbeInputs {
        specs: samples,
        ..ProbeInputs::default()
    };
    out
}

/// Sweeps each scenario serially and on `executor`; returns how many
/// were compared and how many differ in any bit.
fn compare_sweeps(specs: &[ScenarioSpec], executor: &SweepExecutor) -> (usize, usize) {
    let mut differ = 0;
    for spec in specs {
        let balance = spec
            .build()
            .ok()
            .and_then(|scenario| EnergyBalance::new(&scenario).ok());
        let same = balance.is_some_and(|balance| {
            sweep_bits(&sweep(&balance, &SweepExecutor::serial()))
                == sweep_bits(&sweep(&balance, executor))
        });
        if !same {
            differ += 1;
        }
    }
    (specs.len(), differ)
}

/// One scenario: balance, Fig. 2 sweep, break-even, explain; heavy ones
/// add the optimizer search and a Monte Carlo distribution. `false` when
/// any call failed.
fn explore_one(
    tracer: &mut Tracer,
    spec: &ScenarioSpec,
    speed: Speed,
    heavy: bool,
    index: u64,
    executor: &SweepExecutor,
) -> bool {
    let Ok(scenario) = tracer.time("core.scenario.build", 1, || spec.build()) else {
        return false;
    };
    let Ok(balance) = tracer.time("core.cache.build", 1, || EnergyBalance::new(&scenario)) else {
        return false;
    };
    let report = tracer.time("core.executor.sweep", 1, || sweep(&balance, executor));
    let break_even = tracer.time("core.balance.break_even", 1, || report.break_even());
    let ledger = tracer.time("core.balance.explain", 1, || balance.explain(speed));
    if ledger.is_err() {
        return false;
    }
    std::hint::black_box((&report, break_even, &ledger));
    if !heavy {
        return true;
    }
    let optimized = tracer.time("core.optimizer.search", 1, || {
        BreakEvenOptimizer::new(&scenario).search(
            Speed::from_kmh(SWEEP_LO_KMH),
            Speed::from_kmh(SWEEP_HI_KMH),
            OPTIMIZER_STEPS,
            executor,
            &|| false,
        )
    });
    if !matches!(optimized, Ok(Some(_))) {
        return false;
    }
    let mc_scenario = match break_even {
        Some(be) if be.kmh() < MONTECARLO_MAX_BREAK_EVEN_KMH => scenario,
        _ => Scenario::reference(),
    };
    let distribution = tracer.time("core.montecarlo.draws", MONTECARLO_DRAWS as u64, || {
        MonteCarlo::new(&mc_scenario, VariationModel::reference(), index)
            .break_even_distribution_with(MONTECARLO_DRAWS, executor)
    });
    std::hint::black_box(&distribution);
    distribution.is_ok()
}
