//! `workbook`: the paper's dynamic spreadsheet at scale — a seeded,
//! layered workbook edited through the public `Sheet` API, with parallel
//! recompute installed as `serve` installs it.

use std::time::Instant;

use monityre_core::SweepExecutor;
use monityre_sheet::Sheet;

use crate::trace::Tracer;
use crate::util::{ns_since, record_proc, vm_hwm_mb, Rng};
use crate::{Check, Config, Outcome, Sample};

/// Cells per level: well above the parallel fan-out threshold (64).
pub const WIDTH: usize = 512;
/// Formula levels above the inputs.
pub const DEPTH: usize = 6;
/// Session ops between full recalcs.
const RECALC_EVERY: u64 = 64;
/// Share of session ops that replace a formula (structural rebuild).
const FORMULA_EDIT_SHARE: f64 = 0.005;
/// Top-level cells read back after each literal edit.
const READS_PER_EDIT: usize = 8;
/// Set-ups before and after the measured window; `setup_s` is their
/// median, so it samples the machine at two moments of the run.
const SETUPS_EACH_SIDE: usize = 3;
/// `peak_rss_mb` is read after this many session ops; the window runs on
/// until they are done even when `--seconds` has passed.
const RSS_AT_OPS: u64 = 8192;

fn input(i: usize) -> String {
    format!("in{i}")
}

fn cell(level: usize, i: usize) -> String {
    format!("l{level}c{i}")
}

/// The formula of `cell(level, i)`; `variant` picks the neighbour mix, so
/// a formula edit rewires the dependency graph.
fn formula(level: usize, i: usize, variant: usize, width: usize) -> String {
    let below = level - 1;
    let a = (i + 1 + variant) % width;
    let b = (i + 5 + 2 * variant) % width;
    format!(
        "{} * 0.5 + {} * 0.3 + {} * 0.2",
        cell(below, i),
        cell(below, a),
        cell(below, b)
    )
}

/// Builds the layered workbook: `width` inputs, then `depth` levels.
/// Level 1 clamps the even columns far into saturation (`clamp(in + 10,
/// 0, 1)` is 1 for every input in `[0, 1)`), so edits there are cut at
/// once; odd columns pass their input on and the cone widens level by
/// level.
pub fn build(rng: &mut Rng, width: usize, depth: usize, executor: SweepExecutor) -> Sheet {
    let mut sheet = Sheet::new();
    monityre_core::install_parallel_recompute(&mut sheet, executor);
    for i in 0..width {
        sheet
            .set_number(&input(i), rng.unit())
            .expect("literal writes");
    }
    for i in 0..width {
        let text = if i % 2 == 0 {
            format!("clamp({} + 10, 0, 1)", input(i))
        } else {
            format!("{} * 0.5 + 0.25", input(i))
        };
        sheet
            .set_formula(&cell(1, i), &text)
            .expect("level 1 parses");
    }
    for level in 2..=depth {
        for i in 0..width {
            sheet
                .set_formula(&cell(level, i), &formula(level, i, 0, width))
                .expect("level formula parses");
        }
    }
    sheet.compile().expect("workbook compiles");
    sheet
}

/// Every cell value, bit for bit, in name order.
pub fn value_bits(sheet: &Sheet) -> Vec<(String, u64)> {
    let mut names: Vec<&str> = sheet.names().collect();
    names.sort_unstable();
    names
        .into_iter()
        .map(|name| {
            let value = sheet.value(name).map_or(u64::MAX, f64::to_bits);
            (name.to_owned(), value)
        })
        .collect()
}

/// A serial copy of `sheet`: the same cells, no parallel level map.
pub fn serial_copy(sheet: &Sheet) -> Sheet {
    let json = sheet.to_json().expect("workbook serializes");
    let mut copy = Sheet::from_json(&json).expect("workbook deserializes");
    copy.compile().expect("copy compiles");
    copy
}

pub fn run(cfg: &Config, seconds: f64, traced: bool) -> Outcome {
    let executor = SweepExecutor::new(cfg.threads);
    let mut out = Outcome::new("recalculated cells");
    let setup = |out: &mut Outcome| {
        let mut rng = Rng::lane(cfg.seed, 2);
        let start = Instant::now();
        let mut built = build(&mut rng, WIDTH, DEPTH, executor);
        built.recompute_all().expect("first recompute");
        out.setup_s.push(ns_since(start) as f64 / 1e9);
        built
    };
    let mut sheet = setup(&mut out);
    for _ in 1..SETUPS_EACH_SIDE {
        sheet = setup(&mut out);
    }

    let mut rng = Rng::lane(cfg.seed, 3);
    let mut tracer = Tracer::new(traced);
    let (mut edit_ns, mut edits) = (0u64, 0u64);
    let (mut evaluated, mut cut) = (0u64, 0u64);
    let mut op = 0u64;
    let start = Instant::now();
    while op < RSS_AT_OPS || start.elapsed().as_secs_f64() < seconds {
        op += 1;
        out.attempted += 1;
        let root = tracer.open("bench.op");
        let op_start = Instant::now();
        let ok = if op.is_multiple_of(RECALC_EVERY) {
            let ok = tracer.time("sheet.recalc_full", 1, || sheet.recompute_all().is_ok());
            let cells = sheet.last_recompute().evaluated as f64;
            out.samples
                .push(Sample::busy(ns_since(start), ns_since(op_start), cells));
            ok
        } else if rng.chance(FORMULA_EDIT_SHARE) {
            let level = 2 + rng.below(DEPTH - 1);
            let i = rng.below(WIDTH);
            let text = formula(level, i, rng.below(4), WIDTH);
            tracer.time("sheet.formula_edit", 1, || {
                sheet.set_formula(&cell(level, i), &text).is_ok()
            })
        } else {
            let i = rng.below(WIDTH);
            let value = rng.unit();
            let ok = tracer.time("sheet.edit", 1, || {
                let ok = sheet.set_number(&input(i), value).is_ok();
                let mut sum = 0.0;
                for k in 0..READS_PER_EDIT {
                    let column = (i + WIDTH - k) % WIDTH;
                    sum += sheet.value(&cell(DEPTH, column)).unwrap_or(f64::NAN);
                }
                ok && sum.is_finite()
            });
            let wave = sheet.last_recompute();
            evaluated += wave.evaluated;
            cut += wave.cut;
            let took = ns_since(op_start);
            edit_ns += took;
            edits += 1;
            out.samples
                .push(Sample::latency(ns_since(start), took, 0.0));
            ok
        };
        tracer.close(root, 1);
        if !ok {
            out.failed += 1;
        }
        if op == RSS_AT_OPS {
            out.peak_rss_mb = vm_hwm_mb();
        }
    }
    out.window_s = start.elapsed().as_secs_f64();
    out.rss_work = format!("{RSS_AT_OPS} session ops");
    record_proc(&mut out.layer);
    tracer.finish();
    for _ in 0..SETUPS_EACH_SIDE {
        setup(&mut out);
    }
    out.trace.push(tracer);
    // The headline rate is full-recalc throughput (cells per second of
    // recalc); the edit rate is printed alongside as `edits_per_s`.
    out.aliases.push((
        "edits_per_s",
        edits as f64 / (edit_ns as f64 / 1e9).max(1e-12),
        "1/s",
    ));
    out.layer.insert("sheet.cells_evaluated", evaluated as f64);
    out.layer.insert("sheet.cells_cut", cut as f64);

    // Check: the final values bit-equal a fresh serial recompute of the
    // same edited workbook. The serial/threaded recalc pairs also give
    // the parallel speed-up.
    let live = value_bits(&sheet);
    let mut serial = serial_copy(&sheet);
    let mut probe = Tracer::new(true);
    for _ in 0..5 {
        probe
            .time("sheet.recalc_serial", 1, || serial.recompute_all())
            .expect("serial recompute");
        probe
            .time("sheet.recalc_threads", 1, || sheet.recompute_all())
            .expect("threaded recompute");
    }
    out.layer
        .insert("sheet.levels", sheet.last_recompute().levels as f64);
    probe.finish();
    let equal = value_bits(&serial) == live;
    out.checks.push(Check::new(
        "workbook.values_bit_equal_serial_recompute",
        equal,
        format!("{} cells after {op} session ops", sheet.len()),
    ));
    out.probe_trace.push(probe);
    out
}
