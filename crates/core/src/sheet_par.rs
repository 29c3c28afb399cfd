//! Parallel spreadsheet recompute: a [`SweepExecutor`]-backed
//! [`LevelMap`].
//!
//! The sheet engine stratifies its dependency graph into topological
//! levels; cells within one level are independent by construction, so a
//! level with enough work can fan out across worker threads (the
//! executor measures the work and decides). This module is the glue
//! between the two crates — `monityre-core` already depends on
//! `monityre-sheet`, so the sheet crate defines the [`LevelMap`] seam and
//! core supplies the threaded implementation:
//!
//! ```
//! use monityre_core::{install_parallel_recompute, SweepExecutor};
//! use monityre_sheet::Sheet;
//!
//! let mut sheet = Sheet::new();
//! install_parallel_recompute(&mut sheet, SweepExecutor::available());
//! ```
//!
//! Results are written back slot-for-slot (`out[i] == eval(i)`), so the
//! recompute wave — and therefore every cell value — is bit-identical to
//! the serial engine regardless of thread count. Evaluation counters are
//! merged centrally by the sheet engine, not per thread, so
//! `evaluation_count` is thread-count independent too.

use std::sync::Arc;

use monityre_sheet::{LevelMap, Sheet};

use crate::executor::SweepExecutor;

/// A [`LevelMap`] that maps each level over a [`SweepExecutor`], which
/// fans the level out only when its measured work pays for the threads.
#[derive(Debug, Clone, Copy)]
pub struct SweepLevelMap {
    executor: SweepExecutor,
}

impl SweepLevelMap {
    /// Wraps an executor.
    #[must_use]
    pub fn new(executor: SweepExecutor) -> Self {
        Self { executor }
    }
}

impl LevelMap for SweepLevelMap {
    fn map_level(&self, count: usize, eval: &(dyn Fn(usize) -> f64 + Sync)) -> Vec<f64> {
        self.executor.map(&vec![(); count], |i, _| eval(i))
    }
}

/// Installs a [`SweepLevelMap`] over `executor` on a sheet (convenience
/// for serve/CLI call sites).
pub fn install_parallel_recompute(sheet: &mut Sheet, executor: SweepExecutor) {
    sheet.set_level_map(Arc::new(SweepLevelMap::new(executor)));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A wide two-level workbook: `mid_i = f(src_i)` for many i, then a
    /// handful of aggregates over the mids.
    fn wide_sheet(width: usize) -> Sheet {
        let mut sheet = Sheet::new();
        for i in 0..width {
            sheet
                .set_number(&format!("src{i}"), 0.1 + i as f64)
                .unwrap();
        }
        for i in 0..width {
            sheet
                .set_formula(
                    &format!("mid{i}"),
                    &format!("sqrt(src{i}) * exp(src{i} / 500) + ln(src{i} + 1)"),
                )
                .unwrap();
        }
        let terms: Vec<String> = (0..width).map(|i| format!("mid{i}")).collect();
        sheet
            .set_formula("total", &format!("sum({})", terms.join(", ")))
            .unwrap();
        sheet
    }

    #[test]
    fn parallel_recompute_is_bit_identical_to_serial() {
        // Wide enough that the mid level's serial work (~0.5 ms in a
        // release build, more in debug) is several times the fan-out
        // gate at 4 threads, so the threaded path is what gets checked.
        const WIDTH: usize = 1024;
        let mut serial = wide_sheet(WIDTH);
        let mut parallel = wide_sheet(WIDTH);
        install_parallel_recompute(&mut parallel, SweepExecutor::new(4));
        for (round, value) in [(0usize, 2.5f64), (7, 0.125), (131, 9.75)] {
            serial.set_number(&format!("src{round}"), value).unwrap();
            parallel.set_number(&format!("src{round}"), value).unwrap();
            parallel.recompute_all().unwrap();
            for i in 0..WIDTH {
                let name = format!("mid{i}");
                assert_eq!(
                    parallel.value(&name).unwrap().to_bits(),
                    serial.value(&name).unwrap().to_bits(),
                    "cell {name}"
                );
            }
            assert_eq!(
                parallel.value("total").unwrap().to_bits(),
                serial.value("total").unwrap().to_bits()
            );
        }
    }

    #[test]
    fn evaluation_count_is_thread_count_independent() {
        const WIDTH: usize = 200;
        let mut serial = wide_sheet(WIDTH);
        let mut parallel = wide_sheet(WIDTH);
        install_parallel_recompute(&mut parallel, SweepExecutor::new(4));
        let (s0, p0) = (serial.evaluation_count(), parallel.evaluation_count());
        serial.recompute_all().unwrap();
        parallel.recompute_all().unwrap();
        assert_eq!(
            serial.evaluation_count() - s0,
            parallel.evaluation_count() - p0
        );
    }

    #[test]
    fn narrow_levels_run_inline() {
        // A single-cell edit is far too little work to fan out; the inline
        // path is not observable, so this checks its correctness.
        let mut sheet = wide_sheet(16);
        install_parallel_recompute(&mut sheet, SweepExecutor::new(4));
        sheet.set_number("src3", 42.0).unwrap();
        let expected = 42.0f64.sqrt() * (42.0f64 / 500.0).exp() + 43.0f64.ln();
        assert_eq!(sheet.value("mid3").unwrap().to_bits(), expected.to_bits());
    }
}
