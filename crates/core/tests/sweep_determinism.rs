//! Determinism guarantees of the parallel evaluation layer: for any
//! worker count, [`SweepExecutor`] results are bit-identical
//! to a serial evaluation, and the reference break-even speed is pinned
//! so numeric drift in the cache/replay path is caught immediately.

use monityre_core::{EnergyBalance, MonteCarlo, Scenario, SweepExecutor, VariationModel};
use monityre_harvest::HarvestChain;
use monityre_node::{Architecture, NodeConfig};
use monityre_units::Speed;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Balance sweeps are bit-identical under any thread count: the
    /// executor only partitions the index space.
    #[test]
    fn parallel_balance_sweep_is_bit_identical(
        threads in 1usize..=8,
        samples in prop_oneof![Just(32u32), Just(128), Just(512)],
        scale in 0.5f64..2.0,
        steps in 16usize..160,
    ) {
        let scenario = Scenario::builder()
            .architecture(Architecture::from_config(
                NodeConfig::reference().with_samples_per_round(samples),
            ))
            .chain(HarvestChain::reference().scaled(scale))
            .build();
        let balance = EnergyBalance::new(&scenario).unwrap();
        let lo = Speed::from_kmh(5.0);
        let hi = Speed::from_kmh(200.0);
        let serial = balance.sweep(lo, hi, steps);
        let parallel = balance.sweep_with(lo, hi, steps, &SweepExecutor::new(threads));
        prop_assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.points().iter().zip(parallel.points()) {
            prop_assert_eq!(s.speed.kmh().to_bits(), p.speed.kmh().to_bits());
            prop_assert_eq!(s.generated.joules().to_bits(), p.generated.joules().to_bits());
            prop_assert_eq!(s.required.joules().to_bits(), p.required.joules().to_bits());
        }
    }

    /// Monte Carlo draw batches are bit-identical under any thread count:
    /// every draw is seeded from its index, never from the schedule.
    #[test]
    fn parallel_mc_draws_are_bit_identical(
        threads in 1usize..=8,
        seed in 0u64..1_000_000,
    ) {
        let mc = MonteCarlo::new(&Scenario::reference(), VariationModel::reference(), seed);
        let serial = mc.break_even_distribution(12).unwrap();
        let parallel = mc
            .break_even_distribution_with(12, &SweepExecutor::new(threads))
            .unwrap();
        prop_assert_eq!(serial.never_crossed(), parallel.never_crossed());
        prop_assert_eq!(serial.samples().len(), parallel.samples().len());
        for (s, p) in serial.samples().iter().zip(parallel.samples()) {
            prop_assert_eq!(s.kmh().to_bits(), p.kmh().to_bits());
        }
    }
}

/// The reference break-even speed, pinned. A change here means the
/// evaluation stack's numerics moved — intended refactors must show it
/// did not, and model changes must update the constant consciously.
#[test]
fn reference_break_even_is_pinned() {
    const EXPECTED_KMH: f64 = 34.526_307_817_678_656;
    let scenario = Scenario::reference();
    let balance = EnergyBalance::new(&scenario).unwrap();
    let lo = Speed::from_kmh(5.0);
    let hi = Speed::from_kmh(200.0);
    let serial = balance
        .sweep(lo, hi, 196)
        .break_even()
        .expect("reference curves cross");
    assert!(
        (serial.kmh() - EXPECTED_KMH).abs() < 1e-9,
        "reference break-even moved: {:.15} km/h",
        serial.kmh()
    );
    for threads in [2, 4, 8] {
        let parallel = balance
            .sweep_with(lo, hi, 196, &SweepExecutor::new(threads))
            .break_even()
            .expect("reference curves cross");
        assert_eq!(parallel.kmh().to_bits(), serial.kmh().to_bits());
    }
}
