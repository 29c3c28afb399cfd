//! The node-energy kernel.
//!
//! The paper's core step (§II, Fig. 1) is one fold per block: the whole
//! round in the rest mode, corrected by each phase's amortized power
//! delta over the rest mode, plus the workload's event energy.
//! `BlockFigures` compiles one block into the speed-independent inputs
//! of that fold once (every `model.power(mode, conditions)` lookup and
//! every event energy), so evaluating a point only resolves the schedule
//! against the round period and folds — without allocating.
//!
//! Both [`EvalCache`] and [`crate::EnergyAnalyzer`] evaluate through this
//! one kernel, so cached and uncached figures are bit-identical by
//! construction — the property the parallel sweep tests pin down.

use monityre_node::{Architecture, RoundSchedule};
use monityre_power::{EnergyBreakdown, PowerBreakdown, WorkingConditions};
use monityre_profile::Wheel;
use monityre_units::{Duration, Energy, Power, Speed};

use crate::{BlockEnergy, CoreError, NodeEnergy, Scenario};

/// The wheel-round period at `speed` — the one standstill check.
pub(crate) fn round_period(wheel: &Wheel, speed: Speed) -> Result<Duration, CoreError> {
    if speed.mps() <= 0.0 || !speed.is_finite() {
        return Err(CoreError::round_undefined(speed.kmh()));
    }
    Ok(wheel.round_period(speed))
}

/// One block's speed-independent figures.
#[derive(Debug, Clone)]
pub(crate) struct BlockFigures {
    name: String,
    schedule: RoundSchedule,
    rest_power: PowerBreakdown,
    /// Each scheduled phase's power minus the rest power, aligned with
    /// `schedule.phases()` (and therefore with `schedule.resolve(..)`).
    phase_deltas: Vec<PowerBreakdown>,
    /// Pre-multiplied `per_event × count` workload contributions, in
    /// workload iteration order.
    event_contributions: Vec<Energy>,
}

impl BlockFigures {
    /// Looks up every speed-independent figure of block `name` under
    /// `conditions`.
    ///
    /// # Errors
    ///
    /// Returns a lookup error for unknown blocks.
    pub(crate) fn new(
        architecture: &Architecture,
        name: &str,
        conditions: &WorkingConditions,
    ) -> Result<Self, CoreError> {
        let plan = architecture.plan(name)?;
        let model = architecture.database().block(name)?;
        let schedule = plan.schedule().clone();
        let rest_power = model.power(schedule.rest_mode(), conditions);
        let phase_deltas = schedule
            .phases()
            .iter()
            .map(|phase| {
                let power = model.power(phase.mode, conditions);
                PowerBreakdown::new(
                    power.dynamic - rest_power.dynamic,
                    power.leakage - rest_power.leakage,
                )
            })
            .collect();
        let event_contributions = plan
            .workload()
            .iter()
            .filter_map(|(kind, count)| {
                model
                    .event_energy(kind, conditions)
                    .map(|per_event| per_event * count)
            })
            .collect();
        Ok(Self {
            name: name.to_owned(),
            schedule,
            rest_power,
            phase_deltas,
            event_contributions,
        })
    }

    /// The block's energy per round of length `period`, amortized over
    /// each phase's recurrence period.
    fn energy(&self, period: Duration) -> EnergyBreakdown {
        // Baseline: the whole round in the rest mode…
        let mut energy = self.rest_power.over(period);
        // …corrected by each phase's amortized delta over the rest mode.
        for (phase, delta) in self.schedule.resolve(period).zip(&self.phase_deltas) {
            let share = phase.amortized_duration();
            energy.dynamic += delta.dynamic * share;
            energy.leakage += delta.leakage * share;
        }
        // Event energy is workload-proportional switching energy.
        for contribution in &self.event_contributions {
            energy.dynamic += *contribution;
        }
        energy
    }

    /// The block's named figure with its duty cycle, for reports.
    pub(crate) fn block_energy(&self, period: Duration) -> BlockEnergy {
        BlockEnergy {
            name: self.name.clone(),
            energy: self.energy(period),
            duty_cycle: self.schedule.duty_cycle(period),
        }
    }
}

/// Per-block, per-conditions energy figures hoisted out of the sweep loop.
///
/// Built once per [`Scenario`] (see [`Scenario::cache`]) and immutable
/// afterwards, so sweep workers can evaluate points through a shared
/// reference.
///
/// ```
/// use monityre_core::{EvalCache, Scenario};
/// use monityre_units::Speed;
///
/// let scenario = Scenario::reference();
/// let cache = scenario.cache().unwrap();
/// let direct = scenario.analyzer().required_per_round(Speed::from_kmh(60.0)).unwrap();
/// let cached = cache.required_per_round(Speed::from_kmh(60.0)).unwrap();
/// assert_eq!(cached.joules().to_bits(), direct.joules().to_bits());
/// ```
#[derive(Debug, Clone)]
pub struct EvalCache {
    wheel: Wheel,
    blocks: Vec<BlockFigures>,
}

impl EvalCache {
    /// Precomputes every speed-independent figure of the scenario's
    /// architecture, in `block_names()` order.
    ///
    /// # Errors
    ///
    /// Propagates lookup errors for malformed architectures.
    pub fn new(scenario: &Scenario) -> Result<Self, CoreError> {
        let architecture = scenario.architecture();
        let conditions = scenario.conditions();
        let blocks = architecture
            .block_names()
            .map(|name| BlockFigures::new(architecture, name, &conditions))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            wheel: *scenario.wheel(),
            blocks,
        })
    }

    /// The number of cached blocks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The wheel-round period at `speed`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::RoundUndefined`] at standstill or below.
    pub fn round_period(&self, speed: Speed) -> Result<Duration, CoreError> {
        round_period(&self.wheel, speed)
    }

    /// The whole node's energy per wheel round at `speed`, per block with
    /// names and duty cycles — bit-identical to
    /// [`crate::EnergyAnalyzer::node_energy`] on the same scenario.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::RoundUndefined`] at standstill.
    pub fn node_energy(&self, speed: Speed) -> Result<NodeEnergy, CoreError> {
        let round_period = self.round_period(speed)?;
        let blocks = self
            .blocks
            .iter()
            .map(|figures| figures.block_energy(round_period))
            .collect();
        Ok(NodeEnergy {
            speed,
            round_period,
            blocks,
        })
    }

    /// Required energy per round at `speed` — the demand curve of Fig. 2.
    /// Folds the blocks in [`NodeEnergy::total`]'s order without building
    /// the per-block report, so it allocates nothing and matches
    /// `node_energy(speed)?.total().total()` bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::RoundUndefined`] at standstill.
    pub fn required_per_round(&self, speed: Speed) -> Result<Energy, CoreError> {
        let period = self.round_period(speed)?;
        let total: EnergyBreakdown = self
            .blocks
            .iter()
            .map(|figures| figures.energy(period))
            .sum();
        Ok(total.total())
    }

    /// Average node power while rolling at `speed`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::RoundUndefined`] at standstill.
    pub fn average_power(&self, speed: Speed) -> Result<Power, CoreError> {
        Ok(self.required_per_round(speed)? / self.round_period(speed)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speed_grid;
    use monityre_node::{Architecture, NodeConfig};
    use monityre_power::{ProcessCorner, WorkingConditions};
    use monityre_units::{Frequency, Temperature};

    fn scenarios() -> Vec<Scenario> {
        vec![
            Scenario::reference(),
            Scenario::builder()
                .conditions(
                    WorkingConditions::reference()
                        .with_temperature(Temperature::from_celsius(85.0)),
                )
                .build(),
            Scenario::builder()
                .conditions(WorkingConditions::reference().with_corner(ProcessCorner::FastFast))
                .build(),
            Scenario::builder()
                .architecture(Architecture::from_config(
                    NodeConfig::reference()
                        .with_samples_per_round(512)
                        .with_tx_period_rounds(1),
                ))
                .build(),
            // A 0.5 MHz DSP: its fixed 80 ms compute span exceeds the round
            // above ~86 km/h, so the schedule's truncation branch runs.
            Scenario::builder()
                .architecture(Architecture::from_config(
                    NodeConfig::reference().with_dsp_clock(Frequency::from_megahertz(0.5)),
                ))
                .build(),
        ]
    }

    #[test]
    fn cached_node_energy_is_bit_identical_to_analyzer() {
        for scenario in scenarios() {
            let cache = scenario.cache().unwrap();
            let analyzer = scenario.analyzer();
            // The Fig. 2 grid plus a few off-grid speeds.
            let fig2 = speed_grid(Speed::from_kmh(5.0), Speed::from_kmh(200.0), 196);
            let extra = [6.0, 13.7, 30.0, 61.3, 99.0, 187.5].map(Speed::from_kmh);
            for v in fig2.into_iter().chain(extra) {
                let kmh = v.kmh();
                let direct = analyzer.node_energy(v).unwrap();
                let cached = cache.node_energy(v).unwrap();
                assert_eq!(direct.blocks.len(), cached.blocks.len());
                for (d, c) in direct.blocks.iter().zip(&cached.blocks) {
                    assert_eq!(d.name, c.name);
                    assert_eq!(
                        d.energy.dynamic.joules().to_bits(),
                        c.energy.dynamic.joules().to_bits(),
                        "dynamic of {} at {kmh} km/h",
                        d.name
                    );
                    assert_eq!(
                        d.energy.leakage.joules().to_bits(),
                        c.energy.leakage.joules().to_bits(),
                        "leakage of {} at {kmh} km/h",
                        d.name
                    );
                    assert_eq!(d.duty_cycle, c.duty_cycle);
                }
                let required = cache.required_per_round(v).unwrap().joules().to_bits();
                assert_eq!(direct.total().total().joules().to_bits(), required);
                assert_eq!(cached.total().total().joules().to_bits(), required);
            }
        }
    }

    #[test]
    fn standstill_is_rejected() {
        let cache = Scenario::reference().cache().unwrap();
        assert!(cache.node_energy(Speed::ZERO).is_err());
        assert!(cache.round_period(Speed::from_kmh(-3.0)).is_err());
    }

    #[test]
    fn cache_covers_every_block() {
        let scenario = Scenario::reference();
        let cache = scenario.cache().unwrap();
        assert_eq!(cache.len(), scenario.architecture().len());
        assert!(!cache.is_empty());
    }

    #[test]
    fn average_power_matches_analyzer() {
        let scenario = Scenario::reference();
        let cache = scenario.cache().unwrap();
        let v = Speed::from_kmh(90.0);
        assert_eq!(
            cache.average_power(v).unwrap(),
            scenario.analyzer().average_power(v).unwrap()
        );
    }
}
