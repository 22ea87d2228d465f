//! Recurring releases with budget composition.
//!
//! A one-shot DStress run answers a single query under a single ε.  Real
//! deployments *recur*: the systemic-risk figure published monthly, a
//! degree histogram released bin by bin, a metric refreshed every round.
//! Sequential composition makes the privacy cost additive — `K` releases
//! at ε_round spend `K · ε_round` — so every release must clear a shared
//! [`BudgetAccountant`] before it runs.
//!
//! [`ReleaseSchedule`] is that gate.  Each release,
//! [`ReleaseSchedule::release_full`], reruns the full MPC pipeline
//! (blocks, GMW, transfer protocol, Laplace release) via
//! [`DStressRuntime`] with the schedule's per-release ε and a per-release
//! seed.
//!
//! The budget is charged **before** the release executes and is not
//! refunded on failure: a failed run may still have leaked through
//! timing or partial outputs, so the accountant stays conservative.
//! When the budget runs out the schedule refuses further releases until
//! [`ReleaseSchedule::replenish`] (the paper's §4.5 annual reset).

use crate::config::DStressConfig;
use crate::engine::{DStressRuntime, RuntimeError};
use crate::program::SecureVertexProgram;
use dstress_dp::{BudgetAccountant, BudgetError};
use dstress_graph::Graph;
use dstress_math::rng::splitmix64_finalize;
use std::fmt;

/// Why a scheduled release did not produce a value.
#[derive(Debug)]
pub enum ScheduleError {
    /// The budget accountant refused the charge (exhausted or invalid ε).
    Budget(BudgetError),
    /// The full-MPC pipeline failed.
    Runtime(RuntimeError),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Budget(e) => write!(f, "release refused: {e}"),
            ScheduleError::Runtime(e) => write!(f, "full-MPC release failed: {e}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl From<BudgetError> for ScheduleError {
    fn from(e: BudgetError) -> Self {
        ScheduleError::Budget(e)
    }
}

impl From<RuntimeError> for ScheduleError {
    fn from(e: RuntimeError) -> Self {
        ScheduleError::Runtime(e)
    }
}

/// One completed release.
#[derive(Clone, Debug)]
pub struct ReleaseRecord {
    /// The label charged to the audit trail.
    pub label: String,
    /// The released (noisy) value.
    pub value: f64,
    /// The ε spent on it.
    pub epsilon: f64,
}

/// A recurring-release schedule: a budget accountant in front of the
/// release pipeline, with an audit trail of everything released.
pub struct ReleaseSchedule {
    accountant: BudgetAccountant,
    epsilon_per_release: f64,
    releases: Vec<ReleaseRecord>,
}

impl ReleaseSchedule {
    /// Creates a schedule spending `epsilon_per_release` from `accountant`
    /// on every release.
    pub fn new(accountant: BudgetAccountant, epsilon_per_release: f64) -> Self {
        ReleaseSchedule {
            accountant,
            epsilon_per_release,
            releases: Vec::new(),
        }
    }

    /// The per-release ε.
    pub fn epsilon_per_release(&self) -> f64 {
        self.epsilon_per_release
    }

    /// The underlying accountant (total, spent, audit trail).
    pub fn accountant(&self) -> &BudgetAccountant {
        &self.accountant
    }

    /// Completed releases, in order.
    pub fn releases(&self) -> &[ReleaseRecord] {
        &self.releases
    }

    /// How many more releases the remaining budget allows.
    pub fn releases_remaining(&self) -> u32 {
        self.accountant
            .max_queries(self.epsilon_per_release)
            .unwrap_or(0)
    }

    /// Resets the accountant (the §4.5 annual replenishment), keeping the
    /// release history.
    pub fn replenish(&mut self) {
        self.accountant.replenish();
    }

    /// Runs the full MPC pipeline for one scheduled release.
    ///
    /// The runtime executes with the schedule's per-release ε (overriding
    /// `config.epsilon`) and a seed derived from the release index, so
    /// repeated releases draw independent noise.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::Budget`] if the accountant refuses the charge
    /// (nothing runs in that case), [`ScheduleError::Runtime`] if the
    /// pipeline fails (the charge is *not* refunded — see module docs).
    pub fn release_full<P: SecureVertexProgram>(
        &mut self,
        config: &DStressConfig,
        graph: &Graph,
        program: &P,
        label: &str,
    ) -> Result<f64, ScheduleError> {
        self.accountant.charge(label, self.epsilon_per_release)?;
        let mut run_config = config.clone();
        run_config.epsilon = self.epsilon_per_release;
        run_config.seed ^= splitmix64_finalize(self.releases.len() as u64 + 1);
        let run = DStressRuntime::new(run_config).execute(graph, program)?;
        self.releases.push(ReleaseRecord {
            label: label.to_string(),
            value: run.noised_output,
            epsilon: self.epsilon_per_release,
        });
        Ok(run.noised_output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::CounterProgram;
    use dstress_graph::generate::ring_with_chords;
    use dstress_math::rng::Xoshiro256;

    fn tiny_graph() -> Graph {
        let mut rng = Xoshiro256::new(7);
        ring_with_chords(5, 0, 2, &mut rng)
    }

    #[test]
    fn k_full_releases_compose_k_epsilon_and_exhaust_on_k_plus_one() {
        // Budget 0.3, ε_round 0.1: exactly 3 releases fit (the budget
        // bugfix makes this boundary exact — see dstress-dp).
        let mut schedule = ReleaseSchedule::new(BudgetAccountant::new(0.3), 0.1);
        let graph = tiny_graph();
        let program = CounterProgram {
            width: 8,
            rounds: 1,
        };
        let config = DStressConfig::benchmark(2);

        assert_eq!(schedule.releases_remaining(), 3);
        for month in 0..3 {
            let label = format!("monitor month {month}");
            schedule
                .release_full(&config, &graph, &program, &label)
                .unwrap();
        }
        assert_eq!(schedule.releases().len(), 3);
        // Audit trail composes to exactly K · ε_round.
        assert!((schedule.accountant().spent() - 0.3).abs() < 1e-12);
        assert_eq!(schedule.accountant().charges().len(), 3);
        assert_eq!(schedule.releases_remaining(), 0);

        // Release K + 1 is refused by the accountant, before anything runs.
        let err = schedule
            .release_full(&config, &graph, &program, "month 3")
            .unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::Budget(BudgetError::Exhausted { .. })
        ));
        assert_eq!(schedule.releases().len(), 3);

        // Replenish re-enables the schedule.
        schedule.replenish();
        assert_eq!(schedule.releases_remaining(), 3);
        schedule
            .release_full(&config, &graph, &program, "year 2, month 0")
            .unwrap();
        assert_eq!(schedule.releases().len(), 4);
    }

    #[test]
    fn independent_releases_draw_independent_noise() {
        let mut schedule = ReleaseSchedule::new(BudgetAccountant::new(2.0), 0.1);
        let graph = tiny_graph();
        let program = CounterProgram {
            width: 8,
            rounds: 1,
        };
        let config = DStressConfig::benchmark(2);
        let a = schedule
            .release_full(&config, &graph, &program, "a")
            .unwrap();
        let b = schedule
            .release_full(&config, &graph, &program, "b")
            .unwrap();
        assert_ne!(a, b, "per-release seeds must decorrelate the noise");
    }

    #[test]
    fn releases_remaining_counts_the_charges_that_will_succeed() {
        // A schedule may be handed a ledger that already holds charges of
        // another size; the count must be of what is left, on the same
        // integer ledger `charge` uses.
        for (total, prior, epsilon) in [
            (1.0, 0.04, 0.1),
            (1.0, 0.05, 0.1),
            (0.3, 0.0, 0.1),
            (std::f64::consts::LN_2, 0.1, 0.3),
        ] {
            let mut accountant = BudgetAccountant::new(total);
            if prior > 0.0 {
                accountant.charge("prior", prior).unwrap();
            }
            let schedule = ReleaseSchedule::new(accountant.clone(), epsilon);
            let mut successes = 0;
            while accountant.charge("release", epsilon).is_ok() {
                successes += 1;
            }
            assert_eq!(
                schedule.releases_remaining(),
                successes,
                "total {total}, prior {prior}, epsilon {epsilon}"
            );
        }
    }
}
