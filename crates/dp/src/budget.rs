//! Privacy-budget accounting.
//!
//! Differential privacy composes additively: running several ε-DP queries
//! against the same data spends the sum of their ε values.  DStress
//! maintains a budget both for the *output* releases (§4.5: the banks
//! replenish their budget once per year, allowing ≈3 runs) and for the
//! *edge-privacy* leakage of the transfer protocol (Appendix B).  The
//! [`PrivacyBudget`] ledger records every charge with a label so the
//! harness can print an audit trail.
//!
//! ## The boundary tolerance contract
//!
//! Budget arithmetic is done in **integer micro-ε units** of
//! [`EPSILON_RESOLUTION`] (10⁻¹²): every charge is rounded to the nearest
//! unit on entry and accumulated exactly from then on.  This makes the
//! three boundary-sensitive operations *provably consistent with each
//! other*, which pure `f64` accounting is not:
//!
//! * [`PrivacyBudget::charge`] succeeds exactly while
//!   `spent_units + charge_units ≤ total_units`;
//! * [`PrivacyBudget::max_queries`] is exactly
//!   `(total_units − spent_units) / charge_units` — the number of
//!   identical charges that will succeed from here on
//!   (`(0.3 / 0.1).floor()` in `f64` yields 2 because `0.3/0.1 ==
//!   2.999…`, while three sequential charges of 0.1 succeed; the integer
//!   ledger returns 3 for both);
//! * [`PrivacyBudget::spent`] is an O(1) exact running total — no
//!   re-summation of the ledger, no accumulated `f64` drift over the
//!   thousands of charges a recurring-release schedule performs.
//!
//! The contract callers rely on: two ε values closer than half a unit
//! (5·10⁻¹³) are the same charge, and no sequence of accepted charges can
//! ever exceed the total by more than the rounding of its own entries.

use core::fmt;

/// The resolution of the integer budget ledger: one micro-ε unit.
///
/// Charges are rounded to the nearest multiple of this value on entry;
/// see the module docs for the resulting boundary contract.
pub const EPSILON_RESOLUTION: f64 = 1e-12;

/// Errors raised by the budget ledger.
#[derive(Debug, Clone, PartialEq)]
pub enum BudgetError {
    /// The requested charge would exceed the remaining budget.
    Exhausted {
        /// Epsilon requested by the query.
        requested: f64,
        /// Epsilon still available.
        remaining: f64,
    },
    /// A charge with a non-positive, non-finite, or sub-resolution ε was
    /// requested (ε must round to at least one micro-ε unit and fit in
    /// the ledger's integer range).
    InvalidCharge {
        /// The offending value.
        epsilon: f64,
    },
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetError::Exhausted {
                requested,
                remaining,
            } => write!(
                f,
                "privacy budget exhausted: requested ε={requested}, remaining ε={remaining}"
            ),
            BudgetError::InvalidCharge { epsilon } => {
                write!(
                    f,
                    "privacy charges must be positive, finite and at least {EPSILON_RESOLUTION}, \
                     got ε={epsilon}"
                )
            }
        }
    }
}

impl std::error::Error for BudgetError {}

/// Converts an ε value to integer micro-ε units, rejecting values that
/// are non-positive, non-finite, below half a unit, or too large for the
/// ledger's integer range.
fn epsilon_units(epsilon: f64) -> Result<u128, BudgetError> {
    if !epsilon.is_finite() || epsilon <= 0.0 {
        return Err(BudgetError::InvalidCharge { epsilon });
    }
    let units = (epsilon / EPSILON_RESOLUTION).round();
    // 2^100 units ≈ 1.3e18 ε — far beyond any meaningful budget, and
    // small enough that u128 sums can never overflow in practice.
    if units < 1.0 || units >= (1u128 << 100) as f64 {
        return Err(BudgetError::InvalidCharge { epsilon });
    }
    Ok(units as u128)
}

/// A single recorded expenditure.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetCharge {
    /// Human-readable description of what consumed the budget.
    pub label: String,
    /// The ε spent.
    pub epsilon: f64,
}

/// An ε-differential-privacy budget ledger.
///
/// Also exported as `BudgetAccountant` — the name the recurring-release
/// scheduler uses for it.
#[derive(Debug, Clone)]
pub struct PrivacyBudget {
    /// The total as given (reported verbatim by [`Self::total`]).
    total: f64,
    /// The total in micro-ε units — the authoritative boundary.
    total_units: u128,
    /// Exact running total of all accepted charges, in micro-ε units.
    spent_units: u128,
    charges: Vec<BudgetCharge>,
}

impl PrivacyBudget {
    /// Creates a ledger with the given total ε.
    ///
    /// # Panics
    ///
    /// Panics if the total is not positive and finite.
    pub fn new(total_epsilon: f64) -> Self {
        let total_units = epsilon_units(total_epsilon)
            .unwrap_or_else(|_| panic!("total budget must be positive, got {total_epsilon}"));
        PrivacyBudget {
            total: total_epsilon,
            total_units,
            spent_units: 0,
            charges: Vec::new(),
        }
    }

    /// The budget the paper assumes for the systemic-risk deployment:
    /// ε_max = ln 2, i.e. no adversary may more than double its confidence
    /// in any fact about the inputs (§4.5).
    pub fn paper_annual_budget() -> Self {
        PrivacyBudget::new(2f64.ln())
    }

    /// Total ε available over the budget period.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// ε spent so far — an O(1) exact running total (the ledger is never
    /// re-summed, so a recurring-release run of 10⁶ charges pays 10⁶
    /// integer additions, not 10¹² float additions, and accumulates no
    /// drift against the boundary).
    pub fn spent(&self) -> f64 {
        self.spent_units as f64 * EPSILON_RESOLUTION
    }

    /// ε still available.
    pub fn remaining(&self) -> f64 {
        self.total_units.saturating_sub(self.spent_units) as f64 * EPSILON_RESOLUTION
    }

    /// Attempts to charge `epsilon` against the budget.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetError::Exhausted`] if the remaining budget is
    /// insufficient and [`BudgetError::InvalidCharge`] for non-positive,
    /// non-finite or sub-resolution ε.
    pub fn charge(&mut self, label: &str, epsilon: f64) -> Result<(), BudgetError> {
        let units = epsilon_units(epsilon)?;
        if self.spent_units + units > self.total_units {
            return Err(BudgetError::Exhausted {
                requested: epsilon,
                remaining: self.remaining(),
            });
        }
        self.spent_units += units;
        self.charges.push(BudgetCharge {
            label: label.to_string(),
            epsilon,
        });
        Ok(())
    }

    /// How many identical charges of `epsilon` fit in the *remaining*
    /// budget (on a fresh ledger, the paper's "≈3 runs per year"
    /// computation).
    ///
    /// Computed on the integer ledger, so the result always equals the
    /// number of [`Self::charge`] calls of the same `epsilon` that would
    /// succeed from the current state — including at floating-point
    /// boundaries like `max_queries(0.1)` on a 0.3 budget, and after
    /// earlier charges of other sizes.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetError::InvalidCharge`] for non-positive,
    /// non-finite or sub-resolution ε.
    pub fn max_queries(&self, epsilon: f64) -> Result<u32, BudgetError> {
        let units = epsilon_units(epsilon)?;
        let remaining_units = self.total_units - self.spent_units;
        Ok(u32::try_from(remaining_units / units).unwrap_or(u32::MAX))
    }

    /// The audit trail of recorded charges.
    pub fn charges(&self) -> &[BudgetCharge] {
        &self.charges
    }

    /// Resets the ledger (the paper's annual replenishment, justified by
    /// the banks' mandatory yearly disclosures).
    pub fn replenish(&mut self) {
        self.spent_units = 0;
        self.charges.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn charges_accumulate() {
        let mut budget = PrivacyBudget::new(1.0);
        budget.charge("q1", 0.3).unwrap();
        budget.charge("q2", 0.4).unwrap();
        assert!((budget.spent() - 0.7).abs() < 1e-12);
        assert!((budget.remaining() - 0.3).abs() < 1e-12);
        assert_eq!(budget.charges().len(), 2);
        assert_eq!(budget.charges()[0].label, "q1");
    }

    #[test]
    fn exhaustion_is_detected() {
        let mut budget = PrivacyBudget::new(0.5);
        budget.charge("big", 0.4).unwrap();
        let err = budget.charge("too much", 0.2).unwrap_err();
        assert!(matches!(err, BudgetError::Exhausted { .. }));
        assert!(err.to_string().contains("exhausted"));
        // The failed charge is not recorded.
        assert_eq!(budget.charges().len(), 1);
    }

    #[test]
    fn invalid_charges_rejected() {
        let mut budget = PrivacyBudget::new(1.0);
        assert!(matches!(
            budget.charge("zero", 0.0).unwrap_err(),
            BudgetError::InvalidCharge { .. }
        ));
        assert!(budget.charge("nan", f64::NAN).is_err());
        assert!(budget.charge("neg", -0.1).is_err());
        assert!(budget.charge("inf", f64::INFINITY).is_err());
        // Below half a resolution unit the charge cannot be represented.
        assert!(budget.charge("tiny", 1e-14).is_err());
        assert_eq!(budget.charges().len(), 0);
    }

    #[test]
    fn paper_budget_allows_three_egj_runs() {
        // §4.5: ε_max = ln 2, ε_query = 0.23 ⇒ 3 runs per year.
        let budget = PrivacyBudget::paper_annual_budget();
        assert_eq!(budget.max_queries(0.23).unwrap(), 3);
        assert!((budget.total() - std::f64::consts::LN_2).abs() < 1e-3);
    }

    #[test]
    fn replenish_restores_budget() {
        let mut budget = PrivacyBudget::new(1.0);
        budget.charge("q", 0.9).unwrap();
        budget.replenish();
        assert_eq!(budget.spent(), 0.0);
        budget.charge("q2", 0.9).unwrap();
    }

    #[test]
    fn boundary_charge_is_allowed() {
        let mut budget = PrivacyBudget::new(std::f64::consts::LN_2);
        for _ in 0..3 {
            budget.charge("run", 0.23).unwrap();
        }
        assert!(budget.charge("fourth", 0.23).is_err());
    }

    #[test]
    #[should_panic(expected = "total budget must be positive")]
    fn zero_total_panics() {
        let _ = PrivacyBudget::new(0.0);
    }

    #[test]
    fn max_queries_agrees_with_charge_at_the_fp_boundary() {
        // The satellite regression: 0.3 / 0.1 == 2.999… in f64, so a naive
        // floor reports 2 even though three sequential charges of 0.1
        // succeed.  The integer ledger reports 3 for both.
        let mut budget = PrivacyBudget::new(0.3);
        assert_eq!(budget.max_queries(0.1).unwrap(), 3);
        let mut successes = 0u32;
        while budget.charge("run", 0.1).is_ok() {
            successes += 1;
        }
        assert_eq!(successes, 3);
    }

    #[test]
    fn max_queries_rejects_invalid_epsilon_with_a_typed_error() {
        let budget = PrivacyBudget::new(1.0);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, 1e-14] {
            assert!(matches!(
                budget.max_queries(bad).unwrap_err(),
                BudgetError::InvalidCharge { .. }
            ));
        }
    }

    #[test]
    fn a_million_equal_charges_never_over_spend() {
        // The satellite regression for running-total drift: N charges of
        // total/N must never push `spent` past `total`, and the number of
        // accepted charges must match `max_queries` exactly — for N all
        // the way up to 10⁶.
        for n in [10u32, 1_000, 1_000_000] {
            let total = 0.7f64;
            let mut budget = PrivacyBudget::new(total);
            let per = total / n as f64;
            let expected = budget.max_queries(per).unwrap();
            let mut successes = 0u32;
            for _ in 0..n {
                if budget.charge("", per).is_err() {
                    break;
                }
                successes += 1;
            }
            // Quantisation may round the per-charge ε up by at most half a
            // unit, which can cost at most the final charge.
            assert!(
                successes == n || successes + 1 == n,
                "N={n}: only {successes} charges accepted"
            );
            assert_eq!(successes, expected.min(n), "N={n}");
            assert!(
                budget.spent() <= budget.total() + EPSILON_RESOLUTION,
                "N={n}: spent {} exceeds total {}",
                budget.spent(),
                budget.total()
            );
        }
    }

    proptest! {
        #[test]
        fn max_queries_always_equals_the_number_of_successful_charges(
            total_steps in 1u64..50_000,
            prior_percent in 0u64..100,
            eps_steps in 1u64..5_000,
        ) {
            // ε, the total and a prior charge are arbitrary multiples of
            // 10⁻⁵ — a sweep over the boundary-heavy region where f64
            // division and repeated addition disagree (0.3/0.1 is steps
            // 30_000/10_000).  The prior charge lands before predicting,
            // so the count must be of what remains, not of the total.
            let epsilon = eps_steps as f64 * 1e-5;
            let total = total_steps as f64 * 1e-5;
            prop_assume!(total >= epsilon);
            let prior_steps = total_steps * prior_percent / 100;
            let mut budget = PrivacyBudget::new(total);
            if prior_steps > 0 {
                budget.charge("prior", prior_steps as f64 * 1e-5).unwrap();
            }
            let predicted = budget.max_queries(epsilon).unwrap();
            let mut successes = 0u32;
            while successes <= predicted + 1 && budget.charge("p", epsilon).is_ok() {
                successes += 1;
            }
            prop_assert_eq!(successes, predicted);
            prop_assert!(budget.spent() <= budget.total() + EPSILON_RESOLUTION);
        }
    }
}
