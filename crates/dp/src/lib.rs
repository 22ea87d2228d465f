//! Differential privacy for the DStress reproduction.
//!
//! DStress uses differential privacy in two places:
//!
//! 1. **Output privacy** — the final aggregate (the Total Dollar Shortfall
//!    in the systemic-risk case study) is released through the Laplace
//!    mechanism; the guarantee is *dollar-differential privacy* (§4.1):
//!    two input data sets are similar if one can be obtained from the
//!    other by re-allocating at most `T` dollars in a single portfolio.
//! 2. **Edge privacy** — the bit-share sums revealed by the message
//!    transfer protocol are noised with an even two-sided geometric random
//!    variable, and Appendix B accounts the resulting ε-expenditure
//!    against a privacy budget.
//!
//! The crate provides the mechanisms ([`laplace`], [`geometric`]), the
//! budget ledger ([`budget`]), the §4.5 utility analysis ([`utility`]) and
//! the Appendix B edge-privacy accounting ([`edge_privacy`]).
//!
//! ## Example
//!
//! ```
//! use dstress_dp::LaplaceMechanism;
//! use dstress_math::rng::Xoshiro256;
//!
//! // The paper's running example: sensitivity 20, ε = 0.23.
//! let mechanism = LaplaceMechanism::new(20.0, 0.23);
//! assert!((mechanism.scale() - 20.0 / 0.23).abs() < 1e-9);
//!
//! let mut rng = Xoshiro256::new(9);
//! let noised = 1000.0 + mechanism.sample_noise(&mut rng);
//! assert!(noised.is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod edge_privacy;
pub mod geometric;
pub mod laplace;
pub mod utility;

pub use budget::{BudgetError, PrivacyBudget};
pub use edge_privacy::EdgePrivacyAccounting;
pub use geometric::TwoSidedGeometric;
pub use laplace::LaplaceMechanism;
pub use utility::UtilityAnalysis;
