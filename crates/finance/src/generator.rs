//! Synthetic financial-network generators.
//!
//! No dataset of real interbank linkages is publicly available — that is
//! the very problem DStress solves — so the paper (Appendix C) evaluates
//! on synthetic networks whose structure follows the empirical literature:
//! a small, densely connected *core* of large institutions surrounded by a
//! *periphery* of smaller banks each linked to one or two core banks
//! (Cocco et al. \[18\]).  This module generates that topology together
//! with balance sheets that respect a leverage bound `r`, plus shock
//! scenarios that reduce selected banks' assets.

use crate::network::{Exposure, FinancialNetwork};
use dstress_graph::VertexId;
use dstress_math::rng::DetRng;
use dstress_math::Fixed;

/// Parameters of the synthetic-network generators.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GeneratorConfig {
    /// Total number of banks.
    pub banks: usize,
    /// Number of core banks (core–periphery generator only).
    pub core_banks: usize,
    /// Public degree bound `D` of the generated graph.
    pub degree_bound: usize,
    /// Cash / external assets of a core bank, in money units.
    pub core_assets: f64,
    /// Cash / external assets of a peripheral bank.
    pub periphery_assets: f64,
    /// Typical size of a core–core exposure.
    pub core_exposure: f64,
    /// Typical size of a core–periphery exposure.
    pub periphery_exposure: f64,
    /// Regulatory leverage bound `r` (equity must be ≥ `r` × assets).
    pub leverage_bound: f64,
    /// Failure threshold as a fraction of a bank's initial valuation.
    pub threshold_fraction: f64,
    /// Failure penalty as a fraction of a bank's initial valuation.
    pub penalty_fraction: f64,
}

impl GeneratorConfig {
    /// The 50-bank two-tier network of Appendix C (10 core banks, the rest
    /// peripheral, each linked to one or two core banks).
    ///
    /// The balance-sheet sizing follows the core–periphery intuition of
    /// Cocco et al.: core banks are large and densely interlinked, but
    /// their equity cushion is thin relative to their interbank book
    /// (deposits owed to the periphery plus core–core exposures), so a
    /// severe shock to several core banks can cascade through the core,
    /// whereas peripheral shocks are absorbed.
    pub fn appendix_c() -> Self {
        GeneratorConfig {
            banks: 50,
            core_banks: 10,
            degree_bound: 20,
            core_assets: 80.0,
            periphery_assets: 25.0,
            core_exposure: 25.0,
            periphery_exposure: 6.0,
            leverage_bound: 0.05,
            threshold_fraction: 0.9,
            penalty_fraction: 0.25,
        }
    }

    /// A small configuration convenient for unit tests and examples.
    pub fn small(banks: usize, degree_bound: usize) -> Self {
        GeneratorConfig {
            banks,
            core_banks: (banks / 5).max(2),
            degree_bound,
            core_assets: 100.0,
            periphery_assets: 25.0,
            core_exposure: 25.0,
            periphery_exposure: 6.0,
            leverage_bound: 0.05,
            threshold_fraction: 0.9,
            penalty_fraction: 0.2,
        }
    }

    /// Debt a core bank owes to each attached peripheral bank ("deposits"),
    /// the asymmetry that makes the core the fragile tier.
    fn deposit_size(&self) -> f64 {
        self.periphery_exposure * 2.5
    }
}

/// Draws an exposure magnitude around `typical` (±10%).
fn jitter(typical: f64, rng: &mut dyn DetRng) -> f64 {
    typical * (0.9 + 0.2 * rng.next_f64())
}

/// Fills in the EGJ-specific balance-sheet fields (initial valuations,
/// thresholds, penalties, holdings) once the topology and debts exist.
fn finish_balance_sheets(net: &mut FinancialNetwork, config: &GeneratorConfig) {
    // Initial valuation: the no-shock, no-penalty EGJ fixpoint
    // value_i = base_i + Σ_j holding(j→i)·value_j, approximated by a few
    // Jacobi sweeps (holdings sum to well under 1, so this converges fast).
    let n = net.bank_count();
    let mut values: Vec<f64> = (0..n)
        .map(|i| net.bank(VertexId(i)).external_assets.to_f64())
        .collect();
    for _ in 0..30 {
        let mut next = vec![0.0; n];
        for (i, slot) in next.iter_mut().enumerate() {
            let v = VertexId(i);
            let mut value = net.bank(v).external_assets.to_f64();
            for &holder in net.graph().in_neighbors(v) {
                // Edge (holder → v) means v holds equity of `holder`.
                let holding = net.exposure(holder, v).holding.to_f64();
                value += holding * values[holder.0];
            }
            *slot = value;
        }
        values = next;
    }
    for (i, &value) in values.iter().enumerate().take(n) {
        let v = VertexId(i);
        let valuation = Fixed::from_f64(value);
        let bank = net.bank_mut(v);
        bank.initial_valuation = valuation;
        bank.threshold = Fixed::from_f64(values[i] * config.threshold_fraction);
        bank.penalty = Fixed::from_f64(values[i] * config.penalty_fraction);
    }
}

/// Generates a core–periphery network in the style of Cocco et al. \[18\]:
/// a densely connected core of large banks and peripheral banks attached
/// to one or two core banks.
pub fn core_periphery(config: &GeneratorConfig, rng: &mut dyn DetRng) -> FinancialNetwork {
    assert!(config.core_banks >= 2 && config.core_banks < config.banks);
    let mut net = FinancialNetwork::new(config.banks, config.degree_bound);

    // Balance sheets: core banks are an order of magnitude larger.
    for i in 0..config.banks {
        let is_core = i < config.core_banks;
        let assets = if is_core {
            jitter(config.core_assets, rng)
        } else {
            jitter(config.periphery_assets, rng)
        };
        let bank = net.bank_mut(VertexId(i));
        bank.cash = Fixed::from_f64(assets);
        bank.external_assets = Fixed::from_f64(assets);
    }

    // Densely connected core: bidirectional debts between most core pairs.
    for a in 0..config.core_banks {
        for b in (a + 1)..config.core_banks {
            if rng.next_f64() < 0.8 {
                let _ = net.add_exposure(
                    VertexId(a),
                    VertexId(b),
                    Exposure {
                        debt: Fixed::from_f64(jitter(config.core_exposure, rng)),
                        holding: Fixed::from_f64(0.05 + 0.05 * rng.next_f64()),
                    },
                );
                let _ = net.add_exposure(
                    VertexId(b),
                    VertexId(a),
                    Exposure {
                        debt: Fixed::from_f64(jitter(config.core_exposure, rng)),
                        holding: Fixed::from_f64(0.05 + 0.05 * rng.next_f64()),
                    },
                );
            }
        }
    }

    // Periphery: each peripheral bank is attached to one or two core banks
    // (spread round-robin so no core bank collects a disproportionate
    // deposit base).  The peripheral bank lends a small loan to the core
    // bank and holds a larger deposit there: the deposits are what make
    // the core tier fragile.
    for p in config.core_banks..config.banks {
        let links = 1 + (rng.next_below(2) as usize);
        for link in 0..links {
            // Spread attachments evenly across the core so no single core
            // bank accumulates a disproportionate deposit base.
            let core = (p + link * 7) % config.core_banks;
            let _ = net.add_exposure(
                VertexId(p),
                VertexId(core),
                Exposure {
                    debt: Fixed::from_f64(jitter(config.periphery_exposure, rng)),
                    holding: Fixed::from_f64(0.02 + 0.03 * rng.next_f64()),
                },
            );
            let _ = net.add_exposure(
                VertexId(core),
                VertexId(p),
                Exposure {
                    debt: Fixed::from_f64(jitter(config.deposit_size(), rng)),
                    holding: Fixed::from_f64(0.02 + 0.03 * rng.next_f64()),
                },
            );
        }
    }

    finish_balance_sheets(&mut net, config);
    net
}

/// Applies a shock: each bank in `banks` loses `severity` (in `[0, 1]`) of
/// its cash and external assets.
pub fn apply_shock(net: &mut FinancialNetwork, banks: &[VertexId], severity: f64) {
    assert!(
        (0.0..=1.0).contains(&severity),
        "severity must be in [0, 1]"
    );
    let keep = Fixed::from_f64(1.0 - severity);
    for &v in banks {
        let bank = net.bank_mut(v);
        bank.cash = bank.cash * keep;
        bank.external_assets = bank.external_assets * keep;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstress_math::rng::Xoshiro256;

    #[test]
    fn core_periphery_structure() {
        let config = GeneratorConfig::appendix_c();
        let mut rng = Xoshiro256::new(1);
        let net = core_periphery(&config, &mut rng);
        assert_eq!(net.bank_count(), 50);
        // Core banks are larger and better connected than peripheral ones.
        let core_degree: f64 = (0..10)
            .map(|i| net.graph().out_degree(VertexId(i)) as f64)
            .sum::<f64>()
            / 10.0;
        let periphery_degree: f64 = (10..50)
            .map(|i| net.graph().out_degree(VertexId(i)) as f64)
            .sum::<f64>()
            / 40.0;
        assert!(core_degree > 2.0 * periphery_degree);
        let core_cash = net.bank(VertexId(0)).cash.to_f64();
        let periphery_cash = net.bank(VertexId(40)).cash.to_f64();
        assert!(core_cash > 2.0 * periphery_cash);
        assert!(net.graph().max_degree() <= config.degree_bound);
    }

    #[test]
    fn balance_sheets_are_complete() {
        let config = GeneratorConfig::small(20, 8);
        let mut rng = Xoshiro256::new(2);
        let net = core_periphery(&config, &mut rng);
        for v in net.graph().vertices() {
            let b = net.bank(v);
            assert!(b.cash.to_f64() > 0.0);
            assert!(b.initial_valuation.to_f64() >= b.external_assets.to_f64());
            assert!(b.threshold < b.initial_valuation);
            assert!(b.penalty.to_f64() > 0.0);
        }
        // Values stay within the default circuit encoding range.
        assert!(
            net.max_value().to_f64() < crate::metrics::CircuitParams::default_params().max_value()
        );
    }

    #[test]
    fn generated_networks_respect_leverage() {
        let config = GeneratorConfig::appendix_c();
        let mut rng = Xoshiro256::new(3);
        let net = core_periphery(&config, &mut rng);
        // The un-shocked network is solvent and (almost) every bank meets
        // the configured leverage bound; a couple of violations from edge
        // jitter are tolerated.
        assert!(net.leverage_violations(config.leverage_bound).len() <= 3);
        // And nobody is insolvent before a shock is applied.
        let report = crate::eisenberg_noe::clearing_vector(&net, 50);
        assert!(
            report.total_shortfall < 1e-6,
            "pre-shock TDS = {}",
            report.total_shortfall
        );
    }

    #[test]
    fn shocks_reduce_assets() {
        let config = GeneratorConfig::small(10, 6);
        let mut rng = Xoshiro256::new(6);
        let mut net = core_periphery(&config, &mut rng);
        let before = net.bank(VertexId(0)).cash;
        apply_shock(&mut net, &[VertexId(0)], 0.75);
        let after = net.bank(VertexId(0)).cash;
        assert!((after.to_f64() - before.to_f64() * 0.25).abs() < 1e-6);
        // Unshocked banks are untouched.
        assert_eq!(
            net.bank(VertexId(1)).cash,
            net.bank(VertexId(1)).external_assets
        );
    }

    #[test]
    fn generators_are_deterministic() {
        let config = GeneratorConfig::appendix_c();
        let a = core_periphery(&config, &mut Xoshiro256::new(9));
        let b = core_periphery(&config, &mut Xoshiro256::new(9));
        assert_eq!(a.graph().edge_count(), b.graph().edge_count());
        assert_eq!(a.bank(VertexId(7)).cash, b.bank(VertexId(7)).cash);
    }
}
