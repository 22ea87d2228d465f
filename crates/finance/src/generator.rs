//! Synthetic financial-network generators.
//!
//! No dataset of real interbank linkages is publicly available — that is
//! the very problem DStress solves — so the paper (Appendix C) evaluates
//! on synthetic networks whose structure follows the empirical literature:
//! a small, densely connected *core* of large institutions surrounded by a
//! *periphery* of smaller banks each linked to one or two core banks
//! (Cocco et al. \[18\]).  This module generates that topology, in memory
//! or as a stream, together with balance sheets that respect a leverage
//! bound `r`, plus shock scenarios that reduce selected banks' assets.

use crate::network::{Exposure, FinancialNetwork};
use dstress_graph::stream::EdgeStream;
use dstress_graph::VertexId;
use dstress_math::rng::{splitmix64_finalize, DetRng};
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

/// Parameters of the *streaming* core–periphery topology generator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CorePeripheryStreamConfig {
    /// Total number of banks.
    pub banks: usize,
    /// Number of core banks.
    pub core_banks: usize,
    /// Public degree bound `D`; every emitted edge respects it.
    pub degree_bound: usize,
    /// Probability that a core pair is linked (both directions).
    pub core_link_probability: f64,
    /// Seed of the hash-derived coins.
    pub seed: u64,
}

impl CorePeripheryStreamConfig {
    /// A configuration sized for large `banks` under a bounded `D`.
    ///
    /// The core must be big enough that the periphery's ~1.5 loans per
    /// bank fit into the cores' in-capacity next to the core–core links
    /// (`core ≳ 2.2 · banks / D`, with ~√banks as the floor for small
    /// systems), and the core-pair link probability shrinks with the
    /// core so the expected core–core degree stays near `D / 4`.  At
    /// scale a dense 80%-linked core is impossible under a public degree
    /// bound — the density has to fall as the core grows; this keeps the
    /// two-tier shape (big, busy core; sparse periphery) at any size.
    ///
    /// # Panics
    ///
    /// Panics for fewer than 3 banks: a two-tier topology needs at least
    /// a 2-bank core plus one peripheral bank.
    pub fn scaled(banks: usize, degree_bound: usize, seed: u64) -> Self {
        assert!(
            banks >= 3,
            "a core-periphery topology needs at least 3 banks (2 core + 1 periphery)"
        );
        let sqrt_floor = (banks as f64).sqrt().round() as usize;
        let capacity_floor = (2.2 * banks as f64 / degree_bound.max(1) as f64).ceil() as usize;
        let core_banks = sqrt_floor.max(capacity_floor).clamp(2, banks - 1);
        let dense = degree_bound as f64 / (4.0 * core_banks.max(1) as f64);
        CorePeripheryStreamConfig {
            banks,
            core_banks,
            degree_bound,
            core_link_probability: dense.min(0.8),
            seed,
        }
    }
}

/// Emission schedule of [`CorePeripheryStream`].
#[derive(Clone, Copy, Debug)]
enum CpStage {
    /// Deciding core pair `(a, b)`, `a < b`.
    CorePairs { a: usize, b: usize },
    /// Attaching peripheral bank `p`, link number `link`.
    Periphery { p: usize, link: usize },
    /// All edges emitted.
    Done,
}

/// Streaming core–periphery topology in the style of Cocco et al. \[18\]
/// at arbitrary scale: a densely linked core and peripheral banks
/// attached to one or two core banks (a loan toward the core and a
/// deposit back), emitted edge by edge with `O(V)` state.
///
/// Every decision is a pure hash of `(seed, endpoints)`
/// ([`dstress_math::rng::splitmix64_finalize`] chain), so the stream
/// replays identically after [`EdgeStream::restart`] without storing any
/// edges.  Per-vertex degree-capacity counters clamp the topology to the
/// public bound `D`: an attachment whose target is saturated probes the
/// next core bank, and drops the link if the whole core is saturated —
/// the hub-saturation behaviour a bounded-degree deployment actually has.
pub struct CorePeripheryStream {
    config: CorePeripheryStreamConfig,
    out_used: Vec<u32>,
    in_used: Vec<u32>,
    /// Cores already attached by the in-progress peripheral bank.
    chosen: Vec<usize>,
    /// The reverse edge of a bidirectional pair, queued for the next call.
    pending: Option<(usize, usize)>,
    stage: CpStage,
}

/// A uniform coin in `[0, 1)` derived from `(seed, salt, a, b)` by a
/// splitmix64 finalizer chain.
fn hash_coin(seed: u64, salt: u64, a: u64, b: u64) -> f64 {
    let mut h = splitmix64_finalize(seed ^ salt);
    h = splitmix64_finalize(h ^ a);
    h = splitmix64_finalize(h ^ b);
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Domain salts of the stream's hash coins.
const SALT_CORE_PAIR: u64 = 0x636F_7265_7061_6972; // "corepair"
const SALT_LINK_COUNT: u64 = 0x6C69_6E6B_636E_7400; // "linkcnt"

impl CorePeripheryStream {
    /// Creates a stream over the given configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= core_banks < banks`.
    pub fn new(config: CorePeripheryStreamConfig) -> Self {
        assert!(
            config.core_banks >= 2 && config.core_banks < config.banks,
            "need 2 <= core_banks < banks"
        );
        CorePeripheryStream {
            config,
            out_used: vec![0; config.banks],
            in_used: vec![0; config.banks],
            chosen: Vec::new(),
            pending: None,
            stage: CpStage::CorePairs { a: 0, b: 1 },
        }
    }

    /// Whether a directed edge `(from, to)` still fits under the bound.
    fn fits(&self, from: usize, to: usize) -> bool {
        self.out_used[from] < self.config.degree_bound as u32
            && self.in_used[to] < self.config.degree_bound as u32
    }

    fn emit(&mut self, from: usize, to: usize) -> Option<(VertexId, VertexId)> {
        self.out_used[from] += 1;
        self.in_used[to] += 1;
        Some((VertexId(from), VertexId(to)))
    }

    /// Advances `(a, b)` over the upper triangle of the core.
    fn next_core_pair(&self, a: usize, b: usize) -> CpStage {
        let c = self.config.core_banks;
        if b + 1 < c {
            CpStage::CorePairs { a, b: b + 1 }
        } else if a + 2 < c {
            CpStage::CorePairs { a: a + 1, b: a + 2 }
        } else {
            CpStage::Periphery { p: c, link: 0 }
        }
    }
}

impl EdgeStream for CorePeripheryStream {
    fn vertex_count(&self) -> usize {
        self.config.banks
    }

    fn degree_bound(&self) -> usize {
        self.config.degree_bound
    }

    fn next_edge(&mut self) -> Option<(VertexId, VertexId)> {
        if let Some((from, to)) = self.pending.take() {
            if self.fits(from, to) {
                return self.emit(from, to);
            }
        }
        loop {
            match self.stage {
                CpStage::CorePairs { a, b } => {
                    self.stage = self.next_core_pair(a, b);
                    let seed = self.config.seed;
                    let linked = hash_coin(seed, SALT_CORE_PAIR, a as u64, b as u64)
                        < self.config.core_link_probability;
                    if linked {
                        if self.fits(b, a) {
                            self.pending = Some((b, a));
                        }
                        if self.fits(a, b) {
                            return self.emit(a, b);
                        }
                        if let Some((from, to)) = self.pending.take() {
                            return self.emit(from, to);
                        }
                    }
                }
                CpStage::Periphery { p, link } => {
                    if p >= self.config.banks {
                        self.stage = CpStage::Done;
                        return None;
                    }
                    let links = 1
                        + (splitmix64_finalize(self.config.seed ^ SALT_LINK_COUNT ^ p as u64) & 1)
                            as usize;
                    if link >= links {
                        self.stage = CpStage::Periphery { p: p + 1, link: 0 };
                        self.chosen.clear();
                        continue;
                    }
                    self.stage = CpStage::Periphery { p, link: link + 1 };
                    // Spread attachments round-robin over the core,
                    // probing past saturated or repeated cores.
                    let c = self.config.core_banks;
                    let base = (p + link * 7) % c;
                    let mut target = None;
                    for probe in 0..c {
                        let core = (base + probe) % c;
                        if !self.chosen.contains(&core) && self.fits(p, core) {
                            target = Some(core);
                            break;
                        }
                    }
                    let Some(core) = target else {
                        // The whole core is saturated for this bank: the
                        // link is clamped away.
                        continue;
                    };
                    self.chosen.push(core);
                    // Deposit back from the core bank, capacity allowing.
                    if self.fits(core, p) {
                        self.pending = Some((core, p));
                    }
                    return self.emit(p, core);
                }
                CpStage::Done => return None,
            }
        }
    }

    fn restart(&mut self) {
        self.out_used.iter_mut().for_each(|u| *u = 0);
        self.in_used.iter_mut().for_each(|u| *u = 0);
        self.chosen.clear();
        self.pending = None;
        self.stage = CpStage::CorePairs { a: 0, b: 1 };
    }
}

/// Builds a [`FinancialNetwork`] (topology *and* balance sheets) from the
/// streaming core–periphery generator: the graph comes edge by edge from
/// [`CorePeripheryStream`], exposures are sized by tier exactly as
/// [`core_periphery`] sizes them, and the EGJ fields are completed by the
/// same fixpoint sweep.  Intended for end-to-end runs of the streamed
/// topology at sizes where holding exposures is still fine; the
/// topology-only stream is what the scale sweeps feed to the engine.
pub fn core_periphery_streamed(
    stream_config: &CorePeripheryStreamConfig,
    config: &GeneratorConfig,
    rng: &mut dyn DetRng,
) -> FinancialNetwork {
    let mut net = FinancialNetwork::new(stream_config.banks, stream_config.degree_bound);
    let core = stream_config.core_banks;
    for i in 0..stream_config.banks {
        let assets = if i < core {
            jitter(config.core_assets, rng)
        } else {
            jitter(config.periphery_assets, rng)
        };
        let bank = net.bank_mut(VertexId(i));
        bank.cash = Fixed::from_f64(assets);
        bank.external_assets = Fixed::from_f64(assets);
    }
    let mut stream = CorePeripheryStream::new(*stream_config);
    while let Some((from, to)) = stream.next_edge() {
        let debt = if from.0 < core && to.0 < core {
            jitter(config.core_exposure, rng)
        } else if from.0 < core {
            // A core bank's deposit owed to a peripheral bank.
            jitter(config.deposit_size(), rng)
        } else {
            jitter(config.periphery_exposure, rng)
        };
        net.add_exposure(
            from,
            to,
            Exposure {
                debt: Fixed::from_f64(debt),
                holding: Fixed::from_f64(0.02 + 0.03 * rng.next_f64()),
            },
        )
        .expect("stream edges respect the graph invariants");
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

    fn collect_stream(stream: &mut CorePeripheryStream) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        while let Some((a, b)) = stream.next_edge() {
            edges.push((a.0, b.0));
        }
        edges
    }

    #[test]
    fn streaming_core_periphery_is_deterministic_and_restartable() {
        let config = CorePeripheryStreamConfig::scaled(300, 24, 0xC0C0);
        let mut a = CorePeripheryStream::new(config);
        let mut b = CorePeripheryStream::new(config);
        let edges = collect_stream(&mut a);
        assert_eq!(edges, collect_stream(&mut b));
        a.restart();
        assert_eq!(edges, collect_stream(&mut a), "restart must replay");
        assert!(!edges.is_empty());
        // A different seed changes the topology.
        let other = CorePeripheryStreamConfig::scaled(300, 24, 0xC0C1);
        assert_ne!(edges, collect_stream(&mut CorePeripheryStream::new(other)));
    }

    #[test]
    fn streaming_core_periphery_has_two_tiers_under_the_bound() {
        let config = CorePeripheryStreamConfig::scaled(600, 32, 7);
        let graph =
            dstress_graph::Graph::from_edge_stream(&mut CorePeripheryStream::new(config)).unwrap();
        assert!(graph.is_csr());
        assert_eq!(graph.vertex_count(), 600);
        assert!(graph.max_degree() <= 32, "degree clamp");
        // Core banks are far better connected than peripheral ones.
        let c = config.core_banks;
        let core_degree: f64 = (0..c)
            .map(|i| (graph.out_degree(VertexId(i)) + graph.in_degree(VertexId(i))) as f64)
            .sum::<f64>()
            / c as f64;
        let periphery_degree: f64 = (c..600)
            .map(|i| (graph.out_degree(VertexId(i)) + graph.in_degree(VertexId(i))) as f64)
            .sum::<f64>()
            / (600 - c) as f64;
        assert!(
            core_degree > 2.0 * periphery_degree,
            "core {core_degree}, periphery {periphery_degree}"
        );
        // Every peripheral bank that found capacity lends toward the core.
        let attached = (c..600)
            .filter(|&i| graph.out_degree(VertexId(i)) > 0)
            .count();
        assert!(attached * 10 >= (600 - c) * 9, "attached {attached}");
    }

    #[test]
    fn streamed_network_carries_complete_balance_sheets() {
        let stream_config = CorePeripheryStreamConfig {
            banks: 40,
            core_banks: 6,
            degree_bound: 16,
            core_link_probability: 0.8,
            seed: 5,
        };
        let config = GeneratorConfig::small(40, 16);
        let mut rng = Xoshiro256::new(8);
        let net = core_periphery_streamed(&stream_config, &config, &mut rng);
        assert_eq!(net.bank_count(), 40);
        assert!(net.graph().max_degree() <= 16);
        for v in net.graph().vertices() {
            let b = net.bank(v);
            assert!(b.cash.to_f64() > 0.0);
            assert!(b.initial_valuation.to_f64() >= b.external_assets.to_f64());
            assert!(b.threshold < b.initial_valuation);
        }
        // The exposure tiering matches the materialised generator's shape:
        // core banks are the big ones.
        assert!(net.bank(VertexId(0)).cash.to_f64() > 2.0 * net.bank(VertexId(39)).cash.to_f64());
        // The clearing algorithms accept the streamed network.
        let report = crate::eisenberg_noe::clearing_vector(&net, 30);
        assert!(report.total_shortfall.is_finite());
    }
}
