//! The Elliott–Golub–Jackson contagion model (§4.3).
//!
//! Banks hold equity cross-holdings in each other, so a bank's valuation
//! depends on the valuations of the banks it owns pieces of.  When a
//! valuation drops below a bank-specific threshold the bank is
//! "distressed" and suffers an additional discontinuous penalty, which can
//! drag further banks below their thresholds.  Unlike Eisenberg–Noe the
//! fixpoint is not unique and convergence is only monotone, so the paper
//! runs a bounded number of iterations.
//!
//! As with Eisenberg–Noe, three implementations are provided and tested
//! against each other: a full-network fixpoint solver
//! ([`egj_fixpoint`]), the plaintext vertex program of Figure 2(b)
//! ([`ElliottGolubJacksonProgram`]) and the circuit encoding executed by
//! the DStress runtime ([`ElliottGolubJacksonSecure`]).

use crate::metrics::{sensitivity_bound_egj, CircuitParams, ShortfallReport};
use crate::network::FinancialNetwork;
use dstress_circuit::builder::{encode_word, CircuitBuilder};
use dstress_circuit::spec::{Interval, ProgramSpec, RangePremise, SensitivityModel, WordSpec};
use dstress_circuit::Circuit;
use dstress_core::SecureVertexProgram;
use dstress_graph::{Graph, VertexId, VertexProgram};
use dstress_math::Fixed;

/// Runs the EGJ fixpoint on the full network for `iterations` sweeps and
/// returns the shortfall report (threshold minus valuation for every bank
/// that ends below its threshold).
pub fn egj_fixpoint(net: &FinancialNetwork, iterations: u32) -> ShortfallReport {
    let n = net.bank_count();
    let graph = net.graph();
    let mut values: Vec<f64> = (0..n)
        .map(|i| net.bank(VertexId(i)).initial_valuation.to_f64())
        .collect();
    for _ in 0..iterations {
        let mut next = vec![0.0; n];
        for (i, slot) in next.iter_mut().enumerate() {
            let v = VertexId(i);
            let bank = net.bank(v);
            let mut value = bank.external_assets.to_f64();
            for &j in graph.in_neighbors(v) {
                // Edge (j → v): v holds a fraction of j's equity.
                let holding = net.exposure(j, v).holding.to_f64();
                value += holding * values[j.0];
            }
            if value < bank.threshold.to_f64() {
                value -= bank.penalty.to_f64();
            }
            *slot = value.max(0.0);
        }
        values = next;
    }
    let per_bank: Vec<f64> = (0..n)
        .map(|i| {
            let bank = net.bank(VertexId(i));
            let threshold = bank.threshold.to_f64();
            if values[i] < threshold {
                threshold - values[i]
            } else {
                0.0
            }
        })
        .collect();
    ShortfallReport::from_per_bank(per_bank)
}

/// Per-vertex state of the plaintext vertex program: the bank's current
/// valuation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EgjState {
    /// Current valuation.
    pub value: Fixed,
}

/// The Elliott–Golub–Jackson model as a plaintext vertex program
/// (Figure 2(b)).
pub struct ElliottGolubJacksonProgram<'a> {
    /// The financial network being analysed.
    pub network: &'a FinancialNetwork,
    /// Number of iterations to run.
    pub iterations: u32,
    /// Regulatory leverage bound `r`.
    pub leverage_bound: f64,
}

impl VertexProgram for ElliottGolubJacksonProgram<'_> {
    type State = EgjState;
    type Message = Fixed;

    fn init(&self, v: VertexId) -> EgjState {
        EgjState {
            value: self.network.bank(v).initial_valuation,
        }
    }

    fn no_op(&self) -> Fixed {
        Fixed::ZERO
    }

    fn update(&self, v: VertexId, _state: &EgjState, incoming: &[(VertexId, Fixed)]) -> EgjState {
        let graph = self.network.graph();
        let bank = self.network.bank(v);
        let mut value = bank.external_assets;
        for &j in graph.in_neighbors(v) {
            let holding = self.network.exposure(j, v).holding;
            let discount = incoming
                .iter()
                .find(|(from, _)| *from == j)
                .map(|(_, m)| *m)
                .unwrap_or(Fixed::ZERO);
            let neighbor_value = (Fixed::ONE - discount) * self.network.bank(j).initial_valuation;
            value += holding * neighbor_value;
        }
        if value < bank.threshold {
            value -= bank.penalty;
        }
        EgjState {
            value: value.max(Fixed::ZERO),
        }
    }

    fn message(&self, v: VertexId, state: &EgjState, _to: VertexId) -> Fixed {
        let orig = self.network.bank(v).initial_valuation;
        if orig.is_zero() || state.value >= orig {
            Fixed::ZERO
        } else {
            Fixed::ONE - state.value / orig
        }
    }

    fn aggregate(&self, graph: &Graph, states: &[EgjState]) -> f64 {
        graph
            .vertices()
            .map(|v| {
                let threshold = self.network.bank(v).threshold.to_f64();
                let value = states[v.0].value.to_f64();
                if value < threshold {
                    threshold - value
                } else {
                    0.0
                }
            })
            .sum()
    }

    fn iterations(&self) -> u32 {
        self.iterations
    }

    fn sensitivity(&self) -> f64 {
        sensitivity_bound_egj(self.leverage_bound)
    }
}

/// The Elliott–Golub–Jackson model as Boolean circuits for the DStress
/// runtime.
///
/// State layout (fixed-point words of `params.word_bits` bits):
/// `[base, origVal, value, threshold, penalty,
///   holdings_in[0..D], neighborOrigVal_in[0..D]]`.
/// Messages carry the sender's valuation discount in `[0, 1]`.
pub struct ElliottGolubJacksonSecure<'a> {
    /// The financial network being analysed.
    pub network: &'a FinancialNetwork,
    /// Fixed-point encoding parameters.
    pub params: CircuitParams,
    /// Number of iterations to run.
    pub iterations: u32,
    /// Regulatory leverage bound `r`.
    pub leverage_bound: f64,
}

impl ElliottGolubJacksonSecure<'_> {
    fn degree_bound(&self) -> usize {
        self.network.graph().degree_bound()
    }
}

impl SecureVertexProgram for ElliottGolubJacksonSecure<'_> {
    fn state_bits(&self) -> u32 {
        (5 + 2 * self.degree_bound() as u32) * self.params.word_bits
    }

    fn message_bits(&self) -> u32 {
        self.params.word_bits
    }

    fn aggregate_bits(&self) -> u32 {
        32
    }

    fn iterations(&self) -> u32 {
        self.iterations
    }

    fn sensitivity(&self) -> f64 {
        sensitivity_bound_egj(self.leverage_bound)
    }

    fn encode_initial_state(&self, graph: &Graph, v: VertexId) -> Vec<bool> {
        let w = self.params.word_bits;
        let d = self.degree_bound();
        let bank = self.network.bank(v);
        let mut bits = Vec::with_capacity(self.state_bits() as usize);
        bits.extend(encode_word(self.params.encode(bank.external_assets), w));
        bits.extend(encode_word(self.params.encode(bank.initial_valuation), w));
        bits.extend(encode_word(self.params.encode(bank.initial_valuation), w)); // value
        bits.extend(encode_word(self.params.encode(bank.threshold), w));
        bits.extend(encode_word(self.params.encode(bank.penalty), w));
        // Holdings of in-neighbours' equity, in slot order.
        for slot in 0..d {
            let value = graph
                .in_neighbors(v)
                .get(slot)
                .map(|&from| self.params.encode(self.network.exposure(from, v).holding))
                .unwrap_or(0);
            bits.extend(encode_word(value, w));
        }
        // In-neighbours' original valuations, in slot order.
        for slot in 0..d {
            let value = graph
                .in_neighbors(v)
                .get(slot)
                .map(|&from| {
                    self.params
                        .encode(self.network.bank(from).initial_valuation)
                })
                .unwrap_or(0);
            bits.extend(encode_word(value, w));
        }
        bits
    }

    fn update_circuit(&self, degree_bound: usize) -> Circuit {
        let w = self.params.word_bits;
        let f = self.params.frac_bits;
        let mut b = CircuitBuilder::new();

        let base = b.input_word(w);
        let orig_val = b.input_word(w);
        let _value_old = b.input_word(w);
        let threshold = b.input_word(w);
        let penalty = b.input_word(w);
        let holdings: Vec<_> = (0..degree_bound).map(|_| b.input_word(w)).collect();
        let neighbor_orig: Vec<_> = (0..degree_bound).map(|_| b.input_word(w)).collect();
        let messages: Vec<_> = (0..degree_bound).map(|_| b.input_word(w)).collect();

        let one = b.const_word(1 << f, w);
        let zero = b.const_word(0, w);

        // value = base + Σ_d holdings[d] · (1 − discount[d]) · neighborOrig[d]
        let mut value = base.clone();
        for ((holding, orig), msg) in holdings
            .iter()
            .zip(neighbor_orig.iter())
            .zip(messages.iter())
        {
            let kept = b.sub(&one, msg);
            let neighbor_value = b.mul_fixed(&kept, orig, f);
            let contribution = b.mul_fixed(holding, &neighbor_value, f);
            value = b.add(&value, &contribution);
        }

        // If value < threshold, subtract the penalty (floored at zero).
        let distressed = b.lt_unsigned(&value, &threshold);
        let can_pay = b.lt_unsigned(&value, &penalty);
        let after_penalty_raw = b.sub(&value, &penalty);
        let after_penalty = b.mux_word(can_pay, &zero, &after_penalty_raw);
        let new_value = b.mux_word(distressed, &after_penalty, &value);

        // Outgoing discount: clamp(1 − value / origVal, 0, 1) = 1 − the
        // capped ratio, on f + 1 bits (a zero origVal discounts nothing).
        let ratio = b.ratio_capped(&new_value, &orig_val, f);
        let one_narrow = b.const_word(1 << f, f + 1);
        let discount = b.sub(&one_narrow, &ratio);
        let discount = b.zero_extend(&discount, w);

        // New state: base, origVal, value, threshold, penalty, holdings,
        // neighbour originals.
        b.output_word(&base);
        b.output_word(&orig_val);
        b.output_word(&new_value);
        b.output_word(&threshold);
        b.output_word(&penalty);
        for h in &holdings {
            b.output_word(h);
        }
        for o in &neighbor_orig {
            b.output_word(o);
        }
        for _ in 0..degree_bound {
            b.output_word(&discount);
        }
        b.build().expect("builder circuits are well formed")
    }

    fn aggregation_circuit(&self, vertices: usize) -> Circuit {
        let w = self.params.word_bits;
        let d = self.degree_bound();
        let words_per_state = 5 + 2 * d;
        let mut b = CircuitBuilder::new();
        let mut total = b.const_word(0, 32);
        let zero = b.const_word(0, w);
        for _ in 0..vertices {
            let state: Vec<_> = (0..words_per_state).map(|_| b.input_word(w)).collect();
            let value = &state[2];
            let threshold = &state[3];
            let below = b.lt_unsigned(value, threshold);
            let gap = b.sub(threshold, value);
            let shortfall = b.mux_word(below, &gap, &zero);
            let wide = b.zero_extend(&shortfall, 32);
            total = b.add(&total, &wide);
        }
        b.output_word(&total);
        b.build().expect("builder circuits are well formed")
    }

    fn decode_aggregate(&self, bits: &[bool]) -> f64 {
        self.params
            .decode(dstress_circuit::builder::decode_word(bits))
    }

    fn analysis_spec(&self, degree_bound: usize) -> ProgramSpec {
        let w = self.params.word_bits;
        let f = self.params.frac_bits;
        let one = 1i128 << f;
        let net = self.network;
        let graph = net.graph();
        let mut base_hi = 0i128;
        let mut orig_hi = 0i128;
        let mut threshold_hi = 0i128;
        let mut penalty_hi = 0i128;
        let mut holding_hi = 0i128;
        for v in graph.vertices() {
            let bank = net.bank(v);
            base_hi = base_hi.max(self.params.encode(bank.external_assets) as i128);
            orig_hi = orig_hi.max(self.params.encode(bank.initial_valuation) as i128);
            threshold_hi = threshold_hi.max(self.params.encode(bank.threshold) as i128);
            penalty_hi = penalty_hi.max(self.params.encode(bank.penalty) as i128);
            for &to in graph.out_neighbors(v) {
                holding_hi =
                    holding_hi.max(self.params.encode(net.exposure(v, to).holding) as i128);
            }
        }
        // A valuation starts at origVal and is re-derived every round as
        // base + Σ_d holding·(1 − discount)·neighborOrig, each product
        // truncated at `f` fractional bits.
        let contribution_hi = (holding_hi * orig_hi) >> f;
        let value_hi = orig_hi.max(base_hi + degree_bound as i128 * contribution_hi);
        let mut state_words = vec![
            WordSpec::private("base", w, Interval::new(0, base_hi)),
            WordSpec::private("orig_val", w, Interval::new(0, orig_hi)),
            WordSpec::private("value", w, Interval::new(0, value_hi)),
            WordSpec::private("threshold", w, Interval::new(0, threshold_hi)),
            WordSpec::private("penalty", w, Interval::new(0, penalty_hi)),
        ];
        for d in 0..degree_bound {
            state_words.push(WordSpec::private(
                &format!("holding_in[{d}]"),
                w,
                Interval::new(0, holding_hi),
            ));
        }
        for d in 0..degree_bound {
            state_words.push(WordSpec::private(
                &format!("neighbor_orig[{d}]"),
                w,
                Interval::new(0, orig_hi),
            ));
        }
        ProgramSpec {
            name: "elliott-golub-jackson".to_string(),
            state_words,
            message_words: vec![WordSpec::private("discount", w, Interval::new(0, one))],
            sensitivity_model: SensitivityModel::ExternalLemma {
                lemma: format!(
                    "Hemenway–Khanna (§4.4): under the regulatory leverage bound \
                     r = {}, re-allocating T dollars moves the \
                     Elliott–Golub–Jackson total dollar shortfall by at most \
                     2T/r, provided every reported valuation discount stays in \
                     [0, 1]",
                    self.leverage_bound
                ),
                premises: vec![RangePremise::MessagesWithin {
                    range: Interval::new(0, one),
                }],
            },
            modular: false,
            dominance: Vec::new(),
            message_sum_cap: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{apply_shock, core_periphery, GeneratorConfig};
    use crate::native::{random_word, run_words, F, MASK, ONE};
    use dstress_core::execute_plaintext;
    use dstress_graph::execute_reference;
    use dstress_math::rng::Xoshiro256;

    /// One fixed-point Elliott–Golub–Jackson step on 16-bit words,
    /// wrapping where the circuit's adders and multipliers wrap, with the
    /// outgoing discount the plaintext `clamp(1 − value / origVal, 0, 1)`
    /// (0 when `origVal = 0`).
    fn native_step(words: &[u64], d: usize) -> Vec<u64> {
        let [base, orig_val, _, threshold, penalty] = words[..5] else {
            unreachable!()
        };
        let holdings = &words[5..5 + d];
        let neighbor_orig = &words[5 + d..5 + 2 * d];
        let discounts = &words[5 + 2 * d..5 + 3 * d];
        let mul_fixed = |a: u64, b: u64| ((a * b) >> F) & MASK;
        let mut value = base;
        for ((&holding, &orig), &discount) in holdings.iter().zip(neighbor_orig).zip(discounts) {
            let kept = ONE.wrapping_sub(discount) & MASK;
            value = (value + mul_fixed(holding, mul_fixed(kept, orig))) & MASK;
        }
        if value < threshold {
            value = value.saturating_sub(penalty);
        }
        let discount = match orig_val {
            0 => 0,
            _ => ONE - ((value << F) / orig_val).min(ONE),
        };
        let mut out = vec![base, orig_val, value, threshold, penalty];
        out.extend_from_slice(&words[5..5 + 2 * d]);
        out.extend(std::iter::repeat(discount).take(d));
        out
    }

    #[test]
    fn discount_is_the_native_clamp_where_the_ratio_would_wrap() {
        let net = shocked_network(1, 0.5);
        let secure = ElliottGolubJacksonSecure {
            network: &net,
            params: CircuitParams::default_params(),
            iterations: 4,
            leverage_bound: 0.1,
        };
        let d = 3;
        let circuit = secure.update_circuit(d);
        let run = |words: &[u64]| run_words(&circuit, words);
        // value = 2048 against origVal = 1: the ratio 2^16 needs 17 bits,
        // yet the bank is healthy and discounts nothing.
        let mut wrap = vec![0u64; 5 + 3 * d];
        wrap[0] = 2048;
        wrap[1] = 1;
        assert_eq!(run(&wrap)[5 + 2 * d], 0);
        let mut rng = Xoshiro256::new(0xE6);
        for _ in 0..2_000 {
            let words: Vec<u64> = (0..5 + 3 * d).map(|_| random_word(&mut rng)).collect();
            assert_eq!(run(&words), native_step(&words, d), "{words:?}");
        }
        assert_eq!(run(&wrap), native_step(&wrap, d));
    }

    fn shocked_network(seed: u64, severity: f64) -> FinancialNetwork {
        let config = GeneratorConfig::small(12, 8);
        let mut rng = Xoshiro256::new(seed);
        let mut net = core_periphery(&config, &mut rng);
        apply_shock(&mut net, &[VertexId(0), VertexId(1)], severity);
        net
    }

    #[test]
    fn no_shock_means_no_distress() {
        let config = GeneratorConfig::small(10, 8);
        let mut rng = Xoshiro256::new(2);
        let net = core_periphery(&config, &mut rng);
        let report = egj_fixpoint(&net, 20);
        assert!(
            report.total_shortfall < 1e-6,
            "TDS = {}",
            report.total_shortfall
        );
    }

    #[test]
    fn severe_shock_causes_distress() {
        let net = shocked_network(5, 0.9);
        let report = egj_fixpoint(&net, 20);
        assert!(
            report.total_shortfall > 1.0,
            "TDS = {}",
            report.total_shortfall
        );
        assert!(report.failed_banks >= 1);
    }

    #[test]
    fn vertex_program_matches_fixpoint() {
        let net = shocked_network(9, 0.9);
        let iterations = 16;
        let reference = egj_fixpoint(&net, iterations);
        let program = ElliottGolubJacksonProgram {
            network: &net,
            iterations,
            leverage_bound: 0.1,
        };
        let trace = execute_reference(net.graph(), &program);
        assert!(
            (trace.aggregate - reference.total_shortfall).abs()
                < 0.05 * (1.0 + reference.total_shortfall),
            "vertex program {} vs fixpoint {}",
            trace.aggregate,
            reference.total_shortfall
        );
    }

    #[test]
    fn circuit_program_matches_vertex_program() {
        let net = shocked_network(15, 0.9);
        let iterations = 8;
        let plaintext = ElliottGolubJacksonProgram {
            network: &net,
            iterations,
            leverage_bound: 0.1,
        };
        let trace = execute_reference(net.graph(), &plaintext);
        let secure = ElliottGolubJacksonSecure {
            network: &net,
            params: CircuitParams::default_params(),
            iterations,
            leverage_bound: 0.1,
        };
        let circuit_result = execute_plaintext(net.graph(), &secure);
        let tolerance = 2.0 + 0.05 * trace.aggregate.abs();
        assert!(
            (circuit_result - trace.aggregate).abs() < tolerance,
            "circuit {} vs plaintext {}",
            circuit_result,
            trace.aggregate
        );
    }

    #[test]
    fn convergence_is_monotone() {
        // §4.3: the EGJ iteration converges monotonically (valuations only
        // fall), so the reported shortfall is non-decreasing in the number
        // of iterations.
        let net = shocked_network(23, 0.85);
        let mut last = -1.0;
        for iterations in [1u32, 2, 4, 8, 16] {
            let tds = egj_fixpoint(&net, iterations).total_shortfall;
            assert!(tds >= last - 1e-9, "TDS decreased: {last} -> {tds}");
            last = tds;
        }
    }

    #[test]
    fn sensitivity_and_widths() {
        let net = shocked_network(1, 0.5);
        let secure = ElliottGolubJacksonSecure {
            network: &net,
            params: CircuitParams::default_params(),
            iterations: 4,
            leverage_bound: 0.1,
        };
        assert_eq!(secure.sensitivity(), 20.0);
        assert_eq!(secure.state_bits(), (5 + 16) * 16);
        assert_eq!(secure.message_bits(), 16);
        let circuit = secure.update_circuit(8);
        assert_eq!(circuit.num_inputs() as u32, secure.state_bits() + 8 * 16);
        assert_eq!(circuit.outputs().len() as u32, secure.state_bits() + 8 * 16);
        // EGJ's update does two fixed-point multiplications per neighbour,
        // so it is costlier than Eisenberg–Noe's single one (visible in
        // Figure 3 of the paper).
        let en = crate::eisenberg_noe::EisenbergNoeSecure {
            network: &net,
            params: CircuitParams::default_params(),
            iterations: 4,
            leverage_bound: 0.1,
        };
        assert!(circuit.and_gates() > en.update_circuit(8).and_gates());
    }
}
