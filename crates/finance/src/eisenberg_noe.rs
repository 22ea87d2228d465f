//! The Eisenberg–Noe contagion model (§4.2).
//!
//! Banks hold debt contracts against each other; when a bank's liquid
//! reserves plus incoming payments fall short of its total obligations it
//! pays its creditors pro rata, which can push *them* under water in turn.
//! Eisenberg & Noe prove that the resulting clearing-payment vector is
//! unique and is reached after at most `n` rounds of fictitious default.
//!
//! Three implementations are provided, all computing the same Total Dollar
//! Shortfall:
//!
//! * [`clearing_vector`] — the textbook fixpoint solver on the full
//!   network (the "ideal" non-private computation).
//! * [`EisenbergNoeProgram`] — the model as a plaintext vertex program,
//!   exactly the pseudocode of Figure 2(a).
//! * [`EisenbergNoeSecure`] — the same vertex program encoded as Boolean
//!   circuits for execution under the DStress runtime.
//!
//! Tests pin the three against each other; the DStress runtime is pinned
//! against [`dstress_core::execute_plaintext`] of the circuit form.

use crate::metrics::{sensitivity_bound_en, CircuitParams, ShortfallReport};
use crate::network::FinancialNetwork;
use dstress_circuit::builder::{encode_word, CircuitBuilder};
use dstress_circuit::spec::{
    Interval, ProgramInputRef, ProgramSpec, RangePremise, SensitivityModel, WordSpec,
};
use dstress_circuit::Circuit;
use dstress_core::SecureVertexProgram;
use dstress_graph::{Graph, VertexId, VertexProgram};
use dstress_math::Fixed;

/// Computes the Eisenberg–Noe clearing vector by fictitious default and
/// returns the per-bank shortfalls.
///
/// `max_iterations` bounds the fixpoint iteration; the model converges in
/// at most `n` rounds, so passing `net.bank_count()` is always sufficient.
pub fn clearing_vector(net: &FinancialNetwork, max_iterations: u32) -> ShortfallReport {
    let n = net.bank_count();
    let graph = net.graph();
    let total_debt: Vec<f64> = (0..n)
        .map(|i| net.total_debt(VertexId(i)).to_f64())
        .collect();
    let cash: Vec<f64> = (0..n)
        .map(|i| net.bank(VertexId(i)).cash.to_f64())
        .collect();
    // Payments start at full obligations.
    let mut payments = total_debt.clone();
    for _ in 0..max_iterations {
        let mut next = vec![0.0; n];
        for i in 0..n {
            let v = VertexId(i);
            // Incoming payments: every debtor j pays its debt to i scaled by
            // j's current payment ratio.
            let mut incoming = 0.0;
            for &j in graph.in_neighbors(v) {
                let debt = net.exposure(j, v).debt.to_f64();
                let ratio = if total_debt[j.0] > 0.0 {
                    payments[j.0] / total_debt[j.0]
                } else {
                    1.0
                };
                incoming += debt * ratio;
            }
            next[i] = total_debt[i].min(cash[i] + incoming);
        }
        let delta: f64 = next
            .iter()
            .zip(payments.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        payments = next;
        if delta < 1e-9 {
            break;
        }
    }
    let per_bank: Vec<f64> = (0..n)
        .map(|i| (total_debt[i] - payments[i]).max(0.0))
        .collect();
    ShortfallReport::from_per_bank(per_bank)
}

/// Per-vertex state of the plaintext vertex program: the current pro-rata
/// payment fraction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnState {
    /// Fraction of obligations the bank can currently pay, in `[0, 1]`.
    pub prorate: Fixed,
}

/// The Eisenberg–Noe model as a plaintext vertex program (Figure 2(a)).
pub struct EisenbergNoeProgram<'a> {
    /// The financial network being analysed.
    pub network: &'a FinancialNetwork,
    /// Number of iterations to run (`n` suffices; `log₂ n` in practice).
    pub iterations: u32,
    /// Regulatory leverage bound `r`, which determines the sensitivity.
    pub leverage_bound: f64,
}

impl VertexProgram for EisenbergNoeProgram<'_> {
    type State = EnState;
    type Message = Fixed;

    fn init(&self, _v: VertexId) -> EnState {
        EnState {
            prorate: Fixed::ONE,
        }
    }

    fn no_op(&self) -> Fixed {
        Fixed::ZERO
    }

    fn update(&self, v: VertexId, _state: &EnState, incoming: &[(VertexId, Fixed)]) -> EnState {
        let graph = self.network.graph();
        let mut liquid = self.network.bank(v).cash;
        for &j in graph.in_neighbors(v) {
            let credit = self.network.exposure(j, v).debt;
            let shortfall = incoming
                .iter()
                .find(|(from, _)| *from == j)
                .map(|(_, m)| *m)
                .unwrap_or(Fixed::ZERO);
            liquid += credit - shortfall;
        }
        let total_debt = self.network.total_debt(v);
        let prorate = if total_debt.is_zero() || liquid >= total_debt {
            Fixed::ONE
        } else {
            liquid / total_debt
        };
        EnState { prorate }
    }

    fn message(&self, v: VertexId, state: &EnState, to: VertexId) -> Fixed {
        self.network.exposure(v, to).debt * (Fixed::ONE - state.prorate)
    }

    fn aggregate(&self, graph: &Graph, states: &[EnState]) -> f64 {
        graph
            .vertices()
            .map(|v| self.network.total_debt(v).to_f64() * (1.0 - states[v.0].prorate.to_f64()))
            .sum()
    }

    fn iterations(&self) -> u32 {
        self.iterations
    }

    fn sensitivity(&self) -> f64 {
        sensitivity_bound_en(self.leverage_bound)
    }
}

/// The Eisenberg–Noe model as Boolean circuits for the DStress runtime.
///
/// State layout (fixed-point words of `params.word_bits` bits):
/// `[cash, totalDebt, prorate, debts_out[0..D], credits_in[0..D]]`.
/// Messages carry the shortfall amount owed to the receiving creditor.
pub struct EisenbergNoeSecure<'a> {
    /// The financial network being analysed.
    pub network: &'a FinancialNetwork,
    /// Fixed-point encoding parameters.
    pub params: CircuitParams,
    /// Number of iterations to run.
    pub iterations: u32,
    /// Regulatory leverage bound `r`.
    pub leverage_bound: f64,
}

impl EisenbergNoeSecure<'_> {
    fn degree_bound(&self) -> usize {
        self.network.graph().degree_bound()
    }
}

impl SecureVertexProgram for EisenbergNoeSecure<'_> {
    fn state_bits(&self) -> u32 {
        (3 + 2 * self.degree_bound() as u32) * self.params.word_bits
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
        sensitivity_bound_en(self.leverage_bound)
    }

    fn encode_initial_state(&self, graph: &Graph, v: VertexId) -> Vec<bool> {
        let w = self.params.word_bits;
        let d = self.degree_bound();
        let mut bits = Vec::with_capacity(self.state_bits() as usize);
        bits.extend(encode_word(
            self.params.encode(self.network.bank(v).cash),
            w,
        ));
        bits.extend(encode_word(
            self.params.encode(self.network.total_debt(v)),
            w,
        ));
        bits.extend(encode_word(self.params.one(), w)); // prorate = 1
                                                        // Debts to out-neighbours, in slot order, padded with zeros.
        for slot in 0..d {
            let value = graph
                .out_neighbors(v)
                .get(slot)
                .map(|&to| self.params.encode(self.network.exposure(v, to).debt))
                .unwrap_or(0);
            bits.extend(encode_word(value, w));
        }
        // Credits from in-neighbours, in slot order.
        for slot in 0..d {
            let value = graph
                .in_neighbors(v)
                .get(slot)
                .map(|&from| self.params.encode(self.network.exposure(from, v).debt))
                .unwrap_or(0);
            bits.extend(encode_word(value, w));
        }
        bits
    }

    fn update_circuit(&self, degree_bound: usize) -> Circuit {
        let w = self.params.word_bits;
        let f = self.params.frac_bits;
        let mut b = CircuitBuilder::new();

        let cash = b.input_word(w);
        let total_debt = b.input_word(w);
        let _prorate_old = b.input_word(w);
        let debts: Vec<_> = (0..degree_bound).map(|_| b.input_word(w)).collect();
        let credits: Vec<_> = (0..degree_bound).map(|_| b.input_word(w)).collect();
        let messages: Vec<_> = (0..degree_bound).map(|_| b.input_word(w)).collect();

        // liquid = cash + Σ_d (credits[d] - shortfall[d])
        let mut liquid = cash.clone();
        for (credit, msg) in credits.iter().zip(messages.iter()) {
            let received = b.sub(credit, msg);
            liquid = b.add(&liquid, &received);
        }

        // prorate = liquid < totalDebt ? liquid / totalDebt : 1, which
        // fits f + 1 bits (a zero totalDebt pays in full).
        let prorate = b.ratio_capped(&liquid, &total_debt, f);
        let one = b.const_word(1 << f, f + 1);

        // Outgoing shortfalls: debts[d] * (1 - prorate), the multiplier
        // only as wide as the unpaid fraction.
        let unpaid_fraction = b.sub(&one, &prorate);
        let outgoing: Vec<_> = debts
            .iter()
            .map(|debt| b.mul_fixed(debt, &unpaid_fraction, f))
            .collect();

        // New state: cash, totalDebt, prorate, debts, credits.
        b.output_word(&cash);
        b.output_word(&total_debt);
        let prorate = b.zero_extend(&prorate, w);
        b.output_word(&prorate);
        for debt in &debts {
            b.output_word(debt);
        }
        for credit in &credits {
            b.output_word(credit);
        }
        for out in &outgoing {
            b.output_word(out);
        }
        b.build().expect("builder circuits are well formed")
    }

    fn aggregation_circuit(&self, vertices: usize) -> Circuit {
        let w = self.params.word_bits;
        let f = self.params.frac_bits;
        let d = self.degree_bound();
        let words_per_state = 3 + 2 * d;
        let mut b = CircuitBuilder::new();
        let one = b.const_word(1 << f, f + 1);
        let mut total = b.const_word(0, 32);
        for _ in 0..vertices {
            let state: Vec<_> = (0..words_per_state).map(|_| b.input_word(w)).collect();
            let total_debt = &state[1];
            // The initial state and every update write prorate ≤ 2^f,
            // zero-extended, so its bits above f are zero.
            let prorate = b.truncate(&state[2], f + 1);
            let unpaid = b.sub(&one, &prorate);
            let shortfall = b.mul_fixed(total_debt, &unpaid, f);
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
        let one = 1i128 << self.params.frac_bits;
        let net = self.network;
        let graph = net.graph();
        // Per-instance bounds: the analysis certifies *this* network's
        // encoding, so the word ranges come from the live balance sheets.
        let mut cash_hi = 0i128;
        let mut total_debt_hi = 0i128;
        let mut debt_hi = 0i128;
        for v in graph.vertices() {
            cash_hi = cash_hi.max(self.params.encode(net.bank(v).cash) as i128);
            total_debt_hi = total_debt_hi.max(self.params.encode(net.total_debt(v)) as i128);
            for &to in graph.out_neighbors(v) {
                debt_hi = debt_hi.max(self.params.encode(net.exposure(v, to).debt) as i128);
            }
        }
        let mut state_words = vec![
            WordSpec::private("cash", w, Interval::new(0, cash_hi)),
            WordSpec::private("total_debt", w, Interval::new(0, total_debt_hi)),
            WordSpec::private("prorate", w, Interval::new(0, one)),
        ];
        for d in 0..degree_bound {
            state_words.push(WordSpec::private(
                &format!("debt_out[{d}]"),
                w,
                Interval::new(0, debt_hi),
            ));
        }
        for d in 0..degree_bound {
            state_words.push(WordSpec::private(
                &format!("credit_in[{d}]"),
                w,
                Interval::new(0, debt_hi),
            ));
        }
        // A reported shortfall never exceeds the debt it is about:
        // msg[d] = debt · (1 − prorate) ≤ debt = credit_in[d], which the
        // range pass needs to keep `credit − shortfall` non-negative.
        let dominance = (0..degree_bound)
            .map(|d| {
                (
                    ProgramInputRef::State(3 + degree_bound + d),
                    ProgramInputRef::Message(d, 0),
                )
            })
            .collect();
        ProgramSpec {
            name: "eisenberg-noe".to_string(),
            state_words,
            message_words: vec![WordSpec::private("shortfall", w, Interval::new(0, debt_hi))],
            sensitivity_model: SensitivityModel::ExternalLemma {
                lemma: format!(
                    "Hemenway–Khanna (§4.4): under the regulatory leverage bound \
                     r = {}, re-allocating T dollars in one portfolio moves the \
                     Eisenberg–Noe total dollar shortfall by at most T/r, provided \
                     every pro-rata payment fraction stays in [0, 1]",
                    self.leverage_bound
                ),
                premises: vec![RangePremise::StateWordWithin {
                    index: 2,
                    range: Interval::new(0, one),
                }],
            },
            modular: false,
            dominance,
            message_sum_cap: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{apply_shock, core_periphery, GeneratorConfig};
    use crate::native::{random_word, run_words, F, MASK, ONE, W};
    use dstress_circuit::builder::decode_word;
    use dstress_circuit::evaluate;
    use dstress_core::execute_plaintext;
    use dstress_graph::execute_reference;
    use dstress_math::rng::{DetRng, Xoshiro256};

    /// One fixed-point Eisenberg–Noe step on 16-bit words, wrapping where
    /// the circuit's adders and multipliers wrap: the state
    /// `[cash, totalDebt, prorate, debts, credits]` and `d` incoming
    /// shortfalls in, the new state and `d` outgoing shortfalls out.
    fn native_step(words: &[u64], d: usize) -> Vec<u64> {
        let (cash, total_debt) = (words[0], words[1]);
        let debts = &words[3..3 + d];
        let credits = &words[3 + d..3 + 2 * d];
        let shortfalls = &words[3 + 2 * d..3 + 3 * d];
        let liquid = credits
            .iter()
            .zip(shortfalls)
            .fold(cash, |l, (c, s)| (l + (c.wrapping_sub(*s) & MASK)) & MASK);
        let prorate = if liquid < total_debt {
            (liquid << F) / total_debt
        } else {
            ONE
        };
        let mut out = vec![cash, total_debt, prorate];
        out.extend_from_slice(&words[3..3 + 2 * d]);
        out.extend(
            debts
                .iter()
                .map(|debt| ((debt * (ONE - prorate)) >> F) & MASK),
        );
        out
    }

    fn shocked_network(seed: u64) -> FinancialNetwork {
        let config = GeneratorConfig::small(12, 8);
        let mut rng = Xoshiro256::new(seed);
        let mut net = core_periphery(&config, &mut rng);
        // Wipe out two core banks' reserves to trigger shortfalls.
        apply_shock(&mut net, &[VertexId(0), VertexId(1)], 0.95);
        net
    }

    #[test]
    fn clearing_vector_no_shock_has_no_shortfall() {
        let config = GeneratorConfig::small(10, 8);
        let mut rng = Xoshiro256::new(3);
        let net = core_periphery(&config, &mut rng);
        let report = clearing_vector(&net, net.bank_count() as u32);
        // Generated banks hold more cash than debt, so everyone pays in full.
        assert!(
            report.total_shortfall < 1e-6,
            "TDS = {}",
            report.total_shortfall
        );
        assert_eq!(report.failed_banks, 0);
    }

    #[test]
    fn shock_creates_shortfall() {
        let net = shocked_network(7);
        let report = clearing_vector(&net, net.bank_count() as u32);
        assert!(
            report.total_shortfall > 1.0,
            "TDS = {}",
            report.total_shortfall
        );
        assert!(report.failed_banks >= 1);
        assert_eq!(report.per_bank.len(), 12);
    }

    #[test]
    fn vertex_program_matches_clearing_vector() {
        let net = shocked_network(11);
        let reference = clearing_vector(&net, 64);
        let program = EisenbergNoeProgram {
            network: &net,
            iterations: net.bank_count() as u32,
            leverage_bound: 0.1,
        };
        let trace = execute_reference(net.graph(), &program);
        assert!(
            (trace.aggregate - reference.total_shortfall).abs() < 0.5,
            "vertex program {} vs clearing vector {}",
            trace.aggregate,
            reference.total_shortfall
        );
    }

    #[test]
    fn circuit_program_matches_vertex_program() {
        let net = shocked_network(13);
        let iterations = 8;
        let plaintext = EisenbergNoeProgram {
            network: &net,
            iterations,
            leverage_bound: 0.1,
        };
        let trace = execute_reference(net.graph(), &plaintext);

        let secure = EisenbergNoeSecure {
            network: &net,
            params: CircuitParams::default_params(),
            iterations,
            leverage_bound: 0.1,
        };
        let circuit_result = execute_plaintext(net.graph(), &secure);
        // The circuit form quantises every value to 1/32 money units and
        // every pro-rata fraction to 1/32, and the error compounds over the
        // iterations; a few percent of slack on the aggregate absorbs it.
        let tolerance = 1.0 + 0.05 * trace.aggregate.abs();
        assert!(
            (circuit_result - trace.aggregate).abs() < tolerance,
            "circuit {} vs plaintext {}",
            circuit_result,
            trace.aggregate
        );
    }

    #[test]
    fn sensitivity_and_widths() {
        let net = shocked_network(1);
        let secure = EisenbergNoeSecure {
            network: &net,
            params: CircuitParams::default_params(),
            iterations: 4,
            leverage_bound: 0.1,
        };
        assert_eq!(secure.sensitivity(), 10.0);
        assert_eq!(secure.message_bits(), 16);
        assert_eq!(secure.state_bits(), (3 + 16) * 16);
        assert_eq!(secure.aggregate_bits(), 32);
        assert_eq!(secure.iterations(), 4);
        // The update circuit accepts exactly state + D messages.
        let circuit = secure.update_circuit(8);
        assert_eq!(circuit.num_inputs() as u32, secure.state_bits() + 8 * 16);
        assert_eq!(circuit.outputs().len() as u32, secure.state_bits() + 8 * 16);
        assert!(circuit.and_gates() > 0);
    }

    #[test]
    fn update_circuit_equals_a_native_fixed_point_step() {
        let net = shocked_network(1);
        let secure = EisenbergNoeSecure {
            network: &net,
            params: CircuitParams::default_params(),
            iterations: 4,
            leverage_bound: 0.1,
        };
        let mut rng = Xoshiro256::new(0xE15E);
        for d in [1, 5] {
            let circuit = secure.update_circuit(d);
            for _ in 0..2_000 {
                let words: Vec<u64> = (0..3 + 3 * d).map(|_| random_word(&mut rng)).collect();
                assert_eq!(
                    run_words(&circuit, &words),
                    native_step(&words, d),
                    "{words:?}"
                );
            }
        }
    }

    #[test]
    fn aggregation_reads_only_the_low_bits_of_prorate() {
        let net = shocked_network(1);
        let secure = EisenbergNoeSecure {
            network: &net,
            params: CircuitParams::default_params(),
            iterations: 4,
            leverage_bound: 0.1,
        };
        let words_per_state = 3 + 2 * secure.degree_bound();
        let vertices = 4;
        let circuit = secure.aggregation_circuit(vertices);
        let mut rng = Xoshiro256::new(0xA66);
        for _ in 0..500 {
            let mut words = Vec::new();
            let mut total = 0u64;
            for _ in 0..vertices {
                let mut state: Vec<u64> = (0..words_per_state)
                    .map(|_| random_word(&mut rng))
                    .collect();
                state[2] = rng.next_below(ONE + 1);
                // Total debt times the unpaid fraction, as a full-width
                // `1 − prorate` computes it.
                total += ((state[1] * ((ONE - state[2]) & MASK)) >> F) & MASK;
                words.extend(state);
            }
            let inputs: Vec<bool> = words.iter().flat_map(|&v| encode_word(v, W)).collect();
            let released = decode_word(&evaluate(&circuit, &inputs).unwrap());
            assert_eq!(released, total & 0xFFFF_FFFF, "{words:?}");
        }
    }

    #[test]
    fn more_iterations_never_decrease_shortfall_estimate() {
        // The fictitious-default cascade only grows as it propagates, so the
        // TDS estimate is monotone in the iteration count.
        let net = shocked_network(21);
        let run = |iters: u32| {
            let program = EisenbergNoeProgram {
                network: &net,
                iterations: iters,
                leverage_bound: 0.1,
            };
            execute_reference(net.graph(), &program).aggregate
        };
        let short = run(1);
        let medium = run(4);
        let long = run(12);
        assert!(medium >= short - 1e-9);
        assert!(long >= medium - 1e-9);
    }
}
