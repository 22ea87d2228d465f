//! What every word-level gadget costs, what it computes, and that none
//! of what it costs is wasted.
//!
//! Under GMW an AND gate is an oblivious transfer per party pair and an
//! AND layer is a round trip, so `(AND gates, AND depth)` *is* a gadget's
//! price.  Three things are pinned here:
//!
//! * **a cost table** — committed `(AND, depth)` constants at widths 8
//!   and 16, so the next change to a gadget shows up as a number;
//! * **a truth table** — every gadget equals native integer arithmetic,
//!   exhaustively at widths 1–4 (every operand pair, every `frac_bits`
//!   in `0..=width`, divisor zero included) and by proptest at 5–16.
//!   The one-operand `leading_ones` is also checked on every word of
//!   widths 1–12 and by proptest at 13–16 and 64.  Native arithmetic is
//!   the oracle; no earlier gadget body is kept as one;
//! * **no waste** — GMW evaluates every gate in the list
//!   (`layers.rs`), so an AND gate no output reads, or one whose operand
//!   constants alone determine, is an OT bought for nothing.  Gadgets on
//!   input words have none of either; the two finance update circuits,
//!   which hand public constants to gadgets, stay under 1 %.

use dstress_circuit::builder::{decode_word, encode_word};
use dstress_circuit::{evaluate, Circuit, CircuitBuilder, CircuitLayers, CircuitStats, Gate, Word};
use dstress_core::SecureVertexProgram;
use dstress_finance::{
    core_periphery, CircuitParams, EisenbergNoeSecure, ElliottGolubJacksonSecure, GeneratorConfig,
};
use dstress_math::rng::Xoshiro256;
use proptest::prelude::*;

fn mask(width: u32) -> u64 {
    u64::MAX >> (64 - width)
}

/// The leading ones of a `width`-bit `a`, counted from its least
/// significant bit.
fn leading_ones(a: u64, width: u32) -> u64 {
    u64::from((!a).trailing_zeros().min(width))
}

/// One gadget: how the builder is asked for it (single-bit results as
/// one-wire words) and what it must compute on `width`-bit operands.
struct Gadget {
    name: &'static str,
    /// Committed `(AND, depth)` at widths 8 and 16 (`frac_bits = 5`).
    cost: [(usize, usize); 2],
    /// Whether the third argument (`frac_bits`) means anything.
    fixed_point: bool,
    build: fn(&mut CircuitBuilder, &Word, &Word, u32) -> Word,
    native: fn(u64, u64, u32, u32) -> u64,
}

const GADGETS: &[Gadget] = &[
    Gadget {
        name: "add",
        cost: [(7, 7), (15, 15)],
        fixed_point: false,
        build: |c, a, b, _| c.add(a, b),
        native: |a, b, w, _| (a + b) & mask(w),
    },
    Gadget {
        name: "sub",
        cost: [(7, 7), (15, 15)],
        fixed_point: false,
        build: |c, a, b, _| c.sub(a, b),
        native: |a, b, w, _| a.wrapping_sub(b) & mask(w),
    },
    Gadget {
        name: "lt_unsigned",
        cost: [(8, 8), (16, 16)],
        fixed_point: false,
        build: |c, a, b, _| vec![c.lt_unsigned(a, b)],
        native: |a, b, _, _| (a < b) as u64,
    },
    Gadget {
        name: "min_unsigned",
        cost: [(16, 9), (32, 17)],
        fixed_point: false,
        build: |c, a, b, _| c.min_unsigned(a, b),
        native: |a, b, _, _| a.min(b),
    },
    Gadget {
        name: "eq_word",
        cost: [(7, 3), (15, 4)],
        fixed_point: false,
        build: |c, a, b, _| vec![c.eq_word(a, b)],
        native: |a, b, _, _| (a == b) as u64,
    },
    Gadget {
        name: "mul_full",
        cost: [(120, 15), (496, 31)],
        fixed_point: false,
        build: |c, a, b, _| c.mul_full(a, b),
        native: |a, b, _, _| a * b,
    },
    Gadget {
        name: "mul",
        cost: [(57, 7), (241, 15)],
        fixed_point: false,
        build: |c, a, b, _| c.mul(a, b),
        native: |a, b, w, _| (a * b) & mask(w),
    },
    Gadget {
        name: "mul_fixed",
        cost: [(110, 12), (374, 20)],
        fixed_point: true,
        build: |c, a, b, f| c.mul_fixed(a, b, f),
        native: |a, b, w, f| ((a * b) >> f) & mask(w),
    },
    Gadget {
        name: "ratio_capped",
        cost: [(85, 45), (165, 85)],
        fixed_point: true,
        build: |c, a, b, f| c.ratio_capped(a, b, f),
        native: |a, b, _, f| match b {
            0 => 1 << f,
            _ => ((a << f) / b).min(1 << f),
        },
    },
    // A Sklansky prefix scan, (W/2)·log₂ W AND at depth log₂ W, and an
    // AND-free thermometer-to-binary conversion.
    Gadget {
        name: "leading_ones",
        cost: [(12, 3), (32, 4)],
        fixed_point: false,
        build: |c, a, _, _| c.leading_ones(a),
        native: |a, _, w, _| leading_ones(a, w),
    },
    // Eight words: the chain of ripple adders pipelines — bit `i` of every
    // adder settles at layer `i` — so the depth is one adder's.
    Gadget {
        name: "sum",
        cost: [(49, 7), (105, 15)],
        fixed_point: false,
        build: |c, a, b, _| c.sum(&vec![[a.clone(), b.clone()]; 4].concat()),
        native: |a, b, w, _| (4 * a + 4 * b) & mask(w),
    },
];

/// The gadget alone on two `width`-bit input words.
fn circuit_of(g: &Gadget, width: u32, frac_bits: u32) -> Circuit {
    let mut c = CircuitBuilder::new();
    let a = c.input_word(width);
    let b = c.input_word(width);
    let out = (g.build)(&mut c, &a, &b, frac_bits);
    c.output_word(&out);
    c.build().unwrap()
}

fn run(circuit: &Circuit, a: u64, b: u64, width: u32) -> u64 {
    let mut inputs = encode_word(a, width);
    inputs.extend(encode_word(b, width));
    decode_word(&evaluate(circuit, &inputs).unwrap())
}

/// `(AND gates, AND depth)`; the depth of the output cone
/// (`CircuitStats`) and of the whole gate list (`CircuitLayers`, the
/// rounds GMW runs) must be the same number.
fn cost(circuit: &Circuit) -> (usize, usize) {
    let stats = CircuitStats::of(circuit);
    assert_eq!(stats.and_depth, CircuitLayers::of(circuit).rounds());
    (stats.and_gates, stats.and_depth)
}

/// AND gates bought for nothing: `(constant operand, unread)` — an
/// operand whose value constants alone determine, and a gate outside the
/// cone of every output.
fn wasted_ands(circuit: &Circuit) -> (usize, usize) {
    let mut known: Vec<Option<bool>> = vec![None; circuit.len()];
    let mut constant_operand = 0;
    for (i, gate) in circuit.gates().enumerate() {
        known[i] = match gate {
            Gate::Input(_) => None,
            Gate::ConstFalse => Some(false),
            Gate::ConstTrue => Some(true),
            Gate::Not(a) => known[a as usize].map(|v| !v),
            Gate::Xor(a, b) => known[a as usize].zip(known[b as usize]).map(|(x, y)| x ^ y),
            Gate::And(a, b) => {
                if known[a as usize].is_some() || known[b as usize].is_some() {
                    constant_operand += 1;
                }
                match (known[a as usize], known[b as usize]) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (x, y) => x.zip(y).map(|(x, y)| x & y),
                }
            }
        };
    }
    let mut read = vec![false; circuit.len()];
    for &o in circuit.outputs() {
        read[o as usize] = true;
    }
    let mut unread = 0;
    for (i, gate) in circuit.gates().enumerate().rev() {
        match gate {
            Gate::And(..) if !read[i] => unread += 1,
            Gate::And(a, b) | Gate::Xor(a, b) if read[i] => {
                read[a as usize] = true;
                read[b as usize] = true;
            }
            Gate::Not(a) if read[i] => read[a as usize] = true,
            _ => {}
        }
    }
    (constant_operand, unread)
}

#[test]
fn costs_match_the_committed_table() {
    for g in GADGETS {
        let measured = [8, 16].map(|width| cost(&circuit_of(g, width, 5)));
        assert_eq!(measured, g.cost, "{} at widths 8 and 16", g.name);
    }
}

#[test]
fn gadgets_equal_native_arithmetic_exhaustively_at_widths_1_to_4() {
    for g in GADGETS {
        for width in 1..=4u32 {
            let fracs = if g.fixed_point { 0..=width } else { 0..=0 };
            for frac_bits in fracs {
                let circuit = circuit_of(g, width, frac_bits);
                for a in 0..=mask(width) {
                    for b in 0..=mask(width) {
                        assert_eq!(
                            run(&circuit, a, b, width),
                            (g.native)(a, b, width, frac_bits),
                            "{}({a}, {b}) at width {width}, frac_bits {frac_bits}",
                            g.name
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn gadgets_waste_no_and_gate() {
    for g in GADGETS {
        for width in 1..=16u32 {
            let fracs: &[u32] = if g.fixed_point { &[0, 1, 5, 16] } else { &[0] };
            for &frac_bits in fracs.iter().filter(|&&f| f <= width) {
                let circuit = circuit_of(g, width, frac_bits);
                assert_eq!(
                    wasted_ands(&circuit),
                    (0, 0),
                    "{} at width {width}, frac_bits {frac_bits}",
                    g.name
                );
                cost(&circuit);
            }
        }
    }
}

/// `leading_ones` alone on one `width`-bit input word.
fn leading_ones_circuit(width: u32) -> Circuit {
    let mut c = CircuitBuilder::new();
    let a = c.input_word(width);
    let out = c.leading_ones(&a);
    c.output_word(&out);
    c.build().unwrap()
}

fn run_leading_ones(circuit: &Circuit, a: u64, width: u32) -> u64 {
    decode_word(&evaluate(circuit, &encode_word(a, width)).unwrap())
}

#[test]
fn leading_ones_equals_native_exhaustively_at_widths_1_to_12() {
    for width in 1..=12u32 {
        let circuit = leading_ones_circuit(width);
        assert_eq!(circuit.outputs().len(), width.ilog2() as usize + 1);
        for a in 0..=mask(width) {
            assert_eq!(
                run_leading_ones(&circuit, a, width),
                leading_ones(a, width),
                "leading_ones({a:#b}) at width {width}"
            );
        }
    }
}

#[test]
fn finance_update_circuits_waste_under_one_percent() {
    let net = core_periphery(&GeneratorConfig::small(20, 5), &mut Xoshiro256::new(7));
    let d = net.graph().degree_bound();
    let params = CircuitParams::default_params();
    let en = EisenbergNoeSecure {
        network: &net,
        params,
        iterations: 4,
        leverage_bound: 0.1,
    };
    let egj = ElliottGolubJacksonSecure {
        network: &net,
        params,
        iterations: 4,
        leverage_bound: 0.1,
    };
    for (name, circuit) in [
        ("eisenberg-noe", en.update_circuit(d)),
        ("elliott-golub-jackson", egj.update_circuit(d)),
    ] {
        let (and_gates, depth) = cost(&circuit);
        let (constant_operand, unread) = wasted_ands(&circuit);
        println!(
            "{name} (D = {d}): {and_gates} AND at depth {depth}, \
             {constant_operand} with a constant operand, {unread} unread"
        );
        assert!(
            100 * constant_operand <= and_gates,
            "{name}: {constant_operand} of {and_gates} AND gates have a constant operand"
        );
        assert!(
            100 * unread <= and_gates,
            "{name}: {unread} of {and_gates} AND gates feed no output"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gadgets_equal_native_arithmetic_at_widths_5_to_16(
        width in 5u32..=16,
        a in any::<u64>(),
        b in any::<u64>(),
        frac in 0u32..=16,
    ) {
        let (a, b) = (a & mask(width), b & mask(width));
        for g in GADGETS {
            let frac_bits = if g.fixed_point { frac % (width + 1) } else { 0 };
            let circuit = circuit_of(g, width, frac_bits);
            // A zero divisor and equal operands are rare draws: try both.
            for (x, y) in [(a, b), (a, 0), (a, a)] {
                prop_assert_eq!(
                    run(&circuit, x, y, width),
                    (g.native)(x, y, width, frac_bits),
                    "{}({}, {}) at width {}, frac_bits {}", g.name, x, y, width, frac_bits
                );
            }
        }
    }

    /// Widths 13–16 and 64 (drawn as 17).  A long run of ones is a rare
    /// draw, so every draw is also tried as a run of `run` ones alone and
    /// with its random bits above the run's closing zero.
    #[test]
    fn leading_ones_equals_native_at_widths_13_to_16_and_64(
        pick in 13u32..=17,
        a in any::<u64>(),
        run in 0u32..=64,
    ) {
        let width = if pick == 17 { 64 } else { pick };
        let circuit = leading_ones_circuit(width);
        let run = run.min(width);
        let ones = u64::MAX.checked_shr(64 - run).unwrap_or(0);
        let above = a.checked_shl(run + 1).unwrap_or(0);
        for x in [a, ones, ones | above] {
            let x = x & mask(width);
            prop_assert_eq!(
                run_leading_ones(&circuit, x, width),
                leading_ones(x, width),
                "leading_ones({:#b}) at width {}", x, width
            );
        }
    }
}
