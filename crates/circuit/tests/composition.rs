//! Sequential composition, [`Circuit::then`]: `a.then(&b)` computes `a`
//! and then `b` on `a`'s outputs followed by `b`'s own further inputs.
//!
//! Three things are checked against the two circuits evaluated apart:
//!
//! * **the function** — the composition's outputs are `a`'s outputs
//!   followed by `b`'s on (`a`'s outputs ‖ extra inputs), exhaustively
//!   for an aggregation-then-noising pair at small widths (the shape the
//!   engine composes) and by proptest on random gate soups whose inputs
//!   sit anywhere in the gate list, under the flat and the layered
//!   evaluator;
//! * **the gadget trace** — every event names wires of the composition,
//!   `a`'s events are kept as they were, an `InputWord` event names input
//!   gates only, and every event carried over from `b` reads and writes the
//!   values it did in `b`;
//! * **the arity** — a `b` with fewer inputs than `a` has outputs is a
//!   typed [`CircuitError`], not a panic.

use dstress_circuit::builder::{decode_word, encode_word};
use dstress_circuit::{
    evaluate, evaluate_layered, evaluate_wires, Circuit, CircuitBuilder, CircuitError, GadgetKind,
    Gate, WireId,
};
use proptest::prelude::*;

/// `count` words of `width` bits, zero-extended to `total` bits and
/// summed: the shape of a program's aggregation circuit.
fn summation(count: usize, width: u32, total: u32) -> Circuit {
    let mut b = CircuitBuilder::new();
    let words: Vec<_> = (0..count).map(|_| b.input_word(width)).collect();
    let wide: Vec<_> = words.iter().map(|w| b.zero_extend(w, total)).collect();
    let sum = b.sum(&wide);
    b.output_word(&sum);
    b.build().unwrap()
}

/// An `a`-bit word plus the difference of the leading-ones counts of two
/// `r`-bit words: the shape of the engine's noising circuit.
fn noising(a: u32, r: u32) -> Circuit {
    let mut b = CircuitBuilder::new();
    let aggregate = b.input_word(a);
    let (r1, r2) = (b.input_word(r), b.input_word(r));
    let (g1, g2) = (b.leading_ones(&r1), b.leading_ones(&r2));
    let (g1, g2) = (b.zero_extend(&g1, a), b.zero_extend(&g2, a));
    let noise = b.sub(&g1, &g2);
    let noised = b.add(&aggregate, &noise);
    b.output_word(&noised);
    b.build().unwrap()
}

/// Bit `i` of `value`, for `n` bits.
fn bits(value: u64, n: usize) -> Vec<bool> {
    (0..n).map(|i| value >> i & 1 == 1).collect()
}

/// The composition law on one input vector: `a.then(&b)` on
/// (`a`'s inputs ‖ extra) is `a`'s outputs followed by `b`'s outputs on
/// (`a`'s outputs ‖ extra), under both evaluators.
fn assert_composes(a: &Circuit, b: &Circuit, composed: &Circuit, inputs: &[bool]) {
    let (own, extra) = inputs.split_at(a.num_inputs());
    let mut expected = evaluate(a, own).unwrap();
    let mut b_inputs = expected.clone();
    b_inputs.extend_from_slice(extra);
    expected.extend(evaluate(b, &b_inputs).unwrap());
    assert_eq!(evaluate(composed, inputs).unwrap(), expected);
    let wires = evaluate_layered(composed, composed.layers(), inputs).unwrap();
    let outputs: Vec<bool> = composed
        .outputs()
        .iter()
        .map(|&o| wires[o as usize])
        .collect();
    assert_eq!(outputs, expected);
}

/// The gadget-trace contract on one input vector (see the module doc).
fn assert_trace_carried_over(a: &Circuit, b: &Circuit, composed: &Circuit, inputs: &[bool]) {
    let events = composed.gadgets();
    let len = composed.len();
    for event in events {
        let named = event.inputs.iter().flatten().chain(&event.output);
        assert!(named.into_iter().all(|&w| (w as usize) < len), "{event:?}");
        if event.kind == GadgetKind::InputWord {
            assert!(event
                .output
                .iter()
                .all(|&w| matches!(composed.gate(w), Gate::Input(_))));
        }
    }
    assert_eq!(&events[..a.gadgets().len()], a.gadgets());

    let (own, extra) = inputs.split_at(a.num_inputs());
    let mut b_inputs = evaluate(a, own).unwrap();
    b_inputs.extend_from_slice(extra);
    let b_wires = evaluate_wires(b, &b_inputs).unwrap();
    let wires = evaluate_wires(composed, inputs).unwrap();
    let bound_input =
        |w: WireId| matches!(b.gate(w), Gate::Input(k) if (k as usize) < a.outputs().len());
    let kept = b
        .gadgets()
        .iter()
        .filter(|e| !(e.kind == GadgetKind::InputWord && e.output.iter().any(|&w| bound_input(w))));
    let carried = &events[a.gadgets().len()..];
    assert_eq!(carried.len(), kept.clone().count());
    let values = |values: &[bool], word: &[WireId]| -> Vec<bool> {
        word.iter().map(|&w| values[w as usize]).collect()
    };
    for (old, new) in kept.zip(carried) {
        assert_eq!(old.kind, new.kind);
        assert_eq!(old.inputs.len(), new.inputs.len());
        for (x, y) in old.inputs.iter().zip(&new.inputs) {
            assert_eq!(values(&b_wires, x), values(&wires, y), "{new:?}");
        }
        assert_eq!(values(&b_wires, &old.output), values(&wires, &new.output));
    }
}

#[test]
fn summation_then_noising_equals_the_two_apart_exhaustively() {
    for width in 1..=2u32 {
        for r in 1..=3u32 {
            // Three summands never overflow `width + 2` bits, which also
            // holds a leading-ones count of up to 3.
            let total = width + 2;
            let a = summation(3, width, total);
            let b = noising(total, r);
            let composed = a.clone().then(&b).unwrap();
            assert_eq!(composed.num_inputs(), 3 * width as usize + 2 * r as usize);
            assert_eq!(composed.outputs().len(), 2 * total as usize);
            assert_eq!(composed.and_gates(), a.and_gates() + b.and_gates());
            for value in 0..1u64 << composed.num_inputs() {
                let inputs = bits(value, composed.num_inputs());
                assert_composes(&a, &b, &composed, &inputs);
                assert_trace_carried_over(&a, &b, &composed, &inputs);
            }
        }
    }
}

#[test]
fn composed_outputs_are_the_sum_then_the_noised_sum() {
    let (a, b) = (summation(3, 4, 6), noising(6, 3));
    let composed = a.then(&b).unwrap();
    // 5 + 9 + 12 = 26; r1 = 0b011 has two leading ones, r2 = 0b000 none.
    let mut inputs: Vec<bool> = [5, 9, 12].iter().flat_map(|&v| encode_word(v, 4)).collect();
    inputs.extend(encode_word(0b011, 3));
    inputs.extend(encode_word(0b000, 3));
    let out = evaluate(&composed, &inputs).unwrap();
    assert_eq!(decode_word(&out[..6]), 26);
    assert_eq!(decode_word(&out[6..]), 28);
}

#[test]
fn the_trace_drops_only_the_input_words_of_bound_inputs() {
    let (a, b) = (summation(3, 2, 4), noising(4, 3));
    let composed = a.clone().then(&b).unwrap();
    let input_words = |c: &Circuit| {
        let events = c.gadgets().iter();
        events.filter(|e| e.kind == GadgetKind::InputWord).count()
    };
    // `a`'s three summands, then `b`'s two random words: `b`'s aggregate
    // word is `a`'s sum now, not an input.
    assert_eq!(input_words(&composed), 3 + 2);
    assert_eq!(
        composed.gadgets().len(),
        a.gadgets().len() + b.gadgets().len() - 1
    );
}

#[test]
fn too_few_inputs_downstream_is_a_typed_error() {
    let a = summation(2, 2, 3); // 3 outputs
    let mut b = CircuitBuilder::new();
    let (x, y) = (b.input(), b.input());
    let z = b.and(x, y);
    b.output(z);
    let b = b.build().unwrap(); // 2 inputs
    let err = a.then(&b).unwrap_err();
    assert_eq!(
        err,
        CircuitError::CompositionArity {
            outputs: 3,
            inputs: 2
        }
    );
    assert!(err.to_string().contains("3 outputs"), "{err}");
}

#[test]
fn a_circuit_without_outputs_appends_next_beside_it() {
    let mut a = CircuitBuilder::new();
    let x = a.input();
    let _ = a.not(x);
    let a = a.build().unwrap();
    let b = noising(3, 2);
    let composed = a.clone().then(&b).unwrap();
    assert_eq!(composed.num_inputs(), 1 + b.num_inputs());
    for value in 0..1u64 << composed.num_inputs() {
        assert_composes(&a, &b, &composed, &bits(value, composed.num_inputs()));
    }
}

/// A gate soup driven by proptest-chosen words: each word is one AND /
/// XOR / NOT / MUX over earlier wires or, one time in five, a fresh input
/// in the middle of the gate list.  The circuit has at least
/// `min_inputs` inputs and outputs the wires `outputs` picks.
fn soup(min_inputs: usize, ops: &[u64], outputs: &[usize]) -> Circuit {
    let mut b = CircuitBuilder::new();
    let mut inputs = 1;
    let mut pool = vec![b.input()];
    for &op in ops {
        let (kind, i, j, k) = (op & 0xFF, op >> 8 & 0xFFFF, op >> 24 & 0xFFFF, op >> 40);
        let pick = |n: u64| pool[n as usize % pool.len()];
        let wire = match kind % 5 {
            0 => b.and(pick(i), pick(j)),
            1 => b.xor(pick(i), pick(j)),
            2 => b.not(pick(i)),
            3 => b.mux(pick(k), pick(i), pick(j)),
            _ => {
                inputs += 1;
                b.input()
            }
        };
        pool.push(wire);
    }
    for _ in inputs..min_inputs {
        pool.push(b.input());
    }
    for &o in outputs {
        b.output(pool[o % pool.len()]);
    }
    b.build().expect("soup circuits are topologically valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_then_equals_the_two_circuits_apart(
        a_ops in proptest::collection::vec(any::<u64>(), 0..40),
        a_outputs in proptest::collection::vec(any::<usize>(), 0..6),
        b_ops in proptest::collection::vec(any::<u64>(), 0..40),
        b_outputs in proptest::collection::vec(any::<usize>(), 0..6),
        extra in 0usize..4,
        seeds in proptest::collection::vec(any::<u64>(), 4),
    ) {
        let a = soup(1, &a_ops, &a_outputs);
        let b = soup(a.outputs().len() + extra, &b_ops, &b_outputs);
        let composed = a.clone().then(&b).unwrap();
        prop_assert_eq!(composed.num_inputs(), a.num_inputs() + b.num_inputs() - a.outputs().len());
        prop_assert_eq!(composed.and_gates(), a.and_gates() + b.and_gates());
        // Valid by construction: the checked constructor accepts the parts.
        let rebuilt = Circuit::with_gadgets(
            composed.gates().collect(),
            composed.num_inputs(),
            composed.outputs().to_vec(),
            composed.gadgets().to_vec(),
        );
        prop_assert!(rebuilt.is_ok());
        for seed in seeds {
            let inputs = bits(seed, composed.num_inputs().min(64));
            let inputs: Vec<bool> = inputs.into_iter().cycle().take(composed.num_inputs()).collect();
            assert_composes(&a, &b, &composed, &inputs);
            assert_trace_carried_over(&a, &b, &composed, &inputs);
        }
    }
}
