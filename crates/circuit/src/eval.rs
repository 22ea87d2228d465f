//! Plaintext circuit evaluation.
//!
//! The evaluator serves two roles: it is the reference against which the
//! GMW engine is tested (evaluating the same circuit on reconstructed
//! inputs must give the same outputs as the MPC), and it implements the
//! "ideal functionality" used by the fast simulation mode of the MPC
//! engine when only costs — not cryptography — are being measured.

use crate::ir::{Circuit, CircuitError, Gate, WireId};

/// Evaluates a circuit on plaintext inputs, returning the output bits in
/// the order they were declared.
///
/// # Errors
///
/// Returns [`CircuitError::InputCountMismatch`] if the number of inputs is
/// wrong.
pub fn evaluate(circuit: &Circuit, inputs: &[bool]) -> Result<Vec<bool>, CircuitError> {
    let values = evaluate_wires(circuit, inputs)?;
    Ok(circuit
        .outputs()
        .iter()
        .map(|&o| values[o as usize])
        .collect())
}

/// Evaluates a circuit and returns the value on *every* wire.
///
/// The GMW engine uses this in tests to compare intermediate wire values.
///
/// # Errors
///
/// Returns [`CircuitError::InputCountMismatch`] if the number of inputs is
/// wrong.
pub fn evaluate_wires(circuit: &Circuit, inputs: &[bool]) -> Result<Vec<bool>, CircuitError> {
    if inputs.len() != circuit.num_inputs() {
        return Err(CircuitError::InputCountMismatch {
            expected: circuit.num_inputs(),
            actual: inputs.len(),
        });
    }
    let mut values: Vec<bool> = Vec::with_capacity(circuit.len());
    for gate in circuit.gates() {
        let value = |w: WireId| values[w as usize];
        let v = match gate {
            Gate::Input(n) => inputs[n as usize],
            Gate::ConstFalse => false,
            Gate::ConstTrue => true,
            Gate::Xor(a, b) => value(a) ^ value(b),
            Gate::And(a, b) => value(a) && value(b),
            Gate::Not(a) => !value(a),
        };
        values.push(v);
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;

    #[test]
    fn evaluates_simple_formula() {
        // out = (a AND b) XOR (NOT c)
        let mut b = CircuitBuilder::new();
        let x = b.input();
        let y = b.input();
        let z = b.input();
        let and = b.and(x, y);
        let not = b.not(z);
        let out = b.xor(and, not);
        b.output(out);
        let c = b.build().unwrap();

        for (a_v, b_v, c_v) in [
            (false, false, false),
            (true, true, false),
            (true, true, true),
            (true, false, true),
        ] {
            let expected = (a_v && b_v) ^ !c_v;
            assert_eq!(evaluate(&c, &[a_v, b_v, c_v]).unwrap()[0], expected);
        }
    }

    #[test]
    fn constants_evaluate() {
        let mut b = CircuitBuilder::new();
        let t = b.const_bit(true);
        let f = b.const_bit(false);
        b.output(t);
        b.output(f);
        let c = b.build().unwrap();
        assert_eq!(evaluate(&c, &[]).unwrap(), vec![true, false]);
    }

    #[test]
    fn input_count_is_checked() {
        let mut b = CircuitBuilder::new();
        let x = b.input();
        b.output(x);
        let c = b.build().unwrap();
        assert!(matches!(
            evaluate(&c, &[]).unwrap_err(),
            CircuitError::InputCountMismatch {
                expected: 1,
                actual: 0
            }
        ));
        assert!(evaluate(&c, &[true, false]).is_err());
    }

    #[test]
    fn wire_values_are_exposed() {
        let mut b = CircuitBuilder::new();
        let x = b.input();
        let y = b.input();
        let and = b.and(x, y);
        b.output(and);
        let c = b.build().unwrap();
        let wires = evaluate_wires(&c, &[true, true]).unwrap();
        assert_eq!(wires, vec![true, true, true]);
    }
}
