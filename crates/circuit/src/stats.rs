//! Circuit statistics.
//!
//! GMW's costs are determined almost entirely by the circuit shape: each
//! AND gate requires one oblivious-transfer interaction per party pair,
//! XOR and NOT gates are free, and the number of communication rounds is
//! the circuit's *AND depth*.  [`CircuitStats`] extracts those quantities;
//! the cost model in `dstress-core` turns them into the time and traffic
//! projections of Figures 3, 4 and 6.

use crate::ir::{Circuit, Gate, WireId};

/// Summary statistics of a circuit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CircuitStats {
    /// Number of input wires.
    pub inputs: usize,
    /// Number of output wires.
    pub outputs: usize,
    /// Number of AND gates (each costs one OT per ordered party pair in GMW).
    pub and_gates: usize,
    /// Number of XOR gates (free in GMW).
    pub xor_gates: usize,
    /// Number of NOT gates (free in GMW).
    pub not_gates: usize,
    /// Total gates including inputs and constants.
    pub total_gates: usize,
    /// AND depth: the longest chain of AND gates from any input to any
    /// output, which determines the number of GMW communication rounds.
    pub and_depth: usize,
}

impl CircuitStats {
    /// Computes statistics for a circuit.
    pub fn of(circuit: &Circuit) -> Self {
        let mut and_gates = 0;
        let mut xor_gates = 0;
        let mut not_gates = 0;
        // depth[w] = number of AND gates on the longest path ending at w.
        let mut depth = vec![0u32; circuit.len()];
        for (i, gate) in circuit.gates().enumerate() {
            let at = |w: WireId| depth[w as usize];
            depth[i] = match gate {
                Gate::Input(_) | Gate::ConstFalse | Gate::ConstTrue => 0,
                Gate::Xor(a, b) => {
                    xor_gates += 1;
                    at(a).max(at(b))
                }
                Gate::And(a, b) => {
                    and_gates += 1;
                    at(a).max(at(b)) + 1
                }
                Gate::Not(a) => {
                    not_gates += 1;
                    at(a)
                }
            };
        }
        let and_depth = circuit
            .outputs()
            .iter()
            .map(|&o| depth[o as usize] as usize)
            .max()
            .unwrap_or(0);
        CircuitStats {
            inputs: circuit.num_inputs(),
            outputs: circuit.outputs().len(),
            and_gates,
            xor_gates,
            not_gates,
            total_gates: circuit.len(),
            and_depth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;

    #[test]
    fn counts_gate_kinds() {
        let mut b = CircuitBuilder::new();
        let x = b.input();
        let y = b.input();
        let a1 = b.and(x, y);
        let x1 = b.xor(a1, y);
        let n1 = b.not(x1);
        let a2 = b.and(n1, a1);
        b.output(a2);
        let stats = CircuitStats::of(&b.build().unwrap());
        assert_eq!(stats.inputs, 2);
        assert_eq!(stats.outputs, 1);
        assert_eq!(stats.and_gates, 2);
        assert_eq!(stats.xor_gates, 1);
        assert_eq!(stats.not_gates, 1);
        assert_eq!(stats.and_depth, 2);
        assert_eq!(stats.total_gates, 6);
    }

    #[test]
    fn xor_only_circuit_has_zero_depth() {
        let mut b = CircuitBuilder::new();
        let x = b.input();
        let y = b.input();
        let o = b.xor(x, y);
        b.output(o);
        let stats = CircuitStats::of(&b.build().unwrap());
        assert_eq!(stats.and_depth, 0);
        assert_eq!(stats.and_gates, 0);
    }

    #[test]
    fn adder_depth_grows_linearly() {
        // Ripple-carry adders have AND depth proportional to the width.
        let widths = [8u32, 16, 32];
        let mut depths = Vec::new();
        for w in widths {
            let mut b = CircuitBuilder::new();
            let x = b.input_word(w);
            let y = b.input_word(w);
            let s = b.add(&x, &y);
            b.output_word(&s);
            depths.push(CircuitStats::of(&b.build().unwrap()).and_depth);
        }
        assert!(depths[0] < depths[1] && depths[1] < depths[2]);
    }

    #[test]
    fn empty_output_circuit() {
        let mut b = CircuitBuilder::new();
        let _ = b.input();
        let stats = CircuitStats::of(&b.build().unwrap());
        assert_eq!(stats.outputs, 0);
        assert_eq!(stats.and_depth, 0);
    }

    #[test]
    fn multiplier_dominates_adder() {
        let mut b = CircuitBuilder::new();
        let x = b.input_word(16);
        let y = b.input_word(16);
        let s = b.add(&x, &y);
        b.output_word(&s);
        let add_stats = CircuitStats::of(&b.build().unwrap());

        let mut b = CircuitBuilder::new();
        let x = b.input_word(16);
        let y = b.input_word(16);
        let p = b.mul_full(&x, &y);
        b.output_word(&p);
        let mul_stats = CircuitStats::of(&b.build().unwrap());

        assert!(mul_stats.and_gates > 8 * add_stats.and_gates);
        assert!(mul_stats.and_depth > add_stats.and_depth);
    }
}
