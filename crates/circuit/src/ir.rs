//! Circuit intermediate representation.
//!
//! A [`Circuit`] is a flat, topologically ordered list of gates.  Wire `i`
//! is the output of gate `i`; [`Gate::Input`] gates read the circuit's
//! inputs by index.  This representation is deliberately simple: the GMW
//! engine walks the gate list once per evaluation, and the statistics
//! module only needs gate counts and fan-in information.
//! [`Circuit::then`] composes two circuits in sequence.

use core::fmt;
use std::sync::OnceLock;

use crate::gadgets::{GadgetEvent, GadgetKind};
use crate::layers::CircuitLayers;

/// Identifier of a wire (the index of the gate that drives it).
pub type WireId = usize;

/// A single gate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Gate {
    /// The `n`-th circuit input.
    Input(usize),
    /// Constant false.
    ConstFalse,
    /// Constant true.
    ConstTrue,
    /// Exclusive OR of two wires (free in GMW).
    Xor(WireId, WireId),
    /// Logical AND of two wires (requires an OT round in GMW).
    And(WireId, WireId),
    /// Negation of a wire (free in GMW: only one party flips its share).
    Not(WireId),
}

/// Errors raised when constructing or validating circuits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CircuitError {
    /// A gate referenced a wire that has not been defined yet.
    ForwardReference {
        /// The gate index containing the bad reference.
        gate: usize,
        /// The referenced wire.
        wire: WireId,
    },
    /// The number of provided input values does not match the circuit.
    InputCountMismatch {
        /// Inputs the circuit declares.
        expected: usize,
        /// Inputs provided by the caller.
        actual: usize,
    },
    /// An output referenced a non-existent wire.
    InvalidOutput {
        /// The offending wire id.
        wire: WireId,
    },
    /// An input gate referenced an input index at or beyond the declared
    /// input count.  Previously this was unchecked and evaluation panicked
    /// on an out-of-bounds index; validation now rejects it up front so
    /// the analyzer and the engine can report the malformed circuit.
    InputIndexOutOfRange {
        /// The gate index of the offending [`Gate::Input`].
        gate: usize,
        /// The referenced input index.
        index: usize,
        /// The circuit's declared input count.
        num_inputs: usize,
    },
    /// [`Circuit::then`] was asked to feed a circuit's outputs into a
    /// circuit with fewer inputs than that.
    CompositionArity {
        /// Outputs of the first circuit.
        outputs: usize,
        /// Inputs of the circuit they were to feed.
        inputs: usize,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::ForwardReference { gate, wire } => {
                write!(f, "gate {gate} references undefined wire {wire}")
            }
            CircuitError::InputCountMismatch { expected, actual } => {
                write!(f, "circuit expects {expected} inputs, got {actual}")
            }
            CircuitError::InvalidOutput { wire } => write!(f, "invalid output wire {wire}"),
            CircuitError::InputIndexOutOfRange {
                gate,
                index,
                num_inputs,
            } => {
                write!(
                    f,
                    "gate {gate} reads input {index} but the circuit declares {num_inputs} inputs"
                )
            }
            CircuitError::CompositionArity { outputs, inputs } => {
                write!(
                    f,
                    "cannot feed {outputs} outputs into a circuit of {inputs} inputs"
                )
            }
        }
    }
}

impl std::error::Error for CircuitError {}

/// A Boolean circuit.
#[derive(Clone, Debug)]
pub struct Circuit {
    gates: Vec<Gate>,
    num_inputs: usize,
    outputs: Vec<WireId>,
    gadgets: Vec<GadgetEvent>,
    /// The depth layering, computed on first use (see [`Circuit::layers`]).
    layers: OnceLock<CircuitLayers>,
}

impl Circuit {
    /// Creates a circuit from parts, validating the topological order.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] if any gate references a wire at or after
    /// its own position, reads a non-existent input index, or if an
    /// output references a non-existent wire.
    pub fn new(
        gates: Vec<Gate>,
        num_inputs: usize,
        outputs: Vec<WireId>,
    ) -> Result<Self, CircuitError> {
        Circuit::with_gadgets(gates, num_inputs, outputs, Vec::new())
    }

    /// Creates a circuit carrying a word-level gadget trace (recorded by
    /// [`crate::CircuitBuilder`]), with the same validation as
    /// [`Circuit::new`].
    ///
    /// # Errors
    ///
    /// See [`Circuit::new`].
    pub fn with_gadgets(
        gates: Vec<Gate>,
        num_inputs: usize,
        outputs: Vec<WireId>,
        gadgets: Vec<GadgetEvent>,
    ) -> Result<Self, CircuitError> {
        for (idx, gate) in gates.iter().enumerate() {
            let check = |wire: WireId| -> Result<(), CircuitError> {
                if wire >= idx {
                    Err(CircuitError::ForwardReference { gate: idx, wire })
                } else {
                    Ok(())
                }
            };
            match gate {
                Gate::Input(n) => {
                    if *n >= num_inputs {
                        return Err(CircuitError::InputIndexOutOfRange {
                            gate: idx,
                            index: *n,
                            num_inputs,
                        });
                    }
                }
                Gate::ConstFalse | Gate::ConstTrue => {}
                Gate::Xor(a, b) | Gate::And(a, b) => {
                    check(*a)?;
                    check(*b)?;
                }
                Gate::Not(a) => check(*a)?,
            }
        }
        for &o in &outputs {
            if o >= gates.len() {
                return Err(CircuitError::InvalidOutput { wire: o });
            }
        }
        Ok(Circuit {
            gates,
            num_inputs,
            outputs,
            gadgets,
            layers: OnceLock::new(),
        })
    }

    /// The gate list, in topological order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of input wires.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// The output wire list.
    pub fn outputs(&self) -> &[WireId] {
        &self.outputs
    }

    /// Total number of gates (including inputs and constants).
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Returns `true` if the circuit has no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Number of AND gates — the only gates that cost communication in GMW.
    pub fn and_gates(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| matches!(g, Gate::And(_, _)))
            .count()
    }

    /// Number of XOR gates.
    pub fn xor_gates(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| matches!(g, Gate::Xor(_, _)))
            .count()
    }

    /// The circuit's depth layering ([`CircuitLayers::of`]), computed once
    /// and shared by every execution of this circuit — a release runs the
    /// same update circuit once per vertex step, and the layering depends
    /// on nothing but the gate list.
    pub fn layers(&self) -> &CircuitLayers {
        self.layers.get_or_init(|| CircuitLayers::of(self))
    }

    /// The word-level gadget trace recorded by the builder (empty for
    /// circuits assembled gate by gate).  Advisory only: evaluation and
    /// the GMW engine never consult it.
    pub fn gadgets(&self) -> &[GadgetEvent] {
        &self.gadgets
    }

    /// Sequential composition: `next` evaluated on this circuit's
    /// outputs.  `next`'s first `self.outputs().len()` inputs are bound
    /// to this circuit's outputs, in order; its remaining inputs become
    /// new inputs, numbered after this circuit's.  The outputs are this
    /// circuit's followed by `next`'s.  The gadget trace is both traces,
    /// `next`'s with its wires remapped, less any `InputWord` event of
    /// `next` over a bound input (those wires are no longer inputs).
    ///
    /// Consumes `self` and appends `next`'s gates to its gate list in
    /// place, so composing onto a large circuit does not copy it.  Both
    /// circuits being valid, the composition is valid by construction.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::CompositionArity`] if `next` has fewer
    /// inputs than this circuit has outputs.
    pub fn then(mut self, next: &Circuit) -> Result<Circuit, CircuitError> {
        let bound = self.outputs.len();
        if next.num_inputs < bound {
            return Err(CircuitError::CompositionArity {
                outputs: bound,
                inputs: next.num_inputs,
            });
        }
        let bound_input = |w: WireId| matches!(next.gates[w], Gate::Input(k) if k < bound);
        // remap[w]: the wire carrying `next`'s wire `w` in the composition.
        let mut remap: Vec<WireId> = Vec::with_capacity(next.len());
        self.gates.reserve_exact(next.len().saturating_sub(bound));
        for &gate in &next.gates {
            let gate = match gate {
                Gate::Input(k) if k < bound => {
                    remap.push(self.outputs[k]);
                    continue;
                }
                Gate::Input(k) => Gate::Input(self.num_inputs + (k - bound)),
                Gate::ConstFalse | Gate::ConstTrue => gate,
                Gate::Xor(a, b) => Gate::Xor(remap[a], remap[b]),
                Gate::And(a, b) => Gate::And(remap[a], remap[b]),
                Gate::Not(a) => Gate::Not(remap[a]),
            };
            remap.push(self.gates.len());
            self.gates.push(gate);
        }
        let word = |w: &[WireId]| w.iter().map(|&w| remap[w]).collect();
        let kept = next.gadgets.iter().filter(|e| {
            !(e.kind == GadgetKind::InputWord && e.output.iter().any(|&w| bound_input(w)))
        });
        self.gadgets.extend(kept.map(|e| GadgetEvent {
            kind: e.kind.clone(),
            inputs: e.inputs.iter().map(|w| word(w)).collect(),
            output: word(&e.output),
        }));
        self.outputs.extend(next.outputs.iter().map(|&o| remap[o]));
        self.num_inputs += next.num_inputs - bound;
        self.layers = OnceLock::new();
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_circuit_constructs() {
        // out = (in0 AND in1) XOR in2
        let gates = vec![
            Gate::Input(0),
            Gate::Input(1),
            Gate::Input(2),
            Gate::And(0, 1),
            Gate::Xor(3, 2),
        ];
        let c = Circuit::new(gates, 3, vec![4]).unwrap();
        assert_eq!(c.len(), 5);
        assert_eq!(c.num_inputs(), 3);
        assert_eq!(c.and_gates(), 1);
        assert_eq!(c.xor_gates(), 1);
        assert!(!c.is_empty());
        assert_eq!(c.outputs(), &[4]);
    }

    #[test]
    fn forward_reference_is_rejected() {
        let gates = vec![Gate::Input(0), Gate::And(0, 5)];
        let err = Circuit::new(gates, 1, vec![1]).unwrap_err();
        assert!(matches!(
            err,
            CircuitError::ForwardReference { gate: 1, wire: 5 }
        ));
    }

    #[test]
    fn self_reference_is_rejected() {
        let gates = vec![Gate::Input(0), Gate::Not(1)];
        assert!(Circuit::new(gates, 1, vec![1]).is_err());
    }

    #[test]
    fn invalid_output_is_rejected() {
        let gates = vec![Gate::Input(0)];
        let err = Circuit::new(gates, 1, vec![3]).unwrap_err();
        assert_eq!(err, CircuitError::InvalidOutput { wire: 3 });
    }

    #[test]
    fn input_index_out_of_range_is_rejected() {
        // Declares one input but reads input index 3: previously this
        // passed validation and panicked at evaluation time.
        let gates = vec![Gate::Input(0), Gate::Input(3)];
        let err = Circuit::new(gates, 1, vec![1]).unwrap_err();
        assert_eq!(
            err,
            CircuitError::InputIndexOutOfRange {
                gate: 1,
                index: 3,
                num_inputs: 1
            }
        );
        assert!(err.to_string().contains("input 3"));
    }

    #[test]
    fn error_display() {
        let e = CircuitError::InputCountMismatch {
            expected: 4,
            actual: 2,
        };
        assert!(e.to_string().contains('4'));
        assert!(CircuitError::InvalidOutput { wire: 9 }
            .to_string()
            .contains('9'));
        assert!(CircuitError::ForwardReference { gate: 1, wire: 2 }
            .to_string()
            .contains("undefined"));
    }
}
