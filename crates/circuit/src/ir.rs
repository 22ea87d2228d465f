//! Circuit intermediate representation.
//!
//! A [`Circuit`] is a flat, topologically ordered list of gates.  Wire `i`
//! is the output of gate `i`; [`Gate::Input`] gates read the circuit's
//! inputs by index.  This representation is deliberately simple: the GMW
//! engine walks the gate list once per evaluation, and the statistics
//! module only needs gate counts and fan-in information.
//! [`Circuit::then`] composes two circuits in sequence.
//!
//! The layout is sized for circuits that grow with the graph (the
//! aggregation circuit reads every vertex's state): a wire id is a `u32`
//! from the builder through the layering to the GMW parties, the builder
//! and the circuit store each gate in 8 bytes (two `u32` words, one tag
//! bit on top of each) and hand out [`Gate`] values read from them, and a
//! constructed circuit holds its gate list, outputs and gadget trace at
//! their exact lengths.

use core::fmt;
use std::sync::OnceLock;

use crate::gadgets::{GadgetEvent, GadgetKind};
use crate::layers::CircuitLayers;

/// Identifier of a wire (the index of the gate that drives it).
///
/// A `u32`, which halves every gate and word against `usize`; a stored
/// gate keeps one tag bit on top of each operand word, so a circuit has
/// fewer than 2³¹ gates: the builder, [`Circuit::then`] and the
/// constructor go through one checked conversion, which panics at that
/// limit.  Index with `w as usize`.
pub type WireId = u32;

/// The top bit of a stored gate's words: set on the first word of an AND
/// gate, and on the second word of every gate with fewer than two
/// operands.  Wire ids stay below it.
const TAG: u32 = 1 << 31;

/// The id of the gate at position `index` of a gate list: the one
/// conversion every new wire id goes through.
///
/// # Panics
///
/// Panics if `index` is 2³¹ or more: it would not fit beside a stored
/// gate's tag bit.
pub(crate) fn wire_id(index: usize) -> WireId {
    WireId::try_from(index)
        .ok()
        .filter(|&w| w & TAG == 0)
        .expect("a circuit has fewer than 2^31 gates")
}

/// A single gate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Gate {
    /// The `n`-th circuit input (below the input count).
    Input(u32),
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

/// A gate as the builder and the circuit store it: two `u32` words.
///
/// * `Xor(a, b)` is `[a, b]` and `And(a, b)` is `[a | TAG, b]`: both
///   words' top bits are free, since operands are wire ids.
/// * Every other gate sets the second word's tag; its low bits say which
///   gate it is, and the first word holds the input index or the
///   negated wire (0 for a constant).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct PackedGate([u32; 2]);

// The second word's kinds for gates with fewer than two operands.
const INPUT: u32 = TAG;
const NOT: u32 = TAG | 1;
const CONST_FALSE: u32 = TAG | 2;
const CONST_TRUE: u32 = TAG | 3;

// The release circuit grows with N and its gate list is the largest part
// of a streamed release's heap: two words, where `Gate` needs three.
const _: () = assert!(std::mem::size_of::<PackedGate>() == 8);

impl PackedGate {
    /// Stores `gate`.  An XOR or AND operand at or past 2³¹ is stored as
    /// 2³¹ − 1: no gate can read that wire (its own id would be larger),
    /// so construction still refuses it, as a forward reference.
    #[inline]
    pub(crate) fn new(gate: Gate) -> PackedGate {
        let operand = |w: WireId| w.min(TAG - 1);
        PackedGate(match gate {
            Gate::Xor(a, b) => [operand(a), operand(b)],
            Gate::And(a, b) => [operand(a) | TAG, operand(b)],
            Gate::Input(n) => [n, INPUT],
            Gate::Not(a) => [a, NOT],
            Gate::ConstFalse => [0, CONST_FALSE],
            Gate::ConstTrue => [0, CONST_TRUE],
        })
    }

    /// The gate stored.
    #[inline]
    pub(crate) fn get(self) -> Gate {
        let [a, b] = self.0;
        if b & TAG == 0 {
            return if a & TAG == 0 {
                Gate::Xor(a, b)
            } else {
                Gate::And(a & !TAG, b)
            };
        }
        match b {
            INPUT => Gate::Input(a),
            NOT => Gate::Not(a),
            CONST_FALSE => Gate::ConstFalse,
            _ => Gate::ConstTrue,
        }
    }
}

impl fmt::Debug for PackedGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.get().fmt(f)
    }
}

/// Errors raised when constructing or validating circuits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CircuitError {
    /// A gate referenced a wire that has not been defined yet.
    ForwardReference {
        /// The gate index containing the bad reference.
        gate: usize,
        /// The referenced wire (2³¹ − 1 for an XOR or AND operand at or
        /// past 2³¹, which no gate can read).
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
    /// A gadget event names a wire past the gate list.  The trace is
    /// advisory for evaluation, but [`Circuit::then`] remaps every word
    /// it names, and the analyzer reads the wires it names.
    InvalidGadgetWire {
        /// The position of the event in the trace.
        event: usize,
        /// The wire it names.
        wire: WireId,
    },
    /// A layering scheduled `wire` as the other kind of gate than the
    /// circuit holds there — an AND gate among the free gates, or a free
    /// gate (or no gate at all) in an AND layer: the layering is not this
    /// circuit's.
    LayeringMismatch {
        /// The wire the layering misplaced.
        wire: WireId,
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
            CircuitError::InvalidGadgetWire { event, wire } => {
                write!(f, "gadget event {event} names undefined wire {wire}")
            }
            CircuitError::LayeringMismatch { wire } => {
                write!(
                    f,
                    "the layering misplaces wire {wire}: not this circuit's layering"
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
    gates: Vec<PackedGate>,
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
    ///
    /// # Panics
    ///
    /// Panics if the gate list has 2³¹ gates or more (see [`WireId`]).
    pub fn new(
        gates: Vec<Gate>,
        num_inputs: usize,
        outputs: Vec<WireId>,
    ) -> Result<Self, CircuitError> {
        Circuit::with_gadgets(gates, num_inputs, outputs, Vec::new())
    }

    /// Creates a circuit carrying a word-level gadget trace (recorded by
    /// [`crate::CircuitBuilder`]), with the same validation as
    /// [`Circuit::new`] plus the trace's: every wire an event names must
    /// exist.  The gates are stored in 8 bytes each, and the lists kept
    /// at their exact lengths for life.
    ///
    /// # Errors
    ///
    /// See [`Circuit::new`]; [`CircuitError::InvalidGadgetWire`] for an
    /// event naming a wire past the gate list.
    ///
    /// # Panics
    ///
    /// As [`Circuit::new`].
    pub fn with_gadgets(
        gates: Vec<Gate>,
        num_inputs: usize,
        outputs: Vec<WireId>,
        gadgets: Vec<GadgetEvent>,
    ) -> Result<Self, CircuitError> {
        let gates = gates.into_iter().map(PackedGate::new).collect();
        Circuit::from_packed(gates, num_inputs, outputs, gadgets)
    }

    /// The one door behind [`Circuit::with_gadgets`] and
    /// [`crate::CircuitBuilder::build`], on a stored gate list (the
    /// builder's, so a built circuit is never a `Vec<Gate>`): validates
    /// as [`Circuit::with_gadgets`] documents and drops the parts' growth
    /// slack, so a circuit holds its lists at their exact lengths for
    /// life.
    pub(crate) fn from_packed(
        mut gates: Vec<PackedGate>,
        num_inputs: usize,
        mut outputs: Vec<WireId>,
        mut gadgets: Vec<GadgetEvent>,
    ) -> Result<Self, CircuitError> {
        // Fewer than 2^31 gates, so every wire and the gate count fit a
        // `WireId`: the conversion panics otherwise.
        wire_id(gates.len());
        for (idx, gate) in gates.iter().map(|g| g.get()).enumerate() {
            let check = |wire: WireId| -> Result<(), CircuitError> {
                if wire as usize >= idx {
                    Err(CircuitError::ForwardReference { gate: idx, wire })
                } else {
                    Ok(())
                }
            };
            match gate {
                Gate::Input(n) => {
                    if n as usize >= num_inputs {
                        return Err(CircuitError::InputIndexOutOfRange {
                            gate: idx,
                            index: n as usize,
                            num_inputs,
                        });
                    }
                }
                Gate::ConstFalse | Gate::ConstTrue => {}
                Gate::Xor(a, b) | Gate::And(a, b) => {
                    check(a)?;
                    check(b)?;
                }
                Gate::Not(a) => check(a)?,
            }
        }
        let defined = |wire: WireId| (wire as usize) < gates.len();
        if let Some(&wire) = outputs.iter().find(|&&o| !defined(o)) {
            return Err(CircuitError::InvalidOutput { wire });
        }
        for (event, e) in gadgets.iter().enumerate() {
            let mut named = e.inputs.iter().flatten().chain(&e.output);
            if let Some(&wire) = named.find(|&&w| !defined(w)) {
                return Err(CircuitError::InvalidGadgetWire { event, wire });
            }
        }
        gates.shrink_to_fit();
        outputs.shrink_to_fit();
        gadgets.shrink_to_fit();
        Ok(Circuit {
            gates,
            num_inputs,
            outputs,
            gadgets,
            layers: OnceLock::new(),
        })
    }

    /// The gate driving `wire`.
    ///
    /// # Panics
    ///
    /// Panics if `wire` is not a wire of this circuit.
    #[inline]
    pub fn gate(&self, wire: WireId) -> Gate {
        self.gates[wire as usize].get()
    }

    /// The gates in topological order: gate `i` drives wire `i`.
    pub fn gates(&self) -> impl ExactSizeIterator<Item = Gate> + DoubleEndedIterator + Clone + '_ {
        self.gates.iter().map(|g| g.get())
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
        self.gates()
            .filter(|g| matches!(g, Gate::And(_, _)))
            .count()
    }

    /// Number of XOR gates.
    pub fn xor_gates(&self) -> usize {
        self.gates()
            .filter(|g| matches!(g, Gate::Xor(_, _)))
            .count()
    }

    /// The two input wires of the AND gate driving `wire`: how a
    /// layer-at-a-time evaluator reads an AND layer's operands from the
    /// gate list.
    ///
    /// # Errors
    ///
    /// [`CircuitError::LayeringMismatch`] if `wire` is not an AND gate of
    /// this circuit — the layering naming it is another circuit's.
    #[inline]
    pub fn and_inputs(&self, wire: WireId) -> Result<(WireId, WireId), CircuitError> {
        match self.gates.get(wire as usize).map(|g| g.get()) {
            Some(Gate::And(a, b)) => Ok((a, b)),
            _ => Err(CircuitError::LayeringMismatch { wire }),
        }
    }

    /// The circuit's depth layering ([`CircuitLayers::of`]), computed once
    /// and shared by every execution of this circuit — a release runs the
    /// same update circuit once per vertex step, and the layering depends
    /// on nothing but the gate list.
    ///
    /// # Panics
    ///
    /// As [`CircuitLayers::of`]: at 2¹⁶ AND layers or more.
    pub fn layers(&self) -> &CircuitLayers {
        self.layers.get_or_init(|| CircuitLayers::of(self))
    }

    /// The word-level gadget trace the builder recorded: one event per
    /// top-level word gadget, for the analyzer.  Empty for circuits
    /// assembled gate by gate and for those that dropped it
    /// ([`Circuit::without_gadgets`]).  Evaluation and the GMW engine
    /// never consult it.
    pub fn gadgets(&self) -> &[GadgetEvent] {
        &self.gadgets
    }

    /// This circuit without its gadget trace: the gate list, inputs and
    /// outputs alone, for a circuit that is only ever run, never
    /// analysed.
    pub fn without_gadgets(mut self) -> Circuit {
        self.gadgets = Vec::new();
        self
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
    /// place, so composing onto a large circuit does not copy it; every
    /// list grows by exactly what it gains.  Both circuits being valid
    /// (their traces included), the composition is valid by construction.
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
        let bound_input =
            |w: WireId| matches!(next.gate(w), Gate::Input(k) if (k as usize) < bound);
        // remap[w]: the wire carrying `next`'s wire `w` in the composition.
        let mut remap: Vec<WireId> = Vec::with_capacity(next.len());
        self.gates.reserve_exact(next.len().saturating_sub(bound));
        for gate in next.gates() {
            let gate = match gate {
                Gate::Input(k) if (k as usize) < bound => {
                    remap.push(self.outputs[k as usize]);
                    continue;
                }
                Gate::Input(k) => Gate::Input(wire_id(self.num_inputs + (k as usize - bound))),
                Gate::ConstFalse | Gate::ConstTrue => gate,
                Gate::Xor(a, b) => Gate::Xor(remap[a as usize], remap[b as usize]),
                Gate::And(a, b) => Gate::And(remap[a as usize], remap[b as usize]),
                Gate::Not(a) => Gate::Not(remap[a as usize]),
            };
            remap.push(wire_id(self.gates.len()));
            self.gates.push(PackedGate::new(gate));
        }
        let word = |w: &[WireId]| w.iter().map(|&w| remap[w as usize]).collect();
        let kept = |e: &&GadgetEvent| {
            !(e.kind == GadgetKind::InputWord && e.output.iter().any(|&w| bound_input(w)))
        };
        self.gadgets
            .reserve_exact(next.gadgets.iter().filter(kept).count());
        self.gadgets
            .extend(next.gadgets.iter().filter(kept).map(|e| GadgetEvent {
                kind: e.kind.clone(),
                inputs: e.inputs.iter().map(|w| word(w)).collect(),
                output: word(&e.output),
            }));
        self.outputs.reserve_exact(next.outputs.len());
        self.outputs
            .extend(next.outputs.iter().map(|&o| remap[o as usize]));
        self.num_inputs += next.num_inputs - bound;
        self.layers = OnceLock::new();
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// Two inputs and their XOR, with a trace naming `wire` as the
    /// output of one `Add` event.
    fn with_add_event(wire: WireId) -> Result<Circuit, CircuitError> {
        let gates = vec![Gate::Input(0), Gate::Input(1), Gate::Xor(0, 1)];
        let event = GadgetEvent {
            kind: GadgetKind::Add,
            inputs: vec![vec![0], vec![1]],
            output: vec![wire],
        };
        Circuit::with_gadgets(gates, 2, vec![2], vec![event])
    }

    #[test]
    fn gadget_event_naming_an_undefined_wire_is_rejected() {
        let err = with_add_event(7).unwrap_err();
        assert_eq!(err, CircuitError::InvalidGadgetWire { event: 0, wire: 7 });
        assert!(err.to_string().contains("gadget event 0"));
        // The first wire past the gate list is already undefined, and an
        // event's input words are checked like its output.
        assert!(with_add_event(3).is_err());
        assert!(with_add_event(2).is_ok());
        let gates = vec![Gate::Input(0), Gate::Not(0)];
        let event = GadgetEvent {
            kind: GadgetKind::NotWord,
            inputs: vec![vec![5]],
            output: vec![1],
        };
        assert_eq!(
            Circuit::with_gadgets(gates, 1, vec![1], vec![event]).unwrap_err(),
            CircuitError::InvalidGadgetWire { event: 0, wire: 5 }
        );
    }

    #[test]
    fn composition_remaps_a_trace_up_to_its_last_wire() {
        // A trace naming wire 7 of a 3-gate circuit once made `then`
        // index its remap table out of bounds; the constructor refuses it
        // now, and a trace naming the last gate composes.
        let mut a = crate::CircuitBuilder::new();
        let x = a.input();
        let nx = a.not(x);
        a.output(nx);
        let a = a.build().unwrap();
        let b = with_add_event(2).unwrap();
        let composed = a.then(&b).unwrap();
        // b's XOR is gate 3 of the composition, its first input a's NOT
        // (wire 1), its second the composition's new input (gate 2).
        assert_eq!(composed.gate(3), Gate::Xor(1, 2));
        let carried = composed.gadgets().last().unwrap();
        assert_eq!(carried.inputs, vec![vec![1], vec![2]]);
        assert_eq!(carried.output, vec![3]);
        assert!(with_add_event(7).is_err());
    }

    #[test]
    fn constructed_and_composed_lists_have_no_slack() {
        let word = |b: &mut crate::CircuitBuilder| b.input_word(13);
        let mut b = crate::CircuitBuilder::new();
        let (x, y) = (word(&mut b), word(&mut b));
        let sum = b.add(&x, &y);
        b.output_word(&sum);
        let a = b.build().unwrap();
        let exact = |c: &Circuit| {
            c.gates.capacity() == c.gates.len()
                && c.outputs.capacity() == c.outputs.len()
                && c.gadgets.capacity() == c.gadgets.len()
        };
        assert!(exact(&a));
        let mut b = crate::CircuitBuilder::new();
        let (x, y) = (word(&mut b), word(&mut b));
        let lt = b.lt_unsigned(&x, &y);
        b.output(lt);
        let composed = a.then(&b.build().unwrap()).unwrap();
        assert!(exact(&composed));
    }

    proptest! {
        #[test]
        fn every_gate_is_stored_and_read_back_unchanged(a in 0..TAG, b in 0..TAG) {
            // The drawn operands, then each pair of 0 and the largest id.
            let edges = [(0, 0), (0, TAG - 1), (TAG - 1, 0), (TAG - 1, TAG - 1)];
            for (a, b) in std::iter::once((a, b)).chain(edges) {
                for gate in [
                    Gate::Input(a),
                    Gate::ConstFalse,
                    Gate::ConstTrue,
                    Gate::Xor(a, b),
                    Gate::And(a, b),
                    Gate::Not(a),
                ] {
                    prop_assert_eq!(PackedGate::new(gate).get(), gate);
                }
            }
        }
    }

    #[test]
    fn an_operand_on_the_tag_bit_is_a_forward_reference() {
        for gate in [Gate::Xor(0, TAG), Gate::And(u32::MAX, 0)] {
            let err = Circuit::new(vec![Gate::Input(0), gate], 1, vec![1]).unwrap_err();
            assert_eq!(
                err,
                CircuitError::ForwardReference {
                    gate: 1,
                    wire: TAG - 1
                }
            );
        }
    }

    #[test]
    #[should_panic(expected = "fewer than 2^31 gates")]
    fn wire_id_refuses_the_tag_bit() {
        wire_id(1 << 31);
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
