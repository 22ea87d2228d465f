//! Depth layering of circuits for round-batched GMW.
//!
//! GMW's wide-area cost is dominated by protocol *rounds*: every AND gate
//! needs one oblivious-transfer interaction per party pair, but AND gates
//! that do not depend on each other can share a single message exchange.
//! [`CircuitLayers`] partitions a flat, topologically ordered gate list
//! into *AND layers* — maximal sets of AND gates whose inputs are all
//! available before the layer runs — plus a schedule placing every free
//! gate (XOR/NOT/input/constant) into the earliest gap between layers at
//! which its inputs exist.  A round-batched evaluator then needs exactly
//! one exchange per pair per layer, so its round count is the circuit's
//! AND depth instead of its AND-gate count.  [`CircuitLayers::serial`] is
//! the other extreme — one AND gate per layer, the flat walk — for
//! measuring what the batching saves.
//!
//! The layer of a wire is defined inductively: inputs and constants sit at
//! layer 0, XOR/NOT inherit the maximum layer of their inputs, and an AND
//! gate sits one layer above the maximum layer of its inputs.  Layers are
//! computed over *all* gates (not only those reachable from an output),
//! because the GMW engine evaluates every gate in the list — which is why
//! `tests/gadget_costs.rs` holds every gadget to zero AND gates that no
//! output reads.
//!
//! ## Example
//!
//! ```
//! use dstress_circuit::{evaluate_layered, evaluate_wires, CircuitBuilder, CircuitLayers};
//!
//! // Two independent ANDs share a layer; the third depends on both.
//! let mut b = CircuitBuilder::new();
//! let (w, x) = (b.input(), b.input());
//! let (y, z) = (b.input(), b.input());
//! let p = b.and(w, x);
//! let q = b.and(y, z);
//! let r = b.and(p, q);
//! b.output(r);
//! let circuit = b.build().unwrap();
//!
//! let layers = CircuitLayers::of(&circuit);
//! assert_eq!(layers.rounds(), 2); // 3 AND gates, but only 2 layers
//! assert_eq!(layers.and_layers()[0], vec![p, q]);
//! assert_eq!(layers.and_layers()[1], vec![r]);
//!
//! // The layered schedule computes the same wire values as the flat walk.
//! let inputs = [true, true, true, false];
//! assert_eq!(
//!     evaluate_layered(&circuit, &layers, &inputs).unwrap(),
//!     evaluate_wires(&circuit, &inputs).unwrap(),
//! );
//! ```

use crate::ir::{Circuit, CircuitError, Gate, WireId};

/// The depth layering of a circuit: AND gates grouped into rounds, free
/// gates scheduled into the gaps.
///
/// It holds wire ids only — the AND layers and the free-gate schedule,
/// one `u32` per gate of the circuit — and an evaluator reads every
/// operand from the circuit's gate list ([`Circuit::and_inputs`]), so a
/// layering costs 4 B per gate beside the 8 B gates it schedules.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CircuitLayers {
    /// `and_layers[r]` holds the AND-gate wires of round `r + 1`, in
    /// ascending (topological) wire order.  Every layer is non-empty.
    and_layers: Vec<Vec<WireId>>,
    /// `free_schedule[r]` holds the non-AND gates that become computable
    /// once AND round `r` has completed (`r = 0` means "before any
    /// round"), in ascending wire order.  Has `rounds() + 1` entries.
    free_schedule: Vec<Vec<WireId>>,
    /// The XOR and NOT gates among them, counted in the same pass.
    xor_not_gates: usize,
}

/// The depth of an AND gate whose deeper operand sits at `below`: the one
/// place a layer number grows.  Depths are `u16`, which halves the
/// layering pass's one per-gate scratch against `u32`, so a layered
/// circuit has fewer than 2¹⁶ AND layers (every shipped circuit has
/// fewer than 600).
///
/// # Panics
///
/// Panics if the gate would open AND layer 2¹⁶.
fn and_depth(below: u16) -> u16 {
    below
        .checked_add(1)
        .expect("a layered circuit has fewer than 2^16 AND layers")
}

/// One empty vector per layer, each with room for exactly its width.
fn sized<T>(widths: &[usize]) -> Vec<Vec<T>> {
    widths.iter().map(|&w| Vec::with_capacity(w)).collect()
}

/// Whether a gate is an XOR or a NOT: the free gates that do work.
fn is_xor_or_not(gate: Gate) -> bool {
    matches!(gate, Gate::Xor(..) | Gate::Not(_))
}

impl CircuitLayers {
    /// Computes the layering of a circuit.
    ///
    /// # Panics
    ///
    /// Panics if the circuit's AND depth is 2¹⁶ or more: a layering keeps
    /// each gate's depth in a `u16` while it is made.
    pub fn of(circuit: &Circuit) -> Self {
        // layer[w] = number of AND gates on the longest path ending at w,
        // counting w itself if it is an AND gate.  A first pass sizes
        // every layer, so the vectors below are allocated exactly once at
        // their final length — a circuit keeps its layering for life
        // ([`Circuit::layers`]), and growth slack would stay with it.
        let mut layer: Vec<u16> = vec![0; circuit.len()];
        let mut and_widths: Vec<usize> = Vec::new();
        let mut free_widths: Vec<usize> = vec![0];
        let mut xor_not_gates = 0;
        for (i, gate) in circuit.gates().enumerate() {
            let depth = |w: WireId| layer[w as usize];
            let l = match gate {
                Gate::Input(_) | Gate::ConstFalse | Gate::ConstTrue => 0,
                Gate::Xor(a, b) => depth(a).max(depth(b)),
                Gate::Not(a) => depth(a),
                Gate::And(a, b) => and_depth(depth(a).max(depth(b))),
            };
            layer[i] = l;
            let l = usize::from(l);
            if matches!(gate, Gate::And(_, _)) {
                if and_widths.len() < l {
                    and_widths.resize(l, 0);
                    free_widths.resize(l + 1, 0);
                }
                and_widths[l - 1] += 1;
            } else {
                // A free gate's layer never exceeds the deepest AND layer.
                free_widths[l] += 1;
                xor_not_gates += usize::from(is_xor_or_not(gate));
            }
        }
        let mut and_layers: Vec<Vec<WireId>> = sized(&and_widths);
        let mut free_schedule: Vec<Vec<WireId>> = sized(&free_widths);
        for (w, (gate, &l)) in (0..).zip(circuit.gates().zip(&layer)) {
            let l = usize::from(l);
            if matches!(gate, Gate::And(_, _)) {
                and_layers[l - 1].push(w);
            } else {
                free_schedule[l].push(w);
            }
        }
        CircuitLayers {
            and_layers,
            free_schedule,
            xor_not_gates,
        }
    }

    /// The serial layering of a circuit: every AND gate alone in a layer
    /// of its own, in wire order, and every free gate scheduled right
    /// after the last AND gate before it — the flat gate walk, one AND
    /// gate per round.  A round-batched evaluator run over it makes one
    /// exchange per AND gate.
    pub fn serial(circuit: &Circuit) -> Self {
        let mut layers = CircuitLayers {
            and_layers: Vec::new(),
            free_schedule: Vec::new(),
            xor_not_gates: 0,
        };
        // The free gates since the last AND gate.
        let mut gap = Vec::new();
        for (w, gate) in (0..).zip(circuit.gates()) {
            if matches!(gate, Gate::And(_, _)) {
                layers.and_layers.push(vec![w]);
                layers.free_schedule.push(std::mem::take(&mut gap));
            } else {
                gap.push(w);
                layers.xor_not_gates += usize::from(is_xor_or_not(gate));
            }
        }
        layers.free_schedule.push(gap);
        layers
    }

    /// Number of AND rounds (the circuit's AND depth over all gates).
    pub fn rounds(&self) -> usize {
        self.and_layers.len()
    }

    /// The AND gates of each round, ascending wire order within a round.
    pub fn and_layers(&self) -> &[Vec<WireId>] {
        &self.and_layers
    }

    /// The free-gate schedule: entry `r` lists the gates computable after
    /// AND round `r` (entry 0 before any round).  Always `rounds() + 1`
    /// entries.
    pub fn free_schedule(&self) -> &[Vec<WireId>] {
        &self.free_schedule
    }

    /// Total AND gates across all layers.
    pub fn and_gates(&self) -> usize {
        self.and_layers.iter().map(Vec::len).sum()
    }

    /// The XOR and NOT gates of the circuit (inputs and constants are
    /// free gates too, but they compute nothing), counted while the
    /// layering was made: a GMW execution charges them without walking
    /// the gate list.
    pub fn xor_not_gates(&self) -> usize {
        self.xor_not_gates
    }
}

/// Evaluates a circuit by the layered schedule and returns the value on
/// every wire.
///
/// This is the plaintext reference for the round-batched GMW evaluator:
/// free gates run in schedule order, each AND layer runs as one batch.
/// The result must always equal [`crate::eval::evaluate_wires`] on the
/// flat gate walk (a property test in this module asserts it on random
/// circuits).
///
/// # Errors
///
/// Returns [`CircuitError::InputCountMismatch`] if the number of inputs is
/// wrong, and [`CircuitError::LayeringMismatch`] if `layers` is not a
/// layering of `circuit` (it schedules an AND gate among the free gates,
/// or a wire that is not an AND gate in an AND layer).
pub fn evaluate_layered(
    circuit: &Circuit,
    layers: &CircuitLayers,
    inputs: &[bool],
) -> Result<Vec<bool>, CircuitError> {
    if inputs.len() != circuit.num_inputs() {
        return Err(CircuitError::InputCountMismatch {
            expected: circuit.num_inputs(),
            actual: inputs.len(),
        });
    }
    let mut values = vec![false; circuit.len()];
    for round in 0..=layers.rounds() {
        for &w in &layers.free_schedule()[round] {
            let value = |w: WireId| values[w as usize];
            values[w as usize] = match circuit.gate(w) {
                Gate::Input(n) => inputs[n as usize],
                Gate::ConstFalse => false,
                Gate::ConstTrue => true,
                Gate::Xor(a, b) => value(a) ^ value(b),
                Gate::Not(a) => !value(a),
                Gate::And(_, _) => return Err(CircuitError::LayeringMismatch { wire: w }),
            };
        }
        if round < layers.rounds() {
            for &w in &layers.and_layers()[round] {
                let (a, b) = circuit.and_inputs(w)?;
                values[w as usize] = values[a as usize] && values[b as usize];
            }
        }
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::eval::evaluate_wires;
    use crate::stats::CircuitStats;
    use proptest::prelude::*;

    #[test]
    fn independent_ands_share_a_layer() {
        // 32 independent AND gates: one layer of 32 gates.
        let mut b = CircuitBuilder::new();
        let mut outs = Vec::new();
        for _ in 0..32 {
            let x = b.input();
            let y = b.input();
            outs.push(b.and(x, y));
        }
        for o in outs {
            b.output(o);
        }
        let circuit = b.build().unwrap();
        let layers = CircuitLayers::of(&circuit);
        assert_eq!(layers.rounds(), 1);
        assert_eq!(layers.and_layers()[0].len(), 32);
        assert_eq!(layers.and_gates(), 32);
        assert_eq!(layers.free_schedule().len(), 2);
    }

    #[test]
    fn dependent_ands_stack_into_layers() {
        let mut b = CircuitBuilder::new();
        let x = b.input();
        let mut acc = b.input();
        for _ in 0..5 {
            acc = b.and(acc, x);
        }
        b.output(acc);
        let circuit = b.build().unwrap();
        let layers = CircuitLayers::of(&circuit);
        assert_eq!(layers.rounds(), 5);
        assert!(layers.and_layers().iter().all(|layer| layer.len() == 1));
    }

    #[test]
    fn free_gates_between_layers_are_scheduled_late_enough() {
        // x XOR (a AND b) can only run after round 1.
        let mut b = CircuitBuilder::new();
        let x = b.input();
        let a = b.input();
        let bb = b.input();
        let and = b.and(a, bb);
        let xor = b.xor(x, and);
        b.output(xor);
        let circuit = b.build().unwrap();
        let layers = CircuitLayers::of(&circuit);
        assert_eq!(layers.rounds(), 1);
        assert!(layers.free_schedule()[0].contains(&x));
        assert!(layers.free_schedule()[1].contains(&xor));
    }

    #[test]
    fn layers_cover_unreachable_gates() {
        // A deep AND chain that never feeds an output still gets layers:
        // the GMW engine evaluates every gate in the list.
        let mut b = CircuitBuilder::new();
        let x = b.input();
        let y = b.input();
        let dead1 = b.and(x, y);
        let _dead2 = b.and(dead1, y);
        let live = b.xor(x, y);
        b.output(live);
        let circuit = b.build().unwrap();
        let layers = CircuitLayers::of(&circuit);
        assert_eq!(layers.rounds(), 2);
        assert_eq!(layers.and_gates(), 2);
    }

    #[test]
    fn xor_only_circuit_has_zero_rounds() {
        let mut b = CircuitBuilder::new();
        let x = b.input();
        let y = b.input();
        let o = b.xor(x, y);
        b.output(o);
        let circuit = b.build().unwrap();
        let layers = CircuitLayers::of(&circuit);
        assert_eq!(layers.rounds(), 0);
        assert_eq!(layers.free_schedule().len(), 1);
        let wires = evaluate_layered(&circuit, &layers, &[true, false]).unwrap();
        assert_eq!(wires, evaluate_wires(&circuit, &[true, false]).unwrap());
    }

    #[test]
    fn free_gates_that_compute_are_counted_with_the_layering() {
        // Inputs and constants are free gates too, but only XOR and NOT
        // compute: both layerings count exactly those, as the statistics
        // pass does.
        let mut b = CircuitBuilder::new();
        let (x, y) = (b.input(), b.input());
        let t = b.const_bit(true);
        let p = b.and(x, y);
        let q = b.xor(p, t);
        let r = b.not(q);
        let s = b.and(r, x);
        let u = b.xor(s, y);
        b.output(u);
        let circuit = b.build().unwrap();
        assert_eq!(CircuitLayers::of(&circuit).xor_not_gates(), 3);
        assert_eq!(CircuitLayers::serial(&circuit).xor_not_gates(), 3);
        let stats = CircuitStats::of(&circuit);
        assert_eq!(stats.xor_gates + stats.not_gates, 3);
    }

    #[test]
    fn input_count_is_checked() {
        let mut b = CircuitBuilder::new();
        let x = b.input();
        b.output(x);
        let circuit = b.build().unwrap();
        let layers = CircuitLayers::of(&circuit);
        assert!(evaluate_layered(&circuit, &layers, &[]).is_err());
    }

    /// An input and a chain of `depth` AND gates, each over the previous
    /// one and the input.
    fn and_chain(depth: usize) -> Circuit {
        let mut b = CircuitBuilder::new();
        let x = b.input();
        let mut acc = x;
        for _ in 0..depth {
            acc = b.and(acc, x);
        }
        b.output(acc);
        b.build().unwrap()
    }

    #[test]
    fn the_deepest_layerable_chain_has_2_16_minus_1_layers() {
        let layers = CircuitLayers::of(&and_chain(65_535));
        assert_eq!(layers.rounds(), 65_535);
        assert_eq!(layers.and_gates(), 65_535);
    }

    #[test]
    #[should_panic(expected = "a layered circuit has fewer than 2^16 AND layers")]
    fn a_chain_of_2_16_and_layers_is_refused() {
        CircuitLayers::of(&and_chain(65_536));
    }

    #[test]
    fn another_circuits_layering_is_a_typed_error() {
        // Two circuits of one gate count: an AND gate where the other
        // has a free gate, and the other way round.
        let mut b = CircuitBuilder::new();
        let (x, y) = (b.input(), b.input());
        let p = b.and(x, y);
        b.output(p);
        let and = b.build().unwrap();
        let mut b = CircuitBuilder::new();
        let (x, y) = (b.input(), b.input());
        let q = b.xor(x, y);
        b.output(q);
        let xor = b.build().unwrap();
        let misplaced = |wire| CircuitError::LayeringMismatch { wire };
        let inputs = [true, true];
        let run = |c, l| evaluate_layered(c, l, &inputs).unwrap_err();
        assert_eq!(run(&xor, and.layers()), misplaced(2));
        assert_eq!(run(&and, xor.layers()), misplaced(2));
        assert_eq!(xor.and_inputs(2), Err(misplaced(2)));
        assert_eq!(and.and_inputs(3), Err(misplaced(3)));
        assert_eq!(and.and_inputs(2), Ok((0, 1)));
    }

    /// A deterministic gate-soup circuit driven by proptest-chosen words:
    /// each word encodes one AND / XOR / NOT / MUX op over earlier wires.
    fn soup_circuit(inputs: usize, ops: &[u64]) -> Circuit {
        let mut b = CircuitBuilder::new();
        let mut pool: Vec<WireId> = (0..inputs).map(|_| b.input()).collect();
        for &op in ops {
            let (kind, i, j, k) = (op & 0xFF, op >> 8 & 0xFFFF, op >> 24 & 0xFFFF, op >> 40);
            let a = pool[i as usize % pool.len()];
            let c = pool[j as usize % pool.len()];
            let wire = match kind % 4 {
                0 => b.and(a, c),
                1 => b.xor(a, c),
                2 => b.not(a),
                _ => {
                    let sel = pool[k as usize % pool.len()];
                    b.mux(sel, a, c)
                }
            };
            pool.push(wire);
        }
        for &w in pool.iter().rev().take(3) {
            b.output(w);
        }
        b.build().expect("soup circuits are topologically valid")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The tentpole invariant: layered evaluation equals the flat
        /// topological walk on every wire of random circuits.
        #[test]
        fn prop_layered_evaluation_matches_flat(
            inputs in 2usize..8,
            ops in proptest::collection::vec(any::<u64>(), 1..60),
            bits in any::<u64>(),
        ) {
            let circuit = soup_circuit(inputs, &ops);
            let input_bits: Vec<bool> =
                (0..circuit.num_inputs()).map(|n| bits >> (n % 64) & 1 == 1).collect();
            let layers = CircuitLayers::of(&circuit);
            // Every AND gate appears in exactly one layer, and only AND
            // gates do.
            prop_assert_eq!(layers.and_gates(), circuit.and_gates());
            for wires in layers.and_layers() {
                prop_assert_eq!(wires.len(), wires.capacity());
                for &w in wires {
                    prop_assert!(circuit.and_inputs(w).is_ok());
                }
            }
            let stats = CircuitStats::of(&circuit);
            prop_assert_eq!(layers.xor_not_gates(), stats.xor_gates + stats.not_gates);
            // The circuit's memoised layering is the same value.
            prop_assert_eq!(circuit.layers(), &layers);
            let scheduled: usize =
                layers.free_schedule().iter().map(Vec::len).sum::<usize>() + layers.and_gates();
            prop_assert_eq!(scheduled, circuit.len());
            let flat = evaluate_wires(&circuit, &input_bits).unwrap();
            let layered = evaluate_layered(&circuit, &layers, &input_bits).unwrap();
            prop_assert_eq!(&flat, &layered);

            // The serial layering: one gate per layer, in wire order, and
            // its schedule is the flat walk cut at every AND gate.
            let serial = CircuitLayers::serial(&circuit);
            prop_assert_eq!(serial.rounds(), circuit.and_gates());
            prop_assert!(serial.and_layers().iter().all(|layer| layer.len() == 1));
            prop_assert_eq!(serial.free_schedule().len(), serial.rounds() + 1);
            prop_assert_eq!(serial.xor_not_gates(), layers.xor_not_gates());
            let mut walk = Vec::new();
            for round in 0..=serial.rounds() {
                walk.extend(&serial.free_schedule()[round]);
                if round < serial.rounds() {
                    let w = serial.and_layers()[round][0];
                    prop_assert!(circuit.and_inputs(w).is_ok());
                    walk.push(w);
                }
            }
            prop_assert_eq!(walk, (0..circuit.len() as WireId).collect::<Vec<_>>());
            prop_assert_eq!(evaluate_layered(&circuit, &serial, &input_bits).unwrap(), flat);
        }
    }
}
