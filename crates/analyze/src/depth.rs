//! Independent AND-depth recomputation.
//!
//! `CircuitStats` and `CircuitLayers` both compute AND depth with a
//! forward dynamic program over the gate list.  The cost model and the
//! round scheduler trust those numbers, so the analyzer recomputes depth
//! with a *different* algorithm — an iterative memoized depth-first
//! search from the output wires — and the caller asserts agreement,
//! turning any future divergence between the two implementations into a
//! typed [`crate::report::Finding::DepthMismatch`].

use dstress_circuit::{Circuit, Gate, WireId};

/// AND depth of the cone feeding the circuit's outputs, computed by DFS.
pub fn output_and_depth(circuit: &Circuit) -> usize {
    let mut memo: Vec<Option<usize>> = vec![None; circuit.len()];
    let mut best = 0;
    for &out in circuit.outputs() {
        best = best.max(depth_of(circuit, &mut memo, out));
    }
    best
}

/// AND depth over every wire in the circuit (dead gates included): the
/// number of AND rounds a layered execution schedules.
pub fn all_wires_and_depth(circuit: &Circuit) -> usize {
    let mut memo: Vec<Option<usize>> = vec![None; circuit.len()];
    let mut best = 0;
    for w in 0..circuit.len() {
        best = best.max(depth_of(circuit, &mut memo, w as WireId));
    }
    best
}

/// Iterative post-order DFS (an explicit stack: update circuits reach
/// tens of thousands of gates, too deep for recursion).
fn depth_of(circuit: &Circuit, memo: &mut [Option<usize>], root: WireId) -> usize {
    if let Some(d) = memo[root as usize] {
        return d;
    }
    let mut stack = vec![root];
    while let Some(&w) = stack.last() {
        if memo[w as usize].is_some() {
            stack.pop();
            continue;
        }
        let (ops, and_here): (Vec<WireId>, bool) = match circuit.gate(w) {
            Gate::Input(_) | Gate::ConstFalse | Gate::ConstTrue => (Vec::new(), false),
            Gate::Not(a) => (vec![a], false),
            Gate::Xor(a, b) => (vec![a, b], false),
            Gate::And(a, b) => (vec![a, b], true),
        };
        let pending: Vec<WireId> = ops
            .iter()
            .copied()
            .filter(|&o| memo[o as usize].is_none())
            .collect();
        if pending.is_empty() {
            let base = ops
                .iter()
                .map(|&o| memo[o as usize].unwrap())
                .max()
                .unwrap_or(0);
            memo[w as usize] = Some(base + usize::from(and_here));
            stack.pop();
        } else {
            stack.extend(pending);
        }
    }
    memo[root as usize].unwrap()
}
