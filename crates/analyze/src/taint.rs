//! Information-flow (taint) analysis over the raw gate list.
//!
//! Input wires are labelled from the spec — `Private` for participant
//! data, `Noise` for the distributed noise-generation randomness — and
//! labels propagate forward as a union through every gate.  Under the
//! [`FlowPolicy::NoisedRelease`] policy, every output wire that carries
//! private taint must *also* carry noise taint: private data may only be
//! released through the sanctioned noise path of
//! `dstress_core::noise_circuit`.  A violation produces a
//! [`Finding::PrivateLeak`] with a witness: a concrete wire path from the
//! leaking output back to a private input, along which no noise ever
//! mixes in.

use std::collections::BTreeMap;

use dstress_circuit::{Circuit, FlowPolicy, Gate, Taint, WireId};

use crate::report::Finding;

/// Bit flag: the wire may depend on private input data.
pub const PRIVATE: u8 = 1;
/// Bit flag: the wire may depend on noise randomness.
pub const NOISE: u8 = 2;

/// Result of the taint pass: one label per wire.
pub struct TaintAnalysis {
    /// `PRIVATE` / `NOISE` flag union per wire.
    pub labels: Vec<u8>,
    /// Leak findings (empty unless the policy is `NoisedRelease` and an
    /// output violates it).
    pub findings: Vec<Finding>,
}

/// Runs the taint pass.  `inputs` lists each input word's wires, its
/// name (for findings) and its declared taint.
pub fn analyze_taint(
    circuit: &Circuit,
    subject: &str,
    inputs: &[(Vec<WireId>, String, Taint)],
    policy: FlowPolicy,
) -> TaintAnalysis {
    // Label per input *index* (input wires are `Gate::Input(n)` gates).
    let mut input_labels: BTreeMap<u32, u8> = BTreeMap::new();
    let mut input_words: BTreeMap<u32, String> = BTreeMap::new();
    for (word, name, taint) in inputs {
        let label = match taint {
            Taint::Public => 0,
            Taint::Private => PRIVATE,
            Taint::Noise => NOISE,
        };
        for &w in word {
            if let Gate::Input(n) = circuit.gate(w) {
                input_labels.insert(n, label);
                input_words.insert(n, name.clone());
            }
        }
    }

    let mut labels = vec![0u8; circuit.len()];
    for (i, gate) in circuit.gates().enumerate() {
        labels[i] = match gate {
            // Unlabelled inputs are conservatively private: an input the
            // spec forgot to mention must not silently launder data.
            Gate::Input(n) => input_labels.get(&n).copied().unwrap_or(PRIVATE),
            Gate::ConstFalse | Gate::ConstTrue => 0,
            Gate::Xor(a, b) | Gate::And(a, b) => labels[a as usize] | labels[b as usize],
            Gate::Not(a) => labels[a as usize],
        };
    }

    let mut findings = Vec::new();
    if policy == FlowPolicy::NoisedRelease {
        for (oi, &out) in circuit.outputs().iter().enumerate() {
            let l = labels[out as usize];
            if l & PRIVATE != 0 && l & NOISE == 0 {
                let witness = witness_path(circuit, &labels, out);
                let source_wire = *witness.last().unwrap_or(&out);
                let source_word = match circuit.gate(source_wire) {
                    Gate::Input(n) => input_words
                        .get(&n)
                        .cloned()
                        .unwrap_or_else(|| format!("input {n}")),
                    _ => "unknown".to_string(),
                };
                findings.push(Finding::PrivateLeak {
                    subject: subject.to_string(),
                    output: oi,
                    output_wire: out,
                    source_wire,
                    source_word,
                    witness,
                });
            }
        }
    }

    TaintAnalysis { labels, findings }
}

/// Walks backwards from a leaking output along private-tainted,
/// noise-free operands until a private input wire is reached.  Every hop
/// on the returned path carries private taint and no noise, so the path
/// itself is the proof that the leak bypasses the noise gadget.  Long
/// paths are truncated in the middle; the source end is always kept.
fn witness_path(circuit: &Circuit, labels: &[u8], from: WireId) -> Vec<WireId> {
    let tainted = |w: WireId| labels[w as usize] & PRIVATE != 0 && labels[w as usize] & NOISE == 0;
    let mut path = vec![from];
    let mut w = from;
    loop {
        let next = match circuit.gate(w) {
            Gate::Input(_) | Gate::ConstFalse | Gate::ConstTrue => None,
            Gate::Not(a) => Some(a).filter(|&a| tainted(a)),
            Gate::Xor(a, b) | Gate::And(a, b) => {
                // At least one operand must itself be private-and-unnoised
                // (noise flags only ever union in, so a noise-free result
                // has a noise-free private operand).
                [a, b].into_iter().find(|&x| tainted(x))
            }
        };
        match next {
            Some(n) => {
                path.push(n);
                w = n;
            }
            None => break,
        }
    }
    if path.len() > 24 {
        // Keep both ends: the output neighbourhood and the source.
        let tail: Vec<WireId> = path[path.len() - 8..].to_vec();
        path.truncate(16);
        path.extend(tail);
    }
    path
}
