//! Static analysis for DStress circuits: certify before anything runs.
//!
//! DStress (EuroSys 2017) computes differentially private graph and
//! finance analytics by running Boolean circuits under MPC and releasing
//! only noised aggregates.  Three properties of those circuits are
//! load-bearing for both correctness and privacy, and all three are
//! checkable *statically*, before a single OT is performed:
//!
//! 1. **Ranges** ([`range`]) — no adder, multiplier or divider ever
//!    wraps its word width under the declared input ranges, and every
//!    released value lands inside its recovery window (the dlog table's
//!    search range, the two's-complement decode window).  Wrapping would
//!    silently corrupt results *and* break the sensitivity argument that
//!    calibrates the noise.
//! 2. **Sensitivity** ([`programs`]) — each `SecureVertexProgram`
//!    declares a sensitivity that calibrates its release noise; the
//!    analyzer recomputes a bound under the program's declared model
//!    (output range, per-vertex decomposition, geometric contraction, or
//!    an external lemma with checkable premises) and fails hard when the
//!    declaration is smaller than the certified bound.
//! 3. **Information flow** ([`taint`]) — private inputs may reach a
//!    released output only through the distributed-noise path; any other
//!    route is reported with a concrete witness wire path.
//!
//! The entry points are [`analyze`] for one circuit with a
//! [`CircuitSpec`], and [`analyze_program`] for a whole
//! `SecureVertexProgram` (update + aggregation + noising, composed).
//! Results come back as a [`CircuitReport`] / [`ProgramReport`] whose
//! [`Finding`] list is empty exactly when the artifact is certified;
//! `ci.sh` gates on that and `repro -- analyze` records the certified
//! bounds next to the benchmark numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deps;
pub mod depth;
mod index;
pub mod programs;
pub mod range;
pub mod relational;
pub mod report;
pub mod taint;

use std::collections::BTreeSet;

use dstress_circuit::{Circuit, CircuitSpec, Gate, Interval, Taint, WireId};
use dstress_circuit::{CircuitLayers, CircuitStats};

pub use programs::{analyze_program, ProgramReport};
pub use range::{RangeAnalysis, RangeConfig};
pub use report::{CircuitReport, Finding};

/// Analyzes one circuit against its spec: depth cross-check, range
/// certification, release-window check and information-flow check.
pub fn analyze(circuit: &Circuit, spec: &CircuitSpec) -> CircuitReport {
    analyze_with(circuit, spec, None).0
}

/// [`analyze`], additionally taking the mass-conservation sum cap and
/// returning the raw range analysis for callers (the program certifier)
/// that need per-word intervals beyond the outputs.
pub(crate) fn analyze_with(
    circuit: &Circuit,
    spec: &CircuitSpec,
    sum_cap: Option<(Vec<Vec<WireId>>, i128)>,
) -> (CircuitReport, RangeAnalysis) {
    let mut findings = Vec::new();

    // Depth: recompute with a DFS and compare against the forward DPs
    // the cost model and round scheduler rely on.
    let stats = CircuitStats::of(circuit);
    let layers = CircuitLayers::of(circuit);
    let out_depth = depth::output_and_depth(circuit);
    let all_depth = depth::all_wires_and_depth(circuit);
    if out_depth != stats.and_depth || all_depth != layers.rounds() {
        findings.push(Finding::DepthMismatch {
            subject: spec.name.clone(),
            recomputed: (out_depth, all_depth),
            stats: stats.and_depth,
            layered: layers.rounds(),
        });
    }

    // Resolve the declared input words to wire vectors.
    let widths: Vec<u32> = spec.inputs.iter().map(|s| s.width).collect();
    let words = match input_words(circuit, &widths) {
        Ok(words) => words,
        Err(detail) => {
            findings.push(Finding::LayoutMismatch {
                subject: spec.name.clone(),
                detail,
            });
            Vec::new()
        }
    };

    // Range pass.
    let cfg = RangeConfig {
        subject: spec.name.clone(),
        inputs: words
            .iter()
            .zip(&spec.inputs)
            .map(|(w, s)| (w.clone(), s.effective_range()))
            .collect(),
        modular: spec.modular,
        dominance: spec.dominance.clone(),
        sum_cap,
    };
    let mut ranges = RangeAnalysis::run(circuit, &cfg);
    findings.append(&mut ranges.findings);

    // Output words and their certified intervals.
    let out_words = split_outputs(circuit, spec, &mut findings);
    let output_intervals: Vec<Interval> = out_words.iter().map(|w| ranges.interval_of(w)).collect();

    // Release window.
    if let Some(rel) = &spec.release {
        for iv in &output_intervals {
            if !rel.window.contains_interval(*iv) {
                findings.push(Finding::ReleaseOutOfWindow {
                    subject: spec.name.clone(),
                    certified: *iv,
                    window: rel.window,
                    window_source: rel.description.clone(),
                });
            }
        }
    }

    // Information flow.
    let taint_inputs: Vec<(Vec<WireId>, String, Taint)> = words
        .iter()
        .zip(&spec.inputs)
        .map(|(w, s)| (w.clone(), s.name.clone(), s.taint))
        .collect();
    let mut taints = taint::analyze_taint(circuit, &spec.name, &taint_inputs, spec.policy);
    findings.append(&mut taints.findings);

    let report = CircuitReport {
        subject: spec.name.clone(),
        and_gates: stats.and_gates,
        total_gates: circuit.len(),
        and_depth: out_depth,
        and_depth_all: all_depth,
        output_intervals,
        findings: dedup_findings(findings),
    };
    (report, ranges)
}

/// Resolves declared input word widths to the circuit's input wires, in
/// input-index order.
pub(crate) fn input_words(circuit: &Circuit, widths: &[u32]) -> Result<Vec<Vec<WireId>>, String> {
    let mut wire_of: Vec<Option<WireId>> = vec![None; circuit.num_inputs()];
    for (i, gate) in (0..).zip(circuit.gates()) {
        if let Gate::Input(n) = gate {
            if wire_of[n as usize].is_none() {
                wire_of[n as usize] = Some(i);
            }
        }
    }
    let total: u64 = widths.iter().map(|&w| w as u64).sum();
    if total != circuit.num_inputs() as u64 {
        return Err(format!(
            "declared input words cover {total} bits but the circuit has {} inputs",
            circuit.num_inputs()
        ));
    }
    let mut words = Vec::with_capacity(widths.len());
    let mut idx = 0usize;
    for &w in widths {
        let mut word = Vec::with_capacity(w as usize);
        for _ in 0..w {
            match wire_of[idx] {
                Some(x) => word.push(x),
                None => return Err(format!("input {idx} never materializes as a wire")),
            }
            idx += 1;
        }
        words.push(word);
    }
    Ok(words)
}

/// Splits the flat output list into the declared output words.
fn split_outputs(
    circuit: &Circuit,
    spec: &CircuitSpec,
    findings: &mut Vec<Finding>,
) -> Vec<Vec<WireId>> {
    let outputs = circuit.outputs();
    if spec.output_words.is_empty() {
        return vec![outputs.to_vec()];
    }
    let total: u64 = spec.output_words.iter().map(|&w| w as u64).sum();
    if total != outputs.len() as u64 {
        findings.push(Finding::LayoutMismatch {
            subject: spec.name.clone(),
            detail: format!(
                "declared output words cover {total} bits but the circuit has {} outputs",
                outputs.len()
            ),
        });
        return vec![outputs.to_vec()];
    }
    let mut words = Vec::with_capacity(spec.output_words.len());
    let mut idx = 0usize;
    for &w in &spec.output_words {
        words.push(outputs[idx..idx + w as usize].to_vec());
        idx += w as usize;
    }
    words
}

/// Order-preserving dedup keyed by the rendered finding text (the same
/// defect can surface from several passes).
pub(crate) fn dedup_findings(findings: Vec<Finding>) -> Vec<Finding> {
    let mut seen = BTreeSet::new();
    findings
        .into_iter()
        .filter(|f| seen.insert(f.to_string()))
        .collect()
}
