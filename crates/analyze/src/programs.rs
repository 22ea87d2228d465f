//! Whole-program certification for `SecureVertexProgram`s.
//!
//! A program's privacy guarantee rests on a chain of facts: the update
//! circuit keeps every word inside its declared range round after round
//! (an inductive invariant — declared ranges cover the initial encoding
//! and the analyzer proves one update step preserves them), the
//! aggregation stays in range on those states, the declared sensitivity
//! upper-bounds what one changed edge can do to the aggregate, and the
//! noising circuit is the only road from private data to the released
//! output.  [`analyze_program`] certifies each link and composes them:
//!
//! * update circuit: range + overflow + flow pass with the declared
//!   state/message ranges; state and message outputs are checked back
//!   against those ranges (the invariant step);
//! * aggregation circuit: same pass over `N` copies of the state layout,
//!   producing the certified aggregate interval;
//! * noising circuit: the aggregate interval is fed into
//!   `dstress_core::noise_circuit::noising_circuit`, outputs are checked
//!   against the release window and the noised-release flow policy;
//! * sensitivity: recomputed under the program's declared
//!   [`SensitivityModel`] and compared against `sensitivity()` —
//!   declaring less than the certified bound is a hard error.

use dstress_circuit::{
    Circuit, CircuitSpec, FlowPolicy, GadgetKind, Interval, ProgramInputRef, ProgramSpec,
    RangePremise, ReleaseSpec, SensitivityModel, Taint, WireId, WordSpec,
};
use dstress_core::noise_circuit::noising_circuit;
use dstress_core::SecureVertexProgram;

use crate::deps::GroupDeps;
use crate::range::RangeAnalysis;
use crate::relational::DeltaAnalysis;
use crate::report::{CircuitReport, Finding};
use crate::{analyze_with, dedup_findings, input_words};

/// Width of each of the two geometric-noise randomness words: the
/// engine's own constant, so the certified noising circuit is the one it
/// runs.
pub use dstress_core::noise_circuit::NOISE_RANDOM_BITS;

/// The certified result of analyzing one program end to end.
#[derive(Clone, Debug)]
pub struct ProgramReport {
    /// Program name from its spec.
    pub program: String,
    /// The sensitivity the program declares.
    pub declared_sensitivity: f64,
    /// The bound the analyzer certified, when the model yields a number
    /// (external-lemma and modular programs certify premises instead).
    pub certified_sensitivity: Option<f64>,
    /// Human-readable name of the sensitivity model used.
    pub model: String,
    /// Named semantic lemmas the certification rests on, verbatim.
    pub assumptions: Vec<String>,
    /// Report for the update circuit.
    pub update: CircuitReport,
    /// Report for the aggregation circuit.
    pub aggregation: CircuitReport,
    /// Report for the noising circuit fed with the certified aggregate.
    pub noising: CircuitReport,
    /// Certified interval of the pre-noise aggregate.
    pub aggregate_interval: Interval,
    /// Program-level findings (sensitivity, decomposition, invariants).
    pub findings: Vec<Finding>,
}

impl ProgramReport {
    /// All findings across the program and its three circuits.
    pub fn all_findings(&self) -> Vec<&Finding> {
        self.findings
            .iter()
            .chain(&self.update.findings)
            .chain(&self.aggregation.findings)
            .chain(&self.noising.findings)
            .collect()
    }

    /// True when the program certified with no findings anywhere.
    pub fn is_clean(&self) -> bool {
        self.all_findings().is_empty()
    }
}

/// Analyzes a program's update, aggregation and noising circuits under
/// its declared [`ProgramSpec`] and certifies its sensitivity.
///
/// `release` overrides the recovery window for the noised output; the
/// default is the two's-complement decode window at `aggregate_bits`.
pub fn analyze_program(
    program: &dyn SecureVertexProgram,
    degree_bound: usize,
    vertices: usize,
    release: Option<ReleaseSpec>,
) -> ProgramReport {
    let update = program.update_circuit(degree_bound);
    let mut cx = Certifier::new(program, &update, degree_bound, vertices);
    let update = cx.analyze_update(update);
    let aggregation = cx.analyze_aggregation();
    let aggregate_interval = aggregation
        .report
        .output_intervals
        .first()
        .copied()
        .unwrap_or_else(|| Interval::unsigned(program.aggregate_bits()));
    let noising = cx.analyze_noising(aggregate_interval, release);
    let (model, certified) = cx.certify_sensitivity(&update, &aggregation, aggregate_interval);

    ProgramReport {
        program: cx.spec.name,
        declared_sensitivity: program.sensitivity(),
        certified_sensitivity: certified,
        model,
        assumptions: cx.assumptions,
        update: update.report,
        aggregation: aggregation.report,
        noising,
        aggregate_interval,
        findings: dedup_findings(cx.findings),
    }
}

/// The word layout of a program's circuits, derived once from its spec.
struct ProgramLayout {
    /// Per-vertex state words.
    state_words: Vec<WordSpec>,
    /// Per-slot message words.
    message_words: Vec<WordSpec>,
    /// Total widths of the state and of one message slot, in bits.
    state_bits: usize,
    message_bits: usize,
    /// The update circuit's inputs: the state, then `degree_bound`
    /// message slots.
    update_inputs: Vec<WordSpec>,
    /// The aggregation circuit's inputs: the state of every vertex.
    aggregation_inputs: Vec<WordSpec>,
    /// `update_inputs` resolved to the update circuit's input wires
    /// (`None` when the layout does not fit the circuit, which the
    /// update's own analysis reports).
    update_words: Option<Vec<Vec<WireId>>>,
}

impl ProgramLayout {
    /// The layout `spec` declares.  An unannotated program falls back to
    /// one opaque full-range word per side, so the structural passes
    /// still run.
    fn new(
        program: &dyn SecureVertexProgram,
        spec: &ProgramSpec,
        update: &Circuit,
        degree_bound: usize,
        vertices: usize,
    ) -> Self {
        let opaque = |name: &str, width: u32, declared: &[WordSpec]| {
            let unannotated = matches!(spec.sensitivity_model, SensitivityModel::Unspecified);
            if unannotated && declared.is_empty() && width > 0 {
                vec![WordSpec {
                    name: name.to_string(),
                    width,
                    range: None,
                    taint: Taint::Private,
                }]
            } else {
                declared.to_vec()
            }
        };
        let state_words = opaque("state", program.state_bits(), &spec.state_words);
        let message_words = opaque("message", program.message_bits(), &spec.message_words);
        let renamed = |w: &WordSpec, name: String| WordSpec { name, ..w.clone() };
        let mut update_inputs = state_words.clone();
        for d in 0..degree_bound {
            update_inputs.extend(
                message_words
                    .iter()
                    .map(|w| renamed(w, format!("msg[{d}].{}", w.name))),
            );
        }
        let aggregation_inputs = (0..vertices)
            .flat_map(|v| {
                state_words
                    .iter()
                    .map(move |w| renamed(w, format!("v{v}.{}", w.name)))
            })
            .collect();
        let bits = |words: &[WordSpec]| words.iter().map(|w| w.width as usize).sum();
        ProgramLayout {
            state_bits: bits(&state_words),
            message_bits: bits(&message_words),
            update_words: input_words(update, &widths(&update_inputs)).ok(),
            state_words,
            message_words,
            update_inputs,
            aggregation_inputs,
        }
    }

    /// The position of a program input among the update circuit's inputs.
    fn flat_index(&self, r: ProgramInputRef) -> usize {
        match r {
            ProgramInputRef::State(i) => i,
            ProgramInputRef::Message(d, w) => {
                self.state_words.len() + d * self.message_words.len() + w
            }
        }
    }

    /// The declared word behind message output `k` of the update circuit
    /// (counted from the first message output).
    fn message_word(&self, k: usize) -> &WordSpec {
        &self.message_words[k % self.message_words.len().max(1)]
    }
}

/// The widths of a word layout, in order.
fn widths(words: &[WordSpec]) -> Vec<u32> {
    words.iter().map(|w| w.width).collect()
}

/// One circuit of a program, analyzed: its report and its range pass.
struct Analyzed {
    circuit: Circuit,
    report: CircuitReport,
    ranges: RangeAnalysis,
}

/// One program under certification: its spec and layout, and the
/// program-level assumptions and findings each step adds to.
struct Certifier<'p> {
    program: &'p dyn SecureVertexProgram,
    spec: ProgramSpec,
    layout: ProgramLayout,
    degree_bound: usize,
    vertices: usize,
    assumptions: Vec<String>,
    findings: Vec<Finding>,
}

impl<'p> Certifier<'p> {
    fn new(
        program: &'p dyn SecureVertexProgram,
        update: &Circuit,
        degree_bound: usize,
        vertices: usize,
    ) -> Self {
        let spec = program.analysis_spec(degree_bound);
        let layout = ProgramLayout::new(program, &spec, update, degree_bound, vertices);
        let mut findings = Vec::new();
        if matches!(spec.sensitivity_model, SensitivityModel::Unspecified) {
            findings.push(Finding::MissingSpec {
                subject: spec.name.clone(),
            });
        }
        let (state_bits, message_bits) = (program.state_bits(), program.message_bits());
        if layout.state_bits != state_bits as usize || layout.message_bits != message_bits as usize
        {
            findings.push(Finding::LayoutMismatch {
                subject: spec.name.clone(),
                detail: format!(
                    "spec declares {}-bit state and {}-bit messages; the program has \
                     state_bits={state_bits} message_bits={message_bits}",
                    layout.state_bits, layout.message_bits
                ),
            });
        }
        Certifier {
            program,
            spec,
            layout,
            degree_bound,
            vertices,
            assumptions: Vec::new(),
            findings,
        }
    }

    /// The update circuit, analyzed under the declared state and message
    /// ranges, with the inductive invariant: one step keeps every
    /// declared range.
    fn analyze_update(&mut self, circuit: Circuit) -> Analyzed {
        let layout = &self.layout;
        let spec = CircuitSpec {
            name: format!("{}/update", self.spec.name),
            inputs: layout.update_inputs.clone(),
            output_words: widths(&layout.update_inputs),
            policy: FlowPolicy::Internal,
            release: None,
            modular: self.spec.modular,
            dominance: self
                .spec
                .dominance
                .iter()
                .map(|&(a, b)| (layout.flat_index(a), layout.flat_index(b)))
                .collect(),
        };
        let (report, ranges) = analyze_with(&circuit, &spec, self.update_sum_cap());
        let states = self.layout.state_words.len();
        for (k, &iv) in report.output_intervals.iter().enumerate() {
            let (side, word) = match k.checked_sub(states) {
                None => ("state", &self.layout.state_words[k]),
                Some(m) => ("message", self.layout.message_word(m)),
            };
            let declared = word.effective_range();
            let premise = || format!("update keeps {side} word '{}' within {declared}", word.name);
            let violated = self.premise_violated(iv, declared, premise);
            self.findings.extend(violated);
        }
        Analyzed {
            circuit,
            report,
            ranges,
        }
    }

    /// The sum cap for the update circuit: the message input words,
    /// capped by the spec's mass-conservation bound.  Applied only when
    /// every message range is provably non-negative (subset sums of
    /// non-negative terms stay under the cap).
    fn update_sum_cap(&self) -> Option<(Vec<Vec<WireId>>, i128)> {
        let cap = self.spec.message_sum_cap?;
        let layout = &self.layout;
        if layout
            .message_words
            .iter()
            .any(|w| w.effective_range().lo < 0)
        {
            return None;
        }
        let words = layout.update_words.as_ref()?;
        Some((words[layout.state_words.len()..].to_vec(), cap))
    }

    /// The aggregation circuit over the state of every vertex.
    fn analyze_aggregation(&self) -> Analyzed {
        let circuit = self.program.aggregation_circuit(self.vertices);
        let spec = CircuitSpec {
            name: format!("{}/aggregation", self.spec.name),
            inputs: self.layout.aggregation_inputs.clone(),
            output_words: vec![self.program.aggregate_bits()],
            policy: FlowPolicy::Internal,
            release: None,
            modular: self.spec.modular,
            dominance: Vec::new(),
        };
        let (report, ranges) = analyze_with(&circuit, &spec, None);
        Analyzed {
            circuit,
            report,
            ranges,
        }
    }

    /// The noising circuit fed with the certified aggregate, checked
    /// against the release window and the noised-release flow policy.
    fn analyze_noising(&self, aggregate: Interval, release: Option<ReleaseSpec>) -> CircuitReport {
        let bits = self.program.aggregate_bits();
        let noising = noising_circuit(bits, NOISE_RANDOM_BITS, 0);
        let spec = CircuitSpec {
            name: format!("{}/noising", self.spec.name),
            inputs: vec![
                WordSpec {
                    name: "aggregate".to_string(),
                    width: bits,
                    range: Some(aggregate),
                    taint: Taint::Private,
                },
                WordSpec::noise("geom_r1", NOISE_RANDOM_BITS),
                WordSpec::noise("geom_r2", NOISE_RANDOM_BITS),
            ],
            output_words: vec![bits],
            policy: FlowPolicy::NoisedRelease,
            release: Some(release.unwrap_or_else(|| ReleaseSpec {
                window: Interval::signed(bits),
                description: format!("two's-complement decode at {bits} bits"),
            })),
            modular: false,
            dominance: Vec::new(),
        };
        analyze_with(&noising, &spec, None).0
    }

    /// Certifies the declared sensitivity under the program's model and
    /// reports a declaration below the certified bound.  Returns the
    /// model name and the certified bound (when numeric).
    fn certify_sensitivity(
        &mut self,
        update: &Analyzed,
        aggregation: &Analyzed,
        aggregate_interval: Interval,
    ) -> (String, Option<f64>) {
        let (model, certified) = match self.spec.sensitivity_model.clone() {
            SensitivityModel::Unspecified => ("unspecified", None),
            SensitivityModel::Modular { reason } => {
                self.assumptions.push(format!(
                    "modular program, sensitivity not certified: {reason}"
                ));
                ("modular", None)
            }
            // Any two neighbouring runs land in the certified aggregate
            // interval, so its diameter bounds the sensitivity.
            SensitivityModel::OutputRange => {
                ("output-range", Some(aggregate_interval.width() as f64))
            }
            SensitivityModel::LocalizedDelta {
                changed_state_words,
            } => {
                // The update must be state-local: state outputs never
                // read messages, message outputs are constant.
                self.check_update_locality(&update.circuit);
                let certified = self.decompose_aggregation(aggregation);
                self.assumptions.push(format!(
                    "a neighbouring edge changes at most {changed_state_words} state word(s), \
                     all at one vertex (out-degree encoding)"
                ));
                ("localized-delta", certified)
            }
            SensitivityModel::DecomposedCounting {
                max_changed_terms,
                lemma,
            } => {
                let per_term = self.decompose_aggregation(aggregation);
                self.assumptions.push(lemma);
                (
                    "decomposed-counting",
                    per_term.map(|w| w * max_changed_terms as f64),
                )
            }
            SensitivityModel::GeometricContraction {
                damping_shift,
                lemma,
            } => {
                self.assumptions.push(lemma);
                self.check_contraction(update, damping_shift);
                let d = 1.0 / f64::from(1u32 << damping_shift);
                ("geometric-contraction", Some(2.0 * d / (1.0 - d)))
            }
            SensitivityModel::ExternalLemma { lemma, premises } => {
                self.assumptions.push(lemma);
                for premise in &premises {
                    self.check_premise(premise, &update.report);
                }
                ("external-lemma", None)
            }
        };
        let declared = self.program.sensitivity();
        if let Some(c) = certified {
            if declared + 1e-9 < c {
                self.findings.push(Finding::UnderDeclaredSensitivity {
                    program: self.spec.name.clone(),
                    declared,
                    certified: c,
                    model: model.to_string(),
                });
            }
        }
        (model.to_string(), certified)
    }

    /// Verifies a state-local update: state outputs depend only on state
    /// inputs, message outputs on nothing at all.
    fn check_update_locality(&mut self, update: &Circuit) {
        let Some(words) = &self.layout.update_words else {
            return; // Already reported as a layout mismatch.
        };
        // Group 0 = state wires, group 1 = message wires.
        let states = self.layout.state_words.len();
        let wire_group = words
            .iter()
            .enumerate()
            .flat_map(|(i, word)| word.iter().map(move |&w| (w, usize::from(i >= states))))
            .collect();
        let deps = GroupDeps::of(update, &wire_group, 2);
        let outputs = update.outputs();
        let state_bits = self.layout.state_bits;
        if outputs.len() < state_bits {
            return;
        }
        if deps.groups_of(&outputs[..state_bits]).contains(&1) {
            self.decomposition_failed(
                "state outputs read message inputs; the update is not state-local".to_string(),
            );
        }
        if !deps.groups_of(&outputs[state_bits..]).is_empty() {
            self.decomposition_failed(
                "message outputs are not constant; a changed vertex could propagate".to_string(),
            );
        }
    }

    /// Verifies the aggregation is a sum of per-vertex terms and returns
    /// the worst-case contribution of one changed vertex: (terms touching
    /// that vertex) x (widest term interval).
    fn decompose_aggregation(&mut self, aggregation: &Analyzed) -> Option<f64> {
        let circuit = &aggregation.circuit;
        let Some(sum) = circuit
            .gadgets()
            .iter()
            .rev()
            .find(|e| e.kind == GadgetKind::Sum && e.output == circuit.outputs())
        else {
            return self
                .decomposition_failed("no sum gadget produces the aggregation output".to_string());
        };

        // Per-vertex input groups.
        let words = input_words(circuit, &widths(&self.layout.aggregation_inputs)).ok()?;
        let per_vertex = self.layout.state_words.len().max(1);
        let wire_group = words
            .iter()
            .enumerate()
            .flat_map(|(i, word)| word.iter().map(move |&w| (w, i / per_vertex)))
            .collect();
        let deps = GroupDeps::of(circuit, &wire_group, self.vertices.max(1));

        let mut per_vertex_terms = vec![0u64; self.vertices];
        let mut max_width = 0i128;
        for term in &sum.inputs {
            let groups = deps.groups_of(term);
            if groups.len() > 1 {
                return self.decomposition_failed(format!(
                    "a sum term depends on {} vertices",
                    groups.len()
                ));
            }
            if let Some(&v) = groups.first() {
                per_vertex_terms[v] += 1;
                max_width = max_width.max(aggregation.ranges.interval_of(term).width());
            }
        }
        let worst_terms = per_vertex_terms.iter().copied().max().unwrap_or(0);
        Some(worst_terms as f64 * max_width as f64)
    }

    fn decomposition_failed(&mut self, detail: String) -> Option<f64> {
        self.findings.push(Finding::DecompositionFailed {
            program: self.spec.name.clone(),
            detail,
        });
        None
    }

    /// Verifies the geometric-contraction premise on the update circuit:
    /// a single-slot message delta of X leaves the first state word (the
    /// rank) within X >> damping_shift plus rounding slack, and each
    /// outgoing message within the rank delta plus slack.
    fn check_contraction(&mut self, update: &Analyzed, damping_shift: u32) {
        let layout = &self.layout;
        let Some(words) = &layout.update_words else {
            return;
        };
        let x = layout
            .message_words
            .first()
            .map(|w| w.effective_range().hi)
            .unwrap_or(0);
        // Perturb one incoming slot by up to X; everything else identical.
        let seeds = vec![(
            words[layout.state_words.len()].clone(),
            Interval::new(-x, x),
        )];
        let deltas = DeltaAnalysis::run(update.circuit.gadgets(), &update.ranges, &seeds, words);

        let state_bits = layout.state_bits;
        let rank_width = layout.state_words.first().map_or(0, |w| w.width as usize);
        let outputs = update.circuit.outputs();
        if outputs.len() < state_bits || rank_width == 0 {
            return;
        }
        let rank_delta = deltas.delta_of(&outputs[..rank_width]);
        let bound = (x >> damping_shift) + 2;
        if rank_delta.lo < -bound || rank_delta.hi > bound {
            self.findings.push(Finding::ContractionViolated {
                program: self.spec.name.clone(),
                detail: format!(
                    "a message delta of {x} yields a rank delta of {rank_delta}, exceeding the \
                     damped bound [{}, {}] for shift {damping_shift}",
                    -bound, bound
                ),
            });
        }
        // Outgoing messages must not amplify the rank delta.
        let msg_bits = layout.message_bits;
        let msg_bound = bound + 2;
        for d in 0..self.degree_bound {
            let start = state_bits + d * msg_bits;
            if outputs.len() < start + msg_bits || msg_bits == 0 {
                break;
            }
            let md = deltas.delta_of(&outputs[start..start + msg_bits]);
            if md.lo < -msg_bound || md.hi > msg_bound {
                self.findings.push(Finding::ContractionViolated {
                    program: self.spec.name.clone(),
                    detail: format!(
                        "outgoing message {d} delta {md} exceeds the rank delta bound [{}, {}]",
                        -msg_bound, msg_bound
                    ),
                });
            }
        }
    }

    /// Checks one external-lemma range premise against the certified
    /// update output intervals.
    fn check_premise(&mut self, premise: &RangePremise, update: &CircuitReport) {
        match premise {
            RangePremise::StateWordWithin { index, range } => {
                let Some(&iv) = update.output_intervals.get(*index) else {
                    return;
                };
                let name = self
                    .layout
                    .state_words
                    .get(*index)
                    .map_or("?", |w| w.name.as_str());
                let premise = || format!("state word '{name}' stays within {range}");
                let violated = self.premise_violated(iv, *range, premise);
                self.findings.extend(violated);
            }
            RangePremise::MessagesWithin { range } => {
                let states = self.layout.state_words.len();
                for (k, &iv) in update.output_intervals.iter().skip(states).enumerate() {
                    let premise = || {
                        let name = &self.layout.message_word(k).name;
                        format!("message word '{name}' stays within {range}")
                    };
                    let violated = self.premise_violated(iv, *range, premise);
                    self.findings.extend(violated);
                }
            }
        }
    }

    /// [`Finding::PremiseViolated`] when a certified output word falls
    /// outside the range declared for it.
    fn premise_violated(
        &self,
        certified: Interval,
        range: Interval,
        premise: impl FnOnce() -> String,
    ) -> Option<Finding> {
        (!range.contains_interval(certified)).then(|| Finding::PremiseViolated {
            program: self.spec.name.clone(),
            premise: premise(),
            certified,
        })
    }
}
