//! Pins every certificate `repro -- analyze` issues to constants.
//!
//! The other analyzer suites check properties (a broken artifact is
//! rejected, a shipped one certifies, the interval contains every
//! evaluated value), so a change that moves an interval *inside* what
//! those properties allow passes all of them.  These constants were
//! captured from the unmodified analyzer, while its passes still keyed
//! intervals by output wire vectors and `range.rs::transfer` was one
//! 257-line function — before the passes moved to an event index.
//!
//! Two things are pinned per artifact (the counter, the four graph
//! analytics, both finance case studies on the shocked 12-bank network,
//! and the standalone 32-bit noising circuit):
//!
//! * the rendered report: per circuit the gate counts, the AND depths,
//!   every certified output interval and every finding's text; per
//!   program also the model, the declared and certified sensitivity, the
//!   aggregate interval and the assumptions, verbatim;
//! * per circuit, the number of gadget events and a digest of
//!   `RangeAnalysis::interval_of` of every event's output and input words
//!   (and of the pass's own findings), under the range configuration
//!   `analyze_program` builds for it.  For PageRank also a digest of
//!   `DeltaAnalysis::delta_of` of the same words under the contraction
//!   check's single-slot perturbation.
//!
//! Never regenerate these constants to make a change pass: a mismatch
//! means the change moved a certified interval, a delta, a finding or the
//! text of a report.
//!
//! **Re-captured once, 2026-10-17, for the noising circuit only.**  It now
//! counts leading ones with `CircuitBuilder::leading_ones`, one
//! `LeadingOnes` event per random word, instead of a serial AND chain
//! feeding 64 traced `add`s.  What moved: the "AND / gates, depth" text of
//! every `noising` line (958 AND / 5 694 gates / depth 95 → 446 / 1 182 /
//! 37 at 32 aggregate bits; 926 / 5 470 / 79 → 414 / 958 / 21 for SSSP;
//! 922 / 5 442 / 77 → 410 / 930 / 19 for PageRank) and the noising
//! `(events, digest)` entries (138 events → 10).  Every `outputs`,
//! aggregate, model, assumption and finding line is as it was.

use dstress_analyze::programs::NOISE_RANDOM_BITS;
use dstress_analyze::relational::DeltaAnalysis;
use dstress_analyze::{
    analyze, analyze_program, CircuitReport, ProgramReport, RangeAnalysis, RangeConfig,
};
use dstress_circuit::spec::{
    CircuitSpec, FlowPolicy, Interval, ProgramInputRef, ProgramSpec, ReleaseSpec, Taint, WordSpec,
};
use dstress_circuit::{Circuit, Gate, WireId};
use dstress_core::analytics::{DegreeHistogramProgram, PageRankProgram, SsspProgram, WccProgram};
use dstress_core::noise_circuit::noising_circuit;
use dstress_core::program::{CounterProgram, SecureVertexProgram};
use dstress_crypto::{DlogTable, Group};
use dstress_finance::generator::apply_shock;
use dstress_finance::{
    core_periphery, CircuitParams, EisenbergNoeSecure, ElliottGolubJacksonSecure, FinancialNetwork,
    GeneratorConfig,
};
use dstress_graph::VertexId;
use dstress_math::rng::Xoshiro256;

/// The release window `repro -- analyze` checks calibrated programs
/// against: a signed 1024-entry dlog table searched to ±2²¹.
fn dlog_release() -> ReleaseSpec {
    let table = DlogTable::new_signed(&Group::sim64(), 1024).with_search_range(1 << 21);
    let (lo, hi) = table.recovery_window();
    ReleaseSpec {
        window: Interval::new(lo as i128, hi as i128),
        description: "signed dlog table (1024 entries) with BSGS search to 2^21".to_string(),
    }
}

fn shocked_network() -> FinancialNetwork {
    let config = GeneratorConfig::small(12, 8);
    let mut rng = Xoshiro256::new(13);
    let mut net = core_periphery(&config, &mut rng);
    apply_shock(&mut net, &[VertexId(0), VertexId(1)], 0.9);
    net
}

/// 64-bit FNV-1a over rendered lines.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn line(&mut self, text: &str) {
        for b in text.bytes().chain([b'\n']) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn render_circuit(out: &mut String, role: &str, r: &CircuitReport) {
    out.push_str(&format!(
        "{role} {}: {} AND / {} gates, depth {} (all {})\n",
        r.subject, r.and_gates, r.total_gates, r.and_depth, r.and_depth_all
    ));
    let outputs: Vec<String> = r.output_intervals.iter().map(|iv| iv.to_string()).collect();
    out.push_str(&format!("outputs {}\n", outputs.join(" ")));
    for f in &r.findings {
        out.push_str(&format!("finding {f}\n"));
    }
}

fn render_program(r: &ProgramReport) -> String {
    let mut out = format!(
        "program {}\nmodel {} declared {:?} certified {:?}\naggregate {}\n",
        r.program, r.model, r.declared_sensitivity, r.certified_sensitivity, r.aggregate_interval
    );
    for a in &r.assumptions {
        out.push_str(&format!("assumption {a}\n"));
    }
    for f in &r.findings {
        out.push_str(&format!("finding {f}\n"));
    }
    render_circuit(&mut out, "update", &r.update);
    render_circuit(&mut out, "aggregation", &r.aggregation);
    render_circuit(&mut out, "noising", &r.noising);
    out
}

/// The circuit's input wires grouped into words of `widths`: input `n`
/// is the first wire reading `Gate::Input(n)`.
fn input_words(circuit: &Circuit, widths: &[u32]) -> Vec<Vec<WireId>> {
    let mut wire_of = vec![None; circuit.num_inputs()];
    for (i, gate) in circuit.gates().enumerate() {
        if let Gate::Input(n) = gate {
            wire_of[n as usize].get_or_insert(i as WireId);
        }
    }
    let mut next = 0;
    widths
        .iter()
        .map(|&w| {
            (0..w)
                .map(|_| {
                    next += 1;
                    wire_of[next - 1].expect("every input materializes")
                })
                .collect()
        })
        .collect()
}

/// The range configuration `analyze` builds for `spec`.
fn range_config(
    circuit: &Circuit,
    spec: &CircuitSpec,
    sum_cap: Option<(Vec<Vec<WireId>>, i128)>,
) -> RangeConfig {
    let widths: Vec<u32> = spec.inputs.iter().map(|w| w.width).collect();
    let words = input_words(circuit, &widths);
    RangeConfig {
        subject: spec.name.clone(),
        inputs: words
            .into_iter()
            .zip(&spec.inputs)
            .map(|(w, s)| (w, s.effective_range()))
            .collect(),
        modular: spec.modular,
        dominance: spec.dominance.clone(),
        sum_cap,
    }
}

/// Runs the range pass and digests the interval of every event's output
/// and the pass's findings.  The declared output words must come out at
/// the report's intervals: that ties the configuration rebuilt here to
/// the one the analyzer used.
fn range_digest(
    circuit: &Circuit,
    cfg: &RangeConfig,
    output_words: &[u32],
    report: &CircuitReport,
) -> (RangeAnalysis, (usize, u64)) {
    let ranges = RangeAnalysis::run(circuit, cfg);
    let mut digest = Digest::new();
    for (i, ev) in circuit.gadgets().iter().enumerate() {
        let words = std::iter::once(&ev.output).chain(&ev.inputs);
        let ivs: Vec<String> = words.map(|w| ranges.interval_of(w).to_string()).collect();
        digest.line(&format!("{i} {}", ivs.join(" ")));
    }
    for f in &ranges.findings {
        digest.line(&f.to_string());
    }
    let mut outputs = circuit.outputs();
    for (&w, &iv) in output_words.iter().zip(&report.output_intervals) {
        let (word, rest) = outputs.split_at(w as usize);
        assert_eq!(ranges.interval_of(word), iv, "{}", cfg.subject);
        outputs = rest;
    }
    (ranges, (circuit.gadgets().len(), digest.0))
}

/// What one program's certificate is pinned to.
struct Pinned {
    report: &'static str,
    /// `(events, digest)` of the update, aggregation and noising passes.
    ranges: [(usize, u64); 3],
    /// `(events, digest)` of the contraction check's delta pass.
    deltas: Option<(usize, u64)>,
}

fn check_program(
    program: &dyn SecureVertexProgram,
    degree_bound: usize,
    vertices: usize,
    release: Option<ReleaseSpec>,
    pinned: Pinned,
) {
    let report = analyze_program(program, degree_bound, vertices, release);
    assert_eq!(render_program(&report), pinned.report);

    let spec: ProgramSpec = program.analysis_spec(degree_bound);
    let s = spec.state_words.len();
    let m = spec.message_words.len();

    // Update: the state, then `degree_bound` message slots.
    let update = program.update_circuit(degree_bound);
    let mut inputs = spec.state_words.clone();
    for _ in 0..degree_bound {
        inputs.extend(spec.message_words.iter().cloned());
    }
    let flat = |r: ProgramInputRef| match r {
        ProgramInputRef::State(i) => i,
        ProgramInputRef::Message(d, w) => s + d * m + w,
    };
    let update_spec = CircuitSpec {
        name: format!("{}/update", spec.name),
        output_words: inputs.iter().map(|w| w.width).collect(),
        inputs,
        policy: FlowPolicy::Internal,
        release: None,
        modular: spec.modular,
        dominance: spec
            .dominance
            .iter()
            .map(|&(a, b)| (flat(a), flat(b)))
            .collect(),
    };
    let widths: Vec<u32> = update_spec.inputs.iter().map(|w| w.width).collect();
    let words = input_words(&update, &widths);
    let sum_cap = spec
        .message_sum_cap
        .filter(|_| {
            spec.message_words
                .iter()
                .all(|w| w.effective_range().lo >= 0)
        })
        .map(|cap| (words[s..].to_vec(), cap));
    let cfg = range_config(&update, &update_spec, sum_cap);
    let (update_ranges, update_digest) =
        range_digest(&update, &cfg, &update_spec.output_words, &report.update);

    // Aggregation: the state of every vertex.
    let aggregation = program.aggregation_circuit(vertices);
    let agg_spec = CircuitSpec {
        name: format!("{}/aggregation", spec.name),
        inputs: (0..vertices)
            .flat_map(|_| spec.state_words.iter().cloned())
            .collect(),
        output_words: vec![program.aggregate_bits()],
        policy: FlowPolicy::Internal,
        release: None,
        modular: spec.modular,
        dominance: Vec::new(),
    };
    let cfg = range_config(&aggregation, &agg_spec, None);
    let (_, agg_digest) = range_digest(
        &aggregation,
        &cfg,
        &agg_spec.output_words,
        &report.aggregation,
    );

    // Noising: fed with the certified aggregate.
    let bits = program.aggregate_bits();
    let noising = noising_circuit(bits, NOISE_RANDOM_BITS, 0);
    let noising_spec = CircuitSpec {
        name: format!("{}/noising", spec.name),
        inputs: vec![
            WordSpec {
                name: "aggregate".to_string(),
                width: bits,
                range: Some(report.aggregate_interval),
                taint: Taint::Private,
            },
            WordSpec::noise("geom_r1", NOISE_RANDOM_BITS),
            WordSpec::noise("geom_r2", NOISE_RANDOM_BITS),
        ],
        output_words: vec![bits],
        policy: FlowPolicy::NoisedRelease,
        release: None,
        modular: false,
        dominance: Vec::new(),
    };
    let cfg = range_config(&noising, &noising_spec, None);
    let (_, noising_digest) =
        range_digest(&noising, &cfg, &noising_spec.output_words, &report.noising);

    assert_eq!(
        [update_digest, agg_digest, noising_digest],
        pinned.ranges,
        "{}: (events, digest) of the update, aggregation and noising range passes",
        spec.name
    );

    // The contraction check's delta pass: one incoming slot perturbed by
    // up to the first message word's bound, every other input identical.
    if let Some(expected) = pinned.deltas {
        let x = spec.message_words[0].effective_range().hi;
        let seeds = vec![(words[s].clone(), Interval::new(-x, x))];
        let deltas = DeltaAnalysis::run(update.gadgets(), &update_ranges, &seeds, &words);
        let mut digest = Digest::new();
        for (i, ev) in update.gadgets().iter().enumerate() {
            let words = std::iter::once(&ev.output).chain(&ev.inputs);
            let ds: Vec<String> = words.map(|w| deltas.delta_of(w).to_string()).collect();
            digest.line(&format!("{i} {}", ds.join(" ")));
        }
        assert_eq!(
            (update.gadgets().len(), digest.0),
            expected,
            "{}: (events, digest) of the delta pass",
            spec.name
        );
    }
}

#[test]
fn counter_certificate_is_pinned() {
    check_program(
        &CounterProgram {
            width: 16,
            rounds: 3,
        },
        4,
        8,
        None,
        Pinned {
            report: "\
            program counter\n\
            model modular declared 1.0 certified None\n\
            aggregate [0, 524280]\n\
            assumption modular program, sensitivity not certified: benchmark counter: wrapping sums exercise the runtime; its releases are never calibrated\n\
            update counter/update: 60 AND / 392 gates, depth 15 (all 15)\n\
            outputs [0, 65535] [0, 65535] [0, 65535] [0, 65535] [0, 65535]\n\
            aggregation counter/aggregation: 217 AND / 1362 gates, depth 31 (all 31)\n\
            outputs [0, 524280]\n\
            noising counter/noising: 446 AND / 1182 gates, depth 37 (all 37)\n\
            outputs [-64, 524344]\n\
        ",
            ranges: [
                (9, 0xe1be_0706_ab7a_71b5),
                (17, 0xc931_e263_83c0_d589),
                (10, 0xe168_a4ac_547e_d13d),
            ],
            deltas: None,
        },
    );
}

#[test]
fn degree_histogram_certificate_is_pinned() {
    check_program(
        &DegreeHistogramProgram {
            width: 16,
            lo: 2,
            hi: 5,
        },
        4,
        8,
        Some(dlog_release()),
        Pinned {
            report: "\
            program degree-histogram\n\
            model localized-delta declared 1.0 certified Some(1.0)\n\
            aggregate [0, 8]\n\
            assumption a neighbouring edge changes at most 1 state word(s), all at one vertex (out-degree encoding)\n\
            update degree-histogram/update: 0 AND / 96 gates, depth 0 (all 0)\n\
            outputs [0, 65535] [0, 0] [0, 0] [0, 0] [0, 0]\n\
            aggregation degree-histogram/aggregation: 481 AND / 3122 gates, depth 48 (all 48)\n\
            outputs [0, 8]\n\
            noising degree-histogram/noising: 446 AND / 1182 gates, depth 37 (all 37)\n\
            outputs [-64, 72]\n\
        ",
            ranges: [
                (6, 0x9825_2e29_de6d_1d62),
                (43, 0x7e60_3a87_7e40_dab4),
                (10, 0xd68f_6253_0ab7_4072),
            ],
            deltas: None,
        },
    );
}

#[test]
fn wcc_certificate_is_pinned() {
    check_program(
        &WccProgram {
            width: 16,
            rounds: 4,
        },
        4,
        8,
        Some(dlog_release()),
        Pinned {
            report: "\
            program wcc\n\
            model decomposed-counting declared 1.0 certified Some(1.0)\n\
            aggregate [0, 8]\n\
            assumption min-label propagation: one changed edge can merge or split at most one component pair, flipping the root indicator of at most one vertex (the larger-labelled root)\n\
            update wcc/update: 252 AND / 1064 gates, depth 72 (all 72)\n\
            outputs [0, 65535] [0, 65535] [0, 65535] [0, 65535] [0, 65535]\n\
            aggregation wcc/aggregation: 337 AND / 1986 gates, depth 35 (all 35)\n\
            outputs [0, 8]\n\
            noising wcc/noising: 446 AND / 1182 gates, depth 37 (all 37)\n\
            outputs [-64, 72]\n\
        ",
            ranges: [
                (18, 0x1329_da98_96d4_97bc),
                (33, 0x3612_bb49_ae0f_a63e),
                (10, 0xd68f_6253_0ab7_4072),
            ],
            deltas: None,
        },
    );
}

#[test]
fn sssp_certificate_is_pinned() {
    check_program(
        &SsspProgram {
            width: 16,
            source: VertexId(0),
            target: VertexId(5),
            rounds: 6,
        },
        4,
        8,
        Some(dlog_release()),
        Pinned {
            report: "\
            program sssp\n\
            model output-range declared 7.0 certified Some(7.0)\n\
            aggregate [0, 7]\n\
            update sssp/update: 299 AND / 1336 gates, depth 89 (all 89)\n\
            outputs [0, 7] [0, 8] [0, 8] [0, 8] [0, 8]\n\
            aggregation sssp/aggregation: 0 AND / 128 gates, depth 0 (all 0)\n\
            outputs [0, 7]\n\
            noising sssp/noising: 414 AND / 958 gates, depth 21 (all 21)\n\
            outputs [-64, 71]\n\
        ",
            ranges: [
                (24, 0x2267_846a_616b_b904),
                (8, 0x182f_dd10_0c35_4ee5),
                (10, 0x13f0_55fd_92fd_421b),
            ],
            deltas: None,
        },
    );
}

#[test]
fn pagerank_certificate_is_pinned() {
    check_program(
        &PageRankProgram {
            frac_bits: 10,
            target: VertexId(3),
            rounds: 5,
            vertices: 8,
        },
        4,
        8,
        Some(dlog_release()),
        Pinned {
            report: "\
            program pagerank\n\
            model geometric-contraction declared 0.6666666666666666 certified Some(0.6666666666666666)\n\
            aggregate [0, 356]\n\
            assumption L1 mass conservation: 1/outdeg splits each rank among its out-neighbours (outdeg · inv_outdeg ≤ 2^frac_bits + outdeg/2), so total incoming mass stays below 2^frac_bits + 2N and one changed edge perturbs only one vertex's incoming mass\n\
            update pagerank/update: 413 AND / 1430 gates, depth 26 (all 26)\n\
            outputs [96, 356] [0, 1024] [0, 356] [0, 356] [0, 356] [0, 356]\n\
            aggregation pagerank/aggregation: 0 AND / 224 gates, depth 0 (all 0)\n\
            outputs [0, 356]\n\
            noising pagerank/noising: 410 AND / 930 gates, depth 19 (all 19)\n\
            outputs [-64, 420]\n\
        ",
            ranges: [
                (11, 0xed5a_f369_70ba_f1f7),
                (16, 0xb6de_a136_c65d_3d39),
                (10, 0x785a_dabb_fa9a_4d69),
            ],
            deltas: Some((11, 0xbcc9_3ce8_bde0_1d2d)),
        },
    );
}

#[test]
fn eisenberg_noe_certificate_is_pinned() {
    let net = shocked_network();
    check_program(
        &EisenbergNoeSecure {
            network: &net,
            params: CircuitParams::default_params(),
            iterations: 8,
            leverage_bound: 0.1,
        },
        net.graph().degree_bound(),
        net.bank_count(),
        Some(dlog_release()),
        Pinned {
            report: "\
            program eisenberg-noe\n\
            model external-lemma declared 10.0 certified None\n\
            aggregate [0, 45780]\n\
            assumption Hemenway–Khanna (§4.4): under the regulatory leverage bound r = 0.1, re-allocating T dollars in one portfolio moves the Eisenberg–Noe total dollar shortfall by at most T/r, provided every pro-rata payment fraction stays in [0, 1]\n\
            update eisenberg-noe/update: 1802 AND / 6498 gates, depth 106 (all 106)\n\
            outputs [0, 874] [0, 3815] [0, 32] [0, 519] [0, 519] [0, 519] [0, 519] [0, 519] [0, 519] [0, 519] [0, 519] [0, 519] [0, 519] [0, 519] [0, 519] [0, 519] [0, 519] [0, 519] [0, 519] [0, 519] [0, 519] [0, 519] [0, 519] [0, 519] [0, 519] [0, 519] [0, 519]\n\
            aggregation eisenberg-noe/aggregation: 2520 AND / 12098 gates, depth 37 (all 37)\n\
            outputs [0, 45780]\n\
            noising eisenberg-noe/noising: 446 AND / 1182 gates, depth 37 (all 37)\n\
            outputs [-64, 45844]\n\
        ",
            ranges: [
                (55, 0x1ba4_84a6_94d9_5f4f),
                (290, 0x3b19_64db_cca2_b728),
                (10, 0x7b76_af4a_d460_4f98),
            ],
            deltas: None,
        },
    );
}

#[test]
fn elliott_golub_jackson_certificate_is_pinned() {
    let net = shocked_network();
    check_program(
        &ElliottGolubJacksonSecure {
            network: &net,
            params: CircuitParams::default_params(),
            iterations: 8,
            leverage_bound: 0.1,
        },
        net.graph().degree_bound(),
        net.bank_count(),
        Some(dlog_release()),
        Pinned {
            report: "\
            program elliott-golub-jackson\n\
            model external-lemma declared 20.0 certified None\n\
            aggregate [0, 39012]\n\
            assumption Hemenway–Khanna (§4.4): under the regulatory leverage bound r = 0.1, re-allocating T dollars moves the Elliott–Golub–Jackson total dollar shortfall by at most 2T/r, provided every reported valuation discount stays in [0, 1]\n\
            update elliott-golub-jackson/update: 6473 AND / 20492 gates, depth 120 (all 120)\n\
            outputs [0, 874] [0, 3612] [0, 2674] [0, 3251] [0, 722] [0, 2] [0, 2] [0, 2] [0, 2] [0, 2] [0, 2] [0, 2] [0, 2] [0, 3612] [0, 3612] [0, 3612] [0, 3612] [0, 3612] [0, 3612] [0, 3612] [0, 3612] [0, 32] [0, 32] [0, 32] [0, 32] [0, 32] [0, 32] [0, 32] [0, 32]\n\
            aggregation elliott-golub-jackson/aggregation: 936 AND / 9048 gates, depth 48 (all 48)\n\
            outputs [0, 39012]\n\
            noising elliott-golub-jackson/noising: 446 AND / 1182 gates, depth 37 (all 37)\n\
            outputs [-64, 39076]\n\
        ",
            ranges: [
                (72, 0x7872_4e0d_96f8_8850),
                (314, 0x5825_7d49_3fc6_1c49),
                (10, 0x735d_b071_53cc_2a60),
            ],
            deltas: None,
        },
    );
}

#[test]
fn standalone_noising_certificate_is_pinned() {
    let noising = noising_circuit(32, 64, 0);
    let spec = CircuitSpec {
        name: "noising[32]".to_string(),
        inputs: vec![
            WordSpec::private("aggregate", 32, Interval::new(0, 1 << 20)),
            WordSpec::noise("geom_r1", 64),
            WordSpec::noise("geom_r2", 64),
        ],
        output_words: vec![32],
        policy: FlowPolicy::NoisedRelease,
        release: Some(dlog_release()),
        modular: false,
        dominance: Vec::new(),
    };
    let report = analyze(&noising, &spec);
    let mut rendered = String::new();
    render_circuit(&mut rendered, "circuit", &report);
    assert_eq!(
        rendered,
        "\
        circuit noising[32]: 446 AND / 1182 gates, depth 37 (all 37)\n\
        outputs [-64, 1048640]\n\
        "
    );
    let cfg = range_config(&noising, &spec, None);
    let (_, digest) = range_digest(&noising, &cfg, &spec.output_words, &report);
    assert_eq!(digest, (10, 0x0a84_1a81_1001_b4b8));
}
