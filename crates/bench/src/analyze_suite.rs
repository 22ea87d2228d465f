//! The `analyze` experiment: runs the static analyzer over every shipped
//! program and circuit and tabulates the certified bounds next to the
//! gate counts the cost model charges for.
//!
//! This is the pre-deployment check of the reproduction: before any GMW
//! round runs, every update/aggregation/noising circuit must certify
//! that no gadget wraps its word width, that the declared sensitivity
//! upper-bounds the certified bound (so the Laplace noise is calibrated
//! correctly), that releases land inside the dlog recovery window the
//! transfer protocol actually decodes with, and that private inputs only
//! reach released outputs through the distributed-noise path.  `ci.sh`
//! runs `repro -- analyze` in release mode and the process exits
//! non-zero on any finding.

use dstress_analyze::{analyze, analyze_program, ProgramReport};
use dstress_circuit::spec::{CircuitSpec, FlowPolicy, Interval, ReleaseSpec, WordSpec};
use dstress_core::analytics::{DegreeHistogramProgram, PageRankProgram, SsspProgram, WccProgram};
use dstress_core::noise_circuit::{noising_circuit, NOISE_RANDOM_BITS};
use dstress_core::program::CounterProgram;
use dstress_crypto::{DlogTable, Group};
use dstress_finance::generator::apply_shock;
use dstress_finance::{
    core_periphery, CircuitParams, EisenbergNoeSecure, ElliottGolubJacksonSecure, FinancialNetwork,
    GeneratorConfig,
};
use dstress_graph::VertexId;
use dstress_math::rng::Xoshiro256;

/// One analyzed artifact, flattened for tabulation and recording.
pub struct AnalyzeRow {
    /// Artifact name (program name or circuit name).
    pub name: String,
    /// Sensitivity model used for certification.
    pub model: String,
    /// AND gates of the update circuit (0 for bare circuits).
    pub update_and_gates: usize,
    /// Recomputed AND depth of the update circuit's output cone.
    pub update_and_depth: usize,
    /// AND gates of the aggregation circuit.
    pub aggregation_and_gates: usize,
    /// AND gates of the noising circuit.
    pub noising_and_gates: usize,
    /// The program's declared `sensitivity()` (NaN for bare circuits).
    pub declared_sensitivity: f64,
    /// The certified numeric bound, when the model yields one.
    pub certified_sensitivity: Option<f64>,
    /// Certified interval of the released aggregate.
    pub aggregate_interval: Interval,
    /// Side conditions the certificate rests on (external lemmas etc.).
    pub assumptions: usize,
    /// Rendered findings (empty = certified).
    pub findings: Vec<String>,
}

impl AnalyzeRow {
    fn of_program(report: &ProgramReport) -> Self {
        AnalyzeRow {
            name: report.program.clone(),
            model: report.model.clone(),
            update_and_gates: report.update.and_gates,
            update_and_depth: report.update.and_depth,
            aggregation_and_gates: report.aggregation.and_gates,
            noising_and_gates: report.noising.and_gates,
            declared_sensitivity: report.declared_sensitivity,
            certified_sensitivity: report.certified_sensitivity,
            aggregate_interval: report.aggregate_interval,
            assumptions: report.assumptions.len(),
            findings: report
                .all_findings()
                .iter()
                .map(|f| f.to_string())
                .collect(),
        }
    }
}

/// The release window every calibrated program is checked against: a
/// signed dlog table of 1024 precomputed entries whose baby-step/giant-step
/// search widens recovery to ±2²¹ — the window the transfer protocol's
/// decoder actually searches.
pub fn dlog_release() -> ReleaseSpec {
    let table = DlogTable::new_signed(&Group::sim64(), 1024).with_search_range(1 << 21);
    let (lo, hi) = table.recovery_window();
    ReleaseSpec {
        window: Interval::new(lo as i128, hi as i128),
        description: "signed dlog table (1024 entries) with BSGS search to 2^21".to_string(),
    }
}

fn shocked_network(seed: u64) -> FinancialNetwork {
    let config = GeneratorConfig::small(12, 8);
    let mut rng = Xoshiro256::new(seed);
    let mut net = core_periphery(&config, &mut rng);
    apply_shock(&mut net, &[VertexId(0), VertexId(1)], 0.9);
    net
}

/// Analyzes every shipped artifact: the modular counter, the four DP
/// graph analytics, both finance case studies on a live shocked
/// network, and the standalone 32-bit noising circuit the
/// microbenchmarks cost.
pub fn analyze_suite_rows() -> Vec<AnalyzeRow> {
    let mut rows = Vec::new();
    let release = dlog_release();

    let mut program_row = |report: ProgramReport| rows.push(AnalyzeRow::of_program(&report));

    // The counter aggregates modulo 2^width by design: its releases are
    // decoded modularly, never through the dlog window.
    program_row(analyze_program(
        &CounterProgram {
            width: 16,
            rounds: 3,
        },
        4,
        8,
        None,
    ));

    program_row(analyze_program(
        &DegreeHistogramProgram {
            width: 16,
            lo: 2,
            hi: 5,
        },
        4,
        8,
        Some(release.clone()),
    ));

    program_row(analyze_program(
        &WccProgram {
            width: 16,
            rounds: 4,
        },
        4,
        8,
        Some(release.clone()),
    ));

    program_row(analyze_program(
        &SsspProgram {
            width: 16,
            source: VertexId(0),
            target: VertexId(5),
            rounds: 6,
        },
        4,
        8,
        Some(release.clone()),
    ));

    program_row(analyze_program(
        &PageRankProgram {
            frac_bits: 10,
            target: VertexId(3),
            rounds: 5,
            vertices: 8,
        },
        4,
        8,
        Some(release.clone()),
    ));

    // Finance case studies: the specs are derived from the live network
    // instance, so this is the coordinator's pre-deployment check.
    let net = shocked_network(13);
    let d = net.graph().degree_bound();
    program_row(analyze_program(
        &EisenbergNoeSecure {
            network: &net,
            params: CircuitParams::default_params(),
            iterations: 8,
            leverage_bound: 0.1,
        },
        d,
        net.bank_count(),
        Some(release.clone()),
    ));
    program_row(analyze_program(
        &ElliottGolubJacksonSecure {
            network: &net,
            params: CircuitParams::default_params(),
            iterations: 8,
            leverage_bound: 0.1,
        },
        d,
        net.bank_count(),
        Some(release.clone()),
    ));

    // The standalone noising circuit the microbenchmarks cost
    // (`MpcCircuitKind::Noising` builds the same shape).
    let noising = noising_circuit(32, NOISE_RANDOM_BITS, 0);
    let spec = CircuitSpec {
        name: "noising[32]".to_string(),
        inputs: vec![
            WordSpec::private("aggregate", 32, Interval::new(0, 1 << 20)),
            WordSpec::noise("geom_r1", NOISE_RANDOM_BITS),
            WordSpec::noise("geom_r2", NOISE_RANDOM_BITS),
        ],
        output_words: vec![32],
        policy: FlowPolicy::NoisedRelease,
        release: Some(release),
        modular: false,
        dominance: Vec::new(),
    };
    let report = analyze(&noising, &spec);
    rows.push(AnalyzeRow {
        name: report.subject.clone(),
        model: "circuit".to_string(),
        update_and_gates: 0,
        update_and_depth: report.and_depth,
        aggregation_and_gates: 0,
        noising_and_gates: report.and_gates,
        declared_sensitivity: f64::NAN,
        certified_sensitivity: None,
        aggregate_interval: report
            .output_intervals
            .first()
            .copied()
            .unwrap_or(Interval::new(0, 0)),
        assumptions: 0,
        findings: report.findings.iter().map(|f| f.to_string()).collect(),
    });

    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `en-fig5` pays for the Eisenberg–Noe update circuit gate by gate
    /// and layer by layer, so a gadget regression should fail here, in
    /// seconds, not in the next benchmark run.  Measured at D = 8:
    /// 1 802 / 106 and 6 473 / 120 with the capped ratio (3 724 / 273 and
    /// 6 811 / 284 with the full restoring divider, 13 142 / 499 and
    /// 23 527 / 510 before that with the 2-AND adder and the full-width
    /// multiplier).
    #[test]
    fn finance_update_circuits_stay_under_their_ceilings() {
        let rows = analyze_suite_rows();
        for (name, and_gates, and_depth) in [
            ("eisenberg-noe", 2_000, 110),
            ("elliott-golub-jackson", 6_600, 125),
        ] {
            let row = rows
                .iter()
                .find(|row| row.name == name)
                .unwrap_or_else(|| panic!("no row named {name}"));
            assert!(
                row.update_and_gates <= and_gates && row.update_and_depth <= and_depth,
                "{name}: update circuit is {} AND / depth {}, ceiling {and_gates} / {and_depth}",
                row.update_and_gates,
                row.update_and_depth
            );
        }
    }
}
