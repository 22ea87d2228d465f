//! Figures 3 and 4: MPC micro-benchmarks.
//!
//! The paper isolates the five MPC circuits DStress executes —
//! initialization, the Eisenberg–Noe computation step, the
//! Elliott–Golub–Jackson computation step, aggregation and noising — and
//! measures, for each, the end-to-end completion time (Figure 3) and the
//! per-node traffic (Figure 4), varying the block size (left of Fig. 3 /
//! Fig. 4) and the degree bound `D` or node count `N` (right of Fig. 3).
//!
//! This module runs exactly those MPCs with our GMW engine and reports
//! wall-clock time, projected prototype-scale time (via the calibrated
//! cost model), and the measured per-node traffic.

use dstress_circuit::{Circuit, CircuitBuilder, CircuitLayers, CircuitStats};
use dstress_core::noise_circuit::{noising_circuit, NOISE_RANDOM_BITS};
use dstress_core::SecureVertexProgram;
use dstress_finance::{
    CircuitParams, EisenbergNoeSecure, ElliottGolubJacksonSecure, FinancialNetwork,
};
use dstress_math::rng::{DetRng, Xoshiro256};
use dstress_mpc::gmw::{execute_batch, share_inputs, GmwJob};
use dstress_mpc::party::{GmwBatching, OtConfig};
use dstress_mpc::MpcError;
use dstress_net::cost::{CostModel, OperationCounts};
use dstress_net::pool::parallel_map;
use dstress_net::traffic::NodeId;
use dstress_net::transport::{SimTransport, Transport};
use std::time::Instant;

/// The five MPC circuits the paper benchmarks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MpcCircuitKind {
    /// Share generation / session setup for a vertex's initial state.
    Initialization,
    /// One Eisenberg–Noe computation step.
    EisenbergNoeStep,
    /// One Elliott–Golub–Jackson computation step.
    ElliottGolubJacksonStep,
    /// The aggregation circuit over `N` vertex states.
    Aggregation,
    /// The distributed noise-generation circuit.
    Noising,
}

impl MpcCircuitKind {
    /// All five kinds in the paper's order.
    pub fn all() -> [MpcCircuitKind; 5] {
        [
            MpcCircuitKind::Initialization,
            MpcCircuitKind::EisenbergNoeStep,
            MpcCircuitKind::ElliottGolubJacksonStep,
            MpcCircuitKind::Aggregation,
            MpcCircuitKind::Noising,
        ]
    }

    /// Short label used in the printed tables.
    pub fn label(&self) -> &'static str {
        match self {
            MpcCircuitKind::Initialization => "Initialization",
            MpcCircuitKind::EisenbergNoeStep => "EN step",
            MpcCircuitKind::ElliottGolubJacksonStep => "EGJ step",
            MpcCircuitKind::Aggregation => "Aggregation",
            MpcCircuitKind::Noising => "Noising",
        }
    }
}

/// One measured row of Figure 3 / Figure 4.
#[derive(Clone, Debug)]
pub struct MpcMicroRow {
    /// Which circuit was measured.
    pub kind: MpcCircuitKind,
    /// Block size `k + 1`.
    pub block_size: usize,
    /// Degree bound used when building the step circuits.
    pub degree_bound: usize,
    /// Number of vertices used when building the aggregation circuit.
    pub vertices: usize,
    /// AND gates of the circuit.
    pub and_gates: usize,
    /// AND depth of the circuit (layers over all gates).
    pub and_layers: usize,
    /// Measured communication rounds per party pair of the execution.
    pub rounds: u64,
    /// Wall-clock seconds of the in-process GMW execution.
    pub measured_seconds: f64,
    /// Projected seconds on the paper's prototype hardware (cost model).
    pub projected_seconds: f64,
    /// Mean bytes sent per block member (Figure 4's quantity).
    pub traffic_per_node_bytes: f64,
    /// Operation counts measured during the execution.
    pub counts: OperationCounts,
}

/// A dummy network whose only purpose is to carry a degree bound for
/// building the finance circuits (their gate structure depends only on
/// `D` and the word width).
fn carrier_network(degree_bound: usize) -> FinancialNetwork {
    FinancialNetwork::new(2, degree_bound)
}

/// Builds the circuit for one benchmark kind.
pub fn build_circuit(
    kind: MpcCircuitKind,
    degree_bound: usize,
    vertices: usize,
    params: CircuitParams,
) -> Circuit {
    let network = carrier_network(degree_bound);
    match kind {
        MpcCircuitKind::Initialization => {
            // Share (re-)distribution of the initial state and the D no-op
            // messages: an identity circuit over those inputs; its GMW cost
            // is the per-pair session setup plus input handling, which is
            // exactly what the prototype's initialization step pays.
            let mut b = CircuitBuilder::new();
            let state = b.input_word((3 + 2 * degree_bound as u32) * params.word_bits);
            let messages = b.input_word(degree_bound as u32 * params.word_bits);
            b.output_word(&state);
            b.output_word(&messages);
            b.build().expect("builder circuits are well formed")
        }
        MpcCircuitKind::EisenbergNoeStep => EisenbergNoeSecure {
            network: &network,
            params,
            iterations: 1,
            leverage_bound: 0.1,
        }
        .update_circuit(degree_bound),
        MpcCircuitKind::ElliottGolubJacksonStep => ElliottGolubJacksonSecure {
            network: &network,
            params,
            iterations: 1,
            leverage_bound: 0.1,
        }
        .update_circuit(degree_bound),
        MpcCircuitKind::Aggregation => EisenbergNoeSecure {
            network: &network,
            params,
            iterations: 1,
            leverage_bound: 0.1,
        }
        .aggregation_circuit(vertices),
        MpcCircuitKind::Noising => noising_circuit(32, NOISE_RANDOM_BITS, 0),
    }
}

/// Runs one circuit under GMW with the given block size and returns the
/// measured row (layer-batched rounds, the default).
pub fn run_mpc_micro(
    kind: MpcCircuitKind,
    block_size: usize,
    degree_bound: usize,
    vertices: usize,
    seed: u64,
) -> MpcMicroRow {
    run_mpc_micro_with(
        kind,
        block_size,
        degree_bound,
        vertices,
        seed,
        GmwBatching::Layered,
    )
}

/// [`run_mpc_micro`] with an explicit [`GmwBatching`] mode, used by the
/// round-reduction A/B experiment.
pub fn run_mpc_micro_with(
    kind: MpcCircuitKind,
    block_size: usize,
    degree_bound: usize,
    vertices: usize,
    seed: u64,
    batching: GmwBatching,
) -> MpcMicroRow {
    let params = CircuitParams::default_params();
    let circuit = build_circuit(kind, degree_bound, vertices, params);
    let stats = CircuitStats::of(&circuit);
    let layers = CircuitLayers::of(&circuit);
    let mut rng = Xoshiro256::new(seed);
    let inputs = vec![false; circuit.num_inputs()];
    let job = GmwJob {
        node_ids: (0..block_size).map(NodeId).collect(),
        input_shares: share_inputs(&inputs, block_size, &mut rng),
        master_seed: rng.next_u64(),
    };
    let ot = OtConfig::extension();

    let start = Instant::now();
    let mut executions = SimTransport
        .open(block_size)
        .map_err(MpcError::Transport)
        .and_then(|mut session| execute_batch(&mut *session, &circuit, batching, &ot, vec![job]))
        .expect("microbenchmark circuits execute");
    let measured_seconds = start.elapsed().as_secs_f64();
    let exec = executions.pop().expect("one job yields one execution");

    let cost = CostModel::paper_reference();
    let projected_seconds = cost.estimate_seconds(&exec.counts) / block_size as f64;
    let traffic_per_node_bytes = exec.traffic.tally().total_bytes() as f64 / block_size as f64;

    MpcMicroRow {
        kind,
        block_size,
        degree_bound,
        vertices,
        and_gates: stats.and_gates,
        and_layers: layers.rounds(),
        rounds: exec.counts.rounds,
        measured_seconds,
        projected_seconds,
        traffic_per_node_bytes,
        counts: exec.counts,
    }
}

/// Figure 3 (left) / Figure 4: all five circuits across block sizes, the
/// points fanned out over `threads` workers.  Every point is an
/// independent seeded run, so the rows do not depend on `threads` — only
/// the wall-clock does.
pub fn block_size_sweep(
    block_sizes: &[usize],
    degree_bound: usize,
    vertices: usize,
    threads: usize,
) -> Vec<MpcMicroRow> {
    let mut points = Vec::new();
    for &kind in &MpcCircuitKind::all() {
        for &block_size in block_sizes {
            points.push((kind, block_size));
        }
    }
    parallel_map(points, threads, |_idx, (kind, block_size)| {
        run_mpc_micro(kind, block_size, degree_bound, vertices, 0xF13)
    })
}

/// Figure 3 (right): the step circuits across degree bounds and the
/// aggregation circuit across node counts, at a fixed block size, the
/// points fanned out over `threads` workers.
pub fn parameter_sweep(
    block_size: usize,
    degree_bounds: &[usize],
    node_counts: &[usize],
    threads: usize,
) -> Vec<MpcMicroRow> {
    let mut points = Vec::new();
    for &d in degree_bounds {
        for kind in [
            MpcCircuitKind::Initialization,
            MpcCircuitKind::EisenbergNoeStep,
            MpcCircuitKind::ElliottGolubJacksonStep,
        ] {
            points.push((kind, d, 100, 0xF14));
        }
    }
    for &n in node_counts {
        points.push((MpcCircuitKind::Aggregation, 10, n, 0xF15));
    }
    parallel_map(points, threads, |_idx, (kind, d, n, seed)| {
        run_mpc_micro(kind, block_size, d, n, seed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circuits_build_for_all_kinds() {
        let params = CircuitParams::default_params();
        for kind in MpcCircuitKind::all() {
            let c = build_circuit(kind, 10, 20, params);
            assert!(c.num_inputs() > 0, "{kind:?}");
            assert!(!kind.label().is_empty());
        }
        // The EGJ step is costlier than the EN step, which is costlier than
        // initialization (Figure 3's ordering).
        let init = build_circuit(MpcCircuitKind::Initialization, 10, 20, params);
        let en = build_circuit(MpcCircuitKind::EisenbergNoeStep, 10, 20, params);
        let egj = build_circuit(MpcCircuitKind::ElliottGolubJacksonStep, 10, 20, params);
        assert!(en.and_gates() > init.and_gates());
        assert!(egj.and_gates() > en.and_gates());
    }

    #[test]
    fn traffic_scales_roughly_linearly_with_block_size() {
        // Figure 4: per-node traffic is roughly proportional to the block
        // size (total traffic is quadratic but shared across k+1 nodes).
        let small = run_mpc_micro(MpcCircuitKind::EisenbergNoeStep, 4, 10, 100, 1);
        let large = run_mpc_micro(MpcCircuitKind::EisenbergNoeStep, 8, 10, 100, 1);
        let ratio = large.traffic_per_node_bytes / small.traffic_per_node_bytes;
        assert!(
            (1.5..3.5).contains(&ratio),
            "traffic ratio for doubled block size was {ratio}"
        );
        assert_eq!(small.and_gates, large.and_gates);
    }

    #[test]
    fn batching_cuts_rounds_from_gates_to_depth() {
        let batched = run_mpc_micro_with(
            MpcCircuitKind::EisenbergNoeStep,
            4,
            10,
            100,
            4,
            GmwBatching::Layered,
        );
        let per_gate = run_mpc_micro_with(
            MpcCircuitKind::EisenbergNoeStep,
            4,
            10,
            100,
            4,
            GmwBatching::PerGate,
        );
        // Measured rounds reconcile with the analytical model in each
        // mode: setup (2) + 2 per layer/gate + output (1).
        assert_eq!(batched.rounds, 2 * batched.and_layers as u64 + 3);
        assert_eq!(per_gate.rounds, 2 * per_gate.and_gates as u64 + 3);
        assert!(batched.rounds < per_gate.rounds);
        // Same work; the round structure differs, and so does the framing
        // (one header per layer instead of one per gate).
        assert_eq!(batched.counts.extended_ots, per_gate.counts.extended_ots);
        assert!(batched.counts.wire_bytes < per_gate.counts.wire_bytes);
    }

    #[test]
    fn step_cost_scales_with_degree_bound() {
        // Figure 3 (right): the computation-step time grows roughly
        // linearly with the degree bound.
        let d10 = run_mpc_micro(MpcCircuitKind::EisenbergNoeStep, 4, 10, 100, 2);
        let d40 = run_mpc_micro(MpcCircuitKind::EisenbergNoeStep, 4, 40, 100, 2);
        let ratio = d40.and_gates as f64 / d10.and_gates as f64;
        assert!((2.5..5.5).contains(&ratio), "gate ratio was {ratio}");
        assert!(d40.projected_seconds > d10.projected_seconds);
    }

    #[test]
    fn aggregation_scales_with_vertices() {
        let n50 = run_mpc_micro(MpcCircuitKind::Aggregation, 4, 10, 50, 3);
        let n200 = run_mpc_micro(MpcCircuitKind::Aggregation, 4, 10, 200, 3);
        let ratio = n200.and_gates as f64 / n50.and_gates as f64;
        assert!((3.0..5.0).contains(&ratio), "gate ratio was {ratio}");
    }
}
