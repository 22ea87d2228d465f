//! Paper-scale cost projection (Figure 6 and §5.5).
//!
//! The paper could not run the full U.S. banking system (N = 1,750 banks),
//! so it projects the end-to-end cost from its microbenchmarks: given the
//! degree bound `D`, the number of nodes `N`, the collusion bound `k` and
//! the iteration count `I`, it sums the costs of the initialization,
//! computation, communication and (two-level tree) aggregation steps,
//! conservatively assuming that a node cannot overlap the work of the
//! different blocks it belongs to.
//!
//! [`ScalabilityModel`] reproduces that projection.  Its inputs are the
//! circuit statistics of the program under study (supplied by the caller,
//! e.g. the Eisenberg–Noe update circuit built by `dstress-finance`) and a
//! calibrated [`CostModel`]; its outputs are projected end-to-end seconds
//! and per-node traffic, the two series of Figure 6.

use dstress_circuit::{Circuit, CircuitStats};
use dstress_net::cost::CostModel;

/// Circuit-level inputs of a projection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProjectionInputs {
    /// AND gates of one per-vertex update circuit (at the projected `D`).
    pub update_and_gates: u64,
    /// XOR/NOT gates of the update circuit.
    pub update_free_gates: u64,
    /// AND gates of the aggregation circuit *per aggregated vertex*.
    pub aggregation_and_gates_per_vertex: u64,
    /// AND gates of the noising circuit.
    pub noising_and_gates: u64,
    /// Per-vertex state width in bits.
    pub state_bits: u64,
    /// Message width in bits.
    pub message_bits: u64,
}

impl ProjectionInputs {
    /// Extracts the inputs from concrete circuits.
    pub fn from_circuits(
        update: &Circuit,
        aggregation: &Circuit,
        aggregated_vertices: u64,
        noising: &Circuit,
        state_bits: u64,
        message_bits: u64,
    ) -> Self {
        let u = CircuitStats::of(update);
        let a = CircuitStats::of(aggregation);
        let n = CircuitStats::of(noising);
        ProjectionInputs {
            update_and_gates: u.and_gates as u64,
            update_free_gates: (u.xor_gates + u.not_gates) as u64,
            aggregation_and_gates_per_vertex: (a.and_gates as u64)
                .div_ceil(aggregated_vertices.max(1)),
            noising_and_gates: n.and_gates as u64,
            state_bits,
            message_bits,
        }
    }
}

/// Per-phase projected seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProjectionBreakdown {
    /// Initialization (share distribution + OT session setup).
    pub initialization_seconds: f64,
    /// All GMW computation steps.
    pub computation_seconds: f64,
    /// All message transfers.
    pub communication_seconds: f64,
    /// Aggregation tree + noising.
    pub aggregation_seconds: f64,
}

/// The projected cost of one end-to-end run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProjectionResult {
    /// Projected end-to-end wall-clock seconds (per-node critical path).
    pub total_seconds: f64,
    /// Projected traffic sent per node, in bytes.
    pub bytes_per_node: f64,
    /// Per-phase breakdown of the seconds.
    pub breakdown: ProjectionBreakdown,
    /// Number of iterations assumed.
    pub iterations: u32,
}

impl ProjectionResult {
    /// Total projected time in hours.
    pub fn hours(&self) -> f64 {
        self.total_seconds / 3600.0
    }

    /// Projected per-node traffic in megabytes.
    pub fn megabytes_per_node(&self) -> f64 {
        self.bytes_per_node / 1.0e6
    }
}

/// The scalability model.
#[derive(Clone, Copy, Debug)]
pub struct ScalabilityModel {
    /// Per-operation cost constants.
    pub cost: CostModel,
    /// OT-extension statistical security parameter κ.
    pub ot_security: u64,
    /// Serialised group-element size in bytes (48 for the prototype's
    /// secp384r1 coordinates).
    pub element_bytes: u64,
    /// Fan-in of the hierarchical aggregation tree (the paper uses 100).
    pub aggregation_tree_degree: u64,
}

impl ScalabilityModel {
    /// The model with the paper's reference constants.
    pub fn paper_reference() -> Self {
        ScalabilityModel {
            cost: CostModel::paper_reference(),
            ot_security: 80,
            element_bytes: 48,
            aggregation_tree_degree: 100,
        }
    }

    /// The iteration count the paper uses when none is specified:
    /// `I = ceil(log2 N)` (Appendix C).
    pub fn default_iterations(n: usize) -> u32 {
        (n.max(2) as f64).log2().ceil() as u32
    }

    /// Projects the cost of one end-to-end run for `n` nodes, degree bound
    /// `d`, collusion bound `k` and `iterations` iterations.
    pub fn project(
        &self,
        inputs: &ProjectionInputs,
        n: usize,
        d: usize,
        k: usize,
        iterations: u32,
    ) -> ProjectionResult {
        let c = &self.cost;
        let block = (k + 1) as f64;
        let pairs_per_node = k as f64;
        let l = inputs.message_bits as f64;
        let elem = self.element_bytes as f64;
        let kappa = self.ot_security as f64;

        // --- One GMW execution, per participating node -------------------
        // Its OTs extend from the sessions Initialization set up, so it
        // pays no base OTs of its own.
        let mpc_node_seconds = |and_gates: f64, free_gates: f64| -> f64 {
            and_gates * (pairs_per_node * c.seconds_per_extended_ot + c.seconds_per_and_gate)
                + free_gates * c.seconds_per_free_gate
        };
        // Bytes *sent* per node for one GMW execution: each AND-gate OT
        // moves ~(κ/8 + 1) bytes between a pair, split between the two
        // parties on average.
        let ot_bytes = kappa / 8.0 + 1.0;
        let mpc_node_bytes =
            |and_gates: f64| -> f64 { and_gates * pairs_per_node * ot_bytes / 2.0 };

        // --- Initialization ------------------------------------------------
        // Share distribution to k block members plus the OT-extension
        // session of every pair the node shares a block with, set up once
        // per run.
        let init_bytes_per_node = (inputs.state_bits as f64 + d as f64 * l) / 8.0 * k as f64;
        let init_seconds = block
            * (kappa * pairs_per_node * c.seconds_per_base_ot
                + init_bytes_per_node / c.bandwidth_bytes_per_second);

        // --- Computation steps --------------------------------------------
        // Every node is a member of ~(k+1) blocks and cannot overlap their
        // work (the paper's conservative assumption); iterations + 1 update
        // MPCs run per vertex.
        let updates = (iterations + 1) as f64;
        let computation_seconds = block
            * updates
            * mpc_node_seconds(
                inputs.update_and_gates as f64,
                inputs.update_free_gates as f64,
            );
        let computation_bytes = block * updates * mpc_node_bytes(inputs.update_and_gates as f64);

        // --- Communication steps --------------------------------------------
        // Per iteration, a node acts as: a sender-block member for D edges
        // in each of its k+1 blocks, the sending vertex i for its own D
        // out-edges, and the receiving vertex j for its D in-edges.
        let member_encrypt_seconds = block * (l + 1.0) * c.seconds_per_exponentiation;
        let member_encrypt_bytes = block * (l + 1.0) * elem;
        let vertex_i_seconds = block * block * l * c.seconds_per_group_multiplication
            + block * l * c.seconds_per_exponentiation;
        let vertex_i_bytes = block * l * 2.0 * elem;
        let vertex_j_seconds = block * l * c.seconds_per_exponentiation;
        let vertex_j_bytes = block * l * 2.0 * elem;
        let member_decrypt_seconds = 2.0 * l * c.seconds_per_exponentiation;

        let per_iteration_transfer_seconds = block * d as f64 * member_encrypt_seconds
            + d as f64 * (vertex_i_seconds + vertex_j_seconds)
            + block * d as f64 * member_decrypt_seconds;
        let per_iteration_transfer_bytes =
            block * d as f64 * member_encrypt_bytes + d as f64 * (vertex_i_bytes + vertex_j_bytes);
        let communication_seconds = iterations as f64 * per_iteration_transfer_seconds;
        let communication_bytes = iterations as f64 * per_iteration_transfer_bytes;

        // --- Aggregation -----------------------------------------------------
        // Two-level tree of aggregation blocks with the configured fan-in;
        // a node participates in at most one group per level.
        let levels = if n as u64 <= self.aggregation_tree_degree {
            1
        } else {
            2
        };
        let group_size = (n as u64).min(self.aggregation_tree_degree) as f64;
        let agg_and_gates = inputs.aggregation_and_gates_per_vertex as f64 * group_size
            + inputs.noising_and_gates as f64;
        let aggregation_seconds = levels as f64 * mpc_node_seconds(agg_and_gates, 0.0)
            + block * inputs.state_bits as f64 / 8.0 / c.bandwidth_bytes_per_second;
        let aggregation_bytes =
            levels as f64 * mpc_node_bytes(agg_and_gates) + block * inputs.state_bits as f64 / 8.0;

        let total_seconds =
            init_seconds + computation_seconds + communication_seconds + aggregation_seconds;
        let bytes_per_node =
            init_bytes_per_node + computation_bytes + communication_bytes + aggregation_bytes;

        ProjectionResult {
            total_seconds,
            bytes_per_node,
            breakdown: ProjectionBreakdown {
                initialization_seconds: init_seconds,
                computation_seconds,
                communication_seconds,
                aggregation_seconds,
            },
            iterations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise_circuit::{noising_circuit, NOISE_RANDOM_BITS};
    use dstress_circuit::builder::CircuitBuilder;

    /// A stand-in update circuit with a gate count comparable to the
    /// Eisenberg–Noe step at the given degree bound (the real circuit lives
    /// in `dstress-finance`; the projection only needs counts).
    fn synthetic_inputs(d: usize) -> ProjectionInputs {
        let width = 16u32;
        let mut b = CircuitBuilder::new();
        let state = b.input_word(width);
        let mut acc = state.clone();
        for _ in 0..d {
            let m = b.input_word(width);
            let scaled = b.mul_fixed(&m, &state, 8);
            acc = b.add(&acc, &scaled);
        }
        let divisor = b.input_word(width);
        let ratio = b.ratio_capped(&acc, &divisor, 8);
        b.output_word(&ratio);
        let update = b.build().unwrap();

        let mut b = CircuitBuilder::new();
        let mut words = Vec::new();
        for _ in 0..100 {
            words.push(b.input_word(32));
        }
        let total = b.sum(&words);
        b.output_word(&total);
        let agg = b.build().unwrap();

        let noise = noising_circuit(32, NOISE_RANDOM_BITS, 0);
        ProjectionInputs::from_circuits(&update, &agg, 100, &noise, (3 + 2 * d as u64) * 16, 12)
    }

    #[test]
    fn default_iterations_is_log2() {
        assert_eq!(ScalabilityModel::default_iterations(100), 7);
        assert_eq!(ScalabilityModel::default_iterations(1750), 11);
        assert_eq!(ScalabilityModel::default_iterations(2), 1);
    }

    #[test]
    fn headline_projection_is_hours_not_years() {
        // The paper's headline: the full U.S. banking system (N = 1750,
        // D = 100, block size 20, I = 11) takes on the order of five hours
        // and several hundred megabytes per node — versus centuries for the
        // monolithic-MPC baseline.
        let model = ScalabilityModel::paper_reference();
        let inputs = synthetic_inputs(100);
        let result = model.project(&inputs, 1750, 100, 19, 11);
        assert!(
            (1.0..24.0).contains(&result.hours()),
            "projected {} hours",
            result.hours()
        );
        assert!(
            (50.0..5000.0).contains(&result.megabytes_per_node()),
            "projected {} MB per node",
            result.megabytes_per_node()
        );
    }

    #[test]
    fn projection_scales_with_degree_and_block_size() {
        let model = ScalabilityModel::paper_reference();
        let small_d = model.project(&synthetic_inputs(10), 500, 10, 19, 9);
        let large_d = model.project(&synthetic_inputs(100), 500, 100, 19, 9);
        assert!(large_d.total_seconds > large_d.breakdown.aggregation_seconds);
        assert!(large_d.total_seconds > 2.0 * small_d.total_seconds);
        assert!(large_d.bytes_per_node > small_d.bytes_per_node);

        let small_k = model.project(&synthetic_inputs(40), 500, 40, 7, 9);
        let large_k = model.project(&synthetic_inputs(40), 500, 40, 19, 9);
        assert!(large_k.total_seconds > 1.5 * small_k.total_seconds);
    }

    #[test]
    fn projection_grows_mildly_with_n() {
        // For fixed D the per-node cost grows with N only through the
        // iteration count and the aggregation tree (Fig. 6's gentle slope).
        let model = ScalabilityModel::paper_reference();
        let inputs = synthetic_inputs(40);
        let small = model.project(
            &inputs,
            200,
            40,
            19,
            ScalabilityModel::default_iterations(200),
        );
        let large = model.project(
            &inputs,
            2000,
            40,
            19,
            ScalabilityModel::default_iterations(2000),
        );
        assert!(large.total_seconds > small.total_seconds);
        assert!(large.total_seconds < 3.0 * small.total_seconds);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let model = ScalabilityModel::paper_reference();
        let inputs = synthetic_inputs(10);
        let r = model.project(&inputs, 100, 10, 7, 7);
        let sum = r.breakdown.initialization_seconds
            + r.breakdown.computation_seconds
            + r.breakdown.communication_seconds
            + r.breakdown.aggregation_seconds;
        assert!((sum - r.total_seconds).abs() < 1e-9);
        assert_eq!(r.iterations, 7);
    }
}
