//! Figure 6: projected cost at the scale of the U.S. banking system.
//!
//! The paper projects end-to-end computation time and per-node traffic for
//! networks of up to 2,000 banks and degree bounds 10–100 from its
//! microbenchmarks (with validation points from real runs at N = 20 and
//! N = 100), concluding that the full U.S. banking system (N = 1,750,
//! D = 100) would take about 4.8 hours and ~750 MB of traffic per node.
//!
//! This module produces the same two series with the calibrated
//! [`ScalabilityModel`] fed by the *actual* Eisenberg–Noe circuits, plus
//! validation points measured with the runtime.

use crate::end_to_end::{fig5_network, run_end_to_end, Algorithm};
use dstress_core::noise_circuit::{noising_circuit, NOISE_RANDOM_BITS};
use dstress_core::{ProjectionInputs, ProjectionResult, ScalabilityModel, SecureVertexProgram};
use dstress_finance::{CircuitParams, EisenbergNoeSecure, FinancialNetwork};

/// One projected point of Figure 6.
#[derive(Clone, Debug)]
pub struct ProjectionRow {
    /// Number of nodes `N`.
    pub nodes: usize,
    /// Degree bound `D`.
    pub degree_bound: usize,
    /// Collusion bound `k`.
    pub collusion_bound: usize,
    /// Iterations assumed (`⌈log₂ N⌉`).
    pub iterations: u32,
    /// The projection.
    pub result: ProjectionResult,
}

/// A validation point: a real run compared against its projection.
#[derive(Clone, Debug)]
pub struct ValidationPoint {
    /// Number of nodes of the real run.
    pub nodes: usize,
    /// Degree bound of the real run.
    pub degree_bound: usize,
    /// Block size of the real run.
    pub block_size: usize,
    /// Projected per-node seconds for the same parameters.
    pub projected_seconds: f64,
    /// Per-node seconds derived from the measured operation counts of the
    /// real run (same cost model, measured counts).
    pub measured_projected_seconds: f64,
    /// Measured per-node traffic of the real run, in bytes.
    pub measured_bytes_per_node: f64,
    /// Projected per-node traffic, in bytes.
    pub projected_bytes_per_node: f64,
}

/// Builds the projection inputs from the real Eisenberg–Noe circuits at a
/// given degree bound.
pub fn en_projection_inputs(degree_bound: usize) -> ProjectionInputs {
    let params = CircuitParams::default_params();
    let network = FinancialNetwork::new(2, degree_bound);
    let program = EisenbergNoeSecure {
        network: &network,
        params,
        iterations: 1,
        leverage_bound: 0.1,
    };
    let update = program.update_circuit(degree_bound);
    let aggregation = program.aggregation_circuit(100);
    let noising = noising_circuit(program.aggregate_bits(), NOISE_RANDOM_BITS, 0);
    ProjectionInputs::from_circuits(
        &update,
        &aggregation,
        100,
        &noising,
        program.state_bits() as u64,
        program.message_bits() as u64,
    )
}

/// The Figure 6 node-count sweep.
///
/// The seed reproduction hardcoded `n ≤ 2000` here — the
/// dense-materialisation wall.  The cap is lifted: the projection
/// continues past it, model-only like every other row of the figure;
/// *measured* runs past the wall are the benchmark's `stream-spill`
/// workload.
pub fn fig6_node_counts(full: bool) -> &'static [usize] {
    if full {
        &[100, 250, 500, 1000, 1500, 1750, 2000, 3000, 5000, 10_000]
    } else {
        &[100, 500, 1000, 1750, 3000]
    }
}

/// The Figure 6 sweep: projected time and traffic across `N` and `D` at
/// the paper's block size (k + 1 = 20).
pub fn fig6_sweep(node_counts: &[usize], degree_bounds: &[usize]) -> Vec<ProjectionRow> {
    let model = ScalabilityModel::paper_reference();
    let mut rows = Vec::new();
    for &d in degree_bounds {
        let inputs = en_projection_inputs(d);
        for &n in node_counts {
            let iterations = ScalabilityModel::default_iterations(n);
            let result = model.project(&inputs, n, d, 19, iterations);
            rows.push(ProjectionRow {
                nodes: n,
                degree_bound: d,
                collusion_bound: 19,
                iterations,
                result,
            });
        }
    }
    rows
}

/// The headline number: the full U.S. banking system.
pub fn headline_projection() -> ProjectionRow {
    let model = ScalabilityModel::paper_reference();
    let inputs = en_projection_inputs(100);
    let result = model.project(&inputs, 1750, 100, 19, 11);
    ProjectionRow {
        nodes: 1750,
        degree_bound: 100,
        collusion_bound: 19,
        iterations: 11,
        result,
    }
}

/// Runs a real end-to-end execution and compares it against the projection
/// at the same parameters (the paper's red validation circles).
pub fn validation_point(nodes: usize, degree_bound: usize, block_size: usize) -> ValidationPoint {
    let network = fig5_network(nodes, degree_bound, 0xF16);
    let iterations = ScalabilityModel::default_iterations(nodes);
    let row = run_end_to_end(
        Algorithm::EisenbergNoe,
        &network,
        iterations,
        block_size,
        0xF16,
    );

    let model = ScalabilityModel::paper_reference();
    let inputs = en_projection_inputs(degree_bound);
    let projection = model.project(&inputs, nodes, degree_bound, block_size - 1, iterations);

    ValidationPoint {
        nodes,
        degree_bound,
        block_size,
        projected_seconds: projection.total_seconds,
        measured_projected_seconds: row.projected_total_seconds(),
        measured_bytes_per_node: row.traffic_per_node_bytes,
        projected_bytes_per_node: projection.bytes_per_node,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_matches_paper_regime() {
        // N = 1750, D = 100 should land in the "few hours, hundreds of MB"
        // regime the paper reports (4.8 h, ~750 MB per node) — and nowhere
        // near the centuries of the naïve baseline.
        let headline = headline_projection();
        let hours = headline.result.hours();
        let mb = headline.result.megabytes_per_node();
        assert!((1.0..24.0).contains(&hours), "projected {hours} hours");
        assert!((50.0..5000.0).contains(&mb), "projected {mb} MB per node");
        assert_eq!(headline.iterations, 11);
    }

    #[test]
    fn fig6_node_counts_continue_past_the_old_wall() {
        // The seed repo capped the sweep at n = 2000; both parameter sets
        // now continue beyond it.
        assert!(fig6_node_counts(false).iter().any(|&n| n > 2000));
        assert!(fig6_node_counts(true).iter().any(|&n| n > 2000));
        assert!(fig6_node_counts(true).len() > fig6_node_counts(false).len());
    }

    #[test]
    fn projections_grow_with_n_and_d() {
        let rows = fig6_sweep(&[250, 1000, 2000], &[10, 100]);
        assert_eq!(rows.len(), 6);
        // Within one D series, time grows with N.
        assert!(rows[2].result.total_seconds > rows[0].result.total_seconds);
        // Across D at the same N, D = 100 dominates D = 10 (Figure 6's
        // ordering of the curves).
        let d10_at_1000 = &rows[1];
        let d100_at_1000 = &rows[4];
        assert_eq!(d10_at_1000.nodes, d100_at_1000.nodes);
        assert!(d100_at_1000.result.total_seconds > 3.0 * d10_at_1000.result.total_seconds);
        assert!(d100_at_1000.result.bytes_per_node > d10_at_1000.result.bytes_per_node);
    }

    #[test]
    fn validation_point_is_same_order_of_magnitude() {
        // The projection and a real (small) run should agree within an
        // order of magnitude — the paper's validation circles sit slightly
        // below the curves because real runs overlap block computations.
        let point = validation_point(12, 4, 4);
        let ratio = point.projected_seconds / point.measured_projected_seconds.max(1e-9);
        assert!((0.1..30.0).contains(&ratio), "time ratio {ratio}");
        let traffic_ratio = point.projected_bytes_per_node / point.measured_bytes_per_node.max(1.0);
        assert!(
            (0.05..50.0).contains(&traffic_ratio),
            "traffic ratio {traffic_ratio}"
        );
    }
}
