//! Figure 5: end-to-end runs of Eisenberg–Noe and Elliott–Golub–Jackson.
//!
//! The paper runs both systemic-risk algorithms end to end on a synthetic
//! graph with `N = 100` banks, degree limit `D = 10` and `I = 7`
//! iterations, varying the block size from 8 to 20, and reports the
//! completion-time breakdown (initialization / computation steps / message
//! transfers / aggregation + noising) and the total per-node traffic.
//!
//! This module performs the same runs with the DStress runtime (in
//! cost-accounted transfer mode so the crypto constants of the simulation
//! group do not distort the picture) and reports measured wall-clock time,
//! the projected prototype-scale per-node time per phase, and the measured
//! per-node traffic.

use dstress_core::{DStressConfig, DStressRun, DStressRuntime};
use dstress_finance::generator::{apply_shock, core_periphery};
use dstress_finance::{
    CircuitParams, EisenbergNoeSecure, ElliottGolubJacksonSecure, FinancialNetwork, GeneratorConfig,
};
use dstress_graph::VertexId;
use dstress_math::rng::Xoshiro256;
use dstress_net::cost::{CostModel, OperationCounts};
use dstress_net::pool::parallel_map;
use std::time::Instant;

/// Which systemic-risk algorithm an end-to-end run executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Eisenberg–Noe.
    EisenbergNoe,
    /// Elliott–Golub–Jackson.
    ElliottGolubJackson,
}

impl Algorithm {
    /// Short label used in printed tables.
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::EisenbergNoe => "EN",
            Algorithm::ElliottGolubJackson => "EGJ",
        }
    }
}

/// Parameters of an end-to-end experiment.
#[derive(Clone, Copy, Debug)]
pub struct EndToEndParams {
    /// Number of banks `N`.
    pub banks: usize,
    /// Degree bound `D`.
    pub degree_bound: usize,
    /// Iterations `I`.
    pub iterations: u32,
    /// Block sizes to sweep.
    pub block_sizes: [usize; 4],
    /// How many of `block_sizes` to actually run.
    pub block_size_count: usize,
}

impl EndToEndParams {
    /// The paper's Figure 5 parameters (N = 100, D = 10, I = 7, block sizes
    /// 8–20).  Expect several minutes of wall-clock per algorithm.
    pub fn paper() -> Self {
        EndToEndParams {
            banks: 100,
            degree_bound: 10,
            iterations: 7,
            block_sizes: [8, 12, 16, 20],
            block_size_count: 4,
        }
    }

    /// A reduced configuration used by the Criterion bench and the smoke
    /// tests: same shape, smaller constants.
    pub fn quick() -> Self {
        EndToEndParams {
            banks: 20,
            degree_bound: 5,
            iterations: 3,
            block_sizes: [4, 8, 0, 0],
            block_size_count: 2,
        }
    }

    /// The block sizes to run.
    pub fn blocks(&self) -> &[usize] {
        &self.block_sizes[..self.block_size_count]
    }
}

/// One end-to-end measurement row (one bar of Figure 5).
#[derive(Clone, Debug)]
pub struct EndToEndRow {
    /// Which algorithm was run.
    pub algorithm: Algorithm,
    /// Block size `k + 1`.
    pub block_size: usize,
    /// Measured wall-clock seconds of the in-process simulation.
    pub measured_seconds: f64,
    /// Projected prototype-scale per-node seconds per phase
    /// `[initialization, computation, communication, aggregation]`.
    pub projected_phase_seconds: [f64; 4],
    /// Measured mean bytes sent per node.
    pub traffic_per_node_bytes: f64,
    /// The noised output the run released.
    pub noised_output: f64,
    /// The pre-noise aggregate (evaluation only).
    pub ideal_output: f64,
    /// Total operation counts measured across all phases.
    pub total_counts: OperationCounts,
}

impl EndToEndRow {
    /// Total projected per-node seconds.
    pub fn projected_total_seconds(&self) -> f64 {
        self.projected_phase_seconds.iter().sum()
    }
}

/// Builds the Figure 5 workload: a core–periphery network of `banks` banks
/// with a shock applied to part of the core so the algorithms have a real
/// cascade to measure.
pub fn fig5_network(banks: usize, degree_bound: usize, seed: u64) -> FinancialNetwork {
    let mut config = GeneratorConfig::small(banks, degree_bound);
    config.degree_bound = degree_bound;
    let mut rng = Xoshiro256::new(seed);
    let mut net = core_periphery(&config, &mut rng);
    let shocked: Vec<VertexId> = (0..(config.core_banks / 2).max(1)).map(VertexId).collect();
    apply_shock(&mut net, &shocked, 0.95);
    net
}

fn project_phases(run: &DStressRun, banks: usize) -> [f64; 4] {
    let cost = CostModel::paper_reference();
    let per_node = |counts| cost.estimate_seconds(&counts) / banks as f64;
    [
        per_node(run.phases.initialization.counts),
        per_node(run.phases.computation.counts),
        per_node(run.phases.communication.counts),
        per_node(run.phases.aggregation.counts),
    ]
}

/// Runs one end-to-end configuration.
pub fn run_end_to_end(
    algorithm: Algorithm,
    network: &FinancialNetwork,
    iterations: u32,
    block_size: usize,
    seed: u64,
) -> EndToEndRow {
    let params = CircuitParams::default_params();
    let mut config = DStressConfig::benchmark(block_size - 1);
    config.seed = seed;
    let runtime = DStressRuntime::new(config);
    let banks = network.bank_count();

    let start = Instant::now();
    let run = match algorithm {
        Algorithm::EisenbergNoe => {
            let program = EisenbergNoeSecure {
                network,
                params,
                iterations,
                leverage_bound: 0.1,
            };
            runtime
                .execute(network.graph(), &program)
                .expect("end-to-end run succeeds")
        }
        Algorithm::ElliottGolubJackson => {
            let program = ElliottGolubJacksonSecure {
                network,
                params,
                iterations,
                leverage_bound: 0.1,
            };
            runtime
                .execute(network.graph(), &program)
                .expect("end-to-end run succeeds")
        }
    };
    let measured_seconds = start.elapsed().as_secs_f64();

    EndToEndRow {
        algorithm,
        block_size,
        measured_seconds,
        projected_phase_seconds: project_phases(&run, banks),
        traffic_per_node_bytes: run.mean_bytes_per_node(),
        noised_output: run.noised_output,
        ideal_output: run.ideal_output,
        total_counts: run.phases.total_counts(),
    }
}

/// The full Figure 5 sweep for both algorithms, the (algorithm, block
/// size) points fanned out over `threads` workers.  Every point is an
/// independent seeded run, so the rows do not depend on `threads`.
pub fn fig5_sweep(params: &EndToEndParams, threads: usize) -> Vec<EndToEndRow> {
    let network = fig5_network(params.banks, params.degree_bound, 0xF15);
    let mut points = Vec::new();
    for &algorithm in &[Algorithm::EisenbergNoe, Algorithm::ElliottGolubJackson] {
        for &block_size in params.blocks() {
            points.push((algorithm, block_size));
        }
    }
    parallel_map(points, threads, |_idx, (algorithm, block_size)| {
        run_end_to_end(algorithm, &network, params.iterations, block_size, 0xF15)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_has_expected_shapes() {
        // Smaller than `EndToEndParams::quick()` so the test stays fast in
        // debug builds; the shape assertions are identical.
        let params = EndToEndParams {
            banks: 10,
            degree_bound: 3,
            iterations: 2,
            block_sizes: [3, 6, 0, 0],
            block_size_count: 2,
        };
        let rows = fig5_sweep(&params, 1);
        assert_eq!(rows.len(), 4); // 2 algorithms × 2 block sizes

        // Per-node traffic and projected time grow with the block size
        // (Figure 5's main observation).
        let en_small = &rows[0];
        let en_large = &rows[1];
        assert_eq!(en_small.algorithm, Algorithm::EisenbergNoe);
        assert!(en_large.traffic_per_node_bytes > en_small.traffic_per_node_bytes);
        assert!(en_large.projected_total_seconds() > en_small.projected_total_seconds());

        // EGJ is more expensive than EN at the same block size (bigger
        // update circuit), as in the paper.
        let egj_small = &rows[2];
        assert_eq!(egj_small.algorithm, Algorithm::ElliottGolubJackson);
        assert!(egj_small.projected_total_seconds() > en_small.projected_total_seconds());

        // The computation and communication phases dominate.
        let phases = en_large.projected_phase_seconds;
        assert!(phases[1] + phases[2] > phases[0] + phases[3]);

        // The released outputs are noised but in the vicinity of the ideal
        // aggregate, and both algorithms report the same ideal value across
        // block sizes.
        assert_eq!(rows[0].ideal_output, rows[1].ideal_output);
        for row in &rows {
            assert!((row.noised_output - row.ideal_output).abs() < 500.0);
        }
    }
}
