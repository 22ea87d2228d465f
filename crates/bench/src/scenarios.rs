//! The DP graph-analytics scenario suite (`repro -- scenarios`).
//!
//! The paper's evaluation runs one workload (systemic risk); this module
//! exercises the runtime across the four scenario programs added with the
//! analytics suite — degree histogram, WCC component count, SSSP hop
//! distance and fixed-point PageRank — releasing each through the full
//! engine (GMW blocks, transfer accounting, Laplace noising) and checking
//! the released value against its plaintext reference within the analytic
//! error bound (fixed-point quantisation plus the Laplace tail at
//! δ = 10⁻⁹).

use std::time::Instant;

use dstress_core::{
    DStressConfig, DStressRuntime, DegreeHistogramProgram, PageRankProgram, SecureVertexProgram,
    SsspProgram, WccProgram,
};
use dstress_graph::{execute_reference, Graph, PageRankRef, SsspHops, VertexId, WccLabels};
use dstress_net::cost::OperationCounts;

/// The Laplace tail bound used for the per-row error budget:
/// `P(|Lap(b)| > b·ln(1/δ)) = δ` at δ = 10⁻⁹.
const LAPLACE_TAIL_LOG: f64 = 20.723_265_836_946_41; // ln(1e9)

/// One engine release of the scenario suite.
pub struct ScenarioRow {
    /// Program label.
    pub program: &'static str,
    /// Vertex count of the scenario graph.
    pub vertices: usize,
    /// Communication rounds the program ran.
    pub iterations: u32,
    /// The noised released value.
    pub released: f64,
    /// The plaintext reference value (real-valued for PageRank).
    pub reference: f64,
    /// Analytic bound on `|released − reference|`: quantisation plus the
    /// Laplace tail at δ = 10⁻⁹.
    pub error_bound: f64,
    /// The program's global sensitivity (edge-DP).
    pub sensitivity: f64,
    /// ε spent on the release.
    pub epsilon: f64,
    /// Wall-clock seconds of the engine run.
    pub measured_seconds: f64,
    /// Operation counts across all four engine phases.
    pub counts: OperationCounts,
    /// Mean measured traffic per node.
    pub traffic_per_node_bytes: f64,
}

impl ScenarioRow {
    /// Absolute released-vs-reference error.
    pub fn error(&self) -> f64 {
        (self.released - self.reference).abs()
    }

    /// Whether the release landed inside the analytic bound.
    pub fn within_bound(&self) -> bool {
        self.error() <= self.error_bound
    }
}

/// The symmetric two-component scenario graph: a path (diameter = its
/// length) plus a disjoint cycle, every edge paired with its reverse so
/// the WCC root count is exact.  Returns the graph and the propagation
/// round count that covers its diameter.
pub fn scenario_graph(full: bool) -> (Graph, u32) {
    let (path_len, cycle_len) = if full { (10, 6) } else { (4, 3) };
    let mut g = Graph::new(path_len + cycle_len, 4);
    for i in 0..path_len - 1 {
        g.add_bidirectional(VertexId(i), VertexId(i + 1))
            .expect("path edges fit the degree bound");
    }
    for i in 0..cycle_len {
        g.add_bidirectional(
            VertexId(path_len + i),
            VertexId(path_len + (i + 1) % cycle_len),
        )
        .expect("cycle edges fit the degree bound");
    }
    (g, path_len as u32)
}

/// The suite's engine configuration: accounted transfers (k = 2) with a
/// moderate per-release ε.
pub fn scenario_config() -> DStressConfig {
    let mut config = DStressConfig::benchmark(2);
    config.epsilon = 1.0;
    config
}

fn run_release<P: SecureVertexProgram>(
    name: &'static str,
    config: &DStressConfig,
    graph: &Graph,
    program: &P,
    reference: f64,
    quantisation: f64,
) -> ScenarioRow {
    let start = Instant::now();
    let run = DStressRuntime::new(config.clone())
        .execute(graph, program)
        .expect("scenario release succeeds");
    let measured_seconds = start.elapsed().as_secs_f64();
    let sensitivity = program.sensitivity();
    ScenarioRow {
        program: name,
        vertices: graph.vertex_count(),
        iterations: run.iterations,
        released: run.noised_output,
        reference,
        error_bound: quantisation + sensitivity / config.epsilon * LAPLACE_TAIL_LOG,
        sensitivity,
        epsilon: config.epsilon,
        measured_seconds,
        counts: run.phases.total_counts(),
        traffic_per_node_bytes: run.mean_bytes_per_node(),
    }
}

/// Runs all four scenario programs through the engine and returns one row
/// per release, each checked against its plaintext reference.
pub fn scenario_rows(full: bool) -> Vec<ScenarioRow> {
    let (g, rounds) = scenario_graph(full);
    let config = scenario_config();
    let target = VertexId(1);
    let far_end = VertexId(rounds as usize - 1); // Last path vertex.

    let histogram = DegreeHistogramProgram {
        width: 8,
        lo: 2,
        hi: 2,
    };
    let hist_ref = execute_reference(&g, &dstress_graph::DegreeBin::new(&g, 2, 2)).aggregate;

    let wcc = WccProgram { width: 8, rounds };
    let wcc_ref = execute_reference(&g, &WccLabels { rounds }).aggregate;

    let sssp = SsspProgram {
        width: 8,
        source: VertexId(0),
        target: far_end,
        rounds,
    };
    let sssp_ref = execute_reference(
        &g,
        &SsspHops {
            source: VertexId(0),
            target: far_end,
            rounds,
        },
    )
    .aggregate;

    let pagerank = PageRankProgram {
        frac_bits: 12,
        target,
        rounds: 4,
        vertices: g.vertex_count(),
    };
    let pagerank_ref = execute_reference(&g, &PageRankRef::new(&g, target, 4)).aggregate;
    let pagerank_quant = pagerank.quantisation_bound(g.degree_bound());

    vec![
        run_release("degree-histogram", &config, &g, &histogram, hist_ref, 0.0),
        run_release("wcc-components", &config, &g, &wcc, wcc_ref, 0.0),
        run_release("sssp-hops", &config, &g, &sssp, sssp_ref, 0.0),
        run_release(
            "pagerank",
            &config,
            &g,
            &pagerank,
            pagerank_ref,
            pagerank_quant,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_four_programs_release_within_their_bounds() {
        let rows = scenario_rows(false);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(
                row.within_bound(),
                "{}: released {} vs reference {} exceeds bound {}",
                row.program,
                row.released,
                row.reference,
                row.error_bound
            );
        }
        // The integer references on the quick graph are known exactly:
        // path interior (2) + the whole 3-cycle in the [2, 2] degree bin,
        // two components, and the path end sits 3 hops from the source.
        assert_eq!(rows[0].reference, 5.0);
        assert_eq!(rows[1].reference, 2.0);
        assert_eq!(rows[2].reference, 3.0);
    }
}
