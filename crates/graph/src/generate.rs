//! Generic random-graph generators.
//!
//! The core–periphery generator that the paper's Appendix C uses lives in
//! `dstress-finance`, because it also synthesises balance sheets.  This
//! module provides the topology-only generators used by tests and
//! examples, both of which respect a degree bound `D`.

use crate::graph::{Graph, VertexId};
use dstress_math::rng::DetRng;

/// Generates an Erdős–Rényi-style directed graph: each ordered pair gets
/// an edge with probability `p`, skipping edges that would violate the
/// degree bound.
pub fn erdos_renyi(n: usize, p: f64, degree_bound: usize, rng: &mut dyn DetRng) -> Graph {
    let mut g = Graph::new(n, degree_bound);
    for i in 0..n {
        for j in 0..n {
            if i != j && rng.next_f64() < p {
                // Ignore degree-bound rejections: the generator's contract
                // is "at most D", not "exactly the ER distribution".
                let _ = g.add_edge(VertexId(i), VertexId(j));
            }
        }
    }
    g
}

/// Generates a directed ring with `extra` random chords per vertex,
/// producing a connected graph with a small, predictable degree.
pub fn ring_with_chords(
    n: usize,
    extra: usize,
    degree_bound: usize,
    rng: &mut dyn DetRng,
) -> Graph {
    assert!(n >= 2, "need at least two vertices");
    let mut g = Graph::new(n, degree_bound);
    for i in 0..n {
        g.add_edge(VertexId(i), VertexId((i + 1) % n))
            .expect("ring edges satisfy any degree bound >= 1");
    }
    for i in 0..n {
        for _ in 0..extra {
            let j = rng.next_below(n as u64) as usize;
            if j != i {
                let _ = g.add_edge(VertexId(i), VertexId(j));
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstress_math::rng::Xoshiro256;

    #[test]
    fn erdos_renyi_respects_bound() {
        let mut rng = Xoshiro256::new(1);
        let g = erdos_renyi(50, 0.3, 8, &mut rng);
        assert_eq!(g.vertex_count(), 50);
        assert!(g.max_degree() <= 8);
        assert!(g.edge_count() > 0);
    }

    #[test]
    fn erdos_renyi_density_scales_with_p() {
        let mut rng = Xoshiro256::new(2);
        let sparse = erdos_renyi(60, 0.02, 60, &mut rng);
        let dense = erdos_renyi(60, 0.2, 60, &mut rng);
        assert!(dense.edge_count() > 3 * sparse.edge_count());
    }

    #[test]
    fn ring_is_connected_and_has_cycle_edges() {
        let mut rng = Xoshiro256::new(3);
        let g = ring_with_chords(10, 0, 4, &mut rng);
        assert_eq!(g.edge_count(), 10);
        for i in 0..10 {
            assert!(g.has_edge(VertexId(i), VertexId((i + 1) % 10)));
        }
        let g2 = ring_with_chords(10, 2, 6, &mut rng);
        assert!(g2.edge_count() > 10);
    }

    #[test]
    fn generators_are_deterministic() {
        let g1 = erdos_renyi(20, 0.2, 10, &mut Xoshiro256::new(7));
        let g2 = erdos_renyi(20, 0.2, 10, &mut Xoshiro256::new(7));
        assert_eq!(g1.edge_count(), g2.edge_count());
        for v in g1.vertices() {
            assert_eq!(g1.out_neighbors(v), g2.out_neighbors(v));
        }
    }
}
