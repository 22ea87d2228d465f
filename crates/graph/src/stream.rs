//! Streaming, bounded-memory edge generation.
//!
//! DStress's premise is that the graph is *physically distributed* — no
//! participant ever holds the full topology (§2).  The simulation should
//! not have to either: an [`EdgeStream`] emits edges one at a time from a
//! seeded RNG using only `O(V)` working state, so topologies far past the
//! dense-materialisation wall can be generated, measured and (through
//! [`crate::Graph::from_edge_stream`]) stored in compact CSR form.
//!
//! The generator, [`BarabasiAlbertStream`], is scale-free preferential
//! attachment that respects the public degree bound `D` *by
//! construction* (attachment to a saturated vertex is clamped —
//! redirected or dropped — never emitted).  Each new vertex attaches `m`
//! out-edges to earlier vertices with probability proportional to their
//! degree (plus one), implemented with `O(1)`-expected rejection sampling
//! against the degree array — no stub list, no repeated-endpoint table.
//! [`GraphEdgeStream`] replays an existing [`Graph`] as a stream.
//!
//! Streams are **restartable**: [`EdgeStream::restart`] rewinds the
//! generator to its initial state, and the same seed replays the same
//! edge sequence — the property [`crate::Graph::from_edge_stream`]'s
//! two-pass CSR build and the proptests rely on.
//!
//! ## Example
//!
//! ```
//! use dstress_graph::stream::{BarabasiAlbertStream, EdgeStream};
//! use dstress_graph::Graph;
//!
//! let mut stream = BarabasiAlbertStream::new(1_000, 2, 8, 42);
//! let graph = Graph::from_edge_stream(&mut stream).unwrap();
//! assert_eq!(graph.vertex_count(), 1_000);
//! assert!(graph.is_csr());
//! assert!(graph.max_degree() <= 8);
//! ```

use crate::graph::{Graph, VertexId};
use dstress_math::rng::{DetRng, Xoshiro256};

/// A restartable, seeded source of directed edges.
///
/// Implementations hold `O(V)` state (degree counters, cursors), never a
/// materialised edge list.  The contract consumers rely on:
///
/// * every emitted edge satisfies `from != to`, both endpoints in
///   `0..vertex_count()`, and no endpoint's degree ever exceeds
///   `degree_bound()`;
/// * no duplicate directed edge is emitted;
/// * after [`EdgeStream::restart`], the exact same sequence replays.
pub trait EdgeStream {
    /// Number of vertices the stream generates edges over.
    fn vertex_count(&self) -> usize;

    /// The public degree bound `D` every emitted edge respects.
    fn degree_bound(&self) -> usize;

    /// Emits the next edge, or `None` when the topology is complete.
    fn next_edge(&mut self) -> Option<(VertexId, VertexId)>;

    /// Rewinds the stream to its initial state; the same sequence
    /// replays.
    fn restart(&mut self);
}

/// Replays the edges of an existing [`Graph`] in vertex-major order
/// (all of vertex 0's out-edges, then vertex 1's, …).
///
/// Adapts materialised graphs to stream-consuming APIs and anchors the
/// equivalence proptests between the construction paths.
pub struct GraphEdgeStream<'g> {
    graph: &'g Graph,
    vertex: usize,
    slot: usize,
}

impl<'g> GraphEdgeStream<'g> {
    /// Creates a stream over `graph`.
    pub fn new(graph: &'g Graph) -> Self {
        GraphEdgeStream {
            graph,
            vertex: 0,
            slot: 0,
        }
    }
}

impl EdgeStream for GraphEdgeStream<'_> {
    fn vertex_count(&self) -> usize {
        self.graph.vertex_count()
    }

    fn degree_bound(&self) -> usize {
        self.graph.degree_bound()
    }

    fn next_edge(&mut self) -> Option<(VertexId, VertexId)> {
        while self.vertex < self.graph.vertex_count() {
            let v = VertexId(self.vertex);
            if let Some(&to) = self.graph.out_neighbors(v).get(self.slot) {
                self.slot += 1;
                return Some((v, to));
            }
            self.vertex += 1;
            self.slot = 0;
        }
        None
    }

    fn restart(&mut self) {
        self.vertex = 0;
        self.slot = 0;
    }
}

/// Where [`BarabasiAlbertStream`] currently is in its emission schedule.
#[derive(Clone, Copy, Debug)]
enum Cursor {
    /// Emitting the seed ring: next edge starts at this seed vertex.
    Seed(usize),
    /// Growing: `vertex` is attaching, `edge` of its quota already done.
    Grow { vertex: usize, edge: usize },
    /// All edges emitted.
    Done,
}

/// Scale-free topology by Barabási–Albert preferential attachment with
/// degree clamping to the public bound `D`.
///
/// Vertices `0..min(m + 1, n)` form a seed ring; every later vertex `v`
/// attaches `m` out-edges to distinct earlier vertices, chosen with
/// probability proportional to `degree + 1` via rejection sampling (the
/// total degree of any vertex is at most `2 D`, so a uniform proposal is
/// accepted with probability `(degree + 1) / (2 D + 1)` — `O(1)`
/// expected work, `O(V)` total state).  A target whose in-degree has
/// reached `D` is skipped; if rejection stalls, a deterministic scan
/// picks the next unsaturated vertex, and a vertex that cannot place all
/// `m` edges simply emits fewer — that is the clamp.
pub struct BarabasiAlbertStream {
    n: usize,
    m: usize,
    degree_bound: usize,
    seed: u64,
    rng: Xoshiro256,
    /// Total (in + out) degree per vertex: the preferential weight.
    total_degree: Vec<u32>,
    /// In-degree per vertex: the clamped quantity.
    in_degree: Vec<u32>,
    /// Targets already chosen by the in-progress vertex (≤ m entries).
    chosen: Vec<usize>,
    cursor: Cursor,
}

impl BarabasiAlbertStream {
    /// Creates a stream over `n` vertices attaching `m` edges each, with
    /// degree bound `degree_bound` and a deterministic `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero or exceeds the degree bound.
    pub fn new(n: usize, m: usize, degree_bound: usize, seed: u64) -> Self {
        assert!(m >= 1, "attachment count m must be at least 1");
        assert!(
            m <= degree_bound,
            "attachment count m = {m} exceeds degree bound D = {degree_bound}"
        );
        let mut stream = BarabasiAlbertStream {
            n,
            m,
            degree_bound,
            seed,
            rng: Xoshiro256::new(seed),
            total_degree: vec![0; n],
            in_degree: vec![0; n],
            chosen: Vec::with_capacity(m),
            cursor: Cursor::Seed(0),
        };
        stream.restart();
        stream
    }

    /// Number of seed-ring vertices.
    fn seed_size(&self) -> usize {
        (self.m + 1).min(self.n)
    }

    /// Picks the next preferential target for `vertex`, or `None` if
    /// every candidate is saturated or already chosen.
    fn pick_target(&mut self, vertex: usize) -> Option<usize> {
        let d = self.degree_bound as u32;
        // degree + 1 never exceeds 2 D + 1, the rejection envelope.
        let envelope = 2 * self.degree_bound as u64 + 1;
        for _ in 0..64 * (self.degree_bound + 1) {
            let u = self.rng.next_below(vertex as u64) as usize;
            let weight = self.total_degree[u] as u64 + 1;
            if self.rng.next_below(envelope) >= weight {
                continue;
            }
            if self.in_degree[u] >= d || self.chosen.contains(&u) {
                continue;
            }
            return Some(u);
        }
        // Rejection stalled (nearly everything saturated): deterministic
        // scan from a seeded start, so restarts still replay identically.
        let start = self.rng.next_below(vertex as u64) as usize;
        for off in 0..vertex {
            let u = (start + off) % vertex;
            if self.in_degree[u] < d && !self.chosen.contains(&u) {
                return Some(u);
            }
        }
        None
    }

    fn emit(&mut self, from: usize, to: usize) -> Option<(VertexId, VertexId)> {
        self.total_degree[from] += 1;
        self.total_degree[to] += 1;
        self.in_degree[to] += 1;
        Some((VertexId(from), VertexId(to)))
    }
}

impl EdgeStream for BarabasiAlbertStream {
    fn vertex_count(&self) -> usize {
        self.n
    }

    fn degree_bound(&self) -> usize {
        self.degree_bound
    }

    fn next_edge(&mut self) -> Option<(VertexId, VertexId)> {
        loop {
            match self.cursor {
                Cursor::Seed(i) => {
                    let s = self.seed_size();
                    if s < 2 || i >= s {
                        self.cursor = Cursor::Grow {
                            vertex: s.max(1),
                            edge: 0,
                        };
                        self.chosen.clear();
                        continue;
                    }
                    self.cursor = Cursor::Seed(i + 1);
                    return self.emit(i, (i + 1) % s);
                }
                Cursor::Grow { vertex, edge } => {
                    if vertex >= self.n {
                        self.cursor = Cursor::Done;
                        return None;
                    }
                    if edge >= self.m {
                        self.cursor = Cursor::Grow {
                            vertex: vertex + 1,
                            edge: 0,
                        };
                        self.chosen.clear();
                        continue;
                    }
                    match self.pick_target(vertex) {
                        Some(u) => {
                            self.chosen.push(u);
                            self.cursor = Cursor::Grow {
                                vertex,
                                edge: edge + 1,
                            };
                            return self.emit(vertex, u);
                        }
                        None => {
                            // Clamp: this vertex cannot place more edges.
                            self.cursor = Cursor::Grow {
                                vertex: vertex + 1,
                                edge: 0,
                            };
                            self.chosen.clear();
                        }
                    }
                }
                Cursor::Done => return None,
            }
        }
    }

    fn restart(&mut self) {
        self.rng = Xoshiro256::new(self.seed);
        self.total_degree.iter_mut().for_each(|d| *d = 0);
        self.in_degree.iter_mut().for_each(|d| *d = 0);
        self.chosen.clear();
        self.cursor = Cursor::Seed(0);
    }
}

/// Collects a stream into a list-backed [`Graph`] through the incremental
/// [`Graph::add_edge`] path — the *materialised* build the proptests pin
/// the streaming CSR build against.
///
/// # Panics
///
/// Panics if the stream emits an edge the incremental build rejects
/// (which would be an [`EdgeStream`] contract violation).
pub fn materialise(stream: &mut dyn EdgeStream) -> Graph {
    let mut graph = Graph::new(stream.vertex_count(), stream.degree_bound());
    while let Some((from, to)) = stream.next_edge() {
        graph
            .add_edge(from, to)
            .expect("EdgeStream contract: emitted edges satisfy the graph invariants");
    }
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn collect(stream: &mut dyn EdgeStream) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        while let Some((a, b)) = stream.next_edge() {
            edges.push((a.0, b.0));
        }
        edges
    }

    #[test]
    fn ba_stream_is_deterministic_and_restartable() {
        let mut a = BarabasiAlbertStream::new(200, 2, 6, 9);
        let mut b = BarabasiAlbertStream::new(200, 2, 6, 9);
        let ea = collect(&mut a);
        assert_eq!(ea, collect(&mut b));
        a.restart();
        assert_eq!(ea, collect(&mut a), "restart must replay");
        let mut c = BarabasiAlbertStream::new(200, 2, 6, 10);
        assert_ne!(ea, collect(&mut c), "different seeds differ");
        assert!(!ea.is_empty());
    }

    #[test]
    fn ba_stream_respects_degree_bound_and_is_scale_free() {
        let mut stream = BarabasiAlbertStream::new(400, 2, 8, 3);
        let graph = Graph::from_edge_stream(&mut stream).unwrap();
        assert_eq!(graph.vertex_count(), 400);
        assert!(graph.max_degree() <= 8);
        // Preferential attachment concentrates degree: the busiest vertex
        // saturates while the median stays near m.
        let degrees: Vec<usize> = graph
            .vertices()
            .map(|v| graph.in_degree(v) + graph.out_degree(v))
            .collect();
        let max = *degrees.iter().max().unwrap();
        let mean = degrees.iter().sum::<usize>() as f64 / degrees.len() as f64;
        assert!(max as f64 > 2.0 * mean, "max {max}, mean {mean}");
        // Edges land close to m per grown vertex (clamping allows less).
        assert!(graph.edge_count() >= 400);
    }

    #[test]
    fn ba_handles_degenerate_sizes() {
        assert!(collect(&mut BarabasiAlbertStream::new(0, 1, 2, 1)).is_empty());
        assert!(collect(&mut BarabasiAlbertStream::new(1, 1, 2, 1)).is_empty());
        let two = collect(&mut BarabasiAlbertStream::new(2, 1, 2, 1));
        assert!(!two.is_empty());
        for &(a, b) in &two {
            assert_ne!(a, b);
        }
    }

    #[test]
    fn graph_edge_stream_replays_vertex_major() {
        let mut g = Graph::new(4, 3);
        g.add_edge(VertexId(2), VertexId(0)).unwrap();
        g.add_edge(VertexId(0), VertexId(1)).unwrap();
        g.add_edge(VertexId(0), VertexId(3)).unwrap();
        let mut stream = GraphEdgeStream::new(&g);
        assert_eq!(collect(&mut stream), vec![(0, 1), (0, 3), (2, 0)]);
        stream.restart();
        assert_eq!(collect(&mut stream), vec![(0, 1), (0, 3), (2, 0)]);
        assert_eq!(stream.vertex_count(), 4);
        assert_eq!(stream.degree_bound(), 3);
    }

    /// The streaming CSR build and the materialised incremental build
    /// agree edge-for-edge at small `n`, across seeds, for the
    /// growth-ordered Barabási–Albert stream and for a replayed
    /// Erdős–Rényi graph, whose edges arrive in no growth order.
    fn assert_stream_matches_materialised<S: EdgeStream>(mut make: impl FnMut() -> S) {
        let csr = Graph::from_edge_stream(&mut make()).unwrap();
        let lists = materialise(&mut make());
        assert_eq!(csr.vertex_count(), lists.vertex_count());
        assert_eq!(csr.edge_count(), lists.edge_count());
        assert_eq!(csr.degree_bound(), lists.degree_bound());
        for v in csr.vertices() {
            assert_eq!(csr.out_neighbors(v), lists.out_neighbors(v), "{v}");
            assert_eq!(csr.in_neighbors(v), lists.in_neighbors(v), "{v}");
        }
        let bound = csr.degree_bound();
        assert!(csr.max_degree() <= bound);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_ba_streaming_matches_materialised(
            n in 2usize..120,
            m in 1usize..4,
            extra_bound in 0usize..6,
            seed in any::<u64>(),
        ) {
            let d = m + 1 + extra_bound;
            assert_stream_matches_materialised(|| BarabasiAlbertStream::new(n, m, d, seed));
            let p = m as f64 / n as f64;
            let er = crate::generate::erdos_renyi(n, p, d, &mut Xoshiro256::new(seed));
            assert_stream_matches_materialised(|| GraphEdgeStream::new(&er));
        }

        #[test]
        fn prop_streams_are_deterministic_across_runs(
            n in 2usize..80,
            seed in any::<u64>(),
        ) {
            let a = Graph::from_edge_stream(&mut BarabasiAlbertStream::new(n, 1, 4, seed)).unwrap();
            let b = Graph::from_edge_stream(&mut BarabasiAlbertStream::new(n, 1, 4, seed)).unwrap();
            prop_assert_eq!(a.edge_count(), b.edge_count());
            for v in a.vertices() {
                prop_assert_eq!(a.out_neighbors(v), b.out_neighbors(v));
            }
        }
    }
}
