//! Graphs and vertex programs for the DStress reproduction.
//!
//! DStress computes over a directed graph that is physically distributed:
//! each participant owns one vertex, its adjacent edges and its vertex
//! properties (§2).  The computation itself is expressed as a *vertex
//! program* (§3.1): per-vertex state, an update function, one message per
//! out-edge per round (with a no-op message `⊥` for padding), a fixed
//! iteration count, an aggregation function and a sensitivity bound.
//!
//! This crate provides:
//!
//! * [`graph`] — the directed graph type with degree-bound bookkeeping
//!   (the public bound `D` of assumption 4 in §3.2).
//! * [`program`] — the vertex-program trait in its plaintext form, which
//!   the finance crate implements for Eisenberg–Noe and
//!   Elliott–Golub–Jackson.
//! * [`reference`](mod@reference) — the plaintext reference executor: the "ideal
//!   functionality" that the secure runtime in `dstress-core` must agree
//!   with (up to DP noise).
//! * [`analytics`] — the plaintext reference forms of the DP
//!   graph-analytics suite (PageRank, WCC label propagation, SSSP hop
//!   counts, degree histogram); the circuit encodings live in
//!   `dstress_core::analytics`.
//! * [`generate`] — generic random-graph generators used to build test
//!   topologies (the financial core–periphery generator lives in
//!   `dstress-finance`).
//! * [`stream`] — streaming, bounded-memory generation: an
//!   [`stream::EdgeStream`] emits edges one at a time from a seeded RNG
//!   with `O(V)` state (scale-free Barabási–Albert), and
//!   [`Graph::from_edge_stream`] stores the result in compact CSR form —
//!   the path past the dense materialisation wall.
//!
//! ## Example
//!
//! ```
//! use dstress_graph::generate::ring_with_chords;
//! use dstress_math::rng::Xoshiro256;
//!
//! // 8 participants in a ring with one extra chord, degree bound 3.
//! let mut rng = Xoshiro256::new(7);
//! let graph = ring_with_chords(8, 1, 3, &mut rng);
//! assert_eq!(graph.vertex_count(), 8);
//! assert!(graph.edge_count() >= 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytics;
pub mod generate;
pub mod graph;
pub mod program;
pub mod reference;
pub mod stream;

pub use analytics::{DegreeBin, PageRankRef, SsspHops, WccLabels};
pub use graph::{Graph, GraphError, VertexId};
pub use program::VertexProgram;
pub use reference::{execute_reference, ReferenceTrace};
pub use stream::{BarabasiAlbertStream, EdgeStream, GraphEdgeStream};
