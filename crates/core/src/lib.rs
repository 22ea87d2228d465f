//! The DStress runtime.
//!
//! This crate ties the substrates together into the system the paper
//! describes (§3.3–§3.6): a set of nodes, one per graph vertex, each
//! associated with a *block* of `k + 1` nodes that holds an XOR sharing of
//! the vertex state; computation steps executed as GMW multi-party
//! computations inside each block; communication steps executed with the
//! message transfer protocol; and a final aggregation-plus-noising step
//! performed by a dedicated aggregation block, which releases only the
//! differentially-private output.
//!
//! Modules:
//!
//! * [`analytics`] — the DP graph-analytics suite (PageRank, WCC, SSSP,
//!   degree histogram) as circuit programs, mirroring the plaintext
//!   references in `dstress_graph::analytics`.
//! * [`config`] — runtime configuration (collusion bound, message width,
//!   privacy parameters, execution mode).
//! * [`schedule`] — recurring releases: a budget accountant gating the
//!   full-MPC release pipeline with ε composition across releases.
//! * [`program`] — the [`program::SecureVertexProgram`] trait: the
//!   circuit-level description of a vertex program (initial-state
//!   encoding, update circuit, aggregation circuit, sensitivity).
//! * [`engine`] — the runtime itself, producing a [`engine::DStressRun`]
//!   with the noised output, a per-phase cost breakdown and the measured
//!   per-node traffic.
//! * [`noise_circuit`] — the Boolean circuit used to account the cost of
//!   drawing the Laplace noise inside the aggregation MPC (the Dwork et
//!   al. distributed-noise-generation step of §5.1).
//! * [`projection`] — the analytic cost model that reproduces Figure 6:
//!   given `(N, D, k, I)` it predicts end-to-end computation time and
//!   per-node traffic for deployments too large to simulate.
//! * [`store`] — the pluggable state-store layer behind the engine's
//!   share state: the in-memory packed backend, the disk-spilling
//!   backend with a byte budget, and the round-boundary checkpoint
//!   files that [`engine::DStressRuntime::resume`] recovers from.
//!
//! ## Example
//!
//! ```
//! use dstress_core::{CounterProgram, DStressConfig, DStressRuntime};
//! use dstress_graph::generate::ring_with_chords;
//! use dstress_math::rng::Xoshiro256;
//!
//! let mut rng = Xoshiro256::new(7);
//! let graph = ring_with_chords(6, 0, 2, &mut rng);
//! let program = CounterProgram { width: 8, rounds: 2 };
//! let config = DStressConfig::small_test(2);
//! let run = DStressRuntime::new(config).execute(&graph, &program).unwrap();
//! assert!(run.noised_output.is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytics;
pub mod config;
pub mod engine;
pub mod exec;
pub mod noise_circuit;
pub mod program;
pub mod projection;
pub mod schedule;
pub mod store;
pub mod wire;

pub use analytics::{DegreeHistogramProgram, PageRankProgram, SsspProgram, WccProgram};
pub use config::{CheckpointConfig, ConcurrencyMode, DStressConfig, TransferMode, TransportKind};
pub use engine::{DStressRun, DStressRuntime, PhaseBreakdown, PhaseCosts, BLOCKS_PER_WORKER};
pub use exec::{
    BlockStepOutcome, BlockStepTask, LocalExecutor, StepContext, StepExecutor, TransferOutcome,
    TransferTask,
};
pub use program::{execute_plaintext, CounterProgram, SecureVertexProgram};
pub use projection::{ProjectionInputs, ProjectionResult, ScalabilityModel};
pub use schedule::{ReleaseRecord, ReleaseSchedule, ScheduleError};
pub use store::{MemStore, RunDirGuard, SpillStore, StateStore, StoreError, SEGMENT_ROWS};
