//! The DStress execution engine (§3.3–§3.6).
//!
//! One call to [`DStressRuntime::execute`] performs a complete DStress
//! run over a graph and a [`SecureVertexProgram`]:
//!
//! 1. **One-time setup** — every node generates keys, the trusted party
//!    assigns blocks and issues block certificates (`dstress-transfer`).
//! 2. **Initialization step** — every node XOR-shares its initial vertex
//!    state and `D` no-op messages among its block, and every node pair
//!    that shares a block sets up its OT-extension session, which every
//!    later MPC of the run extends from.
//! 3. **Computation steps** — each block evaluates the program's update
//!    circuit under GMW; inputs and outputs stay secret-shared.
//! 4. **Communication steps** — for every edge, the message transfer
//!    protocol moves the outgoing-message shares from the sender's block
//!    to the receiver's block.
//! 5. **Aggregation + noising** — the blocks re-share their final states
//!    into the aggregation block, which evaluates the aggregation circuit
//!    and the noising circuit under GMW and releases only the noised
//!    aggregate (Laplace mechanism, sensitivity supplied by the program).
//!
//! The engine measures, per phase, the operation counts, bytes on the
//! simulated wire and wall-clock time, which is exactly the breakdown
//! reported in Figure 5 of the paper.
//!
//! ## Block-streaming execution
//!
//! Both entry points drive the same windowed pipeline: a phase's
//! independent blocks are walked window by window, every task seeded by
//! its *global* index.  [`DStressRuntime::execute`] uses a single window
//! (everything in flight at once); [`DStressRuntime::execute_streaming`]
//! bounds the window by the worker count ([`BLOCKS_PER_WORKER`] blocks
//! per worker), materialises only the in-flight blocks' GMW state and
//! outgoing shares, and drops them as soon as the window's transfers are
//! delivered.  Persistent per-vertex state lives behind the pluggable
//! [`crate::store::StateStore`] layer: the state shares plus one inbox
//! slot per *actual* in-edge, double-buffered across rounds, held either
//! fully in memory or paged to a run-scoped spill directory when the
//! packed stores exceed
//! [`DStressConfig::state_budget_bytes`](crate::config::DStressConfig).
//! The two schedules — and both [`crate::config::ConcurrencyMode`]s, and
//! both store backends — are bit-identical in outputs, counts and
//! traffic; only peak memory and wall-clock differ, which is what lets
//! measured sweeps continue past the old full-materialisation wall.
//!
//! ## Checkpoints and recovery
//!
//! With [`DStressConfig::checkpoint`](crate::config::DStressConfig) set,
//! the engine writes a checkpoint at each configured round swap: a
//! `Wire`-encoded manifest (round index, RNG position, accumulated phase
//! costs, traffic snapshot, segment digests) followed by every packed
//! store segment.  [`DStressRuntime::resume`] rehydrates the newest
//! checkpoint and continues the run — the restored RNG position makes
//! every remaining draw identical, so the resumed run releases a
//! bit-identical value with identical operation counts and wire bytes.

use crate::config::{DStressConfig, TransferMode};
use crate::exec::{
    mpc_transport, BlockStepTask, LocalExecutor, StepContext, StepExecutor, TransferTask,
};
use crate::noise_circuit::noising_circuit;
use crate::program::SecureVertexProgram;
use crate::store::{
    collect_segments, digest64, load_latest_checkpoint, packed_bytes, restore_store,
    write_checkpoint, MemStore, RunDirGuard, SpillStore, StateStore, StoreError,
};
use crate::wire::{AggShare, CheckpointManifest, InitShare, SegmentRecord};
use core::fmt;
use core::ops::Range;
use dstress_circuit::{Circuit, CircuitError};
use dstress_crypto::dlog::DlogTable;
use dstress_crypto::group::Group;
use dstress_crypto::sharing::split_xor_bit;
use dstress_dp::laplace::LaplaceMechanism;
use dstress_graph::{Graph, VertexId};
use dstress_math::rng::{DetRng, SplitMix64, Xoshiro256};
use dstress_mpc::gmw::{execute_established, reconstruct_outputs, GmwExecution, GmwJob};
use dstress_mpc::party::{derive_seed, OtConfig};
use dstress_mpc::{GmwMessage, MpcError};
use dstress_net::cost::OperationCounts;
use dstress_net::pool::windowed;
use dstress_net::traffic::{NodeId, TrafficAccountant};
use dstress_net::transport::Session;
use dstress_net::wire::{Wire, WireError};
use dstress_transfer::setup::{
    generate_block_assignment, generate_system, NodeSecrets, SystemSetup,
};
use dstress_transfer::TransferError;

/// Errors produced by the runtime.
#[derive(Debug)]
pub enum RuntimeError {
    /// Setup or message transfer failed.
    Transfer(TransferError),
    /// An MPC execution failed.
    Mpc(MpcError),
    /// A program circuit was malformed.
    Circuit(CircuitError),
    /// The graph exceeds the degree bound it declares (never produced by
    /// [`dstress_graph::Graph`], but checked defensively for hand-built
    /// inputs).
    DegreeBoundViolated {
        /// The offending vertex.
        vertex: usize,
    },
    /// An engine control message failed to decode from its wire bytes.
    Wire(WireError),
    /// A deployment executor failed: a worker connection broke, a worker
    /// returned malformed results, or the placement cannot run the
    /// configured mode (remote workers hold no key material, so
    /// real-crypto transfers are local-only).
    Deploy(String),
    /// The state-store layer failed: a spill or checkpoint file could not
    /// be read or written, or failed validation.
    Store(StoreError),
    /// Checkpoint/resume consistency failed: no checkpoint to resume
    /// from, or the checkpoint belongs to a different run shape.
    Checkpoint {
        /// What was inconsistent.
        context: String,
    },
    /// The run halted deliberately after writing the checkpoint for the
    /// given round — the crash-injection exit of
    /// [`crate::config::DStressConfig::halt_after_round`], used by the
    /// kill-and-resume tests and recovery drills.  Not a failure: the
    /// checkpoint on disk is complete and resumable.
    Halted {
        /// The round whose swap was checkpointed before halting.
        round: u64,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Transfer(e) => write!(f, "transfer error: {e}"),
            RuntimeError::Mpc(e) => write!(f, "mpc error: {e}"),
            RuntimeError::Circuit(e) => write!(f, "circuit error: {e}"),
            RuntimeError::DegreeBoundViolated { vertex } => {
                write!(f, "vertex {vertex} exceeds the declared degree bound")
            }
            RuntimeError::Wire(e) => write!(f, "engine wire format error: {e}"),
            RuntimeError::Deploy(context) => write!(f, "deployment error: {context}"),
            RuntimeError::Store(e) => write!(f, "state store error: {e}"),
            RuntimeError::Checkpoint { context } => write!(f, "checkpoint error: {context}"),
            RuntimeError::Halted { round } => {
                write!(f, "run halted after checkpointing round {round}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<StoreError> for RuntimeError {
    fn from(e: StoreError) -> Self {
        match e {
            // A checkpoint of another layout is not a damaged store: it is
            // one this build must not resume from.
            StoreError::Version { .. } => RuntimeError::Checkpoint {
                context: e.to_string(),
            },
            e => RuntimeError::Store(e),
        }
    }
}

impl From<TransferError> for RuntimeError {
    fn from(e: TransferError) -> Self {
        RuntimeError::Transfer(e)
    }
}

impl From<MpcError> for RuntimeError {
    fn from(e: MpcError) -> Self {
        RuntimeError::Mpc(e)
    }
}

impl From<CircuitError> for RuntimeError {
    fn from(e: CircuitError) -> Self {
        RuntimeError::Circuit(e)
    }
}

impl From<WireError> for RuntimeError {
    fn from(e: WireError) -> Self {
        RuntimeError::Wire(e)
    }
}

/// Measured cost of one execution phase.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseCosts {
    /// Operation counts accumulated during the phase.
    pub counts: OperationCounts,
    /// Wall-clock seconds spent in the phase by the (in-process) simulation.
    pub wall_seconds: f64,
}

/// Per-phase cost breakdown of a run (the Figure 5 stacking).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseBreakdown {
    /// Share generation and distribution of initial states.
    pub initialization: PhaseCosts,
    /// All GMW computation steps (including the final one).
    pub computation: PhaseCosts,
    /// All message transfers.
    pub communication: PhaseCosts,
    /// Re-sharing into the aggregation block, aggregation MPC, noising.
    pub aggregation: PhaseCosts,
}

impl PhaseBreakdown {
    /// Sum of the per-phase operation counts.
    pub fn total_counts(&self) -> OperationCounts {
        let mut total = self.initialization.counts;
        total.add(&self.computation.counts);
        total.add(&self.communication.counts);
        total.add(&self.aggregation.counts);
        total
    }

    /// Sum of the per-phase wall-clock seconds.
    pub fn total_wall_seconds(&self) -> f64 {
        self.initialization.wall_seconds
            + self.computation.wall_seconds
            + self.communication.wall_seconds
            + self.aggregation.wall_seconds
    }
}

/// The result of one DStress run.
#[derive(Clone, Debug)]
pub struct DStressRun {
    /// The differentially-private output released by the aggregation block.
    pub noised_output: f64,
    /// The pre-noise aggregate (available to the evaluation harness only;
    /// a deployment would never reveal it).
    pub ideal_output: f64,
    /// Per-phase cost breakdown.
    pub phases: PhaseBreakdown,
    /// Per-node traffic measured on the simulated wire.
    pub traffic: TrafficAccountant,
    /// Number of iterations executed.
    pub iterations: u32,
    /// Block size `k + 1` used for the run.
    pub block_size: usize,
    /// High-water mark of the bytes the state-store layer held resident
    /// in memory (packed words of resident segments, summed over the
    /// state store and both inbox buffers), sampled at phase boundaries.
    /// With the in-memory backend this is simply the packed store size;
    /// with the spilling backend it stays within the configured budget
    /// (plus segment-granularity slack).
    pub store_resident_peak_bytes: usize,
    /// High-water mark of the spill files' total size in bytes — 0 when
    /// the run stayed in memory.  Reported next to peak-heap figures so
    /// memory rows stay honest when spill is active.
    pub spill_file_bytes: u64,
}

impl DStressRun {
    /// Mean bytes sent per participating node — the quantity Figures 4–6
    /// report as "traffic per node".
    pub fn mean_bytes_per_node(&self) -> f64 {
        self.traffic.report().mean_bytes_sent_per_node
    }
}

/// The DStress runtime.
#[derive(Clone, Debug)]
pub struct DStressRuntime {
    config: DStressConfig,
}

impl DStressRuntime {
    /// Creates a runtime with the given configuration.
    pub fn new(config: DStressConfig) -> Self {
        DStressRuntime { config }
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &DStressConfig {
        &self.config
    }

    /// Executes `program` over `graph` and returns the run record.
    ///
    /// This is the fully materialised schedule: every block of a phase is
    /// in flight at once (a single window).  See
    /// [`Self::execute_streaming`] for the bounded-memory schedule; the
    /// two are bit-identical for the same configuration and graph.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if setup, any MPC, or any transfer fails.
    pub fn execute<P: SecureVertexProgram>(
        &self,
        graph: &Graph,
        program: &P,
    ) -> Result<DStressRun, RuntimeError> {
        self.execute_with(graph, program, &LocalExecutor)
    }

    /// Resumes an interrupted run from the newest checkpoint in the
    /// configured checkpoint directory and continues it to completion.
    ///
    /// The checkpoint manifest's RNG position makes every remaining draw
    /// identical to the uninterrupted run, so the resumed run releases a
    /// bit-identical value with identical operation counts, wire bytes
    /// and traffic.  `graph`, `program` and the configuration must match
    /// the original run — a fingerprint in the manifest rejects resuming
    /// against a different run shape.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Checkpoint`] if no checkpoint directory is
    /// configured, no checkpoint exists, or the checkpoint belongs to a
    /// different run; otherwise as [`Self::execute`].
    pub fn resume<P: SecureVertexProgram>(
        &self,
        graph: &Graph,
        program: &P,
    ) -> Result<DStressRun, RuntimeError> {
        self.resume_with(graph, program, &LocalExecutor)
    }

    /// [`Self::resume`] through a custom [`StepExecutor`] — the recovery
    /// entry point of the master/worker deployment layer.
    ///
    /// # Errors
    ///
    /// As [`Self::resume`].
    pub fn resume_with<P: SecureVertexProgram>(
        &self,
        graph: &Graph,
        program: &P,
        executor: &dyn StepExecutor,
    ) -> Result<DStressRun, RuntimeError> {
        self.run_windowed(
            graph,
            program,
            usize::MAX,
            executor,
            Some(self.latest_checkpoint()?),
        )
    }

    /// Executes `program` over `graph` with the fully materialised
    /// schedule, placing each window's independent tasks through the
    /// given [`StepExecutor`] — the entry point the master/worker
    /// deployment layer drives.  Placement cannot change results: a
    /// conforming executor is bit-identical to [`Self::execute`].
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if setup, any MPC, any transfer, or the
    /// executor fails.
    pub fn execute_with<P: SecureVertexProgram>(
        &self,
        graph: &Graph,
        program: &P,
        executor: &dyn StepExecutor,
    ) -> Result<DStressRun, RuntimeError> {
        self.run_windowed(graph, program, usize::MAX, executor, None)
    }

    /// Executes `program` over `graph` with the *block-streaming*
    /// schedule: per phase, only a bounded window of blocks —
    /// [`ConcurrencyMode::worker_threads`](crate::config::ConcurrencyMode)
    /// × [`BLOCKS_PER_WORKER`] — is materialised at a time.  Each
    /// window's vertex MPCs run, their out-edge transfers are delivered,
    /// and the window's working state (GMW wires, outgoing message
    /// shares) is dropped before the next window starts; the only
    /// per-vertex state that persists across rounds is the bit-packed
    /// share store (state plus one inbox slot per actual in-edge).
    ///
    /// Every block and edge task derives its seed from its *global*
    /// index, so the result — outputs, operation counts, traffic — is
    /// bit-identical to [`Self::execute`] and invariant across
    /// [`crate::config::ConcurrencyMode`]s; only peak memory and
    /// wall-clock change.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if setup, any MPC, or any transfer fails.
    pub fn execute_streaming<P: SecureVertexProgram>(
        &self,
        graph: &Graph,
        program: &P,
    ) -> Result<DStressRun, RuntimeError> {
        let window = self
            .config
            .concurrency
            .worker_threads()
            .saturating_mul(BLOCKS_PER_WORKER);
        self.run_windowed(graph, program, window, &LocalExecutor, None)
    }

    /// The newest checkpoint in the configured directory.  The resuming
    /// doors load it before any other work, so a missing or unreadable
    /// checkpoint fails fast.
    fn latest_checkpoint(&self) -> Result<Checkpoint, RuntimeError> {
        let Some(checkpoint) = &self.config.checkpoint else {
            return Err(RuntimeError::Checkpoint {
                context: "resume requested but no checkpoint directory is configured".to_string(),
            });
        };
        Ok(load_latest_checkpoint(&checkpoint.dir)?)
    }

    /// One-time setup, sized to the transfer mode: real-crypto runs need
    /// every node's key material, `D` certificates per node
    /// (`O(N · D · L)` group elements) and the discrete-log table;
    /// cost-accounted runs only need the block assignment (`O(N · k)`
    /// node ids), so that is all they build.
    fn build_setup(
        &self,
        group: &Group,
        graph: &Graph,
        message_bits: u32,
        rng: &mut dyn DetRng,
    ) -> Result<(Vec<NodeSecrets>, SystemSetup, Option<DlogTable>), RuntimeError> {
        let (n, d) = (graph.vertex_count(), graph.degree_bound());
        let k = self.config.collusion_bound;
        Ok(match self.config.transfer_mode {
            TransferMode::RealCrypto => {
                let (secrets, setup) = generate_system(group, n, k, d, message_bits, rng)?;
                let dlog = DlogTable::new_signed(group, self.config.dlog_window);
                (secrets, setup, Some(dlog))
            }
            TransferMode::Accounted => {
                let setup = generate_block_assignment(n, k, d, message_bits, rng)?;
                (Vec::new(), setup, None)
            }
        })
    }

    /// The windowed execution pipeline behind every entry point: the
    /// paper's steps (§3.6) in order, one [`RunState`] method each.
    ///
    /// Within one round, every vertex's computation step is an
    /// independent MPC among its own block, and every edge's message
    /// transfer is an independent protocol run — exactly the concurrency
    /// a real deployment exploits.  The schedule walks those independent
    /// blocks window by window ([`dstress_net::pool::windowed`]); each
    /// task derives its seed from the per-phase master and its *global*
    /// index and accounts into its own counters, merged in index order —
    /// so the window size and the [`crate::config::ConcurrencyMode`]
    /// change peak memory and wall-clock, never a single output bit.
    ///
    /// A run resumed from `checkpoint` skips the initialization step and
    /// enters the same loop at the checkpoint's round.
    fn run_windowed<P: SecureVertexProgram>(
        &self,
        graph: &Graph,
        program: &P,
        window: usize,
        executor: &dyn StepExecutor,
        checkpoint: Option<Checkpoint>,
    ) -> Result<DStressRun, RuntimeError> {
        let config = &self.config;
        let iterations = program.iterations();
        let group = Group::new(config.group);
        let mut rng = Xoshiro256::new(config.seed);
        let (secrets, setup, dlog) =
            self.build_setup(&group, graph, program.message_bits(), &mut rng)?;

        let resuming = checkpoint.as_ref().map(|(manifest, _)| manifest);
        let mut run = RunState::open(config, graph, program, &setup, executor, rng, resuming)?;
        {
            // Scoped to the iterations: the update circuit — and the
            // layering memoised on it — is released before the aggregation
            // MPC allocates its own, typically larger, circuit.
            let update_circuit = program.update_circuit(graph.degree_bound());
            match checkpoint {
                Some(checkpoint) => run.restore(checkpoint)?,
                None => run.initialize(&update_circuit)?,
            }
            run.sample_resident();
            let ctx = StepContext {
                config,
                update_circuit: &update_circuit,
                state_bits: run.state_bits,
                message_bits: run.message_bits,
                message_width: program.message_bits(),
                group: &group,
                setup: &setup,
                secrets: &secrets,
                dlog: dlog.as_ref(),
            };
            while run.round <= iterations {
                // Per-phase master seeds, drawn in the order the phases
                // run.  The final pass, at `round == iterations`, consumes
                // the last round of messages and sends none.
                let comp_seed = run.rng.next_u64();
                let comm_seed = (run.round < iterations).then(|| run.rng.next_u64());
                for span in windowed(graph.vertex_count(), window) {
                    let outgoing = run.compute_window(&ctx, comp_seed, span.clone())?;
                    if let Some(comm_seed) = comm_seed {
                        run.communicate_window(&ctx, comm_seed, span.start, outgoing)?;
                    }
                }
                run.end_round(comm_seed.is_none())?;
            }
        }
        run.aggregate()
    }
}

/// A checkpoint as [`load_latest_checkpoint`] returns it.
type Checkpoint = (CheckpointManifest, Vec<SegmentRecord>);

/// Per-member shares of each outgoing message of each block of a window:
/// `[vertex − window start][out slot][member]`.
type WindowOut = Vec<Vec<Vec<Vec<bool>>>>;

/// The only clock in `dstress-core`: starts now, and each call returns
/// the seconds since.  It feeds [`PhaseCosts::wall_seconds`] and nothing
/// else — no share, seed, count or traffic record depends on it.
fn stopwatch() -> impl Fn() -> f64 {
    let start = std::time::Instant::now(); // lint:allow-nondeterminism -- wall-clock metrics only, never touches shares
    move || start.elapsed().as_secs_f64()
}

/// The persistent share state of a run: the state rows (row
/// `v · block + member`) and the double-buffered inboxes (row
/// `(in_offset[v] + slot) · block + member`), either fully resident or
/// paged against the byte budget, split proportionally.
///
/// Message transfers write into `inbox_next`, swapped with `inbox` at the
/// end of the round, which is what lets a window's transfers run before
/// later windows of the same round have computed.
struct Stores {
    state: Box<dyn StateStore>,
    inbox: Box<dyn StateStore>,
    inbox_next: Box<dyn StateStore>,
    /// Declared after the stores: fields drop in declaration order, so
    /// the run-scoped spill directory is removed after the stores' files
    /// are closed, on every exit path — success, error, or injected halt.
    _spill_dir: Option<RunDirGuard>,
}

impl Stores {
    fn open(
        config: &DStressConfig,
        state_rows: usize,
        state_bits: usize,
        inbox_rows: usize,
        message_bits: usize,
    ) -> Result<Self, StoreError> {
        let total =
            packed_bytes(state_rows, state_bits) + 2 * packed_bytes(inbox_rows, message_bits);
        let spill = match config.state_budget_bytes {
            Some(budget) if total > budget => Some((
                RunDirGuard::create(config.spill_dir.as_deref(), config.seed)?,
                budget,
            )),
            _ => None,
        };
        // A spilling store gets the share of the budget its bytes are of
        // the total (which exceeds the budget, so is not zero).
        let open = |name, rows, width| -> Result<Box<dyn StateStore>, StoreError> {
            Ok(match &spill {
                Some((dir, budget)) => Box::new(SpillStore::create(
                    rows,
                    width,
                    budget * packed_bytes(rows, width) / total,
                    dir.path().join(name),
                )?),
                None => Box::new(MemStore::new(rows, width)),
            })
        };
        Ok(Stores {
            state: open("state.log", state_rows, state_bits)?,
            inbox: open("inbox-a.log", inbox_rows, message_bits)?,
            inbox_next: open("inbox-b.log", inbox_rows, message_bits)?,
            _spill_dir: spill.map(|(dir, _)| dir),
        })
    }

    fn resident_bytes(&self) -> usize {
        self.state.resident_bytes() + self.inbox.resident_bytes() + self.inbox_next.resident_bytes()
    }
}

/// Writes one block's per-member shares to the rows starting at `first`.
fn write_block(
    store: &mut dyn StateStore,
    first: usize,
    shares: &[Vec<bool>],
) -> Result<(), StoreError> {
    (first..)
        .zip(shares)
        .try_for_each(|(row, share)| store.write(row, share))
}

/// Everything a run carries from one paper step to the next, plus the
/// run's read-only inputs.  The group, the key material and the update
/// circuit are not here: [`StepContext`] borrows them for the iterations
/// only.
struct RunState<'a, P> {
    config: &'a DStressConfig,
    graph: &'a Graph,
    program: &'a P,
    setup: &'a SystemSetup,
    executor: &'a dyn StepExecutor,
    block_size: usize,
    state_bits: usize,
    message_bits: usize,
    /// Digest of the run's shape, carried by its checkpoints.
    fingerprint: u64,
    /// Per-vertex offsets into the packed inbox: one slot per *actual*
    /// in-edge (slots past the in-degree hold the all-zero no-op share
    /// forever and are padded in on demand, never stored).
    in_offset: Vec<usize>,
    /// The receiver inbox slot of every edge, in vertex-major (global
    /// edge index) order — round-invariant, so the in-neighbour scans
    /// happen once per run instead of once per edge per round.  A flat
    /// `usize` per edge, the same memory class as the topology itself.
    edge_in_slots: Vec<usize>,
    stores: Stores,
    /// High-water mark of [`Stores::resident_bytes`] at phase boundaries.
    resident_peak: usize,
    rng: Xoshiro256,
    traffic: TrafficAccountant,
    /// Running costs; `aggregation` is filled in by the last step.
    phases: PhaseBreakdown,
    /// The next round to execute.
    round: u32,
    /// Critical path of the current round's computation step: the
    /// deepest block MPC, not the sum over blocks ([`PhaseCosts::absorb`]).
    comp_rounds: u64,
    /// Likewise for the round's edge transfers, not edge-count × 3.
    comm_rounds: u64,
    /// Global edge index in vertex-major order, continued across the
    /// round's windows, so edge task seeds are window-invariant.
    edge_index: u64,
}

impl<'a, P: SecureVertexProgram> RunState<'a, P> {
    /// Validates the graph against its degree bound, fingerprints the
    /// run's shape — rejecting `resuming`, a checkpoint's manifest, if it
    /// belongs to another shape — and opens the stores.  `rng` is the
    /// run's generator as the one-time setup left it.
    fn open(
        config: &'a DStressConfig,
        graph: &'a Graph,
        program: &'a P,
        setup: &'a SystemSetup,
        executor: &'a dyn StepExecutor,
        rng: Xoshiro256,
        resuming: Option<&CheckpointManifest>,
    ) -> Result<Self, RuntimeError> {
        let n = graph.vertex_count();
        let degree_bound = graph.degree_bound();
        let block_size = config.block_size();
        let state_bits = program.state_bits() as usize;
        let message_bits = program.message_bits() as usize;
        let iterations = u64::from(program.iterations());

        let mut in_offset = vec![0usize; n + 1];
        for v in graph.vertices() {
            if graph.out_degree(v) > degree_bound || graph.in_degree(v) > degree_bound {
                return Err(RuntimeError::DegreeBoundViolated { vertex: v.0 });
            }
            in_offset[v.0 + 1] = in_offset[v.0] + graph.in_degree(v);
        }

        // The run's shape: a resume against a different graph, program
        // width, seed or iteration count is rejected instead of silently
        // diverging.
        let shape = [
            n as u64,
            in_offset[n] as u64,
            degree_bound as u64,
            block_size as u64,
            state_bits as u64,
            message_bits as u64,
            config.seed,
            iterations,
        ];
        let shape_bytes: Vec<u8> = shape.iter().flat_map(|value| value.to_le_bytes()).collect();
        let fingerprint = digest64(&shape_bytes);
        if let Some(manifest) = resuming {
            if manifest.fingerprint != fingerprint || manifest.iterations != iterations {
                return Err(RuntimeError::Checkpoint {
                    context: format!(
                        "checkpoint fingerprint {:016x} does not match this run's {:016x} — \
                         it belongs to a different graph, program or configuration",
                        manifest.fingerprint, fingerprint
                    ),
                });
            }
        }

        let (state_rows, inbox_rows) = (n * block_size, in_offset[n] * block_size);
        let stores = Stores::open(config, state_rows, state_bits, inbox_rows, message_bits)?;
        let edge_in_slots = graph
            .vertices()
            .flat_map(|v| {
                graph.out_neighbors(v).iter().map(move |&to| {
                    graph
                        .in_neighbors(to)
                        .iter()
                        .position(|&src| src == v)
                        .expect("out-edge implies matching in-edge")
                })
            })
            .collect();
        Ok(RunState {
            config,
            graph,
            program,
            setup,
            executor,
            block_size,
            state_bits,
            message_bits,
            fingerprint,
            in_offset,
            edge_in_slots,
            stores,
            resident_peak: 0,
            rng,
            traffic: TrafficAccountant::new(),
            phases: PhaseBreakdown::default(),
            round: 0,
            comp_rounds: 0,
            comm_rounds: 0,
            edge_index: 0,
        })
    }

    fn sample_resident(&mut self) {
        self.resident_peak = self.resident_peak.max(self.stores.resident_bytes());
    }

    /// Carries one engine control message over the simulated wire:
    /// charges the length of its real encoding to the link and to
    /// `counts`, and returns the decoded copy — the share the receiver
    /// actually uses.
    fn deliver<M: Wire>(
        &mut self,
        counts: &mut OperationCounts,
        from: NodeId,
        to: NodeId,
        message: &M,
    ) -> Result<M, WireError> {
        let encoded = message.encode();
        self.traffic.record(from, to, encoded.len() as u64);
        counts.wire_bytes += encoded.len() as u64;
        M::decode_exact(&encoded)
    }

    /// Initialization step: every node pair that shares a block sets up
    /// its OT-extension session ([`session_pairs`]), and every node
    /// XOR-shares its initial vertex state and `D` no-op messages among
    /// its block.
    ///
    /// A pair's session is a pure function of the run seed and the pair:
    /// no RNG draw, nothing a task or a checkpoint carries.  So every
    /// placement of the later MPCs, and a resumed run, extends from the
    /// same sessions.
    fn initialize(&mut self, update_circuit: &Circuit) -> Result<(), RuntimeError> {
        let seconds = stopwatch();
        let (graph, setup) = (self.graph, self.setup);
        let (block_size, state_bits) = (self.block_size, self.state_bits);
        let mut counts = OperationCounts::default();

        // The pair's owner, its lower id, sends the sender-side key
        // material; the peer answers with the receiver side.
        let session = OtConfig::extension().session_setup();
        for (owner, peer) in session_pairs(setup, update_circuit.layers().rounds() > 0) {
            let pair = (owner.0 * graph.vertex_count() + peer.0) as u64;
            let pair_seed = derive_seed(self.config.seed, SESSION_TAG, pair);
            counts.add(&session.counts);
            let message = session.message(pair_seed, true);
            self.deliver(&mut counts, owner, peer, &message)?;
            let message = session.message(pair_seed, false);
            self.deliver(&mut counts, peer, owner, &message)?;
        }

        let inbox_bits = graph.degree_bound() * self.message_bits;
        for v in graph.vertices() {
            let initial = self.program.encode_initial_state(graph, v);
            debug_assert_eq!(initial.len(), state_bits, "program state encoding width");
            let mut shares = share_bits(&initial, block_size, &mut self.rng);
            // Each member other than the owner receives its state share and
            // D no-op message shares — as a real bit-packed wire message,
            // whose decoded copy is the share the member actually uses.
            let owner = NodeId(v.0);
            for (m_idx, &member) in setup.block_of(owner).members.iter().enumerate() {
                if member == owner {
                    continue;
                }
                let message = InitShare {
                    state: std::mem::take(&mut shares[m_idx]),
                    inbox: vec![false; inbox_bits],
                };
                let received = self.deliver(&mut counts, owner, member, &message)?;
                shares[m_idx] = received.state;
                // The decoded no-op shares are all-zero, which is exactly
                // what the zero-initialised packed inbox already holds.
                debug_assert!(received.inbox.iter().all(|&bit| !bit));
            }
            write_block(self.stores.state.as_mut(), v.0 * block_size, &shares)?;
        }
        // Every vertex distributes its shares concurrently, so the shares
        // are one communication round — charging one per vertex would make
        // the latency estimate scale with N instead of depth — and they
        // ride the setup's first flight.
        counts.rounds += session.rounds.max(1);
        self.phases.initialization = PhaseCosts {
            counts,
            wall_seconds: seconds(),
        };
        Ok(())
    }

    /// Takes the place of [`Self::initialize`] in a resumed run:
    /// rehydrates the stores, the RNG position, the accumulated costs and
    /// the traffic.  The initialization phase ran before the checkpoint,
    /// so its cost carries over and its work is not repeated.
    fn restore(&mut self, (manifest, records): Checkpoint) -> Result<(), RuntimeError> {
        restore_store(self.stores.state.as_mut(), 0, &records)?;
        restore_store(self.stores.inbox.as_mut(), 1, &records)?;
        self.rng = Xoshiro256::from_state(manifest.rng_state);
        self.phases.initialization = manifest.initialization;
        self.phases.computation = manifest.computation;
        self.phases.communication = manifest.communication;
        self.traffic.add_entries(&manifest.traffic);
        self.round = manifest.round as u32;
        Ok(())
    }

    /// One block's GMW input shares from the packed stores: each member's
    /// state row followed by its `D` inbox slots — the slots past the
    /// vertex's in-degree hold the all-zero no-op share and are padded in
    /// here rather than stored.  Store access is fallible because the
    /// spilling backend may need to page segments in from disk.
    fn block_inputs(&self, v: VertexId) -> Result<Vec<Vec<bool>>, RuntimeError> {
        let in_degree = self.graph.in_degree(v);
        let width = self.state_bits + self.graph.degree_bound() * self.message_bits;
        (0..self.block_size)
            .map(|m_idx| {
                let mut member_inputs = Vec::with_capacity(width);
                let state_row = v.0 * self.block_size + m_idx;
                self.stores.state.read_into(state_row, &mut member_inputs)?;
                for slot in 0..in_degree {
                    let row = (self.in_offset[v.0] + slot) * self.block_size + m_idx;
                    self.stores.inbox.read_into(row, &mut member_inputs)?;
                }
                member_inputs.resize(width, false);
                Ok(member_inputs)
            })
            .collect()
    }

    /// Computation step for the window's blocks.  Returns their outgoing
    /// message shares, which live only until the window's transfers have
    /// been delivered: only in-flight blocks are ever materialised.
    fn compute_window(
        &mut self,
        ctx: &StepContext<'_>,
        comp_seed: u64,
        span: Range<usize>,
    ) -> Result<WindowOut, RuntimeError> {
        let seconds = stopwatch();
        // Task building is sequential and rng-free, so the tasks — and
        // therefore the outcomes any conforming executor computes from
        // them — are bit-identical across window sizes, concurrency modes
        // and placements.
        let tasks = span
            .clone()
            .map(|v| {
                Ok(BlockStepTask {
                    vertex: v as u64,
                    seed: task_seed(comp_seed, v as u64),
                    members: self.setup.block_of(NodeId(v)).members.clone(),
                    out_slots: self.graph.out_degree(VertexId(v)) as u64,
                    input_shares: self.block_inputs(VertexId(v))?,
                })
            })
            .collect::<Result<Vec<_>, RuntimeError>>()?;
        let outcomes = self.executor.run_block_steps(ctx, tasks)?;
        let mut window_out = Vec::with_capacity(span.len());
        for (v, outcome) in span.zip(outcomes) {
            let state = self.stores.state.as_mut();
            write_block(state, v * self.block_size, &outcome.new_state)?;
            window_out.push(outcome.outgoing);
            let phase = &mut self.phases.computation;
            phase.absorb(&mut self.comp_rounds, outcome.counts);
            self.traffic.add_entries(&outcome.traffic);
        }
        self.phases.computation.wall_seconds += seconds();
        Ok(window_out)
    }

    /// Communication step for the out-edges of the window starting at
    /// vertex `first`, delivered into the next round's inbox buffer.
    fn communicate_window(
        &mut self,
        ctx: &StepContext<'_>,
        comm_seed: u64,
        first: usize,
        window_out: WindowOut,
    ) -> Result<(), RuntimeError> {
        let seconds = stopwatch();
        let mut tasks: Vec<TransferTask> = Vec::new();
        for (off, out_msgs) in window_out.iter().enumerate() {
            let v = VertexId(first + off);
            for (out_slot, &to) in self.graph.out_neighbors(v).iter().enumerate() {
                tasks.push(TransferTask {
                    edge_index: self.edge_index,
                    seed: task_seed(comm_seed, self.edge_index),
                    from: v.0 as u64,
                    to: to.0 as u64,
                    in_slot: self.edge_in_slots[self.edge_index as usize] as u64,
                    sender_members: self.setup.block_of(NodeId(v.0)).members.clone(),
                    receiver_members: self.setup.block_of(NodeId(to.0)).members.clone(),
                    shares: out_msgs[out_slot].clone(),
                });
                self.edge_index += 1;
            }
        }
        for outcome in self.executor.run_transfers(ctx, tasks)? {
            let slot = self.in_offset[outcome.to as usize] + outcome.in_slot as usize;
            let inbox = self.stores.inbox_next.as_mut();
            write_block(inbox, slot * self.block_size, &outcome.receiver_shares)?;
            let phase = &mut self.phases.communication;
            phase.absorb(&mut self.comm_rounds, outcome.counts);
            self.traffic.add_entries(&outcome.traffic);
        }
        self.phases.communication.wall_seconds += seconds();
        Ok(())
    }

    /// Closes the round: charges its critical paths, rewinds the round's
    /// cursor and — unless this was the `last` pass — hands the inboxes
    /// over, writes the round-boundary checkpoint if one is due, and
    /// takes the injected halt.
    fn end_round(&mut self, last: bool) -> Result<(), RuntimeError> {
        let round = u64::from(self.round);
        self.round += 1;
        self.phases.computation.counts.rounds += std::mem::take(&mut self.comp_rounds);
        self.phases.communication.counts.rounds += std::mem::take(&mut self.comm_rounds);
        self.edge_index = 0;
        if last {
            return Ok(());
        }
        // Every in-slot with an edge was overwritten by a transfer, so
        // the swap is a complete hand-over to the next round.
        std::mem::swap(&mut self.stores.inbox, &mut self.stores.inbox_next);
        self.sample_resident();

        // Everything a resumed run needs is the post-swap state + inbox
        // stores, the RNG position, and the accumulated costs —
        // `inbox_next` is fully overwritten before it is read again, so it
        // is never checkpointed.
        let halt_here = self.config.halt_after_round == Some(round);
        if let Some(checkpoint) = &self.config.checkpoint {
            if (round + 1) % checkpoint.cadence() == 0 || halt_here {
                let (state, inbox) = (self.stores.state.as_ref(), self.stores.inbox.as_ref());
                let (segments, records) = collect_segments(&[(0, state), (1, inbox)])?;
                let manifest = CheckpointManifest {
                    round: round + 1,
                    iterations: u64::from(self.program.iterations()),
                    fingerprint: self.fingerprint,
                    rng_state: self.rng.state(),
                    initialization: self.phases.initialization,
                    computation: self.phases.computation,
                    communication: self.phases.communication,
                    traffic: self.traffic.sorted_node_entries(),
                    segments,
                };
                write_checkpoint(&checkpoint.dir, &manifest, &records)?;
            }
        }
        if halt_here {
            return Err(RuntimeError::Halted { round });
        }
        Ok(())
    }

    /// Aggregation + noising: the blocks re-share their final states into
    /// the aggregation block, which evaluates the aggregation circuit and
    /// the noising circuit under GMW; the run releases only the noised
    /// aggregate.
    fn aggregate(mut self) -> Result<DStressRun, RuntimeError> {
        let seconds = stopwatch();
        let (config, graph, program, setup) = (self.config, self.graph, self.program, self.setup);
        let (block_size, state_bits) = (self.block_size, self.state_bits);
        let mut counts = OperationCounts::default();

        // Re-share every vertex's state into the aggregation block: each
        // block member splits its share into |B_A| sub-shares and sends one
        // to each aggregation-block member.
        let mut agg_input_shares: Vec<Vec<bool>> =
            vec![Vec::with_capacity(graph.vertex_count() * state_bits); block_size];
        for v in graph.vertices() {
            // Accumulated share of this vertex's state per BA member.
            let mut ba_shares = vec![vec![false; state_bits]; block_size];
            for (m_idx, &member) in setup.block_of(NodeId(v.0)).members.iter().enumerate() {
                let mut member_state = Vec::with_capacity(state_bits);
                let row = v.0 * block_size + m_idx;
                self.stores.state.read_into(row, &mut member_state)?;
                // sub[ba_idx][bit]: this member's sub-share toward each
                // aggregation-block member.
                let sub = share_bits(&member_state, block_size, &mut self.rng);
                // One bit-packed wire message per aggregation-block
                // member; the decoded copy is what gets folded in.
                let ba_members = setup.aggregation_block.members.iter();
                for (ba_share, (&ba_member, bits)) in ba_shares.iter_mut().zip(ba_members.zip(sub))
                {
                    let message = AggShare { bits };
                    let received = self.deliver(&mut counts, member, ba_member, &message)?;
                    for (acc, b) in ba_share.iter_mut().zip(received.bits) {
                        *acc ^= b;
                    }
                }
            }
            for (input, share) in agg_input_shares.iter_mut().zip(ba_shares) {
                input.extend(share);
            }
        }
        counts.rounds += 1;

        // Aggregation MPC.  It and the noising MPC run on one session of
        // the configured transport backend, like every block MPC: the
        // backend is bit-invisible.
        let agg_circuit = program.aggregation_circuit(graph.vertex_count());
        // Its memoised layering is the largest transient of the run's
        // largest circuit: built before the session and the parties exist.
        agg_circuit.layers();
        let transport = mpc_transport(config.transport);
        let mut session = transport.open(block_size).map_err(MpcError::Transport)?;
        let agg_exec = self.aggregation_mpc(&mut *session, &agg_circuit, agg_input_shares)?;
        counts.add(&agg_exec.counts);
        let aggregate_bits = reconstruct_outputs(&agg_exec.output_shares)?;
        let ideal_output = program.decode_aggregate(&aggregate_bits);

        // Noising MPC: the aggregation block evaluates the distributed
        // noise-generation circuit on jointly-contributed random bits.  Its
        // cost is charged here; the released value itself uses the Laplace
        // mechanism seeded from the members' joint randomness (see
        // `DESIGN.md` for the substitution note).
        let noise_circ = noising_circuit(program.aggregate_bits(), 64, 0);
        let noise_inputs: Vec<Vec<bool>> = (0..block_size)
            .map(|_| {
                (0..noise_circ.num_inputs())
                    .map(|_| self.rng.next_bool())
                    .collect()
            })
            .collect();
        let noise_exec = self.aggregation_mpc(&mut *session, &noise_circ, noise_inputs)?;
        counts.add(&noise_exec.counts);

        // Joint seed: one contribution per aggregation-block member.
        let joint_seed = (0..block_size).fold(0u64, |acc, _| acc ^ self.rng.next_u64());
        let mechanism = LaplaceMechanism::new(program.sensitivity(), config.epsilon);
        let noised_output = mechanism.release(ideal_output, &mut SplitMix64::new(joint_seed));

        self.phases.aggregation = PhaseCosts {
            counts,
            wall_seconds: seconds(),
        };
        self.sample_resident();
        let stores = &self.stores;
        Ok(DStressRun {
            noised_output,
            ideal_output,
            phases: self.phases,
            store_resident_peak_bytes: self.resident_peak,
            spill_file_bytes: stores.state.spill_file_bytes()
                + stores.inbox.spill_file_bytes()
                + stores.inbox_next.spill_file_bytes(),
            traffic: self.traffic,
            iterations: program.iterations(),
            block_size,
        })
    }

    /// One MPC of the aggregation block on `session`, its parties on the
    /// sessions [`RunState::initialize`] set up: draws the execution's
    /// master seed and charges its traffic to the run.
    fn aggregation_mpc(
        &mut self,
        session: &mut dyn Session<GmwMessage>,
        circuit: &Circuit,
        input_shares: Vec<Vec<bool>>,
    ) -> Result<GmwExecution, RuntimeError> {
        let job = GmwJob {
            node_ids: self.setup.aggregation_block.members.clone(),
            input_shares,
            master_seed: self.rng.next_u64(),
        };
        let batching = self.config.gmw_batching;
        let ot = OtConfig::extension();
        let (execution, flows) = execute_established(session, circuit, batching, &ot, vec![job])?
            .pop()
            .expect("one job yields one execution");
        self.traffic.merge(&flows);
        Ok(execution)
    }
}

/// Every unordered node pair that shares the aggregation block or — when
/// the update circuit has AND gates at all — a vertex block, once, as
/// `(lower id, higher id)` in ascending order: the pairs whose
/// OT-extension sessions the Initialization step sets up.  The
/// aggregation block's pairs are always set up, because its noising MPC
/// always has AND gates.
fn session_pairs(setup: &SystemSetup, vertex_blocks: bool) -> Vec<(NodeId, NodeId)> {
    let vertex_blocks = setup.blocks.iter().filter(|_| vertex_blocks);
    let mut pairs = Vec::new();
    for block in vertex_blocks.chain([&setup.aggregation_block]) {
        for (i, &a) in block.members.iter().enumerate() {
            pairs.extend(block.members[i + 1..].iter().map(|&b| (a.min(b), a.max(b))));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Domain tag of the OT-extension sessions' key material.
const SESSION_TAG: u64 = 0x6f74_3a73_6573_7369; // "ot:sessi"

/// Blocks each worker keeps in flight under the streaming schedule: the
/// window of [`DStressRuntime::execute_streaming`] is
/// `worker_threads × BLOCKS_PER_WORKER`, so peak per-round
/// materialisation is bounded by the concurrency level, not the graph.
pub const BLOCKS_PER_WORKER: usize = 4;

impl PhaseCosts {
    /// Folds in one task outcome's counts.  The tasks of a step run
    /// concurrently: their compute and byte counts sum, but their rounds
    /// only raise `deepest`, the step's critical path, which
    /// [`RunState::end_round`] charges once per round.
    fn absorb(&mut self, deepest: &mut u64, mut counts: OperationCounts) {
        *deepest = (*deepest).max(counts.rounds);
        counts.rounds = 0;
        self.counts.merge(&counts);
    }
}

/// Derives the seed of one phase task (a vertex's computation step or an
/// edge's transfer) from the phase master seed and the task's position.
/// Stable across concurrency modes, which is what makes `Sequential` and
/// `Threaded` runs bit-identical.
fn task_seed(phase_seed: u64, index: u64) -> u64 {
    derive_seed(phase_seed, ENGINE_TASK_TAG, index)
}

/// Domain tag separating engine task streams from the party/pair streams
/// that [`derive_seed`] also serves.
const ENGINE_TASK_TAG: u64 = 0x656e_6769_6e65_3a74; // "engine:t"

/// Splits a bit vector into `n` XOR shares (per-bit sharing).
fn share_bits(bits: &[bool], n: usize, rng: &mut dyn DetRng) -> Vec<Vec<bool>> {
    let mut shares = vec![Vec::with_capacity(bits.len()); n];
    for &bit in bits {
        for (p, s) in split_xor_bit(bit, n, rng).into_iter().enumerate() {
            shares[p].push(s);
        }
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DStressConfig;
    use crate::program::CounterProgram;
    use dstress_graph::generate::ring_with_chords;
    use dstress_graph::Graph;

    fn ring_graph(n: usize) -> Graph {
        let mut rng = Xoshiro256::new(5);
        ring_with_chords(n, 0, 2, &mut rng)
    }

    /// Plaintext expectation for the counter program on a directed ring:
    /// run the reference executor from `dstress-graph` semantics by hand.
    fn counter_reference(graph: &Graph, width: u32, rounds: u32) -> f64 {
        let n = graph.vertex_count();
        let mask = (1u64 << width) - 1;
        let mut states: Vec<u64> = (0..n).map(|v| v as u64 + 1).collect();
        let mut inbox: Vec<Vec<u64>> = vec![Vec::new(); n];
        for _ in 0..rounds {
            let mut new_states = Vec::with_capacity(n);
            for v in 0..n {
                let sum: u64 = inbox[v].iter().sum();
                new_states.push((states[v] + sum) & mask);
                inbox[v].clear();
            }
            states = new_states;
            for v in graph.vertices() {
                for &to in graph.out_neighbors(v) {
                    inbox[to.0].push(states[v.0]);
                }
            }
        }
        let mut final_states = Vec::with_capacity(n);
        for v in 0..n {
            let sum: u64 = inbox[v].iter().sum();
            final_states.push((states[v] + sum) & mask);
        }
        final_states.iter().sum::<u64>() as f64
    }

    #[test]
    fn run_matches_plaintext_reference_real_crypto() {
        let graph = ring_graph(5);
        let program = CounterProgram {
            width: 8,
            rounds: 2,
        };
        let expected = counter_reference(&graph, 8, 2);

        let mut config = DStressConfig::small_test(2);
        config.message_bits = 8;
        let runtime = DStressRuntime::new(config);
        let run = runtime.execute(&graph, &program).unwrap();
        assert_eq!(run.ideal_output, expected);
        assert_ne!(run.noised_output, run.ideal_output);
        // The Laplace noise at sensitivity 1, ε = 0.23 is rarely huge.
        assert!((run.noised_output - run.ideal_output).abs() < 200.0);
        assert_eq!(run.iterations, 2);
        assert_eq!(run.block_size, 3);
    }

    #[test]
    fn run_matches_plaintext_reference_accounted() {
        let graph = ring_graph(6);
        let program = CounterProgram {
            width: 8,
            rounds: 3,
        };
        let expected = counter_reference(&graph, 8, 3);
        let mut config = DStressConfig::benchmark(3);
        config.message_bits = 8;
        let runtime = DStressRuntime::new(config);
        let run = runtime.execute(&graph, &program).unwrap();
        assert_eq!(run.ideal_output, expected);
    }

    #[test]
    fn transfer_modes_account_identically() {
        let graph = ring_graph(4);
        let program = CounterProgram {
            width: 8,
            rounds: 1,
        };

        let mut real_cfg = DStressConfig::small_test(2);
        real_cfg.message_bits = 8;
        let mut acc_cfg = DStressConfig::benchmark(2);
        acc_cfg.message_bits = 8;

        let real = DStressRuntime::new(real_cfg)
            .execute(&graph, &program)
            .unwrap();
        let accounted = DStressRuntime::new(acc_cfg)
            .execute(&graph, &program)
            .unwrap();

        let r = real.phases.communication.counts;
        let a = accounted.phases.communication.counts;
        assert_eq!(r.exponentiations, a.exponentiations);
        assert_eq!(r.fixed_base_exponentiations, a.fixed_base_exponentiations);
        assert!(a.fixed_base_exponentiations > 0);
        assert_eq!(r.group_multiplications, a.group_multiplications);
        // The accounted mode reproduces the measured wire bytes of the
        // real hops, via the closed-form encoded lengths.
        assert_eq!(r.wire_bytes, a.wire_bytes);
        assert!(r.wire_bytes > 0);
        assert_eq!(r.rounds, a.rounds);
        // The rest of the pipeline is identical code, so totals agree too.
        assert_eq!(
            real.phases.computation.counts.and_gates,
            accounted.phases.computation.counts.and_gates
        );
    }

    #[test]
    fn phases_report_nonzero_costs() {
        let graph = ring_graph(4);
        let program = CounterProgram {
            width: 8,
            rounds: 1,
        };
        let mut config = DStressConfig::benchmark(2);
        config.message_bits = 8;
        let run = DStressRuntime::new(config)
            .execute(&graph, &program)
            .unwrap();
        assert!(run.phases.computation.counts.and_gates > 0);
        assert!(run.phases.aggregation.counts.and_gates > 0);
        // Every phase moves real encoded bytes through the wire format.
        assert!(run.phases.initialization.counts.wire_bytes > 0);
        assert!(run.phases.computation.counts.wire_bytes > 0);
        assert!(run.phases.communication.counts.wire_bytes > 0);
        assert!(run.phases.aggregation.counts.wire_bytes > 0);
        assert!(run.phases.total_wall_seconds() > 0.0);
        assert!(run.mean_bytes_per_node() > 0.0);
    }

    #[test]
    fn traffic_report_is_the_measured_wire_bytes() {
        // The "traffic per node" columns read the report: its byte total
        // is the bytes every phase measured on the wire, and the mean is
        // that total over the nodes that sent anything.
        let graph = ring_graph(5);
        let program = CounterProgram {
            width: 8,
            rounds: 2,
        };
        for transfers in [TransferMode::Accounted, TransferMode::RealCrypto] {
            let mut config = DStressConfig::benchmark(2);
            config.message_bits = 8;
            config.transfer_mode = transfers;
            let run = DStressRuntime::new(config)
                .execute(&graph, &program)
                .unwrap();
            let report = run.traffic.report();
            let wire_bytes = run.phases.total_counts().wire_bytes;
            assert!(wire_bytes > 0, "{transfers:?}");
            assert_eq!(report.total_bytes, wire_bytes, "{transfers:?}");
            let senders = run
                .traffic
                .nodes()
                .filter(|(_, t)| t.wire_bytes_sent > 0)
                .count();
            assert_eq!(
                run.mean_bytes_per_node(),
                wire_bytes as f64 / senders as f64,
                "{transfers:?}"
            );
        }
    }

    #[test]
    fn traffic_grows_with_block_size() {
        let graph = ring_graph(6);
        let program = CounterProgram {
            width: 8,
            rounds: 1,
        };
        let mut small_cfg = DStressConfig::benchmark(2);
        small_cfg.message_bits = 8;
        let mut large_cfg = DStressConfig::benchmark(4);
        large_cfg.message_bits = 8;
        let small = DStressRuntime::new(small_cfg)
            .execute(&graph, &program)
            .unwrap();
        let large = DStressRuntime::new(large_cfg)
            .execute(&graph, &program)
            .unwrap();
        assert!(large.traffic.report().total_bytes > small.traffic.report().total_bytes);
        assert!(large.mean_bytes_per_node() > small.mean_bytes_per_node());
        // The ideal output is unchanged by the block size.
        assert_eq!(small.ideal_output, large.ideal_output);
    }

    #[test]
    fn concurrency_mode_does_not_change_results() {
        use crate::config::ConcurrencyMode;
        let program = CounterProgram {
            width: 8,
            rounds: 2,
        };
        let mut seq_cfg = DStressConfig::benchmark(3);
        seq_cfg.message_bits = 8;
        let thr_cfg = seq_cfg
            .clone()
            .with_concurrency(ConcurrencyMode::Threaded { threads: 4 });
        // A ring long enough that a round's block steps are worth two
        // workers to the executor (see `MIN_AND_PAIRS_PER_WORKER`), so
        // helper threads really run.
        let member_pairs = seq_cfg.block_size() * (seq_cfg.block_size() - 1) / 2;
        let and_gates = program.update_circuit(2).layers().and_gates();
        let graph = ring_graph(
            (2 * crate::exec::MIN_AND_PAIRS_PER_WORKER).div_ceil(member_pairs * and_gates),
        );
        assert_eq!(graph.degree_bound(), 2);

        let seq = DStressRuntime::new(seq_cfg)
            .execute(&graph, &program)
            .unwrap();
        let thr = DStressRuntime::new(thr_cfg)
            .execute(&graph, &program)
            .unwrap();

        // Bit-identical runs: outputs, counts, and traffic all agree.
        assert_eq!(seq.noised_output, thr.noised_output);
        assert_eq!(seq.ideal_output, thr.ideal_output);
        assert_eq!(seq.phases.total_counts(), thr.phases.total_counts());
        assert_eq!(seq.traffic.report(), thr.traffic.report());

        // Same holds under real transfer cryptography.
        let mut real_seq = DStressConfig::small_test(2);
        real_seq.message_bits = 8;
        let real_thr = real_seq
            .clone()
            .with_concurrency(ConcurrencyMode::Threaded { threads: 3 });
        let graph = ring_graph(4);
        let program = CounterProgram {
            width: 8,
            rounds: 1,
        };
        let a = DStressRuntime::new(real_seq)
            .execute(&graph, &program)
            .unwrap();
        let b = DStressRuntime::new(real_thr)
            .execute(&graph, &program)
            .unwrap();
        assert_eq!(a.noised_output, b.noised_output);
        assert_eq!(a.traffic.report(), b.traffic.report());
    }

    #[test]
    fn phase_rounds_scale_with_depth_not_graph_size() {
        // Independent blocks run concurrently, so the init/compute/
        // transfer round counts depend on the program's circuit depth and
        // iteration count — not on how many vertices or edges the graph
        // has.  (Aggregation rounds may differ: that circuit grows with
        // N.)
        let program = CounterProgram {
            width: 8,
            rounds: 2,
        };
        let mut small_cfg = DStressConfig::benchmark(2);
        small_cfg.message_bits = 8;
        let large_cfg = small_cfg.clone();
        let small = DStressRuntime::new(small_cfg)
            .execute(&ring_graph(4), &program)
            .unwrap();
        let large = DStressRuntime::new(large_cfg)
            .execute(&ring_graph(8), &program)
            .unwrap();
        assert_eq!(
            small.phases.initialization.counts.rounds,
            large.phases.initialization.counts.rounds
        );
        // Two: the OT-extension session setup's two flights, with the
        // share distribution riding the first.
        assert_eq!(small.phases.initialization.counts.rounds, 2);
        assert_eq!(
            small.phases.computation.counts.rounds,
            large.phases.computation.counts.rounds
        );
        assert_eq!(
            small.phases.communication.counts.rounds,
            large.phases.communication.counts.rounds
        );
        // 3 transfer rounds per iteration, independent of edge count.
        assert_eq!(small.phases.communication.counts.rounds, 3 * 2);
        // But the graph with twice the vertices moves ~twice the bytes.
        assert!(
            large.phases.computation.counts.wire_bytes > small.phases.computation.counts.wire_bytes
        );
    }

    /// κ × the distinct unordered node pairs that share the aggregation
    /// block or, with `vertex_blocks`, a vertex block of the setup the run
    /// builds — counted with a set, apart from the engine's own pair list.
    fn setup_base_ots<P: SecureVertexProgram>(
        config: &DStressConfig,
        graph: &Graph,
        program: &P,
        vertex_blocks: bool,
    ) -> u64 {
        let (_, setup, _) = DStressRuntime::new(config.clone())
            .build_setup(
                &Group::new(config.group),
                graph,
                program.message_bits(),
                &mut Xoshiro256::new(config.seed),
            )
            .unwrap();
        let blocks = setup.blocks.iter().filter(|_| vertex_blocks);
        let mut pairs = std::collections::BTreeSet::new();
        for block in blocks.chain([&setup.aggregation_block]) {
            for &a in &block.members {
                pairs.extend(block.members.iter().filter(|&&b| a < b).map(|&b| (a, b)));
            }
        }
        80 * pairs.len() as u64
    }

    #[test]
    fn runs_set_up_each_node_pair_once_in_initialization() {
        use crate::analytics::DegreeHistogramProgram;
        use crate::config::ConcurrencyMode;
        let program = CounterProgram {
            width: 8,
            rounds: 2,
        };
        let graph = ring_graph(9);
        let mut sequential = DStressConfig::benchmark(2);
        sequential.message_bits = 8;
        let streamed = sequential
            .clone()
            .with_concurrency(ConcurrencyMode::Threaded { threads: 2 })
            .with_state_budget(1);
        let mut real_crypto = DStressConfig::small_test(2);
        real_crypto.message_bits = 8;
        let runs = [
            ("sequential", &sequential, false),
            ("threaded, streamed, spilling", &streamed, true),
            ("real crypto", &real_crypto, false),
        ];
        for (what, config, streaming) in runs {
            let runtime = DStressRuntime::new(config.clone());
            let run = if streaming {
                runtime.execute_streaming(&graph, &program)
            } else {
                runtime.execute(&graph, &program)
            }
            .unwrap();
            let phases = &run.phases;
            let expected = setup_base_ots(config, &graph, &program, true);
            assert_eq!(phases.total_counts().base_ots, expected, "{what}");
            assert_eq!(phases.initialization.counts.base_ots, expected, "{what}");
            assert_eq!(phases.computation.counts.base_ots, 0, "{what}");
            assert_eq!(phases.aggregation.counts.base_ots, 0, "{what}");
        }

        // An update circuit without AND gates needs no vertex-block pair.
        let histogram = DegreeHistogramProgram {
            width: 8,
            lo: 1,
            hi: 2,
        };
        let run = DStressRuntime::new(sequential.clone())
            .execute(&graph, &histogram)
            .unwrap();
        let aggregation_only = setup_base_ots(&sequential, &graph, &histogram, false);
        assert_eq!(run.phases.total_counts().base_ots, aggregation_only);
        assert_eq!(aggregation_only, 80 * 3, "one block of three: three pairs");
    }

    #[test]
    fn gmw_batching_modes_agree_end_to_end() {
        use dstress_mpc::GmwBatching;
        let graph = ring_graph(5);
        let program = CounterProgram {
            width: 8,
            rounds: 2,
        };
        let mut layered_cfg = DStressConfig::benchmark(2);
        layered_cfg.message_bits = 8;
        let per_gate_cfg = layered_cfg.clone().with_gmw_batching(GmwBatching::PerGate);
        assert_eq!(layered_cfg.gmw_batching, GmwBatching::Layered);

        let layered = DStressRuntime::new(layered_cfg)
            .execute(&graph, &program)
            .unwrap();
        let per_gate = DStressRuntime::new(per_gate_cfg)
            .execute(&graph, &program)
            .unwrap();

        // Same outputs, same work, same nodes talking — batching only
        // shrinks the round count and the bytes (one header per layer
        // instead of one per gate).
        assert_eq!(layered.noised_output, per_gate.noised_output);
        assert_eq!(layered.ideal_output, per_gate.ideal_output);
        let lr = layered.traffic.report();
        let pr = per_gate.traffic.report();
        assert_eq!(lr.active_nodes, pr.active_nodes);
        let mut l = layered.phases.total_counts();
        let mut p = per_gate.phases.total_counts();
        assert!(l.rounds < p.rounds);
        assert!(l.wire_bytes < p.wire_bytes);
        assert_eq!(lr.total_bytes, l.wire_bytes);
        assert_eq!(pr.total_bytes, p.wire_bytes);
        l.rounds = 0;
        p.rounds = 0;
        l.wire_bytes = 0;
        p.wire_bytes = 0;
        assert_eq!(l, p);
    }

    /// Two runs must agree bit-for-bit: outputs, counts, and traffic.
    fn assert_runs_identical(a: &DStressRun, b: &DStressRun, what: &str) {
        assert_eq!(a.noised_output, b.noised_output, "{what}");
        assert_eq!(a.ideal_output, b.ideal_output, "{what}");
        assert_eq!(a.phases.total_counts(), b.phases.total_counts(), "{what}");
        assert_eq!(a.traffic.report(), b.traffic.report(), "{what}");
        assert_eq!(
            a.phases.computation.counts.rounds, b.phases.computation.counts.rounds,
            "{what}"
        );
        assert_eq!(
            a.phases.communication.counts.rounds, b.phases.communication.counts.rounds,
            "{what}"
        );
    }

    #[test]
    fn streaming_execution_matches_materialised() {
        // The block-streaming schedule bounds in-flight state per window;
        // it must not change a single bit of the run — under either
        // transfer mode.
        let program = CounterProgram {
            width: 8,
            rounds: 2,
        };
        let graph = ring_graph(7);
        let mut acc = DStressConfig::benchmark(2);
        acc.message_bits = 8;
        let runtime = DStressRuntime::new(acc);
        let materialised = runtime.execute(&graph, &program).unwrap();
        let streaming = runtime.execute_streaming(&graph, &program).unwrap();
        assert_runs_identical(&materialised, &streaming, "accounted");

        let graph = ring_graph(4);
        let program = CounterProgram {
            width: 8,
            rounds: 1,
        };
        let mut real = DStressConfig::small_test(2);
        real.message_bits = 8;
        let runtime = DStressRuntime::new(real);
        let materialised = runtime.execute(&graph, &program).unwrap();
        let streaming = runtime.execute_streaming(&graph, &program).unwrap();
        assert_runs_identical(&materialised, &streaming, "real crypto");
    }

    #[test]
    fn streaming_sequential_and_threaded_agree() {
        // The streaming determinism pin: under the bounded-window
        // schedule, Sequential and Threaded runs stay bit-identical (the
        // window is derived from the worker count, so the two modes even
        // use different windows — the global task indexing makes that
        // invisible).
        use crate::config::ConcurrencyMode;
        let program = CounterProgram {
            width: 8,
            rounds: 2,
        };
        let graph = ring_graph(9);
        let mut seq_cfg = DStressConfig::benchmark(2);
        seq_cfg.message_bits = 8;
        let thr_cfg = seq_cfg
            .clone()
            .with_concurrency(ConcurrencyMode::Threaded { threads: 4 });
        let seq = DStressRuntime::new(seq_cfg)
            .execute_streaming(&graph, &program)
            .unwrap();
        let thr = DStressRuntime::new(thr_cfg)
            .execute_streaming(&graph, &program)
            .unwrap();
        assert_runs_identical(&seq, &thr, "sequential vs threaded streaming");
    }

    #[test]
    fn streaming_runs_csr_graphs_from_edge_streams() {
        // The full streaming path: a seeded generator feeds a compact CSR
        // graph, which the bounded-memory schedule executes; the run is
        // reproducible and matches the plaintext reference.
        use crate::program::execute_plaintext;
        use dstress_graph::stream::BarabasiAlbertStream;
        let graph = Graph::from_edge_stream(&mut BarabasiAlbertStream::new(24, 2, 6, 5)).unwrap();
        assert!(graph.is_csr());
        let program = CounterProgram {
            width: 10,
            rounds: 2,
        };
        let mut cfg = DStressConfig::benchmark(2);
        cfg.message_bits = 10;
        let runtime = DStressRuntime::new(cfg);
        let a = runtime.execute_streaming(&graph, &program).unwrap();
        let b = runtime.execute_streaming(&graph, &program).unwrap();
        assert_runs_identical(&a, &b, "csr reproducibility");
        assert_eq!(a.ideal_output, execute_plaintext(&graph, &program));
        // And the materialised schedule agrees on the CSR graph too.
        let c = runtime.execute(&graph, &program).unwrap();
        assert_runs_identical(&a, &c, "csr streaming vs materialised");
    }

    #[test]
    fn transport_kind_does_not_change_results() {
        // The GMW transport backend is bit-invisible: a run whose block,
        // aggregation and noising MPCs exchange their messages over real
        // loopback TCP matches the in-process run in outputs, counts —
        // including measured wire bytes — and traffic.
        use crate::config::TransportKind;
        let graph = ring_graph(5);
        let program = CounterProgram {
            width: 8,
            rounds: 1,
        };
        let mut sim_cfg = DStressConfig::benchmark(2);
        sim_cfg.message_bits = 8;
        let sock_cfg = sim_cfg.clone().with_transport(TransportKind::Socket);
        let sim = DStressRuntime::new(sim_cfg)
            .execute(&graph, &program)
            .unwrap();
        let sock = DStressRuntime::new(sock_cfg)
            .execute(&graph, &program)
            .unwrap();
        assert_runs_identical(&sim, &sock, "sim vs socket transport");
        assert!(sim.phases.total_counts().wire_bytes > 0);
    }

    #[test]
    fn noised_output_is_reproducible_from_seed() {
        let graph = ring_graph(4);
        let program = CounterProgram {
            width: 8,
            rounds: 1,
        };
        let mut cfg = DStressConfig::benchmark(2);
        cfg.message_bits = 8;
        let a = DStressRuntime::new(cfg.clone())
            .execute(&graph, &program)
            .unwrap();
        let b = DStressRuntime::new(cfg).execute(&graph, &program).unwrap();
        assert_eq!(a.noised_output, b.noised_output);
        assert_eq!(a.ideal_output, b.ideal_output);
    }

    /// A unique per-test scratch directory (removed by the returned
    /// guard) so persistence tests never collide.
    fn test_dir(tag: &str) -> crate::store::RunDirGuard {
        crate::store::RunDirGuard::create(
            None,
            tag.bytes().fold(0u64, |a, b| a << 8 | u64::from(b)),
        )
        .unwrap()
    }

    #[test]
    fn spilling_backend_is_bit_identical_to_memory() {
        // 32 vertices × block 3 = 96 state rows and ~290 inbox rows —
        // several segments per store, so a 1-byte budget forces real
        // paging through the spill log.
        let graph = ring_graph(32);
        let program = CounterProgram {
            width: 8,
            rounds: 2,
        };
        let mut mem_cfg = DStressConfig::benchmark(2);
        mem_cfg.message_bits = 8;
        // A 1-byte budget forces the spilling backend with a single
        // resident segment per store — every access pattern pages.
        let spill_cfg = mem_cfg.clone().with_state_budget(1);
        let mem = DStressRuntime::new(mem_cfg)
            .execute(&graph, &program)
            .unwrap();
        let spill = DStressRuntime::new(spill_cfg)
            .execute(&graph, &program)
            .unwrap();
        assert_runs_identical(&mem, &spill, "mem vs spill backend");
        assert_eq!(mem.spill_file_bytes, 0);
        assert!(spill.spill_file_bytes > 0, "a 1-byte budget must spill");
        assert!(spill.store_resident_peak_bytes < mem.store_resident_peak_bytes);
        assert!(mem.store_resident_peak_bytes > 0);

        // The streaming schedule over the spilling backend agrees too.
        let spill_streaming_cfg = DStressConfig::benchmark(2);
        let mut spill_streaming_cfg = spill_streaming_cfg.with_state_budget(1);
        spill_streaming_cfg.message_bits = 8;
        let streaming = DStressRuntime::new(spill_streaming_cfg)
            .execute_streaming(&graph, &program)
            .unwrap();
        assert_runs_identical(&mem, &streaming, "mem vs spill streaming");
    }

    #[test]
    fn checkpointing_does_not_change_the_run() {
        let scratch = test_dir("ckpt-inv");
        let graph = ring_graph(6);
        let program = CounterProgram {
            width: 8,
            rounds: 3,
        };
        let mut plain_cfg = DStressConfig::benchmark(2);
        plain_cfg.message_bits = 8;
        let ckpt_cfg =
            plain_cfg
                .clone()
                .with_checkpoint(crate::config::CheckpointConfig::every_round(
                    scratch.path().join("ckpt"),
                ));
        let plain = DStressRuntime::new(plain_cfg)
            .execute(&graph, &program)
            .unwrap();
        let checkpointed = DStressRuntime::new(ckpt_cfg)
            .execute(&graph, &program)
            .unwrap();
        assert_runs_identical(&plain, &checkpointed, "checkpointing is invisible");
        // Only the newest checkpoint survives pruning.
        assert_eq!(
            crate::store::latest_checkpoint_round(&scratch.path().join("ckpt")).unwrap(),
            Some(3)
        );
        let files = std::fs::read_dir(scratch.path().join("ckpt"))
            .unwrap()
            .count();
        assert_eq!(files, 1, "superseded checkpoints are pruned");
    }

    #[test]
    fn kill_and_resume_is_bit_identical() {
        let scratch = test_dir("kill-res");
        let ckpt_dir = scratch.path().join("ckpt");
        let graph = ring_graph(7);
        let program = CounterProgram {
            width: 8,
            rounds: 3,
        };
        let mut base_cfg = DStressConfig::benchmark(2);
        base_cfg.message_bits = 8;
        let uninterrupted = DStressRuntime::new(base_cfg.clone())
            .execute(&graph, &program)
            .unwrap();

        // Crash after round 1's checkpoint; drop the runtime entirely.
        let crash_cfg = base_cfg
            .clone()
            .with_checkpoint(crate::config::CheckpointConfig::every_round(
                ckpt_dir.clone(),
            ))
            .with_halt_after_round(1);
        let crashed = DStressRuntime::new(crash_cfg).execute(&graph, &program);
        assert!(matches!(crashed, Err(RuntimeError::Halted { round: 1 })));

        // A fresh runtime resumes from the checkpoint and must match the
        // uninterrupted run bit for bit — output, counts, wire bytes and
        // per-node traffic.
        let resume_cfg =
            base_cfg
                .clone()
                .with_checkpoint(crate::config::CheckpointConfig::every_round(
                    ckpt_dir.clone(),
                ));
        let resumed = DStressRuntime::new(resume_cfg)
            .resume(&graph, &program)
            .unwrap();
        assert_runs_identical(&uninterrupted, &resumed, "kill and resume");
        assert_eq!(
            uninterrupted.phases.total_counts().wire_bytes,
            resumed.phases.total_counts().wire_bytes
        );
        assert_eq!(
            uninterrupted.traffic.report().total_bytes,
            resumed.traffic.report().total_bytes
        );

        // The same holds when the interrupted run *and* the resume use
        // the spilling backend.
        let spill_ckpt = scratch.path().join("ckpt-spill");
        let spill_crash = base_cfg
            .clone()
            .with_state_budget(1)
            .with_checkpoint(crate::config::CheckpointConfig::every_round(
                spill_ckpt.clone(),
            ))
            .with_halt_after_round(0);
        assert!(DStressRuntime::new(spill_crash)
            .execute(&graph, &program)
            .is_err());
        let spill_resume = base_cfg
            .with_state_budget(1)
            .with_checkpoint(crate::config::CheckpointConfig::every_round(spill_ckpt));
        let spill_resumed = DStressRuntime::new(spill_resume)
            .resume(&graph, &program)
            .unwrap();
        assert_runs_identical(&uninterrupted, &spill_resumed, "spilling kill and resume");
    }

    #[test]
    fn resume_rejects_missing_and_foreign_checkpoints() {
        let scratch = test_dir("res-rej");
        let graph = ring_graph(5);
        let program = CounterProgram {
            width: 8,
            rounds: 2,
        };
        let mut cfg = DStressConfig::benchmark(2);
        cfg.message_bits = 8;

        // No checkpoint directory configured at all.
        let err = DStressRuntime::new(cfg.clone())
            .resume(&graph, &program)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Checkpoint { .. }));

        // Directory configured but empty.
        let ckpt_dir = scratch.path().join("ckpt");
        let cfg = cfg.with_checkpoint(crate::config::CheckpointConfig::every_round(
            ckpt_dir.clone(),
        ));
        let err = DStressRuntime::new(cfg.clone())
            .resume(&graph, &program)
            .unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::Store(StoreError::Corrupt { .. })
        ));

        // A checkpoint from a *different* run shape is rejected by the
        // fingerprint.
        let crash = cfg.clone().with_halt_after_round(0);
        assert!(DStressRuntime::new(crash)
            .execute(&graph, &program)
            .is_err());
        let other_graph = ring_graph(6);
        let err = DStressRuntime::new(cfg)
            .resume(&other_graph, &program)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Checkpoint { .. }));
    }

    #[test]
    fn resume_rejects_a_checkpoint_in_the_previous_layout() {
        // The version-1 golden manifest (one more uvarint per phase-cost
        // block, four more per traffic entry): typed as a checkpoint
        // error naming both versions, never decoded as version 2.
        let zero_costs = "00".repeat(10 + 8);
        let version_1 = [
            "4d",
            "01000000",
            "01",
            "03",
            "0df0000000000000",
            "0100000000000000",
            "0200000000000000",
            "0300000000000000",
            "0400000000000000",
            &zero_costs,
            &zero_costs,
            &zero_costs,
            "01",
            "01",
            "030000000000",
            "01",
            "00",
            "02",
            "0807060504030201",
        ]
        .concat();
        let bytes: Vec<u8> = (0..version_1.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&version_1[i..i + 2], 16).unwrap())
            .collect();
        let scratch = test_dir("res-v1");
        let ckpt_dir = scratch.path().join("ckpt");
        std::fs::create_dir_all(&ckpt_dir).unwrap();
        std::fs::write(ckpt_dir.join("checkpoint-00000001.ckpt"), bytes).unwrap();
        let mut cfg = DStressConfig::benchmark(2)
            .with_checkpoint(crate::config::CheckpointConfig::every_round(ckpt_dir));
        cfg.message_bits = 8;
        let program = CounterProgram {
            width: 8,
            rounds: 2,
        };
        let err = DStressRuntime::new(cfg)
            .resume(&ring_graph(5), &program)
            .unwrap_err();
        let RuntimeError::Checkpoint { context } = &err else {
            panic!("expected a checkpoint error, got {err}");
        };
        assert_eq!(
            context,
            "checkpoint layout version 1, this build reads version 2"
        );
    }

    /// An executor that fails every window — the error-path probe for the
    /// spill-directory lifecycle.
    struct FailingExecutor;

    impl StepExecutor for FailingExecutor {
        fn run_block_steps(
            &self,
            _ctx: &StepContext<'_>,
            _tasks: Vec<BlockStepTask>,
        ) -> Result<Vec<crate::exec::BlockStepOutcome>, RuntimeError> {
            Err(RuntimeError::Deploy("injected failure".to_string()))
        }

        fn run_transfers(
            &self,
            _ctx: &StepContext<'_>,
            _tasks: Vec<TransferTask>,
        ) -> Result<Vec<crate::exec::TransferOutcome>, RuntimeError> {
            Err(RuntimeError::Deploy("injected failure".to_string()))
        }
    }

    #[test]
    fn spill_directory_is_removed_even_when_a_round_errors() {
        let scratch = test_dir("spill-err");
        let base = scratch.path().join("spill-base");
        std::fs::create_dir_all(&base).unwrap();
        let graph = ring_graph(6);
        let program = CounterProgram {
            width: 8,
            rounds: 2,
        };
        let mut cfg = DStressConfig::benchmark(2)
            .with_state_budget(1)
            .with_spill_dir(base.clone());
        cfg.message_bits = 8;
        let err = DStressRuntime::new(cfg)
            .execute_with(&graph, &program, &FailingExecutor)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Deploy(_)));
        // The run-scoped directory — spill logs included — is gone.
        let leftovers: Vec<_> = std::fs::read_dir(&base)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert!(
            leftovers.is_empty(),
            "orphaned spill state after a failed run: {leftovers:?}"
        );
    }
}
