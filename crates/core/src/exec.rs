//! Step executors: *where* the independent tasks of a phase run.
//!
//! The engine's windowed pipeline (`run_windowed_with` in
//! [`crate::engine`]) builds one serializable task per independent unit
//! of work — a vertex's computation step, an edge's message transfer —
//! and hands the batch to a [`StepExecutor`].  The executor decides
//! placement:
//!
//! * [`LocalExecutor`] shards the batch across the in-process worker
//!   pool ([`dstress_net::pool::parallel_map`]), with as many of the
//!   configured workers as the batch has work for — the default.
//! * The `dstress-node` deployment crate implements the same trait by
//!   shipping task batches to registered worker processes over framed
//!   TCP and collecting the outcomes.
//!
//! Placement cannot change results: every task carries its own derived
//! seed, executes against only the data in the task, and returns its
//! outcome with per-node traffic entries that the engine merges in task
//! order.  The task-level entry points ([`execute_block_step_task`],
//! [`execute_accounted_transfer_task`]) are plain functions of the task
//! bytes, so a remote worker that decodes a task computes bit-for-bit
//! what the local pool would have.
//!
//! Because tasks carry *copies* of their input shares, the engine's
//! [`crate::store::StateStore`] backends are only ever touched from the
//! scheduling thread — workers (threads or remote processes) never see a
//! store, which is what lets the disk-spilling backend use plain
//! single-threaded interior mutability and page segments during task
//! building.

use crate::config::{DStressConfig, TransferMode, TransportKind};
use crate::engine::RuntimeError;
use dstress_circuit::Circuit;
use dstress_crypto::dlog::DlogTable;
use dstress_crypto::group::Group;
use dstress_crypto::sharing::{split_xor, xor_reconstruct, BitMessage};
use dstress_math::rng::Xoshiro256;
use dstress_mpc::gmw::{GmwConfig, GmwProtocol};
use dstress_mpc::party::OtConfig;
use dstress_mpc::{GmwBatching, GmwMessage};
use dstress_net::cost::OperationCounts;
use dstress_net::pool::parallel_map;
use dstress_net::socket::SocketTransport;
use dstress_net::traffic::{NodeId, NodeTraffic, TrafficAccountant};
use dstress_net::transport::{SimTransport, Transport};
use dstress_transfer::protocol::{transfer_message, TransferConfig};
use dstress_transfer::setup::{NodeSecrets, SystemSetup};

/// One vertex's computation step: a GMW evaluation of the program's
/// update circuit among the vertex's block members.
///
/// The task is self-contained — members, seed and input shares travel
/// with it — so the executing worker needs only the run-wide job
/// parameters (circuit, widths, batching, transport), never the master's
/// setup state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockStepTask {
    /// The vertex whose block computes.
    pub vertex: u64,
    /// The task's derived seed (`task_seed(comp_seed, vertex)`).
    pub seed: u64,
    /// The block members, owner first (the GMW node identities).
    pub members: Vec<NodeId>,
    /// Number of *actual* out-edges whose message shares the outcome
    /// must carry (the circuit's remaining padded slots are dropped).
    pub out_slots: u64,
    /// Per-member GMW input shares.
    pub input_shares: Vec<Vec<bool>>,
}

/// The result of one [`BlockStepTask`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockStepOutcome {
    /// Per-member shares of the vertex's new state.
    pub new_state: Vec<Vec<bool>>,
    /// Per-member shares of each outgoing message: `outgoing[slot][m]`.
    pub outgoing: Vec<Vec<Vec<bool>>>,
    /// Operation counts of the block MPC.
    pub counts: OperationCounts,
    /// Per-node traffic entries, ascending node order.
    pub traffic: Vec<(NodeId, NodeTraffic)>,
}

/// One edge's message transfer: moves the sender block's message shares
/// to the receiver block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransferTask {
    /// Global (vertex-major) edge index of the round.
    pub edge_index: u64,
    /// The task's derived seed (`task_seed(comm_seed, edge_index)`).
    pub seed: u64,
    /// Sending vertex.
    pub from: u64,
    /// Receiving vertex.
    pub to: u64,
    /// The receiver's inbox slot this edge delivers into.
    pub in_slot: u64,
    /// The sender's block members.
    pub sender_members: Vec<NodeId>,
    /// The receiver's block members.
    pub receiver_members: Vec<NodeId>,
    /// Per-sender-member shares of the message bits.
    pub shares: Vec<Vec<bool>>,
}

/// The result of one [`TransferTask`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransferOutcome {
    /// Receiving vertex (copied from the task so outcomes are
    /// self-describing when they return out of order from a fleet).
    pub to: u64,
    /// The receiver's inbox slot.
    pub in_slot: u64,
    /// Per-receiver-member shares of the delivered message bits.
    pub receiver_shares: Vec<Vec<bool>>,
    /// Operation counts of the transfer.
    pub counts: OperationCounts,
    /// Per-node traffic entries, ascending node order.
    pub traffic: Vec<(NodeId, NodeTraffic)>,
}

/// Everything an executor needs beyond the tasks themselves.  Remote
/// executors use only the plain job parameters (config, widths); the
/// borrowed setup state exists for the local real-crypto transfer path,
/// whose certificates and key material never leave the master.
pub struct StepContext<'a> {
    /// The run configuration.
    pub config: &'a DStressConfig,
    /// The program's update circuit (shared by every computation step).
    pub update_circuit: &'a Circuit,
    /// State width in bits.
    pub state_bits: usize,
    /// Message width in bits.
    pub message_bits: usize,
    /// Message width as the transfer protocol's `u32` parameter.
    pub message_width: u32,
    /// The ElGamal group of the run.
    pub group: &'a Group,
    /// System setup (blocks; certificates in real-crypto mode).
    pub setup: &'a SystemSetup,
    /// Per-node secrets (empty in accounted mode).
    pub secrets: &'a [NodeSecrets],
    /// Discrete-log table (real-crypto mode only).
    pub dlog: Option<&'a DlogTable>,
}

/// Where a phase's independent tasks execute.
///
/// Implementations MUST return outcomes in task order and MUST compute
/// each outcome exactly as the task-level entry points do — placement is
/// not allowed to change a single bit of the run.
pub trait StepExecutor {
    /// Executes one window's computation-step tasks.
    fn run_block_steps(
        &self,
        ctx: &StepContext<'_>,
        tasks: Vec<BlockStepTask>,
    ) -> Result<Vec<BlockStepOutcome>, RuntimeError>;

    /// Executes one window's transfer tasks.
    fn run_transfers(
        &self,
        ctx: &StepContext<'_>,
        tasks: Vec<TransferTask>,
    ) -> Result<Vec<TransferOutcome>, RuntimeError>;
}

/// Pairwise AND evaluations (AND gates × member pairs) a batch of block
/// steps must hold per worker before [`LocalExecutor`] gives it that
/// worker.  At the measured 30–80 ns per AND-pair this is about a
/// millisecond of GMW work, several times what starting and joining a
/// helper thread costs; below it the helper's start-up would be the
/// batch's critical path, and a wait whose length is the host's
/// scheduling latency rather than anything the run computes.
pub(crate) const MIN_AND_PAIRS_PER_WORKER: usize = 16_384;

/// The in-process executor: shards tasks across the worker pool
/// configured by [`crate::config::ConcurrencyMode`], using as many of its
/// workers as the batch has work for.
#[derive(Clone, Copy, Debug, Default)]
pub struct LocalExecutor;

impl StepExecutor for LocalExecutor {
    fn run_block_steps(
        &self,
        ctx: &StepContext<'_>,
        tasks: Vec<BlockStepTask>,
    ) -> Result<Vec<BlockStepOutcome>, RuntimeError> {
        // One worker per `MIN_AND_PAIRS_PER_WORKER` of estimated work, at
        // most the configured pool: a streaming window of small block
        // MPCs stays on the calling thread, where its time does not
        // depend on how soon the host schedules a second thread.  (A
        // socket MPC costs its TCP mesh whatever its gates, so those
        // always get the configured pool.)
        let configured = ctx.config.concurrency.worker_threads();
        let threads = match ctx.config.transport {
            TransportKind::Socket => configured,
            TransportKind::Sim => {
                let member_pairs: usize = tasks
                    .iter()
                    .map(|task| task.members.len() * task.members.len().saturating_sub(1) / 2)
                    .sum();
                let and_pairs =
                    member_pairs.saturating_mul(ctx.update_circuit.layers().and_gates());
                configured.min((and_pairs / MIN_AND_PAIRS_PER_WORKER).max(1))
            }
        };
        let update_circuit = ctx.update_circuit;
        let batching = ctx.config.gmw_batching;
        let transport = ctx.config.transport;
        let (state_bits, message_bits) = (ctx.state_bits, ctx.message_bits);
        parallel_map(tasks, threads, move |_off, task| {
            execute_block_step_task(
                update_circuit,
                batching,
                transport,
                state_bits,
                message_bits,
                task,
            )
        })
        .into_iter()
        .collect()
    }

    fn run_transfers(
        &self,
        ctx: &StepContext<'_>,
        tasks: Vec<TransferTask>,
    ) -> Result<Vec<TransferOutcome>, RuntimeError> {
        match ctx.config.transfer_mode {
            TransferMode::RealCrypto => {
                let threads = ctx.config.concurrency.worker_threads();
                parallel_map(tasks, threads, |_off, task| real_crypto_transfer(ctx, task))
                    .into_iter()
                    .collect()
            }
            // An accounted transfer is bookkeeping — about a microsecond,
            // against tens of microseconds to start a helper thread — so
            // the batch runs on the calling thread in every mode.
            TransferMode::Accounted => Ok(tasks
                .iter()
                .map(|task| execute_accounted_transfer_task(ctx.group, ctx.message_width, task))
                .collect()),
        }
    }
}

/// The transport instance one block MPC runs on.
///
/// `Socket` uses a single transport worker because block MPCs already
/// run many-at-once inside the executor's pool; each MPC still opens a
/// real loopback TCP mesh between its `k + 1` parties.
pub fn mpc_transport(kind: TransportKind) -> Box<dyn Transport<GmwMessage>> {
    match kind {
        TransportKind::Sim => Box::new(SimTransport),
        TransportKind::Socket => Box::new(SocketTransport::with_threads(1)),
    }
}

/// Executes one computation-step task: a pure function of the task and
/// the run-wide job parameters, identical on every placement.
pub fn execute_block_step_task(
    update_circuit: &Circuit,
    batching: GmwBatching,
    transport: TransportKind,
    state_bits: usize,
    message_bits: usize,
    task: BlockStepTask,
) -> Result<BlockStepOutcome, RuntimeError> {
    let mut rng = Xoshiro256::new(task.seed);
    let mut traffic = TrafficAccountant::new();
    let block_size = task.members.len();
    let protocol =
        GmwProtocol::new(GmwConfig::with_node_ids(task.members.clone()).with_batching(batching))?;
    let transport = mpc_transport(transport);
    let exec = protocol.execute_on(
        &*transport,
        update_circuit,
        &task.input_shares,
        &OtConfig::extension(),
        &mut traffic,
        &mut rng,
    )?;

    let mut new_state = Vec::with_capacity(block_size);
    let mut outgoing = vec![vec![Vec::new(); block_size]; task.out_slots as usize];
    for (m_idx, member_outputs) in exec.output_shares.iter().enumerate() {
        new_state.push(member_outputs[..state_bits].to_vec());
        for (slot, per_member) in outgoing.iter_mut().enumerate() {
            let start = state_bits + slot * message_bits;
            per_member[m_idx] = member_outputs[start..start + message_bits].to_vec();
        }
    }
    Ok(BlockStepOutcome {
        new_state,
        outgoing,
        counts: exec.counts,
        traffic: traffic.sorted_node_entries(),
    })
}

/// The local real-crypto transfer path: certificates and key material
/// live only in the master's [`StepContext`], which is why real-crypto
/// runs cannot be placed on remote workers.
fn real_crypto_transfer(
    ctx: &StepContext<'_>,
    task: TransferTask,
) -> Result<TransferOutcome, RuntimeError> {
    let mut rng = Xoshiro256::new(task.seed);
    let mut traffic = TrafficAccountant::new();
    let from = NodeId(task.from as usize);
    let to = NodeId(task.to as usize);
    let in_slot = task.in_slot as usize;
    let message_shares: Vec<BitMessage> = task
        .shares
        .iter()
        .map(|bits| BitMessage::from_bits(bits))
        .collect();
    let config = TransferConfig::final_protocol(ctx.message_width, ctx.config.edge_noise_alpha);
    let outcome = transfer_message(
        ctx.group,
        &config,
        from,
        to,
        ctx.setup.block_of(from),
        ctx.setup.block_of(to),
        &message_shares,
        ctx.secrets,
        &ctx.setup.certificates[to.0][in_slot],
        &ctx.secrets[to.0].neighbor_keys[in_slot],
        ctx.dlog.expect("real-crypto mode builds a lookup table"),
        &mut traffic,
        &mut rng,
    )?;
    Ok(TransferOutcome {
        to: task.to,
        in_slot: task.in_slot,
        receiver_shares: outcome
            .receiver_shares
            .iter()
            .map(BitMessage::to_bits)
            .collect(),
        counts: outcome.counts,
        traffic: traffic.sorted_node_entries(),
    })
}

/// Cost-accounted message transfer: moves the shares in plaintext while
/// recording exactly the operation counts and traffic that
/// [`transfer_message`] with [`dstress_transfer::ProtocolVariant::Final`]
/// would generate — including the *measured* wire bytes, reproduced from
/// the closed-form encoded lengths in [`dstress_transfer::wire`].  A unit
/// test pins the two modes against each other field by field.
///
/// This is the only transfer path a remote worker can run: it is a pure
/// function of the task and the group, with no key material.
pub fn execute_accounted_transfer_task(
    group: &Group,
    message_bits: u32,
    task: &TransferTask,
) -> TransferOutcome {
    let mut rng = Xoshiro256::new(task.seed);
    let mut traffic = TrafficAccountant::new();
    let sender_vertex = NodeId(task.from as usize);
    let receiver_vertex = NodeId(task.to as usize);
    let block_size = task.sender_members.len();
    let bits = message_bits as u64;
    let elem_bytes = group.element_bytes() as u64;
    let mut counts = OperationCounts::default();

    // Sub-share encryption: every sender member encrypts k+1 sub-shares of
    // L bits each with a shared ephemeral key.
    for &x_node in &task.sender_members {
        for y in 0..block_size {
            // Shared `c1` through the generator table plus one
            // variable-base pow per bit for the key terms.
            counts.fixed_base_exponentiations += 1;
            counts.exponentiations += bits;
            counts.group_multiplications += bits;
            let bytes = (bits + 1) * elem_bytes;
            traffic.record(x_node, sender_vertex, bytes);
            counts.bytes_sent += bytes;
            let wire =
                dstress_transfer::wire::subshares_wire_len(y, bits as usize, elem_bytes as usize);
            traffic.record_wire(x_node, sender_vertex, wire);
            counts.wire_bytes += wire;
        }
    }
    // Homomorphic aggregation and noise folding at vertex i: one shared
    // `c1` product plus L `c2` products per receiver, then a table-backed
    // noise encoding per bit.
    counts.group_multiplications += (block_size as u64) * (bits + 1) * (block_size as u64 - 1);
    counts.fixed_base_exponentiations += block_size as u64 * bits; // noise encodings
    counts.group_multiplications += block_size as u64 * bits;

    // i -> j.
    let forwarded = block_size as u64 * bits * 2 * elem_bytes;
    traffic.record(sender_vertex, receiver_vertex, forwarded);
    counts.bytes_sent += forwarded;
    let wire =
        dstress_transfer::wire::aggregated_wire_len(block_size, bits as usize, elem_bytes as usize);
    traffic.record_wire(sender_vertex, receiver_vertex, wire);
    counts.wire_bytes += wire;

    // j adjusts, distributes, members decrypt.
    for &y_node in &task.receiver_members {
        let member_bytes = bits * 2 * elem_bytes;
        traffic.record(receiver_vertex, y_node, member_bytes);
        counts.bytes_sent += member_bytes;
        let wire = dstress_transfer::wire::adjusted_wire_len(bits as usize, elem_bytes as usize);
        traffic.record_wire(receiver_vertex, y_node, wire);
        counts.wire_bytes += wire;
        counts.exponentiations += 1; // adjust of the shared ephemeral
        counts.fixed_base_exponentiations += bits; // fused table decrypts
    }
    counts.rounds += 3;

    // Correct, fresh re-sharing of the message for the receiving block.
    let sender_shares: Vec<BitMessage> = task
        .shares
        .iter()
        .map(|bits| BitMessage::from_bits(bits))
        .collect();
    let message = xor_reconstruct(&sender_shares).expect("sender shares are non-empty");
    let receiver_shares = split_xor(message, task.receiver_members.len(), &mut rng);
    TransferOutcome {
        to: task.to,
        in_slot: task.in_slot,
        receiver_shares: receiver_shares.iter().map(BitMessage::to_bits).collect(),
        counts,
        traffic: traffic.sorted_node_entries(),
    }
}
