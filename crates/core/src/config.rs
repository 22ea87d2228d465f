//! Runtime configuration.

use crate::engine::RuntimeError;
use dstress_crypto::group::GroupKind;
use dstress_mpc::GmwBatching;
use dstress_net::pool::default_threads;
use std::path::PathBuf;

/// Round-boundary checkpointing knobs.
///
/// When set on [`DStressConfig::checkpoint`], the engine writes a
/// `Wire`-encoded checkpoint (manifest + packed store segments) into
/// `dir` at every round swap, pruning superseded checkpoints;
/// [`crate::engine::DStressRuntime::resume`] rehydrates from the newest
/// one and continues to a bit-identical final release.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Directory the checkpoint files live in (created on first write).
    pub dir: PathBuf,
}

impl CheckpointConfig {
    /// Checkpoints into `dir` at every round swap.
    pub fn every_round(dir: PathBuf) -> Self {
        CheckpointConfig { dir }
    }
}

/// How the communication steps execute their cryptography.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferMode {
    /// Run the full ElGamal message transfer protocol (encryption,
    /// homomorphic aggregation, adjustment, decryption).  This is the
    /// faithful mode used by tests and the transfer microbenchmarks.
    RealCrypto,
    /// Move the shares in plaintext while *accounting* exactly the
    /// operation counts and traffic the real protocol would generate.
    /// Large end-to-end simulations (Figure 5 and beyond) use this mode so
    /// that wall-clock time stays manageable; a unit test pins the counts
    /// of the two modes against each other.
    Accounted,
}

/// Which [`dstress_net::Transport`] backend carries the GMW messages of
/// every block MPC (computation steps, aggregation, noising).
///
/// Both backends are bit-identical in outputs, operation counts and
/// measured `wire_bytes` — the determinism suite pins this — so the knob only changes *how* the messages move: through in-process
/// queues, or over real loopback TCP connections with length-prefixed
/// frames.  `Socket` is what a [`crate::exec::StepExecutor`] deployment
/// worker uses so its node actors exchange bytes over real connections.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// The deterministic in-process queue backend
    /// ([`dstress_net::SimTransport`]).
    #[default]
    Sim,
    /// Real TCP loopback connections with length-prefixed frames
    /// ([`dstress_net::SocketTransport`]).
    Socket,
}

/// How the runtime schedules the independent blocks of a phase.
///
/// A DStress deployment runs every block's MPC *concurrently* — per-node
/// cost, not summed cost, is what the paper's wall-clock figures report.
/// `Threaded` reproduces that: the computation steps of a round (one GMW
/// per vertex) and the message transfers of a round are independent
/// tasks, sharded across a worker pool.  Results are bit-identical to
/// `Sequential` — every task draws from its own deterministically derived
/// seed and accounts into its own counters, merged in task order at phase
/// end — so the knob only changes wall-clock, never outputs.
///
/// ## Example
///
/// ```
/// use dstress_core::config::ConcurrencyMode;
///
/// assert_eq!(ConcurrencyMode::Sequential.worker_threads(), 1);
/// assert_eq!(ConcurrencyMode::Threaded { threads: 8 }.worker_threads(), 8);
/// assert!(ConcurrencyMode::threaded().worker_threads() >= 1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConcurrencyMode {
    /// Execute blocks one after another on the calling thread (the
    /// deterministic reference schedule).
    Sequential,
    /// Shard independent block executions across a worker pool of the
    /// given size.
    Threaded {
        /// Worker count (values below one are treated as one).
        threads: usize,
    },
}

impl ConcurrencyMode {
    /// `Threaded` with one worker per available core
    /// ([`std::thread::available_parallelism`]).
    pub fn threaded() -> Self {
        ConcurrencyMode::Threaded {
            threads: default_threads(),
        }
    }

    /// The worker-pool size this mode implies (1 for `Sequential`).
    pub fn worker_threads(&self) -> usize {
        match *self {
            ConcurrencyMode::Sequential => 1,
            ConcurrencyMode::Threaded { threads } => threads.max(1),
        }
    }
}

/// Configuration of a DStress execution.
#[derive(Clone, Debug)]
pub struct DStressConfig {
    /// Collusion bound `k`; every block has `k + 1` members.
    pub collusion_bound: usize,
    /// Message width `L` in bits (the prototype used 12-bit shares).  Not
    /// read by the engine: the program's `message_bits()` decides.
    pub message_bits: u32,
    /// Output-privacy budget ε for the Laplace mechanism.
    pub epsilon: f64,
    /// Edge-privacy noise parameter α of the transfer protocol
    /// (Appendix B); values close to 1 add more noise.
    pub edge_noise_alpha: f64,
    /// Half-width of the signed discrete-log window used to decrypt the
    /// noised bit sums (the paper's `N_l / 2`).
    pub dlog_window: u64,
    /// Which ElGamal group to instantiate.
    pub group: GroupKind,
    /// Whether communication steps run real cryptography or cost-accounted
    /// plaintext sharing.
    pub transfer_mode: TransferMode,
    /// How the independent blocks of a phase are scheduled.
    pub concurrency: ConcurrencyMode,
    /// Which transport backend carries the GMW messages of every block
    /// MPC.  `Sim` is the in-process default; `Socket` moves the same
    /// messages over real TCP loopback connections, bit-identically.
    pub transport: TransportKind,
    /// How the block MPCs group their AND-gate OTs into messages
    /// (layer-batched by default; per-gate kept for A/B round
    /// measurements).  Both modes are bit-identical in outputs and
    /// traffic; only the measured round counts differ.
    pub gmw_batching: GmwBatching,
    /// Seed for all randomness in the run (setup, sharing, noise).
    pub seed: u64,
    /// Byte budget for the resident share state (vertex state plus both
    /// inbox buffers).  When the packed stores would exceed it, the
    /// engine switches to the spilling backend and pages row segments to
    /// disk so resident store bytes stay within the budget.  `None`
    /// (the default) keeps everything in memory.
    pub state_budget_bytes: Option<usize>,
    /// Base directory for the run-scoped spill directory (removed when
    /// the run finishes, even on error).  `None` uses the system temp
    /// directory.
    pub spill_dir: Option<PathBuf>,
    /// Round-boundary checkpointing; `None` (the default) writes no
    /// checkpoints.
    pub checkpoint: Option<CheckpointConfig>,
    /// Abort the run right after checkpointing the given round swap with
    /// [`crate::engine::RuntimeError::Halted`] — the crash-injection
    /// hook the kill-and-resume tests (and the deployment drill) use.
    /// Needs [`Self::checkpoint`]: a run that sets this without it is
    /// refused before any setup work ([`Self::check_halt`]).
    pub halt_after_round: Option<u64>,
}

impl DStressConfig {
    /// A configuration suitable for tests and examples: small blocks, the
    /// fast simulation group, real cryptography everywhere.
    pub fn small_test(collusion_bound: usize) -> Self {
        DStressConfig {
            collusion_bound,
            message_bits: 12,
            epsilon: 0.23,
            edge_noise_alpha: 0.5,
            dlog_window: 2_000,
            group: GroupKind::Sim64,
            transfer_mode: TransferMode::RealCrypto,
            concurrency: ConcurrencyMode::Sequential,
            transport: TransportKind::Sim,
            gmw_batching: GmwBatching::Layered,
            seed: 0xD57E55,
            state_budget_bytes: None,
            spill_dir: None,
            checkpoint: None,
            halt_after_round: None,
        }
    }

    /// A configuration for larger benchmark runs: cost-accounted transfers
    /// so that wall-clock time stays proportional to the MPC work.
    pub fn benchmark(collusion_bound: usize) -> Self {
        DStressConfig {
            transfer_mode: TransferMode::Accounted,
            ..DStressConfig::small_test(collusion_bound)
        }
    }

    /// The block size `k + 1`.
    pub fn block_size(&self) -> usize {
        self.collusion_bound + 1
    }

    /// Switches the configuration to the given concurrency mode.
    pub fn with_concurrency(mut self, concurrency: ConcurrencyMode) -> Self {
        self.concurrency = concurrency;
        self
    }

    /// Switches the GMW AND-gate batching mode.
    pub fn with_gmw_batching(mut self, batching: GmwBatching) -> Self {
        self.gmw_batching = batching;
        self
    }

    /// Switches the transport backend carrying the GMW messages.
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Bounds the resident share state to `budget_bytes`, spilling row
    /// segments to disk past it.
    pub fn with_state_budget(mut self, budget_bytes: usize) -> Self {
        self.state_budget_bytes = Some(budget_bytes);
        self
    }

    /// Places the run-scoped spill directory under `dir` instead of the
    /// system temp directory.
    pub fn with_spill_dir(mut self, dir: PathBuf) -> Self {
        self.spill_dir = Some(dir);
        self
    }

    /// Enables round-boundary checkpointing.
    pub fn with_checkpoint(mut self, checkpoint: CheckpointConfig) -> Self {
        self.checkpoint = Some(checkpoint);
        self
    }

    /// Injects a crash right after the given round's checkpoint.
    pub fn with_halt_after_round(mut self, round: u64) -> Self {
        self.halt_after_round = Some(round);
        self
    }

    /// Checks that a halt has somewhere to halt into: a halt promises a
    /// resumable checkpoint on disk, and without a checkpoint directory
    /// there would be none to resume from.  The engine runs this before
    /// any setup work, and a deployment master before it waits for its
    /// fleet.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Checkpoint`] when [`Self::halt_after_round`] is set
    /// and [`Self::checkpoint`] is not.
    pub fn check_halt(&self) -> Result<(), RuntimeError> {
        if self.halt_after_round.is_some() && self.checkpoint.is_none() {
            return Err(RuntimeError::Checkpoint {
                context: "halt_after_round needs a checkpoint directory to halt into".to_string(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        let t = DStressConfig::small_test(3);
        assert_eq!(t.block_size(), 4);
        assert_eq!(t.transfer_mode, TransferMode::RealCrypto);
        assert_eq!(t.group, GroupKind::Sim64);
        let b = DStressConfig::benchmark(19);
        assert_eq!(b.block_size(), 20);
        assert_eq!(b.transfer_mode, TransferMode::Accounted);
        assert!(b.epsilon > 0.0);
        assert!(b.edge_noise_alpha > 0.0 && b.edge_noise_alpha < 1.0);
        assert_eq!(b.concurrency, ConcurrencyMode::Sequential);
        assert_eq!(b.transport, TransportKind::Sim);
        assert_eq!(
            b.with_transport(TransportKind::Socket).transport,
            TransportKind::Socket
        );
    }

    #[test]
    fn persistence_knobs_default_off_and_build() {
        let cfg = DStressConfig::small_test(2);
        assert_eq!(cfg.state_budget_bytes, None);
        assert_eq!(cfg.spill_dir, None);
        assert_eq!(cfg.checkpoint, None);
        assert_eq!(cfg.halt_after_round, None);
        let dir = PathBuf::from("/tmp/ckpt");
        let cfg = cfg
            .with_state_budget(4096)
            .with_spill_dir(PathBuf::from("/tmp/spill"))
            .with_checkpoint(CheckpointConfig::every_round(dir.clone()))
            .with_halt_after_round(1);
        assert_eq!(cfg.state_budget_bytes, Some(4096));
        let checkpoint = cfg.checkpoint.expect("set above");
        assert_eq!(checkpoint.dir, dir);
        assert_eq!(cfg.halt_after_round, Some(1));
    }

    #[test]
    fn concurrency_mode_resolves_workers() {
        assert_eq!(ConcurrencyMode::Sequential.worker_threads(), 1);
        assert_eq!(ConcurrencyMode::Threaded { threads: 0 }.worker_threads(), 1);
        assert_eq!(ConcurrencyMode::Threaded { threads: 6 }.worker_threads(), 6);
        assert!(ConcurrencyMode::threaded().worker_threads() >= 1);
        let cfg = DStressConfig::benchmark(2).with_concurrency(ConcurrencyMode::threaded());
        assert_ne!(cfg.concurrency, ConcurrencyMode::Sequential);
    }
}
