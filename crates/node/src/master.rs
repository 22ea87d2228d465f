//! The deployment master: drives the engine, places windows on workers.
//!
//! The master owns the run end to end.  It binds one TCP listener and
//! dispatches every accepted connection by its first byte: a
//! [`FRAME_MAGIC`] byte means a worker speaking the framed
//! [`DeployMsg`] protocol; anything else is
//! served as a hand-rolled HTTP/1.0 status endpoint (`GET /healthz`),
//! so the same port answers both workers and probes.
//!
//! Once the configured fleet has registered, the master sends every
//! worker the same [`JobSpec`] — the run-wide parameters, built from the
//! [`MasterConfig`] and the graph — and runs
//! [`DStressRuntime::execute_with`] over a [`RemoteExecutor`] that routes
//! each window's tasks to workers by `vertex % fleet` (transfers by
//! receiver) and stitches outcomes back in task order.  The block
//! assignment is made once, by the engine's setup; every task carries its
//! block's members, so a worker needs no table of its own.  Placement
//! cannot change results: the loopback integration test pins the
//! deployed run's released value bit-for-bit against the in-process one.
//! The traffic the fleet measures comes back inside the outcomes, which
//! the engine merges into the run record.

use std::io::{Read as IoRead, Write as IoWrite};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dstress_core::engine::RuntimeError;
use dstress_core::store::latest_checkpoint_round;
use dstress_core::{
    BlockStepOutcome, BlockStepTask, CheckpointConfig, CounterProgram, DStressConfig, DStressRun,
    DStressRuntime, StepContext, StepExecutor, TransferMode, TransferOutcome, TransferTask,
    TransportKind,
};
use dstress_finance::generator::{core_periphery, GeneratorConfig};
use dstress_graph::Graph;
use dstress_math::rng::Xoshiro256;
use dstress_net::frame::FRAME_MAGIC;
use dstress_net::socket::FramedConn;
use dstress_net::wire::Wire;

use crate::proto::{DeployMsg, JobSpec, PROTOCOL_VERSION};

/// How long the master waits for the fleet to register.
const REGISTRATION_TIMEOUT: Duration = Duration::from_secs(60);
/// How long the master waits for a worker's batch results (a batch can
/// hold a whole window of block MPCs, so this is generous).
const RESULT_TIMEOUT: Duration = Duration::from_secs(600);
/// How long a single frame send may take to drain.
const SEND_TIMEOUT: Duration = Duration::from_secs(30);

/// Configuration of one master-driven deployment run.
#[derive(Clone, Debug)]
pub struct MasterConfig {
    /// Number of workers that must register before the run starts.
    pub fleet: usize,
    /// Banks (vertices) in the generated core–periphery network.
    pub banks: usize,
    /// Public degree bound of the generated network.
    pub degree_bound: usize,
    /// Counter program word width.
    pub width: u32,
    /// Counter program iteration count.
    pub rounds: u32,
    /// Collusion bound `k`.
    pub collusion_bound: usize,
    /// Engine seed (setup, sharing, noise).
    pub seed: u64,
    /// Seed of the graph generator.
    pub graph_seed: u64,
    /// Transport backend the *workers'* block MPCs run on.  `Socket`
    /// makes every remote block MPC exchange its GMW messages over real
    /// loopback TCP; results are bit-identical either way.
    pub worker_transport: TransportKind,
    /// Directory for round-boundary checkpoints.  When set, the master
    /// checkpoints after every round, and — if the directory already
    /// holds a checkpoint for this run — resumes from it instead of
    /// starting over.
    pub checkpoint_dir: Option<PathBuf>,
    /// Crash injection: stop right after this round's checkpoint is on
    /// disk.  The engine surfaces this as [`RuntimeError::Halted`], and
    /// refuses it as [`RuntimeError::Checkpoint`] without a
    /// `checkpoint_dir`.
    pub halt_after_round: Option<u64>,
}

impl MasterConfig {
    /// A small deployment sized for the loopback integration test.
    pub fn loopback(fleet: usize) -> Self {
        MasterConfig {
            fleet,
            banks: 10,
            degree_bound: 3,
            width: 8,
            rounds: 1,
            collusion_bound: 2,
            seed: 0xD57E55,
            graph_seed: 5,
            worker_transport: TransportKind::Socket,
            checkpoint_dir: None,
            halt_after_round: None,
        }
    }

    /// The engine configuration this deployment runs (and that an
    /// in-process verification run must use to reproduce it).
    pub fn engine_config(&self) -> DStressConfig {
        let mut config = DStressConfig::benchmark(self.collusion_bound);
        config.message_bits = self.width;
        config.seed = self.seed;
        if let Some(dir) = &self.checkpoint_dir {
            config = config.with_checkpoint(CheckpointConfig::every_round(dir.clone()));
        }
        config.halt_after_round = self.halt_after_round;
        config
    }

    /// Generates the run's graph (deterministic in `graph_seed`).
    pub fn build_graph(&self) -> Graph {
        let mut rng = Xoshiro256::new(self.graph_seed);
        let network = core_periphery(
            &GeneratorConfig::small(self.banks, self.degree_bound),
            &mut rng,
        );
        network.graph().clone()
    }
}

/// What the status endpoint reports.
#[derive(Clone, Debug)]
struct MasterStatus {
    phase: &'static str,
    registered: usize,
    fleet: usize,
}

/// Shared handle the accept thread and the run driver both update.
#[derive(Clone)]
pub struct StatusHandle {
    inner: Arc<Mutex<MasterStatus>>,
}

impl StatusHandle {
    fn new(fleet: usize) -> Self {
        StatusHandle {
            inner: Arc::new(Mutex::new(MasterStatus {
                phase: "waiting_for_workers",
                registered: 0,
                fleet,
            })),
        }
    }

    fn set_phase(&self, phase: &'static str) {
        self.inner.lock().unwrap().phase = phase;
    }

    fn set_registered(&self, registered: usize) {
        self.inner.lock().unwrap().registered = registered;
    }

    fn body(&self) -> String {
        let status = self.inner.lock().unwrap();
        format!(
            "{{\"status\":\"{}\",\"workers_registered\":{},\"fleet\":{}}}\n",
            status.phase, status.registered, status.fleet
        )
    }
}

/// Serves one non-worker connection as HTTP/1.0: `GET /healthz` returns
/// the JSON status, anything else 404.  Exposed for unit tests.
pub(crate) fn serve_http(stream: &mut TcpStream, status: &StatusHandle) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut request = [0u8; 512];
    let n = stream.read(&mut request).unwrap_or(0);
    let line = String::from_utf8_lossy(&request[..n]);
    let first = line.lines().next().unwrap_or("");
    let response = if first.starts_with("GET /healthz") {
        let body = status.body();
        format!(
            "HTTP/1.0 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        )
    } else {
        "HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n\r\n".to_string()
    };
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// The accept loop: peeks one byte per connection and routes framed
/// worker connections to the registration channel, everything else to
/// the HTTP handler.  Runs until `running` clears.
fn accept_loop(
    listener: TcpListener,
    workers: std::sync::mpsc::Sender<TcpStream>,
    status: StatusHandle,
    running: Arc<AtomicBool>,
) {
    listener
        .set_nonblocking(true)
        .expect("listener supports nonblocking accept");
    while running.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                let mut first = [0u8; 1];
                match stream.peek(&mut first) {
                    Ok(1) if first[0] == FRAME_MAGIC => {
                        // A worker; the receiver side may be gone after
                        // registration closed, in which case the
                        // connection is simply dropped.
                        let _ = workers.send(stream);
                    }
                    Ok(_) => serve_http(&mut stream, &status),
                    Err(_) => drop(stream),
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

fn deploy_err(context: impl std::fmt::Display) -> RuntimeError {
    RuntimeError::Deploy(context.to_string())
}

/// The registered fleet: framed connections in worker-index order.
pub struct Fleet {
    conns: Mutex<Vec<FramedConn>>,
}

impl Fleet {
    /// Fleet size.
    pub fn len(&self) -> usize {
        self.conns.lock().unwrap().len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Waits for `fleet` workers to register on `incoming`.
    fn register(incoming: &Receiver<TcpStream>, fleet: usize) -> Result<Fleet, RuntimeError> {
        let mut conns = Vec::with_capacity(fleet);
        while conns.len() < fleet {
            let stream = match incoming.recv_timeout(REGISTRATION_TIMEOUT) {
                Ok(stream) => stream,
                Err(RecvTimeoutError::Timeout) => {
                    return Err(deploy_err(format!(
                        "registration timed out with {}/{fleet} workers",
                        conns.len()
                    )))
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(deploy_err("accept loop terminated during registration"))
                }
            };
            let mut conn = FramedConn::with_peer(stream, conns.len()).map_err(deploy_err)?;
            match conn.recv_msg::<DeployMsg>(SEND_TIMEOUT) {
                Ok(DeployMsg::Register { version }) if version == PROTOCOL_VERSION => {
                    conns.push(conn);
                }
                Ok(DeployMsg::Register { version }) => {
                    return Err(deploy_err(format!(
                        "worker speaks protocol version {version}, master speaks {PROTOCOL_VERSION}"
                    )));
                }
                Ok(other) => {
                    return Err(deploy_err(format!(
                        "expected Register as the first frame, got {other:?}"
                    )));
                }
                // A connection that never completes registration is
                // dropped without poisoning the fleet; the next accepted
                // worker takes its slot.
                Err(_) => drop(conn),
            }
        }
        Ok(Fleet {
            conns: Mutex::new(conns),
        })
    }

    /// Sends `message` to worker `w` and drains the frame.
    fn send(conns: &mut [FramedConn], w: usize, message: &DeployMsg) -> Result<(), RuntimeError> {
        conns[w]
            .send_msg(message)
            .and_then(|_| conns[w].flush_blocking(SEND_TIMEOUT))
            .map_err(|e| deploy_err(format!("send to worker {w}: {e}")))
    }

    /// Receives one frame from worker `w`.
    fn recv(
        conns: &mut [FramedConn],
        w: usize,
        timeout: Duration,
    ) -> Result<DeployMsg, RuntimeError> {
        conns[w]
            .recv_msg::<DeployMsg>(timeout)
            .map_err(|e| deploy_err(format!("receive from worker {w}: {e}")))
    }

    /// Sends every worker the run's job description.
    fn send_job(&self, job: &JobSpec) -> Result<(), RuntimeError> {
        let mut conns = self.conns.lock().unwrap();
        let message = DeployMsg::Job(job.clone());
        for w in 0..conns.len() {
            Fleet::send(&mut conns, w, &message)?;
        }
        Ok(())
    }

    /// Ships one window's tasks to the fleet and stitches the outcomes
    /// back in task order.  `route` picks the hosting worker; every
    /// worker with a non-empty batch is sent its tasks first, then
    /// results are collected — so the fleet computes concurrently.
    fn round_trip<T: Wire + Clone, O>(
        &self,
        tasks: Vec<T>,
        route: impl Fn(&T) -> usize,
        wrap: impl Fn(Vec<T>) -> DeployMsg,
        unwrap: impl Fn(DeployMsg) -> Result<Vec<O>, RuntimeError>,
    ) -> Result<Vec<O>, RuntimeError> {
        let mut conns = self.conns.lock().unwrap();
        let fleet = conns.len();
        let mut batches: Vec<Vec<T>> = vec![Vec::new(); fleet];
        let mut order = Vec::with_capacity(tasks.len());
        for task in tasks {
            let w = route(&task) % fleet.max(1);
            order.push(w);
            batches[w].push(task);
        }
        let sizes: Vec<usize> = batches.iter().map(Vec::len).collect();
        for (w, batch) in batches.into_iter().enumerate() {
            if !batch.is_empty() {
                Fleet::send(&mut conns, w, &wrap(batch))?;
            }
        }
        let mut results: Vec<std::vec::IntoIter<O>> = Vec::with_capacity(fleet);
        for (w, &size) in sizes.iter().enumerate() {
            if size == 0 {
                results.push(Vec::new().into_iter());
                continue;
            }
            let outcomes = unwrap(Fleet::recv(&mut conns, w, RESULT_TIMEOUT)?)?;
            if outcomes.len() != size {
                return Err(deploy_err(format!(
                    "worker {w} returned {} outcomes for {size} tasks",
                    outcomes.len()
                )));
            }
            results.push(outcomes.into_iter());
        }
        order
            .into_iter()
            .map(|w| {
                results[w]
                    .next()
                    .ok_or_else(|| deploy_err(format!("worker {w} batch underflow")))
            })
            .collect()
    }

    /// Tells every worker the run is over and waits until each has
    /// acknowledged with its own `Finish`.
    fn finish(&self) -> Result<(), RuntimeError> {
        let mut conns = self.conns.lock().unwrap();
        let fleet = conns.len();
        for w in 0..fleet {
            Fleet::send(&mut conns, w, &DeployMsg::Finish)?;
        }
        for w in 0..fleet {
            match Fleet::recv(&mut conns, w, SEND_TIMEOUT)? {
                DeployMsg::Finish => {}
                other => {
                    return Err(deploy_err(format!(
                        "expected Finish from worker {w}, got {other:?}"
                    )))
                }
            }
        }
        Ok(())
    }
}

/// A [`StepExecutor`] that places every window on the registered fleet.
pub struct RemoteExecutor<'f> {
    fleet: &'f Fleet,
}

impl StepExecutor for RemoteExecutor<'_> {
    fn run_block_steps(
        &self,
        _ctx: &StepContext<'_>,
        tasks: Vec<BlockStepTask>,
    ) -> Result<Vec<BlockStepOutcome>, RuntimeError> {
        self.fleet.round_trip(
            tasks,
            |task| task.vertex as usize,
            DeployMsg::BlockSteps,
            |message| match message {
                DeployMsg::BlockStepResults(outcomes) => Ok(outcomes),
                other => Err(deploy_err(format!(
                    "expected BlockStepResults, got {other:?}"
                ))),
            },
        )
    }

    fn run_transfers(
        &self,
        ctx: &StepContext<'_>,
        tasks: Vec<TransferTask>,
    ) -> Result<Vec<TransferOutcome>, RuntimeError> {
        if ctx.config.transfer_mode == TransferMode::RealCrypto {
            // Certificates and per-node secrets never leave the master,
            // so real-crypto transfers cannot be placed remotely.
            return Err(deploy_err(
                "real-crypto transfers are local-only; deploy with TransferMode::Accounted",
            ));
        }
        self.fleet.round_trip(
            tasks,
            |task| task.to as usize,
            DeployMsg::Transfers,
            |message| match message {
                DeployMsg::TransferResults(outcomes) => Ok(outcomes),
                other => Err(deploy_err(format!(
                    "expected TransferResults, got {other:?}"
                ))),
            },
        )
    }
}

/// The record of one deployed run.
pub struct MasterReport {
    /// The engine's run record (noised output, phases, merged traffic,
    /// the fleet's share included).
    pub run: DStressRun,
}

/// Runs one deployment end to end on an already-bound listener: accept
/// workers, register the fleet, drive the engine through a
/// [`RemoteExecutor`], then tell the fleet to finish.
///
/// # Errors
///
/// Returns a [`RuntimeError`] if the fleet is empty, registration times
/// out, a worker connection fails mid-run, or the engine itself errors.
pub fn run_master(
    config: &MasterConfig,
    listener: TcpListener,
) -> Result<MasterReport, RuntimeError> {
    if config.fleet == 0 {
        return Err(deploy_err("a deployment needs at least one worker"));
    }
    // Refused here, before any worker is waited for.
    config.engine_config().check_halt()?;
    let status = StatusHandle::new(config.fleet);
    let running = Arc::new(AtomicBool::new(true));
    let (sender, receiver) = channel();
    let accept_handle = {
        let status = status.clone();
        let running = Arc::clone(&running);
        std::thread::spawn(move || accept_loop(listener, sender, status, running))
    };

    let result = run_master_inner(config, &receiver, &status);

    running.store(false, Ordering::Relaxed);
    drop(receiver);
    let _ = accept_handle.join();
    result
}

fn run_master_inner(
    config: &MasterConfig,
    incoming: &Receiver<TcpStream>,
    status: &StatusHandle,
) -> Result<MasterReport, RuntimeError> {
    let graph = config.build_graph();
    let fleet = Fleet::register(incoming, config.fleet)?;
    status.set_registered(fleet.len());
    status.set_phase("running");

    let runtime = DStressRuntime::new(config.engine_config());
    fleet.send_job(&JobSpec {
        width: config.width,
        degree_bound: graph.degree_bound() as u32,
        transport: config.worker_transport,
        group: runtime.config().group,
    })?;

    let program = CounterProgram {
        width: config.width,
        rounds: config.rounds,
    };
    let executor = RemoteExecutor { fleet: &fleet };
    // Resume when the checkpoint directory already holds a round; the
    // engine validates the manifest's run fingerprint, so a foreign
    // checkpoint is a typed error rather than a wrong answer.
    let resume = match &config.checkpoint_dir {
        Some(dir) => latest_checkpoint_round(dir)?.is_some(),
        None => false,
    };
    let run = if resume {
        runtime.resume_with(&graph, &program, &executor)?
    } else {
        runtime.execute_with(&graph, &program, &executor)?
    };

    fleet.finish()?;
    status.set_phase("done");
    Ok(MasterReport { run })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthz_serves_status_and_404() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let status = StatusHandle::new(3);
        status.set_registered(2);
        let server = std::thread::spawn(move || {
            for _ in 0..2 {
                let (mut stream, _) = listener.accept().unwrap();
                serve_http(&mut stream, &status);
            }
        });

        let mut probe = TcpStream::connect(addr).unwrap();
        probe.write_all(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        probe.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
        assert!(response.contains("\"status\":\"waiting_for_workers\""));
        assert!(response.contains("\"workers_registered\":2"));
        assert!(response.contains("\"fleet\":3"));

        let mut probe = TcpStream::connect(addr).unwrap();
        probe.write_all(b"GET /other HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        probe.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 404"), "{response}");
        server.join().unwrap();
    }

    #[test]
    fn an_empty_fleet_is_refused_before_the_run() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        match run_master(&MasterConfig::loopback(0), listener) {
            Err(RuntimeError::Deploy(context)) => assert!(context.contains("at least one worker")),
            Err(other) => panic!("expected a deploy error, got {other:?}"),
            Ok(_) => panic!("an empty fleet ran"),
        }
    }

    #[test]
    fn a_halt_without_a_checkpoint_directory_is_refused_before_the_fleet() {
        // No worker ever connects: the refusal cannot wait for one.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut config = MasterConfig::loopback(2);
        config.halt_after_round = Some(0);
        let started = std::time::Instant::now();
        match run_master(&config, listener) {
            Err(RuntimeError::Checkpoint { context }) => {
                assert!(context.contains("checkpoint directory"), "{context}")
            }
            Err(other) => panic!("expected a checkpoint error, got {other:?}"),
            Ok(_) => panic!("a halt without a checkpoint directory ran"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "refused after {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn engine_config_threads_checkpoint_knobs() {
        let mut config = MasterConfig::loopback(2);
        assert!(config.engine_config().checkpoint.is_none());
        assert!(config.engine_config().halt_after_round.is_none());

        config.checkpoint_dir = Some(PathBuf::from("/tmp/ckpt"));
        config.halt_after_round = Some(0);
        let engine = config.engine_config();
        let checkpoint = engine.checkpoint.expect("checkpoint config is threaded");
        assert_eq!(checkpoint.dir, PathBuf::from("/tmp/ckpt"));
        assert_eq!(engine.halt_after_round, Some(0));
    }

    #[test]
    fn registration_refuses_a_worker_of_the_previous_protocol_version() {
        // A worker built before the byte layouts changed speaks the
        // previous version; its Register must be refused, naming both versions, before any
        // of its frames could be misread.
        let (sender, receiver) = channel();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || listener.accept().unwrap().0);
        let mut worker = FramedConn::new(TcpStream::connect(addr).unwrap()).unwrap();
        let old = PROTOCOL_VERSION - 1;
        worker
            .send_msg(&DeployMsg::Register { version: old })
            .and_then(|_| worker.flush_blocking(SEND_TIMEOUT))
            .unwrap();
        sender.send(server.join().unwrap()).unwrap();
        let Err(err) = Fleet::register(&receiver, 1) else {
            panic!("registration accepted a version-{old} worker");
        };
        assert_eq!(
            err.to_string(),
            format!(
                "deployment error: worker speaks protocol version {old}, \
                 master speaks {PROTOCOL_VERSION}"
            )
        );
        // Version 3 carried the block table and the Report frame: (2, 3).
        assert_eq!((old, PROTOCOL_VERSION), (3, 4));
    }

    #[test]
    fn registration_rejects_peer_that_never_registers() {
        // A peer that sends the frame magic but hangs up before a full
        // Register frame is dropped (torn frame); with no replacement
        // arriving the channel disconnect surfaces as a typed error, not
        // a hang.
        let (sender, receiver) = channel();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || listener.accept().unwrap().0);
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&[FRAME_MAGIC]).unwrap();
        drop(stream);
        let accepted = server.join().unwrap();
        sender.send(accepted).unwrap();
        drop(sender);
        let Err(err) = Fleet::register(&receiver, 1) else {
            panic!("registration accepted a torn peer");
        };
        assert!(matches!(err, RuntimeError::Deploy(_)), "{err}");
    }
}
