//! The deployment worker: `dstress-node`'s task-execution loop.
//!
//! A worker is a deterministic function of its [`JobSpec`] and the task
//! stream: it connects to the master, registers, rebuilds the program
//! circuit from the job parameters, and then executes every well-formed
//! batch it is sent — whatever vertices and blocks its tasks name — with
//! the engine's own entry points
//! ([`dstress_core::exec::execute_block_steps`],
//! [`dstress_core::exec::execute_accounted_transfer_task`]) — so the
//! outcomes it returns are bit-for-bit what the master's in-process
//! pool would have computed.  With `TransportKind::Socket` in the job,
//! every block MPC the worker runs exchanges its GMW messages between
//! the block's node actors over real loopback TCP connections: one mesh
//! per pool lane and batch, the lane's block MPCs multiplexed over it.
//!
//! The worker keeps no state across batches: the per-node traffic it
//! measures travels back inside each outcome, and it acknowledges the
//! master's `Finish` once every batch is answered.

use std::net::TcpStream;
use std::time::Duration;

use dstress_core::exec::{execute_accounted_transfer_task, execute_block_steps};
use dstress_core::{CounterProgram, SecureVertexProgram, TransferTask};
use dstress_crypto::group::Group;
use dstress_mpc::GmwBatching;
use dstress_net::pool::default_threads;
use dstress_net::socket::FramedConn;

use crate::proto::{DeployMsg, JobSpec, PROTOCOL_VERSION};

/// How long the worker waits for the next batch.  The master can spend
/// a long stretch on phases it runs locally (init, aggregation), so the
/// idle window is generous; a vanished master still ends the worker
/// with a typed error rather than a hang.
const BATCH_TIMEOUT: Duration = Duration::from_secs(600);
/// Send-side drain deadline per frame.
const SEND_TIMEOUT: Duration = Duration::from_secs(30);

/// One worker session: connect, register, execute batches until
/// `Finish`, acknowledge it, close.
///
/// # Errors
///
/// Returns a description of the first connection, protocol, or
/// execution failure; the binary surfaces it on stderr with a non-zero
/// exit.
pub fn run_worker(master: &str) -> Result<(), String> {
    let stream =
        TcpStream::connect(master).map_err(|e| format!("connect to master {master}: {e}"))?;
    let mut conn = FramedConn::new(stream).map_err(|e| format!("frame setup: {e}"))?;
    conn.send_msg(&DeployMsg::Register {
        version: PROTOCOL_VERSION,
    })
    .and_then(|_| conn.flush_blocking(SEND_TIMEOUT))
    .map_err(|e| format!("register: {e}"))?;

    let job = match conn
        .recv_msg::<DeployMsg>(SEND_TIMEOUT)
        .map_err(|e| format!("receive job: {e}"))?
    {
        DeployMsg::Job(spec) => spec,
        other => return Err(format!("expected Job after Register, got {other:?}")),
    };
    serve_job(&mut conn, &job)
}

/// Checks the shape of a transfer task before it reaches
/// [`execute_accounted_transfer_task`], which treats these as internal
/// invariants and panics on them: frames are outside input, so a
/// malformed task must end the session with an error instead.
fn check_transfer_shape(task: &TransferTask, width: u32) -> Result<(), String> {
    let edge = task.edge_index;
    if task.sender_members.is_empty() || task.receiver_members.is_empty() {
        return Err(format!(
            "transfer {edge} has an empty sender or receiver block"
        ));
    }
    if task.shares.len() != task.sender_members.len() {
        return Err(format!(
            "transfer {edge} carries {} shares for {} sender members",
            task.shares.len(),
            task.sender_members.len()
        ));
    }
    if let Some(share) = task.shares.iter().find(|s| s.len() != width as usize) {
        return Err(format!(
            "transfer {edge} carries a {}-bit share; the job's messages are {width} bits",
            share.len()
        ));
    }
    Ok(())
}

/// The batch loop for one received job.
fn serve_job(conn: &mut FramedConn, job: &JobSpec) -> Result<(), String> {
    if !(1..=64).contains(&job.width) {
        return Err(format!("job width {} is outside 1..=64 bits", job.width));
    }
    // The update circuit does not read the iteration count.
    let program = CounterProgram {
        width: job.width,
        rounds: 0,
    };
    let update_circuit = program.update_circuit(job.degree_bound as usize);
    let state_bits = program.state_bits() as usize;
    let message_bits = program.message_bits() as usize;
    let group = Group::new(job.group);
    let threads = default_threads();

    loop {
        let batch = conn
            .recv_msg::<DeployMsg>(BATCH_TIMEOUT)
            .map_err(|e| format!("receive batch: {e}"))?;
        let reply = match batch {
            DeployMsg::BlockSteps(tasks) => {
                for task in &tasks {
                    // The update circuit has one message slot per possible
                    // out-edge; the outcome is cut from its outputs.
                    if task.out_slots > u64::from(job.degree_bound) {
                        return Err(format!(
                            "vertex {} asks for {} message slots; the degree bound is {}",
                            task.vertex, task.out_slots, job.degree_bound
                        ));
                    }
                }
                let outcomes = execute_block_steps(
                    &update_circuit,
                    GmwBatching::Layered,
                    job.transport,
                    state_bits,
                    message_bits,
                    tasks,
                    threads,
                );
                let outcomes = outcomes.map_err(|e| format!("block step failed: {e}"))?;
                DeployMsg::BlockStepResults(outcomes)
            }
            DeployMsg::Transfers(tasks) => {
                for task in &tasks {
                    check_transfer_shape(task, job.width)?;
                }
                // An accounted transfer is bookkeeping — about a
                // microsecond, against tens of microseconds to start a
                // helper thread — so the batch runs on this thread, as
                // `LocalExecutor::run_transfers` runs it.
                let outcomes: Vec<_> = tasks
                    .iter()
                    .map(|task| execute_accounted_transfer_task(&group, job.width, task))
                    .collect();
                DeployMsg::TransferResults(outcomes)
            }
            DeployMsg::Finish => DeployMsg::Finish,
            other => return Err(format!("unexpected batch frame: {other:?}")),
        };
        conn.send_msg(&reply)
            .and_then(|_| conn.flush_blocking(SEND_TIMEOUT))
            .map_err(|e| format!("send reply: {e}"))?;
        if reply == DeployMsg::Finish {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstress_core::exec::execute_block_step_task;
    use dstress_core::{BlockStepTask, TransportKind};
    use dstress_crypto::group::GroupKind;
    use dstress_math::rng::{DetRng, Xoshiro256};
    use dstress_net::traffic::NodeId;
    use std::net::TcpListener;

    fn block() -> Vec<NodeId> {
        vec![NodeId(0), NodeId(1), NodeId(2)]
    }

    fn job() -> JobSpec {
        JobSpec {
            width: 8,
            degree_bound: 2,
            transport: TransportKind::Sim,
            group: GroupKind::Sim64,
        }
    }

    /// A well-formed transfer into vertex 0.
    fn transfer() -> TransferTask {
        TransferTask {
            edge_index: 5,
            seed: 1,
            from: 1,
            to: 0,
            in_slot: 0,
            sender_members: block(),
            receiver_members: block(),
            shares: vec![vec![true; 8]; 3],
        }
    }

    /// Plays the master over a loopback connection: sends `batch` as the
    /// job's first frame and returns how the worker's session ends.  A
    /// task that trips an executor assert panics here (the pool re-raises
    /// it on the calling thread) instead of returning.
    fn serve(job: &JobSpec, batch: DeployMsg) -> Result<(), String> {
        let (mut master, mut worker) = connected_pair();
        master.send_msg(&batch).unwrap();
        master.flush_blocking(SEND_TIMEOUT).unwrap();
        serve_job(&mut worker, job)
    }

    /// A master's and a worker's end of one loopback connection.
    fn connected_pair() -> (FramedConn, FramedConn) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let master = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let master = FramedConn::new(master).unwrap();
        let worker = FramedConn::new(listener.accept().unwrap().0).unwrap();
        (master, worker)
    }

    /// Plays the master over a loopback connection: sends every batch
    /// and then `Finish`, runs the worker's session to its end, and
    /// returns the worker's replies — the last one its `Finish`.
    fn replies(job: &JobSpec, batches: Vec<DeployMsg>) -> Vec<DeployMsg> {
        let (mut master, mut worker) = connected_pair();
        let count = batches.len() + 1;
        for message in batches.into_iter().chain([DeployMsg::Finish]) {
            master.send_msg(&message).unwrap();
            master.flush_blocking(SEND_TIMEOUT).unwrap();
        }
        serve_job(&mut worker, job).unwrap();
        let replies: Vec<DeployMsg> = (0..count)
            .map(|_| master.recv_msg::<DeployMsg>(SEND_TIMEOUT).unwrap())
            .collect();
        assert_eq!(replies.last(), Some(&DeployMsg::Finish));
        replies
    }

    #[test]
    fn transfer_without_shares_is_an_error_not_a_panic() {
        let task = TransferTask {
            shares: Vec::new(),
            ..transfer()
        };
        let err = serve(&job(), DeployMsg::Transfers(vec![task])).unwrap_err();
        assert!(err.contains("0 shares for 3 sender members"), "{err}");
    }

    #[test]
    fn transfer_share_of_the_wrong_width_is_an_error_not_a_panic() {
        for bits in [0, 7, 65] {
            let mut task = transfer();
            task.shares[1] = vec![false; bits];
            let err = serve(&job(), DeployMsg::Transfers(vec![task])).unwrap_err();
            assert!(err.contains(&format!("a {bits}-bit share")), "{err}");
        }
    }

    #[test]
    fn transfer_with_no_sender_members_is_an_error_not_a_panic() {
        let task = TransferTask {
            sender_members: Vec::new(),
            shares: Vec::new(),
            ..transfer()
        };
        let err = serve(&job(), DeployMsg::Transfers(vec![task])).unwrap_err();
        assert!(err.contains("empty sender or receiver block"), "{err}");
    }

    #[test]
    fn transfer_with_no_receiver_members_is_an_error_not_a_panic() {
        let task = TransferTask {
            receiver_members: Vec::new(),
            ..transfer()
        };
        let err = serve(&job(), DeployMsg::Transfers(vec![task])).unwrap_err();
        assert!(err.contains("empty sender or receiver block"), "{err}");
    }

    #[test]
    fn block_step_with_too_many_out_slots_is_an_error_not_a_panic() {
        // State word plus one message word per in-edge slot.
        let inputs = 8 * (1 + 2);
        let task = BlockStepTask {
            vertex: 0,
            seed: 9,
            members: block(),
            out_slots: 3,
            input_shares: vec![vec![false; inputs]; 3],
        };
        let err = serve(&job(), DeployMsg::BlockSteps(vec![task])).unwrap_err();
        assert!(
            err.contains("3 message slots; the degree bound is 2"),
            "{err}"
        );
    }

    #[test]
    fn job_width_outside_the_share_range_is_an_error_not_a_panic() {
        for width in [0, 65] {
            let job = JobSpec { width, ..job() };
            let err = serve(&job, DeployMsg::Finish).unwrap_err();
            assert!(err.contains("outside 1..=64"), "{err}");
        }
    }

    /// Random input shares for every member of a block running `circuit`.
    fn input_shares(
        circuit: &dstress_circuit::Circuit,
        members: usize,
        rng: &mut dyn DetRng,
    ) -> Vec<Vec<bool>> {
        (0..members)
            .map(|_| (0..circuit.num_inputs()).map(|_| rng.next_bool()).collect())
            .collect()
    }

    /// The update circuit and share widths a worker builds for `job`.
    fn update_circuit(job: &JobSpec) -> (dstress_circuit::Circuit, usize, usize) {
        let program = CounterProgram {
            width: job.width,
            rounds: 0,
        };
        (
            program.update_circuit(job.degree_bound as usize),
            program.state_bits() as usize,
            program.message_bits() as usize,
        )
    }

    #[test]
    fn a_worker_runs_any_well_formed_task() {
        // Neither the vertex, its block, nor the transfer's receiver is
        // named by the job: a worker takes whatever well-formed task it is
        // sent, and its outcomes are the engine's task-level entry points'.
        let job = job();
        let (circuit, state_bits, message_bits) = update_circuit(&job);
        let mut rng = Xoshiro256::new(0xA11);
        let members = vec![NodeId(41), NodeId(7), NodeId(19)];
        let step = BlockStepTask {
            vertex: 41,
            seed: rng.next_u64(),
            members: members.clone(),
            out_slots: 2,
            input_shares: input_shares(&circuit, members.len(), &mut rng),
        };
        let transfer = TransferTask {
            edge_index: 12,
            seed: rng.next_u64(),
            from: 41,
            to: 23,
            in_slot: 1,
            sender_members: members,
            receiver_members: vec![NodeId(23), NodeId(2), NodeId(9)],
            shares: (0..3)
                .map(|_| (0..job.width).map(|_| rng.next_bool()).collect())
                .collect(),
        };
        let expected_step = execute_block_step_task(
            &circuit,
            GmwBatching::Layered,
            job.transport,
            state_bits,
            message_bits,
            step.clone(),
        )
        .unwrap();
        let expected_transfer =
            execute_accounted_transfer_task(&Group::new(job.group), job.width, &transfer);

        let replies = replies(
            &job,
            vec![
                DeployMsg::BlockSteps(vec![step]),
                DeployMsg::Transfers(vec![transfer]),
            ],
        );
        assert_eq!(replies[0], DeployMsg::BlockStepResults(vec![expected_step]));
        assert_eq!(
            replies[1],
            DeployMsg::TransferResults(vec![expected_transfer])
        );
    }

    #[test]
    fn a_batch_that_rolls_sessions_over_equals_the_per_task_door() {
        // Every lane keeps 8 block MPCs in flight on its session; 20 tasks
        // per lane (and 3 to make the lanes uneven) roll each lane's
        // session over into a third sub-batch.
        let tasks_in_batch = default_threads() * 20 + 3;
        let job = JobSpec {
            transport: TransportKind::Socket,
            ..job()
        };
        let (circuit, state_bits, message_bits) = update_circuit(&job);
        let mut rng = Xoshiro256::new(0x5E55);
        let tasks: Vec<BlockStepTask> = (0..tasks_in_batch as u64)
            .map(|vertex| BlockStepTask {
                vertex,
                seed: rng.next_u64(),
                members: (0..3).map(|m| NodeId(vertex as usize + m)).collect(),
                out_slots: vertex % 3,
                input_shares: input_shares(&circuit, 3, &mut rng),
            })
            .collect();
        let expected: Vec<_> = tasks
            .iter()
            .map(|task| {
                execute_block_step_task(
                    &circuit,
                    GmwBatching::Layered,
                    TransportKind::Sim,
                    state_bits,
                    message_bits,
                    task.clone(),
                )
                .unwrap()
            })
            .collect();

        let replies = replies(&job, vec![DeployMsg::BlockSteps(tasks)]);
        assert_eq!(replies[0], DeployMsg::BlockStepResults(expected));
    }
}
