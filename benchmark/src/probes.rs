//! Layer probes: each layer timed from outside, through its public
//! functions, at the sizes the workload itself uses.
//!
//! A probe's number times the count a release produced is the model's
//! prediction for that layer's share of the release; the `model.*`
//! metrics put the two side by side.  Every probe repeats its operation
//! for a fixed slice of time and reports the median, so a probe costs
//! the same wall time on a fast and on a slow machine.

use crate::stats::median;
use crate::workloads::Workload;
use dstress_circuit::{Circuit, CircuitBuilder, CircuitLayers, CircuitStats};
use dstress_core::exec::execute_accounted_transfer_task;
use dstress_core::store::{collect_segments, packed_bytes, write_checkpoint};
use dstress_core::wire::CheckpointManifest;
use dstress_core::{
    BlockStepTask, DStressConfig, MemStore, PhaseCosts, SpillStore, StateStore, TransferMode,
    TransferTask, SEGMENT_ROWS,
};
use dstress_crypto::dlog::DlogTable;
use dstress_crypto::elgamal::{encrypt_bits_shared_c1, KeyPair, PublicKey};
use dstress_crypto::group::{Group, GroupKind};
use dstress_crypto::kernels::multi_pow;
use dstress_crypto::sharing::{split_xor, BitMessage};
use dstress_deploy::DeployMsg;
use dstress_dp::laplace::LaplaceMechanism;
use dstress_finance::generator::{core_periphery, GeneratorConfig};
use dstress_graph::stream::BarabasiAlbertStream;
use dstress_graph::Graph;
use dstress_math::rng::{DetRng, Xoshiro256};
use dstress_math::{FpCtx, U256};
use dstress_mpc::gmw::{share_inputs, GmwConfig, GmwProtocol};
use dstress_mpc::party::OtConfig;
use dstress_mpc::GmwMessage;
use dstress_net::socket::{FramedConn, SocketTransport};
use dstress_net::traffic::{NodeId, TrafficAccountant};
use dstress_net::transport::{ActorStatus, Endpoint, NodeActor, SimTransport, Transport};
use dstress_net::wire::Wire;
use dstress_transfer::protocol::{transfer_message, TransferConfig};
use dstress_transfer::setup::generate_system;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// Wall time one probe may spend measuring.
const PROBE_SLICE: Duration = Duration::from_millis(60);
/// Shortest batch worth timing: far above the clock's resolution.
const MIN_BATCH: Duration = Duration::from_micros(200);
/// Deadline of the loopback helpers; nothing on loopback takes this long.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Median seconds per call of `op`, measured for [`PROBE_SLICE`]: calls
/// are grouped into batches long enough to time, and at least three
/// batches run however slow the operation is.
fn seconds_per_call(mut op: impl FnMut()) -> f64 {
    let mut batch = 1u64;
    let batch_seconds = loop {
        let start = Instant::now();
        for _ in 0..batch {
            op();
        }
        let elapsed = start.elapsed();
        if elapsed >= MIN_BATCH {
            break elapsed.as_secs_f64();
        }
        batch *= 4;
    };
    let mut samples = vec![batch_seconds / batch as f64];
    let deadline = Instant::now() + PROBE_SLICE;
    while samples.len() < 3 || Instant::now() < deadline {
        let start = Instant::now();
        for _ in 0..batch {
            op();
        }
        samples.push(start.elapsed().as_secs_f64() / batch as f64);
    }
    median(&samples)
}

/// The per-layer numbers the probes produce, by metric name.
pub type ProbeValues = BTreeMap<&'static str, f64>;

/// What the reconciliation needs besides the named metrics.
pub struct ProbeReport {
    /// Metric name → value, in the unit the registry states.
    pub values: ProbeValues,
    /// Seconds of one block MPC of the workload's update circuit.
    pub gmw_exec_seconds: f64,
    /// Seconds of one transfer as the workload runs it (real crypto, or
    /// the accounted task).
    pub transfer_seconds: f64,
}

/// Runs every probe at the workload's own sizes.
///
/// # Errors
///
/// Returns a description if a probed call fails; a probe never panics
/// on an I/O error.
pub fn run_all(workload: &Workload, tmp: &Path) -> Result<ProbeReport, String> {
    let mut values = ProbeValues::new();
    let config = workload.config();
    let block = config.block_size();
    let message_bits = workload.message_bits();
    let mut rng = Xoshiro256::new(config.seed ^ 0x9E37_79B9_7F4A_7C15);

    math_probes(&mut values, &mut rng);
    crypto_probes(
        &mut values,
        config.group,
        config.dlog_window,
        message_bits,
        &mut rng,
    )?;

    // circuit + mpc: the workload's own update circuit at its block size.
    let degree_bound = workload.graph().degree_bound();
    values.insert(
        "circuit.update_build_ms",
        1e3 * seconds_per_call(|| {
            black_box(workload.update_circuit());
        }),
    );
    let circuit = workload.update_circuit();
    values.insert(
        "circuit.layering_ms",
        1e3 * seconds_per_call(|| {
            black_box(CircuitLayers::of(&circuit));
        }),
    );
    let stats = CircuitStats::of(&circuit);
    values.insert("circuit.and_gates", stats.and_gates as f64);
    values.insert("circuit.and_depth", stats.and_depth as f64);
    let gmw_exec_seconds = mpc_probes(&mut values, &circuit, &stats, block, &mut rng)?;

    let real_transfer_seconds =
        transfer_probes(&mut values, config, block, message_bits, &mut rng)?;
    net_probes(&mut values, block, &mut rng)?;
    let accounted_seconds = core_probes(
        &mut values,
        workload,
        &circuit,
        block,
        degree_bound,
        message_bits,
        tmp,
        &mut rng,
    )?;
    input_probes(&mut values, workload, &mut rng);

    let transfer_seconds = match config.transfer_mode {
        TransferMode::RealCrypto => real_transfer_seconds,
        TransferMode::Accounted => accounted_seconds,
    };
    Ok(ProbeReport {
        values,
        gmw_exec_seconds,
        transfer_seconds,
    })
}

/// Field arithmetic modulo the 256-bit production prime — the modulus
/// under every real-crypto transfer.
fn math_probes(values: &mut ProbeValues, rng: &mut Xoshiro256) {
    let field = FpCtx::new(Group::prod256().p()).expect("the embedded prime is a valid modulus");
    let mut a = field.random_nonzero(rng);
    let b = field.random_nonzero(rng);
    values.insert(
        "math.fp_mul_ns",
        1e9 * seconds_per_call(|| {
            a = field.mul(black_box(a), b);
        }),
    );
    let exponent = field.to_int(field.random_nonzero(rng));
    values.insert(
        "math.fp_pow_us",
        1e6 * seconds_per_call(|| {
            black_box(field.pow(black_box(a), &exponent));
        }),
    );
}

/// Group kernels in the workload's own group.
fn crypto_probes(
    values: &mut ProbeValues,
    kind: GroupKind,
    dlog_window: u64,
    message_bits: u32,
    rng: &mut Xoshiro256,
) -> Result<(), String> {
    let group = Group::new(kind);
    let base = group.generator_pow(&group.random_nonzero_exponent(rng));
    let exponent = group.random_nonzero_exponent(rng);
    values.insert(
        "crypto.pow_us",
        1e6 * seconds_per_call(|| {
            black_box(group.pow(black_box(base), &exponent));
        }),
    );
    values.insert(
        "crypto.fixed_base_pow_us",
        1e6 * seconds_per_call(|| {
            black_box(group.generator_pow(black_box(&exponent)));
        }),
    );
    let bases: Vec<_> = (0..32)
        .map(|_| group.generator_pow(&group.random_nonzero_exponent(rng)))
        .collect();
    let exponents: Vec<U256> = (0..32)
        .map(|_| group.random_nonzero_exponent(rng))
        .collect();
    values.insert(
        "crypto.multi_pow32_us",
        1e6 * seconds_per_call(|| {
            black_box(multi_pow(&group, &bases, &exponents));
        }),
    );

    // What a real-crypto release builds before its first transfer: the
    // generator's fixed-base table and the signed dlog table.
    values.insert(
        "crypto.kernels_build_ms",
        1e3 * seconds_per_call(|| {
            let fresh = Group::new(kind);
            black_box(fresh.generator_table());
            black_box(DlogTable::new_signed(&fresh, dlog_window));
        }),
    );
    let table = DlogTable::new_signed(&group, dlog_window);
    let inside = group.encode_exponent(dlog_window / 2);
    values.insert(
        "crypto.dlog_hit_ns",
        1e9 * seconds_per_call(|| {
            black_box(table.lookup_signed(&group, black_box(inside)).ok());
        }),
    );
    let fallback = DlogTable::new_signed(&group, 16).with_search_range(dlog_window);
    if fallback.lookup_signed(&group, inside) != Ok((dlog_window / 2) as i64) {
        return Err("the BSGS fallback missed an exponent inside its range".to_string());
    }
    values.insert(
        "crypto.dlog_bsgs_us",
        1e6 * seconds_per_call(|| {
            black_box(fallback.lookup_signed(&group, black_box(inside)).ok());
        }),
    );

    // One sender member's sub-share encryption towards one receiver:
    // `message_bits` ciphertexts under one shared ephemeral.
    let keys: Vec<PublicKey> = (0..message_bits)
        .map(|_| KeyPair::generate(&group, rng).public)
        .collect();
    let bits: Vec<bool> = (0..message_bits).map(|_| rng.next_bool()).collect();
    values.insert(
        "crypto.encrypt_shared_c1_us",
        1e6 * seconds_per_call(|| {
            black_box(encrypt_bits_shared_c1(&group, &keys, &bits, &exponent).ok());
        }),
    );
    Ok(())
}

/// One block MPC of `circuit` among `block` parties over the in-process
/// transport; returns its seconds.
fn mpc_probes(
    values: &mut ProbeValues,
    circuit: &Circuit,
    stats: &CircuitStats,
    block: usize,
    rng: &mut Xoshiro256,
) -> Result<f64, String> {
    let protocol =
        GmwProtocol::new(GmwConfig::with_default_ids(block)).map_err(|e| e.to_string())?;
    let ot = OtConfig::extension();
    let run = |circuit: &Circuit, rng: &mut Xoshiro256| {
        let inputs: Vec<bool> = (0..circuit.num_inputs()).map(|_| rng.next_bool()).collect();
        let shares = share_inputs(&inputs, block, rng);
        let mut traffic = TrafficAccountant::new();
        protocol
            .execute_on(&SimTransport, circuit, &shares, &ot, &mut traffic, rng)
            .map_err(|e| e.to_string())
    };

    let execution = run(circuit, rng)?;
    values.insert(
        "mpc.wire_bytes_per_exec",
        execution.counts.wire_bytes as f64,
    );
    let exec_seconds = seconds_per_call(|| {
        black_box(run(circuit, rng).ok());
    });
    values.insert("mpc.gmw_exec_ms", 1e3 * exec_seconds);

    // A circuit of the same interface with no AND gate: what one
    // execution costs before the first gate (party set-up, sharing,
    // output reconstruction).
    let free = {
        let mut builder = CircuitBuilder::new();
        let a = builder.input_word(8);
        let b = builder.input_word(8);
        let x = builder.xor_word(&a, &b);
        builder.output_word(&x);
        builder.build().map_err(|e| e.to_string())?
    };
    let fixed_seconds = seconds_per_call(|| {
        black_box(run(&free, rng).ok());
    });
    values.insert("mpc.gmw_fixed_us", 1e6 * fixed_seconds);
    let pairs = (block * (block - 1) / 2) as f64;
    let and_pairs = (stats.and_gates as f64 * pairs).max(1.0);
    values.insert(
        "mpc.ns_per_and_pair",
        1e9 * (exec_seconds - fixed_seconds).max(0.0) / and_pairs,
    );

    // One layer's worth of extended OTs through the provider.
    const BATCH: usize = 1024;
    let requests: Vec<_> = (0..BATCH)
        .map(|_| {
            let word = rng.next_u64();
            (
                [word & 1 != 0, word & 2 != 0, word & 4 != 0, word & 8 != 0],
                (word & 16 != 0, word & 32 != 0),
            )
        })
        .collect();
    let mut provider = ot.provider(rng.next_u64());
    values.insert(
        "mpc.ot_batch_ns_per_ot",
        1e9 * seconds_per_call(|| {
            black_box(provider.transfer_many(&requests));
        }) / BATCH as f64,
    );
    Ok(exec_seconds)
}

/// One Final-protocol transfer and one trusted-party set-up at the
/// workload's group, block size and width; returns the transfer's
/// seconds.
fn transfer_probes(
    values: &mut ProbeValues,
    config: &DStressConfig,
    block: usize,
    message_bits: u32,
    rng: &mut Xoshiro256,
) -> Result<f64, String> {
    let group = Group::new(config.group);
    let nodes = (3 * block).max(8);
    let k = block - 1;
    let generate = |rng: &mut Xoshiro256| {
        generate_system(&group, nodes, k, 2, message_bits, rng).map_err(|e| e.to_string())
    };
    let (secrets, setup) = generate(rng)?;
    values.insert(
        "transfer.generate_system_ms",
        1e3 * seconds_per_call(|| {
            black_box(generate(rng).ok());
        }),
    );

    let dlog = DlogTable::new_signed(&group, config.dlog_window);
    let protocol = TransferConfig::final_protocol(message_bits, config.edge_noise_alpha);
    let message = BitMessage::new(0xABC & ((1u64 << message_bits) - 1), message_bits)
        .map_err(|e| e.to_string())?;
    let shares = split_xor(message, block, rng);
    let transfer = |rng: &mut Xoshiro256| {
        let mut traffic = TrafficAccountant::new();
        transfer_message(
            &group,
            &protocol,
            NodeId(0),
            NodeId(1),
            &setup.blocks[0],
            &setup.blocks[1],
            &shares,
            &secrets,
            &setup.certificates[1][0],
            &secrets[1].neighbor_keys[0],
            &dlog,
            &mut traffic,
            rng,
        )
        .map_err(|e| e.to_string())
    };
    let outcome = transfer(rng)?;
    values.insert(
        "transfer.exps_per_message",
        (outcome.counts.exponentiations + outcome.counts.fixed_base_exponentiations) as f64,
    );
    let seconds = seconds_per_call(|| {
        black_box(transfer(rng).ok());
    });
    values.insert("transfer.message_ms", 1e3 * seconds);
    Ok(seconds)
}

/// An actor with nothing to say: the mesh it runs on is all set-up and
/// tear-down.
struct Silent;

impl NodeActor<u64> for Silent {
    fn poll(&mut self, _endpoint: &mut dyn Endpoint<u64>) -> ActorStatus {
        ActorStatus::Done
    }
}

/// Wire codec of the dominant GMW message, and loopback sockets.
fn net_probes(values: &mut ProbeValues, block: usize, rng: &mut Xoshiro256) -> Result<(), String> {
    // One AND layer's batched choices: 256 gates with the extension's
    // 10-byte column per OT.
    const GATES: usize = 256;
    let ot_bytes = OtConfig::extension().wire_receiver_bytes_per_ot();
    let message = GmwMessage::Choices {
        layer: 3,
        pairs: (0..GATES)
            .map(|_| (rng.next_bool(), rng.next_bool()))
            .collect(),
        ot_payload: (0..GATES * ot_bytes)
            .map(|_| rng.next_u64() as u8)
            .collect(),
    };
    let mut buffer = Vec::new();
    values.insert(
        "net.wire_choices_encode_ns",
        1e9 * seconds_per_call(|| {
            buffer.clear();
            black_box(&message).encode_into(&mut buffer);
        }),
    );
    let encoded = message.encode();
    if GmwMessage::decode_exact(&encoded).as_ref() != Ok(&message) {
        return Err("GmwMessage::Choices does not survive its own codec".to_string());
    }
    values.insert(
        "net.wire_choices_decode_ns",
        1e9 * seconds_per_call(|| {
            black_box(GmwMessage::decode_exact(black_box(&encoded)).ok());
        }),
    );

    // The socket mesh of one block MPC: connect, handshake, tear down.
    let transport = SocketTransport::with_threads(1);
    let mut mesh_error = None;
    values.insert(
        "net.socket_mesh_ms",
        1e3 * seconds_per_call(|| {
            let mut actors: Vec<Silent> = (0..block).map(|_| Silent).collect();
            let mut refs: Vec<&mut dyn NodeActor<u64>> = actors
                .iter_mut()
                .map(|a| a as &mut dyn NodeActor<u64>)
                .collect();
            if let Err(e) = transport.run(&mut refs) {
                mesh_error = Some(e.to_string());
            }
        }),
    );
    if let Some(e) = mesh_error {
        return Err(format!("socket mesh probe: {e}"));
    }

    values.insert("net.frame_roundtrip_us", 1e6 * frame_roundtrip_seconds()?);
    Ok(())
}

/// Median seconds of one 1 KiB frame echoed over a loopback connection.
fn frame_roundtrip_seconds() -> Result<f64, String> {
    let io = |what: &str, e: &dyn std::fmt::Display| format!("frame probe: {what}: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| io("bind", &e))?;
    let address = listener.local_addr().map_err(|e| io("address", &e))?;
    let echo = std::thread::spawn(move || -> Result<(), String> {
        let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
        let mut conn = FramedConn::new(stream).map_err(|e| e.to_string())?;
        // Echo until the client hangs up.
        while let Ok(frame) = conn.recv_frame(IO_TIMEOUT) {
            conn.send_frame(&frame)
                .and_then(|_| conn.flush_blocking(IO_TIMEOUT))
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    });
    let stream = TcpStream::connect(address).map_err(|e| io("connect", &e))?;
    let mut conn = FramedConn::new(stream).map_err(|e| io("frame set-up", &e))?;
    let payload = vec![0xA5u8; 1024];
    let mut failure = None;
    let seconds = seconds_per_call(|| {
        let result = conn
            .send_frame(&payload)
            .and_then(|_| conn.flush_blocking(IO_TIMEOUT))
            .and_then(|_| conn.recv_frame(IO_TIMEOUT));
        if result.as_deref() != Ok(&payload[..]) {
            failure = Some(format!("{result:?}"));
        }
    });
    drop(conn);
    match echo.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => return Err(io("echo thread", &e)),
        Err(_) => return Err("frame probe: echo thread panicked".to_string()),
    }
    match failure {
        Some(e) => Err(io("echo mismatch", &e)),
        None => Ok(seconds),
    }
}

/// Store, checkpoint and task-codec probes at the workload's row
/// widths; returns the seconds of one accounted transfer task.
#[allow(clippy::too_many_arguments)]
fn core_probes(
    values: &mut ProbeValues,
    workload: &Workload,
    circuit: &Circuit,
    block: usize,
    degree_bound: usize,
    message_bits: u32,
    tmp: &Path,
    rng: &mut Xoshiro256,
) -> Result<f64, String> {
    // Stores: 256 segments of state-width rows; the spilling store keeps
    // a quarter resident, and rows are visited with a stride that lands
    // every access in another segment, so it really pages.
    let width = (circuit.num_inputs() - degree_bound * message_bits as usize).max(1);
    let rows = 256 * SEGMENT_ROWS;
    let row_bits: Vec<bool> = (0..width).map(|_| rng.next_bool()).collect();
    let stride = SEGMENT_ROWS * 37 + 1;
    let probe_dir = tmp.join("probe");
    std::fs::create_dir_all(&probe_dir)
        .map_err(|e| format!("create {}: {e}", probe_dir.display()))?;
    let spill_path = probe_dir.join("store.log");
    let _ = std::fs::remove_file(&spill_path);
    let mut mem = MemStore::new(rows, width);
    let mut spill = SpillStore::create(rows, width, packed_bytes(rows, width) / 4, spill_path)
        .map_err(|e| e.to_string())?;
    let stores: [(&'static str, &'static str, &mut dyn StateStore); 2] = [
        (
            "core.store_mem_write_ns",
            "core.store_mem_read_ns",
            &mut mem,
        ),
        (
            "core.store_spill_write_ns",
            "core.store_spill_read_ns",
            &mut spill,
        ),
    ];
    for (write_name, read_name, store) in stores {
        let mut failure = None;
        let mut row = 0usize;
        for r in 0..rows {
            store.write(r, &row_bits).map_err(|e| e.to_string())?;
        }
        values.insert(
            write_name,
            1e9 * seconds_per_call(|| {
                row = (row + stride) % rows;
                if let Err(e) = store.write(row, &row_bits) {
                    failure = Some(e.to_string());
                }
            }),
        );
        let mut out = Vec::with_capacity(width);
        values.insert(
            read_name,
            1e9 * seconds_per_call(|| {
                row = (row + stride) % rows;
                out.clear();
                if let Err(e) = store.read_into(row, &mut out) {
                    failure = Some(e.to_string());
                }
            }),
        );
        if let Some(e) = failure {
            return Err(format!("{write_name}: {e}"));
        }
    }

    // One round-boundary checkpoint of those two stores.
    let checkpoint_dir = probe_dir.join("checkpoint");
    let mut round = 0u64;
    let mut failure = None;
    values.insert(
        "core.checkpoint_write_ms",
        1e3 * seconds_per_call(|| {
            round += 1;
            let result =
                collect_segments(&[(0, &mem), (1, &spill)]).and_then(|(segments, records)| {
                    let manifest = CheckpointManifest {
                        round,
                        iterations: 1,
                        fingerprint: 0,
                        rng_state: [0; 4],
                        initialization: PhaseCosts::default(),
                        computation: PhaseCosts::default(),
                        communication: PhaseCosts::default(),
                        traffic: Vec::new(),
                        segments,
                    };
                    write_checkpoint(&checkpoint_dir, &manifest, &records)
                });
            if let Err(e) = result {
                failure = Some(e.to_string());
            }
        }),
    );
    drop(spill);
    let _ = std::fs::remove_dir_all(&probe_dir);
    if let Some(e) = failure {
        return Err(format!("core.checkpoint_write_ms: {e}"));
    }

    // One block-step task as the engine builds it, through its codec,
    // and one window's worth of them as the deploy layer frames it.
    let task = |vertex: u64, rng: &mut Xoshiro256| BlockStepTask {
        vertex,
        seed: rng.next_u64(),
        members: (0..block).map(|m| NodeId(vertex as usize + m)).collect(),
        out_slots: degree_bound as u64,
        input_shares: (0..block)
            .map(|_| (0..circuit.num_inputs()).map(|_| rng.next_bool()).collect())
            .collect(),
    };
    let one = task(7, rng);
    if BlockStepTask::decode_exact(&one.encode()).as_ref() != Ok(&one) {
        return Err("BlockStepTask does not survive its own codec".to_string());
    }
    values.insert(
        "core.task_codec_us",
        1e6 * seconds_per_call(|| {
            black_box(BlockStepTask::decode_exact(&black_box(&one).encode()).ok());
        }),
    );
    let window = workload.config().concurrency.worker_threads() * dstress_core::BLOCKS_PER_WORKER;
    let batch = DeployMsg::BlockSteps((0..window as u64).map(|v| task(v, rng)).collect());
    values.insert(
        "node.batch_codec_us",
        1e6 * seconds_per_call(|| {
            black_box(DeployMsg::decode_exact(&black_box(&batch).encode()).ok());
        }),
    );

    // One transfer as the accounted mode runs it.
    let group = Group::new(workload.config().group);
    let transfer = TransferTask {
        edge_index: 0,
        seed: rng.next_u64(),
        from: 0,
        to: 1,
        in_slot: 0,
        sender_members: (0..block).map(NodeId).collect(),
        receiver_members: (1..=block).map(NodeId).collect(),
        shares: (0..block)
            .map(|_| (0..message_bits).map(|_| rng.next_bool()).collect())
            .collect(),
    };
    let accounted_seconds = seconds_per_call(|| {
        black_box(execute_accounted_transfer_task(
            &group,
            message_bits,
            black_box(&transfer),
        ));
    });
    values.insert("core.accounted_transfer_us", 1e6 * accounted_seconds);
    Ok(accounted_seconds)
}

/// Input generators and the release mechanism itself.
fn input_probes(values: &mut ProbeValues, workload: &Workload, rng: &mut Xoshiro256) {
    let n = workload.graph().vertex_count();
    let graph_seed = rng.next_u64();
    values.insert(
        "graph.stream_build_ms",
        1e3 * seconds_per_call(|| {
            let mut stream = BarabasiAlbertStream::new(n.max(4), 2, 8, graph_seed);
            black_box(Graph::from_edge_stream(&mut stream).ok());
        }),
    );
    let generator = GeneratorConfig::small(n.max(4), workload.graph().degree_bound().max(3));
    values.insert(
        "finance.network_build_ms",
        1e3 * seconds_per_call(|| {
            black_box(core_periphery(&generator, &mut Xoshiro256::new(graph_seed)));
        }),
    );
    let mechanism: LaplaceMechanism = workload.mechanism();
    values.insert(
        "dp.laplace_release_ns",
        1e9 * seconds_per_call(|| {
            black_box(mechanism.release(black_box(100.0), rng));
        }),
    );
}
