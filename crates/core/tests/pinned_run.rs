//! Pins whole engine runs to constants.
//!
//! Every other engine test is relative (run A == run B), so a change that
//! moves an RNG draw, a traffic record or a count on *both* sides passes
//! all of them.  These constants were captured on the commit whose
//! `run_windowed` was still one 549-line function, before it was split
//! into one function per paper step: the released value and the pre-noise
//! aggregate as bit patterns, every field of every phase's
//! `OperationCounts`, a digest of the per-node traffic, the resident
//! peak of the state stores, and — for the checkpointing runs — the
//! round, run fingerprint, RNG position, accumulated costs and segment
//! digests of every checkpoint a run writes (everything in a manifest
//! except its wall-clock seconds).
//!
//! Three runs of the counter program:
//!
//! * (a) real-crypto transfers on the 64-bit group, `Sequential`,
//!   `execute`;
//! * (b) accounted transfers under `execute_streaming` with two worker
//!   threads, a state budget of a quarter of the packed stores (so they
//!   really page through the spill log) and a checkpoint at every round;
//! * (c) run (b) halted after each round in turn and finished with
//!   `resume` — which must reproduce (b)'s constants, not constants of
//!   its own (but for one resident peak, explained where it is pinned).
//!
//! Never regenerate these constants to make a change pass: a mismatch
//! means the change altered a share, a count, a traffic record, the RNG
//! draw order or what a checkpoint holds.
//!
//! **Re-captured once, 2026-10-03, for a named field set.**  The gadget
//! rewrite in `dstress-circuit` (1-AND full adder, no carry-out that
//! nothing reads) changed the counter's update, aggregation and noising
//! *circuits*, so what is counted per gate moved and nothing else: in each
//! `PinnedRun`, entries 4–9 (`extended_ots`, `and_gates`, `free_gates`,
//! `bytes_sent`, `wire_bytes`, `rounds`) of `counts[1]` (computation) and
//! `counts[3]` (aggregation), and `traffic_digest`; in each
//! `PinnedCheckpoint`, `costs_digest` and the store-0 (state-share)
//! segment digests — different gates draw different share randomness for
//! the same values.  `rounds` fell because `add`'s unread top carry-out
//! was an AND layer of its own, two rounds a layer: computation 57 → 51
//! in (a) (three passes) and 76 → 68 in (b) (four), aggregation 199 → 195
//! in both (the aggregation and the noising circuit lose a layer each).
//! Checked field by field not to have moved: `noised_bits`, `ideal_bits`,
//! all of `counts[0]` and `counts[2]`, entries 0–3 of `counts[1]` and
//! `counts[3]`, both resident peaks, every `round`, `FINGERPRINT`, every
//! `rng_state`, every store-1 segment digest.  The rule above stands for
//! all of those, and for these from here on.
//!
//! **Re-captured a second time, 2026-10-15, for a named field set.**  Each
//! node pair's OT-extension session is now set up once per run, in the
//! Initialization step, instead of in every block, aggregation and
//! noising MPC.  So the setup's base OTs, their exponentiations, their
//! key-material bytes and its two rounds left the MPCs and arrived in
//! Initialization, and nothing else moved.  The moved fields: all of
//! `counts[0]` (rounds 1 → 2, base OTs 0 → 80 per distinct pair: 800 in
//! (a), 11 280 in (b)); entries 0, 3, 7, 8 and 9 (`exponentiations`,
//! `base_ots`, `bytes_sent`, `wire_bytes`, `rounds`) of `counts[1]` and
//! `counts[3]`; `traffic_digest`; each `PinnedCheckpoint`'s
//! `costs_digest`.  Computation rounds fell 51 → 45 in (a) (three passes)
//! and 68 → 60 in (b) (four), aggregation rounds 195 → 191 in both, and
//! aggregation `base_ots` 480 → 0.  Checked field by field not to have
//! moved: `noised_bits`, `ideal_bits`, all of `counts[2]`, entries 1, 2
//! and 4–6 of `counts[1]` and `counts[3]`, both resident peaks, every
//! `round`, `FINGERPRINT`, every `rng_state`, every segment digest.  Run
//! (c) still reproduces run (b).
//!
//! **Re-captured a third time, 2026-10-17, for a named field set.**  The
//! analytic byte model (`OperationCounts::bytes_sent` and `NodeTraffic`'s
//! modeled `bytes_*` / `messages_*` counters) leaves the workspace, so the
//! pins hold measured bytes only.  What moved, and only in its layout: every
//! `counts` row drops its entry 7 (`bytes_sent`) and keeps the nine other
//! values as they were; `traffic_digest` and each `PinnedCheckpoint`'s
//! `costs_digest` now hash each node's id, `wire_bytes_sent` and
//! `wire_bytes_received` as explicit little-endian integers instead of the
//! `NodeTraffic` wire encoding (and `costs_digest` the nine-entry rows).
//! Checked not to have moved: `noised_bits`, `ideal_bits`, the nine
//! surviving entries of every `counts` row, both resident peaks, every
//! `round`, `FINGERPRINT`, every `rng_state`, every segment digest.  Run (c)
//! still reproduces run (b).
//!
//! **Re-captured a fourth time, 2026-10-17, for a named field set.**  The
//! noising circuit counts leading ones with a parallel-prefix gadget
//! (`CircuitBuilder::leading_ones`) instead of a serial AND chain feeding
//! 64 ripple-carry adds: same inputs, same function, fewer AND gates and
//! fewer AND layers.  So the noising MPC's per-gate counts moved and
//! nothing else.  The moved fields: in each `PinnedRun`, entries 4–8
//! (`extended_ots`, `and_gates`, `free_gates`, `wire_bytes`, `rounds`) of
//! `counts[3]` (aggregation), and `traffic_digest`.  Aggregation rounds
//! fell 191 → 75 in both runs (the noising circuit's 95 AND layers became
//! 37, two rounds a layer), aggregation AND gates 1 001 → 489 in (a) and
//! 1 631 → 1 119 in (b) (the 958 → 446 of the counter's noising circuit).
//! Checked field by field not to have moved: `noised_bits`, `ideal_bits`,
//! all of `counts[0]`, `counts[1]` and `counts[2]`, entries 0–3 of
//! `counts[3]`, both resident peaks, and every `PinnedCheckpoint` field
//! (checkpoints are written before aggregation).  Run (c) still reproduces
//! run (b).
//!
//! **Re-captured a fifth time, 2026-10-17, for a named field set.**  The
//! aggregation and the noising circuit run as one release MPC, the
//! noising circuit's aggregate inputs wired to the aggregation's outputs
//! (`Circuit::then`), instead of as two MPCs back to back.  The gates are
//! the same, so only the rounds and the bytes of the second MPC's layer
//! messages moved.  The moved fields: in each `PinnedRun`, entries 7 and 8
//! (`wire_bytes`, `rounds`) of `counts[3]` (aggregation), and
//! `traffic_digest`.  Aggregation rounds fell 75 → 44 in both runs (the
//! noising circuit's layers overlap the aggregation's, and one output
//! round is gone); aggregation wire bytes 17 883 → 17 442 in (a) and
//! 40 527 → 40 149 in (b).  Checked field by field not to have moved:
//! `noised_bits`, `ideal_bits` (the engine keeps the RNG draws of the
//! retired second MPC), all of `counts[0]`, `counts[1]` and `counts[2]`,
//! entries 0–6 of `counts[3]`, both resident peaks, and every
//! `PinnedCheckpoint` field.  Run (c) still reproduces run (b).

use dstress_core::store::{digest64, load_latest_checkpoint, packed_bytes};
use dstress_core::{
    CheckpointConfig, ConcurrencyMode, CounterProgram, DStressConfig, DStressRun, DStressRuntime,
    RunDirGuard, SecureVertexProgram,
};
use dstress_graph::generate::ring_with_chords;
use dstress_graph::Graph;
use dstress_math::rng::Xoshiro256;
use dstress_net::cost::OperationCounts;
use dstress_net::traffic::{NodeId, NodeTraffic};
use std::path::Path;

/// What a finished run is pinned to.
#[derive(Debug, PartialEq)]
struct PinnedRun {
    noised_bits: u64,
    ideal_bits: u64,
    /// Initialization, computation, communication, aggregation; each
    /// phase's counters in declaration order.
    counts: [[u64; 9]; 4],
    traffic_digest: u64,
    store_resident_peak_bytes: usize,
}

/// What a checkpoint is pinned to.
#[derive(Debug, PartialEq)]
struct PinnedCheckpoint {
    round: u64,
    fingerprint: u64,
    rng_state: [u64; 4],
    /// The manifest's three phase counts and its traffic snapshot.
    costs_digest: u64,
    /// `(store, index, digest)` in file order.
    segments: Vec<(u8, u64, u64)>,
}

/// The pinned counters in declaration order: every one but the retired
/// analytic byte model (`bytes_sent`).
fn counts_array(c: &OperationCounts) -> [u64; 9] {
    [
        c.exponentiations,
        c.fixed_base_exponentiations,
        c.group_multiplications,
        c.base_ots,
        c.extended_ots,
        c.and_gates,
        c.free_gates,
        c.wire_bytes,
        c.rounds,
    ]
}

/// Each node's id and its *measured* byte counters, as explicit integers.
fn traffic_bytes(entries: &[(NodeId, NodeTraffic)], out: &mut Vec<u8>) {
    for (id, totals) in entries {
        for value in [
            id.0 as u64,
            totals.wire_bytes_sent,
            totals.wire_bytes_received,
        ] {
            out.extend_from_slice(&value.to_le_bytes());
        }
    }
}

fn observe_run(run: &DStressRun) -> PinnedRun {
    let mut traffic = Vec::new();
    traffic_bytes(&run.traffic.sorted_node_entries(), &mut traffic);
    PinnedRun {
        noised_bits: run.noised_output.to_bits(),
        ideal_bits: run.ideal_output.to_bits(),
        counts: [
            counts_array(&run.phases.initialization.counts),
            counts_array(&run.phases.computation.counts),
            counts_array(&run.phases.communication.counts),
            counts_array(&run.phases.aggregation.counts),
        ],
        traffic_digest: digest64(&traffic),
        store_resident_peak_bytes: run.store_resident_peak_bytes,
    }
}

/// The one checkpoint a directory holds (older ones are pruned).
fn observe_checkpoint(dir: &Path) -> PinnedCheckpoint {
    let (manifest, records) = load_latest_checkpoint(dir).unwrap();
    assert_eq!(records.len(), manifest.segments.len());
    let mut costs = Vec::new();
    for phase in [
        &manifest.initialization,
        &manifest.computation,
        &manifest.communication,
    ] {
        for value in counts_array(&phase.counts) {
            costs.extend_from_slice(&value.to_le_bytes());
        }
    }
    traffic_bytes(&manifest.traffic, &mut costs);
    PinnedCheckpoint {
        round: manifest.round,
        fingerprint: manifest.fingerprint,
        rng_state: manifest.rng_state,
        costs_digest: digest64(&costs),
        segments: manifest
            .segments
            .iter()
            .map(|s| (s.store, s.index, s.digest))
            .collect(),
    }
}

fn scratch(tag: &str) -> RunDirGuard {
    RunDirGuard::create(None, tag.bytes().fold(0u64, |a, b| a << 8 | u64::from(b))).unwrap()
}

#[test]
fn real_crypto_run_matches_the_pinned_constants() {
    let graph = ring_with_chords(6, 1, 3, &mut Xoshiro256::new(0xA11));
    let program = CounterProgram {
        width: 8,
        rounds: 2,
    };
    let mut config = DStressConfig::small_test(2);
    config.message_bits = 8;
    let run = DStressRuntime::new(config)
        .execute(&graph, &program)
        .unwrap();
    assert_eq!(observe_run(&run), pinned_real_crypto());
}

const STREAMED_ROUNDS: u32 = 3;

/// The graph, program and configuration of runs (b) and (c), checkpointing
/// into `ckpt` and spilling under `spill`.
fn streamed(ckpt: &Path, spill: &Path) -> (Graph, CounterProgram, DStressConfig) {
    let graph = ring_with_chords(48, 1, 3, &mut Xoshiro256::new(0xB22));
    let program = CounterProgram {
        width: 8,
        rounds: STREAMED_ROUNDS,
    };
    let mut config = DStressConfig::benchmark(2)
        .with_concurrency(ConcurrencyMode::Threaded { threads: 2 })
        .with_spill_dir(spill.to_path_buf())
        .with_checkpoint(CheckpointConfig::every_round(ckpt.to_path_buf()));
    config.message_bits = 8;
    let edges: usize = graph.vertices().map(|v| graph.in_degree(v)).sum();
    let block = config.block_size();
    let unbudgeted = packed_bytes(graph.vertex_count() * block, program.state_bits() as usize)
        + 2 * packed_bytes(edges * block, program.message_bits() as usize);
    (graph, program, config.with_state_budget(unbudgeted / 4))
}

#[test]
fn streamed_spilling_checkpointed_run_matches_the_pinned_constants() {
    let dir = scratch("pin-b");
    let ckpt = dir.path().join("ckpt");
    let (graph, program, config) = streamed(&ckpt, dir.path());
    let run = DStressRuntime::new(config)
        .execute_streaming(&graph, &program)
        .unwrap();
    assert!(run.spill_file_bytes > 0, "a quarter-size budget must spill");
    assert_eq!(observe_run(&run), pinned_streamed());
    // The survivor of the run's checkpoints is the last one written.
    assert_eq!(
        Some(observe_checkpoint(&ckpt)),
        pinned_checkpoints().into_iter().last()
    );
}

#[test]
fn halted_and_resumed_runs_match_the_streamed_constants() {
    let checkpoints = pinned_checkpoints();
    assert_eq!(checkpoints.len(), STREAMED_ROUNDS as usize);
    for (round, pinned) in checkpoints.into_iter().enumerate() {
        let dir = scratch("pin-c");
        let ckpt = dir.path().join("ckpt");
        let (graph, program, config) = streamed(&ckpt, dir.path());
        let halted = DStressRuntime::new(config.clone().with_halt_after_round(round as u64))
            .execute_streaming(&graph, &program)
            .unwrap_err();
        assert_eq!(
            halted.to_string(),
            format!("run halted after checkpointing round {round}")
        );
        assert_eq!(
            observe_checkpoint(&ckpt),
            pinned,
            "halt after round {round}"
        );
        let resumed = DStressRuntime::new(config)
            .resume(&graph, &program)
            .unwrap();
        let mut expected = pinned_streamed();
        if round as u32 == STREAMED_ROUNDS - 1 {
            expected.store_resident_peak_bytes = RESIDENT_PEAK_RESUMED_INTO_FINAL_PASS;
        }
        assert_eq!(observe_run(&resumed), expected, "halt after round {round}");
    }
}

/// The one constant run (c) has of its own.  A run resumed from the last
/// checkpoint executes only the final computation pass and the
/// aggregation, so the stores are sampled twice — after the restore and
/// after the aggregation — and both walks end on each store's short tail
/// segment; the inbox a round writes into is never touched.
const RESIDENT_PEAK_RESUMED_INTO_FINAL_PASS: usize = 0xa8;

fn pinned_real_crypto() -> PinnedRun {
    PinnedRun {
        noised_bits: 0x4060890138d985bb,
        ideal_bits: 0x4061000000000000,
        counts: [
            [0x960, 0x0, 0x0, 0x320, 0x0, 0x0, 0x0, 0x19090, 0x2],
            [0x0, 0x0, 0x0, 0x0, 0x46e, 0x17a, 0x654, 0x40f8, 0x2d],
            [0x5dc, 0x474, 0xbb8, 0x0, 0x0, 0x0, 0x0, 0x729c, 0x6],
            [0x0, 0x0, 0x0, 0x0, 0x5bb, 0x1e9, 0x2b2, 0x4422, 0x2c],
        ],
        traffic_digest: 0xdb9978db219c10d3,
        store_resident_peak_bytes: 0x270,
    }
}

fn pinned_streamed() -> PinnedRun {
    PinnedRun {
        noised_bits: 0x40b8b494de1d1fe5,
        ideal_bits: 0x40b8b20000000000,
        counts: [
            [0x8430, 0x0, 0x0, 0x2c10, 0x0, 0x0, 0x0, 0x160dee, 0x2],
            [0x0, 0x0, 0x0, 0x0, 0x2f40, 0xfc0, 0x4380, 0x2b500, 0x3c],
            [0x4c77, 0x3a1d, 0x98ee, 0x0, 0x0, 0x0, 0x0, 0x5d7a7, 0x9],
            [0x0, 0x0, 0x0, 0x0, 0xd1d, 0x45f, 0xcde, 0x9cd5, 0x2c],
        ],
        traffic_digest: 0xd4fec3337e9c45a1,
        store_resident_peak_bytes: 0x2a8,
    }
}

/// The checkpoints run (b) writes, in the order it writes them.
fn pinned_checkpoints() -> Vec<PinnedCheckpoint> {
    const FINGERPRINT: u64 = 0x5da14cf635be1907;
    vec![
        PinnedCheckpoint {
            round: 1,
            fingerprint: FINGERPRINT,
            rng_state: [
                0xfd652712e3544877,
                0x4c2c54c8fbadaf32,
                0xdd80f8a1fa485e2e,
                0xa683540dfa3c3a74,
            ],
            costs_digest: 0x1ae2e6d67d3d9366,
            segments: vec![
                (0, 0, 0x52d3aa4fc1523b5d),
                (0, 1, 0xbb164f52ae0366bb),
                (0, 2, 0xdbf028e222fb2353),
                (1, 0, 0x4ca5b2ecbef35082),
                (1, 1, 0x28fa1a25f715a9bd),
                (1, 2, 0x53e3ca366d26786a),
                (1, 3, 0x7959e2be84bda635),
                (1, 4, 0x91b442ee552c098e),
            ],
        },
        PinnedCheckpoint {
            round: 2,
            fingerprint: FINGERPRINT,
            rng_state: [
                0x49ab71f9e06cc468,
                0xf2778444470c7203,
                0x8849ca5cd76bcb68,
                0x232b2bcc2ac5c055,
            ],
            costs_digest: 0x437bffaccddb50f9,
            segments: vec![
                (0, 0, 0xde0958e2f6756e56),
                (0, 1, 0xbd3e4d6f335259e3),
                (0, 2, 0x2e118a93e7630999),
                (1, 0, 0xbddfdcc761ef72cc),
                (1, 1, 0x61ab96523dc5e135),
                (1, 2, 0xd1898427833d09b9),
                (1, 3, 0xc8d446ccd5bef0d6),
                (1, 4, 0xdfb6ca24ab2f0bb0),
            ],
        },
        PinnedCheckpoint {
            round: 3,
            fingerprint: FINGERPRINT,
            rng_state: [
                0x9d283bbb685f0684,
                0x6208d42d2eaf043d,
                0x2e5f0bdaa4a2793e,
                0x4e1740bbfcb95cbf,
            ],
            costs_digest: 0x45ce73ca107e2a9f,
            segments: vec![
                (0, 0, 0x1ffbd6b53bc84ae0),
                (0, 1, 0x6bcfdb71ee0f34cf),
                (0, 2, 0xb5e852d2ddb14776),
                (1, 0, 0x56d432e26e5d412d),
                (1, 1, 0x2fb575a454e741ae),
                (1, 2, 0xb3f29ada2059df4f),
                (1, 3, 0xfa29da3b9ff21c6a),
                (1, 4, 0x116d5c4ed4663a63),
            ],
        },
    ]
}
