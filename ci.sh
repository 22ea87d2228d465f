#!/usr/bin/env bash
# The full CI gate for the DStress reproduction.
#
# Mirrors the tier-1 verify command in ROADMAP.md and adds the lint,
# formatting, documentation and determinism gates. Runs fully offline:
# all external dependencies are pinned to the in-tree shims under shims/
# (see shims/README.md). The rustfmt/clippy steps skip gracefully when
# those toolchain components are not installed.
set -euo pipefail
cd "$(dirname "$0")"

# A run must leave the work tree as it found it; compared at the end
# (outside a git work tree both readings are the same placeholder).
tree_state() { git status --porcelain 2>/dev/null || echo "not a git work tree"; }
tree_before=$(tree_state)

# Every by-name test invocation below goes through this helper: it runs
# `cargo test "$@"` and additionally fails when the invocation ran no
# test at all — a renamed or deleted test makes its filter match nothing,
# which cargo reports as success.
run_tests() {
    local out passed status=0
    out=$(cargo test "$@" 2>&1) || status=$?
    printf '%s\n' "$out"
    [[ "$status" -eq 0 ]] || return "$status"
    passed=$(printf '%s\n' "$out" | awk '/^test result:/ { n += $4 } END { print n + 0 }')
    if [[ "$passed" -eq 0 ]]; then
        echo "ci: 'cargo test $*' ran zero tests (renamed or deleted?)" >&2
        return 1
    fi
}

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

if cargo fmt --version >/dev/null 2>&1; then
    echo "==> cargo fmt --all --check"
    cargo fmt --all --check
else
    echo "==> cargo fmt unavailable; skipping format check"
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "==> cargo clippy unavailable; skipping lint check"
fi

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> nondeterminism lint (no HashMap/HashSet/Instant::now/SystemTime on the share path)"
./scripts/nondeterminism_lint.sh

echo "==> static analysis: positive certification of every shipped program"
# Range + sensitivity + information-flow certification (dstress-analyze):
# the four analytics and the modular counter certify clean, and both
# finance case studies certify on a live shocked network.  Every
# certificate `repro -- analyze` issues is pinned to committed reports and
# per-event interval digests.
run_tests -q -p dstress-analyze --test certify
run_tests -q -p dstress-analyze --test finance
run_tests -q -p dstress-analyze --test pinned_certificates

echo "==> static analysis: golden rejections, guard refinements, interval soundness"
# Deliberately broken artifacts (width overflow, under-declared
# sensitivity, leak around the noise path, release outside the recovery
# window) must fail with their exact typed findings; the guard/dominance
# refinements are pinned; proptests check concrete runs always land
# inside certified intervals.
run_tests -q -p dstress-analyze --test golden
run_tests -q -p dstress-analyze --test refinement
run_tests -q -p dstress-analyze --test soundness
# The capped ratio is [0, 2^f] by construction, with no guard around it.
run_tests -q -p dstress-analyze --test refinement capped_ratio_needs_no_guard

echo "==> gadgets: committed (AND, depth) table, native-arithmetic truth tables, no wasted AND gate; the noising circuit against native arithmetic; finance circuits against native steps and under their ceilings"
# Every word-level gadget is pinned to a cost, equals native integer
# arithmetic (exhaustively at widths 1-4, proptest at 5-16; leading_ones
# exhaustively at 1-12, proptest at 13-16 and 64) and emits no AND gate
# that is unread or meets a constant; the noising circuit built on
# leading_ones equals (a + ((lo(r1) - lo(r2)) << s)) mod 2^A and is
# pinned to its (AND, depth); the Eisenberg-Noe update and
# aggregation equal native fixed-point steps on random words, the
# Elliott-Golub-Jackson discount equals the plaintext clamp where a
# full-width ratio would wrap, and both update circuits stay under their
# AND/depth ceilings.
run_tests -q -p dstress-circuit --test gadget_costs
run_tests -q -p dstress-circuit --lib builder::tests
run_tests -q -p dstress-core --lib noise_circuit::tests
run_tests -q -p dstress-finance update_circuit_equals_a_native_fixed_point_step
run_tests -q -p dstress-finance aggregation_reads_only_the_low_bits_of_prorate
run_tests -q -p dstress-finance discount_is_the_native_clamp_where_the_ratio_would_wrap
run_tests -q -p dstress-bench --lib finance_update_circuits_stay_under_their_ceilings

echo "==> repro -- analyze smoke (release; exits non-zero on any finding; the table carries AND and depth per program)"
cargo run --release -q -p dstress-bench --bin repro -- analyze

echo "==> determinism suite under --release (Sim == Socket)"
# One party state machine walks either layering a GmwBatching mode lends it:
# the depth layering (backends_agree_batched_mode) or the serial one, one AND
# gate per layer (backends_agree_per_gate_mode); mode-crossing proptests hold
# both to each other and to the plaintext evaluator. The multi-threaded
# real-TCP SocketTransport is held to bit-identity with the deterministic
# in-process backend, and the layered path pinned to committed fingerprints
# on both. Both backends move bytes: a party writes each batch into a byte
# lane with the in-place writer, which must produce the owned codec's bytes,
# and reads it back with the view parser, which must accept and reject what
# the owned decoder does; lanes keep per-sender order and give large
# buffers back once drained.
run_tests --release -q -p dstress-mpc --test transport_determinism
run_tests --release -q -p dstress-mpc prop_in_place_writers_equal_the_owned_encoding
run_tests --release -q -p dstress-mpc prop_view_and_owned_decoder_agree
run_tests -q -p dstress-net lanes_deliver_in_order_and_give_back_large_buffers
run_tests --release -q -p dstress-core concurrency_mode_does_not_change_results
run_tests --release -q -p dstress-core gmw_batching_modes_agree_end_to_end

echo "==> round model: batched rounds scale with depth, not AND-gate count; aggregation rounds are the re-share plus each MPC's layers"
run_tests --release -q -p dstress-mpc batched_rounds_scale_with_depth_not_gate_count
run_tests --release -q -p dstress --test end_to_end_pipeline aggregation_rounds_follow_the_layer_model

echo "==> crypto kernels pinned to the naive references; the transfer path, the setup and whole engine runs pinned to constants"
# Fixed-base tables, comb tables (every lane of the lock-step evaluation),
# Straus/Pippenger multi-exp and the signed-BSGS / fingerprint dlog
# recovery must be bit-identical to square-and-multiply and linear scan on
# both groups; the one transfer path must reproduce its committed
# fingerprints (shares, counts, traffic, RNG draw order), match the
# analytic count model, agree with the accounted mode, and its key-outer
# sender side must equal the per-sender encryption bundle by bundle; the
# key-outer setup must reproduce its committed certificate tags and equal
# the per-entry re-randomisation; three whole engine runs (real-crypto,
# streamed + spilling + checkpointed, halted + resumed) must reproduce
# their committed releases, counts, traffic, resident peak and checkpoints.
run_tests -q -p dstress-crypto kernels::
run_tests -q -p dstress-crypto comb_
run_tests -q -p dstress-crypto dlog::
run_tests -q -p dstress-transfer --test pinned_transfer
run_tests -q -p dstress-transfer --test pinned_setup
run_tests -q -p dstress-core --test pinned_run
run_tests -q -p dstress-transfer kernel_counts_match_the_analytic_model
run_tests -q -p dstress-transfer key_outer_sender_path_equals_per_sender_encryption
run_tests -q -p dstress-transfer certificates_equal_per_entry_rerandomization
run_tests -q -p dstress-core transfer_modes_account_identically

echo "==> transfer_message rejects outside input with typed errors, before any RNG draw or traffic record"
run_tests -q -p dstress-transfer out_of_range_noise_alpha_is_a_typed_error
run_tests -q -p dstress-transfer missing_node_secrets_are_a_typed_error

echo "==> repro -- transfer smoke (time/traffic/ablation)"
cargo run --release -q -p dstress-bench --bin repro -- transfer --threads 2 > /dev/null

echo "==> wire format: round-trip, rejection and golden byte-layout suites"
# Primitive layouts and the per-crate message codecs (GMW, transfer, engine).
run_tests -q -p dstress-net --test wire_golden
run_tests -q -p dstress-net wire::
run_tests -q -p dstress-mpc wire::
run_tests -q -p dstress-transfer wire::
run_tests -q -p dstress-core wire::
run_tests -q -p dstress-deploy proto::

echo "==> wire bytes: release-mode byte determinism + one byte count, equal to its closed form"
# Measured bytes are the only byte count: a GMW execution's equal the
# closed form of its layering, party count and OT payloads (Sim and
# Socket, layered and per-gate, one-shot and established), and so does
# the counts-only §5.5 baseline's and every transfer variant's; an
# engine run's traffic report is its counted wire bytes; the pair bytes
# edge privacy reads are the transport's tally.
run_tests --release -q -p dstress-mpc --test transport_determinism measured_wire_bytes_bit_identical_across_the_grid
run_tests --release -q -p dstress-mpc --test transport_determinism batched_choices_payload_is_bit_packed_on_the_wire
run_tests --release -q -p dstress-bench --test byte_reconciliation
run_tests --release -q -p dstress-bench --test byte_reconciliation closed_form_wire_bytes_equal_the_measured_bytes
run_tests -q -p dstress-mpc counts_only_measurement_matches_executed_gate_count
run_tests -q -p dstress-bench --lib closed_form_wire_bytes_equal_the_measured_transfer
run_tests -q -p dstress-core traffic_report_is_the_measured_wire_bytes
run_tests -q -p dstress --test privacy_properties gmw_pair_bytes_are_the_transport_tally

echo "==> format versions: a checkpoint or a worker of the previous layout is refused, typed"
run_tests -q -p dstress-core resume_rejects_a_checkpoint_in_the_previous_layout
run_tests -q -p dstress-deploy registration_refuses_a_worker_of_the_previous_protocol_version

echo "==> streaming generators: streaming build == materialised build, degree bounds, determinism"
run_tests -q -p dstress-graph stream::
run_tests -q -p dstress-graph csr_
run_tests -q -p dstress-finance streaming_core_periphery

echo "==> block-streaming execution: streaming == materialised, Sequential == Threaded"
run_tests --release -q -p dstress-core streaming_execution_matches_materialised
run_tests --release -q -p dstress-core streaming_sequential_and_threaded_agree
run_tests --release -q -p dstress-core streaming_runs_csr_graphs_from_edge_streams

echo "==> OT setup: lazy in one-shot executions, once per node pair per engine run"
# A zero-AND circuit charges no setup on the one-shot door; established
# sessions differ from it by exactly one setup per pair and put no
# OtSetup on the wire; an engine run's base OTs are kappa x its distinct
# node pairs, all in the Initialization step.
run_tests -q -p dstress-mpc zero_and_circuit_pays_no_ot_setup
run_tests -q -p dstress-mpc established_sessions_save_exactly_one_setup_per_pair
run_tests -q -p dstress-core runs_set_up_each_node_pair_once_in_initialization
run_tests -q -p dstress-mpc ot_payload_content_is_seed_derived_and_replayable
run_tests -q -p dstress-mpc wire_payload_content_is_derived_from_the_pair_seed

echo "==> state store: backends, spill lifecycle, checkpoint formats and recovery"
# The MemStore/SpillStore contract (bit-identical, segment geometry
# backend-invariant), spill-log compaction, run-dir cleanup on error
# paths, golden checkpoint/segment byte layouts with truncation /
# trailing-garbage / bad-digest rejection, and in-process
# kill-and-resume bit-identity (plain and spilling).
run_tests -q -p dstress-core store::
run_tests -q -p dstress-core spilling_backend_is_bit_identical_to_memory
run_tests -q -p dstress-core spill_directory_is_removed_even_when_a_round_errors
run_tests -q -p dstress-core checkpoint
run_tests -q -p dstress-core kill_and_resume_is_bit_identical
run_tests -q -p dstress-core resume_rejects_missing_and_foreign_checkpoints

echo "==> memory shape: budgeted run past the 10,000-vertex RAM wall, streaming peak heap"
# N = 12,000 with the budget at 1/4 of the store bytes: real spill-file
# bytes and a resident peak under budget (+ segment slack); peak heap
# sub-linear in edges and below the materialised schedule.
run_tests --release -q -p dstress --test streaming_memory -- --ignored

echo "==> DP edge cases: integer budget ledger, geometric clamp"
# The micro-ε budget accounting (max_queries == successful charges at FP
# boundaries and after prior charges, million-charge drift-free totals,
# typed errors) and the for_epsilon underflow clamp.
run_tests -q -p dstress-dp budget::
run_tests -q -p dstress-dp geometric::

echo "==> analytics suite: plaintext references, circuit programs, engine releases"
# The four scenario programs (degree histogram, WCC, SSSP, PageRank):
# circuit == reference on every vertex, engine releases inside the
# analytic error bounds, fixed-point quantisation accounting.
run_tests -q -p dstress-graph analytics::
run_tests --release -q -p dstress-core analytics::

echo "==> recurring releases and scenario rows: ε composition, exhaustion, release bounds"
run_tests --release -q -p dstress-core schedule::
run_tests --release -q -p dstress-bench --lib scenarios::

echo "==> repro -- scenarios smoke (per-program releases)"
cargo run --release -q -p dstress-bench --bin repro -- scenarios --threads 2 > /dev/null

echo "==> kill-and-resume e2e (master halted between rounds, restarted from checkpoint)"
run_tests --release -q -p dstress-deploy --test kill_resume

echo "==> socket frame layer: fault injection errors cleanly, never hangs"
# Torn/partial frames, trailing garbage, oversized length prefixes,
# mid-message disconnects and silent peers all surface as typed
# TransportErrors within the stall timeout. A well-framed message out of
# protocol ends the run at once: the actor that rejects it fails the run
# (Sim and Socket alike), and a GMW party names itself, the peer and the
# layer in a typed MpcError instead of panicking the worker — for raw bytes
# a peer writes too (dirty plane padding, a cut or a trailing byte, a retired
# tag, a count off the layer width, an OT payload short of its length).
run_tests -q -p dstress-net --test socket_faults
run_tests -q -p dstress-net frame::
run_tests -q -p dstress-net socket::
run_tests -q -p dstress-net a_failed_actor_aborts_the_run_at_once
run_tests -q -p dstress-mpc out_of_protocol_peer_ends_the_run_typed_within_a_second
run_tests -q -p dstress-mpc short_ot_payload_ends_the_run_typed
run_tests -q -p dstress-mpc short_ot_payloads_are_rejected_in_every_build
run_tests -q -p dstress-mpc bytes_that_are_not_one_message_end_the_party_with_the_codec_error

echo "==> sessions: faults on a shared connection, the stream envelope, multiplexed determinism, lane shapes"
# One mesh carries many block MPCs as streams.  A fault injected
# mid-stream ends the whole run with its typed error and a late frame for
# a retired stream is dropped; the `uvarint(stream) ‖ payload` envelope is
# pinned as bytes, written and read; executions multiplexed over a reused
# session hit the unregenerated fingerprints and equal one-group runs; the
# lane function takes any window shape (empty, one task, fewer tasks than
# lanes, mixed block sizes) and a worker batch that rolls its sessions
# over equals the per-task door outcome for outcome.
run_tests -q -p dstress-net --test socket_faults shared_connection_faults_end_the_run_with_their_typed_error
run_tests -q -p dstress-net --test socket_faults late_frames_for_retired_streams_are_dropped
run_tests -q -p dstress-net --test socket_faults golden_stream_frame_is_delivered_to_its_stream
run_tests --release -q -p dstress-mpc --test transport_determinism stream_envelope_golden_fixture_and_rejection
run_tests --release -q -p dstress-mpc --test transport_determinism layered_execution_matches_the_pinned_fingerprints
run_tests --release -q -p dstress-mpc --test transport_determinism prop_multiplexed_sessions_equal_one_group_runs
run_tests -q -p dstress-core exec::tests
run_tests -q -p dstress-deploy a_batch_that_rolls_sessions_over_equals_the_per_task_door

echo "==> deployment: engine-level transport invariance + master/worker units"
run_tests --release -q -p dstress-core transport_kind_does_not_change_results
run_tests -q -p dstress-deploy --lib

echo "==> loopback deployment e2e (master + 3 workers, release mode)"
# Spawns the built dstress-master and dstress-node binaries on 127.0.0.1
# and pins the released value bit-for-bit against the in-process run.
run_tests --release -q -p dstress-deploy --test loopback

echo "==> benchmark/: the yardstick builds against the public API, its tests pass, every workload runs"
# benchmark/ is a package of its own, outside the workspace: a public-API
# change that stops it compiling shows up only here.
run_tests --release --manifest-path benchmark/Cargo.toml
benchmark/run.sh --smoke > /dev/null

echo "==> repro command line: accepted names, usage errors, nothing written to the cwd"
run_tests --release -q -p dstress-bench --test repro_cli

echo "==> non-test Rust lines per crate and the five longest functions (scripts/loc.sh)"
./scripts/loc.sh

echo "==> the run left the work tree as it found it"
tree_after=$(tree_state)
if [[ "$tree_after" != "$tree_before" ]]; then
    echo "ci: the work tree changed during the run:" >&2
    diff <(printf '%s\n' "$tree_before") <(printf '%s\n' "$tree_after") >&2 || true
    exit 1
fi

echo "CI gate passed."
