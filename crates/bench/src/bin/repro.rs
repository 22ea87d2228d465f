//! The `repro` binary: regenerates every table and figure of the paper's
//! evaluation from the reproduction.
//!
//! Usage (release builds strongly recommended):
//!
//! ```text
//! cargo run -p dstress-bench --release --bin repro -- all
//! cargo run -p dstress-bench --release --bin repro -- fig5-time --full
//! cargo run -p dstress-bench --release --bin repro -- all --full --threads 8
//! ```
//!
//! Experiments: `fig3-left`, `fig3-right`, `fig4`, `transfer-time`,
//! `transfer-traffic`, `transfer-ablation`, `transfer` (the three
//! transfer experiments), `fig5-time`,
//! `fig5-traffic`, `fig6`, `scale`, `naive-baseline`, `utility`,
//! `edge-privacy`, `contagion`, `concurrency`, `sockets`, `rounds`,
//! `bytes`, `persist`, `scenarios`, `analyze`, `all`.  The `analyze`
//! experiment runs the static analyzer (`dstress-analyze`) over every
//! shipped program and circuit — certified ranges, sensitivity bounds,
//! release windows and private-data flow — and exits non-zero on any
//! finding; `ci.sh` uses it as the pre-deployment certification gate.
//! The `scenarios` experiment
//! runs the DP graph-analytics suite (degree histogram, WCC, SSSP,
//! PageRank) through the full engine, asserts every release lands inside
//! its analytic error bound, and A/Bs K recurring full-MPC releases
//! against K PSA releases on one shared privacy budget.
//! The `sockets` experiment runs the same end-to-end deployment on the
//! in-process and the real-TCP transport backends, asserts they are
//! bit-identical, and records measured wall time against the cost
//! model's network projection.  The `bytes`
//! experiment prints the measured-vs-modeled byte reconciliation (encoded
//! wire messages against the analytical cost model) per benchmark
//! circuit, plus the batched-vs-per-gate framing saving.  The `scale`
//! experiment runs the *measured* streaming sweep past the old
//! 2,000-vertex materialisation wall (streaming generators, CSR graphs,
//! block-streaming execution) with per-point peak-memory figures, and
//! labels its model-only continuation points explicitly.  The `persist`
//! experiment is the budgeted continuation of `scale`: the same measured
//! sweep with the state-store byte budget set to a quarter of what the
//! run would keep resident, so every point really pages share state to
//! its spill log — it reports store-resident peak (which must honour the
//! budget), spill-file bytes and peak heap, and ends with an in-process
//! kill-and-resume bit-identity check.  The `--full`
//! flag switches the measured
//! experiments from the quick parameters to the paper's parameters (much
//! slower).  The measured sweeps fan their points out over a worker pool;
//! `--threads N` sets the pool size (default: one worker per core).
//! Concurrent points contend for cores, so per-point `measured` columns
//! are noisier than a `--threads 1` run; the `projected` columns come
//! from operation counts and are unaffected by contention.
//!
//! Every run also writes `BENCH_results.json` — per-sweep-point wall
//! seconds and operation counts — so the performance trajectory is
//! machine-readable across commits.

use dstress_bench::analyze_suite::analyze_suite_rows;
use dstress_bench::end_to_end::{fig5_sweep_with_threads, EndToEndParams};
use dstress_bench::mpc_micro::{
    block_size_sweep_with_threads, deep_narrow_point, parameter_sweep_with_threads,
    run_mpc_micro_with, MpcCircuitKind, MpcMicroRow, DEEP_NARROW_NS_PER_AND_PAIR_BEFORE,
};
use dstress_bench::naive_baseline::{baseline_comparison, paper_comparison};
use dstress_bench::persist::{kill_resume_check, persist_sweep};
use dstress_bench::policy::{edge_privacy_summary, utility_table};
use dstress_bench::results::BenchResults;
use dstress_bench::scalability::{
    concurrency_comparison, fig6_node_counts, fig6_sweep, headline_projection, validation_point,
};
use dstress_bench::scenarios::{recurring_comparison, scenario_rows};
use dstress_bench::streaming_scale::{scale_sweep, streaming_determinism_check, ScaleTopology};
use dstress_bench::transfer_micro::{
    block_size_sweep_with_threads as transfer_sweep, variant_sweep as transfer_variants,
};
use dstress_bench::{contagion_study, format_bytes, format_seconds};
use dstress_mpc::GmwBatching;
use dstress_net::pool::default_threads;

fn header(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// The block-size sweep parameters shared by Figure 3 (left) and
/// Figure 4, and the sweep itself — run once, rendered as both tables.
fn fig3_fig4_params(full: bool) -> (&'static [usize], usize, usize) {
    if full {
        (&[8, 12, 16, 20], 100, 100)
    } else {
        (&[4, 8, 12], 20, 100)
    }
}

fn fig3_fig4_rows(full: bool, threads: usize) -> Vec<MpcMicroRow> {
    let (blocks, d, n) = fig3_fig4_params(full);
    block_size_sweep_with_threads(blocks, d, n, threads)
}

fn fig3_left(rows: &[MpcMicroRow], full: bool, results: &mut BenchResults) {
    header("Figure 3 (left): MPC computation time vs block size");
    let (_, d, n) = fig3_fig4_params(full);
    println!("(degree bound D = {d}, aggregation over N = {n} states)");
    println!(
        "{:<16} {:>6} {:>10} {:>14} {:>14}",
        "circuit", "block", "AND gates", "measured", "projected"
    );
    for row in rows {
        println!(
            "{:<16} {:>6} {:>10} {:>14} {:>14}",
            row.kind.label(),
            row.block_size,
            row.and_gates,
            format_seconds(row.measured_seconds),
            format_seconds(row.projected_seconds),
        );
        results
            .point(
                "fig3-left",
                &format!("{} block={}", row.kind.label(), row.block_size),
            )
            .wall_seconds(row.measured_seconds)
            .counts(row.counts)
            .extra("rounds_per_pair", row.rounds as f64)
            .extra("projected_seconds", row.projected_seconds);
    }
    // Beside the EN-step rows: the same step at D = 5 among 8 parties,
    // where ~500 narrow layers make per-message overhead the whole cost.
    let row = deep_narrow_point(if full { 15 } else { 5 });
    println!(
        "{:<16} {:>6} {:>10} {:>14} {:>14}   D=5, {} layers: {:.1} ns per AND-pair ({:.1} before the pipeline rebuild)",
        "EN deep-narrow",
        row.block_size,
        row.and_gates,
        format_seconds(row.measured_seconds),
        format_seconds(row.projected_seconds),
        row.and_layers,
        row.ns_per_and_pair(),
        DEEP_NARROW_NS_PER_AND_PAIR_BEFORE,
    );
    results
        .point("fig3-left", "EN step deep-narrow D=5 block=8")
        .wall_seconds(row.measured_seconds)
        .counts(row.counts)
        .extra("rounds_per_pair", row.rounds as f64)
        .extra("and_layers", row.and_layers as f64)
        .extra("ns_per_and_pair", row.ns_per_and_pair())
        .extra("ns_per_and_pair_before", DEEP_NARROW_NS_PER_AND_PAIR_BEFORE);
}

fn fig3_right(full: bool, threads: usize, results: &mut BenchResults) {
    header("Figure 3 (right): MPC computation time vs degree bound / node count");
    let (block, degrees, nodes): (usize, &[usize], &[usize]) = if full {
        (20, &[10, 40, 70, 100], &[50, 100, 150, 200])
    } else {
        (8, &[10, 40], &[50, 100])
    };
    println!("(block size {block})");
    println!(
        "{:<16} {:>6} {:>6} {:>10} {:>14} {:>14}",
        "circuit", "D", "N", "AND gates", "measured", "projected"
    );
    for row in parameter_sweep_with_threads(block, degrees, nodes, threads) {
        println!(
            "{:<16} {:>6} {:>6} {:>10} {:>14} {:>14}",
            row.kind.label(),
            row.degree_bound,
            row.vertices,
            row.and_gates,
            format_seconds(row.measured_seconds),
            format_seconds(row.projected_seconds),
        );
        results
            .point(
                "fig3-right",
                &format!(
                    "{} D={} N={}",
                    row.kind.label(),
                    row.degree_bound,
                    row.vertices
                ),
            )
            .wall_seconds(row.measured_seconds)
            .counts(row.counts)
            .extra("rounds_per_pair", row.rounds as f64)
            .extra("projected_seconds", row.projected_seconds);
    }
}

fn fig4(rows: &[MpcMicroRow], results: &mut BenchResults) {
    header("Figure 4: per-node traffic of the MPC circuits vs block size");
    println!("{:<16} {:>6} {:>16}", "circuit", "block", "traffic/node");
    for row in rows {
        println!(
            "{:<16} {:>6} {:>16}",
            row.kind.label(),
            row.block_size,
            format_bytes(row.traffic_per_node_bytes),
        );
        // Wall seconds and counts for these points are recorded under
        // `fig3-left` (same sweep); only the traffic series is new here.
        results
            .point(
                "fig4",
                &format!("{} block={}", row.kind.label(), row.block_size),
            )
            .extra("traffic_per_node_bytes", row.traffic_per_node_bytes);
    }
}

fn transfer_time(full: bool, threads: usize, results: &mut BenchResults) {
    header("§5.2: message-transfer completion time vs block size (12-bit message)");
    let blocks: &[usize] = if full { &[8, 12, 16, 20] } else { &[4, 8, 12] };
    println!("{:<8} {:>14} {:>14}", "block", "measured", "projected");
    for row in transfer_sweep(blocks, 12, threads) {
        println!(
            "{:<8} {:>14} {:>14}",
            row.block_size,
            format_seconds(row.measured_seconds),
            format_seconds(row.projected_seconds),
        );
        results
            .point("transfer-time", &format!("block={}", row.block_size))
            .wall_seconds(row.measured_seconds)
            .counts(row.counts)
            .extra("projected_seconds", row.projected_seconds);
    }
    println!("(paper: 285 ms at block size 8, 610 ms at block size 20)");
}

fn transfer_traffic(full: bool, threads: usize, results: &mut BenchResults) {
    header("§5.3: message-transfer traffic per role");
    let blocks: &[usize] = if full { &[8, 12, 16, 20] } else { &[4, 8, 12] };
    println!(
        "{:<8} {:>18} {:>18} {:>18}",
        "block", "vertex i recv", "B_i member sent", "B_j member recv"
    );
    for row in transfer_sweep(blocks, 12, threads) {
        println!(
            "{:<8} {:>18} {:>18} {:>18}",
            row.block_size,
            format_bytes(row.vertex_i_received_bytes as f64),
            format_bytes(row.sender_member_sent_bytes as f64),
            format_bytes(row.receiver_member_received_bytes as f64),
        );
        results
            .point("transfer-traffic", &format!("block={}", row.block_size))
            .wall_seconds(row.measured_seconds)
            .counts(row.counts)
            .extra(
                "vertex_i_received_bytes",
                row.vertex_i_received_bytes as f64,
            );
    }
    println!("(paper, 48-byte group elements: 97-595 kB, <=29 kB, ~1.4 kB)");
}

fn transfer_ablation(results: &mut BenchResults) {
    header("Protocol ablation: strawman #1-#3 vs the final protocol (block size 8)");
    println!(
        "{:<14} {:>16} {:>14} {:>12}",
        "variant", "exponentiations", "projected", "bytes"
    );
    for row in transfer_variants(8, 12) {
        println!(
            "{:<14} {:>16} {:>14} {:>12}",
            format!("{:?}", row.variant),
            row.counts.exponentiations,
            format_seconds(row.projected_seconds),
            format_bytes(row.counts.bytes_sent as f64),
        );
        results
            .point("transfer-ablation", &format!("{:?}", row.variant))
            .wall_seconds(row.measured_seconds)
            .counts(row.counts)
            .extra("projected_seconds", row.projected_seconds);
    }
}

fn fig5(full: bool, threads: usize, results: &mut BenchResults) {
    let params = if full {
        EndToEndParams::paper()
    } else {
        EndToEndParams::quick()
    };
    header("Figure 5: end-to-end runs (time breakdown and per-node traffic)");
    println!(
        "(N = {}, D = {}, I = {})",
        params.banks, params.degree_bound, params.iterations
    );
    println!(
        "{:<5} {:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>14} {:>14}",
        "alg",
        "block",
        "init",
        "compute",
        "transfer",
        "agg+noise",
        "total",
        "traffic/node",
        "sim wall"
    );
    for row in fig5_sweep_with_threads(&params, threads) {
        let p = row.projected_phase_seconds;
        println!(
            "{:<5} {:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>14} {:>14}",
            row.algorithm.label(),
            row.block_size,
            format_seconds(p[0]),
            format_seconds(p[1]),
            format_seconds(p[2]),
            format_seconds(p[3]),
            format_seconds(row.projected_total_seconds()),
            format_bytes(row.traffic_per_node_bytes),
            format_seconds(row.measured_seconds),
        );
        results
            .point(
                "fig5",
                &format!("{} block={}", row.algorithm.label(), row.block_size),
            )
            .wall_seconds(row.measured_seconds)
            .counts(row.total_counts)
            .extra("projected_total_seconds", row.projected_total_seconds())
            .extra("traffic_per_node_bytes", row.traffic_per_node_bytes);
    }
}

fn fig6(full: bool, results: &mut BenchResults) {
    header("Figure 6: projected cost at scale (Eisenberg-Noe, block size 20)");
    let nodes = fig6_node_counts(full);
    let degrees: &[usize] = if full { &[10, 40, 70, 100] } else { &[10, 100] };
    println!("(all rows are model-only projections; `repro -- scale` has the measured sweep)");
    println!(
        "{:<6} {:>6} {:>5} {:>14} {:>16}",
        "N", "D", "iter", "time", "traffic/node"
    );
    for row in fig6_sweep(nodes, degrees) {
        println!(
            "{:<6} {:>6} {:>5} {:>14} {:>16}",
            row.nodes,
            row.degree_bound,
            row.iterations,
            format_seconds(row.result.total_seconds),
            format_bytes(row.result.bytes_per_node),
        );
        results
            .point("fig6", &format!("N={} D={}", row.nodes, row.degree_bound))
            .extra("projected_seconds", row.result.total_seconds)
            .extra("projected_bytes_per_node", row.result.bytes_per_node)
            .extra("model_only", 1.0);
    }
    let headline = headline_projection();
    println!(
        "Headline (N=1750, D=100): {} and {} per node (paper: ~4.8 h, ~750 MB)",
        format_seconds(headline.result.total_seconds),
        format_bytes(headline.result.bytes_per_node),
    );
    let (n, d, block) = if full { (100, 10, 20) } else { (20, 5, 8) };
    let point = validation_point(n, d, block);
    println!(
        "Validation run (N={}, D={}, block {}): measured-counts {} / projected {}, traffic {} / {}",
        point.nodes,
        point.degree_bound,
        point.block_size,
        format_seconds(point.measured_projected_seconds),
        format_seconds(point.projected_seconds),
        format_bytes(point.measured_bytes_per_node),
        format_bytes(point.projected_bytes_per_node),
    );
}

fn concurrency(full: bool, threads: usize, results: &mut BenchResults) {
    header("Concurrency: sequential vs threaded node runtime (ConcurrencyMode)");
    let node_counts: &[usize] = if full { &[16, 32, 64, 128] } else { &[16, 64] };
    println!(
        "(worker pool: {threads} threads, {} hardware threads available)",
        default_threads()
    );
    println!(
        "{:<8} {:>8} {:>14} {:>14} {:>9} {:>11}",
        "nodes", "block", "sequential", "threaded", "speedup", "identical"
    );
    for &nodes in node_counts {
        let cmp = concurrency_comparison(nodes, threads);
        println!(
            "{:<8} {:>8} {:>14} {:>14} {:>8.2}x {:>11}",
            cmp.nodes,
            cmp.block_size,
            format_seconds(cmp.sequential_seconds),
            format_seconds(cmp.threaded_seconds),
            cmp.speedup(),
            cmp.outputs_identical && cmp.accounting_identical,
        );
        results
            .point("concurrency", &format!("N={nodes} threads={threads}"))
            .wall_seconds(cmp.threaded_seconds)
            .extra("sequential_seconds", cmp.sequential_seconds)
            .extra("speedup", cmp.speedup())
            .extra(
                "identical",
                if cmp.outputs_identical && cmp.accounting_identical {
                    1.0
                } else {
                    0.0
                },
            );
    }
    println!("(threaded runs are bit-identical to sequential; only wall-clock changes)");
}

fn sockets(full: bool, threads: usize, results: &mut BenchResults) {
    use dstress_core::{CounterProgram, DStressConfig, DStressRuntime, TransportKind};
    use dstress_finance::generator::{core_periphery, GeneratorConfig};
    use dstress_net::cost::CostModel;

    header("Sockets: end-to-end run, Sim vs Socket transport (measured vs modeled)");
    let (banks, degree, rounds) = if full { (24, 4, 2) } else { (10, 3, 1) };
    let mut rng = dstress_math::rng::Xoshiro256::new(5);
    let network = core_periphery(&GeneratorConfig::small(banks, degree), &mut rng);
    let graph = network.graph();
    let program = CounterProgram { width: 8, rounds };
    let mut config = DStressConfig::benchmark(2)
        .with_concurrency(dstress_core::ConcurrencyMode::Threaded { threads });
    config.message_bits = 8;
    println!("(N = {banks}, D = {degree}, k = 2, {rounds} iterations, {threads} worker threads)");
    println!(
        "{:<10} {:>12} {:>14} {:>16} {:>14}",
        "transport", "measured", "modeled net", "wire bytes", "identical"
    );

    let mut baseline: Option<(u64, u64)> = None;
    let model = CostModel::paper_reference();
    for (label, transport) in [
        ("sim", TransportKind::Sim),
        ("socket", TransportKind::Socket),
    ] {
        let runtime = DStressRuntime::new(config.clone().with_transport(transport));
        let start = std::time::Instant::now();
        let run = runtime
            .execute(graph, &program)
            .expect("socket smoke run succeeds");
        let wall = start.elapsed().as_secs_f64();
        let counts = run.phases.total_counts();
        let modeled_net = model.estimate_network_seconds(&counts);
        // The transport must be bit-invisible: identical released value
        // and identical measured wire bytes across backends.
        let identical = match baseline {
            None => {
                baseline = Some((run.noised_output.to_bits(), counts.wire_bytes));
                true
            }
            Some((bits, wire)) => bits == run.noised_output.to_bits() && wire == counts.wire_bytes,
        };
        assert!(identical, "socket backend diverged from sim");
        println!(
            "{:<10} {:>12} {:>14} {:>16} {:>14}",
            label,
            format_seconds(wall),
            format_seconds(modeled_net),
            format_bytes(counts.wire_bytes as f64),
            identical,
        );
        results
            .point("sockets", &format!("N={banks} transport={label}"))
            .wall_seconds(wall)
            .counts(counts)
            .extra("modeled_network_seconds", modeled_net)
            .extra("identical", if identical { 1.0 } else { 0.0 });
    }
    println!("(socket runs move every GMW message over real loopback TCP frames)");
}

fn rounds(full: bool, results: &mut BenchResults) {
    header("GMW round batching: rounds per pair, layer-batched vs per-gate");
    let (block, d, n) = if full { (8, 20, 100) } else { (4, 10, 50) };
    println!("(block size {block}, D = {d}, N = {n}; rounds are one-way message hops per pair)");
    println!(
        "{:<16} {:>10} {:>8} {:>14} {:>14} {:>10}",
        "circuit", "AND gates", "depth", "rounds/pair", "per-gate", "reduction"
    );
    for kind in MpcCircuitKind::all() {
        let batched = run_mpc_micro_with(kind, block, d, n, 0xF16, GmwBatching::Layered);
        let per_gate = run_mpc_micro_with(kind, block, d, n, 0xF16, GmwBatching::PerGate);
        let reduction = per_gate.rounds as f64 / batched.rounds as f64;
        println!(
            "{:<16} {:>10} {:>8} {:>14} {:>14} {:>9.1}x",
            kind.label(),
            batched.and_gates,
            batched.and_layers,
            batched.rounds,
            per_gate.rounds,
            reduction,
        );
        results
            .point("rounds", kind.label())
            .counts(batched.counts)
            .extra("rounds_batched", batched.rounds as f64)
            .extra("rounds_per_gate", per_gate.rounds as f64)
            .extra("and_gates", batched.and_gates as f64)
            .extra("and_depth", batched.and_layers as f64)
            .extra("round_reduction", reduction);
    }
    println!("(batched rounds scale with circuit depth; per-gate rounds with AND-gate count)");
}

fn bytes(full: bool, threads: usize, results: &mut BenchResults) {
    header("Wire bytes: measured (encoded messages) vs modeled (cost model) reconciliation");
    let (block, d, n) = if full { (8, 20, 100) } else { (4, 10, 50) };
    println!(
        "(block size {block}, D = {d}, N = {n}; ratio = measured / modeled, \
         saving = per-gate measured / batched measured)"
    );
    println!(
        "{:<16} {:>14} {:>14} {:>7} {:>14} {:>8}",
        "circuit", "modeled", "measured", "ratio", "per-gate meas.", "saving"
    );
    for kind in MpcCircuitKind::all() {
        let batched = run_mpc_micro_with(kind, block, d, n, 0xF17, GmwBatching::Layered);
        let per_gate = run_mpc_micro_with(kind, block, d, n, 0xF17, GmwBatching::PerGate);
        let modeled = batched.counts.bytes_sent;
        let measured = batched.counts.wire_bytes;
        let ratio = measured as f64 / modeled as f64;
        let saving = per_gate.counts.wire_bytes as f64 / measured as f64;
        println!(
            "{:<16} {:>14} {:>14} {:>7.3} {:>14} {:>7.2}x",
            kind.label(),
            format_bytes(modeled as f64),
            format_bytes(measured as f64),
            ratio,
            format_bytes(per_gate.counts.wire_bytes as f64),
            saving,
        );
        results
            .point("bytes", kind.label())
            .counts(batched.counts)
            .extra("measured_bytes", measured as f64)
            .extra("modeled_bytes", modeled as f64)
            .extra("measured_over_modeled", ratio)
            .extra("per_gate_measured_bytes", per_gate.counts.wire_bytes as f64)
            .extra("framing_saving", saving);
    }
    // The transfer protocol's ElGamal hops cross the same wire layer.
    for row in transfer_sweep(&[block], 12, threads) {
        let modeled = row.counts.bytes_sent;
        let measured = row.counts.wire_bytes;
        let ratio = measured as f64 / modeled as f64;
        println!(
            "{:<16} {:>14} {:>14} {:>7.3} {:>14} {:>8}",
            format!("transfer k+1={}", row.block_size),
            format_bytes(modeled as f64),
            format_bytes(measured as f64),
            ratio,
            "-",
            "-",
        );
        results
            .point("bytes", &format!("transfer block={}", row.block_size))
            .counts(row.counts)
            .extra("measured_bytes", measured as f64)
            .extra("modeled_bytes", modeled as f64)
            .extra("measured_over_modeled", ratio);
    }
    println!(
        "(measured > modeled comes from per-message framing; batched measured < per-gate \
         measured because a layer pays one header where the per-gate path pays one per gate)"
    );
}

fn scale(full: bool, threads: usize, results: &mut BenchResults) {
    header("Scale: measured streaming sweep past the 2,000-vertex materialisation wall");
    let measured_nodes: &[usize] = if full {
        &[500, 1000, 2500, 5000, 10_000]
    } else {
        &[500, 2500]
    };
    let model_nodes: &[usize] = if full { &[25_000, 100_000] } else { &[10_000] };
    println!(
        "(streaming generators -> CSR graphs -> block-streaming engine; counter program, \
         block size 3, I = 2, accounted transfers, {threads} worker threads)"
    );
    println!(
        "{:<16} {:>8} {:>9} {:>4} {:>12} {:>10} {:>12} {:>14} {:>9}",
        "topology", "N", "edges", "D", "wall", "gen", "peak mem", "traffic/node", "measured"
    );
    // The sweep runs its points sequentially so each one's peak-memory
    // figure is clean.
    for point in scale_sweep(measured_nodes, model_nodes, threads) {
        if point.measured {
            println!(
                "{:<16} {:>8} {:>9} {:>4} {:>12} {:>10} {:>12} {:>14} {:>9}",
                point.topology,
                point.nodes,
                point.edges,
                point.degree_bound,
                format_seconds(point.wall_seconds),
                format_seconds(point.generation_seconds),
                format_bytes(point.peak_alloc_bytes as f64),
                format_bytes(point.bytes_per_node),
                "yes",
            );
            results
                .point("scale", &format!("{} N={}", point.topology, point.nodes))
                .wall_seconds(point.wall_seconds)
                .counts(point.counts)
                .extra("measured", 1.0)
                .extra("model_only", 0.0)
                .extra("edges", point.edges as f64)
                .extra("degree_bound", point.degree_bound as f64)
                .extra("generation_seconds", point.generation_seconds)
                .extra("peak_alloc_bytes", point.peak_alloc_bytes as f64)
                .extra("spill_file_bytes", point.spill_file_bytes as f64)
                .extra("traffic_per_node_bytes", point.bytes_per_node);
        } else {
            println!(
                "{:<16} {:>8} {:>9} {:>4} {:>12} {:>10} {:>12} {:>14} {:>9}",
                point.topology,
                point.nodes,
                "-",
                point.degree_bound,
                format_seconds(point.wall_seconds),
                "-",
                "-",
                format_bytes(point.bytes_per_node),
                "no (model)",
            );
            results
                .point("scale", &format!("model N={}", point.nodes))
                .extra("measured", 0.0)
                .extra("model_only", 1.0)
                .extra("projected_seconds", point.wall_seconds)
                .extra("projected_bytes_per_node", point.bytes_per_node);
        }
    }
    // The streaming determinism pin, at a point past the old wall.
    let check_n = if full { 2500 } else { 2200 };
    let identical =
        streaming_determinism_check(ScaleTopology::ScaleFree { m: 2 }, check_n, threads);
    println!("Sequential vs threaded streaming at N = {check_n}: bit-identical = {identical}");
    results
        .point("scale", &format!("determinism N={check_n}"))
        .extra("identical", if identical { 1.0 } else { 0.0 });
    assert!(identical, "streaming execution must be schedule-invariant");
}

fn persist(full: bool, threads: usize, results: &mut BenchResults) {
    header("Persist: budgeted (disk-spilling) runs past the RAM wall");
    let nodes: &[usize] = if full {
        &[2_500, 12_000, 25_000]
    } else {
        &[1_200, 12_000]
    };
    println!(
        "(scale workload with the state budget set to 1/4 of the unbudgeted store bytes, \
         so every point pages share state to its run-scoped spill log; {threads} worker threads)"
    );
    println!(
        "{:<8} {:>9} {:>12} {:>12} {:>14} {:>12} {:>12} {:>12} {:>7}",
        "N",
        "edges",
        "unbudgeted",
        "budget",
        "resident peak",
        "spill file",
        "peak heap",
        "wall",
        "ok"
    );
    for point in persist_sweep(nodes, threads) {
        assert!(
            point.spill_file_bytes > 0,
            "a quarter budget must spill at N = {}",
            point.nodes
        );
        assert!(
            point.within_budget(),
            "resident peak {} exceeds budget {} + slack {} at N = {}",
            point.store_resident_peak_bytes,
            point.budget_bytes,
            point.slack_bytes,
            point.nodes
        );
        println!(
            "{:<8} {:>9} {:>12} {:>12} {:>14} {:>12} {:>12} {:>12} {:>7}",
            point.nodes,
            point.edges,
            format_bytes(point.unbudgeted_bytes as f64),
            format_bytes(point.budget_bytes as f64),
            format_bytes(point.store_resident_peak_bytes as f64),
            format_bytes(point.spill_file_bytes as f64),
            format_bytes(point.peak_alloc_bytes as f64),
            format_seconds(point.wall_seconds),
            point.within_budget(),
        );
        results
            .point("persist", &format!("N={}", point.nodes))
            .wall_seconds(point.wall_seconds)
            .counts(point.counts)
            .extra("measured", 1.0)
            .extra("edges", point.edges as f64)
            .extra("unbudgeted_bytes", point.unbudgeted_bytes as f64)
            .extra("budget_bytes", point.budget_bytes as f64)
            .extra(
                "store_resident_peak_bytes",
                point.store_resident_peak_bytes as f64,
            )
            .extra("spill_file_bytes", point.spill_file_bytes as f64)
            .extra("peak_alloc_bytes", point.peak_alloc_bytes as f64)
            .extra(
                "within_budget",
                if point.within_budget() { 1.0 } else { 0.0 },
            );
    }
    // The recovery pin: crash after round 0, resume, same bits.
    let check_n = if full { 500 } else { 200 };
    let identical = kill_resume_check(check_n);
    println!("Kill-and-resume at N = {check_n}: bit-identical = {identical}");
    results
        .point("persist", &format!("kill-resume N={check_n}"))
        .extra("identical", if identical { 1.0 } else { 0.0 });
    assert!(identical, "resume must reproduce the uninterrupted run");
}

fn scenarios(full: bool, results: &mut BenchResults) {
    header("Scenarios: DP graph-analytics suite (engine releases vs plaintext references)");
    println!(
        "{:<18} {:>4} {:>5} {:>12} {:>12} {:>10} {:>10} {:>6} {:>10} {:>12}",
        "program",
        "N",
        "iter",
        "released",
        "reference",
        "|err|",
        "bound",
        "sens",
        "wall",
        "traffic/node"
    );
    for row in scenario_rows(full) {
        assert!(
            row.within_bound(),
            "{} release outside its analytic bound",
            row.program
        );
        println!(
            "{:<18} {:>4} {:>5} {:>12.4} {:>12.4} {:>10.4} {:>10.1} {:>6.2} {:>10} {:>12}",
            row.program,
            row.vertices,
            row.iterations,
            row.released,
            row.reference,
            row.error(),
            row.error_bound,
            row.sensitivity,
            format_seconds(row.measured_seconds),
            format_bytes(row.traffic_per_node_bytes),
        );
        results
            .point("scenarios", row.program)
            .wall_seconds(row.measured_seconds)
            .counts(row.counts)
            .extra("released", row.released)
            .extra("reference", row.reference)
            .extra("released_error", row.error())
            .extra("error_bound", row.error_bound)
            .extra("sensitivity", row.sensitivity)
            .extra("epsilon", row.epsilon)
            .extra("iterations", row.iterations as f64)
            .extra("traffic_per_node_bytes", row.traffic_per_node_bytes);
    }
    println!(
        "(every release must land inside quantisation + Laplace tail at delta = 1e-9; asserted)"
    );

    let cmp = recurring_comparison(full);
    println!(
        "Recurring releases ({} per arm, eps {} each, one shared budget):",
        cmp.releases_per_arm, cmp.epsilon_per_release
    );
    println!(
        "  full MPC {} per release, PSA {} per release  =>  PSA {:.0}x cheaper; eps spent {:.2}",
        format_seconds(cmp.full_seconds_per_release),
        format_seconds(cmp.psa_seconds_per_release),
        cmp.speedup(),
        cmp.epsilon_spent,
    );
    assert!(
        cmp.speedup() > 1.0,
        "PSA releases must be cheaper per release than full MPC"
    );
    results
        .point("scenarios", "recurring full-mpc")
        .wall_seconds(cmp.full_seconds_per_release)
        .extra("releases", cmp.releases_per_arm as f64)
        .extra("mean_value", cmp.full_mean_value)
        .extra("reference", cmp.reference);
    results
        .point("scenarios", "recurring psa")
        .wall_seconds(cmp.psa_seconds_per_release)
        .extra("releases", cmp.releases_per_arm as f64)
        .extra("mean_value", cmp.psa_mean_value)
        .extra("reference", cmp.reference)
        .extra("speedup_vs_full", cmp.speedup())
        .extra("epsilon_spent", cmp.epsilon_spent);
}

fn naive(full: bool, results: &mut BenchResults) {
    header("§5.5: naive monolithic-MPC baseline vs DStress");
    let comparison = if full {
        baseline_comparison(&[4, 6, 8], &[10, 25], 11)
    } else {
        paper_comparison()
    };
    println!(
        "{:<6} {:>10} {:>12} {:>14} {:>14}",
        "N", "executed", "AND gates", "measured", "projected"
    );
    for row in &comparison.rows {
        println!(
            "{:<6} {:>10} {:>12} {:>14} {:>14}",
            row.n,
            row.executed,
            row.and_gates,
            format_seconds(row.measured_seconds),
            format_seconds(row.projected_seconds),
        );
        results
            .point("naive-baseline", &format!("N={}", row.n))
            .wall_seconds(row.measured_seconds)
            .extra("and_gates", row.and_gates as f64)
            .extra("projected_seconds", row.projected_seconds);
    }
    println!(
        "Full scale (N=1750, 11 multiplications): {} ({:.0} years; paper: ~287 years)",
        format_seconds(comparison.full_scale_seconds),
        comparison.full_scale_years,
    );
    println!(
        "DStress projected: {}  =>  speedup ~{:.0}x",
        format_seconds(comparison.dstress_seconds),
        comparison.speedup,
    );
}

fn utility() {
    header("§4.5: dollar-differential-privacy utility analysis");
    println!(
        "{:<24} {:>12} {:>12} {:>16} {:>10} {:>10}",
        "model", "sensitivity", "eps/query", "noise scale", "runs/yr", "P(|err|<200B)"
    );
    for row in utility_table() {
        println!(
            "{:<24} {:>12.1} {:>12.3} {:>14.1}B$ {:>10} {:>10.3}",
            row.model,
            row.sensitivity,
            row.epsilon_query,
            row.noise_scale_dollars / 1e9,
            row.runs_per_year,
            row.accuracy_probability,
        );
    }
    println!("(paper: EGJ sensitivity 20, eps >= 0.23, ~3 runs per year)");
}

fn edge_privacy() {
    header("Appendix B: edge-privacy accounting for the transfer protocol");
    let s = edge_privacy_summary();
    println!("sensitivity (k+1):            {}", s.sensitivity);
    println!("total transfers N_q:          {:.3e}", s.total_transfers);
    println!("paper epsilon per transfer:   {:.3e}", s.paper_epsilon);
    println!("minimum feasible epsilon:     {:.3e}", s.minimum_epsilon);
    println!(
        "failure probability P_fail:   {:.3e}",
        s.failure_probability
    );
    println!(
        "budget per iteration:         {:.4}   (paper: 0.0014)",
        s.budget_per_iteration
    );
    println!(
        "budget per year:              {:.4}   (paper: 0.0469)",
        s.budget_per_year
    );
    println!(
        "fraction of ln 2 budget:      {:.2}%",
        s.fraction_of_annual_budget * 100.0
    );
}

fn contagion() {
    header("Appendix C: contagion scenarios on the 50-bank two-tier network");
    println!(
        "{:<16} {:<6} {:>12} {:>8} {:>10} {:>10}",
        "scenario", "model", "TDS", "failed", "converged", "log2(N)"
    );
    for row in contagion_study::scenario_table(0xC0C0) {
        println!(
            "{:<16} {:<6} {:>12.1} {:>8} {:>10} {:>10}",
            row.scenario,
            match row.model {
                dstress_finance::contagion::ContagionModel::EisenbergNoe => "EN",
                dstress_finance::contagion::ContagionModel::ElliottGolubJackson => "EGJ",
            },
            row.outcome.report.total_shortfall,
            row.outcome.report.failed_banks,
            row.outcome.iterations_to_converge,
            row.iteration_bound,
        );
    }
    let noised = contagion_study::noised_cascade_run(0xBEEF);
    println!(
        "DStress release on the cascade: ideal TDS {:.1}, released {:.1} (Laplace scale {:.1}, relative error {:.1}%)",
        noised.ideal_output,
        noised.noised_output,
        noised.noise_scale,
        noised.relative_error * 100.0,
    );
}

fn analyze_experiment(results: &mut BenchResults) {
    header("Static analysis: certified ranges, sensitivity bounds and private-data flow");
    println!(
        "{:<18} {:<22} {:>8} {:>6} {:>8} {:>8} {:>9} {:>10} {:>22} {:>8}",
        "program",
        "model",
        "upd AND",
        "depth",
        "agg AND",
        "nse AND",
        "declared",
        "certified",
        "aggregate range",
        "findings"
    );
    let rows = analyze_suite_rows();
    let mut total_findings = 0usize;
    for row in &rows {
        println!(
            "{:<18} {:<22} {:>8} {:>6} {:>8} {:>8} {:>9} {:>10} {:>22} {:>8}",
            row.name,
            row.model,
            row.update_and_gates,
            row.update_and_depth,
            row.aggregation_and_gates,
            row.noising_and_gates,
            if row.declared_sensitivity.is_nan() {
                "-".to_string()
            } else {
                format!("{:.4}", row.declared_sensitivity)
            },
            match row.certified_sensitivity {
                Some(c) => format!("{c:.4}"),
                None if row.assumptions > 0 => "lemma".to_string(),
                None => "-".to_string(),
            },
            row.aggregate_interval.to_string(),
            row.findings.len(),
        );
        total_findings += row.findings.len();
        results
            .point("analyze", &row.name)
            .wall_seconds(row.wall_seconds)
            .extra("update_and_gates", row.update_and_gates as f64)
            .extra("update_and_depth", row.update_and_depth as f64)
            .extra("aggregation_and_gates", row.aggregation_and_gates as f64)
            .extra("noising_and_gates", row.noising_and_gates as f64)
            .extra("declared_sensitivity", row.declared_sensitivity)
            .extra(
                "certified_sensitivity",
                row.certified_sensitivity.unwrap_or(-1.0),
            )
            .extra("assumptions", row.assumptions as f64)
            .extra("findings", row.findings.len() as f64);
    }
    if total_findings > 0 {
        eprintln!("\nanalysis findings:");
        for row in &rows {
            for f in &row.findings {
                eprintln!("  [{}] {f}", row.name);
            }
        }
        eprintln!("analyze: {total_findings} findings — certification FAILED");
        std::process::exit(1);
    }
    println!("\nanalyze: {} artifacts certified, 0 findings", rows.len());
}

fn run(experiment: &str, full: bool, threads: usize, results: &mut BenchResults) -> bool {
    match experiment {
        "fig3-left" => fig3_left(&fig3_fig4_rows(full, threads), full, results),
        "fig3-right" => fig3_right(full, threads, results),
        "fig4" => fig4(&fig3_fig4_rows(full, threads), results),
        "transfer-time" => transfer_time(full, threads, results),
        "transfer-traffic" => transfer_traffic(full, threads, results),
        "transfer-ablation" => transfer_ablation(results),
        "transfer" => {
            transfer_time(full, threads, results);
            transfer_traffic(full, threads, results);
            transfer_ablation(results);
        }
        "fig5-time" | "fig5-traffic" | "fig5" => fig5(full, threads, results),
        "fig6" => fig6(full, results),
        "scale" => scale(full, threads, results),
        "persist" => persist(full, threads, results),
        "concurrency" => concurrency(full, threads, results),
        "sockets" => sockets(full, threads, results),
        "rounds" => rounds(full, results),
        "bytes" => bytes(full, threads, results),
        "scenarios" => scenarios(full, results),
        "analyze" => analyze_experiment(results),
        "naive-baseline" => naive(full, results),
        "utility" => utility(),
        "edge-privacy" => edge_privacy(),
        "contagion" => contagion(),
        "all" => {
            // Figures 3 (left) and 4 share one sweep; run it once.
            let rows = fig3_fig4_rows(full, threads);
            fig3_left(&rows, full, results);
            fig3_right(full, threads, results);
            fig4(&rows, results);
            for exp in [
                "transfer-time",
                "transfer-traffic",
                "transfer-ablation",
                "fig5",
                "fig6",
                "scale",
                "persist",
                "concurrency",
                "sockets",
                "rounds",
                "bytes",
                "scenarios",
                "analyze",
                "naive-baseline",
                "utility",
                "edge-privacy",
                "contagion",
            ] {
                run(exp, full, threads, results);
            }
        }
        _ => return false,
    }
    true
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let threads = match args.iter().position(|a| a == "--threads") {
        Some(i) => match args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
            Some(n) => n.max(1),
            None => {
                eprintln!("--threads expects a positive integer");
                std::process::exit(1);
            }
        },
        None => default_threads(),
    };
    let experiment = args
        .iter()
        .enumerate()
        .filter(|(i, _)| *i == 0 || args[i - 1] != "--threads")
        .find(|(_, a)| !a.starts_with("--"))
        .map(|(_, a)| a.clone())
        .unwrap_or_else(|| "all".to_string());
    let mut results = BenchResults::new(threads, full);
    if !run(&experiment, full, threads, &mut results) {
        eprintln!("unknown experiment '{experiment}'");
        eprintln!(
            "available: fig3-left fig3-right fig4 transfer-time transfer-traffic \
             transfer-ablation transfer fig5 fig6 scale persist concurrency \
             sockets rounds bytes scenarios analyze naive-baseline utility edge-privacy \
             contagion all"
        );
        std::process::exit(1);
    }
    let path = std::path::Path::new("BENCH_results.json");
    match results.write_to(path) {
        Ok(()) => println!(
            "\nwrote {} points to {}",
            results.points.len(),
            path.display()
        ),
        Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
    }
}
