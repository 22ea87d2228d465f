//! The `repro` binary: regenerates every table and figure of the paper's
//! evaluation from the reproduction.
//!
//! Usage (release builds strongly recommended):
//!
//! ```text
//! cargo run -p dstress-bench --release --bin repro -- all
//! cargo run -p dstress-bench --release --bin repro -- fig5 --full
//! cargo run -p dstress-bench --release --bin repro -- all --full --threads 8
//! ```
//!
//! | Experiment | Prints |
//! |---|---|
//! | `fig3-left` | Figure 3 (left): MPC time per circuit vs block size |
//! | `fig3-right` | Figure 3 (right): MPC time vs degree bound / node count |
//! | `fig4` | Figure 4: per-node MPC traffic vs block size |
//! | `transfer-time` | §5.2 message-transfer completion time |
//! | `transfer-traffic` | §5.3 message-transfer traffic per role |
//! | `transfer-ablation` | §3.5 strawman #1–#3 vs the final protocol |
//! | `transfer` | the three `transfer-*` experiments |
//! | `fig5` (`fig5-time`, `fig5-traffic`) | Figure 5: end-to-end phase breakdown and traffic |
//! | `fig6` | Figure 6: the projection at scale, headline and validation run |
//! | `rounds` | rounds per pair, layer-batched vs per-gate GMW (the A/B `DESIGN.md` cites) |
//! | `scenarios` | DP graph-analytics suite through the engine, each release asserted inside its analytic bound |
//! | `analyze` | `dstress-analyze` over every shipped program and circuit; exits non-zero on any finding (`ci.sh`'s certification gate) |
//! | `naive-baseline` | §5.5 monolithic-MPC baseline vs DStress |
//! | `utility` | §4.5 dollar-DP utility table |
//! | `edge-privacy` | Appendix B edge-privacy accounting |
//! | `contagion` | Appendix C contagion scenarios |
//! | `all` | every experiment above, in this order (the default) |
//!
//! `--full` switches the measured experiments from the quick parameters
//! to the paper's (much slower).  The sweeps fan their points out over a
//! worker pool; `--threads N` sets its size (default: one worker per
//! core).  An unknown flag, a second experiment or a malformed
//! `--threads` is a usage error (exit 2); an unknown experiment exits 1.
//!
//! This binary reproduces figures, it is not the yardstick: the
//! `measured` / `sim wall` / `wall` columns are one sample each, taken on
//! this machine while concurrent points contend for cores, and nothing
//! is written to disk.  The `projected` columns come from operation
//! counts and do not depend on the machine or on `--threads`.  Times,
//! bytes, rounds and heap with spreads and bounds are `benchmark/run.sh`
//! (`DESIGN.md`, "Measurement").

use dstress_bench::analyze_suite::analyze_suite_rows;
use dstress_bench::end_to_end::{fig5_sweep, EndToEndParams};
use dstress_bench::mpc_micro::{
    block_size_sweep, parameter_sweep, run_mpc_micro_with, MpcCircuitKind, MpcMicroRow,
};
use dstress_bench::naive_baseline::{baseline_comparison, paper_comparison};
use dstress_bench::policy::{edge_privacy_summary, utility_table};
use dstress_bench::scalability::{
    fig6_node_counts, fig6_sweep, headline_projection, validation_point,
};
use dstress_bench::scenarios::scenario_rows;
use dstress_bench::transfer_micro::{
    block_size_sweep_with_threads as transfer_sweep, variant_sweep as transfer_variants,
};
use dstress_bench::{contagion_study, format_bytes, format_seconds};
use dstress_mpc::GmwBatching;
use dstress_net::pool::default_threads;
use std::sync::OnceLock;

/// The parsed command line, handed to every experiment.
struct Options {
    /// `--full`: the paper's parameters instead of the quick ones.
    full: bool,
    /// `--threads N`: workers the sweeps fan out over.
    threads: usize,
}

fn header(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// The block-size sweep parameters shared by Figure 3 (left) and
/// Figure 4.
fn fig3_fig4_params(full: bool) -> (&'static [usize], usize, usize) {
    if full {
        (&[8, 12, 16, 20], 100, 100)
    } else {
        (&[4, 8, 12], 20, 100)
    }
}

/// The sweep behind Figure 3 (left) and Figure 4: run by whichever of the
/// two is asked for first, rendered as both tables.
fn fig3_fig4_rows(opts: &Options) -> &'static [MpcMicroRow] {
    static ROWS: OnceLock<Vec<MpcMicroRow>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let (blocks, d, n) = fig3_fig4_params(opts.full);
        block_size_sweep(blocks, d, n, opts.threads)
    })
}

fn fig3_left(opts: &Options) {
    header("Figure 3 (left): MPC computation time vs block size");
    let (_, d, n) = fig3_fig4_params(opts.full);
    println!(
        "(degree bound D = {d}, aggregation over N = {n} states; `measured` is one sample on this machine)"
    );
    println!(
        "{:<16} {:>6} {:>10} {:>14} {:>14}",
        "circuit", "block", "AND gates", "measured", "projected"
    );
    for row in fig3_fig4_rows(opts) {
        println!(
            "{:<16} {:>6} {:>10} {:>14} {:>14}",
            row.kind.label(),
            row.block_size,
            row.and_gates,
            format_seconds(row.measured_seconds),
            format_seconds(row.projected_seconds),
        );
    }
}

fn fig3_right(opts: &Options) {
    header("Figure 3 (right): MPC computation time vs degree bound / node count");
    let (block, degrees, nodes): (usize, &[usize], &[usize]) = if opts.full {
        (20, &[10, 40, 70, 100], &[50, 100, 150, 200])
    } else {
        (8, &[10, 40], &[50, 100])
    };
    println!("(block size {block}; `measured` is one sample on this machine)");
    println!(
        "{:<16} {:>6} {:>6} {:>10} {:>14} {:>14}",
        "circuit", "D", "N", "AND gates", "measured", "projected"
    );
    for row in parameter_sweep(block, degrees, nodes, opts.threads) {
        println!(
            "{:<16} {:>6} {:>6} {:>10} {:>14} {:>14}",
            row.kind.label(),
            row.degree_bound,
            row.vertices,
            row.and_gates,
            format_seconds(row.measured_seconds),
            format_seconds(row.projected_seconds),
        );
    }
}

fn fig4(opts: &Options) {
    header("Figure 4: per-node traffic of the MPC circuits vs block size");
    println!("{:<16} {:>6} {:>16}", "circuit", "block", "traffic/node");
    for row in fig3_fig4_rows(opts) {
        println!(
            "{:<16} {:>6} {:>16}",
            row.kind.label(),
            row.block_size,
            format_bytes(row.traffic_per_node_bytes),
        );
    }
}

/// Block sizes of the §5.2 and §5.3 transfer sweeps.
fn transfer_blocks(full: bool) -> &'static [usize] {
    if full {
        &[8, 12, 16, 20]
    } else {
        &[4, 8, 12]
    }
}

fn transfer_time(opts: &Options) {
    header("§5.2: message-transfer completion time vs block size (12-bit message)");
    println!("{:<8} {:>14} {:>14}", "block", "measured", "projected");
    for row in transfer_sweep(transfer_blocks(opts.full), 12, opts.threads) {
        println!(
            "{:<8} {:>14} {:>14}",
            row.block_size,
            format_seconds(row.measured_seconds),
            format_seconds(row.projected_seconds),
        );
    }
    println!("(paper: 285 ms at block size 8, 610 ms at block size 20)");
}

fn transfer_traffic(opts: &Options) {
    header("§5.3: message-transfer traffic per role");
    println!(
        "{:<8} {:>18} {:>18} {:>18}",
        "block", "vertex i recv", "B_i member sent", "B_j member recv"
    );
    for row in transfer_sweep(transfer_blocks(opts.full), 12, opts.threads) {
        println!(
            "{:<8} {:>18} {:>18} {:>18}",
            row.block_size,
            format_bytes(row.vertex_i_received_bytes as f64),
            format_bytes(row.sender_member_sent_bytes as f64),
            format_bytes(row.receiver_member_received_bytes as f64),
        );
    }
    println!("(paper, 48-byte group elements: 97-595 kB, <=29 kB, ~1.4 kB)");
}

fn transfer_ablation(_: &Options) {
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
            format_bytes(row.counts.wire_bytes as f64),
        );
    }
}

fn fig5(opts: &Options) {
    let params = if opts.full {
        EndToEndParams::paper()
    } else {
        EndToEndParams::quick()
    };
    header("Figure 5: end-to-end runs (time breakdown and per-node traffic)");
    println!(
        "(N = {}, D = {}, I = {}; `sim wall` is one sample on this machine)",
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
    for row in fig5_sweep(&params, opts.threads) {
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
    }
}

fn fig6(opts: &Options) {
    header("Figure 6: projected cost at scale (Eisenberg-Noe, block size 20)");
    let nodes = fig6_node_counts(opts.full);
    let degrees: &[usize] = if opts.full {
        &[10, 40, 70, 100]
    } else {
        &[10, 100]
    };
    println!(
        "(all rows are model-only projections; the measured run past N = 2,000 is \
         `benchmark/run.sh --workload stream-spill`)"
    );
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
    }
    let headline = headline_projection();
    println!(
        "Headline (N=1750, D=100): {} and {} per node (paper: ~4.8 h, ~750 MB)",
        format_seconds(headline.result.total_seconds),
        format_bytes(headline.result.bytes_per_node),
    );
    let (n, d, block) = if opts.full { (100, 10, 20) } else { (20, 5, 8) };
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

fn rounds(opts: &Options) {
    header("GMW round batching: rounds per pair, layer-batched vs per-gate");
    let (block, d, n) = if opts.full { (8, 20, 100) } else { (4, 10, 50) };
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
    }
    println!("(batched rounds scale with circuit depth; per-gate rounds with AND-gate count)");
}

fn scenarios(opts: &Options) {
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
    for row in scenario_rows(opts.full) {
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
    }
    println!(
        "(every release must land inside quantisation + Laplace tail at delta = 1e-9; asserted)"
    );
}

fn naive(opts: &Options) {
    header("§5.5: naive monolithic-MPC baseline vs DStress");
    let comparison = if opts.full {
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

fn utility(_: &Options) {
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

fn edge_privacy(_: &Options) {
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

fn contagion(_: &Options) {
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

fn analyze(_: &Options) {
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

/// One experiment: prints its figure or table to stdout.
type Experiment = fn(&Options);

/// Every experiment with the names that select it, in the order `all`
/// runs them.  A name shared by several rows (`transfer`) selects each
/// of them; `all` selects every row.  The usage line and the module
/// doc's table list exactly these names (`tests/repro_cli.rs` checks
/// both).
const EXPERIMENTS: &[(&[&str], Experiment)] = &[
    (&["fig3-left"], fig3_left),
    (&["fig3-right"], fig3_right),
    (&["fig4"], fig4),
    (&["transfer-time", "transfer"], transfer_time),
    (&["transfer-traffic", "transfer"], transfer_traffic),
    (&["transfer-ablation", "transfer"], transfer_ablation),
    (&["fig5", "fig5-time", "fig5-traffic"], fig5),
    (&["fig6"], fig6),
    (&["rounds"], rounds),
    (&["scenarios"], scenarios),
    (&["analyze"], analyze),
    (&["naive-baseline"], naive),
    (&["utility"], utility),
    (&["edge-privacy"], edge_privacy),
    (&["contagion"], contagion),
];

const ALL: &str = "all";

/// The two usage lines: the synopsis, and every accepted experiment name
/// in table order.
fn usage() -> String {
    let mut names: Vec<&str> = Vec::new();
    for name in EXPERIMENTS.iter().flat_map(|(names, _)| names.iter()) {
        if !names.contains(name) {
            names.push(name);
        }
    }
    names.push(ALL);
    format!(
        "usage: repro [EXPERIMENT] [--full] [--threads N]\nexperiments: {}",
        names.join(" ")
    )
}

/// Parses the command line into the experiment name and the options, or
/// says what it could not understand.
fn parse_args(args: &[String]) -> Result<(&str, Options), String> {
    let mut experiment = None;
    let mut opts = Options {
        full: false,
        threads: default_threads(),
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => opts.full = true,
            "--threads" => {
                opts.threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--threads expects a positive integer")?;
            }
            flag if flag.starts_with('-') => return Err(format!("unknown option '{flag}'")),
            name => {
                if let Some(first) = experiment.replace(name) {
                    return Err(format!("more than one experiment: '{first}' and '{name}'"));
                }
            }
        }
    }
    Ok((experiment.unwrap_or(ALL), opts))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, opts) = parse_args(&args).unwrap_or_else(|message| {
        eprintln!("{message}\n{}", usage());
        std::process::exit(2);
    });
    let selected: Vec<Experiment> = EXPERIMENTS
        .iter()
        .filter(|(names, _)| name == ALL || names.contains(&name))
        .map(|&(_, experiment)| experiment)
        .collect();
    if selected.is_empty() {
        eprintln!("unknown experiment '{name}'\n{}", usage());
        std::process::exit(1);
    }
    for experiment in selected {
        experiment(&opts);
    }
}
