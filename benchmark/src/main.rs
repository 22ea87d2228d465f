//! The DStress benchmark.
//!
//! One command runs every workload as a closed loop with one client
//! (one release at a time, the next starts when the previous returns),
//! prints every metric by name with its unit, and checks every release
//! for correctness.  It claims no gain: it is the yardstick later
//! changes are measured with.  See `benchmark/README.md`.
//!
//! ```text
//! benchmark/run.sh                      # all workloads, both passes
//! benchmark/run.sh --workload en-fig5 --seed 7 --seconds 12 --trace 0
//! benchmark/run.sh --smoke              # tiny inputs, seconds in total
//! ```

// `GlobalAlloc` cannot be implemented without `unsafe`; `alloc` is the
// only module that uses it.
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod alloc;
mod json;
mod metrics;
mod probes;
mod stats;
mod tracing;
mod workloads;

use dstress_core::{DStressRun, TransportKind};
use dstress_deploy::MasterConfig;
use json::Value;
use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use tracing::{Trace, TracingExecutor};
use workloads::{deployed_release, Reference, Sizing, Workload};

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 0xD57E55;
/// Fresh processes one end-to-end run measures in, one after another.
/// Each sets up once (so `setup_s` is a median over real cold starts,
/// and work a change moves into process-wide caches still shows in every
/// sample) and then times releases for its share of `--seconds`.  The
/// samples are pooled, so what one process's memory layout happens to
/// cost is averaged over several layouts within a single run.
const MEASURING_PROCESSES: usize = 3;
/// Fewest timed releases of a pass, however short `--seconds` is.
const MIN_TIMED_RELEASES: usize = 3;
/// Where results, traces and scratch files go, relative to the root of
/// the checkout (the working directory `run.sh` establishes).
const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds N] \
[--trace 0|1] [--smoke] | --print-benchmark-json | --compare A.json B.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `Some(false)`: end-to-end pass only; `Some(true)`: traced pass
    /// only; `None`: both.
    trace: Option<bool>,
    sizing: Sizing,
    /// Act as one measuring process of an end-to-end run.
    measure: bool,
    print_benchmark_json: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: None,
        sizing: Sizing::Full,
        measure: false,
        print_benchmark_json: false,
        compare: None,
    };
    let mut rest = argv.iter();
    while let Some(flag) = rest.next() {
        let mut value = || {
            rest.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if metrics::workload(name).is_none() {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload {name:?}; known: {known:?}"));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => {
                let text = value()?;
                args.seed = parse_u64(text).ok_or_else(|| format!("bad --seed {text:?}"))?;
            }
            "--seconds" => {
                let text = value()?;
                args.seconds = text
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 60.0)
                    .ok_or_else(|| format!("bad --seconds {text:?} (0 < s <= 60)"))?;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other:?} (0 or 1)")),
                });
            }
            "--smoke" => args.sizing = Sizing::Smoke,
            "--measure" => args.measure = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            "--compare" => {
                let a = PathBuf::from(value()?);
                let b = PathBuf::from(value()?);
                args.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// This process's scratch directory; removed when the guard drops.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Result<Self, String> {
        let path = Path::new(OUT_DIR).join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(Scratch(path))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Releases attempted and failed, with the first failures' reasons.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
}

impl Tally {
    fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 5 {
            self.reasons.push(reason);
        }
    }

    /// Records that a pass ended in an error.  If no release of the pass
    /// was counted as failed (a probe or a set-up process failed
    /// instead), the error counts as one failed attempt, so a result is
    /// never reported correct after an error.
    fn pass_failed(&mut self, failed_before: u64, reason: String) {
        eprintln!("{reason}");
        if self.failed == failed_before {
            self.attempted += 1;
            self.fail(reason);
        }
    }

    /// Performs one release, checks it, and returns the run record and
    /// the release's wall seconds if both succeeded.
    fn release(
        &mut self,
        reference: &mut Reference,
        workload: &Workload,
        release: impl FnOnce() -> Result<DStressRun, String>,
    ) -> Option<(DStressRun, f64)> {
        self.attempted += 1;
        let start = Instant::now();
        let outcome = release();
        let seconds = start.elapsed().as_secs_f64();
        match outcome.and_then(|run| workload.check(&run, reference).map(|()| run)) {
            Ok(run) => Some((run, seconds)),
            Err(reason) => {
                self.fail(reason);
                None
            }
        }
    }
}

/// A workload ready to measure: inputs generated, reference computed,
/// one warm-up release done and checked.
struct Ready {
    workload: Workload,
    reference: Reference,
    /// Input generation plus the first (cold) release, in seconds.  The
    /// reference computation in between belongs to the benchmark, not
    /// to the system, and is left out.
    setup_seconds: f64,
}

fn set_up(
    name: &str,
    seed: u64,
    sizing: Sizing,
    tmp: &Path,
    tally: &mut Tally,
) -> Result<Ready, String> {
    let start = Instant::now();
    let workload = Workload::prepare(name, seed, sizing, tmp)?;
    let generation = start.elapsed();
    let mut reference = workload.reference()?;
    let (_, warm_up) = tally
        .release(&mut reference, &workload, || workload.release())
        .ok_or_else(|| format!("warm-up release failed: {}", tally.reasons.join("; ")))?;
    Ok(Ready {
        workload,
        reference,
        setup_seconds: generation.as_secs_f64() + warm_up,
    })
}

type Metrics = BTreeMap<&'static str, f64>;

/// What one measuring process found: its set-up time, the wall time of
/// every timed release, and the totals of the last release.
struct Measurement {
    setup_seconds: f64,
    samples: Vec<f64>,
    peak_heap_bytes: u64,
    wire_bytes: u64,
    rounds: u64,
    vertices: u64,
    vertex_steps: u64,
    tally: Tally,
}

impl Measurement {
    fn to_json(&self) -> Value {
        Value::obj([
            ("setup_seconds", Value::Num(self.setup_seconds)),
            (
                "samples",
                Value::Arr(self.samples.iter().map(|&s| Value::Num(s)).collect()),
            ),
            ("peak_heap_bytes", Value::Num(self.peak_heap_bytes as f64)),
            ("wire_bytes", Value::Num(self.wire_bytes as f64)),
            ("rounds", Value::Num(self.rounds as f64)),
            ("vertices", Value::Num(self.vertices as f64)),
            ("vertex_steps", Value::Num(self.vertex_steps as f64)),
            ("attempted", Value::Num(self.tally.attempted as f64)),
            ("failed", Value::Num(self.tally.failed as f64)),
            (
                "reasons",
                Value::Arr(self.tally.reasons.iter().map(Value::str).collect()),
            ),
        ])
    }

    fn from_json(doc: &Value) -> Option<Self> {
        let number = |key: &str| doc.get(key)?.as_f64();
        Some(Measurement {
            setup_seconds: number("setup_seconds")?,
            samples: doc
                .get("samples")?
                .as_arr()?
                .iter()
                .map(Value::as_f64)
                .collect::<Option<_>>()?,
            peak_heap_bytes: number("peak_heap_bytes")? as u64,
            wire_bytes: number("wire_bytes")? as u64,
            rounds: number("rounds")? as u64,
            vertices: number("vertices")? as u64,
            vertex_steps: number("vertex_steps")? as u64,
            tally: Tally {
                attempted: number("attempted")? as u64,
                failed: number("failed")? as u64,
                reasons: doc
                    .get("reasons")?
                    .as_arr()?
                    .iter()
                    .map(|r| r.as_str().map(str::to_string))
                    .collect::<Option<_>>()?,
            },
        })
    }
}

/// What a measuring process does (`--measure`): one set-up, the timed
/// closed loop with the allocator's counting off, then one counted
/// release for the heap peak.  A failed release ends the loop (it may
/// have waited on a time-out); the tally carries the failure.
fn measure(
    name: &str,
    seed: u64,
    sizing: Sizing,
    seconds: f64,
    tmp: &Path,
) -> Result<Measurement, String> {
    let mut tally = Tally::default();
    let Ready {
        workload,
        mut reference,
        setup_seconds,
    } = set_up(name, seed, sizing, tmp, &mut tally)?;

    let budget = Duration::from_secs_f64(seconds);
    let pass_start = Instant::now();
    let mut samples = Vec::new();
    let mut totals = None;
    while samples.len() < MIN_TIMED_RELEASES || pass_start.elapsed() < budget {
        let Some((run, seconds)) = tally.release(&mut reference, &workload, || workload.release())
        else {
            break;
        };
        samples.push(seconds);
        totals = Some(run.phases.total_counts());
    }
    let (counted, peak_heap_bytes) =
        alloc::peak_during(|| tally.release(&mut reference, &workload, || workload.release()));
    let totals = match (totals, counted) {
        (Some(totals), Some(_)) => totals,
        _ => return Err(format!("a release failed: {}", tally.reasons.join("; "))),
    };
    Ok(Measurement {
        setup_seconds,
        samples,
        peak_heap_bytes,
        wire_bytes: totals.wire_bytes,
        rounds: totals.rounds,
        vertices: workload.graph().vertex_count() as u64,
        vertex_steps: workload.vertex_steps(),
        tally,
    })
}

/// Runs [`measure`] in a fresh process and reads back what it printed.
fn measure_in_fresh_process(name: &str, args: &Args, seconds: f64) -> Result<Measurement, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--measure", "--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.sizing == Sizing::Smoke {
        command.arg("--smoke");
    }
    // `output` waits until the process has ended.
    let output = command
        .output()
        .map_err(|e| format!("start measuring process: {e}"))?;
    if !output.status.success() {
        return Err(format!("measuring process ended with {}", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .and_then(|line| json::parse(line).ok())
        .and_then(|doc| Measurement::from_json(&doc))
        .ok_or_else(|| "measuring process printed no result".to_string())
}

/// The end-to-end pass: [`MEASURING_PROCESSES`] fresh processes, their
/// samples pooled.
fn end_to_end_pass(name: &str, args: &Args, tally: &mut Tally) -> Result<Metrics, String> {
    let share = args.seconds / MEASURING_PROCESSES as f64;
    let mut measurements = Vec::new();
    for _ in 0..MEASURING_PROCESSES {
        let measurement = measure_in_fresh_process(name, args, share)?;
        tally.attempted += measurement.tally.attempted;
        tally.failed += measurement.tally.failed;
        tally
            .reasons
            .extend(measurement.tally.reasons.iter().cloned());
        measurements.push(measurement);
    }
    let first = &measurements[0];
    if measurements
        .iter()
        .any(|m| (m.wire_bytes, m.rounds) != (first.wire_bytes, first.rounds))
    {
        tally.attempted += 1;
        tally.fail("same-seed processes disagree on wire bytes or rounds".to_string());
    }

    let column = |f: fn(&Measurement) -> f64| -> Vec<f64> { measurements.iter().map(f).collect() };
    let samples: Vec<f64> = measurements
        .iter()
        .flat_map(|m| m.samples.iter().copied())
        .collect();
    let release_s = stats::median(&samples);
    let mut metrics = Metrics::new();
    metrics.insert("setup_s", stats::median(&column(|m| m.setup_seconds)));
    metrics.insert("release_s", release_s);
    metrics.insert("vertex_steps_per_s", first.vertex_steps as f64 / release_s);
    metrics.insert(
        "wire_bytes_per_node",
        first.wire_bytes as f64 / first.vertices as f64,
    );
    metrics.insert("protocol_rounds", first.rounds as f64);
    metrics.insert(
        "peak_heap_bytes",
        stats::median(&column(|m| m.peak_heap_bytes as f64)),
    );

    let [q1, q2, q3] = stats::quartiles(&samples);
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "  release_s: {} samples over {MEASURING_PROCESSES} processes, min {min:.4}, \
         quartiles {q1:.4} / {q2:.4} / {q3:.4}, IQR {:.2} % of median",
        samples.len(),
        100.0 * stats::iqr_frac(&samples),
    );
    println!(
        "  per process: release_s medians {:.4?}, setup_s {:.4?}",
        measurements
            .iter()
            .map(|m| stats::median(&m.samples))
            .collect::<Vec<_>>(),
        column(|m| m.setup_seconds),
    );
    Ok(metrics)
}

/// User plus system CPU seconds this process has used so far.
fn process_cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in clock ticks; the command
    // name (field 2) may contain spaces, so count from its closing
    // parenthesis.  Linux has reported 100 ticks per second on every
    // architecture for two decades.
    const TICKS_PER_SECOND: f64 = 100.0;
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            let after_name = &stat[stat.rfind(')')? + 1..];
            let mut fields = after_name.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / TICKS_PER_SECOND)
        })
        .unwrap_or(0.0)
}

/// The traced pass: a short untraced loop for the base line, one
/// release through the tracing executor, one counted release, the
/// deployment comparisons, and the layer probes.
fn traced_pass(
    name: &str,
    args: &Args,
    tmp: &Path,
    tally: &mut Tally,
) -> Result<(Metrics, Trace), String> {
    let Ready {
        workload,
        mut reference,
        ..
    } = set_up(name, args.seed, args.sizing, tmp, tally)?;
    let failed = |tally: &Tally, what: &str| format!("{what} failed: {}", tally.reasons.join("; "));

    // Untraced base line, with the CPU time it took.
    let budget = Duration::from_secs_f64(args.seconds / 3.0);
    let pass_start = Instant::now();
    let cpu_start = process_cpu_seconds();
    let mut samples = Vec::new();
    while samples.len() < MIN_TIMED_RELEASES || pass_start.elapsed() < budget {
        let (_, seconds) = tally
            .release(&mut reference, &workload, || workload.release())
            .ok_or_else(|| failed(tally, "untraced release"))?;
        samples.push(seconds);
    }
    let cpu_s = (process_cpu_seconds() - cpu_start) / samples.len() as f64;
    let untraced = stats::median(&samples);

    // The traced release.
    let tracer = TracingExecutor::start(args.seed);
    let (run, traced_seconds) = tally
        .release(&mut reference, &workload, || {
            workload.release_traced(&tracer)
        })
        .ok_or_else(|| failed(tally, "traced release"))?;
    let trace = tracer.finish();

    // The counting allocator's price, on this workload's own release.
    let (counted, _) =
        alloc::peak_during(|| tally.release(&mut reference, &workload, || workload.release()));
    let (_, counted_seconds) = counted.ok_or_else(|| failed(tally, "counted release"))?;

    let mut m = Metrics::new();
    let probes = probes::run_all(&workload, tmp)?;
    m.extend(probes.values);

    // core: the run record and the executor's spans.
    let phases = &run.phases;
    m.insert("core.phase_init_s", phases.initialization.wall_seconds);
    m.insert("core.phase_comp_s", phases.computation.wall_seconds);
    m.insert("core.phase_comm_s", phases.communication.wall_seconds);
    m.insert("core.phase_agg_s", phases.aggregation.wall_seconds);
    m.insert(
        "core.store_resident_peak_bytes",
        run.store_resident_peak_bytes as f64,
    );
    m.insert("core.spill_file_bytes", run.spill_file_bytes as f64);
    let block_steps = trace.durations("block_step");
    let transfers = trace.durations("transfer");
    let in_executor = trace.total("block_step") + trace.total("transfer");
    m.insert("core.exec_block_steps_s", trace.total("block_step"));
    m.insert("core.exec_transfers_s", trace.total("transfer"));
    m.insert(
        "core.block_step_p50_us",
        1e6 * stats::percentile(&block_steps, 50.0),
    );
    m.insert(
        "core.block_step_p99_us",
        1e6 * stats::percentile(&block_steps, 99.0),
    );
    m.insert(
        "core.transfer_p50_us",
        1e6 * stats::percentile(&transfers, 50.0),
    );
    m.insert(
        "core.transfer_p99_us",
        1e6 * stats::percentile(&transfers, 99.0),
    );
    m.insert("core.window_self_s", trace.self_total("window"));
    // The unexplained remainder: everything the release spent outside
    // the executor's spans (set-up, gathering, store traffic, task
    // building, checkpoints, aggregation and noising).
    m.insert("core.engine_self_s", traced_seconds - in_executor);

    // node: the deployed release against the same work in this process,
    // and against a deployment whose workers' block MPCs stay in-process.
    let (mut vs_inprocess, mut socket_share) = (0.0, 0.0);
    // What the traced release is compared with: the untraced release of
    // the same placement.
    let mut trace_base = untraced;
    if let Some(master) = workload.master() {
        let (_, in_process) = tally
            .release(&mut reference, &workload, || {
                workload.in_process_release(TransportKind::Socket)
            })
            .ok_or_else(|| failed(tally, "in-process release"))?;
        vs_inprocess = untraced / in_process;
        trace_base = in_process;
        let sim_workers = MasterConfig {
            worker_transport: TransportKind::Sim,
            ..master.clone()
        };
        let (_, sim) = tally
            .release(&mut reference, &workload, || deployed_release(&sim_workers))
            .ok_or_else(|| failed(tally, "deployed release with in-process worker MPCs"))?;
        socket_share = (untraced - sim) / untraced;
    }
    m.insert("node.vs_inprocess_ratio", vs_inprocess);
    m.insert("node.socket_share", socket_share);

    // run: diagnostics of the run itself.
    let totals = phases.total_counts();
    m.insert("run.cpu_s", cpu_s);
    m.insert("run.release_iqr_frac", stats::iqr_frac(&samples));
    m.insert(
        "run.trace_overhead_frac",
        (traced_seconds - trace_base) / trace_base,
    );
    m.insert(
        "run.alloc_count_overhead_frac",
        (counted_seconds - untraced) / untraced,
    );
    m.insert("run.and_gates", totals.and_gates as f64);
    m.insert("run.extended_ots", totals.extended_ots as f64);
    m.insert("run.exponentiations", totals.exponentiations as f64);
    m.insert(
        "run.fixed_base_exponentiations",
        totals.fixed_base_exponentiations as f64,
    );
    m.insert("run.block_steps", block_steps.len() as f64);
    m.insert("run.transfers", transfers.len() as f64);

    // model: probe cost x count, over the phase the traced run measured.
    let ratio = |model: f64, measured: f64| {
        if measured > 0.0 {
            model / measured
        } else {
            0.0
        }
    };
    m.insert(
        "model.comp_explained_frac",
        ratio(
            block_steps.len() as f64 * probes.gmw_exec_seconds,
            phases.computation.wall_seconds,
        ),
    );
    m.insert(
        "model.comm_explained_frac",
        ratio(
            transfers.len() as f64 * probes.transfer_seconds,
            phases.communication.wall_seconds,
        ),
    );

    println!(
        "  traced release {traced_seconds:.4} s (untraced, same placement: {trace_base:.4} s): \
         init {:.1} %, computation {:.1} %, communication {:.1} %, aggregation {:.1} %, \
         outside executor spans {:.1} %",
        100.0 * phases.initialization.wall_seconds / traced_seconds,
        100.0 * phases.computation.wall_seconds / traced_seconds,
        100.0 * phases.communication.wall_seconds / traced_seconds,
        100.0 * phases.aggregation.wall_seconds / traced_seconds,
        100.0 * (traced_seconds - in_executor) / traced_seconds,
    );
    if workload.config().state_budget_bytes.is_some() {
        println!(
            "  note: execute_with runs a single window, so the traced release of this workload is \
             the materialised schedule; peak_heap_bytes is taken around execute_streaming"
        );
    }
    if workload.master().is_some() {
        println!(
            "  note: the deployed release runs on the deploy layer's own executor; the traced \
             release is the in-process run of engine_config() with socket-transport block MPCs"
        );
    }
    Ok((m, trace))
}

/// `nproc`, the CPU's model string and the commit, printed with every
/// result.
fn fingerprint() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Value::obj([
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu", Value::Str(cpu)),
        (
            "commit",
            Value::Str(
                std::env::var("DSTRESS_BENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string()),
            ),
        ),
    ])
}

fn metrics_json(metrics: &Metrics, unit_of: impl Fn(&str) -> &'static str) -> Value {
    Value::obj(metrics.iter().map(|(name, value)| {
        (
            *name,
            Value::obj([
                ("value", Value::Num(*value)),
                ("unit", Value::str(unit_of(name))),
            ]),
        )
    }))
}

fn print_table(metrics: &Metrics, unit_of: impl Fn(&str) -> &'static str) {
    for (name, value) in metrics {
        println!("  {name:<36} {value:>18.6} {}", unit_of(name));
    }
}

fn end_to_end_unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

fn per_layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

/// Runs the selected workloads and passes; returns the process's exit
/// code.
fn run(args: &Args) -> Result<ExitCode, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let scratch = Scratch::create()?;
    let machine = fingerprint();
    println!("machine: {}", machine.to_line());
    println!(
        "seed {:#x}, {} s per pass, closed loop with one client{}",
        args.seed,
        args.seconds,
        if args.sizing == Sizing::Smoke {
            ", smoke sizes"
        } else {
            ""
        }
    );

    let selected: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let mut tally = Tally::default();
    let mut per_workload = Vec::new();
    for name in &selected {
        let mut entry = Vec::new();
        let before = (tally.attempted, tally.failed);
        if args.trace != Some(true) {
            println!("{name}: end-to-end pass");
            match end_to_end_pass(name, args, &mut tally) {
                Ok(metrics) => {
                    print_table(&metrics, end_to_end_unit);
                    entry.push(("end_to_end", metrics_json(&metrics, end_to_end_unit)));
                }
                Err(reason) => {
                    tally.pass_failed(before.1, format!("{name}: end-to-end pass: {reason}"))
                }
            }
        }
        if args.trace != Some(false) {
            println!("{name}: traced pass and layer probes");
            let failed_before = tally.failed;
            match traced_pass(name, args, &scratch.0, &mut tally) {
                Ok((metrics, trace)) => {
                    print_table(&metrics, per_layer_unit);
                    entry.push(("per_layer", metrics_json(&metrics, per_layer_unit)));
                    // Spans stay in memory until the run has ended.
                    let path = Path::new(OUT_DIR).join(format!("trace-{name}.json"));
                    std::fs::write(&path, trace.to_json().to_pretty())
                        .map_err(|e| format!("write {}: {e}", path.display()))?;
                    println!(
                        "  {} spans written to {}",
                        trace.spans.len(),
                        path.display()
                    );
                }
                Err(reason) => {
                    tally.pass_failed(failed_before, format!("{name}: traced pass: {reason}"))
                }
            }
        }
        println!(
            "{name}: runs_attempted {} runs_failed {}",
            tally.attempted - before.0,
            tally.failed - before.1
        );
        per_workload.push((*name, Value::obj(entry)));
    }
    for reason in &tally.reasons {
        eprintln!("failed release: {reason}");
    }

    let correct = tally.failed == 0;
    // The driver's form: one workload, one pass, its metrics at the top.
    let result_metrics = match (&args.workload, args.trace, per_workload.first()) {
        (Some(_), Some(traced), Some((_, entry))) => entry
            .get(if traced { "per_layer" } else { "end_to_end" })
            .cloned()
            .unwrap_or(Value::Obj(Vec::new())),
        _ => Value::obj(per_workload.clone()),
    };
    let latest = Value::obj([
        ("machine", machine),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(tally.attempted as f64)),
        ("failed", Value::Num(tally.failed as f64)),
        ("workloads", Value::obj(per_workload)),
    ]);
    let latest_path = Path::new(OUT_DIR).join("latest.json");
    std::fs::write(&latest_path, latest.to_pretty())
        .map_err(|e| format!("write {}: {e}", latest_path.display()))?;
    drop(scratch);

    println!(
        "{}",
        Value::obj([
            ("correct", Value::Bool(correct)),
            ("attempted", Value::Num(tally.attempted as f64)),
            ("failed", Value::Num(tally.failed as f64)),
            ("metrics", result_metrics),
        ])
        .to_line()
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `--compare A B`: two result files of the same commit must agree on
/// every end-to-end metric of every workload within the metric's bound.
fn compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let load = |path: &Path| -> Result<Value, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (a, b) = (load(a)?, load(b)?);
    let mut disagreements = 0;
    for workload in &WORKLOADS {
        for metric in &END_TO_END {
            let read = |doc: &Value| {
                doc.get("workloads")?
                    .get(workload.name)?
                    .get("end_to_end")?
                    .get(metric.name)?
                    .get("value")?
                    .as_f64()
            };
            let (Some(first), Some(second)) = (read(&a), read(&b)) else {
                return Err(format!(
                    "{} / {} is missing from a result file",
                    workload.name, metric.name
                ));
            };
            // Neither set may be worse than the other by more than the
            // bound, so the difference is taken against the smaller one.
            let worse = (second - first).abs() / first.min(second);
            let verdict = if worse <= metric.bound {
                "ok"
            } else {
                "DISAGREE"
            };
            if worse > metric.bound {
                disagreements += 1;
            }
            println!(
                "{:<16} {:<20} {first:>16.6} {second:>16.6} {:>7.2} % (bound {:.0} %) {verdict}",
                workload.name,
                metric.name,
                100.0 * worse,
                100.0 * metric.bound
            );
        }
    }
    if disagreements == 0 {
        println!("stable: both sets agree within every bound");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("unstable: {disagreements} metric(s) differ by more than their bound");
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        if args.print_benchmark_json {
            print!("{}", metrics::benchmark_json());
            return Ok(ExitCode::SUCCESS);
        }
        if let Some((a, b)) = &args.compare {
            return compare(a, b);
        }
        if args.measure {
            let name = args
                .workload
                .as_deref()
                .ok_or("--measure needs --workload")?;
            let scratch = Scratch::create()?;
            let measurement = measure(name, args.seed, args.sizing, args.seconds, &scratch.0)?;
            println!("{}", measurement.to_json().to_line());
            return Ok(ExitCode::SUCCESS);
        }
        run(&args)
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("dstress-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let a = args(&[
            "--workload",
            "en-fig5",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("en-fig5"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, Some(true)));
        assert_eq!(args(&["--seed", "0xD57E55"]).unwrap().seed, DEFAULT_SEED);
        let d = args(&[]).unwrap();
        assert_eq!(
            (d.seed, d.trace, d.sizing),
            (DEFAULT_SEED, None, Sizing::Full)
        );
        assert_eq!(d.seconds, RUN_SECONDS as f64);
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "61"],
            &["--trace", "2"],
            &["--trace"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// All four workloads at smoke sizes, both passes in this process:
    /// every release is checked, every registered metric is reported,
    /// nothing fails.
    #[test]
    fn smoke_mode_exercises_all_four_workloads() {
        let scratch =
            std::env::temp_dir().join(format!("dstress-benchmark-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        let smoke = Args {
            seconds: 0.05,
            sizing: Sizing::Smoke,
            ..args(&[]).unwrap()
        };
        let started = Instant::now();
        for workload in &WORKLOADS {
            let measured = measure(
                workload.name,
                smoke.seed,
                smoke.sizing,
                smoke.seconds,
                &scratch,
            )
            .unwrap();
            assert_eq!(
                measured.tally.failed, 0,
                "{}: {:?}",
                workload.name, measured.tally.reasons
            );
            assert!(measured.vertices <= 10 && measured.samples.len() >= MIN_TIMED_RELEASES);
            assert!(measured.setup_seconds > 0.0 && measured.peak_heap_bytes > 0);
            assert!(measured.wire_bytes > 0 && measured.rounds > 0);
            let read_back =
                Measurement::from_json(&json::parse(&measured.to_json().to_line()).unwrap());
            assert_eq!(read_back.unwrap().samples, measured.samples);

            let mut tally = Tally::default();
            let (traced, trace) = traced_pass(workload.name, &smoke, &scratch, &mut tally).unwrap();
            assert_eq!(tally.failed, 0, "{}: {:?}", workload.name, tally.reasons);
            assert!(trace.spans.len() > 1);
            let reported: Vec<&str> = traced.keys().copied().collect();
            let mut registered: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
            registered.sort_unstable();
            assert_eq!(reported, registered, "{}", workload.name);
            assert!(traced.values().all(|v| v.is_finite()), "{}", workload.name);
        }
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "smoke mode must take seconds"
        );
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
