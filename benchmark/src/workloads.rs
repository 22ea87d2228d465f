//! The four release workloads.
//!
//! A workload is a set of generated inputs plus one closed-loop client:
//! [`Workload::release`] performs one complete DP release and returns
//! when the released number is out; the next release starts only then.
//! Inputs derive from the `--seed` argument alone (the graph seed and
//! the engine seed are two draws of one SplitMix64 stream); the engine
//! receives only the generated inputs.  Why each workload exists is in
//! [`crate::metrics::WORKLOADS`] and in the README.

use crate::tracing::TracingExecutor;
use dstress_circuit::Circuit;
use dstress_core::engine::RuntimeError;
use dstress_core::store::packed_bytes;
use dstress_core::{
    execute_plaintext, CheckpointConfig, ConcurrencyMode, CounterProgram, DStressConfig,
    DStressRun, DStressRuntime, SecureVertexProgram, StepExecutor, TransferMode, TransportKind,
};
use dstress_crypto::group::GroupKind;
use dstress_deploy::{run_master, run_worker, MasterConfig};
use dstress_dp::laplace::LaplaceMechanism;
use dstress_finance::generator::{apply_shock, core_periphery, GeneratorConfig};
use dstress_finance::{CircuitParams, EisenbergNoeProgram, EisenbergNoeSecure, FinancialNetwork};
use dstress_graph::stream::BarabasiAlbertStream;
use dstress_graph::{execute_reference, Graph, VertexId};
use dstress_math::rng::{DetRng, SplitMix64, Xoshiro256};
use dstress_net::cost::OperationCounts;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Probability that the Laplace noise of a release leaves the interval
/// the correctness gate allows.
const LAPLACE_TAIL_DELTA: f64 = 1e-9;

/// Regulatory leverage bound of the Eisenberg–Noe program (sets its
/// sensitivity, `1 / r`).
const LEVERAGE_BOUND: f64 = 0.1;

/// Share of the plaintext Eisenberg–Noe aggregate by which the circuit's
/// aggregate may differ from it (plus one money unit).
const EN_QUANTISATION_SHARE: f64 = 0.5;

/// Input sizes: the measured ones, or the `--smoke` ones (at most ten
/// vertices, seconds in total).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sizing {
    /// The sizes the benchmark reports.
    Full,
    /// Tiny inputs that only prove every workload runs and checks.
    Smoke,
}

enum Body {
    /// Eisenberg–Noe over a shocked core–periphery network.
    EisenbergNoe {
        network: FinancialNetwork,
        iterations: u32,
    },
    /// The counter program through `execute` or `execute_streaming`.
    Counter {
        graph: Graph,
        program: CounterProgram,
        streaming: bool,
    },
    /// A master and its worker fleet over loopback TCP.
    Deploy { master: MasterConfig, graph: Graph },
}

/// One workload's generated inputs and engine configuration.  Why each
/// exists is recorded in [`crate::metrics::WORKLOADS`].
pub struct Workload {
    body: Body,
    config: DStressConfig,
    /// Scratch directory (spill logs, checkpoints) inside the checkout.
    tmp: PathBuf,
    checkpoint_serial: AtomicU64,
}

/// What every release of a workload is checked against.
pub struct Reference {
    /// The plaintext reference's aggregate.
    pub ideal: f64,
    /// Released bits and total counts every same-seed release must
    /// repeat: the in-process run's on `deploy-loopback`, the first
    /// release's elsewhere.
    pub repeat: Option<(u64, OperationCounts)>,
}

/// Runs `f` with the workload's graph and program, whichever concrete
/// program type the workload uses.
macro_rules! with_program {
    ($workload:expr, |$graph:ident, $program:ident| $body:expr) => {
        match &$workload.body {
            Body::EisenbergNoe {
                network,
                iterations,
            } => {
                let $graph = network.graph();
                let $program = &EisenbergNoeSecure {
                    network,
                    params: CircuitParams::default_params(),
                    iterations: *iterations,
                    leverage_bound: LEVERAGE_BOUND,
                };
                $body
            }
            Body::Counter { graph, program, .. } => {
                let $graph = graph;
                let $program = program;
                $body
            }
            Body::Deploy { master, graph } => {
                let $graph = graph;
                let $program = &CounterProgram {
                    width: master.width,
                    rounds: master.rounds,
                };
                $body
            }
        }
    };
}

impl Workload {
    /// Generates the inputs of workload `name` from `seed`.
    ///
    /// # Errors
    ///
    /// Returns a description if `name` is unknown or the scratch
    /// directory cannot be created.
    pub fn prepare(name: &str, seed: u64, sizing: Sizing, tmp: &Path) -> Result<Self, String> {
        let mut seeds = SplitMix64::new(seed);
        let graph_seed = seeds.next_u64();
        let engine_seed = seeds.next_u64();
        let smoke = sizing == Sizing::Smoke;
        let spill = tmp.join("spill");
        std::fs::create_dir_all(&spill)
            .map_err(|e| format!("create scratch directory {}: {e}", spill.display()))?;

        let (body, mut config) = match name {
            "en-fig5" => {
                let (banks, degree, iterations, k) =
                    if smoke { (8, 3, 1, 2) } else { (20, 5, 3, 7) };
                let generator = GeneratorConfig::small(banks, degree);
                let mut network = core_periphery(&generator, &mut Xoshiro256::new(graph_seed));
                let shocked: Vec<VertexId> = (0..(generator.core_banks / 2).max(1))
                    .map(VertexId)
                    .collect();
                apply_shock(&mut network, &shocked, 0.95);
                (
                    Body::EisenbergNoe {
                        network,
                        iterations,
                    },
                    DStressConfig::benchmark(k),
                )
            }
            "realcrypto-ring" => {
                let (n, k) = if smoke { (6, 2) } else { (12, 7) };
                let graph = ring_with_chord_strides(n, 3, &mut Xoshiro256::new(graph_seed));
                let mut config = DStressConfig::small_test(k);
                config.group = GroupKind::Prod256;
                debug_assert_eq!(config.transfer_mode, TransferMode::RealCrypto);
                (
                    Body::Counter {
                        graph,
                        program: CounterProgram {
                            width: 12,
                            rounds: 2,
                        },
                        streaming: false,
                    },
                    config,
                )
            }
            "stream-spill" => {
                let n = if smoke { 10 } else { 4_000 };
                let mut stream = BarabasiAlbertStream::new(n, 2, 8, graph_seed);
                let graph = Graph::from_edge_stream(&mut stream)
                    .map_err(|e| format!("stream-spill graph: {e}"))?;
                let program = CounterProgram {
                    width: 8,
                    rounds: 2,
                };
                let mut config = DStressConfig::benchmark(2)
                    .with_concurrency(ConcurrencyMode::Threaded { threads: 2 });
                config.message_bits = 8;
                // A quarter of what the three stores (state plus the
                // double-buffered inbox) would keep resident, so every
                // release really pages.
                let block = config.block_size();
                let unbudgeted = packed_bytes(n * block, program.state_bits() as usize)
                    + 2 * packed_bytes(graph.edge_count() * block, 8);
                config = config.with_state_budget((unbudgeted / 4).max(1));
                (
                    Body::Counter {
                        graph,
                        program,
                        streaming: true,
                    },
                    config,
                )
            }
            "deploy-loopback" => {
                let master = MasterConfig {
                    fleet: 2,
                    banks: if smoke { 10 } else { 600 },
                    degree_bound: if smoke { 3 } else { 5 },
                    width: 8,
                    rounds: if smoke { 1 } else { 3 },
                    collusion_bound: 2,
                    seed: engine_seed,
                    graph_seed,
                    worker_transport: TransportKind::Socket,
                    checkpoint_dir: None,
                    halt_after_round: None,
                };
                let graph = master.build_graph();
                let config = master.engine_config();
                (Body::Deploy { master, graph }, config)
            }
            other => return Err(format!("unknown workload {other:?}")),
        };
        config.seed = engine_seed;
        config = config.with_spill_dir(spill);
        Ok(Workload {
            body,
            config,
            tmp: tmp.to_path_buf(),
            checkpoint_serial: AtomicU64::new(0),
        })
    }

    /// The generated graph.
    pub fn graph(&self) -> &Graph {
        with_program!(self, |graph, _program| graph)
    }

    /// The engine configuration of a release (on `deploy-loopback`, the
    /// deployment's `engine_config()`).
    pub fn config(&self) -> &DStressConfig {
        &self.config
    }

    /// The deployment description, on `deploy-loopback`.
    pub fn master(&self) -> Option<&MasterConfig> {
        match &self.body {
            Body::Deploy { master, .. } => Some(master),
            _ => None,
        }
    }

    /// Vertex computation steps of one release: `N * (I + 1)`.
    pub fn vertex_steps(&self) -> u64 {
        let iterations = with_program!(self, |_graph, program| program.iterations());
        self.graph().vertex_count() as u64 * (u64::from(iterations) + 1)
    }

    /// Message width of the program in bits.
    pub fn message_bits(&self) -> u32 {
        with_program!(self, |_graph, program| program.message_bits())
    }

    /// Builds the program's update circuit at the graph's degree bound.
    pub fn update_circuit(&self) -> Circuit {
        with_program!(self, |graph, program| program
            .update_circuit(graph.degree_bound()))
    }

    /// The Laplace mechanism the release draws from.
    pub fn mechanism(&self) -> LaplaceMechanism {
        let sensitivity = with_program!(self, |_graph, program| program.sensitivity());
        LaplaceMechanism::new(sensitivity, self.config.epsilon)
    }

    /// A fresh checkpoint directory for one release of `stream-spill`.
    fn checkpointed(&self, config: &DStressConfig) -> (DStressConfig, Option<PathBuf>) {
        if !matches!(
            &self.body,
            Body::Counter {
                streaming: true,
                ..
            }
        ) {
            return (config.clone(), None);
        }
        let serial = self.checkpoint_serial.fetch_add(1, Ordering::Relaxed);
        let dir = self.tmp.join(format!("checkpoint-{serial}"));
        (
            config
                .clone()
                .with_checkpoint(CheckpointConfig::every_round(dir.clone())),
            Some(dir),
        )
    }

    /// One release through the engine in this process, on `executor` if
    /// given, else on the workload's own schedule.
    fn engine_release(
        &self,
        config: &DStressConfig,
        executor: Option<&dyn StepExecutor>,
    ) -> Result<DStressRun, RuntimeError> {
        let (config, checkpoint_dir) = self.checkpointed(config);
        let runtime = DStressRuntime::new(config);
        let streaming = matches!(
            &self.body,
            Body::Counter {
                streaming: true,
                ..
            }
        );
        let run = with_program!(self, |graph, program| match executor {
            Some(executor) => runtime.execute_with(graph, program, executor),
            None if streaming => runtime.execute_streaming(graph, program),
            None => runtime.execute(graph, program),
        });
        if let Some(dir) = checkpoint_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        run
    }

    /// One release, as the workload's client sees it.
    ///
    /// # Errors
    ///
    /// Returns a description of the failure: an engine error, or on
    /// `deploy-loopback` a listener, connection or worker failure.
    pub fn release(&self) -> Result<DStressRun, String> {
        match &self.body {
            Body::Deploy { master, .. } => deployed_release(master),
            _ => self
                .engine_release(&self.config, None)
                .map_err(|e| e.to_string()),
        }
    }

    /// One release through the tracing executor.  `execute_with` runs a
    /// single window, so on `stream-spill` the traced schedule is the
    /// materialised one; on `deploy-loopback` the traced run is the
    /// in-process run of `engine_config()` with socket-transport block
    /// MPCs (the deployed run's executor is the deploy layer's own).
    ///
    /// # Errors
    ///
    /// Returns the engine error as text.
    pub fn release_traced(&self, executor: &TracingExecutor) -> Result<DStressRun, String> {
        self.engine_release(
            &self.in_process_config(TransportKind::Socket),
            Some(executor),
        )
        .map_err(|e| e.to_string())
    }

    /// The release's engine configuration for an in-process run; only
    /// `deploy-loopback` has a transport to choose (its workers' one).
    fn in_process_config(&self, deploy_transport: TransportKind) -> DStressConfig {
        match &self.body {
            Body::Deploy { .. } => self.config.clone().with_transport(deploy_transport),
            _ => self.config.clone(),
        }
    }

    /// On `deploy-loopback`, the same release run inside this process
    /// with the block MPCs on `transport`.
    ///
    /// # Errors
    ///
    /// Returns the engine error as text.
    pub fn in_process_release(&self, transport: TransportKind) -> Result<DStressRun, String> {
        self.engine_release(&self.in_process_config(transport), None)
            .map_err(|e| e.to_string())
    }

    /// Computes what every release is checked against.
    ///
    /// # Errors
    ///
    /// Returns a description if the reference itself is inconsistent:
    /// the Eisenberg–Noe circuit's ideal aggregate strays from the
    /// finance crate's plaintext vertex program by more than the
    /// quantisation bound, or the in-process reference run of
    /// `deploy-loopback` fails.
    pub fn reference(&self) -> Result<Reference, String> {
        let ideal = with_program!(self, |graph, program| execute_plaintext(graph, program));
        if let Body::EisenbergNoe {
            network,
            iterations,
        } = &self.body
        {
            let plaintext = execute_reference(
                network.graph(),
                &EisenbergNoeProgram {
                    network,
                    iterations: *iterations,
                    leverage_bound: LEVERAGE_BOUND,
                },
            )
            .aggregate;
            // A gross-error gate, not a precision claim: the circuit
            // floors money and pro-rata fractions to 1/32 in every step,
            // which biases the shortfall upwards by up to 18 % of the
            // aggregate at this size (measured over 40 seeds, see the
            // test below).  It catches an update circuit that no longer
            // computes Eisenberg-Noe, which the exact comparison against
            // `execute_plaintext` cannot see: both evaluate that circuit.
            let bound = 1.0 + EN_QUANTISATION_SHARE * plaintext.abs();
            if (ideal - plaintext).abs() > bound {
                return Err(format!(
                    "circuit aggregate {ideal} is further than the quantisation bound {bound} \
                     from the plaintext Eisenberg-Noe aggregate {plaintext}"
                ));
            }
        }
        let repeat = match &self.body {
            Body::Deploy { .. } => {
                let run = self
                    .in_process_release(TransportKind::Sim)
                    .map_err(|e| format!("in-process reference run: {e}"))?;
                Some((run.noised_output.to_bits(), run.phases.total_counts()))
            }
            _ => None,
        };
        Ok(Reference { ideal, repeat })
    }

    /// Checks one release against the reference, and pins the first
    /// release's bits and counts for the following ones.
    ///
    /// # Errors
    ///
    /// Returns which check failed.
    pub fn check(&self, run: &DStressRun, reference: &mut Reference) -> Result<(), String> {
        // Engine and reference evaluate the same circuits, so the
        // quantisation bound between them is zero.
        if run.ideal_output.to_bits() != reference.ideal.to_bits() {
            return Err(format!(
                "ideal output {} differs from the plaintext reference {}",
                run.ideal_output, reference.ideal
            ));
        }
        let tail = -self.mechanism().scale() * LAPLACE_TAIL_DELTA.ln();
        let noise = (run.noised_output - run.ideal_output).abs();
        if noise.is_nan() || noise > tail {
            return Err(format!(
                "noise {noise} exceeds the Laplace tail {tail} at delta {LAPLACE_TAIL_DELTA}"
            ));
        }
        let observed = (run.noised_output.to_bits(), run.phases.total_counts());
        match &reference.repeat {
            None => reference.repeat = Some(observed),
            Some(expected) if *expected != observed => {
                return Err(format!(
                    "release is not bit-identical to the same-seed reference: \
                     noised {} vs {}, counts {:?} vs {:?}",
                    f64::from_bits(observed.0),
                    f64::from_bits(expected.0),
                    observed.1,
                    expected.1
                ));
            }
            Some(_) => {}
        }
        Ok(())
    }
}

/// A directed ring on `n` vertices plus, for each of `chords` distinct
/// strides drawn from `rng`, the chord `v -> v + stride (mod n)` at every
/// vertex.  Every vertex has in- and out-degree `chords + 1`, so the
/// number of edges — and with it the work of a release — is the same for
/// every seed; only which vertices are neighbours changes.
fn ring_with_chord_strides(n: usize, chords: usize, rng: &mut dyn DetRng) -> Graph {
    assert!(chords + 2 <= n, "not enough distinct strides");
    let mut strides = vec![1];
    while strides.len() <= chords {
        let stride = 2 + rng.next_below(n as u64 - 2) as usize;
        if !strides.contains(&stride) {
            strides.push(stride);
        }
    }
    let mut graph = Graph::new(n, strides.len());
    for v in 0..n {
        for &stride in &strides {
            graph
                .add_edge(VertexId(v), VertexId((v + stride) % n))
                .expect("distinct strides below n give distinct edges within the degree bound");
        }
    }
    graph
}

/// One deployed release of `master`: a fresh listener on an ephemeral loopback
/// port, the worker fleet as threads of this process, the master driven
/// to completion, and every worker joined with its result checked.
pub fn deployed_release(master: &MasterConfig) -> Result<DStressRun, String> {
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind master listener: {e}"))?;
    let address = listener
        .local_addr()
        .map_err(|e| format!("master listener address: {e}"))?
        .to_string();
    let workers: Vec<_> = (0..master.fleet)
        .map(|_| {
            let address = address.clone();
            std::thread::spawn(move || run_worker(&address))
        })
        .collect();
    // A failed master drops its fleet connections, which ends every
    // worker with a typed error, so the joins below cannot hang.
    let report = run_master(master, listener);
    let mut failures = Vec::new();
    for (index, worker) in workers.into_iter().enumerate() {
        match worker.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => failures.push(format!("worker {index}: {e}")),
            Err(_) => failures.push(format!("worker {index} panicked")),
        }
    }
    let report = report.map_err(|e| format!("master: {e}"))?;
    if failures.is_empty() {
        Ok(report.run)
    } else {
        Err(failures.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dstress-benchmark-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// No seed may make the reference itself fail: the driver runs the
    /// benchmark on seeds nobody has tried.
    #[test]
    fn en_fig5_reference_holds_on_many_seeds() {
        let tmp = scratch("en-seeds");
        let mut worst: f64 = 0.0;
        for seed in 0..40 {
            let workload = Workload::prepare("en-fig5", seed, Sizing::Full, &tmp).unwrap();
            let reference = workload
                .reference()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let Body::EisenbergNoe {
                network,
                iterations,
            } = &workload.body
            else {
                unreachable!()
            };
            let plaintext = execute_reference(
                network.graph(),
                &EisenbergNoeProgram {
                    network,
                    iterations: *iterations,
                    leverage_bound: LEVERAGE_BOUND,
                },
            )
            .aggregate;
            assert!(
                plaintext > 1.0,
                "seed {seed}: the shock must cause a shortfall"
            );
            worst = worst.max((reference.ideal - plaintext).abs() / plaintext);
        }
        assert!(
            worst < 0.6 * EN_QUANTISATION_SHARE,
            "worst share {worst} leaves no margin"
        );
        let _ = std::fs::remove_dir_all(tmp);
    }

    #[test]
    fn ring_with_chord_strides_is_regular_for_every_seed() {
        let mut shapes = std::collections::BTreeSet::new();
        for seed in 0..20 {
            let graph = ring_with_chord_strides(12, 3, &mut Xoshiro256::new(seed));
            assert_eq!((graph.edge_count(), graph.degree_bound()), (48, 4));
            for v in graph.vertices() {
                assert_eq!((graph.out_degree(v), graph.in_degree(v)), (4, 4));
                assert!(graph.has_edge(v, VertexId((v.0 + 1) % 12)));
            }
            shapes.insert(graph.out_neighbors(VertexId(0)).to_vec());
        }
        assert!(shapes.len() > 5, "the seed must change the chords");
    }

    #[test]
    fn same_seed_gives_the_same_inputs_and_another_seed_other_ones() {
        let tmp = scratch("seeds");
        for spec in &metrics::WORKLOADS {
            let edges = |seed| {
                let workload = Workload::prepare(spec.name, seed, Sizing::Smoke, &tmp).unwrap();
                let graph = workload.graph();
                let list: Vec<_> = graph
                    .vertices()
                    .flat_map(|v| graph.out_neighbors(v).iter().map(move |&to| (v.0, to.0)))
                    .collect();
                (list, workload.config().seed)
            };
            assert_eq!(edges(5), edges(5), "{}", spec.name);
            assert_ne!(edges(5).1, edges(6).1, "{}", spec.name);
        }
        let _ = std::fs::remove_dir_all(tmp);
    }

    #[test]
    fn check_rejects_wrong_noisy_and_unrepeatable_releases() {
        let tmp = scratch("check");
        let workload = Workload::prepare("realcrypto-ring", 3, Sizing::Smoke, &tmp).unwrap();
        let mut reference = workload.reference().unwrap();
        let good = workload.release().unwrap();
        workload.check(&good, &mut reference).unwrap();
        workload
            .check(&workload.release().unwrap(), &mut reference)
            .unwrap();

        let mut wrong = good.clone();
        wrong.ideal_output += 1.0;
        assert!(workload
            .check(&wrong, &mut reference)
            .unwrap_err()
            .contains("plaintext reference"));
        let mut noisy = good.clone();
        noisy.noised_output = good.ideal_output + 1e6;
        assert!(workload
            .check(&noisy, &mut reference)
            .unwrap_err()
            .contains("Laplace tail"));
        let mut drifted = good.clone();
        drifted.noised_output += 0.5;
        assert!(workload
            .check(&drifted, &mut reference)
            .unwrap_err()
            .contains("bit-identical"));
        let mut recounted = good.clone();
        recounted.phases.computation.counts.and_gates += 1;
        assert!(workload
            .check(&recounted, &mut reference)
            .unwrap_err()
            .contains("bit-identical"));
        let _ = std::fs::remove_dir_all(tmp);
    }

    #[test]
    fn stream_spill_really_spills_and_checkpoints_leave_nothing_behind() {
        let tmp = scratch("spill");
        // Smoke size fits one segment; a few hundred vertices page.
        let mut workload = Workload::prepare("stream-spill", 9, Sizing::Smoke, &tmp).unwrap();
        let mut stream = BarabasiAlbertStream::new(400, 2, 8, 9);
        let graph = Graph::from_edge_stream(&mut stream).unwrap();
        let Body::Counter { graph: slot, .. } = &mut workload.body else {
            unreachable!()
        };
        *slot = graph;
        workload.config.state_budget_bytes = Some(4096);
        let run = workload.release().unwrap();
        assert!(run.spill_file_bytes > 0);
        let left: Vec<_> = std::fs::read_dir(&tmp)
            .unwrap()
            .chain(std::fs::read_dir(tmp.join("spill")).unwrap())
            .map(|e| e.unwrap().file_name())
            .filter(|name| name != "spill")
            .collect();
        assert!(left.is_empty(), "left behind: {left:?}");
        let _ = std::fs::remove_dir_all(tmp);
    }
}
