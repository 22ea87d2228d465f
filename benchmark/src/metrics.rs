//! The benchmark's registry: every workload and every metric by name.
//!
//! `BENCHMARK.json` at the repository root is generated from these
//! tables (`--print-benchmark-json`) and a test keeps the two equal, so
//! a name, unit, direction or bound is stated exactly once.

use crate::json::Value;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: its name and the one-line reason it exists.
pub struct WorkloadSpec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Which layer does the work, in one line (at most 200 characters).
    pub why: &'static str,
}

/// One end-to-end metric, with the share of the parent's median by
/// which it may worsen before a change counts as a regression.
pub struct EndToEndSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound.
    pub bound: f64,
}

/// One per-layer metric (no bound: it explains, it does not gate).
pub struct LayerSpec {
    /// Metric name, prefixed by the crate it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 18;

/// The four workloads.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "en-fig5",
        why: "Eisenberg-Noe on a 20-bank core-periphery network, block 8, accounted transfers (the paper's Fig. 5 shape): mpc + circuit do nearly all the work, transfer/store/net almost none",
    },
    WorkloadSpec {
        name: "realcrypto-ring",
        why: "counter program on a 4-regular ring with real ElGamal transfers on the 256-bit group, block 8: transfer + crypto + math do nearly all the work, the update circuit is tiny",
    },
    WorkloadSpec {
        name: "stream-spill",
        why: "counter program streamed over a scale-free graph, block 3, 2 threads, quarter-size state budget, per-round checkpoints: engine windows, spill store, checkpoint I/O and per-MPC fixed cost",
    },
    WorkloadSpec {
        name: "deploy-loopback",
        why: "master plus two workers over loopback TCP with socket-transport block MPCs: net (socket mesh, frames) and node (proto, remote executor) do the work; the only one moving real bytes",
    },
];

/// The six end-to-end metrics, reported by every workload.
pub const END_TO_END: [EndToEndSpec; 6] = [
    EndToEndSpec {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndSpec {
        name: "release_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndSpec {
        name: "vertex_steps_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEndSpec {
        name: "wire_bytes_per_node",
        unit: "B",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEndSpec {
        name: "protocol_rounds",
        unit: "count",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEndSpec {
        name: "peak_heap_bytes",
        unit: "B",
        better: Better::Lower,
        bound: 0.03,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> LayerSpec {
    LayerSpec { name, unit, better }
}

use Better::{Higher, Lower};

/// The per-layer metrics, reported by every workload's traced run.  A
/// metric that does not apply to a workload reads 0 there (for example
/// `core.spill_file_bytes` where nothing spills).
pub const PER_LAYER: [LayerSpec; 64] = [
    // math: the Prod256 field under every real-crypto transfer.
    layer("math.fp_mul_ns", "ns", Lower),
    layer("math.fp_pow_us", "us", Lower),
    // crypto: group kernels in the workload's own group.
    layer("crypto.pow_us", "us", Lower),
    layer("crypto.fixed_base_pow_us", "us", Lower),
    layer("crypto.multi_pow32_us", "us", Lower),
    layer("crypto.dlog_hit_ns", "ns", Lower),
    layer("crypto.dlog_bsgs_us", "us", Lower),
    layer("crypto.encrypt_shared_c1_us", "us", Lower),
    layer("crypto.kernels_build_ms", "ms", Lower),
    // circuit: the workload's own update circuit.
    layer("circuit.update_build_ms", "ms", Lower),
    layer("circuit.layering_ms", "ms", Lower),
    layer("circuit.and_gates", "count", Lower),
    layer("circuit.and_depth", "count", Lower),
    // mpc: one block MPC of that circuit at the workload's block size.
    layer("mpc.gmw_exec_ms", "ms", Lower),
    layer("mpc.ns_per_and_pair", "ns", Lower),
    layer("mpc.gmw_fixed_us", "us", Lower),
    layer("mpc.ot_batch_ns_per_ot", "ns", Lower),
    layer("mpc.wire_bytes_per_exec", "B", Lower),
    // transfer: one edge at the workload's group, block size and width.
    layer("transfer.message_ms", "ms", Lower),
    layer("transfer.generate_system_ms", "ms", Lower),
    layer("transfer.exps_per_message", "count", Lower),
    // net: wire codec and loopback sockets.
    layer("net.wire_choices_encode_ns", "ns", Lower),
    layer("net.wire_choices_decode_ns", "ns", Lower),
    layer("net.socket_mesh_ms", "ms", Lower),
    layer("net.frame_roundtrip_us", "us", Lower),
    // core: the run record of the traced release.
    layer("core.phase_init_s", "s", Lower),
    layer("core.phase_comp_s", "s", Lower),
    layer("core.phase_comm_s", "s", Lower),
    layer("core.phase_agg_s", "s", Lower),
    layer("core.store_resident_peak_bytes", "B", Lower),
    layer("core.spill_file_bytes", "B", Lower),
    // core: the tracing executor's spans.
    layer("core.exec_block_steps_s", "s", Lower),
    layer("core.exec_transfers_s", "s", Lower),
    layer("core.block_step_p50_us", "us", Lower),
    layer("core.block_step_p99_us", "us", Lower),
    layer("core.transfer_p50_us", "us", Lower),
    layer("core.transfer_p99_us", "us", Lower),
    layer("core.window_self_s", "s", Lower),
    layer("core.engine_self_s", "s", Lower),
    // core: probes of the store, checkpoint and task codec.
    layer("core.store_mem_read_ns", "ns", Lower),
    layer("core.store_mem_write_ns", "ns", Lower),
    layer("core.store_spill_read_ns", "ns", Lower),
    layer("core.store_spill_write_ns", "ns", Lower),
    layer("core.checkpoint_write_ms", "ms", Lower),
    layer("core.task_codec_us", "us", Lower),
    layer("core.accounted_transfer_us", "us", Lower),
    // node: the deploy layer.
    layer("node.batch_codec_us", "us", Lower),
    layer("node.vs_inprocess_ratio", "ratio", Lower),
    layer("node.socket_share", "ratio", Lower),
    // graph / finance / dp: input generation and the release itself.
    layer("graph.stream_build_ms", "ms", Lower),
    layer("finance.network_build_ms", "ms", Lower),
    layer("dp.laplace_release_ns", "ns", Lower),
    // run: diagnostics of the run itself, not gated.
    layer("run.cpu_s", "s", Lower),
    layer("run.release_iqr_frac", "ratio", Lower),
    layer("run.trace_overhead_frac", "ratio", Lower),
    layer("run.alloc_count_overhead_frac", "ratio", Lower),
    layer("run.and_gates", "count", Lower),
    layer("run.extended_ots", "count", Lower),
    layer("run.exponentiations", "count", Lower),
    layer("run.fixed_base_exponentiations", "count", Lower),
    layer("run.block_steps", "count", Higher),
    layer("run.transfers", "count", Higher),
    // model: probe cost x count over the measured phase.
    layer("model.comp_explained_frac", "ratio", Higher),
    layer("model.comm_explained_frac", "ratio", Higher),
];

/// The workload named `name`.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn benchmark_json() -> String {
    Value::obj([
        (
            "command",
            Value::Arr(vec![Value::str("bash"), Value::str("benchmark/run.sh")]),
        ),
        ("paths", Value::Arr(vec![Value::str("benchmark")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.label())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .to_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use std::collections::BTreeSet;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_bounds_obey_the_contract() {
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(is_name(w.name), "workload name {:?}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(names.insert(w.name), "{} used twice", w.name);
        }
        for m in &END_TO_END {
            assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(names.insert(m.name), "{} used twice", m.name);
        }
        for m in &PER_LAYER {
            assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
            assert!(names.insert(m.name), "{} used twice", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!((1..=60).contains(&RUN_SECONDS));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn metric_names_survive_the_json_writer() {
        let doc = parse(&benchmark_json()).expect("generated BENCHMARK.json parses");
        let read = |section: &str| -> Vec<String> {
            doc.get(section)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        let written: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(read("per_layer"), written);
        let written: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(read("end_to_end"), written);
        assert!(read("per_layer").iter().all(|n| is_name(n)));
        let Value::Obj(members) = &doc else {
            panic!("BENCHMARK.json is an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with: benchmark/run.sh --print-benchmark-json > BENCHMARK.json"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
