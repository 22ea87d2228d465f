//! `dstress-master`: bind a listener, wait for the fleet, run the job.
//!
//! Prints machine-readable lines on stdout:
//!
//! ```text
//! LISTEN 127.0.0.1:41234          actual bound address (port 0 resolves)
//! RESULT <noised-hex> <ideal-hex> f64::to_bits of the released values
//! WORKER_WIRE_BYTES <n>           wire bytes of the phases the fleet runs
//! DONE
//! ```
//!
//! The `RESULT` line is the loopback integration test's pin: it must
//! equal the in-process run's values bit for bit.  `WORKER_WIRE_BYTES` is
//! read from the run record: the measured wire bytes of the computation
//! and communication phases, the two a fleet executes (a
//! `RemoteExecutor` places exactly the block steps and the transfers).
//! It must equal the in-process run's figure too.  After a resume the
//! record carries the rounds before the checkpoint, so the figure counts
//! them although the resumed fleet did not run them.
//!
//! With `--checkpoint-dir` the master checkpoints every round and
//! resumes from the directory's latest checkpoint when one exists.
//! `--halt-after-round N` injects a crash right after round `N`'s
//! checkpoint: the process prints `HALTED N` and exits 0 (the
//! checkpoint on disk is complete, so this is not a failure).

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;

use dstress_core::engine::RuntimeError;
use dstress_core::TransportKind;
use dstress_deploy::master::{run_master, MasterConfig};

fn parse_args() -> Result<(MasterConfig, String), String> {
    let mut config = MasterConfig::loopback(3);
    let mut bind = "127.0.0.1:0".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--bind" => bind = value()?,
            "--workers" => {
                config.fleet = value()?.parse().map_err(|e| format!("--workers: {e}"))?
            }
            "--banks" => config.banks = value()?.parse().map_err(|e| format!("--banks: {e}"))?,
            "--degree" => {
                config.degree_bound = value()?.parse().map_err(|e| format!("--degree: {e}"))?
            }
            "--width" => config.width = value()?.parse().map_err(|e| format!("--width: {e}"))?,
            "--rounds" => config.rounds = value()?.parse().map_err(|e| format!("--rounds: {e}"))?,
            "--k" => config.collusion_bound = value()?.parse().map_err(|e| format!("--k: {e}"))?,
            "--seed" => config.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--graph-seed" => {
                config.graph_seed = value()?.parse().map_err(|e| format!("--graph-seed: {e}"))?
            }
            "--checkpoint-dir" => config.checkpoint_dir = Some(PathBuf::from(value()?)),
            "--halt-after-round" => {
                config.halt_after_round = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--halt-after-round: {e}"))?,
                )
            }
            "--gmw-transport" => {
                config.worker_transport = match value()?.as_str() {
                    "sim" => TransportKind::Sim,
                    "socket" => TransportKind::Socket,
                    other => return Err(format!("--gmw-transport: unknown backend {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok((config, bind))
}

fn main() -> ExitCode {
    let (config, bind) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("dstress-master: {e}");
            return ExitCode::FAILURE;
        }
    };
    let listener = match TcpListener::bind(&bind) {
        Ok(listener) => listener,
        Err(e) => {
            eprintln!("dstress-master: bind {bind}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match listener.local_addr() {
        Ok(addr) => println!("LISTEN {addr}"),
        Err(e) => {
            eprintln!("dstress-master: local_addr: {e}");
            return ExitCode::FAILURE;
        }
    }

    match run_master(&config, listener) {
        Ok(report) => {
            println!(
                "RESULT {:016x} {:016x}",
                report.run.noised_output.to_bits(),
                report.run.ideal_output.to_bits()
            );
            let phases = &report.run.phases;
            println!(
                "WORKER_WIRE_BYTES {}",
                phases.computation.counts.wire_bytes + phases.communication.counts.wire_bytes
            );
            println!("DONE");
            ExitCode::SUCCESS
        }
        Err(RuntimeError::Halted { round }) => {
            // Injected crash: the checkpoint for `round` is on disk and
            // a restart with the same --checkpoint-dir resumes from it.
            println!("HALTED {round}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dstress-master: {e}");
            ExitCode::FAILURE
        }
    }
}
