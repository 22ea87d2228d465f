//! `dstress-node`: one deployment worker process.
//!
//! Connects to the master given by `--master host:port`, registers,
//! executes task batches until the master sends `Finish`, acknowledges
//! it, and exits 0.  Any connection, protocol, or
//! execution failure is printed to stderr with a non-zero exit.

use std::process::ExitCode;

use dstress_deploy::worker::run_worker;

fn main() -> ExitCode {
    let mut master = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--master" => master = args.next(),
            other => {
                eprintln!("dstress-node: unknown flag {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(master) = master else {
        eprintln!("dstress-node: usage: dstress-node --master host:port");
        return ExitCode::FAILURE;
    };
    match run_worker(&master) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dstress-node: {e}");
            ExitCode::FAILURE
        }
    }
}
