//! End-to-end loopback deployment: one `dstress-master` process and
//! three `dstress-node` worker processes on 127.0.0.1, running the
//! counter program over a small core–periphery network with every
//! remote block MPC exchanging its GMW messages over real TCP.
//!
//! The released value printed by the master is pinned bit-for-bit
//! against an in-process [`DStressRuntime::execute`] run of the same
//! configuration — placement across processes must not change a single
//! bit — and so is the fleet's wire-byte figure, against the in-process
//! run's computation and communication bytes.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use dstress_core::{CounterProgram, DStressRuntime};
use dstress_deploy::master::MasterConfig;

/// Kills the child on drop so a failing assertion never leaks
/// processes.
struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn read_line(reader: &mut impl BufRead) -> String {
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("master stdout stays open");
    line.trim_end().to_string()
}

#[test]
fn master_and_three_workers_match_the_in_process_run() {
    let config = MasterConfig::loopback(3);

    let mut master = ChildGuard(
        Command::new(env!("CARGO_BIN_EXE_dstress-master"))
            .args(["--workers", "3"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn dstress-master"),
    );
    let mut master_out = BufReader::new(master.0.stdout.take().expect("piped stdout"));

    let listen = read_line(&mut master_out);
    let addr = listen
        .strip_prefix("LISTEN ")
        .unwrap_or_else(|| panic!("expected LISTEN line, got {listen:?}"))
        .to_string();

    // The same listener answers HTTP probes while waiting for workers.
    let mut probe = TcpStream::connect(&addr).expect("healthz connect");
    probe
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    probe.write_all(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
    let mut health = String::new();
    probe.read_to_string(&mut health).expect("healthz response");
    assert!(health.starts_with("HTTP/1.0 200 OK"), "{health}");
    assert!(
        health.contains("\"status\":\"waiting_for_workers\""),
        "{health}"
    );
    assert!(health.contains("\"fleet\":3"), "{health}");

    let workers: Vec<ChildGuard> = (0..3)
        .map(|_| {
            ChildGuard(
                Command::new(env!("CARGO_BIN_EXE_dstress-node"))
                    .args(["--master", &addr])
                    .spawn()
                    .expect("spawn dstress-node"),
            )
        })
        .collect();

    let result = read_line(&mut master_out);
    let payload = result
        .strip_prefix("RESULT ")
        .unwrap_or_else(|| panic!("expected RESULT line, got {result:?}"));
    let mut parts = payload.split_whitespace();
    let noised = u64::from_str_radix(parts.next().expect("noised bits"), 16).unwrap();
    let ideal = u64::from_str_radix(parts.next().expect("ideal bits"), 16).unwrap();

    let wire = read_line(&mut master_out);
    let fleet_wire: u64 = wire
        .strip_prefix("WORKER_WIRE_BYTES ")
        .unwrap_or_else(|| panic!("expected WORKER_WIRE_BYTES line, got {wire:?}"))
        .parse()
        .unwrap();
    assert_eq!(read_line(&mut master_out), "DONE");

    for mut worker in workers {
        let status = worker.0.wait().expect("worker exit status");
        assert!(status.success(), "worker exited with {status}");
        std::mem::forget(worker);
    }
    let status = master.0.wait().expect("master exit status");
    assert!(status.success(), "master exited with {status}");
    std::mem::forget(master);

    // The pin: the deployed run equals the in-process run bit for bit.
    let graph = config.build_graph();
    let program = CounterProgram {
        width: config.width,
        rounds: config.rounds,
    };
    let run = DStressRuntime::new(config.engine_config())
        .execute(&graph, &program)
        .expect("in-process run");
    assert_eq!(
        noised,
        run.noised_output.to_bits(),
        "deployed noised output diverged from the in-process run"
    );
    assert_eq!(
        ideal,
        run.ideal_output.to_bits(),
        "deployed ideal output diverged from the in-process run"
    );
    let phases = &run.phases;
    let in_process_wire =
        phases.computation.counts.wire_bytes + phases.communication.counts.wire_bytes;
    assert!(in_process_wire > 0, "the run measured no wire bytes");
    assert_eq!(
        fleet_wire, in_process_wire,
        "the fleet's wire bytes diverged from the in-process run's"
    );
}
