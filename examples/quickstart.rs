//! Quickstart: run a toy vertex program under the full DStress stack.
//!
//! Six participants each own one vertex of a small ring graph.  The vertex
//! program is a simple gossip counter (each vertex adds whatever its
//! in-neighbours report and forwards its running total), but it exercises
//! every mechanism of the system: block assignment by the trusted party,
//! XOR-shared state, GMW computation steps, the ElGamal message transfer
//! protocol, and the aggregation block's differentially private release.
//!
//! Run with `cargo run --release --example quickstart`.

use dstress::core::{CounterProgram, DStressConfig, DStressRuntime};
use dstress::graph::generate::ring_with_chords;
use dstress::math::rng::Xoshiro256;

fn main() {
    // The distributed graph: each of the 6 participants knows only its own
    // vertex and its ring neighbours.
    let mut rng = Xoshiro256::new(7);
    let graph = ring_with_chords(6, 1, 4, &mut rng);
    println!(
        "graph: {} vertices, {} directed edges, degree bound {}",
        graph.vertex_count(),
        graph.edge_count(),
        graph.degree_bound()
    );

    // The program: 8-bit counters, 3 iterations, sensitivity 1.
    let program = CounterProgram {
        width: 8,
        rounds: 3,
    };

    // Runtime configuration: collusion bound k = 2 (blocks of 3 nodes),
    // real cryptography for the message transfers, ε = 0.5.
    let mut config = DStressConfig::small_test(2);
    config.epsilon = 0.5;
    let runtime = DStressRuntime::new(config);

    let run = runtime
        .execute(&graph, &program)
        .expect("quickstart execution succeeds");

    println!("block size (k+1):        {}", run.block_size);
    println!("iterations executed:     {}", run.iterations);
    println!("released (noised) value: {:.2}", run.noised_output);
    println!(
        "ideal value (hidden in a real deployment): {:.2}",
        run.ideal_output
    );
    println!();
    println!("cost breakdown (operation counts, all nodes combined):");
    println!(
        "  computation steps: {} AND gates under GMW, {} oblivious transfers",
        run.phases.computation.counts.and_gates, run.phases.computation.counts.extended_ots
    );
    println!(
        "  message transfers: {} exponentiations, {} bytes",
        run.phases.communication.counts.exponentiations, run.phases.communication.counts.wire_bytes
    );
    println!(
        "  aggregation+noise: {} AND gates under GMW",
        run.phases.aggregation.counts.and_gates
    );
    println!(
        "per-node traffic: {:.1} kB",
        run.mean_bytes_per_node() / 1e3
    );
}
