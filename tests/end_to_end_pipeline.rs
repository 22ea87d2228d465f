//! Cross-crate integration tests: the full DStress pipeline against its
//! ideal functionality.
//!
//! These tests exercise the complete stack — trusted-party setup, block
//! assignment, GMW computation steps, the message transfer protocol,
//! aggregation and noising — and compare the result against the plaintext
//! reference implementations of the same programs.

use dstress::core::engine::release_circuit;
use dstress::core::noise_circuit::{noising_circuit, NOISE_RANDOM_BITS};
use dstress::core::{
    execute_plaintext, CounterProgram, DStressConfig, DStressRuntime, SecureVertexProgram,
};
use dstress::finance::contagion::recommended_iterations;
use dstress::finance::generator::{apply_shock, core_periphery};
use dstress::finance::{
    eisenberg_noe, CircuitParams, EisenbergNoeSecure, ElliottGolubJacksonSecure, GeneratorConfig,
};
use dstress::graph::generate::ring_with_chords;
use dstress::graph::{execute_reference, VertexId};
use dstress::math::rng::Xoshiro256;

/// The secure runtime must agree exactly with the plaintext evaluation of
/// the same circuits (the DP noise is the only difference, and it is added
/// after aggregation).
#[test]
fn engine_matches_circuit_plaintext_for_counter_program() {
    let mut rng = Xoshiro256::new(11);
    let graph = ring_with_chords(7, 1, 4, &mut rng);
    let program = CounterProgram {
        width: 8,
        rounds: 3,
    };
    let ideal = execute_plaintext(&graph, &program);

    for collusion_bound in [2usize, 4] {
        let config = DStressConfig::small_test(collusion_bound);
        let run = DStressRuntime::new(config)
            .execute(&graph, &program)
            .expect("engine run succeeds");
        assert_eq!(run.ideal_output, ideal, "k = {collusion_bound}");
        assert_ne!(run.noised_output, run.ideal_output);
    }
}

/// The full pipeline on the Eisenberg–Noe case study: DStress's pre-noise
/// aggregate equals the circuit ideal functionality, which in turn tracks
/// the classic clearing-vector computation.
#[test]
fn eisenberg_noe_pipeline_tracks_clearing_vector() {
    let config = GeneratorConfig::small(10, 6);
    let mut rng = Xoshiro256::new(42);
    let mut network = core_periphery(&config, &mut rng);
    apply_shock(&mut network, &[VertexId(0), VertexId(1)], 0.95);

    let iterations = recommended_iterations(network.bank_count());
    let program = EisenbergNoeSecure {
        network: &network,
        params: CircuitParams::default_params(),
        iterations,
        leverage_bound: 0.1,
    };

    // Ideal functionality of the circuits.
    let circuit_ideal = execute_plaintext(network.graph(), &program);
    // Classic full-information clearing vector.
    let clearing = eisenberg_noe::clearing_vector(&network, 64);

    // The secure run (real ElGamal transfers, small blocks).
    let run = DStressRuntime::new(DStressConfig::small_test(2))
        .execute(network.graph(), &program)
        .expect("secure EN run succeeds");

    assert_eq!(run.ideal_output, circuit_ideal);
    let tolerance = 2.0 + 0.06 * clearing.total_shortfall;
    assert!(
        (run.ideal_output - clearing.total_shortfall).abs() < tolerance,
        "secure {} vs clearing vector {}",
        run.ideal_output,
        clearing.total_shortfall
    );
    // There is a real shortfall to detect, and the noised release is in
    // the right neighbourhood (Laplace scale 10/0.23 ≈ 43).
    assert!(clearing.total_shortfall > 1.0);
    assert!((run.noised_output - run.ideal_output).abs() < 600.0);
}

/// The Elliott–Golub–Jackson pipeline agrees with its plaintext vertex
/// program within the fixed-point quantisation tolerance.
#[test]
fn elliott_golub_jackson_pipeline_matches_reference() {
    let config = GeneratorConfig::small(10, 6);
    let mut rng = Xoshiro256::new(77);
    let mut network = core_periphery(&config, &mut rng);
    apply_shock(&mut network, &[VertexId(0), VertexId(1)], 0.9);

    let iterations = 6;
    let secure = ElliottGolubJacksonSecure {
        network: &network,
        params: CircuitParams::default_params(),
        iterations,
        leverage_bound: 0.1,
    };
    let plaintext = dstress::finance::ElliottGolubJacksonProgram {
        network: &network,
        iterations,
        leverage_bound: 0.1,
    };

    let run = DStressRuntime::new(DStressConfig::benchmark(2))
        .execute(network.graph(), &secure)
        .expect("secure EGJ run succeeds");
    let reference = execute_reference(network.graph(), &plaintext);

    let tolerance = 2.0 + 0.06 * reference.aggregate.abs();
    assert!(
        (run.ideal_output - reference.aggregate).abs() < tolerance,
        "secure {} vs reference {}",
        run.ideal_output,
        reference.aggregate
    );
}

/// The aggregation phase's round model: one round for the re-share into
/// the aggregation block, then, for its one MPC — the aggregation circuit
/// with the noising circuit wired to its outputs, as the engine builds it
/// (`release_circuit`) — two rounds per AND layer and one output round.
/// A change to either circuit moves this count by twice the change in
/// the composition's layers.
#[test]
fn aggregation_rounds_follow_the_layer_model() {
    fn check<P: SecureVertexProgram>(what: &str, graph: &dstress::graph::Graph, program: &P) {
        let run = DStressRuntime::new(DStressConfig::benchmark(2))
            .execute(graph, program)
            .expect("engine run succeeds");
        let release = release_circuit(program, graph.vertex_count()).expect("circuits compose");
        assert_eq!(
            run.phases.aggregation.counts.rounds,
            1 + (2 * release.layers().rounds() as u64 + 1),
            "{what}"
        );
        // The composition is shallower than the two circuits one after
        // the other: the noise sampling overlaps the aggregation.
        let apart = [
            program.aggregation_circuit(graph.vertex_count()),
            noising_circuit(program.aggregate_bits(), NOISE_RANDOM_BITS, 0),
        ];
        let apart: usize = apart.iter().map(|c| c.layers().rounds()).sum();
        assert!(release.layers().rounds() < apart, "{what}");
    }

    let graph = ring_with_chords(6, 1, 4, &mut Xoshiro256::new(9));
    for width in [8, 12] {
        let counter = CounterProgram { width, rounds: 2 };
        check(&format!("counter, width {width}"), &graph, &counter);
    }

    let mut network = core_periphery(&GeneratorConfig::small(10, 6), &mut Xoshiro256::new(42));
    apply_shock(&mut network, &[VertexId(0), VertexId(1)], 0.95);
    let en = EisenbergNoeSecure {
        network: &network,
        params: CircuitParams::default_params(),
        iterations: 2,
        leverage_bound: 0.1,
    };
    check("eisenberg-noe", network.graph(), &en);
}

/// Determinism: identical configuration and seed produce identical runs,
/// different seeds produce different noise.
#[test]
fn runs_are_reproducible_and_noise_is_seeded() {
    let mut rng = Xoshiro256::new(5);
    let graph = ring_with_chords(5, 0, 2, &mut rng);
    let program = CounterProgram {
        width: 8,
        rounds: 2,
    };

    let mut config = DStressConfig::benchmark(2);
    config.seed = 1234;
    let a = DStressRuntime::new(config.clone())
        .execute(&graph, &program)
        .unwrap();
    let b = DStressRuntime::new(config.clone())
        .execute(&graph, &program)
        .unwrap();
    assert_eq!(a.noised_output, b.noised_output);
    assert_eq!(
        a.traffic.report().total_bytes,
        b.traffic.report().total_bytes
    );

    config.seed = 5678;
    let c = DStressRuntime::new(config)
        .execute(&graph, &program)
        .unwrap();
    assert_eq!(a.ideal_output, c.ideal_output);
    assert_ne!(a.noised_output, c.noised_output);
}

/// Larger blocks mean more protection and more cost, but never a different
/// (pre-noise) answer.
#[test]
fn block_size_affects_cost_not_correctness() {
    let mut rng = Xoshiro256::new(9);
    let graph = ring_with_chords(6, 1, 4, &mut rng);
    let program = CounterProgram {
        width: 8,
        rounds: 2,
    };

    let mut previous_bytes = 0u64;
    let mut ideal = None;
    for collusion_bound in [1usize, 2, 4] {
        let run = DStressRuntime::new(DStressConfig::benchmark(collusion_bound))
            .execute(&graph, &program)
            .unwrap();
        match ideal {
            None => ideal = Some(run.ideal_output),
            Some(v) => assert_eq!(run.ideal_output, v),
        }
        let bytes = run.traffic.report().total_bytes;
        assert!(
            bytes > previous_bytes,
            "traffic must grow with the block size"
        );
        previous_bytes = bytes;
    }
}
