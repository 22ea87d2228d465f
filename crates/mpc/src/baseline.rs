//! The naïve monolithic-MPC baseline (§5.5).
//!
//! The paper's baseline evaluates the entire contagion computation as one
//! monolithic MPC: the closed form of Eisenberg–Noe essentially raises an
//! `N×N` matrix to the `I`-th power, so the authors wrote a Wysteria
//! program multiplying two square matrices, measured it for `N ≤ 25`
//! (1.8 minutes at `N = 10`, 40 minutes at `N = 25`) and extrapolated the
//! `O(N³)` cost to `N = 1750`, arriving at ≈287 years.
//!
//! This module reproduces both halves: [`matrix_multiply_circuit`] builds
//! the Boolean circuit for a fixed-point matrix product (which can be run
//! under our GMW engine for small `N`), and [`extrapolate_full_scale`]
//! performs the same cubic extrapolation the paper uses.

use crate::error::MpcError;
use crate::gmw::{execution_wire_bytes, reconstruct_outputs, share_inputs, GmwConfig, GmwProtocol};
use crate::party::OtConfig;
use dstress_circuit::builder::{decode_word, encode_word, CircuitBuilder};
use dstress_circuit::{Circuit, CircuitStats};
use dstress_math::rng::DetRng;
use dstress_net::cost::{CostModel, OperationCounts};
use dstress_net::traffic::TrafficAccountant;
use dstress_net::transport::SimTransport;

/// Builds a circuit computing the product of two `n × n` matrices of
/// unsigned fixed-point words.
///
/// Inputs are the entries of `A` (row-major) followed by the entries of
/// `B`; outputs are the entries of `A·B` (row-major), truncated to the
/// same width with `frac_bits` fractional bits.
pub fn matrix_multiply_circuit(n: usize, width: u32, frac_bits: u32) -> Circuit {
    let mut builder = CircuitBuilder::new();
    let a: Vec<Vec<_>> = (0..n * n).map(|_| builder.input_word(width)).collect();
    let b: Vec<Vec<_>> = (0..n * n).map(|_| builder.input_word(width)).collect();
    for i in 0..n {
        for j in 0..n {
            let mut acc = builder.const_word(0, width);
            for (k, a_row) in a.iter().enumerate().skip(i * n).take(n) {
                let _ = k;
                let b_entry = &b[(k - i * n) * n + j];
                let product = builder.mul_fixed(a_row, b_entry, frac_bits);
                acc = builder.add(&acc, &product);
            }
            builder.output_word(&acc);
        }
    }
    builder
        .build()
        .expect("builder-produced circuits are well formed")
}

/// The result of running (or projecting) the monolithic baseline.
#[derive(Clone, Debug)]
pub struct BaselineMeasurement {
    /// Matrix dimension.
    pub n: usize,
    /// AND-gate count of one matrix multiplication.
    pub and_gates: u64,
    /// Operation counts of one multiplication under GMW.
    pub counts: OperationCounts,
    /// Projected single-multiplication time under the calibrated cost
    /// model, in seconds.
    pub projected_seconds: f64,
    /// The plaintext product (row-major raw fixed-point words), when the
    /// circuit was actually executed.
    pub product: Option<Vec<u64>>,
}

/// Runs one `n × n` matrix multiplication under GMW with `parties`
/// parties and returns the measurement (including the reconstructed
/// product for correctness checks), its time projected under
/// [`CostModel::paper_reference`].
///
/// # Errors
///
/// Propagates GMW configuration/sharing errors.
pub fn run_matrix_multiply(
    n: usize,
    width: u32,
    frac_bits: u32,
    parties: usize,
    a: &[u64],
    b: &[u64],
    rng: &mut dyn DetRng,
) -> Result<BaselineMeasurement, MpcError> {
    assert_eq!(a.len(), n * n, "matrix A has wrong size");
    assert_eq!(b.len(), n * n, "matrix B has wrong size");
    let circuit = matrix_multiply_circuit(n, width, frac_bits);
    let stats = CircuitStats::of(&circuit);

    let mut inputs = Vec::with_capacity(2 * n * n * width as usize);
    for &v in a.iter().chain(b.iter()) {
        inputs.extend(encode_word(v, width));
    }
    let shares = share_inputs(&inputs, parties, rng);
    let protocol = GmwProtocol::new(GmwConfig::with_default_ids(parties))?;
    let mut traffic = TrafficAccountant::new();
    let ot = OtConfig::extension();
    let exec = protocol.execute_on(&SimTransport, &circuit, &shares, &ot, &mut traffic, rng)?;
    let output_bits = reconstruct_outputs(&exec.output_shares)?;
    let product: Vec<u64> = output_bits
        .chunks(width as usize)
        .map(decode_word)
        .collect();

    Ok(BaselineMeasurement {
        n,
        and_gates: stats.and_gates as u64,
        counts: exec.counts,
        projected_seconds: CostModel::paper_reference().estimate_seconds(&exec.counts),
        product: Some(product),
    })
}

/// Computes the circuit-level measurement for an `n × n` multiplication
/// *without* executing it (counts only), which is how the larger points of
/// the §5.5 comparison are obtained; its time is projected under
/// [`CostModel::paper_reference`].
pub fn measure_matrix_multiply_counts(
    n: usize,
    width: u32,
    frac_bits: u32,
    parties: usize,
) -> BaselineMeasurement {
    let circuit = matrix_multiply_circuit(n, width, frac_bits);
    let stats = CircuitStats::of(&circuit);
    let layers = dstress_circuit::CircuitLayers::of(&circuit);
    let pairs = (parties * (parties - 1) / 2) as u64;
    let ot = OtConfig::extension();
    // The one-shot door charges each pair one session setup: its base
    // OTs and their exponentiations, and its rounds once.
    let setup = ot.session_setup();
    let counts = OperationCounts {
        extended_ots: stats.and_gates as u64 * pairs,
        and_gates: stats.and_gates as u64,
        free_gates: (stats.xor_gates + stats.not_gates) as u64,
        // The executed engine's bytes, in closed form: the one-shot door
        // under GmwBatching::Layered.
        wire_bytes: execution_wire_bytes(&layers, parties, &ot, false),
        // The layer-batched round model: the setup's rounds, 2 per AND
        // layer, 1 output round (matches the executed engine's rounds
        // under GmwBatching::Layered).
        rounds: setup.rounds + 2 * layers.rounds() as u64 + 1,
        ..setup.counts.scaled(pairs)
    };
    BaselineMeasurement {
        n,
        and_gates: stats.and_gates as u64,
        counts,
        projected_seconds: CostModel::paper_reference().estimate_seconds(&counts),
        product: None,
    }
}

/// Extrapolates a measured single-multiplication time at dimension
/// `measured_n` to the full-scale monolithic computation at dimension
/// `target_n` with `iterations` chained multiplications, using the same
/// `O(N³)` scaling argument as §5.5 of the paper.
pub fn extrapolate_full_scale(
    measured_seconds: f64,
    measured_n: usize,
    target_n: usize,
    iterations: u32,
) -> f64 {
    let ratio = target_n as f64 / measured_n as f64;
    measured_seconds * ratio.powi(3) * iterations as f64
}

/// Multiplies two fixed-point matrices in plaintext (reference for tests).
pub fn plaintext_matrix_multiply(n: usize, frac_bits: u32, a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = vec![0u64; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0u64;
            for k in 0..n {
                acc = acc.wrapping_add((a[i * n + k] * b[k * n + j]) >> frac_bits);
            }
            out[i * n + j] = acc;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstress_math::rng::Xoshiro256;

    #[test]
    fn circuit_matches_plaintext_product() {
        let n = 2;
        let width = 16;
        let frac = 4;
        // 1.0 = 16 at 4 fractional bits.
        let a = vec![16u64, 32, 0, 16]; // [[1, 2], [0, 1]]
        let b = vec![16u64, 0, 16, 16]; // [[1, 0], [1, 1]]
        let mut rng = Xoshiro256::new(1);
        let m = run_matrix_multiply(n, width, frac, 3, &a, &b, &mut rng).unwrap();
        let expected = plaintext_matrix_multiply(n, frac, &a, &b);
        assert_eq!(m.product.as_deref().unwrap(), expected.as_slice());
        // [[1,2],[0,1]] * [[1,0],[1,1]] = [[3,2],[1,1]]
        assert_eq!(expected, vec![48, 32, 16, 16]);
        assert!(m.and_gates > 0);
        assert!(m.projected_seconds > 0.0);
    }

    #[test]
    fn counts_only_measurement_matches_executed_gate_count() {
        // Every count, not only the gates: the session setup's base OTs,
        // exponentiations and rounds, the bytes and the layer rounds.
        let counted = measure_matrix_multiply_counts(2, 16, 4, 3);
        let mut rng = Xoshiro256::new(2);
        let identity = [16, 0, 0, 16];
        let executed = run_matrix_multiply(2, 16, 4, 3, &identity, &identity, &mut rng).unwrap();
        assert_eq!(counted.and_gates, executed.and_gates);
        assert_eq!(counted.counts, executed.counts);
    }

    #[test]
    fn cost_grows_cubically_with_n() {
        let m4 = measure_matrix_multiply_counts(4, 12, 4, 3);
        let m8 = measure_matrix_multiply_counts(8, 12, 4, 3);
        let m16 = measure_matrix_multiply_counts(16, 12, 4, 3);
        // Doubling n multiplies the AND-gate count (the dominant cost at
        // scale) by roughly 8; the small additive terms (row sums) pull the
        // ratio slightly below the asymptote.
        let r1 = m8.and_gates as f64 / m4.and_gates as f64;
        let r2 = m16.and_gates as f64 / m8.and_gates as f64;
        assert!((6.0..9.0).contains(&r1), "ratio was {r1}");
        assert!((6.5..9.0).contains(&r2), "ratio was {r2}");
        // Projected time is monotone in n even with the fixed OT-setup term.
        assert!(m8.projected_seconds > m4.projected_seconds);
        assert!(m16.projected_seconds > m8.projected_seconds);
    }

    #[test]
    fn extrapolation_matches_paper_formula() {
        // The paper: 40 minutes at N = 25, extrapolated to N = 1750 and 11
        // multiplications gives (1750/25)^3 * 40 * 11 minutes ≈ 287 years.
        let seconds = extrapolate_full_scale(40.0 * 60.0, 25, 1750, 11);
        let years = seconds / (365.25 * 24.0 * 3600.0);
        assert!(
            (250.0..320.0).contains(&years),
            "extrapolated {years} years"
        );
    }

    #[test]
    fn plaintext_identity_multiplication() {
        let n = 3;
        let frac = 4;
        let identity: Vec<u64> = (0..9).map(|i| if i % 4 == 0 { 16 } else { 0 }).collect();
        let m: Vec<u64> = (1..=9).map(|v| v * 16).collect();
        assert_eq!(plaintext_matrix_multiply(n, frac, &identity, &m), m);
    }
}
