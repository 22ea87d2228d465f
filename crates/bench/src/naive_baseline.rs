//! §5.5: the naïve monolithic-MPC baseline.
//!
//! The closed form of Eisenberg–Noe essentially raises an `N×N` matrix to
//! the `I`-th power; the paper evaluates a single matrix multiplication in
//! Wysteria (1.8 minutes at N = 10, 40 minutes at N = 25), extrapolates the
//! `O(N³)` cost to the full banking system, and arrives at ≈287 years —
//! versus DStress's ≈4.8 hours.
//!
//! This module executes the same matrix-multiplication circuit under our
//! GMW engine for small `N`, projects the prototype-scale time with the
//! calibrated cost model, performs the same cubic extrapolation, and
//! reports the DStress-vs-baseline speedup.

use crate::scalability::headline_projection;
use dstress_math::rng::Xoshiro256;
use dstress_mpc::baseline::{
    extrapolate_full_scale, measure_matrix_multiply_counts, run_matrix_multiply,
};
use std::time::Instant;

/// One baseline measurement.
#[derive(Clone, Debug)]
pub struct BaselineRow {
    /// Matrix dimension `N`.
    pub n: usize,
    /// Whether the circuit was actually executed under GMW (small `N`) or
    /// only counted (large `N`).
    pub executed: bool,
    /// AND gates of one multiplication.
    pub and_gates: u64,
    /// Wall-clock seconds of the in-process execution (zero when counted
    /// only).
    pub measured_seconds: f64,
    /// Projected prototype-scale seconds of one multiplication.
    pub projected_seconds: f64,
}

/// The §5.5 comparison summary.
#[derive(Clone, Debug)]
pub struct BaselineComparison {
    /// Per-`N` measurements.
    pub rows: Vec<BaselineRow>,
    /// Extrapolated seconds for the full-scale monolithic computation
    /// (N = 1750, 11 chained multiplications).
    pub full_scale_seconds: f64,
    /// Extrapolated years (the paper's "287 years").
    pub full_scale_years: f64,
    /// DStress's projected seconds for the same system (Figure 6 headline).
    pub dstress_seconds: f64,
    /// Speedup of DStress over the monolithic baseline.
    pub speedup: f64,
}

/// The fixed-point precision used by the baseline circuit.
const WIDTH: u32 = 16;
const FRAC: u32 = 5;
/// Number of MPC parties used for the executed baseline points.
const PARTIES: usize = 3;

/// Runs the baseline at one dimension, executing under GMW when
/// `execute` is true (recommended only for `N ≲ 12` in debug builds).
pub fn run_baseline_point(n: usize, execute: bool, seed: u64) -> BaselineRow {
    if execute {
        let mut rng = Xoshiro256::new(seed);
        // Multiply two random-ish small matrices (identity-scaled values);
        // only the cost matters, but the product is checked in unit tests
        // of `dstress-mpc`.
        let a: Vec<u64> = (0..n * n).map(|i| ((i % 7) as u64 + 1) << FRAC).collect();
        let b: Vec<u64> = (0..n * n).map(|i| ((i % 5) as u64 + 1) << FRAC).collect();
        let start = Instant::now();
        let m = run_matrix_multiply(n, WIDTH, FRAC, PARTIES, &a, &b, &mut rng)
            .expect("baseline execution succeeds");
        BaselineRow {
            n,
            executed: true,
            and_gates: m.and_gates,
            measured_seconds: start.elapsed().as_secs_f64(),
            projected_seconds: m.projected_seconds,
        }
    } else {
        let m = measure_matrix_multiply_counts(n, WIDTH, FRAC, PARTIES);
        BaselineRow {
            n,
            executed: false,
            and_gates: m.and_gates,
            measured_seconds: 0.0,
            projected_seconds: m.projected_seconds,
        }
    }
}

/// Produces the §5.5 comparison: measured/counted baseline points, the
/// cubic extrapolation to N = 1750 with `iterations` chained
/// multiplications, and the speedup over DStress's projected cost.
pub fn baseline_comparison(
    executed_ns: &[usize],
    counted_ns: &[usize],
    iterations: u32,
) -> BaselineComparison {
    let mut rows = Vec::new();
    for &n in executed_ns {
        rows.push(run_baseline_point(n, true, 0xBA5E));
    }
    for &n in counted_ns {
        rows.push(run_baseline_point(n, false, 0xBA5E));
    }
    // Extrapolate from the largest available point (the paper uses N = 25).
    let reference = rows
        .iter()
        .max_by_key(|r| r.n)
        .expect("at least one baseline point");
    let full_scale_seconds =
        extrapolate_full_scale(reference.projected_seconds, reference.n, 1750, iterations);
    let dstress_seconds = headline_projection().result.total_seconds;
    BaselineComparison {
        full_scale_years: full_scale_seconds / (365.25 * 24.0 * 3600.0),
        speedup: full_scale_seconds / dstress_seconds,
        full_scale_seconds,
        dstress_seconds,
        rows,
    }
}

/// The paper's own configuration: execute nothing (the counted points at
/// N = 10 and N = 25 reproduce the published 1.8- and 40-minute figures via
/// the cost model), extrapolate with I − 1 = 11 multiplications.
pub fn paper_comparison() -> BaselineComparison {
    baseline_comparison(&[], &[10, 25], 11)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counted_points_match_paper_minutes() {
        // The paper reports 1.8 minutes for N = 10 and 40 minutes for
        // N = 25 on its prototype; the calibrated cost model should land in
        // the same regime (within a factor of ~3).
        let comparison = paper_comparison();
        let n10 = comparison.rows.iter().find(|r| r.n == 10).unwrap();
        let n25 = comparison.rows.iter().find(|r| r.n == 25).unwrap();
        let n10_minutes = n10.projected_seconds / 60.0;
        let n25_minutes = n25.projected_seconds / 60.0;
        assert!(
            (0.6..6.0).contains(&n10_minutes),
            "N=10 projected {n10_minutes} min"
        );
        assert!(
            (13.0..120.0).contains(&n25_minutes),
            "N=25 projected {n25_minutes} min"
        );
        // Cubic growth between the two points.
        let ratio = n25.projected_seconds / n10.projected_seconds;
        assert!((8.0..25.0).contains(&ratio), "N=10→25 ratio {ratio}");
    }

    #[test]
    fn full_scale_is_centuries_and_dstress_wins() {
        let comparison = paper_comparison();
        assert!(
            (50.0..2000.0).contains(&comparison.full_scale_years),
            "extrapolated {} years",
            comparison.full_scale_years
        );
        // DStress is faster by many orders of magnitude.
        assert!(
            comparison.speedup > 10_000.0,
            "speedup {}",
            comparison.speedup
        );
        assert!(comparison.dstress_seconds < 24.0 * 3600.0);
    }

    #[test]
    fn executed_point_agrees_with_counted_point() {
        let executed = run_baseline_point(3, true, 1);
        let counted = run_baseline_point(3, false, 1);
        assert_eq!(executed.and_gates, counted.and_gates);
        assert!(
            (executed.projected_seconds - counted.projected_seconds).abs()
                < 0.05 * counted.projected_seconds
        );
        assert!(executed.measured_seconds > 0.0);
        assert!(!counted.executed);
    }
}
