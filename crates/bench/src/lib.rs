//! Figure harness for the DStress reproduction.
//!
//! Every table and figure in the paper's evaluation (§5 and the
//! appendices) is regenerated by a module in this crate.  The modules
//! expose plain `rows()` functions returning structured data, so the same
//! code backs two consumers:
//!
//! * the `repro` binary (`cargo run -p dstress-bench --release --bin repro
//!   -- <experiment>`), which prints the series in the paper's layout;
//! * the workspace integration tests, which assert the qualitative shapes
//!   (who wins, what scales how) that the paper reports.
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`mpc_micro`] | Figure 3 (MPC time) and Figure 4 (MPC traffic) |
//! | [`transfer_micro`] | §5.2–5.3 message-transfer time and traffic, §3.5 ablation |
//! | [`end_to_end`] | Figure 5 (end-to-end time breakdown and traffic) |
//! | [`scalability`] | Figure 6 (paper-scale projection + validation runs) |
//! | [`naive_baseline`] | §5.5 monolithic-MPC comparison |
//! | [`policy`] | §4.5 utility analysis and Appendix B edge privacy |
//! | [`contagion_study`] | Appendix C contagion scenarios |
//! | [`scenarios`] | DP graph-analytics suite (`repro -- scenarios`) |
//! | [`analyze_suite`] | static certification of every shipped program (`repro -- analyze`) |
//!
//! This crate reproduces figures; it does not measure the engine.  Time,
//! bytes, rounds and heap per workload — with spreads, bounds and a
//! machine fingerprint — come from `benchmark/` (`DESIGN.md`,
//! "Measurement").  The `measured` columns printed here are single
//! samples on the machine at hand; the sweeps fan their points out over
//! the worker pool in `dstress_net::pool` (the `repro` binary's
//! `--threads` flag).
//!
//! ## Example
//!
//! ```
//! use dstress_bench::scalability::headline_projection;
//! use dstress_bench::{format_bytes, format_seconds};
//!
//! // The paper-scale headline projection (N = 1750 banks).
//! let row = headline_projection();
//! assert_eq!(row.nodes, 1750);
//!
//! assert_eq!(format_seconds(90.0), "90.00 s");
//! assert_eq!(format_bytes(1_500_000.0), "1.5 MB");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze_suite;
pub mod contagion_study;
pub mod end_to_end;
pub mod mpc_micro;
pub mod naive_baseline;
pub mod policy;
pub mod scalability;
pub mod scenarios;
pub mod transfer_micro;

/// Pretty-prints a f64 seconds value with adaptive units.
pub fn format_seconds(seconds: f64) -> String {
    if seconds < 1.0 {
        format!("{:.1} ms", seconds * 1e3)
    } else if seconds < 120.0 {
        format!("{seconds:.2} s")
    } else if seconds < 7200.0 {
        format!("{:.1} min", seconds / 60.0)
    } else if seconds < 48.0 * 3600.0 {
        format!("{:.2} h", seconds / 3600.0)
    } else {
        format!("{:.1} years", seconds / (365.25 * 24.0 * 3600.0))
    }
}

/// Pretty-prints a byte count with adaptive units.
pub fn format_bytes(bytes: f64) -> String {
    if bytes < 1e3 {
        format!("{bytes:.0} B")
    } else if bytes < 1e6 {
        format!("{:.1} kB", bytes / 1e3)
    } else if bytes < 1e9 {
        format!("{:.1} MB", bytes / 1e6)
    } else {
        format!("{:.2} GB", bytes / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_formatting() {
        assert_eq!(format_seconds(0.05), "50.0 ms");
        assert_eq!(format_seconds(5.0), "5.00 s");
        assert_eq!(format_seconds(600.0), "10.0 min");
        assert_eq!(format_seconds(18000.0), "5.00 h");
        assert!(format_seconds(1e10).contains("years"));
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(format_bytes(500.0), "500 B");
        assert_eq!(format_bytes(2_500.0), "2.5 kB");
        assert_eq!(format_bytes(750e6), "750.0 MB");
        assert!(format_bytes(2e9).contains("GB"));
    }
}
