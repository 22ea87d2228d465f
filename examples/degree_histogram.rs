//! A private degree histogram as a budget-composed release sequence.
//!
//! A full histogram is not one query — it is a *sequence* of single-bin
//! counts, and every bin costs privacy.  This example publishes three
//! bins through a [`ReleaseSchedule`]: each release charges ε = 0.3
//! against one shared accountant, and the schedule refuses a fourth bin
//! once the ln 2 annual budget (§4.5) can no longer cover it.
//!
//! Run with `cargo run --release --example degree_histogram`.

use dstress::core::{DStressConfig, DStressRuntime, DegreeHistogramProgram, ReleaseSchedule};
use dstress::dp::PrivacyBudget;
use dstress::graph::generate::ring_with_chords;
use dstress::math::rng::Xoshiro256;

fn main() {
    let mut rng = Xoshiro256::new(0xD16E57);
    let graph = ring_with_chords(12, 4, 5, &mut rng);

    let mut config = DStressConfig::benchmark(2);
    config.epsilon = 0.3; // Overridden per release by the schedule's ε.

    // The paper's annual budget ln 2 covers two 0.3-bins... and no more.
    let mut schedule = ReleaseSchedule::new(PrivacyBudget::new(2f64.ln()), 0.3);
    println!(
        "budget ln 2 = {:.4}, epsilon per bin 0.3, bins affordable: {}",
        2f64.ln(),
        schedule.releases_remaining()
    );

    println!(
        "{:<10} {:>6} {:>10} {:>10}",
        "bin", "exact", "released", "spent"
    );
    for (lo, hi) in [(0u64, 2u64), (3, 4), (5, 8)] {
        let program = DegreeHistogramProgram { width: 8, lo, hi };
        let exact = DStressRuntime::new(config.clone())
            .execute(&graph, &program)
            .expect("histogram run succeeds")
            .ideal_output;
        match schedule.release_full(&config, &graph, &program, &format!("degrees [{lo}, {hi}]")) {
            Ok(released) => println!(
                "[{lo}, {hi}]  {:>8} {:>10.1} {:>10.2}",
                exact,
                released,
                schedule.accountant().spent()
            ),
            Err(e) => println!("[{lo}, {hi}]  refused: {e}"),
        }
    }
    println!("audit trail:");
    for record in schedule.releases() {
        println!("  {} (epsilon {:.1})", record.label, record.epsilon);
    }
}
