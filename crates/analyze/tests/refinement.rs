//! Unit tests for the range domain's refinements: mux guard refinement,
//! guarded-consumer suppression, declared dominance and the sum cap —
//! and for the capped ratio, which needs none of them.

use dstress_analyze::{RangeAnalysis, RangeConfig};
use dstress_circuit::builder::CircuitBuilder;
use dstress_circuit::Interval;

#[test]
fn capped_ratio_needs_no_guard() {
    // prorate = min(liquid / total, 1) — the Eisenberg–Noe update.  The
    // divisor may be zero and the quotient's integer part large, yet the
    // gadget is capped by construction: [0, 2^f] with no mux around it,
    // and `1 − prorate` fits the f + 1 bits it is computed on.
    let (w, f) = (16, 5);
    let mut b = CircuitBuilder::new();
    let liquid = b.input_word(w);
    let total = b.input_word(w);
    let prorate = b.ratio_capped(&liquid, &total, f);
    let one = b.const_word(1 << f, f + 1);
    let unpaid = b.sub(&one, &prorate);
    b.output_word(&unpaid);
    let c = b.build().unwrap();

    let cfg = RangeConfig::new(
        "ratio",
        vec![
            (liquid.clone(), Interval::new(0, 60_000)),
            (total.clone(), Interval::new(0, 3000)),
        ],
    );
    let ra = RangeAnalysis::run(&c, &cfg);
    assert!(ra.findings.is_empty(), "{:?}", ra.findings);
    assert_eq!(prorate.len(), f as usize + 1);
    assert_eq!(ra.interval_of(&prorate), Interval::new(0, 32));
    assert_eq!(ra.interval_of(&unpaid), Interval::new(0, 32));
}

#[test]
fn guarded_consumer_suppresses_clamped_sub() {
    // mux(a < b, 0, a - b): the subtraction wraps when a < b, but that
    // branch is never selected, so there is no overflow to report and
    // the mux output is non-negative.
    let w = 8;
    let mut b = CircuitBuilder::new();
    let a = b.input_word(w);
    let bb = b.input_word(w);
    let lt = b.lt_unsigned(&a, &bb);
    let diff = b.sub(&a, &bb);
    let zero = b.const_word(0, w);
    let clamped = b.mux_word(lt, &zero, &diff);
    b.output_word(&clamped);
    let c = b.build().unwrap();

    let cfg = RangeConfig::new(
        "clamp",
        vec![
            (a.clone(), Interval::new(0, 200)),
            (bb.clone(), Interval::new(0, 200)),
        ],
    );
    let ra = RangeAnalysis::run(&c, &cfg);
    assert!(ra.findings.is_empty(), "{:?}", ra.findings);
    assert_eq!(ra.interval_of(&clamped), Interval::new(0, 200));
}

#[test]
fn unguarded_wrapping_sub_is_flagged() {
    // The same subtraction without the protecting mux is a genuine
    // overflow at width 8: [-200, 200] fits neither window.
    let w = 8;
    let mut b = CircuitBuilder::new();
    let a = b.input_word(w);
    let bb = b.input_word(w);
    let diff = b.sub(&a, &bb);
    b.output_word(&diff);
    let c = b.build().unwrap();

    let cfg = RangeConfig::new(
        "wrap",
        vec![
            (a.clone(), Interval::new(0, 200)),
            (bb.clone(), Interval::new(0, 200)),
        ],
    );
    let ra = RangeAnalysis::run(&c, &cfg);
    assert!(
        ra.findings
            .iter()
            .any(|f| matches!(f, dstress_analyze::Finding::Overflow { .. })),
        "{:?}",
        ra.findings
    );
}

#[test]
fn dominance_bounds_sub_below() {
    // credit - shortfall with the declared fact credit >= shortfall:
    // non-negative without any guard in the circuit.
    let w = 8;
    let mut b = CircuitBuilder::new();
    let credit = b.input_word(w);
    let shortfall = b.input_word(w);
    let received = b.sub(&credit, &shortfall);
    b.output_word(&received);
    let c = b.build().unwrap();

    let mut cfg = RangeConfig::new(
        "dominance",
        vec![
            (credit.clone(), Interval::new(0, 100)),
            (shortfall.clone(), Interval::new(0, 100)),
        ],
    );
    cfg.dominance.push((0, 1));
    let ra = RangeAnalysis::run(&c, &cfg);
    assert!(ra.findings.is_empty(), "{:?}", ra.findings);
    assert_eq!(ra.interval_of(&received), Interval::new(0, 100));
}

#[test]
fn sum_cap_tightens_message_sums() {
    // Four slots of [0, 100] would naively sum to 400; the declared
    // mass-conservation cap proves 150.
    let w = 16;
    let mut b = CircuitBuilder::new();
    let slots: Vec<_> = (0..4).map(|_| b.input_word(w)).collect();
    let total = b.sum(&slots);
    b.output_word(&total);
    let c = b.build().unwrap();

    let mut cfg = RangeConfig::new(
        "sumcap",
        slots
            .iter()
            .map(|s| (s.clone(), Interval::new(0, 100)))
            .collect(),
    );
    cfg.sum_cap = Some((slots.clone(), 150));
    let ra = RangeAnalysis::run(&c, &cfg);
    assert!(ra.findings.is_empty(), "{:?}", ra.findings);
    assert_eq!(ra.interval_of(&total), Interval::new(0, 150));

    // Without the cap the naive sum is certified instead.
    let cfg2 = RangeConfig::new(
        "nocap",
        slots
            .iter()
            .map(|s| (s.clone(), Interval::new(0, 100)))
            .collect(),
    );
    let ra2 = RangeAnalysis::run(&c, &cfg2);
    assert_eq!(ra2.interval_of(&total), Interval::new(0, 400));
}

#[test]
fn or_of_lt_and_eq_yields_strict_guard() {
    // out = at_or_above ? one : one - x, where at_or_above =
    // or(one < x, one == x).  On the else branch x < one strictly, so the
    // subtraction — which wraps at width 8 when x > 160 — is selected
    // only in [1, one]; a non-strict guard would only prove [0, one].
    let (w, f) = (8, 5);
    let mut b = CircuitBuilder::new();
    let x = b.input_word(w);
    let one = b.const_word(1 << f, w);
    let above = b.lt_unsigned(&one, &x);
    let at_par = b.eq_word(&one, &x);
    let at_or_above = b.or(above, at_par);
    let raw = b.sub(&one, &x);
    let out = b.mux_word(at_or_above, &one, &raw);
    b.output_word(&out);
    let c = b.build().unwrap();

    let cfg = RangeConfig::new("strict", vec![(x.clone(), Interval::new(0, 200))]);
    let ra = RangeAnalysis::run(&c, &cfg);
    assert!(ra.findings.is_empty(), "{:?}", ra.findings);
    assert_eq!(ra.interval_of(&out), Interval::new(1, 32));
}
