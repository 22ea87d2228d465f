//! Relational (pair-of-executions) delta analysis.
//!
//! Certifying a sensitivity bound is a statement about *two* runs of the
//! same circuit on neighbouring inputs.  This pass abstracts the pair by
//! the per-word difference `delta = value_run2 - value_run1`, seeds the
//! input deltas from the neighbouring-input model (one message slot
//! perturbed by at most `X`, everything else identical) and pushes delta
//! intervals through the gadget trace.  Linear gadgets (add, sub, sum)
//! transfer deltas exactly; truncating ones (shifts, fixed-point
//! multiplies by a delta-free factor) add a bounded rounding slack; for
//! anything else the pass falls back to the difference of the value
//! intervals, which is always sound.
//!
//! The pass shares the range pass's event index: each event's delta is
//! stored by its position in the trace, and a word resolves to the last
//! event that wrote it, else to its seed, exactly as intervals do.
//!
//! The PageRank certifier uses this to prove the update circuit is a
//! contraction: a message-side delta of `X` leaves the new rank within
//! `X/4 + slack` — the geometric-series premise behind the program's
//! declared `2d / (1 - d)` sensitivity.

use dstress_circuit::{GadgetEvent, GadgetKind, Interval, WireId};

use crate::range::RangeAnalysis;

/// Per-word delta intervals for a pair of neighbouring executions.
pub struct DeltaAnalysis<'a> {
    values: &'a RangeAnalysis,
    /// Input deltas: every input word at zero, then the perturbed seeds
    /// (a later entry for the same word wins).
    seeds: Vec<(Vec<WireId>, Interval)>,
    /// The delta each event certified for its output, by trace index.
    deltas: Vec<Option<Interval>>,
}

impl<'a> DeltaAnalysis<'a> {
    /// Runs the delta pass.  `values` must come from a range pass over
    /// the same circuit, whose gadget trace `events` is (events the range
    /// pass rejected as malformed are skipped); `seeds` gives the delta
    /// interval of perturbed input words (unlisted inputs are identical
    /// across the pair).
    pub fn run(
        events: &[GadgetEvent],
        values: &'a RangeAnalysis,
        seeds: &[(Vec<WireId>, Interval)],
        input_words: &[Vec<WireId>],
    ) -> DeltaAnalysis<'a> {
        let zero = input_words.iter().map(|w| (w.clone(), Interval::point(0)));
        let mut this = DeltaAnalysis {
            values,
            seeds: zero.chain(seeds.iter().cloned()).collect(),
            deltas: vec![None; events.len()],
        };
        for (i, ev) in events.iter().enumerate() {
            if values.index.is_valid(i) {
                this.transfer(i, ev);
            }
        }
        this
    }

    /// The delta interval of a word: the tracked delta when known, else
    /// the sound fallback `[lo - hi, hi - lo]` of the value interval.
    pub fn delta_of(&self, word: &[WireId]) -> Interval {
        self.values
            .index
            .last_written(word, &self.deltas, &self.seeds)
            .unwrap_or_else(|| {
                let v = self.values.interval_of(word);
                Interval::new(v.lo - v.hi, v.hi - v.lo)
            })
    }

    fn transfer(&mut self, i: usize, ev: &GadgetEvent) {
        let d = match ev.kind {
            GadgetKind::InputWord => return, // seeded
            GadgetKind::ConstWord(_) => Interval::point(0),
            GadgetKind::Add => {
                let a = self.delta_of(&ev.inputs[0]);
                let b = self.delta_of(&ev.inputs[1]);
                Interval::new(a.lo + b.lo, a.hi + b.hi)
            }
            GadgetKind::Sub => {
                let a = self.delta_of(&ev.inputs[0]);
                let b = self.delta_of(&ev.inputs[1]);
                Interval::new(a.lo - b.hi, a.hi - b.lo)
            }
            GadgetKind::Sum => {
                let mut lo = 0i128;
                let mut hi = 0i128;
                for input in &ev.inputs {
                    let d = self.delta_of(input);
                    lo += d.lo;
                    hi += d.hi;
                }
                Interval::new(lo, hi)
            }
            GadgetKind::ZeroExtend => self.delta_of(&ev.inputs[0]),
            GadgetKind::Truncate => {
                // Only delta-preserving when no bits are dropped in
                // either run; require the value range to fit.
                let v = self.values.interval_of(&ev.inputs[0]);
                if v.fits_unsigned(ev.output.len() as u32) {
                    self.delta_of(&ev.inputs[0])
                } else {
                    self.fallback(ev)
                }
            }
            GadgetKind::ShrConst(k) => {
                // floor(a/m) - floor(b/m) lies within (a-b)/m +- 1;
                // Euclidean division keeps the bound sound for negative
                // deltas.
                let d = self.delta_of(&ev.inputs[0]);
                let m = 1i128 << k;
                Interval::new(
                    (d.lo - (m - 1)).div_euclid(m),
                    (d.hi + (m - 1)).div_euclid(m),
                )
            }
            GadgetKind::MulFixed(f) => self.fixed_product(ev, f),
            _ => self.fallback(ev),
        };
        self.deltas[i] = Some(d);
    }

    /// Exact only when one factor is identical across the pair (delta
    /// zero): delta(a*b >> f) = delta(a)*b >> f, +-1 for the two
    /// truncations.
    fn fixed_product(&self, ev: &GadgetEvent, f: u32) -> Interval {
        let da = self.delta_of(&ev.inputs[0]);
        let db = self.delta_of(&ev.inputs[1]);
        let (dv, fixed) = if db == Interval::point(0) {
            (da, self.values.interval_of(&ev.inputs[1]))
        } else if da == Interval::point(0) {
            (db, self.values.interval_of(&ev.inputs[0]))
        } else {
            return self.fallback(ev);
        };
        let (flo, fhi) = (fixed.lo.max(0), fixed.hi.max(0));
        let candidates = [dv.lo * flo, dv.lo * fhi, dv.hi * flo, dv.hi * fhi];
        let lo = candidates.iter().min().copied().unwrap_or(0);
        let hi = candidates.iter().max().copied().unwrap_or(0);
        Interval::new((lo >> f) - 1, (hi >> f) + 1)
    }

    fn fallback(&self, ev: &GadgetEvent) -> Interval {
        let v = self.values.interval_of(&ev.output);
        Interval::new(v.lo - v.hi, v.hi - v.lo)
    }
}
