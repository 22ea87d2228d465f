//! Interval range analysis: the abstract interpreter that certifies no
//! gadget overflows its word width.
//!
//! The engine runs two cooperating domains over one circuit:
//!
//! * a **bit domain** (`Bit3`: zero / one / unknown) over the raw
//!   XOR/AND/NOT gates, seeded from the declared input ranges; and
//! * a **word interval domain** over the builder's gadget trace, tracking
//!   *mathematical* values in `i128` before any wrapping.  Each event's
//!   interval is stored by its position in the trace; a word read by a
//!   later event resolves through the circuit's event index to the last
//!   event that wrote it, else to the declared input word it is, else to
//!   the unsigned reading of the bit domain.
//!
//! Every gadget's output interval is checked for representability: it
//! must fit either the unsigned window `[0, 2^w)` or the signed
//! two's-complement window of its width, otherwise the wires wrap and an
//! [`Finding::Overflow`] is reported.  Unsigned gadgets (comparators,
//! ratios, multipliers, shifts, extensions) additionally require provably
//! non-negative operands ([`Finding::UnsignedMisuse`]).
//!
//! Three refinements make the domain tight enough to certify the shipped
//! finance circuits without false positives:
//!
//! * **mux guard refinement** — a `mux_word` branch guarded by a
//!   comparison is analyzed under that comparison: the else branch of
//!   `mux(lt(a, b), t, e)` knows `a >= b`, which bounds a guarded
//!   `sub(a, b)` below by zero (by one under the strict guard of
//!   `or(lt, eq)`);
//! * **guarded-consumer suppression** — a subtraction whose raw interval
//!   is unrepresentable is *not* an overflow if every consumer is a mux
//!   whose guard restores representability (the canonical clamp idiom
//!   `mux(a < b, 0, a - b)`: the wrapped value is computed but never
//!   selected);
//! * **declared preconditions** — pointwise dominance facts and the
//!   mass-conservation sum cap from the spec, each applied exactly where
//!   declared and surfaced as assumptions by the caller.

use std::collections::BTreeMap;

use dstress_circuit::{Circuit, GadgetEvent, GadgetKind, Gate, Interval, WireId};

use crate::index::EventIndex;
use crate::report::Finding;

/// Three-valued abstraction of one wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bit3 {
    /// Provably false.
    Zero,
    /// Provably true.
    One,
    /// Unknown.
    Top,
}

impl Bit3 {
    fn from_bool(b: bool) -> Self {
        if b {
            Bit3::One
        } else {
            Bit3::Zero
        }
    }

    fn known(self) -> Option<bool> {
        match self {
            Bit3::Zero => Some(false),
            Bit3::One => Some(true),
            Bit3::Top => None,
        }
    }
}

/// Configuration for one range pass.
#[derive(Clone, Debug)]
pub struct RangeConfig {
    /// Name used in findings.
    pub subject: String,
    /// Input words (little-endian wire vectors) with declared intervals.
    pub inputs: Vec<(Vec<WireId>, Interval)>,
    /// Modular-arithmetic mode: overflow findings are suppressed and
    /// unrepresentable intervals are widened to the full unsigned range.
    pub modular: bool,
    /// Pairs of indices into `inputs`: `(a, b)` declares `a >= b`
    /// pointwise, bounding `sub(a, b)` below by zero.
    pub dominance: Vec<(usize, usize)>,
    /// Mass-conservation cap: a `sum` gadget whose inputs all belong to
    /// this set of words is intersected with `[0, cap]`.
    pub sum_cap: Option<(Vec<Vec<WireId>>, i128)>,
}

impl RangeConfig {
    /// A plain config: declared inputs, nothing else.
    pub fn new(subject: &str, inputs: Vec<(Vec<WireId>, Interval)>) -> Self {
        RangeConfig {
            subject: subject.to_string(),
            inputs,
            modular: false,
            dominance: Vec::new(),
            sum_cap: None,
        }
    }
}

/// The result of a range pass: certified bit values and word intervals.
pub struct RangeAnalysis {
    bits: Vec<Bit3>,
    /// The interval each event certified for its output, by trace index.
    intervals: Vec<Option<Interval>>,
    /// The declared input words, seeded before any event.
    seeds: Vec<(Vec<WireId>, Interval)>,
    pub(crate) index: EventIndex,
    /// Findings discovered during the pass.
    pub findings: Vec<Finding>,
}

/// Comparison fact recovered from a mux selector wire.
#[derive(Clone, Copy, Debug)]
struct Guard<'a> {
    big: &'a [WireId],
    small: &'a [WireId],
    /// True for strict `big > small`, false for `big >= small`.
    strict: bool,
}

impl RangeAnalysis {
    /// Runs the range analysis over `circuit` under `cfg`.
    pub fn run(circuit: &Circuit, cfg: &RangeConfig) -> RangeAnalysis {
        let events = circuit.gadgets();
        let (index, malformed) = EventIndex::new(circuit);
        let findings = malformed
            .into_iter()
            .map(|(event, detail)| Finding::MalformedGadget {
                subject: cfg.subject.clone(),
                event,
                detail,
            })
            .collect();
        let mut pass = Pass {
            circuit,
            cfg,
            events,
            out: RangeAnalysis {
                bits: gate_bits(circuit, cfg),
                intervals: vec![None; events.len()],
                seeds: cfg.inputs.clone(),
                index,
                findings,
            },
        };
        for i in 0..events.len() {
            if pass.out.index.is_valid(i) {
                pass.transfer(i);
            }
        }
        pass.out
    }

    /// The certified interval of a word: what the last event producing
    /// it recorded, else its declared input interval, else the unsigned
    /// reading of the bit domain.
    pub fn interval_of(&self, word: &[WireId]) -> Interval {
        self.index
            .last_written(word, &self.intervals, &self.seeds)
            .unwrap_or_else(|| self.bits_interval(word))
    }

    /// The unsigned interval the bit domain proves for a wire vector.
    fn bits_interval(&self, word: &[WireId]) -> Interval {
        let mut lo = 0i128;
        let mut hi = 0i128;
        for (j, &w) in word.iter().enumerate() {
            match self.bits[w as usize] {
                Bit3::One => {
                    lo += 1i128 << j;
                    hi += 1i128 << j;
                }
                Bit3::Top => hi += 1i128 << j,
                Bit3::Zero => {}
            }
        }
        Interval::new(lo, hi)
    }
}

/// The bit domain over the raw gates, seeded from the declared input
/// intervals: an interval that proves a bit constant pins it; a
/// possibly-negative word pins nothing (two's complement sets high bits).
fn gate_bits(circuit: &Circuit, cfg: &RangeConfig) -> Vec<Bit3> {
    let mut input_bits: BTreeMap<u32, Bit3> = BTreeMap::new();
    for (word, iv) in &cfg.inputs {
        for (j, &w) in word.iter().enumerate() {
            let b = if iv.lo < 0 {
                Bit3::Top
            } else if iv.lo == iv.hi {
                Bit3::from_bool((iv.lo >> j) & 1 == 1)
            } else if iv.hi < (1i128 << j) {
                Bit3::Zero
            } else {
                Bit3::Top
            };
            if let Gate::Input(n) = circuit.gate(w) {
                input_bits.insert(n, b);
            }
        }
    }
    let mut bits = vec![Bit3::Top; circuit.len()];
    for (i, gate) in circuit.gates().enumerate() {
        let bit = |w: WireId| bits[w as usize];
        bits[i] = match gate {
            Gate::Input(n) => input_bits.get(&n).copied().unwrap_or(Bit3::Top),
            Gate::ConstFalse => Bit3::Zero,
            Gate::ConstTrue => Bit3::One,
            Gate::Xor(a, b) => match (bit(a).known(), bit(b).known()) {
                (Some(x), Some(y)) => Bit3::from_bool(x ^ y),
                _ => Bit3::Top,
            },
            Gate::And(a, b) => match (bit(a), bit(b)) {
                (Bit3::Zero, _) | (_, Bit3::Zero) => Bit3::Zero,
                (Bit3::One, Bit3::One) => Bit3::One,
                _ => Bit3::Top,
            },
            Gate::Not(a) => match bit(a) {
                Bit3::Zero => Bit3::One,
                Bit3::One => Bit3::Zero,
                Bit3::Top => Bit3::Top,
            },
        };
    }
    bits
}

/// One range pass in progress: the circuit, its configuration and trace,
/// and the analysis being filled in (which holds the event index and the
/// findings).  The sum-cap words are read from the configuration.
struct Pass<'a> {
    circuit: &'a Circuit,
    cfg: &'a RangeConfig,
    events: &'a [GadgetEvent],
    out: RangeAnalysis,
}

impl<'a> Pass<'a> {
    /// Processes one valid event, in trace order.
    fn transfer(&mut self, i: usize) {
        match self.events[i].kind {
            // Declared inputs were seeded; undeclared ones, and the pure
            // bit operations, read from the bit domain on demand.
            GadgetKind::InputWord | GadgetKind::XorWord | GadgetKind::NotWord => {}
            GadgetKind::ConstWord(v) => self.set(i, Interval::point(v as i128)),
            GadgetKind::Add
            | GadgetKind::Sub
            | GadgetKind::ShlConst(_)
            | GadgetKind::MulFull
            | GadgetKind::Mul
            | GadgetKind::MulFixed(_)
            | GadgetKind::Sum => self.arithmetic(i),
            GadgetKind::LtUnsigned | GadgetKind::EqWord => self.comparison(i),
            GadgetKind::Or | GadgetKind::MuxBit => self.bit_logic(i),
            GadgetKind::MuxWord => self.mux_word(i),
            GadgetKind::MinUnsigned
            | GadgetKind::ZeroExtend
            | GadgetKind::Truncate
            | GadgetKind::ShrConst(_)
            | GadgetKind::RatioCapped(_)
            | GadgetKind::LeadingOnes => self.clamp(i),
        }
    }

    /// Gadgets whose output can outgrow their width: the interval is
    /// computed from the operands and stored through the
    /// representability check.
    fn arithmetic(&mut self, i: usize) {
        let ev = &self.events[i];
        let iv = match ev.kind {
            GadgetKind::Add => {
                let (a, b) = (self.operand(i, 0), self.operand(i, 1));
                Interval::new(a.lo + b.lo, a.hi + b.hi)
            }
            GadgetKind::Sub => {
                let (a, b) = (self.operand(i, 0), self.operand(i, 1));
                let mut lo = a.lo - b.hi;
                if self.dominated(ev) {
                    lo = lo.max(0);
                }
                Interval::new(lo.min(a.hi - b.lo), a.hi - b.lo)
            }
            GadgetKind::ShlConst(k) => {
                let a = self.operand(i, 0);
                Interval::new(a.lo << k, a.hi << k)
            }
            GadgetKind::Sum => self.capped_sum(ev),
            // The multipliers: unsigned operands.
            _ => {
                let (a, b) = (self.operand(i, 0), self.operand(i, 1));
                self.check_unsigned(i, a);
                self.check_unsigned(i, b);
                let shift = match ev.kind {
                    GadgetKind::MulFixed(f) => f,
                    _ => 0,
                };
                let (alo, ahi) = (a.lo.max(0), a.hi.max(0));
                let (blo, bhi) = (b.lo.max(0), b.hi.max(0));
                Interval::new((alo * blo) >> shift, (ahi * bhi) >> shift)
            }
        };
        self.store_checked(i, iv);
    }

    /// Comparisons: the operands are checked for the comparison's
    /// reading, and a decided comparison pins its output bit.
    fn comparison(&mut self, i: usize) {
        let ev = &self.events[i];
        let (a, b) = (self.operand(i, 0), self.operand(i, 1));
        let decided = if ev.kind == GadgetKind::EqWord {
            if a.lo == a.hi && a == b {
                Some(true)
            } else {
                a.intersect(b).is_none().then_some(false)
            }
        } else {
            // `lt_unsigned` reads both operands unsigned.
            self.check_unsigned(i, a);
            self.check_unsigned(i, b);
            if a.hi < b.lo {
                Some(true)
            } else {
                (a.lo >= b.hi).then_some(false)
            }
        };
        self.decide(i, decided);
    }

    /// Single-bit gadgets: `or` and the bit mux, decided from the bit
    /// domain.
    fn bit_logic(&mut self, i: usize) {
        let ev = &self.events[i];
        let bit = |k: usize| self.resolve_bit(ev.inputs[k][0]);
        let decided = if ev.kind == GadgetKind::Or {
            let (a, b) = (bit(0), bit(1));
            if a == Some(true) || b == Some(true) {
                Some(true)
            } else {
                (a == Some(false) && b == Some(false)).then_some(false)
            }
        } else {
            match bit(0) {
                Some(true) => bit(1),
                Some(false) => bit(2),
                None => None,
            }
        };
        self.decide(i, decided);
    }

    /// The word mux: each branch refined under the selector's guard, the
    /// selected one when the selector is known, else their hull.
    fn mux_word(&mut self, i: usize) {
        let ev = &self.events[i];
        let sel = ev.inputs[0][0];
        let then_iv = self.refined_branch(&ev.inputs[1], sel, true);
        let else_iv = self.refined_branch(&ev.inputs[2], sel, false);
        let iv = match self.resolve_bit(sel) {
            Some(true) => then_iv,
            Some(false) => else_iv,
            None => then_iv.hull(else_iv),
        };
        self.set(i, iv);
    }

    /// Gadgets whose output is bounded by construction (clamps, width
    /// changes, right shifts, the capped ratio, the leading-ones count):
    /// stored as computed.
    fn clamp(&mut self, i: usize) {
        let ev = &self.events[i];
        let w_out = ev.output.len() as u32;
        let a = self.operand(i, 0);
        let iv = match ev.kind {
            GadgetKind::Truncate if a.fits_unsigned(w_out) => a,
            GadgetKind::Truncate => {
                self.overflow(i, a, w_out);
                Interval::unsigned(w_out)
            }
            GadgetKind::ZeroExtend => {
                self.check_unsigned(i, a);
                Interval::new(a.lo.max(0), a.hi.max(0))
            }
            GadgetKind::ShrConst(k) => {
                self.check_unsigned(i, a);
                Interval::new(a.lo.max(0) >> k, a.hi.max(0) >> k)
            }
            // A count of the operand's bits, whatever they hold.
            GadgetKind::LeadingOnes => Interval::new(0, ev.inputs[0].len() as i128),
            // Min and the capped ratio: two unsigned operands.
            _ => {
                let b = self.operand(i, 1);
                self.check_unsigned(i, a);
                self.check_unsigned(i, b);
                match ev.kind {
                    GadgetKind::MinUnsigned => Interval::new(a.lo.min(b.lo), a.hi.min(b.hi)),
                    // Capped by construction, whatever the operands.
                    GadgetKind::RatioCapped(f) => Interval::new(0, 1i128 << f),
                    _ => unreachable!("{:?} is not a clamp", ev.kind),
                }
            }
        };
        self.set(i, iv);
    }

    /// The interval of event `i`'s `k`-th operand.
    fn operand(&self, i: usize, k: usize) -> Interval {
        self.out.interval_of(&self.events[i].inputs[k])
    }

    fn set(&mut self, i: usize, iv: Interval) {
        self.out.intervals[i] = Some(iv);
    }

    /// Pins event `i`'s output bit when the comparison is decided.
    fn decide(&mut self, i: usize, decided: Option<bool>) {
        if let Some(b) = decided {
            self.out.bits[self.events[i].output[0] as usize] = Bit3::from_bool(b);
        }
    }

    /// True when the config declares `sub`'s first operand to dominate
    /// its second pointwise.
    fn dominated(&self, sub: &GadgetEvent) -> bool {
        let input = |k: usize| self.cfg.inputs.get(k).map(|(w, _)| w.as_slice());
        self.cfg.dominance.iter().any(|&(a, b)| {
            input(a) == Some(&sub.inputs[0][..]) && input(b) == Some(&sub.inputs[1][..])
        })
    }

    /// The sum of the operand intervals, intersected with the
    /// mass-conservation cap when every operand is a capped word.
    fn capped_sum(&self, sum: &GadgetEvent) -> Interval {
        let mut lo = 0i128;
        let mut hi = 0i128;
        for input in &sum.inputs {
            let iv = self.out.interval_of(input);
            lo += iv.lo;
            hi += iv.hi;
        }
        let iv = Interval::new(lo, hi);
        match &self.cfg.sum_cap {
            Some((words, cap))
                if !sum.inputs.is_empty() && sum.inputs.iter().all(|w| words.contains(w)) =>
            {
                let capped = Interval::new(0, *cap);
                iv.intersect(capped).unwrap_or(capped)
            }
            _ => iv,
        }
    }

    /// Reports an operand an unsigned gadget would misread as negative.
    fn check_unsigned(&mut self, i: usize, iv: Interval) {
        if iv.lo < 0 && !self.cfg.modular {
            self.out.findings.push(Finding::UnsignedMisuse {
                subject: self.cfg.subject.clone(),
                event: i,
                gadget: format!("{:?}", self.events[i].kind),
                interval: iv,
            });
        }
    }

    /// Reports `interval` wrapping `width` bits at event `i`, unless
    /// wrapping is the intended (modular) arithmetic.
    fn overflow(&mut self, i: usize, interval: Interval, width: u32) {
        if !self.cfg.modular {
            self.out.findings.push(Finding::Overflow {
                subject: self.cfg.subject.clone(),
                event: i,
                gadget: format!("{:?}", self.events[i].kind),
                interval,
                width,
            });
        }
    }

    /// Stores an event's interval after the representability check,
    /// applying modular widening and (for subtractions) the
    /// guarded-consumer suppression.
    fn store_checked(&mut self, i: usize, iv: Interval) {
        let ev = &self.events[i];
        let w_out = ev.output.len() as u32;
        if representable(iv, w_out) {
            self.set(i, iv);
        } else if self.cfg.modular {
            // Wrapping is intended: the word holds *some* value of its
            // width; track the full unsigned range.
            self.set(i, Interval::unsigned(w_out));
        } else {
            // A subtraction whose wrapped value is never selected keeps
            // its mathematical interval without a finding, so guard
            // refinement at the consuming mux stays exact.
            if !(ev.kind == GadgetKind::Sub && self.all_consumers_guard(i, iv)) {
                self.overflow(i, iv, w_out);
            }
            self.set(i, iv);
        }
    }

    /// True when every gadget consuming event `i`'s output is a mux whose
    /// guard refines `iv` back into a representable window — the clamp
    /// idiom `mux(a < b, 0, a - b)`: the wrapped difference is computed
    /// but never selected.  Raw-gate reads of the word's wires are not
    /// tracked, but a raw read cannot re-enter the interval domain, and
    /// an output word escaping this way is still caught by the caller's
    /// declared-range checks on outputs.
    fn all_consumers_guard(&self, i: usize, iv: Interval) -> bool {
        let ev = &self.events[i];
        let consumers = self.out.index.consumers(i);
        !consumers.is_empty()
            && consumers.iter().all(|&ci| {
                let c = &self.events[ci];
                if c.kind != GadgetKind::MuxWord {
                    return false;
                }
                let on = if c.inputs[1] == ev.output {
                    true
                } else if c.inputs[2] == ev.output {
                    false
                } else {
                    return false;
                };
                self.guard_for(c.inputs[0][0], on)
                    .and_then(|guard| refine_under_guard(ev, &guard, iv))
                    .is_some_and(|r| representable(r, ev.output.len() as u32))
            })
    }

    /// Resolves a single wire to a known boolean, walking raw NOT gates
    /// so guards survive `CircuitBuilder::not`.
    fn resolve_bit(&self, w: WireId) -> Option<bool> {
        if let Some(b) = self.out.bits[w as usize].known() {
            return Some(b);
        }
        match self.circuit.gate(w) {
            Gate::Not(a) => self.resolve_bit(a).map(|b| !b),
            _ => None,
        }
    }

    /// Recovers the comparison fact a mux selector encodes when taken
    /// with truth value `on`, walking NOT gates and the or(lt, eq) idiom.
    fn guard_for(&self, sel: WireId, on: bool) -> Option<Guard<'a>> {
        let events: &'a [GadgetEvent] = self.events;
        let Some(ei) = self.out.index.producer(&[sel]) else {
            // Not an event output itself: walk raw NOT gates so guards
            // survive `CircuitBuilder::not`.
            if let Gate::Not(a) = self.circuit.gate(sel) {
                return self.guard_for(a, !on);
            }
            return None;
        };
        let ev = &events[ei];
        match ev.kind {
            GadgetKind::LtUnsigned => {
                let (a, b) = (&ev.inputs[0][..], &ev.inputs[1][..]);
                Some(if on {
                    // a < b.
                    Guard {
                        big: b,
                        small: a,
                        strict: true,
                    }
                } else {
                    // a >= b.
                    Guard {
                        big: a,
                        small: b,
                        strict: false,
                    }
                })
            }
            GadgetKind::Or if !on => {
                // not(x or y) = not(x) and not(y).  The builder idiom
                // or(lt(a, b), eq(a, b)) therefore yields strict a > b;
                // otherwise fall back to the negation of whichever
                // operand is a comparison.
                let x = self.guard_for(ev.inputs[0][0], false);
                let y = self.guard_for(ev.inputs[1][0], false);
                let eq_operands = |w: WireId| {
                    let e = &events[self.out.index.producer(&[w])?];
                    (e.kind == GadgetKind::EqWord).then(|| (&e.inputs[0][..], &e.inputs[1][..]))
                };
                for (cmp, other) in [(x, ev.inputs[1][0]), (y, ev.inputs[0][0])] {
                    if let (Some(g), Some((ea, eb))) = (cmp, eq_operands(other)) {
                        let matches =
                            (g.big == ea && g.small == eb) || (g.big == eb && g.small == ea);
                        if !g.strict && matches {
                            return Some(Guard { strict: true, ..g });
                        }
                    }
                }
                x.or(y)
            }
            _ => None,
        }
    }

    /// The interval of a mux branch word, refined under the selector's
    /// guard when the branch was produced by a guarded sub.
    fn refined_branch(&self, word: &[WireId], sel: WireId, on: bool) -> Interval {
        let base = self.out.interval_of(word);
        let Some(guard) = self.guard_for(sel, on) else {
            return base;
        };
        let Some(producer) = self.out.index.producer(word) else {
            return base;
        };
        refine_under_guard(&self.events[producer], &guard, base).unwrap_or(base)
    }
}

/// True when `iv` fits the unsigned or the signed window of `width` bits.
fn representable(iv: Interval, width: u32) -> bool {
    iv.fits_unsigned(width) || iv.fits_signed(width)
}

/// Refines the interval of `producer`'s output under `guard`, when the
/// producer is a subtraction the guard constrains: `sub(big, small)`
/// under `big > small` (or `>=`) is bounded below.
fn refine_under_guard(producer: &GadgetEvent, guard: &Guard, base: Interval) -> Option<Interval> {
    let guarded = producer.kind == GadgetKind::Sub
        && producer.inputs[0] == guard.big
        && producer.inputs[1] == guard.small;
    guarded.then(|| {
        let floor = if guard.strict { 1 } else { 0 };
        Interval::new(base.lo.max(floor).min(base.hi), base.hi)
    })
}
