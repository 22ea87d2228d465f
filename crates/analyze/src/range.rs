//! Interval range analysis: the abstract interpreter that certifies no
//! gadget overflows its word width.
//!
//! The engine runs two cooperating domains over one circuit:
//!
//! * a **bit domain** (`Bit3`: zero / one / unknown) over the raw
//!   XOR/AND/NOT gates, seeded from the declared input ranges; and
//! * a **word interval domain** over the builder's gadget trace, keyed by
//!   the exact output wire vector of each event, tracking *mathematical*
//!   values in `i128` before any wrapping.
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

use std::collections::{BTreeMap, BTreeSet};

use dstress_circuit::{Circuit, GadgetEvent, GadgetKind, Gate, Interval, WireId};

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
    intervals: BTreeMap<Vec<WireId>, Interval>,
    /// Findings discovered during the pass.
    pub findings: Vec<Finding>,
}

/// Comparison fact recovered from a mux selector wire.
#[derive(Clone, Debug)]
struct Guard {
    big: Vec<WireId>,
    small: Vec<WireId>,
    /// True for strict `big > small`, false for `big >= small`.
    strict: bool,
}

impl RangeAnalysis {
    /// Runs the range analysis over `circuit` under `cfg`.
    pub fn run(circuit: &Circuit, cfg: &RangeConfig) -> RangeAnalysis {
        let gates = circuit.gates();
        let mut findings = Vec::new();

        // Seed the bit domain from the declared input intervals: if the
        // interval proves a bit constant, record it; a possibly-negative
        // word pins nothing (two's complement sets high bits).
        let mut input_bits: BTreeMap<usize, Bit3> = BTreeMap::new();
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
                if let Gate::Input(n) = gates[w] {
                    input_bits.insert(n, b);
                }
            }
        }

        // Raw-gate pass.
        let mut bits = vec![Bit3::Top; gates.len()];
        for (i, gate) in gates.iter().enumerate() {
            bits[i] = match *gate {
                Gate::Input(n) => input_bits.get(&n).copied().unwrap_or(Bit3::Top),
                Gate::ConstFalse => Bit3::Zero,
                Gate::ConstTrue => Bit3::One,
                Gate::Xor(a, b) => match (bits[a].known(), bits[b].known()) {
                    (Some(x), Some(y)) => Bit3::from_bool(x ^ y),
                    _ => Bit3::Top,
                },
                Gate::And(a, b) => match (bits[a], bits[b]) {
                    (Bit3::Zero, _) | (_, Bit3::Zero) => Bit3::Zero,
                    (Bit3::One, Bit3::One) => Bit3::One,
                    _ => Bit3::Top,
                },
                Gate::Not(a) => match bits[a] {
                    Bit3::Zero => Bit3::One,
                    Bit3::One => Bit3::Zero,
                    Bit3::Top => Bit3::Top,
                },
            };
        }

        let mut this = RangeAnalysis {
            bits,
            intervals: BTreeMap::new(),
            findings: Vec::new(),
        };
        for (word, iv) in &cfg.inputs {
            this.intervals.insert(word.clone(), *iv);
        }

        // Validate every event structurally before trusting any of them.
        let events = circuit.gadgets();
        let mut valid = vec![true; events.len()];
        for (i, ev) in events.iter().enumerate() {
            if let Err(detail) = validate_event(ev, gates.len()) {
                findings.push(Finding::MalformedGadget {
                    subject: cfg.subject.clone(),
                    event: i,
                    detail,
                });
                valid[i] = false;
            }
        }

        // Indices: single-bit event outputs (guards resolve through
        // these), word-producing events, and word consumers.
        let mut event_of_bit: BTreeMap<WireId, usize> = BTreeMap::new();
        let mut event_of_word: BTreeMap<Vec<WireId>, usize> = BTreeMap::new();
        let mut consumers: BTreeMap<Vec<WireId>, Vec<usize>> = BTreeMap::new();
        for (i, ev) in events.iter().enumerate() {
            if !valid[i] {
                continue;
            }
            if ev.output.len() == 1 {
                event_of_bit.insert(ev.output[0], i);
            }
            event_of_word.insert(ev.output.clone(), i);
            for input in &ev.inputs {
                consumers.entry(input.clone()).or_default().push(i);
            }
        }
        let cap_words: Option<(BTreeSet<Vec<WireId>>, i128)> = cfg
            .sum_cap
            .as_ref()
            .map(|(words, cap)| (words.iter().cloned().collect(), *cap));

        // Event pass, in construction order.
        for (i, ev) in events.iter().enumerate() {
            if !valid[i] {
                continue;
            }
            this.transfer(
                i,
                ev,
                circuit,
                cfg,
                &cap_words,
                &event_of_bit,
                &event_of_word,
                &consumers,
                events,
                &mut findings,
            );
        }

        this.findings = findings;
        this
    }

    /// The certified interval of a word: the event map when the word was
    /// produced by a gadget or declared as an input, otherwise the
    /// unsigned reading of the bit domain.
    pub fn interval_of(&self, word: &[WireId]) -> Interval {
        if let Some(iv) = self.intervals.get(word) {
            return *iv;
        }
        self.bits_interval(word)
    }

    /// The unsigned interval the bit domain proves for a wire vector.
    fn bits_interval(&self, word: &[WireId]) -> Interval {
        let mut lo = 0i128;
        let mut hi = 0i128;
        for (j, &w) in word.iter().enumerate() {
            match self.bits[w] {
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

    /// Resolves a single wire to a known boolean, walking raw NOT gates
    /// so guards survive `CircuitBuilder::not`.
    fn resolve_bit(&self, circuit: &Circuit, w: WireId) -> Option<bool> {
        if let Some(b) = self.bits[w].known() {
            return Some(b);
        }
        match circuit.gates()[w] {
            Gate::Not(a) => self.resolve_bit(circuit, a).map(|b| !b),
            _ => None,
        }
    }

    /// Recovers the comparison fact a mux selector encodes when taken
    /// with truth value `on`, walking NOT gates and the or(lt, eq) idiom.
    fn guard_for(
        &self,
        circuit: &Circuit,
        sel: WireId,
        on: bool,
        event_of_bit: &BTreeMap<WireId, usize>,
        events: &[GadgetEvent],
    ) -> Option<Guard> {
        let Some(&ei) = event_of_bit.get(&sel) else {
            // Not an event output itself: walk raw NOT gates so guards
            // survive `CircuitBuilder::not`.
            if let Gate::Not(a) = circuit.gates()[sel] {
                return self.guard_for(circuit, a, !on, event_of_bit, events);
            }
            return None;
        };
        let ev = &events[ei];
        match ev.kind {
            GadgetKind::LtUnsigned => {
                let a = ev.inputs[0].clone();
                let b = ev.inputs[1].clone();
                if on {
                    // a < b.
                    Some(Guard {
                        big: b,
                        small: a,
                        strict: true,
                    })
                } else {
                    // a >= b.
                    Some(Guard {
                        big: a,
                        small: b,
                        strict: false,
                    })
                }
            }
            GadgetKind::Or if !on => {
                // not(x or y) = not(x) and not(y).  The builder idiom
                // or(lt(a, b), eq(a, b)) therefore yields strict a > b;
                // otherwise fall back to the negation of whichever
                // operand is a comparison.
                let x = self.guard_for(circuit, ev.inputs[0][0], false, event_of_bit, events);
                let y = self.guard_for(circuit, ev.inputs[1][0], false, event_of_bit, events);
                let eq_operand = |w: WireId| -> Option<(&[WireId], &[WireId])> {
                    let e = &events[*event_of_bit.get(&w)?];
                    if e.kind == GadgetKind::EqWord {
                        Some((&e.inputs[0], &e.inputs[1]))
                    } else {
                        None
                    }
                };
                for (cmp, other) in [(&x, ev.inputs[1][0]), (&y, ev.inputs[0][0])] {
                    if let (Some(g), Some((ea, eb))) = (cmp, eq_operand(other)) {
                        let matches =
                            (g.big == ea && g.small == eb) || (g.big == eb && g.small == ea);
                        if !g.strict && matches {
                            return Some(Guard {
                                big: g.big.clone(),
                                small: g.small.clone(),
                                strict: true,
                            });
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
    #[allow(clippy::too_many_arguments)]
    fn refined_branch(
        &self,
        circuit: &Circuit,
        word: &[WireId],
        sel: WireId,
        on: bool,
        event_of_bit: &BTreeMap<WireId, usize>,
        event_of_word: &BTreeMap<Vec<WireId>, usize>,
        events: &[GadgetEvent],
    ) -> Interval {
        let base = self.interval_of(word);
        let Some(guard) = self.guard_for(circuit, sel, on, event_of_bit, events) else {
            return base;
        };
        let Some(&pi) = event_of_word.get(word) else {
            return base;
        };
        refine_under_guard(&events[pi], &guard, base).unwrap_or(base)
    }

    /// Processes one gadget event: computes the output interval, applies
    /// refinements and caps, records decided bits and reports findings.
    #[allow(clippy::too_many_arguments)]
    fn transfer(
        &mut self,
        idx: usize,
        ev: &GadgetEvent,
        circuit: &Circuit,
        cfg: &RangeConfig,
        cap_words: &Option<(BTreeSet<Vec<WireId>>, i128)>,
        event_of_bit: &BTreeMap<WireId, usize>,
        event_of_word: &BTreeMap<Vec<WireId>, usize>,
        consumers: &BTreeMap<Vec<WireId>, Vec<usize>>,
        events: &[GadgetEvent],
        findings: &mut Vec<Finding>,
    ) {
        let subject = &cfg.subject;
        let w_out = ev.output.len() as u32;
        let gadget = format!("{:?}", ev.kind);
        let check_unsigned_operand = |iv: Interval, findings: &mut Vec<Finding>| {
            if iv.lo < 0 && !cfg.modular {
                findings.push(Finding::UnsignedMisuse {
                    subject: subject.clone(),
                    event: idx,
                    gadget: gadget.clone(),
                    interval: iv,
                });
            }
        };

        match ev.kind {
            GadgetKind::InputWord => {
                // Declared inputs were seeded; undeclared ones read from
                // the bit domain on demand.
            }
            GadgetKind::ConstWord(v) => {
                self.intervals
                    .insert(ev.output.clone(), Interval::point(v as i128));
            }
            GadgetKind::Add => {
                let a = self.interval_of(&ev.inputs[0]);
                let b = self.interval_of(&ev.inputs[1]);
                let iv = Interval::new(a.lo + b.lo, a.hi + b.hi);
                self.store_checked(idx, ev, &gadget, iv, w_out, cfg, None, findings);
            }
            GadgetKind::Sub => {
                let a = self.interval_of(&ev.inputs[0]);
                let b = self.interval_of(&ev.inputs[1]);
                let dominated = cfg.dominance.iter().any(|&(ia, ib)| {
                    cfg.inputs.get(ia).map(|(w, _)| w.as_slice()) == Some(&ev.inputs[0][..])
                        && cfg.inputs.get(ib).map(|(w, _)| w.as_slice()) == Some(&ev.inputs[1][..])
                });
                let lo = if dominated {
                    (a.lo - b.hi).max(0)
                } else {
                    a.lo - b.hi
                };
                let iv = Interval::new(lo.min(a.hi - b.lo), a.hi - b.lo);
                let suppress = Some((circuit, event_of_bit, consumers, events));
                self.store_checked(idx, ev, &gadget, iv, w_out, cfg, suppress, findings);
            }
            GadgetKind::Neg => {
                let a = self.interval_of(&ev.inputs[0]);
                let iv = Interval::new(-a.hi, -a.lo);
                self.store_checked(idx, ev, &gadget, iv, w_out, cfg, None, findings);
            }
            GadgetKind::LtUnsigned => {
                let a = self.interval_of(&ev.inputs[0]);
                let b = self.interval_of(&ev.inputs[1]);
                check_unsigned_operand(a, findings);
                check_unsigned_operand(b, findings);
                if a.hi < b.lo {
                    self.bits[ev.output[0]] = Bit3::One;
                } else if a.lo >= b.hi {
                    self.bits[ev.output[0]] = Bit3::Zero;
                }
            }
            GadgetKind::LtSigned => {
                for operand in [&ev.inputs[0], &ev.inputs[1]] {
                    let iv = self.interval_of(operand);
                    if !iv.fits_signed(operand.len() as u32) && !cfg.modular {
                        findings.push(Finding::Overflow {
                            subject: subject.clone(),
                            event: idx,
                            gadget: gadget.clone(),
                            interval: iv,
                            width: operand.len() as u32,
                        });
                    }
                }
                let a = self.interval_of(&ev.inputs[0]);
                let b = self.interval_of(&ev.inputs[1]);
                if a.hi < b.lo {
                    self.bits[ev.output[0]] = Bit3::One;
                } else if a.lo >= b.hi {
                    self.bits[ev.output[0]] = Bit3::Zero;
                }
            }
            GadgetKind::EqWord => {
                let a = self.interval_of(&ev.inputs[0]);
                let b = self.interval_of(&ev.inputs[1]);
                if a.lo == a.hi && a == b {
                    self.bits[ev.output[0]] = Bit3::One;
                } else if a.intersect(b).is_none() {
                    self.bits[ev.output[0]] = Bit3::Zero;
                }
            }
            GadgetKind::Or => {
                let a = self.resolve_bit(circuit, ev.inputs[0][0]);
                let b = self.resolve_bit(circuit, ev.inputs[1][0]);
                if a == Some(true) || b == Some(true) {
                    self.bits[ev.output[0]] = Bit3::One;
                } else if a == Some(false) && b == Some(false) {
                    self.bits[ev.output[0]] = Bit3::Zero;
                }
            }
            GadgetKind::MuxBit => {
                let sel = self.resolve_bit(circuit, ev.inputs[0][0]);
                let chosen = match sel {
                    Some(true) => self.resolve_bit(circuit, ev.inputs[1][0]),
                    Some(false) => self.resolve_bit(circuit, ev.inputs[2][0]),
                    None => None,
                };
                if let Some(b) = chosen {
                    self.bits[ev.output[0]] = Bit3::from_bool(b);
                }
            }
            GadgetKind::MuxWord => {
                let sel = ev.inputs[0][0];
                let then_iv = self.refined_branch(
                    circuit,
                    &ev.inputs[1],
                    sel,
                    true,
                    event_of_bit,
                    event_of_word,
                    events,
                );
                let else_iv = self.refined_branch(
                    circuit,
                    &ev.inputs[2],
                    sel,
                    false,
                    event_of_bit,
                    event_of_word,
                    events,
                );
                let iv = match self.resolve_bit(circuit, sel) {
                    Some(true) => then_iv,
                    Some(false) => else_iv,
                    None => then_iv.hull(else_iv),
                };
                self.intervals.insert(ev.output.clone(), iv);
            }
            GadgetKind::Relu => {
                let a = self.interval_of(&ev.inputs[0]);
                if !a.fits_signed(w_out) && !cfg.modular {
                    findings.push(Finding::Overflow {
                        subject: subject.clone(),
                        event: idx,
                        gadget: gadget.clone(),
                        interval: a,
                        width: w_out,
                    });
                }
                let iv = Interval::new(a.lo.max(0), a.hi.max(0));
                self.intervals.insert(ev.output.clone(), iv);
            }
            GadgetKind::MinUnsigned | GadgetKind::MaxUnsigned => {
                let a = self.interval_of(&ev.inputs[0]);
                let b = self.interval_of(&ev.inputs[1]);
                check_unsigned_operand(a, findings);
                check_unsigned_operand(b, findings);
                let iv = if ev.kind == GadgetKind::MinUnsigned {
                    Interval::new(a.lo.min(b.lo), a.hi.min(b.hi))
                } else {
                    Interval::new(a.lo.max(b.lo), a.hi.max(b.hi))
                };
                self.intervals.insert(ev.output.clone(), iv);
            }
            GadgetKind::XorWord | GadgetKind::NotWord => {
                // Pure bit operations: the raw bit pass already covers
                // them at full precision for this domain.
            }
            GadgetKind::ZeroExtend => {
                let a = self.interval_of(&ev.inputs[0]);
                check_unsigned_operand(a, findings);
                self.intervals
                    .insert(ev.output.clone(), Interval::new(a.lo.max(0), a.hi.max(0)));
            }
            GadgetKind::Truncate => {
                let a = self.interval_of(&ev.inputs[0]);
                if a.fits_unsigned(w_out) {
                    self.intervals.insert(ev.output.clone(), a);
                } else {
                    if !cfg.modular {
                        findings.push(Finding::Overflow {
                            subject: subject.clone(),
                            event: idx,
                            gadget: gadget.clone(),
                            interval: a,
                            width: w_out,
                        });
                    }
                    self.intervals
                        .insert(ev.output.clone(), Interval::unsigned(w_out));
                }
            }
            GadgetKind::ShlConst(k) => {
                let a = self.interval_of(&ev.inputs[0]);
                let iv = Interval::new(a.lo << k, a.hi << k);
                self.store_checked(idx, ev, &gadget, iv, w_out, cfg, None, findings);
            }
            GadgetKind::ShrConst(k) => {
                let a = self.interval_of(&ev.inputs[0]);
                check_unsigned_operand(a, findings);
                let iv = Interval::new((a.lo.max(0)) >> k, (a.hi.max(0)) >> k);
                self.intervals.insert(ev.output.clone(), iv);
            }
            GadgetKind::MulFull | GadgetKind::Mul | GadgetKind::MulFixed(_) => {
                let a = self.interval_of(&ev.inputs[0]);
                let b = self.interval_of(&ev.inputs[1]);
                check_unsigned_operand(a, findings);
                check_unsigned_operand(b, findings);
                let (alo, ahi) = (a.lo.max(0), a.hi.max(0));
                let (blo, bhi) = (b.lo.max(0), b.hi.max(0));
                let iv = match ev.kind {
                    GadgetKind::MulFixed(f) => Interval::new((alo * blo) >> f, (ahi * bhi) >> f),
                    _ => Interval::new(alo * blo, ahi * bhi),
                };
                self.store_checked(idx, ev, &gadget, iv, w_out, cfg, None, findings);
            }
            GadgetKind::RatioCapped(f) => {
                // Capped by construction, whatever the operands.
                check_unsigned_operand(self.interval_of(&ev.inputs[0]), findings);
                check_unsigned_operand(self.interval_of(&ev.inputs[1]), findings);
                self.intervals
                    .insert(ev.output.clone(), Interval::new(0, 1i128 << f));
            }
            GadgetKind::Sum => {
                let mut lo = 0i128;
                let mut hi = 0i128;
                for input in &ev.inputs {
                    let iv = self.interval_of(input);
                    lo += iv.lo;
                    hi += iv.hi;
                }
                let mut iv = Interval::new(lo, hi);
                if let Some((caps, cap)) = cap_words {
                    let all_capped =
                        !ev.inputs.is_empty() && ev.inputs.iter().all(|w| caps.contains(w));
                    if all_capped {
                        let capped = Interval::new(0, *cap);
                        iv = iv.intersect(capped).unwrap_or(capped);
                    }
                }
                self.store_checked(idx, ev, &gadget, iv, w_out, cfg, None, findings);
            }
        }
    }

    /// Stores an event's interval after the representability check,
    /// applying modular widening and (for subtractions) the
    /// guarded-consumer suppression.
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    fn store_checked(
        &mut self,
        idx: usize,
        ev: &GadgetEvent,
        gadget: &str,
        iv: Interval,
        w_out: u32,
        cfg: &RangeConfig,
        suppress: Option<(
            &Circuit,
            &BTreeMap<WireId, usize>,
            &BTreeMap<Vec<WireId>, Vec<usize>>,
            &[GadgetEvent],
        )>,
        findings: &mut Vec<Finding>,
    ) {
        let representable = iv.fits_unsigned(w_out) || iv.fits_signed(w_out);
        if representable {
            self.intervals.insert(ev.output.clone(), iv);
            return;
        }
        if cfg.modular {
            // Wrapping is intended: the word holds *some* value of its
            // width; track the full unsigned range.
            self.intervals
                .insert(ev.output.clone(), Interval::unsigned(w_out));
            return;
        }
        if let Some((circuit, event_of_bit, consumers, events)) = suppress {
            if self.all_consumers_guard(ev, iv, w_out, circuit, event_of_bit, consumers, events) {
                // The raw value wraps but is never selected: keep the
                // mathematical interval so guard refinement at the
                // consuming mux stays exact.
                self.intervals.insert(ev.output.clone(), iv);
                return;
            }
        }
        findings.push(Finding::Overflow {
            subject: cfg.subject.clone(),
            event: idx,
            gadget: gadget.to_string(),
            interval: iv,
            width: w_out,
        });
        self.intervals.insert(ev.output.clone(), iv);
    }

    /// True when every gadget consuming `ev.output` is a mux whose guard
    /// refines this event's interval back into a representable window —
    /// the clamp idiom `mux(a < b, 0, a - b)`: the wrapped difference is
    /// computed but never selected.  Raw-gate reads of the word's wires
    /// are not tracked, but a raw read cannot re-enter the interval
    /// domain, and an output word escaping this way is still caught by
    /// the caller's declared-range checks on outputs.
    #[allow(clippy::too_many_arguments)]
    fn all_consumers_guard(
        &self,
        ev: &GadgetEvent,
        iv: Interval,
        w_out: u32,
        circuit: &Circuit,
        event_of_bit: &BTreeMap<WireId, usize>,
        consumers: &BTreeMap<Vec<WireId>, Vec<usize>>,
        events: &[GadgetEvent],
    ) -> bool {
        let Some(cs) = consumers.get(&ev.output) else {
            return false;
        };
        !cs.is_empty()
            && cs.iter().all(|&ci| {
                let c = &events[ci];
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
                let sel = c.inputs[0][0];
                let Some(guard) = self.guard_for(circuit, sel, on, event_of_bit, events) else {
                    return false;
                };
                match refine_under_guard(ev, &guard, iv) {
                    Some(r) => r.fits_unsigned(w_out) || r.fits_signed(w_out),
                    None => false,
                }
            })
    }
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

/// Structural validation of one gadget event against the gate list.
fn validate_event(ev: &GadgetEvent, num_wires: usize) -> Result<(), String> {
    if ev.output.is_empty() {
        return Err("empty output word".to_string());
    }
    for w in ev.output.iter().chain(ev.inputs.iter().flatten()) {
        if *w >= num_wires {
            return Err(format!("wire {w} out of range ({num_wires} wires)"));
        }
    }
    let arity = ev.inputs.len();
    let out = ev.output.len();
    let widths: Vec<usize> = ev.inputs.iter().map(|w| w.len()).collect();
    let ok = match ev.kind {
        GadgetKind::InputWord | GadgetKind::ConstWord(_) => arity == 0,
        GadgetKind::Add | GadgetKind::Sub | GadgetKind::XorWord => {
            arity == 2 && widths[0] == out && widths[1] == out
        }
        GadgetKind::Neg | GadgetKind::NotWord => arity == 1 && widths[0] == out,
        GadgetKind::LtUnsigned | GadgetKind::LtSigned | GadgetKind::EqWord => {
            arity == 2 && widths[0] == widths[1] && out == 1
        }
        GadgetKind::Or => arity == 2 && widths[0] == 1 && widths[1] == 1 && out == 1,
        GadgetKind::MuxBit => arity == 3 && widths == [1, 1, 1] && out == 1,
        GadgetKind::MuxWord => arity == 3 && widths[0] == 1 && widths[1] == out && widths[2] == out,
        GadgetKind::Relu => arity == 1 && widths[0] == out,
        GadgetKind::MinUnsigned | GadgetKind::MaxUnsigned => {
            arity == 2 && widths[0] == out && widths[1] == out
        }
        GadgetKind::ZeroExtend => arity == 1 && widths[0] <= out,
        GadgetKind::Truncate => arity == 1 && widths[0] >= out,
        GadgetKind::ShlConst(_) | GadgetKind::ShrConst(_) => arity == 1 && widths[0] == out,
        GadgetKind::MulFull => arity == 2 && widths[0] + widths[1] == out,
        GadgetKind::Mul | GadgetKind::MulFixed(_) => arity == 2 && widths[0] == out,
        GadgetKind::RatioCapped(f) => arity == 2 && widths[0] == widths[1] && out == f as usize + 1,
        GadgetKind::Sum => arity >= 1 && widths.iter().all(|&w| w == out),
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{:?} with input widths {widths:?} and output width {out}",
            ev.kind
        ))
    }
}
