//! The gadget trace of one circuit, validated and indexed once.
//!
//! Both the range pass and the delta pass store one result per event, in
//! a vector indexed by the event's position in the trace.  The index
//! answers the lookups those passes need: which event produced a word
//! (or a single bit), and which events read an event's output.
//!
//! Several events may produce the same wires — a gadget that returns an
//! operand's wires aliases the event that produced them — so a word
//! resolves to all its producers in trace order, and a pass reads the
//! result of the last one that recorded a value, falling back to the
//! declared input words seeded before any event.

use std::collections::BTreeMap;

use dstress_circuit::{Circuit, GadgetEvent, GadgetKind, Interval, WireId};

/// Which event produced each word and bit, and which events read each
/// event's output, over the structurally valid events of one trace.
pub(crate) struct EventIndex {
    /// Each event's output word; empty for a malformed event.
    outputs: Vec<Vec<WireId>>,
    /// Valid events by the first wire of their output, in trace order.
    by_first_wire: BTreeMap<WireId, Vec<usize>>,
    /// Valid events reading each event's output, once per operand.
    consumers: Vec<Vec<usize>>,
}

impl EventIndex {
    /// Validates every event of `circuit`'s trace and indexes the valid
    /// ones.  Returns the index and each malformed event with what is
    /// wrong with it, in trace order.
    pub(crate) fn new(circuit: &Circuit) -> (Self, Vec<(usize, String)>) {
        let events = circuit.gadgets();
        let mut malformed = Vec::new();
        let mut index = EventIndex {
            outputs: Vec::with_capacity(events.len()),
            by_first_wire: BTreeMap::new(),
            consumers: vec![Vec::new(); events.len()],
        };
        for (i, ev) in events.iter().enumerate() {
            match validate_event(ev, circuit.len()) {
                Ok(()) => {
                    index.by_first_wire.entry(ev.output[0]).or_default().push(i);
                    index.outputs.push(ev.output.clone());
                }
                Err(detail) => {
                    malformed.push((i, detail));
                    index.outputs.push(Vec::new());
                }
            }
        }
        for (i, ev) in events.iter().enumerate() {
            if !index.is_valid(i) {
                continue;
            }
            for input in &ev.inputs {
                let producers: Vec<usize> = index.producers(input).collect();
                for p in producers {
                    index.consumers[p].push(i);
                }
            }
        }
        (index, malformed)
    }

    /// True when event `event` passed validation (passes skip the rest).
    pub(crate) fn is_valid(&self, event: usize) -> bool {
        !self.outputs[event].is_empty()
    }

    /// The valid events whose output is exactly `word`, in trace order.
    fn producers<'s>(&'s self, word: &'s [WireId]) -> impl DoubleEndedIterator<Item = usize> + 's {
        word.first()
            .and_then(|w| self.by_first_wire.get(w))
            .into_iter()
            .flatten()
            .copied()
            .filter(move |&e| self.outputs[e] == word)
    }

    /// The last valid event whose output is exactly `word`.
    pub(crate) fn producer(&self, word: &[WireId]) -> Option<usize> {
        self.producers(word).next_back()
    }

    /// The valid events reading `event`'s output, once per operand.
    pub(crate) fn consumers(&self, event: usize) -> &[usize] {
        &self.consumers[event]
    }

    /// What the last writer of `word` recorded: the latest producer whose
    /// slot in `slots` (one per event) is set, else the last seed
    /// declared for exactly that word.
    pub(crate) fn last_written(
        &self,
        word: &[WireId],
        slots: &[Option<Interval>],
        seeds: &[(Vec<WireId>, Interval)],
    ) -> Option<Interval> {
        self.producers(word)
            .rev()
            .find_map(|e| slots[e])
            .or_else(|| {
                seeds
                    .iter()
                    .rev()
                    .find(|(w, _)| w == word)
                    .map(|&(_, iv)| iv)
            })
    }
}

/// Structural validation of one gadget event against the gate list.
fn validate_event(ev: &GadgetEvent, num_wires: usize) -> Result<(), String> {
    if ev.output.is_empty() {
        return Err("empty output word".to_string());
    }
    for w in ev.output.iter().chain(ev.inputs.iter().flatten()) {
        if *w as usize >= num_wires {
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
        GadgetKind::NotWord => arity == 1 && widths[0] == out,
        GadgetKind::LtUnsigned | GadgetKind::EqWord => {
            arity == 2 && widths[0] == widths[1] && out == 1
        }
        GadgetKind::Or => arity == 2 && widths[0] == 1 && widths[1] == 1 && out == 1,
        GadgetKind::MuxBit => arity == 3 && widths == [1, 1, 1] && out == 1,
        GadgetKind::MuxWord => arity == 3 && widths[0] == 1 && widths[1] == out && widths[2] == out,
        GadgetKind::MinUnsigned => arity == 2 && widths[0] == out && widths[1] == out,
        GadgetKind::ZeroExtend => arity == 1 && widths[0] <= out,
        GadgetKind::Truncate => arity == 1 && widths[0] >= out,
        GadgetKind::ShlConst(_) | GadgetKind::ShrConst(_) => arity == 1 && widths[0] == out,
        GadgetKind::MulFull => arity == 2 && widths[0] + widths[1] == out,
        GadgetKind::Mul | GadgetKind::MulFixed(_) => arity == 2 && widths[0] == out,
        GadgetKind::RatioCapped(f) => arity == 2 && widths[0] == widths[1] && out == f as usize + 1,
        GadgetKind::Sum => arity >= 1 && widths.iter().all(|&w| w == out),
        GadgetKind::LeadingOnes => {
            arity == 1 && out == (usize::BITS - widths[0].leading_zeros()).max(1) as usize
        }
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
