//! The word-level gadget trace.
//!
//! Bit-level abstract interpretation over raw XOR/AND/NOT gates cannot
//! recover tight arithmetic facts: the sum bits of a ripple-carry adder
//! all look unconstrained one bit at a time.  The builder therefore
//! records a [`GadgetEvent`] for every *top-level* word-level gadget it
//! emits — an adder, comparator, multiplexer, multiplier, divider and so
//! on — and [`crate::Circuit`] carries the trace alongside the gate list.
//! `dstress-analyze` walks the trace to propagate word intervals,
//! relational deltas and decomposition facts exactly, falling back to the
//! bit domain only for wires no gadget explains.
//!
//! "Top level" means: gadgets emitted while another gadget is being built
//! (the subtractor inside `lt_unsigned`, the adders inside `mul_full`) are
//! *not* recorded; the outer gadget's event subsumes them.  The trace is
//! purely advisory — evaluation and the GMW engine never look at it — but
//! the analyzer cross-checks every event structurally against the gate
//! list before trusting it, and the interval soundness proptests pin the
//! event semantics against concrete evaluation.

use crate::ir::WireId;

/// A fixed-width little-endian word of wires (re-declared here to avoid a
/// circular import with [`crate::builder`]).
pub type GadgetWord = Vec<WireId>;

/// What kind of word-level operation a [`GadgetEvent`] describes.
///
/// Shift amounts, fractional bits and constant values ride along in the
/// variant so the analyzer can replay the exact arithmetic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GadgetKind {
    /// `input_word`: a fresh word of circuit inputs.
    InputWord,
    /// `const_word(value)`.
    ConstWord(u64),
    /// Wrapping addition of two equal-width words.
    Add,
    /// Wrapping two's-complement subtraction `a - b`.
    Sub,
    /// Unsigned comparison `a < b` (single output bit).
    LtUnsigned,
    /// Word equality test (single output bit).
    EqWord,
    /// Bit OR (single output bit).
    Or,
    /// Bit multiplexer `if sel { a } else { b }`; the selector is
    /// `inputs[0]`'s single wire.
    MuxBit,
    /// Word multiplexer; the selector is the single wire of `inputs[0]`.
    MuxWord,
    /// Unsigned minimum.
    MinUnsigned,
    /// Bitwise XOR of words.
    XorWord,
    /// Bitwise NOT of a word.
    NotWord,
    /// Zero extension to a wider word.
    ZeroExtend,
    /// Truncation to the low bits.
    Truncate,
    /// Left shift by a constant, width preserved (high bits dropped).
    ShlConst(u32),
    /// Logical right shift by a constant, width preserved.
    ShrConst(u32),
    /// Full-width unsigned product.
    MulFull,
    /// Unsigned product truncated to the width of the first operand.
    Mul,
    /// Fixed-point product `(a * b) >> frac_bits`, truncated.
    MulFixed(u32),
    /// Capped fixed-point ratio `min((a << frac_bits) / b, 2^frac_bits)`,
    /// `frac_bits + 1` bits wide; `b = 0` gives `2^frac_bits`.
    RatioCapped(u32),
    /// Wrapping sum of a list of equal-width words.
    Sum,
    /// The number of leading ones of a word counted from its least
    /// significant bit, `⌊log₂ n⌋ + 1` bits wide for an `n`-bit input
    /// (one bit for an empty one).
    LeadingOnes,
}

/// One recorded top-level gadget: its kind, input words and output word.
///
/// Single-bit operands and results are represented as one-wire words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GadgetEvent {
    /// The operation.
    pub kind: GadgetKind,
    /// Input words, in the gadget's argument order.  For `MuxBit` and
    /// `MuxWord` the first word is the one-wire selector.
    pub inputs: Vec<GadgetWord>,
    /// The output word (one wire for comparisons and bit gadgets).
    pub output: GadgetWord,
}

impl GadgetEvent {
    /// Convenience accessor: the selector wire of a mux event.
    pub fn mux_selector(&self) -> Option<WireId> {
        match self.kind {
            GadgetKind::MuxBit | GadgetKind::MuxWord => {
                self.inputs.first().and_then(|w| w.first()).copied()
            }
            _ => None,
        }
    }
}
