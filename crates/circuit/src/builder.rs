//! Circuit construction and the word-level gadget library.
//!
//! The vertex programs DStress runs (Eisenberg–Noe and
//! Elliott–Golub–Jackson) are arithmetic: they add debts, compare
//! liquidity against obligations, pro-rate payments and multiply
//! valuations.  [`CircuitBuilder`] provides those operations as Boolean
//! gadgets over fixed-width two's-complement [`Word`]s (least-significant
//! bit first), so that the finance crate can express its update functions
//! once and run them either in plaintext (via [`crate::eval`]) or under
//! GMW (via `dstress-mpc`).
//!
//! Gate-cost notes (an AND gate is GMW's OT, AND depth its round count):
//! ripple-carry addition, comparison and multiplexers cost 1 AND/bit, an
//! equality test W − 1 AND at depth ⌈log₂ W⌉, a leading-ones count
//! (W/2)·log₂ W AND at depth ⌈log₂ W⌉, schoolbook multiplication ~2·W AND
//! per multiplier bit for the full product and half that for the low word
//! (only the columns returned are built), the capped ratio W AND for its
//! compare and ~2·W per fractional bit.  No gadget emits an AND gate that
//! nothing reads or that meets a constant of its own making;
//! `tests/gadget_costs.rs` holds the table.

use crate::gadgets::{GadgetEvent, GadgetKind};
use crate::ir::{wire_id, Circuit, CircuitError, Gate, PackedGate, WireId};

/// A fixed-width little-endian word of wires.
pub type Word = Vec<WireId>;

/// Incremental circuit builder.
#[derive(Clone, Debug, Default)]
pub struct CircuitBuilder {
    gates: Vec<PackedGate>,
    num_inputs: usize,
    outputs: Vec<WireId>,
    gadgets: Vec<GadgetEvent>,
    gadget_depth: usize,
}

impl CircuitBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        CircuitBuilder::default()
    }

    /// Marks the start of a word-level gadget; nested gadget calls bump
    /// the depth so only the outermost call records an event.
    fn enter_gadget(&mut self) {
        self.gadget_depth += 1;
    }

    /// Marks the end of a gadget and records its event when top-level.
    fn record_gadget(&mut self, kind: GadgetKind, inputs: &[&[WireId]], output: &[WireId]) {
        self.gadget_depth -= 1;
        if self.gadget_depth == 0 {
            self.gadgets.push(GadgetEvent {
                kind,
                inputs: inputs.iter().map(|w| w.to_vec()).collect(),
                output: output.to_vec(),
            });
        }
    }

    /// Appends a gate and returns the wire it drives.
    ///
    /// A full gate list grows by a quarter (and 64 gates, so a small
    /// circuit does not regrow every few gates), not by the doubling
    /// `Vec` would pick: the list is the largest part of the circuits
    /// that grow with N, and its slack stays a quarter of it at most until
    /// [`CircuitBuilder::build`] trims it.
    fn push(&mut self, gate: Gate) -> WireId {
        let id = wire_id(self.gates.len());
        if self.gates.len() == self.gates.capacity() {
            self.gates.reserve_exact(self.gates.len() / 4 + 64);
        }
        self.gates.push(PackedGate::new(gate));
        id
    }

    /// Adds a single input wire.
    pub fn input(&mut self) -> WireId {
        let id = self.push(Gate::Input(wire_id(self.num_inputs)));
        self.num_inputs += 1;
        id
    }

    /// Adds `width` input wires forming a word (LSB first).
    pub fn input_word(&mut self, width: u32) -> Word {
        self.enter_gadget();
        let out: Word = (0..width).map(|_| self.input()).collect();
        self.record_gadget(GadgetKind::InputWord, &[], &out);
        out
    }

    /// A constant bit.
    pub fn const_bit(&mut self, value: bool) -> WireId {
        self.push(if value {
            Gate::ConstTrue
        } else {
            Gate::ConstFalse
        })
    }

    /// A constant word (LSB first).
    pub fn const_word(&mut self, value: u64, width: u32) -> Word {
        self.enter_gadget();
        let out: Word = (0..width)
            .map(|i| self.const_bit((value >> i) & 1 == 1))
            .collect();
        self.record_gadget(GadgetKind::ConstWord(value), &[], &out);
        out
    }

    /// XOR of two bits.
    pub fn xor(&mut self, a: WireId, b: WireId) -> WireId {
        self.push(Gate::Xor(a, b))
    }

    /// AND of two bits.
    pub fn and(&mut self, a: WireId, b: WireId) -> WireId {
        self.push(Gate::And(a, b))
    }

    /// NOT of a bit.
    pub fn not(&mut self, a: WireId) -> WireId {
        self.push(Gate::Not(a))
    }

    /// OR of two bits (`a | b = ¬(¬a ∧ ¬b)`, one AND gate).
    pub fn or(&mut self, a: WireId, b: WireId) -> WireId {
        self.enter_gadget();
        let na = self.not(a);
        let nb = self.not(b);
        let nand = self.and(na, nb);
        let out = self.not(nand);
        self.record_gadget(GadgetKind::Or, &[&[a], &[b]], &[out]);
        out
    }

    /// Bit multiplexer: returns `if sel { then } else { otherwise }`
    /// (one AND gate).
    pub fn mux(&mut self, sel: WireId, then: WireId, otherwise: WireId) -> WireId {
        self.enter_gadget();
        let diff = self.xor(then, otherwise);
        let masked = self.and(sel, diff);
        let out = self.xor(masked, otherwise);
        self.record_gadget(GadgetKind::MuxBit, &[&[sel], &[then], &[otherwise]], &[out]);
        out
    }

    /// Word-wise multiplexer.
    ///
    /// # Panics
    ///
    /// Panics if the word widths differ.
    pub fn mux_word(&mut self, sel: WireId, then: &Word, otherwise: &Word) -> Word {
        assert_eq!(then.len(), otherwise.len(), "mux_word width mismatch");
        self.enter_gadget();
        let out: Word = then
            .iter()
            .zip(otherwise.iter())
            .map(|(&t, &o)| self.mux(sel, t, o))
            .collect();
        self.record_gadget(GadgetKind::MuxWord, &[&[sel], then, otherwise], &out);
        out
    }

    /// Bitwise XOR of two words.
    pub fn xor_word(&mut self, a: &Word, b: &Word) -> Word {
        assert_eq!(a.len(), b.len(), "xor_word width mismatch");
        self.enter_gadget();
        let out: Word = a
            .iter()
            .zip(b.iter())
            .map(|(&x, &y)| self.xor(x, y))
            .collect();
        self.record_gadget(GadgetKind::XorWord, &[a, b], &out);
        out
    }

    /// Bitwise NOT of a word.
    pub fn not_word(&mut self, a: &Word) -> Word {
        self.enter_gadget();
        let out: Word = a.iter().map(|&x| self.not(x)).collect();
        self.record_gadget(GadgetKind::NotWord, &[a], &out);
        out
    }

    /// Ripple-carry addition with explicit carry-in: the sum word, one
    /// bit wider — the carry-out on top — when `carry_out` is asked for
    /// and wrapping when it is not (no AND gate for a carry nobody reads).
    /// One AND per bit: `c' = c ⊕ ((x ⊕ c) ∧ (y ⊕ c))`.
    fn add_with_carry(
        &mut self,
        a: &[WireId],
        b: &[WireId],
        carry_in: WireId,
        carry_out: bool,
    ) -> Word {
        assert_eq!(a.len(), b.len(), "add width mismatch");
        let mut carry = carry_in;
        let mut sum = Vec::with_capacity(a.len() + 1);
        for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
            let x_xor_c = self.xor(x, carry);
            sum.push(self.xor(x_xor_c, y));
            if carry_out || i + 1 < a.len() {
                let y_xor_c = self.xor(y, carry);
                let differs = self.and(x_xor_c, y_xor_c);
                carry = self.xor(carry, differs);
            }
        }
        if carry_out {
            sum.push(carry);
        }
        sum
    }

    /// Wrapping addition of two equal-width words.
    pub fn add(&mut self, a: &Word, b: &Word) -> Word {
        self.enter_gadget();
        let zero = self.const_bit(false);
        let out = self.add_with_carry(a, b, zero, false);
        self.record_gadget(GadgetKind::Add, &[a, b], &out);
        out
    }

    /// Wrapping subtraction `a - b` (two's complement).
    pub fn sub(&mut self, a: &Word, b: &Word) -> Word {
        self.enter_gadget();
        let not_b = self.not_word(b);
        let one = self.const_bit(true);
        let out = self.add_with_carry(a, &not_b, one, false);
        self.record_gadget(GadgetKind::Sub, &[a, b], &out);
        out
    }

    /// Unsigned comparison `a < b` (single output bit).
    pub fn lt_unsigned(&mut self, a: &Word, b: &Word) -> WireId {
        self.enter_gadget();
        // a < b  iff  the subtraction a - b borrows, i.e. the carry-out of
        // a + ¬b + 1 is zero.
        let not_b = self.not_word(b);
        let one = self.const_bit(true);
        let widened = self.add_with_carry(a, &not_b, one, true);
        let out = self.not(widened[a.len()]);
        self.record_gadget(GadgetKind::LtUnsigned, &[a, b], &[out]);
        out
    }

    /// Equality test of two words (single output bit): the per-bit
    /// "same" wires reduced by a balanced AND tree, depth ⌈log₂ width⌉.
    pub fn eq_word(&mut self, a: &Word, b: &Word) -> WireId {
        self.enter_gadget();
        let differs = self.xor_word(a, b);
        let mut level = self.not_word(&differs);
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|pair| match *pair {
                    [l, r] => self.and(l, r),
                    _ => pair[0],
                })
                .collect();
        }
        let all_equal = level.pop().unwrap_or_else(|| self.const_bit(true));
        self.record_gadget(GadgetKind::EqWord, &[a, b], &[all_equal]);
        all_equal
    }

    /// The number of leading ones of `a` counted from its least
    /// significant bit, `(!a).trailing_zeros().min(n)` for an `n`-bit
    /// word, as a `⌊log₂ n⌋ + 1`-bit word (one bit for an empty word).
    ///
    /// A Sklansky parallel-prefix AND scan builds the thermometer code
    /// `t_i = a_0 ∧ … ∧ a_i` in ⌈log₂ n⌉ AND layers ((n/2)·log₂ n AND
    /// gates at a power of two).  Its popcount is the count `c`, and a
    /// thermometer's popcount needs no AND gate: `t_i` is set exactly for
    /// `i < c`, so bit k of `c`, the parity of ⌊c / 2^k⌋, is the XOR of
    /// `t_i` over every `i ≡ 2^k − 1 (mod 2^k)`.
    pub fn leading_ones(&mut self, a: &Word) -> Word {
        self.enter_gadget();
        let n = a.len();
        let mut prefix = a.clone();
        let mut half = 1;
        while half < n {
            // In each block of 2·half, the upper half takes in the lower
            // half's last prefix.
            for block in prefix.chunks_mut(2 * half).filter(|b| b.len() > half) {
                let (lower, upper) = block.split_at_mut(half);
                for t in upper {
                    *t = self.and(lower[half - 1], *t);
                }
            }
            half *= 2;
        }
        let width = (usize::BITS - n.leading_zeros()).max(1) as usize;
        let out: Word = (0..width)
            .map(|k| {
                let step = 1 << k;
                let mut taps = prefix.iter().skip(step - 1).step_by(step).copied();
                match taps.next() {
                    Some(first) => taps.fold(first, |acc, t| self.xor(acc, t)),
                    None => self.const_bit(false),
                }
            })
            .collect();
        self.record_gadget(GadgetKind::LeadingOnes, &[a], &out);
        out
    }

    /// Unsigned minimum of two words.
    pub fn min_unsigned(&mut self, a: &Word, b: &Word) -> Word {
        self.enter_gadget();
        let a_lt_b = self.lt_unsigned(a, b);
        let out = self.mux_word(a_lt_b, a, b);
        self.record_gadget(GadgetKind::MinUnsigned, &[a, b], &out);
        out
    }

    /// Zero-extends a word to `width` bits.
    pub fn zero_extend(&mut self, a: &Word, width: u32) -> Word {
        assert!(width as usize >= a.len(), "cannot shrink in zero_extend");
        self.enter_gadget();
        let mut out = a.clone();
        while out.len() < width as usize {
            out.push(self.const_bit(false));
        }
        self.record_gadget(GadgetKind::ZeroExtend, &[a], &out);
        out
    }

    /// Truncates a word to its low `width` bits.
    pub fn truncate(&mut self, a: &Word, width: u32) -> Word {
        assert!(width as usize <= a.len(), "cannot grow in truncate");
        self.enter_gadget();
        let out = a[..width as usize].to_vec();
        self.record_gadget(GadgetKind::Truncate, &[a], &out);
        out
    }

    /// Logical left shift by a constant amount (bits shifted in are zero),
    /// keeping the original width.
    pub fn shl_const(&mut self, a: &Word, amount: u32) -> Word {
        self.enter_gadget();
        let width = a.len();
        let mut out = Vec::with_capacity(width);
        for i in 0..width {
            if i < amount as usize {
                out.push(self.const_bit(false));
            } else {
                out.push(a[i - amount as usize]);
            }
        }
        self.record_gadget(GadgetKind::ShlConst(amount), &[a], &out);
        out
    }

    /// Logical right shift by a constant amount, keeping the width.
    pub fn shr_const(&mut self, a: &Word, amount: u32) -> Word {
        self.enter_gadget();
        let width = a.len();
        let mut out = Vec::with_capacity(width);
        for i in 0..width {
            let src = i + amount as usize;
            if src < width {
                out.push(a[src]);
            } else {
                out.push(self.const_bit(false));
            }
        }
        self.record_gadget(GadgetKind::ShrConst(amount), &[a], &out);
        out
    }

    /// Columns `skip..cols` of the unsigned schoolbook product `a · b`.
    /// Row `i` (`a ∧ bᵢ`) lands on columns `i .. i + a.len()` and is added
    /// to the running product over exactly those: the columns below are
    /// final and the adder's carry-out *is* the next column up.  Nothing
    /// at or above `cols` is built, nor a skipped column 0 — one partial
    /// product that carries nowhere (every other skipped column does).
    fn mul_low(&mut self, a: &[WireId], b: &[WireId], skip: usize, cols: usize) -> Word {
        let zero = self.const_bit(false);
        let mut acc = Word::with_capacity(cols);
        for (i, &b_bit) in b.iter().enumerate().take(cols) {
            let row: Word = (i..cols)
                .zip(a)
                .map(|(col, &a_bit)| {
                    if col == 0 && skip > 0 {
                        zero
                    } else {
                        self.and(a_bit, b_bit)
                    }
                })
                .collect();
            if i == 0 {
                acc = row;
                continue;
            }
            // Only row 1 finds the product one column short of itself.
            acc.resize(acc.len().max(i + row.len()), zero);
            let sum = self.add_with_carry(&acc[i..], &row, zero, i + row.len() < cols);
            acc.truncate(i);
            acc.extend(sum);
        }
        acc.resize(cols, zero);
        acc.split_off(skip)
    }

    /// Unsigned schoolbook multiplication producing the full
    /// `a.len() + b.len()`-bit product.
    pub fn mul_full(&mut self, a: &Word, b: &Word) -> Word {
        self.enter_gadget();
        let out = self.mul_low(a, b, 0, a.len() + b.len());
        self.record_gadget(GadgetKind::MulFull, &[a, b], &out);
        out
    }

    /// Unsigned multiplication truncated to the width of `a`
    /// (wrapping, like `u64::wrapping_mul` at that width).
    pub fn mul(&mut self, a: &Word, b: &Word) -> Word {
        self.enter_gadget();
        let out = self.mul_low(a, b, 0, a.len());
        self.record_gadget(GadgetKind::Mul, &[a, b], &out);
        out
    }

    /// Fixed-point multiplication of two non-negative values with
    /// `frac_bits` fractional bits: computes `(a * b) >> frac_bits`
    /// truncated back to the operand width.
    pub fn mul_fixed(&mut self, a: &Word, b: &Word, frac_bits: u32) -> Word {
        self.enter_gadget();
        let frac = frac_bits as usize;
        let out = self.mul_low(a, b, frac, a.len() + frac);
        self.record_gadget(GadgetKind::MulFixed(frac_bits), &[a, b], &out);
        out
    }

    /// The capped fixed-point ratio `min((a << frac_bits) / b, 2^frac_bits)`
    /// of non-negative values, as a `frac_bits + 1`-bit word; `b = 0`
    /// gives `2^frac_bits`.
    ///
    /// One `a ≥ b` compare runs beside `frac_bits` restoring steps that
    /// start from `rem = a`.  When `a < b` a full divider's integer steps
    /// could only produce zeros and leave `rem = a`; when `a ≥ b` the
    /// answer is `2^frac_bits` whatever the steps say.  So the step bits
    /// are ANDed with `a < b` and the top bit is `a ≥ b`.  A step shifts
    /// a zero into the remainder and subtracts the divisor if it fits:
    /// the carry-out of `2·rem − b` (built as `2·rem + ¬b + 1`) is set
    /// exactly when `2·rem ≥ b`, so it *is* the quotient bit, and while
    /// `rem < b < 2^W` the shifted remainder fits W + 1 bits.
    pub fn ratio_capped(&mut self, a: &Word, b: &Word, frac_bits: u32) -> Word {
        assert_eq!(a.len(), b.len(), "ratio width mismatch");
        assert!(!a.is_empty(), "ratio of empty words");
        self.enter_gadget();
        let width = a.len();
        let (zero, one) = (self.const_bit(false), self.const_bit(true));
        // ¬b zero-extended by one bit; the compare reads its low W bits.
        let mut not_b = self.not_word(b);
        not_b.push(one);
        let at_least = self.add_with_carry(a, &not_b[..width], one, true)[width];
        let below = self.not(at_least);

        let mut rem = a.clone();
        let mut out = Word::with_capacity(frac_bits as usize + 1); // MSB first
        for j in 0..frac_bits {
            // A zero is shifted in: 0 − b₀ is b₀ and carries ¬b₀, so the
            // subtractor starts at bit 1.
            let mut diff = self.add_with_carry(&rem, &not_b[1..], not_b[0], true);
            let q = diff[width];
            out.push(self.and(q, below));
            if j + 1 < frac_bits {
                diff.insert(0, b[0]);
                diff.truncate(width);
                rem.insert(0, zero);
                rem.truncate(width);
                rem = self.mux_word(q, &diff, &rem);
            }
        }
        out.reverse();
        out.push(at_least);
        self.record_gadget(GadgetKind::RatioCapped(frac_bits), &[a, b], &out);
        out
    }

    /// Sums a list of equal-width words (wrapping).
    pub fn sum(&mut self, words: &[Word]) -> Word {
        assert!(!words.is_empty(), "sum of no words");
        self.enter_gadget();
        let mut acc = words[0].clone();
        for w in &words[1..] {
            acc = self.add(&acc, w);
        }
        let inputs: Vec<&[WireId]> = words.iter().map(|w| w.as_slice()).collect();
        self.record_gadget(GadgetKind::Sum, &inputs, &acc);
        acc
    }

    /// Marks a single wire as a circuit output.
    pub fn output(&mut self, wire: WireId) {
        self.outputs.push(wire);
    }

    /// Marks all wires of a word as outputs (LSB first).
    pub fn output_word(&mut self, word: &Word) {
        self.outputs.extend_from_slice(word);
    }

    /// Number of gates added so far.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Returns `true` if no gates have been added.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Finalises the circuit.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] if the gate list is inconsistent (cannot
    /// happen when only builder methods were used).
    pub fn build(self) -> Result<Circuit, CircuitError> {
        Circuit::from_packed(self.gates, self.num_inputs, self.outputs, self.gadgets)
    }
}

/// Encodes an unsigned value as input bits for a word of `width` bits
/// (LSB first), for use with [`crate::eval::evaluate`].
pub fn encode_word(value: u64, width: u32) -> Vec<bool> {
    (0..width).map(|i| (value >> i) & 1 == 1).collect()
}

/// Encodes a signed value in two's complement at the given width.
pub fn encode_word_signed(value: i64, width: u32) -> Vec<bool> {
    encode_word(value as u64, width)
}

/// Decodes output bits (LSB first) into an unsigned value.
pub fn decode_word(bits: &[bool]) -> u64 {
    bits.iter()
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i))
}

/// Decodes output bits (LSB first) as a two's-complement signed value.
pub fn decode_word_signed(bits: &[bool]) -> i64 {
    let raw = decode_word(bits);
    let width = bits.len() as u32;
    if width == 64 || bits.last().copied() != Some(true) {
        raw as i64
    } else {
        (raw as i64) - (1i64 << width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use proptest::prelude::*;

    const W: u32 = 16;

    /// Helper: builds a two-input word circuit with `f`, evaluates it on
    /// `(a, b)` and returns the decoded unsigned output.
    fn run_binop(f: impl Fn(&mut CircuitBuilder, &Word, &Word) -> Word, a: u64, b: u64) -> u64 {
        let mut builder = CircuitBuilder::new();
        let wa = builder.input_word(W);
        let wb = builder.input_word(W);
        let out = f(&mut builder, &wa, &wb);
        builder.output_word(&out);
        let circuit = builder.build().unwrap();
        let mut inputs = encode_word(a, W);
        inputs.extend(encode_word(b, W));
        decode_word(&evaluate(&circuit, &inputs).unwrap())
    }

    /// Helper for single-bit-output comparisons.
    fn run_cmp(f: impl Fn(&mut CircuitBuilder, &Word, &Word) -> WireId, a: u64, b: u64) -> bool {
        let mut builder = CircuitBuilder::new();
        let wa = builder.input_word(W);
        let wb = builder.input_word(W);
        let out = f(&mut builder, &wa, &wb);
        builder.output(out);
        let circuit = builder.build().unwrap();
        let mut inputs = encode_word(a, W);
        inputs.extend(encode_word(b, W));
        evaluate(&circuit, &inputs).unwrap()[0]
    }

    #[test]
    fn encode_decode_roundtrip() {
        assert_eq!(decode_word(&encode_word(0xABCD, 16)), 0xABCD);
        assert_eq!(decode_word_signed(&encode_word_signed(-5, 16)), -5);
        assert_eq!(decode_word_signed(&encode_word_signed(5, 16)), 5);
        assert_eq!(decode_word_signed(&encode_word_signed(-1, 8)), -1);
    }

    #[test]
    fn addition() {
        assert_eq!(run_binop(|b, x, y| b.add(x, y), 1000, 2345), 3345);
        // Wrapping behaviour.
        assert_eq!(run_binop(|b, x, y| b.add(x, y), 0xFFFF, 1), 0);
    }

    #[test]
    fn subtraction() {
        assert_eq!(run_binop(|b, x, y| b.sub(x, y), 5000, 1234), 3766);
        // Wraps to two's complement.
        assert_eq!(run_binop(|b, x, y| b.sub(x, y), 0, 1), 0xFFFF);
    }

    #[test]
    fn multiplication() {
        assert_eq!(run_binop(|b, x, y| b.mul(x, y), 123, 456), 123 * 456);
        assert_eq!(
            run_binop(|b, x, y| b.mul(x, y), 300, 300),
            (300 * 300) & 0xFFFF
        );
    }

    #[test]
    fn fixed_point_multiplication() {
        // With 8 fractional bits: 2.5 * 1.5 = 3.75 => 960/256.
        let a = (2.5f64 * 256.0) as u64;
        let b = (1.5f64 * 256.0) as u64;
        let out = run_binop(|bld, x, y| bld.mul_fixed(x, y, 8), a, b);
        assert_eq!(out, (3.75f64 * 256.0) as u64);
    }

    #[test]
    fn fixed_point_division() {
        // With 8 fractional bits: 3 / 4 = 0.75 => 192/256.
        let out = run_binop(|bld, x, y| bld.ratio_capped(x, y, 8), 3 << 8, 4 << 8);
        assert_eq!(out, 192);
        // 10 / 4 = 2.5 is capped at one => 256/256.
        let out = run_binop(|bld, x, y| bld.ratio_capped(x, y, 8), 10 << 8, 4 << 8);
        assert_eq!(out, 256);
    }

    #[test]
    fn division_by_zero_saturates() {
        let out = run_binop(|bld, x, y| bld.ratio_capped(x, y, 4), 7 << 4, 0);
        assert_eq!(out, 1 << 4);
    }

    #[test]
    fn comparisons() {
        assert!(run_cmp(|b, x, y| b.lt_unsigned(x, y), 3, 5));
        assert!(!run_cmp(|b, x, y| b.lt_unsigned(x, y), 5, 3));
        assert!(!run_cmp(|b, x, y| b.lt_unsigned(x, y), 5, 5));
        assert!(run_cmp(|b, x, y| b.eq_word(x, y), 1234, 1234));
        assert!(!run_cmp(|b, x, y| b.eq_word(x, y), 1234, 1235));
    }

    #[test]
    fn unsigned_minimum() {
        assert_eq!(run_binop(|b, x, y| b.min_unsigned(x, y), 9, 4), 4);
        assert_eq!(run_binop(|b, x, y| b.min_unsigned(x, y), 4, 9), 4);
    }

    #[test]
    fn mux_word_selects() {
        let mut builder = CircuitBuilder::new();
        let sel = builder.input();
        let a = builder.input_word(8);
        let b = builder.input_word(8);
        let out = builder.mux_word(sel, &a, &b);
        builder.output_word(&out);
        let circuit = builder.build().unwrap();
        for (sel_v, expected) in [(true, 0xAA), (false, 0x55)] {
            let mut inputs = vec![sel_v];
            inputs.extend(encode_word(0xAA, 8));
            inputs.extend(encode_word(0x55, 8));
            assert_eq!(decode_word(&evaluate(&circuit, &inputs).unwrap()), expected);
        }
    }

    #[test]
    fn shifts() {
        assert_eq!(run_binop(|b, x, _| b.shl_const(x, 3), 0b101, 0), 0b101000);
        assert_eq!(run_binop(|b, x, _| b.shr_const(x, 2), 0b10100, 0), 0b101);
        assert_eq!(run_binop(|b, x, _| b.shl_const(x, 0), 77, 0), 77);
    }

    #[test]
    fn sum_of_words() {
        let mut builder = CircuitBuilder::new();
        let words: Vec<Word> = (0..5).map(|_| builder.input_word(W)).collect();
        let total = builder.sum(&words);
        builder.output_word(&total);
        let circuit = builder.build().unwrap();
        let values = [10u64, 20, 30, 40, 50];
        let inputs: Vec<bool> = values.iter().flat_map(|&v| encode_word(v, W)).collect();
        assert_eq!(decode_word(&evaluate(&circuit, &inputs).unwrap()), 150);
    }

    #[test]
    fn gadget_trace_records_top_level_only() {
        use crate::gadgets::GadgetKind;
        let mut builder = CircuitBuilder::new();
        let a = builder.input_word(8);
        let b = builder.input_word(8);
        // min_unsigned internally builds a comparator and a word mux; only
        // the outer MinUnsigned event may appear.
        let m = builder.min_unsigned(&a, &b);
        builder.output_word(&m);
        let circuit = builder.build().unwrap();
        let kinds: Vec<_> = circuit.gadgets().iter().map(|e| e.kind.clone()).collect();
        assert_eq!(
            kinds,
            vec![
                GadgetKind::InputWord,
                GadgetKind::InputWord,
                GadgetKind::MinUnsigned
            ]
        );
        let ev = &circuit.gadgets()[2];
        assert_eq!(ev.inputs, vec![a, b]);
        assert_eq!(ev.output, m);
    }

    #[test]
    fn gadget_trace_carries_parameters() {
        use crate::gadgets::GadgetKind;
        let mut builder = CircuitBuilder::new();
        let a = builder.input_word(8);
        let b = builder.input_word(8);
        let q = builder.ratio_capped(&a, &b, 4);
        let s = builder.shl_const(&q, 2);
        let c = builder.const_word(42, 8);
        let p = builder.mul_fixed(&s, &c, 4);
        builder.output_word(&p);
        let circuit = builder.build().unwrap();
        let kinds: Vec<_> = circuit.gadgets().iter().map(|e| e.kind.clone()).collect();
        assert_eq!(
            kinds,
            vec![
                GadgetKind::InputWord,
                GadgetKind::InputWord,
                GadgetKind::RatioCapped(4),
                GadgetKind::ShlConst(2),
                GadgetKind::ConstWord(42),
                GadgetKind::MulFixed(4),
            ]
        );
    }

    #[test]
    fn mux_event_exposes_selector() {
        let mut builder = CircuitBuilder::new();
        let sel = builder.input();
        let a = builder.input_word(4);
        let b = builder.input_word(4);
        let out = builder.mux_word(sel, &a, &b);
        builder.output_word(&out);
        let circuit = builder.build().unwrap();
        let mux = circuit.gadgets().last().unwrap();
        assert_eq!(mux.mux_selector(), Some(sel));
    }

    #[test]
    fn or_gate_truth_table() {
        for (a, b, expect) in [
            (false, false, false),
            (true, false, true),
            (false, true, true),
            (true, true, true),
        ] {
            let mut builder = CircuitBuilder::new();
            let wa = builder.input();
            let wb = builder.input();
            let o = builder.or(wa, wb);
            builder.output(o);
            let c = builder.build().unwrap();
            assert_eq!(evaluate(&c, &[a, b]).unwrap()[0], expect);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_add_matches_native(a in 0u64..65536, b in 0u64..65536) {
            prop_assert_eq!(run_binop(|bld, x, y| bld.add(x, y), a, b), (a + b) & 0xFFFF);
        }

        #[test]
        fn prop_sub_matches_native(a in 0u64..65536, b in 0u64..65536) {
            prop_assert_eq!(run_binop(|bld, x, y| bld.sub(x, y), a, b), a.wrapping_sub(b) & 0xFFFF);
        }

        #[test]
        fn prop_mul_matches_native(a in 0u64..65536, b in 0u64..65536) {
            prop_assert_eq!(run_binop(|bld, x, y| bld.mul(x, y), a, b), (a * b) & 0xFFFF);
        }

        #[test]
        fn prop_lt_matches_native(a in 0u64..65536, b in 0u64..65536) {
            prop_assert_eq!(run_cmp(|bld, x, y| bld.lt_unsigned(x, y), a, b), a < b);
        }

        #[test]
        fn prop_div_matches_native(a in 0u64..256, b in 1u64..256) {
            let out = run_binop(|bld, x, y| bld.ratio_capped(x, y, 8), a << 8, b << 8);
            let expected = ((a << 16) / (b << 8)).min(1 << 8);
            prop_assert_eq!(out, expected);
        }
    }
}
