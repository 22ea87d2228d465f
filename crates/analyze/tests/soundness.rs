//! Soundness proptests for the interval domain: on randomly generated
//! gadget circuits, any concrete evaluation on inputs drawn from the
//! declared ranges must land inside every certified interval.

use dstress_analyze::{RangeAnalysis, RangeConfig};
use dstress_circuit::builder::{decode_word, decode_word_signed, encode_word, CircuitBuilder};
use dstress_circuit::{evaluate, Interval, WireId};
use proptest::prelude::*;

const WIDTH: u32 = 16;

/// Builds a random gadget DAG from an op stream.  Every op result is
/// exported as an output word so the proptest can observe it concretely.
/// Ops are drawn from the non-wrapping repertoire the shipped circuits
/// use (including the clamp idiom, whose inner subtraction *does* wrap
/// on the unselected branch).
fn build(ops: &[u64], input_his: &[u64]) -> (dstress_circuit::Circuit, Vec<Vec<WireId>>) {
    let mut b = CircuitBuilder::new();
    let mut words: Vec<Vec<WireId>> = input_his.iter().map(|_| b.input_word(WIDTH)).collect();
    let mut exported: Vec<Vec<WireId>> = Vec::new();
    for &op in ops {
        let i = (op >> 8) as usize % words.len();
        let j = (op >> 24) as usize % words.len();
        let (x, y) = (words[i].clone(), words[j].clone());
        let out = match op % 7 {
            0 => b.add(&x, &y),
            1 => {
                // clamp: max(x - y, 0) via the guarded mux idiom.
                let lt = b.lt_unsigned(&x, &y);
                let diff = b.sub(&x, &y);
                let zero = b.const_word(0, WIDTH);
                b.mux_word(lt, &zero, &diff)
            }
            2 => b.min_unsigned(&x, &y),
            3 => b.shr_const(&x, 1 + (op >> 40) as u32 % 3),
            4 => b.mul_fixed(&x, &y, 8),
            5 => {
                let ratio = b.ratio_capped(&x, &y, (op >> 40) as u32 % 9);
                b.zero_extend(&ratio, WIDTH)
            }
            _ => {
                let lt = b.lt_unsigned(&x, &y);
                b.mux_word(lt, &x, &y)
            }
        };
        b.output_word(&out);
        exported.push(out.clone());
        words.push(out);
    }
    (b.build().unwrap(), exported)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn certified_intervals_contain_concrete_runs(
        ops in proptest::collection::vec(any::<u64>(), 1..24),
        his in proptest::collection::vec(1u64..4000, 2..4),
        vals in proptest::collection::vec(any::<u64>(), 2..4),
        ) {
        let (circuit, exported) = build(&ops, &his);
        let input_words: Vec<Vec<WireId>> = {
            // Recover the input words from the builder layout: inputs are
            // the first `his.len() * WIDTH` wires in order.
            (0..his.len())
                .map(|k| {
                    ((k * WIDTH as usize)..((k + 1) * WIDTH as usize))
                        .map(|w| w as WireId)
                        .collect()
                })
                .collect()
        };
        let cfg = RangeConfig::new(
            "soundness",
            input_words
                .iter()
                .zip(&his)
                .map(|(w, &hi)| (w.clone(), Interval::new(0, hi as i128)))
                .collect(),
        );
        let ra = RangeAnalysis::run(&circuit, &cfg);
        // Random compositions can genuinely overflow (chained adds and
        // fixed-point products); soundness of the certified intervals is
        // only claimed for certified circuits.
        prop_assume!(ra.findings.is_empty());

        let mut bits = Vec::new();
        for (k, &hi) in his.iter().enumerate() {
            let v = vals.get(k).copied().unwrap_or(0) % (hi + 1);
            bits.extend(encode_word(v, WIDTH));
        }
        let out = evaluate(&circuit, &bits).unwrap();
        let mut offset = 0usize;
        for word in &exported {
            let w = word.len();
            let slice = &out[offset..offset + w];
            offset += w;
            let iv = ra.interval_of(word);
            let concrete = if iv.lo < 0 {
                decode_word_signed(slice)
            } else {
                decode_word(slice) as i64
            };
            prop_assert!(
                iv.contains(concrete as i128),
                "concrete {} outside certified {} for word {:?}",
                concrete,
                iv,
                word
            );
        }
    }
}
