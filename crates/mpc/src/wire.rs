//! Wire encoding of the GMW protocol messages.
//!
//! Every [`GmwMessage`] is encoded by hand on top of the primitives in
//! [`dstress_net::wire`]; both transport backends move these encodings as
//! bytes, so the byte totals in a run's [`dstress_net::wire::WireTally`]
//! are measured from these layouts.
//!
//! ## Layouts
//!
//! | message | layout |
//! |---|---|
//! | `OtSetup`   | `0x00` · bytes(ot_payload) |
//! | `Choices`   | `0x03` · uvarint(layer) · uvarint(w) · x-plane⌈w/8⌉ · y-plane⌈w/8⌉ · bytes(ot_payload) |
//! | `Responses` | `0x04` · uvarint(layer) · uvarint(w) · bit-plane⌈w/8⌉ · bytes(ot_payload) |
//!
//! Tags `0x01` and `0x02` are retired and decode as [`WireError::BadTag`];
//! a per-gate run sends one-gate `Choices`/`Responses`.
//!
//! `bytes(…)` is a varint length followed by raw bytes; bit planes pack
//! LSB-first with zero padding (the parser rejects dirty padding bits).
//! The batched choice and share bits therefore cost **one bit each** on
//! the wire — `⌈w/8⌉` bytes per plane for a `w`-gate layer — instead of a
//! header per gate.
//!
//! ## One codec, read and written in place
//!
//! The layout is decided once, here, by one writer and one parser:
//!
//! * every encoding is appended by one writer, reserved to its exact
//!   length ([`GmwMessage::encoded_len`]); the in-place doors
//!   `write_choices` and `write_responses` give it a layer's choice
//!   planes packed once or its response bits, and generate the
//!   seed-derived OT payload straight into the output — what a
//!   [`crate::party::GmwParty`] writes into a transport lane;
//! * every encoding is read by one parser, `GmwView::read`, which checks
//!   it and borrows its planes and payload from the buffer — what a party
//!   reads a peer's batch through.
//!
//! The owned [`GmwMessage`] codec wraps the two: `encode_into` is the
//! writer over the message's own vectors, `decode` is the parser plus
//! one copy, and `check_exact` is the parser alone.  So the bytes a party writes in
//! place are the bytes `encode` produces, and the view accepts and
//! rejects exactly what `decode_exact` does, with the same [`WireError`].

use crate::party::{derive_seed, GmwMessage};
use core::fmt;
use dstress_math::rng::{DetRng, SplitMix64};
use dstress_net::wire::{self, Wire, WireError};

/// Message tags (the first byte of every encoding).
const TAG_OT_SETUP: u8 = 0x00;
const TAG_CHOICES: u8 = 0x03;
const TAG_RESPONSES: u8 = 0x04;

/// Domain tag of the base-OT key material a pair *owner* sends at setup.
pub const PAYLOAD_SETUP_FROM_OWNER: u64 = 0x7365_7475_703A_6F77; // "setup:ow"
/// Domain tag of the base-OT key material the *peer* answers with.
pub const PAYLOAD_SETUP_FROM_PEER: u64 = 0x7365_7475_703A_7065; // "setup:pe"
/// Domain tag of the receiver-side per-OT payload (extension-matrix
/// columns or public keys), carried by `Choices` messages.
pub const PAYLOAD_RECEIVER: u64 = 0x6F74_3A72_6563_6569; // "ot:recei"
/// Domain tag of the sender-side per-OT payload (masked messages or
/// ciphertexts), carried by `Responses` messages.
pub const PAYLOAD_SENDER: u64 = 0x6F74_3A73_656E_6465; // "ot:sende"

/// Derives the simulated OT payload *content* for one message from the
/// pair seed, a direction tag and the layer index.
///
/// Both ends of a pair derive the same seed from the execution's master
/// seed, so every OT payload byte on the wire is a pure function of
/// `(master seed, pair, direction, index)`: transcripts are replayable
/// and byte-identical across transport backends *by construction*, not
/// merely size-faithful (the sizes are the per-OT payload figures of
/// [`crate::party::OtConfig`]).
pub fn ot_payload(pair_seed: u64, direction: u64, index: u64, len: usize) -> Vec<u8> {
    let mut bytes = vec![0u8; len];
    fill_ot_payload(pair_seed, direction, index, &mut bytes);
    bytes
}

/// [`ot_payload`] generated straight into `out` (its length is the
/// payload's): one keyed stream per message.
pub(crate) fn fill_ot_payload(pair_seed: u64, direction: u64, index: u64, out: &mut [u8]) {
    SplitMix64::new(derive_seed(pair_seed, direction, index)).fill_bytes(out);
}

/// Upper bound on the header bytes of a batched `Choices`/`Responses`
/// encoding: the tag, two worst-case `u32` varints (layer, count) and the
/// varint length of an empty OT payload.  The regression tests assert a
/// `w`-gate `Choices` message costs at most `2·⌈w/8⌉` bit-plane bytes
/// (one bit per choice bit, two planes) plus this header.
pub const BATCH_HEADER_MAX: usize = 1 + 5 + 5 + 1;

/// The kind of a [`GmwMessage`], as its tag byte names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GmwKind {
    /// [`GmwMessage::OtSetup`].
    OtSetup,
    /// [`GmwMessage::Choices`].
    Choices,
    /// [`GmwMessage::Responses`].
    Responses,
}

impl fmt::Display for GmwKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GmwKind::OtSetup => "OtSetup",
            GmwKind::Choices => "Choices",
            GmwKind::Responses => "Responses",
        })
    }
}

impl GmwKind {
    /// Bit planes of a batch of this kind: the x- and y-shares of
    /// `Choices`, the received bits of `Responses`, none for `OtSetup`.
    pub(crate) fn planes(self) -> usize {
        match self {
            GmwKind::OtSetup => 0,
            GmwKind::Choices => 2,
            GmwKind::Responses => 1,
        }
    }

    fn tag(self) -> u8 {
        match self {
            GmwKind::OtSetup => TAG_OT_SETUP,
            GmwKind::Choices => TAG_CHOICES,
            GmwKind::Responses => TAG_RESPONSES,
        }
    }

    fn of_tag(tag: u8) -> Result<Self, WireError> {
        match tag {
            TAG_OT_SETUP => Ok(GmwKind::OtSetup),
            TAG_CHOICES => Ok(GmwKind::Choices),
            TAG_RESPONSES => Ok(GmwKind::Responses),
            tag => Err(WireError::BadTag {
                tag,
                what: "GmwMessage",
            }),
        }
    }
}

/// One encoded [`GmwMessage`], checked and borrowed in place: the parser
/// every decode goes through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct GmwView<'a> {
    /// The message kind.
    pub kind: GmwKind,
    /// The batch's AND layer (0 for `OtSetup`).
    pub layer: u32,
    /// The batch's width in gates (0 for `OtSetup`).
    pub gates: usize,
    /// The packed bit planes back to back, `kind.planes()` of
    /// `⌈gates/8⌉` bytes each, their padding bits checked zero.
    pub planes: &'a [u8],
    /// The OT payload.
    pub ot_payload: &'a [u8],
}

impl<'a> GmwView<'a> {
    /// Parses one message off the front of `buf`, advancing it past the
    /// message.
    ///
    /// # Errors
    ///
    /// [`WireError::BadTag`] for an unknown or retired tag,
    /// [`WireError::Invalid`] for a layer past `u32` or dirty plane
    /// padding, [`WireError::Truncated`] / [`WireError::VarintOverflow`]
    /// for a buffer that ends inside the message or a broken varint.
    // Always inlined, like `parse_exact`: see `GmwParty::expect`.
    #[inline(always)]
    pub fn read(buf: &mut &'a [u8]) -> Result<Self, WireError> {
        let kind = GmwKind::of_tag(wire::get_u8(buf)?)?;
        let (mut layer, mut gates) = (0, 0);
        if kind != GmwKind::OtSetup {
            layer = u32::try_from(wire::get_uvarint(buf)?)
                .map_err(|_| WireError::Invalid { what: "GmwMessage" })?;
            gates = wire::get_uvarint(buf)? as usize;
        }
        let at = *buf;
        for _ in 0..kind.planes() {
            wire::get_bit_plane(buf, gates)?;
        }
        let planes = &at[..at.len() - buf.len()];
        let ot_payload = wire::get_byte_slice(buf)?;
        Ok(GmwView {
            kind,
            layer,
            gates,
            planes,
            ot_payload,
        })
    }

    /// Parses a buffer that must hold exactly one message.
    ///
    /// # Errors
    ///
    /// [`WireError::Trailing`] if bytes remain after the message, or any
    /// error of [`GmwView::read`].
    #[inline(always)]
    pub fn parse_exact(mut buf: &'a [u8]) -> Result<Self, WireError> {
        let view = GmwView::read(&mut buf)?;
        if buf.is_empty() {
            Ok(view)
        } else {
            Err(WireError::Trailing {
                remaining: buf.len(),
            })
        }
    }

    /// Plane `index` of the batch (`0` is the x-plane of `Choices` and
    /// the bit plane of `Responses`, `1` the y-plane of `Choices`).
    pub fn plane(&self, index: usize) -> &'a [u8] {
        let len = wire::bits_len(self.gates);
        &self.planes[index * len..(index + 1) * len]
    }

    /// The owned message: the view's planes unpacked and its payload
    /// copied.
    pub fn to_message(self) -> GmwMessage {
        let ot_payload = self.ot_payload.to_vec();
        let (layer, gates) = (self.layer, self.gates);
        match self.kind {
            GmwKind::OtSetup => GmwMessage::OtSetup { ot_payload },
            GmwKind::Choices => {
                let mut pairs = Vec::with_capacity(gates);
                for (&x_byte, &y_byte) in self.plane(0).iter().zip(self.plane(1)) {
                    let width = (gates - pairs.len()).min(8);
                    pairs.extend((0..width).map(|i| (x_byte >> i & 1 == 1, y_byte >> i & 1 == 1)));
                }
                GmwMessage::Choices {
                    layer,
                    pairs,
                    ot_payload,
                }
            }
            GmwKind::Responses => {
                let mut bits = Vec::with_capacity(gates);
                for &byte in self.plane(0) {
                    let width = (gates - bits.len()).min(8);
                    bits.extend((0..width).map(|i| byte >> i & 1 == 1));
                }
                GmwMessage::Responses {
                    layer,
                    bits,
                    ot_payload,
                }
            }
        }
    }
}

/// Bit `index` of a packed plane (LSB-first).
pub(crate) fn plane_bit(plane: &[u8], index: usize) -> bool {
    plane[index / 8] >> (index % 8) & 1 == 1
}

/// Packs `bits` LSB-first into `plane`, whose bytes are zero.
fn pack_bits(bits: &[bool], plane: &mut [u8]) {
    for (chunk, byte) in bits.chunks(8).zip(plane) {
        for (i, &bit) in chunk.iter().enumerate() {
            *byte |= (bit as u8) << i;
        }
    }
}

/// Packs a `Choices` batch's x- and y-planes from its `(x, y)` pairs into
/// `planes` (`2·⌈w/8⌉` zero bytes): the x-plane, then the y-plane.
pub(crate) fn pack_choice_planes(pairs: &[(bool, bool)], planes: &mut [u8]) {
    let (xs, ys) = planes.split_at_mut(wire::bits_len(pairs.len()));
    for ((chunk, x_byte), y_byte) in pairs.chunks(8).zip(xs).zip(ys) {
        for (i, &(x, y)) in chunk.iter().enumerate() {
            *x_byte |= (x as u8) << i;
            *y_byte |= (y as u8) << i;
        }
    }
}

/// The exact length of one encoding: a message of `kind` for AND layer
/// `layer` with `gates` gates and `payload` OT payload bytes (`layer` and
/// `gates` are not encoded for `OtSetup`).
pub(crate) fn encoded_len(kind: GmwKind, layer: u32, gates: usize, payload: usize) -> usize {
    let header = match kind {
        GmwKind::OtSetup => 0,
        _ => wire::uvarint_len(u64::from(layer)) + wire::uvarint_len(gates as u64),
    };
    1 + header + kind.planes() * wire::bits_len(gates) + wire::uvarint_len(payload as u64) + payload
}

/// Appends one encoding, reserved to its exact length — the one writer
/// of the layouts.  `pack` fills the zeroed planes (`kind.planes()` ×
/// `⌈gates/8⌉` bytes) and `fill` the `payload_len` zeroed payload bytes.
fn put_message(
    out: &mut Vec<u8>,
    kind: GmwKind,
    layer: u32,
    gates: usize,
    pack: impl FnOnce(&mut [u8]),
    payload_len: usize,
    fill: impl FnOnce(&mut [u8]),
) {
    out.reserve(encoded_len(kind, layer, gates, payload_len));
    wire::put_u8(out, kind.tag());
    if kind != GmwKind::OtSetup {
        wire::put_uvarint(out, u64::from(layer));
        wire::put_uvarint(out, gates as u64);
    }
    let at = out.len();
    out.resize(at + kind.planes() * wire::bits_len(gates), 0);
    pack(&mut out[at..]);
    wire::put_uvarint(out, payload_len as u64);
    let at = out.len();
    out.resize(at + payload_len, 0);
    fill(&mut out[at..]);
}

/// Writes a `Choices` batch in place: exactly the encoding of
/// `GmwMessage::Choices { layer, pairs, ot_payload }` where `planes` is
/// `pairs` packed by [`pack_choice_planes`] (`gates` = `pairs.len()`) and
/// `ot_payload` is `ot_payload(pair_seed, PAYLOAD_RECEIVER, layer,
/// payload_len)`.  A party packs a layer's planes once and writes them,
/// with each owner's payload, into each owner's lane.
pub(crate) fn write_choices(
    out: &mut Vec<u8>,
    layer: u32,
    gates: usize,
    planes: &[u8],
    pair_seed: u64,
    payload_len: usize,
) {
    put_message(
        out,
        GmwKind::Choices,
        layer,
        gates,
        |dst| dst.copy_from_slice(planes),
        payload_len,
        |dst| fill_ot_payload(pair_seed, PAYLOAD_RECEIVER, u64::from(layer), dst),
    );
}

/// Writes a `Responses` batch in place: exactly the encoding of
/// `GmwMessage::Responses { layer, bits, ot_payload }` with `ot_payload`
/// = `ot_payload(pair_seed, PAYLOAD_SENDER, layer, payload_len)`.
pub(crate) fn write_responses(
    out: &mut Vec<u8>,
    layer: u32,
    bits: &[bool],
    pair_seed: u64,
    payload_len: usize,
) {
    put_message(
        out,
        GmwKind::Responses,
        layer,
        bits.len(),
        |plane| pack_bits(bits, plane),
        payload_len,
        |dst| fill_ot_payload(pair_seed, PAYLOAD_SENDER, u64::from(layer), dst),
    );
}

impl GmwMessage {
    /// The exact length of the message's encoding, from the layouts in
    /// the module docs.
    pub fn encoded_len(&self) -> usize {
        match self {
            GmwMessage::OtSetup { ot_payload } => {
                encoded_len(GmwKind::OtSetup, 0, 0, ot_payload.len())
            }
            GmwMessage::Choices {
                layer,
                pairs,
                ot_payload,
            } => encoded_len(GmwKind::Choices, *layer, pairs.len(), ot_payload.len()),
            GmwMessage::Responses {
                layer,
                bits,
                ot_payload,
            } => encoded_len(GmwKind::Responses, *layer, bits.len(), ot_payload.len()),
        }
    }
}

impl Wire for GmwMessage {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            GmwMessage::OtSetup { ot_payload } => put_message(
                out,
                GmwKind::OtSetup,
                0,
                0,
                |_| {},
                ot_payload.len(),
                |dst| dst.copy_from_slice(ot_payload),
            ),
            GmwMessage::Choices {
                layer,
                pairs,
                ot_payload,
            } => put_message(
                out,
                GmwKind::Choices,
                *layer,
                pairs.len(),
                |planes| pack_choice_planes(pairs, planes),
                ot_payload.len(),
                |dst| dst.copy_from_slice(ot_payload),
            ),
            GmwMessage::Responses {
                layer,
                bits,
                ot_payload,
            } => put_message(
                out,
                GmwKind::Responses,
                *layer,
                bits.len(),
                |plane| pack_bits(bits, plane),
                ot_payload.len(),
                |dst| dst.copy_from_slice(ot_payload),
            ),
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        GmwView::read(buf).map(|view| view.to_message())
    }

    fn check_exact(buf: &[u8]) -> Result<(), WireError> {
        GmwView::parse_exact(buf).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstress_net::wire::hex;
    use proptest::prelude::*;

    fn sample_messages() -> Vec<GmwMessage> {
        vec![
            GmwMessage::OtSetup {
                ot_payload: vec![0, 1, 2],
            },
            GmwMessage::Choices {
                layer: 2,
                pairs: vec![(true, false), (false, false), (true, true)],
                ot_payload: vec![0x55; 30],
            },
            GmwMessage::Responses {
                layer: 2,
                bits: vec![false, true, true],
                ot_payload: vec![1, 2, 3],
            },
        ]
    }

    #[test]
    fn ot_payload_content_is_seed_derived_and_replayable() {
        // Same (pair seed, direction, index) => same bytes, every time.
        let a = ot_payload(42, PAYLOAD_RECEIVER, 7, 33);
        let b = ot_payload(42, PAYLOAD_RECEIVER, 7, 33);
        assert_eq!(a, b);
        assert_eq!(a.len(), 33);
        // The content is pseudorandom key material, not filler.
        assert!(a.iter().any(|&byte| byte != 0));
        // Any coordinate change yields a different stream.
        assert_ne!(a, ot_payload(43, PAYLOAD_RECEIVER, 7, 33));
        assert_ne!(a, ot_payload(42, PAYLOAD_SENDER, 7, 33));
        assert_ne!(a, ot_payload(42, PAYLOAD_RECEIVER, 8, 33));
        // A shorter request is a prefix of the same stream.
        assert_eq!(a[..16], ot_payload(42, PAYLOAD_RECEIVER, 7, 16)[..]);
        // Setup directions are distinct streams too.
        assert_ne!(
            ot_payload(5, PAYLOAD_SETUP_FROM_OWNER, 0, 64),
            ot_payload(5, PAYLOAD_SETUP_FROM_PEER, 0, 64)
        );
        assert!(ot_payload(5, PAYLOAD_SENDER, 0, 0).is_empty());
    }

    #[test]
    fn every_variant_round_trips() {
        for message in sample_messages() {
            let encoded = message.encode();
            assert_eq!(
                GmwMessage::decode_exact(&encoded).unwrap(),
                message,
                "{message:?}"
            );
        }
    }

    #[test]
    fn truncation_and_trailing_garbage_are_rejected_not_panics() {
        for message in sample_messages() {
            let encoded = message.encode();
            for cut in 0..encoded.len() {
                assert!(
                    GmwMessage::decode_exact(&encoded[..cut]).is_err(),
                    "{message:?} truncated to {cut} bytes decoded"
                );
            }
            let mut trailing = encoded;
            trailing.push(0x00);
            assert_eq!(
                GmwMessage::decode_exact(&trailing),
                Err(WireError::Trailing { remaining: 1 }),
                "{message:?}"
            );
        }
    }

    #[test]
    fn unknown_tags_and_dirty_padding_are_rejected() {
        // 0x01 and 0x02 are the retired single-gate tags.
        for tag in [0x01, 0x02, 0x07] {
            assert_eq!(
                GmwMessage::decode_exact(&[tag, 0x00, 0x00]),
                Err(WireError::BadTag {
                    tag,
                    what: "GmwMessage"
                })
            );
        }
        // A two-gate Choices whose x-plane sets a bit above bit 1.
        let mut bad = Vec::new();
        wire::put_u8(&mut bad, TAG_CHOICES);
        wire::put_uvarint(&mut bad, 3);
        wire::put_uvarint(&mut bad, 2);
        bad.extend([0b0000_0101, 0b0000_0001]);
        wire::put_bytes(&mut bad, &[]);
        assert!(matches!(
            GmwMessage::decode_exact(&bad),
            Err(WireError::Invalid { .. })
        ));
    }

    /// Golden byte-layout fixtures: one canonical encoding per message
    /// type.  A failure here means the wire format changed — bump these
    /// deliberately, never silently.
    #[test]
    fn golden_encodings() {
        let cases: Vec<(GmwMessage, &str)> = vec![
            (
                GmwMessage::OtSetup {
                    ot_payload: vec![0xAB, 0xCD],
                },
                "0002abcd",
            ),
            (
                GmwMessage::Choices {
                    layer: 1,
                    pairs: vec![(true, false), (true, true), (false, true)],
                    ot_payload: vec![0x11, 0x22],
                },
                // tag 03 · layer 01 · count 03 · x-plane (1,1,0) = 03 ·
                // y-plane (0,1,1) = 06 · len 02 · 1122
                "0301030306021122",
            ),
            (
                GmwMessage::Responses {
                    layer: 4,
                    bits: vec![true, true, false, false, true],
                    ot_payload: vec![0xFF],
                },
                // tag 04 · layer 04 · count 05 · plane 0b10011 = 13 ·
                // len 01 · ff
                "0404051301ff",
            ),
        ];
        for (message, expected) in cases {
            assert_eq!(hex(&message.encode()), expected, "{message:?}");
        }
    }

    #[test]
    fn batched_choices_are_bit_packed() {
        // The satellite regression: a w-wide layer's Choices payload is
        // two 1-bit-per-gate planes — at most 2·⌈w/8⌉ bytes plus the
        // bounded header — and Responses is one plane.
        for w in [1usize, 7, 8, 9, 64, 333] {
            let choices = GmwMessage::Choices {
                layer: u32::MAX,
                pairs: vec![(true, false); w],
                ot_payload: vec![],
            };
            assert!(
                choices.encode().len() <= 2 * w.div_ceil(8) + BATCH_HEADER_MAX,
                "choices for w = {w}"
            );
            let responses = GmwMessage::Responses {
                layer: u32::MAX,
                bits: vec![true; w],
                ot_payload: vec![],
            };
            assert!(
                responses.encode().len() <= w.div_ceil(8) + BATCH_HEADER_MAX,
                "responses for w = {w}"
            );
        }
    }

    /// Every variant built from one random draw, so the proptests cover
    /// the whole message space.
    fn messages_from(
        tag: u32,
        x_bits: &[bool],
        y_bits: &[bool],
        payload: &[u8],
    ) -> Vec<GmwMessage> {
        vec![
            GmwMessage::OtSetup {
                ot_payload: payload.to_vec(),
            },
            GmwMessage::Choices {
                layer: tag,
                pairs: x_bits.iter().copied().zip(y_bits.iter().copied()).collect(),
                ot_payload: payload.to_vec(),
            },
            GmwMessage::Responses {
                layer: tag,
                bits: y_bits.to_vec(),
                ot_payload: payload.to_vec(),
            },
        ]
    }

    /// The reference packing of a batched message: header, then
    /// `put_bits` per plane, then the payload.
    fn reference_batch_encoding(
        tag: u8,
        layer: u32,
        planes: &[Vec<bool>],
        payload: &[u8],
    ) -> Vec<u8> {
        let mut out = vec![tag];
        wire::put_uvarint(&mut out, u64::from(layer));
        wire::put_uvarint(&mut out, planes[0].len() as u64);
        for plane in planes {
            wire::put_bits(&mut out, plane);
        }
        wire::put_bytes(&mut out, payload);
        out
    }

    /// The reference decoder of a batched message: one `get_bits` per
    /// plane into intermediate vectors.
    fn reference_batch_decoding(mut buf: &[u8], planes: usize) -> Result<GmwMessage, WireError> {
        let buf = &mut buf;
        let tag = wire::get_u8(buf)?;
        let layer = u32::try_from(wire::get_uvarint(buf)?)
            .map_err(|_| WireError::Invalid { what: "GmwMessage" })?;
        let count = wire::get_uvarint(buf)? as usize;
        let mut decoded: Vec<Vec<bool>> = Vec::new();
        for _ in 0..planes {
            decoded.push(wire::get_bits(buf, count)?);
        }
        let ot_payload = wire::get_bytes(buf)?;
        if !buf.is_empty() {
            return Err(WireError::Trailing {
                remaining: buf.len(),
            });
        }
        Ok(if tag == TAG_CHOICES {
            GmwMessage::Choices {
                layer,
                pairs: decoded[0]
                    .iter()
                    .copied()
                    .zip(decoded[1].iter().copied())
                    .collect(),
                ot_payload,
            }
        } else {
            GmwMessage::Responses {
                layer,
                bits: decoded.remove(0),
                ot_payload,
            }
        })
    }

    /// Holds one batch of `gates` against the reference codec: encodings
    /// byte-identical and reserved exactly; every truncation point and
    /// every dirty padding bit rejected with the reference decoder's
    /// error.
    fn check_batched_codec(layer: u32, gates: &[(bool, bool)], payload: &[u8]) {
        let (xs, ys): (Vec<bool>, Vec<bool>) = gates.iter().copied().unzip();
        let cases = [
            (
                GmwMessage::Choices {
                    layer,
                    pairs: gates.to_vec(),
                    ot_payload: payload.to_vec(),
                },
                reference_batch_encoding(TAG_CHOICES, layer, &[xs, ys.clone()], payload),
                2usize,
            ),
            (
                GmwMessage::Responses {
                    layer,
                    bits: ys.clone(),
                    ot_payload: payload.to_vec(),
                },
                reference_batch_encoding(TAG_RESPONSES, layer, &[ys], payload),
                1usize,
            ),
        ];
        for (message, reference, planes) in cases {
            let encoded = message.encode();
            assert_eq!(encoded, reference);
            assert_eq!(encoded.len(), message.encoded_len());
            // One reservation, never a regrowth (8 is `Vec<u8>`'s
            // smallest non-empty capacity).
            assert!(encoded.capacity() <= encoded.len().max(8));
            assert_eq!(GmwMessage::decode_exact(&encoded), Ok(message));
            for cut in 0..encoded.len() {
                let expected = reference_batch_decoding(&encoded[..cut], planes);
                assert!(expected.is_err());
                assert_eq!(GmwMessage::decode_exact(&encoded[..cut]), expected);
            }
            // Set each padding bit of each plane's last byte in turn.
            let plane_len = wire::bits_len(gates.len());
            let planes_start =
                1 + wire::uvarint_len(u64::from(layer)) + wire::uvarint_len(gates.len() as u64);
            let padding = if gates.len() % 8 == 0 {
                8..8
            } else {
                gates.len() % 8..8
            };
            for plane in 0..planes {
                for bit in padding.clone() {
                    let mut dirty = encoded.clone();
                    dirty[planes_start + (plane + 1) * plane_len - 1] |= 1 << bit;
                    let expected = Err(WireError::Invalid {
                        what: "bit-plane padding",
                    });
                    assert_eq!(reference_batch_decoding(&dirty, planes), expected);
                    assert_eq!(GmwMessage::decode_exact(&dirty), expected);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The packed-plane codec against the reference packing
        /// (`put_bits(xs) ‖ put_bits(ys)`), at every width 0..=200.
        #[test]
        fn prop_batched_codec_matches_the_reference_packing(
            layer in any::<u32>(),
            seed in any::<u64>(),
            payload in proptest::collection::vec(any::<u8>(), 0..48),
        ) {
            for width in 0..=200u64 {
                let mut rng = SplitMix64::new(seed ^ width);
                let gates: Vec<(bool, bool)> =
                    (0..width).map(|_| (rng.next_bool(), rng.next_bool())).collect();
                check_batched_codec(layer, &gates, &payload);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The in-place writers against the owned codec: what a party
        /// writes into a lane — behind whatever the lane already holds —
        /// is `GmwMessage::encode`'s bytes, seed-derived payload included.
        #[test]
        fn prop_in_place_writers_equal_the_owned_encoding(
            layer in any::<u32>(),
            width in 0usize..300,
            seed in any::<u64>(),
            per_ot in 0usize..12,
        ) {
            let mut rng = SplitMix64::new(seed);
            let pairs: Vec<(bool, bool)> =
                (0..width).map(|_| (rng.next_bool(), rng.next_bool())).collect();
            let bits: Vec<bool> = pairs.iter().map(|&(x, y)| x ^ y).collect();
            let len = width * per_ot;
            let mut planes = vec![0; 2 * wire::bits_len(width)];
            pack_choice_planes(&pairs, &mut planes);
            let mut lane = vec![0xEE; 3];
            write_choices(&mut lane, layer, width, &planes, seed, len);
            let choices = GmwMessage::Choices {
                layer,
                pairs,
                ot_payload: ot_payload(seed, PAYLOAD_RECEIVER, u64::from(layer), len),
            };
            prop_assert_eq!(&lane[3..], &choices.encode()[..]);
            let mut lane = vec![0xEE; 3];
            write_responses(&mut lane, layer, &bits, seed, len);
            let responses = GmwMessage::Responses {
                layer,
                bits,
                ot_payload: ot_payload(seed, PAYLOAD_SENDER, u64::from(layer), len),
            };
            prop_assert_eq!(&lane[3..], &responses.encode()[..]);
        }

        /// The view parser and the owned decoder accept and reject the
        /// same buffers with the same error: random bytes behind every
        /// tag, and every variant's encoding with one byte flipped, cut
        /// short, or one byte longer.
        #[test]
        fn prop_view_and_owned_decoder_agree(
            tag in 0u8..6,
            noise in proptest::collection::vec(any::<u8>(), 0..40),
            layer in any::<u32>(),
            x_bits in proptest::collection::vec(any::<bool>(), 0..40),
            payload in proptest::collection::vec(any::<u8>(), 0..24),
            at in any::<usize>(),
            flip in 1u8..=255,
        ) {
            let agree = |buf: &[u8]| {
                let view = GmwView::parse_exact(buf);
                prop_assert_eq!(view.map(|v| v.to_message()), GmwMessage::decode_exact(buf));
                prop_assert_eq!(GmwMessage::check_exact(buf), view.map(drop));
            };
            let mut random = vec![tag];
            random.extend(&noise);
            agree(&random);
            let y_bits: Vec<bool> = x_bits.iter().map(|&x| !x).collect();
            for message in messages_from(layer, &x_bits, &y_bits, &payload) {
                let encoded = message.encode();
                agree(&encoded);
                let mut flipped = encoded.clone();
                flipped[at % encoded.len()] ^= flip;
                agree(&flipped);
                agree(&encoded[..at % encoded.len()]);
                let mut longer = encoded;
                longer.push(flip);
                agree(&longer);
            }
        }

        #[test]
        fn prop_gmw_messages_round_trip(
            tag in any::<u32>(),
            x_bits in proptest::collection::vec(any::<bool>(), 0..80),
            y_bits in proptest::collection::vec(any::<bool>(), 0..80),
            payload in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            for message in messages_from(tag, &x_bits, &y_bits, &payload) {
                let encoded = message.encode();
                prop_assert_eq!(GmwMessage::decode_exact(&encoded).unwrap(), message);
            }
        }

        #[test]
        fn prop_truncations_error(
            tag in any::<u32>(),
            x_bits in proptest::collection::vec(any::<bool>(), 0..40),
            y_bits in proptest::collection::vec(any::<bool>(), 0..40),
            payload in proptest::collection::vec(any::<u8>(), 0..32),
            cut_frac in 0.0f64..1.0,
        ) {
            for message in messages_from(tag, &x_bits, &y_bits, &payload) {
                let encoded = message.encode();
                let cut = ((encoded.len() as f64) * cut_frac) as usize;
                if cut < encoded.len() {
                    prop_assert!(GmwMessage::decode_exact(&encoded[..cut]).is_err());
                }
            }
        }
    }
}
