//! The hand-rolled wire format every protocol message travels through.
//!
//! Every protocol message is serialised here, and every byte count the
//! workspace reports is the length of one of these encodings.  This
//! module is that serialisation layer: a [`Wire`]
//! trait (`encode_into` / `decode`) plus the primitive building blocks —
//! little-endian fixed-width integers, LEB128 varints, length-prefixed
//! byte strings and bit-packed boolean planes — that the protocol crates
//! compose their message layouts from.
//!
//! Both transport backends move **bytes**: every
//! [`crate::transport::Endpoint`] send writes one encoding into a byte lane
//! and every receive reads one back, so the byte counts recorded in a
//! [`WireTally`] are *measured* (the length of the actual encoding), not
//! modeled, and a message type whose codec cannot round-trip fails loudly
//! in every test that exchanges it.
//!
//! ## Layout conventions
//!
//! * Multi-byte integers are little-endian.
//! * Varints are unsigned LEB128 (7 bits per byte, high bit = continue),
//!   at most 10 bytes; overlong encodings of ≥ 2^64 are rejected.
//! * Byte strings are a varint length followed by the raw bytes.
//! * Bit planes pack `bool`s LSB-first, eight per byte; unused padding
//!   bits in the final byte must be zero (decoders reject garbage there).
//! * Every decoder consumes exactly what the encoder produced; the
//!   [`Wire::decode_exact`] entry point additionally rejects trailing
//!   bytes.
//!
//! ## Example
//!
//! ```
//! use dstress_net::wire::{self, Wire};
//!
//! let mut buf = Vec::new();
//! wire::put_uvarint(&mut buf, 300);
//! wire::put_bits(&mut buf, &[true, false, true]);
//! let mut rd: &[u8] = &buf;
//! assert_eq!(wire::get_uvarint(&mut rd).unwrap(), 300);
//! assert_eq!(wire::get_bits(&mut rd, 3).unwrap(), vec![true, false, true]);
//! assert!(rd.is_empty());
//!
//! // Containers of `Wire` values round-trip through the trait itself.
//! let v: Vec<u64> = vec![1, 2, 3];
//! assert_eq!(Vec::<u64>::decode_exact(&v.encode()).unwrap(), v);
//! ```

use core::fmt;

/// Errors produced while decoding a wire buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value did.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes that were actually available.
        available: usize,
    },
    /// A full value was decoded but bytes remained
    /// (only reported by [`Wire::decode_exact`]).
    Trailing {
        /// Undecoded bytes left in the buffer.
        remaining: usize,
    },
    /// A message tag byte did not name any known variant.
    BadTag {
        /// The offending tag.
        tag: u8,
        /// What was being decoded.
        what: &'static str,
    },
    /// A varint ran past 10 bytes or encoded a value ≥ 2^64.
    VarintOverflow,
    /// A field held a value its type forbids (non-0/1 bool byte, set
    /// padding bits in a bit plane, out-of-range width, …).
    Invalid {
        /// What was being decoded.
        what: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, available } => {
                write!(
                    f,
                    "wire buffer truncated: needed {needed} bytes, {available} available"
                )
            }
            WireError::Trailing { remaining } => {
                write!(
                    f,
                    "wire buffer has {remaining} trailing bytes after the value"
                )
            }
            WireError::BadTag { tag, what } => write!(f, "unknown {what} tag {tag:#04x}"),
            WireError::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            WireError::Invalid { what } => write!(f, "invalid {what} field"),
        }
    }
}

impl std::error::Error for WireError {}

/// A value with a defined wire encoding.
///
/// `decode` consumes its encoding from the front of `buf` (advancing the
/// slice), so composite messages decode field by field; `decode_exact`
/// is the message-boundary entry point that also rejects trailing bytes.
pub trait Wire: Sized {
    /// Appends the value's encoding to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Decodes a value from the front of `buf`, advancing it past the
    /// consumed bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the buffer is truncated or malformed.
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError>;

    /// The value's encoding as a fresh buffer.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decodes a value that must span the *entire* buffer.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Trailing`] if bytes remain after the value,
    /// or any error of [`Wire::decode`].
    fn decode_exact(mut buf: &[u8]) -> Result<Self, WireError> {
        let value = Self::decode(&mut buf)?;
        if buf.is_empty() {
            Ok(value)
        } else {
            Err(WireError::Trailing {
                remaining: buf.len(),
            })
        }
    }

    /// Checks that `buf` is exactly one encoding, with the verdict of
    /// [`Wire::decode_exact`] — what a transport asks of untrusted bytes
    /// before it queues them.  The default decodes and drops the value; a
    /// type with a borrowed parser overrides it with one that builds
    /// nothing.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`Wire::decode_exact`].
    fn check_exact(buf: &[u8]) -> Result<(), WireError> {
        Self::decode_exact(buf).map(drop)
    }
}

// ---------------------------------------------------------------------------
// Primitive readers/writers
// ---------------------------------------------------------------------------

/// Takes `n` raw bytes off the front of `buf` — the bounds-checked
/// consumption primitive every other reader builds on, public so
/// downstream codecs with fixed-width fields (e.g. group elements) can
/// share it instead of re-implementing the check.
///
/// # Errors
///
/// Returns [`WireError::Truncated`] if fewer than `n` bytes remain.
pub fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if buf.len() < n {
        return Err(WireError::Truncated {
            needed: n,
            available: buf.len(),
        });
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

/// Writes one raw byte.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Reads one raw byte.
///
/// # Errors
///
/// Returns [`WireError::Truncated`] on an empty buffer.
pub fn get_u8(buf: &mut &[u8]) -> Result<u8, WireError> {
    Ok(take(buf, 1)?[0])
}

/// Writes a little-endian `u32`.
pub fn put_u32_le(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Reads a little-endian `u32`.
///
/// # Errors
///
/// Returns [`WireError::Truncated`] if fewer than 4 bytes remain.
pub fn get_u32_le(buf: &mut &[u8]) -> Result<u32, WireError> {
    let bytes = take(buf, 4)?;
    Ok(u32::from_le_bytes(bytes.try_into().expect("took 4 bytes")))
}

/// Writes a little-endian `u64`.
pub fn put_u64_le(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Reads a little-endian `u64`.
///
/// # Errors
///
/// Returns [`WireError::Truncated`] if fewer than 8 bytes remain.
pub fn get_u64_le(buf: &mut &[u8]) -> Result<u64, WireError> {
    let bytes = take(buf, 8)?;
    Ok(u64::from_le_bytes(bytes.try_into().expect("took 8 bytes")))
}

/// Writes an unsigned LEB128 varint (1 byte for values < 128).
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads an unsigned LEB128 varint.
///
/// # Errors
///
/// Returns [`WireError::VarintOverflow`] past 10 bytes or 64 bits, and
/// [`WireError::Truncated`] if the continuation runs off the buffer.
pub fn get_uvarint(buf: &mut &[u8]) -> Result<u64, WireError> {
    let mut value = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = get_u8(buf)?;
        let chunk = (byte & 0x7F) as u64;
        if shift == 63 && chunk > 1 {
            return Err(WireError::VarintOverflow);
        }
        value |= chunk << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(WireError::VarintOverflow)
}

/// The encoded size of a varint, for closed-form length formulas that
/// must match [`put_uvarint`] byte for byte.
pub fn uvarint_len(v: u64) -> usize {
    (64 - v.max(1).leading_zeros() as usize).div_ceil(7)
}

/// Writes a length-prefixed byte string (varint length + raw bytes).
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_uvarint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Reads a length-prefixed byte string.
///
/// # Errors
///
/// Returns [`WireError::Truncated`] if the declared length exceeds the
/// remaining buffer, plus any varint error.
pub fn get_bytes(buf: &mut &[u8]) -> Result<Vec<u8>, WireError> {
    Ok(get_byte_slice(buf)?.to_vec())
}

/// Reads a length-prefixed byte string as a slice of `buf`, copying
/// nothing — for decoders that read a message in place.
///
/// # Errors
///
/// See [`get_bytes`].
pub fn get_byte_slice<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8], WireError> {
    let len = get_uvarint(buf)? as usize;
    take(buf, len)
}

/// Packs `bits` LSB-first, eight per byte (the length is *not* encoded;
/// composite messages carry it in their own header).  Padding bits in the
/// final byte are zero, and [`get_bits`] rejects anything else.
pub fn put_bits(out: &mut Vec<u8>, bits: &[bool]) {
    out.extend(bits.chunks(8).map(|chunk| {
        chunk
            .iter()
            .enumerate()
            .fold(0u8, |byte, (i, &bit)| byte | (bit as u8) << i)
    }));
}

/// The packed size of an `n`-bit plane.
pub fn bits_len(n: usize) -> usize {
    n.div_ceil(8)
}

/// Takes the packed bytes of an `n`-bit plane off the front of `buf`,
/// checked but not unpacked — for decoders that unpack straight into
/// their own layout.
///
/// # Errors
///
/// Returns [`WireError::Truncated`] if the plane runs off the buffer and
/// [`WireError::Invalid`] if any padding bit of the final byte is set.
pub fn get_bit_plane<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    let bytes = take(buf, bits_len(n))?;
    let pad = bytes.len() * 8 - n;
    if pad > 0 && bytes[bytes.len() - 1] >> (8 - pad) != 0 {
        return Err(WireError::Invalid {
            what: "bit-plane padding",
        });
    }
    Ok(bytes)
}

/// Unpacks an `n`-bit plane written by [`put_bits`].
///
/// # Errors
///
/// See [`get_bit_plane`].
pub fn get_bits(buf: &mut &[u8], n: usize) -> Result<Vec<bool>, WireError> {
    let plane = get_bit_plane(buf, n)?;
    let mut bits = Vec::with_capacity(n);
    for &byte in plane {
        let width = (n - bits.len()).min(8);
        bits.extend((0..width).map(|i| byte >> i & 1 == 1));
    }
    Ok(bits)
}

/// Renders a buffer as lowercase hex, for golden byte-layout fixtures.
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

// ---------------------------------------------------------------------------
// Wire impls for primitives and containers
// ---------------------------------------------------------------------------

impl Wire for bool {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u8(out, *self as u8);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match get_u8(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid { what: "bool" }),
        }
    }
}

impl Wire for u8 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u8(out, *self);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        get_u8(buf)
    }
}

impl Wire for u32 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u32_le(out, *self);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        get_u32_le(buf)
    }
}

impl Wire for u64 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64_le(out, *self);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        get_u64_le(buf)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_uvarint(out, self.len() as u64);
        for item in self {
            item.encode_into(out);
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let len = get_uvarint(buf)? as usize;
        // Guard allocation against a lying length prefix: every element
        // costs at least one byte.
        if len > buf.len() {
            return Err(WireError::Truncated {
                needed: len,
                available: buf.len(),
            });
        }
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(T::decode(buf)?);
        }
        Ok(items)
    }
}

/// A pair is its two halves back to back, so keyed lists such as
/// `Vec<(NodeId, NodeTraffic)>` go through the `Vec` impl above.
impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
        self.1.encode_into(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

// ---------------------------------------------------------------------------
// Measured byte accounting
// ---------------------------------------------------------------------------

/// Measured wire traffic of one transport run: encoded bytes and message
/// counts per ordered `(from, to)` pair of local node indices.
///
/// Both transport backends fill one of these with the length of every
/// encoding written at the send boundary; [`crate::transport::Transport::run`]
/// returns it so protocol executors can attribute the *measured* bytes to
/// real node identities.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireTally {
    nodes: usize,
    bytes: Vec<u64>,
    messages: Vec<u64>,
}

impl WireTally {
    /// An empty tally over `nodes` local nodes.
    pub fn new(nodes: usize) -> Self {
        WireTally {
            nodes,
            bytes: vec![0; nodes * nodes],
            messages: vec![0; nodes * nodes],
        }
    }

    /// Number of local nodes the tally covers.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Records one encoded message of `bytes` bytes from `from` to `to`.
    pub fn record(&mut self, from: usize, to: usize, bytes: u64) {
        self.add(from, to, bytes, 1);
    }

    /// Adds `messages` messages totalling `bytes` bytes to a pair's
    /// counters (bulk entry point for backends that batch their counts).
    pub fn add(&mut self, from: usize, to: usize, bytes: u64, messages: u64) {
        let idx = from * self.nodes + to;
        self.bytes[idx] += bytes;
        self.messages[idx] += messages;
    }

    /// Measured bytes sent from `from` to `to`.
    pub fn bytes_between(&self, from: usize, to: usize) -> u64 {
        self.bytes[from * self.nodes + to]
    }

    /// Measured messages sent from `from` to `to`.
    pub fn messages_between(&self, from: usize, to: usize) -> u64 {
        self.messages[from * self.nodes + to]
    }

    /// Measured bytes sent by one node (all peers).
    pub fn sent_bytes(&self, node: usize) -> u64 {
        (0..self.nodes).map(|to| self.bytes_between(node, to)).sum()
    }

    /// Measured bytes received by one node (all peers).
    pub fn received_bytes(&self, node: usize) -> u64 {
        (0..self.nodes)
            .map(|from| self.bytes_between(from, node))
            .sum()
    }

    /// Total measured bytes across all pairs.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Total measured messages across all pairs.
    pub fn total_messages(&self) -> u64 {
        self.messages.iter().sum()
    }

    /// Iterates over all pairs with non-zero traffic as
    /// `(from, to, bytes, messages)`.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize, u64, u64)> + '_ {
        (0..self.nodes * self.nodes).filter_map(move |idx| {
            let (bytes, messages) = (self.bytes[idx], self.messages[idx]);
            (messages > 0).then_some((idx / self.nodes, idx % self.nodes, bytes, messages))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn varint_boundaries() {
        for (value, len) in [
            (0u64, 1),
            (1, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u32::MAX as u64, 5),
            (u64::MAX, 10),
        ] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, value);
            assert_eq!(buf.len(), len, "value {value}");
            assert_eq!(uvarint_len(value), len, "value {value}");
            let mut rd: &[u8] = &buf;
            assert_eq!(get_uvarint(&mut rd).unwrap(), value);
            assert!(rd.is_empty());
        }
    }

    #[test]
    fn varint_rejects_overflow_and_truncation() {
        // 11 continuation bytes: more than a u64 can hold.
        let overlong = [0xFFu8; 11];
        assert_eq!(
            get_uvarint(&mut &overlong[..]),
            Err(WireError::VarintOverflow)
        );
        // 10th byte carrying more than the single remaining bit.
        let mut too_big = [0x80u8; 10];
        too_big[9] = 0x02;
        assert_eq!(
            get_uvarint(&mut &too_big[..]),
            Err(WireError::VarintOverflow)
        );
        // A continuation bit with nothing after it.
        let cut = [0x80u8];
        assert!(matches!(
            get_uvarint(&mut &cut[..]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn bit_planes_pack_lsb_first_and_reject_dirty_padding() {
        let bits = [true, false, false, true, true, false, true, false, true];
        let mut buf = Vec::new();
        put_bits(&mut buf, &bits);
        assert_eq!(buf, vec![0b0101_1001, 0b0000_0001]);
        assert_eq!(bits_len(bits.len()), 2);
        let mut rd: &[u8] = &buf;
        assert_eq!(get_bits(&mut rd, 9).unwrap(), bits);

        // Same bytes decoded at a width that leaves padding: the set
        // high bit must be rejected, not silently dropped.
        let dirty = [0b1101_1001u8];
        assert_eq!(
            get_bits(&mut &dirty[..], 7),
            Err(WireError::Invalid {
                what: "bit-plane padding"
            })
        );
        // Empty plane costs zero bytes.
        let mut empty = Vec::new();
        put_bits(&mut empty, &[]);
        assert!(empty.is_empty());
        assert_eq!(get_bits(&mut &empty[..], 0).unwrap(), Vec::<bool>::new());
    }

    #[test]
    fn primitive_wire_impls_round_trip() {
        assert!(bool::decode_exact(&true.encode()).unwrap());
        assert!(!bool::decode_exact(&false.encode()).unwrap());
        assert_eq!(u8::decode_exact(&0xAB_u8.encode()).unwrap(), 0xAB);
        assert_eq!(
            u32::decode_exact(&0xDEAD_BEEF_u32.encode()).unwrap(),
            0xDEAD_BEEF
        );
        assert_eq!(
            u64::decode_exact(&0x0123_4567_89AB_CDEF_u64.encode()).unwrap(),
            0x0123_4567_89AB_CDEF
        );
        assert_eq!(
            bool::decode_exact(&[2]),
            Err(WireError::Invalid { what: "bool" })
        );
    }

    #[test]
    fn decode_exact_rejects_trailing_garbage() {
        let mut buf = 7u32.encode();
        buf.push(0x99);
        assert_eq!(
            u32::decode_exact(&buf),
            Err(WireError::Trailing { remaining: 1 })
        );
    }

    #[test]
    fn vec_round_trips_and_guards_length_lies() {
        let v: Vec<u64> = vec![0, 1, u64::MAX];
        assert_eq!(Vec::<u64>::decode_exact(&v.encode()).unwrap(), v);
        let nested: Vec<Vec<u32>> = vec![vec![], vec![1, 2]];
        assert_eq!(
            Vec::<Vec<u32>>::decode_exact(&nested.encode()).unwrap(),
            nested
        );

        // A length prefix claiming far more elements than bytes remain
        // must fail fast instead of allocating.
        let mut lying = Vec::new();
        put_uvarint(&mut lying, 1 << 40);
        assert!(matches!(
            Vec::<u8>::decode(&mut &lying[..]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn wire_errors_display() {
        for (err, needle) in [
            (
                WireError::Truncated {
                    needed: 4,
                    available: 1,
                },
                "truncated",
            ),
            (WireError::Trailing { remaining: 2 }, "trailing"),
            (
                WireError::BadTag {
                    tag: 9,
                    what: "message",
                },
                "tag",
            ),
            (WireError::VarintOverflow, "varint"),
            (WireError::Invalid { what: "bool" }, "invalid"),
        ] {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn tally_accumulates_per_pair() {
        let mut tally = WireTally::new(3);
        tally.record(0, 1, 10);
        tally.record(0, 1, 5);
        tally.record(2, 0, 7);
        assert_eq!(tally.nodes(), 3);
        assert_eq!(tally.bytes_between(0, 1), 15);
        assert_eq!(tally.messages_between(0, 1), 2);
        assert_eq!(tally.sent_bytes(0), 15);
        assert_eq!(tally.received_bytes(0), 7);
        assert_eq!(tally.total_bytes(), 22);
        assert_eq!(tally.total_messages(), 3);
        let pairs: Vec<_> = tally.pairs().collect();
        assert_eq!(pairs, vec![(0, 1, 15, 2), (2, 0, 7, 1)]);
    }

    #[test]
    fn hex_renders_lowercase() {
        assert_eq!(hex(&[0x00, 0xAB, 0x10]), "00ab10");
        assert_eq!(hex(&[]), "");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_uvarint_round_trips(v in any::<u64>()) {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            prop_assert_eq!(buf.len(), uvarint_len(v));
            let mut rd: &[u8] = &buf;
            prop_assert_eq!(get_uvarint(&mut rd).unwrap(), v);
            prop_assert!(rd.is_empty());
        }

        #[test]
        fn prop_bits_round_trip(bits in proptest::collection::vec(any::<bool>(), 0..200)) {
            let mut buf = Vec::new();
            put_bits(&mut buf, &bits);
            prop_assert_eq!(buf.len(), bits_len(bits.len()));
            let mut rd: &[u8] = &buf;
            prop_assert_eq!(get_bits(&mut rd, bits.len()).unwrap(), bits);
            prop_assert!(rd.is_empty());
        }

        /// The chunked packer against the bit-at-a-time definition of
        /// the layout, and the plane reader against every padding bit.
        #[test]
        fn prop_bits_match_the_per_bit_packing(bits in proptest::collection::vec(any::<bool>(), 0..200)) {
            let mut reference = vec![0u8; bits_len(bits.len())];
            for (i, &bit) in bits.iter().enumerate() {
                reference[i / 8] |= (bit as u8) << (i % 8);
            }
            let mut buf = Vec::new();
            put_bits(&mut buf, &bits);
            prop_assert_eq!(&buf, &reference);
            prop_assert_eq!(get_bit_plane(&mut &buf[..], bits.len()), Ok(&reference[..]));
            if bits.len() % 8 != 0 {
                for pad in bits.len() % 8..8 {
                    let mut dirty = buf.clone();
                    *dirty.last_mut().unwrap() |= 1 << pad;
                    let expected = Err(WireError::Invalid { what: "bit-plane padding" });
                    prop_assert_eq!(get_bits(&mut &dirty[..], bits.len()), expected);
                }
            }
            for cut in 0..buf.len() {
                prop_assert_eq!(
                    get_bits(&mut &buf[..cut], bits.len()),
                    Err(WireError::Truncated { needed: buf.len(), available: cut })
                );
            }
        }

        #[test]
        fn prop_vec_u64_round_trips(v in proptest::collection::vec(any::<u64>(), 0..32)) {
            prop_assert_eq!(Vec::<u64>::decode_exact(&v.encode()).unwrap(), v);
        }

        #[test]
        fn prop_truncated_buffers_error_not_panic(v in proptest::collection::vec(any::<u64>(), 1..16)) {
            let full = v.encode();
            for cut in 0..full.len() {
                prop_assert!(Vec::<u64>::decode_exact(&full[..cut]).is_err());
            }
        }
    }
}
