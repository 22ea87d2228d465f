//! Length-prefixed framing for [`crate::wire::Wire`] payloads on a byte
//! stream.
//!
//! TCP delivers a byte stream, not messages; this module restores message
//! boundaries with the smallest possible self-describing envelope:
//!
//! ```text
//! +--------+-----------------+-------------------+
//! | 0xD5   | length (u32 LE) | payload (length)  |
//! +--------+-----------------+-------------------+
//! ```
//!
//! The magic byte catches desynchronised streams (trailing garbage, a
//! peer speaking a different protocol) immediately instead of letting a
//! bogus length prefix stall the connection, and the length field is
//! capped at [`MAX_FRAME_PAYLOAD`] so a hostile or corrupted prefix can
//! never drive an unbounded allocation.
//!
//! Decoding is incremental: a [`FrameDecoder`] is fed whatever chunks the
//! socket produces (`push`) and yields complete frames (`next_frame`)
//! whenever enough bytes have arrived.  On connection close,
//! [`FrameDecoder::finish`] turns a half-received frame into a typed
//! [`FrameError::Torn`] instead of silently dropping bytes.
//!
//! The frame header is *transport overhead*, not protocol traffic: the
//! socket transport's [`crate::wire::WireTally`] records only the
//! `Wire`-encoded payload length, so measured `wire_bytes` stay
//! byte-identical across the sim, threaded, and socket backends.

use core::fmt;

/// First byte of every frame.  `0xD5` — "DStress, version 5 seed" — is
/// outside ASCII so an HTTP client or stray text stream fails the magic
/// check on its very first byte.
pub const FRAME_MAGIC: u8 = 0xD5;

/// Bytes of framing overhead per message: magic plus `u32` length.
pub const FRAME_HEADER_LEN: usize = 5;

/// Upper bound a decoder accepts for a frame payload (64 MiB).  Larger
/// prefixes are rejected as [`FrameError::Oversized`] *before* any
/// allocation happens.
pub const MAX_FRAME_PAYLOAD: u32 = 64 << 20;

/// Errors produced by the frame layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The stream position where a frame should start held a byte other
    /// than [`FRAME_MAGIC`]: the stream is desynchronised or the peer is
    /// not speaking this protocol.
    BadMagic {
        /// The byte found where the magic was expected.
        found: u8,
    },
    /// A length prefix exceeded the decoder's payload cap.
    Oversized {
        /// The length the prefix claimed.
        length: u32,
        /// The decoder's configured cap.
        max: u32,
    },
    /// The stream ended in the middle of a frame (header or payload).
    Torn {
        /// Bytes of the unfinished frame that had arrived.
        buffered: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic { found } => {
                write!(
                    f,
                    "bad frame magic: expected 0x{FRAME_MAGIC:02x}, found 0x{found:02x}"
                )
            }
            FrameError::Oversized { length, max } => {
                write!(f, "frame payload length {length} exceeds cap {max}")
            }
            FrameError::Torn { buffered } => {
                write!(f, "stream closed mid-frame with {buffered} bytes buffered")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Wraps a payload in a frame: magic, `u32` little-endian length, bytes.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    encode_frame_into(&mut out, payload);
    out
}

/// Appends a framed copy of `payload` to `out` (the allocation-reusing
/// form of [`encode_frame`]); `out` is any byte sink, so a connection
/// frames straight into its write queue.
pub fn encode_frame_into(out: &mut impl Extend<u8>, payload: &[u8]) {
    out.extend([FRAME_MAGIC]);
    out.extend((payload.len() as u32).to_le_bytes());
    out.extend(payload.iter().copied());
}

/// Incremental frame decoder: feed it stream chunks, pop complete frames.
///
/// The decoder buffers at most one frame plus whatever partial bytes the
/// last `push` left behind; consumed bytes are compacted away so a
/// long-lived connection does not grow the buffer without bound.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Index of the first unconsumed byte in `buf`.
    start: usize,
    max_payload: u32,
}

impl FrameDecoder {
    /// A decoder with the default [`MAX_FRAME_PAYLOAD`] cap.
    pub fn new() -> Self {
        FrameDecoder::with_max_payload(MAX_FRAME_PAYLOAD)
    }

    /// A decoder with an explicit payload cap (useful to make oversize
    /// tests cheap, or to tighten limits on registration channels where
    /// only small control frames are legitimate).
    pub fn with_max_payload(max_payload: u32) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            start: 0,
            max_payload,
        }
    }

    /// Feeds a chunk of stream bytes into the decoder.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing: everything before `start` is consumed.
        if self.start > 0 && (self.start == self.buf.len() || self.start >= 4096) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame's payload, if one has fully arrived.
    ///
    /// Returns `Ok(None)` when more bytes are needed.  Errors are sticky
    /// in practice — a desynchronised stream has no recovery point — so
    /// callers should drop the connection on the first error.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        Ok(self.next_frame_slice()?.map(<[u8]>::to_vec))
    }

    /// [`FrameDecoder::next_frame`] without the copy: the payload is
    /// borrowed from the decoder's buffer until the next call.
    ///
    /// # Errors
    ///
    /// As [`FrameDecoder::next_frame`].
    pub(crate) fn next_frame_slice(&mut self) -> Result<Option<&[u8]>, FrameError> {
        let pending = &self.buf[self.start..];
        if pending.is_empty() {
            return Ok(None);
        }
        if pending[0] != FRAME_MAGIC {
            return Err(FrameError::BadMagic { found: pending[0] });
        }
        if pending.len() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let length = u32::from_le_bytes([pending[1], pending[2], pending[3], pending[4]]);
        if length > self.max_payload {
            return Err(FrameError::Oversized {
                length,
                max: self.max_payload,
            });
        }
        let total = FRAME_HEADER_LEN + length as usize;
        if pending.len() < total {
            return Ok(None);
        }
        let start = self.start;
        self.start += total;
        Ok(Some(&self.buf[start + FRAME_HEADER_LEN..start + total]))
    }

    /// Bytes currently buffered but not yet consumed as complete frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Declares the stream closed: a partial frame still buffered is a
    /// torn frame ([`FrameError::Torn`]); an empty buffer is a clean
    /// close.
    pub fn finish(&self) -> Result<(), FrameError> {
        match self.buffered() {
            0 => Ok(()),
            buffered => Err(FrameError::Torn { buffered }),
        }
    }
}

impl Default for FrameDecoder {
    fn default() -> Self {
        FrameDecoder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::hex;

    #[test]
    fn golden_frame_header() {
        // Magic 0xD5, u32 LE length, raw payload.  Pinned as hex so any
        // accidental header change breaks loudly.
        assert_eq!(hex(&encode_frame(&[])), "d500000000");
        assert_eq!(hex(&encode_frame(&[0xAA, 0xBB])), "d502000000aabb");
        assert_eq!(
            hex(&encode_frame(&[0x01, 0x02, 0x03, 0x04, 0x05])),
            "d5050000000102030405"
        );
    }

    #[test]
    fn round_trips_frames_across_arbitrary_chunk_boundaries() {
        let payloads: Vec<Vec<u8>> = vec![
            vec![],
            vec![0x42],
            (0..=255u8).collect(),
            vec![FRAME_MAGIC; 300], // payload bytes that look like magic
        ];
        let mut stream = Vec::new();
        for p in &payloads {
            encode_frame_into(&mut stream, p);
        }
        // Feed the byte stream one byte at a time — the worst possible
        // chunking a socket can produce.
        let mut decoder = FrameDecoder::new();
        let mut out = Vec::new();
        for byte in &stream {
            decoder.push(std::slice::from_ref(byte));
            while let Some(frame) = decoder.next_frame().unwrap() {
                out.push(frame);
            }
        }
        assert_eq!(out, payloads);
        decoder.finish().unwrap();
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn torn_frame_is_reported_on_close() {
        let full = encode_frame(&[7; 100]);
        let mut decoder = FrameDecoder::new();
        decoder.push(&full[..20]); // header + 15 of 100 payload bytes
        assert_eq!(decoder.next_frame().unwrap(), None);
        assert_eq!(decoder.finish(), Err(FrameError::Torn { buffered: 20 }));
        // A torn *header* is just as torn.
        let mut decoder = FrameDecoder::new();
        decoder.push(&full[..3]);
        assert_eq!(decoder.next_frame().unwrap(), None);
        assert_eq!(decoder.finish(), Err(FrameError::Torn { buffered: 3 }));
    }

    #[test]
    fn trailing_garbage_fails_the_magic_check() {
        let mut stream = encode_frame(&[1, 2, 3]);
        stream.extend_from_slice(b"GET / HTTP/1.0\r\n");
        let mut decoder = FrameDecoder::new();
        decoder.push(&stream);
        assert_eq!(decoder.next_frame().unwrap(), Some(vec![1, 2, 3]));
        assert_eq!(
            decoder.next_frame(),
            Err(FrameError::BadMagic { found: b'G' })
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocating() {
        let mut decoder = FrameDecoder::with_max_payload(1024);
        let mut header = vec![FRAME_MAGIC];
        header.extend_from_slice(&(1025u32).to_le_bytes());
        decoder.push(&header);
        assert_eq!(
            decoder.next_frame(),
            Err(FrameError::Oversized {
                length: 1025,
                max: 1024
            })
        );
        // The default cap rejects a hostile 4 GiB prefix the same way.
        let mut decoder = FrameDecoder::new();
        let mut header = vec![FRAME_MAGIC];
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        decoder.push(&header);
        assert_eq!(
            decoder.next_frame(),
            Err(FrameError::Oversized {
                length: u32::MAX,
                max: MAX_FRAME_PAYLOAD
            })
        );
    }

    #[test]
    fn buffer_compaction_keeps_memory_bounded() {
        let frame = encode_frame(&[9; 64]);
        let mut decoder = FrameDecoder::new();
        for _ in 0..10_000 {
            decoder.push(&frame);
            assert!(decoder.next_frame().unwrap().is_some());
        }
        // Consumed bytes must not accumulate: after compaction the live
        // buffer is at most a few frames, not 10_000 of them.
        assert!(decoder.buf.capacity() < 16 * frame.len() + 8192);
        decoder.finish().unwrap();
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Any sequence of payloads, cut into arbitrary chunks,
            /// decodes back to exactly the same sequence.
            #[test]
            fn prop_frames_round_trip_under_arbitrary_chunking(
                payloads in proptest::collection::vec(
                    proptest::collection::vec(any::<u8>(), 0..128),
                    0..8,
                ),
                chunk in 1usize..64,
            ) {
                let mut stream = Vec::new();
                for p in &payloads {
                    encode_frame_into(&mut stream, p);
                }
                let mut decoder = FrameDecoder::new();
                let mut out = Vec::new();
                for piece in stream.chunks(chunk) {
                    decoder.push(piece);
                    while let Some(frame) = decoder.next_frame().unwrap() {
                        out.push(frame);
                    }
                }
                prop_assert_eq!(out, payloads);
                prop_assert!(decoder.finish().is_ok());
            }

            /// Corrupting the magic byte of any frame in a stream is
            /// always rejected as `BadMagic`, never misparsed.
            #[test]
            fn prop_corrupt_magic_is_rejected(
                payload in proptest::collection::vec(any::<u8>(), 0..64),
                wrong in any::<u8>(),
            ) {
                prop_assume!(wrong != FRAME_MAGIC);
                let mut stream = encode_frame(&payload);
                stream[0] = wrong;
                let mut decoder = FrameDecoder::new();
                decoder.push(&stream);
                prop_assert_eq!(
                    decoder.next_frame(),
                    Err(FrameError::BadMagic { found: wrong })
                );
            }

            /// Truncating a framed stream anywhere strictly inside the
            /// frame is reported as `Torn` on close, with the buffered
            /// count matching the cut.
            #[test]
            fn prop_any_truncation_is_torn(
                payload in proptest::collection::vec(any::<u8>(), 1..64),
                frac in 0.0f64..1.0,
            ) {
                let stream = encode_frame(&payload);
                let cut = 1 + ((stream.len() - 2) as f64 * frac) as usize;
                let mut decoder = FrameDecoder::new();
                decoder.push(&stream[..cut]);
                prop_assert_eq!(decoder.next_frame().unwrap(), None);
                prop_assert_eq!(
                    decoder.finish(),
                    Err(FrameError::Torn { buffered: cut })
                );
            }
        }
    }

    #[test]
    fn errors_display_usefully() {
        assert!(FrameError::BadMagic { found: 0x47 }
            .to_string()
            .contains("0x47"));
        assert!(FrameError::Oversized { length: 9, max: 8 }
            .to_string()
            .contains('9'));
        assert!(FrameError::Torn { buffered: 3 }.to_string().contains('3'));
    }
}
