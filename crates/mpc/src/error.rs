//! Error type for the MPC layer.

use crate::wire::GmwKind;
use core::fmt;
use dstress_circuit::CircuitError;
use dstress_crypto::CryptoError;

/// Errors produced by the GMW engine and its oblivious-transfer providers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpcError {
    /// The circuit itself was malformed.
    Circuit(CircuitError),
    /// An underlying cryptographic operation failed.
    Crypto(CryptoError),
    /// The number of parties is below the minimum (GMW needs at least two;
    /// DStress blocks need `k + 1 >= 2`).
    TooFewParties {
        /// Parties requested.
        parties: usize,
    },
    /// Input shares were not provided for every party, or had the wrong
    /// length.
    InputShareMismatch {
        /// Expected number of input bits per party.
        expected: usize,
        /// What was provided.
        actual: usize,
    },
    /// Output share vectors passed to reconstruction disagree in length.
    OutputShareMismatch,
    /// The transport driving the per-party state machines stalled (a
    /// protocol bug: every unfinished party idle with no message in
    /// flight) or, on sockets, failed.  Bytes from a peer that are not
    /// one [`crate::party::GmwMessage`] end the run as
    /// [`TransportError::Codec`](dstress_net::transport::TransportError::Codec)
    /// on every backend: sockets check each frame on arrival, and a party
    /// reading an in-process lane reports what that check would have.
    Transport(dstress_net::transport::TransportError),
    /// A peer sent what the GMW schedule does not allow at this point:
    /// the wrong message kind, a batch whose layer tag or width does not
    /// match the AND layer in flight, or an OT payload of the wrong
    /// length.  Peer bytes are untrusted input, so the receiving party
    /// ends the run with this instead of panicking.
    UnexpectedMessage {
        /// The party that rejected the message.
        party: usize,
        /// The peer that sent it.
        peer: usize,
        /// The message kind the schedule expected.
        expected: GmwKind,
        /// Index of the AND layer in flight.
        layer: u32,
        /// AND gates in the layer in flight.
        gates: usize,
        /// OT payload bytes the expected message carries.
        payload: usize,
        /// The kind of the message that arrived.
        found: GmwKind,
        /// Its layer tag (0 for `OtSetup`).
        found_layer: u32,
        /// Its batch width (0 for `OtSetup`).
        found_gates: usize,
        /// Its OT payload bytes.
        found_payload: usize,
    },
}

impl fmt::Display for MpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpcError::Circuit(e) => write!(f, "circuit error: {e}"),
            MpcError::Crypto(e) => write!(f, "crypto error: {e}"),
            MpcError::TooFewParties { parties } => {
                write!(f, "GMW requires at least 2 parties, got {parties}")
            }
            MpcError::InputShareMismatch { expected, actual } => {
                write!(
                    f,
                    "expected {expected} input share bits per party, got {actual}"
                )
            }
            MpcError::OutputShareMismatch => write!(f, "output share vectors disagree in length"),
            MpcError::Transport(e) => write!(f, "transport error: {e}"),
            MpcError::UnexpectedMessage {
                party,
                peer,
                expected,
                layer,
                gates,
                payload,
                found,
                found_layer,
                found_gates,
                found_payload,
            } => write!(
                f,
                "party {party}: {found} from party {peer} carry layer {found_layer} with \
                 {found_gates} gates and {found_payload} payload bytes, expected {expected} \
                 for layer {layer} with {gates} gates and {payload} payload bytes"
            ),
        }
    }
}

impl std::error::Error for MpcError {}

impl From<CircuitError> for MpcError {
    fn from(e: CircuitError) -> Self {
        MpcError::Circuit(e)
    }
}

impl From<CryptoError> for MpcError {
    fn from(e: CryptoError) -> Self {
        MpcError::Crypto(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(MpcError::TooFewParties { parties: 1 }
            .to_string()
            .contains('1'));
        assert!(MpcError::OutputShareMismatch
            .to_string()
            .contains("disagree"));
        assert!(MpcError::InputShareMismatch {
            expected: 3,
            actual: 2
        }
        .to_string()
        .contains('3'));
        let c: MpcError = CircuitError::InvalidOutput { wire: 2 }.into();
        assert!(c.to_string().contains("circuit"));
        let k: MpcError = CryptoError::MalformedCiphertext.into();
        assert!(k.to_string().contains("crypto"));
        let t = MpcError::Transport(dstress_net::transport::TransportError::Stalled {
            done: 1,
            actors: 3,
        });
        assert!(t.to_string().contains("stalled"));
        let u = MpcError::UnexpectedMessage {
            party: 2,
            peer: 4,
            expected: GmwKind::Choices,
            layer: 9,
            gates: 18,
            payload: 180,
            found: GmwKind::OtSetup,
            found_layer: 0,
            found_gates: 0,
            found_payload: 12_800,
        };
        assert_eq!(
            u.to_string(),
            "party 2: OtSetup from party 4 carry layer 0 with 0 gates and 12800 payload \
             bytes, expected Choices for layer 9 with 18 gates and 180 payload bytes"
        );
    }
}
