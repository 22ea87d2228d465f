//! Error type for setup and transfer.

use core::fmt;
use dstress_crypto::CryptoError;
use dstress_math::MathError;
use dstress_net::wire::WireError;

/// Errors produced by the trusted-party setup or the transfer protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransferError {
    /// An underlying cryptographic operation failed.
    Crypto(CryptoError),
    /// An underlying arithmetic operation failed.
    Math(MathError),
    /// There are not enough nodes to form blocks of `k + 1` distinct
    /// members.
    NotEnoughNodes {
        /// Number of registered nodes.
        nodes: usize,
        /// Required block size `k + 1`.
        block_size: usize,
    },
    /// The number of shares supplied does not match the block size.
    BlockSizeMismatch {
        /// Expected block size.
        expected: usize,
        /// Provided count.
        actual: usize,
    },
    /// The certificate does not carry keys for the expected block size or
    /// bit width.
    CertificateShapeMismatch,
    /// `node_secrets` holds no entry, or fewer than `L` bit keys, for a
    /// member of the receiving block.
    MissingNodeSecrets {
        /// The receiving-block member without usable secrets.
        node: usize,
    },
    /// The final protocol's noise parameter α is not in `(0, 1)`.
    InvalidNoiseAlpha,
    /// A decryption produced a sum outside the lookup-table window — the
    /// `P_fail` event of Appendix B.
    DecryptionFailure,
    /// A certificate or block list failed signature verification.
    BadSignature,
    /// A protocol hop could not be decoded from its wire bytes.
    WireFormat(WireError),
}

impl fmt::Display for TransferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransferError::Crypto(e) => write!(f, "crypto error: {e}"),
            TransferError::Math(e) => write!(f, "math error: {e}"),
            TransferError::NotEnoughNodes { nodes, block_size } => {
                write!(f, "cannot form blocks of {block_size} from {nodes} nodes")
            }
            TransferError::BlockSizeMismatch { expected, actual } => {
                write!(f, "expected {expected} block members, got {actual}")
            }
            TransferError::CertificateShapeMismatch => {
                write!(f, "block certificate has the wrong shape")
            }
            TransferError::MissingNodeSecrets { node } => {
                write!(f, "no bit keys for receiving-block member {node}")
            }
            TransferError::InvalidNoiseAlpha => {
                write!(f, "edge noise parameter alpha must be in (0, 1)")
            }
            TransferError::DecryptionFailure => {
                write!(
                    f,
                    "noised sum fell outside the discrete-log window (P_fail event)"
                )
            }
            TransferError::BadSignature => write!(f, "trusted-party signature check failed"),
            TransferError::WireFormat(e) => write!(f, "wire format error: {e}"),
        }
    }
}

impl std::error::Error for TransferError {}

impl From<CryptoError> for TransferError {
    fn from(e: CryptoError) -> Self {
        TransferError::Crypto(e)
    }
}

impl From<MathError> for TransferError {
    fn from(e: MathError) -> Self {
        TransferError::Math(e)
    }
}

impl From<WireError> for TransferError {
    fn from(e: WireError) -> Self {
        TransferError::WireFormat(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(TransferError::DecryptionFailure
            .to_string()
            .contains("P_fail"));
        assert!(TransferError::BadSignature
            .to_string()
            .contains("signature"));
        assert!(TransferError::NotEnoughNodes {
            nodes: 3,
            block_size: 8
        }
        .to_string()
        .contains('8'));
        assert!(TransferError::BlockSizeMismatch {
            expected: 4,
            actual: 2
        }
        .to_string()
        .contains('4'));
        assert!(TransferError::CertificateShapeMismatch
            .to_string()
            .contains("shape"));
        assert!(TransferError::MissingNodeSecrets { node: 7 }
            .to_string()
            .contains('7'));
        assert!(TransferError::InvalidNoiseAlpha
            .to_string()
            .contains("(0, 1)"));
        let e: TransferError = CryptoError::MalformedCiphertext.into();
        assert!(e.to_string().contains("crypto"));
        let e: TransferError = MathError::InvalidHex.into();
        assert!(e.to_string().contains("math"));
        let e: TransferError = WireError::VarintOverflow.into();
        assert!(e.to_string().contains("wire format"));
    }
}
