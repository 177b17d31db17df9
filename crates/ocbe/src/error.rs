//! OCBE protocol errors.

/// Errors raised by OCBE senders and receivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OcbeError {
    /// The receiver's digit commitments do not reassemble to the difference
    /// commitment (`c·g^{−x₀} ≠ Π cᵢ^{8ⁱ}`): a malformed or malicious proof.
    InconsistentCommitments,
    /// The proof message shape does not match the predicate (e.g. an EQ
    /// proof supplied for a GE predicate, or a wrong commitment count).
    ProofShapeMismatch,
    /// The predicate cannot be satisfied by any ℓ-bit value, so no envelope
    /// can ever be opened (e.g. `< 0`).
    UnsatisfiablePredicate,
    /// Parameter out of range (ℓ must be in `1..=63`, thresholds ℓ-bit).
    InvalidParameters,
}

impl core::fmt::Display for OcbeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::InconsistentCommitments => {
                write!(
                    f,
                    "digit commitments inconsistent with attribute commitment"
                )
            }
            Self::ProofShapeMismatch => write!(f, "proof message does not match predicate"),
            Self::UnsatisfiablePredicate => write!(f, "predicate is unsatisfiable"),
            Self::InvalidParameters => write!(f, "invalid OCBE parameters"),
        }
    }
}

impl std::error::Error for OcbeError {}
