//! Error type for the network layer.
//!
//! I/O errors are flattened to `(kind, detail)` so [`NetError`] stays
//! `Clone + PartialEq` — the system-level error enum in `pbcd_core` wraps
//! it and relies on both.

use pbcd_docs::WireError;

/// Why a broker refused a publish, a relayed container or a peering
/// request — the typed payload of a [`crate::frame::Frame::Reject`]
/// reply. Machine-readable so publishers can react (sign, re-key, bump
/// the epoch, shrink the container) instead of parsing error strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The broker requires signed publishes and this one was unsigned.
    AuthRequired,
    /// The claimed key id is not in the broker's authorized-publisher map.
    UnknownPublisher,
    /// The signature did not verify over `doc_name ‖ epoch ‖ container`.
    BadSignature,
    /// The epoch is not newer than the retained one (replay or stale).
    StaleEpoch,
    /// Accepting the container would exceed a retention cap.
    RetentionCap,
    /// The broker could not append the container to its durable retention
    /// log (disk full, I/O error). Nothing was retained or fanned out; the
    /// publisher may retry the same epoch once the broker recovers.
    StoreFailure,
    /// A relayed container arrived back at its origin broker or exhausted
    /// its hop budget — the overlay's loop-suppression guard fired.
    /// Non-fatal: the peer link stays up and the refusal is counted, not
    /// escalated (cycles are legal in mesh topologies; suppression is how
    /// they terminate).
    RelayLoop,
    /// A relayed epoch was not newer than the receiving broker's retained
    /// epoch for that document. Normal during catch-up/live overlap and
    /// on redundant mesh paths — the per-hop monotonicity guard doubles
    /// as idempotent duplicate suppression. Non-fatal.
    StaleHop,
    /// A `Relay`/`PeerHello` frame arrived from a connection that is not
    /// an accepted peer link (relay disabled, peering not accepted, or a
    /// plain client speaking broker-overlay frames). Non-fatal for the
    /// sender's connection.
    NotAPeer,
}

impl RejectReason {
    /// Wire code.
    pub fn code(self) -> u8 {
        match self {
            Self::AuthRequired => 1,
            Self::UnknownPublisher => 2,
            Self::BadSignature => 3,
            Self::StaleEpoch => 4,
            Self::RetentionCap => 5,
            Self::StoreFailure => 6,
            Self::RelayLoop => 7,
            Self::StaleHop => 8,
            Self::NotAPeer => 9,
        }
    }

    /// Parses a wire code.
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            1 => Self::AuthRequired,
            2 => Self::UnknownPublisher,
            3 => Self::BadSignature,
            4 => Self::StaleEpoch,
            5 => Self::RetentionCap,
            6 => Self::StoreFailure,
            7 => Self::RelayLoop,
            8 => Self::StaleHop,
            9 => Self::NotAPeer,
            _ => return None,
        })
    }
}

impl core::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Self::AuthRequired => "publisher authentication required",
            Self::UnknownPublisher => "unknown publisher key",
            Self::BadSignature => "bad publish signature",
            Self::StaleEpoch => "stale or replayed epoch",
            Self::RetentionCap => "retention cap exceeded",
            Self::StoreFailure => "durable retention store failure",
            Self::RelayLoop => "relay loop suppressed (origin match or hop budget exhausted)",
            Self::StaleHop => "relayed epoch not newer than retained (duplicate suppressed)",
            Self::NotAPeer => "connection is not an accepted relay peer",
        };
        write!(f, "{s}")
    }
}

/// Errors surfaced by brokers, clients and the framing layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// An underlying socket operation failed.
    Io {
        /// The `std::io` error kind.
        kind: std::io::ErrorKind,
        /// Human-readable detail from the original error.
        detail: String,
    },
    /// A frame or container failed strict encoding/decoding.
    Wire(WireError),
    /// The peer violated the protocol (wrong frame at the wrong time,
    /// version mismatch, oversized frame, or a broker-reported error).
    Protocol(String),
    /// The broker refused a publish with a typed reason (the connection
    /// stays usable — e.g. retry with a fresh epoch).
    Rejected {
        /// The machine-readable reason.
        reason: RejectReason,
        /// Human-readable detail from the broker.
        detail: String,
    },
    /// The peer closed the connection at a clean frame boundary.
    Closed,
}

impl NetError {
    /// Shorthand for a protocol violation.
    pub fn protocol(msg: impl Into<String>) -> Self {
        Self::Protocol(msg.into())
    }
}

impl core::fmt::Display for NetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Io { kind, detail } => write!(f, "i/o ({kind:?}): {detail}"),
            Self::Wire(e) => write!(f, "wire: {e}"),
            Self::Protocol(msg) => write!(f, "protocol: {msg}"),
            Self::Rejected { reason, detail } => write!(f, "publish rejected ({reason}): {detail}"),
            Self::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        Self::Io {
            kind: e.kind(),
            detail: e.to_string(),
        }
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}
