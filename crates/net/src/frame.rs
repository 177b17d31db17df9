//! The broker protocol's framed messages.
//!
//! Every frame travels as `length u32 ‖ body` on the socket; the body is
//! `magic "PN" ‖ version u8 ‖ kind u8 ‖ payload` with all integers
//! big-endian and every variable-length field length-prefixed via
//! [`pbcd_docs::wire`]. Every kind carries the one [`PROTOCOL_VERSION`].
//! Decoding is strict and total: truncated, oversized or trailing bytes
//! yield [`WireError`], never a panic — a hostile peer cannot take down a
//! broker thread with a malformed frame.
//!
//! Containers ride inside [`Frame::Publish`], [`Frame::PublishSigned`],
//! [`Frame::Relay`] and [`Frame::Deliver`] in their own wire format
//! ([`BroadcastContainer::encode`]), always as the tail of the body, so
//! the broker retains and forwards the bytes it received without
//! re-encoding them and without ever holding a decryption key. Each of
//! these kinds has one writer for the bytes before its container, shared
//! by [`Frame::encode`] and the builders that frame a container in place
//! ([`encode_publish`], [`encode_signed_publish`]) or around encoded bytes
//! ([`deliver_body`], [`signed_publish_body`], [`relay_body`]).

use crate::error::{NetError, RejectReason};
use pbcd_docs::wire::{
    get_fixed, get_slice, get_str, get_u16, get_u32, get_u64, get_u8, put_str, WireError,
    MAX_FIELD_LEN,
};
use pbcd_docs::BroadcastContainer;
use std::io::{Read, Write};
use std::mem::take;

/// Leading bytes of every frame body.
pub const FRAME_MAGIC: &[u8; 2] = b"PN";
/// The protocol version: the header byte every frame kind carries.
/// Decoders refuse any other value, whatever the kind.
pub const PROTOCOL_VERSION: u8 = 1;
/// Upper bound on a frame body (64 MiB) — a sanity bound against corrupt
/// or hostile length prefixes, comfortably above the 16 MiB field limit.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Who is speaking on a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerRole {
    /// A publisher pushing broadcast containers.
    Publisher,
    /// A subscriber awaiting deliveries.
    Subscriber,
    /// The broker itself (used in its `Hello` reply).
    Broker,
}

impl PeerRole {
    fn code(self) -> u8 {
        match self {
            Self::Publisher => 0,
            Self::Subscriber => 1,
            Self::Broker => 2,
        }
    }

    fn from_code(code: u8) -> Result<Self, WireError> {
        match code {
            0 => Ok(Self::Publisher),
            1 => Ok(Self::Subscriber),
            2 => Ok(Self::Broker),
            _ => Err(WireError::BadHeader),
        }
    }
}

/// One retained broadcast as reported by [`Frame::Configs`]: public
/// metadata only (the broker knows nothing else).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigSummary {
    /// Document name the container was published under.
    pub document_name: String,
    /// Rekey epoch of the retained container.
    pub epoch: u64,
    /// Policy-configuration ids present in the container.
    pub config_ids: Vec<u32>,
    /// Size of the retained container in bytes.
    pub size_bytes: u64,
}

/// A protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Connection handshake; the broker answers with its own `Hello`.
    Hello {
        /// The speaker's role.
        role: PeerRole,
    },
    /// Publisher → broker: a fresh broadcast container.
    Publish(BroadcastContainer),
    /// Subscriber → broker: subscribe to the named documents (empty list =
    /// every document) and replay up to the last `depth` retained epochs
    /// of each. Replay arrives **oldest-first** through the same
    /// per-subscriber queue as live traffic, so epoch-monotonic receivers
    /// accept every epoch.
    Subscribe {
        /// Document names to receive; empty subscribes to everything.
        documents: Vec<String>,
        /// How many retained epochs per document to replay (0 is treated
        /// as 1; the broker caps this at its configured history depth).
        depth: u32,
    },
    /// Broker → subscriber: a broadcast container (live fan-out or replay
    /// of a retained epoch).
    Deliver(BroadcastContainer),
    /// Ask the broker what it currently retains.
    ListConfigs,
    /// Broker's reply to [`Frame::ListConfigs`].
    Configs(Vec<ConfigSummary>),
    /// Broker's acknowledgement of a `Publish` (with the fan-out count) or
    /// a `Subscribe` (fanout 0).
    Ack {
        /// Epoch of the acknowledged container (0 for subscriptions).
        epoch: u64,
        /// How many subscribers the container was delivered to.
        fanout: u32,
    },
    /// Graceful goodbye; either side may send it before closing.
    Bye,
    /// Fatal per-connection error report; the sender closes afterwards.
    Error {
        /// What went wrong.
        message: String,
    },
    /// Publisher → broker: a broadcast container with a Schnorr
    /// signature over [`publish_auth_message`] under the named publisher
    /// key. The broker verifies against its configured key map; it never
    /// holds the signing half.
    PublishSigned {
        /// Which authorized publisher key signed this (the broker's
        /// [`crate::broker::BrokerConfig`] key-map key).
        key_id: String,
        /// Length-prefixed Schnorr signature (`R ‖ s`, 97 bytes on P-256;
        /// at most [`MAX_PUBLISH_SIGNATURE_LEN`]).
        signature: Vec<u8>,
        /// The container being published.
        container: BroadcastContainer,
    },
    /// Broker → publisher or peer: typed refusal of a publish, signed or
    /// not, or of an overlay frame. Unlike [`Frame::Error`] this is
    /// **not** fatal — the connection stays usable, so a publisher can
    /// correct (e.g. sign, or bump a stale epoch) and retry.
    Reject {
        /// The machine-readable reason.
        reason: RejectReason,
        /// Human-readable detail.
        message: String,
    },
    /// Operator → broker: scrape the broker's telemetry registry.
    StatsRequest,
    /// Broker → operator: the registry snapshot rendered in the
    /// Prometheus-style text exposition format (`name{label} value`
    /// lines). Carries only aggregate counters, gauges and latency
    /// quantiles — never container bytes, document plaintext or
    /// per-subscriber identities.
    StatsResponse {
        /// The rendered text exposition.
        text: String,
    },
    /// Broker ↔ broker: opens a relay peering link. The dialing
    /// (upstream) broker sends its id; the accepting (downstream) broker
    /// replies with its own `PeerHello` followed by a
    /// [`Frame::RelayCatchUp`] describing what it already retains.
    PeerHello {
        /// The speaking broker's overlay-unique id — the value carried in
        /// every [`Frame::Relay`] it originates, and the anchor of the
        /// origin-id loop-suppression check.
        broker_id: String,
    },
    /// Broker → broker: a container forwarded over a peering link.
    /// The container bytes are the **origin's signed body verbatim** — an
    /// edge re-frames but never re-encodes, so subscriber-visible bytes
    /// are identical at every tier and the origin's signature check covers
    /// the whole overlay. Loop suppression rides the header: a broker
    /// rejects its own `origin` coming back and any frame whose `hops`
    /// exceeds its TTL budget.
    Relay {
        /// Id of the broker the container entered the overlay at.
        origin: String,
        /// Relay hops traversed when this frame is received (the origin
        /// sends 1; each forwarding edge increments).
        hops: u8,
        /// The container, byte-identical to the origin's encoding.
        container: BroadcastContainer,
    },
    /// Broker → broker: the downstream's retained high-water marks,
    /// sent right after its `PeerHello` reply. The upstream streams every
    /// retained record strictly newer than these (depth-K per document,
    /// oldest-first, straight off its [`crate::store::RetentionStore`])
    /// as ordinary [`Frame::Relay`] frames before going live — log-backed
    /// cold-start and post-partition resync are the same code path.
    RelayCatchUp {
        /// `(document, newest retained epoch)` pairs; absent documents
        /// mean "send me everything you retain".
        known: Vec<(String, u64)>,
    },
}

const KIND_HELLO: u8 = 1;
const KIND_PUBLISH: u8 = 2;
const KIND_SUBSCRIBE: u8 = 3;
const KIND_DELIVER: u8 = 4;
const KIND_LIST_CONFIGS: u8 = 5;
const KIND_CONFIGS: u8 = 6;
const KIND_ACK: u8 = 7;
const KIND_BYE: u8 = 8;
const KIND_ERROR: u8 = 9;
const KIND_PUBLISH_SIGNED: u8 = 10;
const KIND_REJECT: u8 = 11;
const KIND_STATS_REQUEST: u8 = 13;
const KIND_STATS_RESPONSE: u8 = 14;
const KIND_PEER_HELLO: u8 = 15;
const KIND_RELAY: u8 = 16;
const KIND_RELAY_CATCH_UP: u8 = 17;

/// Upper bound on the length-prefixed Schnorr signature carried by
/// [`Frame::PublishSigned`] (`R ‖ s` — 97 bytes on P-256, 161 on the modp
/// backend; the cap just keeps a hostile length prefix from forcing a
/// large allocation).
pub const MAX_PUBLISH_SIGNATURE_LEN: usize = 512;

impl Frame {
    /// Serializes the frame body (without the outer length prefix).
    /// Fails — instead of panicking — on oversized fields.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut buf = Vec::new();
        buf.extend_from_slice(FRAME_MAGIC);
        buf.push(PROTOCOL_VERSION);
        match self {
            Self::Hello { role } => {
                buf.push(KIND_HELLO);
                buf.push(role.code());
            }
            Self::Publish(container) => return encode_publish(container),
            Self::Subscribe { documents, depth } => {
                buf.push(KIND_SUBSCRIBE);
                buf.extend_from_slice(&depth.to_be_bytes());
                buf.extend_from_slice(&(documents.len() as u32).to_be_bytes());
                for d in documents {
                    put_str(&mut buf, d)?;
                }
            }
            Self::Deliver(container) => {
                let body =
                    body_with_header(KIND_DELIVER, CONTAINER_OFFSET + container.size_bytes());
                return with_container(body, container);
            }
            Self::ListConfigs => buf.push(KIND_LIST_CONFIGS),
            Self::Configs(entries) => {
                buf.push(KIND_CONFIGS);
                buf.extend_from_slice(&(entries.len() as u32).to_be_bytes());
                for e in entries {
                    put_str(&mut buf, &e.document_name)?;
                    buf.extend_from_slice(&e.epoch.to_be_bytes());
                    buf.extend_from_slice(&e.size_bytes.to_be_bytes());
                    buf.extend_from_slice(&(e.config_ids.len() as u32).to_be_bytes());
                    for id in &e.config_ids {
                        buf.extend_from_slice(&id.to_be_bytes());
                    }
                }
            }
            Self::Ack { epoch, fanout } => {
                buf.push(KIND_ACK);
                buf.extend_from_slice(&epoch.to_be_bytes());
                buf.extend_from_slice(&fanout.to_be_bytes());
            }
            Self::Bye => buf.push(KIND_BYE),
            Self::Error { message } => {
                buf.push(KIND_ERROR);
                put_str(&mut buf, message)?;
            }
            Self::PublishSigned {
                key_id,
                signature,
                container,
            } => {
                if signature.is_empty() || signature.len() > MAX_PUBLISH_SIGNATURE_LEN {
                    return Err(WireError::InvalidValue);
                }
                let key_id = checked_field(key_id)?;
                let body = signed_publish_prefix(key_id, signature, container.size_bytes());
                return with_container(body, container);
            }
            Self::Reject { reason, message } => {
                buf.push(KIND_REJECT);
                buf.push(reason.code());
                put_str(&mut buf, message)?;
            }
            Self::StatsRequest => buf.push(KIND_STATS_REQUEST),
            Self::StatsResponse { text } => {
                buf.push(KIND_STATS_RESPONSE);
                put_str(&mut buf, text)?;
            }
            Self::PeerHello { broker_id } => {
                buf.push(KIND_PEER_HELLO);
                put_str(&mut buf, broker_id)?;
            }
            Self::Relay {
                origin,
                hops,
                container,
            } => {
                let body = relay_prefix(checked_field(origin)?, *hops, container.size_bytes());
                return with_container(body, container);
            }
            Self::RelayCatchUp { known } => {
                buf.push(KIND_RELAY_CATCH_UP);
                buf.extend_from_slice(&(known.len() as u32).to_be_bytes());
                for (doc, epoch) in known {
                    put_str(&mut buf, doc)?;
                    buf.extend_from_slice(&epoch.to_be_bytes());
                }
            }
        }
        Ok(buf)
    }

    /// Strict parse of a frame body. Any deviation — bad magic, a version
    /// other than [`PROTOCOL_VERSION`], unknown kind, truncation, trailing
    /// bytes — is a [`WireError`].
    pub fn decode(data: &[u8]) -> Result<Self, WireError> {
        let mut buf = data;
        let [m0, m1, version, kind] = get_fixed::<4>(&mut buf)?;
        if [m0, m1] != *FRAME_MAGIC || version != PROTOCOL_VERSION {
            return Err(WireError::BadHeader);
        }
        let frame = match kind {
            KIND_HELLO => Self::Hello {
                role: PeerRole::from_code(get_u8(&mut buf)?)?,
            },
            KIND_PUBLISH => Self::Publish(BroadcastContainer::decode(take(&mut buf))?),
            KIND_SUBSCRIBE => {
                let depth = get_u32(&mut buf)?;
                let count = get_u32(&mut buf)? as usize;
                // Each document name costs ≥ 4 bytes on the wire.
                if count > data.len() / 4 + 1 {
                    return Err(WireError::Truncated);
                }
                let mut documents = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    documents.push(get_str(&mut buf)?);
                }
                Self::Subscribe { documents, depth }
            }
            KIND_DELIVER => Self::Deliver(BroadcastContainer::decode(take(&mut buf))?),
            KIND_LIST_CONFIGS => Self::ListConfigs,
            KIND_CONFIGS => {
                let count = get_u32(&mut buf)? as usize;
                // Each summary costs ≥ 24 bytes on the wire.
                if count > data.len() / 24 + 1 {
                    return Err(WireError::Truncated);
                }
                let mut entries = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    let document_name = get_str(&mut buf)?;
                    let epoch = get_u64(&mut buf)?;
                    let size_bytes = get_u64(&mut buf)?;
                    let id_count = get_u32(&mut buf)? as usize;
                    if id_count > data.len() / 4 + 1 {
                        return Err(WireError::Truncated);
                    }
                    let mut config_ids = Vec::with_capacity(id_count.min(1024));
                    for _ in 0..id_count {
                        config_ids.push(get_u32(&mut buf)?);
                    }
                    entries.push(ConfigSummary {
                        document_name,
                        epoch,
                        config_ids,
                        size_bytes,
                    });
                }
                Self::Configs(entries)
            }
            KIND_ACK => {
                let epoch = get_u64(&mut buf)?;
                let fanout = get_u32(&mut buf)?;
                Self::Ack { epoch, fanout }
            }
            KIND_BYE => Self::Bye,
            KIND_ERROR => Self::Error {
                message: get_str(&mut buf)?,
            },
            KIND_PUBLISH_SIGNED => {
                let key_id = get_str(&mut buf)?;
                let sig_len = get_u16(&mut buf)? as usize;
                if sig_len == 0 || sig_len > MAX_PUBLISH_SIGNATURE_LEN {
                    return Err(WireError::InvalidValue);
                }
                let signature = get_slice(&mut buf, sig_len)?.to_vec();
                Self::PublishSigned {
                    key_id,
                    signature,
                    container: BroadcastContainer::decode(take(&mut buf))?,
                }
            }
            KIND_REJECT => {
                let reason =
                    RejectReason::from_code(get_u8(&mut buf)?).ok_or(WireError::InvalidValue)?;
                Self::Reject {
                    reason,
                    message: get_str(&mut buf)?,
                }
            }
            KIND_STATS_REQUEST => Self::StatsRequest,
            KIND_STATS_RESPONSE => Self::StatsResponse {
                text: get_str(&mut buf)?,
            },
            KIND_PEER_HELLO => Self::PeerHello {
                broker_id: get_str(&mut buf)?,
            },
            KIND_RELAY => {
                let origin = get_str(&mut buf)?;
                let hops = get_u8(&mut buf)?;
                Self::Relay {
                    origin,
                    hops,
                    container: BroadcastContainer::decode(take(&mut buf))?,
                }
            }
            KIND_RELAY_CATCH_UP => {
                let count = get_u32(&mut buf)? as usize;
                // Each (document, epoch) pair costs ≥ 12 bytes on the wire.
                if count > data.len() / 12 + 1 {
                    return Err(WireError::Truncated);
                }
                let mut known = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    let doc = get_str(&mut buf)?;
                    let epoch = get_u64(&mut buf)?;
                    known.push((doc, epoch));
                }
                Self::RelayCatchUp { known }
            }
            _ => return Err(WireError::BadHeader),
        };
        if !buf.is_empty() {
            return Err(WireError::BadHeader);
        }
        Ok(frame)
    }
}

/// Starts a frame body of `body_len` bytes in all with its
/// `magic ‖ version ‖ kind` header — the whole prefix of a `Publish` or
/// `Deliver` body.
fn body_with_header(kind: u8, body_len: usize) -> Vec<u8> {
    let mut body = Vec::with_capacity(body_len);
    body.extend_from_slice(FRAME_MAGIC);
    body.push(PROTOCOL_VERSION);
    body.push(kind);
    body
}

/// A `PublishSigned` body up to its container (header ‖ len-prefixed key
/// id ‖ len-prefixed signature), with room for `container_len` more bytes.
fn signed_publish_prefix(key_id: &str, signature: &[u8], container_len: usize) -> Vec<u8> {
    let offset = signed_container_offset(key_id, signature.len());
    let mut body = body_with_header(KIND_PUBLISH_SIGNED, offset + container_len);
    body.extend_from_slice(&(key_id.len() as u32).to_be_bytes());
    body.extend_from_slice(key_id.as_bytes());
    body.extend_from_slice(&(signature.len() as u16).to_be_bytes());
    body.extend_from_slice(signature);
    body
}

/// A `Relay` body up to its container (header ‖ len-prefixed origin ‖
/// hops), with room for `container_len` more bytes.
fn relay_prefix(origin: &str, hops: u8, container_len: usize) -> Vec<u8> {
    let mut body = body_with_header(KIND_RELAY, relay_container_offset(origin) + container_len);
    body.extend_from_slice(&(origin.len() as u32).to_be_bytes());
    body.extend_from_slice(origin.as_bytes());
    body.push(hops);
    body
}

/// Refuses a string field that the decoder would refuse.
fn checked_field(field: &str) -> Result<&str, WireError> {
    if field.len() > MAX_FIELD_LEN {
        return Err(WireError::FieldTooLong(field.len()));
    }
    Ok(field)
}

/// Appends `container`'s encoding to a frame prefix.
fn with_container(mut body: Vec<u8>, container: &BroadcastContainer) -> Result<Vec<u8>, WireError> {
    container.encode_into(&mut body)?;
    Ok(body)
}

/// Builds a `Deliver` frame body around already-encoded container bytes
/// without re-decoding them — the broker's retention/replay hot path.
pub fn deliver_body(container_bytes: &[u8]) -> Vec<u8> {
    let mut body = body_with_header(KIND_DELIVER, CONTAINER_OFFSET + container_bytes.len());
    body.extend_from_slice(container_bytes);
    body
}

/// Builds a `Publish` frame body with the container encoded straight
/// into it.
pub fn encode_publish(container: &BroadcastContainer) -> Result<Vec<u8>, WireError> {
    let body = body_with_header(KIND_PUBLISH, CONTAINER_OFFSET + container.size_bytes());
    with_container(body, container)
}

/// Builds a `PublishSigned` frame body with the container encoded
/// straight into it. `sign` gets the container's bytes and returns the
/// signature over [`publish_auth_message`] of them, which goes into the
/// slot of `signature_len` bytes (at most [`MAX_PUBLISH_SIGNATURE_LEN`])
/// before them. A signature of another length moves the container once
/// to fit; with a slot of [`pbcd_group::Signature::encoded_len`] bytes
/// that never happens.
pub fn encode_signed_publish(
    key_id: &str,
    signature_len: usize,
    container: &BroadcastContainer,
    sign: impl FnOnce(&[u8]) -> Vec<u8>,
) -> Result<Vec<u8>, WireError> {
    let zeros = [0; MAX_PUBLISH_SIGNATURE_LEN];
    let reserved = &zeros[..signature_len.min(MAX_PUBLISH_SIGNATURE_LEN)];
    let prefix = signed_publish_prefix(key_id, reserved, container.size_bytes());
    let offset = prefix.len();
    let mut body = with_container(prefix, container)?;
    let signature = sign(&body[offset..]);
    if signature.is_empty() || signature.len() > MAX_PUBLISH_SIGNATURE_LEN {
        return Err(WireError::InvalidValue);
    }
    let slot = offset - reserved.len()..offset;
    body[slot.start - 2..slot.start].copy_from_slice(&(signature.len() as u16).to_be_bytes());
    body.splice(slot, signature);
    Ok(body)
}

/// Builds a `PublishSigned` frame body around already-encoded container
/// bytes and a detached signature — the container is neither re-encoded
/// nor cloned beyond this one buffer.
///
/// `signature` must be a non-empty signature (at most
/// [`MAX_PUBLISH_SIGNATURE_LEN`] bytes) over [`publish_auth_message`] of
/// the same `container_bytes`.
pub fn signed_publish_body(key_id: &str, signature: &[u8], container_bytes: &[u8]) -> Vec<u8> {
    debug_assert!(!signature.is_empty() && signature.len() <= MAX_PUBLISH_SIGNATURE_LEN);
    let mut body = signed_publish_prefix(key_id, signature, container_bytes.len());
    body.extend_from_slice(container_bytes);
    body
}

/// Byte offset of a container within a `Publish`/`Deliver` frame body
/// (magic ‖ version ‖ kind). After a strict [`Frame::decode`], the body's
/// tail from this offset *is* the canonical container encoding — consumers
/// can retain it without re-encoding.
pub const CONTAINER_OFFSET: usize = 4;

/// Byte offset of the container within a `PublishSigned` frame body
/// (magic ‖ version ‖ kind ‖ len-prefixed key id ‖ len-prefixed
/// signature).
pub fn signed_container_offset(key_id: &str, signature_len: usize) -> usize {
    CONTAINER_OFFSET + 4 + key_id.len() + 2 + signature_len
}

/// Builds a `Relay` frame body around already-encoded container bytes —
/// the overlay's forwarding hot path re-frames the origin's bytes
/// verbatim, never re-encoding (that is what keeps subscriber-visible
/// bytes identical at every tier).
pub fn relay_body(origin: &str, hops: u8, container_bytes: &[u8]) -> Vec<u8> {
    let mut body = relay_prefix(origin, hops, container_bytes.len());
    body.extend_from_slice(container_bytes);
    body
}

/// Byte offset of the container within a `Relay` frame body
/// (magic ‖ version ‖ kind ‖ len-prefixed origin ‖ hops). After a strict
/// [`Frame::decode`], the body's tail from this offset *is* the origin's
/// canonical container encoding — a receiving broker retains and
/// re-forwards it without re-encoding.
pub fn relay_container_offset(origin: &str) -> usize {
    CONTAINER_OFFSET + 4 + origin.len() + 1
}

/// The canonical byte string a publisher signs and the broker verifies
/// for an authenticated publish: a domain tag, the length-prefixed
/// `doc_name` (so field boundaries cannot shift), the epoch, and the
/// BLAKE2b-256 digest of `container_bytes`, which binds every byte.
pub fn publish_auth_message(doc_name: &str, epoch: u64, container_bytes: &[u8]) -> Vec<u8> {
    let mut msg = Vec::with_capacity(23 + 4 + doc_name.len() + 8 + 32);
    msg.extend_from_slice(b"pbcd-broker-publish-v3\0");
    msg.extend_from_slice(&(doc_name.len() as u32).to_be_bytes());
    msg.extend_from_slice(doc_name.as_bytes());
    msg.extend_from_slice(&epoch.to_be_bytes());
    msg.extend_from_slice(&pbcd_group::blake2b_256(container_bytes));
    msg
}

/// Writes one pre-encoded frame body with its length prefix and flushes —
/// the single place the transport framing (and its size guard) lives.
pub fn write_body(w: &mut impl Write, body: &[u8]) -> Result<(), NetError> {
    if body.len() > MAX_FRAME_LEN {
        return Err(NetError::protocol(format!(
            "frame body {} exceeds MAX_FRAME_LEN",
            body.len()
        )));
    }
    w.write_all(&(body.len() as u32).to_be_bytes())?;
    w.write_all(body)?;
    w.flush()?;
    Ok(())
}

/// Writes one length-prefixed frame and flushes.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), NetError> {
    write_body(w, &frame.encode()?)
}

/// Reads one length-prefixed frame *body* without decoding it. A clean
/// EOF before the length prefix is [`NetError::Closed`]; a hostile length
/// is a protocol error — never a panic. Memory is committed only as
/// payload bytes actually arrive, so announcing a 64 MiB frame and then
/// stalling costs the attacker bandwidth, not the reader memory.
pub fn read_frame_body(r: &mut impl Read) -> Result<Vec<u8>, NetError> {
    // Broker frames carry at least magic ‖ version ‖ kind (4 bytes).
    read_body_bounded(r, 4, MAX_FRAME_LEN)
}

/// [`read_frame_body`] with caller-chosen length bounds — transports whose
/// payloads are smaller than broker frames (e.g. the direct registration
/// pipe, whose protocol messages never exceed a few KiB) tighten `max_len`
/// so a hostile length prefix cannot commit [`MAX_FRAME_LEN`] of memory,
/// and raw byte pipes drop the 4-byte minimum.
pub fn read_body_bounded(
    r: &mut impl Read,
    min_len: usize,
    max_len: usize,
) -> Result<Vec<u8>, NetError> {
    let mut len_bytes = [0u8; 4];
    if let Err(e) = r.read_exact(&mut len_bytes) {
        return Err(if e.kind() == std::io::ErrorKind::UnexpectedEof {
            NetError::Closed
        } else {
            e.into()
        });
    }
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len < min_len || len > max_len {
        return Err(NetError::protocol(format!("bad frame length {len}")));
    }
    let mut body = Vec::with_capacity(len.min(64 * 1024));
    let mut chunk = [0u8; 64 * 1024];
    while body.len() < len {
        let take = (len - body.len()).min(chunk.len());
        r.read_exact(&mut chunk[..take])?;
        body.extend_from_slice(&chunk[..take]);
    }
    Ok(body)
}

/// Reads one length-prefixed frame. See [`read_frame_body`] for the error
/// contract of the transport half.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, NetError> {
    Ok(Frame::decode(&read_frame_body(r)?)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbcd_docs::{EncryptedGroup, EncryptedSegment};

    fn sample_container() -> BroadcastContainer {
        BroadcastContainer {
            epoch: 9,
            document_name: "EHR.xml".into(),
            skeleton_xml: "<r><pbcd-segment id=\"0\"/></r>".into(),
            groups: vec![EncryptedGroup {
                config_id: 0,
                key_info: vec![4; 40],
                segments: vec![EncryptedSegment {
                    segment_id: 0,
                    tag: "Record".into(),
                    ciphertext: vec![7; 64],
                }],
            }],
        }
    }

    fn samples() -> Vec<Frame> {
        vec![
            Frame::Hello {
                role: PeerRole::Publisher,
            },
            Frame::Publish(sample_container()),
            Frame::Subscribe {
                documents: vec!["EHR.xml".into(), "news.xml".into()],
                depth: 4,
            },
            Frame::Subscribe {
                documents: vec![],
                depth: 0,
            },
            Frame::Deliver(sample_container()),
            Frame::ListConfigs,
            Frame::Configs(vec![ConfigSummary {
                document_name: "EHR.xml".into(),
                epoch: 9,
                config_ids: vec![0, 1, 2],
                size_bytes: 512,
            }]),
            Frame::Ack {
                epoch: 9,
                fanout: 3,
            },
            Frame::Bye,
            Frame::Error {
                message: "no thanks".into(),
            },
            Frame::PublishSigned {
                key_id: "pub-1".into(),
                signature: vec![0x3C; 97],
                container: sample_container(),
            },
            Frame::Reject {
                reason: RejectReason::StaleEpoch,
                message: "retained epoch is 9".into(),
            },
            Frame::StatsRequest,
            Frame::StatsResponse {
                text: "broker_publishes_total 3\nbroker_queue_depth 0\n".into(),
            },
            Frame::PeerHello {
                broker_id: "edge-west-2".into(),
            },
            Frame::Relay {
                origin: "origin-1".into(),
                hops: 2,
                container: sample_container(),
            },
            Frame::RelayCatchUp {
                known: vec![("EHR.xml".into(), 9), ("news.xml".into(), 3)],
            },
            Frame::RelayCatchUp { known: vec![] },
        ]
    }

    #[test]
    fn every_frame_roundtrips() {
        for frame in samples() {
            let enc = frame.encode().unwrap();
            assert_eq!(Frame::decode(&enc).unwrap(), frame, "{frame:?}");
        }
    }

    #[test]
    fn truncation_never_decodes() {
        for frame in samples() {
            let enc = frame.encode().unwrap();
            for cut in 0..enc.len() {
                assert!(
                    Frame::decode(&enc[..cut]).is_err(),
                    "{frame:?} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        for frame in samples() {
            let mut enc = frame.encode().unwrap();
            enc.push(0);
            assert!(Frame::decode(&enc).is_err(), "{frame:?}");
        }
    }

    #[test]
    fn bad_magic_version_kind_rejected() {
        let mut enc = Frame::Bye.encode().unwrap();
        enc[0] = b'X';
        assert_eq!(Frame::decode(&enc), Err(WireError::BadHeader));
        let mut enc = Frame::Bye.encode().unwrap();
        enc[3] = 200; // kind
        assert_eq!(Frame::decode(&enc), Err(WireError::BadHeader));
        // One version for every kind: whatever the frame, any other header
        // version byte is refused.
        for frame in samples() {
            let mut enc = frame.encode().unwrap();
            assert_eq!(enc[2], PROTOCOL_VERSION, "{frame:?}");
            for version in (0..=u8::MAX).filter(|v| *v != PROTOCOL_VERSION) {
                enc[2] = version;
                assert_eq!(
                    Frame::decode(&enc),
                    Err(WireError::BadHeader),
                    "{frame:?} under version {version}"
                );
            }
        }
    }

    #[test]
    fn frame_io_roundtrip_over_a_buffer() {
        let mut wire = Vec::new();
        for frame in samples() {
            write_frame(&mut wire, &frame).unwrap();
        }
        let mut r = wire.as_slice();
        for frame in samples() {
            assert_eq!(read_frame(&mut r).unwrap(), frame);
        }
        assert_eq!(read_frame(&mut r), Err(NetError::Closed));
    }

    #[test]
    fn oversized_announced_length_rejected() {
        let huge = ((MAX_FRAME_LEN + 1) as u32).to_be_bytes();
        let mut r = huge.as_slice();
        assert!(matches!(read_frame(&mut r), Err(NetError::Protocol(_))));
    }

    #[test]
    fn relay_body_matches_frame_encode() {
        let container_bytes = sample_container().encode().unwrap();
        for frame in samples() {
            if let Frame::Relay { origin, hops, .. } = &frame {
                let body = relay_body(origin, *hops, &container_bytes);
                assert_eq!(body, frame.encode().unwrap());
                // The advertised offset really lands on the container bytes.
                let offset = relay_container_offset(origin);
                assert_eq!(&body[offset..], container_bytes.as_slice());
            }
        }
    }

    #[test]
    fn signed_publish_body_matches_frame_encode() {
        let container_bytes = sample_container().encode().unwrap();
        for frame in samples() {
            if let Frame::PublishSigned {
                key_id, signature, ..
            } = &frame
            {
                let via_helper = signed_publish_body(key_id, signature, &container_bytes);
                assert_eq!(via_helper, frame.encode().unwrap());
                // The advertised offset really lands on the container bytes.
                let offset = signed_container_offset(key_id, signature.len());
                assert_eq!(&via_helper[offset..], container_bytes.as_slice());
            }
        }
    }

    /// The publish paths that encode the container straight into the
    /// frame give the bytes of `Frame::encode`, and the signer sees
    /// exactly the container's encoding — also when the reserved slot
    /// does not fit the signature.
    #[test]
    fn frames_encoded_in_place_match_frame_encode() {
        let container = sample_container();
        let container_bytes = container.encode().unwrap();
        assert_eq!(
            encode_publish(&container).unwrap(),
            Frame::Publish(container.clone()).encode().unwrap()
        );
        for (reserved, len) in [(97, 97), (97, 65), (0, 97), (97, 161)] {
            let sig = vec![0x7E; len];
            let body = encode_signed_publish("pub-1", reserved, &container, |bytes| {
                assert_eq!(bytes, container_bytes.as_slice());
                sig.clone()
            })
            .unwrap();
            assert_eq!(body, signed_publish_body("pub-1", &sig, &container_bytes));
        }
        let refused = encode_signed_publish("pub-1", 97, &container, |_| Vec::new());
        assert_eq!(refused, Err(WireError::InvalidValue));
    }
}
