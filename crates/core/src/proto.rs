//! The transport-agnostic protocol layer: typed, strictly-decoded
//! request/response messages for every wire-crossing interaction of the
//! paper's system — token issuance (§V-A), oblivious CSS registration
//! (§V-B) and the conditions query that precedes it.
//!
//! Every message travels as `magic "PP" ‖ version u8 ‖ kind u8 ‖ payload`
//! with all integers big-endian and every variable-length field
//! length-prefixed through the audited [`pbcd_docs::wire`] helpers. Both
//! directions are **total**: truncated, oversized, trailing or
//! semantically invalid bytes (non-elements, non-canonical scalars,
//! unknown enum codes) yield [`WireError`], never a panic — these are the
//! attacker-facing bytes of the registration endpoint.
//!
//! The messages deliberately carry no live references: a
//! [`RegisterRequest`] is self-contained (token + condition + proof), so
//! publisher and subscriber can sit on opposite ends of any byte pipe —
//! in-process, loopback TCP ([`pbcd_net::direct`]), or anything else.
//! Dissemination is *not* here: broadcast containers already have their
//! own wire format ([`pbcd_docs::BroadcastContainer`]) and ride the
//! untrusted broker protocol ([`pbcd_net::frame`]).

use crate::token::IdentityToken;
use pbcd_commit::{Commitment, Opening};
use pbcd_docs::wire::{self, WireError};
use pbcd_group::{CyclicGroup, Scalar, Signature};
use pbcd_ocbe::{BitProof, BitwiseEnvelope, Envelope, EqEnvelope, ProofMessage};
use pbcd_policy::{AttributeCondition, ComparisonOp};

/// Leading bytes of every protocol message.
pub const PROTO_MAGIC: &[u8; 2] = b"PP";
/// Protocol version spoken by this module.
pub const PROTO_VERSION: u8 = 1;
/// Upper bound on one protocol message (4 MiB) — a registration request
/// for ℓ = 63 is under 10 KiB, so anything near this bound is hostile.
pub const MAX_MESSAGE_LEN: usize = 4 * 1024 * 1024;

const KIND_CONDITIONS_QUERY: u8 = 1;
const KIND_REGISTER_REQUEST: u8 = 2;
const KIND_ISSUE_REQUEST: u8 = 3;
const KIND_STATS_QUERY: u8 = 4;
const KIND_REGISTER_BATCH_REQUEST: u8 = 5;
const KIND_CONDITIONS: u8 = 16;
const KIND_REGISTER_RESPONSE: u8 = 17;
const KIND_ISSUE_RESPONSE: u8 = 18;
const KIND_STATS: u8 = 19;
const KIND_REGISTER_BATCH_RESPONSE: u8 = 20;
const KIND_ERROR: u8 = 31;

/// Most items one [`Request::RegisterBatch`] may carry. Bounds the work a
/// single message can demand (~64 envelope compositions) while still
/// amortizing the token checks across the cohort.
pub const MAX_BATCH_ITEMS: usize = 64;

/// Typed error codes carried by [`ErrorResponse`] — the wire projection of
/// the service-side failure cases, deliberately coarse so a response never
/// leaks more than the paper allows (notably: *nothing* about whether an
/// envelope would open).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request bytes failed strict decoding.
    Malformed,
    /// The identity token's signature did not verify.
    BadToken,
    /// The token's id-tag does not match the condition's attribute.
    TagMismatch,
    /// The condition is not part of any policy.
    UnknownCondition,
    /// The OCBE proof was rejected (shape mismatch, inconsistent
    /// commitments, unsatisfiable predicate).
    BadProof,
    /// The endpoint does not serve this request kind.
    Unsupported,
    /// Internal failure; the service keeps serving.
    Internal,
}

impl ErrorCode {
    fn code(self) -> u8 {
        match self {
            Self::Malformed => 1,
            Self::BadToken => 2,
            Self::TagMismatch => 3,
            Self::UnknownCondition => 4,
            Self::BadProof => 5,
            Self::Unsupported => 6,
            Self::Internal => 7,
        }
    }

    fn from_code(code: u8) -> Result<Self, WireError> {
        Ok(match code {
            1 => Self::Malformed,
            2 => Self::BadToken,
            3 => Self::TagMismatch,
            4 => Self::UnknownCondition,
            5 => Self::BadProof,
            6 => Self::Unsupported,
            7 => Self::Internal,
            _ => return Err(WireError::InvalidValue),
        })
    }
}

impl core::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Self::Malformed => "malformed request",
            Self::BadToken => "bad token signature",
            Self::TagMismatch => "token/condition tag mismatch",
            Self::UnknownCondition => "unknown condition",
            Self::BadProof => "bad OCBE proof",
            Self::Unsupported => "unsupported request",
            Self::Internal => "internal error",
        };
        write!(f, "{s}")
    }
}

/// Registration request (§V-B): the subscriber's token, the condition it
/// registers for and the OCBE proof message — everything the publisher
/// needs, with no shared state.
pub struct RegisterRequest<G: CyclicGroup> {
    /// The identity token whose commitment the proof opens against.
    pub token: IdentityToken<G>,
    /// The attribute condition being registered for.
    pub cond: AttributeCondition,
    /// Receiver phase-1 OCBE proof message.
    pub proof: ProofMessage<G>,
}

/// Registration response: the OCBE envelope around the fresh CSS. Whether
/// it opens is information only the subscriber ever has.
pub struct RegisterResponse<G: CyclicGroup> {
    /// The composed envelope.
    pub envelope: Envelope<G>,
}

/// Token issuance request (§V-A): the subject asks the issuer to certify
/// one attribute value. The issuer (IdP + IdMgr role) legitimately learns
/// the value — it is the party that commits to it; the *publisher* never
/// sees this message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IssueRequest {
    /// Subject identity at the issuer (e.g. an account name).
    pub subject: String,
    /// Attribute name to certify.
    pub attribute: String,
    /// Attribute value (integer-encoded).
    pub value: u64,
}

/// Token issuance response: the signed token plus the private opening
/// `(x, r)` the subscriber needs for OCBE proofs.
pub struct IssueResponse<G: CyclicGroup> {
    /// The signed identity token.
    pub token: IdentityToken<G>,
    /// The commitment opening, for the subscriber's eyes only.
    pub opening: Opening,
}

/// The deployment parameters and condition list a publisher answers a
/// [`Request::ConditionsQuery`] with — everything a subscriber needs to
/// drive registration without sharing any in-process handle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConditionsInfo {
    /// OCBE attribute bit-width ℓ.
    pub ell: u32,
    /// CSS width κ in bits.
    pub kappa_bits: u32,
    /// The distinct conditions registrable at this publisher.
    pub conditions: Vec<AttributeCondition>,
}

/// A typed error response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorResponse {
    /// What class of failure occurred.
    pub code: ErrorCode,
    /// Human-readable detail (never secret-bearing).
    pub message: String,
}

/// A protocol request (subscriber → publisher or subscriber → issuer).
pub enum Request<G: CyclicGroup> {
    /// Ask the publisher for its deployment parameters and conditions —
    /// all of them, or only those naming one attribute.
    ConditionsQuery {
        /// Restrict to conditions on this attribute (`None` = all).
        attribute: Option<String>,
    },
    /// Oblivious CSS registration.
    Register(RegisterRequest<G>),
    /// A cohort of registrations in one message (at most
    /// [`MAX_BATCH_ITEMS`]): the service authenticates every token with a
    /// single batched Schnorr check and amortizes the per-request
    /// transport, lock and RNG costs across the cohort. Outcomes are per
    /// item.
    RegisterBatch(Vec<RegisterRequest<G>>),
    /// Token issuance.
    Issue(IssueRequest),
    /// Ask the endpoint for its telemetry exposition. Carries nothing;
    /// the reply is aggregates only (the same threat model as the broker's
    /// stats frame: never token material, attribute values or envelopes).
    Stats,
}

/// A protocol response (publisher/issuer → subscriber).
pub enum Response<G: CyclicGroup> {
    /// Reply to [`Request::ConditionsQuery`].
    Conditions(ConditionsInfo),
    /// Reply to [`Request::Register`].
    Register(RegisterResponse<G>),
    /// Reply to [`Request::RegisterBatch`]: one outcome per requested
    /// item, in order — a rejected item carries its typed error without
    /// failing the cohort.
    RegisterBatch(Vec<Result<RegisterResponse<G>, ErrorResponse>>),
    /// Reply to [`Request::Issue`].
    Issue(IssueResponse<G>),
    /// Reply to [`Request::Stats`]: the text exposition of the endpoint's
    /// metrics registry.
    Stats {
        /// `name{label} value` exposition lines.
        text: String,
    },
    /// Typed failure; the connection stays usable.
    Error(ErrorResponse),
}

// ---------------------------------------------------------------------------
// Field codecs
// ---------------------------------------------------------------------------

/// Fixed scalar width on the wire: the canonical 32-byte big-endian
/// encoding of the 256-bit scalar field.
const SCALAR_LEN: usize = 32;

fn put_elem<G: CyclicGroup>(buf: &mut Vec<u8>, group: &G, elem: &G::Elem) -> Result<(), WireError> {
    wire::put_bytes(buf, &group.serialize(elem))
}

fn get_elem<G: CyclicGroup>(buf: &mut &[u8], group: &G) -> Result<G::Elem, WireError> {
    group
        .deserialize(&wire::get_bytes(buf)?)
        .ok_or(WireError::InvalidValue)
}

fn put_scalar(buf: &mut Vec<u8>, s: &Scalar) {
    let bytes = s.to_uint().to_be_bytes();
    debug_assert_eq!(bytes.len(), SCALAR_LEN);
    buf.extend_from_slice(&bytes);
}

/// Strict scalar parse: fixed width, canonical (below the group order).
fn get_scalar<G: CyclicGroup>(buf: &mut &[u8], group: &G) -> Result<Scalar, WireError> {
    let bytes = wire::get_fixed::<SCALAR_LEN>(buf)?;
    let uint = pbcd_math::U256::from_be_bytes(&bytes).ok_or(WireError::InvalidValue)?;
    if uint >= *group.order() {
        return Err(WireError::InvalidValue);
    }
    Ok(group.scalar_ctx().from_uint(&uint))
}

fn put_condition(buf: &mut Vec<u8>, cond: &AttributeCondition) -> Result<(), WireError> {
    wire::put_str(buf, &cond.attribute)?;
    buf.push(op_code(cond.op));
    buf.extend_from_slice(&cond.threshold.to_be_bytes());
    Ok(())
}

fn get_condition(buf: &mut &[u8]) -> Result<AttributeCondition, WireError> {
    let attribute = wire::get_str(buf)?;
    let op = op_from_code(wire::get_u8(buf)?)?;
    let threshold = wire::get_u64(buf)?;
    Ok(AttributeCondition {
        attribute,
        op,
        threshold,
    })
}

fn op_code(op: ComparisonOp) -> u8 {
    match op {
        ComparisonOp::Eq => 0,
        ComparisonOp::Neq => 1,
        ComparisonOp::Gt => 2,
        ComparisonOp::Ge => 3,
        ComparisonOp::Lt => 4,
        ComparisonOp::Le => 5,
    }
}

fn op_from_code(code: u8) -> Result<ComparisonOp, WireError> {
    Ok(match code {
        0 => ComparisonOp::Eq,
        1 => ComparisonOp::Neq,
        2 => ComparisonOp::Gt,
        3 => ComparisonOp::Ge,
        4 => ComparisonOp::Lt,
        5 => ComparisonOp::Le,
        _ => return Err(WireError::InvalidValue),
    })
}

fn put_token<G: CyclicGroup>(
    buf: &mut Vec<u8>,
    group: &G,
    token: &IdentityToken<G>,
) -> Result<(), WireError> {
    wire::put_str(buf, &token.nym)?;
    wire::put_str(buf, &token.id_tag)?;
    put_elem(buf, group, token.commitment.element())?;
    // (R, s) Schnorr signature: nonce-commitment point plus response scalar.
    put_elem(buf, group, &token.signature.big_r)?;
    put_scalar(buf, &token.signature.s);
    Ok(())
}

fn get_token<G: CyclicGroup>(buf: &mut &[u8], group: &G) -> Result<IdentityToken<G>, WireError> {
    let nym = wire::get_str(buf)?;
    let id_tag = wire::get_str(buf)?;
    let commitment = Commitment::from_element(get_elem(buf, group)?);
    let big_r = get_elem(buf, group)?;
    let s = get_scalar(buf, group)?;
    Ok(IdentityToken {
        nym,
        id_tag,
        commitment,
        signature: Signature { big_r, s },
    })
}

fn put_opening(buf: &mut Vec<u8>, opening: &Opening) {
    put_scalar(buf, &opening.value);
    put_scalar(buf, &opening.randomness);
}

fn get_opening<G: CyclicGroup>(buf: &mut &[u8], group: &G) -> Result<Opening, WireError> {
    let value = get_scalar(buf, group)?;
    let randomness = get_scalar(buf, group)?;
    Ok(Opening { value, randomness })
}

fn put_bit_proof<G: CyclicGroup>(
    buf: &mut Vec<u8>,
    group: &G,
    proof: &BitProof<G>,
) -> Result<(), WireError> {
    buf.extend_from_slice(&(proof.commitments.len() as u32).to_be_bytes());
    for c in &proof.commitments {
        put_elem(buf, group, c.element())?;
    }
    Ok(())
}

fn get_bit_proof<G: CyclicGroup>(buf: &mut &[u8], group: &G) -> Result<BitProof<G>, WireError> {
    let count = wire::get_u32(buf)? as usize;
    // Every commitment costs ≥ 4 bytes (its length prefix) on the wire.
    if count > buf.len() / 4 + 1 {
        return Err(WireError::Truncated);
    }
    let mut commitments = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        commitments.push(Commitment::from_element(get_elem(buf, group)?));
    }
    Ok(BitProof { commitments })
}

fn put_proof<G: CyclicGroup>(
    buf: &mut Vec<u8>,
    group: &G,
    proof: &ProofMessage<G>,
) -> Result<(), WireError> {
    match proof {
        ProofMessage::Empty => buf.push(0),
        ProofMessage::Bits(p) => {
            buf.push(1);
            put_bit_proof(buf, group, p)?;
        }
        ProofMessage::Dual { ge, le } => {
            buf.push(2);
            buf.push(presence_flags(ge.is_some(), le.is_some()));
            if let Some(p) = ge {
                put_bit_proof(buf, group, p)?;
            }
            if let Some(p) = le {
                put_bit_proof(buf, group, p)?;
            }
        }
    }
    Ok(())
}

fn get_proof<G: CyclicGroup>(buf: &mut &[u8], group: &G) -> Result<ProofMessage<G>, WireError> {
    match wire::get_u8(buf)? {
        0 => Ok(ProofMessage::Empty),
        1 => Ok(ProofMessage::Bits(get_bit_proof(buf, group)?)),
        2 => {
            let (has_ge, has_le) = parse_presence_flags(wire::get_u8(buf)?)?;
            let ge = if has_ge {
                Some(get_bit_proof(buf, group)?)
            } else {
                None
            };
            let le = if has_le {
                Some(get_bit_proof(buf, group)?)
            } else {
                None
            };
            Ok(ProofMessage::Dual { ge, le })
        }
        _ => Err(WireError::InvalidValue),
    }
}

fn presence_flags(ge: bool, le: bool) -> u8 {
    (ge as u8) | ((le as u8) << 1)
}

fn parse_presence_flags(flags: u8) -> Result<(bool, bool), WireError> {
    if flags > 3 {
        return Err(WireError::InvalidValue);
    }
    Ok((flags & 1 != 0, flags & 2 != 0))
}

fn put_bitwise_envelope<G: CyclicGroup>(
    buf: &mut Vec<u8>,
    group: &G,
    env: &BitwiseEnvelope<G>,
) -> Result<(), WireError> {
    put_elem(buf, group, &env.eta)?;
    buf.extend_from_slice(&(env.shares.len() as u32).to_be_bytes());
    for [s0, s1] in &env.shares {
        buf.extend_from_slice(s0);
        buf.extend_from_slice(s1);
    }
    wire::put_bytes(buf, &env.ciphertext)
}

fn get_bitwise_envelope<G: CyclicGroup>(
    buf: &mut &[u8],
    group: &G,
) -> Result<BitwiseEnvelope<G>, WireError> {
    let eta = get_elem(buf, group)?;
    let count = wire::get_u32(buf)? as usize;
    // Each share is exactly 64 bytes on the wire.
    if count > buf.len() / 64 + 1 {
        return Err(WireError::Truncated);
    }
    let mut shares = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let s0 = wire::get_fixed::<32>(buf)?;
        let s1 = wire::get_fixed::<32>(buf)?;
        shares.push([s0, s1]);
    }
    let ciphertext = wire::get_bytes(buf)?;
    Ok(BitwiseEnvelope {
        eta,
        shares,
        ciphertext,
    })
}

fn put_envelope<G: CyclicGroup>(
    buf: &mut Vec<u8>,
    group: &G,
    env: &Envelope<G>,
) -> Result<(), WireError> {
    match env {
        Envelope::Eq(e) => {
            buf.push(0);
            put_elem(buf, group, &e.eta)?;
            wire::put_bytes(buf, &e.ciphertext)?;
        }
        Envelope::Ge(e) => {
            buf.push(1);
            put_bitwise_envelope(buf, group, e)?;
        }
        Envelope::Le(e) => {
            buf.push(2);
            put_bitwise_envelope(buf, group, e)?;
        }
        Envelope::Dual { ge, le } => {
            buf.push(3);
            buf.push(presence_flags(ge.is_some(), le.is_some()));
            if let Some(e) = ge {
                put_bitwise_envelope(buf, group, e)?;
            }
            if let Some(e) = le {
                put_bitwise_envelope(buf, group, e)?;
            }
        }
    }
    Ok(())
}

fn get_envelope<G: CyclicGroup>(buf: &mut &[u8], group: &G) -> Result<Envelope<G>, WireError> {
    match wire::get_u8(buf)? {
        0 => {
            let eta = get_elem(buf, group)?;
            let ciphertext = wire::get_bytes(buf)?;
            Ok(Envelope::Eq(EqEnvelope { eta, ciphertext }))
        }
        1 => Ok(Envelope::Ge(get_bitwise_envelope(buf, group)?)),
        2 => Ok(Envelope::Le(get_bitwise_envelope(buf, group)?)),
        3 => {
            let (has_ge, has_le) = parse_presence_flags(wire::get_u8(buf)?)?;
            let ge = if has_ge {
                Some(get_bitwise_envelope(buf, group)?)
            } else {
                None
            };
            let le = if has_le {
                Some(get_bitwise_envelope(buf, group)?)
            } else {
                None
            };
            Ok(Envelope::Dual { ge, le })
        }
        _ => Err(WireError::InvalidValue),
    }
}

fn put_register_item<G: CyclicGroup>(
    buf: &mut Vec<u8>,
    group: &G,
    item: &RegisterRequest<G>,
) -> Result<(), WireError> {
    put_token(buf, group, &item.token)?;
    put_condition(buf, &item.cond)?;
    put_proof(buf, group, &item.proof)
}

fn get_register_item<G: CyclicGroup>(
    buf: &mut &[u8],
    group: &G,
) -> Result<RegisterRequest<G>, WireError> {
    let token = get_token(buf, group)?;
    let cond = get_condition(buf)?;
    let proof = get_proof(buf, group)?;
    Ok(RegisterRequest { token, cond, proof })
}

/// Strict batch count: `u16`, at most [`MAX_BATCH_ITEMS`].
fn get_batch_count(buf: &mut &[u8]) -> Result<usize, WireError> {
    let count = wire::get_u16(buf)? as usize;
    if count > MAX_BATCH_ITEMS {
        return Err(WireError::FieldTooLong(count));
    }
    Ok(count)
}

fn put_batch_count(buf: &mut Vec<u8>, count: usize) -> Result<(), WireError> {
    if count > MAX_BATCH_ITEMS {
        return Err(WireError::FieldTooLong(count));
    }
    buf.extend_from_slice(&(count as u16).to_be_bytes());
    Ok(())
}

fn put_error(buf: &mut Vec<u8>, e: &ErrorResponse) -> Result<(), WireError> {
    buf.push(e.code.code());
    wire::put_str(buf, &e.message)
}

fn get_error(buf: &mut &[u8]) -> Result<ErrorResponse, WireError> {
    let code = ErrorCode::from_code(wire::get_u8(buf)?)?;
    let message = wire::get_str(buf)?;
    Ok(ErrorResponse { code, message })
}

/// One batch-response item: tag byte `0` = envelope, `1` = typed per-item
/// error.
fn put_batch_result<G: CyclicGroup>(
    buf: &mut Vec<u8>,
    group: &G,
    result: &Result<RegisterResponse<G>, ErrorResponse>,
) -> Result<(), WireError> {
    match result {
        Ok(r) => {
            buf.push(0);
            put_envelope(buf, group, &r.envelope)
        }
        Err(e) => {
            buf.push(1);
            put_error(buf, e)
        }
    }
}

fn get_batch_result<G: CyclicGroup>(
    buf: &mut &[u8],
    group: &G,
) -> Result<Result<RegisterResponse<G>, ErrorResponse>, WireError> {
    match wire::get_u8(buf)? {
        0 => Ok(Ok(RegisterResponse {
            envelope: get_envelope(buf, group)?,
        })),
        1 => Ok(Err(get_error(buf)?)),
        _ => Err(WireError::InvalidValue),
    }
}

// ---------------------------------------------------------------------------
// Message codecs
// ---------------------------------------------------------------------------

fn header(kind: u8) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(PROTO_MAGIC);
    buf.push(PROTO_VERSION);
    buf.push(kind);
    buf
}

/// Strips and validates the message header, returning the kind byte and
/// the payload slice.
fn open_header(data: &[u8]) -> Result<(u8, &[u8]), WireError> {
    if data.len() > MAX_MESSAGE_LEN {
        return Err(WireError::FieldTooLong(data.len()));
    }
    let mut buf = data;
    let [m0, m1, version, kind] = wire::get_fixed::<4>(&mut buf)?;
    if [m0, m1] != *PROTO_MAGIC || version != PROTO_VERSION {
        return Err(WireError::BadHeader);
    }
    Ok((kind, buf))
}

fn finish(buf: &[u8]) -> Result<(), WireError> {
    if buf.is_empty() {
        Ok(())
    } else {
        Err(WireError::BadHeader)
    }
}

impl<G: CyclicGroup> Request<G> {
    /// Serializes the request. Fails — instead of panicking — on oversized
    /// fields.
    pub fn encode(&self, group: &G) -> Result<Vec<u8>, WireError> {
        let mut buf;
        match self {
            Self::ConditionsQuery { attribute } => {
                buf = header(KIND_CONDITIONS_QUERY);
                match attribute {
                    Some(a) => {
                        buf.push(1);
                        wire::put_str(&mut buf, a)?;
                    }
                    None => buf.push(0),
                }
            }
            Self::Register(r) => {
                buf = header(KIND_REGISTER_REQUEST);
                put_register_item(&mut buf, group, r)?;
            }
            Self::RegisterBatch(items) => {
                buf = header(KIND_REGISTER_BATCH_REQUEST);
                put_batch_count(&mut buf, items.len())?;
                for item in items {
                    put_register_item(&mut buf, group, item)?;
                }
            }
            Self::Issue(r) => {
                buf = header(KIND_ISSUE_REQUEST);
                wire::put_str(&mut buf, &r.subject)?;
                wire::put_str(&mut buf, &r.attribute)?;
                buf.extend_from_slice(&r.value.to_be_bytes());
            }
            Self::Stats => {
                buf = header(KIND_STATS_QUERY);
            }
        }
        Ok(buf)
    }

    /// Strict, total parse of a request. Any deviation — bad magic or
    /// version, unknown kind, truncation, trailing bytes, non-canonical
    /// values — is a [`WireError`], never a panic.
    pub fn decode(group: &G, data: &[u8]) -> Result<Self, WireError> {
        let (kind, payload) = open_header(data)?;
        let mut buf = payload;
        let req = match kind {
            KIND_CONDITIONS_QUERY => {
                let attribute = match wire::get_u8(&mut buf)? {
                    0 => None,
                    1 => Some(wire::get_str(&mut buf)?),
                    _ => return Err(WireError::InvalidValue),
                };
                Self::ConditionsQuery { attribute }
            }
            KIND_REGISTER_REQUEST => Self::Register(get_register_item(&mut buf, group)?),
            KIND_REGISTER_BATCH_REQUEST => {
                let count = get_batch_count(&mut buf)?;
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    items.push(get_register_item(&mut buf, group)?);
                }
                Self::RegisterBatch(items)
            }
            KIND_ISSUE_REQUEST => {
                let subject = wire::get_str(&mut buf)?;
                let attribute = wire::get_str(&mut buf)?;
                let value = wire::get_u64(&mut buf)?;
                Self::Issue(IssueRequest {
                    subject,
                    attribute,
                    value,
                })
            }
            KIND_STATS_QUERY => Self::Stats,
            _ => return Err(WireError::BadHeader),
        };
        finish(buf)?;
        Ok(req)
    }
}

impl<G: CyclicGroup> Response<G> {
    /// Serializes the response. Fails — instead of panicking — on
    /// oversized fields.
    pub fn encode(&self, group: &G) -> Result<Vec<u8>, WireError> {
        let mut buf;
        match self {
            Self::Conditions(info) => {
                buf = header(KIND_CONDITIONS);
                buf.extend_from_slice(&info.ell.to_be_bytes());
                buf.extend_from_slice(&info.kappa_bits.to_be_bytes());
                buf.extend_from_slice(&(info.conditions.len() as u32).to_be_bytes());
                for c in &info.conditions {
                    put_condition(&mut buf, c)?;
                }
            }
            Self::Register(r) => {
                buf = header(KIND_REGISTER_RESPONSE);
                put_envelope(&mut buf, group, &r.envelope)?;
            }
            Self::RegisterBatch(results) => {
                buf = header(KIND_REGISTER_BATCH_RESPONSE);
                put_batch_count(&mut buf, results.len())?;
                for result in results {
                    put_batch_result(&mut buf, group, result)?;
                }
            }
            Self::Issue(r) => {
                buf = header(KIND_ISSUE_RESPONSE);
                put_token(&mut buf, group, &r.token)?;
                put_opening(&mut buf, &r.opening);
            }
            Self::Stats { text } => {
                buf = header(KIND_STATS);
                wire::put_str(&mut buf, text)?;
            }
            Self::Error(e) => {
                buf = header(KIND_ERROR);
                put_error(&mut buf, e)?;
            }
        }
        Ok(buf)
    }

    /// Strict, total parse of a response (same contract as
    /// [`Request::decode`]).
    pub fn decode(group: &G, data: &[u8]) -> Result<Self, WireError> {
        let (kind, payload) = open_header(data)?;
        let mut buf = payload;
        let resp = match kind {
            KIND_CONDITIONS => {
                let ell = wire::get_u32(&mut buf)?;
                let kappa_bits = wire::get_u32(&mut buf)?;
                let count = wire::get_u32(&mut buf)? as usize;
                // Each condition costs ≥ 13 bytes on the wire.
                if count > buf.len() / 13 + 1 {
                    return Err(WireError::Truncated);
                }
                let mut conditions = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    conditions.push(get_condition(&mut buf)?);
                }
                Self::Conditions(ConditionsInfo {
                    ell,
                    kappa_bits,
                    conditions,
                })
            }
            KIND_REGISTER_RESPONSE => Self::Register(RegisterResponse {
                envelope: get_envelope(&mut buf, group)?,
            }),
            KIND_REGISTER_BATCH_RESPONSE => {
                let count = get_batch_count(&mut buf)?;
                let mut results = Vec::with_capacity(count);
                for _ in 0..count {
                    results.push(get_batch_result(&mut buf, group)?);
                }
                Self::RegisterBatch(results)
            }
            KIND_ISSUE_RESPONSE => {
                let token = get_token(&mut buf, group)?;
                let opening = get_opening(&mut buf, group)?;
                Self::Issue(IssueResponse { token, opening })
            }
            KIND_STATS => Self::Stats {
                text: wire::get_str(&mut buf)?,
            },
            KIND_ERROR => Self::Error(get_error(&mut buf)?),
            _ => return Err(WireError::BadHeader),
        };
        finish(buf)?;
        Ok(resp)
    }
}

/// True iff `data` carries a well-formed header with the error-response
/// kind — a cheap classifier for stats and tests that does not need the
/// group to decode the payload.
pub fn is_error_response(data: &[u8]) -> bool {
    matches!(open_header(data), Ok((KIND_ERROR, _)))
}

/// True iff `data` carries a well-formed header with the
/// registration-request kind — single or batch (payload not inspected).
pub fn is_register_request(data: &[u8]) -> bool {
    matches!(
        open_header(data),
        Ok((KIND_REGISTER_REQUEST | KIND_REGISTER_BATCH_REQUEST, _))
    )
}

/// True iff `data` is a well-formed **full** conditions query
/// (`attribute: None`) — byte-exact, so the network layer can answer the
/// read-mostly query from a pre-encoded snapshot without decoding or
/// consulting the publisher service. Attribute-filtered queries return
/// `false` and take the normal service path.
pub fn is_full_conditions_query(data: &[u8]) -> bool {
    matches!(open_header(data), Ok((KIND_CONDITIONS_QUERY, payload)) if payload == [0])
}

/// True iff `data` is a well-formed stats query (empty payload) — a cheap
/// classifier so services can answer from their registry before any
/// group-dependent decode.
pub fn is_stats_query(data: &[u8]) -> bool {
    matches!(open_header(data), Ok((KIND_STATS_QUERY, payload)) if payload.is_empty())
}

/// Short label for a request's kind byte — the `kind` label on the
/// services' per-request-kind latency histograms. Malformed headers (which
/// still cost a decode attempt and an error response) classify as
/// `"malformed"`.
pub fn request_kind_label(data: &[u8]) -> &'static str {
    match open_header(data) {
        Ok((KIND_CONDITIONS_QUERY, _)) => "conditions",
        Ok((KIND_REGISTER_REQUEST, _)) => "register",
        Ok((KIND_REGISTER_BATCH_REQUEST, _)) => "register_batch",
        Ok((KIND_ISSUE_REQUEST, _)) => "issue",
        Ok((KIND_STATS_QUERY, _)) => "stats",
        _ => "malformed",
    }
}

impl<G: CyclicGroup> core::fmt::Debug for Request<G> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::ConditionsQuery { attribute } => {
                write!(f, "ConditionsQuery(attribute={attribute:?})")
            }
            Self::Register(r) => write!(
                f,
                "Register(token={:?}, cond={}, proof={:?})",
                r.token, r.cond, r.proof
            ),
            Self::RegisterBatch(items) => write!(f, "RegisterBatch({} items)", items.len()),
            Self::Issue(r) => write!(f, "Issue({}/{})", r.subject, r.attribute),
            Self::Stats => write!(f, "Stats"),
        }
    }
}

impl<G: CyclicGroup> core::fmt::Debug for Response<G> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Conditions(info) => write!(
                f,
                "Conditions(ell={}, kappa={}, {} conditions)",
                info.ell,
                info.kappa_bits,
                info.conditions.len()
            ),
            Self::Register(r) => write!(f, "Register({:?})", r.envelope),
            Self::RegisterBatch(results) => write!(
                f,
                "RegisterBatch({} ok / {} items)",
                results.iter().filter(|r| r.is_ok()).count(),
                results.len()
            ),
            Self::Issue(r) => write!(f, "Issue({:?})", r.token),
            Self::Stats { text } => write!(f, "Stats({} bytes)", text.len()),
            Self::Error(e) => write!(f, "Error({:?}: {})", e.code, e.message),
        }
    }
}
