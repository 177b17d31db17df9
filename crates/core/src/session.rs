//! Session-typed subscriber-side registration: the receiver half of the
//! [`crate::proto`] protocol, with the state machine enforced by the type
//! system.
//!
//! [`RegistrationSession::start`] consumes the session and yields the
//! encoded request plus a [`PendingRegistration`]; only that pending value
//! can complete the exchange, and [`PendingRegistration::complete`]
//! consumes it. Two whole classes of misuse are therefore compile-time
//! errors: completing a registration that was never prepared, and reusing
//! one registration's [`pbcd_ocbe::ProofSecrets`] for another response.
//! [`BatchRegistrationSession`] is the same machine over a cohort, one
//! frame for every condition; it is what [`register_all_via`] sends.
//!
//! The session owns its own [`OcbeSystem`], rebuilt from the *public*
//! deployment parameters (group, ℓ) a publisher reports in
//! [`crate::proto::ConditionsInfo`] — no handle is ever shared with the
//! publisher, so the same code drives in-process byte exchanges and real
//! sockets ([`register_all_via`]).

use crate::error::PbcdError;
use crate::proto::{
    ConditionsInfo, ErrorResponse, IssueRequest, RegisterRequest, RegisterResponse, Request,
    Response, MAX_BATCH_ITEMS,
};
use crate::subscriber::Subscriber;
use pbcd_gkm::BroadcastGkm;
use pbcd_group::CyclicGroup;
use pbcd_net::direct::RegistrationClient;
use pbcd_ocbe::{OcbeSystem, ProofSecrets};
use pbcd_policy::AttributeCondition;
use rand::RngCore;
use std::net::ToSocketAddrs;

/// A peer's typed error response as this side's error.
fn peer_error(e: ErrorResponse) -> PbcdError {
    PbcdError::ErrorResponse {
        code: e.code,
        message: e.message,
    }
}

/// Receiver phase 1 for one condition: the matching token and a fresh OCBE
/// proof as the self-contained item both request kinds carry, plus the
/// secrets that open the reply.
fn prepare_item<G: CyclicGroup, K: BroadcastGkm, R: RngCore + ?Sized>(
    subscriber: &Subscriber<G, K>,
    ocbe: &OcbeSystem<G>,
    cond: &AttributeCondition,
    rng: &mut R,
) -> Result<(RegisterRequest<G>, ProofSecrets), PbcdError> {
    let token = subscriber
        .token_for(&cond.attribute)
        .cloned()
        .ok_or_else(|| PbcdError::MissingToken(cond.attribute.clone()))?;
    let (proof, secrets) = subscriber.prepare_registration(ocbe, cond, rng)?;
    let item = RegisterRequest {
        token,
        cond: cond.clone(),
        proof,
    };
    Ok((item, secrets))
}

/// Receiver phase 2 for one item: tries to open the envelope, storing the
/// CSS on success, or surfaces the publisher's typed error for it.
fn open_item<G: CyclicGroup, K: BroadcastGkm>(
    subscriber: &mut Subscriber<G, K>,
    ocbe: &OcbeSystem<G>,
    cond: &AttributeCondition,
    secrets: &ProofSecrets,
    outcome: Result<RegisterResponse<G>, ErrorResponse>,
) -> Result<bool, PbcdError> {
    let response = outcome.map_err(peer_error)?;
    Ok(subscriber.complete_registration(ocbe, cond, &response.envelope, secrets))
}

/// A not-yet-started registration for one subscriber, bound to the
/// publisher's public OCBE parameters.
pub struct RegistrationSession<'s, G: CyclicGroup, K: BroadcastGkm> {
    subscriber: &'s mut Subscriber<G, K>,
    ocbe: OcbeSystem<G>,
}

impl<'s, G: CyclicGroup, K: BroadcastGkm> RegistrationSession<'s, G, K> {
    /// Opens a session from the publisher's published parameters. `ell`
    /// must be in `1..=63` (validate untrusted input with
    /// [`valid_ell`] first — this constructor asserts).
    pub fn new(subscriber: &'s mut Subscriber<G, K>, group: G, ell: u32) -> Self {
        Self {
            subscriber,
            ocbe: OcbeSystem::new(group, ell),
        }
    }

    /// Phase 1: builds the OCBE proof for `cond` and returns the encoded
    /// [`RegisterRequest`] plus the pending half of the exchange. Errors if
    /// the subscriber holds no token for the condition's attribute.
    pub fn start<R: RngCore + ?Sized>(
        self,
        cond: &AttributeCondition,
        rng: &mut R,
    ) -> Result<(Vec<u8>, PendingRegistration<'s, G, K>), PbcdError> {
        let (item, secrets) = prepare_item(self.subscriber, &self.ocbe, cond, rng)?;
        let request = Request::Register(item).encode(self.ocbe.group())?;
        Ok((
            request,
            PendingRegistration {
                subscriber: self.subscriber,
                ocbe: self.ocbe,
                cond: cond.clone(),
                secrets,
            },
        ))
    }
}

/// An in-flight registration: the only value that can accept the
/// publisher's response, and only once.
pub struct PendingRegistration<'s, G: CyclicGroup, K: BroadcastGkm> {
    subscriber: &'s mut Subscriber<G, K>,
    ocbe: OcbeSystem<G>,
    cond: AttributeCondition,
    secrets: ProofSecrets,
}

impl<G: CyclicGroup, K: BroadcastGkm> PendingRegistration<'_, G, K> {
    /// The condition this exchange registers for.
    pub fn condition(&self) -> &AttributeCondition {
        &self.cond
    }

    /// Phase 2: decodes the response and tries to open the envelope,
    /// storing the CSS on success. Returns whether the CSS was extracted —
    /// information only the subscriber ever has. Consumes `self`, so the
    /// proof secrets can never be replayed against a second response.
    pub fn complete(self, response: &[u8]) -> Result<bool, PbcdError> {
        let outcome = match Response::decode(self.ocbe.group(), response)? {
            Response::Register(r) => Ok(r),
            Response::Error(e) => Err(e),
            _ => return Err(PbcdError::UnexpectedResponse),
        };
        open_item(
            self.subscriber,
            &self.ocbe,
            &self.cond,
            &self.secrets,
            outcome,
        )
    }
}

/// A not-yet-started *batch* registration: one request frame carrying a
/// [`RegisterRequest`] per condition, so the publisher can verify every
/// enclosed token in a single batched Schnorr check and the subscriber
/// pays one socket round-trip for the whole cohort.
pub struct BatchRegistrationSession<'s, G: CyclicGroup, K: BroadcastGkm> {
    subscriber: &'s mut Subscriber<G, K>,
    ocbe: OcbeSystem<G>,
}

impl<'s, G: CyclicGroup, K: BroadcastGkm> BatchRegistrationSession<'s, G, K> {
    /// Opens a batch session from the publisher's published parameters
    /// (same contract as [`RegistrationSession::new`]).
    pub fn new(subscriber: &'s mut Subscriber<G, K>, group: G, ell: u32) -> Self {
        Self {
            subscriber,
            ocbe: OcbeSystem::new(group, ell),
        }
    }

    /// Phase 1: builds one OCBE proof per condition and returns the encoded
    /// [`Request::RegisterBatch`] plus the pending half. Errors if any
    /// condition lacks a matching token, or if `conds` is empty or exceeds
    /// [`MAX_BATCH_ITEMS`].
    pub fn start<R: RngCore + ?Sized>(
        self,
        conds: &[AttributeCondition],
        rng: &mut R,
    ) -> Result<(Vec<u8>, PendingBatchRegistration<'s, G, K>), PbcdError> {
        if conds.is_empty() || conds.len() > MAX_BATCH_ITEMS {
            return Err(PbcdError::Wire(pbcd_docs::WireError::InvalidValue));
        }
        let mut items = Vec::with_capacity(conds.len());
        let mut pending = Vec::with_capacity(conds.len());
        for cond in conds {
            let (item, secrets) = prepare_item(self.subscriber, &self.ocbe, cond, rng)?;
            items.push(item);
            pending.push((cond.clone(), secrets));
        }
        let request = Request::RegisterBatch(items).encode(self.ocbe.group())?;
        Ok((
            request,
            PendingBatchRegistration {
                subscriber: self.subscriber,
                ocbe: self.ocbe,
                pending,
            },
        ))
    }
}

/// An in-flight batch registration; completes against exactly one
/// [`Response::RegisterBatch`] of matching arity.
pub struct PendingBatchRegistration<'s, G: CyclicGroup, K: BroadcastGkm> {
    subscriber: &'s mut Subscriber<G, K>,
    ocbe: OcbeSystem<G>,
    pending: Vec<(AttributeCondition, ProofSecrets)>,
}

impl<G: CyclicGroup, K: BroadcastGkm> PendingBatchRegistration<'_, G, K> {
    /// Phase 2: per-item envelope opening, in request order. `Ok(true)`
    /// means the CSS was extracted (known only to the subscriber);
    /// `Err(..)` carries the publisher's typed per-item error. A
    /// whole-response error or an arity mismatch fails the call itself.
    pub fn complete(self, response: &[u8]) -> Result<Vec<Result<bool, PbcdError>>, PbcdError> {
        let Self {
            subscriber,
            ocbe,
            pending,
        } = self;
        match Response::decode(ocbe.group(), response)? {
            Response::RegisterBatch(results) => {
                if results.len() != pending.len() {
                    return Err(PbcdError::UnexpectedResponse);
                }
                Ok(pending
                    .into_iter()
                    .zip(results)
                    .map(|((cond, secrets), outcome)| {
                        open_item(subscriber, &ocbe, &cond, &secrets, outcome)
                    })
                    .collect())
            }
            Response::Error(e) => Err(peer_error(e)),
            _ => Err(PbcdError::UnexpectedResponse),
        }
    }
}

/// Whether a peer-reported ℓ is a legal OCBE width (untrusted inputs must
/// pass this before reaching [`RegistrationSession::new`]).
pub fn valid_ell(ell: u32) -> bool {
    (1..=63).contains(&ell)
}

/// Queries a publisher endpoint for its deployment parameters and
/// registrable conditions.
pub fn fetch_conditions<G: CyclicGroup>(
    group: &G,
    client: &mut RegistrationClient,
) -> Result<ConditionsInfo, PbcdError> {
    let request = Request::<G>::ConditionsQuery { attribute: None }.encode(group)?;
    let info = match Response::decode(group, &client.call(&request)?)? {
        Response::Conditions(info) => info,
        Response::Error(e) => return Err(peer_error(e)),
        _ => return Err(PbcdError::UnexpectedResponse),
    };
    if !valid_ell(info.ell) {
        return Err(PbcdError::Wire(pbcd_docs::WireError::InvalidValue));
    }
    Ok(info)
}

/// Runs the full oblivious registration against a publisher's TCP
/// registration endpoint: queries the conditions, then registers for
/// **every** condition whose attribute matches a held token (the paper's
/// inference-resistant behaviour). The cohort ships as
/// [`Request::RegisterBatch`] frames of at most [`MAX_BATCH_ITEMS`]
/// conditions: one round-trip and one batched token-signature check per
/// frame. The publisher's typed error for any item fails the call. Returns
/// how many CSSs were extracted — a count the publisher never learns.
pub fn register_all_via<G: CyclicGroup, K: BroadcastGkm, R: RngCore + ?Sized>(
    subscriber: &mut Subscriber<G, K>,
    group: &G,
    addr: impl ToSocketAddrs,
    rng: &mut R,
) -> Result<usize, PbcdError> {
    let mut client = RegistrationClient::connect(addr)?;
    let info = fetch_conditions(group, &mut client)?;
    let eligible: Vec<AttributeCondition> = info
        .conditions
        .into_iter()
        .filter(|c| subscriber.token_for(&c.attribute).is_some())
        .collect();
    let mut extracted = 0;
    for chunk in eligible.chunks(MAX_BATCH_ITEMS) {
        let session = BatchRegistrationSession::new(subscriber, group.clone(), info.ell);
        let (request, pending) = session.start(chunk, rng)?;
        let response = client.call(&request)?;
        for opened in pending.complete(&response)? {
            if opened? {
                extracted += 1;
            }
        }
    }
    client.close()?;
    Ok(extracted)
}

/// Requests a signed identity token for every attribute the subscriber
/// holds from an issuer endpoint ([`crate::service::IssuerService`] behind
/// a [`pbcd_net::direct::RegistrationServer`]) and installs them. Returns
/// the number of tokens installed.
pub fn fetch_tokens_via<G: CyclicGroup, K: BroadcastGkm>(
    subscriber: &mut Subscriber<G, K>,
    group: &G,
    addr: impl ToSocketAddrs,
    subject: &str,
) -> Result<usize, PbcdError> {
    let mut client = RegistrationClient::connect(addr)?;
    let attrs: Vec<(String, u64)> = subscriber
        .attributes()
        .iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect();
    let mut installed = 0;
    for (attribute, value) in attrs {
        let request = Request::<G>::Issue(IssueRequest {
            subject: subject.to_string(),
            attribute,
            value,
        })
        .encode(group)?;
        let response = client.call(&request)?;
        match Response::decode(group, &response)? {
            Response::Issue(r) => {
                subscriber.install_token(r.token, r.opening)?;
                installed += 1;
            }
            Response::Error(e) => return Err(peer_error(e)),
            _ => return Err(PbcdError::UnexpectedResponse),
        }
    }
    client.close()?;
    Ok(installed)
}
