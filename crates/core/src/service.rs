//! Publisher- and issuer-side protocol services: single
//! bytes-in/bytes-out entry points over the [`crate::proto`] messages.
//!
//! A service owns its actor and a deterministic RNG, and exposes exactly
//! one method — `handle(&self, request_bytes) -> response_bytes` — that is
//! **total**: malformed, hostile or out-of-protocol input yields an
//! encoded [`proto::ErrorResponse`], never a panic, and the service keeps
//! serving. It is also callable from any number of threads at once: each
//! service guards its own state, so the transport holds no lock around
//! it. Because the surface is pure bytes it is trivially rate-limitable,
//! fuzzable, and transportable: pass `handle` as the handler of a
//! [`pbcd_net::direct::RegistrationServer`] and the whole registration
//! flow crosses real sockets with no shared `OcbeSystem` references
//! between the endpoints.

use crate::error::PbcdError;
use crate::idmgr::IdentityManager;
use crate::idp::IdentityProvider;
use crate::proto::{
    self, ConditionsInfo, ErrorCode, ErrorResponse, IssueResponse, RegisterResponse, Request,
    Response,
};
use crate::publisher::{Publisher, Registrar};
use pbcd_gkm::{AcvBgkm, BroadcastGkm};
use pbcd_group::CyclicGroup;
use pbcd_ocbe::Envelope;
use pbcd_telemetry::{Counter, Gauge, Histogram, Registry, Snapshot};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Running counters a service keeps about its traffic — a fixed-shape
/// view over the service's metrics registry (every field reads a registry
/// counter; [`PublisherService::metrics`] exposes the full set, including
/// per-request-kind latency histograms and OCBE envelope counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests handled (including rejected ones). Does **not** include
    /// full conditions queries answered from the pre-encoded bytes — see
    /// [`Self::conditions_cache_hits`].
    pub requests: u64,
    /// Registrations that produced an envelope, counted per item: a
    /// cohort of *n* accepted items is *n* registrations.
    pub registrations: u64,
    /// Requests answered with a typed error response, plus cohort items
    /// rejected inside an otherwise successful batch response.
    pub errors: u64,
    /// Full conditions queries answered from the pre-encoded bytes, i.e.
    /// without touching the publisher at all.
    pub conditions_cache_hits: u64,
}

/// Longest error-detail string shipped back to a peer; truncation keeps
/// the error path infallible (a bounded message can always encode).
const MAX_ERROR_DETAIL: usize = 256;

/// A typed error with its detail cut to [`MAX_ERROR_DETAIL`] bytes (on a
/// character boundary).
fn error_response(code: ErrorCode, message: &str) -> ErrorResponse {
    let mut end = message.len().min(MAX_ERROR_DETAIL);
    while !message.is_char_boundary(end) {
        end -= 1;
    }
    ErrorResponse {
        code,
        message: message[..end].to_string(),
    }
}

fn error_bytes<G: CyclicGroup>(group: &G, code: ErrorCode, message: &str) -> Vec<u8> {
    Response::<G>::Error(error_response(code, message))
        .encode(group)
        .expect("bounded error responses always encode")
}

/// A failure as a value — same code mapping and detail truncation as
/// [`error_bytes`] — for the batch codec to embed per item.
fn error_item(err: &PbcdError) -> ErrorResponse {
    error_response(code_for(err), &err.to_string())
}

fn code_for(err: &PbcdError) -> ErrorCode {
    match err {
        PbcdError::BadTokenSignature | PbcdError::BadAssertionSignature => ErrorCode::BadToken,
        PbcdError::TagMismatch { .. } => ErrorCode::TagMismatch,
        PbcdError::UnknownCondition => ErrorCode::UnknownCondition,
        PbcdError::Ocbe(_) => ErrorCode::BadProof,
        _ => ErrorCode::Internal,
    }
}

/// Pre-resolved registry handles for the service-plane metrics.
struct ServiceTelemetry {
    registry: Arc<Registry>,
    requests: Counter,
    registrations: Counter,
    errors: Counter,
    snapshot_hits: Gauge,
    env_eq: Counter,
    env_ge: Counter,
    env_le: Counter,
    env_dual: Counter,
    handle_conditions_ns: Histogram,
    handle_register_ns: Histogram,
    handle_register_batch_ns: Histogram,
    handle_issue_ns: Histogram,
    handle_stats_ns: Histogram,
    handle_malformed_ns: Histogram,
    group_exp: Gauge,
    group_exp2: Gauge,
}

impl ServiceTelemetry {
    /// Registers the full service metric set eagerly, so even a fresh
    /// service's exposition shows every name at zero.
    fn new() -> ServiceTelemetry {
        let registry = Arc::new(Registry::new());
        ServiceTelemetry {
            requests: registry.counter("service_requests_total"),
            registrations: registry.counter("service_registrations_total"),
            errors: registry.counter("service_errors_total"),
            snapshot_hits: registry.gauge("service_conditions_cache_hits"),
            env_eq: registry.counter("ocbe_envelopes_total{kind=\"eq\"}"),
            env_ge: registry.counter("ocbe_envelopes_total{kind=\"ge\"}"),
            env_le: registry.counter("ocbe_envelopes_total{kind=\"le\"}"),
            env_dual: registry.counter("ocbe_envelopes_total{kind=\"dual\"}"),
            handle_conditions_ns: registry.histogram("service_handle_ns{kind=\"conditions\"}"),
            handle_register_ns: registry.histogram("service_handle_ns{kind=\"register\"}"),
            handle_register_batch_ns: registry
                .histogram("service_handle_ns{kind=\"register_batch\"}"),
            handle_issue_ns: registry.histogram("service_handle_ns{kind=\"issue\"}"),
            handle_stats_ns: registry.histogram("service_handle_ns{kind=\"stats\"}"),
            handle_malformed_ns: registry.histogram("service_handle_ns{kind=\"malformed\"}"),
            group_exp: registry.gauge("group_exp_total"),
            group_exp2: registry.gauge("group_exp2_total"),
            registry,
        }
    }

    /// The latency histogram for a request-kind label (from
    /// [`proto::request_kind_label`]).
    fn histogram_for(&self, kind: &str) -> &Histogram {
        match kind {
            "conditions" => &self.handle_conditions_ns,
            "register" => &self.handle_register_ns,
            "register_batch" => &self.handle_register_batch_ns,
            "issue" => &self.handle_issue_ns,
            "stats" => &self.handle_stats_ns,
            _ => &self.handle_malformed_ns,
        }
    }

    /// Books one registration that produced an envelope — a single
    /// `Register` or one item of a cohort — under its OCBE flavour.
    fn count_registration<G: CyclicGroup>(&self, envelope: &Envelope<G>) {
        self.registrations.inc();
        match envelope {
            Envelope::Eq(_) => self.env_eq.inc(),
            Envelope::Ge(_) => self.env_ge.inc(),
            Envelope::Le(_) => self.env_le.inc(),
            Envelope::Dual { .. } => self.env_dual.inc(),
        }
    }

    /// Books a served request: a whole-response error and the per-kind
    /// latency. Registrations are counted per item where their envelopes
    /// are composed ([`registration_response`]).
    fn record(&self, request: &[u8], response: &[u8], start: Instant) {
        if proto::is_error_response(response) {
            self.errors.inc();
        }
        self.histogram_for(proto::request_kind_label(request))
            .record_since(start);
    }

    /// One consistent snapshot, with the process-wide group-exponentiation
    /// tallies ([`pbcd_group::ops`]) mirrored in as gauges first.
    fn snapshot(&self) -> Snapshot {
        self.group_exp.set(pbcd_group::ops::exp_total());
        self.group_exp2.set(pbcd_group::ops::exp2_total());
        self.registry.snapshot()
    }
}

/// The encoded answer to a conditions query (`None` = every condition).
fn conditions_response<G: CyclicGroup, K: BroadcastGkm>(
    publisher: &Publisher<G, K>,
    attribute: Option<&str>,
) -> Vec<u8> {
    let group = publisher.ocbe().group();
    Response::Conditions(ConditionsInfo {
        ell: publisher.ocbe().ell(),
        kappa_bits: publisher.shared_css_table().kappa_bits(),
        conditions: match attribute {
            Some(a) => publisher.conditions_for_attribute(a),
            None => publisher.policies().distinct_conditions(),
        },
    })
    .encode(group)
    .unwrap_or_else(|e| error_bytes(group, ErrorCode::Internal, &e.to_string()))
}

/// The publisher-side protocol handler as a free function: decodes one
/// request, serves it against `publisher`, encodes the response. Total —
/// every failure becomes a typed error response.
///
/// [`PublisherService`] wraps this with owned state; [`crate::harness`]
/// calls it directly so the in-process flow exercises the very same
/// byte-level protocol as the socket deployment.
pub fn dispatch<G: CyclicGroup, K: BroadcastGkm, R: RngCore + ?Sized>(
    publisher: &Publisher<G, K>,
    request: &[u8],
    rng: &mut R,
) -> Vec<u8> {
    if proto::is_register_request(request) {
        return registration_response(&publisher.registrar(), request, rng, None);
    }
    let group = publisher.ocbe().group();
    let unsupported = |message| error_bytes(group, ErrorCode::Unsupported, message);
    match Request::decode(group, request) {
        Err(e) => error_bytes(group, ErrorCode::Malformed, &e.to_string()),
        Ok(Request::ConditionsQuery { attribute }) => {
            conditions_response(publisher, attribute.as_deref())
        }
        Ok(Request::Stats) => {
            unsupported("stats are served by the owning service, not the bare dispatcher")
        }
        // Registrations were routed above; what is left is issuance.
        Ok(_) => unsupported("publishers do not issue tokens; speak to the identity manager"),
    }
}

/// Register and RegisterBatch (paper §V-B), served from a [`Registrar`]:
/// decode, register, encode. The one composer of registration responses —
/// [`dispatch`] and [`PublisherService::handle`] both end here, so the
/// wire behaviour cannot depend on who held the request. It is also where
/// the envelopes are still typed, so a service's `telemetry` counts
/// registrations here, per item: a cohort of 64 is 64 registrations, and a
/// rejected item is an error even though its frame succeeds.
fn registration_response<G: CyclicGroup, R: RngCore + ?Sized>(
    registrar: &Registrar<G>,
    request: &[u8],
    rng: &mut R,
    telemetry: Option<&ServiceTelemetry>,
) -> Vec<u8> {
    let group = registrar.ocbe().group();
    let booked = |envelope: Envelope<G>| {
        if let Some(t) = telemetry {
            t.count_registration(&envelope);
        }
        RegisterResponse { envelope }
    };
    let resp = match Request::decode(group, request) {
        Ok(Request::Register(r)) => match registrar.register(&r.token, &r.cond, &r.proof, rng) {
            Ok(envelope) => Response::Register(booked(envelope)),
            Err(e) => return error_bytes(group, code_for(&e), &e.to_string()),
        },
        Ok(Request::RegisterBatch(items)) => {
            let items: Vec<_> = items
                .into_iter()
                .map(|r| (r.token, r.cond, r.proof))
                .collect();
            Response::RegisterBatch(
                registrar
                    .register_batch(&items, rng)
                    .into_iter()
                    .map(|r| match r {
                        Ok(envelope) => Ok(booked(envelope)),
                        Err(e) => {
                            if let Some(t) = telemetry {
                                t.errors.inc();
                            }
                            Err(error_item(&e))
                        }
                    })
                    .collect(),
            )
        }
        // Callers route here on `is_register_request`; stay total anyway.
        Ok(_) => return error_bytes(group, ErrorCode::Unsupported, "not a registration request"),
        Err(e) => return error_bytes(group, ErrorCode::Malformed, &e.to_string()),
    };
    resp.encode(group)
        .unwrap_or_else(|e| error_bytes(group, ErrorCode::Internal, &e.to_string()))
}

/// Recovers a lock whose holder panicked. For state a panic cannot leave
/// half-applied: slots that are only ever replaced whole, RNGs, and an
/// issuer whose handler is bytes-in/bytes-out by contract.
fn unpoisoned<T>(guard: Result<T, std::sync::PoisonError<T>>) -> T {
    guard.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The publisher's registration endpoint: owns the [`Publisher`] and
/// answers [`crate::proto`] requests as opaque bytes. `handle` takes
/// `&self` and may be called from any number of connection threads at
/// once; each request class takes the cheapest synchronization that
/// serves it:
///
/// * **Full conditions query** → pre-encoded response bytes, no lock
///   beyond a read of the slot holding them;
/// * **Registration** → an `Arc`-shared read-mostly [`Registrar`] (OCBE
///   parameters, IdMgr key, condition list) plus the sharded CSS table —
///   concurrent registrations contend only on their subscriber's table
///   shard, never on the publisher;
/// * **everything else** (filtered conditions queries, unsupported kinds,
///   malformed bytes) → the publisher mutex, which is also the gateway for
///   every publisher mutation, broadcast and audit.
///
/// Locking discipline: the publisher mutex is taken first, the registrar
/// and conditions slots only under it or alone. [`Self::with_publisher_mut`]
/// clears both slots while holding the mutex, and rebuild-on-miss runs
/// under it too, so stale material can never be re-installed after a
/// mutation.
pub struct PublisherService<G: CyclicGroup, K: BroadcastGkm = AcvBgkm> {
    publisher: Mutex<Publisher<G, K>>,
    group: G,
    /// Read-mostly registration material; `None` = stale, rebuild on use.
    registrar: RwLock<Option<Arc<Registrar<G>>>>,
    /// The encoded answer to the full conditions query; `None` = stale.
    conditions: RwLock<Option<Vec<u8>>>,
    /// Seed source for the per-thread request RNGs: held only long enough
    /// to draw 8 bytes, never across an envelope composition.
    rng: Mutex<StdRng>,
    /// Identity of this service instance for the thread-local RNG cache.
    serial: u64,
    /// Bumped by [`Self::reseed`]; invalidates every cached per-thread RNG.
    rng_epoch: AtomicU64,
    telemetry: ServiceTelemetry,
}

impl<G: CyclicGroup, K: BroadcastGkm> PublisherService<G, K> {
    /// Wraps `publisher`; every CSS the service issues derives from `seed`
    /// (matching the repository-wide reproducibility convention).
    pub fn new(publisher: Publisher<G, K>, seed: u64) -> Self {
        static SERIAL: AtomicU64 = AtomicU64::new(0);
        Self {
            group: publisher.ocbe().group().clone(),
            publisher: Mutex::new(publisher),
            registrar: RwLock::new(None),
            conditions: RwLock::new(None),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            serial: SERIAL.fetch_add(1, Ordering::Relaxed),
            rng_epoch: AtomicU64::new(0),
            telemetry: ServiceTelemetry::new(),
        }
    }

    /// Reseeds the request RNGs (e.g. before exposing the service on a
    /// socket), and eagerly (re)builds the conditions bytes and the
    /// registrar so the first requests already take the fast paths.
    pub fn reseed(&self, seed: u64) {
        let publisher = self.lock_publisher();
        *unpoisoned(self.rng.lock()) = StdRng::seed_from_u64(seed);
        self.rng_epoch.fetch_add(1, Ordering::Release);
        self.install_conditions(conditions_response(&publisher, None));
        *unpoisoned(self.registrar.write()) = Some(Arc::new(publisher.registrar()));
    }

    /// Not recovered when poisoned: a mutation that panicked may be
    /// half-applied, and its invalidation never ran.
    fn lock_publisher(&self) -> std::sync::MutexGuard<'_, Publisher<G, K>> {
        self.publisher.lock().expect("publisher service poisoned")
    }

    /// Handles one request; total, never panics on hostile bytes, and safe
    /// to call from any number of threads at once. A full conditions query
    /// answered from the pre-encoded bytes is counted in
    /// [`ServiceStats::conditions_cache_hits`] only; every other request
    /// is counted in `requests` with its per-kind latency, and every
    /// registration it carries per item, under its OCBE envelope flavour.
    pub fn handle(&self, request: &[u8]) -> Vec<u8> {
        let full_conditions = proto::is_full_conditions_query(request);
        if full_conditions {
            if let Some(bytes) = unpoisoned(self.conditions.read()).clone() {
                self.telemetry.snapshot_hits.add(1);
                return bytes;
            }
        }
        let start = Instant::now();
        self.telemetry.requests.inc();
        let response = if proto::is_register_request(request) {
            let registrar = self.registrar_handle();
            self.with_request_rng(|rng| {
                registration_response(&registrar, request, rng, Some(&self.telemetry))
            })
        } else if proto::is_stats_query(request) {
            self.stats_response()
        } else {
            let publisher = self.lock_publisher();
            let response = self.with_request_rng(|rng| dispatch(&publisher, request, rng));
            // A missed full conditions query repopulates the slot *under
            // the publisher lock*, so a concurrent `with_publisher_mut`
            // (which clears it under the same lock) cannot interleave and
            // leave pre-mutation bytes installed.
            if full_conditions {
                self.install_conditions(response.clone());
            }
            response
        };
        self.telemetry.record(request, &response, start);
        response
    }

    /// Installs the encoded full-conditions answer; the caller holds the
    /// publisher lock. An error response (oversized policy data) is never
    /// cached.
    fn install_conditions(&self, response: Vec<u8>) {
        if !proto::is_error_response(&response) {
            *unpoisoned(self.conditions.write()) = Some(response);
        }
    }

    /// The answer to a [`proto::Request::Stats`] query: the text
    /// exposition of the service's own registry.
    fn stats_response(&self) -> Vec<u8> {
        Response::<G>::Stats {
            text: self.telemetry.snapshot().render_text(),
        }
        .encode(&self.group)
        .unwrap_or_else(|e| error_bytes(&self.group, ErrorCode::Internal, &e.to_string()))
    }

    /// Runs `f` with this thread's cached request RNG, seeding it from the
    /// shared seed source on first use (and again after every
    /// [`Self::reseed`], which bumps the epoch). Steady-state requests
    /// therefore touch no RNG lock and construct no RNG.
    fn with_request_rng<T>(&self, f: impl FnOnce(&mut StdRng) -> T) -> T {
        thread_local! {
            /// One cached `(service serial, reseed epoch, rng)` slot per
            /// thread; a thread bouncing between services reseeds on each
            /// switch, which is correct just slower.
            static REQUEST_RNG: std::cell::RefCell<Option<(u64, u64, StdRng)>> =
                const { std::cell::RefCell::new(None) };
        }
        let epoch = self.rng_epoch.load(Ordering::Acquire);
        REQUEST_RNG.with(|slot| {
            let mut slot = slot.borrow_mut();
            let stale = !matches!(&*slot, Some((s, e, _)) if *s == self.serial && *e == epoch);
            if stale {
                let seed = unpoisoned(self.rng.lock()).next_u64();
                *slot = Some((self.serial, epoch, StdRng::seed_from_u64(seed)));
            }
            let (_, _, rng) = slot.as_mut().expect("slot just populated");
            f(rng)
        })
    }

    /// The current registrar, rebuilt under the publisher lock on
    /// staleness.
    fn registrar_handle(&self) -> Arc<Registrar<G>> {
        if let Some(r) = unpoisoned(self.registrar.read()).as_ref() {
            return Arc::clone(r);
        }
        // Publisher first, then the slot — the order `with_publisher_mut`
        // takes for invalidation, so a mutation either completes before
        // the rebuild (we capture fresh material) or waits for it (and
        // invalidates what we installed).
        let publisher = self.lock_publisher();
        let mut slot = unpoisoned(self.registrar.write());
        if let Some(r) = slot.as_ref() {
            return Arc::clone(r);
        }
        let rebuilt = Arc::new(publisher.registrar());
        *slot = Some(Arc::clone(&rebuilt));
        rebuilt
    }

    /// Runs `f` against the wrapped publisher (policy inspection, audits).
    pub fn with_publisher<T>(&self, f: impl FnOnce(&Publisher<G, K>) -> T) -> T {
        f(&self.lock_publisher())
    }

    /// Runs `f` against the wrapped publisher mutably (revocation, policy
    /// edits). Invalidates the conditions bytes **and** the registrar
    /// while the publisher lock is held — an arbitrary mutation may change
    /// the policy/OCBE material both depend on; each rebuilds lazily.
    pub fn with_publisher_mut<T>(&self, f: impl FnOnce(&mut Publisher<G, K>) -> T) -> T {
        let mut publisher = self.lock_publisher();
        let out = f(&mut publisher);
        *unpoisoned(self.conditions.write()) = None;
        *unpoisoned(self.registrar.write()) = None;
        out
    }

    /// Exclusive publisher access *without* invalidation — solely for
    /// broadcast, which bumps the epoch and rekeys but cannot change the
    /// conditions or registration material.
    pub(crate) fn with_publisher_broadcast<T>(
        &self,
        f: impl FnOnce(&mut Publisher<G, K>) -> T,
    ) -> T {
        f(&mut self.lock_publisher())
    }

    /// Traffic counters — a fixed-shape view over [`Self::metrics`].
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            requests: self.telemetry.requests.get(),
            registrations: self.telemetry.registrations.get(),
            errors: self.telemetry.errors.get(),
            conditions_cache_hits: self.telemetry.snapshot_hits.get(),
        }
    }

    /// Full metrics snapshot: request counters, per-kind handler latency
    /// histograms, OCBE envelope counters and the mirrored process-wide
    /// group-exponentiation tallies.
    pub fn metrics(&self) -> Snapshot {
        self.telemetry.snapshot()
    }

    /// Unwraps the publisher.
    pub fn into_inner(self) -> Publisher<G, K> {
        unpoisoned(self.publisher.into_inner())
    }
}

/// A subject-authentication hook for [`IssuerService`]: given an incoming
/// [`proto::IssueRequest`], decide whether this deployment's identity
/// provider actually vouches for `(subject, attribute, value)`.
pub type IssueVerifier = Box<dyn FnMut(&proto::IssueRequest) -> bool + Send>;

/// The issuance endpoint (paper §V-A): the IdP + IdMgr pair behind one
/// bytes-in/bytes-out handler. Subscribers send [`proto::IssueRequest`]s
/// and receive signed tokens plus their private openings. The issuer
/// legitimately learns attribute values — it is the party committing to
/// them; the publisher never sees this exchange.
///
/// **Trust caveat:** the protocol message carries a *claimed*
/// `(subject, attribute, value)`; the paper's IdP certifies attributes it
/// has verified out of band (an employer's HR system, a DMV, …). A service
/// built with [`Self::new`] trusts every claim — acceptable only on an
/// authenticated channel to already-vetted subjects (as in the examples
/// and tests here, where the harness plays every role). Real deployments
/// must install an [`IssueVerifier`] via [`Self::with_verifier`] — a
/// rejected claim gets a typed [`ErrorCode::BadToken`] response, and a
/// network peer can then no longer mint qualifying tokens (or tokens
/// bound to someone else's nym) by just asking.
///
/// `handle` takes `&self`: issuance mutates the IdMgr's nym map, the RNG
/// and whatever the verifier closes over, so all of it sits behind one
/// lock, taken per request. A verifier that panics costs its own
/// connection only — the lock is recovered, not left poisoned.
pub struct IssuerService<G: CyclicGroup> {
    group: G,
    issuer: Mutex<Issuer<G>>,
}

struct Issuer<G: CyclicGroup> {
    idp: IdentityProvider<G>,
    idmgr: IdentityManager<G>,
    rng: StdRng,
    verifier: Option<IssueVerifier>,
}

impl<G: CyclicGroup> IssuerService<G> {
    /// Wraps an IdP/IdMgr pair that vouches for every claim it receives —
    /// see the trust caveat on the type.
    pub fn new(idp: IdentityProvider<G>, idmgr: IdentityManager<G>, seed: u64) -> Self {
        Self::build(idp, idmgr, seed, None)
    }

    /// Like [`Self::new`], but every issuance claim must pass `verifier`
    /// first; rejected claims get a typed [`ErrorCode::BadToken`] response.
    pub fn with_verifier(
        idp: IdentityProvider<G>,
        idmgr: IdentityManager<G>,
        seed: u64,
        verifier: impl FnMut(&proto::IssueRequest) -> bool + Send + 'static,
    ) -> Self {
        Self::build(idp, idmgr, seed, Some(Box::new(verifier)))
    }

    fn build(
        idp: IdentityProvider<G>,
        idmgr: IdentityManager<G>,
        seed: u64,
        verifier: Option<IssueVerifier>,
    ) -> Self {
        let group = idmgr.pedersen().group().clone();
        group.warm_up();
        Self {
            group,
            issuer: Mutex::new(Issuer {
                idp,
                idmgr,
                rng: StdRng::seed_from_u64(seed),
                verifier,
            }),
        }
    }

    /// Handles one request; total, never panics on hostile bytes, and safe
    /// to call from any number of threads at once.
    pub fn handle(&self, request: &[u8]) -> Vec<u8> {
        let group = &self.group;
        let resp = match Request::decode(group, request) {
            Err(e) => return error_bytes(group, ErrorCode::Malformed, &e.to_string()),
            Ok(Request::Issue(r)) => match unpoisoned(self.issuer.lock()).issue_one(&r) {
                Ok(issued) => Response::Issue(issued),
                Err(e) => Response::Error(e),
            },
            Ok(_) => {
                return error_bytes(
                    group,
                    ErrorCode::Unsupported,
                    "the issuer only serves token issuance",
                )
            }
        };
        resp.encode(group)
            .unwrap_or_else(|e| error_bytes(group, ErrorCode::Internal, &e.to_string()))
    }
}

impl<G: CyclicGroup> Issuer<G> {
    /// One issuance: the verifier gate, then assertion and token.
    fn issue_one(&mut self, r: &proto::IssueRequest) -> Result<IssueResponse<G>, ErrorResponse> {
        if let Some(verifier) = &mut self.verifier {
            if !verifier(r) {
                return Err(ErrorResponse {
                    code: ErrorCode::BadToken,
                    message: "the identity provider does not vouch for this claim".to_string(),
                });
            }
        }
        let assertion = self
            .idp
            .assert_attribute(&r.subject, &r.attribute, r.value, &mut self.rng);
        self.idmgr
            .issue_token(&assertion, &self.idp.verifying_key(), &mut self.rng)
            .map(|(token, opening)| IssueResponse { token, opening })
            .map_err(|e| error_item(&e))
    }
}
