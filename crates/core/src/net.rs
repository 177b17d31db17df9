//! Network adapters: the [`Publisher`]/[`Subscriber`] actors deployed over
//! real sockets.
//!
//! Two transports, two trust levels, matching the paper's model:
//!
//! * **Dissemination** rides the untrusted `pbcd_net` broker — broadcast
//!   containers are safe in any hands.
//! * **Registration** (the OCBE flow that delivers CSSs) runs over a
//!   *direct* publisher↔subscriber socket: [`NetPublisher`] can expose its
//!   [`PublisherService`] through a [`pbcd_net::direct::RegistrationServer`]
//!   and [`NetSubscriber::register_via`] drives the session-typed client
//!   side against it. The broker never carries — and its crate can never
//!   even type — this traffic.

use crate::error::PbcdError;
use crate::publisher::Publisher;
use crate::service::{PublisherService, ServiceStats};
use crate::session;
use crate::subscriber::Subscriber;
use pbcd_docs::{BroadcastContainer, Element};
use pbcd_gkm::{AcvBgkm, BroadcastGkm};
use pbcd_group::{CyclicGroup, SigningKey};
use pbcd_net::direct::RegistrationServer;
use pbcd_net::{BrokerClient, ConfigSummary, NetError, PeerRole, PublishReceipt};
use pbcd_policy::{AttributeCondition, PolicySet};
use rand::RngCore;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// A [`Publisher`] deployed on the network: broadcasts go to a broker
/// (optionally Schnorr-signed, for brokers that require publisher
/// authentication), and (optionally) a direct registration endpoint
/// serves the oblivious CSS flow on a separate socket.
///
/// The publisher lives inside an `Arc`-shared [`PublisherService`] so the
/// registration server's connection handlers and the broadcasting caller
/// can all reach it; access it through
/// [`Self::with_publisher`]/[`Self::with_publisher_mut`].
pub struct NetPublisher<G: CyclicGroup, K: BroadcastGkm = AcvBgkm> {
    service: Arc<PublisherService<G, K>>,
    group: G,
    client: BrokerClient,
    registration: Option<RegistrationServer>,
    /// When set, broadcasts go out as signed publishes under this
    /// `(key_id, signing key)` pair.
    signing: Option<(String, SigningKey<G>)>,
}

impl<G: CyclicGroup, K: BroadcastGkm> NetPublisher<G, K> {
    /// Wraps `publisher` and connects it to the broker at `addr` as
    /// [`Self::connect_service`] does. The registration endpoint is off
    /// until [`Self::serve_registration`].
    pub fn connect(publisher: Publisher<G, K>, addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        Self::connect_service(PublisherService::new(publisher, 0), addr)
    }

    /// Wraps an existing [`PublisherService`] (e.g. with a chosen RNG
    /// seed) and connects it to the broker at `addr`, raising its epoch to
    /// the highest the broker retains (a restarted publisher starts at 0).
    pub fn connect_service(
        service: PublisherService<G, K>,
        addr: impl ToSocketAddrs,
    ) -> Result<Self, NetError> {
        let group = service.with_publisher(|p| p.ocbe().group().clone());
        let mut client = BrokerClient::connect(addr, PeerRole::Publisher)?;
        let floor = client.list_configs()?.iter().map(|c| c.epoch).max();
        service.with_publisher_broadcast(|p| p.raise_epoch_floor(floor.unwrap_or(0)));
        Ok(Self {
            service: Arc::new(service),
            group,
            client,
            registration: None,
            signing: None,
        })
    }

    /// Enables authenticated publishing: every subsequent
    /// [`Self::broadcast`] ships a `PublishSigned` frame signed with `key`
    /// and claiming `key_id` — required against a broker configured with a
    /// [`pbcd_net::PublisherDirectory`]. Returns `self` for chaining.
    pub fn with_signing_key(mut self, key_id: impl Into<String>, key: SigningKey<G>) -> Self {
        self.signing = Some((key_id.into(), key));
        self
    }

    /// Opens the direct registration endpoint on `addr` (use port 0 for an
    /// ephemeral port), reseeding the service RNGs with `seed` first.
    /// Subscribers point [`NetSubscriber::register_via`] (or
    /// [`crate::session::register_all_via`]) at the returned address.
    ///
    /// Connection handlers call [`PublisherService::handle`] in parallel:
    /// the full conditions query is served from pre-encoded bytes and
    /// registrations run against the `Arc`-shared registrar + shared CSS
    /// table, so neither waits on the publisher lock (a broadcast, an
    /// audit). Full conditions queries served that way are counted in
    /// [`ServiceStats::conditions_cache_hits`] (also exposed by
    /// [`Self::conditions_cache_hits`]), not in `requests`.
    pub fn serve_registration(
        &mut self,
        addr: impl ToSocketAddrs,
        seed: u64,
    ) -> Result<SocketAddr, NetError>
    where
        K: 'static,
    {
        self.service.reseed(seed);
        let service = Arc::clone(&self.service);
        let server = RegistrationServer::bind(addr, move |request: &[u8]| service.handle(request))?;
        let bound = server.addr();
        self.registration = Some(server);
        Ok(bound)
    }

    /// Runs `f` against the wrapped publisher (policy inspection, table
    /// audits).
    pub fn with_publisher<T>(&self, f: impl FnOnce(&Publisher<G, K>) -> T) -> T {
        self.service.with_publisher(f)
    }

    /// Runs `f` against the wrapped publisher mutably (revocation and
    /// other publisher-local actions). Invalidates the pre-encoded
    /// conditions snapshot and the registration-material snapshot — an
    /// arbitrary mutation may change what either should serve; both
    /// repopulate lazily, serialized against the publisher lock so stale
    /// material can never be re-installed.
    pub fn with_publisher_mut<T>(&self, f: impl FnOnce(&mut Publisher<G, K>) -> T) -> T {
        self.service.with_publisher_mut(f)
    }

    /// How many full-conditions queries the registration endpoint served
    /// straight from the snapshot (without the publisher lock). Also
    /// reported as [`ServiceStats::conditions_cache_hits`].
    pub fn conditions_cache_hits(&self) -> u64 {
        self.service.stats().conditions_cache_hits
    }

    /// A clone of the public policy set.
    pub fn policies(&self) -> PolicySet {
        self.with_publisher(|p| p.policies().clone())
    }

    /// Subscription revocation (publisher-local; takes effect on the next
    /// broadcast, with no message to anyone).
    pub fn revoke_subscriber(&self, nym: &str) -> bool {
        self.with_publisher_mut(|p| p.revoke_subscriber(nym))
    }

    /// Credential revocation for one `(nym, condition)` record.
    pub fn revoke_credential(&self, nym: &str, cond: &AttributeCondition) -> bool {
        self.with_publisher_mut(|p| p.revoke_credential(nym, cond))
    }

    /// Registration-service traffic counters.
    pub fn service_stats(&self) -> ServiceStats {
        self.service.stats()
    }

    /// Segments, rekeys and encrypts `doc` exactly like
    /// [`Publisher::broadcast`], then ships the container to the broker —
    /// signed, when a key was installed via [`Self::with_signing_key`].
    /// Returns the broker's receipt (epoch + fan-out count); a typed
    /// broker refusal (unknown key, bad signature, stale epoch, retention
    /// cap) surfaces as [`PbcdError::PublishRejected`] with the broker
    /// connection still usable.
    pub fn broadcast<R: RngCore + ?Sized>(
        &mut self,
        doc: &Element,
        doc_name: &str,
        rng: &mut R,
    ) -> Result<PublishReceipt, PbcdError> {
        let container = self
            .service
            .with_publisher_broadcast(|p| p.broadcast(doc, doc_name, rng));
        let client = &mut self.client;
        let receipt = match &self.signing {
            Some((id, key)) => client.publish_signed(&self.group, id, key, &container, rng),
            None => client.publish(&container),
        };
        receipt.map_err(PbcdError::from)
    }

    /// What the broker currently retains.
    pub fn list_configs(&mut self) -> Result<Vec<ConfigSummary>, NetError> {
        self.client.list_configs()
    }

    /// Shuts the registration endpoint (if any), says goodbye to the
    /// broker and returns the wrapped publisher.
    pub fn disconnect(mut self) -> Result<Publisher<G, K>, NetError> {
        if let Some(server) = self.registration.take() {
            server.shutdown();
        }
        self.client.bye()?;
        let service = Arc::try_unwrap(self.service)
            .map_err(|_| NetError::protocol("registration handler still alive after shutdown"))?;
        Ok(service.into_inner())
    }
}

/// A [`Subscriber`] receiving broadcasts from a broker connection.
///
/// Deliveries are **epoch-ordered per document**: the broker is untrusted,
/// and concurrent or hostile publishers could race a stale (e.g.
/// pre-revocation) container in after a fresher one — the adapter drops any
/// delivery whose epoch is not strictly newer than the last one seen for
/// that document, so consumers can safely treat the latest receive as
/// current.
pub struct NetSubscriber<G: CyclicGroup, K: BroadcastGkm = AcvBgkm> {
    subscriber: Subscriber<G, K>,
    client: BrokerClient,
    /// The subscribed document names (empty = everything).
    documents: Vec<String>,
    /// document name → highest epoch delivered so far.
    seen_epochs: std::collections::BTreeMap<String, u64>,
}

/// Cap on distinct document names tracked per subscriber; a hostile broker
/// streaming made-up names must not grow client memory without bound.
const MAX_TRACKED_DOCUMENTS: usize = 4096;

impl<G: CyclicGroup, K: BroadcastGkm> NetSubscriber<G, K> {
    /// Wraps `subscriber`, connects to the broker at `addr` and subscribes
    /// to `documents` (empty = every document). Retained containers are
    /// replayed immediately and arrive via
    /// [`Self::recv_container`]/[`Self::recv_document`]. Registration can
    /// happen before or after this — see [`Self::register_via`].
    pub fn connect(
        subscriber: Subscriber<G, K>,
        addr: impl ToSocketAddrs,
        documents: &[&str],
    ) -> Result<Self, NetError> {
        Self::connect_with_history(subscriber, addr, documents, 1)
    }

    /// Like [`Self::connect`], but asks the broker to replay up to the
    /// last `depth` retained epochs per document (a durable broker keeps
    /// [`pbcd_net::BrokerConfig::history_depth`] of them). The broker
    /// replays history oldest-first, so every replayed epoch passes this
    /// adapter's strictly-increasing epoch filter and arrives through
    /// [`Self::recv_container`] in epoch order.
    pub fn connect_with_history(
        subscriber: Subscriber<G, K>,
        addr: impl ToSocketAddrs,
        documents: &[&str],
        depth: u32,
    ) -> Result<Self, NetError> {
        let mut client = BrokerClient::connect(addr, PeerRole::Subscriber)?;
        client.set_read_timeout(Some(std::time::Duration::from_secs(10)))?;
        client.subscribe_with_history(documents, depth)?;
        client.set_read_timeout(None)?;
        Ok(Self {
            subscriber,
            client,
            documents: documents.iter().map(|d| d.to_string()).collect(),
            seen_epochs: std::collections::BTreeMap::new(),
        })
    }

    /// The wrapped subscriber.
    pub fn subscriber(&self) -> &Subscriber<G, K> {
        &self.subscriber
    }

    /// Runs the full oblivious registration against a publisher's direct
    /// registration endpoint at `addr` — the [`crate::proto`] flow over a
    /// socket the broker never sees. `group` is the public deployment
    /// group parameter. Returns how many CSSs were extracted.
    pub fn register_via<R: RngCore + ?Sized>(
        &mut self,
        addr: impl ToSocketAddrs,
        group: &G,
        rng: &mut R,
    ) -> Result<usize, PbcdError> {
        session::register_all_via(&mut self.subscriber, group, addr, rng)
    }

    /// Bounds how long receives may block.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), NetError> {
        self.client.set_read_timeout(timeout)
    }

    /// Blocks for the next raw container (no decryption) whose epoch is
    /// strictly newer than anything previously received for its document;
    /// stale or duplicate deliveries — and deliveries for documents this
    /// subscriber never asked for (a broker is not trusted to honor the
    /// filter) — are silently skipped.
    pub fn recv_container(&mut self) -> Result<BroadcastContainer, NetError> {
        loop {
            let container = self.client.next_delivery()?;
            if !self.documents.is_empty() && !self.documents.contains(&container.document_name) {
                continue;
            }
            match self.seen_epochs.get_mut(&container.document_name) {
                Some(seen) if container.epoch <= *seen => continue,
                Some(seen) => {
                    *seen = container.epoch;
                    return Ok(container);
                }
                None => {
                    if self.seen_epochs.len() >= MAX_TRACKED_DOCUMENTS {
                        return Err(NetError::protocol(
                            "broker delivered more distinct documents than the client tracks",
                        ));
                    }
                    self.seen_epochs
                        .insert(container.document_name.clone(), container.epoch);
                    return Ok(container);
                }
            }
        }
    }

    /// Blocks for the next container and decrypts everything this
    /// subscriber's CSSs allow, reassembling the document with the rest
    /// redacted. A non-qualified subscriber gets the skeleton only —
    /// failing closed, not erroring.
    pub fn recv_document(
        &mut self,
        policies: &PolicySet,
    ) -> Result<(BroadcastContainer, Element), PbcdError> {
        let container = self.recv_container()?;
        let view = self.subscriber.decrypt_broadcast(&container, policies)?;
        Ok((container, view))
    }

    /// Says goodbye to the broker and returns the wrapped subscriber.
    pub fn disconnect(self) -> Result<Subscriber<G, K>, NetError> {
        self.client.bye()?;
        Ok(self.subscriber)
    }
}
