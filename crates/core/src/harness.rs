//! A full-system harness wiring IdP → IdMgr → Publisher → Subscribers,
//! used by the examples, the integration tests and the benchmark driver.
//!
//! The harness performs the complete privacy-preserving flow: assertion
//! issuance, token issuance, registration for **every** condition whose
//! attribute matches a held token (the paper's recommended
//! inference-resistant behaviour), and broadcast decryption.
//!
//! Registration runs through the byte-level [`crate::proto`] protocol —
//! the subscriber side builds its own `OcbeSystem` from the parameters in
//! the publisher's `Conditions` response and exchanges encoded messages
//! with [`crate::service::dispatch`], so the in-process flow exercises the
//! very same code path as a socket deployment.

use crate::idmgr::IdentityManager;
use crate::idp::IdentityProvider;
use crate::proto::{Request, Response};
use crate::publisher::{Publisher, PublisherConfig};
use crate::service;
use crate::session::RegistrationSession;
use crate::subscriber::Subscriber;
use pbcd_gkm::{AcvBgkm, BroadcastGkm};
use pbcd_group::CyclicGroup;
use pbcd_group::P256Group;
use pbcd_policy::{AttributeSet, PolicySet};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The assembled system, generic over the group backend and (like
/// [`Publisher`]/[`Subscriber`]) over the broadcast GKM scheme.
pub struct SystemHarness<G: CyclicGroup, K: BroadcastGkm = AcvBgkm> {
    /// The (single, for simplicity) identity provider.
    pub idp: IdentityProvider<G>,
    /// The identity manager.
    pub idmgr: IdentityManager<G>,
    /// The publisher.
    pub publisher: Publisher<G, K>,
    /// Deterministic randomness for reproducible runs.
    pub rng: StdRng,
}

impl SystemHarness<P256Group> {
    /// Builds a P-256-backed system with the default publisher config.
    pub fn new_p256(policies: PolicySet, seed: u64) -> Self {
        Self::new(P256Group::new(), policies, PublisherConfig::default(), seed)
    }
}

impl<G: CyclicGroup> SystemHarness<G> {
    /// Builds an ACV-BGKM system over any group backend.
    pub fn new(group: G, policies: PolicySet, config: PublisherConfig, seed: u64) -> Self {
        Self::new_with_gkm(group, policies, config, AcvBgkm::default(), seed)
    }
}

impl<G: CyclicGroup, K: BroadcastGkm> SystemHarness<G, K> {
    /// Builds a system over any group backend and any GKM scheme.
    pub fn new_with_gkm(
        group: G,
        policies: PolicySet,
        config: PublisherConfig,
        gkm: K,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let idp = IdentityProvider::new(group.clone(), "idp", &mut rng);
        let idmgr = IdentityManager::new(group.clone(), &mut rng);
        let publisher = Publisher::with_gkm(group, idmgr.verifying_key(), policies, config, gkm);
        Self {
            idp,
            idmgr,
            publisher,
            rng,
        }
    }

    /// Issues identity tokens for every attribute of `attrs` and returns
    /// the subscriber holding them (not yet registered).
    pub fn onboard(&mut self, subject: &str, attrs: AttributeSet) -> Subscriber<G, K> {
        let mut sub = Subscriber::with_gkm(attrs.clone(), self.publisher.gkm().clone());
        for (name, value) in attrs.iter() {
            let assertion = self
                .idp
                .assert_attribute(subject, name, value, &mut self.rng);
            let (token, opening) = self
                .idmgr
                .issue_token(&assertion, &self.idp.verifying_key(), &mut self.rng)
                .expect("harness assertions are honest");
            sub.install_token(token, opening)
                .expect("one IdMgr, one nym per subject");
        }
        sub
    }

    /// Runs the full oblivious registration **through the byte-level
    /// protocol**: the subscriber queries the publisher's conditions, then
    /// registers for every condition whose attribute matches a held token.
    /// Every leg is an encoded [`crate::proto`] message handed to
    /// [`crate::service::dispatch`] — no `OcbeSystem` handle crosses the
    /// actor boundary. Returns how many CSSs the subscriber extracted
    /// (information the publisher never has).
    pub fn register_all(&mut self, sub: &mut Subscriber<G, K>) -> usize {
        let group = self.publisher.ocbe().group().clone();
        let query = Request::<G>::ConditionsQuery { attribute: None }
            .encode(&group)
            .expect("query encodes");
        let reply = service::dispatch(&self.publisher, &query, &mut self.rng);
        let Ok(Response::Conditions(info)) = Response::decode(&group, &reply) else {
            panic!("publisher answered the conditions query with an error");
        };
        let mut extracted = 0;
        for cond in &info.conditions {
            if sub.token_for(&cond.attribute).is_none() {
                continue;
            }
            let session = RegistrationSession::new(sub, group.clone(), info.ell);
            let (request, pending) = session
                .start(cond, &mut self.rng)
                .expect("token presence checked above");
            let response = service::dispatch(&self.publisher, &request, &mut self.rng);
            if pending
                .complete(&response)
                .expect("harness registrations are well-formed")
            {
                extracted += 1;
            }
        }
        extracted
    }

    /// Onboards and fully registers a subscriber in one call.
    pub fn subscribe(&mut self, subject: &str, attrs: AttributeSet) -> Subscriber<G, K> {
        let mut sub = self.onboard(subject, attrs);
        self.register_all(&mut sub);
        sub
    }

    /// Onboards with genuine attributes plus §VI-A **decoy tokens** for
    /// `decoy_attributes` the subject does not hold, then registers for
    /// everything — the strongest privacy posture: the publisher cannot
    /// even tell which attributes the subscriber possesses.
    pub fn subscribe_with_decoys(
        &mut self,
        subject: &str,
        attrs: AttributeSet,
        decoy_attributes: &[&str],
    ) -> Subscriber<G, K> {
        let mut sub = self.onboard(subject, attrs);
        for attr in decoy_attributes {
            let (token, opening) = self.idmgr.issue_decoy_token(subject, attr, &mut self.rng);
            sub.install_decoy_token(token, opening, crate::idmgr::decoy_value())
                .expect("decoy tokens carry the subject's own nym");
        }
        self.register_all(&mut sub);
        sub
    }
}
