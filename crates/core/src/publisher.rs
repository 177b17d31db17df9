//! The Publisher (paper §III, §V): policy owner, registration endpoint and
//! broadcast source.
//!
//! Holds the policy set `ACPB`, the CSS table `T` and the ACV-BGKM
//! instance. Registration delivers CSSs obliviously (OCBE); broadcasting
//! segments a document by policy configuration, rekeys every configuration
//! (fresh `K`, `X`, `z` values — the paper's transparent rekey) and emits a
//! single [`BroadcastContainer`].

use crate::error::PbcdError;
use crate::proto::RegisterRequest;
use crate::token::token_signing_payload;
use pbcd_crypto::AuthKey;
use pbcd_docs::{segment, BroadcastContainer, Element, EncryptedGroup, EncryptedSegment, Segment};
use pbcd_gkm::{AccessRow, AcvBgkm, BroadcastGkm, CssTable, Nym, ShardedCssTable};
use pbcd_group::{verify_batch, CyclicGroup, Signature, VerifyingKey};
use pbcd_ocbe::{Envelope, OcbeSystem};
use pbcd_policy::{AttributeCondition, PolicyConfiguration, PolicySet};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Publisher configuration knobs.
#[derive(Clone, Debug)]
pub struct PublisherConfig {
    /// Attribute bit width ℓ for OCBE (default 48: wide enough for the
    /// string-encoded attribute space).
    pub ell: u32,
    /// CSS width κ in bits (default 128).
    pub kappa_bits: u32,
}

impl Default for PublisherConfig {
    fn default() -> Self {
        Self {
            ell: 48,
            kappa_bits: 128,
        }
    }
}

/// The Publisher, generic over the broadcast GKM scheme (default: the
/// paper's ACV-BGKM). Any [`BroadcastGkm`] implementation — marker,
/// secure-lock, sharded ACV — slots in without touching the registration
/// or segmentation logic.
pub struct Publisher<G: CyclicGroup, K: BroadcastGkm = AcvBgkm> {
    ocbe: OcbeSystem<G>,
    idmgr_key: VerifyingKey<G>,
    policies: PolicySet,
    /// The CSS table `T`, sharded and shared: registration handlers hold
    /// their own [`Arc`] (via [`Publisher::registrar`]) and issue CSSs
    /// concurrently without going through the publisher at all.
    table: Arc<ShardedCssTable>,
    gkm: K,
    epoch: u64,
}

impl<G: CyclicGroup> Publisher<G> {
    /// Creates an ACV-BGKM publisher trusting tokens signed by `idmgr_key`.
    pub fn new(group: G, idmgr_key: VerifyingKey<G>, policies: PolicySet) -> Self {
        Self::with_config(group, idmgr_key, policies, PublisherConfig::default())
    }

    /// Creates an ACV-BGKM publisher with explicit configuration.
    pub fn with_config(
        group: G,
        idmgr_key: VerifyingKey<G>,
        policies: PolicySet,
        config: PublisherConfig,
    ) -> Self {
        Self::with_gkm(group, idmgr_key, policies, config, AcvBgkm::default())
    }
}

impl<G: CyclicGroup, K: BroadcastGkm> Publisher<G, K> {
    /// Creates a publisher over an explicit GKM scheme. Warms the group's
    /// fixed-base tables eagerly, so the first registration request served
    /// by this publisher does not pay comb-construction latency.
    pub fn with_gkm(
        group: G,
        idmgr_key: VerifyingKey<G>,
        policies: PolicySet,
        config: PublisherConfig,
        gkm: K,
    ) -> Self {
        group.warm_up();
        Self {
            ocbe: OcbeSystem::new(group, config.ell),
            idmgr_key,
            policies,
            table: Arc::new(ShardedCssTable::new(config.kappa_bits)),
            gkm,
            epoch: 0,
        }
    }

    /// The public policy set (policies are not secret; values inside
    /// subscriber attributes are).
    pub fn policies(&self) -> &PolicySet {
        &self.policies
    }

    /// Mutable access to the policy set (dynamic policy updates). Changes
    /// take effect on the next broadcast; layers that cache
    /// policy-derived material (the conditions snapshot, the concurrent
    /// registrar) invalidate it through their `with_publisher_mut`
    /// gateways, which is the only route network deployments expose.
    pub fn policies_mut(&mut self) -> &mut PolicySet {
        &mut self.policies
    }

    /// The OCBE deployment parameters (shared with subscribers).
    pub fn ocbe(&self) -> &OcbeSystem<G> {
        &self.ocbe
    }

    /// The GKM scheme parameters (shared with subscribers).
    pub fn gkm(&self) -> &K {
        &self.gkm
    }

    /// Current rekey epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Raises the rekey epoch to at least `floor`, so the next broadcast
    /// goes out above it (a restarted publisher's counter starts at 0).
    pub(crate) fn raise_epoch_floor(&mut self, floor: u64) {
        self.epoch = self.epoch.max(floor);
    }

    /// A point-in-time copy of the CSS table (exposed for audits and the
    /// Table-I example). The live table is sharded and shared — see
    /// [`Self::shared_css_table`].
    pub fn css_table(&self) -> CssTable {
        self.table.snapshot()
    }

    /// The live, sharded CSS table. Registration handlers write to it
    /// through their own [`Arc`]; broadcast reads it shard by shard.
    pub fn shared_css_table(&self) -> &Arc<ShardedCssTable> {
        &self.table
    }

    /// A read-mostly handle carrying everything registration needs — the
    /// OCBE system, the IdMgr verification key, the current condition set
    /// and an [`Arc`] of the CSS table — detached from the publisher, so
    /// any number of handler threads can serve [`Registrar::register_batch`]
    /// concurrently while the publisher broadcasts. The condition snapshot
    /// goes stale on policy mutation: rebuild the registrar whenever the
    /// publisher is mutated (the same discipline as the conditions-response
    /// snapshot in [`crate::service`]).
    pub fn registrar(&self) -> Registrar<G> {
        Registrar {
            ocbe: self.ocbe.clone(),
            idmgr_key: self.idmgr_key.clone(),
            conditions: self.policies.distinct_conditions(),
            table: Arc::clone(&self.table),
        }
    }

    /// The distinct conditions that mention `attribute` — what a subscriber
    /// holding a token with that id-tag registers for.
    pub fn conditions_for_attribute(&self, attribute: &str) -> Vec<AttributeCondition> {
        self.policies.conditions_on_attribute(attribute)
    }

    /// Credential revocation: deletes one `(nym, cond)` record. The next
    /// broadcast rekeys everything, cutting the subscriber off from
    /// configurations that required the credential.
    pub fn revoke_credential(&mut self, nym: &str, cond: &AttributeCondition) -> bool {
        self.table.remove_credential(&Nym::new(nym), cond)
    }

    // (revocations keep `&mut self` although the sharded table would allow
    // `&self`: mutating publisher state through a shared reference would
    // silently bypass the snapshot-invalidation gateways built on top.)

    /// Subscription revocation: deletes a subscriber's whole row.
    pub fn revoke_subscriber(&mut self, nym: &str) -> bool {
        self.table.remove_subscriber(&Nym::new(nym))
    }

    /// The access rows for one policy configuration: one row per
    /// `(acp_k, nym ∈ U_k)` as in §V-C.
    fn access_rows(&self, pc: &PolicyConfiguration) -> Vec<AccessRow> {
        let mut rows = Vec::new();
        for acp_id in pc.acp_ids() {
            let Some(acp) = self.policies.get(acp_id) else {
                continue;
            };
            for nym in self.table.nyms_with_all(&acp.conditions) {
                // A concurrent credential revocation between the two shard
                // reads can legitimately remove coverage; skip the row —
                // the next broadcast (a full rekey) settles it either way.
                let Some(css_concat) = self.table.css_concat(&nym, &acp.conditions) else {
                    continue;
                };
                rows.push(AccessRow {
                    nym: nym.as_str().to_string(),
                    css_concat,
                });
            }
        }
        rows
    }

    /// Broadcast (paper §V-C "Document Broadcasting"): segments `doc` along
    /// policy objects, groups segments by policy configuration, rekeys each
    /// configuration and encrypts. Every broadcast is a fresh rekey —
    /// joins and revocations since the last broadcast take effect here with
    /// no message to any subscriber.
    ///
    /// **Randomness schedule.** All draws from `rng` come first, by
    /// `fill_bytes`: one 32-byte seed per configuration in container group
    /// order, then one 12-byte nonce per segment in container order.
    /// Configuration *i* rekeys on `StdRng::from_seed(seedᵢ)`, and segment
    /// *j* is `AuthKey::encrypt_with_nonce(nonceⱼ, …)` under its group's
    /// key. The rest is a pure function of the draws: the rekeys (one per
    /// configuration) and encrypt + MAC (one per segment) are independent
    /// tasks — §VII: "computations related to different subdocuments are
    /// independent … and thus can be performed in parallel" — so running
    /// them on any number of threads cannot change a byte. They run in
    /// order on the calling thread.
    pub fn broadcast<R: RngCore + ?Sized>(
        &mut self,
        doc: &Element,
        doc_name: &str,
        rng: &mut R,
    ) -> BroadcastContainer {
        self.epoch += 1;
        // Segment along every object named by any policy for this document.
        let tags: Vec<&str> = {
            let mut t: Vec<&str> = self
                .policies
                .iter()
                .filter(|(_, p)| p.document == doc_name)
                .flat_map(|(_, p)| p.objects.iter().map(String::as_str))
                .collect();
            t.sort_unstable();
            t.dedup();
            t
        };
        let segmented = segment(doc, doc_name, &tags);

        // Group segment ids by policy configuration.
        let mut by_config: BTreeMap<PolicyConfiguration, Vec<&Segment>> = BTreeMap::new();
        for seg in &segmented.segments {
            by_config
                .entry(self.policies.configuration_in(doc_name, &seg.tag))
                .or_default()
                .push(seg);
        }

        // The schedule's draws, all up front: seeds, then nonces.
        let seeds: Vec<[u8; 32]> = by_config.keys().map(|_| draw(rng)).collect();
        let nonces: Vec<[u8; 12]> = segmented.segments.iter().map(|_| draw(rng)).collect();
        let mut nonces = nonces.iter();
        let groups = by_config
            .iter()
            .zip(seeds)
            .enumerate()
            .map(|(i, ((pc, segs), seed))| {
                let (key, key_info) = self.rekey(pc, seed);
                let segments = segs.iter().zip(&mut nonces).map(|(seg, nonce)| {
                    let plaintext = seg.content.to_xml();
                    EncryptedSegment {
                        segment_id: seg.id,
                        tag: seg.tag.clone(),
                        ciphertext: key.encrypt_with_nonce(nonce, plaintext.as_bytes()),
                    }
                });
                EncryptedGroup {
                    config_id: i as u32,
                    key_info,
                    segments: segments.collect(),
                }
            })
            .collect();
        BroadcastContainer {
            epoch: self.epoch,
            document_name: doc_name.to_string(),
            skeleton_xml: segmented.skeleton.to_xml(),
            groups,
        }
    }

    /// One configuration's key and encoded public info, drawn from its own
    /// seed. An empty configuration gets a throwaway key and no key
    /// material: nobody may read (paper: "without the need of publishing X
    /// or zi").
    fn rekey(&self, pc: &PolicyConfiguration, seed: [u8; 32]) -> (AuthKey, Vec<u8>) {
        let mut rng = StdRng::from_seed(seed);
        if pc.is_empty() {
            return (AuthKey::from_master(&draw::<32>(&mut rng)), Vec::new());
        }
        let (key, info) = self.gkm.rekey(&self.access_rows(pc), &mut rng);
        (AuthKey::from_master(&key), self.gkm.encode_info(&info))
    }
}

/// One draw of the schedule: `N` bytes by one `fill_bytes`.
fn draw<const N: usize>(rng: &mut (impl RngCore + ?Sized)) -> [u8; N] {
    let mut bytes = [0u8; N];
    rng.fill_bytes(&mut bytes);
    bytes
}

/// The registration half of a [`Publisher`], detached for concurrency:
/// token verification, condition lookup and OCBE envelope composition are
/// read-only against materials captured at build time, and CSS issuance
/// goes through the shared sharded table — so `register_batch` takes `&self`
/// and any number of threads can serve registrations at once, each
/// contending only for its subscriber's table shard.
///
/// Obtain via [`Publisher::registrar`]; rebuild after any publisher
/// mutation (the captured condition list is a snapshot).
pub struct Registrar<G: CyclicGroup> {
    pub(crate) ocbe: OcbeSystem<G>,
    pub(crate) idmgr_key: VerifyingKey<G>,
    pub(crate) conditions: Vec<AttributeCondition>,
    pub(crate) table: Arc<ShardedCssTable>,
}

impl<G: CyclicGroup> Registrar<G> {
    /// The OCBE deployment parameters (for decoding requests and encoding
    /// responses).
    pub fn ocbe(&self) -> &OcbeSystem<G> {
        &self.ocbe
    }

    /// Registration (paper §V-B) of one request or a cohort, the one entry
    /// point. Authenticates every token with **one** random-linear-
    /// combination Schnorr check ([`pbcd_group::verify_batch`]: the plain
    /// prepared-key check for a single item, otherwise a single
    /// multi-scalar multiplication of width `n + 2`, one `Rᵢ` term per
    /// item, one term for the IdMgr key every token carries, whose
    /// coefficients are summed, and the generator). Then, per item, it
    /// generates a fresh CSS for `(nym, cond)`, records it in `T`, and
    /// composes the OCBE envelope that delivers the CSS iff the committed
    /// value satisfies the condition; the publisher never learns whether
    /// it did. Outcomes are per item and independent: a forged token costs
    /// only its own item (when the combined check fails, per-item
    /// verification attributes the failure; a lone item's check already
    /// was its own), and the rest register normally.
    pub fn register_batch<R: RngCore + ?Sized>(
        &self,
        items: &[RegisterRequest<G>],
        rng: &mut R,
    ) -> Vec<Result<Envelope<G>, PbcdError>> {
        let group = self.ocbe.group();
        let pedersen = self.ocbe.pedersen();
        let payloads: Vec<Vec<u8>> = items
            .iter()
            .map(|r| {
                token_signing_payload(pedersen, &r.token.nym, &r.token.id_tag, &r.token.commitment)
            })
            .collect();
        let batch: Vec<(&VerifyingKey<G>, &[u8], &Signature<G>)> = items
            .iter()
            .zip(&payloads)
            .map(|(r, payload)| (&self.idmgr_key, payload.as_slice(), &r.token.signature))
            .collect();
        let all_valid = verify_batch(group, &batch);
        items
            .iter()
            .zip(&payloads)
            .map(|(RegisterRequest { token, cond, proof }, payload)| {
                let verify = || self.idmgr_key.verify(group, payload, &token.signature);
                if !all_valid && (items.len() == 1 || !verify()) {
                    return Err(PbcdError::BadTokenSignature);
                }
                if token.id_tag != cond.attribute {
                    return Err(PbcdError::TagMismatch {
                        token_tag: token.id_tag.clone(),
                        condition_attribute: cond.attribute.clone(),
                    });
                }
                if !self.conditions.contains(cond) {
                    return Err(PbcdError::UnknownCondition);
                }
                // Fresh CSS, recorded unconditionally: `T` over-approximates
                // — only qualified subscribers can actually open the
                // envelope.
                let css = self.table.issue(&Nym::new(&token.nym), cond, rng);
                let predicate = cond.predicate();
                let envelope =
                    self.ocbe
                        .sender_compose(&token.commitment, &predicate, proof, &css, rng)?;
                Ok(envelope)
            })
            .collect()
    }
}
