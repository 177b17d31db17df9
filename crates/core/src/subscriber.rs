//! The Subscriber (paper §III): holds identity tokens and openings, runs
//! the receiver side of registration, and decrypts broadcasts with keys
//! derived from its CSSs — no key ever arrives on a channel.

use crate::error::PbcdError;
use crate::token::IdentityToken;
use pbcd_commit::Opening;
use pbcd_crypto::AuthKey;
use pbcd_docs::{parse, reassemble, BroadcastContainer, Element};
use pbcd_gkm::{AcvBgkm, BroadcastGkm};
use pbcd_group::CyclicGroup;
use pbcd_ocbe::{Envelope, OcbeSystem, ProofMessage, ProofSecrets};
use pbcd_policy::{AttributeCondition, AttributeSet, PolicySet};
use rand::RngCore;
use std::collections::BTreeMap;

/// The Subscriber, generic over the broadcast GKM scheme (default: the
/// paper's ACV-BGKM). The scheme must match the publisher's.
pub struct Subscriber<G: CyclicGroup, K: BroadcastGkm = AcvBgkm> {
    nym: Option<String>,
    /// The subscriber's private attribute values (never sent anywhere).
    attributes: AttributeSet,
    /// id-tag → (token, opening).
    tokens: BTreeMap<String, (IdentityToken<G>, Opening)>,
    /// Conditions whose CSS was successfully extracted.
    css_store: BTreeMap<AttributeCondition, Vec<u8>>,
    gkm: K,
}

impl<G: CyclicGroup> Subscriber<G> {
    /// Creates an ACV-BGKM subscriber with its private attribute set.
    pub fn new(attributes: AttributeSet) -> Self {
        Self::with_gkm(attributes, AcvBgkm::default())
    }
}

impl<G: CyclicGroup, K: BroadcastGkm> Subscriber<G, K> {
    /// Creates a subscriber deriving keys with an explicit GKM scheme.
    pub fn with_gkm(attributes: AttributeSet, gkm: K) -> Self {
        Self {
            nym: None,
            attributes,
            tokens: BTreeMap::new(),
            css_store: BTreeMap::new(),
            gkm,
        }
    }

    /// The subscriber's pseudonym, once a token has been installed.
    pub fn nym(&self) -> Option<&str> {
        self.nym.as_deref()
    }

    /// The private attribute set.
    pub fn attributes(&self) -> &AttributeSet {
        &self.attributes
    }

    /// Installs an identity token received from the IdMgr.
    ///
    /// All of a subscriber's tokens must carry the same pseudonym; a
    /// mismatched-nym token is rejected with [`PbcdError::NymMismatch`]
    /// (in release builds it would otherwise silently corrupt the CSS
    /// store, since stored CSSs are keyed by the first-installed nym).
    pub fn install_token(
        &mut self,
        token: IdentityToken<G>,
        opening: Opening,
    ) -> Result<(), PbcdError> {
        match &self.nym {
            Some(n) if *n != token.nym => {
                return Err(PbcdError::NymMismatch {
                    expected: n.clone(),
                    got: token.nym.clone(),
                })
            }
            Some(_) => {}
            None => self.nym = Some(token.nym.clone()),
        }
        self.tokens.insert(token.id_tag.clone(), (token, opening));
        Ok(())
    }

    /// Installs a §VI-A decoy token for an attribute this subscriber does
    /// not actually hold, letting it register for conditions on that
    /// attribute (hiding which attributes it possesses) without ever being
    /// able to open the envelopes.
    pub fn install_decoy_token(
        &mut self,
        token: IdentityToken<G>,
        opening: Opening,
        decoy_value: u64,
    ) -> Result<(), PbcdError> {
        let tag = token.id_tag.clone();
        self.install_token(token, opening)?;
        self.attributes.set(&tag, decoy_value);
        Ok(())
    }

    /// The token for an attribute, if any.
    pub fn token_for(&self, attribute: &str) -> Option<&IdentityToken<G>> {
        self.tokens.get(attribute).map(|(t, _)| t)
    }

    /// Number of CSSs successfully extracted so far.
    pub fn css_count(&self) -> usize {
        self.css_store.len()
    }

    /// True iff the CSS for `cond` was extracted.
    pub fn has_css(&self, cond: &AttributeCondition) -> bool {
        self.css_store.contains_key(cond)
    }

    /// Receiver phase 1 of registration for one condition: build the OCBE
    /// proof message from the matching token.
    ///
    /// Low-level primitive: prefer [`crate::session::RegistrationSession`],
    /// which pairs this with [`Self::complete_registration`] through the
    /// type system and speaks the byte-level [`crate::proto`] messages.
    pub fn prepare_registration<R: RngCore + ?Sized>(
        &self,
        ocbe: &OcbeSystem<G>,
        cond: &AttributeCondition,
        rng: &mut R,
    ) -> Result<(ProofMessage<G>, ProofSecrets), PbcdError> {
        let (_, opening) = self
            .tokens
            .get(&cond.attribute)
            .ok_or_else(|| PbcdError::MissingToken(cond.attribute.clone()))?;
        let x = self
            .attributes
            .get(&cond.attribute)
            .ok_or_else(|| PbcdError::MissingToken(cond.attribute.clone()))?;
        Ok(ocbe.receiver_prepare(x, opening, &cond.predicate(), rng)?)
    }

    /// Receiver phase 2: try to open the envelope; store the CSS on
    /// success. Returns whether the CSS was extracted — information only
    /// the subscriber ever has.
    ///
    /// Low-level primitive: prefer [`crate::session::PendingRegistration`],
    /// which makes completing an unstarted registration (or reusing proof
    /// secrets) a compile-time error.
    pub fn complete_registration(
        &mut self,
        ocbe: &OcbeSystem<G>,
        cond: &AttributeCondition,
        envelope: &Envelope<G>,
        secrets: &ProofSecrets,
    ) -> bool {
        let Some((_, opening)) = self.tokens.get(&cond.attribute) else {
            return false;
        };
        match ocbe.receiver_open(envelope, opening, secrets) {
            Some(css) => {
                self.css_store.insert(cond.clone(), css);
                true
            }
            None => false,
        }
    }

    /// Directly installs a CSS (test hook for adversarial scenarios).
    pub fn inject_css(&mut self, cond: &AttributeCondition, css: Vec<u8>) {
        self.css_store.insert(cond.clone(), css);
    }

    /// A copy of the stored CSS for `cond` (test hook for collusion
    /// scenarios — a real subscriber has no reason to export secrets).
    pub fn css_snapshot(&self, cond: &AttributeCondition) -> Option<Vec<u8>> {
        self.css_store.get(cond).cloned()
    }

    /// Updates a private attribute value (e.g. a promotion); the subscriber
    /// must then obtain a fresh token and re-register to act on it.
    pub fn update_attribute(&mut self, name: &str, value: u64) {
        self.attributes.set(name, value);
    }

    /// The CSS concatenation for an ACP's condition list, if fully held.
    fn css_concat(&self, conds: &[AttributeCondition]) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        for c in conds {
            out.extend_from_slice(self.css_store.get(c)?);
        }
        Some(out)
    }

    /// Decrypts everything this subscriber can from a broadcast and
    /// reassembles the document, redacting the rest.
    ///
    /// For each encrypted group the subscriber identifies the policy
    /// configuration from the (public) document name and segment tags,
    /// picks an ACP whose CSSs it holds, derives the key and decrypts —
    /// exactly the paper's "Decryption Key Derivation" procedure.
    pub fn decrypt_broadcast(
        &self,
        container: &BroadcastContainer,
        policies: &PolicySet,
    ) -> Result<Element, PbcdError> {
        let skeleton = parse(&container.skeleton_xml)?;
        let mut recovered: BTreeMap<u32, Element> = BTreeMap::new();
        for group in &container.groups {
            if group.key_info.is_empty() || group.segments.is_empty() {
                continue;
            }
            // Undecodable key info fails closed: the group stays redacted
            // (like the empty-configuration case above) rather than one
            // corrupted group — e.g. from a hostile broker — erroring out
            // the decryptable remainder of the broadcast.
            let Some(info) = self.gkm.decode_info(&group.key_info) else {
                continue;
            };
            let nym = self.nym.as_deref().unwrap_or("");
            let pc = policies.configuration_in(&container.document_name, &group.segments[0].tag);
            // Try each member ACP whose CSSs we hold until one key checks out.
            for acp_id in pc.acp_ids() {
                let Some(acp) = policies.get(acp_id) else {
                    continue;
                };
                let Some(css_concat) = self.css_concat(&acp.conditions) else {
                    continue;
                };
                let Some(key_bytes) = self.gkm.derive_key(&info, nym, &css_concat) else {
                    continue;
                };
                let key = AuthKey::from_master(&key_bytes);
                let mut ok = true;
                let mut decrypted = Vec::with_capacity(group.segments.len());
                for seg in &group.segments {
                    match key.decrypt(&seg.ciphertext) {
                        Ok(plain) => {
                            let xml = String::from_utf8(plain)
                                .map_err(|_| PbcdError::MalformedKeyInfo)?;
                            decrypted.push((seg.segment_id, parse(&xml)?));
                        }
                        Err(_) => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    recovered.extend(decrypted);
                    break;
                }
            }
        }
        Ok(reassemble(&skeleton, &recovered))
    }

    /// Which segment tags of a broadcast this subscriber could decrypt
    /// (diagnostic helper for examples and tests).
    pub fn accessible_tags(
        &self,
        container: &BroadcastContainer,
        policies: &PolicySet,
    ) -> Vec<String> {
        let Ok(doc) = self.decrypt_broadcast(container, policies) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for group in &container.groups {
            for seg in &group.segments {
                if doc.find(&seg.tag).is_some() {
                    out.push(seg.tag.clone());
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }
}
