//! Publisher authentication for the broker: Schnorr verification of
//! `PublishSigned` frames against a configured map of authorized keys,
//! one verification per frame.
//!
//! This is an **availability** mechanism, not a confidentiality one: the
//! paper's construction already guarantees that containers reveal nothing
//! to the broker, but an unauthenticated broker lets any peer wedge a
//! document name (publish junk at epoch `u64::MAX` so the stale-epoch
//! guard then rejects the real publisher) or burn the retention caps.
//! With a key map configured, only holders of an authorized signing key
//! can mutate retained state.
//!
//! The broker holds *verification* halves only — [`PublisherDirectory`]
//! is built from [`VerifyingKey`]s, and nothing in this crate can name a
//! signing key, a token, a proof or an envelope. Compromising the broker
//! still yields exactly an eavesdropper's view.

use crate::error::RejectReason;
use pbcd_group::{CyclicGroup, Signature, VerifyingKey};
use std::collections::BTreeMap;

/// Verdict of a [`PublishAuth`] check, mapped straight onto the typed
/// rejection the broker answers with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthOutcome {
    /// The signature verifies under the named authorized key.
    Accepted,
    /// The claimed key id is not authorized.
    UnknownKey,
    /// The key is known but the signature does not verify.
    BadSignature,
}

impl AuthOutcome {
    /// The typed rejection for a non-accepting outcome.
    pub fn reject_reason(self) -> Option<RejectReason> {
        match self {
            Self::Accepted => None,
            Self::UnknownKey => Some(RejectReason::UnknownPublisher),
            Self::BadSignature => Some(RejectReason::BadSignature),
        }
    }
}

/// The broker's view of publisher authentication: group-erased so
/// [`crate::broker::BrokerConfig`] needs no generic parameter. The one
/// provided implementation is [`PublisherDirectory`]; deployments with
/// external key stores can plug in their own.
pub trait PublishAuth: Send + Sync {
    /// Whether signed publishes are *required*. An empty directory
    /// reports `false` — open mode, where unsigned publishes pass.
    fn is_required(&self) -> bool;

    /// Checks `signature` (encoded `R ‖ s`) over `message` under the key
    /// registered as `key_id`.
    fn check(&self, key_id: &str, message: &[u8], signature: &[u8]) -> AuthOutcome;
}

/// A static map of authorized publisher keys over one group backend.
///
/// Empty directory = open mode ([`PublishAuth::is_required`] is `false`):
/// unsigned publishes are admitted, so a deployment turns keys on once
/// every publisher signs.
pub struct PublisherDirectory<G: CyclicGroup> {
    group: G,
    keys: BTreeMap<String, VerifyingKey<G>>,
}

impl<G: CyclicGroup> PublisherDirectory<G> {
    /// An empty directory (open mode until keys are added).
    pub fn new(group: G) -> Self {
        Self {
            group,
            keys: BTreeMap::new(),
        }
    }

    /// Authorizes `key` under `key_id` (replacing any previous key with
    /// that id) and returns the directory for chaining.
    pub fn with_key(mut self, key_id: impl Into<String>, key: VerifyingKey<G>) -> Self {
        self.authorize(key_id, key);
        self
    }

    /// Authorizes `key` under `key_id`.
    pub fn authorize(&mut self, key_id: impl Into<String>, key: VerifyingKey<G>) {
        self.keys.insert(key_id.into(), key);
    }

    /// Removes an authorization; returns whether it existed.
    pub fn revoke(&mut self, key_id: &str) -> bool {
        self.keys.remove(key_id).is_some()
    }

    /// Number of authorized keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the directory is empty (open mode).
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

impl<G: CyclicGroup> PublishAuth for PublisherDirectory<G> {
    fn is_required(&self) -> bool {
        !self.keys.is_empty()
    }

    fn check(&self, key_id: &str, message: &[u8], signature: &[u8]) -> AuthOutcome {
        let Some(key) = self.keys.get(key_id) else {
            return AuthOutcome::UnknownKey;
        };
        let Some(sig) = Signature::from_bytes(&self.group, signature) else {
            return AuthOutcome::BadSignature;
        };
        if key.verify(&self.group, message, &sig) {
            AuthOutcome::Accepted
        } else {
            AuthOutcome::BadSignature
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::publish_auth_message;
    use pbcd_group::{P256Group, SigningKey};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn directory_checks_signatures_and_key_ids() {
        let group = P256Group::new();
        let mut rng = StdRng::seed_from_u64(90);
        let key = SigningKey::generate(&group, &mut rng);
        let other = SigningKey::generate(&group, &mut rng);
        let dir = PublisherDirectory::new(group.clone()).with_key("pub-1", key.verifying_key());
        assert!(dir.is_required());

        let msg = publish_auth_message("ward.xml", 4, b"container bytes");
        let sig = key.sign(&group, &mut rng, &msg).to_bytes(&group);
        assert_eq!(dir.check("pub-1", &msg, &sig), AuthOutcome::Accepted);
        assert_eq!(dir.check("pub-2", &msg, &sig), AuthOutcome::UnknownKey);
        let forged = other.sign(&group, &mut rng, &msg).to_bytes(&group);
        assert_eq!(dir.check("pub-1", &msg, &forged), AuthOutcome::BadSignature);
        let tampered = publish_auth_message("ward.xml", 5, b"container bytes");
        assert_eq!(
            dir.check("pub-1", &tampered, &sig),
            AuthOutcome::BadSignature
        );
        assert_eq!(
            dir.check("pub-1", &msg, &sig[..sig.len() - 1]),
            AuthOutcome::BadSignature
        );
    }

    #[test]
    fn empty_directory_is_open_mode() {
        let dir = PublisherDirectory::new(P256Group::new());
        assert!(!dir.is_required());
        assert!(dir.is_empty());
    }
}
