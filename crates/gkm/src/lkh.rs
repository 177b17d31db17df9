//! Logical Key Hierarchy (Wong–Lam "Keystone" / OFT family; paper §II) —
//! the classic stateful GKM baseline.
//!
//! A binary tree of keys: each member holds the keys on its leaf-to-root
//! path; the root key is the group key. Joins and leaves replace the keys
//! on one path and broadcast each new key encrypted under its children's
//! keys — O(log n) rekey messages, but **members must track state**, the
//! very property the paper's ACV-BGKM eliminates (its rekey is stateless
//! for subscribers). Benches compare rekey message counts and sizes.

use pbcd_crypto::{derive_key, AuthKey};
use rand::RngCore;
use std::collections::BTreeMap;

/// A broadcast rekey message: the new key of `node`, wrapped under the
/// current key of `wrapping_node`.
#[derive(Debug, Clone)]
pub struct RekeyMessage {
    /// Tree node whose key changed.
    pub node: usize,
    /// Node whose key encrypts the payload (a child of `node`).
    pub wrapping_node: usize,
    /// Authenticated ciphertext of the new key.
    pub wrapped: Vec<u8>,
}

/// Publisher-side LKH state: a fixed-capacity complete binary tree.
pub struct LkhPublisher {
    capacity: usize,
    /// Keys for all `2·capacity − 1` nodes (`None` = vacant subtree).
    keys: Vec<Option<Vec<u8>>>,
    members: BTreeMap<String, usize>,
    free_leaves: Vec<usize>,
}

/// Member-side LKH state: the keys this member currently knows.
pub struct LkhMember {
    leaf: usize,
    keys: BTreeMap<usize, Vec<u8>>,
}

const KEY_LEN: usize = 16;

impl LkhPublisher {
    /// Creates a tree with capacity for `capacity` members (rounded up to a
    /// power of two).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2).next_power_of_two();
        let first_leaf = capacity - 1;
        Self {
            capacity,
            keys: vec![None; 2 * capacity - 1],
            members: BTreeMap::new(),
            free_leaves: (first_leaf..2 * capacity - 1).rev().collect(),
        }
    }

    /// Current group key (root), if any member exists.
    pub fn group_key(&self) -> Option<&Vec<u8>> {
        self.keys[0].as_ref()
    }

    /// Adds a member whose leaf key both sides derive from its CSS.
    /// Returns the member's initial state and the broadcast rekey messages
    /// (the new member's path keys are wrapped under its leaf key, so the
    /// same broadcast serves old and new members; backward secrecy holds
    /// because all path keys are replaced).
    pub fn join<R: RngCore + ?Sized>(
        &mut self,
        nym: &str,
        css: &[u8],
        rng: &mut R,
    ) -> Option<(LkhMember, Vec<RekeyMessage>)> {
        if self.members.contains_key(nym) {
            return None;
        }
        let leaf = self.free_leaves.pop()?;
        let leaf_key = derive_key(css, "pbcd-lkh-leaf", KEY_LEN);
        self.keys[leaf] = Some(leaf_key.clone());
        self.members.insert(nym.to_string(), leaf);
        let messages = self.refresh_path(leaf, rng);
        let mut member = LkhMember {
            leaf,
            keys: BTreeMap::from([(leaf, leaf_key)]),
        };
        member.apply(&messages);
        Some((member, messages))
    }

    /// Removes a member and refreshes its path (forward secrecy).
    pub fn leave<R: RngCore + ?Sized>(
        &mut self,
        nym: &str,
        rng: &mut R,
    ) -> Option<Vec<RekeyMessage>> {
        let leaf = self.members.remove(nym)?;
        self.keys[leaf] = None;
        self.free_leaves.push(leaf);
        Some(self.refresh_path(leaf, rng))
    }

    /// Replaces every key on the path from `leaf`'s parent to the root,
    /// wrapping each new key under the keys of the node's occupied
    /// children.
    fn refresh_path<R: RngCore + ?Sized>(&mut self, leaf: usize, rng: &mut R) -> Vec<RekeyMessage> {
        let mut messages = Vec::new();
        let mut node = leaf;
        while node != 0 {
            node = (node - 1) / 2;
            let (l, r) = (2 * node + 1, 2 * node + 2);
            if self.keys[l].is_none() && self.keys[r].is_none() {
                self.keys[node] = None;
                continue;
            }
            let mut new_key = vec![0u8; KEY_LEN];
            rng.fill_bytes(&mut new_key);
            for child in [l, r] {
                if let Some(child_key) = &self.keys[child] {
                    let wrap = AuthKey::from_master(child_key);
                    messages.push(RekeyMessage {
                        node,
                        wrapping_node: child,
                        wrapped: wrap.encrypt(rng, &new_key),
                    });
                }
            }
            self.keys[node] = Some(new_key);
        }
        messages
    }

    /// Tree capacity (leaves).
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl LkhMember {
    /// Applies a broadcast rekey batch, learning every new path key it is
    /// entitled to. Iterates to a fixpoint because a batch may wrap a
    /// parent key under another key from the same batch.
    pub fn apply(&mut self, messages: &[RekeyMessage]) {
        loop {
            let mut progressed = false;
            for msg in messages {
                if self.keys.contains_key(&msg.node) {
                    // Key already replaced this round? Only replace once per
                    // batch: later wraps of the same node carry the same key.
                    continue;
                }
                if let Some(wrapping) = self.keys.get(&msg.wrapping_node) {
                    if let Ok(new_key) = AuthKey::from_master(wrapping).decrypt(&msg.wrapped) {
                        self.keys.insert(msg.node, new_key);
                        progressed = true;
                    }
                }
            }
            if !progressed {
                return;
            }
        }
    }

    /// Applies a batch that *replaces* keys this member already holds
    /// (leave rekeys): stale path keys are dropped first.
    pub fn apply_replacing(&mut self, messages: &[RekeyMessage]) {
        let replaced: Vec<usize> = messages.iter().map(|m| m.node).collect();
        for node in replaced {
            self.keys.remove(&node);
        }
        self.apply(messages);
    }

    /// The member's view of the group key.
    pub fn group_key(&self) -> Option<&Vec<u8>> {
        self.keys.get(&0)
    }

    /// The member's leaf node index.
    pub fn leaf(&self) -> usize {
        self.leaf
    }

    /// Number of keys held — O(log capacity).
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1000)
    }

    #[test]
    fn join_establishes_shared_group_key() {
        let mut pubr = LkhPublisher::new(8);
        let mut r = rng();
        let (alice, _) = pubr.join("alice", b"css-alice", &mut r).unwrap();
        assert_eq!(alice.group_key(), pubr.group_key());
        let (bob, msgs) = pubr.join("bob", b"css-bob", &mut r).unwrap();
        assert_eq!(bob.group_key(), pubr.group_key());
        assert!(!msgs.is_empty());
    }

    #[test]
    fn existing_members_follow_joins() {
        let mut pubr = LkhPublisher::new(8);
        let mut r = rng();
        let (mut alice, _) = pubr.join("alice", b"a", &mut r).unwrap();
        let (bob, msgs) = pubr.join("bob", b"b", &mut r).unwrap();
        alice.apply_replacing(&msgs);
        assert_eq!(alice.group_key(), pubr.group_key());
        assert_eq!(bob.group_key(), pubr.group_key());
    }

    #[test]
    fn backward_secrecy_on_join() {
        let mut pubr = LkhPublisher::new(8);
        let mut r = rng();
        let (alice, _) = pubr.join("alice", b"a", &mut r).unwrap();
        let old_root = pubr.group_key().unwrap().clone();
        let (carol, _) = pubr.join("carol", b"c", &mut r).unwrap();
        // Carol cannot know the pre-join key; the root changed.
        assert_ne!(pubr.group_key().unwrap(), &old_root);
        assert_eq!(carol.group_key(), pubr.group_key());
        let _ = alice;
    }

    #[test]
    fn forward_secrecy_on_leave() {
        let mut pubr = LkhPublisher::new(8);
        let mut r = rng();
        let (mut alice, _) = pubr.join("alice", b"a", &mut r).unwrap();
        let (bob, m2) = pubr.join("bob", b"b", &mut r).unwrap();
        alice.apply_replacing(&m2);
        let mut bob = bob;
        let msgs = pubr.leave("alice", &mut r).unwrap();
        bob.apply_replacing(&msgs);
        assert_eq!(bob.group_key(), pubr.group_key());
        // Alice processes the same broadcast but cannot decrypt the new
        // path keys (her leaf key no longer wraps anything).
        let mut stale_alice_keys = alice.keys.clone();
        alice.apply_replacing(&msgs);
        assert_ne!(alice.group_key(), pubr.group_key());
        stale_alice_keys.remove(&0);
        let _ = stale_alice_keys;
    }

    #[test]
    fn rekey_messages_are_logarithmic() {
        let mut pubr = LkhPublisher::new(64);
        let mut r = rng();
        let mut members = Vec::new();
        for i in 0..64 {
            let nym = format!("m{i}");
            let css = format!("css{i}");
            let (m, msgs) = pubr.join(&nym, css.as_bytes(), &mut r).unwrap();
            for existing in &mut members {
                let m: &mut LkhMember = existing;
                m.apply_replacing(&msgs);
            }
            members.push(m);
        }
        // A leave in a full 64-leaf tree touches log2(64) = 6 path nodes,
        // each wrapped under ≤ 2 children ⇒ ≤ 12 messages.
        let msgs = pubr.leave("m13", &mut r).unwrap();
        assert!(msgs.len() <= 12, "got {} messages", msgs.len());
        assert!(msgs.len() >= 6);
        // Everyone else still follows.
        for (i, m) in members.iter_mut().enumerate() {
            if i == 13 {
                continue;
            }
            m.apply_replacing(&msgs);
            assert_eq!(m.group_key(), pubr.group_key(), "member {i}");
        }
    }

    #[test]
    fn member_state_is_logarithmic() {
        let mut pubr = LkhPublisher::new(64);
        let mut r = rng();
        let (m, _) = pubr.join("x", b"css", &mut r).unwrap();
        // Leaf + path to root: ≤ log2(64) + 1 = 7 keys.
        assert!(m.key_count() <= 7);
    }

    #[test]
    fn capacity_exhaustion_and_duplicate_joins() {
        let mut pubr = LkhPublisher::new(2);
        let mut r = rng();
        assert!(pubr.join("a", b"a", &mut r).is_some());
        assert!(pubr.join("a", b"a2", &mut r).is_none(), "duplicate nym");
        assert!(pubr.join("b", b"b", &mut r).is_some());
        assert!(pubr.join("c", b"c", &mut r).is_none(), "tree full");
        assert!(pubr.leave("a", &mut r).is_some());
        assert!(pubr.join("c", b"c", &mut r).is_some(), "slot reclaimed");
        assert!(pubr.leave("zz", &mut r).is_none());
    }
}
