//! The [`BroadcastGkm`] trait — the formalized version of the
//! publisher/subscriber contract that every stateless broadcast-GKM scheme
//! in this crate follows (the "seam" documented in `docs/ARCHITECTURE.md`):
//!
//! ```text
//! publisher:   rekey(&[AccessRow], rng)            -> (group_key, PublicInfo)
//! subscriber:  derive_key(&PublicInfo, nym, css)   -> Option<candidate key>
//! ```
//!
//! The associated `PublicInfo` is exactly *what is broadcast in the clear*
//! — the part that distinguishes the schemes — and every implementation
//! ships a strict wire codec for it so containers can carry the key
//! material as an opaque blob regardless of scheme. `derive_key` returns an
//! `Option` because some schemes (marker, simplistic) can signal
//! non-membership directly; schemes that cannot (ACV-BGKM, secure lock)
//! always return `Some` candidate and rely on the authenticated encryption
//! layer above to reject wrong keys.
//!
//! LKH is deliberately *not* implementable here: its rekey must emit
//! per-member messages, which is the statefulness the paper's scheme
//! eliminates.

use crate::acv::{AccessRow, AcvBgkm};
use crate::marker::MarkerGkm;
use crate::secure_lock::SecureLockGkm;
use crate::sharded::ShardedAcvBgkm;
use crate::simplistic::SimplisticGkm;
use rand::RngCore;

/// A broadcast group-key-management scheme with transparent rekey: the
/// publisher derives fresh `(key, public info)` from the current access
/// rows, and qualified subscribers re-derive the key from the public info
/// plus their secrets — nothing is ever sent to an individual subscriber.
///
/// `Send + Sync` are supertraits so publishers can rekey configurations on
/// parallel threads (§VII) and network adapters can share schemes across
/// connection handlers; every scheme here is immutable deployment data.
pub trait BroadcastGkm: Clone + Send + Sync {
    /// The scheme's broadcast key material (`X, z₁…z_N` for ACV-BGKM,
    /// masked words for the marker scheme, the CRT lock, …).
    type PublicInfo: Clone + PartialEq + core::fmt::Debug;

    /// Length in bytes of the keys this scheme produces.
    fn key_len(&self) -> usize;

    /// Publisher: draws a fresh group key and the public info that lets
    /// exactly the subscribers behind `rows` re-derive it.
    fn rekey<R: RngCore + ?Sized>(
        &self,
        rows: &[AccessRow],
        rng: &mut R,
    ) -> (Vec<u8>, Self::PublicInfo);

    /// Subscriber: candidate key from the public info, the subscriber's
    /// pseudonym and its CSS concatenation. `None` when the scheme itself
    /// can tell the subscriber is not a member; `Some` of a (possibly
    /// wrong) candidate otherwise.
    fn derive_key(&self, info: &Self::PublicInfo, nym: &str, css_concat: &[u8]) -> Option<Vec<u8>>;

    /// Serializes the public info for embedding into a broadcast container.
    fn encode_info(&self, info: &Self::PublicInfo) -> Vec<u8>;

    /// Strict parse of [`Self::encode_info`] output; `None` on any
    /// truncation, corruption or trailing garbage — never panics.
    fn decode_info(&self, data: &[u8]) -> Option<Self::PublicInfo>;

    /// Broadcast size of the public info in bytes (the paper's Figure 5
    /// metric; may count compressed field elements rather than the exact
    /// wire encoding).
    fn public_size(&self, info: &Self::PublicInfo) -> usize;
}

impl BroadcastGkm for AcvBgkm {
    type PublicInfo = crate::acv::AcvPublicInfo;

    fn key_len(&self) -> usize {
        AcvBgkm::key_len(self)
    }

    fn rekey<R: RngCore + ?Sized>(
        &self,
        rows: &[AccessRow],
        rng: &mut R,
    ) -> (Vec<u8>, Self::PublicInfo) {
        AcvBgkm::rekey(self, rows, rng)
    }

    fn derive_key(
        &self,
        info: &Self::PublicInfo,
        _nym: &str,
        css_concat: &[u8],
    ) -> Option<Vec<u8>> {
        // ACV-BGKM cannot signal non-membership; the candidate is checked
        // by authenticated decryption above. A hand-built info of the wrong
        // shape has no candidate.
        info.is_well_formed()
            .then(|| AcvBgkm::derive_key(self, info, css_concat))
    }

    fn encode_info(&self, info: &Self::PublicInfo) -> Vec<u8> {
        info.encode()
    }

    fn decode_info(&self, data: &[u8]) -> Option<Self::PublicInfo> {
        Self::PublicInfo::decode(data)
    }

    fn public_size(&self, info: &Self::PublicInfo) -> usize {
        info.size_bytes_compressed(self.field().modulus_bits())
    }
}

impl BroadcastGkm for ShardedAcvBgkm {
    type PublicInfo = crate::sharded::ShardedPublicInfo;

    fn key_len(&self) -> usize {
        ShardedAcvBgkm::key_len(self)
    }

    fn rekey<R: RngCore + ?Sized>(
        &self,
        rows: &[AccessRow],
        rng: &mut R,
    ) -> (Vec<u8>, Self::PublicInfo) {
        ShardedAcvBgkm::rekey(self, rows, rng)
    }

    fn derive_key(&self, info: &Self::PublicInfo, nym: &str, css_concat: &[u8]) -> Option<Vec<u8>> {
        ShardedAcvBgkm::derive_key(self, info, nym, css_concat)
    }

    fn encode_info(&self, info: &Self::PublicInfo) -> Vec<u8> {
        info.encode()
    }

    fn decode_info(&self, data: &[u8]) -> Option<Self::PublicInfo> {
        Self::PublicInfo::decode(data)
    }

    fn public_size(&self, info: &Self::PublicInfo) -> usize {
        ShardedAcvBgkm::public_size(self, info)
    }
}

impl BroadcastGkm for MarkerGkm {
    type PublicInfo = crate::marker::MarkerPublicInfo;

    fn key_len(&self) -> usize {
        MarkerGkm::key_len(self)
    }

    fn rekey<R: RngCore + ?Sized>(
        &self,
        rows: &[AccessRow],
        rng: &mut R,
    ) -> (Vec<u8>, Self::PublicInfo) {
        MarkerGkm::rekey(self, rows, rng)
    }

    fn derive_key(
        &self,
        info: &Self::PublicInfo,
        _nym: &str,
        css_concat: &[u8],
    ) -> Option<Vec<u8>> {
        MarkerGkm::derive_key(self, info, css_concat)
    }

    fn encode_info(&self, info: &Self::PublicInfo) -> Vec<u8> {
        info.encode()
    }

    fn decode_info(&self, data: &[u8]) -> Option<Self::PublicInfo> {
        Self::PublicInfo::decode(data)
    }

    fn public_size(&self, info: &Self::PublicInfo) -> usize {
        MarkerGkm::public_size(self, info)
    }
}

impl BroadcastGkm for SecureLockGkm {
    type PublicInfo = crate::secure_lock::LockPublicInfo;

    fn key_len(&self) -> usize {
        SecureLockGkm::key_len(self)
    }

    fn rekey<R: RngCore + ?Sized>(
        &self,
        rows: &[AccessRow],
        rng: &mut R,
    ) -> (Vec<u8>, Self::PublicInfo) {
        SecureLockGkm::rekey(self, rows, rng)
    }

    fn derive_key(
        &self,
        info: &Self::PublicInfo,
        _nym: &str,
        css_concat: &[u8],
    ) -> Option<Vec<u8>> {
        // Like ACV-BGKM, the lock yields a candidate for everyone.
        Some(SecureLockGkm::derive_key(self, info, css_concat))
    }

    fn encode_info(&self, info: &Self::PublicInfo) -> Vec<u8> {
        info.encode()
    }

    fn decode_info(&self, data: &[u8]) -> Option<Self::PublicInfo> {
        Self::PublicInfo::decode(data)
    }

    fn public_size(&self, info: &Self::PublicInfo) -> usize {
        SecureLockGkm::public_size(self, info)
    }
}

impl BroadcastGkm for SimplisticGkm {
    type PublicInfo = crate::simplistic::SimplisticPublicInfo;

    fn key_len(&self) -> usize {
        SimplisticGkm::key_len(self)
    }

    fn rekey<R: RngCore + ?Sized>(
        &self,
        rows: &[AccessRow],
        rng: &mut R,
    ) -> (Vec<u8>, Self::PublicInfo) {
        SimplisticGkm::rekey(self, rows, rng)
    }

    fn derive_key(&self, info: &Self::PublicInfo, nym: &str, css_concat: &[u8]) -> Option<Vec<u8>> {
        SimplisticGkm::derive_key(self, info, nym, css_concat)
    }

    fn encode_info(&self, info: &Self::PublicInfo) -> Vec<u8> {
        info.encode()
    }

    fn decode_info(&self, data: &[u8]) -> Option<Self::PublicInfo> {
        Self::PublicInfo::decode(data)
    }

    fn public_size(&self, info: &Self::PublicInfo) -> usize {
        SimplisticGkm::public_size(self, info)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1500)
    }

    fn rows<R: Rng>(r: &mut R, n: usize) -> Vec<AccessRow> {
        (0..n)
            .map(|i| {
                let mut css = vec![0u8; 16];
                r.fill_bytes(&mut css);
                AccessRow {
                    nym: format!("pn-{i:03}"),
                    css_concat: css,
                }
            })
            .collect()
    }

    /// Exercises the whole trait surface for one scheme: members derive the
    /// key through an encode/decode round-trip of the public info, an
    /// outsider does not, and corrupting/truncating the encoding yields
    /// `None` rather than a panic.
    fn exercise<S: BroadcastGkm>(scheme: &S) {
        let mut r = rng();
        let members = rows(&mut r, 7);
        let (key, info) = scheme.rekey(&members, &mut r);
        assert_eq!(key.len(), scheme.key_len());
        assert!(scheme.public_size(&info) > 0);

        let enc = scheme.encode_info(&info);
        let back = scheme.decode_info(&enc).expect("round-trip");
        assert_eq!(back, info);

        for row in &members {
            assert_eq!(
                scheme.derive_key(&back, &row.nym, &row.css_concat),
                Some(key.clone()),
                "member must derive through the wire round-trip"
            );
        }
        let mut outsider = vec![0u8; 16];
        r.fill_bytes(&mut outsider);
        assert_ne!(
            scheme.derive_key(&back, "pn-outsider", &outsider),
            Some(key.clone())
        );

        for cut in 0..enc.len() {
            let _ = scheme.decode_info(&enc[..cut]); // must not panic
        }
        let mut extra = enc.clone();
        extra.push(0);
        assert_eq!(scheme.decode_info(&extra), None, "trailing byte rejected");
    }

    #[test]
    fn acv_satisfies_the_contract() {
        exercise(&AcvBgkm::default());
    }

    #[test]
    fn sharded_acv_satisfies_the_contract() {
        exercise(&ShardedAcvBgkm::new(AcvBgkm::default(), 3));
    }

    /// A hand-built ACV info whose `x` is not one entry longer than its
    /// nonces derives nothing, alone or as a shard, instead of panicking.
    #[test]
    fn malformed_acv_info_derives_nothing() {
        let malformed = crate::AcvPublicInfo {
            x: vec![],
            zs: vec![vec![7u8; 16]],
        };
        let acv = AcvBgkm::default();
        assert_eq!(
            BroadcastGkm::derive_key(&acv, &malformed, "pn-000", b"css"),
            None
        );
        let sharded = ShardedAcvBgkm::new(acv, 3);
        let info = crate::sharded::ShardedPublicInfo {
            num_shards: 1,
            shards: vec![malformed],
        };
        assert_eq!(
            BroadcastGkm::derive_key(&sharded, &info, "pn-000", b"css"),
            None
        );
    }

    #[test]
    fn marker_satisfies_the_contract() {
        exercise(&MarkerGkm::new());
    }

    #[test]
    fn secure_lock_satisfies_the_contract() {
        exercise(&SecureLockGkm::new());
    }

    #[test]
    fn simplistic_satisfies_the_contract() {
        exercise(&SimplisticGkm::new());
    }
}
