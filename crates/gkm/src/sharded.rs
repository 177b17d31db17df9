//! Sharded ACV-BGKM (paper §VIII-C): scaling past the O(N³) null-space
//! solve by bucketing subscribers.
//!
//! "The Pub can divide all the involved Subs into multiple groups of a
//! suitable size (e.g., 1000 each), compute a different ACV Y for each
//! group … while the subdocument is still encrypted with one uniform key."
//!
//! Shard assignment hashes the pseudonym, so a subscriber locates its own
//! shard from the broadcast alone — rekeys stay transparent.

use crate::acv::{AccessRow, AcvBgkm, AcvPublicInfo};
use pbcd_crypto::sha256;
use pbcd_docs::wire;
use rand::RngCore;

/// Broadcast public info: one ACV per shard, all carrying the same key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedPublicInfo {
    /// Number of shards (the pseudonym hash modulus).
    pub num_shards: u32,
    /// Per-shard ACV public info, indexed by shard id.
    pub shards: Vec<AcvPublicInfo>,
}

/// Sharded ACV-BGKM.
#[derive(Clone)]
pub struct ShardedAcvBgkm {
    inner: AcvBgkm,
    shard_capacity: usize,
}

impl ShardedAcvBgkm {
    /// Wraps `inner` with a per-shard row capacity.
    pub fn new(inner: AcvBgkm, shard_capacity: usize) -> Self {
        assert!(shard_capacity >= 1, "shard capacity must be positive");
        Self {
            inner,
            shard_capacity,
        }
    }

    /// The underlying single-shard scheme.
    pub fn inner(&self) -> &AcvBgkm {
        &self.inner
    }

    /// Derived key length in bytes.
    pub fn key_len(&self) -> usize {
        self.inner.key_len()
    }

    /// Stable shard assignment for a pseudonym.
    pub fn shard_of(nym: &str, num_shards: u32) -> u32 {
        let digest = sha256(&[b"pbcd-shard:", nym.as_bytes()].concat());
        u32::from_be_bytes(digest[..4].try_into().expect("4 bytes")) % num_shards.max(1)
    }

    /// Publisher: rekeys all shards under one uniform key.
    pub fn rekey<R: RngCore + ?Sized>(
        &self,
        rows: &[AccessRow],
        rng: &mut R,
    ) -> (Vec<u8>, ShardedPublicInfo) {
        let num_shards = rows.len().div_ceil(self.shard_capacity).max(1) as u32;
        let mut buckets: Vec<Vec<AccessRow>> = vec![Vec::new(); num_shards as usize];
        for row in rows {
            buckets[Self::shard_of(&row.nym, num_shards) as usize].push(row.clone());
        }
        let key = self.inner.field().random_nonzero(rng);
        let shards = buckets
            .iter()
            .map(|bucket| self.inner.rekey_with_key(bucket, &key, rng))
            .collect();
        let key_bytes = {
            let bytes = key.to_uint().to_be_bytes();
            bytes[bytes.len() - self.inner.key_len()..].to_vec()
        };
        (key_bytes, ShardedPublicInfo { num_shards, shards })
    }

    /// Subscriber: locates its shard by pseudonym and derives from that
    /// shard's ACV only. `None` when `info` holds no well-formed ACV at
    /// that index (hostile info may disagree with its own `num_shards`, or
    /// carry a shard whose `x` does not have one entry per nonce plus one).
    pub fn derive_key(
        &self,
        info: &ShardedPublicInfo,
        nym: &str,
        css_concat: &[u8],
    ) -> Option<Vec<u8>> {
        let shard = Self::shard_of(nym, info.num_shards) as usize;
        let acv = info.shards.get(shard).filter(|acv| acv.is_well_formed())?;
        Some(self.inner.derive_key(acv, css_concat))
    }

    /// Total broadcast size across shards (compressed field elements).
    pub fn public_size(&self, info: &ShardedPublicInfo) -> usize {
        let bits = self.inner.field().modulus_bits();
        4 + info
            .shards
            .iter()
            .map(|s| s.size_bytes_compressed(bits))
            .sum::<usize>()
    }
}

impl ShardedPublicInfo {
    /// Wire encoding: `num_shards u32 ‖ (len u32 ‖ acv_info)*` — one
    /// [`pbcd_docs::wire`]-length-prefixed [`AcvPublicInfo`] encoding per
    /// shard.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.num_shards.to_be_bytes());
        for shard in &self.shards {
            if wire::put_bytes(&mut out, &shard.encode()).is_err() {
                // A shard above MAX_FIELD_LEN would need ~1M members in a
                // single shard; emit an undecodable encoding over panicking.
                return Vec::new();
            }
        }
        out
    }

    /// Parses the wire encoding via the audited [`pbcd_docs::wire`]
    /// helpers; strict — the shard count must match `num_shards` exactly
    /// (so [`ShardedAcvBgkm::derive_key`] can index by pseudonym hash
    /// without bounds surprises) and be at least 1.
    pub fn decode(data: &[u8]) -> Option<Self> {
        let mut buf = data;
        let num_shards = wire::get_u32(&mut buf).ok()?;
        if num_shards == 0 || num_shards as usize > data.len() / 4 + 1 {
            return None;
        }
        let mut shards = Vec::with_capacity((num_shards as usize).min(1024));
        for _ in 0..num_shards {
            shards.push(AcvPublicInfo::decode(&wire::get_bytes(&mut buf).ok()?)?);
        }
        if !buf.is_empty() {
            return None;
        }
        Some(Self { num_shards, shards })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1100)
    }

    fn rows<R: Rng>(r: &mut R, n: usize) -> Vec<AccessRow> {
        (0..n)
            .map(|i| {
                let mut css = vec![0u8; 16];
                r.fill_bytes(&mut css);
                AccessRow {
                    nym: format!("pn-{i:05}"),
                    css_concat: css,
                }
            })
            .collect()
    }

    #[test]
    fn all_members_derive_across_shards() {
        let s = ShardedAcvBgkm::new(AcvBgkm::default(), 8);
        let mut r = rng();
        let rows = rows(&mut r, 30);
        let (key, info) = s.rekey(&rows, &mut r);
        assert_eq!(info.num_shards, 4); // ceil(30/8)
        for row in &rows {
            assert_eq!(
                s.derive_key(&info, &row.nym, &row.css_concat),
                Some(key.clone())
            );
        }
    }

    #[test]
    fn single_shard_degenerates_to_plain_acv() {
        let s = ShardedAcvBgkm::new(AcvBgkm::default(), 100);
        let mut r = rng();
        let rows = rows(&mut r, 10);
        let (key, info) = s.rekey(&rows, &mut r);
        assert_eq!(info.num_shards, 1);
        for row in &rows {
            assert_eq!(
                s.derive_key(&info, &row.nym, &row.css_concat),
                Some(key.clone())
            );
        }
    }

    #[test]
    fn outsiders_fail() {
        let s = ShardedAcvBgkm::new(AcvBgkm::default(), 4);
        let mut r = rng();
        let rows = rows(&mut r, 12);
        let (key, info) = s.rekey(&rows, &mut r);
        let mut outsider = vec![0u8; 16];
        r.fill_bytes(&mut outsider);
        assert_ne!(
            s.derive_key(&info, "pn-xxxxx", &outsider),
            Some(key.clone())
        );
        // Right CSS in the *wrong* shard also fails.
        let wrong_shard_nym = "completely-different";
        if ShardedAcvBgkm::shard_of(wrong_shard_nym, info.num_shards)
            != ShardedAcvBgkm::shard_of(&rows[0].nym, info.num_shards)
        {
            assert_ne!(
                s.derive_key(&info, wrong_shard_nym, &rows[0].css_concat),
                Some(key)
            );
        }
    }

    #[test]
    fn shard_assignment_is_stable() {
        for n in [1u32, 2, 7, 64] {
            for nym in ["a", "pn-0001", "pn-9999"] {
                assert_eq!(
                    ShardedAcvBgkm::shard_of(nym, n),
                    ShardedAcvBgkm::shard_of(nym, n)
                );
                assert!(ShardedAcvBgkm::shard_of(nym, n) < n);
            }
        }
    }

    #[test]
    fn empty_rows_single_empty_shard() {
        let s = ShardedAcvBgkm::new(AcvBgkm::default(), 4);
        let mut r = rng();
        let (key, info) = s.rekey(&[], &mut r);
        assert_eq!(info.num_shards, 1);
        assert_ne!(s.derive_key(&info, "anyone", b"anything"), Some(key));
    }

    #[test]
    fn info_with_fewer_shards_than_it_names_derives_nothing() {
        let s = ShardedAcvBgkm::new(AcvBgkm::default(), 4);
        let mut r = rng();
        let rows = rows(&mut r, 12);
        let (_, mut info) = s.rekey(&rows, &mut r);
        info.shards.truncate(1);
        let lost = rows
            .iter()
            .find(|row| ShardedAcvBgkm::shard_of(&row.nym, info.num_shards) > 0)
            .expect("some member hashes past shard 0");
        assert_eq!(s.derive_key(&info, &lost.nym, &lost.css_concat), None);
        info.shards.clear();
        assert_eq!(s.derive_key(&info, &rows[0].nym, &rows[0].css_concat), None);
    }
}
