//! Property-based tests for the symmetric-crypto substrate.

use pbcd_crypto::{
    chacha20_xor, ct_eq, derive_key, hkdf_expand, hkdf_extract, hmac, sha256, AuthKey, Sha256,
};
use proptest::prelude::*;

/// ChaCha20 from counter 1, as the AEAD encrypts.
fn ctr_encrypt(key: &[u8; 32], nonce: &[u8; 12], data: &[u8]) -> Vec<u8> {
    let mut out = data.to_vec();
    chacha20_xor(key, nonce, 1, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sha256_streaming_equals_oneshot(data in prop::collection::vec(any::<u8>(), 0..2048), split in any::<prop::sample::Index>()) {
        let cut = split.index(data.len() + 1);
        let mut h = Sha256::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn hashes_are_injective_in_practice(a in prop::collection::vec(any::<u8>(), 0..256), b in prop::collection::vec(any::<u8>(), 0..256)) {
        prop_assume!(a != b);
        prop_assert_ne!(sha256(&a), sha256(&b));
    }

    #[test]
    fn hmac_distinct_keys_distinct_tags(key1 in prop::collection::vec(any::<u8>(), 1..64), key2 in prop::collection::vec(any::<u8>(), 1..64), msg in prop::collection::vec(any::<u8>(), 0..256)) {
        prop_assume!(key1 != key2);
        prop_assert_ne!(hmac(&key1, &msg), hmac(&key2, &msg));
    }

    // RFC 2104 key preprocessing: a key longer than the 64-byte block is
    // replaced by its digest, a shorter one is padded with zeros.
    #[test]
    fn hmac_long_key_is_its_digest(key in prop::collection::vec(any::<u8>(), 65..200), msg in prop::collection::vec(any::<u8>(), 0..200)) {
        prop_assert_eq!(hmac(&key, &msg), hmac(&sha256(&key), &msg));
    }

    #[test]
    fn hmac_short_key_is_its_zero_padding(key in prop::collection::vec(any::<u8>(), 0..=64), msg in prop::collection::vec(any::<u8>(), 0..200)) {
        let mut padded = key.clone();
        padded.resize(64, 0);
        prop_assert_eq!(hmac(&key, &msg), hmac(&padded, &msg));
    }

    #[test]
    fn ctr_is_an_involution(key in prop::array::uniform32(any::<u8>()), nonce in prop::array::uniform12(any::<u8>()), data in prop::collection::vec(any::<u8>(), 0..1024)) {
        let ct = ctr_encrypt(&key, &nonce, &data);
        prop_assert_eq!(ctr_encrypt(&key, &nonce, &ct), data);
    }

    #[test]
    fn ctr_prefix_stability(key in prop::array::uniform32(any::<u8>()), nonce in prop::array::uniform12(any::<u8>()), data in prop::collection::vec(any::<u8>(), 1..512), cut in any::<prop::sample::Index>()) {
        // Encrypting a prefix yields the prefix of the encryption.
        let cut = 1 + cut.index(data.len());
        let full = ctr_encrypt(&key, &nonce, &data);
        let part = ctr_encrypt(&key, &nonce, &data[..cut]);
        prop_assert_eq!(&full[..cut], &part[..]);
    }

    #[test]
    fn authenc_roundtrip(master in prop::collection::vec(any::<u8>(), 1..64), pt in prop::collection::vec(any::<u8>(), 0..1024), seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let key = AuthKey::from_master(&master);
        let ct = key.encrypt(&mut rng, &pt);
        prop_assert_eq!(key.decrypt(&ct).unwrap(), pt);
    }

    #[test]
    fn authenc_any_single_bitflip_detected(pt in prop::collection::vec(any::<u8>(), 0..128), pos in any::<prop::sample::Index>(), bit in 0u8..8, seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let key = AuthKey::from_master(b"master");
        let mut ct = key.encrypt(&mut rng, &pt);
        let idx = pos.index(ct.len());
        ct[idx] ^= 1 << bit;
        prop_assert!(key.decrypt(&ct).is_err());
    }

    #[test]
    fn hkdf_prefix_property(prk in prop::collection::vec(any::<u8>(), 32..64), info in prop::collection::vec(any::<u8>(), 0..32), len1 in 1usize..100, len2 in 1usize..100) {
        let (short, long) = if len1 < len2 { (len1, len2) } else { (len2, len1) };
        let a = hkdf_expand(&prk, &info, short);
        let b = hkdf_expand(&prk, &info, long);
        prop_assert_eq!(&b[..short], &a[..]);
    }

    #[test]
    fn kdf_labels_are_domain_separated(master in prop::collection::vec(any::<u8>(), 1..64)) {
        let a = derive_key(&master, "label-a", 32);
        let b = derive_key(&master, "label-b", 32);
        prop_assert_ne!(a, b);
    }

    #[test]
    fn extract_depends_on_salt(ikm in prop::collection::vec(any::<u8>(), 1..64), s1 in prop::collection::vec(any::<u8>(), 1..32), s2 in prop::collection::vec(any::<u8>(), 1..32)) {
        prop_assume!(s1 != s2);
        prop_assert_ne!(hkdf_extract(&s1, &ikm), hkdf_extract(&s2, &ikm));
    }

    #[test]
    fn ct_eq_agrees_with_eq(a in prop::collection::vec(any::<u8>(), 0..64), b in prop::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(ct_eq(&a, &b), a == b);
    }
}
