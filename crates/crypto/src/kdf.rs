//! HKDF (RFC 5869) over HMAC-SHA-256, plus a tiny labeled-derivation helper.

use crate::hmac::{hmac, Hmac};

/// HKDF-Extract: `PRK = HMAC(salt, ikm)`.
pub fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> Vec<u8> {
    hmac(salt, ikm).to_vec()
}

/// HKDF-Expand: derives `len` bytes from a pseudorandom key and context info.
/// Panics if `len > 255 · 32`.
pub fn hkdf_expand(prk: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    assert!(len <= 255 * 32, "HKDF output too long");
    let mut okm = Vec::with_capacity(len);
    let mut t: Vec<u8> = Vec::new();
    let mut counter = 1u8;
    while okm.len() < len {
        let mut mac = Hmac::new(prk);
        mac.update(&t);
        mac.update(info);
        mac.update(&[counter]);
        t = mac.finalize().to_vec();
        let take = (len - okm.len()).min(t.len());
        okm.extend_from_slice(&t[..take]);
        counter = counter.checked_add(1).expect("HKDF counter overflow");
    }
    okm
}

/// Full HKDF: extract-then-expand.
pub fn hkdf(salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    hkdf_expand(&hkdf_extract(salt, ikm), info, len)
}

/// Derives a subkey of `len` bytes from `master` for a domain-separation
/// `label` — the workspace's uniform way to split a master secret into
/// encryption and MAC keys.
pub fn derive_key(master: &[u8], label: &str, len: usize) -> Vec<u8> {
    hkdf(b"pbcd-kdf-v1", master, label.as_bytes(), len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 5869 Test Case 1.
    #[test]
    fn rfc5869_case1() {
        let ikm = [0x0bu8; 22];
        let salt = from_hex("000102030405060708090a0b0c");
        let info = from_hex("f0f1f2f3f4f5f6f7f8f9");
        let prk = hkdf_extract(&salt, &ikm);
        assert_eq!(
            hex(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let okm = hkdf_expand(&prk, &info, 42);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    // RFC 5869 Test Case 3 (zero-length salt and info).
    #[test]
    fn rfc5869_case3() {
        let ikm = [0x0bu8; 22];
        let okm = hkdf(&[], &ikm, &[], 42);
        assert_eq!(
            hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn expand_lengths() {
        let prk = hkdf_extract(b"salt", b"ikm");
        for len in [1usize, 31, 32, 33, 64, 100] {
            assert_eq!(hkdf_expand(&prk, b"info", len).len(), len);
        }
        // Prefix property: shorter outputs are prefixes of longer ones.
        let long = hkdf_expand(&prk, b"info", 64);
        let short = hkdf_expand(&prk, b"info", 20);
        assert_eq!(&long[..20], &short[..]);
    }

    #[test]
    fn labels_separate_domains() {
        let master = b"master secret";
        let enc = derive_key(master, "enc", 32);
        let mac = derive_key(master, "mac", 32);
        assert_ne!(enc, mac);
        assert_eq!(derive_key(master, "enc", 32), enc);
    }
}
