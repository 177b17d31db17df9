//! HMAC-SHA-256 (RFC 2104 over [`Sha256`]).

use crate::sha256::{sha256, Sha256};

/// SHA-256's block length: the HMAC key-padding unit.
const BLOCK_LEN: usize = 64;

/// Streaming HMAC-SHA-256.
pub struct Hmac {
    inner: Sha256,
    outer_key: [u8; BLOCK_LEN],
}

impl Hmac {
    /// Creates an HMAC instance keyed with `key` (any length).
    pub fn new(key: &[u8]) -> Self {
        let mut padded = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let digest = sha256(key);
            padded[..digest.len()].copy_from_slice(&digest);
        } else {
            padded[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        inner.update(&padded.map(|b| b ^ 0x36));
        Self {
            inner,
            outer_key: padded.map(|b| b ^ 0x5c),
        }
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes and returns the 32-byte tag.
    pub fn finalize(self) -> [u8; 32] {
        let mut outer = Sha256::new();
        outer.update(&self.outer_key);
        outer.update(&self.inner.finalize());
        outer.finalize()
    }
}

/// One-shot HMAC-SHA-256.
pub fn hmac(key: &[u8], data: &[u8]) -> [u8; 32] {
    let mut mac = Hmac::new(key);
    mac.update(data);
    mac.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test vectors for HMAC-SHA-256.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        assert_eq!(
            hex(&hmac(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        assert_eq!(
            hex(&hmac(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3_long_data() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            hex(&hmac(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        assert_eq!(
            hex(&hmac(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let key = b"streaming key";
        let data = b"hello hmac world, split across updates";
        let mut mac = Hmac::new(key);
        mac.update(&data[..10]);
        mac.update(&data[10..]);
        assert_eq!(mac.finalize(), hmac(key, data));
    }
}
