//! ChaCha20 in counter mode (RFC 8439 §2.4): the keystream for blocks
//! `counter, counter + 1, …` XORed over the data.
//!
//! # Constant time
//!
//! Each block is one call of the branch-free [`crate::chacha20`] block
//! function. The only branches look at the data length and the block
//! counter, which are public.

use crate::chacha20::{block, initial_state, BLOCK_LEN, NONCE_LEN};

/// XORs `data` in place with the keystream for `(key, nonce)`, starting at
/// block `counter`. Encryption and decryption are the same call.
///
/// Panics, before touching `data`, if the last block's counter would not fit
/// in 32 bits: 256 GiB minus 64 bytes per nonce from counter 1.
pub fn chacha20_xor(key: &[u8; 32], nonce: &[u8; NONCE_LEN], counter: u32, data: &mut [u8]) {
    let Some(blocks_after_first) = data.len().div_ceil(BLOCK_LEN).checked_sub(1) else {
        return;
    };
    u32::try_from(blocks_after_first)
        .ok()
        .and_then(|n| counter.checked_add(n))
        .expect("ChaCha20 counter exhausted (message too long)");

    let input = initial_state(key, nonce);
    // The last chunk may be short: `zip` stops with it.
    for (chunk, counter) in data.chunks_mut(BLOCK_LEN).zip(counter..=u32::MAX) {
        let keystream = block(&input, counter);
        for (d, k) in chunk.iter_mut().zip(&keystream) {
            *d ^= k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chacha20::chacha20_block;
    use rand::{RngCore, SeedableRng};

    fn hex(s: &str) -> Vec<u8> {
        let s: String = s.split_whitespace().collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn encrypt(key: &[u8; 32], nonce: &[u8; NONCE_LEN], data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        chacha20_xor(key, nonce, 1, &mut out);
        out
    }

    #[test]
    fn rfc8439_encryption() {
        // §2.4.2, counter 1.
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce = hex("000000000000004a00000000").try_into().unwrap();
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        let expected = hex(
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736
             5af90bbf74a35be6b40b8eedf2785e42874d",
        );
        assert_eq!(encrypt(&key, &nonce, plaintext), expected);
    }

    #[test]
    fn roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut key = [0u8; 32];
        rng.fill_bytes(&mut key);
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill_bytes(&mut nonce);
        for len in [0usize, 1, 63, 64, 65, 100, 4096] {
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            let ct = encrypt(&key, &nonce, &data);
            assert_eq!(ct.len(), len);
            if len > 0 {
                assert_ne!(ct, data);
            }
            assert_eq!(encrypt(&key, &nonce, &ct), data);
        }
    }

    #[test]
    fn different_nonces_differ() {
        let key = [7u8; 32];
        let data = vec![0u8; 64];
        let c1 = encrypt(&key, &[1; NONCE_LEN], &data);
        let c2 = encrypt(&key, &[2; NONCE_LEN], &data);
        assert_ne!(c1, c2);
    }

    #[test]
    fn keystream_blocks_are_distinct() {
        // Identical plaintext blocks must encrypt differently (stream mode).
        let data = vec![0xaau8; 3 * BLOCK_LEN];
        let ct = encrypt(&[9u8; 32], &[0; NONCE_LEN], &data);
        assert_ne!(ct[..64], ct[64..128]);
        assert_ne!(ct[64..128], ct[128..]);
    }

    #[test]
    fn partial_final_block() {
        let (key, nonce) = ([1u8; 32], [2u8; NONCE_LEN]);
        let full = encrypt(&key, &nonce, &[0u8; 128]);
        let part = encrypt(&key, &nonce, &[0u8; 80]);
        assert_eq!(&full[..80], &part[..]);
    }

    /// The keystream one block at a time, counters `first..`.
    fn keystream_by_block(key: &[u8; 32], nonce: &[u8; NONCE_LEN], first: u32, n: u32) -> Vec<u8> {
        (0..n)
            .flat_map(|i| chacha20_block(key, first + i, nonce))
            .collect()
    }

    /// One call over up to five blocks against the block function called
    /// once per block.
    #[test]
    fn batches_match_single_blocks_at_every_length() {
        let (key, nonce) = ([4u8; 32], [8u8; NONCE_LEN]);
        let keystream = keystream_by_block(&key, &nonce, 1, 5);
        for len in 0..=keystream.len() {
            let mut data = vec![0u8; len];
            chacha20_xor(&key, &nonce, 1, &mut data);
            assert_eq!(data, keystream[..len], "len {len}");
        }
    }

    #[test]
    fn last_counter_value_is_usable() {
        // Nine and ten blocks from u32::MAX - 9 end below and exactly at
        // u32::MAX.
        let (key, nonce) = ([5u8; 32], [6u8; NONCE_LEN]);
        let first = u32::MAX - 9;
        let keystream = keystream_by_block(&key, &nonce, first, 10);
        for len in [9 * 64, 9 * 64 + 1, 10 * 64 - 1, 10 * 64] {
            let mut data = vec![0u8; len];
            chacha20_xor(&key, &nonce, first, &mut data);
            assert_eq!(data, keystream[..len], "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "ChaCha20 counter exhausted")]
    fn one_block_past_the_last_counter_panics() {
        let mut data = [0u8; 10 * 64 + 1]; // an 11th block from u32::MAX - 9
        chacha20_xor(&[5u8; 32], &[6u8; NONCE_LEN], u32::MAX - 9, &mut data);
    }
}
