//! AES counter (CTR) mode.
//!
//! The counter block is `nonce (12 bytes) ‖ big-endian u32 counter`, the
//! layout used by standard AES-CTR/GCM constructions. Encryption and
//! decryption are the same keystream XOR.

use crate::aes::{Aes, LANES};

/// Nonce length in bytes.
pub const NONCE_LEN: usize = 12;

/// XORs `data` in place with the AES-CTR keystream for `(key, nonce)`.
///
/// Processing the same data twice with the same parameters restores it, so
/// this single function both encrypts and decrypts.
pub fn ctr_xor(aes: &Aes, nonce: &[u8; NONCE_LEN], data: &mut [u8]) {
    ctr_xor_from(aes, nonce, 1, data); // block 0 reserved (GCM convention)
}

/// [`ctr_xor`] with the first block's counter given. Panics, before touching
/// `data`, if the last block's counter would not fit in 32 bits.
fn ctr_xor_from(aes: &Aes, nonce: &[u8; NONCE_LEN], first_counter: u32, data: &mut [u8]) {
    let Some(blocks_after_first) = data.len().div_ceil(16).checked_sub(1) else {
        return;
    };
    u32::try_from(blocks_after_first)
        .ok()
        .and_then(|n| first_counter.checked_add(n))
        .expect("CTR counter exhausted (message too long)");

    let mut counter = first_counter;
    // Lanes past the end of the message wrap harmlessly: their keystream is
    // never used.
    let mut next_keystream = || {
        let mut blocks = [[0u8; 16]; LANES];
        for block in &mut blocks {
            block[..NONCE_LEN].copy_from_slice(nonce);
            block[NONCE_LEN..].copy_from_slice(&counter.to_be_bytes());
            counter = counter.wrapping_add(1);
        }
        aes.encrypt_blocks(&mut blocks);
        blocks
    };
    // The last batch, and its last block, may be short: `zip` stops with them.
    for batch in data.chunks_mut(16 * LANES) {
        let keystream = next_keystream();
        for (chunk, block) in batch.chunks_mut(16).zip(&keystream) {
            for (d, k) in chunk.iter_mut().zip(block) {
                *d ^= k;
            }
        }
    }
}

/// Convenience: CTR-encrypts a copy of `data`.
pub fn ctr_encrypt(key: &[u8], nonce: &[u8; NONCE_LEN], data: &[u8]) -> Vec<u8> {
    let aes = Aes::new(key);
    let mut out = data.to_vec();
    ctr_xor(&aes, nonce, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut key = [0u8; 32];
        rng.fill_bytes(&mut key);
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill_bytes(&mut nonce);
        for len in [0usize, 1, 15, 16, 17, 100, 4096] {
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            let ct = ctr_encrypt(&key, &nonce, &data);
            assert_eq!(ct.len(), len);
            if len > 0 {
                assert_ne!(ct, data);
            }
            let pt = ctr_encrypt(&key, &nonce, &ct);
            assert_eq!(pt, data);
        }
    }

    #[test]
    fn different_nonces_differ() {
        let key = [7u8; 32];
        let data = vec![0u8; 64];
        let c1 = ctr_encrypt(&key, &[1; NONCE_LEN], &data);
        let c2 = ctr_encrypt(&key, &[2; NONCE_LEN], &data);
        assert_ne!(c1, c2);
    }

    #[test]
    fn keystream_blocks_are_distinct() {
        // Identical plaintext blocks must encrypt differently (stream mode).
        let key = [9u8; 16];
        let data = vec![0xaau8; 48];
        let ct = ctr_encrypt(&key, &[0; NONCE_LEN], &data);
        assert_ne!(ct[0..16], ct[16..32]);
        assert_ne!(ct[16..32], ct[32..48]);
    }

    #[test]
    fn partial_final_block() {
        let key = [1u8; 16];
        let nonce = [2u8; NONCE_LEN];
        let full = ctr_encrypt(&key, &nonce, &[0u8; 32]);
        let part = ctr_encrypt(&key, &nonce, &[0u8; 20]);
        assert_eq!(&full[..20], &part[..]);
    }

    /// The keystream one block at a time, counters `first..`.
    fn keystream_by_block(aes: &Aes, nonce: &[u8; NONCE_LEN], first: u32, blocks: u32) -> Vec<u8> {
        (0..blocks)
            .flat_map(|i| {
                let mut block = [0u8; 16];
                block[..NONCE_LEN].copy_from_slice(nonce);
                block[NONCE_LEN..].copy_from_slice(&(first + i).to_be_bytes());
                aes.encrypt_block(&mut block);
                block
            })
            .collect()
    }

    #[test]
    fn nist_sp800_38a_ctr_aes128() {
        // F.5.1: the initial counter block f0f1…feff is our nonce ‖ counter.
        let aes = Aes::new(&[
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ]);
        let nonce: [u8; NONCE_LEN] = core::array::from_fn(|i| 0xf0 + i as u8);
        let hex = |s: &str| -> Vec<u8> {
            (0..s.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
                .collect()
        };
        let mut data = hex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710",
        ));
        ctr_xor_from(&aes, &nonce, 0xfcfd_feff, &mut data);
        assert_eq!(
            data,
            hex(concat!(
                "874d6191b620e3261bef6864990db6ce",
                "9806f66b7970fdff8617187bb9fffdff",
                "5ae4df3edbd5d35e5b4f09020db03eab",
                "1e031dda2fbe03d1792170a0f3009cee",
            ))
        );
    }

    #[test]
    fn batches_match_single_blocks_at_every_length() {
        let aes = Aes::new(&[4u8; 24]);
        let nonce = [8u8; NONCE_LEN];
        let keystream = keystream_by_block(&aes, &nonce, 1, 20);
        for len in 0..=keystream.len() {
            let mut data = vec![0u8; len];
            ctr_xor(&aes, &nonce, &mut data);
            assert_eq!(data, keystream[..len], "len {len}");
        }
    }

    #[test]
    fn last_counter_value_is_usable() {
        // 9 and 10 blocks from u32::MAX - 9 end below and exactly at u32::MAX;
        // neither may trip over the unused lanes of the second batch.
        let aes = Aes::new(&[5u8; 32]);
        let nonce = [6u8; NONCE_LEN];
        let first = u32::MAX - 9;
        let keystream = keystream_by_block(&aes, &nonce, first, 10);
        for len in [9 * 16, 9 * 16 + 1, 10 * 16 - 1, 10 * 16] {
            let mut data = vec![0u8; len];
            ctr_xor_from(&aes, &nonce, first, &mut data);
            assert_eq!(data, keystream[..len], "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "CTR counter exhausted")]
    fn one_block_past_the_last_counter_panics() {
        let aes = Aes::new(&[5u8; 32]);
        let mut data = [0u8; 10 * 16 + 1]; // an 11th block from u32::MAX - 9
        ctr_xor_from(&aes, &[6u8; NONCE_LEN], u32::MAX - 9, &mut data);
    }
}
