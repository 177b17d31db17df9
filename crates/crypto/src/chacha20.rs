//! The ChaCha20 block function (RFC 8439 §2.1–2.3), one 64-byte block per
//! call; [`crate::ctr`] runs it in counter mode.
//!
//! The paper requires "a semantically secure symmetric-key encryption
//! algorithm E"; [`crate::authenc`] pairs this keystream with
//! [`mod@crate::poly1305`] to build the AEAD used by the envelopes and document
//! containers.
//!
//! # Constant time
//!
//! The block function is additions, XORs and fixed rotations of 32-bit words
//! (ARX): there is no table, no secret-indexed load and no branch at all.

/// Nonce length in bytes (RFC 8439's 96-bit nonce).
pub const NONCE_LEN: usize = 12;

/// Bytes of keystream one block-function call produces.
pub(crate) const BLOCK_LEN: usize = 64;

/// "expand 32-byte k", little-endian.
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline(always)]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// The input state for `(key, nonce)` with word 12 (the counter) left zero.
pub(crate) fn initial_state(key: &[u8; 32], nonce: &[u8; NONCE_LEN]) -> [u32; 16] {
    let word = |bytes: &[u8]| u32::from_le_bytes(bytes.try_into().expect("4-byte chunk"));
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&SIGMA);
    for (w, chunk) in state[4..12].iter_mut().zip(key.chunks_exact(4)) {
        *w = word(chunk);
    }
    for (w, chunk) in state[13..].iter_mut().zip(nonce.chunks_exact(4)) {
        *w = word(chunk);
    }
    state
}

/// Twenty rounds over `input` with `counter` in word 12, plus the input:
/// one serialized keystream block.
#[inline]
pub(crate) fn block(input: &[u32; 16], counter: u32) -> [u8; BLOCK_LEN] {
    let mut input = *input;
    input[12] = counter;
    let mut s = input;
    for _ in 0..10 {
        quarter_round(&mut s, 0, 4, 8, 12);
        quarter_round(&mut s, 1, 5, 9, 13);
        quarter_round(&mut s, 2, 6, 10, 14);
        quarter_round(&mut s, 3, 7, 11, 15);
        quarter_round(&mut s, 0, 5, 10, 15);
        quarter_round(&mut s, 1, 6, 11, 12);
        quarter_round(&mut s, 2, 7, 8, 13);
        quarter_round(&mut s, 3, 4, 9, 14);
    }
    let mut out = [0u8; BLOCK_LEN];
    for ((bytes, word), init) in out.chunks_exact_mut(4).zip(s).zip(input) {
        bytes.copy_from_slice(&word.wrapping_add(init).to_le_bytes());
    }
    out
}

/// The ChaCha20 block function: 64 bytes of keystream for block `counter`.
pub fn chacha20_block(key: &[u8; 32], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; BLOCK_LEN] {
    block(&initial_state(key, nonce), counter)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        let s: String = s.split_whitespace().collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn rfc8439_quarter_round() {
        // §2.1.1, on words 0..4 of an otherwise zero state.
        let mut s = [0u32; 16];
        s[..4].copy_from_slice(&[0x1111_1111, 0x0102_0304, 0x9b8d_6f43, 0x0123_4567]);
        quarter_round(&mut s, 0, 1, 2, 3);
        assert_eq!(s[..4], [0xea2a_92f4, 0xcb1c_f8ce, 0x4581_472e, 0x5881_c4bb]);
    }

    #[test]
    fn rfc8439_block() {
        // §2.3.2.
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce = hex("000000090000004a00000000").try_into().unwrap();
        let expected = hex(
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e",
        );
        assert_eq!(chacha20_block(&key, 1, &nonce)[..], expected[..]);
    }
}
