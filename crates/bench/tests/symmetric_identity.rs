//! The ChaCha20 and Poly1305 kernels, and the AEAD built from them, must
//! reproduce to the byte the twins written from RFC 8439's pseudo-code
//! (Poly1305 in arbitrary precision), and the slice-by-8 CRC the
//! byte-at-a-time table it replaced — all kept in `pbcd_bench` as the
//! `*_naive` twins of bench-json.

use pbcd_bench::{naive_chacha20, naive_chacha20_block, naive_crc32, naive_poly1305, NaiveAead};
use pbcd_crypto::{chacha20_block, chacha20_xor, poly1305, AuthKey, NONCE_LEN};
use pbcd_net::store::crc32;
use proptest::prelude::*;

fn chacha20(key: &[u8; 32], counter: u32, nonce: &[u8; NONCE_LEN], data: &[u8]) -> Vec<u8> {
    let mut out = data.to_vec();
    chacha20_xor(key, nonce, counter, &mut out);
    out
}

/// Every length 0..=300: each 16- and 64-byte boundary and both sides of it.
#[test]
fn kernels_match_their_twins_across_every_block_boundary() {
    let key: [u8; 32] = core::array::from_fn(|i| (i * 29 + 1) as u8);
    let nonce: [u8; NONCE_LEN] = core::array::from_fn(|i| (i * 7 + 3) as u8);
    let data: Vec<u8> = (0..300u32).map(|i| (i * 131 + 17) as u8).collect();
    for len in 0..=data.len() {
        let msg = &data[..len];
        assert_eq!(
            chacha20(&key, 1, &nonce, msg),
            naive_chacha20(&key, 1, &nonce, msg),
            "chacha20 len {len}"
        );
        assert_eq!(
            poly1305(&key, msg),
            naive_poly1305(&key, msg),
            "poly1305 len {len}"
        );
        assert_eq!(
            AuthKey::from_master(&key).encrypt_with_nonce(&nonce, msg),
            NaiveAead::from_master(&key).encrypt_with_nonce(&nonce, msg),
            "aead len {len}"
        );
    }
}

#[test]
fn naive_twins_pass_rfc8439() {
    let hex = |s: &str| -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    };
    // §2.3.2: the block function.
    let key: [u8; 32] = core::array::from_fn(|i| i as u8);
    let nonce = hex("000000090000004a00000000").try_into().unwrap();
    assert_eq!(
        naive_chacha20_block(&key, 1, &nonce)[..16],
        hex("10f1e7e4d13b5915500fdd1fa32071c4")[..]
    );
    // §2.5.2: the MAC.
    let key = hex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
    assert_eq!(
        naive_poly1305(
            &key.try_into().unwrap(),
            b"Cryptographic Forum Research Group"
        )[..],
        hex("a8061dc1305136c6c22b8baf0c0127a9")[..]
    );
}

/// The limb-carry edges of 44/44/42-bit Poly1305: every message bit set,
/// every bit the clamp leaves in `r` set, and the RFC 8439 Appendix A.3
/// cases whose accumulator reaches or passes `p = 2¹³⁰ − 5` before the
/// final reduction (with the tags the RFC gives for them).
#[test]
fn poly1305_matches_its_twin_on_limb_carry_edges() {
    let ones = [0xffu8; 32];
    for len in [16, 32, 48, 64, 256, 1024] {
        let msg = vec![0xffu8; len];
        assert_eq!(
            poly1305(&ones, &msg),
            naive_poly1305(&ones, &msg),
            "len {len}"
        );
        let mut clamped_r = ones;
        clamped_r[16..].fill(0);
        assert_eq!(
            poly1305(&clamped_r, &msg),
            naive_poly1305(&clamped_r, &msg),
            "s = 0, len {len}"
        );
    }

    let block = |head: &[u8]| {
        let mut b = [0u8; 16];
        b[..head.len()].copy_from_slice(head);
        b
    };
    let key = |r: [u8; 16], s: [u8; 16]| -> [u8; 32] { [r, s].concat().try_into().unwrap() };
    let (r1, r2, zero) = (block(&[1]), block(&[2]), [0u8; 16]);
    let r_a3_10 = block(&[1, 0, 0, 0, 0, 0, 0, 0, 4]);
    let vectors: [([u8; 32], Vec<u8>, [u8; 16]); 7] = [
        // #5: a partially reduced result that is not fully reduced.
        (key(r2, zero), vec![0xff; 16], block(&[3])),
        // #6: h + s overflows 2¹²⁸.
        (key(r2, [0xff; 16]), block(&[2]).to_vec(), block(&[3])),
        // #7: an all-ones limb with a carry from below.
        (
            key(r1, zero),
            [
                vec![0xff; 16],
                [vec![0xf0], vec![0xff; 15]].concat(),
                block(&[0x11]).to_vec(),
            ]
            .concat(),
            block(&[5]),
        ),
        // #8: the polynomial part is exactly p.
        (
            key(r1, zero),
            [
                vec![0xff; 16],
                [vec![0xfb], vec![0xfe; 15]].concat(),
                vec![0x01; 16],
            ]
            .concat(),
            zero,
        ),
        // #9: the polynomial part is exactly p − 1.
        (
            key(r2, zero),
            [vec![0xfd], vec![0xff; 15]].concat(),
            [vec![0xfa], vec![0xff; 15]].concat().try_into().unwrap(),
        ),
        // #10: 5·H + L reduction with a 131-bit intermediate.
        (
            key(r_a3_10, zero),
            [
                block(&[0xe3, 0x35, 0x94, 0xd7, 0x50, 0x5e, 0x43, 0xb9]),
                block(&[0x33, 0x94, 0xd7, 0x50, 0x5e, 0x43, 0x79, 0xcd, 1]),
                zero,
                block(&[1]),
            ]
            .concat(),
            block(&[0x14, 0, 0, 0, 0, 0, 0, 0, 0x55]),
        ),
        // #11: 5·H + L reduction with a 131-bit final result.
        (
            key(r_a3_10, zero),
            [
                block(&[0xe3, 0x35, 0x94, 0xd7, 0x50, 0x5e, 0x43, 0xb9]),
                block(&[0x33, 0x94, 0xd7, 0x50, 0x5e, 0x43, 0x79, 0xcd, 1]),
                zero,
            ]
            .concat(),
            block(&[0x13]),
        ),
    ];
    for (i, (key, msg, tag)) in vectors.iter().enumerate() {
        assert_eq!(naive_poly1305(key, msg), *tag, "A.3 case {} (twin)", i + 5);
        assert_eq!(poly1305(key, msg), *tag, "A.3 case {} (kernel)", i + 5);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn ctr_xor_matches_the_bytewise_cipher(
        key in any::<[u8; 32]>(),
        nonce in any::<[u8; NONCE_LEN]>(),
        counter in 0u32..1 << 20,
        data in prop::collection::vec(any::<u8>(), 0..=4096),
    ) {
        prop_assert_eq!(
            chacha20(&key, counter, &nonce, &data),
            naive_chacha20(&key, counter, &nonce, &data)
        );
        prop_assert_eq!(
            chacha20_block(&key, counter, &nonce),
            naive_chacha20_block(&key, counter, &nonce)
        );
    }

    #[test]
    fn poly1305_matches_the_arbitrary_precision_twin(
        key in any::<[u8; 32]>(),
        msg in prop::collection::vec(any::<u8>(), 0..=4096),
    ) {
        prop_assert_eq!(poly1305(&key, &msg), naive_poly1305(&key, &msg));
    }

    #[test]
    fn authkey_matches_its_twin_over_the_bytewise_cipher(
        master in prop::collection::vec(any::<u8>(), 0..64),
        nonce in any::<[u8; NONCE_LEN]>(),
        plaintext in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        prop_assert_eq!(
            AuthKey::from_master(&master).encrypt_with_nonce(&nonce, &plaintext),
            NaiveAead::from_master(&master).encrypt_with_nonce(&nonce, &plaintext)
        );
    }

    #[test]
    fn crc32_matches_the_bytewise_table(data in prop::collection::vec(any::<u8>(), 0..4096)) {
        prop_assert_eq!(crc32(&data), naive_crc32(&data));
    }
}
