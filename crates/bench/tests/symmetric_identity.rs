//! The bitsliced AES-CTR kernel and the slice-by-8 CRC must reproduce, to
//! the byte, the byte-at-a-time implementations they replaced — kept in
//! `pbcd_bench` as the `*_naive` twins of bench-json.

use pbcd_bench::{naive_crc32, NaiveAes, NaiveAuthKey};
use pbcd_crypto::{ctr_xor, Aes, AuthKey, NONCE_LEN};
use pbcd_net::store::crc32;
use proptest::prelude::*;

#[test]
fn naive_aes_passes_fips197() {
    // Appendix C.1–C.3: the reference must itself be AES.
    let key: Vec<u8> = (0..32).collect();
    for (len, expected) in [
        (16, "69c4e0d86a7b0430d8cdb78070b4c55a"),
        (24, "dda97ca4864cdfe06eaf70a0ec0d7191"),
        (32, "8ea2b7ca516745bfeafc49904b496089"),
    ] {
        let mut block: [u8; 16] = core::array::from_fn(|i| 0x11 * i as u8);
        NaiveAes::new(&key[..len]).encrypt_block(&mut block);
        let hex: String = block.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn ctr_xor_matches_the_bytewise_cipher(
        key in prop::collection::vec(any::<u8>(), 32),
        key_words in (2usize..=4).prop_map(|n| 2 * n),
        nonce in any::<[u8; NONCE_LEN]>(),
        data in prop::collection::vec(any::<u8>(), 0..=4096),
    ) {
        let key = &key[..4 * key_words];
        let mut fast = data.clone();
        ctr_xor(&Aes::new(key), &nonce, &mut fast);
        let mut naive = data;
        NaiveAes::new(key).ctr_xor(&nonce, &mut naive);
        prop_assert_eq!(fast, naive);
    }

    #[test]
    fn authkey_matches_its_twin_over_the_bytewise_cipher(
        master in prop::collection::vec(any::<u8>(), 0..64),
        nonce in any::<[u8; NONCE_LEN]>(),
        plaintext in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        prop_assert_eq!(
            AuthKey::from_master(&master).encrypt_with_nonce(&nonce, &plaintext),
            NaiveAuthKey::from_master(&master).encrypt_with_nonce(&nonce, &plaintext)
        );
    }

    #[test]
    fn crc32_matches_the_bytewise_table(data in prop::collection::vec(any::<u8>(), 0..4096)) {
        prop_assert_eq!(crc32(&data), naive_crc32(&data));
    }
}
