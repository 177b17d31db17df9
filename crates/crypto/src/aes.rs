//! AES-128/192/256 encryption (FIPS 197), implemented from scratch as a
//! constant-time bitsliced kernel that encrypts eight blocks per call.
//!
//! The paper requires "a semantically secure symmetric-key encryption
//! algorithm E, for example, AES". This module provides the block primitive;
//! [`crate::ctr`] builds the stream mode used by the envelopes and document
//! containers. CTR never decrypts a block, so only the forward cipher exists.
//!
//! # Constant time
//!
//! Nothing here loads from an address or branches on a value derived from the
//! key or the data: there is no S-box table. SubBytes is the Boyar–Peralta
//! circuit of XOR, AND and NOT gates (eprint 2009/191), ShiftRows and
//! MixColumns are fixed rotations, and the key schedule's `SubWord` runs
//! through the same circuit. The one branch that looks at the key looks at its
//! length, which is public.
//!
//! # Layout
//!
//! The 8 × 16 state bytes are held as eight `u128` bit-planes: bit
//! `32·r + 8·c + k` of plane `b` is bit `b` of the state byte in row `r`,
//! column `c` of block `k`. Each block is loaded little-endian, its 4 × 4
//! byte matrix is turned from FIPS 197's column-major order to row-major
//! (`rows_first`), and the eight words are bit-transposed by three stages of
//! masked swaps (`transpose_bits`). With one row per 32-bit lane, ShiftRows
//! rotates lane `r` by `8·r` bits and MixColumns' "next row" is a rotation of
//! the whole plane by 32. Round keys are stored already in this form.

use core::ops::{BitAnd, BitXor, Not};

/// The AES S-box on eight bit-planes (`q[b]` holds bit `b` of every byte),
/// as the Boyar–Peralta circuit of eprint 2009/191: 32 AND, 79 XOR, 4 XNOR.
/// The gate names follow the paper, whose `x0`/`s0` are the *most*
/// significant bits.
#[inline(always)]
fn sbox<T>(q: &mut [T; 8])
where
    T: Copy + BitXor<Output = T> + BitAnd<Output = T> + Not<Output = T>,
{
    let [x7, x6, x5, x4, x3, x2, x1, x0] = *q;

    // Top linear layer.
    let y14 = x3 ^ x5;
    let y13 = x0 ^ x6;
    let y9 = x0 ^ x3;
    let y8 = x0 ^ x5;
    let t0 = x1 ^ x2;
    let y1 = t0 ^ x7;
    let y4 = y1 ^ x3;
    let y12 = y13 ^ y14;
    let y2 = y1 ^ x0;
    let y5 = y1 ^ x6;
    let y3 = y5 ^ y8;
    let t1 = x4 ^ y12;
    let y15 = t1 ^ x5;
    let y20 = t1 ^ x1;
    let y6 = y15 ^ x7;
    let y10 = y15 ^ t0;
    let y11 = y20 ^ y9;
    let y7 = x7 ^ y11;
    let y17 = y10 ^ y11;
    let y19 = y10 ^ y8;
    let y16 = t0 ^ y11;
    let y21 = y13 ^ y16;
    let y18 = x0 ^ y16;
    // Inversion in GF(2^8) over the tower field GF(((2^2)^2)^2).
    let t2 = y12 & y15;
    let t3 = y3 & y6;
    let t4 = t3 ^ t2;
    let t5 = y4 & x7;
    let t6 = t5 ^ t2;
    let t7 = y13 & y16;
    let t8 = y5 & y1;
    let t9 = t8 ^ t7;
    let t10 = y2 & y7;
    let t11 = t10 ^ t7;
    let t12 = y9 & y11;
    let t13 = y14 & y17;
    let t14 = t13 ^ t12;
    let t15 = y8 & y10;
    let t16 = t15 ^ t12;
    let t17 = t4 ^ t14;
    let t18 = t6 ^ t16;
    let t19 = t9 ^ t14;
    let t20 = t11 ^ t16;
    let t21 = t17 ^ y20;
    let t22 = t18 ^ y19;
    let t23 = t19 ^ y21;
    let t24 = t20 ^ y18;
    let t25 = t21 ^ t22;
    let t26 = t21 & t23;
    let t27 = t24 ^ t26;
    let t28 = t25 & t27;
    let t29 = t28 ^ t22;
    let t30 = t23 ^ t24;
    let t31 = t22 ^ t26;
    let t32 = t31 & t30;
    let t33 = t32 ^ t24;
    let t34 = t23 ^ t33;
    let t35 = t27 ^ t33;
    let t36 = t24 & t35;
    let t37 = t36 ^ t34;
    let t38 = t27 ^ t36;
    let t39 = t29 & t38;
    let t40 = t25 ^ t39;
    let t41 = t40 ^ t37;
    let t42 = t29 ^ t33;
    let t43 = t29 ^ t40;
    let t44 = t33 ^ t37;
    let t45 = t42 ^ t41;
    let z0 = t44 & y15;
    let z1 = t37 & y6;
    let z2 = t33 & x7;
    let z3 = t43 & y16;
    let z4 = t40 & y1;
    let z5 = t29 & y7;
    let z6 = t42 & y11;
    let z7 = t45 & y17;
    let z8 = t41 & y10;
    let z9 = t44 & y12;
    let z10 = t37 & y3;
    let z11 = t33 & y4;
    let z12 = t43 & y13;
    let z13 = t40 & y5;
    let z14 = t29 & y2;
    let z15 = t42 & y9;
    let z16 = t45 & y14;
    let z17 = t41 & y8;
    // Bottom linear layer; the four complements are the affine constant 0x63.
    let t46 = z15 ^ z16;
    let t47 = z10 ^ z11;
    let t48 = z5 ^ z13;
    let t49 = z9 ^ z10;
    let t50 = z2 ^ z12;
    let t51 = z2 ^ z5;
    let t52 = z7 ^ z8;
    let t53 = z0 ^ z3;
    let t54 = z6 ^ z7;
    let t55 = z16 ^ z17;
    let t56 = z12 ^ t48;
    let t57 = t50 ^ t53;
    let t58 = z4 ^ t46;
    let t59 = z3 ^ t54;
    let t60 = t46 ^ t57;
    let t61 = z14 ^ t57;
    let t62 = t52 ^ t58;
    let t63 = t49 ^ t58;
    let t64 = z4 ^ t59;
    let t65 = t61 ^ t62;
    let t66 = z1 ^ t63;
    let s0 = t59 ^ t63;
    let s6 = t56 ^ !t62;
    let s7 = t48 ^ !t60;
    let t67 = t64 ^ t65;
    let s3 = t53 ^ t66;
    let s4 = t51 ^ t66;
    let s5 = t47 ^ t65;
    let s1 = t64 ^ !s3;
    let s2 = t55 ^ !t67;

    *q = [s7, s6, s5, s4, s3, s2, s1, s0];
}

/// The byte `0x01` in each of the 16 byte positions.
const ONES: u128 = 0x0101_0101_0101_0101_0101_0101_0101_0101;

/// `SubWord` of the key schedule. The four bytes stay where they are: plane
/// `b` is bit `b` of each byte, left in that byte's lowest bit.
fn sub_word(w: u32) -> u32 {
    const LOW: u32 = ONES as u32;
    let mut q: [u32; 8] = core::array::from_fn(|b| (w >> b) & LOW);
    sbox(&mut q);
    q.iter()
        .enumerate()
        .fold(0, |acc, (b, plane)| acc | ((plane & LOW) << b))
}

/// Swaps the bits of `q[i]` selected by `mask << shift` with the bits of
/// `q[j]` selected by `mask`.
#[inline(always)]
fn swap_bits(q: &mut [u128; 8], i: usize, j: usize, shift: u32, mask: u128) {
    let t = ((q[i] >> shift) ^ q[j]) & mask;
    q[j] ^= t;
    q[i] ^= t << shift;
}

/// Transposes the 8 × 8 bit matrix formed, at each of the 16 byte positions,
/// by that byte of the eight words: blocks become bit-planes and back (the
/// map is its own inverse).
#[inline(always)]
fn transpose_bits(q: &mut [u128; 8]) {
    for i in [0, 2, 4, 6] {
        swap_bits(q, i, i + 1, 1, ONES * 0x55);
    }
    for i in [0, 1, 4, 5] {
        swap_bits(q, i, i + 2, 2, ONES * 0x33);
    }
    for i in 0..4 {
        swap_bits(q, i, i + 4, 4, ONES * 0x0f);
    }
}

/// Transposes a block's 4 × 4 byte matrix (byte `4c + r` ↔ byte `4r + c`),
/// so that each state row is one 32-bit lane. Its own inverse.
#[inline(always)]
fn rows_first(mut x: u128) -> u128 {
    let t = ((x >> 24) ^ x) & 0x0000_0000_ff00_ff00_0000_0000_ff00_ff00;
    x ^= t ^ (t << 24);
    let t = ((x >> 48) ^ x) & 0xffff_0000_ffff_0000;
    x ^ t ^ (t << 48)
}

/// ShiftRows: row `r` moves `r` columns, i.e. its lane rotates by `8·r` bits.
#[inline(always)]
fn shift_rows(q: &mut [u128; 8]) {
    for plane in q {
        let x = *plane;
        let row = |r: u32| u128::from(((x >> (32 * r)) as u32).rotate_right(8 * r)) << (32 * r);
        *plane = row(0) | row(1) | row(2) | row(3);
    }
}

/// MixColumns: each byte becomes `2·a ^ 3·a↓ ^ a↓↓ ^ a↓↓↓` (`↓` = next row of
/// the same column), computed as `xtime(a ^ a↓) ^ a↓ ^ (a ^ a↓)↓↓`.
#[inline(always)]
fn mix_columns(q: &mut [u128; 8]) {
    let below = q.map(|x| x.rotate_right(32));
    let t: [u128; 8] = core::array::from_fn(|b| q[b] ^ below[b]);
    // Multiplication by x modulo x^8 + x^4 + x^3 + x + 1 is a shuffle of planes.
    let xtime = [
        t[7],
        t[0] ^ t[7],
        t[1],
        t[2] ^ t[7],
        t[3] ^ t[7],
        t[4],
        t[5],
        t[6],
    ];
    for b in 0..8 {
        q[b] = xtime[b] ^ below[b] ^ t[b].rotate_right(64);
    }
}

#[inline(always)]
fn add_round_key(q: &mut [u128; 8], round_key: &[u128; 8]) {
    for (plane, k) in q.iter_mut().zip(round_key) {
        *plane ^= k;
    }
}

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Number of blocks one kernel call encrypts.
pub const LANES: usize = 8;

/// An AES instance with an expanded key schedule.
#[derive(Clone)]
pub struct Aes {
    /// Round keys as bit-planes, each byte's bit repeated for all eight
    /// blocks; only the first `rounds + 1` are used.
    round_keys: [[u128; 8]; 15],
    rounds: usize,
}

impl Aes {
    /// Expands `key` into a cipher instance. Panics if the key length is not
    /// 16, 24 or 32 bytes.
    pub fn new(key: &[u8]) -> Self {
        let rounds = match key.len() {
            16 => 10,
            24 => 12,
            32 => 14,
            n => panic!("invalid AES key length {n}"),
        };
        let nk = key.len() / 4;
        // Words are little-endian, so RotWord is a rotation towards bit 0.
        let mut w = [0u32; 60];
        for (word, bytes) in w.iter_mut().zip(key.chunks_exact(4)) {
            *word = u32::from_le_bytes(bytes.try_into().expect("chunk of 4"));
        }
        for i in nk..4 * (rounds + 1) {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp = sub_word(temp.rotate_right(8)) ^ u32::from(RCON[i / nk - 1]);
            } else if nk > 6 && i % nk == 4 {
                temp = sub_word(temp);
            }
            w[i] = w[i - nk] ^ temp;
        }
        let mut round_keys = [[0u128; 8]; 15];
        for (planes, words) in round_keys.iter_mut().zip(w.chunks_exact(4)) {
            let k = words
                .iter()
                .rev()
                .fold(0, |acc, &word| (acc << 32) | u128::from(word));
            let k = rows_first(k);
            for (b, plane) in planes.iter_mut().enumerate() {
                *plane = ((k >> b) & ONES) * 0xff;
            }
        }
        Self { round_keys, rounds }
    }

    /// Encrypts eight independent 16-byte blocks in place.
    pub fn encrypt_blocks(&self, blocks: &mut [[u8; 16]; LANES]) {
        let mut q = blocks.map(|block| rows_first(u128::from_le_bytes(block)));
        transpose_bits(&mut q);
        add_round_key(&mut q, &self.round_keys[0]);
        for round_key in &self.round_keys[1..self.rounds] {
            sbox(&mut q);
            shift_rows(&mut q);
            mix_columns(&mut q);
            add_round_key(&mut q, round_key);
        }
        sbox(&mut q);
        shift_rows(&mut q);
        add_round_key(&mut q, &self.round_keys[self.rounds]);
        transpose_bits(&mut q);
        *blocks = q.map(|x| rows_first(x).to_le_bytes());
    }

    /// Encrypts a single 16-byte block in place: one lane of
    /// [`Aes::encrypt_blocks`], for test vectors.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let mut blocks = [[0u8; 16]; LANES];
        blocks[0] = *block;
        self.encrypt_blocks(&mut blocks);
        *block = blocks[0];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    fn from_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn block(s: &str) -> [u8; 16] {
        from_hex(s).try_into().unwrap()
    }

    /// Multiplication in GF(2^8) modulo x^8 + x^4 + x^3 + x + 1, bit by bit.
    fn gf_mul(mut a: u8, mut b: u8) -> u8 {
        let mut acc = 0;
        while b != 0 {
            if b & 1 == 1 {
                acc ^= a;
            }
            a = (a << 1) ^ ((a >> 7) * 0x1b);
            b >>= 1;
        }
        acc
    }

    /// The S-box by its definition (FIPS 197 §5.1.1): the affine map of the
    /// multiplicative inverse, 0 standing in for the inverse of 0.
    fn sbox_by_definition(x: u8) -> u8 {
        let inv = (0..=255).find(|&y| gf_mul(x, y) == 1).unwrap_or(0);
        (0..5).fold(0x63, |acc, n| acc ^ inv.rotate_left(n))
    }

    #[test]
    fn gf_multiplication() {
        // FIPS 197 §4.2 and §4.2.1.
        assert_eq!(gf_mul(0x57, 0x83), 0xc1);
        assert_eq!(gf_mul(0x57, 0x13), 0xfe);
        assert_eq!(gf_mul(0x57, 0x02), 0xae);
        assert_eq!(gf_mul(0xae, 0x02), 0x47);
        assert_eq!(sbox_by_definition(0x00), 0x63);
        assert_eq!(sbox_by_definition(0x53), 0xed);
    }

    #[test]
    fn sbox_circuit_is_affine_of_inverse_for_all_bytes() {
        // Wide planes: bit position p of the two passes holds byte p, p + 128.
        for base in [0u8, 128] {
            let mut q: [u128; 8] = core::array::from_fn(|b| {
                (0..128).fold(0, |plane, p| plane | (u128::from((base + p) >> b & 1) << p))
            });
            sbox(&mut q);
            for p in 0..128u8 {
                let out = (0..8).fold(0, |byte, b| byte | (((q[b] >> p) as u8 & 1) << b));
                assert_eq!(out, sbox_by_definition(base + p), "byte {}", base + p);
            }
        }
        // Narrow planes, as the key schedule runs them.
        for x in (0..=255u8).step_by(4) {
            let word = [x, x + 1, x + 2, x + 3];
            assert_eq!(
                sub_word(u32::from_le_bytes(word)).to_le_bytes(),
                word.map(sbox_by_definition)
            );
        }
    }

    /// FIPS 197 Appendix C: the vector must come out of every lane, whatever
    /// the other seven lanes hold.
    fn fips197(key: &str, expected: &str) {
        let aes = Aes::new(&from_hex(key));
        let plaintext = block("00112233445566778899aabbccddeeff");
        let mut one = plaintext;
        aes.encrypt_block(&mut one);
        assert_eq!(one, block(expected));

        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for lane in 0..LANES {
            let mut blocks = [[0u8; 16]; LANES];
            for b in &mut blocks {
                rng.fill_bytes(b);
            }
            blocks[lane] = plaintext;
            let others = blocks;
            aes.encrypt_blocks(&mut blocks);
            assert_eq!(blocks[lane], block(expected), "lane {lane}");
            for (i, (out, input)) in blocks.iter().zip(&others).enumerate() {
                let mut alone = *input;
                aes.encrypt_block(&mut alone);
                assert_eq!(*out, alone, "lane {i} beside vector in lane {lane}");
            }
        }
    }

    #[test]
    fn fips197_aes128() {
        fips197(
            "000102030405060708090a0b0c0d0e0f",
            "69c4e0d86a7b0430d8cdb78070b4c55a",
        );
    }

    #[test]
    fn fips197_aes192() {
        fips197(
            "000102030405060708090a0b0c0d0e0f1011121314151617",
            "dda97ca4864cdfe06eaf70a0ec0d7191",
        );
    }

    #[test]
    fn fips197_aes256() {
        fips197(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
            "8ea2b7ca516745bfeafc49904b496089",
        );
    }

    const SP800_38A_PLAINTEXT: [&str; 4] = [
        "6bc1bee22e409f96e93d7e117393172a",
        "ae2d8a571e03ac9c9eb76fac45af8e51",
        "30c81c46a35ce411e5fbc1191a0a52ef",
        "f69f2445df4f9b17ad2b417be66c3710",
    ];

    /// SP 800-38A F.1 ECB vectors: the four blocks forwards in lanes 0–3 and
    /// backwards in lanes 4–7 of one kernel call.
    fn sp800_38a_ecb(key: &str, ciphertext: [&str; 4]) {
        let aes = Aes::new(&from_hex(key));
        let lanes = |v: [&str; 4]| -> [[u8; 16]; LANES] {
            core::array::from_fn(|i| block(v[if i < 4 { i } else { 7 - i }]))
        };
        let mut blocks = lanes(SP800_38A_PLAINTEXT);
        aes.encrypt_blocks(&mut blocks);
        assert_eq!(blocks, lanes(ciphertext));
    }

    #[test]
    fn nist_sp800_38a_ecb_aes128() {
        // F.1.1
        sp800_38a_ecb(
            "2b7e151628aed2a6abf7158809cf4f3c",
            [
                "3ad77bb40d7a3660a89ecaf32466ef97",
                "f5d3d58503b9699de785895a96fdbaaf",
                "43b1cd7f598ece23881b00e3ed030688",
                "7b0c785e27e8ad3f8223207104725dd4",
            ],
        );
    }

    #[test]
    fn nist_sp800_38a_ecb_aes192() {
        // F.1.3
        sp800_38a_ecb(
            "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
            [
                "bd334f1d6e45f25ff712a214571fa5cc",
                "974104846d0ad3ad7734ecb3ecee4eef",
                "ef7afd2270e2e60adce0ba2face6444e",
                "9a4b41ba738d6c72fb16691603c18e0e",
            ],
        );
    }

    #[test]
    fn nist_sp800_38a_ecb_aes256() {
        // F.1.5
        sp800_38a_ecb(
            "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
            [
                "f3eed1bdb5d2a03c064b5a7e3db181f8",
                "591ccb10d410ed26dc5ba74a31362870",
                "b6ed21b99ca6f4f9f153e7b1beafed1d",
                "23304b7a39f9f3ff067d8d8f9e24ecc7",
            ],
        );
    }

    #[test]
    #[should_panic(expected = "invalid AES key length")]
    fn bad_key_length_panics() {
        Aes::new(&[0u8; 17]);
    }
}
