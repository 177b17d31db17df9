//! BLAKE2b-256 (RFC 7693), implemented from scratch: the digest a signed
//! publish signs in place of the container it covers.
//!
//! One entry point, [`blake2b_256`]: unkeyed, a 32-byte output, the whole
//! input in one call. There is no keyed mode, no other output length and
//! no streaming state, because no caller needs them. The compression
//! function is plain 64-bit ARX with its twelve rounds written out, so
//! every message-word index is a constant and the state stays in
//! registers; it needs no `target-cpu` feature.

/// Bytes per compression block.
const BLOCK: usize = 128;

/// The SHA-512 initial hash values (RFC 7693 §2.6).
const IV: [u64; 8] = [
    0x6a09e667f3bcc908,
    0xbb67ae8584caa73b,
    0x3c6ef372fe94f82b,
    0xa54ff53a5f1d36f1,
    0x510e527fade682d1,
    0x9b05688c2b3e6c1f,
    0x1f83d9abfb41bd6b,
    0x5be0cd19137e2179,
];

/// Message word schedule of each round (RFC 7693 §2.7); rounds 10 and 11
/// reuse rows 0 and 1.
const SIGMA: [[usize; 16]; 12] = [
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
    [14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3],
    [11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4],
    [7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8],
    [9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13],
    [2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9],
    [12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11],
    [13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10],
    [6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5],
    [10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0],
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
    [14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3],
];

/// Parameter block word 0 (RFC 7693 §2.5): digest length 32, no key,
/// fanout 1, depth 1.
const PARAM0: u64 = 0x0101_0020;

/// Unkeyed BLAKE2b with a 32-byte digest.
pub fn blake2b_256(data: &[u8]) -> [u8; 32] {
    let mut h = IV;
    h[0] ^= PARAM0;
    // Every block before the last goes in as it stands; the last one, full
    // or not (empty for an empty input), is zero-padded and flagged final.
    let last_start = data.len().saturating_sub(1) / BLOCK * BLOCK;
    let (body, tail) = data.split_at(last_start);
    let mut counted = 0u128;
    for block in body.chunks_exact(BLOCK) {
        counted += BLOCK as u128;
        compress(&mut h, block.try_into().expect("one block"), counted, false);
    }
    let mut last = [0u8; BLOCK];
    last[..tail.len()].copy_from_slice(tail);
    compress(&mut h, &last, data.len() as u128, true);
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(8).zip(h) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// The compression function F (RFC 7693 §3.2); `counted` is the number of
/// input bytes up to and including this block.
fn compress(h: &mut [u64; 8], block: &[u8; BLOCK], counted: u128, last: bool) {
    let mut m = [0u64; 16];
    for (word, bytes) in m.iter_mut().zip(block.chunks_exact(8)) {
        *word = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
    }
    let mut v = [0u64; 16];
    v[..8].copy_from_slice(h);
    v[8..].copy_from_slice(&IV);
    v[12] ^= counted as u64;
    v[13] ^= (counted >> 64) as u64;
    if last {
        v[14] = !v[14];
    }
    round(&mut v, &m, &SIGMA[0]);
    round(&mut v, &m, &SIGMA[1]);
    round(&mut v, &m, &SIGMA[2]);
    round(&mut v, &m, &SIGMA[3]);
    round(&mut v, &m, &SIGMA[4]);
    round(&mut v, &m, &SIGMA[5]);
    round(&mut v, &m, &SIGMA[6]);
    round(&mut v, &m, &SIGMA[7]);
    round(&mut v, &m, &SIGMA[8]);
    round(&mut v, &m, &SIGMA[9]);
    round(&mut v, &m, &SIGMA[10]);
    round(&mut v, &m, &SIGMA[11]);
    for (i, word) in h.iter_mut().enumerate() {
        *word ^= v[i] ^ v[i + 8];
    }
}

/// One round: the mixing function G on the four columns, then on the four
/// diagonals.
#[inline(always)]
fn round(v: &mut [u64; 16], m: &[u64; 16], s: &[usize; 16]) {
    g(v, [0, 4, 8, 12], m[s[0]], m[s[1]]);
    g(v, [1, 5, 9, 13], m[s[2]], m[s[3]]);
    g(v, [2, 6, 10, 14], m[s[4]], m[s[5]]);
    g(v, [3, 7, 11, 15], m[s[6]], m[s[7]]);
    g(v, [0, 5, 10, 15], m[s[8]], m[s[9]]);
    g(v, [1, 6, 11, 12], m[s[10]], m[s[11]]);
    g(v, [2, 7, 8, 13], m[s[12]], m[s[13]]);
    g(v, [3, 4, 9, 14], m[s[14]], m[s[15]]);
}

/// The mixing function G (RFC 7693 §3.1).
#[inline(always)]
fn g(v: &mut [u64; 16], [a, b, c, d]: [usize; 4], x: u64, y: u64) {
    v[a] = v[a].wrapping_add(v[b]).wrapping_add(x);
    v[d] = (v[d] ^ v[a]).rotate_right(32);
    v[c] = v[c].wrapping_add(v[d]);
    v[b] = (v[b] ^ v[c]).rotate_right(24);
    v[a] = v[a].wrapping_add(v[b]).wrapping_add(y);
    v[d] = (v[d] ^ v[a]).rotate_right(16);
    v[c] = v[c].wrapping_add(v[d]);
    v[b] = (v[b] ^ v[c]).rotate_right(63);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// `i mod 251` for `i` in `0..len`: no period divides the block size.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn rfc7693_anchors() {
        assert_eq!(
            hex(&blake2b_256(b"")),
            "0e5751c026e543b2e8ab2eb06099daa1d1e5df47778f7787faab45cdf12fe3a8"
        );
        assert_eq!(
            hex(&blake2b_256(b"abc")),
            "bddd813c634239723171ef3fee98579b94964e3bb1cb3e427262c8c068d52319"
        );
    }

    /// Pinned with CPython's `hashlib.blake2b(pattern, digest_size=32)`,
    /// at every length where the block split changes: empty, one byte,
    /// one block minus, at and plus one byte, two blocks, and a 256 KiB +
    /// 5 body.
    #[test]
    fn lengths_around_block_boundaries() {
        let lens = [0, 1, 127, 128, 129, 255, 256, 1000, 262_149];
        let digests = [
            "0e5751c026e543b2e8ab2eb06099daa1d1e5df47778f7787faab45cdf12fe3a8",
            "03170a2e7597b7b7e3d84c05391d139a62b157e78786d8c082f29dcf4c111314",
            "f2fe67ff342e21b8f45e8f2e0bcd1d9243245d50ee6c78042e9c491388791c72",
            "c3582f71ebb2be66fa5dd750f80baae97554f3b015663c8be377cfcb2488c1d1",
            "f7f3c46ba2564ff4c4c162da1f5b605f9f1c4aa6a20652a9f9a337c1a2f5b9c9",
            "d9ef0fc521b4266d16df662bec231bc2ec3989e7adeaf63169c295dc239dbbea",
            "582f782226018ec33076bd8d1c42413530ac7e1126260ffc0f306ba3befc3f24",
            "b372d0608f720c8c3dd41e9c8eecb10143b41abe520b616607e754bf79c08331",
            "fb2a7feb18195d248c9a904fd6a81c59d43a811bc245873e006dcc3567c1281e",
        ];
        for (len, digest) in lens.into_iter().zip(digests) {
            assert_eq!(hex(&blake2b_256(&pattern(len))), digest, "len={len}");
        }
    }
}
