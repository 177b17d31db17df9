//! The Poly1305 one-time authenticator (RFC 8439 §2.5).
//!
//! The accumulator `h` and the clamped key `r` are held in three limbs of
//! 44, 44 and 42 bits, so each product `hᵢ·rⱼ` is a `u64 × u64 → u128`
//! multiply with headroom for the three-term column sums. Reduction modulo
//! `p = 2¹³⁰ − 5` folds the bits above 2¹³⁰ back in times 5 (pre-multiplied
//! into `sᵢ = 20·rᵢ` for the wrapped columns), and keeps `h` only partially
//! reduced between blocks.
//!
//! # Constant time
//!
//! Multiplies, shifts, additions and masks only: there is no table and no
//! branch on the key, the message or the accumulator. The final "subtract
//! `p` if `h ≥ p`" selects with a mask derived from the borrow. The only
//! branches look at the message length, which is public.

/// Tag length in bytes.
pub const TAG_LEN: usize = 16;

/// Bytes per Poly1305 block.
const BLOCK: usize = 16;

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;

/// Incremental Poly1305 over a message fed in pieces of any length.
pub(crate) struct Poly1305 {
    r: [u64; 3],
    /// `20·r₁` and `20·r₂`: the `r` limbs of the columns that wrap past 2¹³⁰.
    s: [u64; 2],
    h: [u64; 3],
    pad: [u64; 2],
    buf: [u8; BLOCK],
    buffered: usize,
}

fn le64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"))
}

impl Poly1305 {
    /// Starts a MAC under the one-time key `r ‖ s` (`r` is clamped here).
    pub(crate) fn new(key: &[u8; 32]) -> Self {
        let (t0, t1) = (le64(&key[0..8]), le64(&key[8..16]));
        let r = [
            t0 & 0xffc_0fff_ffff,
            ((t0 >> 44) | (t1 << 20)) & 0xfff_ffc0_ffff,
            (t1 >> 24) & 0x00f_ffff_fc0f,
        ];
        Self {
            r,
            s: [r[1] * 20, r[2] * 20],
            h: [0; 3],
            pad: [le64(&key[16..24]), le64(&key[24..32])],
            buf: [0; BLOCK],
            buffered: 0,
        }
    }

    /// `h ← (h + m)·r mod p` (partially reduced) for each 16-byte block of
    /// `blocks`, with `hibit` the 2¹²⁸ bit of every `m` (2⁴⁰ in limb 2).
    fn blocks(&mut self, blocks: &[u8], hibit: u64) {
        let [r0, r1, r2] = self.r;
        let [s1, s2] = self.s;
        let [mut h0, mut h1, mut h2] = self.h;
        let wide = |a: u64, b: u64| u128::from(a) * u128::from(b);
        for m in blocks.chunks_exact(BLOCK) {
            let (t0, t1) = (le64(&m[0..8]), le64(&m[8..16]));
            h0 += t0 & MASK44;
            h1 += ((t0 >> 44) | (t1 << 20)) & MASK44;
            h2 += ((t1 >> 24) & MASK42) | hibit;

            let d0 = wide(h0, r0) + wide(h1, s2) + wide(h2, s1);
            let mut d1 = wide(h0, r1) + wide(h1, r0) + wide(h2, s2);
            let mut d2 = wide(h0, r2) + wide(h1, r1) + wide(h2, r0);

            h0 = d0 as u64 & MASK44;
            d1 += d0 >> 44;
            h1 = d1 as u64 & MASK44;
            d2 += d1 >> 44;
            h2 = d2 as u64 & MASK42;
            let c = (d2 >> 42) as u64;
            h0 += c * 5;
            h1 += h0 >> 44;
            h0 &= MASK44;
        }
        self.h = [h0, h1, h2];
    }

    /// Absorbs `data`.
    pub(crate) fn update(&mut self, mut data: &[u8]) {
        if self.buffered > 0 {
            let take = data.len().min(BLOCK - self.buffered);
            self.buf[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < BLOCK {
                return;
            }
            let block = self.buf;
            self.blocks(&block, 1 << 40);
            self.buffered = 0;
        }
        let full = data.len() - data.len() % BLOCK;
        self.blocks(&data[..full], 1 << 40);
        let tail = &data[full..];
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// The tag: `(h mod p) + s mod 2¹²⁸`, little-endian.
    pub(crate) fn finalize(mut self) -> [u8; TAG_LEN] {
        if self.buffered > 0 {
            // The short last block ends in a 1 byte and has no 2¹²⁸ bit.
            let mut last = [0u8; BLOCK];
            last[..self.buffered].copy_from_slice(&self.buf[..self.buffered]);
            last[self.buffered] = 1;
            self.blocks(&last, 0);
        }
        let [mut h0, mut h1, mut h2] = self.h;

        // Carry fully: h < 2¹³⁰ + small, then below 2¹³⁰.
        let mut c = h1 >> 44;
        h1 &= MASK44;
        h2 += c;
        c = h2 >> 42;
        h2 &= MASK42;
        h0 += c * 5;
        c = h0 >> 44;
        h0 &= MASK44;
        h1 += c;
        c = h1 >> 44;
        h1 &= MASK44;
        h2 += c;
        c = h2 >> 42;
        h2 &= MASK42;
        h0 += c * 5;
        c = h0 >> 44;
        h0 &= MASK44;
        h1 += c;

        // g = h + 5 − 2¹³⁰ = h − p; keep it where it did not borrow (h ≥ p).
        let mut g0 = h0 + 5;
        c = g0 >> 44;
        g0 &= MASK44;
        let mut g1 = h1 + c;
        c = g1 >> 44;
        g1 &= MASK44;
        let g2 = (h2 + c).wrapping_sub(1 << 42);
        let keep_g = (g2 >> 63).wrapping_sub(1);
        h0 = (h0 & !keep_g) | (g0 & keep_g);
        h1 = (h1 & !keep_g) | (g1 & keep_g);
        h2 = (h2 & !keep_g) | (g2 & keep_g);

        // h + s mod 2¹²⁸.
        let [p0, p1] = self.pad;
        h0 += p0 & MASK44;
        c = h0 >> 44;
        h0 &= MASK44;
        h1 += (((p0 >> 44) | (p1 << 20)) & MASK44) + c;
        c = h1 >> 44;
        h1 &= MASK44;
        h2 += ((p1 >> 24) & MASK42) + c;

        let mut tag = [0u8; TAG_LEN];
        tag[..8].copy_from_slice(&(h0 | (h1 << 44)).to_le_bytes());
        tag[8..].copy_from_slice(&((h1 >> 20) | (h2 << 24)).to_le_bytes());
        tag
    }
}

/// One-shot Poly1305 of `message` under the one-time key `key`.
pub fn poly1305(key: &[u8; 32], message: &[u8]) -> [u8; TAG_LEN] {
    let mut mac = Poly1305::new(key);
    mac.update(message);
    mac.finalize()
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
    fn rfc8439_mac() {
        // §2.5.2.
        let key = hex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
        let tag = poly1305(
            &key.try_into().unwrap(),
            b"Cryptographic Forum Research Group",
        );
        assert_eq!(tag[..], hex("a8061dc1305136c6c22b8baf0c0127a9")[..]);
    }

    #[test]
    fn streaming_matches_one_shot_at_every_split() {
        let key: [u8; 32] = core::array::from_fn(|i| (i * 37 + 11) as u8);
        let message: Vec<u8> = (0..100u32).map(|i| (i * 13 + 5) as u8).collect();
        let whole = poly1305(&key, &message);
        for a in 0..=message.len() {
            for b in [a, (a + 1).min(message.len()), (a + 17).min(message.len())] {
                let mut mac = Poly1305::new(&key);
                mac.update(&message[..a]);
                mac.update(&message[a..b]);
                mac.update(&message[b..]);
                assert_eq!(mac.finalize(), whole, "splits {a} {b}");
            }
        }
    }
}
