//! # pbcd-bench
//!
//! Workload generators, measurement helpers and naive reference twins for
//! the `reproduce` binary, which regenerates every table and figure of the
//! paper's evaluation (§VII). The binary's module docs list its targets;
//! `docs/ARCHITECTURE.md` places this crate in the crate map and names
//! the ablations' reproduction surface in "The GKM seam".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pbcd_commit::{Commitment, Opening};
use pbcd_crypto::NONCE_LEN;
use pbcd_gkm::{AccessRow, AcvBgkm, AcvPublicInfo};
use pbcd_group::CyclicGroup;
use pbcd_group::P256Group;
use pbcd_math::{Fp, FpCtx, Matrix, U192, U256};
use pbcd_ocbe::{BitProof, BitSecrets, Direction, OcbeSystem};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::time::{Duration, Instant};

/// Default deterministic RNG for experiments.
pub fn bench_rng() -> StdRng {
    StdRng::seed_from_u64(0xB34C4)
}

/// Per-run wall time of `f` over `rounds` runs: the runs are split into
/// `min(rounds, 5)` batches as even as they go, each batch's average is one
/// sample, and the median sample (the upper middle one for an even count)
/// is returned — so one descheduled batch does not move the figure.
pub fn time_avg<T>(rounds: usize, mut f: impl FnMut() -> T) -> Duration {
    assert!(rounds > 0);
    let batches = rounds.min(5);
    let mut samples: Vec<Duration> = (0..batches)
        .map(|b| {
            let runs = rounds / batches + usize::from(b < rounds % batches);
            let start = Instant::now();
            for _ in 0..runs {
                std::hint::black_box(f());
            }
            start.elapsed() / runs as u32
        })
        .collect();
    samples.sort_unstable();
    samples[batches / 2]
}

/// Milliseconds as f64.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------------
// GKM workloads (Figures 3, 4, 5, 6)
// ---------------------------------------------------------------------------

/// The paper's §VII-B workload: a *user configuration* is `(N, fill)` —
/// `N` maximum users with `fill·N` current subscribers; 25 policies with
/// ~`conds_per_policy` conditions each; every subscriber satisfies the
/// policy under consideration.
pub struct GkmWorkload {
    /// The ACV-BGKM instance sized so the matrix has exactly `N+1` columns.
    pub scheme: AcvBgkm,
    /// The current subscribers' access rows (`fill·N` of them).
    pub rows: Vec<AccessRow>,
}

/// Builds the Figure 3/4/5 workload for a `(max_users, percent)` user
/// configuration with `conds_per_policy` conditions per policy (the paper
/// uses an average of two).
pub fn gkm_workload(
    max_users: usize,
    percent: usize,
    conds_per_policy: usize,
    rng: &mut StdRng,
) -> GkmWorkload {
    let current = max_users * percent / 100;
    let field = FpCtx::new(pbcd_math::gkm_q80());
    // extra_slots tops the matrix up to exactly N columns.
    let scheme = AcvBgkm::new(field, 2, max_users - current);
    let css_len = 16 * conds_per_policy; // κ = 128-bit CSS per condition
    let rows = (0..current)
        .map(|i| {
            let mut css = vec![0u8; css_len];
            rng.fill_bytes(&mut css);
            AccessRow {
                nym: format!("pn-{i:05}"),
                css_concat: css,
            }
        })
        .collect();
    GkmWorkload { scheme, rows }
}

// ---------------------------------------------------------------------------
// ACV-BGKM from public primitives (the `acv_*_naive` twins of bench-json)
// ---------------------------------------------------------------------------

/// ACV-BGKM written against public primitives only: one allocated
/// concatenation and one `sha256` per row for the row key, one
/// [`naive_chacha20_block`] and one wide-integer `rem` per matrix entry, a
/// Gauss–Jordan [`Matrix::null_space_basis`] combined with coefficients
/// drawn from the caller's rng. It is the row function and solve `AcvBgkm`
/// documents, without its in-place expansion or its echelon-form stop, so
/// for one rng stream the two agree to the byte and leave the rng in the
/// same state: bench-json times `AcvBgkm` beside it, and
/// `tests/acv_identity.rs` holds every entry point to it.
pub struct NaiveAcv {
    /// The GKM field.
    pub field: std::sync::Arc<FpCtx<2>>,
    /// The configured nonce width τ in bytes.
    pub tau_bytes: usize,
    /// Spare columns: `N = #rows + extra_slots`.
    pub extra_slots: usize,
}

impl NaiveAcv {
    /// The reference over the GKM field `q80`.
    pub fn new(tau_bytes: usize, extra_slots: usize) -> Self {
        Self {
            field: FpCtx::new(pbcd_math::gkm_q80()),
            tau_bytes,
            extra_slots,
        }
    }

    /// The scheme under test with the same parameters.
    pub fn scheme(&self) -> AcvBgkm {
        AcvBgkm::new(self.field.clone(), self.tau_bytes, self.extra_slots)
    }

    /// `N` pairwise distinct nonces, τ raised until `τ·N > 160` bits and
    /// until `N` values fill at most half the nonce space.
    fn nonces(&self, rows: usize, rng: &mut StdRng) -> Vec<Vec<u8>> {
        let n = (rows + self.extra_slots).max(1);
        let mut tau = self.tau_bytes.max(161usize.div_ceil(8 * n));
        while 8 * tau < usize::BITS as usize && n > 1 << (8 * tau - 1) {
            tau += 1;
        }
        let mut zs: Vec<Vec<u8>> = Vec::new();
        while zs.len() < n {
            let mut z = vec![0u8; tau];
            rng.fill_bytes(&mut z);
            if !zs.contains(&z) {
                zs.push(z);
            }
        }
        zs
    }

    /// The tail `a₁…a_N` of a matrix row / key-extraction vector: `k =
    /// sha256(label ‖ u64 len(css) ‖ css ‖ u64 N ‖ z₁ ‖ … ‖ z_N)`, then `aⱼ`
    /// = half `(j−1) mod 2` of ChaCha20 block `⌊(j−1)/2⌋` under `k` with the
    /// zero nonce, read big-endian, `mod q`.
    pub fn hash_row(&self, css: &[u8], zs: &[Vec<u8>]) -> Vec<Fp<2>> {
        let mut input = b"pbcd-acv-row-chacha20".to_vec();
        input.extend((css.len() as u64).to_be_bytes());
        input.extend(css);
        input.extend((zs.len() as u64).to_be_bytes());
        input.extend(zs.concat());
        let key = pbcd_crypto::sha256(&input);
        (0..zs.len())
            .map(|j| {
                let block = naive_chacha20_block(&key, (j / 2) as u32, &[0; NONCE_LEN]);
                let half = U256::from_be_bytes(&block[32 * (j % 2)..][..32]).expect("32 bytes");
                let reduced = half.rem(&self.field.modulus().widen::<4>());
                self.field
                    .from_uint(&reduced.narrow::<2>().expect("below q"))
            })
            .collect()
    }

    /// Matrix `A`: one row `[1, a_{i,1}, …, a_{i,N}]` per access row.
    fn matrix(&self, rows: &[AccessRow], zs: &[Vec<u8>]) -> Matrix<2> {
        let tails: Vec<_> = rows
            .iter()
            .map(|r| self.hash_row(&r.css_concat, zs))
            .collect();
        Matrix::from_fn(&self.field, rows.len(), zs.len() + 1, |i, j| match j {
            0 => self.field.one(),
            _ => tails[i][j - 1].clone(),
        })
    }

    /// `Σ cₖ·basisₖ` over [`Matrix::null_space_basis`], `cₖ` drawn in basis
    /// order and redrawn while the sum is zero; the zero vector, with no
    /// draw, when the null space is trivial.
    pub fn null_vector(&self, a: &Matrix<2>, rng: &mut StdRng) -> Vec<Fp<2>> {
        let basis = a.null_space_basis();
        let mut out = vec![self.field.zero(); a.cols()];
        while !basis.is_empty() && out.iter().all(Fp::is_zero) {
            for b in &basis {
                let c = self.field.random(rng);
                for (o, e) in out.iter_mut().zip(b) {
                    *o = &*o + &(&c * e);
                }
            }
        }
        out
    }

    /// The public info for `key`; footnote 11: resample while the tail of
    /// `X` is all zero.
    fn acv(&self, a: &Matrix<2>, key: &Fp<2>, zs: &[Vec<u8>], rng: &mut StdRng) -> AcvPublicInfo {
        loop {
            let mut x = self.null_vector(a, rng);
            x[0] = &x[0] + key;
            if a.rows() == 0 || x[1..].iter().any(|e| !e.is_zero()) {
                return AcvPublicInfo {
                    x: x.iter().map(Fp::to_uint).collect(),
                    zs: zs.to_vec(),
                };
            }
        }
    }

    /// A field element as a derived key: its last `⌈bits(q)/8⌉` big-endian
    /// bytes.
    pub fn key_bytes(&self, key: &Fp<2>) -> Vec<u8> {
        let len = (self.field.modulus_bits() as usize).div_ceil(8);
        key.to_be_bytes()[16 - len..].to_vec()
    }

    /// `count` keys and public infos over one nonce set and one matrix.
    pub fn rekey_batch(
        &self,
        rows: &[AccessRow],
        count: usize,
        rng: &mut StdRng,
    ) -> Vec<(Vec<u8>, AcvPublicInfo)> {
        let zs = self.nonces(rows.len(), rng);
        let a = self.matrix(rows, &zs);
        (0..count)
            .map(|_| {
                let key = self.field.random_nonzero(rng);
                (self.key_bytes(&key), self.acv(&a, &key, &zs, rng))
            })
            .collect()
    }

    /// One rekey under a caller-chosen key.
    pub fn rekey_with_key(
        &self,
        rows: &[AccessRow],
        key: &Fp<2>,
        rng: &mut StdRng,
    ) -> AcvPublicInfo {
        let zs = self.nonces(rows.len(), rng);
        self.acv(&self.matrix(rows, &zs), key, &zs, rng)
    }

    /// One key and public info per configuration, over one nonce set as
    /// wide as the widest configuration.
    pub fn rekey_configs(
        &self,
        configs: &[Vec<AccessRow>],
        rng: &mut StdRng,
    ) -> Vec<(Vec<u8>, AcvPublicInfo)> {
        let widest = configs.iter().map(Vec::len).max().unwrap_or(0);
        let zs = self.nonces(widest, rng);
        configs
            .iter()
            .map(|rows| {
                let a = self.matrix(rows, &zs);
                let key = self.field.random_nonzero(rng);
                (self.key_bytes(&key), self.acv(&a, &key, &zs, rng))
            })
            .collect()
    }

    /// `K = ν·X` with every term reduced before it is used.
    pub fn derive_key(&self, info: &AcvPublicInfo, css: &[u8]) -> Vec<u8> {
        let mut k = self.field.from_uint(&info.x[0]);
        for (a, xj) in self.hash_row(css, &info.zs).iter().zip(&info.x[1..]) {
            k = &k + &(a * &self.field.from_uint(xj));
        }
        self.key_bytes(&k)
    }
}

// ---------------------------------------------------------------------------
// Symmetric kernels from their specifications (the `*_naive` twins of
// bench-json)
// ---------------------------------------------------------------------------

/// The RFC 8439 §2.1 quarter round on four state words, as the pseudo-code
/// writes it.
fn naive_quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] ^= state[a];
    state[d] = state[d].rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] ^= state[c];
    state[b] = state[b].rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] ^= state[a];
    state[d] = state[d].rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] ^= state[c];
    state[b] = state[b].rotate_left(7);
}

/// The RFC 8439 §2.3.1 block function: constants, key, counter and nonce
/// words, ten `inner_block`s, the input added back, serialized
/// little-endian.
pub fn naive_chacha20_block(key: &[u8; 32], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; 64] {
    let le = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let mut state = [0u32; 16];
    state[0] = 0x6170_7865;
    state[1] = 0x3320_646e;
    state[2] = 0x7962_2d32;
    state[3] = 0x6b20_6574;
    for i in 0..8 {
        state[4 + i] = le(&key[4 * i..]);
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = le(&nonce[4 * i..]);
    }
    let initial = state;
    for _ in 0..10 {
        naive_quarter_round(&mut state, 0, 4, 8, 12);
        naive_quarter_round(&mut state, 1, 5, 9, 13);
        naive_quarter_round(&mut state, 2, 6, 10, 14);
        naive_quarter_round(&mut state, 3, 7, 11, 15);
        naive_quarter_round(&mut state, 0, 5, 10, 15);
        naive_quarter_round(&mut state, 1, 6, 11, 12);
        naive_quarter_round(&mut state, 2, 7, 8, 13);
        naive_quarter_round(&mut state, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        out[4 * i..4 * i + 4].copy_from_slice(&state[i].wrapping_add(initial[i]).to_le_bytes());
    }
    out
}

/// RFC 8439 §2.4.1 `chacha20_encrypt`: each full 64-byte block XORed with
/// block `counter + j`, then the partial tail. The path
/// `pbcd_crypto::chacha20_xor` is measured beside, and the output it must
/// reproduce to the byte.
pub fn naive_chacha20(
    key: &[u8; 32],
    counter: u32,
    nonce: &[u8; NONCE_LEN],
    plaintext: &[u8],
) -> Vec<u8> {
    let mut encrypted = Vec::with_capacity(plaintext.len());
    for j in 0..plaintext.len() / 64 {
        let key_stream = naive_chacha20_block(key, counter + j as u32, nonce);
        let block = &plaintext[j * 64..j * 64 + 64];
        encrypted.extend(block.iter().zip(key_stream).map(|(p, k)| p ^ k));
    }
    if plaintext.len() % 64 != 0 {
        let j = plaintext.len() / 64;
        let key_stream = naive_chacha20_block(key, counter + j as u32, nonce);
        let block = &plaintext[j * 64..];
        encrypted.extend(block.iter().zip(key_stream).map(|(p, k)| p ^ k));
    }
    encrypted
}

/// A little-endian byte string as a 192-bit integer.
fn le_bytes_to_num(bytes: &[u8]) -> U192 {
    let mut be = bytes.to_vec();
    be.reverse();
    U192::from_be_bytes(&be).expect("at most 24 bytes")
}

/// RFC 8439 §2.5.1 `poly1305_mac` in arbitrary precision: `a = (a + n)·r
/// mod 2¹³⁰ − 5` per 16-byte block `n` (with its 0x01 byte appended), then
/// `a + s`, low 128 bits. The twin `pbcd_crypto::poly1305`'s 44-bit limbs
/// must reproduce.
pub fn naive_poly1305(key: &[u8; 32], msg: &[u8]) -> [u8; 16] {
    let mut r_bytes = key[..16].to_vec();
    for i in [3, 7, 11, 15] {
        r_bytes[i] &= 15;
    }
    for i in [4, 8, 12] {
        r_bytes[i] &= 252;
    }
    let r = le_bytes_to_num(&r_bytes);
    let s = le_bytes_to_num(&key[16..]);
    let p = U192::from(1).shl(130).wrapping_sub(&U192::from(5));
    let mut a = U192::from(0);
    for chunk in msg.chunks(16) {
        let n = le_bytes_to_num(&[chunk, &[1]].concat());
        a = a.wrapping_add(&n).mul_mod(&r, &p);
    }
    a = a.wrapping_add(&s);
    let mut le = a.to_be_bytes();
    le.reverse();
    le[..16].try_into().expect("24 bytes")
}

/// `pbcd_crypto::AuthKey` from the two twins: the key `AuthKey::from_master`
/// derives, block 0 as the Poly1305 key, the RFC 8439 §2.8 MAC data with
/// empty associated data, the same `nonce ‖ ct ‖ tag` message.
pub struct NaiveAead {
    key: [u8; 32],
}

impl NaiveAead {
    /// The key `AuthKey::from_master` derives.
    pub fn from_master(master: &[u8]) -> Self {
        let key = pbcd_crypto::derive_key(master, "pbcd-authenc-chacha20-poly1305", 32);
        Self {
            key: key.try_into().expect("32 bytes"),
        }
    }

    /// `AuthKey::encrypt_with_nonce`.
    pub fn encrypt_with_nonce(&self, nonce: &[u8; NONCE_LEN], plaintext: &[u8]) -> Vec<u8> {
        let otk: [u8; 32] = naive_chacha20_block(&self.key, 0, nonce)[..32]
            .try_into()
            .expect("32 bytes");
        let ciphertext = naive_chacha20(&self.key, 1, nonce, plaintext);
        let mut mac_data = ciphertext.clone();
        mac_data.resize(ciphertext.len().div_ceil(16) * 16, 0);
        mac_data.extend_from_slice(&0u64.to_le_bytes());
        mac_data.extend_from_slice(&(ciphertext.len() as u64).to_le_bytes());
        let tag = naive_poly1305(&otk, &mac_data);
        [nonce.as_slice(), &ciphertext, &tag].concat()
    }
}

/// CRC32 (IEEE 802.3) one byte per step from a 256-entry table: the
/// retention log's checksum before slice-by-8, and `crc32_256k`'s twin.
pub fn naive_crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    !data.iter().fold(!0u32, |crc, &b| {
        TABLE[(crc as u8 ^ b) as usize] ^ (crc >> 8)
    })
}

// ---------------------------------------------------------------------------
// OCBE workloads (Table II, Figure 2)
// ---------------------------------------------------------------------------

/// Pre-generated inputs for one GE-OCBE round at a given ℓ.
pub struct GeRound {
    /// The OCBE deployment.
    pub sys: OcbeSystem<P256Group>,
    /// Receiver's committed attribute value.
    pub x: u64,
    /// Policy threshold (satisfied: `x ≥ x0`).
    pub x0: u64,
    /// The receiver's commitment.
    pub commitment: Commitment<P256Group>,
    /// The receiver's opening.
    pub opening: Opening,
}

/// Builds a satisfied GE-OCBE instance over ℓ-bit values.
pub fn ge_round(ell: u32, rng: &mut StdRng) -> GeRound {
    let sys = OcbeSystem::new(P256Group::new(), ell);
    let max = (1u64 << ell) - 1;
    let x0 = rng.gen_range(0..=max);
    let x = rng.gen_range(x0..=max);
    let (commitment, opening) = sys.pedersen().commit_u64(x, rng);
    GeRound {
        sys,
        x,
        x0,
        commitment,
        opening,
    }
}

/// The three measured GE-OCBE steps of Figure 2, returned as
/// `(create_extra_commitments, compose_envelope, open_envelope)`.
pub fn ge_steps(
    round: &GeRound,
    payload: &[u8],
    rng: &mut StdRng,
) -> (Duration, Duration, Duration) {
    let ell = round.sys.ell();
    let ped = round.sys.pedersen();
    // Step 1 (Sub): create extra commitments.
    let t0 = Instant::now();
    let (proof, secrets): (BitProof<P256Group>, BitSecrets) = pbcd_ocbe::bitwise::prepare(
        ped,
        round.x,
        &round.opening,
        round.x0,
        ell,
        Direction::Ge,
        rng,
    )
    .expect("valid parameters");
    let t_prepare = t0.elapsed();
    // Step 2 (Pub): compose envelope.
    let t0 = Instant::now();
    let env = pbcd_ocbe::bitwise::compose(
        ped,
        &round.commitment,
        round.x0,
        ell,
        Direction::Ge,
        &proof,
        payload,
        rng,
    )
    .expect("consistent proof");
    let t_compose = t0.elapsed();
    // Step 3 (Sub): open envelope.
    let t0 = Instant::now();
    let opened = pbcd_ocbe::bitwise::open(round.sys.group(), &env, &secrets);
    let t_open = t0.elapsed();
    assert_eq!(opened.as_deref(), Some(payload));
    (t_prepare, t_compose, t_open)
}

/// One EQ-OCBE round (Table II): returns `(compose, open)` — the "create
/// extra commitments" step is empty for EQ.
pub fn eq_steps(payload: &[u8], rng: &mut StdRng) -> (Duration, Duration) {
    let sys = OcbeSystem::new(P256Group::new(), 48);
    let ped = sys.pedersen();
    let sc = sys.group().scalar_ctx().clone();
    let x: u64 = rng.gen_range(0..1 << 30);
    let (commitment, opening) = ped.commit_u64(x, rng);
    let t0 = Instant::now();
    let env = pbcd_ocbe::eq::compose(ped, &commitment, &sc.from_u64(x), payload, rng);
    let t_compose = t0.elapsed();
    let t0 = Instant::now();
    let opened = pbcd_ocbe::eq::open(sys.group(), &env, &opening.randomness);
    let t_open = t0.elapsed();
    assert_eq!(opened.as_deref(), Some(payload));
    (t_compose, t_open)
}

// ---------------------------------------------------------------------------
// Network-plane workloads (BENCH_net.json)
// ---------------------------------------------------------------------------

/// The broker fan-out benchmark container: 4 policy groups × 4 KiB
/// ciphertext segments plus ACV-sized key info — a realistic mid-size
/// broadcast. Shared by the `reproduce` binary and the
/// `broker_fanout_10k` example so both measure the same workload.
pub fn fanout_container() -> pbcd_docs::BroadcastContainer {
    use pbcd_docs::{BroadcastContainer, EncryptedGroup, EncryptedSegment};
    BroadcastContainer {
        epoch: 1,
        document_name: "bench.xml".into(),
        skeleton_xml: "<doc><pbcd-segment id=\"0\"/></doc>".into(),
        groups: (0..4u32)
            .map(|config_id| EncryptedGroup {
                config_id,
                key_info: vec![0x5A; 256],
                segments: vec![EncryptedSegment {
                    segment_id: config_id,
                    tag: format!("Section{config_id}"),
                    ciphertext: vec![0xC5; 4096],
                }],
            })
            .collect(),
    }
}

/// Counts complete protocol frames in a raw byte stream without decoding
/// them: every frame is a `u32` big-endian length prefix followed by that
/// many body bytes. Subscriber herd threads feed whatever the socket
/// yields and get back the number of frames that completed — after the
/// subscribe handshake the only inbound frames are deliveries, so the
/// count *is* the delivery count.
#[derive(Clone, Default)]
pub struct FrameCounter {
    header: [u8; 4],
    have: usize,
    remaining: usize,
}

impl FrameCounter {
    /// Fresh counter at a frame boundary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes `buf`, returning how many frames it completed.
    pub fn feed(&mut self, mut buf: &[u8]) -> u64 {
        let mut frames = 0;
        while !buf.is_empty() {
            if self.remaining == 0 {
                // Collecting the 4-byte length prefix.
                let take = (4 - self.have).min(buf.len());
                self.header[self.have..self.have + take].copy_from_slice(&buf[..take]);
                self.have += take;
                buf = &buf[take..];
                if self.have == 4 {
                    self.remaining = u32::from_be_bytes(self.header) as usize;
                    self.have = 0;
                    if self.remaining == 0 {
                        frames += 1; // degenerate empty frame
                    }
                }
            } else {
                let take = self.remaining.min(buf.len());
                self.remaining -= take;
                buf = &buf[take..];
                if self.remaining == 0 {
                    frames += 1;
                }
            }
        }
        frames
    }
}

/// A pooled subscriber herd for the large fan-out tiers: `subs` wildcard
/// subscriptions multiplexed onto `sweep_threads` client-side threads
/// over non-blocking sockets, mirroring the broker's own event-driven
/// plane. Thread-per-subscriber clients top out around a few hundred
/// connections on a small host; the herd makes the 1k/4k/10k tiers
/// measurable from one process.
pub struct FanoutHerd {
    threads: Vec<std::thread::JoinHandle<()>>,
    delivered: std::sync::Arc<std::sync::atomic::AtomicU64>,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl FanoutHerd {
    /// Connects and wildcard-subscribes `subs` clients through the typed
    /// handshake (so subscribe Acks are consumed before counting starts),
    /// then hands the raw sockets to sweep threads.
    pub fn connect(addr: std::net::SocketAddr, subs: usize, sweep_threads: usize) -> Self {
        use pbcd_net::{BrokerClient, PeerRole};
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::Arc;

        let mut streams = Vec::with_capacity(subs);
        for _ in 0..subs {
            let mut client = BrokerClient::connect(addr, PeerRole::Subscriber)
                .expect("herd subscriber connects");
            client.subscribe::<&str>(&[]).expect("herd subscribe");
            let stream = client.into_stream();
            stream.set_nonblocking(true).expect("herd non-blocking");
            streams.push(stream);
        }

        let delivered = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let chunk = subs.div_ceil(sweep_threads.max(1)).max(1);
        let mut threads = Vec::new();
        while !streams.is_empty() {
            let take = chunk.min(streams.len());
            let mut mine: Vec<_> = streams.drain(..take).collect();
            let delivered = Arc::clone(&delivered);
            let stop = Arc::clone(&stop);
            threads.push(std::thread::spawn(move || {
                use std::io::Read;
                let mut counters = vec![FrameCounter::new(); mine.len()];
                let mut buf = vec![0u8; 64 * 1024];
                while !stop.load(Ordering::Relaxed) && !mine.is_empty() {
                    let mut progressed = false;
                    let mut i = 0;
                    while i < mine.len() {
                        match mine[i].read(&mut buf) {
                            Ok(0) => {
                                // Peer closed; forget the stream.
                                mine.swap_remove(i);
                                counters.swap_remove(i);
                                continue;
                            }
                            Ok(n) => {
                                let frames = counters[i].feed(&buf[..n]);
                                if frames > 0 {
                                    delivered.fetch_add(frames, Ordering::Relaxed);
                                }
                                progressed = true;
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                            Err(_) => {
                                mine.swap_remove(i);
                                counters.swap_remove(i);
                                continue;
                            }
                        }
                        i += 1;
                    }
                    if !progressed {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }));
        }
        Self {
            threads,
            delivered,
            stop,
        }
    }

    /// Total frames (deliveries) counted so far across the herd.
    pub fn delivered(&self) -> u64 {
        self.delivered.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Polls until the cumulative delivery count reaches `target`;
    /// `false` on timeout.
    pub fn wait_delivered(&self, target: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.delivered() < target {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        true
    }

    /// Stops the sweep threads and closes every herd socket.
    pub fn shutdown(self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// The two-condition ward policy set of the registration workload.
fn registration_policies() -> pbcd_policy::PolicySet {
    use pbcd_policy::{AccessControlPolicy, AttributeCondition, ComparisonOp, PolicySet};
    let mut set = PolicySet::new();
    set.add(AccessControlPolicy::new(
        vec![AttributeCondition::eq_str("role", "doctor")],
        &["Diagnosis"],
        "ward.xml",
    ));
    set.add(AccessControlPolicy::new(
        vec![AttributeCondition::new("clearance", ComparisonOp::Ge, 5)],
        &["Billing"],
        "ward.xml",
    ));
    set
}

/// A batched-registration workload: the publisher service plus `n`
/// distinct-subscriber EQ registrations, returned both as one
/// `RegisterBatch` frame and as the `n` individual `Register` frames, so a
/// bench can price the round-trip amortization directly (same service,
/// same proofs, same verification work — only the framing differs).
/// Distinct subscribers land in different CSS-table rows; a replayed
/// request is re-served by design (credential-update semantics), which
/// makes each request a repeatable unit of work.
pub fn registration_batch_workload(
    n: usize,
) -> (
    pbcd_core::PublisherService<P256Group>,
    Vec<u8>,
    Vec<Vec<u8>>,
) {
    use pbcd_core::proto::Request;
    use pbcd_core::{PublisherService, RegistrationSession, SystemHarness};
    use pbcd_policy::{AttributeCondition, AttributeSet};
    let mut sys = SystemHarness::new_p256(registration_policies(), 0xBE7C);
    let group = P256Group::new();
    let cond = AttributeCondition::eq_str("role", "doctor");
    let mut singles = Vec::new();
    let mut items = Vec::new();
    for i in 0..n {
        let mut sub = sys.onboard(
            &format!("bench-subject-{i}"),
            AttributeSet::new()
                .with_str("role", "doctor")
                .with("clearance", 7),
        );
        let mut rng = StdRng::seed_from_u64(100 + i as u64);
        let session = RegistrationSession::new(&mut sub, group.clone(), 48);
        let (request, _pending) = session.start(&cond, &mut rng).expect("start");
        match Request::decode(&group, &request).expect("single decodes") {
            Request::Register(item) => items.push(item),
            other => panic!("expected Register, got {other:?}"),
        }
        singles.push(request);
    }
    let batch = Request::RegisterBatch(items)
        .encode(&group)
        .expect("batch encodes");
    let SystemHarness { publisher, .. } = sys;
    (PublisherService::new(publisher, 1), batch, singles)
}

/// Pretty-prints one row of a report table.
pub fn print_row(label: &str, cells: &[String]) {
    print!("{label:<30}");
    for c in cells {
        print!("{c:>14}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_avg_runs_every_round_and_drops_a_slow_batch() {
        let mut calls = 0;
        let t = time_avg(7, || {
            calls += 1;
            if calls == 1 {
                std::thread::sleep(Duration::from_millis(200));
            }
        });
        assert_eq!(calls, 7);
        assert!(t < Duration::from_millis(50), "{t:?}");
    }

    #[test]
    fn workload_shapes() {
        let mut rng = bench_rng();
        let w = gkm_workload(100, 25, 2, &mut rng);
        assert_eq!(w.rows.len(), 25);
        assert_eq!(w.rows[0].css_concat.len(), 32);
        let (key, info) = w.scheme.rekey(&w.rows, &mut rng);
        assert_eq!(info.zs.len(), 100, "matrix topped up to N columns");
        assert_eq!(w.scheme.derive_key(&info, &w.rows[0].css_concat), key);
    }

    #[test]
    fn ge_round_is_satisfied_and_measurable() {
        let mut rng = bench_rng();
        let round = ge_round(10, &mut rng);
        assert!(round.x >= round.x0);
        let (p, c, o) = ge_steps(&round, b"payload", &mut rng);
        assert!(p.as_nanos() > 0 && c.as_nanos() > 0 && o.as_nanos() > 0);
    }

    #[test]
    fn frame_counter_counts_across_split_reads() {
        let mut bytes = Vec::new();
        for body_len in [0usize, 1, 5, 300] {
            bytes.extend_from_slice(&(body_len as u32).to_be_bytes());
            bytes.extend(std::iter::repeat(0xAB).take(body_len));
        }
        // Any read fragmentation must yield the same frame count.
        for chunk_size in [1usize, 3, 7, 512] {
            let mut counter = FrameCounter::new();
            let total: u64 = bytes.chunks(chunk_size).map(|c| counter.feed(c)).sum();
            assert_eq!(total, 4, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn eq_steps_roundtrip() {
        let mut rng = bench_rng();
        let (c, o) = eq_steps(b"css", &mut rng);
        assert!(c.as_nanos() > 0 && o.as_nanos() > 0);
    }
}
