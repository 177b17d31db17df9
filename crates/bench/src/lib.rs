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
use pbcd_math::{Fp, FpCtx, Matrix, U128, U256};
use pbcd_ocbe::{BitProof, BitSecrets, Direction, OcbeSystem};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::time::{Duration, Instant};

/// Default deterministic RNG for experiments.
pub fn bench_rng() -> StdRng {
    StdRng::seed_from_u64(0xB34C4)
}

/// Measures the average wall time of `f` over `rounds` runs.
pub fn time_avg<T>(rounds: usize, mut f: impl FnMut() -> T) -> Duration {
    assert!(rounds > 0);
    let start = Instant::now();
    for _ in 0..rounds {
        std::hint::black_box(f());
    }
    start.elapsed() / rounds as u32
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

/// The ACV-BGKM procedure written against public primitives only: one
/// allocated `sha256(css ‖ z)` and one wide-integer `rem` per matrix entry,
/// a Gauss–Jordan null-space basis combined with drawn coefficients. It is
/// the path `AcvBgkm` is measured beside, and — for one rng stream — the
/// output it must reproduce to the byte.
pub struct NaiveAcv {
    /// The GKM field.
    pub field: std::sync::Arc<FpCtx<2>>,
}

impl NaiveAcv {
    /// `H(css ‖ z) mod q`.
    fn entry(&self, css: &[u8], z: &[u8]) -> Fp<2> {
        let digest = U256::from_be_bytes(&pbcd_crypto::sha256(&[css, z].concat()));
        let reduced = digest
            .expect("32 bytes")
            .rem(&self.field.modulus().widen::<4>());
        self.field
            .from_uint(&reduced.narrow::<2>().expect("below q"))
    }

    /// The hashed tail `a₁…a_N` of a matrix row / key-extraction vector.
    pub fn hash_row(&self, css: &[u8], zs: &[Vec<u8>]) -> Vec<Fp<2>> {
        zs.iter().map(|z| self.entry(css, z)).collect()
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

    /// One rekey over the given nonces: matrix, key, ACV. Returns the key
    /// and `X`.
    pub fn rekey(
        &self,
        rows: &[AccessRow],
        zs: &[Vec<u8>],
        rng: &mut StdRng,
    ) -> (Fp<2>, Vec<U128>) {
        let a = Matrix::from_fn(&self.field, rows.len(), zs.len() + 1, |i, j| match j {
            0 => self.field.one(),
            _ => self.entry(&rows[i].css_concat, &zs[j - 1]),
        });
        let key = self.field.random_nonzero(rng);
        loop {
            let mut x = self.null_vector(&a, rng);
            x[0] = &x[0] + &key;
            if rows.is_empty() || x[1..].iter().any(|e| !e.is_zero()) {
                return (key, x.iter().map(Fp::to_uint).collect());
            }
        }
    }

    /// `K = ν·X`.
    pub fn derive_key(&self, info: &AcvPublicInfo, css: &[u8]) -> U128 {
        let mut k = self.field.from_uint(&info.x[0]);
        for (a, xj) in self.hash_row(css, &info.zs).iter().zip(&info.x[1..]) {
            k = &k + &(a * &self.field.from_uint(xj));
        }
        k.to_uint()
    }
}

// ---------------------------------------------------------------------------
// Symmetric kernels, a byte at a time (the `*_naive` twins of bench-json)
// ---------------------------------------------------------------------------

/// AES forward S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// The byte-wise AES `pbcd_crypto` shipped before its bitsliced kernel, moved
/// here encryption only: one S-box load per state byte, indexed by key-dependent
/// state, so *not* constant time. It is the path `pbcd_crypto::ctr_xor` is
/// measured beside, and the output it must reproduce to the byte.
pub struct NaiveAes {
    round_keys: Vec<[u8; 16]>,
}

impl NaiveAes {
    /// Expands a 16-, 24- or 32-byte key (FIPS 197 §5.2).
    pub fn new(key: &[u8]) -> Self {
        assert!(matches!(key.len(), 16 | 24 | 32), "invalid AES key length");
        let nk = key.len() / 4;
        let nwords = 4 * (nk + 7);
        let mut w = vec![[0u8; 4]; nwords];
        for (i, word) in w.iter_mut().take(nk).enumerate() {
            word.copy_from_slice(&key[4 * i..4 * i + 4]);
        }
        let mut rcon = 1u8;
        for i in nk..nwords {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp.rotate_left(1);
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= rcon;
                rcon = xtime(rcon);
            } else if nk > 6 && i % nk == 4 {
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
            }
            for j in 0..4 {
                w[i][j] = w[i - nk][j] ^ temp[j];
            }
        }
        let round_keys = w
            .chunks_exact(4)
            .map(|c| {
                let mut rk = [0u8; 16];
                for (i, word) in c.iter().enumerate() {
                    rk[4 * i..4 * i + 4].copy_from_slice(word);
                }
                rk
            })
            .collect();
        Self { round_keys }
    }

    /// Encrypts one block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let rounds = self.round_keys.len() - 1;
        add_round_key(block, &self.round_keys[0]);
        for round in 1..rounds {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &self.round_keys[round]);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &self.round_keys[rounds]);
    }

    /// CTR mode as `pbcd_crypto::ctr_xor` defines it: counter block
    /// `nonce ‖ be32`, counting from 1, one block at a time.
    pub fn ctr_xor(&self, nonce: &[u8; NONCE_LEN], data: &mut [u8]) {
        let mut counter_block = [0u8; 16];
        counter_block[..NONCE_LEN].copy_from_slice(nonce);
        for (counter, chunk) in (1u32..).zip(data.chunks_mut(16)) {
            counter_block[NONCE_LEN..].copy_from_slice(&counter.to_be_bytes());
            let mut keystream = counter_block;
            self.encrypt_block(&mut keystream);
            for (d, k) in chunk.iter_mut().zip(keystream.iter()) {
                *d ^= k;
            }
        }
    }
}

fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk) {
        *s ^= k;
    }
}

fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

// State is column-major: state[4*c + r] is row r, column c.
fn shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * c + r] = s[4 * ((c + r) % 4) + r];
        }
    }
}

fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        state[4 * c] = xtime(col[0]) ^ (xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3];
        state[4 * c + 1] = col[0] ^ xtime(col[1]) ^ (xtime(col[2]) ^ col[2]) ^ col[3];
        state[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ (xtime(col[3]) ^ col[3]);
        state[4 * c + 3] = (xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
    }
}

/// Multiplication by `x` in GF(2⁸) modulo `x⁸ + x⁴ + x³ + x + 1`.
#[inline]
fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// `pbcd_crypto::AuthKey` from public primitives over [`NaiveAes`]: the same
/// two derived keys, the same `nonce ‖ ct ‖ tag` message.
pub struct NaiveAuthKey {
    enc: Vec<u8>,
    mac: Vec<u8>,
}

impl NaiveAuthKey {
    /// The encryption and MAC keys `AuthKey::from_master` derives.
    pub fn from_master(master: &[u8]) -> Self {
        Self {
            enc: pbcd_crypto::derive_key(master, "pbcd-authenc-enc", 32),
            mac: pbcd_crypto::derive_key(master, "pbcd-authenc-mac", 32),
        }
    }

    /// `AuthKey::encrypt_with_nonce`, key schedule per message included.
    pub fn encrypt_with_nonce(&self, nonce: &[u8; NONCE_LEN], plaintext: &[u8]) -> Vec<u8> {
        let mut out = [nonce.as_slice(), plaintext].concat();
        NaiveAes::new(&self.enc).ctr_xor(nonce, &mut out[NONCE_LEN..]);
        let tag = pbcd_crypto::hmac(&self.mac, &out);
        out.extend_from_slice(&tag);
        out
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
