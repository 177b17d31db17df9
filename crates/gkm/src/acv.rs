//! ACV-BGKM — the paper's core contribution (§V-C): broadcast group key
//! management with **access control vectors**.
//!
//! For one policy configuration `Pc = {acp₁ … acp_α}` the publisher:
//!
//! 1. collects, for every `acp_k` and every subscriber `nym` whose CSS
//!    records cover all of `acp_k`'s conditions, the concatenation
//!    `r_{i,1}‖…‖r_{i,m_k}` (an [`AccessRow`]),
//! 2. picks `N ≥ Σ_k #U_k` and `N` random τ-bit nonces `z₁…z_N` with
//!    `τ·N > 160`,
//! 3. forms the `n×(N+1)` matrix `A` with rows `[1, a_{i,1}, …, a_{i,N}]`,
//!    `a_{i,1} … a_{i,N}` a pseudorandom row keyed by the CSS concatenation
//!    `r_{i,1}‖…‖r_{i,m_k}` and the nonce set, reduced into `F_q` (the
//!    paper's `H(css ‖ z_j)`; see [`AcvBgkm::derive_key`] for the row
//!    function),
//! 4. solves `A·Y = 0` for a random null-space vector `Y` (the ACV),
//! 5. publishes `X = (K,0,…,0)ᵀ + Y` and `z₁…z_N` next to the content
//!    encrypted under the random key `K`.
//!
//! A qualified subscriber rebuilds its matrix row `ν = (1, a₁, …, a_N)`
//! (a *key extraction vector*) from its CSSs and the public nonces and
//! recovers `K = ν·X`. Rekeying is just re-running the procedure — no
//! message to any subscriber.

use pbcd_crypto::chacha20::{chacha20_block, NONCE_LEN};
use pbcd_crypto::Sha256;
use pbcd_docs::wire;
use pbcd_math::{Echelon, Fp, FpCtx, Matrix, Uint, U128};
use rand::RngCore;
use std::sync::Arc;

/// One matrix row's secret material: a subscriber×policy pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessRow {
    /// The subscriber pseudonym (unused by ACV-BGKM itself; baselines that
    /// address subscribers individually need it).
    pub nym: String,
    /// `r_{i,1} ‖ … ‖ r_{i,m_k}` — the CSSs for the policy's conditions.
    pub css_concat: Vec<u8>,
}

/// The broadcast public values for one policy configuration: `X` and the
/// nonces `z₁…z_N`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcvPublicInfo {
    /// `X = (K,0,…,0)ᵀ + Y`, canonical field elements (length `N + 1`).
    pub x: Vec<U128>,
    /// The nonces `z₁…z_N`, each `tau_bytes` long.
    pub zs: Vec<Vec<u8>>,
}

/// A subscriber-side cache of key-extraction vectors (their tail `a₁…a_N`,
/// Montgomery form), keyed by the row key the tail is expanded from, which
/// binds the CSS and the whole nonce set — see
/// [`AcvBgkm::derive_key_cached`]. Reproduction surface (§VIII-D
/// ablation); the production subscriber derives uncached.
#[derive(Default)]
pub struct KevCache {
    entries: std::collections::HashMap<[u8; 32], Vec<Uint<2>>>,
}

impl KevCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached vectors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The ACV-BGKM scheme, parameterized by the GKM field `F_q` and the nonce
/// width τ.
#[derive(Clone)]
pub struct AcvBgkm {
    field: Arc<FpCtx<2>>,
    tau_bytes: usize,
    extra_slots: usize,
}

impl Default for AcvBgkm {
    /// The paper's parameters: `F_q` with `q = 2^80 − 65`
    /// ([`pbcd_math::gkm_q80`]) and 2-byte nonces. A group key is an
    /// element of that field, so every subdocument key carries at most 80
    /// bits of entropy: below the 128-bit level of every other primitive
    /// in the workspace (P-256, ChaCha20-Poly1305, SHA-256, BLAKE2b-256).
    /// ROADMAP item 20 tracks the move to a wider field.
    fn default() -> Self {
        Self::new(FpCtx::new(pbcd_math::gkm_q80()), 2, 0)
    }
}

impl AcvBgkm {
    /// Creates the scheme over `field` with `tau_bytes`-byte nonces and
    /// `extra_slots` spare columns (`N = #rows + extra_slots`).
    ///
    /// The effective τ per rekey is raised automatically when `τ·N ≤ 160`
    /// (the paper's distinct-session-sequence requirement).
    pub fn new(field: Arc<FpCtx<2>>, tau_bytes: usize, extra_slots: usize) -> Self {
        assert!((1..=64).contains(&tau_bytes), "τ out of range");
        Self {
            field,
            tau_bytes,
            extra_slots,
        }
    }

    /// The GKM field.
    pub fn field(&self) -> &Arc<FpCtx<2>> {
        &self.field
    }

    /// Canonical byte length of field elements (⌈bits(q)/8⌉) — also the
    /// length of derived keys.
    pub fn key_len(&self) -> usize {
        (self.field.modulus_bits() as usize).div_ceil(8)
    }

    /// Effective nonce width for a given `N`: at least the configured τ,
    /// raised until `τ·N > 160` bits and until `N` distinct nonces fill at
    /// most half the nonce space (so drawing them by rejection terminates
    /// after two draws per nonce on average, at worst).
    fn effective_tau(&self, n: usize) -> usize {
        let min_total_bits = 161usize;
        let needed = min_total_bits.div_ceil(8 * n.max(1));
        let mut tau = self.tau_bytes.max(needed);
        while 8 * tau < usize::BITS as usize && n > 1 << (8 * tau - 1) {
            tau += 1;
        }
        tau
    }

    /// Publisher: generates a fresh key `K` and the public info for the
    /// given access rows (one rekey of one policy configuration).
    pub fn rekey<R: RngCore + ?Sized>(
        &self,
        rows: &[AccessRow],
        rng: &mut R,
    ) -> (Vec<u8>, AcvPublicInfo) {
        let mut out = self.rekey_batch(rows, 1, rng);
        out.pop().expect("batch of one")
    }

    /// Publisher: the paper's §VIII-D batching — `count` documents that
    /// share a policy configuration share one nonce draw, one row expansion
    /// and one matrix (and hence the same `z` values), each getting an
    /// independent key and an independent ACV. The matrix is eliminated
    /// once ([`Matrix::into_echelon`]); then, key by key, a key is drawn
    /// and its null vector is drawn from that echelon form. With
    /// `count > 1` this is reproduction surface (the §VIII-D ablation);
    /// production reaches it through [`Self::rekey`] only.
    pub fn rekey_batch<R: RngCore + ?Sized>(
        &self,
        rows: &[AccessRow],
        count: usize,
        rng: &mut R,
    ) -> Vec<(Vec<u8>, AcvPublicInfo)> {
        assert!(count >= 1, "need at least one key");
        let zs = self.fresh_nonces(rows.len(), rng);
        let a = self.build_matrix(rows, &zs).into_echelon();
        (0..count)
            .map(|_| {
                let key = self.field.random_nonzero(rng);
                let info = self.acv_for(&a, rows.is_empty(), &key, &zs, rng);
                (self.encode_key(&key.to_uint()), info)
            })
            .collect()
    }

    /// Publisher: rekeys with a caller-chosen key — the sharded variant
    /// (§VIII-C) uses this to put one uniform key behind several ACVs.
    pub fn rekey_with_key<R: RngCore + ?Sized>(
        &self,
        rows: &[AccessRow],
        key: &Fp<2>,
        rng: &mut R,
    ) -> AcvPublicInfo {
        assert!(!key.is_zero(), "group key must be nonzero");
        let zs = self.fresh_nonces(rows.len(), rng);
        let a = self.build_matrix(rows, &zs).into_echelon();
        self.acv_for(&a, rows.is_empty(), key, &zs, rng)
    }

    /// Publisher: rekeys *several policy configurations* sharing one nonce
    /// set, caching the hash row `(a_{i,1}, …, a_{i,N})` per distinct CSS
    /// concatenation — the paper's §VIII-A optimization ("eliminating
    /// redundant calculations at Pub by taking advantage of dominance
    /// relationships"): a subscriber×policy pair appearing in several
    /// configurations (e.g. the senior nurse of Example 4, present in four)
    /// is hashed once instead of once per configuration.
    ///
    /// Returns one independent `(key, public info)` per configuration.
    /// Reproduction surface (the §VIII-A ablation): `Publisher::broadcast`
    /// rekeys each configuration on its own.
    pub fn rekey_configs<R: RngCore + ?Sized>(
        &self,
        configs: &[Vec<AccessRow>],
        rng: &mut R,
    ) -> Vec<(Vec<u8>, AcvPublicInfo)> {
        use std::collections::HashMap;
        let widest = configs.iter().map(Vec::len).max().unwrap_or(0);
        let zs = self.fresh_nonces(widest, rng);
        // Cache: css_concat → Montgomery-form hash row.
        let mut cache: HashMap<&[u8], Vec<Uint<2>>> = HashMap::new();
        configs
            .iter()
            .map(|rows| {
                let mut a = Matrix::zero(&self.field, rows.len(), zs.len() + 1);
                for (i, row) in rows.iter().enumerate() {
                    let hashes = cache
                        .entry(&row.css_concat)
                        .or_insert_with(|| self.hash_row_vec(&row.css_concat, &zs));
                    let (one, tail) = a.row_mont_raw_mut(i).split_first_mut().expect("N ≥ 1");
                    *one = self.field.mont().one();
                    tail.copy_from_slice(hashes);
                }
                let key = self.field.random_nonzero(rng);
                let info = self.acv_for(&a.into_echelon(), rows.is_empty(), &key, &zs, rng);
                (self.encode_key(&key.to_uint()), info)
            })
            .collect()
    }

    /// `N ≥ Σ_k #U_k` pairwise distinct nonces; at least one so the
    /// encoding stays well-formed even for empty configurations.
    ///
    /// Columns are indexed by position (see [`Self::hash_row`]), so a
    /// repeated nonce no longer makes two columns equal; repeats are
    /// redrawn all the same, keeping every published nonce set a set.
    fn fresh_nonces<R: RngCore + ?Sized>(&self, rows: usize, rng: &mut R) -> Vec<Vec<u8>> {
        let n = (rows + self.extra_slots).max(1);
        let tau = self.effective_tau(n);
        let mut seen = std::collections::HashSet::with_capacity(n);
        let mut zs = Vec::with_capacity(n);
        while zs.len() < n {
            let mut z = vec![0u8; tau];
            rng.fill_bytes(&mut z);
            if seen.insert(z.clone()) {
                zs.push(z);
            }
        }
        zs
    }

    /// Matrix `A`: one row `[1, a_{i,1}, …, a_{i,N}]` per access row.
    fn build_matrix(&self, rows: &[AccessRow], zs: &[Vec<u8>]) -> Matrix<2> {
        let mut a = Matrix::zero(&self.field, rows.len(), zs.len() + 1);
        for (i, row) in rows.iter().enumerate() {
            let (one, tail) = a.row_mont_raw_mut(i).split_first_mut().expect("N ≥ 1");
            *one = self.field.mont().one();
            self.hash_row(&row.css_concat, zs, tail);
        }
        a
    }

    /// Samples an ACV for `key`; footnote 11: resample if the tail of `X`
    /// would be all zero (the key would leak to everyone).
    fn acv_for<R: RngCore + ?Sized>(
        &self,
        a: &Echelon<2>,
        rows_empty: bool,
        key: &Fp<2>,
        zs: &[Vec<u8>],
        rng: &mut R,
    ) -> AcvPublicInfo {
        loop {
            let mut x: Vec<Fp<2>> = a.random_null_vector(rng);
            x[0] = &x[0] + key;
            if rows_empty || x[1..].iter().any(|e| !e.is_zero()) {
                return AcvPublicInfo {
                    x: x.iter().map(Fp::to_uint).collect(),
                    zs: zs.to_vec(),
                };
            }
        }
    }

    /// Subscriber: derives the key from the public info and its CSS
    /// concatenation. Always returns a candidate of [`Self::key_len`]
    /// bytes; the candidate equals `K` iff the CSSs match an access row
    /// (the scheme itself cannot signal failure — the authenticated
    /// decryption layer above does).
    ///
    /// The row function: with `css` the CSS concatenation and `z₁…z_N` the
    /// nonces, the row key is
    /// `k = SHA-256("pbcd-acv-row-chacha20" ‖ u64 len(css) ‖ css ‖ u64 N ‖
    /// z₁ ‖ … ‖ z_N)` (lengths big-endian) and `aⱼ` is the 32-byte half
    /// `(j−1) mod 2` of ChaCha20 block `⌊(j−1)/2⌋` under `k` with the
    /// all-zero nonce, read big-endian and reduced mod `q`.
    pub fn derive_key(&self, info: &AcvPublicInfo, css_concat: &[u8]) -> Vec<u8> {
        assert_eq!(info.x.len(), info.zs.len() + 1, "malformed public info");
        self.extract(&self.hash_row_vec(css_concat, &info.zs), &info.x)
    }

    /// The subscriber's key-extraction vector `ν = (1, a₁, …, a_N)` —
    /// exposed so tests and benches can check `ν·Y = 0` directly.
    pub fn extraction_vector(&self, info: &AcvPublicInfo, css_concat: &[u8]) -> Vec<Fp<2>> {
        let tail = self.hash_row_vec(css_concat, &info.zs);
        std::iter::once(self.field.one())
            .chain(tail.into_iter().map(|a| self.field.from_mont_raw(a)))
            .collect()
    }

    /// Key derivation with a subscriber-side KEV cache (paper §VIII-D:
    /// "once a Sub receives all zᵢ's … the Sub can compute the hash values
    /// and cache the resultant vector for future use to retrieve documents
    /// associated with the same policy"). Documents produced by
    /// [`Self::rekey_batch`] share nonces, so every document after the
    /// first costs one inner product instead of `N` hashes. Reproduction
    /// surface, like [`Self::rekey_batch`] with `count > 1`.
    pub fn derive_key_cached(
        &self,
        info: &AcvPublicInfo,
        css_concat: &[u8],
        cache: &mut KevCache,
    ) -> Vec<u8> {
        assert_eq!(info.x.len(), info.zs.len() + 1, "malformed public info");
        let tail = cache
            .entries
            .entry(row_key(css_concat, &info.zs))
            .or_insert_with_key(|key| {
                let mut tail = vec![Uint::ZERO; info.zs.len()];
                self.expand_row(key, &mut tail);
                tail
            });
        self.extract(tail, &info.x)
    }

    /// `K = ν·X = x₀ + Σ aⱼ·xⱼ` for the hashed tail `a₁…a_N` of `ν`.
    ///
    /// `mont_mul` of a Montgomery-form `aⱼ` with a plain `xⱼ` is the plain
    /// product, and it reduces an `xⱼ ≥ q` (which `decode` lets a hostile
    /// broker send) on the way.
    fn extract(&self, tail: &[Uint<2>], x: &[U128]) -> Vec<u8> {
        let mont = self.field.mont();
        let mut acc = mont.mont_mul(&mont.one(), &x[0]);
        for (a, xj) in tail.iter().zip(&x[1..]) {
            acc = mont.add(&acc, &mont.mont_mul(a, xj));
        }
        self.encode_key(&acc)
    }

    /// The row `a₁…a_N` for `css_concat` under nonces `zs`, Montgomery
    /// form: one SHA-256 of the CSS and the nonce set gives the row key,
    /// and one ChaCha20 block under it gives two entries (the row function
    /// of [`Self::derive_key`]). Every step is constant-time in the CSS.
    ///
    /// The nonces go into the key, not the counter: rows keyed by the CSS
    /// alone would repeat at every rekey, and `d + 1` public infos would
    /// then pin `A` down and reveal `K` to anyone.
    fn hash_row(&self, css_concat: &[u8], zs: &[Vec<u8>], out: &mut [Uint<2>]) {
        debug_assert_eq!(zs.len(), out.len());
        self.expand_row(&row_key(css_concat, zs), out);
    }

    /// [`Self::hash_row`] into a fresh vector.
    fn hash_row_vec(&self, css_concat: &[u8], zs: &[Vec<u8>]) -> Vec<Uint<2>> {
        let mut out = vec![Uint::ZERO; zs.len()];
        self.hash_row(css_concat, zs, &mut out);
        out
    }

    /// Entries `a₁…a_{out.len()}` of the keystream under `key`: 32 bytes
    /// each, two per block, reduced into `F_q` in Montgomery form.
    fn expand_row(&self, key: &[u8; 32], out: &mut [Uint<2>]) {
        for (pair, counter) in out.chunks_mut(2).zip(0u32..) {
            let block = chacha20_block(key, counter, &[0; NONCE_LEN]);
            for (a, half) in pair.iter_mut().zip(block.chunks_exact(32)) {
                *a = self.field.mont_from_be_bytes_reduced(half);
            }
        }
    }

    fn encode_key(&self, k: &U128) -> Vec<u8> {
        let bytes = k.to_be_bytes();
        bytes[bytes.len() - self.key_len()..].to_vec()
    }
}

/// Domain separation for [`row_key`].
const ROW_LABEL: &[u8] = b"pbcd-acv-row-chacha20";

/// `SHA-256(label ‖ u64 len(css) ‖ css ‖ u64 N ‖ z₁ ‖ … ‖ z_N)`: the CSS's
/// length is framed and every nonce has the same width, so distinct
/// `(css, zs)` give distinct inputs.
fn row_key(css_concat: &[u8], zs: &[Vec<u8>]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(ROW_LABEL);
    h.update(&(css_concat.len() as u64).to_be_bytes());
    h.update(css_concat);
    h.update(&(zs.len() as u64).to_be_bytes());
    for z in zs {
        h.update(z);
    }
    h.finalize()
}

impl AcvPublicInfo {
    /// Whether `x` has one entry more than there are nonces, the shape
    /// [`AcvBgkm::derive_key`] requires and [`Self::decode`] enforces.
    pub(crate) fn is_well_formed(&self) -> bool {
        self.x.len() == self.zs.len() + 1
    }

    /// Wire encoding: `fq_len u8 ‖ x_count u32 ‖ x… ‖ z_count u32 ‖
    /// tau u8 ‖ z…` (big-endian, fixed-width fields).
    pub fn encode(&self) -> Vec<u8> {
        let fq_len = 16usize; // canonical U128 width
        let tau = self.zs.first().map_or(0, Vec::len);
        debug_assert!(self.zs.iter().all(|z| z.len() == tau));
        let mut out = Vec::with_capacity(2 + 8 + self.x.len() * fq_len + self.zs.len() * tau);
        out.push(fq_len as u8);
        out.extend_from_slice(&(self.x.len() as u32).to_be_bytes());
        for x in &self.x {
            out.extend_from_slice(&x.to_be_bytes());
        }
        out.extend_from_slice(&(self.zs.len() as u32).to_be_bytes());
        out.push(tau as u8);
        for z in &self.zs {
            out.extend_from_slice(z);
        }
        out
    }

    /// Strict parse of [`Self::encode`] output through the audited
    /// [`pbcd_docs::wire`] readers: these are the untrusted broker's bytes.
    pub fn decode(data: &[u8]) -> Option<Self> {
        let mut buf = data;
        if wire::get_u8(&mut buf).ok()? != 16 {
            return None;
        }
        let x_count = wire::get_u32(&mut buf).ok()? as usize;
        // Bounds the allocation by what the input can hold.
        if x_count > buf.len() / 16 {
            return None;
        }
        let mut x = Vec::with_capacity(x_count);
        for _ in 0..x_count {
            x.push(U128::from_be_bytes(&wire::get_fixed::<16>(&mut buf).ok()?)?);
        }
        let z_count = wire::get_u32(&mut buf).ok()? as usize;
        let tau = wire::get_u8(&mut buf).ok()? as usize;
        if z_count != x_count.checked_sub(1)? || tau == 0 {
            return None;
        }
        if buf.len() != z_count.checked_mul(tau)? {
            return None;
        }
        let zs = buf.chunks_exact(tau).map(<[u8]>::to_vec).collect();
        Some(Self { x, zs })
    }

    /// Size of the broadcast key material in bytes, counting field elements
    /// at their compressed width (⌈bits(q)/8⌉, matching the paper's
    /// compressed-ACV measurements in Figure 5) plus the nonces.
    pub fn size_bytes_compressed(&self, fq_bits: u32) -> usize {
        let per_elem = (fq_bits as usize).div_ceil(8);
        let tau = self.zs.first().map_or(0, Vec::len);
        self.x.len() * per_elem + self.zs.len() * tau
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbcd_math::dot;
    use rand::{Rng, SeedableRng};

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(600)
    }

    fn scheme() -> AcvBgkm {
        AcvBgkm::default()
    }

    /// The default field has the strength `AcvBgkm::default`'s rustdoc
    /// states, 80 bits: a change of field moves this test and that doc
    /// together.
    #[test]
    fn default_field_strength_is_stated() {
        assert_eq!(scheme().field().modulus_bits(), 80);
    }

    fn random_rows<R: Rng>(r: &mut R, count: usize, css_len: usize) -> Vec<AccessRow> {
        (0..count)
            .map(|i| {
                let mut css = vec![0u8; css_len];
                r.fill_bytes(&mut css);
                AccessRow {
                    nym: format!("pn-{i:04}"),
                    css_concat: css,
                }
            })
            .collect()
    }

    #[test]
    fn soundness_every_row_derives_the_key() {
        let s = scheme();
        let mut r = rng();
        for n in [1usize, 2, 5, 20] {
            let rows = random_rows(&mut r, n, 16);
            let (key, info) = s.rekey(&rows, &mut r);
            assert_eq!(key.len(), s.key_len());
            for row in &rows {
                assert_eq!(s.derive_key(&info, &row.css_concat), key, "n={n}");
            }
        }
    }

    #[test]
    fn outsiders_do_not_derive_the_key() {
        let s = scheme();
        let mut r = rng();
        let rows = random_rows(&mut r, 8, 16);
        let (key, info) = s.rekey(&rows, &mut r);
        for _ in 0..20 {
            let mut outsider = vec![0u8; 16];
            r.fill_bytes(&mut outsider);
            assert_ne!(s.derive_key(&info, &outsider), key);
        }
    }

    #[test]
    fn forward_secrecy_revoked_row_fails_after_rekey() {
        let s = scheme();
        let mut r = rng();
        let mut rows = random_rows(&mut r, 5, 16);
        let revoked = rows.pop().expect("five rows");
        // Rekey without the revoked row.
        let (new_key, new_info) = s.rekey(&rows, &mut r);
        assert_ne!(s.derive_key(&new_info, &revoked.css_concat), new_key);
        // Remaining members still derive.
        for row in &rows {
            assert_eq!(s.derive_key(&new_info, &row.css_concat), new_key);
        }
    }

    #[test]
    fn backward_secrecy_new_row_fails_on_old_info() {
        let s = scheme();
        let mut r = rng();
        let mut rows = random_rows(&mut r, 4, 16);
        let (old_key, old_info) = s.rekey(&rows, &mut r);
        let newcomer = random_rows(&mut r, 1, 16).pop().expect("one row");
        rows.push(newcomer.clone());
        let (new_key, new_info) = s.rekey(&rows, &mut r);
        // Newcomer gets the new key but not the old one.
        assert_eq!(s.derive_key(&new_info, &newcomer.css_concat), new_key);
        assert_ne!(s.derive_key(&old_info, &newcomer.css_concat), old_key);
    }

    #[test]
    fn collusion_mixing_css_across_rows_fails() {
        // Two-condition policy: row hash input is r₁‖r₂ of ONE subscriber.
        // Colluders holding r₁ from A and r₂ from B cannot form any row.
        let s = scheme();
        let mut r = rng();
        let rows = random_rows(&mut r, 2, 32); // 32 = two 16-byte CSSs
        let (key, info) = s.rekey(&rows, &mut r);
        let mut mixed = Vec::new();
        mixed.extend_from_slice(&rows[0].css_concat[..16]); // A's r₁
        mixed.extend_from_slice(&rows[1].css_concat[16..]); // B's r₂
        assert_ne!(s.derive_key(&info, &mixed), key);
    }

    #[test]
    fn extraction_vector_annihilates_acv() {
        let s = scheme();
        let mut r = rng();
        let rows = random_rows(&mut r, 6, 16);
        let (key, info) = s.rekey(&rows, &mut r);
        let f = s.field().clone();
        let x: Vec<_> = info.x.iter().map(|u| f.from_uint(u)).collect();
        for row in &rows {
            let nu = s.extraction_vector(&info, &row.css_concat);
            // ν·X = K, i.e. ν·Y = 0.
            let k = dot(&nu, &x);
            let key_int = U128::from_be_bytes(&key).expect("key bytes");
            assert_eq!(k.to_uint(), key_int);
        }
    }

    #[test]
    fn empty_configuration_hides_key() {
        let s = scheme();
        let mut r = rng();
        let (key, info) = s.rekey(&[], &mut r);
        // Nobody derives: any CSS guess misses.
        for _ in 0..10 {
            let mut guess = vec![0u8; 16];
            r.fill_bytes(&mut guess);
            assert_ne!(s.derive_key(&info, &guess), key);
        }
    }

    #[test]
    fn rekey_randomizes_key_and_public_info() {
        let s = scheme();
        let mut r = rng();
        let rows = random_rows(&mut r, 3, 16);
        let (k1, i1) = s.rekey(&rows, &mut r);
        let (k2, i2) = s.rekey(&rows, &mut r);
        assert_ne!(k1, k2);
        assert_ne!(i1.x, i2.x);
        assert_ne!(i1.zs, i2.zs);
    }

    #[test]
    fn batch_rekey_shares_nonces_with_independent_keys() {
        let s = scheme();
        let mut r = rng();
        let rows = random_rows(&mut r, 4, 16);
        let batch = s.rekey_batch(&rows, 3, &mut r);
        assert_eq!(batch.len(), 3);
        // Same z values (shared matrix)…
        assert_eq!(batch[0].1.zs, batch[1].1.zs);
        assert_eq!(batch[1].1.zs, batch[2].1.zs);
        // …different keys and ACVs.
        assert_ne!(batch[0].0, batch[1].0);
        assert_ne!(batch[0].1.x, batch[1].1.x);
        // Every member derives every key from the same CSSs.
        for (key, info) in &batch {
            for row in &rows {
                assert_eq!(&s.derive_key(info, &row.css_concat), key);
            }
        }
    }

    #[test]
    fn extra_slots_allow_spare_capacity() {
        let s = AcvBgkm::new(FpCtx::new(pbcd_math::gkm_q80()), 2, 10);
        let mut r = rng();
        let rows = random_rows(&mut r, 3, 16);
        let (key, info) = s.rekey(&rows, &mut r);
        assert_eq!(info.zs.len(), 13);
        assert_eq!(info.x.len(), 14);
        for row in &rows {
            assert_eq!(s.derive_key(&info, &row.css_concat), key);
        }
    }

    #[test]
    fn tau_raised_for_small_n() {
        // τ·N must exceed 160 bits: with one row (N=1), 2-byte nonces would
        // give 16 bits, so τ is raised to ⌈161/8⌉ = 21 bytes.
        let s = scheme();
        let mut r = rng();
        let rows = random_rows(&mut r, 1, 16);
        let (_, info) = s.rekey(&rows, &mut r);
        let n = info.zs.len();
        let tau = info.zs[0].len();
        assert!(tau * n * 8 > 160, "τ·N = {} bits", tau * n * 8);
    }

    #[test]
    fn nonces_are_distinct_so_a_revoked_css_derives_a_wrong_key() {
        // With independent 2-byte draws this seed repeats one of the 96
        // nonces. Under the earlier per-nonce row function `H(css ‖ zⱼ)`
        // the ACV built on the repeat gave the key to the revoked row (and
        // to any other CSS); the nonces are still drawn distinct.
        let s = scheme();
        let mut r = rand::rngs::StdRng::seed_from_u64(2);
        let mut rows = random_rows(&mut r, 97, 16);
        let revoked = rows.pop().expect("97 rows");
        let (key, info) = s.rekey(&rows, &mut r);
        let distinct: std::collections::HashSet<_> = info.zs.iter().collect();
        assert_eq!(distinct.len(), info.zs.len());
        assert_eq!(info.zs[0].len(), 2, "τ unchanged at this size");
        assert_ne!(s.derive_key(&info, &revoked.css_concat), key);
        for row in &rows {
            assert_eq!(s.derive_key(&info, &row.css_concat), key);
        }
    }

    #[test]
    fn tau_widens_when_rows_outgrow_the_nonce_space() {
        // 1-byte nonces cannot give 200 distinct values by rejection with a
        // bounded expected number of draws; τ goes to 2.
        let s = AcvBgkm::new(FpCtx::new(pbcd_math::gkm_q80()), 1, 0);
        assert_eq!(s.effective_tau(128), 1);
        assert_eq!(s.effective_tau(129), 2);
        assert_eq!(s.fresh_nonces(200, &mut rng())[0].len(), 2);
        assert_eq!(scheme().effective_tau(1 << 15), 2);
        assert_eq!(scheme().effective_tau((1 << 15) + 1), 3);
    }

    #[test]
    fn public_info_encoding_roundtrip() {
        let s = scheme();
        let mut r = rng();
        let rows = random_rows(&mut r, 5, 16);
        let (_, info) = s.rekey(&rows, &mut r);
        let enc = info.encode();
        assert_eq!(AcvPublicInfo::decode(&enc), Some(info.clone()));
        // Corruption and truncation rejected.
        assert_eq!(AcvPublicInfo::decode(&enc[..enc.len() - 1]), None);
        let mut extra = enc.clone();
        extra.push(0);
        assert_eq!(AcvPublicInfo::decode(&extra), None);
        assert_eq!(AcvPublicInfo::decode(&[]), None);
    }

    #[test]
    fn compressed_size_matches_formula() {
        let s = scheme();
        let mut r = rng();
        let rows = random_rows(&mut r, 10, 16);
        let (_, info) = s.rekey(&rows, &mut r);
        let n = info.zs.len();
        let tau = info.zs[0].len();
        assert_eq!(info.size_bytes_compressed(80), (n + 1) * 10 + n * tau);
    }

    #[test]
    fn cached_derivation_matches_plain_across_batch() {
        let s = scheme();
        let mut r = rng();
        let rows = random_rows(&mut r, 5, 16);
        let batch = s.rekey_batch(&rows, 4, &mut r);
        let mut cache = KevCache::new();
        for (key, info) in &batch {
            // Cached and plain derivation agree for every member.
            for row in &rows {
                assert_eq!(&s.derive_key_cached(info, &row.css_concat, &mut cache), key);
                assert_eq!(&s.derive_key(info, &row.css_concat), key);
            }
        }
        // One cache entry per (css, shared-nonce-set): 5 members × 1 set.
        assert_eq!(cache.len(), 5);
        // A fresh rekey (new nonces) adds new entries rather than reusing.
        let (key2, info2) = s.rekey(&rows, &mut r);
        assert_eq!(
            s.derive_key_cached(&info2, &rows[0].css_concat, &mut cache),
            key2
        );
        assert_eq!(cache.len(), 6);
    }

    #[test]
    fn rekey_configs_shares_nonces_and_caches_rows() {
        let s = scheme();
        let mut r = rng();
        // Three configurations sharing some rows (the dominance scenario):
        // config 0 ⊂ config 1 ⊂ config 2.
        let all = random_rows(&mut r, 6, 16);
        let configs = vec![all[..2].to_vec(), all[..4].to_vec(), all.clone()];
        let out = s.rekey_configs(&configs, &mut r);
        assert_eq!(out.len(), 3);
        // Shared nonces.
        assert_eq!(out[0].1.zs, out[1].1.zs);
        assert_eq!(out[1].1.zs, out[2].1.zs);
        // Independent keys.
        assert_ne!(out[0].0, out[1].0);
        assert_ne!(out[1].0, out[2].0);
        // Membership semantics hold per configuration.
        for (cfg, (key, info)) in configs.iter().zip(&out) {
            for row in cfg {
                assert_eq!(&s.derive_key(info, &row.css_concat), key);
            }
        }
        // Row 5 is only in config 2; it must not derive configs 0/1 keys.
        assert_ne!(&s.derive_key(&out[0].1, &all[5].css_concat), &out[0].0);
        assert_ne!(&s.derive_key(&out[1].1, &all[5].css_concat), &out[1].0);
    }

    #[test]
    fn derived_key_is_deterministic() {
        let s = scheme();
        let mut r = rng();
        let rows = random_rows(&mut r, 3, 16);
        let (_, info) = s.rekey(&rows, &mut r);
        let d1 = s.derive_key(&info, &rows[0].css_concat);
        let d2 = s.derive_key(&info, &rows[0].css_concat);
        assert_eq!(d1, d2);
    }
}
