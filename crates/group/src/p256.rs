//! NIST P-256 (secp256r1) — the workspace's default group backend.
//!
//! Short-Weierstrass curve `y² = x³ − 3x + b` over the 256-bit prime field,
//! prime group order (cofactor 1), Jacobian projective arithmetic in
//! Montgomery form.
//!
//! Scalar multiplication is **variable-time** (adequate for a research
//! reproduction, noted as such — see `docs/ARCHITECTURE.md`, "Group
//! arithmetic"):
//!
//! * variable bases use width-5 wNAF recoding with a batch-normalized
//!   table of odd affine multiples and mixed (Jacobian + affine) addition;
//! * the fixed bases `g` and `h` use lazily built radix-16 comb tables
//!   (64 windows × 15 affine points ≈ 60 KiB per base), reducing `g^k` to
//!   ~60 mixed additions with no doublings at all;
//! * a verification key is prepared once into the same comb
//!   ([`CyclicGroup::prepare`]), so `g^x · pk^y == R` is two table walks
//!   into one accumulator and a projective compare, with neither doublings
//!   nor an inversion;
//! * lists share what they have in common: one wNAF recoding and one
//!   table normalisation for many bases under one scalar, one one-off
//!   comb for many scalars under one base, and a single inversion for
//!   every list's results.

use crate::p256_field as pf;
use crate::traits::{CyclicGroup, Scalar, ScalarCtx};
use pbcd_crypto::sha256_concat;
use pbcd_math::{FpCtx, MontCtx, U256};
use std::sync::{Arc, OnceLock};

const P_HEX: &str = "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff";
const N_HEX: &str = "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551";
const B_HEX: &str = "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b";
const GX_HEX: &str = "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296";
const GY_HEX: &str = "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5";

/// An affine P-256 point (coordinates in Montgomery form) or the identity.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum P256Point {
    /// The point at infinity (group identity).
    Identity,
    /// An affine point with Montgomery-form coordinates.
    Affine {
        /// x-coordinate (Montgomery form).
        x: U256,
        /// y-coordinate (Montgomery form).
        y: U256,
    },
}

/// Jacobian-coordinate point used internally for arithmetic.
#[derive(Clone, Copy)]
struct Jacobian {
    x: U256,
    y: U256,
    z: U256, // z = 0 encodes the identity
}

/// A nonzero affine point (Montgomery-form coordinates) used in
/// precomputed tables, where mixed addition makes `z = 1` operands pay.
#[derive(Clone, Copy)]
struct AffinePt {
    x: U256,
    y: U256,
}

/// Window width of the wNAF recoding for variable-base multiplication
/// (odd multiples `1P, 3P, …, 15P` — 8 table points).
const WNAF_WINDOW: u32 = 5;
/// Window width of the fixed-base comb tables for `g` and `h`.
const COMB_WINDOW: u32 = 4;

/// Field multiplications (squarings included) in one Jacobian doubling.
const DOUBLE_COST: usize = 8;
/// Field multiplications (squarings included) in one general Jacobian
/// addition.
const ADD_COST: usize = 16;
/// Shortest scalar list for which [`CyclicGroup::exp_shared_base`] builds
/// a one-off comb table; shorter lists run wNAF per scalar.
///
/// Operation model: the table costs `2^w` general additions in each of
/// its `⌈256/w⌉` windows. A comb lookup then makes about as many mixed
/// additions as a wNAF run makes for its digits and its own table, so
/// what the comb saves per scalar is the 256 doublings. The table pays
/// off from `⌈64·16·16 / (256·8)⌉ = 8` scalars on, which is also where
/// the two routes cross on the 2-vCPU reference host.
const SHARED_BASE_TABLE_MIN: usize = ((256usize.div_ceil(COMB_WINDOW as usize) << COMB_WINDOW)
    * ADD_COST)
    .div_ceil(256 * DOUBLE_COST);

/// Fixed-base comb: `tables[i][d − 1] = (d · 2^(w·i)) · B` as affine
/// points, one row per `w`-bit window of the 256-bit scalar (≈ 60 KiB).
/// It is also P-256's [`CyclicGroup::Prepared`] form of a verification key.
pub struct CombTable {
    tables: Vec<Vec<AffinePt>>,
}

/// The P-256 group backend.
#[derive(Clone)]
pub struct P256Group {
    inner: Arc<P256Inner>,
}

struct P256Inner {
    field: MontCtx<4>,
    scalar: ScalarCtx,
    order: U256,
    b: U256,     // Montgomery form
    three: U256, // Montgomery form of 3 (a = -3)
    gen: P256Point,
    h: P256Point,
    /// Lazily built fixed-base tables, shared by every clone of the
    /// group handle (they live behind the same `Arc`).
    g_comb: OnceLock<CombTable>,
    h_comb: OnceLock<CombTable>,
}

impl Default for P256Group {
    fn default() -> Self {
        Self::new()
    }
}

impl P256Group {
    /// Constructs the standard P-256 backend. Parameters are fixed NIST
    /// constants; `h` is derived by hashing a domain-separation tag into the
    /// curve (nothing-up-my-sleeve second generator).
    pub fn new() -> Self {
        let p = U256::from_hex(P_HEX).expect("static constant");
        let n = U256::from_hex(N_HEX).expect("static constant");
        let field = MontCtx::new(p);
        let scalar = FpCtx::new(n);
        let b = field.to_mont(&U256::from_hex(B_HEX).expect("static constant"));
        let three = field.to_mont(&U256::from_u64(3));
        let gen = P256Point::Affine {
            x: field.to_mont(&U256::from_hex(GX_HEX).expect("static constant")),
            y: field.to_mont(&U256::from_hex(GY_HEX).expect("static constant")),
        };
        let mut group = Self {
            inner: Arc::new(P256Inner {
                field,
                scalar,
                order: n,
                b,
                three,
                gen,
                h: P256Point::Identity, // patched below
                g_comb: OnceLock::new(),
                h_comb: OnceLock::new(),
            }),
        };
        let h = group.hash_to_group("pbcd-p256-pedersen-h", b"v1");
        Arc::get_mut(&mut group.inner)
            .expect("sole owner during construction")
            .h = h;
        group
    }

    fn f(&self) -> &MontCtx<4> {
        &self.inner.field
    }

    /// Checks the affine equation `y² = x³ − 3x + b` (Montgomery form).
    fn is_on_curve(&self, x: &U256, y: &U256) -> bool {
        let f = self.f();
        let y2 = f.mont_sqr(y);
        let x3 = f.mont_mul(&f.mont_sqr(x), x);
        let ax = f.mont_mul(&self.inner.three, x);
        let rhs = f.add(&f.sub(&x3, &ax), &self.inner.b);
        y2 == rhs
    }

    fn to_jacobian(&self, p: &P256Point) -> Jacobian {
        match p {
            P256Point::Identity => Jacobian {
                x: self.f().one(),
                y: self.f().one(),
                z: U256::ZERO,
            },
            P256Point::Affine { x, y } => Jacobian {
                x: *x,
                y: *y,
                z: self.f().one(),
            },
        }
    }

    fn to_affine(&self, p: &Jacobian) -> P256Point {
        if p.z.is_zero() {
            return P256Point::Identity;
        }
        let zinv = pf::inv_vartime(&p.z).expect("nonzero z");
        let zinv2 = pf::sqr(&zinv);
        let zinv3 = pf::mul(&zinv2, &zinv);
        P256Point::Affine {
            x: pf::mul(&p.x, &zinv2),
            y: pf::mul(&p.y, &zinv3),
        }
    }

    /// Jacobian doubling, specialized for `a = −3` (dbl-2001-b), on the
    /// dedicated field kernel ([`crate::p256_field`]).
    fn jac_double(&self, p: &Jacobian) -> Jacobian {
        if p.z.is_zero() || p.y.is_zero() {
            return self.jac_identity();
        }
        let delta = pf::sqr(&p.z);
        let gamma = pf::sqr(&p.y);
        let beta = pf::mul(&p.x, &gamma);
        // alpha = 3(x − delta)(x + delta)
        let alpha = {
            let t = pf::mul(&pf::sub(&p.x, &delta), &pf::add(&p.x, &delta));
            pf::add(&pf::dbl(&t), &t)
        };
        let four_beta = pf::dbl(&pf::dbl(&beta));
        let eight_beta = pf::dbl(&four_beta);
        let x3 = pf::sub(&pf::sqr(&alpha), &eight_beta);
        // z3 = 2·y·z — same value as the textbook (y + z)² − γ − δ but one
        // multiply instead of a square plus three additive ops, which is a
        // win when add/sub are not free relative to mul (this host).
        let z3 = pf::mul(&pf::dbl(&p.y), &p.z);
        // y3 = alpha(4beta − x3) − 8 gamma²
        let eight_gamma2 = {
            let g2 = pf::sqr(&gamma);
            pf::dbl(&pf::dbl(&pf::dbl(&g2)))
        };
        let y3 = pf::sub(&pf::mul(&alpha, &pf::sub(&four_beta, &x3)), &eight_gamma2);
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// General Jacobian addition (add-2007-bl) on the dedicated kernel.
    fn jac_add(&self, p: &Jacobian, q: &Jacobian) -> Jacobian {
        if p.z.is_zero() {
            return *q;
        }
        if q.z.is_zero() {
            return *p;
        }
        let z1z1 = pf::sqr(&p.z);
        let z2z2 = pf::sqr(&q.z);
        let u1 = pf::mul(&p.x, &z2z2);
        let u2 = pf::mul(&q.x, &z1z1);
        let s1 = pf::mul(&pf::mul(&p.y, &q.z), &z2z2);
        let s2 = pf::mul(&pf::mul(&q.y, &p.z), &z1z1);
        if u1 == u2 {
            return if s1 == s2 {
                self.jac_double(p)
            } else {
                // p + (−p) = identity
                self.jac_identity()
            };
        }
        let h = pf::sub(&u2, &u1);
        let i = pf::sqr(&pf::dbl(&h));
        let j = pf::mul(&h, &i);
        let r = pf::dbl(&pf::sub(&s2, &s1));
        let v = pf::mul(&u1, &i);
        let x3 = pf::sub(&pf::sub(&pf::sqr(&r), &j), &pf::dbl(&v));
        let y3 = pf::sub(&pf::mul(&r, &pf::sub(&v, &x3)), &pf::dbl(&pf::mul(&s1, &j)));
        let z3 = pf::mul(
            &pf::sub(&pf::sub(&pf::sqr(&pf::add(&p.z, &q.z)), &z1z1), &z2z2),
            &h,
        );
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    fn jac_identity(&self) -> Jacobian {
        Jacobian {
            x: pf::one(),
            y: pf::one(),
            z: U256::ZERO,
        }
    }

    fn jac_from_affine(&self, q: &AffinePt) -> Jacobian {
        Jacobian {
            x: q.x,
            y: q.y,
            z: pf::one(),
        }
    }

    /// Mixed addition `p + q` with affine `q` (madd-2007-bl, `Z2 = 1`):
    /// 7M + 4S versus 11M + 5S for the general addition. Kernel field ops.
    fn jac_add_affine(&self, p: &Jacobian, q: &AffinePt) -> Jacobian {
        if p.z.is_zero() {
            return self.jac_from_affine(q);
        }
        let z1z1 = pf::sqr(&p.z);
        let u2 = pf::mul(&q.x, &z1z1);
        let s2 = pf::mul(&pf::mul(&q.y, &p.z), &z1z1);
        if p.x == u2 {
            return if p.y == s2 {
                self.jac_double(p)
            } else {
                self.jac_identity()
            };
        }
        let h = pf::sub(&u2, &p.x);
        let hh = pf::sqr(&h);
        let i = pf::dbl(&pf::dbl(&hh));
        let j = pf::mul(&h, &i);
        let r = pf::dbl(&pf::sub(&s2, &p.y));
        let v = pf::mul(&p.x, &i);
        let x3 = pf::sub(&pf::sub(&pf::sqr(&r), &j), &pf::dbl(&v));
        let y3 = pf::sub(
            &pf::mul(&r, &pf::sub(&v, &x3)),
            &pf::dbl(&pf::mul(&p.y, &j)),
        );
        let z3 = pf::sub(&pf::sub(&pf::sqr(&pf::add(&p.z, &h)), &z1z1), &hh);
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// The generic-context twin of [`Self::jac_double`], kept for the naive
    /// reference ladder so `exp_naive` still measures the pre-kernel cost.
    fn jac_double_generic(&self, p: &Jacobian) -> Jacobian {
        if p.z.is_zero() || p.y.is_zero() {
            return self.jac_identity();
        }
        let f = self.f();
        let delta = f.mont_sqr(&p.z);
        let gamma = f.mont_sqr(&p.y);
        let beta = f.mont_mul(&p.x, &gamma);
        let alpha = {
            let t = f.mont_mul(&f.sub(&p.x, &delta), &f.add(&p.x, &delta));
            f.add(&f.double(&t), &t)
        };
        let four_beta = f.double(&f.double(&beta));
        let eight_beta = f.double(&four_beta);
        let x3 = f.sub(&f.mont_sqr(&alpha), &eight_beta);
        let z3 = f.sub(&f.sub(&f.mont_sqr(&f.add(&p.y, &p.z)), &gamma), &delta);
        let eight_gamma2 = {
            let g2 = f.mont_sqr(&gamma);
            f.double(&f.double(&f.double(&g2)))
        };
        let y3 = f.sub(&f.mont_mul(&alpha, &f.sub(&four_beta, &x3)), &eight_gamma2);
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// The generic-context twin of [`Self::jac_add`] for the naive ladder.
    fn jac_add_generic(&self, p: &Jacobian, q: &Jacobian) -> Jacobian {
        if p.z.is_zero() {
            return *q;
        }
        if q.z.is_zero() {
            return *p;
        }
        let f = self.f();
        let z1z1 = f.mont_sqr(&p.z);
        let z2z2 = f.mont_sqr(&q.z);
        let u1 = f.mont_mul(&p.x, &z2z2);
        let u2 = f.mont_mul(&q.x, &z1z1);
        let s1 = f.mont_mul(&f.mont_mul(&p.y, &q.z), &z2z2);
        let s2 = f.mont_mul(&f.mont_mul(&q.y, &p.z), &z1z1);
        if u1 == u2 {
            return if s1 == s2 {
                self.jac_double_generic(p)
            } else {
                self.jac_identity()
            };
        }
        let h = f.sub(&u2, &u1);
        let i = f.mont_sqr(&f.double(&h));
        let j = f.mont_mul(&h, &i);
        let r = f.double(&f.sub(&s2, &s1));
        let v = f.mont_mul(&u1, &i);
        let x3 = f.sub(&f.sub(&f.mont_sqr(&r), &j), &f.double(&v));
        let y3 = f.sub(
            &f.mont_mul(&r, &f.sub(&v, &x3)),
            &f.double(&f.mont_mul(&s1, &j)),
        );
        let z3 = f.mont_mul(
            &f.sub(&f.sub(&f.mont_sqr(&f.add(&p.z, &q.z)), &z1z1), &z2z2),
            &h,
        );
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Normalizes a batch of *nonzero* Jacobian points to affine with one
    /// shared field inversion (Montgomery's trick on the kernel).
    fn batch_to_affine(&self, pts: &[Jacobian]) -> Vec<AffinePt> {
        if pts.is_empty() {
            return Vec::new();
        }
        // Prefix products of the z's, one inversion, then walk back.
        let mut prefix = Vec::with_capacity(pts.len());
        let mut acc = pf::one();
        for p in pts {
            prefix.push(acc);
            acc = pf::mul(&acc, &p.z);
        }
        let mut inv_acc = pf::inv_vartime(&acc).expect("table points are nonzero");
        let mut out = vec![
            AffinePt {
                x: pf::one(),
                y: pf::one(),
            };
            pts.len()
        ];
        for (i, p) in pts.iter().enumerate().rev() {
            let zinv = pf::mul(&inv_acc, &prefix[i]);
            inv_acc = pf::mul(&inv_acc, &p.z);
            let zinv2 = pf::sqr(&zinv);
            out[i] = AffinePt {
                x: pf::mul(&p.x, &zinv2),
                y: pf::mul(&p.y, &pf::mul(&zinv2, &zinv)),
            };
        }
        out
    }

    /// Allocation-free twin of [`Self::batch_to_affine`] for the small
    /// fixed-size tables on the `exp` hot path.
    fn batch_to_affine_n<const N: usize>(&self, pts: &[Jacobian; N]) -> [AffinePt; N] {
        let mut prefix = [pf::one(); N];
        let mut acc = pf::one();
        for (i, p) in pts.iter().enumerate() {
            prefix[i] = acc;
            acc = pf::mul(&acc, &p.z);
        }
        let mut inv_acc = pf::inv_vartime(&acc).expect("table points are nonzero");
        let mut out = [AffinePt {
            x: pf::one(),
            y: pf::one(),
        }; N];
        for (i, p) in pts.iter().enumerate().rev() {
            let zinv = pf::mul(&inv_acc, &prefix[i]);
            inv_acc = pf::mul(&inv_acc, &p.z);
            let zinv2 = pf::sqr(&zinv);
            out[i] = AffinePt {
                x: pf::mul(&p.x, &zinv2),
                y: pf::mul(&p.y, &pf::mul(&zinv2, &zinv)),
            };
        }
        out
    }

    /// Normalizes a batch of Jacobian points, identities included, with one
    /// shared field inversion.
    fn batch_to_points(&self, pts: &[Jacobian]) -> Vec<P256Point> {
        let nonzero: Vec<Jacobian> = pts.iter().filter(|p| !p.z.is_zero()).copied().collect();
        let mut affine = self.batch_to_affine(&nonzero).into_iter();
        pts.iter()
            .map(|p| {
                if p.z.is_zero() {
                    P256Point::Identity
                } else {
                    let a = affine.next().expect("one per nonzero point");
                    P256Point::Affine { x: a.x, y: a.y }
                }
            })
            .collect()
    }

    /// Width-`w` NAF recoding into a caller-provided buffer: signed odd
    /// digits in `±{1, 3, …, 2^(w−1)−1}` with at least `w − 1` zeros
    /// between nonzero digits, lsb first. Returns the digit count.
    fn wnaf_into(k: &U256, w: u32, out: &mut [i8; 257]) -> usize {
        let mut k = *k;
        let mut len = 0;
        let mask = (1u64 << w) - 1;
        while !k.is_zero() {
            if k.is_odd() {
                let mut d = (k.limbs()[0] & mask) as i64;
                if d >= 1 << (w - 1) {
                    d -= 1 << w;
                }
                if d >= 0 {
                    k = k.wrapping_sub(&U256::from_u64(d as u64));
                } else {
                    k = k.wrapping_add(&U256::from_u64((-d) as u64));
                }
                out[len] = d as i8;
            } else {
                out[len] = 0;
            }
            len += 1;
            k = k.shr(1);
        }
        len
    }

    /// The odd multiples `1P, 3P, …, (2N − 1)P` of a nonzero point, still
    /// in Jacobian form.
    fn odd_multiples<const N: usize>(&self, p: &Jacobian) -> [Jacobian; N] {
        let mut jac_table = [*p; N];
        let twop = self.jac_double(p);
        for i in 1..N {
            jac_table[i] = self.jac_add(&jac_table[i - 1], &twop);
        }
        jac_table
    }

    /// Builds the wNAF table of odd multiples `1P, 3P, …, (2N − 1)P` as
    /// batch-normalized affine points, allocation-free.
    fn wnaf_table<const N: usize>(&self, p: &Jacobian) -> [AffinePt; N] {
        self.batch_to_affine_n(&self.odd_multiples(p))
    }

    /// The table entry `d·P` for a nonzero signed odd wNAF digit `d`, from
    /// a table of odd multiples.
    fn wnaf_entry(table: &[AffinePt], d: i8) -> AffinePt {
        let entry = table[(d.unsigned_abs() as usize) >> 1];
        if d > 0 {
            entry
        } else {
            AffinePt {
                x: entry.x,
                y: pf::neg(&entry.y),
            }
        }
    }

    /// Variable-base scalar multiplication: wNAF over a batch-normalized
    /// table of odd affine multiples, with mixed additions in the main
    /// loop and no heap allocation. `k` must already be reduced modulo the
    /// order.
    fn jac_mul(&self, p: &Jacobian, k: &U256) -> Jacobian {
        if k.is_zero() || p.z.is_zero() {
            return self.jac_identity();
        }
        // Odd multiples 1P, 3P, …, (2^(w−1)−1)P.
        const TABLE_LEN: usize = 1 << (WNAF_WINDOW - 2);
        let table: [AffinePt; TABLE_LEN] = self.wnaf_table(p);
        let mut digits = [0i8; 257];
        let len = Self::wnaf_into(k, WNAF_WINDOW, &mut digits);
        let mut acc = self.jac_identity();
        for &d in digits[..len].iter().rev() {
            acc = self.jac_double(&acc);
            if d != 0 {
                acc = self.jac_add_affine(&acc, &Self::wnaf_entry(&table, d));
            }
        }
        acc
    }

    /// The original MSB-first double-and-add ladder, kept as the reference
    /// implementation the equivalence tests and benches compare against.
    fn jac_mul_naive(&self, p: &Jacobian, k: &U256) -> Jacobian {
        let mut acc = self.jac_identity();
        for i in (0..k.bits()).rev() {
            acc = self.jac_double_generic(&acc);
            if k.bit(i) {
                acc = self.jac_add_generic(&acc, p);
            }
        }
        acc
    }

    /// Naive double-and-add exponentiation — the pre-optimization
    /// reference ladder, exposed for the equivalence test-suite and the
    /// speedup-tracking benches. Semantically identical to
    /// [`CyclicGroup::exp_uint`], just slower.
    pub fn exp_naive(&self, base: &P256Point, k: &U256) -> P256Point {
        let k = if k < self.order() {
            *k
        } else {
            k.rem(self.order())
        };
        let j = self.jac_mul_naive(&self.to_jacobian(base), &k);
        self.to_affine(&j)
    }

    /// Builds the fixed-base comb for `base`: for every `w`-bit window
    /// position, all 15 odd-and-even digit multiples as affine points,
    /// normalized with a single batched inversion.
    fn build_comb(&self, base: &P256Point) -> CombTable {
        let base = match base {
            P256Point::Affine { x, y } => AffinePt { x: *x, y: *y },
            P256Point::Identity => unreachable!("fixed bases are non-identity"),
        };
        let windows = 256u32.div_ceil(COMB_WINDOW) as usize;
        let row_len = (1usize << COMB_WINDOW) - 1;
        let mut all = Vec::with_capacity(windows * row_len);
        let mut window_base = self.jac_from_affine(&base);
        for _ in 0..windows {
            // d·B for d = 1..=15: repeated addition of B.
            all.push(window_base);
            for _ in 1..row_len {
                let next = self.jac_add(&all[all.len() - 1], &window_base);
                all.push(next);
            }
            // Next window base: 16·B = 15·B + B.
            window_base = self.jac_add(&all[all.len() - 1], &window_base);
        }
        let affine = self.batch_to_affine(&all);
        CombTable {
            tables: affine.chunks(row_len).map(<[AffinePt]>::to_vec).collect(),
        }
    }

    /// Fixed-base exponentiation from a comb table, added onto `acc`: one
    /// mixed addition per nonzero window digit, no doublings. `k` must be
    /// reduced.
    fn comb_mul(&self, mut acc: Jacobian, comb: &CombTable, k: &U256) -> Jacobian {
        for (i, row) in comb.tables.iter().enumerate() {
            let base_bit = i as u32 * COMB_WINDOW;
            let mut d = 0usize;
            for b in (0..COMB_WINDOW).rev() {
                d = (d << 1) | k.bit(base_bit + b) as usize;
            }
            if d != 0 {
                acc = self.jac_add_affine(&acc, &row[d - 1]);
            }
        }
        acc
    }

    fn g_comb(&self) -> &CombTable {
        self.inner
            .g_comb
            .get_or_init(|| self.build_comb(&self.inner.gen))
    }

    fn h_comb(&self) -> &CombTable {
        self.inner
            .h_comb
            .get_or_init(|| self.build_comb(&self.inner.h))
    }

    /// Pippenger's bucket method over affine points with canonical scalars.
    ///
    /// The window width `c` is chosen at runtime to minimize the operation
    /// model `⌈256/c⌉ · (n + 2^(c+1))`: each of the `⌈256/c⌉` windows costs
    /// `n` bucket insertions plus two passes over the `2^c − 1` buckets for
    /// the running-sum reduction (all mixed or general additions), and the
    /// `c` doublings per window are folded into the constant. Small `n`
    /// picks small windows (degrading gracefully to near-wNAF behaviour),
    /// `n = 256` picks `c = 7–8`.
    fn pippenger(&self, pts: &[AffinePt], scalars: &[U256]) -> Jacobian {
        debug_assert_eq!(pts.len(), scalars.len());
        let n = pts.len();
        let c = (1u32..=15)
            .min_by_key(|&c| {
                let windows = 256u64.div_ceil(u64::from(c));
                windows * (n as u64 + (1u64 << (c + 1)))
            })
            .expect("non-empty range");
        let windows = 256u32.div_ceil(c);
        let num_buckets = (1usize << c) - 1;
        let mut buckets = vec![self.jac_identity(); num_buckets];
        let mut acc = self.jac_identity();
        for w in (0..windows).rev() {
            if !acc.z.is_zero() {
                for _ in 0..c {
                    acc = self.jac_double(&acc);
                }
            }
            for b in buckets.iter_mut() {
                *b = self.jac_identity();
            }
            let base_bit = w * c;
            for (p, k) in pts.iter().zip(scalars) {
                let mut d = 0usize;
                for b in (0..c).rev() {
                    let bit = base_bit + b;
                    d = (d << 1) | (bit < 256 && k.bit(bit)) as usize;
                }
                if d != 0 {
                    buckets[d - 1] = self.jac_add_affine(&buckets[d - 1], p);
                }
            }
            // Running-sum reduction: Σ d·bucket[d] with two addition passes.
            let mut running = self.jac_identity();
            let mut window_sum = self.jac_identity();
            for b in buckets.iter().rev() {
                running = self.jac_add(&running, b);
                window_sum = self.jac_add(&window_sum, &running);
            }
            acc = self.jac_add(&acc, &window_sum);
        }
        acc
    }

    /// Lifts a candidate x-coordinate (canonical form) onto the curve,
    /// choosing the y whose parity matches `y_parity`.
    fn lift_x(&self, x_canon: &U256, y_parity: bool) -> Option<P256Point> {
        if x_canon >= self.f().modulus() {
            return None;
        }
        let f = self.f();
        let x = f.to_mont(x_canon);
        let x3 = f.mont_mul(&f.mont_sqr(&x), &x);
        let ax = f.mont_mul(&self.inner.three, &x);
        let rhs = f.add(&f.sub(&x3, &ax), &self.inner.b);
        let y = f.sqrt_p3mod4(&rhs)?;
        let y_canon = f.from_mont(&y);
        let y = if y_canon.is_odd() == y_parity {
            y
        } else {
            f.neg(&y)
        };
        Some(P256Point::Affine { x, y })
    }
}

impl CyclicGroup for P256Group {
    type Elem = P256Point;
    type Prepared = CombTable;

    fn name(&self) -> &'static str {
        "p256"
    }

    fn order(&self) -> &U256 {
        &self.inner.order
    }

    fn scalar_ctx(&self) -> &ScalarCtx {
        &self.inner.scalar
    }

    fn identity(&self) -> P256Point {
        P256Point::Identity
    }

    fn generator(&self) -> P256Point {
        self.inner.gen.clone()
    }

    fn pedersen_h(&self) -> P256Point {
        self.inner.h.clone()
    }

    fn op(&self, a: &P256Point, b: &P256Point) -> P256Point {
        // Fast paths avoid Jacobian conversions for identity operands.
        match (a, b) {
            (P256Point::Identity, _) => b.clone(),
            (_, P256Point::Identity) => a.clone(),
            _ => {
                let j = self.jac_add(&self.to_jacobian(a), &self.to_jacobian(b));
                self.to_affine(&j)
            }
        }
    }

    fn inv(&self, a: &P256Point) -> P256Point {
        match a {
            P256Point::Identity => P256Point::Identity,
            P256Point::Affine { x, y } => P256Point::Affine {
                x: *x,
                y: self.f().neg(y),
            },
        }
    }

    fn exp_uint(&self, base: &P256Point, k: &U256) -> P256Point {
        crate::ops::count_exp(1);
        let k = if k < self.order() {
            *k
        } else {
            k.rem(self.order())
        };
        let j = self.jac_mul(&self.to_jacobian(base), &k);
        self.to_affine(&j)
    }

    fn warm_up(&self) {
        self.g_comb();
        self.h_comb();
    }

    fn exp_g(&self, k: &Scalar) -> P256Point {
        crate::ops::count_exp(1);
        self.to_affine(&self.comb_mul(self.jac_identity(), self.g_comb(), &k.to_uint()))
    }

    fn exp_h(&self, k: &Scalar) -> P256Point {
        crate::ops::count_exp(1);
        self.to_affine(&self.comb_mul(self.jac_identity(), self.h_comb(), &k.to_uint()))
    }

    fn prepare(&self, base: &P256Point) -> CombTable {
        self.build_comb(base)
    }

    fn check(&self, x: &Scalar, base: &CombTable, y: &Scalar, expected: &P256Point) -> bool {
        crate::ops::count_exp2();
        let gx = self.comb_mul(self.jac_identity(), self.g_comb(), &x.to_uint());
        let acc = self.comb_mul(gx, base, &y.to_uint());
        // Compare projectively, `(X, Y) = (x·Z², y·Z³)`, instead of paying
        // an inversion to normalise `acc`.
        match expected {
            P256Point::Identity => acc.z.is_zero(),
            P256Point::Affine { x: rx, y: ry } => {
                let zz = pf::sqr(&acc.z);
                !acc.z.is_zero()
                    && acc.x == pf::mul(rx, &zz)
                    && acc.y == pf::mul(ry, &pf::mul(&zz, &acc.z))
            }
        }
    }

    fn pedersen_gh(&self, m: &Scalar, r: &Scalar) -> P256Point {
        crate::ops::count_exp(2);
        let gm = self.comb_mul(self.jac_identity(), self.g_comb(), &m.to_uint());
        let hr = self.comb_mul(self.jac_identity(), self.h_comb(), &r.to_uint());
        self.to_affine(&self.jac_add(&gm, &hr))
    }

    fn pedersen_gh_many(&self, pairs: &[(Scalar, Scalar)]) -> Vec<P256Point> {
        crate::ops::count_exp(2 * pairs.len() as u64);
        let (g_comb, h_comb) = (self.g_comb(), self.h_comb());
        let sums: Vec<Jacobian> = pairs
            .iter()
            .map(|(m, r)| {
                let gm = self.comb_mul(self.jac_identity(), g_comb, &m.to_uint());
                let hr = self.comb_mul(self.jac_identity(), h_comb, &r.to_uint());
                self.jac_add(&gm, &hr)
            })
            .collect();
        self.batch_to_points(&sums)
    }

    fn exp_shared_scalar_shifted(
        &self,
        bases: &[P256Point],
        k: &Scalar,
        shift: &P256Point,
    ) -> Vec<(P256Point, P256Point)> {
        const TABLE_LEN: usize = 1 << (WNAF_WINDOW - 2);
        crate::ops::count_exp(bases.len() as u64);
        let mut digits = [0i8; 257];
        let len = Self::wnaf_into(&k.to_uint(), WNAF_WINDOW, &mut digits);
        // One table of odd multiples per non-identity base, all of them
        // normalised by one inversion, then stepped through the one
        // recoding of `k` in lockstep. Identity bases keep an identity
        // accumulator and need no table.
        let mut accs = vec![self.jac_identity(); bases.len()];
        let mut live = Vec::with_capacity(bases.len());
        let mut multiples = Vec::with_capacity(bases.len() * TABLE_LEN);
        for (i, base) in bases.iter().enumerate() {
            if let P256Point::Affine { x, y } = base {
                live.push(i);
                let p = self.jac_from_affine(&AffinePt { x: *x, y: *y });
                multiples.extend_from_slice(&self.odd_multiples::<TABLE_LEN>(&p));
            }
        }
        let tables = self.batch_to_affine(&multiples);
        for &d in digits[..len].iter().rev() {
            for (&i, table) in live.iter().zip(tables.chunks_exact(TABLE_LEN)) {
                accs[i] = self.jac_double(&accs[i]);
                if d != 0 {
                    accs[i] = self.jac_add_affine(&accs[i], &Self::wnaf_entry(table, d));
                }
            }
        }
        let mut both = Vec::with_capacity(2 * accs.len());
        for acc in &accs {
            both.push(*acc);
            both.push(match shift {
                P256Point::Identity => *acc,
                P256Point::Affine { x, y } => self.jac_add_affine(acc, &AffinePt { x: *x, y: *y }),
            });
        }
        let mut points = self.batch_to_points(&both).into_iter();
        std::iter::from_fn(|| Some((points.next()?, points.next()?))).collect()
    }

    fn exp_shared_base(&self, base: &P256Point, ks: &[Scalar]) -> Vec<P256Point> {
        crate::ops::count_exp(ks.len() as u64);
        if *base == P256Point::Identity {
            return vec![P256Point::Identity; ks.len()];
        }
        let powers: Vec<Jacobian> = if ks.len() < SHARED_BASE_TABLE_MIN {
            let p = self.to_jacobian(base);
            ks.iter().map(|k| self.jac_mul(&p, &k.to_uint())).collect()
        } else {
            let comb = self.build_comb(base);
            ks.iter()
                .map(|k| self.comb_mul(self.jac_identity(), &comb, &k.to_uint()))
                .collect()
        };
        self.batch_to_points(&powers)
    }

    fn msm(&self, terms: &[(P256Point, Scalar)]) -> P256Point {
        // Identity bases and zero scalars contribute nothing; the bucket
        // method needs the survivors in affine form, which they already are.
        let mut pts = Vec::with_capacity(terms.len());
        let mut scalars = Vec::with_capacity(terms.len());
        for (base, k) in terms {
            if let P256Point::Affine { x, y } = base {
                let ku = k.to_uint();
                if !ku.is_zero() {
                    pts.push(AffinePt { x: *x, y: *y });
                    scalars.push(ku);
                }
            }
        }
        if pts.is_empty() {
            return P256Point::Identity;
        }
        crate::ops::count_exp(pts.len() as u64);
        self.to_affine(&self.pippenger(&pts, &scalars))
    }

    fn prod_pow2(&self, elems: &[P256Point]) -> P256Point {
        let mut acc = self.jac_identity();
        for e in elems.iter().rev() {
            acc = self.jac_double(&acc);
            match e {
                P256Point::Identity => {}
                P256Point::Affine { x, y } => {
                    acc = self.jac_add_affine(&acc, &AffinePt { x: *x, y: *y });
                }
            }
        }
        self.to_affine(&acc)
    }

    fn serialize(&self, a: &P256Point) -> Vec<u8> {
        match a {
            P256Point::Identity => vec![0x00],
            P256Point::Affine { x, y } => {
                let f = self.f();
                let mut out = Vec::with_capacity(65);
                out.push(0x04);
                out.extend_from_slice(&f.from_mont(x).to_be_bytes());
                out.extend_from_slice(&f.from_mont(y).to_be_bytes());
                out
            }
        }
    }

    fn deserialize(&self, bytes: &[u8]) -> Option<P256Point> {
        match bytes {
            [0x00] => Some(P256Point::Identity),
            [0x04, rest @ ..] if rest.len() == 64 => {
                let xc = U256::from_be_bytes(&rest[..32])?;
                let yc = U256::from_be_bytes(&rest[32..])?;
                let f = self.f();
                if &xc >= f.modulus() || &yc >= f.modulus() {
                    return None;
                }
                let x = f.to_mont(&xc);
                let y = f.to_mont(&yc);
                if self.is_on_curve(&x, &y) {
                    Some(P256Point::Affine { x, y })
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    fn hash_to_group(&self, domain: &str, data: &[u8]) -> P256Point {
        // Try-and-increment: hash (domain ‖ data ‖ counter) to a candidate
        // x; succeed with probability ≈ 1/2 per attempt. Cofactor 1 means
        // any curve point already lies in the prime-order group.
        for counter in 0u32..=u32::MAX {
            let digest = sha256_concat(&[
                b"pbcd-h2c-p256:",
                domain.as_bytes(),
                b":",
                data,
                &counter.to_be_bytes(),
            ]);
            let xc = U256::from_be_bytes(&digest)
                .expect("32 bytes fits")
                .rem(self.f().modulus());
            let parity = digest[0] & 1 == 1;
            if let Some(p) = self.lift_x(&xc, parity) {
                return p;
            }
        }
        unreachable!("hash-to-curve failed for 2^32 counters")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn g() -> P256Group {
        P256Group::new()
    }

    fn pt(group: &P256Group, x_hex: &str, y_hex: &str) -> P256Point {
        let f = group.f();
        P256Point::Affine {
            x: f.to_mont(&U256::from_hex(x_hex).unwrap()),
            y: f.to_mont(&U256::from_hex(y_hex).unwrap()),
        }
    }

    #[test]
    fn generator_is_on_curve() {
        let grp = g();
        match grp.generator() {
            P256Point::Affine { x, y } => assert!(grp.is_on_curve(&x, &y)),
            _ => panic!("generator must be affine"),
        }
    }

    #[test]
    fn known_scalar_multiples() {
        // Independently computed with a reference implementation.
        let grp = g();
        let cases = [
            (
                U256::from_u64(2),
                "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978",
                "07775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1",
            ),
            (
                U256::from_u64(3),
                "5ecbe4d1a6330a44c8f7ef951d4bf165e6c6b721efada985fb41661bc6e7fd6c",
                "8734640c4998ff7e374b06ce1a64a2ecd82ab036384fb83d9a79b127a27d5032",
            ),
            (
                U256::from_u64(5),
                "51590b7a515140d2d784c85608668fdfef8c82fd1f5be52421554a0dc3d033ed",
                "e0c17da8904a727d8ae1bf36bf8a79260d012f00d4d80888d1d0bb44fda16da4",
            ),
            (
                U256::from_u64(112233445566778899),
                "339150844ec15234807fe862a86be77977dbfb3ae3d96f4c22795513aeaab82f",
                "b1c14ddfdc8ec1b2583f51e85a5eb3a155840f2034730e9b5ada38b674336a21",
            ),
        ];
        for (k, x, y) in cases {
            assert_eq!(grp.exp_uint(&grp.generator(), &k), pt(&grp, x, y));
        }
    }

    #[test]
    fn order_times_generator_is_identity() {
        let grp = g();
        let n = *grp.order();
        assert_eq!(grp.exp_uint(&grp.generator(), &n), P256Point::Identity);
        // (n-1)·G = −G.
        let nm1 = n.wrapping_sub(&U256::one());
        assert_eq!(
            grp.exp_uint(&grp.generator(), &nm1),
            grp.inv(&grp.generator())
        );
    }

    #[test]
    fn group_laws() {
        let grp = g();
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for _ in 0..10 {
            let a = grp.exp_g(&grp.random_scalar(&mut rng));
            let b = grp.exp_g(&grp.random_scalar(&mut rng));
            let c = grp.exp_g(&grp.random_scalar(&mut rng));
            assert_eq!(grp.op(&a, &b), grp.op(&b, &a));
            assert_eq!(grp.op(&grp.op(&a, &b), &c), grp.op(&a, &grp.op(&b, &c)));
            assert_eq!(grp.op(&a, &grp.identity()), a);
            assert_eq!(grp.op(&a, &grp.inv(&a)), grp.identity());
        }
    }

    #[test]
    fn exponent_homomorphism() {
        let grp = g();
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        let sc = grp.scalar_ctx().clone();
        for _ in 0..10 {
            let x = sc.random(&mut rng);
            let y = sc.random(&mut rng);
            // g^x · g^y = g^(x+y)
            let lhs = grp.op(&grp.exp_g(&x), &grp.exp_g(&y));
            let rhs = grp.exp_g(&(&x + &y));
            assert_eq!(lhs, rhs);
            // (g^x)^y = g^(xy)
            let lhs = grp.exp(&grp.exp_g(&x), &y);
            let rhs = grp.exp_g(&(&x * &y));
            assert_eq!(lhs, rhs);
        }
    }

    #[test]
    fn serialization_roundtrip() {
        let grp = g();
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for _ in 0..10 {
            let p = grp.exp_g(&grp.random_scalar(&mut rng));
            let enc = grp.serialize(&p);
            assert_eq!(grp.deserialize(&enc), Some(p));
        }
        assert_eq!(
            grp.deserialize(&grp.serialize(&grp.identity())),
            Some(P256Point::Identity)
        );
    }

    #[test]
    fn deserialize_rejects_off_curve() {
        let grp = g();
        let mut enc = grp.serialize(&grp.generator());
        enc[64] ^= 1; // corrupt y
        assert_eq!(grp.deserialize(&enc), None);
        assert_eq!(grp.deserialize(&[]), None);
        assert_eq!(grp.deserialize(&[0x04, 0, 0]), None);
    }

    #[test]
    fn hash_to_group_deterministic_and_valid() {
        let grp = g();
        let p1 = grp.hash_to_group("test", b"hello");
        let p2 = grp.hash_to_group("test", b"hello");
        assert_eq!(p1, p2);
        let p3 = grp.hash_to_group("test", b"world");
        assert_ne!(p1, p3);
        match p1 {
            P256Point::Affine { x, y } => assert!(grp.is_on_curve(&x, &y)),
            _ => panic!("hash output should not be identity"),
        }
    }

    #[test]
    fn pedersen_h_differs_from_generator() {
        let grp = g();
        assert_ne!(grp.pedersen_h(), grp.generator());
        assert_ne!(grp.pedersen_h(), grp.identity());
    }

    #[test]
    fn double_of_two_torsion_free() {
        // Doubling the identity stays identity.
        let grp = g();
        assert_eq!(
            grp.op(&grp.identity(), &grp.identity()),
            P256Point::Identity
        );
        // a + a uses the doubling path through exp.
        let two = U256::from_u64(2);
        let gen = grp.generator();
        assert_eq!(grp.op(&gen, &gen), grp.exp_uint(&gen, &two));
    }
}
