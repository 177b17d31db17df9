//! Dense linear algebra over a prime field, tuned for the ACV-BGKM workload.
//!
//! The paper's publisher solves `A·Y = 0` for a random non-trivial null-space
//! vector of an `n×(N+1)` matrix over an 80-bit prime field (the role NTL's
//! `kernel()` played in the original C++ implementation). [`Matrix`] stores
//! Montgomery-form limbs in a flat row-major buffer and eliminates with the
//! raw [`MontCtx`](crate::MontCtx) API — no per-element `Arc` traffic.
//! [`Matrix::random_null_vector`] is the production solve (echelon form plus
//! back-substitution; [`Matrix::into_echelon`] keeps the echelon form for
//! several draws); [`Matrix::row_reduce`] and
//! [`Matrix::null_space_basis`] are the Gauss–Jordan it is tested against.
//!
//! The production solve reduces once per matrix entry, not once per
//! update: each elimination update adds an unreduced product to a wide
//! per-entry sum, and an entry is reduced into its residue only when the
//! elimination next reads it, or when the modulus' headroom in the
//! Montgomery word runs out (never at the 80-bit GKM prime, whose sums can
//! take 2^47 products). When that happens depends on the shape and the
//! modulus, not on the entries.

use crate::fp::{Fp, FpCtx};
use crate::mont::Wide;
use crate::uint::Uint;
use core::ops::Range;
use rand::RngCore;
use std::sync::Arc;

/// A dense matrix over the prime field described by an [`FpCtx`].
///
/// Elements are stored in Montgomery form, row-major.
#[derive(Clone)]
pub struct Matrix<const L: usize> {
    ctx: Arc<FpCtx<L>>,
    rows: usize,
    cols: usize,
    data: Vec<Uint<L>>,
}

impl<const L: usize> Matrix<L> {
    /// An all-zero matrix.
    pub fn zero(ctx: &Arc<FpCtx<L>>, rows: usize, cols: usize) -> Self {
        Self {
            ctx: Arc::clone(ctx),
            rows,
            cols,
            data: vec![Uint::ZERO; rows * cols],
        }
    }

    /// The identity matrix.
    pub fn identity(ctx: &Arc<FpCtx<L>>, n: usize) -> Self {
        let mut m = Self::zero(ctx, n, n);
        let one = ctx.mont().one();
        for i in 0..n {
            m.data[i * n + i] = one;
        }
        m
    }

    /// Builds a matrix from field-element rows. All rows must share a length.
    pub fn from_rows(ctx: &Arc<FpCtx<L>>, rows: &[Vec<Fp<L>>]) -> Self {
        let cols = rows.first().map_or(0, Vec::len);
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "ragged rows in Matrix::from_rows"
        );
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            for el in row {
                data.push(*el.mont_raw());
            }
        }
        Self {
            ctx: Arc::clone(ctx),
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix element-wise from a function of `(row, col)`.
    pub fn from_fn(
        ctx: &Arc<FpCtx<L>>,
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> Fp<L>,
    ) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(*f(i, j).mont_raw());
            }
        }
        Self {
            ctx: Arc::clone(ctx),
            rows,
            cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The field context.
    pub fn ctx(&self) -> &Arc<FpCtx<L>> {
        &self.ctx
    }

    /// Element accessor.
    pub fn get(&self, i: usize, j: usize) -> Fp<L> {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        self.ctx.from_mont_raw(self.data[i * self.cols + j])
    }

    /// Element mutator.
    pub fn set(&mut self, i: usize, j: usize, v: &Fp<L>) {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        self.data[i * self.cols + j] = *v.mont_raw();
    }

    /// Row `i` as raw Montgomery residues, for builders that fill a whole
    /// row at a time.
    pub fn row_mont_raw_mut(&mut self, i: usize) -> &mut [Uint<L>] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix–vector product `A·x`.
    pub fn mul_vec(&self, x: &[Fp<L>]) -> Vec<Fp<L>> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        let mont = self.ctx.mont();
        let xs: Vec<Uint<L>> = x.iter().map(|e| *e.mont_raw()).collect();
        let mut out = Vec::with_capacity(self.rows);
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            let mut acc = Uint::ZERO;
            for (a, b) in row.iter().zip(&xs) {
                acc = mont.add(&acc, &mont.mont_mul(a, b));
            }
            out.push(self.ctx.from_mont_raw(acc));
        }
        out
    }

    /// Matrix product `A·B` (for tests and small verification work).
    pub fn mul_mat(&self, rhs: &Self) -> Self {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch");
        let mont = self.ctx.mont();
        let mut out = Self::zero(&self.ctx, self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a.is_zero() {
                    continue;
                }
                for j in 0..rhs.cols {
                    let cur = out.data[i * rhs.cols + j];
                    let p = mont.mont_mul(&a, &rhs.data[k * rhs.cols + j]);
                    out.data[i * rhs.cols + j] = mont.add(&cur, &p);
                }
            }
        }
        out
    }

    /// In-place Gauss–Jordan to reduced row-echelon form.
    /// Returns the pivot column of each pivot row (so `result.len()` = rank).
    ///
    /// Off the rekey path since [`Self::random_null_vector`] stops at echelon
    /// form; it serves [`Self::rank`] and [`Self::null_space_basis`], the
    /// oracle that solve is tested against.
    ///
    /// Pivot rows stay *unnormalized* during the elimination sweeps (the
    /// per-sweep pivot inverse is folded into the elimination factors —
    /// `(n−1)` factor multiplications cost less than scaling a wide
    /// `(m−col)`-entry pivot row, and the BGKM matrices are much wider
    /// than tall); all pivot rows are then normalized in one deferred
    /// pass driven by a single [`MontCtx`](crate::MontCtx) batched
    /// inversion (`batch_inv`: one inversion + `3(n−1)` multiplications
    /// for `n` pivots). The one inversion per sweep that computes the
    /// elimination factor is irreducible — the factor *is* a division by
    /// the pivot — so only the normalization half batches.
    pub fn row_reduce(&mut self) -> Vec<usize> {
        let mont = self.ctx.mont().clone();
        let (rows, cols) = (self.rows, self.cols);
        let mut pivots = Vec::new();
        let mut pivot_row = 0;
        for col in 0..cols {
            if pivot_row == rows {
                break;
            }
            // Find a row with a nonzero entry in this column.
            let Some(src) = (pivot_row..rows).find(|&r| !self.data[r * cols + col].is_zero())
            else {
                continue;
            };
            if src != pivot_row {
                self.swap_rows(src, pivot_row);
            }
            let inv = mont
                .inv(&self.data[pivot_row * cols + col])
                .expect("pivot nonzero");
            // Eliminate the column everywhere else against the
            // unnormalized pivot row: row_r -= (a_rc · v⁻¹) · row_pivot.
            for r in 0..rows {
                if r == pivot_row {
                    continue;
                }
                let lead = self.data[r * cols + col];
                if lead.is_zero() {
                    continue;
                }
                let factor = mont.mont_mul(&lead, &inv);
                // (columns before `col` are 0 in both rows).
                let (head, tail) = if r < pivot_row {
                    let (h, t) = self.data.split_at_mut(pivot_row * cols);
                    (&mut h[r * cols..(r + 1) * cols], &t[..cols])
                } else {
                    let (h, t) = self.data.split_at_mut(r * cols);
                    (&mut t[..cols], &h[pivot_row * cols..(pivot_row + 1) * cols])
                };
                for j in col..cols {
                    let p = mont.mont_mul(&factor, &tail[j]);
                    head[j] = mont.sub(&head[j], &p);
                }
            }
            pivots.push(col);
            pivot_row += 1;
        }
        // Deferred normalization: later sweeps zeroed every pivot row's
        // entries in *other* pivot columns without touching its own pivot
        // value, so one batched inversion of the pivot values finishes
        // the reduction.
        if !pivots.is_empty() {
            let pivot_vals: Vec<Uint<L>> = pivots
                .iter()
                .enumerate()
                .map(|(r, &c)| self.data[r * cols + c])
                .collect();
            let invs = mont.batch_inv(&pivot_vals).expect("pivots nonzero");
            for (r, (&c, w)) in pivots.iter().zip(&invs).enumerate() {
                for j in c..cols {
                    let idx = r * cols + j;
                    if !self.data[idx].is_zero() {
                        self.data[idx] = mont.mont_mul(&self.data[idx], w);
                    }
                }
            }
        }
        pivots
    }

    /// Rank of the matrix (consumes a clone; use `row_reduce` to keep RREF).
    pub fn rank(&self) -> usize {
        self.clone().row_reduce().len()
    }

    /// Basis of the right null space `{x : A·x = 0}`.
    pub fn null_space_basis(&self) -> Vec<Vec<Fp<L>>> {
        let mut rref = self.clone();
        let pivots = rref.row_reduce();
        let mut is_pivot = vec![false; self.cols];
        for &c in &pivots {
            is_pivot[c] = true;
        }
        let free: Vec<usize> = (0..self.cols).filter(|&c| !is_pivot[c]).collect();
        let mut basis = Vec::with_capacity(free.len());
        for &fc in &free {
            // Basis vector: free column fc = 1, other free cols = 0,
            // pivot col p (in pivot row r) = -RREF[r][fc].
            let mut v = vec![self.ctx.zero(); self.cols];
            v[fc] = self.ctx.one();
            for (r, &pc) in pivots.iter().enumerate() {
                v[pc] = -rref.get(r, fc);
            }
            basis.push(v);
        }
        basis
    }

    /// A uniformly random vector in the right null space: one draw from
    /// the echelon form of a copy ([`Self::into_echelon`]). Returns the
    /// zero vector only when the null space is trivial (never for the BGKM
    /// shapes, which have more columns than rows).
    pub fn random_null_vector<R: RngCore + ?Sized>(&self, rng: &mut R) -> Vec<Fp<L>> {
        self.clone().into_echelon().random_null_vector(rng)
    }

    /// Forward elimination, kept for any number of
    /// [`Echelon::random_null_vector`] draws: a matrix that needs several
    /// null vectors is eliminated once.
    pub fn into_echelon(mut self) -> Echelon<L> {
        let pivots = self.forward_eliminate();
        Echelon {
            reduced: self,
            pivots,
        }
    }

    /// In-place forward elimination to (unnormalized) row-echelon form.
    /// Returns each pivot row's column and the inverse of its pivot value —
    /// the elimination factor needs the inverse anyway, and
    /// back-substitution divides by the same pivot.
    ///
    /// Updates are delayed, not done per step: entry `(r, j)` stands for
    /// `data − redc(sum)`, where `sum` collects the unreduced products
    /// `factor·pivot` of every step since the entry was last *settled*
    /// (reduced into `data`, sum cleared). An entry is settled when its
    /// column becomes the pivot column (rows not yet pivots, before the
    /// pivot search) and when its row becomes the pivot row (after the
    /// swap), so every value the elimination reads is reduced; and the
    /// whole trailing block is settled every `MontCtx::lazy_budget`
    /// pivots, so no sum outgrows what `redc_wide` can take. The
    /// schedule depends on the shape, the pivot count and the modulus,
    /// not on the entries. On return every entry is settled, so the
    /// echelon form is exactly what reducing after every update gives.
    fn forward_eliminate(&mut self) -> Vec<(usize, Uint<L>)> {
        let ctx = Arc::clone(&self.ctx);
        let mont = ctx.mont();
        let budget = mont.lazy_budget();
        let (rows, cols) = (self.rows, self.cols);
        let mut sums = vec![Wide::ZERO; rows * cols];
        // Settles the entries at `range` of the row-major buffers.
        let settle = |data: &mut [Uint<L>], sums: &mut [Wide<L>], range: Range<usize>| {
            for (d, s) in data[range.clone()].iter_mut().zip(&mut sums[range]) {
                *d = mont.sub(d, &mont.redc_wide(s));
                *s = Wide::ZERO;
            }
        };
        let mut pivots = Vec::with_capacity(rows.min(cols));
        for col in 0..cols {
            let pivot_row = pivots.len();
            if pivot_row == rows {
                break;
            }
            for i in (pivot_row..rows).map(|r| r * cols + col) {
                settle(&mut self.data, &mut sums, i..i + 1);
            }
            let Some(src) = (pivot_row..rows).find(|&r| !self.data[r * cols + col].is_zero())
            else {
                continue;
            };
            self.swap_rows(src, pivot_row);
            swap_row_slices(&mut sums, cols, src, pivot_row);
            let tail = pivot_row * cols + col + 1..(pivot_row + 1) * cols;
            settle(&mut self.data, &mut sums, tail);
            let (upper, lower) = self.data.split_at_mut((pivot_row + 1) * cols);
            let pivot_tail = &upper[pivot_row * cols + col..];
            let inv = mont.inv(&pivot_tail[0]).expect("pivot nonzero");
            let lower_sums = sums[(pivot_row + 1) * cols..].chunks_exact_mut(cols);
            for (row, row_sums) in lower.chunks_exact_mut(cols).zip(lower_sums) {
                if row[col].is_zero() {
                    continue;
                }
                let factor = mont.mont_mul(&row[col], &inv);
                row[col] = Uint::ZERO;
                for (s, p) in row_sums[col + 1..].iter_mut().zip(&pivot_tail[1..]) {
                    s.mul_acc(&factor, p);
                }
            }
            pivots.push((col, inv));
            if pivots.len() % budget == 0 {
                for r in pivot_row + 1..rows {
                    settle(
                        &mut self.data,
                        &mut sums,
                        r * cols + col + 1..(r + 1) * cols,
                    );
                }
            }
        }
        pivots
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        swap_row_slices(&mut self.data, self.cols, a, b);
    }
}

/// A matrix in (unnormalized) row-echelon form, with each pivot row's
/// column and the inverse of its pivot value ([`Matrix::into_echelon`]).
pub struct Echelon<const L: usize> {
    reduced: Matrix<L>,
    pivots: Vec<(usize, Uint<L>)>,
}

impl<const L: usize> Echelon<L> {
    /// A uniformly random vector in the right null space of the matrix
    /// this was eliminated from. Returns the zero vector only when the
    /// null space is trivial.
    ///
    /// The free coordinates are drawn in ascending column order, and
    /// back-substitution fixes the pivot coordinates. That is the vector
    /// `Σ cₖ·basisₖ` over [`Matrix::null_space_basis`] for the same draws
    /// `cₖ`: the pivot columns do not depend on how far the elimination
    /// goes, and a null vector is determined by its free coordinates.
    pub fn random_null_vector<R: RngCore + ?Sized>(&self, rng: &mut R) -> Vec<Fp<L>> {
        let echelon = &self.reduced;
        let ctx = &echelon.ctx;
        let mont = ctx.mont();
        let cols = echelon.cols;
        if self.pivots.len() == cols {
            return vec![ctx.zero(); cols];
        }
        let mut is_free = vec![true; cols];
        for &(col, _) in &self.pivots {
            is_free[col] = false;
        }
        let mut x = vec![Uint::ZERO; cols];
        // All free coordinates zero is the zero vector: draw again.
        while x.iter().all(Uint::is_zero) {
            for (v, free) in x.iter_mut().zip(&is_free) {
                if *free {
                    *v = *ctx.random(rng).mont_raw();
                }
            }
        }
        // Pivot row r reads `v·x[col] + Σ_{j>col} row[j]·x[j] = 0`, and
        // every x[j] right of its pivot is known by the time it is reached.
        // The sum is reduced once per `budget` terms: once per row at q80.
        let budget = mont.lazy_budget();
        for (r, &(col, inv)) in self.pivots.iter().enumerate().rev() {
            let row = &echelon.data[r * cols + col + 1..(r + 1) * cols];
            let mut sum = Uint::ZERO;
            for (a, v) in row.chunks(budget).zip(x[col + 1..].chunks(budget)) {
                let mut wide = Wide::ZERO;
                for (a, v) in a.iter().zip(v) {
                    wide.mul_acc(a, v);
                }
                sum = mont.add(&sum, &mont.redc_wide(&wide));
            }
            x[col] = mont.neg(&mont.mont_mul(&sum, &inv));
        }
        x.into_iter().map(|m| ctx.from_mont_raw(m)).collect()
    }
}

/// Swaps rows `a` and `b` of a row-major buffer with `cols` columns.
fn swap_row_slices<T>(data: &mut [T], cols: usize, a: usize, b: usize) {
    if a == b {
        return;
    }
    let (lo, hi) = (a.min(b), a.max(b));
    let (first, second) = data.split_at_mut(hi * cols);
    first[lo * cols..(lo + 1) * cols].swap_with_slice(&mut second[..cols]);
}

impl<const L: usize> core::fmt::Debug for Matrix<L> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "Matrix {}x{} mod 0x{} [",
            self.rows,
            self.cols,
            self.ctx.modulus().to_hex()
        )?;
        for i in 0..self.rows {
            write!(f, "  [")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self.get(i, j).to_uint())?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

/// Inner product of two equal-length field vectors.
pub fn dot<const L: usize>(a: &[Fp<L>], b: &[Fp<L>]) -> Fp<L> {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    assert!(!a.is_empty(), "empty dot product");
    let ctx = a[0].ctx();
    let mont = ctx.mont();
    let mut acc = Uint::ZERO;
    for (x, y) in a.iter().zip(b) {
        acc = mont.add(&acc, &mont.mont_mul(x.mont_raw(), y.mont_raw()));
    }
    ctx.from_mont_raw(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uint::U128;
    use rand::{Rng, SeedableRng};

    fn field() -> Arc<FpCtx<2>> {
        FpCtx::new(U128::from_u128((1u128 << 80) - 65))
    }

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    fn random_matrix<R: Rng>(
        ctx: &Arc<FpCtx<2>>,
        rng: &mut R,
        rows: usize,
        cols: usize,
    ) -> Matrix<2> {
        Matrix::from_fn(ctx, rows, cols, |_, _| ctx.random(rng))
    }

    #[test]
    fn identity_has_full_rank() {
        let f = field();
        for n in [1, 2, 5, 17] {
            assert_eq!(Matrix::identity(&f, n).rank(), n);
        }
    }

    #[test]
    fn zero_matrix_has_rank_zero_and_full_null_space() {
        let f = field();
        let m = Matrix::zero(&f, 3, 5);
        assert_eq!(m.rank(), 0);
        assert_eq!(m.null_space_basis().len(), 5);
    }

    #[test]
    fn rref_solves_linear_dependence() {
        let f = field();
        // Row 2 = 2 * row 0 + row 1 → rank 2.
        let r0: Vec<_> = [1u64, 2, 3].iter().map(|&x| f.from_u64(x)).collect();
        let r1: Vec<_> = [4u64, 5, 6].iter().map(|&x| f.from_u64(x)).collect();
        let r2: Vec<_> = [6u64, 9, 12].iter().map(|&x| f.from_u64(x)).collect();
        let m = Matrix::from_rows(&f, &[r0, r1, r2]);
        assert_eq!(m.rank(), 2);
        assert_eq!(m.null_space_basis().len(), 1);
    }

    #[test]
    fn null_space_vectors_annihilate() {
        let f = field();
        let mut r = rng();
        for _ in 0..20 {
            let rows = 1 + r.gen::<usize>() % 8;
            let cols = rows + 1 + r.gen::<usize>() % 4;
            let m = random_matrix(&f, &mut r, rows, cols);
            for v in m.null_space_basis() {
                let prod = m.mul_vec(&v);
                assert!(prod.iter().all(Fp::is_zero), "basis vector not in kernel");
            }
            let rv = m.random_null_vector(&mut r);
            assert!(
                rv.iter().any(|x| !x.is_zero()),
                "wide matrix ⇒ nontrivial kernel"
            );
            assert!(m.mul_vec(&rv).iter().all(Fp::is_zero));
        }
    }

    #[test]
    fn rank_nullity_theorem() {
        let f = field();
        let mut r = rng();
        for _ in 0..20 {
            let rows = 1 + r.gen::<usize>() % 10;
            let cols = 1 + r.gen::<usize>() % 10;
            let m = random_matrix(&f, &mut r, rows, cols);
            assert_eq!(m.rank() + m.null_space_basis().len(), cols);
        }
    }

    #[test]
    fn random_square_matrices_are_usually_invertible() {
        let f = field();
        let mut r = rng();
        let mut full = 0;
        for _ in 0..30 {
            if random_matrix(&f, &mut r, 6, 6).rank() == 6 {
                full += 1;
            }
        }
        // Probability of a random singular matrix over an 80-bit field is
        // ≈ 2^-80 per trial.
        assert_eq!(full, 30);
    }

    #[test]
    fn mat_mul_identity() {
        let f = field();
        let mut r = rng();
        let m = random_matrix(&f, &mut r, 4, 4);
        let id = Matrix::identity(&f, 4);
        let prod = m.mul_mat(&id);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(prod.get(i, j), m.get(i, j));
            }
        }
    }

    #[test]
    fn rref_of_rref_is_stable() {
        let f = field();
        let mut r = rng();
        let mut m = random_matrix(&f, &mut r, 5, 7);
        let p1 = m.row_reduce();
        let mut m2 = m.clone();
        let p2 = m2.row_reduce();
        assert_eq!(p1, p2);
        for i in 0..5 {
            for j in 0..7 {
                assert_eq!(m.get(i, j), m2.get(i, j));
            }
        }
    }

    #[test]
    fn dot_product() {
        let f = field();
        let a: Vec<_> = [1u64, 2, 3].iter().map(|&x| f.from_u64(x)).collect();
        let b: Vec<_> = [4u64, 5, 6].iter().map(|&x| f.from_u64(x)).collect();
        assert_eq!(dot(&a, &b), f.from_u64(32));
    }

    #[test]
    fn bgkm_shape_always_has_kernel() {
        // The BGKM invariant: rows ≤ N, cols = N + 1 ⇒ nontrivial kernel.
        let f = field();
        let mut r = rng();
        for n in [1usize, 3, 8, 16] {
            let m = random_matrix(&f, &mut r, n, n + 1);
            let v = m.random_null_vector(&mut r);
            assert!(v.iter().any(|x| !x.is_zero()));
            assert!(m.mul_vec(&v).iter().all(Fp::is_zero));
        }
    }
}
