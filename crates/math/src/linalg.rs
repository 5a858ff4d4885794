//! Small dense linear algebra: row-major matrices with an LU solver, and
//! a Householder QR least-squares solve.
//!
//! The Levenberg–Marquardt optimizer in `resilience-optim` solves the
//! normal equations `(JᵀJ + λ diag(JᵀJ)) δ = Jᵀr` at every step; the
//! resilience models have 2–5 parameters, so a simple dense implementation
//! with partial pivoting is both sufficient and easy to audit. The fits
//! that solve linear coefficients exactly go through [`least_squares_qr`],
//! or through its two halves, [`qr_factor`] and [`qr_solve`], where many
//! right-hand sides share one design.

use crate::MathError;

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::Shape`] when `data.len() != rows * cols`.
    ///
    /// # Examples
    ///
    /// ```
    /// use resilience_math::linalg::Matrix;
    /// let m = Matrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0])?;
    /// assert_eq!(m[(1, 0)], 3.0);
    /// # Ok::<(), resilience_math::MathError>(())
    /// ```
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, MathError> {
        if rows == 0 || cols == 0 || data.len() != rows * cols {
            return Err(MathError::shape(
                "Matrix::from_rows",
                format!(
                    "{rows}x{cols} needs {} entries, got {}",
                    rows * cols,
                    data.len()
                ),
            ));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self · other`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::Shape`] when the inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, MathError> {
        if self.cols != other.rows {
            return Err(MathError::shape(
                "Matrix::matmul",
                format!(
                    "{}x{} · {}x{} inner dimensions disagree",
                    self.rows, self.cols, other.rows, other.cols
                ),
            ));
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::Shape`] when `v.len() != cols`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, MathError> {
        if v.len() != self.cols {
            return Err(MathError::shape(
                "Matrix::matvec",
                format!(
                    "matrix has {} cols but vector has {} entries",
                    self.cols,
                    v.len()
                ),
            ));
        }
        let mut out = vec![0.0; self.rows];
        for i in 0..self.rows {
            let mut acc = 0.0;
            for j in 0..self.cols {
                acc += self[(i, j)] * v[j];
            }
            out[i] = acc;
        }
        Ok(out)
    }

    /// Gram matrix `AᵀA` (always square, symmetric positive semidefinite).
    #[must_use]
    pub fn gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols, self.cols);
        for j in 0..self.cols {
            for k in j..self.cols {
                let mut acc = 0.0;
                for i in 0..self.rows {
                    acc += self[(i, j)] * self[(i, k)];
                }
                g[(j, k)] = acc;
                g[(k, j)] = acc;
            }
        }
        g
    }

    /// `Aᵀ v` without forming the transpose.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::Shape`] when `v.len() != rows`.
    pub fn transpose_matvec(&self, v: &[f64]) -> Result<Vec<f64>, MathError> {
        if v.len() != self.rows {
            return Err(MathError::shape(
                "Matrix::transpose_matvec",
                format!(
                    "matrix has {} rows but vector has {} entries",
                    self.rows,
                    v.len()
                ),
            ));
        }
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[j] += self[(i, j)] * v[i];
            }
        }
        Ok(out)
    }

    /// Solves `self · x = b` by LU decomposition with partial pivoting.
    ///
    /// # Errors
    ///
    /// * [`MathError::Shape`] when the matrix is not square or `b` has the
    ///   wrong length.
    /// * [`MathError::Singular`] when a pivot underflows.
    ///
    /// # Examples
    ///
    /// ```
    /// use resilience_math::linalg::Matrix;
    /// let a = Matrix::from_rows(2, 2, vec![2.0, 1.0, 1.0, 3.0])?;
    /// let x = a.solve(&[3.0, 5.0])?;
    /// assert!((x[0] - 0.8).abs() < 1e-12);
    /// assert!((x[1] - 1.4).abs() < 1e-12);
    /// # Ok::<(), resilience_math::MathError>(())
    /// ```
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, MathError> {
        if self.rows != self.cols {
            return Err(MathError::shape(
                "Matrix::solve",
                format!("matrix is {}x{}, not square", self.rows, self.cols),
            ));
        }
        if b.len() != self.rows {
            return Err(MathError::shape(
                "Matrix::solve",
                format!(
                    "rhs has {} entries for an {}-dim system",
                    b.len(),
                    self.rows
                ),
            ));
        }
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x: Vec<f64> = b.to_vec();
        // Forward elimination with partial pivoting.
        for col in 0..n {
            let mut pivot_row = col;
            let mut pivot_val = a[col * n + col].abs();
            for r in (col + 1)..n {
                let v = a[r * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-300 {
                return Err(MathError::Singular {
                    what: "Matrix::solve",
                    n,
                });
            }
            if pivot_row != col {
                for j in 0..n {
                    a.swap(col * n + j, pivot_row * n + j);
                }
                x.swap(col, pivot_row);
            }
            let pivot = a[col * n + col];
            for r in (col + 1)..n {
                let factor = a[r * n + col] / pivot;
                if factor == 0.0 {
                    continue;
                }
                for j in col..n {
                    a[r * n + j] -= factor * a[col * n + j];
                }
                x[r] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut acc = x[col];
            for j in (col + 1)..n {
                acc -= a[col * n + j] * x[j];
            }
            x[col] = acc / a[col * n + col];
        }
        Ok(x)
    }

    /// Returns `true` if every entry is finite.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

/// Euclidean norm of a vector.
#[must_use]
pub fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Dot product of two equal-length vectors.
///
/// # Panics
///
/// Panics when the slices differ in length (programmer error, not data
/// error — every call site controls both lengths).
#[must_use]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The most columns [`least_squares_qr`] solves for. The resilience models
/// have 2–5 coefficients.
const LEAST_SQUARES_MAX_COLUMNS: usize = 8;

/// Linear least squares by Householder QR: the `x` that minimizes
/// `‖b − A·x‖₂` for the `n × k` matrix `A` stored column by column in `a`
/// (column `j` is `a[j·n .. (j + 1)·n]`), where `n = b.len()`. As in
/// LAPACK's `gels`, the solution overwrites `b[..k]`; `b[k..]` holds the
/// residual rotated by `Qᵀ`, and the returned value is its sum of squares,
/// summed with compensation. `a` is overwritten with the factorization.
///
/// This is [`qr_factor`] followed by [`qr_solve`]; a design that several
/// right-hand sides share is factored once and solved for each. Returns
/// `None`, leaving `a` and `b` unspecified, where either does, and when
/// `k` exceeds 8 (it keeps `R`'s diagonal on the stack).
///
/// Householder QR is backward stable column by column and exactly
/// equivariant under power-of-two column scaling, so it needs no rescaled
/// variable to solve a monomial design `tʲ` well: unlike the normal
/// equations, it never squares the condition number. Allocates nothing.
///
/// # Examples
///
/// ```
/// use resilience_math::linalg::least_squares_qr;
/// // y = 1 + 2t at t = 0, 1, 2, plus a residual of ±0.1 around it.
/// let mut a = [1.0, 1.0, 1.0, 0.0, 1.0, 2.0];
/// let mut b = [1.1, 2.8, 5.1];
/// let sse = least_squares_qr(&mut a, &mut b, 2).unwrap();
/// assert!((b[0] - 1.0).abs() < 1e-12 && (b[1] - 2.0).abs() < 1e-12);
/// assert!((sse - 0.06).abs() < 1e-12);
/// ```
pub fn least_squares_qr(a: &mut [f64], b: &mut [f64], k: usize) -> Option<f64> {
    let mut diag = [0.0; LEAST_SQUARES_MAX_COLUMNS];
    let diag = diag.get_mut(..k)?;
    qr_factor(a, b.len(), diag)?;
    qr_solve(a, diag, b)
}

/// The Householder QR factorization of the `n × k` matrix `A` stored
/// column by column in `a` (column `j` is `a[j·n .. (j + 1)·n]`), where
/// `k = diag.len()`, in place: the half of [`least_squares_qr`] that
/// depends on `A` alone. Column `j` keeps `R`'s entries above the diagonal
/// in its rows `..j` and its reflector `v_j` in its rows `j..`, and
/// `diag[j] = R_jj`. [`qr_solve`] applies it to a right-hand side.
///
/// Returns `None`, leaving `a` and `diag` unspecified, when `k = 0`,
/// `a.len() ≠ n·k`, `n < k`, a column is not finite, or `A` is rank
/// deficient: some column keeps no more than `n·ε` of its norm once the
/// columns before it are projected out. Allocates nothing.
pub fn qr_factor(a: &mut [f64], n: usize, diag: &mut [f64]) -> Option<()> {
    let k = diag.len();
    if k == 0 || n < k || a.len() != n * k {
        return None;
    }
    for j in 0..k {
        let (done, rest) = a.split_at_mut((j + 1) * n);
        let column = &mut done[j * n..];
        let full: f64 = column.iter().map(|v| v * v).sum();
        let below: f64 = column[j..].iter().map(|v| v * v).sum();
        let (full, below) = (full.sqrt(), below.sqrt());
        if !(below > n as f64 * f64::EPSILON * full) || !full.is_finite() {
            return None;
        }
        // The reflector `v = column[j..] − α·e₁`, with `α` of the opposite
        // sign to `column[j]` so that forming `v` cancels nothing.
        let alpha = if column[j] < 0.0 { below } else { -below };
        column[j] -= alpha;
        let v = &column[j..];
        for later in rest.chunks_exact_mut(n) {
            reflect(v, alpha, &mut later[j..]);
        }
        diag[j] = alpha;
    }
    Some(())
}

/// The least-squares solve of [`least_squares_qr`] for the right-hand
/// side `b` (`n = b.len()`), over the factorization [`qr_factor`] left in
/// `a` and `diag`: the solution overwrites `b[..k]`, `b[k..]` holds the
/// residual rotated by `Qᵀ`, and the returned value is its sum of squares,
/// summed with compensation. The factorization is only read, so any number
/// of right-hand sides can share it.
///
/// Returns `None`, leaving `b` unspecified, when the shapes disagree (as
/// in [`qr_factor`]) or a result is not finite. Allocates nothing.
pub fn qr_solve(a: &[f64], diag: &[f64], b: &mut [f64]) -> Option<f64> {
    let (n, k) = (b.len(), diag.len());
    if k == 0 || n < k || a.len() != n * k {
        return None;
    }
    for (j, &alpha) in diag.iter().enumerate() {
        reflect(&a[j * n + j..(j + 1) * n], alpha, &mut b[j..]);
    }
    for j in (0..k).rev() {
        let mut acc = b[j];
        for l in j + 1..k {
            acc -= a[l * n + j] * b[l];
        }
        b[j] = acc / diag[j];
    }
    let mut sse = crate::sum::CompensatedSum::new();
    for r in &b[k..] {
        sse.add(r * r);
    }
    let sse = sse.value();
    (sse.is_finite() && b[..k].iter().all(|v| v.is_finite())).then_some(sse)
}

/// Reflects `target` by the Householder reflector `v` whose diagonal entry
/// of `R` is `alpha`: `target −= v·(vᵀ·target)·2/‖v‖²`, where
/// `‖v‖² = −2·α·v₀`.
fn reflect(v: &[f64], alpha: f64, target: &mut [f64]) {
    let scale = -1.0 / (alpha * v[0]);
    let s = scale * v.iter().zip(target.iter()).map(|(p, q)| p * q).sum::<f64>();
    for (t, p) in target.iter_mut().zip(v) {
        *t -= s * p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn identity_solves_to_rhs() {
        let i = Matrix::identity(3);
        let x = i.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_rows_rejects_bad_shape() {
        assert!(Matrix::from_rows(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        assert!(Matrix::from_rows(0, 2, vec![]).is_err());
    }

    #[test]
    fn solve_3x3_known_system() {
        let a =
            Matrix::from_rows(3, 3, vec![4.0, -2.0, 1.0, -2.0, 4.0, -2.0, 1.0, -2.0, 4.0]).unwrap();
        let b = [11.0, -16.0, 17.0];
        let x = a.solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        for (got, want) in back.iter().zip(b) {
            assert!(approx_eq(*got, want, 1e-10, 1e-10));
        }
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the diagonal: naive elimination would fail.
        let a = Matrix::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn solve_detects_singular() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 4.0]).unwrap();
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(MathError::Singular { .. })
        ));
    }

    #[test]
    fn solve_rejects_non_square_and_bad_rhs() {
        let a = Matrix::zeros(2, 3);
        assert!(a.solve(&[1.0, 2.0]).is_err());
        let b = Matrix::identity(2);
        assert!(b.solve(&[1.0]).is_err());
    }

    #[test]
    fn matmul_shapes_and_values() {
        let a = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Matrix::from_rows(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert_eq!(c[(0, 0)], 58.0);
        assert_eq!(c[(1, 1)], 154.0);
        assert!(a.matmul(&a).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn gram_matches_explicit_product() {
        let a = Matrix::from_rows(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let g = a.gram();
        let explicit = a.transpose().matmul(&a).unwrap();
        assert_eq!(g, explicit);
    }

    #[test]
    fn transpose_matvec_matches_explicit() {
        let a = Matrix::from_rows(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let v = [1.0, 0.5, -1.0];
        let got = a.transpose_matvec(&v).unwrap();
        let want = a.transpose().matvec(&v).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn norm_and_dot() {
        assert!(approx_eq(norm2(&[3.0, 4.0]), 5.0, 1e-15, 0.0));
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_panics_on_mismatch() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn finiteness() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 4.0]).unwrap();
        assert!(a.is_finite());
        let mut b = a.clone();
        b[(0, 0)] = f64::NAN;
        assert!(!b.is_finite());
    }

    /// The QR solve agrees with the normal equations on a well-conditioned
    /// system, leaves a residual orthogonal to every column, and refuses
    /// rank-deficient, underdetermined and malformed systems.
    #[test]
    fn least_squares_qr_solves_and_refuses() {
        let ts: Vec<f64> = (0..12).map(f64::from).collect();
        let ys: Vec<f64> = ts
            .iter()
            .map(|t| 0.5 - 0.3 * t + 0.02 * t * t + (t * 1.7).sin() * 0.01)
            .collect();
        let columns = |k: usize| -> Vec<f64> {
            (0..k)
                .flat_map(|j| ts.iter().map(move |t| t.powi(j as i32)))
                .collect()
        };
        let mut a = columns(3);
        let mut b = ys.clone();
        let sse = least_squares_qr(&mut a, &mut b, 3).unwrap();
        let x = &b[..3];
        let design = Matrix::from_rows(3, ts.len(), columns(3))
            .unwrap()
            .transpose();
        let normal = design
            .gram()
            .solve(&design.transpose_matvec(&ys).unwrap())
            .unwrap();
        for (got, want) in x.iter().zip(&normal) {
            assert!(approx_eq(*got, *want, 1e-10, 1e-12), "{x:?} vs {normal:?}");
        }
        let residual: Vec<f64> = ys
            .iter()
            .zip(design.matvec(x).unwrap())
            .map(|(y, p)| y - p)
            .collect();
        assert!(approx_eq(sse, dot(&residual, &residual), 1e-12, 1e-18));
        for column in columns(3).chunks_exact(ts.len()) {
            assert!(dot(&residual, column).abs() <= 1e-12 * norm2(column));
        }

        // A repeated column, too few rows, bad lengths, non-finite input.
        let mut twice: Vec<f64> = [columns(2), columns(2)[12..].to_vec()].concat();
        assert!(least_squares_qr(&mut twice, &mut ys.clone(), 3).is_none());
        assert!(least_squares_qr(&mut [1.0, 2.0], &mut [1.0], 2).is_none());
        assert!(least_squares_qr(&mut columns(2), &mut ys.clone(), 3).is_none());
        assert!(least_squares_qr(&mut [], &mut [1.0], 0).is_none());
        let mut nan = columns(2);
        nan[5] = f64::NAN;
        assert!(least_squares_qr(&mut nan, &mut ys.clone(), 2).is_none());
        let mut zero = vec![0.0; 24];
        assert!(least_squares_qr(&mut zero, &mut ys.clone(), 2).is_none());
    }

    /// The interleaved loop `least_squares_qr` ran before its split into
    /// [`qr_factor`] and [`qr_solve`]: each reflector reflects the later
    /// columns and `b` as soon as it is formed. The reference the split
    /// must match bit for bit.
    fn interleaved_least_squares_qr(a: &mut [f64], b: &mut [f64], k: usize) -> Option<f64> {
        let n = b.len();
        if k == 0 || n < k || a.len() != n * k {
            return None;
        }
        for j in 0..k {
            let (done, rest) = a.split_at_mut((j + 1) * n);
            let column = &mut done[j * n..];
            let full: f64 = column.iter().map(|v| v * v).sum();
            let below: f64 = column[j..].iter().map(|v| v * v).sum();
            let (full, below) = (full.sqrt(), below.sqrt());
            if !(below > n as f64 * f64::EPSILON * full) || !full.is_finite() {
                return None;
            }
            let alpha = if column[j] < 0.0 { below } else { -below };
            column[j] -= alpha;
            let scale = -1.0 / (alpha * column[j]);
            let v = &column[j..];
            let reflect = |target: &mut [f64]| {
                let s = scale * v.iter().zip(target.iter()).map(|(p, q)| p * q).sum::<f64>();
                for (t, p) in target.iter_mut().zip(v) {
                    *t -= s * p;
                }
            };
            for later in rest.chunks_exact_mut(n) {
                reflect(&mut later[j..]);
            }
            reflect(&mut b[j..]);
            column[j] = alpha;
        }
        for j in (0..k).rev() {
            let mut acc = b[j];
            for l in j + 1..k {
                acc -= a[l * n + j] * b[l];
            }
            b[j] = acc / a[j * n + j];
        }
        let mut sse = crate::sum::CompensatedSum::new();
        for r in &b[k..] {
            sse.add(r * r);
        }
        let sse = sse.value();
        (sse.is_finite() && b[..k].iter().all(|v| v.is_finite())).then_some(sse)
    }

    /// A seeded stream of uniform draws in `[0, 1)` (xorshift64).
    fn uniform(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// One factorization solved for several right-hand sides equals the
    /// interleaved solve of each, bit for bit: the solution, the rotated
    /// residual and the SSE, and `None` in the same cases. Monomial
    /// designs `1, t, …, t^{k−1}` with k = 3 and 5 over seeded times,
    /// including a rank-deficient one (two distinct times) and non-finite
    /// right-hand sides; `least_squares_qr`, their composition, too.
    #[test]
    fn factored_solves_match_the_interleaved_solve_bit_for_bit() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut refused = 0;
        for (seed, k) in [(11_u64, 3_usize), (12, 5), (13, 3), (14, 5)] {
            for n in [3, 5, 24, 48, 96] {
                let mut draw = uniform(seed * 1000 + n as u64);
                let mut times: Vec<f64> = (0..n).map(|_| 48.0 * draw()).collect();
                if seed > 12 {
                    // Two distinct times: rank deficient for k ≥ 3.
                    times = (0..n).map(|i| f64::from(u8::from(i % 2 == 0))).collect();
                }
                let design: Vec<f64> = (0..k)
                    .flat_map(|j| times.iter().map(move |t| t.powi(j as i32)))
                    .collect();
                let mut factors = design.clone();
                let mut diag = vec![0.0; k];
                let factored = qr_factor(&mut factors, n, &mut diag);
                assert_eq!(
                    factored.is_some(),
                    seed <= 12 && n >= k,
                    "seed {seed}, n = {n}"
                );
                let mut rhs: Vec<Vec<f64>> = (0..4)
                    .map(|_| (0..n).map(|_| 0.9 + 0.1 * draw()).collect())
                    .collect();
                rhs[2][n / 2] = f64::NAN;
                rhs[3][0] = f64::INFINITY;
                for ys in &rhs {
                    let mut want = ys.clone();
                    let want_sse = interleaved_least_squares_qr(&mut design.clone(), &mut want, k);
                    let mut got = ys.clone();
                    let got_sse = factored.and_then(|()| qr_solve(&factors, &diag, &mut got));
                    let mut composed = ys.clone();
                    let composed_sse = least_squares_qr(&mut design.clone(), &mut composed, k);
                    let case = format!("seed {seed}, k = {k}, n = {n}");
                    assert_eq!(
                        got_sse.map(f64::to_bits),
                        want_sse.map(f64::to_bits),
                        "{case}"
                    );
                    assert_eq!(
                        composed_sse.map(f64::to_bits),
                        want_sse.map(f64::to_bits),
                        "{case}"
                    );
                    if want_sse.is_some() {
                        assert_eq!(bits(&got), bits(&want), "{case}");
                        assert_eq!(bits(&composed), bits(&want), "{case}");
                    } else {
                        refused += 1;
                    }
                }
            }
        }
        // Two non-finite right-hand sides of each of the 9 full-rank designs,
        // and all four of the 11 others.
        assert_eq!(refused, 2 * 9 + 4 * 11);
        let mut diag = [0.0; 9];
        assert!(qr_factor(&mut [1.0; 18], 2, &mut diag).is_none());
        assert!(least_squares_qr(&mut [1.0; 90], &mut [1.0; 10], 9).is_none());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let a = Matrix::identity(2);
        let _ = a[(2, 0)];
    }
}
