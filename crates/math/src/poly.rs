//! Polynomials and closed-form low-degree root formulas.
//!
//! The quadratic bathtub model (paper Eq. 1–3) is a polynomial hazard: its
//! recovery time (Eq. 2) is a quadratic root, its area (Eq. 3) a cubic
//! antiderivative. This module provides a small dense polynomial type plus
//! a numerically careful quadratic solver.

use crate::MathError;

/// A dense univariate polynomial with coefficients in ascending order:
/// `coeffs[k]` multiplies `x^k`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Polynomial {
    coeffs: Vec<f64>,
}

impl Polynomial {
    /// Creates a polynomial from ascending coefficients, trimming trailing
    /// zeros so that `degree` is meaningful.
    ///
    /// # Examples
    ///
    /// ```
    /// use resilience_math::poly::Polynomial;
    /// let p = Polynomial::new(vec![1.0, 0.0, 3.0]); // 1 + 3x²
    /// assert_eq!(p.degree(), 2);
    /// ```
    #[must_use]
    pub fn new(mut coeffs: Vec<f64>) -> Self {
        while coeffs.len() > 1 && coeffs.last() == Some(&0.0) {
            coeffs.pop();
        }
        if coeffs.is_empty() {
            coeffs.push(0.0);
        }
        Polynomial { coeffs }
    }

    /// The zero polynomial.
    #[must_use]
    pub fn zero() -> Self {
        Polynomial { coeffs: vec![0.0] }
    }

    /// Degree of the polynomial (0 for constants, including zero).
    #[must_use]
    pub fn degree(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// Ascending coefficient slice.
    #[must_use]
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Evaluates the polynomial at `x` by Horner's scheme.
    ///
    /// # Examples
    ///
    /// ```
    /// use resilience_math::poly::Polynomial;
    /// let p = Polynomial::new(vec![2.0, -3.0, 1.0]); // (x−1)(x−2)
    /// assert_eq!(p.eval(1.0), 0.0);
    /// assert_eq!(p.eval(3.0), 2.0);
    /// ```
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        self.coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
    }

    /// Formal derivative.
    ///
    /// # Examples
    ///
    /// ```
    /// use resilience_math::poly::Polynomial;
    /// let p = Polynomial::new(vec![0.0, 0.0, 1.0]); // x²
    /// assert_eq!(p.derivative().coeffs(), &[0.0, 2.0]);
    /// ```
    #[must_use]
    pub fn derivative(&self) -> Polynomial {
        if self.coeffs.len() <= 1 {
            return Polynomial::zero();
        }
        let coeffs = self
            .coeffs
            .iter()
            .enumerate()
            .skip(1)
            .map(|(k, &c)| k as f64 * c)
            .collect();
        Polynomial::new(coeffs)
    }

    /// Antiderivative with integration constant `c0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use resilience_math::poly::Polynomial;
    /// let p = Polynomial::new(vec![0.0, 2.0]); // 2x
    /// let int = p.antiderivative(1.0);          // x² + 1
    /// assert_eq!(int.eval(3.0), 10.0);
    /// ```
    #[must_use]
    pub fn antiderivative(&self, c0: f64) -> Polynomial {
        let mut coeffs = Vec::with_capacity(self.coeffs.len() + 1);
        coeffs.push(c0);
        for (k, &c) in self.coeffs.iter().enumerate() {
            coeffs.push(c / (k as f64 + 1.0));
        }
        Polynomial::new(coeffs)
    }

    /// Definite integral over `[a, b]` via the antiderivative.
    #[must_use]
    pub fn integral(&self, a: f64, b: f64) -> f64 {
        let anti = self.antiderivative(0.0);
        anti.eval(b) - anti.eval(a)
    }

    /// Cauchy's bound on the real roots: `1 + max |cₖ/c_d|` over the
    /// coefficients below the leading one, so every root lies in
    /// `[−bound, bound]`. `0` for a constant, which has no isolated root.
    #[must_use]
    pub fn root_bound(&self) -> f64 {
        let Some((&lead, rest)) = self.coeffs.split_last().filter(|_| self.degree() > 0) else {
            return 0.0;
        };
        1.0 + rest.iter().fold(0.0_f64, |m, c| m.max((c / lead).abs()))
    }

    /// The points of `[lo, hi]` (`0 ≤ lo < hi`) where the polynomial
    /// changes sign, ascending: its real roots there of odd multiplicity.
    /// Empty for a constant or an empty range.
    ///
    /// Between two sign changes of its derivative (found the same way,
    /// down to a line) the polynomial is monotone, so each such piece
    /// holds at most one root. A Newton step that stays inside the
    /// piece's bracket, else the midpoint of the bracket's bits, finds it:
    /// non-negative floats order as their bits, so a bracket spanning many
    /// binades halves in scale, and no root takes more than 128 steps.
    ///
    /// # Examples
    ///
    /// ```
    /// use resilience_math::poly::Polynomial;
    /// // (x − 1)(x − 2)(x − 1e6)
    /// let p = Polynomial::new(vec![-2e6, 3e6 + 2.0, -3.0 - 1e6, 1.0]);
    /// let roots = p.sign_changes(0.0, p.root_bound());
    /// assert_eq!(roots.len(), 3);
    /// for (r, want) in roots.iter().zip([1.0, 2.0, 1e6]) {
    ///     assert!((r - want).abs() <= 1e-12 * want);
    /// }
    /// // A double root does not change sign.
    /// assert!(Polynomial::new(vec![1.0, -2.0, 1.0]).sign_changes(0.0, 3.0).is_empty());
    /// ```
    #[must_use]
    pub fn sign_changes(&self, lo: f64, hi: f64) -> Vec<f64> {
        if self.degree() == 0 || !(0.0 <= lo && lo < hi) {
            return Vec::new();
        }
        let slope = self.derivative();
        let mut roots = Vec::new();
        let mut a = lo;
        for b in slope.sign_changes(lo, hi).into_iter().chain([hi]) {
            let negative = self.eval(a) < 0.0;
            if a < b && (self.eval(b) < 0.0) != negative {
                roots.push(self.root_in(&slope, a, b, negative));
            }
            a = b;
        }
        roots
    }

    /// The one root in `[a, b]` (`0 ≤ a < b`), where the polynomial changes
    /// sign once and its derivative `slope` keeps its sign; see
    /// [`Polynomial::sign_changes`].
    fn root_in(&self, slope: &Polynomial, mut a: f64, mut b: f64, negative_at_a: bool) -> f64 {
        let midpoint =
            |a: f64, b: f64| f64::from_bits(a.to_bits() + (b.to_bits() - a.to_bits()) / 2);
        let mut x = midpoint(a, b);
        // Bisection alone would take at most 63 steps.
        for _ in 0..128 {
            let f = self.eval(x);
            if f == 0.0 {
                break;
            }
            if (f < 0.0) == negative_at_a {
                a = x;
            } else {
                b = x;
            }
            if b.to_bits() - a.to_bits() <= 1 {
                return a;
            }
            let step = f / slope.eval(x);
            if x - step > a && x - step < b {
                x -= step;
                if step.abs() <= 4.0 * f64::EPSILON * x {
                    break;
                }
            } else {
                x = midpoint(a, b);
            }
        }
        x
    }
}

impl std::fmt::Display for Polynomial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (k, &c) in self.coeffs.iter().enumerate() {
            if c == 0.0 && self.degree() > 0 {
                continue;
            }
            if !first {
                write!(f, " {} ", if c < 0.0 { "-" } else { "+" })?;
            } else if c < 0.0 {
                write!(f, "-")?;
            }
            let mag = c.abs();
            match k {
                0 => write!(f, "{mag}")?,
                1 => write!(f, "{mag}·t")?,
                _ => write!(f, "{mag}·t^{k}")?,
            }
            first = false;
        }
        if first {
            write!(f, "0")?;
        }
        Ok(())
    }
}

/// Real roots of `a x² + b x + c = 0`, in ascending order.
///
/// Uses the numerically stable form that avoids catastrophic cancellation
/// when `b² ≫ 4ac`. A linear equation (`a == 0`) yields at most one root.
///
/// # Errors
///
/// Returns [`MathError::Domain`] when a coefficient is not finite, when all
/// coefficients are zero (the identically-zero equation has no meaningful
/// root set), or when `b² − 4ac` overflows so that a root comes out NaN.
///
/// # Examples
///
/// ```
/// use resilience_math::poly::quadratic_roots;
/// let roots = quadratic_roots(1.0, -3.0, 2.0)?;
/// assert_eq!(roots, vec![1.0, 2.0]);
/// # Ok::<(), resilience_math::MathError>(())
/// ```
pub fn quadratic_roots(a: f64, b: f64, c: f64) -> Result<Vec<f64>, MathError> {
    if !(a.is_finite() && b.is_finite() && c.is_finite()) {
        return Err(MathError::domain(
            "quadratic_roots",
            format!("coefficients must be finite, got a={a}, b={b}, c={c}"),
        ));
    }
    if a == 0.0 {
        if b == 0.0 {
            if c == 0.0 {
                return Err(MathError::domain(
                    "quadratic_roots",
                    "all coefficients are zero",
                ));
            }
            return Ok(vec![]);
        }
        return Ok(vec![-c / b]);
    }
    let disc = b * b - 4.0 * a * c;
    if disc < 0.0 {
        return Ok(vec![]);
    }
    if disc == 0.0 {
        return Ok(vec![-b / (2.0 * a)]);
    }
    let sqrt_disc = disc.sqrt();
    // q = −(b + sign(b)·√disc)/2 avoids subtracting nearly equal numbers.
    let q = -0.5 * (b + b.signum() * sqrt_disc);
    let (r1, r2) = if b == 0.0 {
        let r = (disc.sqrt()) / (2.0 * a);
        (-r, r)
    } else {
        (q / a, c / q)
    };
    if r1.is_nan() || r2.is_nan() {
        return Err(MathError::domain(
            "quadratic_roots",
            format!("b² − 4ac overflows for a={a}, b={b}, c={c}"),
        ));
    }
    let mut roots = vec![r1, r2];
    roots.sort_by(|x, y| x.partial_cmp(y).expect("roots are not NaN"));
    Ok(roots)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_changes_isolates_every_simple_root() {
        // (x − 0.5)(x − 1)(x − 3)(x − 40), from its roots.
        let mut p = Polynomial::new(vec![1.0]);
        for r in [0.5, 1.0, 3.0, 40.0] {
            let c = p.coeffs();
            let mut next = vec![0.0; c.len() + 1];
            for (k, &ck) in c.iter().enumerate() {
                next[k] -= r * ck;
                next[k + 1] += ck;
            }
            p = Polynomial::new(next);
        }
        let roots = p.sign_changes(0.0, p.root_bound());
        assert_eq!(roots.len(), 4);
        for (got, want) in roots.iter().zip([0.5, 1.0, 3.0, 40.0]) {
            assert!((got - want).abs() <= 1e-13 * want, "{got} vs {want}");
        }
        // Only the roots inside the range; none for x² + 1 or a constant.
        assert_eq!(p.sign_changes(2.0, 10.0).len(), 1);
        assert!(Polynomial::new(vec![1.0, 0.0, 1.0])
            .sign_changes(0.0, 10.0)
            .is_empty());
        assert!(Polynomial::new(vec![2.0])
            .sign_changes(0.0, 10.0)
            .is_empty());
        assert_eq!(Polynomial::new(vec![2.0]).root_bound(), 0.0);
        assert!(p.sign_changes(-1.0, 10.0).is_empty());
    }
    use crate::approx_eq;

    #[test]
    fn polynomial_trims_trailing_zeros() {
        let p = Polynomial::new(vec![1.0, 2.0, 0.0, 0.0]);
        assert_eq!(p.degree(), 1);
        assert_eq!(p.coeffs(), &[1.0, 2.0]);
    }

    #[test]
    fn polynomial_zero_is_degree_zero() {
        assert_eq!(Polynomial::zero().degree(), 0);
        assert_eq!(Polynomial::new(vec![]).degree(), 0);
    }

    #[test]
    fn horner_matches_naive() {
        let p = Polynomial::new(vec![1.5, -2.0, 0.5, 3.0]);
        for &x in &[-2.0, -0.5, 0.0, 1.0, 2.5] {
            let naive = 1.5 - 2.0 * x + 0.5 * x * x + 3.0 * x * x * x;
            assert!(approx_eq(p.eval(x), naive, 1e-12, 1e-12));
        }
    }

    #[test]
    fn derivative_of_constant_is_zero() {
        let p = Polynomial::new(vec![42.0]);
        assert_eq!(p.derivative(), Polynomial::zero());
    }

    #[test]
    fn derivative_antiderivative_roundtrip() {
        let p = Polynomial::new(vec![1.0, 2.0, 3.0]);
        let back = p.antiderivative(7.0).derivative();
        assert_eq!(back, p);
    }

    #[test]
    fn integral_matches_quadrature() {
        // ∫₀² (α + βt + γt²) dt = αt + βt²/2 + γt³/3 — the paper's Eq. 3.
        let (alpha, beta, gamma) = (0.05, -0.01, 0.002);
        let p = Polynomial::new(vec![alpha, beta, gamma]);
        let exact = alpha * 2.0 + beta * 4.0 / 2.0 + gamma * 8.0 / 3.0;
        assert!(approx_eq(p.integral(0.0, 2.0), exact, 1e-14, 1e-13));
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(Polynomial::zero().to_string(), "0");
        let p = Polynomial::new(vec![1.0, -2.0, 3.0]);
        let s = p.to_string();
        assert!(s.contains("t^2"));
    }

    #[test]
    fn quadratic_two_roots() {
        let roots = quadratic_roots(2.0, -10.0, 12.0).unwrap();
        assert_eq!(roots.len(), 2);
        assert!(approx_eq(roots[0], 2.0, 1e-12, 0.0));
        assert!(approx_eq(roots[1], 3.0, 1e-12, 0.0));
    }

    #[test]
    fn quadratic_no_real_roots() {
        assert!(quadratic_roots(1.0, 0.0, 1.0).unwrap().is_empty());
    }

    #[test]
    fn quadratic_double_root() {
        let roots = quadratic_roots(1.0, -2.0, 1.0).unwrap();
        assert_eq!(roots, vec![1.0]);
    }

    #[test]
    fn quadratic_linear_fallback() {
        assert_eq!(quadratic_roots(0.0, 2.0, -4.0).unwrap(), vec![2.0]);
        assert!(quadratic_roots(0.0, 0.0, 3.0).unwrap().is_empty());
        assert!(quadratic_roots(0.0, 0.0, 0.0).is_err());
    }

    #[test]
    fn quadratic_cancellation_stability() {
        // x² − 1e8·x + 1 = 0 has roots ~1e8 and ~1e-8; the naive formula
        // destroys the small one.
        let roots = quadratic_roots(1.0, -1e8, 1.0).unwrap();
        assert_eq!(roots.len(), 2);
        assert!(approx_eq(roots[0], 1e-8, 0.0, 1e-9));
        assert!(approx_eq(roots[1], 1e8, 0.0, 1e-12));
    }

    #[test]
    fn quadratic_rejects_non_finite_coefficients() {
        for (a, b, c) in [
            (f64::NAN, 1.0, 1.0),
            (1.0, 1.0, f64::NAN),
            (f64::INFINITY, 1.0, -1.0),
        ] {
            assert!(
                matches!(quadratic_roots(a, b, c), Err(MathError::Domain { .. })),
                "({a}, {b}, {c})"
            );
        }
    }

    #[test]
    fn quadratic_rejects_an_overflowing_discriminant() {
        // (1e300, 1e300, 1e300): b² and 4ac both overflow to +∞, so b² − 4ac
        // is NaN. (f64::MAX, 0, −1): b² − 4ac is +∞ and √∞/(2a) is ∞/∞.
        for (a, b, c) in [(1e300, 1e300, 1e300), (f64::MAX, 0.0, -1.0)] {
            assert!(
                matches!(quadratic_roots(a, b, c), Err(MathError::Domain { .. })),
                "({a}, {b}, {c})"
            );
        }
    }
}
