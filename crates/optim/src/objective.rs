//! Scalar objectives with an optional batched evaluation path.
//!
//! Nelder–Mead only ever needs `f(x)`, but two of its evaluation sites
//! are naturally *batched*: the initial simplex (`n + 1` vertices) and
//! its shrink step (`n` vertices). [`Objective::eval_batch`] lets a
//! problem evaluate all of those points in one pass over its data
//! (structure-of-arrays scratch, autovectorizable inner loops) while the
//! default keeps plain closures working unchanged.

/// A scalar objective `f(x)` to minimize.
///
/// Implemented for every `Fn(&[f64]) -> f64` closure, so existing callers
/// keep passing closures; problems that can amortize work across points
/// implement [`Objective::eval_batch`] too.
pub trait Objective {
    /// Evaluates the objective at a single point.
    fn eval(&self, x: &[f64]) -> f64;

    /// Evaluates the objective at `out.len()` points packed contiguously
    /// into `points` (point `i` occupies
    /// `points[i * n_dims .. (i + 1) * n_dims]`), writing `out[i] = f(xᵢ)`.
    ///
    /// The default loops over [`Objective::eval`]; overrides may share one
    /// pass over the underlying data but must return results bit-identical
    /// to the scalar path (the optimizers' serial/parallel determinism
    /// contract depends on it).
    ///
    /// # Panics
    ///
    /// Panics when `points.len() != n_dims * out.len()`.
    fn eval_batch(&self, points: &[f64], n_dims: usize, out: &mut [f64]) {
        assert_eq!(
            points.len(),
            n_dims * out.len(),
            "eval_batch requires points.len() == n_dims * out.len()"
        );
        for (o, x) in out.iter_mut().zip(points.chunks_exact(n_dims)) {
            *o = self.eval(x);
        }
    }
}

impl<F: Fn(&[f64]) -> f64> Objective for F {
    fn eval(&self, x: &[f64]) -> f64 {
        self(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closures_are_objectives() {
        let f = |x: &[f64]| x[0] * x[0] + x[1];
        assert_eq!(f.eval(&[2.0, 1.0]), 5.0);
    }

    #[test]
    fn default_batch_matches_scalar() {
        let f = |x: &[f64]| x.iter().sum::<f64>();
        let points = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut out = [0.0; 3];
        f.eval_batch(&points, 2, &mut out);
        assert_eq!(out, [3.0, 7.0, 11.0]);
    }

    #[test]
    #[should_panic(expected = "eval_batch requires")]
    fn batch_rejects_ragged_input() {
        let f = |x: &[f64]| x[0];
        let mut out = [0.0; 2];
        f.eval_batch(&[1.0, 2.0, 3.0], 2, &mut out);
    }
}
