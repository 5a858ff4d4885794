//! Order statistics over timing samples and the pairwise comparison rule.
//!
//! Quantiles follow Python's `statistics.quantiles(data, n, method=
//! "exclusive")`, the estimator the benchmark's run-to-run spreads are
//! judged with, so the numbers printed here and the ones a reviewer
//! recomputes from a set of runs agree.

/// The `i`-th of the `n`-quantiles of `samples` (`1 <= i < n`) under the
/// exclusive method: position `i·(len+1)/n`, linearly interpolated between
/// neighbours. Like Python, positions outside the data extrapolate from
/// the first or last pair. A single sample is every quantile. Returns
/// `None` for an empty input or an invalid `(i, n)`.
#[must_use]
pub fn quantile(samples: &[f64], i: usize, n: usize) -> Option<f64> {
    if samples.is_empty() || i == 0 || i >= n {
        return None;
    }
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    if len == 1 {
        return Some(data[0]);
    }
    let m = len + 1;
    let j = (i * m / n).clamp(1, len - 1);
    let delta = (i * m) as f64 - (j * n) as f64;
    let n = n as f64;
    Some((data[j - 1] * (n - delta) + data[j] * delta) / n)
}

/// Median (the 1st of 2 quantiles): the middle sample for odd counts, the
/// mean of the middle pair for even counts.
#[must_use]
pub fn p50(samples: &[f64]) -> Option<f64> {
    quantile(samples, 1, 2)
}

/// 90th percentile (the 9th of 10 quantiles).
#[must_use]
pub fn p90(samples: &[f64]) -> Option<f64> {
    quantile(samples, 9, 10)
}

/// First and third quartiles.
#[must_use]
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    Some((quantile(samples, 1, 4)?, quantile(samples, 3, 4)?))
}

/// Whether a metric improves upward or downward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (latency, set-up time, memory).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

/// Share of alternating parent/change pairs the change wins. Pair `k` is
/// `(parent[k], change[k])`; a tie counts for neither side but still
/// counts as a pair. Returns `None` when the sides differ in length or
/// there are no pairs.
#[must_use]
pub fn pair_win_rate(parent: &[f64], change: &[f64], better: Better) -> Option<f64> {
    if parent.is_empty() || parent.len() != change.len() {
        return None;
    }
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| match better {
            Better::Lower => c < p,
            Better::Higher => c > p,
        })
        .count();
    Some(wins as f64 / parent.len() as f64)
}

/// The comparison rule for claiming a gain: the change wins at least nine
/// tenths of the pairs, and its median beats the parent's median by more
/// than the parent's own interquartile range.
#[must_use]
pub fn gain_holds(parent: &[f64], change: &[f64], better: Better) -> bool {
    let (Some(rate), Some(mp), Some(mc), Some((q1, q3))) = (
        pair_win_rate(parent, change, better),
        p50(parent),
        p50(change),
        quartiles(parent),
    ) else {
        return false;
    };
    let gain = match better {
        Better::Lower => mp - mc,
        Better::Higher => mc - mp,
    };
    rate >= 0.9 && gain > q3 - q1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn empty_input_has_no_statistics() {
        assert_eq!(p50(&[]), None);
        assert_eq!(p90(&[]), None);
        assert_eq!(quartiles(&[]), None);
        assert_eq!(quantile(&[1.0], 0, 4), None);
        assert_eq!(quantile(&[1.0], 4, 4), None);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        assert_eq!(p50(&[7.0]), Some(7.0));
        assert_eq!(p90(&[7.0]), Some(7.0));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(p50(&[30.0, 10.0, 20.0]), Some(20.0));
        assert_eq!(p50(&[40.0, 10.0, 30.0, 20.0]), Some(25.0));
        assert_eq!(p50(&[2.0, 1.0]), Some(1.5));
    }

    #[test]
    fn exactly_ten_of_a_hundred_samples_lie_above_p90() {
        let data = one_to(100);
        let p = p90(&data).unwrap();
        assert!((p - 90.9).abs() < 1e-12, "{p}");
        assert_eq!(data.iter().filter(|&&v| v > p).count(), 10);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let (q1, q3) = quartiles(&one_to(10)).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
    }

    #[test]
    fn win_rate_counts_ties_for_neither_side() {
        let parent = [10.0, 10.0, 10.0, 10.0];
        let change = [9.0, 10.0, 11.0, 8.0];
        assert_eq!(pair_win_rate(&parent, &change, Better::Lower), Some(0.5));
        assert_eq!(pair_win_rate(&parent, &change, Better::Higher), Some(0.25));
        assert_eq!(pair_win_rate(&parent, &[1.0], Better::Lower), None);
        assert_eq!(pair_win_rate(&[], &[], Better::Lower), None);
    }

    #[test]
    fn a_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_parent_iqr() {
        let parent = one_to(10).iter().map(|v| 100.0 + v).collect::<Vec<_>>();
        // Every pair won, median 20 lower: IQR of the parent is 5.5.
        let fast: Vec<f64> = parent.iter().map(|v| v - 20.0).collect();
        assert!(gain_holds(&parent, &fast, Better::Lower));
        // Every pair won but by 1: inside the parent's spread.
        let barely: Vec<f64> = parent.iter().map(|v| v - 1.0).collect();
        assert!(!gain_holds(&parent, &barely, Better::Lower));
        // A large gap with only eight wins in ten is not a claim.
        let mut mixed = fast.clone();
        mixed[0] = 200.0;
        mixed[1] = 200.0;
        assert!(!gain_holds(&parent, &mixed, Better::Lower));
    }
}
