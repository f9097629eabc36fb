//! Order statistics used by every workload.

/// Fewest samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the two middle values for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// A percentile as reported: the fraction actually used and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile reported, as a fraction in `(0, 1)`.
    pub q: f64,
    /// The nearest-rank sample at `q`.
    pub value: f64,
}

/// The percentile rule: report the highest percentile, at most `target`,
/// that leaves at least [`TAIL_SAMPLES`] samples beyond it.
///
/// With `n` samples, the nearest-rank percentile `q` is the sample of rank
/// `ceil(q·n)`, and `n − ceil(q·n)` samples lie beyond it. So `target` is
/// kept when `n·(1 − target) ≥ 10` and otherwise lowered to `(n − 10)/n`.
/// `None` when `n ≤ 10`: no sample has ten others beyond it.
pub fn percentile_rule(values: &[f64], target: f64) -> Option<Percentile> {
    let n = values.len();
    if n <= TAIL_SAMPLES {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let max_rank = n - TAIL_SAMPLES;
    let rank = ((target * n as f64).ceil() as usize).clamp(1, max_rank);
    Some(Percentile {
        q: (rank as f64 / n as f64).min(target),
        value: v[rank - 1],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the rule must sort.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn p99_is_kept_with_a_thousand_samples() {
        let p = percentile_rule(&ramp(1000), 0.99).unwrap();
        assert_eq!(p.q, 0.99);
        assert_eq!(p.value, 990.0);
        // Exactly ten samples (991..=1000) lie beyond it.
    }

    #[test]
    fn p99_drops_to_the_highest_percentile_with_ten_beyond() {
        let p = percentile_rule(&ramp(200), 0.99).unwrap();
        assert_eq!(p.value, 190.0);
        assert!((p.q - 0.95).abs() < 1e-12);
        let p = percentile_rule(&ramp(11), 0.99).unwrap();
        assert_eq!(p.value, 1.0);
    }

    #[test]
    fn lower_targets_are_not_raised() {
        let p = percentile_rule(&ramp(100), 0.5).unwrap();
        assert_eq!(p.q, 0.5);
        assert_eq!(p.value, 50.0);
    }

    #[test]
    fn ten_samples_or_fewer_have_no_tail() {
        assert_eq!(percentile_rule(&ramp(10), 0.5), None);
        assert_eq!(percentile_rule(&[], 0.99), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
