//! Percentiles, quartiles and the sample-count rule for reported tails.

/// Nearest-rank percentile (`q` in `0..=1`) of `samples`; `None` when
/// there are no samples. The input need not be sorted.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Samples strictly beyond the nearest-rank percentile `q` of `n`
/// samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// Whether `n` samples leave at least `min_tail` samples beyond the
/// percentile `q` — the condition for reporting that percentile at all.
pub fn tail_is_supported(n: usize, q: f64, min_tail: usize) -> bool {
    samples_beyond(n, q) >= min_tail
}

/// Quartiles `[q1, q2, q3]` by the same "exclusive" method as Python's
/// `statistics.quantiles(values, n=4)`, so the steadiness tool and the
/// acceptance check compute identical spreads. Needs two or more values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(5.0));
        assert_eq!(percentile(&v, 0.9), Some(9.0));
        assert_eq!(percentile(&v, 1.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[3.0], 0.9), Some(3.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Unsorted input.
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
    }

    #[test]
    fn p90_needs_a_hundred_samples_for_a_ten_sample_tail() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert!(tail_is_supported(100, 0.9, 10));
        assert!(!tail_is_supported(99, 0.9, 10));
        assert!(tail_is_supported(20, 0.5, 10));
        assert!(!tail_is_supported(19, 0.5, 10));
        assert_eq!(samples_beyond(0, 0.9), 0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from statistics.quantiles(values, n=4).
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        assert_eq!(
            quartiles(&[0.5, 2.25, 1.0, 7.0, 3.5]),
            Some([0.75, 2.25, 5.25])
        );
        assert_eq!(quartiles(&[4.0, 1.0]), Some([0.25, 2.5, 4.75]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
