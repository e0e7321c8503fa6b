//! Order statistics for the benchmark's samples.
//!
//! Every timing the benchmark reports is a median or the highest
//! percentile that still has at least [`MIN_BEYOND`] samples beyond it,
//! and each comes with the sample count behind it.

/// Samples a percentile needs beyond it before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Median: the middle sample, or the mean of the two middle samples.
/// `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Quartiles `[q1, q2, q3]` by the same rule as Python's
/// `statistics.quantiles(data, n=4)` (the default "exclusive" method),
/// so spreads printed here and spreads computed over run results agree.
/// `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let scaled = (i + 1) * m;
        let j = (scaled / 4).clamp(1, n - 1);
        let delta = scaled as f64 / 4.0 - j as f64;
        *q = sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta;
    }
    Some(out)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100): the smallest sample with
/// at least `p`% of the samples at or below it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(samples);
    let rank = rank(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

/// Samples that lie strictly beyond the nearest-rank percentile `p` of
/// `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    rank(n, p).map_or(0, |rank| n - rank)
}

/// The highest of `candidates` (percentiles, ascending or not) that has
/// at least [`MIN_BEYOND`] of `n` samples beyond it.
pub fn highest_reportable(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| samples_beyond(n, p) >= MIN_BEYOND)
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

/// Smallest sample count at which percentile `p` is reportable.
pub fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(usize::MAX)
}

fn rank(n: usize, p: f64) -> Option<usize> {
    // The epsilon keeps percentiles such as 99.9, which binary floating
    // point cannot hold exactly, from rounding up past an exact rank.
    let exact = p / 100.0 * n as f64;
    (n > 0 && p > 0.0 && p <= 100.0).then(|| ((exact - 1e-9 * exact).ceil() as usize).clamp(1, n))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), Some([2.0, 5.0, 8.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let data: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&data, 50.0), Some(50.0));
        assert_eq!(percentile(&data, 90.0), Some(90.0));
        assert_eq!(percentile(&data, 100.0), Some(100.0));
        assert_eq!(percentile(&[4.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&data, 0.0), None);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(99.0), 1000);
        let candidates = [50.0, 90.0, 99.0, 99.9];
        assert_eq!(highest_reportable(19, &candidates), None);
        assert_eq!(highest_reportable(20, &candidates), Some(50.0));
        assert_eq!(highest_reportable(99, &candidates), Some(50.0));
        assert_eq!(highest_reportable(100, &candidates), Some(90.0));
        assert_eq!(highest_reportable(999, &candidates), Some(90.0));
        assert_eq!(highest_reportable(1000, &candidates), Some(99.0));
        assert_eq!(highest_reportable(10_000, &candidates), Some(99.9));
    }
}
