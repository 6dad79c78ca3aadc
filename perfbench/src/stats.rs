//! The one percentile definition the benchmark uses: nearest rank.

/// Nearest-rank percentile of `samples` (unsorted): the value at rank
/// `ceil(p/100 * n)`, 1-based. Returns `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = rank_of(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank_of(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    Some(((p / 100.0 * n as f64).ceil() as usize).clamp(1, n))
}

/// Samples strictly beyond the `p`-th percentile's rank.
pub fn beyond(n: usize, p: f64) -> usize {
    rank_of(n, p).map_or(0, |r| n - r)
}

/// The highest whole percentile that leaves at least ten samples beyond
/// its rank, or `None` when the sample has ten or fewer values.
pub fn highest_supported(n: usize) -> Option<u32> {
    (1..=99u32).rev().find(|&p| n > 10 && beyond(n, f64::from(p)) >= 10)
}

/// Median of a sample (nearest rank), 0 when empty.
pub fn p50(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// Arithmetic mean, 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(highest_supported(100), Some(90));
        assert_eq!(highest_supported(10), None);
    }
}
