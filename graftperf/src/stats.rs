//! Order statistics used by every phase.

/// Percentiles the tail report may choose from, highest first.
const TAIL_MENU: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Median of an ascending slice.
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 50.0)
}

/// Mean of the middle half of an ascending slice: the lowest and the
/// highest quarter (rounded down) are dropped.
pub fn interquartile_mean(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "mean of no samples");
    let cut = sorted.len() / 4;
    let mid = &sorted[cut..sorted.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Sorts a copy of `samples` ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The highest percentile from the menu with at least [`TAIL_BEYOND`]
/// samples strictly beyond its rank: `(percentile, value)`. `None`
/// when even the median has fewer than that many samples above it.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_MENU
        .iter()
        .find(|&&p| n >= TAIL_BEYOND && n - rank(n, p) >= TAIL_BEYOND)
        .map(|&p| (p, percentile(sorted, p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99.9 leaves 1 beyond, p99 leaves exactly 10.
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p99 leaves 2, p95 leaves exactly 10.
        assert_eq!(tail(&v), Some((95.0, 190.0)));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((50.0, 10.0)));
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(median(&v), 2.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(sorted(&[3.0, 1.0, 2.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        // 8 samples: the two lowest and the two highest are dropped.
        let v = [1.0, 2.0, 10.0, 20.0, 30.0, 40.0, 900.0, 1000.0];
        assert_eq!(interquartile_mean(&v), 25.0);
        // Fewer than 4 samples: nothing is dropped.
        assert_eq!(interquartile_mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
    }
}
