//! Order statistics over timing samples.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The `p`-th percentile (0–100) by the nearest-rank method; `None` when
/// empty.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Percentiles tried for a tail figure, highest first, in per mille.
const TAIL_LADDER: [usize; 8] = [999, 990, 980, 950, 900, 800, 750, 500];

/// The tail of `values`: the highest percentile of [`TAIL_LADDER`] with at
/// least ten samples beyond it, as `(percentile, value)`. Falls back to
/// the median when there are too few samples for any higher percentile;
/// `None` when empty.
#[must_use]
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    // Nearest rank of the per-mille percentile, in integers so that e.g.
    // p90 of 100 samples leaves exactly ten beyond it.
    let rank = |pm: usize| (pm * n).div_ceil(1000);
    let pm = TAIL_LADDER
        .into_iter()
        .find(|&pm| n - rank(pm).min(n) >= 10)
        .unwrap_or(500);
    let p = pm as f64 / 10.0;
    percentile(values, p).map(|v| (p, v))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&v), Some((50.0, 6.0)));
        assert_eq!(tail(&[]), None);
    }
}
