//! Order statistics used by every driver and by `--check`.

/// Sorts `values` ascending (total order; the harness never stores NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Nearest-rank percentile of an ascending slice; `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len()) - 1).copied()
}

/// Median of an unsorted sample (mean of the two middle values when the
/// count is even); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v.get(mid).copied()
    } else {
        Some((v.get(mid.checked_sub(1)?)? + v.get(mid)?) / 2.0)
    }
}

/// The tail percentiles the harness ever reports, lowest first, each
/// with the share of samples beyond it in parts per thousand.
const TAILS: [(f64, usize); 4] = [(90.0, 100), (95.0, 50), (99.0, 10), (99.9, 1)];

/// The highest tail percentile that still has at least ten samples beyond
/// it in a sample of `count`; `None` when even p90 has fewer.
pub fn highest_supported_percentile(count: usize) -> Option<f64> {
    TAILS.iter().rev().find(|(_, beyond)| count * beyond >= 10_000).map(|(p, _)| *p)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method); `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v.get(j - 1)? * (4.0 - delta) + v.get(j)? * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median — the spread the
/// benchmark contract bounds. `None` with fewer than two values or a zero
/// median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(iqr_share(&v), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
