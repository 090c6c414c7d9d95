//! Order statistics over measured samples.

/// First quartile, median and third quartile of `xs`, computed exactly
/// like Python's `statistics.quantiles(xs, n=4)` (its default
/// "exclusive" method), so the spreads the benchmark prints are the ones
/// an acceptance check recomputes from the same values. A single sample
/// is its own quartiles; an empty slice gives zeros.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => return (0.0, 0.0, 0.0),
        1 => return (d[0], d[0], d[0]),
        _ => {}
    }
    let n = d.len() as i64;
    let m = n + 1;
    // Near the ends `j` is clamped, so `delta` may fall outside 0..=4 and
    // the cut extrapolates, as Python's does.
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        (d[j as usize - 1] * (4.0 - delta) + d[j as usize] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median of `xs` (the mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// Nearest-rank quantile `p` of already sorted `sorted` (0 when empty).
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0]), 4.0);
    }

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&xs, 0.5), 2.0);
        assert_eq!(nearest_rank(&xs, 0.999), 4.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
    }
}
