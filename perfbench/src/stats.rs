//! Order statistics for a metric's samples: the median, the quartiles,
//! and the highest tail percentile that still has at least ten samples
//! beyond it.

/// Tail percentiles considered, highest first, in hundredths of a
/// percent (9900 is p99).
const TAIL_PERCENTILES: [u64; 5] = [9999, 9990, 9900, 9000, 5000];

/// Samples a tail percentile needs beyond it before it is reported.
const TAIL_MIN_BEYOND: usize = 10;

/// Summary of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(percentile, value)` of the highest tail percentile with at
    /// least ten samples beyond it; `None` with fewer than twenty samples.
    pub tail: Option<(f64, f64)>,
}

/// Summarizes `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let [q1, median, q3] = quartiles(&sorted);
    let tail = TAIL_PERCENTILES
        .iter()
        .find(|&&p| sorted.len() - rank(sorted.len(), p) >= TAIL_MIN_BEYOND)
        .map(|&p| (p as f64 / 100.0, percentile(&sorted, p)));
    Some(Summary {
        n: sorted.len(),
        q1,
        median,
        q3,
        tail,
    })
}

/// Quartiles of ascending `sorted` data, computed like Python's
/// `statistics.quantiles(data, n=4)` (the default exclusive method), so
/// the spread printed here matches the spread a Python script computes.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let len = sorted.len();
    assert!(len > 0, "quartiles of no data");
    if len == 1 {
        return [sorted[0]; 3];
    }
    let m = len as i64 + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4i64).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, len as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Nearest-rank percentile of ascending `sorted` data; `hundredths` is
/// the percentile in hundredths of a percent.
pub fn percentile(sorted: &[f64], hundredths: u64) -> f64 {
    sorted[rank(sorted.len(), hundredths).max(1) - 1]
}

/// 1-based nearest rank of a percentile over `n` samples.
pub fn rank(n: usize, hundredths: u64) -> usize {
    (n as u64 * hundredths).div_ceil(10_000) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let [q1, q2, q3] = quartiles(&ten);
        assert!(close(q1, 2.75) && close(q2, 5.5) && close(q3, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let [q1, q2, q3] = quartiles(&[1.0, 2.0, 3.0, 4.0]);
        assert!(close(q1, 1.25) && close(q2, 2.5) && close(q3, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let [q1, q2, q3] = quartiles(&[1.0, 2.0]);
        assert!(close(q1, 0.75) && close(q2, 1.5) && close(q3, 2.25));
    }

    #[test]
    fn summary_sorts_its_input() {
        let s = summarize(&[9.0, 1.0, 5.0, 3.0, 7.0]).unwrap();
        assert_eq!(s.n, 5);
        assert!(close(s.median, 5.0));
        assert!(close(s.q1, 2.0) && close(s.q3, 8.0));
    }

    #[test]
    fn ties_collapse_every_statistic() {
        let s = summarize(&[4.0; 40]).unwrap();
        assert!(close(s.q1, 4.0) && close(s.median, 4.0) && close(s.q3, 4.0));
        assert_eq!(s.tail, Some((50.0, 4.0)));
        // A tie straddling the median.
        let s = summarize(&[1.0, 2.0, 2.0, 2.0, 9.0]).unwrap();
        assert!(close(s.median, 2.0));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&thousand).unwrap();
        // p99 has exactly ten samples beyond it; p99.9 has one.
        assert_eq!(s.tail, Some((99.0, 990.0)));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(summarize(&hundred).unwrap().tail, Some((90.0, 90.0)));
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(summarize(&twenty).unwrap().tail, Some((50.0, 10.0)));
    }

    #[test]
    fn too_few_samples_give_no_tail() {
        let nineteen: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(summarize(&nineteen).unwrap().tail, None);
        let one = summarize(&[3.5]).unwrap();
        assert_eq!((one.n, one.tail), (1, None));
        assert!(close(one.q1, 3.5) && close(one.q3, 3.5));
        assert_eq!(summarize(&[]), None);
    }
}
