//! Order statistics for block and latency samples.
//!
//! Quartiles use the method of Python's `statistics.quantiles(v, n=4)`
//! (exclusive), so a spread printed here is the spread the benchmark
//! driver computes from the same values.

/// Ascending copy of `v`. Samples are wall times and counts: never NaN.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    s
}

/// `[q1, q2, q3]` of `v`. A single sample is its own quartiles.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    assert!(!v.is_empty(), "no samples");
    let s = sorted(v);
    let n = s.len();
    if n == 1 {
        return [s[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// What is kept of one set of equal-work samples. `p25` is the fast
/// quartile the timing metrics are computed from; the median and the
/// inter-quartile range are reported beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p25: f64,
    pub median: f64,
    pub iqr: f64,
}

pub fn summarize(v: &[f64]) -> Summary {
    let [q1, q2, q3] = quartiles(v);
    Summary { n: v.len(), p25: q1, median: q2, iqr: q3 - q1 }
}

pub fn p25(v: &[f64]) -> f64 {
    quartiles(v)[0]
}

pub fn median(v: &[f64]) -> f64 {
    quartiles(v)[1]
}

/// Inter-quartile range as a share of the median: the driver's spread.
pub fn spread(v: &[f64]) -> f64 {
    let s = summarize(v);
    s.iqr / s.median
}

/// The highest of the percentiles 99.9, 99, 95, 90, 75 that has at least
/// ten samples beyond it, with its nearest-rank value; the median when the
/// sample supports none of them.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let n = s.len();
    for permille in [999, 990, 950, 900, 750] {
        let rank = (permille * n).div_ceil(1000);
        if rank >= 1 && n - rank >= 10 {
            return (permille as f64 / 10.0, s[rank - 1]);
        }
    }
    (50.0, median(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn summary_reports_fast_quartile_median_and_iqr() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.n, s.p25, s.median, s.iqr), (10, 2.75, 5.5, 5.5));
        assert_eq!(p25(&v), 2.75);
        assert_eq!(spread(&v), 1.0);
    }

    #[test]
    fn fast_quartile_ignores_a_slow_host_phase() {
        // 60 % of the blocks at 8 ms, 40 % at 13.8 ms: the median sits on
        // the edge of the slow phase, the fast quartile does not move.
        let mut v = vec![8.0; 60];
        v.extend(vec![13.8; 40]);
        assert_eq!(p25(&v), 8.0);
        v.extend(vec![13.8; 30]);
        assert_eq!(p25(&v), 8.0);
        assert_eq!(median(&v), 13.8);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0));
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), (95.0, 190.0));
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&v), (50.0, 6.5));
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.9, 9990.0));
    }
}
