//! Order statistics of a sample: median, quartiles, MAD, and the
//! highest percentile that still has at least ten samples beyond it.

/// Percentiles a tail may be reported at, ascending.
const TAIL_PERCENTILES: [usize; 5] = [50, 75, 90, 95, 99];

/// Samples that must lie beyond a percentile for it to be reported.
const TAIL_MIN_BEYOND: usize = 10;

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Smallest value; 0 when empty.
pub fn min(v: impl IntoIterator<Item = f64>) -> f64 {
    v.into_iter().reduce(f64::min).unwrap_or(0.0)
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(v, n=4)`, which the benchmark driver uses for
/// its spreads; `None` below two samples.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v);
    let m = s.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Median absolute deviation from the median.
pub fn mad(v: &[f64]) -> f64 {
    let m = median(v);
    let dev: Vec<f64> = v.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// The highest of the 50/75/90/95/99th percentiles with at least ten
/// samples beyond it, as `(percentile, value)` by nearest rank; `None`
/// below twenty samples.
pub fn tail(v: &[f64]) -> Option<(usize, f64)> {
    let s = sorted(v);
    let rank = |p: usize| (p * s.len()).div_ceil(100);
    TAIL_PERCENTILES
        .iter()
        .rev()
        .find(|&&p| s.len() >= rank(p) + TAIL_MIN_BEYOND)
        .map(|&p| (p, s[rank(p) - 1]))
}

/// `n=… median=… min=… q1=… q3=… mad=… pNN=…` for the human-readable report.
pub fn describe(v: &[f64]) -> String {
    let smallest = min(v.iter().copied());
    let mut out = format!("n={} median={:.6} min={smallest:.6}", v.len(), median(v));
    if let Some((q1, q3)) = quartiles(v) {
        out.push_str(&format!(" q1={q1:.6} q3={q3:.6} mad={:.6}", mad(v)));
    }
    if let Some((p, x)) = tail(v) {
        out.push_str(&format!(" p{p}={x:.6}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn min_of_some_and_none() {
        assert_eq!(min([3.0, 1.0, 2.0]), 1.0);
        assert_eq!(min([]), 0.0);
    }

    #[test]
    fn mad_ignores_one_outlier() {
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v = |n: u32| -> Vec<f64> { (1..=n).map(f64::from).collect() };
        assert_eq!(tail(&v(19)), None);
        assert_eq!(tail(&v(20)), Some((50, 10.0)));
        assert_eq!(tail(&v(40)), Some((75, 30.0)));
        assert_eq!(tail(&v(100)), Some((90, 90.0)));
        assert_eq!(tail(&v(199)), Some((90, 180.0)));
        assert_eq!(tail(&v(200)), Some((95, 190.0)));
        assert_eq!(tail(&v(1000)), Some((99, 990.0)));
    }

    #[test]
    fn describe_names_count_median_and_tail() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        let d = describe(&v);
        assert!(d.starts_with("n=20 median=10.5"), "{d}");
        assert!(d.contains("p50=10.0"), "{d}");
    }
}
