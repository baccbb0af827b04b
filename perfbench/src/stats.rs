//! Order statistics for timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread computed here equals the one
//! a script computes from the same values.

/// A sorted copy of `xs`. NaN samples are a bug in the caller.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    v
}

/// The median; `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// 25th percentile.
    pub q1: f64,
    /// 50th percentile.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
}

impl Quartiles {
    /// The interquartile distance as a share of the median (0 when the
    /// median is 0).
    pub fn relative_spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// Quartiles by the exclusive method of `statistics.quantiles(n=4)`;
/// `None` for fewer than two samples (Python raises there too).
pub fn quartiles(xs: &[f64]) -> Option<Quartiles> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some(Quartiles { q1: cut(1), median: cut(2), q3: cut(3) })
}

/// Percentiles a tail may be reported at, in permille: decades of the
/// share beyond (p99.9, p99, p90), then the quartile and the median for
/// small samples. The ladder is coarse on purpose: a time-bounded run's
/// sample count varies a little from run to run, and a finer ladder would
/// let the reported percentile flip between runs, or rest on so few
/// samples that a burst of machine noise moves it.
const TAIL_LADDER_PERMILLE: [usize; 5] = [999, 990, 900, 750, 500];

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail latency: the highest percentile with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, in permille.
    pub permille: usize,
    /// The sample value at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

impl Tail {
    /// `p99.9`, `p90`, ..., for human-readable lines.
    pub fn label(&self) -> String {
        match self.permille {
            p if p % 10 == 0 => format!("p{}", p / 10),
            p => format!("p{}.{}", p / 10, p % 10),
        }
    }
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it. A sample of fewer than 20 has no such percentile
/// at or above the median, and reports the [`median`] (with `beyond`
/// telling how few samples lie past it): a lower percentile is no tail,
/// and the maximum of a handful of samples measures the machine's
/// hiccups more than the program. `None` for an empty sample.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let median = median(xs)?;
    let v = sorted(xs);
    let n = v.len();
    let at = |permille: usize| {
        // Nearest rank: the smallest rank covering the percentile.
        let rank = (permille * n).div_ceil(1000).clamp(1, n);
        Tail { permille, value: v[rank - 1], beyond: n - rank, samples: n }
    };
    let found = TAIL_LADDER_PERMILLE.into_iter().map(at).find(|t| t.beyond >= TAIL_MIN_BEYOND);
    Some(found.unwrap_or(Tail { value: median, ..at(500) }))
}

/// Geometric mean of positive values; `None` when empty or any value is
/// not positive.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|x| *x <= 0.0) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&xs).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[2.0, 1.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99.9 leaves 1 beyond, p99 leaves exactly 10.
        let t = tail(&xs).unwrap();
        assert_eq!((t.permille, t.value, t.beyond, t.samples), (990, 990.0, 10, 1000));
        assert_eq!(t.label(), "p99");

        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        // p99 would leave 9 beyond; p90 (rank 900) leaves 99.
        let t = tail(&xs).unwrap();
        assert_eq!((t.permille, t.value, t.beyond), (900, 900.0, 99));

        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.permille, t.value, t.beyond), (500, 10.0, 10));

        let xs: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().label(), "p99.9");
    }

    #[test]
    fn tail_of_a_small_sample_is_its_median() {
        let t = tail(&[5.0, 9.0, 7.0]).unwrap();
        assert_eq!((t.permille, t.value, t.beyond, t.samples), (500, 7.0, 1, 3));
        assert_eq!(t.label(), "p50");
        // The interpolated median, as `latency_p50_ms` reports it.
        assert_eq!(tail(&[1.0, 2.0, 4.0, 3.0]).unwrap().value, 2.5);
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn geomean_of_positive_values() {
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert!(geomean(&[1.0, 0.0]).is_none());
    }
}
