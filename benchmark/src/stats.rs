//! Order statistics of a handful of timing samples.

/// Count, median and spread of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&sorted)?;
        Some(Summary {
            n: sorted.len(),
            min: sorted[0],
            q1,
            median,
            q3,
            max: sorted[sorted.len() - 1],
        })
    }

    /// A metric measured once per process (peak RSS, an exact count).
    pub fn single(value: f64) -> Summary {
        Summary {
            n: 1,
            min: value,
            q1: value,
            median: value,
            q3: value,
            max: value,
        }
    }

    /// Distance between the quartiles as a share of the median — the
    /// spread the acceptance check compares against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of `values` (any order); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    Summary::of(values).map(|s| s.median)
}

/// The three quartile cut points of ascending `sorted`, computed the way
/// Python's `statistics.quantiles(values, n=4)` does (exclusive method), so
/// a spread printed here can be checked against the driver's by hand. A
/// single sample is its own quartiles.
fn quartiles(sorted: &[f64]) -> Option<(f64, f64, f64)> {
    let m = sorted.len();
    match m {
        0 => return None,
        1 => return Some((sorted[0], sorted[0], sorted[0])),
        _ => {}
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Six significant digits for reading; the JSON keeps every digit.
pub fn human(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{x:.0}")
    } else if (1e-3..1e7).contains(&x.abs()) {
        let decimals = (5 - x.abs().max(1.0).log10().floor() as i32).max(0) as usize;
        format!("{x:.decimals$}")
    } else {
        format!("{x:.5e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(median(&[]), None);
        assert_eq!(Summary::of(&[4.5]), Some(Summary::single(4.5)));
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn human_keeps_six_significant_digits() {
        assert_eq!(human(2.134_567_8), "2.13457");
        assert_eq!(human(1_486_381.31), "1486381");
        assert_eq!(human(28.0), "28");
        assert_eq!(human(0.0), "0");
        assert_eq!(human(7.6e-8), "7.60000e-8");
        assert_eq!(human(-0.058_9), "-0.05890");
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::single(0.0).spread(), 0.0);
    }
}
