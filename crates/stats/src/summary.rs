//! Basic descriptive statistics and contribution shares.

/// Arithmetic mean; `None` for an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Population standard deviation; `None` for an empty slice.
#[must_use]
pub fn std_dev(values: &[f64]) -> Option<f64> {
    let m = mean(values)?;
    let var = values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / values.len() as f64;
    Some(var.sqrt())
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation; `None` for an empty
/// slice.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or NaN.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN values"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Sorts contributions descending and returns them: a rank distribution
/// ready for [`crate::zipf_fit`] / [`crate::stretched_exp_fit`].
#[must_use]
pub fn rank_descending(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("non-NaN values"));
    sorted
}

/// Fraction of the total mass contributed by the top `frac` of contributors
/// (e.g. `top_share(&bytes, 0.1)` = the paper's "top 10% of connected peers
/// uploaded X% of the traffic"). Returns `None` when empty or the total is
/// not positive.
///
/// # Panics
///
/// Panics if `frac` is outside `(0, 1]`.
#[must_use]
pub fn top_share(values: &[f64], frac: f64) -> Option<f64> {
    assert!(frac > 0.0 && frac <= 1.0, "fraction out of range: {frac}");
    if values.is_empty() {
        return None;
    }
    let ranked = rank_descending(values);
    let total: f64 = ranked.iter().sum();
    if total <= 0.0 {
        return None;
    }
    let k = ((ranked.len() as f64 * frac).ceil() as usize).clamp(1, ranked.len());
    Some(ranked[..k].iter().sum::<f64>() / total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std_of_known_data() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&v), Some(5.0));
        assert!((std_dev(&v).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), None);
        assert_eq!(std_dev(&[]), None);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&v, 0.5), Some(2.5));
    }

    #[test]
    fn top_share_of_uniform_data_matches_fraction() {
        let v = vec![1.0; 100];
        let s = top_share(&v, 0.1).unwrap();
        assert!((s - 0.1).abs() < 1e-12);
    }

    #[test]
    fn top_share_of_skewed_data_is_large() {
        let mut v = vec![1.0; 90];
        v.extend(vec![100.0; 10]);
        let s = top_share(&v, 0.1).unwrap();
        assert!(s > 0.9);
    }

    #[test]
    fn top_share_empty_and_zero_total() {
        assert_eq!(top_share(&[], 0.1), None);
        assert_eq!(top_share(&[0.0, 0.0], 0.5), None);
    }

    #[test]
    fn rank_descending_sorts() {
        assert_eq!(rank_descending(&[1.0, 3.0, 2.0]), vec![3.0, 2.0, 1.0]);
    }
}
