//! Property tests for the fitting and summary routines.

use plsim_stats::*;
use proptest::prelude::*;

proptest! {
    /// top_share is monotone in the fraction and reaches 1.0 at frac = 1.
    #[test]
    fn top_share_monotone(values in proptest::collection::vec(0.1f64..1e4, 2..200)) {
        let s10 = top_share(&values, 0.1).unwrap();
        let s50 = top_share(&values, 0.5).unwrap();
        let s100 = top_share(&values, 1.0).unwrap();
        prop_assert!(s10 <= s50 + 1e-12);
        prop_assert!(s50 <= s100 + 1e-12);
        prop_assert!((s100 - 1.0).abs() < 1e-9);
        // The top 10% can never contribute less than 10% (they are the largest).
        prop_assert!(s10 >= 0.1 - 1e-9);
    }

    /// Pearson is symmetric, bounded, and invariant under affine maps with
    /// positive scale.
    #[test]
    fn pearson_properties(
        pairs in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 3..100),
        scale in 0.1f64..10.0,
        shift in -100.0f64..100.0,
    ) {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        if let Some(r) = pearson(&xs, &ys) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
            let r_sym = pearson(&ys, &xs).unwrap();
            prop_assert!((r - r_sym).abs() < 1e-9);
            let xs2: Vec<f64> = xs.iter().map(|x| scale * x + shift).collect();
            if let Some(r_affine) = pearson(&xs2, &ys) {
                prop_assert!((r - r_affine).abs() < 1e-6);
            }
        }
    }

    /// The SE fit recovers c within one grid step on synthetic SE data of
    /// random parameters.
    #[test]
    fn se_fit_recovers_c(c_step in 4usize..16, a in 1.0f64..10.0, n in 50usize..300) {
        let c = c_step as f64 * 0.05;
        // Ensure y_n >= 1 by the paper's normalization b = 1 + a log n.
        let b = 1.0 + a * (n as f64).log10();
        let ranked: Vec<f64> = (1..=n)
            .map(|i| (b - a * (i as f64).log10()).powf(1.0 / c))
            .collect();
        let fit = stretched_exp_fit(&ranked).unwrap();
        prop_assert!((fit.c - c).abs() < 0.051, "true c={c}, fitted c={}", fit.c);
        prop_assert!(fit.r2 > 0.98, "r2 = {}", fit.r2);
    }

    /// Zipf fit recovers alpha on synthetic power-law data of random
    /// exponent.
    #[test]
    fn zipf_fit_recovers_alpha(alpha in 0.3f64..2.5, n in 20usize..300) {
        let ranked: Vec<f64> = (1..=n).map(|i| 1e7 * (i as f64).powf(-alpha)).collect();
        let fit = zipf_fit(&ranked).unwrap();
        prop_assert!((fit.alpha - alpha).abs() < 1e-6);
    }

    /// Linear fit residual-optimality sanity: the analytic least-squares
    /// solution has no worse SSE than small perturbations of it.
    #[test]
    fn linear_fit_is_locally_optimal(
        pts in proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 3..50),
        ds in -0.1f64..0.1,
        di in -0.1f64..0.1,
    ) {
        let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
        if let Some(fit) = linear_fit(&xs, &ys) {
            let sse = |s: f64, i: f64| -> f64 {
                xs.iter().zip(&ys).map(|(x, y)| (y - (s * x + i)).powi(2)).sum()
            };
            let best = sse(fit.slope, fit.intercept);
            prop_assert!(best <= sse(fit.slope + ds, fit.intercept + di) + 1e-6);
        }
    }

    /// Quantile is monotone in q and bracketed by min/max.
    #[test]
    fn quantile_monotone(values in proptest::collection::vec(-1e4f64..1e4, 1..100)) {
        let q25 = quantile(&values, 0.25).unwrap();
        let q50 = quantile(&values, 0.5).unwrap();
        let q75 = quantile(&values, 0.75).unwrap();
        prop_assert!(q25 <= q50 && q50 <= q75);
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(q25 >= min - 1e-9 && q75 <= max + 1e-9);
    }
}
