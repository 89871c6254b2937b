//! # plsim-stats — statistics for the traffic-locality analysis
//!
//! The numerical toolkit behind the paper's figures:
//!
//! * [`zipf_fit`] and [`stretched_exp_fit`] — the two rank-distribution
//!   models compared in Figures 11–14 (the paper's Eq. 1: `y_i^c = −a·log i
//!   + b`, whose CCDF is a Weibull);
//! * [`pearson`] / [`log_log_correlation`] — the request-count vs RTT
//!   correlations of Figures 15–18;
//! * [`top_share`] — the "top 10% of peers provide ~70% of traffic"
//!   headline numbers;
//! * [`weibull`] etc. — variates for synthetic workload generation.
//!
//! # Examples
//!
//! ```
//! use plsim_stats::{stretched_exp_fit, top_share, zipf_fit};
//!
//! // A stretched-exponential rank distribution...
//! let ranked: Vec<f64> = (1..=100u32)
//!     .map(|i| {
//!         let yc: f64 = 20.0 - 4.0 * f64::from(i).log10();
//!         yc.max(1e-9).powf(1.0 / 0.4)
//!     })
//!     .collect();
//! // ...is fitted better by the SE model than by Zipf.
//! let se = stretched_exp_fit(&ranked).unwrap();
//! let zipf = zipf_fit(&ranked).unwrap();
//! assert!(se.r2 > zipf.r2);
//! assert!(top_share(&ranked, 0.1).unwrap() > 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod distributions;
mod fit;
mod summary;

pub use distributions::{exponential, lognormal, standard_normal, weibull};
pub use fit::{
    linear_fit, log_log_correlation, pearson, stretched_exp_fit, zipf_fit, LinearFit,
    StretchedExpFit, ZipfFit,
};
pub use summary::{mean, quantile, rank_descending, std_dev, top_share};
