//! Probability and statistics toolkit backing the Delphi paper's data
//! analysis (§IV-D, §VI-A, §VI-B, Figs. 4–5).
//!
//! The paper's parameter engine rests on distributional reasoning: honest
//! oracle inputs come from thin-tailed laws (Normal, Gamma, Lognormal) or
//! fatter ones (Pareto, Loggamma); their *range* follows Gumbel or Fréchet
//! extreme-value laws; and `Δ` is chosen as a `λ`-bit tail bound of that
//! range. This crate implements all of it from scratch:
//!
//! - [`dist`]: samplers, pdf/cdf/quantile for Normal, Lognormal, Gamma,
//!   Pareto, Gumbel, Fréchet, and Loggamma;
//! - [`special`]: the underlying special functions (`erf`, `ln Γ`,
//!   regularized incomplete gamma) with classic, tested approximations;
//! - [`fit`]: parameter estimation (closed-form MLE where it exists,
//!   method of moments / log-transform tricks elsewhere);
//! - [`ks`]: Kolmogorov–Smirnov distances for the "which distribution
//!   fits best" comparisons of Figs. 4 and 5;
//! - [`evt`]: extreme-value helpers — the fat-tailed `Δ = f(n, λ)` tail
//!   bound of §IV-D (Fréchet: `O(2^{λ/α})`);
//! - [`histogram`]: fixed-bin histograms with CSV/ASCII rendering for the
//!   figure-regeneration binaries;
//! - [`describe`]: summary statistics.
//!
//! # Example
//!
//! ```
//! use delphi_stats::dist::{ContinuousDist, Normal};
//! use delphi_stats::fit;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let true_dist = Normal::new(10.0, 2.0).unwrap();
//! let samples: Vec<f64> = (0..5000).map(|_| true_dist.sample(&mut rng)).collect();
//! let fitted = fit::normal_mle(&samples).unwrap();
//! assert!((fitted.mean() - 10.0).abs() < 0.2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod describe;
pub mod dist;
pub mod evt;
pub mod fit;
pub mod histogram;
pub mod ks;
pub mod special;

pub use describe::Summary;
pub use dist::{ContinuousDist, Frechet, Gamma, Gumbel, LogGamma, Lognormal, Normal, Pareto};
pub use histogram::Histogram;
