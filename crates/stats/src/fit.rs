//! Parameter estimation for the crate's distributions.
//!
//! The figure-regeneration binaries fit candidate laws to synthetic data
//! the same way the paper fit them to measured data (Fig. 4: Fréchet vs
//! Gumbel on BTC ranges; Fig. 5: Gamma vs Fréchet on IoU values).

use crate::describe::Summary;
use crate::dist::{DistError, Frechet, Gamma, Gumbel, Normal};
use crate::special::EULER_GAMMA;

/// Fitting failure: not enough data or degenerate input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FitError(&'static str);

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fit failed: {}", self.0)
    }
}

impl std::error::Error for FitError {}

impl From<DistError> for FitError {
    fn from(_: DistError) -> FitError {
        FitError("estimated parameters out of range")
    }
}

fn finite(data: &[f64]) -> Result<Vec<f64>, FitError> {
    let xs: Vec<f64> = data.iter().copied().filter(|x| x.is_finite()).collect();
    if xs.len() < 2 {
        return Err(FitError("need at least two finite samples"));
    }
    Ok(xs)
}

/// Maximum-likelihood Normal fit (sample mean and standard deviation).
///
/// # Errors
///
/// Returns [`FitError`] on fewer than two finite samples or zero variance.
pub fn normal_mle(data: &[f64]) -> Result<Normal, FitError> {
    let s = Summary::of(&finite(data)?);
    if s.std_dev <= 0.0 {
        return Err(FitError("zero variance"));
    }
    Ok(Normal::new(s.mean, s.std_dev)?)
}

/// Method-of-moments Gumbel fit: `β = s·√6/π`, `µ = mean − γ·β`.
///
/// # Errors
///
/// Returns [`FitError`] on degenerate input.
pub fn gumbel_moments(data: &[f64]) -> Result<Gumbel, FitError> {
    let s = Summary::of(&finite(data)?);
    if s.std_dev <= 0.0 {
        return Err(FitError("zero variance"));
    }
    let beta = s.std_dev * 6f64.sqrt() / std::f64::consts::PI;
    let mu = s.mean - EULER_GAMMA * beta;
    Ok(Gumbel::new(mu, beta)?)
}

/// Fréchet fit via the log transform: if `X ~ Fréchet(0, s, α)` then
/// `ln X ~ Gumbel(ln s, 1/α)`, so fit a Gumbel to the logs.
///
/// # Errors
///
/// Returns [`FitError`] if any sample is non-positive or input is
/// degenerate.
pub fn frechet_log_moments(data: &[f64]) -> Result<Frechet, FitError> {
    let xs = finite(data)?;
    if xs.iter().any(|&x| x <= 0.0) {
        return Err(FitError("Fréchet fit requires positive samples"));
    }
    let logs: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let g = gumbel_moments(&logs)?;
    let alpha = 1.0 / g.scale();
    let scale = g.loc().exp();
    Ok(Frechet::new(0.0, scale, alpha)?)
}

/// Gamma fit via the standard MLE approximation
/// (`s = ln mean − mean(ln x)`, `k ≈ (3 − s + √((s−3)² + 24s)) / (12s)`).
///
/// # Errors
///
/// Returns [`FitError`] if samples are non-positive or degenerate.
pub fn gamma_mle(data: &[f64]) -> Result<Gamma, FitError> {
    let xs = finite(data)?;
    if xs.iter().any(|&x| x <= 0.0) {
        return Err(FitError("Gamma fit requires positive samples"));
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let mean_ln = xs.iter().map(|x| x.ln()).sum::<f64>() / n;
    let s = mean.ln() - mean_ln;
    if s <= 0.0 {
        return Err(FitError("degenerate log-moment"));
    }
    let shape = (3.0 - s + ((s - 3.0) * (s - 3.0) + 24.0 * s).sqrt()) / (12.0 * s);
    let scale = mean / shape;
    Ok(Gamma::new(shape, scale)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::ContinuousDist;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn samples<D: ContinuousDist>(d: &D, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    #[test]
    fn normal_fit_recovers_parameters() {
        let truth = Normal::new(42.0, 3.5).unwrap();
        let fit = normal_mle(&samples(&truth, 20_000, 1)).unwrap();
        assert!((fit.mean() - 42.0).abs() < 0.1, "mean {}", fit.mean());
        assert!((fit.sigma() - 3.5).abs() < 0.1, "sigma {}", fit.sigma());
    }

    #[test]
    fn gumbel_fit_recovers_parameters() {
        let truth = Gumbel::new(10.0, 4.0).unwrap();
        let fit = gumbel_moments(&samples(&truth, 20_000, 2)).unwrap();
        assert!((fit.loc() - 10.0).abs() < 0.2, "loc {}", fit.loc());
        assert!((fit.scale() - 4.0).abs() < 0.2, "scale {}", fit.scale());
    }

    #[test]
    fn frechet_fit_recovers_paper_parameters() {
        // The Fig. 4 law: Fréchet(α = 4.41, scale = 29.3).
        let truth = Frechet::new(0.0, 29.3, 4.41).unwrap();
        let fit = frechet_log_moments(&samples(&truth, 20_000, 3)).unwrap();
        assert!((fit.alpha() - 4.41).abs() < 0.25, "alpha {}", fit.alpha());
        assert!((fit.scale() - 29.3).abs() < 1.0, "scale {}", fit.scale());
    }

    #[test]
    fn gamma_fit_recovers_parameters() {
        let truth = Gamma::new(30.77, 0.18).unwrap();
        let fit = gamma_mle(&samples(&truth, 20_000, 4)).unwrap();
        assert!((fit.shape() - 30.77).abs() < 1.5, "shape {}", fit.shape());
        assert!((fit.scale() - 0.18).abs() < 0.01, "scale {}", fit.scale());
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(normal_mle(&[1.0]).is_err());
        assert!(normal_mle(&[2.0, 2.0, 2.0]).is_err());
        assert!(gamma_mle(&[1.0, -2.0]).is_err());
        assert!(frechet_log_moments(&[0.0, 1.0]).is_err());
        assert!(normal_mle(&[f64::NAN, 1.0]).is_err());
        assert!(!FitError("x").to_string().is_empty());
    }

    #[test]
    fn fitted_model_beats_wrong_model_in_ks() {
        // Regenerates the Fig. 4 methodology in miniature: data from a
        // Fréchet law must KS-score better under the fitted Fréchet than
        // under the fitted Gumbel.
        let truth = Frechet::new(0.0, 29.3, 4.41).unwrap();
        let data = samples(&truth, 5_000, 6);
        let frechet = frechet_log_moments(&data).unwrap();
        let gumbel = gumbel_moments(&data).unwrap();
        let d_frechet = crate::ks::ks_statistic(&data, |x| frechet.cdf(x));
        let d_gumbel = crate::ks::ks_statistic(&data, |x| gumbel.cdf(x));
        assert!(d_frechet < d_gumbel, "Fréchet {d_frechet} vs Gumbel {d_gumbel}");
    }
}
