//! Kolmogorov–Smirnov goodness of fit.
//!
//! Figures 4 and 5 of the paper rank candidate distributions by fit
//! quality ("Fréchet and Gumbel ... are the closest fit, with Fréchet
//! being the better fit"). The KS statistic is the standard way to make
//! that ranking quantitative.

/// KS statistic `D = sup_x |F_emp(x) − F(x)|` for **sorted** samples.
///
/// # Panics
///
/// Panics if `sorted` is empty or not ascending.
pub fn ks_statistic_sorted(sorted: &[f64], cdf: impl Fn(f64) -> f64) -> f64 {
    assert!(!sorted.is_empty(), "KS of empty sample");
    assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "KS input must be sorted ascending");
    let n = sorted.len() as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in sorted.iter().enumerate() {
        let f = cdf(x);
        let lo = i as f64 / n;
        let hi = (i as f64 + 1.0) / n;
        d = d.max((f - lo).abs()).max((hi - f).abs());
    }
    d
}

/// KS statistic for unsorted samples (sorts a copy).
pub fn ks_statistic(samples: &[f64], cdf: impl Fn(f64) -> f64) -> f64 {
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    ks_statistic_sorted(&xs, cdf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{ContinuousDist, Gumbel, Normal};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn perfect_fit_has_small_statistic() {
        // Samples placed exactly at uniform quantiles against U(0,1).
        let n = 1000;
        let xs: Vec<f64> = (0..n).map(|i| (i as f64 + 0.5) / n as f64).collect();
        let d = ks_statistic_sorted(&xs, |x| x.clamp(0.0, 1.0));
        assert!(d <= 0.5 / n as f64 + 1e-12, "D = {d}");
    }

    #[test]
    fn wrong_model_scores_worse_than_right_model() {
        let mut rng = StdRng::seed_from_u64(3);
        let gumbel = Gumbel::new(10.0, 3.0).unwrap();
        let samples: Vec<f64> = (0..3000).map(|_| gumbel.sample(&mut rng)).collect();
        let d_right = ks_statistic(&samples, |x| gumbel.cdf(x));
        // A normal with matching mean/std is a plausible but worse model.
        let s = crate::describe::Summary::of(&samples);
        let normal = Normal::new(s.mean, s.std_dev).unwrap();
        let d_wrong = ks_statistic(&samples, |x| normal.cdf(x));
        assert!(d_right < d_wrong, "right {d_right} vs wrong {d_wrong}");
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_input_rejected() {
        let _ = ks_statistic_sorted(&[2.0, 1.0], |x| x);
    }
}
