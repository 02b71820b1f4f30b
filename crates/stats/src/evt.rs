//! Extreme-value theory helpers (§IV-D "Analysis under probability
//! distributions").
//!
//! Delphi's `Δ` parameter must bound the honest input range `δ` except
//! with probability negligible in the statistical parameter `λ`. The
//! paper derives `Δ` from the extreme-value law of the range:
//!
//! - thin-tailed inputs (Normal, Gamma, Lognormal): the range of `n`
//!   samples follows a **Gumbel** law whose mean grows as `O(log n)`,
//!   giving `Δ = O(λ · log n)`;
//! - fat-tailed inputs (Pareto, Loggamma with shape `α`): the range
//!   follows a **Fréchet** law, giving `Δ = O(2^{λ/α} · n^{1/α})`.
//!
//! This module provides the fat-tail bound the oracle's `Δ` is derived
//! from (Fig. 4); its tests sample ranges empirically to check both laws.

use crate::dist::{ContinuousDist, Frechet};

/// `Δ` such that `P(X > Δ) ≤ 2^{−λ}` for a Fréchet-distributed range.
///
/// For large `λ` this behaves as `m + s·2^{λ/α}` — exponential in `λ/α`,
/// the paper's fat-tail penalty.
pub fn frechet_tail_bound(frechet: &Frechet, lambda_bits: u32) -> f64 {
    let p = 1.0 - 0.5f64.powi(lambda_bits as i32);
    if p < 1.0 - 1e-14 {
        frechet.quantile(p)
    } else {
        // −ln p ≈ 2^{−λ}: quantile = m + s·(2^{−λ})^{−1/α} = m + s·2^{λ/α}.
        let s = frechet.scale();
        frechet.quantile(0.5) - s * (2f64.ln()).powf(-1.0 / frechet.alpha())
            + s * 2f64.powf(f64::from(lambda_bits) / frechet.alpha())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe::Summary;
    use crate::dist::{Normal, Pareto};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `trials` independent ranges `max − min` of `n` draws from `dist`.
    fn range_distribution<D: ContinuousDist>(
        dist: &D,
        n: usize,
        trials: usize,
        rng: &mut StdRng,
    ) -> Vec<f64> {
        let mut range = || {
            let draws: Vec<f64> = (0..n).map(|_| dist.sample(rng)).collect();
            let (lo, hi) = draws
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            hi - lo
        };
        (0..trials).map(|_| range()).collect()
    }

    #[test]
    fn range_is_nonnegative_and_grows_with_n() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = Normal::new(0.0, 1.0).unwrap();
        let small = Summary::of(&range_distribution(&d, 4, 400, &mut rng));
        let large = Summary::of(&range_distribution(&d, 160, 400, &mut rng));
        assert!(small.min >= 0.0);
        assert!(large.mean > small.mean, "range grows with n");
    }

    #[test]
    fn normal_range_grows_logarithmically() {
        // EVT: E[range of n normals] ≈ 2σ·sqrt(2 ln n); the ratio between
        // n = 256 and n = 16 should be near sqrt(ln 256 / ln 16) ≈ 1.41,
        // far below the ratio 4 that linear growth would give.
        let mut rng = StdRng::seed_from_u64(2);
        let d = Normal::new(0.0, 1.0).unwrap();
        let r16 = Summary::of(&range_distribution(&d, 16, 2000, &mut rng)).mean;
        let r256 = Summary::of(&range_distribution(&d, 256, 2000, &mut rng)).mean;
        let ratio = r256 / r16;
        assert!(ratio > 1.1 && ratio < 2.0, "ratio {ratio}");
    }

    #[test]
    fn pareto_range_grows_polynomially() {
        // Fat tails: range of n Pareto(α = 1.5) grows ≈ n^{2/3} — much
        // faster than the thin-tailed log growth.
        let mut rng = StdRng::seed_from_u64(3);
        let d = Pareto::new(1.0, 1.5).unwrap();
        let r16 = Summary::of(&range_distribution(&d, 16, 4000, &mut rng)).median;
        let r256 = Summary::of(&range_distribution(&d, 256, 4000, &mut rng)).median;
        let ratio = r256 / r16;
        assert!(ratio > 3.0, "fat-tail range ratio {ratio} should far exceed log growth");
    }

    #[test]
    fn frechet_bound_is_exponential_in_lambda_over_alpha() {
        let f = Frechet::new(0.0, 29.3, 4.41).unwrap();
        let d10 = frechet_tail_bound(&f, 10);
        let d20 = frechet_tail_bound(&f, 20);
        let d30 = frechet_tail_bound(&f, 30);
        // Each +10 bits multiplies the bound by ≈ 2^{10/4.41} ≈ 4.8.
        let g1 = d20 / d10;
        let g2 = d30 / d20;
        assert!(g1 > 3.0 && g1 < 7.0, "growth {g1}");
        assert!(g2 > 3.0 && g2 < 7.0, "growth {g2}");
        // Tail property against the true CDF.
        let p_exceed = 1.0 - f.cdf(d20);
        assert!(p_exceed <= 0.5f64.powi(20) * 1.01 + 1e-15);
    }

    #[test]
    fn paper_oracle_delta_magnitude() {
        // §VI-A: Fréchet(α = 4.41, s = 29.3) range model, λ = 30 bits
        // gives Δ ≈ 2000$. Our bound should land in that ballpark.
        let f = Frechet::new(0.0, 29.3, 4.41).unwrap();
        let delta = frechet_tail_bound(&f, 30);
        assert!((1000.0..4000.0).contains(&delta), "Δ = {delta} should be near the paper's 2000$");
    }
}
