//! One-way latency models.

use rand::Rng;

/// Multiplicative jitter applied to a base latency.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Jitter {
    /// No jitter: deliveries still interleave across pairs but each pair is
    /// deterministic.
    None,
    /// Uniform multiplicative jitter in `[1 − spread, 1 + spread]`.
    Uniform {
        /// Fractional spread, e.g. `0.2` for ±20%.
        spread: f64,
    },
    /// Log-normal multiplicative jitter with median 1, the standard model
    /// for WAN latency tails.
    LogNormal {
        /// σ of the underlying normal; `0.25` gives mild tails, `0.5`
        /// noticeable ones.
        sigma: f64,
    },
}

impl Jitter {
    /// Samples a multiplicative factor (≥ 0.05 to keep latencies positive
    /// and bounded away from zero).
    pub fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        let factor = match self {
            Jitter::None => 1.0,
            Jitter::Uniform { spread } => 1.0 + spread * (rng.random::<f64>() * 2.0 - 1.0),
            Jitter::LogNormal { sigma } => {
                // Box-Muller: one standard normal sample.
                let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
                let u2: f64 = rng.random();
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (sigma * z).exp()
            }
        };
        factor.max(0.05)
    }
}

/// Base one-way latency for every ordered node pair, in nanoseconds.
#[derive(Clone, Debug)]
pub struct LatencyMatrix {
    n: usize,
    base_ns: Vec<u64>,
}

impl LatencyMatrix {
    /// Creates a matrix with the same latency for every pair.
    pub fn constant(n: usize, ns: u64) -> LatencyMatrix {
        LatencyMatrix { n, base_ns: vec![ns; n * n] }
    }

    /// Creates a matrix from a per-pair function.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> u64) -> LatencyMatrix {
        let mut base_ns = Vec::with_capacity(n * n);
        for from in 0..n {
            for to in 0..n {
                base_ns.push(f(from, to));
            }
        }
        LatencyMatrix { n, base_ns }
    }

    /// System size this matrix covers.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Base one-way latency from `from` to `to` in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn base_ns(&self, from: usize, to: usize) -> u64 {
        assert!(from < self.n && to < self.n, "latency index out of range");
        self.base_ns[from * self.n + to]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_matrix() {
        let m = LatencyMatrix::constant(3, 500);
        assert_eq!(m.n(), 3);
        assert_eq!(m.base_ns(0, 2), 500);
    }

    #[test]
    fn from_fn_matrix() {
        let m = LatencyMatrix::from_fn(3, |a, b| (a * 10 + b) as u64);
        assert_eq!(m.base_ns(2, 1), 21);
        assert_eq!(m.base_ns(1, 2), 12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        LatencyMatrix::constant(2, 1).base_ns(2, 0);
    }

    #[test]
    fn jitter_none_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(Jitter::None.sample(&mut rng), 1.0);
    }

    #[test]
    fn jitter_uniform_within_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let f = Jitter::Uniform { spread: 0.3 }.sample(&mut rng);
            assert!((0.7..=1.3).contains(&f), "factor {f}");
        }
    }

    #[test]
    fn jitter_lognormal_positive_and_median_near_one() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut samples: Vec<f64> =
            (0..4001).map(|_| Jitter::LogNormal { sigma: 0.4 }.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(samples[0] > 0.0);
        let median = samples[2000];
        assert!((0.9..=1.1).contains(&median), "median {median}");
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..10 {
            assert_eq!(
                Jitter::LogNormal { sigma: 0.3 }.sample(&mut a),
                Jitter::LogNormal { sigma: 0.3 }.sample(&mut b)
            );
        }
    }
}
