//! Delphi configuration and parameter derivation (Algorithm 2, Setup).
//!
//! Given the statically agreed system parameters `(s, e, ρ_0, Δ, ε)` and
//! the system size `n`, this module derives exactly what Algorithm 2's
//! setup lines compute:
//!
//! ```text
//! l_M = ⌈log2(Δ / ρ_0)⌉            number of levels above level 0
//! ε′  = ε / (4 · Δ · l_M · n)       per-instance weight agreement target
//! r_M = ⌈log2(1 / ε′)⌉              BinAA rounds per instance
//! ```
//!
//! and validates every input (C-VALIDATE): non-finite or empty ranges,
//! non-positive resolutions, and configurations whose `r_M` would exceed
//! the exact-arithmetic cap are rejected with a descriptive
//! [`ConfigError`] instead of misbehaving at run time.

use std::error::Error;
use std::fmt;

/// Maximum supported BinAA round count.
///
/// Weights are exact binary rationals with denominator `2^r_M`
/// ([`Dyadic`](delphi_primitives::Dyadic)); 32 rounds keeps every weight
/// and midpoint exactly representable with a wide margin. The paper's
/// evaluated configurations need `r_M ≈ 19–23`.
pub const MAX_ROUNDS: u16 = 32;

/// Maximum supported level count (level 0 plus `l_M` coarser levels).
pub const MAX_LEVELS: u8 = 48;

/// How a node maps its input value to per-checkpoint binary votes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum InputRule {
    /// Input 1 to the two checkpoints adjacent to the input value
    /// (`⌊v/ρ_l⌋` and `⌊v/ρ_l⌋ + 1`), 0 elsewhere — Algorithm 2 line 10–11.
    #[default]
    TwoClosest,
    /// Input 1 to every checkpoint within `ρ_l` of the input value (up to
    /// three) — the §III-B1 prose variant, kept for ablation.
    WithinRho,
}

/// Invalid Delphi configuration.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// `n` must be at least 1.
    ZeroNodes,
    /// A numeric parameter was NaN or infinite.
    NonFinite(&'static str),
    /// A parameter that must be strictly positive was not.
    NonPositive(&'static str),
    /// The value space `[s, e]` was empty or inverted.
    EmptySpace {
        /// Lower end supplied.
        s: f64,
        /// Upper end supplied.
        e: f64,
    },
    /// `Δ < ρ_0`: the coarsest level would not cover the input range bound.
    DeltaBelowRho0 {
        /// Supplied `Δ`.
        delta_max: f64,
        /// Supplied `ρ_0`.
        rho0: f64,
    },
    /// Derived `r_M` exceeds [`MAX_ROUNDS`].
    TooManyRounds {
        /// The `r_M` the parameters would need.
        required: u32,
    },
    /// Derived `l_M` exceeds [`MAX_LEVELS`].
    TooManyLevels {
        /// The `l_M` the parameters would need.
        required: u32,
    },
    /// The checkpoint index range would overflow `i64`.
    SpaceTooWide,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroNodes => write!(f, "system size n must be at least 1"),
            ConfigError::NonFinite(p) => write!(f, "parameter {p} must be finite"),
            ConfigError::NonPositive(p) => write!(f, "parameter {p} must be strictly positive"),
            ConfigError::EmptySpace { s, e } => {
                write!(f, "value space [{s}, {e}] is empty")
            }
            ConfigError::DeltaBelowRho0 { delta_max, rho0 } => {
                write!(f, "delta_max {delta_max} must be at least rho0 {rho0}")
            }
            ConfigError::TooManyRounds { required } => {
                write!(f, "parameters need r_M = {required} rounds, maximum is {MAX_ROUNDS}")
            }
            ConfigError::TooManyLevels { required } => {
                write!(f, "parameters need l_M = {required} levels, maximum is {MAX_LEVELS}")
            }
            ConfigError::SpaceTooWide => {
                write!(f, "checkpoint indices for [s, e] at rho0 overflow i64")
            }
        }
    }
}

impl Error for ConfigError {}

/// Complete, validated Delphi protocol configuration.
///
/// Construct via [`DelphiConfig::builder`]. The configuration is shared by
/// all nodes of a deployment (it is part of the common setup, like the
/// paper's statically-set `ρ_0` and `Δ`).
///
/// # Example
///
/// ```
/// use delphi_core::DelphiConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // The paper's oracle-network configuration (§VI-A).
/// let cfg = DelphiConfig::builder(160)
///     .space(0.0, 100_000.0)
///     .rho0(2.0)
///     .delta_max(2000.0)
///     .epsilon(2.0)
///     .build()?;
/// assert_eq!(cfg.l_max(), 10);  // ceil(log2(2000/2))
/// assert_eq!(cfg.r_max(), 23);  // ceil(log2(1/eps'))
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DelphiConfig {
    n: usize,
    t: usize,
    s: f64,
    e: f64,
    rho0: f64,
    delta_max: f64,
    epsilon: f64,
    input_rule: InputRule,
    // Derived.
    l_max: u8,
    r_max: u16,
    eps_prime: f64,
}

impl DelphiConfig {
    /// Starts building a configuration for an `n`-node system.
    pub fn builder(n: usize) -> DelphiConfigBuilder {
        DelphiConfigBuilder {
            n,
            s: 0.0,
            e: 1_000_000.0,
            rho0: 1.0,
            delta_max: 1024.0,
            epsilon: 1.0,
            input_rule: InputRule::TwoClosest,
        }
    }

    /// System size `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Fault threshold `t = ⌊(n − 1)/3⌋`.
    pub fn t(&self) -> usize {
        self.t
    }

    /// Lower end of the value space.
    pub fn s(&self) -> f64 {
        self.s
    }

    /// Level-0 checkpoint separation `ρ_0`.
    pub fn rho0(&self) -> f64 {
        self.rho0
    }

    /// Assumed bound `Δ` on the honest input range.
    pub fn delta_max(&self) -> f64 {
        self.delta_max
    }

    /// Output agreement distance `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The checkpoint input rule.
    pub fn input_rule(&self) -> InputRule {
        self.input_rule
    }

    /// Highest level index `l_M`; levels are `0..=l_max`.
    pub fn l_max(&self) -> u8 {
        self.l_max
    }

    /// Number of levels (`l_max + 1`).
    pub fn num_levels(&self) -> usize {
        usize::from(self.l_max) + 1
    }

    /// BinAA rounds per instance, `r_M = ⌈log2(1/ε′)⌉`.
    pub fn r_max(&self) -> u16 {
        self.r_max
    }

    /// Per-instance weight agreement target `ε′ = ε / (4 Δ l_M n)`.
    pub fn eps_prime(&self) -> f64 {
        self.eps_prime
    }

    /// Checkpoint separation `ρ_l = 2^l · ρ_0` at `level`.
    pub fn rho_at(&self, level: u8) -> f64 {
        self.rho0 * 2f64.powi(i32::from(level))
    }

    /// Inclusive checkpoint index range `[⌈s/ρ_l⌉, ⌊e/ρ_l⌋]` at `level`.
    pub fn checkpoint_range(&self, level: u8) -> (i64, i64) {
        let rho = self.rho_at(level);
        ((self.s / rho).ceil() as i64, (self.e / rho).floor() as i64)
    }

    /// The value `µ^l_k = k · ρ_l` represented by checkpoint `k` at `level`.
    pub fn checkpoint_value(&self, level: u8, k: i64) -> f64 {
        k as f64 * self.rho_at(level)
    }

    /// The checkpoints to which a node with input `v` votes 1 at `level`,
    /// per the configured [`InputRule`], clamped to the level's range.
    pub fn one_checkpoints(&self, level: u8, v: f64) -> Vec<i64> {
        let rho = self.rho_at(level);
        let (k_min, k_max) = self.checkpoint_range(level);
        let lo = (v / rho).floor() as i64;
        let candidates: Vec<i64> = match self.input_rule {
            InputRule::TwoClosest => vec![lo, lo + 1],
            InputRule::WithinRho => {
                // All k with |v − kρ| ≤ ρ.
                let from = ((v - rho) / rho).ceil() as i64;
                let to = ((v + rho) / rho).floor() as i64;
                (from..=to).collect()
            }
        };
        let mut ks: Vec<i64> = candidates.into_iter().map(|k| k.clamp(k_min, k_max)).collect();
        ks.dedup();
        ks
    }

    /// Clamps an input value into the admissible space `[s, e]`.
    pub fn clamp_input(&self, v: f64) -> f64 {
        v.clamp(self.s, self.e)
    }
}

/// Builder for [`DelphiConfig`] (see there for an example).
#[derive(Clone, Debug)]
pub struct DelphiConfigBuilder {
    n: usize,
    s: f64,
    e: f64,
    rho0: f64,
    delta_max: f64,
    epsilon: f64,
    input_rule: InputRule,
}

impl DelphiConfigBuilder {
    /// Sets the admissible value space `[s, e]`.
    pub fn space(mut self, s: f64, e: f64) -> Self {
        self.s = s;
        self.e = e;
        self
    }

    /// Sets the level-0 checkpoint separation `ρ_0`.
    pub fn rho0(mut self, rho0: f64) -> Self {
        self.rho0 = rho0;
        self
    }

    /// Sets the honest-input range bound `Δ`.
    pub fn delta_max(mut self, delta_max: f64) -> Self {
        self.delta_max = delta_max;
        self
    }

    /// Sets the agreement distance `ε`.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the checkpoint input rule (default: [`InputRule::TwoClosest`]).
    pub fn input_rule(mut self, rule: InputRule) -> Self {
        self.input_rule = rule;
        self
    }

    /// Validates the parameters and derives `l_M`, `ε′`, and `r_M`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated constraint.
    pub fn build(self) -> Result<DelphiConfig, ConfigError> {
        let DelphiConfigBuilder { n, s, e, rho0, delta_max, epsilon, input_rule } = self;
        if n == 0 {
            return Err(ConfigError::ZeroNodes);
        }
        for (name, v) in
            [("s", s), ("e", e), ("rho0", rho0), ("delta_max", delta_max), ("epsilon", epsilon)]
        {
            if !v.is_finite() {
                return Err(ConfigError::NonFinite(name));
            }
        }
        for (name, v) in [("rho0", rho0), ("delta_max", delta_max), ("epsilon", epsilon)] {
            if v <= 0.0 {
                return Err(ConfigError::NonPositive(name));
            }
        }
        if e <= s {
            return Err(ConfigError::EmptySpace { s, e });
        }
        if delta_max < rho0 {
            return Err(ConfigError::DeltaBelowRho0 { delta_max, rho0 });
        }
        // Checkpoint indices at level 0 must fit comfortably in i64.
        if (s / rho0).abs() > 1e15 || (e / rho0).abs() > 1e15 {
            return Err(ConfigError::SpaceTooWide);
        }

        let t = (n - 1) / 3;
        // l_M = ceil(log2(Δ/ρ0)); Δ = ρ0 gives a single level (l_M = 0).
        let l_max_f = (delta_max / rho0).log2().ceil().max(0.0);
        if l_max_f > f64::from(MAX_LEVELS) {
            return Err(ConfigError::TooManyLevels { required: l_max_f as u32 });
        }
        let l_max = l_max_f as u8;
        // ε′ = ε / (4 Δ l_M n), with l_M clamped to ≥ 1 so the single-level
        // configuration stays well-defined.
        let lm_for_eps = f64::from(l_max).max(1.0);
        let eps_prime = epsilon / (4.0 * delta_max * lm_for_eps * n as f64);
        let r_max_f = (1.0 / eps_prime).log2().ceil().max(1.0);
        if r_max_f > f64::from(MAX_ROUNDS) {
            return Err(ConfigError::TooManyRounds { required: r_max_f as u32 });
        }
        let r_max = r_max_f as u16;

        Ok(DelphiConfig {
            n,
            t,
            s,
            e,
            rho0,
            delta_max,
            epsilon,
            input_rule,
            l_max,
            r_max,
            eps_prime,
        })
    }
}

#[cfg(test)]
impl DelphiConfig {
    /// Quorum size `n − t`.
    pub fn quorum(&self) -> usize {
        self.n - self.t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle_cfg(n: usize) -> DelphiConfig {
        DelphiConfig::builder(n)
            .space(0.0, 100_000.0)
            .rho0(2.0)
            .delta_max(2000.0)
            .epsilon(2.0)
            .build()
            .unwrap()
    }

    #[test]
    fn paper_oracle_parameters() {
        // §VI-A: ρ0 = ε = 2$, Δ = 2000$, n = 160.
        let cfg = oracle_cfg(160);
        assert_eq!(cfg.l_max(), 10); // log2(1000) = 9.97 -> 10
        assert_eq!(cfg.num_levels(), 11);
        // ε' = 2 / (4·2000·10·160) = 1.5625e-7; r_M = ceil(log2(6.4e6)) = 23.
        assert!((cfg.eps_prime() - 1.5625e-7).abs() < 1e-12);
        assert_eq!(cfg.r_max(), 23);
        assert_eq!(cfg.t(), 53);
        assert_eq!(cfg.quorum(), 107);
    }

    #[test]
    fn rounds_grow_with_n_under_the_paper_parameters() {
        // ε' = 2 / (4·2000·10·n) = 1 / (40 000 n), so r_M = ⌈log2(40 000 n)⌉:
        // 19.3 → 20, 21.3 → 22 and 22.6 → 23 at the scales `fig_e2e` and
        // the paper run. From n = 16 to 64 the rounds alone grow ×1.10.
        for (n, r_max) in [(16, 20), (64, 22), (160, 23)] {
            let cfg = oracle_cfg(n);
            assert_eq!(cfg.l_max(), 10, "n = {n}");
            assert_eq!(cfg.r_max(), r_max, "n = {n}");
        }
    }

    #[test]
    fn paper_cps_parameters() {
        // §VI-B: ρ0 = ε = 0.5 m, Δ = 50 m, n = 169.
        let cfg = DelphiConfig::builder(169)
            .space(-10_000.0, 10_000.0)
            .rho0(0.5)
            .delta_max(50.0)
            .epsilon(0.5)
            .build()
            .unwrap();
        assert_eq!(cfg.l_max(), 7); // ceil(log2(100))
                                    // ε' = 0.5/(4·50·7·169) = 2.11e-6 -> r_M = ceil(log2(473200)) = 19.
        assert_eq!(cfg.r_max(), 19);
    }

    #[test]
    fn rho_doubles_per_level() {
        let cfg = oracle_cfg(16);
        assert_eq!(cfg.rho_at(0), 2.0);
        assert_eq!(cfg.rho_at(1), 4.0);
        assert_eq!(cfg.rho_at(10), 2048.0);
    }

    #[test]
    fn checkpoint_range_and_values() {
        let cfg = DelphiConfig::builder(4)
            .space(0.0, 100.0)
            .rho0(10.0)
            .delta_max(40.0)
            .epsilon(10.0)
            .build()
            .unwrap();
        assert_eq!(cfg.checkpoint_range(0), (0, 10));
        assert_eq!(cfg.checkpoint_value(0, 3), 30.0);
        assert_eq!(cfg.checkpoint_range(1), (0, 5));
        assert_eq!(cfg.checkpoint_value(1, 3), 60.0);
    }

    #[test]
    fn negative_space_checkpoints() {
        let cfg = DelphiConfig::builder(4)
            .space(-100.0, 100.0)
            .rho0(10.0)
            .delta_max(40.0)
            .epsilon(10.0)
            .build()
            .unwrap();
        assert_eq!(cfg.checkpoint_range(0), (-10, 10));
        assert_eq!(cfg.checkpoint_value(0, -3), -30.0);
    }

    #[test]
    fn two_closest_rule() {
        let cfg = DelphiConfig::builder(4)
            .space(0.0, 100.0)
            .rho0(10.0)
            .delta_max(40.0)
            .epsilon(10.0)
            .build()
            .unwrap();
        assert_eq!(cfg.one_checkpoints(0, 34.0), vec![3, 4]);
        // Exactly on a checkpoint: k and k+1 (ties go right).
        assert_eq!(cfg.one_checkpoints(0, 30.0), vec![3, 4]);
        // Clamped at the space edge.
        assert_eq!(cfg.one_checkpoints(0, 99.0), vec![9, 10]);
        assert_eq!(cfg.one_checkpoints(0, 100.0), vec![10]);
        assert_eq!(cfg.one_checkpoints(0, 0.0), vec![0, 1]);
    }

    #[test]
    fn within_rho_rule() {
        let cfg = DelphiConfig::builder(4)
            .space(0.0, 100.0)
            .rho0(10.0)
            .delta_max(40.0)
            .epsilon(10.0)
            .input_rule(InputRule::WithinRho)
            .build()
            .unwrap();
        // |34 − k·10| ≤ 10 for k ∈ {3, 4}.
        assert_eq!(cfg.one_checkpoints(0, 34.0), vec![3, 4]);
        // Exactly on checkpoint 3: k ∈ {2, 3, 4}.
        assert_eq!(cfg.one_checkpoints(0, 30.0), vec![2, 3, 4]);
    }

    #[test]
    fn clamp_input() {
        let cfg = oracle_cfg(4);
        assert_eq!(cfg.clamp_input(-5.0), 0.0);
        assert_eq!(cfg.clamp_input(42.0), 42.0);
        assert_eq!(cfg.clamp_input(1e9), 100_000.0);
    }

    #[test]
    fn rejects_invalid_parameters() {
        let base =
            || DelphiConfig::builder(4).space(0.0, 100.0).rho0(1.0).delta_max(10.0).epsilon(1.0);
        assert_eq!(DelphiConfig::builder(0).build().unwrap_err(), ConfigError::ZeroNodes);
        assert_eq!(
            base().epsilon(f64::NAN).build().unwrap_err(),
            ConfigError::NonFinite("epsilon")
        );
        assert_eq!(base().rho0(0.0).build().unwrap_err(), ConfigError::NonPositive("rho0"));
        assert_eq!(
            base().space(5.0, 5.0).build().unwrap_err(),
            ConfigError::EmptySpace { s: 5.0, e: 5.0 }
        );
        assert_eq!(
            base().delta_max(0.5).build().unwrap_err(),
            ConfigError::DeltaBelowRho0 { delta_max: 0.5, rho0: 1.0 }
        );
        assert!(matches!(
            base().epsilon(1e-9).build().unwrap_err(),
            ConfigError::TooManyRounds { .. }
        ));
        assert!(matches!(
            base().space(0.0, 1e18).rho0(1e-3).delta_max(1.0).epsilon(1e-1).build().unwrap_err(),
            ConfigError::SpaceTooWide
        ));
    }

    #[test]
    fn single_level_config_is_valid() {
        // Δ = ρ0: one level only.
        let cfg = DelphiConfig::builder(7)
            .space(0.0, 10.0)
            .rho0(1.0)
            .delta_max(1.0)
            .epsilon(0.5)
            .build()
            .unwrap();
        assert_eq!(cfg.l_max(), 0);
        assert_eq!(cfg.num_levels(), 1);
        assert!(cfg.r_max() >= 1);
    }

    #[test]
    fn fault_threshold_floors() {
        for (n, t) in [(1, 0), (3, 0), (4, 1), (7, 2), (16, 5), (160, 53)] {
            let cfg = DelphiConfig::builder(n)
                .space(0.0, 10.0)
                .rho0(1.0)
                .delta_max(2.0)
                .epsilon(1.0)
                .build()
                .unwrap();
            assert_eq!(cfg.t(), t, "n = {n}");
        }
    }

    #[test]
    fn error_display_messages() {
        let errs: Vec<ConfigError> = vec![
            ConfigError::ZeroNodes,
            ConfigError::NonFinite("x"),
            ConfigError::NonPositive("y"),
            ConfigError::EmptySpace { s: 1.0, e: 0.0 },
            ConfigError::DeltaBelowRho0 { delta_max: 1.0, rho0: 2.0 },
            ConfigError::TooManyRounds { required: 50 },
            ConfigError::TooManyLevels { required: 99 },
            ConfigError::SpaceTooWide,
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
