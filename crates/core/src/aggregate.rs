//! The weighted aggregation of Algorithm 2 (lines 14–24), as pure math.
//!
//! Separating this from the protocol machinery lets the paper's analytical
//! claims (Theorem IV.1's `Σ w′ ≥ w²_{l_M}/2` bound, Lemma IV.2's
//! level-weight cancellation) be unit-tested directly on numbers.

/// A level's representative value `V_l` and weight `w_l`
/// (Algorithm 2 line 18 / line 20).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LevelSummary {
    /// Weighted average of the level's checkpoints, or the node's own
    /// input for a weightless level.
    pub value: f64,
    /// Maximum checkpoint weight in the level, or `ε′` for a weightless
    /// level.
    pub weight: f64,
}

/// Aggregates one level's checkpoint weights (Algorithm 2 lines 14–20).
///
/// `checkpoints` pairs each checkpoint's represented value `µ^l_k` with its
/// agreed weight `w^l_k`. If every weight is zero the weighted average is
/// undefined and the algorithm substitutes `(v_i, ε′)` — the caller's own
/// input with a floor weight.
///
/// # Example
///
/// ```
/// use delphi_core::aggregate::level_summary;
///
/// // Two checkpoints at 30 and 40 with weights 1 and 1: average 35.
/// let s = level_summary([(30.0, 1.0), (40.0, 1.0)], 33.0, 1e-7);
/// assert_eq!(s.value, 35.0);
/// assert_eq!(s.weight, 1.0);
///
/// // All-zero weights: fall back to own input with floor weight ε′.
/// let s = level_summary([(30.0, 0.0)], 33.0, 1e-7);
/// assert_eq!(s.value, 33.0);
/// assert_eq!(s.weight, 1e-7);
/// ```
pub fn level_summary(
    checkpoints: impl IntoIterator<Item = (f64, f64)>,
    own_input: f64,
    eps_prime: f64,
) -> LevelSummary {
    let (mut total, mut weighted, mut max_w) = (0.0, 0.0, 0.0f64);
    for (mu, w) in checkpoints {
        total += w;
        weighted += mu * w;
        max_w = max_w.max(w);
    }
    if total <= 0.0 {
        return LevelSummary { value: own_input, weight: eps_prime };
    }
    LevelSummary { value: weighted / total, weight: max_w }
}

/// Combines per-level summaries into the final output (Algorithm 2 lines
/// 21–24): `w′_0 = w_0²`, `w′_l = w_l · |w_l − w_{l−1}|`, output
/// `Σ w′_l V_l / Σ w′_l`.
///
/// The differentiation `|w_l − w_{l−1}|` zeroes the contribution of every
/// level above the first fully-covering one (where `w_l = w_{l−1} = 1`),
/// which is what keeps coarse levels from relaxing validity (Fig. 3).
///
/// # Panics
///
/// Panics if `levels` is empty.
pub fn combine_levels(levels: impl IntoIterator<Item = LevelSummary>) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    let mut first = None::<f64>;
    let mut prev_w = None::<f64>;
    for l in levels {
        first.get_or_insert(l.value);
        let w_prime = match prev_w {
            None => l.weight * l.weight,
            Some(p) => l.weight * (l.weight - p).abs(),
        };
        num += w_prime * l.value;
        den += w_prime;
        prev_w = Some(l.weight);
    }
    assert!(first.is_some(), "at least one level required");
    if den <= 0.0 {
        // Only reachable if every level weight is exactly 0, which the
        // ε′ fallback rules out; kept as a defensive fallback.
        return first.unwrap_or_default();
    }
    num / den
}

/// Theorem IV.1's lower bound on the sum of cross-level weights:
/// `Σ w′ ≥ w²_{l_M} / 2`. Exposed for tests and the analysis benches.
pub fn weight_sum_lower_bound(levels: &[LevelSummary]) -> f64 {
    levels.last().map_or(0.0, |l| l.weight * l.weight / 2.0)
}

/// The actual `Σ w′_l` for a set of level summaries.
pub fn weight_sum(levels: &[LevelSummary]) -> f64 {
    let mut den = 0.0;
    let mut prev_w = None::<f64>;
    for l in levels {
        let w_prime = match prev_w {
            None => l.weight * l.weight,
            Some(p) => l.weight * (l.weight - p).abs(),
        };
        den += w_prime;
        prev_w = Some(l.weight);
    }
    den
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_full_weight_checkpoint_dominates() {
        let s = level_summary([(10.0, 0.0), (20.0, 1.0), (30.0, 0.0)], 99.0, 1e-6);
        assert_eq!(s.value, 20.0);
        assert_eq!(s.weight, 1.0);
    }

    #[test]
    fn fractional_weights_average() {
        let s = level_summary([(0.0, 0.25), (100.0, 0.75)], 0.0, 1e-6);
        assert_eq!(s.value, 75.0);
        assert_eq!(s.weight, 0.75);
    }

    #[test]
    fn combine_kills_levels_above_phi() {
        // Levels 0,1 have zero-ish weight; levels 2..4 all have weight 1
        // (the Fig. 3 situation). Only level 2 may contribute.
        let eps = 1e-7;
        let levels = [
            LevelSummary { value: 10.0, weight: eps },
            LevelSummary { value: 11.0, weight: eps },
            LevelSummary { value: 12.0, weight: 1.0 },
            LevelSummary { value: 500.0, weight: 1.0 },
            LevelSummary { value: 900.0, weight: 1.0 },
        ];
        let out = combine_levels(levels.iter().copied());
        // w'_3 = w'_4 = 0 exactly; contributions of 500/900 vanish.
        assert!((out - 12.0).abs() < 1e-4, "out = {out}");
    }

    #[test]
    fn combine_single_level() {
        let levels = [LevelSummary { value: 42.0, weight: 1.0 }];
        assert_eq!(combine_levels(levels.iter().copied()), 42.0);
    }

    #[test]
    fn termination_bound_holds() {
        let eps = 1e-7;
        let levels = [
            LevelSummary { value: 1.0, weight: eps },
            LevelSummary { value: 2.0, weight: 0.5 },
            LevelSummary { value: 3.0, weight: 1.0 },
        ];
        assert!(weight_sum(&levels) >= weight_sum_lower_bound(&levels));
        assert!(weight_sum_lower_bound(&levels) == 0.5);
    }

    #[test]
    fn all_zero_weights_fall_back() {
        let s = level_summary([], 7.0, 1e-7);
        assert_eq!(s.value, 7.0);
        assert_eq!(s.weight, 1e-7);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn combine_empty_panics() {
        let _ = combine_levels([]);
    }

    proptest! {
        /// Output lies in the convex hull of level values (the weighted
        /// average can never escape its inputs).
        #[test]
        fn prop_output_within_level_hull(
            values in proptest::collection::vec((0.0..1000.0f64, 0.0..=1.0f64), 1..12),
        ) {
            let levels: Vec<LevelSummary> = values
                .iter()
                .map(|&(value, weight)| LevelSummary { value, weight: weight.max(1e-9) })
                .collect();
            let out = combine_levels(levels.iter().copied());
            let lo = levels.iter().map(|l| l.value).fold(f64::INFINITY, f64::min);
            let hi = levels.iter().map(|l| l.value).fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(out >= lo - 1e-9 && out <= hi + 1e-9, "{out} not in [{lo}, {hi}]");
        }

        /// Theorem IV.1: Σ w′ ≥ w²_{l_M}/2 for any weight profile.
        #[test]
        fn prop_weight_sum_lower_bound(
            weights in proptest::collection::vec(0.0..=1.0f64, 1..12),
        ) {
            let levels: Vec<LevelSummary> = weights
                .iter()
                .map(|&weight| LevelSummary { value: 0.0, weight })
                .collect();
            prop_assert!(
                weight_sum(&levels) >= weight_sum_lower_bound(&levels) - 1e-12,
                "sum {} < bound {}",
                weight_sum(&levels),
                weight_sum_lower_bound(&levels)
            );
        }

        /// Level summaries stay within the checkpoint hull.
        #[test]
        fn prop_level_summary_within_hull(
            cps in proptest::collection::vec((-100.0..100.0f64, 0.0..=1.0f64), 1..20),
        ) {
            let s = level_summary(cps.iter().copied(), 0.0, 1e-7);
            if cps.iter().any(|&(_, w)| w > 0.0) {
                let lo = cps.iter().filter(|&&(_, w)| w > 0.0).map(|&(mu, _)| mu).fold(f64::INFINITY, f64::min);
                let hi = cps.iter().filter(|&&(_, w)| w > 0.0).map(|&(mu, _)| mu).fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(s.value >= lo - 1e-9 && s.value <= hi + 1e-9);
            } else {
                prop_assert_eq!(s.value, 0.0);
            }
        }
    }
}
