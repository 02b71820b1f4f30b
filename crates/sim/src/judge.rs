//! The one oracle every run is judged by, the paper's §IV guarantees:
//! ε-agreement (the honest outputs span at most ε) and δ-relaxed
//! validity (every output lies within `max(ρ0, δ)` of the honest input
//! hull `[m, M]`, `δ = M − m`; inside it for a baseline's exact hull,
//! `rho0 = None`). Every bound has 1e-9 of slack for rounding, and a NaN
//! fails every bound.

use delphi_primitives::{EpochEvent, EpochOutcome};

/// Slack for float rounding on every bound.
const TOLERANCE: f64 = 1e-9;

/// `values`' hull `(min, max)`; `None` when empty or holding a NaN.
fn hull(values: &[f64]) -> Option<(f64, f64)> {
    let first = *values.first()?;
    values
        .iter()
        .try_fold((first, first), |(lo, hi), &v| (!v.is_nan()).then(|| (lo.min(v), hi.max(v))))
}

/// `max − min` of `values`: a set of inputs' δ, or a set of outputs'
/// spread. NaN when empty or holding a NaN.
pub fn spread(values: &[f64]) -> f64 {
    hull(values).map_or(f64::NAN, |(lo, hi)| hi - lo)
}

/// Judges one agreement: the honest `outputs` against the honest
/// `inputs`, validity relaxed by `max(ρ0, δ)` (exact for `None`).
/// Returns the output spread.
///
/// # Errors
///
/// The violated property: no outputs or inputs, an output outside the
/// relaxed hull, or a spread above ε.
pub fn judge(
    outputs: &[f64],
    inputs: &[f64],
    epsilon: f64,
    rho0: Option<f64>,
) -> Result<f64, String> {
    let Some((m, big_m)) = hull(inputs).filter(|_| !outputs.is_empty()) else {
        return Err(format!("outputs {outputs:?} for inputs {inputs:?}"));
    };
    let relax = rho0.map_or(0.0, |rho0| rho0.max(big_m - m)) + TOLERANCE;
    if let Some(o) = outputs.iter().find(|o| !(m - relax..=big_m + relax).contains(o)) {
        return Err(format!("validity: output {o} outside [{m}, {big_m}] ± {relax}"));
    }
    let spread = spread(outputs);
    if !(0.0..=epsilon + TOLERANCE).contains(&spread) {
        return Err(format!("agreement: spread {spread} > ε = {epsilon}"));
    }
    Ok(spread)
}

/// Judges whole ordered streams: each must hold epoch `e` at index `e`
/// as `Agreed` with `assets` values, for all `epochs`; then every
/// `(epoch, asset)` is [`judge`]d against `inputs(epoch, asset)`, the
/// honest inputs. Returns the worst spread.
///
/// # Errors
///
/// A skipped, missing, extra or out-of-order epoch, a short or long
/// basket, or the first failed [`judge`].
pub fn judge_streams<S: AsRef<[EpochEvent<f64>]>>(
    streams: &[S],
    epochs: u32,
    assets: usize,
    mut inputs: impl FnMut(u32, usize) -> Vec<f64>,
    epsilon: f64,
    rho0: Option<f64>,
) -> Result<f64, String> {
    // Each epoch's baskets, one per stream.
    let mut baskets: Vec<Vec<&[f64]>> = vec![Vec::new(); epochs as usize];
    for (i, stream) in streams.iter().map(AsRef::as_ref).enumerate() {
        if stream.len() != baskets.len() {
            return Err(format!("stream {i}: {} events for {epochs} epochs", stream.len()));
        }
        for ((e, event), epoch) in stream.iter().enumerate().zip(&mut baskets) {
            match &event.outcome {
                EpochOutcome::Agreed(basket)
                    if event.epoch.index() == e && basket.len() == assets =>
                {
                    epoch.push(basket)
                }
                outcome => {
                    return Err(format!("stream {i}: {} at index {e}: {outcome:?}", event.epoch))
                }
            }
        }
    }
    let mut worst = 0.0f64;
    for (e, epoch) in (0..).zip(&baskets) {
        for a in 0..assets {
            let outputs: Vec<f64> =
                epoch.iter().filter_map(|basket| basket.get(a).copied()).collect();
            let spread = judge(&outputs, &inputs(e, a), epsilon, rho0)
                .map_err(|why| format!("epoch {e} asset {a}: {why}"))?;
            worst = worst.max(spread);
        }
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use delphi_primitives::EpochId;

    fn agreed(epoch: u32, values: &[f64]) -> EpochEvent<f64> {
        EpochEvent { epoch: EpochId(epoch), outcome: EpochOutcome::Agreed(values.to_vec()) }
    }

    /// Three nodes' streams: two epochs of a two-asset basket, inside the
    /// hulls of [`inputs`].
    fn streams() -> Vec<Vec<EpochEvent<f64>>> {
        (0..3)
            .map(|i| {
                let v = 100.2 + 0.1 * f64::from(i);
                vec![agreed(0, &[v, v + 100.0]), agreed(1, &[v + 1.0, v + 101.0])]
            })
            .collect()
    }

    fn inputs(e: u32, a: usize) -> Vec<f64> {
        let base = 100.0 * (a + 1) as f64 + f64::from(e);
        vec![base, base + 0.5, base + 1.0]
    }

    #[test]
    fn agreeing_outputs_inside_the_hull_pass_with_their_spread() {
        let spread = judge(&[1.0, 1.25, 1.5], &[0.0, 2.0], 0.5, None).unwrap();
        assert_eq!(spread, 0.5);
        assert!(judge(&[1.0, 1.6], &[0.0, 2.0], 0.5, None).unwrap_err().contains("agreement"));
    }

    #[test]
    fn relaxed_validity_allows_max_of_rho0_and_delta_and_no_more() {
        // δ = 1 < ρ0 = 3: 3 around [10, 11].
        assert!(judge(&[14.0], &[10.0, 11.0], 1.0, Some(3.0)).is_ok());
        assert!(judge(&[7.0], &[10.0, 11.0], 1.0, Some(3.0)).is_ok());
        assert!(judge(&[14.01], &[10.0, 11.0], 1.0, Some(3.0)).unwrap_err().contains("validity"));
        assert!(judge(&[6.99], &[10.0, 11.0], 1.0, Some(3.0)).is_err());
        // δ = 4 > ρ0 = 1: 4 around [10, 14].
        assert!(judge(&[18.0], &[10.0, 14.0], 1.0, Some(1.0)).is_ok());
        assert!(judge(&[18.01], &[10.0, 14.0], 1.0, Some(1.0)).is_err());
        // The exact hull of the baselines: its edges pass, one step out fails.
        assert!(judge(&[10.0, 14.0], &[10.0, 14.0], 4.0, None).is_ok());
        assert!(judge(&[14.01], &[10.0, 14.0], 1.0, None).is_err());
        assert!(judge(&[9.99], &[10.0, 14.0], 1.0, None).is_err());
    }

    #[test]
    fn nan_and_empty_sets_fail() {
        assert!(judge(&[f64::NAN], &[1.0], 1.0, Some(1.0)).is_err());
        assert!(judge(&[1.0, f64::NAN], &[1.0], f64::INFINITY, None).is_err());
        assert!(judge(&[1.0], &[1.0, f64::NAN], 1.0, Some(1.0)).is_err());
        assert!(judge(&[1.0], &[1.0], f64::NAN, Some(1.0)).is_err());
        assert!(judge(&[], &[1.0], 1.0, Some(1.0)).is_err());
        assert!(judge(&[1.0], &[], 1.0, Some(1.0)).is_err());
        assert!(spread(&[]).is_nan() && spread(&[2.0, f64::NAN]).is_nan());
        assert_eq!(spread(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn whole_ordered_streams_pass_with_the_worst_spread() {
        let worst = judge_streams(&streams(), 2, 2, inputs, 0.5, Some(0.5)).unwrap();
        assert!((worst - 0.2).abs() < 1e-9, "{worst}");
        // Outputs that agree but sit above the exact hull of epoch 1.
        let err = judge_streams(&streams(), 2, 2, |e, a| inputs(e / 2, a), 0.5, None);
        assert!(err.unwrap_err().contains("epoch 1 asset 0: validity"));
    }

    #[test]
    fn a_skipped_missing_reordered_or_short_epoch_fails() {
        let judged = |streams: &[Vec<EpochEvent<f64>>]| {
            judge_streams(streams, 2, 2, inputs, f64::INFINITY, Some(f64::INFINITY))
        };
        assert!(judged(&streams()).is_ok());
        let mut skipped = streams();
        skipped[1][1].outcome = EpochOutcome::Skipped;
        assert!(judged(&skipped).unwrap_err().contains("stream 1"));
        let mut reordered = streams();
        reordered[2].swap(0, 1);
        assert!(judged(&reordered).unwrap_err().contains("stream 2"));
        let mut short = streams();
        short[0][0] = agreed(0, &[100.2]);
        assert!(judged(&short).unwrap_err().contains("stream 0"));
        let mut missing = streams();
        missing[0].pop();
        assert!(judged(&missing).unwrap_err().contains("1 events for 2 epochs"));
        let mut extra = streams();
        extra[0].push(agreed(2, &[1.0, 2.0]));
        assert!(judged(&extra).is_err());
    }
}
