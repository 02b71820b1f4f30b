//! The correctness gate: every run's outputs are checked against the
//! pre-generated inputs before any metric is reported.
//!
//! An epoch fails when any live node's stream does not hold it at its
//! own index (strict epoch order, nothing missing), when it is `Skipped`,
//! when two live nodes' outputs differ by more than ε, or when an output
//! leaves the hull of the live nodes' inputs by more than ρ0 + ε (the
//! paper's relaxed validity: outputs sit on the ρ0-spaced checkpoint
//! grid).

use crate::sut::{EpochEvent, EpochOutcome, Inputs, EPSILON, RHO0};

/// Absolute slack for f64 round-off in the two comparisons.
const ROUND_OFF: f64 = 1e-9;

#[derive(Debug, Default, PartialEq)]
pub struct GateReport {
    pub attempted: u64,
    pub failed: u64,
    /// Widest disagreement between live nodes on any agreement.
    pub spread_max: f64,
    pub first_failure: Option<String>,
}

impl GateReport {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }
}

/// Checks `streams[i]`, the ordered event stream of node `live[i]`,
/// for epochs `0..epochs`.
pub fn check_streams(
    inputs: &Inputs,
    live: &[usize],
    basket: usize,
    epochs: u32,
    streams: &[Vec<EpochEvent<f64>>],
) -> GateReport {
    let mut report = GateReport { attempted: u64::from(epochs), ..GateReport::default() };
    if streams.len() != live.len() || live.is_empty() {
        report.failed = report.attempted;
        report.first_failure =
            Some(format!("{} streams for {} live nodes", streams.len(), live.len()));
        return report;
    }
    for epoch in 0..epochs {
        match check_epoch(inputs, live, basket, epoch, streams) {
            Ok(spread) => report.spread_max = report.spread_max.max(spread),
            Err(why) => report.fail(format!("epoch {epoch}: {why}")),
        }
    }
    for (node, stream) in live.iter().zip(streams) {
        if stream.len() > epochs as usize {
            report.fail(format!("node {node} emitted {} events for {epochs} epochs", stream.len()));
        }
    }
    report
}

fn check_epoch(
    inputs: &Inputs,
    live: &[usize],
    basket: usize,
    epoch: u32,
    streams: &[Vec<EpochEvent<f64>>],
) -> Result<f64, String> {
    let mut outputs: Vec<&[f64]> = Vec::with_capacity(live.len());
    for (node, stream) in live.iter().zip(streams) {
        let event = stream.get(epoch as usize).ok_or_else(|| format!("missing at node {node}"))?;
        if event.epoch.0 != epoch {
            return Err(format!("node {node} holds epoch {} at this index", event.epoch.0));
        }
        match &event.outcome {
            EpochOutcome::Agreed(values) if values.len() == basket => outputs.push(values),
            EpochOutcome::Agreed(values) => {
                return Err(format!("node {node} agreed {} of {basket} assets", values.len()))
            }
            EpochOutcome::Skipped => return Err(format!("skipped at node {node}")),
        }
    }
    let mut widest = 0.0f64;
    for asset in 0..basket {
        let outs = outputs.iter().filter_map(|values| values.get(asset).copied());
        let (lo, hi) = hull(outs).ok_or("no outputs")?;
        // NaN outputs must fail, so the comparison is on "within", negated.
        let within = hi - lo <= EPSILON + ROUND_OFF;
        if !within {
            return Err(format!("asset {asset} outputs spread {} > ε", hi - lo));
        }
        widest = widest.max(hi - lo);
        let row = inputs.row(epoch, asset);
        let honest = live.iter().filter_map(|&node| row.get(node).copied());
        let (in_lo, in_hi) = hull(honest).ok_or("no inputs generated for this epoch")?;
        let slack = RHO0 + EPSILON + ROUND_OFF;
        let within = lo >= in_lo - slack && hi <= in_hi + slack;
        if !within {
            return Err(format!(
                "asset {asset} outputs [{lo}, {hi}] leave the input hull [{in_lo}, {in_hi}]"
            ));
        }
    }
    Ok(widest)
}

fn hull(values: impl Iterator<Item = f64>) -> Option<(f64, f64)> {
    values.fold(None, |acc, v| match acc {
        None => Some((v, v)),
        Some((lo, hi)) => Some((lo.min(v), hi.max(v))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::EpochId;

    fn agreed(epoch: u32, values: &[f64]) -> EpochEvent<f64> {
        EpochEvent { epoch: EpochId(epoch), outcome: EpochOutcome::Agreed(values.to_vec()) }
    }

    /// A stream that outputs each epoch's lowest live input plus `shift`.
    fn stream(
        inputs: &Inputs,
        live: &[usize],
        basket: usize,
        epochs: u32,
        shift: f64,
    ) -> Vec<EpochEvent<f64>> {
        (0..epochs)
            .map(|e| {
                let values: Vec<f64> = (0..basket)
                    .map(|a| {
                        let row = inputs.row(e, a);
                        hull(live.iter().map(|&n| row[n])).map_or(0.0, |(lo, _)| lo + shift)
                    })
                    .collect();
                agreed(e, &values)
            })
            .collect()
    }

    #[test]
    fn gate_accepts_valid_streams_and_names_each_violation() {
        let (n, basket, epochs) = (4usize, 2usize, 6u32);
        let inputs = Inputs::generate(11, n, basket as u16, epochs);
        let live = [0usize, 1, 2];
        let good: Vec<_> =
            (0..3).map(|i| stream(&inputs, &live, basket, epochs, i as f64 * 0.5)).collect();
        let ok = check_streams(&inputs, &live, basket, epochs, &good);
        assert_eq!((ok.attempted, ok.failed), (6, 0), "{:?}", ok.first_failure);
        assert!((ok.spread_max - 1.0).abs() < 1e-9);

        // ε-agreement: one node 2.5 away from another.
        let mut bad = good.clone();
        bad[2] = stream(&inputs, &live, basket, epochs, 2.5);
        assert_eq!(check_streams(&inputs, &live, basket, epochs, &bad).failed, 6);

        // Validity: everyone agrees, far below the hull.
        let low: Vec<_> = (0..3).map(|_| stream(&inputs, &live, basket, epochs, -4.5)).collect();
        assert_eq!(check_streams(&inputs, &live, basket, epochs, &low).failed, 6);

        // Order: two epochs swapped at one node fail exactly those two.
        let mut swapped = good.clone();
        swapped[1].swap(2, 3);
        let r = check_streams(&inputs, &live, basket, epochs, &swapped);
        assert_eq!(r.failed, 2, "{:?}", r.first_failure);

        // Skipped and missing epochs.
        let mut skipped = good.clone();
        skipped[0][4].outcome = EpochOutcome::Skipped;
        skipped[2].truncate(5);
        assert_eq!(check_streams(&inputs, &live, basket, epochs, &skipped).failed, 2);

        // A stream per live node, or nothing counts.
        assert_eq!(check_streams(&inputs, &live, basket, epochs, &good[..2]).failed, 6);
    }
}
