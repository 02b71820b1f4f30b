//! `--check a.json b.json`: compares two result sets (`--all` files)
//! against the bounds `BENCHMARK.json` fixes, one row per workload ×
//! metric, every ratio with its base.

use crate::json::Json;
use crate::spec::WORKLOADS;
use crate::stats;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The second set's median is worse than the first's by more than
    /// the bound.
    Regressed,
    /// Run-to-run spread exceeds the bound, so neither "unchanged" nor
    /// "regressed" can be claimed.
    Unresolved,
}

/// `better`: `true` when higher is better.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Option<Verdict> {
    let (ma, mb) = (stats::median(a)?, stats::median(b)?);
    let worse_by = if higher_is_better { ma - mb } else { mb - ma } / ma.abs();
    // Quartiles of fewer than four runs are extrapolations, not a spread.
    let spread = [a, b]
        .iter()
        .filter(|v| v.len() >= 4)
        .filter_map(|v| stats::iqr_share(v))
        .fold(0.0, f64::max);
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    Some(if spread > bound {
        // Too noisy to call — unless every run of `b` beats every run of `a`.
        if b.iter().all(|&y| a.iter().all(|&x| better(y, x))) {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    })
}

/// Every run's value of `metric` on `workload` in one result set.
fn values(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    set.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the comparison; `Ok(true)` when nothing regressed and every run
/// of both sets was correct.
pub fn check(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let bench = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    // Every workload the harness knows, listed in `BENCHMARK.json` or not.
    let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let mut clean = true;
    let mut counts = [0usize; 3];
    println!(
        "{:<16} {:<36} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "bound"
    );
    for key in ["end_to_end", "per_layer"] {
        for m in bench.get(key).and_then(Json::as_arr).unwrap_or_default() {
            let Some(name) = m.get("name").and_then(Json::as_str) else { continue };
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            let bound = m.get("bound").and_then(Json::as_f64);
            for w in &workloads {
                let (va, vb) = (values(&a, w, name), values(&b, w, name));
                let (Some(ma), Some(mb)) = (stats::median(&va), stats::median(&vb)) else {
                    continue;
                };
                let ratio = if ma != 0.0 { format!("{:.4}", mb / ma) } else { "-".into() };
                // Per-layer metrics carry no bound: the row is the ratio.
                let word = match bound.and_then(|bound| verdict(&va, &vb, higher, bound)) {
                    Some(Verdict::Ok) => {
                        counts[0] += 1;
                        if va == vb {
                            "ok (exact)"
                        } else {
                            "ok"
                        }
                    }
                    Some(Verdict::Regressed) => {
                        counts[1] += 1;
                        clean = false;
                        "REGRESSED"
                    }
                    Some(Verdict::Unresolved) => {
                        counts[2] += 1;
                        "unresolved"
                    }
                    None if va == vb => "exact",
                    None => "",
                };
                let bound = bound.map_or("-".into(), |b| format!("{b}"));
                println!("{w:<16} {name:<36} {ma:>14.6} {mb:>14.6} {ratio:>8} {bound:>7}  {word}");
            }
        }
    }
    for (label, set) in [(path_a, &a), (path_b, &b)] {
        for w in &workloads {
            let runs = set.get("workloads").and_then(|x| x.get(w)).and_then(Json::as_arr);
            for run in runs.unwrap_or_default() {
                if run.get("correct").and_then(Json::as_bool) != Some(true) {
                    println!("{label}: a run of {w} failed the correctness gate");
                    clean = false;
                }
            }
        }
    }
    println!("{} ok, {} regressed, {} unresolved", counts[0], counts[1], counts[2]);
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within the bound either way.
        assert_eq!(verdict(&base, &[95.0, 96.0, 94.0, 95.5, 94.5], true, 0.10), Some(Verdict::Ok));
        // Higher is better and the median fell 20 %.
        assert_eq!(
            verdict(&base, &[80.0, 81.0, 79.0, 80.5, 79.5], true, 0.10),
            Some(Verdict::Regressed)
        );
        // The same numbers are an improvement when lower is better.
        assert_eq!(verdict(&base, &[80.0, 81.0, 79.0, 80.5, 79.5], false, 0.10), Some(Verdict::Ok));
        // Spread wider than the bound: unresolved, whatever the medians say.
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(verdict(&base, &noisy, true, 0.10), Some(Verdict::Unresolved));
        // ...unless every run of b beats every run of a.
        let faster = [150.0, 190.0, 120.0, 170.0, 135.0];
        assert_eq!(verdict(&base, &faster, true, 0.10), Some(Verdict::Ok));
        // Single runs have no spread: the bound alone decides.
        assert_eq!(verdict(&[100.0], &[120.0], false, 0.10), Some(Verdict::Regressed));
        assert_eq!(verdict(&[], &[1.0], false, 0.10), None);
    }

    #[test]
    fn values_are_read_per_workload_and_metric() {
        let set = Json::parse(
            "{\"workloads\": {\"w\": [{\"metrics\": {\"m\": {\"value\": 1.5, \"unit\": \"s\"}}}, \
             {\"metrics\": {\"m\": {\"value\": 2.5, \"unit\": \"s\"}}}]}}",
        )
        .expect("parses");
        assert_eq!(values(&set, "w", "m"), vec![1.5, 2.5]);
        assert!(values(&set, "w", "other").is_empty());
        assert!(values(&set, "x", "m").is_empty());
    }
}
