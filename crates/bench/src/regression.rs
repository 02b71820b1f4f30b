//! The bench regression gate: compares a fresh `BENCH_JSON` run against a
//! checked-in reference and fails on regressions.
//!
//! The vendored criterion stub emits one JSON-Lines record per benchmark
//! (`{"id":…,"median_ns":…}`); the reference files (`BENCH_micro.json`,
//! `BENCH_protocols.json`, `BENCH_ablation.json` at the workspace root)
//! were recorded on the reference machine. Because CI runners differ in
//! absolute speed, and drift within a run, the gate supports *normalized*
//! comparison: the median ratio of the [`FACTOR_WINDOW`] benchmarks
//! around each one in run order is its machine-speed factor, and a
//! benchmark regresses only if it is more than the tolerance slower than
//! that factor predicts. On the reference machine itself the factor is
//! ≈ 1 and the gate degrades to a plain ±tolerance check.

use std::fmt;

/// One benchmark's record from a `BENCH_JSON` file.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Benchmark id (`group/name`).
    pub id: String,
    /// Median per-iteration time in nanoseconds.
    pub median_ns: f64,
}

impl BenchRecord {
    /// Parses every record out of a JSON-Lines `BENCH_JSON` body
    /// (unparsable lines are skipped — the stub writes nothing else, so a
    /// foreign line means a truncated write, which the id comparison then
    /// flags as missing).
    pub fn parse_lines(text: &str) -> Vec<BenchRecord> {
        text.lines()
            .filter_map(|line| {
                let id = json_str(line, "id")?;
                let median_ns = json_num(line, "median_ns")?;
                Some(BenchRecord { id, median_ns })
            })
            .collect()
    }
}

fn json_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    Some(rest[..rest.find('"')?].to_string())
}

fn json_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One benchmark's verdict inside a [`GateReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    /// Benchmark id.
    pub id: String,
    /// Reference median (ns).
    pub reference_ns: f64,
    /// Fresh median (ns), `None` when the fresh run is missing the id.
    pub fresh_ns: Option<f64>,
    /// `fresh / reference`, normalized by the machine-speed factor when
    /// normalization is on.
    pub ratio: Option<f64>,
    /// Whether this benchmark fails the gate.
    pub regressed: bool,
}

/// The gate's overall result.
#[derive(Clone, Debug)]
pub struct GateReport {
    /// Per-benchmark verdicts, reference order.
    pub verdicts: Vec<Verdict>,
    /// The suite's median machine-speed factor (1.0 when normalization is
    /// off or no benchmark overlaps).
    pub speed_factor: f64,
    /// The tolerance the gate ran with.
    pub tolerance: f64,
}

impl GateReport {
    /// Whether any benchmark regressed (or went missing).
    pub fn failed(&self) -> bool {
        self.verdicts.iter().any(|v| v.regressed)
    }

    /// The failing benchmark ids.
    pub fn regressions(&self) -> impl Iterator<Item = &Verdict> {
        self.verdicts.iter().filter(|v| v.regressed)
    }
}

impl fmt::Display for GateReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "bench gate: tolerance ±{:.0}%, machine-speed factor {:.3}",
            self.tolerance * 100.0,
            self.speed_factor
        )?;
        for v in &self.verdicts {
            match (v.fresh_ns, v.ratio) {
                (Some(fresh), Some(ratio)) => writeln!(
                    f,
                    "  {:<44} ref {:>12.1} ns  fresh {:>12.1} ns  x{ratio:<6.3} {}",
                    v.id,
                    v.reference_ns,
                    fresh,
                    if v.regressed { "REGRESSED" } else { "ok" }
                )?,
                _ => writeln!(
                    f,
                    "  {:<44} ref {:>12.1} ns  fresh      MISSING  REGRESSED",
                    v.id, v.reference_ns
                )?,
            }
        }
        Ok(())
    }
}

/// Absolute slack added on top of the relative tolerance before a
/// benchmark counts as regressed.
///
/// Sub-10 ns benchmarks (`dyadic_cmp` is ~3 ns) jitter by whole
/// nanoseconds on shared CI runners — there a ±30% band is narrower than
/// the measurement granularity, and the suite-median speed factor
/// (dominated by µs-scale benches) cannot correct for it. Five
/// nanoseconds is far below any regression worth acting on and
/// negligible against µs-scale references.
pub const ABSOLUTE_SLACK_NS: f64 = 5.0;

/// Benchmarks, one and its neighbours in run order, whose median ratio is
/// its machine-speed factor: drift moves only the rows it slowed.
pub const FACTOR_WINDOW: usize = 9;

/// Compares `fresh` against `reference` with a relative `tolerance`
/// (0.30 = ±30%).
///
/// With `normalize` on, every ratio is divided by the median ratio of the
/// [`FACTOR_WINDOW`] overlapping benchmarks around it in the fresh run's
/// order (or of the suite, when fewer overlap) before the tolerance
/// check, so a slower machine, or one whose speed drifts during the run,
/// does not trip the gate — only benchmarks that regressed *relative to
/// their neighbours* do. A reference id missing from the fresh run always
/// fails (renames must refresh the reference file). Fresh-only ids are
/// ignored: new benchmarks land in the reference on their own PR.
pub fn compare(
    reference: &[BenchRecord],
    fresh: &[BenchRecord],
    tolerance: f64,
    normalize: bool,
) -> GateReport {
    let fresh_of = |id: &str| fresh.iter().find(|r| r.id == id).map(|r| r.median_ns);
    // The overlapping benchmarks' ratios, in run order.
    let run: Vec<(&str, f64)> = fresh
        .iter()
        .filter_map(|f| {
            let ratio = f.median_ns / reference.iter().find(|r| r.id == f.id)?.median_ns;
            (ratio.is_finite() && ratio > 0.0).then_some((f.id.as_str(), ratio))
        })
        .collect();
    let median = |rows: &[(&str, f64)]| {
        let mut ratios: Vec<f64> = rows.iter().map(|&(_, ratio)| ratio).collect();
        ratios.sort_by(f64::total_cmp);
        ratios.get(ratios.len() / 2).copied().filter(|_| normalize).unwrap_or(1.0)
    };
    let speed_factor = median(&run);
    let factor_of = |id: &str| match run.iter().position(|&(row, _)| row == id) {
        Some(at) if run.len() >= FACTOR_WINDOW => {
            let start = at.saturating_sub(FACTOR_WINDOW / 2).min(run.len() - FACTOR_WINDOW);
            median(run.get(start..start + FACTOR_WINDOW).unwrap_or_default())
        }
        _ => speed_factor,
    };

    let verdicts = reference
        .iter()
        .map(|r| {
            let fresh_ns = fresh_of(&r.id);
            let factor = factor_of(&r.id);
            let ratio = fresh_ns.map(|f| f / r.median_ns / factor);
            let regressed = match fresh_ns {
                Some(f) => f > r.median_ns * factor * (1.0 + tolerance) + ABSOLUTE_SLACK_NS,
                None => true,
            };
            Verdict { id: r.id.clone(), reference_ns: r.median_ns, fresh_ns, ratio, regressed }
        })
        .collect();
    GateReport { verdicts, speed_factor, tolerance }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: &str, median_ns: f64) -> BenchRecord {
        BenchRecord { id: id.to_string(), median_ns }
    }

    #[test]
    fn parses_the_stub_format() {
        let text = concat!(
            "{\"id\":\"crypto/sha256_1k\",\"median_ns\":4432.4,\"min_ns\":4261.7,",
            "\"max_ns\":6414.6,\"iters\":1797,\"samples\":40}\n",
            "garbage line\n",
            "{\"id\":\"wire/decode\",\"median_ns\":1231.0,\"min_ns\":1.0,",
            "\"max_ns\":2.0,\"iters\":1,\"samples\":2}\n",
        );
        let recs = BenchRecord::parse_lines(text);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0], rec("crypto/sha256_1k", 4432.4));
        assert_eq!(recs[1].id, "wire/decode");
    }

    #[test]
    fn within_tolerance_passes() {
        let reference = [rec("a", 100.0), rec("b", 200.0)];
        let fresh = [rec("a", 120.0), rec("b", 190.0)];
        let report = compare(&reference, &fresh, 0.30, false);
        assert!(!report.failed(), "{report}");
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        let reference = [rec("a", 100.0), rec("b", 200.0)];
        let fresh = [rec("a", 140.0), rec("b", 190.0)];
        let report = compare(&reference, &fresh, 0.30, false);
        assert!(report.failed());
        let ids: Vec<&str> = report.regressions().map(|v| v.id.as_str()).collect();
        assert_eq!(ids, ["a"]);
    }

    #[test]
    fn normalization_forgives_a_uniformly_slower_machine() {
        // Everything is 2× slower (a slower CI runner): plain comparison
        // fails everywhere, normalized passes everywhere.
        let reference = [rec("a", 100.0), rec("b", 200.0), rec("c", 400.0)];
        let fresh = [rec("a", 200.0), rec("b", 400.0), rec("c", 800.0)];
        assert!(compare(&reference, &fresh, 0.30, false).failed());
        let report = compare(&reference, &fresh, 0.30, true);
        assert_eq!(report.speed_factor, 2.0);
        assert!(!report.failed(), "{report}");
    }

    #[test]
    fn normalization_still_catches_a_single_regression() {
        // Machine is uniformly 2× slower *and* one benchmark regressed 3×
        // on top: only that one should fail.
        let reference = [rec("a", 100.0), rec("b", 200.0), rec("c", 400.0)];
        let fresh = [rec("a", 200.0), rec("b", 1200.0), rec("c", 800.0)];
        let report = compare(&reference, &fresh, 0.30, true);
        assert!(report.failed());
        let ids: Vec<&str> = report.regressions().map(|v| v.id.as_str()).collect();
        assert_eq!(ids, ["b"]);
    }

    #[test]
    fn nanosecond_scale_benchmarks_get_absolute_slack() {
        // 3.4 ns -> 4.6 ns is +35% but only 1.2 ns — measurement noise on
        // a shared runner, not a regression. The same +35% at µs scale
        // still fails.
        let reference = [rec("tiny", 3.4), rec("big", 10_000.0)];
        let fresh = [rec("tiny", 4.6), rec("big", 10_000.0)];
        assert!(!compare(&reference, &fresh, 0.30, false).failed());
        let fresh = [rec("tiny", 3.4), rec("big", 13_500.0)];
        let report = compare(&reference, &fresh, 0.30, false);
        let ids: Vec<&str> = report.regressions().map(|v| v.id.as_str()).collect();
        assert_eq!(ids, ["big"]);
    }

    #[test]
    fn missing_benchmark_fails_the_gate() {
        let reference = [rec("a", 100.0), rec("gone", 50.0)];
        let fresh = [rec("a", 100.0)];
        let report = compare(&reference, &fresh, 0.30, true);
        assert!(report.failed());
        let missing = report.regressions().next().unwrap();
        assert_eq!(missing.id, "gone");
        assert_eq!(missing.fresh_ns, None);
    }

    #[test]
    fn fresh_only_benchmarks_are_ignored() {
        let reference = [rec("a", 100.0)];
        let fresh = [rec("a", 100.0), rec("new", 1.0)];
        let report = compare(&reference, &fresh, 0.30, true);
        assert!(!report.failed());
        assert_eq!(report.verdicts.len(), 1);
    }

    #[test]
    fn improvements_never_fail() {
        let reference = [rec("a", 100.0)];
        let fresh = [rec("a", 10.0)];
        assert!(!compare(&reference, &fresh, 0.30, false).failed());
    }

    #[test]
    fn display_lists_every_benchmark() {
        let report = compare(&[rec("a", 100.0), rec("b", 1.0)], &[rec("a", 100.0)], 0.3, false);
        let text = report.to_string();
        assert!(text.contains("a"), "{text}");
        assert!(text.contains("MISSING"), "{text}");
    }

    /// A twenty-row suite and a fresh run of it whose host drifts: rows
    /// past the tenth ran on a host 0.7× as slow as before.
    fn drifting_run() -> (Vec<BenchRecord>, Vec<BenchRecord>) {
        let reference: Vec<BenchRecord> =
            (0..20).map(|i| rec(&format!("row{i}"), 100.0 * f64::from(i + 1))).collect();
        let fresh = reference
            .iter()
            .zip(0..)
            .map(|(r, i)| rec(&r.id, r.median_ns * if i < 10 { 1.0 } else { 0.7 }))
            .collect();
        (reference, fresh)
    }

    #[test]
    fn a_run_whose_host_speeds_up_halfway_passes() {
        let (reference, fresh) = drifting_run();
        let report = compare(&reference, &fresh, 0.30, true);
        assert!(!report.failed(), "{report}");
        for ratio in report.verdicts.iter().map(|v| v.ratio.expect("fresh")) {
            assert!((ratio - 1.0).abs() < 1e-9, "{report}");
        }
    }

    #[test]
    fn a_slowdown_on_one_row_of_a_drifting_run_still_fails() {
        // Row 14 ran 30 % slower than its neighbours: against the suite
        // median (1.0) it reads 0.91 and would hide, against its own
        // neighbourhood (0.7) it reads 1.3 — beyond a 20 % band.
        let (reference, mut fresh) = drifting_run();
        fresh[14].median_ns *= 1.3;
        let report = compare(&reference, &fresh, 0.20, true);
        let ids: Vec<&str> = report.regressions().map(|v| v.id.as_str()).collect();
        assert_eq!(ids, ["row14"], "{report}");
        // The same slowdown early in the run, where the factor is 1.0.
        let (reference, mut fresh) = drifting_run();
        fresh[2].median_ns *= 1.3;
        let ids: Vec<String> =
            compare(&reference, &fresh, 0.20, true).regressions().map(|v| v.id.clone()).collect();
        assert_eq!(ids, ["row2"]);
    }

    #[test]
    fn checked_in_reference_files_parse() {
        // The repo-root reference JSONs must stay parsable by this gate —
        // including the fig-binary convention (`emit_bench_json`), whose
        // records the gate reads exactly like criterion-stub output.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        for name in
            ["BENCH_micro.json", "BENCH_protocols.json", "BENCH_ablation.json", "BENCH_fig.json"]
        {
            let path = format!("{root}/{name}");
            let text =
                std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
            let recs = BenchRecord::parse_lines(&text);
            assert!(!recs.is_empty(), "{name} has no records");
            assert!(recs.iter().all(|r| r.median_ns > 0.0), "{name} has a zero median");
        }
    }
}
