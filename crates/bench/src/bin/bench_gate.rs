#![forbid(unsafe_code)]
//! Bench regression gate CLI: compares a fresh `BENCH_JSON` run against a
//! checked-in reference and exits non-zero on regressions.
//!
//! ```text
//! bench-gate --reference BENCH_micro.json --fresh BENCH_micro.ci.json
//!            [--tolerance 0.30] [--no-normalize]
//! ```
//!
//! By default the comparison is *normalized*: each benchmark's
//! machine-speed factor is the median fresh/reference ratio of the nine
//! benchmarks around it in the fresh run's order, so a slower CI runner,
//! or one whose speed drifts during the run, passes while a benchmark
//! that regressed relative to its neighbours fails (see
//! `delphi_bench::regression`). `--no-normalize` gives the plain
//! ±tolerance check for same-machine comparisons.

use std::process::ExitCode;

use delphi_bench::regression::{compare, BenchRecord};

struct Args {
    reference: std::path::PathBuf,
    fresh: std::path::PathBuf,
    tolerance: f64,
    normalize: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut reference = None;
    let mut fresh = None;
    let mut tolerance = 0.30f64;
    let mut normalize = true;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--reference" => reference = Some(value("--reference")?.into()),
            "--fresh" => fresh = Some(value("--fresh")?.into()),
            "--tolerance" => {
                tolerance =
                    value("--tolerance")?.parse().map_err(|e| format!("--tolerance: {e}"))?;
            }
            "--no-normalize" => normalize = false,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        reference: reference.ok_or("--reference is required")?,
        fresh: fresh.ok_or("--fresh is required")?,
        tolerance,
        normalize,
    })
}

fn read_records(path: &std::path::Path) -> Result<Vec<BenchRecord>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let records = BenchRecord::parse_lines(&text);
    if records.is_empty() {
        return Err(format!("{} contains no benchmark records", path.display()));
    }
    Ok(records)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench-gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (reference, fresh) = match (read_records(&args.reference), read_records(&args.fresh)) {
        (Ok(r), Ok(f)) => (r, f),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench-gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = compare(&reference, &fresh, args.tolerance, args.normalize);
    print!("{report}");
    if report.failed() {
        let ids: Vec<&str> = report.regressions().map(|v| v.id.as_str()).collect();
        eprintln!("bench-gate: regressions in {}", ids.join(", "));
        ExitCode::FAILURE
    } else {
        println!("bench-gate: no regressions");
        ExitCode::SUCCESS
    }
}
