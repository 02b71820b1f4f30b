#![forbid(unsafe_code)]
//! CLI for `delphi-lint`; see `delphi-lint --help`.

use std::path::PathBuf;
use std::process::ExitCode;

use delphi_lint::baseline::Baseline;
use delphi_lint::rules::{LINE_BUDGET_RULE, RULES};

const USAGE: &str = "delphi-lint — Delphi workspace invariant checker

USAGE:
    delphi-lint [OPTIONS]

OPTIONS:
    --root <PATH>       Workspace root (default: .)
    --baseline <PATH>   Baseline file (default: <root>/lint-baseline.toml)
    --deny              Exit non-zero when the ratchet fails (a count above
                        its baseline, a stale entry, or a crate above its
                        production-line ceiling)
    --write-baseline    Freeze the current violations as the new baseline;
                        production-line ceilings only move down
    --list-rules        Print the rule names and exit
    --help              Print this help

A violation is suppressed by an annotation on its line or the line above:
    // lint: allow(<rule>) — <reason>
The reason is mandatory; reason-less annotations are ignored.";

fn main() -> ExitCode {
    match cli() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("delphi-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

fn cli() -> Result<ExitCode, String> {
    let mut root = PathBuf::from(".");
    let mut baseline_path: Option<PathBuf> = None;
    let mut deny = false;
    let mut write_baseline = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = PathBuf::from(args.next().ok_or("--root needs a path")?),
            "--baseline" => {
                baseline_path = Some(PathBuf::from(args.next().ok_or("--baseline needs a path")?));
            }
            "--deny" => deny = true,
            "--write-baseline" => write_baseline = true,
            "--list-rules" => {
                for rule in RULES {
                    println!("{rule}");
                }
                return Ok(ExitCode::SUCCESS);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }

    let baseline_path = baseline_path.unwrap_or_else(|| root.join("lint-baseline.toml"));
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => Baseline::parse(&text)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Baseline::default(),
        Err(e) => return Err(format!("cannot read {}: {e}", baseline_path.display())),
    };

    let report = delphi_lint::run(&root, &baseline)?;

    if write_baseline {
        let frozen =
            Baseline::freeze(&report.violations).with_ceilings(&baseline, &report.production_lines);
        std::fs::write(&baseline_path, frozen.render())
            .map_err(|e| format!("cannot write {}: {e}", baseline_path.display()))?;
        println!(
            "froze {} violation(s) across {} rule(s) into {}",
            report.violations.len(),
            RULES.len(),
            baseline_path.display(),
        );
        return Ok(ExitCode::SUCCESS);
    }

    // New violations (beyond the baseline count) print in full; baselined
    // debt prints as per-rule totals so the signal stays readable.
    let mut frozen_total = 0u64;
    for rule in RULES {
        let rule_violations: Vec<_> = report.violations.iter().filter(|v| v.rule == rule).collect();
        if rule_violations.is_empty() {
            continue;
        }
        let grown: Vec<_> = report.ratchet.grown.iter().filter(|d| d.rule == rule).collect();
        if grown.is_empty() {
            frozen_total += rule_violations.len() as u64;
            println!("[{rule}] {} baselined violation(s)", rule_violations.len());
            continue;
        }
        println!("[{rule}] ratchet broken:");
        for drift in &grown {
            println!(
                "  {}: {} violation(s), baseline allows {}",
                drift.file, drift.current, drift.baseline,
            );
            for v in rule_violations.iter().filter(|v| v.file == drift.file) {
                println!("    {}:{}: {}", v.file, v.line, v.message);
            }
        }
    }
    for (dir, lines) in &report.production_lines {
        match baseline.count(LINE_BUDGET_RULE, dir) {
            0 => println!("[{LINE_BUDGET_RULE}] {dir}: {lines}"),
            ceiling if *lines > ceiling => {
                println!("[{LINE_BUDGET_RULE}] {dir}: {lines} exceeds its ceiling of {ceiling}");
            }
            ceiling => println!("[{LINE_BUDGET_RULE}] {dir}: {lines} (ceiling {ceiling})"),
        }
    }
    for drift in &report.ratchet.stale {
        println!(
            "[{}] stale baseline for {}: frozen {} but found {} — run --write-baseline \
             to ratchet down",
            drift.rule, drift.file, drift.baseline, drift.current,
        );
    }

    if report.ratchet.clean() {
        println!("delphi-lint: clean — 0 new violations, {frozen_total} frozen in baseline",);
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "delphi-lint: {} (rule, file) pair(s) above baseline, {} stale",
            report.ratchet.grown.len(),
            report.ratchet.stale.len(),
        );
        Ok(if deny { ExitCode::FAILURE } else { ExitCode::SUCCESS })
    }
}
