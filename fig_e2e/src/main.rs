#![forbid(unsafe_code)]
//! `fig_e2e`: the repository's wall-clock benchmark. See `README.md`
//! beside this package for what each workload and metric means.
//!
//! ```text
//! fig_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!         [--trace-out <spans.jsonl>] [--json <out>] [--epochs <k>]
//! fig_e2e --all [--seed <n>] [--seconds <s>] [--traced] [--runs <r>] --json <out>
//! fig_e2e --check <a.json> <b.json>
//! ```
//!
//! The last line of standard output of a single-workload run is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`.

mod check;
mod direct;
mod gate;
mod json;
mod layers;
mod procstat;
mod reader;
mod run;
mod spec;
mod stats;
mod sut;
mod tcp;
mod trace;

use std::process::ExitCode;
use std::sync::{Mutex, MutexGuard};

use json::Json;
use run::Opts;
use spec::{Workload, WORKLOADS};

/// Locks `m`, taking the data even if a holder panicked: every value the
/// harness guards is valid at each step, so a poisoned lock still holds
/// usable data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[derive(Debug, Default)]
struct Cli {
    workload: Option<String>,
    all: bool,
    probe: bool,
    check: Option<(String, String)>,
    seed: u64,
    seconds: u32,
    traced: bool,
    epochs: Option<u32>,
    runs: u32,
    json: Option<String>,
    trace_out: Option<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli { seed: 1, seconds: 10, runs: 1, ..Cli::default() };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: {v:?} is not a number"))
        }
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = num(flag, value()?)?,
            "--seconds" => cli.seconds = num(flag, value()?)?,
            "--trace" => cli.traced = num::<u8>(flag, value()?)? != 0,
            "--traced" => cli.traced = true,
            "--epochs" => cli.epochs = Some(num(flag, value()?)?),
            "--runs" => cli.runs = num(flag, value()?)?,
            "--json" => cli.json = Some(value()?),
            "--trace-out" => cli.trace_out = Some(value()?),
            "--all" => cli.all = true,
            "--probe" => cli.probe = true,
            "--check" => cli.check = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(1..=60).contains(&cli.seconds) {
        return Err("--seconds must be 1..=60".into());
    }
    Ok(cli)
}

fn write_file(path: &str, doc: &Json) -> Result<(), String> {
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("cannot write {path}: {e}"))
}

/// One workload in this process; the result object goes last on stdout.
fn run_one(w: &Workload, cli: &Cli) -> Result<bool, String> {
    let opts = Opts {
        seed: cli.seed,
        seconds: cli.seconds,
        traced: cli.traced,
        epochs: cli.epochs,
        trace_out: cli.trace_out.clone(),
    };
    if cli.probe {
        println!("{}", run::probe(w, &opts)?);
        // A probe leaves its cluster running; the process ends here and
        // takes the cluster's threads and sockets with it.
        std::process::exit(0);
    }
    let outcome = run::run_workload(w, &opts)?;
    println!("workload {} seed {} seconds {}", w.name, cli.seed, cli.seconds);
    for note in &outcome.notes {
        println!("  {note}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("  {name:<40} {value:>16.6} {unit}");
    }
    let doc = outcome.to_json();
    if let Some(path) = &cli.json {
        write_file(path, &doc)?;
    }
    println!("{doc}");
    Ok(outcome.correct)
}

/// Every workload, each run in a child process of its own, one at a time:
/// the runtime's parked accept threads and the monotone `VmHWM` must not
/// leak from one measurement into the next.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let out = cli.json.as_deref().ok_or("--all needs --json <out>")?;
    let mut all_correct = true;
    let mut sets = Vec::new();
    for w in &WORKLOADS {
        let mut runs = Vec::new();
        for r in 0..cli.runs.max(1) {
            let seed = cli.seed + u64::from(r);
            let opts = Opts {
                seed,
                seconds: cli.seconds,
                traced: cli.traced,
                epochs: None,
                trace_out: None,
            };
            let mut args = run::base_args(w, &opts);
            args.extend(["--trace", if cli.traced { "1" } else { "0" }].map(String::from));
            let doc = run::child(&args)?;
            let correct = doc.get("correct").and_then(Json::as_bool) == Some(true);
            all_correct &= correct;
            let verdict = if correct { "correct" } else { "FAILED" };
            let listed = if w.listed { "" } else { " (not listed in BENCHMARK.json)" };
            println!("{} seed {seed}: {verdict}{listed}", w.name);
            for (name, m) in doc.get("metrics").and_then(Json::as_obj).unwrap_or_default() {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                println!("  {name:<40} {value:>16.6} {unit}");
            }
            runs.push(doc);
        }
        sets.push((w.name, Json::Arr(runs)));
    }
    let doc = Json::obj([
        ("seed", Json::Num(cli.seed as f64)),
        ("seconds", Json::Num(f64::from(cli.seconds))),
        ("trace", Json::Num(if cli.traced { 1.0 } else { 0.0 })),
        ("workloads", Json::obj(sets)),
    ]);
    write_file(out, &doc)?;
    Ok(all_correct)
}

fn dispatch(cli: &Cli) -> Result<bool, String> {
    if let Some((a, b)) = &cli.check {
        return check::check(a, b);
    }
    if cli.all {
        return run_all(cli);
    }
    let name = cli.workload.as_deref().ok_or("give --workload <name>, --all or --check")?;
    let w = spec::workload(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    run_one(w, cli)
}

/// Set in the environment of a process that [`pin`] has already pinned.
const PINNED: &str = "FIG_E2E_PINNED";

/// Runs this program again on one core, the last this process may use,
/// and returns its exit code; `None` when already pinned or when the box
/// has no `taskset`, and the caller then runs where it is.
///
/// The cluster is some fifty threads of the thread-per-task runtime, and
/// spread over the sandbox's two virtual cores their wake-ups cross
/// cores: inter-processor interrupts and halted cores that the host must
/// schedule back in, whose cost is the host's and changes by the minute.
/// On one core the same threads take turns without any of that, and runs
/// of the same code agree about twice as closely (README, "Noise floor").
fn pin(args: &[String]) -> Option<ExitCode> {
    if std::env::var_os(PINNED).is_some() {
        return None;
    }
    let core = procstat::last_allowed_cpu()?.to_string();
    let taskset = |program: &std::ffi::OsStr, args: &[String]| {
        let mut cmd = std::process::Command::new("taskset");
        cmd.args(["-c", &core]).arg(program).args(args).env(PINNED, "1");
        cmd
    };
    // Absent, or refused by the container: measure unpinned and say so.
    let probe = taskset("true".as_ref(), &[]).stdout(std::process::Stdio::null()).status();
    if !probe.is_ok_and(|s| s.success()) {
        eprintln!("fig_e2e: cannot pin to core {core} with taskset; running unpinned");
        return None;
    }
    let exe = std::env::current_exe().ok()?;
    let status = taskset(exe.as_os_str(), args).status().ok()?;
    Some(ExitCode::from(status.code().unwrap_or(2).clamp(0, 255) as u8))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(code) = pin(&args) {
        return code;
    }
    match parse_cli(&args).and_then(|cli| dispatch(&cli)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("fig_e2e: a correctness check or a bound failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("fig_e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let cli = parse_cli(&args("--workload tcp-oneshot --seed 42 --seconds 10 --trace 1"))
            .expect("parses");
        assert_eq!(cli.workload.as_deref(), Some("tcp-oneshot"));
        assert_eq!((cli.seed, cli.seconds, cli.traced), (42, 10, true));
        assert!(!parse_cli(&args("--workload x --trace 0")).expect("parses").traced);
        let check = parse_cli(&args("--check a.json b.json")).expect("parses");
        assert_eq!(check.check, Some(("a.json".into(), "b.json".into())));
        for bad in ["--seed", "--seed x", "--seconds 0", "--seconds 61", "--bogus", "--check a"] {
            assert!(parse_cli(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }
}
