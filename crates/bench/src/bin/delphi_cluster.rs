#![forbid(unsafe_code)]
//! Cluster launcher: spawns one `delphi-node` OS process per `[[node]]`
//! entry, collects the per-node JSON reports, and checks convergence —
//! the paper's deployment shape (fig6) on one machine.
//!
//! ```text
//! delphi-cluster --config cluster.toml            # run an existing file
//! delphi-cluster --n 4                            # generate localhost config
//!                [--assets 1] [--unbatched] [--quote-seed 7] [--epsilon 2]
//!                [--node-binary path/to/delphi-node] [--deadline-ms 60000]
//!                [--epochs K] [--depth D] [--window W] [--adaptive]
//!                [--recv-shards S] [--vector]
//! ```
//!
//! With `--n`, a localhost config on freshly reserved ports is written to
//! a temp file and cleaned up afterwards. Exits non-zero unless every
//! node finishes and the outputs agree within ε.
//!
//! Frames are flushed per protocol step by default; `--adaptive` batches
//! across steps until a size trigger or an empty inbox, and `--unbatched` sends every
//! envelope in a frame of its own (the measurement baseline) — in either
//! mode, and never both.
//!
//! With `--epochs K`, the cluster runs the streaming oracle: every node
//! agrees on a fresh `--assets`-sized basket `K` consecutive times,
//! pipelining `--depth` epochs under a `--window`-epoch live window.
//! Without it the basket is agreed once — the same runner over a stream
//! of one epoch. The launcher then
//! checks *per-epoch* ε-convergence across nodes and that every node
//! completed the whole stream. `--vector` makes each epoch's basket ONE
//! vector-valued agreement instance (one bundle exchange per round for
//! the whole basket); the launcher-side checks are unchanged because
//! reports keep the per-asset agreement shape.

use std::path::PathBuf;
use std::process::ExitCode;

use delphi_bench::cluster::{
    reserve_localhost_config, run_cluster, summarize, summarize_epochs, write_temp_config,
    ClusterRunSpec,
};

struct Args {
    config: Option<PathBuf>,
    n: Option<usize>,
    node_binary: Option<PathBuf>,
    quote_seed: u64,
    assets: usize,
    unbatched: bool,
    deadline_ms: u64,
    epsilon: f64,
    epochs: u32,
    depth: usize,
    window: usize,
    adaptive: bool,
    recv_shards: usize,
    vector: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        config: None,
        n: None,
        node_binary: None,
        quote_seed: 7,
        assets: 1,
        unbatched: false,
        deadline_ms: 60_000,
        epsilon: 2.0,
        epochs: 0,
        depth: 2,
        window: 6,
        adaptive: false,
        recv_shards: 1,
        vector: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--config" => out.config = Some(value("--config")?.into()),
            "--n" => out.n = Some(value("--n")?.parse().map_err(|e| format!("--n: {e}"))?),
            "--node-binary" => out.node_binary = Some(value("--node-binary")?.into()),
            "--quote-seed" => {
                out.quote_seed =
                    value("--quote-seed")?.parse().map_err(|e| format!("--quote-seed: {e}"))?;
            }
            "--assets" => {
                out.assets = value("--assets")?.parse().map_err(|e| format!("--assets: {e}"))?;
            }
            "--unbatched" => out.unbatched = true,
            "--deadline-ms" => {
                out.deadline_ms =
                    value("--deadline-ms")?.parse().map_err(|e| format!("--deadline-ms: {e}"))?;
            }
            "--epsilon" => {
                out.epsilon = value("--epsilon")?.parse().map_err(|e| format!("--epsilon: {e}"))?;
            }
            "--epochs" => {
                out.epochs = value("--epochs")?.parse().map_err(|e| format!("--epochs: {e}"))?;
            }
            "--depth" => {
                out.depth = value("--depth")?.parse().map_err(|e| format!("--depth: {e}"))?;
            }
            "--window" => {
                out.window = value("--window")?.parse().map_err(|e| format!("--window: {e}"))?;
            }
            "--adaptive" => out.adaptive = true,
            "--recv-shards" => {
                out.recv_shards =
                    value("--recv-shards")?.parse().map_err(|e| format!("--recv-shards: {e}"))?;
            }
            "--vector" => out.vector = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if out.config.is_none() && out.n.is_none() {
        return Err("pass --config <file> or --n <nodes>".to_string());
    }
    if out.config.is_some() && out.n.is_some() {
        return Err("--config and --n are mutually exclusive".to_string());
    }
    if out.recv_shards == 0 {
        return Err("--recv-shards must be at least 1".to_string());
    }
    if out.vector && out.epochs == 0 {
        return Err("--vector only applies to a streaming run (--epochs)".to_string());
    }
    if out.unbatched && out.adaptive {
        return Err("--unbatched and --adaptive exclude each other".to_string());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("delphi-cluster: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Resolve the config: an existing file, or a generated localhost one.
    let (config_path, temp) = match (&args.config, args.n) {
        (Some(path), _) => (path.clone(), None),
        (None, Some(n)) => {
            let cfg = reserve_localhost_config(n);
            match write_temp_config(&cfg, "cluster-cli") {
                Ok(path) => (path.clone(), Some(path)),
                Err(e) => {
                    eprintln!("delphi-cluster: writing temp config: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        _ => unreachable!("validated in parse_args"),
    };

    let mut spec = ClusterRunSpec::new(config_path.clone());
    spec.node_binary = args.node_binary.clone();
    spec.quote_seed = args.quote_seed;
    spec.assets = args.assets;
    spec.unbatched = args.unbatched;
    spec.deadline_ms = args.deadline_ms;
    spec.epsilon = args.epsilon;
    spec.epochs = args.epochs;
    spec.depth = args.depth;
    spec.window = args.window;
    spec.adaptive = args.adaptive;
    spec.recv_shards = args.recv_shards;
    spec.vector = args.vector;

    let flush = match (args.unbatched, args.adaptive) {
        (true, _) => "per-entry flushing: one frame per envelope",
        (_, true) => "adaptive flushing",
        _ => "per-step flushing",
    };
    let mode = match args.epochs {
        0 => format!("one-shot: a one-epoch stream of {} assets, {flush}", args.assets),
        k => format!(
            "streaming oracle: {k} epochs x {} assets ({}), depth {}, window {}, {flush}",
            args.assets,
            if args.vector { "one vector instance per epoch" } else { "per-asset instances" },
            args.depth,
            args.window,
        ),
    };
    println!("launching cluster from {} ({mode})", config_path.display());
    let result = run_cluster(&spec);
    if let Some(path) = temp {
        let _ = std::fs::remove_file(path);
    }
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("delphi-cluster: {e}");
            return ExitCode::FAILURE;
        }
    };

    for r in &outcome.reports {
        println!(
            "node {:>3}: output {:>12.4}$ in {:>6.0} ms | {} agreements | {} frames / {} bytes \
             sent, {} dropped, {} late",
            r.id,
            r.output,
            r.elapsed_ms,
            r.agreements.len(),
            r.stats.sent_frames,
            r.stats.sent_bytes,
            r.stats.dropped_frames,
            r.stats.late_entries,
        );
    }
    if args.epochs > 0 {
        let expected = u64::from(args.epochs) * args.assets as u64;
        println!("{}", summarize_epochs(&outcome, args.epsilon, expected));
        return if outcome.epoch_converged(args.epsilon, expected) {
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "delphi-cluster: epoch stream incomplete or diverged (worst spread {:.6}$, \
                 {} agreements per node, expected {expected})",
                outcome.epoch_spread(),
                outcome.epoch_agreements(),
            );
            ExitCode::FAILURE
        };
    }
    println!("{}", summarize(&outcome, args.epsilon));
    if outcome.converged(args.epsilon) {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "delphi-cluster: outputs spread {:.6}$ exceeds epsilon {}$",
            outcome.spread(),
            args.epsilon
        );
        ExitCode::FAILURE
    }
}
