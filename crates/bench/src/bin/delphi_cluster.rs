#![forbid(unsafe_code)]
//! Cluster launcher: spawns one `delphi-node` OS process per `[[node]]`
//! entry, collects the per-node JSON reports, and judges them —
//! the paper's deployment shape (fig6) on one machine.
//!
//! ```text
//! delphi-cluster --config cluster.toml            # run an existing file
//! delphi-cluster --n 4                            # generate localhost config
//!                [--epochs 1] [--assets 1] [--unbatched | --adaptive]
//!                [--depth 2] [--window 6] [--quote-seed 7]
//!                [--epsilon 2] [--deadline-ms 60000]
//!                [--node-binary path/to/delphi-node]
//! ```
//!
//! With `--n`, a localhost config on freshly reserved ports is written to
//! a temp file and cleaned up afterwards.
//!
//! Every run is the streaming oracle: every node agrees on a fresh
//! `--assets`-sized basket `--epochs` consecutive times (once by
//! default), pipelining `--depth` epochs under a `--window`-epoch live
//! window. The launcher regenerates every node's inputs from
//! `--quote-seed` and judges the reports (`delphi_bench::cluster::
//! judge_cluster`): it exits non-zero unless every node reported the
//! whole stream in order, every `(epoch, asset)` agreement is within ε
//! across nodes, and every output lies within `max(ρ0, δ)` of its inputs'
//! hull. The basket size picks how each node maps a basket onto
//! agreement instances (one per asset below three assets, one vector
//! instance per 64 from there up); reports keep the per-asset agreement
//! shape either way.
//!
//! Frames are flushed per protocol step by default; `--adaptive` batches
//! across steps until a size trigger or an empty inbox, and `--unbatched`
//! sends every envelope in a frame of its own (the measurement baseline)
//! — never both.

use std::path::PathBuf;
use std::process::ExitCode;

use delphi_bench::cluster::{
    judge_cluster, reserve_localhost_config, run_cluster, summarize, write_temp_config,
    ClusterRunSpec,
};

/// Where the cluster's config comes from.
enum Mesh {
    /// An existing cluster file.
    File(PathBuf),
    /// A generated localhost config of this many nodes.
    Localhost(usize),
}

/// Records the mesh choice; a second one is an error.
fn choose(mesh: &mut Option<Mesh>, chosen: Mesh) -> Result<(), String> {
    match mesh.replace(chosen) {
        Some(_) => Err("--config and --n are mutually exclusive".to_string()),
        None => Ok(()),
    }
}

/// Parses the flags after the program name straight into a run spec; its
/// `config` is filled in once the mesh is resolved.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<(Mesh, ClusterRunSpec), String> {
    let mut spec = ClusterRunSpec::new(PathBuf::new());
    let mut mesh = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--config" => choose(&mut mesh, Mesh::File(value("--config")?.into()))?,
            "--n" => {
                let n = value("--n")?.parse().map_err(|e| format!("--n: {e}"))?;
                choose(&mut mesh, Mesh::Localhost(n))?;
            }
            "--node-binary" => spec.node_binary = Some(value("--node-binary")?.into()),
            "--quote-seed" => {
                spec.quote_seed =
                    value("--quote-seed")?.parse().map_err(|e| format!("--quote-seed: {e}"))?;
            }
            "--assets" => {
                spec.assets = value("--assets")?.parse().map_err(|e| format!("--assets: {e}"))?;
            }
            "--unbatched" => spec.unbatched = true,
            "--deadline-ms" => {
                spec.deadline_ms =
                    value("--deadline-ms")?.parse().map_err(|e| format!("--deadline-ms: {e}"))?;
            }
            "--epsilon" => {
                spec.epsilon =
                    value("--epsilon")?.parse().map_err(|e| format!("--epsilon: {e}"))?;
            }
            "--epochs" => {
                spec.epochs = value("--epochs")?.parse().map_err(|e| format!("--epochs: {e}"))?;
            }
            "--depth" => {
                spec.depth = value("--depth")?.parse().map_err(|e| format!("--depth: {e}"))?;
            }
            "--window" => {
                spec.window = value("--window")?.parse().map_err(|e| format!("--window: {e}"))?;
            }
            "--adaptive" => spec.adaptive = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if spec.unbatched && spec.adaptive {
        return Err("--unbatched and --adaptive exclude each other".to_string());
    }
    let mesh = mesh.ok_or("pass --config <file> or --n <nodes>")?;
    Ok((mesh, spec))
}

fn main() -> ExitCode {
    let (mesh, mut spec) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("delphi-cluster: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Resolve the config: an existing file, or a generated localhost one.
    let temp = match mesh {
        Mesh::File(path) => {
            spec.config = path;
            None
        }
        Mesh::Localhost(n) => {
            match write_temp_config(&reserve_localhost_config(n), "cluster-cli") {
                Ok(path) => {
                    spec.config = path.clone();
                    Some(path)
                }
                Err(e) => {
                    eprintln!("delphi-cluster: writing temp config: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    let flush = match (spec.unbatched, spec.adaptive) {
        (true, _) => "per-entry flushing: one frame per envelope",
        (_, true) => "adaptive flushing",
        _ => "per-step flushing",
    };
    println!(
        "launching cluster from {} ({} epochs x {} assets, depth {}, window {}, {flush})",
        spec.config.display(),
        spec.epochs,
        spec.assets,
        spec.depth,
        spec.window,
    );
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
            "node {:>3}: {} agreements in {:>6.0} ms | {} frames / {} bytes sent, {} dropped, \
             {} late",
            r.id,
            r.agreements.len(),
            r.elapsed_ms,
            r.stats.sent_frames,
            r.stats.sent_bytes,
            r.stats.dropped_frames,
            r.stats.late_entries,
        );
    }
    let verdict = judge_cluster(&outcome, &spec);
    println!("{}", summarize(&outcome, &spec, &verdict));
    match verdict {
        Ok(_) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("delphi-cluster: the run failed the judge: {why}");
            ExitCode::FAILURE
        }
    }
}
