#![forbid(unsafe_code)]
//! One Delphi protocol node as one OS process — the unit the
//! multi-process cluster harness deploys.
//!
//! Reads a TOML cluster config (`delphi_net::config`), picks its own
//! `[[node]]` entry by `--id`, runs the streaming oracle over real
//! sockets against every peer in the file, and prints exactly one JSON
//! report line (`delphi_net::cluster::NodeReport`) on stdout for the
//! launcher.
//!
//! ```text
//! delphi-node --config cluster.toml --id 2
//!             [--epochs 1] [--assets 1] [--quote-seed 7]
//!             [--unbatched | --adaptive]
//!             [--depth 2] [--window 6] [--deadline-ms 60000]
//!             [--rho0 2] [--epsilon 2] [--delta-max 2000]
//!             [--api-bind 127.0.0.1:8080]
//! ```
//!
//! Every run is an epoch stream: an `OracleService` pipeline agreeing on
//! a fresh `--assets`-sized basket each of `--epochs` epochs (1 by
//! default: one agreement on the basket), `--depth` epochs in flight
//! under a `--window`-epoch live window. Prices come from the
//! deterministic multi-epoch feed (`delphi_workloads::EpochFeed` under
//! `--quote-seed`): every process derives the same basket quote per
//! epoch and picks its own entry, so no input-distribution step is
//! needed. The report carries every `(epoch, asset, value)` agreement, so
//! the launcher can regenerate the inputs and judge every agreement.
//!
//! Frames are flushed per protocol step by default; `--adaptive` batches
//! across steps until a size trigger or an empty inbox, `--unbatched` is
//! the measurement baseline of one frame and one HMAC per envelope (the
//! two flags exclude each other).
//!
//! The basket size picks how the basket maps onto agreement instances
//! (`delphi_core::oracle::VECTOR_BASKET_MIN`): one instance per asset
//! below three assets, one vector-valued instance per 64 assets from
//! there up. Agreements in the report keep the `(epoch, asset, value)`
//! shape either way.
//!
//! `--api-bind ADDR` additionally serves the read-side HTTP API on `ADDR`
//! — snapshots, history, subscriptions, and signed attestations — off the
//! protocol hot path, via `delphi::ServiceBuilder::serve`. Attestation
//! keys derive from the node's cluster key material, so a light client
//! holding the cluster seed verifies served values offline.

use std::num::{NonZeroU16, NonZeroU32};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use delphi_api::ServiceBuilder;
use delphi_bench::cluster::{epoch_basket, NODE_RHO0};
use delphi_bench::feed_price_source;
use delphi_core::{flatten_vector_events, DelphiConfig, VectorDelphiNode};
use delphi_net::cluster::NodeReport;
use delphi_net::config::ClusterConfig;
use delphi_net::{run_epoch_service, FlushPolicy, NetStats, RunOptions};
use delphi_primitives::{EpochEvent, EpochOutcome, EpochProtocol, EpochStats};
use delphi_workloads::EpochFeed;

#[derive(Debug)]
struct Args {
    config: std::path::PathBuf,
    id: u16,
    assets: NonZeroU16,
    quote_seed: u64,
    flush: FlushPolicy,
    deadline_ms: u64,
    rho0: f64,
    epsilon: f64,
    delta_max: f64,
    epochs: NonZeroU32,
    depth: usize,
    window: usize,
    api_bind: Option<std::net::SocketAddr>,
}

/// Parses the flags after the program name.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut config = None;
    let mut id = None;
    let mut assets = NonZeroU16::MIN;
    let mut quote_seed = 7u64;
    let mut unbatched = false;
    let mut deadline_ms = 60_000u64;
    let mut rho0 = NODE_RHO0;
    let mut epsilon = 2.0f64;
    let mut delta_max = 2_000.0f64;
    let mut epochs = NonZeroU32::MIN;
    let mut depth = 2usize;
    let mut window = 6usize;
    let mut adaptive = false;
    let mut api_bind = None;

    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--config" => config = Some(value("--config")?.into()),
            "--id" => {
                id = Some(value("--id")?.parse().map_err(|e| format!("--id: {e}"))?);
            }
            "--assets" => {
                let count = value("--assets")?;
                assets = count.parse().map_err(|e| format!("--assets takes 1 to 65535: {e}"))?;
            }
            "--quote-seed" => {
                quote_seed =
                    value("--quote-seed")?.parse().map_err(|e| format!("--quote-seed: {e}"))?;
            }
            "--unbatched" => unbatched = true,
            "--deadline-ms" => {
                deadline_ms =
                    value("--deadline-ms")?.parse().map_err(|e| format!("--deadline-ms: {e}"))?;
            }
            "--rho0" => rho0 = value("--rho0")?.parse().map_err(|e| format!("--rho0: {e}"))?,
            "--epsilon" => {
                epsilon = value("--epsilon")?.parse().map_err(|e| format!("--epsilon: {e}"))?;
            }
            "--delta-max" => {
                delta_max =
                    value("--delta-max")?.parse().map_err(|e| format!("--delta-max: {e}"))?;
            }
            "--epochs" => {
                let count = value("--epochs")?;
                epochs = count.parse().map_err(|e| format!("--epochs takes at least 1: {e}"))?;
            }
            "--depth" => {
                depth = value("--depth")?.parse().map_err(|e| format!("--depth: {e}"))?;
            }
            "--window" => {
                window = value("--window")?.parse().map_err(|e| format!("--window: {e}"))?;
            }
            "--adaptive" => adaptive = true,
            "--api-bind" => {
                api_bind =
                    Some(value("--api-bind")?.parse().map_err(|e| format!("--api-bind: {e}"))?);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if depth == 0 || window < depth {
        return Err("--depth must be at least 1 and --window at least --depth".to_string());
    }
    let flush = match (unbatched, adaptive) {
        (true, true) => return Err("--unbatched and --adaptive exclude each other".to_string()),
        (true, false) => FlushPolicy::PerEntry,
        (false, true) => FlushPolicy::adaptive(),
        (false, false) => FlushPolicy::PerStep,
    };
    Ok(Args {
        config: config.ok_or("--config is required")?,
        id: id.ok_or("--id is required")?,
        assets,
        quote_seed,
        flush,
        deadline_ms,
        rho0,
        epsilon,
        delta_max,
        epochs,
        depth,
        window,
        api_bind,
    })
}

/// Threads of this process and the context switches (voluntary +
/// involuntary) they have made so far, from `/proc/self/task/*/status`;
/// zeros on a box without procfs. A thread that has exited takes its
/// counters with it, so this is read before a run is torn down.
fn thread_switches() -> (u64, u64) {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return (0, 0) };
    let (mut threads, mut switches) = (0u64, 0u64);
    for task in tasks.flatten() {
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else { continue };
        threads += 1;
        switches += status
            .lines()
            .filter_map(|line| {
                line.strip_prefix("voluntary_ctxt_switches:")
                    .or_else(|| line.strip_prefix("nonvoluntary_ctxt_switches:"))
            })
            .filter_map(|count| count.trim().parse::<u64>().ok())
            .sum::<u64>();
    }
    (threads, switches)
}

/// Runs an epoch stream over the mesh, reading [`thread_switches`] at the
/// moment the stream completes — in the linger window, while every
/// thread the run used is still alive. Events come back in the per-asset
/// shape the report expects.
async fn stream_epochs(
    node: EpochProtocol<VectorDelphiNode>,
    keychain: delphi_crypto::Keychain,
    addrs: Vec<std::net::SocketAddr>,
    opts: RunOptions,
) -> Result<(Vec<EpochEvent<f64>>, EpochStats, NetStats, (u64, u64)), String> {
    let epoch_run = |e| format!("epoch run: {e}");
    let (handle, mut tail) =
        run_epoch_service(node, keychain, addrs, opts).await.map_err(epoch_run)?;
    while tail.recv().await.is_some() {}
    let gauges = thread_switches();
    let (events, epoch_stats, stats) = handle.finish().await.map_err(epoch_run)?;
    Ok((flatten_vector_events(events), epoch_stats, stats, gauges))
}

async fn run(args: Args) -> Result<NodeReport, String> {
    let cluster = ClusterConfig::load(&args.config).map_err(|e| format!("config: {e}"))?;
    let n = cluster.n();
    let keychain = cluster.keychain(args.id).map_err(|e| format!("keychain: {e}"))?;
    let addrs = cluster.addresses();

    let cfg = DelphiConfig::builder(n)
        .space(0.0, 100_000.0)
        .rho0(args.rho0)
        .delta_max(args.delta_max)
        .epsilon(args.epsilon)
        .build()
        .map_err(|e| format!("protocol config: {e}"))?;
    let me = delphi_primitives::NodeId(args.id);
    let deadline = Duration::from_millis(args.deadline_ms);
    let started = Instant::now();

    // One agreement per (epoch, asset) pair, prices from the
    // deterministic multi-epoch feed — every process derives the same
    // basket quote per epoch with no distribution step.
    let feed = EpochFeed::new(epoch_basket(args.assets.get()), args.quote_seed);
    let builder = ServiceBuilder::new(cfg, me)
        .epochs(args.epochs.get())
        .assets(args.assets.get())
        .pipeline_depth(args.depth)
        .window(args.window)
        .flush(args.flush)
        .deadline(deadline);
    let source = feed_price_source(feed, me, n);
    let (events, epoch_stats, stats, (threads, switches)) = match args.api_bind {
        Some(bind) => {
            // Full served deployment: protocol + snapshot cache +
            // subscriptions + signed attestations over HTTP.
            let seed = cluster.key_material(args.id).map_err(|e| format!("key material: {e}"))?;
            let handle = builder
                .api_bind(bind)
                .serve(seed, addrs, source)
                .await
                .map_err(|e| format!("epoch run: {e}"))?;
            if let Some(api) = handle.api_addr() {
                eprintln!("delphi-node[{}]: serving readers on http://{api}", args.id);
            }
            let (events, epoch_stats, stats) =
                handle.finish().await.map_err(|e| format!("epoch run: {e}"))?;
            // The served handle has no end-of-stream hook: these are the
            // threads (and their switches) that outlive the run.
            (events, epoch_stats, stats, thread_switches())
        }
        None => {
            let node = builder.build_service(source).into_node();
            let opts = RunOptions { deadline, ..RunOptions::default() };
            stream_epochs(node, keychain, addrs, opts).await?
        }
    };
    let mut agreements = Vec::new();
    for event in &events {
        if let EpochOutcome::Agreed(values) = &event.outcome {
            for (a, v) in values.iter().enumerate() {
                agreements.push((event.epoch.0, a as u16, *v));
            }
        }
    }
    eprintln!(
        "delphi-node[{}]: {} epochs ({} agreements, {} stale, {} late entries, peak {} resident)",
        args.id,
        events.len(),
        agreements.len(),
        epoch_stats.stale_epochs,
        epoch_stats.late_entries,
        epoch_stats.peak_resident,
    );
    Ok(NodeReport {
        id: args.id,
        elapsed_ms: started.elapsed().as_secs_f64() * 1e3,
        threads,
        ctxt_switches_per_agreement: switches as f64 / agreements.len().max(1) as f64,
        agreements,
        stats,
    })
}

#[tokio::main]
async fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("delphi-node: {e}");
            return ExitCode::FAILURE;
        }
    };
    let id = args.id;
    match run(args).await {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("delphi-node[{id}]: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delphi_primitives::wire::MAX_VECTOR_DIMS;

    fn parse(flags: &[&str]) -> Result<Args, String> {
        let base = ["--config", "cluster.toml", "--id", "0"];
        parse_args(base.iter().chain(flags).map(|f| f.to_string()))
    }

    #[test]
    fn defaults_to_a_one_epoch_stream_of_one_asset() {
        let args = parse(&[]).unwrap();
        assert_eq!((args.epochs.get(), args.assets.get()), (1, 1));
    }

    #[test]
    fn zero_epochs_is_a_cli_error() {
        let err = parse(&["--epochs", "0"]).unwrap_err();
        assert!(err.contains("--epochs"), "{err}");
    }

    #[test]
    fn zero_assets_is_a_cli_error() {
        let err = parse(&["--assets", "0"]).unwrap_err();
        assert!(err.contains("--assets"), "{err}");
    }

    #[test]
    fn assets_beyond_u16_are_a_cli_error() {
        for assets in ["65536", "70000"] {
            let err = parse(&["--assets", assets]).unwrap_err();
            assert!(err.starts_with("--assets"), "{assets}: {err}");
        }
        assert_eq!(parse(&["--assets", "65535"]).unwrap().assets.get(), u16::MAX);
    }

    #[test]
    fn baskets_wider_than_one_vector_instance_parse() {
        // A basket wider than one vector instance runs as several.
        let over = (MAX_VECTOR_DIMS + 1).to_string();
        assert_eq!(parse(&["--assets", &over]).unwrap().assets.get(), MAX_VECTOR_DIMS + 1);
    }
}
