#![forbid(unsafe_code)]
//! One Delphi protocol node as one OS process — the unit the
//! multi-process cluster harness deploys.
//!
//! Reads a TOML cluster config (`delphi_net::config`), picks its own
//! `[[node]]` entry by `--id`, runs a `DelphiNode` over real sockets
//! against every peer in the file, and prints exactly one JSON report
//! line (`delphi_net::cluster::NodeReport`) on stdout for the launcher.
//!
//! ```text
//! delphi-node --config cluster.toml --id 2 [--input 40013.5]
//!             [--assets 1] [--quote-seed 7] [--unbatched]
//!             [--deadline-ms 60000] [--rho0 2] [--epsilon 2]
//!             [--delta-max 2000]
//!             [--epochs K] [--depth D] [--window W] [--adaptive]
//!             [--recv-shards S] [--vector]
//!             [--api-bind 127.0.0.1:8080]
//! ```
//!
//! Without `--input`, the node derives its input from one minute of the
//! BTC workload (`delphi_workloads::deployment_inputs`) under
//! `--quote-seed`: every process derives the identical vector and picks
//! its own entry, so no input-distribution step is needed.
//!
//! `--assets k` runs `k` independent Delphi instances (a DORA-style
//! asset basket, asset `a` seeded with `quote_seed + a`) multiplexed over
//! the one mesh via `run_instances` — a one-epoch stream through the
//! same runner as `--epochs`. The report's `output` is the mean of the
//! per-asset outputs (each asset converges on its own, so the mean
//! converges too).
//!
//! The flush policy applies to both modes: per step by default,
//! `--adaptive` to batch across steps until a size trigger or an empty
//! inbox, `--unbatched` for
//! the measurement baseline of one frame and one HMAC per envelope (the
//! two flags exclude each other).
//!
//! `--epochs K` switches from a one-shot run to the **streaming oracle**:
//! an `OracleService` pipeline agreeing on a fresh `--assets`-sized
//! basket every epoch, `--depth` epochs in flight under a `--window`-epoch
//! live window, prices from the deterministic multi-epoch feed
//! (`delphi_workloads::EpochFeed` under `--quote-seed`). The report then
//! carries every `(epoch, asset, value)` agreement so the launcher can
//! check per-epoch ε-convergence.
//!
//! `--vector` (epoch runs only) runs each epoch's basket as ONE
//! vector-valued agreement instance — a single bundle exchange and one
//! quorum walk per round for the whole basket — instead of `--assets`
//! independent scalar instances. Agreements in the report keep the same
//! `(epoch, asset, value)` shape; the `vector_instances`/`vector_dims`
//! counters in `stats` mark the mode.
//!
//! `--api-bind ADDR` (epoch runs only) additionally serves the read-side
//! HTTP API on `ADDR` — snapshots, history, subscriptions, and signed
//! attestations — off the protocol hot path, via
//! `delphi::ServiceBuilder::serve`. Attestation keys derive from the
//! node's cluster key material, so a light client holding the cluster
//! seed verifies served values offline.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use delphi_api::ServiceBuilder;
use delphi_bench::feed_price_source;
use delphi_core::{DelphiConfig, DelphiNode, VectorDelphiNode};
use delphi_net::cluster::NodeReport;
use delphi_net::config::ClusterConfig;
use delphi_net::{run_epoch_service, run_instances, FlushPolicy, NetStats, RunOptions};
use delphi_primitives::{flatten_vector_events, EpochEvent, EpochMux, EpochOutcome, EpochStats};
use delphi_workloads::{deployment_inputs, EpochFeed, MultiAssetConfig};

struct Args {
    config: std::path::PathBuf,
    id: u16,
    input: Option<f64>,
    assets: usize,
    quote_seed: u64,
    flush: FlushPolicy,
    deadline_ms: u64,
    rho0: f64,
    epsilon: f64,
    delta_max: f64,
    epochs: u32,
    depth: usize,
    window: usize,
    recv_shards: usize,
    vector: bool,
    api_bind: Option<std::net::SocketAddr>,
}

fn parse_args() -> Result<Args, String> {
    let mut config = None;
    let mut id = None;
    let mut input = None;
    let mut assets = 1usize;
    let mut quote_seed = 7u64;
    let mut unbatched = false;
    let mut deadline_ms = 60_000u64;
    let mut rho0 = 2.0f64;
    let mut epsilon = 2.0f64;
    let mut delta_max = 2_000.0f64;
    let mut epochs = 0u32;
    let mut depth = 2usize;
    let mut window = 6usize;
    let mut adaptive = false;
    let mut recv_shards = 1usize;
    let mut vector = false;
    let mut api_bind = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--config" => config = Some(value("--config")?.into()),
            "--id" => {
                id = Some(value("--id")?.parse().map_err(|e| format!("--id: {e}"))?);
            }
            "--input" => {
                input = Some(value("--input")?.parse().map_err(|e| format!("--input: {e}"))?);
            }
            "--assets" => {
                assets = value("--assets")?.parse().map_err(|e| format!("--assets: {e}"))?;
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
                epochs = value("--epochs")?.parse().map_err(|e| format!("--epochs: {e}"))?;
            }
            "--depth" => {
                depth = value("--depth")?.parse().map_err(|e| format!("--depth: {e}"))?;
            }
            "--window" => {
                window = value("--window")?.parse().map_err(|e| format!("--window: {e}"))?;
            }
            "--adaptive" => adaptive = true,
            "--recv-shards" => {
                recv_shards =
                    value("--recv-shards")?.parse().map_err(|e| format!("--recv-shards: {e}"))?;
            }
            "--vector" => vector = true,
            "--api-bind" => {
                api_bind =
                    Some(value("--api-bind")?.parse().map_err(|e| format!("--api-bind: {e}"))?);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if assets == 0 {
        return Err("--assets must be at least 1".to_string());
    }
    if input.is_some() && assets > 1 {
        return Err("--input only applies to a single-asset run".to_string());
    }
    if input.is_some() && epochs > 0 {
        return Err("--input only applies to a one-shot run".to_string());
    }
    if epochs > 0 && (depth == 0 || window < depth) {
        return Err("--epochs needs --depth >= 1 and --window >= --depth".to_string());
    }
    if recv_shards == 0 {
        return Err("--recv-shards must be at least 1".to_string());
    }
    if api_bind.is_some() && epochs == 0 {
        return Err("--api-bind only applies to an epoch run (--epochs)".to_string());
    }
    if vector && epochs == 0 {
        return Err("--vector only applies to an epoch run (--epochs)".to_string());
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
        input,
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
        recv_shards,
        vector,
        api_bind,
    })
}

/// The basket an epoch run quotes: the reference 4-asset basket when it
/// fits, synthetic price-scaled assets otherwise.
fn epoch_basket(assets: usize) -> MultiAssetConfig {
    if assets == MultiAssetConfig::default_basket().assets.len() {
        MultiAssetConfig::default_basket()
    } else {
        MultiAssetConfig::synthetic(assets)
    }
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
    mux: EpochMux<VectorDelphiNode>,
    keychain: delphi_crypto::Keychain,
    addrs: Vec<std::net::SocketAddr>,
    opts: RunOptions,
) -> Result<(Vec<EpochEvent<f64>>, EpochStats, NetStats, (u64, u64)), String> {
    let epoch_run = |e| format!("epoch run: {e}");
    let mut handle = run_epoch_service(mux, keychain, addrs, opts).await.map_err(epoch_run)?;
    while handle.next_event().await.is_some() {}
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
    let opts = RunOptions {
        deadline: Duration::from_millis(args.deadline_ms),
        flush: args.flush,
        recv_shards: args.recv_shards,
        ..RunOptions::default()
    };
    let started = Instant::now();

    if args.epochs > 0 {
        // Streaming oracle: one agreement per (epoch, asset) pair, prices
        // from the deterministic multi-epoch feed — every process derives
        // the same basket quote per epoch with no distribution step.
        let feed = EpochFeed::new(epoch_basket(args.assets), args.quote_seed);
        let builder = ServiceBuilder::new(cfg, me)
            .epochs(args.epochs)
            .assets(args.assets as u16)
            .pipeline_depth(args.depth)
            .window(args.window)
            .flush(opts.flush)
            .recv_shards(args.recv_shards)
            .deadline(Duration::from_millis(args.deadline_ms))
            .vector_baskets(args.vector);
        let source = feed_price_source(feed, me, n);
        let (events, epoch_stats, stats, (threads, switches)) = match args.api_bind {
            Some(bind) => {
                // Full served deployment: protocol + snapshot cache +
                // subscriptions + signed attestations over HTTP.
                let seed =
                    cluster.key_material(args.id).map_err(|e| format!("key material: {e}"))?;
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
                // The served handle has no end-of-stream hook: these are
                // the threads (and their switches) that outlive the run.
                (events, epoch_stats, stats, thread_switches())
            }
            None => {
                stream_epochs(builder.build_service(source).into_mux(), keychain, addrs, opts)
                    .await?
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
        let output =
            agreements.iter().map(|(_, _, v)| *v).sum::<f64>() / (agreements.len().max(1) as f64);
        return Ok(NodeReport {
            id: args.id,
            output,
            elapsed_ms: started.elapsed().as_secs_f64() * 1e3,
            threads,
            ctxt_switches_per_agreement: switches as f64 / agreements.len().max(1) as f64,
            agreements,
            stats,
        });
    }

    // One protocol instance per asset; asset `a` quotes minute
    // `quote_seed + a`, so every process derives the same basket.
    let instances: Vec<DelphiNode> = (0..args.assets)
        .map(|a| {
            let input = match args.input {
                Some(v) => v,
                None => deployment_inputs(n, args.quote_seed + a as u64)[usize::from(args.id)],
            };
            DelphiNode::new(cfg.clone(), me, input)
        })
        .collect();

    let (outputs, stats) =
        run_instances(instances, keychain, addrs, opts).await.map_err(|e| format!("run: {e}"))?;
    // One-shot runs return after teardown: the gauges cover what is left.
    let (threads, switches) = thread_switches();
    Ok(NodeReport {
        id: args.id,
        output: outputs.iter().sum::<f64>() / outputs.len() as f64,
        elapsed_ms: started.elapsed().as_secs_f64() * 1e3,
        agreements: Vec::new(),
        threads,
        ctxt_switches_per_agreement: switches as f64 / outputs.len().max(1) as f64,
        stats,
    })
}

#[tokio::main]
async fn main() -> ExitCode {
    let args = match parse_args() {
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
