//! Shared harness for multi-process cluster runs (the `delphi-node` /
//! `delphi-cluster` binaries and the fig6 `--cluster` mode).
//!
//! The division of labour: `delphi-net` owns the deployment-agnostic
//! pieces (cluster-file format, process launcher, report schema); this
//! module binds them to the Delphi protocol — which binary to run, which
//! arguments carry the paper's parameters, and how a localhost config
//! with genuinely free ports is produced for smoke runs.

use std::net::TcpListener;
use std::path::PathBuf;

use delphi_net::cluster::{
    find_sibling_binary, launch, node_command, ClusterError, ClusterOutcome,
};
use delphi_net::config::{ClusterConfig, NodeEntry};
use delphi_net::frame::EPOCH_FRAME_OVERHEAD_BYTES;
use delphi_net::NetStats;
use delphi_primitives::{EpochEvent, EpochId, EpochOutcome};
use delphi_workloads::{EpochFeed, MultiAssetConfig};

use crate::judge_feed;

/// Key material used by generated localhost cluster configs.
pub const LOCAL_CLUSTER_SEED: &[u8] = b"delphi-local-cluster";

/// The ρ0 a `delphi-node` runs with unless `--rho0` says otherwise, and
/// the one [`judge_cluster`] holds a launched run to.
pub const NODE_RHO0: f64 = 2.0;

/// The basket a `delphi-node` run of `assets` quotes: the reference
/// 4-asset basket when it fits, synthetic price-scaled assets otherwise.
pub fn epoch_basket(assets: u16) -> MultiAssetConfig {
    let reference = MultiAssetConfig::default_basket();
    let fits = reference.assets.len() == usize::from(assets);
    if fits {
        reference
    } else {
        MultiAssetConfig::synthetic(usize::from(assets))
    }
}

/// How one cluster run of `delphi-node` processes is parameterized.
#[derive(Clone, Debug)]
pub struct ClusterRunSpec {
    /// Path to the cluster TOML handed to every node process.
    pub config: PathBuf,
    /// Node binary; `None` resolves the sibling `delphi-node`.
    pub node_binary: Option<PathBuf>,
    /// Shared seed for the deterministic per-node inputs.
    pub quote_seed: u64,
    /// Basket size: agreements per epoch.
    pub assets: u16,
    /// One frame per envelope (`--unbatched`); excludes `adaptive`.
    pub unbatched: bool,
    /// Per-node protocol deadline in milliseconds.
    pub deadline_ms: u64,
    /// Protocol ε every node runs with, and [`judge_cluster`] holds to.
    pub epsilon: f64,
    /// Epoch-stream length (at least 1: one agreement on the basket).
    pub epochs: u32,
    /// Epochs in flight at once.
    pub depth: usize,
    /// Live-window size in epochs (≥ depth).
    pub window: usize,
    /// Adaptive batch flushing (size triggers, empty inbox), not per-step.
    pub adaptive: bool,
}

impl ClusterRunSpec {
    /// A spec with the defaults the fig6 binaries use.
    pub fn new(config: PathBuf) -> ClusterRunSpec {
        ClusterRunSpec {
            config,
            node_binary: None,
            quote_seed: 7,
            assets: 1,
            unbatched: false,
            deadline_ms: 60_000,
            epsilon: LOCAL_EPSILON,
            epochs: 1,
            depth: 2,
            window: 6,
            adaptive: false,
        }
    }

    /// Agreements every node must report: one per `(epoch, asset)`.
    pub fn expected_agreements(&self) -> u64 {
        u64::from(self.epochs) * u64::from(self.assets)
    }
}

/// Launches one `delphi-node` process per `[[node]]` entry of the spec's
/// config and collects their reports.
///
/// # Errors
///
/// [`ClusterError`] if the config cannot be loaded, the binary is
/// missing, a process fails, or a report does not parse.
pub fn run_cluster(spec: &ClusterRunSpec) -> Result<ClusterOutcome, ClusterError> {
    let cfg = ClusterConfig::load(&spec.config)
        .map_err(|e| ClusterError::Config { why: e.to_string() })?;
    let binary = match &spec.node_binary {
        Some(p) => p.clone(),
        None => find_sibling_binary("delphi-node")?,
    };
    let extra = node_args(spec);
    let commands =
        (0..cfg.n()).map(|id| node_command(&binary, &spec.config, id as u16, &extra)).collect();
    launch(commands)
}

/// The flags after `--config` and `--id` that every node process of
/// `spec` runs with.
pub fn node_args(spec: &ClusterRunSpec) -> Vec<String> {
    let values = [
        ("--quote-seed", spec.quote_seed.to_string()),
        ("--assets", spec.assets.to_string()),
        ("--deadline-ms", spec.deadline_ms.to_string()),
        ("--epsilon", spec.epsilon.to_string()),
        ("--epochs", spec.epochs.to_string()),
        ("--depth", spec.depth.to_string()),
        ("--window", spec.window.to_string()),
    ];
    let flags = [("--adaptive", spec.adaptive), ("--unbatched", spec.unbatched)];
    let values = values.into_iter().flat_map(|(flag, value)| [flag.to_string(), value]);
    values.chain(flags.into_iter().filter(|f| f.1).map(|f| f.0.to_string())).collect()
}

/// Builds an `n`-node localhost [`ClusterConfig`] on ports that are free
/// *right now* (reserved by binding and releasing ephemeral listeners, the
/// same trick the loopback tests use).
///
/// # Panics
///
/// Panics if loopback listeners cannot be bound at all.
pub fn reserve_localhost_config(n: usize) -> ClusterConfig {
    let holders: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback")).collect();
    let nodes = (0..).zip(&holders).map(|(id, l)| NodeEntry {
        id,
        address: l.local_addr().expect("local addr"),
        key: None,
    });
    let name = Some("localhost".to_string());
    ClusterConfig { name, seed: Some(LOCAL_CLUSTER_SEED.to_vec()), nodes: nodes.collect() }
}

/// Writes `cfg` as TOML to a per-process temp file tagged `tag`, returning
/// its path.
///
/// # Errors
///
/// Propagates the underlying I/O failure.
pub fn write_temp_config(cfg: &ClusterConfig, tag: &str) -> std::io::Result<PathBuf> {
    let path = std::env::temp_dir().join(format!("delphi-{tag}-{}.toml", std::process::id()));
    std::fs::write(&path, cfg.to_toml())?;
    Ok(path)
}

/// Framing bytes per envelope a run put on the wire, from the frame, head
/// and envelope counters alone: unlike wire bytes per envelope it does not
/// count the bundles of one asynchronous execution, so two runs compare on
/// framing alone (a head grows a byte only past epoch 127 or 127-byte bundles).
pub fn framing_bytes_per_envelope(stats: &NetStats) -> f64 {
    let framing = stats.sent_frames * EPOCH_FRAME_OVERHEAD_BYTES as u64 + stats.sent_head_bytes;
    framing as f64 / stats.sent_entries as f64
}

/// Judges a run's reports, each read back as its ordered stream, against
/// every node's inputs regenerated as `delphi-node` derives them (the
/// `EpochFeed` of [`epoch_basket`] under `quote_seed`): whole streams of
/// `epochs`, ε-agreement and `max(ρ0, δ)` validity. Returns the worst spread.
///
/// # Errors
///
/// The first violation, or a node that reported its assets out of order.
pub fn judge_cluster(outcome: &ClusterOutcome, spec: &ClusterRunSpec) -> Result<f64, String> {
    let mut streams = Vec::with_capacity(outcome.reports.len());
    for report in &outcome.reports {
        let stream = report.agreements.chunk_by(|x, y| x.0 == y.0).map(|epoch| {
            let in_order = (0..).zip(epoch).all(|(a, &(_, asset, _))| asset == a);
            let values = epoch.iter().map(|&(_, _, value)| value).collect();
            let id = EpochId(epoch.first().map_or(0, |&(e, _, _)| e));
            in_order.then_some(EpochEvent { epoch: id, outcome: EpochOutcome::Agreed(values) })
        });
        let stream: Option<Vec<_>> = stream.collect();
        streams.push(stream.ok_or_else(|| format!("node {}: assets out of order", report.id))?);
    }
    let feed = EpochFeed::new(epoch_basket(spec.assets), spec.quote_seed);
    judge_feed(&streams, &feed, streams.len(), spec.epochs, spec.epsilon, NODE_RHO0)
}

/// Renders a one-line summary of a finished cluster run with its
/// `verdict` from [`judge_cluster`].
pub fn summarize(
    outcome: &ClusterOutcome,
    spec: &ClusterRunSpec,
    verdict: &Result<f64, String>,
) -> String {
    let expected = spec.expected_agreements();
    let verdict = verdict.as_ref().map_or_else(
        |why| format!("judged: FAILED, {why}"),
        |spread| format!("judged: ok, worst epoch spread {spread:.6}$"),
    );
    let total = outcome.total_stats();
    let secs = outcome.max_elapsed_ms() / 1e3;
    let agreements = outcome.agreements();
    let shared = 1.0 - total.body_hashes as f64 / total.sent_tags.max(1) as f64;
    format!(
        "{} nodes | {agreements} agreements per node (expected {expected}) | {verdict} (eps = \
         {}$, rho0 = {NODE_RHO0}$) | {:.1} agreements/s | {} threads/node | {:.0} ctxt \
         switches/agreement | {:.0} wire B/agreement | {:.2} frames/agreement | {shared:.3} of \
         frames shared a body hash | {} late entries",
        outcome.reports.len(),
        spec.epsilon,
        if secs > 0.0 { agreements as f64 / secs } else { 0.0 },
        outcome.max_threads(),
        outcome.ctxt_switches_per_agreement(),
        if agreements > 0 { total.sent_bytes as f64 / agreements as f64 } else { f64::NAN },
        if agreements > 0 { total.sent_frames as f64 / agreements as f64 } else { f64::NAN },
        total.late_entries,
    )
}

/// Parses `--cluster <path>` out of the argument list (used by the fig6
/// binaries to switch from simulation to the real harness). A bare
/// `--cluster` with no path is a hard CLI error — silently falling back
/// to the multi-minute simulated sweep would hide the typo.
pub fn cluster_flag() -> Option<PathBuf> {
    let mut args = std::env::args().skip(1).skip_while(|a| a != "--cluster");
    args.next()?;
    let Some(path) = args.next() else {
        eprintln!("--cluster requires a config path");
        std::process::exit(2);
    };
    Some(PathBuf::from(path))
}

/// Convenience wrapper for smoke tests and examples: reserves ports,
/// writes the config, runs the cluster, and cleans the temp file up.
/// Returns the outcome with the spec it ran, for [`judge_cluster`].
///
/// # Errors
///
/// See [`run_cluster`]; config-write failures surface as a spawn error on
/// node 0.
pub fn run_local_cluster(
    n: usize,
    tag: &str,
    mutate: impl FnOnce(&mut ClusterRunSpec),
) -> Result<(ClusterOutcome, ClusterRunSpec), ClusterError> {
    let cfg = reserve_localhost_config(n);
    let path = write_temp_config(&cfg, tag)
        .map_err(|e| ClusterError::Spawn { id: 0, why: e.to_string() })?;
    let mut spec = ClusterRunSpec::new(path.clone());
    mutate(&mut spec);
    let result = run_cluster(&spec);
    let _ = std::fs::remove_file(&path);
    Ok((result?, spec))
}

/// The ε the generated localhost runs target (the paper's oracle preset).
pub const LOCAL_EPSILON: f64 = 2.0;

#[cfg(test)]
mod tests {
    use super::*;
    use delphi_net::cluster::NodeReport;
    use delphi_sim::spread;

    /// Node `id`'s report: `agreements`, and nothing else of note.
    fn epoch_report(id: u16, agreements: Vec<(u32, u16, f64)>) -> NodeReport {
        let stats = NetStats::default();
        NodeReport {
            id,
            elapsed_ms: 1.0,
            agreements,
            threads: 1,
            ctxt_switches_per_agreement: 0.0,
            stats,
        }
    }

    /// Two nodes' reports of `spec`'s whole stream: node `id` agrees on
    /// `value(inputs, id)` for each `(epoch, asset)`, `inputs` the ones
    /// `delphi-node` derives for it.
    fn outcome(spec: &ClusterRunSpec, value: impl Fn(&[f64], u16) -> f64) -> ClusterOutcome {
        let feed = EpochFeed::new(epoch_basket(spec.assets), spec.quote_seed);
        let reports = (0..2u16).map(|id| {
            let agreements = (0..spec.epochs).flat_map(|e| {
                let inputs = feed.inputs(e, 2);
                (0..spec.assets).map(move |a| (e, a, inputs[usize::from(a)].clone()))
            });
            epoch_report(id, agreements.map(|(e, a, inputs)| (e, a, value(&inputs, id))).collect())
        });
        ClusterOutcome { reports: reports.collect() }
    }

    fn spec(epochs: u32, assets: u16) -> ClusterRunSpec {
        ClusterRunSpec { epochs, assets, ..ClusterRunSpec::new(PathBuf::from("unused.toml")) }
    }

    #[test]
    fn epoch_convergence_checks_per_pair_spread_and_completeness() {
        // One unit apart, from node 0's input: inside max(ρ0, δ), within ε.
        let spec = spec(2, 2);
        let agreeing = outcome(&spec, |inputs, id| inputs[0] + f64::from(id));
        assert_eq!(agreeing.agreements(), 4);
        assert_eq!(judge_cluster(&agreeing, &spec), Ok(1.0));
        let tight = ClusterRunSpec { epsilon: 0.5, ..spec.clone() };
        assert!(judge_cluster(&agreeing, &tight).unwrap_err().contains("agreement"));
        let longer = ClusterRunSpec { epochs: 3, ..spec.clone() };
        assert!(judge_cluster(&agreeing, &longer).unwrap_err().contains("2 events for 3 epochs"));

        // A node that skipped an epoch, or reported its assets out of
        // order, can never pass.
        let mut skipped = agreeing.clone();
        skipped.reports[1].agreements.drain(..2);
        assert!(judge_cluster(&skipped, &spec).is_err());
        let mut swapped = agreeing.clone();
        swapped.reports[0].agreements.swap(0, 1);
        assert!(judge_cluster(&swapped, &spec).unwrap_err().contains("out of order"));
    }

    #[test]
    fn launcher_rejects_agreeing_outputs_outside_the_input_hull() {
        // Every node agrees exactly on every pair, so the spread is 0 and
        // every agreement is there, but 2·max(ρ0, δ) above the hull.
        let spec = spec(3, 4);
        let shifted = outcome(&spec, |inputs, _| {
            let delta = spread(inputs);
            inputs[0] + delta + 2.0 * NODE_RHO0.max(delta)
        });
        assert_eq!(shifted.agreements(), 12);
        let why = judge_cluster(&shifted, &spec).unwrap_err();
        assert!(why.contains("epoch 0 asset 0: validity"), "{why}");
    }

    #[test]
    fn reserved_config_has_distinct_free_ports() {
        let cfg = reserve_localhost_config(4);
        let mut ports: Vec<u16> = cfg.nodes.iter().map(|n| n.address.port()).collect();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 4, "ports must be distinct");
        assert!(ports.iter().all(|p| *p != 0));
    }

    #[test]
    fn temp_config_roundtrips_through_disk() {
        let cfg = reserve_localhost_config(3);
        let path = write_temp_config(&cfg, "unit").unwrap();
        let loaded = ClusterConfig::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(loaded, cfg);
    }

    #[test]
    fn epoch_summary_counts_frames_that_shared_a_body_hash() {
        // Two nodes, 12 frames tagged and 4 bodies hashed between them:
        // 8 of the 12 frames reused a body another destination hashed.
        let report = |id: u16, sent_tags: u64, body_hashes: u64| NodeReport {
            id,
            elapsed_ms: 1_000.0,
            agreements: vec![(0, 0, 100.0), (1, 0, 101.0)],
            threads: 9,
            ctxt_switches_per_agreement: 12.0,
            stats: NetStats {
                sent_frames: sent_tags,
                sent_tags,
                body_hashes,
                ..NetStats::default()
            },
        };
        let outcome = ClusterOutcome { reports: vec![report(0, 6, 2), report(1, 6, 2)] };
        let line = summarize(&outcome, &spec(2, 1), &Ok(1.0));
        assert!(line.contains("judged: ok, worst epoch spread 1.000000$"), "{line}");
        assert!(line.contains("0.667 of frames shared a body hash"), "{line}");
        assert!(line.contains("2 agreements per node (expected 2)"), "{line}");
        assert!(line.contains("6.00 frames/agreement"), "{line}");
    }

    #[test]
    fn missing_node_binary_is_reported() {
        let cfg = reserve_localhost_config(2);
        let path = write_temp_config(&cfg, "nobin").unwrap();
        let mut spec = ClusterRunSpec::new(path.clone());
        spec.node_binary = Some(PathBuf::from("/definitely/not/delphi-node"));
        let err = run_cluster(&spec).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(matches!(err, ClusterError::Spawn { .. }), "{err}");
    }
}
