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
use delphi_net::config::ClusterConfig;
use delphi_net::frame::{EPOCH_ENTRY_OVERHEAD_BYTES, EPOCH_FRAME_OVERHEAD_BYTES};
use delphi_net::NetStats;

/// Key material used by generated localhost cluster configs.
pub const LOCAL_CLUSTER_SEED: &[u8] = b"delphi-local-cluster";

/// How one cluster run of `delphi-node` processes is parameterized.
#[derive(Clone, Debug)]
pub struct ClusterRunSpec {
    /// Path to the cluster TOML handed to every node process.
    pub config: PathBuf,
    /// Node binary; `None` resolves the sibling `delphi-node`.
    pub node_binary: Option<PathBuf>,
    /// Shared seed for the deterministic per-node inputs.
    pub quote_seed: u64,
    /// Independent Delphi instances (assets) multiplexed per node.
    pub assets: usize,
    /// Flush every envelope in a frame of its own (`--unbatched`, the
    /// per-entry policy) instead of batching; excludes `adaptive`.
    pub unbatched: bool,
    /// Per-node protocol deadline in milliseconds.
    pub deadline_ms: u64,
    /// Protocol ε forwarded to every node (the agreement tolerance the
    /// nodes actually run with, not just a launcher-side check).
    pub epsilon: f64,
    /// Epoch-stream length; 0 runs the classic one-shot agreement.
    pub epochs: u32,
    /// Epochs in flight at once (streaming runs).
    pub depth: usize,
    /// Live-window size in epochs (streaming runs; ≥ depth).
    pub window: usize,
    /// Adaptive batch flushing (size triggers, empty inbox) instead of per-step,
    /// in one-shot and streaming runs alike.
    pub adaptive: bool,
    /// Receive dispatch shards per node (1 = unsharded).
    pub recv_shards: usize,
    /// Run each epoch's basket as one vector-valued agreement instance
    /// (streaming runs only) instead of per-asset scalar instances.
    pub vector: bool,
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
            epochs: 0,
            depth: 2,
            window: 6,
            adaptive: false,
            recv_shards: 1,
            vector: false,
        }
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
    let mut extra = vec![
        "--quote-seed".to_string(),
        spec.quote_seed.to_string(),
        "--assets".to_string(),
        spec.assets.to_string(),
        "--deadline-ms".to_string(),
        spec.deadline_ms.to_string(),
        "--epsilon".to_string(),
        spec.epsilon.to_string(),
    ];
    if spec.epochs > 0 {
        extra.extend([
            "--epochs".to_string(),
            spec.epochs.to_string(),
            "--depth".to_string(),
            spec.depth.to_string(),
            "--window".to_string(),
            spec.window.to_string(),
        ]);
        if spec.vector {
            extra.push("--vector".to_string());
        }
    }
    if spec.adaptive {
        extra.push("--adaptive".to_string());
    }
    if spec.recv_shards > 1 {
        extra.extend(["--recv-shards".to_string(), spec.recv_shards.to_string()]);
    }
    if spec.unbatched {
        extra.push("--unbatched".to_string());
    }
    let commands =
        (0..cfg.n()).map(|id| node_command(&binary, &spec.config, id as u16, &extra)).collect();
    launch(commands)
}

/// Builds an `n`-node localhost [`ClusterConfig`] on ports that are free
/// *right now* (reserved by binding and releasing ephemeral listeners, the
/// same trick the loopback tests use).
///
/// # Panics
///
/// Panics if loopback listeners cannot be bound at all.
pub fn reserve_localhost_config(n: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::localhost(n, 1, LOCAL_CLUSTER_SEED);
    let mut holders = Vec::with_capacity(n);
    for node in &mut cfg.nodes {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        node.address = l.local_addr().expect("local addr");
        holders.push(l);
    }
    drop(holders);
    cfg
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

/// Framing bytes per envelope a run put on the wire — per frame the length
/// word, marker, sender, count and tag, per entry its id and length prefix
/// — from the frame and envelope counters alone. Unlike wire bytes per
/// envelope it does not depend on how large the bundles of one
/// asynchronous execution happened to be, so two runs compare exactly.
pub fn framing_bytes_per_envelope(stats: &NetStats) -> f64 {
    let framing = stats.sent_frames * EPOCH_FRAME_OVERHEAD_BYTES as u64
        + stats.sent_entries * EPOCH_ENTRY_OVERHEAD_BYTES as u64;
    framing as f64 / stats.sent_entries as f64
}

/// Renders a one-line summary of a finished cluster run (used by the
/// launcher binary and the fig6 `--cluster` mode).
pub fn summarize(outcome: &ClusterOutcome, epsilon: f64) -> String {
    let total = outcome.total_stats();
    format!(
        "{} nodes | spread {:.6}$ (eps = {epsilon}$, converged: {}) | slowest node {:.0} ms | \
         {} frames for {} envelopes / {:.2} MiB on the wire / {} MACs",
        outcome.reports.len(),
        outcome.spread(),
        outcome.converged(epsilon),
        outcome.max_elapsed_ms(),
        total.sent_frames,
        total.sent_entries,
        total.sent_bytes as f64 / (1024.0 * 1024.0),
        total.mac_ops,
    )
}

/// Renders a one-line summary of a finished epoch-stream cluster run.
/// Vector-mode runs (nonzero `vector_dims` in the node stats) get their
/// basket counters appended so smoke logs show the mode actually ran.
pub fn summarize_epochs(outcome: &ClusterOutcome, epsilon: f64, expected: u64) -> String {
    let total = outcome.total_stats();
    let secs = outcome.max_elapsed_ms() / 1e3;
    let agreements = outcome.epoch_agreements();
    let encoded = total.egress_shard_macs.iter().sum::<u64>();
    let shared = 1.0 - total.body_hashes as f64 / encoded.max(1) as f64;
    let vector = if total.vector_dims > 0 {
        format!(
            " | vector baskets: {} instances x {} dims",
            total.vector_instances, total.vector_dims
        )
    } else {
        String::new()
    };
    format!(
        "{} nodes | {agreements} agreements per node (expected {expected}) | worst epoch spread \
         {:.6}$ (eps = {epsilon}$, converged: {}) | {:.1} agreements/s | {} threads/node | \
         {:.0} ctxt switches/agreement | {:.0} wire B/agreement | {:.2} frames/agreement | \
         {shared:.3} of frames shared a body hash | {} late entries{vector}",
        outcome.reports.len(),
        outcome.epoch_spread(),
        outcome.epoch_converged(epsilon, expected),
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
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--cluster" {
            let Some(path) = args.next() else {
                eprintln!("--cluster requires a config path");
                std::process::exit(2);
            };
            return Some(PathBuf::from(path));
        }
    }
    None
}

/// Convenience wrapper for smoke tests and examples: reserves ports,
/// writes the config, runs the cluster, and cleans the temp file up.
///
/// # Errors
///
/// See [`run_cluster`]; config-write failures surface as a spawn error on
/// node 0.
pub fn run_local_cluster(
    n: usize,
    tag: &str,
    mutate: impl FnOnce(&mut ClusterRunSpec),
) -> Result<ClusterOutcome, ClusterError> {
    let cfg = reserve_localhost_config(n);
    let path = write_temp_config(&cfg, tag)
        .map_err(|e| ClusterError::Spawn { id: 0, why: e.to_string() })?;
    let mut spec = ClusterRunSpec::new(path.clone());
    mutate(&mut spec);
    let result = run_cluster(&spec);
    let _ = std::fs::remove_file(&path);
    result
}

/// The ε the generated localhost runs target (the paper's oracle preset).
pub const LOCAL_EPSILON: f64 = 2.0;

#[cfg(test)]
mod tests {
    use super::*;

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
