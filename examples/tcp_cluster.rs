#![forbid(unsafe_code)]
//! A real Delphi cluster on localhost, driven by the deployment harness:
//! a TOML cluster config (`delphi::net::config`) describes the nodes, and
//! the run happens over HMAC-authenticated sockets — the same shape as
//! the paper's testbeds.
//!
//! If the `delphi-node` binary is available next to this example's
//! executable (`cargo build -p delphi-bench --bin delphi-node` puts it
//! there), the cluster runs as **one OS process per node** through the
//! `delphi::net::cluster` launcher, each node agreeing once on a price
//! from the epoch feed (a stream of one epoch). Otherwise it falls back
//! to one tokio task per node in this process, agreeing once on a minute
//! of the BTC workload via `run_node` — same config, same sockets, same
//! frames.
//!
//! Run with: `cargo run --example tcp_cluster`

use delphi::core::{DelphiConfig, DelphiNode};
use delphi::net::cluster::find_sibling_binary;
use delphi::net::config::ClusterConfig;
use delphi::net::{run_node, RunOptions};
use delphi::primitives::NodeId;
use delphi::sim::judge;
use delphi::workloads::deployment_inputs;
use delphi_bench::cluster::{
    judge_cluster, reserve_localhost_config, run_cluster, write_temp_config, ClusterRunSpec,
    NODE_RHO0,
};

const QUOTE_SEED: u64 = 7;
const EPSILON: f64 = 2.0;

/// One process per node, through the real launcher; the outputs are
/// judged against the inputs every node derived from the epoch feed.
/// Returns the output spread.
fn run_multi_process(
    cfg: &ClusterConfig,
    binary: &std::path::Path,
) -> Result<f64, Box<dyn std::error::Error>> {
    let path = write_temp_config(cfg, "tcp-cluster-example")?;
    let mut spec = ClusterRunSpec::new(path.clone());
    (spec.node_binary, spec.quote_seed, spec.epsilon) =
        (Some(binary.to_path_buf()), QUOTE_SEED, EPSILON);
    let outcome = run_cluster(&spec);
    let _ = std::fs::remove_file(&path);
    let outcome = outcome?;
    for r in &outcome.reports {
        for &(_, _, value) in &r.agreements {
            println!(
                "node {}: output {value:>11.4}$ in {:>4.0} ms | {} frames / {} bytes sent, {} \
                 dropped",
                r.id, r.elapsed_ms, r.stats.sent_frames, r.stats.sent_bytes, r.stats.dropped_frames
            );
        }
    }
    Ok(judge_cluster(&outcome, &spec)?)
}

/// Fallback: one tokio task per node in this process, from the same
/// config; the outputs are judged against the nodes' inputs. Returns the
/// output spread.
async fn run_in_process(cfg: &ClusterConfig) -> Result<f64, Box<dyn std::error::Error>> {
    let n = cfg.n();
    let protocol_cfg = DelphiConfig::builder(n)
        .space(0.0, 100_000.0)
        .rho0(NODE_RHO0)
        .delta_max(2000.0)
        .epsilon(EPSILON)
        .build()?;
    let inputs = deployment_inputs(n, QUOTE_SEED);
    let addrs = cfg.addresses();
    let mut handles = Vec::new();
    for id in NodeId::all(n) {
        let keychain = cfg.keychain(id.0)?;
        let node = DelphiNode::new(protocol_cfg.clone(), id, inputs[id.index()]);
        let addrs = addrs.clone();
        handles.push((
            id,
            tokio::spawn(
                async move { run_node(node, keychain, addrs, RunOptions::default()).await },
            ),
        ));
    }
    let mut outputs = Vec::new();
    for (id, h) in handles {
        let (output, stats) = h.await??;
        println!(
            "node {}: input {:>9.2}$ -> output {:>11.4}$ | {} frames / {} bytes sent, {} dropped",
            id.0,
            inputs[id.index()],
            output,
            stats.sent_frames,
            stats.sent_bytes,
            stats.dropped_frames
        );
        outputs.push(output);
    }
    Ok(judge(&outputs, &inputs, EPSILON, Some(NODE_RHO0))?)
}

#[tokio::main]
async fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 5;
    // Free loopback ports are reserved by binding and releasing them; the
    // nodes re-bind moments later.
    let cfg = reserve_localhost_config(n);
    println!("cluster config:\n{}", cfg.to_toml());

    let spread = match find_sibling_binary("delphi-node") {
        Ok(binary) => {
            println!("running one OS process per node via {}\n", binary.display());
            run_multi_process(&cfg, &binary)?
        }
        Err(_) => {
            println!(
                "delphi-node binary not built (cargo build -p delphi-bench --bin delphi-node); \
                 running one tokio task per node instead\n"
            );
            run_in_process(&cfg).await?
        }
    };

    println!("\noutput spread over real TCP: {spread:.6}$ (ε = {EPSILON}$), judged valid");
    Ok(())
}
