#![forbid(unsafe_code)]
//! Head-to-head: Delphi vs the two baselines of Fig. 6 on identical
//! inputs and an identical simulated geo-distributed network.
//!
//! Run with: `cargo run --release --example baseline_comparison`

use delphi::baselines::{AadNode, AcsNode};
use delphi::core::{DelphiConfig, DelphiNode};
use delphi::primitives::NodeId;
use delphi::sim::{judge, spread, RunReport, Simulation, Topology};
use delphi::workloads::{BtcFeed, BtcFeedConfig};

/// Prints one protocol's row once its outputs pass the judge: ε-agreement
/// and validity, relaxed by `max(ρ0, δ)` or exact for `rho0 = None`.
fn summarize(
    name: &str,
    inputs: &[f64],
    report: &RunReport<f64>,
    epsilon: f64,
    rho0: Option<f64>,
) -> Result<(), String> {
    let outs: Vec<f64> = report.honest_outputs().copied().collect();
    let spread = judge(&outs, inputs, epsilon, rho0).map_err(|why| format!("{name}: {why}"))?;
    println!(
        "{name:<22} {:>9.1} ms {:>9.2} MiB {:>12} msgs | spread {spread:>8.4}$ | judged valid",
        report.completion_ms().unwrap_or(f64::NAN),
        report.metrics.total_wire_mib(),
        report.metrics.total_msgs(),
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 16;
    let t = (n - 1) / 3;
    let mut feed = BtcFeed::new(BtcFeedConfig::default(), 4242);
    let quote = feed.next_minute();
    let inputs = feed.node_inputs(&quote, n);
    println!(
        "n = {n}, t = {t}; BTC quotes around {:.0}$ with range {:.2}$\n",
        quote.truth,
        quote.range()
    );
    println!("{:<22} {:>12} {:>13} {:>17}", "protocol", "latency", "traffic", "messages");

    // Delphi, with the paper's Fig. 6a configuration.
    let cfg = DelphiConfig::builder(n)
        .space(0.0, 100_000.0)
        .rho0(10.0)
        .delta_max(2000.0)
        .epsilon(2.0)
        .build()?;
    let nodes = NodeId::all(n)
        .map(|id| DelphiNode::new(cfg.clone(), id, inputs[id.index()]).boxed())
        .collect();
    let report = Simulation::new(Topology::aws_geo(n)).seed(1).run(nodes);
    summarize("Delphi", &inputs, &report, cfg.epsilon(), Some(cfg.rho0()))?;

    // Abraham et al.: log2(Δ/ε) = 10 rounds of RBC + witnesses.
    let nodes =
        NodeId::all(n).map(|id| AadNode::new(id, n, t, inputs[id.index()], 10).boxed()).collect();
    let report = Simulation::new(Topology::aws_geo(n)).seed(1).run(nodes);
    // Each round halves the honest spread: ε = δ / 2^10, exact hull.
    summarize("Abraham et al. (AAA)", &inputs, &report, spread(&inputs) / 1024.0, None)?;

    // FIN-style ACS: n RBCs + n ABAs, median output (exact agreement).
    let nodes = NodeId::all(n)
        .map(|id| AcsNode::new(id, n, t, inputs[id.index()], b"coin").boxed())
        .collect();
    let report = Simulation::new(Topology::aws_geo(n)).seed(1).run(nodes);
    summarize("FIN-style ACS", &inputs, &report, 0.0, None)?;

    println!(
        "\nNote: at n = 16 Delphi's high round count makes it the slower,\n\
         lighter protocol — exactly the small-n regime of Fig. 6a. Re-run\n\
         the fig6a_runtime_aws bench binary to watch the crossover as n grows."
    );
    Ok(())
}
