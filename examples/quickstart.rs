#![forbid(unsafe_code)]
//! Quickstart: seven temperature sensors agree on a reading.
//!
//! Run with: `cargo run --example quickstart`
//!
//! Demonstrates the minimal Delphi workflow: build a configuration,
//! create one node per sensor, drive them with the deterministic
//! simulator, and inspect the ε-close outputs.

use delphi::core::{DelphiConfig, DelphiNode};
use delphi::primitives::NodeId;
use delphi::sim::{judge, Simulation, Topology};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Seven sensors measure an ambient temperature near 21.3 °C with a
    // little noise; one sensor is miscalibrated by half a degree.
    let readings = [21.28, 21.35, 21.31, 21.24, 21.40, 21.83, 21.30];
    let n = readings.len();

    // Protocol parameters (shared, static):
    //   value space  [-40, 60] °C
    //   ρ0 = ε       0.1 °C    — finest checkpoint spacing & agreement
    //   Δ            4 °C      — worst-case honest spread (λ-bit bound)
    let cfg = DelphiConfig::builder(n)
        .space(-40.0, 60.0)
        .rho0(0.1)
        .delta_max(4.0)
        .epsilon(0.1)
        .build()?;
    println!(
        "Delphi config: n={n} t={} levels={} rounds/instance={}",
        cfg.t(),
        cfg.num_levels(),
        cfg.r_max()
    );

    let nodes = NodeId::all(n)
        .map(|id| DelphiNode::new(cfg.clone(), id, readings[id.index()]).boxed())
        .collect();

    // A deterministic in-process "network": LAN latencies, seed 42.
    let report = Simulation::new(Topology::lan(n)).seed(42).run(nodes);

    println!("simulated runtime: {:.2} ms", report.completion_ms().ok_or("did not finish")?);
    println!("network traffic:   {}", report.metrics);
    for (id, output) in report.outputs.iter().enumerate() {
        println!(
            "sensor {id}: input {:>6.2} °C -> output {:>8.4} °C",
            readings[id],
            output.ok_or("missing output")?
        );
    }

    // The judge checks ε-agreement, and validity within max(ρ0, δ) of the
    // readings' range.
    let outputs: Vec<f64> = report.honest_outputs().copied().collect();
    let spread = judge(&outputs, &readings, cfg.epsilon(), Some(cfg.rho0()))?;
    println!("output spread: {spread:.6} °C (ε = {}), judged valid", cfg.epsilon());
    Ok(())
}
