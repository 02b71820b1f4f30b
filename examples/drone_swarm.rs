#![forbid(unsafe_code)]
//! The paper's CPS application (§VI-B): a drone swarm localizes a car by
//! agreeing on each coordinate with a separate Delphi instance.
//!
//! Run with: `cargo run --example drone_swarm`

use delphi::core::{DelphiConfig, DelphiNode};
use delphi::primitives::{NodeId, Protocol};
use delphi::sim::adversary::Faulty;
use delphi::sim::{judge, spread, Simulation, Topology};
use delphi::workloads::{DroneScenario, DroneScenarioConfig};

fn run_axis(
    cfg: &DelphiConfig,
    inputs: &[f64],
    crashed: &[NodeId],
    seed: u64,
    topology: Topology,
) -> (Vec<f64>, f64, f64) {
    let n = cfg.n();
    let nodes: Vec<Box<dyn Protocol<Output = f64>>> = NodeId::all(n)
        .map(|id| {
            if crashed.contains(&id) {
                Box::new(Faulty::crash(id, n)) as Box<_>
            } else {
                DelphiNode::new(cfg.clone(), id, inputs[id.index()]).boxed()
            }
        })
        .collect();
    let report = Simulation::new(topology).seed(seed).faulty(crashed).run(nodes);
    assert!(report.all_honest_finished(), "axis agreement stalled");
    (
        report.honest_outputs().copied().collect(),
        report.completion_ms().unwrap_or(f64::NAN),
        report.metrics.total_wire_mib(),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 15 drones (one per Raspberry Pi of the paper's testbed), 2 crash.
    let n = 15;
    // §VI-B parameters: ρ0 = ε = 0.5 m, Δ = 50 m.
    let cfg = DelphiConfig::builder(n)
        .space(-10_000.0, 10_000.0)
        .rho0(0.5)
        .delta_max(50.0)
        .epsilon(0.5)
        .build()?;
    println!(
        "drone swarm: n={n} t={} | Δ={}m ρ0={}m ε={}m | {} levels, {} rounds",
        cfg.t(),
        cfg.delta_max(),
        cfg.rho0(),
        cfg.epsilon(),
        cfg.num_levels(),
        cfg.r_max()
    );

    // A car parked at (137.2, -42.8); every drone estimates its position
    // from a detection (Gamma IoU) plus GPS error (Gamma magnitude).
    let truth = (137.2, -42.8);
    let mut scenario = DroneScenario::new(DroneScenarioConfig::default(), truth, 5);
    let (xs, ys) = scenario.axis_inputs(n);
    println!("observations: x spread {:.2} m, y spread {:.2} m", spread(&xs), spread(&ys));

    let crashed = [NodeId(3), NodeId(9)];
    println!("crashed drones: {crashed:?}");

    // One Delphi instance per coordinate, over the bandwidth-limited CPS
    // topology (15 hosts, one process each).
    let (out_x, ms_x, mib_x) = run_axis(&cfg, &xs, &crashed, 21, Topology::cps(n, 15));
    let (out_y, ms_y, mib_y) = run_axis(&cfg, &ys, &crashed, 22, Topology::cps(n, 15));

    let agreed = (out_x[0], out_y[0]);
    println!("agreed position: ({:.3}, {:.3})", agreed.0, agreed.1);
    println!("x axis: {:.0} ms, {:.3} MiB | y axis: {:.0} ms, {:.3} MiB", ms_x, mib_x, ms_y, mib_y);

    // Per axis, ε-agreement and validity: within max(ρ0, δ) of the hull of
    // the observations of the drones that did not crash.
    for (outs, inputs) in [(&out_x, &xs), (&out_y, &ys)] {
        let honest: Vec<f64> = NodeId::all(n)
            .zip(inputs)
            .filter_map(|(id, &x)| (!crashed.contains(&id)).then_some(x))
            .collect();
        judge(outs, &honest, cfg.epsilon(), Some(cfg.rho0()))?;
    }
    // The agreed point lands near the car.
    let err = ((agreed.0 - truth.0).powi(2) + (agreed.1 - truth.1).powi(2)).sqrt();
    println!("distance from ground truth: {err:.3} m");
    assert!(err < 25.0, "agreed point too far from the car");
    Ok(())
}
