//! Workspace smoke test: the `examples/quickstart.rs` flow as a CI-run test.
//!
//! Exercises the full primitives → core → sim stack end-to-end — config
//! construction, one `DelphiNode` per party, a deterministic simulated
//! network — so a regression anywhere in that pipeline fails `cargo test`
//! even if the narrower unit tests miss it.

use delphi::core::{DelphiConfig, DelphiNode};
use delphi::primitives::NodeId;
use delphi::sim::{judge, Simulation, Topology};

/// n = 4 (t = 1) Delphi round-trip under `delphi-sim`, seed-pinned.
#[test]
fn quickstart_n4_delphi_round_trip() {
    let readings = [21.28, 21.35, 21.31, 21.24];
    let n = readings.len();
    let cfg = DelphiConfig::builder(n)
        .space(-40.0, 60.0)
        .rho0(0.1)
        .delta_max(4.0)
        .epsilon(0.1)
        .build()
        .expect("valid config");
    assert_eq!(cfg.t(), 1, "n = 4 tolerates exactly one fault");

    let nodes = NodeId::all(n)
        .map(|id| DelphiNode::new(cfg.clone(), id, readings[id.index()]).boxed())
        .collect();
    let report = Simulation::new(Topology::lan(n)).seed(42).run(nodes);

    // Liveness: every node terminated with an output.
    assert!(report.completion_ms().is_some(), "protocol did not finish");
    let outputs: Vec<f64> =
        report.outputs.iter().map(|o| o.expect("every honest node outputs")).collect();
    assert_eq!(outputs.len(), n);

    // ε-agreement and validity against the readings (all honest here).
    judge(&outputs, &readings, cfg.epsilon(), Some(cfg.rho0())).unwrap();
    // Tighter than the judge's `max(ρ0, δ)`: within ε of the readings'
    // range, the exact hull of the readings each widened by ε.
    let widened: Vec<f64> =
        readings.iter().flat_map(|r| [r - cfg.epsilon(), r + cfg.epsilon()]).collect();
    judge(&outputs, &widened, cfg.epsilon(), None).unwrap();

    // Determinism: same seed, same everything.
    let nodes2 = NodeId::all(n)
        .map(|id| DelphiNode::new(cfg.clone(), id, readings[id.index()]).boxed())
        .collect();
    let report2 = Simulation::new(Topology::lan(n)).seed(42).run(nodes2);
    let outputs2: Vec<f64> =
        report2.outputs.iter().map(|o| o.expect("deterministic rerun outputs")).collect();
    assert_eq!(outputs, outputs2, "simulation is not deterministic under a fixed seed");
    assert_eq!(report.completion_ms(), report2.completion_ms());
}
