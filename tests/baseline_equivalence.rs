//! Integration: all three contenders (Delphi, Abraham et al., FIN-style
//! ACS) solve the same oracle instance, with the validity and cost
//! relationships the paper claims.

use delphi::baselines::{AadNode, AcsNode};
use delphi::core::{DelphiConfig, DelphiNode};
use delphi::primitives::{NodeId, Protocol};
use delphi::sim::{judge, spread, RunReport, Simulation, Topology};
use delphi::workloads::{BtcFeed, BtcFeedConfig};

fn run_protocol(
    nodes: Vec<Box<dyn Protocol<Output = f64>>>,
    n: usize,
    seed: u64,
) -> RunReport<f64> {
    let report = Simulation::new(Topology::lan(n)).seed(seed).run(nodes);
    assert!(report.all_honest_finished(), "stalled: {:?}", report.stop);
    report
}

#[test]
fn all_three_respect_the_honest_hull() {
    let n = 16;
    let t = (n - 1) / 3;
    let mut feed = BtcFeed::new(BtcFeedConfig::default(), 77);
    let quote = feed.next_minute();
    let inputs = feed.node_inputs(&quote, n);
    let outputs = |report: &RunReport<f64>| report.honest_outputs().copied().collect::<Vec<_>>();

    // The Fig. 6a configuration: ρ0 = 10$, Δ = 2000$, ε = 2$.
    let cfg = DelphiConfig::builder(n)
        .space(0.0, 100_000.0)
        .rho0(10.0)
        .delta_max(2000.0)
        .epsilon(2.0)
        .build()
        .expect("config");

    // Delphi: ρ-relaxed validity.
    let nodes = NodeId::all(n)
        .map(|id| DelphiNode::new(cfg.clone(), id, inputs[id.index()]).boxed())
        .collect();
    let delphi = run_protocol(nodes, n, 1);
    judge(&outputs(&delphi), &inputs, cfg.epsilon(), Some(cfg.rho0())).unwrap();

    // Abraham et al.: strict hull validity, and its 10 rounds halve the
    // honest spread to δ / 2^10.
    let nodes =
        NodeId::all(n).map(|id| AadNode::new(id, n, t, inputs[id.index()], 10).boxed()).collect();
    let aad = run_protocol(nodes, n, 1);
    judge(&outputs(&aad), &inputs, spread(&inputs) / 1024.0, None).unwrap();

    // FIN-style ACS: strict hull validity and exact agreement.
    let nodes = NodeId::all(n)
        .map(|id| AcsNode::new(id, n, t, inputs[id.index()], b"coin").boxed())
        .collect();
    let acs_outs = outputs(&run_protocol(nodes, n, 1));
    assert!(acs_outs.windows(2).all(|w| w[0] == w[1]), "ACS is exact agreement");
    judge(&acs_outs, &inputs, 0.0, None).unwrap();

    // The cost relationship behind Fig. 6b: Delphi moves fewer bytes
    // than the O(n³)-per-round AAD baseline even at n = 16.
    assert!(
        delphi.metrics.total_wire_bytes() < aad.metrics.total_wire_bytes(),
        "Delphi {} bytes vs AAD {} bytes",
        delphi.metrics.total_wire_bytes(),
        aad.metrics.total_wire_bytes()
    );
}

#[test]
fn delphi_message_growth_is_quadratic_not_cubic() {
    // Message counts at n and 2n with identical inputs (so the active
    // checkpoint count stays fixed): Delphi grows ~4× (quadratic, plus a
    // round or two from the log n term in r_M), the RBC-based AAD grows
    // ~8× (cubic). The orders must separate.
    let deltas: Vec<u64> = [8usize, 16]
        .iter()
        .map(|&n| {
            let cfg = DelphiConfig::builder(n)
                .space(0.0, 100_000.0)
                .rho0(2.0)
                .delta_max(512.0)
                .epsilon(2.0)
                .build()
                .expect("config");
            let nodes = NodeId::all(n)
                .map(|id| DelphiNode::new(cfg.clone(), id, 40_000.0).boxed())
                .collect();
            run_protocol(nodes, n, 3).metrics.total_msgs()
        })
        .collect();
    let aads: Vec<u64> = [8usize, 16]
        .iter()
        .map(|&n| {
            let t = (n - 1) / 3;
            let nodes =
                NodeId::all(n).map(|id| AadNode::new(id, n, t, 40_000.0, 8).boxed()).collect();
            run_protocol(nodes, n, 3).metrics.total_msgs()
        })
        .collect();
    let delphi_growth = deltas[1] as f64 / deltas[0] as f64;
    let aad_growth = aads[1] as f64 / aads[0] as f64;
    assert!(
        delphi_growth + 0.5 < aad_growth,
        "Delphi growth {delphi_growth:.2} should be well below AAD growth {aad_growth:.2}"
    );
    assert!(delphi_growth < 6.0, "Delphi n->2n message growth {delphi_growth:.2}");
    assert!(aad_growth > 6.0, "AAD n->2n message growth {aad_growth:.2}");
}
