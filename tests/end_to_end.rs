//! Cross-crate integration: the Delphi protocol under realistic
//! topologies, fault mixes, and configuration corners.

use delphi::core::{DelphiConfig, DelphiNode};
use delphi::primitives::{NodeId, Protocol};
use delphi::sim::adversary::{ByteMutator, Faulty, SilentAfter};
use delphi::sim::{judge, Simulation, StopReason, Topology};
use delphi::workloads::{BtcFeed, BtcFeedConfig, DroneScenario, DroneScenarioConfig};

fn oracle_cfg(n: usize) -> DelphiConfig {
    DelphiConfig::builder(n)
        .space(0.0, 100_000.0)
        .rho0(2.0)
        .delta_max(2000.0)
        .epsilon(2.0)
        .build()
        .expect("valid oracle config")
}

#[test]
fn oracle_workload_on_geo_topology() {
    let n = 16;
    let cfg = oracle_cfg(n);
    let mut feed = BtcFeed::new(BtcFeedConfig::default(), 11);
    let quote = feed.next_minute();
    let inputs = feed.node_inputs(&quote, n);
    let nodes = NodeId::all(n)
        .map(|id| DelphiNode::new(cfg.clone(), id, inputs[id.index()]).boxed())
        .collect();
    let report = Simulation::new(Topology::aws_geo(n)).seed(1).run(nodes);
    assert_eq!(report.stop, StopReason::AllHonestFinished);
    let outs: Vec<f64> = report.honest_outputs().copied().collect();
    judge(&outs, &inputs, cfg.epsilon(), Some(cfg.rho0())).unwrap();
}

#[test]
fn drone_workload_on_cps_topology() {
    let n = 15;
    let cfg = DelphiConfig::builder(n)
        .space(-10_000.0, 10_000.0)
        .rho0(0.5)
        .delta_max(50.0)
        .epsilon(0.5)
        .build()
        .expect("valid CPS config");
    let mut scenario = DroneScenario::new(DroneScenarioConfig::default(), (57.0, -3.0), 2);
    let (xs, _) = scenario.axis_inputs(n);
    let nodes =
        NodeId::all(n).map(|id| DelphiNode::new(cfg.clone(), id, xs[id.index()]).boxed()).collect();
    let report = Simulation::new(Topology::cps(n, 15)).seed(2).run(nodes);
    assert!(report.all_honest_finished());
    let outs: Vec<f64> = report.honest_outputs().copied().collect();
    judge(&outs, &xs, cfg.epsilon(), Some(cfg.rho0())).unwrap();
}

#[test]
fn survives_maximum_fault_mix() {
    // n = 13, t = 4: four Byzantine nodes with four different behaviours.
    let n = 13;
    let cfg = oracle_cfg(n);
    let base = 40_000.0;
    let inputs: Vec<f64> = (0..n).map(|i| base + i as f64).collect();
    let faulty = [NodeId(1), NodeId(4), NodeId(7), NodeId(10)];
    let nodes: Vec<Box<dyn Protocol<Output = f64>>> = NodeId::all(n)
        .map(|id| match id.index() {
            1 => Box::new(Faulty::crash(id, n)) as Box<_>,
            4 => Box::new(Faulty::garbage(id, n, 44, 3, 256, 120)) as Box<_>,
            7 => Box::new(ByteMutator::new(DelphiNode::new(cfg.clone(), id, base + 7.0), 7, 0.4))
                as Box<_>,
            10 => Box::new(Faulty::replay(id, n, 200)) as Box<_>,
            _ => DelphiNode::new(cfg.clone(), id, inputs[id.index()]).boxed(),
        })
        .collect();
    let honest_inputs: Vec<f64> =
        (0..n).filter(|i| !faulty.iter().any(|f| f.index() == *i)).map(|i| inputs[i]).collect();
    let report = Simulation::new(Topology::lan(n)).seed(3).faulty(&faulty).run(nodes);
    assert!(report.all_honest_finished(), "stalled: {:?}", report.stop);
    let outs: Vec<f64> = report.honest_outputs().copied().collect();
    assert_eq!(outs.len(), n - 4);
    judge(&outs, &honest_inputs, cfg.epsilon(), Some(cfg.rho0())).unwrap();
}

#[test]
fn mid_protocol_crashes_tolerated() {
    let n = 7;
    let cfg = oracle_cfg(n);
    let inputs: Vec<f64> = (0..n).map(|i| 20_000.0 + (i as f64) * 3.0).collect();
    let faulty = [NodeId(2), NodeId(5)];
    let nodes: Vec<Box<dyn Protocol<Output = f64>>> = NodeId::all(n)
        .map(|id| {
            if faulty.contains(&id) {
                Box::new(SilentAfter::new(
                    DelphiNode::new(cfg.clone(), id, inputs[id.index()]),
                    30 * id.index(),
                )) as Box<_>
            } else {
                DelphiNode::new(cfg.clone(), id, inputs[id.index()]).boxed()
            }
        })
        .collect();
    let honest_inputs: Vec<f64> =
        (0..n).filter(|i| !faulty.iter().any(|f| f.index() == *i)).map(|i| inputs[i]).collect();
    let report = Simulation::new(Topology::lan(n)).seed(4).faulty(&faulty).run(nodes);
    assert!(report.all_honest_finished(), "stalled: {:?}", report.stop);
    let outs: Vec<f64> = report.honest_outputs().copied().collect();
    judge(&outs, &honest_inputs, cfg.epsilon(), Some(cfg.rho0())).unwrap();
}

#[test]
fn identical_seeds_identical_runs() {
    let n = 7;
    let cfg = oracle_cfg(n);
    let run = |seed| {
        let nodes = NodeId::all(n)
            .map(|id| DelphiNode::new(cfg.clone(), id, 30_000.0 + id.index() as f64).boxed())
            .collect();
        let report = Simulation::new(Topology::aws_geo(n)).seed(seed).run(nodes);
        (
            report.completion_ns(),
            report.metrics.total_wire_bytes(),
            report.outputs.iter().map(|o| o.unwrap().to_bits()).collect::<Vec<u64>>(),
        )
    };
    assert_eq!(run(99), run(99), "simulation must be deterministic");
}

#[test]
fn fifo_and_reordering_deliveries_both_work() {
    let n = 7;
    let cfg = oracle_cfg(n);
    let inputs: Vec<f64> = (0..n).map(|i| 30_000.0 + (i as f64) * 2.5).collect();
    for fifo in [false, true] {
        let nodes = NodeId::all(n)
            .map(|id| DelphiNode::new(cfg.clone(), id, inputs[id.index()]).boxed())
            .collect();
        let topo = Topology::lan(n).with_fifo(fifo);
        let report = Simulation::new(topo).seed(5).run(nodes);
        assert!(report.all_honest_finished(), "fifo={fifo} stalled");
        let outs: Vec<f64> = report.honest_outputs().copied().collect();
        judge(&outs, &inputs, cfg.epsilon(), Some(cfg.rho0()))
            .unwrap_or_else(|why| panic!("fifo={fifo}: {why}"));
    }
}

#[test]
fn wide_spread_inputs_use_higher_levels() {
    // δ close to Δ forces agreement to come from coarse levels.
    let n = 7;
    let cfg = oracle_cfg(n);
    let inputs = [10_000.0, 10_400.0, 10_900.0, 11_200.0, 11_500.0, 11_800.0, 11_900.0];
    let nodes = NodeId::all(n)
        .map(|id| DelphiNode::new(cfg.clone(), id, inputs[id.index()]).boxed())
        .collect();
    let report = Simulation::new(Topology::lan(n)).seed(6).run(nodes);
    assert!(report.all_honest_finished());
    let outs: Vec<f64> = report.honest_outputs().copied().collect();
    judge(&outs, &inputs, cfg.epsilon(), Some(cfg.rho0())).unwrap();
}

#[test]
fn single_level_configuration_works_end_to_end() {
    let n = 4;
    let cfg = DelphiConfig::builder(n)
        .space(0.0, 100.0)
        .rho0(1.0)
        .delta_max(1.0)
        .epsilon(1.0)
        .build()
        .expect("single-level config");
    assert_eq!(cfg.num_levels(), 1);
    let inputs = [50.2, 50.3, 50.4, 50.5];
    let nodes = NodeId::all(n)
        .map(|id| DelphiNode::new(cfg.clone(), id, inputs[id.index()]).boxed())
        .collect();
    let report = Simulation::new(Topology::lan(n)).seed(7).run(nodes);
    assert!(report.all_honest_finished());
    let outs: Vec<f64> = report.honest_outputs().copied().collect();
    judge(&outs, &inputs, cfg.epsilon(), Some(cfg.rho0())).unwrap();
}
