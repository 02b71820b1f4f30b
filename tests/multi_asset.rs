//! Integration: the sharded multi-asset oracle scenario.
//!
//! A DORA-style deployment agrees on a whole basket of assets each minute.
//! These tests drive one simulated minute of the default basket two ways —
//! independent per-asset simulations sharded across worker threads, and
//! all assets multiplexed over one mesh as a one-epoch stream under the
//! adaptive flush policy — and check that every asset reaches ε-agreement
//! while batching strictly cuts transport cost.

use delphi::core::{DelphiConfig, DelphiNode};
use delphi::primitives::{
    EpochEvent, EpochMux, EpochOutcome, EpochProtocol, FlushPolicy, NodeId, Protocol,
};
use delphi::sim::{run_sharded, BatchSavings, RunReport, SimJob, Simulation, Topology};
use delphi::workloads::{AssetMinute, MultiAssetConfig, MultiAssetFeed};

fn oracle_cfg(n: usize) -> DelphiConfig {
    DelphiConfig::builder(n)
        .space(0.0, 100_000.0)
        .rho0(10.0)
        .delta_max(2000.0)
        .epsilon(2.0)
        .build()
        .expect("valid oracle parameters")
}

fn basket_minute(n: usize, seed: u64) -> Vec<AssetMinute> {
    MultiAssetFeed::new(MultiAssetConfig::default_basket(), seed).next_minute(n)
}

fn spread(outs: &[f64]) -> f64 {
    outs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        - outs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn assert_asset_agreement(report: &RunReport<f64>, asset: &AssetMinute, cfg: &DelphiConfig) {
    assert!(report.all_honest_finished(), "{} stalled: {:?}", asset.name, report.stop);
    let outs: Vec<f64> = report.honest_outputs().copied().collect();
    assert!(
        spread(&outs) <= cfg.epsilon() + 1e-9,
        "{}: ε-agreement violated, spread {}",
        asset.name,
        spread(&outs)
    );
    let lo = asset.inputs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = asset.inputs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let relax = cfg.rho0().max(hi - lo);
    for o in &outs {
        assert!(
            *o >= lo - relax && *o <= hi + relax,
            "{}: output {o} outside relaxed hull [{lo}, {hi}] ± {relax}",
            asset.name
        );
    }
}

#[test]
fn sharded_minute_reaches_per_asset_agreement_on_every_asset() {
    let n = 8;
    let cfg = oracle_cfg(n);
    let minute = basket_minute(n, 42);

    let jobs: Vec<SimJob<f64>> = minute
        .iter()
        .enumerate()
        .map(|(a, asset)| {
            let cfg = cfg.clone();
            let inputs = asset.inputs.clone();
            SimJob::new(Simulation::new(Topology::aws_geo(n)).seed(100 + a as u64), move || {
                NodeId::all(n)
                    .map(|id| DelphiNode::new(cfg.clone(), id, inputs[id.index()]).boxed())
                    .collect()
            })
        })
        .collect();
    let reports = run_sharded(jobs, 4);

    assert_eq!(reports.len(), minute.len());
    for (report, asset) in reports.iter().zip(&minute) {
        assert_asset_agreement(report, asset, &cfg);
    }
}

#[test]
fn shard_count_does_not_change_results() {
    let n = 6;
    let cfg = oracle_cfg(n);
    let minute = basket_minute(n, 7);
    let run = |shards: usize| {
        let jobs: Vec<SimJob<f64>> = minute
            .iter()
            .enumerate()
            .map(|(a, asset)| {
                let cfg = cfg.clone();
                let inputs = asset.inputs.clone();
                SimJob::new(Simulation::new(Topology::lan(n)).seed(a as u64), move || {
                    NodeId::all(n)
                        .map(|id| DelphiNode::new(cfg.clone(), id, inputs[id.index()]).boxed())
                        .collect()
                })
            })
            .collect();
        run_sharded(jobs, shards)
    };
    let solo = run(1);
    let wide = run(8);
    for (a, b) in solo.iter().zip(&wide) {
        assert_eq!(a.completion_ns(), b.completion_ns());
        assert_eq!(a.metrics.total_wire_bytes(), b.metrics.total_wire_bytes());
        assert_eq!(
            a.honest_outputs().copied().collect::<Vec<f64>>(),
            b.honest_outputs().copied().collect::<Vec<f64>>()
        );
    }
}

#[test]
fn multiplexed_basket_cuts_frames_and_bytes_vs_per_asset_meshes() {
    let n = 6;
    let cfg = oracle_cfg(n);
    let minute = basket_minute(n, 11);

    // Unbatched: one mesh (simulation) per asset.
    let jobs: Vec<SimJob<f64>> = minute
        .iter()
        .enumerate()
        .map(|(a, asset)| {
            let cfg = cfg.clone();
            let inputs = asset.inputs.clone();
            SimJob::new(Simulation::new(Topology::lan(n)).seed(200 + a as u64), move || {
                NodeId::all(n)
                    .map(|id| DelphiNode::new(cfg.clone(), id, inputs[id.index()]).boxed())
                    .collect()
            })
        })
        .collect();
    let unbatched = run_sharded(jobs, 4);
    for (report, asset) in unbatched.iter().zip(&minute) {
        assert_asset_agreement(report, asset, &cfg);
    }

    // Batched: the whole basket multiplexed over one mesh as a one-epoch
    // stream, flushed adaptively with the simulator's tick as the timer.
    let flush = FlushPolicy::adaptive();
    let FlushPolicy::Adaptive { max_delay, .. } = flush else { unreachable!() };
    let mux_nodes: Vec<Box<dyn Protocol<Output = Vec<EpochEvent<f64>>>>> = NodeId::all(n)
        .map(|id| {
            let instances: Vec<DelphiNode> = minute
                .iter()
                .map(|asset| DelphiNode::new(cfg.clone(), id, asset.inputs[id.index()]))
                .collect();
            Box::new(EpochProtocol::new(EpochMux::one_epoch(instances), flush))
                as Box<dyn Protocol<Output = Vec<EpochEvent<f64>>>>
        })
        .collect();
    let batched = Simulation::new(Topology::lan(n))
        .seed(200)
        .tick_interval_ns(max_delay.as_nanos() as u64)
        .run(mux_nodes);
    assert!(batched.all_honest_finished(), "batched basket stalled: {:?}", batched.stop);
    let baskets: Vec<&Vec<f64>> = batched
        .honest_outputs()
        .map(|events| match &events[..] {
            [EpochEvent { outcome: EpochOutcome::Agreed(values), .. }] => values,
            other => panic!("a one-epoch stream ends in one agreed event, got {other:?}"),
        })
        .collect();
    for (a, asset) in minute.iter().enumerate() {
        let outs: Vec<f64> = baskets.iter().map(|v| v[a]).collect();
        assert!(
            spread(&outs) <= cfg.epsilon() + 1e-9,
            "{} (batched): spread {}",
            asset.name,
            spread(&outs)
        );
    }

    let savings = BatchSavings::compare(unbatched.iter().map(|r| &r.metrics), &batched.metrics);
    assert!(
        savings.batched_msgs < savings.unbatched_msgs,
        "batching must cut message count: {savings}"
    );
    assert!(
        savings.batched_wire_bytes < savings.unbatched_wire_bytes,
        "batching must cut wire bytes: {savings}"
    );
}
