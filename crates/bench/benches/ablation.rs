//! Ablation benchmarks: a plain BinAA run, the checkpoint input rule
//! (Algorithm 2 vs §III-B1 prose), and FIFO vs reordering delivery.

use criterion::{criterion_group, criterion_main, Criterion};

use delphi_core::{BinAaNode, DelphiConfig, DelphiNode, InputRule};
use delphi_primitives::{Dyadic, NodeId, Protocol};
use delphi_sim::{Simulation, Topology};

fn run_binaa(n: usize, r_max: u16, seed: u64) -> u64 {
    let t = (n - 1) / 3;
    let nodes: Vec<Box<dyn Protocol<Output = Dyadic>>> = NodeId::all(n)
        .map(|id| BinAaNode::new(id, n, t, id.index() % 2 == 0, r_max).boxed())
        .collect();
    let report = Simulation::new(Topology::lan(n)).seed(seed).run(nodes);
    assert!(report.all_honest_finished());
    report.metrics.total_payload_bytes()
}

fn bench_binaa_encoding(c: &mut Criterion) {
    let mut group = c.benchmark_group("binaa_encoding_n7_r12");
    group.sample_size(20);
    group.bench_function("plain_values", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            run_binaa(7, 12, seed)
        })
    });
    group.finish();
}

fn run_delphi_variant(rule: InputRule, fifo: bool, seed: u64) -> f64 {
    let n = 7;
    let cfg = DelphiConfig::builder(n)
        .space(0.0, 100_000.0)
        .rho0(2.0)
        .delta_max(512.0)
        .epsilon(2.0)
        .input_rule(rule)
        .build()
        .expect("config");
    let nodes = NodeId::all(n)
        .map(|id| DelphiNode::new(cfg.clone(), id, 40_000.0 + id.index() as f64 * 3.0).boxed())
        .collect();
    let report = Simulation::new(Topology::lan(n).with_fifo(fifo)).seed(seed).run(nodes);
    assert!(report.all_honest_finished());
    report.completion_ms().expect("finished")
}

fn bench_delphi_ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("delphi_ablations_n7");
    group.sample_size(10);
    group.bench_function("input_rule_two_closest", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            run_delphi_variant(InputRule::TwoClosest, false, seed)
        })
    });
    group.bench_function("input_rule_within_rho", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            run_delphi_variant(InputRule::WithinRho, false, seed)
        })
    });
    group.bench_function("fifo_delivery", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            run_delphi_variant(InputRule::TwoClosest, true, seed)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_binaa_encoding, bench_delphi_ablations);
criterion_main!(benches);
