#![forbid(unsafe_code)]
//! The paper's oracle-network application (§VI-A): 16 oracles report the
//! BTC price once a minute, tolerate Byzantine members, and produce a
//! DORA certificate for the blockchain.
//!
//! Run with: `cargo run --example oracle_network`

use delphi::core::DelphiConfig;
use delphi::crypto::signing::Verifier;
use delphi::dora::{Certificate, DoraNode, SmrChannel};
use delphi::primitives::{NodeId, Protocol};
use delphi::sim::adversary::Faulty;
use delphi::sim::{Simulation, Topology};
use delphi::workloads::{BtcFeed, BtcFeedConfig};

const SEED: &[u8] = b"oracle-network-example";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 16;
    // The paper's §VI-A parameters: ρ0 = ε = 2$, Δ = 2000$ (a 30-bit
    // tail bound on the Fréchet range law of Fig. 4).
    let cfg = DelphiConfig::builder(n)
        .space(0.0, 100_000.0)
        .rho0(2.0)
        .delta_max(2000.0)
        .epsilon(2.0)
        .build()?;
    println!(
        "oracle network: n={n} t={} | Δ={}$ ρ0={}$ ε={}$ | {} levels, {} rounds",
        cfg.t(),
        cfg.delta_max(),
        cfg.rho0(),
        cfg.epsilon(),
        cfg.num_levels(),
        cfg.r_max()
    );

    // Synthetic multi-exchange feed following the paper's fitted range law.
    let mut feed = BtcFeed::new(BtcFeedConfig::default(), 99);
    let mut smr = SmrChannel::new(SEED, n, cfg.t());

    for minute in 0..3 {
        let quote = feed.next_minute();
        let inputs = feed.node_inputs(&quote, n);
        println!(
            "\nminute {minute}: truth {:.2}$ | exchange range δ = {:.2}$",
            quote.truth,
            quote.range()
        );

        // Two Byzantine oracles: one spams garbage, one reports a price
        // 500$ off (it follows the protocol, so this tests validity).
        let byzantine_garbage = NodeId(5);
        let byzantine_outlier = NodeId(11);
        let nodes: Vec<Box<dyn Protocol<Output = Certificate>>> = NodeId::all(n)
            .map(|id| {
                if id == byzantine_garbage {
                    Box::new(Faulty::garbage(id, n, 7, 2, 128, 100)) as Box<_>
                } else if id == byzantine_outlier {
                    DoraNode::new(cfg.clone(), id, quote.truth + 500.0, SEED).boxed()
                } else {
                    DoraNode::new(cfg.clone(), id, inputs[id.index()], SEED).boxed()
                }
            })
            .collect();

        let report = Simulation::new(Topology::aws_geo(n))
            .seed(1000 + minute)
            .faulty(&[byzantine_garbage, byzantine_outlier])
            .run(nodes);
        assert!(report.all_honest_finished(), "oracle round stalled");

        // Every honest oracle assembled a certificate; submit them all —
        // the chain orders them and the contract consumes the first.
        for cert in report.honest_outputs() {
            smr.submit(cert.clone());
        }
        let consumed = smr.consumed().ok_or("no certificate accepted")?;
        println!(
            "  agreed price {:.2}$ | cert signers {} | latency {:.0} ms | traffic {:.2} MiB",
            consumed.value(),
            consumed.signatures.len(),
            report.completion_ms().unwrap_or(f64::NAN),
            report.metrics.total_wire_mib(),
        );
        let candidates = smr.distinct_values();
        println!("  candidate outputs on chain: {candidates:?} (DORA guarantees ≤ 2)");
        assert!(candidates.len() <= 2);
        assert!(
            (consumed.value() - quote.truth).abs()
                <= quote.range() + cfg.epsilon() * 2.0 + cfg.rho0(),
            "certified price strayed from the quotes"
        );
        // Anyone holding the deployment seed can audit the ledger.
        let verifier = Verifier::new(SEED);
        assert!(smr.ledger().iter().all(|c| c.verify(&verifier, n, cfg.t())));
        smr = SmrChannel::new(SEED, n, cfg.t()); // fresh ledger per minute
    }
    println!("\nall minutes certified under 2 Byzantine oracles out of {n}");
    Ok(())
}
