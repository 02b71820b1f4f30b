//! Integration: the full Delphi protocol over real TCP sockets.

use std::net::SocketAddr;
use std::time::Duration;

use delphi::core::oracle::PriceSource;
use delphi::core::{DelphiConfig, DelphiNode};
use delphi::crypto::Keychain;
use delphi::net::{run_epoch_service, run_node, FlushPolicy, RunOptions};
use delphi::primitives::NodeId;
use delphi::sim::judge;
use delphi::ServiceBuilder;

const SEED: &[u8] = b"tokio-delphi-test";

async fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let mut addrs = Vec::with_capacity(n);
    let mut holders = Vec::new();
    for _ in 0..n {
        let l = tokio::net::TcpListener::bind("127.0.0.1:0").await.expect("bind");
        addrs.push(l.local_addr().expect("addr"));
        holders.push(l);
    }
    addrs
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn delphi_cluster_over_tcp() {
    let n = 4;
    let cfg = DelphiConfig::builder(n)
        .space(0.0, 1000.0)
        .rho0(1.0)
        .delta_max(32.0)
        .epsilon(1.0)
        .build()
        .expect("config");
    let inputs = [500.4, 500.9, 499.8, 500.2];
    let addrs = free_addrs(n).await;

    let mut handles = Vec::new();
    for id in NodeId::all(n) {
        let keychain = Keychain::derive(SEED, id, n);
        let node = DelphiNode::new(cfg.clone(), id, inputs[id.index()]);
        let addrs = addrs.clone();
        let opts = RunOptions { deadline: Duration::from_secs(30), ..RunOptions::default() };
        handles.push(tokio::spawn(async move { run_node(node, keychain, addrs, opts).await }));
    }

    let mut outputs = Vec::new();
    for h in handles {
        let (out, stats) = h.await.expect("join").expect("run");
        assert_eq!(stats.dropped_frames, 0, "no authentication failures among honest nodes");
        outputs.push(out);
    }
    judge(&outputs, &inputs, cfg.epsilon(), Some(cfg.rho0())).unwrap();
    // Tighter than the judge's `max(ρ0, δ)`: the band around the inputs.
    assert!(outputs.iter().all(|o| (498.0..=502.0).contains(o)), "validity: {outputs:?}");
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn the_flush_policy_chosen_at_build_time_is_the_one_on_the_socket() {
    // Built to flush per entry, run with default transport options: the
    // runner takes the pipeline as built, so every entry leaves in a frame
    // of its own. A runner that re-wrapped the pipeline under a policy of
    // its own would batch each step's entries.
    let n = 4;
    let cfg = DelphiConfig::builder(n)
        .space(0.0, 1000.0)
        .rho0(1.0)
        .delta_max(32.0)
        .epsilon(1.0)
        .build()
        .expect("config");
    let addrs = free_addrs(n).await;
    let mut handles = Vec::new();
    for id in NodeId::all(n) {
        let keychain = Keychain::derive(b"flush-at-build", id, n);
        let source: PriceSource = Box::new(move |e, a| {
            500.0 + f64::from(e.0 + u32::from(a.0)) * 0.1 + id.index() as f64 * 0.1
        });
        let node = ServiceBuilder::new(cfg.clone(), id)
            .epochs(2)
            .assets(2)
            .flush(FlushPolicy::PerEntry)
            .build_service(source)
            .into_node();
        let addrs = addrs.clone();
        handles.push(tokio::spawn(async move {
            run_epoch_service(node, keychain, addrs, RunOptions::default()).await?.0.finish().await
        }));
    }
    for h in handles {
        let (events, _, stats) = h.await.expect("join").expect("stream finished");
        assert_eq!(events.len(), 2);
        assert!(stats.sent_entries > 0);
        assert_eq!(stats.sent_frames, stats.sent_entries, "one frame per entry, as built");
    }
}
