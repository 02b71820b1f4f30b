//! Integration: Byzantine senders through the full Delphi node over
//! `delphi-net`.
//!
//! One node of a loopback TCP cluster runs a tampering/equivocating
//! variant (an honest Delphi node whose outgoing payloads are randomly
//! bit-flipped *before* framing, so its frames authenticate but carry
//! corrupted — occasionally decodable-but-lying — bundles), and an
//! off-cluster attacker without channel keys injects forged frames at
//! every honest listener. Honest nodes must still reach ε-agreement, and
//! `dropped_frames` must account for exactly the forged traffic.

//! A second scenario covers the epoch stream: a node that crashes for
//! several epochs and rejoins mid-stream (while an off-cluster attacker
//! keeps injecting forged frames) must not stall honest epoch progress.

use std::net::SocketAddr;
use std::time::Duration;

use delphi::core::{DelphiConfig, DelphiNode, OracleService};
use delphi::crypto::Keychain;
use delphi::net::{
    encode_epoch_frame, run_epoch_service, run_node, NetError, NetStats, RunOptions,
};
use delphi::primitives::{
    flatten_vector_events, AgreementId, EpochEvent, EpochOutcome, EpochStats, NodeId,
};
use delphi::sim::adversary::ByteMutator;
use delphi::workloads::{EpochFeed, MultiAssetConfig};
use delphi::ServiceBuilder;
use tokio::io::AsyncWriteExt;
use tokio::net::{TcpListener, TcpStream};

const SEED: &[u8] = b"byzantine-net-test";
const FORGED_PER_NODE: u64 = 7;

async fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let mut addrs = Vec::with_capacity(n);
    let mut holders = Vec::new();
    for _ in 0..n {
        let l = TcpListener::bind("127.0.0.1:0").await.expect("bind");
        addrs.push(l.local_addr().expect("addr"));
        holders.push(l);
    }
    addrs
}

/// Dials `victim` (retrying, bounded so the test fails rather than hangs
/// if the victim's listener is already gone) and writes `count`
/// well-framed but wrongly-keyed frames claiming to be node 2.
async fn forge_frames(victim: SocketAddr, count: u64) {
    // The attacker has no deployment keys: a keychain from a different
    // seed produces tags that never verify on the real channels.
    let fake = Keychain::derive(b"attacker-without-keys", NodeId(2), 4);
    let forged = (AgreementId::default(), b"forged protocol payload".to_vec().into());
    let frame = encode_epoch_frame(&fake, NodeId(0), &[forged]);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut stream = loop {
        match TcpStream::connect(victim).await {
            Ok(s) => break s,
            Err(_) => {
                assert!(std::time::Instant::now() < deadline, "victim {victim} unreachable");
                tokio::time::sleep(Duration::from_millis(10)).await;
            }
        }
    };
    for _ in 0..count {
        stream.write_all(&frame).await.expect("forged write");
    }
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn honest_nodes_agree_despite_tamperer_and_forged_frames() {
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

    // Honest nodes 0..=2. The generous linger keeps their readers (and
    // drop counters) alive well past the forgers' writes, so the exact
    // dropped-frame count below is not schedule-sensitive.
    let mut honest = Vec::new();
    for id in NodeId::all(3) {
        let keychain = Keychain::derive(SEED, id, n);
        let node = DelphiNode::new(cfg.clone(), id, inputs[id.index()]);
        let addrs = addrs.clone();
        let opts = RunOptions {
            deadline: Duration::from_secs(30),
            linger: Duration::from_secs(2),
            ..RunOptions::default()
        };
        honest.push(tokio::spawn(async move { run_node(node, keychain, addrs, opts).await }));
    }

    // Node 3 tampers: every outgoing bundle has a bit flipped with
    // probability 1/2 before it is framed, so its traffic authenticates
    // but is semantically corrupt or equivocating. It never outputs; the
    // runner keeps it serving until its own (shorter) deadline.
    {
        let id = NodeId(3);
        let keychain = Keychain::derive(SEED, id, n);
        let node = ByteMutator::new(DelphiNode::new(cfg.clone(), id, inputs[id.index()]), 99, 0.5);
        let addrs = addrs.clone();
        let opts = RunOptions { deadline: Duration::from_secs(20), ..RunOptions::default() };
        tokio::spawn(async move {
            let _ = run_node(node, keychain, addrs, opts).await; // times out by design
        });
    }

    // The off-cluster attacker floods every honest listener with forged
    // frames while the protocol runs.
    let mut forgers = Vec::new();
    for &victim in &addrs[..3] {
        forgers.push(tokio::spawn(forge_frames(victim, FORGED_PER_NODE)));
    }
    for f in forgers {
        f.await.expect("forger finished");
    }

    let mut outputs = Vec::new();
    for h in honest {
        let (out, stats) = h.await.expect("join").expect("honest node finished");
        assert_eq!(
            stats.dropped_frames, FORGED_PER_NODE,
            "dropped_frames must count exactly the forged traffic"
        );
        outputs.push(out);
    }

    let lo = outputs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = outputs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert!(hi - lo <= cfg.epsilon() + 1e-9, "honest ε-agreement under attack: spread {}", hi - lo);
    assert!(lo >= 498.0 && hi <= 502.0, "validity under attack: [{lo}, {hi}]");
}

fn oracle_service(cfg: &DelphiConfig, feed: &EpochFeed, id: NodeId, epochs: u32) -> OracleService {
    ServiceBuilder::new(cfg.clone(), id)
        .epochs(epochs)
        .assets(feed.assets() as u16)
        .pipeline_depth(2)
        .window(4)
        .build_service(delphi_bench::feed_price_source(feed.clone(), id, cfg.n()))
}

/// Runs `service`'s pipeline over TCP to the end; events come back in the
/// per-asset shape.
async fn stream(
    service: OracleService,
    keychain: Keychain,
    addrs: Vec<SocketAddr>,
    opts: RunOptions,
) -> Result<(Vec<EpochEvent<f64>>, EpochStats, NetStats), NetError> {
    let handle = run_epoch_service(service.into_mux(), keychain, addrs, opts).await?;
    let (events, epoch_stats, stats) = handle.finish().await?;
    Ok((flatten_vector_events(events), epoch_stats, stats))
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn crashed_node_rejoining_mid_stream_does_not_stall_honest_epochs() {
    let n = 4;
    let epochs = 12u32;
    let cfg = DelphiConfig::builder(n)
        .space(0.0, 100_000.0)
        .rho0(2.0)
        .delta_max(2_000.0)
        .epsilon(2.0)
        .build()
        .expect("config");
    let feed = EpochFeed::new(MultiAssetConfig::synthetic(2), 5);
    let addrs = free_addrs(n).await;

    // Honest nodes 0..=2 run the whole stream; node 3 is "crashed" — its
    // process appears only after the honest cluster has burned through
    // several epochs.
    let mut honest = Vec::new();
    for id in NodeId::all(3) {
        let keychain = Keychain::derive(SEED, id, n);
        let service = oracle_service(&cfg, &feed, id, epochs);
        let addrs = addrs.clone();
        let opts = RunOptions {
            deadline: Duration::from_secs(60),
            linger: Duration::from_secs(1),
            ..RunOptions::default()
        };
        honest.push(tokio::spawn(stream(service, keychain, addrs, opts)));
    }

    // The attacker floods honest listeners with forged frames mid-stream.
    let mut forgers = Vec::new();
    for &victim in &addrs[..3] {
        forgers.push(tokio::spawn(forge_frames(victim, FORGED_PER_NODE)));
    }

    // Node 3 rejoins after a delay that spans several loopback epochs.
    let rejoiner = {
        let keychain = Keychain::derive(SEED, NodeId(3), n);
        let service = oracle_service(&cfg, &feed, NodeId(3), epochs);
        let addrs = addrs.clone();
        tokio::spawn(async move {
            tokio::time::sleep(Duration::from_millis(1500)).await;
            let opts = RunOptions {
                deadline: Duration::from_secs(20),
                linger: Duration::ZERO,
                ..RunOptions::default()
            };
            stream(service, keychain, addrs, opts).await
        })
    };
    for f in forgers {
        f.await.expect("forger finished");
    }

    let mut streams = Vec::new();
    for h in honest {
        let (events, epoch_stats, stats) =
            h.await.expect("join").expect("honest node finished the stream");
        assert_eq!(events.len(), epochs as usize, "honest epoch progress must not stall");
        assert!(
            events.iter().all(|e| matches!(e.outcome, EpochOutcome::Agreed(_))),
            "honest nodes skip nothing: n = 4 tolerates one crashed node"
        );
        assert_eq!(epoch_stats.stale_epochs, 0);
        assert_eq!(
            stats.dropped_frames, FORGED_PER_NODE,
            "dropped_frames counts exactly the forged traffic"
        );
        streams.push(events);
    }
    // Per-(epoch, asset) ε-agreement across the honest nodes.
    for e in 0..epochs as usize {
        for a in 0..feed.assets() {
            let values: Vec<f64> = streams
                .iter()
                .map(|events| match &events[e].outcome {
                    EpochOutcome::Agreed(v) => v[a],
                    EpochOutcome::Skipped => unreachable!(),
                })
                .collect();
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert!(hi - lo <= cfg.epsilon() + 1e-9, "epoch {e} asset {a}: spread {}", hi - lo);
        }
    }
    // The rejoiner is best-effort: depending on how far the honest nodes
    // ran ahead it catches up within the live window, skips what the
    // quorum evicted (the sim test pins that path deterministically), or
    // times out once the honest nodes are gone — but it must never
    // corrupt the honest run above, and whatever it *did* agree on must
    // match the honest agreements.
    match rejoiner.await.expect("join") {
        Ok((events, _, _)) => {
            assert_eq!(events.len(), epochs as usize, "every epoch resolved, agreed or skipped");
            for (e, event) in events.iter().enumerate() {
                if let EpochOutcome::Agreed(values) = &event.outcome {
                    let EpochOutcome::Agreed(honest_values) = &streams[0][e].outcome else {
                        unreachable!()
                    };
                    for (a, v) in values.iter().enumerate() {
                        assert!(
                            (v - honest_values[a]).abs() <= cfg.epsilon() + 1e-9,
                            "rejoiner diverged at epoch {e} asset {a}: {v} vs {}",
                            honest_values[a]
                        );
                    }
                }
            }
        }
        Err(e) => {
            assert!(matches!(e, NetError::Timeout), "rejoiner may time out, not misbehave: {e}");
        }
    }
}
