//! Integration: the streaming oracle service end-to-end under the
//! discrete-event simulator.
//!
//! The acceptance shape of the epoch layer: a 4-node cluster agrees on a
//! 4-asset basket 100 consecutive epochs with every epoch ε-converged,
//! bounded memory (live-window GC), and an ordered output stream — plus
//! the crash-recovery scenario, where a node that goes silent for several
//! epochs and rejoins mid-stream must not stall honest progress.

use delphi::core::{DelphiConfig, OracleService};
use delphi::primitives::{Envelope, EpochEvent, EpochOutcome, NodeId, Protocol};
use delphi::sim::{judge_streams, Simulation, StopReason, Topology};
use delphi::workloads::{EpochFeed, MultiAssetConfig};
use delphi::ServiceBuilder;
use delphi_bench::judge_feed;

fn oracle_cfg(n: usize) -> DelphiConfig {
    DelphiConfig::builder(n)
        .space(0.0, 100_000.0)
        .rho0(2.0)
        .delta_max(2_000.0)
        .epsilon(2.0)
        .build()
        .expect("paper oracle parameters")
}

fn service(
    cfg: &DelphiConfig,
    feed: &EpochFeed,
    id: NodeId,
    epochs: u32,
    depth: usize,
    window: usize,
) -> OracleService {
    let n = cfg.n();
    ServiceBuilder::new(cfg.clone(), id)
        .epochs(epochs)
        .assets(feed.assets() as u16)
        .pipeline_depth(depth)
        .window(window)
        .build_service(delphi_bench::feed_price_source(feed.clone(), id, n))
}

#[test]
fn hundred_epoch_basket_stream_converges_with_bounded_memory() {
    let n = 4;
    let epochs = 100u32;
    let (depth, window) = (2, 6);
    let cfg = oracle_cfg(n);
    let feed = EpochFeed::new(MultiAssetConfig::default_basket(), 7);
    let assets = feed.assets();

    let nodes: Vec<Box<dyn Protocol<Output = Vec<EpochEvent<f64>>>>> =
        NodeId::all(n).map(|id| service(&cfg, &feed, id, epochs, depth, window).boxed()).collect();
    let report = Simulation::new(Topology::lan(n)).seed(42).run(nodes);
    assert_eq!(report.stop, StopReason::AllHonestFinished);

    // Whole ordered streams, and per-(epoch, asset) ε-agreement and
    // validity against the feed's inputs, for all 100 × 4 agreements.
    let streams: Vec<&Vec<EpochEvent<f64>>> = report.honest_outputs().collect();
    assert_eq!(streams.len(), n);
    judge_feed(&streams, &feed, n, epochs, cfg.epsilon(), cfg.rho0()).unwrap();
    // A second bound, tighter than the judge's `max(ρ0, δ)` when δ > ρ0 + ε:
    // outputs land on the ρ0-spaced checkpoint grid, so they may sit up to
    // ρ0 + ε outside the raw input hull (§IV) — never further. That is the
    // exact hull of the inputs, each widened by ρ0 + ε.
    let slack = cfg.rho0() + cfg.epsilon();
    let widened = |e, a: usize| {
        let inputs = feed.inputs(e, n).swap_remove(a);
        inputs.iter().flat_map(|i| [i - slack, i + slack]).collect()
    };
    judge_streams(&streams, epochs, assets, widened, cfg.epsilon(), None).unwrap();
}

/// Wraps a service and keeps it silent — swallowing its start burst and
/// every inbound message — until `wake_after` messages have arrived, then
/// lets it join the stream mid-flight.
struct LateJoiner {
    inner: OracleService,
    wake_after: usize,
    seen: usize,
    started: bool,
}

impl Protocol for LateJoiner {
    type Output = Vec<EpochEvent<f64>>;

    fn node_id(&self) -> NodeId {
        self.inner.node_id()
    }
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn start(&mut self) -> Vec<Envelope> {
        Vec::new() // crashed at launch: nothing leaves
    }
    fn on_message(&mut self, from: NodeId, payload: &[u8]) -> Vec<Envelope> {
        self.seen += 1;
        if self.seen < self.wake_after {
            return Vec::new(); // still down: drop everything
        }
        let mut out = Vec::new();
        if !self.started {
            self.started = true;
            out.extend(self.inner.start()); // rejoin: the pipeline boots now
        }
        out.extend(self.inner.on_message(from, payload));
        out
    }
    fn output(&self) -> Option<Vec<EpochEvent<f64>>> {
        self.inner.output()
    }
    fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }
}

#[test]
fn silent_node_rejoining_mid_stream_does_not_stall_honest_epochs() {
    let n = 4;
    let epochs = 30u32;
    let (depth, window) = (2, 4);
    let cfg = oracle_cfg(n);
    let feed = EpochFeed::new(MultiAssetConfig::synthetic(2), 11);

    let mut nodes: Vec<Box<dyn Protocol<Output = Vec<EpochEvent<f64>>>>> =
        NodeId::all(3).map(|id| service(&cfg, &feed, id, epochs, depth, window).boxed()).collect();
    // Node 3 misses the first ~10 epochs' worth of traffic, then rejoins.
    nodes.push(Box::new(LateJoiner {
        inner: service(&cfg, &feed, NodeId(3), epochs, depth, window),
        wake_after: 4_000,
        seen: 0,
        started: false,
    }));

    // Declared faulty: the stop condition tracks the 3 honest nodes.
    let report = Simulation::new(Topology::lan(n)).seed(3).faulty(&[NodeId(3)]).run(nodes);
    assert_eq!(report.stop, StopReason::AllHonestFinished, "honest stream must not stall");

    // n = 4 tolerates t = 1 silent node without skipping: the honest
    // streams are whole, and judged against the honest nodes' inputs.
    let streams: Vec<&Vec<EpochEvent<f64>>> = report.honest_outputs().collect();
    let honest_inputs = |e, a: usize| feed.inputs(e, n).swap_remove(a)[..3].to_vec();
    let assets = feed.assets();
    judge_streams(&streams, epochs, assets, honest_inputs, cfg.epsilon(), Some(cfg.rho0()))
        .unwrap();
    // The rejoiner made real progress: it skipped the epochs it slept
    // through (fast-forward past the quorum frontier) instead of pinning
    // its pipeline at epoch 0 forever.
    let rejoiner = report.outputs[3].as_ref();
    if let Some(events) = rejoiner {
        assert!(
            events.iter().any(|ev| ev.outcome == EpochOutcome::Skipped),
            "a node that slept through epochs must skip, not replay, them"
        );
    }
}
