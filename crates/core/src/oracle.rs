//! The streaming oracle service: Delphi, epoch after epoch.
//!
//! The paper's deployment (and DORA's, arXiv:2305.03903) is not a single
//! agreement — it is an oracle that agrees on fresh prices round after
//! round over the same node set. [`OracleService`] is that driver: it
//! binds the epoch pipeline of `delphi-primitives` to the Delphi machine
//! ([`VectorDelphiNode`]), spawning either one instance per `(epoch,
//! asset)` pair over a basket of one, or one instance per epoch over the
//! whole basket, from a streaming price source, and emitting a strictly
//! epoch-ordered stream of agreements.
//!
//! The service is sans-io like everything else in this workspace: run it
//! under the discrete-event simulator (it implements [`Protocol`]), or
//! hand its [`EpochProtocol`] — flush policy and all — to `delphi-net`'s
//! `run_epoch_service` for a real TCP deployment via
//! [`OracleService::into_node`].

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use delphi_primitives::wire::MAX_VECTOR_DIMS;
use delphi_primitives::{
    flatten_vector_events, Envelope, EpochConfig, EpochEvent, EpochId, EpochProtocol, EpochStats,
    FlushPolicy, InstanceId, NodeId, Protocol,
};

use crate::delphi::VectorDelphiNode;
use crate::params::DelphiConfig;

/// Streaming price source: this node's protocol input for one
/// `(epoch, asset)` pair.
///
/// Deployments derive inputs deterministically from a shared seed (see
/// `delphi_workloads::EpochFeed`), so every node computes its own slice of
/// the same quote without any distribution step.
pub type PriceSource = Box<dyn FnMut(EpochId, InstanceId) -> f64 + Send>;

/// A long-lived Delphi oracle: one agreement per `(epoch, asset)` pair,
/// pipelined under a bounded live window.
///
/// Two mappings of a basket onto agreement instances, one machine:
///
/// - **per asset** — one [`VectorDelphiNode`] over a basket of one per
///   `(epoch, asset)` pair: the scalar protocol of the paper;
/// - **vector** — one [`VectorDelphiNode`] per epoch whose basket covers
///   every asset. The epoch layer sees one instance (asset 0 on the
///   wire): an ~basket-size reduction in sections, wire entries and BinAA
///   rounds per agreement, traded for lock-step dimensions.
///
/// Either way the stream is flattened to one [`EpochEvent`] per epoch with
/// every asset's value in asset order, so consumers — and the throughput
/// accounting built on it — count one agreement per `(epoch, asset)`.
///
/// The blessed way to construct one is `delphi_api::ServiceBuilder`
/// (re-exported from the umbrella `delphi` crate), which also wires the
/// TCP driver and the serving layer; [`OracleService::from_parts`] is the
/// sans-io escape hatch the builder itself uses.
///
/// # Example
///
/// ```
/// use delphi_core::{DelphiConfig, OracleService, PriceSource};
/// use delphi_primitives::{EpochConfig, FlushPolicy, NodeId, Protocol};
///
/// let cfg = DelphiConfig::builder(4).space(0.0, 100.0).rho0(1.0)
///     .delta_max(8.0).epsilon(1.0).build().unwrap();
/// let epochs = EpochConfig::new(5, 2, 2, 4);
/// let source: PriceSource = Box::new(|e, a| 50.0 + f64::from(e.0) + f64::from(a.0));
/// let mut node = OracleService::from_parts(
///     cfg, NodeId(0), epochs, FlushPolicy::PerStep, false, source, None);
/// assert!(!node.start().is_empty(), "the first epochs start immediately");
/// ```
pub struct OracleService {
    inner: EpochProtocol<VectorDelphiNode>,
}

impl OracleService {
    /// Creates the service for node `me` — the single low-level
    /// constructor (deployments go through `delphi_api::ServiceBuilder`).
    ///
    /// `source` supplies this node's input per `(epoch, asset)` pair, and
    /// `flush` is how the pipeline batches its traffic on any transport.
    /// `vector` runs each epoch's basket as one instance over
    /// `epochs.assets` dimensions instead of one instance per asset.
    ///
    /// `probe`, if any, is a shared round counter attached to every
    /// spawned instance (see [`VectorDelphiNode::with_round_probe`]): it
    /// counts the BinAA rounds completed across all instances —
    /// `(l_max + 1) × r_max` per asset per epoch, or per epoch in vector
    /// mode — the denominator-free half of a rounds-per-agreement figure.
    ///
    /// # Panics
    ///
    /// Panics on an invalid epoch config, `me` out of range for the
    /// protocol config's `n`, or — in vector mode — a basket larger than
    /// [`MAX_VECTOR_DIMS`].
    pub fn from_parts(
        cfg: DelphiConfig,
        me: NodeId,
        epochs: EpochConfig,
        flush: FlushPolicy,
        vector: bool,
        mut source: PriceSource,
        probe: Option<Arc<AtomicU64>>,
    ) -> OracleService {
        let n = cfg.n();
        let spawn = move |inputs: &[f64]| {
            let node = VectorDelphiNode::new(cfg.clone(), me, inputs);
            match &probe {
                Some(p) => node.with_round_probe(p.clone()),
                None => node,
            }
        };
        let inner = if vector {
            let dims = epochs.assets;
            assert!(
                dims <= MAX_VECTOR_DIMS,
                "basket of {dims} exceeds {MAX_VECTOR_DIMS} dimensions"
            );
            let factory = move |epoch| {
                let inputs: Vec<f64> = (0..dims).map(|a| source(epoch, InstanceId(a))).collect();
                spawn(&inputs)
            };
            EpochProtocol::new_vector(epochs, me, n, Box::new(factory), flush)
        } else {
            let factory = move |epoch, asset| spawn(&[source(epoch, asset)]);
            EpochProtocol::new(epochs, me, n, Box::new(factory), flush)
        };
        OracleService { inner }
    }

    /// Epoch-layer counters (GC drops, skips, peak residency, entries
    /// flushed).
    pub fn stats(&self) -> EpochStats {
        self.inner.stats()
    }

    /// Consumes the service, returning the pipeline it runs — flush
    /// policy included — for a transport to drive as it is
    /// (`delphi_net::run_epoch_service`). Its events carry one output per
    /// instance; [`flatten_vector_events`] turns them into this service's
    /// per-asset shape.
    pub fn into_node(self) -> EpochProtocol<VectorDelphiNode> {
        self.inner
    }

    /// Boxes the service for the simulator's node vectors.
    pub fn boxed(self) -> Box<dyn Protocol<Output = Vec<EpochEvent<f64>>>> {
        Box::new(self)
    }
}

impl Protocol for OracleService {
    type Output = Vec<EpochEvent<f64>>;

    fn node_id(&self) -> NodeId {
        self.inner.node_id()
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn start(&mut self) -> Vec<Envelope> {
        self.inner.start()
    }

    fn on_message(&mut self, from: NodeId, payload: &[u8]) -> Vec<Envelope> {
        self.inner.on_message(from, payload)
    }

    fn on_tick(&mut self) -> Vec<Envelope> {
        self.inner.on_tick()
    }

    fn output(&self) -> Option<Vec<EpochEvent<f64>>> {
        self.inner.output().map(flatten_vector_events)
    }

    fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delphi_sim::judge_streams;

    fn cfg(n: usize) -> DelphiConfig {
        DelphiConfig::builder(n)
            .space(0.0, 1000.0)
            .rho0(1.0)
            .delta_max(32.0)
            .epsilon(1.0)
            .build()
            .expect("config")
    }

    /// Hand-delivered mesh run (no simulator dependency in this crate).
    fn run_mesh<P: Protocol>(nodes: &mut [P]) {
        use delphi_primitives::Recipient;
        let n = nodes.len();
        let mut queue: std::collections::VecDeque<(NodeId, Envelope)> = NodeId::all(n)
            .zip(nodes.iter_mut())
            .flat_map(|(i, node)| node.start().into_iter().map(move |env| (i, env)))
            .collect();
        while let Some((from, env)) = queue.pop_front() {
            let reaches =
                |d| env.to == Recipient::One(d) || (env.to == Recipient::All && d != from);
            for to in NodeId::all(n).filter(|&d| reaches(d)) {
                let out = nodes[to.index()].on_message(from, &env.payload);
                queue.extend(out.into_iter().map(|reply| (to, reply)));
            }
        }
    }

    /// Node `i`'s price for `(epoch, asset)`: 0.2 apart around a centre
    /// that moves with both.
    fn price(i: usize, e: u32, a: u16) -> f64 {
        center(e, usize::from(a)) + i as f64 * 0.2
    }

    fn center(e: u32, a: usize) -> f64 {
        500.0 + f64::from(e) * 3.0 + a as f64 * 7.0
    }

    /// Judges the nodes' whole streams against their prices, and holds
    /// every output inside its centre band `[c, c + 0.6]`, the exact hull
    /// of the four prices: tighter than the judge's `max(ρ0, δ)`.
    fn assert_judged(nodes: &[OracleService], cfg: &DelphiConfig, epochs: u32, assets: u16) {
        let streams: Vec<Vec<EpochEvent<f64>>> =
            nodes.iter().map(|nd| nd.output().expect("stream complete")).collect();
        let prices = |e, a| (0..nodes.len()).map(|i| price(i, e, a as u16)).collect();
        judge_streams(
            &streams,
            epochs,
            usize::from(assets),
            prices,
            cfg.epsilon(),
            Some(cfg.rho0()),
        )
        .unwrap();
        for (e, a, v) in streams.iter().flatten().flat_map(EpochEvent::agreements) {
            let c = center(e.0, a.index());
            assert!((c - 1e-9..=c + 0.6 + 1e-9).contains(v), "{e} asset {a:?}: {v}");
        }
        for node in nodes {
            assert_eq!(node.stats().stale_epochs, 0);
            assert!(node.stats().peak_resident <= 4);
        }
    }

    #[test]
    fn oracle_service_streams_epsilon_converged_epochs() {
        let n = 4;
        let epochs = 6u32;
        let assets = 2u16;
        let protocol_cfg = cfg(n);
        let epoch_cfg = EpochConfig::new(epochs, assets, 2, 4);
        let mut nodes: Vec<OracleService> = NodeId::all(n)
            .map(|id| {
                OracleService::from_parts(
                    protocol_cfg.clone(),
                    id,
                    epoch_cfg,
                    FlushPolicy::PerStep,
                    false,
                    Box::new(move |e, a| price(id.index(), e.0, a.0)),
                    None,
                )
            })
            .collect();
        run_mesh(&mut nodes);
        assert_judged(&nodes, &protocol_cfg, epochs, assets);
    }

    #[test]
    fn vector_oracle_streams_epsilon_converged_baskets() {
        use std::sync::atomic::Ordering;

        let n = 4;
        let epochs = 6u32;
        let assets = 4u16;
        let protocol_cfg = cfg(n);
        let epoch_cfg = EpochConfig::new(epochs, assets, 2, 4);
        let probe = Arc::new(AtomicU64::new(0));
        let mut nodes: Vec<OracleService> = NodeId::all(n)
            .map(|id| {
                OracleService::from_parts(
                    protocol_cfg.clone(),
                    id,
                    epoch_cfg,
                    FlushPolicy::PerStep,
                    true,
                    Box::new(move |e, a| price(id.index(), e.0, a.0)),
                    Some(probe.clone()),
                )
            })
            .collect();
        run_mesh(&mut nodes);
        // The flattened shape matches the per-asset service: one event per
        // epoch, `assets` agreed values each, in asset order.
        assert_judged(&nodes, &protocol_cfg, epochs, assets);
        // The shared round walk: epochs × (l_max + 1) × r_max completions
        // per node, independent of basket size.
        let expected = u64::from(epochs)
            * n as u64
            * u64::from(protocol_cfg.l_max() + 1)
            * u64::from(protocol_cfg.r_max());
        assert_eq!(probe.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn oracle_service_exposes_pipeline_for_native_transports() {
        let protocol_cfg = cfg(4);
        let epoch_cfg = EpochConfig::new(3, 1, 1, 2);
        let service = OracleService::from_parts(
            protocol_cfg,
            NodeId(2),
            epoch_cfg,
            FlushPolicy::adaptive(),
            false,
            Box::new(|_, _| 42.0),
            None,
        );
        let mut node = service.into_node();
        assert_eq!((node.node_id(), node.n()), (NodeId(2), 4));
        // The adaptive policy it was built with holds the start burst back
        // for the transport's tick.
        assert!(node.start().is_empty());
        assert_eq!(node.pending_delay(), Some(std::time::Duration::from_millis(1)));
        let out = node.on_tick();
        assert_eq!(out.len(), 1, "one batch for every peer");
        assert_eq!(out[0].to, delphi_primitives::Recipient::All);
    }
}
