//! The streaming oracle service: Delphi, epoch after epoch.
//!
//! The paper's deployment (and DORA's, arXiv:2305.03903) is not a single
//! agreement — it is an oracle that agrees on fresh prices round after
//! round over the same node set. [`OracleService`] is that driver: it
//! binds the epoch pipeline of `delphi-primitives` to the Delphi machine
//! ([`VectorDelphiNode`]), maps each epoch's basket onto instances by its
//! size — the one place that knows what a basket is — and emits a
//! strictly epoch-ordered stream of per-asset agreements.
//!
//! The service is sans-io like everything else in this workspace: run it
//! under the discrete-event simulator (it implements [`Protocol`]), or
//! hand its [`EpochProtocol`] — flush policy and all — to `delphi-net`'s
//! `run_epoch_service` for a real TCP deployment via
//! [`OracleService::into_node`].

use delphi_primitives::wire::MAX_VECTOR_DIMS;
use delphi_primitives::{
    Envelope, EpochConfig, EpochEvent, EpochId, EpochOutcome, EpochProtocol, EpochStats,
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

/// Baskets this large run as vector instances of up to
/// [`MAX_VECTOR_DIMS`] consecutive assets each, smaller ones as one
/// instance per asset. Measured with `fig_e2e` (n = 16 sans-io, n = 4 over
/// TCP), one vector instance sent 12 % more bytes per agreement than
/// scalar instances at two assets, 6 % fewer at three and 13 % at four.
pub const VECTOR_BASKET_MIN: u16 = 3;

/// Joins each epoch's instance outputs, which cover consecutive runs of
/// its basket, into every asset's value in asset order.
pub fn flatten_vector_events<O>(events: Vec<EpochEvent<Vec<O>>>) -> Vec<EpochEvent<O>> {
    let join = |outcome| match outcome {
        EpochOutcome::Agreed(outs) => EpochOutcome::Agreed(outs.into_iter().flatten().collect()),
        EpochOutcome::Skipped => EpochOutcome::Skipped,
    };
    events.into_iter().map(|e| EpochEvent { epoch: e.epoch, outcome: join(e.outcome) }).collect()
}

/// A long-lived Delphi oracle: one agreement per `(epoch, asset)` pair,
/// pipelined under a bounded live window.
///
/// Each epoch's basket runs as [`VectorDelphiNode`] instances over
/// consecutive runs of its assets: one per asset below
/// [`VECTOR_BASKET_MIN`] assets (the scalar protocol of the paper), one
/// per [`MAX_VECTOR_DIMS`] from there up, trading lock-step dimensions for
/// ~basket-size fewer sections, wire entries and BinAA rounds. The stream
/// is joined to one [`EpochEvent`] per epoch with every asset's value in
/// asset order, so consumers count one agreement per `(epoch, asset)`.
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
/// let mut node = OracleService::from_parts(cfg, NodeId(0), epochs, FlushPolicy::PerStep, source);
/// assert!(!node.start().is_empty(), "the first epochs start immediately");
/// ```
pub struct OracleService {
    inner: EpochProtocol<VectorDelphiNode>,
}

impl OracleService {
    /// Creates the service for node `me` — the single low-level
    /// constructor (deployments go through `delphi_api::ServiceBuilder`).
    ///
    /// `epochs.assets` is the basket size. `source` supplies this node's
    /// input per `(epoch, asset)` pair, and `flush` is how the pipeline
    /// batches its traffic on any transport.
    ///
    /// # Panics
    ///
    /// Panics on an invalid epoch config or `me` out of range for the
    /// protocol config's `n`.
    pub fn from_parts(
        cfg: DelphiConfig,
        me: NodeId,
        epochs: EpochConfig,
        flush: FlushPolicy,
        source: PriceSource,
    ) -> OracleService {
        let width = if epochs.assets < VECTOR_BASKET_MIN { 1 } else { MAX_VECTOR_DIMS };
        OracleService::with_width(cfg, me, epochs, flush, width, source)
    }

    /// [`from_parts`](OracleService::from_parts) at a given number of
    /// assets per instance.
    fn with_width(
        cfg: DelphiConfig,
        me: NodeId,
        epochs: EpochConfig,
        flush: FlushPolicy,
        width: u16,
        mut source: PriceSource,
    ) -> OracleService {
        let n = cfg.n();
        let assets = epochs.assets;
        let factory = move |epoch, instance: InstanceId| {
            let first = instance.0.saturating_mul(width);
            let inputs: Vec<f64> = (first..first.saturating_add(width).min(assets))
                .map(|a| source(epoch, InstanceId(a)))
                .collect();
            VectorDelphiNode::new(cfg.clone(), me, &inputs)
        };
        let instances = EpochConfig { assets: assets.div_ceil(width), ..epochs };
        OracleService { inner: EpochProtocol::new(instances, me, n, Box::new(factory), flush) }
    }

    /// Epoch-layer counters (GC drops, skips, peak residency, entries
    /// flushed).
    pub fn stats(&self) -> EpochStats {
        self.inner.stats()
    }

    /// Consumes the service, returning the pipeline it runs — flush
    /// policy included — for a transport to drive as it is
    /// (`delphi_net::run_epoch_service`). Its events carry one output per
    /// instance; [`flatten_vector_events`] joins them into this service's
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
                    Box::new(move |e, a| price(id.index(), e.0, a.0)),
                )
            })
            .collect();
        run_mesh(&mut nodes);
        assert_judged(&nodes, &protocol_cfg, epochs, assets);
    }

    #[test]
    fn vector_oracle_streams_epsilon_converged_baskets() {
        let n = 4;
        let epochs = 6u32;
        let assets = 4u16;
        let protocol_cfg = cfg(n);
        let epoch_cfg = EpochConfig::new(epochs, assets, 2, 4);
        let mut nodes: Vec<OracleService> = NodeId::all(n)
            .map(|id| {
                OracleService::from_parts(
                    protocol_cfg.clone(),
                    id,
                    epoch_cfg,
                    FlushPolicy::PerStep,
                    Box::new(move |e, a| price(id.index(), e.0, a.0)),
                )
            })
            .collect();
        run_mesh(&mut nodes);
        // A basket of four runs as one instance per epoch, joined to the
        // per-asset shape: one event per epoch, `assets` agreed values
        // each, in asset order.
        assert_judged(&nodes, &protocol_cfg, epochs, assets);
    }

    /// Node 0 of an n = 4 mesh over a basket of `assets`, its first epoch
    /// alone in flight.
    fn first_epoch_node(assets: u16) -> OracleService {
        let epochs = EpochConfig::new(1, assets, 1, 1);
        let source: PriceSource = Box::new(|e, a| price(0, e.0, a.0));
        OracleService::from_parts(cfg(4), NodeId(0), epochs, FlushPolicy::PerStep, source)
    }

    #[test]
    fn a_basket_maps_onto_instances_by_its_size() {
        use delphi_primitives::epoch::decode_epoch_batch_ref;
        use delphi_primitives::AgreementId;
        use std::collections::BTreeSet;

        for (assets, instances) in [(1, 1), (2, 2), (3, 1), (8, 1), (64, 1), (65, 2)] {
            let burst = first_epoch_node(assets).start();
            let addressed: BTreeSet<AgreementId> = burst
                .iter()
                .flat_map(|env| {
                    decode_epoch_batch_ref(&env.payload).expect("an epoch batch").iter()
                })
                .map(|(id, _)| id)
                .collect();
            assert_eq!(addressed.len(), instances, "basket of {assets}");
        }
        // Every mapping returns every asset's value, in asset order.
        for assets in [1, 2, 3, 65] {
            let epochs = EpochConfig::new(2, assets, 2, 4);
            let mut nodes: Vec<OracleService> = NodeId::all(4)
                .map(|id| {
                    let source =
                        Box::new(move |e: EpochId, a: InstanceId| price(id.index(), e.0, a.0));
                    OracleService::from_parts(cfg(4), id, epochs, FlushPolicy::PerStep, source)
                })
                .collect();
            run_mesh(&mut nodes);
            assert_judged(&nodes, &cfg(4), 2, assets);
        }
    }

    /// Wire bytes of a simulated n = 4 stream of a basket of `assets`,
    /// `width` assets per instance, in the deployed shape: the paper's
    /// oracle parameters, adaptive flushing, and quotes whose spread
    /// scales with their price level, as `delphi_workloads`' synthetic
    /// baskets do.
    fn simulated_wire_bytes(assets: u16, width: u16) -> u64 {
        use delphi_sim::{Simulation, Topology};

        let n = 4;
        let cfg = DelphiConfig::builder(n)
            .space(0.0, 100_000.0)
            .rho0(2.0)
            .delta_max(2000.0)
            .epsilon(2.0)
            .build()
            .expect("config");
        let epochs = EpochConfig::new(3, assets, 2, 4);
        let flush = FlushPolicy::adaptive();
        let nodes = NodeId::all(n)
            .map(|id| {
                let source = Box::new(move |e: EpochId, a: InstanceId| {
                    let level = 100.0 * f64::from(a.0 + 1);
                    level + 0.3 * f64::from(e.0) + 0.0002 * level * id.index() as f64
                });
                OracleService::with_width(cfg.clone(), id, epochs, flush, width, source).boxed()
            })
            .collect();
        let report =
            Simulation::new(Topology::lan(n)).seed(1).tick_interval_ns(1_000_000).run(nodes);
        assert!(report.all_honest_finished(), "{:?}", report.stop);
        report.metrics.total_wire_bytes()
    }

    #[test]
    fn the_vector_mapping_starts_where_it_saves_wire_bytes() {
        // The crossover VECTOR_BASKET_MIN records: two assets cost fewer
        // bytes as two scalar instances (167 184 B against 180 144 B),
        // three as one vector instance (211 248 B against 234 576 B).
        let below = VECTOR_BASKET_MIN - 1;
        let (scalar, vector) = (simulated_wire_bytes(below, 1), simulated_wire_bytes(below, 64));
        assert!(scalar < vector, "basket of {below}: scalar {scalar} B vs vector {vector} B");
        let at = VECTOR_BASKET_MIN;
        let (scalar, vector) = (simulated_wire_bytes(at, 1), simulated_wire_bytes(at, 64));
        assert!(vector < scalar, "basket of {at}: vector {vector} B vs scalar {scalar} B");
    }

    #[test]
    fn flatten_vector_events_preserves_skips_and_order() {
        let events = vec![
            EpochEvent {
                epoch: EpochId(0),
                outcome: EpochOutcome::Agreed(vec![vec![1u8, 2], vec![3]]),
            },
            EpochEvent { epoch: EpochId(1), outcome: EpochOutcome::Skipped },
        ];
        let flat = flatten_vector_events(events);
        assert_eq!(flat[0].outcome, EpochOutcome::Agreed(vec![1, 2, 3]));
        assert!(matches!(flat[1].outcome, EpochOutcome::Skipped));
        assert_eq!((flat[0].epoch, flat[1].epoch), (EpochId(0), EpochId(1)));
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
            Box::new(|_, _| 42.0),
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
