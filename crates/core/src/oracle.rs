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
//! under the discrete-event simulator (it implements
//! [`Protocol`]) or hand its pipeline to `delphi-net`'s
//! `run_epoch_service` for a real TCP deployment via
//! [`OracleService::into_mux`].

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use delphi_primitives::wire::MAX_VECTOR_DIMS;
use delphi_primitives::{
    flatten_vector_events, Envelope, EpochConfig, EpochEvent, EpochId, EpochMux, EpochProtocol,
    EpochStats, FlushPolicy, InstanceId, NodeId, Protocol,
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
///   `(epoch, asset)` pair: the scalar protocol of the paper, and what
///   sharded receive paths spread across workers;
/// - **vector** — one [`VectorDelphiNode`] per epoch whose basket covers
///   every asset. The epoch layer sees one instance (asset 0 on the
///   wire): an ~basket-size reduction in sections, wire entries and BinAA
///   rounds per agreement, traded for receive-side parallelism (all basket
///   traffic lands in one shard class) and lock-step dimensions.
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
/// let epochs = EpochConfig::new(5, 2, 2, 4, cfg.t());
/// let source: PriceSource = Box::new(|e, a| 50.0 + f64::from(e.0) + f64::from(a.0));
/// let mut node = OracleService::from_parts(
///     cfg, NodeId(0), epochs, FlushPolicy::PerStep, 1, false, source, None);
/// assert!(!node.start().is_empty(), "the first epochs start immediately");
/// ```
pub struct OracleService {
    inner: EpochProtocol<VectorDelphiNode>,
}

impl OracleService {
    /// Creates the service for node `me` — the single low-level
    /// constructor (deployments go through `delphi_api::ServiceBuilder`).
    ///
    /// `epochs.t` should match `cfg.t()` (the protocol's fault threshold
    /// governs the rejoin quorum too); `source` supplies this node's input
    /// per `(epoch, asset)` pair. `vector` runs each epoch's basket as one
    /// instance over `epochs.assets` dimensions instead of one instance
    /// per asset. With `recv_shards > 1` outgoing batches are flushed per
    /// `(destination, receive shard)` and tagged with their
    /// [`AgreementId::shard`](delphi_primitives::AgreementId::shard)
    /// class, so drivers with a per-shard receive CPU (the simulator's
    /// `recv_shards`, `delphi-net`'s sharded dispatch) overlap the
    /// processing of different assets' traffic.
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
    /// protocol config's `n`, `recv_shards == 0`, or — in vector mode — a
    /// basket larger than [`MAX_VECTOR_DIMS`].
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        cfg: DelphiConfig,
        me: NodeId,
        epochs: EpochConfig,
        flush: FlushPolicy,
        recv_shards: usize,
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
        let mux = if vector {
            let dims = epochs.assets;
            assert!(
                dims <= MAX_VECTOR_DIMS,
                "basket of {dims} exceeds {MAX_VECTOR_DIMS} dimensions"
            );
            let factory = move |epoch| {
                let inputs: Vec<f64> = (0..dims).map(|a| source(epoch, InstanceId(a))).collect();
                spawn(&inputs)
            };
            EpochMux::new_vector(epochs, me, n, Box::new(factory))
        } else {
            let factory = move |epoch, asset| spawn(&[source(epoch, asset)]);
            EpochMux::new(epochs, me, n, Box::new(factory))
        };
        OracleService { inner: EpochProtocol::new(mux, flush).recv_shards(recv_shards) }
    }

    /// Epoch-layer counters (GC drops, skips, peak residency).
    pub fn stats(&self) -> EpochStats {
        self.inner.mux().stats()
    }

    /// Epoch-batch entries flushed so far (envelopes after broadcast
    /// expansion) — the transport-independent unit batching comparisons
    /// normalize by.
    pub fn sent_entries(&self) -> u64 {
        self.inner.sent_entries()
    }

    /// Consumes the service, returning the bare pipeline for transports
    /// that route epoch entries natively (`delphi_net::run_epoch_service`).
    /// Its events carry one output per instance; [`flatten_vector_events`]
    /// turns them into this service's per-asset shape.
    pub fn into_mux(self) -> EpochMux<VectorDelphiNode> {
        self.inner.into_mux()
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
    use delphi_primitives::EpochOutcome;

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
        let mut queue: std::collections::VecDeque<(NodeId, NodeId, bytes::Bytes)> =
            std::collections::VecDeque::new();
        for (i, node) in nodes.iter_mut().enumerate() {
            for env in node.start() {
                let Recipient::One(dest) = env.to else { panic!("epoch batches are to_one") };
                queue.push_back((NodeId(i as u16), dest, env.payload));
            }
        }
        while let Some((from, to, payload)) = queue.pop_front() {
            for env in nodes[to.index()].on_message(from, &payload) {
                let Recipient::One(dest) = env.to else { panic!("epoch batches are to_one") };
                queue.push_back((to, dest, env.payload));
            }
        }
    }

    #[test]
    fn oracle_service_streams_epsilon_converged_epochs() {
        let n = 4;
        let epochs = 6u32;
        let assets = 2u16;
        let protocol_cfg = cfg(n);
        let epoch_cfg = EpochConfig::new(epochs, assets, 2, 4, protocol_cfg.t());
        let mut nodes: Vec<OracleService> = NodeId::all(n)
            .map(|id| {
                // Per-node spread around an epoch+asset-dependent center.
                let offset = id.index() as f64 * 0.2;
                OracleService::from_parts(
                    protocol_cfg.clone(),
                    id,
                    epoch_cfg,
                    FlushPolicy::PerStep,
                    1,
                    false,
                    Box::new(move |e, a| {
                        500.0 + f64::from(e.0) * 3.0 + f64::from(a.0) * 7.0 + offset
                    }),
                    None,
                )
            })
            .collect();
        run_mesh(&mut nodes);
        let streams: Vec<Vec<EpochEvent<f64>>> =
            nodes.iter().map(|nd| nd.output().expect("stream complete")).collect();
        for events in &streams {
            assert_eq!(events.len(), epochs as usize);
            for (e, event) in events.iter().enumerate() {
                assert_eq!(event.epoch, EpochId(e as u32));
                assert!(matches!(event.outcome, EpochOutcome::Agreed(_)));
            }
        }
        // Per-(epoch, asset) epsilon-agreement across the cluster, plus
        // validity: outputs inside the honest input range.
        for e in 0..epochs as usize {
            for a in 0..assets as usize {
                let vals: Vec<f64> = streams
                    .iter()
                    .map(|events| match &events[e].outcome {
                        EpochOutcome::Agreed(v) => v[a],
                        EpochOutcome::Skipped => panic!("skipped"),
                    })
                    .collect();
                let lo = vals.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                assert!(hi - lo <= 1.0 + 1e-9, "epoch {e} asset {a}: spread {}", hi - lo);
                let center = 500.0 + e as f64 * 3.0 + a as f64 * 7.0;
                assert!(lo >= center - 1e-9 && hi <= center + 0.6 + 1e-9, "validity");
            }
        }
        for node in &nodes {
            assert_eq!(node.stats().stale_epochs, 0);
            assert!(node.stats().peak_resident <= 4);
        }
    }

    #[test]
    fn vector_oracle_streams_epsilon_converged_baskets() {
        use std::sync::atomic::Ordering;

        let n = 4;
        let epochs = 6u32;
        let assets = 4u16;
        let protocol_cfg = cfg(n);
        let epoch_cfg = EpochConfig::new(epochs, assets, 2, 4, protocol_cfg.t());
        let probe = Arc::new(AtomicU64::new(0));
        let mut nodes: Vec<OracleService> = NodeId::all(n)
            .map(|id| {
                let offset = id.index() as f64 * 0.2;
                OracleService::from_parts(
                    protocol_cfg.clone(),
                    id,
                    epoch_cfg,
                    FlushPolicy::PerStep,
                    1,
                    true,
                    Box::new(move |e, a| {
                        500.0 + f64::from(e.0) * 3.0 + f64::from(a.0) * 7.0 + offset
                    }),
                    Some(probe.clone()),
                )
            })
            .collect();
        run_mesh(&mut nodes);
        let streams: Vec<Vec<EpochEvent<f64>>> =
            nodes.iter().map(|nd| nd.output().expect("stream complete")).collect();
        // Flattened shape matches the per-asset service: one event per
        // epoch, `assets` agreed values each, in asset order.
        for events in &streams {
            assert_eq!(events.len(), epochs as usize);
            for (e, event) in events.iter().enumerate() {
                assert_eq!(event.epoch, EpochId(e as u32));
                match &event.outcome {
                    EpochOutcome::Agreed(v) => assert_eq!(v.len(), assets as usize),
                    EpochOutcome::Skipped => panic!("skipped"),
                }
            }
        }
        // Per-dimension epsilon-agreement across the cluster, plus
        // relaxed validity inside each dimension's honest input band.
        for e in 0..epochs as usize {
            for a in 0..assets as usize {
                let vals: Vec<f64> = streams
                    .iter()
                    .map(|events| match &events[e].outcome {
                        EpochOutcome::Agreed(v) => v[a],
                        EpochOutcome::Skipped => panic!("skipped"),
                    })
                    .collect();
                let lo = vals.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                assert!(hi - lo <= 1.0 + 1e-9, "epoch {e} dim {a}: spread {}", hi - lo);
                let center = 500.0 + e as f64 * 3.0 + a as f64 * 7.0;
                assert!(lo >= center - 1e-9 && hi <= center + 0.6 + 1e-9, "validity");
            }
        }
        for node in &nodes {
            assert_eq!(node.stats().stale_epochs, 0);
            assert!(node.stats().peak_resident <= 4);
        }
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
        let epoch_cfg = EpochConfig::new(3, 1, 1, 2, protocol_cfg.t());
        let service = OracleService::from_parts(
            protocol_cfg,
            NodeId(2),
            epoch_cfg,
            FlushPolicy::adaptive(),
            1,
            false,
            Box::new(|_, _| 42.0),
            None,
        );
        let mux = service.into_mux();
        assert_eq!(mux.node_id(), NodeId(2));
        assert_eq!(mux.config().epochs, 3);
    }
}
