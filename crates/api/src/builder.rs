//! [`ServiceBuilder`]: the one public way to assemble a Delphi oracle
//! node — pipeline shape, transport knobs, and the serving layer — in a
//! single chained expression.
//!
//! The pieces it replaces were positional: `OracleService::new` /
//! `new_sharded`, `EpochProtocol::new_sharded`, and a bare `RunOptions`
//! struct that every binary filled field by field. The builder owns all
//! of it:
//!
//! ```ignore
//! let handle = ServiceBuilder::new(cfg, me)
//!     .epochs(120).assets(4).pipeline_depth(2).window(6)
//!     .flush(FlushPolicy::adaptive()).recv_shards(2)
//!     .api_bind("127.0.0.1:0".parse().unwrap())
//!     .serve(seed, addrs, source)
//!     .await?;
//! println!("serving on {:?}", handle.api_addr());
//! let (events, epoch_stats, net_stats) = handle.finish().await?;
//! ```
//!
//! [`serve`](ServiceBuilder::serve) runs the full deployment: protocol
//! over TCP, a publisher task tailing the event stream into the
//! [`FeedState`] cache and [`SubscriberHub`], slot attestations minted
//! per agreement, and (with [`api_bind`](ServiceBuilder::api_bind)) the
//! HTTP server. [`build_service`](ServiceBuilder::build_service) stops at
//! the sans-io [`OracleService`] for simulator runs. Per-asset and vector
//! baskets are one service over one Delphi machine;
//! [`vector_baskets`](ServiceBuilder::vector_baskets) picks how a basket
//! maps onto instances.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use delphi_core::oracle::PriceSource;
use delphi_core::{DelphiConfig, OracleService};
use delphi_crypto::Keychain;
use delphi_net::{
    run_epoch_service, EpochServiceHandle, NetError, NetStats, RunOptions, ServiceStats,
};
use delphi_primitives::{
    flatten_vector_events, EpochConfig, EpochEvent, EpochOutcome, EpochStats, FlushPolicy,
    InstanceId, NodeId,
};

use crate::attest::QuorumSigner;
use crate::feed::{FeedState, FeedUpdate};
use crate::hub::SubscriberHub;
use crate::server::{ApiContext, ApiServer};

/// Assembles an oracle node: protocol config, epoch pipeline shape,
/// transport options, and the read-side serving layer.
#[derive(Debug)]
pub struct ServiceBuilder {
    cfg: DelphiConfig,
    me: NodeId,
    epochs: u32,
    assets: u16,
    depth: usize,
    window: usize,
    opts: RunOptions,
    api_bind: Option<SocketAddr>,
    history: usize,
    subscriber_capacity: usize,
    vector: bool,
}

impl ServiceBuilder {
    /// A builder for node `me` under `cfg`, with a 1-asset, 1-epoch
    /// stream and default transport options until configured otherwise.
    pub fn new(cfg: DelphiConfig, me: NodeId) -> ServiceBuilder {
        ServiceBuilder {
            cfg,
            me,
            epochs: 1,
            assets: 1,
            depth: 2,
            window: 4,
            opts: RunOptions::default(),
            api_bind: None,
            history: 64,
            subscriber_capacity: 32,
            vector: false,
        }
    }

    /// Stream length `K`: total epochs to agree on.
    pub fn epochs(mut self, epochs: u32) -> ServiceBuilder {
        self.epochs = epochs;
        self
    }

    /// Basket size: independent agreements per epoch.
    pub fn assets(mut self, assets: u16) -> ServiceBuilder {
        self.assets = assets;
        self
    }

    /// Epochs in flight at once (the epoch-rate knob).
    pub fn pipeline_depth(mut self, depth: usize) -> ServiceBuilder {
        self.depth = depth;
        self
    }

    /// Epochs resident in memory (≥ depth; the excess answers laggards).
    pub fn window(mut self, window: usize) -> ServiceBuilder {
        self.window = window;
        self
    }

    /// Batch flush policy for outgoing protocol traffic.
    pub fn flush(mut self, flush: FlushPolicy) -> ServiceBuilder {
        self.opts.flush = flush;
        self
    }

    /// Receive-path dispatch shards (see `RunOptions::recv_shards`).
    pub fn recv_shards(mut self, shards: usize) -> ServiceBuilder {
        self.opts.recv_shards = shards;
        self
    }

    /// Does nothing: a node's send parallelism is its
    /// [`recv_shards`](ServiceBuilder::recv_shards) — every dispatch
    /// worker routes, batches, encodes and MACs its own output — and the
    /// separate egress lanes this once sized are gone. The setter stays
    /// only because the frozen wall-clock benchmark (`fig_e2e/src/sut.rs`)
    /// calls it.
    pub fn send_shards(self, _shards: usize) -> ServiceBuilder {
        self
    }

    /// Per-peer outbound writer queue capacity, in frames (see
    /// `RunOptions::egress_capacity`): frames beyond it are dropped and
    /// counted rather than buffered without bound.
    pub fn egress_capacity(mut self, capacity: usize) -> ServiceBuilder {
        self.opts.egress_capacity = capacity;
        self
    }

    /// Overall run deadline.
    pub fn deadline(mut self, deadline: Duration) -> ServiceBuilder {
        self.opts.deadline = deadline;
        self
    }

    /// Post-completion linger (help slower peers finish).
    pub fn linger(mut self, linger: Duration) -> ServiceBuilder {
        self.opts.linger = linger;
        self
    }

    /// Redial delay after a lost peer connection.
    pub fn reconnect_delay(mut self, delay: Duration) -> ServiceBuilder {
        self.opts.reconnect_delay = delay;
        self
    }

    /// Serve readers over HTTP on `addr` (port 0 picks a free port).
    pub fn api_bind(mut self, addr: SocketAddr) -> ServiceBuilder {
        self.api_bind = Some(addr);
        self
    }

    /// Past updates retained per asset for `/v0/history`.
    pub fn history_depth(mut self, depth: usize) -> ServiceBuilder {
        self.history = depth;
        self
    }

    /// Undelivered updates a subscriber may buffer before the lag-kick.
    pub fn subscriber_capacity(mut self, capacity: usize) -> ServiceBuilder {
        self.subscriber_capacity = capacity;
        self
    }

    /// Run each epoch's basket as ONE vector-valued agreement instance
    /// instead of [`assets`](ServiceBuilder::assets) independent scalar
    /// instances. The basket exchanges a single bundle per round and
    /// walks the quorum machinery once per round rather than once per
    /// asset; readers see the same per-asset feed either way. Off by
    /// default.
    pub fn vector_baskets(mut self, vector: bool) -> ServiceBuilder {
        self.vector = vector;
        self
    }

    fn epoch_config(&self) -> EpochConfig {
        EpochConfig::new(self.epochs, self.assets, self.depth, self.window, self.cfg.t())
    }

    /// The sans-io [`OracleService`] this builder describes — the
    /// simulator path, and the escape hatch for custom transports.
    ///
    /// # Panics
    ///
    /// Panics on an invalid pipeline shape (zero epochs/assets/depth or
    /// `window < depth`), `me` out of range, or — with
    /// [`vector_baskets`](ServiceBuilder::vector_baskets) — a basket
    /// larger than `MAX_VECTOR_DIMS`.
    pub fn build_service(self, source: PriceSource) -> OracleService {
        let epochs = self.epoch_config();
        let (flush, shards) = (self.opts.flush, self.opts.recv_shards);
        OracleService::from_parts(
            self.cfg,
            self.me,
            epochs,
            flush,
            shards,
            self.vector,
            source,
            None,
        )
    }

    /// [`build_service`](ServiceBuilder::build_service) with
    /// [`vector_baskets`](ServiceBuilder::vector_baskets) on, kept because
    /// the wall-clock benchmark (`fig_e2e/src/sut.rs`) calls it.
    pub fn build_vector_service(self, source: PriceSource) -> OracleService {
        self.vector_baskets(true).build_service(source)
    }

    /// Runs the full node: the epoch stream over TCP against `addrs`,
    /// the publisher tailing agreements into the snapshot cache and
    /// subscriber hub (attesting each slot under `seed`), and — when
    /// [`api_bind`](ServiceBuilder::api_bind) was set — the HTTP server.
    ///
    /// `seed` is the deployment's shared key material: it derives the
    /// transport keychain and the attestation keys, exactly as the
    /// cluster config file does.
    ///
    /// # Errors
    ///
    /// [`NetError::Config`] / [`NetError::Io`] as `run_epoch_service`,
    /// plus [`NetError::Io`] if the API listener cannot bind.
    ///
    /// # Panics
    ///
    /// As [`build_service`](ServiceBuilder::build_service).
    pub async fn serve(
        self,
        seed: &[u8],
        addrs: Vec<SocketAddr>,
        source: PriceSource,
    ) -> Result<OracleHandle, NetError> {
        let n = self.cfg.n();
        let t = self.cfg.t();
        let epsilon = self.cfg.epsilon();
        let assets = self.assets;
        let history = self.history;
        let subscriber_capacity = self.subscriber_capacity;
        let api_bind = self.api_bind;
        let keychain = Keychain::derive(seed, self.me, n);
        let signer = QuorumSigner::new(seed, t, epsilon);
        let opts = self.opts.clone();

        let feed = Arc::new(FeedState::new(assets, history));
        let hub = Arc::new(SubscriberHub::new(assets, subscriber_capacity));

        let mux = self.build_service(source).into_mux();
        let mut service = run_epoch_service(mux, keychain, addrs, opts).await?;
        let mut rx = service.take_events().expect("fresh handle has the event tail");
        let publisher = {
            let (feed, hub) = (feed.clone(), hub.clone());
            tokio::spawn(async move {
                while let Some(event) = rx.recv().await {
                    // An epoch's instance outputs, concatenated, are its
                    // assets in order — one value per instance per asset,
                    // or one instance holding the whole basket — so
                    // readers cannot tell which mode produced an update.
                    let EpochOutcome::Agreed(slots) = event.outcome else { continue };
                    for (a, value) in slots.into_iter().flatten().enumerate() {
                        let (epoch, asset) = (event.epoch, InstanceId(a as u16));
                        let attestation = Some(signer.attest(epoch, asset, value));
                        let update = feed.publish(FeedUpdate { epoch, asset, value, attestation });
                        hub.broadcast(&update);
                    }
                }
                // The stream is over (or the service errored): end every
                // subscription so serving tasks wind down.
                hub.close_all();
            })
        };

        let api = match api_bind {
            Some(addr) => {
                let ctx = Arc::new(ApiContext {
                    feed: feed.clone(),
                    hub: hub.clone(),
                    stats: Some(service.stats()),
                    quorum: Some((n, t)),
                });
                Some(ApiServer::bind(addr, ctx).await.map_err(NetError::from)?)
            }
            None => None,
        };

        Ok(OracleHandle { service, publisher, api, feed, hub })
    }
}

/// A running oracle node with its serving layer, returned by
/// [`ServiceBuilder::serve`].
pub struct OracleHandle {
    /// The transport handle; its events carry one output per instance.
    service: EpochServiceHandle<Vec<f64>>,
    publisher: tokio::task::JoinHandle<()>,
    api: Option<ApiServer>,
    feed: Arc<FeedState>,
    hub: Arc<SubscriberHub>,
}

impl OracleHandle {
    /// The HTTP server's bound address, when serving was enabled.
    pub fn api_addr(&self) -> Option<SocketAddr> {
        self.api.as_ref().map(ApiServer::local_addr)
    }

    /// The snapshot cache (in-process readers skip HTTP entirely).
    pub fn feed(&self) -> Arc<FeedState> {
        self.feed.clone()
    }

    /// The subscription hub (in-process subscribers).
    pub fn hub(&self) -> Arc<SubscriberHub> {
        self.hub.clone()
    }

    /// A cloneable live-stats probe.
    pub fn stats(&self) -> ServiceStats {
        self.service.stats()
    }

    /// One coherent copy of the epoch-layer counters, right now.
    pub fn stats_snapshot(&self) -> EpochStats {
        self.service.stats_snapshot()
    }

    /// Awaits the run: the complete ordered event stream plus final
    /// counters. Shuts the API server down afterwards.
    ///
    /// # Errors
    ///
    /// As `EpochServiceHandle::finish`.
    ///
    /// # Panics
    ///
    /// Panics if the service task itself panicked.
    pub async fn finish(self) -> Result<(Vec<EpochEvent<f64>>, EpochStats, NetStats), NetError> {
        let result = self.service.finish().await;
        let result = result.map(|(events, epoch, net)| (flatten_vector_events(events), epoch, net));
        // The publisher ends once the event stream closed (which the
        // service does on completion and on error alike).
        let _ = self.publisher.await;
        if let Some(api) = self.api {
            api.shutdown();
        }
        result
    }
}
