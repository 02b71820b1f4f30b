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
//!     .flush(FlushPolicy::adaptive())
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
//! the sans-io [`OracleService`] for simulator runs, which maps the
//! basket onto agreement instances by its size.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use delphi_core::oracle::PriceSource;
use delphi_core::{flatten_vector_events, DelphiConfig, OracleService};
use delphi_crypto::Keychain;
use delphi_net::{
    run_epoch_service, EpochServiceHandle, NetError, NetStats, RunOptions, ServiceStats,
};
use delphi_primitives::{
    EpochConfig, EpochEvent, EpochOutcome, EpochStats, FlushPolicy, InstanceId, NodeId,
};

use crate::attest::QuorumSigner;
use crate::feed::{FeedState, FeedUpdate};
use crate::hub::SubscriberHub;
use crate::server::{ApiContext, ApiServer};

/// Past updates retained per asset for `/v0/history`.
const HISTORY_DEPTH: usize = 64;

/// Undelivered updates a subscriber may buffer before the lag-kick.
const SUBSCRIBER_CAPACITY: usize = 32;

/// Assembles an oracle node: protocol config, epoch pipeline shape,
/// transport options, and the read-side serving layer.
#[derive(Debug)]
pub struct ServiceBuilder {
    cfg: DelphiConfig,
    me: NodeId,
    /// The pipeline shape, validated when the service is built.
    shape: EpochConfig,
    flush: FlushPolicy,
    opts: RunOptions,
    api_bind: Option<SocketAddr>,
}

impl ServiceBuilder {
    /// A builder for node `me` under `cfg`, with a 1-asset, 1-epoch
    /// stream and default transport options until configured otherwise.
    pub fn new(cfg: DelphiConfig, me: NodeId) -> ServiceBuilder {
        ServiceBuilder {
            cfg,
            me,
            shape: EpochConfig { epochs: 1, assets: 1, depth: 2, window: 4 },
            flush: FlushPolicy::PerStep,
            opts: RunOptions::default(),
            api_bind: None,
        }
    }

    /// Stream length `K`: total epochs to agree on.
    pub fn epochs(mut self, epochs: u32) -> ServiceBuilder {
        self.shape.epochs = epochs;
        self
    }

    /// Basket size: agreements per epoch. The service maps the basket
    /// onto agreement instances by its size (see
    /// `delphi_core::oracle::VECTOR_BASKET_MIN`).
    pub fn assets(mut self, assets: u16) -> ServiceBuilder {
        self.shape.assets = assets;
        self
    }

    /// Epochs in flight at once (the epoch-rate knob).
    pub fn pipeline_depth(mut self, depth: usize) -> ServiceBuilder {
        self.shape.depth = depth;
        self
    }

    /// Epochs resident in memory (≥ depth; the excess answers laggards).
    pub fn window(mut self, window: usize) -> ServiceBuilder {
        self.shape.window = window;
        self
    }

    /// Batch flush policy for outgoing protocol traffic.
    pub fn flush(mut self, flush: FlushPolicy) -> ServiceBuilder {
        self.flush = flush;
        self
    }

    /// Does nothing: a node runs one dispatch worker that owns its whole
    /// pipeline, so there are no receive shards to size. The setter stays
    /// only because the frozen wall-clock benchmark (`fig_e2e/src/sut.rs`)
    /// calls it.
    pub fn recv_shards(self, _shards: usize) -> ServiceBuilder {
        self
    }

    /// Does nothing, like [`recv_shards`](ServiceBuilder::recv_shards):
    /// the one dispatch worker routes, batches, encodes and MACs its own
    /// output. The setter stays only because the frozen wall-clock
    /// benchmark (`fig_e2e/src/sut.rs`) calls it.
    pub fn send_shards(self, _shards: usize) -> ServiceBuilder {
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

    /// Serve readers over HTTP on `addr` (port 0 picks a free port).
    pub fn api_bind(mut self, addr: SocketAddr) -> ServiceBuilder {
        self.api_bind = Some(addr);
        self
    }

    /// Does nothing: the basket size picks how a basket maps onto
    /// agreement instances. The setter stays only because the frozen
    /// wall-clock benchmark (`fig_e2e/src/sut.rs`) calls it.
    pub fn vector_baskets(self, _vector: bool) -> ServiceBuilder {
        self
    }

    /// The sans-io [`OracleService`] this builder describes — the
    /// simulator path, and the escape hatch for custom transports.
    ///
    /// # Panics
    ///
    /// Panics on an invalid pipeline shape (zero epochs/assets/depth or
    /// `window < depth`) or `me` out of range.
    pub fn build_service(self, source: PriceSource) -> OracleService {
        let EpochConfig { epochs, assets, depth, window } = self.shape;
        let shape = EpochConfig::new(epochs, assets, depth, window);
        OracleService::from_parts(self.cfg, self.me, shape, self.flush, source)
    }

    /// [`build_service`](ServiceBuilder::build_service) under another
    /// name, kept only because the frozen wall-clock benchmark
    /// (`fig_e2e/src/sut.rs`) calls it.
    pub fn build_vector_service(self, source: PriceSource) -> OracleService {
        self.build_service(source)
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
        let assets = self.shape.assets;
        let api_bind = self.api_bind;
        let keychain = Keychain::derive(seed, self.me, n);
        let signer = QuorumSigner::new(seed, t, epsilon);
        let opts = self.opts.clone();

        let feed = Arc::new(FeedState::new(assets, HISTORY_DEPTH));
        let hub = Arc::new(SubscriberHub::new(assets, SUBSCRIBER_CAPACITY));

        let node = self.build_service(source).into_node();
        let (service, mut tail) = run_epoch_service(node, keychain, addrs, opts).await?;
        let publisher = {
            let (feed, hub) = (feed.clone(), hub.clone());
            tokio::spawn(async move {
                while let Some(event) = tail.recv().await {
                    // An epoch's instance outputs, concatenated, are its
                    // assets in order, whichever instances the basket
                    // mapped onto.
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
