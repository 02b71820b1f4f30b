//! The adapter: the ONE file that names the system under test.
//!
//! Everything the harness imports from the `delphi-*` crates is imported
//! here, so this file is the whole surface a later refactor has to keep
//! (at worst as thin shims) for the benchmark to keep building:
//!
//! - `delphi_api::ServiceBuilder` (`serve`, `build_service`,
//!   `build_vector_service`) → `OracleHandle` (`hub`, `feed`, `stats`,
//!   `api_addr`, `finish`);
//! - the `Protocol` trait on the boxed sans-io service;
//! - a benchmark-owned `PriceSource` closure;
//! - for probes only: `Keychain`/`ChannelKey::tag`, `encode_epoch_frame`/
//!   `decode_inbound_frame_ref`, `decode_epoch_batch_ref`,
//!   `DelphiBundleRef`/`BasketBundleRef::parse`, `FeedState`,
//!   `SubscriberHub`, `QuorumSigner::attest`, `ApiServer::bind`,
//!   `attestation_from_hex` + `Verifier`, and `Simulation` +
//!   `Topology::lan` for the prediction the simulator is calibrated to.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use delphi_api::{
    attestation_from_hex, ApiContext, ApiServer, FeedState, FeedUpdate, QuorumSigner,
    ServiceBuilder, SubscriberHub,
};
use delphi_core::{BasketBundleRef, DelphiBundleRef, DelphiConfig, PriceSource};
use delphi_crypto::signing::Verifier;
use delphi_crypto::Keychain;
use delphi_net::frame::{decode_inbound_frame_ref, encode_epoch_frame};
use delphi_primitives::epoch::decode_epoch_batch_ref;
use delphi_primitives::{AgreementId, FlushPolicy};
use delphi_sim::{Simulation, Topology};
use delphi_workloads::{EpochFeed, MultiAssetConfig};

pub use delphi_api::{OracleHandle, RecvError, Subscription};
pub use delphi_net::{NetStats, ServiceStats};
pub use delphi_primitives::{
    Envelope, EpochEvent, EpochId, EpochOutcome, EpochStats, InstanceId, NodeId, Protocol,
    Recipient,
};

/// A boxed sans-io oracle node, as the simulator and the `direct` router
/// drive it.
pub type SansIoNode = Box<dyn Protocol<Output = Vec<EpochEvent<f64>>>>;

/// Deployment key material shared by every node of a benchmark cluster.
pub const DEPLOY_SEED: &[u8] = b"fig-e2e-deployment";

/// The paper's oracle parameters (§VI): space 0–100 000, ρ0 = 2, Δ = 2000,
/// ε = 2.
pub const RHO0: f64 = 2.0;
pub const EPSILON: f64 = 2.0;

fn paper_config(n: usize) -> Result<DelphiConfig, String> {
    DelphiConfig::builder(n)
        .space(0.0, 100_000.0)
        .rho0(RHO0)
        .delta_max(2000.0)
        .epsilon(EPSILON)
        .build()
        .map_err(|e| format!("paper oracle parameters rejected: {e}"))
}

/// Fault threshold `t` for `n` nodes, as the protocol config derives it.
pub fn fault_threshold(n: usize) -> Result<usize, String> {
    paper_config(n).map(|c| c.t())
}

/// Every epoch's inputs, generated from the seed before timing starts.
/// The program under test sees only these values.
#[derive(Debug)]
pub struct Inputs {
    values: Vec<f64>,
    n: usize,
    basket: usize,
}

impl Inputs {
    pub fn generate(seed: u64, n: usize, basket: u16, epochs: u32) -> Inputs {
        let basket = usize::from(basket);
        let feed = EpochFeed::new(MultiAssetConfig::synthetic(basket), seed);
        let mut values = Vec::with_capacity(epochs as usize * basket * n);
        for epoch in 0..epochs {
            for asset in feed.inputs(epoch, n) {
                values.extend_from_slice(&asset);
            }
        }
        Inputs { values, n, basket }
    }

    /// The inputs of every node for one `(epoch, asset)`, indexed by node;
    /// empty when out of range.
    pub fn row(&self, epoch: u32, asset: usize) -> &[f64] {
        let start = (epoch as usize * self.basket + asset) * self.n;
        if asset < self.basket {
            self.values.get(start..start + self.n).unwrap_or_default()
        } else {
            &[]
        }
    }
}

/// Node `node`'s price source over pre-generated inputs. `on_spawn(epoch)`
/// runs at the first call for each epoch — the moment the node's pipeline
/// spawns it, which is where the harness starts that epoch's clock.
pub fn price_source(
    inputs: Arc<Inputs>,
    node: usize,
    mut on_spawn: impl FnMut(u32) + Send + 'static,
) -> PriceSource {
    let mut last_epoch = None;
    Box::new(move |epoch, asset| {
        if last_epoch != Some(epoch.0) {
            last_epoch = Some(epoch.0);
            on_spawn(epoch.0);
        }
        // Out of range means the harness sized the pool wrong; a
        // mid-space value keeps the protocol well-defined and the
        // correctness gate reports the epoch.
        inputs.row(epoch.0, asset.index()).get(node).copied().unwrap_or(50_000.0)
    })
}

/// The protocol-visible shape of one stream.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub n: usize,
    pub basket: u16,
    /// One vector instance per epoch instead of `basket` scalar ones.
    pub vector: bool,
    pub depth: usize,
    /// Adaptive flush (size triggers + 1 ms timer) instead of per-step.
    pub adaptive: bool,
    pub epochs: u32,
}

impl Shape {
    fn builder(&self, node: usize) -> Result<ServiceBuilder, String> {
        let flush = if self.adaptive { FlushPolicy::adaptive() } else { FlushPolicy::PerStep };
        Ok(ServiceBuilder::new(paper_config(self.n)?, NodeId(node as u16))
            .epochs(self.epochs)
            .assets(self.basket)
            .pipeline_depth(self.depth)
            .window(self.depth + 4)
            .flush(flush)
            .recv_shards(1)
            .send_shards(1)
            .vector_baskets(self.vector))
    }

    /// The boxed sans-io service for `node`.
    pub fn sans_io(&self, node: usize, source: PriceSource) -> Result<SansIoNode, String> {
        let builder = self.builder(node)?;
        Ok(if self.vector {
            builder.build_vector_service(source).boxed()
        } else {
            builder.build_service(source).boxed()
        })
    }

    /// Starts the full served node over TCP: HMAC frames, publisher,
    /// attestations, and the HTTP server when `api` is set.
    pub async fn serve(
        &self,
        node: usize,
        addrs: Vec<SocketAddr>,
        api: bool,
        source: PriceSource,
    ) -> Result<OracleHandle, String> {
        let mut builder = self
            .builder(node)?
            // Far beyond any run: the harness, not the runner, bounds time.
            .deadline(Duration::from_secs(175))
            .linger(Duration::from_millis(100));
        if api {
            builder = builder.api_bind(SocketAddr::from(([127, 0, 0, 1], 0)));
        }
        builder.serve(DEPLOY_SEED, addrs, source).await.map_err(|e| format!("node {node}: {e}"))
    }
}

/// Destination nodes of one envelope sent by `from` in an `n`-node mesh.
pub fn destinations(env: &Envelope, from: usize, n: usize) -> Vec<usize> {
    match env.to {
        Recipient::All => (0..n).filter(|&d| d != from).collect(),
        Recipient::One(d) if d.index() < n => vec![d.index()],
        Recipient::One(_) => Vec::new(),
    }
}

/// The epoch of the first entry in an epoch-batch payload (the trace id a
/// router span belongs to) and the batch's entry count.
pub fn batch_head(payload: &[u8]) -> Option<(u32, usize)> {
    let entries = decode_epoch_batch_ref(payload).ok()?;
    let (first, _) = entries.iter().next()?;
    Some((first.epoch.0, entries.len()))
}

/// Verifies a served attestation offline, with only the deployment seed:
/// the hex must decode, bind to `(epoch, asset)`, carry `t + 1` valid
/// signatures, and attest a value within ε of the served one.
pub fn attestation_verifies(
    hex: &str,
    epoch: u32,
    asset: u16,
    value: f64,
    n: usize,
    t: usize,
) -> bool {
    let Some(att) = attestation_from_hex(hex) else { return false };
    att.epoch == EpochId(epoch)
        && att.asset == InstanceId(asset)
        && (att.value() - value).abs() <= EPSILON
        && att.verify(&Verifier::new(DEPLOY_SEED), n, t)
}

// ---------------------------------------------------------------------
// Probes: each replays captured or synthetic work through ONE layer's
// public function and returns its unit cost. They run in the traced pass
// only, after the cluster is gone, on an otherwise idle process.
// ---------------------------------------------------------------------

/// Median over `reps` timed repetitions of `body`, which performs
/// `ops` operations per call; nanoseconds per operation.
fn time_ns_per_op(reps: usize, ops: usize, mut body: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        body();
        samples.push(start.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    crate::stats::median(&samples).unwrap_or(0.0)
}

/// What the probes learn from envelopes captured on a router replay.
#[derive(Debug, Default)]
pub struct CodecCosts {
    pub hmac_ns_per_byte: f64,
    pub tag_us_per_frame: f64,
    pub encode_us_per_frame: f64,
    pub decode_us_per_frame: f64,
    pub batch_decode_ns_per_entry: f64,
    pub bundle_parse_ns: f64,
    pub bundle_bytes_p50: f64,
    /// Frame bytes that are not payload: fixed per frame, and per entry.
    pub frame_overhead_bytes: f64,
    pub entry_overhead_bytes: f64,
}

/// Replays captured epoch-batch payloads through the frame codec, the
/// MAC, the batch decoder and the bundle parser. The captured entries are
/// regrouped `entries_per_frame` to a frame, the size the measured run
/// put on the wire, so per-frame costs are those of its frames.
pub fn codec_costs(
    batches: &[Bytes],
    n: usize,
    vector: bool,
    entries_per_frame: usize,
) -> CodecCosts {
    let sender = Keychain::derive(DEPLOY_SEED, NodeId(0), n);
    let receiver = Keychain::derive(DEPLOY_SEED, NodeId(1), n);
    let channel = sender.channel(NodeId(1));
    let mut costs = CodecCosts::default();

    let big = vec![0xA5u8; 64 * 1024];
    costs.hmac_ns_per_byte = time_ns_per_op(15, big.len(), || {
        std::hint::black_box(channel.tag(std::hint::black_box(&big)));
    });
    if batches.is_empty() {
        return costs;
    }

    let entries: Vec<(AgreementId, Bytes)> = batches
        .iter()
        .filter_map(|b| decode_epoch_batch_ref(b).ok())
        .flat_map(|entries| entries.to_owned_entries())
        .collect();
    let owned: Vec<Vec<(AgreementId, Bytes)>> =
        entries.chunks(entries_per_frame.max(1)).map(<[_]>::to_vec).collect();

    // Overheads from the codec itself, not from knowledge of its layout:
    // a one-entry and a two-entry frame around payloads of known size.
    let one = (AgreementId::new(EpochId(0), InstanceId(0)), Bytes::from(vec![0u8; 8]));
    let len_1 = encode_epoch_frame(&sender, NodeId(1), std::slice::from_ref(&one)).len() as f64;
    let len_2 = encode_epoch_frame(&sender, NodeId(1), &[one.clone(), one]).len() as f64;
    costs.entry_overhead_bytes = len_2 - len_1 - 8.0;
    costs.frame_overhead_bytes = len_1 - 8.0 - costs.entry_overhead_bytes;

    let frames: Vec<Bytes> =
        owned.iter().map(|entries| encode_epoch_frame(&sender, NodeId(1), entries)).collect();
    // A frame on the wire is `[u32 len][body]`; readers verify the body.
    let bodies: Vec<&[u8]> = frames.iter().filter_map(|f| f.get(4..)).collect();

    costs.tag_us_per_frame = time_ns_per_op(9, bodies.len(), || {
        for body in &bodies {
            std::hint::black_box(channel.tag(body));
        }
    }) / 1000.0;
    costs.encode_us_per_frame = time_ns_per_op(9, owned.len(), || {
        for entries in &owned {
            std::hint::black_box(encode_epoch_frame(&sender, NodeId(1), entries));
        }
    }) / 1000.0;
    costs.decode_us_per_frame = time_ns_per_op(9, bodies.len(), || {
        for body in &bodies {
            if let Ok((_, entries)) = decode_inbound_frame_ref(&receiver, body) {
                std::hint::black_box(entries.iter().count());
            }
        }
    }) / 1000.0;

    let entry_count: usize = owned.iter().map(Vec::len).sum();
    let entry_count = entry_count.max(1);
    costs.batch_decode_ns_per_entry = time_ns_per_op(9, entry_count, || {
        for batch in batches {
            if let Ok(entries) = decode_epoch_batch_ref(batch) {
                std::hint::black_box(entries.iter().count());
            }
        }
    });

    let bundles: Vec<&Bytes> = owned.iter().flatten().map(|(_, payload)| payload).collect();
    let parses = |payload: &[u8]| {
        if vector {
            BasketBundleRef::parse(payload).map(|b| b.len()).ok()
        } else {
            DelphiBundleRef::parse(payload).map(|b| b.len()).ok()
        }
    };
    if bundles.iter().all(|b| parses(b).is_some()) {
        costs.bundle_parse_ns = time_ns_per_op(9, bundles.len(), || {
            for bundle in &bundles {
                std::hint::black_box(parses(bundle));
            }
        });
    }
    let mut sizes: Vec<f64> = bundles.iter().map(|b| b.len() as f64).collect();
    crate::stats::sort(&mut sizes);
    costs.bundle_bytes_p50 = crate::stats::percentile(&sizes, 50.0).unwrap_or(0.0);
    costs
}

/// Unit costs of the read-side layer with no protocol running.
#[derive(Debug, Default)]
pub struct ApiCosts {
    pub attest_us_per_slot: f64,
    pub publish_us: f64,
    pub latest_read_ns: f64,
    pub hub_broadcast_us: f64,
    pub http_get_idle_us: f64,
}

pub fn api_costs(n: usize, basket: u16) -> Result<ApiCosts, String> {
    const SLOTS: u32 = 2000;
    let t = fault_threshold(n)?;
    let signer = QuorumSigner::new(DEPLOY_SEED, t, EPSILON);
    let mut costs = ApiCosts {
        attest_us_per_slot: time_ns_per_op(7, SLOTS as usize, || {
            for e in 0..SLOTS {
                std::hint::black_box(signer.attest(EpochId(e), InstanceId(0), 40_000.0));
            }
        }) / 1000.0,
        ..ApiCosts::default()
    };

    let update = |epoch: u32, asset: u16| FeedUpdate {
        epoch: EpochId(epoch),
        asset: InstanceId(asset),
        value: 40_000.0 + f64::from(epoch),
        attestation: Some(signer.attest(EpochId(epoch), InstanceId(asset), 40_000.0)),
    };
    let updates: Vec<FeedUpdate> = (0..SLOTS).map(|e| update(e, 0)).collect();
    let feed = FeedState::new(basket, 64);
    let mut published = Vec::with_capacity(updates.len());
    costs.publish_us = time_ns_per_op(1, updates.len(), || {
        for u in updates.iter().cloned() {
            published.push(feed.publish(u));
        }
    }) / 1000.0;
    costs.latest_read_ns = time_ns_per_op(9, 100_000, || {
        for _ in 0..100_000 {
            std::hint::black_box(feed.latest_value(InstanceId(0)));
        }
    });

    // One live subscriber draining on its own thread, as a served node has.
    let hub = SubscriberHub::new(basket, 1 << 20);
    let sub = hub.subscribe(InstanceId(0)).ok_or("hub rejected asset 0")?;
    let drain = std::thread::spawn(move || while sub.recv().is_ok() {});
    costs.hub_broadcast_us = time_ns_per_op(1, published.len(), || {
        for u in &published {
            hub.broadcast(u);
        }
    }) / 1000.0;
    hub.close_all();
    drain.join().map_err(|_| "hub drain thread panicked")?;

    costs.http_get_idle_us = http_get_idle_us(Arc::new(feed), basket, n, t)?;
    Ok(costs)
}

/// Median GET latency over one keep-alive connection to a standalone
/// `ApiServer` with nothing else running.
fn http_get_idle_us(feed: Arc<FeedState>, basket: u16, n: usize, t: usize) -> Result<f64, String> {
    let ctx = Arc::new(ApiContext {
        feed,
        hub: Arc::new(SubscriberHub::new(basket, 32)),
        stats: None,
        quorum: Some((n, t)),
    });
    let rt = tokio::runtime::Runtime::new().map_err(|e| e.to_string())?;
    let server = rt
        .block_on(ApiServer::bind(SocketAddr::from(([127, 0, 0, 1], 0)), ctx))
        .map_err(|e| format!("standalone api bind: {e}"))?;
    let mut client = crate::reader::HttpClient::connect(server.local_addr())?;
    let mut samples = Vec::new();
    for i in 0..600 {
        let path = if i % 2 == 0 { "/v0/latest/0" } else { "/v0/attestation/0" };
        let start = Instant::now();
        let (status, _) = client.get(path)?;
        if status != 200 {
            return Err(format!("standalone api answered {status} for {path}"));
        }
        if i >= 100 {
            samples.push(start.elapsed().as_nanos() as f64 / 1000.0);
        }
    }
    server.shutdown();
    Ok(crate::stats::median(&samples).unwrap_or(0.0))
}

/// Per-hop cost of the vendored thread-per-task runtime, which is part of
/// the system under test.
#[derive(Debug, Default)]
pub struct RuntimeCosts {
    /// Median latency of one hop: send/write → the peer task runs.
    pub mpsc_hop_us: f64,
    pub tcp_hop_us: f64,
    /// Process CPU one hop burns (wake, switch, park), which is what the
    /// budget charges; latency also counts the time a core sleeps.
    pub mpsc_hop_cpu_us: f64,
    pub tcp_hop_cpu_us: f64,
}

pub fn runtime_costs() -> Result<RuntimeCosts, String> {
    use tokio::io::{AsyncReadExt, AsyncWriteExt};
    // Enough hops that their CPU spans dozens of 10 ms accounting ticks.
    const ROUNDS: usize = 20_000;
    const WARM: usize = 500;
    let cpu_now = || crate::procstat::cpu_seconds().unwrap_or(0.0);
    let per_hop_us = |cpu_s: f64| cpu_s * 1e6 / (2 * ROUNDS) as f64;
    let rt = tokio::runtime::Runtime::new().map_err(|e| e.to_string())?;
    rt.block_on(async {
        // Bounded channel ping-pong between two tasks: one round is two
        // hops (send → peer task wakes → send back → this task wakes).
        let (ping_tx, mut ping_rx) = tokio::sync::mpsc::channel::<u64>(8);
        let (pong_tx, mut pong_rx) = tokio::sync::mpsc::channel::<u64>(8);
        let echo = tokio::spawn(async move {
            while let Some(v) = ping_rx.recv().await {
                if pong_tx.send(v).await.is_err() {
                    break;
                }
            }
        });
        let mut mpsc = Vec::with_capacity(ROUNDS);
        let cpu_before = cpu_now();
        for i in 0..ROUNDS {
            let start = Instant::now();
            ping_tx.send(i as u64).await.map_err(|_| "mpsc echo task gone")?;
            pong_rx.recv().await.ok_or("mpsc echo task gone")?;
            if i >= WARM {
                mpsc.push(start.elapsed().as_nanos() as f64 / 2000.0);
            }
        }
        let mpsc_hop_cpu_us = per_hop_us(cpu_now() - cpu_before);
        drop(ping_tx);
        let _ = echo.await;

        // 1 KiB frame over loopback: write → the peer task's `read_exact`
        // wakes → it writes the frame back. One round is two hops.
        let listener = tokio::net::TcpListener::bind("127.0.0.1:0").await.map_err(io_err)?;
        let addr = listener.local_addr().map_err(io_err)?;
        let echo = tokio::spawn(async move {
            let Ok((mut stream, _)) = listener.accept().await else { return };
            let _ = stream.set_nodelay(true);
            let mut frame = [0u8; 1024];
            while stream.read_exact(&mut frame).await.is_ok() {
                if stream.write_all(&frame).await.is_err() {
                    break;
                }
            }
        });
        let mut stream = tokio::net::TcpStream::connect(addr).await.map_err(io_err)?;
        stream.set_nodelay(true).map_err(io_err)?;
        let mut frame = [0x5Au8; 1024];
        let mut tcp = Vec::with_capacity(ROUNDS);
        let cpu_before = cpu_now();
        for i in 0..ROUNDS {
            let start = Instant::now();
            stream.write_all(&frame).await.map_err(io_err)?;
            stream.read_exact(&mut frame).await.map_err(io_err)?;
            if i >= WARM {
                tcp.push(start.elapsed().as_nanos() as f64 / 2000.0);
            }
        }
        let tcp_hop_cpu_us = per_hop_us(cpu_now() - cpu_before);
        drop(stream);
        let _ = echo.await;
        Ok(RuntimeCosts {
            mpsc_hop_us: crate::stats::median(&mpsc).unwrap_or(0.0),
            tcp_hop_us: crate::stats::median(&tcp).unwrap_or(0.0),
            mpsc_hop_cpu_us,
            tcp_hop_cpu_us,
        })
    })
}

fn io_err(e: std::io::Error) -> String {
    format!("runtime probe io: {e}")
}

/// What the simulator predicts for a stream shape on its LAN topology.
#[derive(Debug, Default)]
pub struct SimPrediction {
    /// Wall-clock the simulator itself burns per simulated agreement.
    pub wall_ms_per_agreement: f64,
    /// Agreements per simulated second.
    pub agreements_per_s: f64,
}

pub fn simulate(shape: Shape, inputs: &Arc<Inputs>) -> Result<SimPrediction, String> {
    let mut nodes = Vec::with_capacity(shape.n);
    for node in 0..shape.n {
        nodes.push(shape.sans_io(node, price_source(inputs.clone(), node, |_| {}))?);
    }
    let mut sim = Simulation::new(Topology::lan(shape.n)).seed(1);
    if shape.adaptive {
        if let FlushPolicy::Adaptive { max_delay, .. } = FlushPolicy::adaptive() {
            sim = sim.tick_interval_ns(max_delay.as_nanos().max(1) as u64);
        }
    }
    let start = Instant::now();
    let report = sim.run(nodes);
    let wall = start.elapsed().as_secs_f64();
    let agreements = f64::from(shape.epochs) * f64::from(shape.basket);
    match report.completion_ns() {
        Some(ns) if report.all_honest_finished() && ns > 0 => Ok(SimPrediction {
            wall_ms_per_agreement: wall * 1000.0 / agreements,
            agreements_per_s: agreements / (ns as f64 / 1e9),
        }),
        _ => Err(format!("simulated stream stalled: {:?}", report.stop)),
    }
}
