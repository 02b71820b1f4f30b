//! The `tcp` driver: an in-process cluster of full served nodes over real
//! loopback sockets — HMAC frames, publisher, attestations, and on
//! `tcp-serve-k4` the HTTP server with its readers.
//!
//! The loop is closed: each node keeps `depth` epochs in flight and
//! spawns the next when one resolves. An epoch's clock starts at the
//! node's first price-source call for it and stops when its last asset
//! arrives from that node's `SubscriberHub`, which is where a subscriber
//! of the served node would see it.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::lock;
use crate::procstat;
use crate::reader::{self, ReaderConfig, ReaderLog, StreamLog};
use crate::spec::Workload;
use crate::sut::{
    self, EpochEvent, EpochId, EpochOutcome, EpochStats, Inputs, InstanceId, NetStats, RecvError,
    ServiceStats, Subscription,
};

/// Polling readers on `tcp-serve-k4`, and each one's request rate.
const READERS: usize = 2;
const READER_HZ: u32 = 100;

/// Process and transport counters at one edge of the steady window.
#[derive(Clone, Copy, Debug, Default)]
pub struct Edge {
    pub cpu_s: f64,
    /// Summed over live nodes.
    pub net: NetTotals,
}

/// The transport counters the metrics use, summed over live nodes.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetTotals {
    pub sent_frames: u64,
    pub sent_bytes: u64,
    pub sent_entries: u64,
    pub recv_entries: u64,
    pub dropped_frames: u64,
    pub dropped_egress: u64,
    pub late_entries: u64,
    pub mac_ops: u64,
    pub buffer_reuses: u64,
}

impl NetTotals {
    pub fn add(&mut self, s: &NetStats) {
        self.sent_frames += s.sent_frames;
        self.sent_bytes += s.sent_bytes;
        self.sent_entries += s.sent_entries;
        self.recv_entries += s.recv_entries;
        self.dropped_frames += s.dropped_frames;
        self.dropped_egress += s.dropped_egress;
        self.late_entries += s.late_entries;
        self.mac_ops += s.mac_ops;
        self.buffer_reuses += s.buffer_reuses;
    }
}

/// One 10 Hz observation of the running cluster (traced pass only).
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub t_ns: u64,
    pub threads: f64,
    pub net: NetTotals,
    pub resident_epochs: usize,
}

impl Sample {
    pub fn to_json(self) -> Json {
        let n = |v: u64| Json::Num(v as f64);
        Json::obj([
            ("sample_ns", n(self.t_ns)),
            ("threads", Json::Num(self.threads)),
            ("sent_frames", n(self.net.sent_frames)),
            ("sent_bytes", n(self.net.sent_bytes)),
            ("recv_entries", n(self.net.recv_entries)),
            ("dropped_egress", n(self.net.dropped_egress)),
            ("mac_ops", n(self.net.mac_ops)),
            ("resident_epochs", n(self.resident_epochs as u64)),
        ])
    }
}

/// What one node's subscriber saw.
#[derive(Debug, Default)]
struct HubLog {
    events: Vec<EpochEvent<f64>>,
    /// When each epoch's last asset arrived, ns since the origin.
    decided_ns: Vec<u64>,
    /// When each asset arrived, `epoch × basket + asset` (traced pass).
    asset_ns: Vec<u64>,
    kicked: u64,
}

#[derive(Debug, Default)]
pub struct TcpRun {
    pub epochs: u32,
    pub live: Vec<usize>,
    /// Set-up: input generation → every live node has spawned epoch 0.
    pub setup_s: f64,
    /// `[slot][epoch]`, `slot` indexing `live`; ns since the origin.
    pub spawn_ns: Vec<Vec<u64>>,
    pub decided_ns: Vec<Vec<u64>>,
    pub asset_ns: Vec<Vec<u64>>,
    /// When the last live node decided each epoch.
    pub all_done_ns: Vec<u64>,
    /// The streams the hubs delivered and the ones `finish()` returned.
    pub hub_streams: Vec<Vec<EpochEvent<f64>>>,
    pub finish_streams: Vec<Vec<EpochEvent<f64>>>,
    pub epoch_stats: Vec<EpochStats>,
    pub net_total: NetTotals,
    /// Counters when `bounds[i]` epochs were decided everywhere.
    pub edges: Vec<Option<Edge>>,
    pub kicked: u64,
    /// Last decision → every `finish()` returned (linger + drain).
    pub teardown_s: f64,
    pub readers: Vec<ReaderLog>,
    pub stream: Option<StreamLog>,
    pub samples: Vec<Sample>,
}

/// Cross-thread progress: who decided what, and the window-edge samples
/// the last decider of an edge epoch takes.
struct Progress {
    origin: Instant,
    remaining: Vec<AtomicU32>,
    all_done_ns: Vec<AtomicU64>,
    /// Ascending epoch counts at which the last decider samples an edge.
    bounds: Vec<u32>,
    edges: Mutex<Vec<Option<Edge>>>,
    stats: Mutex<Vec<ServiceStats>>,
    /// Set when the last epoch is decided everywhere: readers stop.
    stop: AtomicBool,
}

impl Progress {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn net_totals(&self) -> NetTotals {
        let mut total = NetTotals::default();
        for s in lock(&self.stats).iter() {
            total.add(&s.net_snapshot());
        }
        total
    }

    fn epoch_done(&self, epoch: u32, now_ns: u64) {
        let Some(left) = self.remaining.get(epoch as usize) else { return };
        if left.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        // This caller is the last live node to decide `epoch`.
        if let Some(done) = self.all_done_ns.get(epoch as usize) {
            done.store(now_ns.max(1), Ordering::Release);
        }
        if let Ok(i) = self.bounds.binary_search(&(epoch + 1)) {
            let edge =
                Edge { cpu_s: procstat::cpu_seconds().unwrap_or(0.0), net: self.net_totals() };
            if let Some(slot) = lock(&self.edges).get_mut(i) {
                *slot = Some(edge);
            }
        }
        if epoch as usize + 1 == self.remaining.len() {
            self.stop.store(true, Ordering::Release);
        }
    }
}

/// Listen addresses on free loopback ports. The listeners stay open until
/// every port is collected, so the OS cannot hand one out twice.
fn free_addrs(n: usize) -> Result<Vec<SocketAddr>, String> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("no free loopback port: {e}"))?;
    listeners.iter().map(|l| l.local_addr().map_err(|e| e.to_string())).collect()
}

/// One node's subscriber: takes each epoch's assets in publication order.
fn collect(subs: Vec<Subscription>, epochs: u32, traced: bool, progress: &Progress) -> HubLog {
    let mut log = HubLog::default();
    for epoch in 0..epochs {
        let mut values = Vec::with_capacity(subs.len());
        let mut seen_epoch = EpochId(epoch);
        for sub in &subs {
            match sub.recv() {
                Ok(update) => {
                    // A wrong epoch here is an order violation; the event
                    // keeps the epoch it claims and the gate reports it.
                    seen_epoch = update.epoch;
                    values.push(update.value);
                }
                Err(RecvError::Lagged) => {
                    log.kicked += 1;
                    return log;
                }
                Err(RecvError::Closed | RecvError::Timeout) => return log,
            }
            if traced {
                log.asset_ns.push(progress.now_ns());
            }
        }
        let now = progress.now_ns();
        log.decided_ns.push(now);
        log.events.push(EpochEvent { epoch: seen_epoch, outcome: EpochOutcome::Agreed(values) });
        progress.epoch_done(epoch, now);
    }
    log
}

fn sample(progress: &Progress) -> Sample {
    let stats = lock(&progress.stats);
    let mut net = NetTotals::default();
    let mut resident = 0;
    for s in stats.iter() {
        net.add(&s.net_snapshot());
        resident = resident.max(s.epoch_snapshot().peak_resident);
    }
    Sample {
        t_ns: progress.now_ns(),
        threads: procstat::threads().unwrap_or(0.0),
        net,
        resident_epochs: resident,
    }
}

type Readers = (Vec<JoinHandle<ReaderLog>>, JoinHandle<StreamLog>);

/// Starts the polling readers and the subscribe-stream reader of
/// `tcp-serve-k4`, once there is a value to read. They run until the last
/// epoch is decided everywhere.
fn spawn_readers(
    api: SocketAddr,
    w: &Workload,
    seed: u64,
    t: usize,
    traced: bool,
    progress: &Arc<Progress>,
    started: Instant,
) -> Readers {
    let first_value =
        || progress.all_done_ns.first().is_some_and(|d| d.load(Ordering::Acquire) != 0);
    while !first_value() && started.elapsed() < Duration::from_secs(60) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let period = Duration::from_secs(1) / READER_HZ;
    // Far more requests than any run needs; `stop` ends the reader.
    let requests = 170 * READER_HZ as usize;
    let pollers = (0..READERS)
        .map(|r| {
            let plan = reader::reader_plan(seed, r, w.basket, requests);
            let origin = progress.origin;
            let cfg = ReaderConfig { api, n: w.n, t, period, origin, keep_spans: traced };
            let p = progress.clone();
            // Stagger the readers evenly across one period.
            let stagger = period * r as u32 / READERS as u32;
            std::thread::spawn(move || {
                std::thread::sleep(stagger);
                reader::run_reader(&cfg, &plan, &p.stop)
            })
        })
        .collect();
    let p = progress.clone();
    (pollers, std::thread::spawn(move || reader::run_stream_reader(api, 0, &p.stop)))
}

/// How a cluster run ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Timed run: tear the cluster down through `finish()`.
    Timed,
    /// Timed run with per-asset marks, request spans and the sampler.
    Traced,
    /// Calibration probe: return at the last decision and leave the
    /// cluster to die with the process.
    Probe,
    /// Set-up probe: return as soon as set-up is over.
    SetupProbe,
}

/// Runs one stream of `epochs` epochs on a fresh cluster. `started` is
/// when set-up began; the process and transport counters are sampled each
/// time `bounds[i]` epochs (ascending, each at least 1) are decided
/// everywhere.
pub fn run(
    w: &Workload,
    seed: u64,
    epochs: u32,
    bounds: &[u32],
    inputs: &Arc<Inputs>,
    started: Instant,
    mode: Mode,
) -> Result<TcpRun, String> {
    let rt = tokio::runtime::Runtime::new().map_err(|e| e.to_string())?;
    rt.block_on(run_async(w, seed, epochs, bounds, inputs, started, mode))
}

async fn run_async(
    w: &Workload,
    seed: u64,
    epochs: u32,
    bounds: &[u32],
    inputs: &Arc<Inputs>,
    started: Instant,
    mode: Mode,
) -> Result<TcpRun, String> {
    let traced = mode == Mode::Traced;
    let shape = w.shape(epochs);
    let live = w.live_nodes();
    let t = sut::fault_threshold(w.n)?;
    let addrs = free_addrs(w.n)?;
    let progress = Arc::new(Progress {
        origin: Instant::now(),
        remaining: (0..epochs).map(|_| AtomicU32::new(live.len() as u32)).collect(),
        all_done_ns: (0..epochs).map(|_| AtomicU64::new(0)).collect(),
        bounds: bounds.to_vec(),
        edges: Mutex::new(vec![None; bounds.len()]),
        stats: Mutex::new(Vec::new()),
        stop: AtomicBool::new(false),
    });
    let spawn_ns: Arc<Vec<Vec<AtomicU64>>> =
        Arc::new(live.iter().map(|_| (0..epochs).map(|_| AtomicU64::new(0)).collect()).collect());

    let mut handles = Vec::with_capacity(live.len());
    let mut collectors = Vec::with_capacity(live.len());
    let mut api = None;
    for (slot, &node) in live.iter().enumerate() {
        let marks = spawn_ns.clone();
        let clock = progress.clone();
        let source = sut::price_source(inputs.clone(), node, move |epoch| {
            if let Some(mark) = marks.get(slot).and_then(|m| m.get(epoch as usize)) {
                mark.store(clock.now_ns().max(1), Ordering::Release);
            }
        });
        let handle = shape.serve(node, addrs.clone(), w.serve && node == 0, source).await?;
        // Subscribe before the next node starts: no epoch can resolve
        // until a quorum of nodes is up, and a subscriber that still
        // missed epoch 0 fails the gate's order check.
        let hub = handle.hub();
        let subs: Vec<Subscription> = (0..w.basket)
            .map(|a| hub.subscribe(InstanceId(a)).ok_or("hub rejected a basket asset"))
            .collect::<Result<_, _>>()?;
        let clock = progress.clone();
        collectors.push(std::thread::spawn(move || collect(subs, epochs, traced, &clock)));
        lock(&progress.stats).push(handle.stats());
        if node == 0 {
            api = handle.api_addr();
        }
        handles.push(handle);
    }

    // Set-up ends when every live node is constructed, bound, started
    // and has spawned epoch 0. Dialling is left out on purpose: whether a
    // first dial meets a listener or the 50 ms redial is a start-order
    // race, and it made a later end point bimodal.
    let spawned =
        || spawn_ns.iter().all(|m| m.first().is_some_and(|a| a.load(Ordering::Acquire) != 0));
    while !spawned() {
        if started.elapsed() > Duration::from_secs(60) {
            return Err("set-up: a node did not spawn epoch 0 within 60 s".into());
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    let setup_s = started.elapsed().as_secs_f64();
    // What a run knows before (or without) its teardown.
    let so_far = |progress: &Progress| TcpRun {
        epochs,
        live: live.clone(),
        setup_s,
        spawn_ns: spawn_ns
            .iter()
            .map(|m| m.iter().map(|a| a.load(Ordering::Acquire)).collect())
            .collect(),
        all_done_ns: progress.all_done_ns.iter().map(|a| a.load(Ordering::Acquire)).collect(),
        ..TcpRun::default()
    };
    // A probe's caller exits the process: the nodes are never awaited and
    // the subscriber threads never joined.
    if mode == Mode::SetupProbe {
        return Ok(so_far(&progress));
    }

    let readers = api.map(|api| spawn_readers(api, w, seed, t, traced, &progress, started));

    let sampler = traced.then(|| {
        let p = progress.clone();
        std::thread::spawn(move || {
            let mut samples = Vec::new();
            while !p.stop.load(Ordering::Acquire) {
                samples.push(sample(&p));
                std::thread::sleep(Duration::from_millis(100));
            }
            samples.push(sample(&p));
            samples
        })
    });

    let mut finish_streams = Vec::with_capacity(live.len());
    let mut epoch_stats = Vec::with_capacity(live.len());
    let mut net_total = NetTotals::default();
    let mut first_error = None;
    if mode == Mode::Probe {
        while !progress.stop.load(Ordering::Acquire) {
            if started.elapsed() > Duration::from_secs(120) {
                return Err("probe stream did not finish within 120 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        return Ok(so_far(&progress));
    }
    for (handle, node) in handles.into_iter().zip(&live) {
        match handle.finish().await {
            Ok((events, epoch, net)) => {
                finish_streams.push(events);
                epoch_stats.push(epoch);
                net_total.add(&net);
            }
            Err(e) => {
                first_error.get_or_insert(format!("node {node}: {e}"));
            }
        }
    }
    let torn_down_ns = progress.now_ns();
    // A failed run may never reach the last epoch; end the side threads.
    progress.stop.store(true, Ordering::Release);
    if let Some(e) = first_error {
        return Err(e);
    }

    let mut run = so_far(&progress);
    run.finish_streams = finish_streams;
    run.epoch_stats = epoch_stats;
    run.net_total = net_total;
    for collector in collectors {
        let log = collector.join().map_err(|_| "a hub subscriber thread panicked")?;
        run.kicked += log.kicked;
        run.decided_ns.push(log.decided_ns);
        run.asset_ns.push(log.asset_ns);
        run.hub_streams.push(log.events);
    }
    if let Some((pollers, stream)) = readers {
        for thread in pollers {
            run.readers.push(thread.join().map_err(|_| "a reader thread panicked")?);
        }
        run.stream = Some(stream.join().map_err(|_| "the stream reader panicked")?);
    }
    if let Some(thread) = sampler {
        run.samples = thread.join().map_err(|_| "the stats sampler panicked")?;
    }
    run.edges = lock(&progress.edges).clone();
    let last_done = run.all_done_ns.last().copied().unwrap_or(0);
    run.teardown_s = torn_down_ns.saturating_sub(last_done) as f64 / 1e9;
    Ok(run)
}
