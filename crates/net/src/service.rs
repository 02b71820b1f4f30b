//! Protocol-driving service: the one full-mesh node runner.
//!
//! [`run_epoch_service`] drives a long-lived epoch pipeline — the
//! deployment shape — and is the only service loop. A one-shot run is a
//! one-epoch stream: [`run_instances`] wraps its pre-built instances (one
//! per oracle asset) in a one-epoch [`EpochMux`] and unwraps the single
//! event, and [`run_node`] is `run_instances` of one. The service layer
//! owns the instance state and the run lifecycle (start, dispatch,
//! linger, drain) and delegates wire concerns downward: per-peer framing,
//! batching, and flush policy to [`session`](crate::session), sockets and
//! read/write loops to [`transport`](crate::transport).
//!
//! # The hot path: one thread from frame to frame
//!
//! 1. a transport read loop verifies the tag and validates the batch
//!    structure **borrowed** (no per-entry allocation), then ships the
//!    whole body as one refcounted buffer (`VerifiedFrame`) to the
//!    dispatch worker(s) owning its entries — with
//!    [`RunOptions::recv_shards`] > 1 by the stable [`InstanceId::shard`]
//!    mapping, identical to the simulator's;
//! 2. the worker owns its slice of the pipeline outright (no lock on the
//!    per-entry path) and is a complete pipeline on its own thread: it
//!    re-splits the verified body (structure walk, no MAC), feeds payload
//!    slices straight to the protocol state machines — one step per
//!    entry, the granularity the simulator's `EpochProtocol` flushes at —
//!    routes their answers per destination into the egress lane it owns
//!    ([`session`](crate::session)), runs the [`FlushPolicy`] triggers —
//!    size inline; adaptively, a flush the moment its inbox is empty (or
//!    first, once the `max_delay` ceiling has passed under backlog), with
//!    no timer — and encodes (one body for a broadcast), MACs and writes
//!    each due frame straight to the peer's non-blocking socket;
//! 3. only a write that would block goes to the peer's writer task (which
//!    also dials): a peer that stops reading costs dropped frames at that
//!    task's bounded queue, never a stalled worker.
//!
//! The service loop sees only what is per run or per epoch: the merged
//! event stream, completion, the deadline, the linger window, and the
//! shutdown order (workers flush, then writer queues close).

use std::error::Error;
use std::fmt;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use delphi_crypto::Keychain;
use delphi_primitives::{
    merge_epoch_stats, EpochEvent, EpochMux, EpochOutcome, EpochShard, EpochStats, EpochStatsCell,
    FlushPolicy, InstanceId, Protocol,
};
use tokio::net::TcpListener;
use tokio::sync::mpsc;
use tokio::sync::mpsc::error::TryRecvError;
use tokio::time::Instant;

use crate::frame::split_verified_body;
use crate::session::{EgressLane, SessionSet};
use crate::transport::{
    spawn_acceptor, Counters, NetStats, ShardInput, ShardSenders, MAX_RECV_SHARDS,
};

/// Network runner failure.
#[derive(Debug)]
pub enum NetError {
    /// Listener could not be bound or a socket operation failed fatally.
    Io(std::io::Error),
    /// The address list does not match the keychain's deployment size.
    Config(String),
    /// The protocol did not produce an output within the deadline.
    Timeout,
    /// A runner invariant broke (a worker died or reported inconsistent
    /// completion). Surfaced as an error instead of a panic: a node that
    /// panics is a crash fault silently spending the `t < n/3` budget,
    /// while a reported error lets the operator restart the node.
    Internal(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "network io error: {e}"),
            NetError::Config(msg) => write!(f, "invalid network configuration: {msg}"),
            NetError::Timeout => write!(f, "protocol did not finish before the deadline"),
            NetError::Internal(msg) => write!(f, "runner invariant broke: {msg}"),
        }
    }
}

impl Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// Tuning knobs for [`run_epoch_service`] (and its one-shot adapters).
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// How long to keep serving peers after our own output is ready.
    ///
    /// Asynchronous BFT protocols routinely need messages from already-
    /// finished nodes (quorum amplification); killing the process at
    /// output time can stall slower peers.
    pub linger: Duration,
    /// Initial delay between reconnection attempts while dialing peers
    /// (doubled on consecutive failures up to a bounded backoff). Short, so
    /// a peer that starts just after us is not cut off while the others
    /// race `window` epochs ahead of it.
    pub reconnect_delay: Duration,
    /// Overall deadline for producing an output.
    pub deadline: Duration,
    /// How long shutdown may wait for writer queues to flush to peers.
    pub drain_timeout: Duration,
    /// When a dispatch worker flushes accumulated batch entries: per
    /// step, adaptively (size triggers, an empty inbox, or the
    /// `max_delay` ceiling), or — the measurement baseline — every entry
    /// in a frame of its own.
    pub flush: FlushPolicy,
    /// Receive dispatch shards (clamped to 1..=[`MAX_RECV_SHARDS`] and to
    /// the basket size). With more than one, inbound entries are
    /// dispatched to per-shard workers by the stable
    /// [`InstanceId::shard`] mapping — the same assignment the
    /// simulator's `recv_shards` models — and each worker owns its
    /// instances' protocol state and flushes its own output, so this is
    /// the node's send parallelism too.
    pub recv_shards: usize,
    /// Capacity (frames) of each peer's outbound writer queue.
    ///
    /// Egress queues are bounded so a slow or unreachable peer cannot
    /// inflate memory without limit; once a peer falls `egress_capacity`
    /// frames behind, further frames to it are dropped and counted in
    /// [`NetStats::dropped_egress`]. Dropping is safe where blocking is
    /// not: a peer slower than the queue is indistinguishable from a
    /// crashed one, and the protocol already tolerates `t < n/3` of
    /// those, while blocking the flush path would let one Byzantine peer
    /// stall progress toward every honest one. Must be at least 1.
    pub egress_capacity: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            linger: Duration::from_millis(500),
            reconnect_delay: Duration::from_millis(5),
            deadline: Duration::from_secs(60),
            drain_timeout: Duration::from_secs(5),
            flush: FlushPolicy::PerStep,
            recv_shards: 1,
            egress_capacity: 1024,
        }
    }
}

/// Builds the per-shard ingress channels and the accept loop. The
/// senders come back too: the service loop closes its workers through
/// them.
fn open_ingress(
    listener: TcpListener,
    keychain: Arc<Keychain>,
    counters: Arc<Counters>,
    shards: usize,
) -> (Vec<mpsc::Receiver<ShardInput>>, ShardSenders, tokio::task::JoinHandle<()>) {
    let mut txs = Vec::with_capacity(shards);
    let mut rxs = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (tx, rx) = mpsc::channel::<ShardInput>(1024);
        txs.push(tx);
        rxs.push(rx);
    }
    let txs: ShardSenders = Arc::new(txs);
    let accept_task = spawn_acceptor(listener, keychain, txs.clone(), counters);
    (rxs, txs, accept_task)
}

/// A dispatch worker's next event: the next inbox message, or `None`
/// when its egress lane should flush. With nothing pending (no
/// `ceiling`) the worker parks on its inbox. With entries pending it
/// never waits: a frame already waiting is answered first — the flush
/// then carries its answers to everything it has seen — and the flush
/// goes the moment the inbox is empty. A backlog (or a peer flooding the
/// inbox) must not hold pending entries back for good, so once the
/// `ceiling` has passed the flush goes first. An inbox nobody can write
/// to any more reads as [`ShardInput::Close`].
async fn next_input(
    rx: &mut mpsc::Receiver<ShardInput>,
    ceiling: Option<Instant>,
) -> Option<ShardInput> {
    let Some(ceiling) = ceiling else {
        return Some(rx.recv().await.unwrap_or(ShardInput::Close));
    };
    if Instant::now() >= ceiling {
        return None;
    }
    match rx.try_recv() {
        Ok(input) => Some(input),
        Err(TryRecvError::Empty) => None,
        Err(TryRecvError::Disconnected) => Some(ShardInput::Close),
    }
}

/// The first half of a graceful shutdown — workers flush, then writer
/// queues close: tells every dispatch worker to flush what its egress
/// lane still holds and exit, and joins them against `drain_deadline`
/// (a worker that misses it is aborted; its lane goes with it).
async fn close_workers(
    inboxes: &ShardSenders,
    workers: Vec<tokio::task::JoinHandle<()>>,
    drain_deadline: Instant,
) {
    for inbox in inboxes.iter() {
        tokio::select! {
            _ = inbox.send(ShardInput::Close) => {},
            _ = tokio::time::sleep_until(drain_deadline) => {},
        }
    }
    for mut worker in workers {
        tokio::select! {
            _ = &mut worker => {},
            _ = tokio::time::sleep_until(drain_deadline) => worker.abort(),
        }
    }
}

/// Tears a failed run down without draining: there is no output worth
/// waiting for.
fn abort_run(
    accept_task: &tokio::task::JoinHandle<()>,
    workers: &[tokio::task::JoinHandle<()>],
    sessions: SessionSet,
) {
    accept_task.abort();
    for worker in workers {
        worker.abort();
    }
    sessions.abort();
}

/// What an epoch dispatch worker reports to the service loop — only what
/// is per epoch; its protocol traffic leaves through its own egress lane.
enum EpochShardMsg<O> {
    /// Ordered events this worker's slice emitted since its last report
    /// (shard-local asset order; `lane` selects the merge queue). Sent
    /// live, as epochs resolve — this is what makes the service handle
    /// tailable instead of collect-at-the-end.
    Events {
        /// The worker's merge-lane index (live shards only).
        lane: usize,
        /// The freshly drained slice of the worker's event stream.
        events: Vec<EpochEvent<O>>,
    },
    /// This worker's stream slice has resolved every epoch (all of its
    /// events have been shipped). The epoch-layer *counters* keep moving
    /// while the worker serves lingering peers, so they travel through a
    /// shared [`EpochStatsCell`] instead (snapshot at shutdown).
    Done,
}

/// What a live epoch dispatch worker owns: its slice of the pipeline, the
/// merge lane its events feed, and the egress lane of its shard class.
struct EpochSlot<P: Protocol> {
    merge_lane: usize,
    shard: EpochShard<P>,
    egress: EgressLane,
}

/// One sharded epoch dispatch worker, frame in to frame out: a complete
/// sub-pipeline over its asset slice that answers every entry through
/// the egress lane of its shard class, publishing its live [`EpochStats`]
/// through `stats_cell` after every frame (late entries served during
/// the linger window must still be counted). A `None` slot (a shard the
/// basket left empty) just drains its ingress so Byzantine traffic
/// addressed there cannot wedge a read loop.
async fn epoch_shard_worker<P>(
    mut rx: mpsc::Receiver<ShardInput>,
    slot: Option<EpochSlot<P>>,
    out_tx: mpsc::Sender<EpochShardMsg<P::Output>>,
    stats_cell: Arc<EpochStatsCell>,
) where
    P: Protocol + Send + 'static,
    P::Output: Send,
{
    let Some(EpochSlot { merge_lane: lane, mut shard, mut egress }) = slot else {
        while let Some(ShardInput::Frame(_)) = rx.recv().await {}
        return;
    };
    // Start bursts must not wait for traffic.
    egress.send_step(shard.start());
    egress.flush_all();
    let mut done = false;
    loop {
        let fresh = shard.drain_events();
        if !fresh.is_empty()
            && out_tx.send(EpochShardMsg::Events { lane, events: fresh }).await.is_err()
        {
            break;
        }
        if !done && shard.is_complete() {
            done = true;
            if out_tx.send(EpochShardMsg::Done).await.is_err() {
                break;
            }
        }
        if done {
            // The linger contract: a finished worker keeps answering
            // peers still working through the stream's tail, and what it
            // answers leaves at once.
            egress.flush_all();
        }
        stats_cell.publish(shard.stats());
        let frame = match next_input(&mut rx, egress.flush_ceiling()).await {
            Some(ShardInput::Frame(frame)) => frame,
            None => {
                egress.flush_all();
                continue;
            }
            Some(ShardInput::Close) => break,
        };
        let Ok((_, entries)) = split_verified_body(&frame.body) else {
            continue; // unreachable for verified bodies
        };
        // One step per entry — the same step granularity the simulator's
        // `EpochProtocol::on_message` flushes at, so the per-step cost
        // model stays byte-comparable between the two transports.
        for (id, payload) in entries.iter() {
            if shard.owns(id.asset) {
                egress.send_step(shard.on_entry(frame.from, id, payload));
            }
        }
    }
    egress.flush_all();
}

/// Online cross-shard event merger: per-lane queues of shard-local
/// events, merged into basket-ordered [`EpochEvent`]s as soon as *every*
/// live lane has delivered an epoch. Each lane's stream is strictly
/// epoch-ordered with every epoch present (skips included), so the queue
/// fronts always describe the same epoch. The merge contract matches
/// [`delphi_primitives::merge_epoch_shards`]: an epoch is `Agreed` only
/// when every lane agreed it.
struct EventMerger<O> {
    /// Per-lane global asset ids (ascending), indexed by shard-local id.
    maps: Vec<Vec<InstanceId>>,
    queues: Vec<std::collections::VecDeque<EpochEvent<O>>>,
    assets: u16,
}

impl<O: Clone> EventMerger<O> {
    fn new(maps: Vec<Vec<InstanceId>>, assets: u16) -> EventMerger<O> {
        let queues = maps.iter().map(|_| std::collections::VecDeque::new()).collect();
        EventMerger { maps, queues, assets }
    }

    /// Queues `events` for `lane` and appends every epoch that just
    /// became mergeable to `out`.
    fn push(&mut self, lane: usize, events: Vec<EpochEvent<O>>, out: &mut Vec<EpochEvent<O>>) {
        self.queues[lane].extend(events);
        while self.queues.iter().all(|q| !q.is_empty()) {
            let mut values: Vec<Option<O>> = vec![None; usize::from(self.assets)];
            let mut skipped = false;
            let mut epoch = None;
            for (lane, queue) in self.queues.iter_mut().enumerate() {
                let Some(ev) = queue.pop_front() else {
                    continue; // unreachable: the while guard checked every lane
                };
                debug_assert!(
                    epoch.is_none() || epoch == Some(ev.epoch),
                    "lanes emit aligned epoch streams"
                );
                epoch = Some(ev.epoch);
                match ev.outcome {
                    EpochOutcome::Agreed(vs) => {
                        for (local, v) in vs.into_iter().enumerate() {
                            values[self.maps[lane][local].index()] = Some(v);
                        }
                    }
                    EpochOutcome::Skipped => skipped = true,
                }
            }
            let outcome = if skipped || values.iter().any(Option::is_none) {
                EpochOutcome::Skipped
            } else {
                // The `any(is_none)` arm above makes `flatten` lossless.
                EpochOutcome::Agreed(values.into_iter().flatten().collect())
            };
            let Some(epoch) = epoch else {
                // No lanes at all: nothing mergeable, and looping again
                // on the vacuously-true guard would spin forever.
                break;
            };
            out.push(EpochEvent { epoch, outcome });
        }
    }
}

/// Live observability probe for a running epoch service: cheap coherent
/// snapshots of the epoch-layer counters (one [`EpochStatsCell`] per
/// dispatch worker, merged) and the transport counters. Cloneable and
/// detachable from the [`EpochServiceHandle`], so a stats route or a
/// monitoring thread can read while the service runs — the consolidated
/// accessor that replaces reaching into per-shard cells field by field.
#[derive(Clone)]
pub struct ServiceStats {
    cells: Vec<Arc<EpochStatsCell>>,
    counters: Arc<Counters>,
}

impl ServiceStats {
    /// One coherent copy of the merged epoch-layer counters, readable at
    /// any point of the run (during linger included).
    pub fn epoch_snapshot(&self) -> EpochStats {
        merge_epoch_stats(self.cells.iter().map(|c| c.stats_snapshot()))
    }

    /// The transport counters as of now, with
    /// [`NetStats::late_entries`] read from the same live per-worker
    /// cells as [`epoch_snapshot`](ServiceStats::epoch_snapshot).
    pub fn net_snapshot(&self) -> NetStats {
        NetStats { late_entries: self.epoch_snapshot().late_entries, ..self.counters.snapshot() }
    }
}

/// A running epoch service, returned by [`run_epoch_service`]: a live,
/// tailable view of the stream instead of only a collected vector.
///
/// - [`next_event`](EpochServiceHandle::next_event) yields merged,
///   basket-ordered [`EpochEvent`]s as epochs resolve (a serving layer
///   tails this without touching the protocol hot path);
/// - [`stats`](EpochServiceHandle::stats) /
///   [`stats_snapshot`](EpochServiceHandle::stats_snapshot) read live
///   coherent counters;
/// - [`finish`](EpochServiceHandle::finish) awaits the run and returns
///   the complete stream plus final counters — the collected view the
///   old API returned directly.
pub struct EpochServiceHandle<O> {
    events: Option<mpsc::UnboundedReceiver<EpochEvent<O>>>,
    stats: ServiceStats,
    task: tokio::task::JoinHandle<EpochRunResult<O>>,
}

/// What a finished epoch run resolves to: the complete ordered event
/// stream, final epoch counters, and transport counters.
pub type EpochRunResult<O> = Result<(Vec<EpochEvent<O>>, EpochStats, NetStats), NetError>;

impl<O> EpochServiceHandle<O> {
    /// The next merged epoch event, `None` once the stream is complete
    /// (or after [`take_events`](EpochServiceHandle::take_events)).
    pub async fn next_event(&mut self) -> Option<EpochEvent<O>> {
        match self.events.as_mut() {
            Some(rx) => rx.recv().await,
            None => None,
        }
    }

    /// Detaches the live event receiver (for a consumer task that owns
    /// the tail while this handle is kept for `finish`).
    pub fn take_events(&mut self) -> Option<mpsc::UnboundedReceiver<EpochEvent<O>>> {
        self.events.take()
    }

    /// A cloneable live-stats probe (usable after `finish` consumed the
    /// handle).
    pub fn stats(&self) -> ServiceStats {
        self.stats.clone()
    }

    /// One coherent copy of the merged epoch-layer counters, right now.
    pub fn stats_snapshot(&self) -> EpochStats {
        self.stats.epoch_snapshot()
    }

    /// Awaits the run: the complete ordered event stream, final epoch
    /// counters, and transport counters.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] if the stream is unresolved at the deadline,
    /// [`NetError::Internal`] if the service task itself panicked or was
    /// aborted.
    pub async fn finish(mut self) -> EpochRunResult<O> {
        // Dropping the tail first keeps the service loop from buffering
        // events nobody will read.
        self.events = None;
        match self.task.await {
            Ok(result) => result,
            Err(e) => Err(NetError::Internal(format!("epoch service task failed: {e}"))),
        }
    }
}

/// Runs an epoch stream — a long-lived [`EpochMux`] pipeline — over one
/// full TCP mesh until every epoch of the stream has resolved.
///
/// This is the deployment shape of a streaming oracle: the mux keeps
/// spawning per-asset agreement instances epoch after epoch, the service
/// routes their traffic as epoch-addressed entries in authenticated
/// frames, and each dispatch worker flushes its own batches per
/// [`RunOptions::flush`] — per step, or adaptively on size triggers and
/// whenever its inbox runs empty. With [`RunOptions::recv_shards`] > 1
/// the pipeline is split by asset across dispatch workers
/// ([`EpochMux::split_assets`]); the event stream is the merged,
/// basket-ordered view. Entries addressed to epochs the pipeline has
/// already garbage-collected are dropped and surface in
/// [`NetStats::late_entries`].
///
/// Config validation and the listener bind happen before this returns;
/// the run itself proceeds in a background task owned by the returned
/// [`EpochServiceHandle`]. Tail events live via
/// [`EpochServiceHandle::next_event`], read live counters via
/// [`EpochServiceHandle::stats`], and collect the completed stream via
/// [`EpochServiceHandle::finish`]:
///
/// ```ignore
/// let mut handle = run_epoch_service(mux, keychain, addrs, opts).await?;
/// while let Some(event) = handle.next_event().await { /* serve it */ }
/// let (events, epoch_stats, net_stats) = handle.finish().await?;
/// ```
///
/// # Errors
///
/// Returns [`NetError::Config`] on a mismatched address list or identity
/// and [`NetError::Io`] if the listener cannot be bound;
/// [`NetError::Timeout`] (the stream unresolved at the deadline) arrives
/// through [`EpochServiceHandle::finish`].
pub async fn run_epoch_service<P>(
    mux: EpochMux<P>,
    keychain: Keychain,
    addrs: Vec<SocketAddr>,
    opts: RunOptions,
) -> Result<EpochServiceHandle<P::Output>, NetError>
where
    P: Protocol + Send + 'static,
    P::Output: Clone + Send,
{
    let me = keychain.node_id();
    let n = keychain.n();
    if addrs.len() != n {
        return Err(NetError::Config(format!("{} addresses for {n} nodes", addrs.len())));
    }
    if mux.n() != n || mux.node_id() != me {
        return Err(NetError::Config("epoch mux identity mismatch".into()));
    }
    if opts.egress_capacity == 0 {
        return Err(NetError::Config("egress_capacity must be at least 1".into()));
    }
    // Clamp to the basket too: `split_assets` groups by
    // `shard(min(shards, assets))`, and ingress must route with the SAME
    // modulus the split used — otherwise entries hash to workers that do
    // not own their asset and the stream wedges.
    let shards = opts.recv_shards.clamp(1, MAX_RECV_SHARDS).min(usize::from(mux.config().assets));
    // In vector-basket mode the wire config has one asset, so the shard
    // clamp above collapses to a single dispatch worker — the documented
    // trade of receive parallelism for per-message overhead.
    let vector_dims = mux.vector_dims();

    let counters = Arc::new(Counters::default());
    counters.vector_dims.store(u64::from(vector_dims), Ordering::Relaxed);
    let keychain = Arc::new(keychain);
    let listener = TcpListener::bind(addrs[me.index()]).await?;
    let (in_rxs, inboxes, accept_task) =
        open_ingress(listener, keychain.clone(), counters.clone(), shards);
    let sessions = SessionSet::connect(
        keychain,
        &addrs,
        opts.reconnect_delay,
        counters.clone(),
        opts.flush,
        opts.egress_capacity,
    );

    // Split the pipeline across the dispatch workers (a 1-shard run is a
    // single worker owning the whole basket), assigning each live shard a
    // merge lane in shard order.
    let total_assets = mux.config().assets;
    let mut slots: Vec<Option<EpochSlot<P>>> = (0..shards).map(|_| None).collect();
    let mut maps: Vec<Vec<InstanceId>> = Vec::new();
    for shard in mux.split_assets(shards) {
        let index = shard.shard_index();
        maps.push(shard.assets().to_vec());
        let (merge_lane, egress) = (maps.len() - 1, sessions.lane(index));
        slots[index] = Some(EpochSlot { merge_lane, shard, egress });
    }
    let expected_done = slots.iter().filter(|s| s.is_some()).count();
    let (out_tx, mut out_rx) = mpsc::channel::<EpochShardMsg<P::Output>>(1024);
    let stats_cells: Vec<Arc<EpochStatsCell>> =
        (0..shards).map(|_| Arc::new(EpochStatsCell::new())).collect();
    let workers: Vec<tokio::task::JoinHandle<()>> = in_rxs
        .into_iter()
        .zip(slots)
        .zip(&stats_cells)
        .map(|((rx, slot), cell)| {
            tokio::spawn(epoch_shard_worker(rx, slot, out_tx.clone(), cell.clone()))
        })
        .collect();
    drop(out_tx);

    let stats = ServiceStats { cells: stats_cells, counters: counters.clone() };
    let probe = stats.clone();
    // Locally produced events, already bounded by the pipeline: at most
    // `window` epochs are in flight, each emitting one event, and no remote
    // peer can make the producer outrun that; a capacity here would only
    // back-pressure the protocol loop on a slow event reader.
    // lint: allow(bounded-channel) — producer is pipeline-bounded (see above)
    let (event_tx, event_rx) = mpsc::unbounded_channel::<EpochEvent<P::Output>>();
    let mut merger = EventMerger::new(maps, total_assets);

    let task = tokio::spawn(async move {
        let deadline = Instant::now() + opts.deadline;
        let mut events: Vec<EpochEvent<P::Output>> = Vec::new();
        let mut done_count = 0usize;
        while done_count < expected_done {
            let msg = tokio::select! {
                m = out_rx.recv() => m,
                _ = tokio::time::sleep_until(deadline) => None,
            };
            match msg {
                Some(EpochShardMsg::Events { lane, events: fresh }) => {
                    let ready_from = events.len();
                    merger.push(lane, fresh, &mut events);
                    if vector_dims > 0 {
                        let agreed = events[ready_from..]
                            .iter()
                            .filter(|ev| matches!(ev.outcome, EpochOutcome::Agreed(_)))
                            .count() as u64;
                        counters.vector_instances.fetch_add(agreed, Ordering::Relaxed);
                    }
                    for ev in &events[ready_from..] {
                        // A dropped tail is fine: finish() detaches it.
                        let _ = event_tx.send(ev.clone());
                    }
                }
                Some(EpochShardMsg::Done) => done_count += 1,
                None => {
                    // The deadline — or every worker exited (the ingress
                    // died) and no more traffic can ever arrive: fail now
                    // rather than spinning until the deadline.
                    abort_run(&accept_task, &workers, sessions);
                    return Err(NetError::Timeout);
                }
            }
        }
        // Every worker shipped its whole stream before Done, so the
        // merged view is complete; close the live tail at that boundary.
        drop(event_tx);

        // Linger: the workers keep serving peers still working through
        // the stream's tail.
        tokio::time::sleep(opts.linger).await;

        let drain_deadline = Instant::now() + opts.drain_timeout;
        close_workers(&inboxes, workers, drain_deadline).await;
        // Final counters come from the live cells, so late entries served
        // during the linger window (traffic for already-GC'd epochs) are
        // still counted — events were final at completion, counters were
        // not.
        let epoch_stats = probe.epoch_snapshot();
        sessions.shutdown(drain_deadline).await;
        accept_task.abort();
        Ok((events, epoch_stats, probe.net_snapshot()))
    });

    Ok(EpochServiceHandle { events: Some(event_rx), stats, task })
}

/// Runs `protocol` over a full TCP mesh until it produces an output:
/// [`run_instances`] of one instance.
///
/// # Errors
///
/// As [`run_instances`].
pub async fn run_node<P>(
    protocol: P,
    keychain: Keychain,
    addrs: Vec<SocketAddr>,
    opts: RunOptions,
) -> Result<(P::Output, NetStats), NetError>
where
    P: Protocol + Send + 'static,
    P::Output: Clone + Send,
{
    let (mut outputs, stats) = run_instances(vec![protocol], keychain, addrs, opts).await?;
    match outputs.pop() {
        Some(output) => Ok((output, stats)),
        None => Err(NetError::Internal("one instance in, no output out".into())),
    }
}

/// Runs `instances` — independent protocol instances, instance `i`
/// addressed as `InstanceId(i)` — over one full TCP mesh until every
/// instance produces an output: a one-epoch stream through
/// [`run_epoch_service`] ([`EpochMux::one_epoch`]), so the transport
/// contract, the linger (the resolved epoch is never evicted: a finished
/// node keeps answering) and the drain-on-shutdown are that function's.
///
/// # Errors
///
/// Returns [`NetError::Config`] on a mismatched address list, an empty or
/// oversized instance vector, or an instance disagreeing on identity;
/// [`NetError::Io`] if the listener cannot be bound; and
/// [`NetError::Timeout`] if outputs are missing at the deadline.
pub async fn run_instances<P>(
    instances: Vec<P>,
    keychain: Keychain,
    addrs: Vec<SocketAddr>,
    opts: RunOptions,
) -> Result<(Vec<P::Output>, NetStats), NetError>
where
    P: Protocol + Send + 'static,
    P::Output: Clone + Send,
{
    let (me, n) = (keychain.node_id(), keychain.n());
    if instances.is_empty() {
        return Err(NetError::Config("no protocol instances".into()));
    }
    if instances.len() > usize::from(u16::MAX) {
        return Err(NetError::Config("instance ids are u16".into()));
    }
    if instances.iter().any(|p| p.n() != n || p.node_id() != me) {
        return Err(NetError::Config("protocol identity mismatch".into()));
    }
    let handle = run_epoch_service(EpochMux::one_epoch(instances), keychain, addrs, opts);
    let (mut events, _, stats) = handle.await?.finish().await?;
    match events.pop().map(|event| event.outcome) {
        Some(EpochOutcome::Agreed(outputs)) => Ok((outputs, stats)),
        _ => Err(NetError::Internal("a one-epoch stream resolved without agreeing".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{
        decode_inbound_frame_ref, EPOCH_ENTRY_OVERHEAD_BYTES, EPOCH_FRAME_OVERHEAD_BYTES,
    };
    use crate::transport::VerifiedFrame;
    use bytes::Bytes;
    use delphi_core::BinAaNode;
    use delphi_primitives::{Dyadic, Envelope, EpochConfig, EpochProtocol, NodeId};
    use tokio::io::AsyncReadExt;

    async fn free_addrs(n: usize) -> Vec<SocketAddr> {
        // Bind ephemeral listeners to reserve distinct ports, then free
        // them; the runner re-binds moments later.
        let mut addrs = Vec::with_capacity(n);
        let mut holders = Vec::new();
        for _ in 0..n {
            let l = TcpListener::bind("127.0.0.1:0").await.unwrap();
            addrs.push(l.local_addr().unwrap());
            holders.push(l);
        }
        drop(holders);
        addrs
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn binaa_cluster_over_loopback() {
        let n = 4;
        let addrs = free_addrs(n).await;
        let inputs = [true, false, true, true];
        let mut handles = Vec::new();
        for id in NodeId::all(n) {
            let keychain = delphi_crypto::Keychain::derive(b"net-test", id, n);
            let node = BinAaNode::new(id, n, 1, inputs[id.index()], 6);
            let addrs = addrs.clone();
            handles.push(tokio::spawn(async move {
                run_node(node, keychain, addrs, RunOptions::default()).await
            }));
        }
        let mut outputs: Vec<Dyadic> = Vec::new();
        for h in handles {
            let (out, stats) = h.await.unwrap().expect("node finished");
            assert!(stats.sent_frames > 0);
            assert!(stats.recv_frames > 0);
            assert_eq!(stats.dropped_frames, 0);
            // Even a solo protocol benefits: multi-envelope steps share a
            // frame, so entries can only meet or exceed frames.
            assert!(stats.recv_entries >= stats.recv_frames);
            // Unsharded runs dispatch everything on shard 0.
            assert_eq!(stats.shard_entries[0], stats.recv_entries);
            assert!(stats.shard_entries[1..].iter().all(|&c| c == 0));
            outputs.push(out);
        }
        let tol = Dyadic::new(1, 6);
        for a in &outputs {
            for b in &outputs {
                assert!(a.abs_diff(*b) <= tol, "|{a} - {b}| over TCP");
            }
        }
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn multiplexed_binaa_instances_share_one_mesh() {
        // Two independent BinAA instances per node — one agreeing near 1,
        // one pinned at 0 — multiplexed over a single 4-node mesh.
        let n = 4;
        let addrs = free_addrs(n).await;
        let inputs = [true, false, true, true];
        let mut handles = Vec::new();
        for id in NodeId::all(n) {
            let keychain = delphi_crypto::Keychain::derive(b"mux-test", id, n);
            let nodes = vec![
                BinAaNode::new(id, n, 1, inputs[id.index()], 6),
                BinAaNode::new(id, n, 1, false, 6),
            ];
            let addrs = addrs.clone();
            handles.push(tokio::spawn(async move {
                run_instances(nodes, keychain, addrs, RunOptions::default()).await
            }));
        }
        let mut per_instance: Vec<Vec<Dyadic>> = vec![Vec::new(); 2];
        for h in handles {
            let (outs, stats) = h.await.unwrap().expect("node finished");
            assert_eq!(outs.len(), 2);
            assert_eq!(stats.dropped_frames, 0);
            assert!(
                stats.sent_frames < stats.sent_entries,
                "batching must coalesce: {} frames for {} entries",
                stats.sent_frames,
                stats.sent_entries
            );
            for (i, o) in outs.into_iter().enumerate() {
                per_instance[i].push(o);
            }
        }
        let tol = Dyadic::new(1, 6);
        for outs in &per_instance {
            for a in outs {
                for b in outs {
                    assert!(a.abs_diff(*b) <= tol, "instance disagreement |{a} - {b}|");
                }
            }
        }
        // The all-zero instance must not be perturbed by instance 0's
        // traffic: correct routing keeps it exactly at 0.
        assert!(per_instance[1].iter().all(|o| *o == Dyadic::ZERO), "{:?}", per_instance[1]);
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn sharded_receive_matches_unsharded_outputs() {
        // The same 6-instance BinAA basket with 1 and 4 receive shards:
        // identical outputs (sharding is transport parallelism, never
        // semantics), and the sharded run spreads dispatch across shard
        // counters.
        let n = 4;
        let k = 6usize;
        let inputs = [true, false, true, true];
        let run = |seed: &'static [u8], shards: usize, addrs: Vec<SocketAddr>| async move {
            let mut handles = Vec::new();
            for id in NodeId::all(n) {
                let keychain = delphi_crypto::Keychain::derive(seed, id, n);
                let nodes: Vec<BinAaNode> = (0..k)
                    .map(|i| BinAaNode::new(id, n, 1, inputs[id.index()] ^ (i % 2 == 1), 5))
                    .collect();
                let addrs = addrs.clone();
                let opts = RunOptions { recv_shards: shards, ..RunOptions::default() };
                handles.push(tokio::spawn(async move {
                    run_instances(nodes, keychain, addrs, opts).await
                }));
            }
            let mut all = Vec::new();
            let mut stats_all = Vec::new();
            for h in handles {
                let (outs, stats) = h.await.unwrap().expect("node finished");
                all.push(outs);
                stats_all.push(stats);
            }
            (all, stats_all)
        };
        let (unsharded, _) = run(b"shard-eq", 1, free_addrs(n).await).await;
        let (sharded, stats) = run(b"shard-eq", 4, free_addrs(n).await).await;
        assert_eq!(unsharded, sharded, "sharding must not change any output");
        for s in &stats {
            assert_eq!(s.dropped_frames, 0);
            let spread = s.shard_entries.iter().filter(|&&c| c > 0).count();
            assert!(spread > 1, "entries must spread across shards: {:?}", s.shard_entries);
            assert_eq!(s.shard_entries.iter().sum::<u64>(), s.recv_entries);
        }
    }

    /// Broadcasts `rounds` waves, advancing after each full wave of peer
    /// messages; its envelope count is schedule-independent, which makes
    /// frame counts comparable across runs — and equal to the simulated
    /// one-epoch `EpochProtocol` run's message count, the sim/TCP parity
    /// check below.
    struct Wave {
        id: NodeId,
        n: usize,
        rounds: u8,
        seen: usize,
        sent: u8,
    }

    impl Wave {
        fn new(id: NodeId, n: usize, rounds: u8) -> Wave {
            Wave { id, n, rounds, seen: 0, sent: 0 }
        }
    }

    impl Protocol for Wave {
        type Output = usize;
        fn node_id(&self) -> NodeId {
            self.id
        }
        fn n(&self) -> usize {
            self.n
        }
        fn start(&mut self) -> Vec<Envelope> {
            self.sent = 1;
            vec![Envelope::to_all(Bytes::from_static(b"wave"))]
        }
        fn on_message(&mut self, _: NodeId, _: &[u8]) -> Vec<Envelope> {
            self.seen += 1;
            if self.seen % (self.n - 1) == 0 && self.sent < self.rounds {
                self.sent += 1;
                vec![Envelope::to_all(Bytes::from_static(b"wave"))]
            } else {
                Vec::new()
            }
        }
        fn output(&self) -> Option<usize> {
            (self.seen >= usize::from(self.rounds) * (self.n - 1)).then_some(self.seen)
        }
    }

    const WAVE_N: usize = 3;
    const WAVE_INSTANCES: usize = 4;
    const WAVE_ROUNDS: u8 = 3;

    async fn run_wave_cluster(
        seed: &'static [u8],
        flush: FlushPolicy,
        recv_shards: usize,
    ) -> NetStats {
        let addrs = free_addrs(WAVE_N).await;
        let mut handles = Vec::new();
        for id in NodeId::all(WAVE_N) {
            let keychain = delphi_crypto::Keychain::derive(seed, id, WAVE_N);
            let nodes: Vec<Wave> =
                (0..WAVE_INSTANCES).map(|_| Wave::new(id, WAVE_N, WAVE_ROUNDS)).collect();
            let addrs = addrs.clone();
            let opts = RunOptions { flush, recv_shards, ..RunOptions::default() };
            handles.push(tokio::spawn(
                async move { run_instances(nodes, keychain, addrs, opts).await },
            ));
        }
        let mut total = NetStats::default();
        for h in handles {
            let (outs, stats) = h.await.unwrap().expect("node finished");
            assert_eq!(outs.len(), WAVE_INSTANCES);
            assert_eq!(stats.dropped_frames, 0);
            assert_eq!(stats.dropped_egress, 0);
            // Per-worker egress accounting is complete: every routed
            // entry was flushed by exactly one worker, and every frame
            // paid exactly one encode-side tag.
            assert_eq!(stats.egress_shard_entries.iter().sum::<u64>(), stats.sent_entries);
            assert_eq!(stats.egress_shard_macs.iter().sum::<u64>(), stats.sent_frames);
            total.sent_frames += stats.sent_frames;
            total.sent_bytes += stats.sent_bytes;
            total.sent_entries += stats.sent_entries;
            total.mac_ops += stats.mac_ops;
            total.buffer_reuses += stats.buffer_reuses;
        }
        total
    }

    /// The Wave workload under the simulator — each node a one-epoch
    /// per-step `EpochProtocol` over the same basket, flushing per
    /// `(destination, receive shard)` — the reference the TCP runner's
    /// accounting must match. Returns `(messages, wire bytes, entries)`.
    fn run_wave_simulation(recv_shards: usize) -> (u64, u64, u64) {
        use delphi_sim::{Simulation, Topology};
        let nodes: Vec<Box<dyn Protocol<Output = Vec<EpochEvent<usize>>>>> = NodeId::all(WAVE_N)
            .map(|id| {
                let basket =
                    (0..WAVE_INSTANCES).map(|_| Wave::new(id, WAVE_N, WAVE_ROUNDS)).collect();
                let node = EpochProtocol::new(EpochMux::one_epoch(basket), FlushPolicy::PerStep)
                    .recv_shards(recv_shards);
                Box::new(node) as Box<dyn Protocol<Output = Vec<EpochEvent<usize>>>>
            })
            .collect();
        let report =
            Simulation::new(Topology::lan(WAVE_N)).seed(7).recv_shards(recv_shards).run(nodes);
        assert!(report.all_honest_finished(), "sim wave run stalled");
        // Entries: every wave is a broadcast from every instance.
        let entries = (WAVE_N * WAVE_INSTANCES * usize::from(WAVE_ROUNDS) * (WAVE_N - 1)) as u64;
        (report.metrics.total_msgs(), report.metrics.total_wire_bytes(), entries)
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn batching_reduces_frames_and_macs_at_equal_envelope_count() {
        let batched = run_wave_cluster(b"wave-batched", FlushPolicy::PerStep, 1).await;
        let unbatched = run_wave_cluster(b"wave-unbatched", FlushPolicy::PerEntry, 1).await;
        // Same protocols, schedule-independent envelope counts: the
        // workloads are identical.
        assert_eq!(batched.sent_entries, unbatched.sent_entries);
        assert!(
            batched.sent_frames < unbatched.sent_frames,
            "batched {} vs unbatched {} frames",
            batched.sent_frames,
            unbatched.sent_frames
        );
        assert!(
            batched.mac_ops < unbatched.mac_ops,
            "batched {} vs unbatched {} HMAC invocations",
            batched.mac_ops,
            unbatched.mac_ops
        );
        assert!(
            batched.sent_bytes < unbatched.sent_bytes,
            "batched {} vs unbatched {} bytes",
            batched.sent_bytes,
            unbatched.sent_bytes
        );
        // Per entry, every envelope is its own frame.
        assert_eq!(unbatched.sent_frames, unbatched.sent_entries);
        // What batching saved is exactly the frame overheads it spared.
        assert_eq!(
            unbatched.sent_bytes - batched.sent_bytes,
            (unbatched.sent_frames - batched.sent_frames) * EPOCH_FRAME_OVERHEAD_BYTES as u64
        );
        let payload = b"wave".len() as u64;
        assert_eq!(
            batched.sent_bytes,
            batched.sent_frames * EPOCH_FRAME_OVERHEAD_BYTES as u64
                + batched.sent_entries * (EPOCH_ENTRY_OVERHEAD_BYTES as u64 + payload)
        );
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn sharded_egress_matches_simulated_accounting_exactly() {
        // The sim/TCP parity test on the worker-owned send side. A worker
        // owns one shard class and flushes only that class, one step per
        // entry — exactly what a simulated one-epoch `EpochProtocol`
        // flushing per `(destination, receive shard)` does — so the
        // frames, entries, wire bytes and encode-side MACs on the wire
        // must EQUAL the simulated accounting at every shard count:
        // simulated cost IS real cost, which is what makes the sim sweeps
        // trustworthy.
        for (seed, recv_shards) in
            [(b"wave-rs1" as &'static [u8], 1usize), (b"wave-rs2", 2), (b"wave-rs4", 4)]
        {
            let (sim_msgs, sim_bytes, sim_entries) = run_wave_simulation(recv_shards);
            let total = run_wave_cluster(seed, FlushPolicy::PerStep, recv_shards).await;
            assert_eq!(
                total.sent_frames, sim_msgs,
                "TCP frames == simulated messages at {recv_shards} shards"
            );
            assert_eq!(
                total.sent_entries, sim_entries,
                "TCP entries == simulated envelopes at {recv_shards} shards"
            );
            assert_eq!(
                total.sent_bytes, sim_bytes,
                "TCP bytes == simulated wire bytes at {recv_shards} shards"
            );
            // (`run_wave_cluster` asserts per node that encode-side MACs
            // equal frames, so the MAC count is pinned with them.)
        }
    }

    /// Responds to *every* inbound message with a broadcast until its
    /// send budget is spent — unlike the lock-step `Wave`, consecutive
    /// responses carry no data dependency, which is exactly the traffic
    /// shape adaptive flushing coalesces. The envelope count is fixed
    /// (`budget` broadcasts per instance) regardless of schedule.
    struct Chatty {
        id: NodeId,
        n: usize,
        budget: u8,
        sent: u8,
        seen: usize,
    }

    impl Protocol for Chatty {
        type Output = usize;
        fn node_id(&self) -> NodeId {
            self.id
        }
        fn n(&self) -> usize {
            self.n
        }
        fn start(&mut self) -> Vec<Envelope> {
            self.sent = 1;
            vec![Envelope::to_all(Bytes::from_static(b"chat"))]
        }
        fn on_message(&mut self, _: NodeId, _: &[u8]) -> Vec<Envelope> {
            self.seen += 1;
            if self.sent < self.budget {
                self.sent += 1;
                vec![Envelope::to_all(Bytes::from_static(b"chat"))]
            } else {
                Vec::new()
            }
        }
        fn output(&self) -> Option<usize> {
            (self.seen >= usize::from(self.budget) * (self.n - 1)).then_some(self.seen)
        }
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn adaptive_flush_cuts_one_shot_frames_at_equal_envelope_count() {
        // Adaptive flushing through the one-shot adapter. Entries are
        // schedule-independent, so the per-entry frame cost comparison
        // is exact.
        let n = 3;
        let instances = 4usize;
        let budget = 6u8;
        let run = |seed: &'static [u8], flush: FlushPolicy| async move {
            let addrs = free_addrs(n).await;
            let mut handles = Vec::new();
            for id in NodeId::all(n) {
                let keychain = delphi_crypto::Keychain::derive(seed, id, n);
                let nodes: Vec<Chatty> =
                    (0..instances).map(|_| Chatty { id, n, budget, sent: 0, seen: 0 }).collect();
                let addrs = addrs.clone();
                let opts = RunOptions { flush, ..RunOptions::default() };
                handles.push(tokio::spawn(async move {
                    run_instances(nodes, keychain, addrs, opts).await
                }));
            }
            let mut total = NetStats::default();
            for h in handles {
                let (outs, stats) = h.await.unwrap().expect("node finished");
                assert_eq!(outs.len(), instances);
                assert_eq!(stats.dropped_frames, 0);
                total.sent_frames += stats.sent_frames;
                total.sent_entries += stats.sent_entries;
                total.mac_ops += stats.mac_ops;
                total.buffer_reuses += stats.buffer_reuses;
            }
            total
        };
        let per_step = run(b"chat-perstep", FlushPolicy::PerStep).await;
        let adaptive = run(
            b"chat-adaptive",
            FlushPolicy::Adaptive {
                max_entries: 16,
                max_bytes: 4096,
                max_delay: Duration::from_millis(5),
            },
        )
        .await;
        assert_eq!(per_step.sent_entries, adaptive.sent_entries, "same protocol work");
        assert!(
            adaptive.sent_frames < per_step.sent_frames,
            "adaptive {} vs per-step {} frames for {} entries",
            adaptive.sent_frames,
            per_step.sent_frames,
            per_step.sent_entries
        );
        assert!(
            adaptive.mac_ops < per_step.mac_ops,
            "fewer frames must mean fewer tags: {} vs {}",
            adaptive.mac_ops,
            per_step.mac_ops
        );
        // The flush path recycles its buffers: steady-state flushing hits
        // the free-list instead of the allocator.
        assert!(per_step.buffer_reuses > 0, "per-step flushing reuses buffers");
        assert!(adaptive.buffer_reuses > 0, "adaptive flushing reuses buffers");
    }

    /// Bursts `k` point-to-point frames at start and outputs immediately.
    struct Burst {
        id: NodeId,
        k: usize,
    }

    impl Protocol for Burst {
        type Output = ();
        fn node_id(&self) -> NodeId {
            self.id
        }
        fn n(&self) -> usize {
            2
        }
        fn start(&mut self) -> Vec<Envelope> {
            (0..self.k)
                .map(|i| Envelope::to_one(NodeId(1), Bytes::from(vec![i as u8; 32])))
                .collect()
        }
        fn on_message(&mut self, _: NodeId, _: &[u8]) -> Vec<Envelope> {
            Vec::new()
        }
        fn output(&self) -> Option<()> {
            Some(())
        }
    }

    /// Reads `[u32 len][body]` frames off `stream` until `total` entries
    /// from node 0 have arrived, returning how many did.
    async fn read_entries(
        stream: &mut tokio::net::TcpStream,
        kc: &delphi_crypto::Keychain,
        total: usize,
    ) -> usize {
        let mut got = 0usize;
        while got < total {
            let mut len_buf = [0u8; 4];
            stream.read_exact(&mut len_buf).await.unwrap();
            let mut body = vec![0u8; u32::from_be_bytes(len_buf) as usize];
            stream.read_exact(&mut body).await.unwrap();
            let (from, entries) = decode_inbound_frame_ref(kc, &body).expect("authentic frame");
            assert_eq!(from, NodeId(0));
            got += entries.len();
        }
        got
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn shutdown_drains_queued_frames_to_slow_peer() {
        // Node 0 bursts 50 frames at a peer that is slow to come up: the
        // runner's writer is still in its dial-retry loop when the
        // protocol output arrives. Shutdown must wait for the queue to
        // flush (bounded by drain_timeout) — the old fixed 50 ms sleep +
        // abort dropped every one of these frames.
        let k = 50usize;
        let addrs = free_addrs(2).await;
        let peer_addr = addrs[1];
        let keychain = delphi_crypto::Keychain::derive(b"drain-test", NodeId(0), 2);
        let opts = RunOptions {
            linger: Duration::ZERO,
            flush: FlushPolicy::PerEntry, // one frame per envelope: all 50 must arrive
            ..RunOptions::default()
        };
        let runner = tokio::spawn(async move {
            run_node(Burst { id: NodeId(0), k }, keychain, addrs, opts).await
        });

        // The peer appears only after the old grace period has long passed.
        tokio::time::sleep(Duration::from_millis(250)).await;
        let listener = TcpListener::bind(peer_addr).await.unwrap();
        let reader = tokio::spawn(async move {
            let kc = delphi_crypto::Keychain::derive(b"drain-test", NodeId(1), 2);
            let (mut stream, _) = listener.accept().await.unwrap();
            read_entries(&mut stream, &kc, k).await
        });

        let (_, stats) = runner.await.unwrap().expect("run ok");
        assert_eq!(stats.sent_frames, k as u64, "every queued frame flushed before return");
        assert_eq!(stats.sent_entries, k as u64);
        assert_eq!(reader.await.unwrap(), k, "slow peer received every frame");
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn shutdown_drains_every_egress_lane_before_writer_close() {
        // Four Burst instances across 4 receive shards — four workers,
        // each flushing its own lane — all firing at a peer that comes up
        // late: shutdown must close the WORKERS first, each flushing what
        // its lane still holds into the writer queue, and only then close
        // the writer, or whole workers' worth of frames would vanish.
        // Every one of the 4 × k frames must reach the slow peer.
        let k = 50usize;
        let instances = 4usize;
        let total = k * instances;
        let addrs = free_addrs(2).await;
        let peer_addr = addrs[1];
        let keychain = delphi_crypto::Keychain::derive(b"lane-drain", NodeId(0), 2);
        let opts = RunOptions {
            linger: Duration::ZERO,
            flush: FlushPolicy::PerEntry, // one frame per envelope: all of them must arrive
            recv_shards: 4,
            ..RunOptions::default()
        };
        let runner = tokio::spawn(async move {
            let nodes: Vec<Burst> = (0..instances).map(|_| Burst { id: NodeId(0), k }).collect();
            run_instances(nodes, keychain, addrs, opts).await
        });

        tokio::time::sleep(Duration::from_millis(250)).await;
        let listener = TcpListener::bind(peer_addr).await.unwrap();
        let reader = tokio::spawn(async move {
            let kc = delphi_crypto::Keychain::derive(b"lane-drain", NodeId(1), 2);
            let (mut stream, _) = listener.accept().await.unwrap();
            read_entries(&mut stream, &kc, total).await
        });

        let (_, stats) = runner.await.unwrap().expect("run ok");
        assert_eq!(stats.sent_frames, total as u64, "every worker drained before writer close");
        assert_eq!(stats.sent_entries, total as u64);
        assert_eq!(stats.egress_shard_entries.iter().sum::<u64>(), total as u64);
        assert!(
            stats.egress_shard_entries.iter().filter(|&&c| c > 0).count() > 1,
            "the burst must have exercised more than one worker: {:?}",
            stats.egress_shard_entries
        );
        assert_eq!(reader.await.unwrap(), total, "slow peer received every frame");
    }

    /// One-round epoch gossip: each `(epoch, asset)` instance broadcasts
    /// `greeting` once and outputs after `quorum` greetings. With
    /// `quorum = n - 1` completion needs every peer, so the stream
    /// exercises real multi-epoch coordination.
    struct EpochGossip {
        id: NodeId,
        n: usize,
        tag: f64,
        heard: usize,
        quorum: usize,
        greeting: Bytes,
    }

    impl Protocol for EpochGossip {
        type Output = f64;
        fn node_id(&self) -> NodeId {
            self.id
        }
        fn n(&self) -> usize {
            self.n
        }
        fn start(&mut self) -> Vec<Envelope> {
            vec![Envelope::to_all(self.greeting.clone())]
        }
        fn on_message(&mut self, _: NodeId, _: &[u8]) -> Vec<Envelope> {
            self.heard += 1;
            Vec::new()
        }
        fn output(&self) -> Option<f64> {
            (self.heard >= self.quorum).then_some(self.tag)
        }
    }

    fn gossip_mux(
        me: NodeId,
        n: usize,
        cfg: delphi_primitives::EpochConfig,
        quorum: usize,
        greeting: Bytes,
    ) -> EpochMux<EpochGossip> {
        EpochMux::new(
            cfg,
            me,
            n,
            Box::new(move |e, a| EpochGossip {
                id: me,
                n,
                tag: f64::from(e.0) * 10.0 + f64::from(a.0),
                heard: 0,
                quorum,
                greeting: greeting.clone(),
            }),
        )
    }

    fn epoch_mux(
        me: NodeId,
        n: usize,
        cfg: delphi_primitives::EpochConfig,
    ) -> EpochMux<EpochGossip> {
        gossip_mux(me, n, cfg, n - 1, Bytes::from_static(b"g"))
    }

    async fn run_epoch_cluster(
        seed: &'static [u8],
        flush: FlushPolicy,
        recv_shards: usize,
    ) -> Vec<NetStats> {
        let n = 3;
        let epochs = 8u32;
        let assets = 2u16;
        let addrs = free_addrs(n).await;
        let mut handles = Vec::new();
        for id in NodeId::all(n) {
            let keychain = delphi_crypto::Keychain::derive(seed, id, n);
            let mux = epoch_mux(id, n, EpochConfig::new(epochs, assets, 2, 4, 1));
            let addrs = addrs.clone();
            let opts = RunOptions { flush, recv_shards, ..RunOptions::default() };
            handles.push(tokio::spawn(async move {
                run_epoch_service(mux, keychain, addrs, opts).await?.finish().await
            }));
        }
        let mut all_stats = Vec::new();
        for h in handles {
            let (events, epoch_stats, stats) = h.await.unwrap().expect("stream finished");
            assert_eq!(events.len(), epochs as usize);
            for (e, event) in events.iter().enumerate() {
                assert_eq!(event.epoch.index(), e, "ordered stream");
                let EpochOutcome::Agreed(values) = &event.outcome else {
                    panic!("honest stream skipped epoch {e}");
                };
                let expect: Vec<f64> =
                    (0..assets).map(|a| e as f64 * 10.0 + f64::from(a)).collect();
                assert_eq!(values, &expect);
            }
            assert_eq!(epoch_stats.stale_epochs, 0);
            assert!(epoch_stats.peak_resident <= 4, "live window bound over TCP");
            assert_eq!(stats.dropped_frames, 0);
            all_stats.push(stats);
        }
        all_stats
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn epoch_service_streams_over_loopback() {
        let stats = run_epoch_cluster(b"epoch-stream", FlushPolicy::PerStep, 1).await;
        for s in &stats {
            assert!(s.sent_frames > 0 && s.recv_frames > 0);
            assert!(s.recv_entries >= s.recv_frames);
        }
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn sharded_epoch_service_streams_over_loopback() {
        // The same stream with a 2-way sharded receive path: identical
        // (merged, basket-ordered) events — run_epoch_cluster asserts the
        // values — with dispatch spread over both shard counters.
        let stats = run_epoch_cluster(b"epoch-sharded", FlushPolicy::PerStep, 2).await;
        for s in &stats {
            assert_eq!(s.dropped_frames, 0);
            let spread = s.shard_entries.iter().filter(|&&c| c > 0).count();
            assert!(spread > 1, "entries must spread across shards: {:?}", s.shard_entries);
            assert_eq!(s.shard_entries.iter().sum::<u64>(), s.recv_entries);
        }
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn sharded_send_lanes_preserve_epoch_stream() {
        // Two receive shards, so two workers, each flushing the lane of
        // its own class: the entries a class's lane sends must equal the
        // entries the RECEIVERS dispatch on that shard — the per-shard
        // egress load the simulator models is the real per-worker load,
        // by construction. run_epoch_cluster already asserts the merged
        // events are identical to every other configuration's.
        let stats = run_epoch_cluster(b"epoch-send-sharded", FlushPolicy::PerStep, 2).await;
        let mut egress_lane_totals = [0u64; MAX_RECV_SHARDS];
        let mut recv_shard_totals = [0u64; MAX_RECV_SHARDS];
        for s in &stats {
            assert_eq!(s.dropped_egress, 0);
            assert_eq!(s.egress_shard_entries.iter().sum::<u64>(), s.sent_entries);
            assert_eq!(s.egress_shard_macs.iter().sum::<u64>(), s.sent_frames);
            let spread = s.egress_shard_entries.iter().filter(|&&c| c > 0).count();
            assert!(spread > 1, "egress must spread across workers: {:?}", s.egress_shard_entries);
            for lane in 0..MAX_RECV_SHARDS {
                egress_lane_totals[lane] += s.egress_shard_entries[lane];
                recv_shard_totals[lane] += s.shard_entries[lane];
            }
        }
        assert_eq!(
            egress_lane_totals, recv_shard_totals,
            "per-class egress load == per-shard dispatch load across the cluster"
        );
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn more_shards_than_assets_clamps_instead_of_wedging() {
        // recv_shards = 4 with a 2-asset basket: the service must clamp
        // the shard count to the basket so ingress routing and the
        // pipeline split agree — a mismatched modulus would strand
        // entries on workers that own nothing and time the stream out.
        let stats = run_epoch_cluster(b"epoch-overshard", FlushPolicy::PerStep, 4).await;
        for s in &stats {
            assert_eq!(s.dropped_frames, 0);
            assert_eq!(s.shard_entries.iter().sum::<u64>(), s.recv_entries);
            assert!(
                s.shard_entries[2..].iter().all(|&c| c == 0),
                "entries past the clamped shard count: {:?}",
                s.shard_entries
            );
        }
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn adaptive_flush_cuts_frames_per_entry_over_tcp() {
        let per_step = run_epoch_cluster(b"epoch-perstep", FlushPolicy::PerStep, 1).await;
        let adaptive = run_epoch_cluster(
            b"epoch-adaptive",
            FlushPolicy::Adaptive {
                max_entries: 8,
                max_bytes: 4096,
                max_delay: Duration::from_millis(5),
            },
            1,
        )
        .await;
        let total = |v: &[NetStats]| {
            v.iter().fold((0u64, 0u64), |(f, e), s| (f + s.sent_frames, e + s.sent_entries))
        };
        let (ps_frames, ps_entries) = total(&per_step);
        let (ad_frames, ad_entries) = total(&adaptive);
        // Independent asynchronous executions: compare the
        // schedule-independent per-entry frame cost.
        assert!(
            ad_frames * ps_entries < ps_frames * ad_entries,
            "adaptive {ad_frames}/{ad_entries} vs per-step {ps_frames}/{ps_entries} \
             frames per entry"
        );
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn adaptive_lock_step_rounds_do_not_wait_out_max_delay() {
        // A lock-step Wave: each round's broadcast depends on every
        // peer's previous one, so nothing else can fill a worker's inbox
        // while its answer is pending. An adaptive worker flushes the
        // moment its inbox is empty, so a round costs loopback hops, not
        // `max_delay`: a rule that paced flushes on a timer would need
        // at least `rounds × max_delay` here.
        let (n, rounds) = (3usize, 40u8);
        let max_delay = Duration::from_millis(50);
        let flush = FlushPolicy::Adaptive { max_entries: 32, max_bytes: 8 * 1024, max_delay };
        let addrs = free_addrs(n).await;
        let started = std::time::Instant::now();
        let mut handles = Vec::new();
        for id in NodeId::all(n) {
            let keychain = delphi_crypto::Keychain::derive(b"wave-idle-flush", id, n);
            let addrs = addrs.clone();
            let opts = RunOptions {
                flush,
                linger: Duration::ZERO,
                reconnect_delay: Duration::from_millis(5),
                ..RunOptions::default()
            };
            handles.push(tokio::spawn(async move {
                run_node(Wave::new(id, n, rounds), keychain, addrs, opts).await
            }));
        }
        for h in handles {
            let (seen, _) = h.await.unwrap().expect("node finished");
            assert!(seen >= usize::from(rounds) * (n - 1));
        }
        let elapsed = started.elapsed();
        let bound = max_delay * u32::from(rounds) / 4;
        assert!(elapsed < bound, "{rounds} lock-step rounds took {elapsed:?} (bound {bound:?})");
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn peer_that_never_reads_is_dropped_to_while_the_stream_completes() {
        // Node 3 accepts every connection and never reads a byte. Its
        // socket buffers fill (a few MiB on loopback), its writers block
        // mid-frame, its queues (4 frames) fill, and from then on every
        // frame for it is dropped and counted — while the three live
        // nodes, whose workers never wait for anybody, finish the whole
        // stream among themselves (quorum 2 of the 3 peers). The silent
        // peer is sent 6 MiB per node; the greetings stay small enough
        // that the two live peers' greetings for epochs a lagging node
        // has not spawned yet (up to `depth × assets` each) fit its
        // 256 KiB early-entry buffer — an overflow there drops an honest
        // greeting and the epoch is skipped.
        let n = 4;
        let epochs = 192u32;
        let assets = 2u16;
        let greeting = Bytes::from(vec![0x5a; 16 * 1024]);
        let addrs = free_addrs(n).await;
        let silent = TcpListener::bind(addrs[3]).await.unwrap();
        let (held_tx, mut held_rx) = mpsc::channel::<tokio::net::TcpStream>(n);
        tokio::spawn(async move {
            while let Ok((stream, _)) = silent.accept().await {
                if held_tx.send(stream).await.is_err() {
                    break;
                }
            }
        });
        let mut handles = Vec::new();
        for id in NodeId::all(n).take(3) {
            let keychain = delphi_crypto::Keychain::derive(b"never-reads", id, n);
            let mux =
                gossip_mux(id, n, EpochConfig::new(epochs, assets, 2, 4, 1), 2, greeting.clone());
            let addrs = addrs.clone();
            let opts = RunOptions {
                egress_capacity: 4,
                deadline: Duration::from_secs(30),
                linger: Duration::from_millis(100),
                drain_timeout: Duration::from_millis(300),
                ..RunOptions::default()
            };
            handles.push(tokio::spawn(async move {
                run_epoch_service(mux, keychain, addrs, opts).await?.finish().await
            }));
        }
        for h in handles {
            let (events, _, stats) = h.await.unwrap().expect("stream finished before the deadline");
            assert_eq!(events.len(), epochs as usize);
            assert!(
                events.iter().all(|ev| matches!(ev.outcome, EpochOutcome::Agreed(_))),
                "the live nodes agree every epoch among themselves"
            );
            assert!(stats.dropped_egress > 0, "frames to the silent peer must be dropped");
            assert_eq!(stats.dropped_egress_shard[0], stats.dropped_egress);
            // Only the silent peer's frames were dropped: every greeting
            // between live nodes was needed for an epoch to agree.
            let per_peer = u64::from(epochs) * u64::from(assets);
            assert!(stats.dropped_egress <= per_peer, "{} drops", stats.dropped_egress);
            assert_eq!(stats.dropped_frames, 0);
        }
        // The connections were accepted, and stayed open and unread to
        // the end: the drops are the never-reading kind.
        let mut held = Vec::new();
        while let Some(stream) = tokio::select! {
            s = held_rx.recv() => s,
            _ = tokio::time::sleep(Duration::from_millis(10)) => None,
        } {
            held.push(stream);
        }
        assert_eq!(held.len(), 3, "every live node dialled the silent peer");
    }

    #[tokio::test]
    async fn flush_trigger_fires_on_an_empty_inbox_or_past_the_ceiling() {
        let frame =
            || ShardInput::Frame(VerifiedFrame { from: NodeId(1), body: Bytes::from_static(b"") });
        let (tx, mut rx) = mpsc::channel::<ShardInput>(4);
        let ms = Duration::from_millis;
        let far = Instant::now() + ms(500);

        // Pending work, empty inbox: flush at once, not at the ceiling.
        let started = std::time::Instant::now();
        assert!(next_input(&mut rx, Some(far)).await.is_none());
        assert!(started.elapsed() < ms(50), "waited {:?} for a flush", started.elapsed());

        // A frame already waiting is answered first; the flush follows
        // as soon as the inbox is empty, carrying its answers too.
        tx.try_send(frame()).unwrap();
        tx.try_send(frame()).unwrap();
        assert!(matches!(next_input(&mut rx, Some(far)).await, Some(ShardInput::Frame(_))));
        assert!(matches!(next_input(&mut rx, Some(far)).await, Some(ShardInput::Frame(_))));
        assert!(next_input(&mut rx, Some(far)).await.is_none());

        // Past the ceiling the flush goes first however much is waiting,
        // so a peer that keeps the inbox full cannot hold entries back.
        let passed = Instant::now() - ms(1);
        tx.try_send(frame()).unwrap();
        assert!(next_input(&mut rx, Some(passed)).await.is_none());
        assert!(matches!(next_input(&mut rx, None).await, Some(ShardInput::Frame(_))));

        // Nothing pending: the worker parks on its inbox until a frame
        // arrives.
        let late = tx.clone();
        let sender = tokio::spawn(async move {
            tokio::time::sleep(ms(30)).await;
            late.try_send(frame()).unwrap();
        });
        let parked = std::time::Instant::now();
        assert!(matches!(next_input(&mut rx, None).await, Some(ShardInput::Frame(_))));
        assert!(parked.elapsed() >= ms(30), "returned after {:?}", parked.elapsed());
        sender.await.unwrap();

        // No senders left: the inbox reads as Close, pending or not.
        drop(tx);
        assert!(matches!(next_input(&mut rx, Some(far)).await, Some(ShardInput::Close)));
        assert!(matches!(next_input(&mut rx, None).await, Some(ShardInput::Close)));
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 2)]
    async fn epoch_deadline_failure_aborts_workers_and_writers_without_hanging() {
        // No peer ever comes up: the stream cannot resolve, the writers
        // sit in their dial-retry loops, the workers on their inboxes.
        // The deadline must tear all of it down and report, promptly.
        let n = 4;
        let addrs = free_addrs(n).await;
        let keychain = delphi_crypto::Keychain::derive(b"epoch-deadline", NodeId(0), n);
        let mux = epoch_mux(NodeId(0), n, EpochConfig::new(4, 2, 2, 4, 1));
        let opts = RunOptions {
            deadline: Duration::from_millis(300),
            recv_shards: 2,
            flush: FlushPolicy::adaptive(),
            ..RunOptions::default()
        };
        let started = std::time::Instant::now();
        let handle = run_epoch_service(mux, keychain, addrs, opts).await.expect("service starts");
        let err = handle.finish().await.expect_err("nobody to agree with");
        assert!(matches!(err, NetError::Timeout), "{err}");
        assert!(started.elapsed() < Duration::from_secs(5), "deadline failure must not hang");
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn live_tail_matches_the_finished_stream() {
        // One node tails its own stream while it runs; the tail must be
        // the finished stream, event for event, and must end (None) as
        // soon as the stream completes — not when the linger ends.
        let n = 3;
        let epochs = 6u32;
        let addrs = free_addrs(n).await;
        let mut peers = Vec::new();
        for id in NodeId::all(n).skip(1) {
            let keychain = delphi_crypto::Keychain::derive(b"live-tail", id, n);
            let mux = epoch_mux(id, n, EpochConfig::new(epochs, 2, 2, 4, 1));
            let addrs = addrs.clone();
            peers.push(tokio::spawn(async move {
                run_epoch_service(mux, keychain, addrs, RunOptions::default()).await?.finish().await
            }));
        }
        let keychain = delphi_crypto::Keychain::derive(b"live-tail", NodeId(0), n);
        let mux = epoch_mux(NodeId(0), n, EpochConfig::new(epochs, 2, 2, 4, 1));
        let mut handle = run_epoch_service(mux, keychain, addrs, RunOptions::default())
            .await
            .expect("service starts");
        // A detached stats probe stays readable while the stream runs and
        // after it finishes.
        let probe = handle.stats();
        let mut tail = Vec::new();
        while let Some(event) = handle.next_event().await {
            // Mid-stream snapshots are coherent: sharded 2-asset basket
            // under a window of 4 — never more resident, never stale.
            let mid = probe.epoch_snapshot();
            assert!(mid.peak_resident <= 4, "torn or wild snapshot: {mid:?}");
            assert_eq!(mid.stale_epochs, 0);
            tail.push(event);
        }
        let (events, epoch_stats, _) = handle.finish().await.expect("stream finished");
        assert_eq!(tail, events, "the live tail is the finished stream");
        assert_eq!(tail.len(), epochs as usize);
        assert_eq!(probe.epoch_snapshot(), epoch_stats, "probe converges to the final stats");
        assert!(probe.net_snapshot().recv_frames > 0);
        for p in peers {
            p.await.unwrap().expect("peer stream finished");
        }
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 2)]
    async fn late_frames_to_evicted_epochs_counted_in_net_stats() {
        use crate::frame::encode_epoch_frame;
        // Node 0 runs a 2-epoch stream with a 1-epoch window; a raw-socket
        // peer replays an epoch-0 entry after epoch 0 was completed and
        // evicted. The late entry must be dropped, counted, and harmless.
        let addrs = free_addrs(2).await;
        let kc0 = delphi_crypto::Keychain::derive(b"late-test", NodeId(0), 2);
        let kc1 = delphi_crypto::Keychain::derive(b"late-test", NodeId(1), 2);
        let mux = epoch_mux(NodeId(0), 2, EpochConfig::new(2, 1, 1, 1, 1));
        let opts = RunOptions {
            linger: Duration::from_millis(200),
            drain_timeout: Duration::from_millis(500),
            ..RunOptions::default()
        };
        let handle =
            run_epoch_service(mux, kc0, addrs.clone(), opts).await.expect("service starts");
        let probe = handle.stats();

        // The peer accepts node 0's outbound connection and discards its
        // frames, so shutdown drains cleanly.
        let sink = TcpListener::bind(addrs[1]).await.unwrap();
        tokio::spawn(async move {
            loop {
                let Ok((mut s, _)) = sink.accept().await else { break };
                tokio::spawn(async move {
                    let mut buf = [0u8; 64];
                    while s.read_exact(&mut buf).await.is_ok() {}
                });
            }
        });

        let mut stream = loop {
            match tokio::net::TcpStream::connect(addrs[0]).await {
                Ok(s) => break s,
                Err(_) => tokio::time::sleep(Duration::from_millis(10)).await,
            }
        };
        use tokio::io::AsyncWriteExt;
        let entry = |epoch: u32| {
            vec![(
                delphi_primitives::AgreementId::new(
                    delphi_primitives::EpochId(epoch),
                    InstanceId(0),
                ),
                Bytes::from_static(b"g"),
            )]
        };
        // Epoch 0 completes and is evicted when epoch 1 spawns.
        stream.write_all(&encode_epoch_frame(&kc1, NodeId(0), &entry(0))).await.unwrap();
        tokio::time::sleep(Duration::from_millis(100)).await;
        // Replay epoch 0: late — and visible in the live snapshots (what
        // `/v0/stats` serves) while the stream is still running.
        stream.write_all(&encode_epoch_frame(&kc1, NodeId(0), &entry(0))).await.unwrap();
        let patience = std::time::Instant::now() + Duration::from_secs(10);
        while probe.net_snapshot().late_entries == 0 {
            assert!(std::time::Instant::now() < patience, "live NetStats never saw the late entry");
            tokio::time::sleep(Duration::from_millis(5)).await;
        }
        assert_eq!(probe.net_snapshot().late_entries, 1);
        assert_eq!(probe.epoch_snapshot().late_entries, 1);
        // Finish the stream with epoch 1.
        stream.write_all(&encode_epoch_frame(&kc1, NodeId(0), &entry(1))).await.unwrap();

        let (events, epoch_stats, stats) = handle.finish().await.expect("stream finished");
        assert_eq!(events.len(), 2);
        assert_eq!(epoch_stats.late_entries, 1, "the replayed entry is late");
        assert_eq!(stats.late_entries, 1, "counted once: the final NetStats agree");
        assert_eq!(probe.net_snapshot().late_entries, 1);
        assert_eq!(stats.dropped_frames, 0, "late != dropped: the frame authenticated");
    }

    #[tokio::test]
    async fn epoch_identity_mismatch_rejected() {
        let keychain = delphi_crypto::Keychain::derive(b"x", NodeId(0), 4);
        let mux = epoch_mux(NodeId(0), 2, EpochConfig::new(1, 1, 1, 1, 0));
        let Err(err) = run_epoch_service(
            mux,
            keychain,
            vec!["127.0.0.1:1".parse().unwrap(); 4],
            RunOptions::default(),
        )
        .await
        else {
            panic!("identity mismatch must be rejected before the stream starts");
        };
        assert!(matches!(err, NetError::Config(_)), "{err}");
    }

    #[tokio::test]
    async fn config_mismatch_rejected() {
        let keychain = delphi_crypto::Keychain::derive(b"x", NodeId(0), 4);
        let node = BinAaNode::new(NodeId(0), 4, 1, true, 4);
        let err =
            run_node(node, keychain, vec!["127.0.0.1:1".parse().unwrap()], RunOptions::default())
                .await
                .unwrap_err();
        assert!(matches!(err, NetError::Config(_)), "{err}");
        // An instance that disagrees with the keychain on identity.
        let keychain = delphi_crypto::Keychain::derive(b"x", NodeId(0), 4);
        let nodes = vec![
            BinAaNode::new(NodeId(0), 4, 1, true, 4),
            BinAaNode::new(NodeId(1), 4, 1, true, 4),
        ];
        let addrs = vec!["127.0.0.1:1".parse().unwrap(); 4];
        let err = run_instances(nodes, keychain, addrs, RunOptions::default()).await.unwrap_err();
        assert!(matches!(err, NetError::Config(_)), "{err}");
    }

    #[tokio::test]
    async fn empty_instance_list_rejected() {
        let keychain = delphi_crypto::Keychain::derive(b"x", NodeId(0), 1);
        let err = run_instances(
            Vec::<BinAaNode>::new(),
            keychain,
            vec!["127.0.0.1:1".parse().unwrap()],
            RunOptions::default(),
        )
        .await
        .unwrap_err();
        assert!(matches!(err, NetError::Config(_)), "{err}");
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 2)]
    async fn timeout_when_peers_missing() {
        let n = 4;
        let addrs = free_addrs(n).await;
        let keychain = delphi_crypto::Keychain::derive(b"x", NodeId(0), n);
        let node = BinAaNode::new(NodeId(0), n, 1, true, 4);
        let opts = RunOptions { deadline: Duration::from_millis(300), ..RunOptions::default() };
        let err = run_node(node, keychain, addrs, opts).await.unwrap_err();
        assert!(matches!(err, NetError::Timeout), "{err}");
    }

    #[test]
    fn error_display() {
        assert!(NetError::Timeout.to_string().contains("deadline"));
        assert!(NetError::Config("x".into()).to_string().contains("x"));
        let io = NetError::from(std::io::Error::other("boom"));
        assert!(io.to_string().contains("boom"));
    }
}
