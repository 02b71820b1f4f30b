//! Protocol-driving service: the one full-mesh node runner.
//!
//! [`run_epoch_service`] drives a long-lived epoch pipeline — the
//! deployment shape — and is the only service loop. A single agreement
//! is a stream of one epoch: [`run_node`] wraps one pre-built protocol
//! instance in [`EpochProtocol::one_epoch`] and unwraps the single event.
//! The service layer runs the [`EpochProtocol`] its caller built — the
//! state machine the simulator drives, with its routing, batching, flush
//! policy and batch encoding — and owns the run lifecycle (start,
//! dispatch, linger, drain); per-peer framing and tags belong to
//! [`session`](crate::session), sockets and read/write loops to
//! [`transport`](crate::transport).
//!
//! # The hot path: one thread from frame to frame
//!
//! 1. a transport read loop verifies the tag and validates the batch
//!    structure **borrowed** (no per-entry allocation), then ships the
//!    batch as a slice of the refcounted body (`VerifiedFrame`) to the
//!    node's one dispatch worker;
//! 2. the worker owns the whole pipeline outright (no lock on the
//!    per-entry path) as an [`EpochProtocol`] — the very state machine
//!    the simulator runs — and drives it on its own thread:
//!    `on_message` walks the batch (no MAC) and takes one protocol step
//!    per entry, appending its bursts to one pending list and flushing
//!    it under the [`FlushPolicy`]'s size triggers; `on_tick` flushes the
//!    rest the moment the inbox is empty (or first, once the `max_delay`
//!    ceiling has passed under backlog), with no timer;
//! 3. the worker's egress lane ([`session`](crate::session)) frames and
//!    hashes each flushed batch once, tags it for each peer it reaches
//!    (every peer, for a broadcast) and writes each frame straight to its
//!    peer's non-blocking socket; only a write that would block goes to
//!    the peer's writer task (which also dials): a peer that stops
//!    reading costs dropped frames at that task's bounded queue, never a
//!    stalled worker.
//!
//! What the worker reports leaves it one way each: every resolved event
//! goes straight to the live tail, the pipeline's counters to one
//! seqlocked [`StatsCell`] after every frame, and the complete stream to the
//! service loop once, at completion. The service loop sees only the
//! deadline, the linger window, and the shutdown order (the worker
//! flushes, then writer queues close).

use std::error::Error;
use std::fmt;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use delphi_crypto::Keychain;
use delphi_primitives::{
    CounterGroup, EpochEvent, EpochOutcome, EpochProtocol, EpochStats, FlushPolicy, Protocol,
    StatsCell,
};
use tokio::net::TcpListener;
use tokio::sync::mpsc;
use tokio::sync::mpsc::error::TryRecvError;
use tokio::time::Instant;

use crate::session::{EgressLane, SessionSet};
use crate::transport::{spawn_acceptor, Counters, NetStats, WorkerInput};

/// Network runner failure.
#[derive(Debug)]
pub enum NetError {
    /// Listener could not be bound or a socket operation failed fatally.
    Io(std::io::Error),
    /// The address list does not match the keychain's deployment size.
    Config(String),
    /// The protocol did not produce an output within the deadline.
    Timeout,
    /// A runner invariant broke (the worker died or reported inconsistent
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

/// Tuning knobs for [`run_epoch_service`] (and [`run_node`]).
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// How long to keep serving peers after our own output is ready.
    ///
    /// Asynchronous BFT protocols routinely need messages from already-
    /// finished nodes (quorum amplification); killing the process at
    /// output time can stall slower peers.
    pub linger: Duration,
    /// Overall deadline for producing an output.
    pub deadline: Duration,
    /// How long shutdown may wait for writer queues to flush to peers.
    pub drain_timeout: Duration,
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
            deadline: Duration::from_secs(60),
            drain_timeout: Duration::from_secs(5),
            egress_capacity: 1024,
        }
    }
}

/// The dispatch worker's next event: the next inbox message, or `None`
/// when its protocol should flush (`on_tick`). With nothing pending (no
/// `ceiling`) the worker parks on its inbox. With entries pending it
/// never waits: a frame already waiting is answered first — the flush
/// then carries its answers to everything it has seen — and the flush
/// goes the moment the inbox is empty. A backlog (or a peer flooding the
/// inbox) must not hold pending entries back for good, so once the
/// `ceiling` has passed the flush goes first. An inbox nobody can write
/// to any more reads as [`WorkerInput::Close`].
async fn next_input(
    rx: &mut mpsc::Receiver<WorkerInput>,
    ceiling: Option<Instant>,
) -> Option<WorkerInput> {
    let Some(ceiling) = ceiling else {
        return Some(rx.recv().await.unwrap_or(WorkerInput::Close));
    };
    if Instant::now() >= ceiling {
        return None;
    }
    match rx.try_recv() {
        Ok(input) => Some(input),
        Err(TryRecvError::Empty) => None,
        Err(TryRecvError::Disconnected) => Some(WorkerInput::Close),
    }
}

/// The first half of a graceful shutdown — the worker flushes, then
/// writer queues close: tells the dispatch worker to flush what its
/// protocol still holds and exit, and joins it against
/// `drain_deadline` (if it misses it, it is aborted; its lane goes with
/// it).
async fn close_worker(
    inbox: &mpsc::Sender<WorkerInput>,
    mut worker: tokio::task::JoinHandle<()>,
    drain_deadline: Instant,
) {
    tokio::select! {
        _ = inbox.send(WorkerInput::Close) => {},
        _ = tokio::time::sleep_until(drain_deadline) => {},
    }
    tokio::select! {
        _ = &mut worker => {},
        _ = tokio::time::sleep_until(drain_deadline) => worker.abort(),
    }
}

/// The dispatch worker, frame in to frame out: the whole pipeline as one
/// [`EpochProtocol`], writing everything it flushes through its egress
/// lane and publishing its live counters through `stats` after every
/// frame (late entries served during the linger window must still be
/// counted). Each resolved event goes to `tail` as it resolves; at
/// completion the whole stream goes to `done` once, and the tail closes.
async fn dispatch_worker<P>(
    mut rx: mpsc::Receiver<WorkerInput>,
    mut node: EpochProtocol<P>,
    mut egress: EgressLane,
    tail: mpsc::UnboundedSender<EpochEvent<P::Output>>,
    done: mpsc::Sender<Vec<EpochEvent<P::Output>>>,
    stats: ServiceStats,
) where
    P: Protocol + Send + 'static,
    P::Output: Clone + Send,
{
    // Start bursts must not wait for traffic.
    egress.send(node.start(), node.pending_delay());
    egress.send(node.on_tick(), node.pending_delay());
    let mut stream = Vec::new();
    let mut outlets = Some((tail, done));
    loop {
        for event in node.drain_events() {
            if let Some((tail, _)) = &outlets {
                // A dropped tail is fine: nobody is reading live.
                let _ = tail.send(event.clone());
            }
            stream.push(event);
        }
        if node.is_complete() {
            if let Some((_, done)) = outlets.take() {
                if done.try_send(std::mem::take(&mut stream)).is_err() {
                    break;
                }
            }
            // The linger contract: a finished worker keeps answering
            // peers still working through the stream's tail, and what it
            // answers leaves at once.
            egress.send(node.on_tick(), node.pending_delay());
        }
        stats.cell.publish(&node.stats());
        let frame = match next_input(&mut rx, egress.flush_ceiling()).await {
            Some(WorkerInput::Frame(frame)) => frame,
            None => {
                egress.send(node.on_tick(), node.pending_delay());
                continue;
            }
            Some(WorkerInput::Close) => break,
        };
        // One protocol step per entry, inside `on_message`: the step a
        // simulated node takes, so both transports flush alike.
        egress.send(node.on_message(frame.from, &frame.batch), node.pending_delay());
    }
    egress.send(node.on_tick(), node.pending_delay());
    stats.cell.publish(&node.stats());
}

/// Live observability probe for a running epoch service: cheap coherent
/// snapshots of the counters the dispatch worker publishes and of the
/// transport counters. Cloneable and detachable from the
/// [`EpochServiceHandle`], so a stats route or a monitoring thread can
/// read while the service runs.
#[derive(Clone)]
pub struct ServiceStats {
    cell: Arc<StatsCell<EpochStats>>,
    counters: Arc<Counters>,
}

impl ServiceStats {
    /// One coherent copy of the epoch-layer counters, readable at any
    /// point of the run (during linger included).
    pub fn epoch_snapshot(&self) -> EpochStats {
        self.cell.snapshot()
    }

    /// The transport counters as of now; those the dispatch worker publishes
    /// come from the same live cell as
    /// [`epoch_snapshot`](ServiceStats::epoch_snapshot).
    pub fn net_snapshot(&self) -> NetStats {
        let published = self.cell.snapshot();
        NetStats::from_values(self.counters.snapshot().pairs().map(|(name, value)| {
            published.pairs().find(|&(n, _)| n == name).map_or(value, |(_, v)| v)
        }))
    }
}

/// A running epoch service, returned by [`run_epoch_service`] beside its
/// live event tail:
///
/// - [`stats`](EpochServiceHandle::stats) reads live coherent counters;
/// - [`finish`](EpochServiceHandle::finish) awaits the run and returns
///   the complete stream plus final counters.
pub struct EpochServiceHandle<O> {
    stats: ServiceStats,
    task: tokio::task::JoinHandle<EpochRunResult<O>>,
}

/// What a finished epoch run resolves to: the complete ordered event
/// stream, final epoch counters, and transport counters.
pub type EpochRunResult<O> = Result<(Vec<EpochEvent<O>>, EpochStats, NetStats), NetError>;

impl<O> EpochServiceHandle<O> {
    /// A cloneable live-stats probe (usable after `finish` consumed the
    /// handle).
    pub fn stats(&self) -> ServiceStats {
        self.stats.clone()
    }

    /// Awaits the run: the complete ordered event stream, final epoch
    /// counters, and transport counters.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] if the stream is unresolved at the deadline,
    /// [`NetError::Internal`] if the service task itself panicked or was
    /// aborted.
    pub async fn finish(self) -> EpochRunResult<O> {
        match self.task.await {
            Ok(result) => result,
            Err(e) => Err(NetError::Internal(format!("epoch service task failed: {e}"))),
        }
    }
}

/// Runs `node` — a long-lived epoch pipeline, as its caller built it —
/// over one full TCP mesh until every epoch of the stream has resolved.
///
/// This is the deployment shape of a streaming oracle: the pipeline keeps
/// spawning agreement instances epoch after epoch, the service carries
/// their traffic as epoch-addressed entries in authenticated frames, and
/// one dispatch worker owns the whole pipeline and flushes its batches
/// under the [`FlushPolicy`] it was built with — per step, or adaptively
/// on size triggers and whenever its inbox runs empty. Entries addressed
/// to epochs the pipeline has already garbage-collected are dropped and
/// surface in [`NetStats::late_entries`].
///
/// Config validation and the listener bind happen before this returns;
/// the run itself proceeds in a background task owned by the returned
/// [`EpochServiceHandle`]. Beside the handle comes the live tail: the
/// basket-ordered [`EpochEvent`]s as epochs resolve, closed once the
/// stream is complete (a serving layer tails it without touching the
/// protocol hot path; drop it if nobody reads live). Read live counters
/// via [`EpochServiceHandle::stats`], and collect the completed stream
/// via [`EpochServiceHandle::finish`]:
///
/// ```ignore
/// let (handle, mut tail) = run_epoch_service(node, keychain, addrs, opts).await?;
/// while let Some(event) = tail.recv().await { /* serve it */ }
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
    node: EpochProtocol<P>,
    keychain: Keychain,
    addrs: Vec<SocketAddr>,
    opts: RunOptions,
) -> Result<(EpochServiceHandle<P::Output>, EventTail<P::Output>), NetError>
where
    P: Protocol + Send + 'static,
    P::Output: Clone + Send,
{
    let me = keychain.node_id();
    let n = keychain.n();
    if addrs.len() != n {
        return Err(NetError::Config(format!("{} addresses for {n} nodes", addrs.len())));
    }
    if node.n() != n || node.node_id() != me {
        return Err(NetError::Config("epoch pipeline identity mismatch".into()));
    }
    if opts.egress_capacity == 0 {
        return Err(NetError::Config("egress_capacity must be at least 1".into()));
    }

    let counters = Arc::new(Counters::default());
    let keychain = Arc::new(keychain);
    let listener = TcpListener::bind(addrs[me.index()]).await?;
    let (inbox, in_rx) = mpsc::channel::<WorkerInput>(1024);
    let accept_task = spawn_acceptor(listener, keychain.clone(), inbox.clone(), counters.clone());
    let sessions = SessionSet::connect(keychain, &addrs, counters.clone(), opts.egress_capacity);

    let cell = Arc::new(StatsCell::new(EpochStats::default()));
    let stats = ServiceStats { cell, counters };
    // Locally produced events, already bounded by the pipeline: at most
    // `window` epochs are in flight, each emitting one event, and no remote
    // peer can make the producer outrun that; a capacity here would only
    // back-pressure the protocol loop on a slow event reader.
    // lint: allow(bounded-channel) — producer is pipeline-bounded (see above)
    let (tail_tx, tail) = mpsc::unbounded_channel();
    let (done_tx, mut done_rx) = mpsc::channel(1);
    let lane = sessions.lane();
    let worker = tokio::spawn(dispatch_worker(in_rx, node, lane, tail_tx, done_tx, stats.clone()));
    let probe = stats.clone();

    let task = tokio::spawn(async move {
        let deadline = Instant::now() + opts.deadline;
        let completed = tokio::select! {
            events = done_rx.recv() => events,
            _ = tokio::time::sleep_until(deadline) => None,
        };
        let Some(events) = completed else {
            // The deadline — or the worker exited (the ingress died) and
            // no more traffic can ever arrive: fail now rather than
            // spinning until the deadline. There is no output worth
            // draining for.
            accept_task.abort();
            worker.abort();
            sessions.abort();
            return Err(NetError::Timeout);
        };

        // Linger: the worker keeps serving peers still working through
        // the stream's tail.
        tokio::time::sleep(opts.linger).await;

        let drain_deadline = Instant::now() + opts.drain_timeout;
        close_worker(&inbox, worker, drain_deadline).await;
        // Final counters come from the live cells, so late entries served
        // during the linger window (traffic for already-GC'd epochs) are
        // still counted — events were final at completion, counters were
        // not.
        let epoch_stats = probe.epoch_snapshot();
        sessions.shutdown(drain_deadline).await;
        accept_task.abort();
        Ok((events, epoch_stats, probe.net_snapshot()))
    });

    Ok((EpochServiceHandle { stats, task }, tail))
}

/// The live tail [`run_epoch_service`] hands out beside its handle.
pub type EventTail<O> = mpsc::UnboundedReceiver<EpochEvent<O>>;

/// Runs `protocol` over a full TCP mesh until it produces an output: a
/// one-epoch stream through [`run_epoch_service`]
/// ([`EpochProtocol::one_epoch`], flushed per step), so the transport
/// contract, the linger (the resolved epoch is never evicted: a finished
/// node keeps answering) and the drain-on-shutdown are that function's.
///
/// # Errors
///
/// As [`run_epoch_service`] and [`EpochServiceHandle::finish`]; a stream
/// that resolves without agreeing is [`NetError::Internal`].
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
    let node = EpochProtocol::one_epoch(vec![protocol], FlushPolicy::PerStep);
    let (handle, _) = run_epoch_service(node, keychain, addrs, opts).await?;
    let (mut events, _, stats) = handle.finish().await?;
    let agreed = match events.pop().map(|event| event.outcome) {
        Some(EpochOutcome::Agreed(mut outputs)) => outputs.pop(),
        _ => None,
    };
    let no_agreement = || NetError::Internal("a one-epoch stream did not agree".into());
    Ok((agreed.ok_or_else(no_agreement)?, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{decode_inbound_frame_ref, EPOCH_FRAME_OVERHEAD_BYTES};
    use crate::transport::VerifiedFrame;
    use bytes::Bytes;
    use delphi_core::BinAaNode;
    use delphi_primitives::epoch::epoch_entry_overhead;
    use delphi_primitives::{
        AgreementId, Dyadic, Envelope, EpochConfig, EpochId, InstanceId, NodeId,
    };
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

    /// Runs a basket of pre-built instances as one one-epoch stream,
    /// flushed under `flush`, and returns the outputs of its one agreed
    /// event.
    async fn run_basket<P>(
        instances: Vec<P>,
        flush: FlushPolicy,
        keychain: Keychain,
        addrs: Vec<SocketAddr>,
        opts: RunOptions,
    ) -> Result<(Vec<P::Output>, NetStats), NetError>
    where
        P: Protocol + Send + 'static,
        P::Output: Clone + Send,
    {
        let node = EpochProtocol::one_epoch(instances, flush);
        let (handle, _) = run_epoch_service(node, keychain, addrs, opts).await?;
        let (mut events, _, stats) = handle.finish().await?;
        match events.pop().map(|event| event.outcome) {
            Some(EpochOutcome::Agreed(outputs)) => Ok((outputs, stats)),
            _ => panic!("a one-epoch stream ends in one agreed event"),
        }
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
                run_basket(nodes, FlushPolicy::PerStep, keychain, addrs, RunOptions::default())
                    .await
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

    async fn run_wave_cluster(seed: &'static [u8], flush: FlushPolicy) -> NetStats {
        let addrs = free_addrs(WAVE_N).await;
        let mut handles = Vec::new();
        for id in NodeId::all(WAVE_N) {
            let keychain = delphi_crypto::Keychain::derive(seed, id, WAVE_N);
            let nodes: Vec<Wave> =
                (0..WAVE_INSTANCES).map(|_| Wave::new(id, WAVE_N, WAVE_ROUNDS)).collect();
            let addrs = addrs.clone();
            let opts = RunOptions::default();
            handles.push(tokio::spawn(async move {
                run_basket(nodes, flush, keychain, addrs, opts).await
            }));
        }
        let mut total = NetStats::default();
        for h in handles {
            let (outs, stats) = h.await.unwrap().expect("node finished");
            assert_eq!(outs.len(), WAVE_INSTANCES);
            assert_eq!(stats.dropped_frames, 0);
            assert_eq!(stats.dropped_egress, 0);
            // Every frame paid exactly one encode-side tag.
            assert_eq!(stats.sent_tags, stats.sent_frames);
            total.sent_frames += stats.sent_frames;
            total.sent_bytes += stats.sent_bytes;
            total.sent_entries += stats.sent_entries;
            total.sent_head_bytes += stats.sent_head_bytes;
            total.mac_ops += stats.mac_ops;
        }
        total
    }

    /// The Wave workload under the simulator — each node a one-epoch
    /// per-step `EpochProtocol` over the same basket — the reference the
    /// TCP runner's accounting must match. Returns `(messages, wire
    /// bytes, entries)`.
    fn run_wave_simulation() -> (u64, u64, u64) {
        use delphi_sim::{Simulation, Topology};
        let nodes: Vec<Box<dyn Protocol<Output = Vec<EpochEvent<usize>>>>> = NodeId::all(WAVE_N)
            .map(|id| {
                let basket =
                    (0..WAVE_INSTANCES).map(|_| Wave::new(id, WAVE_N, WAVE_ROUNDS)).collect();
                let node = EpochProtocol::one_epoch(basket, FlushPolicy::PerStep);
                Box::new(node) as Box<dyn Protocol<Output = Vec<EpochEvent<usize>>>>
            })
            .collect();
        let report = Simulation::new(Topology::lan(WAVE_N)).seed(7).run(nodes);
        assert!(report.all_honest_finished(), "sim wave run stalled");
        // Entries: every wave is a broadcast from every instance.
        let entries = (WAVE_N * WAVE_INSTANCES * usize::from(WAVE_ROUNDS) * (WAVE_N - 1)) as u64;
        (report.metrics.total_msgs(), report.metrics.total_wire_bytes(), entries)
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn batching_reduces_frames_and_macs_at_equal_envelope_count() {
        let batched = run_wave_cluster(b"wave-batched", FlushPolicy::PerStep).await;
        let unbatched = run_wave_cluster(b"wave-unbatched", FlushPolicy::PerEntry).await;
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
        // Every wave entry is of epoch 0 and an asset below 128: a 3-byte
        // head, which the head counter sums.
        let payload = b"wave".len();
        let head = epoch_entry_overhead(AgreementId::new(EpochId(0), InstanceId(0)), payload);
        assert_eq!(head, 3);
        assert_eq!(batched.sent_head_bytes, batched.sent_entries * head as u64);
        assert_eq!(
            batched.sent_bytes,
            batched.sent_frames * EPOCH_FRAME_OVERHEAD_BYTES as u64
                + batched.sent_entries * (head + payload) as u64
        );
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn egress_matches_simulated_accounting_exactly() {
        // The sim/TCP parity test on the worker-owned send side. The
        // worker flushes one step per entry — exactly what a simulated
        // one-epoch `EpochProtocol` does — so the frames, entries, wire
        // bytes and encode-side MACs on the wire must EQUAL the simulated
        // accounting: simulated cost IS real cost, which is what makes
        // the sim sweeps trustworthy.
        let (sim_msgs, sim_bytes, sim_entries) = run_wave_simulation();
        let total = run_wave_cluster(b"wave-parity", FlushPolicy::PerStep).await;
        assert_eq!(total.sent_frames, sim_msgs, "TCP frames == simulated messages");
        assert_eq!(total.sent_entries, sim_entries, "TCP entries == simulated envelopes");
        assert_eq!(total.sent_bytes, sim_bytes, "TCP bytes == simulated wire bytes");
        // (`run_wave_cluster` asserts per node that encode-side MACs
        // equal frames, so the MAC count is pinned with them.)
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
        // Adaptive flushing on a one-epoch basket. Entries are
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
                let opts = RunOptions::default();
                handles.push(tokio::spawn(async move {
                    run_basket(nodes, flush, keychain, addrs, opts).await
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
        let opts = RunOptions { linger: Duration::ZERO, ..RunOptions::default() };
        // One frame per envelope: all 50 must arrive.
        let runner = tokio::spawn(async move {
            let burst = vec![Burst { id: NodeId(0), k }];
            run_basket(burst, FlushPolicy::PerEntry, keychain, addrs, opts).await
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
        // Four Burst instances on the one worker, all firing at a peer
        // that comes up late: shutdown must close the WORKER first,
        // flushing what its protocol still holds into the writer queue,
        // and only then close the writer, or those frames would vanish.
        // Every one of the 4 × k frames must reach the slow peer.
        let k = 50usize;
        let instances = 4usize;
        let total = k * instances;
        let addrs = free_addrs(2).await;
        let peer_addr = addrs[1];
        let keychain = delphi_crypto::Keychain::derive(b"lane-drain", NodeId(0), 2);
        let opts = RunOptions { linger: Duration::ZERO, ..RunOptions::default() };
        // One frame per envelope: all of them must arrive.
        let runner = tokio::spawn(async move {
            let nodes: Vec<Burst> = (0..instances).map(|_| Burst { id: NodeId(0), k }).collect();
            run_basket(nodes, FlushPolicy::PerEntry, keychain, addrs, opts).await
        });

        tokio::time::sleep(Duration::from_millis(250)).await;
        let listener = TcpListener::bind(peer_addr).await.unwrap();
        let reader = tokio::spawn(async move {
            let kc = delphi_crypto::Keychain::derive(b"lane-drain", NodeId(1), 2);
            let (mut stream, _) = listener.accept().await.unwrap();
            read_entries(&mut stream, &kc, total).await
        });

        let (_, stats) = runner.await.unwrap().expect("run ok");
        assert_eq!(stats.sent_frames, total as u64, "the worker drained before writer close");
        assert_eq!(stats.sent_entries, total as u64);
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

    fn gossip_node(
        me: NodeId,
        n: usize,
        cfg: EpochConfig,
        quorum: usize,
        greeting: Bytes,
        flush: FlushPolicy,
    ) -> EpochProtocol<EpochGossip> {
        let factory = move |e: EpochId, a: InstanceId| EpochGossip {
            id: me,
            n,
            tag: f64::from(e.0) * 10.0 + f64::from(a.0),
            heard: 0,
            quorum,
            greeting: greeting.clone(),
        };
        EpochProtocol::new(cfg, me, n, Box::new(factory), flush)
    }

    fn epoch_node(
        me: NodeId,
        n: usize,
        cfg: EpochConfig,
        flush: FlushPolicy,
    ) -> EpochProtocol<EpochGossip> {
        gossip_node(me, n, cfg, n - 1, Bytes::from_static(b"g"), flush)
    }

    async fn run_epoch_cluster(seed: &'static [u8], flush: FlushPolicy) -> Vec<NetStats> {
        let n = 3;
        let epochs = 8u32;
        let assets = 2u16;
        let addrs = free_addrs(n).await;
        let mut handles = Vec::new();
        for id in NodeId::all(n) {
            let keychain = delphi_crypto::Keychain::derive(seed, id, n);
            let node = epoch_node(id, n, EpochConfig::new(epochs, assets, 2, 4), flush);
            let addrs = addrs.clone();
            let opts = RunOptions::default();
            handles.push(tokio::spawn(async move {
                run_epoch_service(node, keychain, addrs, opts).await?.0.finish().await
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
        let stats = run_epoch_cluster(b"epoch-stream", FlushPolicy::PerStep).await;
        for s in &stats {
            assert!(s.sent_frames > 0 && s.recv_frames > 0);
            assert!(s.recv_entries >= s.recv_frames);
        }
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn adaptive_flush_cuts_frames_per_entry_over_tcp() {
        let per_step = run_epoch_cluster(b"epoch-perstep", FlushPolicy::PerStep).await;
        let adaptive = run_epoch_cluster(
            b"epoch-adaptive",
            FlushPolicy::Adaptive {
                max_entries: 8,
                max_bytes: 4096,
                max_delay: Duration::from_millis(5),
            },
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
            let opts = RunOptions { linger: Duration::ZERO, ..RunOptions::default() };
            handles.push(tokio::spawn(async move {
                run_basket(vec![Wave::new(id, n, rounds)], flush, keychain, addrs, opts).await
            }));
        }
        for h in handles {
            let (seen, _) = h.await.unwrap().expect("node finished");
            assert!(seen.iter().all(|&seen| seen >= usize::from(rounds) * (n - 1)));
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
            let cfg = EpochConfig::new(epochs, assets, 2, 4);
            let node = gossip_node(id, n, cfg, 2, greeting.clone(), FlushPolicy::PerStep);
            let addrs = addrs.clone();
            let opts = RunOptions {
                egress_capacity: 4,
                deadline: Duration::from_secs(30),
                linger: Duration::from_millis(100),
                drain_timeout: Duration::from_millis(300),
            };
            handles.push(tokio::spawn(async move {
                run_epoch_service(node, keychain, addrs, opts).await?.0.finish().await
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
        let frame = || {
            WorkerInput::Frame(VerifiedFrame { from: NodeId(1), batch: Bytes::from_static(b"") })
        };
        let (tx, mut rx) = mpsc::channel::<WorkerInput>(4);
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
        assert!(matches!(next_input(&mut rx, Some(far)).await, Some(WorkerInput::Frame(_))));
        assert!(matches!(next_input(&mut rx, Some(far)).await, Some(WorkerInput::Frame(_))));
        assert!(next_input(&mut rx, Some(far)).await.is_none());

        // Past the ceiling the flush goes first however much is waiting,
        // so a peer that keeps the inbox full cannot hold entries back.
        let passed = Instant::now() - ms(1);
        tx.try_send(frame()).unwrap();
        assert!(next_input(&mut rx, Some(passed)).await.is_none());
        assert!(matches!(next_input(&mut rx, None).await, Some(WorkerInput::Frame(_))));

        // Nothing pending: the worker parks on its inbox until a frame
        // arrives.
        let late = tx.clone();
        let sender = tokio::spawn(async move {
            tokio::time::sleep(ms(30)).await;
            late.try_send(frame()).unwrap();
        });
        let parked = std::time::Instant::now();
        assert!(matches!(next_input(&mut rx, None).await, Some(WorkerInput::Frame(_))));
        assert!(parked.elapsed() >= ms(30), "returned after {:?}", parked.elapsed());
        sender.await.unwrap();

        // No senders left: the inbox reads as Close, pending or not.
        drop(tx);
        assert!(matches!(next_input(&mut rx, Some(far)).await, Some(WorkerInput::Close)));
        assert!(matches!(next_input(&mut rx, None).await, Some(WorkerInput::Close)));
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 2)]
    async fn epoch_deadline_failure_aborts_workers_and_writers_without_hanging() {
        // No peer ever comes up: the stream cannot resolve, the writers
        // sit in their dial-retry loops, the workers on their inboxes.
        // The deadline must tear all of it down and report, promptly.
        let n = 4;
        let addrs = free_addrs(n).await;
        let keychain = delphi_crypto::Keychain::derive(b"epoch-deadline", NodeId(0), n);
        let cfg = EpochConfig::new(4, 2, 2, 4);
        let node = epoch_node(NodeId(0), n, cfg, FlushPolicy::adaptive());
        let opts = RunOptions { deadline: Duration::from_millis(300), ..RunOptions::default() };
        let started = std::time::Instant::now();
        let (handle, _) =
            run_epoch_service(node, keychain, addrs, opts).await.expect("service starts");
        let err = handle.finish().await.expect_err("nobody to agree with");
        assert!(matches!(err, NetError::Timeout), "{err}");
        assert!(started.elapsed() < Duration::from_secs(5), "deadline failure must not hang");
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 4)]
    async fn live_tail_matches_the_finished_stream() {
        // One node tails its own stream while it runs; the tail must be
        // the finished stream, event for event, and must end (None) as
        // soon as the stream completes — not when the linger ends. Two
        // instances per epoch.
        let n = 3;
        let epochs = 6u32;
        let cfg = EpochConfig::new(epochs, 2, 2, 4);
        let seed = b"live-tail";
        let node = |id| epoch_node(id, n, cfg, FlushPolicy::PerStep);
        let addrs = free_addrs(n).await;
        let mut peers = Vec::new();
        for id in NodeId::all(n).skip(1) {
            let keychain = delphi_crypto::Keychain::derive(seed, id, n);
            let (node, addrs) = (node(id), addrs.clone());
            peers.push(tokio::spawn(async move {
                run_epoch_service(node, keychain, addrs, RunOptions::default())
                    .await?
                    .0
                    .finish()
                    .await
            }));
        }
        let keychain = delphi_crypto::Keychain::derive(seed, NodeId(0), n);
        let (handle, mut live) =
            run_epoch_service(node(NodeId(0)), keychain, addrs, RunOptions::default())
                .await
                .expect("service starts");
        // A detached stats probe stays readable while the stream runs
        // and after it finishes.
        let probe = handle.stats();
        let mut tail = Vec::new();
        while let Some(event) = live.recv().await {
            // Mid-stream snapshots are coherent: two instances per epoch
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
        let agreed = events.iter().filter(|ev| matches!(ev.outcome, EpochOutcome::Agreed(_)));
        assert_eq!(agreed.count(), epochs as usize, "an honest stream agrees every epoch");
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
        let node = epoch_node(NodeId(0), 2, EpochConfig::new(2, 1, 1, 1), FlushPolicy::PerStep);
        let opts = RunOptions {
            linger: Duration::from_millis(200),
            drain_timeout: Duration::from_millis(500),
            ..RunOptions::default()
        };
        let (handle, _) =
            run_epoch_service(node, kc0, addrs.clone(), opts).await.expect("service starts");
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
        let node = epoch_node(NodeId(0), 2, EpochConfig::new(1, 1, 1, 1), FlushPolicy::PerStep);
        let Err(err) = run_epoch_service(
            node,
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
        let node = BinAaNode::new(NodeId(1), 4, 1, true, 4);
        let addrs = vec!["127.0.0.1:1".parse().unwrap(); 4];
        let err = run_node(node, keychain, addrs, RunOptions::default()).await.unwrap_err();
        assert!(matches!(err, NetError::Config(_)), "{err}");
    }

    #[test]
    fn empty_instance_list_rejected() {
        // A basket reaches the runner only as a one-epoch pipeline, and an
        // empty one is refused where it is built.
        let empty = std::panic::catch_unwind(|| {
            EpochProtocol::one_epoch(Vec::<BinAaNode>::new(), FlushPolicy::PerStep)
        });
        assert!(empty.is_err(), "an empty basket must never reach the runner");
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
