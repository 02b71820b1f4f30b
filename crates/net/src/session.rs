//! Per-peer authenticated sessions: batching under the run's flush
//! policy, worker-owned egress lanes, and drain-on-shutdown.
//!
//! A [`SessionSet`] owns the write side of the mesh: one bounded queue
//! and one [`transport`](crate::transport) write loop per peer. It hands
//! every dispatch worker an [`EgressLane`] — a plain struct the worker
//! owns and drives on its own thread — so a protocol step's output is
//! routed, batched, encoded and MACed by the thread that produced it and
//! crosses exactly one queue, the peer's writer queue, on its way out:
//!
//! - a worker owns the instances of one receive-shard class (the stable
//!   `shard()` hash the receive path dispatches by), so everything it
//!   sends belongs to that class and its lane needs one pending buffer
//!   per destination; every frame therefore lands wholly on one dispatch
//!   worker at the receiver, and send parallelism *is* receive
//!   parallelism;
//! - the lane accumulates entries under the session's [`FlushPolicy`]:
//!   size triggers run inline in [`EgressLane::send_step`]; otherwise the
//!   adaptive worker flushes the moment its inbox is empty, after
//!   answering every frame already waiting, so one flush carries the
//!   answers to all of them. There is no timer: the only time trigger is
//!   the ceiling ([`EgressLane::flush_ceiling`], `max_delay` after the
//!   first pending entry), checked on every loop turn of a worker that is
//!   running anyway because its inbox is not empty;
//! - every flush is one frame ([`encode_epoch_frame`]) under one HMAC
//!   tag: a whole step's envelopes for a peer per-step, several steps'
//!   adaptively, a single envelope under the per-entry baseline;
//! - routing and pending buffers are recycled between flushes (the
//!   free-list in `PendingBatches`), so a steady-state flush allocates
//!   nothing but the frame itself; `NetStats::buffer_reuses` counts the
//!   hits;
//! - encoded frames are `try_send`-handed to the bounded per-peer writer
//!   queues; a full queue drops the frame, counted globally
//!   (`dropped_egress`), per shard class (`dropped_egress_shard`) and per
//!   `(peer, class)` site — so a single slow peer (drops in one peer's
//!   row, across classes) is never confused with a saturated worker
//!   (drops in one class's column, across peers). A worker never waits
//!   for a peer;
//! - shutdown is "workers flush, then writer queues close": the service
//!   closes its workers — each flushes what its lane still holds and
//!   drops the lane — and only then [`SessionSet::shutdown`] closes the
//!   writer queues and waits (bounded) for the write loops to flush, so
//!   a slow peer still receives everything that was queued.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use delphi_crypto::Keychain;
use delphi_primitives::epoch::route_epoch_bursts_into;
use delphi_primitives::{AgreementId, Envelope, FlushPolicy, NodeId, PendingBatches};
use tokio::sync::mpsc;
use tokio::time::Instant;

use crate::frame::encode_epoch_frame;
use crate::transport::{spawn_writer, Counters, MAX_RECV_SHARDS};

/// Hands `frame` to a peer's bounded writer queue, returning whether it
/// was dropped because the peer is `egress_capacity` frames behind. The
/// flush paths run on a dispatch worker, so blocking for room is not an
/// option — and is not wanted: a peer slower than its queue is treated
/// like a crashed peer (the `t < n/3` budget) instead of a memory leak
/// or a stalled worker. A closed queue means the writer already exited
/// (shutdown/abort); the frame is silently discarded exactly as the old
/// unbounded send was.
fn send_or_drop(tx: &mpsc::Sender<Bytes>, frame: Bytes, counters: &Counters) -> bool {
    if let Err(mpsc::error::TrySendError::Full(_)) = tx.try_send(frame) {
        counters.dropped_egress.fetch_add(1, Ordering::Relaxed);
        return true;
    }
    false
}

/// Per-`(peer, class)` egress drop sites: the attribution that separates
/// "peer 2 is slow" (one row lights up, across classes) from "worker 0
/// is saturated" (one column lights up, across peers). Shared between
/// the lanes; the first drop at a site emits one log line.
struct EgressDropSites {
    /// `counts[peer * MAX_RECV_SHARDS + class]`.
    counts: Vec<AtomicU64>,
}

impl EgressDropSites {
    fn new(n: usize) -> EgressDropSites {
        EgressDropSites { counts: (0..n * MAX_RECV_SHARDS).map(|_| AtomicU64::new(0)).collect() }
    }

    /// Records one drop at `(peer, class)`, returning the new site count.
    fn record(&self, peer: usize, class: usize) -> u64 {
        self.counts[peer * MAX_RECV_SHARDS + class].fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Per-peer rows of per-class drop counts.
    #[cfg(test)]
    fn snapshot(&self) -> Vec<[u64; MAX_RECV_SHARDS]> {
        self.counts
            .chunks(MAX_RECV_SHARDS)
            .map(|row| {
                let mut out = [0u64; MAX_RECV_SHARDS];
                for (slot, c) in out.iter_mut().zip(row) {
                    *slot = c.load(Ordering::Relaxed);
                }
                out
            })
            .collect()
    }
}

/// One dispatch worker's send side: the per-destination pending buffers
/// of its receive-shard class, the flush policy's triggers, and frame
/// encode + HMAC — all run by the worker itself, on its own thread.
pub(crate) struct EgressLane {
    /// The worker's receive-shard class (the index its counters and drop
    /// sites are attributed to).
    class: usize,
    keychain: Arc<Keychain>,
    counters: Arc<Counters>,
    drop_sites: Arc<EgressDropSites>,
    /// Clones of the per-peer writer senders: writers observe close only
    /// once every lane is gone *and* the session set dropped its copies.
    peer_tx: Vec<Option<mpsc::Sender<Bytes>>>,
    /// Per-destination entries awaiting flush — the same accumulator
    /// `EpochProtocol` uses under the simulator, so the two transports
    /// share one flush-trigger semantics.
    pending: PendingBatches,
    /// Reused routing buffers, one per destination.
    routed: Vec<Vec<(AgreementId, Bytes)>>,
    /// The adaptive policy's `max_delay` (None per-step and per-entry).
    flush_delay: Option<Duration>,
    /// The flush ceiling: `max_delay` after the first entry went
    /// pending, armed exactly while anything is pending.
    flush_at: Option<Instant>,
    /// Reuse hits already published into the shared counter.
    published_reuses: u64,
}

impl EgressLane {
    /// Sends one protocol step's output: the envelope bursts of every
    /// instance that acted, routed per destination, accumulated, and
    /// flushed where the session's [`FlushPolicy`] says a destination is
    /// due (per-step always; per-entry after every entry; adaptive on the
    /// size triggers, arming [`flush_ceiling`](EgressLane::flush_ceiling)
    /// for what stays pending).
    pub(crate) fn send_step(&mut self, bursts: Vec<(AgreementId, Vec<Envelope>)>) {
        if bursts.is_empty() {
            return; // most entries trigger nothing
        }
        let mut routed = std::mem::take(&mut self.routed);
        route_epoch_bursts_into(bursts, self.peer_tx.len(), self.keychain.node_id(), &mut routed);
        for (dest, entries) in routed.iter_mut().enumerate() {
            if entries.is_empty() || self.peer_tx[dest].is_none() {
                continue;
            }
            self.counters.sent_entries.fetch_add(entries.len() as u64, Ordering::Relaxed);
            while self.pending.push_drain(dest, entries) {
                self.flush_dest(dest);
            }
        }
        self.routed = routed;
        match self.flush_delay {
            Some(delay) if self.pending.has_pending() => {
                self.flush_at.get_or_insert_with(|| Instant::now() + delay);
            }
            _ => self.flush_at = None,
        }
    }

    /// Flushes everything still pending, for every destination: start
    /// bursts, lingering steps, an idle inbox or the ceiling, and the
    /// final drain before the worker exits.
    pub(crate) fn flush_all(&mut self) {
        for dest in 0..self.pending.dests() {
            self.flush_dest(dest);
        }
        self.flush_at = None;
    }

    /// The adaptive ceiling: `max_delay` after the first entry went
    /// pending, kept until a flush has emptied every destination, `None`
    /// while nothing waits (and always per-step and per-entry). The
    /// owning worker flushes with [`flush_all`](EgressLane::flush_all)
    /// once its inbox is empty, or once this has passed.
    pub(crate) fn flush_ceiling(&self) -> Option<Instant> {
        self.flush_at
    }

    fn flush_dest(&mut self, dest: usize) {
        let entries = self.pending.take(dest);
        if entries.is_empty() {
            return;
        }
        let Some(Some(tx)) = self.peer_tx.get(dest) else {
            self.pending.recycle(entries);
            return;
        };
        self.counters.egress_shard_entries[self.class]
            .fetch_add(entries.len() as u64, Ordering::Relaxed);
        let frame = encode_epoch_frame(&self.keychain, NodeId(dest as u16), &entries);
        self.ship_frame(dest, tx, frame);
        self.pending.recycle(entries);
        // Per-lane deltas: lanes share the counter, so `store` would race.
        let reuses = self.pending.reuse_hits();
        if reuses > self.published_reuses {
            self.counters
                .buffer_reuses
                .fetch_add(reuses - self.published_reuses, Ordering::Relaxed);
            self.published_reuses = reuses;
        }
    }

    /// Hands one freshly tagged frame to `dest`'s writer queue, counting
    /// its encode-side HMAC and attributing any overflow drop to this
    /// worker's class and the `(peer, class)` site.
    fn ship_frame(&self, dest: usize, tx: &mpsc::Sender<Bytes>, frame: Bytes) {
        self.counters.mac_ops.fetch_add(1, Ordering::Relaxed);
        self.counters.egress_shard_macs[self.class].fetch_add(1, Ordering::Relaxed);
        if send_or_drop(tx, frame, &self.counters) {
            self.counters.dropped_egress_shard[self.class].fetch_add(1, Ordering::Relaxed);
            if self.drop_sites.record(dest, self.class) == 1 {
                eprintln!(
                    "delphi-net: shard worker {} started dropping frames to peer {} \
                     (writer queue full)",
                    self.class, dest
                );
            }
        }
    }
}

/// The outbound half of a full-mesh node: one authenticated session — a
/// bounded frame queue and its lazy-dialing write loop — per peer, and
/// the factory of the [`EgressLane`]s that feed them.
pub(crate) struct SessionSet {
    /// `peer_tx[p]` queues frames for peer `p`; `None` at our own slot.
    /// Queues are bounded (`egress_capacity` frames): a peer that falls
    /// further behind has its frames dropped and counted in
    /// `NetStats::dropped_egress` — a slower-than-capacity peer is
    /// treated as crashed (within the `t < n/3` budget) rather than
    /// allowed to inflate memory or stall a worker. The set keeps these
    /// originals so writers close only after the lanes (which hold
    /// clones) are gone.
    peer_tx: Vec<Option<mpsc::Sender<Bytes>>>,
    writer_tasks: Vec<tokio::task::JoinHandle<()>>,
    keychain: Arc<Keychain>,
    counters: Arc<Counters>,
    drop_sites: Arc<EgressDropSites>,
    flush: FlushPolicy,
}

impl SessionSet {
    /// Opens a session (a lazy-dialing write loop behind a queue of
    /// `egress_capacity` frames) to every peer in `addrs` except
    /// `keychain.node_id()` itself.
    pub(crate) fn connect(
        keychain: Arc<Keychain>,
        addrs: &[SocketAddr],
        reconnect_delay: Duration,
        counters: Arc<Counters>,
        flush: FlushPolicy,
        egress_capacity: usize,
    ) -> SessionSet {
        assert!(egress_capacity >= 1, "need at least one frame of egress capacity");
        let me = keychain.node_id();
        let n = addrs.len();
        let mut peer_tx: Vec<Option<mpsc::Sender<Bytes>>> = Vec::with_capacity(n);
        let mut writer_tasks = Vec::new();
        for peer in NodeId::all(n) {
            if peer == me {
                peer_tx.push(None);
                continue;
            }
            let (tx, rx) = mpsc::channel::<Bytes>(egress_capacity);
            peer_tx.push(Some(tx));
            writer_tasks.push(spawn_writer(
                addrs[peer.index()],
                rx,
                reconnect_delay,
                counters.clone(),
            ));
        }
        let drop_sites = Arc::new(EgressDropSites::new(n));
        SessionSet { peer_tx, writer_tasks, keychain, counters, drop_sites, flush }
    }

    /// The egress lane for the dispatch worker owning receive-shard
    /// class `class`: its own pending buffers over clones of the writer
    /// queues.
    pub(crate) fn lane(&self, class: usize) -> EgressLane {
        assert!(class < MAX_RECV_SHARDS, "shard class out of range");
        EgressLane {
            class,
            keychain: self.keychain.clone(),
            counters: self.counters.clone(),
            drop_sites: self.drop_sites.clone(),
            peer_tx: self.peer_tx.clone(),
            pending: PendingBatches::new(self.peer_tx.len(), self.flush),
            routed: Vec::new(),
            flush_delay: match self.flush {
                FlushPolicy::Adaptive { max_delay, .. } => Some(max_delay),
                FlushPolicy::PerEntry | FlushPolicy::PerStep => None,
            },
            flush_at: None,
            published_reuses: 0,
        }
    }

    /// The shared per-`(peer, class)` drop sites (test observability).
    #[cfg(test)]
    fn drop_sites(&self) -> Arc<EgressDropSites> {
        self.drop_sites.clone()
    }

    /// Graceful drain of the write side, to be called once the workers
    /// have flushed and dropped their lanes: closes the per-peer queues
    /// so each write loop flushes its remaining frames and exits at
    /// channel-close, and joins them against `drain_deadline`. Closing
    /// the writers before the workers are done would lose whatever the
    /// lanes still buffered — the workers-flush-before-writer-close
    /// ordering is load-bearing.
    pub(crate) async fn shutdown(self, drain_deadline: Instant) {
        let SessionSet { peer_tx, writer_tasks, .. } = self;
        // The lanes are gone (their clones dropped); releasing the
        // originals is what lets the writers observe close.
        drop(peer_tx);
        for task in writer_tasks {
            let mut task = task;
            tokio::select! {
                _ = &mut task => {},
                _ = tokio::time::sleep_until(drain_deadline) => task.abort(),
            }
        }
    }

    /// Aborts every writer immediately, dropping queued frames (used on
    /// deadline failure, where there is no output worth draining for).
    pub(crate) fn abort(self) {
        for w in self.writer_tasks {
            w.abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delphi_primitives::Envelope;

    #[test]
    fn send_or_drop_counts_overflow_and_keeps_capacity_frames() {
        let counters = Counters::default();
        let (tx, mut rx) = mpsc::channel::<Bytes>(4);
        for i in 0u8..100 {
            send_or_drop(&tx, Bytes::from(vec![i]), &counters);
        }
        assert_eq!(counters.dropped_egress.load(Ordering::Relaxed), 96);
        // The frames that made it are the first four, in order.
        drop(tx);
        let mut delivered = Vec::new();
        while let Some(frame) = futures_recv(&mut rx) {
            delivered.push(frame[0]);
        }
        assert_eq!(delivered, vec![0, 1, 2, 3]);
    }

    /// Drains one value from a receiver without a runtime (the channel
    /// stub resolves immediately when a value or closure is available).
    fn futures_recv(rx: &mut mpsc::Receiver<Bytes>) -> Option<Bytes> {
        tokio::runtime::Runtime::new().ok()?.block_on(rx.recv())
    }

    /// A `SessionSet` for node 0 of `n` whose peers all live at a dead
    /// address (nothing listens on port 1): every writer parks in its
    /// dial-retry loop after the first failure and never drains.
    fn dead_peer_sessions(
        n: usize,
        counters: &Arc<Counters>,
        flush: FlushPolicy,
        egress_capacity: usize,
    ) -> SessionSet {
        let keychain = Arc::new(Keychain::derive(b"egress", NodeId(0), n));
        let addrs: Vec<SocketAddr> = vec!["127.0.0.1:1".parse().unwrap(); n];
        SessionSet::connect(
            keychain,
            &addrs,
            Duration::from_secs(60),
            counters.clone(),
            flush,
            egress_capacity,
        )
    }

    /// One step carrying one envelope for `dest`.
    fn send_one(lane: &mut EgressLane, dest: u16, payload: &[u8]) {
        lane.send_step(vec![(
            AgreementId::default(),
            vec![Envelope::to_one(NodeId(dest), Bytes::copy_from_slice(payload))],
        )]);
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 2)]
    async fn full_writer_queue_drops_frames_instead_of_growing() {
        // Peer 1's writer can never drain. With `egress_capacity = 4`,
        // flushing 100 single-envelope steps must keep at most capacity
        // frames queued (+1 the writer may already hold while dialing)
        // and count every other frame as dropped egress — never grow
        // memory, never make the sending worker wait.
        let counters = Arc::new(Counters::default());
        let sessions = dead_peer_sessions(2, &counters, FlushPolicy::PerStep, 4);
        let mut lane = sessions.lane(0);
        for step in 0..100u16 {
            send_one(&mut lane, 1, &step.to_be_bytes());
        }
        // The lane runs on this thread, so the drop count is final here.
        let dropped = counters.dropped_egress.load(Ordering::Relaxed);
        assert!(
            (95..=96).contains(&dropped),
            "expected all but capacity(+1 in-flight) frames dropped, got {dropped}"
        );
        assert_eq!(counters.dropped_egress_shard[0].load(Ordering::Relaxed), dropped);
        assert_eq!(counters.mac_ops.load(Ordering::Relaxed), 100, "every frame was tagged");
        assert_eq!(lane.flush_ceiling(), None, "a per-step lane never holds entries back");
        drop(lane);
        // The parked writer is aborted at the deadline.
        sessions.shutdown(Instant::now() + Duration::from_millis(300)).await;
        assert_eq!(counters.sent_frames.load(Ordering::Relaxed), 0);
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 2)]
    async fn egress_drops_attribute_slow_peer_vs_saturated_lane() {
        // Two workers (shard classes 0 and 1) over three nodes, queues of
        // two frames, no peer ever draining.
        let run = |traffic: &[(u16, usize)]| {
            let counters = Arc::new(Counters::default());
            let sessions = dead_peer_sessions(3, &counters, FlushPolicy::PerStep, 2);
            let mut lanes = [sessions.lane(0), sessions.lane(1)];
            for _ in 0..30 {
                for &(dest, class) in traffic {
                    send_one(&mut lanes[class], dest, b"x");
                }
            }
            (sessions.drop_sites().snapshot(), counters.snapshot(), sessions)
        };

        // Cause 1 — a slow peer: overflow traffic from BOTH workers, but
        // only toward peer 1. Drops must land in peer 1's row across
        // both classes, and nowhere in peer 2's row — the signature that
        // says "that peer is behind", not "a worker is saturated".
        let (rows, snap, sessions) = run(&[(1, 0), (1, 1)]);
        assert!(rows[1][0] > 0 && rows[1][1] > 0, "slow peer drops on both classes: {rows:?}");
        assert!(rows[2].iter().all(|&c| c == 0), "no drops to the idle peer: {rows:?}");
        assert_eq!(
            snap.dropped_egress_shard.iter().sum::<u64>(),
            snap.dropped_egress,
            "every drop is attributed to a shard class"
        );
        sessions.abort();

        // Cause 2 — a saturated worker: overflow traffic from ONE class
        // toward both peers. Drops must land in class 0's column across
        // both peers, and never on class 1.
        let (rows, snap, sessions) = run(&[(1, 0), (2, 0)]);
        assert!(rows[1][0] > 0 && rows[2][0] > 0, "class-0 drops for both peers: {rows:?}");
        assert!(rows.iter().all(|row| row[1] == 0), "the idle class must stay clean: {rows:?}");
        assert_eq!(snap.dropped_egress_shard[1], 0);
        assert_eq!(snap.dropped_egress_shard[0], snap.dropped_egress);
        sessions.abort();
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 2)]
    async fn adaptive_lane_arms_one_ceiling_until_everything_is_flushed() {
        let counters = Arc::new(Counters::default());
        let max_delay = Duration::from_millis(5);
        let flush = FlushPolicy::Adaptive { max_entries: 2, max_bytes: 4096, max_delay };
        let sessions = dead_peer_sessions(3, &counters, flush, 16);
        let mut lane = sessions.lane(0);
        assert_eq!(lane.flush_ceiling(), None, "nothing pending, nothing armed");
        let before = Instant::now();
        send_one(&mut lane, 1, b"a");
        let after = Instant::now();
        send_one(&mut lane, 2, b"b");
        assert_eq!(counters.mac_ops.load(Ordering::Relaxed), 0, "below every size trigger");
        // The ceiling is `max_delay` after the FIRST pending entry — not
        // re-armed by the second, and not doubled.
        let armed = lane.flush_ceiling().expect("armed by the first pending entry");
        assert!(before + max_delay <= armed && armed <= after + max_delay, "{armed:?}");
        // The size trigger flushes peer 1 inline; peer 2's entry still
        // waits under the ceiling it was armed with.
        send_one(&mut lane, 1, b"c");
        assert_eq!(counters.mac_ops.load(Ordering::Relaxed), 1);
        assert_eq!(lane.flush_ceiling(), Some(armed));
        lane.flush_all();
        assert_eq!(counters.mac_ops.load(Ordering::Relaxed), 2);
        assert_eq!(counters.egress_shard_entries[0].load(Ordering::Relaxed), 3);
        assert_eq!(lane.flush_ceiling(), None, "disarmed once nothing is pending");
        // A size trigger that empties every destination disarms it too.
        send_one(&mut lane, 1, b"d");
        assert!(lane.flush_ceiling().is_some());
        send_one(&mut lane, 1, b"e");
        assert_eq!(counters.mac_ops.load(Ordering::Relaxed), 3);
        assert_eq!(lane.flush_ceiling(), None, "the size trigger left nothing pending");
        drop(lane);
        sessions.abort();
    }
}
