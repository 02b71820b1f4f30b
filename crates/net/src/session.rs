//! Per-peer authenticated sessions: batching under the run's flush
//! policy, worker-owned egress lanes, and drain-on-shutdown.
//!
//! A [`SessionSet`] owns the write side of the mesh: one
//! [`PeerLink`] (a connection and its writer task) per peer. It hands
//! every dispatch worker an [`EgressLane`] — a plain struct the worker
//! owns and drives on its own thread — so a protocol step's output is
//! routed, batched, encoded, MACed and written to the socket by the
//! thread that produced it, crossing no queue unless the socket would
//! block:
//!
//! - a worker owns the instances of one receive-shard class (the stable
//!   `shard()` hash the receive path dispatches by), so everything it
//!   sends belongs to that class and its lane needs one pending buffer
//!   per destination; every frame therefore lands wholly on one dispatch
//!   worker at the receiver, and send parallelism *is* receive
//!   parallelism;
//! - the lane accumulates entries under the session's [`FlushPolicy`]:
//!   size triggers run inline in [`EgressLane::send_step`] once the step
//!   is routed to every destination; otherwise the adaptive worker
//!   flushes the moment its inbox is empty, after answering every frame
//!   already waiting. There is no timer: the only time trigger is the
//!   ceiling ([`EgressLane::flush_ceiling`], `max_delay` after the first
//!   pending entry), checked on every loop turn of a busy worker;
//! - every flush takes one path: one frame per due destination under its
//!   own tag, and destinations whose batches hold the same entries (a
//!   broadcast) share one encoded body and one SHA-256 of it
//!   ([`frame`](crate::frame)); routing, pending and frame buffers are
//!   recycled (`NetStats::buffer_reuses` counts free-list hits);
//! - a frame goes straight to the peer's non-blocking socket, and to the
//!   peer's bounded writer queue only if that would block (or the writer
//!   holds frames, or has not dialed yet); a full queue drops the frame,
//!   counted globally (`dropped_egress`), per shard class
//!   (`dropped_egress_shard`) and per `(peer, class)` site — so a single
//!   slow peer (drops in one peer's row, across classes) is never
//!   confused with a saturated worker (drops in one class's column,
//!   across peers). A worker never waits for a peer;
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
use tokio::time::Instant;

use crate::frame::{encode_untagged, put_tag};
use crate::transport::{open_link, Counters, PeerLink, MAX_RECV_SHARDS};

/// One due destination's batch: `(destination, entries)`.
type Batch = (usize, Vec<(AgreementId, Bytes)>);

/// Whether two batches hold the same ids and the same payload allocations
/// (pointer and length: routing a broadcast clones one `Bytes` per
/// destination) in the same order, so they encode to the same body.
fn same_entries(a: &[(AgreementId, Bytes)], b: &[(AgreementId, Bytes)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((ia, pa), (ib, pb))| {
            ia == ib && std::ptr::eq(pa.as_ptr(), pb.as_ptr()) && pa.len() == pb.len()
        })
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
/// of its receive-shard class, the flush policy's triggers, frame encode,
/// HMAC and the socket write — all run by the worker itself, on its own
/// thread.
pub(crate) struct EgressLane {
    /// The worker's receive-shard class (the index its counters and drop
    /// sites are attributed to).
    class: usize,
    keychain: Arc<Keychain>,
    counters: Arc<Counters>,
    drop_sites: Arc<EgressDropSites>,
    /// Clones of the per-peer links (`None` at our own slot).
    links: Vec<Option<PeerLink>>,
    /// Per-destination entries awaiting flush — the same accumulator
    /// `EpochProtocol` uses under the simulator, so the two transports
    /// share one flush-trigger semantics.
    pending: PendingBatches,
    /// Reused routing buffers, one per destination.
    routed: Vec<Vec<(AgreementId, Bytes)>>,
    /// The batches of the flush being assembled (reused).
    due: Vec<Batch>,
    /// The frame buffer every flush encodes into (capacity kept).
    frame: Vec<u8>,
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
    /// for what stays pending), every due destination in one flush.
    pub(crate) fn send_step(&mut self, bursts: Vec<(AgreementId, Vec<Envelope>)>) {
        if bursts.is_empty() {
            return; // most entries trigger nothing
        }
        let mut routed = std::mem::take(&mut self.routed);
        route_epoch_bursts_into(bursts, self.links.len(), self.keychain.node_id(), &mut routed);
        for (entries, link) in routed.iter_mut().zip(&self.links) {
            if link.is_none() {
                entries.clear();
            }
            self.counters.sent_entries.fetch_add(entries.len() as u64, Ordering::Relaxed);
        }
        // One round per-step and adaptively; per-entry, a round per entry.
        while routed.iter().any(|entries| !entries.is_empty()) {
            for (dest, entries) in routed.iter_mut().enumerate() {
                if self.pending.push_drain(dest, entries) {
                    self.due.push((dest, self.pending.take(dest)));
                }
            }
            self.flush_due();
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
            let entries = self.pending.take(dest);
            if !entries.is_empty() {
                self.due.push((dest, entries));
            }
        }
        self.flush_due();
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

    /// The one flush path: ships the batches in `due`, grouped by
    /// [`same_entries`], and recycles their buffers.
    fn flush_due(&mut self) {
        let mut due = std::mem::take(&mut self.due);
        let mut rest = &mut due[..];
        while let Some((head, others)) = rest.split_first_mut() {
            // Move the batches equal to `head` right behind it.
            let mut shared = 0;
            for i in 0..others.len() {
                if others.get(i).is_some_and(|(_, entries)| same_entries(&head.1, entries)) {
                    others.swap(shared, i);
                    shared += 1;
                }
            }
            let (group, tail) = std::mem::take(&mut rest).split_at_mut(shared + 1);
            self.ship_group(group);
            rest = tail;
        }
        for (_, entries) in due.drain(..) {
            self.pending.recycle(entries);
        }
        self.due = due;
        // Per-lane deltas: lanes share the counter, so `store` would race.
        let reuses = self.pending.reuse_hits();
        if reuses > self.published_reuses {
            self.counters
                .buffer_reuses
                .fetch_add(reuses - self.published_reuses, Ordering::Relaxed);
            self.published_reuses = reuses;
        }
    }

    /// Encodes and hashes a group's body once, then tags and sends it to
    /// each destination, attributing drops to the `(peer, class)` site.
    fn ship_group(&mut self, group: &[Batch]) {
        let Some((_, entries)) = group.first() else { return };
        let digest = encode_untagged(self.keychain.node_id(), entries, &mut self.frame);
        let counters = &self.counters;
        counters.body_hashes.fetch_add(1, Ordering::Relaxed);
        let class = self.class;
        for (dest, entries) in group {
            let Some(Some(link)) = self.links.get(*dest) else { continue };
            counters.egress_shard_entries[class].fetch_add(entries.len() as u64, Ordering::Relaxed);
            counters.mac_ops.fetch_add(1, Ordering::Relaxed);
            counters.egress_shard_macs[class].fetch_add(1, Ordering::Relaxed);
            put_tag(&mut self.frame, self.keychain.channel(NodeId(*dest as u16)), &digest);
            if !link.send(&self.frame, counters) {
                counters.dropped_egress_shard[class].fetch_add(1, Ordering::Relaxed);
                if self.drop_sites.record(*dest, class) == 1 {
                    eprintln!(
                        "delphi-net: shard worker {class} started dropping frames to peer \
                         {dest} (writer queue full)"
                    );
                }
            }
        }
    }
}

/// The outbound half of a full-mesh node: one authenticated session — a
/// [`PeerLink`] and its lazy-dialing writer task — per peer, and the
/// factory of the [`EgressLane`]s that write to them.
pub(crate) struct SessionSet {
    /// `links[p]` carries frames to peer `p`; `None` at our own slot.
    /// Writer queues are bounded (`egress_capacity` frames): a peer that
    /// falls further behind has its frames dropped and counted in
    /// `NetStats::dropped_egress`. The set keeps these originals so
    /// writers close only after the lanes (which hold clones) are gone.
    links: Vec<Option<PeerLink>>,
    writer_tasks: Vec<tokio::task::JoinHandle<()>>,
    keychain: Arc<Keychain>,
    counters: Arc<Counters>,
    drop_sites: Arc<EgressDropSites>,
    flush: FlushPolicy,
}

impl SessionSet {
    /// Opens a session (a link whose lazy-dialing writer sits behind a
    /// queue of `egress_capacity` frames) to every peer in `addrs` except
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
        let (mut links, mut writer_tasks) = (Vec::new(), Vec::new());
        for (&addr, peer) in addrs.iter().zip(NodeId::all(addrs.len())) {
            links.push((peer != me).then(|| {
                let opened = open_link(addr, egress_capacity, reconnect_delay, counters.clone());
                writer_tasks.push(opened.1);
                opened.0
            }));
        }
        let drop_sites = Arc::new(EgressDropSites::new(addrs.len()));
        SessionSet { links, writer_tasks, keychain, counters, drop_sites, flush }
    }

    /// The egress lane for the dispatch worker owning receive-shard
    /// class `class`: its own pending buffers over clones of the links.
    pub(crate) fn lane(&self, class: usize) -> EgressLane {
        assert!(class < MAX_RECV_SHARDS, "shard class out of range");
        EgressLane {
            class,
            keychain: self.keychain.clone(),
            counters: self.counters.clone(),
            drop_sites: self.drop_sites.clone(),
            links: self.links.clone(),
            pending: PendingBatches::new(self.links.len(), self.flush),
            routed: Vec::new(),
            due: Vec::new(),
            frame: Vec::new(),
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
        let SessionSet { links, writer_tasks, .. } = self;
        // The lanes are gone (their clones dropped); releasing the
        // originals is what lets the writers observe close.
        drop(links);
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
    use crate::frame::{decode_inbound_frame_ref, encode_epoch_frame, FrameError};
    use delphi_crypto::TAG_LEN;
    use delphi_primitives::{Envelope, EpochId, InstanceId};
    use tokio::io::AsyncReadExt;
    use tokio::net::{TcpListener, TcpStream};

    /// Reads one `[u32 len][body]` frame, returned whole.
    async fn read_frame(stream: &mut TcpStream) -> Vec<u8> {
        let mut frame = vec![0u8; 4];
        stream.read_exact(&mut frame).await.unwrap();
        let len = u32::from_be_bytes(frame[..4].try_into().unwrap()) as usize;
        frame.resize(4 + len, 0);
        stream.read_exact(&mut frame[4..]).await.unwrap();
        frame
    }

    /// Node 0 of `n`, its peers listening on loopback: the session set
    /// and the peers' listeners (index `p - 1` for peer `p`).
    async fn live_peer_sessions(
        seed: &[u8],
        n: usize,
        counters: &Arc<Counters>,
        egress_capacity: usize,
    ) -> (SessionSet, Vec<TcpListener>) {
        let mut listeners = Vec::new();
        let mut addrs = vec!["127.0.0.1:1".parse().unwrap()];
        for _ in 1..n {
            let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
            addrs.push(listener.local_addr().unwrap());
            listeners.push(listener);
        }
        let keychain = Arc::new(Keychain::derive(seed, NodeId(0), n));
        let sessions = SessionSet::connect(
            keychain,
            &addrs,
            Duration::from_millis(5),
            counters.clone(),
            FlushPolicy::PerStep,
            egress_capacity,
        );
        (sessions, listeners)
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 2)]
    async fn broadcast_flush_hashes_one_body_for_three_frames() {
        // One step broadcasting to the three peers of a 4-node mesh: one
        // flush, one body encoded and hashed, three tags. What each peer
        // receives is byte-for-byte the frame encoded for it alone, and
        // verifies only there.
        let counters = Arc::new(Counters::default());
        let (sessions, listeners) = live_peer_sessions(b"share", 4, &counters, 16).await;
        let mut lane = sessions.lane(0);
        let payload = Bytes::from_static(b"an echo for everyone");
        let id = AgreementId::new(EpochId(7), InstanceId(2));
        lane.send_step(vec![(id, vec![Envelope::to_all(payload.clone())])]);
        assert_eq!(counters.body_hashes.load(Ordering::Relaxed), 1, "one body hash");
        assert_eq!(counters.mac_ops.load(Ordering::Relaxed), 3, "one tag per peer");
        let receivers: Vec<Keychain> =
            (1..4).map(|p| Keychain::derive(b"share", NodeId(p), 4)).collect();
        let sender = Keychain::derive(b"share", NodeId(0), 4);
        let mut frames = Vec::new();
        for (listener, receiver) in listeners.iter().zip(&receivers) {
            let (mut stream, _) = listener.accept().await.unwrap();
            let frame = read_frame(&mut stream).await;
            let alone = encode_epoch_frame(&sender, receiver.node_id(), &[(id, payload.clone())]);
            assert_eq!(frame, alone.to_vec());
            frames.push(frame);
        }
        let untagged = frames[0].len() - TAG_LEN;
        for (i, frame) in frames.iter().enumerate() {
            assert_eq!(frame[..untagged], frames[0][..untagged], "identical up to the tag");
            for (j, receiver) in receivers.iter().enumerate() {
                let verdict = decode_inbound_frame_ref(receiver, &frame[4..]).map(|(from, _)| from);
                let expect = if i == j { Ok(NodeId(0)) } else { Err(FrameError::BadTag) };
                assert_eq!(verdict, expect, "frame {i} at receiver {j}");
            }
        }
        drop(lane);
        sessions.shutdown(Instant::now() + Duration::from_secs(5)).await;
        assert_eq!(counters.sent_frames.load(Ordering::Relaxed), 3);
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 2)]
    async fn slow_reader_gets_every_frame_whole_and_in_order() {
        // One lane sends 8 MiB of numbered 16 KiB frames to a peer that
        // reads the first, then nothing until the lane is done, then
        // slowly. The worker writes straight to the socket until it fills;
        // the frame that no longer fits goes to the writer mid-frame, and
        // everything behind it queues there. Every frame must arrive
        // whole, authentic and in order.
        const FRAMES: u32 = 512;
        let counters = Arc::new(Counters::default());
        let (sessions, listeners) = live_peer_sessions(b"slow", 2, &counters, 1024).await;
        let listener = listeners.into_iter().next().unwrap();
        let mut lane = sessions.lane(0);
        let numbered = |seq: u32| {
            let mut payload = vec![seq as u8; 16 * 1024];
            payload[..4].copy_from_slice(&seq.to_be_bytes());
            payload
        };
        let (done_tx, mut done_rx) = tokio::sync::mpsc::channel::<()>(1);
        let reader = tokio::spawn(async move {
            let receiver = Keychain::derive(b"slow", NodeId(1), 2);
            let (mut stream, _) = listener.accept().await.unwrap();
            let mut seqs = Vec::new();
            for i in 0..FRAMES {
                if i == 1 {
                    done_rx.recv().await;
                } else if i % 32 == 0 {
                    tokio::time::sleep(Duration::from_millis(2)).await;
                }
                let frame = read_frame(&mut stream).await;
                let (from, entries) = decode_inbound_frame_ref(&receiver, &frame[4..])
                    .expect("every frame whole and authentic");
                assert_eq!(from, NodeId(0));
                for (_, payload) in entries.iter() {
                    seqs.push(u32::from_be_bytes(payload[..4].try_into().unwrap()));
                }
            }
            seqs
        });
        send_one(&mut lane, 1, &numbered(0));
        // The writer dials for the first frame; once it is out, the
        // writer holds nothing and the rest may go straight to the socket.
        while counters.sent_frames.load(Ordering::Relaxed) == 0 {
            tokio::time::sleep(Duration::from_millis(1)).await;
        }
        for seq in 1..FRAMES {
            send_one(&mut lane, 1, &numbered(seq));
        }
        // The peer has read nothing since frame 0. The writer held nothing
        // then, so frame 1 went straight to the socket; 8 MiB cannot fit
        // in the socket buffers, so the rest waits at the writer.
        let out_early = counters.sent_frames.load(Ordering::Relaxed);
        assert!(out_early > 1, "the worker wrote to the socket itself");
        assert!(out_early < u64::from(FRAMES), "the socket filled: the writer took over");
        done_tx.send(()).await.unwrap();
        assert_eq!(reader.await.unwrap(), (0..FRAMES).collect::<Vec<_>>());
        drop(lane);
        sessions.shutdown(Instant::now() + Duration::from_secs(5)).await;
        let stats = counters.snapshot();
        assert_eq!((stats.sent_frames, stats.dropped_egress), (u64::from(FRAMES), 0));
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
