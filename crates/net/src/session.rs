//! Per-peer authenticated sessions: the worker-owned egress lane and
//! drain-on-shutdown.
//!
//! A [`SessionSet`] owns the write side of the mesh: one
//! [`PeerLink`] (a connection and its writer task) per peer. It hands
//! the dispatch worker an [`EgressLane`] — a plain struct the worker
//! owns and drives on its own thread. What leaves, and when, is not
//! decided here: the worker's `EpochProtocol` keeps each step's bursts
//! in one pending list under the run's `FlushPolicy`, decides when it is
//! due and encodes its epoch batch — one for every peer, for a flush of
//! broadcasts — exactly as it does under the simulator. The lane only
//! puts those envelopes on the wire, crossing no queue unless a socket
//! would block:
//!
//! - each envelope is framed around its already-encoded batch and hashed
//!   once, then tagged for each peer it reaches (every peer but this
//!   node, for a broadcast): one frame per peer, sharing one body and one
//!   SHA-256 of it ([`frame`](crate::frame));
//! - the lane keeps the adaptive ceiling ([`EgressLane::flush_ceiling`]):
//!   `max_delay` after the protocol first held entries back, armed
//!   exactly while it still holds some. There is no timer: the worker
//!   checks it on every loop turn of a busy inbox, and flushes at once
//!   when its inbox is empty;
//! - a frame goes straight to the peer's non-blocking socket, and to the
//!   peer's bounded writer queue only if that would block (or the writer
//!   holds frames, or has not dialed yet); a full queue drops the frame,
//!   counted globally (`dropped_egress`) and per peer, so a slow peer
//!   shows up by name. The worker never waits for a peer;
//! - shutdown is "worker flushes, then writer queues close": the service
//!   closes its worker — it flushes what its protocol still holds and
//!   drops the lane — and only then [`SessionSet::shutdown`] closes the
//!   writer queues and waits (bounded) for the write loops to flush, so
//!   a slow peer still receives everything that was queued.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use delphi_crypto::Keychain;
use delphi_primitives::{Envelope, NodeId, Recipient};
use tokio::time::Instant;

use crate::frame::{frame_batch, put_tag};
use crate::transport::{open_link, Counters, NetStats, PeerLink};

/// The dispatch worker's send side: frame, hash, HMAC and the socket
/// write of what its `EpochProtocol` flushed — all run by the worker
/// itself, on its own thread.
pub(crate) struct EgressLane {
    keychain: Arc<Keychain>,
    counters: Arc<Counters>,
    /// Frames dropped toward each peer because its writer queue was full;
    /// the first drop toward a peer emits one log line.
    drops: Vec<u64>,
    /// Clones of the per-peer links (`None` at our own slot).
    links: Vec<Option<PeerLink>>,
    /// The frame buffer every envelope is framed into (capacity kept).
    frame: Vec<u8>,
    /// The flush ceiling: `max_delay` after the protocol first held
    /// entries back, armed exactly while it holds any.
    flush_at: Option<Instant>,
}

impl EgressLane {
    /// Writes what one protocol call returned — envelopes, each an encoded
    /// epoch batch — framing and hashing each envelope once and tagging it
    /// for each peer it reaches (every peer, for a broadcast). Then arms
    /// the ceiling `hold` after now if the protocol still holds entries
    /// (`hold` is its `pending_delay`; an armed ceiling is kept, not
    /// pushed back), or disarms it if not.
    pub(crate) fn send(&mut self, out: Vec<Envelope>, hold: Option<Duration>) {
        let EgressLane { keychain, counters, drops, links, frame, .. } = self;
        for Envelope { to, payload } in out {
            let dests = match to {
                Recipient::All => 0..links.len(),
                Recipient::One(dest) => dest.index()..dest.index() + 1,
            };
            let mut digest = None;
            for dest in dests {
                // No link at our own slot (nor past the mesh).
                let (Some(Some(link)), Some(dropped)) = (links.get(dest), drops.get_mut(dest))
                else {
                    continue;
                };
                let digest = *digest.get_or_insert_with(|| {
                    counters.add(NetStats::body_hashes, 1);
                    frame_batch(keychain.node_id(), &payload, frame)
                });
                counters.add(NetStats::mac_ops, 1);
                counters.add(NetStats::sent_tags, 1);
                put_tag(frame, keychain.channel(NodeId(dest as u16)), &digest);
                if !link.send(frame, counters) {
                    *dropped += 1;
                    if *dropped == 1 {
                        eprintln!(
                            "delphi-net: started dropping frames to peer {dest} (writer queue full)"
                        );
                    }
                }
            }
        }
        match hold {
            Some(delay) => {
                self.flush_at.get_or_insert_with(|| Instant::now() + delay);
            }
            None => self.flush_at = None,
        }
    }

    /// The adaptive ceiling: `max_delay` after the protocol first held
    /// entries back, kept until a flush has emptied every destination,
    /// `None` while nothing waits (and always per-step and per-entry). The
    /// owning worker ticks its protocol once its inbox is empty, or once
    /// this has passed.
    pub(crate) fn flush_ceiling(&self) -> Option<Instant> {
        self.flush_at
    }
}

/// The outbound half of a full-mesh node: one authenticated session — a
/// [`PeerLink`] and its lazy-dialing writer task — per peer, and the
/// factory of the [`EgressLane`] that writes to them.
pub(crate) struct SessionSet {
    /// `links[p]` carries frames to peer `p`; `None` at our own slot.
    /// Writer queues are bounded (`egress_capacity` frames): a peer that
    /// falls further behind has its frames dropped and counted in
    /// `NetStats::dropped_egress`. The set keeps these originals so
    /// writers close only after the lane (which holds clones) is gone.
    links: Vec<Option<PeerLink>>,
    writer_tasks: Vec<tokio::task::JoinHandle<()>>,
    keychain: Arc<Keychain>,
    counters: Arc<Counters>,
}

impl SessionSet {
    /// Opens a session (a link whose lazy-dialing writer sits behind a
    /// queue of `egress_capacity` frames) to every peer in `addrs` except
    /// `keychain.node_id()` itself.
    pub(crate) fn connect(
        keychain: Arc<Keychain>,
        addrs: &[SocketAddr],
        counters: Arc<Counters>,
        egress_capacity: usize,
    ) -> SessionSet {
        assert!(egress_capacity >= 1, "need at least one frame of egress capacity");
        let me = keychain.node_id();
        let (mut links, mut writer_tasks) = (Vec::new(), Vec::new());
        for (&addr, peer) in addrs.iter().zip(NodeId::all(addrs.len())) {
            links.push((peer != me).then(|| {
                let opened = open_link(addr, egress_capacity, counters.clone());
                writer_tasks.push(opened.1);
                opened.0
            }));
        }
        SessionSet { links, writer_tasks, keychain, counters }
    }

    /// The dispatch worker's egress lane, over clones of the links.
    pub(crate) fn lane(&self) -> EgressLane {
        EgressLane {
            keychain: self.keychain.clone(),
            counters: self.counters.clone(),
            drops: vec![0; self.links.len()],
            links: self.links.clone(),
            frame: Vec::new(),
            flush_at: None,
        }
    }

    /// Graceful drain of the write side, to be called once the worker
    /// has flushed and dropped its lane: closes the per-peer queues so
    /// each write loop flushes its remaining frames and exits at
    /// channel-close, and joins them against `drain_deadline`. Closing
    /// the writers before the worker is done would lose whatever the
    /// lane still buffered — the worker-flush-before-writer-close
    /// ordering is load-bearing.
    pub(crate) async fn shutdown(self, drain_deadline: Instant) {
        let SessionSet { links, writer_tasks, .. } = self;
        // The lane is gone (its clones dropped); releasing the
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
    use bytes::Bytes;
    use delphi_crypto::TAG_LEN;
    use delphi_primitives::epoch::encode_epoch_batch;
    use delphi_primitives::{AgreementId, EpochProtocol, FlushPolicy, Protocol};
    use tokio::io::AsyncReadExt;
    use tokio::net::{TcpListener, TcpStream};

    /// Answers each entry with the one envelope it spells, `[u16 dest]
    /// [payload]` (`dest = u16::MAX`: a broadcast): a scriptable protocol
    /// step, so the lane is driven through a real `EpochProtocol`.
    struct Echo {
        n: usize,
    }

    impl Protocol for Echo {
        type Output = ();
        fn node_id(&self) -> NodeId {
            NodeId(0)
        }
        fn n(&self) -> usize {
            self.n
        }
        fn start(&mut self) -> Vec<Envelope> {
            Vec::new()
        }
        fn on_message(&mut self, _: NodeId, msg: &[u8]) -> Vec<Envelope> {
            let Some(([d0, d1], payload)) = msg.split_first_chunk::<2>() else { return Vec::new() };
            let payload = Bytes::copy_from_slice(payload);
            match u16::from_be_bytes([*d0, *d1]) {
                u16::MAX => vec![Envelope::to_all(payload)],
                dest => vec![Envelope::to_one(NodeId(dest), payload)],
            }
        }
        fn output(&self) -> Option<()> {
            None
        }
    }

    /// Node 0's one-epoch `EpochProtocol` over an [`Echo`], started.
    fn echo_node(n: usize, flush: FlushPolicy) -> EpochProtocol<Echo> {
        let mut node = EpochProtocol::one_epoch(vec![Echo { n }], flush);
        assert!(node.start().is_empty(), "an echo starts silent");
        node
    }

    /// One protocol step: node 1 asks `node` to send `payload` to `dest`
    /// (`u16::MAX`: everyone), and `lane` writes whatever it flushed.
    fn step(node: &mut EpochProtocol<Echo>, lane: &mut EgressLane, dest: u16, payload: &[u8]) {
        let mut msg = dest.to_be_bytes().to_vec();
        msg.extend_from_slice(payload);
        let batch = encode_epoch_batch(&[(AgreementId::default(), Bytes::from(msg))]);
        lane.send(node.on_message(NodeId(1), &batch), node.pending_delay());
    }

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
        let sessions = SessionSet::connect(keychain, &addrs, counters.clone(), egress_capacity);
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
        let mut lane = sessions.lane();
        let mut node = echo_node(4, FlushPolicy::PerStep);
        step(&mut node, &mut lane, u16::MAX, b"an echo for everyone");
        assert_eq!(counters.snapshot().body_hashes, 1, "one body hash");
        assert_eq!(counters.snapshot().mac_ops, 3, "one tag per peer");
        let receivers: Vec<Keychain> =
            (1..4).map(|p| Keychain::derive(b"share", NodeId(p), 4)).collect();
        let sender = Keychain::derive(b"share", NodeId(0), 4);
        let sent = [(AgreementId::default(), Bytes::from_static(b"an echo for everyone"))];
        let mut frames = Vec::new();
        for (listener, receiver) in listeners.iter().zip(&receivers) {
            let (mut stream, _) = listener.accept().await.unwrap();
            let frame = read_frame(&mut stream).await;
            assert_eq!(frame, encode_epoch_frame(&sender, receiver.node_id(), &sent).to_vec());
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
        assert_eq!(counters.snapshot().sent_frames, 3);
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 2)]
    async fn lane_frame_is_byte_identical_to_encode_epoch_frame() {
        // An adaptive flush of three entries to one peer: the frame the
        // lane writes around the protocol's encoded batch is, tag
        // included, the frame `encode_epoch_frame` builds from the same
        // entries for the same peer.
        let counters = Arc::new(Counters::default());
        let (sessions, listeners) = live_peer_sessions(b"same", 2, &counters, 16).await;
        let mut lane = sessions.lane();
        let mut node = echo_node(2, FlushPolicy::adaptive());
        let payloads: [&'static [u8]; 3] = [b"alpha", b"", b"a longer third payload"];
        for payload in payloads {
            step(&mut node, &mut lane, 1, payload);
        }
        assert_eq!(counters.snapshot().sent_tags, 0, "held below the triggers");
        lane.send(node.on_tick(), node.pending_delay());
        let (mut stream, _) = listeners[0].accept().await.unwrap();
        let frame = read_frame(&mut stream).await;
        let sent: Vec<(AgreementId, Bytes)> =
            payloads.iter().map(|p| (AgreementId::default(), Bytes::from_static(p))).collect();
        let sender = Keychain::derive(b"same", NodeId(0), 2);
        assert_eq!(frame, encode_epoch_frame(&sender, NodeId(1), &sent).to_vec());
        drop(lane);
        sessions.shutdown(Instant::now() + Duration::from_secs(5)).await;
        assert_eq!(counters.snapshot().sent_frames, 1);
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
        let mut lane = sessions.lane();
        let mut node = echo_node(2, FlushPolicy::PerStep);
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
        step(&mut node, &mut lane, 1, &numbered(0));
        // The writer dials for the first frame; once it is out, the
        // writer holds nothing and the rest may go straight to the socket.
        while counters.snapshot().sent_frames == 0 {
            tokio::time::sleep(Duration::from_millis(1)).await;
        }
        for seq in 1..FRAMES {
            step(&mut node, &mut lane, 1, &numbered(seq));
        }
        // The peer has read nothing since frame 0. The writer held nothing
        // then, so frame 1 went straight to the socket; 8 MiB cannot fit
        // in the socket buffers, so the rest waits at the writer.
        let out_early = counters.snapshot().sent_frames;
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
    /// address (nothing listens on port 1): every writer stays in its
    /// dial-retry loop, backing off, and never drains.
    fn dead_peer_sessions(
        n: usize,
        counters: &Arc<Counters>,
        egress_capacity: usize,
    ) -> SessionSet {
        let keychain = Arc::new(Keychain::derive(b"egress", NodeId(0), n));
        let addrs: Vec<SocketAddr> = vec!["127.0.0.1:1".parse().unwrap(); n];
        SessionSet::connect(keychain, &addrs, counters.clone(), egress_capacity)
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 2)]
    async fn full_writer_queue_drops_frames_instead_of_growing() {
        // Peer 1's writer can never drain. With `egress_capacity = 4`,
        // flushing 100 single-envelope steps must keep at most capacity
        // frames queued (+1 the writer may already hold while dialing)
        // and count every other frame as dropped egress — never grow
        // memory, never make the sending worker wait.
        let counters = Arc::new(Counters::default());
        let sessions = dead_peer_sessions(2, &counters, 4);
        let mut lane = sessions.lane();
        let mut node = echo_node(2, FlushPolicy::PerStep);
        for seq in 0..100u16 {
            step(&mut node, &mut lane, 1, &seq.to_be_bytes());
        }
        // The lane runs on this thread, so the drop count is final here.
        let dropped = counters.snapshot().dropped_egress;
        assert!(
            (95..=96).contains(&dropped),
            "expected all but capacity(+1 in-flight) frames dropped, got {dropped}"
        );
        assert_eq!(lane.drops, vec![0, dropped], "all toward peer 1");
        assert_eq!(counters.snapshot().mac_ops, 100, "every frame was tagged");
        assert_eq!(lane.flush_ceiling(), None, "a per-step protocol never holds entries back");
        drop(lane);
        // The parked writer is aborted at the deadline.
        sessions.shutdown(Instant::now() + Duration::from_millis(300)).await;
        assert_eq!(counters.snapshot().sent_frames, 0);
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 2)]
    async fn egress_drops_are_attributed_to_the_slow_peer() {
        // Three nodes, queues of two frames, no peer ever draining, and
        // overflow traffic toward peer 1 only. Every drop must land on
        // peer 1 and none on the idle peer 2 — the signature that says
        // "that peer is behind".
        let counters = Arc::new(Counters::default());
        let sessions = dead_peer_sessions(3, &counters, 2);
        let mut lane = sessions.lane();
        let mut node = echo_node(3, FlushPolicy::PerStep);
        for _ in 0..30 {
            step(&mut node, &mut lane, 1, b"x");
        }
        let drops = lane.drops.clone();
        let snap = counters.snapshot();
        assert!(drops[1] > 0, "the slow peer's frames are dropped: {drops:?}");
        assert_eq!(drops[2], 0, "no drops to the idle peer: {drops:?}");
        assert_eq!(drops.iter().sum::<u64>(), snap.dropped_egress, "every drop names its peer");
        assert_eq!(snap.sent_tags, 30, "every frame was tagged, dropped or not");
        drop(lane);
        sessions.abort();
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 2)]
    async fn adaptive_lane_arms_one_ceiling_until_everything_is_flushed() {
        let counters = Arc::new(Counters::default());
        let max_delay = Duration::from_millis(5);
        let sessions = dead_peer_sessions(3, &counters, 16);
        let mut lane = sessions.lane();
        let flush = FlushPolicy::Adaptive { max_entries: 3, max_bytes: 4096, max_delay };
        let mut node = echo_node(3, flush);
        assert_eq!(lane.flush_ceiling(), None, "nothing pending, nothing armed");
        let before = Instant::now();
        step(&mut node, &mut lane, 1, b"a");
        let after = Instant::now();
        step(&mut node, &mut lane, 2, b"b");
        assert_eq!(counters.snapshot().mac_ops, 0, "below every size trigger");
        // The ceiling is `max_delay` after the FIRST pending entry — not
        // re-armed by the second, and not doubled.
        let armed = lane.flush_ceiling().expect("armed by the first pending entry");
        assert!(before + max_delay <= armed && armed <= after + max_delay, "{armed:?}");
        // The pipeline's third pending entry trips the trigger, whichever
        // peer it is for: everything leaves, a frame per peer, and nothing
        // is left to arm the ceiling.
        step(&mut node, &mut lane, 1, b"c");
        assert_eq!(counters.snapshot().mac_ops, 2);
        assert_eq!(lane.flush_ceiling(), None, "the size trigger left nothing pending");
        // A broadcast held back leaves on the tick: one body, a tag per peer.
        step(&mut node, &mut lane, u16::MAX, b"d");
        assert!(lane.flush_ceiling().is_some());
        lane.send(node.on_tick(), node.pending_delay());
        let snap = counters.snapshot();
        assert_eq!((snap.mac_ops, snap.sent_tags, snap.body_hashes), (4, 4, 3));
        assert_eq!(lane.flush_ceiling(), None, "disarmed once nothing is pending");
        drop(lane);
        sessions.abort();
    }
}
