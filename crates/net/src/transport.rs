//! Socket-level transport: accept loop, dialing with backoff, and the
//! per-connection frame read/write loops.
//!
//! This is the lowest layer of the net stack. It moves authenticated
//! frames between sockets and channels and knows nothing about protocol
//! instances or batching policy:
//!
//! - [`spawn_acceptor`] owns the listener and fans every inbound
//!   connection out to its own [`read_loop`] task;
//! - [`read_loop`] length-delimits, bounds-checks, and authenticates
//!   inbound frames, surfacing the decoded `(sender, entries)` pairs;
//! - a [`PeerLink`] is one outbound connection: workers write frames
//!   straight to its non-blocking socket ([`PeerLink::send`]); its
//!   [`write_loop`] task is the slow path, dialing lazily (only once a
//!   frame is handed to it, so a peer that never appears cannot stall
//!   shutdown), reconnecting with exponential backoff, and draining what
//!   a worker could not write at once;
//! - [`Counters`] / [`NetStats`] are the wire-level observability shared
//!   by every layer above.

use std::io::ErrorKind;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use bytes::Bytes;
use delphi_crypto::Keychain;
use delphi_primitives::NodeId;
use tokio::io::AsyncReadExt;
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::mpsc;
use tokio::sync::mpsc::error::TrySendError;

use crate::frame::{decode_inbound_frame_ref, FrameError, MAX_FRAME_BODY, MIN_FRAME_BODY};

/// Cap on the dial-retry backoff, as a multiple of the initial delay.
///
/// Reconnection starts at [`crate::RunOptions::reconnect_delay`] and
/// doubles on every consecutive failure up to this factor, then resets on
/// a successful connection.
pub(crate) const MAX_BACKOFF_FACTOR: u32 = 160;

/// Maximum receive dispatch shards a runner may use
/// ([`crate::RunOptions::recv_shards`] is clamped to this), sized so
/// [`NetStats`] can carry fixed per-shard counters — for dispatch and,
/// since every dispatch worker flushes its own output, for egress too.
pub const MAX_RECV_SHARDS: usize = 8;

/// Byte counters observed by the runner.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames sent (envelopes share a frame unless flushed per entry),
    /// counted by whoever wrote a frame's last byte, worker or writer.
    pub sent_frames: u64,
    /// Total bytes written to sockets (frames incl. headers).
    pub sent_bytes: u64,
    /// Outbound frame bodies hashed: frames encoded (`egress_shard_macs`
    /// summed) minus these shared a body hash with another destination.
    pub body_hashes: u64,
    /// Envelopes queued for sending, after broadcast expansion.
    pub sent_entries: u64,
    /// Frames received and authenticated.
    pub recv_frames: u64,
    /// Protocol payloads received inside authenticated frames.
    pub recv_entries: u64,
    /// Frames dropped by authentication or framing checks.
    pub dropped_frames: u64,
    /// Outbound frames dropped because a peer's bounded writer queue was
    /// full (see [`crate::RunOptions::egress_capacity`]). A peer slower
    /// than the queue is treated like a crashed peer — within the
    /// `t < n/3` fault budget — instead of inflating memory.
    pub dropped_egress: u64,
    /// Authenticated entries addressed to an epoch the node has already
    /// garbage-collected — expected stream traffic from slower peers,
    /// dropped and counted here rather than treated as protocol errors.
    pub late_entries: u64,
    /// HMAC tag computations (one per frame encoded, one per tag
    /// verified), each over a body digest. Batching lowers this together
    /// with `sent_frames`.
    pub mac_ops: u64,
    /// Session-layer flush buffers reused from the free-list instead of
    /// freshly allocated (see `PendingBatches::recycle`).
    pub buffer_reuses: u64,
    /// Vector (basket) agreement instances completed by this node — one
    /// per epoch in vector mode, each covering `vector_dims` assets.
    /// Zero in per-asset mode.
    pub vector_instances: u64,
    /// Basket dimension count when the run is in vector mode (0 in
    /// per-asset mode); `vector_instances × vector_dims` recovers the
    /// per-asset agreement count.
    pub vector_dims: u64,
    /// Authenticated entries dispatched to each receive shard (index =
    /// shard; unsharded runs count everything on shard 0).
    pub shard_entries: [u64; MAX_RECV_SHARDS],
    /// Entries flushed (encoded into frames) by each dispatch worker's
    /// egress lane (index = the worker's receive-shard class; unsharded
    /// runs count everything on class 0). Summed over classes this
    /// equals `sent_entries` once the workers have flushed.
    pub egress_shard_entries: [u64; MAX_RECV_SHARDS],
    /// HMAC tag computations performed by each worker's egress lane —
    /// the per-class attribution of the encode share of `mac_ops`.
    pub egress_shard_macs: [u64; MAX_RECV_SHARDS],
    /// Outbound frames dropped by each worker's egress lane because the
    /// destination's bounded writer queue was full — the per-class
    /// attribution of `dropped_egress`. A saturated worker concentrates
    /// drops on one index across peers; a slow peer spreads them across
    /// classes (the per-peer split lives in the session-layer drop log).
    pub dropped_egress_shard: [u64; MAX_RECV_SHARDS],
}

/// Shared mutable counters behind [`NetStats`].
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) sent_frames: AtomicU64,
    pub(crate) sent_bytes: AtomicU64,
    pub(crate) body_hashes: AtomicU64,
    pub(crate) sent_entries: AtomicU64,
    pub(crate) recv_frames: AtomicU64,
    pub(crate) recv_entries: AtomicU64,
    pub(crate) dropped_frames: AtomicU64,
    pub(crate) dropped_egress: AtomicU64,
    pub(crate) mac_ops: AtomicU64,
    pub(crate) buffer_reuses: AtomicU64,
    pub(crate) vector_instances: AtomicU64,
    pub(crate) vector_dims: AtomicU64,
    pub(crate) shard_entries: [AtomicU64; MAX_RECV_SHARDS],
    pub(crate) egress_shard_entries: [AtomicU64; MAX_RECV_SHARDS],
    pub(crate) egress_shard_macs: [AtomicU64; MAX_RECV_SHARDS],
    pub(crate) dropped_egress_shard: [AtomicU64; MAX_RECV_SHARDS],
}

/// Loads a fixed-size atomic counter array into its snapshot form.
fn load_array(counters: &[AtomicU64; MAX_RECV_SHARDS]) -> [u64; MAX_RECV_SHARDS] {
    let mut out = [0u64; MAX_RECV_SHARDS];
    for (slot, counter) in out.iter_mut().zip(counters) {
        *slot = counter.load(Ordering::Relaxed);
    }
    out
}

impl Counters {
    fn count_sent(&self, bytes: usize) {
        self.sent_frames.fetch_add(1, Ordering::Relaxed);
        self.sent_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> NetStats {
        let shard_entries = load_array(&self.shard_entries);
        NetStats {
            sent_frames: self.sent_frames.load(Ordering::Relaxed),
            sent_bytes: self.sent_bytes.load(Ordering::Relaxed),
            body_hashes: self.body_hashes.load(Ordering::Relaxed),
            sent_entries: self.sent_entries.load(Ordering::Relaxed),
            recv_frames: self.recv_frames.load(Ordering::Relaxed),
            recv_entries: self.recv_entries.load(Ordering::Relaxed),
            dropped_frames: self.dropped_frames.load(Ordering::Relaxed),
            dropped_egress: self.dropped_egress.load(Ordering::Relaxed),
            // The epoch layer's count: `ServiceStats::net_snapshot` reads it
            // from the workers' live cells.
            late_entries: 0,
            mac_ops: self.mac_ops.load(Ordering::Relaxed),
            buffer_reuses: self.buffer_reuses.load(Ordering::Relaxed),
            vector_instances: self.vector_instances.load(Ordering::Relaxed),
            vector_dims: self.vector_dims.load(Ordering::Relaxed),
            shard_entries,
            egress_shard_entries: load_array(&self.egress_shard_entries),
            egress_shard_macs: load_array(&self.egress_shard_macs),
            dropped_egress_shard: load_array(&self.dropped_egress_shard),
        }
    }
}

/// One authenticated inbound frame, shipped as the shared body buffer:
/// the read loop verified the tag and validated the batch structure, so
/// receivers re-split it with [`crate::frame::split_verified_body`] —
/// cheap structural walk, no MAC, no per-entry copies. Cloning is a
/// refcount bump, which is how one frame fans out to several dispatch
/// shards without duplicating bytes.
#[derive(Clone, Debug)]
pub(crate) struct VerifiedFrame {
    /// The authenticated sender.
    pub(crate) from: NodeId,
    /// The complete frame body (shared allocation).
    pub(crate) body: Bytes,
}

/// What a dispatch worker's inbox carries.
#[derive(Debug)]
pub(crate) enum ShardInput {
    /// An authenticated frame with at least one entry the worker owns.
    Frame(VerifiedFrame),
    /// The run is over: flush what is pending and exit. Read loops hold
    /// inbox senders for as long as their peers stay connected, so an
    /// inbox never closes by itself; the service loop says so instead.
    Close,
}

/// Per-shard ingress: `txs[s]` feeds the dispatch worker owning shard
/// `s`'s instances. Unsharded runs use a single-element vector.
pub(crate) type ShardSenders = Arc<Vec<mpsc::Sender<ShardInput>>>;

/// Spawns the accept loop on `listener`: every inbound connection gets
/// its own [`read_loop`] task verifying frames and routing them to the
/// dispatch shards in `txs` by entry ownership.
pub(crate) fn spawn_acceptor(
    listener: TcpListener,
    keychain: Arc<Keychain>,
    txs: ShardSenders,
    counters: Arc<Counters>,
) -> tokio::task::JoinHandle<()> {
    tokio::spawn(async move {
        loop {
            let Ok((stream, _)) = listener.accept().await else { break };
            let kc = keychain.clone();
            let txs = txs.clone();
            let counters = counters.clone();
            tokio::spawn(async move {
                let _ = read_loop(stream, kc, txs, counters).await;
            });
        }
    })
}

/// One peer's outbound connection, shared by the dispatch workers and the
/// peer's writer task; the writer's queue closes with the last clone.
#[derive(Clone)]
pub(crate) struct PeerLink {
    conn: Arc<Mutex<Conn>>,
    /// The writer's bounded queue (`egress_capacity` frames), each frame
    /// with how many of its bytes are already on the current connection.
    backlog: mpsc::Sender<(Bytes, usize)>,
}

/// The per-peer lock: workers check it and write under it, so their
/// frames never interleave.
struct Conn {
    /// What the writer dialed; `None` before and after a failed write.
    stream: Option<Arc<TcpStream>>,
    /// Frames the writer holds. Workers write directly only at 0, when
    /// every earlier frame is whole on the wire.
    held: usize,
}

/// Every update under the lock is one assignment, so a poisoned guard
/// still holds valid data.
fn lock(conn: &Mutex<Conn>) -> std::sync::MutexGuard<'_, Conn> {
    conn.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Opens the link to `addr`, not dialed yet, and its [`write_loop`] task
/// behind a queue of `capacity` frames.
pub(crate) fn open_link(
    addr: SocketAddr,
    capacity: usize,
    reconnect_delay: Duration,
    counters: Arc<Counters>,
) -> (PeerLink, tokio::task::JoinHandle<()>) {
    let (backlog, rx) = mpsc::channel(capacity);
    let conn = Arc::new(Mutex::new(Conn { stream: None, held: 0 }));
    let writer = tokio::spawn(write_loop(addr, conn.clone(), rx, reconnect_delay, counters));
    (PeerLink { conn, backlog }, writer)
}

impl PeerLink {
    /// Sends one whole frame: straight to the socket if the writer holds
    /// nothing and the socket takes it all, else (not dialed, socket full,
    /// the rest of a partial write) to the writer. Returns `false` if it
    /// was dropped because the writer is `egress_capacity` frames behind:
    /// a peer slower than that is treated like a crashed one (the
    /// `t < n/3` budget), never allowed to stall the calling worker.
    pub(crate) fn send(&self, frame: &[u8], counters: &Counters) -> bool {
        let mut conn = lock(&self.conn);
        let mut written = 0;
        match conn.stream.as_ref().filter(|_| conn.held == 0).map(|s| s.try_write(frame)) {
            Some(Ok(n)) => written = n,
            Some(Err(e)) if e.kind() != ErrorKind::WouldBlock => conn.stream = None,
            _ => {}
        }
        if written == frame.len() {
            counters.count_sent(frame.len());
            return true;
        }
        // Bytes were written only at `held == 0`, so the queue has room
        // for a partial frame. A closed queue (writer gone) discards.
        let deferred = (Bytes::copy_from_slice(frame), written);
        let full = matches!(self.backlog.try_send(deferred), Err(TrySendError::Full(_)));
        if full {
            counters.dropped_egress.fetch_add(1, Ordering::Relaxed);
        } else {
            conn.held += 1;
        }
        !full
    }
}

pub(crate) async fn read_loop(
    mut stream: TcpStream,
    keychain: Arc<Keychain>,
    txs: ShardSenders,
    counters: Arc<Counters>,
) -> std::io::Result<()> {
    let shards = txs.len();
    let mut len_buf = [0u8; 4];
    loop {
        if stream.read_exact(&mut len_buf).await.is_err() {
            return Ok(()); // peer closed
        }
        let len = u32::from_be_bytes(len_buf) as usize;
        // Same bounds the decoder enforces: never allocate for a body that
        // could not decode.
        if !(MIN_FRAME_BODY..=MAX_FRAME_BODY).contains(&len) {
            counters.dropped_frames.fetch_add(1, Ordering::Relaxed);
            return Ok(()); // framing is broken beyond recovery: drop link
        }
        let mut body = vec![0u8; len];
        if stream.read_exact(&mut body).await.is_err() {
            return Ok(());
        }
        // The body buffer becomes the shared allocation everything
        // downstream borrows from or refcounts: verify + validate here,
        // then dispatch the whole frame — entries are never copied out.
        let body = Bytes::from(body);
        match decode_inbound_frame_ref(&keychain, &body) {
            Ok((from, entries)) => {
                counters.mac_ops.fetch_add(1, Ordering::Relaxed);
                counters.recv_frames.fetch_add(1, Ordering::Relaxed);
                counters.recv_entries.fetch_add(entries.len() as u64, Ordering::Relaxed);
                // Route the frame to every shard owning at least one of
                // its entries (sharded senders batch per shard class, so
                // the common case is exactly one target).
                let mut shard_counts = [0u64; MAX_RECV_SHARDS];
                if shards == 1 {
                    shard_counts[0] = entries.len() as u64;
                } else {
                    for (id, _) in entries.iter() {
                        shard_counts[id.shard(shards)] += 1;
                    }
                }
                let frame = VerifiedFrame { from, body: body.clone() };
                for (shard, &count) in shard_counts.iter().enumerate().take(shards) {
                    if count == 0 {
                        continue;
                    }
                    counters.shard_entries[shard].fetch_add(count, Ordering::Relaxed);
                    if txs[shard].send(ShardInput::Frame(frame.clone())).await.is_err() {
                        return Ok(()); // dispatch worker gone
                    }
                }
            }
            Err(err) => {
                if matches!(err, FrameError::BadTag | FrameError::Malformed) {
                    // The tag was computed before the frame was rejected.
                    counters.mac_ops.fetch_add(1, Ordering::Relaxed);
                }
                counters.dropped_frames.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// The slow path of one [`PeerLink`]: finishes each handed-over frame, in
/// order, before anything else reaches the peer. It dials only once a
/// frame is handed over (channel-close is observed at once, parked on
/// recv); a failed write redials with backoff and resends the frame
/// whole, so a new connection only ever carries whole frames.
async fn write_loop(
    addr: SocketAddr,
    conn: Arc<Mutex<Conn>>,
    mut rx: mpsc::Receiver<(Bytes, usize)>,
    reconnect_delay: Duration,
    counters: Arc<Counters>,
) {
    let mut backoff = reconnect_delay;
    while let Some((frame, mut written)) = rx.recv().await {
        while let Some(rest) = frame.get(written..).filter(|rest| !rest.is_empty()) {
            let current = lock(&conn).stream.clone();
            let Some(stream) = current else {
                let Ok(stream) = TcpStream::connect(addr).await else {
                    tokio::time::sleep(backoff).await;
                    backoff = (backoff * 2).min(reconnect_delay * MAX_BACKOFF_FACTOR);
                    continue;
                };
                let _ = stream.set_nodelay(true);
                (backoff, written) = (reconnect_delay, 0);
                lock(&conn).stream = Some(Arc::new(stream));
                continue;
            };
            match stream.try_write(rest) {
                Ok(n) if n > 0 => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    stream.writable().await.unwrap_or_default();
                }
                _ => lock(&conn).stream = None,
            }
        }
        lock(&conn).held -= 1;
        counters.count_sent(frame.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_epoch_frame;
    use delphi_primitives::AgreementId;
    use tokio::io::AsyncWriteExt;

    fn one_entry(payload: &'static [u8]) -> [(AgreementId, Bytes); 1] {
        [(AgreementId::default(), Bytes::from_static(payload))]
    }

    #[test]
    fn undialed_link_defers_in_order_and_drops_past_capacity() {
        // No writer drains this link: its first four frames wait in the
        // queue, in order, and the other 96 are dropped and counted —
        // the calling worker never waits.
        let counters = Counters::default();
        let (backlog, mut rx) = mpsc::channel(4);
        let conn = Arc::new(Mutex::new(Conn { stream: None, held: 0 }));
        let link = PeerLink { conn, backlog };
        let kept: Vec<bool> = (0u8..100).map(|i| link.send(&[i], &counters)).collect();
        assert!(kept[..4].iter().all(|&k| k) && kept[4..].iter().all(|&k| !k));
        assert_eq!(counters.dropped_egress.load(Ordering::Relaxed), 96);
        assert_eq!(lock(&link.conn).held, 4);
        drop(link);
        let mut delivered = Vec::new();
        while let Ok((frame, written)) = rx.try_recv() {
            assert_eq!(written, 0, "nothing was written before the hand-off");
            delivered.push(frame[0]);
        }
        assert_eq!(delivered, vec![0, 1, 2, 3]);
    }

    /// Reads one `[u32 len][body]` frame and authenticates it at `bob`.
    async fn read_payload(stream: &mut TcpStream, bob: &Keychain) -> Vec<u8> {
        let mut len_buf = [0u8; 4];
        stream.read_exact(&mut len_buf).await.unwrap();
        let mut body = vec![0u8; u32::from_be_bytes(len_buf) as usize];
        stream.read_exact(&mut body).await.unwrap();
        let (from, entries) = decode_inbound_frame_ref(bob, &body).expect("authentic frame");
        assert_eq!(from, NodeId(0));
        let (id, payload) = entries.iter().next().expect("one entry");
        assert_eq!(id, AgreementId::default());
        payload.to_vec()
    }

    /// Waits until `counters` report `frames` sent.
    async fn until_sent(counters: &Counters, frames: u64) {
        while counters.sent_frames.load(Ordering::Relaxed) < frames {
            tokio::time::sleep(Duration::from_millis(1)).await;
        }
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 2)]
    async fn reader_enforces_decoder_length_bounds() {
        // The reader must accept exactly the body sizes the decoder can
        // decode: an undersized length word kills the link before any
        // later (even valid) frame is surfaced, and an oversized one is
        // rejected without allocating the impossible body.
        let alice = Keychain::derive(b"bounds", NodeId(0), 2);
        let bob = Arc::new(Keychain::derive(b"bounds", NodeId(1), 2));

        for bad_len in [(MIN_FRAME_BODY - 1) as u32, (MAX_FRAME_BODY + 1) as u32] {
            let listener = TcpListener::bind("127.0.0.1:0").await.unwrap();
            let addr = listener.local_addr().unwrap();
            let counters = Arc::new(Counters::default());
            let (tx, mut rx) = mpsc::channel(16);
            let mut client = TcpStream::connect(addr).await.unwrap();
            let (server, _) = listener.accept().await.unwrap();
            let reader =
                tokio::spawn(read_loop(server, bob.clone(), Arc::new(vec![tx]), counters.clone()));

            client.write_all(&bad_len.to_be_bytes()).await.unwrap();
            // A perfectly valid frame behind the corrupt length word: the
            // link is already dead, so it must never be delivered.
            let frame = encode_epoch_frame(&alice, NodeId(1), &one_entry(b"late"));
            client.write_all(&frame).await.unwrap();

            reader.await.unwrap().unwrap();
            assert_eq!(counters.dropped_frames.load(Ordering::Relaxed), 1, "len={bad_len}");
            assert_eq!(counters.recv_frames.load(Ordering::Relaxed), 0, "len={bad_len}");
            let leftover = tokio::select! {
                m = rx.recv() => m,
                _ = tokio::time::sleep(Duration::from_millis(50)) => None,
            };
            assert!(leftover.is_none(), "no frame may survive a broken link (len={bad_len})");
        }
    }

    #[tokio::test(flavor = "multi_thread", worker_threads = 2)]
    async fn writer_reconnects_with_backoff_and_delivers() {
        // The peer comes up only after several dial failures; the writer
        // must keep retrying (with growing backoff) and deliver the queued
        // frame on the connection that finally succeeds. Then the peer
        // resets that connection in the middle of an 8 MiB frame (more
        // than the socket buffers hold, so part of it is still unwritten):
        // the writer must redial and send that frame whole, and the next
        // one after it, on the new connection.
        let alice = Keychain::derive(b"backoff", NodeId(0), 2);
        let bob = Keychain::derive(b"backoff", NodeId(1), 2);
        let holder = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = holder.local_addr().unwrap();
        drop(holder);

        let counters = Arc::new(Counters::default());
        let (link, writer) = open_link(addr, 16, Duration::from_millis(5), counters.clone());
        let frame = |payload: &[u8]| {
            let entry = [(AgreementId::default(), Bytes::copy_from_slice(payload))];
            encode_epoch_frame(&alice, NodeId(1), &entry)
        };
        assert!(link.send(&frame(b"patience"), &counters));

        // Let several backoff rounds elapse before the listener appears.
        tokio::time::sleep(Duration::from_millis(120)).await;
        let listener = TcpListener::bind(addr).await.unwrap();
        let (mut server, _) = listener.accept().await.unwrap();
        assert_eq!(read_payload(&mut server, &bob).await, b"patience");

        // The writer holds nothing once its frame is out: the big frame
        // goes straight to the socket, fills it, and the writer takes
        // over mid-frame.
        until_sent(&counters, 1).await;
        let big = vec![0x42u8; 8 << 20];
        assert!(link.send(&frame(&big), &counters));
        assert_eq!(lock(&link.conn).held, 1, "8 MiB never fit the socket at once");
        assert!(link.send(&frame(b"after"), &counters));
        let mut head = vec![0u8; 64 * 1024];
        server.read_exact(&mut head).await.unwrap();
        drop(server); // unread bytes: the close is a reset

        let (mut server, _) = listener.accept().await.unwrap();
        assert_eq!(read_payload(&mut server, &bob).await, big, "resent whole");
        assert_eq!(read_payload(&mut server, &bob).await, b"after");

        // The writer bumps its counter on its own thread once the write
        // completes, which may be after our read does: join it first.
        drop(link);
        writer.await.unwrap();
        assert_eq!(counters.sent_frames.load(Ordering::Relaxed), 3);
    }
}
