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
//! - [`spawn_writer`] / [`write_loop`] own one outbound connection each,
//!   dialing lazily (only once a frame is queued) and reconnecting with
//!   exponential backoff, so a peer that never appears cannot stall
//!   shutdown while its queue is empty;
//! - [`Counters`] / [`NetStats`] are the wire-level observability shared
//!   by every layer above.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use delphi_crypto::Keychain;
use delphi_primitives::NodeId;
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::mpsc;

use crate::frame::{decode_inbound_frame_ref, FrameError, MAX_FRAME_BODY, MIN_FRAME_BODY};

/// Cap on the dial-retry backoff, as a multiple of the initial delay.
///
/// Reconnection starts at [`crate::RunOptions::reconnect_delay`] and
/// doubles on every consecutive failure up to this factor, then resets on
/// a successful connection.
pub(crate) const MAX_BACKOFF_FACTOR: u32 = 16;

/// Maximum receive dispatch shards a runner may use
/// ([`crate::RunOptions::recv_shards`] is clamped to this), sized so
/// [`NetStats`] can carry fixed per-shard counters — for dispatch and,
/// since every dispatch worker flushes its own output, for egress too.
pub const MAX_RECV_SHARDS: usize = 8;

/// Byte counters observed by the runner.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames sent (envelopes share a frame unless flushed per entry).
    pub sent_frames: u64,
    /// Total bytes written to sockets (frames incl. headers).
    pub sent_bytes: u64,
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
    /// verified). Batching lowers this together with `sent_frames`.
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
    pub(crate) fn snapshot(&self) -> NetStats {
        let shard_entries = load_array(&self.shard_entries);
        NetStats {
            sent_frames: self.sent_frames.load(Ordering::Relaxed),
            sent_bytes: self.sent_bytes.load(Ordering::Relaxed),
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

/// Spawns a [`write_loop`] task owning the outbound connection to `addr`.
pub(crate) fn spawn_writer(
    addr: SocketAddr,
    rx: mpsc::Receiver<Bytes>,
    reconnect_delay: Duration,
    counters: Arc<Counters>,
) -> tokio::task::JoinHandle<()> {
    tokio::spawn(async move {
        let _ = write_loop(addr, rx, reconnect_delay, counters).await;
    })
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

pub(crate) async fn write_loop(
    addr: SocketAddr,
    mut rx: mpsc::Receiver<Bytes>,
    reconnect_delay: Duration,
    counters: Arc<Counters>,
) -> std::io::Result<()> {
    let mut pending: Option<Bytes> = None;
    let mut backoff = reconnect_delay;
    'reconnect: loop {
        // Dial only when there is something to send: a peer that never
        // comes up then cannot stall shutdown while its queue is empty
        // (channel-close is observed here, parked on recv, immediately).
        if pending.is_none() {
            pending = match rx.recv().await {
                Some(f) => Some(f),
                None => return Ok(()), // runner finished, nothing queued
            };
        }
        let mut stream = loop {
            match TcpStream::connect(addr).await {
                Ok(s) => {
                    backoff = reconnect_delay;
                    break s;
                }
                Err(_) => {
                    tokio::time::sleep(backoff).await;
                    backoff = (backoff * 2).min(reconnect_delay * MAX_BACKOFF_FACTOR);
                }
            }
        };
        let _ = stream.set_nodelay(true);
        loop {
            let frame = match pending.take() {
                Some(f) => f,
                None => match rx.recv().await {
                    Some(f) => f,
                    None => return Ok(()), // runner finished, queue drained
                },
            };
            if stream.write_all(&frame).await.is_err() {
                pending = Some(frame); // retry on a fresh connection
                continue 'reconnect;
            }
            counters.sent_frames.fetch_add(1, Ordering::Relaxed);
            counters.sent_bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_epoch_frame;
    use delphi_primitives::AgreementId;

    fn one_entry(payload: &'static [u8]) -> [(AgreementId, Bytes); 1] {
        [(AgreementId::default(), Bytes::from_static(payload))]
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
        // frame on the connection that finally succeeds.
        let alice = Keychain::derive(b"backoff", NodeId(0), 2);
        let holder = TcpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = holder.local_addr().unwrap();
        drop(holder);

        let counters = Arc::new(Counters::default());
        let (tx, rx) = mpsc::channel(16);
        let writer = spawn_writer(addr, rx, Duration::from_millis(5), counters.clone());
        tx.try_send(encode_epoch_frame(&alice, NodeId(1), &one_entry(b"patience"))).unwrap();

        // Let several backoff rounds elapse before the listener appears.
        tokio::time::sleep(Duration::from_millis(120)).await;
        let listener = TcpListener::bind(addr).await.unwrap();
        let (mut server, _) = listener.accept().await.unwrap();
        let mut len_buf = [0u8; 4];
        server.read_exact(&mut len_buf).await.unwrap();
        let mut body = vec![0u8; u32::from_be_bytes(len_buf) as usize];
        server.read_exact(&mut body).await.unwrap();
        let bob = Keychain::derive(b"backoff", NodeId(1), 2);
        let (from, entries) = decode_inbound_frame_ref(&bob, &body).expect("authentic frame");
        assert_eq!(from, NodeId(0));
        assert_eq!(entries.iter().next(), Some((AgreementId::default(), &b"patience"[..])));

        // The writer bumps its counter on its own thread once `write_all`
        // returns, which may be after our read completes: join it first.
        drop(tx);
        writer.await.unwrap();
        assert_eq!(counters.sent_frames.load(Ordering::Relaxed), 1);
    }
}
