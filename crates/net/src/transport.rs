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
//!   inbound frames, surfacing each one's sender and epoch batch;
//! - a [`PeerLink`] is one outbound connection: the dispatch worker
//!   writes frames straight to its non-blocking socket
//!   ([`PeerLink::send`]); its [`write_loop`] task is the slow path,
//!   dialing lazily (only once a frame is handed to it, so a peer that
//!   never appears cannot stall shutdown), reconnecting with exponential
//!   backoff, and draining what the worker could not write at once;
//! - [`NetStats`] declares every transport counter once; [`Counters`] holds
//!   one atomic per counter, indexed by that declaration.

use std::io::ErrorKind;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use bytes::Bytes;
use delphi_crypto::Keychain;
use delphi_primitives::{CounterGroup, NodeId};
use tokio::io::AsyncReadExt;
use tokio::net::{TcpListener, TcpStream};
use tokio::sync::mpsc;
use tokio::sync::mpsc::error::TrySendError;

use crate::frame::{
    decode_inbound_frame_ref, verified_batch, FrameError, MAX_FRAME_BODY, MIN_FRAME_BODY,
};

/// Initial delay between reconnection attempts while dialing a peer.
/// Short, so a peer that starts just after us is not cut off while the
/// others race `window` epochs ahead of it.
const RECONNECT_DELAY: Duration = Duration::from_millis(5);

/// Cap on the dial-retry backoff, as a multiple of [`RECONNECT_DELAY`]:
/// the delay doubles on every consecutive failure up to this factor, then
/// resets on a successful connection.
const MAX_BACKOFF_FACTOR: u32 = 160;

delphi_primitives::counter_group! {
    /// Byte counters observed by the runner.
    pub struct NetStats {
        /// Frames sent (envelopes share a frame unless flushed per entry),
        /// counted by whoever wrote a frame's last byte, worker or writer.
        sent_frames: u64,
        /// Total bytes written to sockets (frames incl. headers).
        sent_bytes: u64,
        /// Outbound frame bodies hashed, one per envelope: `sent_tags`
        /// minus these frames shared a broadcast's body hash.
        body_hashes: u64,
        /// Outbound frame tags computed, one per frame encoded — the encode
        /// share of `mac_ops`, counted whether or not the frame was written.
        sent_tags: u64,
        /// Entries the node's `EpochProtocol` flushed for sending, after broadcast expansion.
        sent_entries: u64,
        /// Bytes of those entries' heads (varint epoch, asset and length).
        sent_head_bytes: u64,
        /// Frames received and authenticated.
        recv_frames: u64,
        /// Protocol payloads received inside authenticated frames.
        recv_entries: u64,
        /// Frames dropped by authentication or framing checks.
        dropped_frames: u64,
        /// Outbound frames dropped because a peer's bounded writer queue was
        /// full (see [`crate::RunOptions::egress_capacity`]). A peer slower
        /// than the queue is treated like a crashed peer — within the
        /// `t < n/3` fault budget — instead of inflating memory.
        dropped_egress: u64,
        /// Authenticated entries addressed to an epoch the node has already
        /// garbage-collected — expected stream traffic from slower peers,
        /// dropped and counted here rather than treated as protocol errors.
        late_entries: u64,
        /// HMAC tag computations (one per frame encoded, one per tag
        /// verified), each over a body digest. Batching lowers this together
        /// with `sent_frames`.
        mac_ops: u64,
        /// Always 0 (the epoch pipeline recycles no flush buffers); kept
        /// for the frozen benchmark's readers in `fig_e2e`.
        buffer_reuses: u64,
    }
}

/// Field-wise sum, for cluster totals.
impl std::iter::Sum for NetStats {
    fn sum<I: Iterator<Item = NetStats>>(iter: I) -> NetStats {
        iter.fold(NetStats::default(), |total, s| {
            NetStats::from_values(total.values().zip(s.values()).map(|(a, b)| a + b))
        })
    }
}

/// The transport's shared counters: one atomic per [`NetStats`] counter,
/// indexed by the declaration (`NetStats::mac_ops`, ...). The counters the
/// dispatch worker publishes instead stay zero here.
#[derive(Default)]
pub(crate) struct Counters([AtomicU64; NetStats::LEN]);

impl Counters {
    pub(crate) fn add(&self, counter: usize, by: u64) {
        if let Some(c) = self.0.get(counter) {
            c.fetch_add(by, Ordering::Relaxed);
        }
    }

    fn count_sent(&self, bytes: usize) {
        self.add(NetStats::sent_frames, 1);
        self.add(NetStats::sent_bytes, bytes as u64);
    }

    pub(crate) fn snapshot(&self) -> NetStats {
        NetStats::from_values(self.0.iter().map(|c| c.load(Ordering::Relaxed)))
    }
}

/// One authenticated inbound frame: the read loop verified the tag and
/// validated the batch structure, and ships the batch as a slice of the
/// shared body buffer — no per-entry copies — for the dispatch worker's
/// protocol to walk.
#[derive(Debug)]
pub(crate) struct VerifiedFrame {
    /// The authenticated sender.
    pub(crate) from: NodeId,
    /// The frame's epoch batch (a slice of the body's allocation).
    pub(crate) batch: Bytes,
}

/// What the dispatch worker's inbox carries.
#[derive(Debug)]
pub(crate) enum WorkerInput {
    /// An authenticated frame with at least one entry.
    Frame(VerifiedFrame),
    /// The run is over: flush what is pending and exit. Read loops hold
    /// inbox senders for as long as their peers stay connected, so an
    /// inbox never closes by itself; the service loop says so instead.
    Close,
}

/// Spawns the accept loop on `listener`: every inbound connection gets
/// its own [`read_loop`] task verifying frames and sending them to the
/// dispatch worker's inbox `tx`.
pub(crate) fn spawn_acceptor(
    listener: TcpListener,
    keychain: Arc<Keychain>,
    tx: mpsc::Sender<WorkerInput>,
    counters: Arc<Counters>,
) -> tokio::task::JoinHandle<()> {
    tokio::spawn(async move {
        loop {
            let Ok((stream, _)) = listener.accept().await else { break };
            let kc = keychain.clone();
            let tx = tx.clone();
            let counters = counters.clone();
            tokio::spawn(async move {
                let _ = read_loop(stream, kc, tx, counters).await;
            });
        }
    })
}

/// One peer's outbound connection, shared by the dispatch worker and the
/// peer's writer task; the writer's queue closes with the last clone.
#[derive(Clone)]
pub(crate) struct PeerLink {
    conn: Arc<Mutex<Conn>>,
    /// The writer's bounded queue (`egress_capacity` frames), each frame
    /// with how many of its bytes are already on the current connection.
    backlog: mpsc::Sender<(Bytes, usize)>,
}

/// The per-peer lock: the worker checks it and writes under it, so its
/// frames never interleave with the writer's.
struct Conn {
    /// What the writer dialed; `None` before and after a failed write.
    stream: Option<Arc<TcpStream>>,
    /// Frames the writer holds. The worker writes directly only at 0, when
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
    counters: Arc<Counters>,
) -> (PeerLink, tokio::task::JoinHandle<()>) {
    let (backlog, rx) = mpsc::channel(capacity);
    let conn = Arc::new(Mutex::new(Conn { stream: None, held: 0 }));
    let writer = tokio::spawn(write_loop(addr, conn.clone(), rx, counters));
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
            counters.add(NetStats::dropped_egress, 1);
        } else {
            conn.held += 1;
        }
        !full
    }
}

pub(crate) async fn read_loop(
    mut stream: TcpStream,
    keychain: Arc<Keychain>,
    tx: mpsc::Sender<WorkerInput>,
    counters: Arc<Counters>,
) -> std::io::Result<()> {
    let mut len_buf = [0u8; 4];
    loop {
        if stream.read_exact(&mut len_buf).await.is_err() {
            return Ok(()); // peer closed
        }
        let len = u32::from_be_bytes(len_buf) as usize;
        // Same bounds the decoder enforces: never allocate for a body that
        // could not decode.
        if !(MIN_FRAME_BODY..=MAX_FRAME_BODY).contains(&len) {
            counters.add(NetStats::dropped_frames, 1);
            return Ok(()); // framing is broken beyond recovery: drop link
        }
        let mut body = vec![0u8; len];
        if stream.read_exact(&mut body).await.is_err() {
            return Ok(());
        }
        // The body buffer becomes the shared allocation everything
        // downstream borrows from or refcounts: verify + validate here,
        // then dispatch its batch — entries are never copied out.
        let body = Bytes::from(body);
        match decode_inbound_frame_ref(&keychain, &body) {
            Ok((from, entries)) => {
                counters.add(NetStats::mac_ops, 1);
                counters.add(NetStats::recv_frames, 1);
                counters.add(NetStats::recv_entries, entries.len() as u64);
                if entries.is_empty() {
                    continue;
                }
                let frame = VerifiedFrame { from, batch: verified_batch(&body) };
                if tx.send(WorkerInput::Frame(frame)).await.is_err() {
                    return Ok(()); // dispatch worker gone
                }
            }
            Err(err) => {
                if matches!(err, FrameError::BadTag | FrameError::Malformed) {
                    // The tag was computed before the frame was rejected.
                    counters.add(NetStats::mac_ops, 1);
                }
                counters.add(NetStats::dropped_frames, 1);
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
    counters: Arc<Counters>,
) {
    let mut backoff = RECONNECT_DELAY;
    while let Some((frame, mut written)) = rx.recv().await {
        while let Some(rest) = frame.get(written..).filter(|rest| !rest.is_empty()) {
            let current = lock(&conn).stream.clone();
            let Some(stream) = current else {
                let Ok(stream) = TcpStream::connect(addr).await else {
                    tokio::time::sleep(backoff).await;
                    backoff = (backoff * 2).min(RECONNECT_DELAY * MAX_BACKOFF_FACTOR);
                    continue;
                };
                let _ = stream.set_nodelay(true);
                (backoff, written) = (RECONNECT_DELAY, 0);
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
        assert_eq!(counters.snapshot().dropped_egress, 96);
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
        while counters.snapshot().sent_frames < frames {
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
            let reader = tokio::spawn(read_loop(server, bob.clone(), tx, counters.clone()));

            client.write_all(&bad_len.to_be_bytes()).await.unwrap();
            // A perfectly valid frame behind the corrupt length word: the
            // link is already dead, so it must never be delivered.
            let frame = encode_epoch_frame(&alice, NodeId(1), &one_entry(b"late"));
            client.write_all(&frame).await.unwrap();

            reader.await.unwrap().unwrap();
            assert_eq!(counters.snapshot().dropped_frames, 1, "len={bad_len}");
            assert_eq!(counters.snapshot().recv_frames, 0, "len={bad_len}");
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
        let (link, writer) = open_link(addr, 16, counters.clone());
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
        assert_eq!(counters.snapshot().sent_frames, 3);
    }
}
