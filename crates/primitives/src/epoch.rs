//! The epoch layer: long-lived multi-round agreement pipelines.
//!
//! A single [`Protocol`] instance is one-shot: it runs to one output and
//! stops. An oracle deployment is not — it agrees on *fresh* prices round
//! after round, one agreement per `(epoch, asset)` pair, forever. This
//! module provides that lifecycle as sans-io machinery shared by the
//! simulator and the TCP runtime (a one-shot basket is simply a stream of
//! one epoch):
//!
//! - [`EpochId`] / [`AgreementId`]: epoch-aware instance addressing with a
//!   stable wire encoding (`u32` epoch × `u16` asset).
//! - an **epoch batch codec**: `(AgreementId, payload)` entry sequences.
//!   `delphi-net` wraps exactly this sequence in its authenticated frames,
//!   and [`EpochProtocol`] uses it as the payload of simulator messages,
//!   so simulated bytes equal TCP bytes.
//! - [`EpochMux`]: the pipeline driver. It spawns per-asset protocol
//!   instances epoch after epoch from a factory (the streaming price
//!   source), keeps at most [`EpochConfig::depth`] epochs in flight and at
//!   most [`EpochConfig::window`] resident in memory, garbage-collects
//!   completed and stale epochs, fast-forwards a node that fell behind the
//!   quorum frontier, and emits a strictly epoch-ordered stream of
//!   [`EpochEvent`]s.
//! - [`EpochProtocol`]: a [`Protocol`] adapter over [`EpochMux`] so the
//!   whole pipeline runs unchanged under the discrete-event simulator (and
//!   any other envelope transport), with [`FlushPolicy`]-controlled
//!   adaptive batching across protocol steps.
//!
//! # Garbage collection and the live window
//!
//! At most `depth` epochs are *unfinished* at any time (the pipelining
//! knob), and at most `window` epochs are *resident* (unfinished epochs
//! plus completed lingerers that keep answering slower peers). Eviction
//! only ever removes a *resolved* epoch: `window ≥ depth` guarantees a
//! resolved resident exists whenever the budget is exceeded, so an
//! unfinished epoch inside the window is never evicted. Entries addressed
//! to an evicted epoch are dropped and counted
//! ([`EpochStats::late_entries`]), never treated as protocol errors.
//!
//! # Falling behind and rejoining
//!
//! A node that crashes or goes silent for a while rejoins a stream whose
//! peers are many epochs ahead. The mux tracks, per authenticated sender,
//! the highest epoch that sender has addressed; once `t + 1` senders (at
//! least one honest) are beyond an unfinished epoch by more than the
//! window, that epoch can no longer complete (the quorum has evicted it)
//! and is resolved as [`EpochOutcome::Skipped`], letting the node jump
//! forward to the live frontier instead of stalling the stream. A single
//! Byzantine sender advertising an enormous epoch moves nothing.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use bytes::{BufMut, Bytes, BytesMut};

use crate::wire::{Decode, Encode, Reader, WireError, Writer};
use crate::{Envelope, InstanceId, NodeId, Protocol, Recipient};

/// Identity of one agreement round in a streaming oracle deployment.
///
/// Epochs are dense and start at 0; a `u32` outlasts a century of
/// per-second agreements.
///
/// # Example
///
/// ```
/// use delphi_primitives::EpochId;
///
/// let e = EpochId(3);
/// assert_eq!(e.next(), EpochId(4));
/// assert_eq!(format!("{e}"), "epoch-3");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EpochId(pub u32);

impl EpochId {
    /// The first epoch of any stream.
    pub const FIRST: EpochId = EpochId(0);

    /// The epoch after this one.
    #[inline]
    pub fn next(self) -> EpochId {
        EpochId(self.0 + 1)
    }

    /// The epoch's index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EpochId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "epoch-{}", self.0)
    }
}

impl From<u32> for EpochId {
    fn from(raw: u32) -> Self {
        EpochId(raw)
    }
}

impl Encode for EpochId {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.0);
    }
}

impl Decode for EpochId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(EpochId(r.get_u32()?))
    }
}

/// Epoch-aware instance address: one agreement instance is the pair
/// *(epoch, asset)*.
///
/// [`InstanceId`] means "asset"; the epoch dimension is what turns a
/// fixed instance set into a stream. The wire encoding is stable: 4 epoch
/// bytes then 2 asset bytes, big-endian, inside the epoch batch codec.
///
/// # Example
///
/// ```
/// use delphi_primitives::{AgreementId, EpochId, InstanceId};
///
/// let id = AgreementId::new(EpochId(7), InstanceId(2));
/// assert_eq!(format!("{id}"), "epoch-7/instance-2");
/// assert!(id < AgreementId::new(EpochId(8), InstanceId(0)), "epoch-major order");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AgreementId {
    /// The agreement round.
    pub epoch: EpochId,
    /// The asset (one-shot instance) within the round.
    pub asset: InstanceId,
}

impl AgreementId {
    /// Builds an id from its two components.
    pub fn new(epoch: EpochId, asset: InstanceId) -> AgreementId {
        AgreementId { epoch, asset }
    }

    /// Stable receive-shard assignment, by asset: every epoch of one asset
    /// lands on the same dispatch worker, so per-instance FIFO ordering
    /// survives sharding. See [`InstanceId::shard`].
    #[inline]
    pub fn shard(self, shards: usize) -> usize {
        self.asset.shard(shards)
    }
}

impl fmt::Display for AgreementId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.epoch, self.asset)
    }
}

impl Encode for AgreementId {
    fn encode(&self, w: &mut Writer) {
        self.epoch.encode(w);
        self.asset.encode(w);
    }
}

impl Decode for AgreementId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(AgreementId { epoch: EpochId::decode(r)?, asset: InstanceId::decode(r)? })
    }
}

/// Bytes of epoch-batch overhead per entry: 4-byte epoch, 2-byte asset,
/// 4-byte length prefix.
pub const EPOCH_ENTRY_OVERHEAD_BYTES: usize = 10;

/// Bytes of epoch-batch overhead per batch: the 2-byte entry count.
pub const EPOCH_COUNT_BYTES: usize = 2;

/// Encoded length of an epoch batch with the given payload lengths.
pub fn epoch_batch_len(payload_lens: impl IntoIterator<Item = usize>) -> usize {
    EPOCH_COUNT_BYTES
        + payload_lens.into_iter().map(|l| EPOCH_ENTRY_OVERHEAD_BYTES + l).sum::<usize>()
}

/// Encodes `(agreement, payload)` entries into one epoch batch payload:
/// `[u16 count]` then `count` entries of `[u32 epoch][u16 asset][u32 len]
/// [len bytes]`, big-endian.
///
/// # Panics
///
/// Panics if `entries` holds more than `u16::MAX` entries or an entry
/// exceeds `u32::MAX` bytes (unreachable for protocol traffic).
pub fn encode_epoch_batch(entries: &[(AgreementId, Bytes)]) -> Bytes {
    let mut buf = BytesMut::with_capacity(epoch_batch_len(entries.iter().map(|(_, p)| p.len())));
    put_epoch_batch(entries, &mut buf);
    buf.freeze()
}

/// Appends the [`encode_epoch_batch`] encoding of `entries` to `buf` — for
/// a transport that builds its frame around the batch in one buffer.
///
/// # Panics
///
/// As [`encode_epoch_batch`].
pub fn put_epoch_batch(entries: &[(AgreementId, Bytes)], buf: &mut impl BufMut) {
    let count = u16::try_from(entries.len()).expect("epoch batch entry count fits u16");
    buf.put_u16(count);
    for (id, payload) in entries {
        buf.put_u32(id.epoch.0);
        buf.put_u16(id.asset.0);
        buf.put_u32(u32::try_from(payload.len()).expect("entry length fits u32"));
        buf.put_slice(payload);
    }
}

#[cfg(test)]
/// Decodes an epoch batch payload back into owned `(agreement, payload)`
/// entries: the property-test oracle of [`decode_epoch_batch_ref`], with
/// its errors.
pub fn decode_epoch_batch(buf: &[u8]) -> Result<Vec<(AgreementId, Bytes)>, WireError> {
    let mut rest = buf;
    let count = take_u16(&mut rest)?;
    let mut entries = Vec::with_capacity(usize::from(count).min(rest.len() / 2 + 1));
    for _ in 0..count {
        let epoch = EpochId(take_u32(&mut rest)?);
        let asset = InstanceId(take_u16(&mut rest)?);
        let len = take_u32(&mut rest)? as usize;
        if len > rest.len() {
            return Err(WireError::LengthOutOfBounds);
        }
        let (payload, tail) = rest.split_at(len);
        entries.push((AgreementId::new(epoch, asset), Bytes::copy_from_slice(payload)));
        rest = tail;
    }
    if !rest.is_empty() {
        return Err(WireError::TrailingBytes);
    }
    Ok(entries)
}

/// A validated, borrowed view of an epoch batch payload: the zero-copy
/// decoder of the epoch batch codec.
///
/// [`decode_epoch_batch_ref`] validates the whole structure up front
/// (identical acceptance and errors to the owned test decoder,
/// property-tested), then [`EpochEntriesRef::iter`] yields `(agreement,
/// payload)` entries as slices into the input — no per-entry allocation,
/// no copies.
#[derive(Clone, Copy, Debug)]
pub struct EpochEntriesRef<'a> {
    /// Entry bytes (everything after the count), pre-validated.
    entries: &'a [u8],
    count: u16,
}

/// Parses a borrowed [`EpochEntriesRef`] view of an epoch batch payload.
///
/// # Errors
///
/// Returns [`WireError::Truncated`] on input ending mid-entry,
/// [`WireError::LengthOutOfBounds`] on an overrunning declared length, and
/// [`WireError::TrailingBytes`] on bytes past the declared count — all
/// expected on Byzantine-controlled input.
pub fn decode_epoch_batch_ref(buf: &[u8]) -> Result<EpochEntriesRef<'_>, WireError> {
    let mut rest = buf;
    let count = take_u16(&mut rest)?;
    let entries = rest;
    for _ in 0..count {
        let _epoch = take_u32(&mut rest)?;
        let _asset = take_u16(&mut rest)?;
        let len = take_u32(&mut rest)? as usize;
        if len > rest.len() {
            return Err(WireError::LengthOutOfBounds);
        }
        rest = &rest[len..];
    }
    if !rest.is_empty() {
        return Err(WireError::TrailingBytes);
    }
    Ok(EpochEntriesRef { entries, count })
}

impl<'a> EpochEntriesRef<'a> {
    /// Number of entries in the batch.
    pub fn len(&self) -> usize {
        usize::from(self.count)
    }

    /// Whether the batch carries no entries.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterates the entries as borrowed slices.
    pub fn iter(&self) -> EpochEntryIter<'a> {
        EpochEntryIter { rest: self.entries, remaining: self.count }
    }

    /// Materializes owned entries (the protocol-boundary escape hatch).
    pub fn to_owned_entries(&self) -> Vec<(AgreementId, Bytes)> {
        self.iter().map(|(id, p)| (id, Bytes::copy_from_slice(p))).collect()
    }
}

/// Iterator over a pre-validated [`EpochEntriesRef`].
#[derive(Clone, Debug)]
pub struct EpochEntryIter<'a> {
    rest: &'a [u8],
    remaining: u16,
}

impl<'a> Iterator for EpochEntryIter<'a> {
    type Item = (AgreementId, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // Validated at parse time; the checks below are unreachable but
        // keep the iterator panic-free on principle.
        let epoch = EpochId(take_u32(&mut self.rest).ok()?);
        let asset = InstanceId(take_u16(&mut self.rest).ok()?);
        let len = take_u32(&mut self.rest).ok()? as usize;
        if len > self.rest.len() {
            self.remaining = 0;
            return None;
        }
        let (payload, tail) = self.rest.split_at(len);
        self.rest = tail;
        Some((AgreementId::new(epoch, asset), payload))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::from(self.remaining), Some(usize::from(self.remaining)))
    }
}

fn take_u16(rest: &mut &[u8]) -> Result<u16, WireError> {
    let Some((head, tail)) = rest.split_first_chunk::<2>() else {
        return Err(WireError::Truncated);
    };
    *rest = tail;
    Ok(u16::from_be_bytes(*head))
}

fn take_u32(rest: &mut &[u8]) -> Result<u32, WireError> {
    let Some((head, tail)) = rest.split_first_chunk::<4>() else {
        return Err(WireError::Truncated);
    };
    *rest = tail;
    Ok(u32::from_be_bytes(*head))
}

/// Routes one step's epoch-addressed envelope bursts into per-destination
/// entry lists: broadcasts expand to every node but `me`, and
/// point-to-point envelopes to out-of-range destinations are dropped.
/// Shared by [`EpochProtocol`] (simulator path) and `delphi-net`'s egress
/// lanes (TCP path), so the two transports cannot diverge on routing.
///
/// `per_dest` is caller-owned scratch — resized to `n`, cleared and
/// refilled — so a steady-state sender reuses one set of routing buffers
/// instead of allocating `n` fresh `Vec`s per step.
pub fn route_epoch_bursts_into(
    bursts: Vec<(AgreementId, Vec<Envelope>)>,
    n: usize,
    me: NodeId,
    per_dest: &mut Vec<Vec<(AgreementId, Bytes)>>,
) {
    per_dest.truncate(n);
    for entries in per_dest.iter_mut() {
        entries.clear();
    }
    per_dest.resize_with(n, Vec::new);
    for (id, envelopes) in bursts {
        for env in envelopes {
            match env.to {
                Recipient::All => {
                    for (dest, entries) in per_dest.iter_mut().enumerate() {
                        if dest != me.index() {
                            entries.push((id, env.payload.clone()));
                        }
                    }
                }
                Recipient::One(dest) if dest.index() < n => {
                    per_dest[dest.index()].push((id, env.payload));
                }
                Recipient::One(_) => {} // out-of-range: drop silently
            }
        }
    }
}

/// When a transport flushes accumulated batch entries.
///
/// `PerStep` flushes every protocol step's entries immediately, one frame
/// per destination per step. `Adaptive` accumulates entries across steps
/// and flushes a destination when its pending batch exceeds a size trigger
/// — or when the transport flushes (a TCP dispatch worker once its inbox
/// is empty, the simulator on its tick) — trading a bounded delay for fewer
/// frames and MAC tags per agreement. `PerEntry` is the measurement baseline the
/// other two are judged against: no batching at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Flush every entry in a frame of its own: each envelope pays its
    /// own framing and tag.
    PerEntry,
    /// Flush every step's entries immediately.
    PerStep,
    /// Accumulate entries across steps; flush on any trigger.
    Adaptive {
        /// Flush a destination once this many entries are pending for it.
        max_entries: usize,
        /// Flush a destination once this many payload bytes are pending.
        max_bytes: usize,
        /// Upper bound on how long an entry may sit unflushed (the TCP
        /// runner's ceiling under backlog; the simulator's tick interval).
        max_delay: Duration,
    },
}

impl FlushPolicy {
    /// A reasonable adaptive default: flush at 32 entries or 8 KiB, within
    /// a millisecond.
    pub fn adaptive() -> FlushPolicy {
        FlushPolicy::Adaptive {
            max_entries: 32,
            max_bytes: 8 * 1024,
            max_delay: Duration::from_millis(1),
        }
    }

    /// Whether this policy defers flushing at all.
    pub fn is_adaptive(&self) -> bool {
        matches!(self, FlushPolicy::Adaptive { .. })
    }
}

/// Shape of one epoch pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochConfig {
    /// Total epochs the stream runs (`K`).
    pub epochs: u32,
    /// Agreement instances (assets) per epoch.
    pub assets: u16,
    /// Maximum epochs in flight (unfinished) at once — the pipelining
    /// depth, i.e. the epoch-rate knob.
    pub depth: usize,
    /// Maximum epochs resident in memory, completed lingerers included.
    /// Must be at least `depth`; the excess is how long a completed epoch
    /// keeps answering slower peers before eviction.
    pub window: usize,
    /// Fault threshold `t`: fast-forward requires `t + 1` senders beyond
    /// an epoch before it may be skipped.
    pub t: usize,
}

impl EpochConfig {
    /// A window-validated config with the given stream length and basket
    /// size, pipelining `depth` epochs and lingering `window - depth`
    /// completed ones.
    ///
    /// # Panics
    ///
    /// Panics on a zero-epoch or zero-asset stream, zero depth, or
    /// `window < depth`.
    pub fn new(epochs: u32, assets: u16, depth: usize, window: usize, t: usize) -> EpochConfig {
        assert!(epochs >= 1, "stream needs at least one epoch");
        assert!(assets >= 1, "epoch needs at least one asset");
        assert!(depth >= 1, "pipeline depth must be at least 1");
        assert!(window >= depth, "window must cover the pipeline depth");
        EpochConfig { epochs, assets, depth, window, t }
    }
}

/// Counters the epoch layer exposes for observability and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Entries addressed to an already-evicted epoch, dropped.
    pub late_entries: u64,
    /// Entries addressed beyond the early-buffer horizon, dropped.
    pub early_dropped: u64,
    /// Buffered early entries replayed once their epoch spawned.
    pub replayed_entries: u64,
    /// Epochs resolved as [`EpochOutcome::Skipped`] (no agreement).
    pub stale_epochs: u64,
    /// Most epochs resident in memory at once (live-window bound check).
    pub peak_resident: usize,
}

/// A single-writer, many-reader cell for live [`EpochStats`] publication —
/// a seqlock built from plain atomics (no locks on either side, safe
/// Rust only).
///
/// The sharded epoch workers each own one cell and
/// [`publish`](EpochStatsCell::publish) after every frame; any number of
/// observers (a stats route, a monitoring thread, the service handle) call
/// [`stats_snapshot`](EpochStatsCell::stats_snapshot) and always see one
/// *coherent* published value — never a mix of two publications — because
/// the sequence number is bumped to odd before the fields are written and
/// back to even after, and a reader retries until it observes the same
/// even sequence on both sides of its field reads.
#[derive(Debug, Default)]
pub struct EpochStatsCell {
    seq: AtomicU64,
    late_entries: AtomicU64,
    early_dropped: AtomicU64,
    replayed_entries: AtomicU64,
    stale_epochs: AtomicU64,
    peak_resident: AtomicU64,
}

impl EpochStatsCell {
    /// An empty cell (all counters zero).
    pub fn new() -> EpochStatsCell {
        EpochStatsCell::default()
    }

    /// Publishes a new coherent value. Single writer: the owning shard
    /// worker. (Two concurrent writers would corrupt the seqlock's
    /// odd/even discipline; the type is not built for that.)
    pub fn publish(&self, stats: EpochStats) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::SeqCst); // odd: write in progress
        self.late_entries.store(stats.late_entries, Ordering::SeqCst);
        self.early_dropped.store(stats.early_dropped, Ordering::SeqCst);
        self.replayed_entries.store(stats.replayed_entries, Ordering::SeqCst);
        self.stale_epochs.store(stats.stale_epochs, Ordering::SeqCst);
        self.peak_resident.store(stats.peak_resident as u64, Ordering::SeqCst);
        self.seq.store(s.wrapping_add(2), Ordering::SeqCst); // even: consistent
    }

    /// One coherent copy of the latest published value. Lock-free for the
    /// writer; the reader spins only while a publication is mid-flight.
    pub fn stats_snapshot(&self) -> EpochStats {
        loop {
            let before = self.seq.load(Ordering::SeqCst);
            if before % 2 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let stats = EpochStats {
                late_entries: self.late_entries.load(Ordering::SeqCst),
                early_dropped: self.early_dropped.load(Ordering::SeqCst),
                replayed_entries: self.replayed_entries.load(Ordering::SeqCst),
                stale_epochs: self.stale_epochs.load(Ordering::SeqCst),
                peak_resident: self.peak_resident.load(Ordering::SeqCst) as usize,
            };
            if self.seq.load(Ordering::SeqCst) == before {
                return stats;
            }
            std::hint::spin_loop();
        }
    }
}

/// How one epoch of the stream resolved.
#[derive(Clone, Debug, PartialEq)]
pub enum EpochOutcome<O> {
    /// Every asset instance produced an output; values in asset order.
    Agreed(Vec<O>),
    /// The epoch was abandoned (the node fell behind the quorum frontier
    /// past the live window and could no longer complete it).
    Skipped,
}

/// One element of the ordered output stream: `(epoch, outcome)`.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochEvent<O> {
    /// The resolved epoch.
    pub epoch: EpochId,
    /// Its outcome.
    pub outcome: EpochOutcome<O>,
}

impl<O> EpochEvent<O> {
    /// The `(epoch, asset, value)` agreements this event carries (empty
    /// for skipped epochs).
    pub fn agreements(&self) -> impl Iterator<Item = (EpochId, InstanceId, &O)> {
        let values = match &self.outcome {
            EpochOutcome::Agreed(values) => &values[..],
            EpochOutcome::Skipped => &[],
        };
        values.iter().enumerate().map(move |(a, v)| (self.epoch, InstanceId(a as u16), v))
    }
}

/// Expands a vector-basket event stream into the per-asset shape.
///
/// In vector mode ([`EpochMux::new_vector`]) each agreed epoch carries one
/// output *per instance slot* (a single slot), and that output is itself
/// the whole basket — `EpochOutcome::Agreed(vec![vec![v0, .., vm]])`.
/// Concatenating the slots yields `Agreed(vec![v0, .., vm])`, exactly what
/// the per-asset pipeline emits, so everything downstream (publishers,
/// agreement counters, convergence checks) is mode-oblivious.
pub fn flatten_vector_events<O>(events: Vec<EpochEvent<Vec<O>>>) -> Vec<EpochEvent<O>> {
    events
        .into_iter()
        .map(|event| EpochEvent {
            epoch: event.epoch,
            outcome: match event.outcome {
                EpochOutcome::Agreed(slots) => {
                    EpochOutcome::Agreed(slots.into_iter().flatten().collect())
                }
                EpochOutcome::Skipped => EpochOutcome::Skipped,
            },
        })
        .collect()
}

/// One resident epoch: its per-asset instances and completion state.
struct Slot<P: Protocol> {
    instances: Vec<P>,
    outputs: Vec<Option<P::Output>>,
    missing: usize,
}

impl<P: Protocol> Slot<P> {
    fn done(&self) -> bool {
        self.missing == 0
    }
}

/// Cap on bytes buffered for not-yet-spawned epochs (per node). Honest
/// peers run at most `depth` epochs ahead, so the buffer stays tiny; the
/// cap only bounds Byzantine flooding.
const EARLY_BUFFER_BYTES: usize = 256 * 1024;

/// Budget charge for one buffered early entry: its payload plus a fixed
/// per-entry overhead, so empty-payload floods from an authenticated
/// Byzantine peer still exhaust the cap instead of growing the buffer's
/// bookkeeping without bound.
fn early_entry_cost(payload_len: usize) -> usize {
    payload_len + 64
}

/// The long-lived multi-epoch agreement pipeline.
///
/// `EpochMux` is sans-io: it consumes authenticated `(sender, agreement,
/// payload)` entries and returns epoch-addressed envelope bursts for the
/// transport to route. Drive it through [`EpochProtocol`] under the
/// simulator, or natively through `delphi-net`'s `run_epoch_service` over
/// real sockets.
///
/// Instances are created lazily by the factory, one call per `(epoch,
/// asset)` pair — the factory *is* the streaming input source.
pub struct EpochMux<P: Protocol> {
    cfg: EpochConfig,
    me: NodeId,
    n: usize,
    factory: Box<dyn FnMut(EpochId, InstanceId) -> P + Send>,
    /// Resident epochs by id (unfinished + completed lingerers).
    slots: BTreeMap<u32, Slot<P>>,
    /// Next epoch id to spawn (everything below is spawned or skipped).
    next_spawn: u32,
    /// Unfinished resident epochs (≤ `cfg.depth`).
    unfinished: usize,
    /// Out-of-order resolutions awaiting ordered emission.
    resolved: BTreeMap<u32, EpochOutcome<P::Output>>,
    /// The ordered output stream.
    events: Vec<EpochEvent<P::Output>>,
    /// Epochs `< emit_floor` have been emitted.
    emit_floor: u32,
    /// Highest epoch each sender has addressed to us.
    frontier: Vec<Option<u32>>,
    /// The highest epoch at least `t + 1` distinct senders have reached
    /// (at least one of them honest), cached: it can only move when a
    /// sender's mark does, which is when it is recomputed.
    quorum_frontier: Option<u32>,
    /// Reused selection buffer for that recomputation.
    frontier_scratch: Vec<u32>,
    /// Entries for epochs we have not spawned yet, replayed at spawn.
    early: BTreeMap<u32, Vec<(NodeId, InstanceId, Bytes)>>,
    early_bytes: usize,
    stats: EpochStats,
    started: bool,
    /// Basket dimensions when the pipeline runs one *vector-valued*
    /// instance per epoch (see [`EpochMux::new_vector`]); `0` in the
    /// ordinary per-asset mode.
    vector_dims: u16,
}

impl<P: Protocol> fmt::Debug for EpochMux<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochMux")
            .field("cfg", &self.cfg)
            .field("me", &self.me)
            .field("next_spawn", &self.next_spawn)
            .field("resident", &self.slots.len())
            .field("emit_floor", &self.emit_floor)
            .finish_non_exhaustive()
    }
}

impl<P: Protocol> EpochMux<P> {
    /// Creates the pipeline for node `me` of an `n`-node deployment.
    ///
    /// `factory(epoch, asset)` builds the agreement instance for that pair
    /// — typically a fresh protocol node seeded with the epoch's price
    /// sample. It is called lazily, at most [`EpochConfig::window`] epochs
    /// ahead of the oldest resident epoch.
    ///
    /// # Panics
    ///
    /// Panics on an invalid config (see [`EpochConfig::new`]) or `me` out
    /// of range.
    pub fn new(
        cfg: EpochConfig,
        me: NodeId,
        n: usize,
        factory: Box<dyn FnMut(EpochId, InstanceId) -> P + Send>,
    ) -> EpochMux<P> {
        let cfg = EpochConfig::new(cfg.epochs, cfg.assets, cfg.depth, cfg.window, cfg.t);
        assert!(me.index() < n, "node id {me} out of range for n={n}");
        EpochMux {
            cfg,
            me,
            n,
            factory,
            slots: BTreeMap::new(),
            next_spawn: 0,
            unfinished: 0,
            resolved: BTreeMap::new(),
            events: Vec::new(),
            emit_floor: 0,
            frontier: vec![None; n],
            quorum_frontier: None,
            frontier_scratch: Vec::with_capacity(n),
            early: BTreeMap::new(),
            early_bytes: 0,
            stats: EpochStats::default(),
            started: false,
            vector_dims: 0,
        }
    }

    /// Basket dimensions in vector mode ([`EpochMux::new_vector`]); `0`
    /// when the pipeline fans out per asset.
    pub fn vector_dims(&self) -> u16 {
        self.vector_dims
    }

    /// This node's identity.
    pub fn node_id(&self) -> NodeId {
        self.me
    }

    /// System size `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The pipeline's shape.
    pub fn config(&self) -> &EpochConfig {
        &self.cfg
    }

    /// Whether every epoch of the stream has resolved and been emitted.
    pub fn is_complete(&self) -> bool {
        self.emit_floor == self.cfg.epochs
    }

    /// The ordered output stream emitted so far.
    pub fn events(&self) -> &[EpochEvent<P::Output>] {
        &self.events
    }

    /// Drops and returns the events emitted since the last drain.
    pub fn drain_events(&mut self) -> Vec<EpochEvent<P::Output>> {
        std::mem::take(&mut self.events)
    }

    /// Observability counters.
    pub fn stats(&self) -> EpochStats {
        self.stats
    }

    /// Epochs currently resident in memory.
    pub fn resident_epochs(&self) -> usize {
        self.slots.len()
    }

    /// Starts the pipeline: spawns the first `depth` epochs and returns
    /// their start bursts.
    ///
    /// Call exactly once, before any [`EpochMux::on_entry`].
    pub fn start(&mut self) -> Vec<(AgreementId, Vec<Envelope>)> {
        assert!(!self.started, "start() must be called exactly once");
        self.started = true;
        let mut bursts = Vec::new();
        self.fill_pipeline(&mut bursts);
        bursts
    }

    /// Feeds one authenticated entry from `from`, returning the envelope
    /// bursts it triggered (including start bursts of any newly spawned
    /// epochs).
    pub fn on_entry(
        &mut self,
        from: NodeId,
        id: AgreementId,
        payload: &[u8],
    ) -> Vec<(AgreementId, Vec<Envelope>)> {
        let mut bursts = Vec::new();
        if from.index() < self.n && from != self.me {
            // Clamp to the stream: epochs past the end are nonsense and
            // must not drag the frontier (and everyone's skips) with them.
            let claimed = id.epoch.0.min(self.cfg.epochs - 1);
            let mark = &mut self.frontier[from.index()];
            if mark.is_none_or(|f| claimed > f) {
                *mark = Some(claimed);
                // A resident epoch can only be stranded by the quorum
                // frontier moving (`fill_pipeline` never spawns a hopeless
                // one), so every other entry skips the scan.
                if self.refresh_quorum_frontier() {
                    self.fast_forward(&mut bursts);
                }
            }
        }

        let epoch = id.epoch.0;
        if epoch >= self.next_spawn {
            self.buffer_early(from, id, payload);
            return bursts;
        }
        let Some(slot) = self.slots.get_mut(&epoch) else {
            // Evicted or skipped: a peer slower (or faster, pre-skip) than
            // us. Expected traffic, never an error.
            self.stats.late_entries += 1;
            return bursts;
        };
        let Some(instance) = slot.instances.get_mut(id.asset.index()) else {
            return bursts; // unknown asset: ignore the entry
        };
        let burst = instance.on_message(from, payload);
        if !burst.is_empty() {
            bursts.push((id, burst));
        }
        self.harvest(epoch, id.asset.index());
        self.fill_pipeline(&mut bursts);
        bursts
    }

    /// Records a fresh output on `(epoch, asset)` and resolves the epoch
    /// once every asset has one.
    fn harvest(&mut self, epoch: u32, asset: usize) {
        let Some(slot) = self.slots.get_mut(&epoch) else { return };
        if slot.outputs[asset].is_none() {
            if let Some(out) = slot.instances[asset].output() {
                slot.outputs[asset] = Some(out);
                slot.missing -= 1;
                if slot.done() {
                    self.unfinished -= 1;
                    let outputs =
                        slot.outputs.iter().map(|o| o.clone().expect("all present")).collect();
                    self.resolve(epoch, EpochOutcome::Agreed(outputs));
                }
            }
        }
    }

    /// Queues `outcome` for ordered emission (the slot, if any, stays
    /// resident as a lingerer until evicted).
    fn resolve(&mut self, epoch: u32, outcome: EpochOutcome<P::Output>) {
        self.resolved.insert(epoch, outcome);
        while let Some(outcome) = self.resolved.remove(&self.emit_floor) {
            self.events.push(EpochEvent { epoch: EpochId(self.emit_floor), outcome });
            self.emit_floor += 1;
        }
    }

    /// Spawns epochs until `depth` are unfinished (or the stream ends),
    /// replaying buffered early entries, and evicts lingerers beyond the
    /// window.
    fn fill_pipeline(&mut self, bursts: &mut Vec<(AgreementId, Vec<Envelope>)>) {
        while self.unfinished < self.cfg.depth && self.next_spawn < self.cfg.epochs {
            let epoch = self.next_spawn;
            self.next_spawn += 1;
            if self.hopeless(epoch) {
                // The quorum frontier has moved past this epoch by more
                // than the window: peers have evicted it, it can never
                // complete. Skip without building instances, releasing
                // whatever the epoch had buffered back to the budget.
                for (_, _, payload) in self.early.remove(&epoch).unwrap_or_default() {
                    self.early_bytes -= early_entry_cost(payload.len());
                }
                self.stats.stale_epochs += 1;
                self.resolve(epoch, EpochOutcome::Skipped);
                continue;
            }
            // Make room first so residency never exceeds the window, even
            // transiently: when the budget is full, a resolved lingerer
            // always exists (the spawn loop runs only while unfinished <
            // depth ≤ window) and is evicted before the new epoch lands.
            self.evict_lingerers();
            let assets = usize::from(self.cfg.assets);
            let mut instances = Vec::with_capacity(assets);
            for a in 0..assets {
                instances.push((self.factory)(EpochId(epoch), InstanceId(a as u16)));
            }
            let mut slot = Slot { instances, outputs: vec![None; assets], missing: assets };
            for (a, instance) in slot.instances.iter_mut().enumerate() {
                let burst = instance.start();
                if !burst.is_empty() {
                    bursts.push((AgreementId::new(EpochId(epoch), InstanceId(a as u16)), burst));
                }
            }
            self.slots.insert(epoch, slot);
            self.unfinished += 1;
            self.stats.peak_resident = self.stats.peak_resident.max(self.slots.len());
            // An instance may output at start (degenerate protocols).
            for a in 0..assets {
                self.harvest(epoch, a);
            }
            self.replay_early(epoch, bursts);
        }
    }

    /// Whether `epoch` is beyond saving: `t + 1` senders are ahead of it
    /// by more than the live window, so the quorum has evicted it.
    fn hopeless(&self, epoch: u32) -> bool {
        match self.quorum_frontier {
            Some(f) => epoch + self.cfg.window as u32 <= f && f > epoch,
            None => false,
        }
    }

    /// Recomputes the cached quorum frontier — the `(t + 1)`-th highest
    /// sender mark — after a mark advanced; returns whether it moved.
    fn refresh_quorum_frontier(&mut self) -> bool {
        let seen = &mut self.frontier_scratch;
        seen.clear();
        seen.extend(self.frontier.iter().flatten());
        if seen.len() <= self.cfg.t {
            return false;
        }
        let (_, &mut quorum, _) = seen.select_nth_unstable_by(self.cfg.t, |a, b| b.cmp(a));
        let moved = self.quorum_frontier != Some(quorum);
        self.quorum_frontier = Some(quorum);
        moved
    }

    /// Skips unfinished epochs the quorum has left behind, so the
    /// pipeline can refill at the live frontier instead of stalling.
    fn fast_forward(&mut self, bursts: &mut Vec<(AgreementId, Vec<Envelope>)>) {
        let Some(frontier) = self.quorum_frontier else { return };
        let stale: Vec<u32> = self
            .slots
            .iter()
            .filter(|(&e, slot)| !slot.done() && e + (self.cfg.window as u32) <= frontier)
            .map(|(&e, _)| e)
            .collect();
        if stale.is_empty() {
            return;
        }
        for epoch in stale {
            self.slots.remove(&epoch);
            self.unfinished -= 1;
            self.stats.stale_epochs += 1;
            self.resolve(epoch, EpochOutcome::Skipped);
        }
        self.fill_pipeline(bursts);
    }

    /// Buffers an entry for a not-yet-spawned epoch (bounded; replayed at
    /// spawn). Entries beyond the stream or the byte budget are dropped.
    fn buffer_early(&mut self, from: NodeId, id: AgreementId, payload: &[u8]) {
        let epoch = id.epoch.0;
        let horizon = self.next_spawn.saturating_add(self.cfg.window as u32);
        if epoch >= self.cfg.epochs
            || epoch >= horizon
            || self.early_bytes + early_entry_cost(payload.len()) > EARLY_BUFFER_BYTES
        {
            self.stats.early_dropped += 1;
            return;
        }
        self.early_bytes += early_entry_cost(payload.len());
        self.early.entry(epoch).or_default().push((
            from,
            id.asset,
            Bytes::copy_from_slice(payload),
        ));
    }

    /// Replays entries buffered for `epoch` into its fresh instances.
    fn replay_early(&mut self, epoch: u32, bursts: &mut Vec<(AgreementId, Vec<Envelope>)>) {
        let Some(buffered) = self.early.remove(&epoch) else { return };
        for (from, asset, payload) in buffered {
            self.early_bytes -= early_entry_cost(payload.len());
            self.stats.replayed_entries += 1;
            let Some(slot) = self.slots.get_mut(&epoch) else { continue };
            let Some(instance) = slot.instances.get_mut(asset.index()) else { continue };
            let burst = instance.on_message(from, &payload);
            if !burst.is_empty() {
                bursts.push((AgreementId::new(EpochId(epoch), asset), burst));
            }
            self.harvest(epoch, asset.index());
        }
    }

    /// Evicts the oldest *resolved* epochs until a fresh spawn fits the
    /// window budget. Unfinished epochs are never evicted: the spawn loop
    /// runs only while fewer than `depth ≤ window` epochs are unfinished,
    /// so a resolved resident always exists when the budget is full.
    fn evict_lingerers(&mut self) {
        while self.slots.len() >= self.cfg.window {
            let victim = self
                .slots
                .iter()
                .find(|(_, slot)| slot.done())
                .map(|(&e, _)| e)
                .expect("window >= depth leaves a resolved epoch to evict");
            self.slots.remove(&victim);
        }
    }
}

impl<P: Protocol + Send + 'static> EpochMux<P> {
    /// A one-shot basket as a stream of one epoch: `instances[i]` runs as
    /// asset `i` of epoch 0 (depth 1, window 1 — the resolved epoch is
    /// never evicted, so a finished node keeps answering peers), and the
    /// stream's single event carries their outputs in order. The fault
    /// threshold is moot: one epoch has nothing to fast-forward to.
    ///
    /// # Panics
    ///
    /// Panics if `instances` is empty, holds more than `u16::MAX`
    /// instances, or the instances disagree on node identity or system
    /// size.
    pub fn one_epoch(instances: Vec<P>) -> EpochMux<P> {
        assert!(!instances.is_empty(), "a one-epoch stream needs at least one instance");
        assert!(instances.len() <= usize::from(u16::MAX), "instance ids are u16");
        let (me, n) = instances.first().map_or((NodeId(0), 0), |p| (p.node_id(), p.n()));
        assert!(
            instances.iter().all(|p| p.node_id() == me && p.n() == n),
            "instances disagree on node id or system size"
        );
        let cfg = EpochConfig::new(1, instances.len() as u16, 1, 1, 0);
        let mut prebuilt: Vec<Option<P>> = instances.into_iter().map(Some).collect();
        let factory = move |_, asset: InstanceId| {
            let instance = prebuilt.get_mut(asset.index()).and_then(Option::take);
            // lint: allow(no-panic) — one epoch spawns each of its assets exactly once
            instance.expect("a one-epoch stream builds every instance once")
        };
        EpochMux::new(cfg, me, n, Box::new(factory))
    }
}

impl<P: Protocol + 'static> EpochMux<P> {
    /// Creates a *vector-basket* pipeline: one multidimensional agreement
    /// instance per epoch instead of a per-asset fan-out.
    ///
    /// `cfg.assets` names the basket size the instances agree on; on the
    /// wire the pipeline runs with a single [`InstanceId`] (asset 0) per
    /// epoch — every frame entry of an epoch addresses the one vector
    /// instance, which is why one bundle exchange per round covers the
    /// whole basket. [`EpochMux::vector_dims`] reports the basket size so
    /// drivers can expand each `P::Output` (a whole basket) back into
    /// per-asset values (see [`flatten_vector_events`]).
    ///
    /// # Panics
    ///
    /// Panics on an invalid config (see [`EpochConfig::new`]) or `me` out
    /// of range.
    pub fn new_vector(
        cfg: EpochConfig,
        me: NodeId,
        n: usize,
        mut factory: Box<dyn FnMut(EpochId) -> P + Send>,
    ) -> EpochMux<P> {
        let dims = cfg.assets;
        let wire_cfg = EpochConfig::new(cfg.epochs, 1, cfg.depth, cfg.window, cfg.t);
        let mut mux = EpochMux::new(wire_cfg, me, n, Box::new(move |epoch, _| factory(epoch)));
        mux.vector_dims = dims;
        mux
    }

    /// Splits an **unstarted** pipeline into per-receive-shard
    /// sub-pipelines, partitioning the basket by [`InstanceId::shard`].
    ///
    /// Each [`EpochShard`] owns the full epoch lifecycle (spawn, GC,
    /// fast-forward, ordered emission) for *its* assets and nothing else,
    /// so a sharded receive path dispatches entries to shard workers with
    /// no locks on the per-entry path — the factory is the only shared
    /// state, serialized behind a mutex that is touched once per
    /// `(epoch, asset)` spawn, never per entry. Shards with no assets are
    /// dropped, so the result holds `min(shards, assets)` pipelines.
    ///
    /// Merge the per-shard event streams back into basket order with
    /// [`merge_epoch_shards`].
    ///
    /// # Panics
    ///
    /// Panics if the pipeline was already started or `shards` is zero.
    pub fn split_assets(self, shards: usize) -> Vec<EpochShard<P>> {
        assert!(!self.started, "split_assets must precede start()");
        assert!(shards >= 1, "need at least one shard");
        let total = usize::from(self.cfg.assets);
        let shards = shards.min(total);
        let mut groups: Vec<Vec<InstanceId>> = vec![Vec::new(); shards];
        for a in 0..total as u16 {
            groups[InstanceId(a).shard(shards)].push(InstanceId(a));
        }
        let factory = std::sync::Arc::new(std::sync::Mutex::new(self.factory));
        let (cfg, me, n) = (self.cfg, self.me, self.n);
        groups
            .into_iter()
            .enumerate()
            .filter(|(_, g)| !g.is_empty())
            .map(|(shard_index, assets)| {
                let shared = factory.clone();
                let map = assets.clone();
                let sub_cfg =
                    EpochConfig::new(cfg.epochs, map.len() as u16, cfg.depth, cfg.window, cfg.t);
                let mux = EpochMux::new(
                    sub_cfg,
                    me,
                    n,
                    Box::new(move |epoch, local| {
                        (shared.lock().expect("shared factory"))(epoch, map[local.index()])
                    }),
                );
                EpochShard { shard_index, assets, mux }
            })
            .collect()
    }
}

/// One receive shard's slice of a split pipeline (see
/// [`EpochMux::split_assets`]): a complete [`EpochMux`] over a subset of
/// the basket, speaking **global** asset ids at its boundary.
pub struct EpochShard<P: Protocol> {
    /// Which shard index of the split this is (the [`InstanceId::shard`]
    /// value of every asset it owns).
    shard_index: usize,
    /// The global asset ids this shard owns, ascending.
    assets: Vec<InstanceId>,
    mux: EpochMux<P>,
}

impl<P: Protocol> fmt::Debug for EpochShard<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochShard").field("assets", &self.assets).field("mux", &self.mux).finish()
    }
}

impl<P: Protocol> EpochShard<P> {
    /// Which shard index of the split this is.
    pub fn shard_index(&self) -> usize {
        self.shard_index
    }

    /// The global asset ids this shard owns, ascending.
    pub fn assets(&self) -> &[InstanceId] {
        &self.assets
    }

    /// The ordered events emitted so far (shard-local asset order).
    pub fn events(&self) -> &[EpochEvent<P::Output>] {
        self.mux.events()
    }

    /// Drains the events emitted since the last drain (shard-local asset
    /// order; translate through [`EpochShard::assets`] to recover global
    /// ids). This is what lets a driver tail a shard's stream live
    /// instead of collecting everything at the end.
    pub fn drain_events(&mut self) -> Vec<EpochEvent<P::Output>> {
        self.mux.drain_events()
    }

    /// Whether this shard owns `asset`'s traffic.
    pub fn owns(&self, asset: InstanceId) -> bool {
        self.assets.binary_search(&asset).is_ok()
    }

    /// Whether every epoch of this shard's stream has resolved.
    pub fn is_complete(&self) -> bool {
        self.mux.is_complete()
    }

    /// The shard's epoch-layer counters.
    pub fn stats(&self) -> EpochStats {
        self.mux.stats()
    }

    /// Starts the shard's pipeline, returning globally-addressed bursts.
    pub fn start(&mut self) -> Vec<(AgreementId, Vec<Envelope>)> {
        let bursts = self.mux.start();
        self.to_global(bursts)
    }

    /// Feeds one authenticated entry (global address). Entries for assets
    /// this shard does not own are ignored — the dispatcher routes by the
    /// same [`AgreementId::shard`] mapping, so they never arrive in a
    /// correct deployment.
    pub fn on_entry(
        &mut self,
        from: NodeId,
        id: AgreementId,
        payload: &[u8],
    ) -> Vec<(AgreementId, Vec<Envelope>)> {
        let Ok(local) = self.assets.binary_search(&id.asset) else {
            return Vec::new();
        };
        let bursts =
            self.mux.on_entry(from, AgreementId::new(id.epoch, InstanceId(local as u16)), payload);
        self.to_global(bursts)
    }

    /// Consumes the shard, returning its asset map and ordered events for
    /// [`merge_epoch_shards`].
    pub fn into_events(self) -> (Vec<InstanceId>, Vec<EpochEvent<P::Output>>, EpochStats) {
        let stats = self.mux.stats();
        let EpochShard { assets, mut mux, .. } = self;
        (assets, mux.drain_events(), stats)
    }

    fn to_global(
        &self,
        bursts: Vec<(AgreementId, Vec<Envelope>)>,
    ) -> Vec<(AgreementId, Vec<Envelope>)> {
        bursts
            .into_iter()
            .map(|(id, envs)| (AgreementId::new(id.epoch, self.assets[id.asset.index()]), envs))
            .collect()
    }
}

/// Reassembles per-shard event streams (from [`EpochShard::into_events`])
/// into one basket-ordered stream over `assets` global assets.
///
/// An epoch merges to [`EpochOutcome::Agreed`] only when **every** shard
/// agreed it; a skip on any shard skips the merged epoch — the same
/// all-or-nothing contract a single pipeline gives per epoch.
pub fn merge_epoch_shards<O: Clone + fmt::Debug>(
    shards: Vec<(Vec<InstanceId>, Vec<EpochEvent<O>>)>,
    assets: u16,
) -> Vec<EpochEvent<O>> {
    let epochs = shards.iter().map(|(_, ev)| ev.len()).max().unwrap_or(0);
    (0..epochs)
        .map(|e| {
            let mut values: Vec<Option<O>> = vec![None; usize::from(assets)];
            let mut skipped = false;
            for (ids, events) in &shards {
                match events.get(e).map(|ev| &ev.outcome) {
                    Some(EpochOutcome::Agreed(vs)) => {
                        for (local, v) in vs.iter().enumerate() {
                            values[ids[local].index()] = Some(v.clone());
                        }
                    }
                    Some(EpochOutcome::Skipped) | None => skipped = true,
                }
            }
            let outcome = if skipped || values.iter().any(Option::is_none) {
                EpochOutcome::Skipped
            } else {
                EpochOutcome::Agreed(values.into_iter().map(|v| v.expect("all present")).collect())
            };
            EpochEvent { epoch: EpochId(e as u32), outcome }
        })
        .collect()
}

/// Combines per-shard [`EpochStats`]: counters sum; `peak_resident` is the
/// worst shard's residency (each shard bounds its own window).
pub fn merge_epoch_stats(stats: impl IntoIterator<Item = EpochStats>) -> EpochStats {
    let mut total = EpochStats::default();
    for s in stats {
        total.late_entries += s.late_entries;
        total.early_dropped += s.early_dropped;
        total.replayed_entries += s.replayed_entries;
        total.stale_epochs += s.stale_epochs;
        total.peak_resident = total.peak_resident.max(s.peak_resident);
    }
    total
}

/// [`Protocol`] adapter over [`EpochMux`]: the whole epoch pipeline as one
/// state machine any envelope transport can drive.
///
/// Outgoing bursts are routed per destination and encoded with the epoch
/// batch codec; [`FlushPolicy::Adaptive`] accumulates entries across steps
/// and relies on the driver's time trigger ([`Protocol::on_tick`]) to
/// bound the delay. The output is the complete ordered event stream, once
/// every epoch has resolved.
///
/// With [`EpochProtocol::recv_shards`] the sender additionally flushes one
/// batch per *(destination, receive shard)* — every entry of a batch
/// shares one [`AgreementId::shard`] class, and the envelope is tagged
/// with it — so a driver with a per-shard CPU model (the simulator's
/// `recv_shards`) processes batches bound for different dispatch workers
/// concurrently, mirroring `delphi-net`'s sharded receive path.
pub struct EpochProtocol<P: Protocol> {
    mux: EpochMux<P>,
    /// Pending entries per `(destination × recv_shards + shard)` slot.
    pending: PendingBatches,
    /// Receive shards the deployment runs (1 = unsharded).
    recv_shards: usize,
    /// Reused routing buffers: one per destination, refilled per step.
    route_scratch: Vec<Vec<(AgreementId, Bytes)>>,
    /// Reused per-shard partition buffers (sharded mode only).
    shard_scratch: Vec<Vec<(AgreementId, Bytes)>>,
    /// The entries flushed last and their encoding (see `flush_slot`).
    last_batch: Option<(Vec<(AgreementId, Bytes)>, Bytes)>,
    /// Batches flushed (what a transport turns into frames).
    sent_batches: u64,
    /// Entries flushed (envelopes after broadcast expansion).
    sent_entries: u64,
}

/// Per-destination pending entries under one [`FlushPolicy`] — the
/// accumulator shared by [`EpochProtocol`] (simulator path) and
/// `delphi-net`'s session layer (TCP path), so the two transports can
/// never diverge on when a batch is due. The caller owns what "flush"
/// means (an envelope, an authenticated frame); this struct only decides
/// *when* and hands the entries back.
///
/// Flushed buffers are meant to come home: [`PendingBatches::recycle`]
/// returns a drained buffer to a small free-list, and the next
/// accumulation for any destination reuses it instead of allocating —
/// [`PendingBatches::reuse_hits`] counts how often that worked, which
/// `NetStats` surfaces as `buffer_reuses`.
#[derive(Debug)]
pub struct PendingBatches {
    policy: FlushPolicy,
    pending: Vec<Vec<(AgreementId, Bytes)>>,
    bytes: Vec<usize>,
    /// Drained buffers awaiting reuse (bounded by the destination count).
    free: Vec<Vec<(AgreementId, Bytes)>>,
    reuse_hits: u64,
}

impl PendingBatches {
    /// An empty accumulator for `n` destinations.
    pub fn new(n: usize, policy: FlushPolicy) -> PendingBatches {
        PendingBatches {
            policy,
            pending: std::iter::repeat_with(Vec::new).take(n).collect(),
            bytes: vec![0; n],
            free: Vec::new(),
            reuse_hits: 0,
        }
    }

    /// Number of destinations.
    pub fn dests(&self) -> usize {
        self.pending.len()
    }

    /// The flush policy this accumulator runs under.
    pub fn policy(&self) -> &FlushPolicy {
        &self.policy
    }

    /// Moves entries from the front of the caller-owned scratch `entries`
    /// (which keeps its capacity for the next step) to `dest`'s pending
    /// batch, returning `true` when the destination is due for an
    /// immediate flush: always, per-step; on tripping the entry or byte
    /// trigger, adaptive — the time trigger is the driver's. Per-entry,
    /// one entry moves per call and is due at once, so callers loop
    /// `while push_drain(..) { flush }` until the scratch is empty.
    pub fn push_drain(&mut self, dest: usize, entries: &mut Vec<(AgreementId, Bytes)>) -> bool {
        if entries.is_empty() || dest >= self.pending.len() {
            return false;
        }
        let take = if matches!(self.policy, FlushPolicy::PerEntry) { 1 } else { entries.len() };
        if self.pending[dest].capacity() == 0 {
            if let Some(buf) = self.free.pop() {
                self.pending[dest] = buf;
                self.reuse_hits += 1;
            }
        }
        self.bytes[dest] += entries.iter().take(take).map(|(_, p)| p.len()).sum::<usize>();
        self.pending[dest].extend(entries.drain(..take));
        match self.policy {
            FlushPolicy::PerEntry | FlushPolicy::PerStep => true,
            FlushPolicy::Adaptive { max_entries, max_bytes, .. } => {
                self.pending[dest].len() >= max_entries || self.bytes[dest] >= max_bytes
            }
        }
    }

    /// Takes `dest`'s pending entries (empty when nothing is due). Hand
    /// the drained buffer back via [`PendingBatches::recycle`] once the
    /// flush has consumed it.
    pub fn take(&mut self, dest: usize) -> Vec<(AgreementId, Bytes)> {
        self.bytes[dest] = 0;
        std::mem::take(&mut self.pending[dest])
    }

    /// Returns a flushed buffer to the free-list (cleared; capacity kept).
    /// Buffers beyond one per destination are dropped — the steady state
    /// needs no more.
    pub fn recycle(&mut self, mut buf: Vec<(AgreementId, Bytes)>) {
        buf.clear();
        if buf.capacity() > 0 && self.free.len() < self.pending.len() {
            self.free.push(buf);
        }
    }

    /// How often an accumulation reused a recycled buffer instead of
    /// allocating a fresh one.
    pub fn reuse_hits(&self) -> u64 {
        self.reuse_hits
    }

    /// Whether any destination has unflushed entries.
    pub fn has_pending(&self) -> bool {
        self.pending.iter().any(|p| !p.is_empty())
    }
}

impl<P: Protocol> fmt::Debug for EpochProtocol<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochProtocol")
            .field("mux", &self.mux)
            .field("pending", &self.pending)
            .finish_non_exhaustive()
    }
}

impl<P: Protocol> EpochProtocol<P> {
    /// Wraps `mux` with the given flush policy (unsharded receive). Chain
    /// [`EpochProtocol::recv_shards`] before the first step for the
    /// sharded-receive sender half; there is deliberately no second
    /// constructor.
    pub fn new(mux: EpochMux<P>, flush: FlushPolicy) -> EpochProtocol<P> {
        let n = mux.n();
        EpochProtocol {
            mux,
            pending: PendingBatches::new(n, flush),
            recv_shards: 1,
            route_scratch: Vec::new(),
            shard_scratch: vec![Vec::new()],
            last_batch: None,
            sent_batches: 0,
            sent_entries: 0,
        }
    }

    /// Builder-style option: flush one batch per `(destination, receive
    /// shard)`, with every envelope tagged by its [`AgreementId::shard`]
    /// class — the sender half of a `recv_shards`-way sharded receive
    /// path. Call before the first step.
    ///
    /// # Panics
    ///
    /// Panics if `recv_shards` is zero, or if entries are already pending
    /// (the slot layout cannot be rewired mid-stream).
    pub fn recv_shards(mut self, recv_shards: usize) -> EpochProtocol<P> {
        assert!(recv_shards >= 1, "need at least one receive shard");
        assert!(!self.pending.has_pending(), "recv_shards must be set before the first step");
        let n = self.mux.n();
        let policy = *self.pending.policy();
        self.pending = PendingBatches::new(n * recv_shards, policy);
        self.recv_shards = recv_shards;
        self.shard_scratch = std::iter::repeat_with(Vec::new).take(recv_shards).collect();
        self
    }

    /// The underlying pipeline.
    pub fn mux(&self) -> &EpochMux<P> {
        &self.mux
    }

    /// Consumes the adapter, returning the pipeline (for transports that
    /// route epoch entries natively, like `delphi-net`).
    pub fn into_mux(self) -> EpochMux<P> {
        self.mux
    }

    /// Batches flushed so far (one transport frame each).
    pub fn sent_batches(&self) -> u64 {
        self.sent_batches
    }

    /// Entries flushed so far (envelopes after broadcast expansion).
    pub fn sent_entries(&self) -> u64 {
        self.sent_entries
    }

    /// Routes bursts into the per-slot pending buffers and flushes
    /// whatever the policy says is due. Routing and shard partitioning
    /// run through reused scratch buffers: the steady state allocates
    /// nothing.
    fn enqueue(&mut self, bursts: Vec<(AgreementId, Vec<Envelope>)>, out: &mut Vec<Envelope>) {
        if bursts.is_empty() {
            return; // most entries trigger nothing
        }
        let (n, me, shards) = (self.mux.n(), self.mux.node_id(), self.recv_shards);
        let mut routed = std::mem::take(&mut self.route_scratch);
        route_epoch_bursts_into(bursts, n, me, &mut routed);
        for (dest, entries) in routed.iter_mut().enumerate() {
            if entries.is_empty() {
                continue;
            }
            if shards == 1 {
                while self.pending.push_drain(dest, entries) {
                    self.flush_slot(dest, out);
                }
                continue;
            }
            // Partition the destination's entries into shard classes so
            // every flushed batch lands wholly on one dispatch worker.
            let mut groups = std::mem::take(&mut self.shard_scratch);
            for (id, payload) in entries.drain(..) {
                groups[id.shard(shards)].push((id, payload));
            }
            for (shard, group) in groups.iter_mut().enumerate() {
                while self.pending.push_drain(dest * shards + shard, group) {
                    self.flush_slot(dest * shards + shard, out);
                }
            }
            self.shard_scratch = groups;
        }
        self.route_scratch = routed;
    }

    fn flush_slot(&mut self, slot: usize, out: &mut Vec<Envelope>) {
        let entries = self.pending.take(slot);
        if entries.is_empty() {
            return;
        }
        self.sent_batches += 1;
        self.sent_entries += entries.len() as u64;
        let dest = NodeId((slot / self.recv_shards) as u16);
        let shard = (slot % self.recv_shards) as u16;
        // A broadcast step flushes the same entries to every destination
        // in turn: encode them once and hand out refcounted copies.
        let payload = match &self.last_batch {
            Some((previous, encoded)) if *previous == entries => encoded.clone(),
            _ => encode_epoch_batch(&entries),
        };
        out.push(Envelope::to_one(dest, payload.clone()).with_shard(shard));
        if let Some((previous, _)) = self.last_batch.replace((entries, payload)) {
            self.pending.recycle(previous);
        }
    }

    fn flush_all(&mut self) -> Vec<Envelope> {
        let mut out = Vec::new();
        for slot in 0..self.pending.dests() {
            self.flush_slot(slot, &mut out);
        }
        out
    }
}

impl<P: Protocol> Protocol for EpochProtocol<P> {
    type Output = Vec<EpochEvent<P::Output>>;

    fn node_id(&self) -> NodeId {
        self.mux.node_id()
    }

    fn n(&self) -> usize {
        self.mux.n()
    }

    fn start(&mut self) -> Vec<Envelope> {
        let bursts = self.mux.start();
        let mut out = Vec::new();
        self.enqueue(bursts, &mut out);
        out
    }

    fn on_message(&mut self, from: NodeId, payload: &[u8]) -> Vec<Envelope> {
        // Borrowed decode: entries stay slices into `payload` all the way
        // into the per-instance protocols — validated once, never copied.
        let Ok(entries) = decode_epoch_batch_ref(payload) else {
            return Vec::new(); // malformed batch: ignore, never panic
        };
        let mut out = Vec::new();
        for (id, entry) in entries.iter() {
            let bursts = self.mux.on_entry(from, id, entry);
            self.enqueue(bursts, &mut out);
        }
        out
    }

    fn on_tick(&mut self) -> Vec<Envelope> {
        self.flush_all()
    }

    fn output(&self) -> Option<Vec<EpochEvent<P::Output>>> {
        self.mux.is_complete().then(|| self.mux.events().to_vec())
    }

    fn is_finished(&self) -> bool {
        self.mux.is_complete() && !self.pending.has_pending()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::roundtrip;

    #[test]
    fn epoch_and_agreement_ids_roundtrip_and_display() {
        assert_eq!(EpochId(5).to_string(), "epoch-5");
        assert_eq!(EpochId(5).next(), EpochId(6));
        assert_eq!(EpochId::from(9u32).index(), 9);
        for raw in [0u32, 1, 255, 65_536, u32::MAX] {
            assert_eq!(roundtrip(&EpochId(raw)).unwrap(), EpochId(raw));
            let id = AgreementId::new(EpochId(raw), InstanceId(7));
            assert_eq!(roundtrip(&id).unwrap(), id);
        }
        assert_eq!(AgreementId::new(EpochId(0), InstanceId(2)).to_string(), "epoch-0/instance-2");
    }

    #[test]
    fn agreement_ids_order_epoch_major() {
        let a = AgreementId::new(EpochId(1), InstanceId(9));
        let b = AgreementId::new(EpochId(2), InstanceId(0));
        assert!(a < b);
    }

    #[test]
    fn epoch_batch_roundtrip_and_length() {
        let entries = vec![
            (AgreementId::new(EpochId(0), InstanceId(0)), Bytes::from_static(b"alpha")),
            (AgreementId::new(EpochId(u32::MAX), InstanceId(65535)), Bytes::from_static(b"")),
            (AgreementId::new(EpochId(7), InstanceId(3)), Bytes::from_static(b"omega")),
        ];
        let encoded = encode_epoch_batch(&entries);
        assert_eq!(encoded.len(), epoch_batch_len([5, 0, 5]));
        assert_eq!(decode_epoch_batch(&encoded).unwrap(), entries);
        // Empty batches round-trip too.
        assert_eq!(decode_epoch_batch(&encode_epoch_batch(&[])).unwrap(), Vec::new());
    }

    #[test]
    fn epoch_batch_rejects_malformed_input() {
        let entries = vec![(AgreementId::new(EpochId(3), InstanceId(1)), Bytes::from_static(b"p"))];
        let encoded = encode_epoch_batch(&entries);
        assert_eq!(decode_epoch_batch(&[]), Err(WireError::Truncated));
        for cut in 1..encoded.len() {
            let err = decode_epoch_batch(&encoded[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated | WireError::LengthOutOfBounds),
                "cut at {cut}: {err:?}"
            );
        }
        let mut trailing = encoded.to_vec();
        trailing.push(0xaa);
        assert_eq!(decode_epoch_batch(&trailing), Err(WireError::TrailingBytes));
        // Huge declared count with no entries must fail fast.
        assert_eq!(decode_epoch_batch(&[0xff, 0xff]), Err(WireError::Truncated));
    }

    #[test]
    fn stats_cell_snapshots_are_coherent_under_concurrent_publication() {
        // The writer publishes values whose fields are all equal; a torn
        // read would surface as a snapshot mixing two publications.
        let cell = std::sync::Arc::new(EpochStatsCell::new());
        let writer = {
            let cell = cell.clone();
            std::thread::spawn(move || {
                for i in 0..20_000u64 {
                    cell.publish(EpochStats {
                        late_entries: i,
                        early_dropped: i,
                        replayed_entries: i,
                        stale_epochs: i,
                        peak_resident: i as usize,
                    });
                }
            })
        };
        let mut last = 0;
        for _ in 0..20_000 {
            let s = cell.stats_snapshot();
            assert_eq!(
                (s.late_entries, s.early_dropped, s.replayed_entries, s.stale_epochs),
                (s.late_entries, s.late_entries, s.late_entries, s.late_entries),
                "torn snapshot: {s:?}"
            );
            assert_eq!(s.peak_resident as u64, s.late_entries, "torn snapshot: {s:?}");
            assert!(s.late_entries >= last, "publications observed out of order");
            last = s.late_entries;
        }
        writer.join().expect("writer");
        assert_eq!(cell.stats_snapshot().late_entries, 19_999);
    }

    /// One-round gossip: broadcasts once, outputs after hearing `n - 1`
    /// greetings. Completion per epoch requires every node's traffic.
    struct Gossip {
        id: NodeId,
        n: usize,
        tag: u8,
        heard: usize,
    }

    impl Protocol for Gossip {
        type Output = u8;
        fn node_id(&self) -> NodeId {
            self.id
        }
        fn n(&self) -> usize {
            self.n
        }
        fn start(&mut self) -> Vec<Envelope> {
            vec![Envelope::to_all(Bytes::copy_from_slice(&[self.tag]))]
        }
        fn on_message(&mut self, _: NodeId, _: &[u8]) -> Vec<Envelope> {
            self.heard += 1;
            Vec::new()
        }
        fn output(&self) -> Option<u8> {
            (self.heard >= self.n - 1).then_some(self.tag)
        }
    }

    fn gossip_factory(
        me: NodeId,
        n: usize,
    ) -> Box<dyn FnMut(EpochId, InstanceId) -> Gossip + Send> {
        Box::new(move |e, a| Gossip {
            id: me,
            n,
            tag: (e.0 as u8).wrapping_mul(10).wrapping_add(a.0 as u8),
            heard: 0,
        })
    }

    /// Degenerate vector protocol: outputs the whole basket at start.
    struct InstantBasket {
        id: NodeId,
        n: usize,
        basket: Vec<u8>,
    }

    impl Protocol for InstantBasket {
        type Output = Vec<u8>;
        fn node_id(&self) -> NodeId {
            self.id
        }
        fn n(&self) -> usize {
            self.n
        }
        fn start(&mut self) -> Vec<Envelope> {
            Vec::new()
        }
        fn on_message(&mut self, _: NodeId, _: &[u8]) -> Vec<Envelope> {
            Vec::new()
        }
        fn output(&self) -> Option<Vec<u8>> {
            Some(self.basket.clone())
        }
    }

    #[test]
    fn vector_mode_runs_one_instance_per_epoch() {
        let n = 4;
        let dims = 8u16;
        let cfg = EpochConfig::new(3, dims, 1, 2, 1);
        let spawned = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let counter = spawned.clone();
        let mut mux = EpochMux::new_vector(
            cfg,
            NodeId(0),
            n,
            Box::new(move |epoch| {
                counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                InstantBasket {
                    id: NodeId(0),
                    n,
                    basket: (0..dims as u8).map(|d| d + epoch.0 as u8).collect(),
                }
            }),
        );
        assert_eq!(mux.vector_dims(), dims);
        // On the wire the pipeline runs a single instance slot per epoch.
        assert_eq!(mux.config().assets, 1);
        let _ = mux.start();
        assert!(mux.is_complete());
        // One factory call (= one agreement instance) per epoch, not per
        // asset.
        assert_eq!(spawned.load(std::sync::atomic::Ordering::SeqCst), 3);
        let events = mux.drain_events();
        assert_eq!(events.len(), 3);
        for event in &events {
            // Each event holds one slot whose output is the whole basket.
            assert!(matches!(&event.outcome, EpochOutcome::Agreed(slots) if slots.len() == 1
                    && slots[0].len() == usize::from(dims)));
        }
        // Flattening recovers the per-asset event shape downstream code
        // expects: `dims` agreements per agreed epoch.
        let flat = flatten_vector_events(events);
        for (e, event) in flat.iter().enumerate() {
            assert_eq!(event.agreements().count(), usize::from(dims));
            match &event.outcome {
                EpochOutcome::Agreed(values) => {
                    assert_eq!(values[3], 3 + e as u8);
                }
                EpochOutcome::Skipped => panic!("skipped"),
            }
        }
    }

    #[test]
    fn flatten_vector_events_preserves_skips_and_order() {
        let events = vec![
            EpochEvent { epoch: EpochId(0), outcome: EpochOutcome::Agreed(vec![vec![1u8, 2, 3]]) },
            EpochEvent { epoch: EpochId(1), outcome: EpochOutcome::Skipped },
        ];
        let flat = flatten_vector_events(events);
        assert_eq!(flat[0].outcome, EpochOutcome::Agreed(vec![1, 2, 3]));
        assert!(matches!(flat[1].outcome, EpochOutcome::Skipped));
        assert_eq!((flat[0].epoch, flat[1].epoch), (EpochId(0), EpochId(1)));
    }

    fn mesh(cfg: EpochConfig, n: usize, flush: FlushPolicy) -> Vec<EpochProtocol<Gossip>> {
        NodeId::all(n)
            .map(|id| EpochProtocol::new(EpochMux::new(cfg, id, n, gossip_factory(id, n)), flush))
            .collect()
    }

    /// Hand-delivers envelopes (flushing via ticks when queues drain)
    /// until quiescence; returns messages delivered.
    fn run_mesh(nodes: &mut [EpochProtocol<Gossip>]) -> usize {
        let mut queue: std::collections::VecDeque<(NodeId, NodeId, Bytes)> =
            std::collections::VecDeque::new();
        let push = |queue: &mut std::collections::VecDeque<(NodeId, NodeId, Bytes)>,
                    from: NodeId,
                    envs: Vec<Envelope>| {
            for env in envs {
                let Recipient::One(dest) = env.to else { panic!("epoch batches are to_one") };
                queue.push_back((from, dest, env.payload));
            }
        };
        for (i, node) in nodes.iter_mut().enumerate() {
            let envs = node.start();
            push(&mut queue, NodeId(i as u16), envs);
        }
        let mut delivered = 0;
        loop {
            while let Some((from, to, payload)) = queue.pop_front() {
                delivered += 1;
                let envs = nodes[to.index()].on_message(from, &payload);
                push(&mut queue, to, envs);
            }
            // Queue drained: fire the time trigger (the simulator's tick).
            let mut progressed = false;
            for (i, node) in nodes.iter_mut().enumerate() {
                let envs = node.on_tick();
                progressed |= !envs.is_empty();
                push(&mut queue, NodeId(i as u16), envs);
            }
            if !progressed && queue.is_empty() {
                return delivered;
            }
        }
    }

    #[test]
    fn pipeline_completes_all_epochs_in_order() {
        let cfg = EpochConfig::new(12, 3, 2, 4, 1);
        let mut nodes = mesh(cfg, 4, FlushPolicy::PerStep);
        run_mesh(&mut nodes);
        for node in &nodes {
            let events = node.output().expect("stream complete");
            assert_eq!(events.len(), 12);
            for (e, event) in events.iter().enumerate() {
                assert_eq!(event.epoch, EpochId(e as u32), "ordered emission");
                let EpochOutcome::Agreed(values) = &event.outcome else {
                    panic!("honest run skipped epoch {e}");
                };
                let expect: Vec<u8> = (0..3).map(|a| (e as u8) * 10 + a).collect();
                assert_eq!(values, &expect, "per-asset values at epoch {e}");
            }
            assert_eq!(node.mux().stats().stale_epochs, 0);
            assert_eq!(node.mux().stats().late_entries, 0);
            assert!(node.mux().stats().peak_resident <= 4, "live window bound");
            assert!(node.is_finished());
        }
    }

    #[test]
    fn adaptive_flush_cuts_batches_at_equal_entry_counts() {
        let cfg = EpochConfig::new(10, 4, 2, 4, 1);
        let mut per_step = mesh(cfg, 3, FlushPolicy::PerStep);
        run_mesh(&mut per_step);
        let mut adaptive = mesh(
            cfg,
            3,
            FlushPolicy::Adaptive {
                max_entries: 16,
                max_bytes: 4096,
                max_delay: Duration::from_millis(1),
            },
        );
        run_mesh(&mut adaptive);
        let entries =
            |nodes: &[EpochProtocol<Gossip>]| nodes.iter().map(|n| n.sent_entries()).sum::<u64>();
        let batches =
            |nodes: &[EpochProtocol<Gossip>]| nodes.iter().map(|n| n.sent_batches()).sum::<u64>();
        let mut per_entry = mesh(cfg, 3, FlushPolicy::PerEntry);
        run_mesh(&mut per_entry);
        for node in per_step.iter().chain(&adaptive).chain(&per_entry) {
            assert!(node.output().is_some(), "every policy completes the stream");
        }
        assert_eq!(entries(&per_step), entries(&adaptive), "same protocol work");
        assert_eq!(entries(&per_step), entries(&per_entry), "same protocol work");
        assert_eq!(batches(&per_entry), entries(&per_entry), "per-entry: one batch per entry");
        assert!(batches(&per_step) < batches(&per_entry), "a step's entries share a batch");
        assert!(
            batches(&adaptive) < batches(&per_step),
            "adaptive {} vs per-step {} batches for {} entries",
            batches(&adaptive),
            batches(&per_step),
            entries(&per_step)
        );
    }

    #[test]
    fn late_entries_to_evicted_epochs_are_counted_not_errors() {
        let n = 2;
        let cfg = EpochConfig::new(6, 1, 1, 1, 0);
        let mut a = EpochProtocol::new(
            EpochMux::new(cfg, NodeId(0), n, gossip_factory(NodeId(0), n)),
            FlushPolicy::PerStep,
        );
        let mut b = EpochProtocol::new(
            EpochMux::new(cfg, NodeId(1), n, gossip_factory(NodeId(1), n)),
            FlushPolicy::PerStep,
        );
        let a0 = a.start();
        let b0 = b.start();
        // Deliver epoch 0 both ways: both complete epoch 0, spawn epoch 1,
        // and (window = depth = 1) evict the finished epoch 0 slot.
        let _ = a.on_message(NodeId(1), &b0[0].payload);
        let _ = b.on_message(NodeId(0), &a0[0].payload);
        assert_eq!(a.mux().events().len(), 1);
        // Replay node 1's epoch-0 greeting: epoch 0 is evicted now.
        let before = a.mux().stats().late_entries;
        let out = a.on_message(NodeId(1), &b0[0].payload);
        assert!(out.is_empty(), "late entry triggers nothing");
        assert_eq!(a.mux().stats().late_entries, before + 1, "late entry counted");
        assert_eq!(a.mux().events().len(), 1, "state unchanged");
    }

    #[test]
    fn eviction_never_removes_an_unfinished_epoch_within_the_window() {
        // depth 2, window 2: node 0 completes epoch 0 while epoch 1 stays
        // unfinished; spawning epoch 2 pushes residency to 3 > window and
        // must evict the *completed* epoch 0, not unfinished epoch 1.
        let n = 2;
        let cfg = EpochConfig::new(8, 1, 2, 2, 0);
        let mut a = EpochProtocol::new(
            EpochMux::new(cfg, NodeId(0), n, gossip_factory(NodeId(0), n)),
            FlushPolicy::PerStep,
        );
        let mut b = EpochProtocol::new(
            EpochMux::new(cfg, NodeId(1), n, gossip_factory(NodeId(1), n)),
            FlushPolicy::PerStep,
        );
        let _ = a.start();
        let b0 = b.start();
        // b's start burst carries epochs 0 and 1; feed only epoch 0 to a.
        let entries = decode_epoch_batch(&b0[0].payload).unwrap();
        let (e0, payload0) =
            entries.iter().find(|(id, _)| id.epoch == EpochId(0)).cloned().expect("epoch 0 entry");
        let _ = a.on_entry_for_test(NodeId(1), e0, &payload0);
        // Epoch 0 done -> epoch 2 spawned; epoch 1 still unfinished.
        assert_eq!(a.mux().events().len(), 1);
        assert!(a.mux().resident_epochs() <= 2, "window respected");
        let resident: Vec<u32> = a.mux.slots.keys().copied().collect();
        assert!(resident.contains(&1), "unfinished epoch 1 must survive eviction");
        assert!(!resident.contains(&0), "completed epoch 0 was the eviction victim");
    }

    #[test]
    fn rejoining_node_fast_forwards_past_a_quorum_frontier() {
        // n = 4, t = 1: two senders must be beyond an epoch (window past
        // it) before it is skipped. A single high-epoch sender moves
        // nothing — the Byzantine-advertisement guard.
        let n = 4;
        let cfg = EpochConfig::new(40, 1, 1, 2, 1);
        let mut lag = EpochMux::new(cfg, NodeId(0), n, gossip_factory(NodeId(0), n));
        let _ = lag.start();
        assert_eq!(lag.resident_epochs(), 1, "working on epoch 0");

        // One (possibly Byzantine) sender claims epoch 30: no movement.
        let _ = lag.on_entry(NodeId(1), AgreementId::new(EpochId(30), InstanceId(0)), b"x");
        assert_eq!(lag.stats().stale_epochs, 0, "one sender is not a quorum");

        // A second sender confirms the frontier: epoch 0 is hopeless
        // (30 ≥ 0 + window), the mux skips forward and respawns at the
        // buffered frontier epochs.
        let _ = lag.on_entry(NodeId(2), AgreementId::new(EpochId(30), InstanceId(0)), b"x");
        assert!(lag.stats().stale_epochs > 0, "left-behind epochs skipped");
        let events = lag.events();
        assert!(!events.is_empty());
        assert!(
            events.iter().all(|e| e.outcome == EpochOutcome::Skipped),
            "skipped epochs resolve as Skipped in order"
        );
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.epoch, EpochId(i as u32), "ordered emission across skips");
        }
        // The pipeline refilled near the frontier, not at epoch 0.
        let newest = lag.slots.keys().next_back().copied().unwrap();
        assert!(newest + (cfg.window as u32) > 30, "respawned at the live frontier");
    }

    #[test]
    fn mark_moving_entry_skips_a_stranded_epoch_on_that_very_entry() {
        // The stale-epoch scan runs only when an entry moves the quorum
        // frontier — and then it must run within that same call.
        let n = 4;
        let cfg = EpochConfig::new(40, 1, 1, 2, 1);
        let mut lag = EpochMux::new(cfg, NodeId(0), n, gossip_factory(NodeId(0), n));
        let _ = lag.start();
        let far = AgreementId::new(EpochId(30), InstanceId(0));
        let _ = lag.on_entry(NodeId(1), far, b"x");
        // Marks that cannot move the frontier: our own id, an id outside
        // the system, a repeat of a mark already counted.
        for from in [NodeId(0), NodeId(9), NodeId(1)] {
            let _ = lag.on_entry(from, far, b"x");
        }
        assert_eq!(lag.stats().stale_epochs, 0, "one distinct sender is not a quorum");
        assert!(lag.events().is_empty());

        // Sender 2's mark is the t + 1-th: epoch 0 is resolved as skipped
        // before this call returns, and the pipeline has moved on.
        let _ = lag.on_entry(NodeId(2), far, b"x");
        assert!(lag.stats().stale_epochs > 0, "stranded epoch skipped on the moving entry");
        assert_eq!(lag.events().first().map(|e| &e.outcome), Some(&EpochOutcome::Skipped));
        assert!(!lag.slots.contains_key(&0), "epoch 0 is no longer resident");
        let skipped = lag.stats().stale_epochs;

        // An entry that leaves every mark in place changes nothing.
        let _ = lag.on_entry(NodeId(2), far, b"x");
        let _ = lag.on_entry(NodeId(2), AgreementId::new(EpochId(7), InstanceId(0)), b"x");
        assert_eq!(lag.stats().stale_epochs, skipped);
    }

    #[test]
    fn frontier_gated_fast_forward_matches_a_scan_on_every_entry() {
        // Reference behaviour: scan for stranded epochs before every
        // entry, whoever sent it. The mux scans only when the quorum
        // frontier moved; events, counters and bursts must not differ.
        let n = 4;
        let cfg = EpochConfig::new(40, 1, 2, 3, 1);
        let at = |e: u32| AgreementId::new(EpochId(e), InstanceId(0));
        let mut script: Vec<(NodeId, AgreementId)> = Vec::new();
        // Epochs 0 and 1 complete normally (three greetings each), with
        // an early entry for epoch 3 buffered along the way.
        for e in [0, 1] {
            for from in 1..4 {
                script.push((NodeId(from), at(e)));
            }
            script.push((NodeId(3), at(3)));
        }
        // A rejoin: the others are suddenly at epoch 20, one at a time,
        // with noise from ourselves and from outside the system between.
        script.extend([(NodeId(1), at(20)), (NodeId(0), at(25)), (NodeId(9), at(25))]);
        script.extend([(NodeId(2), at(20)), (NodeId(2), at(20)), (NodeId(3), at(21))]);
        // Late traffic for skipped epochs, then progress at the frontier
        // and a second jump to the end of the stream.
        script.extend([(NodeId(1), at(2)), (NodeId(2), at(5))]);
        for e in [19, 20, 21] {
            for from in 1..4 {
                script.push((NodeId(from), at(e)));
            }
        }
        script.extend([(NodeId(1), at(9999)), (NodeId(3), at(39)), (NodeId(2), at(38))]);

        let run = |scan_every_entry: bool| {
            let mut mux = EpochMux::new(cfg, NodeId(0), n, gossip_factory(NodeId(0), n));
            let mut bursts = vec![mux.start()];
            for &(from, id) in &script {
                if scan_every_entry {
                    let mut skipped = Vec::new();
                    mux.fast_forward(&mut skipped);
                    bursts.push(skipped);
                }
                bursts.push(mux.on_entry(from, id, b"g"));
            }
            bursts.retain(|b| !b.is_empty());
            (mux.events().to_vec(), mux.stats(), bursts)
        };
        let (events, stats, bursts) = run(false);
        assert_eq!((events.clone(), stats, bursts), run(true));
        // The script did exercise every path it claims to.
        assert!(stats.stale_epochs > 0 && stats.replayed_entries > 0 && stats.late_entries > 0);
        assert!(events.iter().any(|e| matches!(e.outcome, EpochOutcome::Agreed(_))));
    }

    #[test]
    fn early_entries_buffer_and_replay_but_bound_memory() {
        // t = 1 with a single peer: no fast-forward quorum can ever form,
        // isolating the early-buffer path.
        let n = 2;
        let cfg = EpochConfig::new(10, 1, 1, 2, 1);
        let mut a = EpochMux::new(cfg, NodeId(0), n, gossip_factory(NodeId(0), n));
        let _ = a.start();
        // Epoch 1 is within the horizon: buffered, then replayed at spawn.
        let _ = a.on_entry(NodeId(1), AgreementId::new(EpochId(1), InstanceId(0)), b"g");
        assert_eq!(a.stats().early_dropped, 0);
        // Far beyond the horizon (and the stream): dropped and counted.
        let _ = a.on_entry(NodeId(1), AgreementId::new(EpochId(9999), InstanceId(0)), b"g");
        assert_eq!(a.stats().early_dropped, 1);
        // Completing epoch 0 spawns epoch 1, replaying the buffer: the
        // replayed greeting counts toward epoch 1's completion.
        let _ = a.on_entry(NodeId(1), AgreementId::new(EpochId(0), InstanceId(0)), b"g");
        assert_eq!(a.stats().replayed_entries, 1);
        assert_eq!(a.events().len(), 2, "epoch 1 completed via the replayed entry");
    }

    #[test]
    fn early_budget_is_released_when_buffered_epochs_are_skipped() {
        // Buffer entries for future epochs, then fast-forward past them:
        // the skipped epochs' buffered bytes must return to the budget,
        // or repeated skip cycles would eventually reject all buffering.
        let n = 4;
        let cfg = EpochConfig::new(200, 1, 1, 2, 1);
        let mut lag = EpochMux::new(cfg, NodeId(0), n, gossip_factory(NodeId(0), n));
        let _ = lag.start();
        let _ = lag.on_entry(NodeId(1), AgreementId::new(EpochId(1), InstanceId(0)), b"abcdef");
        assert!(lag.early_bytes > 0, "entry buffered");
        // Two senders at epoch 100: epochs 0 and 1 (and the buffer for 1)
        // are hopeless and skipped.
        let _ = lag.on_entry(NodeId(1), AgreementId::new(EpochId(100), InstanceId(0)), b"x");
        let _ = lag.on_entry(NodeId(2), AgreementId::new(EpochId(100), InstanceId(0)), b"x");
        assert!(lag.stats().stale_epochs > 0);
        // The skipped epoch's buffer is gone (frontier-epoch entries may
        // legitimately remain buffered until epoch 100 spawns), and the
        // budget accounts exactly the entries still alive.
        assert!(!lag.early.contains_key(&1), "skipped epoch's buffer discarded");
        let expected: usize =
            lag.early.values().flatten().map(|(_, _, p)| early_entry_cost(p.len())).sum();
        assert_eq!(lag.early_bytes, expected, "budget accounts exactly the live buffer");
    }

    #[test]
    fn empty_payload_floods_still_exhaust_the_early_budget() {
        // An authenticated Byzantine peer streaming zero-length entries
        // for a future epoch must hit the cap (per-entry overhead is
        // charged), not grow the buffer without bound.
        let n = 2;
        let cfg = EpochConfig::new(100, 1, 1, 2, 1); // t=1, 1 peer: no quorum
        let mut node = EpochMux::new(cfg, NodeId(0), n, gossip_factory(NodeId(0), n));
        let _ = node.start();
        for _ in 0..10_000 {
            let _ = node.on_entry(NodeId(1), AgreementId::new(EpochId(1), InstanceId(0)), b"");
        }
        let buffered: usize = node.early.values().map(|v| v.len()).sum();
        assert!(buffered <= EARLY_BUFFER_BYTES / 64 + 1, "buffer bounded: {buffered} entries");
        assert!(node.stats().early_dropped > 0, "flood tail dropped and counted");
    }

    #[test]
    fn unknown_assets_and_malformed_batches_are_ignored() {
        let cfg = EpochConfig::new(2, 1, 1, 1, 0);
        let mut node = EpochProtocol::new(
            EpochMux::new(cfg, NodeId(0), 2, gossip_factory(NodeId(0), 2)),
            FlushPolicy::PerStep,
        );
        let _ = node.start();
        assert!(node.on_message(NodeId(1), b"\xff\xff\xff").is_empty(), "garbage ignored");
        let foreign = encode_epoch_batch(&[(
            AgreementId::new(EpochId(0), InstanceId(9)),
            Bytes::from_static(b"g"),
        )]);
        assert!(node.on_message(NodeId(1), &foreign).is_empty());
        assert!(node.output().is_none(), "unknown asset must not advance state");
    }

    /// Node 0 sends `tag` to node 1 and to a node outside the system at
    /// start; every instance outputs what it last heard and answers each
    /// message it gets, before and after it has an output.
    struct Relay {
        id: NodeId,
        tag: u8,
        got: Option<u8>,
    }

    impl Protocol for Relay {
        type Output = u8;
        fn node_id(&self) -> NodeId {
            self.id
        }
        fn n(&self) -> usize {
            3
        }
        fn start(&mut self) -> Vec<Envelope> {
            if self.id != NodeId(0) {
                return Vec::new();
            }
            let payload = Bytes::copy_from_slice(&[self.tag]);
            vec![Envelope::to_one(NodeId(1), payload.clone()), Envelope::to_one(NodeId(9), payload)]
        }
        fn on_message(&mut self, from: NodeId, p: &[u8]) -> Vec<Envelope> {
            self.got = p.first().copied();
            vec![Envelope::to_one(from, Bytes::from_static(b"ack"))]
        }
        fn output(&self) -> Option<u8> {
            self.got
        }
    }

    /// A one-epoch stream over two pre-built `Relay` instances.
    fn one_epoch_relay(me: NodeId) -> EpochProtocol<Relay> {
        let instances = [10, 20].into_iter().map(|tag| Relay { id: me, tag, got: None }).collect();
        EpochProtocol::new(EpochMux::one_epoch(instances), FlushPolicy::PerStep)
    }

    #[test]
    fn one_epoch_stream_routes_point_to_point_entries() {
        let mut sender = one_epoch_relay(NodeId(0));
        let mut receiver = one_epoch_relay(NodeId(1));
        let out = sender.start();
        assert_eq!(out.len(), 1, "both instances' entries share one envelope; node 9 is dropped");
        assert_eq!(out[0].to, Recipient::One(NodeId(1)));
        assert!(receiver.start().is_empty());
        let acks = receiver.on_message(NodeId(0), &out[0].payload);
        let events = receiver.output().expect("one epoch, resolved");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].outcome, EpochOutcome::Agreed(vec![10, 20]), "routed per instance");
        assert!(acks.iter().all(|env| env.to == Recipient::One(NodeId(0))));
        assert_eq!(receiver.sent_entries(), 2);
    }

    #[test]
    fn one_epoch_stream_lingers_and_answers_late_peers() {
        // Eviction only makes room for a fresh spawn, and a one-epoch
        // stream never spawns again: its resolved epoch stays resident,
        // so a finished node keeps answering slower peers and nothing
        // they send counts as late.
        let mut node = one_epoch_relay(NodeId(1));
        let _ = node.start();
        let at = |a: u16| AgreementId::new(EpochId(0), InstanceId(a));
        for a in [0, 1] {
            let _ = node.on_entry_for_test(NodeId(0), at(a), &[7]);
        }
        assert!(node.mux().is_complete() && node.output().is_some());
        assert_eq!(node.mux().resident_epochs(), 1, "the resolved epoch lingers");
        for _ in 0..3 {
            let answer = node.on_entry_for_test(NodeId(2), at(1), &[8]);
            assert_eq!(answer.len(), 1, "a finished node still answers");
            assert_eq!(answer[0].to, Recipient::One(NodeId(2)));
        }
        assert_eq!(node.mux().stats().late_entries, 0);
        assert_eq!(node.mux().events().len(), 1, "the stream's single event is final");
    }

    #[test]
    #[should_panic(expected = "disagree on node id")]
    fn one_epoch_rejects_mismatched_identities() {
        let relay = |id| Relay { id: NodeId(id), tag: 0, got: None };
        let _ = EpochMux::one_epoch(vec![relay(0), relay(1)]);
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn one_epoch_rejects_empty_instance_list() {
        let _: EpochMux<Relay> = EpochMux::one_epoch(Vec::new());
    }

    #[test]
    #[should_panic(expected = "window must cover")]
    fn config_rejects_window_smaller_than_depth() {
        let _ = EpochConfig::new(1, 1, 4, 2, 0);
    }

    #[test]
    fn flush_policy_helpers() {
        assert!(FlushPolicy::adaptive().is_adaptive());
        assert!(!FlushPolicy::PerStep.is_adaptive());
    }

    #[test]
    fn borrowed_epoch_view_matches_owned_decoder() {
        let entries = vec![
            (AgreementId::new(EpochId(0), InstanceId(0)), Bytes::from_static(b"alpha")),
            (AgreementId::new(EpochId(u32::MAX), InstanceId(65535)), Bytes::from_static(b"")),
            (AgreementId::new(EpochId(7), InstanceId(3)), Bytes::from_static(b"omega")),
        ];
        let encoded = encode_epoch_batch(&entries);
        let view = decode_epoch_batch_ref(&encoded).unwrap();
        assert_eq!(view.len(), 3);
        assert!(!view.is_empty());
        assert_eq!(view.to_owned_entries(), entries);
        assert_eq!(view.iter().size_hint(), (3, Some(3)));
        let first = view.iter().next().unwrap();
        assert_eq!(first, (entries[0].0, &b"alpha"[..]));
        assert!(decode_epoch_batch_ref(&encode_epoch_batch(&[])).unwrap().is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Round-trip equivalence between the borrowed and owned epoch
        /// batch decoders on arbitrary batches.
        #[test]
        fn prop_borrowed_epoch_roundtrip_equivalence(
            entries in proptest::collection::vec(
                (proptest::prelude::any::<u32>(), proptest::prelude::any::<u16>(),
                 proptest::collection::vec(proptest::prelude::any::<u8>(), 0..24)),
                0..12,
            )
        ) {
            let entries: Vec<(AgreementId, Bytes)> = entries
                .into_iter()
                .map(|(e, a, p)| (AgreementId::new(EpochId(e), InstanceId(a)), Bytes::from(p)))
                .collect();
            let encoded = encode_epoch_batch(&entries);
            let owned = decode_epoch_batch(&encoded).unwrap();
            let view = decode_epoch_batch_ref(&encoded).unwrap();
            proptest::prop_assert_eq!(view.to_owned_entries(), owned);
        }

        /// Error equivalence on garbage and truncated inputs.
        #[test]
        fn prop_borrowed_epoch_error_equivalence(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..80),
            cut in 0usize..80,
        ) {
            let owned = decode_epoch_batch(&bytes);
            let borrowed = decode_epoch_batch_ref(&bytes).map(|v| v.to_owned_entries());
            proptest::prop_assert_eq!(owned, borrowed);
            let cut = cut.min(bytes.len());
            let owned = decode_epoch_batch(&bytes[..cut]);
            let borrowed = decode_epoch_batch_ref(&bytes[..cut]).map(|v| v.to_owned_entries());
            proptest::prop_assert_eq!(owned, borrowed);
        }
    }

    #[test]
    fn pending_batches_recycle_buffers_and_count_reuse() {
        let mut pending = PendingBatches::new(2, FlushPolicy::PerStep);
        let entry =
            || vec![(AgreementId::new(EpochId(0), InstanceId(0)), Bytes::from_static(b"x"))];
        let mut scratch = entry();
        assert!(pending.push_drain(0, &mut scratch), "per-step is always due");
        assert!(scratch.is_empty(), "scratch drained, capacity kept");
        assert!(!pending.push_drain(0, &mut scratch), "nothing left to push");
        let buf = pending.take(0);
        assert_eq!(buf.len(), 1);
        assert_eq!(pending.reuse_hits(), 0, "nothing recycled yet");
        pending.recycle(buf);
        // The next accumulation (any destination) reuses the buffer.
        assert!(pending.push_drain(1, &mut entry()));
        assert_eq!(pending.reuse_hits(), 1, "recycled buffer reused");
        let buf = pending.take(1);
        assert!(buf.capacity() > 0);
        pending.recycle(buf);
        assert!(pending.push_drain(0, &mut entry()));
        assert_eq!(pending.reuse_hits(), 2);
        assert!(pending.has_pending());
    }

    #[test]
    fn per_entry_policy_is_due_after_every_entry_in_order() {
        let mut pending = PendingBatches::new(1, FlushPolicy::PerEntry);
        let mut scratch: Vec<(AgreementId, Bytes)> = (0..3u16)
            .map(|a| (AgreementId::new(EpochId(0), InstanceId(a)), Bytes::from_static(b"x")))
            .collect();
        let mut flushed = Vec::new();
        while pending.push_drain(0, &mut scratch) {
            let batch = pending.take(0);
            assert_eq!(batch.len(), 1, "one entry per flush");
            flushed.push(batch[0].0.asset.0);
        }
        assert_eq!(flushed, vec![0, 1, 2], "per-instance FIFO order survives the split");
        assert!(!pending.has_pending());
    }

    #[test]
    fn sharded_flushing_partitions_batches_by_shard_class() {
        // 4 assets, 2 receive shards: one step's mixed burst must flush as
        // one batch per (destination, shard) with homogeneous shard
        // classes and matching envelope tags.
        let shards = 2usize;
        let cfg = EpochConfig::new(4, 4, 2, 4, 1);
        let mut node = EpochProtocol::new(
            EpochMux::new(cfg, NodeId(0), 3, gossip_factory(NodeId(0), 3)),
            FlushPolicy::PerStep,
        )
        .recv_shards(shards);
        let envs = node.start();
        assert!(!envs.is_empty());
        for env in &envs {
            let entries = decode_epoch_batch(&env.payload).unwrap();
            assert!(!entries.is_empty());
            let class = entries[0].0.shard(shards);
            assert!(
                entries.iter().all(|(id, _)| id.shard(shards) == class),
                "mixed shard classes inside one batch"
            );
            assert_eq!(usize::from(env.shard), class, "envelope tag matches its entries");
        }
        // Both shard classes appear (4 dense assets spread over 2 shards).
        let tags: std::collections::BTreeSet<u16> = envs.iter().map(|e| e.shard).collect();
        assert!(tags.len() > 1, "start burst covers multiple shards: {tags:?}");
    }

    #[test]
    fn sharded_mesh_completes_and_matches_unsharded_values() {
        // The same 8-epoch, 4-asset stream run unsharded and with 2-way
        // sharded flushing must produce identical agreement values —
        // sharding is a transport-parallelism knob, never semantics.
        let cfg = EpochConfig::new(8, 4, 2, 4, 1);
        let run = |shards: usize| {
            let mut nodes: Vec<EpochProtocol<Gossip>> = NodeId::all(3)
                .map(|id| {
                    EpochProtocol::new(
                        EpochMux::new(cfg, id, 3, gossip_factory(id, 3)),
                        FlushPolicy::PerStep,
                    )
                    .recv_shards(shards)
                })
                .collect();
            run_mesh(&mut nodes);
            nodes.iter().map(|n| n.output().expect("complete")).collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(2));
    }

    #[test]
    fn split_assets_shards_complete_independently_and_merge_in_basket_order() {
        // Drive a 2-node, 4-asset stream through split shards by hand:
        // each node runs its shards, entries are routed by the stable
        // shard mapping, and the merged streams equal basket order.
        let n = 2;
        let assets = 4u16;
        let epochs = 5u32;
        let shards_per_node = 2usize;
        let cfg = EpochConfig::new(epochs, assets, 2, 4, 0);
        let mut nodes: Vec<Vec<EpochShard<Gossip>>> = NodeId::all(n)
            .map(|id| {
                EpochMux::new(cfg, id, n, gossip_factory(id, n)).split_assets(shards_per_node)
            })
            .collect();
        assert_eq!(nodes[0].len(), shards_per_node);
        // Every asset is owned by exactly one shard, identically per node.
        for a in 0..assets {
            let owners: Vec<usize> = nodes[0]
                .iter()
                .enumerate()
                .filter(|(_, s)| s.owns(InstanceId(a)))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(owners.len(), 1, "asset {a} owners: {owners:?}");
            assert!(nodes[1][owners[0]].owns(InstanceId(a)), "nodes shard identically");
        }

        // Hand-deliver: queue of (from, to, id, payload).
        let mut queue: std::collections::VecDeque<(NodeId, NodeId, AgreementId, Bytes)> =
            std::collections::VecDeque::new();
        let push =
            |queue: &mut std::collections::VecDeque<(NodeId, NodeId, AgreementId, Bytes)>,
             from: NodeId,
             n: usize,
             bursts: Vec<(AgreementId, Vec<Envelope>)>| {
                for (id, envs) in bursts {
                    for env in envs {
                        match env.to {
                            Recipient::All => {
                                for d in NodeId::all(n) {
                                    if d != from {
                                        queue.push_back((from, d, id, env.payload.clone()));
                                    }
                                }
                            }
                            Recipient::One(d) => queue.push_back((from, d, id, env.payload)),
                        }
                    }
                }
            };
        for (i, shards) in nodes.iter_mut().enumerate() {
            for shard in shards.iter_mut() {
                let bursts = shard.start();
                push(&mut queue, NodeId(i as u16), n, bursts);
            }
        }
        while let Some((from, to, id, payload)) = queue.pop_front() {
            let shard =
                nodes[to.index()].iter_mut().find(|s| s.owns(id.asset)).expect("every asset owned");
            let bursts = shard.on_entry(from, id, &payload);
            push(&mut queue, to, n, bursts);
        }

        for (i, shards) in nodes.into_iter().enumerate() {
            assert!(shards.iter().all(EpochShard::is_complete), "node {i} incomplete");
            let stats = merge_epoch_stats(shards.iter().map(EpochShard::stats));
            assert_eq!(stats.stale_epochs, 0);
            assert!(stats.peak_resident <= 4);
            let parts: Vec<(Vec<InstanceId>, Vec<EpochEvent<u8>>)> = shards
                .into_iter()
                .map(|s| {
                    let (ids, events, _) = s.into_events();
                    (ids, events)
                })
                .collect();
            let merged = merge_epoch_shards(parts, assets);
            assert_eq!(merged.len(), epochs as usize);
            for (e, event) in merged.iter().enumerate() {
                assert_eq!(event.epoch, EpochId(e as u32), "ordered after merge");
                let EpochOutcome::Agreed(values) = &event.outcome else {
                    panic!("node {i} epoch {e} skipped");
                };
                let expect: Vec<u8> =
                    (0..assets as u8).map(|a| (e as u8).wrapping_mul(10).wrapping_add(a)).collect();
                assert_eq!(values, &expect, "basket order preserved through the merge");
            }
        }
    }

    #[test]
    fn merged_outcome_is_skipped_if_any_shard_skipped() {
        let shard_a = (
            vec![InstanceId(0)],
            vec![EpochEvent { epoch: EpochId(0), outcome: EpochOutcome::Agreed(vec![1u8]) }],
        );
        let shard_b = (
            vec![InstanceId(1)],
            vec![EpochEvent { epoch: EpochId(0), outcome: EpochOutcome::<u8>::Skipped }],
        );
        let merged = merge_epoch_shards(vec![shard_a, shard_b], 2);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].outcome, EpochOutcome::Skipped);
    }

    #[test]
    #[should_panic(expected = "precede start")]
    fn split_after_start_rejected() {
        let cfg = EpochConfig::new(2, 2, 1, 2, 0);
        let mut mux = EpochMux::new(cfg, NodeId(0), 2, gossip_factory(NodeId(0), 2));
        let _ = mux.start();
        let _ = mux.split_assets(2);
    }

    impl<P: Protocol> EpochProtocol<P> {
        /// Test-only: feed a single decoded entry (bypassing the codec).
        fn on_entry_for_test(
            &mut self,
            from: NodeId,
            id: AgreementId,
            payload: &[u8],
        ) -> Vec<Envelope> {
            let bursts = self.mux.on_entry(from, id, payload);
            let mut out = Vec::new();
            self.enqueue(bursts, &mut out);
            out
        }
    }
}
