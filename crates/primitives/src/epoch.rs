//! The epoch layer: long-lived multi-round agreement pipelines.
//!
//! A single [`Protocol`] instance is one-shot: it runs to one output and
//! stops. An oracle deployment is not — it agrees on *fresh* prices round
//! after round, one agreement per `(epoch, asset)` pair, forever. This
//! module provides that lifecycle as sans-io machinery shared by the
//! simulator and the TCP runtime (a one-shot basket is simply a stream of
//! one epoch):
//!
//! - [`EpochId`] / [`AgreementId`]: epoch-aware instance addressing,
//!   written as two varints in each batch entry's head.
//! - an **epoch batch codec**: `(AgreementId, payload)` entry sequences.
//!   `delphi-net` wraps exactly this sequence in its authenticated frames,
//!   and [`EpochProtocol`] uses it as the payload of simulator messages,
//!   so simulated bytes equal TCP bytes.
//! - [`EpochProtocol`]: the pipeline, as one [`Protocol`] that runs
//!   unchanged under the discrete-event simulator and `delphi-net`'s
//!   dispatch worker. It spawns protocol instances epoch after epoch
//!   from a factory (the streaming price source), keeps at most
//!   [`EpochConfig::depth`] epochs in flight and at most
//!   [`EpochConfig::window`] resident in memory, garbage-collects
//!   completed and stale epochs, fast-forwards a node that fell behind the
//!   quorum frontier, emits a strictly epoch-ordered stream of
//!   [`EpochEvent`]s, and routes and batches its traffic under the
//!   [`FlushPolicy`] it was built with.
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
//! peers are many epochs ahead. The pipeline tracks, per authenticated
//! sender, the highest epoch that sender has addressed; once `t + 1`
//! senders (at least one honest, `t = (n − 1) / 3`) are beyond an unfinished epoch by more than the
//! window, that epoch can no longer complete (the quorum has evicted it)
//! and is resolved as [`EpochOutcome::Skipped`], letting the node jump
//! forward to the live frontier instead of stalling the stream. A single
//! Byzantine sender advertising an enormous epoch moves nothing.

use std::collections::BTreeMap;
use std::fmt;
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
/// fixed instance set into a stream. Inside the epoch batch codec it is
/// two varints, epoch then asset.
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
}

impl fmt::Display for AgreementId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.epoch, self.asset)
    }
}

/// Bytes of epoch-batch overhead per batch: the 2-byte entry count.
pub const EPOCH_COUNT_BYTES: usize = 2;

/// Bytes of a varint holding `v`.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Bytes of epoch-batch overhead of one entry, its head: the varint epoch,
/// asset and payload length of `id`'s `payload_len`-byte entry.
pub fn epoch_entry_overhead(id: AgreementId, payload_len: usize) -> usize {
    varint_len(u64::from(id.epoch.0))
        + varint_len(u64::from(id.asset.0))
        + varint_len(payload_len as u64)
}

/// Encoded length of an epoch batch of entries with the given ids and
/// payload lengths.
pub fn epoch_batch_len(entries: impl IntoIterator<Item = (AgreementId, usize)>) -> usize {
    let entries = entries.into_iter();
    EPOCH_COUNT_BYTES + entries.map(|(id, len)| epoch_entry_overhead(id, len) + len).sum::<usize>()
}

/// Encodes `(agreement, payload)` entries into one epoch batch payload:
/// a big-endian `[u16 count]`, then `count` entries of `[varint epoch]
/// [varint asset][varint len][len bytes]`.
///
/// # Panics
///
/// Panics if `entries` holds more than `u16::MAX` entries.
pub fn encode_epoch_batch(entries: &[(AgreementId, Bytes)]) -> Bytes {
    encode_entries(entries.iter().map(|(id, p)| (*id, &p[..])))
}

/// [`encode_epoch_batch`] of the entries `entries` yields.
fn encode_entries<'a>(entries: impl Iterator<Item = (AgreementId, &'a [u8])> + Clone) -> Bytes {
    let mut buf =
        BytesMut::with_capacity(epoch_batch_len(entries.clone().map(|(id, p)| (id, p.len()))));
    put_entries(entries, &mut buf);
    buf.freeze()
}

/// A pending `(recipient, id, payload)` entry as the batch codec takes it.
fn entry((_, id, payload): &(Recipient, AgreementId, Bytes)) -> (AgreementId, &[u8]) {
    (*id, payload)
}

/// Appends the [`encode_epoch_batch`] encoding of `entries` to `buf` — for
/// a transport that builds its frame around the batch in one buffer.
///
/// # Panics
///
/// As [`encode_epoch_batch`].
pub fn put_epoch_batch(entries: &[(AgreementId, Bytes)], buf: &mut impl BufMut) {
    put_entries(entries.iter().map(|(id, p)| (*id, &p[..])), buf);
}

/// [`put_epoch_batch`] of the entries `entries` yields.
fn put_entries<'a>(
    entries: impl Iterator<Item = (AgreementId, &'a [u8])> + Clone,
    buf: &mut impl BufMut,
) {
    let count = u16::try_from(entries.clone().count()).expect("epoch batch entry count fits u16");
    buf.put_u16(count);
    for (id, payload) in entries {
        put_varint(buf, u64::from(id.epoch.0));
        put_varint(buf, u64::from(id.asset.0));
        put_varint(buf, payload.len() as u64);
        buf.put_slice(payload);
    }
}

/// Appends `v` as a varint, as [`Writer::put_u64`] does.
fn put_varint(buf: &mut impl BufMut, mut v: u64) {
    while v >= 0x80 {
        buf.put_u8(v as u8 | 0x80);
        v >>= 7;
    }
    buf.put_u8(v as u8);
}

#[cfg(test)]
/// Decodes an epoch batch payload back into owned `(agreement, payload)`
/// entries, field by field: the property-test oracle of
/// [`decode_epoch_batch_ref`], with its errors.
pub fn decode_epoch_batch(buf: &[u8]) -> Result<Vec<(AgreementId, Bytes)>, WireError> {
    let Some((count, rest)) = buf.split_first_chunk::<2>() else {
        return Err(WireError::Truncated);
    };
    let count = u16::from_be_bytes(*count);
    let mut r = Reader::new(rest);
    let mut entries = Vec::with_capacity(usize::from(count).min(rest.len() / 3));
    for _ in 0..count {
        let epoch = u32::try_from(r.get_u64()?).map_err(|_| WireError::VarintOverflow)?;
        let asset = u16::try_from(r.get_u64()?).map_err(|_| WireError::VarintOverflow)?;
        let len = r.get_u64()?;
        if len > r.remaining() as u64 {
            return Err(WireError::LengthOutOfBounds);
        }
        let payload = Bytes::copy_from_slice(r.get_exact(len as usize)?);
        entries.push((AgreementId::new(EpochId(epoch), InstanceId(asset)), payload));
    }
    r.finish()?;
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

/// A varint of one or two bytes at the front of `b`, and its width.
#[inline(always)]
fn short_varint(b: &[u8]) -> Option<(usize, usize)> {
    match *b {
        [lo, ..] if lo < 0x80 => Some((usize::from(lo), 1)),
        [lo, hi, ..] if hi < 0x80 => Some((usize::from(lo & 0x7f) | usize::from(hi) << 7, 2)),
        _ => None,
    }
}

/// Takes one entry, head and payload, off the front of `rest`. A head of
/// varints of one or two bytes (epochs, assets and payload lengths below
/// 2^14) is read inline; any other by [`take_wide_entry`], out of line: so
/// the walk costs what the fixed-width heads did (~6 ns an entry, traced).
#[inline(always)]
fn take_entry<'a>(rest: &mut &'a [u8]) -> Result<(AgreementId, &'a [u8]), WireError> {
    let head = || {
        let (epoch, e) = short_varint(rest)?;
        let (asset, a) = short_varint(rest.get(e..)?)?;
        let (len, l) = short_varint(rest.get(e + a..)?)?;
        Some((epoch as u32, asset as u16, len, rest.get(e + a + l..)?))
    };
    let Some((epoch, asset, len, tail)) = head() else {
        return take_wide_entry(rest);
    };
    let (payload, tail) = tail.split_at_checked(len).ok_or(WireError::LengthOutOfBounds)?;
    *rest = tail;
    Ok((AgreementId::new(EpochId(epoch), InstanceId(asset)), payload))
}

/// [`take_entry`] through a [`Reader`]: a wide head, or a bad one.
#[cold]
#[inline(never)]
fn take_wide_entry<'a>(rest: &mut &'a [u8]) -> Result<(AgreementId, &'a [u8]), WireError> {
    let mut r = Reader::new(rest);
    let id = AgreementId::new(EpochId(r.get_u32()?), InstanceId(r.get_u16()?));
    let len = r.get_usize()?;
    let (payload, tail) = r.tail().split_at_checked(len).ok_or(WireError::LengthOutOfBounds)?;
    *rest = tail;
    Ok((id, payload))
}

/// Parses a borrowed [`EpochEntriesRef`] view of an epoch batch payload.
///
/// # Errors
///
/// Returns [`WireError::Truncated`] on input ending mid-entry,
/// [`WireError::VarintOverflow`] on an overlong varint or an epoch or
/// asset out of range, [`WireError::LengthOutOfBounds`] on an overrunning
/// declared length, and [`WireError::TrailingBytes`] on bytes past the
/// declared count — all expected on Byzantine-controlled input.
#[inline]
pub fn decode_epoch_batch_ref(buf: &[u8]) -> Result<EpochEntriesRef<'_>, WireError> {
    let Some((count, entries)) = buf.split_first_chunk::<2>() else {
        return Err(WireError::Truncated);
    };
    let count = u16::from_be_bytes(*count);
    let mut rest = entries;
    for _ in 0..count {
        take_entry(&mut rest)?;
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

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        self.remaining = self.remaining.checked_sub(1)?;
        // Validated at parse time: the error is unreachable.
        take_entry(&mut self.rest).ok()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::from(self.remaining), Some(usize::from(self.remaining)))
    }
}

/// When a transport flushes accumulated batch entries.
///
/// `PerStep` flushes every protocol step's entries immediately, one batch
/// per step (to every peer, for a step of broadcasts). `Adaptive`
/// accumulates entries across steps and flushes once the pipeline's
/// pending entries trip a size trigger — or when the transport flushes (a
/// TCP dispatch worker once its inbox is empty, the simulator on its tick)
/// — trading a bounded delay for fewer frames and MAC tags per agreement.
/// `PerEntry` is the measurement baseline the other two are judged
/// against: no batching at all. A broadcast entry counts once towards the
/// triggers, however many peers it reaches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Flush every entry in a frame of its own: each envelope pays its
    /// own framing and tag.
    PerEntry,
    /// Flush every step's entries immediately.
    PerStep,
    /// Accumulate entries across steps; flush on any trigger.
    Adaptive {
        /// Flush once this many entries are pending.
        max_entries: usize,
        /// Flush once this many payload bytes are pending.
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
}

/// Shape of one epoch pipeline. The fault threshold is not part of it:
/// the pipeline derives `t = (n − 1) / 3` from its system size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochConfig {
    /// Total epochs the stream runs (`K`).
    pub epochs: u32,
    /// Agreement instances per epoch. The pipeline knows no basket: a
    /// caller that agrees on several assets maps them onto instances.
    pub assets: u16,
    /// Maximum epochs in flight (unfinished) at once — the pipelining
    /// depth, i.e. the epoch-rate knob.
    pub depth: usize,
    /// Maximum epochs resident in memory, completed lingerers included.
    /// Must be at least `depth`; the excess is how long a completed epoch
    /// keeps answering slower peers before eviction.
    pub window: usize,
}

impl EpochConfig {
    /// A window-validated config with the given stream length and basket
    /// size, pipelining `depth` epochs and lingering `window - depth`
    /// completed ones. A depth or window longer than the stream spawns,
    /// evicts and skips exactly what one of `epochs` does, and is stored
    /// as one.
    ///
    /// # Panics
    ///
    /// Panics on a zero-epoch or zero-asset stream, zero depth, or
    /// `window < depth`.
    pub fn new(epochs: u32, assets: u16, depth: usize, window: usize) -> EpochConfig {
        assert!(epochs >= 1, "stream needs at least one epoch");
        assert!(assets >= 1, "epoch needs at least one asset");
        assert!(depth >= 1, "pipeline depth must be at least 1");
        assert!(window >= depth, "window must cover the pipeline depth");
        let stream = epochs as usize;
        EpochConfig { epochs, assets, depth: depth.min(stream), window: window.min(stream) }
    }
}

crate::counter_group! {
    /// The pipeline's counters: the one group a transport publishes live.
    pub struct EpochStats {
        /// Entries addressed to an already-evicted epoch, dropped.
        late_entries: u64,
        /// Entries addressed beyond the early-buffer horizon, dropped.
        early_dropped: u64,
        /// Buffered early entries replayed once their epoch spawned.
        replayed_entries: u64,
        /// Epochs resolved as [`EpochOutcome::Skipped`] (no agreement).
        stale_epochs: u64,
        /// Most epochs resident in memory at once (live-window bound check).
        peak_resident: usize,
        /// Entries flushed (envelopes after broadcast expansion).
        sent_entries: u64,
        /// Bytes of those entries' heads ([`epoch_entry_overhead`]): the
        /// epoch batches' framing beyond their counts.
        sent_head_bytes: u64,
    }
}

/// How one epoch of the stream resolved.
#[derive(Clone, Debug, PartialEq)]
pub enum EpochOutcome<O> {
    /// Every instance produced an output; values in instance order.
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

/// One resident epoch: its instances and completion state.
struct Slot<P: Protocol> {
    instances: Vec<P>,
    /// Outputs harvested so far, in instance order; taken when the epoch
    /// resolves.
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

/// The long-lived multi-epoch agreement pipeline, as one sans-io
/// [`Protocol`]: the state machine both transports run (the simulator,
/// and `delphi-net`'s dispatch worker, which takes the instance its
/// caller built).
///
/// It spawns protocol instances epoch after epoch from a factory — one
/// call per `(epoch, instance)` pair; the factory *is* the
/// streaming input source — and takes one protocol step per authenticated
/// entry of each epoch batch it receives. What a step's instances emit
/// joins one ordered pending list, each entry with its recipient (an
/// out-of-range one is dropped), and the [`FlushPolicy`]'s triggers read
/// that list's entry and byte counts. A flush of broadcasts is one epoch
/// batch to every node but this one ([`Recipient::All`]); only a list
/// holding a point-to-point entry is split into one batch per destination
/// it reaches, in send order. [`FlushPolicy::Adaptive`] relies on the
/// driver's time trigger ([`Protocol::on_tick`]) to bound the delay. The
/// output is the complete ordered event stream, once every epoch has
/// resolved.
pub struct EpochProtocol<P: Protocol> {
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
    /// When pending entries leave.
    flush: FlushPolicy,
    /// Unflushed entries in send order, each with its recipient; the list
    /// keeps its capacity from flush to flush.
    pending: Vec<(Recipient, AgreementId, Bytes)>,
    /// Their payload bytes.
    pending_bytes: usize,
}

impl<P: Protocol> fmt::Debug for EpochProtocol<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochProtocol")
            .field("cfg", &self.cfg)
            .field("me", &self.me)
            .field("next_spawn", &self.next_spawn)
            .field("resident", &self.slots.len())
            .field("emit_floor", &self.emit_floor)
            .field("flush", &self.flush)
            .field("pending", &self.pending.len())
            .finish_non_exhaustive()
    }
}

impl<P: Protocol> EpochProtocol<P> {
    /// Creates the pipeline for node `me` of an `n`-node deployment,
    /// flushing under `flush`.
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
        flush: FlushPolicy,
    ) -> EpochProtocol<P> {
        let cfg = EpochConfig::new(cfg.epochs, cfg.assets, cfg.depth, cfg.window);
        assert!(me.index() < n, "node id {me} out of range for n={n}");
        EpochProtocol {
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
            flush,
            pending: Vec::new(),
            pending_bytes: 0,
        }
    }

    /// Whether every epoch of the stream has resolved and been emitted.
    pub fn is_complete(&self) -> bool {
        self.emit_floor == self.cfg.epochs
    }

    /// Drops and returns the events emitted since the last drain, for a
    /// transport that tails the stream live ([`Protocol::output`] then
    /// misses them).
    pub fn drain_events(&mut self) -> Vec<EpochEvent<P::Output>> {
        std::mem::take(&mut self.events)
    }

    /// Observability counters.
    pub fn stats(&self) -> EpochStats {
        self.stats
    }

    /// How long the entries now pending may wait for the transport's next
    /// [`Protocol::on_tick`]: the adaptive `max_delay`, `None` while
    /// nothing is pending (always, per step and per entry).
    pub fn pending_delay(&self) -> Option<Duration> {
        match self.flush {
            FlushPolicy::Adaptive { max_delay, .. } if !self.pending.is_empty() => Some(max_delay),
            _ => None,
        }
    }

    /// Feeds one authenticated entry from `from`, routing what it
    /// triggers (the start bursts of newly spawned epochs included).
    fn on_entry(&mut self, from: NodeId, id: AgreementId, payload: &[u8]) {
        if let Some(mark) = self.frontier.get_mut(from.index()).filter(|_| from != self.me) {
            // Clamp to the stream: epochs past the end are nonsense and
            // must not drag the frontier (and everyone's skips) with them.
            let claimed = id.epoch.0.min(self.cfg.epochs - 1);
            if mark.is_none_or(|f| claimed > f) {
                *mark = Some(claimed);
                // A resident epoch can only be stranded by the quorum
                // frontier moving (`fill_pipeline` never spawns a hopeless
                // one), so every other entry skips the scan.
                if self.refresh_quorum_frontier() {
                    self.fast_forward();
                }
            }
        }

        let epoch = id.epoch.0;
        if epoch >= self.next_spawn {
            self.buffer_early(from, id, payload);
            return;
        }
        let Some(slot) = self.slots.get_mut(&epoch) else {
            // Evicted or skipped: a peer slower (or faster, pre-skip) than
            // us. Expected traffic, never an error.
            self.stats.late_entries += 1;
            return;
        };
        let Some(instance) = slot.instances.get_mut(id.asset.index()) else {
            return; // unknown asset: ignore the entry
        };
        let burst = instance.on_message(from, payload);
        self.route(id, burst);
        self.harvest(epoch, id.asset.index());
        self.fill_pipeline();
    }

    /// Appends one instance's burst to the pending entries, dropping a
    /// point-to-point envelope to a node outside the system.
    fn route(&mut self, id: AgreementId, burst: Vec<Envelope>) {
        for Envelope { to, payload } in burst {
            if matches!(to, Recipient::One(dest) if dest.index() >= self.n) {
                continue;
            }
            self.pending_bytes += payload.len();
            self.pending.push((to, id, payload));
        }
    }

    /// Records a fresh output on `(epoch, asset)` and resolves the epoch
    /// once every asset has one.
    fn harvest(&mut self, epoch: u32, asset: usize) {
        let Some(slot) = self.slots.get_mut(&epoch) else { return };
        let (Some(output @ None), Some(instance)) =
            (slot.outputs.get_mut(asset), slot.instances.get(asset))
        else {
            return;
        };
        let Some(out) = instance.output() else { return };
        *output = Some(out);
        slot.missing -= 1;
        if slot.done() {
            self.unfinished -= 1;
            let outputs = std::mem::take(&mut slot.outputs).into_iter().flatten().collect();
            self.resolve(epoch, EpochOutcome::Agreed(outputs));
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
    fn fill_pipeline(&mut self) {
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
                self.route(AgreementId::new(EpochId(epoch), InstanceId(a as u16)), burst);
            }
            self.slots.insert(epoch, slot);
            self.unfinished += 1;
            self.stats.peak_resident = self.stats.peak_resident.max(self.slots.len());
            // An instance may output at start (degenerate protocols).
            for a in 0..assets {
                self.harvest(epoch, a);
            }
            self.replay_early(epoch);
        }
    }

    /// The first epoch past `epoch`'s live window — the one place an
    /// epoch and the window are summed (saturating at the end of `u32`).
    fn window_end(&self, epoch: u32) -> u32 {
        epoch.saturating_add(u32::try_from(self.cfg.window).unwrap_or(u32::MAX))
    }

    /// Whether `epoch` is beyond saving: `t + 1` senders are ahead of it
    /// by more than the live window, so the quorum has evicted it.
    fn hopeless(&self, epoch: u32) -> bool {
        self.quorum_frontier.is_some_and(|f| self.window_end(epoch) <= f)
    }

    /// Recomputes the cached quorum frontier — the `(t + 1)`-th highest
    /// sender mark, `t = (n − 1) / 3` — after a mark advanced; returns
    /// whether it moved.
    fn refresh_quorum_frontier(&mut self) -> bool {
        let t = (self.n - 1) / 3;
        let seen = &mut self.frontier_scratch;
        seen.clear();
        seen.extend(self.frontier.iter().flatten());
        if seen.len() <= t {
            return false;
        }
        let (_, &mut quorum, _) = seen.select_nth_unstable_by(t, |a, b| b.cmp(a));
        let moved = self.quorum_frontier != Some(quorum);
        self.quorum_frontier = Some(quorum);
        moved
    }

    /// Skips unfinished epochs the quorum has left behind, so the
    /// pipeline can refill at the live frontier instead of stalling.
    fn fast_forward(&mut self) {
        let Some(frontier) = self.quorum_frontier else { return };
        let stale: Vec<u32> = self
            .slots
            .iter()
            .filter(|(&e, slot)| !slot.done() && self.window_end(e) <= frontier)
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
        self.fill_pipeline();
    }

    /// Buffers an entry for a not-yet-spawned epoch (bounded; replayed at
    /// spawn). Entries beyond the stream or the byte budget are dropped.
    fn buffer_early(&mut self, from: NodeId, id: AgreementId, payload: &[u8]) {
        let epoch = id.epoch.0;
        if epoch >= self.cfg.epochs
            || epoch >= self.window_end(self.next_spawn)
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
    fn replay_early(&mut self, epoch: u32) {
        let Some(buffered) = self.early.remove(&epoch) else { return };
        for (from, asset, payload) in buffered {
            self.early_bytes -= early_entry_cost(payload.len());
            self.stats.replayed_entries += 1;
            let Some(slot) = self.slots.get_mut(&epoch) else { continue };
            let Some(instance) = slot.instances.get_mut(asset.index()) else { continue };
            let burst = instance.on_message(from, &payload);
            self.route(AgreementId::new(EpochId(epoch), asset), burst);
            self.harvest(epoch, asset.index());
        }
    }

    /// Evicts the oldest *resolved* epochs until a fresh spawn fits the
    /// window budget. Unfinished epochs are never evicted: the spawn loop
    /// runs only while fewer than `depth ≤ window` epochs are unfinished,
    /// so a resolved resident always exists when the budget is full.
    fn evict_lingerers(&mut self) {
        while self.slots.len() >= self.cfg.window {
            let resolved = self.slots.iter().find(|(_, slot)| slot.done());
            let Some(victim) = resolved.map(|(&e, _)| e) else { return };
            self.slots.remove(&victim);
        }
    }

    /// Ends a protocol step: flushes the pending entries if the policy says
    /// they are due — always, per step and per entry; on tripping the entry
    /// or byte trigger, adaptive (the time trigger is the driver's).
    fn end_step(&mut self, out: &mut Vec<Envelope>) {
        let due = match self.flush {
            FlushPolicy::PerEntry | FlushPolicy::PerStep => true,
            FlushPolicy::Adaptive { max_entries, max_bytes, .. } => {
                self.pending.len() >= max_entries || self.pending_bytes >= max_bytes
            }
        };
        if due {
            self.flush_pending(out);
        }
    }

    /// Encodes every pending entry into `out`: one batch to every peer
    /// while all are broadcasts, else one batch per destination they
    /// reach, in send order; per entry, a batch each.
    fn flush_pending(&mut self, out: &mut Vec<Envelope>) {
        if self.pending.is_empty() {
            return;
        }
        let (pending, me) = (&self.pending, self.me);
        for (to, id, payload) in pending {
            let copies = if *to == Recipient::All { self.n as u64 - 1 } else { 1 };
            self.stats.sent_entries += copies;
            self.stats.sent_head_bytes += copies * epoch_entry_overhead(*id, payload.len()) as u64;
        }
        if self.flush == FlushPolicy::PerEntry {
            for pending in pending {
                let payload = encode_entries(std::iter::once(entry(pending)));
                out.push(Envelope { to: pending.0, payload });
            }
        } else if pending.iter().all(|(to, ..)| *to == Recipient::All) {
            out.push(Envelope::to_all(encode_entries(pending.iter().map(entry))));
        } else {
            for dest in NodeId::all(self.n) {
                let reaches = move |(to, ..): &&(Recipient, AgreementId, Bytes)| {
                    *to == Recipient::One(dest) || (*to == Recipient::All && dest != me)
                };
                let entries = pending.iter().filter(reaches).map(entry);
                if entries.clone().next().is_some() {
                    out.push(Envelope::to_one(dest, encode_entries(entries)));
                }
            }
        }
        self.pending.clear();
        self.pending_bytes = 0;
    }
}

impl<P: Protocol + Send + 'static> EpochProtocol<P> {
    /// A one-shot basket as a stream of one epoch: `instances[i]` runs as
    /// asset `i` of epoch 0 (depth 1, window 1 — the resolved epoch is
    /// never evicted, so a finished node keeps answering peers), and the
    /// stream's single event carries their outputs in order.
    ///
    /// # Panics
    ///
    /// Panics if `instances` is empty, holds more than `u16::MAX`
    /// instances, or the instances disagree on node identity or system
    /// size.
    pub fn one_epoch(instances: Vec<P>, flush: FlushPolicy) -> EpochProtocol<P> {
        assert!(!instances.is_empty(), "a one-epoch stream needs at least one instance");
        assert!(instances.len() <= usize::from(u16::MAX), "instance ids are u16");
        let (me, n) = instances.first().map_or((NodeId(0), 0), |p| (p.node_id(), p.n()));
        assert!(
            instances.iter().all(|p| p.node_id() == me && p.n() == n),
            "instances disagree on node id or system size"
        );
        let cfg = EpochConfig::new(1, instances.len() as u16, 1, 1);
        let mut prebuilt: Vec<Option<P>> = instances.into_iter().map(Some).collect();
        let factory = move |_, asset: InstanceId| {
            let instance = prebuilt.get_mut(asset.index()).and_then(Option::take);
            // lint: allow(no-panic) — one epoch spawns each of its assets exactly once
            instance.expect("a one-epoch stream builds every instance once")
        };
        EpochProtocol::new(cfg, me, n, Box::new(factory), flush)
    }
}

impl<P: Protocol> Protocol for EpochProtocol<P> {
    type Output = Vec<EpochEvent<P::Output>>;

    fn node_id(&self) -> NodeId {
        self.me
    }

    fn n(&self) -> usize {
        self.n
    }

    fn start(&mut self) -> Vec<Envelope> {
        let mut out = Vec::new();
        self.fill_pipeline();
        self.end_step(&mut out);
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
            self.on_entry(from, id, entry);
            self.end_step(&mut out);
        }
        out
    }

    fn on_tick(&mut self) -> Vec<Envelope> {
        let mut out = Vec::new();
        self.flush_pending(&mut out);
        out
    }

    fn output(&self) -> Option<Vec<EpochEvent<P::Output>>> {
        self.is_complete().then(|| self.events.clone())
    }

    fn is_finished(&self) -> bool {
        self.is_complete() && self.pending.is_empty()
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
        assert_eq!(encoded.len(), epoch_batch_len(entries.iter().map(|(id, p)| (*id, p.len()))));
        // Heads of 3, 5 + 3 + 1 and 3 bytes: a varint per field.
        assert_eq!(encoded.len(), EPOCH_COUNT_BYTES + 3 + 5 + 9 + 3 + 5);
        assert_eq!(encoded[..6], [0, 3, 0, 0, 5, b'a']);
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
        // An epoch above `u32::MAX`, an asset above `u16::MAX`, a varint
        // past 64 bits and a length past the input, by both decoders.
        for (head, err) in [
            (&[0x80, 0x80, 0x80, 0x80, 0x10, 0, 0][..], WireError::VarintOverflow),
            (&[0, 0x80, 0x80, 0x04, 0][..], WireError::VarintOverflow),
            (&[0xff; 11][..], WireError::VarintOverflow),
            (&[0, 0, 2, 0][..], WireError::LengthOutOfBounds),
        ] {
            let bad = [&[0, 1][..], head].concat();
            assert_eq!(decode_epoch_batch(&bad), Err(err), "{bad:?}");
            assert_eq!(decode_epoch_batch_ref(&bad).unwrap_err(), err, "{bad:?}");
        }
        // An overlong but in-range varint reads as its value, alike.
        let padded = [0, 1, 0x83, 0x00, 0x81, 0x80, 0x00, 1, b'p'];
        assert_eq!(decode_epoch_batch(&padded), Ok(entries.clone()));
        assert_eq!(decode_epoch_batch_ref(&padded).unwrap().to_owned_entries(), entries);
    }

    /// A varint field as a Byzantine sender may write it: minimal, of any
    /// width, padded with continuation bytes, or eleven bytes long.
    fn hostile_varint() -> impl proptest::prelude::Strategy<Value = Vec<u8>> {
        use proptest::prelude::{any, Strategy};
        (any::<u64>(), 0u8..4, 0u8..4).prop_map(|(v, width, form)| {
            let v = [v % 200, v % 70_000, v % (1 << 33), v][usize::from(width)];
            let mut w = Writer::new();
            w.put_u64(v);
            let mut bytes = w.into_vec();
            match form {
                0 => {
                    bytes.last_mut().into_iter().for_each(|b| *b |= 0x80);
                    bytes.push(0);
                }
                1 => bytes = vec![0xff; 11],
                _ => {}
            }
            bytes
        })
    }

    /// Epoch batches with hostile heads: the fields above, lengths that
    /// overrun their payloads, counts off by one, trailing bytes.
    fn hostile_batch() -> impl proptest::prelude::Strategy<Value = Vec<u8>> {
        use proptest::collection::vec;
        use proptest::prelude::{any, Strategy};
        let entry = (hostile_varint(), hostile_varint(), any::<bool>(), vec(any::<u8>(), 0..6));
        (vec(entry, 0..5), 0u16..3, vec(any::<u8>(), 0..2)).prop_map(|(entries, skew, tail)| {
            let count = (entries.len() as u16 + skew).saturating_sub(1);
            let mut out = count.to_be_bytes().to_vec();
            for (epoch, asset, overrun, payload) in entries {
                let mut len = Writer::new();
                len.put_u64((payload.len() + usize::from(overrun)) as u64);
                out.extend([epoch, asset, len.into_vec(), payload].concat());
            }
            out.extend(tail);
            out
        })
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

    /// Node `me` of an `n`-node gossip stream, flushing per step.
    fn gossip_node(cfg: EpochConfig, me: NodeId, n: usize) -> EpochProtocol<Gossip> {
        EpochProtocol::new(cfg, me, n, gossip_factory(me, n), FlushPolicy::PerStep)
    }

    fn mesh(cfg: EpochConfig, n: usize, flush: FlushPolicy) -> Vec<EpochProtocol<Gossip>> {
        NodeId::all(n)
            .map(|id| EpochProtocol::new(cfg, id, n, gossip_factory(id, n), flush))
            .collect()
    }

    /// Hand-delivers envelopes (flushing via ticks when queues drain)
    /// until quiescence; returns messages delivered.
    fn run_mesh(nodes: &mut [EpochProtocol<Gossip>]) -> usize {
        let n = nodes.len();
        let mut queue: std::collections::VecDeque<(NodeId, NodeId, Bytes)> =
            std::collections::VecDeque::new();
        let push = |queue: &mut std::collections::VecDeque<(NodeId, NodeId, Bytes)>,
                    from: NodeId,
                    envs: Vec<Envelope>| {
            for env in envs {
                for dest in reached(env.to, from, n) {
                    queue.push_back((from, dest, env.payload.clone()));
                }
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
        let cfg = EpochConfig::new(12, 3, 2, 4);
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
            assert_eq!(node.stats().stale_epochs, 0);
            assert_eq!(node.stats().late_entries, 0);
            assert!(node.stats().peak_resident <= 4, "live window bound");
            assert!(node.is_finished());
        }
    }

    #[test]
    fn adaptive_flush_cuts_batches_at_equal_entry_counts() {
        let cfg = EpochConfig::new(10, 4, 2, 4);
        let mut per_step = mesh(cfg, 3, FlushPolicy::PerStep);
        let per_step_batches = run_mesh(&mut per_step);
        let mut adaptive = mesh(
            cfg,
            3,
            FlushPolicy::Adaptive {
                max_entries: 16,
                max_bytes: 4096,
                max_delay: Duration::from_millis(1),
            },
        );
        let adaptive_batches = run_mesh(&mut adaptive);
        let entries = |nodes: &[EpochProtocol<Gossip>]| {
            nodes.iter().map(|n| n.stats().sent_entries).sum::<u64>()
        };
        let mut per_entry = mesh(cfg, 3, FlushPolicy::PerEntry);
        let per_entry_batches = run_mesh(&mut per_entry);
        // Every batch flushed is one delivery: the mesh returns batches.
        for node in per_step.iter().chain(&adaptive).chain(&per_entry) {
            assert!(node.output().is_some(), "every policy completes the stream");
        }
        assert_eq!(entries(&per_step), entries(&adaptive), "same protocol work");
        assert_eq!(entries(&per_step), entries(&per_entry), "same protocol work");
        assert_eq!(per_entry_batches as u64, entries(&per_entry), "per-entry: a batch an entry");
        assert!(per_step_batches < per_entry_batches, "a step's entries share a batch");
        assert!(
            adaptive_batches < per_step_batches,
            "adaptive {adaptive_batches} vs per-step {per_step_batches} batches for {} entries",
            entries(&per_step)
        );
    }

    #[test]
    fn late_entries_to_evicted_epochs_are_counted_not_errors() {
        let n = 2;
        let cfg = EpochConfig::new(6, 1, 1, 1);
        let mut a = gossip_node(cfg, NodeId(0), n);
        let mut b = gossip_node(cfg, NodeId(1), n);
        let a0 = a.start();
        let b0 = b.start();
        // Deliver epoch 0 both ways: both complete epoch 0, spawn epoch 1,
        // and (window = depth = 1) evict the finished epoch 0 slot.
        let _ = a.on_message(NodeId(1), &b0[0].payload);
        let _ = b.on_message(NodeId(0), &a0[0].payload);
        assert_eq!(a.events.len(), 1);
        // Replay node 1's epoch-0 greeting: epoch 0 is evicted now.
        let before = a.stats().late_entries;
        let out = a.on_message(NodeId(1), &b0[0].payload);
        assert!(out.is_empty(), "late entry triggers nothing");
        assert_eq!(a.stats().late_entries, before + 1, "late entry counted");
        assert_eq!(a.events.len(), 1, "state unchanged");
    }

    #[test]
    fn eviction_never_removes_an_unfinished_epoch_within_the_window() {
        // depth 2, window 2: node 0 completes epoch 0 while epoch 1 stays
        // unfinished; spawning epoch 2 pushes residency to 3 > window and
        // must evict the *completed* epoch 0, not unfinished epoch 1.
        let n = 2;
        let cfg = EpochConfig::new(8, 1, 2, 2);
        let mut a = gossip_node(cfg, NodeId(0), n);
        let mut b = gossip_node(cfg, NodeId(1), n);
        let _ = a.start();
        let b0 = b.start();
        // b's start burst carries epochs 0 and 1; feed only epoch 0 to a.
        let entries = decode_epoch_batch(&b0[0].payload).unwrap();
        let (e0, payload0) =
            entries.iter().find(|(id, _)| id.epoch == EpochId(0)).cloned().expect("epoch 0 entry");
        let _ = a.on_entry_for_test(NodeId(1), e0, &payload0);
        // Epoch 0 done -> epoch 2 spawned; epoch 1 still unfinished.
        assert_eq!(a.events.len(), 1);
        assert!(a.slots.len() <= 2, "window respected");
        let resident: Vec<u32> = a.slots.keys().copied().collect();
        assert!(resident.contains(&1), "unfinished epoch 1 must survive eviction");
        assert!(!resident.contains(&0), "completed epoch 0 was the eviction victim");
    }

    #[test]
    fn rejoining_node_fast_forwards_past_a_quorum_frontier() {
        // n = 4, t = 1: two senders must be beyond an epoch (window past
        // it) before it is skipped. A single high-epoch sender moves
        // nothing — the Byzantine-advertisement guard.
        let n = 4;
        let cfg = EpochConfig::new(40, 1, 1, 2);
        let mut lag = gossip_node(cfg, NodeId(0), n);
        let _ = lag.start();
        assert_eq!(lag.slots.len(), 1, "working on epoch 0");

        // One (possibly Byzantine) sender claims epoch 30: no movement.
        let _ =
            lag.on_entry_for_test(NodeId(1), AgreementId::new(EpochId(30), InstanceId(0)), b"x");
        assert_eq!(lag.stats().stale_epochs, 0, "one sender is not a quorum");

        // A second sender confirms the frontier: epoch 0 is hopeless
        // (30 ≥ 0 + window), the pipeline skips forward and respawns at the
        // buffered frontier epochs.
        let _ =
            lag.on_entry_for_test(NodeId(2), AgreementId::new(EpochId(30), InstanceId(0)), b"x");
        assert!(lag.stats().stale_epochs > 0, "left-behind epochs skipped");
        let events = &lag.events;
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
        let cfg = EpochConfig::new(40, 1, 1, 2);
        let mut lag = gossip_node(cfg, NodeId(0), n);
        let _ = lag.start();
        let far = AgreementId::new(EpochId(30), InstanceId(0));
        let _ = lag.on_entry_for_test(NodeId(1), far, b"x");
        // Marks that cannot move the frontier: our own id, an id outside
        // the system, a repeat of a mark already counted.
        for from in [NodeId(0), NodeId(9), NodeId(1)] {
            let _ = lag.on_entry_for_test(from, far, b"x");
        }
        assert_eq!(lag.stats().stale_epochs, 0, "one distinct sender is not a quorum");
        assert!(lag.events.is_empty());

        // Sender 2's mark is the t + 1-th: epoch 0 is resolved as skipped
        // before this call returns, and the pipeline has moved on.
        let _ = lag.on_entry_for_test(NodeId(2), far, b"x");
        assert!(lag.stats().stale_epochs > 0, "stranded epoch skipped on the moving entry");
        assert_eq!(lag.events.first().map(|e| &e.outcome), Some(&EpochOutcome::Skipped));
        assert!(!lag.slots.contains_key(&0), "epoch 0 is no longer resident");
        let skipped = lag.stats().stale_epochs;

        // An entry that leaves every mark in place changes nothing.
        let _ = lag.on_entry_for_test(NodeId(2), far, b"x");
        let _ = lag.on_entry_for_test(NodeId(2), AgreementId::new(EpochId(7), InstanceId(0)), b"x");
        assert_eq!(lag.stats().stale_epochs, skipped);
    }

    #[test]
    fn frontier_gated_fast_forward_matches_a_scan_on_every_entry() {
        // Reference behaviour: scan for stranded epochs before every
        // entry, whoever sent it. The pipeline scans only when the quorum
        // frontier moved; events, counters and bursts must not differ.
        let n = 4;
        let cfg = EpochConfig::new(40, 1, 2, 3);
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
            let mut node = gossip_node(cfg, NodeId(0), n);
            let mut bursts = vec![node.start()];
            for &(from, id) in &script {
                if scan_every_entry {
                    let mut skipped = Vec::new();
                    node.fast_forward();
                    node.end_step(&mut skipped);
                    bursts.push(skipped);
                }
                bursts.push(node.on_entry_for_test(from, id, b"g"));
            }
            bursts.retain(|b| !b.is_empty());
            (node.events.clone(), node.stats(), bursts)
        };
        let (events, stats, bursts) = run(false);
        assert_eq!((events.clone(), stats, bursts), run(true));
        // The script did exercise every path it claims to.
        assert!(stats.stale_epochs > 0 && stats.replayed_entries > 0 && stats.late_entries > 0);
        assert!(events.iter().any(|e| matches!(e.outcome, EpochOutcome::Agreed(_))));
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_window_wider_than_u32_behaves_as_the_whole_stream() {
        // Added to an epoch as a `u32`, a window of (1 << 32) + 1 reads as
        // 1 and skips every epoch two senders are one past. Past the
        // stream's end a window changes nothing, so it is held as `epochs`
        // and each step repeats a window-40 run's.
        let (n, epochs) = (4, 40);
        let wide = (1usize << 32) + 1;
        assert_eq!(EpochConfig::new(epochs, 1, 1, wide).window, 40);
        // A one-epoch stream at the default depth 2 and window 6 is held
        // as depth 1, window 1, and builds.
        let one = EpochConfig::new(1, 1, 2, 6);
        assert_eq!(one, EpochConfig { epochs: 1, assets: 1, depth: 1, window: 1 });
        assert!(!gossip_node(one, NodeId(0), n).start().is_empty());
        let at = |e: u32| AgreementId::new(EpochId(e), InstanceId(0));
        let run = |window: usize| {
            let mut node = gossip_node(EpochConfig::new(epochs, 1, 1, window), NodeId(0), n);
            let mut out = vec![node.start()];
            // The peers greet each epoch one ahead of this node.
            for e in 0..epochs {
                for ahead in [e + 1, e] {
                    for from in 1..4 {
                        out.push(node.on_entry_for_test(NodeId(from), at(ahead), b"g"));
                    }
                }
            }
            (node.events, node.stats, out)
        };
        let (events, stats, out) = run(wide);
        assert_eq!(stats.stale_epochs, 0, "an epoch one behind is not hopeless");
        assert_eq!(events.len(), epochs as usize);
        assert!(events.iter().all(|e| matches!(e.outcome, EpochOutcome::Agreed(_))));
        assert_eq!((events, stats, out), run(epochs as usize));
    }

    #[test]
    fn early_entries_buffer_and_replay_but_bound_memory() {
        // n = 4 (t = 1) with a single sending peer: no fast-forward quorum
        // can ever form, isolating the early-buffer path. Its instances
        // gossip as in a 2-node mesh, so that peer's greeting completes an
        // epoch.
        let cfg = EpochConfig::new(10, 1, 1, 2);
        let mut a = EpochProtocol::new(
            cfg,
            NodeId(0),
            4,
            gossip_factory(NodeId(0), 2),
            FlushPolicy::PerStep,
        );
        let _ = a.start();
        // Epoch 1 is within the horizon: buffered, then replayed at spawn.
        let _ = a.on_entry_for_test(NodeId(1), AgreementId::new(EpochId(1), InstanceId(0)), b"g");
        assert_eq!(a.stats().early_dropped, 0);
        // Far beyond the horizon (and the stream): dropped and counted.
        let _ =
            a.on_entry_for_test(NodeId(1), AgreementId::new(EpochId(9999), InstanceId(0)), b"g");
        assert_eq!(a.stats().early_dropped, 1);
        // Completing epoch 0 spawns epoch 1, replaying the buffer: the
        // replayed greeting counts toward epoch 1's completion.
        let _ = a.on_entry_for_test(NodeId(1), AgreementId::new(EpochId(0), InstanceId(0)), b"g");
        assert_eq!(a.stats().replayed_entries, 1);
        assert_eq!(a.events.len(), 2, "epoch 1 completed via the replayed entry");
    }

    #[test]
    fn early_budget_is_released_when_buffered_epochs_are_skipped() {
        // Buffer entries for future epochs, then fast-forward past them:
        // the skipped epochs' buffered bytes must return to the budget,
        // or repeated skip cycles would eventually reject all buffering.
        let n = 4;
        let cfg = EpochConfig::new(200, 1, 1, 2);
        let mut lag = gossip_node(cfg, NodeId(0), n);
        let _ = lag.start();
        let _ = lag.on_entry_for_test(
            NodeId(1),
            AgreementId::new(EpochId(1), InstanceId(0)),
            b"abcdef",
        );
        assert!(lag.early_bytes > 0, "entry buffered");
        // Two senders at epoch 100: epochs 0 and 1 (and the buffer for 1)
        // are hopeless and skipped.
        let _ =
            lag.on_entry_for_test(NodeId(1), AgreementId::new(EpochId(100), InstanceId(0)), b"x");
        let _ =
            lag.on_entry_for_test(NodeId(2), AgreementId::new(EpochId(100), InstanceId(0)), b"x");
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
        let n = 4;
        let cfg = EpochConfig::new(100, 1, 1, 2); // t = 1, one sender: no quorum
        let mut node = gossip_node(cfg, NodeId(0), n);
        let _ = node.start();
        for _ in 0..10_000 {
            let _ =
                node.on_entry_for_test(NodeId(1), AgreementId::new(EpochId(1), InstanceId(0)), b"");
        }
        let buffered: usize = node.early.values().map(|v| v.len()).sum();
        assert!(buffered <= EARLY_BUFFER_BYTES / 64 + 1, "buffer bounded: {buffered} entries");
        assert!(node.stats().early_dropped > 0, "flood tail dropped and counted");
    }

    #[test]
    fn unknown_assets_and_malformed_batches_are_ignored() {
        let cfg = EpochConfig::new(2, 1, 1, 1);
        let mut node = gossip_node(cfg, NodeId(0), 2);
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
        EpochProtocol::one_epoch(instances, FlushPolicy::PerStep)
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
        assert_eq!(receiver.stats().sent_entries, 2);
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
        assert!(node.is_complete() && node.output().is_some());
        assert_eq!(node.slots.len(), 1, "the resolved epoch lingers");
        for _ in 0..3 {
            let answer = node.on_entry_for_test(NodeId(2), at(1), &[8]);
            assert_eq!(answer.len(), 1, "a finished node still answers");
            assert_eq!(answer[0].to, Recipient::One(NodeId(2)));
        }
        assert_eq!(node.stats().late_entries, 0);
        assert_eq!(node.events.len(), 1, "the stream's single event is final");
    }

    #[test]
    #[should_panic(expected = "disagree on node id")]
    fn one_epoch_rejects_mismatched_identities() {
        let relay = |id| Relay { id: NodeId(id), tag: 0, got: None };
        let _ = EpochProtocol::one_epoch(vec![relay(0), relay(1)], FlushPolicy::PerStep);
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn one_epoch_rejects_empty_instance_list() {
        let _: EpochProtocol<Relay> = EpochProtocol::one_epoch(Vec::new(), FlushPolicy::PerStep);
    }

    #[test]
    #[should_panic(expected = "window must cover")]
    fn config_rejects_window_smaller_than_depth() {
        let _ = EpochConfig::new(1, 1, 4, 2);
    }

    #[test]
    fn flush_policy_helpers() {
        let FlushPolicy::Adaptive { max_entries, max_bytes, max_delay } = FlushPolicy::adaptive()
        else {
            panic!("the adaptive default defers flushing");
        };
        assert_eq!((max_entries, max_bytes, max_delay), (32, 8192, Duration::from_millis(1)));
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

        /// Hostile heads: both decoders agree, neither panics, and what
        /// decodes — a 3-byte head at least per entry, and its payload —
        /// stays within the input's bytes.
        #[test]
        fn prop_hostile_heads_decode_alike_within_input(bytes in hostile_batch()) {
            let owned = decode_epoch_batch(&bytes);
            let borrowed = decode_epoch_batch_ref(&bytes).map(|v| v.to_owned_entries());
            proptest::prop_assert_eq!(&owned, &borrowed);
            if let Ok(entries) = owned {
                let payloads: usize = entries.iter().map(|(_, p)| p.len()).sum();
                proptest::prop_assert!(3 * entries.capacity() + 2 <= bytes.len().max(2));
                proptest::prop_assert!(3 * entries.len() + payloads + 2 <= bytes.len());
            }
        }
    }

    /// The nodes an envelope sent by `from` reaches in an `n`-node mesh,
    /// in ascending order.
    fn reached(to: Recipient, from: NodeId, n: usize) -> impl Iterator<Item = NodeId> {
        NodeId::all(n)
            .filter(move |&d| to == Recipient::One(d) || (to == Recipient::All && d != from))
    }

    #[test]
    fn a_broadcast_flush_is_one_envelope_to_all() {
        // Node 0 of 4 starts two epochs of three gossiping assets: six
        // broadcast entries in one step, epoch-major.
        let n = 4;
        let cfg = EpochConfig::new(2, 3, 2, 2);
        let sent: Vec<AgreementId> = (0..2u32)
            .flat_map(|e| (0..3u16).map(move |a| AgreementId::new(EpochId(e), InstanceId(a))))
            .collect();
        let max_delay = Duration::from_millis(1);
        let adaptive = FlushPolicy::Adaptive { max_entries: 64, max_bytes: 4096, max_delay };
        for flush in [FlushPolicy::PerStep, adaptive, FlushPolicy::PerEntry] {
            let mut node =
                EpochProtocol::new(cfg, NodeId(0), n, gossip_factory(NodeId(0), n), flush);
            let mut out = node.start();
            out.extend(node.on_tick());
            assert!(out.iter().all(|env| env.to == Recipient::All), "{flush:?}: {out:?}");
            let batches: Vec<Vec<AgreementId>> = out
                .iter()
                .map(|env| {
                    decode_epoch_batch(&env.payload).unwrap().into_iter().map(|e| e.0).collect()
                })
                .collect();
            if flush == FlushPolicy::PerEntry {
                // One entry a batch, in send order.
                assert_eq!(batches, sent.iter().map(|&id| vec![id]).collect::<Vec<_>>());
            } else {
                assert_eq!(batches, vec![sent.clone()], "{flush:?}: one batch for every peer");
            }
            // Each entry reaches the n − 1 peers: 3-byte heads.
            assert_eq!(node.stats().sent_entries, 6 * (n as u64 - 1), "{flush:?}");
            assert_eq!(node.stats().sent_head_bytes, 3 * 6 * (n as u64 - 1), "{flush:?}");
            assert!(node.on_tick().is_empty() && node.pending_delay().is_none());
        }
    }

    /// Sends what each message spells: after a `u16` step number, pairs
    /// of `(dest, len)` — `dest` 0xff for everyone — each answered with one
    /// envelope whose payload is the step number, the pair's index and
    /// `len` filler bytes.
    struct Script {
        n: usize,
    }

    impl Protocol for Script {
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
            let (step, pairs) = msg.split_at(2);
            let envelope = |(k, pair): (usize, &[u8])| {
                let mut payload = [step, &[k as u8]].concat();
                payload.resize(payload.len() + usize::from(pair[1]), 0);
                let to = match pair[0] {
                    0xff => Recipient::All,
                    d => Recipient::One(NodeId(u16::from(d))),
                };
                Envelope { to, payload: Bytes::from(payload) }
            };
            pairs.chunks_exact(2).enumerate().map(envelope).collect()
        }
        fn output(&self) -> Option<()> {
            None
        }
    }

    /// A step's envelopes: `(dest, len)` with `dest` ≥ 6 a broadcast, 4 and
    /// 5 outside a 4-node system and 0 the sender itself.
    fn step_script() -> impl proptest::prelude::Strategy<Value = Vec<Vec<(u8, u8)>>> {
        use proptest::collection::vec;
        vec(vec((0u8..10, 0u8..20), 0..4), 1..12)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random steps mixing broadcast and point-to-point entries, under
        /// each policy: every destination decodes exactly the entries that
        /// reach it, in send order, flushed at the step where the
        /// pipeline-wide triggers say (the final tick for the rest).
        #[test]
        fn prop_every_destination_decodes_its_entries_in_send_order(
            script in step_script(),
            policy in 0u8..3,
            max_entries in 1usize..6,
            max_bytes in 1usize..80,
        ) {
            let n = 4;
            let max_delay = Duration::from_millis(1);
            let flush = [
                FlushPolicy::PerEntry,
                FlushPolicy::PerStep,
                FlushPolicy::Adaptive { max_entries, max_bytes, max_delay },
            ][usize::from(policy)];
            let mut node = EpochProtocol::one_epoch(vec![Script { n }], flush);
            proptest::prop_assert!(node.start().is_empty());
            // The model: one pending list, flushed whole when due.
            let mut expected: Vec<Vec<(usize, Bytes)>> = vec![Vec::new(); n];
            let mut received: Vec<Vec<(usize, Bytes)>> = vec![Vec::new(); n];
            let mut pending: Vec<(Recipient, Bytes)> = Vec::new();
            let mut model_flush = |at: usize, pending: &mut Vec<(Recipient, Bytes)>| {
                for (to, payload) in pending.drain(..) {
                    for dest in reached(to, NodeId(0), n) {
                        expected[dest.index()].push((at, payload.clone()));
                    }
                }
            };
            let mut deliver = |at: usize, out: Vec<Envelope>| {
                for env in out {
                    let entries = decode_epoch_batch(&env.payload).unwrap();
                    for dest in reached(env.to, NodeId(0), n) {
                        let batch = entries.iter().map(|(_, p)| (at, p.clone()));
                        received[dest.index()].extend(batch);
                    }
                }
            };
            for (at, pairs) in script.iter().enumerate() {
                let mut msg = (at as u16).to_be_bytes().to_vec();
                msg.extend(pairs.iter().flat_map(|&(d, len)| [if d < 6 { d } else { 0xff }, len]));
                let step = Script { n }.on_message(NodeId(1), &msg);
                for env in step {
                    if reached(env.to, NodeId(0), n).next().is_some() {
                        pending.push((env.to, env.payload));
                    }
                }
                let due = match flush {
                    FlushPolicy::Adaptive { .. } => {
                        pending.len() >= max_entries
                            || pending.iter().map(|(_, p)| p.len()).sum::<usize>() >= max_bytes
                    }
                    _ => true,
                };
                if due {
                    model_flush(at, &mut pending);
                }
                let batch = encode_epoch_batch(&[(AgreementId::default(), Bytes::from(msg))]);
                deliver(at, node.on_message(NodeId(1), &batch));
            }
            model_flush(script.len(), &mut pending);
            deliver(script.len(), node.on_tick());
            let total: usize = expected.iter().map(Vec::len).sum();
            proptest::prop_assert_eq!(&received, &expected);
            proptest::prop_assert_eq!(node.stats().sent_entries, total as u64);
            proptest::prop_assert!(node.pending_delay().is_none());
        }
    }

    impl<P: Protocol> EpochProtocol<P> {
        /// Test-only: feed a single decoded entry (bypassing the codec).
        fn on_entry_for_test(
            &mut self,
            from: NodeId,
            id: AgreementId,
            payload: &[u8],
        ) -> Vec<Envelope> {
            self.on_entry(from, id, payload);
            let mut out = Vec::new();
            self.end_step(&mut out);
            out
        }
    }
}
