//! Multiplexing many protocol instances over one mesh.
//!
//! A DORA-style oracle deployment runs one Delphi instance per price feed.
//! Running each instance over its own mesh multiplies the per-message
//! transport cost (framing + MAC) by the number of assets; multiplexing all
//! instances over *one* mesh lets every message produced in the same
//! protocol step share a single frame and a single tag.
//!
//! This module provides the sans-io half of that story:
//!
//! - a **batch entry codec**: a sequence of `(instance, payload)` entries,
//!   encoded as `[u16 count]` followed by `count` entries of
//!   `[u16 instance][u32 len][len bytes]` (big-endian). `delphi-net` wraps
//!   exactly this sequence in its authenticated v2 frames, and [`Mux`] uses
//!   it as the payload of simulator messages, so simulated batched bytes
//!   equal TCP batched bytes.
//! - [`Mux`]: a [`Protocol`] combinator that drives `k` instances of an
//!   inner protocol as one state machine, coalescing every envelope the
//!   instances emit in one step into one batched envelope per destination.
//!
//! Malformed batch payloads (Byzantine senders) decode to [`WireError`] and
//! are ignored, per the [`Protocol`] contract.

use bytes::{BufMut, Bytes, BytesMut};

use crate::wire::WireError;
use crate::{Envelope, InstanceId, NodeId, Protocol, Recipient};

/// Bytes of batch-payload overhead per entry: 2-byte instance id plus a
/// 4-byte length prefix.
pub const BATCH_ENTRY_OVERHEAD_BYTES: usize = 6;

/// Bytes of batch-payload overhead per batch: the 2-byte entry count.
pub const BATCH_COUNT_BYTES: usize = 2;

/// Encoded length of a batch of entries with the given payload lengths.
pub fn batch_len(payload_lens: impl IntoIterator<Item = usize>) -> usize {
    BATCH_COUNT_BYTES
        + payload_lens.into_iter().map(|l| BATCH_ENTRY_OVERHEAD_BYTES + l).sum::<usize>()
}

/// Encodes `(instance, payload)` entries into one batch payload.
///
/// # Panics
///
/// Panics if `entries` holds more than `u16::MAX` entries or an entry
/// exceeds `u32::MAX` bytes (unreachable for any protocol in this
/// workspace).
pub fn encode_batch(entries: &[(InstanceId, Bytes)]) -> Bytes {
    let mut buf = BytesMut::with_capacity(batch_len(entries.iter().map(|(_, p)| p.len())));
    put_batch(entries, &mut buf);
    buf.freeze()
}

/// Appends the [`encode_batch`] encoding of `entries` to `buf` — for a
/// transport that builds its frame around the batch in one buffer.
///
/// # Panics
///
/// As [`encode_batch`].
pub fn put_batch(entries: &[(InstanceId, Bytes)], buf: &mut BytesMut) {
    let count = u16::try_from(entries.len()).expect("batch entry count fits u16");
    buf.put_u16(count);
    for (instance, payload) in entries {
        buf.put_u16(instance.0);
        buf.put_u32(u32::try_from(payload.len()).expect("entry length fits u32"));
        buf.put_slice(payload);
    }
}

/// Decodes a batch payload back into `(instance, payload)` entries.
///
/// # Errors
///
/// Returns [`WireError::Truncated`] if the input ends mid-entry,
/// [`WireError::LengthOutOfBounds`] if an entry's declared length exceeds
/// the remaining input, and [`WireError::TrailingBytes`] if bytes remain
/// after the declared entry count — all expected conditions on
/// Byzantine-controlled input.
pub fn decode_batch(buf: &[u8]) -> Result<Vec<(InstanceId, Bytes)>, WireError> {
    let mut rest = buf;
    let count = take_u16(&mut rest)?;
    let mut entries = Vec::with_capacity(usize::from(count).min(rest.len() / 2 + 1));
    for _ in 0..count {
        let instance = InstanceId(take_u16(&mut rest)?);
        let len = take_u32(&mut rest)? as usize;
        if len > rest.len() {
            return Err(WireError::LengthOutOfBounds);
        }
        let (payload, tail) = rest.split_at(len);
        entries.push((instance, Bytes::copy_from_slice(payload)));
        rest = tail;
    }
    if !rest.is_empty() {
        return Err(WireError::TrailingBytes);
    }
    Ok(entries)
}

/// A validated, borrowed view of a batch payload: the zero-copy sibling of
/// [`decode_batch`].
///
/// [`decode_batch_ref`] validates the whole structure up front (rejecting
/// exactly what the owned decoder rejects, with the same error), then
/// [`BatchEntriesRef::iter`] yields `(instance, payload)` entries as slices
/// into the input — no per-entry allocation, no copies. `to_owned` exists
/// for the protocol boundary, where state must outlive the frame.
#[derive(Clone, Copy, Debug)]
pub struct BatchEntriesRef<'a> {
    /// Entry bytes (everything after the count), pre-validated.
    entries: &'a [u8],
    count: u16,
}

/// Parses a borrowed [`BatchEntriesRef`] view of a batch payload.
///
/// # Errors
///
/// Identical to [`decode_batch`]: the two decoders accept and reject
/// exactly the same inputs (property-tested).
pub fn decode_batch_ref(buf: &[u8]) -> Result<BatchEntriesRef<'_>, WireError> {
    let mut rest = buf;
    let count = take_u16(&mut rest)?;
    let entries = rest;
    for _ in 0..count {
        let _instance = take_u16(&mut rest)?;
        let len = take_u32(&mut rest)? as usize;
        if len > rest.len() {
            return Err(WireError::LengthOutOfBounds);
        }
        rest = &rest[len..];
    }
    if !rest.is_empty() {
        return Err(WireError::TrailingBytes);
    }
    Ok(BatchEntriesRef { entries, count })
}

impl<'a> BatchEntriesRef<'a> {
    /// Number of entries in the batch.
    pub fn len(&self) -> usize {
        usize::from(self.count)
    }

    /// Whether the batch carries no entries.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterates the entries as borrowed slices.
    pub fn iter(&self) -> BatchEntryIter<'a> {
        BatchEntryIter { rest: self.entries, remaining: self.count }
    }

    /// Materializes owned entries (the protocol-boundary escape hatch).
    pub fn to_owned_entries(&self) -> Vec<(InstanceId, Bytes)> {
        self.iter().map(|(id, p)| (id, Bytes::copy_from_slice(p))).collect()
    }
}

/// Iterator over a pre-validated [`BatchEntriesRef`].
#[derive(Clone, Debug)]
pub struct BatchEntryIter<'a> {
    rest: &'a [u8],
    remaining: u16,
}

impl<'a> Iterator for BatchEntryIter<'a> {
    type Item = (InstanceId, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // The view was validated at parse time; these bounds checks are
        // unreachable but keep the iterator panic-free on principle.
        let instance = InstanceId(take_u16(&mut self.rest).ok()?);
        let len = take_u32(&mut self.rest).ok()? as usize;
        if len > self.rest.len() {
            self.remaining = 0;
            return None;
        }
        let (payload, tail) = self.rest.split_at(len);
        self.rest = tail;
        Some((instance, payload))
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

/// Routes per-instance envelope bursts into per-destination entry lists:
/// broadcasts expand to every node but `me`, and point-to-point envelopes
/// to out-of-range destinations are dropped, exactly as transports do.
///
/// Shared by [`Mux`] (simulator path) and `delphi-net`'s runner (TCP
/// path), so the two transports can never diverge on routing semantics.
pub fn route_bursts(
    bursts: Vec<(InstanceId, Vec<Envelope>)>,
    n: usize,
    me: NodeId,
) -> Vec<Vec<(InstanceId, Bytes)>> {
    route_bursts_by(bursts, n, me)
}

/// [`route_bursts`] into caller-owned scratch buffers: `per_dest` is
/// resized to `n`, cleared, and refilled, so a steady-state sender (the
/// session layer flushing step after step) reuses one set of routing
/// buffers instead of allocating `n` fresh `Vec`s per step.
pub fn route_bursts_into(
    bursts: Vec<(InstanceId, Vec<Envelope>)>,
    n: usize,
    me: NodeId,
    per_dest: &mut Vec<Vec<(InstanceId, Bytes)>>,
) {
    route_bursts_by_into(bursts, n, me, per_dest);
}

/// Id-generic burst router behind [`route_bursts`] and the epoch layer's
/// [`route_epoch_bursts`](crate::epoch::route_epoch_bursts): one routing
/// semantics, whatever the instance address type.
pub(crate) fn route_bursts_by<K: Copy>(
    bursts: Vec<(K, Vec<Envelope>)>,
    n: usize,
    me: NodeId,
) -> Vec<Vec<(K, Bytes)>> {
    let mut per_dest: Vec<Vec<(K, Bytes)>> = Vec::new();
    route_bursts_by_into(bursts, n, me, &mut per_dest);
    per_dest
}

/// [`route_bursts_by`] into caller-owned scratch: `per_dest` is resized to
/// `n` and its inner vectors cleared and refilled, so a steady-state
/// sender (the session layer flushing step after step) reuses one set of
/// routing buffers instead of allocating `n` fresh `Vec`s per step.
pub(crate) fn route_bursts_by_into<K: Copy>(
    bursts: Vec<(K, Vec<Envelope>)>,
    n: usize,
    me: NodeId,
    per_dest: &mut Vec<Vec<(K, Bytes)>>,
) {
    per_dest.truncate(n);
    for entries in per_dest.iter_mut() {
        entries.clear();
    }
    per_dest.resize_with(n, Vec::new);
    for (instance, envelopes) in bursts {
        for env in envelopes {
            match env.to {
                Recipient::All => {
                    for (dest, entries) in per_dest.iter_mut().enumerate() {
                        if dest != me.index() {
                            entries.push((instance, env.payload.clone()));
                        }
                    }
                }
                Recipient::One(dest) if dest.index() < n => {
                    per_dest[dest.index()].push((instance, env.payload));
                }
                Recipient::One(_) => {} // out-of-range: drop silently
            }
        }
    }
}

/// Drives `k` instances of an inner protocol as one multiplexed state
/// machine.
///
/// Instance `i` of the vector is addressed as [`InstanceId`]`(i)`. Every
/// envelope the instances emit during one `start()`/`on_message()` step is
/// coalesced into at most one batched envelope per destination, so a
/// transport that charges per message (the simulator) or per frame
/// (`delphi-net`) pays its overhead once per step per peer instead of once
/// per instance.
///
/// The combined output is the vector of instance outputs, available once
/// every instance has produced one.
///
/// # Example
///
/// Two trivial echo-counting instances multiplexed over a 2-node mesh:
///
/// ```
/// use bytes::Bytes;
/// use delphi_primitives::{mux::Mux, Envelope, NodeId, Protocol};
///
/// struct Ping { id: NodeId, got: usize }
/// impl Protocol for Ping {
///     type Output = usize;
///     fn node_id(&self) -> NodeId { self.id }
///     fn n(&self) -> usize { 2 }
///     fn start(&mut self) -> Vec<Envelope> {
///         vec![Envelope::to_all(Bytes::from_static(b"ping"))]
///     }
///     fn on_message(&mut self, _: NodeId, p: &[u8]) -> Vec<Envelope> {
///         if p == b"ping" { self.got += 1; }
///         Vec::new()
///     }
///     fn output(&self) -> Option<usize> { (self.got >= 1).then_some(self.got) }
/// }
///
/// let mut a = Mux::new(vec![
///     Ping { id: NodeId(0), got: 0 },
///     Ping { id: NodeId(0), got: 0 },
/// ]);
/// let mut b = Mux::new(vec![
///     Ping { id: NodeId(1), got: 0 },
///     Ping { id: NodeId(1), got: 0 },
/// ]);
/// // Both instances' pings share one envelope per destination.
/// let out = a.start();
/// assert_eq!(out.len(), 1);
/// b.start();
/// b.on_message(NodeId(0), &out[0].payload);
/// assert_eq!(b.output(), Some(vec![1, 1]));
/// ```
#[derive(Debug)]
pub struct Mux<P> {
    instances: Vec<P>,
}

impl<P: Protocol> Mux<P> {
    /// Wraps `instances` (instance `i` becomes [`InstanceId`]`(i)`).
    ///
    /// # Panics
    ///
    /// Panics if `instances` is empty, holds more than `u16::MAX + 1`
    /// instances, or the instances disagree on node identity or system
    /// size.
    pub fn new(instances: Vec<P>) -> Mux<P> {
        assert!(!instances.is_empty(), "mux needs at least one instance");
        assert!(instances.len() <= usize::from(u16::MAX) + 1, "instance ids are u16");
        let (me, n) = (instances[0].node_id(), instances[0].n());
        for p in &instances {
            assert_eq!(p.node_id(), me, "instances disagree on node id");
            assert_eq!(p.n(), n, "instances disagree on system size");
        }
        Mux { instances }
    }

    /// The multiplexed instances, in id order.
    pub fn instances(&self) -> &[P] {
        &self.instances
    }

    /// Coalesces per-instance envelope bursts into one batched envelope per
    /// destination.
    fn coalesce(&self, bursts: Vec<(InstanceId, Vec<Envelope>)>) -> Vec<Envelope> {
        route_bursts(bursts, self.n(), self.node_id())
            .into_iter()
            .enumerate()
            .filter(|(_, entries)| !entries.is_empty())
            .map(|(dest, entries)| Envelope::to_one(NodeId(dest as u16), encode_batch(&entries)))
            .collect()
    }
}

impl<P: Protocol> Protocol for Mux<P> {
    type Output = Vec<P::Output>;

    fn node_id(&self) -> NodeId {
        self.instances[0].node_id()
    }

    fn n(&self) -> usize {
        self.instances[0].n()
    }

    fn start(&mut self) -> Vec<Envelope> {
        let bursts: Vec<_> = self
            .instances
            .iter_mut()
            .enumerate()
            .map(|(i, p)| (InstanceId(i as u16), p.start()))
            .collect();
        self.coalesce(bursts)
    }

    fn on_message(&mut self, from: NodeId, payload: &[u8]) -> Vec<Envelope> {
        // Borrowed decode: entries are slices into `payload`, validated up
        // front and handed to the instances without a single allocation.
        let Ok(entries) = decode_batch_ref(payload) else {
            return Vec::new(); // malformed batch: ignore, never panic
        };
        let mut bursts = Vec::new();
        for (instance, entry) in entries.iter() {
            let Some(p) = self.instances.get_mut(instance.index()) else {
                continue; // unknown instance: ignore the entry
            };
            bursts.push((instance, p.on_message(from, entry)));
        }
        self.coalesce(bursts)
    }

    fn output(&self) -> Option<Vec<P::Output>> {
        self.instances.iter().map(|p| p.output()).collect()
    }

    fn is_finished(&self) -> bool {
        self.instances.iter().all(|p| p.is_finished())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_roundtrip() {
        let entries = vec![
            (InstanceId(0), Bytes::from_static(b"alpha")),
            (InstanceId(7), Bytes::from_static(b"")),
            (InstanceId(65535), Bytes::from_static(b"omega")),
        ];
        let encoded = encode_batch(&entries);
        assert_eq!(encoded.len(), batch_len([5, 0, 5]));
        assert_eq!(decode_batch(&encoded).unwrap(), entries);
    }

    #[test]
    fn empty_batch_roundtrips() {
        let encoded = encode_batch(&[]);
        assert_eq!(encoded.len(), BATCH_COUNT_BYTES);
        assert_eq!(decode_batch(&encoded).unwrap(), Vec::new());
    }

    #[test]
    fn truncated_batches_rejected() {
        let encoded = encode_batch(&[(InstanceId(1), Bytes::from_static(b"payload"))]);
        assert_eq!(decode_batch(&[]), Err(WireError::Truncated));
        for cut in 1..encoded.len() {
            let err = decode_batch(&encoded[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated | WireError::LengthOutOfBounds),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn oversized_entry_length_rejected() {
        // Declares a 100-byte entry with 3 bytes available.
        let mut bad = vec![0, 1, 0, 0, 0, 0, 0, 100];
        bad.extend_from_slice(b"abc");
        assert_eq!(decode_batch(&bad), Err(WireError::LengthOutOfBounds));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut encoded = encode_batch(&[(InstanceId(0), Bytes::from_static(b"x"))]).to_vec();
        encoded.push(0xee);
        assert_eq!(decode_batch(&encoded), Err(WireError::TrailingBytes));
    }

    #[test]
    fn huge_declared_count_with_no_entries_rejected_without_allocation() {
        // count = u16::MAX but no entry bytes: must fail fast, not allocate
        // 65 535 slots up front.
        assert_eq!(decode_batch(&[0xff, 0xff]), Err(WireError::Truncated));
        assert_eq!(decode_batch_ref(&[0xff, 0xff]).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn borrowed_batch_view_matches_owned_decoder() {
        let entries = vec![
            (InstanceId(0), Bytes::from_static(b"alpha")),
            (InstanceId(7), Bytes::from_static(b"")),
            (InstanceId(65535), Bytes::from_static(b"omega")),
        ];
        let encoded = encode_batch(&entries);
        let view = decode_batch_ref(&encoded).unwrap();
        assert_eq!(view.len(), 3);
        assert!(!view.is_empty());
        assert_eq!(view.to_owned_entries(), entries);
        let borrowed: Vec<(InstanceId, &[u8])> = view.iter().collect();
        assert_eq!(borrowed[0], (InstanceId(0), &b"alpha"[..]));
        assert_eq!(view.iter().size_hint(), (3, Some(3)));
        // Empty batches too.
        let empty = encode_batch(&[]);
        assert!(decode_batch_ref(&empty).unwrap().is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Round-trip equivalence: the borrowed view materializes exactly
        /// what the owned decoder produces, on arbitrary batches.
        #[test]
        fn prop_borrowed_batch_roundtrip_equivalence(
            entries in proptest::collection::vec(
                (proptest::prelude::any::<u16>(),
                 proptest::collection::vec(proptest::prelude::any::<u8>(), 0..24)),
                0..12,
            )
        ) {
            let entries: Vec<(InstanceId, Bytes)> = entries
                .into_iter()
                .map(|(id, p)| (InstanceId(id), Bytes::from(p)))
                .collect();
            let encoded = encode_batch(&entries);
            let owned = decode_batch(&encoded).unwrap();
            let view = decode_batch_ref(&encoded).unwrap();
            proptest::prop_assert_eq!(view.to_owned_entries(), owned);
        }

        /// Error equivalence: truncations and arbitrary garbage must fail
        /// (or pass) identically in both decoders.
        #[test]
        fn prop_borrowed_batch_error_equivalence(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
            cut in 0usize..64,
        ) {
            let owned = decode_batch(&bytes);
            let borrowed = decode_batch_ref(&bytes).map(|v| v.to_owned_entries());
            proptest::prop_assert_eq!(owned, borrowed);
            // Also on a truncated prefix of the same input.
            let cut = cut.min(bytes.len());
            let owned = decode_batch(&bytes[..cut]);
            let borrowed = decode_batch_ref(&bytes[..cut]).map(|v| v.to_owned_entries());
            proptest::prop_assert_eq!(owned, borrowed);
        }
    }

    /// Broadcasts `rounds` numbered waves, one per message wave received.
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
            vec![Envelope::to_all(Bytes::from_static(b"w"))]
        }
        fn on_message(&mut self, _: NodeId, _: &[u8]) -> Vec<Envelope> {
            self.seen += 1;
            if self.seen % (self.n - 1) == 0 && self.sent < self.rounds {
                self.sent += 1;
                vec![Envelope::to_all(Bytes::from_static(b"w"))]
            } else {
                Vec::new()
            }
        }
        fn output(&self) -> Option<usize> {
            (self.seen >= usize::from(self.rounds) * (self.n - 1)).then_some(self.seen)
        }
    }

    fn mux_nodes(n: usize, k: usize, rounds: u8) -> Vec<Mux<Wave>> {
        NodeId::all(n)
            .map(|id| Mux::new((0..k).map(|_| Wave::new(id, n, rounds)).collect()))
            .collect()
    }

    /// Hand-delivers envelopes until quiescence; returns messages delivered.
    fn run_mesh(nodes: &mut [Mux<Wave>]) -> usize {
        let mut queue: std::collections::VecDeque<(NodeId, NodeId, Bytes)> =
            std::collections::VecDeque::new();
        for (i, node) in nodes.iter_mut().enumerate() {
            let from = NodeId(i as u16);
            for env in node.start() {
                let Recipient::One(dest) = env.to else { panic!("mux emits to_one") };
                queue.push_back((from, dest, env.payload));
            }
        }
        let mut delivered = 0;
        while let Some((from, to, payload)) = queue.pop_front() {
            delivered += 1;
            for env in nodes[to.index()].on_message(from, &payload) {
                let Recipient::One(dest) = env.to else { panic!("mux emits to_one") };
                queue.push_back((to, dest, env.payload));
            }
        }
        delivered
    }

    #[test]
    fn mux_coalesces_instances_into_one_message_per_destination() {
        let n = 4;
        let k = 3;
        let mut nodes = mux_nodes(n, k, 2);
        let delivered = run_mesh(&mut nodes);
        for node in &nodes {
            assert_eq!(node.output(), Some(vec![6, 6, 6]));
            assert!(node.is_finished());
        }
        // Unmultiplexed, 3 instances × 2 waves × 4 nodes × 3 peers = 72
        // messages; the mux coalesces the k instances' simultaneous waves.
        assert_eq!(delivered, 24, "one batched message per step per peer");
    }

    #[test]
    fn mux_ignores_malformed_and_unknown_instance_entries() {
        let mut node = Mux::new(vec![Wave::new(NodeId(0), 2, 1)]);
        node.start();
        assert!(node.on_message(NodeId(1), b"\xff\xff\xff").is_empty(), "garbage ignored");
        // A valid batch addressed to a nonexistent instance is ignored too.
        let foreign = encode_batch(&[(InstanceId(9), Bytes::from_static(b"w"))]);
        assert!(node.on_message(NodeId(1), &foreign).is_empty());
        assert_eq!(node.output(), None, "unknown-instance entry must not advance state");
    }

    #[test]
    fn mux_routes_point_to_point_entries() {
        /// Sends instance-distinct payloads to node 1 only.
        struct OneShot {
            id: NodeId,
            tag: u8,
            got: Option<u8>,
        }
        impl Protocol for OneShot {
            type Output = u8;
            fn node_id(&self) -> NodeId {
                self.id
            }
            fn n(&self) -> usize {
                3
            }
            fn start(&mut self) -> Vec<Envelope> {
                if self.id == NodeId(0) {
                    vec![Envelope::to_one(NodeId(1), Bytes::copy_from_slice(&[self.tag]))]
                } else {
                    Vec::new()
                }
            }
            fn on_message(&mut self, _: NodeId, p: &[u8]) -> Vec<Envelope> {
                self.got = Some(p[0]);
                Vec::new()
            }
            fn output(&self) -> Option<u8> {
                self.got
            }
        }
        let mut sender = Mux::new(vec![
            OneShot { id: NodeId(0), tag: 10, got: None },
            OneShot { id: NodeId(0), tag: 20, got: None },
        ]);
        let mut receiver = Mux::new(vec![
            OneShot { id: NodeId(1), tag: 0, got: None },
            OneShot { id: NodeId(1), tag: 0, got: None },
        ]);
        let out = sender.start();
        assert_eq!(out.len(), 1, "both point-to-point entries share one envelope");
        assert_eq!(out[0].to, Recipient::One(NodeId(1)));
        receiver.start();
        receiver.on_message(NodeId(0), &out[0].payload);
        assert_eq!(receiver.output(), Some(vec![10, 20]), "entries routed per instance");
    }

    #[test]
    #[should_panic(expected = "disagree on node id")]
    fn mux_rejects_mismatched_identities() {
        let _ = Mux::new(vec![Wave::new(NodeId(0), 2, 1), Wave::new(NodeId(1), 2, 1)]);
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn mux_rejects_empty_instance_list() {
        let _: Mux<Wave> = Mux::new(Vec::new());
    }
}
