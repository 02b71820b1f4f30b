//! Authenticated wire frames (v1 single-payload and v2 batched).
//!
//! Both formats share the outer layout (all integers big-endian):
//!
//! ```text
//! [u32 rest_len][body ...]
//! ```
//!
//! where `rest_len` counts everything after the length word, and the body
//! ends in a 32-byte HMAC tag over everything before it, keyed by the
//! pairwise channel key of (claimed sender, receiver). A frame is therefore
//! bound to its claimed sender *and* to the receiving channel: replaying it
//! to a different receiver fails verification.
//!
//! **v1 (single payload)** — one protocol message per frame:
//!
//! ```text
//! [u16 sender][payload ...][32-byte tag]
//! ```
//!
//! **v2 (batched)** — every envelope queued for the same peer in one
//! protocol step shares one frame and one tag. The body opens with the
//! reserved marker [`BATCH_MARKER`] (`0xFFFF`, never a valid v1 sender id
//! because node ids are `u16` and a 65 536-node deployment is
//! unrepresentable), and carries a sequence of `(instance, payload)`
//! entries in the [`delphi_primitives::mux`] batch codec:
//!
//! ```text
//! [u16 0xFFFF][u16 sender][u16 count][count × (u16 instance)(u32 len)(bytes)][32-byte tag]
//! ```
//!
//! The two formats cannot be confused: the MAC input of a v1 frame starts
//! with a valid sender id while a v2 frame's starts with the reserved
//! marker, so a tag computed for one format never verifies as the other.
//!
//! # Size bounds
//!
//! A valid body is at least [`MIN_FRAME_BODY`] bytes (sender + tag) and at
//! most [`MAX_FRAME_BODY`] bytes (sender + [`MAX_FRAME_PAYLOAD`] + tag);
//! the socket reader and the decoders enforce the *same* bounds, so every
//! body the reader allocates for is decodable in principle.
//!
//! # Byte accounting
//!
//! A v1 frame adds 4 + 2 + 32 = 38 bytes to its payload, which together
//! with the 2-byte protocol tag inside every payload matches the
//! simulator's [`WIRE_OVERHEAD_BYTES`](delphi_sim::WIRE_OVERHEAD_BYTES)
//! budget of 40 bytes per message. A v2 frame with `k` entries costs
//! [`BATCH_FRAME_OVERHEAD_BYTES`] once plus
//! [`BATCH_ENTRY_OVERHEAD_BYTES`] per entry — exactly what a simulated
//! [`Mux`](delphi_primitives::Mux) message costs (its batch payload plus
//! `WIRE_OVERHEAD_BYTES`), which is what keeps simulated batched bandwidth
//! equal to TCP batched bandwidth.

use std::error::Error;
use std::fmt;

use bytes::{BufMut, Bytes, BytesMut};
use delphi_crypto::{Keychain, TAG_LEN};
use delphi_primitives::epoch::{
    decode_epoch_batch_ref, epoch_batch_len, put_epoch_batch, EpochEntriesRef, EpochEntryIter,
    EPOCH_COUNT_BYTES,
};
use delphi_primitives::mux::{
    batch_len, decode_batch_ref, put_batch, BatchEntriesRef, BatchEntryIter, BATCH_COUNT_BYTES,
};
use delphi_primitives::{AgreementId, InstanceId, NodeId};

/// Maximum payload bytes accepted in one frame (16 MiB). For batched
/// frames the bound applies to the whole entry sequence.
pub const MAX_FRAME_PAYLOAD: usize = 16 * 1024 * 1024;

/// Smallest valid frame body: a v1 frame with an empty payload.
pub const MIN_FRAME_BODY: usize = 2 + TAG_LEN;

/// Largest valid frame body: a v1 frame with a [`MAX_FRAME_PAYLOAD`]-byte
/// payload (batched bodies fit the same bound by construction).
pub const MAX_FRAME_BODY: usize = 2 + MAX_FRAME_PAYLOAD + TAG_LEN;

/// Reserved leading `u16` distinguishing v2 batched bodies from v1 sender
/// ids.
pub const BATCH_MARKER: u16 = 0xFFFF;

/// Reserved leading `u16` distinguishing v3 epoch bodies from v1 sender
/// ids and the v2 marker. Like [`BATCH_MARKER`], never a valid sender: a
/// 65 535-node deployment is unrepresentable.
pub const EPOCH_MARKER: u16 = 0xFFFE;

/// Wire bytes a batched frame costs beyond its entries: length word,
/// marker, sender, entry count, and tag.
pub const BATCH_FRAME_OVERHEAD_BYTES: usize = 4 + 2 + 2 + BATCH_COUNT_BYTES + TAG_LEN;

/// Wire bytes an epoch frame costs beyond its entries — identical to the
/// v2 overhead (the codecs share the count width), which is what keeps
/// simulated epoch-stream bandwidth equal to TCP epoch-stream bandwidth.
pub const EPOCH_FRAME_OVERHEAD_BYTES: usize = 4 + 2 + 2 + EPOCH_COUNT_BYTES + TAG_LEN;

pub use delphi_primitives::epoch::EPOCH_ENTRY_OVERHEAD_BYTES;
pub use delphi_primitives::mux::BATCH_ENTRY_OVERHEAD_BYTES;

/// Frame decoding / authentication failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The frame is shorter than the fixed header + tag.
    Truncated,
    /// The body exceeds [`MAX_FRAME_BODY`].
    TooLarge,
    /// The sender id is outside the deployment.
    UnknownSender,
    /// The HMAC tag did not verify.
    BadTag,
    /// The frame authenticated but its batch entries are malformed
    /// (truncated entry, length overrun, or trailing bytes).
    Malformed,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::TooLarge => write!(f, "frame exceeds maximum payload"),
            FrameError::UnknownSender => write!(f, "frame sender unknown"),
            FrameError::BadTag => write!(f, "frame authentication failed"),
            FrameError::Malformed => write!(f, "frame batch entries malformed"),
        }
    }
}

impl Error for FrameError {}

/// Encodes a v1 authenticated frame from `keychain.node_id()` to `to`.
///
/// The result includes the leading length word and is ready to write to a
/// socket.
pub fn encode_frame(keychain: &Keychain, to: NodeId, payload: &[u8]) -> Bytes {
    assert!(payload.len() <= MAX_FRAME_PAYLOAD, "payload exceeds MAX_FRAME_PAYLOAD");
    let me = keychain.node_id();
    let sender_be = me.0.to_be_bytes();
    let tag = keychain.channel(to).tag_segments(&[&sender_be, payload]);
    let rest_len = 2 + payload.len() + TAG_LEN;
    let mut buf = BytesMut::with_capacity(4 + rest_len);
    buf.put_u32(rest_len as u32);
    buf.put_u16(me.0);
    buf.put_slice(payload);
    buf.put_slice(&tag);
    buf.freeze()
}

/// Builds a marked (v2/v3) frame in one buffer: header, then the batch
/// (`batch_len` bytes, written by `put_batch`) straight into the frame,
/// then the tag over everything after the length word.
fn encode_marked_frame(
    keychain: &Keychain,
    to: NodeId,
    marker: u16,
    batch_len: usize,
    put_batch: impl FnOnce(&mut BytesMut),
) -> Bytes {
    assert!(2 + batch_len <= MAX_FRAME_PAYLOAD, "batched entries exceed MAX_FRAME_PAYLOAD");
    let rest_len = 2 + 2 + batch_len + TAG_LEN;
    let mut buf = BytesMut::with_capacity(4 + rest_len);
    buf.put_u32(rest_len as u32);
    buf.put_u16(marker);
    buf.put_u16(keychain.node_id().0);
    put_batch(&mut buf);
    debug_assert_eq!(buf.len() + TAG_LEN, 4 + rest_len, "batch_len is the batch's length");
    let (_, signed) = buf.split_at(4);
    let tag = keychain.channel(to).tag(signed);
    buf.put_slice(&tag);
    buf.freeze()
}

/// Encodes a v2 batched frame carrying `entries` from
/// `keychain.node_id()` to `to`.
///
/// One tag authenticates the whole sequence, so framing + MAC cost is paid
/// once per batch instead of once per envelope.
///
/// # Panics
///
/// Panics if the encoded entry sequence exceeds [`MAX_FRAME_PAYLOAD`]
/// (unreachable for protocol-sized envelopes) or `entries` is empty.
pub fn encode_batch_frame(
    keychain: &Keychain,
    to: NodeId,
    entries: &[(InstanceId, Bytes)],
) -> Bytes {
    assert!(!entries.is_empty(), "batch frames carry at least one entry");
    let len = batch_len(entries.iter().map(|(_, p)| p.len()));
    encode_marked_frame(keychain, to, BATCH_MARKER, len, |buf| put_batch(entries, buf))
}

/// Decodes and authenticates one **v1** frame body (everything *after* the
/// length word) arriving at `keychain.node_id()`.
///
/// Kept for single-instance callers; batched bodies fail here with
/// [`FrameError::UnknownSender`] (their marker is not a valid sender).
/// Transports that speak both formats use [`decode_any_frame`].
///
/// # Errors
///
/// Returns a [`FrameError`] on malformed, oversized, or forged frames;
/// callers drop such frames.
pub fn decode_frame(keychain: &Keychain, body: &[u8]) -> Result<(NodeId, Bytes), FrameError> {
    if body.len() < MIN_FRAME_BODY {
        return Err(FrameError::Truncated);
    }
    if body.len() > MAX_FRAME_BODY {
        return Err(FrameError::TooLarge);
    }
    let sender = NodeId(u16::from_be_bytes([body[0], body[1]]));
    if sender.index() >= keychain.n() {
        return Err(FrameError::UnknownSender);
    }
    let signed = &body[..body.len() - TAG_LEN];
    let tag = &body[body.len() - TAG_LEN..];
    if keychain.channel(sender).verify(signed, tag).is_err() {
        return Err(FrameError::BadTag);
    }
    Ok((sender, Bytes::copy_from_slice(&signed[2..])))
}

/// Encodes a v3 epoch frame carrying epoch-addressed `entries` from
/// `keychain.node_id()` to `to`.
///
/// The body is `[u16 0xFFFE][u16 sender][epoch batch][32-byte tag]` where
/// the epoch batch is the [`delphi_primitives::epoch`] codec — the same
/// bytes an [`EpochProtocol`](delphi_primitives::EpochProtocol) envelope
/// carries under the simulator, so the two transports account epoch
/// traffic identically. One tag authenticates the whole batch.
///
/// # Panics
///
/// Panics if the encoded entries exceed [`MAX_FRAME_PAYLOAD`] or
/// `entries` is empty.
pub fn encode_epoch_frame(
    keychain: &Keychain,
    to: NodeId,
    entries: &[(AgreementId, Bytes)],
) -> Bytes {
    assert!(!entries.is_empty(), "epoch frames carry at least one entry");
    let len = epoch_batch_len(entries.iter().map(|(_, p)| p.len()));
    encode_marked_frame(keychain, to, EPOCH_MARKER, len, |buf| put_epoch_batch(entries, buf))
}

/// Borrowed view of one decoded frame body's entries: slices into the
/// body, no per-entry allocation.
///
/// The one-shot formats surface through the same epoch-addressed
/// interface the owned decoder uses: v1/v2 entries are addressed at
/// epoch 0.
#[derive(Clone, Debug)]
pub enum FrameEntriesRef<'a> {
    /// A v1 body's single payload (decoded as `(epoch 0, SOLO)`).
    Solo(&'a [u8]),
    /// A v2 body's one-shot batch entries (decoded at epoch 0).
    Batch(BatchEntriesRef<'a>),
    /// A v3 body's epoch-addressed entries.
    Epoch(EpochEntriesRef<'a>),
}

impl<'a> FrameEntriesRef<'a> {
    /// Number of entries the frame carried.
    pub fn len(&self) -> usize {
        match self {
            FrameEntriesRef::Solo(_) => 1,
            FrameEntriesRef::Batch(b) => b.len(),
            FrameEntriesRef::Epoch(e) => e.len(),
        }
    }

    /// Whether the frame carried no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates the entries as `(agreement, payload)` borrowed slices.
    pub fn iter(&self) -> FrameEntryIter<'a> {
        match self {
            FrameEntriesRef::Solo(payload) => FrameEntryIter::Solo(Some(payload)),
            FrameEntriesRef::Batch(b) => FrameEntryIter::Batch(b.iter()),
            FrameEntriesRef::Epoch(e) => FrameEntryIter::Epoch(e.iter()),
        }
    }

    /// Materializes owned entries (the compatibility boundary).
    pub fn to_owned_entries(&self) -> Vec<(AgreementId, Bytes)> {
        self.iter().map(|(id, p)| (id, Bytes::copy_from_slice(p))).collect()
    }
}

/// Iterator behind [`FrameEntriesRef::iter`].
#[derive(Clone, Debug)]
pub enum FrameEntryIter<'a> {
    /// See [`FrameEntriesRef::Solo`].
    Solo(Option<&'a [u8]>),
    /// See [`FrameEntriesRef::Batch`].
    Batch(BatchEntryIter<'a>),
    /// See [`FrameEntriesRef::Epoch`].
    Epoch(EpochEntryIter<'a>),
}

impl<'a> Iterator for FrameEntryIter<'a> {
    type Item = (AgreementId, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            FrameEntryIter::Solo(payload) => {
                payload.take().map(|p| (AgreementId::solo(InstanceId::SOLO), p))
            }
            FrameEntryIter::Batch(iter) => {
                iter.next().map(|(asset, p)| (AgreementId::solo(asset), p))
            }
            FrameEntryIter::Epoch(iter) => iter.next(),
        }
    }
}

/// Checks the marked-body header shared by v2/v3 frames and verifies the
/// tag (skipped for the pre-verified re-split path), returning the sender
/// and the batch bytes.
fn split_marked_body<'a>(
    keychain: Option<&Keychain>,
    body: &'a [u8],
) -> Result<(NodeId, &'a [u8]), FrameError> {
    // Marker + sender + count is the minimum before the tag (the batch
    // and epoch codecs share the count width).
    if body.len() < 2 + 2 + BATCH_COUNT_BYTES + TAG_LEN {
        return Err(FrameError::Truncated);
    }
    let sender = NodeId(u16::from_be_bytes([body[2], body[3]]));
    let signed = &body[..body.len() - TAG_LEN];
    if let Some(keychain) = keychain {
        if sender.index() >= keychain.n() {
            return Err(FrameError::UnknownSender);
        }
        let tag = &body[body.len() - TAG_LEN..];
        if keychain.channel(sender).verify(signed, tag).is_err() {
            return Err(FrameError::BadTag);
        }
    }
    Ok((sender, &signed[4..]))
}

/// The zero-copy inbound decoder behind [`decode_inbound_frame`] and
/// [`split_verified_body`]: `keychain = Some` authenticates, `None`
/// re-splits a body a read loop already verified.
fn decode_inbound_ref<'a>(
    keychain: Option<&Keychain>,
    body: &'a [u8],
) -> Result<(NodeId, FrameEntriesRef<'a>), FrameError> {
    if body.len() < MIN_FRAME_BODY {
        return Err(FrameError::Truncated);
    }
    if body.len() > MAX_FRAME_BODY {
        return Err(FrameError::TooLarge);
    }
    match u16::from_be_bytes([body[0], body[1]]) {
        EPOCH_MARKER => {
            let (sender, batch) = split_marked_body(keychain, body)?;
            let entries = decode_epoch_batch_ref(batch).map_err(|_| FrameError::Malformed)?;
            Ok((sender, FrameEntriesRef::Epoch(entries)))
        }
        BATCH_MARKER => {
            let (sender, batch) = split_marked_body(keychain, body)?;
            let entries = decode_batch_ref(batch).map_err(|_| FrameError::Malformed)?;
            Ok((sender, FrameEntriesRef::Batch(entries)))
        }
        _ => {
            // v1: sender + payload + tag.
            let sender = NodeId(u16::from_be_bytes([body[0], body[1]]));
            let signed = &body[..body.len() - TAG_LEN];
            if let Some(keychain) = keychain {
                if sender.index() >= keychain.n() {
                    return Err(FrameError::UnknownSender);
                }
                let tag = &body[body.len() - TAG_LEN..];
                if keychain.channel(sender).verify(signed, tag).is_err() {
                    return Err(FrameError::BadTag);
                }
            }
            Ok((sender, FrameEntriesRef::Solo(&signed[2..])))
        }
    }
}

/// Decodes and authenticates one frame body of **any** format — v1, v2,
/// or v3 — returning the sender and a borrowed view of its entries: the
/// zero-copy decoder the transport read loop uses. The frame is verified,
/// validated, and split without allocating.
///
/// # Errors
///
/// Returns a [`FrameError`] on malformed, oversized, or forged frames;
/// callers drop such frames.
pub fn decode_inbound_frame_ref<'a>(
    keychain: &Keychain,
    body: &'a [u8],
) -> Result<(NodeId, FrameEntriesRef<'a>), FrameError> {
    decode_inbound_ref(Some(keychain), body)
}

/// Re-splits a frame body that an earlier [`decode_inbound_frame_ref`]
/// already authenticated and validated — structure checks only, **no MAC
/// work** — so sharded dispatch workers can walk a verified body's
/// entries without paying the tag again.
///
/// # Errors
///
/// Structural [`FrameError`]s only; unreachable for bodies that passed
/// verification.
pub fn split_verified_body(body: &[u8]) -> Result<(NodeId, FrameEntriesRef<'_>), FrameError> {
    decode_inbound_ref(None, body)
}

/// Decodes and authenticates one frame body of **any** format — v1, v2,
/// or v3 — returning the sender and owned epoch-addressed entries.
///
/// Owned sibling of [`decode_inbound_frame_ref`], kept for callers whose
/// entries must outlive the body. v1/v2 entries decode at
/// [`EpochId::FIRST`](delphi_primitives::EpochId::FIRST): one-shot runs
/// are exactly epoch 0 of a stream.
///
/// # Errors
///
/// Returns a [`FrameError`] on malformed, oversized, or forged frames;
/// callers drop such frames.
pub fn decode_inbound_frame(
    keychain: &Keychain,
    body: &[u8],
) -> Result<(NodeId, Vec<(AgreementId, Bytes)>), FrameError> {
    let (sender, entries) = decode_inbound_frame_ref(keychain, body)?;
    Ok((sender, entries.to_owned_entries()))
}

/// Decodes and authenticates one frame body of **either** one-shot format
/// (v1 or v2), returning the sender and the `(instance, payload)` entries
/// it carried.
///
/// v1 bodies decode to a single entry addressed to
/// [`InstanceId::SOLO`]. Authentication precedes batch parsing: entries of
/// a forged frame are never inspected. Epoch (v3) bodies fail here with
/// [`FrameError::UnknownSender`] (their marker is not a valid sender);
/// transports that speak all formats use [`decode_inbound_frame`].
///
/// # Errors
///
/// Returns a [`FrameError`] on malformed, oversized, or forged frames;
/// callers drop such frames.
pub fn decode_any_frame(
    keychain: &Keychain,
    body: &[u8],
) -> Result<(NodeId, Vec<(InstanceId, Bytes)>), FrameError> {
    if body.len() < MIN_FRAME_BODY {
        return Err(FrameError::Truncated);
    }
    if body.len() > MAX_FRAME_BODY {
        return Err(FrameError::TooLarge);
    }
    if u16::from_be_bytes([body[0], body[1]]) != BATCH_MARKER {
        let (sender, payload) = decode_frame(keychain, body)?;
        return Ok((sender, vec![(InstanceId::SOLO, payload)]));
    }
    // Batched body: marker + sender + count is the minimum before the tag.
    if body.len() < 2 + 2 + BATCH_COUNT_BYTES + TAG_LEN {
        return Err(FrameError::Truncated);
    }
    let sender = NodeId(u16::from_be_bytes([body[2], body[3]]));
    if sender.index() >= keychain.n() {
        return Err(FrameError::UnknownSender);
    }
    let signed = &body[..body.len() - TAG_LEN];
    let tag = &body[body.len() - TAG_LEN..];
    if keychain.channel(sender).verify(signed, tag).is_err() {
        return Err(FrameError::BadTag);
    }
    let entries = decode_batch_ref(&signed[4..]).map_err(|_| FrameError::Malformed)?;
    Ok((sender, entries.to_owned_entries()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use delphi_primitives::mux::encode_batch;

    fn pair() -> (Keychain, Keychain) {
        (Keychain::derive(b"seed", NodeId(0), 3), Keychain::derive(b"seed", NodeId(1), 3))
    }

    fn entries(payloads: &[&'static [u8]]) -> Vec<(InstanceId, Bytes)> {
        payloads
            .iter()
            .enumerate()
            .map(|(i, p)| (InstanceId(i as u16), Bytes::from_static(p)))
            .collect()
    }

    #[test]
    fn roundtrip() {
        let (alice, bob) = pair();
        let frame = encode_frame(&alice, NodeId(1), b"hello");
        // Strip the length word, as the reader does.
        let len = u32::from_be_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(len, frame.len() - 4);
        let (sender, payload) = decode_frame(&bob, &frame[4..]).unwrap();
        assert_eq!(sender, NodeId(0));
        assert_eq!(&payload[..], b"hello");
    }

    #[test]
    fn batch_roundtrip() {
        let (alice, bob) = pair();
        let sent = entries(&[b"alpha", b"", b"gamma"]);
        let frame = encode_batch_frame(&alice, NodeId(1), &sent);
        let len = u32::from_be_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(len, frame.len() - 4);
        let (sender, got) = decode_any_frame(&bob, &frame[4..]).unwrap();
        assert_eq!(sender, NodeId(0));
        assert_eq!(got, sent);
    }

    #[test]
    fn batch_overhead_accounting() {
        let (alice, _) = pair();
        let sent = entries(&[b"12345", b"123"]);
        let frame = encode_batch_frame(&alice, NodeId(1), &sent);
        assert_eq!(
            frame.len(),
            BATCH_FRAME_OVERHEAD_BYTES + 2 * BATCH_ENTRY_OVERHEAD_BYTES + 5 + 3
        );
    }

    #[test]
    fn batched_wire_accounting_matches_simulator() {
        // A Mux envelope carries the batch payload and the simulator
        // charges it WIRE_OVERHEAD_BYTES; the TCP batch frame must cost
        // exactly the same, so simulated batched bandwidth equals real
        // batched bandwidth.
        let (alice, _) = pair();
        for payloads in [&[&b"x"[..]][..], &[&b"alpha"[..], &b""[..], &b"a-longer-payload"[..]][..]]
        {
            let sent = entries(payloads);
            let frame = encode_batch_frame(&alice, NodeId(1), &sent);
            let batch_payload = encode_batch(&sent);
            assert_eq!(frame.len(), delphi_sim::WIRE_OVERHEAD_BYTES + batch_payload.len());
        }
        assert_eq!(BATCH_FRAME_OVERHEAD_BYTES, delphi_sim::WIRE_OVERHEAD_BYTES + BATCH_COUNT_BYTES);
    }

    #[test]
    fn v1_frame_decodes_as_solo_entry_via_any() {
        let (alice, bob) = pair();
        let frame = encode_frame(&alice, NodeId(1), b"hello");
        let (sender, got) = decode_any_frame(&bob, &frame[4..]).unwrap();
        assert_eq!(sender, NodeId(0));
        assert_eq!(got, vec![(InstanceId::SOLO, Bytes::from_static(b"hello"))]);
    }

    #[test]
    fn batch_frame_rejected_by_v1_decoder() {
        // The marker is not a valid sender, so a v1-only receiver drops
        // batched frames instead of misparsing them.
        let (alice, bob) = pair();
        let frame = encode_batch_frame(&alice, NodeId(1), &entries(&[b"x"]));
        assert_eq!(decode_frame(&bob, &frame[4..]), Err(FrameError::UnknownSender));
    }

    #[test]
    fn tampered_payload_rejected() {
        let (alice, bob) = pair();
        let frame = encode_frame(&alice, NodeId(1), b"hello");
        let mut body = frame[4..].to_vec();
        body[3] ^= 1; // flip a payload bit
        assert_eq!(decode_frame(&bob, &body), Err(FrameError::BadTag));
    }

    #[test]
    fn tampered_batch_rejected() {
        let (alice, bob) = pair();
        let frame = encode_batch_frame(&alice, NodeId(1), &entries(&[b"hello", b"world"]));
        for idx in [2usize, 5, 12] {
            let mut body = frame[4..].to_vec();
            body[idx] ^= 1;
            let err = decode_any_frame(&bob, &body).unwrap_err();
            assert!(
                matches!(err, FrameError::BadTag | FrameError::UnknownSender),
                "flip at {idx}: {err:?}"
            );
        }
    }

    #[test]
    fn forged_sender_rejected() {
        let (alice, bob) = pair();
        let frame = encode_frame(&alice, NodeId(1), b"hello");
        let mut body = frame[4..].to_vec();
        body[1] = 2; // claim sender 2
        assert_eq!(decode_frame(&bob, &body), Err(FrameError::BadTag));
    }

    #[test]
    fn misdirected_frame_rejected() {
        // A frame addressed to node 1 replayed at node 2 fails: the tag
        // is under key (0,1), not (0,2).
        let (alice, _) = pair();
        let carol = Keychain::derive(b"seed", NodeId(2), 3);
        let frame = encode_frame(&alice, NodeId(1), b"hello");
        assert_eq!(decode_frame(&carol, &frame[4..]), Err(FrameError::BadTag));
        let batch = encode_batch_frame(&alice, NodeId(1), &entries(&[b"hello"]));
        assert_eq!(decode_any_frame(&carol, &batch[4..]), Err(FrameError::BadTag));
    }

    #[test]
    fn unknown_sender_rejected() {
        let (_, bob) = pair();
        let mut body = vec![0xff, 0xfe]; // sender 65534
        body.extend_from_slice(&[0u8; TAG_LEN]);
        assert_eq!(decode_frame(&bob, &body), Err(FrameError::UnknownSender));
        // Batched body claiming an out-of-range sender.
        let mut body = vec![0xff, 0xff, 0xff, 0xfe, 0, 0];
        body.extend_from_slice(&[0u8; TAG_LEN]);
        assert_eq!(decode_any_frame(&bob, &body), Err(FrameError::UnknownSender));
    }

    #[test]
    fn authenticated_but_malformed_batch_rejected() {
        // A correctly tagged body whose entry bytes are garbage must fail
        // *after* authentication with Malformed, not panic.
        let (alice, bob) = pair();
        let mut signed = Vec::new();
        signed.extend_from_slice(&BATCH_MARKER.to_be_bytes());
        signed.extend_from_slice(&0u16.to_be_bytes()); // sender 0
        signed.extend_from_slice(&[0, 2, 0, 0]); // count=2 but one bogus entry
        let tag = alice.channel(NodeId(1)).tag(&signed);
        signed.extend_from_slice(&tag);
        assert_eq!(decode_any_frame(&bob, &signed), Err(FrameError::Malformed));
    }

    #[test]
    fn size_bounds_hit_each_edge() {
        let (alice, bob) = pair();
        // One byte below the minimum body: truncated.
        let body = vec![0u8; MIN_FRAME_BODY - 1];
        assert_eq!(decode_frame(&bob, &body), Err(FrameError::Truncated));
        assert_eq!(decode_any_frame(&bob, &body), Err(FrameError::Truncated));
        // Exactly the minimum body: a v1 frame with an empty payload.
        let frame = encode_frame(&alice, NodeId(1), b"");
        assert_eq!(frame.len() - 4, MIN_FRAME_BODY);
        assert!(decode_frame(&bob, &frame[4..]).is_ok());
        // One byte above the maximum body: too large, rejected before any
        // MAC work.
        let body = vec![0u8; MAX_FRAME_BODY + 1];
        assert_eq!(decode_frame(&bob, &body), Err(FrameError::TooLarge));
        assert_eq!(decode_any_frame(&bob, &body), Err(FrameError::TooLarge));
    }

    #[test]
    fn max_body_bound_admits_max_payload() {
        // MAX_FRAME_BODY is exactly a v1 body carrying MAX_FRAME_PAYLOAD.
        assert_eq!(MAX_FRAME_BODY, MIN_FRAME_BODY + MAX_FRAME_PAYLOAD);
    }

    #[test]
    fn empty_payload_is_fine() {
        let (alice, bob) = pair();
        let frame = encode_frame(&alice, NodeId(1), b"");
        let (sender, payload) = decode_frame(&bob, &frame[4..]).unwrap();
        assert_eq!(sender, NodeId(0));
        assert!(payload.is_empty());
    }

    fn epoch_entries(payloads: &[&'static [u8]]) -> Vec<(AgreementId, Bytes)> {
        use delphi_primitives::EpochId;
        payloads
            .iter()
            .enumerate()
            .map(|(i, p)| {
                (
                    AgreementId::new(EpochId(100 + i as u32), InstanceId(i as u16)),
                    Bytes::from_static(p),
                )
            })
            .collect()
    }

    #[test]
    fn epoch_frame_roundtrip() {
        let (alice, bob) = pair();
        let sent = epoch_entries(&[b"alpha", b"", b"gamma"]);
        let frame = encode_epoch_frame(&alice, NodeId(1), &sent);
        let len = u32::from_be_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(len, frame.len() - 4);
        let (sender, got) = decode_inbound_frame(&bob, &frame[4..]).unwrap();
        assert_eq!(sender, NodeId(0));
        assert_eq!(got, sent);
    }

    #[test]
    fn one_shot_frames_decode_as_epoch_zero_inbound() {
        use delphi_primitives::EpochId;
        let (alice, bob) = pair();
        let v1 = encode_frame(&alice, NodeId(1), b"hello");
        let (_, got) = decode_inbound_frame(&bob, &v1[4..]).unwrap();
        assert_eq!(got, vec![(AgreementId::solo(InstanceId::SOLO), Bytes::from_static(b"hello"))]);
        let v2 = encode_batch_frame(&alice, NodeId(1), &entries(&[b"a", b"b"]));
        let (_, got) = decode_inbound_frame(&bob, &v2[4..]).unwrap();
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|(id, _)| id.epoch == EpochId::FIRST));
        assert_eq!(got[1].0.asset, InstanceId(1));
    }

    #[test]
    fn epoch_frame_rejected_by_one_shot_decoders() {
        // The epoch marker is not a valid sender: one-shot receivers drop
        // epoch frames instead of misparsing them.
        let (alice, bob) = pair();
        let frame = encode_epoch_frame(&alice, NodeId(1), &epoch_entries(&[b"x"]));
        assert_eq!(decode_frame(&bob, &frame[4..]), Err(FrameError::UnknownSender));
        assert_eq!(decode_any_frame(&bob, &frame[4..]), Err(FrameError::UnknownSender));
    }

    #[test]
    fn tampered_and_misdirected_epoch_frames_rejected() {
        let (alice, bob) = pair();
        let frame = encode_epoch_frame(&alice, NodeId(1), &epoch_entries(&[b"hello", b"world"]));
        for idx in [2usize, 5, 12, 20] {
            let mut body = frame[4..].to_vec();
            body[idx] ^= 1;
            let err = decode_inbound_frame(&bob, &body).unwrap_err();
            assert!(
                matches!(err, FrameError::BadTag | FrameError::UnknownSender),
                "flip at {idx}: {err:?}"
            );
        }
        let carol = Keychain::derive(b"seed", NodeId(2), 3);
        assert_eq!(decode_inbound_frame(&carol, &frame[4..]), Err(FrameError::BadTag));
    }

    #[test]
    fn authenticated_but_malformed_epoch_batch_rejected() {
        let (alice, bob) = pair();
        let mut signed = Vec::new();
        signed.extend_from_slice(&EPOCH_MARKER.to_be_bytes());
        signed.extend_from_slice(&0u16.to_be_bytes()); // sender 0
        signed.extend_from_slice(&[0, 2, 0, 0]); // count=2 but garbage entries
        let tag = alice.channel(NodeId(1)).tag(&signed);
        signed.extend_from_slice(&tag);
        assert_eq!(decode_inbound_frame(&bob, &signed), Err(FrameError::Malformed));
    }

    #[test]
    fn epoch_wire_accounting_matches_simulator() {
        // An EpochProtocol envelope carries the epoch batch payload and
        // the simulator charges it WIRE_OVERHEAD_BYTES; the TCP epoch
        // frame must cost exactly the same.
        use delphi_primitives::epoch::encode_epoch_batch;
        let (alice, _) = pair();
        for payloads in [&[&b"x"[..]][..], &[&b"alpha"[..], &b""[..], &b"a-longer-payload"[..]][..]]
        {
            let sent = epoch_entries(payloads);
            let frame = encode_epoch_frame(&alice, NodeId(1), &sent);
            let batch_payload = encode_epoch_batch(&sent);
            assert_eq!(frame.len(), delphi_sim::WIRE_OVERHEAD_BYTES + batch_payload.len());
        }
        assert_eq!(EPOCH_FRAME_OVERHEAD_BYTES, delphi_sim::WIRE_OVERHEAD_BYTES + EPOCH_COUNT_BYTES);
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            FrameError::Truncated,
            FrameError::TooLarge,
            FrameError::UnknownSender,
            FrameError::BadTag,
            FrameError::Malformed,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
