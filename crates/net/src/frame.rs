//! The authenticated wire frame.
//!
//! There is one format. Every frame carries a batch of epoch-addressed
//! `(agreement, payload)` entries from one sender to one receiver (all
//! integers big-endian):
//!
//! ```text
//! [u32 rest_len][u16 0xFFFE][u16 sender][epoch batch][32-byte tag]
//! ```
//!
//! `rest_len` counts everything after the length word (the *body*). The
//! epoch batch is the [`delphi_primitives::epoch`] codec — `[u16 count]`
//! then `count` entries of `[u32 epoch][u16 asset][u32 len][len bytes]`
//! — the same bytes an [`EpochProtocol`](delphi_primitives::EpochProtocol)
//! envelope carries under the simulator. The tag is
//! `HMAC-SHA256(k_{sender,receiver}, SHA-256(signed))`, `signed` being
//! the body before it: keyed by the pairwise channel key of (claimed
//! sender, receiver), one tag authenticates the whole batch and binds the
//! frame to its claimed sender *and* to the receiving channel, so
//! replaying it to a different receiver fails verification.
//!
//! The digest is there because `signed` names no receiver: a broadcast's
//! frames share one body, which the sender hashes once, paying a 32-byte
//! HMAC (two compressions) per peer — at n = 160 one body pass instead of
//! 159. A receiver pays one compression more than plain HMAC. The price is
//! an assumption plain HMAC did not need: SHA-256 collision resistance
//! (two bodies with one digest would share every tag).
//!
//! The body opens with the reserved marker [`EPOCH_MARKER`], which is
//! never a valid sender id (a 65 535-node deployment is unrepresentable).
//! A body that opens with anything else — the retired single-payload and
//! `0xFFFF` instance-batch formats included — is rejected before any MAC
//! work ([`FrameError::UnknownFormat`]). A one-shot run is a one-epoch
//! stream: its entries are addressed at epoch 0.
//!
//! # Size bounds
//!
//! A valid body is at least [`MIN_FRAME_BODY`] bytes (marker, sender, an
//! empty batch, tag) and at most [`MAX_FRAME_BODY`] bytes (the same around
//! [`MAX_FRAME_PAYLOAD`] bytes of entries); the socket reader and the
//! decoders enforce the *same* bounds, so every body the reader allocates
//! for is decodable in principle.
//!
//! # Byte accounting
//!
//! A frame with `k` entries costs [`EPOCH_FRAME_OVERHEAD_BYTES`] once
//! plus [`EPOCH_ENTRY_OVERHEAD_BYTES`] per entry plus the payloads. The
//! simulator charges an `EpochProtocol` envelope its payload (the epoch
//! batch, count included) plus
//! [`WIRE_OVERHEAD_BYTES`](delphi_sim::WIRE_OVERHEAD_BYTES), and
//! `EPOCH_FRAME_OVERHEAD_BYTES == WIRE_OVERHEAD_BYTES + EPOCH_COUNT_BYTES`,
//! so a simulated message and its TCP frame cost exactly the same bytes.

use std::error::Error;
use std::fmt;

use bytes::{BufMut, Bytes};
use delphi_crypto::{sha256, ChannelKey, Keychain, DIGEST_LEN, TAG_LEN};
use delphi_primitives::epoch::{
    decode_epoch_batch_ref, epoch_batch_len, put_epoch_batch, EpochEntriesRef, EPOCH_COUNT_BYTES,
};
use delphi_primitives::{AgreementId, NodeId};

pub use delphi_primitives::epoch::EPOCH_ENTRY_OVERHEAD_BYTES;

/// Reserved leading `u16` of every frame body; never a valid sender id.
pub const EPOCH_MARKER: u16 = 0xFFFE;

/// Maximum bytes of batch entries (ids, length prefixes and payloads)
/// accepted in one frame (16 MiB).
pub const MAX_FRAME_PAYLOAD: usize = 16 * 1024 * 1024;

/// Smallest valid frame body: marker, sender, an empty batch, tag.
pub const MIN_FRAME_BODY: usize = 2 + 2 + EPOCH_COUNT_BYTES + TAG_LEN;

/// Largest valid frame body: [`MAX_FRAME_PAYLOAD`] bytes of entries.
pub const MAX_FRAME_BODY: usize = MIN_FRAME_BODY + MAX_FRAME_PAYLOAD;

/// Wire bytes a frame costs beyond its entries: the length word plus the
/// smallest body.
pub const EPOCH_FRAME_OVERHEAD_BYTES: usize = 4 + MIN_FRAME_BODY;

/// Frame decoding / authentication failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The body is shorter than [`MIN_FRAME_BODY`].
    Truncated,
    /// The body exceeds [`MAX_FRAME_BODY`].
    TooLarge,
    /// The body does not open with [`EPOCH_MARKER`].
    UnknownFormat,
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
            FrameError::UnknownFormat => write!(f, "frame does not open with the epoch marker"),
            FrameError::UnknownSender => write!(f, "frame sender unknown"),
            FrameError::BadTag => write!(f, "frame authentication failed"),
            FrameError::Malformed => write!(f, "frame batch entries malformed"),
        }
    }
}

impl Error for FrameError {}

/// Writes the frame carrying `entries` from `sender` into `frame`
/// (cleared, capacity kept) with a zeroed tag slot, and returns the
/// SHA-256 of its signed part: one encode and one hash serve every
/// receiver ([`put_tag`]). Panics as [`encode_epoch_frame`] does.
pub(crate) fn encode_untagged(
    sender: NodeId,
    entries: &[(AgreementId, Bytes)],
    frame: &mut Vec<u8>,
) -> [u8; DIGEST_LEN] {
    assert!(!entries.is_empty(), "frames carry at least one entry");
    let batch_len = epoch_batch_len(entries.iter().map(|(_, p)| p.len()));
    assert!(batch_len - EPOCH_COUNT_BYTES <= MAX_FRAME_PAYLOAD, "entries exceed MAX_FRAME_PAYLOAD");
    let rest_len = 2 + 2 + batch_len + TAG_LEN;
    frame.clear();
    frame.reserve(4 + rest_len);
    frame.put_u32(rest_len as u32);
    frame.put_u16(EPOCH_MARKER);
    frame.put_u16(sender.0);
    put_epoch_batch(entries, frame);
    debug_assert_eq!(frame.len() + TAG_LEN, 4 + rest_len, "batch_len is the batch's length");
    let digest = sha256(frame.get(4..).unwrap_or_default());
    frame.resize(4 + rest_len, 0);
    digest
}

/// Writes the tag into the last [`TAG_LEN`] bytes of `frame`, whose signed
/// part hashes to `body_digest`, for the far end of `channel`: the one
/// place the tag is built ([`ChannelKey::verify`] over the digest checks it).
pub(crate) fn put_tag(frame: &mut [u8], channel: &ChannelKey, body_digest: &[u8; DIGEST_LEN]) {
    if let Some((_, tag)) = frame.split_last_chunk_mut::<TAG_LEN>() {
        *tag = channel.tag(body_digest);
    }
}

/// Encodes the frame carrying `entries` from `keychain.node_id()` to
/// `to`, length word included, ready to write to a socket.
///
/// # Panics
///
/// Panics if the encoded entries exceed [`MAX_FRAME_PAYLOAD`]
/// (unreachable for protocol-sized envelopes) or `entries` is empty.
pub fn encode_epoch_frame(
    keychain: &Keychain,
    to: NodeId,
    entries: &[(AgreementId, Bytes)],
) -> Bytes {
    let mut frame = Vec::new();
    let digest = encode_untagged(keychain.node_id(), entries, &mut frame);
    put_tag(&mut frame, keychain.channel(to), &digest);
    Bytes::from(frame)
}

/// The zero-copy inbound decoder behind [`decode_inbound_frame_ref`] and
/// [`split_verified_body`]: `keychain = Some` authenticates, `None`
/// re-splits a body a read loop already verified. Bounds and the marker
/// are checked before any MAC work; the batch is walked only after the
/// tag verified.
fn split_body<'a>(
    keychain: Option<&Keychain>,
    body: &'a [u8],
) -> Result<(NodeId, EpochEntriesRef<'a>), FrameError> {
    if body.len() < MIN_FRAME_BODY {
        return Err(FrameError::Truncated);
    }
    if body.len() > MAX_FRAME_BODY {
        return Err(FrameError::TooLarge);
    }
    let (signed, tag) = body.split_at(body.len() - TAG_LEN);
    let Some(([m0, m1, s0, s1], batch)) = signed.split_first_chunk::<4>() else {
        return Err(FrameError::Truncated); // unreachable: MIN_FRAME_BODY covers the header
    };
    if u16::from_be_bytes([*m0, *m1]) != EPOCH_MARKER {
        return Err(FrameError::UnknownFormat);
    }
    let sender = NodeId(u16::from_be_bytes([*s0, *s1]));
    if let Some(keychain) = keychain {
        if sender.index() >= keychain.n() {
            return Err(FrameError::UnknownSender);
        }
        if keychain.channel(sender).verify(&sha256(signed), tag).is_err() {
            return Err(FrameError::BadTag);
        }
    }
    let entries = decode_epoch_batch_ref(batch).map_err(|_| FrameError::Malformed)?;
    Ok((sender, entries))
}

/// Decodes and authenticates one frame body (everything *after* the
/// length word) arriving at `keychain.node_id()`, returning the sender
/// and a borrowed view of its entries: the frame is verified, validated,
/// and split without allocating.
///
/// # Errors
///
/// Returns a [`FrameError`] on malformed, oversized, or forged frames;
/// callers drop such frames.
pub fn decode_inbound_frame_ref<'a>(
    keychain: &Keychain,
    body: &'a [u8],
) -> Result<(NodeId, EpochEntriesRef<'a>), FrameError> {
    split_body(Some(keychain), body)
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
pub fn split_verified_body(body: &[u8]) -> Result<(NodeId, EpochEntriesRef<'_>), FrameError> {
    split_body(None, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use delphi_primitives::epoch::encode_epoch_batch;
    use delphi_primitives::{EpochId, InstanceId};

    fn pair() -> (Keychain, Keychain) {
        (Keychain::derive(b"seed", NodeId(0), 3), Keychain::derive(b"seed", NodeId(1), 3))
    }

    /// Epoch-0 entries, asset `i` carrying `payloads[i]` — what a one-shot
    /// basket puts on the wire.
    fn entries(payloads: &[&'static [u8]]) -> Vec<(AgreementId, Bytes)> {
        payloads
            .iter()
            .enumerate()
            .map(|(i, p)| {
                (AgreementId::new(EpochId::FIRST, InstanceId(i as u16)), Bytes::from_static(p))
            })
            .collect()
    }

    /// Entries spread over distinct epochs — stream traffic.
    fn epoch_entries(payloads: &[&'static [u8]]) -> Vec<(AgreementId, Bytes)> {
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

    /// A correctly tagged body from node 0 to node 1 around arbitrary
    /// `signed` bytes.
    fn tagged(alice: &Keychain, signed: Vec<u8>) -> Vec<u8> {
        retagged(alice, NodeId(1), signed)
    }

    /// `signed` under the tag `keychain`'s node puts on frames to `to`.
    fn retagged(keychain: &Keychain, to: NodeId, mut signed: Vec<u8>) -> Vec<u8> {
        let digest = sha256(&signed);
        signed.extend_from_slice(&[0; TAG_LEN]);
        put_tag(&mut signed, keychain.channel(to), &digest);
        signed
    }

    fn decode_owned(
        keychain: &Keychain,
        body: &[u8],
    ) -> Result<(NodeId, Vec<(AgreementId, Bytes)>), FrameError> {
        decode_inbound_frame_ref(keychain, body).map(|(from, view)| (from, view.to_owned_entries()))
    }

    #[test]
    fn roundtrip() {
        let (alice, bob) = pair();
        let sent = entries(&[b"hello"]);
        let frame = encode_epoch_frame(&alice, NodeId(1), &sent);
        // Strip the length word, as the reader does.
        let len = u32::from_be_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(len, frame.len() - 4);
        assert_eq!(decode_owned(&bob, &frame[4..]), Ok((NodeId(0), sent.clone())));
        // The pre-verified re-split sees the same frame, with no key.
        let (sender, view) = split_verified_body(&frame[4..]).unwrap();
        assert_eq!((sender, view.to_owned_entries()), (NodeId(0), sent));
    }

    #[test]
    fn batch_roundtrip() {
        let (alice, bob) = pair();
        let mut sent = entries(&[b"alpha", b"", b"gamma"]);
        sent.push((AgreementId::new(EpochId::FIRST, InstanceId(65535)), Bytes::from_static(b"z")));
        let frame = encode_epoch_frame(&alice, NodeId(1), &sent);
        assert_eq!(decode_owned(&bob, &frame[4..]), Ok((NodeId(0), sent)));
    }

    #[test]
    fn epoch_frame_roundtrip() {
        let (alice, bob) = pair();
        let mut sent = epoch_entries(&[b"alpha", b"", b"gamma"]);
        sent.push((AgreementId::new(EpochId(u32::MAX), InstanceId(7)), Bytes::from_static(b"z")));
        let frame = encode_epoch_frame(&alice, NodeId(1), &sent);
        assert_eq!(decode_owned(&bob, &frame[4..]), Ok((NodeId(0), sent)));
    }

    #[test]
    fn broadcast_frames_share_a_body_and_verify_only_at_their_own_receiver() {
        // One body, encoded and hashed once, tagged for three peers: the
        // frames are byte-identical up to the tag, equal to what encoding
        // each alone yields, and each verifies only where it was sent.
        let sender = Keychain::derive(b"seed", NodeId(0), 4);
        let peers: Vec<Keychain> =
            (1..4).map(|i| Keychain::derive(b"seed", NodeId(i), 4)).collect();
        let sent = epoch_entries(&[b"echo", b"echo2"]);
        let mut body = Vec::new();
        let digest = encode_untagged(NodeId(0), &sent, &mut body);
        let frames: Vec<Vec<u8>> = peers
            .iter()
            .map(|peer| {
                let mut frame = body.clone();
                put_tag(&mut frame, sender.channel(peer.node_id()), &digest);
                assert_eq!(frame, encode_epoch_frame(&sender, peer.node_id(), &sent).to_vec());
                frame
            })
            .collect();
        let untagged = frames[0].len() - TAG_LEN;
        for (i, frame) in frames.iter().enumerate() {
            assert_eq!(frame[..untagged], frames[0][..untagged], "one shared body");
            for (j, peer) in peers.iter().enumerate() {
                let got = decode_owned(peer, &frame[4..]);
                if i == j {
                    assert_eq!(got, Ok((NodeId(0), sent.clone())));
                } else {
                    assert_eq!(got, Err(FrameError::BadTag), "frame {i} verified at peer {j}");
                }
            }
        }
        let tags: std::collections::BTreeSet<&[u8]> =
            frames.iter().map(|f| &f[untagged..]).collect();
        assert_eq!(tags.len(), 3, "a tag per receiver");
    }

    #[test]
    fn batch_overhead_accounting() {
        let (alice, _) = pair();
        let frame = encode_epoch_frame(&alice, NodeId(1), &entries(&[b"12345", b"123"]));
        assert_eq!(
            frame.len(),
            EPOCH_FRAME_OVERHEAD_BYTES + 2 * EPOCH_ENTRY_OVERHEAD_BYTES + 5 + 3
        );
    }

    #[test]
    fn batched_wire_accounting_matches_simulator() {
        // What batching saves, in either transport: k entries in one
        // frame instead of k one-entry frames spare k - 1 frame overheads.
        let (alice, _) = pair();
        let sent = entries(&[b"alpha", b"", b"a-longer-payload"]);
        let batched = encode_epoch_frame(&alice, NodeId(1), &sent).len();
        let per_entry: usize = sent
            .iter()
            .map(|e| encode_epoch_frame(&alice, NodeId(1), std::slice::from_ref(e)).len())
            .sum();
        assert_eq!(per_entry - batched, (sent.len() - 1) * EPOCH_FRAME_OVERHEAD_BYTES);
        assert_eq!(EPOCH_FRAME_OVERHEAD_BYTES, delphi_sim::WIRE_OVERHEAD_BYTES + EPOCH_COUNT_BYTES);
    }

    #[test]
    fn epoch_wire_accounting_matches_simulator() {
        // An EpochProtocol envelope carries the epoch batch payload and
        // the simulator charges it WIRE_OVERHEAD_BYTES; the TCP frame
        // must cost exactly the same.
        let (alice, _) = pair();
        for payloads in [&[&b"x"[..]][..], &[&b"alpha"[..], &b""[..], &b"a-longer-payload"[..]][..]]
        {
            let sent = epoch_entries(payloads);
            let frame = encode_epoch_frame(&alice, NodeId(1), &sent);
            let batch_payload = encode_epoch_batch(&sent);
            assert_eq!(frame.len(), delphi_sim::WIRE_OVERHEAD_BYTES + batch_payload.len());
        }
    }

    #[test]
    fn retired_formats_rejected_before_any_mac_work() {
        // The former v1 frame (`[u16 sender][payload][tag]`) and the
        // former `0xFFFF` instance batch, each under a tag that WOULD
        // verify: rejected on the marker, without looking at the tag.
        let (alice, bob) = pair();
        let mut v1 = 0u16.to_be_bytes().to_vec();
        v1.extend_from_slice(b"a payload long enough to pass the size bound");
        let mut v2 = vec![0xff, 0xff, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, b'x'];
        v2.extend_from_slice(&[0u8; 8]);
        for signed in [v1, v2] {
            let body = tagged(&alice, signed);
            assert_eq!(decode_owned(&bob, &body), Err(FrameError::UnknownFormat));
            assert_eq!(split_verified_body(&body).unwrap_err(), FrameError::UnknownFormat);
        }
    }

    #[test]
    fn tampered_payload_rejected() {
        let (alice, bob) = pair();
        let frame = encode_epoch_frame(&alice, NodeId(1), &entries(&[b"hello"]));
        let mut body = frame[4..].to_vec();
        let last_payload_byte = body.len() - TAG_LEN - 1;
        body[last_payload_byte] ^= 1;
        assert_eq!(decode_owned(&bob, &body), Err(FrameError::BadTag));
    }

    #[test]
    fn tampered_batch_rejected() {
        // Flips in the marker, the sender, the count and an entry header.
        let (alice, bob) = pair();
        let frame = encode_epoch_frame(&alice, NodeId(1), &entries(&[b"hello", b"world"]));
        for idx in [1usize, 2, 5, 12] {
            let mut body = frame[4..].to_vec();
            body[idx] ^= 1;
            let err = decode_owned(&bob, &body).unwrap_err();
            assert!(
                matches!(
                    err,
                    FrameError::BadTag | FrameError::UnknownSender | FrameError::UnknownFormat
                ),
                "flip at {idx}: {err:?}"
            );
        }
    }

    #[test]
    fn forged_sender_rejected() {
        let (alice, bob) = pair();
        let frame = encode_epoch_frame(&alice, NodeId(1), &entries(&[b"hello"]));
        let mut body = frame[4..].to_vec();
        body[3] = 2; // claim sender 2
        assert_eq!(decode_owned(&bob, &body), Err(FrameError::BadTag));
    }

    #[test]
    fn misdirected_frame_rejected() {
        // A frame addressed to node 1 replayed at node 2 fails: the tag
        // is under key (0,1), not (0,2).
        let (alice, _) = pair();
        let carol = Keychain::derive(b"seed", NodeId(2), 3);
        let frame = encode_epoch_frame(&alice, NodeId(1), &entries(&[b"hello"]));
        assert_eq!(decode_owned(&carol, &frame[4..]), Err(FrameError::BadTag));
    }

    #[test]
    fn tampered_and_misdirected_epoch_frames_rejected() {
        // The same two attacks on stream traffic, plus a flip inside an
        // entry's epoch id.
        let (alice, bob) = pair();
        let frame = encode_epoch_frame(&alice, NodeId(1), &epoch_entries(&[b"hello", b"world"]));
        for idx in [2usize, 5, 8, 20] {
            let mut body = frame[4..].to_vec();
            body[idx] ^= 1;
            let err = decode_owned(&bob, &body).unwrap_err();
            assert!(
                matches!(err, FrameError::BadTag | FrameError::UnknownSender),
                "flip at {idx}: {err:?}"
            );
        }
        let carol = Keychain::derive(b"seed", NodeId(2), 3);
        assert_eq!(decode_owned(&carol, &frame[4..]), Err(FrameError::BadTag));
    }

    #[test]
    fn unknown_sender_rejected() {
        // A body claiming an out-of-range sender fails before the tag.
        let (_, bob) = pair();
        let mut body = EPOCH_MARKER.to_be_bytes().to_vec();
        body.extend_from_slice(&[0xff, 0xfd, 0, 0]);
        body.extend_from_slice(&[0u8; TAG_LEN]);
        assert_eq!(decode_owned(&bob, &body), Err(FrameError::UnknownSender));
    }

    /// `[marker][sender 0]` followed by `batch`.
    fn signed_around(batch: &[u8]) -> Vec<u8> {
        let mut signed = EPOCH_MARKER.to_be_bytes().to_vec();
        signed.extend_from_slice(&0u16.to_be_bytes());
        signed.extend_from_slice(batch);
        signed
    }

    #[test]
    fn authenticated_but_malformed_batch_rejected() {
        // A correctly tagged body whose entry bytes overrun (count = 1, a
        // declared 100-byte payload, 3 bytes present) must fail *after*
        // authentication with Malformed, not panic.
        let (alice, bob) = pair();
        let mut batch = vec![0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 100];
        batch.extend_from_slice(b"abc");
        let body = tagged(&alice, signed_around(&batch));
        assert_eq!(decode_owned(&bob, &body), Err(FrameError::Malformed));
    }

    #[test]
    fn authenticated_but_malformed_epoch_batch_rejected() {
        // Count = 2 but garbage entries; and a valid batch with trailing
        // bytes before the tag.
        let (alice, bob) = pair();
        let body = tagged(&alice, signed_around(&[0, 2, 0, 0]));
        assert_eq!(decode_owned(&bob, &body), Err(FrameError::Malformed));
        let mut trailing = encode_epoch_batch(&epoch_entries(&[b"x"])).to_vec();
        trailing.push(0xee);
        let body = tagged(&alice, signed_around(&trailing));
        assert_eq!(decode_owned(&bob, &body), Err(FrameError::Malformed));
    }

    #[test]
    fn size_bounds_hit_each_edge() {
        let (alice, bob) = pair();
        // One byte below the minimum body: truncated.
        let body = vec![0u8; MIN_FRAME_BODY - 1];
        assert_eq!(decode_owned(&bob, &body), Err(FrameError::Truncated));
        assert_eq!(split_verified_body(&body).unwrap_err(), FrameError::Truncated);
        // Exactly the minimum body: an empty batch.
        let body = tagged(&alice, signed_around(&[0, 0]));
        assert_eq!(body.len(), MIN_FRAME_BODY);
        assert_eq!(decode_owned(&bob, &body), Ok((NodeId(0), Vec::new())));
        // One byte above the maximum body: too large, rejected before any
        // MAC work.
        let body = vec![0u8; MAX_FRAME_BODY + 1];
        assert_eq!(decode_owned(&bob, &body), Err(FrameError::TooLarge));
        assert_eq!(split_verified_body(&body).unwrap_err(), FrameError::TooLarge);
    }

    #[test]
    fn max_body_bound_admits_max_payload() {
        // MAX_FRAME_BODY is exactly the smallest body around
        // MAX_FRAME_PAYLOAD bytes of entries.
        assert_eq!(MAX_FRAME_BODY, MIN_FRAME_BODY + MAX_FRAME_PAYLOAD);
    }

    #[test]
    fn empty_payload_is_fine() {
        let (alice, bob) = pair();
        let frame = encode_epoch_frame(&alice, NodeId(1), &entries(&[b""]));
        assert_eq!(frame.len(), EPOCH_FRAME_OVERHEAD_BYTES + EPOCH_ENTRY_OVERHEAD_BYTES);
        let (sender, got) = decode_owned(&bob, &frame[4..]).unwrap();
        assert_eq!(sender, NodeId(0));
        assert!(got[0].1.is_empty());
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            FrameError::Truncated,
            FrameError::TooLarge,
            FrameError::UnknownFormat,
            FrameError::UnknownSender,
            FrameError::BadTag,
            FrameError::Malformed,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The one decoder never panics, rejects every body that does not
        /// open with the marker without computing a tag, and accepts —
        /// keyed or pre-verified — exactly the same structures.
        #[test]
        fn prop_one_decoder_never_panics_and_both_entry_points_agree(
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..MIN_FRAME_BODY + 64),
            payloads in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u8>(), 0..12), 1..4),
            mutate_at in proptest::prelude::any::<usize>(),
            mutate_to in proptest::prelude::any::<u8>(),
        ) {
            let (alice, bob) = pair();
            let sent: Vec<(AgreementId, Bytes)> = payloads
                .into_iter()
                .enumerate()
                .map(|(i, p)| (AgreementId::new(EpochId(i as u32), InstanceId(i as u16)), Bytes::from(p)))
                .collect();
            let frame = encode_epoch_frame(&alice, NodeId(1), &sent);
            let mut mutated = frame[4..].to_vec();
            let at = mutate_at % mutated.len();
            mutated[at] = mutate_to;
            // Noise behind a valid header reaches the batch walk.
            let mut marked_noise = signed_around(&[]);
            marked_noise.extend_from_slice(&noise);
            for body in [noise, marked_noise, mutated] {
                // As received: neither entry point may panic.
                let keyed = decode_owned(&bob, &body);
                let resplit = split_verified_body(&body);
                let marked = body.len() >= 2 && body[..2] == EPOCH_MARKER.to_be_bytes();
                if !marked {
                    // Truncated / TooLarge / UnknownFormat all precede
                    // the tag; BadTag and Malformed follow it.
                    proptest::prop_assert!(matches!(
                        keyed,
                        Err(FrameError::Truncated | FrameError::TooLarge | FrameError::UnknownFormat)
                    ), "{keyed:?}");
                    proptest::prop_assert!(resplit.is_err());
                }
                // Re-tagged so authentication passes whenever the claimed
                // sender exists: what is left is pure structure, and the
                // two entry points must agree on it.
                if body.len() < MIN_FRAME_BODY {
                    continue;
                }
                let sender = NodeId(u16::from_be_bytes([body[2], body[3]]));
                if sender.index() >= bob.n() {
                    continue;
                }
                let signed = body[..body.len() - TAG_LEN].to_vec();
                let claimed = Keychain::derive(b"seed", sender, 3);
                let body = retagged(&claimed, NodeId(1), signed);
                let keyed = decode_owned(&bob, &body);
                let resplit = split_verified_body(&body)
                    .map(|(from, view)| (from, view.to_owned_entries()));
                proptest::prop_assert_eq!(keyed, resplit);
            }
        }
    }
}
