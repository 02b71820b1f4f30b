//! Identifier newtypes for protocol participants and rounds.

use std::fmt;

use crate::wire::{Decode, Encode, Reader, WireError, Writer};

/// Identity of a protocol participant, in `0..n`.
///
/// The paper's system model fixes a set `P := {1, ..., n}`; we index from 0
/// as is idiomatic in Rust. The inner index is public because `NodeId` is a
/// passive identifier with no invariant beyond `id < n`, which is enforced
/// wherever a configuration is available.
///
/// # Example
///
/// ```
/// use delphi_primitives::NodeId;
///
/// let me = NodeId(2);
/// assert_eq!(me.index(), 2);
/// assert_eq!(format!("{me}"), "node-2");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The participant's index as a `usize`, for direct use in slices.
    #[inline]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// Iterates over all node ids of an `n`-node system, in order.
    ///
    /// ```
    /// use delphi_primitives::NodeId;
    /// let all: Vec<_> = NodeId::all(3).collect();
    /// assert_eq!(all, [NodeId(0), NodeId(1), NodeId(2)]);
    /// ```
    pub fn all(n: usize) -> impl Iterator<Item = NodeId> + Clone {
        (0..n as u16).map(NodeId)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

impl From<u16> for NodeId {
    fn from(raw: u16) -> Self {
        NodeId(raw)
    }
}

impl Encode for NodeId {
    fn encode(&self, w: &mut Writer) {
        w.put_u16(self.0);
    }
}

impl Decode for NodeId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(NodeId(r.get_u16()?))
    }
}

/// Identity of one multiplexed protocol instance within a deployment.
///
/// A single mesh (one simulator run, one TCP cluster) can drive many
/// independent protocol instances — one per oracle asset in a DORA-style
/// multi-feed deployment. Transports tag every payload with the instance it
/// belongs to so the instances share connections, frames, and MAC tags; see
/// [`crate::epoch`] for the sans-io combinator and `delphi-net` for the
/// batched wire frames.
///
/// # Example
///
/// ```
/// use delphi_primitives::InstanceId;
///
/// let btc = InstanceId(0);
/// assert_eq!(btc.index(), 0);
/// assert_eq!(format!("{btc}"), "instance-0");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId(pub u16);

impl InstanceId {
    /// The instance's index as a `usize`, for direct use in slices.
    #[inline]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// Stable receive-shard assignment: which of `shards` dispatch workers
    /// owns this instance's traffic.
    ///
    /// The mapping is a pure Fibonacci multiply-shift of the instance id
    /// (`((id ^ C) * C) >> 32 mod shards` with the golden-ratio constant
    /// `C = 0x9E37_79B9_7F4A_7C15`), so the discrete-event simulator and
    /// the TCP transport shard *identically*
    /// — a deployment's per-shard load in simulation is its per-shard load
    /// over real sockets. Epoch-addressed traffic shards by asset (see
    /// [`AgreementId::shard`](crate::AgreementId::shard)), keeping every
    /// epoch of one asset on one worker so per-instance FIFO ordering
    /// survives sharding.
    #[inline]
    pub fn shard(self, shards: usize) -> usize {
        if shards <= 1 {
            return 0;
        }
        // Fibonacci multiply-shift: consecutive ids (the dense oracle
        // basket case) spread evenly for any shard count, and the mapping
        // is a pure function of the id — no per-process salt.
        let h = (u64::from(self.0) ^ 0x9E37_79B9_7F4A_7C15).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) as usize) % shards
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "instance-{}", self.0)
    }
}

impl From<u16> for InstanceId {
    fn from(raw: u16) -> Self {
        InstanceId(raw)
    }
}

impl Encode for InstanceId {
    fn encode(&self, w: &mut Writer) {
        w.put_u16(self.0);
    }
}

impl Decode for InstanceId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(InstanceId(r.get_u16()?))
    }
}

/// A protocol round number (1-based, matching Algorithm 1 of the paper).
///
/// Rounds are bounded by the configured `r_M = log2(1/ε′) ≤ 64`, so `u16`
/// is ample while keeping messages small on the wire.
///
/// # Example
///
/// ```
/// use delphi_primitives::Round;
///
/// let r = Round(1);
/// assert_eq!(r.next(), Round(2));
/// assert!(r < r.next());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Round(pub u16);

impl Round {
    /// The first round of any protocol in this workspace.
    pub const FIRST: Round = Round(1);

    /// The round after this one.
    #[inline]
    pub fn next(self) -> Round {
        Round(self.0 + 1)
    }

    /// Zero-based index of this round, for use in per-round storage.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the round is 0 (rounds are 1-based).
    #[inline]
    pub fn index(self) -> usize {
        debug_assert!(self.0 >= 1, "rounds are 1-based");
        usize::from(self.0) - 1
    }
}

impl fmt::Display for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "round-{}", self.0)
    }
}

impl Encode for Round {
    fn encode(&self, w: &mut Writer) {
        w.put_u16(self.0);
    }
}

impl Decode for Round {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Round(r.get_u16()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::roundtrip;

    #[test]
    fn node_id_display_and_index() {
        assert_eq!(NodeId(7).to_string(), "node-7");
        assert_eq!(NodeId(7).index(), 7);
        assert_eq!(NodeId::from(9u16), NodeId(9));
    }

    #[test]
    fn node_id_all_enumerates_in_order() {
        assert_eq!(NodeId::all(0).count(), 0);
        let ids: Vec<_> = NodeId::all(4).collect();
        assert_eq!(ids, [NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn round_ordering_and_next() {
        assert_eq!(Round::FIRST, Round(1));
        assert_eq!(Round(3).next(), Round(4));
        assert!(Round(3) < Round(4));
        assert_eq!(Round(5).index(), 4);
    }

    #[test]
    fn id_wire_roundtrips() {
        for raw in [0u16, 1, 63, 64, 255, 256, u16::MAX] {
            assert_eq!(roundtrip(&NodeId(raw)).unwrap(), NodeId(raw));
            assert_eq!(roundtrip(&Round(raw)).unwrap(), Round(raw));
            assert_eq!(roundtrip(&InstanceId(raw)).unwrap(), InstanceId(raw));
        }
    }

    #[test]
    fn instance_id_display_and_solo() {
        assert_eq!(InstanceId(3).to_string(), "instance-3");
        assert_eq!(InstanceId::from(5u16).index(), 5);
    }

    #[test]
    fn instance_shard_is_stable_bounded_and_spreads() {
        // Single shard is the identity sink.
        for raw in [0u16, 1, 7, 999, u16::MAX] {
            assert_eq!(InstanceId(raw).shard(1), 0);
            assert_eq!(InstanceId(raw).shard(0), 0);
        }
        for shards in [2usize, 3, 4, 8] {
            let mut hit = vec![0usize; shards];
            for raw in 0..256u16 {
                let s = InstanceId(raw).shard(shards);
                assert!(s < shards);
                // Determinism: the mapping is a pure function.
                assert_eq!(s, InstanceId(raw).shard(shards));
                hit[s] += 1;
            }
            // Every shard gets a fair cut of a dense id range (the oracle
            // basket case): no worker may sit idle.
            for (s, &count) in hit.iter().enumerate() {
                assert!(count > 256 / shards / 4, "shard {s} starved: {hit:?}");
            }
        }
    }
}
