//! Bracha Reliable Broadcast.
//!
//! The primitive behind both baselines: a designated broadcaster sends a
//! payload; every correct node eventually delivers the *same* payload
//! (agreement + totality), and if the broadcaster is correct it is the
//! payload it sent (validity). The classic `SEND → ECHO → READY` pattern:
//!
//! - on the broadcaster's `SEND`: echo it (once);
//! - on `n − t` `ECHO`s for a payload: send `READY` (once);
//! - on `t + 1` `READY`s: send `READY` (amplification);
//! - on `2t + 1` `READY`s: deliver.
//!
//! Cost: `O(n²)` messages each carrying the payload — this is exactly the
//! §III-A argument for why RBC-based approximate agreement pays `O(n³)`
//! bits per round, the overhead Delphi exists to avoid.
//!
//! [`RbcInstance`] is the embeddable state machine ([`crate::acs`] runs
//! `n` of them, [`crate::aad`] runs `n` per round); [`RbcNode`] wraps a
//! single instance as a standalone [`Protocol`] for tests and benches.

use bytes::Bytes;
use delphi_crypto::{sha256, DIGEST_LEN};
use delphi_primitives::wire::{Decode, Encode, Reader, WireError, Writer};
use delphi_primitives::{Envelope, NodeBitSet, NodeId, Protocol};

/// Maximum payload accepted in an RBC message (Byzantine senders control
/// the field).
pub const MAX_RBC_PAYLOAD: usize = 64 * 1024;

/// Maximum distinct payload digests tracked per instance per phase.
const MAX_TRACKED_DIGESTS: usize = 4;

/// An RBC protocol message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RbcMsg {
    /// Broadcaster's initial payload.
    Send(Bytes),
    /// First-phase endorsement.
    Echo(Bytes),
    /// Second-phase commitment.
    Ready(Bytes),
}

impl RbcMsg {
    /// The carried payload.
    pub fn payload(&self) -> &Bytes {
        match self {
            RbcMsg::Send(p) | RbcMsg::Echo(p) | RbcMsg::Ready(p) => p,
        }
    }
}

impl Encode for RbcMsg {
    fn encode(&self, w: &mut Writer) {
        let (tag, payload) = match self {
            RbcMsg::Send(p) => (0u8, p),
            RbcMsg::Echo(p) => (1, p),
            RbcMsg::Ready(p) => (2, p),
        };
        w.put_raw_u8(tag);
        w.put_bytes(payload);
    }
}

impl Decode for RbcMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let tag = r.get_raw_u8()?;
        let payload = r.get_bytes()?;
        if payload.len() > MAX_RBC_PAYLOAD {
            return Err(WireError::LengthOutOfBounds);
        }
        let payload = Bytes::copy_from_slice(payload);
        match tag {
            0 => Ok(RbcMsg::Send(payload)),
            1 => Ok(RbcMsg::Echo(payload)),
            2 => Ok(RbcMsg::Ready(payload)),
            d => Err(WireError::InvalidDiscriminant(u64::from(d))),
        }
    }
}

/// Messages an instance asks its owner to broadcast.
pub type RbcAction = RbcMsg;

type Digest = [u8; DIGEST_LEN];

#[derive(Debug, Clone)]
struct Tally {
    digest: Digest,
    payload: Bytes,
    senders: NodeBitSet,
}

/// One node's state for one reliable broadcast.
#[derive(Debug, Clone)]
pub struct RbcInstance {
    me: NodeId,
    n: usize,
    t: usize,
    broadcaster: NodeId,
    echoes: Vec<Tally>,
    readies: Vec<Tally>,
    /// Senders that have already echoed / readied (one each per node).
    echoed: NodeBitSet,
    readied: NodeBitSet,
    sent_echo: bool,
    sent_ready: bool,
    delivered: Option<Bytes>,
}

impl RbcInstance {
    /// Creates node `me`'s state for `broadcaster`'s RBC.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3t + 1` or an id is out of range.
    pub fn new(me: NodeId, n: usize, t: usize, broadcaster: NodeId) -> RbcInstance {
        assert!(n > 3 * t, "Bracha RBC requires n >= 3t + 1");
        assert!(me.index() < n && broadcaster.index() < n, "id out of range");
        RbcInstance {
            me,
            n,
            t,
            broadcaster,
            echoes: Vec::new(),
            readies: Vec::new(),
            echoed: NodeBitSet::new(n),
            readied: NodeBitSet::new(n),
            sent_echo: false,
            sent_ready: false,
            delivered: None,
        }
    }

    /// The broadcaster this instance listens to.
    pub fn broadcaster(&self) -> NodeId {
        self.broadcaster
    }

    /// The delivered payload, once any.
    pub fn delivered(&self) -> Option<&Bytes> {
        self.delivered.as_ref()
    }

    /// Starts the broadcast (only meaningful at the broadcaster).
    /// Returns the messages to broadcast, including the `SEND`.
    ///
    /// # Panics
    ///
    /// Panics if called on a non-broadcaster instance.
    pub fn broadcast(&mut self, payload: Bytes) -> Vec<RbcAction> {
        assert_eq!(self.me, self.broadcaster, "only the broadcaster starts an RBC");
        let mut actions = vec![RbcMsg::Send(payload.clone())];
        // Process our own SEND locally.
        actions.extend(self.on_message(self.me, &RbcMsg::Send(payload)));
        actions
    }

    /// Handles a message from `from`, returning messages to broadcast.
    pub fn on_message(&mut self, from: NodeId, msg: &RbcMsg) -> Vec<RbcAction> {
        let mut actions = Vec::new();
        if from.index() >= self.n || msg.payload().len() > MAX_RBC_PAYLOAD {
            return actions;
        }
        match msg {
            RbcMsg::Send(payload) => {
                // Only the designated broadcaster's SEND counts; echo once.
                if from == self.broadcaster && !self.sent_echo {
                    self.sent_echo = true;
                    self.record_echo(self.me, payload.clone());
                    actions.push(RbcMsg::Echo(payload.clone()));
                }
            }
            RbcMsg::Echo(payload) => {
                self.record_echo(from, payload.clone());
            }
            RbcMsg::Ready(payload) => {
                self.record_ready(from, payload.clone());
            }
        }
        self.progress(&mut actions);
        actions
    }

    fn record_echo(&mut self, from: NodeId, payload: Bytes) {
        if !self.echoed.insert(from) {
            return; // one ECHO per sender
        }
        Self::tally(&mut self.echoes, from, payload, self.n);
    }

    fn record_ready(&mut self, from: NodeId, payload: Bytes) {
        if !self.readied.insert(from) {
            return; // one READY per sender
        }
        Self::tally(&mut self.readies, from, payload, self.n);
    }

    fn tally(tallies: &mut Vec<Tally>, from: NodeId, payload: Bytes, n: usize) {
        let digest = sha256(&payload);
        if let Some(t) = tallies.iter_mut().find(|t| t.digest == digest) {
            t.senders.insert(from);
            return;
        }
        if tallies.len() >= MAX_TRACKED_DIGESTS {
            return; // Byzantine digest flood: ignore beyond the cap
        }
        let mut senders = NodeBitSet::new(n);
        senders.insert(from);
        tallies.push(Tally { digest, payload, senders });
    }

    fn progress(&mut self, actions: &mut Vec<RbcAction>) {
        // READY on n − t ECHOs.
        if !self.sent_ready {
            if let Some(t) = self.echoes.iter().find(|t| t.senders.len() >= self.n - self.t) {
                let payload = t.payload.clone();
                self.sent_ready = true;
                self.record_ready(self.me, payload.clone());
                actions.push(RbcMsg::Ready(payload));
            }
        }
        // READY amplification on t + 1 READYs.
        if !self.sent_ready {
            if let Some(t) = self.readies.iter().find(|t| t.senders.len() > self.t) {
                let payload = t.payload.clone();
                self.sent_ready = true;
                self.record_ready(self.me, payload.clone());
                actions.push(RbcMsg::Ready(payload));
            }
        }
        // Deliver on 2t + 1 READYs.
        if self.delivered.is_none() {
            if let Some(t) = self.readies.iter().find(|t| t.senders.len() > 2 * self.t) {
                self.delivered = Some(t.payload.clone());
            }
        }
    }
}

/// A standalone reliable-broadcast node ([`Protocol`] wrapper around one
/// [`RbcInstance`]).
///
/// # Example
///
/// ```
/// use bytes::Bytes;
/// use delphi_baselines::RbcNode;
/// use delphi_primitives::{NodeId, Protocol};
/// use delphi_sim::{Simulation, Topology};
///
/// let n = 4;
/// let nodes = NodeId::all(n)
///     .map(|id| {
///         let payload = (id == NodeId(0)).then(|| Bytes::from_static(b"block"));
///         RbcNode::new(id, n, 1, NodeId(0), payload).boxed()
///     })
///     .collect();
/// let report = Simulation::new(Topology::lan(n)).seed(2).run(nodes);
/// for out in report.honest_outputs() {
///     assert_eq!(&out[..], b"block");
/// }
/// ```
#[derive(Debug)]
pub struct RbcNode {
    instance: RbcInstance,
    to_send: Option<Bytes>,
}

impl RbcNode {
    /// Creates a node for `broadcaster`'s RBC; `payload` must be `Some` at
    /// the broadcaster and `None` elsewhere.
    ///
    /// # Panics
    ///
    /// Panics on id/threshold violations (see [`RbcInstance::new`]) or if
    /// `payload` presence does not match the role.
    pub fn new(
        me: NodeId,
        n: usize,
        t: usize,
        broadcaster: NodeId,
        payload: Option<Bytes>,
    ) -> RbcNode {
        assert_eq!(payload.is_some(), me == broadcaster, "payload iff broadcaster");
        RbcNode { instance: RbcInstance::new(me, n, t, broadcaster), to_send: payload }
    }

    /// Boxes the node for use with heterogeneous drivers.
    pub fn boxed(self) -> Box<dyn Protocol<Output = Bytes>> {
        Box::new(self)
    }

    fn envelopes(actions: Vec<RbcAction>) -> Vec<Envelope> {
        actions.into_iter().map(|m| Envelope::to_all(m.to_bytes())).collect()
    }
}

impl Protocol for RbcNode {
    type Output = Bytes;

    fn node_id(&self) -> NodeId {
        self.instance.me
    }

    fn n(&self) -> usize {
        self.instance.n
    }

    fn start(&mut self) -> Vec<Envelope> {
        match self.to_send.take() {
            Some(payload) => Self::envelopes(self.instance.broadcast(payload)),
            None => Vec::new(),
        }
    }

    fn on_message(&mut self, from: NodeId, payload: &[u8]) -> Vec<Envelope> {
        let Ok(msg) = RbcMsg::from_bytes(payload) else {
            return Vec::new();
        };
        Self::envelopes(self.instance.on_message(from, &msg))
    }

    fn output(&self) -> Option<Bytes> {
        self.instance.delivered().cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delphi_primitives::wire::roundtrip;
    use delphi_sim::adversary::Faulty;
    use delphi_sim::{Simulation, Topology};

    #[test]
    fn msg_roundtrip() {
        for msg in [
            RbcMsg::Send(Bytes::from_static(b"a")),
            RbcMsg::Echo(Bytes::from_static(b"")),
            RbcMsg::Ready(Bytes::from_static(b"xyz")),
        ] {
            assert_eq!(roundtrip(&msg).unwrap(), msg);
        }
        assert!(RbcMsg::from_bytes(&[9, 0]).is_err());
    }

    fn run_rbc(
        n: usize,
        t: usize,
        payload: &'static [u8],
        faulty: &[usize],
        make_faulty: impl Fn(NodeId) -> Box<dyn Protocol<Output = Bytes>>,
        seed: u64,
    ) -> Vec<Bytes> {
        let nodes: Vec<Box<dyn Protocol<Output = Bytes>>> = NodeId::all(n)
            .map(|id| {
                if faulty.contains(&id.index()) {
                    make_faulty(id)
                } else {
                    let p = (id == NodeId(0)).then(|| Bytes::from_static(payload));
                    RbcNode::new(id, n, t, NodeId(0), p).boxed()
                }
            })
            .collect();
        let faulty_ids: Vec<NodeId> = faulty.iter().map(|&i| NodeId(i as u16)).collect();
        let report = Simulation::new(Topology::lan(n)).seed(seed).faulty(&faulty_ids).run(nodes);
        assert!(report.all_honest_finished(), "RBC stalled: {:?}", report.stop);
        report.honest_outputs().cloned().collect()
    }

    #[test]
    fn validity_honest_broadcaster() {
        let outs = run_rbc(4, 1, b"hello", &[], |_| unreachable!(), 1);
        for o in outs {
            assert_eq!(&o[..], b"hello");
        }
    }

    #[test]
    fn tolerates_crashed_follower() {
        let outs = run_rbc(4, 1, b"hello", &[2], |id| Box::new(Faulty::crash(id, 4)), 2);
        assert_eq!(outs.len(), 3);
        for o in outs {
            assert_eq!(&o[..], b"hello");
        }
    }

    #[test]
    fn equivocating_broadcaster_cannot_split_delivery() {
        // Run several schedules; honest nodes may or may not deliver, but
        // any two that deliver must deliver the same payload (agreement).
        for seed in 0..10 {
            let n = 4;
            let nodes: Vec<Box<dyn Protocol<Output = Bytes>>> = NodeId::all(n)
                .map(|id| {
                    if id == NodeId(0) {
                        // Equivocating broadcaster: payload A to half, B to the rest.
                        let mut sends: Vec<_> = NodeId::all(n)
                            .map(|d| {
                                let payload = if d.0 % 2 == 0 { b"AAAA" } else { b"BBBB" };
                                (Some(d), RbcMsg::Send(Bytes::from_static(payload)).to_bytes())
                            })
                            .collect();
                        let two_faced = move |_: Option<&[u8]>| std::mem::take(&mut sends);
                        Box::new(Faulty::new(id, n, two_faced)) as Box<dyn Protocol<Output = Bytes>>
                    } else {
                        RbcNode::new(id, n, 1, NodeId(0), None).boxed()
                    }
                })
                .collect();
            let report =
                Simulation::new(Topology::lan(n)).seed(seed).faulty(&[NodeId(0)]).run(nodes);
            let delivered: Vec<&Bytes> = report.outputs[1..].iter().flatten().collect();
            for a in &delivered {
                for b in &delivered {
                    assert_eq!(a, b, "agreement violated at seed {seed}");
                }
            }
        }
    }

    #[test]
    fn totality_one_delivers_all_deliver() {
        // With an honest broadcaster and no faults every node delivers;
        // covered by validity test. Here: broadcaster crashes after SEND
        // reaches everyone — totality still holds because echoes flow.
        let n = 4;
        let nodes: Vec<Box<dyn Protocol<Output = Bytes>>> = NodeId::all(n)
            .map(|id| {
                let p = (id == NodeId(0)).then(|| Bytes::from_static(b"once"));
                if id == NodeId(0) {
                    // Broadcaster sends, then never responds again.
                    Box::new(delphi_sim::adversary::SilentAfter::new(
                        RbcNode::new(id, n, 1, NodeId(0), p),
                        0,
                    )) as Box<dyn Protocol<Output = Bytes>>
                } else {
                    RbcNode::new(id, n, 1, NodeId(0), p).boxed()
                }
            })
            .collect();
        let report = Simulation::new(Topology::lan(n)).seed(5).faulty(&[NodeId(0)]).run(nodes);
        assert!(report.all_honest_finished());
        for o in report.honest_outputs() {
            assert_eq!(&o[..], b"once");
        }
    }

    #[test]
    fn non_broadcaster_send_ignored() {
        let mut inst = RbcInstance::new(NodeId(0), 4, 1, NodeId(1));
        let actions = inst.on_message(NodeId(2), &RbcMsg::Send(Bytes::from_static(b"fake")));
        assert!(actions.is_empty());
        assert!(!inst.sent_echo);
    }

    #[test]
    fn duplicate_echoes_ignored() {
        let mut inst = RbcInstance::new(NodeId(0), 4, 1, NodeId(1));
        let payload = Bytes::from_static(b"p");
        let _ = inst.on_message(NodeId(2), &RbcMsg::Echo(payload.clone()));
        let _ = inst.on_message(NodeId(2), &RbcMsg::Echo(payload.clone()));
        assert_eq!(inst.echoes[0].senders.len(), 1);
        // A sender switching payloads is also ignored (one echo each).
        let _ = inst.on_message(NodeId(2), &RbcMsg::Echo(Bytes::from_static(b"q")));
        assert_eq!(inst.echoes.len(), 1);
    }

    #[test]
    fn digest_flood_bounded() {
        let mut inst = RbcInstance::new(NodeId(0), 40, 13, NodeId(1));
        for i in 0..20u16 {
            let payload = Bytes::from(i.to_be_bytes().to_vec());
            let _ = inst.on_message(NodeId(i + 2), &RbcMsg::Echo(payload));
        }
        assert!(inst.echoes.len() <= MAX_TRACKED_DIGESTS);
    }

    #[test]
    #[should_panic(expected = "only the broadcaster")]
    fn non_broadcaster_cannot_start() {
        let mut inst = RbcInstance::new(NodeId(0), 4, 1, NodeId(1));
        let _ = inst.broadcast(Bytes::from_static(b"nope"));
    }
}
