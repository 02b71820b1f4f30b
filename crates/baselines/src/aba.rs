//! Signature-free asynchronous binary agreement (Mostéfaoui–Moumen–Raynal
//! style, the paper's [43]).
//!
//! Each round: binary-value broadcast (`BVAL` with `t + 1` amplification
//! and `2t + 1` acceptance), one `AUX` vote, a common-coin flip, and the
//! MMR decision rule (decide when the unique supported value matches the
//! coin). A standard decided-gossip gadget (`DONE` messages with `t + 1`
//! adoption / `n − t` halt) gives clean termination.
//!
//! [`AbaInstance`] is embeddable (the ACS runs `n` in parallel);
//! [`AbaNode`] wraps one instance as a standalone [`Protocol`].

use delphi_primitives::wire::{Decode, Encode, Reader, WireError, Writer};
use delphi_primitives::{Envelope, NodeBitSet, NodeId, Protocol, Round};

use crate::coin::CoinKeeper;

/// Safety cap on rounds; expected round count is O(1) with a common coin.
pub const MAX_ABA_ROUNDS: u16 = 64;

/// An ABA protocol message (tagged with its instance id so `n` parallel
/// instances can share a channel).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AbaMsg {
    /// Instance the message belongs to (ACS: the broadcaster index).
    pub instance: u16,
    /// Round within the instance (ignored for `Done`).
    pub round: Round,
    /// Message body.
    pub kind: AbaKind,
}

/// ABA message bodies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbaKind {
    /// Binary-value broadcast vote.
    Bval(bool),
    /// Support vote for a bin_values member.
    Aux(bool),
    /// Common-coin share for the round.
    CoinShare,
    /// Decided-value gossip.
    Done(bool),
}

impl Encode for AbaMsg {
    fn encode(&self, w: &mut Writer) {
        w.put_u16(self.instance);
        w.put(&self.round);
        match self.kind {
            AbaKind::Bval(v) => {
                w.put_raw_u8(0);
                w.put_bool(v);
            }
            AbaKind::Aux(v) => {
                w.put_raw_u8(1);
                w.put_bool(v);
            }
            AbaKind::CoinShare => w.put_raw_u8(2),
            AbaKind::Done(v) => {
                w.put_raw_u8(3);
                w.put_bool(v);
            }
        }
    }
}

impl Decode for AbaMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let instance = r.get_u16()?;
        let round = r.get::<Round>()?;
        let kind = match r.get_raw_u8()? {
            0 => AbaKind::Bval(r.get_bool()?),
            1 => AbaKind::Aux(r.get_bool()?),
            2 => AbaKind::CoinShare,
            3 => AbaKind::Done(r.get_bool()?),
            d => return Err(WireError::InvalidDiscriminant(u64::from(d))),
        };
        Ok(AbaMsg { instance, round, kind })
    }
}

#[derive(Clone, Debug)]
struct AbaRound {
    bval_sent: [bool; 2],
    bval_recv: [NodeBitSet; 2],
    bin_values: [bool; 2],
    aux_sent: bool,
    aux_senders: NodeBitSet,
    aux_recv: [NodeBitSet; 2],
    share_sent: bool,
}

impl AbaRound {
    fn new(n: usize) -> AbaRound {
        AbaRound {
            bval_sent: [false; 2],
            bval_recv: [NodeBitSet::new(n), NodeBitSet::new(n)],
            bin_values: [false; 2],
            aux_sent: false,
            aux_senders: NodeBitSet::new(n),
            aux_recv: [NodeBitSet::new(n), NodeBitSet::new(n)],
            share_sent: false,
        }
    }
}

/// One node's state for one binary agreement instance.
#[derive(Debug)]
pub struct AbaInstance {
    me: NodeId,
    n: usize,
    t: usize,
    id: u16,
    round: u16,
    est: bool,
    started: bool,
    rounds: Vec<AbaRound>,
    decided: Option<bool>,
    done_sent: bool,
    done_recv: [NodeBitSet; 2],
    halted: bool,
}

impl AbaInstance {
    /// Creates instance `id` for node `me` of an `(n, t)` system.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3t + 1` or `me` is out of range.
    pub fn new(me: NodeId, n: usize, t: usize, id: u16) -> AbaInstance {
        assert!(n > 3 * t, "ABA requires n >= 3t + 1");
        assert!(me.index() < n, "node id out of range");
        AbaInstance {
            me,
            n,
            t,
            id,
            round: 1,
            est: false,
            started: false,
            rounds: Vec::new(),
            decided: None,
            done_sent: false,
            done_recv: [NodeBitSet::new(n), NodeBitSet::new(n)],
            halted: false,
        }
    }

    /// This instance's id.
    pub fn id(&self) -> u16 {
        self.id
    }

    /// Whether [`AbaInstance::set_input`] has been called.
    pub fn started(&self) -> bool {
        self.started
    }

    /// The decision, once reached.
    pub fn decision(&self) -> Option<bool> {
        self.decided
    }

    /// Whether the instance has fully halted (decision spread widely
    /// enough that no further messages are useful).
    pub fn halted(&self) -> bool {
        self.halted
    }

    fn round_mut(&mut self, round: Round) -> &mut AbaRound {
        let idx = round.index();
        while self.rounds.len() <= idx {
            self.rounds.push(AbaRound::new(self.n));
        }
        &mut self.rounds[idx]
    }

    /// Supplies the initial estimate; returns messages to broadcast.
    pub fn set_input(&mut self, est: bool, coins: &mut CoinKeeper) -> Vec<AbaMsg> {
        if self.started {
            return Vec::new();
        }
        self.started = true;
        self.est = est;
        let mut out = Vec::new();
        self.send_bval(Round(1), est, &mut out);
        self.progress(coins, &mut out);
        out
    }

    /// Handles one message; returns messages to broadcast.
    pub fn on_message(
        &mut self,
        from: NodeId,
        round: Round,
        kind: AbaKind,
        coins: &mut CoinKeeper,
    ) -> Vec<AbaMsg> {
        let mut out = Vec::new();
        if self.halted || from.index() >= self.n {
            return out;
        }
        match kind {
            AbaKind::Done(v) => {
                self.done_recv[usize::from(v)].insert(from);
                self.check_done(&mut out);
            }
            _ if round.0 < 1 || round.0 > MAX_ABA_ROUNDS => {}
            AbaKind::Bval(v) => {
                let t = self.t;
                let st = self.round_mut(round);
                st.bval_recv[usize::from(v)].insert(from);
                let count = st.bval_recv[usize::from(v)].len();
                if count > t && !st.bval_sent[usize::from(v)] {
                    self.send_bval(round, v, &mut out);
                }
                let st = self.round_mut(round);
                if st.bval_recv[usize::from(v)].len() > 2 * t {
                    st.bin_values[usize::from(v)] = true;
                }
            }
            AbaKind::Aux(v) => {
                let st = self.round_mut(round);
                if st.aux_senders.insert(from) {
                    st.aux_recv[usize::from(v)].insert(from);
                }
            }
            AbaKind::CoinShare => {
                coins.add_share(self.id, round.0, from);
            }
        }
        self.progress(coins, &mut out);
        out
    }

    fn send_bval(&mut self, round: Round, v: bool, out: &mut Vec<AbaMsg>) {
        let me = self.me;
        let st = self.round_mut(round);
        if st.bval_sent[usize::from(v)] {
            return;
        }
        st.bval_sent[usize::from(v)] = true;
        st.bval_recv[usize::from(v)].insert(me);
        out.push(AbaMsg { instance: self.id, round, kind: AbaKind::Bval(v) });
    }

    fn check_done(&mut self, out: &mut Vec<AbaMsg>) {
        for v in [false, true] {
            let count = self.done_recv[usize::from(v)].len();
            if count > self.t && !self.done_sent {
                self.decided.get_or_insert(v);
                self.send_done(v, out);
            }
            if count >= self.n - self.t {
                self.decided.get_or_insert(v);
                self.halted = true;
            }
        }
    }

    fn send_done(&mut self, v: bool, out: &mut Vec<AbaMsg>) {
        if self.done_sent {
            return;
        }
        self.done_sent = true;
        self.done_recv[usize::from(v)].insert(self.me);
        out.push(AbaMsg { instance: self.id, round: Round(0), kind: AbaKind::Done(v) });
        // Our own DONE may complete a threshold.
        let mut extra = Vec::new();
        self.check_done(&mut extra);
        out.extend(extra);
    }

    /// Runs the round state machine to quiescence.
    fn progress(&mut self, coins: &mut CoinKeeper, out: &mut Vec<AbaMsg>) {
        if !self.started || self.halted {
            return;
        }
        loop {
            if self.round > MAX_ABA_ROUNDS {
                return; // safety cap; callers detect the stall in tests
            }
            let round = Round(self.round);
            let me = self.me;
            let (n, t, id) = (self.n, self.t, self.id);
            let est = self.est;
            let st = self.round_mut(round);

            // Make sure our estimate's BVAL went out for this round.
            if !st.bval_sent[usize::from(est)] {
                st.bval_sent[usize::from(est)] = true;
                st.bval_recv[usize::from(est)].insert(me);
                out.push(AbaMsg { instance: id, round, kind: AbaKind::Bval(est) });
                continue;
            }
            // bin_values updates can come from our own BVALs too.
            for v in [false, true] {
                if st.bval_recv[usize::from(v)].len() > 2 * t {
                    st.bin_values[usize::from(v)] = true;
                }
            }
            // AUX once bin_values is non-empty.
            if !st.aux_sent {
                let w = if st.bin_values[1] {
                    Some(true)
                } else if st.bin_values[0] {
                    Some(false)
                } else {
                    None
                };
                if let Some(w) = w {
                    st.aux_sent = true;
                    if st.aux_senders.insert(me) {
                        st.aux_recv[usize::from(w)].insert(me);
                    }
                    out.push(AbaMsg { instance: id, round, kind: AbaKind::Aux(w) });
                    continue;
                }
                return; // waiting for bin_values
            }
            // n − t AUX votes carrying bin_values members.
            let mut supported = 0usize;
            let mut vals = [false; 2];
            for v in [false, true] {
                if st.bin_values[usize::from(v)] {
                    let c = st.aux_recv[usize::from(v)].len();
                    if c > 0 {
                        vals[usize::from(v)] = true;
                    }
                    supported += c;
                }
            }
            if supported < n - t {
                return; // waiting for AUX quorum
            }
            // Coin: broadcast our share, wait for reconstruction.
            if !st.share_sent {
                st.share_sent = true;
                coins.add_share(id, round.0, me);
                out.push(AbaMsg { instance: id, round, kind: AbaKind::CoinShare });
                continue;
            }
            let Some(coin) = coins.value(id, round.0) else {
                return; // waiting for t + 1 shares
            };
            // MMR decision rule.
            match (vals[0], vals[1]) {
                (true, false) | (false, true) => {
                    let v = vals[1];
                    if v == coin {
                        if self.decided.is_none() {
                            self.decided = Some(v);
                            self.send_done(v, out);
                        }
                        return;
                    }
                    self.est = v;
                }
                (true, true) => self.est = coin,
                (false, false) => unreachable!("supported >= n - t implies a value"),
            }
            self.round += 1;
        }
    }
}

/// A standalone ABA node.
///
/// # Example
///
/// ```
/// use delphi_baselines::AbaNode;
/// use delphi_primitives::{NodeId, Protocol};
/// use delphi_sim::{Simulation, Topology};
///
/// let n = 4;
/// let inputs = [true, true, false, true];
/// let nodes = NodeId::all(n)
///     .map(|id| AbaNode::new(id, n, 1, inputs[id.index()], b"seed").boxed())
///     .collect();
/// let report = Simulation::new(Topology::lan(n)).seed(1).run(nodes);
/// let decisions: Vec<bool> = report.honest_outputs().copied().collect();
/// // Agreement: all nodes decide the same bit.
/// assert!(decisions.windows(2).all(|w| w[0] == w[1]));
/// ```
#[derive(Debug)]
pub struct AbaNode {
    instance: AbaInstance,
    coins: CoinKeeper,
    input: bool,
}

impl AbaNode {
    /// Creates a node with initial estimate `input`; `coin_seed` is the
    /// shared seed of the simulated coin.
    pub fn new(me: NodeId, n: usize, t: usize, input: bool, coin_seed: &[u8]) -> AbaNode {
        AbaNode {
            instance: AbaInstance::new(me, n, t, 0),
            coins: CoinKeeper::new(coin_seed, n, t),
            input,
        }
    }

    /// Boxes the node for use with heterogeneous drivers.
    pub fn boxed(self) -> Box<dyn Protocol<Output = bool>> {
        Box::new(self)
    }

    fn envelopes(msgs: Vec<AbaMsg>) -> Vec<Envelope> {
        msgs.into_iter().map(|m| Envelope::to_all(m.to_bytes())).collect()
    }
}

impl Protocol for AbaNode {
    type Output = bool;

    fn node_id(&self) -> NodeId {
        self.instance.me
    }

    fn n(&self) -> usize {
        self.instance.n
    }

    fn start(&mut self) -> Vec<Envelope> {
        let input = self.input;
        Self::envelopes(self.instance.set_input(input, &mut self.coins))
    }

    fn on_message(&mut self, from: NodeId, payload: &[u8]) -> Vec<Envelope> {
        let Ok(msg) = AbaMsg::from_bytes(payload) else {
            return Vec::new();
        };
        if msg.instance != 0 {
            return Vec::new();
        }
        Self::envelopes(self.instance.on_message(from, msg.round, msg.kind, &mut self.coins))
    }

    fn output(&self) -> Option<bool> {
        self.instance.decision()
    }

    fn is_finished(&self) -> bool {
        self.instance.halted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delphi_primitives::wire::roundtrip;
    use delphi_sim::adversary::Faulty;
    use delphi_sim::{Simulation, Topology};
    use proptest::prelude::*;

    #[test]
    fn msg_roundtrips() {
        for kind in
            [AbaKind::Bval(true), AbaKind::Aux(false), AbaKind::CoinShare, AbaKind::Done(true)]
        {
            let m = AbaMsg { instance: 3, round: Round(2), kind };
            assert_eq!(roundtrip(&m).unwrap(), m);
        }
        assert!(AbaMsg::from_bytes(&[0, 1, 9]).is_err());
    }

    fn run_aba(n: usize, t: usize, inputs: &[bool], faulty: &[usize], seed: u64) -> Vec<bool> {
        let nodes: Vec<Box<dyn Protocol<Output = bool>>> = NodeId::all(n)
            .map(|id| {
                if faulty.contains(&id.index()) {
                    Box::new(Faulty::crash(id, n)) as Box<dyn Protocol<Output = bool>>
                } else {
                    AbaNode::new(id, n, t, inputs[id.index()], b"coin").boxed()
                }
            })
            .collect();
        let faulty_ids: Vec<NodeId> = faulty.iter().map(|&i| NodeId(i as u16)).collect();
        let report = Simulation::new(Topology::lan(n)).seed(seed).faulty(&faulty_ids).run(nodes);
        assert!(report.all_honest_finished(), "ABA stalled: {:?} seed {seed}", report.stop);
        report.honest_outputs().copied().collect()
    }

    #[test]
    fn unanimous_inputs_decide_that_value() {
        for v in [false, true] {
            let outs = run_aba(4, 1, &[v; 4], &[], 1);
            for o in outs {
                assert_eq!(o, v, "validity for {v}");
            }
        }
    }

    #[test]
    fn split_inputs_agree() {
        for seed in 0..8 {
            let outs = run_aba(4, 1, &[true, false, true, false], &[], seed);
            assert!(outs.windows(2).all(|w| w[0] == w[1]), "agreement at seed {seed}");
        }
    }

    #[test]
    fn tolerates_crash() {
        let outs = run_aba(4, 1, &[true, true, true, false], &[3], 5);
        assert_eq!(outs.len(), 3);
        assert!(outs.windows(2).all(|w| w[0] == w[1]));
        // Validity: all honest inputs are 1.
        assert!(outs[0]);
    }

    #[test]
    fn tolerates_garbage() {
        let n = 4;
        let nodes: Vec<Box<dyn Protocol<Output = bool>>> = NodeId::all(n)
            .map(|id| {
                if id.index() == 2 {
                    Box::new(Faulty::garbage(id, n, 4, 2, 32, 40))
                        as Box<dyn Protocol<Output = bool>>
                } else {
                    AbaNode::new(id, n, 1, id.index() == 0, b"coin").boxed()
                }
            })
            .collect();
        let report = Simulation::new(Topology::lan(n)).seed(6).faulty(&[NodeId(2)]).run(nodes);
        assert!(report.all_honest_finished());
        let outs: Vec<bool> = report.honest_outputs().copied().collect();
        assert!(outs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn larger_system() {
        let inputs: Vec<bool> = (0..7).map(|i| i % 2 == 0).collect();
        let outs = run_aba(7, 2, &inputs, &[], 9);
        assert!(outs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn done_gossip_adoption() {
        // A node that hears t+1 DONEs adopts the decision without
        // finishing its own rounds.
        let mut coins = CoinKeeper::new(b"c", 4, 1);
        let mut inst = AbaInstance::new(NodeId(0), 4, 1, 0);
        let _ = inst.set_input(true, &mut coins);
        let _ = inst.on_message(NodeId(1), Round(0), AbaKind::Done(false), &mut coins);
        assert_eq!(inst.decision(), None);
        let out = inst.on_message(NodeId(2), Round(0), AbaKind::Done(false), &mut coins);
        assert_eq!(inst.decision(), Some(false));
        assert!(out.iter().any(|m| matches!(m.kind, AbaKind::Done(false))), "forwards DONE");
        // n − t DONEs halt the instance.
        let _ = inst.on_message(NodeId(3), Round(0), AbaKind::Done(false), &mut coins);
        assert!(inst.halted());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_agreement_validity(
            n in 4usize..8,
            bits in proptest::collection::vec(any::<bool>(), 8),
            seed in 0u64..u64::MAX,
        ) {
            let t = (n - 1) / 3;
            let outs = run_aba(n, t, &bits[..n], &[], seed);
            prop_assert!(outs.windows(2).all(|w| w[0] == w[1]));
            // Validity: decision is some node's input.
            prop_assert!(bits[..n].contains(&outs[0]));
        }
    }
}
