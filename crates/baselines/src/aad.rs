//! Abraham–Amit–Dolev asynchronous approximate agreement (the paper's
//! [1]) — the state-of-the-art AA baseline of Fig. 6.
//!
//! Round structure, per the witness technique:
//!
//! 1. every node reliably broadcasts its round-`r` value (`n` parallel
//!    RBCs — `O(n³)` messages per round, the §III-A bottleneck);
//! 2. after delivering `n − t` values it broadcasts a **witness**: the id
//!    set it delivered;
//! 3. a witness is *satisfied* once all its ids have been delivered
//!    locally; after `n − t` satisfied witnesses, any two honest nodes
//!    share at least `n − t ≥ 2t + 1` delivered values;
//! 4. the node updates its value to the midpoint of its delivered values
//!    after trimming the `t` lowest and `t` highest, which halves the
//!    honest range per round;
//! 5. after `R = ⌈log2(δ_max/ε)⌉` rounds the value is the output.

use bytes::Bytes;
use delphi_primitives::wire::{Decode, Encode, Reader, WireError, Writer};
use delphi_primitives::{Envelope, NodeId, Protocol};

use crate::rbc::{RbcInstance, RbcMsg};

/// Safety cap on configured rounds.
pub const MAX_AAD_ROUNDS: u16 = 64;

/// An AAD wire message.
#[derive(Clone, Debug, PartialEq)]
pub enum AadMsg {
    /// RBC traffic for `broadcaster`'s round-`round` value.
    Rbc {
        /// AAD round the broadcast belongs to (1-based).
        round: u16,
        /// Whose value is being broadcast.
        broadcaster: NodeId,
        /// The RBC message body.
        inner: RbcMsg,
    },
    /// The sender's delivered-id set for `round`.
    Witness {
        /// AAD round the witness reports on.
        round: u16,
        /// Ids the sender has delivered for that round.
        ids: Vec<u16>,
    },
}

impl Encode for AadMsg {
    fn encode(&self, w: &mut Writer) {
        match self {
            AadMsg::Rbc { round, broadcaster, inner } => {
                w.put_raw_u8(0);
                w.put_u16(*round);
                w.put(broadcaster);
                w.put(inner);
            }
            AadMsg::Witness { round, ids } => {
                w.put_raw_u8(1);
                w.put_u16(*round);
                w.put_seq(ids);
            }
        }
    }
}

impl Decode for AadMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_raw_u8()? {
            0 => Ok(AadMsg::Rbc { round: r.get_u16()?, broadcaster: r.get()?, inner: r.get()? }),
            1 => Ok(AadMsg::Witness { round: r.get_u16()?, ids: r.get_seq(1024)? }),
            d => Err(WireError::InvalidDiscriminant(u64::from(d))),
        }
    }
}

#[derive(Debug)]
struct AadRoundState {
    rbcs: Vec<RbcInstance>,
    values: Vec<Option<f64>>,
    /// Whether each sender's witness has been registered (first wins).
    witness_seen: Vec<bool>,
    /// Undelivered ids remaining per registered witness.
    witness_missing: Vec<usize>,
    /// Reverse index: broadcaster id → witness senders waiting on it.
    waiting_on: Vec<Vec<u16>>,
    /// Broadcasts delivered in this round (count drives the witness rule).
    delivered_count: usize,
    /// Witnesses whose id sets are fully delivered locally.
    satisfied: usize,
    witness_sent: bool,
    broadcast_started: bool,
}

impl AadRoundState {
    fn new(me: NodeId, n: usize, t: usize) -> AadRoundState {
        AadRoundState {
            rbcs: NodeId::all(n).map(|b| RbcInstance::new(me, n, t, b)).collect(),
            values: vec![None; n],
            witness_seen: vec![false; n],
            witness_missing: vec![0; n],
            waiting_on: vec![Vec::new(); n],
            delivered_count: 0,
            satisfied: 0,
            witness_sent: false,
            broadcast_started: false,
        }
    }

    /// Records that broadcaster `j`'s RBC delivered, updating witness
    /// satisfaction incrementally (O(waiters), amortized O(1)).
    ///
    /// Callers invoke this exactly once per delivered broadcaster.
    fn on_delivered(&mut self, j: usize, payload: &Bytes) {
        self.delivered_count += 1;
        self.values[j] = AadNode::decode_value(payload);
        for w in std::mem::take(&mut self.waiting_on[j]) {
            let missing = &mut self.witness_missing[usize::from(w)];
            *missing -= 1;
            if *missing == 0 {
                self.satisfied += 1;
            }
        }
    }

    /// Registers a witness id set from `from` (first one wins).
    fn on_witness(&mut self, from: NodeId, ids: &[u16], n: usize) {
        if self.witness_seen[from.index()] {
            return;
        }
        self.witness_seen[from.index()] = true;
        let mut missing = 0;
        for &j in ids {
            let j_us = usize::from(j);
            if j_us >= n {
                continue;
            }
            if self.rbcs[j_us].delivered().is_none() {
                missing += 1;
                self.waiting_on[j_us].push(from.0);
            }
        }
        self.witness_missing[from.index()] = missing;
        if missing == 0 {
            self.satisfied += 1;
        }
    }
}

/// An Abraham et al. approximate-agreement node.
///
/// # Example
///
/// ```
/// use delphi_baselines::AadNode;
/// use delphi_primitives::{NodeId, Protocol};
/// use delphi_sim::{Simulation, Topology};
///
/// let n = 4;
/// let inputs = [10.0, 10.4, 10.8, 11.0];
/// // R = 6 rounds halve the range to ≤ (11 − 10) / 2^6.
/// let nodes = NodeId::all(n)
///     .map(|id| AadNode::new(id, n, 1, inputs[id.index()], 6).boxed())
///     .collect();
/// let report = Simulation::new(Topology::lan(n)).seed(5).run(nodes);
/// let outs: Vec<f64> = report.honest_outputs().copied().collect();
/// for pair in outs.windows(2) {
///     assert!((pair[0] - pair[1]).abs() <= 1.0 / 64.0 + 1e-12);
/// }
/// ```
#[derive(Debug)]
pub struct AadNode {
    me: NodeId,
    n: usize,
    t: usize,
    total_rounds: u16,
    value: f64,
    round: u16,
    rounds: Vec<AadRoundState>,
    output: Option<f64>,
}

impl AadNode {
    /// Creates a node with input `value` running `rounds` rounds
    /// (use `⌈log2(δ_max/ε)⌉` for ε-agreement).
    ///
    /// # Panics
    ///
    /// Panics if `n < 3t + 1`, `me` is out of range, or
    /// `rounds ∉ 1..=`[`MAX_AAD_ROUNDS`].
    pub fn new(me: NodeId, n: usize, t: usize, value: f64, rounds: u16) -> AadNode {
        assert!(n > 3 * t, "AAD requires n >= 3t + 1");
        assert!(me.index() < n, "node id out of range");
        assert!((1..=MAX_AAD_ROUNDS).contains(&rounds), "rounds must be in 1..={MAX_AAD_ROUNDS}");
        let value = if value.is_finite() { value } else { 0.0 };
        AadNode {
            me,
            n,
            t,
            total_rounds: rounds,
            value,
            round: 1,
            rounds: Vec::new(),
            output: None,
        }
    }

    /// Boxes the node for use with heterogeneous drivers.
    pub fn boxed(self) -> Box<dyn Protocol<Output = f64>> {
        Box::new(self)
    }

    fn round_mut(&mut self, round: u16) -> &mut AadRoundState {
        let idx = usize::from(round) - 1;
        while self.rounds.len() <= idx {
            self.rounds.push(AadRoundState::new(self.me, self.n, self.t));
        }
        &mut self.rounds[idx]
    }

    fn decode_value(payload: &Bytes) -> Option<f64> {
        f64::from_bytes(payload).ok().filter(|v| v.is_finite())
    }

    /// Absorbs a possible fresh delivery for broadcaster `b`
    /// (`was_delivered` is the pre-call state, so this fires exactly once).
    fn absorb_delivery(st: &mut AadRoundState, b: usize, was_delivered: bool) {
        if !was_delivered {
            if let Some(p) = st.rbcs[b].delivered().cloned() {
                st.on_delivered(b, &p);
            }
        }
    }

    /// Runs broadcasts → witnesses → round advancement to quiescence.
    /// All checks are O(1) thanks to the incremental witness accounting
    /// in [`AadRoundState`]; only the once-per-round witness-id snapshot
    /// and trimmed-midpoint update are O(n) / O(n log n).
    fn progress(&mut self, out: &mut Vec<AadMsg>) {
        loop {
            if self.output.is_some() {
                return;
            }
            let round = self.round;
            let me = self.me;
            let (n, t) = (self.n, self.t);

            // Kick off our broadcast for the current round.
            let value = self.value;
            let st = self.round_mut(round);
            if !st.broadcast_started {
                st.broadcast_started = true;
                let mut w = Writer::new();
                w.put_f64(value);
                let was = st.rbcs[me.index()].delivered().is_some();
                let actions = st.rbcs[me.index()].broadcast(w.into_bytes());
                Self::absorb_delivery(st, me.index(), was);
                out.extend(actions.into_iter().map(|inner| AadMsg::Rbc {
                    round,
                    broadcaster: me,
                    inner,
                }));
            }

            // Witness after n − t deliveries.
            if !st.witness_sent && st.delivered_count >= n - t {
                st.witness_sent = true;
                let ids: Vec<u16> = (0..n as u16)
                    .filter(|&j| st.rbcs[usize::from(j)].delivered().is_some())
                    .collect();
                st.on_witness(me, &ids, n);
                out.push(AadMsg::Witness { round, ids });
            }

            // Advance on n − t satisfied witnesses.
            if st.witness_sent && st.satisfied >= n - t {
                // Trimmed-midpoint update over the decodable values.
                let mut vals: Vec<f64> = st.values.iter().flatten().copied().collect();
                vals.sort_by(f64::total_cmp);
                if vals.len() > 2 * t {
                    let kept = &vals[t..vals.len() - t];
                    self.value = (kept[0] + kept[kept.len() - 1]) / 2.0;
                }
                self.round += 1;
                if self.round > self.total_rounds {
                    self.output = Some(self.value);
                }
                continue;
            }
            return;
        }
    }

    fn envelopes(msgs: Vec<AadMsg>) -> Vec<Envelope> {
        msgs.into_iter().map(|m| Envelope::to_all(m.to_bytes())).collect()
    }
}

impl Protocol for AadNode {
    type Output = f64;

    fn node_id(&self) -> NodeId {
        self.me
    }

    fn n(&self) -> usize {
        self.n
    }

    fn start(&mut self) -> Vec<Envelope> {
        let mut out = Vec::new();
        self.progress(&mut out);
        Self::envelopes(out)
    }

    fn on_message(&mut self, from: NodeId, payload: &[u8]) -> Vec<Envelope> {
        if from.index() >= self.n {
            return Vec::new();
        }
        let Ok(msg) = AadMsg::from_bytes(payload) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        match msg {
            AadMsg::Rbc { round, broadcaster, inner } => {
                if round < 1 || round > self.total_rounds || broadcaster.index() >= self.n {
                    return Vec::new();
                }
                let b = broadcaster.index();
                let st = self.round_mut(round);
                let was = st.rbcs[b].delivered().is_some();
                let actions = st.rbcs[b].on_message(from, &inner);
                Self::absorb_delivery(st, b, was);
                out.extend(actions.into_iter().map(|inner| AadMsg::Rbc {
                    round,
                    broadcaster,
                    inner,
                }));
            }
            AadMsg::Witness { round, ids } => {
                if round < 1 || round > self.total_rounds || ids.len() > self.n {
                    return Vec::new();
                }
                let n = self.n;
                let st = self.round_mut(round);
                st.on_witness(from, &ids, n);
            }
        }
        self.progress(&mut out);
        Self::envelopes(out)
    }

    fn output(&self) -> Option<f64> {
        self.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delphi_primitives::wire::roundtrip;
    use delphi_sim::adversary::Faulty;
    use delphi_sim::{judge, spread, Simulation, Topology};
    use proptest::prelude::*;

    #[test]
    fn msg_roundtrip() {
        let m = AadMsg::Rbc {
            round: 2,
            broadcaster: NodeId(1),
            inner: RbcMsg::Ready(Bytes::from_static(b"v")),
        };
        assert_eq!(roundtrip(&m).unwrap(), m);
        let m = AadMsg::Witness { round: 3, ids: vec![0, 1, 2] };
        assert_eq!(roundtrip(&m).unwrap(), m);
    }

    fn run_aad(
        n: usize,
        t: usize,
        inputs: &[f64],
        rounds: u16,
        faulty: &[usize],
        seed: u64,
    ) -> Vec<f64> {
        let nodes: Vec<Box<dyn Protocol<Output = f64>>> = NodeId::all(n)
            .map(|id| {
                if faulty.contains(&id.index()) {
                    Box::new(Faulty::crash(id, n)) as Box<dyn Protocol<Output = f64>>
                } else {
                    AadNode::new(id, n, t, inputs[id.index()], rounds).boxed()
                }
            })
            .collect();
        let faulty_ids: Vec<NodeId> = faulty.iter().map(|&i| NodeId(i as u16)).collect();
        let report = Simulation::new(Topology::lan(n)).seed(seed).faulty(&faulty_ids).run(nodes);
        assert!(report.all_honest_finished(), "AAD stalled: {:?} seed {seed}", report.stop);
        report.honest_outputs().copied().collect()
    }

    /// AAD's round-derived ε: every round halves the honest spread δ.
    fn round_epsilon(inputs: &[f64], rounds: u16) -> f64 {
        spread(inputs) / 2f64.powi(i32::from(rounds))
    }

    #[test]
    fn converges_within_epsilon() {
        let inputs = [0.0, 1.0, 2.0, 4.0];
        // δ = 4; 7 rounds halve to 4/128 < 0.05.
        let outs = run_aad(4, 1, &inputs, 7, &[], 1);
        judge(&outs, &inputs, round_epsilon(&inputs, 7), None).unwrap();
    }

    #[test]
    fn identical_inputs_fixed_point() {
        let outs = run_aad(4, 1, &[7.5; 4], 4, &[], 2);
        for o in outs {
            assert!((o - 7.5).abs() < 1e-12);
        }
    }

    #[test]
    fn tolerates_crash() {
        let inputs = [1.0, 2.0, 3.0, 999.0];
        let outs = run_aad(4, 1, &inputs, 6, &[3], 3);
        assert_eq!(outs.len(), 3);
        judge(&outs, &inputs[..3], round_epsilon(&inputs[..3], 6), None).unwrap();
    }

    #[test]
    fn byzantine_value_is_trimmed() {
        // A Byzantine node runs the protocol honestly but with an extreme
        // input; trimming keeps honest outputs near the honest cluster.
        for seed in 0..5 {
            let n = 4;
            let nodes: Vec<Box<dyn Protocol<Output = f64>>> = NodeId::all(n)
                .map(|id| {
                    let v = if id.index() == 3 { 1e9 } else { 50.0 + id.index() as f64 };
                    AadNode::new(id, n, 1, v, 6).boxed()
                })
                .collect();
            let report =
                Simulation::new(Topology::lan(n)).seed(seed).faulty(&[NodeId(3)]).run(nodes);
            assert!(report.all_honest_finished());
            for o in report.honest_outputs() {
                assert!(
                    (50.0 - 1e-9..=52.0 + 1e-9).contains(o),
                    "seed {seed}: Byzantine input dragged output to {o}"
                );
            }
        }
    }

    #[test]
    fn seven_nodes_converge() {
        let inputs = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0];
        let outs = run_aad(7, 2, &inputs, 8, &[], 4);
        judge(&outs, &inputs, round_epsilon(&inputs, 8), None).unwrap();
    }

    #[test]
    fn rejects_bad_construction() {
        let node = AadNode::new(NodeId(0), 4, 1, f64::NAN, 4);
        assert_eq!(node.value, 0.0, "non-finite inputs sanitized");
    }

    #[test]
    #[should_panic(expected = "rounds")]
    fn zero_rounds_rejected() {
        let _ = AadNode::new(NodeId(0), 4, 1, 1.0, 0);
    }

    #[test]
    fn malformed_messages_ignored() {
        let mut node = AadNode::new(NodeId(0), 4, 1, 1.0, 4);
        let _ = node.start();
        assert!(node.on_message(NodeId(1), b"xx").is_empty());
        let bad = AadMsg::Witness { round: 99, ids: vec![1] };
        assert!(node.on_message(NodeId(1), &bad.to_bytes()).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn prop_hull_validity_and_agreement(
            n in 4usize..8,
            vals in proptest::collection::vec(-100.0..100.0f64, 8),
            seed in 0u64..u64::MAX,
        ) {
            let t = (n - 1) / 3;
            let rounds = 9u16;
            let outs = run_aad(n, t, &vals[..n], rounds, &[], seed);
            judge(&outs, &vals[..n], round_epsilon(&vals[..n], rounds), None).unwrap();
        }
    }
}
