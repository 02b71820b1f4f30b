//! FIN-style Asynchronous Common Subset, used as a convex-agreement
//! baseline.
//!
//! The composition is BKR-style: every node reliably broadcasts its input
//! value; one binary agreement per broadcaster decides whether that value
//! makes the *core set*; once `n − t` ABAs have decided 1, the remaining
//! ones are seeded with 0. All honest nodes obtain the same core set and
//! output the **median** of its values — which lies inside the honest
//! input range (at most `t` of ≥ `2t + 1` core values are Byzantine), the
//! way FIN [27] is used for convex agreement in the paper's evaluation.
//!
//! Cost profile (what Fig. 6 measures): `n` parallel RBCs at `O(n²)`
//! messages each, `n` parallel ABAs with coin flips — `O(n³)` messages
//! and `O(κn³)` bits overall, signature-free. Latency is dominated by the
//! slowest of the `n` ABAs.

use bytes::Bytes;
use delphi_primitives::wire::{Decode, Encode, Reader, WireError, Writer};
use delphi_primitives::{Envelope, NodeId, Protocol};

use crate::aba::{AbaInstance, AbaMsg};
use crate::coin::CoinKeeper;
use crate::rbc::{RbcInstance, RbcMsg};

/// An ACS wire message: RBC traffic tagged by broadcaster, or ABA traffic
/// tagged by instance.
#[derive(Clone, Debug, PartialEq)]
pub enum AcsMsg {
    /// Reliable-broadcast traffic for `broadcaster`'s value.
    Rbc {
        /// Whose broadcast this belongs to.
        broadcaster: NodeId,
        /// The RBC message body.
        inner: RbcMsg,
    },
    /// Binary-agreement traffic (instance = broadcaster index).
    Aba(AbaMsg),
}

impl Encode for AcsMsg {
    fn encode(&self, w: &mut Writer) {
        match self {
            AcsMsg::Rbc { broadcaster, inner } => {
                w.put_raw_u8(0);
                w.put(broadcaster);
                w.put(inner);
            }
            AcsMsg::Aba(m) => {
                w.put_raw_u8(1);
                w.put(m);
            }
        }
    }
}

impl Decode for AcsMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_raw_u8()? {
            0 => Ok(AcsMsg::Rbc { broadcaster: r.get()?, inner: r.get()? }),
            1 => Ok(AcsMsg::Aba(r.get()?)),
            d => Err(WireError::InvalidDiscriminant(u64::from(d))),
        }
    }
}

/// A FIN-style ACS node agreeing on the median of a common value subset.
///
/// # Example
///
/// ```
/// use delphi_baselines::AcsNode;
/// use delphi_primitives::{NodeId, Protocol};
/// use delphi_sim::{Simulation, Topology};
///
/// let n = 4;
/// let inputs = [10.0, 11.0, 12.0, 13.0];
/// let nodes = NodeId::all(n)
///     .map(|id| AcsNode::new(id, n, 1, inputs[id.index()], b"seed").boxed())
///     .collect();
/// let report = Simulation::new(Topology::lan(n)).seed(4).run(nodes);
/// let outs: Vec<f64> = report.honest_outputs().copied().collect();
/// // Exact agreement on a value within the honest range.
/// assert!(outs.windows(2).all(|w| w[0] == w[1]));
/// assert!((10.0..=13.0).contains(&outs[0]));
/// ```
#[derive(Debug)]
pub struct AcsNode {
    me: NodeId,
    n: usize,
    t: usize,
    input: f64,
    rbcs: Vec<RbcInstance>,
    abas: Vec<AbaInstance>,
    coins: CoinKeeper,
    values: Vec<Option<f64>>,
    zero_filled: bool,
    decided_count: usize,
    ones_count: usize,
    output: Option<f64>,
}

impl AcsNode {
    /// Creates an ACS node contributing `input`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3t + 1` or `me` is out of range.
    pub fn new(me: NodeId, n: usize, t: usize, input: f64, coin_seed: &[u8]) -> AcsNode {
        let rbcs = NodeId::all(n).map(|b| RbcInstance::new(me, n, t, b)).collect();
        let abas = (0..n as u16).map(|i| AbaInstance::new(me, n, t, i)).collect();
        AcsNode {
            me,
            n,
            t,
            input,
            rbcs,
            abas,
            coins: CoinKeeper::new(coin_seed, n, t),
            values: vec![None; n],
            zero_filled: false,
            decided_count: 0,
            ones_count: 0,
            output: None,
        }
    }

    /// Boxes the node for use with heterogeneous drivers.
    pub fn boxed(self) -> Box<dyn Protocol<Output = f64>> {
        Box::new(self)
    }

    fn decode_value(payload: &Bytes) -> f64 {
        // RBC agreement gives all nodes identical bytes, so this mapping
        // (including the junk fallback) is common across honest nodes.
        match f64::from_bytes(payload) {
            Ok(v) if v.is_finite() => v,
            _ => f64::MAX,
        }
    }

    /// Absorbs a possible fresh RBC delivery for broadcaster `b`
    /// (`was_delivered` is the pre-call state, so this fires exactly
    /// once per broadcaster — keeping per-message work O(1) amortized).
    fn after_rbc(&mut self, b: usize, was_delivered: bool, out: &mut Vec<AcsMsg>) {
        if was_delivered {
            return;
        }
        let Some(payload) = self.rbcs[b].delivered().cloned() else { return };
        self.values[b] = Some(Self::decode_value(&payload));
        if !self.abas[b].started() {
            let had = self.abas[b].decision();
            let msgs = self.abas[b].set_input(true, &mut self.coins);
            out.extend(msgs.into_iter().map(AcsMsg::Aba));
            self.after_decision(b, had, out);
        }
        self.maybe_output();
    }

    /// Updates the decision counters after any interaction with
    /// `abas[i]`; triggers the zero-fill rule and output assembly.
    fn after_decision(&mut self, i: usize, before: Option<bool>, out: &mut Vec<AcsMsg>) {
        let now = self.abas[i].decision();
        if before.is_some() || now.is_none() {
            return;
        }
        self.decided_count += 1;
        if now == Some(true) {
            self.ones_count += 1;
        }
        // n − t ones: zero-fill the remaining ABAs (once).
        if !self.zero_filled && self.ones_count >= self.n - self.t {
            self.zero_filled = true;
            for j in 0..self.n {
                if !self.abas[j].started() {
                    let had = self.abas[j].decision();
                    let msgs = self.abas[j].set_input(false, &mut self.coins);
                    out.extend(msgs.into_iter().map(AcsMsg::Aba));
                    self.after_decision(j, had, out);
                }
            }
        }
        self.maybe_output();
    }

    /// All decided and all core values delivered: output the median.
    /// O(n log n), but reached at most a handful of times per run.
    fn maybe_output(&mut self) {
        if self.output.is_some() || self.decided_count < self.n {
            return;
        }
        let core: Vec<usize> =
            (0..self.n).filter(|&j| self.abas[j].decision() == Some(true)).collect();
        if core.iter().all(|&j| self.values[j].is_some()) {
            let mut vals: Vec<f64> =
                core.iter().map(|&j| self.values[j].expect("checked")).collect();
            vals.sort_by(f64::total_cmp);
            // The core has ≥ n − t ≥ 2t + 1 members, so the lower median
            // is bracketed by honest values.
            self.output = Some(vals[(vals.len() - 1) / 2]);
        }
    }

    fn envelopes(msgs: Vec<AcsMsg>) -> Vec<Envelope> {
        msgs.into_iter().map(|m| Envelope::to_all(m.to_bytes())).collect()
    }
}

impl Protocol for AcsNode {
    type Output = f64;

    fn node_id(&self) -> NodeId {
        self.me
    }

    fn n(&self) -> usize {
        self.n
    }

    fn start(&mut self) -> Vec<Envelope> {
        let mut payload = delphi_primitives::wire::Writer::new();
        payload.put_f64(self.input);
        let me = self.me.index();
        let was = self.rbcs[me].delivered().is_some();
        let actions = self.rbcs[me].broadcast(payload.into_bytes());
        let mut msgs: Vec<AcsMsg> =
            actions.into_iter().map(|inner| AcsMsg::Rbc { broadcaster: self.me, inner }).collect();
        self.after_rbc(me, was, &mut msgs);
        Self::envelopes(msgs)
    }

    fn on_message(&mut self, from: NodeId, payload: &[u8]) -> Vec<Envelope> {
        if from.index() >= self.n {
            return Vec::new();
        }
        let Ok(msg) = AcsMsg::from_bytes(payload) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        match msg {
            AcsMsg::Rbc { broadcaster, inner } => {
                if broadcaster.index() >= self.n {
                    return Vec::new();
                }
                let b = broadcaster.index();
                let was = self.rbcs[b].delivered().is_some();
                let actions = self.rbcs[b].on_message(from, &inner);
                out.extend(actions.into_iter().map(|inner| AcsMsg::Rbc { broadcaster, inner }));
                self.after_rbc(b, was, &mut out);
            }
            AcsMsg::Aba(m) => {
                if usize::from(m.instance) >= self.n {
                    return Vec::new();
                }
                let i = usize::from(m.instance);
                let had = self.abas[i].decision();
                let msgs = self.abas[i].on_message(from, m.round, m.kind, &mut self.coins);
                out.extend(msgs.into_iter().map(AcsMsg::Aba));
                self.after_decision(i, had, &mut out);
            }
        }
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
    use delphi_primitives::Round;
    use delphi_sim::adversary::Faulty;
    use delphi_sim::{judge, Simulation, Topology};
    use proptest::prelude::*;

    #[test]
    fn msg_roundtrip() {
        let m =
            AcsMsg::Rbc { broadcaster: NodeId(2), inner: RbcMsg::Echo(Bytes::from_static(b"v")) };
        assert_eq!(roundtrip(&m).unwrap(), m);
        let m = AcsMsg::Aba(AbaMsg {
            instance: 1,
            round: Round(1),
            kind: crate::aba::AbaKind::CoinShare,
        });
        assert_eq!(roundtrip(&m).unwrap(), m);
    }

    fn run_acs(n: usize, t: usize, inputs: &[f64], faulty: &[usize], seed: u64) -> Vec<f64> {
        let nodes: Vec<Box<dyn Protocol<Output = f64>>> = NodeId::all(n)
            .map(|id| {
                if faulty.contains(&id.index()) {
                    Box::new(Faulty::crash(id, n)) as Box<dyn Protocol<Output = f64>>
                } else {
                    AcsNode::new(id, n, t, inputs[id.index()], b"coin").boxed()
                }
            })
            .collect();
        let faulty_ids: Vec<NodeId> = faulty.iter().map(|&i| NodeId(i as u16)).collect();
        let report = Simulation::new(Topology::lan(n)).seed(seed).faulty(&faulty_ids).run(nodes);
        assert!(report.all_honest_finished(), "ACS stalled: {:?} seed {seed}", report.stop);
        report.honest_outputs().copied().collect()
    }

    #[test]
    fn exact_agreement_within_range() {
        let inputs = [10.0, 20.0, 30.0, 40.0];
        let outs = run_acs(4, 1, &inputs, &[], 1);
        assert!(outs.windows(2).all(|w| w[0] == w[1]), "exact agreement");
        assert!((10.0..=40.0).contains(&outs[0]), "convex validity");
    }

    #[test]
    fn tolerates_crash() {
        let inputs = [5.0, 6.0, 7.0, 0.0];
        let outs = run_acs(4, 1, &inputs, &[3], 2);
        assert_eq!(outs.len(), 3);
        assert!(outs.windows(2).all(|w| w[0] == w[1]));
        assert!((5.0..=7.0).contains(&outs[0]));
    }

    #[test]
    fn byzantine_outlier_trimmed_by_median() {
        // A Byzantine node participates honestly with an extreme value;
        // the median keeps the output in the honest range.
        for seed in 0..5 {
            let n = 4;
            let nodes: Vec<Box<dyn Protocol<Output = f64>>> = NodeId::all(n)
                .map(|id| {
                    let v = if id.index() == 3 { 1e12 } else { 100.0 + id.index() as f64 };
                    AcsNode::new(id, n, 1, v, b"coin").boxed()
                })
                .collect();
            let report =
                Simulation::new(Topology::lan(n)).seed(seed).faulty(&[NodeId(3)]).run(nodes);
            assert!(report.all_honest_finished());
            for o in report.honest_outputs() {
                assert!((100.0..=102.0).contains(o), "median dragged to {o} at seed {seed}");
            }
        }
    }

    #[test]
    fn garbage_value_does_not_poison() {
        // A Byzantine broadcaster RBCs undecodable bytes; honest nodes map
        // them to a common sentinel and the median survives.
        let n = 4;
        let nodes: Vec<Box<dyn Protocol<Output = f64>>> = NodeId::all(n)
            .map(|id| {
                if id.index() == 0 {
                    let junk = AcsMsg::Rbc {
                        broadcaster: id,
                        inner: RbcMsg::Send(Bytes::from_static(b"zz")),
                    };
                    let mut sends = vec![(None, junk.to_bytes())];
                    let junk_broadcaster = move |_: Option<&[u8]>| std::mem::take(&mut sends);
                    Box::new(Faulty::new(id, n, junk_broadcaster))
                        as Box<dyn Protocol<Output = f64>>
                } else {
                    AcsNode::new(id, n, 1, 50.0 + id.index() as f64, b"coin").boxed()
                }
            })
            .collect();
        let report = Simulation::new(Topology::lan(n)).seed(3).faulty(&[NodeId(0)]).run(nodes);
        assert!(report.all_honest_finished());
        for o in report.honest_outputs() {
            assert!((51.0..=53.0).contains(o));
        }
    }

    #[test]
    fn tolerates_garbage_spammer() {
        let n = 4;
        let nodes: Vec<Box<dyn Protocol<Output = f64>>> = NodeId::all(n)
            .map(|id| {
                if id.index() == 1 {
                    Box::new(Faulty::garbage(id, n, 7, 2, 48, 60))
                        as Box<dyn Protocol<Output = f64>>
                } else {
                    AcsNode::new(id, n, 1, 9.0, b"coin").boxed()
                }
            })
            .collect();
        let report = Simulation::new(Topology::lan(n)).seed(8).faulty(&[NodeId(1)]).run(nodes);
        assert!(report.all_honest_finished());
        for o in report.honest_outputs() {
            assert_eq!(*o, 9.0);
        }
    }

    #[test]
    fn seven_nodes_two_crashes() {
        let inputs = [1.0, 2.0, 3.0, 4.0, 5.0, 0.0, 0.0];
        let outs = run_acs(7, 2, &inputs, &[5, 6], 11);
        assert_eq!(outs.len(), 5);
        assert!(outs.windows(2).all(|w| w[0] == w[1]));
        assert!((1.0..=5.0).contains(&outs[0]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        #[test]
        fn prop_agreement_and_validity(
            n in 4usize..8,
            vals in proptest::collection::vec(-1000.0..1000.0f64, 8),
            seed in 0u64..u64::MAX,
        ) {
            let t = (n - 1) / 3;
            let outs = run_acs(n, t, &vals[..n], &[], seed);
            prop_assert!(outs.windows(2).all(|w| w[0] == w[1]));
            judge(&outs, &vals[..n], 0.0, None).unwrap();
        }
    }
}
