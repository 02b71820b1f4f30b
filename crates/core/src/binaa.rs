//! The BinAA protocol (Algorithm 1): approximate agreement for binary
//! inputs.
//!
//! BinAA runs `r_M = log2(1/ε)` successive weak BV-broadcast rounds (see
//! [`crate::bv`]). Each round's output set contains one or two values; the
//! node's state moves to the single value or the midpoint, and the honest
//! range provably at least halves per round. After `r_M` rounds the honest
//! outputs are within `2^{-r_M}` of each other — exactly, which the tests
//! assert with [`Dyadic`] arithmetic.
//!
//! [`BinAaNode`] is the standalone protocol (binary input, one instance):
//! a round table one column wide. Inside Delphi the same table runs one
//! column per checkpoint, with messages bundled (see [`crate::delphi`]).

use delphi_primitives::wire::{Decode, Encode};
use delphi_primitives::{Dyadic, Envelope, NodeId, Protocol, Round};

use crate::bv::{BvAction, BvTable};
use crate::messages::{BinAaMsg, EchoKind};
use crate::params::MAX_ROUNDS;

/// A standalone BinAA node: approximate agreement on `{0, 1}` inputs.
///
/// # Example
///
/// ```
/// use delphi_core::BinAaNode;
/// use delphi_primitives::{NodeId, Protocol};
/// use delphi_sim::{Simulation, Topology};
///
/// let n = 4;
/// let inputs = [false, true, true, false];
/// let nodes = NodeId::all(n)
///     .map(|id| BinAaNode::new(id, n, 1, inputs[id.index()], 10).boxed())
///     .collect();
/// let report = Simulation::new(Topology::lan(n)).seed(3).run(nodes);
/// let outs: Vec<_> = report.honest_outputs().collect();
/// // ε-agreement: outputs within 2^-10 of each other.
/// for pair in outs.windows(2) {
///     assert!(pair[0].abs_diff(*pair[1]) <= delphi_primitives::Dyadic::new(1, 10));
/// }
/// ```
#[derive(Debug)]
pub struct BinAaNode {
    me: NodeId,
    n: usize,
    r_max: u16,
    /// Round states: a one-column table, each row created on first use.
    rounds: BvTable,
    /// The round this node is currently executing (1-based);
    /// `r_max + 1` means all rounds are complete.
    current: u16,
    /// State value entering `current`.
    value: Dyadic,
    output: Option<Dyadic>,
}

impl BinAaNode {
    /// Creates a BinAA node with binary input `input`, running `r_max`
    /// rounds (use `r_max = ⌈log2(1/ε)⌉` for ε-agreement).
    ///
    /// # Panics
    ///
    /// Panics if `n < 3t + 1`, `me` is out of range, or
    /// `r_max ∉ 1..=`[`MAX_ROUNDS`].
    pub fn new(me: NodeId, n: usize, t: usize, input: bool, r_max: u16) -> BinAaNode {
        assert!(n > 3 * t, "BinAA requires n >= 3t + 1");
        assert!(me.index() < n, "node id out of range");
        assert!((1..=MAX_ROUNDS).contains(&r_max), "r_max must be in 1..={MAX_ROUNDS}");
        BinAaNode {
            me,
            n,
            r_max,
            rounds: BvTable::new(me, n, t, r_max),
            current: 1,
            value: Dyadic::from_bit(input),
            output: None,
        }
    }

    /// Boxes the node for use with heterogeneous drivers.
    pub fn boxed(self) -> Box<dyn Protocol<Output = Dyadic>> {
        Box::new(self)
    }

    /// The configured round count.
    pub fn r_max(&self) -> u16 {
        self.r_max
    }

    /// The round currently executing (1-based), `r_max + 1` when done.
    pub fn current_round(&self) -> u16 {
        self.current
    }

    /// A value is plausible for round `r` iff it lies in `[0, 1]` on the
    /// grid `j / 2^{r−1}` — anything else is Byzantine junk we drop early.
    fn plausible(value: Dyadic, round: Round) -> bool {
        value.in_unit_interval() && u16::from(value.log_den()) < round.0
    }

    /// Advances through any rounds whose outcome is already known,
    /// emitting the initial echoes of each newly entered round.
    fn advance(&mut self, out: &mut Vec<(Round, BvAction)>) {
        while self.current <= self.r_max {
            let round = Round(self.current);
            let Some(outcome) = self.rounds.outcome(round, 0) else { break };
            self.value = outcome.next_value();
            self.current += 1;
            if self.current <= self.r_max {
                let value = self.value;
                let next = Round(self.current);
                let Some(mut bv) = self.rounds.cell_mut(next, 0) else { break };
                out.extend(bv.set_input(value).into_iter().map(|a| (next, a)));
            } else {
                self.output = Some(self.value);
            }
        }
    }

    fn to_envelopes(&self, actions: Vec<(Round, BvAction)>) -> Vec<Envelope> {
        actions
            .into_iter()
            .map(|(round, action)| {
                let (kind, value) = match action {
                    BvAction::Echo1(v) => (EchoKind::Echo1, v),
                    BvAction::Echo2(v) => (EchoKind::Echo2, v),
                };
                Envelope::to_all(BinAaMsg { round, kind, value }.to_bytes())
            })
            .collect()
    }
}

impl Protocol for BinAaNode {
    type Output = Dyadic;

    fn node_id(&self) -> NodeId {
        self.me
    }

    fn n(&self) -> usize {
        self.n
    }

    fn start(&mut self) -> Vec<Envelope> {
        let value = self.value;
        let Some(mut bv) = self.rounds.cell_mut(Round::FIRST, 0) else { return Vec::new() };
        let mut actions: Vec<(Round, BvAction)> =
            bv.set_input(value).into_iter().map(|a| (Round::FIRST, a)).collect();
        self.advance(&mut actions);
        self.to_envelopes(actions)
    }

    fn on_message(&mut self, from: NodeId, payload: &[u8]) -> Vec<Envelope> {
        let Ok(msg) = BinAaMsg::from_bytes(payload) else {
            return Vec::new(); // malformed: Byzantine, drop
        };
        if msg.round.0 < 1 || msg.round.0 > self.r_max || !Self::plausible(msg.value, msg.round) {
            return Vec::new();
        }
        let Some(mut bv) = self.rounds.cell_mut(msg.round, 0) else { return Vec::new() };
        let mut actions: Vec<(Round, BvAction)> =
            bv.feed(msg.kind, from, msg.value).into_iter().map(|a| (msg.round, a)).collect();
        self.advance(&mut actions);
        self.to_envelopes(actions)
    }

    fn output(&self) -> Option<Dyadic> {
        self.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delphi_sim::adversary::{Crash, GarbageSpammer};
    use delphi_sim::{Simulation, Topology};
    use proptest::prelude::*;

    /// Byzantine node that tells half the network 0 and the other half 1,
    /// in every round, and spams ECHO2s for both values.
    struct Equivocator {
        me: NodeId,
        n: usize,
        r_max: u16,
    }

    impl Protocol for Equivocator {
        type Output = Dyadic;
        fn node_id(&self) -> NodeId {
            self.me
        }
        fn n(&self) -> usize {
            self.n
        }
        fn start(&mut self) -> Vec<Envelope> {
            let mut out = Vec::new();
            for round in 1..=self.r_max {
                for dest in 0..self.n {
                    if dest == self.me.index() {
                        continue;
                    }
                    let value = Dyadic::from_bit(dest % 2 == 0);
                    for kind in [EchoKind::Echo1, EchoKind::Echo2] {
                        let msg = BinAaMsg { round: Round(round), kind, value };
                        out.push(Envelope::to_one(NodeId(dest as u16), msg.to_bytes()));
                    }
                }
            }
            out
        }
        fn on_message(&mut self, _: NodeId, _: &[u8]) -> Vec<Envelope> {
            Vec::new()
        }
        fn output(&self) -> Option<Dyadic> {
            None
        }
    }

    fn run_binaa(
        n: usize,
        t: usize,
        r_max: u16,
        inputs: &[bool],
        faulty: &[usize],
        make_faulty: impl Fn(NodeId) -> Box<dyn Protocol<Output = Dyadic>>,
        seed: u64,
    ) -> Vec<Dyadic> {
        let nodes: Vec<Box<dyn Protocol<Output = Dyadic>>> = NodeId::all(n)
            .map(|id| {
                if faulty.contains(&id.index()) {
                    make_faulty(id)
                } else {
                    BinAaNode::new(id, n, t, inputs[id.index()], r_max).boxed()
                }
            })
            .collect();
        let faulty_ids: Vec<NodeId> = faulty.iter().map(|&i| NodeId(i as u16)).collect();
        let report = Simulation::new(Topology::lan(n)).seed(seed).faulty(&faulty_ids).run(nodes);
        assert!(
            report.all_honest_finished(),
            "BinAA did not terminate (seed {seed}, stop {:?})",
            report.stop
        );
        report.honest_outputs().copied().collect()
    }

    #[test]
    fn unanimous_inputs_decide_exactly() {
        for bit in [false, true] {
            let outs = run_binaa(4, 1, 8, &[bit; 4], &[], |_| unreachable!(), 1);
            for o in outs {
                assert_eq!(o, Dyadic::from_bit(bit), "validity for unanimous {bit}");
            }
        }
    }

    #[test]
    fn mixed_inputs_reach_epsilon_agreement() {
        let r_max = 10;
        let tol = Dyadic::new(1, r_max as u8);
        let outs = run_binaa(4, 1, r_max, &[false, true, true, false], &[], |_| unreachable!(), 7);
        for a in &outs {
            assert!(a.in_unit_interval(), "validity: output {a} within [0,1]");
            for b in &outs {
                assert!(a.abs_diff(*b) <= tol, "|{a} - {b}| > 2^-{r_max}");
            }
        }
    }

    #[test]
    fn tolerates_crash_fault() {
        let outs = run_binaa(
            4,
            1,
            8,
            &[true, true, false, true],
            &[2],
            |id| Box::new(Crash::new(id, 4)),
            11,
        );
        assert_eq!(outs.len(), 3);
        let tol = Dyadic::new(1, 8);
        for a in &outs {
            for b in &outs {
                assert!(a.abs_diff(*b) <= tol);
            }
        }
    }

    #[test]
    fn tolerates_equivocating_byzantine() {
        for seed in 0..5 {
            let outs = run_binaa(
                7,
                2,
                8,
                &[true, true, true, false, false, true, true],
                &[6],
                |id| Box::new(Equivocator { me: id, n: 7, r_max: 8 }),
                seed,
            );
            let tol = Dyadic::new(1, 8);
            for a in &outs {
                assert!(a.in_unit_interval());
                for b in &outs {
                    assert!(a.abs_diff(*b) <= tol, "seed {seed}: |{a} - {b}|");
                }
            }
        }
    }

    #[test]
    fn equivocator_cannot_break_unanimous_validity() {
        // All honest input 1: Byzantine equivocation must not drag the
        // output off 1 (convex validity for binary inputs).
        for seed in 0..5 {
            let outs = run_binaa(
                4,
                1,
                8,
                &[true, true, true, true],
                &[3],
                |id| Box::new(Equivocator { me: id, n: 4, r_max: 8 }),
                seed,
            );
            for o in outs {
                assert_eq!(o, Dyadic::ONE, "seed {seed}");
            }
        }
    }

    #[test]
    fn tolerates_garbage_spammer() {
        let outs = run_binaa(
            4,
            1,
            6,
            &[true, false, true, true],
            &[1],
            |id| Box::new(GarbageSpammer::new(id, 4, 99, 3, 64, 50)),
            13,
        );
        let tol = Dyadic::new(1, 6);
        for a in &outs {
            for b in &outs {
                assert!(a.abs_diff(*b) <= tol);
            }
        }
    }

    #[test]
    fn single_round_matches_weak_bv() {
        // r_max = 1: outputs are the next_value of one BV round, within 1/2.
        let outs = run_binaa(4, 1, 1, &[false, true, false, true], &[], |_| unreachable!(), 3);
        let tol = Dyadic::new(1, 1);
        for a in &outs {
            for b in &outs {
                assert!(a.abs_diff(*b) <= tol);
            }
        }
    }

    #[test]
    fn works_at_larger_scale() {
        let n = 16;
        let inputs: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let outs = run_binaa(n, 5, 8, &inputs, &[], |_| unreachable!(), 17);
        let tol = Dyadic::new(1, 8);
        for a in &outs {
            for b in &outs {
                assert!(a.abs_diff(*b) <= tol);
            }
        }
    }

    #[test]
    fn rejects_malformed_and_out_of_range_messages() {
        let mut node = BinAaNode::new(NodeId(0), 4, 1, true, 4);
        let _ = node.start();
        assert!(node.on_message(NodeId(1), b"garbage").is_empty());
        // Round 0 and round > r_max are invalid.
        let bad = BinAaMsg { round: Round(0), kind: EchoKind::Echo1, value: Dyadic::ONE };
        assert!(node.on_message(NodeId(1), &bad.to_bytes()).is_empty());
        let bad = BinAaMsg { round: Round(5), kind: EchoKind::Echo1, value: Dyadic::ONE };
        assert!(node.on_message(NodeId(1), &bad.to_bytes()).is_empty());
        // Value off the round-1 grid {0, 1}.
        let bad = BinAaMsg { round: Round(1), kind: EchoKind::Echo1, value: Dyadic::new(1, 2) };
        assert!(node.on_message(NodeId(1), &bad.to_bytes()).is_empty());
        // Value outside [0, 1].
        let bad = BinAaMsg { round: Round(2), kind: EchoKind::Echo1, value: Dyadic::new(3, 1) };
        assert!(node.on_message(NodeId(1), &bad.to_bytes()).is_empty());
    }

    #[test]
    #[should_panic(expected = "r_max")]
    fn zero_rounds_rejected() {
        let _ = BinAaNode::new(NodeId(0), 4, 1, true, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_agreement_and_validity(
            n in 4usize..9,
            bits in proptest::collection::vec(any::<bool>(), 9),
            r_max in 2u16..9,
            seed in 0u64..u64::MAX,
        ) {
            let t = (n - 1) / 3;
            let inputs = &bits[..n];
            let outs = run_binaa(n, t, r_max, inputs, &[], |_| unreachable!(), seed);
            let tol = Dyadic::new(1, r_max as u8);
            let any_one = inputs.iter().any(|&b| b);
            let any_zero = inputs.iter().any(|&b| !b);
            for a in &outs {
                // Convex validity for binary inputs.
                prop_assert!(a.in_unit_interval());
                if !any_one {
                    prop_assert_eq!(*a, Dyadic::ZERO);
                }
                if !any_zero {
                    prop_assert_eq!(*a, Dyadic::ONE);
                }
                for b in &outs {
                    prop_assert!(a.abs_diff(*b) <= tol);
                }
            }
        }
    }
}
