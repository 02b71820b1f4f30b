//! One round of weak Binary-Value broadcast (Definition II.2).
//!
//! Every BinAA round is an instance of this quorum machine (Algorithm 1,
//! lines 4–25):
//!
//! - each node `ECHO1`s its value;
//! - a value echoed by `t + 1` nodes is *amplified* (Bracha amplification,
//!   line 10–11): the node `ECHO1`s it too, so Byzantine-only values (at
//!   most `t` echoes) can never gain support;
//! - the first value with `n − t` `ECHO1`s triggers the node's single
//!   `ECHO2` (lines 12–14);
//! - the round *terminates* when either **(1)** two values each have
//!   `n − t` `ECHO1`s (output set `{b1, b2}`), or **(2)** one value has
//!   `n − t` `ECHO2`s (output set `{b}`).
//!
//! [`BvRound`] is a pure state machine: callers feed echoes in and carry
//! the returned [`BvActions`] to the network. Sent echoes are applied to
//! the local state immediately (the paper's line 6 self-insertion), and
//! amplification keeps running even after the round has terminated so slow
//! peers still receive help.
//!
//! # Layout
//!
//! The round state is flat: an honest execution echoes at most two values
//! per phase (honest round values form an adjacent pair), so the first
//! [`INLINE_VALUES`] value slots of each phase — sender set, cached count
//! and introducer included — live inside the `BvRound` itself, as do the
//! returned actions. Creating a round, feeding it an honest execution and
//! dropping it performs no heap allocation (for systems of up to 256
//! nodes, see [`NodeBitSet`]); only values added by Byzantine senders,
//! bounded by [`MAX_ECHO1_VALUES_PER_SENDER`], spill into a heap tail.

use delphi_primitives::{Dyadic, NodeBitSet, NodeId, Round};

use crate::params::MAX_ROUNDS;

/// Per-sender cap on distinct `ECHO1` values tracked.
///
/// Honest nodes send at most two distinct `ECHO1` values per round (their
/// own plus one amplification — honest round values form an adjacent pair).
/// Tracking only the first two per sender bounds memory against Byzantine
/// value-flooding without affecting any honest quorum.
pub const MAX_ECHO1_VALUES_PER_SENDER: usize = 2;

/// Values per echo phase stored inline in a [`BvRound`]; an honest round
/// never needs more (see the module docs).
const INLINE_VALUES: usize = 2;

/// An echo the caller must broadcast on behalf of this round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BvAction {
    /// Broadcast `ECHO1(value)` for this round.
    Echo1(Dyadic),
    /// Broadcast `ECHO2(value)` for this round.
    Echo2(Dyadic),
}

/// The echoes one [`BvRound`] call asks the caller to broadcast: at most
/// one `ECHO1` (the node's own input or one amplification) followed by at
/// most one `ECHO2`, held inline. Iterate it to get the [`BvAction`]s in
/// send order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BvActions {
    echo1: Option<Dyadic>,
    echo2: Option<Dyadic>,
}

impl BvActions {
    /// Whether the call triggered no echo.
    pub fn is_empty(&self) -> bool {
        self.echo1.is_none() && self.echo2.is_none()
    }
}

impl IntoIterator for BvActions {
    type Item = BvAction;
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<BvAction>, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        [self.echo1.map(BvAction::Echo1), self.echo2.map(BvAction::Echo2)].into_iter().flatten()
    }
}

/// Terminated-round outcome: the weak BV-broadcast output set `B_i`
/// (one or two values) plus the BinAA state update derived from it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BvOutcome {
    low: Dyadic,
    high: Dyadic,
}

impl BvOutcome {
    fn single(b: Dyadic) -> BvOutcome {
        BvOutcome { low: b, high: b }
    }

    fn pair(a: Dyadic, b: Dyadic) -> BvOutcome {
        BvOutcome { low: a.min(b), high: a.max(b) }
    }

    /// The output set `B_i`, sorted ascending (one or two values).
    pub fn set(&self) -> Vec<Dyadic> {
        if self.low == self.high {
            vec![self.low]
        } else {
            vec![self.low, self.high]
        }
    }

    /// The next-round BinAA value: the single value for a singleton set,
    /// the exact midpoint for a pair (Algorithm 1 lines 20 and 24).
    pub fn next_value(&self) -> Dyadic {
        if self.low == self.high {
            self.low
        } else {
            self.low.midpoint(self.high)
        }
    }
}

/// An append-only list whose first `N` items live inline and the rest in
/// a heap tail (empty, hence unallocated, in honest executions).
#[derive(Clone, Debug)]
struct InlineVec<T, const N: usize> {
    /// Filled front to back: a `None` is never followed by a `Some`.
    head: [Option<T>; N],
    tail: Vec<T>,
}

impl<T, const N: usize> InlineVec<T, N> {
    fn new() -> InlineVec<T, N> {
        InlineVec { head: std::array::from_fn(|_| None), tail: Vec::new() }
    }

    fn push(&mut self, item: T) {
        match self.head.iter_mut().find(|slot| slot.is_none()) {
            Some(slot) => *slot = Some(item),
            None => self.tail.push(item),
        }
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.head.iter().flatten().chain(&self.tail)
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.head.iter_mut().flatten().chain(&mut self.tail)
    }
}

/// One tracked echo value: who sent it, how many did, and who first did.
#[derive(Clone, Debug)]
struct Slot {
    value: Dyadic,
    senders: NodeBitSet,
    /// `senders.len()`, maintained on insert so threshold checks never
    /// re-popcount the bitset.
    count: usize,
    /// The sender whose echo created the slot. The `ECHO1` per-sender cap
    /// counts the slots a sender introduced, not the slots it appears in.
    introducer: NodeId,
}

impl Slot {
    fn new(value: Dyadic, from: NodeId, n: usize) -> Slot {
        let mut senders = NodeBitSet::new(n);
        senders.insert(from);
        Slot { value, senders, count: 1, introducer: from }
    }

    /// Adds `from`, returning the new sender count if it was not yet in.
    fn insert(&mut self, from: NodeId) -> Option<usize> {
        if !self.senders.insert(from) {
            return None;
        }
        self.count += 1;
        Some(self.count)
    }
}

/// State of one node's participation in one weak BV-broadcast round.
#[derive(Clone, Debug)]
pub struct BvRound {
    me: NodeId,
    n: usize,
    t: usize,
    /// `ECHO1` senders per value; bounded by per-sender caps.
    e1: InlineVec<Slot, INLINE_VALUES>,
    /// `ECHO2` senders per value.
    e2: InlineVec<Slot, INLINE_VALUES>,
    /// Values we have already `ECHO1`d.
    sent_e1: InlineVec<Dyadic, INLINE_VALUES>,
    /// Whether we have sent our (single) `ECHO2`.
    sent_e2: bool,
    /// The first value whose `ECHO1` count reached the `n − t` quorum. It
    /// triggers our `ECHO2` on the spot; a second value getting there
    /// terminates the round by condition (1).
    q1_first: Option<Dyadic>,
    outcome: Option<BvOutcome>,
}

impl BvRound {
    /// Creates the round state for node `me` of an `n`-node, `t`-fault
    /// system.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3t + 1` (the protocol's resilience bound) or `me` is
    /// out of range.
    pub fn new(me: NodeId, n: usize, t: usize) -> BvRound {
        assert!(n > 3 * t, "weak BV broadcast requires n >= 3t + 1");
        assert!(me.index() < n, "node id out of range");
        BvRound {
            me,
            n,
            t,
            e1: InlineVec::new(),
            e2: InlineVec::new(),
            sent_e1: InlineVec::new(),
            sent_e2: false,
            q1_first: None,
            outcome: None,
        }
    }

    /// Feeds this node's own input for the round (Algorithm 1 lines 4–7).
    /// Returns the echoes to broadcast.
    pub fn set_input(&mut self, value: Dyadic) -> BvActions {
        let mut actions = BvActions::default();
        self.send_echo1(value, &mut actions);
        self.send_echo2_if_due(&mut actions);
        actions
    }

    /// Handles `ECHO1(value)` from `from`. Returns echoes to broadcast.
    pub fn on_echo1(&mut self, from: NodeId, value: Dyadic) -> BvActions {
        let mut actions = BvActions::default();
        // Amplify: t + 1 ECHO1s for a value we have not echoed yet. A
        // count reaches t + 1 exactly once. If our own echo takes it there
        // the value is already marked sent; if a peer's does, this is the
        // call that sees it — so no other value is ever left waiting.
        if self.insert_e1(from, value) == Some(self.t + 1) {
            self.send_echo1(value, &mut actions);
        }
        self.send_echo2_if_due(&mut actions);
        actions
    }

    /// Handles `ECHO2(value)` from `from`. An `ECHO2` can complete the
    /// round but never triggers an echo of ours (those hang off `ECHO1`
    /// counts alone), so the returned set is always empty.
    pub fn on_echo2(&mut self, from: NodeId, value: Dyadic) -> BvActions {
        self.insert_e2(from, value);
        BvActions::default()
    }

    /// The round's outcome, once one of the two termination conditions
    /// holds.
    pub fn outcome(&self) -> Option<&BvOutcome> {
        self.outcome.as_ref()
    }

    /// Whether the round has terminated at this node.
    pub fn is_terminated(&self) -> bool {
        self.outcome.is_some()
    }

    /// Counts `from`'s `ECHO1(value)`, returning the value's new sender
    /// count if the echo was fresh (not a duplicate, not over the cap).
    fn insert_e1(&mut self, from: NodeId, value: Dyadic) -> Option<usize> {
        if from.index() >= self.n {
            return None;
        }
        let tracked = self.e1.iter_mut().find(|slot| slot.value == value);
        let count = match tracked.map(|slot| slot.insert(from)) {
            Some(inserted) => inserted?,
            None => {
                // New value for this sender: enforce the per-sender cap.
                let introduced = self.e1.iter().filter(|slot| slot.introducer == from).count();
                if introduced >= MAX_ECHO1_VALUES_PER_SENDER {
                    return None;
                }
                self.e1.push(Slot::new(value, from, self.n));
                1
            }
        };
        // Counts grow by one per distinct sender, so the quorum is
        // crossed exactly once per value.
        if count == self.n - self.t {
            match self.q1_first {
                None => self.q1_first = Some(value),
                // Condition (1): two values with n − t ECHO1s each. (A
                // third can follow only on Byzantine-only traffic, after
                // the round is decided.)
                Some(first) => {
                    self.outcome.get_or_insert(BvOutcome::pair(first, value));
                }
            }
        }
        Some(count)
    }

    fn insert_e2(&mut self, from: NodeId, value: Dyadic) {
        if from.index() >= self.n {
            return;
        }
        // One ECHO2 per sender: ignore if this sender already echoed any value.
        if self.e2.iter().any(|slot| slot.senders.contains(from)) {
            return;
        }
        let tracked = self.e2.iter_mut().find(|slot| slot.value == value);
        let count = match tracked.map(|slot| slot.insert(from)) {
            Some(inserted) => inserted,
            None => {
                self.e2.push(Slot::new(value, from, self.n));
                Some(1)
            }
        };
        // Condition (2): one value with n − t ECHO2s. The quorum is unique
        // (one ECHO2 per sender, and n − t > n / 2).
        if count == Some(self.n - self.t) {
            self.outcome.get_or_insert(BvOutcome::single(value));
        }
    }

    fn send_echo1(&mut self, value: Dyadic, actions: &mut BvActions) {
        if self.sent_e1.iter().any(|sent| *sent == value) {
            return;
        }
        self.sent_e1.push(value);
        self.insert_e1(self.me, value);
        actions.echo1 = Some(value);
    }

    /// ECHO2: n − t ECHO1s for a value, once per round. Runs after every
    /// `ECHO1` insertion, so it fires on the first value to get there.
    fn send_echo2_if_due(&mut self, actions: &mut BvActions) {
        let Some(value) = self.q1_first else { return };
        if self.sent_e2 {
            return;
        }
        self.sent_e2 = true;
        self.insert_e2(self.me, value);
        actions.echo2 = Some(value);
    }
}

/// The round states of one BinAA instance.
///
/// A round's state is created the first time an echo or the node's own
/// input touches it and appended to one dense vector, found again through
/// a small inline index. An untouched instance owns no heap memory; a
/// touched one owns a single block holding its *live* rounds back to back
/// (rounds are entered in order, so a round and its successor share cache
/// lines and pages) — which is also all a clone (a Delphi checkpoint
/// fork) copies and all a drop frees. Terminated rounds stay resident:
/// their amplification keeps helping slower peers.
#[derive(Clone, Debug)]
pub(crate) struct BvRounds {
    me: NodeId,
    n: usize,
    t: usize,
    r_max: u16,
    /// `index[round − 1]` is the round's position in `live` plus one, or
    /// zero while the round is untouched.
    index: [u8; MAX_ROUNDS as usize],
    /// Touched rounds, in first-touch order.
    live: Vec<BvRound>,
}

impl BvRounds {
    /// An instance of `r_max` rounds, none of them touched yet. The
    /// [`BvRound::new`] preconditions on `(me, n, t)` are the caller's to
    /// check up front; they fire on the first touch otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `r_max` exceeds [`MAX_ROUNDS`].
    pub(crate) fn new(me: NodeId, n: usize, t: usize, r_max: u16) -> BvRounds {
        assert!(r_max <= MAX_ROUNDS, "r_max must be at most {MAX_ROUNDS}");
        BvRounds { me, n, t, r_max, index: [0; MAX_ROUNDS as usize], live: Vec::new() }
    }

    /// The state of `round`, if anything has touched it.
    pub(crate) fn get(&self, round: Round) -> Option<&BvRound> {
        let position = usize::from(*self.index.get(round.index())?);
        self.live.get(position.checked_sub(1)?)
    }

    /// The state of `round`, created on first touch.
    ///
    /// # Panics
    ///
    /// Panics if `round` is outside `1..=r_max` (callers validate rounds
    /// from the wire before they get here).
    pub(crate) fn touch(&mut self, round: Round) -> &mut BvRound {
        let slot = &mut self.index[..usize::from(self.r_max)][round.index()];
        if *slot == 0 {
            if self.live.len() == self.live.capacity() {
                // Room for every round at once (reserved, not written): an
                // agreement runs them all, and growing by doubling would
                // copy the states around and overshoot by up to half.
                self.live.reserve_exact(usize::from(self.r_max) - self.live.len());
            }
            self.live.push(BvRound::new(self.me, self.n, self.t));
            *slot = self.live.len() as u8; // at most MAX_ROUNDS live rounds
        }
        &mut self.live[usize::from(*slot) - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ZERO: Dyadic = Dyadic::ZERO;
    const ONE: Dyadic = Dyadic::ONE;

    /// Runs a full mesh of `n` BvRounds with the given inputs, delivering
    /// all actions until quiescence, in a fixed round-robin order.
    fn run_mesh(inputs: &[Dyadic], t: usize) -> Vec<BvRound> {
        let n = inputs.len();
        let mut rounds: Vec<BvRound> =
            (0..n).map(|i| BvRound::new(NodeId(i as u16), n, t)).collect();
        // (from, action) queue.
        let mut queue: Vec<(NodeId, BvAction)> = Vec::new();
        for (i, &input) in inputs.iter().enumerate() {
            for a in rounds[i].set_input(input) {
                queue.push((NodeId(i as u16), a));
            }
        }
        while let Some((from, action)) = queue.pop() {
            for (i, round) in rounds.iter_mut().enumerate() {
                if i == from.index() {
                    continue;
                }
                let acts = match action {
                    BvAction::Echo1(v) => round.on_echo1(from, v),
                    BvAction::Echo2(v) => round.on_echo2(from, v),
                };
                for a in acts {
                    queue.push((NodeId(i as u16), a));
                }
            }
        }
        rounds
    }

    #[test]
    fn unanimous_input_terminates_with_that_value() {
        let rounds = run_mesh(&[ONE, ONE, ONE, ONE], 1);
        for r in &rounds {
            let out = r.outcome().expect("terminated");
            assert_eq!(out.set(), vec![ONE]);
            assert_eq!(out.next_value(), ONE);
        }
    }

    #[test]
    fn split_inputs_satisfy_weak_uniformity_and_justification() {
        let rounds = run_mesh(&[ZERO, ZERO, ONE, ONE], 1);
        for r in &rounds {
            let out = r.outcome().expect("terminated");
            // Justification: only honest inputs appear.
            for v in out.set() {
                assert!(v == ZERO || v == ONE);
            }
        }
        // Weak uniformity: pairwise non-empty intersection.
        for a in &rounds {
            for b in &rounds {
                let sa = a.outcome().unwrap().set();
                let sb = b.outcome().unwrap().set();
                assert!(sa.iter().any(|v| sb.contains(v)), "{sa:?} vs {sb:?}");
            }
        }
    }

    #[test]
    fn next_value_is_midpoint_for_pairs() {
        let out = BvOutcome::pair(ONE, ZERO);
        assert_eq!(out.set(), vec![ZERO, ONE]);
        assert_eq!(out.next_value(), Dyadic::new(1, 1));
        let single = BvOutcome::single(Dyadic::new(3, 2));
        assert_eq!(single.next_value(), Dyadic::new(3, 2));
    }

    #[test]
    fn lone_minority_value_cannot_terminate_alone() {
        // n = 4, t = 1: a single ECHO1 for a value never reaches t+1 = 2
        // from Byzantine alone; with honest unanimity on 0 the round
        // terminates on 0 regardless of a Byzantine 1.
        let n = 4;
        let mut r = BvRound::new(NodeId(0), n, 1);
        let _ = r.set_input(ZERO);
        let _ = r.on_echo1(NodeId(3), ONE); // Byzantine
        let _ = r.on_echo1(NodeId(1), ZERO);
        let _ = r.on_echo1(NodeId(2), ZERO);
        // ECHO2s from the others complete condition (2) for 0.
        let _ = r.on_echo2(NodeId(1), ZERO);
        let acts = r.on_echo2(NodeId(2), ZERO);
        let _ = acts;
        let out = r.outcome().expect("terminated");
        assert_eq!(out.set(), vec![ZERO]);
    }

    #[test]
    fn amplification_requires_t_plus_one() {
        let mut r = BvRound::new(NodeId(0), 7, 2);
        let _ = r.set_input(ZERO);
        // Two Byzantine echoes for 1: t = 2, not enough to amplify.
        let a1 = r.on_echo1(NodeId(5), ONE);
        let a2 = r.on_echo1(NodeId(6), ONE);
        assert!(a1.is_empty() && a2.is_empty());
        // A third echo (t + 1 = 3) triggers amplification.
        let a3 = r.on_echo1(NodeId(4), ONE);
        assert_eq!(Vec::from_iter(a3), vec![BvAction::Echo1(ONE)]);
    }

    #[test]
    fn echo2_sent_once_per_round() {
        let n = 4;
        let mut r = BvRound::new(NodeId(0), n, 1);
        let _ = r.set_input(ZERO);
        let mut all = Vec::new();
        all.extend(r.on_echo1(NodeId(1), ZERO));
        all.extend(r.on_echo1(NodeId(2), ZERO)); // n - t = 3 reached
        let echo2s: Vec<_> = all.iter().filter(|a| matches!(a, BvAction::Echo2(_))).collect();
        assert_eq!(echo2s.len(), 1);
        // Even if the other value later reaches n - t, no second ECHO2.
        let mut more = Vec::new();
        more.extend(r.on_echo1(NodeId(1), ONE));
        more.extend(r.on_echo1(NodeId(2), ONE));
        more.extend(r.on_echo1(NodeId(3), ONE));
        assert!(more.iter().all(|a| !matches!(a, BvAction::Echo2(_))));
    }

    #[test]
    fn condition_one_two_echo1_quorums() {
        let n = 4;
        let mut r = BvRound::new(NodeId(0), n, 1);
        let _ = r.set_input(ZERO);
        let _ = r.on_echo1(NodeId(1), ZERO);
        let _ = r.on_echo1(NodeId(2), ZERO); // 0 has n-t
        let _ = r.on_echo1(NodeId(1), ONE);
        let _ = r.on_echo1(NodeId(2), ONE);
        let _ = r.on_echo1(NodeId(3), ONE); // 1 has n-t
        let out = r.outcome().expect("condition (1)");
        assert_eq!(out.set(), vec![ZERO, ONE]);
        assert_eq!(out.next_value(), Dyadic::new(1, 1));
    }

    #[test]
    fn duplicate_echoes_do_not_inflate_quorums() {
        let n = 4;
        let mut r = BvRound::new(NodeId(0), n, 1);
        let _ = r.set_input(ZERO);
        for _ in 0..10 {
            let _ = r.on_echo1(NodeId(1), ZERO);
        }
        // Only 2 distinct senders (me + node 1) so far: below n - t = 3.
        assert!(!r.is_terminated());
        assert!(!r.sent_e2);
    }

    #[test]
    fn per_sender_value_flood_is_bounded() {
        let n = 4;
        let mut r = BvRound::new(NodeId(0), n, 1);
        let _ = r.set_input(ZERO);
        // Byzantine node 3 floods distinct values; only the first 2 stick.
        for i in 0..100u64 {
            let _ = r.on_echo1(NodeId(3), Dyadic::new(i, 10));
        }
        let tracked = r.e1.iter().count();
        assert!(tracked <= 3, "tracked values stay bounded: {tracked}");
        // Honest traffic still works fine afterwards.
        let _ = r.on_echo1(NodeId(1), ZERO);
        let _ = r.on_echo1(NodeId(2), ZERO);
        let _ = r.on_echo2(NodeId(1), ZERO);
        let _ = r.on_echo2(NodeId(2), ZERO);
        assert!(r.is_terminated());
    }

    #[test]
    fn one_echo2_per_sender_counted() {
        let n = 4;
        let mut r = BvRound::new(NodeId(0), n, 1);
        let _ = r.set_input(ZERO);
        // Byzantine node 3 tries ECHO2 on two values.
        let _ = r.on_echo2(NodeId(3), ZERO);
        let _ = r.on_echo2(NodeId(3), ONE);
        assert_eq!(r.e2.iter().count(), 1, "second ECHO2 from same sender ignored");
    }

    #[test]
    fn out_of_range_sender_ignored() {
        let mut r = BvRound::new(NodeId(0), 4, 1);
        let _ = r.set_input(ZERO);
        let _ = r.on_echo1(NodeId(100), ZERO);
        let _ = r.on_echo2(NodeId(100), ZERO);
        // Only our own echo counts.
        assert_eq!(r.e1.iter().map(|slot| slot.senders.len()).sum::<usize>(), 1);
    }

    #[test]
    fn amplification_continues_after_termination() {
        let n = 4;
        let mut r = BvRound::new(NodeId(0), n, 1);
        let _ = r.set_input(ZERO);
        let _ = r.on_echo1(NodeId(1), ZERO);
        let _ = r.on_echo1(NodeId(2), ZERO);
        let _ = r.on_echo2(NodeId(1), ZERO);
        let _ = r.on_echo2(NodeId(2), ZERO);
        assert!(r.is_terminated());
        // Value 1 reaches t + 1 only now: we must still help.
        let _ = r.on_echo1(NodeId(1), ONE);
        let acts = r.on_echo1(NodeId(2), ONE);
        assert_eq!(Vec::from_iter(acts), vec![BvAction::Echo1(ONE)]);
        // Outcome remains frozen.
        assert_eq!(r.outcome().unwrap().set(), vec![ZERO]);
    }

    #[test]
    #[should_panic(expected = "n >= 3t + 1")]
    fn resilience_bound_enforced() {
        let _ = BvRound::new(NodeId(0), 3, 1);
    }

    #[test]
    fn larger_mesh_with_byzantine_flood_still_terminates() {
        // 7 honest of n = 7 (t = 2 tolerated, none actually faulty),
        // mixed inputs.
        let inputs = [ZERO, ONE, ZERO, ONE, ZERO, ONE, ZERO];
        let rounds = run_mesh(&inputs, 2);
        for r in &rounds {
            assert!(r.is_terminated());
        }
    }

    #[test]
    fn per_sender_cap_holds_on_the_spill_tail() {
        // n = 16, t = 5. The honest pair {0, 1} fills the inline slots;
        // five Byzantine senders then flood distinct values, which can
        // only land in the heap tail: two introductions each, no more.
        let (n, t) = (16, 5);
        let mut r = BvRound::new(NodeId(0), n, t);
        let _ = r.set_input(ZERO);
        let _ = r.on_echo1(NodeId(1), ONE);
        assert!(r.e1.tail.is_empty(), "honest pair stays inline");
        for byz in 11..16u16 {
            for i in 0..100u64 {
                let _ =
                    r.on_echo1(NodeId(byz), Dyadic::new(1 + 2 * (u64::from(byz) * 100 + i), 20));
            }
        }
        assert_eq!(r.e1.tail.len(), 5 * MAX_ECHO1_VALUES_PER_SENDER, "two per flooder");
        for byz in 11..16u16 {
            let introduced = r.e1.iter().filter(|slot| slot.introducer == NodeId(byz)).count();
            assert_eq!(introduced, MAX_ECHO1_VALUES_PER_SENDER);
        }
        // A capped sender may still echo values others introduced.
        let _ = r.on_echo1(NodeId(11), ZERO);
        assert_eq!(r.e1.iter().next().map(|slot| slot.count), Some(2));
        // Flooded values never reach t + 1, so nothing was amplified, and
        // the honest quorum still terminates the round.
        assert_eq!(r.sent_e1.iter().count(), 1);
        for i in 1..=10u16 {
            let _ = r.on_echo1(NodeId(i), ZERO);
        }
        for i in 1..=10u16 {
            let _ = r.on_echo2(NodeId(i), ZERO);
        }
        assert_eq!(r.outcome().map(BvOutcome::set), Some(vec![ZERO]));
    }

    /// The pre-frontier-cache `BvRound` logic (linear re-scan in
    /// `progress`), kept verbatim as a reference oracle for differential
    /// testing of the event-driven threshold frontier.
    struct NaiveBv {
        me: NodeId,
        n: usize,
        t: usize,
        e1: Vec<(Dyadic, NodeBitSet)>,
        e2: Vec<(Dyadic, NodeBitSet)>,
        e1_count: Vec<u8>,
        sent_e1: Vec<Dyadic>,
        sent_e2: bool,
        outcome: Option<BvOutcome>,
    }

    impl NaiveBv {
        fn new(me: NodeId, n: usize, t: usize) -> NaiveBv {
            NaiveBv {
                me,
                n,
                t,
                e1: Vec::new(),
                e2: Vec::new(),
                e1_count: vec![0; n],
                sent_e1: Vec::new(),
                sent_e2: false,
                outcome: None,
            }
        }

        fn set_input(&mut self, value: Dyadic) -> Vec<BvAction> {
            let mut actions = Vec::new();
            self.send_echo1(value, &mut actions);
            self.progress(&mut actions);
            actions
        }

        fn on_echo1(&mut self, from: NodeId, value: Dyadic) -> Vec<BvAction> {
            let mut actions = Vec::new();
            self.insert_e1(from, value);
            self.progress(&mut actions);
            actions
        }

        fn on_echo2(&mut self, from: NodeId, value: Dyadic) -> Vec<BvAction> {
            let mut actions = Vec::new();
            self.insert_e2(from, value);
            self.progress(&mut actions);
            actions
        }

        fn insert_e1(&mut self, from: NodeId, value: Dyadic) {
            if from.index() >= self.n {
                return;
            }
            if let Some((_, set)) = self.e1.iter_mut().find(|(v, _)| *v == value) {
                set.insert(from);
                return;
            }
            if usize::from(self.e1_count[from.index()]) >= MAX_ECHO1_VALUES_PER_SENDER {
                return;
            }
            self.e1_count[from.index()] += 1;
            let mut set = NodeBitSet::new(self.n);
            set.insert(from);
            self.e1.push((value, set));
        }

        fn insert_e2(&mut self, from: NodeId, value: Dyadic) {
            if from.index() >= self.n {
                return;
            }
            if self.e2.iter().any(|(_, set)| set.contains(from)) {
                return;
            }
            if let Some((_, set)) = self.e2.iter_mut().find(|(v, _)| *v == value) {
                set.insert(from);
                return;
            }
            let mut set = NodeBitSet::new(self.n);
            set.insert(from);
            self.e2.push((value, set));
        }

        fn send_echo1(&mut self, value: Dyadic, actions: &mut Vec<BvAction>) {
            if self.sent_e1.contains(&value) {
                return;
            }
            self.sent_e1.push(value);
            self.insert_e1(self.me, value);
            actions.push(BvAction::Echo1(value));
        }

        fn send_echo2(&mut self, value: Dyadic, actions: &mut Vec<BvAction>) {
            if self.sent_e2 {
                return;
            }
            self.sent_e2 = true;
            self.insert_e2(self.me, value);
            actions.push(BvAction::Echo2(value));
        }

        fn progress(&mut self, actions: &mut Vec<BvAction>) {
            loop {
                let amplify = self
                    .e1
                    .iter()
                    .find(|(v, set)| set.len() > self.t && !self.sent_e1.contains(v))
                    .map(|(v, _)| *v);
                if let Some(v) = amplify {
                    self.send_echo1(v, actions);
                    continue;
                }
                if !self.sent_e2 {
                    let ready = self
                        .e1
                        .iter()
                        .find(|(_, set)| set.len() >= self.n - self.t)
                        .map(|(v, _)| *v);
                    if let Some(v) = ready {
                        self.send_echo2(v, actions);
                        continue;
                    }
                }
                break;
            }
            if self.outcome.is_none() {
                let quorum1: Vec<Dyadic> = self
                    .e1
                    .iter()
                    .filter(|(_, set)| set.len() >= self.n - self.t)
                    .map(|(v, _)| *v)
                    .collect();
                if quorum1.len() >= 2 {
                    self.outcome = Some(BvOutcome::pair(quorum1[0], quorum1[1]));
                    return;
                }
                if let Some((v, _)) = self.e2.iter().find(|(_, set)| set.len() >= self.n - self.t) {
                    self.outcome = Some(BvOutcome::single(*v));
                }
            }
        }
    }

    /// Echo values for the differential streams: eight distinct values,
    /// the first two drawn most often so that quorums do form while the
    /// rest overflow the inline slots into the spill tail.
    const STREAM_VALUES: [u64; 16] = [0, 0, 0, 0, 0, 4, 4, 4, 4, 1, 2, 3, 5, 6, 7, 1];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Differential test: the flat `BvRound` emits exactly the same
        /// actions and reaches exactly the same outcome as the original
        /// linear-scan implementation, on arbitrary echo streams
        /// (including duplicate senders, value floods past the per-sender
        /// cap, out-of-range senders, and `set_input` at any point), from
        /// n = 4 up to sizes whose sender sets leave the inline bitset.
        #[test]
        fn prop_frontier_matches_linear_scan(
            n_choice in 0usize..6,
            events in proptest::collection::vec(
                (0usize..40, proptest::prelude::any::<u16>(), 0usize..16),
                1..2400,
            ),
        ) {
            let (n, t) =
                [(4usize, 1usize), (7, 2), (10, 3), (16, 5), (160, 53), (300, 99)][n_choice];
            let me = NodeId(0);
            let mut fast = BvRound::new(me, n, t);
            let mut naive = NaiveBv::new(me, n, t);
            for (op, from, value) in events {
                let v = Dyadic::new(STREAM_VALUES[value], 3);
                // Two ids past the end keep out-of-range senders in play.
                let from = NodeId(from % (n as u16 + 2));
                let (a, b) = match op {
                    0..=24 => (fast.on_echo1(from, v), naive.on_echo1(from, v)),
                    25..=38 => (fast.on_echo2(from, v), naive.on_echo2(from, v)),
                    _ => (fast.set_input(v), naive.set_input(v)),
                };
                proptest::prop_assert_eq!(Vec::from_iter(a), b, "actions diverged");
                proptest::prop_assert_eq!(fast.outcome.as_ref(), naive.outcome.as_ref());
                proptest::prop_assert_eq!(fast.sent_e2, naive.sent_e2);
                let sent: Vec<Dyadic> = fast.sent_e1.iter().copied().collect();
                proptest::prop_assert_eq!(&sent, &naive.sent_e1);
                let tracked: Vec<(Dyadic, usize)> =
                    fast.e1.iter().map(|slot| (slot.value, slot.count)).collect();
                let expect: Vec<(Dyadic, usize)> =
                    naive.e1.iter().map(|(v, set)| (*v, set.len())).collect();
                proptest::prop_assert_eq!(tracked, expect, "tracked ECHO1 values diverged");
            }
        }
    }
}
