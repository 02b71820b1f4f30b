//! The §II-C communication optimization: `VAL` state-shift messages.
//!
//! Plain BinAA sends the full state value in every echo. The optimized
//! variant observes that a node's round-`r` state moves by at most two
//! grid steps per round, so the *initial* echo of each round can be a
//! 5-way code — `2L, L, C, R, 2R` — relative to the sender's previous
//! round: `value_r = value_{r−1} + c/2^{r−1}` with `c ∈ {−2..2}`.
//! Amplification `ECHO1`s and `ECHO2`s are likewise coded as small offsets
//! from the sender's own round value. Receivers reconstruct each sender's
//! value *trajectory* FIFO-style (the paper's "waits for all VAL messages
//! from rounds 1..r"), buffering echoes that arrive before the trajectory
//! prefix they need.
//!
//! This drops the per-message payload from `O(log(1/ε))` bits (a full
//! dyadic) to `O(log log(1/ε))` bits (a code plus the round number) — the
//! `log log` factor in Delphi's Table I row. [`CompactBinAaNode`] is
//! behaviourally interchangeable with [`BinAaNode`](crate::BinAaNode);
//! the benches compare their bandwidth.

use delphi_primitives::wire::{Decode, Encode, Reader, WireError, Writer};
use delphi_primitives::{Dyadic, Envelope, NodeId, Protocol, Round};

use crate::bv::{BvAction, BvTable};
use crate::messages::EchoKind;
use crate::params::MAX_ROUNDS;

/// Maximum buffered out-of-order echoes per sender.
const MAX_PENDING_PER_SENDER: usize = 4 * MAX_ROUNDS as usize;

/// A compact BinAA message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompactMsg {
    /// Round this message belongs to.
    pub round: Round,
    /// What the code means.
    pub kind: CompactKind,
    /// Shift code. For `Val` in round 1 this is the raw input bit (0/1);
    /// for later `Val`s it is the state shift `c ∈ {−2..2}`; for echoes it
    /// is the offset of the echoed value from the sender's own round
    /// value, in grid steps.
    pub code: i8,
}

/// Message role within the compact encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompactKind {
    /// Initial round echo carrying a trajectory code (replaces the plain
    /// initial `ECHO1`).
    Val,
    /// Amplification `ECHO1`, coded relative to the sender's own value.
    Echo1,
    /// `ECHO2`, coded relative to the sender's own value.
    Echo2,
}

impl Encode for CompactMsg {
    fn encode(&self, w: &mut Writer) {
        w.put(&self.round);
        w.put_raw_u8(match self.kind {
            CompactKind::Val => 0,
            CompactKind::Echo1 => 1,
            CompactKind::Echo2 => 2,
        });
        w.put_i64(i64::from(self.code));
    }
}

impl Decode for CompactMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let round = r.get::<Round>()?;
        let kind = match r.get_raw_u8()? {
            0 => CompactKind::Val,
            1 => CompactKind::Echo1,
            2 => CompactKind::Echo2,
            d => return Err(WireError::InvalidDiscriminant(u64::from(d))),
        };
        let code = r.get_i64()?;
        let code = i8::try_from(code).map_err(|_| WireError::InvalidValue)?;
        Ok(CompactMsg { round, kind, code })
    }
}

/// Converts a dyadic in `[0,1]` to its position on the round-`r` grid
/// `j / 2^{r−1}`, if it lies on that grid.
fn to_grid(v: Dyadic, round: Round) -> Option<i64> {
    let g = round.0.checked_sub(1)?;
    let ld = u16::from(v.log_den());
    if ld > g {
        return None;
    }
    Some((v.num() << (g - ld)) as i64)
}

/// Converts a round-`r` grid position back to a dyadic, validating range.
fn from_grid(j: i64, round: Round) -> Option<Dyadic> {
    let g = round.0 - 1;
    if g > 62 || j < 0 || j > (1i64 << g.min(62)) {
        return None;
    }
    Dyadic::try_new(j as u64, g as u8).ok().filter(|d| d.in_unit_interval())
}

/// Per-sender trajectory reconstruction state.
#[derive(Clone, Debug)]
struct SenderChain {
    /// `Val` codes per round (index `round − 1`).
    codes: Vec<Option<i8>>,
    /// Reconstructed state values entering each round.
    resolved: Vec<Option<Dyadic>>,
    /// Echoes waiting for their round's trajectory value.
    pending: Vec<(Round, EchoKind, i8)>,
    /// Sender emitted an impossible trajectory: ignore it from now on.
    poisoned: bool,
}

impl SenderChain {
    fn new(r_max: u16) -> SenderChain {
        SenderChain {
            codes: vec![None; usize::from(r_max)],
            resolved: vec![None; usize::from(r_max)],
            pending: Vec::new(),
            poisoned: false,
        }
    }

    /// Stores a `Val` code and extends the resolved prefix. Returns the
    /// rounds newly resolved as `(round, value)` — each counts as an
    /// `ECHO1` for that round.
    fn add_code(&mut self, round: Round, code: i8) -> Vec<(Round, Dyadic)> {
        if self.poisoned || self.codes[round.index()].is_some() {
            return Vec::new(); // duplicate VALs are Byzantine; first wins
        }
        self.codes[round.index()] = Some(code);
        let mut newly = Vec::new();
        // Extend the resolved prefix as far as codes allow.
        for r in 0..self.codes.len() {
            if self.resolved[r].is_some() {
                continue;
            }
            let Some(code) = self.codes[r] else { break };
            let value = if r == 0 {
                match code {
                    0 => Dyadic::ZERO,
                    1 => Dyadic::ONE,
                    _ => {
                        self.poisoned = true;
                        return newly;
                    }
                }
            } else {
                let round = Round((r + 1) as u16);
                let prev = self.resolved[r - 1].expect("prefix resolved");
                // value_r = value_{r−1} + c / 2^{r−1}.
                let Some(prev_j) = to_grid(prev, round) else {
                    self.poisoned = true;
                    return newly;
                };
                if !(-2..=2).contains(&code) {
                    self.poisoned = true;
                    return newly;
                }
                match from_grid(prev_j + i64::from(code), round) {
                    Some(v) => v,
                    None => {
                        self.poisoned = true;
                        return newly;
                    }
                }
            };
            self.resolved[r] = Some(value);
            newly.push((Round((r + 1) as u16), value));
        }
        newly
    }

    /// Resolves an echo code against the sender's trajectory, or buffers it.
    fn resolve_echo(
        &mut self,
        round: Round,
        kind: EchoKind,
        code: i8,
    ) -> Option<(Round, EchoKind, Dyadic)> {
        if self.poisoned {
            return None;
        }
        match self.resolved[round.index()] {
            Some(own) => {
                let j = to_grid(own, round)?;
                let value = from_grid(j + i64::from(code), round)?;
                Some((round, kind, value))
            }
            None => {
                if self.pending.len() < MAX_PENDING_PER_SENDER {
                    self.pending.push((round, kind, code));
                }
                None
            }
        }
    }

    /// Drains buffered echoes that have become resolvable.
    fn drain_pending(&mut self) -> Vec<(Round, EchoKind, Dyadic)> {
        if self.poisoned {
            self.pending.clear();
            return Vec::new();
        }
        let mut ready = Vec::new();
        let resolved = &self.resolved;
        self.pending.retain(|&(round, kind, code)| {
            if let Some(own) = resolved[round.index()] {
                if let Some(j) = to_grid(own, round) {
                    if let Some(value) = from_grid(j + i64::from(code), round) {
                        ready.push((round, kind, value));
                    }
                }
                false // resolvable (even if invalid): drop from buffer
            } else {
                true
            }
        });
        ready
    }
}

/// BinAA with the compact `VAL`/shift-code wire format.
///
/// Interchangeable with [`BinAaNode`](crate::BinAaNode) — all nodes in a
/// deployment must use the same variant. See the
/// [module docs](self) for the encoding.
#[derive(Debug)]
pub struct CompactBinAaNode {
    me: NodeId,
    n: usize,
    r_max: u16,
    rounds: BvTable,
    current: u16,
    value: Dyadic,
    /// Own state value entering each round (the trajectory we announce).
    own_values: Vec<Dyadic>,
    chains: Vec<SenderChain>,
    output: Option<Dyadic>,
}

impl CompactBinAaNode {
    /// Creates a compact BinAA node. Same contract as
    /// [`BinAaNode::new`](crate::BinAaNode::new).
    ///
    /// # Panics
    ///
    /// Panics if `n < 3t + 1`, `me` is out of range, or
    /// `r_max ∉ 1..=`[`MAX_ROUNDS`].
    pub fn new(me: NodeId, n: usize, t: usize, input: bool, r_max: u16) -> CompactBinAaNode {
        assert!(n > 3 * t, "BinAA requires n >= 3t + 1");
        assert!(me.index() < n, "node id out of range");
        assert!((1..=MAX_ROUNDS).contains(&r_max), "r_max must be in 1..={MAX_ROUNDS}");
        CompactBinAaNode {
            me,
            n,
            r_max,
            rounds: BvTable::new(me, n, t, r_max),
            current: 1,
            value: Dyadic::from_bit(input),
            own_values: Vec::with_capacity(usize::from(r_max)),
            chains: (0..n).map(|_| SenderChain::new(r_max)).collect(),
            output: None,
        }
    }

    /// Boxes the node for use with heterogeneous drivers.
    pub fn boxed(self) -> Box<dyn Protocol<Output = Dyadic>> {
        Box::new(self)
    }

    /// Encodes one of our BvActions as a compact message, if expressible.
    fn encode_action(&self, round: Round, action: BvAction) -> Option<CompactMsg> {
        let own = *self.own_values.get(round.index())?;
        let (kind, value) = match action {
            BvAction::Echo1(v) => (CompactKind::Echo1, v),
            BvAction::Echo2(v) => (CompactKind::Echo2, v),
        };
        let own_j = to_grid(own, round)?;
        let v_j = to_grid(value, round)?;
        let code = i8::try_from(v_j - own_j).ok()?;
        Some(CompactMsg { round, kind, code })
    }

    /// Enters rounds whose predecessors have terminated, emitting `Val`
    /// trajectory codes; records the final output after round `r_max`.
    fn advance(&mut self, out: &mut Vec<CompactMsg>, extra: &mut Vec<(Round, BvAction)>) {
        while self.current <= self.r_max {
            let round = Round(self.current);
            if self.own_values.len() < usize::from(self.current) {
                // Entering `round` for the first time: announce the code.
                let code = if round == Round::FIRST {
                    i8::try_from(self.value.num()).expect("bit")
                } else {
                    let prev = self.own_values[round.index() - 1];
                    let prev_j = to_grid(prev, round).expect("own trajectory on grid");
                    let cur_j = to_grid(self.value, round).expect("own value on grid");
                    i8::try_from(cur_j - prev_j).expect("shift within ±2")
                };
                self.own_values.push(self.value);
                out.push(CompactMsg { round, kind: CompactKind::Val, code });
                let value = self.value;
                let Some(mut bv) = self.rounds.cell_mut(round, 0) else { break };
                extra.extend(bv.set_input(value).into_iter().map(|a| (round, a)));
            }
            let Some(outcome) = self.rounds.outcome(round, 0) else { break };
            self.value = outcome.next_value();
            self.current += 1;
            if self.current > self.r_max {
                self.output = Some(self.value);
            }
        }
    }

    fn feed(
        &mut self,
        from: NodeId,
        round: Round,
        kind: EchoKind,
        value: Dyadic,
    ) -> Vec<(Round, BvAction)> {
        if u16::from(value.log_den()) >= round.0 || !value.in_unit_interval() {
            return Vec::new();
        }
        let Some(mut bv) = self.rounds.cell_mut(round, 0) else { return Vec::new() };
        bv.feed(kind, from, value).into_iter().map(|a| (round, a)).collect()
    }

    fn finish_step(
        &mut self,
        mut msgs: Vec<CompactMsg>,
        mut extra: Vec<(Round, BvAction)>,
    ) -> Vec<Envelope> {
        // Actions triggered by quorums; advancing can trigger more actions
        // and vice versa, so iterate to quiescence.
        loop {
            let mut new_msgs = Vec::new();
            self.advance(&mut new_msgs, &mut extra);
            let had = new_msgs.is_empty() && extra.is_empty();
            for (round, action) in std::mem::take(&mut extra) {
                // Initial ECHO1s duplicate the Val announcement; skip them.
                if matches!(action, BvAction::Echo1(v) if self.own_values.get(round.index()) == Some(&v))
                {
                    continue;
                }
                if let Some(m) = self.encode_action(round, action) {
                    new_msgs.push(m);
                }
            }
            msgs.extend(new_msgs);
            if had {
                break;
            }
        }
        msgs.into_iter().map(|m| Envelope::to_all(m.to_bytes())).collect()
    }
}

impl Protocol for CompactBinAaNode {
    type Output = Dyadic;

    fn node_id(&self) -> NodeId {
        self.me
    }

    fn n(&self) -> usize {
        self.n
    }

    fn start(&mut self) -> Vec<Envelope> {
        self.finish_step(Vec::new(), Vec::new())
    }

    fn on_message(&mut self, from: NodeId, payload: &[u8]) -> Vec<Envelope> {
        if from.index() >= self.n || from == self.me {
            return Vec::new();
        }
        let Ok(msg) = CompactMsg::from_bytes(payload) else {
            return Vec::new();
        };
        if msg.round.0 < 1 || msg.round.0 > self.r_max {
            return Vec::new();
        }
        let mut extra: Vec<(Round, BvAction)> = Vec::new();
        match msg.kind {
            CompactKind::Val => {
                let newly = self.chains[from.index()].add_code(msg.round, msg.code);
                for (round, value) in newly {
                    extra.extend(self.feed(from, round, EchoKind::Echo1, value));
                }
                let ready = self.chains[from.index()].drain_pending();
                for (round, kind, value) in ready {
                    extra.extend(self.feed(from, round, kind, value));
                }
            }
            CompactKind::Echo1 | CompactKind::Echo2 => {
                let kind =
                    if msg.kind == CompactKind::Echo1 { EchoKind::Echo1 } else { EchoKind::Echo2 };
                if let Some((round, kind, value)) =
                    self.chains[from.index()].resolve_echo(msg.round, kind, msg.code)
                {
                    extra.extend(self.feed(from, round, kind, value));
                }
            }
        }
        self.finish_step(Vec::new(), extra)
    }

    fn output(&self) -> Option<Dyadic> {
        self.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delphi_primitives::wire::roundtrip;
    use delphi_sim::adversary::Crash;
    use delphi_sim::{Simulation, Topology};
    use proptest::prelude::*;

    #[test]
    fn grid_conversions_roundtrip() {
        for r in 1..=10u16 {
            let round = Round(r);
            for j in 0..=(1i64 << (r - 1)) {
                let v = from_grid(j, round).unwrap();
                assert_eq!(to_grid(v, round), Some(j), "round {r} grid {j}");
            }
        }
        // Off-grid and out-of-range values.
        assert_eq!(to_grid(Dyadic::new(1, 3), Round(2)), None);
        assert_eq!(from_grid(-1, Round(3)), None);
        assert_eq!(from_grid(5, Round(3)), None); // 5/4 > 1
    }

    #[test]
    fn compact_msg_roundtrip() {
        for kind in [CompactKind::Val, CompactKind::Echo1, CompactKind::Echo2] {
            for code in [-2i8, -1, 0, 1, 2] {
                let m = CompactMsg { round: Round(5), kind, code };
                assert_eq!(roundtrip(&m).unwrap(), m);
            }
        }
        // Compactness: 3 bytes for typical messages.
        let m = CompactMsg { round: Round(23), kind: CompactKind::Val, code: -2 };
        assert!(m.to_bytes().len() <= 3, "compact message is small");
    }

    #[test]
    fn chain_resolves_trajectory() {
        let mut c = SenderChain::new(4);
        // Round 1: bit 1. Round 2: shift -1 (1 -> 1/2).
        let r1 = c.add_code(Round(1), 1);
        assert_eq!(r1, vec![(Round(1), Dyadic::ONE)]);
        let r2 = c.add_code(Round(2), -1);
        assert_eq!(r2, vec![(Round(2), Dyadic::new(1, 1))]);
        // Out-of-order: round 4 before round 3.
        assert!(c.add_code(Round(4), 0).is_empty());
        let r34 = c.add_code(Round(3), 1);
        assert_eq!(r34, vec![(Round(3), Dyadic::new(3, 2)), (Round(4), Dyadic::new(3, 2))]);
    }

    #[test]
    fn chain_poisons_on_invalid_codes() {
        let mut c = SenderChain::new(4);
        assert!(c.add_code(Round(1), 7).is_empty()); // bit must be 0/1
        assert!(c.poisoned);
        assert!(c.add_code(Round(2), 0).is_empty());

        let mut c = SenderChain::new(4);
        let _ = c.add_code(Round(1), 0);
        // Shift below the grid floor: 0 - 2 steps < 0.
        assert!(c.add_code(Round(2), -2).is_empty());
        assert!(c.poisoned);
    }

    #[test]
    fn echoes_buffer_until_trajectory_known() {
        let mut c = SenderChain::new(4);
        assert_eq!(c.resolve_echo(Round(2), EchoKind::Echo1, 1), None);
        assert_eq!(c.pending.len(), 1);
        let _ = c.add_code(Round(1), 0);
        let _ = c.add_code(Round(2), 1); // value 1/2
        let drained = c.drain_pending();
        assert_eq!(drained, vec![(Round(2), EchoKind::Echo1, Dyadic::ONE)]);
        assert!(c.pending.is_empty());
    }

    fn run_compact(n: usize, t: usize, r_max: u16, inputs: &[bool], seed: u64) -> Vec<Dyadic> {
        let nodes: Vec<Box<dyn Protocol<Output = Dyadic>>> = NodeId::all(n)
            .map(|id| CompactBinAaNode::new(id, n, t, inputs[id.index()], r_max).boxed())
            .collect();
        let report = Simulation::new(Topology::lan(n)).seed(seed).run(nodes);
        assert!(report.all_honest_finished(), "compact BinAA stalled: {:?}", report.stop);
        report.honest_outputs().copied().collect()
    }

    #[test]
    fn compact_reaches_agreement() {
        let outs = run_compact(4, 1, 8, &[true, false, true, false], 5);
        let tol = Dyadic::new(1, 8);
        for a in &outs {
            assert!(a.in_unit_interval());
            for b in &outs {
                assert!(a.abs_diff(*b) <= tol);
            }
        }
    }

    #[test]
    fn compact_unanimous_validity() {
        for bit in [false, true] {
            let outs = run_compact(4, 1, 6, &[bit; 4], 6);
            for o in outs {
                assert_eq!(o, Dyadic::from_bit(bit));
            }
        }
    }

    #[test]
    fn compact_tolerates_crash() {
        let n = 7;
        let inputs = [true, false, true, true, false, true, true];
        let nodes: Vec<Box<dyn Protocol<Output = Dyadic>>> = NodeId::all(n)
            .map(|id| {
                if id.index() == 6 {
                    Box::new(Crash::new(id, n))
                } else {
                    CompactBinAaNode::new(id, n, 2, inputs[id.index()], 8).boxed()
                }
            })
            .collect();
        let report = Simulation::new(Topology::lan(n)).seed(8).faulty(&[NodeId(6)]).run(nodes);
        assert!(report.all_honest_finished());
        let outs: Vec<Dyadic> = report.honest_outputs().copied().collect();
        let tol = Dyadic::new(1, 8);
        for a in &outs {
            for b in &outs {
                assert!(a.abs_diff(*b) <= tol);
            }
        }
    }

    #[test]
    fn compact_uses_less_bandwidth_than_plain() {
        let n = 7;
        let inputs = [true, false, true, false, true, false, true];
        let r_max = 10;
        let plain_nodes: Vec<Box<dyn Protocol<Output = Dyadic>>> = NodeId::all(n)
            .map(|id| crate::BinAaNode::new(id, n, 2, inputs[id.index()], r_max).boxed())
            .collect();
        let plain = Simulation::new(Topology::lan(n)).seed(9).run(plain_nodes);
        let compact_nodes: Vec<Box<dyn Protocol<Output = Dyadic>>> = NodeId::all(n)
            .map(|id| CompactBinAaNode::new(id, n, 2, inputs[id.index()], r_max).boxed())
            .collect();
        let compact = Simulation::new(Topology::lan(n)).seed(9).run(compact_nodes);
        assert!(
            compact.metrics.total_payload_bytes() < plain.metrics.total_payload_bytes(),
            "compact {} >= plain {}",
            compact.metrics.total_payload_bytes(),
            plain.metrics.total_payload_bytes()
        );
    }

    #[test]
    fn malformed_messages_ignored() {
        let mut node = CompactBinAaNode::new(NodeId(0), 4, 1, true, 4);
        let _ = node.start();
        assert!(node.on_message(NodeId(1), b"junk").is_empty());
        let bad = CompactMsg { round: Round(9), kind: CompactKind::Val, code: 0 };
        assert!(node.on_message(NodeId(1), &bad.to_bytes()).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_compact_agreement(
            n in 4usize..8,
            bits in proptest::collection::vec(any::<bool>(), 8),
            r_max in 2u16..8,
            seed in 0u64..u64::MAX,
        ) {
            let t = (n - 1) / 3;
            let outs = run_compact(n, t, r_max, &bits[..n], seed);
            let tol = Dyadic::new(1, r_max as u8);
            for a in &outs {
                prop_assert!(a.in_unit_interval());
                for b in &outs {
                    prop_assert!(a.abs_diff(*b) <= tol);
                }
            }
        }
    }
}
