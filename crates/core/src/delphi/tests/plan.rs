//! Replayed plans, judged against resolving every call.
//!
//! A node replays the plan of a byte-equal repeat instead of resolving it
//! again (see the module docs). The reference is the same node with its
//! plan dropped before every call (`Plan::kept` cleared), so it resolves
//! every section of every call. Both copies of each honest node are
//! handed every message in the same order: every call must answer the
//! same bytes, the copies must hold `Debug`-identical state, and they
//! must output the same values.
//!
//! Faulty nodes are driven as one [`Forger`]: each bundle it forges
//! leaves from every faulty node in turn, so a receiver meets it once and
//! then as a repeat from a second sender — the case a plan is for.

use std::collections::VecDeque;

use bytes::Bytes;
use proptest::prelude::*;

use super::forger::{every, inputs, judge_decided, Attack, Forger, SplitMix, ATTACKS};
use super::tests::{small_cfg, zero_everywhere};
use super::*;
use crate::messages::{BasketBundle, BasketSection};

/// One honest node run twice on every input: as built, replaying plans,
/// and as the resolve-every-call reference.
struct Paired {
    planned: VectorDelphiNode,
    reference: VectorDelphiNode,
    /// Calls that replayed a plan.
    replays: usize,
}

impl Paired {
    fn new(cfg: &DelphiConfig, id: NodeId, inputs: &[f64]) -> Paired {
        let make = || VectorDelphiNode::new(cfg.clone(), id, inputs);
        Paired { planned: make(), reference: make(), replays: 0 }
    }

    fn start(&mut self) -> Vec<Envelope> {
        let burst = self.planned.start();
        assert!(burst == self.reference.start(), "the start bursts differ");
        burst
    }

    /// Hands both copies one message; panics unless they answer the same
    /// bytes.
    fn deliver(&mut self, from: NodeId, payload: &[u8], what: &str) -> Vec<Envelope> {
        self.reference.plan.kept = false;
        let expected = self.reference.on_message(from, payload);
        // A replay is a repeat, as `decode` itself finds it, of a plan that holds.
        let repeat = self.planned.arena.clone().decode(payload) == Ok(true);
        self.replays += usize::from(repeat && holds(self));
        let answer = self.planned.on_message(from, payload);
        assert!(answer == expected, "{what}: the answers differ");
        answer
    }

    fn assert_same_state(&self, what: &str) {
        let state = |node: &VectorDelphiNode| format!("{:?} {:?}", node.levels, node.output);
        assert_eq!(state(&self.planned), state(&self.reference), "{what}");
    }
}

/// Runs `n` paired honest nodes of basket size `dims` — and `t` faulty
/// ones unless `attack` is `None` — to the end. Delivery is first in,
/// first out, except that one message in four jumps the queue. Judges
/// the outputs of the nodes that decided against the honest inputs, and
/// returns the calls that replayed a plan, and all calls.
fn run(n: usize, dims: usize, attack: Attack, seed: u64) -> (usize, usize) {
    let cfg = small_cfg(n);
    let mut rng = SplitMix(seed);
    let honest = if matches!(attack, Attack::None) { n } else { n - cfg.t() };
    let faulty: Vec<NodeId> = (honest..n).map(|i| NodeId(i as u16)).collect();
    let inputs = inputs(honest, dims, &mut rng);
    let mut nodes: Vec<Paired> = inputs
        .iter()
        .enumerate()
        .map(|(i, input)| Paired::new(&cfg, NodeId(i as u16), input))
        .collect();
    let mut forger = Forger::of(&cfg, attack, dims, seed ^ 0xf0e);
    let mut queue: VecDeque<(NodeId, NodeId, Bytes)> = VecDeque::new();
    let send = |queue: &mut VecDeque<_>, from: NodeId, to: Option<NodeId>, payload: &Bytes| {
        let to_all = NodeId::all(n).filter(|&to| to != from);
        for to in to.map_or_else(|| to_all.collect(), |to| vec![to]) {
            queue.push_back((from, to, payload.clone()));
        }
    };
    // Every forged bundle leaves from each faulty node in turn.
    let forge = |queue: &mut VecDeque<_>, forger: &mut Forger, heard: Option<&[u8]>| {
        for (to, payload) in forger.forge(heard) {
            faulty.iter().for_each(|&from| send(queue, from, to, &payload));
        }
    };
    for (i, node) in nodes.iter_mut().enumerate() {
        node.start().iter().for_each(|env| send(&mut queue, NodeId(i as u16), None, &env.payload));
    }
    forge(&mut queue, &mut forger, None);
    let mut calls = 0usize;
    while !queue.is_empty() {
        let at = if rng.chance(4) { rng.below(queue.len()) } else { 0 };
        let Some((from, to, payload)) = queue.remove(at) else { break };
        let Some(node) = nodes.get_mut(to.index()) else {
            forge(&mut queue, &mut forger, Some(&payload));
            continue;
        };
        calls += 1;
        let what = format!(
            "{attack:?} n = {n}, m = {dims}, seed {seed}: call {calls}, {from:?} to {to:?}"
        );
        let answer = node.deliver(from, &payload, &what);
        if calls % 16 == 0 {
            node.assert_same_state(&what);
        }
        answer.iter().for_each(|env| send(&mut queue, to, None, &env.payload));
    }
    for (i, node) in nodes.iter().enumerate() {
        node.assert_same_state(&format!("{attack:?} n = {n}, m = {dims}, seed {seed}: node {i}"));
        let decides = node.planned.output.is_some() || !matches!(attack, Attack::None);
        assert!(decides, "n = {n}, m = {dims}, seed {seed}: node {i} decides");
    }
    let decided = nodes.iter().filter_map(|node| node.planned.output.as_ref());
    judge_decided(&cfg, &inputs, decided, &format!("{attack:?} n = {n}, m = {dims}, seed {seed}"));
    (nodes.iter().map(|node| node.replays).sum(), calls)
}

#[test]
fn plans_answer_like_resolving_every_call_under_every_attack() {
    for dims in [1, 3] {
        for attack in ATTACKS {
            for n in [4, 7] {
                let (replays, calls) = run(n, dims, attack, 7 + n as u64);
                assert!(replays > 0, "{attack:?} n = {n}, m = {dims}: no call replayed a plan");
                if matches!(attack, Attack::None) {
                    assert!(8 * replays > calls, "honest n = {n}, m = {dims}: {replays}/{calls}");
                }
            }
        }
    }
}

#[test]
fn plans_answer_like_resolving_every_call_at_sixteen_nodes() {
    let (replays, calls) = run(16, 1, Attack::None, 3);
    assert!(3 * replays > calls, "{replays} of {calls} calls replayed a plan");
    run(16, 1, Attack::Tamper, 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn prop_plans_answer_like_resolving_every_call(
        n in 0usize..2,
        dims in 0usize..2,
        attack in 0usize..ATTACKS.len(),
        seed in any::<u64>(),
    ) {
        run([4, 7][n], [1, 3][dims], ATTACKS[attack], seed);
    }
}

/// A started paired node 0 of `n`, basket size 1.
fn paired(n: usize) -> Paired {
    let mut node = Paired::new(&small_cfg(n), NodeId(0), &[500.0]);
    let _ = node.start();
    node
}

/// Whether the next byte-equal repeat would replay `node`'s plan.
fn holds(node: &Paired) -> bool {
    node.planned.plan_holds(&node.planned.plan)
}

#[test]
fn a_repeat_from_a_second_sender_replays_the_plan() {
    // n = 16: eleven round-1 echoes are a quorum, so two change nothing.
    let mut node = paired(16);
    let bundle = zero_everywhere(&small_cfg(16), Round::FIRST);
    let _ = node.deliver(NodeId(1), &bundle, "first");
    assert!(holds(&node) && node.replays == 0);
    let _ = node.deliver(NodeId(2), &bundle, "repeat");
    assert_eq!(node.replays, 1);
    node.assert_same_state("after the replay");
}

#[test]
fn a_fork_inside_the_call_drops_the_plan() {
    // The background section feeds level 0; the next section then forks
    // checkpoint 900 there, which the first one's tallies predate.
    let mut node = paired(16);
    let background =
        BasketSection::new(0, Round::FIRST, EchoKind::Echo1).with_background(Dyadic::ZERO);
    let fork =
        BasketSection::new(0, Round::FIRST, EchoKind::Echo1).with_entries([(900, Dyadic::ONE)]);
    let bundle = BasketBundle { sections: vec![background, fork] }.to_bytes(1);
    let _ = node.deliver(NodeId(1), &bundle, "first");
    assert!(!holds(&node), "a fork after a section used the level");
    let _ = node.deliver(NodeId(2), &bundle, "repeat");
    assert_eq!(node.replays, 0, "the repeat is resolved again");
    assert!(holds(&node), "and no fork follows a use this time");
    let _ = node.deliver(NodeId(3), &bundle, "second repeat");
    assert_eq!(node.replays, 1);
    node.assert_same_state("after the repeats");
}

#[test]
fn a_round_advance_drops_the_plan() {
    // n = 4: a second peer's round-1 echoes complete round 1 everywhere.
    let mut node = paired(4);
    let bundle = zero_everywhere(&small_cfg(4), Round::FIRST);
    let _ = node.deliver(NodeId(1), &bundle, "first");
    let answer = node.deliver(NodeId(2), &bundle, "repeat");
    assert_eq!(node.replays, 1);
    assert!(!answer.is_empty() && node.planned.levels.iter().all(|dim| dim.round == 2));
    assert!(!holds(&node), "every level it feeds has left round 1");
    let _ = node.deliver(NodeId(3), &bundle, "after the advance");
    assert_eq!(node.replays, 1, "resolved against round 2");
    node.assert_same_state("after the advance");
}

#[test]
fn a_failed_decode_drops_the_plan() {
    let mut node = paired(16);
    let bundle = zero_everywhere(&small_cfg(16), Round::FIRST);
    let _ = node.deliver(NodeId(1), &bundle, "first");
    assert!(node.deliver(NodeId(3), &bundle[..bundle.len() - 1], "truncated").is_empty());
    let _ = node.deliver(NodeId(2), &bundle, "after the failure");
    assert_eq!(node.replays, 0, "the bytes are decoded and resolved again");
    node.assert_same_state("after the failure");
}

#[test]
fn a_refused_mention_drops_the_plan() {
    // Ten fresh checkpoints against a budget of eight: the second sender
    // forks the two the first could not.
    let mut node = paired(4);
    let s = BasketSection::new(0, Round::FIRST, EchoKind::Echo1)
        .with_background(Dyadic::ZERO)
        .with_entries((200..210).map(|k| (k, Dyadic::ONE)));
    let bundle = BasketBundle { sections: vec![s] }.to_bytes(1);
    let before = node.planned.active_checkpoints(0);
    let _ = node.deliver(NodeId(3), &bundle, "first");
    assert!(!node.planned.plan.kept);
    assert_eq!(node.planned.active_checkpoints(0), before + 8);
    let _ = node.deliver(NodeId(2), &bundle, "repeat");
    assert_eq!(node.replays, 0);
    assert_eq!(node.planned.active_checkpoints(0), before + 10);
    node.assert_same_state("after the repeat");
}

#[test]
fn a_plan_is_no_larger_than_its_bundle() {
    // Eight dimensions with nine or more checkpoints each at level 0, then
    // bundles of `MAX_SECTIONS` sections, each a background in every
    // dimension: bare, naming every other checkpoint, naming them all. A
    // background's tallies are the stretches of its row between the named
    // checkpoints, so a plan holds a tally per value and per name at most:
    // no more than the bundle's bytes pay for (a name costs an id byte and
    // a mask bit). Listing every unnamed cell held 16 times the bytes.
    let (cfg, dims) = (small_cfg(16), 8);
    let mut node = VectorDelphiNode::new(cfg.clone(), NodeId(0), &[500.0; 8]);
    let _ = node.start();
    let (k_min, _) = cfg.checkpoint_range(0);
    let section = BasketSection::new(0, Round::FIRST, EchoKind::Echo1);
    let entries = (0..8).map(|i| (k_min + 2 * i, every(dims, Dyadic::ONE)));
    let fork = BasketSection { entries: entries.collect(), ..section.clone() };
    let _ = node.on_message(NodeId(1), &BasketBundle { sections: vec![fork] }.to_bytes(dims));
    assert!(node.active_checkpoints(0) >= 9 * dims);
    let all: Vec<i64> = node.levels[0].table.ids().collect();
    let every_other = all.iter().copied().step_by(2).collect();
    for (from, exclude) in [(2, Vec::new()), (3, every_other), (4, all)] {
        let backgrounds = every(dims, Dyadic::ZERO);
        let exclude = exclude.into_iter().map(|k| (k, backgrounds.mask())).collect();
        let flood = BasketSection { backgrounds, exclude, ..section.clone() };
        let sections = vec![flood; crate::bundle::MAX_SECTIONS];
        let payload = BasketBundle { sections }.to_bytes(dims);
        let _ = node.on_message(NodeId(from), &payload);
        let plan = &node.plan;
        assert_eq!(plan.sections.len(), crate::bundle::MAX_SECTIONS);
        let (bytes, slots) = (payload.len(), plan.sections.capacity() + plan.tallies.capacity());
        assert!(slots <= 8 * bytes, "{slots} sections and tallies for {bytes} bytes");
    }
}
