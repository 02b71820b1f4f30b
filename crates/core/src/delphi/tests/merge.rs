//! The collectors' merge rule, judged against the unmerged collectors.
//!
//! Two worlds run side by side under one random delivery schedule: in
//! one the honest nodes collect with the merge rule (one section per
//! `(level, round, kind)`), in the other with the reference collectors
//! (`Collector::unmerged`: every background echo a section of its own,
//! one per dimension). Message `i` of one world is delivered with message
//! `i` of the other; after every step the two copies of the receiving
//! node must hold `Debug`-identical state and have answered with the same
//! echoes, and at the end they output the same value.

use std::collections::BTreeSet;

use bytes::Bytes;
use delphi_primitives::wire::{Decode, Encode, VectorValue};
use proptest::prelude::*;

use super::tests::small_cfg;
use super::*;
use crate::messages::{BasketBundle, BasketSection, DelphiBundle, Section};

/// A node type the harness can run in both worlds: the one machine, bare
/// or behind [`DelphiNode`].
trait Twin: Protocol {
    fn machine(&self) -> &VectorDelphiNode;
    fn machine_mut(&mut self) -> &mut VectorDelphiNode;
}

impl Twin for DelphiNode {
    fn machine(&self) -> &VectorDelphiNode {
        &self.0
    }
    fn machine_mut(&mut self) -> &mut VectorDelphiNode {
        &mut self.0
    }
}

impl Twin for VectorDelphiNode {
    fn machine(&self) -> &VectorDelphiNode {
        self
    }
    fn machine_mut(&mut self) -> &mut VectorDelphiNode {
        self
    }
}

/// Switches `node` to the reference (unmerged) collector.
fn unmerged<N: Twin>(mut node: N) -> N {
    node.machine_mut().out.unmerged = true;
    node
}

/// Everything `node` knows, for `Debug` comparison.
fn state<N: Twin>(node: &N) -> String {
    let machine = node.machine();
    format!("{:?} {:?}", machine.levels, machine.output)
}

/// A Byzantine rewrite of a bundle of a `dims`-dimension machine.
fn tamper(payload: &[u8], dims: usize, cfg: &DelphiConfig, rng: &mut SplitMix) -> Bytes {
    if dims == 1 {
        let mut bundle = DelphiBundle::from_bytes(payload).expect("honest bundle");
        tamper_sections(&mut bundle.sections, cfg, rng);
        bundle.to_bytes()
    } else {
        let mut bundle = BasketBundle::from_bytes(payload).expect("honest bundle");
        tamper_sections(&mut bundle.sections, cfg, rng);
        bundle.to_bytes()
    }
}

/// The section surgery a tamperer performs, per layout.
trait Tamperable: Clone {
    fn key(&self) -> (u8, Round, EchoKind);
    /// Moves the second half of the entries into a new background-free
    /// section (so the background no longer shields them).
    fn split(&mut self) -> Option<Self>;
    /// A section whose only content is an echo for checkpoint `k`.
    fn mention(key: (u8, Round, EchoKind), k: i64) -> Self;
}

impl Tamperable for Section {
    fn key(&self) -> (u8, Round, EchoKind) {
        (self.level, self.round, self.kind)
    }
    fn split(&mut self) -> Option<Section> {
        (self.entries.len() >= 2).then(|| {
            let mut tail = Section::new(self.level, self.round, self.kind);
            tail.entries = self.entries.split_off(self.entries.len() / 2);
            tail
        })
    }
    fn mention((level, round, kind): (u8, Round, EchoKind), k: i64) -> Section {
        let mut section = Section::new(level, round, kind);
        section.entries.push((k, Dyadic::ONE));
        section
    }
}

impl Tamperable for BasketSection {
    fn key(&self) -> (u8, Round, EchoKind) {
        (self.level, self.round, self.kind)
    }
    fn split(&mut self) -> Option<BasketSection> {
        (self.entries.len() >= 2).then(|| {
            let mut tail = BasketSection::new(self.level, self.round, self.kind);
            tail.entries = self.entries.split_off(self.entries.len() / 2);
            tail
        })
    }
    fn mention((level, round, kind): (u8, Round, EchoKind), k: i64) -> BasketSection {
        let mut section = BasketSection::new(level, round, kind);
        section.entries.push((k, VectorValue::single(0, Dyadic::ONE)));
        section
    }
}

/// Reorders, duplicates and splits sections, and now and then appends a
/// section that forks a fresh checkpoint *after* the sections before it
/// may have triggered a background echo at the receiver.
fn tamper_sections<S: Tamperable>(sections: &mut Vec<S>, cfg: &DelphiConfig, rng: &mut SplitMix) {
    if sections.is_empty() {
        return;
    }
    if rng.chance(2) {
        let (a, b) = (rng.below(sections.len()), rng.below(sections.len()));
        sections.swap(a, b);
    }
    if rng.chance(3) {
        let copy = sections[rng.below(sections.len())].clone();
        sections.push(copy);
    }
    if rng.chance(3) {
        let at = rng.below(sections.len());
        if let Some(tail) = sections[at].split() {
            sections.insert(at + 1, tail);
        }
    }
    if rng.chance(4) {
        let key = sections[rng.below(sections.len())].key();
        let (k_min, k_max) = cfg.checkpoint_range(key.0);
        let k = k_min + rng.below((k_max - k_min + 1) as usize) as i64;
        sections.push(S::mention(key, k));
    }
}

/// A small deterministic generator (splitmix64) for schedules and
/// tampering.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn chance(&mut self, one_in: u64) -> bool {
        self.next() % one_in == 0
    }
}

/// One echo as a receiver understands it: its dimension and key (level,
/// round, is-`ECHO2`), then either a checkpoint and value, or a
/// background value with the sorted set of checkpoints the section
/// shields from it.
type Echo = (u16, (u8, u16, bool), Option<i64>, Dyadic, Vec<i64>);

/// The echoes a bundle carries, as a sorted multiset. Order is not
/// compared here: a checkpoint's echo and a background echo that shields
/// that checkpoint land on different instances, and the merge rule may
/// send them in either order (an entry collected after a background has
/// joined opens a later section, where the reference appends it to an
/// earlier one). Whatever order does matter shows in the receivers'
/// state, which is compared separately.
///
/// A background's shield is `exclude ∪ entries` of its section. The
/// reference world's shield is the emit-time snapshot itself, so equal
/// echoes also show that no merged section carries an entry for a
/// checkpoint its own background snapshot did not exclude.
fn echoes(payload: &[u8], dims: usize) -> Vec<Echo> {
    let mut arena = BundleArena::new(dims);
    arena.decode(payload).expect("honest bundle");
    let mut out: Vec<Echo> = Vec::new();
    for section in arena.sections() {
        let key = (section.level, section.round.0, section.kind == EchoKind::Echo2);
        for (k, mask, values) in section.basket_entries() {
            for (d, &v) in bits_of(mask).zip(values) {
                out.push((d, key, Some(k), v, Vec::new()));
            }
        }
        for (d, bg) in section.background_dims() {
            let shield: BTreeSet<i64> = section
                .exclude
                .iter()
                .chain(section.entries)
                .copied()
                .filter(|&k| section.names_in(k, d))
                .collect();
            out.push((d, key, None, bg, shield.into_iter().collect()));
        }
    }
    out.sort();
    out
}

/// Sections per `(sender, level, round)` over every bundle of a run.
fn sections_per_level_round(
    sent: &[(NodeId, Bytes)],
    dims: usize,
) -> std::collections::BTreeMap<(NodeId, u8, Round), usize> {
    let mut counts = std::collections::BTreeMap::new();
    let mut arena = BundleArena::new(dims);
    for (from, payload) in sent {
        arena.decode(payload).expect("honest bundle");
        for section in arena.sections() {
            *counts.entry((*from, section.level, section.round)).or_insert(0) += 1;
        }
    }
    counts
}

/// Runs the two worlds to completion; returns the honest outputs.
///
/// `tamperer`, if any, is one Byzantine node shared by both worlds: it
/// runs the honest protocol on what the merged world sends it, rewrites
/// its own bundles with [`tamper`], and sends the same bytes to both. `check_every` thins the (expensive) `Debug` comparison.
fn run_worlds<N: Twin>(
    cfg: &DelphiConfig,
    make: impl Fn(NodeId) -> N,
    tamperer: Option<NodeId>,
    seed: u64,
    check_every: usize,
) -> Vec<N::Output>
where
    N::Output: PartialEq + std::fmt::Debug,
{
    let n = cfg.n();
    let mut rng = SplitMix(seed);
    let mut merged: Vec<N> = NodeId::all(n).map(&make).collect();
    let mut reference: Vec<N> = NodeId::all(n).map(|id| unmerged(make(id))).collect();
    let dims = usize::from(merged[0].machine().dims());
    // In flight: (from, to, merged-world bytes, reference-world bytes).
    let mut pending: Vec<(NodeId, NodeId, Bytes, Bytes)> = Vec::new();
    let broadcast = |from: NodeId,
                     m: Vec<Envelope>,
                     r: Vec<Envelope>,
                     pending: &mut Vec<_>,
                     rng: &mut SplitMix| {
        assert_eq!(m.len(), r.len(), "both worlds answer, or neither");
        for (m, r) in m.into_iter().zip(r) {
            let (m, r) = if Some(from) == tamperer {
                let forged = tamper(&m.payload, dims, cfg, rng);
                (forged.clone(), forged)
            } else {
                assert_eq!(
                    echoes(&m.payload, dims),
                    echoes(&r.payload, dims),
                    "node {from:?} emits the same echoes in both worlds"
                );
                (m.payload, r.payload)
            };
            for to in NodeId::all(n).filter(|&to| to != from) {
                pending.push((from, to, m.clone(), r.clone()));
            }
        }
    };
    for id in NodeId::all(n) {
        let m = merged[id.index()].start();
        // The tamperer is one node: its reference copy mirrors the merged.
        let r = if Some(id) == tamperer { m.clone() } else { reference[id.index()].start() };
        broadcast(id, m, r, &mut pending, &mut rng);
    }
    let mut step = 0usize;
    while !pending.is_empty() {
        let (from, to, m, r) = pending.swap_remove(rng.below(pending.len()));
        let answer_m = merged[to.index()].on_message(from, &m);
        let answer_r = if Some(to) == tamperer {
            answer_m.clone()
        } else {
            let answer_r = reference[to.index()].on_message(from, &r);
            step += 1;
            if step % check_every == 0 {
                assert_eq!(
                    state(&merged[to.index()]),
                    state(&reference[to.index()]),
                    "node {to:?} diverged after step {step}"
                );
            }
            answer_r
        };
        broadcast(to, answer_m, answer_r, &mut pending, &mut rng);
    }
    let honest = || NodeId::all(n).filter(|&id| Some(id) != tamperer);
    for id in honest() {
        assert_eq!(state(&merged[id.index()]), state(&reference[id.index()]), "final {id:?}");
        assert_eq!(merged[id.index()].output(), reference[id.index()].output());
    }
    honest().map(|id| merged[id.index()].output().expect("terminated")).collect()
}

/// Inputs `spread` apart around `base` — wide spreads distinguish more
/// checkpoints than a sender's introduction budget covers, which is where
/// the order of mentions inside a section matters.
fn inputs_for(n: usize, base: f64, spread: f64, rng: &mut SplitMix) -> Vec<f64> {
    (0..n).map(|_| base + spread * (rng.below(1000) as f64 / 1000.0)).collect()
}

/// One differential scalar run; panics on any divergence, returns the
/// honest outputs.
fn scalar_case(n: usize, base: f64, spread: f64, byzantine: bool, seed: u64) -> Vec<f64> {
    let cfg = small_cfg(n);
    let inputs = inputs_for(n, base, spread, &mut SplitMix(seed ^ 0x5ca1a7));
    let tamperer = byzantine.then_some(NodeId((n - 1) as u16));
    let make = |id: NodeId| DelphiNode::new(cfg.clone(), id, inputs[id.index()]);
    run_worlds(&cfg, make, tamperer, seed, if n == 16 { 199 } else { 13 })
}

/// One differential basket run. Dimension 1 shares dimension 0's price
/// range (shared checkpoint ids, merged exclude masks); later pairs sit
/// apart.
fn basket_case(
    n: usize,
    dims: usize,
    base: f64,
    spread: f64,
    byzantine: bool,
    seed: u64,
) -> Vec<Vec<f64>> {
    let cfg = small_cfg(n);
    let mut rng = SplitMix(seed ^ 0xba5ce7);
    let per_dim: Vec<Vec<f64>> =
        (0..dims).map(|d| inputs_for(n, base + 60.0 * (d / 2) as f64, spread, &mut rng)).collect();
    let inputs: Vec<Vec<f64>> =
        (0..n).map(|i| per_dim.iter().map(|dim| dim[i]).collect()).collect();
    let tamperer = byzantine.then_some(NodeId((n - 1) as u16));
    let make = |id: NodeId| VectorDelphiNode::new(cfg.clone(), id, &inputs[id.index()]);
    run_worlds(&cfg, make, tamperer, seed, if n == 16 { 199 } else { 13 })
}

const SIZES: [usize; 3] = [4, 7, 16];
const SPREADS: [f64; 3] = [0.5, 3.0, 24.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn prop_merged_scalar_bundles_drive_receivers_like_reference_bundles(
        n in 0usize..3,
        base in 100.0..900.0f64,
        spread in 0usize..3,
        byzantine in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let outputs = scalar_case(SIZES[n], base, SPREADS[spread], byzantine, seed);
        for a in &outputs {
            for b in &outputs {
                prop_assert!((a - b).abs() <= 1.0 + 1e-9, "ε-agreement");
            }
        }
    }

    #[test]
    fn prop_merged_basket_bundles_drive_receivers_like_reference_bundles(
        n in 0usize..3,
        dims in 1usize..5,
        base in 100.0..700.0f64,
        spread in 0usize..3,
        byzantine in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let n = SIZES[n];
        let dims = if n == 16 { dims.min(2) } else { dims };
        let outputs = basket_case(n, dims, base, SPREADS[spread], byzantine, seed);
        for a in &outputs {
            for b in &outputs {
                for (x, y) in a.iter().zip(b) {
                    prop_assert!((x - y).abs() <= 1.0 + 1e-9, "ε-agreement");
                }
            }
        }
    }
}

#[test]
fn mentions_past_the_introduction_budget_are_charged_in_reference_order() {
    // n = 16 with inputs 24 apart distinguishes more checkpoints per
    // level than one sender's introduction budget covers, so *which*
    // mentions fork depends on the order a receiver walks them in: the
    // entries before the exclude run, as an entry section followed by
    // its background section would. Walking the exclude run first
    // diverges from the reference on exactly these two runs.
    scalar_case(16, 123.171_628_496_770_86, 24.0, true, 16_307_189_114_514_721_990);
    basket_case(16, 1, 567.414_048_961_526_8, 24.0, true, 9_823_775_771_986_449_868);
}

/// Every bundle sent in an honest FIFO (lock-step) mesh, with its sender.
fn record_mesh<N: Protocol>(n: usize, make: impl Fn(NodeId) -> N) -> Vec<(NodeId, Bytes)> {
    let mut nodes: Vec<N> = NodeId::all(n).map(make).collect();
    let mut queue: std::collections::VecDeque<(NodeId, Bytes)> = Default::default();
    let mut sent = Vec::new();
    for node in &mut nodes {
        let me = node.node_id();
        queue.extend(node.start().into_iter().map(|env| (me, env.payload)));
    }
    while let Some((from, payload)) = queue.pop_front() {
        sent.push((from, payload.clone()));
        for to in NodeId::all(n).filter(|&to| to != from) {
            let replies = nodes[to.index()].on_message(from, &payload);
            queue.extend(replies.into_iter().map(|reply| (to, reply.payload)));
        }
    }
    assert!(nodes.iter().all(|node| node.output().is_some()), "mesh terminated");
    sent
}

#[test]
fn honest_lock_step_run_sends_two_sections_per_level_round() {
    let cfg = small_cfg(4);
    let level_rounds = 4 * (usize::from(cfg.l_max()) + 1) * usize::from(cfg.r_max());
    let scalar = |id: NodeId| DelphiNode::new(cfg.clone(), id, 500.0 + 0.3 * id.index() as f64);
    let basket = |id: NodeId| {
        let inputs: Vec<f64> =
            (0..8).map(|d| 100.0 + 90.0 * d as f64 + 0.3 * id.index() as f64).collect();
        VectorDelphiNode::new(cfg.clone(), id, &inputs)
    };

    // One initial burst and one ECHO2 section (entries + background, all
    // dimensions) per sender, level and round …
    let merged = sections_per_level_round(&record_mesh(4, scalar), 1);
    assert_eq!(merged.len(), level_rounds);
    assert!(merged.values().all(|&sections| sections == 2), "{merged:?}");
    let merged = sections_per_level_round(&record_mesh(4, basket), 8);
    assert_eq!(merged.len(), level_rounds);
    assert!(merged.values().all(|&sections| sections == 2), "{merged:?}");

    // … where the unmerged collectors sent the ECHO2 background apart:
    // 3 sections scalar, and one more per dimension at basket 8.
    let reference = sections_per_level_round(&record_mesh(4, |id| unmerged(scalar(id))), 1);
    assert!(reference.values().all(|&sections| sections == 3), "{reference:?}");
    let reference = sections_per_level_round(&record_mesh(4, |id| unmerged(basket(id))), 8);
    assert!(reference.values().all(|&sections| sections == 10), "{reference:?}");
}

#[test]
fn entry_after_a_joined_background_opens_a_new_section() {
    // One call collects: an ECHO2 for checkpoint 7, the background's
    // ECHO2 (snapshot {7, 9}), then — a later section of the same inbound
    // bundle forked checkpoint 8 — an ECHO2 for 8. The background joins
    // the first section and shields 9 beside the entry's 7; checkpoint 8
    // must not land in that section, whose background snapshot predates
    // it (a receiver would wrongly shield 8 from the background echo).
    let key = (2u8, Round(3), EchoKind::Echo2);
    let collect = |unmerged: bool| {
        let mut out = Collector::new(1);
        out.unmerged = unmerged;
        out.entry(key.0, key.1, key.2, 0, 7, Dyadic::ONE);
        out.background(key.0, key.1, key.2, 0, Dyadic::ZERO, [7, 9].into_iter());
        out.entry(key.0, key.1, key.2, 0, 8, Dyadic::ONE);
        let payload = out.flush().pop().expect("a bundle").payload;
        DelphiBundle::from_bytes(&payload).expect("well-formed")
    };
    let merged = collect(false);
    assert_eq!(merged.sections.len(), 2);
    assert_eq!(merged.sections[0].entries, vec![(7, Dyadic::ONE)]);
    assert_eq!(merged.sections[0].background, Some(Dyadic::ZERO));
    assert_eq!(merged.sections[0].exclude, vec![9]);
    assert_eq!(merged.sections[1].entries, vec![(8, Dyadic::ONE)]);
    assert_eq!(merged.sections[1].background, None);
    let reference = collect(true);
    assert_eq!(reference.sections.len(), 2, "7 and 8 share the background-free section");
    assert_eq!(reference.sections[0].entries, vec![(7, Dyadic::ONE), (8, Dyadic::ONE)]);
    assert_eq!(reference.sections[1].exclude, vec![7, 9]);
    // Same echoes; the reference merely sends 8's before the background.
    assert_eq!(echoes(&merged.to_bytes(), 1), echoes(&reference.to_bytes(), 1));
}

#[test]
fn basket_backgrounds_of_one_key_share_a_section_and_an_exclude_run() {
    let key = (0u8, Round(1), EchoKind::Echo2);
    let mut out = Collector::new(2);
    out.entry(key.0, key.1, key.2, 0, 500, Dyadic::ONE);
    out.entry(key.0, key.1, key.2, 1, 500, Dyadic::ONE); // same checkpoint, next dim
    out.entry(key.0, key.1, key.2, 1, 640, Dyadic::ONE);
    out.background(key.0, key.1, key.2, 0, Dyadic::ZERO, [499, 500, 501].into_iter());
    out.background(key.0, key.1, key.2, 1, Dyadic::ZERO, [498, 500, 501, 640].into_iter());
    // A second background value in a dimension that has one opens a
    // section of its own.
    out.background(key.0, key.1, key.2, 1, Dyadic::ONE, [640].into_iter());
    let payload = out.flush().pop().expect("a bundle").payload;
    let bundle = BasketBundle::from_bytes(&payload).expect("well-formed");
    assert_eq!(bundle.sections.len(), 2);
    let first = &bundle.sections[0];
    assert_eq!(first.backgrounds.mask(), 0b11);
    assert_eq!(first.entries.len(), 2, "500 carries both dimensions");
    assert_eq!(first.entries[0].1.mask(), 0b11);
    // Ascending, one pair per checkpoint, entries' own mentions left out.
    assert_eq!(first.exclude, vec![(498, 0b10), (499, 0b01), (501, 0b11)]);
    assert_eq!(bundle.sections[1].exclude, vec![(640, 0b10)]);
    assert!(bundle.sections[1].entries.is_empty());
}
