//! One Delphi forger: every protocol-aware attack the Delphi tests run.
//!
//! It is configured from plain numbers — the system size, the basket
//! size, `r_max` and each level's checkpoint range — and speaks only
//! bytes: handed what a faulty node heard, [`Forger::forge`] answers what
//! to send. The plan tests call one forger for all their faulty nodes;
//! the simulator runs `t` [`Faulty`] nodes, one forger each.

use bytes::Bytes;
use delphi_primitives::wire::VectorValue;
use delphi_sim::adversary::Faulty;
use delphi_sim::{judge, Simulation, Topology};

use super::tests::small_cfg;
use super::*;
use crate::messages::{BasketBundle, BasketSection};

/// What the faulty nodes send.
#[derive(Clone, Copy, Debug)]
pub(super) enum Attack {
    /// Nothing: every node is honest.
    None,
    /// Round-1 votes for different checkpoints to each receiver.
    Equivocate,
    /// `ECHO2`s for every round of level 0 at once, future rounds first.
    Flood,
    /// Random bytes.
    Garbage,
    /// More fresh checkpoints per bundle than a sender's budget covers,
    /// so receivers refuse mentions.
    Burn,
    /// Honest bundles they were sent, reordered, duplicated and split,
    /// with forking mentions appended after sections that use the level.
    Tamper,
}

pub(super) const ATTACKS: [Attack; 6] = [
    Attack::None,
    Attack::Equivocate,
    Attack::Flood,
    Attack::Garbage,
    Attack::Burn,
    Attack::Tamper,
];

/// Bundles a forger forges, one per message heard and one at start: then
/// the faulty nodes stop, so every run ends. The forger keeps this budget
/// itself because the plan tests call it without a [`Faulty`] node.
const BUDGET: usize = 60;

pub(super) struct Forger {
    attack: Attack,
    n: usize,
    dims: usize,
    r_max: u16,
    /// Each level's checkpoint range, `(k_min, k_max)`.
    ranges: Vec<(i64, i64)>,
    rng: SplitMix,
    budget: usize,
}

impl Forger {
    /// A forger against the machines `cfg` configures, of `dims` dimensions:
    /// it reads off `n`, `r_max` and each level's checkpoint range.
    pub(super) fn of(cfg: &DelphiConfig, attack: Attack, dims: usize, seed: u64) -> Forger {
        let ranges = (0..=cfg.l_max()).map(|level| cfg.checkpoint_range(level)).collect();
        let (n, r_max) = (cfg.n(), cfg.r_max());
        Forger { attack, n, dims, r_max, ranges, rng: SplitMix(seed), budget: BUDGET }
    }

    /// The messages to send having heard `heard` (`None` at start), each
    /// with its recipient (`None` naming everyone).
    pub(super) fn forge(&mut self, heard: Option<&[u8]>) -> Vec<(Option<NodeId>, Bytes)> {
        if self.budget == 0 {
            return Vec::new();
        }
        self.budget -= 1;
        let dims = self.dims;
        let all = |v| every(dims, v);
        let section = |level, round, kind| BasketSection::new(level, Round(round), kind);
        let bundle = |sections| BasketBundle { sections }.to_bytes(dims);
        match self.attack {
            Attack::None => Vec::new(),
            Attack::Equivocate => NodeId::all(self.n)
                .map(|to| {
                    let sections = self.ranges.iter().zip(0u8..).map(|(&(k_min, k_max), level)| {
                        let k = k_min + (7 * i64::from(to.0) + i64::from(level)) % (k_max - k_min);
                        BasketSection {
                            backgrounds: all(Dyadic::ZERO),
                            entries: vec![(k, all(Dyadic::ONE)), (k + 1, all(Dyadic::ONE))],
                            ..section(level, 1, EchoKind::Echo1)
                        }
                    });
                    (Some(to), bundle(sections.collect()))
                })
                .collect(),
            Attack::Flood => {
                let (k_min, k_max) = self.ranges[0];
                let sections = (1..=self.r_max).rev().map(|round| BasketSection {
                    entries: vec![((k_min + k_max) / 2, all(Dyadic::new(1, (round - 1) as u8)))],
                    ..section(0, round, EchoKind::Echo2)
                });
                vec![(None, bundle(sections.collect()))]
            }
            Attack::Garbage => {
                let len = self.rng.below(64);
                vec![(None, (0..len).map(|_| self.rng.next() as u8).collect())]
            }
            Attack::Burn => {
                let (k_min, k_max) = self.ranges[0];
                let span = (k_max - k_min + 1) as usize;
                let mut ids: Vec<i64> =
                    (0..12).map(|_| k_min + self.rng.below(span) as i64).collect();
                ids.sort_unstable();
                ids.dedup();
                let burn = BasketSection {
                    backgrounds: all(Dyadic::ZERO),
                    entries: ids.into_iter().map(|k| (k, all(Dyadic::ONE))).collect(),
                    ..section(0, 1, EchoKind::Echo1)
                };
                vec![(None, bundle(vec![burn]))]
            }
            Attack::Tamper => {
                let tampered =
                    heard.map(|payload| tamper(payload, dims, &self.ranges, &mut self.rng));
                tampered.map(|bytes| (None, bytes)).into_iter().collect()
            }
        }
    }
}

/// `v` in each of the first `dims` dimensions.
pub(super) fn every(dims: usize, v: Dyadic) -> VectorValue {
    let mut vector = VectorValue::new();
    (0..dims as u16).for_each(|d| vector.set(d, v));
    vector
}

/// A Byzantine rewrite of a bundle of a `dims`-dimension machine whose
/// levels have the checkpoint `ranges`: reorders, duplicates and splits
/// sections (a split tail has no background to shield its entries), and
/// now and then appends a section that forks a fresh checkpoint *after*
/// the sections before it may have triggered a background echo at the
/// receiver.
pub(super) fn tamper(
    payload: &[u8],
    dims: usize,
    ranges: &[(i64, i64)],
    rng: &mut SplitMix,
) -> Bytes {
    let mut sections = BasketBundle::from_bytes(payload, dims).expect("honest bundle").sections;
    if !sections.is_empty() {
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
            let s = &mut sections[at];
            if s.entries.len() >= 2 {
                let mut tail = BasketSection::new(s.level, s.round, s.kind);
                tail.entries = s.entries.split_off(s.entries.len() / 2);
                sections.insert(at + 1, tail);
            }
        }
        if rng.chance(4) {
            let s = &sections[rng.below(sections.len())];
            let (k_min, k_max) = ranges[usize::from(s.level)];
            let k = k_min + rng.below((k_max - k_min + 1) as usize) as i64;
            let mut mention = BasketSection::new(s.level, s.round, s.kind);
            mention.entries.push((k, VectorValue::single(0, Dyadic::ONE)));
            sections.push(mention);
        }
    }
    BasketBundle { sections }.to_bytes(dims)
}

/// A small deterministic generator (splitmix64) for schedules and
/// forgeries.
pub(super) struct SplitMix(pub(super) u64);

impl SplitMix {
    pub(super) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    pub(super) fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    pub(super) fn chance(&mut self, one_in: u64) -> bool {
        self.next() % one_in == 0
    }
}

/// Inputs of `honest` nodes of basket size `dims`: dimension `d` within 8
/// of `base + 40·d`, for a `base` the generator picks first.
pub(super) fn inputs(honest: usize, dims: usize, rng: &mut SplitMix) -> Vec<Vec<f64>> {
    let base = 300.0 + rng.below(400) as f64;
    let input = |rng: &mut SplitMix| {
        (0..dims).map(|d| base + 40.0 * d as f64 + rng.below(800) as f64 / 100.0).collect()
    };
    (0..honest).map(|_| input(rng)).collect()
}

/// Judges the outputs of the honest nodes that decided against the honest
/// `inputs`, dimension by dimension. Agreement and validity are safety:
/// they bind the nodes that did decide under every attack, even one that
/// keeps the rest from deciding.
pub(super) fn judge_decided<'a>(
    cfg: &DelphiConfig,
    inputs: &[Vec<f64>],
    decided: impl Iterator<Item = &'a Vec<f64>>,
    what: &str,
) {
    let decided: Vec<&Vec<f64>> = decided.collect();
    if decided.is_empty() {
        return;
    }
    for d in 0..inputs[0].len() {
        let outputs: Vec<f64> = decided.iter().map(|output| output[d]).collect();
        let inputs: Vec<f64> = inputs.iter().map(|input| input[d]).collect();
        judge(&outputs, &inputs, cfg.epsilon(), Some(cfg.rho0()))
            .unwrap_or_else(|why| panic!("{what}, dimension {d}: {why}"));
    }
}

/// Runs `n` honest nodes of basket size `dims` against `t` [`Faulty`]
/// nodes forging `attack` in the simulator. Judges every honest node that
/// decides, and returns how many did.
fn simulate(attack: Attack, n: usize, dims: usize, seed: u64) -> usize {
    let cfg = small_cfg(n);
    let honest = n - cfg.t();
    let inputs = inputs(honest, dims, &mut SplitMix(seed));
    let nodes = NodeId::all(n).map(|id| match inputs.get(id.index()) {
        Some(input) => VectorDelphiNode::new(cfg.clone(), id, input).boxed(),
        None => {
            let mut forger = Forger::of(&cfg, attack, dims, seed ^ u64::from(id.0));
            let forge = move |heard: Option<&[u8]>| forger.forge(heard);
            Box::new(Faulty::new(id, n, forge)) as Box<dyn Protocol<Output = Vec<f64>>>
        }
    });
    let faulty: Vec<NodeId> = (honest..n).map(|i| NodeId(i as u16)).collect();
    let report = Simulation::new(Topology::lan(n)).seed(seed).faulty(&faulty).run(nodes.collect());
    let what = format!("{attack:?} n = {n}, m = {dims}, seed {seed}");
    judge_decided(&cfg, &inputs, report.honest_outputs(), &what);
    report.honest_outputs().count()
}

#[test]
fn forged_attacks_run_as_faulty_nodes_in_the_simulator() {
    for attack in &ATTACKS[1..] {
        for (n, dims) in [(4, 1), (4, 3), (7, 1), (7, 3)] {
            for seed in 0..3 {
                let decided = simulate(*attack, n, dims, seed);
                // Burn is held to safety alone: budget burning can keep
                // honest nodes from deciding (see ROADMAP L).
                if !matches!(attack, Attack::Burn) {
                    let honest = n - small_cfg(n).t();
                    assert_eq!(decided, honest, "{attack:?} n = {n}, m = {dims}, seed {seed}");
                }
            }
        }
    }
}
