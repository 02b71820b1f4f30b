//! The Delphi protocol node (Algorithm 2).
//!
//! Each node runs one BinAA instance per checkpoint per level — but almost
//! all of those instances are identical: every checkpoint far from every
//! honest input sees only 0-votes. The implementation therefore keeps, per
//! level, one round table ([`crate::bv`]) whose
//!
//! - first column is the **background** instance standing for every
//!   *undistinguished* checkpoint of the level, and whose
//! - further columns are the **distinguished** (active) instances, sorted
//!   by checkpoint: those some node has voted 1 for, or otherwise
//!   explicitly mentioned.
//!
//! A checkpoint is *forked* off the background the first time any message
//! mentions it; the fork inherits the background's entire quorum history,
//! which is sound because until that moment every received echo concerning
//! the checkpoint was background-scoped. This is the §III-C zero-run
//! optimization made concrete, and it is what turns "one BinAA per point
//! of a 50 000-checkpoint space" into a handful of live instances and
//! `O(n²)` bundle messages per round.
//!
//! # One machine for every basket size
//!
//! [`VectorDelphiNode`] agrees on a basket of `m` assets at once — one
//! round table per level and dimension, one shared round walk, one bundle
//! per step — and is the only Delphi state machine: ℝ¹ is the `m = 1` case
//! of multidimensional approximate agreement. [`DelphiNode`] is that
//! machine over a basket of one with an `f64` output, and at `m = 1` the
//! bundles leave the per-id dimension masks off, so a scalar node's wire
//! is the plain [`Section`](crate::Section) layout.
//!
//! # Flood resistance
//!
//! A Byzantine sender could mention unboundedly many checkpoints to force
//! unbounded forking. Each sender therefore has a per-level *introduction
//! budget* ([`INTRO_BUDGET_PER_LEVEL`]); mentions beyond it do not fork
//! (the checkpoint stays represented by the background). Honest nodes
//! introduce at most 3 checkpoints per level themselves, so the budget
//! never constrains honest-only executions. Under a combined
//! flooding-plus-reordering attack a refused mention could in principle
//! discard an honest echo; the paper does not treat flood resistance at
//! all, and we prefer bounded memory with this documented, narrow caveat.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use delphi_primitives::wire::MAX_VECTOR_DIMS;
use delphi_primitives::{Dyadic, Envelope, NodeId, Protocol, Round};

use crate::aggregate::{combine_levels, level_summary, LevelSummary};
use crate::bundle::{bits_of, BundleArena, Collector, FlatSection};
use crate::bv::{BvAction, BvActions, BvTable};
use crate::messages::EchoKind;
use crate::params::DelphiConfig;

/// Per-sender, per-level cap on checkpoint introductions (see module docs).
pub const INTRO_BUDGET_PER_LEVEL: u8 = 8;

/// Splits an action into its wire shape.
fn echo_parts(action: BvAction) -> (EchoKind, Dyadic) {
    match action {
        BvAction::Echo1(v) => (EchoKind::Echo1, v),
        BvAction::Echo2(v) => (EchoKind::Echo2, v),
    }
}

/// A value is plausible for `round` iff it lies in `[0, 1]` on the grid
/// `j / 2^{r−1}`.
fn plausible(value: Dyadic, round: Round) -> bool {
    value.in_unit_interval() && u16::from(value.log_den()) < round.0
}

/// A decode arena sized for the bundles honest peers send: an initial
/// burst and a triggered section per level, each naming a handful of
/// checkpoints per basket dimension — every inbound message of an honest
/// run then decodes without touching the allocator.
fn inbound_arena(cfg: &DelphiConfig, dims: usize) -> BundleArena {
    let sections = 2 * (usize::from(cfg.l_max()) + 1);
    BundleArena::with_capacity(sections, 8 * dims * sections, dims)
}

/// Bit `level` of a touched-levels mask. Every configured level index is
/// below 64 ([`MAX_LEVELS`](crate::params::MAX_LEVELS)); a wire-supplied
/// index beyond that names no level and maps to no bit.
fn level_bit(level: u8) -> u64 {
    1u64.checked_shl(u32::from(level)).unwrap_or(0)
}

/// What a section's echoes share: the instance table they apply to —
/// a level's, of basket dimension `dim` — and the round, phase and
/// sender. A section is applied with the two steps below.
#[derive(Clone, Copy)]
struct Feed {
    level: u8,
    dim: u16,
    round: Round,
    kind: EchoKind,
    from: NodeId,
}

impl Feed {
    /// An entry: checkpoint `k` becomes distinguished (forked off the
    /// background as it stands), and a plausible echo goes to it.
    fn entry(self, table: &mut BvTable, k: i64, value: Dyadic, out: &mut Collector) {
        let Some(column) = table.distinguish(k, self.from) else { return };
        if !plausible(value, self.round) {
            return;
        }
        let Some(mut cell) = table.cell_mut(self.round, column) else { return };
        for action in cell.feed(self.kind, self.from, value) {
            let (kind, v) = echo_parts(action);
            out.entry(self.level, self.round, kind, self.dim, k, v);
        }
    }

    /// A background echo: one walk of the round's row, feeding every
    /// distinguished checkpoint the sender did not name and the
    /// background instance. Returns the latter's echoes, which the caller
    /// emits once every checkpoint echo of the section is collected (they
    /// carry an exclude snapshot of the whole level).
    fn background(
        self,
        table: &mut BvTable,
        value: Dyadic,
        named: impl Fn(i64) -> bool,
        out: &mut Collector,
    ) -> BvActions {
        let Some((_, checkpoints, mut row)) = table.row_mut(self.round) else {
            return BvActions::default();
        };
        let Some(mut background) = row.next() else { return BvActions::default() };
        let actions = background.feed(self.kind, self.from, value);
        for (checkpoint, mut cell) in checkpoints.iter().zip(row) {
            if named(checkpoint.k) {
                continue;
            }
            for action in cell.feed(self.kind, self.from, value) {
                let (kind, v) = echo_parts(action);
                out.entry(self.level, self.round, kind, self.dim, checkpoint.k, v);
            }
        }
        actions
    }
}

/// The round table of one level (of one basket dimension) at node `me`.
fn level_table(cfg: &DelphiConfig, me: NodeId, level: u8) -> BvTable {
    BvTable::new(me, cfg.n(), cfg.t(), cfg.r_max())
        .with_checkpoints(cfg.checkpoint_range(level), INTRO_BUDGET_PER_LEVEL)
}

/// Distinguishes `input`'s own 1-checkpoints of `level` with state value
/// 1 (charged against our own introduction budget).
fn vote_one(table: &mut BvTable, cfg: &DelphiConfig, me: NodeId, level: u8, input: f64) {
    for k in cfg.one_checkpoints(level, input) {
        if let Some(column) = table.distinguish(k, me) {
            table.set_value(column, Dyadic::ONE);
        }
    }
}

/// A finished level's `(µ, weight)` summary: the instances' final values
/// are the weights.
fn summarize(table: &BvTable, cfg: &DelphiConfig, level: u8, input: f64) -> LevelSummary {
    let checkpoints = table
        .checkpoints()
        .iter()
        .map(|checkpoint| (cfg.checkpoint_value(level, checkpoint.k), checkpoint.value.to_f64()));
    // The background weight is provably 0 at honest nodes (its honest
    // inputs are all 0); it carries no mass.
    debug_assert!(table.background().is_zero());
    level_summary(checkpoints, cfg.clamp_input(input), cfg.eps_prime())
}

/// One level of one basket dimension. Introduction budgets are the
/// table's, so they are charged per (sender, dimension): a flood in one
/// asset cannot starve another.
#[derive(Clone, Debug)]
struct DimLevel {
    /// The level's current round (1-based); `r_max + 1` once the level
    /// has finished. Every dimension of a level holds the same round:
    /// they advance together.
    round: u16,
    table: BvTable,
    /// Final `(µ, weight)` pairs once the level completes all rounds.
    summary: Option<LevelSummary>,
}

/// Emits the background echoes held back in `out.deferred`, each with
/// its dimension's exclude snapshot as of now.
fn emit_deferred(level: &[DimLevel], (lvl, round): (u8, Round), out: &mut Collector) {
    let mut deferred = std::mem::take(&mut out.deferred);
    for (kind, d, value) in deferred.drain(..) {
        if let Some(dim) = level.get(usize::from(d)) {
            out.background(lvl, round, kind, d, value, dim.table.ids());
        }
    }
    out.deferred = deferred;
}

/// Enters `round` at level `lvl` in every dimension: feeds each instance
/// its state value as the round's input and emits one merged initial
/// burst (background plus every active echoing its input at once),
/// followed by whatever else the inputs triggered — the backgrounds'
/// echoes last, with their exclude snapshots.
fn enter_round(level: &mut [DimLevel], lvl: u8, round: Round, out: &mut Collector) {
    for (d, dim) in (0u16..).zip(level.iter_mut()) {
        let Some((value, checkpoints, mut row)) = dim.table.row_mut(round) else { continue };
        let Some(mut background) = row.next() else { continue };
        for action in background.set_input(value) {
            if action != BvAction::Echo1(value) {
                let (kind, v) = echo_parts(action);
                out.deferred.push((kind, d, v));
            }
        }
        for (checkpoint, mut cell) in checkpoints.iter().zip(row) {
            for action in cell.set_input(checkpoint.value) {
                if action != BvAction::Echo1(checkpoint.value) {
                    let (kind, v) = echo_parts(action);
                    out.entry(lvl, round, kind, d, checkpoint.k, v);
                }
            }
        }
    }
    let burst = out.initial(lvl, round);
    for (d, dim) in (0u16..).zip(level.iter()) {
        let inputs =
            dim.table.checkpoints().iter().map(|checkpoint| (checkpoint.k, checkpoint.value));
        out.initial_echoes(burst, d, dim.table.background(), inputs);
    }
    emit_deferred(level, (lvl, round), out);
}

/// The Delphi state machine: **one** agreement instance over a basket of
/// `m` assets (`1 ≤ m ≤` [`MAX_VECTOR_DIMS`]) — a scalar agreement is the
/// basket of one, [`DelphiNode`].
///
/// Every dimension runs the per-checkpoint BinAA machinery of the module
/// docs — forking, budgets, plausibility gates — in a round table of its
/// own, but the *round walk is shared*: a level advances to round `r + 1`
/// only once **all** dimensions have terminated round `r`, and the
/// resulting initial burst is a single section carrying every dimension's
/// echoes behind one shared checkpoint id run. Compared with per-asset
/// fan-out this divides sections, wire entries, and rounds-per-agreement
/// by roughly the basket size, at the cost of coupling the basket's
/// latency to its slowest dimension. At `m = 1` the bundles carry no
/// per-id dimension masks: the wire is the scalar
/// [`Section`](crate::Section) layout.
#[derive(Debug)]
pub struct VectorDelphiNode {
    cfg: DelphiConfig,
    me: NodeId,
    /// The (clamped) input of each dimension.
    inputs: Vec<f64>,
    /// `(l_max + 1) × m` level tables, level-major: level `l`'s dimensions
    /// are `levels[l·m..(l + 1)·m]`.
    levels: Vec<DimLevel>,
    output: Option<Vec<f64>>,
    /// Optional shared counter bumped once per completed `(level, round)`
    /// (see [`VectorDelphiNode::with_round_probe`]).
    round_probe: Option<Arc<AtomicU64>>,
    /// Decode target of every inbound bundle (capacity kept across
    /// messages, so the receive path is allocation-free at steady state).
    arena: BundleArena,
    /// Collector of every outgoing bundle, pooled the same way.
    out: Collector,
}

impl VectorDelphiNode {
    /// Creates a node over `values` — one input per basket dimension, each
    /// clamped into `[s, e]` (NaN maps to `s` rather than poisoning the
    /// protocol).
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range, `values` is empty, or the basket
    /// exceeds [`MAX_VECTOR_DIMS`] dimensions.
    pub fn new(cfg: DelphiConfig, me: NodeId, values: &[f64]) -> VectorDelphiNode {
        assert!(me.index() < cfg.n(), "node id out of range");
        assert!(!values.is_empty(), "vector node needs at least one dimension");
        assert!(
            values.len() <= usize::from(MAX_VECTOR_DIMS),
            "basket of {} exceeds {MAX_VECTOR_DIMS} dimensions",
            values.len()
        );
        let inputs: Vec<f64> =
            values.iter().map(|&v| if v.is_nan() { cfg.s() } else { cfg.clamp_input(v) }).collect();
        let dims = inputs.len();
        let mut levels = Vec::with_capacity((usize::from(cfg.l_max()) + 1) * dims);
        for level in 0..=cfg.l_max() {
            levels.extend((0..dims).map(|_| DimLevel {
                round: 1,
                table: level_table(&cfg, me, level),
                summary: None,
            }));
        }
        VectorDelphiNode {
            arena: inbound_arena(&cfg, dims),
            cfg,
            me,
            inputs,
            levels,
            output: None,
            round_probe: None,
            out: Collector::new(dims),
        }
    }

    /// Boxes the node for use with heterogeneous drivers.
    pub fn boxed(self) -> Box<dyn Protocol<Output = Vec<f64>>> {
        Box::new(self)
    }

    /// Attaches a shared round counter, bumped once every time any level
    /// completes a round at this node. Agreement cost instrumentation: a
    /// full run adds `(l_max + 1) × r_max` to the counter *per basket* —
    /// per asset for a deployment of one-dimension [`DelphiNode`]s — so a
    /// probe shared across a deployment measures rounds-per-agreement
    /// directly.
    #[must_use]
    pub fn with_round_probe(mut self, probe: Arc<AtomicU64>) -> VectorDelphiNode {
        self.round_probe = Some(probe);
        self
    }

    /// Number of basket dimensions.
    pub fn dims(&self) -> u16 {
        self.inputs.len() as u16
    }

    /// Distinguished checkpoints currently tracked at `level`, summed
    /// across dimensions (diagnostics; the paper's `min(δ/ρ_l, n)`
    /// communication term).
    pub fn active_checkpoints(&self, level: u8) -> usize {
        let start = usize::from(level) * self.inputs.len();
        let level = self.levels.get(start..start + self.inputs.len()).unwrap_or_default();
        level.iter().map(|dim| dim.table.checkpoints().len()).sum()
    }

    /// Processes one decoded section, collecting triggered echoes.
    /// Returns the [`level_bit`] of its level if it named the level's
    /// current round — the only way that round can have terminated.
    fn process_section(
        &mut self,
        from: NodeId,
        section: &FlatSection<'_>,
        out: &mut Collector,
    ) -> u64 {
        let dims = self.inputs.len();
        let start = usize::from(section.level) * dims;
        let Some(level) = self.levels.get_mut(start..start + dims) else { return 0 };
        if section.round.0 < 1 || section.round.0 > self.cfg.r_max() {
            return 0;
        }
        // A section whose backgrounds carry any implausible value is
        // dropped whole.
        if section.backgrounds.iter().any(|&bg| !plausible(bg, section.round)) {
            return 0;
        }
        let (lvl, round, kind) = (section.level, section.round, section.kind);
        let feed = |dim| Feed { level: lvl, dim, round, kind, from };
        let current = match level.first() {
            Some(dim) if dim.round == round.0 => level_bit(lvl),
            _ => 0,
        };

        // 1. Every mentioned (dimension, checkpoint) pair becomes
        //    distinguished in that dimension (forked off the background as
        //    it stands before this section applies) — entries before the
        //    exclude run, the order in which an entry section followed by
        //    its background section would charge the sender's budget (see
        //    `Collector`'s merge rule) — and
        // 2. each entry's echoes go to its checkpoint, dimension by
        //    dimension. No entry touches a background instance, so forking
        //    and feeding entry by entry forks what forking them all up
        //    front would.
        // 3. Background echoes: per dimension, the background value
        //    applies to that dimension's background instance and to every
        //    distinguished checkpoint the sender did not mention *in that
        //    dimension*. The background's echoes carry the dimension's
        //    exclude snapshot, so they are emitted only once every
        //    dimension's checkpoint echoes are collected.
        if let [dim] = level {
            // A basket of one walks the section as it reads: no masks,
            // every id is dimension 0's, and no other dimension can add
            // echoes after the background's.
            let table = &mut dim.table;
            for (&k, &value) in section.entries.iter().zip(section.entry_values) {
                feed(0).entry(table, k, value, out);
            }
            for &k in section.exclude {
                let _ = table.distinguish(k, from);
            }
            if let Some(&bg_value) = section.backgrounds.first() {
                let named = |k| section.exclude.contains(&k) || section.entries.contains(&k);
                for action in feed(0).background(table, bg_value, named, out) {
                    let (kind, v) = echo_parts(action);
                    out.background(lvl, round, kind, 0, v, table.ids());
                }
            }
            return current;
        }
        // Dimensions beyond our basket are ignored throughout (Byzantine
        // senders cannot spend budget on phantom assets).
        for (k, mask, values) in section.basket_entries() {
            for (d, &value) in bits_of(mask).zip(values) {
                if let Some(dim) = level.get_mut(usize::from(d)) {
                    feed(d).entry(&mut dim.table, k, value, out);
                }
            }
        }
        for (k, mask) in section.basket_exclude() {
            for d in bits_of(mask) {
                if let Some(dim) = level.get_mut(usize::from(d)) {
                    let _ = dim.table.distinguish(k, from);
                }
            }
        }
        for (d, bg_value) in section.background_dims() {
            let Some(dim) = level.get_mut(usize::from(d)) else { continue };
            let named = |k| section.names_in(k, d);
            for action in feed(d).background(&mut dim.table, bg_value, named, out) {
                let (kind, v) = echo_parts(action);
                out.deferred.push((kind, d, v));
            }
        }
        emit_deferred(level, (lvl, round), out);
        current
    }

    /// Advances the levels in `touched` (a [`level_bit`] mask) through any
    /// rounds whose outcomes are complete in **all** dimensions, emitting
    /// one merged burst per advance; finalizes levels and the output.
    ///
    /// Every call leaves the levels it visits fully advanced — their
    /// current round open — and an open round's cells change only through
    /// sections that name the level and that round (a fork copies an open
    /// background), so a level no section named at its current round has
    /// nothing to do, and is not even looked at.
    fn advance(&mut self, touched: u64, out: &mut Collector) {
        let (dims, r_max) = (self.inputs.len(), self.cfg.r_max());
        let mut finished_level = false;
        for index in bits_of(touched) {
            let start = usize::from(index) * dims;
            let Some(level) = self.levels.get_mut(start..start + dims) else { break };
            let lvl = index as u8;
            while let Some(round) = level.first().map(|dim| dim.round).filter(|&r| r <= r_max) {
                let round = Round(round);
                // Shared round walk: the whole basket advances together,
                // or not at all.
                if !level.iter().all(|dim| dim.table.terminated(round)) {
                    break;
                }
                for dim in level.iter_mut() {
                    dim.table.adopt_outcomes(round);
                    dim.round += 1;
                }
                if let Some(p) = &self.round_probe {
                    p.fetch_add(1, Ordering::Relaxed);
                }
                if round.0 == r_max {
                    // Level complete in every dimension simultaneously.
                    for (dim, &input) in level.iter_mut().zip(&self.inputs) {
                        dim.summary = Some(summarize(&dim.table, &self.cfg, lvl, input));
                    }
                    finished_level = true;
                    break;
                }
                enter_round(level, lvl, Round(round.0 + 1), out);
            }
        }
        if finished_level
            && self.output.is_none()
            && self.levels.iter().all(|dim| dim.summary.is_some())
        {
            let summaries = |d| self.levels.iter().skip(d).step_by(dims).filter_map(|l| l.summary);
            self.output = Some((0..dims).map(|d| combine_levels(summaries(d))).collect());
        }
    }
}

impl Protocol for VectorDelphiNode {
    type Output = Vec<f64>;

    fn node_id(&self) -> NodeId {
        self.me
    }

    fn n(&self) -> usize {
        self.cfg.n()
    }

    fn start(&mut self) -> Vec<Envelope> {
        let mut out = std::mem::take(&mut self.out);
        let dims = self.inputs.len();
        for (lvl, level) in (0u8..).zip(self.levels.chunks_exact_mut(dims)) {
            for (dim, &input) in level.iter_mut().zip(&self.inputs) {
                vote_one(&mut dim.table, &self.cfg, self.me, lvl, input);
            }
            enter_round(level, lvl, Round::FIRST, &mut out);
        }
        self.advance(u64::MAX, &mut out);
        let envelopes = out.flush();
        self.out = out;
        envelopes
    }

    fn on_message(&mut self, from: NodeId, payload: &[u8]) -> Vec<Envelope> {
        if from == self.me || from.index() >= self.cfg.n() {
            return Vec::new();
        }
        // One validating pass decodes the whole bundle into the arena;
        // a malformed one is rejected before any state is touched.
        let mut arena = std::mem::take(&mut self.arena);
        if arena.decode(payload).is_err() {
            self.arena = arena;
            return Vec::new(); // malformed: Byzantine, drop
        }
        let mut out = std::mem::take(&mut self.out);
        let mut touched = 0u64;
        for section in arena.sections() {
            touched |= self.process_section(from, &section, &mut out);
        }
        self.arena = arena;
        self.advance(touched, &mut out);
        let envelopes = out.flush();
        self.out = out;
        envelopes
    }

    fn output(&self) -> Option<Vec<f64>> {
        self.output.clone()
    }
}

/// A scalar Delphi node: [`VectorDelphiNode`] over a basket of one, with
/// an `f64` output.
///
/// See the [crate docs](crate) for a runnable quickstart; construction
/// takes the shared [`DelphiConfig`], this node's identity, and its
/// measured input value (clamped into the configured space).
#[derive(Debug)]
pub struct DelphiNode(VectorDelphiNode);

impl DelphiNode {
    /// Creates a node with input `value` (clamped into `[s, e]`; NaN is
    /// mapped to `s` rather than poisoning the protocol).
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range for the configured system size.
    pub fn new(cfg: DelphiConfig, me: NodeId, value: f64) -> DelphiNode {
        DelphiNode(VectorDelphiNode::new(cfg, me, &[value]))
    }

    /// Boxes the node for use with heterogeneous drivers.
    pub fn boxed(self) -> Box<dyn Protocol<Output = f64>> {
        Box::new(self)
    }

    /// Attaches a shared round counter (see
    /// [`VectorDelphiNode::with_round_probe`]): a full run adds
    /// `(l_max + 1) × r_max`.
    #[must_use]
    pub fn with_round_probe(self, probe: Arc<AtomicU64>) -> DelphiNode {
        DelphiNode(self.0.with_round_probe(probe))
    }

    /// The (clamped) input value this node contributes.
    pub fn input(&self) -> f64 {
        // A basket of one: the first input is the only one.
        self.0.inputs.first().copied().unwrap_or_default()
    }

    /// Number of distinguished checkpoints currently tracked at `level`
    /// (diagnostics; the paper's `min(δ/ρ_l, n)` communication term).
    pub fn active_checkpoints(&self, level: u8) -> usize {
        self.0.active_checkpoints(level)
    }
}

impl Protocol for DelphiNode {
    type Output = f64;

    fn node_id(&self) -> NodeId {
        self.0.node_id()
    }

    fn n(&self) -> usize {
        self.0.n()
    }

    fn start(&mut self) -> Vec<Envelope> {
        self.0.start()
    }

    fn on_message(&mut self, from: NodeId, payload: &[u8]) -> Vec<Envelope> {
        self.0.on_message(from, payload)
    }

    fn output(&self) -> Option<f64> {
        self.0.output.as_deref()?.first().copied()
    }
}

// In a `tests/` directory, which `delphi-lint` reads as wholly test code.
#[cfg(test)]
#[path = "delphi/tests/merge.rs"]
mod merge_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{BasketBundle, BasketSection, DelphiBundle, Section};
    use crate::params::InputRule;
    use bytes::Bytes;
    use delphi_primitives::wire::{Encode, VectorValue};
    use delphi_primitives::Recipient;
    use delphi_sim::adversary::{Crash, GarbageSpammer, SilentAfter};
    use delphi_sim::{Simulation, Topology};
    use proptest::prelude::*;
    use std::collections::VecDeque;

    pub(super) fn small_cfg(n: usize) -> DelphiConfig {
        DelphiConfig::builder(n)
            .space(0.0, 1000.0)
            .rho0(1.0)
            .delta_max(32.0)
            .epsilon(1.0)
            .build()
            .unwrap()
    }

    fn run_delphi(
        cfg: &DelphiConfig,
        inputs: &[f64],
        faulty: &[usize],
        make_faulty: impl Fn(NodeId) -> Box<dyn Protocol<Output = f64>>,
        seed: u64,
    ) -> Vec<f64> {
        let n = cfg.n();
        assert_eq!(inputs.len(), n);
        let nodes: Vec<Box<dyn Protocol<Output = f64>>> = NodeId::all(n)
            .map(|id| {
                if faulty.contains(&id.index()) {
                    make_faulty(id)
                } else {
                    DelphiNode::new(cfg.clone(), id, inputs[id.index()]).boxed()
                }
            })
            .collect();
        let faulty_ids: Vec<NodeId> = faulty.iter().map(|&i| NodeId(i as u16)).collect();
        let report = Simulation::new(Topology::lan(n)).seed(seed).faulty(&faulty_ids).run(nodes);
        assert!(
            report.all_honest_finished(),
            "Delphi did not terminate (seed {seed}, stop {:?})",
            report.stop
        );
        report.honest_outputs().copied().collect()
    }

    fn assert_agreement_validity(outputs: &[f64], honest_inputs: &[f64], cfg: &DelphiConfig) {
        let m = honest_inputs.iter().copied().fold(f64::INFINITY, f64::min);
        let big_m = honest_inputs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let delta = big_m - m;
        let relax = cfg.rho0().max(delta);
        for a in outputs {
            assert!(
                *a >= m - relax - 1e-9 && *a <= big_m + relax + 1e-9,
                "validity: output {a} outside [{} - {relax}, {} + {relax}]",
                m,
                big_m
            );
            for b in outputs {
                assert!(
                    (a - b).abs() <= cfg.epsilon() + 1e-9,
                    "agreement: |{a} - {b}| > ε = {}",
                    cfg.epsilon()
                );
            }
        }
    }

    #[test]
    fn identical_inputs_output_close_to_input() {
        let cfg = small_cfg(4);
        let inputs = [500.0; 4];
        let outs = run_delphi(&cfg, &inputs, &[], |_| unreachable!(), 1);
        assert_agreement_validity(&outs, &inputs, &cfg);
        for o in &outs {
            assert!((o - 500.0).abs() <= cfg.rho0() + 1e-9, "output {o} near input 500");
        }
    }

    #[test]
    fn clustered_inputs_reach_agreement() {
        let cfg = small_cfg(4);
        let inputs = [499.2, 500.1, 500.9, 499.7];
        let outs = run_delphi(&cfg, &inputs, &[], |_| unreachable!(), 2);
        assert_agreement_validity(&outs, &inputs, &cfg);
    }

    #[test]
    fn spread_inputs_still_agree_within_epsilon() {
        let cfg = small_cfg(4);
        // δ = 20 spans many level-0 checkpoints, exercising higher levels.
        let inputs = [490.0, 495.0, 505.0, 510.0];
        let outs = run_delphi(&cfg, &inputs, &[], |_| unreachable!(), 3);
        assert_agreement_validity(&outs, &inputs, &cfg);
    }

    #[test]
    fn seven_nodes_mixed_inputs() {
        let cfg = small_cfg(7);
        let inputs = [100.0, 101.0, 99.5, 100.2, 102.0, 98.9, 100.7];
        let outs = run_delphi(&cfg, &inputs, &[], |_| unreachable!(), 4);
        assert_agreement_validity(&outs, &inputs, &cfg);
    }

    #[test]
    fn tolerates_crash_fault() {
        let cfg = small_cfg(4);
        let inputs = [200.0, 201.0, 199.0, 0.0];
        let outs = run_delphi(&cfg, &inputs, &[3], |id| Box::new(Crash::new(id, 4)), 5);
        assert_agreement_validity(&outs, &inputs[..3], &cfg);
    }

    #[test]
    fn tolerates_mid_protocol_crash() {
        let cfg = small_cfg(4);
        let inputs = [200.0, 201.0, 199.0, 200.5];
        let outs = run_delphi(
            &cfg,
            &inputs,
            &[1],
            |id| Box::new(SilentAfter::new(DelphiNode::new(small_cfg(4), id, 201.0), 40)),
            6,
        );
        let honest_inputs = [200.0, 199.0, 200.5];
        assert_agreement_validity(&outs, &honest_inputs, &cfg);
    }

    #[test]
    fn tolerates_garbage_spammer() {
        let cfg = small_cfg(4);
        let inputs = [300.0, 300.5, 299.5, 0.0];
        let outs = run_delphi(
            &cfg,
            &inputs,
            &[3],
            |id| Box::new(GarbageSpammer::new(id, 4, 3, 2, 200, 60)),
            7,
        );
        assert_agreement_validity(&outs, &inputs[..3], &cfg);
    }

    #[test]
    fn byzantine_outlier_input_cannot_drag_output() {
        // A Byzantine node participates *honestly* in the protocol but
        // with an absurd input. Validity must hold w.r.t. honest inputs
        // plus the relaxation.
        let cfg = small_cfg(4);
        let inputs = [100.0, 101.0, 100.5, 900.0];
        let outs = run_delphi(
            &cfg,
            &inputs,
            &[3],
            |id| DelphiNode::new(small_cfg(4), id, 900.0).boxed(),
            8,
        );
        // Validity for honest inputs [100, 101]: relax = max(ρ0, δ) = 1.
        for o in &outs {
            assert!(
                (99.0 - 1e-9..=102.0 + 1e-9).contains(o),
                "Byzantine outlier dragged output to {o}"
            );
        }
        assert_agreement_validity(&outs, &inputs[..3], &cfg);
    }

    #[test]
    fn works_at_sixteen_nodes() {
        let cfg = small_cfg(16);
        let inputs: Vec<f64> = (0..16).map(|i| 400.0 + (i as f64) * 0.3).collect();
        let outs = run_delphi(&cfg, &inputs, &[], |_| unreachable!(), 9);
        assert_agreement_validity(&outs, &inputs, &cfg);
    }

    #[test]
    fn within_rho_input_rule_also_works() {
        let cfg = DelphiConfig::builder(4)
            .space(0.0, 1000.0)
            .rho0(1.0)
            .delta_max(32.0)
            .epsilon(1.0)
            .input_rule(InputRule::WithinRho)
            .build()
            .unwrap();
        let inputs = [250.0, 250.4, 249.8, 250.2];
        let outs = run_delphi(&cfg, &inputs, &[], |_| unreachable!(), 10);
        assert_agreement_validity(&outs, &inputs, &cfg);
    }

    #[test]
    fn inputs_clamped_to_space() {
        let cfg = small_cfg(4);
        let node = DelphiNode::new(cfg.clone(), NodeId(0), -123.0);
        assert_eq!(node.input(), 0.0);
        let node = DelphiNode::new(cfg.clone(), NodeId(0), f64::NAN);
        assert_eq!(node.input(), 0.0);
        let node = DelphiNode::new(cfg, NodeId(0), 1e9);
        assert_eq!(node.input(), 1000.0);
    }

    #[test]
    fn malformed_messages_ignored() {
        let cfg = small_cfg(4);
        let mut node = DelphiNode::new(cfg, NodeId(0), 500.0);
        let _ = node.start();
        assert!(node.on_message(NodeId(1), b"\xff\xff\xff").is_empty());
        assert!(node.on_message(NodeId(1), b"").is_empty());
        // Message claiming to be from ourselves is dropped.
        assert!(node.on_message(NodeId(0), b"").is_empty());
    }

    #[test]
    fn intro_budget_bounds_active_set() {
        let cfg = small_cfg(4);
        let mut node = DelphiNode::new(cfg, NodeId(0), 500.0);
        let _ = node.start();
        let before = node.active_checkpoints(0);
        // A Byzantine sender mentions many distinct checkpoints at level 0.
        for wave in 0..20i64 {
            let mut s = Section::new(0, Round(1), EchoKind::Echo1);
            s.entries = (0..10).map(|i| (wave * 10 + i, Dyadic::ONE)).collect();
            let bundle = DelphiBundle { sections: vec![s] };
            let _ = node.on_message(NodeId(3), &bundle.to_bytes());
        }
        let after = node.active_checkpoints(0);
        assert!(
            after <= before + usize::from(INTRO_BUDGET_PER_LEVEL),
            "flood created {after} actives (budget {INTRO_BUDGET_PER_LEVEL})"
        );
    }

    #[test]
    fn out_of_range_checkpoints_ignored() {
        let cfg = small_cfg(4);
        let mut node = DelphiNode::new(cfg, NodeId(0), 500.0);
        let _ = node.start();
        let before = node.active_checkpoints(0);
        let mut s = Section::new(0, Round(1), EchoKind::Echo1);
        s.entries = vec![(-5, Dyadic::ONE), (10_000, Dyadic::ONE)];
        let bundle = DelphiBundle { sections: vec![s] };
        let _ = node.on_message(NodeId(2), &bundle.to_bytes());
        assert_eq!(node.active_checkpoints(0), before);
    }

    /// A schema-aware Byzantine node: sends *different* initial votes to
    /// different peers (vote 1 on far-apart checkpoints per recipient),
    /// the strongest single-node equivocation against Delphi's level 0.
    struct SectionEquivocator {
        me: NodeId,
        cfg: DelphiConfig,
    }

    impl Protocol for SectionEquivocator {
        type Output = f64;
        fn node_id(&self) -> NodeId {
            self.me
        }
        fn n(&self) -> usize {
            self.cfg.n()
        }
        fn start(&mut self) -> Vec<Envelope> {
            let mut out = Vec::new();
            for dest in 0..self.cfg.n() {
                if dest == self.me.index() {
                    continue;
                }
                let mut bundle = DelphiBundle::new();
                for level in 0..=self.cfg.l_max() {
                    let (k_min, k_max) = self.cfg.checkpoint_range(level);
                    // Vote 1 somewhere different per destination.
                    let k =
                        (k_min + (dest as i64 * 17) % (k_max - k_min).max(1)).clamp(k_min, k_max);
                    let mut s = Section::new(level, Round(1), EchoKind::Echo1);
                    s.background = Some(Dyadic::ZERO);
                    s.entries = vec![(k, Dyadic::ONE), (k + 1, Dyadic::ONE)];
                    bundle.sections.push(s);
                }
                out.push(Envelope::to_one(NodeId(dest as u16), bundle.to_bytes()));
            }
            out
        }
        fn on_message(&mut self, _: NodeId, _: &[u8]) -> Vec<Envelope> {
            Vec::new()
        }
        fn output(&self) -> Option<f64> {
            None
        }
    }

    #[test]
    fn tolerates_section_level_equivocation() {
        for seed in 0..4 {
            let cfg = small_cfg(4);
            let inputs = [600.0, 600.5, 601.0, 0.0];
            let outs = run_delphi(
                &cfg,
                &inputs,
                &[3],
                |id| Box::new(SectionEquivocator { me: id, cfg: small_cfg(4) }),
                40 + seed,
            );
            assert_agreement_validity(&outs, &inputs[..3], &cfg);
        }
    }

    /// Byzantine sender claiming weights for rounds ahead of everyone
    /// (future-round flooding) must neither stall nor skew the run.
    #[test]
    fn tolerates_future_round_flooding() {
        let cfg = small_cfg(4);
        let inputs = [700.0, 700.4, 700.8, 0.0];
        let make_flooder = |id: NodeId| -> Box<dyn Protocol<Output = f64>> {
            struct Flooder {
                me: NodeId,
                cfg: DelphiConfig,
            }
            impl Protocol for Flooder {
                type Output = f64;
                fn node_id(&self) -> NodeId {
                    self.me
                }
                fn n(&self) -> usize {
                    self.cfg.n()
                }
                fn start(&mut self) -> Vec<Envelope> {
                    let mut bundle = DelphiBundle::new();
                    for round in (1..=self.cfg.r_max()).rev() {
                        let mut s = Section::new(0, Round(round), EchoKind::Echo2);
                        s.entries = vec![(700, Dyadic::new(1, (round - 1).min(60) as u8))];
                        bundle.sections.push(s);
                    }
                    vec![Envelope::to_all(bundle.to_bytes())]
                }
                fn on_message(&mut self, _: NodeId, _: &[u8]) -> Vec<Envelope> {
                    Vec::new()
                }
                fn output(&self) -> Option<f64> {
                    None
                }
            }
            Box::new(Flooder { me: id, cfg: small_cfg(4) })
        };
        let outs = run_delphi(&cfg, &inputs, &[3], make_flooder, 50);
        assert_agreement_validity(&outs, &inputs[..3], &cfg);
    }

    /// Runs `n` honest nodes over a FIFO mesh — each broadcast delivered
    /// to every peer before the next — and returns every message sent, in
    /// order, with the nodes' outputs.
    fn fifo_mesh<N: Protocol>(
        n: usize,
        make: impl Fn(NodeId) -> N,
    ) -> (Vec<(NodeId, Bytes)>, Vec<N::Output>) {
        let mut nodes: Vec<N> = NodeId::all(n).map(make).collect();
        let mut queue: VecDeque<(NodeId, Envelope)> = VecDeque::new();
        for node in &mut nodes {
            let me = node.node_id();
            queue.extend(node.start().into_iter().map(|env| (me, env)));
        }
        let mut sent = Vec::new();
        while let Some((from, env)) = queue.pop_front() {
            assert_eq!(env.to, Recipient::All, "Delphi only broadcasts");
            for to in NodeId::all(n).filter(|&to| to != from) {
                let replies = nodes[to.index()].on_message(from, &env.payload);
                queue.extend(replies.into_iter().map(|reply| (to, reply)));
            }
            sent.push((from, env.payload));
        }
        let outputs = nodes.iter().map(|node| node.output().expect("mesh terminated")).collect();
        (sent, outputs)
    }

    /// Runs four honest nodes over a FIFO mesh and returns every message
    /// node 0 was handed, in delivery order.
    fn record_node0_inbox(cfg: &DelphiConfig, inputs: &[f64]) -> Vec<(NodeId, Bytes)> {
        let make = |id: NodeId| DelphiNode::new(cfg.clone(), id, inputs[id.index()]);
        let (sent, _) = fifo_mesh(cfg.n(), make);
        sent.into_iter().filter(|&(from, _)| from != NodeId(0)).collect()
    }

    #[test]
    fn checkpoint_forked_mid_round_decides_like_one_distinguished_from_the_start() {
        // Replay node 0's recorded inbox into two fresh copies of node 0.
        // Both learn of checkpoint `k` — which no honest node ever votes
        // for, so everything it hears is background-scoped — through a
        // bare mention (an entry whose value is implausible for its round
        // distinguishes the checkpoint but applies no echo): one copy
        // before any traffic, the other in the middle of the run, where
        // the fork has to inherit the background's quorum history across
        // terminated, open and not-yet-entered rounds.
        let cfg = small_cfg(4);
        let inputs = [500.0, 500.6, 499.7, 500.3];
        let inbox = record_node0_inbox(&cfg, &inputs);
        let k = 900;
        let mention = {
            let mut s = Section::new(0, Round(1), EchoKind::Echo1);
            s.entries = vec![(k, Dyadic::new(1, 1))];
            DelphiBundle { sections: vec![s] }.to_bytes()
        };
        let replay = |fork_at: usize| {
            let mut node = DelphiNode::new(cfg.clone(), NodeId(0), inputs[0]);
            let _ = node.start();
            for (i, (from, payload)) in inbox.iter().enumerate() {
                if i == fork_at {
                    let _ = node.on_message(NodeId(3), &mention);
                }
                let _ = node.on_message(*from, payload);
            }
            node
        };
        let early = replay(0);
        let late = replay(inbox.len() / 2);
        assert!(late.0.levels[0].round > 1, "the late fork lands mid-protocol");

        let fork = |node: &DelphiNode| {
            let table = &node.0.levels[0].table;
            let position = table.ids().position(|id| id == k).expect("k is distinguished");
            table.column_state(1 + position)
        };
        assert_eq!(fork(&early), fork(&late), "forks hold identical quorum state");
        assert_eq!(
            fork(&late),
            late.0.levels[0].table.column_state(0),
            "and still mirror the background they were cloned from"
        );
        assert_eq!(early.output(), late.output());
        assert!(early.output().is_some());
        // The fork point is visible only in what node 0 itself announced.
        assert_eq!(early.active_checkpoints(0), late.active_checkpoints(0));
    }

    fn run_vector_delphi(
        cfg: &DelphiConfig,
        inputs: &[Vec<f64>],
        faulty: &[usize],
        make_faulty: impl Fn(NodeId) -> Box<dyn Protocol<Output = Vec<f64>>>,
        seed: u64,
        probe: Option<Arc<AtomicU64>>,
    ) -> Vec<Vec<f64>> {
        let n = cfg.n();
        assert_eq!(inputs.len(), n);
        let nodes: Vec<Box<dyn Protocol<Output = Vec<f64>>>> = NodeId::all(n)
            .map(|id| {
                if faulty.contains(&id.index()) {
                    make_faulty(id)
                } else {
                    let mut node = VectorDelphiNode::new(cfg.clone(), id, &inputs[id.index()]);
                    if let Some(p) = &probe {
                        node = node.with_round_probe(p.clone());
                    }
                    node.boxed()
                }
            })
            .collect();
        let faulty_ids: Vec<NodeId> = faulty.iter().map(|&i| NodeId(i as u16)).collect();
        let report = Simulation::new(Topology::lan(n)).seed(seed).faulty(&faulty_ids).run(nodes);
        assert!(
            report.all_honest_finished(),
            "vector Delphi did not terminate (seed {seed}, stop {:?})",
            report.stop
        );
        report.honest_outputs().cloned().collect()
    }

    #[test]
    fn vector_basket_agrees_and_validates_per_dimension() {
        let cfg = small_cfg(4);
        let dims = 4usize;
        // Four assets at very different price points, small honest spread.
        let inputs: Vec<Vec<f64>> = (0..4)
            .map(|i| (0..dims).map(|d| 150.0 + d as f64 * 180.0 + i as f64 * 0.3).collect())
            .collect();
        let outs = run_vector_delphi(&cfg, &inputs, &[], |_| unreachable!(), 11, None);
        for d in 0..dims {
            let douts: Vec<f64> = outs.iter().map(|o| o[d]).collect();
            let dins: Vec<f64> = inputs.iter().map(|o| o[d]).collect();
            assert_agreement_validity(&douts, &dins, &cfg);
        }
    }

    #[test]
    fn vector_single_dimension_behaves_like_scalar() {
        let cfg = small_cfg(4);
        let inputs: Vec<Vec<f64>> = vec![vec![500.2], vec![499.8], vec![500.5], vec![493.0]];
        let outs = run_vector_delphi(&cfg, &inputs, &[], |_| unreachable!(), 12, None);
        let flat: Vec<f64> = outs.iter().map(|o| o[0]).collect();
        let scalar_ins: Vec<f64> = inputs.iter().map(|o| o[0]).collect();
        assert_agreement_validity(&flat, &scalar_ins, &cfg);

        // Under one FIFO schedule a basket of one sends the scalar node's
        // bytes, message for message, and decides its value.
        let (scalar_sent, scalar_outs) =
            fifo_mesh(4, |id| DelphiNode::new(cfg.clone(), id, scalar_ins[id.index()]));
        let (vector_sent, vector_outs) =
            fifo_mesh(4, |id| VectorDelphiNode::new(cfg.clone(), id, &inputs[id.index()]));
        assert_eq!(scalar_sent.len(), vector_sent.len());
        for (i, (scalar, vector)) in scalar_sent.iter().zip(&vector_sent).enumerate() {
            assert_eq!(scalar, vector, "message {i}");
        }
        let vector_outs: Vec<f64> = vector_outs.iter().map(|o| o[0]).collect();
        assert_eq!(scalar_outs, vector_outs);
    }

    #[test]
    fn vector_tolerates_crash_fault() {
        let cfg = small_cfg(4);
        let inputs: Vec<Vec<f64>> =
            (0..4).map(|i| vec![200.0 + i as f64 * 0.4, 700.0 - i as f64 * 0.4]).collect();
        let outs =
            run_vector_delphi(&cfg, &inputs, &[3], |id| Box::new(Crash::new(id, 4)), 13, None);
        for d in 0..2 {
            let douts: Vec<f64> = outs.iter().map(|o| o[d]).collect();
            let dins: Vec<f64> = inputs[..3].iter().map(|o| o[d]).collect();
            assert_agreement_validity(&douts, &dins, &cfg);
        }
    }

    #[test]
    fn vector_tolerates_garbage_spammer() {
        let cfg = small_cfg(4);
        let inputs: Vec<Vec<f64>> =
            (0..4).map(|i| vec![300.0 + i as f64 * 0.3, 301.0, 299.5]).collect();
        let outs = run_vector_delphi(
            &cfg,
            &inputs,
            &[3],
            |id| Box::new(GarbageSpammer::new(id, 4, 3, 2, 200, 60)),
            14,
            None,
        );
        for d in 0..3 {
            let douts: Vec<f64> = outs.iter().map(|o| o[d]).collect();
            let dins: Vec<f64> = inputs[..3].iter().map(|o| o[d]).collect();
            assert_agreement_validity(&douts, &dins, &cfg);
        }
    }

    #[test]
    fn vector_rounds_are_shared_across_the_basket() {
        // The round probe counts (level, round) completions. A scalar
        // deployment pays that walk once per asset; the vector node pays
        // it once per basket, so at basket size m the scalar total is
        // exactly m× the vector total.
        let cfg = small_cfg(4);
        let m = 4usize;
        let vector_probe = Arc::new(AtomicU64::new(0));
        let inputs: Vec<Vec<f64>> = (0..4)
            .map(|i| (0..m).map(|d| 400.0 + d as f64 * 30.0 + i as f64 * 0.2).collect())
            .collect();
        let _ = run_vector_delphi(
            &cfg,
            &inputs,
            &[],
            |_| unreachable!(),
            15,
            Some(vector_probe.clone()),
        );

        let scalar_probe = Arc::new(AtomicU64::new(0));
        #[allow(clippy::needless_range_loop)] // d also seeds each per-dimension sim
        for d in 0..m {
            let nodes: Vec<Box<dyn Protocol<Output = f64>>> = NodeId::all(4)
                .map(|id| {
                    Box::new(
                        DelphiNode::new(cfg.clone(), id, inputs[id.index()][d])
                            .with_round_probe(scalar_probe.clone()),
                    ) as Box<dyn Protocol<Output = f64>>
                })
                .collect();
            let report = Simulation::new(Topology::lan(4)).seed(16 + d as u64).run(nodes);
            assert!(report.all_honest_finished());
        }

        let vector_rounds = vector_probe.load(Ordering::Relaxed);
        let scalar_rounds = scalar_probe.load(Ordering::Relaxed);
        let expected_per_basket = 4 * u64::from(cfg.l_max() + 1) * u64::from(cfg.r_max());
        assert_eq!(vector_rounds, expected_per_basket);
        assert_eq!(scalar_rounds, vector_rounds * m as u64);
    }

    #[test]
    fn vector_malformed_messages_ignored() {
        let cfg = small_cfg(4);
        let mut node = VectorDelphiNode::new(cfg, NodeId(0), &[500.0, 600.0]);
        let _ = node.start();
        assert!(node.on_message(NodeId(1), b"\xff\xff\xff").is_empty());
        assert!(node.on_message(NodeId(1), b"").is_empty());
        assert!(node.on_message(NodeId(0), b"").is_empty());
        // A scalar-codec bundle is not a valid basket bundle here either:
        // feeding one must not panic (it is simply dropped or ignored).
        let mut s = Section::new(0, Round(1), EchoKind::Echo1);
        s.entries = vec![(500, Dyadic::ONE)];
        let bundle = DelphiBundle { sections: vec![s] };
        let _ = node.on_message(NodeId(2), &bundle.to_bytes());
    }

    #[test]
    fn vector_intro_budget_is_per_dimension() {
        let cfg = small_cfg(4);
        let mut node = VectorDelphiNode::new(cfg, NodeId(0), &[500.0, 500.0]);
        let _ = node.start();
        let before = node.active_checkpoints(0);
        // A Byzantine sender floods checkpoint mentions in dimension 0
        // only; dimension 1 must keep its own untouched budget.
        for wave in 0..20i64 {
            let mut s = BasketSection::new(0, Round(1), EchoKind::Echo1);
            s.entries =
                (0..10).map(|i| (wave * 10 + i, VectorValue::single(0, Dyadic::ONE))).collect();
            let bundle = BasketBundle { sections: vec![s] };
            let _ = node.on_message(NodeId(3), &bundle.to_bytes());
        }
        let after_flood = node.active_checkpoints(0);
        assert!(
            after_flood <= before + usize::from(INTRO_BUDGET_PER_LEVEL),
            "dim-0 flood created {after_flood} actives from {before}"
        );
        // The same sender can still introduce checkpoints in dimension 1.
        let mut s = BasketSection::new(0, Round(1), EchoKind::Echo1);
        s.entries = vec![(300, VectorValue::single(1, Dyadic::ONE))];
        let bundle = BasketBundle { sections: vec![s] };
        let _ = node.on_message(NodeId(3), &bundle.to_bytes());
        assert_eq!(node.active_checkpoints(0), after_flood + 1);
    }

    #[test]
    fn vector_ignores_dimensions_beyond_basket() {
        let cfg = small_cfg(4);
        let mut node = VectorDelphiNode::new(cfg, NodeId(0), &[500.0, 600.0]);
        let _ = node.start();
        let before = node.active_checkpoints(0);
        let mut s = BasketSection::new(0, Round(1), EchoKind::Echo1);
        s.entries = vec![(300, {
            let mut v = VectorValue::single(0, Dyadic::ONE);
            v.set(7, Dyadic::ONE); // phantom asset
            v
        })];
        let bundle = BasketBundle { sections: vec![s] };
        let _ = node.on_message(NodeId(2), &bundle.to_bytes());
        // Dim 0's mention lands; the phantom dim-7 mention is discarded.
        assert_eq!(node.active_checkpoints(0), before + 1);
    }

    #[test]
    #[should_panic(expected = "dimensions")]
    fn vector_basket_size_is_bounded() {
        let inputs = vec![500.0; usize::from(MAX_VECTOR_DIMS) + 1];
        let _ = VectorDelphiNode::new(small_cfg(4), NodeId(0), &inputs);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        #[test]
        fn prop_vector_agreement_and_validity_per_dimension(
            dims in 1usize..6,
            base in 100.0..900.0f64,
            spreads in proptest::collection::vec(0.0..1.0f64, 4 * 6),
            delta in 0.5..16.0f64,
            seed in 0u64..u64::MAX,
        ) {
            let cfg = small_cfg(4);
            let inputs: Vec<Vec<f64>> = (0..4)
                .map(|i| {
                    (0..dims)
                        .map(|d| base + d as f64 * 11.0 + spreads[i * 6 + d] * delta)
                        .collect()
                })
                .collect();
            let outs = run_vector_delphi(&cfg, &inputs, &[], |_| unreachable!(), seed, None);
            for d in 0..dims {
                let douts: Vec<f64> = outs.iter().map(|o| o[d]).collect();
                let dins: Vec<f64> = inputs.iter().map(|o| o[d]).collect();
                let m = dins.iter().copied().fold(f64::INFINITY, f64::min);
                let big_m = dins.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let relax = cfg.rho0().max(big_m - m);
                for a in &douts {
                    prop_assert!(*a >= m - relax - 1e-9 && *a <= big_m + relax + 1e-9);
                    for b in &douts {
                        prop_assert!((a - b).abs() <= cfg.epsilon() + 1e-9);
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn prop_agreement_and_validity(
            n in 4usize..8,
            base in 100.0..900.0f64,
            spreads in proptest::collection::vec(0.0..1.0f64, 8),
            delta in 0.5..24.0f64,
            seed in 0u64..u64::MAX,
        ) {
            let cfg = small_cfg(n);
            let inputs: Vec<f64> = (0..n).map(|i| base + spreads[i] * delta).collect();
            let outs = run_delphi(&cfg, &inputs, &[], |_| unreachable!(), seed);
            let m = inputs.iter().copied().fold(f64::INFINITY, f64::min);
            let big_m = inputs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let relax = cfg.rho0().max(big_m - m);
            for a in &outs {
                prop_assert!(*a >= m - relax - 1e-9 && *a <= big_m + relax + 1e-9);
                for b in &outs {
                    prop_assert!((a - b).abs() <= cfg.epsilon() + 1e-9);
                }
            }
        }
    }
}
