//! Weak Binary-Value broadcast (Definition II.2) and the round-major
//! table every agreement machine in this crate keeps its rounds in.
//!
//! Every BinAA round is an instance of one quorum machine (Algorithm 1,
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
//! The machine is pure: callers feed echoes in and carry the returned
//! [`BvActions`] to the network. Sent echoes are applied to the local
//! state immediately (the paper's line 6 self-insertion), and
//! amplification keeps running even after the round has terminated so slow
//! peers still receive help.
//!
//! # Layout
//!
//! One round of one instance is a *cell*: an honest execution echoes at
//! most two values per phase (honest round values form an adjacent pair),
//! so a cell keeps [`INLINE_VALUES`] value slots per phase — value, sender
//! count and introducer as plain small integers — and hangs everything a
//! Byzantine sender can add, bounded by [`MAX_ECHO1_VALUES_PER_SENDER`],
//! off one thin pointer. The system size lives with the cell's owner, and
//! so do the slots' sender sets: `⌈n / 64⌉` words each, one run of them
//! per cell, whatever `n` is. A cell keeps each value as the one `u32` `k`
//! with value `k / 2^31`: a value plausible for round `r` lies in `[0, 1]`
//! with `log_den < r ≤ MAX_ROUNDS = 32`, so this grid is exact (equal
//! values, equal `k`), and a cell is 64 bytes.
//!
//! Delphi runs one BinAA per checkpoint per level, and a received section
//! `(level, round, kind)` feeds *every* instance of its level at one
//! round. A `BvTable` therefore stores a level round-major: one row of
//! cells per live round — column 0 the level's background instance,
//! column `1 + i` its `i`-th distinguished checkpoint, ascending — so a
//! section resolves to one row and walks it left to right. Rows are
//! created on the first touch of their round, in one block per level that
//! is reserved for every round at once; forking a checkpoint inserts a
//! column, a copy of column 0, into every live row. The standalone
//! protocol ([`BinAaNode`](crate::BinAaNode)) uses the same table one
//! column wide, and [`BvRound`] is a single cell with its words.

use delphi_primitives::{Dyadic, NodeBitSet, NodeId, Round};

use crate::messages::EchoKind;
use crate::params::MAX_ROUNDS;

/// Per-sender cap on distinct `ECHO1` values tracked.
///
/// Honest nodes send at most two distinct `ECHO1` values per round (their
/// own plus one amplification — honest round values form an adjacent pair).
/// Tracking only the first two per sender bounds memory against Byzantine
/// value-flooding without affecting any honest quorum.
pub const MAX_ECHO1_VALUES_PER_SENDER: usize = 2;

/// Values per echo phase stored inline in a cell; an honest round never
/// needs more (see the module docs).
const INLINE_VALUES: usize = 2;

/// Sender sets a cell owns: one per inline value slot of either phase,
/// `ECHO1`'s first.
const SETS_PER_CELL: usize = 2 * INLINE_VALUES;

/// `log2` of the grid's denominator: every round value has `log_den < r_max`.
const GRID_BITS: u8 = 31;
const _: () = assert!(MAX_ROUNDS <= GRID_BITS as u16 + 1, "round values must fit the grid");

/// A value of `[0, 1]` on the round grid: its numerator `k` over `2^GRID_BITS`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
struct Grid(u32);

impl Grid {
    /// `value` on the grid; `None` outside `[0, 1]` or finer than the grid.
    fn of(value: Dyadic) -> Option<Grid> {
        let shift = GRID_BITS.checked_sub(value.log_den())?;
        let k = (value.num() <= 1 << value.log_den()).then(|| value.num() << shift)?;
        u32::try_from(k).ok().map(Grid)
    }

    fn dyadic(self) -> Dyadic {
        Dyadic::new(u64::from(self.0), GRID_BITS)
    }
}

/// An echo the caller must broadcast on behalf of this round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BvAction {
    /// Broadcast `ECHO1(value)` for this round.
    Echo1(Dyadic),
    /// Broadcast `ECHO2(value)` for this round.
    Echo2(Dyadic),
}

/// The echoes one call asks the caller to broadcast: at most one `ECHO1`
/// (the node's own input or one amplification) followed by at most one
/// `ECHO2`, held inline. Iterate it to get the [`BvAction`]s in send
/// order.
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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BvOutcome {
    low: Grid,
    high: Grid,
}

impl BvOutcome {
    /// The set `{a, b}`: a singleton if they are equal.
    fn of(a: Grid, b: Grid) -> BvOutcome {
        BvOutcome { low: a.min(b), high: a.max(b) }
    }

    /// The next-round BinAA value: the single value for a singleton set,
    /// the exact midpoint for a pair (Algorithm 1 lines 20 and 24).
    pub fn next_value(&self) -> Dyadic {
        Dyadic::new(u64::from(self.low.0) + u64::from(self.high.0), GRID_BITS + 1)
    }
}

#[cfg(test)]
impl BvOutcome {
    /// The output set `B_i`, sorted ascending (one or two values).
    pub fn set(&self) -> Vec<Dyadic> {
        if self.low == self.high {
            vec![self.low.dyadic()]
        } else {
            vec![self.low.dyadic(), self.high.dyadic()]
        }
    }
}

/// The system a cell runs in, kept once by whoever owns the cell.
#[derive(Clone, Copy, Debug)]
struct Quorum {
    me: NodeId,
    n: u16,
    /// `t + 1` echoes amplify a value.
    amplify: u16,
    /// `n − t` echoes are a quorum.
    quorum: u16,
    /// Words in one sender set: `⌈n / 64⌉`.
    words: u16,
}

impl Quorum {
    /// # Panics
    ///
    /// Panics if `n < 3t + 1` (the protocol's resilience bound), `me` is
    /// out of range, or `n` exceeds the node-id space.
    fn new(me: NodeId, n: usize, t: usize) -> Quorum {
        assert!(n > 3 * t, "weak BV broadcast requires n >= 3t + 1");
        assert!(me.index() < n, "node id out of range");
        assert!(n <= usize::from(u16::MAX), "node ids are 16 bits");
        let words = n.div_ceil(64) as u16;
        Quorum { me, n: n as u16, amplify: (t + 1) as u16, quorum: (n - t) as u16, words }
    }

    /// Words in the sender sets of one cell.
    fn cell_words(self) -> usize {
        SETS_PER_CELL * usize::from(self.words)
    }

    /// Where `from`'s bit is in a sender set: word and mask. The word is
    /// inside the set for every `from` below `n`.
    fn bit(from: NodeId) -> (usize, u64) {
        (from.index() / 64, 1u64 << (from.index() % 64))
    }
}

/// One tracked echo value: how many sent it, and who first did. Its
/// sender set lives in the owner's word run; a count of zero marks the
/// slot empty.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    value: Grid,
    /// Size of the sender set, maintained on insert so threshold checks
    /// never popcount.
    count: u16,
    /// The sender whose echo created the slot. The `ECHO1` per-sender cap
    /// counts the slots a sender introduced, not the slots it appears in.
    introducer: u16,
}

impl Slot {
    fn first(value: Grid, from: NodeId) -> Slot {
        Slot { value, count: 1, introducer: from.0 }
    }
}

/// A value past the inline slots, with a sender set of its own.
#[derive(Clone, Debug)]
struct SpillSlot {
    slot: Slot,
    senders: NodeBitSet,
}

/// What only Byzantine traffic creates: the values past the inline slots.
#[derive(Clone, Debug, Default)]
struct Spill {
    e1: Vec<SpillSlot>,
    e2: Vec<SpillSlot>,
    sent_e1: Vec<Grid>,
}

/// What counting an echo among the inline slots of one phase came to.
enum Tally {
    /// Counted; the value's sender count is now this.
    Counted(u16),
    /// The sender had echoed the value before.
    Duplicate,
    /// Every inline slot holds another value; the sender introduced this
    /// many of them.
    Elsewhere(usize),
}

/// Counts `from`'s echo of `value` among inline `slots`, which fill front
/// to back; `sets` holds their sender sets back to back, `words` each.
fn tally(
    slots: &mut [Slot; INLINE_VALUES],
    sets: &mut [u64],
    words: u16,
    from: NodeId,
    value: Grid,
) -> Tally {
    let (word, bit) = Quorum::bit(from);
    let mut introduced = 0;
    for (i, slot) in slots.iter_mut().enumerate() {
        let Some(set) = sets.get_mut(i * usize::from(words) + word) else { break };
        if slot.count == 0 {
            // Nothing is tracked past an empty slot: a new value.
            (*slot, *set) = (Slot::first(value, from), bit);
            return Tally::Counted(1);
        }
        if slot.value == value {
            if *set & bit != 0 {
                return Tally::Duplicate;
            }
            *set |= bit;
            slot.count += 1;
            return Tally::Counted(slot.count);
        }
        introduced += usize::from(slot.introducer == from.0);
    }
    Tally::Elsewhere(introduced)
}

impl SpillSlot {
    /// Counts `from`'s echo, returning the new sender count if it was not
    /// among the senders yet.
    fn count(&mut self, from: NodeId) -> Option<u16> {
        if !self.senders.insert(from) {
            return None;
        }
        self.slot.count += 1;
        Some(self.slot.count)
    }
}

/// Tracks `value` as a new entry of a spill tail, its first sender
/// `from` — unless a per-sender cap applies and `from`, who introduced
/// `introduced` of the inline values, is over it.
#[cold]
#[inline(never)]
fn admit(
    tail: &mut Vec<SpillSlot>,
    (from, n): (NodeId, u16),
    value: Grid,
    introduced: Option<usize>,
) -> Option<u16> {
    let over = |inline| {
        let spilled = tail.iter().filter(|spilled| spilled.slot.introducer == from.0).count();
        inline + spilled >= MAX_ECHO1_VALUES_PER_SENDER
    };
    if introduced.is_some_and(over) {
        return None;
    }
    let mut senders = NodeBitSet::new(usize::from(n));
    senders.insert(from);
    tail.push(SpillSlot { slot: Slot::first(value, from), senders });
    Some(1)
}

/// Counts `from`'s echo of `value` in a spill tail; `introduced` as in
/// [`admit`].
fn tally_spilled(
    tail: &mut Vec<SpillSlot>,
    who: (NodeId, u16),
    value: Grid,
    introduced: Option<usize>,
) -> Option<u16> {
    match tail.iter_mut().find(|spilled| spilled.slot.value == value) {
        Some(spilled) => spilled.count(who.0),
        None => admit(tail, who, value, introduced),
    }
}

/// State of one node's participation in one weak BV-broadcast round,
/// minus what its owner keeps for it: the system size and the sender sets
/// of the inline slots. What counting an echo that crosses no threshold
/// touches comes first, the flags between the two phases' slots.
#[derive(Clone, Debug, Default)]
#[repr(C)]
struct Cell {
    /// `ECHO1` values; bounded by per-sender caps.
    e1: [Slot; INLINE_VALUES],
    /// How many of `sent_e1` are set.
    sent_e1_len: u8,
    /// Whether we have sent our (single) `ECHO2`.
    sent_e2: bool,
    has_q1: bool,
    terminated: bool,
    /// `ECHO2` values.
    e2: [Slot; INLINE_VALUES],
    /// With `has_q1`: the first value whose `ECHO1` count reached the
    /// `n − t` quorum. It triggers our `ECHO2` on the spot; a second value
    /// getting there terminates the round by condition (1).
    q1_first: Grid,
    /// With `terminated`: the round's outcome.
    outcome: BvOutcome,
    /// Values we have already `ECHO1`d.
    sent_e1: [Grid; INLINE_VALUES],
    spill: Option<Box<Spill>>,
}

impl Cell {
    fn outcome(&self) -> Option<&BvOutcome> {
        self.terminated.then_some(&self.outcome)
    }
}

/// One cell joined with its system and its [`SETS_PER_CELL`] sender sets:
/// the round machine itself. Its doors drop any value off the grid.
pub(crate) struct CellMut<'a> {
    q: Quorum,
    cell: &'a mut Cell,
    sets: &'a mut [u64],
}

impl CellMut<'_> {
    /// Feeds this node's own input for the round (Algorithm 1 lines 4–7).
    /// Returns the echoes to broadcast.
    pub(crate) fn set_input(&mut self, value: Dyadic) -> BvActions {
        let mut actions = BvActions::default();
        let Some(value) = Grid::of(value) else { return actions };
        self.send_echo1(value, &mut actions);
        self.send_echo2_if_due(&mut actions);
        actions
    }

    /// Handles `ECHO1(value)` from `from`. Returns echoes to broadcast.
    pub(crate) fn on_echo1(&mut self, from: NodeId, value: Dyadic) -> BvActions {
        let mut actions = BvActions::default();
        let Some(value) = Grid::of(value) else { return actions };
        // Amplify: t + 1 ECHO1s for a value we have not echoed yet. A
        // count reaches t + 1 exactly once. If our own echo takes it there
        // the value is already marked sent; if a peer's does, this is the
        // call that sees it — so no other value is ever left waiting.
        if self.insert_e1(from, value) == Some(self.q.amplify) {
            self.send_echo1(value, &mut actions);
        }
        self.send_echo2_if_due(&mut actions);
        actions
    }

    /// Handles `ECHO2(value)` from `from`. An `ECHO2` can complete the
    /// round but never triggers an echo of ours (those hang off `ECHO1`
    /// counts alone), so the returned set is always empty.
    pub(crate) fn on_echo2(&mut self, from: NodeId, value: Dyadic) -> BvActions {
        if let Some(value) = Grid::of(value) {
            self.insert_e2(from, value);
        }
        BvActions::default()
    }

    /// Handles an echo of either phase.
    pub(crate) fn feed(&mut self, kind: EchoKind, from: NodeId, value: Dyadic) -> BvActions {
        match kind {
            EchoKind::Echo1 => self.on_echo1(from, value),
            EchoKind::Echo2 => self.on_echo2(from, value),
        }
    }

    /// Counts `from`'s `ECHO1(value)`, returning the value's new sender
    /// count if the echo was fresh (not a duplicate, not over the cap).
    fn insert_e1(&mut self, from: NodeId, value: Grid) -> Option<u16> {
        if from.0 >= self.q.n {
            return None;
        }
        let count = match tally(&mut self.cell.e1, self.sets, self.q.words, from, value) {
            Tally::Counted(count) => count,
            Tally::Duplicate => return None,
            // New value for this sender: enforce the per-sender cap.
            Tally::Elsewhere(introduced) => {
                let tail = &mut self.cell.spill.get_or_insert_with(Box::default).e1;
                tally_spilled(tail, (from, self.q.n), value, Some(introduced))?
            }
        };
        // Counts grow by one per distinct sender, so the quorum is
        // crossed exactly once per value.
        if count == self.q.quorum {
            if !self.cell.has_q1 {
                (self.cell.has_q1, self.cell.q1_first) = (true, value);
            } else if !self.cell.terminated {
                // Condition (1): two values with n − t ECHO1s each. (A
                // third can follow only on Byzantine-only traffic, after
                // the round is decided.)
                self.cell.outcome = BvOutcome::of(self.cell.q1_first, value);
                self.cell.terminated = true;
            }
        }
        Some(count)
    }

    fn insert_e2(&mut self, from: NodeId, value: Grid) {
        if from.0 >= self.q.n {
            return;
        }
        // The `ECHO2` sets follow the `ECHO1` sets.
        let words = usize::from(self.q.words);
        let Some(sets) = self.sets.get_mut(INLINE_VALUES * words..) else { return };
        // One ECHO2 per sender: ignore if this sender already echoed any value.
        let (word, bit) = Quorum::bit(from);
        let spilled = self.cell.spill.as_deref().map(|spill| spill.e2.as_slice());
        let echoed = |slot| sets.get(slot * words + word).is_some_and(|set| set & bit != 0);
        if (0..INLINE_VALUES).any(echoed)
            || spilled.unwrap_or_default().iter().any(|spilled| spilled.senders.contains(from))
        {
            return;
        }
        let count = match tally(&mut self.cell.e2, sets, self.q.words, from, value) {
            Tally::Counted(count) => Some(count),
            Tally::Duplicate => None,
            Tally::Elsewhere(_) => {
                let tail = &mut self.cell.spill.get_or_insert_with(Box::default).e2;
                tally_spilled(tail, (from, self.q.n), value, None)
            }
        };
        // Condition (2): one value with n − t ECHO2s. The quorum is unique
        // (one ECHO2 per sender, and n − t > n / 2).
        if count == Some(self.q.quorum) && !self.cell.terminated {
            self.cell.outcome = BvOutcome::of(value, value);
            self.cell.terminated = true;
        }
    }

    fn send_echo1(&mut self, value: Grid, actions: &mut BvActions) {
        let cell = &mut *self.cell;
        let sent = cell.sent_e1.iter().take(usize::from(cell.sent_e1_len));
        let spilled = cell.spill.as_deref().map(|spill| spill.sent_e1.as_slice());
        if sent.chain(spilled.unwrap_or_default()).any(|sent| *sent == value) {
            return;
        }
        match cell.sent_e1.get_mut(usize::from(cell.sent_e1_len)) {
            Some(next) => (*next, cell.sent_e1_len) = (value, cell.sent_e1_len + 1),
            None => cell.spill.get_or_insert_with(Box::default).sent_e1.push(value),
        }
        self.insert_e1(self.q.me, value);
        actions.echo1 = Some(value.dyadic());
    }

    /// ECHO2: n − t ECHO1s for a value, once per round. Runs after every
    /// `ECHO1` insertion, so it fires on the first value to get there.
    fn send_echo2_if_due(&mut self, actions: &mut BvActions) {
        if !self.cell.has_q1 || self.cell.sent_e2 {
            return;
        }
        self.cell.sent_e2 = true;
        let value = self.cell.q1_first;
        self.insert_e2(self.q.me, value);
        actions.echo2 = Some(value.dyadic());
    }
}

/// One node's participation in one standalone weak BV-broadcast round: a
/// single cell that owns its system size and sender sets. It ignores every
/// value off the round grid — outside `[0, 1]` or with `log_den > 31` — as
/// Delphi and BinAA drop values implausible for their round.
#[derive(Clone, Debug)]
pub struct BvRound {
    q: Quorum,
    cell: Cell,
    sets: Vec<u64>,
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
        let q = Quorum::new(me, n, t);
        BvRound { q, cell: Cell::default(), sets: vec![0; q.cell_words()] }
    }

    fn machine(&mut self) -> CellMut<'_> {
        CellMut { q: self.q, cell: &mut self.cell, sets: &mut self.sets }
    }

    /// Feeds this node's own input for the round (Algorithm 1 lines 4–7).
    /// Returns the echoes to broadcast.
    pub fn set_input(&mut self, value: Dyadic) -> BvActions {
        self.machine().set_input(value)
    }

    /// Handles `ECHO1(value)` from `from`. Returns echoes to broadcast.
    pub fn on_echo1(&mut self, from: NodeId, value: Dyadic) -> BvActions {
        self.machine().on_echo1(from, value)
    }

    /// Handles `ECHO2(value)` from `from`; never triggers an echo of ours,
    /// so the returned set is always empty.
    pub fn on_echo2(&mut self, from: NodeId, value: Dyadic) -> BvActions {
        self.machine().on_echo2(from, value)
    }

    /// The round's outcome, once one of the two termination conditions
    /// holds.
    pub fn outcome(&self) -> Option<&BvOutcome> {
        self.cell.outcome()
    }

    /// Whether the round has terminated at this node.
    pub fn is_terminated(&self) -> bool {
        self.cell.terminated
    }
}

/// A distinguished checkpoint: a table column past the background's.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Checkpoint {
    /// The checkpoint's id within its level.
    pub(crate) k: i64,
    /// Its instance's state value entering the level's current round.
    pub(crate) value: Dyadic,
}

/// Checkpoints kept beside the table header; a level that distinguishes
/// more moves the run to the heap.
const INLINE_CHECKPOINTS: usize = 6;

/// A table's distinguished checkpoints, ascending by id.
#[derive(Clone, Debug, Default)]
struct Checkpoints {
    len: usize,
    inline: [Checkpoint; INLINE_CHECKPOINTS],
    /// The whole run, once it has outgrown `inline`.
    spilled: Vec<Checkpoint>,
}

impl Checkpoints {
    fn as_slice(&self) -> &[Checkpoint] {
        if self.spilled.is_empty() {
            self.inline.get(..self.len).unwrap_or_default()
        } else {
            &self.spilled
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Checkpoint] {
        if self.spilled.is_empty() {
            self.inline.get_mut(..self.len).unwrap_or_default()
        } else {
            &mut self.spilled
        }
    }

    fn insert(&mut self, at: usize, checkpoint: Checkpoint) {
        if self.spilled.is_empty() {
            if let Some(tail) = self.inline.get_mut(at..=self.len) {
                tail.rotate_right(1);
                if let Some(first) = tail.first_mut() {
                    *first = checkpoint;
                }
                self.len += 1;
                return;
            }
            self.spilled.reserve(2 * INLINE_CHECKPOINTS);
            self.spilled.extend_from_slice(&self.inline);
        }
        self.spilled.insert(at, checkpoint);
    }
}

/// Columns a fresh table's cell block has room for; the block doubles
/// when a fork outgrows it.
const CELL_COLUMNS: usize = 4;

/// The same for the sender-set block. A column's sets are half its cell
/// at n ≤ 64, so room for more of them is cheap — and with the two strides
/// never equal, no fork regrows both blocks.
const SET_COLUMNS: usize = 6;

/// Smallest doubling of `columns` that holds `width`.
fn stride_for(mut columns: usize, width: usize) -> usize {
    while columns < width {
        columns *= 2;
    }
    columns
}

/// Re-lays `rows` rows of `old` items each as rows of `new`, the added
/// items default, in one new block with room for `reserve` rows.
fn restride<T: Default>(block: &mut Vec<T>, rows: usize, old: usize, new: usize, reserve: usize) {
    let mut grown = Vec::new();
    grown.reserve_exact(reserve * new);
    let mut items = std::mem::take(block).into_iter();
    for _ in 0..rows {
        grown.extend(items.by_ref().take(old));
        grown.extend(std::iter::repeat_with(T::default).take(new.saturating_sub(old)));
    }
    *block = grown;
}

/// In every `stride`-column row of `block` (a column is `unit` items),
/// moves columns `at..width` one to the right and makes column `at` a
/// copy of column 0. The row's column `width` must be spare.
fn insert_column<T: Clone>(block: &mut [T], stride: usize, unit: usize, width: usize, at: usize) {
    if stride * unit == 0 {
        return;
    }
    for row in block.chunks_exact_mut(stride * unit) {
        if let Some(moved) = row.get_mut(at * unit..(width + 1) * unit) {
            moved.rotate_right(unit);
        }
        let (head, tail) = row.split_at_mut((at * unit).min(row.len()));
        if let (Some(background), Some(fork)) = (head.get(..unit), tail.get_mut(..unit)) {
            fork.clone_from_slice(background);
        }
    }
}

/// The rounds of every BinAA instance of one Delphi level (of one basket
/// dimension), round-major — see the module docs — together with what
/// says which instances there are: the level's distinguished checkpoints,
/// every instance's state value, and the senders' introduction budgets.
/// One column wide and without checkpoints it is the round state of a
/// standalone BinAA.
///
/// An untouched table owns no round state. The first touched round
/// allocates the cell block and the sender-set block, each reserved (not
/// written) for `r_max` rows, of which rows `1..=round` are live once
/// anything touched `round` (rounds are entered in order, so a round and
/// its successor share cache lines and pages); a fork allocates only
/// when it outgrows a block's stride, and then regrows that one block.
/// Terminated rounds stay resident: their amplification keeps helping
/// slower peers.
#[derive(Clone, Debug)]
#[repr(C)] // what resolves a section to its row comes first: two cache lines
pub(crate) struct BvTable {
    q: Quorum,
    r_max: u16,
    /// Columns per row of `cells`, of which the first `width()` are live.
    cell_stride: usize,
    /// Columns per row of `sets`; a column is its cell's sender sets.
    set_stride: usize,
    rows: usize,
    cells: Vec<Cell>,
    sets: Vec<u64>,
    checkpoints: Checkpoints,
    /// The background instance's state value entering the current round.
    background: Dyadic,
    /// The ids that may be distinguished; empty for a standalone BinAA.
    k_min: i64,
    k_max: i64,
    /// Remaining checkpoint introductions per sender.
    intro_budget: Vec<u8>,
}

impl BvTable {
    /// The round state of one standalone `r_max`-round BinAA instance at
    /// node `me` of an `n`-node, `t`-fault system.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3t + 1`, `me` is out of range, or `r_max` exceeds
    /// [`MAX_ROUNDS`].
    pub(crate) fn new(me: NodeId, n: usize, t: usize, r_max: u16) -> BvTable {
        assert!(r_max <= MAX_ROUNDS, "r_max must be at most {MAX_ROUNDS}");
        BvTable {
            q: Quorum::new(me, n, t),
            r_max,
            cell_stride: 0,
            set_stride: 0,
            rows: 0,
            cells: Vec::new(),
            sets: Vec::new(),
            checkpoints: Checkpoints::default(),
            background: Dyadic::ZERO,
            k_min: 0,
            k_max: -1,
            intro_budget: Vec::new(),
        }
    }

    /// Makes the table a Delphi level's: checkpoints `k_min..=k_max` may
    /// be distinguished, each sender sponsoring at most `budget` of them.
    pub(crate) fn with_checkpoints(mut self, (k_min, k_max): (i64, i64), budget: u8) -> BvTable {
        (self.k_min, self.k_max) = (k_min, k_max);
        self.intro_budget = vec![budget; usize::from(self.q.n)];
        self
    }

    /// The distinguished checkpoints, ascending: columns `1..`.
    pub(crate) fn checkpoints(&self) -> &[Checkpoint] {
        self.checkpoints.as_slice()
    }

    /// The distinguished checkpoints' ids, ascending.
    pub(crate) fn ids(&self) -> impl Iterator<Item = i64> + '_ {
        self.checkpoints().iter().map(|checkpoint| checkpoint.k)
    }

    /// The background instance's state value entering the current round.
    pub(crate) fn background(&self) -> Dyadic {
        self.background
    }

    fn width(&self) -> usize {
        1 + self.checkpoints.as_slice().len()
    }

    /// Forks checkpoint `k` off the background if it is not yet
    /// distinguished, charging `sponsor`'s introduction budget: the new
    /// column starts as a copy of the background's in every live round —
    /// its whole quorum history — and with its state value. Returns the
    /// checkpoint's column if it is distinguished after the call.
    pub(crate) fn distinguish(&mut self, k: i64, sponsor: NodeId) -> Option<usize> {
        if k < self.k_min || k > self.k_max {
            return None;
        }
        let found = self.checkpoints.as_slice().binary_search_by_key(&k, |checkpoint| checkpoint.k);
        let position = match found {
            Ok(position) => position,
            Err(position) => {
                let budget = self.intro_budget.get_mut(sponsor.index())?;
                *budget = budget.checked_sub(1)?;
                self.fork(position, k);
                position
            }
        };
        Some(1 + position)
    }

    /// The column of checkpoint `k`, if it is distinguished.
    pub(crate) fn column(&self, k: i64) -> Option<usize> {
        let found = self.checkpoints.as_slice().binary_search_by_key(&k, |checkpoint| checkpoint.k);
        found.ok().map(|position| 1 + position)
    }

    /// Sets the state value of the checkpoint in `column` (`1..`).
    pub(crate) fn set_value(&mut self, column: usize, value: Dyadic) {
        let position = column.checked_sub(1);
        if let Some(checkpoint) =
            position.and_then(|at| self.checkpoints.as_mut_slice().get_mut(at))
        {
            checkpoint.value = value;
        }
    }

    /// Inserts checkpoint `k` as the `position`-th, column `1 + position`.
    #[cold]
    fn fork(&mut self, position: usize, k: i64) {
        let (width, unit) = (self.width(), self.q.cell_words());
        if self.rows > 0 {
            let reserve = usize::from(self.r_max);
            if width == self.cell_stride {
                restride(&mut self.cells, self.rows, width, 2 * width, reserve);
                self.cell_stride = 2 * width;
            }
            if width == self.set_stride {
                restride(&mut self.sets, self.rows, width * unit, 2 * width * unit, reserve);
                self.set_stride = 2 * width;
            }
            insert_column(&mut self.cells, self.cell_stride, 1, width, 1 + position);
            insert_column(&mut self.sets, self.set_stride, unit, width, 1 + position);
        }
        self.checkpoints.insert(position, Checkpoint { k, value: self.background });
    }

    /// The row of `round`, if it is live.
    fn row_of(&self, round: Round) -> Option<usize> {
        usize::from(round.0).checked_sub(1).filter(|&row| row < self.rows)
    }

    /// The row of `round`, made live on first touch along with the rows
    /// of every round before it; `None` if `round` is outside `1..=r_max`.
    fn touch(&mut self, round: Round) -> Option<usize> {
        let row = usize::from(round.0).checked_sub(1)?;
        if round.0 > self.r_max {
            return None;
        }
        if row >= self.rows {
            self.open_rows(row + 1);
        }
        Some(row)
    }

    /// Makes the first `rows` rows live.
    #[cold]
    fn open_rows(&mut self, rows: usize) {
        if self.rows == 0 {
            // Room for every round at once (reserved, not written): an
            // agreement runs them all, and growing by doubling would
            // copy the rows around and overshoot by up to half.
            let (width, reserve) = (self.width(), usize::from(self.r_max));
            self.cell_stride = stride_for(CELL_COLUMNS, width);
            self.set_stride = stride_for(SET_COLUMNS, width);
            self.cells.reserve_exact(reserve * self.cell_stride);
            self.sets.reserve_exact(reserve * self.set_stride * self.q.cell_words());
        }
        self.rows = rows;
        self.cells.resize_with(rows * self.cell_stride, Cell::default);
        self.sets.resize(rows * self.set_stride * self.q.cell_words(), 0);
    }

    /// The live cells of row `row`.
    fn cells_of(&self, row: usize) -> &[Cell] {
        let start = row * self.cell_stride;
        self.cells.get(start..start + self.width()).unwrap_or_default()
    }

    /// The cell of `round` (created on first touch) in `column`.
    pub(crate) fn cell_mut(&mut self, round: Round, column: usize) -> Option<CellMut<'_>> {
        let row = self.touch(round)?;
        if column >= self.width() {
            return None;
        }
        let sets_at = (row * self.set_stride + column) * self.q.cell_words();
        let cell = self.cells.get_mut(row * self.cell_stride + column)?;
        let sets = self.sets.get_mut(sets_at..sets_at + self.q.cell_words())?;
        Some(CellMut { q: self.q, cell, sets })
    }

    /// The outcome of `round` in `column`, once it has terminated there.
    pub(crate) fn outcome(&self, round: Round, column: usize) -> Option<&BvOutcome> {
        self.cells_of(self.row_of(round)?).get(column)?.outcome()
    }

    /// Whether `round` has terminated in every instance.
    pub(crate) fn terminated(&self, round: Round) -> bool {
        self.row_of(round).is_some_and(|row| self.cells_of(row).iter().all(|cell| cell.terminated))
    }

    /// Moves every instance to the value `round` decided for it (no change
    /// where the round is open).
    pub(crate) fn adopt_outcomes(&mut self, round: Round) {
        let Some(row) = self.row_of(round) else { return };
        let (start, width) = (row * self.cell_stride, self.width());
        let cells = self.cells.get(start..start + width).unwrap_or_default();
        let checkpoints = self.checkpoints.as_mut_slice().iter_mut();
        let values = std::iter::once(&mut self.background)
            .chain(checkpoints.map(|checkpoint| &mut checkpoint.value));
        for (value, cell) in values.zip(cells) {
            if let Some(outcome) = cell.outcome() {
                *value = outcome.next_value();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ZERO: Dyadic = Dyadic::ZERO;
    const ONE: Dyadic = Dyadic::ONE;

    /// The values one phase of `cell` tracks, in creation order: inline
    /// slots, then the spill tail.
    fn tracked(cell: &Cell, phase: EchoKind) -> Vec<Slot> {
        let (inline, spilled) = match (phase, cell.spill.as_deref()) {
            (EchoKind::Echo1, spill) => (&cell.e1, spill.map(|spill| &spill.e1)),
            (EchoKind::Echo2, spill) => (&cell.e2, spill.map(|spill| &spill.e2)),
        };
        let inline = inline.iter().filter(|slot| slot.count > 0).copied();
        inline.chain(spilled.into_iter().flatten().map(|spilled| spilled.slot)).collect()
    }

    /// The values `cell` has `ECHO1`d, in send order.
    fn sent_e1(cell: &Cell) -> Vec<Dyadic> {
        let inline = cell.sent_e1.iter().take(usize::from(cell.sent_e1_len));
        inline
            .chain(cell.spill.iter().flat_map(|spill| &spill.sent_e1))
            .map(|v| v.dyadic())
            .collect()
    }

    /// `value` on the grid, as every value these tests feed is.
    fn grid(value: Dyadic) -> Grid {
        Grid::of(value).expect("a grid value")
    }

    impl BvOutcome {
        fn single(b: Dyadic) -> BvOutcome {
            BvOutcome::of(grid(b), grid(b))
        }

        fn pair(a: Dyadic, b: Dyadic) -> BvOutcome {
            BvOutcome::of(grid(a), grid(b))
        }
    }

    impl BvTable {
        /// One instance's whole state, for `Debug` comparison: its state
        /// value and, per live row, its cell and sender sets.
        pub(crate) fn column_state(&self, column: usize) -> String {
            let value = match column.checked_sub(1) {
                Some(position) => self.checkpoints()[position].value,
                None => self.background,
            };
            let unit = self.q.cell_words();
            let rows: Vec<(&Cell, &[u64])> = (0..self.rows)
                .map(|row| {
                    let sets_at = (row * self.set_stride + column) * unit;
                    (
                        &self.cells[row * self.cell_stride + column],
                        &self.sets[sets_at..sets_at + unit],
                    )
                })
                .collect();
            format!("{value:?} {rows:?}")
        }
    }

    /// Everything the differential tests compare of one round's state.
    #[derive(Debug, PartialEq)]
    struct Observed {
        outcome: Option<BvOutcome>,
        sent_e2: bool,
        sent_e1: Vec<Dyadic>,
        /// Tracked `(value, sender count)` per phase, in creation order.
        e1: Vec<(Dyadic, usize)>,
        e2: Vec<(Dyadic, usize)>,
    }

    /// Observes a cell; its inline counts must be its sets' sizes.
    fn observe(cell: &Cell, sets: &[u64], n: usize) -> Observed {
        let slots = cell.e1.iter().chain(&cell.e2);
        for (slot, set) in slots.zip(sets.chunks_exact(n.div_ceil(64))) {
            let senders: u32 = set.iter().map(|word| word.count_ones()).sum();
            assert_eq!(u32::from(slot.count), senders, "cached count drifted");
        }
        let counts = |phase| {
            let tracked = tracked(cell, phase).into_iter();
            tracked.map(|slot| (slot.value.dyadic(), usize::from(slot.count))).collect()
        };
        Observed {
            outcome: cell.outcome().copied(),
            sent_e2: cell.sent_e2,
            sent_e1: sent_e1(cell),
            e1: counts(EchoKind::Echo1),
            e2: counts(EchoKind::Echo2),
        }
    }

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
        assert!(!r.cell.sent_e2);
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
        let tracked = tracked(&r.cell, EchoKind::Echo1).len();
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
        let tracked = tracked(&r.cell, EchoKind::Echo2);
        assert_eq!(tracked.len(), 1, "second ECHO2 from same sender ignored");
    }

    #[test]
    fn out_of_range_sender_ignored() {
        let mut r = BvRound::new(NodeId(0), 4, 1);
        let _ = r.set_input(ZERO);
        let _ = r.on_echo1(NodeId(100), ZERO);
        let _ = r.on_echo2(NodeId(100), ZERO);
        // Only our own echo counts.
        let counted: u16 = tracked(&r.cell, EchoKind::Echo1).iter().map(|slot| slot.count).sum();
        assert_eq!(counted, 1);
        assert_eq!(r.sets.iter().map(|word| word.count_ones()).sum::<u32>(), 1);
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
        assert!(r.cell.spill.is_none(), "honest pair stays inline");
        for byz in 11..16u16 {
            for i in 0..100u64 {
                let _ =
                    r.on_echo1(NodeId(byz), Dyadic::new(1 + 2 * (u64::from(byz) * 100 + i), 20));
            }
        }
        let spilled = r.cell.spill.as_deref().map_or(0, |spill| spill.e1.len());
        assert_eq!(spilled, 5 * MAX_ECHO1_VALUES_PER_SENDER, "two per flooder");
        for byz in 11..16u16 {
            let tracked = tracked(&r.cell, EchoKind::Echo1);
            let introduced = tracked.iter().filter(|slot| slot.introducer == byz).count();
            assert_eq!(introduced, MAX_ECHO1_VALUES_PER_SENDER);
        }
        // A capped sender may still echo values others introduced.
        let _ = r.on_echo1(NodeId(11), ZERO);
        assert_eq!(tracked(&r.cell, EchoKind::Echo1).first().map(|slot| slot.count), Some(2));
        // Flooded values never reach t + 1, so nothing was amplified, and
        // the honest quorum still terminates the round.
        assert_eq!(sent_e1(&r.cell).len(), 1);
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
    #[derive(Clone)]
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

        fn observe(&self) -> Observed {
            let counts = |phase: &[(Dyadic, NodeBitSet)]| {
                phase.iter().map(|(value, set)| (*value, set.len())).collect()
            };
            Observed {
                outcome: self.outcome,
                sent_e2: self.sent_e2,
                sent_e1: self.sent_e1.clone(),
                e1: counts(&self.e1),
                e2: counts(&self.e2),
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
                proptest::prop_assert_eq!(observe(&fast.cell, &fast.sets, n), naive.observe());
            }
        }
    }

    /// A level's instances as the table's reference model: per column, the
    /// standalone round machines of the rounds anything touched.
    type Columns = Vec<std::collections::BTreeMap<u16, NaiveBv>>;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(192))]

        /// Differential test of the table: every column behaves like a
        /// stack of standalone [`NaiveBv`] rounds that was seeded, when
        /// the column forked, with the background's history — same
        /// actions from every call, and in the end the same state in
        /// every cell — while forks land at random points and grow the
        /// table through both of its blocks' strides, at system sizes
        /// on both sides of every sender-set word boundary.
        #[test]
        fn prop_table_columns_match_standalone_rounds(
            n_choice in 0usize..6,
            events in proptest::collection::vec(
                (0usize..48, proptest::prelude::any::<u16>(), 0usize..16, 0u16..5, 0usize..1000),
                1..1500,
            ),
        ) {
            let (n, t) =
                [(4usize, 1usize), (16, 5), (64, 21), (65, 21), (160, 53), (300, 99)][n_choice];
            let (me, r_max, k_max) = (NodeId(0), 5u16, 23i64);
            let mut table = BvTable::new(me, n, t, r_max).with_checkpoints((0, k_max), u8::MAX);
            let mut model: Columns = vec![Default::default()];
            for (op, from, value, round, pick) in events {
                if op < 3 {
                    // Fork checkpoint `k` (a no-op if it is distinguished).
                    let k = pick as i64 % (k_max + 1);
                    let position = table.checkpoints().partition_point(|c| c.k < k);
                    if table.checkpoints().get(position).is_none_or(|c| c.k != k) {
                        model.insert(1 + position, model[0].clone());
                    }
                    let sponsor = NodeId(from % n as u16);
                    proptest::prop_assert_eq!(table.distinguish(k, sponsor), Some(1 + position));
                    proptest::prop_assert_eq!(table.checkpoints().len() + 1, model.len());
                    continue;
                }
                let v = Dyadic::new(STREAM_VALUES[value], 3);
                let from = NodeId(from % (n as u16 + 2));
                let column = pick % model.len();
                let naive = model[column].entry(round).or_insert_with(|| NaiveBv::new(me, n, t));
                let mut fast = table.cell_mut(Round(round + 1), column).expect("round in range");
                let (a, b) = match op {
                    3..=28 => (fast.on_echo1(from, v), naive.on_echo1(from, v)),
                    29..=43 => (fast.on_echo2(from, v), naive.on_echo2(from, v)),
                    _ => (fast.set_input(v), naive.set_input(v)),
                };
                proptest::prop_assert_eq!(Vec::from_iter(a), b, "actions diverged");
                proptest::prop_assert_eq!(observe(fast.cell, fast.sets, n), naive.observe());
            }
            // Every cell of every live round, forked copies included; a
            // round the model never touched is a fresh machine.
            let ids: Vec<i64> = table.ids().collect();
            proptest::prop_assert!(ids.windows(2).all(|pair| pair[0] < pair[1]), "{:?}", ids);
            let fresh = NaiveBv::new(me, n, t);
            for round in 0..r_max {
                if table.row_of(Round(round + 1)).is_none() {
                    proptest::prop_assert!(model.iter().all(|column| !column.contains_key(&round)));
                    continue;
                }
                for (column, naive) in model.iter().enumerate() {
                    let naive = naive.get(&round).unwrap_or(&fresh);
                    let fast = table.cell_mut(Round(round + 1), column).expect("a live cell");
                    proptest::prop_assert_eq!(observe(fast.cell, fast.sets, n), naive.observe());
                }
                proptest::prop_assert!(table.cell_mut(Round(round + 1), model.len()).is_none());
            }
        }
    }

    #[test]
    fn fork_copies_the_background_column_of_every_live_round() {
        let (n, t) = (4, 1);
        let mut table = BvTable::new(NodeId(0), n, t, 3).with_checkpoints((0, 99), 8);
        // Round 1 terminates on 0 in the background; round 3 is touched.
        let mut bg = table.cell_mut(Round(1), 0).unwrap();
        let _ = bg.set_input(ZERO);
        for peer in 1..3 {
            let _ = bg.on_echo1(NodeId(peer), ZERO);
            let _ = bg.on_echo2(NodeId(peer), ZERO);
        }
        let _ = table.cell_mut(Round(3), 0).unwrap().on_echo1(NodeId(2), ONE);
        assert!(table.terminated(Round(1)) && !table.terminated(Round(3)));

        // Forks in descending, ascending and middle position; the sixth
        // column outgrows the cell block, the eighth the set block.
        for (i, k) in [50, 70, 60, 10, 20, 30, 40, 80].into_iter().enumerate() {
            let column = table.distinguish(k, NodeId(i as u16 % 4)).unwrap();
            assert_eq!(table.checkpoints()[column - 1].k, k);
        }
        assert_eq!(Vec::from_iter(table.ids()), [10, 20, 30, 40, 50, 60, 70, 80]);
        assert!(table.terminated(Round(1)), "every fork inherits the terminated round");
        assert_eq!(table.outcome(Round(1), 5).map(BvOutcome::set), Some(vec![ZERO]));
        assert!(table.outcome(Round(2), 0).is_none(), "round 2 was never touched");
        let row = |table: &mut BvTable, round| -> Vec<Observed> {
            let cell = |column| table.cell_mut(round, column).map(|c| observe(c.cell, c.sets, n));
            (0..).map_while(cell).collect()
        };
        for round in [Round(1), Round(3)] {
            let cells = row(&mut table, round);
            assert_eq!(cells.len(), 9);
            assert!(cells.iter().all(|cell| *cell == cells[0]), "{round:?}");
        }
        // A column is its own instance from the fork on (its second
        // sender amplifies the value: we echo it too).
        let _ = table.cell_mut(Round(3), 2).unwrap().on_echo1(NodeId(3), ONE);
        let counts: Vec<usize> =
            row(&mut table, Round(3)).iter().map(|cell| cell.e1[0].1).collect();
        assert_eq!(counts, [1, 1, 3, 1, 1, 1, 1, 1, 1]);
        // Sponsors 0..4 paid two introductions each; a re-mention is free.
        assert_eq!(table.intro_budget, [6, 6, 6, 6]);
        assert_eq!(table.distinguish(10, NodeId(1)), Some(1));
        assert_eq!(table.distinguish(100, NodeId(1)), None, "outside the level's range");
        assert_eq!(table.intro_budget, [6, 6, 6, 6]);
    }

    #[test]
    fn untouched_table_owns_no_round_state() {
        let mut table = BvTable::new(NodeId(0), 16, 5, 20).with_checkpoints((0, 99), 8);
        for k in [3, 1, 2] {
            let _ = table.distinguish(k, NodeId(1));
        }
        assert_eq!((table.cells.capacity(), table.sets.capacity()), (0, 0));
        assert!(table.cell_mut(Round(0), 0).is_none() && table.cell_mut(Round(21), 0).is_none());
        assert_eq!((table.cells.capacity(), table.sets.capacity()), (0, 0));
        // The first touch reserves both blocks for every round at once
        // and writes the rows up to the touched round.
        let _ = table.cell_mut(Round(2), 3);
        assert_eq!(table.cells.capacity(), 20 * CELL_COLUMNS);
        assert_eq!(table.sets.capacity(), 20 * SET_COLUMNS * SETS_PER_CELL);
        assert_eq!((table.cells.len(), table.rows), (2 * CELL_COLUMNS, 2));
        // In bytes: 20 rows of four 64 B cells and six columns of 32 B sets.
        let cells = table.cells.capacity() * std::mem::size_of::<Cell>();
        assert_eq!(cells + 8 * table.sets.capacity(), 8_960);
    }

    #[test]
    fn cell_fits_one_cache_line() {
        let cell = std::mem::size_of::<Cell>();
        assert!(cell <= 64, "{cell} B");
        // Up to 64 nodes a sender set is one word.
        let sets = Quorum::new(NodeId(0), 64, 21).cell_words();
        assert!(cell + 8 * sets <= 96, "{cell} B + {sets} words");
        assert_eq!(Quorum::new(NodeId(0), 65, 21).words, 2);
        assert_eq!(Quorum::new(NodeId(0), 160, 53).words, 3);
    }

    /// Values no round admits: above 1, or finer than the grid.
    const OFF_GRID: [(u64, u8); 6] =
        [(1, 32), (3, 1), (2, 0), ((1 << 33) + 1, 0), (u64::MAX, 31), (1, 62)];

    #[test]
    fn grid_round_trips_every_edge_value() {
        let edges = [(0, 0), (1, 0), (1, 31), ((1 << 31) - 1, 31)];
        let odd = (0..=31u8).flat_map(|d| [1, ((1 << d) / 3) | 1, (1 << d) - 1].map(|k| (k, d)));
        let values: Vec<Dyadic> =
            edges.into_iter().chain(odd).map(|(k, d)| Dyadic::new(k, d)).collect();
        for &v in &values {
            assert_eq!(Grid::of(v).map(Grid::dyadic), Some(v), "{v:?}");
            assert_eq!(u64::from(grid(v).0), v.num() << (31 - v.log_den()));
            for &w in &values {
                assert_eq!(grid(v).cmp(&grid(w)), v.cmp(&w), "{v:?} vs {w:?}");
                assert_eq!(BvOutcome::pair(v, w).next_value(), v.midpoint(w));
            }
        }
        for (k, d) in OFF_GRID {
            assert_eq!(Grid::of(Dyadic::new(k, d)), None, "{k}/2^{d}");
        }
        // A mesh on two neighbours of 1 at the finest level of the grid.
        let (a, b) = (Dyadic::new((1 << 31) - 1, 31), Dyadic::new((1 << 31) - 3, 31));
        for r in run_mesh(&[a, b, a, b], 1) {
            let out = r.outcome().expect("terminated");
            assert!(out.set().iter().all(|v| [a, b].contains(v)), "{:?}", out.set());
        }
    }

    #[test]
    fn off_grid_echoes_change_nothing() {
        let mut r = BvRound::new(NodeId(0), 4, 1);
        let _ = r.set_input(ZERO);
        let _ = r.on_echo1(NodeId(1), ONE);
        let mut table = BvTable::new(NodeId(0), 4, 1, MAX_ROUNDS);
        let _ = table.cell_mut(Round(MAX_ROUNDS), 0).unwrap().set_input(Dyadic::new(1, 31));
        let before = (format!("{r:?}"), table.column_state(0));
        for value in OFF_GRID.map(|(k, d)| Dyadic::new(k, d)) {
            assert!(r.set_input(value).is_empty());
            let mut cell = table.cell_mut(Round(MAX_ROUNDS), 0).unwrap();
            assert!(cell.set_input(value).is_empty());
            for from in (1..4).map(NodeId) {
                assert!(r.on_echo1(from, value).is_empty() && r.on_echo2(from, value).is_empty());
                assert!(cell.feed(EchoKind::Echo1, from, value).is_empty());
                assert!(cell.feed(EchoKind::Echo2, from, value).is_empty());
            }
        }
        assert_eq!((format!("{r:?}"), table.column_state(0)), before);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Differential test at the grid's finest level: a table of
        /// [`MAX_ROUNDS`] rounds against one [`NaiveBv`] per round, each
        /// round fed values as fine as it admits — `log_den` 31 in the
        /// last — with the same actions and state after every call.
        #[test]
        fn prop_deepest_rounds_match_standalone_rounds(
            n_choice in 0usize..3,
            events in proptest::collection::vec(
                (0usize..40, proptest::prelude::any::<u16>(), 0usize..16, 0..MAX_ROUNDS),
                1..1500,
            ),
        ) {
            let (n, t) = [(4usize, 1usize), (16, 5), (65, 21)][n_choice];
            let me = NodeId(0);
            let mut table = BvTable::new(me, n, t, MAX_ROUNDS);
            let mut model = std::collections::BTreeMap::new();
            for (op, from, value, round) in events {
                // Round `round + 1` admits `log_den ≤ round`: odd numerators sit there.
                let k = ((1u64 << round) - 1).saturating_sub(STREAM_VALUES[value]);
                let v = Dyadic::new(k, round as u8);
                let from = NodeId(from % (n as u16 + 2));
                let naive = model.entry(round).or_insert_with(|| NaiveBv::new(me, n, t));
                let mut fast = table.cell_mut(Round(round + 1), 0).expect("round in range");
                let (a, b) = match op {
                    0..=24 => (fast.on_echo1(from, v), naive.on_echo1(from, v)),
                    25..=38 => (fast.on_echo2(from, v), naive.on_echo2(from, v)),
                    _ => (fast.set_input(v), naive.set_input(v)),
                };
                proptest::prop_assert_eq!(Vec::from_iter(a), b, "actions diverged");
                proptest::prop_assert_eq!(observe(fast.cell, fast.sets, n), naive.observe());
            }
        }
    }
}
