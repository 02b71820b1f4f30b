//! The flat bundle path: what runs between a frame's bytes and a node's
//! quorum state, in both directions.
//!
//! **Receive.** [`BundleArena`] decodes a bundle in *one* validating pass
//! into node-owned flat storage — section heads plus one shared id run,
//! one shared mask run and one shared value run, capacity kept across
//! messages — and hands out [`FlatSection`]s, plain slices of it. Every
//! varint is read once; a malformed bundle is rejected whole, with exactly
//! the owned decoder's error, and leaves the arena empty.
//!
//! **Send.** [`Collector`] groups a call's echoes into one section per
//! `(level, round, kind)` in node-owned scratch and encodes them straight
//! to the wire, so an answering call allocates only what leaves the node.
//!
//! **One layout.** A section is a header, a background mask and its
//! values, an exclude id run and an entry id run with the entries' values;
//! a machine of two or more basket dimensions adds a dimension mask beside
//! every id. A machine of one dimension leaves the per-id masks off — every
//! id lives in dimension 0 — and its background mask is 0 or 1, the same
//! byte as a flag: that is the scalar [`Section`](crate::Section) layout,
//! byte for byte. Whether masks are on is fixed by the dimension count the
//! arena or collector is built for.

use bytes::Bytes;
use delphi_primitives::wire::{Reader, WireError, Writer};
use delphi_primitives::{Dyadic, Envelope, Round};

use crate::messages::{put_id_deltas, EchoKind, MAX_IDS, MAX_SECTIONS};

/// The set bit positions of `mask`, ascending.
pub(crate) fn bits_of(mut mask: u64) -> impl Iterator<Item = u16> {
    std::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let dim = mask.trailing_zeros() as u16;
        mask &= mask - 1;
        Some(dim)
    })
}

/// Where one section lives in the shared runs.
#[derive(Clone, Copy, Debug)]
struct SectionHead {
    level: u8,
    round: Round,
    kind: EchoKind,
    /// Bit `d` set iff dimension `d` has a background echo.
    bg_mask: u64,
    /// Start of the id run (and of the parallel mask run): the `exclude`
    /// ids, then the `entries` ids.
    ids: usize,
    exclude: usize,
    entries: usize,
    /// The value run: background values, then entry values.
    values: usize,
    values_end: usize,
}

/// What a decode pass does with what it reads: [`BundleArena`] stores it,
/// [`Validate`] only checks it.
trait Sink {
    /// Current lengths of the id and value runs.
    fn mark(&self) -> (usize, usize);
    fn id(&mut self, id: i64);
    fn mask(&mut self, mask: u64);
    fn value(&mut self, value: Dyadic);
    fn section(&mut self, head: SectionHead);
}

/// The sink of the validating shims: keeps nothing.
struct Validate;

impl Sink for Validate {
    fn mark(&self) -> (usize, usize) {
        (0, 0)
    }
    fn id(&mut self, _: i64) {}
    fn mask(&mut self, _: u64) {}
    fn value(&mut self, _: Dyadic) {}
    fn section(&mut self, _: SectionHead) {}
}

/// Reads one delta-coded id run; returns its length.
#[inline]
fn read_id_run(r: &mut Reader<'_>, sink: &mut impl Sink) -> Result<usize, WireError> {
    let n = r.get_usize()?;
    if n > MAX_IDS {
        return Err(WireError::LengthOutOfBounds);
    }
    // The count is validated but still untrusted: the sink grows only as
    // ids actually decode, never by `n` up front.
    let mut prev = 0i64;
    for _ in 0..n {
        prev = prev.wrapping_add(r.get_i64()?);
        sink.id(prev);
    }
    Ok(n)
}

/// Reads one section in wire order — per-id masks only when `MASKS` —
/// checking everything the owned decoder of that layout checks, in the
/// same order (so the first error is the same).
#[inline]
fn read_section<const MASKS: bool>(
    r: &mut Reader<'_>,
    sink: &mut impl Sink,
) -> Result<(), WireError> {
    let level = r.get_raw_u8()?;
    let round = r.get::<Round>()?;
    let kind = r.get::<EchoKind>()?;
    let (ids, values) = sink.mark();
    // One dimension: the background mask is a 0/1 flag byte, and any
    // other byte is an invalid discriminant, as for the scalar flag.
    let bg_mask = if MASKS { r.get_u64()? } else { u64::from(r.get_bool()?) };
    for _ in 0..bg_mask.count_ones() {
        sink.value(r.get::<Dyadic>()?);
    }
    let exclude = if bg_mask == 0 { 0 } else { read_id_run(r, sink)? };
    if MASKS {
        for _ in 0..exclude {
            sink.mask(r.get_u64()?);
        }
    }
    let entries = read_id_run(r, sink)?;
    for _ in 0..entries {
        let mask = if MASKS { r.get_u64()? } else { 1 };
        if MASKS {
            sink.mask(mask);
        }
        for _ in 0..mask.count_ones() {
            sink.value(r.get::<Dyadic>()?);
        }
    }
    let (_, values_end) = sink.mark();
    sink.section(SectionHead {
        level,
        round,
        kind,
        bg_mask,
        ids,
        exclude,
        entries,
        values,
        values_end,
    });
    Ok(())
}

/// Reads a whole bundle into `sink`; returns its section count.
fn read_bundle<const MASKS: bool>(bytes: &[u8], sink: &mut impl Sink) -> Result<usize, WireError> {
    let mut r = Reader::new(bytes);
    let count = r.get_usize()?;
    if count > MAX_SECTIONS {
        return Err(WireError::LengthOutOfBounds);
    }
    for _ in 0..count {
        read_section::<MASKS>(&mut r, sink)?;
    }
    r.finish()?;
    Ok(count)
}

/// Validates `bytes` as a complete bundle — with per-id masks iff
/// `MASKS` — without keeping anything; returns the section count.
pub(crate) fn validate_bundle<const MASKS: bool>(bytes: &[u8]) -> Result<usize, WireError> {
    read_bundle::<MASKS>(bytes, &mut Validate)
}

/// A decoded bundle in flat, reusable storage — the one decoder on the
/// frame→protocol hot path, for every basket size.
///
/// [`decode`](BundleArena::decode) makes a single validating pass over
/// the input: each varint, discriminant, length bound and
/// [`Dyadic`] is checked once, with the same error as the owned decoder
/// of the arena's layout (`DelphiBundle` for one dimension,
/// `BasketBundle` for more; property-tested), and lands in one of four
/// vectors shared by all sections. The vectors keep their capacity across
/// calls, so a node decoding its steady-state traffic allocates nothing;
/// they grow only as items actually decode, so their size is bounded by
/// the bytes received and the [`MAX_SECTIONS`] / [`MAX_IDS`] caps, never
/// by a length prefix. The default arena is a one-dimension arena.
#[derive(Clone, Debug, Default)]
pub struct BundleArena {
    heads: Vec<SectionHead>,
    ids: Vec<i64>,
    /// Dimension masks parallel to `ids` (empty without per-id masks).
    masks: Vec<u64>,
    values: Vec<Dyadic>,
    /// Whether the bundles carry per-id masks: two or more dimensions.
    masked: bool,
}

impl Sink for BundleArena {
    #[inline]
    fn mark(&self) -> (usize, usize) {
        (self.ids.len(), self.values.len())
    }
    #[inline]
    fn id(&mut self, id: i64) {
        self.ids.push(id);
    }
    #[inline]
    fn mask(&mut self, mask: u64) {
        self.masks.push(mask);
    }
    #[inline]
    fn value(&mut self, value: Dyadic) {
        self.values.push(value);
    }
    #[inline]
    fn section(&mut self, head: SectionHead) {
        self.heads.push(head);
    }
}

impl BundleArena {
    /// An empty arena for the bundles of a `dims`-dimension machine (per-id
    /// masks iff `dims > 1`); nothing is allocated until the first decode.
    pub fn new(dims: usize) -> BundleArena {
        BundleArena { masked: dims > 1, ..BundleArena::default() }
    }

    /// [`BundleArena::new`] with room for `sections` sections naming `ids`
    /// checkpoints between them, so that bundles up to that size decode
    /// without touching the allocator (larger ones grow it on demand).
    pub(crate) fn with_capacity(sections: usize, ids: usize, dims: usize) -> BundleArena {
        let masked = dims > 1;
        BundleArena {
            heads: Vec::with_capacity(sections),
            ids: Vec::with_capacity(ids),
            masks: Vec::with_capacity(if masked { ids } else { 0 }),
            values: Vec::with_capacity(ids),
            masked,
        }
    }

    /// Replaces the contents with the bundle encoded in `bytes`.
    ///
    /// # Errors
    ///
    /// Exactly what the owned decoder of the arena's layout —
    /// `DelphiBundle::from_bytes` for one dimension,
    /// `BasketBundle::from_bytes` for more — returns on the same input,
    /// including [`WireError::TrailingBytes`]; the arena is then empty.
    pub fn decode(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        self.clear();
        let decoded = if self.masked {
            read_bundle::<true>(bytes, self)
        } else {
            read_bundle::<false>(bytes, self)
        };
        if decoded.is_err() {
            self.clear();
        }
        decoded.map(|_| ())
    }

    /// Drops the decoded bundle, keeping the storage.
    fn clear(&mut self) {
        self.heads.clear();
        self.ids.clear();
        self.masks.clear();
        self.values.clear();
    }

    /// Number of sections decoded.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// Whether the arena holds no section.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// The decoded sections, in wire order.
    pub fn sections(&self) -> impl Iterator<Item = FlatSection<'_>> {
        // Every head indexes what its own decode pushed, so the lookups
        // cannot miss; a head that did would be skipped, not panic.
        self.heads.iter().filter_map(|head| self.view(head))
    }

    fn view(&self, head: &SectionHead) -> Option<FlatSection<'_>> {
        let split = head.ids + head.exclude;
        let end = split + head.entries;
        let bg_end = head.values + head.bg_mask.count_ones() as usize;
        Some(FlatSection {
            level: head.level,
            round: head.round,
            kind: head.kind,
            bg_mask: head.bg_mask,
            backgrounds: self.values.get(head.values..bg_end)?,
            exclude: self.ids.get(head.ids..split)?,
            exclude_masks: self.masks.get(head.ids..split).unwrap_or_default(),
            entries: self.ids.get(split..end)?,
            entry_masks: self.masks.get(split..end).unwrap_or_default(),
            entry_values: self.values.get(bg_end..head.values_end)?,
        })
    }
}

/// Test oracles' view of the arena: the owned bundle it holds.
#[cfg(test)]
impl BundleArena {
    pub(crate) fn to_owned_scalar(&self) -> crate::DelphiBundle {
        let sections = self.sections().map(|flat| crate::Section {
            level: flat.level,
            round: flat.round,
            kind: flat.kind,
            background: flat.backgrounds.first().copied(),
            exclude: flat.exclude.to_vec(),
            entries: flat.entries.iter().copied().zip(flat.entry_values.iter().copied()).collect(),
        });
        crate::DelphiBundle { sections: sections.collect() }
    }

    pub(crate) fn to_owned_basket(&self) -> crate::BasketBundle {
        use delphi_primitives::wire::VectorValue;
        let vector = |mask: u64, values: &[Dyadic]| {
            let mut vv = VectorValue::new();
            for (dim, &value) in bits_of(mask).zip(values) {
                vv.set(dim, value);
            }
            vv
        };
        let sections = self.sections().map(|flat| crate::BasketSection {
            level: flat.level,
            round: flat.round,
            kind: flat.kind,
            backgrounds: vector(flat.bg_mask, flat.backgrounds),
            exclude: flat.basket_exclude().collect(),
            entries: flat
                .basket_entries()
                .map(|(k, mask, values)| (k, vector(mask, values)))
                .collect(),
        });
        crate::BasketBundle { sections: sections.collect() }
    }

    /// Capacities of the four runs: heads, ids, masks, values.
    pub(crate) fn capacities(&self) -> (usize, usize, usize, usize) {
        (self.heads.capacity(), self.ids.capacity(), self.masks.capacity(), self.values.capacity())
    }
}

/// The dimension mask of id `i` of a run: its own, or — in a layout
/// without per-id masks — dimension 0 alone.
fn mask_at(masks: &[u64], i: usize) -> u64 {
    masks.get(i).copied().unwrap_or(1)
}

/// One section of a [`BundleArena`]: header fields plus slices of the
/// shared runs. Read ids with their dimensions through the accessors: a
/// one-dimension layout carries no per-id masks, and every id and the
/// background live in dimension 0.
#[derive(Clone, Copy, Debug)]
pub struct FlatSection<'a> {
    /// Level index (`0..=l_max`).
    pub level: u8,
    /// BinAA round within the level.
    pub round: Round,
    /// Echo phase.
    pub kind: EchoKind,
    /// Bit `d` set iff dimension `d` has a background echo.
    pub bg_mask: u64,
    /// The background values, ascending by dimension.
    pub backgrounds: &'a [Dyadic],
    /// Checkpoints explicitly not covered by the backgrounds.
    pub exclude: &'a [i64],
    /// The dimensions each `exclude` id is excluded in (empty without
    /// per-id masks).
    exclude_masks: &'a [u64],
    /// Checkpoints with an echo of their own.
    pub entries: &'a [i64],
    /// The dimensions each entry carries a value for (empty without
    /// per-id masks).
    entry_masks: &'a [u64],
    /// Entry values in entry order, one per dimension an entry covers,
    /// ascending by dimension within an entry.
    pub entry_values: &'a [Dyadic],
}

impl<'a> FlatSection<'a> {
    /// The `(dimension, value)` background echoes, ascending by dimension.
    pub fn background_dims(&self) -> impl Iterator<Item = (u16, Dyadic)> + 'a {
        bits_of(self.bg_mask).zip(self.backgrounds.iter().copied())
    }

    /// Whether the section mentions checkpoint `k` in dimension `dim` (a
    /// mention in another dimension does not count).
    pub fn names_in(&self, k: i64, dim: u16) -> bool {
        let bit = 1u64.checked_shl(u32::from(dim)).unwrap_or(0);
        let names = |ids: &[i64], masks: &[u64]| match masks {
            // No per-id masks: every id is in dimension 0.
            [] => bit == 1 && ids.contains(&k),
            _ => ids.iter().zip(masks).any(|(&id, &mask)| id == k && mask & bit != 0),
        };
        names(self.exclude, self.exclude_masks) || names(self.entries, self.entry_masks)
    }

    /// The exclude run: checkpoint and the dimensions it is excluded in.
    pub fn basket_exclude(&self) -> impl Iterator<Item = (i64, u64)> + 'a {
        let masks = self.exclude_masks;
        self.exclude.iter().enumerate().map(move |(i, &k)| (k, mask_at(masks, i)))
    }

    /// The entries: checkpoint, dimension mask, and that entry's values
    /// (ascending by dimension).
    pub fn basket_entries(&self) -> impl Iterator<Item = (i64, u64, &'a [Dyadic])> + 'a {
        let (masks, mut rest) = (self.entry_masks, self.entry_values);
        self.entries.iter().enumerate().map(move |(i, &k)| {
            let mask = mask_at(masks, i);
            let (mine, tail) = rest.split_at((mask.count_ones() as usize).min(rest.len()));
            rest = tail;
            (k, mask, mine)
        })
    }
}

/// One outgoing section under construction, in every dimension the
/// machine has; the encoder leaves the per-id masks off at one dimension.
#[derive(Clone, Debug)]
struct OutSection {
    level: u8,
    round: Round,
    kind: EchoKind,
    bg_mask: u64,
    /// Background values, ascending by dimension.
    backgrounds: Vec<Dyadic>,
    /// `(checkpoint, dimension mask)` pairs the backgrounds do not cover,
    /// ascending by checkpoint.
    exclude: Vec<(i64, u64)>,
    /// `(checkpoint, dimension mask)` per entry.
    entries: Vec<(i64, u64)>,
    /// The entries' values, in entry order, ascending by dimension within
    /// an entry.
    values: Vec<Dyadic>,
}

impl OutSection {
    fn new(level: u8, round: Round, kind: EchoKind) -> OutSection {
        OutSection {
            level,
            round,
            kind,
            bg_mask: 0,
            backgrounds: Vec::new(),
            exclude: Vec::new(),
            entries: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Restarts a pooled section under a new key, keeping its buffers.
    fn reset(&mut self, level: u8, round: Round, kind: EchoKind) {
        (self.level, self.round, self.kind, self.bg_mask) = (level, round, kind, 0);
        self.backgrounds.clear();
        self.exclude.clear();
        self.entries.clear();
        self.values.clear();
    }

    fn is(&self, level: u8, round: Round, kind: EchoKind) -> bool {
        self.level == level && self.round == round && self.kind == kind
    }

    fn is_empty(&self) -> bool {
        self.bg_mask == 0 && self.entries.is_empty()
    }

    /// Gives entry `idx` the value `v` in dimension `dim`, which it lacks.
    fn set_dim(&mut self, idx: usize, dim: u16, v: Dyadic) {
        let before: usize =
            self.entries.iter().take(idx).map(|&(_, mask)| mask.count_ones() as usize).sum();
        if let Some((_, mask)) = self.entries.get_mut(idx) {
            let bit = 1u64 << dim;
            let slot = (*mask & (bit - 1)).count_ones() as usize;
            *mask |= bit;
            self.values.insert(before + slot, v);
        }
    }

    /// A trigger-driven echo: joins the first entry for `k` that lacks
    /// `dim`, else becomes a new entry at the end.
    fn add_entry(&mut self, dim: u16, k: i64, v: Dyadic) {
        let bit = 1u64 << dim;
        match self.entries.iter().position(|&(ek, mask)| ek == k && mask & bit == 0) {
            Some(idx) => self.set_dim(idx, dim, v),
            None => {
                self.entries.push((k, bit));
                self.values.push(v);
            }
        }
    }

    /// An initial-burst echo: entries stay ascending by checkpoint, one
    /// per checkpoint. Each `(dim, k)` arrives once.
    fn add_sorted_entry(&mut self, dim: u16, k: i64, v: Dyadic) {
        let idx = self.entries.partition_point(|&(ek, _)| ek < k);
        if self.entries.get(idx).is_none_or(|&(ek, _)| ek != k) {
            self.entries.insert(idx, (k, 0));
        }
        self.set_dim(idx, dim, v);
    }

    fn set_background(&mut self, dim: u16, v: Dyadic) {
        let bit = 1u64 << dim;
        let slot = (self.bg_mask & (bit - 1)).count_ones() as usize;
        self.bg_mask |= bit;
        self.backgrounds.insert(slot, v);
    }

    /// Shields checkpoint `k` from the background of `dim` — unless an
    /// entry of this section names it there, which shields it already.
    fn add_exclude(&mut self, dim: u16, k: i64) {
        let bit = 1u64 << dim;
        if self.entries.iter().any(|&(ek, mask)| ek == k && mask & bit != 0) {
            return;
        }
        // Snapshots arrive ascending, so the first dimension only appends.
        if self.exclude.last().is_none_or(|&(last, _)| last < k) {
            self.exclude.push((k, bit));
            return;
        }
        match self.exclude.binary_search_by_key(&k, |&(ek, _)| ek) {
            Ok(idx) => {
                if let Some((_, mask)) = self.exclude.get_mut(idx) {
                    *mask |= bit;
                }
            }
            Err(idx) => self.exclude.insert(idx, (k, bit)),
        }
    }

    /// Writes the section, with per-id masks iff `masks`. Without them
    /// every echo is a dimension-0 echo, so the background mask is 0 or 1
    /// — one byte, the scalar layout's flag — and each entry has one value.
    fn encode(&self, masks: bool, w: &mut Writer) {
        w.put_raw_u8(self.level);
        w.put(&self.round);
        w.put(&self.kind);
        w.put_u64(self.bg_mask);
        for v in &self.backgrounds {
            w.put(v);
        }
        if self.bg_mask != 0 {
            put_id_deltas(w, self.exclude.iter().map(|&(k, _)| k));
            if masks {
                for &(_, mask) in &self.exclude {
                    w.put_u64(mask);
                }
            }
        }
        put_id_deltas(w, self.entries.iter().map(|&(k, _)| k));
        let mut values = self.values.iter();
        for &(_, mask) in &self.entries {
            if masks {
                w.put_u64(mask);
            }
            for v in values.by_ref().take(mask.count_ones() as usize) {
                w.put(v);
            }
        }
    }
}

/// Outgoing-echo collector: groups one call's per-instance echoes into
/// one section per `(level, round, kind)`, in node-owned scratch.
///
/// Sections are pooled: [`Collector::flush`] rewinds `used` and the next
/// call reuses the same sections, buffers included, so collecting
/// allocates nothing once the pool has grown to a call's working set.
///
/// # The merge rule
///
/// A receiver applies a section as *distinguish every mentioned id → feed
/// the entries → feed each background to every active the section does
/// not mention → feed the background instance*. A trigger-driven
/// background echo therefore **joins** the entries the same call just
/// collected for its key instead of opening a section of its own: entries
/// only name actives, actives only grow, and the background's exclude
/// snapshot is taken after the entries were collected, so
/// `entries ∪ (snapshot − entries)` shields exactly what
/// `exclude = snapshot` would, and entries never touch the background
/// instance a fork copies. The rule is deliberately narrow: only the
/// *last* pushed section is joined, only when its key matches and it has
/// no background in that dimension yet, and entries are never appended to
/// a section that carries a background (a later fork's entry would
/// otherwise be shielded from a background whose snapshot predates it).
#[derive(Debug, Default)]
pub(crate) struct Collector {
    /// The section pool; the first `used` are this call's bundle.
    sections: Vec<OutSection>,
    used: usize,
    /// Scratch for the node: background echoes held back until every
    /// dimension's checkpoint echoes are collected.
    pub(crate) deferred: Vec<(EchoKind, u16, Dyadic)>,
    /// Encode buffer, reused; the payload is an exact-size copy.
    buf: Writer,
    /// Whether bundles carry per-id masks: two or more dimensions.
    masked: bool,
    /// Test reference: never join, one section per background echo — the
    /// collectors as they were before the merge rule.
    #[cfg(test)]
    pub(crate) unmerged: bool,
}

impl Collector {
    /// An empty collector for a `dims`-dimension machine (per-id masks iff
    /// `dims > 1`); nothing is allocated until the first echo.
    pub(crate) fn new(dims: usize) -> Collector {
        Collector { masked: dims > 1, ..Collector::default() }
    }

    /// Starts a new section at the end of the bundle; returns its index.
    fn open(&mut self, level: u8, round: Round, kind: EchoKind) -> usize {
        let idx = self.used;
        match self.sections.get_mut(idx) {
            Some(section) => section.reset(level, round, kind),
            None => self.sections.push(OutSection::new(level, round, kind)),
        }
        self.used += 1;
        idx
    }

    fn merges(&self) -> bool {
        #[cfg(test)]
        return !self.unmerged;
        #[cfg(not(test))]
        true
    }

    /// A trigger-driven echo for one distinguished checkpoint in one
    /// dimension: goes to the first background-free section of its key.
    pub(crate) fn entry(
        &mut self,
        level: u8,
        round: Round,
        kind: EchoKind,
        dim: u16,
        k: i64,
        v: Dyadic,
    ) {
        let mut open = self.sections.iter().take(self.used);
        let found = open.position(|s| s.is(level, round, kind) && s.bg_mask == 0);
        let idx = found.unwrap_or_else(|| self.open(level, round, kind));
        if let Some(section) = self.sections.get_mut(idx) {
            section.add_entry(dim, k, v);
        }
    }

    /// A trigger-driven background echo for one dimension; `snapshot` is
    /// that dimension's distinguished checkpoints at emit time, ascending.
    /// Joins the last section under the merge rule, else opens one.
    pub(crate) fn background(
        &mut self,
        level: u8,
        round: Round,
        kind: EchoKind,
        dim: u16,
        v: Dyadic,
        snapshot: impl Iterator<Item = i64>,
    ) {
        let last = self.used.checked_sub(1);
        let joins = self.merges()
            && last
                .and_then(|idx| self.sections.get(idx))
                .is_some_and(|s| s.is(level, round, kind) && s.bg_mask & (1u64 << dim) == 0);
        let idx = match last {
            Some(idx) if joins => idx,
            _ => self.open(level, round, kind),
        };
        if let Some(section) = self.sections.get_mut(idx) {
            section.set_background(dim, v);
            for k in snapshot {
                section.add_exclude(dim, k);
            }
        }
    }

    /// Opens the level-advance burst of `(level, round)`: one `ECHO1`
    /// section that [`Collector::initial_echoes`] fills per dimension.
    pub(crate) fn initial(&mut self, level: u8, round: Round) -> usize {
        self.open(level, round, EchoKind::Echo1)
    }

    /// One dimension of the burst opened by [`Collector::initial`]: the
    /// background echoes `bg` and every active echoes its round input.
    pub(crate) fn initial_echoes(
        &mut self,
        burst: usize,
        dim: u16,
        bg: Dyadic,
        actives: impl Iterator<Item = (i64, Dyadic)>,
    ) {
        if let Some(section) = self.sections.get_mut(burst) {
            section.set_background(dim, bg);
            for (k, v) in actives {
                section.add_sorted_entry(dim, k, v);
            }
        }
    }

    /// Encodes the collected bundle (nothing, if no section carries an
    /// echo) and rewinds the collector for the next call.
    pub(crate) fn flush(&mut self) -> Vec<Envelope> {
        let bundle = self.sections.get(..self.used).unwrap_or_default();
        self.used = 0;
        if bundle.iter().all(OutSection::is_empty) {
            return Vec::new();
        }
        self.buf.clear();
        self.buf.put_usize(bundle.len());
        for section in bundle {
            section.encode(self.masked, &mut self.buf);
        }
        vec![Envelope::to_all(Bytes::copy_from_slice(self.buf.as_slice()))]
    }
}
