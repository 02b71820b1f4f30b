//! The flat bundle path: what runs between a frame's bytes and a node's
//! quorum state, in both directions, for the scalar and the basket codec.
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
//! The two machines share both: heads and id runs are identical, and a
//! scalar value is the one-dimensional case (mask `1`) of a basket value.

use bytes::Bytes;
use delphi_primitives::wire::{Reader, WireError, Writer};
use delphi_primitives::{Dyadic, Envelope, Round};

use crate::messages::{put_id_deltas, EchoKind, MAX_IDS, MAX_SECTIONS};

/// Which of the two section layouts a bundle uses on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Codec {
    /// [`Section`](crate::Section)s: one optional background, bare ids.
    Scalar,
    /// [`BasketSection`](crate::BasketSection)s: per-dimension
    /// backgrounds, a dimension mask beside every id.
    Basket,
}

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
    /// Bit `d` set iff dimension `d` has a background echo (scalar: bit 0).
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

/// Reads one section in wire order, checking everything the owned decoder
/// of its codec checks, in the same order (so the first error is the
/// same).
#[inline]
fn read_section(r: &mut Reader<'_>, codec: Codec, sink: &mut impl Sink) -> Result<(), WireError> {
    let level = r.get_raw_u8()?;
    let round = r.get::<Round>()?;
    let kind = r.get::<EchoKind>()?;
    let (ids, values) = sink.mark();
    let (bg_mask, exclude, entries);
    match codec {
        Codec::Scalar => {
            if r.get_bool()? {
                bg_mask = 1;
                sink.value(r.get::<Dyadic>()?);
                exclude = read_id_run(r, sink)?;
            } else {
                (bg_mask, exclude) = (0, 0);
            }
            entries = read_id_run(r, sink)?;
            for _ in 0..entries {
                sink.value(r.get::<Dyadic>()?);
            }
        }
        Codec::Basket => {
            bg_mask = r.get_u64()?;
            for _ in 0..bg_mask.count_ones() {
                sink.value(r.get::<Dyadic>()?);
            }
            if bg_mask != 0 {
                exclude = read_id_run(r, sink)?;
                for _ in 0..exclude {
                    sink.mask(r.get_u64()?);
                }
            } else {
                exclude = 0;
            }
            entries = read_id_run(r, sink)?;
            for _ in 0..entries {
                let mask = r.get_u64()?;
                sink.mask(mask);
                for _ in 0..mask.count_ones() {
                    sink.value(r.get::<Dyadic>()?);
                }
            }
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
fn read_bundle(bytes: &[u8], codec: Codec, sink: &mut impl Sink) -> Result<usize, WireError> {
    let mut r = Reader::new(bytes);
    let count = r.get_usize()?;
    if count > MAX_SECTIONS {
        return Err(WireError::LengthOutOfBounds);
    }
    for _ in 0..count {
        read_section(&mut r, codec, sink)?;
    }
    r.finish()?;
    Ok(count)
}

/// Validates `bytes` as a complete bundle without keeping anything;
/// returns the section count.
pub(crate) fn validate_bundle(bytes: &[u8], codec: Codec) -> Result<usize, WireError> {
    read_bundle(bytes, codec, &mut Validate)
}

/// A decoded bundle in flat, reusable storage — the one decoder on the
/// frame→protocol hot path, for both codecs.
///
/// [`decode`](BundleArena::decode) makes a single validating pass over
/// the input: each varint, discriminant, length bound and
/// [`Dyadic`] is checked once, with the same error as
/// `DelphiBundle::from_bytes` / `BasketBundle::from_bytes`
/// (property-tested), and lands in one of four vectors shared by all
/// sections. The vectors keep their capacity across calls, so a node
/// decoding its steady-state traffic allocates nothing; they grow only as
/// items actually decode, so their size is bounded by the bytes received
/// and the [`MAX_SECTIONS`] / [`MAX_IDS`] caps, never by a length prefix.
#[derive(Clone, Debug, Default)]
pub struct BundleArena {
    heads: Vec<SectionHead>,
    ids: Vec<i64>,
    /// Dimension masks parallel to `ids` (basket codec only).
    masks: Vec<u64>,
    values: Vec<Dyadic>,
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
    /// An empty arena; nothing is allocated until the first decode.
    pub fn new() -> BundleArena {
        BundleArena::default()
    }

    /// An empty arena with room for `sections` sections naming `ids`
    /// checkpoints between them, so that bundles up to that size decode
    /// without touching the allocator (larger ones grow it on demand).
    pub(crate) fn with_capacity(sections: usize, ids: usize, codec: Codec) -> BundleArena {
        BundleArena {
            heads: Vec::with_capacity(sections),
            ids: Vec::with_capacity(ids),
            masks: Vec::with_capacity(if codec == Codec::Basket { ids } else { 0 }),
            values: Vec::with_capacity(ids),
        }
    }

    /// Replaces the contents with the bundle encoded in `bytes` under
    /// `codec`.
    ///
    /// # Errors
    ///
    /// Exactly what `DelphiBundle::from_bytes` ([`Codec::Scalar`]) or
    /// `BasketBundle::from_bytes` ([`Codec::Basket`]) returns on the same
    /// input, including [`WireError::TrailingBytes`]; the arena is then
    /// empty.
    pub fn decode(&mut self, bytes: &[u8], codec: Codec) -> Result<(), WireError> {
        self.clear();
        let decoded = read_bundle(bytes, codec, self);
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
            background: flat.background(),
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
            exclude: flat.exclude.iter().copied().zip(flat.exclude_masks.iter().copied()).collect(),
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

/// One section of a [`BundleArena`]: header fields plus slices of the
/// shared runs. The mask slices are empty under the scalar codec, where
/// every id and the background live in dimension 0.
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
    /// The dimensions each `exclude` id is excluded in (basket codec).
    pub exclude_masks: &'a [u64],
    /// Checkpoints with an echo of their own.
    pub entries: &'a [i64],
    /// The dimensions each entry carries a value for (basket codec).
    pub entry_masks: &'a [u64],
    /// Entry values in entry order: one per entry (scalar codec), or one
    /// per set mask bit, ascending by dimension (basket codec).
    pub entry_values: &'a [Dyadic],
}

impl<'a> FlatSection<'a> {
    /// The scalar codec's background echo, if any.
    pub fn background(&self) -> Option<Dyadic> {
        self.backgrounds.first().copied()
    }

    /// The `(dimension, value)` background echoes, ascending by dimension.
    pub fn background_dims(&self) -> impl Iterator<Item = (u16, Dyadic)> + 'a {
        bits_of(self.bg_mask).zip(self.backgrounds.iter().copied())
    }

    /// Whether a scalar section mentions checkpoint `k` at all.
    pub fn names(&self, k: i64) -> bool {
        self.exclude.contains(&k) || self.entries.contains(&k)
    }

    /// Whether a basket section mentions checkpoint `k` in dimension
    /// `dim` (a mention in another dimension does not count).
    pub fn names_in(&self, k: i64, dim: u16) -> bool {
        let bit = 1u64.checked_shl(u32::from(dim)).unwrap_or(0);
        let hit = |(&id, &mask): (&i64, &u64)| id == k && mask & bit != 0;
        self.exclude.iter().zip(self.exclude_masks).any(hit)
            || self.entries.iter().zip(self.entry_masks).any(hit)
    }

    /// A basket section's entries: checkpoint, dimension mask, and that
    /// entry's values (ascending by dimension).
    pub fn basket_entries(&self) -> impl Iterator<Item = (i64, u64, &'a [Dyadic])> + 'a {
        let mut rest = self.entry_values;
        self.entries.iter().zip(self.entry_masks).map(move |(&k, &mask)| {
            let (mine, tail) = rest.split_at((mask.count_ones() as usize).min(rest.len()));
            rest = tail;
            (k, mask, mine)
        })
    }
}

/// One outgoing section under construction. Both machines build these: a
/// scalar echo is a dimension-0 echo, and the encoder picks the layout.
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

    fn encode(&self, codec: Codec, w: &mut Writer) {
        w.put_raw_u8(self.level);
        w.put(&self.round);
        w.put(&self.kind);
        let scalar = codec == Codec::Scalar;
        if scalar {
            w.put_bool(self.bg_mask != 0);
        } else {
            w.put_u64(self.bg_mask);
        }
        for v in &self.backgrounds {
            w.put(v);
        }
        if self.bg_mask != 0 {
            put_id_deltas(w, self.exclude.iter().map(|&(k, _)| k));
            if !scalar {
                for &(_, mask) in &self.exclude {
                    w.put_u64(mask);
                }
            }
        }
        put_id_deltas(w, self.entries.iter().map(|&(k, _)| k));
        let mut values = self.values.iter();
        for &(_, mask) in &self.entries {
            if !scalar {
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
    /// Scratch for the vector node: background echoes held back until
    /// every dimension's checkpoint echoes are collected.
    pub(crate) deferred: Vec<(EchoKind, u16, Dyadic)>,
    /// Encode buffer, reused; the payload is an exact-size copy.
    buf: Writer,
    /// Test reference: never join, one section per background echo — the
    /// collectors as they were before the merge rule.
    #[cfg(test)]
    pub(crate) unmerged: bool,
}

impl Collector {
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
    pub(crate) fn flush(&mut self, codec: Codec) -> Vec<Envelope> {
        let bundle = self.sections.get(..self.used).unwrap_or_default();
        self.used = 0;
        if bundle.iter().all(OutSection::is_empty) {
            return Vec::new();
        }
        self.buf.clear();
        self.buf.put_usize(bundle.len());
        for section in bundle {
            section.encode(codec, &mut self.buf);
        }
        vec![Envelope::to_all(Bytes::copy_from_slice(self.buf.as_slice()))]
    }
}
