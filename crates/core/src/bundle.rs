//! The flat bundle path: what runs between a frame's bytes and a node's
//! quorum state, in both directions.
//!
//! **Receive.** [`BundleArena`] decodes a bundle in *one* validating pass
//! into node-owned flat storage — section heads plus one shared id run,
//! one shared mask run and one shared value run, capacity kept across
//! messages — and hands out [`FlatSection`]s, plain slices of it. Every
//! byte is read once; a malformed bundle is rejected whole and leaves the
//! arena empty. A byte-equal repeat is not decoded again, and `decode`
//! says so: the node then replays what it resolved the bundle to.
//!
//! **Send.** [`Collector`] groups a call's echoes into one section per
//! `(level, round, kind)` in node-owned scratch and encodes them straight
//! to the wire, so an answering call allocates only what leaves the node.
//!
//! **One layout.** A bundle is a section count (varint, at most
//! [`MAX_SECTIONS`]) and its sections. Every section opens with one flags
//! byte standing for the fields almost every section repeats or leaves
//! empty; a field is written out only when its flag says so:
//!
//! | bit | set | clear |
//! |-----|-----|-------|
//! | 0 | `ECHO2` | `ECHO1` |
//! | 1 | level = the previous section's level + 1 | a level byte follows |
//! | 2 | round = the previous section's round | a round varint follows |
//! | 3 | background present | no background |
//! | 4 | every background value is zero: none is written | one value per background dimension |
//! | 5 | every entry value is equal: one value follows the entry id run | one value per entry dimension |
//! | 6 | a nonempty exclude id run follows the backgrounds | no exclude run |
//! | 7 | the entry ids are a run `k, k+1, …`: the count and `k` alone | entry ids as deltas |
//!
//! Bits 1 and 2 are clear on a bundle's first section, and bit 1 after level
//! 255; bits 4 and 6 need bit 3, bit 5 at least one entry value and bit 6 an
//! exclude id. A bit set otherwise is rejected. The fields follow in order:
//! level and round unless flagged; with a background, its dimension mask
//! (nonzero) and values; with bit 6, the exclude id run; the entry id run;
//! the shared value; per entry, its dimension mask and values. An id run is
//! a count (at most [`MAX_IDS`]) and wrapping zig-zag deltas; under bit 7 the
//! first delta alone, for 2 to [`MAX_RUN`] ids — with masks, to as many as
//! bytes follow from the count on. Dimension masks — of the background, after
//! each exclude id run and beside every entry — are written only by a machine
//! of two or more basket dimensions: at one, every echo is in dimension 0. A
//! value is one varint, `num · 64 + log_den`; a bundle holding a numerator of
//! 2^58 or more is refused, never written as another value. Decoding expands
//! shared and zero values, so a [`FlatSection`] reads the same whichever flags
//! carried it.

use bytes::Bytes;
use delphi_primitives::wire::{Reader, WireError, Writer};
use delphi_primitives::{Dyadic, Envelope, Round};

use crate::messages::EchoKind;

/// Maximum sections per bundle accepted from the wire.
pub(crate) const MAX_SECTIONS: usize = 4096;
/// Maximum explicit checkpoint ids per section accepted from the wire.
pub(crate) const MAX_IDS: usize = 16_384;

// The section flag bits (see the table above).
const ECHO2: u8 = 1;
const NEXT_LEVEL: u8 = 1 << 1;
const SAME_ROUND: u8 = 1 << 2;
const BACKGROUND: u8 = 1 << 3;
const ZERO_BACKGROUNDS: u8 = 1 << 4;
const SHARED_VALUE: u8 = 1 << 5;
const EXCLUDE: u8 = 1 << 6;
const RUN: u8 = 1 << 7;

/// Most ids a run stands for without masks: as many as its flags, count,
/// first id and value take bytes, so no bundle names more ids than bytes.
pub(crate) const MAX_RUN: usize = 4;

/// Writes `v` as one varint, `num · 64 + log_den` (`log_den ≤ 62`), or
/// nothing if its numerator does not fit.
fn put_value(w: &mut Writer, v: &Dyadic) -> Option<()> {
    (v.num() >> 58 == 0).then(|| w.put_u64(v.num() << 6 | u64::from(v.log_den())))
}

/// Reads one value (see [`put_value`]).
#[inline]
fn read_value(r: &mut Reader<'_>) -> Result<Dyadic, WireError> {
    let v = r.get_u64()?;
    Dyadic::try_new(v >> 6, (v & 63) as u8).map_err(|_| WireError::InvalidValue)
}

/// The `(level, round)` of the section before, which bits 1 and 2 refer
/// to; `None` before a bundle's first section.
type Prev = Option<(u8, Round)>;

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
    /// The value run, `values..end`: background values, then entry values.
    values: usize,
    end: usize,
}

/// What a decode pass does with what it reads: [`BundleArena`] stores it,
/// [`Validate`] keeps nothing (the defaults).
trait Sink {
    /// Current lengths of the id and value runs.
    fn mark(&self) -> (usize, usize) {
        (0, 0)
    }
    fn id(&mut self, _: i64) {}
    fn mask(&mut self, _: u64) {}
    fn value(&mut self, _: Dyadic) {}
    fn section(&mut self, _: SectionHead) {}
}

/// The sink of the validating shims: keeps nothing.
struct Validate;

impl Sink for Validate {}

/// Writes a checkpoint-id run: its count, then each id (a `run`'s first
/// alone) as the wrapping delta from the one before. Ids of a section
/// cluster around the honest inputs, so a delta zig-zags into one byte where
/// an id costs three; wrapping keeps the mapping bijective for any `i64`.
fn put_id_run(w: &mut Writer, ids: impl ExactSizeIterator<Item = i64>, run: bool) {
    w.put_usize(ids.len());
    let mut prev = 0i64;
    for id in ids.take(if run { 1 } else { usize::MAX }) {
        w.put_i64(id.wrapping_sub(prev));
        prev = id;
    }
}

/// Reads one id run — a run `k, k+1, …` of 2 to `most` ids if `most > 0`
/// — and returns its length.
#[inline]
fn read_id_run(r: &mut Reader<'_>, sink: &mut impl Sink, most: usize) -> Result<usize, WireError> {
    let n = r.get_usize()?;
    if n > MAX_IDS || most > 0 && !(2..=most).contains(&n) {
        return Err(WireError::LengthOutOfBounds);
    }
    // The count is validated but still untrusted: the sink grows only as
    // ids actually decode, never by `n` up front.
    let mut prev = 0i64;
    for i in 0..n {
        prev = prev.wrapping_add(if most > 0 && i > 0 { 1 } else { r.get_i64()? });
        sink.id(prev);
    }
    Ok(n)
}

/// The one section reader (arena and validating shim; the owned test
/// decoder reads independently): the section after `prev`, per-id masks
/// iff `MASKS`; returns its `(level, round)`.
#[inline]
fn read_section<const MASKS: bool>(
    r: &mut Reader<'_>,
    sink: &mut impl Sink,
    prev: Prev,
) -> Result<(u8, Round), WireError> {
    let flags = r.get_raw_u8()?;
    let invalid = WireError::InvalidDiscriminant(u64::from(flags));
    if flags & BACKGROUND == 0 && flags & (ZERO_BACKGROUNDS | EXCLUDE) != 0 {
        return Err(invalid);
    }
    let kind = if flags & ECHO2 != 0 { EchoKind::Echo2 } else { EchoKind::Echo1 };
    let level = match flags & NEXT_LEVEL {
        0 => r.get_raw_u8()?,
        _ => prev.and_then(|(level, _)| level.checked_add(1)).ok_or(invalid)?,
    };
    let round = match flags & SAME_ROUND {
        0 => r.get::<Round>()?,
        _ => prev.map(|(_, round)| round).ok_or(invalid)?,
    };
    let (ids, values) = sink.mark();
    let bg_mask = match flags & BACKGROUND {
        0 => 0,
        // One dimension: the flag is the background, in dimension 0.
        _ if !MASKS => 1,
        _ => match r.get_u64()? {
            0 => return Err(WireError::InvalidValue),
            mask => mask,
        },
    };
    for _ in 0..bg_mask.count_ones() {
        let bg = if flags & ZERO_BACKGROUNDS != 0 { Dyadic::ZERO } else { read_value(r)? };
        sink.value(bg);
    }
    let exclude = if flags & EXCLUDE == 0 { 0 } else { read_id_run(r, sink, 0)? };
    if MASKS {
        for _ in 0..exclude {
            sink.mask(r.get_u64()?);
        }
    }
    let most = usize::from(flags & RUN != 0) * if MASKS { r.remaining() } else { MAX_RUN };
    let entries = read_id_run(r, sink, most)?;
    let shared = if flags & SHARED_VALUE != 0 { Some(read_value(r)?) } else { None };
    let mut named = 0u64; // the dimensions some entry has a value in
    for _ in 0..entries {
        let mask = if MASKS { r.get_u64()? } else { 1 };
        if MASKS {
            sink.mask(mask);
        }
        named |= mask;
        for _ in 0..mask.count_ones() {
            sink.value(match shared {
                Some(value) => value,
                None => read_value(r)?,
            });
        }
    }
    if shared.is_some() && named == 0 || flags & EXCLUDE != 0 && exclude == 0 {
        return Err(invalid);
    }
    let (_, end) = sink.mark();
    sink.section(SectionHead { level, round, kind, bg_mask, ids, exclude, entries, values, end });
    Ok((level, round))
}

/// Reads a whole bundle into `sink`; returns its section count.
fn read_bundle<const MASKS: bool>(bytes: &[u8], sink: &mut impl Sink) -> Result<usize, WireError> {
    let mut r = Reader::new(bytes);
    let count = r.get_usize()?;
    if count > MAX_SECTIONS {
        return Err(WireError::LengthOutOfBounds);
    }
    let mut prev = None;
    for _ in 0..count {
        prev = Some(read_section::<MASKS>(&mut r, sink, prev)?);
    }
    r.finish()?;
    Ok(count)
}

/// The validating shim: checks that `bytes` is a complete bundle — with
/// per-id dimension masks iff `MASKS` — in the arena's one pass with
/// nowhere to store, and reports its section count. Name it by layout:
/// [`DelphiBundleRef`] or [`BasketBundleRef`].
#[derive(Clone, Copy, Debug)]
pub struct BundleRef<const MASKS: bool> {
    count: usize,
}

/// The shim over the one-dimension layout: no per-id masks.
pub type DelphiBundleRef = BundleRef<false>;

/// The shim over the layout of two or more dimensions: per-id masks.
pub type BasketBundleRef = BundleRef<true>;

impl<const MASKS: bool> BundleRef<MASKS> {
    /// Validates `bytes` as a complete bundle encoding.
    ///
    /// # Errors
    ///
    /// Exactly what [`BundleArena::decode`] returns on the same input.
    pub fn parse(bytes: &[u8]) -> Result<BundleRef<MASKS>, WireError> {
        read_bundle::<MASKS>(bytes, &mut Validate).map(|count| BundleRef { count })
    }

    /// Number of sections in the bundle.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether it holds no sections (echo-free ones count).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// Writes `sections` as one bundle, with per-id masks iff `masks`: the one
/// bundle writer, behind the collector and the owned encoder alike.
/// Returns `false`, having stopped, at a value the layout cannot carry.
pub(crate) fn write_bundle<S: ToOutSection>(w: &mut Writer, sections: &[S], masks: bool) -> bool {
    w.put_usize(sections.len());
    let (mut prev, mut scratch) = (None, OutSection::default());
    for section in sections {
        let out = section.to_out(&mut scratch);
        if out.encode(masks, prev, w).is_none() {
            return false;
        }
        prev = Some((out.level, out.round));
    }
    true
}

/// A section the writer can read as an [`OutSection`]: the collector's own,
/// or an owned section copied into reused scratch.
pub(crate) trait ToOutSection {
    fn to_out<'a>(&'a self, scratch: &'a mut OutSection) -> &'a OutSection;
}

/// A decoded bundle in flat, reusable storage — the one decoder on the
/// frame→protocol hot path, for every basket size.
///
/// [`decode`](BundleArena::decode) makes a single validating pass over
/// the input: each flags byte, varint, length bound and [`Dyadic`] is
/// checked once, and lands in one of four vectors shared by all sections
/// (shared and zero values expanded). The vectors keep their capacity
/// across calls, so a node decoding its steady-state traffic allocates
/// nothing; they grow only as items actually decode, so their size is
/// bounded by the bytes received — at most one value per input byte and
/// dimension — and the [`MAX_SECTIONS`] / [`MAX_IDS`] caps, never by a
/// length prefix. The default arena is a one-dimension arena.
///
/// Honest bundles repeat byte for byte — the background instance and the
/// merged bundle make them independent of their sender — so the arena
/// keeps the bytes of its last successful decode, and input equal to them
/// in every byte is already decoded. A failed decode clears them.
#[derive(Clone, Debug, Default)]
pub struct BundleArena {
    heads: Vec<SectionHead>,
    ids: Vec<i64>,
    /// Dimension masks parallel to `ids` (empty without per-id masks).
    masks: Vec<u64>,
    values: Vec<Dyadic>,
    /// The input the runs above hold; empty unless they hold a bundle.
    bytes: Vec<u8>,
    /// Whether the bundles carry per-id masks: two or more dimensions.
    masked: bool,
}

impl Sink for BundleArena {
    fn mark(&self) -> (usize, usize) {
        (self.ids.len(), self.values.len())
    }
    fn id(&mut self, id: i64) {
        self.ids.push(id);
    }
    fn mask(&mut self, mask: u64) {
        self.masks.push(mask);
    }
    fn value(&mut self, value: Dyadic) {
        self.values.push(value);
    }
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
    /// checkpoints in `2 · ids` bytes: bundles up to that size never allocate.
    pub(crate) fn with_capacity(sections: usize, ids: usize, dims: usize) -> BundleArena {
        let masked = dims > 1;
        BundleArena {
            heads: Vec::with_capacity(sections),
            ids: Vec::with_capacity(ids),
            masks: Vec::with_capacity(if masked { ids } else { 0 }),
            values: Vec::with_capacity(ids),
            bytes: Vec::with_capacity(2 * ids),
            masked,
        }
    }

    /// Replaces the contents with the bundle encoded in `bytes`; returns
    /// whether they repeat, byte for byte, the bundle it held.
    ///
    /// # Errors
    ///
    /// The first malformed field of the input — a reserved or dangling
    /// flag bit, or a bad varint, length or [`Dyadic`] — or
    /// [`WireError::TrailingBytes`]; the arena is then empty.
    pub fn decode(&mut self, bytes: &[u8]) -> Result<bool, WireError> {
        // No bundle is empty, so an arena holding none matches no input.
        if !self.bytes.is_empty() && self.bytes == bytes {
            return Ok(true);
        }
        self.clear();
        let decoded = if self.masked {
            read_bundle::<true>(bytes, self)
        } else {
            read_bundle::<false>(bytes, self)
        };
        match decoded {
            Ok(_) => self.bytes.extend_from_slice(bytes),
            Err(_) => self.clear(),
        }
        decoded.map(|_| false)
    }

    /// Drops the decoded bundle, keeping the storage.
    fn clear(&mut self) {
        self.heads.clear();
        self.ids.clear();
        self.masks.clear();
        self.values.clear();
        self.bytes.clear();
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
            entry_values: self.values.get(bg_end..head.end)?,
        })
    }
}

/// Test oracles' view of the arena: the owned bundle it holds.
#[cfg(test)]
impl BundleArena {
    /// Number of sections decoded.
    pub(crate) fn len(&self) -> usize {
        self.heads.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    pub(crate) fn to_owned(&self) -> crate::BasketBundle {
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
    /// The dimensions each `exclude` id is excluded in (empty without masks).
    exclude_masks: &'a [u64],
    /// Checkpoints with an echo of their own.
    pub entries: &'a [i64],
    /// The dimensions each entry has a value in (empty without masks).
    entry_masks: &'a [u64],
    /// Entry values in entry order, ascending by dimension within an entry.
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
#[derive(Clone, Debug, Default)]
pub(crate) struct OutSection {
    level: u8,
    round: Round,
    kind: EchoKind,
    bg_mask: u64,
    /// Background values, ascending by dimension.
    backgrounds: Vec<Dyadic>,
    /// `(checkpoint, dimension mask)` the backgrounds skip, ascending.
    exclude: Vec<(i64, u64)>,
    /// `(checkpoint, dimension mask)` per entry.
    entries: Vec<(i64, u64)>,
    /// The entries' values, in entry order, ascending by dimension.
    values: Vec<Dyadic>,
}

impl OutSection {
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

    /// The one section writer: the section after `prev`, with per-id masks
    /// iff `masks` (without them every echo is in dimension 0). Stops at a
    /// value that does not fit.
    fn encode(&self, masks: bool, prev: Prev, w: &mut Writer) -> Option<()> {
        let next_level = prev.and_then(|(level, _)| level.checked_add(1)) == Some(self.level);
        let same_round = prev.is_some_and(|(_, round)| round == self.round);
        let zero_bg = self.bg_mask != 0 && self.backgrounds.iter().all(|v| v.is_zero());
        let exclude = self.bg_mask != 0 && !self.exclude.is_empty();
        let shared = match self.values.split_first() {
            Some((&first, rest)) if rest.iter().all(|&v| v == first) => Some(first),
            _ => None,
        };
        let ids = self.entries.iter().map(|&(k, _)| k);
        let run = (2..=if masks { MAX_IDS } else { MAX_RUN }).contains(&ids.len())
            && ids.clone().zip(ids.clone().skip(1)).all(|(a, b)| b == a.wrapping_add(1));
        let flags = (self.kind as u8 * ECHO2)
            | (u8::from(next_level) * NEXT_LEVEL)
            | (u8::from(same_round) * SAME_ROUND)
            | (u8::from(self.bg_mask != 0) * BACKGROUND)
            | (u8::from(zero_bg) * ZERO_BACKGROUNDS)
            | (u8::from(shared.is_some()) * SHARED_VALUE)
            | (u8::from(exclude) * EXCLUDE)
            | (u8::from(run) * RUN);
        w.put_raw_u8(flags);
        if !next_level {
            w.put_raw_u8(self.level);
        }
        if !same_round {
            w.put(&self.round);
        }
        if self.bg_mask != 0 {
            if masks {
                w.put_u64(self.bg_mask);
            }
            if !zero_bg {
                self.backgrounds.iter().try_for_each(|v| put_value(w, v))?;
            }
        }
        if exclude {
            put_id_run(w, self.exclude.iter().map(|&(k, _)| k), false);
            if masks {
                self.exclude.iter().for_each(|&(_, mask)| w.put_u64(mask));
            }
        }
        put_id_run(w, ids, run);
        // A shared value is written once, here, and no entry writes its own.
        let mut values = self.values.iter();
        if let Some(v) = shared {
            put_value(w, &v)?;
            values = [].iter();
        }
        for &(_, mask) in &self.entries {
            if masks {
                w.put_u64(mask);
            }
            values.by_ref().take(mask.count_ones() as usize).try_for_each(|v| put_value(w, v))?;
        }
        Some(())
    }
}

impl ToOutSection for OutSection {
    fn to_out<'a>(&'a self, _: &'a mut OutSection) -> &'a OutSection {
        self
    }
}

impl ToOutSection for crate::BasketSection {
    fn to_out<'a>(&'a self, out: &'a mut OutSection) -> &'a OutSection {
        out.reset(self.level, self.round, self.kind);
        self.backgrounds.dims().for_each(|(dim, v)| out.set_background(dim, v));
        out.exclude.extend_from_slice(&self.exclude);
        for (k, vv) in &self.entries {
            out.entries.push((*k, vv.mask()));
            out.values.extend(vv.dims().map(|(_, v)| v));
        }
        out
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
            None => self.sections.push(OutSection { level, round, kind, ..OutSection::default() }),
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
        if !write_bundle(&mut self.buf, bundle, self.masked) {
            return Vec::new(); // round values always fit: never reached
        }
        vec![Envelope::to_all(Bytes::copy_from_slice(self.buf.as_slice()))]
    }
}
