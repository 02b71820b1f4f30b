//! Wire formats for BinAA and Delphi traffic.
//!
//! Delphi's `O(n²)` communication relies on *bundling*: every checkpoint of
//! every level runs its own BinAA instance, but one network message carries
//! the echoes of arbitrarily many instances (§III-C). A [`Section`] is the
//! unit of bundling — all echoes of one `(level, round, kind)` — and uses
//! the zero-run optimization: a single optional *background* value stands
//! for "every checkpoint of this level that nobody has distinguished",
//! while `entries` carry the handful of checkpoints near honest inputs.

use delphi_primitives::wire::{Decode, Encode, Reader, VectorValue, WireError, Writer};
use delphi_primitives::{Dyadic, Round};

use crate::bundle::validate_bundle;

/// Maximum sections per bundle accepted from the wire.
pub(crate) const MAX_SECTIONS: usize = 4096;
/// Maximum explicit checkpoint ids per section accepted from the wire.
pub(crate) const MAX_IDS: usize = 16_384;

/// Which quorum message an echo is (Algorithm 1 / Definition II.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EchoKind {
    /// First-phase echo (`ECHO1`).
    Echo1,
    /// Second-phase echo (`ECHO2`).
    Echo2,
}

impl Encode for EchoKind {
    fn encode(&self, w: &mut Writer) {
        w.put_raw_u8(match self {
            EchoKind::Echo1 => 0,
            EchoKind::Echo2 => 1,
        });
    }
}

impl Decode for EchoKind {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_raw_u8()? {
            0 => Ok(EchoKind::Echo1),
            1 => Ok(EchoKind::Echo2),
            d => Err(WireError::InvalidDiscriminant(u64::from(d))),
        }
    }
}

/// A standalone BinAA message: one echo for one round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BinAaMsg {
    /// BinAA round the echo belongs to.
    pub round: Round,
    /// Echo phase.
    pub kind: EchoKind,
    /// The echoed value.
    pub value: Dyadic,
}

impl Encode for BinAaMsg {
    fn encode(&self, w: &mut Writer) {
        w.put(&self.round);
        w.put(&self.kind);
        w.put(&self.value);
    }
}

impl Decode for BinAaMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(BinAaMsg { round: r.get()?, kind: r.get()?, value: r.get()? })
    }
}

/// All echoes of one `(level, round, kind)` in one Delphi bundle.
///
/// Scope rules (the §III-C zero-run optimization):
///
/// - each `(k, value)` in `entries` is an echo for checkpoint `k`;
/// - if `background` is `Some(v)`, the sender additionally echoes `v` for
///   *every* checkpoint of the level **except** those listed in `entries`
///   or `exclude` (the sender's currently distinguished checkpoints);
/// - any checkpoint id mentioned anywhere makes the checkpoint
///   "distinguished" at the receiver (it is forked off the background
///   instance before the message is applied); when a sender's
///   introduction budget runs out mid-section, `entries` are forked
///   before `exclude`.
///
/// A section may carry a background *and* entries: a round's initial
/// burst does (every instance echoes its input at once), and so does a
/// triggered echo — the entries a call collects for one
/// `(level, round, kind)` and the background echo it then triggers for
/// the same key leave as one section, with `exclude` shrunk to the
/// distinguished checkpoints the entries do not name. Nodes read
/// sections out of a [`BundleArena`](crate::BundleArena) and build them
/// in pooled scratch; this owned type is the wire format's reference
/// model: its encoder builds bundles for benches and Byzantine test nodes,
/// and its decoder, compiled for tests only, is the arena's property-test
/// oracle.
///
/// This is the layout of a one-dimension machine — every `DelphiNode`,
/// and a `VectorDelphiNode` over a basket of one.
#[derive(Clone, Debug, PartialEq)]
pub struct Section {
    /// Level index (`0..=l_max`).
    pub level: u8,
    /// BinAA round within the level.
    pub round: Round,
    /// Echo phase.
    pub kind: EchoKind,
    /// Echo applying to every unlisted checkpoint of the level, if any.
    pub background: Option<Dyadic>,
    /// Checkpoints explicitly **not** covered by `background`.
    pub exclude: Vec<i64>,
    /// Per-checkpoint echoes.
    pub entries: Vec<(i64, Dyadic)>,
}

impl Section {
    /// Creates an empty section for `(level, round, kind)`.
    pub fn new(level: u8, round: Round, kind: EchoKind) -> Section {
        Section { level, round, kind, background: None, exclude: Vec::new(), entries: Vec::new() }
    }

    /// Whether the section carries no echo at all.
    pub fn is_empty(&self) -> bool {
        self.background.is_none() && self.entries.is_empty()
    }
}

/// Writes a checkpoint-id sequence as wrapping deltas from the previous
/// id.
///
/// Checkpoint ids inside one section cluster around the honest inputs
/// (consecutive ids a few units apart), so the deltas zig-zag into one
/// byte each where absolute ids cost three — the dominant varint work in
/// a bundle, on both sides of the wire. Wrapping arithmetic keeps the
/// mapping bijective for arbitrary `i64` ids.
pub(crate) fn put_id_deltas(w: &mut Writer, ids: impl ExactSizeIterator<Item = i64>) {
    w.put_usize(ids.len());
    let mut prev = 0i64;
    for id in ids {
        w.put_i64(id.wrapping_sub(prev));
        prev = id;
    }
}

impl Encode for Section {
    fn encode(&self, w: &mut Writer) {
        w.put_raw_u8(self.level);
        w.put(&self.round);
        w.put(&self.kind);
        match self.background {
            Some(v) => {
                w.put_bool(true);
                w.put(&v);
                put_id_deltas(w, self.exclude.iter().copied());
            }
            None => w.put_bool(false),
        }
        put_id_deltas(w, self.entries.iter().map(|&(id, _)| id));
        for (_, v) in &self.entries {
            w.put(v);
        }
    }
}

#[cfg(test)]
impl Decode for Section {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let level = r.get_raw_u8()?;
        let round = r.get::<Round>()?;
        let kind = r.get::<EchoKind>()?;
        let (background, exclude) = if r.get_bool()? {
            let v = r.get::<Dyadic>()?;
            let n = r.get_usize()?;
            if n > MAX_IDS {
                return Err(WireError::LengthOutOfBounds);
            }
            // The count is validated but still untrusted: cap the upfront
            // allocation (as `get_seq` does) and grow past it only as
            // items actually decode.
            let mut exclude = Vec::with_capacity(n.min(1024));
            let mut prev = 0i64;
            for _ in 0..n {
                prev = prev.wrapping_add(r.get_i64()?);
                exclude.push(prev);
            }
            (Some(v), exclude)
        } else {
            (None, Vec::new())
        };
        let n = r.get_usize()?;
        if n > MAX_IDS {
            return Err(WireError::LengthOutOfBounds);
        }
        let mut entries = Vec::with_capacity(n.min(1024));
        let mut prev = 0i64;
        for _ in 0..n {
            prev = prev.wrapping_add(r.get_i64()?);
            entries.push((prev, Dyadic::ZERO));
        }
        for (_, v) in &mut entries {
            *v = r.get::<Dyadic>()?;
        }
        Ok(Section { level, round, kind, background, exclude, entries })
    }
}

/// A Delphi network message: one or more bundled sections.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct DelphiBundle {
    /// The bundled sections.
    pub sections: Vec<Section>,
}

impl DelphiBundle {
    /// Creates an empty bundle.
    pub fn new() -> DelphiBundle {
        DelphiBundle::default()
    }

    /// Whether no section carries any echo.
    pub fn is_empty(&self) -> bool {
        self.sections.iter().all(Section::is_empty)
    }
}

impl Encode for DelphiBundle {
    fn encode(&self, w: &mut Writer) {
        w.put_seq(&self.sections);
    }
}

#[cfg(test)]
impl Decode for DelphiBundle {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(DelphiBundle { sections: r.get_seq(MAX_SECTIONS)? })
    }
}

/// The validating shim: checks that `bytes` is a complete bundle encoding
/// — with per-id dimension masks iff `MASKS` — and reports its section
/// count, keeping nothing. Name it by layout: [`DelphiBundleRef`] or
/// [`BasketBundleRef`].
///
/// Nodes decode through [`BundleArena`](crate::BundleArena) — the same
/// pass, storing what it reads; this is that pass with nowhere to store,
/// for callers that only need a bundle's validity and size.
#[derive(Clone, Copy, Debug)]
pub struct BundleRef<const MASKS: bool> {
    count: usize,
}

/// The shim over the one-dimension layout: [`DelphiBundle`] encodings,
/// what every `DelphiNode` and a basket of one send.
pub type DelphiBundleRef = BundleRef<false>;

/// The shim over the layout of two or more dimensions: [`BasketBundle`]
/// encodings.
pub type BasketBundleRef = BundleRef<true>;

impl<const MASKS: bool> BundleRef<MASKS> {
    /// Validates `bytes` as a complete bundle encoding.
    ///
    /// # Errors
    ///
    /// Exactly what the owned decoder of the layout returns on the same
    /// input, including [`WireError::TrailingBytes`] on unconsumed bytes.
    pub fn parse(bytes: &[u8]) -> Result<BundleRef<MASKS>, WireError> {
        validate_bundle::<MASKS>(bytes).map(|count| BundleRef { count })
    }

    /// Number of sections in the bundle.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the bundle holds no sections at all (cf.
    /// [`DelphiBundle::is_empty`], which also treats echo-free sections
    /// as empty).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// All echoes of one `(level, round, kind)` in one *vector-basket* bundle
/// — the multidimensional counterpart of [`Section`].
///
/// Where a scalar section carries one [`Dyadic`] per echo, a basket
/// section carries a [`VectorValue`] per echo: up to 64 basket dimensions
/// share one id-run, one header, and one frame, which is what makes a
/// whole basket cost one bundle exchange per round. Scope rules are the
/// scalar rules applied *per dimension*:
///
/// - each `(k, values)` in `entries` echoes `values.get(d)` for
///   checkpoint `k` in every dimension `d` the value set covers;
/// - `backgrounds.get(d)`, when present, additionally echoes that value
///   for every checkpoint of the level in dimension `d` **except** those
///   whose entry value set covers `d` or whose `exclude` mask has bit `d`
///   set;
/// - a checkpoint id mentioned in an entry or exclude run distinguishes
///   the checkpoint at the receiver *only in the dimensions its mask
///   covers* — mentioning `(k, {0})` says nothing about `k` in dimension
///   1, whose background echo still applies there.
///
/// As with [`Section`], one section may carry backgrounds *and* entries:
/// a triggered echo's section holds the entries of its
/// `(level, round, kind)` and the background echoes of *every* dimension
/// that triggered one, behind a single exclude run — ascending by
/// checkpoint, one `(checkpoint, mask)` pair per checkpoint, naming only
/// what the entries do not.
///
/// This is the layout of a basket of two or more dimensions. A basket of
/// one leaves the per-id masks off and sends the [`Section`] layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BasketSection {
    /// Level index (`0..=l_max`).
    pub level: u8,
    /// BinAA round within the level (shared by every dimension).
    pub round: Round,
    /// Echo phase.
    pub kind: EchoKind,
    /// Per-dimension background echoes, if any.
    pub backgrounds: VectorValue,
    /// `(checkpoint, dimension mask)` pairs **not** covered by the
    /// matching background dimensions.
    pub exclude: Vec<(i64, u64)>,
    /// Per-checkpoint, per-dimension echoes.
    pub entries: Vec<(i64, VectorValue)>,
}

impl BasketSection {
    /// Creates an empty basket section for `(level, round, kind)`.
    pub fn new(level: u8, round: Round, kind: EchoKind) -> BasketSection {
        BasketSection {
            level,
            round,
            kind,
            backgrounds: VectorValue::new(),
            exclude: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Whether the section carries no echo at all.
    pub fn is_empty(&self) -> bool {
        self.backgrounds.is_empty() && self.entries.is_empty()
    }
}

impl Encode for BasketSection {
    fn encode(&self, w: &mut Writer) {
        w.put_raw_u8(self.level);
        w.put(&self.round);
        w.put(&self.kind);
        w.put(&self.backgrounds);
        if !self.backgrounds.is_empty() {
            put_id_deltas(w, self.exclude.iter().map(|&(id, _)| id));
            for &(_, mask) in &self.exclude {
                w.put_u64(mask);
            }
        }
        put_id_deltas(w, self.entries.iter().map(|(id, _)| *id));
        for (_, values) in &self.entries {
            w.put(values);
        }
    }
}

#[cfg(test)]
impl Decode for BasketSection {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let level = r.get_raw_u8()?;
        let round = r.get::<Round>()?;
        let kind = r.get::<EchoKind>()?;
        let backgrounds = r.get::<VectorValue>()?;
        let exclude = if !backgrounds.is_empty() {
            let n = r.get_usize()?;
            if n > MAX_IDS {
                return Err(WireError::LengthOutOfBounds);
            }
            let mut exclude = Vec::with_capacity(n.min(1024));
            let mut prev = 0i64;
            for _ in 0..n {
                prev = prev.wrapping_add(r.get_i64()?);
                exclude.push((prev, 0u64));
            }
            for (_, mask) in &mut exclude {
                *mask = r.get_u64()?;
            }
            exclude
        } else {
            Vec::new()
        };
        let n = r.get_usize()?;
        if n > MAX_IDS {
            return Err(WireError::LengthOutOfBounds);
        }
        let mut entries = Vec::with_capacity(n.min(1024));
        let mut prev = 0i64;
        for _ in 0..n {
            prev = prev.wrapping_add(r.get_i64()?);
            entries.push((prev, VectorValue::new()));
        }
        for (_, values) in &mut entries {
            *values = r.get::<VectorValue>()?;
        }
        Ok(BasketSection { level, round, kind, backgrounds, exclude, entries })
    }
}

/// A vector-basket network message: one or more bundled
/// [`BasketSection`]s.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct BasketBundle {
    /// The bundled sections.
    pub sections: Vec<BasketSection>,
}

impl BasketBundle {
    /// Creates an empty bundle.
    pub fn new() -> BasketBundle {
        BasketBundle::default()
    }

    /// Whether no section carries any echo.
    pub fn is_empty(&self) -> bool {
        self.sections.iter().all(BasketSection::is_empty)
    }
}

impl Encode for BasketBundle {
    fn encode(&self, w: &mut Writer) {
        w.put_seq(&self.sections);
    }
}

#[cfg(test)]
impl Decode for BasketBundle {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(BasketBundle { sections: r.get_seq(MAX_SECTIONS)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::BundleArena;
    use delphi_primitives::wire::roundtrip;

    #[test]
    fn binaa_msg_roundtrip() {
        let msg = BinAaMsg { round: Round(7), kind: EchoKind::Echo2, value: Dyadic::new(5, 3) };
        assert_eq!(roundtrip(&msg).unwrap(), msg);
    }

    #[test]
    fn echo_kind_rejects_unknown_discriminant() {
        assert!(matches!(EchoKind::from_bytes(&[7]), Err(WireError::InvalidDiscriminant(7))));
    }

    #[test]
    fn section_roundtrip_with_background() {
        let s = Section {
            level: 3,
            round: Round(2),
            kind: EchoKind::Echo1,
            background: Some(Dyadic::ZERO),
            exclude: vec![-5, 40_000],
            entries: vec![(19_999, Dyadic::ONE), (20_000, Dyadic::new(1, 2))],
        };
        assert_eq!(roundtrip(&s).unwrap(), s);
    }

    #[test]
    fn section_roundtrip_without_background_drops_exclude() {
        let s = Section {
            level: 0,
            round: Round(1),
            kind: EchoKind::Echo2,
            background: None,
            exclude: Vec::new(),
            entries: vec![(7, Dyadic::ONE)],
        };
        assert_eq!(roundtrip(&s).unwrap(), s);
    }

    #[test]
    fn bundle_roundtrip_and_emptiness() {
        let mut b = DelphiBundle::new();
        assert!(b.is_empty());
        b.sections.push(Section::new(0, Round(1), EchoKind::Echo1));
        assert!(b.is_empty(), "section without echoes is empty");
        b.sections[0].background = Some(Dyadic::ZERO);
        assert!(!b.is_empty());
        assert_eq!(roundtrip(&b).unwrap(), b);
    }

    #[test]
    fn oversized_sequences_rejected() {
        use delphi_primitives::wire::Writer;
        let mut w = Writer::new();
        w.put_usize(MAX_SECTIONS + 1);
        assert!(DelphiBundle::from_bytes(&w.into_vec()).is_err());
    }

    #[test]
    fn truncated_section_rejected() {
        let s = Section {
            level: 1,
            round: Round(1),
            kind: EchoKind::Echo1,
            background: Some(Dyadic::ONE),
            exclude: vec![1, 2, 3],
            entries: vec![(9, Dyadic::ONE)],
        };
        let bytes = s.to_bytes();
        for cut in 1..bytes.len() {
            assert!(Section::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn id_delta_coding_survives_extremes_and_disorder() {
        // Checkpoint ids are delta-coded with wrapping arithmetic: the
        // roundtrip must be exact for extreme magnitudes (whose deltas
        // wrap i64) and for unsorted sequences (deltas may be negative).
        let s = Section {
            level: 1,
            round: Round(3),
            kind: EchoKind::Echo2,
            background: Some(Dyadic::ONE),
            exclude: vec![i64::MAX, i64::MIN, 0, -1],
            entries: vec![
                (i64::MIN, Dyadic::ZERO),
                (i64::MAX, Dyadic::ONE),
                (5, Dyadic::new(1, 2)),
                (4, Dyadic::new(3, 2)),
            ],
        };
        assert_eq!(roundtrip(&s).unwrap(), s);
    }

    #[test]
    fn clustered_ids_encode_one_byte_each() {
        // The point of delta coding: consecutive checkpoint ids near
        // 20 000 cost one byte apiece after the first, not three.
        let mut near = Section::new(0, Round(1), EchoKind::Echo1);
        near.entries = (0..8).map(|i| (20_000 + i, Dyadic::ZERO)).collect();
        let mut far = Section::new(0, Round(1), EchoKind::Echo1);
        far.entries = (0..8).map(|i| (20_000 + 10_000 * i, Dyadic::ZERO)).collect();
        let (near_len, far_len) = (near.to_bytes().len(), far.to_bytes().len());
        assert!(near_len + 2 * 7 <= far_len, "clustered {near_len}B vs spread {far_len}B");
    }

    fn sample_bundle() -> DelphiBundle {
        let mut b = DelphiBundle::new();
        for level in 0..4u8 {
            let mut s = Section::new(level, Round(3 + u16::from(level)), EchoKind::Echo1);
            s.background = Some(Dyadic::new(1, 2));
            s.exclude = vec![-5, 40_000, i64::MIN];
            s.entries =
                vec![(19_999, Dyadic::ONE), (20_000, Dyadic::new(1, 2)), (i64::MAX, Dyadic::ZERO)];
            b.sections.push(s);
        }
        b.sections.push(Section::new(9, Round(1), EchoKind::Echo2));
        b
    }

    /// The arena of a one-dimension machine: no per-id masks.
    fn scalar_arena() -> BundleArena {
        BundleArena::new(1)
    }

    /// The arena of a full basket: per-id masks.
    fn basket_arena() -> BundleArena {
        BundleArena::new(usize::from(delphi_primitives::wire::MAX_VECTOR_DIMS))
    }

    /// Decodes `bytes` into a fresh arena and materializes the owned
    /// bundle it holds, for comparison with the owned decoder.
    fn arena_scalar(bytes: &[u8]) -> Result<DelphiBundle, WireError> {
        let mut arena = scalar_arena();
        arena.decode(bytes)?;
        Ok(arena.to_owned_scalar())
    }

    fn arena_basket(bytes: &[u8]) -> Result<BasketBundle, WireError> {
        let mut arena = basket_arena();
        arena.decode(bytes)?;
        Ok(arena.to_owned_basket())
    }

    #[test]
    fn borrowed_bundle_view_matches_owned_decoder() {
        let bundle = sample_bundle();
        let bytes = bundle.to_bytes();
        let shim = DelphiBundleRef::parse(&bytes).unwrap();
        assert_eq!(shim.len(), bundle.sections.len());
        assert!(!shim.is_empty());
        let mut arena = scalar_arena();
        arena.decode(&bytes).unwrap();
        assert_eq!(arena.len(), bundle.sections.len());
        assert_eq!(arena.to_owned_scalar(), bundle);
        // Per-section slices match the owned fields; without per-id masks
        // every id and the background live in dimension 0.
        for (flat, owned) in arena.sections().zip(&bundle.sections) {
            assert_eq!((flat.level, flat.round, flat.kind), (owned.level, owned.round, owned.kind));
            let background: Vec<_> = flat.background_dims().collect();
            assert_eq!(
                background,
                owned.background.map(|bg| (0, bg)).into_iter().collect::<Vec<_>>()
            );
            let exclude: Vec<_> = flat.basket_exclude().collect();
            assert_eq!(exclude, owned.exclude.iter().map(|&k| (k, 1)).collect::<Vec<_>>());
            let entries: Vec<_> =
                flat.basket_entries().map(|(k, mask, values)| (k, mask, values.to_vec())).collect();
            let owned_entries: Vec<_> =
                owned.entries.iter().map(|&(k, v)| (k, 1, vec![v])).collect();
            assert_eq!(entries, owned_entries);
            for &k in owned.exclude.iter().chain(owned.entries.iter().map(|(k, _)| k)) {
                assert!(flat.names_in(k, 0) && !flat.names_in(k, 1));
            }
            assert!(!flat.names_in(123_456, 0));
        }
        // Decoding again reuses the storage without reallocating.
        let capacity = arena.capacities();
        arena.decode(&bytes).unwrap();
        assert_eq!(arena.to_owned_scalar(), bundle);
        assert_eq!(arena.capacities(), capacity);
        // The empty bundle parses too.
        let empty = DelphiBundle::new().to_bytes();
        assert!(DelphiBundleRef::parse(&empty).unwrap().is_empty());
        arena.decode(&empty).unwrap();
        assert!(arena.is_empty());
    }

    #[test]
    fn borrowed_bundle_rejects_what_owned_rejects() {
        let bytes = sample_bundle().to_bytes();
        let mut arena = scalar_arena();
        // Every truncation fails identically, and leaves the arena empty.
        for cut in 0..bytes.len() {
            let owned = DelphiBundle::from_bytes(&bytes[..cut]).unwrap_err();
            assert_eq!(arena.decode(&bytes[..cut]).unwrap_err(), owned, "cut at {cut}");
            assert!(arena.is_empty() && arena.sections().next().is_none());
            assert_eq!(DelphiBundleRef::parse(&bytes[..cut]).unwrap_err(), owned, "cut at {cut}");
        }
        // Trailing bytes fail identically.
        let mut trailing = bytes.to_vec();
        trailing.push(0x55);
        assert_eq!(DelphiBundle::from_bytes(&trailing).unwrap_err(), WireError::TrailingBytes);
        assert_eq!(arena.decode(&trailing).unwrap_err(), WireError::TrailingBytes);
        assert!(arena.is_empty());
        assert_eq!(DelphiBundleRef::parse(&trailing).unwrap_err(), WireError::TrailingBytes);
        // Oversized section and id counts fail identically.
        let mut w = Writer::new();
        w.put_usize(MAX_SECTIONS + 1);
        let over_sections = w.into_vec();
        let mut w = Writer::new();
        w.put_usize(1);
        w.put_raw_u8(0);
        w.put(&Round(1));
        w.put(&EchoKind::Echo1);
        w.put_bool(false);
        w.put_usize(MAX_IDS + 1);
        let over_ids = w.into_vec();
        for over in [over_sections, over_ids] {
            let owned = DelphiBundle::from_bytes(&over).unwrap_err();
            assert_eq!(owned, WireError::LengthOutOfBounds);
            assert_eq!(arena.decode(&over).unwrap_err(), owned);
            assert_eq!(DelphiBundleRef::parse(&over).unwrap_err(), owned);
        }
    }

    #[test]
    fn one_dimension_background_mask_is_the_scalar_flag() {
        // Without per-id masks the background mask is the scalar layout's
        // flag byte: anything but 0 or 1 is rejected as the owned decoder
        // rejects it, not read as a mask over two dimensions.
        let mut w = Writer::new();
        w.put_usize(1);
        w.put_raw_u8(0);
        w.put(&Round(1));
        w.put(&EchoKind::Echo1);
        w.put_u64(0b11);
        w.put(&Dyadic::ZERO);
        w.put(&Dyadic::ONE);
        w.put_usize(0); // exclude run
        w.put_usize(0); // entries
        let bytes = w.into_vec();
        let owned = DelphiBundle::from_bytes(&bytes).unwrap_err();
        assert_eq!(owned, WireError::InvalidDiscriminant(3));
        assert_eq!(scalar_arena().decode(&bytes).unwrap_err(), owned);
        assert_eq!(DelphiBundleRef::parse(&bytes).unwrap_err(), owned);
        // The same bytes are a well-formed section of a wider basket.
        let mut arena = basket_arena();
        arena.decode(&bytes).unwrap();
        assert_eq!(arena.sections().map(|s| s.bg_mask).collect::<Vec<_>>(), vec![0b11]);
    }

    #[test]
    fn hostile_length_prefix_does_not_size_the_arena() {
        // A bundle that *claims* the maximum section and id counts but
        // carries a handful of bytes: the arena grows by what decoded,
        // not by what the prefixes promised.
        for mut arena in [scalar_arena(), basket_arena()] {
            let mut w = Writer::new();
            w.put_usize(MAX_SECTIONS);
            w.put_raw_u8(0);
            w.put(&Round(1));
            w.put(&EchoKind::Echo1);
            w.put_u64(0); // no backgrounds: the same byte as the flag
            w.put_usize(MAX_IDS);
            for _ in 0..8 {
                w.put_i64(1);
            }
            let bytes = w.into_vec();
            let result = arena.decode(&bytes);
            assert_eq!(result.unwrap_err(), WireError::Truncated);
            assert!(arena.is_empty());
            let (heads, ids, masks, values) = arena.capacities();
            assert!(heads + ids + masks + values <= 4 * bytes.len(), "{:?}", arena.capacities());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Round-trip equivalence on arbitrary well-formed bundles: the
        /// arena holds exactly what the owned decoder returns.
        #[test]
        fn prop_borrowed_bundle_roundtrip_equivalence(
            sections in proptest::collection::vec(
                (
                    // (level, round, kind)
                    (proptest::prelude::any::<u8>(), 1u16..32, proptest::prelude::any::<bool>()),
                    // (background?, numerator, exponent)
                    (proptest::prelude::any::<bool>(), proptest::prelude::any::<u8>(), 0u8..60),
                    proptest::collection::vec(proptest::prelude::any::<i64>(), 0..6), // exclude
                    proptest::collection::vec(
                        (proptest::prelude::any::<i64>(),
                         proptest::prelude::any::<u8>(), 0u8..60),
                        0..6,
                    ),                                              // entries
                ),
                0..6,
            )
        ) {
            let mut bundle = DelphiBundle::new();
            for ((level, round, echo2), (has_bg, bg_num, bg_den), exclude, entries) in sections {
                let kind = if echo2 { EchoKind::Echo2 } else { EchoKind::Echo1 };
                let mut s = Section::new(level, Round(round), kind);
                if has_bg {
                    s.background = Some(Dyadic::new(u64::from(bg_num), bg_den));
                    s.exclude = exclude;
                }
                s.entries = entries
                    .into_iter()
                    .map(|(k, num, den)| (k, Dyadic::new(u64::from(num), den)))
                    .collect();
                bundle.sections.push(s);
            }
            let bytes = bundle.to_bytes();
            let owned = DelphiBundle::from_bytes(&bytes).unwrap();
            proptest::prop_assert_eq!(arena_scalar(&bytes).unwrap(), owned);
            proptest::prop_assert_eq!(
                DelphiBundleRef::parse(&bytes).unwrap().len(), bundle.sections.len());
        }

        /// Error equivalence on garbage bytes and truncated prefixes: the
        /// arena decoder (and the validating shim) accept and reject
        /// exactly what the owned decoder does, with the same error —
        /// bad discriminants, bad `Dyadic`s and overlong varints included.
        #[test]
        fn prop_borrowed_bundle_error_equivalence(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
            cut in 0usize..96,
        ) {
            let cut = cut.min(bytes.len());
            for input in [&bytes[..], &bytes[..cut]] {
                let owned = DelphiBundle::from_bytes(input);
                proptest::prop_assert_eq!(arena_scalar(input), owned.clone());
                proptest::prop_assert_eq!(
                    DelphiBundleRef::parse(input).map(|shim| shim.len()),
                    owned.map(|b| b.sections.len()));
            }
        }
    }

    fn sample_basket_bundle() -> BasketBundle {
        let mut b = BasketBundle::new();
        for level in 0..3u8 {
            let mut s = BasketSection::new(level, Round(2 + u16::from(level)), EchoKind::Echo1);
            let mut bg = VectorValue::new();
            bg.set(0, Dyadic::ZERO);
            bg.set(5, Dyadic::new(1, 2));
            bg.set(63, Dyadic::ONE);
            s.backgrounds = bg;
            s.exclude = vec![(-5, 0b1), (40_000, u64::MAX), (i64::MIN, 0)];
            let mut v1 = VectorValue::single(0, Dyadic::ONE);
            v1.set(7, Dyadic::new(3, 4));
            s.entries = vec![
                (19_999, v1),
                (20_000, VectorValue::single(5, Dyadic::new(1, 2))),
                (i64::MAX, VectorValue::new()),
            ];
            b.sections.push(s);
        }
        // Background-free section: exclude run is not encoded.
        let mut s = BasketSection::new(9, Round(1), EchoKind::Echo2);
        s.entries = vec![(7, VectorValue::single(2, Dyadic::ONE))];
        b.sections.push(s);
        b.sections.push(BasketSection::new(11, Round(1), EchoKind::Echo1));
        b
    }

    #[test]
    fn basket_section_roundtrip() {
        let bundle = sample_basket_bundle();
        for s in &bundle.sections {
            assert_eq!(&roundtrip(s).unwrap(), s);
        }
        assert_eq!(roundtrip(&bundle).unwrap(), bundle);
        assert!(!bundle.is_empty());
        assert!(BasketBundle::new().is_empty());
        assert!(BasketBundle { sections: vec![BasketSection::new(0, Round(1), EchoKind::Echo1)] }
            .is_empty());
    }

    #[test]
    fn basket_section_without_backgrounds_omits_exclude_run() {
        // The exclude run rides the background flag exactly like the
        // scalar section's: no backgrounds, no run on the wire.
        let mut with_ex = BasketSection::new(0, Round(1), EchoKind::Echo1);
        with_ex.exclude = vec![(1, 1), (2, 2)];
        let bare = BasketSection::new(0, Round(1), EchoKind::Echo1);
        assert_eq!(with_ex.to_bytes(), bare.to_bytes());
        assert_eq!(roundtrip(&with_ex).unwrap(), bare);
    }

    #[test]
    fn basket_shares_one_id_run_across_dimensions() {
        // The vector win on the wire: m dimensions echoing the same
        // checkpoints cost one id-run, not m scalar sections.
        let ids = 0..8i64;
        let mut vector = BasketSection::new(0, Round(1), EchoKind::Echo1);
        vector.entries = ids
            .clone()
            .map(|k| {
                let mut vv = VectorValue::new();
                for d in 0..8 {
                    vv.set(d, Dyadic::new(1, 1));
                }
                (20_000 + k, vv)
            })
            .collect();
        let mut scalar_total = 0;
        for _ in 0..8 {
            let mut s = Section::new(0, Round(1), EchoKind::Echo1);
            s.entries = ids.clone().map(|k| (20_000 + k, Dyadic::new(1, 1))).collect();
            scalar_total += s.to_bytes().len();
        }
        let vector_total = vector.to_bytes().len();
        assert!(
            vector_total < scalar_total,
            "vector {vector_total}B vs 8 scalar sections {scalar_total}B"
        );
        // The 64 Dyadic values are irreducible payload either way; the
        // id-run sharing shows up in the framing overhead (headers, id
        // runs, counts), which must shrink by at least 3x.
        let value_bytes = 64 * Dyadic::new(1, 1).to_bytes().len();
        let vector_overhead = vector_total - value_bytes;
        let scalar_overhead = scalar_total - value_bytes;
        assert!(
            vector_overhead * 3 < scalar_overhead,
            "vector overhead {vector_overhead}B vs scalar overhead {scalar_overhead}B"
        );
    }

    #[test]
    fn borrowed_basket_view_matches_owned_decoder() {
        let bundle = sample_basket_bundle();
        let bytes = bundle.to_bytes();
        let shim = BasketBundleRef::parse(&bytes).unwrap();
        assert_eq!(shim.len(), bundle.sections.len());
        assert!(!shim.is_empty());
        let mut arena = basket_arena();
        arena.decode(&bytes).unwrap();
        assert_eq!(arena.len(), bundle.sections.len());
        assert_eq!(arena.to_owned_basket(), bundle);
        for (flat, owned) in arena.sections().zip(&bundle.sections) {
            assert_eq!((flat.level, flat.round, flat.kind), (owned.level, owned.round, owned.kind));
            assert_eq!(flat.bg_mask, owned.backgrounds.mask());
            assert_eq!(
                flat.background_dims().collect::<Vec<_>>(),
                owned.backgrounds.dims().collect::<Vec<_>>()
            );
            assert_eq!(flat.basket_exclude().collect::<Vec<_>>(), owned.exclude);
            for (&(k, mask), dim) in owned.exclude.iter().zip([0u16, 5, 63]) {
                assert_eq!(flat.names_in(k, dim), mask & (1 << dim) != 0);
            }
            for ((k, mask, values), (ok, ovalues)) in flat.basket_entries().zip(&owned.entries) {
                assert_eq!((k, mask), (*ok, ovalues.mask()));
                assert_eq!(values, ovalues.dims().map(|(_, v)| v).collect::<Vec<_>>());
                for (dim, _) in ovalues.dims() {
                    assert!(flat.names_in(k, dim));
                }
            }
        }
        let capacity = arena.capacities();
        arena.decode(&bytes).unwrap();
        assert_eq!(arena.to_owned_basket(), bundle);
        assert_eq!(arena.capacities(), capacity);
        let empty = BasketBundle::new().to_bytes();
        assert!(BasketBundleRef::parse(&empty).unwrap().is_empty());
    }

    #[test]
    fn borrowed_basket_rejects_what_owned_rejects() {
        let bytes = sample_basket_bundle().to_bytes();
        let mut arena = basket_arena();
        for cut in 0..bytes.len() {
            let owned = BasketBundle::from_bytes(&bytes[..cut]).unwrap_err();
            assert_eq!(arena.decode(&bytes[..cut]).unwrap_err(), owned, "cut at {cut}");
            assert!(arena.is_empty() && arena.sections().next().is_none());
            assert_eq!(BasketBundleRef::parse(&bytes[..cut]).unwrap_err(), owned, "cut at {cut}");
        }
        let mut trailing = bytes.to_vec();
        trailing.push(0x55);
        assert_eq!(BasketBundle::from_bytes(&trailing).unwrap_err(), WireError::TrailingBytes);
        assert_eq!(arena.decode(&trailing).unwrap_err(), WireError::TrailingBytes);
        assert!(arena.is_empty());
        assert_eq!(BasketBundleRef::parse(&trailing).unwrap_err(), WireError::TrailingBytes);
        let mut w = Writer::new();
        w.put_usize(MAX_SECTIONS + 1);
        let over_sections = w.into_vec();
        let mut w = Writer::new();
        w.put_usize(1);
        w.put_raw_u8(0);
        w.put(&Round(1));
        w.put(&EchoKind::Echo1);
        w.put_u64(0b1);
        w.put(&Dyadic::ZERO);
        w.put_usize(MAX_IDS + 1);
        let over_ids = w.into_vec();
        for over in [over_sections, over_ids] {
            let owned = BasketBundle::from_bytes(&over).unwrap_err();
            assert_eq!(owned, WireError::LengthOutOfBounds);
            assert_eq!(arena.decode(&over).unwrap_err(), owned);
            assert_eq!(BasketBundleRef::parse(&over).unwrap_err(), owned);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Round-trip equivalence on arbitrary well-formed basket bundles:
        /// the arena holds exactly what the owned decoder returns.
        #[test]
        fn prop_borrowed_basket_roundtrip_equivalence(
            sections in proptest::collection::vec(
                (
                    // (level, round, kind)
                    (proptest::prelude::any::<u8>(), 1u16..32, proptest::prelude::any::<bool>()),
                    // background dims: (dim, numerator, exponent)
                    proptest::collection::vec(
                        (0u16..64, proptest::prelude::any::<u8>(), 0u8..60), 0..4),
                    // exclude: (id, mask)
                    proptest::collection::vec(
                        (proptest::prelude::any::<i64>(), proptest::prelude::any::<u64>()), 0..4),
                    // entries: (id, dims)
                    proptest::collection::vec(
                        (proptest::prelude::any::<i64>(),
                         proptest::collection::vec(
                             (0u16..64, proptest::prelude::any::<u8>(), 0u8..60), 0..4)),
                        0..4,
                    ),
                ),
                0..5,
            )
        ) {
            let mut bundle = BasketBundle::new();
            for ((level, round, echo2), bg, exclude, entries) in sections {
                let kind = if echo2 { EchoKind::Echo2 } else { EchoKind::Echo1 };
                let mut s = BasketSection::new(level, Round(round), kind);
                for (dim, num, den) in bg {
                    s.backgrounds.set(dim, Dyadic::new(u64::from(num), den));
                }
                if !s.backgrounds.is_empty() {
                    s.exclude = exclude;
                }
                s.entries = entries
                    .into_iter()
                    .map(|(k, dims)| {
                        let mut vv = VectorValue::new();
                        for (dim, num, den) in dims {
                            vv.set(dim, Dyadic::new(u64::from(num), den));
                        }
                        (k, vv)
                    })
                    .collect();
                bundle.sections.push(s);
            }
            let bytes = bundle.to_bytes();
            let owned = BasketBundle::from_bytes(&bytes).unwrap();
            proptest::prop_assert_eq!(arena_basket(&bytes).unwrap(), owned);
            proptest::prop_assert_eq!(
                BasketBundleRef::parse(&bytes).unwrap().len(), bundle.sections.len());
        }

        /// Error equivalence on garbage bytes and truncated prefixes: the
        /// arena decoder (and the validating shim) accept and reject
        /// exactly what the owned basket decoder does, with the same error.
        #[test]
        fn prop_borrowed_basket_error_equivalence(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
            cut in 0usize..96,
        ) {
            let cut = cut.min(bytes.len());
            for input in [&bytes[..], &bytes[..cut]] {
                let owned = BasketBundle::from_bytes(input);
                proptest::prop_assert_eq!(arena_basket(input), owned.clone());
                proptest::prop_assert_eq!(
                    BasketBundleRef::parse(input).map(|shim| shim.len()),
                    owned.map(|b| b.sections.len()));
            }
        }
    }

    #[test]
    fn bundle_wire_size_is_compact() {
        // A realistic per-round bundle: 11 levels, background + 4 entries
        // each. Should be well under 1 KiB.
        let mut b = DelphiBundle::new();
        for level in 0..11u8 {
            let mut s = Section::new(level, Round(12), EchoKind::Echo1);
            s.background = Some(Dyadic::ZERO);
            s.exclude = vec![20_000, 20_001];
            s.entries = vec![
                (19_999, Dyadic::new(123, 20)),
                (20_000, Dyadic::new(124, 20)),
                (20_001, Dyadic::ONE),
                (20_002, Dyadic::ZERO),
            ];
            b.sections.push(s);
        }
        let len = b.to_bytes().len();
        assert!(len < 1024, "bundle is {len} bytes");
    }
}
