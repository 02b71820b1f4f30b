//! Wire formats for BinAA and Delphi traffic.
//!
//! Delphi's `O(n²)` communication relies on *bundling*: every checkpoint of
//! every level runs its own BinAA instance, but one network message carries
//! the echoes of arbitrarily many instances (§III-C). A [`BasketSection`] is
//! the unit of bundling — all echoes of one `(level, round, kind)`, in every
//! basket dimension — and uses the zero-run optimization: a *background*
//! value per dimension stands for "every checkpoint of this level that
//! nobody has distinguished", while `entries` carry the handful of
//! checkpoints near honest inputs.
//!
//! Nodes read bundles through [`BundleArena`](crate::BundleArena) and
//! write them from pooled scratch. [`BasketBundle`] is the one owned model
//! of a bundle, at every basket size: benches and Byzantine test nodes
//! build bundles with it through the same section writer (the layout is
//! documented in `bundle.rs`); its decoder, compiled for tests only, reads
//! that layout independently: the arena's oracle.

use bytes::Bytes;
use delphi_primitives::wire::{Decode, Encode, Reader, VectorValue, WireError, Writer};
use delphi_primitives::{Dyadic, Round};

use crate::bundle::write_bundle;

/// Which quorum message an echo is (Algorithm 1 / Definition II.2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EchoKind {
    /// First-phase echo (`ECHO1`).
    #[default]
    Echo1,
    /// Second-phase echo (`ECHO2`).
    Echo2,
}

impl Encode for EchoKind {
    fn encode(&self, w: &mut Writer) {
        w.put_raw_u8(*self as u8);
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

/// All echoes of one `(level, round, kind)` in one bundle, in up to 64
/// basket dimensions that share one id run and one header, so a whole
/// basket costs one bundle exchange per round. Scope rules (the §III-C
/// zero-run optimization), per dimension `d`:
///
/// - each `(k, values)` in `entries` echoes `values.get(d)` for
///   checkpoint `k` in every dimension `d` the value set covers;
/// - `backgrounds.get(d)`, when present, additionally echoes that value
///   for every checkpoint of the level in dimension `d` **except** those
///   whose entry value set covers `d` or whose `exclude` mask has bit `d`
///   set (the sender's currently distinguished checkpoints);
/// - any checkpoint id mentioned anywhere makes the checkpoint
///   "distinguished" at the receiver (it is forked off the background
///   instance before the message is applied), *only in the dimensions its
///   mask covers*: `(k, {0})` says nothing about `k` in dimension 1; when a
///   sender's introduction budget runs out mid-section, `entries` are
///   forked before `exclude`.
///
/// A section may carry backgrounds *and* entries: a round's initial burst
/// does, and so does a triggered echo — the entries a call collects for
/// one key and the background echoes of *every* dimension it then triggers
/// leave as one section, behind a single exclude run: ascending, one
/// `(checkpoint, mask)` per checkpoint the entries do not name.
///
/// A machine of one dimension — every `DelphiNode`, and a
/// `VectorDelphiNode` over a basket of one — echoes in dimension 0 alone,
/// and its bundles leave the masks off the wire.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
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
    /// Creates an empty section for `(level, round, kind)`.
    pub fn new(level: u8, round: Round, kind: EchoKind) -> BasketSection {
        BasketSection { level, round, kind, ..BasketSection::default() }
    }
}

#[cfg(test)]
impl BasketSection {
    /// Whether the section carries no echo at all.
    pub fn is_empty(&self) -> bool {
        self.backgrounds.is_empty() && self.entries.is_empty()
    }

    /// The section with background `v` in dimension 0.
    pub(crate) fn with_background(mut self, v: Dyadic) -> BasketSection {
        self.backgrounds.set(0, v);
        self
    }

    /// The section shielding `ids` from the background of dimension 0.
    pub(crate) fn with_exclude(mut self, ids: impl IntoIterator<Item = i64>) -> BasketSection {
        self.exclude = ids.into_iter().map(|k| (k, 1)).collect();
        self
    }

    /// The section echoing `(k, v)` entries in dimension 0.
    pub(crate) fn with_entries(
        mut self,
        entries: impl IntoIterator<Item = (i64, Dyadic)>,
    ) -> BasketSection {
        self.entries = entries.into_iter().map(|(k, v)| (k, VectorValue::single(0, v))).collect();
        self
    }
}

/// A Delphi network message: one or more bundled [`BasketSection`]s.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct BasketBundle {
    /// The bundled sections.
    pub sections: Vec<BasketSection>,
}

impl BasketBundle {
    /// The bundle as a machine of `dims` basket dimensions sends it: with
    /// per-id dimension masks at two or more, and without them at one,
    /// where every echo is in dimension 0. Empty if it holds a value the
    /// layout cannot carry.
    pub fn to_bytes(&self, dims: usize) -> Bytes {
        let mut w = Writer::new();
        if !write_bundle(&mut w, &self.sections, dims > 1) {
            w.clear();
        }
        w.into_bytes()
    }
}

#[cfg(test)]
impl BasketBundle {
    /// Creates an empty bundle.
    pub fn new() -> BasketBundle {
        BasketBundle::default()
    }

    /// Whether no section carries any echo.
    pub fn is_empty(&self) -> bool {
        self.sections.iter().all(BasketSection::is_empty)
    }

    /// The owned decoder: `bytes` as a bundle of a `dims`-dimension machine.
    pub fn from_bytes(bytes: &[u8], dims: usize) -> Result<BasketBundle, WireError> {
        let mut r = Reader::new(bytes);
        let sections = oracle::read_sections(&mut r, dims > 1)?;
        r.finish()?;
        Ok(BasketBundle { sections })
    }
}

/// The owned decoder's reading of the layout table in `bundle.rs`: plain
/// [`Reader`] code, field by field, sharing nothing with the arena's
/// `read_section` — so the arena and the shim are checked against a
/// second reading, not against themselves.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::bundle::{MAX_IDS, MAX_RUN, MAX_SECTIONS};

    /// An id run: delta-coded, or (`most > 0`) its first id and the ids
    /// after it, two to `most` of them.
    fn id_run(r: &mut Reader<'_>, most: usize) -> Result<Vec<i64>, WireError> {
        let n = r.get_usize()?;
        if n > MAX_IDS || (most > 0 && (n < 2 || n > most)) {
            return Err(WireError::LengthOutOfBounds);
        }
        let mut ids = Vec::with_capacity(n.min(1024));
        let mut prev = 0i64;
        for i in 0..n {
            prev = match (most > 0, i) {
                (true, 0) | (false, _) => prev.wrapping_add(r.get_i64()?),
                (true, _) => prev.wrapping_add(1),
            };
            ids.push(prev);
        }
        Ok(ids)
    }

    /// A round value: one varint, `num · 64 + log_den`.
    fn value(r: &mut Reader<'_>) -> Result<Dyadic, WireError> {
        let packed = r.get_u64()?;
        let (num, log_den) = (packed / 64, (packed % 64) as u8);
        Dyadic::try_new(num, log_den).map_err(|_| WireError::InvalidValue)
    }

    /// A dimension mask: on the wire with masks, dimension 0 without.
    fn mask(r: &mut Reader<'_>, masks: bool) -> Result<u64, WireError> {
        if masks {
            r.get_u64()
        } else {
            Ok(1)
        }
    }

    /// The section after `prev`.
    fn section(
        r: &mut Reader<'_>,
        masks: bool,
        prev: Option<&BasketSection>,
    ) -> Result<BasketSection, WireError> {
        let flags = r.get_raw_u8()?;
        let bad = WireError::InvalidDiscriminant(u64::from(flags));
        let bit = |b: u8| flags & (1 << b) != 0;
        if (bit(4) || bit(6)) && !bit(3) {
            return Err(bad);
        }
        let kind = if bit(0) { EchoKind::Echo2 } else { EchoKind::Echo1 };
        let level = match (bit(1), prev) {
            (false, _) => r.get_raw_u8()?,
            (true, Some(p)) if p.level < u8::MAX => p.level + 1,
            (true, _) => return Err(bad),
        };
        let round = match (bit(2), prev) {
            (false, _) => r.get::<Round>()?,
            (true, Some(p)) => p.round,
            (true, None) => return Err(bad),
        };
        let mut s = BasketSection::new(level, round, kind);
        if bit(3) {
            let bg_mask = mask(r, masks)?;
            if bg_mask == 0 {
                return Err(WireError::InvalidValue);
            }
            for dim in (0..64u16).filter(|&d| bg_mask >> d & 1 == 1) {
                let v = if bit(4) { Dyadic::ZERO } else { value(r)? };
                s.backgrounds.set(dim, v);
            }
        }
        if bit(6) {
            for k in id_run(r, 0)? {
                s.exclude.push((k, 0));
            }
            for (_, m) in &mut s.exclude {
                *m = mask(r, masks)?;
            }
        }
        // A run stands for at most MAX_RUN ids, or with masks for as many
        // as bytes remain from its count on.
        let most = match (bit(7), masks) {
            (false, _) => 0,
            (true, false) => MAX_RUN,
            (true, true) => r.remaining(),
        };
        let ids = id_run(r, most)?;
        let shared: Option<Dyadic> = if bit(5) { Some(value(r)?) } else { None };
        for k in ids {
            let m = mask(r, masks)?;
            let mut vv = VectorValue::new();
            for dim in (0..64u16).filter(|&d| m >> d & 1 == 1) {
                let v = match shared {
                    Some(v) => v,
                    None => value(r)?,
                };
                vv.set(dim, v);
            }
            s.entries.push((k, vv));
        }
        if shared.is_some() && s.entries.iter().all(|(_, vv)| vv.is_empty()) {
            return Err(bad);
        }
        if bit(6) && s.exclude.is_empty() {
            return Err(bad);
        }
        Ok(s)
    }

    /// A bundle's sections; the caller checks for trailing bytes.
    pub(super) fn read_sections(
        r: &mut Reader<'_>,
        masks: bool,
    ) -> Result<Vec<BasketSection>, WireError> {
        let count = r.get_usize()?;
        if count > MAX_SECTIONS {
            return Err(WireError::LengthOutOfBounds);
        }
        let mut sections: Vec<BasketSection> = Vec::new();
        for _ in 0..count {
            let next = section(r, masks, sections.last())?;
            sections.push(next);
        }
        Ok(sections)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::{BasketBundleRef, BundleArena, DelphiBundleRef, MAX_IDS, MAX_SECTIONS};
    use delphi_primitives::wire::roundtrip;
    use proptest::prelude::{any, Strategy};

    fn one(section: BasketSection) -> BasketBundle {
        BasketBundle { sections: vec![section] }
    }

    /// `bundle` written and read back by the owned codec at `dims` dimensions.
    fn reread(bundle: &BasketBundle, dims: usize) -> Result<BasketBundle, WireError> {
        BasketBundle::from_bytes(&bundle.to_bytes(dims), dims)
    }

    /// A one-dimension section.
    fn scalar(level: u8, round: u16, kind: EchoKind) -> BasketSection {
        BasketSection::new(level, Round(round), kind)
    }

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
        let s = scalar(3, 2, EchoKind::Echo1)
            .with_background(Dyadic::ZERO)
            .with_exclude([-5, 40_000])
            .with_entries([(19_999, Dyadic::ONE), (20_000, Dyadic::new(1, 2))]);
        assert_eq!(reread(&one(s.clone()), 1).unwrap(), one(s));
    }

    #[test]
    fn section_roundtrip_without_background_drops_exclude() {
        let s = scalar(0, 1, EchoKind::Echo2).with_entries([(7, Dyadic::ONE)]);
        let with_exclude = s.clone().with_exclude([3, 4]);
        assert_eq!(one(with_exclude.clone()).to_bytes(1), one(s.clone()).to_bytes(1));
        assert_eq!(reread(&one(with_exclude), 1).unwrap(), one(s));
    }

    #[test]
    fn bundle_roundtrip_and_emptiness() {
        let mut b = BasketBundle::new();
        assert!(b.is_empty());
        b.sections.push(scalar(0, 1, EchoKind::Echo1));
        assert!(b.is_empty(), "section without echoes is empty");
        b.sections[0].backgrounds.set(0, Dyadic::ZERO);
        assert!(!b.is_empty());
        assert_eq!(reread(&b, 1).unwrap(), b);
    }

    #[test]
    fn oversized_sequences_rejected() {
        let mut w = Writer::new();
        w.put_usize(MAX_SECTIONS + 1);
        assert!(BasketBundle::from_bytes(&w.into_vec(), 1).is_err());
    }

    #[test]
    fn truncated_section_rejected() {
        let s = scalar(1, 1, EchoKind::Echo1)
            .with_background(Dyadic::ONE)
            .with_exclude([1, 2, 3])
            .with_entries([(9, Dyadic::ONE)]);
        let bytes = one(s).to_bytes(1);
        for cut in 1..bytes.len() {
            assert!(BasketBundle::from_bytes(&bytes[..cut], 1).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn id_delta_coding_survives_extremes_and_disorder() {
        // Checkpoint ids are delta-coded with wrapping arithmetic: the
        // roundtrip must be exact for extreme magnitudes (whose deltas
        // wrap i64) and for unsorted sequences (deltas may be negative).
        let s = scalar(1, 3, EchoKind::Echo2)
            .with_background(Dyadic::ONE)
            .with_exclude([i64::MAX, i64::MIN, 0, -1])
            .with_entries([
                (i64::MIN, Dyadic::ZERO),
                (i64::MAX, Dyadic::ONE),
                (5, Dyadic::new(1, 2)),
                (4, Dyadic::new(3, 2)),
            ]);
        assert_eq!(reread(&one(s.clone()), 1).unwrap(), one(s));
    }

    #[test]
    fn clustered_ids_encode_one_byte_each() {
        // The point of delta coding: consecutive checkpoint ids near
        // 20 000 cost one byte apiece after the first, not three.
        let near =
            scalar(0, 1, EchoKind::Echo1).with_entries((0..8).map(|i| (20_000 + i, Dyadic::ZERO)));
        let far = scalar(0, 1, EchoKind::Echo1)
            .with_entries((0..8).map(|i| (20_000 + 10_000 * i, Dyadic::ZERO)));
        let (near_len, far_len) = (one(near).to_bytes(1).len(), one(far).to_bytes(1).len());
        assert!(near_len + 2 * 7 <= far_len, "clustered {near_len}B vs spread {far_len}B");
    }

    #[test]
    fn flags_byte_stands_for_repeated_fields() {
        // Consecutive levels of one round, zero backgrounds, no exclude
        // run, every entry value 1 on two consecutive ids: after the first
        // section, level and round cost nothing, backgrounds and the
        // exclude run cost nothing, the entry ids cost their count and the
        // first id, and the entries' values cost one value per section.
        let section = |level: u8| {
            scalar(level, 12, EchoKind::Echo1)
                .with_background(Dyadic::ZERO)
                .with_entries([(20_000, Dyadic::ONE), (20_001, Dyadic::ONE)])
        };
        let first = one(section(0)).to_bytes(1);
        // RUN | BACKGROUND | ZERO_BACKGROUNDS | SHARED_VALUE, after the
        // count; then level, round, the run's count and first id, and the
        // shared value.
        assert_eq!(first[1], 0b1011_1000);
        assert_eq!(first[2..], [0, 12, 2, 0xc0, 0xb8, 0x02, 64]);
        let four = BasketBundle { sections: (0..4).map(section).collect() };
        let bytes = four.to_bytes(1);
        // NEXT_LEVEL | SAME_ROUND on top, and no level or round byte.
        assert_eq!(bytes[first.len()], 0b1011_1110);
        assert_eq!(bytes.len() - first.len(), 3 * (first.len() - 1 - 2));
        assert_eq!(BasketBundle::from_bytes(&bytes, 1).unwrap(), four);
        // A value that differs, or a nonzero background, is written out.
        let mut mixed = section(0).with_background(Dyadic::ONE);
        mixed.entries[1].1 = VectorValue::single(0, Dyadic::new(1, 1));
        let bytes = one(mixed.clone()).to_bytes(1);
        assert_eq!(bytes[1], 0b1000_1000);
        // So is an exclude run that is not empty, and ids that skip one.
        mixed = mixed.with_exclude([19_999]);
        mixed.entries[1].0 = 20_002;
        let bytes = one(mixed.clone()).to_bytes(1);
        assert_eq!(bytes[1], 0b0100_1000);
        assert_eq!(BasketBundle::from_bytes(&bytes, 1).unwrap(), one(mixed));
    }

    #[test]
    fn a_run_stands_for_two_to_four_ids_or_with_masks_as_many_as_bytes_follow() {
        // Consecutive ids of one value: two to four are a run, whose flags,
        // count, first id and value take at least as many bytes as it has
        // ids; five or more are deltas.
        for (n, flags) in [(1, 0b10_0000), (2, 0b1010_0000), (4, 0b1010_0000), (5, 0b10_0000)] {
            let s = scalar(0, 1, EchoKind::Echo1)
                .with_entries((0..n).map(|i| (20_000 + i, Dyadic::ONE)));
            let bytes = one(s.clone()).to_bytes(1);
            assert_eq!(bytes[1], flags, "{n} ids");
            assert_eq!(BasketBundle::from_bytes(&bytes, 1), Ok(one(s)));
        }
        // With masks every id pays its mask after the run: forty are a run.
        let mut basket = BasketSection::new(0, Round(1), EchoKind::Echo1);
        basket.entries =
            (0..40).map(|i| (20_000 + i, VectorValue::single(1, Dyadic::ONE))).collect();
        let bytes = one(basket.clone()).to_bytes(2);
        assert_eq!(bytes[1], 0b1010_0000);
        assert_eq!(BasketBundle::from_bytes(&bytes, 2), Ok(one(basket)));
        // A run of more ids is rejected, by every decoder: five without
        // masks, and with masks more than the bytes from its count on (ten).
        let run = |n: usize, masks: bool| {
            let mut w = Writer::new();
            w.put_usize(1);
            w.put_raw_u8(0b1010_0000);
            w.put_raw_u8(0);
            w.put(&Round(1));
            w.put_usize(n);
            w.put_i64(20_000);
            put_value(&mut w, Dyadic::ONE);
            (0..if masks { 5 } else { 0 }).for_each(|_| w.put_u64(1));
            w.into_vec()
        };
        let err = WireError::LengthOutOfBounds;
        assert_eq!(BasketBundle::from_bytes(&run(5, false), 1), Err(err));
        assert_eq!(DelphiBundleRef::parse(&run(5, false)).unwrap_err(), err);
        assert_eq!(scalar_arena().decode(&run(5, false)), Err(err));
        assert!(BasketBundle::from_bytes(&run(5, true), 2).is_ok());
        for n in [11, 100] {
            assert_eq!(BasketBundle::from_bytes(&run(n, true), 2), Err(err));
            assert_eq!(BasketBundleRef::parse(&run(n, true)).unwrap_err(), err);
            assert_eq!(basket_arena().decode(&run(n, true)), Err(err));
        }
    }

    #[test]
    fn values_are_one_varint_never_longer_and_never_another_value() {
        let s = |v| scalar(0, 1, EchoKind::Echo1).with_entries([(7, v)]);
        // The largest numerator that fits, at every exponent; every value
        // of the 2^-31 round grid; and the first numerator that does not.
        let fits = (0..=62).map(|e| Dyadic::new((1 << 58) - 1, e));
        let grid = (0..=31).flat_map(|e| [Dyadic::new(1, e), Dyadic::new((1 << e) - 1, e)]);
        for v in fits.chain(grid) {
            let bytes = one(s(v)).to_bytes(1);
            assert_eq!(BasketBundle::from_bytes(&bytes, 1), Ok(one(s(v))), "{v:?}");
            let mut packed = Writer::new();
            put_value(&mut packed, v);
            assert!(packed.len() <= v.to_bytes().len(), "{v:?}: {} bytes", packed.len());
        }
        // A numerator of 2^58 or more would overflow: the bundle is
        // refused, and nothing is written rather than another value.
        for v in [Dyadic::new(1 << 58, 0), Dyadic::new(u64::MAX, 62)] {
            assert!(one(s(v)).to_bytes(1).is_empty(), "{v:?}");
            let bg = scalar(0, 1, EchoKind::Echo1).with_background(v);
            assert!(BasketBundle { sections: vec![s(v), bg] }.to_bytes(1).is_empty(), "{v:?}");
        }
    }

    #[test]
    fn reserved_and_dangling_flag_bits_are_rejected() {
        let first = scalar(3, 2, EchoKind::Echo1).with_entries([(7, Dyadic::ONE)]);
        let second = scalar(4, 2, EchoKind::Echo2).with_background(Dyadic::ZERO);
        let second_at = one(first.clone()).to_bytes(1).len();
        let bytes = BasketBundle { sections: vec![first, second] }.to_bytes(1).to_vec();
        // ECHO2 | NEXT_LEVEL | SAME_ROUND | BACKGROUND | ZERO_BACKGROUNDS,
        // then the empty entry run: no exclude run.
        assert_eq!(bytes[second_at..], [0b0001_1111, 0]);
        let rejects = |bad: &[u8], at: usize| {
            let err = WireError::InvalidDiscriminant(u64::from(bad[at]));
            assert_eq!(BasketBundle::from_bytes(bad, 1), Err(err), "{bad:?}");
            assert_eq!(DelphiBundleRef::parse(bad).unwrap_err(), err);
            let mut arena = BundleArena::new(1);
            assert_eq!(arena.decode(bad), Err(err));
            assert!(arena.is_empty());
        };
        // An exclude run needs a background: the first section has none.
        let mut bad = bytes.clone();
        bad[1] |= 0b100_0000;
        rejects(&bad, 1);
        // Nor is an empty exclude run written out.
        let mut bad = bytes.clone();
        bad[second_at] |= 0b100_0000;
        bad.insert(second_at + 1, 0);
        rejects(&bad, second_at);
        // A run names two ids or more: the first section has one, the
        // second none. Its count is out of bounds.
        for at in [1, second_at] {
            let mut bad = bytes.clone();
            bad[at] |= 0b1000_0000;
            let err = WireError::LengthOutOfBounds;
            assert_eq!(BasketBundle::from_bytes(&bad, 1), Err(err));
            assert_eq!(DelphiBundleRef::parse(&bad).unwrap_err(), err);
            assert_eq!(scalar_arena().decode(&bad), Err(err));
        }
        // A value's `log_den` is at most 62, and its varint fits 64 bits:
        // the first section's value, 1, is the last byte before the second.
        assert_eq!(bytes[second_at - 1], 64);
        for (value, err) in
            [(vec![63], WireError::InvalidValue), (vec![0xff; 10], WireError::VarintOverflow)]
        {
            let bad = [&bytes[..second_at - 1], &value, &bytes[second_at..]].concat();
            assert_eq!(BasketBundle::from_bytes(&bad, 1), Err(err));
            assert_eq!(DelphiBundleRef::parse(&bad).unwrap_err(), err);
            assert_eq!(scalar_arena().decode(&bad), Err(err));
        }
        // Bits 1 and 2 name the previous section: a first section has none.
        for dangling in [0b010u8, 0b100] {
            let mut bad = bytes.clone();
            bad[1] |= dangling;
            rejects(&bad, 1);
        }
        // No level follows 255.
        let top = scalar(255, 2, EchoKind::Echo1).with_entries([(7, Dyadic::ONE)]);
        let mut bad = BasketBundle { sections: vec![top.clone(), top] }.to_bytes(1).to_vec();
        bad[second_at] |= 0b010;
        bad.remove(second_at + 1);
        rejects(&bad, second_at);
        // Zero backgrounds need a background: the first section has none.
        let mut bad = bytes.clone();
        bad[1] |= 0b1_0000;
        rejects(&bad, 1);
        // A shared value needs an entry value to stand for: the second
        // section has no entry, and a value after its empty run is not
        // read as one.
        let mut bad = bytes.clone();
        bad[second_at] |= 0b10_0000;
        bad.push(0);
        rejects(&bad, second_at);
        // Nor do entries of no dimension: with masks, each names none.
        let two_empty_entries = |shared: Option<Dyadic>| {
            let mut w = Writer::new();
            w.put_usize(1);
            w.put_raw_u8(if shared.is_some() { 0b10_0000 } else { 0 });
            w.put_raw_u8(0);
            w.put(&Round(1));
            w.put_usize(2);
            w.put_i64(7);
            w.put_i64(1);
            if let Some(v) = shared {
                put_value(&mut w, v);
            }
            w.put_u64(0);
            w.put_u64(0);
            w.into_vec()
        };
        let bad = two_empty_entries(Some(Dyadic::ONE));
        let err = WireError::InvalidDiscriminant(0b10_0000);
        assert_eq!(BasketBundle::from_bytes(&bad, 64), Err(err));
        assert_eq!(BasketBundleRef::parse(&bad).unwrap_err(), err);
        assert_eq!(basket_arena().decode(&bad), Err(err));
        // Without the flag, the same valueless entries are a bundle.
        let fine = two_empty_entries(None);
        let owned = BasketBundle::from_bytes(&fine, 64).unwrap();
        assert_eq!(owned.sections[0].entries.len(), 2);
        assert_eq!(arena_owned(&fine, 64), Ok(owned));
        // With masks, a background names at least one dimension.
        let mut w = Writer::new();
        w.put_usize(1);
        w.put_raw_u8(0b1000);
        w.put_raw_u8(0);
        w.put(&Round(1));
        w.put_u64(0);
        w.put_usize(0);
        let bytes = w.into_vec();
        assert_eq!(BasketBundle::from_bytes(&bytes, 64), Err(WireError::InvalidValue));
        assert_eq!(basket_arena().decode(&bytes), Err(WireError::InvalidValue));
    }

    /// Writes `v` as the layout does: one varint, `num · 64 + log_den`.
    fn put_value(w: &mut Writer, v: Dyadic) {
        w.put_u64(v.num() * 64 + u64::from(v.log_den()));
    }

    fn sample_bundle() -> BasketBundle {
        let mut b = BasketBundle::new();
        for level in 0..4u8 {
            let s = scalar(level, 3 + u16::from(level), EchoKind::Echo1)
                .with_background(Dyadic::new(1, 2))
                .with_exclude([-5, 40_000, i64::MIN])
                .with_entries([
                    (19_999, Dyadic::ONE),
                    (20_000, Dyadic::new(1, 2)),
                    (i64::MAX, Dyadic::ZERO),
                ]);
            b.sections.push(s);
        }
        b.sections.push(scalar(9, 1, EchoKind::Echo2));
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

    /// Decodes `bytes` into a fresh arena of `dims` dimensions and
    /// materializes the owned bundle it holds.
    fn arena_owned(bytes: &[u8], dims: usize) -> Result<BasketBundle, WireError> {
        let mut arena = BundleArena::new(dims);
        arena.decode(bytes)?;
        Ok(arena.to_owned())
    }

    /// The arena, the validating shim and the owned decoder read
    /// `bundle`, written at `dims` dimensions, alike: section by section,
    /// and every id in the dimensions the owned model gives it.
    fn view_matches_owned_decoder(bundle: &BasketBundle, dims: usize) {
        let bytes = bundle.to_bytes(dims);
        assert_eq!(validate(&bytes, dims), Ok(bundle.sections.len()));
        let mut arena = BundleArena::new(dims);
        arena.decode(&bytes).unwrap();
        assert_eq!(arena.len(), bundle.sections.len());
        assert_eq!(arena.to_owned(), *bundle);
        assert_eq!(BasketBundle::from_bytes(&bytes, dims).unwrap(), *bundle);
        for (flat, owned) in arena.sections().zip(&bundle.sections) {
            assert_eq!((flat.level, flat.round, flat.kind), (owned.level, owned.round, owned.kind));
            assert_eq!(flat.bg_mask, owned.backgrounds.mask());
            assert_eq!(
                flat.background_dims().collect::<Vec<_>>(),
                owned.backgrounds.dims().collect::<Vec<_>>()
            );
            assert_eq!(flat.basket_exclude().collect::<Vec<_>>(), owned.exclude);
            for ((k, mask, values), (ok, ovalues)) in flat.basket_entries().zip(&owned.entries) {
                assert_eq!((k, mask), (*ok, ovalues.mask()));
                assert_eq!(values, ovalues.dims().map(|(_, v)| v).collect::<Vec<_>>());
                for (dim, _) in ovalues.dims() {
                    assert!(flat.names_in(k, dim));
                }
            }
        }
        // Decoding again reuses the storage without reallocating.
        let capacity = arena.capacities();
        arena.decode(&bytes).unwrap();
        assert_eq!(arena.to_owned(), *bundle);
        assert_eq!(arena.capacities(), capacity);
        // The empty bundle parses too.
        let empty = BasketBundle::new().to_bytes(dims);
        assert_eq!(validate(&empty, dims), Ok(0));
        arena.decode(&empty).unwrap();
        assert!(arena.is_empty());
    }

    #[test]
    fn borrowed_bundle_view_matches_owned_decoder() {
        let bundle = sample_bundle();
        view_matches_owned_decoder(&bundle, 1);
        // Without per-id masks every id and the background live in
        // dimension 0.
        let mut arena = scalar_arena();
        arena.decode(&bundle.to_bytes(1)).unwrap();
        for (flat, owned) in arena.sections().zip(&bundle.sections) {
            assert!(flat.background_dims().all(|(dim, _)| dim == 0));
            assert!(flat.basket_exclude().all(|(_, mask)| mask == 1));
            let names = owned.exclude.iter().map(|(k, _)| k);
            for &k in names.chain(owned.entries.iter().map(|(k, _)| k)) {
                assert!(flat.names_in(k, 0) && !flat.names_in(k, 1));
            }
            assert!(!flat.names_in(123_456, 0));
        }
    }

    /// The arena, the validating shim and the owned decoder fail alike on
    /// every truncation of `bytes`, on `bytes` and a trailing byte, and on
    /// section and id counts past their caps (`over_ids` is a section head
    /// at `dims` dimensions, before its id count).
    fn rejects_what_owned_rejects(bytes: &[u8], dims: usize, mut over_ids: Writer) {
        let mut arena = BundleArena::new(dims);
        // Every truncation fails identically, and leaves the arena empty.
        for cut in 0..bytes.len() {
            let owned = BasketBundle::from_bytes(&bytes[..cut], dims).unwrap_err();
            assert_eq!(arena.decode(&bytes[..cut]).unwrap_err(), owned, "cut at {cut}");
            assert!(arena.is_empty() && arena.sections().next().is_none());
            assert_eq!(validate(&bytes[..cut], dims), Err(owned), "cut at {cut}");
        }
        let mut trailing = bytes.to_vec();
        trailing.push(0x55);
        let err = WireError::TrailingBytes;
        assert_eq!(BasketBundle::from_bytes(&trailing, dims).unwrap_err(), err);
        assert_eq!(arena.decode(&trailing).unwrap_err(), err);
        assert!(arena.is_empty());
        assert_eq!(validate(&trailing, dims), Err(err));
        let mut w = Writer::new();
        w.put_usize(MAX_SECTIONS + 1);
        over_ids.put_usize(MAX_IDS + 1);
        for over in [w.into_vec(), over_ids.into_vec()] {
            let owned = BasketBundle::from_bytes(&over, dims).unwrap_err();
            assert_eq!(owned, WireError::LengthOutOfBounds);
            assert_eq!(arena.decode(&over).unwrap_err(), owned);
            assert_eq!(validate(&over, dims), Err(owned));
        }
    }

    #[test]
    fn borrowed_bundle_rejects_what_owned_rejects() {
        let mut over_ids = Writer::new();
        over_ids.put_usize(1);
        over_ids.put_raw_u8(0); // flags: ECHO1, level and round follow
        over_ids.put_raw_u8(0);
        over_ids.put(&Round(1));
        rejects_what_owned_rejects(&sample_bundle().to_bytes(1), 1, over_ids);
    }

    #[test]
    fn one_dimension_background_mask_is_the_scalar_flag() {
        // Without per-id masks the background flag alone is the background
        // of dimension 0: no mask follows it. With masks, the same flag is
        // followed by the dimension mask.
        let mut w = Writer::new();
        w.put_usize(1);
        w.put_raw_u8(0b1000); // BACKGROUND
        w.put_raw_u8(0);
        w.put(&Round(1));
        w.put_u64(0b11 << 6); // m = 1: the value 3; m > 1: the mask {6, 7}
        w.put_usize(0); // entries
        let scalar = w.into_vec();
        let mut arena = scalar_arena();
        arena.decode(&scalar).unwrap();
        let bg: Vec<_> =
            arena.sections().flat_map(|s| s.background_dims().collect::<Vec<_>>()).collect();
        assert_eq!(bg, vec![(0, Dyadic::new(3, 0))]);
        // For a wider basket the same bytes name two backgrounds, and only
        // one value's worth follows the mask.
        assert_eq!(basket_arena().decode(&scalar), Err(WireError::Truncated));
        let mut w = Writer::new();
        w.put_usize(1);
        w.put_raw_u8(0b1000);
        w.put_raw_u8(0);
        w.put(&Round(1));
        w.put_u64(0b11);
        put_value(&mut w, Dyadic::ONE);
        put_value(&mut w, Dyadic::new(1, 1));
        w.put_usize(0);
        let mut arena = basket_arena();
        arena.decode(&w.into_vec()).unwrap();
        let flat = arena.sections().next().unwrap();
        assert_eq!(flat.bg_mask, 0b11);
        assert_eq!(flat.backgrounds, [Dyadic::ONE, Dyadic::new(1, 1)]);
    }

    #[test]
    fn hostile_length_prefix_does_not_size_the_arena() {
        // A bundle that *claims* the maximum section and id counts but
        // carries a handful of bytes: the arena grows by what decoded,
        // not by what the prefixes promised.
        for mut arena in [scalar_arena(), basket_arena()] {
            let mut w = Writer::new();
            w.put_usize(MAX_SECTIONS);
            w.put_raw_u8(0); // flags: no background
            w.put_raw_u8(0);
            w.put(&Round(1));
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

    fn kind(echo2: bool) -> EchoKind {
        if echo2 {
            EchoKind::Echo2
        } else {
            EchoKind::Echo1
        }
    }

    /// Levels that often follow each other, and that reach 255.
    fn level() -> impl Strategy<Value = u8> {
        (any::<bool>(), 0u8..4).prop_map(|(top, level)| if top { 252 + level } else { level })
    }

    /// Rounds that often repeat, of one and two varint bytes.
    fn round() -> impl Strategy<Value = Round> {
        (any::<bool>(), 1u16..3).prop_map(|(far, r)| Round(if far { r + 300 } else { r }))
    }

    /// Ids clustered near honest inputs, or anywhere in `i64`.
    fn id() -> impl Strategy<Value = i64> {
        (any::<bool>(), any::<i64>(), 0i64..8).prop_map(
            |(wide, k, near)| {
                if wide {
                    k
                } else {
                    20_000 + near
                }
            },
        )
    }

    /// Values that are often zero, one or equal, and sometimes anything.
    fn dyadic() -> impl Strategy<Value = Dyadic> {
        (any::<bool>(), any::<u8>(), 0u8..60).prop_map(|(wide, num, den)| {
            if wide {
                Dyadic::new(u64::from(num), den)
            } else {
                Dyadic::new(u64::from(num % 2), den % 2)
            }
        })
    }

    fn vector() -> impl Strategy<Value = VectorValue> {
        proptest::collection::vec((any::<bool>(), 0u16..64, dyadic()), 0..4).prop_map(|dims| {
            let mut vv = VectorValue::new();
            for (wide, dim, value) in dims {
                vv.set(if wide { dim } else { dim % 3 }, value);
            }
            vv
        })
    }

    /// Entry ids made a run — consecutive from the first, wrapping — if
    /// `run`: the writer's `RUN` flag fires on two or more of them.
    fn consecutive<V>(run: bool, entries: &mut [(i64, V)]) {
        let first = entries.first().map_or(0, |&(k, _)| k);
        if run {
            (0..).zip(entries.iter_mut()).for_each(|(i, (k, _))| *k = first.wrapping_add(i));
        }
    }

    /// Scalar bundles as the encoder may meet them: every flag both ways.
    /// An exclude run without a background is dropped on the wire, so the
    /// generator leaves it off.
    fn scalar_bundle() -> impl Strategy<Value = BasketBundle> {
        let section = (
            (level(), round(), any::<bool>()),
            (any::<bool>(), dyadic()),
            proptest::collection::vec(id(), 0..4),
            (any::<bool>(), proptest::collection::vec((id(), dyadic()), 0..5)),
        )
            .prop_map(
                |((level, round, echo2), (has_bg, bg), exclude, (run, mut entries))| {
                    let mut s = BasketSection::new(level, round, kind(echo2));
                    if has_bg {
                        s = s.with_background(bg).with_exclude(exclude);
                    }
                    consecutive(run, &mut entries);
                    s.with_entries(entries)
                },
            );
        proptest::collection::vec(section, 0..6).prop_map(|sections| BasketBundle { sections })
    }

    fn basket_bundle() -> impl Strategy<Value = BasketBundle> {
        let section = (
            (level(), round(), any::<bool>()),
            vector(),
            proptest::collection::vec((id(), any::<u64>()), 0..4),
            (any::<bool>(), proptest::collection::vec((id(), vector()), 0..4)),
        )
            .prop_map(
                |((level, round, echo2), backgrounds, exclude, (run, mut entries))| {
                    let mut s = BasketSection::new(level, round, kind(echo2));
                    if !backgrounds.is_empty() {
                        s.exclude = exclude;
                    }
                    s.backgrounds = backgrounds;
                    consecutive(run, &mut entries);
                    s.entries = entries;
                    s
                },
            );
        proptest::collection::vec(section, 0..5).prop_map(|sections| BasketBundle { sections })
    }

    /// `bytes` with one edit at `at`: `op` 0 overwrites that byte with
    /// `byte`, 1 inserts `byte` before it, 2 deletes it, 3 cuts there.
    fn mutate(bytes: &[u8], (op, at, byte): (u8, usize, u8)) -> Vec<u8> {
        let mut out = bytes.to_vec();
        let at = at % (out.len() + 1);
        match (op % 4, at < out.len()) {
            (0, true) => out[at] = byte,
            (1, _) => out.insert(at, byte),
            (2, true) => {
                out.remove(at);
            }
            _ => out.truncate(at),
        }
        out
    }

    /// What holds for *any* input at `dims` dimensions: decoding does not
    /// panic; the arena, the validating shim and the owned decoder agree;
    /// the arena's storage stays within one value per input byte and
    /// dimension (capacity doubles as it grows, hence the 2); a failure
    /// leaves the arena empty; and a success re-encodes to bytes that
    /// decode to the same sections.
    fn check_any_input(input: &[u8], dims: usize) {
        let mut arena = BundleArena::new(dims);
        let result = arena.decode(input);
        let (heads, ids, masks, values) = arena.capacities();
        let per_byte = (2 * input.len()).max(4);
        assert!(heads <= per_byte && ids <= per_byte && masks <= per_byte, "{input:?}");
        assert!(values <= (per_byte * dims).max(4), "{values} values from {input:?}");
        assert_eq!(result.map(|_| arena.len()), validate(input, dims));
        match result {
            Err(err) => assert_eq!(BasketBundle::from_bytes(input, dims), Err(err)),
            Ok(_) => {
                let owned = arena.to_owned();
                assert_eq!(BasketBundle::from_bytes(input, dims).as_ref(), Ok(&owned));
                assert_eq!(arena_owned(&owned.to_bytes(dims), dims), Ok(owned));
            }
        }
        if result.is_err() {
            assert!(arena.is_empty() && arena.sections().next().is_none());
        }
    }

    /// Round trip: `bundle` written at `dims` dimensions reads back as
    /// itself through the arena and the owned decoder, and the shim counts
    /// its sections.
    fn roundtrips(bundle: &BasketBundle, dims: usize) {
        let bytes = bundle.to_bytes(dims);
        assert_eq!(arena_owned(&bytes, dims).as_ref(), Ok(bundle));
        assert_eq!(BasketBundle::from_bytes(&bytes, dims).as_ref(), Ok(bundle));
        assert_eq!(validate(&bytes, dims), Ok(bundle.sections.len()));
    }

    fn validate(input: &[u8], dims: usize) -> Result<usize, WireError> {
        if dims == 1 {
            DelphiBundleRef::parse(input).map(|b| b.len())
        } else {
            BasketBundleRef::parse(input).map(|b| b.len())
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Round trip: encoding then decoding gives back the sections.
        #[test]
        fn prop_borrowed_bundle_roundtrip_equivalence(bundle in scalar_bundle()) {
            roundtrips(&bundle, 1);
        }

        /// Noise and truncated noise, at one dimension and at eight.
        #[test]
        fn prop_borrowed_bundle_error_equivalence(
            bytes in proptest::collection::vec(any::<u8>(), 0..96),
            cut in 0usize..96,
        ) {
            let cut = cut.min(bytes.len());
            for input in [&bytes[..], &bytes[..cut]] {
                check_any_input(input, 1);
                check_any_input(input, 8);
            }
        }

        /// Mutated and truncated compact bundles: every flag combination
        /// an honest encoder emits, then one edit anywhere.
        #[test]
        fn prop_mutated_scalar_bundles_decode_or_fail_bounded(
            bundle in scalar_bundle(),
            edits in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<u8>()), 1..4),
        ) {
            let bytes = bundle.to_bytes(1);
            for edit in edits {
                let input = mutate(&bytes, edit);
                check_any_input(&input, 1);
                check_any_input(&input, 8);
            }
        }

        #[test]
        fn prop_mutated_basket_bundles_decode_or_fail_bounded(
            bundle in basket_bundle(),
            edits in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<u8>()), 1..4),
        ) {
            let bytes = bundle.to_bytes(8);
            for edit in edits {
                let input = mutate(&bytes, edit);
                check_any_input(&input, 8);
                check_any_input(&input, 1);
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
            assert_eq!(reread(&one(s.clone()), 64).unwrap(), one(s.clone()));
        }
        assert_eq!(reread(&bundle, 64).unwrap(), bundle);
        assert!(!bundle.is_empty());
        assert!(BasketBundle::new().is_empty());
        assert!(one(BasketSection::new(0, Round(1), EchoKind::Echo1)).is_empty());
    }

    #[test]
    fn basket_section_without_backgrounds_omits_exclude_run() {
        // The exclude run rides the background flag exactly like the
        // scalar section's: no backgrounds, no run on the wire.
        let mut with_ex = BasketSection::new(0, Round(1), EchoKind::Echo1);
        with_ex.exclude = vec![(1, 1), (2, 2)];
        let bare = BasketSection::new(0, Round(1), EchoKind::Echo1);
        assert_eq!(one(with_ex.clone()).to_bytes(64), one(bare.clone()).to_bytes(64));
        assert_eq!(reread(&one(with_ex), 64).unwrap(), one(bare));
    }

    #[test]
    fn basket_shares_one_id_run_across_dimensions() {
        // The vector win on the wire: m dimensions echoing the same
        // checkpoints cost one id-run, not m scalar sections. The values
        // are distinct, so none is shared.
        let value = |k: i64, d: u16| Dyadic::new(2 * (8 * k as u64 + u64::from(d)) + 1, 7);
        // The 64 values are irreducible payload either way; the id-run
        // sharing shows up in the framing overhead (headers, id runs,
        // counts, masks). Ids 3 apart pay a delta per id, which the basket
        // pays once: overhead shrinks by at least 3x. Consecutive ids are
        // a run, whose count and first id cost the same whether shared or
        // not: the headers alone shrink it by at least 2x.
        for (step, factor) in [(3, 3), (1, 2)] {
            let ids = (0..8i64).map(|k| (k, 20_000 + step * k));
            let mut vector = BasketSection::new(0, Round(1), EchoKind::Echo1);
            vector.entries = ids
                .clone()
                .map(|(k, id)| {
                    let mut vv = VectorValue::new();
                    for d in 0..8 {
                        vv.set(d, value(k, d));
                    }
                    (id, vv)
                })
                .collect();
            let mut scalar_total = 0;
            for d in 0..8 {
                let s = scalar(0, 1, EchoKind::Echo1)
                    .with_entries(ids.clone().map(|(k, id)| (id, value(k, d))));
                scalar_total += one(s).to_bytes(1).len();
            }
            let vector_total = one(vector).to_bytes(8).len();
            assert!(
                vector_total < scalar_total,
                "vector {vector_total}B vs 8 scalar sections {scalar_total}B"
            );
            let mut values = Writer::new();
            (0..8).for_each(|k| (0..8).for_each(|d| put_value(&mut values, value(k, d))));
            let vector_overhead = vector_total - values.len();
            let scalar_overhead = scalar_total - values.len();
            assert!(
                vector_overhead * factor < scalar_overhead,
                "step {step}: vector overhead {vector_overhead}B vs scalar {scalar_overhead}B"
            );
        }
    }

    #[test]
    fn borrowed_basket_view_matches_owned_decoder() {
        let bundle = sample_basket_bundle();
        view_matches_owned_decoder(&bundle, 64);
        let mut arena = basket_arena();
        arena.decode(&bundle.to_bytes(64)).unwrap();
        for (flat, owned) in arena.sections().zip(&bundle.sections) {
            for (&(k, mask), dim) in owned.exclude.iter().zip([0u16, 5, 63]) {
                assert_eq!(flat.names_in(k, dim), mask & (1 << dim) != 0);
            }
        }
    }

    #[test]
    fn borrowed_basket_rejects_what_owned_rejects() {
        let mut over_ids = Writer::new();
        over_ids.put_usize(1);
        over_ids.put_raw_u8(0b1_1000); // BACKGROUND | ZERO_BACKGROUNDS
        over_ids.put_raw_u8(0);
        over_ids.put(&Round(1));
        over_ids.put_u64(0b1);
        rejects_what_owned_rejects(&sample_basket_bundle().to_bytes(64), 64, over_ids);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Round trip at two or more dimensions: encoding then decoding
        /// gives back the sections.
        #[test]
        fn prop_borrowed_basket_roundtrip_equivalence(bundle in basket_bundle()) {
            roundtrips(&bundle, 64);
        }

        /// Noise and truncated noise at a full basket.
        #[test]
        fn prop_borrowed_basket_error_equivalence(
            bytes in proptest::collection::vec(any::<u8>(), 0..96),
            cut in 0usize..96,
        ) {
            let cut = cut.min(bytes.len());
            for input in [&bytes[..], &bytes[..cut]] {
                check_any_input(input, 64);
            }
        }
    }

    #[test]
    fn bundle_wire_size_is_compact() {
        // A realistic per-round bundle: 11 levels, background + 4 entries
        // each. Should be well under 1 KiB.
        let mut b = BasketBundle::new();
        for level in 0..11u8 {
            let s = scalar(level, 12, EchoKind::Echo1)
                .with_background(Dyadic::ZERO)
                .with_exclude([20_000, 20_001])
                .with_entries([
                    (19_999, Dyadic::new(123, 20)),
                    (20_000, Dyadic::new(124, 20)),
                    (20_001, Dyadic::ONE),
                    (20_002, Dyadic::ZERO),
                ]);
            b.sections.push(s);
        }
        let len = b.to_bytes(1).len();
        assert!(len < 1024, "bundle is {len} bytes");
    }
}
