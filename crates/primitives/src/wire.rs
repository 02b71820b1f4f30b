//! A small, dependency-free binary codec.
//!
//! Every protocol in the workspace encodes its own messages with this codec,
//! so the simulator and the TCP transport both move plain bytes, and the
//! bandwidth reported by the benchmark harness is exactly the number of
//! bytes a real deployment would put on the wire.
//!
//! The format is deliberately simple:
//!
//! - unsigned integers are LEB128 varints ([`Writer::put_u64`]);
//! - signed integers are zig-zag encoded then varint ([`Writer::put_i64`]);
//! - `f64` is the IEEE-754 bit pattern, little endian;
//! - byte strings are length-prefixed;
//! - there is no self-description: reader and writer must agree on the
//!   schema, and [`Reader`] validates bounds on every read so malformed or
//!   truncated (Byzantine) input yields [`WireError`], never a panic.
//!
//! # Example
//!
//! ```
//! use delphi_primitives::wire::{Reader, Writer};
//!
//! let mut w = Writer::new();
//! w.put_u64(300);
//! w.put_i64(-7);
//! w.put_f64(2.5);
//! let bytes = w.into_bytes();
//!
//! let mut r = Reader::new(&bytes);
//! assert_eq!(r.get_u64().unwrap(), 300);
//! assert_eq!(r.get_i64().unwrap(), -7);
//! assert_eq!(r.get_f64().unwrap(), 2.5);
//! assert!(r.is_empty());
//! ```

use std::error::Error;
use std::fmt;

use bytes::Bytes;

/// Maximum length accepted for a length-prefixed byte string (16 MiB).
///
/// This bounds the allocation a Byzantine sender can force with a single
/// declared length, independent of transport-level frame limits.
pub const MAX_BYTES_LEN: usize = 16 * 1024 * 1024;

/// Error produced when decoding malformed or truncated wire data.
///
/// All variants are *expected* conditions when reading attacker-controlled
/// bytes; decoders in this workspace treat them by discarding the message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value was complete.
    Truncated,
    /// A varint used more bytes than the maximum for its type.
    VarintOverflow,
    /// A length prefix exceeded [`MAX_BYTES_LEN`] or the remaining input.
    LengthOutOfBounds,
    /// An enum discriminant or flag had no defined meaning.
    InvalidDiscriminant(u64),
    /// A value violated a schema-level invariant (e.g. a [`crate::Dyadic`]
    /// with an exponent above the supported maximum).
    InvalidValue,
    /// Trailing bytes remained after a message that must consume its input.
    TrailingBytes,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated"),
            WireError::VarintOverflow => write!(f, "varint overflow"),
            WireError::LengthOutOfBounds => write!(f, "length prefix out of bounds"),
            WireError::InvalidDiscriminant(d) => write!(f, "invalid discriminant {d}"),
            WireError::InvalidValue => write!(f, "value violates schema invariant"),
            WireError::TrailingBytes => write!(f, "trailing bytes after message"),
        }
    }
}

impl Error for WireError {}

/// Append-only buffer for encoding a message.
///
/// See the [module docs](self) for the format and an example.
#[derive(Clone, Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Creates a writer with `capacity` bytes preallocated.
    pub fn with_capacity(capacity: usize) -> Self {
        Writer { buf: Vec::with_capacity(capacity) }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a single raw byte.
    #[inline]
    pub fn put_raw_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends an unsigned varint (LEB128).
    #[inline]
    pub fn put_u64(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends a `u32` as a varint.
    pub fn put_u32(&mut self, v: u32) {
        self.put_u64(u64::from(v));
    }

    /// Appends a `u16` as a varint.
    pub fn put_u16(&mut self, v: u16) {
        self.put_u64(u64::from(v));
    }

    /// Appends a `usize` as a varint.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a signed integer with zig-zag encoding.
    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.put_u64(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern, little endian.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a boolean as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends raw bytes without a length prefix (caller owns framing).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends any [`Encode`] value.
    pub fn put<T: Encode + ?Sized>(&mut self, v: &T) {
        v.encode(self);
    }

    /// Appends a slice as a length-prefixed sequence of [`Encode`] values.
    pub fn put_seq<T: Encode>(&mut self, items: &[T]) {
        self.put_usize(items.len());
        for item in items {
            item.encode(self);
        }
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Forgets everything written, keeping the buffer for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Forgets everything written after the first `len` bytes.
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// Finishes encoding and returns the bytes.
    pub fn into_bytes(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Finishes encoding and returns the underlying vector.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked cursor for decoding a message.
///
/// See the [module docs](self) for the format and an example.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether all input has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// The not-yet-consumed bytes, borrowed at the input's lifetime.
    ///
    /// Zero-copy decoders use this to capture the raw slice behind a
    /// value region: take `tail()` before and after reading a region and
    /// the difference is the region's exact encoding, sliceable without
    /// copying.
    #[inline]
    pub fn tail(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Reads one raw byte.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] if the input is exhausted.
    #[inline]
    pub fn get_raw_u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads an unsigned varint.
    ///
    /// The decode hot path (Delphi's bundles are walls of varints):
    /// a single-byte varint — counts, checkpoint deltas, small numerators —
    /// is read inline after one bounds check; longer ones (and errors) go
    /// to an out-of-line reader, so callers inline only the short case.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] on short input, [`WireError::VarintOverflow`]
    /// if the encoding exceeds 10 bytes or overflows 64 bits.
    #[inline(always)]
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        match self.buf.get(self.pos) {
            Some(&byte) if byte < 0x80 => {
                self.pos += 1;
                Ok(u64::from(byte))
            }
            _ => self.get_wide_u64(),
        }
    }

    /// [`Reader::get_u64`] past its one-byte case: a varint of two bytes
    /// or more, or none at all.
    #[cold]
    #[inline(never)]
    fn get_wide_u64(&mut self) -> Result<u64, WireError> {
        // The cursor stays in a local until the value is complete: the
        // write-back to `self.pos` happens once per varint, not per byte.
        let mut pos = self.pos;
        let Some(&first) = self.buf.get(pos) else { return Err(WireError::Truncated) };
        pos += 1;
        let mut value = u64::from(first & 0x7f);
        let mut shift = 7u32;
        loop {
            let Some(&byte) = self.buf.get(pos) else { return Err(WireError::Truncated) };
            pos += 1;
            if shift == 63 && byte > 1 {
                return Err(WireError::VarintOverflow);
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                self.pos = pos;
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(WireError::VarintOverflow);
            }
        }
    }

    /// Reads a `u32` varint, rejecting values out of range.
    ///
    /// # Errors
    ///
    /// See [`Reader::get_u64`]; additionally [`WireError::VarintOverflow`] if
    /// the value does not fit in `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        u32::try_from(self.get_u64()?).map_err(|_| WireError::VarintOverflow)
    }

    /// Reads a `u16` varint, rejecting values out of range.
    ///
    /// # Errors
    ///
    /// See [`Reader::get_u32`].
    #[inline]
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        u16::try_from(self.get_u64()?).map_err(|_| WireError::VarintOverflow)
    }

    /// Reads a `usize` varint, rejecting values out of range.
    ///
    /// # Errors
    ///
    /// See [`Reader::get_u64`].
    #[inline]
    pub fn get_usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.get_u64()?).map_err(|_| WireError::VarintOverflow)
    }

    /// Reads a zig-zag-encoded signed integer.
    ///
    /// # Errors
    ///
    /// See [`Reader::get_u64`].
    #[inline]
    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        let raw = self.get_u64()?;
        Ok((raw >> 1) as i64 ^ -((raw & 1) as i64))
    }

    /// Reads an `f64` bit pattern.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer than 8 bytes remain.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        let raw = self.get_exact(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(raw);
        Ok(f64::from_bits(u64::from_le_bytes(arr)))
    }

    /// Reads a boolean, rejecting bytes other than 0 or 1.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] or [`WireError::InvalidDiscriminant`].
    #[inline]
    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_raw_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            d => Err(WireError::InvalidDiscriminant(u64::from(d))),
        }
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// [`WireError::LengthOutOfBounds`] if the declared length exceeds
    /// [`MAX_BYTES_LEN`] or the remaining input; [`WireError::Truncated`] on
    /// short input.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_usize()?;
        if len > MAX_BYTES_LEN || len > self.remaining() {
            return Err(WireError::LengthOutOfBounds);
        }
        self.get_exact(len)
    }

    /// Reads exactly `len` raw bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer than `len` bytes remain.
    #[inline]
    pub fn get_exact(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < len {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    /// Reads any [`Decode`] value.
    ///
    /// # Errors
    ///
    /// Whatever `T::decode` returns.
    pub fn get<T: Decode>(&mut self) -> Result<T, WireError> {
        T::decode(self)
    }

    /// Reads a length-prefixed sequence of [`Decode`] values.
    ///
    /// `max_len` bounds the element count so a Byzantine length prefix
    /// cannot force a huge allocation.
    ///
    /// # Errors
    ///
    /// [`WireError::LengthOutOfBounds`] if the declared count exceeds
    /// `max_len`, plus whatever `T::decode` returns.
    pub fn get_seq<T: Decode>(&mut self, max_len: usize) -> Result<Vec<T>, WireError> {
        let len = self.get_usize()?;
        if len > max_len {
            return Err(WireError::LengthOutOfBounds);
        }
        let mut items = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            items.push(T::decode(self)?);
        }
        Ok(items)
    }

    /// Asserts that the input has been fully consumed.
    ///
    /// # Errors
    ///
    /// [`WireError::TrailingBytes`] if bytes remain.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

#[cfg(test)]
impl Reader<'_> {
    /// Validates and skips one unsigned varint without materializing its
    /// value — the cheap half of [`Reader::get_u64`] for decoders that
    /// only need to find a boundary (e.g. delta-coded id runs whose
    /// wrapping sum cannot fail).
    ///
    /// # Errors
    ///
    /// Exactly [`Reader::get_u64`]'s: [`WireError::Truncated`] on short
    /// input, [`WireError::VarintOverflow`] past 10 bytes or 64 bits.
    #[inline]
    pub fn skip_u64(&mut self) -> Result<(), WireError> {
        let mut pos = self.pos;
        let Some(&first) = self.buf.get(pos) else { return Err(WireError::Truncated) };
        pos += 1;
        if first < 0x80 {
            self.pos = pos;
            return Ok(());
        }
        let mut shift = 7u32;
        loop {
            let Some(&byte) = self.buf.get(pos) else { return Err(WireError::Truncated) };
            pos += 1;
            if shift == 63 && byte > 1 {
                return Err(WireError::VarintOverflow);
            }
            if byte & 0x80 == 0 {
                self.pos = pos;
                return Ok(());
            }
            shift += 7;
            if shift > 63 {
                return Err(WireError::VarintOverflow);
            }
        }
    }
}

/// A value that can be appended to a [`Writer`].
pub trait Encode {
    /// Appends `self` to the writer.
    fn encode(&self, w: &mut Writer);

    /// Convenience: encodes `self` into a fresh byte buffer.
    fn to_bytes(&self) -> Bytes {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }
}

/// A value that can be parsed from a [`Reader`].
pub trait Decode: Sized {
    /// Parses a value, consuming exactly its encoding.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the input is malformed or truncated.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Convenience: decodes a value from `bytes`, requiring full consumption.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the input is malformed, truncated, or has
    /// trailing bytes.
    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

impl Encode for u16 {
    fn encode(&self, w: &mut Writer) {
        w.put_u16(*self);
    }
}

impl Decode for u16 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.get_u16()
    }
}

impl Encode for f64 {
    fn encode(&self, w: &mut Writer) {
        w.put_f64(*self);
    }
}

impl Decode for f64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.get_f64()
    }
}

/// Maximum dimensions a [`VectorValue`] can address (its membership mask
/// is a single `u64`).
pub const MAX_VECTOR_DIMS: u16 = 64;

/// A sparse per-dimension value assignment for vector-valued (basket)
/// agreement.
///
/// Scalar Delphi bundles carry one [`crate::Dyadic`] per echo; the
/// vector-valued variant agrees on a whole basket at once, so each echo
/// carries up to [`MAX_VECTOR_DIMS`] per-dimension values: a membership
/// mask (bit `d` set iff dimension `d` has a value) and the values of the
/// set bits in ascending dimension order, so absent dimensions cost
/// nothing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VectorValue {
    /// Bit `d` set iff dimension `d` carries a value.
    mask: u64,
    /// Values of the set dimensions, ascending by dimension.
    values: Vec<crate::Dyadic>,
}

impl VectorValue {
    /// An empty assignment (no dimension has a value).
    pub fn new() -> VectorValue {
        VectorValue::default()
    }

    /// An assignment holding `value` for `dim` alone.
    ///
    /// # Panics
    ///
    /// Panics if `dim >= MAX_VECTOR_DIMS`.
    pub fn single(dim: u16, value: crate::Dyadic) -> VectorValue {
        let mut v = VectorValue::new();
        v.set(dim, value);
        v
    }

    /// Index of `dim`'s value in `values`: the number of set bits below it.
    fn slot(&self, dim: u16) -> usize {
        (self.mask & ((1u64 << dim) - 1)).count_ones() as usize
    }

    /// Sets (or replaces) the value for `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim >= MAX_VECTOR_DIMS`.
    pub fn set(&mut self, dim: u16, value: crate::Dyadic) {
        assert!(dim < MAX_VECTOR_DIMS, "dimension {dim} out of range");
        let slot = self.slot(dim);
        if self.mask & (1u64 << dim) == 0 {
            self.mask |= 1u64 << dim;
            self.values.insert(slot, value);
        } else {
            self.values[slot] = value;
        }
    }

    /// The value for `dim`, if any.
    pub fn get(&self, dim: u16) -> Option<crate::Dyadic> {
        if dim >= MAX_VECTOR_DIMS || self.mask & (1u64 << dim) == 0 {
            return None;
        }
        Some(self.values[self.slot(dim)])
    }

    /// Whether `dim` carries a value.
    pub fn contains(&self, dim: u16) -> bool {
        dim < MAX_VECTOR_DIMS && self.mask & (1u64 << dim) != 0
    }

    /// The membership mask (bit `d` set iff dimension `d` has a value).
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// Number of dimensions carrying a value.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no dimension carries a value.
    pub fn is_empty(&self) -> bool {
        self.mask == 0
    }

    /// Iterates the `(dimension, value)` pairs, ascending by dimension.
    pub fn dims(&self) -> impl Iterator<Item = (u16, crate::Dyadic)> + '_ {
        MaskBits(self.mask).zip(self.values.iter().copied())
    }

    /// Removes every dimension (keeps the value capacity).
    pub fn clear(&mut self) {
        self.mask = 0;
        self.values.clear();
    }
}

/// Iterator over the set bit positions of a `u64`, ascending.
struct MaskBits(u64);

impl Iterator for MaskBits {
    type Item = u16;

    fn next(&mut self) -> Option<u16> {
        if self.0 == 0 {
            return None;
        }
        let dim = self.0.trailing_zeros() as u16;
        self.0 &= self.0 - 1;
        Some(dim)
    }
}

/// Encodes `value` then decodes it again; used pervasively in tests.
///
/// # Errors
///
/// Returns a [`WireError`] if the roundtrip fails, which always indicates a
/// codec bug.
pub fn roundtrip<T: Encode + Decode>(value: &T) -> Result<T, WireError> {
    T::from_bytes(&value.to_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Codec impls only these tests use; the protocols encode these
    // scalars through the `Writer`/`Reader` methods directly.
    impl Encode for u64 {
        fn encode(&self, w: &mut Writer) {
            w.put_u64(*self);
        }
    }

    impl Decode for u64 {
        fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
            r.get_u64()
        }
    }

    impl Encode for i64 {
        fn encode(&self, w: &mut Writer) {
            w.put_i64(*self);
        }
    }

    impl Decode for i64 {
        fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
            r.get_i64()
        }
    }

    impl Encode for u32 {
        fn encode(&self, w: &mut Writer) {
            w.put_u32(*self);
        }
    }

    impl Decode for u32 {
        fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
            r.get_u32()
        }
    }

    impl Encode for bool {
        fn encode(&self, w: &mut Writer) {
            w.put_bool(*self);
        }
    }

    impl Decode for bool {
        fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
            r.get_bool()
        }
    }

    impl<A: Encode, B: Encode> Encode for (A, B) {
        fn encode(&self, w: &mut Writer) {
            self.0.encode(w);
            self.1.encode(w);
        }
    }

    impl<A: Decode, B: Decode> Decode for (A, B) {
        fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
            Ok((A::decode(r)?, B::decode(r)?))
        }
    }

    #[test]
    fn varint_boundaries() {
        let cases = [0u64, 1, 127, 128, 255, 16_383, 16_384, u32::MAX as u64, u64::MAX];
        for v in cases {
            let mut w = Writer::new();
            w.put_u64(v);
            let bytes = w.into_vec();
            let mut r = Reader::new(&bytes);
            assert_eq!(r.get_u64().unwrap(), v, "roundtrip of {v}");
            assert!(r.is_empty());
        }
    }

    #[test]
    fn varint_encoding_is_minimal_width() {
        let mut w = Writer::new();
        w.put_u64(127);
        assert_eq!(w.len(), 1);
        let mut w = Writer::new();
        w.put_u64(128);
        assert_eq!(w.len(), 2);
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        assert_eq!(w.len(), 10);
    }

    #[test]
    fn varint_overflow_rejected() {
        // 11 continuation bytes: too long for any u64.
        let bytes = [0xff; 11];
        assert_eq!(Reader::new(&bytes).get_u64(), Err(WireError::VarintOverflow));
        // 10 bytes but the last contributes more than the single spare bit.
        let bytes = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        assert_eq!(Reader::new(&bytes).get_u64(), Err(WireError::VarintOverflow));
    }

    #[test]
    fn skip_u64_matches_get_u64_exactly() {
        // Valid varints of every width, then the overflow and truncation
        // edges: skip must consume and err exactly like get.
        let mut cases: Vec<Vec<u8>> = vec![
            vec![0x00],
            vec![0x7f],
            vec![0x80, 0x01],
            vec![0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01], // u64::MAX
            vec![0xff; 11],                                                   // too long
            vec![0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02], // top bits
            vec![0x80],                                                       // truncated
            vec![],
        ];
        cases.push((0..10).map(|_| 0x80).chain([0x01]).collect()); // max width, high bit clear
        for bytes in cases {
            let mut get = Reader::new(&bytes);
            let mut skip = Reader::new(&bytes);
            let got = get.get_u64().map(|_| ());
            assert_eq!(skip.skip_u64(), got, "{bytes:?}");
            assert_eq!(skip.remaining(), get.remaining(), "{bytes:?}");
        }
    }

    #[test]
    fn tail_exposes_unconsumed_bytes() {
        let bytes = [1u8, 2, 3, 4];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.tail(), &bytes);
        let _ = r.get_raw_u8().unwrap();
        assert_eq!(r.tail(), &bytes[1..]);
        let before = r.tail();
        let _ = r.get_raw_u8().unwrap();
        // The region read is the difference of the two tails.
        let region = &before[..before.len() - r.tail().len()];
        assert_eq!(region, &[2]);
    }

    #[test]
    fn truncated_varint_rejected() {
        let bytes = [0x80u8];
        assert_eq!(Reader::new(&bytes).get_u64(), Err(WireError::Truncated));
        assert_eq!(Reader::new(&[]).get_u64(), Err(WireError::Truncated));
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN, 1234567, -7654321] {
            let mut w = Writer::new();
            w.put_i64(v);
            let bytes = w.into_vec();
            assert_eq!(Reader::new(&bytes).get_i64().unwrap(), v);
        }
    }

    #[test]
    fn zigzag_small_magnitudes_encode_small() {
        for v in [-64i64, 63] {
            let mut w = Writer::new();
            w.put_i64(v);
            assert_eq!(w.len(), 1, "zig-zag of {v} should be 1 byte");
        }
    }

    #[test]
    fn f64_roundtrip_preserves_bits() {
        for v in [0.0, -0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE] {
            let mut w = Writer::new();
            w.put_f64(v);
            let bytes = w.into_vec();
            let back = Reader::new(&bytes).get_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        let mut w = Writer::new();
        w.put_f64(f64::NAN);
        let bytes = w.into_vec();
        assert!(Reader::new(&bytes).get_f64().unwrap().is_nan());
    }

    #[test]
    fn bool_rejects_other_bytes() {
        assert_eq!(Reader::new(&[0]).get_bool(), Ok(false));
        assert_eq!(Reader::new(&[1]).get_bool(), Ok(true));
        assert_eq!(Reader::new(&[2]).get_bool(), Err(WireError::InvalidDiscriminant(2)));
    }

    #[test]
    fn bytes_length_bounds_enforced() {
        let mut w = Writer::new();
        w.put_bytes(b"hello");
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert!(r.finish().is_ok());

        // Length prefix claims more than remains.
        let mut w = Writer::new();
        w.put_usize(10);
        w.put_raw(b"short");
        let buf = w.into_vec();
        assert_eq!(Reader::new(&buf).get_bytes(), Err(WireError::LengthOutOfBounds));

        // Length prefix larger than MAX_BYTES_LEN.
        let mut w = Writer::new();
        w.put_usize(MAX_BYTES_LEN + 1);
        let buf = w.into_vec();
        assert_eq!(Reader::new(&buf).get_bytes(), Err(WireError::LengthOutOfBounds));
    }

    #[test]
    fn seq_respects_max_len() {
        let mut w = Writer::new();
        w.put_seq(&[crate::NodeId(1), crate::NodeId(2), crate::NodeId(3)]);
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        let back: Vec<crate::NodeId> = r.get_seq(3).unwrap();
        assert_eq!(back.len(), 3);

        let mut r = Reader::new(&buf);
        assert_eq!(r.get_seq::<crate::NodeId>(2), Err(WireError::LengthOutOfBounds));
    }

    #[test]
    fn finish_flags_trailing_bytes() {
        let mut r = Reader::new(&[1, 2]);
        let _ = r.get_raw_u8().unwrap();
        assert_eq!(r.finish(), Err(WireError::TrailingBytes));
    }

    #[test]
    fn vector_value_set_get_and_order() {
        use crate::Dyadic;
        let mut v = VectorValue::new();
        assert!(v.is_empty());
        assert_eq!(v.get(0), None);
        v.set(5, Dyadic::ONE);
        v.set(0, Dyadic::ZERO);
        v.set(63, Dyadic::new(3, 2));
        assert_eq!(v.len(), 3);
        assert_eq!(v.mask(), (1 << 5) | 1 | (1 << 63));
        assert_eq!(v.get(5), Some(Dyadic::ONE));
        assert_eq!(v.get(0), Some(Dyadic::ZERO));
        assert_eq!(v.get(63), Some(Dyadic::new(3, 2)));
        assert_eq!(v.get(7), None);
        assert!(v.contains(63) && !v.contains(64));
        // dims() ascends regardless of insertion order.
        let pairs: Vec<_> = v.dims().collect();
        assert_eq!(pairs, vec![(0, Dyadic::ZERO), (5, Dyadic::ONE), (63, Dyadic::new(3, 2))]);
        // Replacement keeps the slot.
        v.set(5, Dyadic::new(1, 2));
        assert_eq!(v.get(5), Some(Dyadic::new(1, 2)));
        assert_eq!(v.len(), 3);
        v.clear();
        assert!(v.is_empty());
        assert_eq!(v.dims().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn vector_value_dim_bound_enforced() {
        let _ = VectorValue::single(64, crate::Dyadic::ONE);
    }

    #[test]
    fn error_display_is_nonempty() {
        let errors = [
            WireError::Truncated,
            WireError::VarintOverflow,
            WireError::LengthOutOfBounds,
            WireError::InvalidDiscriminant(9),
            WireError::InvalidValue,
            WireError::TrailingBytes,
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
