//! The byte-level primitives: [`StateWriter`] appends little-endian fields to an
//! in-memory section payload, [`StateReader`] consumes them with bounds checks on every
//! read.
//!
//! All multi-byte integers are little-endian. Floats are stored as their raw IEEE-754
//! bits (`f32::to_bits` / `f64::to_bits`), **never** through text or any lossy path, so a
//! save→load roundtrip reproduces every value bit for bit — including NaN payloads and
//! signed zeros. Variable-length data (strings, slices, vectors) is prefixed with a `u64`
//! element count; the reader validates the count against the bytes actually remaining
//! *before* allocating, so a corrupt length cannot trigger an out-of-memory abort.

use crate::error::{CkptError, Result};
use crate::{DecodeState, LoadState, SaveState};

/// Append-only little-endian writer for one section payload.
///
/// Writing is infallible (the buffer is in memory); all failure handling lives on the
/// read side.
#[derive(Debug, Default, Clone)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// An empty writer.
    pub fn new() -> Self {
        StateWriter::default()
    }

    /// The same empty writer as [`StateWriter::new`]. Checkpoints hold no wall-clock
    /// readings, so the one encoding is already a semantic fingerprint; this alias
    /// exists only because the frozen benchmark package (`perfbench/src/replay.rs`)
    /// still calls it.
    pub fn canonical() -> Self {
        StateWriter::new()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The payload bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer into its payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (`0` or `1`).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (the format is 64-bit regardless of host width).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f32` as its raw IEEE-754 bits.
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Appends an `f64` as its raw IEEE-754 bits.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a UTF-8 string: `u64` byte length, then the bytes.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends an `f32` slice: `u64` element count, then each element's raw bits.
    pub fn put_f32_slice(&mut self, values: &[f32]) {
        self.put_usize(values.len());
        for &v in values {
            self.put_f32(v);
        }
    }

    /// Appends an `f64` slice: `u64` element count, then each element's raw bits.
    pub fn put_f64_slice(&mut self, values: &[f64]) {
        self.put_usize(values.len());
        for &v in values {
            self.put_f64(v);
        }
    }

    /// Appends a `u32` slice: `u64` element count, then the values.
    pub fn put_u32_slice(&mut self, values: &[u32]) {
        self.put_usize(values.len());
        for &v in values {
            self.put_u32(v);
        }
    }

    /// Appends a `u64` slice: `u64` element count, then the values.
    pub fn put_u64_slice(&mut self, values: &[u64]) {
        self.put_usize(values.len());
        for &v in values {
            self.put_u64(v);
        }
    }

    /// Appends a component's state via its [`SaveState`] impl (pure convenience so
    /// nested saves read left to right).
    pub fn save(&mut self, state: &impl SaveState) {
        state.save_state(self);
    }
}

/// Bounds-checked little-endian reader over one section payload.
///
/// Every `take_*` returns [`CkptError::Truncated`] instead of panicking when the bytes
/// run out, and length prefixes are validated against the remaining bytes before any
/// allocation.
#[derive(Debug, Clone)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        StateReader { buf: bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current read offset from the start of the section.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take_raw(&mut self, what: &'static str, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(CkptError::Truncated {
                what,
                needed: n,
                available: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8> {
        Ok(self.take_raw("u8", 1)?[0])
    }

    /// Reads a bool byte; anything other than `0`/`1` is [`CkptError::Corrupt`].
    pub fn take_bool(&mut self) -> Result<bool> {
        match self.take_raw("bool", 1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CkptError::Corrupt {
                what: "bool",
                detail: format!("byte {other:#04x} is neither 0 nor 1"),
            }),
        }
    }

    /// Reads a little-endian `u16`.
    pub fn take_u16(&mut self) -> Result<u16> {
        let b = self.take_raw("u16", 2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32> {
        let b = self.take_raw("u32", 4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64> {
        let b = self.take_raw("u64", 8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `u64` and converts it to the host `usize`, erroring when it does not fit.
    pub fn take_usize(&mut self) -> Result<usize> {
        let v = self.take_u64()?;
        usize::try_from(v).map_err(|_| CkptError::Corrupt {
            what: "usize",
            detail: format!("value {v} exceeds the host pointer width"),
        })
    }

    /// Reads an `f32` from its raw bits.
    pub fn take_f32(&mut self) -> Result<f32> {
        Ok(f32::from_bits(self.take_u32()?))
    }

    /// Reads an `f64` from its raw bits.
    pub fn take_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads exactly `n` raw bytes.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take_raw("raw bytes", n)
    }

    /// Reads a `u64` element count and validates `count * elem_size` against the bytes
    /// remaining, so corrupt counts fail fast instead of driving a huge allocation.
    pub fn take_len(&mut self, what: &'static str, elem_size: usize) -> Result<usize> {
        let len = self.take_usize()?;
        let bytes = len
            .checked_mul(elem_size)
            .ok_or_else(|| CkptError::Corrupt {
                what,
                detail: format!("element count {len} overflows the byte budget"),
            })?;
        if bytes > self.remaining() {
            return Err(CkptError::Truncated {
                what,
                needed: bytes,
                available: self.remaining(),
            });
        }
        Ok(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String> {
        let len = self.take_len("string", 1)?;
        let bytes = self.take_raw("string bytes", len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| CkptError::Corrupt {
            what: "string",
            detail: format!("not valid UTF-8: {e}"),
        })
    }

    /// Reads a length-prefixed `f32` vector (raw bits).
    pub fn take_f32_vec(&mut self) -> Result<Vec<f32>> {
        let len = self.take_len("f32 slice", 4)?;
        (0..len).map(|_| self.take_f32()).collect()
    }

    /// Reads a length-prefixed `f64` vector (raw bits).
    pub fn take_f64_vec(&mut self) -> Result<Vec<f64>> {
        let len = self.take_len("f64 slice", 8)?;
        (0..len).map(|_| self.take_f64()).collect()
    }

    /// Reads a length-prefixed `u32` vector.
    pub fn take_u32_vec(&mut self) -> Result<Vec<u32>> {
        let len = self.take_len("u32 slice", 4)?;
        (0..len).map(|_| self.take_u32()).collect()
    }

    /// Reads a length-prefixed `u64` vector.
    pub fn take_u64_vec(&mut self) -> Result<Vec<u64>> {
        let len = self.take_len("u64 slice", 8)?;
        (0..len).map(|_| self.take_u64()).collect()
    }

    /// Restores a component in place via its [`LoadState`] impl (convenience mirror of
    /// [`StateWriter::save`]).
    pub fn load(&mut self, state: &mut impl LoadState) -> Result<()> {
        state.load_state(self)
    }

    /// Decodes an owned value via its [`DecodeState`] impl.
    pub fn decode<T: DecodeState>(&mut self) -> Result<T> {
        T::decode_state(self)
    }

    /// Asserts every byte was consumed; trailing bytes mean the writer and reader
    /// disagree about the layout (format skew), which must fail loudly.
    pub fn finish(&self, what: &'static str) -> Result<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(CkptError::Corrupt {
                what,
                detail: format!("{} trailing bytes after a complete load", self.remaining()),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip_is_bit_exact() {
        let mut w = StateWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u16(65535);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_usize(42);
        w.put_f32(f32::NAN);
        w.put_f32(-0.0);
        w.put_f64(std::f64::consts::PI);

        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert!(r.take_bool().unwrap());
        assert_eq!(r.take_u16().unwrap(), 65535);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX);
        assert_eq!(r.take_usize().unwrap(), 42);
        assert_eq!(r.take_f32().unwrap().to_bits(), f32::NAN.to_bits());
        assert_eq!(r.take_f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(
            r.take_f64().unwrap().to_bits(),
            std::f64::consts::PI.to_bits()
        );
        r.finish("test").unwrap();
    }

    #[test]
    fn slices_and_strings_roundtrip() {
        let mut w = StateWriter::new();
        w.put_str("héllo");
        w.put_f32_slice(&[1.0, f32::INFINITY, -2.5]);
        w.put_f64_slice(&[0.1]);
        w.put_u32_slice(&[9, 8]);
        w.put_u64_slice(&[]);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.take_str().unwrap(), "héllo");
        let f = r.take_f32_vec().unwrap();
        assert_eq!(f.len(), 3);
        assert_eq!(f[1], f32::INFINITY);
        assert_eq!(r.take_f64_vec().unwrap(), vec![0.1]);
        assert_eq!(r.take_u32_vec().unwrap(), vec![9, 8]);
        assert!(r.take_u64_vec().unwrap().is_empty());
        r.finish("test").unwrap();
    }

    #[test]
    fn truncation_is_a_typed_error_not_a_panic() {
        let mut w = StateWriter::new();
        w.put_u64(5);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes[..3]);
        match r.take_u64() {
            Err(CkptError::Truncated {
                needed, available, ..
            }) => {
                assert_eq!(needed, 8);
                assert_eq!(available, 3);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_length_prefix_fails_before_allocating() {
        let mut w = StateWriter::new();
        w.put_u64(u64::MAX); // an absurd element count
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert!(r.take_f32_vec().is_err());
    }

    #[test]
    fn bad_bool_byte_is_corrupt() {
        let mut r = StateReader::new(&[2]);
        assert!(matches!(
            r.take_bool(),
            Err(CkptError::Corrupt { what: "bool", .. })
        ));
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let r = StateReader::new(&[1, 2, 3]);
        assert!(matches!(
            r.finish("section"),
            Err(CkptError::Corrupt { .. })
        ));
    }
}
