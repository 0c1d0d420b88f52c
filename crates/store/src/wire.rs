//! The store's binary wire format: little-endian primitives with
//! length-prefixed strings and sequences.
//!
//! The workspace's serde stand-in is a JSON *tree* codec — every value
//! round-trips through a heap-allocated `Value` — which is orders of
//! magnitude too slow (and too large on disk) for a warm artifact path
//! whose whole point is beating recomputation. Artifacts therefore encode
//! through this explicit byte writer/reader pair instead; the enclosing
//! store frame carries a schema version, so layout changes are gated
//! exactly like a serde `#[serde(version)]` bump would be (see
//! `docs/store.md` for the invalidation rules).
//!
//! Decoding is *total*: every read is bounds-checked and returns
//! [`WireError`] instead of panicking, so a corrupt or truncated payload
//! (which the checksum should already have caught) can never produce
//! garbage values or a crash.

use std::fmt;

/// A decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value did.
    Truncated {
        /// Bytes requested by the failing read.
        needed: usize,
        /// Bytes remaining in the buffer.
        remaining: usize,
    },
    /// An enum tag byte had no corresponding variant.
    BadTag(u8),
    /// A string's bytes were not valid UTF-8.
    BadUtf8,
    /// A length prefix was implausibly large for the remaining buffer.
    BadLength(u64),
    /// Decoding finished with unconsumed bytes (layout drift).
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "truncated payload: needed {needed} bytes, {remaining} left"
                )
            }
            WireError::BadTag(t) => write!(f, "unknown enum tag {t}"),
            WireError::BadUtf8 => write!(f, "string is not valid UTF-8"),
            WireError::BadLength(n) => write!(f, "length prefix {n} exceeds payload"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only binary encoder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer pre-sized for roughly `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `i32`, little-endian.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `f64` by bit pattern (exact round-trip, NaN included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write a sequence length prefix (callers then write each element).
    pub fn seq_len(&mut self, n: usize) {
        self.u64(n as u64);
    }
}

/// Bounds-checked binary decoder over a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32`, little-endian.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64`, little-endian.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `i32`, little-endian.
    pub fn i32(&mut self) -> Result<i32, WireError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `bool`; any byte other than 0/1 is a decode error.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let n = self.checked_len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    /// Read a sequence length prefix, validated against the remaining
    /// bytes assuming each element costs at least `min_elem_bytes` — so a
    /// corrupt length cannot trigger a huge allocation.
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        self.checked_len(min_elem_bytes)
    }

    fn checked_len(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.u64()?;
        let floor = (n as u128).saturating_mul(min_elem_bytes.max(1) as u128);
        if floor > self.remaining() as u128 {
            return Err(WireError::BadLength(n));
        }
        Ok(n as usize)
    }

    /// Assert the buffer is fully consumed (call after the last field).
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(123_456);
        w.u64(u64::MAX - 3);
        w.i32(-42);
        w.f64(-0.125);
        w.bool(true);
        w.bool(false);
        w.str("héllo");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 123_456);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i32().unwrap(), -42);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn f64_round_trips_exactly() {
        for v in [0.0, -0.0, f64::MIN_POSITIVE, 1e300, f64::NAN, 0.1 + 0.2] {
            let mut w = ByteWriter::new();
            w.f64(v);
            let b = w.into_bytes();
            let got = ByteReader::new(&b).f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = ByteWriter::new();
        w.u64(99);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..5]);
        assert!(matches!(r.u64(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn corrupt_length_prefix_rejected_before_allocation() {
        let mut w = ByteWriter::new();
        w.u64(u64::MAX); // absurd sequence length
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.seq_len(4), Err(WireError::BadLength(_))));
        // Same guard on strings.
        let mut w = ByteWriter::new();
        w.u64(1 << 40);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.str(), Err(WireError::BadLength(_))));
    }

    #[test]
    fn bad_bool_and_trailing_bytes_detected() {
        let mut r = ByteReader::new(&[2]);
        assert_eq!(r.bool(), Err(WireError::BadTag(2)));
        let r = ByteReader::new(&[0, 0]);
        assert_eq!(r.finish(), Err(WireError::TrailingBytes(2)));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = ByteWriter::new();
        w.u64(2);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.str(), Err(WireError::BadUtf8));
    }
}
