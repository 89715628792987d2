//! A dependency-free binary codec for journal record payloads.
//!
//! Records are flat byte strings: fixed-width little-endian integers,
//! length-prefixed UTF-8 strings and byte blobs, and the compositions a
//! campaign checkpoint needs (options, sequences). Encoding is infallible;
//! decoding returns [`DecodeError`] on truncation or malformed data, which
//! the checkpoint layer treats the same way as a failed frame checksum —
//! the record is rejected, never half-applied.

use std::fmt;

/// Builds a record payload.
///
/// # Examples
///
/// ```
/// use spe_persist::{Decoder, Encoder};
///
/// let mut enc = Encoder::new();
/// enc.u32(7).str("shard").bool(true);
/// let bytes = enc.finish();
///
/// let mut dec = Decoder::new(&bytes);
/// assert_eq!(dec.u32().unwrap(), 7);
/// assert_eq!(dec.str().unwrap(), "shard");
/// assert!(dec.bool().unwrap());
/// assert!(dec.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) -> &mut Encoder {
        self.buf.push(v);
        self
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Encoder {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Encoder {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `usize` as a `u64` (journals are portable across
    /// pointer widths).
    pub fn usize(&mut self, v: usize) -> &mut Encoder {
        self.u64(v as u64)
    }

    /// Appends a boolean as one byte (`0` / `1`).
    pub fn bool(&mut self, v: bool) -> &mut Encoder {
        self.u8(u8::from(v))
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Encoder {
        self.bytes(v.as_bytes())
    }

    /// Appends a length-prefixed byte blob.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Encoder {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends `Some(s)` as `1` + string, `None` as `0`.
    pub fn opt_str(&mut self, v: Option<&str>) -> &mut Encoder {
        match v {
            Some(s) => self.bool(true).str(s),
            None => self.bool(false),
        }
    }

    /// The encoded payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Why a record payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the requested field.
    Eof,
    /// A field held an invalid value (e.g. non-UTF-8 in a string, a
    /// boolean byte that is neither 0 nor 1, an unknown enum tag).
    Invalid(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Eof => write!(f, "record payload truncated"),
            DecodeError::Invalid(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Reads a record payload written by [`Encoder`].
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Starts decoding at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Eof)?;
        if end > self.buf.len() {
            return Err(DecodeError::Eof);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `u64` written by [`Encoder::usize`] back into a `usize`.
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.u64()?).map_err(|_| DecodeError::Invalid("usize overflow"))
    }

    /// Reads a boolean byte.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Invalid("boolean byte")),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::Invalid("utf-8 string"))
    }

    /// Reads a length-prefixed byte blob.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.usize()?;
        self.take(len)
    }

    /// Reads an optional string written by [`Encoder::opt_str`].
    pub fn opt_str(&mut self) -> Result<Option<String>, DecodeError> {
        Ok(if self.bool()? {
            Some(self.str()?)
        } else {
            None
        })
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Fails unless the payload was consumed exactly — guards against
    /// truncated or over-long records masquerading as valid.
    pub fn expect_empty(&self) -> Result<(), DecodeError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::Invalid("trailing bytes in record"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;

    #[test]
    fn roundtrip_all_field_kinds() {
        let mut enc = Encoder::new();
        enc.u8(7)
            .u32(0xdead_beef)
            .u64(u64::MAX)
            .usize(42)
            .bool(false)
            .str("héllo")
            .bytes(&[1, 2, 3])
            .opt_str(Some("x"))
            .opt_str(None);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.u8().unwrap(), 7);
        assert_eq!(dec.u32().unwrap(), 0xdead_beef);
        assert_eq!(dec.u64().unwrap(), u64::MAX);
        assert_eq!(dec.usize().unwrap(), 42);
        assert!(!dec.bool().unwrap());
        assert_eq!(dec.str().unwrap(), "héllo");
        assert_eq!(dec.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(dec.opt_str().unwrap().as_deref(), Some("x"));
        assert_eq!(dec.opt_str().unwrap(), None);
        dec.expect_empty().unwrap();
    }

    #[test]
    fn truncation_is_eof_not_panic() {
        let mut enc = Encoder::new();
        enc.str("hello");
        let bytes = enc.finish();
        for cut in 0..bytes.len() {
            let mut dec = Decoder::new(&bytes[..cut]);
            assert!(dec.str().is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn invalid_bool_and_utf8_are_rejected() {
        let mut dec = Decoder::new(&[9]);
        assert_eq!(dec.bool(), Err(DecodeError::Invalid("boolean byte")));
        let mut enc = Encoder::new();
        enc.bytes(&[0xff, 0xfe]);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.str(), Err(DecodeError::Invalid("utf-8 string")));
    }

    /// Decodes `bytes` as [`all_kinds`]'s layout, field by field, requires
    /// every byte consumed, and encodes what it read again.
    fn re_encoded(bytes: &[u8]) -> Result<Vec<u8>, DecodeError> {
        let mut dec = Decoder::new(bytes);
        let mut enc = Encoder::new();
        enc.u8(dec.u8()?)
            .u32(dec.u32()?)
            .u64(dec.u64()?)
            .usize(dec.usize()?)
            .bool(dec.bool()?)
            .str(&dec.str()?)
            .bytes(dec.bytes()?)
            .opt_str(dec.opt_str()?.as_deref())
            .opt_str(dec.opt_str()?.as_deref());
        dec.expect_empty()?;
        Ok(enc.finish())
    }

    /// One payload holding every field kind.
    fn all_kinds() -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.u8(7)
            .u32(0xdead_beef)
            .u64(u64::MAX)
            .usize(42)
            .bool(true)
            .str("héllo")
            .bytes(&[1, 2, 3])
            .opt_str(Some("x"))
            .opt_str(None);
        enc.finish()
    }

    #[test]
    fn every_mutation_of_a_payload_is_refused_or_re_encodes_exactly() {
        let bytes = all_kinds();
        let (mut decoded, mut refused) = (0usize, 0usize);
        // A panic fails the test; a payload that decodes must re-encode to
        // exactly its own bytes. Returns whether it decoded.
        let mut check = |payload: &[u8]| {
            let result = catch_unwind(|| re_encoded(payload))
                .unwrap_or_else(|_| panic!("decoding {payload:?} panicked"));
            match result {
                Ok(again) => {
                    assert_eq!(again, payload, "decoded, but re-encodes otherwise");
                    decoded += 1;
                    true
                }
                Err(_) => {
                    refused += 1;
                    false
                }
            }
        };
        assert!(check(&bytes), "the unmutated payload decodes");
        for cut in 0..bytes.len() {
            assert!(!check(&bytes[..cut]), "a cut at {cut} decoded");
        }
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                check(&flipped);
            }
        }
        for at in 0..=bytes.len() {
            for len in 1..=16u8 {
                let n = usize::from(len);
                for inserted in [vec![0; n], vec![1; n], vec![0xff; n], (1..=len).collect()] {
                    let mut grown = bytes.clone();
                    grown.splice(at..at, inserted);
                    check(&grown);
                }
            }
        }
        assert!(decoded > 1, "some mutations leave a valid payload");
        assert!(refused > bytes.len(), "{refused} refusals");
    }

    #[test]
    fn expect_empty_rejects_trailing_bytes() {
        let mut enc = Encoder::new();
        enc.u8(1).u8(2);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        dec.u8().unwrap();
        assert!(dec.expect_empty().is_err());
    }
}
