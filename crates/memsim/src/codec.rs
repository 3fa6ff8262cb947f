//! A tiny fixed-layout byte codec for checkpoint state blobs.
//!
//! Crash-safe rounds serialize their restore point — round header,
//! prefix digest, the aggregator's descriptor — into sealed checkpoints.
//! The blobs are only ever produced and consumed by the
//! same binary (the sealing key is bound to the enclave measurement),
//! so the format optimizes for auditability, not evolution: every field
//! is written little-endian at a fixed offset with explicit lengths,
//! and every read is bounds-checked so a corrupted or truncated
//! plaintext surfaces as a [`StateError`] instead of a panic.

use std::error::Error;
use std::fmt;

/// Why a serialized state blob could not be loaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateError {
    /// The blob ended before a declared field.
    Truncated,
    /// A field held a value the format forbids (bad tag, bad length).
    Corrupt,
    /// The blob is well-formed but describes a different configuration
    /// than the object it is being loaded into (e.g. wrong dimension).
    Mismatch,
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Truncated => write!(f, "state blob truncated"),
            StateError::Corrupt => write!(f, "state blob corrupt"),
            StateError::Mismatch => write!(f, "state blob does not match target configuration"),
        }
    }
}

impl Error for StateError {}

/// Append-only writer for state blobs.
#[derive(Default)]
pub struct StateWriter {
    buf: Vec<u8>,
    /// The exact size promised by [`StateWriter::with_capacity`], checked
    /// when the blob is taken.
    reserved: Option<usize>,
}

impl StateWriter {
    /// Start an empty blob.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start an empty blob that will be exactly `len` bytes: the buffer is
    /// allocated once, and [`StateWriter::into_bytes`] debug-asserts that
    /// the writes filled it to the byte.
    pub fn with_capacity(len: usize) -> Self {
        StateWriter { buf: Vec::with_capacity(len), reserved: Some(len) }
    }

    /// Finish and take the serialized bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        if let Some(len) = self.reserved {
            debug_assert_eq!(self.buf.len(), len, "a state blob must fill its reservation exactly");
        }
        self.buf
    }

    /// Append a single byte (used for tags).
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32` little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64` (the format is 64-bit regardless of host).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append an `f64` as its IEEE-754 bit pattern (bitwise-exact restore).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }
}

/// Bounds-checked cursor over a state blob.
pub struct StateReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// Read from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        StateReader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StateError> {
        let end = self.pos.checked_add(n).ok_or(StateError::Truncated)?;
        if end > self.bytes.len() {
            return Err(StateError::Truncated);
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, StateError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, StateError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, StateError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Read a `usize` stored as `u64`; rejects values over `usize::MAX`.
    pub fn get_usize(&mut self) -> Result<usize, StateError> {
        usize::try_from(self.get_u64()?).map_err(|_| StateError::Corrupt)
    }

    /// Read a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], StateError> {
        let n = self.get_usize()?;
        self.take(n)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Assert the whole blob was consumed; trailing bytes mean the blob
    /// was produced by a different (newer?) layout.
    pub fn expect_end(&self) -> Result<(), StateError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(StateError::Corrupt)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_field_types() {
        let mut w = StateWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_usize(12);
        w.put_f64(f64::NAN);
        w.put_bytes(b"abc");
        let bytes = w.into_bytes();

        let mut r = StateReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_usize().unwrap(), 12);
        assert!(f64::from_bits(r.get_u64().unwrap()).is_nan());
        assert_eq!(r.get_bytes().unwrap(), b"abc");
        r.expect_end().unwrap();
    }

    #[test]
    fn a_reserved_blob_is_allocated_once_and_filled_in_bulk() {
        let mut w = StateWriter::with_capacity(8 + 8 + 6);
        w.put_u64(3);
        w.put_bytes(b"bulk!!");
        let bytes = w.into_bytes();
        assert_eq!((bytes.len(), bytes.capacity()), (22, 22));
        assert_eq!(&bytes[16..], b"bulk!!");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "fill its reservation exactly")]
    fn a_reservation_the_writes_miss_is_caught() {
        let mut w = StateWriter::with_capacity(9);
        w.put_u64(3);
        w.into_bytes();
    }

    #[test]
    fn truncated_blob_is_an_error_not_a_panic() {
        let mut w = StateWriter::new();
        w.put_u64(5);
        let mut bytes = w.into_bytes();
        bytes.truncate(6);
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.get_u64(), Err(StateError::Truncated));
    }

    #[test]
    fn oversized_length_prefix_is_truncated_not_oom() {
        // A corrupted length prefix must not drive an absurd allocation or
        // an overflowing bound before the bounds check fires.
        let mut w = StateWriter::new();
        w.put_u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.get_bytes().unwrap_err(), StateError::Truncated);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = StateWriter::new();
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 1);
        assert_eq!(r.expect_end(), Err(StateError::Corrupt));
    }
}
