//! Bit-level buffers for the ASN.1 PER codec, and the bit and varint
//! helpers the byte-aligned codecs share.
//!
//! PER packs fields at bit granularity ("unaligned within the aligned
//! variant" for small constrained values) and byte-aligns before octet
//! strings and large integers. These cursors implement exactly the
//! primitives the [`crate::per`] codec needs: MSB-first bit writes/reads,
//! explicit alignment, and whole-byte block copies. Every other codec packs
//! a bit string with [`pack_bits`] / [`unpack_bits`], and the protobuf- and
//! FlexBuffers-like ones write integers as (zigzag) varints.

use neutrino_common::{Error, Result};

/// MSB-first bit writer appending to a caller's buffer, so a pooled
/// buffer's capacity is written into rather than replaced.
#[derive(Debug)]
pub struct BitWriter<'a> {
    bytes: &'a mut Vec<u8>,
    /// Where this writer's output starts in `bytes`.
    start: usize,
    /// Number of valid bits in the last byte (0 means the last byte is full
    /// or nothing has been written).
    partial_bits: u8,
}

impl<'a> BitWriter<'a> {
    /// A writer appending after whatever `bytes` already holds.
    pub fn new(bytes: &'a mut Vec<u8>) -> Self {
        let start = bytes.len();
        BitWriter {
            bytes,
            start,
            partial_bits: 0,
        }
    }

    /// Total number of bits written so far.
    pub fn bit_len(&self) -> usize {
        let whole = (self.bytes.len() - self.start) * 8;
        if self.partial_bits == 0 {
            whole
        } else {
            whole - 8 + self.partial_bits as usize
        }
    }

    /// Writes a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(u64::from(bit), 1);
    }

    /// Writes the low `width` bits of `value`, MSB first. `width` ≤ 64.
    pub fn write_bits(&mut self, value: u64, width: u8) {
        debug_assert!(width <= 64);
        let mut left = width;
        while left > 0 {
            if self.partial_bits == 0 {
                self.bytes.push(0);
            }
            let free = 8 - self.partial_bits;
            let take = free.min(left);
            left -= take;
            // `take` ≤ 8 bits of `value`, placed below the bits already in
            // the last byte.
            let chunk = ((value >> left) & ((1u64 << take) - 1)) as u8;
            if let Some(last) = self.bytes.last_mut() {
                *last |= chunk << (free - take);
            }
            self.partial_bits = (self.partial_bits + take) % 8;
        }
    }

    /// Pads with zero bits to the next byte boundary (no-op if aligned).
    #[inline]
    pub fn align(&mut self) {
        self.partial_bits = 0;
    }

    /// Writes whole bytes; the cursor must be byte-aligned.
    #[inline]
    pub fn write_bytes(&mut self, data: &[u8]) {
        debug_assert_eq!(self.partial_bits, 0, "write_bytes requires alignment");
        self.bytes.extend_from_slice(data);
    }
}

/// MSB-first bit reader over a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Global bit cursor.
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Wraps a byte slice.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    fn err(&self) -> Error {
        Error::codec(
            "asn1-per",
            format!("unexpected end of input at bit {}", self.pos),
        )
    }

    /// Reads one bit.
    pub fn read_bit(&mut self) -> Result<bool> {
        let byte = self.pos / 8;
        if byte >= self.bytes.len() {
            return Err(self.err());
        }
        let bit = (self.bytes[byte] >> (7 - (self.pos % 8))) & 1 == 1;
        self.pos += 1;
        Ok(bit)
    }

    /// Reads `width` bits (≤ 64), MSB first.
    pub fn read_bits(&mut self, width: u8) -> Result<u64> {
        debug_assert!(width <= 64);
        if width as usize > self.remaining_bits() {
            return Err(self.err());
        }
        let mut v = 0u64;
        let mut left = width;
        while left > 0 {
            let used = (self.pos % 8) as u8;
            let take = (8 - used).min(left);
            let byte = self.bytes[self.pos / 8];
            let chunk = (byte >> (8 - used - take)) & ((1u16 << take) - 1) as u8;
            v = (v << take) | u64::from(chunk);
            self.pos += take as usize;
            left -= take;
        }
        Ok(v)
    }

    /// Bits left to read.
    pub fn remaining_bits(&self) -> usize {
        self.bytes.len() * 8 - self.pos
    }

    /// Skips to the next byte boundary.
    pub fn align(&mut self) {
        self.pos = self.pos.div_ceil(8) * 8;
    }

    /// Reads `n` whole bytes; the cursor must be byte-aligned.
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        debug_assert_eq!(self.pos % 8, 0, "read_bytes requires alignment");
        let start = self.pos / 8;
        let end = start.checked_add(n).ok_or_else(|| self.err())?;
        if end > self.bytes.len() {
            return Err(self.err());
        }
        self.pos = end * 8;
        Ok(&self.bytes[start..end])
    }
}

/// Number of bits needed to represent values in `0..=max` (at least 1).
pub fn bits_for_range(max: u64) -> u8 {
    if max == 0 {
        1
    } else {
        (64 - max.leading_zeros()) as u8
    }
}

/// Appends `bits` packed MSB-first, `bits.len().div_ceil(8)` octets — the
/// bit-string body of every byte-aligned codec.
pub fn pack_bits(bits: &[bool], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + bits.len().div_ceil(8), 0);
    for (i, _) in bits.iter().enumerate().filter(|(_, &b)| b) {
        out[start + i / 8] |= 0x80 >> (i % 8);
    }
}

/// The first `nbits` bits of `packed`, MSB-first; `packed` holds at least
/// `nbits.div_ceil(8)` octets.
pub fn unpack_bits(nbits: usize, packed: &[u8]) -> Vec<bool> {
    (0..nbits)
        .map(|i| packed[i / 8] & (0x80 >> (i % 8)) != 0)
        .collect()
}

/// Appends `v` as a LEB128 varint (7 bits per octet, low group first).
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads the varint at `*pos` in `buf`, advancing past it; the error is the
/// detail for the reading codec to name itself in.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> std::result::Result<u64, &'static str> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let &byte = buf.get(*pos).ok_or("truncated varint")?;
        *pos += 1;
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err("varint too long")
}

/// Maps a signed integer onto the unsigned varint space, small magnitudes
/// first (0, -1, 1, -2, …).
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverts [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_round_trip() {
        let mut bytes = Vec::new();
        let mut w = BitWriter::new(&mut bytes);
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn multi_bit_fields_round_trip() {
        let mut bytes = Vec::new();
        let mut w = BitWriter::new(&mut bytes);
        w.write_bits(0b101, 3);
        w.write_bits(0xDEAD, 16);
        w.write_bits(1, 1);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(16).unwrap(), 0xDEAD);
        assert_eq!(r.read_bits(1).unwrap(), 1);
    }

    #[test]
    fn alignment_and_byte_copy() {
        let mut bytes = Vec::new();
        let mut w = BitWriter::new(&mut bytes);
        w.write_bits(0b11, 2);
        w.align();
        w.write_bytes(&[0xAB, 0xCD]);
        assert_eq!(bytes, vec![0b1100_0000, 0xAB, 0xCD]);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(2).unwrap(), 0b11);
        r.align();
        assert_eq!(r.read_bytes(2).unwrap(), &[0xAB, 0xCD]);
    }

    #[test]
    fn reader_detects_truncation() {
        let bytes = [0xFFu8];
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bits(8).is_ok());
        assert!(r.read_bit().is_err());
    }

    #[test]
    fn read_bytes_out_of_range() {
        let bytes = [1u8, 2];
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bytes(3).is_err());
        assert_eq!(r.read_bytes(2).unwrap(), &[1, 2]);
    }

    #[test]
    fn bit_len_tracks_partial_bytes() {
        let mut bytes = Vec::new();
        let mut w = BitWriter::new(&mut bytes);
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0b1010, 4);
        assert_eq!(w.bit_len(), 4);
        w.write_bits(0xFF, 8);
        assert_eq!(w.bit_len(), 12);
    }

    #[test]
    fn bits_for_range_boundaries() {
        assert_eq!(bits_for_range(0), 1);
        assert_eq!(bits_for_range(1), 1);
        assert_eq!(bits_for_range(2), 2);
        assert_eq!(bits_for_range(255), 8);
        assert_eq!(bits_for_range(256), 9);
        assert_eq!(bits_for_range(u64::MAX), 64);
    }

    #[test]
    fn packed_bits_round_trip() {
        let bits: Vec<bool> = (0..11).map(|i| i % 3 == 0).collect();
        let mut out = vec![0xAA];
        pack_bits(&bits, &mut out);
        assert_eq!(out, vec![0xAA, 0b1001_0010, 0b0100_0000]);
        assert_eq!(unpack_bits(bits.len(), &out[1..]), bits);
    }

    #[test]
    fn varints_and_zigzag_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut pos = 0;
            assert_eq!(read_varint(&out, &mut pos), Ok(v));
            assert_eq!(pos, out.len());
        }
        assert!(read_varint(&[0x80], &mut 0).is_err());
        assert!(read_varint(&[0xFF; 11], &mut 0).is_err());
        for v in [0i64, -1, 1, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(-1), 1);
    }

    #[test]
    fn sixty_four_bit_value_round_trips() {
        let mut bytes = Vec::new();
        let mut w = BitWriter::new(&mut bytes);
        w.write_bits(u64::MAX - 3, 64);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX - 3);
    }
}
