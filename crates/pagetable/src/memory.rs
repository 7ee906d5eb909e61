//! Backing-store abstraction for simulated physical memory.
//!
//! The page-table walker and the OS model access physical memory through
//! [`PhysMem`], so the same code runs over a plain in-process buffer
//! ([`VecMemory`]), the Rowhammer-faulted DRAM device model, or the full
//! memory-hierarchy simulator.

use crate::addr::PhysAddr;
use crate::CACHELINE_SIZE;

/// Byte-addressable simulated physical memory.
///
/// Implementations must tolerate arbitrary in-range addresses; alignment of
/// the word accessors is the caller's responsibility (the walker always
/// issues naturally aligned accesses).
///
/// Only the byte accessors are required; the word and line accessors
/// default to loops over them. Stores with a cheaper word or line path
/// (the DRAM device's one page probe per access, the OS port's
/// word-granular cache path) override those defaults, and the `&mut M`
/// impl forwards every accessor so a borrowed store keeps its overrides.
pub trait PhysMem {
    /// Total size in bytes.
    fn size(&self) -> u64;

    /// Reads one byte.
    fn read_u8(&self, addr: PhysAddr) -> u8;

    /// Writes one byte.
    fn write_u8(&mut self, addr: PhysAddr, value: u8);

    /// Reads a little-endian u64 (naturally aligned).
    fn read_u64(&self, addr: PhysAddr) -> u64 {
        let mut v = 0u64;
        for i in 0..8 {
            v |= u64::from(self.read_u8(PhysAddr::new(addr.as_u64() + i))) << (8 * i);
        }
        v
    }

    /// Writes a little-endian u64 (naturally aligned).
    fn write_u64(&mut self, addr: PhysAddr, value: u64) {
        for i in 0..8 {
            self.write_u8(PhysAddr::new(addr.as_u64() + i), (value >> (8 * i)) as u8);
        }
    }

    /// Reads a full 64-byte cacheline (aligned to `addr.line_addr()`).
    fn read_line(&self, addr: PhysAddr) -> [u8; CACHELINE_SIZE] {
        let base = addr.line_addr();
        let mut line = [0u8; CACHELINE_SIZE];
        for (i, b) in line.iter_mut().enumerate() {
            *b = self.read_u8(PhysAddr::new(base.as_u64() + i as u64));
        }
        line
    }

    /// Writes a full 64-byte cacheline (aligned to `addr.line_addr()`).
    fn write_line(&mut self, addr: PhysAddr, line: &[u8; CACHELINE_SIZE]) {
        let base = addr.line_addr();
        for (i, b) in line.iter().enumerate() {
            self.write_u8(PhysAddr::new(base.as_u64() + i as u64), *b);
        }
    }
}

/// The simplest backing store: a flat `Vec<u8>`.
#[derive(Debug, Clone)]
pub struct VecMemory {
    data: Vec<u8>,
}

impl VecMemory {
    /// Allocates `size` bytes of zeroed simulated memory.
    #[must_use]
    pub fn new(size: usize) -> Self {
        Self {
            data: vec![0; size],
        }
    }

    /// Borrows the raw contents.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }
}

impl PhysMem for VecMemory {
    fn size(&self) -> u64 {
        self.data.len() as u64
    }

    fn read_u8(&self, addr: PhysAddr) -> u8 {
        self.data[addr.as_u64() as usize]
    }

    fn write_u8(&mut self, addr: PhysAddr, value: u8) {
        self.data[addr.as_u64() as usize] = value;
    }
}

impl<M: PhysMem + ?Sized> PhysMem for &mut M {
    fn size(&self) -> u64 {
        (**self).size()
    }

    fn read_u8(&self, addr: PhysAddr) -> u8 {
        (**self).read_u8(addr)
    }

    fn write_u8(&mut self, addr: PhysAddr, value: u8) {
        (**self).write_u8(addr, value);
    }

    fn read_u64(&self, addr: PhysAddr) -> u64 {
        (**self).read_u64(addr)
    }

    fn write_u64(&mut self, addr: PhysAddr, value: u64) {
        (**self).write_u64(addr, value);
    }

    fn read_line(&self, addr: PhysAddr) -> [u8; CACHELINE_SIZE] {
        (**self).read_line(addr)
    }

    fn write_line(&mut self, addr: PhysAddr, line: &[u8; CACHELINE_SIZE]) {
        (**self).write_line(addr, line);
    }
}

/// Packs eight little-endian u64 words into a 64-byte line.
#[must_use]
pub fn words_to_line(words: &[u64; 8]) -> [u8; CACHELINE_SIZE] {
    let mut line = [0u8; CACHELINE_SIZE];
    for (i, w) in words.iter().enumerate() {
        line[8 * i..8 * (i + 1)].copy_from_slice(&w.to_le_bytes());
    }
    line
}

/// Unpacks a 64-byte line into eight little-endian u64 words.
#[must_use]
pub fn line_to_words(line: &[u8; CACHELINE_SIZE]) -> [u64; 8] {
    let mut words = [0u64; 8];
    for (i, w) in words.iter_mut().enumerate() {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&line[8 * i..8 * (i + 1)]);
        *w = u64::from_le_bytes(bytes);
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrip_is_little_endian() {
        let mut m = VecMemory::new(64);
        m.write_u64(PhysAddr::new(8), 0x0102_0304_0506_0708);
        assert_eq!(m.read_u8(PhysAddr::new(8)), 0x08);
        assert_eq!(m.read_u8(PhysAddr::new(15)), 0x01);
        assert_eq!(m.read_u64(PhysAddr::new(8)), 0x0102_0304_0506_0708);
    }

    #[test]
    fn line_roundtrip() {
        let mut m = VecMemory::new(256);
        let words = [1u64, 2, 3, 4, 5, 6, 7, 8];
        m.write_line(PhysAddr::new(64), &words_to_line(&words));
        let back = line_to_words(&m.read_line(PhysAddr::new(100))); // same line
        assert_eq!(back, words);
    }

    #[test]
    fn line_access_is_self_aligning() {
        let mut m = VecMemory::new(256);
        m.write_u64(PhysAddr::new(64), 0xdead_beef);
        let line = m.read_line(PhysAddr::new(127)); // offset 63 within line 64..128
        assert_eq!(line_to_words(&line)[0], 0xdead_beef);
    }

    #[test]
    fn words_line_inverse() {
        let words = [u64::MAX, 0, 0x55aa, 1 << 63, 42, 7, 0xffff_0000, 9];
        assert_eq!(line_to_words(&words_to_line(&words)), words);
    }
}
