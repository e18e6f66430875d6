//! Backing storage for global device memory, with a bump allocator and
//! bounds checking (out-of-bounds accesses become the memory-violation
//! faults the error-injection study observes as crashes).

use sassi_isa::{AtomOp, GLOBAL_HEAP_BASE};
use std::fmt;

/// A memory access error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemError {
    /// Address outside every live allocation.
    OutOfBounds {
        /// The faulting address.
        addr: u64,
    },
    /// Address not aligned to the access width.
    Misaligned {
        /// The faulting address.
        addr: u64,
        /// Required alignment in bytes.
        align: u32,
    },
    /// The heap is exhausted.
    OutOfMemory,
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfBounds { addr } => write!(f, "address {addr:#x} out of bounds"),
            MemError::Misaligned { addr, align } => {
                write!(f, "address {addr:#x} not {align}-byte aligned")
            }
            MemError::OutOfMemory => write!(f, "device heap exhausted"),
        }
    }
}

impl std::error::Error for MemError {}

/// Applies one atomic read-modify-write operation and returns the new
/// value, masked to the access width (`wide` selects 64-bit).
///
/// Shared by the device heap's [`DeviceMemory::atomic`] and the
/// simulator's shared-memory atomics, so both paths agree bit for bit.
pub fn apply_atom(op: AtomOp, old: u64, v: u64, v2: u64, wide: bool) -> u64 {
    let m = if wide { u64::MAX } else { u32::MAX as u64 };
    let r = match op {
        AtomOp::Add => old.wrapping_add(v),
        AtomOp::Min => old.min(v),
        AtomOp::Max => old.max(v),
        AtomOp::And => old & v,
        AtomOp::Or => old | v,
        AtomOp::Xor => old ^ v,
        AtomOp::Exch => v,
        AtomOp::Cas => {
            if old == v {
                v2
            } else {
                old
            }
        }
    };
    r & m
}

/// One global-memory effect recorded by a forked shard view, replayable
/// against the master heap with [`DeviceMemory::commit`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalOp {
    /// A plain store of up to 16 bytes (wider writes are chunked).
    Store {
        /// Destination generic address.
        addr: u64,
        /// Number of valid bytes in `data`.
        len: u8,
        /// The stored bytes (prefix of length `len`).
        data: [u8; 16],
    },
    /// An atomic read-modify-write, re-applied (not replayed by value)
    /// so commutative cross-shard reductions combine correctly.
    Atom {
        /// The operation.
        op: AtomOp,
        /// Target generic address.
        addr: u64,
        /// First operand.
        v: u64,
        /// Second operand (CAS swap value; 0 otherwise).
        v2: u64,
        /// 64-bit access.
        wide: bool,
    },
}

/// Global device memory: a heap of bytes starting at
/// [`GLOBAL_HEAP_BASE`] in the generic address space.
///
/// A heap can be [`fork`](DeviceMemory::fork)ed into a shard-private
/// view that journals every write; committing the journal back with
/// [`commit`](DeviceMemory::commit) re-applies stores by value and
/// atomics by operation, so independent shards whose only cross-CTA
/// communication is commutative reductions merge deterministically.
#[derive(Clone, Debug)]
pub struct DeviceMemory {
    bytes: Vec<u8>,
    next: u64,                    // next free offset
    allocations: Vec<(u64, u64)>, // [start, end) generic addresses
    /// `Some` on forked shard views: every mutation is recorded here.
    journal: Option<Vec<JournalOp>>,
}

impl DeviceMemory {
    /// Creates a heap of `capacity` bytes.
    pub fn new(capacity: usize) -> DeviceMemory {
        DeviceMemory {
            bytes: vec![0; capacity],
            next: 0,
            allocations: Vec::new(),
            journal: None,
        }
    }

    /// Forks a shard-private view of the heap: a copy of the used
    /// prefix (not the full capacity) with journaling enabled. Shards
    /// never allocate, so the shrunken capacity is unobservable.
    pub fn fork(&self) -> DeviceMemory {
        DeviceMemory {
            bytes: self.bytes[..self.next as usize].to_vec(),
            next: self.next,
            allocations: self.allocations.clone(),
            journal: Some(Vec::new()),
        }
    }

    /// Takes the accumulated journal, leaving journaling off. Returns
    /// an empty journal on a non-forked heap.
    pub fn take_journal(&mut self) -> Vec<JournalOp> {
        self.journal.take().unwrap_or_default()
    }

    /// Replays a shard journal against this heap: stores land by value,
    /// atomics re-apply their operation against the current contents.
    ///
    /// # Panics
    ///
    /// Panics if a journal entry faults, which cannot happen when the
    /// journal came from a fork of this heap (same allocation map).
    pub fn commit(&mut self, journal: &[JournalOp]) {
        for op in journal {
            match *op {
                JournalOp::Store { addr, len, data } => self
                    .write_bytes(addr, &data[..len as usize])
                    .expect("journal store within allocations"),
                JournalOp::Atom {
                    op,
                    addr,
                    v,
                    v2,
                    wide,
                } => {
                    self.atomic(op, addr, v, v2, wide)
                        .expect("journal atomic within allocations");
                }
            }
        }
    }

    /// Allocates `size` bytes with `align` alignment; returns the
    /// generic address (the `cudaMalloc` of this machine).
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfMemory`] when the heap cannot satisfy the
    /// request.
    pub fn alloc(&mut self, size: u64, align: u64) -> Result<u64, MemError> {
        let align = align.max(1).next_power_of_two();
        let start = (self.next + align - 1) & !(align - 1);
        let end = start + size;
        if end > self.bytes.len() as u64 {
            return Err(MemError::OutOfMemory);
        }
        self.next = end;
        let addr = GLOBAL_HEAP_BASE + start;
        self.allocations.push((addr, addr + size));
        Ok(addr)
    }

    /// Whether `[addr, addr+len)` lies inside a live allocation. A
    /// range that wraps past the top of the address space lies in none.
    pub fn check(&self, addr: u64, len: u32) -> bool {
        let Some(end) = addr.checked_add(len as u64) else {
            return false;
        };
        self.allocations.iter().any(|&(s, e)| addr >= s && end <= e)
    }

    fn offset(&self, addr: u64, len: u32) -> Result<usize, MemError> {
        if !self.check(addr, len) {
            return Err(MemError::OutOfBounds { addr });
        }
        Ok((addr - GLOBAL_HEAP_BASE) as usize)
    }

    /// Reads `len` bytes at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] when the range leaves every allocation.
    pub fn read_bytes(&self, addr: u64, len: u32) -> Result<&[u8], MemError> {
        let off = self.offset(addr, len)?;
        Ok(&self.bytes[off..off + len as usize])
    }

    /// Writes bytes at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfBounds`] when the range leaves every allocation.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        let off = self.offset(addr, data.len() as u32)?;
        self.bytes[off..off + data.len()].copy_from_slice(data);
        if let Some(journal) = &mut self.journal {
            for (i, chunk) in data.chunks(16).enumerate() {
                let mut buf = [0u8; 16];
                buf[..chunk.len()].copy_from_slice(chunk);
                journal.push(JournalOp::Store {
                    addr: addr + 16 * i as u64,
                    len: chunk.len() as u8,
                    data: buf,
                });
            }
        }
        Ok(())
    }

    /// Performs an atomic read-modify-write at `addr` and returns the
    /// *old* value. On a forked view the operation (not the resulting
    /// value) is journaled, so commutative reductions from concurrent
    /// shards combine correctly at commit time.
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] or [`MemError::OutOfBounds`].
    pub fn atomic(
        &mut self,
        op: AtomOp,
        addr: u64,
        v: u64,
        v2: u64,
        wide: bool,
    ) -> Result<u64, MemError> {
        let old = if wide {
            self.read_u64(addr)?
        } else {
            self.read_u32(addr)? as u64
        };
        let new = apply_atom(op, old, v, v2, wide);
        // Suppress the Store journaling of the internal write: the
        // effect is recorded as an `Atom` entry instead.
        let journal = self.journal.take();
        let wrote = if wide {
            self.write_u64(addr, new)
        } else {
            self.write_u32(addr, new as u32)
        };
        self.journal = journal;
        wrote?;
        if let Some(journal) = &mut self.journal {
            journal.push(JournalOp::Atom {
                op,
                addr,
                v,
                v2,
                wide,
            });
        }
        Ok(old)
    }

    /// Reads a `u32` (requires 4-byte alignment).
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] or [`MemError::OutOfBounds`].
    pub fn read_u32(&self, addr: u64) -> Result<u32, MemError> {
        if !addr.is_multiple_of(4) {
            return Err(MemError::Misaligned { addr, align: 4 });
        }
        let b = self.read_bytes(addr, 4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Writes a `u32` (requires 4-byte alignment).
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] or [`MemError::OutOfBounds`].
    pub fn write_u32(&mut self, addr: u64, v: u32) -> Result<(), MemError> {
        if !addr.is_multiple_of(4) {
            return Err(MemError::Misaligned { addr, align: 4 });
        }
        self.write_bytes(addr, &v.to_le_bytes())
    }

    /// Reads a `u64` (requires 8-byte alignment for atomics; plain loads
    /// use two `read_u32`s, so this helper requires only 4).
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] or [`MemError::OutOfBounds`].
    pub fn read_u64(&self, addr: u64) -> Result<u64, MemError> {
        if !addr.is_multiple_of(4) {
            return Err(MemError::Misaligned { addr, align: 4 });
        }
        let b = self.read_bytes(addr, 8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Writes a `u64`.
    ///
    /// # Errors
    ///
    /// [`MemError::Misaligned`] or [`MemError::OutOfBounds`].
    pub fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), MemError> {
        if !addr.is_multiple_of(4) {
            return Err(MemError::Misaligned { addr, align: 4 });
        }
        self.write_bytes(addr, &v.to_le_bytes())
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.next
    }

    /// Heap capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.bytes.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_returns_heap_addresses() {
        let mut m = DeviceMemory::new(1 << 16);
        let a = m.alloc(64, 4).unwrap();
        assert!(a >= GLOBAL_HEAP_BASE);
        let b = m.alloc(64, 256).unwrap();
        assert_eq!((b - GLOBAL_HEAP_BASE) % 256, 0);
        assert!(m.used() >= 128);
    }

    #[test]
    fn rw_roundtrip() {
        let mut m = DeviceMemory::new(1 << 12);
        let a = m.alloc(16, 8).unwrap();
        m.write_u32(a, 0xdeadbeef).unwrap();
        m.write_u64(a + 8, 0x0123_4567_89ab_cdef).unwrap();
        assert_eq!(m.read_u32(a).unwrap(), 0xdeadbeef);
        assert_eq!(m.read_u64(a + 8).unwrap(), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn oob_detected() {
        let mut m = DeviceMemory::new(1 << 12);
        let a = m.alloc(8, 4).unwrap();
        assert!(m.read_u32(a + 8).is_err());
        assert!(m.read_u32(GLOBAL_HEAP_BASE - 4).is_err());
        // Range straddling the end of an allocation is rejected.
        assert!(matches!(
            m.read_bytes(a + 4, 8),
            Err(MemError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn range_wrapping_the_address_space_is_out_of_bounds() {
        let m = DeviceMemory::new(1 << 12);
        assert_eq!(
            m.read_u32(u64::MAX - 3),
            Err(MemError::OutOfBounds { addr: u64::MAX - 3 })
        );
    }

    #[test]
    fn misalignment_detected() {
        let mut m = DeviceMemory::new(1 << 12);
        let a = m.alloc(16, 4).unwrap();
        assert!(matches!(
            m.read_u32(a + 1),
            Err(MemError::Misaligned { .. })
        ));
    }

    #[test]
    fn oom_detected() {
        let mut m = DeviceMemory::new(64);
        assert!(m.alloc(128, 4).is_err());
    }

    #[test]
    fn atomic_returns_old_and_applies() {
        let mut m = DeviceMemory::new(1 << 12);
        let a = m.alloc(16, 8).unwrap();
        m.write_u32(a, 10).unwrap();
        assert_eq!(m.atomic(AtomOp::Add, a, 5, 0, false).unwrap(), 10);
        assert_eq!(m.read_u32(a).unwrap(), 15);
        m.write_u64(a + 8, 7).unwrap();
        assert_eq!(m.atomic(AtomOp::Max, a + 8, 9, 0, true).unwrap(), 7);
        assert_eq!(m.read_u64(a + 8).unwrap(), 9);
        // CAS: succeeds only when old matches the compare value.
        assert_eq!(m.atomic(AtomOp::Cas, a, 15, 99, false).unwrap(), 15);
        assert_eq!(m.read_u32(a).unwrap(), 99);
    }

    #[test]
    fn fork_commit_replays_stores_and_combines_atomics() {
        let mut m = DeviceMemory::new(1 << 12);
        let a = m.alloc(64, 8).unwrap();
        m.write_u32(a, 100).unwrap();

        let mut f1 = m.fork();
        let mut f2 = m.fork();
        // Disjoint stores plus a shared commutative accumulator.
        f1.write_u32(a + 8, 11).unwrap();
        f1.atomic(AtomOp::Add, a, 3, 0, false).unwrap();
        f2.write_u32(a + 12, 22).unwrap();
        f2.atomic(AtomOp::Add, a, 4, 0, false).unwrap();
        // Each fork saw only its own delta on top of the base value.
        assert_eq!(f1.read_u32(a).unwrap(), 103);
        assert_eq!(f2.read_u32(a).unwrap(), 104);

        let j1 = f1.take_journal();
        let j2 = f2.take_journal();
        m.commit(&j1);
        m.commit(&j2);
        assert_eq!(m.read_u32(a).unwrap(), 107); // both deltas land
        assert_eq!(m.read_u32(a + 8).unwrap(), 11);
        assert_eq!(m.read_u32(a + 12).unwrap(), 22);
        // Master is not a journaling view.
        assert!(m.take_journal().is_empty());
    }

    #[test]
    fn wide_stores_are_chunked_in_the_journal() {
        let mut m = DeviceMemory::new(1 << 12);
        let a = m.alloc(64, 8).unwrap();
        let mut f = m.fork();
        let data: Vec<u8> = (0..40u8).collect();
        f.write_bytes(a, &data).unwrap();
        let journal = f.take_journal();
        assert_eq!(journal.len(), 3); // 16 + 16 + 8
        m.commit(&journal);
        assert_eq!(m.read_bytes(a, 40).unwrap(), &data[..]);
    }
}
