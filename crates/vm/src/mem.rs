//! Process memory: a stack segment and a globals segment.
//!
//! Stack buffer overflow is a *memory layout* phenomenon, so the simulator
//! models the stack as a real byte array at realistic virtual addresses with
//! the downward growth direction of x86-64.  Overflowing a local buffer
//! therefore overwrites — in this order — higher-addressed locals, the stack
//! canary slot(s), the saved frame pointer and finally the saved return
//! address, exactly as on the paper's platform (Figure 1).
//!
//! The globals segment hosts the per-thread global buffer of the §VII-C
//! layout-preserving variant (Figure 6) and any global state the synthetic
//! workloads need.
//!
//! A segment is in one of two states.  A *zero* segment reads from one
//! static all-zero block and owns no allocation, so building an image —
//! every spawn, snapshot restore and `Process::new` — allocates nothing,
//! and so does cloning one.  The first write makes a segment *owned*: it
//! allocates the segment zeroed and from then on remembers the byte range
//! `written` since.  The invariant is that **an owned segment is zero
//! outside `written`**, so a segment's contents are its `written` bytes
//! and nothing else.  A forked worker that never touches its globals never
//! pays for them, which is what lets a fleet campaign boot 10^5 victims
//! without materialising 10^5 address spaces.
//!
//! Cloning an owned segment — what `fork()` does to a parent that has
//! written — copies only the `written` range into a zeroed allocation.
//! [`Clone::clone_from`] — the refork of a reused worker — zero-fills the
//! worker's own `written` range in place and then, from an owned parent of
//! the same length, copies the parent's `written` range: it allocates
//! nothing whether the parent is still zero or has written.  A forking
//! server that forks each connection into one reused worker therefore
//! pays, per connection, for the bytes written on either side, not for the
//! whole stack.

use std::ops::Range;

use crate::error::VmError;

/// Highest stack address + 1 (the stack grows down from here).
pub const STACK_TOP: u64 = 0x7FFF_FFFF_F000;
/// Default stack segment size in bytes.
pub const DEFAULT_STACK_SIZE: u64 = 64 * 1024;
/// Base address of the globals segment.
pub const GLOBAL_BASE: u64 = 0x0060_0000;
/// Default globals segment size in bytes.
pub const DEFAULT_GLOBAL_SIZE: u64 = 64 * 1024;

/// The bytes every untouched segment reads: large enough for either
/// default segment.  A larger (custom) stack is allocated zeroed instead.
static ZERO_BLOCK: [u8; DEFAULT_STACK_SIZE as usize] = [0; DEFAULT_STACK_SIZE as usize];

/// One segment of a process image: `Zero` until anything writes it (its
/// bytes are the static [`ZERO_BLOCK`], so creating and cloning it copies
/// a length), then `Owned`, zero outside its `written` range.  An owned
/// segment hands out `&mut` directly, which keeps the interpreter's write
/// gateway a bounds check and a copy.
#[derive(Debug)]
enum Pages {
    Zero(usize),
    Owned { bytes: Vec<u8>, written: Written },
}

/// The byte range `lo..hi` an owned segment may hold non-zero bytes in;
/// empty when `lo >= hi`.
#[derive(Debug, Clone, Copy)]
struct Written {
    lo: usize,
    hi: usize,
}

impl Written {
    const NONE: Written = Written { lo: usize::MAX, hi: 0 };

    #[inline]
    fn mark(&mut self, start: usize, end: usize) {
        self.lo = self.lo.min(start);
        self.hi = self.hi.max(end);
    }

    /// The written range (empty when nothing is).
    fn range(self) -> Range<usize> {
        self.lo.min(self.hi)..self.hi
    }
}

impl Pages {
    /// A fresh all-zero segment: `Zero` when the zero block covers it.
    fn new(size: usize) -> Self {
        if size <= ZERO_BLOCK.len() {
            Pages::Zero(size)
        } else {
            Pages::Owned { bytes: vec![0u8; size], written: Written::NONE }
        }
    }

    #[inline]
    fn bytes(&self) -> &[u8] {
        match self {
            Pages::Zero(len) => &ZERO_BLOCK[..*len],
            Pages::Owned { bytes, .. } => bytes,
        }
    }

    /// The single write gateway: copies `data` to offset `off` (which the
    /// caller has bounds-checked) and widens `written` over it.  The first
    /// write to a `Zero` segment allocates it zeroed.
    #[inline]
    fn write(&mut self, off: usize, data: &[u8]) {
        if let Pages::Zero(len) = self {
            *self = Pages::Owned { bytes: vec![0u8; *len], written: Written::NONE };
        }
        if let Pages::Owned { bytes, written } = self {
            bytes[off..off + data.len()].copy_from_slice(data);
            written.mark(off, off + data.len());
        }
    }
}

impl Clone for Pages {
    /// A zero segment copies its length; an owned one copies only its
    /// `written` range into a zeroed allocation.
    fn clone(&self) -> Self {
        match self {
            Pages::Zero(len) => Pages::Zero(*len),
            Pages::Owned { bytes, written } => {
                let mut copy = vec![0u8; bytes.len()];
                let range = written.range();
                copy[range.clone()].copy_from_slice(&bytes[range]);
                Pages::Owned { bytes: copy, written: *written }
            }
        }
    }

    /// The refork: an owned segment zero-fills its own `written` range and,
    /// from an owned source of the same length, copies the source's
    /// `written` range — no allocation.  Any other pairing is a plain
    /// clone.
    fn clone_from(&mut self, source: &Self) {
        match (&mut *self, source) {
            // First: every fleet parent is still zero.
            (Pages::Owned { bytes, written }, Pages::Zero(len)) if bytes.len() == *len => {
                bytes[written.range()].fill(0);
                *written = Written::NONE;
            }
            (
                Pages::Owned { bytes, written },
                Pages::Owned { bytes: theirs, written: their_written },
            ) if bytes.len() == theirs.len() => {
                bytes[written.range()].fill(0);
                let range = their_written.range();
                bytes[range.clone()].copy_from_slice(&theirs[range]);
                *written = *their_written;
            }
            _ => *self = source.clone(),
        }
    }
}

/// The memory of one simulated process (stack + globals).
///
/// Cloning a [`Memory`] models `fork()`: the child receives an independent
/// byte-for-byte copy — crucially *including* the stack frames that the
/// parent pushed before forking (§II-B, "Caveat").  The clone copies a
/// length per untouched segment and only the written range of a written
/// one.  A fresh image allocates nothing: its segments read from one
/// static all-zero block until written.
///
/// [`Clone::clone_from`] is the reusing form of the same fork: the result
/// equals `source.clone()` byte for byte, but a segment of the same length
/// that `self` already owns is reused — only the bytes written on either
/// side are zero-filled and copied.
#[derive(Debug)]
pub struct Memory {
    stack: Pages,
    stack_size: u64,
    globals: Pages,
    global_size: u64,
}

impl Clone for Memory {
    fn clone(&self) -> Self {
        Memory {
            stack: self.stack.clone(),
            stack_size: self.stack_size,
            globals: self.globals.clone(),
            global_size: self.global_size,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.stack.clone_from(&source.stack);
        self.stack_size = source.stack_size;
        self.globals.clone_from(&source.globals);
        self.global_size = source.global_size;
    }
}

impl PartialEq for Memory {
    /// Equality is by *contents*: two images are equal iff their segments
    /// hold the same bytes, whether those read the zero block or are owned.
    fn eq(&self, other: &Memory) -> bool {
        self.stack_size == other.stack_size
            && self.global_size == other.global_size
            && self.stack.bytes() == other.stack.bytes()
            && self.globals.bytes() == other.globals.bytes()
    }
}

impl Eq for Memory {}

impl Memory {
    /// Creates a memory image with the default segment sizes.
    pub fn new() -> Self {
        Self::with_stack_size(DEFAULT_STACK_SIZE)
    }

    /// Creates a memory image with a custom stack size (rounded up to 16).
    /// Both segments start untouched and allocate nothing, unless the stack
    /// is larger than [`DEFAULT_STACK_SIZE`]: that one is allocated zeroed.
    pub fn with_stack_size(stack_size: u64) -> Self {
        let stack_size = stack_size.max(4096).next_multiple_of(16);
        Memory {
            stack: Pages::new(stack_size as usize),
            stack_size,
            globals: Pages::new(DEFAULT_GLOBAL_SIZE as usize),
            global_size: DEFAULT_GLOBAL_SIZE,
        }
    }

    /// The highest valid stack address + 1 (initial `rsp`).
    pub fn stack_top(&self) -> u64 {
        STACK_TOP
    }

    /// The lowest mapped stack address.
    #[inline]
    pub fn stack_limit(&self) -> u64 {
        STACK_TOP - self.stack_size
    }

    /// The size in bytes of the globals segment.
    pub fn global_size(&self) -> u64 {
        self.global_size
    }

    /// Returns `true` if `addr` falls inside the stack segment.
    #[inline]
    pub fn is_stack_addr(&self, addr: u64) -> bool {
        addr >= self.stack_limit() && addr < STACK_TOP
    }

    /// Returns `true` if `addr` falls inside the globals segment.
    #[inline]
    pub fn is_global_addr(&self, addr: u64) -> bool {
        addr >= GLOBAL_BASE && addr < GLOBAL_BASE + self.global_size
    }

    #[inline]
    fn resolve(&self, addr: u64, len: usize) -> Result<(Segment, usize), VmError> {
        let end = addr.checked_add(len as u64).ok_or(VmError::UnmappedAddress { addr })?;
        if self.is_stack_addr(addr) {
            if end <= STACK_TOP {
                Ok((Segment::Stack, (addr - self.stack_limit()) as usize))
            } else {
                Err(VmError::PartialAccess { addr, len })
            }
        } else if self.is_global_addr(addr) {
            if end <= GLOBAL_BASE + self.global_size {
                Ok((Segment::Globals, (addr - GLOBAL_BASE) as usize))
            } else {
                Err(VmError::PartialAccess { addr, len })
            }
        } else {
            Err(VmError::UnmappedAddress { addr })
        }
    }

    #[inline]
    fn segment(&self, seg: Segment) -> &[u8] {
        match seg {
            Segment::Stack => self.stack.bytes(),
            Segment::Globals => self.globals.bytes(),
        }
    }

    /// The single write gateway: writes `data` at a resolved offset of the
    /// touched segment (allocating that segment, and only that one, if it
    /// is still zero).
    #[inline]
    fn write_segment(&mut self, seg: Segment, off: usize, data: &[u8]) {
        match seg {
            Segment::Stack => self.stack.write(off, data),
            Segment::Globals => self.globals.write(off, data),
        }
    }

    /// Reads a 64-bit little-endian word.
    ///
    /// The fully-in-stack case — every push, pop and frame access of the
    /// interpreter — is answered with a single range check; everything else
    /// (globals, unmapped, straddling) falls back to the generic
    /// `Memory::resolve` path with identical semantics.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::UnmappedAddress`] or [`VmError::PartialAccess`] if
    /// the access is not fully inside a mapped segment.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> Result<u64, VmError> {
        let limit = self.stack_limit();
        if addr >= limit && addr <= STACK_TOP - 8 {
            let off = (addr - limit) as usize;
            if let Some(bytes) = self.stack.bytes().get(off..off + 8) {
                return Ok(u64::from_le_bytes(bytes.try_into().expect("slice length is 8")));
            }
        }
        let (seg, off) = self.resolve(addr, 8)?;
        let bytes = &self.segment(seg)[off..off + 8];
        Ok(u64::from_le_bytes(bytes.try_into().expect("slice length is 8")))
    }

    /// Writes a 64-bit little-endian word.
    ///
    /// Same in-stack fast path as [`Memory::read_u64`], taken only when the
    /// stack is already owned (the steady state of a running process; the
    /// first write to a zero stack allocates it in the fallback).  The fast
    /// path widens the written range like every other write.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::UnmappedAddress`] or [`VmError::PartialAccess`] if
    /// the access is not fully inside a mapped segment.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, value: u64) -> Result<(), VmError> {
        let limit = self.stack_limit();
        if addr >= limit && addr <= STACK_TOP - 8 {
            let off = (addr - limit) as usize;
            if let Pages::Owned { bytes, written } = &mut self.stack {
                if let Some(chunk) = bytes.get_mut(off..off + 8) {
                    chunk.copy_from_slice(&value.to_le_bytes());
                    written.mark(off, off + 8);
                    return Ok(());
                }
            }
        }
        let (seg, off) = self.resolve(addr, 8)?;
        self.write_segment(seg, off, &value.to_le_bytes());
        Ok(())
    }

    /// Reads a 32-bit little-endian word.
    ///
    /// # Errors
    ///
    /// Same as [`Memory::read_u64`].
    #[inline]
    pub fn read_u32(&self, addr: u64) -> Result<u32, VmError> {
        let (seg, off) = self.resolve(addr, 4)?;
        let bytes = &self.segment(seg)[off..off + 4];
        Ok(u32::from_le_bytes(bytes.try_into().expect("slice length is 4")))
    }

    /// Writes a 32-bit little-endian word.
    ///
    /// # Errors
    ///
    /// Same as [`Memory::write_u64`].
    #[inline]
    pub fn write_u32(&mut self, addr: u64, value: u32) -> Result<(), VmError> {
        let (seg, off) = self.resolve(addr, 4)?;
        self.write_segment(seg, off, &value.to_le_bytes());
        Ok(())
    }

    /// Reads a single byte.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::UnmappedAddress`] if `addr` is not mapped.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> Result<u8, VmError> {
        let (seg, off) = self.resolve(addr, 1)?;
        Ok(self.segment(seg)[off])
    }

    /// Writes a single byte.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::UnmappedAddress`] if `addr` is not mapped.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, value: u8) -> Result<(), VmError> {
        let (seg, off) = self.resolve(addr, 1)?;
        self.write_segment(seg, off, &[value]);
        Ok(())
    }

    /// Copies `data` into memory starting at `addr`.
    ///
    /// This is the primitive behind the vulnerable `strcpy`/`read` model: the
    /// copy proceeds towards *higher* addresses and is bounded only by the
    /// mapped segment, so it can run over canaries and the saved return
    /// address.
    ///
    /// # Errors
    ///
    /// Returns an error if any byte of the destination range is unmapped; in
    /// that case no bytes are written (the fault is detected up front, which
    /// models the MMU fault terminating the process before the copy is
    /// observable).
    #[inline]
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), VmError> {
        if data.is_empty() {
            return Ok(());
        }
        let (seg, off) = self.resolve(addr, data.len())?;
        self.write_segment(seg, off, data);
        Ok(())
    }

    /// Reads `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns an error if any byte of the source range is unmapped.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Result<Vec<u8>, VmError> {
        if len == 0 {
            return Ok(Vec::new());
        }
        let (seg, off) = self.resolve(addr, len)?;
        Ok(self.segment(seg)[off..off + len].to_vec())
    }
}

impl Default for Memory {
    fn default() -> Self {
        Self::new()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    Stack,
    Globals,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_word_roundtrip() {
        let mut mem = Memory::new();
        let addr = STACK_TOP - 0x100;
        mem.write_u64(addr, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(mem.read_u64(addr).unwrap(), 0x1122_3344_5566_7788);
    }

    #[test]
    fn global_word_roundtrip() {
        let mut mem = Memory::new();
        mem.write_u64(GLOBAL_BASE + 64, 99).unwrap();
        assert_eq!(mem.read_u64(GLOBAL_BASE + 64).unwrap(), 99);
    }

    #[test]
    fn unmapped_access_is_error() {
        let mem = Memory::new();
        assert!(matches!(mem.read_u64(0x1000), Err(VmError::UnmappedAddress { .. })));
        assert!(matches!(mem.read_u64(0), Err(VmError::UnmappedAddress { .. })));
    }

    #[test]
    fn partial_access_at_stack_top_is_error() {
        let mut mem = Memory::new();
        assert!(mem.write_u64(STACK_TOP - 4, 1).is_err());
        assert!(mem.write_bytes(STACK_TOP - 2, &[0u8; 8]).is_err());
    }

    #[test]
    fn little_endian_byte_order() {
        let mut mem = Memory::new();
        let addr = STACK_TOP - 0x40;
        mem.write_u64(addr, 0x0807_0605_0403_0201).unwrap();
        for i in 0..8u64 {
            assert_eq!(mem.read_u8(addr + i).unwrap(), (i + 1) as u8);
        }
    }

    #[test]
    fn overflow_copy_clobbers_higher_addresses() {
        // Model of the attack: a 16-byte buffer at `buf`, the canary 8 bytes
        // above it; writing 24 bytes from `buf` overwrites the canary.
        let mut mem = Memory::new();
        let buf = STACK_TOP - 0x200;
        let canary_slot = buf + 16;
        mem.write_u64(canary_slot, 0xAAAA_BBBB_CCCC_DDDD).unwrap();
        mem.write_bytes(buf, &[0x41u8; 24]).unwrap();
        assert_eq!(mem.read_u64(canary_slot).unwrap(), 0x4141_4141_4141_4141);
    }

    #[test]
    fn clone_is_independent_after_fork() {
        let mut parent = Memory::new();
        let addr = STACK_TOP - 0x80;
        parent.write_u64(addr, 1).unwrap();
        let mut child = parent.clone();
        child.write_u64(addr, 2).unwrap();
        assert_eq!(parent.read_u64(addr).unwrap(), 1);
        assert_eq!(child.read_u64(addr).unwrap(), 2);
    }

    #[test]
    fn refork_from_a_written_parent_copies_in_place() {
        let mut parent = Memory::new();
        parent.write_u64(STACK_TOP - 0x100, 9).unwrap();
        // A clone copies only what was written: the untouched globals stay
        // on the zero block.
        let mut worker = parent.clone();
        assert_eq!(worker, parent);
        assert!(matches!(worker.globals, Pages::Zero(_)), "an untouched segment stays zero");
        let allocation = worker.stack.bytes().as_ptr();
        worker.write_u32(STACK_TOP - 0x200, 2).unwrap();
        worker.write_bytes(STACK_TOP - 0x40, b"written").unwrap();
        // The parent writes between forks, above and below its own range.
        parent.write_u64(STACK_TOP - 0x80, 3).unwrap();
        parent.write_u8(STACK_TOP - 0x400, 4).unwrap();
        worker.clone_from(&parent);
        assert_eq!(worker, parent);
        assert_eq!(worker.stack.bytes().as_ptr(), allocation, "no new allocation");
        let Pages::Owned { bytes, written } = &worker.stack else { panic!("the worker owns") };
        let (range, size) = (written.range(), DEFAULT_STACK_SIZE as usize);
        assert_eq!(range, size - 0x400..size - 0x78, "the parent's written range");
        assert!(bytes[..range.start].iter().chain(&bytes[range.end..]).all(|&b| b == 0));
    }

    #[test]
    fn refork_from_a_zero_parent_zero_fills_in_place() {
        let parent = Memory::new();
        assert!(matches!(parent.stack, Pages::Zero(_)), "fresh images are zero");
        let mut worker = parent.clone();
        worker.write_u64(STACK_TOP - 0x80, 1).unwrap();
        let allocation = worker.stack.bytes().as_ptr();
        worker.write_u32(STACK_TOP - 0x200, 2).unwrap();
        worker.write_bytes(STACK_TOP - 0x40, b"written").unwrap();
        worker.clone_from(&parent);
        assert_eq!(worker, parent);
        assert_eq!(worker.stack.bytes().as_ptr(), allocation, "no new allocation");
        assert!(matches!(worker.stack, Pages::Owned { written, .. } if written.range().is_empty()));
    }

    #[test]
    fn equality_is_by_contents_not_by_sharing() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        a.write_u64(STACK_TOP - 8, 0).unwrap();
        b.write_u64(GLOBAL_BASE, 0).unwrap();
        assert!(matches!((&a.stack, &b.stack), (Pages::Owned { .. }, Pages::Zero(_))));
        assert!(matches!((&a.globals, &b.globals), (Pages::Zero(_), Pages::Owned { .. })));
        assert_eq!(a, b, "one segment owned on each side, but their zeroed contents are equal");
    }

    #[test]
    fn custom_stack_size_respected() {
        let mem = Memory::with_stack_size(8192);
        assert_eq!(mem.stack_top() - mem.stack_limit(), 8192);
        assert!(mem.is_stack_addr(STACK_TOP - 8192));
        assert!(!mem.is_stack_addr(STACK_TOP - 8192 - 1));
    }

    #[test]
    fn read_bytes_roundtrip() {
        let mut mem = Memory::new();
        let addr = GLOBAL_BASE + 100;
        mem.write_bytes(addr, b"polymorphic canary").unwrap();
        assert_eq!(mem.read_bytes(addr, 18).unwrap(), b"polymorphic canary");
    }

    #[test]
    fn empty_writes_and_reads_are_noops() {
        let mut mem = Memory::new();
        assert!(mem.write_bytes(0xdead, &[]).is_ok());
        assert_eq!(mem.read_bytes(0xdead, 0).unwrap(), Vec::<u8>::new());
    }

    // Pseudo-random property checks (crates.io is unavailable, so these are
    // driven by the workspace's own deterministic PRNG instead of proptest).

    #[test]
    fn u64_roundtrip_anywhere_in_stack() {
        use polycanary_crypto::prng::Prng;
        let mut rng = polycanary_crypto::SplitMix64::new(0xA11C);
        for _ in 0..256 {
            let offset = 8 + rng.next_u64() % (DEFAULT_STACK_SIZE - 16);
            let value = rng.next_u64();
            let mut mem = Memory::new();
            let addr = mem.stack_limit() + offset;
            mem.write_u64(addr, value).unwrap();
            assert_eq!(mem.read_u64(addr).unwrap(), value, "offset {offset}");
        }
    }

    #[test]
    fn byte_writes_equal_word_write() {
        use polycanary_crypto::prng::Prng;
        let mut rng = polycanary_crypto::SplitMix64::new(0xB22D);
        for _ in 0..256 {
            let value = rng.next_u64();
            let mut a = Memory::new();
            let mut b = Memory::new();
            let addr = STACK_TOP - 0x100;
            a.write_u64(addr, value).unwrap();
            for (i, byte) in value.to_le_bytes().iter().enumerate() {
                b.write_u8(addr + i as u64, *byte).unwrap();
            }
            assert_eq!(a.read_u64(addr).unwrap(), b.read_u64(addr).unwrap());
        }
    }
}
