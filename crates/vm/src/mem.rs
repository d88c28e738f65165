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
//! Both segments are copy-on-write pages.  A fresh segment is *zero*: it
//! reads from one static all-zero block and owns no allocation, so building
//! an image — every spawn, snapshot restore and `Process::new` — allocates
//! nothing.  Cloning a [`Memory`] — which is what `fork()` does — copies a
//! length for a zero segment and bumps an `Arc` for a written one; a
//! segment is copied (or, from zero, allocated zeroed) the first time
//! either side writes to it.  A forked worker that never touches its
//! globals never pays for them, which is what lets a fleet campaign boot
//! 10^5 victims without materialising 10^5 address spaces.
//!
//! A segment copied on write remembers the shared allocation it came from
//! (or that it came from the zero block) and the byte range written since.
//! [`Clone::clone_from`] — the refork of a reused worker — uses that: when
//! the source is still that same allocation, or still zero, only the
//! written range is copied back or zero-filled, with no allocation and no
//! reference-count traffic.  A forking server that forks each connection
//! into one reused worker therefore pays, per connection, for the bytes the
//! previous connection wrote, not for the whole stack.

use std::ops::Range;
use std::sync::Arc;

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

/// One copy-on-write segment of a process image.
///
/// A segment is `Zero` until anything writes it: its bytes are the static
/// [`ZERO_BLOCK`], so creating and cloning it copies a length — no
/// allocation and no `Arc` traffic.  It is `Shared` while its written bytes
/// may alias another process (fork children), and `Owned` after its first
/// write.  The distinction is
/// what keeps the interpreter's write gateway atomics-free:
/// `Arc::make_mut` performs a compare-and-swap on the weak count on *every*
/// call — ~10 ns per guest store even when the segment is long since
/// unshared — whereas an `Owned` segment hands out `&mut` directly.
/// [`Pages::share`] converts back to `Shared` so `fork()` stays an `Arc`
/// bump per segment.
///
/// An `Owned` segment keeps the allocation it was copied from as its
/// `origin` (`None` when it was allocated from `Zero`) and the `dirty`
/// range written since, which is what lets [`Clone::clone_from`] restore
/// it from the same origin by copying, or zero-filling, only the dirty
/// bytes.
#[derive(Debug)]
enum Pages {
    Zero(usize),
    Shared(Arc<Vec<u8>>),
    Owned { bytes: Vec<u8>, origin: Option<Arc<Vec<u8>>>, dirty: Dirty },
}

/// The byte range `lo..hi` written since an owned segment was last in sync
/// with its origin; empty when `lo >= hi`.
#[derive(Debug, Clone, Copy)]
struct Dirty {
    lo: usize,
    hi: usize,
}

impl Dirty {
    const CLEAN: Dirty = Dirty { lo: usize::MAX, hi: 0 };

    #[inline]
    fn mark(&mut self, start: usize, end: usize) {
        self.lo = self.lo.min(start);
        self.hi = self.hi.max(end);
    }

    /// The dirty range (empty when clean), leaving the segment clean.
    fn take(&mut self) -> Range<usize> {
        let range = self.lo.min(self.hi)..self.hi;
        *self = Dirty::CLEAN;
        range
    }
}

impl Pages {
    /// A fresh all-zero segment: `Zero` when the zero block covers it.
    fn new(size: usize) -> Self {
        if size <= ZERO_BLOCK.len() {
            Pages::Zero(size)
        } else {
            Pages::Shared(Arc::new(vec![0u8; size]))
        }
    }

    #[inline]
    fn bytes(&self) -> &[u8] {
        match self {
            Pages::Zero(len) => &ZERO_BLOCK[..*len],
            Pages::Shared(arc) => arc,
            Pages::Owned { bytes, .. } => bytes,
        }
    }

    /// The single write gateway: copies `data` to offset `off` (which the
    /// caller has bounds-checked) and records the range as dirty.  The
    /// first write to a `Zero` segment allocates it zeroed, and the first
    /// write to a `Shared` one copies it (the copy-on-write fault); an
    /// `Owned` segment is written with no refcount traffic.
    #[inline]
    fn write(&mut self, off: usize, data: &[u8]) {
        match self {
            Pages::Owned { .. } => {}
            Pages::Zero(len) => {
                *self = Pages::Owned { bytes: vec![0u8; *len], origin: None, dirty: Dirty::CLEAN }
            }
            // Move the `Arc` into `origin` rather than cloning it: the copy
            // costs no refcount update.
            Pages::Shared(_) => {
                if let Pages::Shared(origin) = std::mem::replace(self, Pages::Zero(0)) {
                    let bytes = origin.as_ref().clone();
                    *self = Pages::Owned { bytes, origin: Some(origin), dirty: Dirty::CLEAN };
                }
            }
        }
        if let Pages::Owned { bytes, dirty, .. } = self {
            bytes[off..off + data.len()].copy_from_slice(data);
            dirty.mark(off, off + data.len());
        }
    }

    /// Converts an `Owned` segment back to `Shared` (without copying) so a
    /// subsequent [`Clone`] is an `Arc` bump.  `fork()` calls this on the
    /// parent: the child then shares the parent's written frames — the
    /// §II-B caveat — and the byte copy is deferred to whichever side
    /// writes first.  A `Zero` segment stays zero.
    fn share(&mut self) {
        if let Pages::Owned { bytes, .. } = self {
            *self = Pages::Shared(Arc::new(std::mem::take(bytes)));
        }
    }

    /// Whether both sides read the same bytes without either owning them:
    /// the same zero-block prefix, or the same shared allocation.
    fn ptr_eq(&self, other: &Pages) -> bool {
        match (self, other) {
            (Pages::Zero(a), Pages::Zero(b)) => a == b,
            (Pages::Shared(a), Pages::Shared(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Clone for Pages {
    fn clone(&self) -> Self {
        match self {
            Pages::Zero(len) => Pages::Zero(*len),
            Pages::Shared(arc) => Pages::Shared(Arc::clone(arc)),
            // Cloning an owned segment has to copy; fork avoids this by
            // calling `share` on the parent first.
            Pages::Owned { bytes, .. } => Pages::Shared(Arc::new(bytes.clone())),
        }
    }

    /// The refork: when `self` was copied from the very allocation `source`
    /// shares, only the dirty range is copied back; when it was allocated
    /// from zero and `source` is still zero, only the dirty range is
    /// zero-filled — no allocation, no refcount update.  Any other pairing
    /// falls back to a plain clone.
    fn clone_from(&mut self, source: &Self) {
        match (&mut *self, source) {
            (Pages::Shared(mine), Pages::Shared(theirs)) if Arc::ptr_eq(mine, theirs) => {}
            (Pages::Owned { bytes, origin: Some(origin), dirty }, Pages::Shared(theirs))
                if Arc::ptr_eq(origin, theirs) =>
            {
                let range = dirty.take();
                bytes[range.clone()].copy_from_slice(&theirs[range]);
            }
            (Pages::Owned { bytes, origin: None, dirty }, Pages::Zero(len))
                if bytes.len() == *len =>
            {
                bytes[dirty.take()].fill(0);
            }
            _ => *self = source.clone(),
        }
    }
}

/// The memory of one simulated process (stack + globals).
///
/// Cloning a [`Memory`] models `fork()`: the child receives a copy-on-write
/// image which, for the purposes of canary semantics, behaves as an
/// independent byte-for-byte copy — crucially *including* the stack frames
/// that the parent pushed before forking (§II-B, "Caveat").  The clone
/// itself copies a length per untouched segment and bumps an `Arc` per
/// written one; the actual byte copy happens lazily on the first write to
/// each segment (see the private `Pages` state).  A fresh image allocates
/// nothing: its segments read from one static all-zero block until
/// written.
///
/// [`Clone::clone_from`] is the reusing form of the same fork: the result
/// equals `source.clone()` byte for byte, but a segment that was copied
/// from the allocation `source` still shares, or allocated from zero while
/// `source`'s is still zero, gets back only the bytes written since.
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
    /// hold the same bytes, regardless of whether those bytes are shared,
    /// owned or aliased.
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

    /// Re-shares any segment this process owns outright, so that a
    /// subsequent [`Clone`] — i.e. a `fork()` — is an `Arc` bump per
    /// written segment instead of a byte copy.  The owned bytes are moved,
    /// not copied; the next write to either side pays the copy-on-write
    /// fault.  An untouched segment stays on the zero block.
    pub fn share_pages(&mut self) {
        self.stack.share();
        self.globals.share();
    }

    /// Whether `self` and `other` still share both underlying segments —
    /// the same allocation, or both still untouched on the zero block —
    /// i.e. neither side has written since the clone.  A
    /// diagnostic for the copy-on-write machinery; equality of *contents*
    /// is what `==` checks.
    pub fn shares_pages_with(&self, other: &Memory) -> bool {
        self.stack.ptr_eq(&other.stack) && self.globals.ptr_eq(&other.globals)
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

    /// The base address of the globals segment.
    pub fn global_base(&self) -> u64 {
        GLOBAL_BASE
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
    /// touched segment (unsharing that segment, and only that one).
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
    /// segment is already unshared (an owned stack is the steady state of a
    /// running process; the first write after a fork still pays the
    /// copy-on-write fault in the fallback).  The fast path records its
    /// dirty range like every other write.
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
            if let Pages::Owned { bytes, dirty, .. } = &mut self.stack {
                if let Some(chunk) = bytes.get_mut(off..off + 8) {
                    chunk.copy_from_slice(&value.to_le_bytes());
                    dirty.mark(off, off + 8);
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
    fn clone_shares_pages_until_first_write() {
        let parent = Memory::new();
        let mut child = parent.clone();
        assert!(parent.shares_pages_with(&child), "a fresh clone copies nothing");
        // A stack write unshares only the stack segment.
        child.write_u64(STACK_TOP - 0x80, 7).unwrap();
        assert!(!parent.shares_pages_with(&child));
        // The globals page is still the parent's allocation: a second clone
        // of the parent shares pages with the parent but not the child.
        assert!(parent.shares_pages_with(&parent.clone()));
        // Contents stay equal wherever untouched.
        assert_eq!(parent.read_u64(GLOBAL_BASE).unwrap(), child.read_u64(GLOBAL_BASE).unwrap());
    }

    #[test]
    fn refork_from_the_same_origin_copies_back_in_place() {
        let mut parent = Memory::new();
        parent.write_u64(STACK_TOP - 0x100, 9).unwrap();
        parent.share_pages();
        let Pages::Shared(origin) = &parent.stack else { panic!("re-shared images are shared") };
        let mut worker = parent.clone();
        worker.write_u64(STACK_TOP - 0x80, 1).unwrap();
        let refs = Arc::strong_count(origin);
        let allocation = worker.stack.bytes().as_ptr();
        worker.write_u32(STACK_TOP - 0x200, 2).unwrap();
        worker.write_bytes(STACK_TOP - 0x40, b"dirty").unwrap();
        worker.clone_from(&parent);
        assert_eq!(worker, parent);
        assert_eq!(worker.stack.bytes().as_ptr(), allocation, "no new allocation");
        assert_eq!(Arc::strong_count(origin), refs, "no refcount update");
        assert!(matches!(worker.stack, Pages::Owned { dirty, .. } if dirty.lo >= dirty.hi));
    }

    #[test]
    fn refork_from_a_zero_parent_zero_fills_in_place() {
        let parent = Memory::new();
        assert!(matches!(parent.stack, Pages::Zero(_)), "fresh images are zero");
        let mut worker = parent.clone();
        worker.write_u64(STACK_TOP - 0x80, 1).unwrap();
        let allocation = worker.stack.bytes().as_ptr();
        worker.write_u32(STACK_TOP - 0x200, 2).unwrap();
        worker.write_bytes(STACK_TOP - 0x40, b"dirty").unwrap();
        worker.clone_from(&parent);
        assert_eq!(worker, parent);
        assert_eq!(worker.stack.bytes().as_ptr(), allocation, "no new allocation");
        assert!(matches!(worker.stack, Pages::Owned { dirty, .. } if dirty.lo >= dirty.hi));
    }

    #[test]
    fn refork_after_the_parent_reshared_falls_back_to_a_full_clone() {
        let mut parent = Memory::new();
        let mut worker = parent.clone();
        worker.write_u64(STACK_TOP - 0x80, 1).unwrap();
        parent.write_u64(STACK_TOP - 0x88, 2).unwrap();
        parent.share_pages();
        worker.clone_from(&parent);
        assert_eq!(worker, parent);
        assert!(worker.shares_pages_with(&parent), "the fallback is a plain clone");
    }

    #[test]
    fn equality_is_by_contents_not_by_sharing() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        a.write_u64(STACK_TOP - 8, 0).unwrap();
        b.write_u64(GLOBAL_BASE, 0).unwrap();
        assert!(!a.shares_pages_with(&b), "independent images share nothing");
        assert_eq!(a, b, "but their zeroed contents are equal");
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
