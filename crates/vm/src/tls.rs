//! Thread Local Storage block.
//!
//! On x86-64 Linux the stack canary lives in the TLS at `%fs:0x28`.  The
//! P-SSP shared library additionally stores the *shadow* canary pair
//! `(C0, C1)` at `%fs:0x2a8`–`%fs:0x2b7` (§V-A of the paper).  This module
//! models the TLS block as a small byte array addressed by offset, and
//! exposes the canonical offsets as constants so every crate in the
//! workspace refers to the same layout.

use crate::error::VmError;

/// Offset of the classic SSP canary `C` (`%fs:0x28`).
pub const TLS_CANARY_OFFSET: u64 = 0x28;
/// Offset of the first shadow canary word `C0` (`%fs:0x2a8`).
pub const TLS_SHADOW_C0_OFFSET: u64 = 0x2a8;
/// Offset of the second shadow canary word `C1` (`%fs:0x2b0`).
pub const TLS_SHADOW_C1_OFFSET: u64 = 0x2b0;
/// Offset of the packed 32-bit shadow canary used by the binary rewriter
/// (the low word holds `C0 || C1` as two 32-bit halves).
pub const TLS_SHADOW_PACKED32_OFFSET: u64 = 0x2b8;
/// Offset of DynaGuard's pointer to its canary address buffer (CAB).
pub const TLS_DYNAGUARD_CAB_OFFSET: u64 = 0x2c0;
/// Offset of DCR's pointer to the head of its in-stack canary linked list.
pub const TLS_DCR_HEAD_OFFSET: u64 = 0x2c8;
/// Total size of the modelled TLS block in bytes.
pub const TLS_SIZE: u64 = 0x400;

/// A thread's TLS block.
///
/// Cloning a [`Tls`] is exactly what `fork()` does to the child's TLS: a
/// byte-for-byte copy of the parent's block (§II-B of the paper explains why
/// this is the root cause of the byte-by-byte attack).  The block is held
/// inline, so creating, cloning and booting a process with one allocates
/// nothing: a clone is a 1 KiB copy into the child's own block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tls {
    bytes: [u8; TLS_SIZE as usize],
}

impl Tls {
    /// Creates a zeroed TLS block.
    pub fn new() -> Self {
        Tls { bytes: [0u8; TLS_SIZE as usize] }
    }

    /// Reads a 64-bit word at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::TlsOutOfRange`] if the access crosses the block.
    #[inline]
    pub fn read_word(&self, offset: u64) -> Result<u64, VmError> {
        let start = self.check(offset, 8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&self.bytes[start..start + 8]);
        Ok(u64::from_le_bytes(buf))
    }

    /// Writes a 64-bit word at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::TlsOutOfRange`] if the access crosses the block.
    #[inline]
    pub fn write_word(&mut self, offset: u64, value: u64) -> Result<(), VmError> {
        let start = self.check(offset, 8)?;
        self.bytes[start..start + 8].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Reads a 32-bit word at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::TlsOutOfRange`] if the access crosses the block.
    pub fn read_u32(&self, offset: u64) -> Result<u32, VmError> {
        let start = self.check(offset, 4)?;
        let mut buf = [0u8; 4];
        buf.copy_from_slice(&self.bytes[start..start + 4]);
        Ok(u32::from_le_bytes(buf))
    }

    /// Writes a 32-bit word at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::TlsOutOfRange`] if the access crosses the block.
    pub fn write_u32(&mut self, offset: u64, value: u32) -> Result<(), VmError> {
        let start = self.check(offset, 4)?;
        self.bytes[start..start + 4].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Convenience accessor for the SSP canary `C`.
    pub fn canary(&self) -> u64 {
        self.read_word(TLS_CANARY_OFFSET).expect("canonical offset is in range")
    }

    /// Convenience setter for the SSP canary `C`.
    pub fn set_canary(&mut self, value: u64) {
        self.write_word(TLS_CANARY_OFFSET, value).expect("canonical offset is in range");
    }

    /// Convenience accessor for the shadow canary pair `(C0, C1)`.
    pub fn shadow_canary(&self) -> (u64, u64) {
        (
            self.read_word(TLS_SHADOW_C0_OFFSET).expect("canonical offset is in range"),
            self.read_word(TLS_SHADOW_C1_OFFSET).expect("canonical offset is in range"),
        )
    }

    /// Convenience setter for the shadow canary pair `(C0, C1)`.
    pub fn set_shadow_canary(&mut self, c0: u64, c1: u64) {
        self.write_word(TLS_SHADOW_C0_OFFSET, c0).expect("canonical offset is in range");
        self.write_word(TLS_SHADOW_C1_OFFSET, c1).expect("canonical offset is in range");
    }

    #[inline]
    fn check(&self, offset: u64, len: u64) -> Result<usize, VmError> {
        if offset.checked_add(len).map(|end| end <= TLS_SIZE).unwrap_or(false) {
            Ok(offset as usize)
        } else {
            Err(VmError::TlsOutOfRange { offset })
        }
    }
}

impl Default for Tls {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_offsets_are_distinct_and_word_aligned() {
        let offsets = [
            TLS_CANARY_OFFSET,
            TLS_SHADOW_C0_OFFSET,
            TLS_SHADOW_C1_OFFSET,
            TLS_SHADOW_PACKED32_OFFSET,
            TLS_DYNAGUARD_CAB_OFFSET,
            TLS_DCR_HEAD_OFFSET,
        ];
        for (i, a) in offsets.iter().enumerate() {
            assert_eq!(a % 8, 0);
            assert!(a + 8 <= TLS_SIZE);
            for b in offsets.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
        // The paper stores C0 at %fs:0x2a8 and C1 immediately after.
        assert_eq!(TLS_SHADOW_C1_OFFSET, TLS_SHADOW_C0_OFFSET + 8);
    }

    #[test]
    fn word_roundtrip() {
        let mut tls = Tls::new();
        tls.write_word(0x28, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(tls.read_word(0x28).unwrap(), 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn u32_roundtrip() {
        let mut tls = Tls::new();
        tls.write_u32(0x2b8, 0x1234_5678).unwrap();
        assert_eq!(tls.read_u32(0x2b8).unwrap(), 0x1234_5678);
    }

    #[test]
    fn out_of_range_is_reported() {
        let mut tls = Tls::new();
        assert_eq!(
            tls.read_word(TLS_SIZE - 4).unwrap_err(),
            VmError::TlsOutOfRange { offset: TLS_SIZE - 4 }
        );
        assert!(tls.write_word(TLS_SIZE, 0).is_err());
        assert!(tls.read_word(u64::MAX - 2).is_err());
    }

    #[test]
    fn canary_helpers_use_canonical_offset() {
        let mut tls = Tls::new();
        tls.set_canary(42);
        assert_eq!(tls.read_word(TLS_CANARY_OFFSET).unwrap(), 42);
        assert_eq!(tls.canary(), 42);
    }

    #[test]
    fn shadow_canary_helpers_roundtrip() {
        let mut tls = Tls::new();
        tls.set_shadow_canary(11, 22);
        assert_eq!(tls.shadow_canary(), (11, 22));
        assert_eq!(tls.read_word(TLS_SHADOW_C0_OFFSET).unwrap(), 11);
        assert_eq!(tls.read_word(TLS_SHADOW_C1_OFFSET).unwrap(), 22);
    }

    #[test]
    fn clone_models_fork_semantics() {
        let mut parent = Tls::new();
        parent.set_canary(7777);
        parent.set_shadow_canary(1, 2);
        let mut child = parent.clone();
        assert_eq!(child.canary(), 7777);
        // Changing the child must not affect the parent (separate address spaces).
        child.set_shadow_canary(3, 4);
        assert_eq!(parent.shadow_canary(), (1, 2));
        assert_eq!(child.shadow_canary(), (3, 4));
        // The TLS canary itself is shared *by value* after fork: both see 7777
        // until somebody rewrites it (RAF-SSP does; P-SSP never does).
        assert_eq!(parent.canary(), child.canary());
    }
}
