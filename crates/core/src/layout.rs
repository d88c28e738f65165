//! Frame layout information exchanged between the compiler and the schemes.
//!
//! The compiler decides where locals live; the scheme decides how many canary
//! words sit between the locals and the saved frame pointer and what code
//! guards them.  [`FrameInfo`] is the hand-off structure: it describes one
//! function's frame after layout so a [`crate::scheme::CanaryScheme`] can emit
//! the matching prologue and epilogue.

/// Layout summary of one function's stack frame.
///
/// Offsets are relative to `%rbp` (negative values are below the saved frame
/// pointer, i.e. inside the local area).  The summary carries no function
/// name: no scheme needs one to emit its sequences, and a fault names the
/// detecting function from the program itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameInfo {
    /// Total number of bytes subtracted from `%rsp` by the prologue
    /// (canary region + locals, 16-byte aligned).
    pub frame_size: u32,
    /// Whether the function needs stack protection at all.  Mirrors the
    /// compiler policy of `-fstack-protector`: only functions with a local
    /// buffer get a canary (§V-B of the paper).
    pub protected: bool,
    /// `%rbp`-relative offsets of the canary slots guarding *critical local
    /// variables* (P-SSP-LV only).  Each slot sits at the address directly
    /// above the variable it guards.  Empty for every other scheme.
    pub critical_canary_slots: Vec<i32>,
}

impl FrameInfo {
    /// A frame that needs no protection (no local buffers).
    pub fn unprotected(frame_size: u32) -> Self {
        FrameInfo { frame_size, protected: false, critical_canary_slots: Vec::new() }
    }

    /// A protected frame with the given total size.
    pub fn protected(frame_size: u32) -> Self {
        FrameInfo { frame_size, protected: true, critical_canary_slots: Vec::new() }
    }

    /// Adds critical-variable canary slots (builder style).
    #[must_use]
    pub fn with_critical_slots(mut self, slots: Vec<i32>) -> Self {
        self.critical_canary_slots = slots;
        self
    }

    /// Total number of canaries a P-SSP-LV frame carries: one for the return
    /// address plus one per critical variable.
    pub fn lv_canary_count(&self) -> usize {
        1 + self.critical_canary_slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_protection_flag() {
        assert!(!FrameInfo::unprotected(16).protected);
        assert!(FrameInfo::protected(64).protected);
    }

    #[test]
    fn critical_slots_builder() {
        let frame = FrameInfo::protected(96).with_critical_slots(vec![-24, -48]);
        assert_eq!(frame.critical_canary_slots, vec![-24, -48]);
        assert_eq!(frame.lv_canary_count(), 3);
    }

    #[test]
    fn lv_count_without_critical_slots_is_one() {
        assert_eq!(FrameInfo::protected(32).lv_canary_count(), 1);
    }
}
