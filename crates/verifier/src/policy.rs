//! Protection policy: which canary slots a scheme is required to maintain.
//!
//! The compiler's pass policy (`polycanary_compiler::pass::StackProtectPass`,
//! mirroring `-fstack-protector`) decides *whether* a function needs
//! protection; the scheme decides *where* its canary words live — directly
//! below the saved `%rbp`, one 8-byte slot per canary region word, plus the
//! per-variable guard slots of P-SSP-LV.  [`ProtectionPolicy`] bundles both
//! for one function so the dataflow pass can verify against them.

use polycanary_core::scheme::SchemeKind;

/// The canary obligations of one function under one scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtectionPolicy {
    /// The scheme the function is expected to be protected with.
    pub scheme: SchemeKind,
    /// Whether the pass policy requires protection (a local buffer exists).
    pub required: bool,
    /// `%rbp`-relative offsets of every canary slot the scheme maintains.
    /// Empty when the function is unprotected or the scheme is `Native`.
    pub slots: Vec<i32>,
}

impl ProtectionPolicy {
    /// Policy for one function: `required` comes from the pass analysis
    /// (`FunctionAnalysis::needs_protection` / `FrameInfo::protected`),
    /// `critical_slots` from the frame layout (P-SSP-LV guard slots; empty
    /// for every other scheme).
    pub fn new(scheme: SchemeKind, required: bool, critical_slots: &[i32]) -> Self {
        let mut policy = ProtectionPolicy { scheme, required, slots: Vec::new() };
        policy.reset(scheme, required, critical_slots);
        policy
    }

    /// Turns this policy into [`ProtectionPolicy::new`]`(scheme, required,
    /// critical_slots)` in place, reusing the slot list's allocation.
    pub(crate) fn reset(&mut self, scheme: SchemeKind, required: bool, critical_slots: &[i32]) {
        self.slots.clear();
        if required {
            // The canary slots `scheme` maintains in a protected frame,
            // matching `CanaryScheme::canary_region_words` and the emitted
            // prologues: region words sit at `-8`, `-16`, … directly below
            // the saved `%rbp`.
            let scheme_object = scheme.scheme();
            let region_words = scheme_object.canary_region_words();
            self.slots.extend((1..=region_words).map(|w| -8 * w as i32));
            if scheme_object.properties().protects_local_variables {
                self.slots.extend_from_slice(critical_slots);
            }
        }
        self.scheme = scheme;
        self.required = required && !self.slots.is_empty();
    }

    /// Whether `[offset, offset + width)` overlaps the 8-byte slot at `slot`.
    pub fn overlaps_slot(slot: i32, offset: i32, width: u32) -> bool {
        let write_end = i64::from(offset) + i64::from(width);
        let slot_end = i64::from(slot) + 8;
        i64::from(offset) < slot_end && i64::from(slot) < write_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_counts_follow_canary_region_words() {
        let single = [SchemeKind::Ssp, SchemeKind::RafSsp, SchemeKind::PsspBin32];
        for kind in single {
            assert_eq!(ProtectionPolicy::new(kind, true, &[]).slots, vec![-8], "{kind}");
        }
        assert_eq!(ProtectionPolicy::new(SchemeKind::Pssp, true, &[]).slots, vec![-8, -16]);
        assert_eq!(ProtectionPolicy::new(SchemeKind::PsspNt, true, &[]).slots, vec![-8, -16]);
        assert_eq!(ProtectionPolicy::new(SchemeKind::PsspOwf, true, &[]).slots, vec![-8, -16, -24]);
    }

    #[test]
    fn lv_adds_critical_guard_slots() {
        let policy = ProtectionPolicy::new(SchemeKind::PsspLv, true, &[-24, -48]);
        assert_eq!(policy.slots, vec![-8, -24, -48]);
        // Other schemes ignore critical slots — they maintain none.
        let ssp = ProtectionPolicy::new(SchemeKind::Ssp, true, &[-24]);
        assert_eq!(ssp.slots, vec![-8]);
    }

    #[test]
    fn native_and_unprotected_functions_have_no_obligations() {
        let native = ProtectionPolicy::new(SchemeKind::Native, true, &[]);
        assert!(!native.required && native.slots.is_empty());
        let leaf = ProtectionPolicy::new(SchemeKind::Pssp, false, &[]);
        assert!(!leaf.required && leaf.slots.is_empty());
    }

    #[test]
    fn slot_overlap_geometry() {
        // Exact 64-bit store over the slot.
        assert!(ProtectionPolicy::overlaps_slot(-8, -8, 8));
        // 32-bit store into the slot's low half.
        assert!(ProtectionPolicy::overlaps_slot(-8, -8, 4));
        // A 64-byte buffer at -72 ends exactly at the slot — no overlap.
        assert!(!ProtectionPolicy::overlaps_slot(-8, -72, 64));
        // One byte too far reaches into the slot.
        assert!(ProtectionPolicy::overlaps_slot(-8, -72, 65));
        // Store above the slot.
        assert!(!ProtectionPolicy::overlaps_slot(-8, 0, 8));
    }
}
