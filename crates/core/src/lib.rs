//! Canary protection schemes from *To Detect Stack Buffer Overflow with
//! Polymorphic Canaries* (DSN 2018).
//!
//! This crate is the paper's primary contribution expressed as a Rust
//! library on top of the [`polycanary_vm`] execution substrate:
//!
//! * [`rerandomize`] — Algorithm 1 (`Re-Randomize(C)`) and its 32-bit and
//!   multi-canary variants.
//! * [`scheme`] / [`schemes`] — the [`scheme::CanaryScheme`] abstraction and
//!   its ten implementations: the no-protection baseline, classic SSP, the
//!   three prior remedies (RAF-SSP, DynaGuard, DCR), P-SSP in both its
//!   compiler and binary-instrumentation deployments, and the three
//!   extensions P-SSP-NT, P-SSP-LV and P-SSP-OWF.
//! * [`analysis`] — attacker-effort estimates (§III-C) and the statistical
//!   test behind Theorem 1.
//!
//! # Quick example
//!
//! ```
//! use polycanary_core::scheme::SchemeKind;
//! use polycanary_core::layout::FrameInfo;
//!
//! // Emit the P-SSP prologue the LLVM plugin would insert (Code 3).
//! let scheme = SchemeKind::Pssp.scheme();
//! let frame = FrameInfo::protected(0x40);
//! let prologue = scheme.emit_prologue(&frame);
//! assert_eq!(prologue.len(), 4);
//!
//! // And verify the scheme's Table I properties.
//! let props = scheme.properties();
//! assert!(props.prevents_byte_by_byte && props.correct_across_fork);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod analysis;
pub mod canary;
pub mod layout;
pub mod record;
pub mod rerandomize;
pub mod scheme;
pub mod schemes;

pub use analysis::{attack_effort, theorem1_independence_test, AttackEffort};
pub use canary::SplitCanary;
pub use layout::FrameInfo;
pub use record::{records_from_json, records_to_csv, records_to_json, Record, Value};
pub use rerandomize::{re_randomize, re_randomize_many, re_randomize_packed32};
pub use scheme::{CanaryScheme, ForkCanaryPolicy, Granularity, SchemeKind, SchemeProperties};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_reexports_are_consistent() {
        for kind in SchemeKind::ALL {
            let scheme = kind.scheme();
            let effort = attack_effort(&scheme.properties());
            if kind == SchemeKind::Ssp {
                assert!(effort.byte_by_byte_accumulates);
            }
        }
        let split = SplitCanary::new(1, 2);
        assert_eq!(split.combined(), 3);
    }
}
