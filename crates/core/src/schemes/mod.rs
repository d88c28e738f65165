//! Implementations of every canary scheme evaluated in the paper.
//!
//! | Module | Schemes |
//! |---|---|
//! | [`classic`] | no protection ("native") and classic SSP |
//! | [`baselines`] | RAF-SSP, DynaGuard, DCR — the prior remedies of Table I |
//! | [`pssp`] | P-SSP (compiler deployment) and the 32-bit binary-instrumentation variant |
//! | [`extensions`] | P-SSP-NT, P-SSP-LV, P-SSP-OWF |
//! | [`global_buffer`] | the layout-preserving global-buffer variant of §VII-C |
//! | [`naive`] | the rejected "C0 in the TLS" design of §VII-C (kept for study) |

pub mod baselines;
pub mod classic;
pub mod extensions;
pub mod global_buffer;
pub mod naive;
pub mod pssp;

pub use baselines::{DcrScheme, DynaGuardScheme, RafSspScheme};
pub use classic::{NativeScheme, SspScheme};
pub use extensions::{PsspLvScheme, PsspNtScheme, PsspOwfScheme};
pub use global_buffer::GlobalBufferPssp;
pub use naive::NaiveTlsSplitScheme;
pub use pssp::{PsspBin32Scheme, PsspScheme};

use crate::scheme::{CanaryScheme, SchemeKind};

/// Constructs the scheme object for a [`SchemeKind`].
pub fn scheme_for(kind: SchemeKind) -> Box<dyn CanaryScheme> {
    match kind {
        SchemeKind::Native => Box::new(NativeScheme),
        SchemeKind::Ssp => Box::new(SspScheme),
        SchemeKind::RafSsp => Box::new(RafSspScheme),
        SchemeKind::DynaGuard => Box::new(DynaGuardScheme),
        SchemeKind::Dcr => Box::new(DcrScheme),
        SchemeKind::Pssp => Box::new(PsspScheme),
        SchemeKind::PsspNt => Box::new(PsspNtScheme),
        SchemeKind::PsspLv => Box::new(PsspLvScheme),
        SchemeKind::PsspOwf => Box::new(PsspOwfScheme),
        SchemeKind::PsspBin32 => Box::new(PsspBin32Scheme),
    }
}

/// Shared instruction-sequence builders used by several schemes.
pub(crate) mod emit {
    use polycanary_vm::inst::Inst;
    use polycanary_vm::reg::Reg;
    use polycanary_vm::tls::TLS_CANARY_OFFSET;

    /// The classic SSP prologue canary store (Code 1, lines 4–5), reading
    /// from an arbitrary TLS offset so P-SSP's binary variant can reuse it.
    pub fn ssp_style_prologue(tls_offset: u64) -> Vec<Inst> {
        vec![
            Inst::MovTlsToReg { dst: Reg::Rax, offset: tls_offset },
            Inst::MovRegToFrame { src: Reg::Rax, offset: -8 },
        ]
    }

    /// The classic SSP epilogue check (Code 2, lines 2–5).
    pub fn ssp_style_epilogue() -> Vec<Inst> {
        vec![
            Inst::MovFrameToReg { dst: Reg::Rdx, offset: -8 },
            Inst::XorTlsReg { dst: Reg::Rdx, offset: TLS_CANARY_OFFSET },
            Inst::JeSkip(1),
            Inst::CallStackChkFail,
        ]
    }

    /// The split-canary epilogue shared by P-SSP and P-SSP-NT (Code 4,
    /// lines 2–7): load both halves, XOR them together, XOR with the TLS
    /// canary and fail on mismatch.
    pub fn split_canary_epilogue() -> Vec<Inst> {
        vec![
            Inst::MovFrameToReg { dst: Reg::Rdx, offset: -8 },
            Inst::MovFrameToReg { dst: Reg::Rdi, offset: -16 },
            Inst::XorRegReg { dst: Reg::Rdx, src: Reg::Rdi },
            Inst::XorTlsReg { dst: Reg::Rdx, offset: TLS_CANARY_OFFSET },
            Inst::JeSkip(1),
            Inst::CallStackChkFail,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::FrameInfo;
    use crate::scheme::Granularity;

    #[test]
    fn every_kind_constructs_its_scheme() {
        for kind in SchemeKind::ALL {
            let scheme = scheme_for(kind);
            assert_eq!(scheme.kind(), kind, "scheme_for({kind}) returned the wrong kind");
            assert_eq!(scheme.name(), kind.name());
        }
    }

    #[test]
    fn protected_frames_get_prologue_and_epilogue_where_expected() {
        let frame = FrameInfo::protected(0x40);
        for kind in SchemeKind::ALL {
            let scheme = scheme_for(kind);
            let prologue = scheme.emit_prologue(&frame);
            let epilogue = scheme.emit_epilogue(&frame);
            if kind == SchemeKind::Native {
                assert!(prologue.is_empty() && epilogue.is_empty());
            } else {
                assert!(!prologue.is_empty(), "{kind} must emit a prologue");
                assert!(!epilogue.is_empty(), "{kind} must emit an epilogue");
            }
        }
    }

    #[test]
    fn unprotected_frames_get_no_canary_code() {
        let frame = FrameInfo::unprotected(0x10);
        for kind in SchemeKind::ALL {
            let scheme = scheme_for(kind);
            assert!(scheme.emit_prologue(&frame).is_empty(), "{kind}");
            assert!(scheme.emit_epilogue(&frame).is_empty(), "{kind}");
        }
    }

    #[test]
    fn table1_qualitative_columns() {
        // Table I of the paper.
        let brop_no: Vec<_> = vec![SchemeKind::Native, SchemeKind::Ssp];
        for kind in SchemeKind::ALL {
            let props = scheme_for(kind).properties();
            if kind == SchemeKind::Native {
                continue;
            }
            if brop_no.contains(&kind) {
                assert!(!props.prevents_byte_by_byte, "{kind} should not prevent BROP");
            } else {
                assert!(props.prevents_byte_by_byte, "{kind} should prevent BROP");
            }
            if kind == SchemeKind::RafSsp {
                assert!(!props.correct_across_fork, "RAF-SSP breaks fork-return correctness");
            } else {
                assert!(props.correct_across_fork, "{kind} must stay correct across fork");
            }
        }
    }

    #[test]
    fn only_lv_protects_locals_and_only_owf_is_exposure_resilient() {
        for kind in SchemeKind::ALL {
            let props = scheme_for(kind).properties();
            assert_eq!(props.protects_local_variables, kind == SchemeKind::PsspLv, "{kind}");
            assert_eq!(props.exposure_resilient, kind == SchemeKind::PsspOwf, "{kind}");
        }
    }

    #[test]
    fn pssp_extensions_rerandomize_per_call() {
        for kind in [SchemeKind::PsspNt, SchemeKind::PsspLv, SchemeKind::PsspOwf] {
            assert_eq!(scheme_for(kind).properties().granularity, Granularity::PerCall);
        }
        assert_eq!(scheme_for(SchemeKind::Pssp).properties().granularity, Granularity::PerFork);
        assert_eq!(scheme_for(SchemeKind::Ssp).properties().granularity, Granularity::Never);
    }

    #[test]
    fn canary_region_sizes_match_layouts() {
        assert_eq!(scheme_for(SchemeKind::Native).canary_region_words(), 0);
        assert_eq!(scheme_for(SchemeKind::Ssp).canary_region_words(), 1);
        assert_eq!(scheme_for(SchemeKind::Pssp).canary_region_words(), 2);
        assert_eq!(scheme_for(SchemeKind::PsspNt).canary_region_words(), 2);
        assert_eq!(scheme_for(SchemeKind::PsspOwf).canary_region_words(), 3);
        // The 32-bit binary variant keeps the SSP layout — that is its point.
        assert_eq!(scheme_for(SchemeKind::PsspBin32).canary_region_words(), 1);
        assert_eq!(scheme_for(SchemeKind::PsspLv).canary_region_words(), 1);
    }

    #[test]
    fn only_pssp_family_and_raf_modify_runtime_or_tls() {
        // §IV-A argues P-SSP-NT is easier to deploy because it leaves the TLS
        // and fork untouched.
        assert!(!scheme_for(SchemeKind::PsspNt).properties().modifies_tls_layout);
        assert!(!scheme_for(SchemeKind::Ssp).properties().modifies_tls_layout);
        assert!(scheme_for(SchemeKind::Pssp).properties().modifies_tls_layout);
        assert!(scheme_for(SchemeKind::PsspBin32).properties().modifies_tls_layout);
    }
}
