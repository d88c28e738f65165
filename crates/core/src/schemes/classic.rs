//! The two reference points of every experiment: no protection at all
//! ("native execution") and classic Stack Smashing Protection.

use polycanary_vm::inst::Inst;
use polycanary_vm::machine::{NoHooks, RuntimeHooks};
use polycanary_vm::tls::TLS_CANARY_OFFSET;

use crate::layout::FrameInfo;
use crate::scheme::{CanaryScheme, Granularity, SchemeKind, SchemeProperties};
use crate::schemes::emit;

/// No stack protection: the "native execution" baseline of §VI-A.
#[derive(Debug, Default, Clone, Copy)]
pub struct NativeScheme;

impl CanaryScheme for NativeScheme {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Native
    }

    fn canary_region_words(&self) -> u32 {
        0
    }

    fn emit_prologue(&self, _frame: &FrameInfo) -> Vec<Inst> {
        Vec::new()
    }

    fn emit_epilogue(&self, _frame: &FrameInfo) -> Vec<Inst> {
        Vec::new()
    }

    fn runtime_hooks(&self, _seed: u64) -> Box<dyn RuntimeHooks> {
        Box::new(NoHooks)
    }

    fn properties(&self) -> SchemeProperties {
        SchemeProperties {
            prevents_byte_by_byte: false,
            correct_across_fork: true,
            protects_local_variables: false,
            exposure_resilient: false,
            modifies_tls_layout: false,
            stack_canary_entropy_bits: 0,
            granularity: Granularity::Never,
        }
    }
}

/// Classic Stack Smashing Protection (Codes 1–2 of the paper).
///
/// The function prologue copies the TLS canary at `%fs:0x28` into the slot at
/// `-0x8(%rbp)`; the epilogue XORs the slot with the TLS canary and calls
/// `__stack_chk_fail` on mismatch.  All frames of all forked workers share
/// the same canary, which is what the byte-by-byte attack exploits.
#[derive(Debug, Default, Clone, Copy)]
pub struct SspScheme;

impl CanaryScheme for SspScheme {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Ssp
    }

    fn canary_region_words(&self) -> u32 {
        1
    }

    fn emit_prologue(&self, frame: &FrameInfo) -> Vec<Inst> {
        if !frame.protected {
            return Vec::new();
        }
        emit::ssp_style_prologue(TLS_CANARY_OFFSET)
    }

    fn emit_epilogue(&self, frame: &FrameInfo) -> Vec<Inst> {
        if !frame.protected {
            return Vec::new();
        }
        emit::ssp_style_epilogue()
    }

    fn runtime_hooks(&self, _seed: u64) -> Box<dyn RuntimeHooks> {
        Box::new(NoHooks)
    }

    fn properties(&self) -> SchemeProperties {
        SchemeProperties {
            prevents_byte_by_byte: false,
            correct_across_fork: true,
            protects_local_variables: false,
            exposure_resilient: false,
            modifies_tls_layout: false,
            stack_canary_entropy_bits: 64,
            granularity: Granularity::Never,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polycanary_vm::reg::Reg;

    #[test]
    fn ssp_prologue_matches_code1() {
        let frame = FrameInfo::protected(0x10);
        let prologue = SspScheme.emit_prologue(&frame);
        assert_eq!(
            prologue,
            vec![
                Inst::MovTlsToReg { dst: Reg::Rax, offset: 0x28 },
                Inst::MovRegToFrame { src: Reg::Rax, offset: -8 },
            ]
        );
    }

    #[test]
    fn ssp_epilogue_matches_code2() {
        let frame = FrameInfo::protected(0x10);
        let epilogue = SspScheme.emit_epilogue(&frame);
        assert_eq!(epilogue[0], Inst::MovFrameToReg { dst: Reg::Rdx, offset: -8 });
        assert_eq!(epilogue[1], Inst::XorTlsReg { dst: Reg::Rdx, offset: 0x28 });
        assert!(matches!(epilogue[2], Inst::JeSkip(1)));
        assert_eq!(epilogue[3], Inst::CallStackChkFail);
    }

    #[test]
    fn native_emits_nothing_anywhere() {
        let frame = FrameInfo::protected(0x40);
        assert!(NativeScheme.emit_prologue(&frame).is_empty());
        assert!(NativeScheme.emit_epilogue(&frame).is_empty());
    }

    #[test]
    fn ssp_prologue_epilogue_cycle_cost_is_small() {
        // Table V reports ~6 cycles for memcpy-style canary handling; our
        // model must stay in single digits.
        let frame = FrameInfo::protected(0x10);
        let cycles: u64 = SspScheme
            .emit_prologue(&frame)
            .iter()
            .chain(SspScheme.emit_epilogue(&frame).iter())
            .map(Inst::cycles)
            .sum();
        assert!(cycles <= 12, "SSP canary handling should cost a handful of cycles, got {cycles}");
    }

    #[test]
    fn runtime_hooks_are_plain_glibc() {
        assert_eq!(SspScheme.runtime_hooks(0).name(), "glibc");
        assert_eq!(NativeScheme.runtime_hooks(0).name(), "glibc");
    }
}
