//! The *rejected* layout-preserving design of §VII-C: `C0` in the TLS.
//!
//! Before proposing the global-buffer variant (Figure 6), the paper discusses
//! an obvious alternative for keeping the 64-bit canary without growing the
//! stack slot: store `C0` in the TLS as the shadow canary, compute
//! `C1 = C0 ⊕ C` in every prologue and push only `C1`; the epilogue then
//! checks `C1 ⊕ C0 ⊕ C = 0`.  The paper rejects it because a fork replaces
//! the child's `C0`, so the child crashes as soon as it returns through a
//! frame its parent created — exactly the consistency problem P-SSP set out
//! to avoid.
//!
//! [`NaiveTlsSplitScheme`] implements this rejected design so the failure can
//! be demonstrated and regression-tested.  It is intentionally *not*
//! registered as a [`crate::scheme::SchemeKind`]: it exists as a design-space
//! study, not as a deployable scheme.

use polycanary_crypto::{Prng, Xoshiro256StarStar};
use polycanary_vm::cpu::Cpu;
use polycanary_vm::inst::Inst;
use polycanary_vm::machine::RuntimeHooks;
use polycanary_vm::process::Process;
use polycanary_vm::reg::Reg;
use polycanary_vm::tls::{TLS_CANARY_OFFSET, TLS_SHADOW_C0_OFFSET};

use crate::layout::FrameInfo;

/// The rejected "C0 in the TLS" variant of §VII-C.
#[derive(Debug, Default, Clone, Copy)]
pub struct NaiveTlsSplitScheme;

impl NaiveTlsSplitScheme {
    /// Number of canary words in the frame — one, which is the variant's
    /// whole selling point (the SSP stack layout is preserved).
    pub fn canary_region_words(&self) -> u32 {
        1
    }

    /// Prologue: compute `C1 = C0 ⊕ C` from the two TLS words and store it in
    /// the single SSP-sized slot.
    pub fn emit_prologue(&self, frame: &FrameInfo) -> Vec<Inst> {
        if !frame.protected {
            return Vec::new();
        }
        vec![
            Inst::MovTlsToReg { dst: Reg::Rax, offset: TLS_SHADOW_C0_OFFSET },
            Inst::XorTlsReg { dst: Reg::Rax, offset: TLS_CANARY_OFFSET },
            Inst::MovRegToFrame { src: Reg::Rax, offset: -8 },
        ]
    }

    /// Epilogue: check `C1 ⊕ C0 ⊕ C = 0` against the *current* TLS words.
    pub fn emit_epilogue(&self, frame: &FrameInfo) -> Vec<Inst> {
        if !frame.protected {
            return Vec::new();
        }
        vec![
            Inst::MovFrameToReg { dst: Reg::Rdx, offset: -8 },
            Inst::XorTlsReg { dst: Reg::Rdx, offset: TLS_SHADOW_C0_OFFSET },
            Inst::XorTlsReg { dst: Reg::Rdx, offset: TLS_CANARY_OFFSET },
            Inst::JeSkip(1),
            Inst::CallStackChkFail,
        ]
    }

    /// The runtime the variant would need: pick a fresh `C0` at startup and —
    /// fatally — a fresh one in every forked child.
    pub fn runtime_hooks(&self, seed: u64) -> Box<dyn RuntimeHooks> {
        Box::new(NaiveRuntime { rng: Xoshiro256StarStar::new(seed ^ 0x0BAD_1DEA) })
    }
}

struct NaiveRuntime {
    rng: Xoshiro256StarStar,
}

impl NaiveRuntime {
    fn refresh(&mut self, process: &mut Process) {
        process
            .tls
            .write_word(TLS_SHADOW_C0_OFFSET, self.rng.next_u64())
            .expect("canonical TLS offset is mapped");
    }
}

impl RuntimeHooks for NaiveRuntime {
    fn on_startup(&mut self, process: &mut Process, _cpu: &mut Cpu) {
        self.refresh(process);
    }

    fn on_fork_child(&mut self, child: &mut Process) {
        // This is the fatal step the paper points out: the child's new C0 no
        // longer matches the C1 values sitting in inherited stack frames.
        self.refresh(child);
    }

    fn on_thread_create(&mut self, thread: &mut Process) {
        self.refresh(thread);
    }

    fn name(&self) -> &'static str {
        "naive-tls-c0-runtime"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polycanary_vm::machine::Machine;
    use polycanary_vm::program::Program;

    /// Builds the prologue-only / epilogue-only pair used to model a frame
    /// that is live across a fork (same construction as the Table I
    /// correctness experiment).
    fn live_frame_program(scheme: &NaiveTlsSplitScheme) -> Program {
        let frame = FrameInfo::protected(0x20);
        let mut parent_half = vec![
            Inst::PushReg(Reg::Rbp),
            Inst::MovRegReg { dst: Reg::Rbp, src: Reg::Rsp },
            Inst::SubRspImm(frame.frame_size),
        ];
        parent_half.extend(scheme.emit_prologue(&frame));
        parent_half.extend([Inst::Leave, Inst::Ret]);
        let mut child_half = vec![
            Inst::PushReg(Reg::Rbp),
            Inst::MovRegReg { dst: Reg::Rbp, src: Reg::Rsp },
            Inst::SubRspImm(frame.frame_size),
        ];
        child_half.extend(scheme.emit_epilogue(&frame));
        child_half.extend([Inst::Leave, Inst::Ret]);

        let mut program = Program::new();
        let entry = program.add_function("parent_half", parent_half).unwrap();
        program.add_function("child_half", child_half).unwrap();
        program.set_entry(entry);
        program
    }

    #[test]
    fn keeps_the_ssp_stack_layout() {
        let scheme = NaiveTlsSplitScheme;
        assert_eq!(scheme.canary_region_words(), 1);
        let frame = FrameInfo::protected(0x20);
        // Exactly one frame store in the prologue.
        let stores = scheme
            .emit_prologue(&frame)
            .iter()
            .filter(|i| matches!(i, Inst::MovRegToFrame { .. }))
            .count();
        assert_eq!(stores, 1);
    }

    #[test]
    fn works_within_a_single_process() {
        let scheme = NaiveTlsSplitScheme;
        let program = live_frame_program(&scheme);
        let mut machine = Machine::new(program, scheme.runtime_hooks(3), 3);
        let mut process = machine.spawn();
        assert!(machine.run_function(&mut process, "parent_half").unwrap().exit.is_normal());
        // Same process, un-forked: the epilogue over the live frame passes.
        assert!(machine.run_function(&mut process, "child_half").unwrap().exit.is_normal());
    }

    #[test]
    fn child_returning_into_parent_frames_crashes_as_the_paper_predicts() {
        let scheme = NaiveTlsSplitScheme;
        let program = live_frame_program(&scheme);
        let mut machine = Machine::new(program, scheme.runtime_hooks(3), 3);
        let mut parent = machine.spawn();
        assert!(machine.run_function(&mut parent, "parent_half").unwrap().exit.is_normal());
        // Fork replaces the child's C0 in the TLS ...
        let mut child = machine.fork(&mut parent);
        // ... so the inherited frame's C1 no longer verifies: false positive.
        let exit = machine.run_function(&mut child, "child_half").unwrap().exit;
        assert!(
            exit.is_detection(),
            "the rejected design must crash on inherited frames, got {exit:?}"
        );
        // The paper's P-SSP avoids exactly this: the same experiment against
        // the real scheme passes (covered by the Table I correctness test).
    }
}
