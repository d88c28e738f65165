//! The paper's basic scheme: Polymorphic SSP (P-SSP), in both deployments.
//!
//! * [`PsspScheme`] — the compiler deployment (Codes 3–4): the frame holds
//!   the two 64-bit shadow canary words copied from `%fs:0x2a8`/`%fs:0x2b0`,
//!   and the `LD_PRELOAD`-ed shared library refreshes the shadow pair at
//!   program startup and in every forked child (§V-A/§V-B).
//! * [`PsspBin32Scheme`] — the binary-instrumentation deployment (§V-C):
//!   to preserve the SSP stack layout the canary is downgraded to a packed
//!   pair of 32-bit halves stored in the single SSP slot, and the check is
//!   folded into a patched `__stack_chk_fail` (Codes 5–6, Figs. 3–4).

use polycanary_crypto::Xoshiro256StarStar;
use polycanary_vm::cpu::Cpu;
use polycanary_vm::inst::Inst;
use polycanary_vm::machine::RuntimeHooks;
use polycanary_vm::process::Process;
use polycanary_vm::reg::Reg;
use polycanary_vm::tls::{TLS_SHADOW_C0_OFFSET, TLS_SHADOW_C1_OFFSET};

use crate::layout::FrameInfo;
use crate::rerandomize::{re_randomize, re_randomize_packed32};
use crate::scheme::{CanaryScheme, Granularity, SchemeKind, SchemeProperties};
use crate::schemes::emit;

/// Polymorphic SSP, compiler deployment (the paper's basic scheme).
#[derive(Debug, Default, Clone, Copy)]
pub struct PsspScheme;

impl CanaryScheme for PsspScheme {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Pssp
    }

    fn canary_region_words(&self) -> u32 {
        2
    }

    fn emit_prologue(&self, frame: &FrameInfo) -> Vec<Inst> {
        if !frame.protected {
            return Vec::new();
        }
        // Code 3: copy C0 and C1 from the TLS shadow canary into the frame.
        vec![
            Inst::MovTlsToReg { dst: Reg::Rax, offset: TLS_SHADOW_C0_OFFSET },
            Inst::MovRegToFrame { src: Reg::Rax, offset: -8 },
            Inst::MovTlsToReg { dst: Reg::Rax, offset: TLS_SHADOW_C1_OFFSET },
            Inst::MovRegToFrame { src: Reg::Rax, offset: -16 },
        ]
    }

    fn emit_epilogue(&self, frame: &FrameInfo) -> Vec<Inst> {
        if !frame.protected {
            return Vec::new();
        }
        emit::split_canary_epilogue()
    }

    fn runtime_hooks(&self, seed: u64) -> Box<dyn RuntimeHooks> {
        Box::new(PsspRuntime::new(seed))
    }

    fn properties(&self) -> SchemeProperties {
        SchemeProperties {
            prevents_byte_by_byte: true,
            correct_across_fork: true,
            protects_local_variables: false,
            exposure_resilient: false,
            modifies_tls_layout: true,
            stack_canary_entropy_bits: 64,
            granularity: Granularity::PerFork,
        }
    }
}

/// The P-SSP shared library (§V-A): `setup_p-ssp` constructor plus wrapped
/// `fork` and `pthread_create`, all of which refresh the TLS *shadow* canary
/// while leaving the TLS canary `C` itself untouched.
pub struct PsspRuntime {
    rng: Xoshiro256StarStar,
}

impl PsspRuntime {
    /// Creates the runtime with a deterministic randomness stream.
    pub fn new(seed: u64) -> Self {
        PsspRuntime { rng: Xoshiro256StarStar::new(seed ^ 0x9559_9559_9559_9559) }
    }

    fn refresh(&mut self, process: &mut Process) {
        let split = re_randomize(process.tls.canary(), &mut self.rng);
        process.tls.set_shadow_canary(split.c0, split.c1);
    }
}

impl RuntimeHooks for PsspRuntime {
    fn on_startup(&mut self, process: &mut Process, _cpu: &mut Cpu) {
        self.refresh(process);
    }

    fn on_fork_child(&mut self, child: &mut Process) {
        self.refresh(child);
    }

    fn on_thread_create(&mut self, thread: &mut Process) {
        self.refresh(thread);
    }

    fn name(&self) -> &'static str {
        "libpoly_canary.so"
    }
}

/// P-SSP deployed by static binary instrumentation with 32-bit split
/// canaries (§V-C).
///
/// The prologue is byte-for-byte the SSP prologue except that it reads the
/// packed shadow canary from `%fs:0x2a8`; the epilogue passes the packed pair
/// to the patched `__stack_chk_fail` through `%rdi`.  Both sequences have the
/// same encoded size as their SSP counterparts, which is the rewriter's
/// layout-preservation requirement.
#[derive(Debug, Default, Clone, Copy)]
pub struct PsspBin32Scheme;

impl CanaryScheme for PsspBin32Scheme {
    fn kind(&self) -> SchemeKind {
        SchemeKind::PsspBin32
    }

    fn canary_region_words(&self) -> u32 {
        1
    }

    fn emit_prologue(&self, frame: &FrameInfo) -> Vec<Inst> {
        if !frame.protected {
            return Vec::new();
        }
        // Code 5: identical to SSP except the TLS offset.
        emit::ssp_style_prologue(TLS_SHADOW_C0_OFFSET)
    }

    fn emit_epilogue(&self, frame: &FrameInfo) -> Vec<Inst> {
        if !frame.protected {
            return Vec::new();
        }
        // Code 6: same length as the SSP epilogue; the check happens inside
        // the patched __stack_chk_fail reached through CallCheckCanary32.
        vec![
            Inst::MovFrameToReg { dst: Reg::Rdx, offset: -8 },
            Inst::PushReg(Reg::Rdi),
            Inst::PushReg(Reg::Rdx),
            Inst::PopReg(Reg::Rdi),
            Inst::CallCheckCanary32,
            Inst::PopReg(Reg::Rdi),
            Inst::JeSkip(1),
            Inst::CallStackChkFail,
        ]
    }

    fn runtime_hooks(&self, seed: u64) -> Box<dyn RuntimeHooks> {
        Box::new(PsspBin32Runtime { rng: Xoshiro256StarStar::new(seed ^ 0xB32B_32B3) })
    }

    fn properties(&self) -> SchemeProperties {
        SchemeProperties {
            prevents_byte_by_byte: true,
            correct_across_fork: true,
            protects_local_variables: false,
            exposure_resilient: false,
            modifies_tls_layout: true,
            // §V-C acknowledges the entropy drop to 32 bits per attempt.
            stack_canary_entropy_bits: 32,
            granularity: Granularity::PerFork,
        }
    }
}

/// Shared-library runtime for the 32-bit binary deployment: the packed pair
/// lives in the single word at `%fs:0x2a8`.
struct PsspBin32Runtime {
    rng: Xoshiro256StarStar,
}

impl PsspBin32Runtime {
    fn refresh(&mut self, process: &mut Process) {
        let packed = re_randomize_packed32(process.tls.canary(), &mut self.rng);
        process
            .tls
            .write_word(TLS_SHADOW_C0_OFFSET, packed)
            .expect("canonical TLS offset is always mapped");
    }
}

impl RuntimeHooks for PsspBin32Runtime {
    fn on_startup(&mut self, process: &mut Process, _cpu: &mut Cpu) {
        self.refresh(process);
    }

    fn on_fork_child(&mut self, child: &mut Process) {
        self.refresh(child);
    }

    fn on_thread_create(&mut self, thread: &mut Process) {
        self.refresh(thread);
    }

    fn name(&self) -> &'static str {
        "libpoly_canary32.so"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canary::SplitCanary;
    use polycanary_vm::mem::DEFAULT_STACK_SIZE;
    use polycanary_vm::process::Pid;

    #[test]
    fn prologue_reads_shadow_canary_offsets() {
        let frame = FrameInfo::protected(0x20);
        let prologue = PsspScheme.emit_prologue(&frame);
        assert_eq!(prologue[0], Inst::MovTlsToReg { dst: Reg::Rax, offset: 0x2a8 });
        assert_eq!(prologue[2], Inst::MovTlsToReg { dst: Reg::Rax, offset: 0x2b0 });
    }

    #[test]
    fn epilogue_checks_against_unchanged_tls_canary() {
        let frame = FrameInfo::protected(0x20);
        let epilogue = PsspScheme.emit_epilogue(&frame);
        assert!(
            epilogue.iter().any(|i| matches!(i, Inst::XorTlsReg { offset: 0x28, .. })),
            "the check must compare against C at %fs:0x28, which never changes"
        );
    }

    #[test]
    fn runtime_refreshes_shadow_but_never_the_canary() {
        let mut parent = Process::new(Pid(1), 1, DEFAULT_STACK_SIZE);
        parent.tls.set_canary(0xCAFE_F00D_DEAD_BEEF);
        let mut hooks = PsspScheme.runtime_hooks(7);
        let mut cpu = Cpu::new();
        hooks.on_startup(&mut parent, &mut cpu);
        let (c0, c1) = parent.tls.shadow_canary();
        assert_eq!(c0 ^ c1, parent.tls.canary(), "shadow pair must XOR to C");
        assert_eq!(parent.tls.canary(), 0xCAFE_F00D_DEAD_BEEF, "C itself is never rewritten");

        let mut child = parent.fork(Pid(2));
        hooks.on_fork_child(&mut child);
        let (d0, d1) = child.tls.shadow_canary();
        assert_eq!(d0 ^ d1, child.tls.canary());
        assert_ne!((d0, d1), (c0, c1), "the child must get a fresh pair");
        // Parent's shadow pair is untouched by the child's refresh.
        assert_eq!(parent.tls.shadow_canary(), (c0, c1));
    }

    #[test]
    fn each_fork_gets_an_independent_pair() {
        let mut parent = Process::new(Pid(1), 1, DEFAULT_STACK_SIZE);
        parent.tls.set_canary(42);
        let mut hooks = PsspScheme.runtime_hooks(3);
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            let mut child = parent.fork(Pid(10 + i));
            hooks.on_fork_child(&mut child);
            assert!(seen.insert(child.tls.shadow_canary()), "pair repeated at fork {i}");
        }
    }

    #[test]
    fn bin32_runtime_writes_consistent_packed_pair() {
        let mut p = Process::new(Pid(1), 1, DEFAULT_STACK_SIZE);
        p.tls.set_canary(0x0123_4567_89AB_CDEF);
        let mut hooks = PsspBin32Scheme.runtime_hooks(5);
        let mut cpu = Cpu::new();
        hooks.on_startup(&mut p, &mut cpu);
        let packed = p.tls.read_word(TLS_SHADOW_C0_OFFSET).unwrap();
        assert!(SplitCanary::verifies_packed32(packed, p.tls.canary()));
    }

    #[test]
    fn bin32_sequences_preserve_ssp_sizes() {
        // The whole point of the 32-bit downgrade (§V-C): prologue and
        // epilogue must occupy exactly the same number of bytes as SSP's.
        let frame = FrameInfo::protected(0x20);
        let size = |insts: &[Inst]| insts.iter().map(Inst::encoded_size).sum::<u64>();
        let ssp = crate::schemes::classic::SspScheme;
        assert_eq!(size(&PsspBin32Scheme.emit_prologue(&frame)), size(&ssp.emit_prologue(&frame)),);
        assert_eq!(size(&PsspBin32Scheme.emit_epilogue(&frame)), size(&ssp.emit_epilogue(&frame)),);
    }

    #[test]
    fn compiler_pssp_grows_the_frame_by_one_word_relative_to_ssp() {
        assert_eq!(
            PsspScheme.canary_region_words(),
            crate::schemes::classic::SspScheme.canary_region_words() + 1
        );
    }

    #[test]
    fn runtime_names_identify_the_shared_library() {
        assert_eq!(PsspScheme.runtime_hooks(0).name(), "libpoly_canary.so");
        assert_eq!(PsspBin32Scheme.runtime_hooks(0).name(), "libpoly_canary32.so");
    }
}
