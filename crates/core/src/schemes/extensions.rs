//! The three P-SSP extensions of §IV: P-SSP-NT, P-SSP-LV and P-SSP-OWF.

use polycanary_crypto::{Prng, Xoshiro256StarStar};
use polycanary_vm::cpu::Cpu;
use polycanary_vm::inst::Inst;
use polycanary_vm::machine::{NoHooks, RuntimeHooks};
use polycanary_vm::process::Process;
use polycanary_vm::reg::Reg;
use polycanary_vm::tls::TLS_CANARY_OFFSET;

use crate::layout::FrameInfo;
use crate::scheme::{CanaryScheme, Granularity, SchemeKind, SchemeProperties};
use crate::schemes::emit;

// ---------------------------------------------------------------------------
// P-SSP-NT — re-randomization per function call, no TLS update
// ---------------------------------------------------------------------------

/// P-SSP without TLS update (§IV-A, Code 7).
///
/// Every function prologue draws a fresh `C0` with `rdrand` and computes
/// `C1 = C0 ⊕ C` on the fly, so neither the TLS layout nor `fork()` needs to
/// change.  The price is one `rdrand` (~340 cycles) per protected call.
#[derive(Debug, Default, Clone, Copy)]
pub struct PsspNtScheme;

impl CanaryScheme for PsspNtScheme {
    fn kind(&self) -> SchemeKind {
        SchemeKind::PsspNt
    }

    fn canary_region_words(&self) -> u32 {
        2
    }

    fn emit_prologue_into(&self, frame: &FrameInfo, out: &mut Vec<Inst>) {
        if !frame.protected {
            return;
        }
        // Code 7: rdrand %rax; store C0; C1 = C ^ C0; store C1.
        out.extend([
            Inst::Rdrand(Reg::Rax),
            Inst::MovRegToFrame { src: Reg::Rax, offset: -8 },
            Inst::MovTlsToReg { dst: Reg::Rcx, offset: TLS_CANARY_OFFSET },
            Inst::XorRegReg { dst: Reg::Rcx, src: Reg::Rax },
            Inst::MovRegToFrame { src: Reg::Rcx, offset: -16 },
        ]);
    }

    fn emit_epilogue_into(&self, frame: &FrameInfo, out: &mut Vec<Inst>) {
        if !frame.protected {
            return;
        }
        out.extend(emit::split_canary_epilogue());
    }

    fn runtime_hooks(&self, _seed: u64) -> Box<dyn RuntimeHooks> {
        // The whole point of the extension: no shared library, no TLS change.
        Box::new(NoHooks)
    }

    fn properties(&self) -> SchemeProperties {
        SchemeProperties {
            prevents_byte_by_byte: true,
            correct_across_fork: true,
            protects_local_variables: false,
            exposure_resilient: false,
            modifies_tls_layout: false,
            stack_canary_entropy_bits: 64,
            granularity: Granularity::PerCall,
        }
    }
}

// ---------------------------------------------------------------------------
// P-SSP-LV — local variable protection
// ---------------------------------------------------------------------------

/// P-SSP with critical local-variable protection (§IV-B, Algorithm 2).
///
/// Each critical variable is guarded by its own canary placed at the
/// adjacent higher address; the prologue draws all but the last canary with
/// `rdrand` and chooses the last one so the XOR of *all* canaries in the
/// frame equals the TLS canary `C`.  The epilogue XORs every canary slot
/// together and compares with `C`.
#[derive(Debug, Default, Clone, Copy)]
pub struct PsspLvScheme;

impl PsspLvScheme {
    /// All canary slots of a frame in prologue order: the return-address
    /// guard at `-8` followed by the per-variable guards.
    fn slots(frame: &FrameInfo) -> impl Iterator<Item = i32> + '_ {
        std::iter::once(-8).chain(frame.critical_canary_slots.iter().copied())
    }
}

impl CanaryScheme for PsspLvScheme {
    fn kind(&self) -> SchemeKind {
        SchemeKind::PsspLv
    }

    fn canary_region_words(&self) -> u32 {
        1
    }

    fn emit_prologue_into(&self, frame: &FrameInfo, out: &mut Vec<Inst>) {
        if !frame.protected {
            return;
        }
        out.push(Inst::MovTlsToReg { dst: Reg::Rcx, offset: TLS_CANARY_OFFSET });
        // Algorithm 2: random canaries for every slot but the last, then the
        // last canary is C ⊕ C0 ⊕ … ⊕ C_{j-1}, accumulated in %rcx.
        let randomized = frame.critical_canary_slots.len();
        for offset in Self::slots(frame).take(randomized) {
            out.extend([
                Inst::Rdrand(Reg::Rax),
                Inst::MovRegToFrame { src: Reg::Rax, offset },
                Inst::XorRegReg { dst: Reg::Rcx, src: Reg::Rax },
            ]);
        }
        let last = Self::slots(frame).last().expect("slots always contains -8");
        out.push(Inst::MovRegToFrame { src: Reg::Rcx, offset: last });
    }

    fn emit_epilogue_into(&self, frame: &FrameInfo, out: &mut Vec<Inst>) {
        if !frame.protected {
            return;
        }
        let mut slots = Self::slots(frame);
        let first = slots.next().expect("slots always contains -8");
        out.push(Inst::MovFrameToReg { dst: Reg::Rdx, offset: first });
        for offset in slots {
            out.extend([
                Inst::MovFrameToReg { dst: Reg::Rdi, offset },
                Inst::XorRegReg { dst: Reg::Rdx, src: Reg::Rdi },
            ]);
        }
        out.extend([
            Inst::XorTlsReg { dst: Reg::Rdx, offset: TLS_CANARY_OFFSET },
            Inst::JeSkip(1),
            Inst::CallStackChkFail,
        ]);
    }

    fn runtime_hooks(&self, _seed: u64) -> Box<dyn RuntimeHooks> {
        Box::new(NoHooks)
    }

    fn properties(&self) -> SchemeProperties {
        SchemeProperties {
            prevents_byte_by_byte: true,
            correct_across_fork: true,
            protects_local_variables: true,
            exposure_resilient: false,
            modifies_tls_layout: false,
            stack_canary_entropy_bits: 64,
            granularity: Granularity::PerCall,
        }
    }
}

// ---------------------------------------------------------------------------
// P-SSP-OWF — exposure resilience through a one-way function
// ---------------------------------------------------------------------------

/// P-SSP with a one-way function for stack-canary exposure resilience
/// (§IV-C, Codes 8–9).
///
/// The stack canary is `AES-128_{r12:r13}(TSC nonce ‖ return address)`: a
/// randomized MAC of the return address under the per-process key parked in
/// the callee-saved registers `r12:r13`.  Leaking one frame's canary reveals
/// nothing about the key, and a canary copied into a different frame (or a
/// frame with a rewritten return address) no longer verifies.
#[derive(Debug, Default, Clone, Copy)]
pub struct PsspOwfScheme;

impl CanaryScheme for PsspOwfScheme {
    fn kind(&self) -> SchemeKind {
        SchemeKind::PsspOwf
    }

    fn canary_region_words(&self) -> u32 {
        3
    }

    fn emit_prologue_into(&self, frame: &FrameInfo, out: &mut Vec<Inst>) {
        if !frame.protected {
            return;
        }
        // Code 8: read the TSC, save the nonce, encrypt (nonce, return
        // address) under the register key and store the 128-bit ciphertext.
        out.extend([
            Inst::Rdtsc,
            Inst::MovRegToFrame { src: Reg::Rax, offset: -8 },
            Inst::AesEncryptFrame { nonce: Reg::Rax },
            Inst::MovRegToFrame { src: Reg::Rax, offset: -16 },
            Inst::MovRegToFrame { src: Reg::Rdx, offset: -24 },
        ]);
    }

    fn emit_epilogue_into(&self, frame: &FrameInfo, out: &mut Vec<Inst>) {
        if !frame.protected {
            return;
        }
        // Code 9: reload the nonce, re-encrypt with the current return
        // address and compare both ciphertext halves with the stored ones.
        out.extend([
            Inst::MovFrameToReg { dst: Reg::Rcx, offset: -8 },
            Inst::AesEncryptFrame { nonce: Reg::Rcx },
            Inst::CmpFrameReg { reg: Reg::Rax, offset: -16 },
            Inst::JeSkip(1),
            Inst::CallStackChkFail,
            Inst::CmpFrameReg { reg: Reg::Rdx, offset: -24 },
            Inst::JeSkip(1),
            Inst::CallStackChkFail,
        ]);
    }

    fn runtime_hooks(&self, seed: u64) -> Box<dyn RuntimeHooks> {
        Box::new(OwfRuntime { rng: Xoshiro256StarStar::new(seed ^ 0x0F0F_F0F0_0F0F_F0F0) })
    }

    fn properties(&self) -> SchemeProperties {
        SchemeProperties {
            prevents_byte_by_byte: true,
            correct_across_fork: true,
            protects_local_variables: false,
            exposure_resilient: true,
            modifies_tls_layout: false,
            stack_canary_entropy_bits: 128,
            granularity: Granularity::PerCall,
        }
    }
}

/// P-SSP-OWF runtime: generate the AES key at program startup and park it in
/// the callee-saved registers `r12:r13` (modelled as loader-provided register
/// state that every CPU context starts from).  Forked children inherit the
/// key, exactly as callee-saved registers survive `fork()`.
struct OwfRuntime {
    rng: Xoshiro256StarStar,
}

impl RuntimeHooks for OwfRuntime {
    fn on_startup(&mut self, process: &mut Process, cpu: &mut Cpu) {
        let key = (self.rng.next_u64(), self.rng.next_u64());
        process.owf_key = Some(key);
        cpu.regs_mut().write(Reg::R12, key.0);
        cpu.regs_mut().write(Reg::R13, key.1);
    }

    fn name(&self) -> &'static str {
        "libpoly_canary_owf.so"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_rdrand(insts: &[Inst]) -> usize {
        insts.iter().filter(|i| matches!(i, Inst::Rdrand(_))).count()
    }

    #[test]
    fn nt_prologue_draws_exactly_one_random_number() {
        let frame = FrameInfo::protected(0x20);
        let prologue = PsspNtScheme.emit_prologue(&frame);
        assert_eq!(count_rdrand(&prologue), 1);
        // And binds it to the TLS canary with an XOR.
        assert!(prologue.iter().any(|i| matches!(i, Inst::XorRegReg { .. })));
        assert!(prologue.iter().any(|i| matches!(i, Inst::MovTlsToReg { offset: 0x28, .. })));
    }

    #[test]
    fn nt_requires_no_runtime_support() {
        assert_eq!(PsspNtScheme.runtime_hooks(0).name(), "glibc");
        assert!(!PsspNtScheme.properties().modifies_tls_layout);
    }

    #[test]
    fn lv_with_no_critical_variables_degenerates_to_a_single_canary() {
        let frame = FrameInfo::protected(0x20);
        let prologue = PsspLvScheme.emit_prologue(&frame);
        // Only the last (computed) canary is stored; no rdrand needed.
        assert_eq!(count_rdrand(&prologue), 0);
        assert!(prologue.iter().any(|i| matches!(i, Inst::MovRegToFrame { offset: -8, .. })));
    }

    #[test]
    fn lv_random_count_scales_with_critical_variables() {
        // Table V: "2 variables" (two canaries in the frame) needs one
        // rdrand, "4 variables" needs three.
        let two = FrameInfo::protected(0x40).with_critical_slots(vec![-24]);
        let four = FrameInfo::protected(0x60).with_critical_slots(vec![-24, -40, -56]);
        assert_eq!(count_rdrand(&PsspLvScheme.emit_prologue(&two)), 1);
        assert_eq!(count_rdrand(&PsspLvScheme.emit_prologue(&four)), 3);
    }

    #[test]
    fn lv_epilogue_checks_every_canary_slot() {
        let frame = FrameInfo::protected(0x60).with_critical_slots(vec![-24, -40]);
        let epilogue = PsspLvScheme.emit_epilogue(&frame);
        let loads: Vec<i32> = epilogue
            .iter()
            .filter_map(|i| match i {
                Inst::MovFrameToReg { offset, .. } => Some(*offset),
                _ => None,
            })
            .collect();
        assert_eq!(loads, vec![-8, -24, -40]);
        assert!(epilogue.iter().any(|i| matches!(i, Inst::XorTlsReg { offset: 0x28, .. })));
    }

    #[test]
    fn lv_prologue_canaries_xor_to_tls_canary_in_spirit() {
        // Structural check of Algorithm 2: the last store writes the
        // accumulator register %rcx which was seeded with C and XORed with
        // every random canary.
        let frame = FrameInfo::protected(0x60).with_critical_slots(vec![-24, -40]);
        let prologue = PsspLvScheme.emit_prologue(&frame);
        let last_store = prologue.last().unwrap();
        assert!(matches!(last_store, Inst::MovRegToFrame { src: Reg::Rcx, offset: -40 }));
    }

    #[test]
    fn owf_prologue_uses_tsc_nonce_and_aes() {
        let frame = FrameInfo::protected(0x30);
        let prologue = PsspOwfScheme.emit_prologue(&frame);
        assert!(prologue.iter().any(|i| matches!(i, Inst::Rdtsc)));
        assert!(prologue.iter().any(|i| matches!(i, Inst::AesEncryptFrame { .. })));
        // No rdrand: unpredictability comes from the TSC + secret key.
        assert_eq!(count_rdrand(&prologue), 0);
    }

    #[test]
    fn owf_epilogue_recomputes_and_compares_both_halves() {
        let frame = FrameInfo::protected(0x30);
        let epilogue = PsspOwfScheme.emit_epilogue(&frame);
        let compares = epilogue.iter().filter(|i| matches!(i, Inst::CmpFrameReg { .. })).count();
        assert_eq!(compares, 2);
        assert!(epilogue.iter().any(|i| matches!(i, Inst::AesEncryptFrame { .. })));
    }

    #[test]
    fn owf_startup_parks_key_in_r12_r13() {
        use polycanary_vm::mem::DEFAULT_STACK_SIZE;
        use polycanary_vm::process::Pid;
        let mut p = Process::new(Pid(1), 1, DEFAULT_STACK_SIZE);
        let mut cpu = Cpu::new();
        let mut hooks = PsspOwfScheme.runtime_hooks(11);
        hooks.on_startup(&mut p, &mut cpu);
        let key = p.owf_key.expect("key must be installed");
        assert_eq!(cpu.regs().read(Reg::R12), key.0);
        assert_eq!(cpu.regs().read(Reg::R13), key.1);
        assert_ne!(key, (0, 0));
    }

    #[test]
    fn per_call_cost_ordering_matches_table5() {
        // Table V: P-SSP (6) << P-SSP-OWF (278) < P-SSP-NT (343) < LV with
        // four variables (986).
        let plain = FrameInfo::protected(0x40);
        let lv4 = FrameInfo::protected(0x60).with_critical_slots(vec![-24, -40, -56]);
        let cost = |scheme: &dyn CanaryScheme, frame: &FrameInfo| -> u64 {
            scheme
                .emit_prologue(frame)
                .iter()
                .chain(scheme.emit_epilogue(frame).iter())
                .map(Inst::cycles)
                .sum()
        };
        let pssp = cost(&crate::schemes::pssp::PsspScheme, &plain);
        let nt = cost(&PsspNtScheme, &plain);
        let owf = cost(&PsspOwfScheme, &plain);
        let lv = cost(&PsspLvScheme, &lv4);
        assert!(pssp < 20, "P-SSP per-call cost should be tiny, got {pssp}");
        assert!(owf < nt, "AES-NI ({owf}) should be cheaper than rdrand ({nt})");
        assert!(nt < lv, "LV with 4 canaries ({lv}) should cost more than NT ({nt})");
        assert!(lv > 2 * nt, "LV-4 draws three random numbers, NT draws one");
    }
}
