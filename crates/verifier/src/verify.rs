//! Top-level entry points tying the dataflow pass and policy together.

use polycanary_compiler::CompiledModule;
use polycanary_core::scheme::SchemeKind;
use polycanary_vm::inst::Inst;

use crate::dataflow::Dataflow;
use crate::finding::Finding;
use crate::policy::ProtectionPolicy;

/// Verifies one function body against `policy` and returns every finding.
pub fn verify_function(function: &str, insts: &[Inst], policy: &ProtectionPolicy) -> Vec<Finding> {
    let mut findings = Vec::new();
    Dataflow::default().analyze(function, insts, policy, &mut findings);
    findings
}

/// Verifies every function of a compiled module against the scheme and pass
/// policy the compiler recorded for it.
///
/// A clean compiler is expected to produce zero findings for every scheme ×
/// workload combination; anything returned here is a code-generation defect.
/// One policy and one set of dataflow buffers serve every function.
pub fn verify_compiled(module: &CompiledModule) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut dataflow = Dataflow::default();
    let mut policy = ProtectionPolicy::new(SchemeKind::Native, false, &[]);
    for (id, func) in module.program.iter() {
        let frame = &module.frames[id.0];
        policy.reset(
            module.function_schemes[id.0],
            frame.info.protected,
            &frame.info.critical_canary_slots,
        );
        dataflow.analyze(func.name(), func.insts(), &policy, &mut findings);
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use polycanary_compiler::{Compiler, FunctionBuilder, ModuleBuilder};
    use polycanary_vm::inst::FuncId;
    use polycanary_vm::reg::Reg;
    use polycanary_vm::tls::TLS_CANARY_OFFSET;

    use crate::finding::CheckKind;

    fn victim() -> polycanary_compiler::ModuleDef {
        ModuleBuilder::new()
            .function(
                FunctionBuilder::new("handle_request")
                    .buffer("buf", 64)
                    .safe_copy("buf")
                    .compute(100)
                    .returns(0)
                    .build(),
            )
            .function(
                FunctionBuilder::new("main").scalar("x").call("handle_request").returns(0).build(),
            )
            .entry("main")
            .build()
            .expect("victim module is well-formed")
    }

    #[test]
    fn every_scheme_compiles_to_a_clean_module() {
        for kind in SchemeKind::ALL {
            let module = Compiler::new(kind).compile(&victim()).expect("victim compiles");
            let findings = verify_compiled(&module);
            assert!(findings.is_empty(), "{kind}: {findings:?}");
        }
    }

    #[test]
    fn optimized_builds_re_prove_the_invariants_at_every_opt_level() {
        use polycanary_compiler::OptLevel;
        // Include a critical buffer so P-SSP-LV guard slots (and the
        // canary-load elimination over them) are exercised too.
        let module = ModuleBuilder::new()
            .function(
                FunctionBuilder::new("handle_request")
                    .buffer("buf", 64)
                    .critical_buffer("record", 32)
                    .compute(50)
                    .vulnerable_copy("buf")
                    .compute(100)
                    .returns(0)
                    .compute(25)
                    .build(),
            )
            .function(
                FunctionBuilder::new("main").scalar("x").call("handle_request").returns(0).build(),
            )
            .entry("main")
            .build()
            .expect("module is well-formed");
        for kind in SchemeKind::ALL {
            for opt in OptLevel::ALL {
                let compiled =
                    Compiler::new(kind).with_opt_level(opt).compile(&module).expect("compiles");
                let findings = verify_compiled(&compiled);
                assert!(findings.is_empty(), "{kind}@{opt}: {findings:?}");
            }
        }
    }

    #[test]
    fn lv_frames_with_many_guard_slots_still_report_clobbers_and_unchecked_returns() {
        // Twenty critical buffers give P-SSP-LV 21 policy slots: the state
        // must track every one of them, with no cap on the slot count.
        let mut f = FunctionBuilder::new("many");
        for i in 0..20 {
            f = f.critical_buffer(format!("secret{i}"), 16);
        }
        let module = ModuleBuilder::new()
            .function(f.safe_copy("secret0").returns(0).build())
            .build()
            .expect("module is well-formed");
        let compiled = Compiler::new(SchemeKind::PsspLv).compile(&module).expect("compiles");
        assert!(verify_compiled(&compiled).is_empty());
        let frame = compiled.frame("many").expect("frame exists");
        assert_eq!(frame.info.critical_canary_slots.len(), 20);
        let policy =
            ProtectionPolicy::new(SchemeKind::PsspLv, true, &frame.info.critical_canary_slots);
        assert_eq!(policy.slots.len(), 21);
        let insts = compiled.program.function(FuncId(0)).expect("function exists").insts();

        // Clobber the last guard slot right after the prologue stores it.
        let last = *frame.info.critical_canary_slots.last().expect("20 guard slots");
        let store = insts
            .iter()
            .rposition(|i| matches!(i, Inst::MovRegToFrame { offset, .. } if *offset == last))
            .expect("the prologue stores every guard slot");
        let mut clobbered = insts.to_vec();
        clobbered.insert(store + 1, Inst::MovImmToFrame { offset: last, imm: 0 });
        let findings = verify_function("many", &clobbered, &policy);
        assert!(findings.iter().any(|f| f.kind == CheckKind::ClobberedCanary), "{findings:?}");

        // Drop every epilogue check: the return is reachable unchecked.
        let unchecked: Vec<Inst> = insts
            .iter()
            .map(|i| match i {
                Inst::JeSkip(1) | Inst::CallStackChkFail => Inst::Nop,
                other => *other,
            })
            .collect();
        let findings = verify_function("many", &unchecked, &policy);
        assert!(findings.iter().any(|f| f.kind == CheckKind::UncheckedReturn), "{findings:?}");
    }

    /// The canonical SSP shape the compiler emits, with `middle` between the
    /// buffer write and the epilogue check.
    fn ssp_body(middle: &[Inst]) -> Vec<Inst> {
        let mut insts = vec![
            Inst::PushReg(Reg::Rbp),
            Inst::MovRegReg { dst: Reg::Rbp, src: Reg::Rsp },
            Inst::MovTlsToReg { dst: Reg::Rax, offset: TLS_CANARY_OFFSET },
            Inst::MovRegToFrame { src: Reg::Rax, offset: -8 },
            Inst::CopyInputToFrameBounded { offset: -72, max_len: 64 },
        ];
        insts.extend_from_slice(middle);
        insts.extend([
            Inst::MovFrameToReg { dst: Reg::Rdx, offset: -8 },
            Inst::XorTlsReg { dst: Reg::Rdx, offset: TLS_CANARY_OFFSET },
            Inst::JeSkip(1),
            Inst::CallStackChkFail,
            Inst::Leave,
            Inst::Ret,
        ]);
        insts
    }

    #[test]
    fn hand_built_ssp_body_is_clean() {
        let policy = ProtectionPolicy::new(SchemeKind::Ssp, true, &[]);
        // A call falls through to the check, and a branch past the end of
        // the body adds no edge.
        let middles: [&[Inst]; 3] =
            [&[], &[Inst::CallFn(FuncId(1))], &[Inst::TestReg(Reg::Rcx), Inst::JeSkip(100)]];
        for middle in middles {
            assert_eq!(verify_function("f", &ssp_body(middle), &policy), Vec::new(), "{middle:?}");
        }
        // An empty body has nothing to verify.
        assert_eq!(verify_function("f", &[], &policy), Vec::new());
    }

    #[test]
    fn a_jump_over_the_check_leaves_it_dead_and_the_return_unchecked() {
        // `jmp` does not fall through: skipping the four-instruction check
        // lands on `leave` and leaves the check unreached.  Transfer
        // findings come first, then dead checks, each in index order.
        let insts = ssp_body(&[Inst::JmpSkip(4)]);
        let policy = ProtectionPolicy::new(SchemeKind::Ssp, true, &[]);
        let findings = verify_function("f", &insts, &policy);
        let found: Vec<_> = findings.iter().map(|f| (f.kind, f.index)).collect();
        assert_eq!(
            found,
            [(CheckKind::UncheckedReturn, Some(11)), (CheckKind::DeadCheck, Some(8))],
            "{findings:?}"
        );

        // One set of buffers reused across bodies reports what fresh ones do.
        let mut dataflow = Dataflow::default();
        for insts in [&insts, &ssp_body(&[]), &Vec::new(), &insts] {
            let mut reused = Vec::new();
            dataflow.analyze("f", insts, &policy, &mut reused);
            assert_eq!(reused, verify_function("f", insts, &policy));
        }
    }

    #[test]
    fn buffer_write_before_the_prologue_store_is_unprotected() {
        let insts = vec![
            Inst::PushReg(Reg::Rbp),
            Inst::MovRegReg { dst: Reg::Rbp, src: Reg::Rsp },
            Inst::CopyInputToFrame { offset: -72 }, // before the canary store
            Inst::MovTlsToReg { dst: Reg::Rax, offset: TLS_CANARY_OFFSET },
            Inst::MovRegToFrame { src: Reg::Rax, offset: -8 },
            Inst::MovFrameToReg { dst: Reg::Rdx, offset: -8 },
            Inst::XorTlsReg { dst: Reg::Rdx, offset: TLS_CANARY_OFFSET },
            Inst::JeSkip(1),
            Inst::CallStackChkFail,
            Inst::Leave,
            Inst::Ret,
        ];
        let policy = ProtectionPolicy::new(SchemeKind::Ssp, true, &[]);
        let findings = verify_function("f", &insts, &policy);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].kind, CheckKind::UnprotectedBuffer);
        assert_eq!(findings[0].index, Some(2));
    }

    #[test]
    fn unrelated_zero_flag_guard_is_not_an_epilogue_check() {
        // A je/__stack_chk_fail pair fed by scalar ALU work must not count
        // as a canary check: the ret stays unchecked on every path.
        let insts = vec![
            Inst::MovTlsToReg { dst: Reg::Rax, offset: TLS_CANARY_OFFSET },
            Inst::MovRegToFrame { src: Reg::Rax, offset: -8 },
            Inst::TestReg(Reg::Rcx), // unrelated comparison
            Inst::JeSkip(1),
            Inst::CallStackChkFail,
            Inst::Leave,
            Inst::Ret,
        ];
        let policy = ProtectionPolicy::new(SchemeKind::Ssp, true, &[]);
        let findings = verify_function("f", &insts, &policy);
        assert!(findings.iter().any(|f| f.kind == CheckKind::UncheckedReturn), "{findings:?}");
    }

    #[test]
    fn the_tls_compare_counts_only_when_every_folded_word_is_a_slot_value() {
        // The P-SSP epilogue folds both canary words before the TLS XOR.
        let body = |second: Inst, tail: &[Inst]| {
            let mut insts = vec![
                Inst::MovTlsToReg { dst: Reg::Rax, offset: TLS_CANARY_OFFSET },
                Inst::MovRegToFrame { src: Reg::Rax, offset: -8 },
                Inst::MovRegToFrame { src: Reg::Rax, offset: -16 },
                Inst::MovFrameToReg { dst: Reg::Rdx, offset: -8 },
                second,
            ];
            insts.extend_from_slice(tail);
            insts.extend([
                Inst::XorRegReg { dst: Reg::Rdx, src: Reg::Rdi },
                Inst::XorTlsReg { dst: Reg::Rdx, offset: TLS_CANARY_OFFSET },
                Inst::JeSkip(1),
                Inst::CallStackChkFail,
                Inst::Leave,
                Inst::Ret,
            ]);
            insts
        };
        let policy = ProtectionPolicy::new(SchemeKind::Pssp, true, &[]);
        let unchecked = |insts: &[Inst]| {
            verify_function("f", insts, &policy)
                .iter()
                .any(|f| f.kind == CheckKind::UncheckedReturn)
        };
        let slot = Inst::MovFrameToReg { dst: Reg::Rdi, offset: -16 };
        assert!(!unchecked(&body(slot, &[])));
        // A folded word that is not a slot value, on every path or one.
        assert!(unchecked(&body(Inst::MovTlsToReg { dst: Reg::Rdi, offset: 0x2a8 }, &[])));
        let one_path = [Inst::TestReg(Reg::Rcx), Inst::JeSkip(1), Inst::Rdrand(Reg::Rdi)];
        assert!(unchecked(&body(slot, &one_path)));
        // A register XORed with itself holds zero, not a slot value.
        assert!(unchecked(&body(slot, &[Inst::XorRegReg { dst: Reg::Rdx, src: Reg::Rdx }])));
    }

    #[test]
    fn split_scheme_tracks_both_slots() {
        let module = Compiler::new(SchemeKind::Pssp).compile(&victim()).expect("compiles");
        assert!(verify_compiled(&module).is_empty());

        // Clobber the second canary word (-16) after the prologue: only a
        // verifier tracking all region slots catches this.
        let frame = module.frame("handle_request").expect("frame exists");
        assert!(frame.info.protected);
        let id = module.by_name["handle_request"];
        let mut insts = module.program.function(id).expect("function exists").insts().to_vec();
        let store = insts
            .iter()
            .rposition(|i| matches!(i, Inst::MovRegToFrame { offset: -16, .. }))
            .expect("P-SSP prologue stores -16");
        insts.insert(store + 1, Inst::MovImmToFrame { offset: -16, imm: 0 });
        let policy = ProtectionPolicy::new(SchemeKind::Pssp, true, &[]);
        let findings = verify_function("handle_request", &insts, &policy);
        assert!(findings.iter().any(|f| f.kind == CheckKind::ClobberedCanary), "{findings:?}");
    }
}
