//! The static verifier against the VM: a binary the verifier passes must not
//! be hijackable.  Each case here plants one defect into the canonical
//! victim server, checks that the verifier reports it, and runs the mutant
//! in the VM to show that the finding is real.

use polycanary::attacks::victim::{victim_module, HIJACK_TARGET};
use polycanary::compiler::{CompiledModule, OptLevel};
use polycanary::core::SchemeKind;
use polycanary::rewriter::Build;
use polycanary::verifier::{verify_compiled, CheckKind};
use polycanary::vm::inst::Inst;
use polycanary::vm::reg::Reg;
use polycanary::vm::tls::TLS_CANARY_OFFSET;
use polycanary::vm::{Exit, Fault};

/// The canonical victim server (64-byte buffer, `program` 0) under SSP.
fn ssp_victim(opt: OptLevel) -> CompiledModule {
    Build::Compiler(SchemeKind::Ssp)
        .compiler(opt)
        .compile(&victim_module(64, 0))
        .expect("the victim compiles")
}

/// `module` with `handle_request`'s body edited by `mutate`.
fn mutate_handler(module: &CompiledModule, mutate: impl FnOnce(&mut Vec<Inst>)) -> CompiledModule {
    let mut mutant = module.clone();
    let id = mutant.by_name["handle_request"];
    let mut insts = mutant.program.function(id).expect("id is valid").insts().to_vec();
    mutate(&mut insts);
    mutant.program.replace_function_body(id, insts).expect("id is valid");
    mutant
}

/// Asserts that the verifier flags `handle_request`'s return as unchecked.
fn assert_unchecked_return(module: &CompiledModule) {
    let findings = verify_compiled(module);
    assert!(
        findings
            .iter()
            .any(|f| f.kind == CheckKind::UncheckedReturn && f.function == "handle_request"),
        "{findings:?}"
    );
}

/// Serves one request whose overflow rewrites the canary with wrong bytes,
/// the saved `%rbp`, and the return address with [`HIJACK_TARGET`].
fn overflow(module: &CompiledModule) -> Exit {
    let frame = module.frame("handle_request").expect("victim has handle_request");
    assert_eq!(frame.canary_words, 1, "SSP keeps one canary word");
    let mut payload = vec![0x41; 64 + 8 + 8];
    payload.extend_from_slice(&HIJACK_TARGET.to_le_bytes());
    let mut machine = module.clone().into_machine(7);
    let mut process = machine.spawn();
    process.set_input(payload);
    machine.run(&mut process).expect("the victim has an entry").exit
}

#[test]
fn an_epilogue_comparing_the_canary_with_itself_is_flagged_and_hijackable() {
    let clean = ssp_victim(OptLevel::O0);
    assert!(verify_compiled(&clean).is_empty());
    assert!(
        matches!(overflow(&clean), Exit::Fault(Fault::CanaryViolation { .. })),
        "the clean victim detects the overflow"
    );

    // The epilogue reloads the TLS canary where it should reload the slot.
    let mutant = mutate_handler(&clean, |insts| {
        assert_eq!(insts[8], Inst::MovFrameToReg { dst: Reg::Rdx, offset: -8 });
        insts[8] = Inst::MovTlsToReg { dst: Reg::Rdx, offset: TLS_CANARY_OFFSET };
    });

    assert_unchecked_return(&mutant);
    assert_eq!(
        overflow(&mutant),
        Exit::Fault(Fault::InvalidReturn { addr: HIJACK_TARGET }),
        "the self-compared check lets the overflow through"
    );
}

#[test]
fn an_epilogue_comparing_the_slot_with_its_own_reload_is_flagged_and_hijackable() {
    // At O2 the SSP epilogue compares the slot with the prologue's canary,
    // kept in a register: `cmp %reg,-0x8(%rbp)`.
    let clean = ssp_victim(OptLevel::O2);
    assert!(verify_compiled(&clean).is_empty());
    assert!(
        matches!(overflow(&clean), Exit::Fault(Fault::CanaryViolation { .. })),
        "the clean victim detects the overflow"
    );

    // `mov -0x8(%rbp),%reg` before the compare makes it compare the slot
    // with itself; so does the reload passed through an ALU operation that
    // keeps it, or saved on the stack across a clobber.
    let reloads: [fn(Reg) -> Vec<Inst>; 3] = [
        |reg| vec![Inst::MovFrameToReg { dst: reg, offset: -8 }],
        |reg| {
            vec![
                Inst::MovFrameToReg { dst: reg, offset: -8 },
                Inst::OrRegReg { dst: reg, src: reg },
            ]
        },
        |reg| {
            vec![
                Inst::MovFrameToReg { dst: reg, offset: -8 },
                Inst::PushReg(reg),
                Inst::MovImmToReg { dst: reg, imm: 0 },
                Inst::PopReg(reg),
            ]
        },
    ];
    for reload in reloads {
        let mutant = mutate_handler(&clean, |insts| {
            let (at, reg) = insts
                .iter()
                .enumerate()
                .find_map(|(at, inst)| match *inst {
                    Inst::CmpFrameReg { reg, offset: -8 } => Some((at, reg)),
                    _ => None,
                })
                .expect("the O2 epilogue compares the slot with a register");
            insts.splice(at..at, reload(reg));
        });

        assert_unchecked_return(&mutant);
        assert_eq!(
            overflow(&mutant),
            Exit::Fault(Fault::InvalidReturn { addr: HIJACK_TARGET }),
            "the self-compared slot lets the overflow through"
        );
    }
}
