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

/// The canonical victim server (64-byte buffer, `program` 0) under SSP at O0.
fn ssp_victim() -> CompiledModule {
    Build::Compiler(SchemeKind::Ssp)
        .compiler(OptLevel::O0)
        .compile(&victim_module(64, 0))
        .expect("the victim compiles")
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
    let clean = ssp_victim();
    assert!(verify_compiled(&clean).is_empty());
    assert!(
        matches!(overflow(&clean), Exit::Fault(Fault::CanaryViolation { .. })),
        "the clean victim detects the overflow"
    );

    // The epilogue reloads the TLS canary where it should reload the slot.
    let mut mutant = clean.clone();
    let id = mutant.by_name["handle_request"];
    let mut insts = mutant.program.function(id).expect("id is valid").insts().to_vec();
    assert_eq!(insts[8], Inst::MovFrameToReg { dst: Reg::Rdx, offset: -8 });
    insts[8] = Inst::MovTlsToReg { dst: Reg::Rdx, offset: TLS_CANARY_OFFSET };
    mutant.program.replace_function_body(id, insts).expect("id is valid");

    let findings = verify_compiled(&mutant);
    assert!(
        findings
            .iter()
            .any(|f| f.kind == CheckKind::UncheckedReturn && f.function == "handle_request"),
        "{findings:?}"
    );
    assert_eq!(
        overflow(&mutant),
        Exit::Fault(Fault::InvalidReturn { addr: HIJACK_TARGET }),
        "the self-compared check lets the overflow through"
    );
}
