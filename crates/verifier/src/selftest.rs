//! Self-test battery: known-bad programs each check kind must catch.
//!
//! Every [`InjectedDefect`] builds a clean victim, plants one specific
//! instrumentation defect — a skipped prologue, a canary-slot clobber, an
//! epilogue dropped on one branch, a jumped-over (dead) check, a stale
//! rewrite, an optimizer pass deleting the strength-reduced check from an
//! O2 build, or an epilogue comparing the TLS canary with itself — and runs
//! the verifier over the result.  The battery doubles as the negative
//! control for the `harness verify` CI gate: a verifier that
//! stays silent on these programs is broken, however clean the real cells
//! look.

use polycanary_compiler::{CompiledModule, FunctionBuilder, ModuleBuilder, OptLevel};
use polycanary_core::scheme::SchemeKind;
use polycanary_rewriter::{Build, LinkMode};
use polycanary_vm::inst::Inst;
use polycanary_vm::tls::TLS_CANARY_OFFSET;

use crate::finding::{CheckKind, Finding};
use crate::rewrite_check::verify_rewritten;
use crate::verify::verify_compiled;

/// One deliberately planted instrumentation defect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedDefect {
    /// The prologue canary store is removed: the buffer write runs with the
    /// slot unset.
    SkippedPrologue,
    /// An immediate store lands on the live canary slot after the prologue.
    ClobberedCanary,
    /// One branch bypasses the epilogue check and reaches `ret` unchecked.
    DroppedEpilogue,
    /// An unconditional jump makes the epilogue check unreachable.
    DeadCheck,
    /// A rewritten program with one function's original SSP body restored.
    StaleRewrite,
    /// A miscompiling optimizer: the strength-reduced epilogue check of an
    /// O2 build is deleted, as a buggy transform pass would.
    OptimizerDroppedCheck,
    /// The epilogue reloads the TLS canary instead of the canary slot, so
    /// its check compares the canary with itself and passes whatever the
    /// frame holds: an overflow that rewrites the slot is never detected.
    SelfComparedCanary,
}

impl InjectedDefect {
    /// Every defect, in [`CheckKind::ALL`] order (with the optimizer
    /// miscompile and the self-compared canary — two more `UncheckedReturn`
    /// producers — last).
    pub const ALL: [InjectedDefect; 7] = [
        InjectedDefect::SkippedPrologue,
        InjectedDefect::ClobberedCanary,
        InjectedDefect::DroppedEpilogue,
        InjectedDefect::DeadCheck,
        InjectedDefect::StaleRewrite,
        InjectedDefect::OptimizerDroppedCheck,
        InjectedDefect::SelfComparedCanary,
    ];

    /// Stable CLI label (`harness verify --inject <label>`).
    pub fn label(&self) -> &'static str {
        match self {
            InjectedDefect::SkippedPrologue => "skipped-prologue",
            InjectedDefect::ClobberedCanary => "clobbered-canary",
            InjectedDefect::DroppedEpilogue => "dropped-epilogue",
            InjectedDefect::DeadCheck => "dead-check",
            InjectedDefect::StaleRewrite => "stale-rewrite",
            InjectedDefect::OptimizerDroppedCheck => "optimizer-dropped-check",
            InjectedDefect::SelfComparedCanary => "self-compared-canary",
        }
    }

    /// Parses a CLI label.
    pub fn from_label(label: &str) -> Option<InjectedDefect> {
        InjectedDefect::ALL.into_iter().find(|defect| defect.label() == label)
    }

    /// The check kind this defect must trip.
    pub fn expected_kind(&self) -> CheckKind {
        match self {
            InjectedDefect::SkippedPrologue => CheckKind::UnprotectedBuffer,
            InjectedDefect::ClobberedCanary => CheckKind::ClobberedCanary,
            InjectedDefect::DroppedEpilogue => CheckKind::UncheckedReturn,
            InjectedDefect::DeadCheck => CheckKind::DeadCheck,
            InjectedDefect::StaleRewrite => CheckKind::RewriteSoundness,
            InjectedDefect::OptimizerDroppedCheck => CheckKind::UncheckedReturn,
            InjectedDefect::SelfComparedCanary => CheckKind::UncheckedReturn,
        }
    }

    /// Builds the defective program and runs the verifier over it.
    ///
    /// # Panics
    ///
    /// Panics if the clean victim fails to build — the victim is a fixed,
    /// known-good module, so that indicates a broken toolchain, not input.
    pub fn run(&self) -> Vec<Finding> {
        match self {
            InjectedDefect::StaleRewrite => {
                let build = Build::BinaryRewriter(LinkMode::Dynamic);
                let original = victim_module(build, OptLevel::O0).program;
                let mut rewritten = original.clone();
                build.rewrite(&mut rewritten).expect("victim rewrite succeeds");
                let (id, func) = original
                    .iter()
                    .find(|(_, f)| f.name() == "handle_request")
                    .expect("victim has handle_request");
                rewritten.replace_function_body(id, func.insts().to_vec()).expect("id is valid");
                verify_rewritten(&original, &rewritten)
            }
            InjectedDefect::OptimizerDroppedCheck => {
                // At O2 the leaf victim's epilogue is strength-reduced to an
                // in-place compare; a buggy pass deleting that 3-instruction
                // check leaves the stored canary unchecked at `ret`.
                let mut module = victim_module(SSP, OptLevel::O2);
                let id = module.by_name["handle_request"];
                let mut insts = module
                    .program
                    .function(id)
                    .expect("victim has handle_request")
                    .insts()
                    .to_vec();
                let check = insts
                    .iter()
                    .position(|inst| matches!(inst, Inst::CmpFrameReg { offset: -8, .. }))
                    .expect("O2 epilogue compares the canary slot in place");
                insts.drain(check..check + 3); // compare, branch, __stack_chk_fail
                module.program.replace_function_body(id, insts).expect("id is valid");
                verify_compiled(&module)
            }
            defect => {
                let mut module = victim_module(SSP, OptLevel::O0);
                inject(&mut module, *defect);
                verify_compiled(&module)
            }
        }
    }
}

impl std::fmt::Display for InjectedDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The classic SSP compiler build every compiled defect is planted into.
const SSP: Build = Build::Compiler(SchemeKind::Ssp);

/// The fixed victim every defect is planted into, built by `build`'s
/// compiler at `opt`: one protected function with a buffer and a bounded
/// copy, called from an unprotected `main`.
fn victim_module(build: Build, opt: OptLevel) -> CompiledModule {
    let module = ModuleBuilder::new()
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
        .expect("victim module is well-formed");
    build.compiler(opt).compile(&module).expect("victim compiles")
}

/// Plants `defect` into the victim's `handle_request` body.
fn inject(module: &mut CompiledModule, defect: InjectedDefect) {
    let id = module.by_name["handle_request"];
    let mut insts =
        module.program.function(id).expect("victim has handle_request").insts().to_vec();

    let canary_store = insts
        .iter()
        .position(|inst| matches!(inst, Inst::MovRegToFrame { offset: -8, .. }))
        .expect("SSP prologue stores the canary at -8");
    let guard = insts
        .iter()
        .position(|inst| matches!(inst, Inst::MovFrameToReg { offset: -8, .. }))
        .expect("SSP epilogue reloads the canary");

    match defect {
        InjectedDefect::SkippedPrologue => {
            // Drop the TLS load + store pair: the buffer is written with the
            // slot still unset.
            insts.drain(canary_store - 1..=canary_store);
        }
        InjectedDefect::ClobberedCanary => {
            insts.insert(canary_store + 1, Inst::MovImmToFrame { offset: -8, imm: 0 });
        }
        InjectedDefect::DroppedEpilogue => {
            // One branch skips the 4-instruction check and lands on `leave`.
            insts.splice(
                guard..guard,
                [Inst::TestReg(polycanary_vm::reg::Reg::Rax), Inst::JneSkip(4)],
            );
        }
        InjectedDefect::DeadCheck => {
            // Both paths skip the check: it becomes unreachable.
            insts.splice(guard..guard, [Inst::JmpSkip(4)]);
        }
        InjectedDefect::SelfComparedCanary => {
            let Inst::MovFrameToReg { dst, .. } = insts[guard] else {
                unreachable!("the guard reload matched MovFrameToReg above")
            };
            insts[guard] = Inst::MovTlsToReg { dst, offset: TLS_CANARY_OFFSET };
        }
        InjectedDefect::StaleRewrite | InjectedDefect::OptimizerDroppedCheck => {
            unreachable!("handled by InjectedDefect::run")
        }
    }

    module.program.replace_function_body(id, insts).expect("id is valid");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_defect_trips_its_expected_check() {
        for defect in InjectedDefect::ALL {
            let findings = defect.run();
            assert!(
                findings.iter().any(|f| f.kind == defect.expected_kind()),
                "{defect}: expected a {} finding, got {findings:?}",
                defect.expected_kind()
            );
        }
    }

    #[test]
    fn labels_round_trip() {
        for defect in InjectedDefect::ALL {
            assert_eq!(InjectedDefect::from_label(defect.label()), Some(defect));
        }
        assert_eq!(InjectedDefect::from_label("nonsense"), None);
    }

    #[test]
    fn the_clean_victim_is_finding_free() {
        let module = victim_module(SSP, OptLevel::O0);
        assert!(verify_compiled(&module).is_empty());
    }
}
