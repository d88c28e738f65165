//! The SSP → P-SSP binary rewriter (§V-C/§V-D of the paper).
//!
//! The rewriter takes a program compiled with classic SSP and upgrades its
//! canary handling to polymorphic canaries under two hard constraints:
//!
//! 1. **stack-layout preservation** — local variables keep their
//!    `%rbp`-relative offsets, which forces the 64-bit canary to be
//!    downgraded to a packed pair of 32-bit halves occupying the original
//!    single canary slot, and
//! 2. **address-layout preservation** — no function may change size, so the
//!    replacement prologue/epilogue sequences are byte-size-identical to the
//!    originals, and the extra checking logic is folded into a patched
//!    `__stack_chk_fail` (Figs. 3–4).
//!
//! Statically linked binaries additionally need the customised `fork()` and
//!    `__stack_chk_fail()` added in a fresh section reached through `jmp`
//!    hooks, which is what Dyninst does for the paper (§V-D); that is
//!    modelled as an extra section recorded on the program.

use polycanary_vm::inst::{FuncId, Inst};
use polycanary_vm::machine::Machine;
use polycanary_vm::program::Program;
use polycanary_vm::reg::Reg;
use polycanary_vm::tls::TLS_SHADOW_C0_OFFSET;

use crate::build::Build;
use crate::error::RewriteError;
use crate::scan::scan_function;

/// How the target binary links against glibc.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinkMode {
    /// Dynamically linked: `fork` and `__stack_chk_fail` are patched in the
    /// shared library, the binary itself does not grow (Table II: 0 %).
    #[default]
    Dynamic,
    /// Statically linked: the customised `fork()` and `__stack_chk_fail()`
    /// are appended in a new section (Table II: ≈ 2.78 %).
    Static,
}

/// Size in bytes of the section holding the customised glibc functions for
/// statically linked binaries (two smallish functions, cf. the 16 KB shared
/// library compiled from ~358 lines in §V-A — only the two functions are
/// needed here).
pub const STATIC_SECTION_BYTES: u64 = 640;

/// Summary of one rewriting run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewriteReport {
    /// Number of functions inspected.
    pub functions_scanned: usize,
    /// Number of functions whose instrumentation was upgraded.
    pub functions_rewritten: usize,
    /// Number of prologue sites patched.
    pub prologues_patched: usize,
    /// Number of epilogue sites patched.
    pub epilogues_patched: usize,
    /// Binary size before rewriting (bytes).
    pub size_before: u64,
    /// Binary size after rewriting (bytes), including any extra section.
    pub size_after: u64,
    /// Link mode the rewrite was performed for.
    pub link_mode: LinkMode,
}

impl RewriteReport {
    /// Code expansion in percent (Table II, instrumentation columns).
    pub fn expansion_percent(&self) -> f64 {
        if self.size_before == 0 {
            0.0
        } else {
            (self.size_after as f64 - self.size_before as f64) / self.size_before as f64 * 100.0
        }
    }
}

/// The binary rewriter.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rewriter {
    link_mode: LinkMode,
}

impl Rewriter {
    /// Creates a rewriter for dynamically linked binaries.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the link mode of the target binary.
    #[must_use]
    pub fn with_link_mode(mut self, mode: LinkMode) -> Self {
        self.link_mode = mode;
        self
    }

    /// Rewrites `program` in place, upgrading every SSP site to P-SSP.
    ///
    /// # Errors
    ///
    /// * [`RewriteError::NotSspProtected`] if no SSP instrumentation exists.
    /// * [`RewriteError::InconsistentInstrumentation`] if a function's
    ///   prologue and epilogue counts differ (prologues without epilogues,
    ///   the reverse, or a count mismatch such as two prologues guarding a
    ///   single check) — the diagnostic carries both per-function counts.
    /// * [`RewriteError::LayoutChanged`] if a replacement would alter a
    ///   function's encoded size (this is a bug guard; the shipped
    ///   replacement sequences are size-preserving by construction).
    pub fn rewrite(&self, program: &mut Program) -> Result<RewriteReport, RewriteError> {
        let size_before = program.binary_size();
        let mut report = RewriteReport {
            functions_scanned: 0,
            functions_rewritten: 0,
            prologues_patched: 0,
            epilogues_patched: 0,
            size_before,
            size_after: size_before,
            link_mode: self.link_mode,
        };

        for index in 0..program.len() {
            report.functions_scanned += 1;
            let id = FuncId(index);
            let func = program.function(id).expect("ids below `len` are valid");
            let sites = scan_function(func.insts());
            if !sites.is_instrumented() {
                continue;
            }
            if !sites.is_balanced() {
                return Err(RewriteError::InconsistentInstrumentation {
                    function: func.name().to_string(),
                    prologues: sites.prologues.len(),
                    epilogues: sites.epilogues.len(),
                });
            }

            let rewritten = rewrite_function(func.insts(), &sites);
            let original_size = func.encoded_size();
            let new_size: u64 = rewritten.iter().map(Inst::encoded_size).sum();
            if new_size != original_size {
                return Err(RewriteError::LayoutChanged {
                    function: func.name().to_string(),
                    before: original_size,
                    after: new_size,
                });
            }
            report.prologues_patched += sites.prologues.len();
            report.epilogues_patched += sites.epilogues.len();
            report.functions_rewritten += 1;
            program
                .replace_function_body(id, rewritten)
                .expect("function id is valid during rewriting");
        }

        if report.functions_rewritten == 0 {
            return Err(RewriteError::NotSspProtected);
        }

        if self.link_mode == LinkMode::Static {
            // §V-D: Dyninst appends a new code section holding the customised
            // fork() and __stack_chk_fail() and hooks the originals with jmp.
            program.add_extra_section(".pssp_static_glibc", STATIC_SECTION_BYTES);
        }

        report.size_after = program.binary_size();
        Ok(report)
    }
}

/// The Code 6 epilogue check that replaces each SSP check: the same
/// encoded size as the 4-instruction sequence it replaces.
const CODE6_EPILOGUE: [Inst; 8] = [
    Inst::MovFrameToReg { dst: Reg::Rdx, offset: -8 },
    Inst::PushReg(Reg::Rdi),
    Inst::PushReg(Reg::Rdx),
    Inst::PopReg(Reg::Rdi),
    Inst::CallCheckCanary32,
    Inst::PopReg(Reg::Rdi),
    Inst::JeSkip(1),
    Inst::CallStackChkFail,
];

/// Produces the rewritten instruction stream for one function.
fn rewrite_function(insts: &[Inst], sites: &crate::scan::SspSites) -> Vec<Inst> {
    let mut out = Vec::with_capacity(insts.len() + CODE6_EPILOGUE.len() * sites.epilogues.len());
    out.extend_from_slice(insts);

    // Prologue: only the TLS offset changes (Code 5) — same encoded size.
    for site in &sites.prologues {
        if let Inst::MovTlsToReg { dst, .. } = out[site.tls_load_index] {
            out[site.tls_load_index] = Inst::MovTlsToReg { dst, offset: TLS_SHADOW_C0_OFFSET };
        }
    }

    // Epilogue: replace the 4-instruction SSP check with the size-identical
    // Code 6 sequence.  `scan_function` reports sites in ascending order;
    // replacements are applied back-to-front so earlier indices stay valid.
    for site in sites.epilogues.iter().rev() {
        out.splice(site.start_index..site.start_index + site.len, CODE6_EPILOGUE);
    }
    out
}

/// Convenience wrapper: rewrites an SSP-compiled program and wraps it into a
/// [`Machine`] running under the 32-bit P-SSP shared-library runtime, which
/// is how an instrumented binary is actually launched (`LD_PRELOAD`).
///
/// # Errors
///
/// Propagates [`RewriteError`] from the rewriting step.
pub fn instrument_and_load(
    mut program: Program,
    link_mode: LinkMode,
    seed: u64,
) -> Result<(Machine, RewriteReport), RewriteError> {
    let build = Build::BinaryRewriter(link_mode);
    let report = build.rewrite(&mut program)?.expect("a rewriter build reports its rewrite");
    let hooks = build.runtime_scheme().scheme().runtime_hooks(seed ^ 0x32B1_7C0D_E000_0001);
    Ok((Machine::new(program, hooks, seed), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use polycanary_compiler::codegen::Compiler;
    use polycanary_compiler::ir::{FunctionBuilder, ModuleBuilder, ModuleDef};
    use polycanary_core::scheme::SchemeKind;
    use polycanary_vm::cpu::Exit;

    fn server_module() -> ModuleDef {
        ModuleBuilder::new()
            .function(
                FunctionBuilder::new("handle_request")
                    .buffer("buf", 64)
                    .vulnerable_copy("buf")
                    .compute(300)
                    .returns(0)
                    .build(),
            )
            .function(
                FunctionBuilder::new("main").scalar("s").call("handle_request").returns(0).build(),
            )
            .entry("main")
            .build()
            .unwrap()
    }

    fn ssp_program() -> Program {
        Compiler::new(SchemeKind::Ssp).compile(&server_module()).unwrap().program
    }

    #[test]
    fn rewriting_preserves_every_function_size() {
        let mut program = ssp_program();
        let sizes_before: Vec<_> =
            program.iter().map(|(_, f)| (f.name().to_string(), f.encoded_size())).collect();
        let report = Rewriter::new().rewrite(&mut program).unwrap();
        assert!(report.functions_rewritten >= 1);
        for (name, before) in sizes_before {
            let id = program.function_by_name(&name).unwrap();
            assert_eq!(program.function(id).unwrap().encoded_size(), before, "{name}");
        }
        assert_eq!(report.expansion_percent(), 0.0);
    }

    #[test]
    fn dynamic_link_mode_has_zero_expansion_static_has_some() {
        let mut dynamic = ssp_program();
        let report =
            Rewriter::new().with_link_mode(LinkMode::Dynamic).rewrite(&mut dynamic).unwrap();
        assert_eq!(report.expansion_percent(), 0.0);

        let mut statically = ssp_program();
        let report =
            Rewriter::new().with_link_mode(LinkMode::Static).rewrite(&mut statically).unwrap();
        assert!(report.expansion_percent() > 0.0);
        assert_eq!(report.size_after - report.size_before, STATIC_SECTION_BYTES);
    }

    #[test]
    fn rewritten_binary_runs_benign_requests_normally() {
        let (mut machine, _report) =
            instrument_and_load(ssp_program(), LinkMode::Dynamic, 77).unwrap();
        let mut process = machine.spawn();
        process.set_input(vec![0x55u8; 32]);
        let outcome = machine.run(&mut process).unwrap();
        assert!(outcome.exit.is_normal(), "{:?}", outcome.exit);
    }

    #[test]
    fn rewritten_binary_detects_overflows() {
        let (mut machine, _report) =
            instrument_and_load(ssp_program(), LinkMode::Dynamic, 77).unwrap();
        let mut process = machine.spawn();
        process.set_input(vec![0x41u8; 64 + 32]);
        let outcome = machine.run(&mut process).unwrap();
        assert!(outcome.exit.is_detection(), "{:?}", outcome.exit);
    }

    #[test]
    fn rewritten_binary_remains_compatible_with_plain_ssp_runtime_check() {
        // Compatibility direction of §V-C: SSP code calling the patched
        // __stack_chk_fail must still be diagnosed correctly.  Here we check
        // the inverse deployment property instead: running the *original*
        // SSP binary under the 32-bit runtime does not break, because the
        // original code never consults the shadow canary.
        let program = ssp_program();
        let hooks = SchemeKind::PsspBin32.scheme().runtime_hooks(3);
        let mut machine = Machine::new(program, hooks, 3);
        let mut process = machine.spawn();
        process.set_input(vec![1, 2, 3]);
        assert!(machine.run(&mut process).unwrap().exit.is_normal());
    }

    #[test]
    fn unprotected_program_is_rejected() {
        let module = ModuleBuilder::new()
            .function(FunctionBuilder::new("main").scalar("x").compute(5).returns(0).build())
            .build()
            .unwrap();
        let mut program = Compiler::new(SchemeKind::Ssp).compile(&module).unwrap().program;
        let err = Rewriter::new().rewrite(&mut program).unwrap_err();
        assert_eq!(err, RewriteError::NotSspProtected);
    }

    #[test]
    fn count_mismatched_instrumentation_is_rejected() {
        // Two prologues guarding a single epilogue: previously only the
        // empty-vs-nonempty mismatch was caught; the balance check must
        // reject any count difference and name both counts.
        let mut program = ssp_program();
        let id = program.function_by_name("handle_request").unwrap();
        let mut insts = program.function(id).unwrap().insts().to_vec();
        let sites = scan_function(&insts);
        let prologue = sites.prologues[0];
        let extra = vec![insts[prologue.tls_load_index], insts[prologue.store_index]];
        insts.splice(prologue.store_index + 1..prologue.store_index + 1, extra);
        program.replace_function_body(id, insts).unwrap();
        let err = Rewriter::new().rewrite(&mut program).unwrap_err();
        assert_eq!(
            err,
            RewriteError::InconsistentInstrumentation {
                function: "handle_request".into(),
                prologues: 2,
                epilogues: 1,
            }
        );
    }

    #[test]
    fn prologue_offset_is_redirected_to_the_shadow_canary() {
        let mut program = ssp_program();
        Rewriter::new().rewrite(&mut program).unwrap();
        let id = program.function_by_name("handle_request").unwrap();
        let insts = program.function(id).unwrap().insts();
        assert!(insts.iter().any(
            |i| matches!(i, Inst::MovTlsToReg { offset, .. } if *offset == TLS_SHADOW_C0_OFFSET)
        ));
        assert!(
            !insts.iter().any(|i| matches!(i, Inst::XorTlsReg { .. })),
            "the old inline check must be gone"
        );
        assert!(insts.iter().any(|i| matches!(i, Inst::CallCheckCanary32)));
    }

    #[test]
    fn byte_by_byte_resistance_of_the_rewritten_binary() {
        // Every fork refreshes the packed 32-bit pair, so a partial-overwrite
        // guess that was accepted once is rejected on the next fork with
        // overwhelming probability.  Smoke-test one round here; the full
        // attack comparison lives in the attacks crate.
        let (mut machine, _) = instrument_and_load(ssp_program(), LinkMode::Dynamic, 9).unwrap();
        let mut parent = machine.spawn();
        let mut child_a = machine.fork(&mut parent);
        let mut child_b = machine.fork(&mut parent);
        let a = child_a.tls.read_word(TLS_SHADOW_C0_OFFSET).unwrap();
        let b = child_b.tls.read_word(TLS_SHADOW_C0_OFFSET).unwrap();
        assert_ne!(a, b, "two workers must not share a packed canary pair");
        // Both children still execute normally.
        child_a.set_input(vec![0u8; 8]);
        child_b.set_input(vec![0u8; 8]);
        assert!(matches!(machine.run(&mut child_a).unwrap().exit, Exit::Normal(_)));
        assert!(matches!(machine.run(&mut child_b).unwrap().exit, Exit::Normal(_)));
    }
}
