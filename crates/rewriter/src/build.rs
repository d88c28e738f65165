//! The deployment pipeline: how each vehicle turns a module into a program.
//!
//! The paper ships P-SSP two ways: as a compiler plugin (§V-B) and as this
//! crate's binary rewriter, which upgrades an SSP build in place (§V-C).
//! Every table, campaign victim and verifier cell is built natively or
//! under one of those two vehicles, and [`Build`] is the one place that
//! knows how:
//!
//! 1. [`Build::compiler`] — the scheme's own compiler, or for the rewriter
//!    the SSP compiler of its input, with canary shapes preserved at every
//!    level (the rewriter pattern-matches the canonical SSP sequences);
//! 2. [`Build::rewrite`] — the rewrite step, a no-op for compiler builds;
//! 3. [`Build::runtime_scheme`] — the scheme whose runtime the program runs
//!    under: a rewritten binary always runs P-SSP-bin32.
//!
//! [`Build::program`] is steps 1 and 2 in one call.  Launching stays with
//! each caller, which derives its own runtime-hooks seed.

use polycanary_compiler::codegen::Compiler;
use polycanary_compiler::ir::ModuleDef;
use polycanary_compiler::OptLevel;
use polycanary_core::scheme::SchemeKind;
use polycanary_vm::program::Program;

use crate::error::RewriteError;
use crate::rewrite::{LinkMode, RewriteReport, Rewriter};

/// One way of producing a binary: a deployment vehicle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Build {
    /// Default compilation, no stack protection ("native execution").
    Native,
    /// Compiled with the given scheme's compiler plugin.
    Compiler(SchemeKind),
    /// Compiled with classic SSP and upgraded by the binary rewriter.
    BinaryRewriter(LinkMode),
}

impl Build {
    /// Every protected vehicle: each scheme's compiler plugin, in
    /// [`SchemeKind::ALL`] order, then both rewriter link modes.
    pub const ALL: [Build; 12] = [
        Build::Compiler(SchemeKind::Native),
        Build::Compiler(SchemeKind::Ssp),
        Build::Compiler(SchemeKind::RafSsp),
        Build::Compiler(SchemeKind::DynaGuard),
        Build::Compiler(SchemeKind::Dcr),
        Build::Compiler(SchemeKind::Pssp),
        Build::Compiler(SchemeKind::PsspNt),
        Build::Compiler(SchemeKind::PsspLv),
        Build::Compiler(SchemeKind::PsspOwf),
        Build::Compiler(SchemeKind::PsspBin32),
        Build::BinaryRewriter(LinkMode::Dynamic),
        Build::BinaryRewriter(LinkMode::Static),
    ];

    /// Human-readable label used in experiment output.
    pub fn label(&self) -> String {
        match self {
            Build::Native => "native".to_string(),
            Build::Compiler(kind) => format!("compiler {kind}"),
            Build::BinaryRewriter(LinkMode::Dynamic) => {
                "instrumentation (dynamic link)".to_string()
            }
            Build::BinaryRewriter(LinkMode::Static) => "instrumentation (static link)".to_string(),
        }
    }

    /// The three builds Figure 5 compares.
    pub fn figure5_builds() -> [Build; 3] {
        [Build::Native, Build::Compiler(SchemeKind::Pssp), Build::BinaryRewriter(LinkMode::Dynamic)]
    }

    /// The compiler of this build at `opt`: the scheme's own, or for the
    /// rewriter the SSP compiler of its input, with canary shapes
    /// preserved so the rewriter finds the canonical sequences.
    pub fn compiler(&self, opt: OptLevel) -> Compiler {
        match *self {
            Build::Native => Compiler::new(SchemeKind::Native),
            Build::Compiler(kind) => Compiler::new(kind),
            Build::BinaryRewriter(_) => {
                Compiler::new(SchemeKind::Ssp).with_preserved_canary_shapes()
            }
        }
        .with_opt_level(opt)
    }

    /// The rewrite step: upgrades a program built by
    /// [`compiler`](Build::compiler) in place and reports what changed.  A
    /// no-op returning `None` for the native and compiler builds.
    ///
    /// # Errors
    ///
    /// Propagates [`RewriteError`] from the rewriter.
    pub fn rewrite(&self, program: &mut Program) -> Result<Option<RewriteReport>, RewriteError> {
        match *self {
            Build::Native | Build::Compiler(_) => Ok(None),
            Build::BinaryRewriter(mode) => {
                Rewriter::new().with_link_mode(mode).rewrite(program).map(Some)
            }
        }
    }

    /// Builds `module` at `opt`: [`compiler`](Build::compiler), then the
    /// [`rewrite`](Build::rewrite) step.
    ///
    /// # Panics
    ///
    /// Panics if `module` fails to compile or, under the rewriter, has no
    /// SSP-protected function.  Every workload and victim module is
    /// generated well-formed with a protected function, so a failure is a
    /// bug in its generator.
    pub fn program(&self, module: &ModuleDef, opt: OptLevel) -> Program {
        let mut program =
            self.compiler(opt).compile(module).expect("generated modules always compile").program;
        self.rewrite(&mut program).expect("SSP builds of generated modules are rewritable");
        program
    }

    /// The scheme whose runtime the built program runs under: the compiled
    /// scheme, or [`SchemeKind::PsspBin32`] for a rewritten binary.
    pub fn runtime_scheme(&self) -> SchemeKind {
        match *self {
            Build::Native => SchemeKind::Native,
            Build::Compiler(kind) => kind,
            Build::BinaryRewriter(_) => SchemeKind::PsspBin32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<_> = [
            Build::Native,
            Build::Compiler(SchemeKind::Pssp),
            Build::BinaryRewriter(LinkMode::Dynamic),
            Build::BinaryRewriter(LinkMode::Static),
        ]
        .iter()
        .map(Build::label)
        .collect();
        for (i, a) in labels.iter().enumerate() {
            for b in labels.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn figure5_builds_cover_the_three_bars() {
        let builds = Build::figure5_builds();
        assert_eq!(builds[0], Build::Native);
        assert!(matches!(builds[1], Build::Compiler(SchemeKind::Pssp)));
        assert!(matches!(builds[2], Build::BinaryRewriter(LinkMode::Dynamic)));
    }

    #[test]
    fn all_lists_every_scheme_then_both_link_modes() {
        let schemes: Vec<Build> = SchemeKind::ALL.into_iter().map(Build::Compiler).collect();
        assert_eq!(Build::ALL[..10], schemes[..]);
        assert_eq!(
            Build::ALL[10..],
            [Build::BinaryRewriter(LinkMode::Dynamic), Build::BinaryRewriter(LinkMode::Static)]
        );
    }

    #[test]
    fn only_the_rewriter_rewrites_and_runs_pssp_bin32() {
        let module = polycanary_compiler::ir::ModuleBuilder::new()
            .function(
                polycanary_compiler::ir::FunctionBuilder::new("f")
                    .buffer("buf", 16)
                    .safe_copy("buf")
                    .returns(0)
                    .build(),
            )
            .build()
            .unwrap();
        for build in Build::ALL.into_iter().chain([Build::Native]) {
            let mut program = build.compiler(OptLevel::O2).compile(&module).unwrap().program;
            let report = build.rewrite(&mut program).unwrap();
            assert_eq!(report.is_some(), matches!(build, Build::BinaryRewriter(_)));
            assert_eq!(program, build.program(&module, OptLevel::O2), "{}", build.label());
            if report.is_some() {
                assert_eq!(build.runtime_scheme(), SchemeKind::PsspBin32);
            }
        }
    }
}
