//! Building workload binaries under the different deployment vehicles.
//!
//! Every performance experiment of the paper compares builds of the same
//! source: the native build (default compiler options), the build produced
//! by a compiler plugin, and the SSP build upgraded by the binary rewriter.
//! [`Build`] is that choice and the one pipeline behind it (it lives in
//! `polycanary-rewriter`, the lowest crate that sees both the compiler and
//! the rewriter, and is re-exported here).  This module adds the two steps
//! the experiments need after the pipeline: [`build_machine`] launches the
//! built program under its runtime, and [`binary_size`] measures it.

use polycanary_compiler::ir::ModuleDef;
use polycanary_compiler::OptLevel;
use polycanary_vm::machine::Machine;

pub use polycanary_rewriter::Build;

/// Builds `module` under `build` and wraps it in a machine with the
/// matching runtime (shared library) attached.
///
/// # Panics
///
/// Panics if the module fails to compile or rewrite — workload modules are
/// generated programmatically and are well-formed by construction, so a
/// failure indicates a bug in the workload generator itself.
pub fn build_machine(module: &ModuleDef, build: Build, seed: u64) -> Machine {
    build_machine_at(module, build, OptLevel::O0, seed)
}

/// [`build_machine`] at an explicit optimization level.
///
/// Rewriter builds always compile their SSP input with canary shapes
/// preserved — the rewriter pattern-matches the canonical sequences — so
/// only the surrounding body code benefits from optimization there.
///
/// # Panics
///
/// Panics under the same conditions as [`build_machine`].
pub fn build_machine_at(module: &ModuleDef, build: Build, opt: OptLevel, seed: u64) -> Machine {
    // Compiled builds seed their runtime as `CompiledModule::into_machine`
    // does; rewritten ones with the rewriter's own salt.
    let salt = match build {
        Build::Native | Build::Compiler(_) => 0xB007_0000_0000_0001,
        Build::BinaryRewriter(_) => 0x5EED_B175,
    };
    let hooks = build.runtime_scheme().scheme().runtime_hooks(seed ^ salt);
    Machine::new(build.program(module, opt), hooks, seed)
}

/// Binary size of `module` under `build` at O0, in bytes (used by Table II).
///
/// # Panics
///
/// Panics under the same conditions as [`build_machine`].
pub fn binary_size(module: &ModuleDef, build: Build) -> u64 {
    build.program(module, OptLevel::O0).binary_size()
}

#[cfg(test)]
mod tests {
    use super::*;
    use polycanary_compiler::ir::{FunctionBuilder, ModuleBuilder};
    use polycanary_core::scheme::SchemeKind;
    use polycanary_rewriter::LinkMode;

    fn sample_module() -> ModuleDef {
        ModuleBuilder::new()
            .function(
                FunctionBuilder::new("work")
                    .buffer("buf", 32)
                    .safe_copy("buf")
                    .compute(1000)
                    .returns(0)
                    .build(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn every_build_produces_a_runnable_machine() {
        for build in [
            Build::Native,
            Build::Compiler(SchemeKind::Ssp),
            Build::Compiler(SchemeKind::Pssp),
            Build::BinaryRewriter(LinkMode::Dynamic),
            Build::BinaryRewriter(LinkMode::Static),
        ] {
            let mut machine = build_machine(&sample_module(), build, 1);
            let (outcome, _) = machine.spawn_and_run().unwrap();
            assert!(outcome.exit.is_normal(), "{}: {:?}", build.label(), outcome.exit);
        }
    }

    #[test]
    fn optimized_builds_run_normally_for_every_vehicle() {
        for build in [
            Build::Native,
            Build::Compiler(SchemeKind::Pssp),
            Build::BinaryRewriter(LinkMode::Dynamic),
            Build::BinaryRewriter(LinkMode::Static),
        ] {
            let mut machine = build_machine_at(&sample_module(), build, OptLevel::O2, 1);
            let (outcome, _) = machine.spawn_and_run().unwrap();
            assert!(outcome.exit.is_normal(), "{} @O2: {:?}", build.label(), outcome.exit);
        }
    }

    #[test]
    fn binary_sizes_follow_table2_ordering() {
        let module = sample_module();
        let native = binary_size(&module, Build::Native);
        let compiler = binary_size(&module, Build::Compiler(SchemeKind::Pssp));
        let dynamic = binary_size(&module, Build::BinaryRewriter(LinkMode::Dynamic));
        let ssp = binary_size(&module, Build::Compiler(SchemeKind::Ssp));
        let statically = binary_size(&module, Build::BinaryRewriter(LinkMode::Static));
        // Compiler-based P-SSP grows the binary slightly over native.
        assert!(compiler > native);
        // Dynamic-link instrumentation does not grow the SSP binary at all.
        assert_eq!(dynamic, ssp);
        // Static-link instrumentation appends the extra glibc section.
        assert!(statically > dynamic);
    }
}
