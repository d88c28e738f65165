//! Synthetic SPEC CPU2006-like benchmark suite.
//!
//! Figure 5 and Table II of the paper use the 28 programs of SPEC CPU2006
//! (12 SPECint + 16 SPECfp).  The proprietary suite is not available, so the
//! reproduction substitutes 28 synthetic MiniC programs that span the same
//! range of the one characteristic the measured overhead actually depends
//! on: the ratio of function-call (prologue/epilogue) work to function-body
//! work.  Call-heavy programs such as `400.perlbench`/`403.gcc` sit at one
//! end, long-running numeric kernels such as `470.lbm` at the other.  See
//! DESIGN.md §2 for the substitution argument.

use std::sync::Arc;

use polycanary_compiler::ir::{FunctionBuilder, ModuleBuilder, ModuleDef};
use polycanary_compiler::OptLevel;
use polycanary_vm::machine::Machine;

use crate::build::{build_machine_at, Build};

/// Which half of the suite a program belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecSuite {
    /// SPECint-like: integer, call- and branch-heavy.
    Int,
    /// SPECfp-like: floating point, loop/kernel-heavy.
    Fp,
}

/// One synthetic SPEC-like program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecProgram {
    /// Program name (mirrors the SPEC CPU2006 naming convention).
    pub name: &'static str,
    /// SPECint-like or SPECfp-like.
    pub suite: SpecSuite,
    /// Number of distinct worker functions in the program.
    pub workers: u32,
    /// How many times the driver calls each worker.
    pub calls_per_worker: u32,
    /// Cycles of straight-line computation per worker invocation.
    pub body_cycles: u64,
    /// Size of the local buffer each worker carries (bytes).
    pub buffer_size: u32,
}

impl SpecProgram {
    /// Number of cold (never-executed) utility functions per program.
    ///
    /// Real SPEC programs carry a large amount of code that a given input
    /// never exercises; without it the fixed per-function canary bytes would
    /// dominate the code-size comparison of Table II.  Cold functions have no
    /// buffers, so they are not instrumented — exactly like the bulk of real
    /// code under `-fstack-protector`.
    pub fn cold_functions(&self) -> u32 {
        self.workers * 5
    }

    /// Generates the program's MiniC module.
    pub fn module(&self) -> ModuleDef {
        // Names are interned once per module: every call of a worker, and
        // every cold function's local, shares one `Arc<str>`.
        let workers: Vec<Arc<str>> =
            (0..self.workers).map(|w| format!("worker_{w}").into()).collect();
        let state: Arc<str> = Arc::from("state");
        let mut builder = ModuleBuilder::new();
        // The driver calls every worker `calls_per_worker` times.
        let mut main = FunctionBuilder::new("main").scalar("i");
        for worker in &workers {
            for _ in 0..self.calls_per_worker {
                main = main.call(Arc::clone(worker));
            }
        }
        builder = builder.function(main.returns(0).build());
        for worker in workers {
            let worker = FunctionBuilder::new(worker)
                .buffer("scratch", self.buffer_size)
                .safe_copy("scratch")
                .compute(self.body_cycles)
                .returns(0)
                .build();
            builder = builder.function(worker);
        }
        for c in 0..self.cold_functions() {
            let mut cold = FunctionBuilder::new(format!("cold_{c}")).scalar(Arc::clone(&state));
            for _ in 0..24 {
                cold = cold.compute(1);
            }
            builder = builder.function(cold.returns(0).build());
        }
        builder.entry("main").build().expect("generated SPEC-like module is well-formed")
    }

    /// Builds the program under `build` and measures one complete run,
    /// returning the consumed cycles (at the default `O0`).
    pub fn run(&self, build: Build, seed: u64) -> u64 {
        self.run_at(build, OptLevel::O0, seed)
    }

    /// [`SpecProgram::run`] at an explicit optimization level.
    pub fn run_at(&self, build: Build, opt: OptLevel, seed: u64) -> u64 {
        let mut machine: Machine = build_machine_at(&self.module(), build, opt, seed);
        let mut process = machine.spawn();
        process.set_input(vec![0x5Au8; 16]);
        let outcome = machine.run(&mut process).expect("SPEC-like programs have an entry point");
        assert!(
            outcome.exit.is_normal(),
            "SPEC-like program {} must run to completion: {:?}",
            self.name,
            outcome.exit
        );
        outcome.cycles
    }

    /// Runtime overhead of `build` relative to the native build, in percent
    /// (at the default `O0`).
    pub fn overhead_percent(&self, build: Build, seed: u64) -> f64 {
        self.overhead_percent_at(build, OptLevel::O0, seed)
    }

    /// [`SpecProgram::overhead_percent`] at an explicit optimization level:
    /// both the native baseline and the protected build are compiled at
    /// `opt`, so the ratio is honest about what an optimizing compiler
    /// would ship.
    pub fn overhead_percent_at(&self, build: Build, opt: OptLevel, seed: u64) -> f64 {
        let native = self.run_at(Build::Native, opt, seed) as f64;
        let protected = self.run_at(build, opt, seed) as f64;
        (protected - native) / native * 100.0
    }
}

/// The 28-program synthetic suite (12 SPECint-like + 16 SPECfp-like).
pub fn spec_suite() -> Vec<SpecProgram> {
    use SpecSuite::{Fp, Int};
    let mk = |name, suite, workers, calls, body, buf| SpecProgram {
        name,
        suite,
        workers,
        calls_per_worker: calls,
        body_cycles: body,
        buffer_size: buf,
    };
    vec![
        // SPECint-like: shorter bodies, more calls (canary code runs often).
        mk("400.perlbench", Int, 6, 40, 1_800, 64),
        mk("401.bzip2", Int, 4, 30, 3_500, 128),
        mk("403.gcc", Int, 8, 45, 1_500, 64),
        mk("429.mcf", Int, 3, 25, 5_000, 32),
        mk("445.gobmk", Int, 6, 35, 2_200, 64),
        mk("456.hmmer", Int, 4, 30, 4_000, 96),
        mk("458.sjeng", Int, 5, 35, 2_500, 48),
        mk("462.libquantum", Int, 3, 25, 4_500, 32),
        mk("464.h264ref", Int, 6, 40, 2_800, 128),
        mk("471.omnetpp", Int, 7, 40, 1_700, 64),
        mk("473.astar", Int, 4, 30, 3_200, 48),
        mk("483.xalancbmk", Int, 8, 45, 1_600, 64),
        // SPECfp-like: longer numeric bodies, fewer calls.
        mk("410.bwaves", Fp, 3, 18, 9_000, 64),
        mk("416.gamess", Fp, 5, 22, 6_500, 96),
        mk("433.milc", Fp, 4, 20, 7_500, 64),
        mk("434.zeusmp", Fp, 3, 18, 8_500, 64),
        mk("435.gromacs", Fp, 4, 20, 7_000, 96),
        mk("436.cactusADM", Fp, 3, 16, 9_500, 64),
        mk("437.leslie3d", Fp, 3, 18, 8_000, 64),
        mk("444.namd", Fp, 4, 20, 6_800, 48),
        mk("447.dealII", Fp, 5, 24, 5_500, 96),
        mk("450.soplex", Fp, 4, 22, 6_000, 64),
        mk("453.povray", Fp, 5, 26, 4_800, 64),
        mk("454.calculix", Fp, 4, 20, 7_200, 96),
        mk("459.GemsFDTD", Fp, 3, 18, 8_800, 64),
        mk("465.tonto", Fp, 5, 24, 5_800, 96),
        mk("470.lbm", Fp, 2, 14, 12_000, 32),
        mk("482.sphinx3", Fp, 4, 22, 6_200, 64),
    ]
}

/// Mean of a slice of percentages.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polycanary_core::scheme::SchemeKind;

    #[test]
    fn suite_has_28_uniquely_named_programs() {
        let suite = spec_suite();
        assert_eq!(suite.len(), 28);
        let ints = suite.iter().filter(|p| p.suite == SpecSuite::Int).count();
        let fps = suite.iter().filter(|p| p.suite == SpecSuite::Fp).count();
        assert_eq!(ints, 12);
        assert_eq!(fps, 16);
        for (i, a) in suite.iter().enumerate() {
            for b in suite.iter().skip(i + 1) {
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn every_program_generates_a_valid_module() {
        for program in spec_suite() {
            let module = program.module();
            assert!(module.validate().is_ok(), "{}", program.name);
            assert_eq!(
                module.functions.len() as u32,
                program.workers + 1 + program.cold_functions()
            );
        }
    }

    #[test]
    fn a_sample_program_runs_under_all_figure5_builds() {
        let program = spec_suite()[0];
        for build in Build::figure5_builds() {
            let cycles = program.run(build, 3);
            assert!(cycles > 0, "{}", build.label());
        }
    }

    #[test]
    fn pssp_overhead_is_small_and_positive_for_a_sample_program() {
        // Fig. 5 shape: compiler-based P-SSP costs well under 5 % even on the
        // most call-heavy programs.
        let program = spec_suite()[2]; // 403.gcc-like, call heavy
        let overhead = program.overhead_percent(Build::Compiler(SchemeKind::Pssp), 7);
        assert!(overhead > 0.0, "overhead {overhead}");
        assert!(overhead < 5.0, "overhead {overhead}");
    }

    #[test]
    fn instrumentation_based_overhead_exceeds_compiler_based() {
        // Fig. 5: 1.01 % (instrumentation) vs 0.24 % (compiler) on average.
        // Check the ordering on a call-heavy program where the difference is
        // most visible.
        let program = spec_suite()[0];
        let compiler = program.overhead_percent(Build::Compiler(SchemeKind::Pssp), 7);
        let instrumented = program
            .overhead_percent(Build::BinaryRewriter(polycanary_rewriter::LinkMode::Dynamic), 7);
        assert!(
            instrumented > compiler,
            "instrumentation ({instrumented:.3}%) should cost more than the compiler plugin ({compiler:.3}%)"
        );
    }

    #[test]
    fn o2_overhead_is_lower_than_o0_overhead_for_compiler_builds() {
        // The optimizer strength-reduces the canary check in leaf workers,
        // so against the same-level native baseline the protection overhead
        // shrinks — the honest comparison ISSUE 9 is about.
        let program = spec_suite()[2]; // 403.gcc-like, call heavy
        let build = Build::Compiler(SchemeKind::Pssp);
        let o0 = program.overhead_percent_at(build, OptLevel::O0, 7);
        let o2 = program.overhead_percent_at(build, OptLevel::O2, 7);
        assert!(o2 < o0, "O2 overhead {o2:.3}% must beat O0 overhead {o0:.3}%");
        assert!(o2 > 0.0, "protection still costs something at O2: {o2:.3}%");
    }

    #[test]
    fn fp_programs_show_lower_overhead_than_int_programs() {
        // Longer bodies amortise the canary work better.
        let int_prog = spec_suite()[2]; // 403.gcc-like
        let fp_prog = spec_suite()[26]; // 470.lbm-like
        let int_overhead = int_prog.overhead_percent(Build::Compiler(SchemeKind::Pssp), 9);
        let fp_overhead = fp_prog.overhead_percent(Build::Compiler(SchemeKind::Pssp), 9);
        assert!(fp_overhead < int_overhead);
    }

    #[test]
    fn mean_helper_handles_empty_and_normal_cases() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
