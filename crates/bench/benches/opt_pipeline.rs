//! Optimizing pipeline — what the transform passes cost at compile time
//! and buy back at run time.
//!
//! Two groups of cells per scheme:
//!
//! * `compile/*` — full compilation of a call-heavy SPEC-like module at O0
//!   vs O2, measuring the pass pipeline's own overhead (analysis, IR
//!   transforms, instruction transforms including the epilogue strength
//!   reduction).
//! * `run/*` — one complete run of the same module's protected build at O0
//!   vs O2 through the machine, measuring the canary-handling cycles the
//!   optimizer eliminates on the hot call path.
//!
//! A third group per scheme times the static verifier alone:
//!
//! * `verify/*` — `verify_compiled` of the same build at O0 vs O2, the
//!   verifier's layer figure (divide by the build's instruction count for
//!   a per-instruction cost).
//!
//! `compile` is the front half followed by the back half; two groups time
//! each half on its own for the same module:
//!
//! * `frontend/*` — `Compiler::prepare` at O0 vs O2: validation, the name
//!   table, stage-1 analysis and the stage-2 IR transforms, which depend
//!   on the module and the level only.  `harness verify` pays this once
//!   per module and level instead of once per build.
//! * `lower/ssp/*` — `Compiler::lower` of that prepared module under SSP:
//!   frame layout, lowering, the instruction passes and address layout,
//!   the per-scheme share of a compile.
//!
//! One more group times the rewrite layer, with the input clone kept
//! outside the timed window:
//!
//! * `rewrite/*` — the rewrite step (`Build::rewrite`) of the
//!   shape-preserved SSP build in each link mode.
//!
//! The last group times the whole static verification sweep:
//!
//! * `sweep/*` — `run_verify` over the `--quick` matrix (192 cells) and
//!   the full one (768 cells), one job pool worker per CPU.  Run it on
//!   all CPUs and under `taskset -c 0` to see what the pool buys and what
//!   it costs at one worker.
//!
//! The `opt_equivalence` differential suite separately proves the O0 and
//! O2 builds are semantically identical, so the `run` deltas are pure
//! per-call savings.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use polycanary_bench::verify::run_verify;
use polycanary_compiler::codegen::Compiler;
use polycanary_compiler::ir::ModuleDef;
use polycanary_compiler::OptLevel;
use polycanary_core::scheme::SchemeKind;
use polycanary_rewriter::{Build, LinkMode};
use polycanary_verifier::verify_compiled;
use polycanary_workloads::spec_suite;

/// The most call-heavy program of the SPEC-like suite (403.gcc-like):
/// short worker bodies and many calls, so prologue/epilogue work — the
/// optimizer's target — dominates.
fn call_heavy_module() -> ModuleDef {
    spec_suite()[2].module()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("opt_pipeline");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));

    let module = call_heavy_module();
    let cells: [(&str, SchemeKind); 3] =
        [("ssp", SchemeKind::Ssp), ("pssp", SchemeKind::Pssp), ("pssp_owf", SchemeKind::PsspOwf)];
    for (label, scheme) in cells {
        for opt in [OptLevel::O0, OptLevel::O2] {
            group.bench_with_input(
                BenchmarkId::new(format!("compile/{label}"), opt),
                &opt,
                |b, &opt| {
                    b.iter(|| {
                        Compiler::new(scheme)
                            .with_opt_level(opt)
                            .compile(&module)
                            .expect("module compiles")
                    })
                },
            );

            let compiled = Compiler::new(scheme)
                .with_opt_level(opt)
                .compile(&module)
                .expect("module compiles");
            group.bench_with_input(
                BenchmarkId::new(format!("verify/{label}"), opt),
                &opt,
                |b, _| b.iter(|| verify_compiled(&compiled)),
            );
            let mut machine = compiled.into_machine(0xF1EE7);
            let mut worker = machine.spawn();
            worker.set_input(vec![0x5Au8; 16]);
            group.bench_with_input(BenchmarkId::new(format!("run/{label}"), opt), &opt, |b, _| {
                b.iter(|| {
                    let mut process = worker.clone();
                    machine.run(&mut process).expect("module runs")
                })
            });
        }
    }

    for opt in [OptLevel::O0, OptLevel::O2] {
        let ssp = Compiler::new(SchemeKind::Ssp).with_opt_level(opt);
        group.bench_with_input(BenchmarkId::new("frontend", opt), &opt, |b, _| {
            b.iter(|| ssp.prepare(&module).expect("module compiles"))
        });
        let front = ssp.prepare(&module).expect("module compiles");
        group.bench_with_input(BenchmarkId::new("lower/ssp", opt), &opt, |b, _| {
            b.iter(|| ssp.lower(&front).expect("module compiles"))
        });
    }

    let ssp = Build::BinaryRewriter(LinkMode::Dynamic)
        .compiler(OptLevel::O0)
        .compile(&module)
        .expect("module compiles")
        .program;
    for (label, mode) in [("dynamic", LinkMode::Dynamic), ("static", LinkMode::Static)] {
        let build = Build::BinaryRewriter(mode);
        group.bench_function(BenchmarkId::new("rewrite", label), |b| {
            b.iter_batched(
                || ssp.clone(),
                |mut program| {
                    build.rewrite(&mut program).expect("SSP build is rewritable");
                    program
                },
                BatchSize::SmallInput,
            )
        });
    }

    for (label, quick) in [("quick", true), ("full", false)] {
        group.bench_function(BenchmarkId::new("sweep", label), |b| b.iter(|| run_verify(quick)));
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
