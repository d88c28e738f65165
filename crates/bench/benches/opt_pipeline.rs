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
//! `compile` is the front half followed by the back half; two groups time
//! each half on its own for the same module:
//!
//! * `frontend/*` — `Compiler::prepare` at O0 vs O2: validation, the name
//!   table, stage-1 analysis and the stage-2 IR transforms, which depend
//!   on the module and the level only.  `harness verify` pays this once
//!   per module and level instead of once per build.
//! * `lower/ssp/*` — `Compiler::lower` of that prepared module under SSP:
//!   layout, lowering, the instruction passes and finalize, the per-scheme
//!   share of a compile.
//!
//! Two more groups time the layers every build passes through, with the
//! input clone kept outside the timed window:
//!
//! * `finalize/*` — `Program::finalize` on the SSP build at O0 vs O2:
//!   address layout only, which every compile and rewrite ends in.
//! * `rewrite/*` — `Rewriter::rewrite` of the shape-preserved SSP build in
//!   each link mode, which re-finalizes the upgraded program.
//!
//! The `opt_equivalence` differential suite separately proves the O0 and
//! O2 builds are semantically identical, so the `run` deltas are pure
//! per-call savings.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use polycanary_compiler::codegen::Compiler;
use polycanary_compiler::ir::ModuleDef;
use polycanary_compiler::OptLevel;
use polycanary_core::scheme::SchemeKind;
use polycanary_rewriter::{LinkMode, Rewriter};
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

    for opt in [OptLevel::O0, OptLevel::O2] {
        let program = Compiler::new(SchemeKind::Ssp)
            .with_opt_level(opt)
            .compile(&module)
            .expect("module compiles")
            .program;
        group.bench_with_input(BenchmarkId::new("finalize", opt), &opt, |b, _| {
            b.iter_batched(
                || program.clone(),
                |mut program| {
                    program.finalize();
                    program
                },
                BatchSize::SmallInput,
            )
        });
    }

    let ssp = Compiler::new(SchemeKind::Ssp)
        .with_preserved_canary_shapes()
        .compile(&module)
        .expect("module compiles")
        .program;
    for (label, mode) in [("dynamic", LinkMode::Dynamic), ("static", LinkMode::Static)] {
        let rewriter = Rewriter::new().with_link_mode(mode);
        group.bench_function(BenchmarkId::new("rewrite", label), |b| {
            b.iter_batched(
                || ssp.clone(),
                |mut program| {
                    rewriter.rewrite(&mut program).expect("SSP build is rewritable");
                    program
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
