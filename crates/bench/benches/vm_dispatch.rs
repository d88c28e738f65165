//! Interpreter dispatch — one byte-by-byte request through `Cpu::run`.
//!
//! Every attack request of the paper's threat model bottoms out in
//! `Cpu::run` executing the victim's `handle_request`: prologue canary
//! store, input copy, per-request processing across protected helper
//! calls, canary checks, return.  This bench runs exactly that inner loop
//! — a byte-by-byte guess payload against a handler that calls three
//! protected helpers — once per iteration, under each of SSP, P-SSP and
//! P-SSP-OWF.  The `vm_dispatch` test suite pins the interpreter's
//! outcomes with goldens; this bench only times the runs.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use polycanary_compiler::codegen::Compiler;
use polycanary_compiler::ir::{FunctionBuilder, ModuleBuilder};
use polycanary_core::scheme::SchemeKind;
use polycanary_vm::cpu::Cpu;
use polycanary_vm::machine::Machine;

const BUFFER_SIZE: u32 = 64;

/// The forking-server victim's request handler, rebuilt through the public
/// compiler API: a vulnerable buffer, an unbounded input copy, and the
/// per-request processing chain — three protected helpers (parse,
/// authenticate, log), each with its own canary-guarded frame and a
/// bounded scratch copy, as a real request handler would run.
fn victim_machine(scheme: SchemeKind) -> Machine {
    let helper = |name: &str, cycles: u64| {
        FunctionBuilder::new(name)
            .buffer("scratch", 32)
            .safe_copy("scratch")
            .compute(cycles)
            .returns(0)
            .build()
    };
    let module = ModuleBuilder::new()
        .function(helper("parse_header", 40))
        .function(helper("check_auth", 60))
        .function(helper("log_request", 30))
        .function(
            FunctionBuilder::new("handle_request")
                .buffer("request_buf", BUFFER_SIZE)
                .vulnerable_copy("request_buf")
                .call("parse_header")
                .call("check_auth")
                .call("log_request")
                .compute(150)
                .returns(0)
                .build(),
        )
        .entry("handle_request")
        .build()
        .expect("victim module is well-formed");
    Compiler::new(scheme).compile(&module).expect("victim compiles").into_machine(0xF1EE7)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("vm_dispatch");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));

    let cells: [(&str, SchemeKind); 3] =
        [("ssp", SchemeKind::Ssp), ("pssp", SchemeKind::Pssp), ("pssp_owf", SchemeKind::PsspOwf)];
    for (label, scheme) in cells {
        let mut machine = victim_machine(scheme);
        let mut worker = machine.spawn();
        // One byte-by-byte probe: fill the buffer and clobber the first
        // canary byte, so the run covers prologue, copy, helper calls,
        // check and abort — the exact per-request path of the guessing
        // attack.
        worker.set_input(vec![0x41u8; BUFFER_SIZE as usize + 1]);
        let entry = machine.program().entry().expect("entry set");
        group.bench_with_input(BenchmarkId::new("run", label), &entry, |b, _| {
            b.iter(|| Cpu::new().run(machine.program(), &mut worker, entry, &machine.exec_config))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
