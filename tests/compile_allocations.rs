//! Heap allocations of the compiler's back half, `Compiler::lower`, and of
//! the static verifier's `verify_compiled`.
//!
//! `harness verify` lowers every verify module under every scheme from one
//! prepared front half per opt level, then verifies each build, so these
//! two calls are where a sweep's per-function bookkeeping lands.  The back
//! half shares the module's interned names and every unprotected function's
//! body instead of copying them; the verifier reuses one set of CFG and
//! dataflow buffers across a module's functions.  These tests pin both.
//!
//! The VM's memory image is pinned too: an untouched segment reads from a
//! static zero block and the TLS block is inline, so building an image,
//! capturing a snapshot, booting a process and reforking a worker from an
//! untouched parent allocate no segment — the costs every victim build and
//! every boot of a fleet campaign pays.  A campaign worker boots each of
//! its victims into one kept server, so a canary-reuse victim allocates
//! only what it returns.
//!
//! Export records are pinned last: a record built in code borrows its static
//! field names, the JSON writer allocates only its output, and the parser
//! allocates once per string it returns and per container it fills.
//!
//! A thread-local counting allocator counts the measured call alone:
//! `prepare` runs debug-only checks that allocate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use polycanary::attacks::{
    AttackKind, Campaign, CanaryReuseAttack, Deployment, ForkingServer, VictimConfig, VictimKey,
    VictimSnapshot,
};
use polycanary::compiler::ir::ModuleDef;
use polycanary::compiler::{Compiler, OptLevel};
use polycanary::core::record::Record;
use polycanary::core::SchemeKind;
use polycanary::verifier::verify_compiled;
use polycanary::vm::tls::TLS_SIZE;
use polycanary::vm::{ExecConfig, Inst, Machine, Memory, NoHooks, Process, Program, Reg, Snapshot};
use polycanary::workloads::{spec_suite, DatabaseModel, ServerModel};

/// Counts every allocation and reallocation of the current thread.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation of `bytes` bytes (a reallocation counts its new
/// size).
fn count_one(bytes: usize) {
    // `try_with`: the allocator also serves threads that are tearing down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every call forwards unchanged to the system allocator; counting
// touches only a thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        // SAFETY: `ptr` came from this allocator, which is the system one.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is the system one.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn bytes_allocated() -> u64 {
    BYTES.with(Cell::get)
}

/// The 32 modules of the full `harness verify` sweep: every SPEC-like
/// program plus both server and both database models.
fn verify_modules() -> Vec<ModuleDef> {
    let mut modules: Vec<ModuleDef> = spec_suite().iter().map(|p| p.module()).collect();
    modules.extend([ServerModel::ApacheLike, ServerModel::NginxLike].map(|s| s.module()));
    modules.extend([DatabaseModel::MySqlLike, DatabaseModel::SqliteLike].map(|d| d.module()));
    modules
}

#[test]
fn lowering_shares_interned_names_and_stays_within_its_allocation_budget() {
    /// Allocations per lowered function the back half may make.  Only the
    /// protected functions (under one in five) are lowered per scheme: the
    /// body and its offsets, the frame offsets, the scheme's prologue and
    /// epilogue, and at O2 the canary-load pass's working copies.
    const BUDGET_PER_FUNCTION: f64 = 2.0;

    let modules = verify_modules();
    assert_eq!(modules.len(), 32);
    let (mut counted, mut functions) = (0u64, 0usize);
    for opt in [OptLevel::O0, OptLevel::O2] {
        for module in &modules {
            let front = Compiler::new(SchemeKind::Native).with_opt_level(opt).prepare(module);
            let front = front.expect("verify modules compile");
            let mut builds = Vec::new();
            for kind in SchemeKind::ALL {
                let compiler = Compiler::new(kind).with_opt_level(opt);
                let before = allocations();
                let first = compiler.lower(&front).expect("verify modules compile");
                counted += allocations() - before;
                functions += first.program.len();

                // A second lower of the same front half hands out the very
                // same name `Arc`s: names are interned once per module.
                let second = compiler.lower(&front).expect("verify modules compile");
                assert_eq!(first, second, "{kind}@{opt}");
                for ((_, a), (_, b)) in first.program.iter().zip(second.program.iter()) {
                    assert!(
                        Arc::ptr_eq(&a.name_interned(), &b.name_interned()),
                        "{kind}@{opt}: `{}` was copied, not shared",
                        a.name()
                    );
                }
                builds.push(first);
            }

            // An unprotected function compiles to the same code under every
            // scheme, and all ten builds share that one body.
            let (reference, others) = builds.split_first().expect("ten schemes");
            for (id, function) in reference.program.iter() {
                if reference.frames[id.0].info.protected {
                    continue;
                }
                for build in others {
                    let other = build.program.function(id).expect("same function ids");
                    assert!(
                        Arc::ptr_eq(function.body().shared_insts(), other.body().shared_insts()),
                        "{}@{opt}: unprotected `{}` was lowered again, not shared",
                        build.scheme,
                        function.name()
                    );
                }
            }
        }
    }
    let per_function = counted as f64 / functions as f64;
    assert!(
        per_function <= BUDGET_PER_FUNCTION,
        "lowering made {per_function:.2} allocations per function over {functions} functions \
         (budget {BUDGET_PER_FUNCTION})"
    );
}

#[test]
fn verifying_a_compiled_module_stays_within_its_allocation_budget() {
    /// Allocations per `verify_compiled` call on a clean build: one set of
    /// CFG and dataflow buffers per call, grown to the module's largest
    /// protected function, plus the policy's slot list.
    const BUDGET_PER_CALL: f64 = 40.0;

    let modules = verify_modules();
    let (mut counted, mut calls) = (0u64, 0u64);
    for opt in [OptLevel::O0, OptLevel::O2] {
        for module in &modules {
            for kind in SchemeKind::ALL {
                let compiled = Compiler::new(kind)
                    .with_opt_level(opt)
                    .compile(module)
                    .expect("verify modules compile");
                let before = allocations();
                let findings = verify_compiled(&compiled);
                counted += allocations() - before;
                calls += 1;
                assert!(findings.is_empty(), "{kind}@{opt}: {findings:?}");
            }
        }
    }
    let per_call = counted as f64 / calls as f64;
    assert!(
        per_call <= BUDGET_PER_CALL,
        "verify_compiled made {per_call:.2} allocations per call over {calls} calls \
         (budget {BUDGET_PER_CALL})"
    );
}

/// A one-function program; it is laid out as it is built, so capturing it
/// allocates only the `Arc` a snapshot shares it through.
fn one_function_program() -> Program {
    let mut program = Program::new();
    let main = program
        .add_function("main", vec![Inst::MovImmToReg { dst: Reg::Rax, imm: 7 }, Inst::Ret])
        .expect("fresh program");
    program.set_entry(main);
    program
}

#[test]
fn a_fresh_memory_image_allocates_no_segment() {
    let before = allocations();
    let image = Memory::with_stack_size(16 * 1024);
    let copy = image.clone();
    assert_eq!(allocations() - before, 0, "building and cloning an untouched image");
    assert!(copy == image);
}

#[test]
fn a_snapshot_allocates_only_the_shared_program() {
    let program = one_function_program();
    let before = allocations();
    let snapshot = Snapshot::new(program, ExecConfig::default(), 16 * 1024);
    assert_eq!(allocations() - before, 1, "the program's `Arc`, and no image segment");
    assert_eq!(snapshot.stack_size(), 16 * 1024);
}

/// What one boot allocates: nothing.  The TLS block is inline and no
/// image segment is made before the process writes.
const BOOT_ALLOCATIONS: u64 = 0;

#[test]
fn spawn_and_restore_allocate_nothing() {
    let snapshot = Snapshot::new(one_function_program(), ExecConfig::default(), 16 * 1024);
    let mut machine = Machine::from_snapshot(&snapshot, Box::new(NoHooks), 5);
    for round in 0..3 {
        let before = allocations();
        let spawned = machine.spawn();
        assert_eq!(allocations() - before, BOOT_ALLOCATIONS, "spawn {round}");
        let before = allocations();
        let restored = machine.restore(&snapshot);
        assert_eq!(allocations() - before, BOOT_ALLOCATIONS, "restore {round}");
        assert!(spawned.memory.shares_pages_with(&restored.memory));
    }
}

#[test]
fn reforking_a_worker_from_an_untouched_parent_allocates_nothing() {
    let snapshot = Snapshot::new(one_function_program(), ExecConfig::default(), 16 * 1024);
    let mut machine = Machine::from_snapshot(&snapshot, Box::new(NoHooks), 5);
    let mut parent = machine.restore(&snapshot);
    // A connection's writes: the worker's first write allocates its stack,
    // and from then on each refork zero-fills the written range in place.
    let serve = |worker: &mut Process, round: u64| {
        let top = worker.memory.stack_top();
        worker.memory.write_u64(top - 8 * (1 + round), round).expect("in-stack word");
        worker.memory.write_bytes(top - 0x200, b"request").expect("in-stack bytes");
    };
    let mut worker = machine.fork(&mut parent);
    serve(&mut worker, 0);
    for round in 1..5 {
        let before = allocations();
        machine.fork_into(&mut parent, &mut worker);
        let clean = worker.memory == parent.memory;
        serve(&mut worker, round);
        assert_eq!(allocations() - before, 0, "refork and serve {round}");
        assert!(clean, "refork {round} restores the parent's image");
    }
}

#[test]
fn a_reuse_victim_rebooted_into_a_kept_server_allocates_only_its_results() {
    /// Allocations of one canary-reuse victim booted into a kept server
    /// (`ForkingServer::reboot`), by scheme: the leaked bytes, the
    /// overflow payload and the recovered canary, plus the runtime hooks'
    /// `Box` for the P-SSP schemes.  No stack and no I/O buffer.
    const CELLS: [(SchemeKind, Deployment, u64); 3] = [
        (SchemeKind::Ssp, Deployment::Compiler, 3),
        (SchemeKind::Pssp, Deployment::Compiler, 4),
        (SchemeKind::PsspBin32, Deployment::BinaryRewriter, 4),
    ];
    let snapshots = CELLS.map(|(scheme, deployment, _)| {
        VictimSnapshot::build(VictimKey::of(
            &VictimConfig::new(scheme, 0).with_deployment(deployment),
        ))
    });
    let mut server = ForkingServer::from_snapshot(&snapshots[0], 1);
    // Round 0 warms the kept worker on every scheme; from then on each
    // victim's count is exact.
    for round in 0..4u64 {
        for ((scheme, _, expected), snapshot) in CELLS.iter().zip(&snapshots) {
            let seed = 0x5EED + round;
            let (before, bytes_before) = (allocations(), bytes_allocated());
            server.reboot(snapshot, seed);
            let result = CanaryReuseAttack::default().run(&mut server);
            let (made, bytes) = (allocations() - before, bytes_allocated() - bytes_before);
            assert_eq!(
                result,
                CanaryReuseAttack::default().run(&mut ForkingServer::from_snapshot(snapshot, seed)),
                "{scheme}, round {round}: a rebooted victim is a fresh one"
            );
            if round > 0 {
                assert_eq!(made, *expected, "{scheme}, round {round} ({bytes} bytes)");
                assert!(bytes < TLS_SIZE, "{scheme}, round {round}: {bytes} bytes");
            }
        }
    }
}

/// Allocations of a record's three export stages: build (`build` alone),
/// serialize and parse.  The parsed record must re-serialize to the same
/// text.
fn export_allocations(build: impl FnOnce() -> Record) -> [u64; 3] {
    let before = allocations();
    let record = build();
    let built = allocations() - before;
    let before = allocations();
    let json = record.to_json();
    let serialized = allocations() - before;
    let before = allocations();
    let parsed = Record::from_json(&json).expect("an export parses");
    let parsed_count = allocations() - before;
    assert_eq!(parsed.to_json(), json, "writer -> parser -> writer is a fixed point");
    [built, serialized, parsed_count]
}

#[test]
fn a_server_stats_record_allocates_only_what_it_carries() {
    /// Build: the field vector (4, then 8 fields) and the three label
    /// strings.  Serialize: the output string as it grows.  Parse: the
    /// field vector (two steps), the eight names and the three strings.
    const EXPECTED: [u64; 3] = [5, 6, 13];

    let mut server = ForkingServer::new(VictimConfig::new(SchemeKind::Ssp, 3));
    let _ = server.serve(b"GET / HTTP/1.1");
    assert_eq!(export_allocations(|| server.stats_record()), EXPECTED, "build, serialize, parse");
}

#[test]
fn a_reuse_report_record_allocates_only_what_it_carries_per_victim() {
    /// Build, serialize and parse of a 512-victim canary-reuse report.
    /// Each run is a record of four fields: built, it allocates its field
    /// vector and its `final_outcome` string (2 per victim); parsed, also
    /// its four names (6 per victim).  Serializing appends to one growing
    /// string.  The rest is the report's summary fields and the runs list.
    const VICTIMS: usize = 512;
    const EXPECTED: [u64; 3] = [1_046, 14, 3_113];

    let report = Campaign::new(AttackKind::Reuse, SchemeKind::Ssp)
        .with_seed_range(0xE4_0127, VICTIMS)
        .with_workers(1)
        .run();
    assert_eq!(report.runs.len(), VICTIMS);
    let counts = export_allocations(|| report.record());
    let per_victim = counts.map(|n| n as f64 / VICTIMS as f64);
    assert_eq!(counts, EXPECTED, "build, serialize, parse ({per_victim:.3?} per victim)");
}
