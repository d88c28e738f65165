//! Heap allocations of the compiler's back half, `Compiler::lower`, and of
//! the static verifier's `verify_compiled`.
//!
//! `harness verify` lowers every verify module under every scheme from one
//! prepared front half per opt level, then verifies each build, so these
//! two calls are where a sweep's per-function bookkeeping lands.  The back
//! half shares the module's interned names and every unprotected function's
//! body instead of copying them; the verifier reuses one set of CFG and
//! dataflow buffers across a module's functions.  These tests pin both.  A
//! thread-local counting allocator counts the measured call alone:
//! `prepare` runs debug-only checks that allocate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use polycanary::compiler::ir::ModuleDef;
use polycanary::compiler::{Compiler, OptLevel};
use polycanary::core::SchemeKind;
use polycanary::verifier::verify_compiled;
use polycanary::workloads::{spec_suite, DatabaseModel, ServerModel};

/// Counts every allocation and reallocation of the current thread.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also serves threads that are tearing down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards unchanged to the system allocator; counting
// touches only a thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
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
