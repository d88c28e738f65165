//! Differential oracle for the optimizing pipeline: O0 and O2 builds of the
//! same program are semantically equivalent.
//!
//! The transform passes are sold as *pure accelerations*: whatever the
//! optimizer does to a body — folding computes, eliminating dead stores,
//! rescheduling the prologue, strength-reducing the epilogue check — the
//! observable behavior of the program (exit status and attacker-visible
//! output) must be identical to the unoptimized build; only cycle and
//! instruction counts may move.  This suite enforces that over
//! PRNG-generated MiniC programs — buffers, critical buffers, zero fills,
//! bounded and unbounded copies (including overflowing ones that must be
//! *detected* identically), leaks, computes — across every deployment
//! vehicle: all ten compiler schemes plus both rewriter link modes.
//!
//! The same generated programs, together with every workload module, also
//! pin the compiler's split into a scheme-independent front half and a
//! per-scheme back half: lowering one prepared front half equals a fresh
//! `Compiler::compile`, field for field, however often and in whatever
//! order it is lowered.
//!
//! One carve-out, by design: P-SSP-OWF's unoptimized epilogue re-encrypts
//! the frame with an `rdtsc`-derived nonce, which clobbers `rax` after the
//! return value is set and makes leaked canary bytes cycle-dependent — so
//! its cells compare exit *class* (normal vs detected) rather than exact
//! exit codes, and its generated programs carry no leaks.

use polycanary::compiler::ir::{FunctionBuilder, ModuleBuilder, ModuleDef};
use polycanary::compiler::{CompileError, Compiler, OptLevel};
use polycanary::core::SchemeKind;
use polycanary::crypto::{Prng, SplitMix64};
use polycanary::rewriter::LinkMode;
use polycanary::vm::RunOutcome;
use polycanary::workloads::{build_machine_at, spec_suite, Build, DatabaseModel, ServerModel};

/// Generates a random well-formed module: a `main` calling a handful of
/// leaf workers, each mixing the statement shapes every transform pass
/// keys on.  `allow_leak` gates `LeakFrame` emission (off for OWF cells).
fn gen_module(rng: &mut SplitMix64, allow_leak: bool) -> ModuleDef {
    let nworkers = 1 + rng.next_u64() % 3;
    let mut builder = ModuleBuilder::new();
    let mut main = FunctionBuilder::new("main").scalar("x");
    for w in 0..nworkers {
        for _ in 0..(1 + rng.next_u64() % 3) {
            main = main.call(format!("w{w}"));
        }
    }
    builder = builder.function(main.returns(rng.next_u64() % 4).build());
    for w in 0..nworkers {
        let mut f = FunctionBuilder::new(format!("w{w}"));
        let has_buffer = !rng.next_u64().is_multiple_of(4);
        if has_buffer {
            f = f.buffer("buf", 16 + 8 * (rng.next_u64() % 5) as u32);
        }
        if rng.next_u64().is_multiple_of(3) {
            f = f.critical_buffer("secret", 16);
        }
        for _ in 0..rng.next_u64() % 4 {
            // Includes zero-cycle computes: const-fold fodder.
            f = f.compute(rng.next_u64() % 150);
        }
        if has_buffer {
            if rng.next_u64().is_multiple_of(2) {
                f = f.zero_fill("buf");
            }
            match rng.next_u64() % 3 {
                // An unbounded copy: with a long enough input this
                // overflows and both levels must *detect* it identically.
                0 => f = f.vulnerable_copy("buf"),
                _ => f = f.safe_copy("buf"),
            }
            if allow_leak && rng.next_u64().is_multiple_of(3) {
                f = f.leak("buf", 1 + (rng.next_u64() % 3) as u32);
            }
        }
        f = f.returns(rng.next_u64() % 100).compute(rng.next_u64() % 60);
        builder = builder.function(f.build());
    }
    builder.entry("main").build().expect("generated module is well-formed")
}

/// Builds `module` under `build` at `opt` and runs it, returning the
/// outcome and the process output.
fn run(module: &ModuleDef, build: Build, opt: OptLevel, seed: u64) -> (RunOutcome, Vec<u8>) {
    let mut machine = build_machine_at(module, build, opt, seed);
    let mut process = machine.spawn();
    process.set_input(vec![0x41u8; 20]);
    let outcome = machine.run(&mut process).expect("generated programs have an entry point");
    (outcome, process.take_output())
}

/// Every deployment vehicle the oracle sweeps: all ten compiler schemes
/// plus both rewriter link modes.
fn builds() -> Vec<Build> {
    let mut builds: Vec<Build> = SchemeKind::ALL.into_iter().map(Build::Compiler).collect();
    builds.push(Build::BinaryRewriter(LinkMode::Dynamic));
    builds.push(Build::BinaryRewriter(LinkMode::Static));
    builds
}

#[test]
fn o0_and_o2_builds_agree_on_every_deployment_cell() {
    for build in builds() {
        let owf = matches!(build, Build::Compiler(SchemeKind::PsspOwf));
        for case in 0..6u64 {
            let mut rng = SplitMix64::new(case.wrapping_mul(0x0DD5_EED5).wrapping_add(case));
            let module = gen_module(&mut rng, !owf);
            let seed = rng.next_u64();
            let label = format!("{} case {case}", build.label());
            let (o0, out0) = run(&module, build, OptLevel::O0, seed);
            let (o2, out2) = run(&module, build, OptLevel::O2, seed);
            if owf {
                // Exit class only: the O0 OWF epilogue's re-encryption
                // clobbers the return register after `SetReturn`.
                assert_eq!(o0.exit.is_normal(), o2.exit.is_normal(), "{label}: {o0:?} vs {o2:?}");
            } else {
                assert_eq!(o0.exit, o2.exit, "{label}");
            }
            assert_eq!(out0, out2, "{label}: attacker-visible output diverged");
        }
    }
}

#[test]
fn o1_sits_between_the_endpoints_semantically() {
    // The intermediate level runs a subset of the O2 pipeline; it must obey
    // the same oracle against both endpoints.
    let build = Build::Compiler(SchemeKind::Pssp);
    for case in 0..6u64 {
        let mut rng = SplitMix64::new(0xA11_0CA7 ^ case);
        let module = gen_module(&mut rng, true);
        let seed = rng.next_u64();
        let (o0, out0) = run(&module, build, OptLevel::O0, seed);
        let (o1, out1) = run(&module, build, OptLevel::O1, seed);
        let (o2, out2) = run(&module, build, OptLevel::O2, seed);
        assert_eq!(o0.exit, o1.exit, "case {case}");
        assert_eq!(o1.exit, o2.exit, "case {case}");
        assert_eq!(out0, out1, "case {case}");
        assert_eq!(out1, out2, "case {case}");
    }
}

#[test]
fn optimization_never_costs_cycles() {
    // Beyond equivalence, the point of the pipeline: on every generated
    // program × vehicle, the O2 build runs at most as many cycles as O0.
    for build in builds() {
        let owf = matches!(build, Build::Compiler(SchemeKind::PsspOwf));
        for case in 0..4u64 {
            let mut rng = SplitMix64::new(0xC0DE ^ (case << 8));
            let module = gen_module(&mut rng, !owf);
            let seed = rng.next_u64();
            let (o0, _) = run(&module, build, OptLevel::O0, seed);
            let (o2, _) = run(&module, build, OptLevel::O2, seed);
            assert!(
                o2.cycles <= o0.cycles,
                "{} case {case}: O2 ran {} cycles vs O0's {}",
                build.label(),
                o2.cycles,
                o0.cycles
            );
        }
    }
}

/// Every compiler configuration the split must reproduce on `module`: each
/// scheme, with and without preserved canary shapes, and with the module's
/// last function overridden to the next scheme.
fn compilers(module: &ModuleDef, opt: OptLevel) -> Vec<(String, Compiler)> {
    let last = &module.functions.last().expect("modules are non-empty").name;
    let mut compilers = Vec::new();
    for (i, kind) in SchemeKind::ALL.into_iter().enumerate() {
        let other = SchemeKind::ALL[(i + 1) % SchemeKind::ALL.len()];
        let base = || Compiler::new(kind).with_opt_level(opt);
        compilers.push((format!("{kind}"), base()));
        compilers.push((format!("{kind} preserved"), base().with_preserved_canary_shapes()));
        compilers
            .push((format!("{kind} {last}={other}"), base().with_function_scheme(last, other)));
    }
    compilers
}

#[test]
fn lowering_a_shared_front_half_equals_compile() {
    let spec = spec_suite();
    let mut modules: Vec<ModuleDef> = spec.iter().map(|program| program.module()).collect();
    modules.extend([ServerModel::ApacheLike, ServerModel::NginxLike].map(|server| server.module()));
    modules.extend(
        [DatabaseModel::MySqlLike, DatabaseModel::SqliteLike].map(|database| database.module()),
    );
    assert_eq!(modules.len(), 32, "every workload module");
    for case in 0..6u64 {
        let mut rng = SplitMix64::new(case.wrapping_mul(0x0DD5_EED5).wrapping_add(case));
        modules.push(gen_module(&mut rng, case % 2 == 0));
    }

    for (m, module) in modules.iter().enumerate() {
        for opt in OptLevel::ALL {
            let front = Compiler::new(SchemeKind::Native)
                .with_opt_level(opt)
                .prepare(module)
                .expect("modules are well-formed");
            let compilers = compilers(module, opt);
            let reference: Vec<_> = compilers
                .iter()
                .map(|(_, compiler)| compiler.compile(module).expect("modules compile"))
                .collect();
            // Forward, then backward: no lowering may leave state behind
            // that a later one (of any scheme) would see.
            let order = (0..compilers.len()).chain((0..compilers.len()).rev());
            for i in order {
                let (label, compiler) = &compilers[i];
                let lowered = compiler.lower(&front).expect("modules compile");
                let want = &reference[i];
                let label = format!("module {m} {label} @{opt}");
                assert_eq!(lowered.program, want.program, "{label}: program");
                assert_eq!(lowered.frames, want.frames, "{label}: frames");
                assert_eq!(lowered.analyses, want.analyses, "{label}: analyses");
                assert_eq!(lowered.function_schemes, want.function_schemes, "{label}: schemes");
                assert_eq!(lowered.by_name, want.by_name, "{label}: by_name");
                assert_eq!(lowered, *want, "{label}");
            }

            let other = OptLevel::ALL[(opt as usize + 1) % OptLevel::ALL.len()];
            assert_eq!(
                Compiler::new(SchemeKind::Pssp).with_opt_level(other).lower(&front),
                Err(CompileError::OptLevelMismatch { prepared: opt, compiler: other }),
                "module {m}"
            );
        }
    }
}
