//! Code generation: MiniC module + scheme → executable [`Program`].
//!
//! This is the analogue of the paper's `libP-SSP.so` LLVM plugin (§V-B): for
//! every function the compiler establishes the frame, asks the active
//! [`CanaryScheme`] for its prologue, lowers the body, and asks the scheme
//! for its epilogue before `leaveq; retq`.
//!
//! A compile runs in two halves, and [`Compiler::compile`] is the one
//! followed by the other:
//!
//! * the **front half**, [`Compiler::prepare`], depends only on the module
//!   and the optimization level: validation, the name → [`FuncId`] table,
//!   stage-1 analysis and the stage-2 IR transforms.  It also lowers, once,
//!   every function whose frame needs no protection — layout, body, the
//!   stage-3 passes and the body's address offsets.  Such a function has
//!   no canary, so it compiles to the same code under every scheme.  It
//!   yields a [`Frontend`];
//! * the **back half**, [`Compiler::lower`], runs per scheme: override
//!   resolution, then frame layout, lowering and the stage-3 instruction
//!   passes of the protected functions only, and [`Program::finalize`].
//!   It borrows the [`Frontend`]: every unprotected function's body and
//!   layout, and the name table, are shared with the output by reference
//!   count rather than copied.
//!
//! Names are interned once per module: every function name is the
//! `Arc<str>` of its [`FunctionDef`], and the front half's table, the
//! output's [`CompiledModule::by_name`] and every lowered [`Program`] hold
//! that same `Arc`.  Lowering allocates no name string.
//!
//! A sweep that builds one module under many schemes (`harness verify`)
//! prepares it once per level and lowers that front half for every scheme;
//! the output equals a fresh [`Compiler::compile`] field for field.

use std::borrow::Cow;
use std::sync::Arc;

use polycanary_core::scheme::{CanaryScheme, SchemeKind};
use polycanary_vm::inst::{FuncId, Inst};
use polycanary_vm::machine::Machine;
use polycanary_vm::program::{FunctionBody, Program};
use polycanary_vm::reg::Reg;

use crate::error::CompileError;
use crate::frame::{layout_frame, FrameLayout};
use crate::ir::{FunctionDef, FunctionIds, ModuleDef, Stmt, WriteSource};
use crate::pass::{FunctionAnalysis, LoweredBody, OptLevel, PassCtx, PassManager};

/// The result of compiling a MiniC module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledModule {
    /// The executable program.
    pub program: Program,
    /// The scheme the module was compiled with (per-function overrides, if
    /// any, are recorded in [`CompiledModule::function_schemes`]).
    pub scheme: SchemeKind,
    /// The optimization level the module was compiled at.
    pub opt_level: OptLevel,
    /// Frame layout of every function, indexed like the program's functions.
    pub frames: Vec<FrameLayout>,
    /// The scheme actually applied to each function.
    pub function_schemes: Vec<SchemeKind>,
    /// The pipeline's per-function analysis results (protection decision,
    /// post-optimization cost estimate), indexed like the functions.
    pub analyses: Vec<FunctionAnalysis>,
    /// Name → function id map, shared by every build lowered from the same
    /// [`Frontend`].
    pub by_name: Arc<FunctionIds>,
}

impl CompiledModule {
    /// Frame layout of a function by name.
    pub fn frame(&self, name: &str) -> Option<&FrameLayout> {
        self.by_name.get(name).map(|id| &self.frames[id.0])
    }

    /// Pass analysis of a function by name.
    pub fn analysis(&self, name: &str) -> Option<&FunctionAnalysis> {
        self.by_name.get(name).map(|id| &self.analyses[id.0])
    }

    /// Total encoded code size in bytes (the `.text` section).
    pub fn code_size(&self) -> u64 {
        self.program.text_size()
    }

    /// Builds a [`Machine`] running this module under the runtime hooks of
    /// the scheme it was compiled with.
    pub fn into_machine(self, seed: u64) -> Machine {
        let hooks = self.scheme.scheme().runtime_hooks(seed ^ 0xB007_0000_0000_0001);
        Machine::new(self.program, hooks, seed)
    }
}

/// The scheme-independent front half of a compile (see the module docs):
/// a validated module's name table, every function's stage-1 analysis and
/// stage-2 IR, and the finished lowering of every unprotected function, at
/// one optimization level.  Built by
/// [`Compiler::prepare`]; lowered by [`Compiler::lower`] as often as
/// needed, under any scheme at the same level.
///
/// ```
/// use polycanary_compiler::{Compiler, FunctionBuilder, ModuleBuilder, OptLevel};
/// use polycanary_core::scheme::SchemeKind;
///
/// let module = ModuleBuilder::new()
///     .function(FunctionBuilder::new("f").buffer("buf", 16).safe_copy("buf").returns(0).build())
///     .build()?;
/// let front = Compiler::new(SchemeKind::Ssp).with_opt_level(OptLevel::O2).prepare(&module)?;
/// for kind in [SchemeKind::Ssp, SchemeKind::Pssp, SchemeKind::PsspOwf] {
///     let compiler = Compiler::new(kind).with_opt_level(OptLevel::O2);
///     assert_eq!(compiler.lower(&front)?, compiler.compile(&module)?);
/// }
/// # Ok::<(), polycanary_compiler::CompileError>(())
/// ```
#[derive(Debug)]
pub struct Frontend<'m> {
    opt_level: OptLevel,
    /// Stage-2 IR of every function, borrowed from the module when no pass
    /// of the pipeline rewrites IR.
    functions: Vec<Cow<'m, FunctionDef>>,
    /// Analysis of every function: complete for unprotected functions,
    /// stage 1 only for protected ones, which the back half completes.
    analyses: Vec<FunctionAnalysis>,
    /// The finished lowering of every unprotected function, shared by every
    /// scheme; `None` for a protected function, which every scheme lowers
    /// on its own.
    unprotected: Vec<Option<Lowered>>,
    by_name: Arc<FunctionIds>,
    entry: FuncId,
}

/// One function's frame layout and finished body.  A clone shares both.
#[derive(Debug, Clone)]
struct Lowered {
    layout: FrameLayout,
    body: FunctionBody,
}

impl Frontend<'_> {
    /// The optimization level the front half was prepared at.
    pub fn opt_level(&self) -> OptLevel {
        self.opt_level
    }
}

/// The MiniC compiler, parameterised by a canary scheme.
pub struct Compiler {
    scheme_kind: SchemeKind,
    scheme: Box<dyn CanaryScheme>,
    opt_level: OptLevel,
    preserve_canary_shapes: bool,
    passes: PassManager,
    /// Per-function scheme overrides, in the order they were added.
    overrides: Vec<(String, SchemeKind)>,
}

impl std::fmt::Debug for Compiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Compiler")
            .field("scheme", &self.scheme_kind)
            .field("opt_level", &self.opt_level)
            .field("overrides", &self.overrides)
            .finish()
    }
}

impl Compiler {
    /// Creates a compiler that protects every function with `kind`, at the
    /// default [`OptLevel::O0`] (the historical unoptimized pipeline).
    pub fn new(kind: SchemeKind) -> Self {
        Compiler {
            scheme_kind: kind,
            scheme: kind.scheme(),
            opt_level: OptLevel::O0,
            preserve_canary_shapes: false,
            passes: PassManager::standard(OptLevel::O0),
            overrides: Vec::new(),
        }
    }

    /// Selects the optimization level (rebuilds the standard pipeline).
    #[must_use]
    pub fn with_opt_level(mut self, opt: OptLevel) -> Self {
        self.opt_level = opt;
        self.passes = PassManager::standard(opt);
        self
    }

    /// Forbids the instruction-level passes from reshaping canary prologue
    /// and epilogue sequences.  Builds destined for the binary rewriter need
    /// this: the rewriter pattern-matches the canonical SSP shapes.
    #[must_use]
    pub fn with_preserved_canary_shapes(mut self) -> Self {
        self.preserve_canary_shapes = true;
        self
    }

    /// The optimization level this compiler runs at.
    pub fn opt_level(&self) -> OptLevel {
        self.opt_level
    }

    /// Names of the passes in this compiler's pipeline, in order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.pass_names()
    }

    /// Overrides the scheme for a single function — used by the
    /// compatibility experiments of §VI-C, where P-SSP code and SSP code are
    /// mixed in the same binary (e.g. application vs glibc).  A later
    /// override of the same function wins; an override naming a function
    /// the module lacks fails the build with
    /// [`CompileError::UnknownOverride`].
    #[must_use]
    pub fn with_function_scheme(mut self, function: impl AsRef<str>, kind: SchemeKind) -> Self {
        self.overrides.push((function.as_ref().to_string(), kind));
        self
    }

    /// The scheme this compiler applies by default.
    pub fn scheme_kind(&self) -> SchemeKind {
        self.scheme_kind
    }

    /// Compiles `module` into an executable program: the front half
    /// ([`Compiler::prepare`]) followed by the back half
    /// ([`Compiler::lower`]).
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] if the module fails validation, an
    /// override names an unknown function or a frame cannot be laid out.
    pub fn compile(&self, module: &ModuleDef) -> Result<CompiledModule, CompileError> {
        let mut scratch = Vec::new();
        let mut front = self.prepare_with(module, &mut scratch)?;
        // Nothing lowers this front half again, so the back half completes
        // its analyses in place and takes its lowerings instead of copies.
        let analyses = std::mem::take(&mut front.analyses);
        let unprotected = std::mem::take(&mut front.unprotected);
        self.back_half(&front, analyses, unprotected, &mut scratch)
    }

    /// The front half of [`Compiler::compile`]: validates `module`, resolves
    /// its function names (ids follow declaration order), then runs stage 1
    /// (analysis) and stage 2 (IR transforms) of this compiler's pipeline
    /// over every function.  Every function the analysis leaves unprotected
    /// is also laid out, lowered and run through stage 3 here: with no
    /// canary, its code is the same under every scheme.
    ///
    /// # Errors
    ///
    /// Returns the module's first validation error or a frame layout error.
    pub fn prepare<'m>(&self, module: &'m ModuleDef) -> Result<Frontend<'m>, CompileError> {
        self.prepare_with(module, &mut Vec::new())
    }

    /// [`Compiler::prepare`], lowering into the instruction buffer
    /// `scratch` (see [`Compiler::lower_one`]).
    fn prepare_with<'m>(
        &self,
        module: &'m ModuleDef,
        scratch: &mut Vec<Inst>,
    ) -> Result<Frontend<'m>, CompileError> {
        let (by_name, entry) = module.resolve()?;
        let mut functions = Vec::with_capacity(module.functions.len());
        let mut analyses = Vec::with_capacity(module.functions.len());
        let mut unprotected = Vec::with_capacity(module.functions.len());
        for func in &module.functions {
            let mut analysis = self.passes.run(func);
            // Stage 2 works on a copy only when the pipeline rewrites IR.
            let func = self.passes.optimize_ir(func);
            unprotected.push(if analysis.needs_protection {
                None
            } else {
                let scheme = self.scheme.as_ref();
                Some(self.lower_one(&func, scheme, &by_name, &mut analysis, scratch)?)
            });
            functions.push(func);
            analyses.push(analysis);
        }
        Ok(Frontend {
            opt_level: self.opt_level,
            functions,
            analyses,
            unprotected,
            by_name: Arc::new(by_name),
            entry,
        })
    }

    /// The back half of [`Compiler::compile`]: lowers a prepared module
    /// under this compiler's schemes.  `front` is only borrowed, so one
    /// front half serves any number of schemes; each result equals
    /// [`Compiler::compile`] of the module.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::OptLevelMismatch`] if `front` was prepared at
    /// another optimization level, [`CompileError::UnknownOverride`] if a
    /// per-function override names a function the module lacks, or a frame
    /// layout error.
    pub fn lower(&self, front: &Frontend<'_>) -> Result<CompiledModule, CompileError> {
        let unprotected = front.unprotected.iter().cloned();
        self.back_half(front, front.analyses.clone(), unprotected, &mut Vec::new())
    }

    /// Lowers `front`: places each of the `unprotected` lowerings, and
    /// lowers every protected function, completing its entry of `analyses`
    /// with the stage-3 passes, in the instruction buffer `scratch`.
    fn back_half(
        &self,
        front: &Frontend<'_>,
        mut analyses: Vec<FunctionAnalysis>,
        unprotected: impl IntoIterator<Item = Option<Lowered>>,
        scratch: &mut Vec<Inst>,
    ) -> Result<CompiledModule, CompileError> {
        if front.opt_level != self.opt_level {
            return Err(CompileError::OptLevelMismatch {
                prepared: front.opt_level,
                compiler: self.opt_level,
            });
        }
        let mut function_schemes = vec![self.scheme_kind; front.functions.len()];
        for (name, kind) in &self.overrides {
            let id = front
                .by_name
                .get(name.as_str())
                .ok_or_else(|| CompileError::UnknownOverride { function: name.clone() })?;
            function_schemes[id.0] = *kind;
        }

        let mut program = Program::with_capacity(front.functions.len());
        let mut frames = Vec::with_capacity(front.functions.len());
        for (((func, analysis), &kind), unprotected) in
            front.functions.iter().zip(&mut analyses).zip(&function_schemes).zip(unprotected)
        {
            let Lowered { layout, body } = match unprotected {
                Some(lowered) => lowered,
                None => {
                    let scheme: Box<dyn CanaryScheme>;
                    let scheme_ref: &dyn CanaryScheme = if kind == self.scheme_kind {
                        self.scheme.as_ref()
                    } else {
                        scheme = kind.scheme();
                        scheme.as_ref()
                    };
                    self.lower_one(func, scheme_ref, &front.by_name, analysis, scratch)?
                }
            };
            program
                .add_function_body(Arc::clone(&func.name), body)
                .map_err(|_| CompileError::DuplicateFunction { name: func.name.to_string() })?;
            frames.push(layout);
        }

        program.set_entry(front.entry);
        program.finalize();

        Ok(CompiledModule {
            program,
            scheme: self.scheme_kind,
            opt_level: self.opt_level,
            frames,
            function_schemes,
            analyses,
            by_name: Arc::clone(&front.by_name),
        })
    }

    /// Lays out, lowers and runs stage 3 over one function under `scheme`,
    /// completing its `analysis`.  `scratch` is the instruction buffer the
    /// passes edit; it is handed back for the next function, so the
    /// finished body is the only allocation for the instructions.
    fn lower_one(
        &self,
        func: &FunctionDef,
        scheme: &dyn CanaryScheme,
        ids: &FunctionIds,
        analysis: &mut FunctionAnalysis,
        scratch: &mut Vec<Inst>,
    ) -> Result<Lowered, CompileError> {
        let layout = layout_frame(func, scheme)?;
        debug_assert_eq!(analysis.needs_protection, layout.info.protected);

        // Stage 3: lower, then instruction transforms (scheduling,
        // canary-load elimination, cost estimation).
        let mut lowered = lower_function(func, &layout, scheme, ids, std::mem::take(scratch))?;
        let pass_ctx = PassCtx {
            scheme: scheme.kind(),
            layout: &layout,
            preserve_canary_shapes: self.preserve_canary_shapes,
        };
        self.passes.transform_insts(&mut lowered, &pass_ctx, analysis);
        let body = FunctionBody::new(&lowered.insts);
        *scratch = lowered.insts;
        Ok(Lowered { layout, body })
    }
}

/// The least room the lowering buffer is given: enough that it seldom
/// grows from one function to the next.
const SCRATCH_CAPACITY: usize = 64;

/// Lowers one function to VM instructions into `insts` (cleared first),
/// recording where the scheme prologue and epilogue landed so
/// instruction-level passes can reason about them.
pub(crate) fn lower_function(
    func: &FunctionDef,
    layout: &FrameLayout,
    scheme: &dyn CanaryScheme,
    ids: &FunctionIds,
    mut insts: Vec<Inst>,
) -> Result<LoweredBody, CompileError> {
    // Room for the frame, a canary prologue and epilogue and one
    // instruction per statement: most bodies never grow the vector.
    insts.clear();
    insts.reserve(SCRATCH_CAPACITY.max(24 + func.body.len()));

    // Frame establishment (Code 1, lines 1–3).
    insts.push(Inst::PushReg(Reg::Rbp));
    insts.push(Inst::MovRegReg { dst: Reg::Rbp, src: Reg::Rsp });
    if layout.info.frame_size > 0 {
        insts.push(Inst::SubRspImm(layout.info.frame_size));
    }

    // Scheme prologue.
    let prologue_start = insts.len();
    scheme.emit_prologue_into(&layout.info, &mut insts);
    let prologue = prologue_start..insts.len();

    // Body.
    for stmt in &func.body {
        match stmt {
            Stmt::Compute { cycles } => insts.push(Inst::Compute(*cycles)),
            Stmt::InitBuffer { local } => {
                // Zero-fill as a run of 4-byte `movl $0` stores over the
                // buffer's (word-rounded) slot — canary slots are never in
                // range by construction.
                let base = layout.local_offset(*local);
                let rounded = func.locals[*local].kind.size().div_ceil(8) * 8;
                for delta in (0..rounded).step_by(4) {
                    insts.push(Inst::MovImmToFrame { offset: base + delta as i32, imm: 0 });
                }
            }
            Stmt::WriteBuffer { local, source } => {
                let offset = layout.local_offset(*local);
                match source {
                    WriteSource::InputUnbounded => {
                        insts.push(Inst::CopyInputToFrame { offset });
                    }
                    WriteSource::InputBounded => {
                        let max_len = func.locals[*local].kind.size();
                        insts.push(Inst::CopyInputToFrameBounded { offset, max_len });
                    }
                }
            }
            Stmt::Call { callee } => {
                let id = ids.get(callee).copied().ok_or_else(|| CompileError::UnknownCallee {
                    function: func.name.to_string(),
                    callee: callee.to_string(),
                })?;
                insts.push(Inst::CallFn(id));
            }
            Stmt::SetReturn { value } => {
                insts.push(Inst::MovImmToReg { dst: Reg::Rax, imm: *value });
            }
            Stmt::LeakFrame { local, words } => {
                let base = layout.local_offset(*local);
                for w in 0..*words {
                    insts.push(Inst::MovFrameToReg { dst: Reg::Rax, offset: base + 8 * w as i32 });
                    insts.push(Inst::OutputReg(Reg::Rax));
                }
            }
        }
    }

    // Scheme epilogue followed by frame teardown (Code 2, lines 6–8).
    let epilogue_start = insts.len();
    scheme.emit_epilogue_into(&layout.info, &mut insts);
    let epilogue = epilogue_start..insts.len();
    insts.push(Inst::Leave);
    insts.push(Inst::Ret);
    Ok(LoweredBody { insts, prologue, epilogue })
}

/// Code-expansion report for Table II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodeExpansion {
    /// Size of the module compiled without protection.
    pub native_bytes: u64,
    /// Size of the module compiled with the scheme under test.
    pub scheme_bytes: u64,
}

impl CodeExpansion {
    /// Expansion as a fraction (0.0027 ≙ 0.27 %).
    pub fn ratio(&self) -> f64 {
        if self.native_bytes == 0 {
            0.0
        } else {
            (self.scheme_bytes as f64 - self.native_bytes as f64) / self.native_bytes as f64
        }
    }

    /// Expansion in percent.
    pub fn percent(&self) -> f64 {
        self.ratio() * 100.0
    }
}

/// Measures the code expansion of compiling `module` with `kind` relative to
/// the unprotected build (Table II's "Compilation" column).
///
/// # Errors
///
/// Propagates compilation errors from either build.
pub fn code_expansion(module: &ModuleDef, kind: SchemeKind) -> Result<CodeExpansion, CompileError> {
    let native = Compiler::new(SchemeKind::Native).compile(module)?.code_size();
    let scheme = Compiler::new(kind).compile(module)?.code_size();
    Ok(CodeExpansion { native_bytes: native, scheme_bytes: scheme })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{FunctionBuilder, ModuleBuilder};
    use polycanary_vm::cpu::Exit;
    use polycanary_vm::machine::Machine;

    fn victim_module() -> ModuleDef {
        ModuleBuilder::new()
            .function(
                FunctionBuilder::new("handle_request")
                    .buffer("buf", 64)
                    .vulnerable_copy("buf")
                    .compute(200)
                    .returns(0)
                    .build(),
            )
            .function(
                FunctionBuilder::new("main")
                    .scalar("status")
                    .call("handle_request")
                    .returns(0)
                    .build(),
            )
            .entry("main")
            .build()
            .unwrap()
    }

    fn run_with_input(kind: SchemeKind, input: Vec<u8>) -> Exit {
        let compiled = Compiler::new(kind).compile(&victim_module()).unwrap();
        let mut machine = compiled.into_machine(0xFEED);
        let mut process = machine.spawn();
        process.set_input(input);
        machine.run(&mut process).unwrap().exit
    }

    #[test]
    fn benign_input_runs_normally_under_every_scheme() {
        for kind in SchemeKind::ALL {
            let exit = run_with_input(kind, vec![0x41; 16]);
            assert!(exit.is_normal(), "{kind}: {exit:?}");
        }
    }

    #[test]
    fn overflow_is_detected_by_every_protected_scheme() {
        // 64-byte buffer + enough to clobber every canary layout and the
        // saved frame pointer and return address.
        let overflow = vec![0x41u8; 64 + 48];
        for kind in SchemeKind::ALL {
            let exit = run_with_input(kind, overflow.clone());
            if kind == SchemeKind::Native {
                assert!(!exit.is_detection(), "native has no canary to fire");
            } else {
                assert!(exit.is_detection(), "{kind} must detect the smash: {exit:?}");
            }
        }
    }

    #[test]
    fn compiled_frames_are_recorded_per_function() {
        let compiled = Compiler::new(SchemeKind::Pssp).compile(&victim_module()).unwrap();
        let frame = compiled.frame("handle_request").unwrap();
        assert!(frame.info.protected);
        assert_eq!(frame.canary_words, 2);
        let main_frame = compiled.frame("main").unwrap();
        assert!(!main_frame.info.protected);
        assert!(compiled.frame("missing").is_none());
    }

    #[test]
    fn function_scheme_overrides_apply() {
        let compiled = Compiler::new(SchemeKind::Pssp)
            .with_function_scheme("handle_request", SchemeKind::Ssp)
            .compile(&victim_module())
            .unwrap();
        assert_eq!(compiled.function_schemes[0], SchemeKind::Ssp);
        assert_eq!(compiled.function_schemes[1], SchemeKind::Pssp);
        // The overridden function has the SSP frame (one canary word).
        assert_eq!(compiled.frame("handle_request").unwrap().canary_words, 1);
    }

    #[test]
    fn unknown_function_override_is_a_typed_error() {
        // A typo in a mixed-scheme experiment must not silently build the
        // default-scheme binary.
        let err = Compiler::new(SchemeKind::Pssp)
            .with_function_scheme("handle_request", SchemeKind::Ssp)
            .with_function_scheme("no_such_fn", SchemeKind::Ssp)
            .compile(&victim_module())
            .unwrap_err();
        assert_eq!(err, CompileError::UnknownOverride { function: "no_such_fn".into() });
        assert!(err.to_string().contains("no_such_fn"));
    }

    #[test]
    fn later_override_of_the_same_function_wins() {
        let compiled = Compiler::new(SchemeKind::Pssp)
            .with_function_scheme("handle_request", SchemeKind::Ssp)
            .with_function_scheme("handle_request", SchemeKind::PsspNt)
            .compile(&victim_module())
            .unwrap();
        assert_eq!(compiled.function_schemes, vec![SchemeKind::PsspNt, SchemeKind::Pssp]);
    }

    #[test]
    fn one_front_half_lowers_like_compile_under_every_scheme() {
        let module = victim_module();
        for opt in OptLevel::ALL {
            let front =
                Compiler::new(SchemeKind::Native).with_opt_level(opt).prepare(&module).unwrap();
            assert_eq!(front.opt_level(), opt);
            for kind in SchemeKind::ALL {
                let compiler = Compiler::new(kind).with_opt_level(opt);
                let lowered = compiler.lower(&front).unwrap();
                assert_eq!(lowered, compiler.compile(&module).unwrap(), "{kind}@{opt}");
                assert!(Arc::ptr_eq(&lowered.by_name, &front.by_name), "the table is shared");
            }
        }
    }

    #[test]
    fn lowering_at_another_opt_level_is_a_typed_error() {
        let module = victim_module();
        let front = Compiler::new(SchemeKind::Ssp).prepare(&module).unwrap();
        let err =
            Compiler::new(SchemeKind::Ssp).with_opt_level(OptLevel::O2).lower(&front).unwrap_err();
        assert_eq!(
            err,
            CompileError::OptLevelMismatch { prepared: OptLevel::O0, compiler: OptLevel::O2 }
        );
        assert!(err.to_string().contains("O0") && err.to_string().contains("O2"));
    }

    #[test]
    fn mixed_ssp_and_pssp_module_runs_without_false_positives() {
        // §VI-C compatibility: SSP functions and P-SSP functions coexist in
        // one control flow under the P-SSP runtime.
        let compiled = Compiler::new(SchemeKind::Pssp)
            .with_function_scheme("handle_request", SchemeKind::Ssp)
            .compile(&victim_module())
            .unwrap();
        let hooks = SchemeKind::Pssp.scheme().runtime_hooks(1);
        let mut machine = Machine::new(compiled.program, hooks, 7);
        let mut process = machine.spawn();
        process.set_input(vec![1, 2, 3]);
        let outcome = machine.run(&mut process).unwrap();
        assert!(outcome.exit.is_normal(), "{:?}", outcome.exit);
    }

    #[test]
    fn code_expansion_is_positive_for_pssp() {
        let expansion = code_expansion(&victim_module(), SchemeKind::Pssp).unwrap();
        assert!(expansion.scheme_bytes > expansion.native_bytes);
        assert!(expansion.percent() > 0.0);
    }

    #[test]
    fn code_expansion_is_small_for_realistic_function_bodies() {
        // Table II reports 0.27 % expansion on SPEC-sized programs: the
        // canary handling is a fixed few dozen bytes per function, so the
        // ratio shrinks as function bodies grow.  Model a program whose
        // functions carry realistic amounts of body code.
        let mut builder = ModuleBuilder::new();
        for i in 0..8 {
            let mut f =
                FunctionBuilder::new(format!("work_{i}")).buffer("buf", 64).safe_copy("buf");
            for _ in 0..200 {
                f = f.compute(50);
            }
            builder = builder.function(f.returns(0).build());
        }
        let module = builder.build().unwrap();
        let expansion = code_expansion(&module, SchemeKind::Pssp).unwrap();
        assert!(expansion.percent() > 0.0);
        assert!(
            expansion.percent() < 2.0,
            "expansion on body-heavy programs should be small, got {:.2}%",
            expansion.percent()
        );
    }

    #[test]
    fn pssp_costs_more_bytes_than_ssp_which_costs_more_than_native() {
        let module = victim_module();
        let native = Compiler::new(SchemeKind::Native).compile(&module).unwrap().code_size();
        let ssp = Compiler::new(SchemeKind::Ssp).compile(&module).unwrap().code_size();
        let pssp = Compiler::new(SchemeKind::Pssp).compile(&module).unwrap().code_size();
        assert!(native < ssp);
        assert!(ssp < pssp);
    }

    #[test]
    fn unknown_callee_is_rejected_at_compile_time() {
        let module = ModuleDef {
            functions: vec![FunctionBuilder::new("main").call("ghost").build()],
            entry: "main".into(),
        };
        let err = Compiler::new(SchemeKind::Ssp).compile(&module).unwrap_err();
        assert!(matches!(err, CompileError::UnknownCallee { .. }));
    }

    #[test]
    fn leak_statement_discloses_stack_words() {
        let module = ModuleBuilder::new()
            .function(
                FunctionBuilder::new("leaky")
                    .buffer("buf", 16)
                    .safe_copy("buf")
                    .leak("buf", 4)
                    .returns(0)
                    .build(),
            )
            .build()
            .unwrap();
        let compiled = Compiler::new(SchemeKind::Ssp).compile(&module).unwrap();
        let mut machine = compiled.into_machine(3);
        let mut process = machine.spawn();
        process.set_input(b"AAAABBBBCCCCDDDD".to_vec());
        let outcome = machine.run(&mut process).unwrap();
        assert!(outcome.exit.is_normal());
        let output = process.take_output();
        // 4 words = 32 bytes: the 16 buffer bytes plus 16 bytes beyond them
        // (which, under SSP, include the canary).
        assert_eq!(output.len(), 32);
        assert_eq!(&output[..16], b"AAAABBBBCCCCDDDD");
    }

    fn leaf_insts(kind: SchemeKind, opt: OptLevel) -> Vec<Inst> {
        let compiled = Compiler::new(kind).with_opt_level(opt).compile(&victim_module()).unwrap();
        let id = compiled.by_name["handle_request"];
        compiled.program.function(id).unwrap().insts().to_vec()
    }

    #[test]
    fn o2_strength_reduces_the_ssp_epilogue_to_a_register_compare() {
        let o0 = leaf_insts(SchemeKind::Ssp, OptLevel::O0);
        let o2 = leaf_insts(SchemeKind::Ssp, OptLevel::O2);
        // The O0 epilogue re-loads the slot and XORs the TLS word.
        assert!(o0.iter().any(|i| matches!(i, Inst::XorTlsReg { .. })));
        // At O2 the leaf keeps the canary in a register: the TLS re-load and
        // the frame re-load disappear in favour of a direct compare.
        assert!(!o2.iter().any(|i| matches!(i, Inst::XorTlsReg { .. })));
        assert!(o2.iter().any(|i| matches!(i, Inst::CmpFrameReg { offset: -8, .. })));
        // The prologue's TLS load survives (renamed, not duplicated).
        assert_eq!(o2.iter().filter(|i| matches!(i, Inst::MovTlsToReg { .. })).count(), 1);
    }

    #[test]
    fn o2_lowers_the_estimated_cost_for_every_compiler_scheme() {
        for kind in SchemeKind::ALL {
            if kind == SchemeKind::Native || kind == SchemeKind::PsspBin32 {
                continue; // nothing to reduce / deliberately shape-locked
            }
            let module = victim_module();
            let o0 = Compiler::new(kind).compile(&module).unwrap();
            let o2 = Compiler::new(kind).with_opt_level(OptLevel::O2).compile(&module).unwrap();
            let c0 = o0.analysis("handle_request").unwrap().estimated_body_cycles;
            let c2 = o2.analysis("handle_request").unwrap().estimated_body_cycles;
            assert!(c2 < c0, "{kind}: O2 estimate {c2} must beat O0 estimate {c0}");
        }
    }

    #[test]
    fn preserved_canary_shapes_disable_sequence_rewrites() {
        let compiled = Compiler::new(SchemeKind::Ssp)
            .with_opt_level(OptLevel::O2)
            .with_preserved_canary_shapes()
            .compile(&victim_module())
            .unwrap();
        let id = compiled.by_name["handle_request"];
        let insts = compiled.program.function(id).unwrap().insts();
        assert!(insts.iter().any(|i| matches!(i, Inst::XorTlsReg { .. })));
    }

    #[test]
    fn canary_schedule_sinks_the_store_and_hoists_the_check() {
        let module = ModuleBuilder::new()
            .function(
                FunctionBuilder::new("worker")
                    .buffer("buf", 32)
                    .compute(100)
                    .safe_copy("buf")
                    .returns(0)
                    .compute(50)
                    .build(),
            )
            .build()
            .unwrap();
        let compiled =
            Compiler::new(SchemeKind::Ssp).with_opt_level(OptLevel::O1).compile(&module).unwrap();
        let id = compiled.by_name["worker"];
        let insts = compiled.program.function(id).unwrap().insts();
        let setup_compute = insts.iter().position(|i| matches!(i, Inst::Compute(100))).unwrap();
        let store = insts.iter().position(|i| matches!(i, Inst::MovRegToFrame { .. })).unwrap();
        let check = insts.iter().position(|i| matches!(i, Inst::XorTlsReg { .. })).unwrap();
        let tail_compute = insts.iter().position(|i| matches!(i, Inst::Compute(50))).unwrap();
        assert!(setup_compute < store, "setup computation runs before the canary store");
        assert!(check < tail_compute, "the check is hoisted above trailing computation");
        // The moved computation still cannot touch the protected window: the
        // input copy remains strictly between store and check.
        let copy =
            insts.iter().position(|i| matches!(i, Inst::CopyInputToFrameBounded { .. })).unwrap();
        assert!(store < copy && copy < check);
    }

    #[test]
    fn dead_zero_fills_are_eliminated_only_when_unobservable() {
        let module = |leaky: bool| {
            let mut f = FunctionBuilder::new("f").buffer("buf", 16).zero_fill("buf");
            if leaky {
                f = f.leak("buf", 2);
            }
            ModuleBuilder::new().function(f.returns(0).build()).build().unwrap()
        };
        let count_zero_stores = |module: &ModuleDef, opt: OptLevel| {
            let compiled =
                Compiler::new(SchemeKind::Ssp).with_opt_level(opt).compile(module).unwrap();
            let id = compiled.by_name["f"];
            compiled
                .program
                .function(id)
                .unwrap()
                .insts()
                .iter()
                .filter(|i| matches!(i, Inst::MovImmToFrame { imm: 0, .. }))
                .count()
        };
        assert_eq!(count_zero_stores(&module(false), OptLevel::O0), 4);
        assert_eq!(count_zero_stores(&module(false), OptLevel::O2), 0);
        assert_eq!(count_zero_stores(&module(true), OptLevel::O2), 4, "leaky fills observable");
    }

    #[test]
    fn optimized_builds_preserve_detection_under_every_scheme() {
        let overflow = vec![0x41u8; 64 + 48];
        for kind in SchemeKind::ALL {
            for opt in OptLevel::ALL {
                let compiled =
                    Compiler::new(kind).with_opt_level(opt).compile(&victim_module()).unwrap();
                let mut machine = compiled.into_machine(0xFEED);
                let mut process = machine.spawn();
                process.set_input(overflow.clone());
                let exit = machine.run(&mut process).unwrap().exit;
                if kind == SchemeKind::Native {
                    assert!(!exit.is_detection());
                } else {
                    assert!(exit.is_detection(), "{kind}@{opt} must detect: {exit:?}");
                }
                let mut machine2 = Compiler::new(kind)
                    .with_opt_level(opt)
                    .compile(&victim_module())
                    .unwrap()
                    .into_machine(0xFEED);
                let mut benign = machine2.spawn();
                benign.set_input(vec![0x41; 16]);
                let exit = machine2.run(&mut benign).unwrap().exit;
                assert!(exit.is_normal(), "{kind}@{opt} benign: {exit:?}");
            }
        }
    }

    #[test]
    fn cost_estimate_matches_vm_cycles_on_straight_line_functions() {
        let module = ModuleBuilder::new()
            .function(FunctionBuilder::new("f").buffer("buf", 32).compute(100).returns(7).build())
            .build()
            .unwrap();
        for kind in [SchemeKind::Ssp, SchemeKind::Pssp] {
            for opt in [OptLevel::O0, OptLevel::O2] {
                let compiled = Compiler::new(kind).with_opt_level(opt).compile(&module).unwrap();
                let estimate = compiled.analysis("f").unwrap().estimated_body_cycles;
                let mut machine = compiled.into_machine(11);
                let mut process = machine.spawn();
                let outcome = machine.run(&mut process).unwrap();
                assert!(outcome.exit.is_normal());
                assert_eq!(
                    estimate, outcome.cycles,
                    "{kind}@{opt}: estimate must match the VM's benign run"
                );
            }
        }
    }

    #[test]
    fn o2_pipeline_is_idempotent_on_prng_programs() {
        use crate::frame::layout_frame;
        use crate::pass::PassManager;
        use polycanary_crypto::{Prng, SplitMix64};

        for seed in 0..16u64 {
            let mut rng = SplitMix64::new(seed);
            let mut f = FunctionBuilder::new("f");
            let critical = rng.next_u64().is_multiple_of(2);
            f = if critical { f.critical_buffer("buf", 32) } else { f.buffer("buf", 32) };
            for _ in 0..rng.next_u64() % 3 {
                f = f.compute(rng.next_u64() % 200);
            }
            if rng.next_u64().is_multiple_of(2) {
                f = f.zero_fill("buf");
            }
            if rng.next_u64().is_multiple_of(2) {
                f = f.safe_copy("buf");
            }
            if rng.next_u64().is_multiple_of(3) {
                f = f.leak("buf", 2);
            }
            f = f.returns(rng.next_u64() % 100).compute(rng.next_u64() % 50);
            let func = f.build();

            let pm = PassManager::standard(OptLevel::O2);
            let mut ir_once = func.clone();
            pm.transform_ir(&mut ir_once);
            let mut ir_twice = ir_once.clone();
            pm.transform_ir(&mut ir_twice);
            assert_eq!(ir_once, ir_twice, "transform_ir must be idempotent (seed {seed})");

            for kind in SchemeKind::ALL {
                let scheme = kind.scheme();
                let layout = layout_frame(&ir_once, scheme.as_ref()).unwrap();
                let ids = FunctionIds::from_iter([(Arc::clone(&ir_once.name), FuncId(0))]);
                let mut body =
                    lower_function(&ir_once, &layout, scheme.as_ref(), &ids, Vec::new()).unwrap();
                let mut analysis = pm.run(&ir_once);
                let ctx = PassCtx { scheme: kind, layout: &layout, preserve_canary_shapes: false };
                pm.transform_insts(&mut body, &ctx, &mut analysis);
                let once = body.clone();
                pm.transform_insts(&mut body, &ctx, &mut analysis);
                assert_eq!(body, once, "{kind} seed {seed}: O2 twice must equal O2 once");
            }
        }
    }

    #[test]
    fn lv_detects_overflow_that_stops_short_of_the_return_canary() {
        // A scratch buffer sits between the critical buffer and the canary
        // region: an overflow out of the critical buffer that corrupts only
        // its guard canary (and part of the scratch buffer) is caught by
        // P-SSP-LV but missed by plain P-SSP, whose canaries are untouched.
        let module = ModuleBuilder::new()
            .function(
                FunctionBuilder::new("process_record")
                    .buffer("scratch", 32)
                    .critical_buffer("record", 32)
                    .vulnerable_copy("record")
                    .returns(0)
                    .build(),
            )
            .build()
            .unwrap();
        // Overflow by 8 bytes past `record`: under P-SSP-LV this clobbers the
        // guard canary directly above it; under plain P-SSP it merely dents
        // the scratch buffer, far below the split canary pair.
        let payload = vec![0x42u8; 32 + 8];

        let lv = Compiler::new(SchemeKind::PsspLv).compile(&module).unwrap();
        let mut machine = lv.into_machine(5);
        let mut process = machine.spawn();
        process.set_input(payload.clone());
        assert!(machine.run(&mut process).unwrap().exit.is_detection());

        let pssp = Compiler::new(SchemeKind::Pssp).compile(&module).unwrap();
        let mut machine = pssp.into_machine(5);
        let mut process = machine.spawn();
        process.set_input(payload);
        let exit = machine.run(&mut process).unwrap().exit;
        assert!(exit.is_normal(), "plain P-SSP misses a local-variable-only overflow: {exit:?}");
    }
}
