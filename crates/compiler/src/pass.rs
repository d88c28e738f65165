//! The pass framework mirroring the paper's LLVM deployment (§V-B).
//!
//! The real P-SSP plugin is a `FunctionPass` registered with LLVM's pass
//! manager whose `runOnFunction` decides, per function, whether a canary is
//! needed and which locals deserve extra protection.  The MiniC compiler
//! keeps the same structure — a [`PassManager`] runs a pipeline of
//! [`FunctionPass`]es over each function — but the pipeline is no longer
//! analysis-only: passes run in three stages, mirroring a real optimizing
//! middle/back end:
//!
//! 1. **analyze** — inspect the IR and accumulate a [`FunctionAnalysis`]
//!    (protection policy, critical locals);
//! 2. **transform_ir** — rewrite the [`FunctionDef`] body (constant folding,
//!    compute fusion, dead-store elimination);
//! 3. **transform_insts** — rewrite the lowered [`Inst`] stream of a
//!    [`LoweredBody`] (prologue/epilogue scheduling, redundant canary-load
//!    elimination), with the final cost estimation consuming the
//!    post-optimization instructions.
//!
//! Which passes run is selected by [`OptLevel`] through
//! [`PassManager::standard`]; `O0` reproduces the historical analysis-only
//! pipeline byte for byte, so every default build is unchanged.  Every
//! transformed body must still re-prove the canary invariants in
//! `polycanary_verifier` — the optimizer relies on that gate rather than on
//! being trusted.

use std::borrow::Cow;
use std::ops::Range;

use polycanary_core::scheme::SchemeKind;
use polycanary_vm::inst::Inst;
use polycanary_vm::reg::Reg;

use crate::frame::FrameLayout;
use crate::ir::{FunctionDef, Stmt};

// ---------------------------------------------------------------------------
// Optimization levels
// ---------------------------------------------------------------------------

/// Optimization level of the compiler pipeline.
///
/// `O0` is the historical analysis-only pipeline (the default everywhere, so
/// existing builds and their measured numbers are untouched); `O1` adds the
/// IR-level cleanups and canary scheduling; `O2` additionally removes dead
/// frame stores and strength-reduces the canary check against values cached
/// in otherwise-unused registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum OptLevel {
    /// No optimization: analysis passes only.
    #[default]
    O0,
    /// IR cleanups (constant folding, compute fusion) + canary scheduling.
    O1,
    /// `O1` plus dead-store and redundant canary-load elimination.
    O2,
}

impl OptLevel {
    /// Every level, in ascending order.
    pub const ALL: [OptLevel; 3] = [OptLevel::O0, OptLevel::O1, OptLevel::O2];

    /// The canonical label (`"O0"`, `"O1"`, `"O2"`).
    pub fn label(self) -> &'static str {
        match self {
            OptLevel::O0 => "O0",
            OptLevel::O1 => "O1",
            OptLevel::O2 => "O2",
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for OptLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_uppercase().as_str() {
            "O0" | "0" => Ok(OptLevel::O0),
            "O1" | "1" => Ok(OptLevel::O1),
            "O2" | "2" => Ok(OptLevel::O2),
            other => Err(format!("unknown opt level `{other}` (expected O0, O1 or O2)")),
        }
    }
}

// ---------------------------------------------------------------------------
// Pass infrastructure
// ---------------------------------------------------------------------------

/// Per-function facts accumulated by the analysis passes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FunctionAnalysis {
    /// Whether the stack-protector policy applies (a local buffer exists).
    pub needs_protection: bool,
    /// Declaration indices of the critical locals (P-SSP-LV candidates).
    pub critical_locals: Vec<usize>,
    /// Estimated cycles of one benign call of the function, computed from
    /// the **post-optimization** instruction stream with canary checks
    /// assumed to pass (input-copy surcharges, which depend on the runtime
    /// input length, are excluded).
    pub estimated_body_cycles: u64,
    /// Names of the passes registered in the pipeline, in order.
    pub passes_run: Vec<&'static str>,
}

/// The lowered instruction stream of one function, with the scheme
/// prologue/epilogue regions tracked so instruction-level passes can reason
/// about (and move) them without re-deriving shapes.
///
/// `insts[..prologue.start]` is the frame establishment, `prologue` covers
/// the scheme's canary prologue, `epilogue` covers the canary check, and the
/// trailing instructions after `epilogue.end` are the `leaveq; retq`
/// teardown (plus any computation a scheduling pass hoisted past the check).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoweredBody {
    /// The full instruction stream of the function.
    pub insts: Vec<Inst>,
    /// Index range of the scheme prologue (empty when unprotected).
    pub prologue: Range<usize>,
    /// Index range of the scheme epilogue (empty when unprotected).
    pub epilogue: Range<usize>,
}

/// Context handed to instruction-level passes.
#[derive(Debug, Clone, Copy)]
pub struct PassCtx<'a> {
    /// The scheme applied to this function (after per-function overrides).
    pub scheme: SchemeKind,
    /// The function's frame layout.
    pub layout: &'a FrameLayout,
    /// When set, canary sequences must keep their canonical shapes — the
    /// binary rewriter pattern-matches them, so builds destined for
    /// rewriting must not reshape prologues or epilogues.
    pub preserve_canary_shapes: bool,
}

/// One pass over a single function.  Every stage hook defaults to a no-op,
/// so analysis-only and transform-only passes implement exactly the stage
/// they care about.
pub trait FunctionPass: Send + Sync {
    /// The pass's name (shows up in [`FunctionAnalysis::passes_run`] and
    /// `harness --list-passes`).
    fn name(&self) -> &'static str;

    /// Stage 1: inspects `func` and updates the accumulated analysis.
    fn analyze(&self, _func: &FunctionDef, _analysis: &mut FunctionAnalysis) {}

    /// Stage 2: rewrites the IR body before frame layout and lowering.
    fn transform_ir(&self, _func: &mut FunctionDef) {}

    /// Whether [`FunctionPass::transform_ir`] may change the function.  A
    /// pass that overrides `transform_ir` must return `true`: when no pass
    /// of a pipeline does, [`PassManager::optimize_ir`] skips stage 2 and
    /// borrows the IR instead of copying it.
    fn rewrites_ir(&self) -> bool {
        false
    }

    /// Stage 3: rewrites the lowered instruction stream.
    fn transform_insts(
        &self,
        _body: &mut LoweredBody,
        _ctx: &PassCtx<'_>,
        _analysis: &mut FunctionAnalysis,
    ) {
    }
}

// ---------------------------------------------------------------------------
// Analysis passes
// ---------------------------------------------------------------------------

/// Decides whether the function needs a canary at all — the
/// `-fstack-protector` policy the paper's plugin re-implements: protect
/// exactly the functions with a local buffer.
#[derive(Debug, Default, Clone, Copy)]
pub struct StackProtectPass;

impl FunctionPass for StackProtectPass {
    fn name(&self) -> &'static str {
        "stack-protect"
    }

    fn analyze(&self, func: &FunctionDef, analysis: &mut FunctionAnalysis) {
        analysis.needs_protection = func.needs_protection();
    }
}

/// Collects the critical locals that P-SSP-LV will guard.  The paper leaves
/// automatic discovery as future work and marks sensitive variables
/// manually (§V-E2); MiniC models that manual annotation with
/// `CriticalBuffer`, and this pass simply collects the annotations.
#[derive(Debug, Default, Clone, Copy)]
pub struct CriticalVariablePass;

impl FunctionPass for CriticalVariablePass {
    fn name(&self) -> &'static str {
        "critical-variables"
    }

    fn analyze(&self, func: &FunctionDef, analysis: &mut FunctionAnalysis) {
        analysis.critical_locals = func.critical_locals();
    }
}

// ---------------------------------------------------------------------------
// IR transform passes
// ---------------------------------------------------------------------------

/// Constant folding over the IR: drops `Compute {{ cycles: 0 }}` no-ops and
/// collapses runs of adjacent `SetReturn` statements to the last one (the
/// only observable write to `%rax`).
#[derive(Debug, Default, Clone, Copy)]
pub struct ConstFoldPass;

impl FunctionPass for ConstFoldPass {
    fn name(&self) -> &'static str {
        "const-fold"
    }

    fn rewrites_ir(&self) -> bool {
        true
    }

    fn transform_ir(&self, func: &mut FunctionDef) {
        func.body.retain(|s| !matches!(s, Stmt::Compute { cycles: 0 }));
        let mut out: Vec<Stmt> = Vec::with_capacity(func.body.len());
        for stmt in func.body.drain(..) {
            if matches!(stmt, Stmt::SetReturn { .. })
                && matches!(out.last(), Some(Stmt::SetReturn { .. }))
            {
                out.pop();
            }
            out.push(stmt);
        }
        func.body = out;
    }
}

/// Fuses adjacent `Compute` statements into one, preserving the total cycle
/// count exactly (one `Inst::Compute(a + b)` costs the same `a + b` cycles
/// as the pair, so the fusion is perf-neutral and only shrinks code).
#[derive(Debug, Default, Clone, Copy)]
pub struct ComputeFusionPass;

impl FunctionPass for ComputeFusionPass {
    fn name(&self) -> &'static str {
        "compute-fusion"
    }

    fn rewrites_ir(&self) -> bool {
        true
    }

    fn transform_ir(&self, func: &mut FunctionDef) {
        let mut out: Vec<Stmt> = Vec::with_capacity(func.body.len());
        for stmt in func.body.drain(..) {
            if let (Some(Stmt::Compute { cycles: acc }), Stmt::Compute { cycles }) =
                (out.last_mut(), &stmt)
            {
                *acc = acc.saturating_add(*cycles);
                continue;
            }
            out.push(stmt);
        }
        func.body = out;
    }
}

/// Dead-store elimination on frame slots: removes `InitBuffer` zero-fills
/// whose bytes can never be observed.  A zero-fill is dead iff the function
/// neither leaks frame memory nor calls other functions, and the buffer is
/// not a `CriticalBuffer` (zeroing a critical variable is treated as
/// semantically meaningful, like scrubbing a secret).  Canary slots are
/// never touched: `InitBuffer` only ever lowers to stores inside the
/// buffer's own slot.
#[derive(Debug, Default, Clone, Copy)]
pub struct DeadStoreElimPass;

impl FunctionPass for DeadStoreElimPass {
    fn name(&self) -> &'static str {
        "dead-store-elim"
    }

    fn rewrites_ir(&self) -> bool {
        true
    }

    fn transform_ir(&self, func: &mut FunctionDef) {
        let observable =
            func.body.iter().any(|s| matches!(s, Stmt::LeakFrame { .. } | Stmt::Call { .. }));
        if observable {
            return;
        }
        let critical: Vec<bool> = func.locals.iter().map(|l| l.kind.is_critical()).collect();
        func.body.retain(|s| match s {
            Stmt::InitBuffer { local } => critical[*local],
            _ => true,
        });
    }
}

// ---------------------------------------------------------------------------
// Instruction transform passes
// ---------------------------------------------------------------------------

/// Prologue/epilogue scheduling: sinks the canary store past leading setup
/// computation and hoists the canary check above trailing computation, so
/// the protected window tracks the instructions that can actually clobber
/// the frame.  `Inst::Compute` touches neither registers nor memory, so both
/// motions are semantics- and verifier-preserving (the check still
/// dominates `ret`, and no store or input copy crosses the check).
#[derive(Debug, Default, Clone, Copy)]
pub struct CanarySchedulePass;

impl FunctionPass for CanarySchedulePass {
    fn name(&self) -> &'static str {
        "canary-schedule"
    }

    fn transform_insts(
        &self,
        body: &mut LoweredBody,
        ctx: &PassCtx<'_>,
        _analysis: &mut FunctionAnalysis,
    ) {
        if ctx.preserve_canary_shapes || body.prologue.is_empty() || body.epilogue.is_empty() {
            return;
        }

        // Sink the canary store: leading pure computation of the body moves
        // ahead of the scheme prologue.
        let lead = body.insts[body.prologue.end..body.epilogue.start]
            .iter()
            .take_while(|i| matches!(i, Inst::Compute(_)))
            .count();
        if lead > 0 {
            body.insts[body.prologue.start..body.prologue.end + lead].rotate_right(lead);
            body.prologue = body.prologue.start + lead..body.prologue.end + lead;
        }

        // Hoist the check: trailing pure computation of the body moves after
        // the scheme epilogue (before the `leaveq; retq` teardown).
        let trail = body.insts[body.prologue.end..body.epilogue.start]
            .iter()
            .rev()
            .take_while(|i| matches!(i, Inst::Compute(_)))
            .count();
        if trail > 0 {
            let start = body.epilogue.start - trail;
            let len = body.epilogue.len();
            body.insts[start..body.epilogue.end].rotate_left(trail);
            body.epilogue = start..start + len;
        }
    }
}

/// Registers safe to cache canary values in: never produced by the lowering
/// of any MiniC statement or scheme sequence (`r12`/`r13` are reserved for
/// the P-SSP-OWF key, `rax`/`rcx`/`rdx`/`rdi` are the schemes' scratch
/// registers, `rbp`/`rsp` frame the stack).
const CACHE_POOL: [Reg; 8] =
    [Reg::Rbx, Reg::Rsi, Reg::R8, Reg::R9, Reg::R10, Reg::R11, Reg::R14, Reg::R15];

/// Redundant canary-load elimination (leaf functions only).
///
/// The canonical epilogues re-load every canary slot *and* the TLS word and
/// XOR them together; but within a single activation of a leaf function the
/// values written by the prologue are still available — the loads are
/// redundant.  This pass renames (or copies) the prologue's canary values
/// into otherwise-unused registers and replaces the epilogue's xor-chain
/// (or, for P-SSP-OWF, its re-encryption) with one `cmp slot, reg` +
/// `je`/`__stack_chk_fail` guard per slot.  Per-slot compares are strictly
/// stronger than the xor-chain (any single-slot corruption already fails its
/// own compare), `CmpFrameReg` at a policy slot is a first-class canary
/// compare for the verifier, and bookkeeping instructions (DynaGuard/DCR)
/// are preserved verbatim.
///
/// Functions that call other functions are skipped — the callee may itself
/// be optimized and clobber the cache registers.  `PsspBin32` is skipped
/// because its whole point is byte-identical SSP layout, as is any build
/// with [`PassCtx::preserve_canary_shapes`] set.  Any shape the pass does
/// not recognize (including its own output, which makes the pass
/// idempotent) is left untouched.
#[derive(Debug, Default, Clone, Copy)]
pub struct RedundantCanaryLoadElimPass;

impl FunctionPass for RedundantCanaryLoadElimPass {
    fn name(&self) -> &'static str {
        "redundant-canary-load-elim"
    }

    fn transform_insts(
        &self,
        body: &mut LoweredBody,
        ctx: &PassCtx<'_>,
        _analysis: &mut FunctionAnalysis,
    ) {
        if ctx.preserve_canary_shapes
            || matches!(ctx.scheme, SchemeKind::Native | SchemeKind::PsspBin32)
            || body.prologue.is_empty()
            || body.epilogue.is_empty()
            || body.insts.iter().any(|i| matches!(i, Inst::CallFn(_)))
        {
            return;
        }

        let slots = canary_slots(ctx.layout);
        let epilogue = &body.insts[body.epilogue.clone()];
        let Some(bookkeeping) = recognize_epilogue(epilogue, ctx.scheme, &slots) else {
            return;
        };

        let mut free = free_regs(&body.insts);
        if free.len() < slots.len() {
            return;
        }

        let mut prologue: Vec<Inst> = body.insts[body.prologue.clone()].to_vec();
        let Some(cached) = cache_canary_values(&mut prologue, &slots, &mut free) else {
            return;
        };

        // Replace the epilogue core with per-slot compares, preserving the
        // bookkeeping tail; then splice in the rewritten prologue.
        let book_tail: Vec<Inst> =
            body.insts[body.epilogue.end - bookkeeping..body.epilogue.end].to_vec();
        let mut new_epilogue = Vec::with_capacity(3 * cached.len() + book_tail.len());
        for &(slot, reg) in &cached {
            new_epilogue.push(Inst::CmpFrameReg { reg, offset: slot });
            new_epilogue.push(Inst::JeSkip(1));
            new_epilogue.push(Inst::CallStackChkFail);
        }
        new_epilogue.extend(book_tail);

        let epi_start = body.epilogue.start;
        let epi_len = new_epilogue.len();
        body.insts.splice(body.epilogue.clone(), new_epilogue);
        body.epilogue = epi_start..epi_start + epi_len;

        let pro_start = body.prologue.start;
        let old_pro_len = body.prologue.len();
        let new_pro_len = prologue.len();
        body.insts.splice(body.prologue.clone(), prologue);
        body.prologue = pro_start..pro_start + new_pro_len;
        let shift = new_pro_len as i64 - old_pro_len as i64;
        body.epilogue = (body.epilogue.start as i64 + shift) as usize
            ..(body.epilogue.end as i64 + shift) as usize;
    }
}

/// All canary slots of the frame, in prologue store order: the region words
/// directly below the saved `%rbp`, then the P-SSP-LV guard slots.
fn canary_slots(layout: &FrameLayout) -> Vec<i32> {
    let mut slots: Vec<i32> = (1..=layout.canary_words).map(|w| -8 * w as i32).collect();
    slots.extend(layout.info.critical_canary_slots.iter().copied());
    slots
}

/// Registers referenced (read or written) by an instruction, including the
/// implicit operands of `rdtsc` and the AES helper.  Unknown instructions
/// conservatively reference every register, which empties the cache pool
/// and makes the elimination bail.
fn regs_referenced(inst: &Inst) -> Vec<Reg> {
    match inst {
        Inst::PushReg(r)
        | Inst::PopReg(r)
        | Inst::TestReg(r)
        | Inst::Rdrand(r)
        | Inst::InputLenToReg(r)
        | Inst::OutputReg(r) => vec![*r],
        Inst::MovRegReg { dst, src }
        | Inst::XorRegReg { dst, src }
        | Inst::AddRegReg { dst, src }
        | Inst::OrRegReg { dst, src } => vec![*dst, *src],
        Inst::MovTlsToReg { dst, .. }
        | Inst::MovFrameToReg { dst, .. }
        | Inst::MovFrameToReg32 { dst, .. }
        | Inst::MovImmToReg { dst, .. }
        | Inst::LeaFrameToReg { dst, .. }
        | Inst::XorTlsReg { dst, .. }
        | Inst::ShlRegImm { dst, .. }
        | Inst::ShrRegImm { dst, .. } => vec![*dst],
        Inst::MovRegToTls { src, .. }
        | Inst::MovRegToFrame { src, .. }
        | Inst::MovRegToFrame32 { src, .. } => vec![*src],
        Inst::MovMemToReg { dst, base, .. } => vec![*dst, *base],
        Inst::MovRegToMem { src, base, .. } => vec![*src, *base],
        Inst::CmpFrameReg { reg, .. } | Inst::CmpRegImm { reg, .. } => vec![*reg],
        Inst::Rdtsc => vec![Reg::Rax, Reg::Rdx],
        Inst::AesEncryptFrame { nonce } => {
            vec![*nonce, Reg::Rax, Reg::Rdx, Reg::R12, Reg::R13]
        }
        Inst::CallFn(_) => Reg::ALL.to_vec(),
        Inst::CallCheckCanary32 => vec![Reg::Rdi],
        Inst::SubRspImm(_)
        | Inst::AddRspImm(_)
        | Inst::Leave
        | Inst::Ret
        | Inst::MovImmToFrame { .. }
        | Inst::JeSkip(_)
        | Inst::JneSkip(_)
        | Inst::JmpSkip(_)
        | Inst::CallStackChkFail
        | Inst::Nop
        | Inst::RecordCanaryAddress { .. }
        | Inst::PopCanaryAddress
        | Inst::LinkCanaryPush { .. }
        | Inst::LinkCanaryPop { .. }
        | Inst::CopyInputToFrame { .. }
        | Inst::CopyInputToFrameBounded { .. }
        | Inst::Compute(_) => Vec::new(),
        // `Inst` is non_exhaustive: a variant this pass has never seen must
        // poison the whole pool rather than be silently treated as dead.
        _ => Reg::ALL.to_vec(),
    }
}

/// The cache-pool registers not referenced anywhere in the function.
fn free_regs(insts: &[Inst]) -> Vec<Reg> {
    let mut used = [false; 16];
    for inst in insts {
        for reg in regs_referenced(inst) {
            used[reg.index()] = true;
        }
    }
    CACHE_POOL.iter().copied().filter(|r| !used[r.index()]).collect()
}

/// Registers written by an instruction (register destinations only).
fn regs_written(inst: &Inst) -> Vec<Reg> {
    match inst {
        Inst::PopReg(r) | Inst::Rdrand(r) | Inst::InputLenToReg(r) => vec![*r],
        Inst::MovRegReg { dst, .. }
        | Inst::MovTlsToReg { dst, .. }
        | Inst::MovFrameToReg { dst, .. }
        | Inst::MovFrameToReg32 { dst, .. }
        | Inst::MovImmToReg { dst, .. }
        | Inst::LeaFrameToReg { dst, .. }
        | Inst::MovMemToReg { dst, .. }
        | Inst::XorRegReg { dst, .. }
        | Inst::XorTlsReg { dst, .. }
        | Inst::AddRegReg { dst, .. }
        | Inst::ShlRegImm { dst, .. }
        | Inst::ShrRegImm { dst, .. }
        | Inst::OrRegReg { dst, .. } => vec![*dst],
        Inst::Rdtsc | Inst::AesEncryptFrame { .. } => vec![Reg::Rax, Reg::Rdx],
        Inst::CallFn(_) => Reg::ALL.to_vec(),
        _ => Vec::new(),
    }
}

/// Whether the instruction both reads and writes its destination (so the
/// def-chain of the value continues through it).
fn is_read_modify_write(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::XorRegReg { .. }
            | Inst::XorTlsReg { .. }
            | Inst::AddRegReg { .. }
            | Inst::ShlRegImm { .. }
            | Inst::ShrRegImm { .. }
            | Inst::OrRegReg { .. }
    )
}

/// Renames every occurrence of `from` (as any operand) to `to`.
fn rename_reg(inst: &mut Inst, from: Reg, to: Reg) {
    let fix = |r: &mut Reg| {
        if *r == from {
            *r = to;
        }
    };
    match inst {
        Inst::PushReg(r)
        | Inst::PopReg(r)
        | Inst::TestReg(r)
        | Inst::Rdrand(r)
        | Inst::InputLenToReg(r)
        | Inst::OutputReg(r) => fix(r),
        Inst::MovRegReg { dst, src }
        | Inst::XorRegReg { dst, src }
        | Inst::AddRegReg { dst, src }
        | Inst::OrRegReg { dst, src } => {
            fix(dst);
            fix(src);
        }
        Inst::MovTlsToReg { dst, .. }
        | Inst::MovFrameToReg { dst, .. }
        | Inst::MovFrameToReg32 { dst, .. }
        | Inst::MovImmToReg { dst, .. }
        | Inst::LeaFrameToReg { dst, .. }
        | Inst::XorTlsReg { dst, .. }
        | Inst::ShlRegImm { dst, .. }
        | Inst::ShrRegImm { dst, .. } => fix(dst),
        Inst::MovRegToTls { src, .. }
        | Inst::MovRegToFrame { src, .. }
        | Inst::MovRegToFrame32 { src, .. } => fix(src),
        Inst::MovMemToReg { dst, base, .. } => {
            fix(dst);
            fix(base);
        }
        Inst::MovRegToMem { src, base, .. } => {
            fix(src);
            fix(base);
        }
        Inst::CmpFrameReg { reg, .. } | Inst::CmpRegImm { reg, .. } => fix(reg),
        Inst::AesEncryptFrame { nonce } => fix(nonce),
        _ => {}
    }
}

/// Index of the latest instruction before `before` that writes `reg`.
fn find_write_before(insts: &[Inst], before: usize, reg: Reg) -> Option<usize> {
    (0..before).rev().find(|&i| regs_written(&insts[i]).contains(&reg))
}

/// Index of the first instruction after `after` that writes `reg`.
fn find_write_after(insts: &[Inst], after: usize, reg: Reg) -> Option<usize> {
    (after + 1..insts.len()).find(|&i| regs_written(&insts[i]).contains(&reg))
}

/// Rewrites `prologue` so the value stored to each canary slot survives in a
/// register from `free` until the (replaced) epilogue: explicit definitions
/// (`rdrand`, TLS loads, moves) are renamed along their def-use chain;
/// implicit definitions (`rdtsc`, the AES helper, whose destinations are
/// architecturally fixed) get a `mov` copy inserted right after the
/// definition.  Returns the `(slot, register)` cache map, or `None` if any
/// slot's value cannot be traced (in which case `prologue` must be
/// discarded).
fn cache_canary_values(
    prologue: &mut Vec<Inst>,
    slots: &[i32],
    free: &mut Vec<Reg>,
) -> Option<Vec<(i32, Reg)>> {
    let mut cached = Vec::with_capacity(slots.len());
    for &slot in slots {
        let store = prologue
            .iter()
            .position(|i| matches!(i, Inst::MovRegToFrame { offset, .. } if *offset == slot))?;
        let src = match prologue[store] {
            Inst::MovRegToFrame { src, .. } => src,
            _ => unreachable!("position above matched MovRegToFrame"),
        };

        // Walk the def chain back through read-modify-write instructions to
        // the terminal definition of the stored value.
        let mut def = find_write_before(prologue, store, src)?;
        while is_read_modify_write(&prologue[def]) {
            def = find_write_before(prologue, def, src)?;
        }

        let cache_reg = free.pop()?;
        match prologue[def] {
            Inst::Rdtsc | Inst::AesEncryptFrame { .. } => {
                prologue.insert(def + 1, Inst::MovRegReg { dst: cache_reg, src });
            }
            Inst::MovTlsToReg { .. }
            | Inst::Rdrand(_)
            | Inst::MovRegReg { .. }
            | Inst::MovFrameToReg { .. }
            | Inst::MovImmToReg { .. } => {
                let end = find_write_after(prologue, store, src).unwrap_or(prologue.len());
                for inst in &mut prologue[def..end] {
                    rename_reg(inst, src, cache_reg);
                }
            }
            _ => return None,
        }
        cached.push((slot, cache_reg));
    }
    Some(cached)
}

/// Matches the epilogue against the canonical check of `scheme` over
/// `slots`.  Returns the number of trailing bookkeeping instructions
/// (DynaGuard `PopCanaryAddress`, DCR `LinkCanaryPop`) to preserve, or
/// `None` when the shape is not the canonical one.
fn recognize_epilogue(epilogue: &[Inst], scheme: SchemeKind, slots: &[i32]) -> Option<usize> {
    let mut core_len = epilogue.len();
    while core_len > 0
        && matches!(epilogue[core_len - 1], Inst::PopCanaryAddress | Inst::LinkCanaryPop { .. })
    {
        core_len -= 1;
    }
    let core = &epilogue[..core_len];
    let ok = if scheme == SchemeKind::PsspOwf {
        matches_owf_epilogue(core, slots)
    } else {
        matches_xor_chain_epilogue(core, slots)
    };
    ok.then_some(epilogue.len() - core_len)
}

/// The xor-chain shape shared by SSP-style and split-canary epilogues:
/// load `slots[0]`, fold every further slot in with `xor`, XOR the TLS word
/// and guard the `je` with `__stack_chk_fail`.
fn matches_xor_chain_epilogue(core: &[Inst], slots: &[i32]) -> bool {
    let (&first_slot, rest) = match slots.split_first() {
        Some(split) => split,
        None => return false,
    };
    if core.len() != 4 + 2 * rest.len() {
        return false;
    }
    let acc = match core[0] {
        Inst::MovFrameToReg { dst, offset } if offset == first_slot => dst,
        _ => return false,
    };
    for (i, &slot) in rest.iter().enumerate() {
        let load = &core[1 + 2 * i];
        let fold = &core[2 + 2 * i];
        let tmp = match load {
            Inst::MovFrameToReg { dst, offset } if *offset == slot => *dst,
            _ => return false,
        };
        if !matches!(fold, Inst::XorRegReg { dst, src } if *dst == acc && *src == tmp) {
            return false;
        }
    }
    matches!(core[core.len() - 3], Inst::XorTlsReg { dst, .. } if dst == acc)
        && matches!(core[core.len() - 2], Inst::JeSkip(1))
        && matches!(core[core.len() - 1], Inst::CallStackChkFail)
}

/// The P-SSP-OWF shape (Code 9): reload the nonce, re-encrypt, and compare
/// both ciphertext halves against the stored ones.
fn matches_owf_epilogue(core: &[Inst], slots: &[i32]) -> bool {
    if slots != [-8, -16, -24] || core.len() != 8 {
        return false;
    }
    let nonce = match core[0] {
        Inst::MovFrameToReg { dst, offset: -8 } => dst,
        _ => return false,
    };
    matches!(core[1], Inst::AesEncryptFrame { nonce: n } if n == nonce)
        && matches!(core[2], Inst::CmpFrameReg { offset: -16, .. })
        && matches!(core[3], Inst::JeSkip(1))
        && matches!(core[4], Inst::CallStackChkFail)
        && matches!(core[5], Inst::CmpFrameReg { offset: -24, .. })
        && matches!(core[6], Inst::JeSkip(1))
        && matches!(core[7], Inst::CallStackChkFail)
}

// ---------------------------------------------------------------------------
// Cost estimation
// ---------------------------------------------------------------------------

/// Estimates one benign call of the function from the **post-optimization**
/// instruction stream: the sum of every instruction's cycle cost, with each
/// `je`-guarded `__stack_chk_fail` assumed skipped (the check passes on a
/// benign run).  Runs last in every pipeline so the estimate reflects what
/// the VM actually executes.
#[derive(Debug, Default, Clone, Copy)]
pub struct CostEstimationPass;

impl FunctionPass for CostEstimationPass {
    fn name(&self) -> &'static str {
        "cost-estimation"
    }

    fn transform_insts(
        &self,
        body: &mut LoweredBody,
        _ctx: &PassCtx<'_>,
        analysis: &mut FunctionAnalysis,
    ) {
        analysis.estimated_body_cycles = estimate_cycles(&body.insts);
    }
}

/// Straight-line benign-run cycle estimate of an instruction stream (canary
/// checks assumed to pass; input-copy surcharges excluded).
pub fn estimate_cycles(insts: &[Inst]) -> u64 {
    let mut total = 0;
    let mut i = 0;
    while i < insts.len() {
        total += insts[i].cycles();
        if matches!(insts[i], Inst::JeSkip(1))
            && matches!(insts.get(i + 1), Some(Inst::CallStackChkFail))
        {
            i += 1;
        }
        i += 1;
    }
    total
}

// ---------------------------------------------------------------------------
// The pass manager
// ---------------------------------------------------------------------------

/// A pipeline of function passes.
pub struct PassManager {
    passes: Vec<Box<dyn FunctionPass>>,
}

impl std::fmt::Debug for PassManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassManager").field("passes", &self.pass_names()).finish()
    }
}

impl PassManager {
    /// An empty pass manager.
    pub fn new() -> Self {
        PassManager { passes: Vec::new() }
    }

    /// The standard pipeline for an optimization level.  `O0` is the
    /// historical analysis-only pipeline; higher levels insert the transform
    /// passes between the analyses and the final cost estimation.
    pub fn standard(opt: OptLevel) -> Self {
        let mut pm = Self::new();
        pm.register(Box::new(StackProtectPass));
        pm.register(Box::new(CriticalVariablePass));
        if opt >= OptLevel::O1 {
            pm.register(Box::new(ConstFoldPass));
            pm.register(Box::new(ComputeFusionPass));
            if opt >= OptLevel::O2 {
                pm.register(Box::new(DeadStoreElimPass));
            }
            pm.register(Box::new(CanarySchedulePass));
            if opt >= OptLevel::O2 {
                pm.register(Box::new(RedundantCanaryLoadElimPass));
            }
        }
        pm.register(Box::new(CostEstimationPass));
        pm
    }

    /// Registers an additional pass at the end of the pipeline.
    pub fn register(&mut self, pass: Box<dyn FunctionPass>) {
        self.passes.push(pass);
    }

    /// Names of the registered passes, in pipeline order — the
    /// `harness --list-passes` introspection surface.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs the analysis stage over one function.
    pub fn run(&self, func: &FunctionDef) -> FunctionAnalysis {
        let mut analysis = FunctionAnalysis {
            passes_run: Vec::with_capacity(self.passes.len()),
            ..FunctionAnalysis::default()
        };
        for pass in &self.passes {
            pass.analyze(func, &mut analysis);
            analysis.passes_run.push(pass.name());
        }
        analysis
    }

    /// Runs the IR transform stage over one function.
    pub fn transform_ir(&self, func: &mut FunctionDef) {
        for pass in &self.passes {
            pass.transform_ir(func);
        }
    }

    /// Runs the IR transform stage over a copy of `func` — or borrows it
    /// unchanged when no pass of the pipeline rewrites IR, as at `O0`.
    pub fn optimize_ir<'a>(&self, func: &'a FunctionDef) -> Cow<'a, FunctionDef> {
        if !self.passes.iter().any(|pass| pass.rewrites_ir()) {
            debug_assert!(
                {
                    let mut copy = func.clone();
                    self.transform_ir(&mut copy);
                    copy == *func
                },
                "a pass rewrote IR without declaring `rewrites_ir`"
            );
            return Cow::Borrowed(func);
        }
        let mut func = func.clone();
        self.transform_ir(&mut func);
        Cow::Owned(func)
    }

    /// Runs the instruction transform stage over one lowered body.
    pub fn transform_insts(
        &self,
        body: &mut LoweredBody,
        ctx: &PassCtx<'_>,
        analysis: &mut FunctionAnalysis,
    ) {
        for pass in &self.passes {
            pass.transform_insts(body, ctx, analysis);
        }
    }
}

impl Default for PassManager {
    fn default() -> Self {
        Self::standard(OptLevel::O0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::FunctionBuilder;

    #[test]
    fn standard_o0_pipeline_is_the_historical_analysis_pipeline() {
        let func = FunctionBuilder::new("f")
            .buffer("buf", 32)
            .critical_buffer("secret", 16)
            .compute(100)
            .compute(250)
            .build();
        let analysis = PassManager::standard(OptLevel::O0).run(&func);
        assert!(analysis.needs_protection);
        assert_eq!(analysis.critical_locals, vec![1]);
        assert_eq!(
            analysis.passes_run,
            vec!["stack-protect", "critical-variables", "cost-estimation"]
        );
    }

    #[test]
    fn o2_pipeline_composes_every_transform_pass() {
        let pm = PassManager::standard(OptLevel::O2);
        assert_eq!(
            pm.pass_names(),
            vec![
                "stack-protect",
                "critical-variables",
                "const-fold",
                "compute-fusion",
                "dead-store-elim",
                "canary-schedule",
                "redundant-canary-load-elim",
                "cost-estimation",
            ]
        );
        let o1 = PassManager::standard(OptLevel::O1);
        assert!(!o1.pass_names().contains(&"redundant-canary-load-elim"));
        assert!(o1.pass_names().contains(&"canary-schedule"));
    }

    #[test]
    fn optimize_ir_copies_only_when_a_pass_rewrites_ir() {
        let func = FunctionBuilder::new("f")
            .buffer("buf", 32)
            .compute(0)
            .compute(100)
            .compute(250)
            .returns(1)
            .returns(2)
            .build();
        let o0 = PassManager::standard(OptLevel::O0).optimize_ir(&func);
        assert!(matches!(o0, Cow::Borrowed(_)), "no O0 pass rewrites IR");
        for opt in [OptLevel::O1, OptLevel::O2] {
            let pm = PassManager::standard(opt);
            let optimized = pm.optimize_ir(&func);
            let mut expected = func.clone();
            pm.transform_ir(&mut expected);
            assert!(matches!(optimized, Cow::Owned(_)), "{opt}");
            assert_eq!(*optimized, expected, "{opt}");
            assert_ne!(*optimized, func, "{opt} folds and fuses this body");
        }
    }

    #[test]
    fn opt_level_parses_and_displays() {
        assert_eq!("O2".parse::<OptLevel>().unwrap(), OptLevel::O2);
        assert_eq!("o1".parse::<OptLevel>().unwrap(), OptLevel::O1);
        assert_eq!("0".parse::<OptLevel>().unwrap(), OptLevel::O0);
        assert!("O3".parse::<OptLevel>().is_err());
        assert_eq!(OptLevel::O2.to_string(), "O2");
        assert_eq!(OptLevel::default(), OptLevel::O0);
        assert!(OptLevel::O0 < OptLevel::O1 && OptLevel::O1 < OptLevel::O2);
    }

    #[test]
    fn functions_without_buffers_are_not_protected() {
        let func = FunctionBuilder::new("leaf").scalar("x").compute(10).build();
        let analysis = PassManager::standard(OptLevel::O0).run(&func);
        assert!(!analysis.needs_protection);
        assert!(analysis.critical_locals.is_empty());
    }

    #[test]
    fn custom_passes_can_be_registered() {
        struct CountLocals;
        impl FunctionPass for CountLocals {
            fn name(&self) -> &'static str {
                "count-locals"
            }
            fn analyze(&self, func: &FunctionDef, analysis: &mut FunctionAnalysis) {
                analysis.estimated_body_cycles += func.locals.len() as u64;
            }
        }
        let mut pm = PassManager::new();
        pm.register(Box::new(CountLocals));
        assert_eq!(pm.pass_names(), vec!["count-locals"]);
        let func = FunctionBuilder::new("f").scalar("a").scalar("b").build();
        assert_eq!(pm.run(&func).estimated_body_cycles, 2);
    }

    #[test]
    fn empty_pass_manager_produces_default_analysis() {
        let func = FunctionBuilder::new("f").buffer("buf", 8).build();
        let analysis = PassManager::new().run(&func);
        assert!(!analysis.needs_protection);
        assert!(analysis.passes_run.is_empty());
    }

    #[test]
    fn const_fold_drops_zero_computes_and_collapses_returns() {
        let mut func = FunctionBuilder::new("f")
            .compute(0)
            .compute(10)
            .returns(1)
            .returns(2)
            .returns(3)
            .build();
        ConstFoldPass.transform_ir(&mut func);
        assert_eq!(func.body, vec![Stmt::Compute { cycles: 10 }, Stmt::SetReturn { value: 3 }]);
        // Idempotent: a second application changes nothing.
        let folded = func.clone();
        ConstFoldPass.transform_ir(&mut func);
        assert_eq!(func, folded);
    }

    #[test]
    fn compute_fusion_preserves_total_cycles() {
        let mut func = FunctionBuilder::new("f")
            .compute(10)
            .compute(20)
            .returns(0)
            .compute(5)
            .compute(7)
            .build();
        ComputeFusionPass.transform_ir(&mut func);
        assert_eq!(
            func.body,
            vec![
                Stmt::Compute { cycles: 30 },
                Stmt::SetReturn { value: 0 },
                Stmt::Compute { cycles: 12 },
            ]
        );
        let fused = func.clone();
        ComputeFusionPass.transform_ir(&mut func);
        assert_eq!(func, fused, "fusion must be idempotent");
    }

    #[test]
    fn dead_store_elim_keeps_critical_and_observable_zero_fills() {
        // Plain buffer, nothing observable: the zero-fill is dead.
        let mut dead =
            FunctionBuilder::new("f").buffer("buf", 16).zero_fill("buf").compute(5).build();
        DeadStoreElimPass.transform_ir(&mut dead);
        assert!(!dead.body.iter().any(|s| matches!(s, Stmt::InitBuffer { .. })));

        // Critical buffer: scrubbing a secret is semantically meaningful.
        let mut critical =
            FunctionBuilder::new("f").critical_buffer("key", 16).zero_fill("key").build();
        DeadStoreElimPass.transform_ir(&mut critical);
        assert!(critical.body.iter().any(|s| matches!(s, Stmt::InitBuffer { .. })));

        // A frame leak makes the zeroed bytes observable.
        let mut leaky =
            FunctionBuilder::new("f").buffer("buf", 16).zero_fill("buf").leak("buf", 2).build();
        DeadStoreElimPass.transform_ir(&mut leaky);
        assert!(leaky.body.iter().any(|s| matches!(s, Stmt::InitBuffer { .. })));

        // A call makes the frame reachable from elsewhere: keep the store.
        let mut calling =
            FunctionBuilder::new("f").buffer("buf", 16).zero_fill("buf").call("g").build();
        DeadStoreElimPass.transform_ir(&mut calling);
        assert!(calling.body.iter().any(|s| matches!(s, Stmt::InitBuffer { .. })));
    }

    #[test]
    fn estimate_treats_guarded_fail_as_skipped() {
        let insts = vec![Inst::Compute(10), Inst::JeSkip(1), Inst::CallStackChkFail, Inst::Ret];
        // Compute(10) + je(1) + ret(2); the fail call is skipped.
        assert_eq!(estimate_cycles(&insts), 13);
    }
}
