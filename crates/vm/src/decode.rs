//! The pre-decoded program cache behind [`Cpu::run`](crate::cpu::Cpu::run).
//!
//! The first run of a finalized program (or the
//! [`Snapshot`](crate::snapshot::Snapshot) that captures it) flattens every
//! function body into one contiguous stream of [`Op`]s, built once and
//! shared by every later run; see
//! [`Program::decoded`](crate::program::Program::decoded).  Compile and
//! rewrite end in [`Program::finalize`](crate::program::Program::finalize),
//! which only lays out addresses, so builds that are verified but never run
//! never decode.  The interpreter's hot loop is a plain fetch→dispatch over
//! the single slice:
//!
//! * **absolute successor indices** — skip-relative branches (`je +n`) are
//!   decoded to absolute indices into the flat stream, and `call` targets to
//!   the callee's flat entry, so the loop never consults the function table
//!   or re-validates a `(function, index)` pair per instruction;
//! * **precomputed cycle costs** — each op carries the static cycle cost of
//!   its source instruction, charged without re-matching on the variant;
//! * **a one-past-the-end sentinel per function** — falling (or branching,
//!   or returning) past a function's last instruction lands on a
//!   [`OpKind::FellOffEnd`] op carrying the precomputed fault address, so
//!   the loop needs no per-instruction bounds re-check;
//! * **fused superinstructions** — the two sequences every attack workload
//!   hammers, the canary prologue store (`mov %fs:off,%r; mov %r,disp(%rbp)`)
//!   and the canary check (`[mov disp(%rbp),%r;] xor %fs:off,%r; je +1;
//!   call __stack_chk_fail`), are recognised at decode time and dispatched
//!   as single ops;
//! * **superblocks** — every remaining run of two or more consecutive
//!   straight-line instructions is fused under a single budget precheck
//!   ([`OpKind::Block`]), so the hot loop pays the fetch/limit/dispatch
//!   overhead once per run instead of once per instruction;
//! * **one dense return-address table** — filled in the same decode pass,
//!   indexed by `addr - addr_base` where `addr_base` is the first function's
//!   entry and the span ends at the last function's one-past-the-end marker,
//!   so `ret` resolves its target with a `checked_sub` and one array load.
//!   It is the only address index the cache keeps; the reference
//!   interpreter resolves through
//!   [`Program::lookup_addr`](crate::program::Program::lookup_addr)
//!   instead, so the two loops never share the table under test.
//!
//! Fusion is an **overlay**: the fused op replaces only the *head* of its
//! source sequence, while the component instructions keep their own ops at
//! the following indices.  A branch or corrupted return address landing in
//! the middle of a fused sequence therefore executes the plain component
//! ops — fusion never needs join-point analysis to be safe.  The fused
//! handlers in `cpu.rs` charge instructions and cycles per *component*
//! (checking the instruction limit before each one), so the decoded
//! dispatch produces byte-identical
//! [`RunOutcome`](crate::cpu::RunOutcome)s — exit, cycles, instruction
//! counts — to the reference interpreter even when the limit lands in the
//! middle of a fused sequence.  The `vm_dispatch` differential suite pins
//! this over PRNG-generated programs and every scheme × deployment cell.
//!
//! The cache is a pure acceleration, not a semantic fork: source
//! [`Function`] bodies are left untouched, which is what the static
//! verifier keeps proving its invariants against.

use crate::inst::{FuncId, Inst};
use crate::program::Function;
use crate::reg::Reg;

/// One decoded operation of the flat stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Op {
    /// Static cycle cost, precomputed from [`Inst::cycles`].  For fused
    /// superinstructions this is the *head component's* cost only; the
    /// dispatch handler charges the remaining components one by one.
    pub(crate) cycles: u64,
    /// What the dispatch loop executes.
    pub(crate) kind: OpKind,
}

/// Decoded operation kinds.  Control flow carries absolute flat indices;
/// everything straight-line stays as the source [`Inst`] and is executed by
/// the interpreter's shared straight-line executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum OpKind {
    /// A straight-line instruction, executed via `Cpu::exec_basic`.
    Basic(Inst),
    /// `je` — jump to `target` when the zero flag is set.
    Je {
        /// Absolute flat index of the taken edge.
        target: u32,
    },
    /// `jne` — jump to `target` when the zero flag is clear.
    Jne {
        /// Absolute flat index of the taken edge.
        target: u32,
    },
    /// `jmp` — unconditional jump to `target`.
    Jmp {
        /// Absolute flat index of the target.
        target: u32,
    },
    /// `call` to a known function: push `return_addr`, continue at the
    /// callee's flat entry.
    Call {
        /// Absolute flat index of the callee's first instruction.
        target: u32,
        /// Precomputed return address (this instruction's address plus its
        /// encoded size).
        return_addr: u64,
    },
    /// `call` to a function id outside the program's function table.
    CallUnknown {
        /// The unresolvable function id.
        id: usize,
        /// Return address still pushed before the fault surfaces (the
        /// reference interpreter pushes before resolving the callee).
        return_addr: u64,
    },
    /// `ret`: pop, then sentinel / hijack / dense-table resolution.
    Ret,
    /// `call __stack_chk_fail` — unconditional canary abort.
    StackChkFail {
        /// Function the check belongs to (for the fault message).
        fid: FuncId,
    },
    /// The patched 32-bit canary check of the binary rewriter.
    CheckCanary32 {
        /// Function the check belongs to (for the fault message).
        fid: FuncId,
    },
    /// One-past-the-end sentinel: executing past the last instruction of a
    /// function without `ret`.
    FellOffEnd {
        /// Precomputed fault address (function entry plus encoded size).
        addr: u64,
    },
    /// Fused canary prologue: `mov %fs:tls_offset,%dst` followed by
    /// `mov %dst,frame_offset(%rbp)`.
    Prologue {
        /// The staging register of the canary store.
        dst: Reg,
        /// TLS offset the canary is loaded from.
        tls_offset: u64,
        /// Frame displacement the canary is stored to.
        frame_offset: i32,
    },
    /// Fused canary compare+guard: `xor %fs:tls_offset,%dst; je +1;
    /// call __stack_chk_fail`.  Covers the tail of both the SSP epilogue
    /// and the split-canary (`xor %r,%r` preceded) epilogues.
    CanaryGuard {
        /// Register holding the value under test.
        dst: Reg,
        /// TLS offset of the reference canary.
        tls_offset: u64,
        /// Function the check belongs to (for the fault message).
        fid: FuncId,
        /// Absolute flat index to resume at when the check passes.
        resume: u32,
    },
    /// A superblock: a run of `len` consecutive straight-line instructions
    /// fused under a single budget precheck.  The head component is carried
    /// inline (its plain op was replaced by this overlay); the remaining
    /// `len - 1` components are read from the following ops, which stay
    /// plain [`OpKind::Basic`] so a branch into the middle of the run still
    /// lands on an executable op.
    Block {
        /// The head component (the instruction this op replaced).
        head: Inst,
        /// Total run length in instructions, including the head.
        len: u32,
    },
    /// Fully fused canary epilogue: `mov frame_offset(%rbp),%dst` followed
    /// by the compare+guard triple above.
    CanaryEpilogue {
        /// Register the stored canary is loaded into.
        dst: Reg,
        /// Frame displacement the canary is loaded from.
        frame_offset: i32,
        /// TLS offset of the reference canary.
        tls_offset: u64,
        /// Function the check belongs to (for the fault message).
        fid: FuncId,
        /// Absolute flat index to resume at when the check passes.
        resume: u32,
    },
}

/// A program flattened into one decoded op stream, built once on the
/// program's first run (or snapshot) and shared by every machine booted
/// from the same `Arc<Program>` — snapshot-booted fleet victims never
/// re-decode.
#[derive(Debug, Clone)]
pub(crate) struct DecodedProgram {
    /// The flat op stream: per function, its decoded body followed by one
    /// [`OpKind::FellOffEnd`] sentinel.
    ops: Vec<Op>,
    /// Flat index of each function's first op (direct-index function table).
    func_start: Vec<u32>,
    /// The first function's entry — the lowest mapped address and the base
    /// of the dense table below.
    addr_base: u64,
    /// Instruction address → flat index, indexed by `addr - addr_base`,
    /// including each function's one-past-the-end marker (which maps to its
    /// sentinel); `u32::MAX` marks mid-instruction bytes and padding.
    /// Program addresses are assigned contiguously from `CODE_BASE`, so the
    /// table stays four bytes per encoded instruction byte — and turns the
    /// `ret` path's address resolution into one bounds-checked array load.
    addr_flat_dense: Vec<u32>,
}

impl DecodedProgram {
    /// Decodes finalized `functions` (addresses must be assigned).
    pub(crate) fn build(functions: &[Function]) -> Self {
        // Flat entry of every function first, so forward calls resolve in
        // the single decode pass below.
        let mut func_start = Vec::with_capacity(functions.len());
        let mut cursor = 0u32;
        for func in functions {
            func_start.push(cursor);
            cursor += func.insts().len() as u32 + 1;
        }

        let addr_base = functions.first().map_or(0, Function::entry_addr);
        let span = functions.last().map_or(0, |last| (last.end_addr() - addr_base) as usize + 1);
        let mut addr_flat_dense = vec![u32::MAX; span];
        let mut ops = Vec::with_capacity(cursor as usize);
        for (fidx, func) in functions.iter().enumerate() {
            let fid = FuncId(fidx);
            let start = func_start[fidx];
            let insts = func.insts();
            let len = insts.len();
            // A branch target past the end of the function behaves exactly
            // like falling off the end, so it clamps to the sentinel (and
            // skips saturate, so a wild one cannot wrap around).
            let clamp = |index: usize| start + index.min(len) as u32;
            for (i, inst) in insts.iter().enumerate() {
                let skip = |n: usize| clamp((i + 1).saturating_add(n));
                let addr = func.inst_addr(i).expect("finalized function has inst addrs");
                addr_flat_dense[(addr - addr_base) as usize] = start + i as u32;
                let kind = match fuse_at(insts, i, fid, &clamp) {
                    Some(fused) => fused,
                    None => match inst {
                        Inst::JeSkip(n) => OpKind::Je { target: skip(*n) },
                        Inst::JneSkip(n) => OpKind::Jne { target: skip(*n) },
                        Inst::JmpSkip(n) => OpKind::Jmp { target: skip(*n) },
                        Inst::CallFn(target) => {
                            let return_addr = addr + inst.encoded_size();
                            match func_start.get(target.0) {
                                Some(&callee) => OpKind::Call { target: callee, return_addr },
                                None => OpKind::CallUnknown { id: target.0, return_addr },
                            }
                        }
                        Inst::Ret => OpKind::Ret,
                        Inst::CallStackChkFail => OpKind::StackChkFail { fid },
                        Inst::CallCheckCanary32 => OpKind::CheckCanary32 { fid },
                        other => OpKind::Basic(other.clone()),
                    },
                };
                ops.push(Op { cycles: inst.cycles(), kind });
            }
            let end_addr = func.end_addr();
            addr_flat_dense[(end_addr - addr_base) as usize] = start + len as u32;
            ops.push(Op { cycles: 0, kind: OpKind::FellOffEnd { addr: end_addr } });
        }
        fuse_superblocks(&mut ops);
        DecodedProgram { ops, func_start, addr_base, addr_flat_dense }
    }

    /// The flat op stream.
    pub(crate) fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Flat entry index of function `id`, or `None` when out of range.
    pub(crate) fn func_start(&self, id: FuncId) -> Option<u32> {
        self.func_start.get(id.0).copied()
    }

    /// Resolves an instruction (or one-past-the-end marker) address to its
    /// flat index — the `ret` path's counterpart of
    /// [`Program::lookup_addr`](crate::program::Program::lookup_addr).
    #[inline]
    pub(crate) fn flat_of_addr(&self, addr: u64) -> Option<u32> {
        let off = addr.checked_sub(self.addr_base)? as usize;
        match self.addr_flat_dense.get(off) {
            Some(&flat) if flat != u32::MAX => Some(flat),
            _ => None,
        }
    }
}

/// Second decode pass: collapses every run of two or more consecutive
/// [`OpKind::Basic`] ops into an [`OpKind::Block`] superblock.
///
/// Same overlay rule as canary fusion: only the run's head op is replaced
/// (carrying its own instruction inline), the tail components keep their
/// plain ops, so branch targets inside the run stay executable.  Runs never
/// cross control flow, fused canary ops or the [`OpKind::FellOffEnd`]
/// sentinel — none of those are `Basic` — so a block is always a single
/// straight-line stretch within one function.
fn fuse_superblocks(ops: &mut [Op]) {
    let mut i = 0;
    while i < ops.len() {
        if !matches!(ops[i].kind, OpKind::Basic(_)) {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        while j < ops.len() && matches!(ops[j].kind, OpKind::Basic(_)) {
            j += 1;
        }
        if j - i >= 2 {
            let OpKind::Basic(head) = ops[i].kind.clone() else { unreachable!("checked above") };
            ops[i].kind = OpKind::Block { head, len: (j - i) as u32 };
        }
        i = j;
    }
}

/// Recognises a fusable sequence whose head is at `insts[i]`.
///
/// Longest match wins: the four-wide canary epilogue is tried before the
/// three-wide compare+guard (whose pattern is the epilogue's suffix).  The
/// returned op replaces only the head; components keep their own ops.
fn fuse_at(insts: &[Inst], i: usize, fid: FuncId, clamp: &impl Fn(usize) -> u32) -> Option<OpKind> {
    match insts.get(i..) {
        Some(
            [Inst::MovFrameToReg { dst, offset }, Inst::XorTlsReg { dst: xdst, offset: tls_offset }, Inst::JeSkip(1), Inst::CallStackChkFail, ..],
        ) if dst == xdst => Some(OpKind::CanaryEpilogue {
            dst: *dst,
            frame_offset: *offset,
            tls_offset: *tls_offset,
            fid,
            // `je +1` at i+2 taken: i + 2 + 1 + 1.
            resume: clamp(i + 4),
        }),
        Some(
            [Inst::XorTlsReg { dst, offset: tls_offset }, Inst::JeSkip(1), Inst::CallStackChkFail, ..],
        ) => Some(OpKind::CanaryGuard {
            dst: *dst,
            tls_offset: *tls_offset,
            fid,
            resume: clamp(i + 3),
        }),
        Some(
            [Inst::MovTlsToReg { dst, offset: tls_offset }, Inst::MovRegToFrame { src, offset }, ..],
        ) if dst == src => {
            Some(OpKind::Prologue { dst: *dst, tls_offset: *tls_offset, frame_offset: *offset })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Program, CODE_BASE};

    fn decoded(insts: Vec<Inst>) -> (Program, DecodedProgram) {
        let mut prog = Program::new();
        let f = prog.add_function("main", insts).unwrap();
        prog.set_entry(f);
        prog.finalize();
        let d = prog.decoded().expect("finalized programs decode").clone();
        (prog, d)
    }

    #[test]
    fn flat_layout_appends_one_sentinel_per_function() {
        let mut prog = Program::new();
        prog.add_function("a", vec![Inst::Nop, Inst::Ret]).unwrap();
        prog.add_function("b", vec![Inst::Ret]).unwrap();
        prog.finalize();
        let d = prog.decoded().unwrap();
        assert_eq!(d.ops().len(), 2 + 1 + 1 + 1);
        assert_eq!(d.func_start(FuncId(0)), Some(0));
        assert_eq!(d.func_start(FuncId(1)), Some(3));
        assert_eq!(d.func_start(FuncId(2)), None);
        assert!(matches!(d.ops()[2].kind, OpKind::FellOffEnd { .. }));
        assert!(matches!(d.ops()[4].kind, OpKind::FellOffEnd { .. }));
    }

    #[test]
    fn branch_targets_are_absolute_and_clamped() {
        let (_, d) = decoded(vec![Inst::JeSkip(1), Inst::Nop, Inst::JmpSkip(7), Inst::Ret]);
        assert_eq!(d.ops()[0].kind, OpKind::Je { target: 2 });
        // Target past the end clamps to the sentinel (index 4 = len).
        assert_eq!(d.ops()[2].kind, OpKind::Jmp { target: 4 });
    }

    #[test]
    fn call_targets_resolve_to_flat_entries() {
        let mut prog = Program::new();
        let callee = prog.add_function("callee", vec![Inst::Ret]).unwrap();
        prog.add_function("caller", vec![Inst::CallFn(callee), Inst::CallFn(FuncId(9)), Inst::Ret])
            .unwrap();
        prog.finalize();
        let d = prog.decoded().unwrap();
        let caller_start = d.func_start(FuncId(1)).unwrap() as usize;
        assert!(matches!(d.ops()[caller_start].kind, OpKind::Call { target: 0, .. }));
        assert!(matches!(d.ops()[caller_start + 1].kind, OpKind::CallUnknown { id: 9, .. }));
    }

    #[test]
    fn addr_map_covers_every_instruction_and_the_end_marker() {
        let (prog, d) = decoded(vec![Inst::Nop, Inst::Nop, Inst::Ret]);
        let func = prog.function(FuncId(0)).unwrap();
        for i in 0..3 {
            assert_eq!(d.flat_of_addr(func.inst_addr(i).unwrap()), Some(i as u32));
        }
        let end = func.entry_addr() + func.encoded_size();
        assert_eq!(d.flat_of_addr(end), Some(3));
        assert_eq!(d.flat_of_addr(end + 1), None);
    }

    #[test]
    fn dense_table_agrees_with_lookup_addr_at_every_address() {
        let mut prog = Program::new();
        prog.add_function("a", vec![Inst::PushReg(Reg::R12), Inst::Compute(1), Inst::Ret]).unwrap();
        prog.add_function("empty", Vec::new()).unwrap();
        prog.add_function("b", vec![Inst::MovImmToReg { dst: Reg::Rax, imm: 1 }, Inst::Ret])
            .unwrap();
        prog.finalize();
        let d = prog.decoded().unwrap();
        let (_, last) = prog.iter().last().unwrap();
        let top = last.entry_addr() + last.encoded_size();
        for addr in CODE_BASE - 1..=top + 1 {
            let expected =
                prog.lookup_addr(addr).map(|(fid, idx)| d.func_start(fid).unwrap() + idx as u32);
            assert_eq!(d.flat_of_addr(addr), expected, "{addr:#x}");
        }
    }

    #[test]
    fn ssp_prologue_and_epilogue_fuse_as_overlays() {
        let (_, d) = decoded(vec![
            Inst::PushReg(Reg::Rbp),
            Inst::MovRegReg { dst: Reg::Rbp, src: Reg::Rsp },
            Inst::SubRspImm(0x10),
            Inst::MovTlsToReg { dst: Reg::Rax, offset: 0x28 },
            Inst::MovRegToFrame { src: Reg::Rax, offset: -0x8 },
            Inst::MovFrameToReg { dst: Reg::Rdx, offset: -0x8 },
            Inst::XorTlsReg { dst: Reg::Rdx, offset: 0x28 },
            Inst::JeSkip(1),
            Inst::CallStackChkFail,
            Inst::Leave,
            Inst::Ret,
        ]);
        assert!(matches!(
            d.ops()[3].kind,
            OpKind::Prologue { dst: Reg::Rax, tls_offset: 0x28, frame_offset: -0x8 }
        ));
        // The prologue's second component keeps its own op (overlay).
        assert!(matches!(d.ops()[4].kind, OpKind::Basic(Inst::MovRegToFrame { .. })));
        assert!(matches!(
            d.ops()[5].kind,
            OpKind::CanaryEpilogue { dst: Reg::Rdx, frame_offset: -0x8, resume: 9, .. }
        ));
        // The epilogue's interior also decodes individually: a jump into
        // the middle of the sequence executes plain ops (the xor head
        // itself re-fuses as a compare+guard, which is equivalent).
        assert!(matches!(d.ops()[6].kind, OpKind::CanaryGuard { dst: Reg::Rdx, resume: 9, .. }));
        assert!(matches!(d.ops()[7].kind, OpKind::Je { target: 9 }));
        assert!(matches!(d.ops()[8].kind, OpKind::StackChkFail { .. }));
    }

    #[test]
    fn split_canary_guard_fuses_without_a_frame_load() {
        // The split-canary epilogue xors two frame words first; only the
        // TLS compare + branch + abort tail fuses.
        let (_, d) = decoded(vec![
            Inst::MovFrameToReg { dst: Reg::Rdx, offset: -0x8 },
            Inst::MovFrameToReg { dst: Reg::Rdi, offset: -0x10 },
            Inst::XorRegReg { dst: Reg::Rdx, src: Reg::Rdi },
            Inst::XorTlsReg { dst: Reg::Rdx, offset: 0x28 },
            Inst::JeSkip(1),
            Inst::CallStackChkFail,
            Inst::Ret,
        ]);
        // The three frame/xor ops ahead of the guard collapse into a
        // superblock whose head is the first frame load.
        assert!(matches!(
            d.ops()[0].kind,
            OpKind::Block { head: Inst::MovFrameToReg { .. }, len: 3 }
        ));
        assert!(matches!(d.ops()[1].kind, OpKind::Basic(Inst::MovFrameToReg { .. })));
        assert!(matches!(
            d.ops()[3].kind,
            OpKind::CanaryGuard { dst: Reg::Rdx, tls_offset: 0x28, resume: 6, .. }
        ));
    }

    #[test]
    fn prologue_only_fuses_matching_registers() {
        let (_, d) = decoded(vec![
            Inst::MovTlsToReg { dst: Reg::Rax, offset: 0x28 },
            Inst::MovRegToFrame { src: Reg::Rbx, offset: -0x8 },
            Inst::Ret,
        ]);
        // Mismatched registers don't fuse as a canary prologue; the pair
        // still collapses into a plain superblock.
        assert!(matches!(
            d.ops()[0].kind,
            OpKind::Block { head: Inst::MovTlsToReg { .. }, len: 2 }
        ));
    }

    #[test]
    fn straight_line_runs_collapse_into_superblocks() {
        let (_, d) = decoded(vec![
            Inst::PushReg(Reg::Rbp),
            Inst::MovRegReg { dst: Reg::Rbp, src: Reg::Rsp },
            Inst::SubRspImm(0x10),
            Inst::JeSkip(1),
            Inst::Nop,
            Inst::Leave,
            Inst::Ret,
        ]);
        // The frame-setup triple fuses under one budget precheck…
        assert!(matches!(d.ops()[0].kind, OpKind::Block { head: Inst::PushReg(Reg::Rbp), len: 3 }));
        // …while its tail components keep plain ops for mid-run branch
        // targets (overlay, like canary fusion).
        assert!(matches!(d.ops()[1].kind, OpKind::Basic(Inst::MovRegReg { .. })));
        assert!(matches!(d.ops()[2].kind, OpKind::Basic(Inst::SubRspImm(_))));
        // Control flow breaks the run; the nop/leave pair after the branch
        // forms its own block, and the lone `ret` stays unfused.
        assert!(matches!(d.ops()[3].kind, OpKind::Je { .. }));
        assert!(matches!(d.ops()[4].kind, OpKind::Block { head: Inst::Nop, len: 2 }));
        assert!(matches!(d.ops()[5].kind, OpKind::Basic(Inst::Leave)));
        assert!(matches!(d.ops()[6].kind, OpKind::Ret));
    }
}
