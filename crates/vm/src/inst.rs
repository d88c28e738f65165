//! The instruction set of the simulated machine.
//!
//! The set is deliberately small: it contains exactly the instructions that
//! appear in the paper's prologue/epilogue listings (Codes 1–9), the handful
//! of pseudo-instructions needed to model library calls such as `strcpy`
//! (the overflow vector) and the bookkeeping that the DynaGuard / DCR
//! baselines perform, plus a generic [`Inst::Compute`] instruction standing
//! in for arbitrary function-body work.
//!
//! Every instruction has one **description** ([`Inst::effects`]), written in
//! one match arm per variant: the registers it reads and writes, its
//! zero-flag, frame-store and input-copy effects and its control flow, its
//! **cycle cost** ([`Inst::cycles`], used by the runtime-overhead experiments
//! of Fig. 5 and Tables III–V) and its **encoded size** in bytes approximating
//! its x86-64 encoding ([`Inst::encoded_size`], used by the code-expansion
//! experiment of Table II and the binary rewriter's layout-preservation
//! checks of §V-C).  The interpreter, the program layout, the optimizer and
//! the static verifier read this one description instead of keeping tables
//! of their own; its effects are tested against the interpreter, which stays
//! the semantics.

use std::fmt;

use polycanary_crypto::cost;

use crate::reg::{Reg, RegSet};

/// Identifier of a function within a [`crate::program::Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub usize);

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn#{}", self.0)
    }
}

/// One instruction of the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Inst {
    // ---- frame management -------------------------------------------------
    /// `push %reg`
    PushReg(Reg),
    /// `pop %reg`
    PopReg(Reg),
    /// `mov %src,%dst`
    MovRegReg {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `sub $imm,%rsp` — allocate the local frame.
    SubRspImm(u32),
    /// `add $imm,%rsp` — release stack space.
    AddRspImm(u32),
    /// `leaveq`
    Leave,
    /// `retq`
    Ret,

    // ---- data movement ----------------------------------------------------
    /// `mov %fs:offset,%dst` — load a 64-bit word from the TLS.
    MovTlsToReg {
        /// Destination register.
        dst: Reg,
        /// Offset from the TLS base (e.g. `0x28`).
        offset: u64,
    },
    /// `mov %src,%fs:offset` — store a 64-bit word into the TLS.
    MovRegToTls {
        /// Source register.
        src: Reg,
        /// Offset from the TLS base.
        offset: u64,
    },
    /// `mov %src,disp(%rbp)` — store a register into the current frame.
    MovRegToFrame {
        /// Source register.
        src: Reg,
        /// Displacement from `%rbp` (negative for locals, `+8` for the
        /// saved return address).
        offset: i32,
    },
    /// `mov disp(%rbp),%dst` — load a frame slot into a register.
    MovFrameToReg {
        /// Destination register.
        dst: Reg,
        /// Displacement from `%rbp`.
        offset: i32,
    },
    /// `mov disp(%rbp),%dst` / `mov %src,disp(%rbp)` 32-bit variants used by
    /// the binary rewriter's downgraded canaries.
    MovFrameToReg32 {
        /// Destination register (low 32 bits written, zero-extended).
        dst: Reg,
        /// Displacement from `%rbp`.
        offset: i32,
    },
    /// 32-bit store into a frame slot.
    MovRegToFrame32 {
        /// Source register (low 32 bits stored).
        src: Reg,
        /// Displacement from `%rbp`.
        offset: i32,
    },
    /// `mov $imm,%dst` (64-bit immediate).
    MovImmToReg {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        imm: u64,
    },
    /// `mov $imm,disp(%rbp)` (sign-extended 32-bit immediate).
    MovImmToFrame {
        /// Displacement from `%rbp`.
        offset: i32,
        /// Immediate value.
        imm: u32,
    },
    /// `lea disp(%rbp),%dst` — compute the address of a frame slot.
    LeaFrameToReg {
        /// Destination register.
        dst: Reg,
        /// Displacement from `%rbp`.
        offset: i32,
    },
    /// `mov disp(%base),%dst` — load through an arbitrary base register
    /// (used by the global-buffer variant of §VII-C).
    MovMemToReg {
        /// Destination register.
        dst: Reg,
        /// Base address register.
        base: Reg,
        /// Displacement from the base register.
        offset: i32,
    },
    /// `mov %src,disp(%base)` — store through an arbitrary base register.
    MovRegToMem {
        /// Source register.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Displacement from the base register.
        offset: i32,
    },

    // ---- arithmetic / logic ----------------------------------------------
    /// `xor %src,%dst`
    XorRegReg {
        /// Destination register (also left operand).
        dst: Reg,
        /// Source register (right operand).
        src: Reg,
    },
    /// `xor %fs:offset,%dst` — XOR a TLS word into a register and set ZF.
    XorTlsReg {
        /// Destination register.
        dst: Reg,
        /// TLS offset of the right operand.
        offset: u64,
    },
    /// `add %src,%dst`
    AddRegReg {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `shl $imm,%dst`
    ShlRegImm {
        /// Destination register.
        dst: Reg,
        /// Shift amount.
        amount: u8,
    },
    /// `shr $imm,%dst`
    ShrRegImm {
        /// Destination register.
        dst: Reg,
        /// Shift amount.
        amount: u8,
    },
    /// `or %src,%dst`
    OrRegReg {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `cmp %reg,disp(%rbp)` — compare a frame slot with a register, setting
    /// the zero flag.
    CmpFrameReg {
        /// Register operand.
        reg: Reg,
        /// Displacement from `%rbp`.
        offset: i32,
    },
    /// `cmp $imm,%reg` — compare a register with an immediate.
    CmpRegImm {
        /// Register operand.
        reg: Reg,
        /// Immediate operand.
        imm: u64,
    },
    /// `test %reg,%reg` — set ZF if the register is zero.
    TestReg(Reg),

    // ---- control flow ------------------------------------------------------
    /// `je` — skip the next `skip` instructions when the zero flag is set.
    JeSkip(usize),
    /// `jne` — skip the next `skip` instructions when the zero flag is clear.
    JneSkip(usize),
    /// `jmp` — unconditionally skip the next `skip` instructions.
    JmpSkip(usize),
    /// `callq <f>` — direct call to another function of the program.
    CallFn(FuncId),
    /// `callq <__stack_chk_fail@plt>` — abort the process reporting stack
    /// smashing (glibc behaviour).
    CallStackChkFail,
    /// Call into the *patched* `__stack_chk_fail` produced by the binary
    /// rewriter (Fig. 3/4 of the paper): `rdi` carries the packed 32-bit
    /// canary pair; the routine either sets ZF and returns or aborts.
    CallCheckCanary32,
    /// `nop`
    Nop,

    // ---- hardware ----------------------------------------------------------
    /// `rdrand %dst` — hardware random number (retried until success).
    Rdrand(Reg),
    /// `rdtsc` folded with the `shl`/`or` sequence of Code 8: leaves the full
    /// 64-bit time stamp in `%rax`.
    Rdtsc,
    /// The `AES_ENCRYPT_128` helper of Code 8/9: encrypts the 128-bit block
    /// `(nonce, saved return address)` under the key held in `r12:r13` and
    /// leaves the ciphertext in `(%rax, %rdx)`.
    AesEncryptFrame {
        /// Register holding the nonce (the TSC value).
        nonce: Reg,
    },

    // ---- canary bookkeeping pseudo-instructions (baselines) ----------------
    /// DynaGuard prologue bookkeeping: append the address `%rbp + offset`
    /// (the canary slot of the current frame) to the process's canary
    /// address buffer.
    RecordCanaryAddress {
        /// Displacement of the canary slot from `%rbp`.
        offset: i32,
    },
    /// DynaGuard epilogue bookkeeping: pop the most recent canary address.
    PopCanaryAddress,
    /// DCR prologue bookkeeping: link the canary at `%rbp + offset` into the
    /// in-stack linked list headed in the TLS.
    LinkCanaryPush {
        /// Displacement of the canary slot from `%rbp`.
        offset: i32,
    },
    /// DCR epilogue bookkeeping: unlink the canary at `%rbp + offset`.
    LinkCanaryPop {
        /// Displacement of the canary slot from `%rbp`.
        offset: i32,
    },

    // ---- library-call pseudo-instructions ----------------------------------
    /// An *unbounded* copy of the process input into the frame buffer at
    /// `%rbp + offset` (the `strcpy`/`gets`/`read` model).  This is the
    /// vulnerability every attack in the paper exploits.
    CopyInputToFrame {
        /// Displacement of the destination buffer from `%rbp`.
        offset: i32,
    },
    /// A *bounded* copy of at most `max_len` input bytes (the safe variant).
    CopyInputToFrameBounded {
        /// Displacement of the destination buffer from `%rbp`.
        offset: i32,
        /// Upper bound on the number of bytes copied.
        max_len: u32,
    },
    /// Load the length of the process input into a register.
    InputLenToReg(Reg),
    /// Emit one byte of the register to the process output stream (models
    /// `write(1, ..)`; used by victims that leak memory).
    OutputReg(Reg),

    // ---- workload body stand-in --------------------------------------------
    /// Consume `0` cycles of architectural state change but `cycles` cycles
    /// of simulated time: models an arbitrary straight-line computation of
    /// the benchmark body without simulating it instruction by instruction.
    Compute(u64),
}

/// How an instruction uses one of its explicit register operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The operand's value is read.
    Read,
    /// The operand is overwritten without being read.
    Write,
    /// The operand is read, then overwritten with a value computed from it.
    ReadWrite,
}

/// Where control goes after an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Flow {
    /// On to the next instruction.
    #[default]
    Next,
    /// A branch whose taken edge skips the next `skip` instructions (from
    /// index `i` to `i + 1 + skip`); a `conditional` one also falls through.
    #[allow(missing_docs)]
    Branch { skip: usize, conditional: bool },
    /// A call into another function, which returns to the next instruction.
    Call,
    /// `ret`: leaves the function.
    Return,
    /// `__stack_chk_fail`: aborts the process.
    Abort,
}

impl Flow {
    /// Whether execution can continue at the next instruction (the patched
    /// [`Inst::CallCheckCanary32`] is [`Flow::Next`]: it returns on success).
    pub fn falls_through(self) -> bool {
        matches!(self, Flow::Next | Flow::Call | Flow::Branch { conditional: true, .. })
    }
}

/// The one description of an instruction ([`Inst::effects`]): what it reads
/// and writes, where control goes next, what it costs and how large it is.
/// It may over-declare an effect but never under-declares one: `cpu.rs`'s
/// `effects_bound_what_the_interpreter_does` executes every variant and
/// checks that nothing outside it changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Effects {
    /// Registers read: explicit operands and implicit ones (`%rbp` of a
    /// frame access, `%rsp` of a push) alike.
    pub reads: RegSet,
    /// Registers written, explicit and implicit.
    pub writes: RegSet,
    /// Explicit operands read and overwritten with a value computed from
    /// them (`xor`, `add`, `shl`, …): a value's def chain continues there.
    pub updates: RegSet,
    /// Registers written that no operand names: the fixed `%rax:%rdx` of
    /// `rdtsc` and the AES helper, `%rsp` of a push, everything on a call.
    pub implicit_writes: RegSet,
    /// Whether the zero flag is (re)defined.  [`Inst::CallCheckCanary32`]
    /// sets it on a passing check; a failing one never returns.
    pub sets_zero_flag: bool,
    /// A frame store of static extent: `(offset, width)` writes `[offset,
    /// offset + width)` from `%rbp`.  The unbounded [`Inst::CopyInputToFrame`]
    /// has none: its extent is the input's, a runtime overflow vector.
    pub frame_store: Option<(i32, u32)>,
    /// The destination offset of an input copy, bounded or not: the write a
    /// stack protector guards against.
    pub input_copy: Option<i32>,
    /// Where control goes next.
    pub flow: Flow,
    /// The static cycle cost, [`Inst::cycles`].
    pub cycles: u64,
    /// The encoded size in bytes, [`Inst::encoded_size`].
    pub size: u64,
}

/// An explicit register operand and how the instruction uses it.
type Operand<'a> = Option<(&'a mut Reg, Access)>;

impl Inst {
    /// Approximate encoded size of the instruction in bytes.
    ///
    /// The values follow common x86-64 encodings (REX prefixes for extended
    /// registers, disp8 vs disp32 forms) closely enough that relative code
    /// sizes — all that Table II reports — are meaningful.
    #[inline(always)]
    pub fn encoded_size(&self) -> u64 {
        self.implicit().size
    }

    /// Static cycle cost of executing the instruction once.
    ///
    /// # Cost-model convention
    ///
    /// The interpreter's fetch loop charges this static base for **every**
    /// executed instruction, before the instruction runs.  Instructions
    /// whose true cost is data-dependent add a *surcharge* on top during
    /// execution — the base is never subtracted or replaced:
    ///
    /// * [`Inst::Rdrand`] — surcharge is the device-reported total minus
    ///   this base, i.e. the cost of transparent retries; zero when the
    ///   first draw succeeds, so a clean `rdrand` costs exactly
    ///   `cost::RDRAND_CYCLES` in total.
    /// * [`Inst::CopyInputToFrame`] / [`Inst::CopyInputToFrameBounded`] —
    ///   surcharge is `copied_len / 8 + 1` (one cycle per word moved plus
    ///   the call overhead), charged before the write so a copy that
    ///   faults mid-way still paid for the attempt.
    ///
    /// `Cpu::run` follows this convention; the totals are pinned by tests
    /// in `cpu.rs` because these cycles feed every overhead figure the
    /// campaigns report.
    #[inline(always)]
    pub fn cycles(&self) -> u64 {
        self.implicit().cycles
    }

    /// The instruction's one description, which the optimizer and the
    /// verifier read.  Always inlined, so that each caller keeps only the
    /// part it reads (an optimizer pass, say, just the writes).
    #[inline(always)]
    pub fn effects(&self) -> Effects {
        let (mut reads, mut writes, mut updates) = (RegSet::EMPTY, RegSet::EMPTY, RegSet::EMPTY);
        let mut copy = *self;
        let implicit = copy.describe(|reg, access| {
            let reg = RegSet::of(*reg);
            if access != Access::Write {
                reads = reads.union(reg);
            }
            if access != Access::Read {
                writes = writes.union(reg);
            }
            if access == Access::ReadWrite {
                updates = updates.union(reg);
            }
        });
        Effects {
            reads: implicit.reads.union(reads),
            writes: implicit.writes.union(writes),
            updates,
            ..implicit
        }
    }

    /// The description without its explicit operands, for the parts that
    /// none of them changes (cycles, size): no operand register set is
    /// built, so the interpreter's per-instruction charge stays one table
    /// read.
    #[inline(always)]
    fn implicit(&self) -> Effects {
        let mut copy = *self;
        copy.describe(|_, _| {})
    }

    /// Calls `f` on every explicit register operand with its access, so the
    /// operands can be rewritten in place (e.g. to rename a register).
    pub fn for_each_operand_mut(&mut self, f: impl FnMut(&mut Reg, Access)) {
        self.describe(f);
    }

    /// The one exhaustive match behind [`Inst::effects`],
    /// [`Inst::for_each_operand_mut`], [`Inst::cycles`] and
    /// [`Inst::encoded_size`]: hands each explicit register operand to
    /// `operand` and returns the implicit effects, the cycles and the size.
    #[inline(always)]
    fn describe(&mut self, mut operand: impl FnMut(&mut Reg, Access)) -> Effects {
        use cost::{ALU_CYCLES as ALU, MOV_CYCLES as MOV};
        use Access::{Read, ReadWrite, Write};
        const RSP: RegSet = RegSet::of(Reg::Rsp);
        const RBP: RegSet = RegSet::of(Reg::Rbp);
        const RAX_RDX: RegSet = RegSet::of(Reg::Rax).union(RegSet::of(Reg::Rdx));
        const AES_IN: RegSet = RBP.union(RegSet::of(Reg::R12)).union(RegSet::of(Reg::R13));
        let next = Effects::default();
        let implicit = |reads, writes| Effects { reads, writes, implicit_writes: writes, ..next };
        // A `%rbp`-relative access, a push or pop moving `%rsp`, an ALU op.
        let frame = implicit(RBP, RegSet::EMPTY);
        let stack = implicit(RSP, RSP);
        let alu = Effects { sets_zero_flag: true, ..next };
        let store = |offset, width| Effects { frame_store: Some((offset, width)), ..frame };
        let flow = |flow| Effects { flow, ..next };
        // Encoding bytes: a disp8 or disp32 displacement, a REX prefix for
        // `%r8`–`%r15`.
        let disp = |offset: i32| if (-128..=127).contains(&offset) { 1 } else { 4 };
        let rex = |reg: Reg| u64::from(reg.is_extended());
        // An instruction without explicit operands, and one with some.
        let fixed = |effects, cycles, size| Effects { cycles, size, ..effects };
        fn op(reg: &mut Reg, access: Access) -> Operand<'_> {
            Some((reg, access))
        }
        let mut with = |effects, cycles, size, operands: [Operand<'_>; 2]| {
            for (reg, access) in operands.into_iter().flatten() {
                operand(reg, access);
            }
            fixed(effects, cycles, size)
        };
        match self {
            Inst::PushReg(r) => with(stack, 1, 1 + rex(*r), [op(r, Read), None]),
            Inst::PopReg(r) => with(stack, 1, 1 + rex(*r), [op(r, Write), None]),
            // An imm8 up to 127, an imm32 beyond.
            Inst::SubRspImm(imm) | Inst::AddRspImm(imm) => {
                fixed(stack, ALU, if *imm <= 127 { 4 } else { 7 })
            }
            // mov %rbp,%rsp; pop %rbp
            Inst::Leave => fixed(implicit(RBP, RSP.union(RBP)), 2, 1),
            Inst::Ret => fixed(Effects { flow: Flow::Return, ..stack }, 2, 1),
            Inst::MovRegReg { dst, src } => with(next, MOV, 3, [op(src, Read), op(dst, Write)]),
            Inst::MovTlsToReg { dst, .. } => with(next, 2, 9, [op(dst, Write), None]),
            Inst::MovImmToReg { dst, .. } => with(next, MOV, 10, [op(dst, Write), None]),
            Inst::Rdrand(r) => with(next, cost::RDRAND_CYCLES, 4, [op(r, Write), None]),
            Inst::InputLenToReg(r) => with(next, 2, 5, [op(r, Write), None]),
            Inst::MovRegToTls { src, .. } => with(next, 2, 9, [op(src, Read), None]),
            Inst::OutputReg(r) => with(next, 4, 8, [op(r, Read), None]),
            Inst::MovRegToFrame { src, offset } => {
                with(store(*offset, 8), MOV, 3 + disp(*offset), [op(src, Read), None])
            }
            Inst::MovRegToFrame32 { src, offset } => {
                with(store(*offset, 4), MOV, 2 + disp(*offset), [op(src, Read), None])
            }
            Inst::MovImmToFrame { offset, .. } => fixed(store(*offset, 4), MOV, 7 + disp(*offset)),
            Inst::MovFrameToReg { dst, offset } | Inst::LeaFrameToReg { dst, offset } => {
                with(frame, MOV, 3 + disp(*offset), [op(dst, Write), None])
            }
            Inst::MovFrameToReg32 { dst, offset } => {
                with(frame, MOV, 2 + disp(*offset), [op(dst, Write), None])
            }
            Inst::MovMemToReg { dst, base, offset } => {
                with(next, MOV, 3 + disp(*offset), [op(base, Read), op(dst, Write)])
            }
            Inst::MovRegToMem { src, base, offset } => {
                with(next, MOV, 3 + disp(*offset), [op(src, Read), op(base, Read)])
            }
            Inst::XorRegReg { dst, src }
            | Inst::AddRegReg { dst, src }
            | Inst::OrRegReg { dst, src } => with(alu, ALU, 3, [op(src, Read), op(dst, ReadWrite)]),
            Inst::XorTlsReg { dst, .. } => with(alu, ALU, 9, [op(dst, ReadWrite), None]),
            Inst::ShlRegImm { dst, .. } | Inst::ShrRegImm { dst, .. } => {
                with(alu, ALU, 4, [op(dst, ReadWrite), None])
            }
            Inst::CmpFrameReg { reg, offset } => {
                with(Effects { reads: RBP, ..alu }, ALU, 3 + disp(*offset), [op(reg, Read), None])
            }
            Inst::CmpRegImm { reg, .. } => with(alu, ALU, 7, [op(reg, Read), None]),
            Inst::TestReg(r) => with(alu, ALU, 3, [op(r, Read), None]),
            Inst::JeSkip(skip) | Inst::JneSkip(skip) => {
                fixed(flow(Flow::Branch { skip: *skip, conditional: true }), 1, 2)
            }
            Inst::JmpSkip(skip) => {
                fixed(flow(Flow::Branch { skip: *skip, conditional: false }), 1, 2)
            }
            Inst::CallFn(_) => {
                fixed(Effects { flow: Flow::Call, ..implicit(RegSet::ALL, RegSet::ALL) }, 3, 5)
            }
            Inst::CallStackChkFail => fixed(flow(Flow::Abort), 3, 5),
            // The packed canary pair travels in `%rdi`.
            Inst::CallCheckCanary32 => fixed(Effects { reads: RegSet::of(Reg::Rdi), ..alu }, 8, 5),
            Inst::Nop => fixed(next, 1, 1),
            // rdtsc (2) + shl $0x20,%rdx (4) + or %rdx,%rax (3): the folded
            // sequence writes `%rdx` too, though the interpreter only sets `%rax`.
            Inst::Rdtsc => fixed(implicit(RegSet::EMPTY, RAX_RDX), cost::RDTSC_CYCLES, 9),
            // Encrypts (nonce, the return address at 8(%rbp)) under r12:r13;
            // the movq/movhps/movq/punpckhdq/callq sequence of Code 8.
            Inst::AesEncryptFrame { nonce } => {
                with(implicit(AES_IN, RAX_RDX), cost::AES_BLOCK_CYCLES, 24, [op(nonce, Read), None])
            }
            Inst::RecordCanaryAddress { .. } => fixed(frame, 6, 12),
            Inst::PopCanaryAddress => fixed(next, 3, 8),
            Inst::LinkCanaryPush { .. } => fixed(frame, 9, 14),
            Inst::LinkCanaryPop { .. } => fixed(next, 9, 14),
            Inst::CopyInputToFrame { offset } => {
                fixed(Effects { input_copy: Some(*offset), ..frame }, 10, 12)
            }
            Inst::CopyInputToFrameBounded { offset, max_len } => {
                fixed(Effects { input_copy: Some(*offset), ..store(*offset, *max_len) }, 10, 15)
            }
            Inst::Compute(cycles) => fixed(next, *cycles, 16),
        }
    }
}

/// Whether `insts[index]` guards an abort: `je +1` directly followed by
/// `__stack_chk_fail`, so its taken edge is the path where the check passed.
pub fn is_abort_guard(insts: &[Inst], index: usize) -> bool {
    matches!(insts.get(index), Some(Inst::JeSkip(1)))
        && matches!(insts.get(index + 1), Some(Inst::CallStackChkFail))
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::PushReg(r) => write!(f, "push %{r}"),
            Inst::PopReg(r) => write!(f, "pop %{r}"),
            Inst::MovRegReg { dst, src } => write!(f, "mov %{src},%{dst}"),
            Inst::SubRspImm(imm) => write!(f, "sub ${imm:#x},%rsp"),
            Inst::AddRspImm(imm) => write!(f, "add ${imm:#x},%rsp"),
            Inst::Leave => write!(f, "leaveq"),
            Inst::Ret => write!(f, "retq"),
            Inst::MovTlsToReg { dst, offset } => write!(f, "mov %fs:{offset:#x},%{dst}"),
            Inst::MovRegToTls { src, offset } => write!(f, "mov %{src},%fs:{offset:#x}"),
            Inst::MovRegToFrame { src, offset } => write!(f, "mov %{src},{offset:#x}(%rbp)"),
            Inst::MovFrameToReg { dst, offset } => write!(f, "mov {offset:#x}(%rbp),%{dst}"),
            Inst::MovFrameToReg32 { dst, offset } => write!(f, "mov {offset:#x}(%rbp),%{dst}d"),
            Inst::MovRegToFrame32 { src, offset } => write!(f, "mov %{src}d,{offset:#x}(%rbp)"),
            Inst::MovImmToReg { dst, imm } => write!(f, "mov ${imm:#x},%{dst}"),
            Inst::MovImmToFrame { offset, imm } => write!(f, "movl ${imm:#x},{offset:#x}(%rbp)"),
            Inst::LeaFrameToReg { dst, offset } => write!(f, "lea {offset:#x}(%rbp),%{dst}"),
            Inst::MovMemToReg { dst, base, offset } => {
                write!(f, "mov {offset:#x}(%{base}),%{dst}")
            }
            Inst::MovRegToMem { src, base, offset } => {
                write!(f, "mov %{src},{offset:#x}(%{base})")
            }
            Inst::XorRegReg { dst, src } => write!(f, "xor %{src},%{dst}"),
            Inst::XorTlsReg { dst, offset } => write!(f, "xor %fs:{offset:#x},%{dst}"),
            Inst::AddRegReg { dst, src } => write!(f, "add %{src},%{dst}"),
            Inst::ShlRegImm { dst, amount } => write!(f, "shl ${amount},%{dst}"),
            Inst::ShrRegImm { dst, amount } => write!(f, "shr ${amount},%{dst}"),
            Inst::OrRegReg { dst, src } => write!(f, "or %{src},%{dst}"),
            Inst::CmpFrameReg { reg, offset } => write!(f, "cmp %{reg},{offset:#x}(%rbp)"),
            Inst::CmpRegImm { reg, imm } => write!(f, "cmp ${imm:#x},%{reg}"),
            Inst::TestReg(r) => write!(f, "test %{r},%{r}"),
            Inst::JeSkip(n) => write!(f, "je +{n}"),
            Inst::JneSkip(n) => write!(f, "jne +{n}"),
            Inst::JmpSkip(n) => write!(f, "jmp +{n}"),
            Inst::CallFn(id) => write!(f, "callq <{id}>"),
            Inst::CallStackChkFail => write!(f, "callq <__stack_chk_fail@plt>"),
            Inst::CallCheckCanary32 => write!(f, "callq <__stack_chk_fail@plt> ; patched check"),
            Inst::Nop => write!(f, "nop"),
            Inst::Rdrand(r) => write!(f, "rdrand %{r}"),
            Inst::Rdtsc => write!(f, "rdtsc ; shl $0x20,%rdx ; or %rdx,%rax"),
            Inst::AesEncryptFrame { nonce } => {
                write!(f, "callq <AES_ENCRYPT_128> ; nonce=%{nonce}")
            }
            Inst::RecordCanaryAddress { offset } => {
                write!(f, "dynaguard.record {offset:#x}(%rbp)")
            }
            Inst::PopCanaryAddress => write!(f, "dynaguard.pop"),
            Inst::LinkCanaryPush { offset } => write!(f, "dcr.link {offset:#x}(%rbp)"),
            Inst::LinkCanaryPop { offset } => write!(f, "dcr.unlink {offset:#x}(%rbp)"),
            Inst::CopyInputToFrame { offset } => {
                write!(f, "callq <strcpy> ; dst={offset:#x}(%rbp)")
            }
            Inst::CopyInputToFrameBounded { offset, max_len } => {
                write!(f, "callq <strncpy> ; dst={offset:#x}(%rbp) n={max_len}")
            }
            Inst::InputLenToReg(r) => write!(f, "callq <strlen> ; -> %{r}"),
            Inst::OutputReg(r) => write!(f, "callq <write> ; %{r}"),
            Inst::Compute(c) => write!(f, "<body: {c} cycles>"),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn ssp_prologue_size_matches_real_code() {
        // Code 1 of the paper: push %rbp; mov %rsp,%rbp; sub $0x10,%rsp;
        // mov %fs:0x28,%rax; mov %rax,-0x8(%rbp).
        let prologue = [
            Inst::PushReg(Reg::Rbp),
            Inst::MovRegReg { dst: Reg::Rbp, src: Reg::Rsp },
            Inst::SubRspImm(0x10),
            Inst::MovTlsToReg { dst: Reg::Rax, offset: 0x28 },
            Inst::MovRegToFrame { src: Reg::Rax, offset: -0x8 },
        ];
        let size: u64 = prologue.iter().map(Inst::encoded_size).sum();
        // The real sequence assembles to 1+3+4+9+4 = 21 bytes.
        assert_eq!(size, 21);
    }

    #[test]
    fn pssp_prologue_differs_only_by_tls_offset_size() {
        // §V-C: the instrumentation-based P-SSP prologue is identical to the
        // SSP prologue except for the TLS offset, so the encoded sizes must
        // be equal (layout preservation).
        let ssp = Inst::MovTlsToReg { dst: Reg::Rax, offset: 0x28 };
        let pssp = Inst::MovTlsToReg { dst: Reg::Rax, offset: 0x2a8 };
        assert_eq!(ssp.encoded_size(), pssp.encoded_size());
    }

    #[test]
    fn rewriter_epilogue_size_matches_ssp_epilogue() {
        // Code 2 (SSP epilogue) and Code 6 (instrumented epilogue) must have
        // the same total size for address-layout preservation.
        let ssp_epilogue = [
            Inst::MovFrameToReg { dst: Reg::Rdx, offset: -0x8 },
            Inst::XorTlsReg { dst: Reg::Rdx, offset: 0x28 },
            Inst::JeSkip(1),
            Inst::CallStackChkFail,
            Inst::Leave,
            Inst::Ret,
        ];
        let rewritten = [
            Inst::MovFrameToReg { dst: Reg::Rdx, offset: -0x8 },
            Inst::PushReg(Reg::Rdi),
            Inst::PushReg(Reg::Rdx),
            Inst::PopReg(Reg::Rdi),
            Inst::CallCheckCanary32,
            Inst::PopReg(Reg::Rdi),
            Inst::JeSkip(1),
            Inst::CallStackChkFail,
            Inst::Leave,
            Inst::Ret,
        ];
        let a: u64 = ssp_epilogue.iter().map(Inst::encoded_size).sum();
        let b: u64 = rewritten.iter().map(Inst::encoded_size).sum();
        assert_eq!(a, b, "rewritten epilogue must not change the code layout");
    }

    #[test]
    fn expensive_instructions_cost_more_than_moves() {
        assert!(
            Inst::Rdrand(Reg::Rax).cycles()
                > 100 * Inst::MovRegReg { dst: Reg::Rax, src: Reg::Rbx }.cycles()
        );
        assert!(Inst::AesEncryptFrame { nonce: Reg::Rax }.cycles() > 50);
        assert!(
            Inst::Rdrand(Reg::Rax).cycles() > Inst::AesEncryptFrame { nonce: Reg::Rax }.cycles()
        );
    }

    #[test]
    fn compute_cycles_are_pass_through() {
        assert_eq!(Inst::Compute(12345).cycles(), 12345);
    }

    #[test]
    fn extended_register_push_is_larger() {
        assert_eq!(Inst::PushReg(Reg::Rbp).encoded_size(), 1);
        assert_eq!(Inst::PushReg(Reg::R12).encoded_size(), 2);
    }

    #[test]
    fn large_displacements_use_disp32() {
        let near = Inst::MovRegToFrame { src: Reg::Rax, offset: -0x8 };
        let far = Inst::MovRegToFrame { src: Reg::Rax, offset: -0x400 };
        assert_eq!(near.encoded_size(), 4);
        assert_eq!(far.encoded_size(), 7);
    }

    #[test]
    fn display_is_att_flavoured() {
        let inst = Inst::MovTlsToReg { dst: Reg::Rax, offset: 0x28 };
        assert_eq!(inst.to_string(), "mov %fs:0x28,%rax");
        let inst = Inst::XorTlsReg { dst: Reg::Rdx, offset: 0x28 };
        assert_eq!(inst.to_string(), "xor %fs:0x28,%rdx");
    }

    #[test]
    fn call_and_ret_classification() {
        assert_eq!(Inst::CallFn(FuncId(3)).effects().flow, Flow::Call);
        assert_eq!(Inst::CallStackChkFail.effects().flow, Flow::Abort);
        assert_eq!(Inst::Ret.effects().flow, Flow::Return);
        assert_eq!(Inst::Leave.effects().flow, Flow::Next);
    }

    /// Number of `Inst` variants, pinned by [`variant_ordinal`]'s exhaustive
    /// match below.
    pub(crate) const VARIANT_COUNT: usize = 46;

    /// Sequential ordinal of an instruction's variant.
    ///
    /// The match is exhaustive *without a wildcard arm* (the crate-internal
    /// view of the `#[non_exhaustive]` enum), so adding a variant fails this
    /// module at compile time until both this function and [`samples`] are
    /// extended — a new instruction can't silently inherit an untested size,
    /// cycle cost or effects description.
    pub(crate) fn variant_ordinal(inst: &Inst) -> usize {
        match inst {
            Inst::PushReg(_) => 0,
            Inst::PopReg(_) => 1,
            Inst::MovRegReg { .. } => 2,
            Inst::SubRspImm(_) => 3,
            Inst::AddRspImm(_) => 4,
            Inst::Leave => 5,
            Inst::Ret => 6,
            Inst::MovTlsToReg { .. } => 7,
            Inst::MovRegToTls { .. } => 8,
            Inst::MovRegToFrame { .. } => 9,
            Inst::MovFrameToReg { .. } => 10,
            Inst::MovFrameToReg32 { .. } => 11,
            Inst::MovRegToFrame32 { .. } => 12,
            Inst::MovImmToReg { .. } => 13,
            Inst::MovImmToFrame { .. } => 14,
            Inst::LeaFrameToReg { .. } => 15,
            Inst::MovMemToReg { .. } => 16,
            Inst::MovRegToMem { .. } => 17,
            Inst::XorRegReg { .. } => 18,
            Inst::XorTlsReg { .. } => 19,
            Inst::AddRegReg { .. } => 20,
            Inst::ShlRegImm { .. } => 21,
            Inst::ShrRegImm { .. } => 22,
            Inst::OrRegReg { .. } => 23,
            Inst::CmpFrameReg { .. } => 24,
            Inst::CmpRegImm { .. } => 25,
            Inst::TestReg(_) => 26,
            Inst::JeSkip(_) => 27,
            Inst::JneSkip(_) => 28,
            Inst::JmpSkip(_) => 29,
            Inst::CallFn(_) => 30,
            Inst::CallStackChkFail => 31,
            Inst::CallCheckCanary32 => 32,
            Inst::Nop => 33,
            Inst::Rdrand(_) => 34,
            Inst::Rdtsc => 35,
            Inst::AesEncryptFrame { .. } => 36,
            Inst::RecordCanaryAddress { .. } => 37,
            Inst::PopCanaryAddress => 38,
            Inst::LinkCanaryPush { .. } => 39,
            Inst::LinkCanaryPop { .. } => 40,
            Inst::CopyInputToFrame { .. } => 41,
            Inst::CopyInputToFrameBounded { .. } => 42,
            Inst::InputLenToReg(_) => 43,
            Inst::OutputReg(_) => 44,
            Inst::Compute(_) => 45,
        }
    }

    /// One sample of every variant: the size, cycle and effects tests (the
    /// last in `cpu.rs`, against the interpreter) all run over this list.
    pub(crate) fn samples() -> Vec<Inst> {
        vec![
            Inst::PushReg(Reg::Rbp),
            Inst::PopReg(Reg::Rdi),
            Inst::MovRegReg { dst: Reg::Rbp, src: Reg::Rsp },
            Inst::SubRspImm(0x10),
            Inst::AddRspImm(0x200),
            Inst::Leave,
            Inst::Ret,
            Inst::MovTlsToReg { dst: Reg::Rax, offset: 0x28 },
            Inst::MovRegToTls { src: Reg::Rax, offset: 0x2a8 },
            Inst::MovRegToFrame { src: Reg::Rax, offset: -8 },
            Inst::MovFrameToReg { dst: Reg::Rax, offset: -8 },
            Inst::MovFrameToReg32 { dst: Reg::Rdi, offset: -8 },
            Inst::MovRegToFrame32 { src: Reg::Rdi, offset: -8 },
            Inst::MovImmToReg { dst: Reg::Rax, imm: 1 },
            Inst::MovImmToFrame { offset: -16, imm: 2 },
            Inst::LeaFrameToReg { dst: Reg::Rdi, offset: -64 },
            Inst::MovMemToReg { dst: Reg::Rax, base: Reg::Rbx, offset: 0 },
            Inst::MovRegToMem { src: Reg::Rax, base: Reg::Rbx, offset: 0 },
            Inst::XorRegReg { dst: Reg::Rdx, src: Reg::Rdi },
            Inst::XorTlsReg { dst: Reg::Rdx, offset: 0x28 },
            Inst::AddRegReg { dst: Reg::Rax, src: Reg::Rbx },
            Inst::ShlRegImm { dst: Reg::Rdx, amount: 32 },
            Inst::ShrRegImm { dst: Reg::Rdi, amount: 32 },
            Inst::OrRegReg { dst: Reg::Rax, src: Reg::Rdx },
            Inst::CmpFrameReg { reg: Reg::Rax, offset: -24 },
            Inst::CmpRegImm { reg: Reg::Rax, imm: 0 },
            Inst::TestReg(Reg::Rax),
            Inst::JeSkip(1),
            Inst::JneSkip(2),
            Inst::JmpSkip(3),
            Inst::CallFn(FuncId(0)),
            Inst::CallStackChkFail,
            Inst::CallCheckCanary32,
            Inst::Nop,
            Inst::Rdrand(Reg::Rax),
            Inst::Rdtsc,
            Inst::AesEncryptFrame { nonce: Reg::Rax },
            Inst::RecordCanaryAddress { offset: -8 },
            Inst::PopCanaryAddress,
            Inst::LinkCanaryPush { offset: -8 },
            Inst::LinkCanaryPop { offset: -8 },
            Inst::CopyInputToFrame { offset: -64 },
            Inst::CopyInputToFrameBounded { offset: -64, max_len: 64 },
            Inst::InputLenToReg(Reg::Rax),
            Inst::OutputReg(Reg::Rax),
            Inst::Compute(100),
        ]
    }

    #[test]
    fn every_instruction_has_nonzero_size_and_cycles() {
        let mut covered = [false; VARIANT_COUNT];
        for inst in samples() {
            covered[variant_ordinal(&inst)] = true;
            assert!(inst.encoded_size() > 0, "{inst} has zero size");
            assert!(inst.cycles() > 0, "{inst} has zero cycles");
            // Display must never be empty (C-DEBUG-NONEMPTY analogue).
            assert!(!inst.to_string().is_empty());
        }
        let missing: Vec<usize> = (0..VARIANT_COUNT).filter(|&ordinal| !covered[ordinal]).collect();
        assert!(missing.is_empty(), "sample list misses variant ordinal(s) {missing:?}");
    }

    /// `(instruction, encoded_size, cycles)` written out literally: every
    /// [`samples`] entry, then the boundary forms of each size rule (disp8
    /// vs disp32 at -128/-129 and 127/128, REX-prefixed push/pop, imm8 vs
    /// imm32 stack adjustments, operand-independent sizes, a zero-cycle body).
    #[rustfmt::skip]
    fn size_and_cycle_table() -> Vec<(Inst, u64, u64)> {
        use Reg::{Rax, Rbp, Rbx, Rdi, Rdx, Rsp, R12};
        vec![
            (Inst::PushReg(Rbp), 1, 1),
            (Inst::PopReg(Rdi), 1, 1),
            (Inst::MovRegReg { dst: Rbp, src: Rsp }, 3, 1),
            (Inst::SubRspImm(0x10), 4, 1),
            (Inst::AddRspImm(0x200), 7, 1),
            (Inst::Leave, 1, 2),
            (Inst::Ret, 1, 2),
            (Inst::MovTlsToReg { dst: Rax, offset: 0x28 }, 9, 2),
            (Inst::MovRegToTls { src: Rax, offset: 0x2a8 }, 9, 2),
            (Inst::MovRegToFrame { src: Rax, offset: -8 }, 4, 1),
            (Inst::MovFrameToReg { dst: Rax, offset: -8 }, 4, 1),
            (Inst::MovFrameToReg32 { dst: Rdi, offset: -8 }, 3, 1),
            (Inst::MovRegToFrame32 { src: Rdi, offset: -8 }, 3, 1),
            (Inst::MovImmToReg { dst: Rax, imm: 1 }, 10, 1),
            (Inst::MovImmToFrame { offset: -16, imm: 2 }, 8, 1),
            (Inst::LeaFrameToReg { dst: Rdi, offset: -64 }, 4, 1),
            (Inst::MovMemToReg { dst: Rax, base: Rbx, offset: 0 }, 4, 1),
            (Inst::MovRegToMem { src: Rax, base: Rbx, offset: 0 }, 4, 1),
            (Inst::XorRegReg { dst: Rdx, src: Rdi }, 3, 1),
            (Inst::XorTlsReg { dst: Rdx, offset: 0x28 }, 9, 1),
            (Inst::AddRegReg { dst: Rax, src: Rbx }, 3, 1),
            (Inst::ShlRegImm { dst: Rdx, amount: 32 }, 4, 1),
            (Inst::ShrRegImm { dst: Rdi, amount: 32 }, 4, 1),
            (Inst::OrRegReg { dst: Rax, src: Rdx }, 3, 1),
            (Inst::CmpFrameReg { reg: Rax, offset: -24 }, 4, 1),
            (Inst::CmpRegImm { reg: Rax, imm: 0 }, 7, 1),
            (Inst::TestReg(Rax), 3, 1),
            (Inst::JeSkip(1), 2, 1),
            (Inst::JneSkip(2), 2, 1),
            (Inst::JmpSkip(3), 2, 1),
            (Inst::CallFn(FuncId(0)), 5, 3),
            (Inst::CallStackChkFail, 5, 3),
            (Inst::CallCheckCanary32, 5, 8),
            (Inst::Nop, 1, 1),
            (Inst::Rdrand(Rax), 4, 340),
            (Inst::Rdtsc, 9, 24),
            (Inst::AesEncryptFrame { nonce: Rax }, 24, 130),
            (Inst::RecordCanaryAddress { offset: -8 }, 12, 6),
            (Inst::PopCanaryAddress, 8, 3),
            (Inst::LinkCanaryPush { offset: -8 }, 14, 9),
            (Inst::LinkCanaryPop { offset: -8 }, 14, 9),
            (Inst::CopyInputToFrame { offset: -64 }, 12, 10),
            (Inst::CopyInputToFrameBounded { offset: -64, max_len: 64 }, 15, 10),
            (Inst::InputLenToReg(Rax), 5, 2),
            (Inst::OutputReg(Rax), 8, 4),
            (Inst::Compute(100), 16, 100),
            // disp8 ends at -128 and 127 ...
            (Inst::MovRegToFrame { src: Rax, offset: -128 }, 4, 1),
            (Inst::MovRegToFrame { src: Rax, offset: 127 }, 4, 1),
            (Inst::CmpFrameReg { reg: Rax, offset: -128 }, 4, 1),
            (Inst::CmpFrameReg { reg: Rax, offset: 127 }, 4, 1),
            // ... and every displacement form widens to disp32 past it.
            (Inst::MovRegToFrame { src: Rax, offset: -129 }, 7, 1),
            (Inst::MovRegToFrame { src: Rax, offset: 128 }, 7, 1),
            (Inst::MovFrameToReg { dst: Rax, offset: -129 }, 7, 1),
            (Inst::MovFrameToReg { dst: Rax, offset: 128 }, 7, 1),
            (Inst::MovFrameToReg32 { dst: Rdi, offset: -129 }, 6, 1),
            (Inst::MovRegToFrame32 { src: Rdi, offset: 128 }, 6, 1),
            (Inst::MovImmToFrame { offset: -129, imm: 2 }, 11, 1),
            (Inst::MovImmToFrame { offset: 127, imm: 2 }, 8, 1),
            (Inst::LeaFrameToReg { dst: Rdi, offset: 128 }, 7, 1),
            (Inst::LeaFrameToReg { dst: Rdi, offset: -128 }, 4, 1),
            (Inst::MovMemToReg { dst: Rax, base: Rbx, offset: -129 }, 7, 1),
            (Inst::MovRegToMem { src: Rax, base: Rbx, offset: 128 }, 7, 1),
            (Inst::MovRegToMem { src: Rax, base: Rbx, offset: -128 }, 4, 1),
            (Inst::CmpFrameReg { reg: Rax, offset: -129 }, 7, 1),
            (Inst::CmpFrameReg { reg: Rax, offset: 128 }, 7, 1),
            // A REX prefix for %r8-%r15 only.
            (Inst::PushReg(R12), 2, 1),
            (Inst::PopReg(Rbp), 1, 1),
            (Inst::PopReg(R12), 2, 1),
            // imm8 up to 127, imm32 from 128.
            (Inst::SubRspImm(127), 4, 1),
            (Inst::SubRspImm(128), 7, 1),
            (Inst::AddRspImm(127), 4, 1),
            (Inst::AddRspImm(128), 7, 1),
            // Sizes that no operand changes.
            (Inst::MovRegReg { dst: R12, src: Rsp }, 3, 1),
            (Inst::RecordCanaryAddress { offset: -0x400 }, 12, 6),
            (Inst::CopyInputToFrame { offset: -0x400 }, 12, 10),
            (Inst::CopyInputToFrameBounded { offset: 0x400, max_len: 0x1000 }, 15, 10),
            (Inst::Compute(0), 16, 0),
        ]
    }

    #[test]
    fn sizes_and_cycles_match_the_literal_table() {
        let table = size_and_cycle_table();
        for inst in samples() {
            assert!(table.iter().any(|(row, ..)| *row == inst), "{inst} is not in the table");
        }
        for (inst, size, cycles) in table {
            assert_eq!((inst.encoded_size(), inst.cycles()), (size, cycles), "{inst}");
        }
    }

    #[test]
    fn branch_skip_and_fall_through_classification() {
        let flow = |inst: Inst| inst.effects().flow;
        assert_eq!(flow(Inst::JeSkip(1)), Flow::Branch { skip: 1, conditional: true });
        assert_eq!(flow(Inst::JneSkip(2)), Flow::Branch { skip: 2, conditional: true });
        assert_eq!(flow(Inst::JmpSkip(3)), Flow::Branch { skip: 3, conditional: false });
        assert_eq!(flow(Inst::Nop), Flow::Next);
        // Fall-through: jmp always diverts, ret leaves, __stack_chk_fail
        // aborts; the patched 32-bit check *returns* on success.
        assert!(!flow(Inst::JmpSkip(1)).falls_through());
        assert!(!flow(Inst::Ret).falls_through());
        assert!(!flow(Inst::CallStackChkFail).falls_through());
        assert!(flow(Inst::JeSkip(1)).falls_through());
        assert!(flow(Inst::CallCheckCanary32).falls_through());
        assert!(flow(Inst::CallFn(FuncId(0))).falls_through());
    }

    #[test]
    fn frame_store_extents_match_interpreter_widths() {
        let store = |inst: Inst| inst.effects().frame_store;
        let copy = |inst: Inst| inst.effects().input_copy;
        assert_eq!(store(Inst::MovRegToFrame { src: Reg::Rax, offset: -8 }), Some((-8, 8)));
        assert_eq!(store(Inst::MovRegToFrame32 { src: Reg::Rdi, offset: -8 }), Some((-8, 4)));
        assert_eq!(store(Inst::MovImmToFrame { offset: -16, imm: 7 }), Some((-16, 4)));
        let bounded = Inst::CopyInputToFrameBounded { offset: -64, max_len: 48 };
        assert_eq!(store(bounded), Some((-64, 48)));
        // The unbounded copy has no static extent — it is the overflow vector.
        assert_eq!(store(Inst::CopyInputToFrame { offset: -64 }), None);
        assert_eq!(copy(Inst::CopyInputToFrame { offset: -64 }), Some(-64));
        assert_eq!(copy(bounded), Some(-64));
        assert_eq!(copy(Inst::MovRegToFrame { src: Reg::Rax, offset: -8 }), None);
    }

    #[test]
    fn zero_flag_setters_match_the_cpu() {
        for setter in [
            Inst::XorRegReg { dst: Reg::Rdx, src: Reg::Rdi },
            Inst::XorTlsReg { dst: Reg::Rdx, offset: 0x28 },
            Inst::CmpFrameReg { reg: Reg::Rax, offset: -16 },
            Inst::CmpRegImm { reg: Reg::Rax, imm: 0 },
            Inst::TestReg(Reg::Rax),
            Inst::CallCheckCanary32,
        ] {
            assert!(setter.effects().sets_zero_flag, "{setter}");
        }
        for non_setter in [
            Inst::MovRegToFrame { src: Reg::Rax, offset: -8 },
            Inst::PushReg(Reg::Rdi),
            Inst::PopReg(Reg::Rdi),
            Inst::JeSkip(1),
            Inst::CallStackChkFail,
        ] {
            assert!(!non_setter.effects().sets_zero_flag, "{non_setter}");
        }
    }

    #[test]
    fn operands_are_renamed_through_the_description() {
        let mut inst = Inst::MovMemToReg { dst: Reg::Rax, base: Reg::Rax, offset: 8 };
        inst.for_each_operand_mut(|reg, _| {
            if *reg == Reg::Rax {
                *reg = Reg::R9;
            }
        });
        assert_eq!(inst, Inst::MovMemToReg { dst: Reg::R9, base: Reg::R9, offset: 8 });
        // Implicit operands are fixed: the AES helper keeps `%rax:%rdx`.
        let aes = Inst::AesEncryptFrame { nonce: Reg::Rax };
        let effects = aes.effects();
        assert!(effects.reads.contains(Reg::Rax) && effects.implicit_writes.contains(Reg::Rax));
        assert_eq!(effects.updates, RegSet::EMPTY);
        let xor = Inst::XorRegReg { dst: Reg::Rdx, src: Reg::Rdi }.effects();
        assert_eq!(xor.updates, RegSet::of(Reg::Rdx));
        assert_eq!(xor.implicit_writes, RegSet::EMPTY);
    }

    #[test]
    fn only_je_over_stack_chk_fail_guards_an_abort() {
        let guard = [Inst::JeSkip(1), Inst::CallStackChkFail];
        assert!(is_abort_guard(&guard, 0));
        assert!(!is_abort_guard(&guard, 1));
        assert!(!is_abort_guard(&[Inst::JneSkip(1), Inst::CallStackChkFail], 0));
        assert!(!is_abort_guard(&[Inst::JeSkip(1), Inst::Nop], 0));
        assert!(!is_abort_guard(&[Inst::JeSkip(1)], 0));
    }
}
