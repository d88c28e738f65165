//! The instruction set of the simulated machine.
//!
//! The set is deliberately small: it contains exactly the instructions that
//! appear in the paper's prologue/epilogue listings (Codes 1–9), the handful
//! of pseudo-instructions needed to model library calls such as `strcpy`
//! (the overflow vector) and the bookkeeping that the DynaGuard / DCR
//! baselines perform, plus a generic [`Inst::Compute`] instruction standing
//! in for arbitrary function-body work.
//!
//! Every instruction has
//!
//! * an **encoded size** in bytes approximating its x86-64 encoding — used by
//!   the code-expansion experiment (Table II) and by the binary rewriter's
//!   layout-preservation checks (§V-C), and
//! * a **cycle cost** — used by the runtime-overhead experiments (Fig. 5,
//!   Tables III–V).

use std::fmt;

use polycanary_crypto::cost;

use crate::reg::Reg;

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

impl Inst {
    /// Approximate encoded size of the instruction in bytes.
    ///
    /// The values follow common x86-64 encodings (REX prefixes for extended
    /// registers, disp8 vs disp32 forms) closely enough that relative code
    /// sizes — all that Table II reports — are meaningful.
    pub fn encoded_size(&self) -> u64 {
        fn disp_size(offset: i32) -> u64 {
            if (-128..=127).contains(&offset) {
                1
            } else {
                4
            }
        }
        match self {
            Inst::PushReg(r) | Inst::PopReg(r) => {
                if r.is_extended() {
                    2
                } else {
                    1
                }
            }
            Inst::MovRegReg { .. } => 3,
            Inst::SubRspImm(imm) | Inst::AddRspImm(imm) => {
                if *imm <= 127 {
                    4
                } else {
                    7
                }
            }
            Inst::Leave => 1,
            Inst::Ret => 1,
            Inst::MovTlsToReg { .. } | Inst::MovRegToTls { .. } => 9,
            Inst::MovRegToFrame { offset, .. } | Inst::MovFrameToReg { offset, .. } => {
                3 + disp_size(*offset)
            }
            Inst::MovFrameToReg32 { offset, .. } | Inst::MovRegToFrame32 { offset, .. } => {
                2 + disp_size(*offset)
            }
            Inst::MovImmToReg { .. } => 10,
            Inst::MovImmToFrame { offset, .. } => 7 + disp_size(*offset),
            Inst::LeaFrameToReg { offset, .. } => 3 + disp_size(*offset),
            Inst::MovMemToReg { offset, .. } | Inst::MovRegToMem { offset, .. } => {
                3 + disp_size(*offset)
            }
            Inst::XorRegReg { .. } => 3,
            Inst::XorTlsReg { .. } => 9,
            Inst::AddRegReg { .. } => 3,
            Inst::ShlRegImm { .. } | Inst::ShrRegImm { .. } => 4,
            Inst::OrRegReg { .. } => 3,
            Inst::CmpFrameReg { offset, .. } => 3 + disp_size(*offset),
            Inst::CmpRegImm { .. } => 7,
            Inst::TestReg(_) => 3,
            Inst::JeSkip(_) | Inst::JneSkip(_) | Inst::JmpSkip(_) => 2,
            Inst::CallFn(_) => 5,
            Inst::CallStackChkFail => 5,
            Inst::CallCheckCanary32 => 5,
            Inst::Nop => 1,
            Inst::Rdrand(_) => 4,
            // rdtsc (2) + shl $0x20,%rdx (4) + or %rdx,%rax (3)
            Inst::Rdtsc => 9,
            // movq/movhps/movq/punpckhdq/callq sequence of Code 8
            Inst::AesEncryptFrame { .. } => 24,
            Inst::RecordCanaryAddress { .. } => 12,
            Inst::PopCanaryAddress => 8,
            Inst::LinkCanaryPush { .. } => 14,
            Inst::LinkCanaryPop { .. } => 14,
            Inst::CopyInputToFrame { .. } => 12,
            Inst::CopyInputToFrameBounded { .. } => 15,
            Inst::InputLenToReg(_) => 5,
            Inst::OutputReg(_) => 8,
            Inst::Compute(_) => 16,
        }
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
    pub fn cycles(&self) -> u64 {
        match self {
            Inst::PushReg(_) | Inst::PopReg(_) => 1,
            Inst::MovRegReg { .. } => cost::MOV_CYCLES,
            Inst::SubRspImm(_) | Inst::AddRspImm(_) => cost::ALU_CYCLES,
            Inst::Leave => 2,
            Inst::Ret => 2,
            Inst::MovTlsToReg { .. } | Inst::MovRegToTls { .. } => 2,
            Inst::MovRegToFrame { .. }
            | Inst::MovFrameToReg { .. }
            | Inst::MovFrameToReg32 { .. }
            | Inst::MovRegToFrame32 { .. }
            | Inst::MovImmToFrame { .. }
            | Inst::MovMemToReg { .. }
            | Inst::MovRegToMem { .. } => cost::MOV_CYCLES,
            Inst::MovImmToReg { .. } | Inst::LeaFrameToReg { .. } => cost::MOV_CYCLES,
            Inst::XorRegReg { .. }
            | Inst::XorTlsReg { .. }
            | Inst::AddRegReg { .. }
            | Inst::ShlRegImm { .. }
            | Inst::ShrRegImm { .. }
            | Inst::OrRegReg { .. }
            | Inst::CmpFrameReg { .. }
            | Inst::CmpRegImm { .. }
            | Inst::TestReg(_) => cost::ALU_CYCLES,
            Inst::JeSkip(_) | Inst::JneSkip(_) | Inst::JmpSkip(_) => 1,
            Inst::CallFn(_) => 3,
            Inst::CallStackChkFail => 3,
            Inst::CallCheckCanary32 => 8,
            Inst::Nop => 1,
            Inst::Rdrand(_) => cost::RDRAND_CYCLES,
            Inst::Rdtsc => cost::RDTSC_CYCLES,
            Inst::AesEncryptFrame { .. } => cost::AES_BLOCK_CYCLES,
            Inst::RecordCanaryAddress { .. } => 6,
            Inst::PopCanaryAddress => 3,
            Inst::LinkCanaryPush { .. } => 9,
            Inst::LinkCanaryPop { .. } => 9,
            Inst::CopyInputToFrame { .. } | Inst::CopyInputToFrameBounded { .. } => 10,
            Inst::InputLenToReg(_) => 2,
            Inst::OutputReg(_) => 4,
            Inst::Compute(cycles) => *cycles,
        }
    }

    /// Whether this instruction transfers control to another function.
    pub fn is_call(&self) -> bool {
        matches!(self, Inst::CallFn(_))
    }

    /// Whether this instruction terminates the current function.
    pub fn is_ret(&self) -> bool {
        matches!(self, Inst::Ret)
    }

    // ---- CFG-support accessors --------------------------------------------
    //
    // Control-flow and memory-effect classification consumed by CFG builders
    // and dataflow passes (the `polycanary-verifier` crate); kept here so the
    // classification lives next to the instruction set and cannot drift when
    // variants are added.

    /// For a branch (`je`/`jne`/`jmp`), the number of following instructions
    /// skipped when the branch is taken: the taken-edge target of the
    /// instruction at index `i` is index `i + 1 + skip`.
    pub fn branch_skip(&self) -> Option<usize> {
        match self {
            Inst::JeSkip(n) | Inst::JneSkip(n) | Inst::JmpSkip(n) => Some(*n),
            _ => None,
        }
    }

    /// Whether this is a conditional branch (both the taken and the
    /// fall-through edge are possible).
    pub fn is_conditional_branch(&self) -> bool {
        matches!(self, Inst::JeSkip(_) | Inst::JneSkip(_))
    }

    /// Whether execution can continue at the next instruction.
    ///
    /// `ret` leaves the function, `jmp` always takes its skip edge, and
    /// `__stack_chk_fail` aborts the process ([`crate::error::Fault::CanaryViolation`]) —
    /// none of them has a fall-through successor.  Every other instruction
    /// (including [`Inst::CallCheckCanary32`], which returns with ZF set when
    /// the check passes) falls through.
    pub fn falls_through(&self) -> bool {
        !matches!(self, Inst::Ret | Inst::JmpSkip(_) | Inst::CallStackChkFail)
    }

    /// The `(offset, width)` in bytes of a frame store with a statically
    /// known extent: the instruction writes `[offset, offset + width)`
    /// relative to `%rbp`.
    ///
    /// The *unbounded* [`Inst::CopyInputToFrame`] is deliberately excluded —
    /// its extent depends on the process input, so it is a runtime overflow
    /// vector, not a statically decidable write.
    pub fn frame_store(&self) -> Option<(i32, u32)> {
        match self {
            Inst::MovRegToFrame { offset, .. } => Some((*offset, 8)),
            Inst::MovRegToFrame32 { offset, .. } | Inst::MovImmToFrame { offset, .. } => {
                Some((*offset, 4))
            }
            Inst::CopyInputToFrameBounded { offset, max_len } => Some((*offset, *max_len)),
            _ => None,
        }
    }

    /// The destination frame offset of an input-copy pseudo-instruction
    /// (bounded or unbounded) — the writes a stack protector guards against.
    pub fn input_copy_offset(&self) -> Option<i32> {
        match self {
            Inst::CopyInputToFrame { offset } | Inst::CopyInputToFrameBounded { offset, .. } => {
                Some(*offset)
            }
            _ => None,
        }
    }

    /// Whether executing the instruction (re)defines the zero flag.
    ///
    /// Mirrors the interpreter exactly: the ALU instructions compare/compute
    /// into ZF, and [`Inst::CallCheckCanary32`] sets ZF on a passing check
    /// (on a failing one it never returns).
    pub fn sets_zero_flag(&self) -> bool {
        matches!(
            self,
            Inst::XorRegReg { .. }
                | Inst::XorTlsReg { .. }
                | Inst::AddRegReg { .. }
                | Inst::ShlRegImm { .. }
                | Inst::ShrRegImm { .. }
                | Inst::OrRegReg { .. }
                | Inst::CmpFrameReg { .. }
                | Inst::CmpRegImm { .. }
                | Inst::TestReg(_)
                | Inst::CallCheckCanary32
        )
    }
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
mod tests {
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
        assert!(Inst::CallFn(FuncId(3)).is_call());
        assert!(!Inst::CallStackChkFail.is_call());
        assert!(Inst::Ret.is_ret());
        assert!(!Inst::Leave.is_ret());
    }

    /// Number of `Inst` variants, pinned by [`variant_ordinal`]'s exhaustive
    /// match below.
    const VARIANT_COUNT: usize = 46;

    /// Sequential ordinal of an instruction's variant.
    ///
    /// The match is exhaustive *without a wildcard arm* (the crate-internal
    /// view of the `#[non_exhaustive]` enum), so adding a variant fails this
    /// module at compile time until both this function and the sample list in
    /// `every_instruction_has_nonzero_size_and_cycles` are extended — a new
    /// instruction can't silently inherit an untested size or cycle cost.
    fn variant_ordinal(inst: &Inst) -> usize {
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

    #[test]
    fn every_instruction_has_nonzero_size_and_cycles() {
        let samples = vec![
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
        ];
        let mut covered = [false; VARIANT_COUNT];
        for inst in samples {
            covered[variant_ordinal(&inst)] = true;
            assert!(inst.encoded_size() > 0, "{inst} has zero size");
            assert!(inst.cycles() > 0, "{inst} has zero cycles");
            // Display must never be empty (C-DEBUG-NONEMPTY analogue).
            assert!(!inst.to_string().is_empty());
        }
        let missing: Vec<usize> = (0..VARIANT_COUNT).filter(|&ordinal| !covered[ordinal]).collect();
        assert!(missing.is_empty(), "sample list misses variant ordinal(s) {missing:?}");
    }

    #[test]
    fn branch_skip_and_fall_through_classification() {
        assert_eq!(Inst::JeSkip(1).branch_skip(), Some(1));
        assert_eq!(Inst::JneSkip(2).branch_skip(), Some(2));
        assert_eq!(Inst::JmpSkip(3).branch_skip(), Some(3));
        assert_eq!(Inst::Nop.branch_skip(), None);
        assert!(Inst::JeSkip(1).is_conditional_branch());
        assert!(!Inst::JmpSkip(1).is_conditional_branch());
        // Fall-through: jmp always diverts, ret leaves, __stack_chk_fail
        // aborts; the patched 32-bit check *returns* on success.
        assert!(!Inst::JmpSkip(1).falls_through());
        assert!(!Inst::Ret.falls_through());
        assert!(!Inst::CallStackChkFail.falls_through());
        assert!(Inst::JeSkip(1).falls_through());
        assert!(Inst::CallCheckCanary32.falls_through());
        assert!(Inst::CallFn(FuncId(0)).falls_through());
    }

    #[test]
    fn frame_store_extents_match_interpreter_widths() {
        assert_eq!(Inst::MovRegToFrame { src: Reg::Rax, offset: -8 }.frame_store(), Some((-8, 8)));
        assert_eq!(
            Inst::MovRegToFrame32 { src: Reg::Rdi, offset: -8 }.frame_store(),
            Some((-8, 4))
        );
        assert_eq!(Inst::MovImmToFrame { offset: -16, imm: 7 }.frame_store(), Some((-16, 4)));
        assert_eq!(
            Inst::CopyInputToFrameBounded { offset: -64, max_len: 48 }.frame_store(),
            Some((-64, 48))
        );
        // The unbounded copy has no static extent — it is the overflow vector.
        assert_eq!(Inst::CopyInputToFrame { offset: -64 }.frame_store(), None);
        assert_eq!(Inst::CopyInputToFrame { offset: -64 }.input_copy_offset(), Some(-64));
        assert_eq!(
            Inst::CopyInputToFrameBounded { offset: -64, max_len: 48 }.input_copy_offset(),
            Some(-64)
        );
        assert_eq!(Inst::MovRegToFrame { src: Reg::Rax, offset: -8 }.input_copy_offset(), None);
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
            assert!(setter.sets_zero_flag(), "{setter}");
        }
        for non_setter in [
            Inst::MovRegToFrame { src: Reg::Rax, offset: -8 },
            Inst::PushReg(Reg::Rdi),
            Inst::PopReg(Reg::Rdi),
            Inst::JeSkip(1),
            Inst::CallStackChkFail,
        ] {
            assert!(!non_setter.sets_zero_flag(), "{non_setter}");
        }
    }
}
