//! The CPU interpreter.
//!
//! [`Cpu::run`] executes a finalized [`Program`] against a [`Process`],
//! charging cycle costs per instruction and faulting exactly where a real
//! machine (plus glibc's `__stack_chk_fail`) would: canary mismatches abort
//! the process, unmapped accesses segfault, and a `ret` through a corrupted
//! return address either lands on an invalid address or — when it matches the
//! attacker's chosen target — counts as a successful control-flow hijack.
//!
//! # Dispatch
//!
//! `run` executes the pre-decoded op stream (see `decode` module), which
//! the first run of a finalized [`Program`] builds and every later run —
//! from any thread — shares: one flat fetch→dispatch loop over absolute
//! indices, with no per-instruction function-table lookup or bounds
//! re-check, plus
//! fused superinstructions for the canary prologue and epilogue sequences.
//! [`Cpu::run_reference`] keeps the original one-`Inst`-at-a-time
//! interpreter as the differential oracle: both dispatchers must produce
//! byte-identical [`RunOutcome`]s on every program, which the
//! `vm_dispatch` test suite enforces over PRNG-generated programs and the
//! full scheme × deployment matrix.
//!
//! # Cycle accounting
//!
//! Every executed instruction is charged its static [`Inst::cycles`] base
//! cost by the fetch loop; instructions with data-dependent cost add a
//! *surcharge* on top during execution (`rdrand` retry excess, input-copy
//! per-word cost).  The convention is documented on [`Inst::cycles`]; the
//! totals are pinned by tests in this module so the overhead figures the
//! campaigns report cannot drift silently.  The total wraps modulo 2^64,
//! like a hardware cycle counter, so an arbitrary `Inst::Compute` cost
//! cannot abort the host.

use std::sync::Arc;

use polycanary_crypto::Aes128;

use crate::decode::{DecodedProgram, OpKind};
use crate::error::{Fault, VmError};
use crate::inst::{FuncId, Inst};
use crate::process::Process;
use crate::program::Program;
use crate::reg::{Reg, RegisterFile};
use crate::tls::TLS_DCR_HEAD_OFFSET;

/// Synthetic return address pushed below the entry function; `ret`-ing to it
/// terminates the execution normally.
pub const RETURN_SENTINEL: u64 = 0xFFFF_FFFF_FFFF_FF00;

/// Configuration of one execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecConfig {
    /// Upper bound on executed instructions (guards against runaway loops).
    pub max_instructions: u64,
    /// The attacker's desired return target.  A `ret` to this address is
    /// reported as [`Fault::ControlFlowHijacked`], i.e. a successful,
    /// undetected attack.
    pub hijack_target: Option<u64>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig { max_instructions: 50_000_000, hijack_target: None }
    }
}

/// How an execution ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Exit {
    /// The entry function returned; the payload is the value of `%rax`.
    Normal(u64),
    /// The process faulted.
    Fault(Fault),
}

impl Exit {
    /// Whether the execution completed without a fault.
    pub fn is_normal(&self) -> bool {
        matches!(self, Exit::Normal(_))
    }

    /// Whether the execution ended with the stack protector firing.
    pub fn is_detection(&self) -> bool {
        matches!(self, Exit::Fault(f) if f.is_detection())
    }

    /// Whether the execution ended with a successful control-flow hijack.
    pub fn is_hijack(&self) -> bool {
        matches!(self, Exit::Fault(f) if f.is_hijack())
    }
}

/// Result of one execution: how it ended plus the cost accounting used by
/// every performance experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// How the execution ended.
    pub exit: Exit,
    /// Total simulated cycles consumed.
    pub cycles: u64,
    /// Number of instructions executed.
    pub instructions: u64,
}

/// The CPU state of one execution.
#[derive(Debug, Clone)]
pub struct Cpu {
    regs: RegisterFile,
    zero_flag: bool,
    /// Cycles consumed so far.
    pub cycles: u64,
    /// Instructions executed so far.
    pub instructions: u64,
}

impl Default for Cpu {
    fn default() -> Self {
        Self::new()
    }
}

impl Cpu {
    /// Creates a CPU with zeroed registers.
    pub fn new() -> Self {
        Cpu { regs: RegisterFile::new(), zero_flag: false, cycles: 0, instructions: 0 }
    }

    /// Read access to the register file (useful in tests and hooks).
    pub fn regs(&self) -> &RegisterFile {
        &self.regs
    }

    /// Mutable access to the register file (used by startup hooks that park
    /// the P-SSP-OWF key in `r12:r13`).
    pub fn regs_mut(&mut self) -> &mut RegisterFile {
        &mut self.regs
    }

    /// Runs `entry` to completion over the pre-decoded op stream, decoding
    /// the program first if this is its first run.
    ///
    /// The program must be finalized (addresses assigned); running an
    /// unfinalized program is a programming error, not a simulated fault,
    /// hence the panic.
    ///
    /// # Panics
    ///
    /// Panics if the program has not been finalized.
    pub fn run(
        &mut self,
        program: &Program,
        process: &mut Process,
        entry: FuncId,
        cfg: &ExecConfig,
    ) -> Exit {
        let decoded = program.decoded().expect("program must be finalized before execution");

        self.boot(process);
        if let Err(fault) = self.push_word(process, RETURN_SENTINEL) {
            return Exit::Fault(fault);
        }
        match self.dispatch_cached(program, decoded, process, entry, cfg) {
            Ok(rax) => Exit::Normal(rax),
            Err(fault) => Exit::Fault(fault),
        }
    }

    /// Runs `entry` through the pre-decode reference interpreter: the
    /// original one-`Inst`-at-a-time loop that re-fetches the current
    /// function from the program table on every instruction.
    ///
    /// Kept as the differential oracle for [`Cpu::run`] (the `vm_dispatch`
    /// suite asserts byte-identical [`RunOutcome`]s between the two) and as
    /// the honest baseline for the dispatch benchmarks.  Semantics are
    /// those of the shipped interpreter with this PR's bugfixes applied: an
    /// unresolvable function id faults as [`Fault::UnknownFunction`] (not
    /// `InvalidReturn { addr: 0 }`), and stack-pointer underflow in `push`
    /// faults as [`Fault::StackExhausted`].
    ///
    /// # Panics
    ///
    /// Panics if the program has not been finalized.
    pub fn run_reference(
        &mut self,
        program: &Program,
        process: &mut Process,
        entry: FuncId,
        cfg: &ExecConfig,
    ) -> Exit {
        assert!(program.is_finalized(), "program must be finalized before execution");

        self.boot(process);
        if let Err(fault) = self.push_word(process, RETURN_SENTINEL) {
            return Exit::Fault(fault);
        }

        let mut fid = entry;
        let mut idx = 0usize;

        loop {
            if self.instructions >= cfg.max_instructions {
                return Exit::Fault(Fault::InstructionLimit);
            }
            let func = match program.function(fid) {
                Ok(f) => f,
                Err(_) => return Exit::Fault(Fault::UnknownFunction { id: fid.0 }),
            };
            if idx >= func.insts().len() {
                // Fell off the end of a function without `ret`.
                return Exit::Fault(Fault::InvalidReturn {
                    addr: func.entry_addr() + func.encoded_size(),
                });
            }
            let inst = &func.insts()[idx];
            self.instructions += 1;
            self.add_cycles(inst.cycles());

            match self.step(program, process, fid, idx, inst, cfg) {
                Ok(Flow::Next) => idx += 1,
                // A skip past the end behaves like falling off the end; it
                // saturates so a wild skip cannot wrap back into the body.
                Ok(Flow::Skip(n)) => idx = (idx + 1).saturating_add(n),
                Ok(Flow::Call { target, return_addr }) => {
                    if let Err(fault) = self.push_word(process, return_addr) {
                        return Exit::Fault(fault);
                    }
                    fid = target;
                    idx = 0;
                }
                Ok(Flow::Return) => {
                    let addr = match self.pop_word(process) {
                        Ok(a) => a,
                        Err(fault) => return Exit::Fault(fault),
                    };
                    if addr == RETURN_SENTINEL {
                        return Exit::Normal(self.regs.read(Reg::Rax));
                    }
                    if cfg.hijack_target == Some(addr) {
                        return Exit::Fault(Fault::ControlFlowHijacked { addr });
                    }
                    match program.lookup_addr(addr) {
                        Some((f, i)) => {
                            fid = f;
                            idx = i;
                        }
                        None => return Exit::Fault(Fault::InvalidReturn { addr }),
                    }
                }
                Err(fault) => return Exit::Fault(fault),
            }
        }
    }

    /// Shared startup sequence: loader-provided key registers for
    /// P-SSP-OWF, then the initial stack and frame pointers.
    fn boot(&mut self, process: &Process) {
        if let Some((lo, hi)) = process.owf_key {
            self.regs.write(Reg::R12, lo);
            self.regs.write(Reg::R13, hi);
        }
        self.regs.write(Reg::Rsp, process.memory.stack_top());
        self.regs.write(Reg::Rbp, 0);
    }

    /// The decoded fetch→dispatch loop.  `Ok` carries the final `%rax`.
    ///
    /// Accounting mirrors [`Cpu::run_reference`] exactly: the instruction
    /// limit is checked before an instruction is charged, the
    /// one-past-the-end sentinel faults without charging (the reference
    /// loop's bounds check), and fused superinstructions charge their
    /// components one by one through [`Cpu::charge`] so a limit landing
    /// mid-sequence produces identical counts.
    fn dispatch_cached(
        &mut self,
        program: &Program,
        decoded: &DecodedProgram,
        process: &mut Process,
        entry: FuncId,
        cfg: &ExecConfig,
    ) -> Result<u64, Fault> {
        let mut flat = match decoded.func_start(entry) {
            Some(start) => start as usize,
            None => {
                // The reference loop checks the budget before resolving the
                // function, so an exhausted budget outranks a bad entry id.
                if cfg.max_instructions == 0 {
                    return Err(Fault::InstructionLimit);
                }
                return Err(Fault::UnknownFunction { id: entry.0 });
            }
        };
        let ops = decoded.ops();

        loop {
            if self.instructions >= cfg.max_instructions {
                return Err(Fault::InstructionLimit);
            }
            let op = &ops[flat];
            if let OpKind::FellOffEnd { addr } = op.kind {
                // Fell off (or branched past) the end of a function without
                // `ret`; uncharged, like the reference bounds check.
                return Err(Fault::InvalidReturn { addr });
            }
            self.instructions += 1;
            self.add_cycles(op.cycles);

            match &op.kind {
                OpKind::Basic(inst) => {
                    self.exec_basic(process, inst)?;
                    flat += 1;
                }
                OpKind::Block { head, len } => {
                    // The head component was charged by the fetch above; the
                    // tail components are the plain ops following this one.
                    self.exec_basic(process, head)?;
                    let tail = &ops[flat + 1..flat + *len as usize];
                    if cfg.max_instructions - self.instructions >= tail.len() as u64 {
                        // The whole block fits in the remaining budget, so no
                        // per-component limit check can fire: charge with
                        // plain adds.
                        for op in tail {
                            self.instructions += 1;
                            self.add_cycles(op.cycles);
                            let OpKind::Basic(inst) = &op.kind else {
                                unreachable!("superblocks cover Basic runs only")
                            };
                            self.exec_basic(process, inst)?;
                        }
                    } else {
                        // Budget lands mid-block: fall back to the checked
                        // per-component charge so the limit faults at the
                        // exact instruction the reference loop would.
                        for op in tail {
                            if self.instructions >= cfg.max_instructions {
                                return Err(Fault::InstructionLimit);
                            }
                            self.instructions += 1;
                            self.add_cycles(op.cycles);
                            let OpKind::Basic(inst) = &op.kind else {
                                unreachable!("superblocks cover Basic runs only")
                            };
                            self.exec_basic(process, inst)?;
                        }
                    }
                    flat += *len as usize;
                }
                OpKind::Je { target } => {
                    flat = if self.zero_flag { *target as usize } else { flat + 1 };
                }
                OpKind::Jne { target } => {
                    flat = if self.zero_flag { flat + 1 } else { *target as usize };
                }
                OpKind::Jmp { target } => flat = *target as usize,
                OpKind::Call { target, return_addr } => {
                    self.push_word(process, *return_addr)?;
                    flat = *target as usize;
                }
                OpKind::CallUnknown { id, return_addr } => {
                    // The reference interpreter pushes the return address
                    // first and only discovers the bad id on the next fetch,
                    // after the budget check — replicate that order.
                    self.push_word(process, *return_addr)?;
                    if self.instructions >= cfg.max_instructions {
                        return Err(Fault::InstructionLimit);
                    }
                    return Err(Fault::UnknownFunction { id: *id });
                }
                OpKind::Ret => {
                    let addr = self.pop_word(process)?;
                    if addr == RETURN_SENTINEL {
                        return Ok(self.regs.read(Reg::Rax));
                    }
                    if cfg.hijack_target == Some(addr) {
                        return Err(Fault::ControlFlowHijacked { addr });
                    }
                    match decoded.flat_of_addr(addr) {
                        Some(target) => flat = target as usize,
                        None => return Err(Fault::InvalidReturn { addr }),
                    }
                }
                OpKind::StackChkFail { fid } => {
                    return Err(Fault::CanaryViolation { function: self.func_name(program, *fid) });
                }
                OpKind::CheckCanary32 { fid } => {
                    if self.check_canary32(process) {
                        flat += 1;
                    } else {
                        return Err(Fault::CanaryViolation {
                            function: self.func_name(program, *fid),
                        });
                    }
                }
                OpKind::FellOffEnd { .. } => unreachable!("handled before charging"),
                OpKind::Prologue { dst, tls_offset, frame_offset } => {
                    // Component 1 (mov %fs:off,%dst) was charged as the head.
                    let canary = process.tls.read_word(*tls_offset).map_err(tls_fault)?;
                    self.regs.write(*dst, canary);
                    // Component 2: mov %dst,frame_offset(%rbp).
                    self.charge(Inst::MovRegToFrame { src: *dst, offset: *frame_offset }, cfg)?;
                    let rbp = self.regs.read(Reg::Rbp);
                    process
                        .memory
                        .write_u64(frame_addr(rbp, *frame_offset), canary)
                        .map_err(mem_fault)?;
                    flat += 2;
                }
                OpKind::CanaryGuard { dst, tls_offset, fid, resume } => {
                    flat =
                        self.canary_guard(program, process, *dst, *tls_offset, *fid, *resume, cfg)?;
                }
                OpKind::CanaryEpilogue { dst, frame_offset, tls_offset, fid, resume } => {
                    // Component 1 (mov frame(%rbp),%dst) was charged as the head.
                    let rbp = self.regs.read(Reg::Rbp);
                    let stored = process
                        .memory
                        .read_u64(frame_addr(rbp, *frame_offset))
                        .map_err(mem_fault)?;
                    self.regs.write(*dst, stored);
                    // Component 2: xor %fs:off,%dst (charged here; it is the
                    // head — and pre-charged — in the three-wide guard).
                    self.charge(Inst::XorTlsReg { dst: *dst, offset: *tls_offset }, cfg)?;
                    flat =
                        self.canary_guard(program, process, *dst, *tls_offset, *fid, *resume, cfg)?;
                }
            }
        }
    }

    /// Fused compare+guard: executes the (already charged) `xor
    /// %fs:off,%dst`, then the guard tail.
    #[allow(clippy::too_many_arguments)]
    fn canary_guard(
        &mut self,
        program: &Program,
        process: &mut Process,
        dst: Reg,
        tls_offset: u64,
        fid: FuncId,
        resume: u32,
        cfg: &ExecConfig,
    ) -> Result<usize, Fault> {
        let tls_word = process.tls.read_word(tls_offset).map_err(tls_fault)?;
        let v = self.regs.read(dst) ^ tls_word;
        self.regs.write(dst, v);
        self.zero_flag = v == 0;
        self.guard_tail(program, fid, resume, cfg)
    }

    /// The `je +1; call __stack_chk_fail` tail shared by both fused canary
    /// checks.  Returns the resume index on pass.
    fn guard_tail(
        &mut self,
        program: &Program,
        fid: FuncId,
        resume: u32,
        cfg: &ExecConfig,
    ) -> Result<usize, Fault> {
        self.charge(Inst::JeSkip(1), cfg)?;
        if self.zero_flag {
            return Ok(resume as usize);
        }
        self.charge(Inst::CallStackChkFail, cfg)?;
        Err(Fault::CanaryViolation { function: self.func_name(program, fid) })
    }

    /// Adds `cycles` to the running total, modulo 2^64 like a hardware
    /// cycle counter.  The same instruction as release `+=`, so the hot
    /// loop pays nothing for never aborting a debug build.
    #[inline]
    fn add_cycles(&mut self, cycles: u64) {
        self.cycles = self.cycles.wrapping_add(cycles);
    }

    /// Charges one fused-sequence component, mirroring the reference
    /// loop's order: budget check first, then the static cost.
    #[inline]
    fn charge(&mut self, component: Inst, cfg: &ExecConfig) -> Result<(), Fault> {
        if self.instructions >= cfg.max_instructions {
            return Err(Fault::InstructionLimit);
        }
        self.instructions += 1;
        self.add_cycles(component.cycles());
        Ok(())
    }

    /// The patched 32-bit canary check shared by both dispatchers (Fig.
    /// 3/4): `%rdi` carries the packed 32-bit canary pair `C0 || C1`; the
    /// check passes when `C0 xor C1` equals the low half of the TLS canary,
    /// or — for compatibility with plain SSP callers — when `%rdi` equals
    /// the full 64-bit TLS canary.  Sets the zero flag on pass.
    fn check_canary32(&mut self, process: &Process) -> bool {
        let rdi = self.regs.read(Reg::Rdi);
        let c0 = (rdi & 0xFFFF_FFFF) as u32;
        let c1 = (rdi >> 32) as u32;
        let tls_canary = process.tls.canary();
        let pass = (c0 ^ c1) == (tls_canary & 0xFFFF_FFFF) as u32 || rdi == tls_canary;
        if pass {
            self.zero_flag = true;
        }
        pass
    }

    /// Resolves the interned function name for a fault message — a
    /// reference-count bump, not an allocation, so the detection path of a
    /// byte-by-byte campaign stays allocation-free.
    fn func_name(&self, program: &Program, fid: FuncId) -> Arc<str> {
        program.function(fid).expect("decoded fid exists").name_interned()
    }

    #[inline]
    fn push_word(&mut self, process: &mut Process, value: u64) -> Result<(), Fault> {
        let old = self.regs.read(Reg::Rsp);
        // Covers both exhaustion cases in one compare: an Rsp below 8 (which
        // would wrap past zero on the decrement and surface as a spurious
        // MemoryFault) and a decremented Rsp below the stack limit.  The
        // limit sits far below `u64::MAX`, so `limit + 8` cannot overflow.
        if old < process.memory.stack_limit() + 8 {
            return Err(Fault::StackExhausted);
        }
        let rsp = old - 8;
        self.regs.write(Reg::Rsp, rsp);
        process.memory.write_u64(rsp, value).map_err(mem_fault)
    }

    #[inline]
    fn pop_word(&mut self, process: &mut Process) -> Result<u64, Fault> {
        let rsp = self.regs.read(Reg::Rsp);
        let value = process.memory.read_u64(rsp).map_err(mem_fault)?;
        self.regs.write(Reg::Rsp, rsp.wrapping_add(8));
        Ok(value)
    }

    #[allow(clippy::too_many_lines)]
    fn step(
        &mut self,
        program: &Program,
        process: &mut Process,
        fid: FuncId,
        idx: usize,
        inst: &Inst,
        _cfg: &ExecConfig,
    ) -> Result<Flow, Fault> {
        let rbp = self.regs.read(Reg::Rbp);
        match inst {
            Inst::PushReg(r) => {
                let v = self.regs.read(*r);
                self.push_word(process, v)?;
            }
            Inst::PopReg(r) => {
                let v = self.pop_word(process)?;
                self.regs.write(*r, v);
            }
            Inst::MovRegReg { dst, src } => {
                let v = self.regs.read(*src);
                self.regs.write(*dst, v);
            }
            Inst::SubRspImm(imm) => {
                let rsp = self.regs.read(Reg::Rsp).wrapping_sub(u64::from(*imm));
                if rsp < process.memory.stack_limit() {
                    return Err(Fault::StackExhausted);
                }
                self.regs.write(Reg::Rsp, rsp);
            }
            Inst::AddRspImm(imm) => {
                let rsp = self.regs.read(Reg::Rsp).wrapping_add(u64::from(*imm));
                self.regs.write(Reg::Rsp, rsp);
            }
            Inst::Leave => {
                self.regs.write(Reg::Rsp, rbp);
                let saved = self.pop_word(process)?;
                self.regs.write(Reg::Rbp, saved);
            }
            Inst::Ret => return Ok(Flow::Return),
            Inst::MovTlsToReg { dst, offset } => {
                let v = process.tls.read_word(*offset).map_err(tls_fault)?;
                self.regs.write(*dst, v);
            }
            Inst::MovRegToTls { src, offset } => {
                let v = self.regs.read(*src);
                process.tls.write_word(*offset, v).map_err(tls_fault)?;
            }
            Inst::MovRegToFrame { src, offset } => {
                let v = self.regs.read(*src);
                process.memory.write_u64(frame_addr(rbp, *offset), v).map_err(mem_fault)?;
            }
            Inst::MovFrameToReg { dst, offset } => {
                let v = process.memory.read_u64(frame_addr(rbp, *offset)).map_err(mem_fault)?;
                self.regs.write(*dst, v);
            }
            Inst::MovFrameToReg32 { dst, offset } => {
                let v = process.memory.read_u32(frame_addr(rbp, *offset)).map_err(mem_fault)?;
                self.regs.write32(*dst, v);
            }
            Inst::MovRegToFrame32 { src, offset } => {
                let v = self.regs.read32(*src);
                process.memory.write_u32(frame_addr(rbp, *offset), v).map_err(mem_fault)?;
            }
            Inst::MovImmToReg { dst, imm } => self.regs.write(*dst, *imm),
            Inst::MovImmToFrame { offset, imm } => {
                process.memory.write_u32(frame_addr(rbp, *offset), *imm).map_err(mem_fault)?;
            }
            Inst::LeaFrameToReg { dst, offset } => {
                self.regs.write(*dst, frame_addr(rbp, *offset));
            }
            Inst::MovMemToReg { dst, base, offset } => {
                let addr = frame_addr(self.regs.read(*base), *offset);
                let v = process.memory.read_u64(addr).map_err(mem_fault)?;
                self.regs.write(*dst, v);
            }
            Inst::MovRegToMem { src, base, offset } => {
                let addr = frame_addr(self.regs.read(*base), *offset);
                let v = self.regs.read(*src);
                process.memory.write_u64(addr, v).map_err(mem_fault)?;
            }
            Inst::XorRegReg { dst, src } => {
                let v = self.regs.read(*dst) ^ self.regs.read(*src);
                self.regs.write(*dst, v);
                self.zero_flag = v == 0;
            }
            Inst::XorTlsReg { dst, offset } => {
                let tls_word = process.tls.read_word(*offset).map_err(tls_fault)?;
                let v = self.regs.read(*dst) ^ tls_word;
                self.regs.write(*dst, v);
                self.zero_flag = v == 0;
            }
            Inst::AddRegReg { dst, src } => {
                let v = self.regs.read(*dst).wrapping_add(self.regs.read(*src));
                self.regs.write(*dst, v);
                self.zero_flag = v == 0;
            }
            Inst::ShlRegImm { dst, amount } => {
                let v = self.regs.read(*dst).wrapping_shl(u32::from(*amount));
                self.regs.write(*dst, v);
                self.zero_flag = v == 0;
            }
            Inst::ShrRegImm { dst, amount } => {
                let v = self.regs.read(*dst).wrapping_shr(u32::from(*amount));
                self.regs.write(*dst, v);
                self.zero_flag = v == 0;
            }
            Inst::OrRegReg { dst, src } => {
                let v = self.regs.read(*dst) | self.regs.read(*src);
                self.regs.write(*dst, v);
                self.zero_flag = v == 0;
            }
            Inst::CmpFrameReg { reg, offset } => {
                let mem_val =
                    process.memory.read_u64(frame_addr(rbp, *offset)).map_err(mem_fault)?;
                self.zero_flag = mem_val == self.regs.read(*reg);
            }
            Inst::CmpRegImm { reg, imm } => {
                self.zero_flag = self.regs.read(*reg) == *imm;
            }
            Inst::TestReg(r) => {
                self.zero_flag = self.regs.read(*r) == 0;
            }
            Inst::JeSkip(n) => {
                if self.zero_flag {
                    return Ok(Flow::Skip(*n));
                }
            }
            Inst::JneSkip(n) => {
                if !self.zero_flag {
                    return Ok(Flow::Skip(*n));
                }
            }
            Inst::JmpSkip(n) => return Ok(Flow::Skip(*n)),
            Inst::CallFn(target) => {
                let func = program.function(fid).expect("fid validated");
                let cur_addr = func.inst_addr(idx).expect("idx validated");
                let return_addr = cur_addr + inst.encoded_size();
                return Ok(Flow::Call { target: *target, return_addr });
            }
            Inst::CallStackChkFail => {
                return Err(Fault::CanaryViolation { function: self.func_name(program, fid) });
            }
            Inst::CallCheckCanary32 => {
                if !self.check_canary32(process) {
                    return Err(Fault::CanaryViolation { function: self.func_name(program, fid) });
                }
            }
            Inst::Nop => {}
            Inst::Rdrand(dst) => {
                // Surcharge: the fetch loop charged the static base; add the
                // retry excess so the total equals the device-reported cost
                // (zero surcharge when the first draw succeeds).
                let (value, total_cycles) = process.hwrng.rdrand_retrying();
                self.add_cycles(total_cycles.saturating_sub(inst.cycles()));
                self.regs.write(*dst, value);
            }
            Inst::Rdtsc => {
                let (value, _) =
                    process.tsc.rdtsc(self.cycles).map_err(|_| Fault::EntropyFailure)?;
                self.regs.write(Reg::Rax, value);
            }
            Inst::AesEncryptFrame { nonce } => {
                let key_lo = self.regs.read(Reg::R12);
                let key_hi = self.regs.read(Reg::R13);
                let ret_addr = process.memory.read_u64(frame_addr(rbp, 8)).map_err(mem_fault)?;
                let nonce_val = self.regs.read(*nonce);
                let (lo, hi) =
                    Aes128::from_words(key_lo, key_hi).encrypt_words(nonce_val, ret_addr);
                self.regs.write(Reg::Rax, lo);
                self.regs.write(Reg::Rdx, hi);
            }
            Inst::RecordCanaryAddress { offset } => {
                process.canary_addresses.push(frame_addr(rbp, *offset));
            }
            Inst::PopCanaryAddress => {
                process.canary_addresses.pop();
            }
            Inst::LinkCanaryPush { offset } => {
                let addr = frame_addr(rbp, *offset);
                process.dcr_list.push(addr);
                process.tls.write_word(TLS_DCR_HEAD_OFFSET, addr).map_err(tls_fault)?;
            }
            Inst::LinkCanaryPop { .. } => {
                process.dcr_list.pop();
                let head = process.dcr_list.last().copied().unwrap_or(0);
                process.tls.write_word(TLS_DCR_HEAD_OFFSET, head).map_err(tls_fault)?;
            }
            Inst::CopyInputToFrame { offset } => {
                let dest = frame_addr(rbp, *offset);
                // Surcharge: per-word copy cost on top of the static base,
                // charged before the write (a faulting copy still paid for
                // the attempt).
                self.add_cycles((process.input().len() as u64) / 8 + 1);
                process.copy_input_to_memory(dest, None).map_err(mem_fault)?;
            }
            Inst::CopyInputToFrameBounded { offset, max_len } => {
                let dest = frame_addr(rbp, *offset);
                let len = process.input().len().min(*max_len as usize);
                self.add_cycles((len as u64) / 8 + 1);
                process.copy_input_to_memory(dest, Some(*max_len as usize)).map_err(mem_fault)?;
            }
            Inst::InputLenToReg(r) => {
                let len = process.input().len() as u64;
                self.regs.write(*r, len);
            }
            Inst::OutputReg(r) => {
                let bytes = self.regs.read(*r).to_le_bytes();
                process.push_output(&bytes);
            }
            Inst::Compute(_) => {}
        }
        Ok(Flow::Next)
    }

    /// Executes one straight-line instruction for the decoded dispatch loop.
    ///
    /// Behaviourally identical to the corresponding [`Cpu::step`] arms, but
    /// with no per-instruction function-name lookup and no input-buffer
    /// copies (the `strcpy` models go through
    /// [`Process::copy_input_to_memory`]).  Control-flow variants never
    /// reach here — the decoder lowers them to dedicated [`OpKind`]s.
    #[allow(clippy::too_many_lines)]
    fn exec_basic(&mut self, process: &mut Process, inst: &Inst) -> Result<(), Fault> {
        let rbp = self.regs.read(Reg::Rbp);
        match inst {
            Inst::PushReg(r) => {
                let v = self.regs.read(*r);
                self.push_word(process, v)?;
            }
            Inst::PopReg(r) => {
                let v = self.pop_word(process)?;
                self.regs.write(*r, v);
            }
            Inst::MovRegReg { dst, src } => {
                let v = self.regs.read(*src);
                self.regs.write(*dst, v);
            }
            Inst::SubRspImm(imm) => {
                let rsp = self.regs.read(Reg::Rsp).wrapping_sub(u64::from(*imm));
                if rsp < process.memory.stack_limit() {
                    return Err(Fault::StackExhausted);
                }
                self.regs.write(Reg::Rsp, rsp);
            }
            Inst::AddRspImm(imm) => {
                let rsp = self.regs.read(Reg::Rsp).wrapping_add(u64::from(*imm));
                self.regs.write(Reg::Rsp, rsp);
            }
            Inst::Leave => {
                self.regs.write(Reg::Rsp, rbp);
                let saved = self.pop_word(process)?;
                self.regs.write(Reg::Rbp, saved);
            }
            Inst::MovTlsToReg { dst, offset } => {
                let v = process.tls.read_word(*offset).map_err(tls_fault)?;
                self.regs.write(*dst, v);
            }
            Inst::MovRegToTls { src, offset } => {
                let v = self.regs.read(*src);
                process.tls.write_word(*offset, v).map_err(tls_fault)?;
            }
            Inst::MovRegToFrame { src, offset } => {
                let v = self.regs.read(*src);
                process.memory.write_u64(frame_addr(rbp, *offset), v).map_err(mem_fault)?;
            }
            Inst::MovFrameToReg { dst, offset } => {
                let v = process.memory.read_u64(frame_addr(rbp, *offset)).map_err(mem_fault)?;
                self.regs.write(*dst, v);
            }
            Inst::MovFrameToReg32 { dst, offset } => {
                let v = process.memory.read_u32(frame_addr(rbp, *offset)).map_err(mem_fault)?;
                self.regs.write32(*dst, v);
            }
            Inst::MovRegToFrame32 { src, offset } => {
                let v = self.regs.read32(*src);
                process.memory.write_u32(frame_addr(rbp, *offset), v).map_err(mem_fault)?;
            }
            Inst::MovImmToReg { dst, imm } => self.regs.write(*dst, *imm),
            Inst::MovImmToFrame { offset, imm } => {
                process.memory.write_u32(frame_addr(rbp, *offset), *imm).map_err(mem_fault)?;
            }
            Inst::LeaFrameToReg { dst, offset } => {
                self.regs.write(*dst, frame_addr(rbp, *offset));
            }
            Inst::MovMemToReg { dst, base, offset } => {
                let addr = frame_addr(self.regs.read(*base), *offset);
                let v = process.memory.read_u64(addr).map_err(mem_fault)?;
                self.regs.write(*dst, v);
            }
            Inst::MovRegToMem { src, base, offset } => {
                let addr = frame_addr(self.regs.read(*base), *offset);
                let v = self.regs.read(*src);
                process.memory.write_u64(addr, v).map_err(mem_fault)?;
            }
            Inst::XorRegReg { dst, src } => {
                let v = self.regs.read(*dst) ^ self.regs.read(*src);
                self.regs.write(*dst, v);
                self.zero_flag = v == 0;
            }
            Inst::XorTlsReg { dst, offset } => {
                let tls_word = process.tls.read_word(*offset).map_err(tls_fault)?;
                let v = self.regs.read(*dst) ^ tls_word;
                self.regs.write(*dst, v);
                self.zero_flag = v == 0;
            }
            Inst::AddRegReg { dst, src } => {
                let v = self.regs.read(*dst).wrapping_add(self.regs.read(*src));
                self.regs.write(*dst, v);
                self.zero_flag = v == 0;
            }
            Inst::ShlRegImm { dst, amount } => {
                let v = self.regs.read(*dst).wrapping_shl(u32::from(*amount));
                self.regs.write(*dst, v);
                self.zero_flag = v == 0;
            }
            Inst::ShrRegImm { dst, amount } => {
                let v = self.regs.read(*dst).wrapping_shr(u32::from(*amount));
                self.regs.write(*dst, v);
                self.zero_flag = v == 0;
            }
            Inst::OrRegReg { dst, src } => {
                let v = self.regs.read(*dst) | self.regs.read(*src);
                self.regs.write(*dst, v);
                self.zero_flag = v == 0;
            }
            Inst::CmpFrameReg { reg, offset } => {
                let mem_val =
                    process.memory.read_u64(frame_addr(rbp, *offset)).map_err(mem_fault)?;
                self.zero_flag = mem_val == self.regs.read(*reg);
            }
            Inst::CmpRegImm { reg, imm } => {
                self.zero_flag = self.regs.read(*reg) == *imm;
            }
            Inst::TestReg(r) => {
                self.zero_flag = self.regs.read(*r) == 0;
            }
            Inst::Nop => {}
            Inst::Rdrand(dst) => {
                // Surcharge: retry excess on top of the static base (see
                // the matching `step` arm).
                let (value, total_cycles) = process.hwrng.rdrand_retrying();
                self.add_cycles(total_cycles.saturating_sub(inst.cycles()));
                self.regs.write(*dst, value);
            }
            Inst::Rdtsc => {
                let (value, _) =
                    process.tsc.rdtsc(self.cycles).map_err(|_| Fault::EntropyFailure)?;
                self.regs.write(Reg::Rax, value);
            }
            Inst::AesEncryptFrame { nonce } => {
                let key_lo = self.regs.read(Reg::R12);
                let key_hi = self.regs.read(Reg::R13);
                let ret_addr = process.memory.read_u64(frame_addr(rbp, 8)).map_err(mem_fault)?;
                let nonce_val = self.regs.read(*nonce);
                let (lo, hi) =
                    Aes128::from_words(key_lo, key_hi).encrypt_words(nonce_val, ret_addr);
                self.regs.write(Reg::Rax, lo);
                self.regs.write(Reg::Rdx, hi);
            }
            Inst::RecordCanaryAddress { offset } => {
                process.canary_addresses.push(frame_addr(rbp, *offset));
            }
            Inst::PopCanaryAddress => {
                process.canary_addresses.pop();
            }
            Inst::LinkCanaryPush { offset } => {
                let addr = frame_addr(rbp, *offset);
                process.dcr_list.push(addr);
                process.tls.write_word(TLS_DCR_HEAD_OFFSET, addr).map_err(tls_fault)?;
            }
            Inst::LinkCanaryPop { .. } => {
                process.dcr_list.pop();
                let head = process.dcr_list.last().copied().unwrap_or(0);
                process.tls.write_word(TLS_DCR_HEAD_OFFSET, head).map_err(tls_fault)?;
            }
            Inst::CopyInputToFrame { offset } => {
                let dest = frame_addr(rbp, *offset);
                self.add_cycles((process.input().len() as u64) / 8 + 1);
                process.copy_input_to_memory(dest, None).map_err(mem_fault)?;
            }
            Inst::CopyInputToFrameBounded { offset, max_len } => {
                let dest = frame_addr(rbp, *offset);
                let len = process.input().len().min(*max_len as usize);
                self.add_cycles((len as u64) / 8 + 1);
                process.copy_input_to_memory(dest, Some(*max_len as usize)).map_err(mem_fault)?;
            }
            Inst::InputLenToReg(r) => {
                let len = process.input().len() as u64;
                self.regs.write(*r, len);
            }
            Inst::OutputReg(r) => {
                let bytes = self.regs.read(*r).to_le_bytes();
                process.push_output(&bytes);
            }
            Inst::Compute(_) => {}
            Inst::Ret
            | Inst::JeSkip(_)
            | Inst::JneSkip(_)
            | Inst::JmpSkip(_)
            | Inst::CallFn(_)
            | Inst::CallStackChkFail
            | Inst::CallCheckCanary32 => {
                unreachable!("control flow is lowered to dedicated ops at decode time")
            }
        }
        Ok(())
    }
}

/// Internal control-flow outcome of a single instruction.
enum Flow {
    Next,
    Skip(usize),
    Call { target: FuncId, return_addr: u64 },
    Return,
}

fn frame_addr(base: u64, offset: i32) -> u64 {
    if offset >= 0 {
        base.wrapping_add(offset as u64)
    } else {
        base.wrapping_sub(offset.unsigned_abs() as u64)
    }
}

fn mem_fault(err: VmError) -> Fault {
    match err {
        VmError::UnmappedAddress { addr } | VmError::PartialAccess { addr, .. } => {
            Fault::MemoryFault { addr }
        }
        _ => Fault::MemoryFault { addr: 0 },
    }
}

fn tls_fault(err: VmError) -> Fault {
    match err {
        VmError::TlsOutOfRange { offset } => Fault::MemoryFault { addr: offset },
        _ => Fault::MemoryFault { addr: 0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::DEFAULT_STACK_SIZE;
    use crate::process::Pid;

    fn fresh_process() -> Process {
        Process::new(Pid(1), 7, DEFAULT_STACK_SIZE)
    }

    fn run_single(insts: Vec<Inst>, process: &mut Process) -> (Exit, Cpu) {
        let mut prog = Program::new();
        let f = prog.add_function("main", insts).unwrap();
        prog.set_entry(f);
        prog.finalize();
        let mut cpu = Cpu::new();
        let exit = cpu.run(&prog, process, f, &ExecConfig::default());
        (exit, cpu)
    }

    #[test]
    fn returns_rax_on_normal_exit() {
        let mut p = fresh_process();
        let (exit, _) =
            run_single(vec![Inst::MovImmToReg { dst: Reg::Rax, imm: 42 }, Inst::Ret], &mut p);
        assert_eq!(exit, Exit::Normal(42));
    }

    #[test]
    fn frame_setup_and_teardown() {
        let mut p = fresh_process();
        let insts = vec![
            Inst::PushReg(Reg::Rbp),
            Inst::MovRegReg { dst: Reg::Rbp, src: Reg::Rsp },
            Inst::SubRspImm(0x20),
            Inst::MovImmToReg { dst: Reg::Rax, imm: 5 },
            Inst::MovRegToFrame { src: Reg::Rax, offset: -0x10 },
            Inst::MovFrameToReg { dst: Reg::Rbx, offset: -0x10 },
            Inst::Leave,
            Inst::Ret,
        ];
        let (exit, cpu) = run_single(insts, &mut p);
        assert!(exit.is_normal());
        assert_eq!(cpu.regs().read(Reg::Rbx), 5);
    }

    #[test]
    fn ssp_epilogue_passes_with_intact_canary() {
        let mut p = fresh_process();
        p.tls.set_canary(0x1122_3344_5566_7788);
        let insts = vec![
            Inst::PushReg(Reg::Rbp),
            Inst::MovRegReg { dst: Reg::Rbp, src: Reg::Rsp },
            Inst::SubRspImm(0x10),
            Inst::MovTlsToReg { dst: Reg::Rax, offset: 0x28 },
            Inst::MovRegToFrame { src: Reg::Rax, offset: -0x8 },
            // epilogue
            Inst::MovFrameToReg { dst: Reg::Rdx, offset: -0x8 },
            Inst::XorTlsReg { dst: Reg::Rdx, offset: 0x28 },
            Inst::JeSkip(1),
            Inst::CallStackChkFail,
            Inst::Leave,
            Inst::Ret,
        ];
        let (exit, _) = run_single(insts, &mut p);
        assert!(exit.is_normal(), "intact canary must not trigger the protector: {exit:?}");
    }

    #[test]
    fn ssp_epilogue_detects_clobbered_canary() {
        let mut p = fresh_process();
        p.tls.set_canary(0x1122_3344_5566_7788);
        p.set_input(vec![0x41u8; 24]); // 16-byte buffer + 8 bytes into the canary
        let insts = vec![
            Inst::PushReg(Reg::Rbp),
            Inst::MovRegReg { dst: Reg::Rbp, src: Reg::Rsp },
            Inst::SubRspImm(0x20),
            Inst::MovTlsToReg { dst: Reg::Rax, offset: 0x28 },
            Inst::MovRegToFrame { src: Reg::Rax, offset: -0x8 },
            Inst::CopyInputToFrame { offset: -0x18 }, // buffer at rbp-0x18..rbp-0x8
            Inst::MovFrameToReg { dst: Reg::Rdx, offset: -0x8 },
            Inst::XorTlsReg { dst: Reg::Rdx, offset: 0x28 },
            Inst::JeSkip(1),
            Inst::CallStackChkFail,
            Inst::Leave,
            Inst::Ret,
        ];
        let (exit, _) = run_single(insts, &mut p);
        assert!(exit.is_detection(), "overflow must be detected: {exit:?}");
    }

    #[test]
    fn overflow_without_protection_hijacks_control_flow() {
        let mut p = fresh_process();
        // Craft input: 16 bytes of filler, 8 bytes saved rbp, then the
        // attacker's return address.
        let target = 0x41414141u64;
        let mut input = vec![0x41u8; 24];
        input.extend_from_slice(&target.to_le_bytes());
        p.set_input(input);
        let insts = vec![
            Inst::PushReg(Reg::Rbp),
            Inst::MovRegReg { dst: Reg::Rbp, src: Reg::Rsp },
            Inst::SubRspImm(0x10),
            Inst::CopyInputToFrame { offset: -0x10 },
            Inst::Leave,
            Inst::Ret,
        ];
        let mut prog = Program::new();
        let f = prog.add_function("victim", insts).unwrap();
        prog.set_entry(f);
        prog.finalize();
        let mut cpu = Cpu::new();
        let cfg = ExecConfig { hijack_target: Some(target), ..ExecConfig::default() };
        let exit = cpu.run(&prog, &mut p, f, &cfg);
        assert!(exit.is_hijack(), "unprotected overflow must hijack: {exit:?}");
    }

    #[test]
    fn call_and_return_across_functions() {
        let mut prog = Program::new();
        let callee = prog
            .add_function("callee", vec![Inst::MovImmToReg { dst: Reg::Rax, imm: 99 }, Inst::Ret])
            .unwrap();
        let caller = prog
            .add_function(
                "caller",
                vec![
                    Inst::PushReg(Reg::Rbp),
                    Inst::MovRegReg { dst: Reg::Rbp, src: Reg::Rsp },
                    Inst::CallFn(callee),
                    Inst::Leave,
                    Inst::Ret,
                ],
            )
            .unwrap();
        prog.set_entry(caller);
        prog.finalize();
        let mut p = fresh_process();
        let mut cpu = Cpu::new();
        let exit = cpu.run(&prog, &mut p, caller, &ExecConfig::default());
        assert_eq!(exit, Exit::Normal(99));
    }

    #[test]
    fn instruction_limit_is_enforced() {
        let mut p = fresh_process();
        // An infinite loop: jmp back to itself is impossible with forward
        // skips, so use mutual recursion without returning.
        let mut prog = Program::new();
        let f = prog.add_function("loops", vec![Inst::Nop, Inst::JmpSkip(0)]).unwrap();
        // JmpSkip(0) just falls through; build a self-call instead.
        prog.replace_function_body(f, vec![Inst::CallFn(FuncId(0)), Inst::Ret]).unwrap();
        prog.set_entry(f);
        prog.finalize();
        let mut cpu = Cpu::new();
        let cfg = ExecConfig { max_instructions: 10_000, ..ExecConfig::default() };
        let exit = cpu.run(&prog, &mut p, f, &cfg);
        assert!(
            matches!(
                exit,
                Exit::Fault(Fault::InstructionLimit) | Exit::Fault(Fault::StackExhausted)
            ),
            "unbounded recursion must hit a limit: {exit:?}"
        );
    }

    #[test]
    fn rdrand_writes_register_and_charges_cycles() {
        let mut p = fresh_process();
        let (exit, cpu) = run_single(vec![Inst::Rdrand(Reg::Rax), Inst::Ret], &mut p);
        match exit {
            Exit::Normal(v) => assert_ne!(v, 0),
            other => panic!("unexpected exit {other:?}"),
        }
        assert!(cpu.cycles >= polycanary_crypto::cost::RDRAND_CYCLES);
    }

    #[test]
    fn rdtsc_is_monotonic_across_instructions() {
        let mut p = fresh_process();
        let insts = vec![
            Inst::PushReg(Reg::Rbp),
            Inst::MovRegReg { dst: Reg::Rbp, src: Reg::Rsp },
            Inst::SubRspImm(0x20),
            Inst::Rdtsc,
            Inst::MovRegToFrame { src: Reg::Rax, offset: -0x8 },
            Inst::Rdtsc,
            Inst::MovRegReg { dst: Reg::Rbx, src: Reg::Rax },
            Inst::MovFrameToReg { dst: Reg::Rcx, offset: -0x8 },
            Inst::Leave,
            Inst::Ret,
        ];
        let (exit, cpu) = run_single(insts, &mut p);
        assert!(exit.is_normal());
        assert!(cpu.regs().read(Reg::Rbx) > cpu.regs().read(Reg::Rcx));
    }

    #[test]
    fn aes_encrypt_frame_is_deterministic_given_state() {
        let mut prog = Program::new();
        let insts = vec![
            Inst::PushReg(Reg::Rbp),
            Inst::MovRegReg { dst: Reg::Rbp, src: Reg::Rsp },
            Inst::MovImmToReg { dst: Reg::Rcx, imm: 1234 },
            Inst::AesEncryptFrame { nonce: Reg::Rcx },
            Inst::Leave,
            Inst::Ret,
        ];
        let f = prog.add_function("owf", insts).unwrap();
        prog.set_entry(f);
        prog.finalize();

        let run = || {
            let mut p = fresh_process();
            p.owf_key = Some((111, 222));
            let mut cpu = Cpu::new();
            let exit = cpu.run(&prog, &mut p, f, &ExecConfig::default());
            assert!(exit.is_normal());
            (cpu.regs().read(Reg::Rax), cpu.regs().read(Reg::Rdx))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn bounded_copy_cannot_overflow() {
        let mut p = fresh_process();
        p.tls.set_canary(0xAAAA_BBBB_CCCC_DDDD);
        p.set_input(vec![0x42u8; 200]);
        let insts = vec![
            Inst::PushReg(Reg::Rbp),
            Inst::MovRegReg { dst: Reg::Rbp, src: Reg::Rsp },
            Inst::SubRspImm(0x20),
            Inst::MovTlsToReg { dst: Reg::Rax, offset: 0x28 },
            Inst::MovRegToFrame { src: Reg::Rax, offset: -0x8 },
            Inst::CopyInputToFrameBounded { offset: -0x18, max_len: 16 },
            Inst::MovFrameToReg { dst: Reg::Rdx, offset: -0x8 },
            Inst::XorTlsReg { dst: Reg::Rdx, offset: 0x28 },
            Inst::JeSkip(1),
            Inst::CallStackChkFail,
            Inst::Leave,
            Inst::Ret,
        ];
        let (exit, _) = run_single(insts, &mut p);
        assert!(exit.is_normal(), "bounded copy must not clobber the canary: {exit:?}");
    }

    #[test]
    fn canary_bookkeeping_pseudo_instructions_update_process_state() {
        let mut p = fresh_process();
        let insts = vec![
            Inst::PushReg(Reg::Rbp),
            Inst::MovRegReg { dst: Reg::Rbp, src: Reg::Rsp },
            Inst::SubRspImm(0x10),
            Inst::RecordCanaryAddress { offset: -0x8 },
            Inst::LinkCanaryPush { offset: -0x8 },
            Inst::Leave,
            Inst::Ret,
        ];
        let (exit, _) = run_single(insts, &mut p);
        assert!(exit.is_normal());
        assert_eq!(p.canary_addresses.len(), 1);
        assert_eq!(p.dcr_list.len(), 1);
        assert_eq!(p.tls.read_word(TLS_DCR_HEAD_OFFSET).unwrap(), p.dcr_list[0]);
    }

    #[test]
    fn memory_fault_on_wild_store() {
        let mut p = fresh_process();
        let insts = vec![
            Inst::MovImmToReg { dst: Reg::Rbx, imm: 0x1234 },
            Inst::MovRegToMem { src: Reg::Rax, base: Reg::Rbx, offset: 0 },
            Inst::Ret,
        ];
        let (exit, _) = run_single(insts, &mut p);
        assert!(matches!(exit, Exit::Fault(Fault::MemoryFault { .. })));
    }

    /// Runs `insts` through both dispatchers on identically-prepared
    /// processes and returns `(cached, reference)` outcomes.
    fn both_outcomes(
        insts: &[Inst],
        setup: impl Fn(&mut Process),
        cfg: &ExecConfig,
    ) -> (RunOutcome, RunOutcome) {
        let mut prog = Program::new();
        let f = prog.add_function("main", insts.to_vec()).unwrap();
        prog.set_entry(f);
        prog.finalize();
        let run = |reference: bool| {
            let mut p = fresh_process();
            setup(&mut p);
            let mut cpu = Cpu::new();
            let exit = if reference {
                cpu.run_reference(&prog, &mut p, f, cfg)
            } else {
                cpu.run(&prog, &mut p, f, cfg)
            };
            RunOutcome { exit, cycles: cpu.cycles, instructions: cpu.instructions }
        };
        (run(false), run(true))
    }

    #[test]
    fn call_to_unknown_function_id_faults_distinctly() {
        // Regression: this used to surface as InvalidReturn { addr: 0 },
        // indistinguishable from a genuine return to address 0.
        let insts = vec![Inst::CallFn(FuncId(9)), Inst::Ret];
        let (cached, reference) = both_outcomes(&insts, |_| {}, &ExecConfig::default());
        assert_eq!(cached.exit, Exit::Fault(Fault::UnknownFunction { id: 9 }));
        assert_eq!(cached, reference);
    }

    #[test]
    fn bad_entry_function_id_faults_distinctly() {
        let mut prog = Program::new();
        let f = prog.add_function("main", vec![Inst::Ret]).unwrap();
        prog.set_entry(f);
        prog.finalize();
        for reference in [false, true] {
            let mut p = fresh_process();
            let mut cpu = Cpu::new();
            let exit = if reference {
                cpu.run_reference(&prog, &mut p, FuncId(5), &ExecConfig::default())
            } else {
                cpu.run(&prog, &mut p, FuncId(5), &ExecConfig::default())
            };
            assert_eq!(exit, Exit::Fault(Fault::UnknownFunction { id: 5 }));
        }
        // An exhausted budget outranks the bad id, matching the reference
        // loop's check order.
        let cfg = ExecConfig { max_instructions: 0, ..ExecConfig::default() };
        let mut p = fresh_process();
        let exit = Cpu::new().run(&prog, &mut p, FuncId(5), &cfg);
        assert_eq!(exit, Exit::Fault(Fault::InstructionLimit));
    }

    #[test]
    fn genuine_return_to_address_zero_is_invalid_return() {
        // The other side of the UnknownFunction regression: a ret through a
        // zeroed return slot must still report InvalidReturn { addr: 0 }.
        let insts = vec![
            Inst::PopReg(Reg::Rbx), // discard the sentinel
            Inst::MovImmToReg { dst: Reg::Rcx, imm: 0 },
            Inst::PushReg(Reg::Rcx),
            Inst::Ret,
        ];
        let (cached, reference) = both_outcomes(&insts, |_| {}, &ExecConfig::default());
        assert_eq!(cached.exit, Exit::Fault(Fault::InvalidReturn { addr: 0 }));
        assert_eq!(cached, reference);
    }

    #[test]
    fn push_with_underflowing_rsp_is_stack_exhausted() {
        // Regression: Rsp below 8 used to wrap past zero on the decrement,
        // pass the stack-limit check at a huge address and surface as a
        // MemoryFault instead of StackExhausted.
        for rsp in [0u64, 4, 7] {
            let insts = vec![
                Inst::MovImmToReg { dst: Reg::Rsp, imm: rsp },
                Inst::PushReg(Reg::Rax),
                Inst::Ret,
            ];
            let (cached, reference) = both_outcomes(&insts, |_| {}, &ExecConfig::default());
            assert_eq!(cached.exit, Exit::Fault(Fault::StackExhausted), "rsp={rsp}");
            assert_eq!(cached, reference, "rsp={rsp}");
        }
    }

    #[test]
    fn rdrand_total_cost_is_pinned() {
        // Cost-model convention: static base from the fetch loop plus the
        // retry-excess surcharge.  Without failure injection the first draw
        // succeeds, so the total is exactly RDRAND_CYCLES.
        let insts = vec![Inst::Rdrand(Reg::Rax), Inst::Ret];
        let (cached, reference) = both_outcomes(&insts, |_| {}, &ExecConfig::default());
        let expected = polycanary_crypto::cost::RDRAND_CYCLES + Inst::Ret.cycles();
        assert_eq!(cached.cycles, expected);
        assert_eq!(cached, reference);
    }

    #[test]
    fn copy_surcharge_is_pinned() {
        let insts = vec![
            Inst::PushReg(Reg::Rbp),
            Inst::MovRegReg { dst: Reg::Rbp, src: Reg::Rsp },
            Inst::SubRspImm(0x20),
            Inst::CopyInputToFrame { offset: -0x18 },
            Inst::Leave,
            Inst::Ret,
        ];
        let input_len = 16u64;
        let static_base: u64 = insts.iter().map(Inst::cycles).sum();
        let (cached, reference) = both_outcomes(
            &insts,
            |p| p.set_input(vec![0u8; input_len as usize]),
            &ExecConfig::default(),
        );
        assert_eq!(cached.cycles, static_base + input_len / 8 + 1);
        assert_eq!(cached, reference);
    }

    #[test]
    fn instruction_limit_mid_fused_sequence_matches_reference() {
        // The SSP prologue + epilogue fuse into superinstructions; cutting
        // the budget at every possible point must still produce the exact
        // reference counts (fused handlers charge per component).
        let insts = vec![
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
        ];
        for max in 0..=12 {
            for canary_ok in [true, false] {
                let cfg = ExecConfig { max_instructions: max, ..ExecConfig::default() };
                let setup = |p: &mut Process| {
                    p.tls.set_canary(0x1122_3344_5566_7788);
                    if !canary_ok {
                        // Clobber the stored canary via an oversized copy.
                        p.set_input(vec![0x41u8; 24]);
                    }
                };
                let insts = if canary_ok {
                    insts.clone()
                } else {
                    let mut v = insts.clone();
                    v.insert(5, Inst::CopyInputToFrame { offset: -0x10 });
                    v
                };
                let (cached, reference) = both_outcomes(&insts, setup, &cfg);
                assert_eq!(cached, reference, "max={max} canary_ok={canary_ok}");
            }
        }
    }

    #[test]
    fn jump_into_fused_sequence_executes_plain_components() {
        // Fusion is an overlay: branching into the middle of a fused canary
        // epilogue must execute the component instructions unchanged.
        let insts = vec![
            Inst::PushReg(Reg::Rbp),
            Inst::MovRegReg { dst: Reg::Rbp, src: Reg::Rsp },
            Inst::SubRspImm(0x10),
            Inst::MovTlsToReg { dst: Reg::Rax, offset: 0x28 },
            Inst::MovRegToFrame { src: Reg::Rax, offset: -0x8 },
            Inst::MovFrameToReg { dst: Reg::Rdx, offset: -0x8 },
            // Jump over the epilogue head and its xor, straight to the je.
            Inst::JmpSkip(2),
            Inst::MovFrameToReg { dst: Reg::Rdx, offset: -0x8 },
            Inst::XorTlsReg { dst: Reg::Rdx, offset: 0x28 },
            Inst::JeSkip(1),
            Inst::CallStackChkFail,
            Inst::Leave,
            Inst::Ret,
        ];
        // zero_flag is false when the jmp lands on the je (SubRspImm does
        // not touch flags; the last flag writer is MovTlsToReg: none), so
        // the guard falls through into __stack_chk_fail.
        let (cached, reference) =
            both_outcomes(&insts, |p| p.tls.set_canary(0xAAAA), &ExecConfig::default());
        assert!(cached.exit.is_detection(), "{:?}", cached.exit);
        assert_eq!(cached, reference);
    }

    #[test]
    fn output_reg_reaches_process_output() {
        let mut p = fresh_process();
        let insts = vec![
            Inst::MovImmToReg { dst: Reg::Rax, imm: 0x4847_4645_4443_4241 },
            Inst::OutputReg(Reg::Rax),
            Inst::Ret,
        ];
        let (exit, _) = run_single(insts, &mut p);
        assert!(exit.is_normal());
        assert_eq!(p.output(), b"ABCDEFGH");
    }
}
