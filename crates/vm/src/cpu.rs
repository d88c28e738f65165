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
//! One loop, one `Inst` at a time: the loop fetches the current function
//! from the program table, bounds-checks the instruction index, charges
//! the static cost and hands the instruction to `Cpu::step`, the only
//! `match` over [`Inst`] in the interpreter.  A `ret` resolves its popped
//! address through [`Program::lookup_addr`].  The goldens in the
//! `vm_dispatch` test suite pin the [`RunOutcome`]s of PRNG-generated
//! programs and of the full scheme × deployment matrix.
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

use polycanary_crypto::Aes128;

use crate::error::{Fault, VmError};
use crate::inst::{FuncId, Inst};
use crate::process::Process;
use crate::program::{Function, Program};
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

    /// Runs `entry` to completion.
    ///
    /// The program must be finalized (addresses assigned); running an
    /// unfinalized program is a programming error, not a simulated fault,
    /// hence the panic.  An unresolvable function id faults as
    /// [`Fault::UnknownFunction`] on the fetch after the budget check, and
    /// stack-pointer underflow in `push` or `sub $imm,%rsp` faults as
    /// [`Fault::StackExhausted`].
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
            let Some(inst) = func.insts().get(idx) else {
                // Fell off the end of a function without `ret`.
                return Exit::Fault(Fault::InvalidReturn {
                    addr: func.entry_addr() + func.encoded_size(),
                });
            };
            self.instructions += 1;
            self.add_cycles(inst.cycles());

            match self.step(func, idx, inst, process) {
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

    /// Adds `cycles` to the running total, modulo 2^64 like a hardware
    /// cycle counter.  The same instruction as release `+=`, so the hot
    /// loop pays nothing for never aborting a debug build.
    #[inline]
    fn add_cycles(&mut self, cycles: u64) {
        self.cycles = self.cycles.wrapping_add(cycles);
    }

    /// The patched 32-bit canary check (Fig. 3/4): `%rdi` carries the packed 32-bit canary pair `C0 || C1`; the
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

    /// Executes `inst`, instruction `idx` of `func`, whose static cost the
    /// fetch loop has already charged.
    #[allow(clippy::too_many_lines)]
    fn step(
        &mut self,
        func: &Function,
        idx: usize,
        inst: &Inst,
        process: &mut Process,
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
                // An Rsp that would wrap past zero is exhausted too, not a
                // huge address that passes the limit check.
                let rsp = match self.regs.read(Reg::Rsp).checked_sub(u64::from(*imm)) {
                    Some(rsp) if rsp >= process.memory.stack_limit() => rsp,
                    _ => return Err(Fault::StackExhausted),
                };
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
                // The address of the next instruction, or the end marker
                // when the call is the function's last instruction.
                let return_addr = func.inst_addr(idx + 1).unwrap_or_else(|| func.end_addr());
                return Ok(Flow::Call { target: *target, return_addr });
            }
            Inst::CallStackChkFail => {
                return Err(Fault::CanaryViolation { function: func.name_interned() });
            }
            Inst::CallCheckCanary32 => {
                if !self.check_canary32(process) {
                    return Err(Fault::CanaryViolation { function: func.name_interned() });
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

    /// Runs `insts` as `main` on a process prepared by `setup` and returns
    /// the outcome.
    fn outcome(insts: &[Inst], setup: impl Fn(&mut Process), cfg: &ExecConfig) -> RunOutcome {
        let mut prog = Program::new();
        let f = prog.add_function("main", insts.to_vec()).unwrap();
        prog.set_entry(f);
        prog.finalize();
        let mut p = fresh_process();
        setup(&mut p);
        let mut cpu = Cpu::new();
        let exit = cpu.run(&prog, &mut p, f, cfg);
        RunOutcome { exit, cycles: cpu.cycles, instructions: cpu.instructions }
    }

    /// The static cost of `insts`, each charged once.
    fn static_cost(insts: &[Inst]) -> u64 {
        insts.iter().map(Inst::cycles).sum()
    }

    #[test]
    fn call_to_unknown_function_id_faults_distinctly() {
        // Regression: this used to surface as InvalidReturn { addr: 0 },
        // indistinguishable from a genuine return to address 0.  The call
        // retires and pushes its return address; the fetch after it faults.
        let insts = vec![Inst::CallFn(FuncId(9)), Inst::Ret];
        let out = outcome(&insts, |_| {}, &ExecConfig::default());
        assert_eq!(
            out,
            RunOutcome {
                exit: Exit::Fault(Fault::UnknownFunction { id: 9 }),
                cycles: static_cost(&insts[..1]),
                instructions: 1,
            }
        );
        // With the budget spent by the call, the limit outranks the bad id.
        let cfg = ExecConfig { max_instructions: 1, ..ExecConfig::default() };
        let out = outcome(&insts, |_| {}, &cfg);
        assert_eq!(out.exit, Exit::Fault(Fault::InstructionLimit));
    }

    #[test]
    fn bad_entry_function_id_faults_distinctly() {
        let mut prog = Program::new();
        let f = prog.add_function("main", vec![Inst::Ret]).unwrap();
        prog.set_entry(f);
        prog.finalize();
        let mut p = fresh_process();
        let exit = Cpu::new().run(&prog, &mut p, FuncId(5), &ExecConfig::default());
        assert_eq!(exit, Exit::Fault(Fault::UnknownFunction { id: 5 }));
        // An exhausted budget outranks the bad id: the budget is checked
        // before the function is fetched.
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
        let out = outcome(&insts, |_| {}, &ExecConfig::default());
        assert_eq!(
            out,
            RunOutcome {
                exit: Exit::Fault(Fault::InvalidReturn { addr: 0 }),
                cycles: static_cost(&insts),
                instructions: 4,
            }
        );
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
            let out = outcome(&insts, |_| {}, &ExecConfig::default());
            assert_eq!(
                out,
                RunOutcome {
                    exit: Exit::Fault(Fault::StackExhausted),
                    cycles: static_cost(&insts[..2]),
                    instructions: 2,
                },
                "rsp={rsp}"
            );
        }
    }

    #[test]
    fn sub_rsp_wrapping_past_zero_is_stack_exhausted() {
        // Regression: `sub $0x20,%rsp` from a small Rsp used to wrap to a
        // huge address, pass the stack-limit check, and surface as a
        // MemoryFault on the next push instead of StackExhausted.
        for rsp in [0u64, 7, 0x10] {
            let insts = vec![
                Inst::MovImmToReg { dst: Reg::Rsp, imm: rsp },
                Inst::SubRspImm(0x20),
                Inst::PushReg(Reg::Rax),
                Inst::Ret,
            ];
            let out = outcome(&insts, |_| {}, &ExecConfig::default());
            assert_eq!(
                out,
                RunOutcome {
                    exit: Exit::Fault(Fault::StackExhausted),
                    cycles: static_cost(&insts[..2]),
                    instructions: 2,
                },
                "rsp={rsp:#x}"
            );
        }
    }

    #[test]
    fn rdrand_total_cost_is_pinned() {
        // Cost-model convention: static base from the fetch loop plus the
        // retry-excess surcharge.  Without failure injection the first draw
        // succeeds, so the total is exactly RDRAND_CYCLES.
        let insts = vec![Inst::Rdrand(Reg::Rax), Inst::Ret];
        let out = outcome(&insts, |_| {}, &ExecConfig::default());
        let expected = polycanary_crypto::cost::RDRAND_CYCLES + Inst::Ret.cycles();
        assert_eq!(out.cycles, expected);
        assert_eq!(out.instructions, 2);
        assert!(out.exit.is_normal(), "{:?}", out.exit);
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
        let out =
            outcome(&insts, |p| p.set_input(vec![0u8; input_len as usize]), &ExecConfig::default());
        assert_eq!(out.cycles, static_cost(&insts) + input_len / 8 + 1);
        assert_eq!(out.instructions, insts.len() as u64);
        assert!(out.exit.is_normal(), "{:?}", out.exit);
    }

    #[test]
    fn instruction_limit_mid_canary_check_charges_the_retired_prefix() {
        // Cutting the budget anywhere in the SSP prologue and epilogue —
        // the sequences every byte-by-byte probe runs — faults with exactly
        // `k` instructions retired and exactly their cost charged: the
        // static cost of the first `k` executed instructions, plus the copy
        // surcharge once the copy has run.
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
        let smash = 24u64;
        let copy_surcharge = smash / 8 + 1;
        let cost = |inst: &Inst| {
            inst.cycles()
                + u64::from(matches!(inst, Inst::CopyInputToFrame { .. })) * copy_surcharge
        };
        for canary_ok in [true, false] {
            let (insts, trace) = if canary_ok {
                // `je` skips `__stack_chk_fail`.
                let mut trace = insts.clone();
                trace.remove(8);
                (insts.clone(), trace)
            } else {
                // Clobber the stored canary via an oversized copy; the run
                // ends in `__stack_chk_fail`.
                let mut v = insts.clone();
                v.insert(5, Inst::CopyInputToFrame { offset: -0x10 });
                let trace = v[..10].to_vec();
                (v, trace)
            };
            let setup = |p: &mut Process| {
                p.tls.set_canary(0x1122_3344_5566_7788);
                if !canary_ok {
                    p.set_input(vec![0x41u8; smash as usize]);
                }
            };
            let uncut = outcome(&insts, setup, &ExecConfig::default());
            assert_eq!(uncut.exit.is_normal(), canary_ok, "{:?}", uncut.exit);
            assert_eq!(uncut.exit.is_detection(), !canary_ok, "{:?}", uncut.exit);
            assert_eq!(uncut.instructions, trace.len() as u64, "canary_ok={canary_ok}");
            assert_eq!(uncut.cycles, trace.iter().map(cost).sum::<u64>());
            for k in 0..trace.len() {
                let cfg = ExecConfig { max_instructions: k as u64, ..ExecConfig::default() };
                let expected = RunOutcome {
                    exit: Exit::Fault(Fault::InstructionLimit),
                    cycles: trace[..k].iter().map(cost).sum(),
                    instructions: k as u64,
                };
                assert_eq!(outcome(&insts, setup, &cfg), expected, "k={k} canary_ok={canary_ok}");
            }
        }
    }

    #[test]
    fn jump_into_the_canary_epilogue_executes_its_instructions_as_written() {
        // Branching into the middle of the canary epilogue executes the
        // component instructions as written.
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
        // zero_flag is false when the jmp lands on the je (no instruction
        // before it writes the flag), so the guard falls through into
        // __stack_chk_fail.
        let out = outcome(&insts, |p| p.tls.set_canary(0xAAAA), &ExecConfig::default());
        let trace: Vec<Inst> = insts[..7].iter().chain(&insts[9..11]).cloned().collect();
        assert_eq!(
            out,
            RunOutcome {
                exit: Exit::Fault(Fault::CanaryViolation { function: "main".into() }),
                cycles: static_cost(&trace),
                instructions: trace.len() as u64,
            }
        );
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
