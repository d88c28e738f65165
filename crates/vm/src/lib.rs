//! Simulated 64-bit execution substrate for the polycanary workspace.
//!
//! The paper *To Detect Stack Buffer Overflow with Polymorphic Canaries*
//! (DSN 2018) evaluates its schemes on real x86-64 hardware with an LLVM
//! pass, a binary rewriter and an `LD_PRELOAD`-ed shared library.  This
//! crate provides the simulated machine that replaces that hardware/OS
//! substrate:
//!
//! * [`reg`], [`mem`], [`tls`] — registers, a downward-growing stack at
//!   realistic virtual addresses, and the TLS block holding the canary at
//!   `%fs:0x28` plus the P-SSP shadow canary at `%fs:0x2a8`.
//! * [`inst`], [`program`] — the instruction set (every instruction of the
//!   paper's Codes 1–9 plus a few pseudo-instructions), with encoded sizes
//!   and cycle costs, and programs with a real address layout.
//! * [`cpu`] — the interpreter, which faults exactly where glibc's
//!   `__stack_chk_fail` aborts and which recognises successful control-flow
//!   hijacks.
//! * [`process`], [`machine`] — processes with `fork()` TLS-cloning
//!   semantics and the runtime-hook mechanism corresponding to the P-SSP
//!   shared library.
//!
//! # Quick example
//!
//! ```
//! use polycanary_vm::inst::Inst;
//! use polycanary_vm::machine::{Machine, NoHooks};
//! use polycanary_vm::program::Program;
//! use polycanary_vm::reg::Reg;
//!
//! let mut program = Program::new();
//! let main = program
//!     .add_function("main", vec![Inst::MovImmToReg { dst: Reg::Rax, imm: 1 }, Inst::Ret])?;
//! program.set_entry(main);
//!
//! let mut machine = Machine::new(program, Box::new(NoHooks), 0xC0FFEE);
//! let (outcome, _process) = machine.spawn_and_run()?;
//! assert!(outcome.exit.is_normal());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod cpu;
pub mod error;
pub mod inst;
pub mod machine;
pub mod mem;
pub mod process;
pub mod program;
pub mod reg;
pub mod snapshot;
pub mod tls;

pub use cpu::{Cpu, ExecConfig, Exit, RunOutcome, RETURN_SENTINEL};
pub use error::{Fault, VmError};
pub use inst::{FuncId, Inst};
pub use machine::{Machine, NoHooks, RunStats, RuntimeHooks};
pub use mem::Memory;
pub use process::{Pid, Process};
pub use program::{FunctionBody, FunctionIds, NameHasher, Program};
pub use reg::{Reg, RegisterFile};
pub use snapshot::Snapshot;
pub use tls::{
    Tls, TLS_CANARY_OFFSET, TLS_DCR_HEAD_OFFSET, TLS_DYNAGUARD_CAB_OFFSET, TLS_SHADOW_C0_OFFSET,
    TLS_SHADOW_C1_OFFSET, TLS_SHADOW_PACKED32_OFFSET,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexports_are_usable() {
        let mut program = Program::new();
        let f = program.add_function("f", vec![Inst::Ret]).unwrap();
        program.set_entry(f);
        let mut machine = Machine::new(program, Box::new(NoHooks), 1);
        let (outcome, process) = machine.spawn_and_run().unwrap();
        assert!(outcome.exit.is_normal());
        assert_ne!(process.tls.canary(), 0);
    }
}
