//! Immutable machine snapshots: build a victim once, boot it many times.
//!
//! Fleet-scale campaigns (10^5+ victims of the same binary) cannot afford
//! to re-compile the program per victim.  A [`Snapshot`] captures
//! everything about a [`Machine`](crate::machine::Machine) that is
//! *seed-independent* — the program (shared by `Arc`), the execution
//! configuration and the stack size — so that
//! [`Machine::from_snapshot`](crate::machine::Machine::from_snapshot) plus
//! [`Machine::restore`](crate::machine::Machine::restore) reproduce
//! [`Machine::new`](crate::machine::Machine::new) plus
//! [`Machine::spawn`](crate::machine::Machine::spawn) bit for bit, at the
//! cost of one `Arc` bump for the program instead of a compile.  A snapshot
//! holds no memory image: every boot starts from a fresh one, which reads
//! from the VM's static zero block and allocates nothing.
//!
//! Everything seed-*dependent* (the pid sequence, the loader's canary
//! draws, the per-process entropy devices, the runtime hooks' startup
//! effects) is deliberately **not** captured: it is re-derived from the
//! boot seed on every restore, which is exactly what makes a restored
//! victim indistinguishable from a freshly built one.

use std::sync::Arc;

use crate::cpu::ExecConfig;
use crate::program::Program;

/// An immutable, cheaply clonable capture of a machine's seed-independent
/// boot state: program, execution configuration and the stack size of the
/// processes it boots.
///
/// Cloning a `Snapshot` shares the program by reference count.
///
/// ```
/// use polycanary_vm::{Inst, Machine, NoHooks, Program, Reg, Snapshot};
///
/// let mut program = Program::new();
/// let main = program
///     .add_function("main", vec![Inst::MovImmToReg { dst: Reg::Rax, imm: 7 }, Inst::Ret])
///     .unwrap();
/// program.set_entry(main);
///
/// // A machine and one booted from its snapshot produce identical
/// // processes for the same seed.
/// let mut fresh = Machine::new(program.clone(), Box::new(NoHooks), 9);
/// let snapshot = fresh.snapshot();
/// let mut restored = Machine::from_snapshot(&snapshot, Box::new(NoHooks), 9);
/// let a = fresh.spawn();
/// let b = restored.restore(&snapshot);
/// assert_eq!(a.pid(), b.pid());
/// assert_eq!(a.tls.canary(), b.tls.canary());
/// assert!(a.memory == b.memory);
/// ```
#[derive(Debug, Clone)]
pub struct Snapshot {
    program: Arc<Program>,
    exec_config: ExecConfig,
    stack_size: u64,
}

impl Snapshot {
    /// Captures a snapshot directly from its parts.  Equivalent to booting
    /// a throwaway [`Machine`](crate::machine::Machine) with this
    /// configuration and calling
    /// [`Machine::snapshot`](crate::machine::Machine::snapshot).
    pub fn new(program: Program, exec_config: ExecConfig, stack_size: u64) -> Self {
        Snapshot::from_parts(Arc::new(program), exec_config, stack_size)
    }

    pub(crate) fn from_parts(
        program: Arc<Program>,
        exec_config: ExecConfig,
        stack_size: u64,
    ) -> Self {
        Snapshot { program, exec_config, stack_size }
    }

    /// The program this snapshot boots.
    pub fn program(&self) -> &Program {
        &self.program
    }

    pub(crate) fn program_arc(&self) -> Arc<Program> {
        Arc::clone(&self.program)
    }

    /// The execution configuration restored machines run under.
    pub fn exec_config(&self) -> &ExecConfig {
        &self.exec_config
    }

    /// The stack size (bytes) of processes restored from this snapshot.
    pub fn stack_size(&self) -> u64 {
        self.stack_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;
    use crate::machine::{Machine, NoHooks};
    use crate::program::{CODE_BASE, FUNCTION_ALIGN};
    use crate::reg::Reg;

    fn trivial_program() -> Program {
        let mut prog = Program::new();
        let main = prog
            .add_function("main", vec![Inst::MovImmToReg { dst: Reg::Rax, imm: 7 }, Inst::Ret])
            .unwrap();
        prog.set_entry(main);
        prog
    }

    /// Whether every function of `program` sits at or above [`CODE_BASE`]
    /// on a [`FUNCTION_ALIGN`] boundary.
    fn laid_out(program: &Program) -> bool {
        program.iter().all(|(_, f)| {
            f.entry_addr() >= CODE_BASE && f.entry_addr().is_multiple_of(FUNCTION_ALIGN)
        })
    }

    #[test]
    fn snapshot_keeps_the_program_laid_out() {
        let snapshot = Snapshot::new(trivial_program(), ExecConfig::default(), 8192);
        assert!(laid_out(snapshot.program()));
        assert_eq!(snapshot.stack_size(), 8192);
    }

    #[test]
    fn machine_snapshot_shares_the_finalized_program() {
        // The snapshot boots the machine's own laid-out program, shared by
        // reference count rather than copied.
        let machine = Machine::new(trivial_program(), Box::new(NoHooks), 3);
        let snapshot = machine.snapshot();
        assert!(laid_out(snapshot.program()));
        assert!(std::ptr::eq(snapshot.program(), machine.program()));
    }

    #[test]
    fn snapshot_clones_share_the_program_and_image_pages() {
        let snapshot = Snapshot::new(trivial_program(), ExecConfig::default(), 8192);
        let clone = snapshot.clone();
        assert!(Arc::ptr_eq(&snapshot.program, &clone.program));
        let a = Machine::from_snapshot(&snapshot, Box::new(NoHooks), 1).restore(&snapshot);
        let b = Machine::from_snapshot(&clone, Box::new(NoHooks), 2).restore(&clone);
        assert_eq!(a.memory, b.memory);
    }

    #[test]
    fn restored_image_clones_share_pages_until_written() {
        let snapshot = Snapshot::new(trivial_program(), ExecConfig::default(), 8192);
        let restored = Machine::from_snapshot(&snapshot, Box::new(NoHooks), 5).restore(&snapshot);
        let image = &restored.memory;
        assert_eq!(image.stack_top() - image.stack_limit(), 8192);
        let a = image.clone();
        let mut b = image.clone();
        assert_eq!(a, b);
        b.write_u8(b.stack_top() - 1, 0x41).unwrap();
        assert_ne!(*image, b);
        assert_eq!(*image, a);
    }

    #[test]
    fn machine_snapshot_preserves_exec_config_and_stack_size() {
        let mut machine = Machine::new(trivial_program(), Box::new(NoHooks), 3);
        machine.exec_config.hijack_target = Some(0xBAD);
        machine.set_stack_size(16 * 1024);
        let snapshot = machine.snapshot();
        assert_eq!(snapshot.exec_config().hijack_target, Some(0xBAD));
        assert_eq!(snapshot.stack_size(), 16 * 1024);
        let restored = Machine::from_snapshot(&snapshot, Box::new(NoHooks), 3);
        assert_eq!(restored.exec_config.hijack_target, Some(0xBAD));
    }
}
