//! Immutable machine snapshots: build a victim once, boot it many times.
//!
//! Fleet-scale campaigns (10^5+ victims of the same binary) cannot afford
//! to re-compile the program and re-allocate a zeroed address space per
//! victim.  A [`Snapshot`] captures everything about a booted
//! [`Machine`](crate::machine::Machine) that is *seed-independent* — the
//! finalized program (shared by `Arc`), the execution configuration and
//! the pristine post-`init` memory image — so that
//! [`Machine::from_snapshot`](crate::machine::Machine::from_snapshot) plus
//! [`Machine::restore`](crate::machine::Machine::restore) reproduce
//! [`Machine::new`](crate::machine::Machine::new) plus
//! [`Machine::spawn`](crate::machine::Machine::spawn) bit for bit, at the
//! cost of two `Arc` bumps instead of a compile and a page allocation.
//!
//! Everything seed-*dependent* (the pid sequence, the loader's canary
//! draws, the per-process entropy devices, the runtime hooks' startup
//! effects) is deliberately **not** captured: it is re-derived from the
//! boot seed on every restore, which is exactly what makes a restored
//! victim indistinguishable from a freshly built one.

use std::sync::Arc;

use crate::cpu::ExecConfig;
use crate::mem::Memory;
use crate::program::Program;

/// An immutable, cheaply clonable capture of a machine's seed-independent
/// boot state: finalized program, execution configuration and the pristine
/// memory image new processes start from.
///
/// Cloning a `Snapshot` — and restoring a process from one — shares the
/// program and the image pages by reference count; the copy-on-write
/// [`Memory`] unshares pages only when a process writes to them.
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
/// // The classic boot path and the snapshot path produce identical
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
    image: Memory,
}

impl Snapshot {
    /// Captures a snapshot directly from its parts, finalizing the program
    /// if needed.  Equivalent to booting a
    /// throwaway [`Machine`](crate::machine::Machine) with this
    /// configuration and calling
    /// [`Machine::snapshot`](crate::machine::Machine::snapshot).
    pub fn new(mut program: Program, exec_config: ExecConfig, stack_size: u64) -> Self {
        if !program.is_finalized() {
            program.finalize();
        }
        Snapshot::from_parts(Arc::new(program), exec_config, stack_size)
    }

    pub(crate) fn from_parts(
        program: Arc<Program>,
        exec_config: ExecConfig,
        stack_size: u64,
    ) -> Self {
        let image = Memory::with_stack_size(stack_size);
        Snapshot { program, exec_config, stack_size, image }
    }

    /// The finalized program this snapshot boots.
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

    /// The pristine post-`init` memory image restored processes start
    /// from.  Restores clone it, which shares its pages copy-on-write.
    pub fn image(&self) -> &Memory {
        &self.image
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;
    use crate::machine::{Machine, NoHooks};
    use crate::reg::Reg;

    fn trivial_program() -> Program {
        let mut prog = Program::new();
        let main = prog
            .add_function("main", vec![Inst::MovImmToReg { dst: Reg::Rax, imm: 7 }, Inst::Ret])
            .unwrap();
        prog.set_entry(main);
        prog
    }

    #[test]
    fn snapshot_finalizes_the_program() {
        let snapshot = Snapshot::new(trivial_program(), ExecConfig::default(), 8192);
        assert!(snapshot.program().is_finalized());
        assert_eq!(snapshot.stack_size(), 8192);
    }

    #[test]
    fn machine_snapshot_shares_the_finalized_program() {
        // The snapshot boots the machine's own finalized program, shared
        // by reference count rather than copied.
        let machine = Machine::new(trivial_program(), Box::new(NoHooks), 3);
        let snapshot = machine.snapshot();
        assert!(snapshot.program().is_finalized());
        assert!(std::ptr::eq(snapshot.program(), machine.program()));
    }

    #[test]
    fn snapshot_clones_share_the_program_and_image_pages() {
        let snapshot = Snapshot::new(trivial_program(), ExecConfig::default(), 8192);
        let clone = snapshot.clone();
        assert!(Arc::ptr_eq(&snapshot.program, &clone.program));
        assert!(snapshot.image().shares_pages_with(clone.image()));
    }

    #[test]
    fn restored_image_clones_share_pages_until_written() {
        let snapshot = Snapshot::new(trivial_program(), ExecConfig::default(), 8192);
        let a = snapshot.image().clone();
        let mut b = snapshot.image().clone();
        assert!(a.shares_pages_with(&b));
        b.write_u8(b.stack_top() - 1, 0x41).unwrap();
        assert!(!snapshot.image().shares_pages_with(&b));
        assert!(snapshot.image().shares_pages_with(&a));
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
