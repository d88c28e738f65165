//! The machine runtime: loader, fork handling and runtime hooks.
//!
//! The paper's deployment story has three runtime pieces outside the
//! compiler: the OS loader initialising the TLS canary, glibc's
//! `fork`/`pthread_create`, and the P-SSP shared library that overrides them
//! (via `LD_PRELOAD`) to refresh the TLS *shadow* canary in the child
//! (§V-A).  [`Machine`] models the first two and exposes the third as the
//! [`RuntimeHooks`] trait, implemented per scheme in `polycanary-core`.

use std::sync::Arc;

use polycanary_crypto::{Prng, SplitMix64};

use crate::cpu::{Cpu, ExecConfig, RunOutcome};
use crate::error::VmError;
use crate::inst::FuncId;
use crate::mem::DEFAULT_STACK_SIZE;
use crate::process::{Pid, Process};
use crate::program::Program;
use crate::snapshot::Snapshot;

/// Runtime hooks corresponding to the P-SSP shared library of §V-A.
///
/// * [`RuntimeHooks::on_startup`] models the `setup_p-ssp` constructor that
///   runs before `main`.
/// * [`RuntimeHooks::on_fork_child`] models the wrapped `fork()` — it runs in
///   (i.e. receives) the child process only, after the TLS has been cloned.
/// * [`RuntimeHooks::on_thread_create`] models the wrapped `pthread_create`.
///
/// The default implementations do nothing, which is exactly the behaviour of
/// an uninstrumented (plain SSP) runtime.
pub trait RuntimeHooks: Send {
    /// Called once per process before its first instruction executes.
    fn on_startup(&mut self, _process: &mut Process, _cpu: &mut Cpu) {}

    /// Called on the child process immediately after a fork.
    fn on_fork_child(&mut self, _child: &mut Process) {}

    /// Called on a newly spawned thread's context.
    fn on_thread_create(&mut self, _thread: &mut Process) {}

    /// Human-readable name of the runtime (used in experiment output).
    fn name(&self) -> &'static str {
        "default-runtime"
    }
}

/// The glibc-only runtime: no shadow canary handling at all.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHooks;

impl RuntimeHooks for NoHooks {
    fn name(&self) -> &'static str {
        "glibc"
    }
}

/// A machine: a program plus the runtime that launches processes.
///
/// The program is shared by `Arc`, so machines booted from the same
/// [`Snapshot`] — one per victim in a fleet campaign — share a single
/// compiled copy.
pub struct Machine {
    program: Arc<Program>,
    hooks: Box<dyn RuntimeHooks>,
    loader_rng: SplitMix64,
    next_pid: u64,
    stack_size: u64,
    forks: u64,
    /// Execution configuration applied to every run.
    pub exec_config: ExecConfig,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("functions", &self.program.len())
            .field("runtime", &self.hooks.name())
            .field("next_pid", &self.next_pid)
            .finish()
    }
}

impl Machine {
    /// Creates a machine for `program` using the given runtime hooks, with
    /// the default execution configuration and stack size.
    ///
    /// `seed` drives the loader's canary choice and all per-process entropy,
    /// making every experiment reproducible.
    pub fn new(program: Program, hooks: Box<dyn RuntimeHooks>, seed: u64) -> Self {
        let snapshot = Snapshot::new(program, ExecConfig::default(), DEFAULT_STACK_SIZE);
        Machine::from_snapshot(&snapshot, hooks, seed)
    }

    /// Boots a machine from a [`Snapshot`]: the program and the execution
    /// configuration are shared from the snapshot (no copy), while the
    /// seed-dependent state — pid sequence, loader RNG — starts fresh from
    /// `seed`.  Machines booted from equal snapshots with equal seeds spawn
    /// identical processes.
    pub fn from_snapshot(snapshot: &Snapshot, hooks: Box<dyn RuntimeHooks>, seed: u64) -> Self {
        Machine {
            program: snapshot.program_arc(),
            hooks,
            loader_rng: SplitMix64::new(seed),
            next_pid: 1,
            stack_size: snapshot.stack_size(),
            forks: 0,
            exec_config: snapshot.exec_config().clone(),
        }
    }

    /// Captures this machine's seed-independent boot state: the shared
    /// program, the execution configuration and the current stack size.
    /// See [`Snapshot`] for the restore contract.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::from_parts(Arc::clone(&self.program), self.exec_config.clone(), self.stack_size)
    }

    /// [`Machine::spawn`] with the snapshot's stack size: launches a new
    /// top-level process through the same loader path, so for equal machine
    /// state and stack size the two return bit-identical processes.
    pub fn restore(&mut self, snapshot: &Snapshot) -> Process {
        self.boot(snapshot.stack_size())
    }

    /// Sets the stack size used for newly spawned processes.
    pub fn set_stack_size(&mut self, bytes: u64) {
        self.stack_size = bytes;
    }

    /// The program loaded into this machine.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The runtime hooks (shared library) attached to this machine.
    pub fn hooks_name(&self) -> &'static str {
        self.hooks.name()
    }

    /// Spawns a new top-level process: the loader picks a fresh TLS canary
    /// (as glibc does at program startup) and the runtime's startup hook
    /// runs (the P-SSP constructor, when installed).
    pub fn spawn(&mut self) -> Process {
        self.boot(self.stack_size)
    }

    /// The one boot path of [`Machine::spawn`] and [`Machine::restore`]:
    /// draws the pid, the entropy seed and the canary, then runs the
    /// startup hook on a fresh, untouched image.
    fn boot(&mut self, stack_size: u64) -> Process {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let seed = self.loader_rng.next_u64();
        let mut process = Process::new(pid, seed, stack_size);
        // glibc: the canary has its lowest byte zeroed (a terminator canary)
        // in some configurations; the paper treats it as a full random word,
        // which we follow.
        process.tls.set_canary(self.loader_rng.next_u64());
        let mut cpu = Cpu::new();
        self.hooks.on_startup(&mut process, &mut cpu);
        process
    }

    /// Forks `parent`, returning the child.  The child's TLS and memory are
    /// cloned first (kernel behaviour), then the runtime's fork hook runs on
    /// the child (the wrapped `fork()` of the P-SSP shared library).
    pub fn fork(&mut self, parent: &mut Process) -> Process {
        let mut child = Process::vacant();
        self.fork_into(parent, &mut child);
        child
    }

    /// [`Machine::fork`] into an existing worker process, reusing its
    /// allocations (see [`Process::fork_into`]).  Whatever `child` held
    /// before, it ends up exactly as the child `fork` would return — same
    /// pid sequence, same hook effects, same fork count.
    pub fn fork_into(&mut self, parent: &mut Process, child: &mut Process) {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.forks += 1;
        parent.fork_into(child, pid);
        self.hooks.on_fork_child(child);
    }

    /// Total number of forks this machine has performed, over all parents.
    /// A forking server's connection loop forks one worker per accepted
    /// connection, so this counter doubles as its connections-served gauge.
    pub fn forks(&self) -> u64 {
        self.forks
    }

    /// Spawns a thread sharing the parent's program.  Threads get their own
    /// TLS (cloned then refreshed by the hook), which matches how glibc
    /// allocates a new TCB per thread.
    pub fn spawn_thread(&mut self, parent: &mut Process) -> Process {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let mut thread = parent.fork(pid);
        self.hooks.on_thread_create(&mut thread);
        thread
    }

    /// Runs the program's entry function in `process`.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::MissingEntryPoint`] if the program has no entry.
    pub fn run(&self, process: &mut Process) -> Result<RunOutcome, VmError> {
        let entry = self.program.entry()?;
        Ok(self.run_function_id(process, entry))
    }

    /// Runs a specific function by name in `process`.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::UnknownFunction`] if no such function exists.
    pub fn run_function(&self, process: &mut Process, name: &str) -> Result<RunOutcome, VmError> {
        let id = self
            .program
            .function_by_name(name)
            .ok_or_else(|| VmError::UnknownFunction { name: name.to_string() })?;
        Ok(self.run_function_id(process, id))
    }

    /// Runs a specific function by id in `process`.
    pub fn run_function_id(&self, process: &mut Process, id: FuncId) -> RunOutcome {
        let mut cpu = Cpu::new();
        let exit = cpu.run(&self.program, process, id, &self.exec_config);
        RunOutcome { exit, cycles: cpu.cycles, instructions: cpu.instructions }
    }

    /// Convenience wrapper: spawn a process, run the entry point and return
    /// both the outcome and the final process state.
    pub fn spawn_and_run(&mut self) -> Result<(RunOutcome, Process), VmError> {
        let mut process = self.spawn();
        let outcome = self.run(&mut process)?;
        Ok((outcome, process))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::Exit;
    use crate::inst::Inst;
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
    fn spawn_assigns_fresh_pids_and_canaries() {
        let mut machine = Machine::new(trivial_program(), Box::new(NoHooks), 1);
        let a = machine.spawn();
        let b = machine.spawn();
        assert_ne!(a.pid(), b.pid());
        assert_ne!(a.tls.canary(), 0);
        assert_ne!(a.tls.canary(), b.tls.canary());
    }

    #[test]
    fn spawn_is_reproducible_from_seed() {
        let mut m1 = Machine::new(trivial_program(), Box::new(NoHooks), 99);
        let mut m2 = Machine::new(trivial_program(), Box::new(NoHooks), 99);
        assert_eq!(m1.spawn().tls.canary(), m2.spawn().tls.canary());
    }

    #[test]
    fn run_executes_entry() {
        let mut machine = Machine::new(trivial_program(), Box::new(NoHooks), 1);
        let (outcome, _) = machine.spawn_and_run().unwrap();
        assert_eq!(outcome.exit, Exit::Normal(7));
        assert!(outcome.cycles > 0);
        assert_eq!(outcome.instructions, 2);
    }

    #[test]
    fn fork_preserves_canary_with_default_runtime() {
        let mut machine = Machine::new(trivial_program(), Box::new(NoHooks), 5);
        let mut parent = machine.spawn();
        let child = machine.fork(&mut parent);
        assert_eq!(parent.tls.canary(), child.tls.canary());
        assert_ne!(parent.pid(), child.pid());
    }

    #[test]
    fn machine_counts_forks_across_all_parents() {
        let mut machine = Machine::new(trivial_program(), Box::new(NoHooks), 5);
        assert_eq!(machine.forks(), 0);
        let mut a = machine.spawn();
        let mut b = machine.spawn();
        let _ = machine.fork(&mut a);
        let _ = machine.fork(&mut b);
        let _ = machine.fork(&mut a);
        assert_eq!(machine.forks(), 3);
        // Spawning fresh top-level processes is not a fork.
        let _ = machine.spawn();
        assert_eq!(machine.forks(), 3);
    }

    #[test]
    fn run_function_by_name_and_unknown_function() {
        let machine = Machine::new(trivial_program(), Box::new(NoHooks), 5);
        let mut p = Process::new(Pid(1), 0, DEFAULT_STACK_SIZE);
        assert!(machine.run_function(&mut p, "main").is_ok());
        assert!(matches!(
            machine.run_function(&mut p, "nope"),
            Err(VmError::UnknownFunction { .. })
        ));
    }

    #[test]
    fn hooks_are_invoked() {
        #[derive(Default)]
        struct Counting {
            startups: u64,
            forks: u64,
        }
        impl RuntimeHooks for Counting {
            fn on_startup(&mut self, process: &mut Process, _cpu: &mut Cpu) {
                self.startups += 1;
                process.tls.set_shadow_canary(1, 2);
            }
            fn on_fork_child(&mut self, child: &mut Process) {
                self.forks += 1;
                child.tls.set_shadow_canary(3, 4);
            }
            fn name(&self) -> &'static str {
                "counting"
            }
        }
        let mut machine = Machine::new(trivial_program(), Box::new(Counting::default()), 5);
        let mut parent = machine.spawn();
        assert_eq!(parent.tls.shadow_canary(), (1, 2));
        let child = machine.fork(&mut parent);
        assert_eq!(child.tls.shadow_canary(), (3, 4));
        // Parent's shadow canary is untouched by the child's fork hook.
        assert_eq!(parent.tls.shadow_canary(), (1, 2));
        assert_eq!(machine.hooks_name(), "counting");
    }

    #[test]
    fn restore_matches_spawn_bit_for_bit() {
        let mut fresh = Machine::new(trivial_program(), Box::new(NoHooks), 77);
        let snapshot = fresh.snapshot();
        let mut restored = Machine::from_snapshot(&snapshot, Box::new(NoHooks), 77);
        // The pid sequence, loader canaries and memory images all agree —
        // across several draws, not just the first.
        for _ in 0..3 {
            let mut a = fresh.spawn();
            let mut b = restored.restore(&snapshot);
            assert_eq!(a.pid(), b.pid());
            assert_eq!(a.tls.canary(), b.tls.canary());
            assert_eq!(a.memory, b.memory);
            let ran_a = fresh.run(&mut a).unwrap();
            let ran_b = restored.run(&mut b).unwrap();
            assert_eq!(ran_a.exit, ran_b.exit);
            assert_eq!(ran_a.instructions, ran_b.instructions);
        }
    }

    #[test]
    fn restore_runs_the_startup_hook() {
        struct ShadowHook;
        impl RuntimeHooks for ShadowHook {
            fn on_startup(&mut self, process: &mut Process, _cpu: &mut Cpu) {
                process.tls.set_shadow_canary(11, 22);
            }
        }
        let machine = Machine::new(trivial_program(), Box::new(NoHooks), 4);
        let snapshot = machine.snapshot();
        let mut booted = Machine::from_snapshot(&snapshot, Box::new(ShadowHook), 4);
        let process = booted.restore(&snapshot);
        assert_eq!(process.tls.shadow_canary(), (11, 22));
    }

    #[test]
    fn restored_processes_share_image_pages_until_written() {
        let machine = Machine::new(trivial_program(), Box::new(NoHooks), 8);
        let snapshot = machine.snapshot();
        let mut booted = Machine::from_snapshot(&snapshot, Box::new(NoHooks), 8);
        let a = booted.restore(&snapshot);
        let mut b = booted.restore(&snapshot);
        // Neither process has written yet: both read the same untouched
        // zero pages (that the boot allocates nothing is pinned in
        // `tests/compile_allocations.rs`).
        assert_eq!(a.memory, b.memory);
        b.memory.write_u8(b.memory.stack_top() - 1, 0x41).unwrap();
        assert_ne!(a.memory, b.memory);
        assert_eq!(a.memory, booted.restore(&snapshot).memory);
    }
}
