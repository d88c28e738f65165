//! Simulated processes and fork semantics.
//!
//! The byte-by-byte attack of §II-B exists because `fork()` clones the
//! parent's TLS — and therefore its canary — into every worker child.  The
//! [`Process`] type models exactly the state that matters for that argument:
//! the memory image (stack + globals), the TLS block, the per-process
//! hardware entropy devices and the attacker-facing input/output channels.

use polycanary_crypto::{HardwareRng, TimeStampCounter};

use crate::mem::Memory;
use crate::tls::Tls;

/// Process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u64);

impl std::fmt::Display for Pid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pid {}", self.0)
    }
}

/// One simulated process (or thread — the paper treats Linux threads as
/// processes sharing a program, which is how the simulator models them too).
///
/// [`Clone::clone_from`] reuses the target's allocations (memory segments,
/// bookkeeping vectors, input and output buffers); [`Process::fork_into`]
/// is built on it.
#[derive(Debug, PartialEq, Eq)]
pub struct Process {
    pid: Pid,
    /// The process's memory image.
    pub memory: Memory,
    /// The thread local storage block.
    pub tls: Tls,
    /// Hardware random number generator (`rdrand`) device state.
    pub hwrng: HardwareRng,
    /// Time stamp counter device state.
    pub tsc: TimeStampCounter,
    /// DynaGuard's canary address buffer (CAB): addresses of every live
    /// stack canary, maintained by the `RecordCanaryAddress` /
    /// `PopCanaryAddress` pseudo-instructions.
    pub canary_addresses: Vec<u64>,
    /// DCR's canary list.  The real system threads this list through the
    /// canaries on the stack; the simulator keeps it as a side table with
    /// the head mirrored in the TLS, which preserves the fork-time
    /// re-randomisation walk the scheme performs.
    pub dcr_list: Vec<u64>,
    /// AES key parked in the callee-saved registers `r12:r13` by the
    /// P-SSP-OWF startup hook; `None` for all other schemes.
    pub owf_key: Option<(u64, u64)>,
    input: Vec<u8>,
    output: Vec<u8>,
    /// Number of times this process has forked children.
    forks: u64,
}

impl Process {
    /// Creates a fresh process with a zeroed memory image and TLS block.
    /// It allocates nothing until the process writes its memory (see
    /// [`Memory`]).
    ///
    /// `seed` parameterises the per-process hardware entropy devices so that
    /// runs are reproducible; the *TLS canary itself* is set by the loader
    /// (see `Machine::spawn`), not here.
    pub fn new(pid: Pid, seed: u64, stack_size: u64) -> Self {
        Process {
            pid,
            memory: Memory::with_stack_size(stack_size),
            tls: Tls::new(),
            hwrng: HardwareRng::new(seed ^ pid.0.rotate_left(17)),
            tsc: TimeStampCounter::new(seed & 0xFFFF),
            canary_addresses: Vec::new(),
            dcr_list: Vec::new(),
            owf_key: None,
            input: Vec::new(),
            output: Vec::new(),
            forks: 0,
        }
    }

    /// The process id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// A placeholder process that allocates nothing, for a fork to clone
    /// into ([`Process::fork_into`]): a fresh image and a zeroed TLS block.
    pub fn vacant() -> Process {
        Process {
            pid: Pid(0),
            memory: Memory::new(),
            tls: Tls::new(),
            hwrng: HardwareRng::new(0),
            tsc: TimeStampCounter::default(),
            canary_addresses: Vec::new(),
            dcr_list: Vec::new(),
            owf_key: None,
            input: Vec::new(),
            output: Vec::new(),
            forks: 0,
        }
    }

    /// Forks this process: the child receives a byte-for-byte copy of the
    /// memory image and the TLS (including the canary), mirroring `fork(2)`.
    ///
    /// The child's hardware RNG stream is split so that parent and child do
    /// not draw identical "random" values — on real hardware `rdrand` is a
    /// shared physical device, so the streams are naturally distinct.
    pub fn fork(&mut self, child_pid: Pid) -> Process {
        let mut child = Process::vacant();
        self.fork_into(&mut child, child_pid);
        child
    }

    /// [`Process::fork`] into an existing process, reusing its allocations:
    /// whatever `child` was before, it ends up exactly as the child `fork`
    /// would return.  Re-forking a worker zero-fills only the memory the
    /// worker wrote and copies only the memory this parent wrote (see
    /// [`Memory`]).
    pub fn fork_into(&mut self, child: &mut Process, child_pid: Pid) {
        self.forks += 1;
        child.clone_from(self);
        child.pid = child_pid;
        child.hwrng = self.hwrng.split();
        child.input.clear();
        child.output.clear();
        child.forks = 0;
    }

    /// Number of children forked from this process so far.
    pub fn fork_count(&self) -> u64 {
        self.forks
    }

    /// Sets the attacker/client-controlled input delivered to the next
    /// request-handling function.
    pub fn set_input(&mut self, input: impl Into<Vec<u8>>) {
        self.input = input.into();
    }

    /// [`Process::set_input`] by copying into the existing input buffer, so
    /// a reused worker allocates nothing per request.
    pub fn set_input_from(&mut self, input: &[u8]) {
        self.input.clear();
        self.input.extend_from_slice(input);
    }

    /// The current input buffer.
    pub fn input(&self) -> &[u8] {
        &self.input
    }

    /// Copies the input buffer (truncated to `max_len`, when given) into
    /// memory at `addr`.
    ///
    /// This is the allocation-free form of the `strcpy`/`strncpy` model
    /// instructions: the input and the memory image are distinct fields, so
    /// the copy can borrow both at once where external callers (the CPU
    /// interpreter) cannot.
    ///
    /// # Errors
    ///
    /// Propagates the memory error when the destination range is not mapped.
    pub fn copy_input_to_memory(
        &mut self,
        addr: u64,
        max_len: Option<usize>,
    ) -> Result<(), crate::error::VmError> {
        let len = match max_len {
            Some(m) => self.input.len().min(m),
            None => self.input.len(),
        };
        self.memory.write_bytes(addr, &self.input[..len])
    }

    /// Appends bytes to the output channel (used by `OutputReg`).
    pub fn push_output(&mut self, bytes: &[u8]) {
        self.output.extend_from_slice(bytes);
    }

    /// Takes and clears the accumulated output.  The bytes are copied
    /// out and the channel keeps its capacity, so a reused worker's
    /// output grows once, not once per connection.
    pub fn take_output(&mut self) -> Vec<u8> {
        let output = self.output.clone();
        self.output.clear();
        output
    }

    /// The accumulated output without clearing it.
    pub fn output(&self) -> &[u8] {
        &self.output
    }
}

impl Clone for Process {
    fn clone(&self) -> Self {
        let mut clone = Process::vacant();
        clone.clone_from(self);
        clone
    }

    fn clone_from(&mut self, source: &Self) {
        // Destructured so that a new field cannot be forgotten here.
        let Process {
            pid,
            memory,
            tls,
            hwrng,
            tsc,
            canary_addresses,
            dcr_list,
            owf_key,
            input,
            output,
            forks,
        } = self;
        *pid = source.pid;
        memory.clone_from(&source.memory);
        tls.clone_from(&source.tls);
        hwrng.clone_from(&source.hwrng);
        tsc.clone_from(&source.tsc);
        canary_addresses.clone_from(&source.canary_addresses);
        dcr_list.clone_from(&source.dcr_list);
        *owf_key = source.owf_key;
        input.clone_from(&source.input);
        output.clone_from(&source.output);
        *forks = source.forks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::DEFAULT_STACK_SIZE;

    #[test]
    fn fork_clones_tls_and_memory() {
        let mut parent = Process::new(Pid(1), 42, DEFAULT_STACK_SIZE);
        parent.tls.set_canary(0xAABB_CCDD_EEFF_0011);
        let addr = parent.memory.stack_top() - 0x80;
        parent.memory.write_u64(addr, 777).unwrap();

        let child = parent.fork(Pid(2));
        assert_eq!(child.tls.canary(), 0xAABB_CCDD_EEFF_0011);
        assert_eq!(child.memory.read_u64(addr).unwrap(), 777);
        assert_eq!(child.pid(), Pid(2));
        assert_eq!(parent.fork_count(), 1);
    }

    #[test]
    fn fork_isolates_subsequent_writes() {
        let mut parent = Process::new(Pid(1), 42, DEFAULT_STACK_SIZE);
        let mut child = parent.fork(Pid(2));
        child.tls.set_canary(123);
        parent.tls.set_canary(456);
        assert_eq!(child.tls.canary(), 123);
        assert_eq!(parent.tls.canary(), 456);
    }

    #[test]
    fn fork_splits_hardware_rng_streams() {
        let mut parent = Process::new(Pid(1), 42, DEFAULT_STACK_SIZE);
        let mut child = parent.fork(Pid(2));
        for _ in 0..32 {
            assert_ne!(
                parent.hwrng.rdrand_retrying().0,
                child.hwrng.rdrand_retrying().0,
                "parent and child must not draw identical rdrand values"
            );
        }
    }

    #[test]
    fn input_is_not_inherited_across_fork() {
        let mut parent = Process::new(Pid(1), 1, DEFAULT_STACK_SIZE);
        parent.set_input(vec![1, 2, 3]);
        let child = parent.fork(Pid(2));
        assert!(child.input().is_empty());
        assert_eq!(parent.input(), &[1, 2, 3]);
    }

    #[test]
    fn output_channel_accumulates_and_drains() {
        let mut p = Process::new(Pid(1), 1, DEFAULT_STACK_SIZE);
        p.push_output(b"hello ");
        p.push_output(b"world");
        assert_eq!(p.output(), b"hello world");
        assert_eq!(p.take_output(), b"hello world");
        assert!(p.output().is_empty());
    }

    #[test]
    fn canary_bookkeeping_state_is_cloned_on_fork() {
        let mut parent = Process::new(Pid(1), 1, DEFAULT_STACK_SIZE);
        parent.canary_addresses.push(0x7fff_0000);
        parent.dcr_list.push(0x7fff_0008);
        parent.owf_key = Some((1, 2));
        let child = parent.fork(Pid(2));
        assert_eq!(child.canary_addresses, vec![0x7fff_0000]);
        assert_eq!(child.dcr_list, vec![0x7fff_0008]);
        assert_eq!(child.owf_key, Some((1, 2)));
    }
}
