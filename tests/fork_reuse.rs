//! The reusing fork path is indistinguishable from a fresh fork.
//!
//! `ForkingServer` forks every connection into one reused worker through
//! `Clone::clone_from` (`Memory`, `Process`) and `Machine::fork_into`, which
//! zero-fill only the bytes the worker wrote and copy only the bytes the
//! parent wrote.  These PRNG-driven properties check that
//! `a.clone_from(&b)` always equals `b.clone()` and that `fork_into` always
//! equals `fork`, over:
//!
//! * random stack and globals writes of every width (`write_u8`,
//!   `write_u32`, the `write_u64` fast path and fallback, `write_bytes`),
//! * writes flush against segment edges and failed partial writes,
//! * the DCR fork hook, which writes the child's stack,
//! * parents that themselves write between forks, so the range copied
//!   from the parent moves from one refork to the next.
//!
//! Both paths could share one error and still agree, so
//! `memory_matches_a_flat_reference_model` also drives `Memory` against a
//! plain `Vec<u8>` per segment: every read, fault and equality must match
//! the model through clones, reforks and snapshot restores, from parents
//! that are untouched (on the zero block) or written, and with a stack
//! larger than the zero block.

use polycanary::core::SchemeKind;
use polycanary::crypto::{Prng, SplitMix64};
use polycanary::vm::mem::{DEFAULT_GLOBAL_SIZE, DEFAULT_STACK_SIZE};
use polycanary::vm::{Inst, Machine, Memory, NoHooks, Pid, Process, Program, Reg, VmError};

const STACK: u64 = 4096;
const STACK_TOP: u64 = polycanary::vm::mem::STACK_TOP;
const GLOBAL_BASE: u64 = polycanary::vm::mem::GLOBAL_BASE;

/// One random write: a random width at a random place — inside a segment,
/// flush against either edge of one, straddling an edge (which must fail
/// and write nothing) or unmapped.
fn random_write(mem: &mut Memory, rng: &mut SplitMix64) {
    let (base, size) = match rng.next_below(2) {
        0 => (mem.stack_limit(), STACK),
        _ => (GLOBAL_BASE, mem.global_size()),
    };
    let width = match rng.next_below(4) {
        0 => 1,
        1 => 4,
        2 => 8,
        _ => 1 + rng.next_below(64),
    };
    let addr = match rng.next_below(8) {
        0 => base,
        1 => base + size - width,
        // Straddles the top edge: a partial access.
        2 => base + size - width + 1 + rng.next_below(width.max(2) - 1),
        3 => base.wrapping_sub(1 + rng.next_below(16)),
        _ => base + rng.next_below(size - width + 1),
    };
    let value = rng.next_u64();
    let before = mem.clone();
    let ok = match width {
        1 => mem.write_u8(addr, value as u8).is_ok(),
        4 => mem.write_u32(addr, value as u32).is_ok(),
        8 => mem.write_u64(addr, value).is_ok(),
        n => {
            let bytes: Vec<u8> = (0..n).map(|i| (value >> (i % 8 * 8)) as u8).collect();
            mem.write_bytes(addr, &bytes).is_ok()
        }
    };
    let fits = (addr >= mem.stack_limit() && addr + width <= STACK_TOP)
        || (addr >= GLOBAL_BASE && addr + width <= GLOBAL_BASE + mem.global_size());
    assert_eq!(ok, fits, "width {width} at {addr:#x}");
    if !ok {
        assert_eq!(*mem, before, "a failed write changes nothing");
    }
}

/// A run of random writes, weighted towards the top of the stack where a
/// running worker writes most.
fn scribble(mem: &mut Memory, rng: &mut SplitMix64) {
    for _ in 0..rng.next_below(24) {
        if rng.next_below(3) == 0 {
            let addr = STACK_TOP - 8 * (1 + rng.next_below(32));
            mem.write_u64(addr, rng.next_u64()).expect("in-stack word");
        } else {
            random_write(mem, rng);
        }
    }
}

/// What the parent does between two forks: nothing, or write.
fn parent_step(parent: &mut Memory, rng: &mut SplitMix64) {
    if rng.next_below(2) == 0 {
        scribble(parent, rng);
    }
}

#[test]
fn memory_clone_from_equals_clone() {
    let mut rng = SplitMix64::new(0xC10E_F0A1);
    for case in 0..200 {
        let mut parent = Memory::with_stack_size(STACK);
        scribble(&mut parent, &mut rng);
        // The slot starts as a different image: another stack size, or a
        // clone of the parent that then diverged.
        let mut slot = match rng.next_below(2) {
            0 => Memory::with_stack_size(STACK * 2),
            _ => parent.clone(),
        };
        for round in 0..12 {
            parent_step(&mut parent, &mut rng);
            let pristine = parent.clone();
            slot.clone_from(&parent);
            assert_eq!(slot, pristine, "case {case} round {round}");
            scribble(&mut slot, &mut rng);
            assert_eq!(parent, pristine, "the worker's writes never reach the parent");
        }
    }
}

/// A process with random TLS words, bookkeeping entries, I/O and memory.
fn scramble_process(p: &mut Process, rng: &mut SplitMix64) {
    scribble(&mut p.memory, rng);
    for _ in 0..rng.next_below(4) {
        let offset = 8 * rng.next_below(polycanary::vm::tls::TLS_SIZE / 8);
        p.tls.write_word(offset, rng.next_u64()).expect("word-aligned TLS offset");
    }
    for _ in 0..rng.next_below(3) {
        p.canary_addresses.push(STACK_TOP - 8 * (1 + rng.next_below(64)));
    }
    if rng.next_below(2) == 0 {
        p.owf_key = Some((rng.next_u64(), rng.next_u64()));
    }
    p.set_input_from(&rng.next_u64().to_le_bytes());
    p.push_output(&rng.next_u64().to_le_bytes()[..rng.next_below(8) as usize]);
    let _ = p.hwrng.rdrand();
}

#[test]
fn process_clone_from_equals_clone() {
    let mut rng = SplitMix64::new(0x09B0_CE55);
    for case in 0..100 {
        let mut parent = Process::new(Pid(1), rng.next_u64(), STACK);
        let mut slot = Process::new(Pid(9), rng.next_u64(), STACK * 2);
        for round in 0..8 {
            scramble_process(&mut parent, &mut rng);
            let pristine = parent.clone();
            slot.clone_from(&parent);
            assert_eq!(slot, pristine, "case {case} round {round}");
            scramble_process(&mut slot, &mut rng);
            assert_eq!(parent, pristine, "case {case} round {round}: parent untouched");
        }
    }
}

fn trivial_program() -> Program {
    let mut program = Program::new();
    let main =
        program.add_function("main", vec![Inst::MovImmToReg { dst: Reg::Rax, imm: 7 }, Inst::Ret]);
    program.set_entry(main.expect("fresh program"));
    program
}

/// A DCR-protected parent with live frames on its canary list, so the fork
/// hook rewrites stack words in every child.
fn dcr_machine(seed: u64) -> (Machine, Process) {
    let hooks = SchemeKind::Dcr.scheme().runtime_hooks(seed);
    let mut machine = Machine::new(trivial_program(), hooks, seed);
    machine.set_stack_size(STACK);
    let mut parent = machine.spawn();
    for depth in 1..=3u64 {
        let slot = STACK_TOP - 0x40 * depth;
        parent.memory.write_u64(slot, parent.tls.canary()).expect("in-stack slot");
        parent.dcr_list.push(slot);
    }
    (machine, parent)
}

#[test]
fn machine_fork_into_equals_fork_with_the_dcr_hook() {
    let mut rng = SplitMix64::new(0x0DC2_F02C);
    for case in 0..60 {
        let seed = rng.next_u64();
        // Two identical machines: one forks fresh children, the other forks
        // into one reused worker.
        let (mut fresh_machine, mut fresh_parent) = dcr_machine(seed);
        let (mut reuse_machine, mut reuse_parent) = dcr_machine(seed);
        let mut worker = reuse_machine.fork(&mut reuse_parent);
        let first = fresh_machine.fork(&mut fresh_parent);
        assert_eq!(worker, first, "case {case}: first fork");
        for round in 0..10 {
            scribble(&mut worker.memory, &mut rng);
            let _ = worker.hwrng.rdrand();
            // Both parents take the same step between forks.
            let mut step_rng = SplitMix64::new(rng.next_u64());
            parent_step(&mut fresh_parent.memory, &mut step_rng.clone());
            parent_step(&mut reuse_parent.memory, &mut step_rng);
            let child = fresh_machine.fork(&mut fresh_parent);
            reuse_machine.fork_into(&mut reuse_parent, &mut worker);
            assert_eq!(worker, child, "case {case} round {round}: child");
            assert_eq!(reuse_parent, fresh_parent, "case {case} round {round}: parent");
            for &slot in &child.dcr_list {
                assert_eq!(
                    child.memory.read_u64(slot).expect("in-stack slot"),
                    child.tls.canary(),
                    "the DCR hook re-keyed every live frame"
                );
            }
        }
        assert_eq!(reuse_machine.forks(), fresh_machine.forks());
    }
}

/// The reference model of a [`Memory`]: each segment a plain zeroed
/// `Vec<u8>`, with the fault rules written out.  An access is unmapped
/// unless its first byte lies in a segment, and partial unless its last
/// byte lies in the same one; an empty access always succeeds.
#[derive(Debug, Clone, PartialEq)]
struct Flat {
    stack: Vec<u8>,
    globals: Vec<u8>,
}

impl Flat {
    fn new(stack: u64) -> Flat {
        Flat { stack: vec![0; stack as usize], globals: vec![0; DEFAULT_GLOBAL_SIZE as usize] }
    }

    fn locate(&self, addr: u64, len: usize) -> Result<(bool, usize), VmError> {
        let end = addr.checked_add(len as u64).ok_or(VmError::UnmappedAddress { addr })?;
        let stack_base = STACK_TOP - self.stack.len() as u64;
        for (is_stack, base, size) in
            [(true, stack_base, self.stack.len()), (false, GLOBAL_BASE, self.globals.len())]
        {
            if (base..base + size as u64).contains(&addr) {
                if end > base + size as u64 {
                    return Err(VmError::PartialAccess { addr, len });
                }
                return Ok((is_stack, (addr - base) as usize));
            }
        }
        Err(VmError::UnmappedAddress { addr })
    }

    fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), VmError> {
        if data.is_empty() {
            return Ok(());
        }
        let (is_stack, off) = self.locate(addr, data.len())?;
        let segment = if is_stack { &mut self.stack } else { &mut self.globals };
        segment[off..off + data.len()].copy_from_slice(data);
        Ok(())
    }

    fn read(&self, addr: u64, len: usize) -> Result<Vec<u8>, VmError> {
        if len == 0 {
            return Ok(Vec::new());
        }
        let (is_stack, off) = self.locate(addr, len)?;
        let segment = if is_stack { &self.stack } else { &self.globals };
        Ok(segment[off..off + len].to_vec())
    }
}

/// A `Memory` and its model, which every operation drives in step.
#[derive(Debug, Clone)]
struct Twin {
    mem: Memory,
    flat: Flat,
}

impl Twin {
    fn new(stack: u64) -> Twin {
        Twin { mem: Memory::with_stack_size(stack), flat: Flat::new(stack) }
    }

    /// A process image restored from a snapshot of a machine with this
    /// stack size: the fleet engine's boot path.
    fn restored(stack: u64, seed: u64) -> Twin {
        let mut machine = Machine::new(trivial_program(), Box::new(NoHooks), seed);
        machine.set_stack_size(stack);
        let snapshot = machine.snapshot();
        let process = Machine::from_snapshot(&snapshot, Box::new(NoHooks), seed).restore(&snapshot);
        Twin { mem: process.memory, flat: Flat::new(stack) }
    }

    /// Every byte of both segments equals the model.
    fn assert_matches(&self, what: &str) {
        let stack = self.flat.stack.len();
        let limit = self.mem.stack_limit();
        assert_eq!(self.mem.stack_top() - limit, stack as u64, "{what}: stack size");
        assert_eq!(
            self.mem.read_bytes(limit, stack).as_deref(),
            Ok(&self.flat.stack[..]),
            "{what}"
        );
        let globals = self.flat.globals.len();
        assert_eq!(self.mem.global_size(), globals as u64, "{what}: globals size");
        assert_eq!(
            self.mem.read_bytes(GLOBAL_BASE, globals).as_deref(),
            Ok(&self.flat.globals[..]),
            "{what}"
        );
    }

    /// One random write of a random width and place; the result, fault
    /// included, must be the model's.
    fn write(&mut self, rng: &mut SplitMix64) {
        let (addr, width) = random_access(&self.flat, rng);
        let value = rng.next_u64();
        let data: Vec<u8> = (0..width).map(|i| (value >> (i % 8 * 8)) as u8).collect();
        let expected = self.flat.write(addr, &data);
        let got = match (width, rng.next_below(2)) {
            (1, 0) => self.mem.write_u8(addr, data[0]),
            (4, 0) => self.mem.write_u32(addr, value as u32),
            (8, 0) => self.mem.write_u64(addr, value),
            _ => self.mem.write_bytes(addr, &data),
        };
        assert_eq!(got, expected, "write of {width} at {addr:#x}");
    }

    /// One random read; value and fault must be the model's.
    fn read(&self, rng: &mut SplitMix64) {
        let (addr, width) = random_access(&self.flat, rng);
        let expected = self.flat.read(addr, width);
        let word = |bytes: Vec<u8>| bytes.iter().rev().fold(0u64, |w, &b| w << 8 | u64::from(b));
        match (width, rng.next_below(2)) {
            (1, 0) => assert_eq!(self.mem.read_u8(addr).map(u64::from), expected.map(word)),
            (4, 0) => assert_eq!(self.mem.read_u32(addr).map(u64::from), expected.map(word)),
            (8, 0) => assert_eq!(self.mem.read_u64(addr), expected.map(word)),
            _ => assert_eq!(self.mem.read_bytes(addr, width), expected, "{width} at {addr:#x}"),
        }
    }

    fn scribble(&mut self, rng: &mut SplitMix64) {
        for _ in 0..1 + rng.next_below(16) {
            self.write(rng);
        }
    }
}

/// A random access against `flat`'s layout: inside either segment, flush
/// against an edge, straddling the top edge, just below a segment, between
/// the segments, wrapping past `u64::MAX`, or empty.
fn random_access(flat: &Flat, rng: &mut SplitMix64) -> (u64, usize) {
    let (base, size) = match rng.next_below(2) {
        0 => (STACK_TOP - flat.stack.len() as u64, flat.stack.len() as u64),
        _ => (GLOBAL_BASE, flat.globals.len() as u64),
    };
    let width = match rng.next_below(5) {
        0 => 1,
        1 => 4,
        2 => 8,
        3 => 1 + rng.next_below(256),
        _ => rng.next_below(9),
    };
    let addr = match rng.next_below(10) {
        0 => base,
        1 => (base + size).wrapping_sub(width),
        2 => base + size - width.max(1) + 1 + rng.next_below(width.max(2) - 1),
        3 => base.wrapping_sub(1 + rng.next_below(16)),
        4 => GLOBAL_BASE + DEFAULT_GLOBAL_SIZE + rng.next_below(1 << 20),
        5 => u64::MAX - rng.next_below(16),
        _ => base + rng.next_below(size.saturating_sub(width) + 1),
    };
    (addr, width as usize)
}

#[test]
fn memory_matches_a_flat_reference_model() {
    // A stack below, at and above the zero block's size: the last one is
    // allocated zeroed up front instead of reading the zero block.
    const STACKS: [u64; 4] = [4096, 16 * 1024, DEFAULT_STACK_SIZE, DEFAULT_STACK_SIZE + 4096];
    let mut rng = SplitMix64::new(0x5EED_F1A7);
    for case in 0..48u64 {
        let stack = STACKS[case as usize % STACKS.len()];
        let mut parent =
            if case % 2 == 0 { Twin::new(stack) } else { Twin::restored(stack, rng.next_u64()) };
        // The parent starts untouched or written.
        if case / 4 % 2 == 1 {
            parent.scribble(&mut rng);
        }
        parent.assert_matches("parent");
        let other = STACKS[rng.next_below(4) as usize];
        let mut workers = vec![parent.clone(), Twin::new(other), Twin::restored(other, case)];
        for round in 0..24 {
            let what = format!("case {case} round {round}");
            let w = rng.next_below(workers.len() as u64) as usize;
            // The refork of a reused worker, as `fork_into` does it.
            let refork = |worker: &mut Twin, parent: &Twin, rng: &mut SplitMix64| {
                worker.mem.clone_from(&parent.mem);
                worker.flat.clone_from(&parent.flat);
                worker.assert_matches(&what);
                worker.scribble(rng);
            };
            match rng.next_below(8) {
                0 => parent.scribble(&mut rng),
                1 => {
                    // The parent writes between two reforks of one worker.
                    refork(&mut workers[w], &parent, &mut rng);
                    parent.scribble(&mut rng);
                    refork(&mut workers[w], &parent, &mut rng);
                }
                2 => workers[w] = parent.clone(),
                3 => {
                    let v = rng.next_below(workers.len() as u64) as usize;
                    let source = workers[v].clone();
                    workers[w].mem.clone_from(&source.mem);
                    workers[w].flat.clone_from(&source.flat);
                }
                _ => refork(&mut workers[w], &parent, &mut rng),
            }
            for _ in 0..8 {
                parent.read(&mut rng);
                workers[w].read(&mut rng);
            }
            parent.assert_matches(&what);
            workers[w].assert_matches(&what);
            for twin in &workers {
                assert_eq!(twin.mem == parent.mem, twin.flat == parent.flat, "{what}: equality");
                assert_eq!(workers[w].mem == twin.mem, workers[w].flat == twin.flat, "{what}");
            }
        }
    }
}
