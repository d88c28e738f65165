//! Programs: collections of functions with assigned virtual addresses.
//!
//! A [`Program`] is the unit the compiler produces and the binary rewriter
//! consumes.  Functions are laid out contiguously in a simulated `.text`
//! section starting at [`CODE_BASE`]; every instruction receives a virtual
//! address derived from the encoded sizes of the instructions before it.
//! Return addresses pushed by `call` are therefore *real* addresses that an
//! overflow can overwrite, and the interpreter translates them back to
//! instruction positions when `ret` executes.
//!
//! Each function's sorted `inst_addrs` is the program's only address
//! index.  [`Program::lookup_addr`] answers from it by two binary searches
//! (function by entry address, then instruction); that is how the
//! interpreter's `ret` resolves a return address.  No per-instruction hash
//! map is kept, and [`Program::finalize`] only lays out addresses.
//!
//! Function names are `Arc<str>`: [`Program::add_function`] keeps the
//! `Arc` it is handed as both the function's name and its key in the
//! [`FunctionIds`] name table, so a compiler that interns each name once
//! per module adds functions without copying a single name.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::error::VmError;
use crate::inst::{FuncId, Inst};

/// Base virtual address of the `.text` section.
pub const CODE_BASE: u64 = 0x0040_0000;
/// Alignment of function entry points.
pub const FUNCTION_ALIGN: u64 = 16;

/// A function-name table: name → [`FuncId`].  The table of every
/// [`Program`], and the compiler's table of a module (ids in declaration
/// order).
pub type FunctionIds = HashMap<Arc<str>, FuncId, BuildHasherDefault<NameHasher>>;

/// The hasher of [`FunctionIds`]: a multiply-rotate over 8-byte words (the
/// `FxHash` scheme).  Function names come from the program's own builders
/// and generators, not from an adversary, so they need no keyed hash, and
/// a keyed SipHash costs more on a module's short names than the pairwise
/// name check that the table replaced.
#[derive(Debug, Default, Clone, Copy)]
pub struct NameHasher(u64);

impl NameHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for NameHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, byte: u8) {
        self.add(u64::from(byte));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One function of a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Interned so fault reporting (`__stack_chk_fail` names the detecting
    /// function in every [`Fault::CanaryViolation`](crate::error::Fault))
    /// is a reference-count bump, not a per-fault string allocation.
    name: Arc<str>,
    insts: Vec<Inst>,
    /// Entry address, assigned by [`Program::finalize`].
    entry_addr: u64,
    /// Address of each instruction, assigned by [`Program::finalize`].
    inst_addrs: Vec<u64>,
}

impl Function {
    /// The function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The function's interned name, shared by reference count.
    pub fn name_interned(&self) -> Arc<str> {
        Arc::clone(&self.name)
    }

    /// The function's instructions.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// The function's entry address (valid after finalization).
    pub fn entry_addr(&self) -> u64 {
        self.entry_addr
    }

    /// The address of instruction `index` (valid after finalization).
    pub fn inst_addr(&self, index: usize) -> Option<u64> {
        self.inst_addrs.get(index).copied()
    }

    /// Total encoded size of the function in bytes.
    pub fn encoded_size(&self) -> u64 {
        self.insts.iter().map(Inst::encoded_size).sum()
    }

    /// The one-past-the-end marker address: entry plus encoded size, read
    /// in O(1) from the last instruction address (valid after
    /// finalization).
    pub(crate) fn end_addr(&self) -> u64 {
        match (self.inst_addrs.last(), self.insts.last()) {
            (Some(&addr), Some(inst)) => addr + inst.encoded_size(),
            _ => self.entry_addr,
        }
    }
}

/// A complete program: functions, entry point and their address layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    functions: Vec<Function>,
    by_name: FunctionIds,
    entry: Option<FuncId>,
    /// Extra sections appended by the binary rewriter (name → size in bytes).
    extra_sections: Vec<(String, u64)>,
    finalized: bool,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty program with room for `functions` functions, so
    /// adding them never grows the function list or the name table.
    pub fn with_capacity(functions: usize) -> Self {
        Program {
            functions: Vec::with_capacity(functions),
            by_name: FunctionIds::with_capacity_and_hasher(functions, Default::default()),
            entry: None,
            extra_sections: Vec::new(),
            finalized: false,
        }
    }

    /// Adds a function and returns its id.  The name is kept as given: an
    /// `Arc<str>` becomes both the function's name and its table key
    /// without a copy.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::DuplicateFunction`] if a function with the same
    /// name already exists.
    pub fn add_function(
        &mut self,
        name: impl Into<Arc<str>>,
        insts: Vec<Inst>,
    ) -> Result<FuncId, VmError> {
        let id = FuncId(self.functions.len());
        let slot = match self.by_name.entry(name.into()) {
            Entry::Occupied(taken) => {
                return Err(VmError::DuplicateFunction { name: taken.key().to_string() })
            }
            Entry::Vacant(slot) => slot,
        };
        let name = Arc::clone(slot.key());
        slot.insert(id);
        self.functions.push(Function { name, insts, entry_addr: 0, inst_addrs: Vec::new() });
        self.finalized = false;
        Ok(id)
    }

    /// Replaces the body of an existing function (used by the rewriter).
    ///
    /// # Errors
    ///
    /// Returns [`VmError::UnknownFunction`] if `id` is out of range.
    pub fn replace_function_body(&mut self, id: FuncId, insts: Vec<Inst>) -> Result<(), VmError> {
        let func = self
            .functions
            .get_mut(id.0)
            .ok_or_else(|| VmError::UnknownFunction { name: format!("{id}") })?;
        func.insts = insts;
        self.finalized = false;
        Ok(())
    }

    /// Sets the program entry point.
    pub fn set_entry(&mut self, entry: FuncId) {
        self.entry = Some(entry);
    }

    /// The program entry point.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::MissingEntryPoint`] if no entry was set.
    pub fn entry(&self) -> Result<FuncId, VmError> {
        self.entry.ok_or(VmError::MissingEntryPoint)
    }

    /// Number of functions in the program.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// Whether the program has no functions.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }

    /// Iterates over `(id, function)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FuncId, &Function)> {
        self.functions.iter().enumerate().map(|(i, f)| (FuncId(i), f))
    }

    /// Looks up a function by id.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::UnknownFunction`] if `id` is out of range.
    pub fn function(&self, id: FuncId) -> Result<&Function, VmError> {
        self.functions.get(id.0).ok_or_else(|| VmError::UnknownFunction { name: format!("{id}") })
    }

    /// Looks up a function id by name.
    pub fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.by_name.get(name).copied()
    }

    /// Records an extra section added by the binary rewriter (e.g. the
    /// section holding the customised `fork()` for statically linked code).
    pub fn add_extra_section(&mut self, name: impl Into<String>, size: u64) {
        self.extra_sections.push((name.into(), size));
    }

    /// Extra sections appended to the binary.
    pub fn extra_sections(&self) -> &[(String, u64)] {
        &self.extra_sections
    }

    /// Assigns addresses to every function and instruction.
    ///
    /// Calling `finalize` again after mutation recomputes the layout; the
    /// rewriter uses the before/after sizes to verify layout preservation.
    pub fn finalize(&mut self) {
        let mut cursor = CODE_BASE;
        for func in &mut self.functions {
            cursor = cursor.next_multiple_of(FUNCTION_ALIGN);
            func.entry_addr = cursor;
            func.inst_addrs.clear();
            func.inst_addrs.reserve(func.insts.len());
            for inst in &func.insts {
                func.inst_addrs.push(cursor);
                cursor += inst.encoded_size();
            }
            // The address immediately after the last instruction is the
            // function's "one past the end" marker (see `lookup_addr`); one
            // padding byte keeps it distinct from the next entry.
            cursor += 1;
        }
        self.finalized = true;
    }

    /// Whether [`Program::finalize`] has been called since the last mutation.
    pub fn is_finalized(&self) -> bool {
        self.finalized
    }

    /// Translates a virtual address back to `(function, instruction index)`.
    ///
    /// Each function's one-past-the-end marker (entry plus encoded size)
    /// resolves to `(function, len)`, so a call as the final instruction
    /// still has a valid return address (it behaves as falling off the
    /// end).  Returns `None` for every other address — mid-instruction
    /// bytes, alignment padding, anything outside `.text`, and every
    /// address of an unfinalized program.  This is how a corrupted return
    /// address is detected as either an invalid return or a successful
    /// hijack.
    ///
    /// Answered by binary search over the sorted entry and instruction
    /// addresses [`Program::finalize`] assigns.
    pub fn lookup_addr(&self, addr: u64) -> Option<(FuncId, usize)> {
        if !self.finalized {
            return None;
        }
        let fidx = self.functions.partition_point(|f| f.entry_addr <= addr).checked_sub(1)?;
        let func = &self.functions[fidx];
        if addr == func.end_addr() {
            return Some((FuncId(fidx), func.insts.len()));
        }
        let idx = func.inst_addrs.binary_search(&addr).ok()?;
        Some((FuncId(fidx), idx))
    }

    /// Total encoded size of all original functions (the `.text` section).
    pub fn text_size(&self) -> u64 {
        self.functions.iter().map(Function::encoded_size).sum()
    }

    /// Total binary size: `.text` plus any extra sections.
    pub fn binary_size(&self) -> u64 {
        self.text_size() + self.extra_sections.iter().map(|(_, s)| s).sum::<u64>()
    }
}

impl Default for Program {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{Cpu, ExecConfig, Exit, RunOutcome};
    use crate::mem::DEFAULT_STACK_SIZE;
    use crate::process::{Pid, Process};
    use crate::reg::Reg;

    fn tiny_function() -> Vec<Inst> {
        vec![
            Inst::PushReg(Reg::Rbp),
            Inst::MovRegReg { dst: Reg::Rbp, src: Reg::Rsp },
            Inst::Compute(10),
            Inst::Leave,
            Inst::Ret,
        ]
    }

    #[test]
    fn add_and_lookup_functions() {
        let mut prog = Program::new();
        let main = prog.add_function("main", tiny_function()).unwrap();
        let helper = prog.add_function("helper", tiny_function()).unwrap();
        assert_eq!(prog.len(), 2);
        assert_eq!(prog.function_by_name("main"), Some(main));
        assert_eq!(prog.function_by_name("helper"), Some(helper));
        assert_eq!(prog.function_by_name("missing"), None);
        assert_eq!(prog.function(main).unwrap().name(), "main");
    }

    #[test]
    fn add_function_keeps_the_arc_it_is_given() {
        let name: Arc<str> = Arc::from("main");
        let mut prog = Program::with_capacity(1);
        let id = prog.add_function(Arc::clone(&name), tiny_function()).unwrap();
        assert!(Arc::ptr_eq(&prog.function(id).unwrap().name_interned(), &name));
        assert_eq!(prog.function_by_name("main"), Some(id));
        assert_eq!(prog, {
            let mut p = Program::new();
            p.add_function("main", tiny_function()).unwrap();
            p
        });
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut prog = Program::new();
        prog.add_function("main", tiny_function()).unwrap();
        let err = prog.add_function("main", tiny_function()).unwrap_err();
        assert_eq!(err, VmError::DuplicateFunction { name: "main".into() });
    }

    #[test]
    fn finalize_assigns_monotonic_addresses() {
        let mut prog = Program::new();
        let a = prog.add_function("a", tiny_function()).unwrap();
        let b = prog.add_function("b", tiny_function()).unwrap();
        prog.finalize();
        let fa = prog.function(a).unwrap();
        let fb = prog.function(b).unwrap();
        assert_eq!(fa.entry_addr(), CODE_BASE);
        assert!(fb.entry_addr() > fa.entry_addr());
        assert_eq!(fb.entry_addr() % FUNCTION_ALIGN, 0);
        // Instruction addresses strictly increase within a function.
        let addrs: Vec<_> = (0..fa.insts().len()).map(|i| fa.inst_addr(i).unwrap()).collect();
        assert!(addrs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn lookup_addr_roundtrips() {
        let mut prog = Program::new();
        let a = prog.add_function("a", tiny_function()).unwrap();
        prog.finalize();
        let fa = prog.function(a).unwrap();
        for i in 0..fa.insts().len() {
            let addr = fa.inst_addr(i).unwrap();
            assert_eq!(prog.lookup_addr(addr), Some((a, i)));
        }
        // A misaligned address (mid-instruction) does not resolve.
        assert_eq!(prog.lookup_addr(fa.entry_addr() + 100_000), None);
    }

    #[test]
    fn lookup_addr_resolves_end_markers_but_not_padding() {
        let mut prog = Program::new();
        let a = prog.add_function("a", tiny_function()).unwrap();
        let empty = prog.add_function("empty", Vec::new()).unwrap();
        let b = prog.add_function("b", tiny_function()).unwrap();
        assert_eq!(prog.lookup_addr(CODE_BASE), None, "unfinalized programs resolve nothing");
        prog.finalize();
        let fa = prog.function(a).unwrap();
        let end = fa.entry_addr() + fa.encoded_size();
        assert_eq!(fa.inst_addr(fa.insts().len()), None);
        assert_eq!(prog.lookup_addr(end), Some((a, fa.insts().len())));
        assert_eq!(prog.lookup_addr(end + 1), None);
        assert_eq!(prog.lookup_addr(CODE_BASE - 1), None);
        // An empty function's entry is its own end marker.
        let fe = prog.function(empty).unwrap();
        assert_eq!(prog.lookup_addr(fe.entry_addr()), Some((empty, 0)));
        let fb = prog.function(b).unwrap();
        assert_eq!(prog.lookup_addr(fb.entry_addr() - 1), None);
        assert_eq!(prog.lookup_addr(fb.entry_addr()), Some((b, 0)));
        // `push %rbp` is one byte, so `mov %rsp,%rbp` (three bytes) starts
        // at +1 and +2 is mid-instruction.
        assert_eq!(prog.lookup_addr(fb.entry_addr() + 1), Some((b, 1)));
        assert_eq!(prog.lookup_addr(fb.entry_addr() + 2), None);
    }

    #[test]
    fn entry_point_is_required() {
        let mut prog = Program::new();
        let a = prog.add_function("a", tiny_function()).unwrap();
        assert_eq!(prog.entry().unwrap_err(), VmError::MissingEntryPoint);
        prog.set_entry(a);
        assert_eq!(prog.entry().unwrap(), a);
    }

    #[test]
    fn text_size_is_sum_of_functions() {
        let mut prog = Program::new();
        prog.add_function("a", tiny_function()).unwrap();
        prog.add_function("b", tiny_function()).unwrap();
        let one: u64 = tiny_function().iter().map(Inst::encoded_size).sum();
        assert_eq!(prog.text_size(), 2 * one);
    }

    #[test]
    fn extra_sections_grow_binary_size() {
        let mut prog = Program::new();
        prog.add_function("a", tiny_function()).unwrap();
        let before = prog.binary_size();
        prog.add_extra_section(".pssp_static", 512);
        assert_eq!(prog.binary_size(), before + 512);
        assert_eq!(prog.extra_sections().len(), 1);
    }

    #[test]
    fn replace_body_invalidates_finalization() {
        let mut prog = Program::new();
        let a = prog.add_function("a", tiny_function()).unwrap();
        prog.finalize();
        assert!(prog.is_finalized());
        prog.replace_function_body(a, vec![Inst::Ret]).unwrap();
        assert!(!prog.is_finalized());
        prog.finalize();
        assert_eq!(prog.function(a).unwrap().insts().len(), 1);
    }

    /// Runs the program's entry on a fresh process.
    fn run(prog: &Program) -> RunOutcome {
        let mut process = Process::new(Pid(1), 7, DEFAULT_STACK_SIZE);
        let mut cpu = Cpu::new();
        let exit = cpu.run(prog, &mut process, prog.entry().unwrap(), &ExecConfig::default());
        RunOutcome { exit, cycles: cpu.cycles, instructions: cpu.instructions }
    }

    fn returning(imm: u64) -> Vec<Inst> {
        vec![Inst::MovImmToReg { dst: Reg::Rax, imm }, Inst::Compute(imm), Inst::Ret]
    }

    #[test]
    fn the_first_run_decodes_and_a_mutation_after_it_invalidates() {
        // A run after `replace_function_body` + `finalize` executes the new
        // body, not the one that ran before.
        let mut prog = Program::new();
        let a = prog.add_function("a", returning(1)).unwrap();
        prog.set_entry(a);
        prog.finalize();
        assert_eq!(run(&prog).exit, Exit::Normal(1));
        prog.replace_function_body(a, returning(2)).unwrap();
        prog.finalize();
        assert_eq!(run(&prog).exit, Exit::Normal(2), "the run executes the new body");
    }

    #[test]
    fn concurrent_first_runs_share_one_decode() {
        // Eight concurrent runs of one shared program agree with a run of
        // its clone.
        let mut prog = Program::new();
        let helper = prog.add_function("helper", returning(5)).unwrap();
        let mut main = tiny_function();
        main.insert(2, Inst::CallFn(helper));
        let main = prog.add_function("main", main).unwrap();
        prog.set_entry(main);
        prog.finalize();
        let expected = run(&prog.clone());
        let prog = Arc::new(prog);
        let outcomes: Vec<RunOutcome> = std::thread::scope(|scope| {
            let runs: Vec<_> = (0..8).map(|_| scope.spawn(|| run(&prog))).collect();
            runs.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(outcomes.iter().all(|o| *o == expected), "{outcomes:?} vs {expected:?}");
    }

    #[test]
    fn equality_ignores_decode_state() {
        // Running a program leaves it unchanged: it still equals its
        // never-run clone.
        let mut prog = Program::new();
        let a = prog.add_function("a", tiny_function()).unwrap();
        prog.set_entry(a);
        prog.finalize();
        let fresh = prog.clone();
        assert!(run(&prog).exit.is_normal());
        assert_eq!(prog, fresh);
    }

    #[test]
    fn finalize_leaves_source_bodies_untouched() {
        // The `&[Inst]` bodies the static verifier proves invariants over
        // are byte-identical before and after layout.
        let mut prog = Program::new();
        let a = prog.add_function("a", tiny_function()).unwrap();
        let before = prog.function(a).unwrap().insts().to_vec();
        prog.finalize();
        assert_eq!(prog.function(a).unwrap().insts(), &before[..]);
    }

    #[test]
    fn replace_body_unknown_function_errors() {
        let mut prog = Program::new();
        assert!(prog.replace_function_body(FuncId(9), vec![]).is_err());
    }
}
