//! Forward dataflow / abstract interpretation over one function body.
//!
//! The pass tracks an abstract frame state per basic block of the
//! [`crate::cfg::Cfg`]:
//!
//! * per canary slot, a *may*-set over `{Unset, Stored, Clobbered, Checked}`
//!   (joins are bitwise unions, so "some path reaches here with the slot
//!   unset" is never lost),
//! * whether every path since the last canary store has passed an epilogue
//!   check,
//! * which registers hold a value loaded from a canary slot on every path
//!   (a slot load, or the XOR of two such values), and
//! * what last defined the zero flag — a canary comparison or unrelated ALU
//!   work — so a `je; __stack_chk_fail` guard only counts as an epilogue
//!   check when it actually tests the canary.  `xor %fs:0x28,%reg` is a
//!   canary comparison only when `%reg` holds a slot value: XORing the TLS
//!   canary into anything else (the canary itself, say) proves nothing about
//!   the frame.
//!
//! Every fact about an instruction — its register writes, zero-flag,
//! frame-store and input-copy effects and its control flow — comes from its
//! one effects description, [`Inst::effects`], read once per instruction
//! visit.
//!
//! Check semantics follow the interpreter: [`Inst::CallStackChkFail`] aborts
//! (its block has no successors), so the *taken* edge of a `je +1` guarding
//! it is exactly the "check passed" path; [`Inst::CallCheckCanary32`] either
//! aborts or returns with ZF set, so falling through it also proves the
//! check passed.
//!
//! Every branch skips forward, so the blocks in index order are a
//! topological order of the CFG: one pass in that order reaches the
//! fixpoint, and four of the five checks are evaluated during it
//! (*unprotected-buffer*, *unchecked-return*, *clobbered-canary*,
//! *dead-check*); *rewrite-soundness* is structural and lives in
//! [`crate::rewrite_check`].
//!
//! All per-function state lives in one reusable [`Dataflow`]: the CFG and
//! the entry state of every block as one flat byte array (one may-set per
//! block × slot, so the slot count has no cap).  States are updated in
//! place and joined byte-wise; no edge clones a state.  A caller verifying many functions keeps one
//! [`Dataflow`] and allocates only for the largest function.

use polycanary_vm::inst::{is_abort_guard, Flow, Inst};
use polycanary_vm::reg::{Reg, RegSet};
use polycanary_vm::tls::TLS_CANARY_OFFSET;

use crate::cfg::Cfg;
use crate::finding::{CheckKind, Finding};
use crate::policy::ProtectionPolicy;

// May-set bits of one canary slot.
const UNSET: u8 = 1 << 0;
const STORED: u8 = 1 << 1;
const CLOBBERED: u8 = 1 << 2;
const CHECKED: u8 = 1 << 3;

// May-set bits of the per-path "passed an epilogue check" property.
const CHECKED_YES: u8 = 1 << 0;
const CHECKED_NO: u8 = 1 << 1;

// May-set bits of the zero-flag provenance.
const FLAGS_CANARY: u8 = 1 << 0;
const FLAGS_OTHER: u8 = 1 << 1;

/// Abstract frame state at one program point: one may-set per policy slot,
/// in [`ProtectionPolicy::slots`] order, borrowed from the pass's buffers,
/// plus the path bits.
#[derive(Debug)]
struct AbsState<'s> {
    slots: &'s mut [u8],
    bits: PathBits,
}

/// The per-path may-sets of one program point besides its slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PathBits {
    checked: u8,
    flags: u8,
    /// Registers that may hold something other than a canary-slot value.
    foreign: RegSet,
}

impl PathBits {
    const ENTRY: PathBits =
        PathBits { checked: CHECKED_NO, flags: FLAGS_OTHER, foreign: RegSet::ALL };
}

impl AbsState<'_> {
    /// A passed epilogue check: every stored slot is now verified and every
    /// path through this point is checked.
    fn apply_check(&mut self) {
        for bits in self.slots.iter_mut() {
            if *bits & STORED != 0 {
                *bits = (*bits & !STORED) | CHECKED;
            }
        }
        self.bits.checked = CHECKED_YES;
    }
}

/// Entry state of one block during the fixpoint.
#[derive(Debug, Clone, Copy)]
struct BlockEntry {
    reached: bool,
    bits: PathBits,
}

/// Bitwise-union join of `from` into `into`.
fn join(into: &mut [u8], into_bits: &mut PathBits, from: &[u8], from_bits: PathBits) {
    for (mine, theirs) in into.iter_mut().zip(from) {
        *mine |= theirs;
    }
    *into_bits = PathBits {
        checked: into_bits.checked | from_bits.checked,
        flags: into_bits.flags | from_bits.flags,
        foreign: into_bits.foreign.union(from_bits.foreign),
    };
}

/// Whether `inst` compares the canary (as opposed to unrelated ALU work),
/// given the registers `foreign` that may hold a non-slot value.
fn is_canary_compare(inst: &Inst, policy: &ProtectionPolicy, foreign: RegSet) -> bool {
    match inst {
        Inst::XorTlsReg { dst, offset } => *offset == TLS_CANARY_OFFSET && !foreign.contains(*dst),
        Inst::CmpFrameReg { offset, .. } => policy.slots.contains(offset),
        Inst::CallCheckCanary32 => true,
        _ => false,
    }
}

/// The register `inst` leaves holding a canary-slot value: the load of a
/// policy slot, or the XOR of two distinct registers that both hold one.
fn slot_value_def(inst: &Inst, policy: &ProtectionPolicy, foreign: RegSet) -> Option<Reg> {
    match *inst {
        Inst::MovFrameToReg { dst, offset } if policy.slots.contains(&offset) => Some(dst),
        Inst::XorRegReg { dst, src }
            if dst != src && !foreign.contains(dst) && !foreign.contains(src) =>
        {
            Some(dst)
        }
        _ => None,
    }
}

/// Per-instruction transfer function; findings go to `findings`.
fn transfer(
    state: &mut AbsState<'_>,
    inst: &Inst,
    index: usize,
    policy: &ProtectionPolicy,
    findings: &mut Vec<Finding>,
) {
    let effects = inst.effects();
    let mut emit = |kind: CheckKind, message: String| {
        findings.push(Finding {
            kind,
            function: String::new(), // filled in by the caller
            scheme: policy.scheme.to_string(),
            index: Some(index),
            message,
        });
    };

    // Statically-bounded frame stores: canary-slot stores and clobbers.
    if let Some((offset, width)) = effects.frame_store {
        for (slot_index, &slot) in policy.slots.iter().enumerate() {
            if !ProtectionPolicy::overlaps_slot(slot, offset, width) {
                continue;
            }
            let bits = state.slots[slot_index];
            if offset == slot && width == 8 {
                // A full-width store at the slot: the canonical canary store.
                // Re-storing a live (stored, unchecked) canary is a clobber —
                // no scheme writes the same slot twice before checking it.
                if bits & STORED != 0 {
                    emit(
                        CheckKind::ClobberedCanary,
                        format!("canary slot {slot} overwritten while live ({inst})"),
                    );
                }
                let mut next = 0;
                if bits & (UNSET | CHECKED) != 0 {
                    next |= STORED;
                }
                if bits & (STORED | CLOBBERED) != 0 {
                    next |= CLOBBERED;
                }
                state.slots[slot_index] = next;
                // A fresh store opens a new protection region: the previous
                // check (if any) no longer covers the return.
                state.bits.checked = CHECKED_NO;
            } else {
                // Partial or misaligned overlap — never a legitimate canary
                // store in any scheme, so a live canary is being corrupted.
                if bits & STORED != 0 {
                    emit(
                        CheckKind::ClobberedCanary,
                        format!(
                            "store [{offset}, {}) overlaps canary slot {slot} ({inst})",
                            i64::from(offset) + i64::from(width)
                        ),
                    );
                    state.slots[slot_index] = (bits & !STORED) | CLOBBERED;
                }
            }
        }
    }

    // Buffer writes (the overflow vectors a canary guards against).
    if let Some(offset) = effects.input_copy {
        if policy.required {
            let unset: Vec<i32> = policy
                .slots
                .iter()
                .enumerate()
                .filter(|&(i, _)| state.slots[i] & UNSET != 0)
                .map(|(_, &slot)| slot)
                .collect();
            if !unset.is_empty() {
                emit(
                    CheckKind::UnprotectedBuffer,
                    format!(
                        "buffer write at {offset} reachable with canary slot(s) {unset:?} unset \
                         ({inst})"
                    ),
                );
            }
        }
        // Writing the frame after a check re-opens the attack window.
        state.bits.checked = CHECKED_NO;
    }

    // Returns must be covered by a check on every path.
    if effects.flow == Flow::Return && policy.required && state.bits.checked & CHECKED_NO != 0 {
        emit(
            CheckKind::UncheckedReturn,
            "return reachable without passing an epilogue canary check".to_string(),
        );
    }

    // CallCheckCanary32 aborts on mismatch, so falling through it proves the
    // check passed (the interpreter sets ZF on the success path).
    if matches!(inst, Inst::CallCheckCanary32) {
        state.apply_check();
    }

    // Zero-flag provenance, from the registers before this instruction.
    let foreign = state.bits.foreign;
    if effects.sets_zero_flag {
        state.bits.flags =
            if is_canary_compare(inst, policy, foreign) { FLAGS_CANARY } else { FLAGS_OTHER };
    }

    // Register provenance: every write makes its register foreign, except
    // the definition of a slot value.
    state.bits.foreign = foreign.union(effects.writes);
    if let Some(reg) = slot_value_def(inst, policy, foreign) {
        state.bits.foreign.remove(reg);
    }
}

/// Runs the dataflow pass over `insts` under `policy` and returns every
/// finding, with `function` filled into each.
pub fn analyze_function(function: &str, insts: &[Inst], policy: &ProtectionPolicy) -> Vec<Finding> {
    let mut findings = Vec::new();
    Dataflow::default().analyze(function, insts, policy, &mut findings);
    findings
}

/// The reusable buffers of the dataflow pass (see the module docs).
#[derive(Debug, Default)]
pub struct Dataflow {
    cfg: Cfg,
    /// Entry slot may-sets of every block, block-major: block `b`'s slots
    /// are `in_slots[b * slot_count..][..slot_count]`.
    in_slots: Vec<u8>,
    in_bits: Vec<BlockEntry>,
    /// The running state of the block being walked, and its copy along a
    /// check-passing edge.
    state: Vec<u8>,
    edge: Vec<u8>,
}

impl Dataflow {
    /// Runs the dataflow pass over `insts` under `policy` and appends every
    /// finding, with `function` filled in, to `findings`.
    pub fn analyze(
        &mut self,
        function: &str,
        insts: &[Inst],
        policy: &ProtectionPolicy,
        findings: &mut Vec<Finding>,
    ) {
        if policy.slots.is_empty() || insts.is_empty() {
            // Nothing to verify: the pass policy does not require protection
            // (or the scheme maintains no slots, e.g. Native).
            return;
        }
        let Dataflow { cfg, in_slots, in_bits, state, edge } = self;
        let slot_count = policy.slots.len();
        let slots_of = |id: usize| id * slot_count..(id + 1) * slot_count;

        cfg.rebuild(insts);
        let blocks = cfg.blocks();
        in_slots.clear();
        in_slots.resize(blocks.len() * slot_count, 0);
        in_bits.clear();
        in_bits.resize(blocks.len(), BlockEntry { reached: false, bits: PathBits::ENTRY });
        state.clear();
        state.resize(slot_count, 0);
        edge.clear();
        edge.resize(slot_count, 0);

        // Every edge leads forward (a skip is never negative), so index
        // order is a topological order of the blocks: a block's entry state
        // is final once every lower block has been walked, and one pass in
        // that order reaches the fixpoint and reports against it.
        in_slots[slots_of(0)].fill(UNSET);
        in_bits[0].reached = true;
        let first = findings.len();
        for id in 0..blocks.len() {
            if !in_bits[id].reached {
                continue;
            }
            state.copy_from_slice(&in_slots[slots_of(id)]);
            let mut current = AbsState { slots: state, bits: in_bits[id].bits };
            for index in blocks[id].range() {
                transfer(&mut current, &insts[index], index, policy, findings);
            }
            let last = blocks[id].end - 1;
            // The taken edge of a canary-guarded `je +1; __stack_chk_fail`
            // is the "check passed" path.
            let guarded_check =
                is_abort_guard(insts, last) && current.bits.flags & FLAGS_CANARY != 0;
            let taken_block = blocks[id].taken();
            for &succ in blocks[id].successors() {
                debug_assert!(succ > id, "an edge leads back");
                let (from, from_bits) = if guarded_check && Some(succ) == taken_block {
                    edge.copy_from_slice(current.slots);
                    let mut checked = AbsState { slots: edge, bits: current.bits };
                    checked.apply_check();
                    let bits = checked.bits;
                    (&edge[..], bits)
                } else {
                    (&current.slots[..], current.bits)
                };
                let entry = &mut in_bits[succ];
                if entry.reached {
                    join(&mut in_slots[slots_of(succ)], &mut entry.bits, from, from_bits);
                } else {
                    in_slots[slots_of(succ)].copy_from_slice(from);
                    *entry = BlockEntry { reached: true, bits: from_bits };
                }
            }
        }

        // Dead checks: epilogue check sites in blocks unreachable from entry.
        for index in 0..insts.len() {
            let is_check_site =
                is_abort_guard(insts, index) || matches!(insts[index], Inst::CallCheckCanary32);
            if is_check_site && !in_bits[cfg.block_of(index)].reached {
                findings.push(Finding {
                    kind: CheckKind::DeadCheck,
                    function: String::new(),
                    scheme: policy.scheme.to_string(),
                    index: Some(index),
                    message: "epilogue check unreachable from function entry".to_string(),
                });
            }
        }

        for finding in &mut findings[first..] {
            finding.function = function.to_string();
        }
    }
}
