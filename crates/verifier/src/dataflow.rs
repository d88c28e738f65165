//! Forward dataflow / abstract interpretation over one function body.
//!
//! The pass tracks an abstract frame state at every instruction:
//!
//! * per canary slot, a *may*-set over `{Unset, Stored, Clobbered, Checked}`
//!   (joins are bitwise unions, so "some path reaches here with the slot
//!   unset" is never lost),
//! * whether every path since the last canary store has passed an epilogue
//!   check,
//! * which registers hold a value loaded from a canary slot on every path
//!   (a slot load, or the XOR of two such values),
//! * which registers may hold a value loaded from a canary slot on some
//!   path (a slot load, anything an explicit operand computes from such a
//!   register, and any reload from memory once such a register was
//!   stored), and
//! * what last defined the zero flag — a canary comparison or unrelated ALU
//!   work — so a `je; __stack_chk_fail` guard only counts as an epilogue
//!   check when it actually tests the canary.  `xor %fs:0x28,%reg` is a
//!   canary comparison only when `%reg` holds a slot value: XORing the TLS
//!   canary into anything else (the canary itself, say) proves nothing about
//!   the frame.  `cmp %reg,slot` is one only when `%reg` cannot hold a slot
//!   value: comparing a slot with its own reload proves nothing either.
//!
//! Every fact about an instruction — its register reads and writes, its
//! zero-flag, frame-store and input-copy effects and its control flow —
//! comes from its one effects description, [`Inst::effects`], read once per
//! visited instruction.
//!
//! Control flow follows the interpreter: a branch at index `i` skipping `n`
//! instructions leads to `i + 1 + n` when taken, and a target past the end
//! adds no edge; `jmp` does not fall through, a call does, and `ret` and
//! [`Inst::CallStackChkFail`] end the path (the latter aborts, so the
//! *taken* edge of a `je +1` guarding it is exactly the "check passed"
//! path); [`Inst::CallCheckCanary32`] either aborts or returns with ZF set,
//! so falling through it also proves the check passed.
//!
//! Every branch skips forward, so index order is a topological order: one
//! walk over the instructions reaches the fixpoint.  At each index the walk
//! joins in the state that earlier branches left there, runs the transfer
//! function and hands the result to the taken edge's target.  Four of the
//! five checks are evaluated during the walk (*unprotected-buffer*,
//! *unchecked-return*, *clobbered-canary*, and *dead-check* for the check
//! sites no path reaches, reported after the walk);
//! *rewrite-soundness* is structural and lives in [`crate::rewrite_check`].
//!
//! All per-function state lives in one reusable [`Dataflow`]: the running
//! state, and the states branches left pending at each index as one flat
//! byte array (one may-set per index × slot, so the slot count has no cap).
//! States are updated in place and joined byte-wise; no edge clones a
//! state.  A caller verifying many functions keeps one [`Dataflow`] and
//! allocates only for the largest function.

use polycanary_vm::inst::{is_abort_guard, Effects, Flow, Inst};
use polycanary_vm::reg::{Reg, RegSet};
use polycanary_vm::tls::TLS_CANARY_OFFSET;

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
    /// Registers that may hold a value loaded from a canary slot.
    loaded: RegSet,
    /// Whether a register in `loaded` may have been stored to memory, so
    /// that any reload may hold a slot value.
    spilled: bool,
}

impl PathBits {
    const ENTRY: PathBits = PathBits {
        checked: CHECKED_NO,
        flags: FLAGS_OTHER,
        foreign: RegSet::ALL,
        loaded: RegSet::EMPTY,
        spilled: false,
    };

    /// The bitwise-union join of two paths' bits.
    fn join(self, other: PathBits) -> PathBits {
        PathBits {
            checked: self.checked | other.checked,
            flags: self.flags | other.flags,
            foreign: self.foreign.union(other.foreign),
            loaded: self.loaded.union(other.loaded),
            spilled: self.spilled | other.spilled,
        }
    }
}

/// One slot's may-set after a passed epilogue check: a stored canary is now
/// verified.
fn checked(bits: u8) -> u8 {
    if bits & STORED != 0 {
        (bits & !STORED) | CHECKED
    } else {
        bits
    }
}

impl AbsState<'_> {
    /// A passed epilogue check: every stored slot is now verified and every
    /// path through this point is checked.
    fn apply_check(&mut self) {
        for bits in self.slots.iter_mut() {
            *bits = checked(*bits);
        }
        self.bits.checked = CHECKED_YES;
    }
}

/// Whether `inst` compares the canary (as opposed to unrelated ALU work),
/// given the path bits before it.
fn is_canary_compare(inst: &Inst, policy: &ProtectionPolicy, bits: PathBits) -> bool {
    match inst {
        Inst::XorTlsReg { dst, offset } => {
            *offset == TLS_CANARY_OFFSET && !bits.foreign.contains(*dst)
        }
        Inst::CmpFrameReg { reg, offset } => {
            policy.slots.contains(offset) && !bits.loaded.contains(*reg)
        }
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

/// Updates the may-load bits for `inst`, whose description is `effects`.
/// A register its explicit operands write may hold a slot value when it
/// loads a policy slot, reloads memory after a spill, or reads a register
/// that may hold one.  Implicit results (a call's, or the AES helper's
/// ciphertext of the nonce) are computed, not loaded, and hold none.
fn track_loads(inst: &Inst, effects: &Effects, policy: &ProtectionPolicy, bits: &mut PathBits) {
    if let Inst::PushReg(src)
    | Inst::MovRegToTls { src, .. }
    | Inst::MovRegToFrame { src, .. }
    | Inst::MovRegToFrame32 { src, .. }
    | Inst::MovRegToMem { src, .. } = *inst
    {
        bits.spilled |= bits.loaded.contains(src);
    }
    let loads = match *inst {
        Inst::MovFrameToReg { offset, .. } if policy.slots.contains(&offset) => true,
        Inst::PopReg(_)
        | Inst::MovTlsToReg { .. }
        | Inst::MovFrameToReg { .. }
        | Inst::MovFrameToReg32 { .. }
        | Inst::MovMemToReg { .. } => bits.spilled,
        _ => effects.reads.intersects(bits.loaded),
    };
    bits.loaded = bits.loaded.difference(effects.writes);
    if loads {
        bits.loaded = bits.loaded.union(effects.writes.difference(effects.implicit_writes));
    }
}

/// Per-instruction transfer function; findings go to `findings`.  Returns
/// where control goes next.
fn transfer(
    state: &mut AbsState<'_>,
    inst: &Inst,
    index: usize,
    policy: &ProtectionPolicy,
    findings: &mut Vec<Finding>,
) -> Flow {
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
            if is_canary_compare(inst, policy, state.bits) { FLAGS_CANARY } else { FLAGS_OTHER };
    }

    // Register provenance: every write makes its register foreign, except
    // the definition of a slot value.
    state.bits.foreign = foreign.union(effects.writes);
    if let Some(reg) = slot_value_def(inst, policy, foreign) {
        state.bits.foreign.remove(reg);
    }
    track_loads(inst, &effects, policy, &mut state.bits);
    effects.flow
}

/// The index the taken edge of a branch at `index` leads to, when it lies
/// inside a body of `len` instructions.
fn taken_target(index: usize, flow: Flow, len: usize) -> Option<usize> {
    let Flow::Branch { skip, .. } = flow else { return None };
    (index + 1).checked_add(skip).filter(|&target| target < len)
}

/// The reusable buffers of the dataflow pass (see the module docs).
#[derive(Debug, Default)]
pub struct Dataflow {
    /// The slot may-sets earlier branches left for each index, index-major:
    /// index `i`'s slots are `pending_slots[i * slot_count..][..slot_count]`.
    pending_slots: Vec<u8>,
    /// The path bits earlier branches left for each index; `None` where no
    /// branch leads.
    pending_bits: Vec<Option<PathBits>>,
    /// The slot may-sets of the running state (all clear where no path
    /// reaches).
    state: Vec<u8>,
}

impl Dataflow {
    /// Runs the dataflow pass over `insts` under `policy` and appends every
    /// finding, with `function` filled in, to `findings`: the transfer's in
    /// index order, then the dead checks.
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
        let Dataflow { pending_slots, pending_bits, state } = self;
        let slot_count = policy.slots.len();
        pending_slots.clear();
        pending_slots.resize(insts.len() * slot_count, 0);
        pending_bits.clear();
        pending_bits.resize(insts.len(), None);
        state.clear();
        state.resize(slot_count, UNSET);

        let first = findings.len();
        // Check sites no path reaches (none in a clean build, so this
        // allocates only for a defect).
        let mut dead = Vec::new();
        // The path bits of the running state; `None` where no path reaches.
        let mut running = Some(PathBits::ENTRY);
        // Every edge leads forward (a skip is never negative), so an index's
        // state is final once every lower index has been walked.
        for (index, inst) in insts.iter().enumerate() {
            if let Some(from) = pending_bits[index] {
                let from_slots = &pending_slots[index * slot_count..][..slot_count];
                for (mine, theirs) in state.iter_mut().zip(from_slots) {
                    *mine |= theirs;
                }
                running = Some(running.map_or(from, |bits| bits.join(from)));
            }
            let Some(bits) = running else {
                if is_abort_guard(insts, index) || matches!(inst, Inst::CallCheckCanary32) {
                    dead.push(index);
                }
                continue;
            };
            let mut current = AbsState { slots: state, bits };
            let flow = transfer(&mut current, inst, index, policy, findings);
            let bits = current.bits;
            if let Some(target) = taken_target(index, flow, insts.len()) {
                // The taken edge of a canary-guarded `je +1; __stack_chk_fail`
                // is the "check passed" path.
                let passed = is_abort_guard(insts, index) && bits.flags & FLAGS_CANARY != 0;
                let into = &mut pending_slots[target * slot_count..][..slot_count];
                for (mine, &theirs) in into.iter_mut().zip(state.iter()) {
                    *mine |= if passed { checked(theirs) } else { theirs };
                }
                let edge = if passed { PathBits { checked: CHECKED_YES, ..bits } } else { bits };
                let entry = &mut pending_bits[target];
                *entry = Some(entry.map_or(edge, |bits| bits.join(edge)));
            }
            running = if flow.falls_through() {
                Some(bits)
            } else {
                state.fill(0);
                None
            };
        }

        for index in dead {
            findings.push(Finding {
                kind: CheckKind::DeadCheck,
                function: String::new(),
                scheme: policy.scheme.to_string(),
                index: Some(index),
                message: "epilogue check unreachable from function entry".to_string(),
            });
        }
        for finding in &mut findings[first..] {
            finding.function = function.to_string();
        }
    }
}
