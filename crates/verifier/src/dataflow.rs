//! Forward dataflow / abstract interpretation over one function body.
//!
//! The pass tracks an abstract frame state per basic block of the
//! [`crate::cfg::Cfg`]:
//!
//! * per canary slot, a *may*-set over `{Unset, Stored, Clobbered, Checked}`
//!   (joins are bitwise unions, so "some path reaches here with the slot
//!   unset" is never lost),
//! * whether every path since the last canary store has passed an epilogue
//!   check, and
//! * what last defined the zero flag — a canary comparison or unrelated ALU
//!   work — so a `je; __stack_chk_fail` guard only counts as an epilogue
//!   check when it actually tests the canary.
//!
//! Check semantics follow the interpreter: [`Inst::CallStackChkFail`] aborts
//! (its block has no successors), so the *taken* edge of a `je +1` guarding
//! it is exactly the "check passed" path; [`Inst::CallCheckCanary32`] either
//! aborts or returns with ZF set, so falling through it also proves the
//! check passed.
//!
//! On top of the fixpoint, four of the five checks are evaluated
//! (*unprotected-buffer*, *unchecked-return*, *clobbered-canary*,
//! *dead-check*); *rewrite-soundness* is structural and lives in
//! [`crate::rewrite_check`].
//!
//! All per-function state lives in one reusable [`Dataflow`]: the CFG, the
//! entry state of every block as one flat byte array (one may-set per
//! block × slot, so the slot count has no cap), the worklist and the
//! reachability marks.  States are updated in place and joined byte-wise;
//! no edge clones a state.  A caller verifying many functions keeps one
//! [`Dataflow`] and allocates only for the largest function.

use polycanary_vm::inst::Inst;
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
}

impl PathBits {
    const ENTRY: PathBits = PathBits { checked: CHECKED_NO, flags: FLAGS_OTHER };
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

/// Bitwise-union join of `from` into `into`; returns whether `into` changed.
fn join(into: &mut [u8], into_bits: &mut PathBits, from: &[u8], from_bits: PathBits) -> bool {
    let mut changed = false;
    for (mine, theirs) in into.iter_mut().zip(from) {
        let joined = *mine | theirs;
        changed |= joined != *mine;
        *mine = joined;
    }
    let joined = PathBits {
        checked: into_bits.checked | from_bits.checked,
        flags: into_bits.flags | from_bits.flags,
    };
    changed |= joined != *into_bits;
    *into_bits = joined;
    changed
}

/// Whether `inst` compares the canary (as opposed to unrelated ALU work).
fn is_canary_compare(inst: &Inst, policy: &ProtectionPolicy) -> bool {
    match inst {
        Inst::XorTlsReg { offset, .. } => *offset == TLS_CANARY_OFFSET,
        Inst::CmpFrameReg { offset, .. } => policy.slots.contains(offset),
        Inst::CallCheckCanary32 => true,
        _ => false,
    }
}

/// Whether the instruction at `index` is the conditional guard of an abort:
/// `je +1` immediately followed by `__stack_chk_fail`.
fn is_guard_site(insts: &[Inst], index: usize) -> bool {
    matches!(insts.get(index), Some(Inst::JeSkip(1)))
        && matches!(insts.get(index + 1), Some(Inst::CallStackChkFail))
}

/// Per-instruction transfer function.  `report` receives findings during the
/// final reporting pass and is `None` while iterating to the fixpoint.
fn transfer(
    state: &mut AbsState<'_>,
    inst: &Inst,
    index: usize,
    policy: &ProtectionPolicy,
    mut report: Option<&mut Vec<Finding>>,
) {
    let reporting = report.is_some();
    let mut emit = |kind: CheckKind, message: String| {
        if let Some(findings) = report.as_deref_mut() {
            findings.push(Finding {
                kind,
                function: String::new(), // filled in by the caller
                scheme: policy.scheme.to_string(),
                index: Some(index),
                message,
            });
        }
    };

    // Statically-bounded frame stores: canary-slot stores and clobbers.
    if let Some((offset, width)) = inst.frame_store() {
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
    if let Some(offset) = inst.input_copy_offset() {
        if policy.required && reporting {
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
    if inst.is_ret() && policy.required && state.bits.checked & CHECKED_NO != 0 {
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

    // Zero-flag provenance.
    if inst.sets_zero_flag() {
        state.bits.flags = if is_canary_compare(inst, policy) { FLAGS_CANARY } else { FLAGS_OTHER };
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
    work: Vec<usize>,
    /// The running state of the block being walked, and its copy along a
    /// check-passing edge.
    state: Vec<u8>,
    edge: Vec<u8>,
    reachable: Vec<bool>,
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
        let Dataflow { cfg, in_slots, in_bits, work, state, edge, reachable } = self;
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

        // Fixpoint over block entry states.
        in_slots[slots_of(0)].fill(UNSET);
        in_bits[0].reached = true;
        work.clear();
        work.push(0);
        while let Some(id) = work.pop() {
            state.copy_from_slice(&in_slots[slots_of(id)]);
            let mut current = AbsState { slots: state, bits: in_bits[id].bits };
            for index in blocks[id].range() {
                transfer(&mut current, &insts[index], index, policy, None);
            }
            let last = blocks[id].end - 1;
            // The taken edge of a canary-guarded `je +1; __stack_chk_fail`
            // is the "check passed" path.
            let guarded_check =
                is_guard_site(insts, last) && current.bits.flags & FLAGS_CANARY != 0;
            let taken_block = insts[last]
                .branch_skip()
                .and_then(|skip| last.checked_add(1 + skip))
                .filter(|&target| target < insts.len())
                .map(|target| cfg.block_of(target));
            for &succ in blocks[id].successors() {
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
                    if join(&mut in_slots[slots_of(succ)], &mut entry.bits, from, from_bits)
                        && !work.contains(&succ)
                    {
                        work.push(succ);
                    }
                } else {
                    in_slots[slots_of(succ)].copy_from_slice(from);
                    *entry = BlockEntry { reached: true, bits: from_bits };
                    work.push(succ);
                }
            }
        }

        // Reporting pass: replay each reached block once against its final
        // entry state.
        let first = findings.len();
        for (id, block) in blocks.iter().enumerate() {
            if !in_bits[id].reached {
                continue;
            }
            state.copy_from_slice(&in_slots[slots_of(id)]);
            let mut current = AbsState { slots: state, bits: in_bits[id].bits };
            for index in block.range() {
                transfer(&mut current, &insts[index], index, policy, Some(findings));
            }
        }

        // Dead checks: epilogue check sites in blocks unreachable from entry.
        cfg.mark_reachable(reachable, work);
        for index in 0..insts.len() {
            let is_check_site =
                is_guard_site(insts, index) || matches!(insts[index], Inst::CallCheckCanary32);
            if is_check_site && !reachable[cfg.block_of(index)] {
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
