//! The prior remedies the paper compares against in Table I: RAF-SSP,
//! DynaGuard and DCR.
//!
//! All three follow the same general approach — refresh the *TLS* canary on
//! fork — and therefore have to deal with the canaries already sitting in
//! inherited stack frames.  RAF-SSP simply ignores them (and breaks
//! correctness); DynaGuard tracks their addresses in a dedicated buffer and
//! rewrites them at fork time; DCR threads a linked list through the stack
//! canaries themselves.  P-SSP's contribution is precisely that it avoids
//! this consistency problem by never touching the TLS canary.

use polycanary_crypto::{Prng, Xoshiro256StarStar};
use polycanary_vm::inst::Inst;
use polycanary_vm::machine::RuntimeHooks;
use polycanary_vm::process::Process;
use polycanary_vm::tls::TLS_CANARY_OFFSET;

use crate::layout::FrameInfo;
use crate::scheme::{CanaryScheme, Granularity, SchemeKind, SchemeProperties};
use crate::schemes::emit;

// ---------------------------------------------------------------------------
// RAF-SSP
// ---------------------------------------------------------------------------

/// Renew-after-fork SSP (Marco-Gisbert & Ripoll, NCA 2013).
///
/// Code generation is identical to SSP; the only change is the runtime,
/// which installs a *new* TLS canary in the child after every `fork()`.
/// Because the canaries already stored in inherited stack frames still hold
/// the parent's value, the child crashes with a false positive as soon as it
/// returns into one of those frames (§II-C).
#[derive(Debug, Default, Clone, Copy)]
pub struct RafSspScheme;

impl CanaryScheme for RafSspScheme {
    fn kind(&self) -> SchemeKind {
        SchemeKind::RafSsp
    }

    fn canary_region_words(&self) -> u32 {
        1
    }

    fn emit_prologue(&self, frame: &FrameInfo) -> Vec<Inst> {
        if !frame.protected {
            return Vec::new();
        }
        emit::ssp_style_prologue(TLS_CANARY_OFFSET)
    }

    fn emit_epilogue(&self, frame: &FrameInfo) -> Vec<Inst> {
        if !frame.protected {
            return Vec::new();
        }
        emit::ssp_style_epilogue()
    }

    fn runtime_hooks(&self, seed: u64) -> Box<dyn RuntimeHooks> {
        Box::new(RafRuntime { rng: Xoshiro256StarStar::new(seed ^ 0x5AF5_5AF5) })
    }

    fn properties(&self) -> SchemeProperties {
        SchemeProperties {
            prevents_byte_by_byte: true,
            correct_across_fork: false,
            protects_local_variables: false,
            exposure_resilient: false,
            modifies_tls_layout: false,
            stack_canary_entropy_bits: 64,
            granularity: Granularity::PerFork,
        }
    }
}

/// RAF-SSP runtime: refresh the TLS canary in the child, nothing else.
struct RafRuntime {
    rng: Xoshiro256StarStar,
}

impl RuntimeHooks for RafRuntime {
    fn on_fork_child(&mut self, child: &mut Process) {
        child.tls.set_canary(self.rng.next_u64());
    }

    fn on_thread_create(&mut self, thread: &mut Process) {
        thread.tls.set_canary(self.rng.next_u64());
    }

    fn name(&self) -> &'static str {
        "raf-ssp-runtime"
    }
}

// ---------------------------------------------------------------------------
// DynaGuard
// ---------------------------------------------------------------------------

/// DynaGuard (Petsios et al., ACSAC 2015).
///
/// The prologue additionally records the address of the freshly written
/// stack canary in a per-thread canary address buffer (CAB) and the epilogue
/// removes it; at fork time the runtime picks a new TLS canary and patches
/// every recorded stack slot so inherited frames stay consistent.
#[derive(Debug, Default, Clone, Copy)]
pub struct DynaGuardScheme;

impl CanaryScheme for DynaGuardScheme {
    fn kind(&self) -> SchemeKind {
        SchemeKind::DynaGuard
    }

    fn canary_region_words(&self) -> u32 {
        1
    }

    fn emit_prologue(&self, frame: &FrameInfo) -> Vec<Inst> {
        if !frame.protected {
            return Vec::new();
        }
        let mut insts = emit::ssp_style_prologue(TLS_CANARY_OFFSET);
        insts.push(Inst::RecordCanaryAddress { offset: -8 });
        insts
    }

    fn emit_epilogue(&self, frame: &FrameInfo) -> Vec<Inst> {
        if !frame.protected {
            return Vec::new();
        }
        let mut insts = emit::ssp_style_epilogue();
        insts.push(Inst::PopCanaryAddress);
        insts
    }

    fn runtime_hooks(&self, seed: u64) -> Box<dyn RuntimeHooks> {
        Box::new(DynaGuardRuntime { rng: Xoshiro256StarStar::new(seed ^ 0xD1AA_6A2D) })
    }

    fn properties(&self) -> SchemeProperties {
        SchemeProperties {
            prevents_byte_by_byte: true,
            correct_across_fork: true,
            protects_local_variables: false,
            exposure_resilient: false,
            modifies_tls_layout: true,
            stack_canary_entropy_bits: 64,
            granularity: Granularity::PerFork,
        }
    }
}

/// DynaGuard runtime: on fork, refresh the TLS canary and rewrite every
/// canary recorded in the child's CAB.
struct DynaGuardRuntime {
    rng: Xoshiro256StarStar,
}

impl DynaGuardRuntime {
    fn refresh(&mut self, process: &mut Process) {
        let new_canary = self.rng.next_u64();
        process.tls.set_canary(new_canary);
        let addresses = process.canary_addresses.clone();
        for addr in addresses {
            // A recorded address may belong to a frame that has since been
            // popped if the CAB was not trimmed; writing it is harmless in
            // that case (the slot is dead stack space), matching DynaGuard's
            // own behaviour.
            let _ = process.memory.write_u64(addr, new_canary);
        }
    }
}

impl RuntimeHooks for DynaGuardRuntime {
    fn on_fork_child(&mut self, child: &mut Process) {
        self.refresh(child);
    }

    fn on_thread_create(&mut self, thread: &mut Process) {
        self.refresh(thread);
    }

    fn name(&self) -> &'static str {
        "dynaguard-runtime"
    }
}

// ---------------------------------------------------------------------------
// DCR
// ---------------------------------------------------------------------------

/// Dynamic Canary Randomization (Hawkins et al., CISRC 2016).
///
/// Same goal as DynaGuard but the list of live canaries is threaded through
/// the stack canaries themselves (offset of the previous canary embedded in
/// each canary, head pointer in the TLS).  The simulator keeps the list as a
/// side table whose head is mirrored in the TLS, preserving the fork-time
/// walk-and-rewrite behaviour and its higher per-call cost.
#[derive(Debug, Default, Clone, Copy)]
pub struct DcrScheme;

impl CanaryScheme for DcrScheme {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Dcr
    }

    fn canary_region_words(&self) -> u32 {
        1
    }

    fn emit_prologue(&self, frame: &FrameInfo) -> Vec<Inst> {
        if !frame.protected {
            return Vec::new();
        }
        let mut insts = emit::ssp_style_prologue(TLS_CANARY_OFFSET);
        insts.push(Inst::LinkCanaryPush { offset: -8 });
        insts
    }

    fn emit_epilogue(&self, frame: &FrameInfo) -> Vec<Inst> {
        if !frame.protected {
            return Vec::new();
        }
        let mut insts = emit::ssp_style_epilogue();
        insts.push(Inst::LinkCanaryPop { offset: -8 });
        insts
    }

    fn runtime_hooks(&self, seed: u64) -> Box<dyn RuntimeHooks> {
        Box::new(DcrRuntime { rng: Xoshiro256StarStar::new(seed ^ 0xDC2D_C2DC) })
    }

    fn properties(&self) -> SchemeProperties {
        SchemeProperties {
            prevents_byte_by_byte: true,
            correct_across_fork: true,
            protects_local_variables: false,
            exposure_resilient: false,
            modifies_tls_layout: true,
            stack_canary_entropy_bits: 64,
            granularity: Granularity::PerFork,
        }
    }
}

/// DCR runtime: walk the in-stack canary list at fork time and re-randomize
/// every canary plus the TLS canary.
struct DcrRuntime {
    rng: Xoshiro256StarStar,
}

impl RuntimeHooks for DcrRuntime {
    fn on_fork_child(&mut self, child: &mut Process) {
        let new_canary = self.rng.next_u64();
        child.tls.set_canary(new_canary);
        let list = child.dcr_list.clone();
        for addr in list {
            let _ = child.memory.write_u64(addr, new_canary);
        }
    }

    fn on_thread_create(&mut self, thread: &mut Process) {
        self.on_fork_child(thread);
    }

    fn name(&self) -> &'static str {
        "dcr-runtime"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polycanary_vm::mem::DEFAULT_STACK_SIZE;
    use polycanary_vm::process::Pid;

    fn process_with_frame_canary(canary: u64, slot: u64) -> Process {
        let mut p = Process::new(Pid(1), 3, DEFAULT_STACK_SIZE);
        p.tls.set_canary(canary);
        p.memory.write_u64(slot, canary).unwrap();
        p
    }

    #[test]
    fn raf_refreshes_tls_but_not_stack() {
        let slot = polycanary_vm::mem::STACK_TOP - 0x100;
        let mut parent = process_with_frame_canary(0x1111, slot);
        parent.canary_addresses.push(slot);
        let mut hooks = RafSspScheme.runtime_hooks(9);
        let mut child = parent.fork(Pid(2));
        hooks.on_fork_child(&mut child);
        assert_ne!(child.tls.canary(), 0x1111, "RAF-SSP must renew the TLS canary");
        assert_eq!(
            child.memory.read_u64(slot).unwrap(),
            0x1111,
            "RAF-SSP leaves inherited frames stale — that is its correctness bug"
        );
        // The inherited frame's canary no longer matches the TLS canary.
        assert_ne!(child.memory.read_u64(slot).unwrap(), child.tls.canary());
    }

    #[test]
    fn dynaguard_rewrites_inherited_frames() {
        let slot = polycanary_vm::mem::STACK_TOP - 0x100;
        let mut parent = process_with_frame_canary(0x2222, slot);
        parent.canary_addresses.push(slot);
        let mut hooks = DynaGuardScheme.runtime_hooks(9);
        let mut child = parent.fork(Pid(2));
        hooks.on_fork_child(&mut child);
        assert_ne!(child.tls.canary(), 0x2222);
        assert_eq!(
            child.memory.read_u64(slot).unwrap(),
            child.tls.canary(),
            "DynaGuard must keep inherited frames consistent"
        );
        // The parent is untouched.
        assert_eq!(parent.tls.canary(), 0x2222);
        assert_eq!(parent.memory.read_u64(slot).unwrap(), 0x2222);
    }

    #[test]
    fn dcr_rewrites_inherited_frames_via_its_list() {
        let slot = polycanary_vm::mem::STACK_TOP - 0x180;
        let mut parent = process_with_frame_canary(0x3333, slot);
        parent.dcr_list.push(slot);
        let mut hooks = DcrScheme.runtime_hooks(9);
        let mut child = parent.fork(Pid(2));
        hooks.on_fork_child(&mut child);
        assert_eq!(child.memory.read_u64(slot).unwrap(), child.tls.canary());
        assert_ne!(child.tls.canary(), 0x3333);
    }

    #[test]
    fn bookkeeping_instructions_are_emitted() {
        let frame = FrameInfo::protected(0x20);
        let dg = DynaGuardScheme.emit_prologue(&frame);
        assert!(dg.iter().any(|i| matches!(i, Inst::RecordCanaryAddress { .. })));
        assert!(DynaGuardScheme
            .emit_epilogue(&frame)
            .iter()
            .any(|i| matches!(i, Inst::PopCanaryAddress)));
        let dcr = DcrScheme.emit_prologue(&frame);
        assert!(dcr.iter().any(|i| matches!(i, Inst::LinkCanaryPush { .. })));
    }

    #[test]
    fn per_call_cost_ordering_ssp_below_dynaguard_below_dcr() {
        // Table I: SSP < DynaGuard (compiler 1.5%) and DCR is the slowest
        // instrumentation-based option (>24%).  The per-call canary handling
        // cost must reflect that ordering.
        let frame = FrameInfo::protected(0x20);
        let cost = |scheme: &dyn CanaryScheme| -> u64 {
            scheme
                .emit_prologue(&frame)
                .iter()
                .chain(scheme.emit_epilogue(&frame).iter())
                .map(Inst::cycles)
                .sum()
        };
        let ssp = cost(&crate::schemes::classic::SspScheme);
        let dynaguard = cost(&DynaGuardScheme);
        let dcr = cost(&DcrScheme);
        assert!(ssp < dynaguard, "SSP ({ssp}) must be cheaper than DynaGuard ({dynaguard})");
        assert!(dynaguard < dcr, "DynaGuard ({dynaguard}) must be cheaper than DCR ({dcr})");
    }

    #[test]
    fn raf_runtime_also_covers_threads() {
        let mut p = Process::new(Pid(1), 1, DEFAULT_STACK_SIZE);
        p.tls.set_canary(5);
        let mut hooks = RafSspScheme.runtime_hooks(1);
        let mut t = p.fork(Pid(2));
        hooks.on_thread_create(&mut t);
        assert_ne!(t.tls.canary(), 5);
    }

    #[test]
    fn default_startup_hook_is_a_noop() {
        // None of the baselines installs a constructor; NoHooks is used to
        // assert the trait default does nothing observable.
        let mut p = Process::new(Pid(1), 1, DEFAULT_STACK_SIZE);
        p.tls.set_canary(77);
        let mut hooks = polycanary_vm::machine::NoHooks;
        let mut cpu = polycanary_vm::cpu::Cpu::new();
        hooks.on_startup(&mut p, &mut cpu);
        assert_eq!(p.tls.canary(), 77);
        assert_eq!(p.tls.shadow_canary(), (0, 0));
    }
}
