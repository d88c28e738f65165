//! The canary-scheme abstraction.
//!
//! Every protection evaluated in the paper — SSP, the three prior remedies
//! (RAF-SSP, DynaGuard, DCR), P-SSP and its three extensions — is expressed
//! as an implementation of [`CanaryScheme`].  A scheme contributes three
//! things:
//!
//! 1. **code generation** — the prologue/epilogue instruction sequences the
//!    compiler inserts into protected functions,
//! 2. **a runtime** — the shared-library hooks (startup / fork / thread
//!    creation) that maintain the TLS state the generated code relies on, and
//! 3. **static properties** — the qualitative columns of Table I plus the
//!    parameters the security analysis needs.

use std::fmt;

use polycanary_vm::inst::Inst;
use polycanary_vm::machine::RuntimeHooks;

use crate::layout::FrameInfo;

/// When a scheme refreshes its stack canaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Granularity {
    /// The canary is fixed for the whole process tree (classic SSP).
    Never,
    /// Refreshed on every `fork()` / `pthread_create` (RAF-SSP, DynaGuard,
    /// DCR, basic P-SSP).
    PerFork,
    /// Refreshed on every function call (P-SSP-NT, P-SSP-LV, P-SSP-OWF).
    PerCall,
}

impl fmt::Display for Granularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Granularity::Never => write!(f, "never"),
            Granularity::PerFork => write!(f, "per-fork"),
            Granularity::PerCall => write!(f, "per-call"),
        }
    }
}

/// What happens to the canaries a forked worker inherits from its parent —
/// the property the forking-server threat model (§II) turns on.
///
/// A scheme whose canaries are [`ForkCanaryPolicy::Inherited`] hands every
/// worker the same secret, so a byte-by-byte attacker accumulates progress
/// across reconnects; a [`ForkCanaryPolicy::Rerandomized`] scheme refreshes
/// the stack canaries (per fork or per call), denying any accumulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ForkCanaryPolicy {
    /// Children keep the parent's stack canaries byte-for-byte (classic
    /// SSP): the fork loop is an oracle.
    Inherited,
    /// The stack canaries a child presents are re-randomized — by the fork
    /// hook or by every prologue — so guesses confirmed against one worker
    /// are stale by the next connection.
    Rerandomized,
}

impl ForkCanaryPolicy {
    /// Display label used in reports and serialized records.
    pub fn label(&self) -> &'static str {
        match self {
            ForkCanaryPolicy::Inherited => "inherited",
            ForkCanaryPolicy::Rerandomized => "rerandomized",
        }
    }
}

impl fmt::Display for ForkCanaryPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Qualitative and quantitative properties of a scheme (Table I columns plus
/// the inputs of the security analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeProperties {
    /// Does the scheme defeat the byte-by-byte (BROP) attack?
    pub prevents_byte_by_byte: bool,
    /// Does a forked child returning into inherited frames keep running
    /// correctly (no false positives)?
    pub correct_across_fork: bool,
    /// Does the scheme detect overflows that only corrupt local variables?
    pub protects_local_variables: bool,
    /// Does knowledge of one frame's canary let the attacker forge canaries
    /// for other frames?  `true` means it does *not* (P-SSP-OWF).
    pub exposure_resilient: bool,
    /// Does deployment require changing the TLS layout or wrapping
    /// `fork`/`pthread_create`?
    pub modifies_tls_layout: bool,
    /// Effective entropy (bits) of the secret the attacker must guess to
    /// survive one epilogue check.
    pub stack_canary_entropy_bits: u32,
    /// When stack canaries are refreshed.
    pub granularity: Granularity,
}

/// Identifier for every scheme shipped with the crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum SchemeKind {
    /// No stack protection at all (the "native execution" baseline of §VI).
    Native,
    /// Classic Stack Smashing Protection (Codes 1–2).
    Ssp,
    /// Renew-after-fork SSP (Marco-Gisbert & Ripoll).
    RafSsp,
    /// DynaGuard (Petsios et al.).
    DynaGuard,
    /// Dynamic Canary Randomization (Hawkins et al.).
    Dcr,
    /// Polymorphic SSP — the paper's basic scheme (Codes 3–4).
    Pssp,
    /// P-SSP without TLS update: per-call re-randomization (Code 7).
    PsspNt,
    /// P-SSP with local-variable protection (Algorithm 2).
    PsspLv,
    /// P-SSP with a one-way function for exposure resilience (Codes 8–9).
    PsspOwf,
    /// The binary-instrumentation deployment of P-SSP with 32-bit split
    /// canaries (§V-C).
    PsspBin32,
}

impl SchemeKind {
    /// All schemes, in the order tables are usually printed.
    pub const ALL: [SchemeKind; 10] = [
        SchemeKind::Native,
        SchemeKind::Ssp,
        SchemeKind::RafSsp,
        SchemeKind::DynaGuard,
        SchemeKind::Dcr,
        SchemeKind::Pssp,
        SchemeKind::PsspNt,
        SchemeKind::PsspLv,
        SchemeKind::PsspOwf,
        SchemeKind::PsspBin32,
    ];

    /// Short display name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Native => "native",
            SchemeKind::Ssp => "SSP",
            SchemeKind::RafSsp => "RAF-SSP",
            SchemeKind::DynaGuard => "DynaGuard",
            SchemeKind::Dcr => "DCR",
            SchemeKind::Pssp => "P-SSP",
            SchemeKind::PsspNt => "P-SSP-NT",
            SchemeKind::PsspLv => "P-SSP-LV",
            SchemeKind::PsspOwf => "P-SSP-OWF",
            SchemeKind::PsspBin32 => "P-SSP (binary, 32-bit)",
        }
    }

    /// Constructs the scheme object for this kind.
    pub fn scheme(self) -> Box<dyn CanaryScheme> {
        crate::schemes::scheme_for(self)
    }

    /// What a forked worker's stack canaries look like to an attacker
    /// reconnecting to a server protected by this scheme, derived from the
    /// scheme's re-randomization granularity.
    pub fn fork_canary_policy(self) -> ForkCanaryPolicy {
        match self.scheme().properties().granularity {
            Granularity::Never => ForkCanaryPolicy::Inherited,
            Granularity::PerFork | Granularity::PerCall => ForkCanaryPolicy::Rerandomized,
        }
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A canary protection scheme: code generation + runtime + properties.
///
/// The trait is object-safe; the compiler, rewriter, attack framework and
/// benchmarks all work with `Box<dyn CanaryScheme>` obtained from
/// [`SchemeKind::scheme`].
pub trait CanaryScheme: Send + Sync {
    /// The scheme's identifier.
    fn kind(&self) -> SchemeKind;

    /// Short display name.
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Number of 8-byte words the scheme reserves between the saved frame
    /// pointer and the locals for its return-address canary state.
    /// (P-SSP-LV's per-variable canaries are *not* counted here — they are
    /// interleaved with the locals and described by
    /// [`FrameInfo::critical_canary_slots`].)
    fn canary_region_words(&self) -> u32;

    /// Appends the canary part of the function prologue to `out`.  The
    /// compiler places these instructions right after the frame is
    /// established (`push %rbp; mov %rsp,%rbp; sub $frame,%rsp`).  An
    /// unprotected frame gets none.
    fn emit_prologue_into(&self, frame: &FrameInfo, out: &mut Vec<Inst>);

    /// Appends the canary check of the function epilogue to `out`.  The
    /// compiler places these instructions right before `leaveq; retq`.  An
    /// unprotected frame gets none.
    fn emit_epilogue_into(&self, frame: &FrameInfo, out: &mut Vec<Inst>);

    /// [`CanaryScheme::emit_prologue_into`] as a vector of its own.
    fn emit_prologue(&self, frame: &FrameInfo) -> Vec<Inst> {
        let mut out = Vec::new();
        self.emit_prologue_into(frame, &mut out);
        out
    }

    /// [`CanaryScheme::emit_epilogue_into`] as a vector of its own.
    fn emit_epilogue(&self, frame: &FrameInfo) -> Vec<Inst> {
        let mut out = Vec::new();
        self.emit_epilogue_into(frame, &mut out);
        out
    }

    /// Creates the runtime hooks (the shared-library part of the scheme).
    /// `seed` makes the runtime's randomness reproducible.
    fn runtime_hooks(&self, seed: u64) -> Box<dyn RuntimeHooks>;

    /// The scheme's static properties (Table I columns).
    fn properties(&self) -> SchemeProperties;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_have_unique_names() {
        let names: Vec<_> = SchemeKind::ALL.iter().map(|k| k.name()).collect();
        for (i, a) in names.iter().enumerate() {
            for b in names.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn display_matches_name() {
        for kind in SchemeKind::ALL {
            assert_eq!(kind.to_string(), kind.name());
        }
    }

    #[test]
    fn granularity_display() {
        assert_eq!(Granularity::Never.to_string(), "never");
        assert_eq!(Granularity::PerFork.to_string(), "per-fork");
        assert_eq!(Granularity::PerCall.to_string(), "per-call");
    }

    #[test]
    fn only_static_canary_schemes_inherit_across_fork() {
        for kind in SchemeKind::ALL {
            let expected = match kind {
                SchemeKind::Native | SchemeKind::Ssp => ForkCanaryPolicy::Inherited,
                _ => ForkCanaryPolicy::Rerandomized,
            };
            assert_eq!(kind.fork_canary_policy(), expected, "{kind}");
        }
        assert_eq!(ForkCanaryPolicy::Inherited.to_string(), "inherited");
        assert_eq!(ForkCanaryPolicy::Rerandomized.label(), "rerandomized");
    }
}
