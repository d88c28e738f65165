//! # polycanary
//!
//! A reproduction of *To Detect Stack Buffer Overflow with Polymorphic
//! Canaries* (Wang, Ding, Pang, Guo, Zhu, Mao — DSN 2018) as a Rust
//! workspace.  The paper's P-SSP scheme re-randomizes the *stack* canary —
//! as a random split `(C0, C1)` with `C0 ⊕ C1 = C` — without ever touching
//! the *TLS* canary `C`, defeating the byte-by-byte (BROP-style) attack
//! while keeping SSP's simplicity, fork semantics and performance.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`crypto`] | `polycanary-crypto` | AES-128, SHA-1, PRNGs, `rdrand`/`rdtsc` models |
//! | [`vm`] | `polycanary-vm` | simulated machine: stack, TLS, instructions, processes with `fork` |
//! | [`core`] | `polycanary-core` | the canary schemes: SSP, RAF-SSP, DynaGuard, DCR, P-SSP, NT/LV/OWF |
//! | [`compiler`] | `polycanary-compiler` | MiniC IR and the pass that emits scheme prologues/epilogues |
//! | [`rewriter`] | `polycanary-rewriter` | SSP → P-SSP static binary instrumentation |
//! | [`attacks`] | `polycanary-attacks` | forking-server victim, byte-by-byte / exhaustive / canary-reuse attacks, campaigns |
//! | [`workloads`] | `polycanary-workloads` | SPEC-like, web-server and database workloads |
//! | [`analysis`] | `polycanary-analysis` | cross-run trend tracking: load/diff/report over export envelopes |
//! | [`verifier`] | `polycanary-verifier` | static dataflow proof of canary invariants |
//!
//! # Quickstart
//!
//! ```
//! use polycanary::attacks::{ByteByByteAttack, ForkingServer, VictimConfig};
//! use polycanary::core::SchemeKind;
//!
//! // A forking server protected by classic SSP falls to the byte-by-byte
//! // attack in roughly a thousand requests ...
//! let mut ssp_server = ForkingServer::new(VictimConfig::new(SchemeKind::Ssp, 7));
//! let geometry = ssp_server.geometry();
//! let result = ByteByByteAttack::default().run(&mut ssp_server, geometry, SchemeKind::Ssp);
//! assert!(result.success && result.trials < 2_100);
//!
//! // ... while the P-SSP build of the same server resists it.
//! let mut pssp_server = ForkingServer::new(VictimConfig::new(SchemeKind::Pssp, 7));
//! let geometry = pssp_server.geometry();
//! let result = ByteByByteAttack::with_budget(5_000).run(&mut pssp_server, geometry, SchemeKind::Pssp);
//! assert!(!result.success);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Cryptographic and entropy substrate (re-export of `polycanary-crypto`).
pub mod crypto {
    pub use polycanary_crypto::*;
}

/// Simulated execution substrate (re-export of `polycanary-vm`).
pub mod vm {
    pub use polycanary_vm::*;
}

/// Canary protection schemes (re-export of `polycanary-core`).
pub mod core {
    pub use polycanary_core::*;
}

/// MiniC compiler (re-export of `polycanary-compiler`).
pub mod compiler {
    pub use polycanary_compiler::*;
}

/// Static binary instrumentation (re-export of `polycanary-rewriter`).
pub mod rewriter {
    pub use polycanary_rewriter::*;
}

/// Attack framework (re-export of `polycanary-attacks`).
pub mod attacks {
    pub use polycanary_attacks::*;
}

/// Evaluation workloads (re-export of `polycanary-workloads`).
pub mod workloads {
    pub use polycanary_workloads::*;
}

/// Cross-run trend tracking over export envelopes (re-export of
/// `polycanary-analysis`).
pub mod analysis {
    pub use polycanary_analysis::*;
}

/// Static proof of canary invariants (re-export of `polycanary-verifier`).
pub mod verifier {
    pub use polycanary_verifier::*;
}
