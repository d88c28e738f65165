//! # polycanary-verifier — static proof of canary invariants
//!
//! The runtime harness shows that attacks *fail*; this crate shows that the
//! instrumentation is *present and well-formed* in the first place.  It
//! walks every function body once, in index order (every branch skips
//! forward, so no control-flow graph is needed), as a forward abstract
//! interpretation tracking each canary slot through
//! `Unset → Stored → Checked` (with `Clobbered` as the error state), and
//! emits typed [`Finding`]s for five invariant checks:
//!
//! | check | proves |
//! |---|---|
//! | `unprotected-buffer` | no buffer write precedes the canary store |
//! | `unchecked-return` | every path to `ret` passes an epilogue check |
//! | `clobbered-canary` | no store overlaps a live canary slot |
//! | `dead-check` | every epilogue check is reachable from entry |
//! | `rewrite-soundness` | rewriter output replaced every SSP site exactly |
//!
//! The pass is a *may*-analysis: joins keep every state either branch could
//! be in, so a defect on any path is reported even if other paths are
//! clean.  Clean compiler and rewriter output over every workload × scheme
//! × deployment cell must verify finding-free; the [`selftest`] battery
//! holds the negative controls proving each check actually fires.
//!
//! Entry points: [`verify_compiled`] for compiler output,
//! [`verify_rewritten`] for rewriter output, [`verify_function`] for a bare
//! body under an explicit [`ProtectionPolicy`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod dataflow;
pub mod finding;
pub mod policy;
pub mod rewrite_check;
pub mod selftest;
pub mod verify;

pub use finding::{CheckKind, Finding};
pub use policy::ProtectionPolicy;
pub use rewrite_check::verify_rewritten;
pub use selftest::InjectedDefect;
pub use verify::{verify_compiled, verify_function};
