//! Static binary instrumentation upgrading SSP binaries to P-SSP.
//!
//! The paper ships two deployment vehicles for P-SSP: an LLVM plugin (the
//! `polycanary-compiler` crate) and a ~1100-line binary rewriter that patches
//! existing `-fstack-protector` binaries (§V-C/§V-D).  This crate is the
//! second vehicle for the simulated substrate:
//!
//! * [`scan`] locates the SSP prologue/epilogue instruction patterns,
//! * [`rewrite`] replaces them with size-identical P-SSP sequences (32-bit
//!   packed canaries, patched `__stack_chk_fail`) and — for statically
//!   linked binaries — appends the extra section holding the customised
//!   glibc functions,
//! * [`build`] is the one deployment pipeline: [`Build`] knows, for the
//!   native build, every compiler plugin and both rewriter link modes,
//!   which compiler builds the program, whether the rewriter upgrades it
//!   and which runtime it runs under.  Every workload, campaign victim and
//!   verifier cell is built through it.
//!
//! # Quick example
//!
//! ```
//! use polycanary_compiler::{Compiler, FunctionBuilder, ModuleBuilder};
//! use polycanary_core::scheme::SchemeKind;
//! use polycanary_rewriter::{LinkMode, Rewriter};
//!
//! // A legacy binary compiled with -fstack-protector (classic SSP).
//! let module = ModuleBuilder::new()
//!     .function(
//!         FunctionBuilder::new("handler").buffer("buf", 32).vulnerable_copy("buf").build(),
//!     )
//!     .build()?;
//! let mut program = Compiler::new(SchemeKind::Ssp).compile(&module)?.program;
//!
//! // Upgrade it to P-SSP in place; the layout is preserved.
//! let report = Rewriter::new().with_link_mode(LinkMode::Dynamic).rewrite(&mut program)?;
//! assert_eq!(report.expansion_percent(), 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod build;
pub mod error;
pub mod rewrite;
pub mod scan;

pub use build::Build;
pub use error::RewriteError;
pub use rewrite::{instrument_and_load, LinkMode, RewriteReport, Rewriter, STATIC_SECTION_BYTES};
pub use scan::{scan_function, EpilogueSite, PrologueSite, SspSites};
