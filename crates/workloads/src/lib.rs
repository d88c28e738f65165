//! Synthetic workloads for the polycanary evaluation (Fig. 5, Tables II–IV).
//!
//! The paper evaluates P-SSP on SPEC CPU2006, Apache2, Nginx, MySQL and
//! SQLite.  None of those are available (or meaningful) on the simulated
//! substrate, so this crate provides synthetic stand-ins that preserve the
//! one property the measured numbers depend on: the ratio of per-call canary
//! work to per-call body work (see DESIGN.md §2 for the substitution
//! argument):
//!
//! * [`spec`] — a 28-program SPEC-like suite spanning call-heavy to
//!   compute-heavy profiles (Fig. 5, Table II),
//! * [`webserver`] — Apache-like (prefork) and Nginx-like (event loop)
//!   request-serving models (Table III),
//! * [`database`] — MySQL-like and SQLite-like query-path models
//!   (Table IV),
//! * [`build`] — launching and measuring builds under the three
//!   deployment vehicles every experiment compares (native, compiler
//!   plugin, binary rewriter), through the one pipeline [`Build`].
//!
//! # Quick example
//!
//! ```
//! use polycanary_workloads::build::Build;
//! use polycanary_workloads::spec::spec_suite;
//! use polycanary_core::scheme::SchemeKind;
//!
//! let program = spec_suite()[0];
//! let overhead = program.overhead_percent(Build::Compiler(SchemeKind::Pssp), 42);
//! assert!(overhead < 5.0, "P-SSP overhead stays small: {overhead:.2}%");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod database;
pub mod spec;
pub mod webserver;

pub use build::{binary_size, build_machine, build_machine_at, Build};
pub use database::{benchmark_database, DatabaseModel, QueryReport};
pub use spec::{spec_suite, SpecProgram, SpecSuite};
pub use webserver::{benchmark_server, LoadConfig, ResponseTimeReport, ServerModel, CYCLES_PER_MS};
