//! Benchmark harness regenerating every table and figure of
//! *To Detect Stack Buffer Overflow with Polymorphic Canaries* (DSN 2018).
//!
//! The [`experiments`] module is a **scenario engine**: every paper
//! artefact (and every extension, like the mixed-fleet `population`
//! scenario) implements the [`experiments::Experiment`] trait and is
//! registered once in [`experiments::registry`], each in a module of its
//! own; the three campaign scenarios share the table runner in
//! [`experiments::campaigns`].  The `harness`
//! binary derives its usage text, argument validation, dispatch and
//! JSON/CSV export loop from that registry, so a scenario cannot exist
//! half-wired, and EXPERIMENTS.md records representative output next to
//! the paper's numbers.
//!
//! | Registry name | Paper artefact |
//! |---|---|
//! | `table1` | Table I — defence-tool comparison |
//! | `fig5` | Figure 5 — SPEC runtime overhead |
//! | `table2` | Table II — code expansion |
//! | `table3` | Table III — web-server response time |
//! | `table4` | Table IV — database performance |
//! | `table5` | Table V — prologue/epilogue cycles |
//! | `effectiveness` | §VI-C — attack effectiveness |
//! | `server-attack` | §II — stop-rule comparison on forking servers |
//! | `population` | mixed partially-patched fleets (beyond the paper) |
//! | `theorem1` | Theorem 1 — canary independence |
//! | `ablation` | §IV/§VI-B — extension trade-offs |
//! | `gen:<lattice>:<cell>` | scenario-grammar cells (`--lattice`, beyond the paper) |
//!
//! Every scenario consumes one [`experiments::ExperimentCtx`] (seed,
//! sizing, worker budget, stop rule) and fans its independent units out
//! over the shared job pool, so records are a pure function of the context
//! — the worker count changes wall time, never results.
//!
//! Run `cargo run -p polycanary-bench --bin harness -- all` to print every
//! table (`--timings FILE` records each scenario's wall time).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod grammar;
pub mod verify;

pub use experiments::*;
