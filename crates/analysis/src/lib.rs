//! Cross-run trend tracking over the polycanary export envelopes.
//!
//! Every harness export is a versioned envelope
//! (`schema_version`/`scenario`/`ctx`/`records`,
//! [`polycanary_core::record::export_envelope`]) and every timed run can
//! write per-scenario wall times (`--timings FILE`, baselined by
//! `BENCH_scenarios.json`).  This crate is the first *consumer* of that
//! format — the layer that turns single-run snapshots into comparative
//! claims:
//!
//! * [`run`] — [`run::Run`] loads one run's artifacts (a `--out` directory,
//!   a single envelope, a stdout envelope array or a timings file),
//!   validating every envelope through
//!   [`polycanary_core::record::Envelope`] so a future `schema_version` is
//!   a clear error, never a misread.
//! * [`scrub`] — strips the fields that legitimately vary between runs
//!   (wall times, worker counts, output format) so two runs compare
//!   record-for-record.
//! * [`diff`] — [`diff::diff_runs`] aligns two runs scenario-by-scenario
//!   (keyed on scenario + ctx) and emits typed [`diff::Finding`]s:
//!   wall-time ratios against a baseline with a configurable regression
//!   threshold, verdict flips, success-rate / request-count drift, ctx
//!   divergence with the offending key named.  Regressions make
//!   [`diff::DiffReport::has_regressions`] true, which is what lets
//!   `harness diff` exit non-zero and CI gate on it.
//! * [`summary`] — [`summary::RunSummary`] is the run rendered for humans
//!   and machines alike: Record-based JSON ([`summary::RunSummary::to_record`])
//!   and the Markdown experiment report
//!   ([`summary::RunSummary::to_markdown`]) that generates EXPERIMENTS.md.
//!
//! The crate depends only on `polycanary-core` (for the record model); the
//! harness feeds it scenario titles and paper annotations through
//! [`summary::SectionMeta`], so the registry stays the single source of
//! scenario metadata.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod diff;
pub mod run;
pub mod scrub;
pub mod summary;

pub use diff::{diff_runs, DiffOptions, DiffReport, Finding, Severity};
pub use run::{LoadError, Run, ScenarioRun, Timing};
pub use summary::{RunSummary, SectionMeta};
