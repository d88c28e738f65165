//! The scenario engine: every table and figure of the paper as a
//! registered [`Experiment`].
//!
//! Each scenario lives in its own module (one per paper artefact, plus the
//! mixed-fleet [`population`] scenario that goes beyond the paper).  The
//! three campaign scenarios — [`effectiveness`], [`server_attack`] and
//! [`population`] — are thin modules over one shared table runner in
//! [`campaigns`].  Every scenario
//! implements the [`Experiment`] trait — name, title, description and a
//! `run` consuming one shared [`ExperimentCtx`].  The [`registry`] is the
//! single source of truth the harness CLI derives its usage text,
//! validation, dispatch and export loop from: a scenario registered here is
//! automatically runnable, listable, exportable and covered by the CI
//! registry sweep; one that is not registered does not exist.
//!
//! Determinism contract, engine-wide: every scenario runs its independent
//! units on the shared [`JobPool`], so its records are a pure function of
//! the [`ExperimentCtx`] — the worker count changes wall time, never
//! results.

use polycanary_attacks::campaign::StopRule;
use polycanary_attacks::pool::JobPool;
use polycanary_compiler::OptLevel;
use polycanary_core::record::Record;

pub mod ablation;
pub mod campaigns;
pub mod effectiveness;
pub mod fig5;
pub mod population;
pub mod server_attack;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod theorem1;

pub use ablation::*;
pub use campaigns::*;
pub use effectiveness::*;
pub use fig5::*;
pub use population::*;
pub use server_attack::*;
pub use table1::*;
pub use table2::*;
pub use table3::*;
pub use table4::*;
pub use table5::*;
pub use theorem1::*;

/// Output medium of a harness run — plain text, or machine-readable
/// JSON/CSV records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExportFormat {
    /// Human-readable tables (the default).
    #[default]
    Text,
    /// Self-describing JSON envelopes (see
    /// [`polycanary_core::record::export_envelope`]).
    Json,
    /// One CSV row per record.
    Csv,
}

impl ExportFormat {
    /// Display label, as accepted by the harness `--format` flag.
    pub fn label(&self) -> &'static str {
        match self {
            ExportFormat::Text => "text",
            ExportFormat::Json => "json",
            ExportFormat::Csv => "csv",
        }
    }

    /// File extension for `--out` exports.
    pub fn extension(&self) -> &'static str {
        match self {
            ExportFormat::Text => "txt",
            ExportFormat::Json => "json",
            ExportFormat::Csv => "csv",
        }
    }
}

/// The one context threaded through every scenario: seed, sizing, worker
/// budget, adaptive-stop policy and output format.
///
/// A scenario must draw **all** of its inputs from here — that is what
/// makes `harness --seed N --workers W <scenario>` reproducible and lets
/// the engine prove worker-count independence across the whole registry.
/// The sizing knobs are plain fields so benches and tests can shrink
/// individual scenarios without inventing a second code path.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentCtx {
    /// Base seed every scenario derives its randomness from.
    pub seed: u64,
    /// CI-sized workloads (`--quick`): fewer programs, requests and seeds.
    pub quick: bool,
    /// Worker-thread budget; `None` uses one worker per available CPU.
    pub workers: Option<usize>,
    /// Stop rule for single-rule campaign scenarios: [`StopRule::Exhaustive`]
    /// by default, [`StopRule::sprt`] under `--adaptive` (the stop-rule
    /// *comparison* scenarios run both rules regardless).
    pub stop_rule: StopRule,
    /// Output medium the harness renders into.
    pub format: ExportFormat,
    /// SPEC-like programs for Table II / Figure 5 sweeps (Table I uses at
    /// most 6 of them for its overhead column).
    pub spec_programs: usize,
    /// Web requests per Table III cell.
    pub requests: u64,
    /// Database queries per Table IV cell.
    pub queries: u64,
    /// Oracle-request budget per byte-by-byte attack victim.
    pub byte_budget: u64,
    /// Victim seeds per attack campaign.
    pub campaign_seeds: usize,
    /// Re-randomization samples for the Theorem-1 uniformity test.
    pub theorem1_samples: usize,
    /// Optimization level the overhead scenarios compile their O0-vs-opt
    /// comparison column at (`--opt-level`): fig5, table5 and the ablation
    /// report scheme × {O0, opt_level} grids.  Defaults to `O2`; setting
    /// `O0` collapses the grid to the historical single-level rows.
    pub opt_level: OptLevel,
    /// Fleet-scale victim count (`--fleet N`): when set, the campaign
    /// scenarios (`population`, `server-attack`) switch to SPRT-only
    /// fleet campaigns over `N` lazily drawn victim seeds — 10^5+ is
    /// practical because victims boot from memoized snapshots and the
    /// sequential rule cancels almost the entire fleet.  `None` (the
    /// default, and what the registry sweeps use) keeps the classic
    /// stop-rule-comparison scenarios.
    pub fleet: Option<usize>,
}

impl ExperimentCtx {
    /// Full-size context (28 SPEC-like programs, 500 requests / 50 queries
    /// per cell, 32-seed campaigns) with exhaustive budgets.
    pub fn new(seed: u64) -> Self {
        ExperimentCtx {
            seed,
            quick: false,
            workers: None,
            stop_rule: StopRule::Exhaustive,
            format: ExportFormat::Text,
            spec_programs: 28,
            requests: 500,
            queries: 50,
            byte_budget: 20_000,
            campaign_seeds: EFFECTIVENESS_SEEDS,
            theorem1_samples: 5_000,
            opt_level: OptLevel::O2,
            fleet: None,
        }
    }

    /// The opt-level axis the overhead scenarios sweep: always `O0` (the
    /// historical baseline), plus [`ExperimentCtx::opt_level`] when it is
    /// something stronger.
    pub fn opt_levels(&self) -> Vec<OptLevel> {
        if self.opt_level == OptLevel::O0 {
            vec![OptLevel::O0]
        } else {
            vec![OptLevel::O0, self.opt_level]
        }
    }

    /// Shrinks every sizing knob to CI scale (the harness `--quick` flag).
    #[must_use]
    pub fn quick(mut self) -> Self {
        self.quick = true;
        self.spec_programs = 4;
        self.requests = 50;
        self.queries = 5;
        self.byte_budget = 4_000;
        self.campaign_seeds = 8;
        self.theorem1_samples = 2_000;
        self
    }

    /// Switches single-rule campaigns to the SPRT adaptive budget (the
    /// harness `--adaptive` flag).
    #[must_use]
    pub fn adaptive(self) -> Self {
        self.with_stop_rule(StopRule::sprt())
    }

    /// Caps the worker-thread budget (`0` is treated as `1`).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Overrides the campaign stop rule directly.
    #[must_use]
    pub fn with_stop_rule(mut self, stop_rule: StopRule) -> Self {
        self.stop_rule = stop_rule;
        self
    }

    /// Overrides the SPEC-like program count.
    #[must_use]
    pub fn with_spec_programs(mut self, programs: usize) -> Self {
        self.spec_programs = programs.max(1);
        self
    }

    /// Overrides the per-cell web-request count.
    #[must_use]
    pub fn with_requests(mut self, requests: u64) -> Self {
        self.requests = requests.max(1);
        self
    }

    /// Overrides the per-cell database-query count.
    #[must_use]
    pub fn with_queries(mut self, queries: u64) -> Self {
        self.queries = queries.max(1);
        self
    }

    /// Overrides the byte-by-byte request budget.
    #[must_use]
    pub fn with_byte_budget(mut self, budget: u64) -> Self {
        self.byte_budget = budget.max(1);
        self
    }

    /// Overrides the victim-seed count per campaign.
    #[must_use]
    pub fn with_campaign_seeds(mut self, seeds: usize) -> Self {
        self.campaign_seeds = seeds.max(1);
        self
    }

    /// Overrides the Theorem-1 sample count.
    #[must_use]
    pub fn with_samples(mut self, samples: usize) -> Self {
        self.theorem1_samples = samples.max(1);
        self
    }

    /// Selects the optimization level of the comparison column in the
    /// overhead scenarios (the harness `--opt-level` flag).
    #[must_use]
    pub fn with_opt_level(mut self, opt: OptLevel) -> Self {
        self.opt_level = opt;
        self
    }

    /// Switches the campaign scenarios to fleet mode over `fleet` victims
    /// (the harness `--fleet N` flag; `0` is treated as `1`).
    #[must_use]
    pub fn with_fleet(mut self, fleet: usize) -> Self {
        self.fleet = Some(fleet.max(1));
        self
    }

    /// The job pool every scenario fans out on: `--workers`-capped, or one
    /// worker per CPU.
    pub fn pool(&self) -> JobPool {
        self.workers.map(JobPool::with_workers).unwrap_or_default()
    }

    /// The self-describing record form of this context — embedded in every
    /// export envelope so later runs can tell configuration changes from
    /// result changes (`workers` 0 encodes "auto": one per CPU; `adaptive`
    /// is true exactly when the stop rule is not exhaustive).
    pub fn record(&self) -> Record {
        Record::new()
            .field("seed", self.seed)
            .field("quick", self.quick)
            .field("adaptive", self.stop_rule != StopRule::Exhaustive)
            .field("workers", self.workers.unwrap_or(0))
            .field("stop_rule", self.stop_rule.label())
            .field("format", self.format.label())
            .field("spec_programs", self.spec_programs)
            .field("requests", self.requests)
            .field("queries", self.queries)
            .field("byte_budget", self.byte_budget)
            .field("campaign_seeds", self.campaign_seeds)
            .field("theorem1_samples", self.theorem1_samples)
            .field("opt_level", self.opt_level.label())
            .field("fleet", self.fleet.unwrap_or(0))
    }
}

/// What one scenario run produced: the plain-text rendering and the
/// machine-readable records behind it.
#[derive(Debug, Clone)]
pub struct ScenarioOutput {
    /// Human-readable rendering in the spirit of the paper's table.
    pub text: String,
    /// Self-describing records, one per row/cell, for JSON/CSV export.
    pub records: Vec<Record>,
}

impl ScenarioOutput {
    /// Bundles a rendering with its records.
    pub fn new(text: String, records: Vec<Record>) -> Self {
        ScenarioOutput { text, records }
    }
}

/// One registered scenario: a paper table/figure (or an extension like the
/// mixed-fleet campaign) with a stable name, human titles and a run method
/// consuming the shared [`ExperimentCtx`].
pub trait Experiment: Sync {
    /// Stable registry name (`table1`, `fig5`, `population`,
    /// `gen:<lattice>:<cell>`, …) — the CLI argument, export file stem and
    /// `scenario` envelope field.
    fn name(&self) -> &str;

    /// One-line title naming the paper artefact, shown above text output.
    fn title(&self) -> &str;

    /// One-line description for usage text and the experiment table in the
    /// docs.
    fn description(&self) -> &str;

    /// Alternative CLI names (e.g. `attack` for `effectiveness`).
    fn aliases(&self) -> &'static [&'static str] {
        &[]
    }

    /// The annotation comparing this scenario's output to the paper's
    /// numbers — the `**Paper:**` paragraph of its section in the
    /// generated EXPERIMENTS.md.  Required, not defaulted: registering a
    /// scenario without documenting what the paper claims is exactly the
    /// doc drift the generated report exists to prevent.
    fn paper_note(&self) -> &str;

    /// The context record embedded in this scenario's export envelope.
    /// Defaults to the shared [`ExperimentCtx::record`]; generated
    /// scenarios override it to append their per-cell configuration, so
    /// `harness diff` classifies cell-axis changes as configuration
    /// divergence rather than result regressions.
    fn export_ctx(&self, ctx: &ExperimentCtx) -> Record {
        ctx.record()
    }

    /// Runs the scenario under `ctx` and returns its rendering + records.
    fn run(&self, ctx: &ExperimentCtx) -> ScenarioOutput;
}

/// Every scenario, registered exactly once, in canonical order.  The
/// harness and the CI sweep both iterate this list — adding a scenario
/// here is all it takes to make it runnable, documented and CI-covered.
///
/// ```
/// use polycanary_bench::experiments::registry;
///
/// let experiments = registry();
/// let names: Vec<&str> = experiments.iter().map(|e| e.name()).collect();
/// assert!(names.contains(&"table1") && names.contains(&"server-attack"));
/// // Every scenario carries the metadata the generated report needs.
/// for experiment in &experiments {
///     assert!(!experiment.description().is_empty(), "{}", experiment.name());
///     assert!(!experiment.paper_note().is_empty(), "{}", experiment.name());
/// }
/// ```
pub fn registry() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(table1::Table1),
        Box::new(fig5::Fig5),
        Box::new(table2::Table2),
        Box::new(table3::Table3),
        Box::new(table4::Table4),
        Box::new(table5::Table5),
        Box::new(effectiveness::Effectiveness),
        Box::new(server_attack::ServerAttack),
        Box::new(population::MixedPopulation),
        Box::new(theorem1::Theorem1),
        Box::new(ablation::Ablation),
    ]
}

/// The registry plus, when a lattice is selected, every scenario the
/// scenario grammar generates for it — the one dynamic registration path
/// (`harness --lattice NAME --gen-seed N`).  Generated scenarios are
/// ordinary [`Experiment`]s named `gen:<lattice>:<cell>`, so they flow
/// through listing, export, diff and report exactly like the static ones.
///
/// # Errors
///
/// Returns a message listing the valid lattice names when `lattice` names
/// none of them (the harness maps this to usage-error exit status 2).
pub fn registry_with(lattice: Option<(&str, u64)>) -> Result<Vec<Box<dyn Experiment>>, String> {
    let mut experiments = registry();
    if let Some((name, gen_seed)) = lattice {
        experiments.extend(crate::grammar::generated_experiments(name, gen_seed)?);
    }
    Ok(experiments)
}

/// Resolves a CLI name (canonical or alias) to its registered scenario.
pub fn find_experiment(name: &str) -> Option<Box<dyn Experiment>> {
    registry().into_iter().find(|e| e.name() == name || e.aliases().contains(&name))
}

/// The registry rendered as report metadata: one
/// [`SectionMeta`](polycanary_analysis::summary::SectionMeta) per
/// scenario, in registry order.  `harness report` hands this to
/// [`polycanary_analysis::summary::RunSummary`] so the generated
/// EXPERIMENTS.md sections, titles and paper annotations all come from the
/// same place the CLI usage text does.
pub fn report_sections() -> Vec<polycanary_analysis::summary::SectionMeta> {
    registry()
        .iter()
        .map(|experiment| polycanary_analysis::summary::SectionMeta {
            name: experiment.name().to_string(),
            title: experiment.title().to_string(),
            description: experiment.description().to_string(),
            paper_note: experiment.paper_note().to_string(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_aliases_resolve() {
        let experiments = registry();
        let names: Vec<&str> = experiments.iter().map(|e| e.name()).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate registry names: {names:?}");
        assert_eq!(names.len(), 11);
        assert!(find_experiment("attack").is_some_and(|e| e.name() == "effectiveness"));
        assert!(find_experiment("population").is_some());
        assert!(find_experiment("no-such-scenario").is_none());
    }

    #[test]
    fn generated_names_never_collide_with_static_scenarios_or_aliases() {
        // The latent gap the grammar closed: uniqueness must hold across
        // the *combined* catalogue — static names, static aliases and the
        // generated `gen:*` names of every lattice — not just the static
        // list.
        for lattice in crate::grammar::lattices() {
            let experiments = registry_with(Some((lattice.name(), 7)))
                .expect("every advertised lattice generates");
            let mut seen = std::collections::HashSet::new();
            for experiment in &experiments {
                assert!(
                    seen.insert(experiment.name().to_string()),
                    "duplicate scenario name {} in lattice {}",
                    experiment.name(),
                    lattice.name()
                );
                for alias in experiment.aliases() {
                    assert!(
                        seen.insert((*alias).to_string()),
                        "alias {alias} collides in lattice {}",
                        lattice.name()
                    );
                }
            }
            // Generated scenarios are namespaced away from static ones.
            for experiment in &experiments[registry().len()..] {
                assert!(
                    experiment.name().starts_with(&format!("gen:{}:", lattice.name())),
                    "generated scenario {} must live under gen:{}:",
                    experiment.name(),
                    lattice.name()
                );
                assert!(experiment.aliases().is_empty(), "generated scenarios have no aliases");
            }
        }
        // Unknown lattices are rejected with the valid names in the message.
        let Err(err) = registry_with(Some(("no-such-lattice", 7))) else {
            panic!("must reject unknown lattices")
        };
        assert!(err.contains("no-such-lattice") && err.contains("smoke"), "{err}");
    }

    #[test]
    fn ctx_defaults_and_quick_sizes_match_the_harness_contract() {
        let full = ExperimentCtx::new(7);
        assert_eq!(
            (full.spec_programs, full.requests, full.queries, full.byte_budget),
            (28, 500, 50, 20_000)
        );
        assert_eq!(full.campaign_seeds, EFFECTIVENESS_SEEDS);
        assert_eq!(full.stop_rule, StopRule::Exhaustive);
        let quick = ExperimentCtx::new(7).quick();
        assert_eq!(
            (quick.spec_programs, quick.requests, quick.queries, quick.byte_budget),
            (4, 50, 5, 4_000)
        );
        assert_eq!(quick.campaign_seeds, 8);
        let adaptive = ExperimentCtx::new(7).adaptive();
        assert_eq!(adaptive.stop_rule, StopRule::sprt());
        assert_eq!(full.opt_level, OptLevel::O2);
        assert_eq!(full.opt_levels(), vec![OptLevel::O0, OptLevel::O2]);
        assert_eq!(
            ExperimentCtx::new(7).with_opt_level(OptLevel::O0).opt_levels(),
            vec![OptLevel::O0]
        );
        assert_eq!(ExperimentCtx::new(7).with_workers(0).workers, Some(1));
    }

    #[test]
    fn ctx_record_captures_every_reproducibility_knob() {
        use polycanary_core::record::Value;

        let rec = ExperimentCtx::new(9).quick().with_workers(4).record();
        assert_eq!(rec.get("seed"), Some(&Value::UInt(9)));
        assert_eq!(rec.get("quick"), Some(&Value::Bool(true)));
        assert_eq!(rec.get("workers"), Some(&Value::UInt(4)));
        assert_eq!(rec.get("stop_rule"), Some(&Value::Str("exhaustive".into())));
        assert_eq!(rec.get("opt_level"), Some(&Value::Str("O2".into())));
        // Auto parallelism encodes as 0.
        assert_eq!(ExperimentCtx::new(9).record().get("workers"), Some(&Value::UInt(0)));
    }

    #[test]
    fn ctx_record_adaptive_flag_matches_the_stop_rule_it_runs() {
        use polycanary_core::record::Value;

        for (ctx, adaptive) in [
            (ExperimentCtx::new(7), false),
            (ExperimentCtx::new(7).adaptive(), true),
            (ExperimentCtx::new(7).with_stop_rule(StopRule::sprt()), true),
            (ExperimentCtx::new(7).adaptive().with_stop_rule(StopRule::Exhaustive), false),
        ] {
            assert_eq!(ctx.stop_rule != StopRule::Exhaustive, adaptive, "{ctx:?}");
            let rec = ctx.record();
            assert_eq!(rec.get("adaptive"), Some(&Value::Bool(adaptive)), "{ctx:?}");
            assert_eq!(rec.get("stop_rule"), Some(&Value::Str(ctx.stop_rule.label().into())));
        }
    }
}
