//! Mixed-population campaigns: partially patched fleets (beyond the paper).
//!
//! Every paper table campaigns a *unanimous* fleet, whose empirical success
//! rate is 0 or 1 — the easiest case for any stop rule.  This scenario
//! attacks weighted mixes of patched (P-SSP) and static-canary (SSP)
//! servers, producing in-between success rates that genuinely exercise the
//! sequential rule — SPRT's 0.2/0.8 indifference region and its α/β error
//! budget — against the exhaustive Wilson test's inconclusive band around
//! 1/2.

use std::fmt::Write as _;

use polycanary_attacks::campaign::{AttackKind, Campaign, CampaignReport, StopRule};
use polycanary_attacks::population::Population;
use polycanary_core::record::Record;
use polycanary_core::scheme::SchemeKind;

use super::{Experiment, ExperimentCtx, ScenarioOutput, StopRuleComparison};

/// The mixed-population scenario.
pub struct MixedPopulation;

impl Experiment for MixedPopulation {
    fn name(&self) -> &str {
        "population"
    }

    fn title(&self) -> &str {
        "Mixed victim populations: partially patched fleets vs the stop rules"
    }

    fn description(&self) -> &str {
        "Byte-by-byte campaigns against partially patched fleets (mixed \
         P-SSP/SSP), comparing SPRT and exhaustive verdicts"
    }

    fn paper_note(&self) -> &str {
        "(beyond the paper) every paper table campaigns a unanimous fleet \
         (success rate 0 or 1) where both stop rules provably agree.  Here \
         each victim seed deterministically draws one member of a weighted \
         population (e.g. a fleet whose P-SSP rollout reached 70 %), so the \
         empirical rate lands between the endpoints — the regime the sequential \
         rule was designed for: SPRT may settle inside its α/β error budget \
         while the exhaustive Wilson interval stays inconclusive, and a 50/50 \
         fleet leaves both rules undecided (the 0.2/0.8 indifference region \
         working as designed)."
    }

    fn run(&self, ctx: &ExperimentCtx) -> ScenarioOutput {
        if let Some(fleet) = ctx.fleet {
            let rows = run_population_fleet(ctx, fleet);
            return ScenarioOutput::new(
                format_population_fleet(&rows),
                rows.iter().map(FleetRow::record).collect(),
            );
        }
        let rows = run_population(ctx);
        ScenarioOutput::new(
            format_population(&rows),
            rows.iter().map(PopulationRow::record).collect(),
        )
    }
}

/// The fleets the registered scenario campaigns against, from almost-fully
/// patched (attack mostly fails) through an even split (maximally
/// ambiguous) to mostly static (attack mostly succeeds).
pub fn population_fleets() -> Vec<Population> {
    vec![
        Population::mixed("patched-90/10", [(9, SchemeKind::Pssp), (1, SchemeKind::Ssp)]),
        Population::mixed("patched-70/30", [(7, SchemeKind::Pssp), (3, SchemeKind::Ssp)]),
        Population::mixed("half-half-50/50", [(1, SchemeKind::Pssp), (1, SchemeKind::Ssp)]),
        Population::mixed("static-70/30", [(3, SchemeKind::Pssp), (7, SchemeKind::Ssp)]),
    ]
}

/// One row of the mixed-population experiment: a fleet and the byte-by-byte
/// campaign against it under both stop rules.
#[derive(Debug, Clone)]
pub struct PopulationRow {
    /// The victim fleet.
    pub population: Population,
    /// The byte-by-byte attack under both stop rules.
    pub byte_by_byte: StopRuleComparison,
}

impl PopulationRow {
    /// Empirical success rate of the full (exhaustive-rule) campaign — the
    /// ground truth the SPRT approximates.
    pub fn exhaustive_rate(&self) -> f64 {
        self.byte_by_byte.exhaustive.success_rate()
    }

    /// The self-describing record form of this row, for JSON/CSV export.
    pub fn record(&self) -> Record {
        Record::new()
            .field("population", self.population.label())
            .field("population_mix", self.population.record())
            .field("exhaustive_success_rate", self.exhaustive_rate())
            .field("byte_by_byte", self.byte_by_byte.record())
    }
}

/// Runs the mixed-population experiment: every fleet in
/// [`population_fleets`] is campaigned with the byte-by-byte attack over
/// [`ExperimentCtx::campaign_seeds`] victim seeds under both stop rules.
/// Fleet rows fan out over the shared pool; every cell is
/// deterministic in the context and independent of the worker count.
pub fn run_population(ctx: &ExperimentCtx) -> Vec<PopulationRow> {
    let fleets = population_fleets();
    // A unanimous cell is characterized by any handful of victims; a mixed
    // fleet needs enough independent draws for its empirical rate to
    // resemble the configured weights, so this scenario doubles the
    // configured campaign width.
    let (seed, seeds) = (ctx.seed, ctx.campaign_seeds.max(1) * 2);
    let byte_budget = ctx.byte_budget;
    let pool = ctx.pool();
    let campaign_workers = pool.nested_workers(fleets.len());
    pool.run(&fleets, |_, fleet| PopulationRow {
        population: fleet.clone(),
        byte_by_byte: StopRuleComparison::run(
            &Campaign::against(AttackKind::ByteByByte { budget: byte_budget }, fleet.clone())
                .with_seed_range(seed, seeds)
                .with_workers(campaign_workers),
        ),
    })
}

/// Renders the mixed-population experiment: per fleet, the empirical rate
/// and the per-rule `verdict victims/connections` cells.
pub fn format_population(rows: &[PopulationRow]) -> String {
    let mut out = String::new();
    let seeds = rows.first().map(|r| r.byte_by_byte.exhaustive.configured_seeds).unwrap_or(0);
    let _ = writeln!(
        out,
        "byte-by-byte campaigns against mixed fleets over {seeds} victim seeds; \
         cells are `verdict victims/connections` under sprt | exhaustive"
    );
    let _ = writeln!(out, "{:<18} {:>10} {:<64}", "Fleet", "rate", "byte-by-byte");
    for row in rows {
        let cmp = &row.byte_by_byte;
        let cells = format!(
            "{} | {}{}",
            StopRuleComparison::cell(&cmp.sprt),
            StopRuleComparison::cell(&cmp.exhaustive),
            if cmp.verdicts_agree() { "" } else { "  (SPRT differs)" }
        );
        let _ = writeln!(
            out,
            "{:<18} {:>10.2} {:<64}",
            row.population.label(),
            row.exhaustive_rate(),
            cells
        );
    }
    out
}

/// One fleet-mode row: a population campaigned at fleet scale under the
/// SPRT stop rule.  Fleet mode is SPRT-only by design — an exhaustive
/// campaign over 10^5 victims would attack them all, while SPRT's expected
/// sample size stays in the single digits whatever the fleet size.
#[derive(Debug, Clone)]
pub struct FleetRow {
    /// The victim fleet.
    pub population: Population,
    /// The SPRT byte-by-byte campaign over the whole fleet.
    pub report: CampaignReport,
}

impl FleetRow {
    /// The self-describing record form of this row — including the
    /// snapshot-reuse and shard counters the fleet engine exists for.
    /// Every field is deterministic (worker-count independent).
    pub fn record(&self) -> Record {
        Record::new()
            .field("population", self.population.label())
            .field("population_mix", self.population.record())
            .field("fleet", self.report.configured_seeds)
            .field("completed_seeds", self.report.runs.len())
            .field("victims_cancelled", self.report.victims_cancelled())
            .field("stopped_early", self.report.stopped_early())
            .field("verdict", self.report.verdict().label())
            .field("success_rate", self.report.success_rate())
            .field("total_requests", self.report.total_requests())
            .field("shard_size", self.report.shard_size)
            .field("snapshot_configs", self.report.snapshot_configs())
            .field("snapshot_reuses", self.report.snapshot_reuses())
    }
}

/// Runs the fleet-mode population experiment: every fleet in
/// [`population_fleets`] is campaigned with the byte-by-byte attack over
/// `fleet_size` lazily drawn victim seeds under [`StopRule::sprt`].  The
/// sequential rule settles after a handful of victims and cancels the
/// rest, so 10^5+ victims complete in seconds; the reported rows are
/// byte-identical at any worker count.
pub fn run_population_fleet(ctx: &ExperimentCtx, fleet_size: usize) -> Vec<FleetRow> {
    let fleets = population_fleets();
    let (seed, byte_budget) = (ctx.seed, ctx.byte_budget);
    let pool = ctx.pool();
    let campaign_workers = pool.nested_workers(fleets.len());
    pool.run(&fleets, |_, fleet| FleetRow {
        population: fleet.clone(),
        report: Campaign::against(AttackKind::ByteByByte { budget: byte_budget }, fleet.clone())
            .with_seed_range(seed, fleet_size)
            .with_stop_rule(StopRule::sprt())
            .with_workers(campaign_workers)
            .run(),
    })
}

/// Renders the fleet-mode population experiment: per fleet, the verdict,
/// how few victims the SPRT rule actually attacked, and the snapshot
/// reuse behind them.
pub fn format_population_fleet(rows: &[FleetRow]) -> String {
    let mut out = String::new();
    let fleet = rows.first().map(|r| r.report.configured_seeds).unwrap_or(0);
    let _ = writeln!(
        out,
        "SPRT byte-by-byte fleet campaigns over {fleet} victims per fleet; \
         snapshots are shared per victim configuration"
    );
    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>10} {:>12} {:>10} {:>10}",
        "Fleet", "verdict", "attacked", "cancelled", "configs", "reuses"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<18} {:>12} {:>10} {:>12} {:>10} {:>10}",
            row.population.label(),
            row.report.verdict().label(),
            row.report.campaigns(),
            row.report.victims_cancelled(),
            row.report.snapshot_configs(),
            row.report.snapshot_reuses(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_rows_cover_the_configured_fleets() {
        let rows =
            run_population(&ExperimentCtx::new(7).with_byte_budget(2_600).with_campaign_seeds(6));
        assert_eq!(rows.len(), population_fleets().len());
        for row in &rows {
            assert!(!row.population.is_uniform(), "{}", row.population.label());
            // Mixed fleets run twice the configured campaign width.
            let cmp = &row.byte_by_byte;
            assert_eq!(cmp.exhaustive.campaigns(), 12);
            // The SPRT runs are a prefix of the exhaustive ones.
            assert_eq!(cmp.sprt.runs[..], cmp.exhaustive.runs[..cmp.sprt.runs.len()]);
            assert!(cmp.sprt.total_requests() <= cmp.exhaustive.total_requests());
        }
        let rendered = format_population(&rows);
        assert!(rendered.contains("half-half-50/50"), "{rendered}");
        assert!(rendered.contains("12 victim seeds"), "{rendered}");
    }

    #[test]
    fn population_rows_are_worker_count_independent() {
        let ctx = ExperimentCtx::new(5).with_byte_budget(2_600).with_campaign_seeds(5);
        let once = run_population(&ctx.clone().with_workers(1));
        let twice = run_population(&ctx.with_workers(8));
        assert_eq!(once.len(), twice.len());
        for (a, b) in once.iter().zip(&twice) {
            assert_eq!(a.byte_by_byte.sprt.runs, b.byte_by_byte.sprt.runs);
            assert_eq!(a.byte_by_byte.exhaustive.runs, b.byte_by_byte.exhaustive.runs);
        }
    }

    #[test]
    fn fleet_mode_completes_at_scale_and_is_worker_count_independent() {
        let ctx = ExperimentCtx::new(11).with_byte_budget(2_600).with_fleet(100_000);
        let serial = run_population_fleet(&ctx.clone().with_workers(1), 100_000);
        let parallel = run_population_fleet(&ctx.with_workers(8), 100_000);
        assert_eq!(serial.len(), population_fleets().len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.report.runs, b.report.runs, "{}", a.population.label());
            assert_eq!(a.record(), b.record(), "{}", a.population.label());
            assert_eq!(a.report.configured_seeds, 100_000);
            // SPRT settles after a handful of victims; the rest of the
            // fleet is never attacked (or even constructed).
            assert!(a.report.stopped_early(), "{}", a.population.label());
            assert!(a.report.campaigns() < 100, "{}", a.population.label());
        }
    }

    #[test]
    fn fleet_records_export_snapshot_and_shard_counters() {
        use polycanary_core::record::Value;

        let ctx = ExperimentCtx::new(9).with_byte_budget(2_600).with_fleet(10_000);
        let rows = run_population_fleet(&ctx, 10_000);
        let rec = rows[0].record();
        assert_eq!(rec.get("fleet"), Some(&Value::UInt(10_000)));
        assert!(rec.get("shard_size").is_some(), "{rec:?}");
        assert!(rec.get("snapshot_configs").is_some(), "{rec:?}");
        assert!(rec.get("snapshot_reuses").is_some(), "{rec:?}");
        assert!(rec.get("victims_cancelled").is_some(), "{rec:?}");
        let rendered = format_population_fleet(&rows);
        assert!(rendered.contains("10000 victims per fleet"), "{rendered}");
        assert!(rendered.contains("cancelled"), "{rendered}");
    }

    #[test]
    fn population_records_label_the_fleet_mix() {
        use polycanary_core::record::Value;

        let rows =
            run_population(&ExperimentCtx::new(3).with_byte_budget(2_600).with_campaign_seeds(4));
        let rec = rows[0].record();
        assert_eq!(rec.get("population"), Some(&Value::Str("patched-90/10".into())));
        let Some(Value::Record(mix)) = rec.get("population_mix") else {
            panic!("fleet mix must nest: {rec:?}")
        };
        let Some(Value::List(members)) = mix.get("members") else { panic!("members nest") };
        assert_eq!(members.len(), 2);
    }
}
