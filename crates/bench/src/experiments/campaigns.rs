//! The table shape the three campaign scenarios share.
//!
//! [`effectiveness`](super::effectiveness), [`server_attack`](super::server_attack)
//! and [`population`](super::population) are each a table whose **rows are victim fleets**
//! ([`Population`]s) and whose **columns are attack strategies** — a prefix
//! of byte-by-byte, exhaustive (500) and canary reuse.  Scheme rows are
//! uniform fleets deployed the way §VI-C measures them
//! ([`scheme_fleets`]); the mixed-population rows are
//! [`population_fleets`].  One table runner (`run_table`) runs every
//! (fleet, column) cell as a [`Campaign`] on the shared pool, once per stop
//! rule, and `fleet_output` is the one `--fleet` path.  A scenario adds its
//! text, a few record fields and one call to the shared text renderer.
//!
//! A row's key fields follow from its fleet: a uniform fleet exports
//! `scheme` + `deployment`, a mixed one `population` + `population_mix`.

use std::fmt::Write as _;

use polycanary_attacks::campaign::{AttackKind, Campaign, CampaignReport, StopRule};
use polycanary_attacks::population::Population;
use polycanary_attacks::victim::Deployment;
use polycanary_core::record::{Record, Value};
use polycanary_core::scheme::SchemeKind;

use super::{ExperimentCtx, ScenarioOutput};

/// The schemes the effectiveness and server-attack scenarios campaign
/// against (and the scheme axis of the grammar's `matrix` lattice).
pub const EFFECTIVENESS_SCHEMES: &[SchemeKind] = &[
    SchemeKind::Ssp,
    SchemeKind::Pssp,
    SchemeKind::PsspNt,
    SchemeKind::PsspOwf,
    SchemeKind::PsspBin32,
];

/// Default number of independent victim seeds per campaign (the campaign
/// engine's own default, re-exposed under the experiment's name so the
/// two can never drift apart).
pub const EFFECTIVENESS_SEEDS: usize = polycanary_attacks::campaign::DEFAULT_SEEDS;

/// The deployment vehicle §VI-C measures for a scheme: `PsspBin32` *is* the
/// binary-rewriter deployment (an SSP binary upgraded in place, keeping
/// SSP's single 8-byte canary slot), so campaigning it under the compiler
/// would measure the wrong binary; every other scheme ships via its
/// compiler plugin.
pub fn effectiveness_deployment(scheme: SchemeKind) -> Deployment {
    if scheme == SchemeKind::PsspBin32 {
        Deployment::BinaryRewriter
    } else {
        Deployment::Compiler
    }
}

/// The scheme rows: one uniform fleet per [`EFFECTIVENESS_SCHEMES`] entry,
/// under its [`effectiveness_deployment`].
pub fn scheme_fleets() -> Vec<Population> {
    EFFECTIVENESS_SCHEMES
        .iter()
        .map(|&s| Population::uniform(s).with_deployment(effectiveness_deployment(s)))
        .collect()
}

/// The mixed-population rows, from almost-fully patched (attack mostly
/// fails) through an even split (maximally ambiguous) to mostly static
/// (attack mostly succeeds).
pub fn population_fleets() -> Vec<Population> {
    vec![
        Population::mixed("patched-90/10", [(9, SchemeKind::Pssp), (1, SchemeKind::Ssp)]),
        Population::mixed("patched-70/30", [(7, SchemeKind::Pssp), (3, SchemeKind::Ssp)]),
        Population::mixed("half-half-50/50", [(1, SchemeKind::Pssp), (1, SchemeKind::Ssp)]),
        Population::mixed("static-70/30", [(3, SchemeKind::Pssp), (7, SchemeKind::Ssp)]),
    ]
}

/// Record field names of the attack columns, in table order.  A table
/// runs a prefix of them.
const COLUMN_FIELDS: [&str; 3] = ["byte_by_byte", "exhaustive", "reuse"];

/// The strategies behind [`COLUMN_FIELDS`].
pub(crate) fn column_attacks(ctx: &ExperimentCtx) -> [AttackKind; 3] {
    [
        AttackKind::ByteByByte { budget: ctx.byte_budget },
        AttackKind::Exhaustive { budget: 500 },
        AttackKind::Reuse,
    ]
}

/// The stop rules of the comparison scenarios, in record order.
pub(super) fn both_rules() -> [StopRule; 2] {
    [StopRule::sprt(), StopRule::Exhaustive]
}

/// One table cell: an attack column's campaign against one fleet, once per
/// stop rule, in rule order.
pub(crate) type Cell = Vec<CampaignReport>;

/// Runs a campaign table: for every fleet, the first `columns` attack
/// columns, each a [`Campaign`] over `seeds` victims run once per rule in
/// `rules`.  `rules` is either one rule (`[ctx.stop_rule]`) or
/// [`both_rules`]; a cell's record and text follow from which.  Fleet rows
/// fan out over the shared pool and campaign victims over nested workers;
/// every report is deterministic in the context and independent of the
/// worker count.
pub(crate) fn run_table(
    ctx: &ExperimentCtx,
    fleets: &[Population],
    columns: usize,
    seeds: usize,
    rules: &[StopRule],
) -> Vec<Vec<Cell>> {
    let pool = ctx.pool();
    let workers = pool.nested_workers(fleets.len());
    pool.run(fleets, |_, fleet| run_row(ctx, fleet, columns, seeds, rules, workers))
}

/// One row of [`run_table`], its campaigns on `workers` nested workers.
/// Column `i` draws its victims from `ctx.seed ^ i`, so every rule of a
/// cell attacks the same victims.
pub(super) fn run_row(
    ctx: &ExperimentCtx,
    fleet: &Population,
    columns: usize,
    seeds: usize,
    rules: &[StopRule],
    workers: usize,
) -> Vec<Cell> {
    (0u64..)
        .zip(&column_attacks(ctx)[..columns])
        .map(|(i, &attack)| {
            let campaign = Campaign::against(attack, fleet.clone())
                .with_seed_range(ctx.seed ^ i, seeds)
                .with_workers(workers);
            rules.iter().map(|&rule| campaign.clone().with_stop_rule(rule).run()).collect()
        })
        .collect()
}

/// The key fields a row's fleet gives it: `scheme` + `deployment` for a
/// uniform fleet, `population` + `population_mix` for a mixed one.
fn fleet_key(fleet: &Population) -> Record {
    if fleet.is_uniform() {
        let member = fleet.dominant();
        Record::new()
            .field("scheme", member.scheme.name())
            .field("deployment", member.deployment.label())
    } else {
        Record::new().field("population", fleet.label()).field("population_mix", fleet.record())
    }
}

/// A cell's record: the campaign record under one rule; under both, the
/// exhaustive verdict, whether the rules agree, and both campaigns.
fn cell_record(cell: &[CampaignReport]) -> Record {
    match cell {
        [one] => one.record(),
        [sprt, exhaustive] => Record::new()
            .field("verdict", exhaustive.verdict().label())
            .field("verdicts_agree", sprt.verdict() == exhaustive.verdict())
            .field("sprt", sprt.record())
            .field("exhaustive", exhaustive.record()),
        _ => unreachable!("a cell runs one stop rule or both_rules()"),
    }
}

/// A row's record: its [`fleet_key`], then the scenario's `extra` fields,
/// then one [`cell_record`] per attack column.
pub(super) fn row_record(
    fleet: &Population,
    cells: &[Cell],
    extra: Vec<(&'static str, Value)>,
) -> Record {
    let mut record = fleet_key(fleet);
    for (name, value) in extra {
        record.push(name, value);
    }
    for (cell, name) in cells.iter().zip(COLUMN_FIELDS) {
        record.push(name, cell_record(cell));
    }
    record
}

/// Renders one campaign cell: success rate plus the request-count spread.
pub(crate) fn format_campaign_cell(report: &CampaignReport) -> String {
    let rate = format!("{}/{}", report.successes(), report.campaigns());
    match report.success_trial_stats() {
        Some(stats) => format!(
            "breaks {rate}, {:.0}±{:.0} reqs (med {}, p95 {}, max {})",
            stats.mean, stats.std_dev, stats.median, stats.p95, stats.max
        ),
        None => {
            let trials = report.trial_stats().map(|s| s.median).unwrap_or(0);
            format!("fails {rate} (median {trials} reqs)")
        }
    }
}

/// Renders a table cell: [`format_campaign_cell`] under one rule; under
/// both, `verdict victims/connections` per rule as `sprt | exhaustive`,
/// flagged when the verdicts differ.
pub(super) fn cell_text(cell: &[CampaignReport]) -> String {
    let short = |r: &CampaignReport| {
        format!("{} {}v/{}c", r.verdict().label(), r.campaigns(), r.total_requests())
    };
    match cell {
        [one] => format_campaign_cell(one),
        [sprt, exhaustive] => {
            let flag = if sprt.verdict() == exhaustive.verdict() { "" } else { "  (SPRT differs)" };
            format!("{} | {}{flag}", short(sprt), short(exhaustive))
        }
        _ => unreachable!("a cell runs one stop rule or both_rules()"),
    }
}

/// Renders a text table under a one-line caption.  Every column is as wide
/// as its widest entry (heading included), so every cell starts under its
/// heading; columns whose body cells are all numbers align right.
pub(super) fn render_table(caption: &str, headings: &[&str], rows: &[Vec<String>]) -> String {
    let width = |c: usize| {
        rows.iter().map(|row| row[c].chars().count()).fold(headings[c].chars().count(), usize::max)
    };
    let numeric = |c: usize| rows.iter().all(|row| row[c].parse::<f64>().is_ok());
    let layout: Vec<(usize, bool)> = (0..headings.len()).map(|c| (width(c), numeric(c))).collect();
    let mut out = format!("{caption}\n");
    let headings: Vec<String> = headings.iter().map(|h| h.to_string()).collect();
    for row in std::iter::once(&headings).chain(rows) {
        let mut line = String::new();
        for (cell, &(width, right)) in row.iter().zip(&layout) {
            if right {
                let _ = write!(line, "{cell:>width$} ");
            } else {
                let _ = write!(line, "{cell:<width$} ");
            }
        }
        let _ = writeln!(out, "{}", line.trim_end());
    }
    out
}

/// The `--fleet` path of the campaign scenarios: every fleet campaigned
/// with the byte-by-byte attack over `size` lazily drawn victims under
/// [`StopRule::sprt`].  Fleet mode is SPRT-only by design — an exhaustive
/// campaign would attack all 10^5 victims, while the sequential rule's
/// expected sample size stays in the single digits whatever the fleet
/// size, and every attacked victim boots from a shared snapshot.  Each
/// record is the fleet's key plus the campaign's deterministic counters;
/// `unit` names what the fleet size counts in the caption.
pub(crate) fn fleet_output(
    ctx: &ExperimentCtx,
    fleets: &[Population],
    size: usize,
    unit: &str,
) -> ScenarioOutput {
    let rows = run_table(ctx, fleets, 1, size, &[StopRule::sprt()]);
    let uniform = fleets.iter().all(Population::is_uniform);
    let mut headings = if uniform { vec!["Scheme", "deploy"] } else { vec!["Fleet"] };
    headings.extend(["verdict", "attacked", "cancelled", "configs", "reuses"]);
    let (mut records, mut lines) = (Vec::new(), Vec::new());
    for (fleet, cells) in fleets.iter().zip(&rows) {
        let report = &cells[0][0];
        let mut record = fleet_key(fleet);
        record.push("fleet", report.configured_seeds);
        record.push("completed_seeds", report.runs.len());
        record.push("victims_cancelled", report.victims_cancelled());
        record.push("stopped_early", report.stopped_early());
        record.push("verdict", report.verdict().label());
        record.push("success_rate", report.success_rate());
        record.push("total_requests", report.total_requests());
        record.push("shard_size", report.shard_size);
        record.push("snapshot_configs", report.snapshot_configs());
        record.push("snapshot_reuses", report.snapshot_reuses());
        records.push(record);

        let mut line = vec![fleet.label().to_string()];
        if uniform {
            line.push(fleet.dominant().deployment.label().to_string());
        }
        line.push(report.verdict().label().to_string());
        line.extend(
            [
                report.runs.len(),
                report.victims_cancelled(),
                report.snapshot_configs(),
                report.snapshot_reuses(),
            ]
            .map(|n| n.to_string()),
        );
        lines.push(line);
    }
    let caption = format!(
        "SPRT byte-by-byte fleet campaigns over {size} {unit}; snapshots are shared per \
         victim configuration"
    );
    ScenarioOutput::new(render_table(&caption, &headings, &lines), records)
}

/// Helpers the three campaign scenarios' tests share.
#[cfg(test)]
pub(super) mod test_support {
    use polycanary_attacks::campaign::StopRule;
    use polycanary_attacks::population::Population;
    use polycanary_core::record::{Record, Value};

    use super::run_table;
    use crate::experiments::{Experiment, ExperimentCtx};

    /// A context with the given seed, byte budget and campaign width.
    pub fn ctx(seed: u64, budget: u64, seeds: usize) -> ExperimentCtx {
        ExperimentCtx::new(seed).with_byte_budget(budget).with_campaign_seeds(seeds)
    }

    /// The nested record `name` of `record`.
    pub fn nested<'a>(record: &'a Record, name: &str) -> &'a Record {
        match record.get(name) {
            Some(Value::Record(inner)) => inner,
            other => panic!("{name} must nest a record: {other:?}"),
        }
    }

    /// Runs `experiment` over its 10^5-victim `fleets` at 1 and 8 workers
    /// from `seed` and `budget`.  The fleet table's per-victim runs and the
    /// records must match across worker counts, the records must describe
    /// that table, and every fleet must settle early on shared snapshots.
    /// Returns the serial records and text.
    pub fn settle_fleets_at_scale(
        experiment: &dyn Experiment,
        fleets: &[Population],
        seed: u64,
        budget: u64,
    ) -> (Vec<Record>, String) {
        let at = |workers| {
            ExperimentCtx::new(seed)
                .with_byte_budget(budget)
                .with_fleet(100_000)
                .with_workers(workers)
        };
        let table = |workers| run_table(&at(workers), fleets, 1, 100_000, &[StopRule::sprt()]);
        let (table, parallel_table) = (table(1), table(8));
        for (a, b) in table.iter().zip(&parallel_table) {
            assert_eq!(a[0][0].runs, b[0][0].runs, "{}", a[0][0].population.label());
        }
        let serial = experiment.run(&at(1));
        assert_eq!(serial.records, experiment.run(&at(8)).records, "{}", experiment.name());
        assert_eq!(serial.records.len(), fleets.len());
        for (record, row) in serial.records.iter().zip(&table) {
            let count = |name: &str| record.get(name).and_then(Value::as_u64).unwrap_or(0);
            let report = &row[0][0];
            assert_eq!(count("completed_seeds"), report.runs.len() as u64, "{record:?}");
            assert_eq!(count("total_requests"), report.total_requests(), "{record:?}");
            // SPRT settles after a handful of victims and cancels the rest
            // of the fleet; the attacked ones share snapshots.
            assert_eq!(count("fleet"), 100_000, "{record:?}");
            assert_eq!(count("completed_seeds") + count("victims_cancelled"), 100_000);
            assert!(count("completed_seeds") < 100, "{record:?}");
            assert_eq!(record.get("stopped_early"), Some(&Value::Bool(true)));
            assert!(count("shard_size") >= 1 && count("snapshot_configs") >= 1);
            assert_eq!(
                count("snapshot_configs") + count("snapshot_reuses"),
                count("completed_seeds")
            );
        }
        (serial.records, serial.text)
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::ctx;
    use crate::experiments::{Effectiveness, Experiment, MixedPopulation, ServerAttack};

    #[test]
    fn text_tables_align_every_cell_under_its_heading() {
        // Regression: a fixed 12-character label column pushed every cell of
        // the 22-character `P-SSP (binary, 32-bit)` row 10 columns right.
        let small = ctx(3, 2_000, 2);
        for (experiment, ctx) in [
            (&Effectiveness as &dyn Experiment, small.clone()),
            (&ServerAttack, small.clone()),
            (&MixedPopulation, small.clone()),
            (&ServerAttack, small.clone().with_fleet(1_000)),
            (&MixedPopulation, small.with_fleet(1_000)),
        ] {
            let text = experiment.run(&ctx).text;
            let lines: Vec<Vec<char>> = text.lines().skip(1).map(|l| l.chars().collect()).collect();
            let heading = &lines[0];
            let label_end = heading.iter().position(|&c| c == ' ').expect("two headings");
            let first = label_end + heading[label_end..].iter().position(|&c| c != ' ').expect("");
            assert!(lines.len() > 2, "{text}");
            for row in &lines[1..] {
                assert!(
                    row[first - 1] == ' ' && row[first] != ' ',
                    "{}:\n{text}",
                    experiment.name()
                );
            }
        }
    }
}
