//! Mixed-population campaigns: partially patched fleets (beyond the paper).

use super::campaigns::{
    both_rules, cell_text, fleet_output, population_fleets, render_table, row_record, run_table,
};
use super::{Experiment, ExperimentCtx, ScenarioOutput};

/// The mixed-population scenario.
///
/// Every paper table campaigns a *unanimous* fleet, whose empirical success
/// rate is 0 or 1 — the easiest case for any stop rule.  This scenario
/// attacks weighted mixes of patched (P-SSP) and static-canary (SSP)
/// servers, producing in-between success rates that genuinely exercise the
/// sequential rule — SPRT's 0.2/0.8 indifference region and its α/β error
/// budget — against the exhaustive Wilson test's inconclusive band around
/// 1/2.
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

    /// The byte-by-byte column under both stop rules, plus the exhaustive
    /// campaign's empirical success rate — the ground truth the SPRT
    /// approximates.  A unanimous cell is characterized by any handful of
    /// victims; a mixed fleet needs enough independent draws for its
    /// empirical rate to resemble the configured weights, so this scenario
    /// doubles the configured campaign width.
    fn run(&self, ctx: &ExperimentCtx) -> ScenarioOutput {
        let fleets = population_fleets();
        if let Some(size) = ctx.fleet {
            return fleet_output(ctx, &fleets, size, "victims per fleet");
        }
        let seeds = ctx.campaign_seeds.max(1) * 2;
        let rows = run_table(ctx, &fleets, 1, seeds, &both_rules());
        let (mut lines, mut records) = (Vec::new(), Vec::new());
        for (fleet, cells) in fleets.iter().zip(&rows) {
            let rate = cells[0][1].success_rate();
            let mut line = vec![fleet.label().to_string(), format!("{rate:.2}")];
            line.extend(cells.iter().map(|cell| cell_text(cell)));
            lines.push(line);
            records.push(row_record(fleet, cells, vec![("exhaustive_success_rate", rate.into())]));
        }
        let caption = format!(
            "byte-by-byte campaigns against mixed fleets over {seeds} victim seeds; \
             cells are `verdict victims/connections` under sprt | exhaustive"
        );
        ScenarioOutput::new(
            render_table(&caption, &["Fleet", "rate", "byte-by-byte"], &lines),
            records,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::campaigns::test_support::{ctx, nested, settle_fleets_at_scale};
    use polycanary_analysis::scrub::{scrub, scrub_all};
    use polycanary_core::record::Value;

    #[test]
    fn population_rows_cover_the_configured_fleets() {
        let output = MixedPopulation.run(&ctx(7, 2_600, 6));
        let rows = run_table(&ctx(7, 2_600, 6), &population_fleets(), 1, 12, &both_rules());
        assert_eq!(output.records.len(), population_fleets().len());
        for (record, row) in output.records.iter().zip(&rows) {
            // Mixed fleets run twice the configured campaign width, and the
            // scenario's records are exactly the table's.
            let [sprt, full] = [&row[0][0], &row[0][1]];
            assert!(!full.population.is_uniform(), "{}", full.population.label());
            assert_eq!(full.campaigns(), 12);
            let rate = ("exhaustive_success_rate", full.success_rate().into());
            assert_eq!(scrub(record), scrub(&row_record(&full.population, row, vec![rate])));
            // The SPRT runs are a prefix of the exhaustive ones.
            assert_eq!(sprt.runs[..], full.runs[..sprt.runs.len()]);
            assert!(sprt.total_requests() <= full.total_requests());
        }
        assert!(output.text.contains("half-half-50/50"), "{}", output.text);
        assert!(output.text.contains("12 victim seeds"), "{}", output.text);
    }

    #[test]
    fn population_rows_are_worker_count_independent() {
        let base = ctx(5, 2_600, 5);
        let fleets = population_fleets();
        let once = run_table(&base.clone().with_workers(1), &fleets, 1, 10, &both_rules());
        let twice = run_table(&base.clone().with_workers(8), &fleets, 1, 10, &both_rules());
        for (a, b) in once.iter().zip(&twice) {
            assert_eq!(a[0][0].runs, b[0][0].runs, "{}", a[0][0].population.label());
            assert_eq!(a[0][1].runs, b[0][1].runs, "{}", a[0][1].population.label());
        }
        let records =
            |workers| scrub_all(&MixedPopulation.run(&base.clone().with_workers(workers)).records);
        assert_eq!(records(1), records(8));
    }

    #[test]
    fn fleet_mode_completes_at_scale_and_is_worker_count_independent() {
        let (records, text) =
            settle_fleets_at_scale(&MixedPopulation, &population_fleets(), 11, 2_600);
        for (record, fleet) in records.iter().zip(population_fleets()) {
            assert_eq!(record.get("population"), Some(&Value::Str(fleet.label().into())));
        }
        assert!(text.contains("100000 victims per fleet"), "{text}");
    }

    #[test]
    fn fleet_records_export_snapshot_and_shard_counters() {
        let ctx = ExperimentCtx::new(9).with_byte_budget(2_600).with_fleet(10_000);
        let output = MixedPopulation.run(&ctx);
        let rec = &output.records[0];
        assert_eq!(rec.get("fleet"), Some(&Value::UInt(10_000)));
        for counter in ["shard_size", "snapshot_configs", "snapshot_reuses", "victims_cancelled"] {
            assert!(rec.get(counter).is_some(), "{counter}: {rec:?}");
        }
        assert!(output.text.contains("10000 victims per fleet"), "{}", output.text);
        assert!(output.text.contains("cancelled"), "{}", output.text);
    }

    #[test]
    fn population_records_label_the_fleet_mix() {
        // Mixed fleets are keyed by their label and member mix.
        let records = MixedPopulation.run(&ctx(3, 2_600, 4)).records;
        assert_eq!(records[0].get("population"), Some(&Value::Str("patched-90/10".into())));
        let Some(Value::List(members)) = nested(&records[0], "population_mix").get("members")
        else {
            panic!("members nest")
        };
        assert_eq!(members.len(), 2);
    }
}
