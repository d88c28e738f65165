//! §VI-C — attack effectiveness.

use std::time::Duration;

use super::campaigns::{cell_text, render_table, row_record, run_table, scheme_fleets};
use super::{Experiment, ExperimentCtx, ScenarioOutput};

/// The §VI-C scenario: per-scheme campaigns of all three attack strategies.
pub struct Effectiveness;

impl Experiment for Effectiveness {
    fn name(&self) -> &str {
        "effectiveness"
    }

    fn title(&self) -> &str {
        "\u{a7}VI-C: attack effectiveness (byte-by-byte, exhaustive, reuse)"
    }

    fn description(&self) -> &str {
        "Multi-seed byte-by-byte, exhaustive and canary-reuse campaigns \
         against every P-SSP variant"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["attack"]
    }

    fn paper_note(&self) -> &str {
        "the byte-by-byte attack needs ~8·2⁷ ≈ 1024 expected requests to break \
         SSP and never breaks any P-SSP variant; exhaustive guessing is hopeless \
         against everyone at bounded budgets; only P-SSP-OWF survives canary \
         disclosure-and-reuse.  All four claims hold in every seed, not just on \
         average.  The `P-SSP (binary, 32-bit)` row campaigns the binary-rewriter \
         deployment (an SSP binary upgraded in place, keeping the single 8-byte \
         canary slot), so its ~256-request failures reflect the instrumented \
         binary the paper measures."
    }

    /// Every cell runs under [`ExperimentCtx::stop_rule`]: under the SPRT
    /// each campaign ends as soon as its verdict is statistically proven,
    /// spending fewer requests on unanimous cells for the same verdicts.
    fn run(&self, ctx: &ExperimentCtx) -> ScenarioOutput {
        let (fleets, seeds) = (scheme_fleets(), ctx.campaign_seeds.max(1));
        let rows = run_table(ctx, &fleets, 3, seeds, &[ctx.stop_rule]);
        let (mut lines, mut records) = (Vec::new(), Vec::new());
        for (fleet, cells) in fleets.iter().zip(&rows) {
            let wall: Duration = cells.iter().flatten().map(|report| report.wall_time).sum();
            let mut line = vec![fleet.label().to_string()];
            line.extend(cells.iter().map(|cell| cell_text(cell)));
            line.push(format!("{:.1}", wall.as_secs_f64() * 1_000.0));
            lines.push(line);
            records.push(row_record(fleet, cells, vec![]));
        }
        let headings = ["Scheme", "byte-by-byte", "exhaustive (500)", "canary reuse", "wall (ms)"];
        let caption = format!("per-scheme campaigns over {seeds} independent victim seeds");
        ScenarioOutput::new(render_table(&caption, &headings, &lines), records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::campaigns::test_support::{ctx, nested};
    use crate::experiments::campaigns::{both_rules, effectiveness_deployment};
    use polycanary_analysis::scrub::{scrub, scrub_all};
    use polycanary_attacks::campaign::{StopRule, Verdict};
    use polycanary_attacks::server::ForkingServer;
    use polycanary_attacks::victim::{Deployment, VictimConfig};
    use polycanary_core::record::Value;
    use polycanary_core::scheme::SchemeKind;

    #[test]
    fn effectiveness_rows_separate_ssp_from_pssp() {
        let rows =
            run_table(&ctx(11, 4_000, 8), &scheme_fleets()[..2], 3, 8, &[StopRule::Exhaustive]);
        let [ssp, pssp] =
            [&rows[0], &rows[1]].map(|row| row.iter().map(|cell| &cell[0]).collect::<Vec<_>>());
        // The campaign verdicts must hold in *every* seed, not on average.
        assert!(ssp[0].all_succeeded(), "SSP falls in every seed");
        assert!(pssp[0].none_succeeded(), "P-SSP survives every seed");
        assert!(ssp[1].none_succeeded() && pssp[1].none_succeeded());
        assert!(ssp[2].all_succeeded() && pssp[2].all_succeeded());
        // The request-count distribution matches the ~8·2⁷ analysis of §II-B.
        let stats = ssp[0].success_trial_stats().expect("all succeeded");
        assert!(stats.mean > 64.0 && stats.max <= 8 * 256 + 1, "{stats}");
        let text = Effectiveness.run(&ctx(11, 4_000, 8)).text;
        assert!(text.contains("8 independent victim seeds"), "{text}");
        assert!(text.contains("breaks 8/8"), "{text}");
        assert!(text.contains("fails 0/8"), "{text}");
    }

    #[test]
    fn effectiveness_campaigns_are_reproducible_and_worker_independent() {
        let base = ctx(3, 3_000, 4);
        let fleets = &scheme_fleets()[..1];
        let rules = [StopRule::Exhaustive];
        let once = run_table(&base.clone().with_workers(1), fleets, 3, 4, &rules);
        let twice = run_table(&base.clone().with_workers(8), fleets, 3, 4, &rules);
        for (a, b) in once[0].iter().zip(&twice[0]) {
            assert_eq!(a[0].runs, b[0].runs, "{}", a[0].attack);
        }
        // The scenario's records are as reproducible as its table.
        let records =
            |workers| scrub_all(&Effectiveness.run(&base.clone().with_workers(workers)).records);
        assert_eq!(records(1), records(8));
    }

    #[test]
    fn pssp_bin32_effectiveness_campaigns_attack_the_rewritten_binary() {
        // Regression: the §VI-C PsspBin32 row must attack the rewriter
        // deployment, not a compiler-deployed victim.
        assert_eq!(effectiveness_deployment(SchemeKind::PsspBin32), Deployment::BinaryRewriter);
        assert_eq!(effectiveness_deployment(SchemeKind::Pssp), Deployment::Compiler);

        let bin32 = &scheme_fleets()[4..];
        assert_eq!(bin32[0].label(), SchemeKind::PsspBin32.name());
        let rows = run_table(&ctx(3, 2_000, 4), bin32, 3, 4, &[StopRule::Exhaustive]);
        for cell in &rows[0] {
            assert_eq!(cell[0].deployment, Deployment::BinaryRewriter, "{}", cell[0].attack);
        }
        // The campaigned geometry is SSP's single-slot layout: the rewriter
        // keeps one 8-byte canary region (vs 16 for compiler-built P-SSP).
        let byte_by_byte = &rows[0][0][0];
        for run in &byte_by_byte.runs {
            let victim = VictimConfig::new(SchemeKind::PsspBin32, run.seed)
                .with_deployment(Deployment::BinaryRewriter);
            assert_eq!(ForkingServer::new(victim).geometry().canary_region_len, 8);
        }
        // And the rewritten binary still resists the byte-by-byte attack.
        assert!(byte_by_byte.none_succeeded(), "{byte_by_byte:?}");
    }

    #[test]
    fn adaptive_effectiveness_agrees_with_exhaustive_on_verdicts() {
        // Both rules per cell: every cell is unanimous, so the SPRT settles
        // on a 3-victim prefix of the exhaustive runs with the same verdict
        // and strictly fewer requests.
        let rows = run_table(&ctx(5, 3_000, 8), &scheme_fleets()[..2], 3, 8, &both_rules());
        for cell in rows.iter().flatten() {
            let [sprt, full] = [&cell[0], &cell[1]];
            let label = format!("{} {}", full.scheme, full.attack);
            assert_eq!(sprt.stop_rule, StopRule::sprt(), "{label}");
            assert_eq!(sprt.verdict(), full.verdict(), "{label}");
            assert_eq!(sprt.runs[..], full.runs[..3], "{label}");
            assert!(sprt.total_requests() < full.total_requests(), "{label}");
        }
        assert_eq!(rows[0][0][1].verdict(), Verdict::Breaks);
        // Under an SPRT context the scenario exports exactly those SPRT
        // campaigns.
        let adaptive = Effectiveness.run(&ctx(5, 3_000, 8).with_stop_rule(StopRule::sprt()));
        for (record, row) in adaptive.records.iter().zip(&rows) {
            for (column, cell) in ["byte_by_byte", "exhaustive", "reuse"].into_iter().zip(row) {
                assert_eq!(scrub(nested(record, column)), scrub(&cell[0].record()), "{column}");
            }
        }
    }

    #[test]
    fn effectiveness_records_nest_per_seed_runs() {
        // Every cell nests one campaign record with its per-seed runs.
        let records = Effectiveness.run(&ctx(3, 3_000, 4)).records;
        assert_eq!(records[0].get("scheme"), Some(&Value::Str("SSP".into())));
        for column in ["byte_by_byte", "exhaustive", "reuse"] {
            let Some(Value::List(runs)) = nested(&records[0], column).get("runs") else {
                panic!("per-seed runs")
            };
            assert_eq!(runs.len(), 4, "{column}");
        }
    }
}
