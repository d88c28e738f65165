//! §VI-C — attack effectiveness.

use std::fmt::Write as _;

use polycanary_attacks::campaign::{AttackKind, Campaign, CampaignReport};
use polycanary_attacks::victim::Deployment;
use polycanary_core::record::Record;
use polycanary_core::scheme::SchemeKind;

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

    fn run(&self, ctx: &ExperimentCtx) -> ScenarioOutput {
        let rows = run_effectiveness(ctx, EFFECTIVENESS_SCHEMES);
        ScenarioOutput::new(
            format_effectiveness(&rows),
            rows.iter().map(EffectivenessRow::record).collect(),
        )
    }
}

/// The schemes the registered effectiveness and server-attack scenarios
/// campaign against.
pub const EFFECTIVENESS_SCHEMES: &[SchemeKind] = &[
    SchemeKind::Ssp,
    SchemeKind::Pssp,
    SchemeKind::PsspNt,
    SchemeKind::PsspOwf,
    SchemeKind::PsspBin32,
];

/// Result of the effectiveness experiment for one scheme: one multi-seed
/// campaign per attack strategy.
#[derive(Debug, Clone)]
pub struct EffectivenessRow {
    /// The scheme under attack.
    pub scheme: SchemeKind,
    /// Byte-by-byte campaign over all victim seeds.
    pub byte_by_byte: CampaignReport,
    /// Exhaustive campaign (bounded budget) over all victim seeds.
    pub exhaustive: CampaignReport,
    /// Canary-reuse campaign over all victim seeds.
    pub reuse: CampaignReport,
}

impl EffectivenessRow {
    /// The self-describing record form of this row — one nested campaign
    /// record (including per-seed runs) per attack strategy.
    pub fn record(&self) -> Record {
        Record::new()
            .field("scheme", self.scheme.name())
            .field("deployment", self.byte_by_byte.deployment.label())
            .field("byte_by_byte", self.byte_by_byte.record())
            .field("exhaustive", self.exhaustive.record())
            .field("reuse", self.reuse.record())
    }
}

/// Default number of independent victim seeds per effectiveness campaign
/// (the campaign engine's own default, re-exposed under the experiment's
/// name so the two can never drift apart).
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

/// Runs the §VI-C effectiveness experiment for the given schemes.
///
/// Every (scheme, attack) cell is a [`Campaign`] over
/// [`ExperimentCtx::campaign_seeds`] independent victim seeds derived from
/// the context seed, fanned out over the shared pool (scheme rows in
/// parallel, campaign seeds on nested workers), so the reported numbers are
/// a distribution rather than a single-seed anecdote.  Under the SPRT
/// [`ExperimentCtx::stop_rule`] each campaign ends as soon as its verdict
/// is statistically proven, spending strictly fewer requests on unanimous
/// cells while reaching the same verdicts as the exhaustive run.
pub fn run_effectiveness(ctx: &ExperimentCtx, schemes: &[SchemeKind]) -> Vec<EffectivenessRow> {
    let (seed, seeds) = (ctx.seed, ctx.campaign_seeds.max(1));
    let pool = ctx.pool();
    let campaign_workers = pool.nested_workers(schemes.len());
    pool.run(schemes, |_, &scheme| {
        let campaign = |attack: AttackKind, base: u64| {
            Campaign::new(attack, scheme)
                .with_deployment(effectiveness_deployment(scheme))
                .with_seed_range(base, seeds)
                .with_stop_rule(ctx.stop_rule)
                .with_workers(campaign_workers)
                .run()
        };
        EffectivenessRow {
            scheme,
            byte_by_byte: campaign(AttackKind::ByteByByte { budget: ctx.byte_budget }, seed),
            exhaustive: campaign(AttackKind::Exhaustive { budget: 500 }, seed ^ 1),
            reuse: campaign(AttackKind::Reuse, seed ^ 2),
        }
    })
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

/// Renders the effectiveness experiment.
pub fn format_effectiveness(rows: &[EffectivenessRow]) -> String {
    let mut out = String::new();
    let seeds = rows.first().map(|r| r.byte_by_byte.configured_seeds as u64).unwrap_or(0);
    let _ = writeln!(out, "per-scheme campaigns over {seeds} independent victim seeds");
    let _ = writeln!(
        out,
        "{:<12} {:<52} {:<34} {:<30} {:>10}",
        "Scheme", "byte-by-byte", "exhaustive (500)", "canary reuse", "wall (ms)"
    );
    for row in rows {
        let wall_ms = (row.byte_by_byte.wall_time + row.exhaustive.wall_time + row.reuse.wall_time)
            .as_secs_f64()
            * 1_000.0;
        let _ = writeln!(
            out,
            "{:<12} {:<52} {:<34} {:<30} {:>10.1}",
            row.scheme.name(),
            format_campaign_cell(&row.byte_by_byte),
            format_campaign_cell(&row.exhaustive),
            format_campaign_cell(&row.reuse),
            wall_ms
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use polycanary_attacks::campaign::{StopRule, Verdict};

    fn ctx(seed: u64, budget: u64, seeds: usize) -> ExperimentCtx {
        ExperimentCtx::new(seed).with_byte_budget(budget).with_campaign_seeds(seeds)
    }

    #[test]
    fn effectiveness_rows_separate_ssp_from_pssp() {
        let rows = run_effectiveness(&ctx(11, 4_000, 8), &[SchemeKind::Ssp, SchemeKind::Pssp]);
        let ssp = &rows[0];
        let pssp = &rows[1];
        // The campaign verdicts must hold in *every* seed, not on average.
        assert!(ssp.byte_by_byte.all_succeeded(), "SSP falls in every seed");
        assert!(pssp.byte_by_byte.none_succeeded(), "P-SSP survives every seed");
        assert!(ssp.exhaustive.none_succeeded() && pssp.exhaustive.none_succeeded());
        assert!(ssp.reuse.all_succeeded() && pssp.reuse.all_succeeded());
        // The request-count distribution matches the ~8·2⁷ analysis of §II-B.
        let stats = ssp.byte_by_byte.success_trial_stats().expect("all succeeded");
        assert!(stats.mean > 64.0 && stats.max <= 8 * 256 + 1, "{stats}");
        let rendered = format_effectiveness(&rows);
        assert!(rendered.contains("8 independent victim seeds"));
        assert!(rendered.contains("breaks 8/8"));
        assert!(rendered.contains("fails 0/8"));
    }

    #[test]
    fn effectiveness_campaigns_are_reproducible_and_worker_independent() {
        let base = ctx(3, 3_000, 4);
        let once = run_effectiveness(&base.clone().with_workers(1), &[SchemeKind::Ssp]);
        let twice = run_effectiveness(&base.with_workers(8), &[SchemeKind::Ssp]);
        assert_eq!(once[0].byte_by_byte.runs, twice[0].byte_by_byte.runs);
        assert_eq!(once[0].exhaustive.runs, twice[0].exhaustive.runs);
        assert_eq!(once[0].reuse.runs, twice[0].reuse.runs);
    }

    #[test]
    fn pssp_bin32_effectiveness_campaigns_attack_the_rewritten_binary() {
        use polycanary_attacks::victim::{ForkingServer, VictimConfig};

        // Regression: the §VI-C PsspBin32 row must attack the rewriter
        // deployment, not a compiler-deployed victim.
        assert_eq!(effectiveness_deployment(SchemeKind::PsspBin32), Deployment::BinaryRewriter);
        assert_eq!(effectiveness_deployment(SchemeKind::Pssp), Deployment::Compiler);

        let rows = run_effectiveness(&ctx(3, 2_000, 4), &[SchemeKind::PsspBin32]);
        let row = &rows[0];
        for report in [&row.byte_by_byte, &row.exhaustive, &row.reuse] {
            assert_eq!(report.deployment, Deployment::BinaryRewriter, "{}", report.attack);
        }
        // The campaigned geometry is SSP's single-slot layout: the rewriter
        // keeps one 8-byte canary region (vs 16 for compiler-built P-SSP).
        for run in &row.byte_by_byte.runs {
            let victim = VictimConfig::new(SchemeKind::PsspBin32, run.seed)
                .with_deployment(Deployment::BinaryRewriter);
            assert_eq!(ForkingServer::new(victim).geometry().canary_region_len, 8);
        }
        // And the rewritten binary still resists the byte-by-byte attack.
        assert!(row.byte_by_byte.none_succeeded(), "{:?}", row.byte_by_byte);
    }

    #[test]
    fn adaptive_effectiveness_agrees_with_exhaustive_on_verdicts() {
        let schemes = [SchemeKind::Ssp, SchemeKind::Pssp];
        let exhaustive = run_effectiveness(&ctx(5, 3_000, 8), &schemes);
        let adaptive =
            run_effectiveness(&ctx(5, 3_000, 8).with_stop_rule(StopRule::sprt()), &schemes);
        for (e, a) in exhaustive.iter().zip(&adaptive) {
            for (full, early) in [
                (&e.byte_by_byte, &a.byte_by_byte),
                (&e.exhaustive, &a.exhaustive),
                (&e.reuse, &a.reuse),
            ] {
                assert_eq!(full.verdict(), early.verdict(), "{} {}", e.scheme, full.attack);
                // Every cell is unanimous: SPRT settles on a 3-victim prefix.
                assert_eq!(early.runs[..], full.runs[..3], "{} {}", e.scheme, full.attack);
            }
        }
        assert_eq!(exhaustive[0].byte_by_byte.verdict(), Verdict::Breaks);
        // Unanimous cells settle after three victims, so the adaptive run
        // spends strictly fewer requests.
        let requests = |rows: &[EffectivenessRow]| -> u64 {
            rows.iter()
                .map(|r| {
                    r.byte_by_byte.total_requests()
                        + r.exhaustive.total_requests()
                        + r.reuse.total_requests()
                })
                .sum()
        };
        assert!(requests(&adaptive) < requests(&exhaustive));
    }

    #[test]
    fn effectiveness_records_nest_per_seed_runs() {
        use polycanary_core::record::Value;

        let eff = run_effectiveness(&ctx(3, 3_000, 4), &[SchemeKind::Ssp]);
        let rec = eff[0].record();
        let Some(Value::Record(byte)) = rec.get("byte_by_byte") else {
            panic!("nested campaign record: {rec:?}")
        };
        let Some(Value::List(runs)) = byte.get("runs") else { panic!("per-seed runs") };
        assert_eq!(runs.len(), 4);
    }
}
