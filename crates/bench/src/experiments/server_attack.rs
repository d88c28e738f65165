//! Forking-server attack: stop-rule comparison over the reconnect loop (§II).

use std::fmt::Write as _;

use polycanary_attacks::campaign::{AttackKind, Campaign, CampaignReport, StopRule};
use polycanary_attacks::server::ForkingServer;
use polycanary_attacks::victim::{Deployment, VictimConfig};
use polycanary_core::record::Record;
use polycanary_core::scheme::{ForkCanaryPolicy, SchemeKind};

use super::{
    effectiveness_deployment, Experiment, ExperimentCtx, ScenarioOutput, EFFECTIVENESS_SCHEMES,
};

/// The forking-server attack scenario: SPRT vs exhaustive stop rules per
/// scheme × attack cell.
pub struct ServerAttack;

impl Experiment for ServerAttack {
    fn name(&self) -> &str {
        "server-attack"
    }

    fn title(&self) -> &str {
        "Forking-server attack: SPRT vs exhaustive stop rules (\u{a7}II)"
    }

    fn description(&self) -> &str {
        "Reconnect-loop campaigns against forking servers under both stop \
         rules, with verdict-agreement flags and server counters"
    }

    fn paper_note(&self) -> &str {
        "each victim is a long-lived forking server; every byte-guess is one \
         connection served by a freshly forked worker, so the SSP break at \
         ~1000 connections per victim and the polymorphic survivals reproduce \
         the §II-B analysis against the realistic reconnect loop.  Every cell is \
         campaigned under both stop rules: `Exhaustive` attacks every \
         configured victim, and `Sprt` — Wald's sequential probability-ratio \
         test at 5 % error rates — stops after 3 unanimous victims, spending \
         strictly fewer connections on every unanimous cell while always \
         reaching the same verdict."
    }

    fn run(&self, ctx: &ExperimentCtx) -> ScenarioOutput {
        if let Some(fleet) = ctx.fleet {
            let rows = run_server_attack_fleet(ctx, EFFECTIVENESS_SCHEMES, fleet);
            return ScenarioOutput::new(
                format_server_attack_fleet(&rows),
                rows.iter().map(ServerFleetRow::record).collect(),
            );
        }
        let rows = run_server_attack(ctx, EFFECTIVENESS_SCHEMES);
        ScenarioOutput::new(
            format_server_attack(&rows),
            rows.iter().map(ServerAttackRow::record).collect(),
        )
    }
}

/// One attack strategy campaigned under both stop rules against the same
/// victim population, so their verdicts and connection budgets can be
/// compared cell by cell.
#[derive(Debug, Clone)]
pub struct StopRuleComparison {
    /// The campaign under [`StopRule::Sprt`] (Wald sequential test).
    pub sprt: CampaignReport,
    /// The full-budget campaign under [`StopRule::Exhaustive`].
    pub exhaustive: CampaignReport,
}

impl StopRuleComparison {
    /// Campaigns `base` under both stop rules.
    pub fn run(base: &Campaign) -> Self {
        let campaign = |rule: StopRule| base.clone().with_stop_rule(rule).run();
        StopRuleComparison {
            sprt: campaign(StopRule::sprt()),
            exhaustive: campaign(StopRule::Exhaustive),
        }
    }

    /// Whether both rules reached the same verdict (they provably do on
    /// unanimous victim populations; on mixed-rate populations the SPRT may
    /// settle a cell the exhaustive Wilson test calls inconclusive — that
    /// is the indifference region working as designed, within the rule's
    /// error budget).
    pub fn verdicts_agree(&self) -> bool {
        self.sprt.verdict() == self.exhaustive.verdict()
    }

    /// The self-describing record form: one nested campaign record
    /// (including per-seed runs) per stop rule, plus the agreement flag.
    pub fn record(&self) -> Record {
        Record::new()
            .field("verdict", self.exhaustive.verdict().label())
            .field("verdicts_agree", self.verdicts_agree())
            .field("sprt", self.sprt.record())
            .field("exhaustive", self.exhaustive.record())
    }

    /// Renders one per-rule cell as `verdict victims/connections`.
    pub(crate) fn cell(report: &CampaignReport) -> String {
        format!("{} {}v/{}c", report.verdict().label(), report.campaigns(), report.total_requests())
    }
}

/// One row of the forking-server attack experiment: a scheme, its
/// fork-canary policy, and the byte-by-byte / exhaustive-guess campaigns
/// under both stop rules.
#[derive(Debug, Clone)]
pub struct ServerAttackRow {
    /// The scheme protecting every victim server.
    pub scheme: SchemeKind,
    /// Deployment vehicle (binary rewriter for `PsspBin32`).
    pub deployment: Deployment,
    /// Whether forked workers inherit or re-randomize the parent's canaries.
    pub policy: ForkCanaryPolicy,
    /// The BROP-style byte-by-byte attack under both stop rules.
    pub byte_by_byte: StopRuleComparison,
    /// Whole-word exhaustive guessing under both stop rules.
    pub exhaustive: StopRuleComparison,
    /// Operational counters of one representative victim server after a
    /// full byte-by-byte attack: connections served, requests handled,
    /// workers crashed and forks performed.
    pub server: Record,
}

impl ServerAttackRow {
    /// The self-describing record form of this row, for JSON/CSV export.
    pub fn record(&self) -> Record {
        Record::new()
            .field("scheme", self.scheme.name())
            .field("deployment", self.deployment.label())
            .field("fork_canary_policy", self.policy.label())
            .field("byte_by_byte", self.byte_by_byte.record())
            .field("exhaustive", self.exhaustive.record())
            .field("server", self.server.clone())
    }
}

/// Runs the forking-server attack experiment: for every scheme, campaign
/// the byte-by-byte and exhaustive attacks against forking-server victims
/// under both stop rules ([`StopRule::Sprt`], [`StopRule::Exhaustive`])
/// over [`ExperimentCtx::campaign_seeds`] victim
/// seeds derived from the context seed.  Scheme rows fan out over the
/// shared pool; every cell is deterministic in the context and independent
/// of the worker count.
pub fn run_server_attack(ctx: &ExperimentCtx, schemes: &[SchemeKind]) -> Vec<ServerAttackRow> {
    let (seed, seeds) = (ctx.seed, ctx.campaign_seeds.max(1));
    let byte_budget = ctx.byte_budget;
    let pool = ctx.pool();
    let campaign_workers = pool.nested_workers(schemes.len());
    pool.run(schemes, |_, &scheme| {
        let deployment = effectiveness_deployment(scheme);
        let compare = |attack: AttackKind, base: u64| {
            StopRuleComparison::run(
                &Campaign::new(attack, scheme)
                    .with_deployment(deployment)
                    .with_seed_range(base, seeds)
                    .with_workers(campaign_workers),
            )
        };
        let byte_by_byte = compare(AttackKind::ByteByByte { budget: byte_budget }, seed);
        let exhaustive = compare(AttackKind::Exhaustive { budget: 500 }, seed ^ 1);

        // One representative victim, attacked end to end, for the
        // operational counters of the reconnect loop itself.
        let mut server = ForkingServer::new(
            VictimConfig::new(scheme, seed ^ 0x5E4E4).with_deployment(deployment),
        );
        let geometry = server.geometry();
        let _ = polycanary_attacks::ByteByByteAttack::with_budget(byte_budget).run(
            &mut server,
            geometry,
            scheme,
        );
        let policy = server.canary_policy();

        ServerAttackRow {
            scheme,
            deployment,
            policy,
            byte_by_byte,
            exhaustive,
            server: server.stats_record(),
        }
    })
}

/// Renders the forking-server attack experiment: per cell, the verdict
/// plus `v` victims attacked and `c` connections spent, per stop rule.
pub fn format_server_attack(rows: &[ServerAttackRow]) -> String {
    let mut out = String::new();
    let seeds = rows.first().map(|r| r.byte_by_byte.exhaustive.configured_seeds).unwrap_or(0);
    let _ = writeln!(
        out,
        "forking-server campaigns over {seeds} victim seeds; cells are \
         `verdict victims/connections` under sprt | exhaustive"
    );
    let _ = writeln!(
        out,
        "{:<12} {:<13} {:<58} {:<58}",
        "Scheme", "Fork canary", "byte-by-byte", "exhaustive (500)"
    );
    for row in rows {
        let fmt_cmp = |c: &StopRuleComparison| {
            format!(
                "{} | {}{}",
                StopRuleComparison::cell(&c.sprt),
                StopRuleComparison::cell(&c.exhaustive),
                if c.verdicts_agree() { "" } else { "  DISAGREE" }
            )
        };
        let _ = writeln!(
            out,
            "{:<12} {:<13} {:<58} {:<58}",
            row.scheme.name(),
            row.policy.label(),
            fmt_cmp(&row.byte_by_byte),
            fmt_cmp(&row.exhaustive),
        );
    }
    out
}

/// One fleet-mode row: a scheme's whole server fleet campaigned under the
/// SPRT stop rule.  As in the population scenario, fleet mode is
/// SPRT-only: the sequential rule's expected sample size is independent of
/// the fleet size, so the verdict for 10^5 servers costs a handful of
/// victim attacks — every one booted from the scheme's shared VM snapshot.
#[derive(Debug, Clone)]
pub struct ServerFleetRow {
    /// The scheme protecting every server in the fleet.
    pub scheme: SchemeKind,
    /// Deployment vehicle (binary rewriter for `PsspBin32`).
    pub deployment: Deployment,
    /// The SPRT byte-by-byte campaign over the whole fleet.
    pub report: CampaignReport,
}

impl ServerFleetRow {
    /// The self-describing record form of this row — including the
    /// snapshot-reuse and shard counters of the fleet engine.  Every
    /// field is deterministic (worker-count independent).
    pub fn record(&self) -> Record {
        Record::new()
            .field("scheme", self.scheme.name())
            .field("deployment", self.deployment.label())
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

/// Runs the fleet-mode server-attack experiment: for every scheme, one
/// SPRT byte-by-byte campaign over `fleet_size` victim servers (each a
/// distinct seed of the scheme's effectiveness deployment).  Unanimous
/// scheme fleets settle after three victims, so fleets of 10^5+ servers
/// complete in seconds with byte-identical reports at any worker count.
pub fn run_server_attack_fleet(
    ctx: &ExperimentCtx,
    schemes: &[SchemeKind],
    fleet_size: usize,
) -> Vec<ServerFleetRow> {
    let (seed, byte_budget) = (ctx.seed, ctx.byte_budget);
    let pool = ctx.pool();
    let campaign_workers = pool.nested_workers(schemes.len());
    pool.run(schemes, |_, &scheme| {
        let deployment = effectiveness_deployment(scheme);
        ServerFleetRow {
            scheme,
            deployment,
            report: Campaign::new(AttackKind::ByteByByte { budget: byte_budget }, scheme)
                .with_deployment(deployment)
                .with_seed_range(seed, fleet_size)
                .with_stop_rule(StopRule::sprt())
                .with_workers(campaign_workers)
                .run(),
        }
    })
}

/// Renders the fleet-mode server-attack experiment: per scheme, the SPRT
/// verdict, how few of the fleet's servers were actually attacked, and
/// the snapshot reuse behind them.
pub fn format_server_attack_fleet(rows: &[ServerFleetRow]) -> String {
    let mut out = String::new();
    let fleet = rows.first().map(|r| r.report.configured_seeds).unwrap_or(0);
    let _ = writeln!(
        out,
        "SPRT byte-by-byte fleet campaigns over {fleet} servers per scheme; \
         snapshots are shared per victim configuration"
    );
    let _ = writeln!(
        out,
        "{:<12} {:<10} {:>12} {:>10} {:>12} {:>10} {:>10}",
        "Scheme", "deploy", "verdict", "attacked", "cancelled", "configs", "reuses"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<12} {:<10} {:>12} {:>10} {:>12} {:>10} {:>10}",
            row.scheme.name(),
            row.deployment.label(),
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
    use polycanary_attacks::campaign::Verdict;

    fn ctx(seed: u64, budget: u64, seeds: usize) -> ExperimentCtx {
        ExperimentCtx::new(seed).with_byte_budget(budget).with_campaign_seeds(seeds)
    }

    #[test]
    fn server_attack_rows_compare_stop_rules_consistently() {
        use polycanary_core::record::Value;

        let rows = run_server_attack(&ctx(7, 3_000, 6), &[SchemeKind::Ssp, SchemeKind::Pssp]);
        let ssp = &rows[0];
        let pssp = &rows[1];

        // Static canaries fall to byte-by-byte, polymorphic ones survive,
        // and both stop rules agree on both.
        assert_eq!(ssp.byte_by_byte.exhaustive.verdict(), Verdict::Breaks);
        assert_eq!(pssp.byte_by_byte.exhaustive.verdict(), Verdict::Resists);
        assert_eq!(ssp.policy, ForkCanaryPolicy::Inherited);
        assert_eq!(pssp.policy, ForkCanaryPolicy::Rerandomized);
        for row in &rows {
            assert!(row.byte_by_byte.verdicts_agree(), "{}", row.scheme);
            assert!(row.exhaustive.verdicts_agree(), "{}", row.scheme);
            // SPRT settles unanimous cells after 3 victims, on a prefix of
            // the exhaustive runs, with strictly fewer connections.
            for cmp in [&row.byte_by_byte, &row.exhaustive] {
                assert_eq!(cmp.sprt.campaigns(), 3, "{}", row.scheme);
                assert_eq!(cmp.sprt.runs[..], cmp.exhaustive.runs[..3], "{}", row.scheme);
                assert!(
                    cmp.sprt.total_requests() < cmp.exhaustive.total_requests(),
                    "{}",
                    row.scheme
                );
            }
            // A bounded exhaustive guess never breaks either scheme.
            assert_eq!(row.exhaustive.exhaustive.verdict(), Verdict::Resists, "{}", row.scheme);
        }

        // The representative server's counters describe the reconnect loop.
        let conns = ssp.server.get("connections").and_then(Value::as_u64).unwrap();
        assert!(conns >= 64, "a byte-by-byte break opens many connections: {conns}");
        assert_eq!(ssp.server.get("forks").and_then(Value::as_u64), Some(conns));
        assert_eq!(ssp.server.get("fork_canary_policy"), Some(&Value::Str("inherited".into())));

        let rendered = format_server_attack(&rows);
        assert!(rendered.contains("6 victim seeds"), "{rendered}");
        assert!(rendered.contains("breaks 3v"), "{rendered}");
        assert!(!rendered.contains("DISAGREE"), "{rendered}");
    }

    #[test]
    fn server_fleet_mode_settles_every_scheme_at_scale() {
        use polycanary_core::record::Value;

        let base = ExperimentCtx::new(7).with_byte_budget(3_000).with_fleet(100_000);
        let schemes = [SchemeKind::Ssp, SchemeKind::Pssp, SchemeKind::PsspBin32];
        let serial = run_server_attack_fleet(&base.clone().with_workers(1), &schemes, 100_000);
        let parallel = run_server_attack_fleet(&base.with_workers(8), &schemes, 100_000);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.report.runs, b.report.runs, "{}", a.scheme);
            assert_eq!(a.record(), b.record(), "{}", a.scheme);
        }

        // Unanimous fleets settle after three victims; one snapshot covers
        // every attacked server of a scheme.
        let ssp = &serial[0];
        assert_eq!(ssp.report.verdict(), Verdict::Breaks);
        let pssp = &serial[1];
        assert_eq!(pssp.report.verdict(), Verdict::Resists);
        let rewritten = &serial[2];
        assert_eq!(rewritten.deployment, Deployment::BinaryRewriter);
        for row in &serial {
            assert_eq!(row.report.configured_seeds, 100_000, "{}", row.scheme);
            assert_eq!(row.report.campaigns(), 3, "{}", row.scheme);
            assert_eq!(row.report.victims_cancelled(), 99_997, "{}", row.scheme);
            assert_eq!(row.report.snapshot_configs(), 1, "{}", row.scheme);
            assert_eq!(row.report.snapshot_reuses(), 2, "{}", row.scheme);
            let rec = row.record();
            assert_eq!(rec.get("fleet"), Some(&Value::UInt(100_000)));
            assert_eq!(rec.get("snapshot_configs"), Some(&Value::UInt(1)));
        }
        let rendered = format_server_attack_fleet(&serial);
        assert!(rendered.contains("100000 servers per scheme"), "{rendered}");
        assert!(rendered.contains("rewriter"), "{rendered}");
    }

    #[test]
    fn server_attack_is_deterministic_and_self_describing() {
        use polycanary_core::record::{records_from_json, records_to_json, Value};

        let once = run_server_attack(&ctx(9, 2_500, 4), &[SchemeKind::Ssp]);
        let twice = run_server_attack(&ctx(9, 2_500, 4), &[SchemeKind::Ssp]);
        assert_eq!(once[0].byte_by_byte.exhaustive.runs, twice[0].byte_by_byte.exhaustive.runs);
        assert_eq!(once[0].server, twice[0].server);

        // The export parses back: nested stop-rule campaigns and per-seed
        // runs survive the JSON round trip.
        let json = records_to_json(&once.iter().map(ServerAttackRow::record).collect::<Vec<_>>());
        let parsed = records_from_json(&json).expect("server-attack export parses");
        let Some(Value::Record(byte)) = parsed[0].get("byte_by_byte") else {
            panic!("nested comparison record: {parsed:?}")
        };
        let Some(Value::Record(sprt)) = byte.get("sprt") else { panic!("nested sprt campaign") };
        assert_eq!(sprt.get("stop_rule"), Some(&Value::Str("sprt".into())));
        let Some(Value::List(runs)) = sprt.get("runs") else { panic!("per-seed runs") };
        assert_eq!(runs.len() as u64, once[0].byte_by_byte.sprt.campaigns());
    }
}
