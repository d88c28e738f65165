//! Forking-server attack: stop-rule comparison over the reconnect loop (§II).

use polycanary_attacks::server::ForkingServer;
use polycanary_attacks::victim::VictimConfig;
use polycanary_attacks::ByteByByteAttack;

use super::campaigns::{
    both_rules, cell_text, fleet_output, render_table, row_record, run_row, scheme_fleets,
};
use super::{Experiment, ExperimentCtx, ScenarioOutput};

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

    /// The byte-by-byte and exhaustive columns under both stop rules, plus
    /// each scheme's fork-canary policy and the operational counters of one
    /// representative server attacked end to end (`server`).
    fn run(&self, ctx: &ExperimentCtx) -> ScenarioOutput {
        let fleets = scheme_fleets();
        if let Some(size) = ctx.fleet {
            return fleet_output(ctx, &fleets, size, "servers per scheme");
        }
        let seeds = ctx.campaign_seeds.max(1);
        let pool = ctx.pool();
        let workers = pool.nested_workers(fleets.len());
        let rows = pool.run(&fleets, |_, fleet| {
            let cells = run_row(ctx, fleet, 2, seeds, &both_rules(), workers);
            // One representative victim, attacked end to end, for the
            // operational counters of the reconnect loop itself.
            let member = fleet.dominant();
            let mut server = ForkingServer::new(
                VictimConfig::new(member.scheme, ctx.seed ^ 0x5E4E4)
                    .with_deployment(member.deployment),
            );
            let geometry = server.geometry();
            let _ = ByteByByteAttack::with_budget(ctx.byte_budget).run(
                &mut server,
                geometry,
                member.scheme,
            );
            (cells, server.canary_policy().label(), server.stats_record())
        });
        let (mut lines, mut records) = (Vec::new(), Vec::new());
        for (fleet, (cells, policy, stats)) in fleets.iter().zip(rows) {
            let mut line = vec![fleet.label().to_string(), policy.to_string()];
            line.extend(cells.iter().map(|cell| cell_text(cell)));
            lines.push(line);
            let mut record = row_record(fleet, &cells, vec![("fork_canary_policy", policy.into())]);
            record.push("server", stats);
            records.push(record);
        }
        let caption = format!(
            "forking-server campaigns over {seeds} victim seeds; cells are \
             `verdict victims/connections` under sprt | exhaustive"
        );
        let headings = ["Scheme", "Fork canary", "byte-by-byte", "exhaustive (500)"];
        ScenarioOutput::new(render_table(&caption, &headings, &lines), records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::campaigns::test_support::{ctx, nested, settle_fleets_at_scale};
    use crate::experiments::campaigns::EFFECTIVENESS_SCHEMES;
    use polycanary_analysis::scrub::scrub_all;
    use polycanary_core::record::{records_from_json, records_to_json, Record, Value};
    use polycanary_core::scheme::ForkCanaryPolicy;

    #[test]
    fn server_attack_rows_compare_stop_rules_consistently() {
        let ScenarioOutput { text, records } = ServerAttack.run(&ctx(7, 3_000, 6));
        assert_eq!(records.len(), EFFECTIVENESS_SCHEMES.len());
        let field = |record: &Record, name: &str| record.get(name).cloned();
        let [ssp, pssp] = [&records[0], &records[1]];
        assert_eq!(
            field(ssp, "fork_canary_policy"),
            Some(ForkCanaryPolicy::Inherited.label().into())
        );
        assert_eq!(
            field(pssp, "fork_canary_policy"),
            Some(ForkCanaryPolicy::Rerandomized.label().into())
        );
        // Static canaries fall to byte-by-byte, polymorphic ones survive,
        // a bounded exhaustive guess breaks no one, and the rules agree.
        assert_eq!(field(nested(ssp, "byte_by_byte"), "verdict"), Some("breaks".into()));
        for record in &records {
            for column in ["byte_by_byte", "exhaustive"] {
                let cell = nested(record, column);
                assert_eq!(field(cell, "verdicts_agree"), Some(Value::Bool(true)), "{record:?}");
                // SPRT settles unanimous cells after 3 victims, on a prefix
                // of the exhaustive runs, with strictly fewer connections.
                let [sprt, full] = [nested(cell, "sprt"), nested(cell, "exhaustive")];
                assert_eq!(field(sprt, "completed_seeds"), Some(Value::UInt(3)));
                let (Some(Value::List(early)), Some(Value::List(all))) =
                    (sprt.get("runs"), full.get("runs"))
                else {
                    panic!("per-seed runs: {cell:?}")
                };
                assert_eq!(early[..], all[..3], "{record:?}");
                let requests = |r: &Record| r.get("total_requests").and_then(Value::as_u64);
                assert!(requests(sprt) < requests(full), "{record:?}");
            }
            if record != ssp {
                assert_eq!(
                    field(nested(record, "byte_by_byte"), "verdict"),
                    Some("resists".into())
                );
            }
            assert_eq!(field(nested(record, "exhaustive"), "verdict"), Some("resists".into()));
        }
        // The representative server's counters describe the reconnect loop.
        let server = nested(ssp, "server");
        let conns = server.get("connections").and_then(Value::as_u64).unwrap_or(0);
        assert!(conns >= 64, "a byte-by-byte break opens many connections: {conns}");
        assert_eq!(server.get("forks").and_then(Value::as_u64), Some(conns));
        assert_eq!(field(server, "fork_canary_policy"), Some("inherited".into()));

        assert!(text.contains("6 victim seeds"), "{text}");
        assert!(text.contains("breaks 3v"), "{text}");
        assert!(!text.contains("SPRT differs"), "{text}");
    }

    #[test]
    fn server_fleet_mode_settles_every_scheme_at_scale() {
        let fleets = scheme_fleets();
        let (records, text) = settle_fleets_at_scale(&ServerAttack, &fleets, 7, 3_000);
        for (record, fleet) in records.iter().zip(&fleets) {
            // Unanimous fleets settle after three victims on one snapshot.
            let count = |name: &str| record.get(name).and_then(Value::as_u64);
            assert_eq!((count("completed_seeds"), count("snapshot_configs")), (Some(3), Some(1)));
            let deployment = fleet.dominant().deployment.label();
            assert_eq!(record.get("deployment"), Some(&Value::Str(deployment.into())));
        }
        let verdicts: Vec<_> = records.iter().map(|r| r.get("verdict").cloned()).collect();
        assert_eq!(verdicts[0], Some("breaks".into()));
        assert!(verdicts[1..].iter().all(|v| *v == Some("resists".into())), "{verdicts:?}");
        assert!(text.contains("100000 servers per scheme"), "{text}");
        assert!(text.contains("binary-rewriter"), "{text}");
    }

    #[test]
    fn server_attack_is_deterministic_and_self_describing() {
        let once = ServerAttack.run(&ctx(9, 2_500, 4)).records;
        let twice = ServerAttack.run(&ctx(9, 2_500, 4)).records;
        assert_eq!(scrub_all(&once), scrub_all(&twice));

        // The export parses back: nested stop-rule campaigns and per-seed
        // runs survive the JSON round trip.
        let json = records_to_json(&once);
        let parsed = records_from_json(&json).expect("server-attack export parses");
        assert_eq!(records_to_json(&parsed), json);
        let sprt = nested(nested(&parsed[0], "byte_by_byte"), "sprt");
        assert_eq!(sprt.get("stop_rule"), Some(&Value::Str("sprt".into())));
        let Some(Value::List(runs)) = sprt.get("runs") else { panic!("per-seed runs") };
        assert_eq!(Some(runs.len() as u64), sprt.get("completed_seeds").and_then(Value::as_u64));
    }
}
