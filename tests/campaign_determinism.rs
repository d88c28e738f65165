//! Determinism guarantees of the attack-campaign engine, exercised through
//! the `polycanary` facade:
//!
//! * the same victim seed and the same attack always produce the identical
//!   request count and outcome,
//! * a [`Campaign`] report does not depend on how many worker threads drain
//!   the work queue,
//! * seed derivation is stable, so written-down experiment configurations
//!   stay replayable.

use polycanary::attacks::{AttackKind, Campaign, Deployment, ForkingServer, VictimConfig};
use polycanary::attacks::{ByteByByteAttack, CampaignReport, StopRule, Verdict};
use polycanary::core::SchemeKind;

fn byte_campaign(scheme: SchemeKind, workers: usize) -> CampaignReport {
    Campaign::new(AttackKind::ByteByByte { budget: 3_000 }, scheme)
        .with_seed_range(0xFACADE, 8)
        .with_workers(workers)
        .run()
}

#[test]
fn same_seed_same_attack_same_request_count_and_outcome() {
    for scheme in [SchemeKind::Ssp, SchemeKind::Pssp] {
        let run = |_: u32| {
            let mut server = ForkingServer::new(VictimConfig::new(scheme, 0x5EED));
            let geometry = server.geometry();
            ByteByByteAttack::with_budget(3_000).run(&mut server, geometry, scheme)
        };
        let first = run(0);
        let second = run(1);
        assert_eq!(first.trials, second.trials, "{scheme}: request counts must match");
        assert_eq!(first.success, second.success, "{scheme}: outcomes must match");
        assert_eq!(first, second, "{scheme}: full results must be identical");
    }
}

#[test]
fn campaign_report_is_independent_of_worker_count() {
    for scheme in [SchemeKind::Ssp, SchemeKind::Pssp] {
        let serial = byte_campaign(scheme, 1);
        let two = byte_campaign(scheme, 2);
        let many = byte_campaign(scheme, 16);
        assert_eq!(serial.runs, two.runs, "{scheme}: 1 vs 2 workers");
        assert_eq!(serial.runs, many.runs, "{scheme}: 1 vs 16 workers");
        assert_eq!(serial.success_rate(), many.success_rate());
        assert_eq!(serial.trial_stats(), many.trial_stats());
    }
}

#[test]
fn campaign_runs_preserve_seed_order() {
    let report = byte_campaign(SchemeKind::Ssp, 4);
    let campaign = Campaign::new(AttackKind::ByteByByte { budget: 3_000 }, SchemeKind::Ssp)
        .with_seed_range(0xFACADE, 8);
    let expected: Vec<u64> = campaign.seeds();
    let observed: Vec<u64> = report.runs.iter().map(|r| r.seed).collect();
    assert_eq!(observed, expected, "report order must follow seed order, not finish order");
}

#[test]
fn rewriter_deployment_campaigns_are_worker_count_independent() {
    // The §VI-C PsspBin32 cell attacks rewriter-deployed victims; its
    // campaign reports must obey the same determinism guarantees as the
    // compiler-deployed ones.
    let base = Campaign::new(AttackKind::ByteByByte { budget: 2_000 }, SchemeKind::PsspBin32)
        .with_deployment(Deployment::BinaryRewriter)
        .with_seed_range(0xB1432, 6);
    let serial = base.clone().with_workers(1).run();
    let parallel = base.clone().with_workers(4).run();
    assert_eq!(serial.runs, parallel.runs);
    assert_eq!(serial.deployment, Deployment::BinaryRewriter);
    assert!(serial.none_succeeded(), "rewritten binaries resist byte-by-byte: {serial:?}");
    // The campaigned victims keep SSP's single-slot layout (8-byte canary
    // region) — the rewriter upgrades the binary in place.
    for seed in base.seeds() {
        let geometry = ForkingServer::new(base.victim_config(seed)).geometry();
        assert_eq!(geometry.canary_region_len, 8, "seed {seed:#x}");
    }
}

#[test]
fn adaptive_stop_rules_preserve_determinism_and_verdicts() {
    let base = Campaign::new(AttackKind::ByteByByte { budget: 3_000 }, SchemeKind::Ssp)
        .with_seed_range(0xADA9, 12)
        .with_stop_rule(StopRule::sprt());
    let serial = base.clone().with_workers(1).run();
    let parallel = base.clone().with_workers(8).run();
    assert_eq!(serial.runs, parallel.runs, "early stopping must not depend on worker count");
    assert_eq!(serial.campaigns(), 3, "unanimous SSP breaks settle after 3 of 12 seeds");

    // The adaptive run reaches the exhaustive verdict with strictly fewer
    // total requests, and its runs are a prefix of the exhaustive ones.
    let exhaustive = base.clone().with_stop_rule(StopRule::Exhaustive).with_workers(2).run();
    assert_eq!(serial.verdict(), Verdict::Breaks);
    assert_eq!(serial.verdict(), exhaustive.verdict());
    assert!(serial.total_requests() < exhaustive.total_requests());
    assert_eq!(serial.runs[..], exhaustive.runs[..serial.runs.len()]);
}

#[test]
fn explicit_seed_lists_are_honoured_verbatim() {
    let seeds = [3u64, 1, 4, 1, 5]; // duplicates allowed
    let report =
        Campaign::new(AttackKind::Reuse, SchemeKind::Ssp).with_seeds(seeds).with_workers(3).run();
    assert_eq!(report.runs.iter().map(|r| r.seed).collect::<Vec<_>>(), seeds.to_vec());
    // Identical seeds must yield identical results.
    assert_eq!(report.runs[1].result, report.runs[3].result);
}
