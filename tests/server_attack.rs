//! The forking-server attack battery (§II threat model, end to end):
//!
//! * forking-server campaigns are deterministic in the seed list and
//!   independent of the worker count, under every stop rule including
//!   [`StopRule::Sprt`],
//! * static-canary servers fall to the byte-by-byte attack while
//!   polymorphic schemes survive ≥ 64 forked connections,
//! * `Sprt` and `Exhaustive` reach the same verdict on every scheme ×
//!   attack cell, with `Sprt` settling unanimous cells after 3 victims — a
//!   prefix of the exhaustive runs — for strictly fewer connections
//!   (checked both on the full grid and on PRNG-generated campaign
//!   configurations),
//! * `fork_return_correctness` is pinned per scheme across 16 seeds.

use polycanary::attacks::{
    AttackKind, ByteByByteAttack, Campaign, CampaignReport, ForkingServer, StopRule, Verdict,
    VictimConfig,
};
use polycanary::core::{ForkCanaryPolicy, SchemeKind};
use polycanary::crypto::{Prng, Xoshiro256StarStar};

/// Every attack kind a campaign can replay, with test-sized budgets.
const ATTACKS: [AttackKind; 3] = [
    AttackKind::ByteByByte { budget: 1_500 },
    AttackKind::Exhaustive { budget: 150 },
    AttackKind::Reuse,
];

fn campaign(attack: AttackKind, scheme: SchemeKind, rule: StopRule) -> CampaignReport {
    Campaign::new(attack, scheme).with_seed_range(0x5E44E4, 5).with_stop_rule(rule).run()
}

#[test]
fn server_campaigns_are_deterministic_in_the_seed_list() {
    for rule in [StopRule::Exhaustive, StopRule::sprt()] {
        let attack = AttackKind::ByteByByte { budget: 2_000 };
        let once = campaign(attack, SchemeKind::Ssp, rule);
        let twice = campaign(attack, SchemeKind::Ssp, rule);
        assert_eq!(once.runs, twice.runs, "{}", rule.label());
        assert_eq!(once.verdict(), twice.verdict());
        // The report order is the configured seed order.
        let expected: Vec<u64> = Campaign::new(attack, SchemeKind::Ssp)
            .with_seed_range(0x5E44E4, 5)
            .seeds()
            .iter()
            .copied()
            .take(once.runs.len())
            .collect();
        let observed: Vec<u64> = once.runs.iter().map(|r| r.seed).collect();
        assert_eq!(observed, expected, "{}", rule.label());
    }
}

#[test]
fn server_campaigns_are_independent_of_worker_count() {
    for rule in [StopRule::Exhaustive, StopRule::sprt()] {
        for scheme in [SchemeKind::Ssp, SchemeKind::Pssp] {
            let base = Campaign::new(AttackKind::ByteByByte { budget: 2_000 }, scheme)
                .with_seed_range(0xBEE, 6)
                .with_stop_rule(rule);
            let serial = base.clone().with_workers(1).run();
            let parallel = base.clone().with_workers(4).run();
            let oversubscribed = base.with_workers(32).run();
            assert_eq!(serial.runs, parallel.runs, "{scheme} under {}", rule.label());
            assert_eq!(serial.runs, oversubscribed.runs, "{scheme} under {}", rule.label());
            assert_eq!(serial.verdict(), parallel.verdict());
        }
    }
}

#[test]
fn static_canary_server_falls_while_polymorphic_schemes_survive_64_connections() {
    // The static-canary server: every forked worker inherits the parent's
    // canary, so the byte-by-byte reconnect loop recovers it and hijacks
    // control flow — after well over 64 connections of accumulated guessing.
    let mut ssp = ForkingServer::new(VictimConfig::new(SchemeKind::Ssp, 0xF0));
    assert_eq!(ssp.canary_policy(), ForkCanaryPolicy::Inherited);
    let geometry = ssp.geometry();
    let result = ByteByByteAttack::with_budget(4_000).run(&mut ssp, geometry, SchemeKind::Ssp);
    assert!(result.success, "the static-canary server must fall: {result:?}");
    assert!(
        ssp.connections_served() >= 64,
        "the break is a campaign, not a fluke: {} connections",
        ssp.connections_served()
    );
    assert_eq!(ssp.connections_served(), ssp.forked_workers(), "one fork per connection");

    // Polymorphic schemes: the same loop through ≥ 64 forked connections
    // never converges, because every fork re-randomizes the canaries.
    for scheme in [SchemeKind::Pssp, SchemeKind::PsspNt, SchemeKind::PsspOwf] {
        let mut server = ForkingServer::new(VictimConfig::new(scheme, 0xF0));
        assert_eq!(server.canary_policy(), ForkCanaryPolicy::Rerandomized, "{scheme}");
        let geometry = server.geometry();
        let result = ByteByByteAttack::with_budget(4_000).run(&mut server, geometry, scheme);
        assert!(!result.success, "{scheme} must survive: {result:?}");
        assert!(
            server.connections_served() >= 64,
            "{scheme} survived only {} connections — not a meaningful trial",
            server.connections_served()
        );
        assert_eq!(server.connections_served(), server.forked_workers(), "{scheme}");
    }
}

#[test]
fn all_stop_rules_reach_the_same_verdict_on_every_scheme_attack_cell() {
    for scheme in SchemeKind::ALL {
        for attack in ATTACKS {
            let exhaustive = campaign(attack, scheme, StopRule::Exhaustive);
            let sprt = campaign(attack, scheme, StopRule::sprt());
            let expected = exhaustive.verdict();
            assert_ne!(
                expected,
                Verdict::Inconclusive,
                "{scheme} × {} should be unanimous",
                attack.name()
            );
            assert_eq!(sprt.verdict(), expected, "{scheme} × {} (sprt)", attack.name());
            // On these unanimous cells the sequential test settles after 3
            // of the 5 victims, on a prefix of the exhaustive runs, and so
            // spends strictly fewer connections.
            assert_eq!(sprt.campaigns(), 3, "{scheme} × {}", attack.name());
            assert_eq!(sprt.runs[..], exhaustive.runs[..3]);
            assert!(
                sprt.total_requests() < exhaustive.total_requests(),
                "{scheme} × {}: sprt spent {} connections, exhaustive {}",
                attack.name(),
                sprt.total_requests(),
                exhaustive.total_requests()
            );
        }
    }
}

#[test]
fn sprt_matches_exhaustive_on_prng_generated_campaigns() {
    // Property test over PRNG-drawn campaign configurations: scheme, attack
    // kind, seed base, seed count and worker count are all random; the
    // sequential rule must always reach the exhaustive verdict, and on
    // unanimous cells SPRT must settle on a 3-victim prefix of the
    // exhaustive runs for strictly fewer connections.
    let mut rng = Xoshiro256StarStar::new(0x5B47_CA3E);
    for case in 0..12 {
        let scheme = SchemeKind::ALL[(rng.next_u64() % SchemeKind::ALL.len() as u64) as usize];
        let attack = match rng.next_u64() % 3 {
            0 => AttackKind::ByteByByte { budget: 800 + rng.next_u64() % 800 },
            1 => AttackKind::Exhaustive { budget: 50 + rng.next_u64() % 150 },
            _ => AttackKind::Reuse,
        };
        let base_seed = rng.next_u64();
        let seeds = 4 + (rng.next_u64() % 5) as usize;
        let workers = 1 + (rng.next_u64() % 4) as usize;
        let configure = |rule: StopRule| {
            Campaign::new(attack, scheme)
                .with_seed_range(base_seed, seeds)
                .with_workers(workers)
                .with_stop_rule(rule)
                .run()
        };
        let exhaustive = configure(StopRule::Exhaustive);
        let sprt = configure(StopRule::sprt());
        let context = format!(
            "case {case}: {} vs {scheme}, {seeds} seeds from {base_seed:#x}",
            attack.name()
        );
        assert_eq!(sprt.verdict(), exhaustive.verdict(), "{context} (sprt)");
        let unanimous = exhaustive.all_succeeded() || exhaustive.none_succeeded();
        if unanimous {
            assert_eq!(sprt.campaigns(), 3, "{context}");
            assert_eq!(sprt.runs[..], exhaustive.runs[..3], "{context}");
            assert!(
                sprt.total_requests() < exhaustive.total_requests(),
                "{context}: sprt {} >= exhaustive {}",
                sprt.total_requests(),
                exhaustive.total_requests()
            );
        }
    }
}

#[test]
fn fork_return_correctness_is_pinned_per_scheme_across_16_seeds() {
    use polycanary_bench::experiments::fork_return_correctness;

    // §II-C / Table I: a forked child returning through an inherited
    // protected frame must keep running under every scheme except RAF-SSP,
    // whose refreshed TLS canary no longer matches the frame.  Pinned over
    // 16 loader seeds so a single lucky canary cannot mask a regression.
    for scheme in SchemeKind::ALL {
        let expected = scheme != SchemeKind::RafSsp;
        for seed in 0..16u64 {
            assert_eq!(
                fork_return_correctness(scheme, 0xC0FFEE ^ (seed * 0x9E37_79B9)),
                expected,
                "{scheme} at seed index {seed}"
            );
        }
    }
}
