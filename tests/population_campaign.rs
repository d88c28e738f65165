//! Mixed-population campaigns: the stop rules against genuinely mixed
//! success rates.
//!
//! Every paper table campaigns a unanimous fleet (success rate 0 or 1),
//! where both stop rules provably agree.  A partially patched fleet
//! produces an in-between rate, which is exactly the regime the sequential
//! rule was designed for: SPRT's 0.2/0.8 indifference region keeps it
//! running on a near-1/2 split, its α/β budget bounds how often it may
//! settle such a cell anyway, and the exhaustive Wilson test stays
//! inconclusive until the interval clears 1/2.  These tests pin that
//! behavior on concrete seeded fleets — including one where SPRT uses its
//! error budget and one where it exhausts the seed list undecided.

use polycanary::attacks::campaign::{AttackKind, Campaign, StopRule, Verdict};
use polycanary::attacks::population::Population;
use polycanary::core::SchemeKind;

/// Byte-by-byte campaign against `fleet` over 16 seeds derived from
/// `seed`; the 2 600-request budget always suffices against SSP victims
/// (worst case 8·256+1) and never against P-SSP ones.
fn byte_campaign(fleet: Population, seed: u64, rule: StopRule) -> Campaign {
    Campaign::against(AttackKind::ByteByByte { budget: 2_600 }, fleet)
        .with_seed_range(seed, 16)
        .with_stop_rule(rule)
}

fn half_fleet() -> Population {
    Population::mixed("half", [(1, SchemeKind::Pssp), (1, SchemeKind::Ssp)])
}

#[test]
fn half_fleet_is_non_degenerate_and_leaves_the_exhaustive_verdict_open() {
    let report = byte_campaign(half_fleet(), 0x5EED, StopRule::Exhaustive).run();
    // Neither all-success nor all-fail: the mixed fleet really mixes.
    assert!(report.successes() > 0, "{report:?}");
    assert!(report.successes() < report.campaigns(), "{report:?}");
    // This seeded fleet splits 11/16 — the Wilson interval still straddles
    // 1/2, so the full campaign settles nothing.
    assert_eq!(report.successes(), 11);
    assert_eq!(report.verdict(), Verdict::Inconclusive);
    // Success tracks the per-seed member draw exactly.
    for run in &report.runs {
        assert_eq!(run.result.success, run.result.scheme == SchemeKind::Ssp, "{run:?}");
    }
}

#[test]
fn sprt_stays_in_the_indifference_region_on_a_near_even_split() {
    // This seeded fleet splits 8/16 and the SPRT random walk never crosses
    // either decision boundary, so the rule runs out of seeds undecided —
    // the indifference region working as designed on a rate near 1/2.
    let sprt = byte_campaign(half_fleet(), 0xA4, StopRule::sprt()).run();
    assert!(!sprt.stopped_early(), "{sprt:?}");
    assert_eq!((sprt.successes(), sprt.campaigns()), (8, 16));
    assert_eq!(sprt.verdict(), Verdict::Inconclusive);
    // And its runs equal the exhaustive run's: early stopping is the only
    // thing a stop rule may change.
    let exhaustive = byte_campaign(half_fleet(), 0xA4, StopRule::Exhaustive).run();
    assert_eq!(sprt.runs, exhaustive.runs);
    assert_eq!(exhaustive.verdict(), Verdict::Inconclusive);
}

#[test]
fn sprt_may_settle_a_mixed_cell_within_its_error_budget() {
    // A 7/16 fleet happens to front-load failures: SPRT's log-likelihood
    // ratio crosses the `resists` boundary after 3/9 and the rule stops
    // early, while the exhaustive (Wilson-interval) verdict remains
    // inconclusive.
    // That disagreement is not a bug — a sequential test at α = β = 5 % is
    // *allowed* to declare a cell whose true rate sits in the indifference
    // region, and the error budget bounds how often.
    let sprt = byte_campaign(half_fleet(), 0x2A, StopRule::sprt()).run();
    assert!(sprt.stopped_early(), "{sprt:?}");
    assert_eq!((sprt.successes(), sprt.campaigns()), (3, 9));
    assert_eq!(sprt.verdict(), Verdict::Resists);
    let exhaustive = byte_campaign(half_fleet(), 0x2A, StopRule::Exhaustive).run();
    assert_eq!((exhaustive.successes(), exhaustive.campaigns()), (7, 16));
    assert_eq!(exhaustive.verdict(), Verdict::Inconclusive);
    // The settled prefix is still a prefix of the exhaustive run.
    assert_eq!(sprt.runs[..], exhaustive.runs[..sprt.runs.len()]);
}

#[test]
fn skewed_fleets_settle_equivalently_under_every_rule() {
    // 90 % patched: a non-unanimous fleet (1/16 victims fall) that both
    // rules nevertheless judge identically — `resists`.
    let patched = Population::mixed("patched-90", [(9, SchemeKind::Pssp), (1, SchemeKind::Ssp)]);
    let exhaustive = byte_campaign(patched.clone(), 0x5EED, StopRule::Exhaustive).run();
    assert_eq!((exhaustive.successes(), exhaustive.campaigns()), (1, 16));
    assert_eq!(exhaustive.verdict(), Verdict::Resists);
    let sprt = byte_campaign(patched.clone(), 0x5EED, StopRule::sprt()).run();
    assert_eq!(sprt.verdict(), exhaustive.verdict());
    assert!(sprt.stopped_early());
    assert!(sprt.total_requests() < exhaustive.total_requests());
    assert_eq!(sprt.runs[..], exhaustive.runs[..sprt.runs.len()]);

    // 90 % static, mirrored: 15/16 fall and both rules say `breaks`.
    let static_fleet =
        Population::mixed("static-90", [(1, SchemeKind::Pssp), (9, SchemeKind::Ssp)]);
    let exhaustive = byte_campaign(static_fleet.clone(), 0x2A, StopRule::Exhaustive).run();
    assert_eq!((exhaustive.successes(), exhaustive.campaigns()), (15, 16));
    assert!(exhaustive.successes() < exhaustive.campaigns(), "non-unanimous by construction");
    assert_eq!(exhaustive.verdict(), Verdict::Breaks);
    let sprt = byte_campaign(static_fleet, 0x2A, StopRule::sprt()).run();
    assert_eq!(sprt.verdict(), exhaustive.verdict());
    assert!(sprt.stopped_early());
    assert_eq!(sprt.runs[..], exhaustive.runs[..sprt.runs.len()]);
}

#[test]
fn mixed_population_early_stops_are_worker_count_independent() {
    for rule in [StopRule::sprt(), StopRule::Exhaustive] {
        let serial = byte_campaign(half_fleet(), 0x2A, rule).with_workers(1).run();
        let parallel = byte_campaign(half_fleet(), 0x2A, rule).with_workers(8).run();
        assert_eq!(serial.runs, parallel.runs, "{rule:?}");
        assert_eq!(serial.verdict(), parallel.verdict(), "{rule:?}");
    }
}
