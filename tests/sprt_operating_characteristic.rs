//! The SPRT stop rule's operating characteristic, as implemented.
//!
//! `StopRule::sprt()` is Wald's test of p0 = 0.2 against p1 = 0.8 at
//! α = β = 0.05.  A success moves the log-likelihood ratio by +ln 4 and a
//! failure by −ln 4, and the boundaries sit at ±ln 19 ≈ ±2.94, between two
//! and three steps out.  The rule therefore stops exactly when
//! successes − failures first reaches ±3: a gambler's-ruin walk with
//! absorbing barriers, whose error rates and expected sample size are
//! known in closed form.  With r = (1 − p) / p:
//!
//! * P(breaks) = 1 / (1 + r³),
//! * E[N] = 3 (r³ − 1) / ((1 − 2p)(r³ + 1)), and 9 at p = ½.
//!
//! This battery drives the rule through the campaign executor
//! (`JobPool::run_sharded`) on synthetic Bernoulli victims — no VM — and
//! checks those exact values, plus the α / β guarantees the rule states.
//! It does so three times: with victims that fall with a drawn probability,
//! with the per-victim member draws of the mixed-population fleets, and
//! with the stage-dependent draws of the rollout presets, whose exact walk
//! has no closed form and comes from dynamic programming instead.

use polycanary::attacks::{derive_seed, JobPool, Population, PopulationMember, StopRule, Verdict};
use polycanary::core::SchemeKind;
use polycanary::crypto::{Prng, SplitMix64};
use polycanary_bench::experiments::population_fleets;
use polycanary_bench::grammar::RolloutShape;

/// Campaigns per success probability.
const CAMPAIGNS: u64 = 4_000;
/// Victims configured per campaign; the walk settles long before this.
const VICTIMS: usize = 400;

/// A 64-bit word mapped onto `[0, 1)` (the top 53 bits).
fn unit(word: u64) -> f64 {
    (word >> 11) as f64 / (1u64 << 53) as f64
}

/// One synthetic campaign: victim `i` falls iff `falls` holds for `i` and
/// its derived seed.  Returns the settled prefix of outcomes.
fn campaign(pool: JobPool, base: u64, falls: impl Fn(usize, u64) -> bool + Sync) -> Vec<bool> {
    let rule = StopRule::sprt();
    let mut successes = 0u64;
    pool.run_sharded(
        VICTIMS,
        1,
        |i| falls(i, derive_seed(base, i as u64)),
        |index, &success| {
            successes += u64::from(success);
            rule.should_stop(successes, index as u64 + 1)
        },
    )
    .results
}

/// Exact P(breaks) and E[N] of the ±3 absorbing walk.
fn exact(p: f64) -> (f64, f64) {
    if p == 0.5 {
        return (0.5, 9.0);
    }
    let r3 = ((1.0 - p) / p).powi(3);
    (1.0 / (1.0 + r3), 3.0 * (r3 - 1.0) / ((1.0 - 2.0 * p) * (r3 + 1.0)))
}

#[test]
fn sprt_operating_characteristic_matches_the_exact_walk() {
    let rule = StopRule::sprt();
    let serial = JobPool::with_workers(1);
    let parallel = JobPool::with_workers(4);
    // (p, exact P(breaks), exact E[N]) as tabulated from the closed forms.
    let table = [
        (0.1, 0.00137, 3.740),
        (0.2, 0.01538, 4.846),
        (0.5, 0.5, 9.0),
        (0.8, 0.98462, 4.846),
        (0.9, 0.99863, 3.740),
    ];
    for (k, (p, breaks_table, n_table)) in table.into_iter().enumerate() {
        let (exact_breaks, exact_n) = exact(p);
        assert!((exact_breaks - breaks_table).abs() < 1e-5, "p = {p}: P(breaks) {exact_breaks}");
        assert!((exact_n - n_table).abs() < 1e-3, "p = {p}: E[N] {exact_n}");

        let (mut breaks, mut resists) = (0u64, 0u64);
        let (mut sum_n, mut sum_n2) = (0.0f64, 0.0f64);
        let falls = |_, seed: u64| unit(SplitMix64::new(seed).next_u64()) < p;
        for c in 0..CAMPAIGNS {
            let base = ((k as u64) << 32) | c;
            let runs = campaign(serial, base, falls);
            if c % 8 == 0 {
                assert_eq!(
                    campaign(parallel, base, falls),
                    runs,
                    "p = {p}, campaign {c}: the settled prefix depends on the worker count"
                );
            }
            let n = runs.len() as u64;
            let successes = runs.iter().filter(|&&s| s).count() as u64;
            match rule.decision(successes, n) {
                Some(Verdict::Breaks) => breaks += 1,
                Some(Verdict::Resists) => resists += 1,
                other => panic!("p = {p}, campaign {c}: undecided after {n} victims ({other:?})"),
            }
            sum_n += n as f64;
            sum_n2 += (n * n) as f64;
        }
        assert_eq!(breaks + resists, CAMPAIGNS);

        let trials = CAMPAIGNS as f64;
        let p_breaks = breaks as f64 / trials;
        let sigma_breaks = (exact_breaks * (1.0 - exact_breaks) / trials).sqrt();
        assert!(
            (p_breaks - exact_breaks).abs() <= 4.0 * sigma_breaks,
            "p = {p}: P(breaks) {p_breaks:.5}, exact {exact_breaks:.5} ± 4·{sigma_breaks:.5}"
        );

        // The mean sample size, within 4 σ of the sample mean.  Wald's ASN
        // approximation would predict ≈3.43 at p = 0.2 even with the exact
        // operating characteristic: it assumes the walk stops on ±ln 19,
        // but every crossing overshoots to ±3·ln 4, so it undershoots the
        // exact 4.846.
        let mean_n = sum_n / trials;
        let sd_n = (sum_n2 / trials - mean_n * mean_n).max(0.0).sqrt();
        let sigma_n = sd_n / trials.sqrt();
        assert!(
            (mean_n - exact_n).abs() <= 4.0 * sigma_n,
            "p = {p}: mean N {mean_n:.3}, exact {exact_n:.3} ± 4·{sigma_n:.3}"
        );

        // The error rates the rule states: α at p0 = 0.2, β at p1 = 0.8.
        if p == 0.2 {
            assert!(p_breaks <= 0.05, "realized α {p_breaks:.4} exceeds 0.05");
        }
        if p == 0.8 {
            let p_resists = resists as f64 / trials;
            assert!(p_resists <= 0.05, "realized β {p_resists:.4} exceeds 0.05");
        }
    }
}

#[test]
fn sprt_walk_under_population_draws_matches_the_exact_walk() {
    // A mixed fleet's victim is SSP or P-SSP by `Population::member_for`
    // on its seed.  At the campaign budgets byte-by-byte breaks every SSP
    // victim and no P-SSP one, so a campaign's outcomes are exactly these
    // draws: a Bernoulli walk with p = SSP weight / total weight.
    let pool = JobPool::with_workers(1);
    let fleets = population_fleets();
    assert_eq!(fleets.len(), 4);
    for (k, (fleet, expected_p)) in fleets.iter().zip([0.1, 0.3, 0.5, 0.7]).enumerate() {
        let weight = |ssp: bool| -> u32 {
            let members = fleet.members().iter();
            members.filter(|m| (m.scheme == SchemeKind::Ssp) == ssp).map(|m| m.weight).sum()
        };
        let p = f64::from(weight(true)) / f64::from(weight(true) + weight(false));
        assert!((p - expected_p).abs() < 1e-12, "{}: p = {p}", fleet.label());
        let base = |c: u64| ((0x90 + k as u64) << 32) | c;
        let (draws_ssp, sum_n) = check_walk(fleet.label(), exact(p), |c| {
            campaign(pool, base(c), |_, seed| fleet.member_for(seed).scheme == SchemeKind::Ssp)
        });

        // By Wald's identity E[SSP draws] = p·E[N], so the SSP share of all
        // draws is unbiased for p despite the stopping, with variance
        // p(1 − p) / draws.
        let share = draws_ssp as f64 / sum_n;
        let sigma_share = (p * (1.0 - p) / sum_n).sqrt();
        assert!(
            (share - p).abs() <= 4.0 * sigma_share,
            "{}: SSP share {share:.4}, exact {p} ± 4·{sigma_share:.4}",
            fleet.label()
        );
    }
}

/// Exact P(breaks) and E[N] of the ±3 walk whose `n`-th victim (from 0)
/// falls with probability `p(n)`, by dynamic programming over the walk
/// positions −2..=2.  The mass still unabsorbed after `VICTIMS` steps is
/// negligible for every walk checked here.
fn exact_walk(p: impl Fn(usize) -> f64) -> (f64, f64) {
    // `mass[k]` is the probability of standing at position k − 2.
    let mut mass = [0.0, 0.0, 1.0, 0.0, 0.0];
    let (mut breaks, mut mean_n) = (0.0, 0.0);
    for n in 0..VICTIMS {
        let (up, steps) = (p(n), (n + 1) as f64);
        let mut next = [0.0; 5];
        // A victim that falls moves the walk up, one that resists moves it
        // down; stepping past either end absorbs at ±3.
        for (k, &m) in mass.iter().enumerate() {
            if k == 4 {
                breaks += m * up;
                mean_n += m * up * steps;
            } else {
                next[k + 1] += m * up;
            }
            if k == 0 {
                mean_n += m * (1.0 - up) * steps;
            } else {
                next[k - 1] += m * (1.0 - up);
            }
        }
        mass = next;
    }
    (breaks, mean_n)
}

/// Runs `CAMPAIGNS` campaigns (`campaign(c)` is the settled prefix of the
/// `c`-th) and checks P(breaks) and the mean sample size against the exact
/// walk within 4 σ.  Returns the successes and victims over all campaigns.
fn check_walk(label: &str, exact: (f64, f64), campaign: impl Fn(u64) -> Vec<bool>) -> (u64, f64) {
    let (exact_breaks, exact_n) = exact;
    let (mut breaks, mut successes, mut sum_n, mut sum_n2) = (0u64, 0u64, 0.0f64, 0.0f64);
    for c in 0..CAMPAIGNS {
        let runs = campaign(c);
        let n = runs.len() as u64;
        let won = runs.iter().filter(|&&s| s).count() as u64;
        match StopRule::sprt().decision(won, n) {
            Some(Verdict::Breaks) => breaks += 1,
            Some(Verdict::Resists) => {}
            other => panic!("{label}, campaign {c}: undecided after {n} ({other:?})"),
        }
        successes += won;
        sum_n += n as f64;
        sum_n2 += (n * n) as f64;
    }

    let trials = CAMPAIGNS as f64;
    let p_breaks = breaks as f64 / trials;
    let sigma_breaks = (exact_breaks * (1.0 - exact_breaks) / trials).sqrt();
    assert!(
        (p_breaks - exact_breaks).abs() <= 4.0 * sigma_breaks,
        "{label}: P(breaks) {p_breaks:.5}, exact {exact_breaks:.5} ± 4·{sigma_breaks:.5}"
    );
    let mean_n = sum_n / trials;
    let sigma_n = ((sum_n2 / trials - mean_n * mean_n).max(0.0) / trials).sqrt();
    assert!(
        (mean_n - exact_n).abs() <= 4.0 * sigma_n,
        "{label}: mean N {mean_n:.3}, exact {exact_n:.3} ± 4·{sigma_n:.3}"
    );
    (successes, sum_n)
}

#[test]
fn sprt_walk_under_rollout_curves_matches_the_exact_walk() {
    // A rollout cell's fleet is patched P-SSP against legacy SSP, drawn by
    // `Population::member_at` under the stage weights in force at the
    // victim's index.  Byte-by-byte breaks exactly the SSP draws, so the
    // walk's `n`-th step falls with the legacy share of stage `n`'s
    // weights.  Three victims per stage take the steep walk through all of
    // its stages before it settles.
    const BATCH: usize = 3;
    for p in [0.1, 0.2, 0.5, 0.8] {
        let (closed_breaks, closed_n) = exact(p);
        let (breaks, n) = exact_walk(|_| p);
        assert!((breaks - closed_breaks).abs() < 1e-12 && (n - closed_n).abs() < 1e-9, "p = {p}");
    }
    let pool = JobPool::with_workers(1);
    for (k, shape) in [RolloutShape::Flat, RolloutShape::Steep].into_iter().enumerate() {
        let curve = shape.curve(BATCH);
        let legacy_share = |n: usize| {
            let weights = curve.stage_for(n);
            f64::from(weights[1]) / f64::from(weights[0] + weights[1])
        };
        let members =
            [PopulationMember::new(1, SchemeKind::Pssp), PopulationMember::new(1, SchemeKind::Ssp)];
        let fleet = Population::from_members(format!("rollout-{}", shape.label()), members)
            .with_rollout(curve.clone());
        let base = |c: u64| ((0xB0 + k as u64) << 32) | c;
        check_walk(fleet.label(), exact_walk(legacy_share), |c| {
            campaign(pool, base(c), |i, seed| fleet.member_at(i, seed).scheme == SchemeKind::Ssp)
        });
    }
}
