//! E8 — §VI-C effectiveness: the byte-by-byte attack breaks SSP-compiled
//! servers in about a thousand requests and fails against P-SSP in both of
//! its deployments.

use polycanary::attacks::{
    AttackKind, ByteByByteAttack, Campaign, CanaryReuseAttack, Deployment, ExhaustiveAttack,
    ForkingServer, StopRule, Verdict, VictimConfig,
};
use polycanary::core::SchemeKind;

#[test]
fn byte_by_byte_breaks_ssp_in_about_a_thousand_requests() {
    let mut trials = Vec::new();
    for seed in [1u64, 2, 3] {
        let mut server = ForkingServer::new(VictimConfig::new(SchemeKind::Ssp, seed));
        let geometry = server.geometry();
        let result = ByteByByteAttack::default().run(&mut server, geometry, SchemeKind::Ssp);
        assert!(result.success, "seed {seed}: SSP must fall");
        trials.push(result.trials);
    }
    let mean = trials.iter().sum::<u64>() as f64 / trials.len() as f64;
    // Expected value is 8 * 128 + 9 ≈ 1033; any single sample lies in
    // [9, 2049].  The three-sample mean should land well inside that band.
    assert!(mean > 300.0 && mean < 1900.0, "mean trials {mean}");
}

#[test]
fn byte_by_byte_expectation_matches_its_exact_value() {
    // The SSP canary is a full random u64, so each of its 8 bytes costs
    // (value + 1) guesses, uniform on 1..=256: mean 128.5, variance
    // (256² − 1) / 12.  With the final exploit request,
    // E[trials] = 8 × 128.5 + 1 = 1029 and σ = √(8 × (256² − 1) / 12) ≈ 209.
    // The mean of n victims lies within 3.29 σ/√n of 1029 with 99.9 %
    // probability.
    const VICTIMS: usize = 400;
    let report = Campaign::new(AttackKind::ByteByByte { budget: 4_000 }, SchemeKind::Ssp)
        .with_seed_range(0x1029, VICTIMS)
        .with_stop_rule(StopRule::Exhaustive)
        .run();
    assert_eq!(report.runs.len(), VICTIMS);
    assert!(report.runs.iter().all(|run| run.result.success), "SSP falls to every probe");
    let mean = report.runs.iter().map(|run| run.result.trials as f64).sum::<f64>() / VICTIMS as f64;
    let sigma = (8.0 * (256.0f64 * 256.0 - 1.0) / 12.0).sqrt();
    let bound = 3.29 * sigma / (VICTIMS as f64).sqrt();
    assert!(
        (mean - 1029.0).abs() < bound,
        "mean trials {mean:.1} is {:.2} standard errors from 1029",
        (mean - 1029.0) / (sigma / (VICTIMS as f64).sqrt())
    );
}

#[test]
fn byte_by_byte_fails_against_both_pssp_deployments() {
    for (scheme, deployment) in [
        (SchemeKind::Pssp, Deployment::Compiler),
        (SchemeKind::PsspBin32, Deployment::BinaryRewriter),
    ] {
        let mut server =
            ForkingServer::new(VictimConfig::new(scheme, 77).with_deployment(deployment));
        let geometry = server.geometry();
        let result = ByteByByteAttack::with_budget(6_000).run(&mut server, geometry, scheme);
        assert!(!result.success, "{scheme}: the attack script must fail, got {result:?}");
    }
}

#[test]
fn exhaustive_search_is_equally_hopeless_against_ssp_and_pssp() {
    for scheme in [SchemeKind::Ssp, SchemeKind::Pssp] {
        let mut server = ForkingServer::new(VictimConfig::new(scheme, 5));
        let geometry = server.geometry();
        let result = ExhaustiveAttack::with_budget(400).run(&mut server, geometry, scheme);
        assert!(!result.success, "{scheme}");
    }
}

#[test]
fn only_owf_survives_canary_disclosure() {
    for (scheme, expect_hijack) in
        [(SchemeKind::Ssp, true), (SchemeKind::Pssp, true), (SchemeKind::PsspOwf, false)]
    {
        let mut server = ForkingServer::new(VictimConfig::new(scheme, 31));
        let result = CanaryReuseAttack::default().run(&mut server);
        assert_eq!(result.success, expect_hijack, "{scheme}: {result:?}");
    }
}

#[test]
fn adaptive_budget_reaches_the_32_seed_verdict_with_fewer_requests() {
    // The fixed-budget §VI-C campaign: 32 seeds, SSP falls in all of them.
    let base = Campaign::new(AttackKind::ByteByByte { budget: 4_000 }, SchemeKind::Ssp)
        .with_seed_range(0x32C, 32);
    let fixed = base.clone().run();
    assert_eq!(fixed.successes(), 32, "SSP falls 32/32");
    assert_eq!(fixed.verdict(), Verdict::Breaks);

    // The SPRT run proves the same verdict from a 3-victim prefix and
    // therefore spends strictly fewer total requests.
    let adaptive = base.with_stop_rule(StopRule::sprt()).run();
    assert_eq!(adaptive.verdict(), fixed.verdict());
    assert_eq!(adaptive.campaigns(), 3);
    assert_eq!(adaptive.runs[..], fixed.runs[..3]);
    assert!(
        adaptive.total_requests() < fixed.total_requests(),
        "{} vs {}",
        adaptive.total_requests(),
        fixed.total_requests()
    );
}

#[test]
fn detection_reports_name_the_vulnerable_function() {
    use polycanary::vm::Fault;
    let mut server = ForkingServer::new(VictimConfig::new(SchemeKind::Pssp, 8));
    let len = server.geometry().full_overwrite_len();
    // Direct probe through the compiled machinery: a full overwrite is
    // detected and the fault message carries the function name.
    let outcome = server.serve(&vec![0x41u8; len]);
    assert_eq!(outcome, polycanary::attacks::RequestOutcome::Detected);
    let fault = Fault::CanaryViolation { function: "handle_request".into() };
    assert!(fault.to_string().contains("handle_request"));
}
