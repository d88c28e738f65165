//! Adaptive-budget attack campaigns: the same 32-seed §VI-C verdict for a
//! fraction of the requests, plus the machine-readable record export.
//!
//! A fixed-budget campaign attacks every configured victim seed.  An
//! adaptive campaign stops as soon as the sequential SPRT rule proves the
//! verdict: once Wald's likelihood ratio crosses a 5 % error boundary
//! (three unanimous victims).
//!
//! Run with: `cargo run --release --example adaptive_campaign`

use polycanary::attacks::{AttackKind, Campaign, StopRule};
use polycanary::core::SchemeKind;

fn main() {
    println!("fixed vs adaptive byte-by-byte campaigns over 32 victim seeds\n");

    for scheme in [SchemeKind::Ssp, SchemeKind::Pssp] {
        let base = Campaign::new(AttackKind::ByteByByte { budget: 4_000 }, scheme)
            .with_seed_range(0xADA9, 32);
        let fixed = base.clone().run();
        let sprt = base.with_stop_rule(StopRule::sprt()).run();

        let line = |label: &str, report: &polycanary::attacks::CampaignReport| {
            println!(
                "{:<8} {:<8} {:>2}/{} seeds, verdict {:<12} {:>7} total requests ({} skipped)",
                scheme.name(),
                label,
                report.successes(),
                report.campaigns(),
                report.verdict().label(),
                report.total_requests(),
                report.configured_seeds - report.runs.len()
            );
        };
        line("fixed", &fixed);
        line("sprt", &sprt);
        // SSP and P-SSP are unanimous populations, so the early stop
        // provably reaches the exhaustive verdict (mixed-rate populations
        // would carry the SPRT's α / β error probabilities) from a prefix
        // of the fixed campaign's runs.
        assert_eq!(fixed.verdict(), sprt.verdict(), "unanimous cells keep their verdict");
        assert_eq!(sprt.runs[..], fixed.runs[..sprt.runs.len()]);
        assert!(sprt.total_requests() < fixed.total_requests());

        println!("\nsequential (SPRT) campaign as a self-describing JSON record:");
        println!("{}\n", sprt.record().to_json());
    }
}
