//! Mixed victim populations: campaigning a partially patched fleet.
//!
//! ```sh
//! cargo run --release --example mixed_population
//! ```
//!
//! A uniform campaign (every paper table) has a success rate of 0 or 1;
//! a partially patched fleet lands in between, which is where the
//! sequential stop rule earns its keep — or runs out of seeds undecided.

use polycanary::attacks::campaign::{AttackKind, Campaign, StopRule};
use polycanary::attacks::population::Population;
use polycanary::core::SchemeKind;

fn main() {
    let fleets = [
        Population::mixed("patched-90/10", [(9, SchemeKind::Pssp), (1, SchemeKind::Ssp)]),
        Population::mixed("patched-70/30", [(7, SchemeKind::Pssp), (3, SchemeKind::Ssp)]),
        Population::mixed("half-half", [(1, SchemeKind::Pssp), (1, SchemeKind::Ssp)]),
    ];
    println!("{:<16} {:>8}  {:<28} {:<28}", "fleet", "rate", "sprt", "exhaustive");
    for fleet in fleets {
        let base = Campaign::against(AttackKind::ByteByByte { budget: 2_600 }, fleet.clone())
            .with_seed_range(0x5EED, 16);
        let cell = |rule: StopRule| {
            let report = base.clone().with_stop_rule(rule).run();
            format!(
                "{} after {}/{} victims",
                report.verdict(),
                report.campaigns(),
                report.configured_seeds
            )
        };
        let exhaustive = base.clone().run();
        println!(
            "{:<16} {:>7.0}%  {:<28} {:<28}",
            fleet.label(),
            exhaustive.success_rate() * 100.0,
            cell(StopRule::sprt()),
            cell(StopRule::Exhaustive),
        );
    }
}
