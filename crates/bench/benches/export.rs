//! Export layer — build, serialize and parse of the two records every run
//! exports in bulk.
//!
//! `reuse_4096` is the envelope of one 4096-victim canary-reuse report over
//! an SSP / P-SSP / P-SSP-bin32 fleet: one four-field record per victim,
//! the shape `reuse-fleet` exports each round.  `verify` is the envelope of
//! the full `harness verify` sweep: one record per cell.  Per input,
//! `build` makes the envelope from the finished report, `serialize` writes
//! it as JSON, and `parse` reads that JSON back into a record.

use std::time::Duration;

use criterion::{
    black_box, criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion,
};
use polycanary_attacks::campaign::{AttackKind, Campaign};
use polycanary_attacks::population::{Population, PopulationMember};
use polycanary_attacks::victim::Deployment;
use polycanary_bench::verify::run_verify;
use polycanary_core::record::{export_envelope, Record};
use polycanary_core::scheme::SchemeKind;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("export");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));

    let fleet = Population::from_members(
        "ssp-pssp-bin32",
        [
            PopulationMember::new(1, SchemeKind::Ssp),
            PopulationMember::new(1, SchemeKind::Pssp),
            PopulationMember::new(1, SchemeKind::PsspBin32)
                .with_deployment(Deployment::BinaryRewriter),
        ],
    );
    let reuse = Campaign::against(AttackKind::Reuse, fleet)
        .with_buffer_size(64)
        .with_seed_range(0xE4_0127, 4096)
        .run();
    let verify = run_verify(false);

    cells(&mut group, "reuse_4096", || {
        export_envelope("reuse-fleet", Record::new(), vec![reuse.record()])
    });
    cells(&mut group, "verify", || verify.envelope(false));
    group.finish();
}

/// The `build`, `serialize` and `parse` cells of the record `build` makes.
fn cells(group: &mut BenchmarkGroup<'_>, label: &str, build: impl Fn() -> Record) {
    group.bench_function(BenchmarkId::new("build", label), |b| b.iter(&build));
    let record = build();
    group.bench_function(BenchmarkId::new("serialize", label), |b| b.iter(|| record.to_json()));
    let json = record.to_json();
    group.bench_function(BenchmarkId::new("parse", label), |b| {
        b.iter(|| Record::from_json(black_box(&json)))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
