//! Fleet engine — snapshot-boot vs from-scratch victim construction, and
//! the per-request fork path.
//!
//! The whole point of the snapshot layer is that booting the Nth server of
//! a configuration skips the compile/rewrite pipeline: `restore` should
//! beat `rebuild` by a wide margin on every deployment vehicle.  The
//! `build` cells time the build alone (`VictimSnapshot::build`: compile or
//! rewrite plus the snapshot), the part a campaign pays once per
//! configuration.  The `connect` cells time what a byte-by-byte campaign
//! pays per request on a long-lived server: fork a connection into the
//! reused worker, serve one benign request, drop the connection.
//!
//! The `victim/<label>` cells time one whole canary-reuse victim, boot
//! plus attack, the unit of a reuse campaign.  `fresh` boots it into a new
//! server (`ForkingServer::from_snapshot`), whose first connection
//! allocates the worker's stack and I/O buffers; `reboot` boots it
//! into a kept server (`ForkingServer::reboot`), as a campaign worker does
//! for every victim after its first, which reforks the kept worker
//! instead.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use polycanary_attacks::reuse::CanaryReuseAttack;
use polycanary_attacks::snapshot::{VictimKey, VictimSnapshot};
use polycanary_attacks::victim::{Deployment, ForkingServer, VictimConfig};
use polycanary_core::scheme::SchemeKind;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_snapshot");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));

    let cells: [(&str, SchemeKind, Deployment); 3] = [
        ("ssp_compiler", SchemeKind::Ssp, Deployment::Compiler),
        ("pssp_compiler", SchemeKind::Pssp, Deployment::Compiler),
        ("pssp_rewriter", SchemeKind::PsspBin32, Deployment::BinaryRewriter),
    ];
    for (label, scheme, deployment) in cells {
        let config = VictimConfig::new(scheme, 0xF1EE7).with_deployment(deployment);

        // From-scratch path: compile (or rewrite) + boot, per victim.
        group.bench_with_input(BenchmarkId::new("rebuild", label), &config, |b, &config| {
            b.iter(|| ForkingServer::new(config))
        });

        // The once-per-configuration build the snapshot path amortizes.
        let key = VictimKey::of(&config);
        group.bench_with_input(BenchmarkId::new("build", label), &key, |b, &key| {
            b.iter(|| VictimSnapshot::build(key))
        });

        // Snapshot path: the build happens once per configuration; each
        // victim boots from the captured program.
        let snapshot = VictimSnapshot::build(key);
        group.bench_with_input(BenchmarkId::new("restore", label), &snapshot, |b, snapshot| {
            b.iter(|| ForkingServer::from_snapshot(snapshot, 0xF1EE7))
        });

        // One canary-reuse victim, booted into a new server and into a
        // kept one.
        group.bench_with_input(
            BenchmarkId::new("victim", format!("{label}/fresh")),
            &snapshot,
            |b, snapshot| {
                b.iter(|| {
                    let mut server = ForkingServer::from_snapshot(snapshot, 0xF1EE7);
                    CanaryReuseAttack::default().run(&mut server)
                })
            },
        );
        let mut kept = ForkingServer::from_snapshot(&snapshot, 0xF1EE7);
        group.bench_function(BenchmarkId::new("victim", format!("{label}/reboot")), |b| {
            b.iter(|| {
                kept.reboot(&snapshot, 0xF1EE7);
                CanaryReuseAttack::default().run(&mut kept)
            })
        });

        // Per-request fork path: one benign request per connection.
        let mut server = ForkingServer::from_snapshot(&snapshot, 0xF1EE7);
        group.bench_function(BenchmarkId::new("connect", label), |b| {
            b.iter(|| server.connect().send(b"GET / HTTP/1.1"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
