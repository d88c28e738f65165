//! Fleet-engine guarantees, exercised through the `polycanary` facade:
//!
//! * snapshot-booted servers are bit-identical to from-scratch ones on
//!   every scheme × deployment cell (geometry, policies, leaked bytes,
//!   request outcomes, operational counters, full attack results),
//! * SPRT-settled campaigns cancel unscheduled shards: reports are
//!   byte-identical at 1/4/8 workers while strictly fewer victims are
//!   constructed than an exhaustive sweep would boot,
//! * a 10^5-seed fleet campaign completes with byte-identical records at
//!   any worker count,
//! * seed derivation is lazy: configuring a million-victim fleet costs
//!   nothing until a seed is actually drawn,
//! * the reused worker slot behind `ForkingServer::connect` reproduces the
//!   values pinned from the allocate-per-connection server: leaked canary
//!   bytes, request outcomes, counters and byte-by-byte results,
//! * a server rebooted into its kept worker (`ForkingServer::reboot`, the
//!   campaign boot path) reproduces the same values, and a mixed canary
//!   reuse campaign on kept servers equals from-scratch victims at 1, 2
//!   and 8 workers.

use polycanary::analysis::scrub::scrub;
use polycanary::attacks::{
    derive_seed, AttackKind, ByteByByteAttack, Campaign, Deployment, ForkingServer, Population,
    PopulationMember, StopRule, VictimConfig, VictimKey, VictimSnapshot, HIJACK_TARGET,
};
use polycanary::core::SchemeKind;

/// Boots the same victim configuration from scratch and from a pre-built
/// snapshot and drives both through the same request script, asserting
/// bit-for-bit agreement at every observation point.
fn assert_boot_equivalent(config: VictimConfig) {
    let label = format!("{} × {}", config.scheme, config.deployment.label());
    let mut fresh = ForkingServer::new(config);
    let snapshot = VictimSnapshot::build(VictimKey::of(&config));
    let mut booted = ForkingServer::from_snapshot(&snapshot, config.seed);

    assert_eq!(fresh.geometry(), booted.geometry(), "{label}: geometry");
    assert_eq!(fresh.canary_policy(), booted.canary_policy(), "{label}: policy");
    assert_eq!(fresh.scheme(), booted.scheme(), "{label}: scheme");

    // A benign request, a leak (canary bytes included) and a full smash
    // must play out identically — same outcomes, same leaked bytes.
    assert_eq!(fresh.serve(b"GET / HTTP/1.1"), booted.serve(b"GET / HTTP/1.1"), "{label}");
    let (fresh_outcome, fresh_leak) = fresh.serve_leak(b"status");
    let (booted_outcome, booted_leak) = booted.serve_leak(b"status");
    assert_eq!(fresh_outcome, booted_outcome, "{label}: leak outcome");
    assert_eq!(fresh_leak, booted_leak, "{label}: leaked bytes (canaries included)");
    let smash = vec![0x41u8; fresh.geometry().full_overwrite_len()];
    assert_eq!(fresh.serve(&smash), booted.serve(&smash), "{label}: smash outcome");
    assert_eq!(fresh.stats_record(), booted.stats_record(), "{label}: counters");
}

#[test]
fn snapshot_boot_matches_fresh_boot_on_every_scheme_deployment_cell() {
    for scheme in SchemeKind::ALL {
        for deployment in [Deployment::Compiler, Deployment::BinaryRewriter] {
            for seed in [7u64, 0xF1EE7 ^ 0xF00D] {
                assert_boot_equivalent(VictimConfig::new(scheme, seed).with_deployment(deployment));
            }
        }
    }
}

#[test]
fn snapshot_boot_preserves_full_attack_results() {
    // The strongest equivalence check: the entire byte-by-byte attack —
    // thousands of adaptive, canary-dependent requests — produces the
    // identical [`AttackResult`] against both boot paths.
    let cells = [
        (SchemeKind::Ssp, Deployment::Compiler, 3_000u64),
        (SchemeKind::Pssp, Deployment::Compiler, 2_000),
        (SchemeKind::PsspBin32, Deployment::BinaryRewriter, 2_000),
    ];
    for (scheme, deployment, budget) in cells {
        let config = VictimConfig::new(scheme, 0x5EED).with_deployment(deployment);
        let mut fresh = ForkingServer::new(config);
        let snapshot = VictimSnapshot::build(VictimKey::of(&config));
        let mut booted = ForkingServer::from_snapshot(&snapshot, config.seed);
        let geometry = fresh.geometry();
        let attack = |server: &mut ForkingServer| {
            ByteByByteAttack::with_budget(budget).run(server, geometry, scheme)
        };
        assert_eq!(attack(&mut fresh), attack(&mut booted), "{scheme} × {}", deployment.label());
        assert_eq!(fresh.stats_record(), booted.stats_record(), "{scheme}");
    }
}

#[test]
fn sprt_settlement_cancels_unscheduled_victims_at_any_worker_count() {
    let base = Campaign::new(AttackKind::ByteByByte { budget: 3_000 }, SchemeKind::Ssp)
        .with_seed_range(0xF1EE7, 64)
        .with_stop_rule(StopRule::sprt());
    let serial = base.clone().with_workers(1).run();
    let four = base.clone().with_workers(4).run();
    let eight = base.clone().with_workers(8).run();

    // Deterministic contract: the settled prefix is identical however many
    // workers raced over the shards.
    assert_eq!(serial.runs, four.runs, "1 vs 4 workers");
    assert_eq!(serial.runs, eight.runs, "1 vs 8 workers");
    assert_eq!(scrub(&serial.record()), scrub(&eight.record()), "exported records");
    assert!(serial.stopped_early(), "unanimous SSP settles in 3: {serial:?}");

    // Cancellation contract: settling cancels the unscheduled shards, so
    // strictly fewer victims are constructed than the exhaustive sweep's
    // 64 — at every worker count, speculative boots included.
    let exhaustive = base.with_stop_rule(StopRule::Exhaustive).with_workers(4).run();
    assert_eq!(exhaustive.victims_built, 64);
    for (workers, report) in [(1usize, &serial), (4, &four), (8, &eight)] {
        assert!(
            report.victims_built < exhaustive.victims_built,
            "{workers} workers built {} of {}",
            report.victims_built,
            exhaustive.victims_built,
        );
        assert!(report.victims_built >= report.runs.len(), "{workers} workers");
    }
}

#[test]
fn fleet_scale_campaign_is_byte_identical_across_worker_counts() {
    let base = Campaign::new(AttackKind::ByteByByte { budget: 3_000 }, SchemeKind::Pssp)
        .with_seed_range(0x00DD_5EED, 100_000)
        .with_stop_rule(StopRule::sprt());
    let serial = base.clone().with_workers(1).run();
    let four = base.clone().with_workers(4).run();
    let eight = base.with_workers(8).run();
    assert_eq!(serial.runs, four.runs);
    assert_eq!(serial.runs, eight.runs);
    assert_eq!(scrub(&serial.record()), scrub(&eight.record()));

    assert_eq!(serial.configured_seeds, 100_000);
    assert!(serial.stopped_early(), "unanimous P-SSP fleet settles in 3");
    assert_eq!(serial.victims_cancelled(), 100_000 - serial.runs.len());
    // One snapshot configuration covers the whole uniform fleet; every
    // attacked victim past the first booted from the shared image.
    assert_eq!(serial.snapshot_configs(), 1);
    assert_eq!(serial.snapshot_reuses(), serial.runs.len() - 1);
}

#[test]
fn seed_derivation_is_lazy_and_stable_at_fleet_scale() {
    // Configuring a million-victim fleet materializes nothing: seeds are
    // derived on demand, and any index agrees with the documented
    // derivation function.
    let fleet =
        Campaign::new(AttackKind::Reuse, SchemeKind::Pssp).with_seed_range(0xBA5E, 1_000_000);
    assert_eq!(fleet.seed_count(), 1_000_000);
    for index in [0usize, 1, 4_095, 65_536, 999_999] {
        assert_eq!(fleet.seed_at(index), derive_seed(0xBA5E, index as u64), "index {index}");
    }
    // Explicit seed lists keep their verbatim semantics.
    let explicit = Campaign::new(AttackKind::Reuse, SchemeKind::Pssp).with_seeds([3, 1, 4]);
    assert_eq!(explicit.seed_count(), 3);
    assert_eq!(explicit.seed_at(1), 1);
    assert_eq!(explicit.seeds(), vec![3, 1, 4]);
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// FNV-1a over a whole leak: pins the stale stack words around the canary
/// too, which a refork that restored too little would change.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
}

/// Eight connections in four shapes — leak, benign request, a keep-alive
/// connection that leaks, survives, is smashed and refuses, and a
/// leak-then-overflow reuse — logged as `kind outcome(s) canary/leak-hash`,
/// then the server's counters.
fn connection_log(config: VictimConfig) -> Vec<String> {
    log_connections(&mut ForkingServer::new(config))
}

/// [`connection_log`] against an already booted server.  The last
/// connection is a hijack, so the server's worker is left crashed.
fn log_connections(server: &mut ForkingServer) -> Vec<String> {
    let geom = server.geometry();
    let region = geom.filler_len..geom.filler_len + geom.canary_region_len;
    let leak = |leaked: &[u8]| format!("{}/{:016x}", hex(&leaked[region.clone()]), fnv64(leaked));
    let smash = vec![0x41u8; geom.full_overwrite_len()];
    let mut log = Vec::new();
    for k in 0..8 {
        match k % 4 {
            0 => {
                let (outcome, leaked) = server.serve_leak(b"status");
                log.push(format!("leak {outcome:?} {}", leak(&leaked)));
            }
            1 => log.push(format!("serve {:?}", server.serve(b"GET / HTTP/1.1"))),
            2 => {
                let mut conn = server.connect();
                let (outcome, leaked) = conn.send_leak(b"status");
                let ping = conn.send(b"ping");
                let smashed = conn.send(&smash);
                let after = conn.send(b"after");
                log.push(format!(
                    "keep-alive {outcome:?} {} {ping:?} {smashed:?} {after:?}",
                    leak(&leaked)
                ));
            }
            _ => {
                let (leaked, outcome) = server.serve_leak_then_overflow(b"status", |leaked| {
                    let mut payload = vec![0x41u8; geom.filler_len];
                    payload.extend_from_slice(&leaked[region.clone()]);
                    payload.extend_from_slice(&[0x41u8; 8]);
                    payload.extend_from_slice(&HIJACK_TARGET.to_le_bytes());
                    payload
                });
                log.push(format!("reuse {} {outcome:?}", leak(&leaked)));
            }
        }
    }
    log.push(server.stats_record().to_json());
    log
}

#[test]
fn reused_worker_reproduces_pinned_connection_values() {
    // Captured from the server that allocated a fresh worker per connection.
    // SSP leaks the same inherited canary on every connection; the P-SSP
    // variants leak a fresh split per fork (P-SSP-NT's comes from the
    // rdrand stream `HardwareRng::split` hands each worker).
    let stats = |scheme: &str, deployment: &str, policy: &str| {
        format!(
            "{{\"scheme\":\"{scheme}\",\"deployment\":\"{deployment}\",\
             \"fork_canary_policy\":\"{policy}\",\"seed\":24605,\"connections\":8,\
             \"requests\":14,\"crashed_workers\":4,\"forks\":8}}"
        )
    };
    let keep_alive =
        |canary: &str| format!("keep-alive Survived {canary} Survived Detected Crashed");
    let expected = |scheme, deployment, policy, canaries: [&str; 6]| -> Vec<String> {
        vec![
            format!("leak Survived {}", canaries[0]),
            "serve Survived".to_string(),
            keep_alive(canaries[1]),
            format!("reuse {} Hijacked", canaries[2]),
            format!("leak Survived {}", canaries[3]),
            "serve Survived".to_string(),
            keep_alive(canaries[4]),
            format!("reuse {} Hijacked", canaries[5]),
            stats(scheme, deployment, policy),
        ]
    };
    let ssp = "c76556b99efc6ebe/361a1a8f0408078f";
    let cells = [
        (SchemeKind::Ssp, Deployment::Compiler, expected("SSP", "compiler", "inherited", [ssp; 6])),
        (
            SchemeKind::Pssp,
            Deployment::Compiler,
            expected(
                "P-SSP",
                "compiler",
                "rerandomized",
                [
                    "a739645f142cb0fa605c32e68ad0de44/42bd1f337911e4e4",
                    "5d2b491e714e3a709a4e1fa7efb254ce/4f9a115623915f84",
                    "2ac44a43ef02dd36eda11cfa71feb388/eb451e3727ed7778",
                    "4942cc659c096ec78e279adc02f50079/62a5d17a0a396460",
                    "dcb10824027f25611bd45e9d9c834bdf/07b0f0184bf73264",
                    "4d0ebd44ee5c8a3a8a6bebfd70a0e484/6d60e76477183a74",
                ],
            ),
        ),
        (
            SchemeKind::PsspNt,
            Deployment::Compiler,
            expected(
                "P-SSP-NT",
                "compiler",
                "rerandomized",
                [
                    "a78a00d442da7ac060ef566ddc26147e/efcd2562ded08b30",
                    "e1ec5691e92de21d2689002877d18ca3/f578761804330db4",
                    "37960aec39048869f0f35c55a7f8e6d7/9042ab0aa38cef14",
                    "e6bd70ef6d28341321d82656f3d45aad/0937be373f7f00a0",
                    "d142f254a62efcdd1627a4ed38d29263/fee358d08ad27c14",
                    "1c29deed439b146adb4c8854dd677ad4/479849093d39d634",
                ],
            ),
        ),
        (
            SchemeKind::PsspBin32,
            Deployment::BinaryRewriter,
            expected(
                "P-SSP (binary, 32-bit)",
                "binary-rewriter",
                "rerandomized",
                [
                    "2da92d51eacc7be8/13a49ed5401ef069",
                    "a5bd956d62d8c3d4/6f0292fa10b97891",
                    "dbd848541cbd1eed/7b2d3a89e9694b21",
                    "7c1e57f9bb7b0140/e156d049e4ad7825",
                    "74c6e18cb3a3b735/07a79b1dd9c018d5",
                    "1b885d3bdced0b82/39fcf6134c6cc351",
                ],
            ),
        ),
    ];
    for (scheme, deployment, expected) in cells {
        let config = VictimConfig::new(scheme, 0x601D).with_deployment(deployment);
        assert_eq!(connection_log(config), expected, "{scheme}");
    }
}

/// The victim configurations whose connection logs
/// `reused_worker_reproduces_pinned_connection_values` pins.
const PINNED_CELLS: [(SchemeKind, Deployment); 4] = [
    (SchemeKind::Ssp, Deployment::Compiler),
    (SchemeKind::Pssp, Deployment::Compiler),
    (SchemeKind::PsspNt, Deployment::Compiler),
    (SchemeKind::PsspBin32, Deployment::BinaryRewriter),
];

#[test]
fn kept_server_rebooted_through_every_config_reproduces_the_pinned_logs() {
    // One server is rebooted through every pinned configuration in turn,
    // forwards and backwards, so each victim boots into a worker another
    // scheme's victim used.  That worker is left crashed (every log ends
    // in a hijack) or holding a keep-alive connection that survived a
    // request.  Each victim must still log exactly what a server of its
    // own logs, which the pinned test fixes value by value.
    let configs = PINNED_CELLS
        .map(|(scheme, deployment)| VictimConfig::new(scheme, 0x601D).with_deployment(deployment));
    let fresh = configs.map(connection_log);
    let snapshots = configs.map(|config| VictimSnapshot::build(VictimKey::of(&config)));
    for keep_alive in [false, true] {
        for reversed in [false, true] {
            let mut order: Vec<usize> = (0..configs.len()).collect();
            if reversed {
                order.reverse();
            }
            let warm = order[order.len() - 1];
            let mut server = ForkingServer::from_snapshot(&snapshots[warm], 0xBEEF);
            log_connections(&mut server);
            for index in order {
                if keep_alive {
                    let mut conn = server.connect();
                    assert!(conn.send(b"ping").survived());
                    assert!(conn.is_open());
                }
                server.reboot(&snapshots[index], configs[index].seed);
                let context = format!("{} (keep-alive {keep_alive})", configs[index].scheme);
                assert_eq!(log_connections(&mut server), fresh[index], "{context}");
            }
        }
    }
}

#[test]
fn mixed_reuse_campaign_on_kept_servers_matches_from_scratch_victims() {
    // Every campaign worker boots its victims into one kept server; the
    // runs must equal per-victim from-scratch compiles and boots at every
    // worker count.
    let population = Population::from_members(
        "ssp-pssp-bin32",
        [
            PopulationMember::new(1, SchemeKind::Ssp),
            PopulationMember::new(1, SchemeKind::Pssp),
            PopulationMember::new(1, SchemeKind::PsspBin32)
                .with_deployment(Deployment::BinaryRewriter),
        ],
    );
    let base = Campaign::against(AttackKind::Reuse, population)
        .with_seed_range(0x4EE5_F1EE7, 300)
        .with_stop_rule(StopRule::Exhaustive)
        .with_shard_size(8);
    let expected: Vec<_> = (0..base.seed_count())
        .map(|index| {
            let seed = base.seed_at(index);
            AttackKind::Reuse.run_once(base.victim_config_at(index, seed))
        })
        .collect();
    for scheme in [SchemeKind::Ssp, SchemeKind::Pssp, SchemeKind::PsspBin32] {
        assert!(expected.iter().any(|result| result.scheme == scheme), "the fleet mixes {scheme}");
    }
    for workers in [1, 2, 8] {
        let report = base.clone().with_workers(workers).run();
        assert_eq!(report.runs.len(), expected.len(), "{workers} workers");
        for (index, (run, result)) in report.runs.iter().zip(&expected).enumerate() {
            assert_eq!(run.seed, base.seed_at(index), "{workers} workers, victim {index}");
            assert_eq!(&run.result, result, "{workers} workers, victim {index}");
        }
    }
}

#[test]
fn reused_worker_reproduces_pinned_byte_by_byte_results() {
    // (scheme, budget, success, trials, recovered canary, counters' tail),
    // captured from the allocate-per-connection server.
    let cells = [
        (SchemeKind::Ssp, 3_000u64, true, 1_290u64, "c76556b99efc6ebe", 1_282u64),
        (SchemeKind::PsspNt, 600, false, 367, "6e", 366),
    ];
    for (scheme, budget, success, trials, canary, crashed) in cells {
        let mut server = ForkingServer::new(VictimConfig::new(scheme, 0x601D));
        let geometry = server.geometry();
        let result = ByteByByteAttack::with_budget(budget).run(&mut server, geometry, scheme);
        assert_eq!(result.success, success, "{scheme}");
        assert_eq!(result.trials, trials, "{scheme}");
        assert_eq!(result.recovered_canary.as_deref().map(hex).as_deref(), Some(canary));
        assert_eq!(server.connections_served(), trials, "{scheme}");
        assert_eq!(server.crashed_workers(), crashed, "{scheme}");
        assert_eq!(server.forked_workers(), trials, "{scheme}");
    }
}
