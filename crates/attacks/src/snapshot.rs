//! Snapshot-keyed victim construction for fleet-scale campaigns.
//!
//! Building a [`ForkingServer`](crate::server::ForkingServer) victim means
//! compiling (or rewriting) the victim binary and booting a machine — by far
//! the most expensive part of a campaign run, and *identical* for every seed
//! that shares a scheme × deployment × buffer-size configuration.  This
//! module hoists that seed-independent work into a [`VictimSnapshot`]
//! (wrapping a VM [`Snapshot`]) and memoizes snapshots per campaign in a
//! [`SnapshotCache`], so a 10^5-victim fleet compiles each distinct victim
//! binary exactly once and boots every server from the captured program.
//!
//! Equivalence with the from-scratch path is a hard invariant: for any seed,
//! `ForkingServer::from_snapshot(&VictimSnapshot::build(key), seed)` behaves
//! bit-for-bit like `ForkingServer::new(config)` — same geometry, same
//! canaries, same attack verdicts.  The `fleet_engine` integration tests pin
//! this for every scheme × deployment cell.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use polycanary_compiler::OptLevel;
use polycanary_core::scheme::SchemeKind;
use polycanary_vm::cpu::ExecConfig;
use polycanary_vm::snapshot::Snapshot;

use crate::victim::{victim_module, Deployment, FrameGeometry, VictimConfig, HIJACK_TARGET};

/// Stack size of fleet victims.  A campaign worker allocates its stack
/// once, on the first write of the first victim it runs: every later
/// connection, and every later victim booted into the same server
/// ([`ForkingServer::reboot`](crate::server::ForkingServer::reboot)),
/// reforks the kept worker by copying back or zero-filling only the bytes
/// the previous one wrote, so the stack size no longer sets the cost of a
/// fork or a boot.  A small stack keeps that one allocation and the
/// worker's footprint small without affecting any result.
pub(crate) const WORKER_STACK_SIZE: u64 = 16 * 1024;

/// The seed-independent part of a [`VictimConfig`]: everything that decides
/// which victim *binary* is built.  Two configs with equal keys differ only
/// in their boot seed and therefore share one [`VictimSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VictimKey {
    /// The protection scheme of the victim binary.
    pub scheme: SchemeKind,
    /// Deployment vehicle (compiler plugin or binary rewriter).
    pub deployment: Deployment,
    /// Size of the vulnerable stack buffer in bytes.
    pub buffer_size: u32,
    /// Victim-program generator id (`0` = the canonical module).
    pub program: u64,
}

impl VictimKey {
    /// Extracts the snapshot key of a victim configuration (drops the seed).
    pub fn of(config: &VictimConfig) -> Self {
        VictimKey {
            scheme: config.scheme,
            deployment: config.deployment,
            buffer_size: config.buffer_size,
            program: config.program,
        }
    }

    /// Reconstitutes a full victim configuration by attaching a boot seed.
    pub fn config_with_seed(&self, seed: u64) -> VictimConfig {
        VictimConfig {
            scheme: self.scheme,
            buffer_size: self.buffer_size,
            deployment: self.deployment,
            seed,
            program: self.program,
        }
    }
}

/// A pre-built victim: the compiled (or rewritten) binary captured as a VM
/// [`Snapshot`], plus the attacker-visible frame geometry and the scheme
/// that governs the final binary's runtime behaviour.
///
/// Building one performs the whole seed-independent boot pipeline once;
/// [`ForkingServer::from_snapshot`](crate::server::ForkingServer::from_snapshot)
/// then boots servers from it for any number of seeds, each bit-identical
/// to a from-scratch [`ForkingServer::new`](crate::server::ForkingServer::new).
#[derive(Debug, Clone)]
pub struct VictimSnapshot {
    key: VictimKey,
    snapshot: Snapshot,
    geometry: FrameGeometry,
}

impl VictimSnapshot {
    /// Builds the victim binary for `key` through its deployment
    /// pipeline ([`Deployment::build`]) and captures it.
    pub fn build(key: VictimKey) -> Self {
        let build = key.deployment.build(key.scheme);
        let program = build.program(&victim_module(key.buffer_size, key.program), OptLevel::O0);
        // The geometry follows the scheme that governs the final binary
        // (the rewriter keeps SSP's single-slot layout).
        let canary_words = build.runtime_scheme().scheme().canary_region_words();
        let geometry = FrameGeometry {
            filler_len: key.buffer_size as usize,
            canary_region_len: (canary_words as usize) * 8,
        };

        let exec_config =
            ExecConfig { hijack_target: Some(HIJACK_TARGET), ..ExecConfig::default() };
        let snapshot = Snapshot::new(program, exec_config, WORKER_STACK_SIZE);
        VictimSnapshot { key, snapshot, geometry }
    }

    /// The key this victim was built for.
    pub fn key(&self) -> VictimKey {
        self.key
    }

    /// The captured VM snapshot (program + exec config + stack size).
    pub fn vm_snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// The attacker-visible frame geometry of the built binary.
    pub fn geometry(&self) -> FrameGeometry {
        self.geometry
    }

    /// The scheme governing the final binary at runtime.  Equals the key's
    /// scheme under compiler deployment; under the binary rewriter the
    /// deployed scheme is always [`SchemeKind::PsspBin32`].
    pub fn runtime_scheme(&self) -> SchemeKind {
        self.key.deployment.build(self.key.scheme).runtime_scheme()
    }
}

/// Per-campaign memo of victim snapshots: one [`VictimSnapshot`] per
/// distinct [`VictimKey`], built on first request and shared (by `Arc`)
/// with every subsequent victim of the same configuration.
///
/// The cache is thread-safe so sharded campaign workers can pull victims
/// concurrently; the build happens under the map lock, so concurrent
/// requests for the same key never build twice.
#[derive(Debug, Default)]
pub struct SnapshotCache {
    map: Mutex<HashMap<VictimKey, Arc<VictimSnapshot>>>,
    builds: AtomicU64,
    hits: AtomicU64,
}

impl SnapshotCache {
    /// An empty cache.
    pub fn new() -> Self {
        SnapshotCache::default()
    }

    /// The snapshot for `key`, building it on first request.
    pub fn get(&self, key: VictimKey) -> Arc<VictimSnapshot> {
        let mut map = self.map.lock().expect("no builder panicked in the cache");
        if let Some(existing) = map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(existing);
        }
        self.builds.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(VictimSnapshot::build(key));
        map.insert(key, Arc::clone(&built));
        built
    }

    /// Number of snapshots built (== distinct keys requested so far).
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Number of requests served from the memo without building.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_drops_only_the_seed() {
        let config = VictimConfig::new(SchemeKind::Pssp, 1234)
            .with_buffer_size(96)
            .with_deployment(Deployment::Compiler);
        let key = VictimKey::of(&config);
        assert_eq!(key.config_with_seed(1234), config);
        assert_eq!(key, VictimKey::of(&key.config_with_seed(999)));
    }

    #[test]
    fn snapshot_captures_geometry_and_runtime_scheme() {
        let compiled = VictimSnapshot::build(VictimKey {
            scheme: SchemeKind::PsspOwf,
            deployment: Deployment::Compiler,
            buffer_size: 64,
            program: 0,
        });
        assert_eq!(compiled.geometry().canary_region_len, 24);
        assert_eq!(compiled.runtime_scheme(), SchemeKind::PsspOwf);
        assert_eq!(compiled.vm_snapshot().exec_config().hijack_target, Some(HIJACK_TARGET));
        assert_eq!(compiled.vm_snapshot().stack_size(), WORKER_STACK_SIZE);

        let rewritten = VictimSnapshot::build(VictimKey {
            scheme: SchemeKind::PsspBin32,
            deployment: Deployment::BinaryRewriter,
            buffer_size: 64,
            program: 0,
        });
        assert_eq!(rewritten.geometry().canary_region_len, 8, "rewriter keeps SSP layout");
        assert_eq!(rewritten.runtime_scheme(), SchemeKind::PsspBin32);
    }

    #[test]
    fn cache_builds_each_key_once_and_counts_hits() {
        let cache = SnapshotCache::new();
        let key_a = VictimKey {
            scheme: SchemeKind::Ssp,
            deployment: Deployment::Compiler,
            buffer_size: 64,
            program: 0,
        };
        let key_b = VictimKey {
            scheme: SchemeKind::Pssp,
            deployment: Deployment::Compiler,
            buffer_size: 64,
            program: 0,
        };
        let first = cache.get(key_a);
        let again = cache.get(key_a);
        assert!(Arc::ptr_eq(&first, &again), "same key shares one snapshot");
        let _ = cache.get(key_b);
        let _ = cache.get(key_b);
        assert_eq!(cache.builds(), 2);
        assert_eq!(cache.hits(), 2);
    }
}
