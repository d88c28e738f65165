//! Attacker framework for the polycanary reproduction.
//!
//! The effectiveness claims of the paper (§II-B, §III-C, §VI-C) are about
//! what a remote attacker can and cannot do against a forking network
//! server.  This crate provides:
//!
//! * [`victim`] — the victim definition: the vulnerable binary (unbounded
//!   `strcpy`-style overflow plus, for the exposure experiments, an
//!   over-read disclosure bug), deployment vehicle and frame geometry.
//! * [`server`] — the long-lived forking server running that victim: the
//!   parent process lives across the whole attack and serves each attacker
//!   connection from a freshly forked worker whose canaries are inherited
//!   or re-randomized per the scheme's fork-canary policy.
//! * [`oracle`] — the attacker's crash/no-crash view of that server.
//! * [`byte_by_byte`] — the BROP-style byte-by-byte attack that breaks SSP
//!   in ~1024 requests and fails against P-SSP.
//! * [`exhaustive`] — whole-word guessing, against which P-SSP and SSP are
//!   equally strong.
//! * [`reuse`] — the canary-disclosure-and-reuse attack that only
//!   P-SSP-OWF survives.
//! * [`pool`] — the reusable parallel job pool every experiment fans out
//!   on: one sharded, early-stopping executor (scoped worker threads over
//!   an atomic work queue) that plain table fan-outs and fleet campaigns
//!   share.
//! * [`snapshot`] — snapshot-keyed victim construction: the compile/boot
//!   pipeline runs once per distinct victim configuration and every further
//!   victim of that configuration boots from the captured image.
//! * [`population`] — victim fleets: uniform (every paper table) or
//!   weighted mixes such as a 70 %-patched fleet, whose in-between success
//!   rates exercise the stop rule's indifference region.
//! * [`campaign`] — multi-seed campaigns fanning any of the above out over
//!   the pool and aggregating success-rate and request-count statistics
//!   (the statistically robust version of §VI-C), with an optional adaptive
//!   stop rule — Wald's sequential probability-ratio test — that ends a
//!   campaign once its verdict is statistically settled.
//!
//! # Quick example
//!
//! ```
//! use polycanary_attacks::byte_by_byte::ByteByByteAttack;
//! use polycanary_attacks::victim::{ForkingServer, VictimConfig};
//! use polycanary_core::scheme::SchemeKind;
//!
//! // The byte-by-byte attack breaks a classic-SSP server ...
//! let mut ssp = ForkingServer::new(VictimConfig::new(SchemeKind::Ssp, 42));
//! let geometry = ssp.geometry();
//! let result = ByteByByteAttack::default().run(&mut ssp, geometry, SchemeKind::Ssp);
//! assert!(result.success);
//!
//! // ... and fails against the same server compiled with P-SSP.
//! let mut pssp = ForkingServer::new(VictimConfig::new(SchemeKind::Pssp, 42));
//! let geometry = pssp.geometry();
//! let result = ByteByByteAttack::with_budget(5_000).run(&mut pssp, geometry, SchemeKind::Pssp);
//! assert!(!result.success);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod byte_by_byte;
pub mod campaign;
pub mod exhaustive;
pub mod oracle;
pub mod pool;
pub mod population;
pub mod reuse;
pub mod server;
pub mod snapshot;
pub mod stats;
pub mod victim;

pub use byte_by_byte::ByteByByteAttack;
pub use campaign::{
    derive_seed, derive_seeds, wilson_interval, AttackKind, Campaign, CampaignReport, CampaignRun,
    StopRule, TrialStats, Verdict,
};
pub use exhaustive::ExhaustiveAttack;
pub use oracle::{OverflowOracle, RequestOutcome};
pub use pool::{JobPool, ShardOutcome};
pub use population::{Population, PopulationMember};
pub use reuse::CanaryReuseAttack;
pub use server::{Connection, ForkingServer};
pub use snapshot::{SnapshotCache, VictimKey, VictimSnapshot};
pub use stats::AttackResult;
pub use victim::{Deployment, FrameGeometry, VictimConfig, HIJACK_TARGET};
