//! Multi-seed attack campaigns with parallel fan-out.
//!
//! A single attack run (one victim seed, one strategy) is an anecdote: the
//! byte-by-byte attack against SSP may be lucky or unlucky by hundreds of
//! requests depending on the canary the loader drew.  The paper's §VI-C
//! claims are statistical — *SSP falls in about a thousand requests, P-SSP
//! survives* — so this module provides the statistically robust version:
//! a [`Campaign`] replays one strategy against **N independent victims**
//! (same binary, different loader seeds) and aggregates success rate and the
//! request-count distribution (min / median / p95 / max, mean ± std-dev).
//!
//! Victims are completely independent, so campaigns fan out over the shared
//! parallel [`JobPool`], using its sharded executor
//! ([`JobPool::run_sharded_with`]): the calling thread and its helpers pull
//! contiguous shards of victim indices from an atomic cursor, deposit each
//! finished shard once, and the stop rule is evaluated *event-driven* on
//! seed-ordered result prefixes as shards arrive.  Every run is
//! deterministic in its seed, which makes the aggregate deterministic too:
//! the report is identical whatever the worker-thread count (only
//! `wall_time` and the speculation telemetry vary; speculation comes in
//! whole shards).  The adaptive [`StopRule::Sprt`] ends a campaign early —
//! cancelling every shard not yet claimed — once Wald's sequential
//! probability-ratio test crosses a decision boundary (after three runs on
//! unanimous populations).
//!
//! Fleet scale comes from snapshot-keyed victim construction: all victims
//! sharing a scheme × deployment × buffer-size configuration are built from
//! one memoized [`VictimSnapshot`](crate::snapshot::VictimSnapshot) (see
//! [`SnapshotCache`]), each worker boots its victims into one kept
//! [`ForkingServer`] ([`ForkingServer::reboot`]), and seeds are drawn
//! lazily per index — a 10^5-victim campaign allocates nothing
//! proportional to the fleet size beyond the runs it actually reports.
//!
//! # Example
//!
//! ```
//! use polycanary_attacks::campaign::{AttackKind, Campaign};
//! use polycanary_core::scheme::SchemeKind;
//!
//! // Byte-by-byte vs classic SSP over 8 victim seeds: falls every time.
//! let report = Campaign::new(AttackKind::ByteByByte { budget: 4_000 }, SchemeKind::Ssp)
//!     .with_seed_range(0xA77A, 8)
//!     .run();
//! assert_eq!(report.success_rate(), 1.0);
//! let stats = report.trial_stats().unwrap();
//! assert!(stats.min >= 64 && stats.max <= 8 * 256 + 1);
//! ```

use std::collections::HashSet;
use std::time::{Duration, Instant};

use polycanary_core::record::{Record, Value};
use polycanary_core::scheme::SchemeKind;

use crate::byte_by_byte::ByteByByteAttack;
use crate::exhaustive::ExhaustiveAttack;
use crate::pool::JobPool;
use crate::population::Population;
use crate::reuse::CanaryReuseAttack;
use crate::snapshot::{SnapshotCache, VictimKey};
use crate::stats::AttackResult;
use crate::victim::{Deployment, ForkingServer, VictimConfig};

/// Strategy selector: which attack a campaign replays against every victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// The BROP-style byte-by-byte attack of §II-B.
    ByteByByte {
        /// Oracle-query budget per victim.
        budget: u64,
    },
    /// Whole-word exhaustive guessing (§III-C1).
    Exhaustive {
        /// Oracle-query budget per victim.
        budget: u64,
    },
    /// The canary-disclosure-and-reuse attack (§IV-C).
    Reuse,
}

impl AttackKind {
    /// Strategy name as used in [`AttackResult::strategy`].
    pub fn name(&self) -> &'static str {
        match self {
            AttackKind::ByteByByte { .. } => "byte-by-byte",
            AttackKind::Exhaustive { .. } => "exhaustive",
            AttackKind::Reuse => "canary-reuse",
        }
    }

    /// Runs this strategy once against a fresh victim built from scratch
    /// for `victim` (compile + boot — the anecdote path).
    pub fn run_once(&self, victim: VictimConfig) -> AttackResult {
        let mut server = ForkingServer::new(victim);
        self.drive(&mut server, victim.scheme)
    }

    /// Runs this strategy once against a victim booted from `cache` into
    /// `server` — the campaign path, where every victim sharing a
    /// configuration boots from one memoized snapshot and each campaign
    /// worker boots all of its victims into one kept server
    /// ([`ForkingServer::reboot`]); an empty slot gets a new server.
    /// Bit-identical to [`AttackKind::run_once`] for any seed, whatever
    /// the slot held; only the construction cost differs.
    pub fn run_once_with(
        &self,
        cache: &SnapshotCache,
        victim: VictimConfig,
        server: &mut Option<ForkingServer>,
    ) -> AttackResult {
        let snapshot = cache.get(VictimKey::of(&victim));
        let server = match server {
            Some(server) => {
                server.reboot(&snapshot, victim.seed);
                server
            }
            None => server.insert(ForkingServer::from_snapshot(&snapshot, victim.seed)),
        };
        self.drive(server, victim.scheme)
    }

    fn drive(&self, server: &mut ForkingServer, scheme: SchemeKind) -> AttackResult {
        match *self {
            AttackKind::ByteByByte { budget } => {
                let geometry = server.geometry();
                ByteByByteAttack::with_budget(budget).run(server, geometry, scheme)
            }
            AttackKind::Exhaustive { budget } => {
                let geometry = server.geometry();
                ExhaustiveAttack::with_budget(budget).run(server, geometry, scheme)
            }
            AttackKind::Reuse => CanaryReuseAttack::default().run(server),
        }
    }
}

/// Wilson score interval for a binomial proportion: the plausible range of
/// the true success rate after observing `successes` out of `n` runs, at
/// normal quantile `z` (1.96 ≈ 95 % confidence).  Returns `(0, 1)` for
/// `n == 0`.
pub fn wilson_interval(successes: u64, n: u64, z: f64) -> (f64, f64) {
    if n == 0 {
        return (0.0, 1.0);
    }
    let nf = n as f64;
    let p = successes as f64 / nf;
    let z2 = z * z;
    let denom = 1.0 + z2 / nf;
    let centre = p + z2 / (2.0 * nf);
    let margin = z * ((p * (1.0 - p) + z2 / (4.0 * nf)) / nf).sqrt();
    (((centre - margin) / denom).max(0.0), ((centre + margin) / denom).min(1.0))
}

/// Statistical verdict of a campaign: does the attack break the scheme?
///
/// A campaign the SPRT stopped carries the SPRT's decision; every other
/// campaign is judged by the 95 % Wilson interval of its success rate
/// against 1/2.  For populations whose outcome tends one way — every cell
/// in the paper's tables is unanimous — adaptive (early-stopped) and
/// exhaustive campaigns agree on it; for per-seed success rates near the
/// threshold the SPRT's decision carries its α / β error probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The success rate is provably above 1/2 — the scheme falls.
    Breaks,
    /// The success rate is provably below 1/2 — the scheme resists.
    Resists,
    /// Too few runs (or too mixed an outcome) to settle either way.
    Inconclusive,
}

impl Verdict {
    /// Display label ("breaks" / "resists" / "inconclusive").
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Breaks => "breaks",
            Verdict::Resists => "resists",
            Verdict::Inconclusive => "inconclusive",
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Adaptive-budget policy: when may a campaign stop before exhausting its
/// seed list?
///
/// Stop decisions are evaluated event-driven on seed-ordered result
/// prefixes (per completed run, as results arrive at the sharded
/// executor's coordinator), never on worker finish order, so a campaign's
/// report stays deterministic in the seed list and independent of the
/// worker count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopRule {
    /// Run every configured seed (the default).
    Exhaustive,
    /// Wald's sequential probability-ratio test: stop as soon as the
    /// accumulated log-likelihood ratio between "the attack breaks the
    /// scheme" (success rate [`SPRT_P1`]) and "the scheme resists" (success
    /// rate [`SPRT_P0`]) crosses the boundary for error rates `alpha` /
    /// `beta`.  On unanimous populations this settles in
    /// `ceil(ln((1-beta)/alpha) / ln(p1/p0))` runs — 3 at the default 5 %
    /// error rates — so no run is spent past the point where the evidence
    /// is already conclusive.
    Sprt {
        /// Type-I error bound: probability of declaring "breaks" when the
        /// true success rate is [`SPRT_P0`].
        alpha: f64,
        /// Type-II error bound: probability of declaring "resists" when the
        /// true success rate is [`SPRT_P1`].
        beta: f64,
    },
}

/// SPRT null-hypothesis success rate ("the scheme resists"): the lower edge
/// of the indifference region around the 1/2 verdict threshold.
pub const SPRT_P0: f64 = 0.2;
/// SPRT alternative-hypothesis success rate ("the attack breaks the
/// scheme"): the upper edge of the indifference region.
pub const SPRT_P1: f64 = 0.8;

impl StopRule {
    /// The standard sequential rule: Wald SPRT at 5 % error rates both
    /// ways — three unanimous runs settle the verdict either way.
    pub fn sprt() -> Self {
        StopRule::Sprt { alpha: 0.05, beta: 0.05 }
    }

    /// Display label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            StopRule::Exhaustive => "exhaustive",
            StopRule::Sprt { .. } => "sprt",
        }
    }

    /// The early verdict this rule reaches after observing `successes` out
    /// of `runs` completed runs, if the evidence suffices — `None` keeps
    /// the campaign running.
    pub fn decision(&self, successes: u64, runs: u64) -> Option<Verdict> {
        if runs == 0 {
            return None;
        }
        match *self {
            StopRule::Exhaustive => None,
            StopRule::Sprt { alpha, beta } => {
                let s = successes as f64;
                let f = (runs - successes) as f64;
                let llr =
                    s * (SPRT_P1 / SPRT_P0).ln() + f * ((1.0 - SPRT_P1) / (1.0 - SPRT_P0)).ln();
                if llr >= ((1.0 - beta) / alpha).ln() {
                    Some(Verdict::Breaks)
                } else if llr <= (beta / (1.0 - alpha)).ln() {
                    Some(Verdict::Resists)
                } else {
                    None
                }
            }
        }
    }

    /// Whether a campaign that observed `successes` out of `runs` completed
    /// runs may stop early.
    pub fn should_stop(&self, successes: u64, runs: u64) -> bool {
        self.decision(successes, runs).is_some()
    }

    /// Default shard size (contiguous victim indices per worker claim) for
    /// campaigns under this rule: large shards amortize scheduling for
    /// exhaustive sweeps, single-victim shards keep an adaptive campaign's
    /// speculative overshoot past the settle point bounded by the worker
    /// count.
    fn default_shard_size(&self) -> usize {
        match *self {
            StopRule::Exhaustive => 64,
            StopRule::Sprt { .. } => 1,
        }
    }
}

/// One completed attack run within a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignRun {
    /// The victim's loader seed.
    pub seed: u64,
    /// The attack outcome against that victim.
    pub result: AttackResult,
}

/// Request-count distribution over a set of runs.
///
/// Percentiles use the nearest-rank definition on the sorted sample, so
/// every reported value is an actually observed request count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialStats {
    /// Smallest observed request count.
    pub min: u64,
    /// Nearest-rank 50th percentile.
    pub median: u64,
    /// Nearest-rank 95th percentile.
    pub p95: u64,
    /// Largest observed request count.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
}

impl TrialStats {
    /// Computes the distribution of `samples`; `None` when empty.
    pub fn from_samples(samples: &[u64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let nearest_rank = |q: f64| -> u64 {
            let rank = (q * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        let mean = sorted.iter().sum::<u64>() as f64 / sorted.len() as f64;
        let variance = sorted
            .iter()
            .map(|&t| {
                let d = t as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / sorted.len() as f64;
        Some(TrialStats {
            min: sorted[0],
            median: nearest_rank(0.50),
            p95: nearest_rank(0.95),
            max: *sorted.last().expect("non-empty"),
            mean,
            std_dev: variance.sqrt(),
        })
    }
}

impl std::fmt::Display for TrialStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.0} ± {:.0} (min {}, median {}, p95 {}, max {})",
            self.mean, self.std_dev, self.min, self.median, self.p95, self.max
        )
    }
}

/// Aggregate outcome of a [`Campaign`].
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Strategy name.
    pub attack: &'static str,
    /// Scheme of the fleet's dominant (heaviest) [`Population`] member —
    /// for uniform populations, the scheme protecting every victim.
    pub scheme: SchemeKind,
    /// Deployment vehicle of the dominant population member.
    pub deployment: Deployment,
    /// The victim fleet the campaign attacked; per-victim schemes of a
    /// mixed fleet are in each run's [`AttackResult::scheme`].
    pub population: Population,
    /// Per-seed runs, in the order the seeds were configured (not the order
    /// workers finished them), so reports are reproducible.  Under an
    /// adaptive [`StopRule`] this may be a prefix of the configured seeds.
    pub runs: Vec<CampaignRun>,
    /// Number of seeds the campaign was configured with; `runs.len()` falls
    /// short of this exactly when a stop rule fired early.
    pub configured_seeds: usize,
    /// The adaptive-budget policy the campaign ran under; a decision it
    /// reached is also the campaign's [`CampaignReport::verdict`].
    pub stop_rule: StopRule,
    /// Contiguous victim indices per worker shard claim (part of the
    /// campaign configuration, so deterministic).
    pub shard_size: usize,
    /// Victim servers actually booted, **including** speculative boots past
    /// the settle point whose results were discarded.  Scheduling
    /// telemetry: varies with worker timing, so it is not exported in
    /// [`CampaignReport::record`] — but it is always strictly less than the
    /// configured seed count when a stop rule cancelled shards.
    pub victims_built: usize,
    /// Shards workers claimed (same telemetry caveat as
    /// [`CampaignReport::victims_built`]).
    pub shards_claimed: usize,
    /// Victim snapshots built by the campaign's [`SnapshotCache`] — one per
    /// distinct scheme × deployment × buffer-size configuration attacked
    /// (telemetry; the deterministic equivalent is
    /// [`CampaignReport::snapshot_configs`]).
    pub snapshot_builds: u64,
    /// Victim boots served from the memo without building (telemetry; the
    /// deterministic equivalent is [`CampaignReport::snapshot_reuses`]).
    pub snapshot_hits: u64,
    /// Wall-clock time of the whole fan-out.
    pub wall_time: Duration,
    /// Worker threads used.
    pub workers: usize,
}

impl CampaignReport {
    /// Number of runs.
    pub fn campaigns(&self) -> u64 {
        self.runs.len() as u64
    }

    /// Number of runs that ended in an undetected hijack.
    pub fn successes(&self) -> u64 {
        self.runs.iter().filter(|r| r.result.success).count() as u64
    }

    /// Fraction of runs that succeeded, in `[0, 1]`.
    pub fn success_rate(&self) -> f64 {
        if self.runs.is_empty() {
            0.0
        } else {
            self.successes() as f64 / self.campaigns() as f64
        }
    }

    /// Whether the attack succeeded against every victim seed.
    ///
    /// Vacuously **false** on an empty report: zero runs prove nothing, so
    /// [`CampaignReport::all_succeeded`] and
    /// [`CampaignReport::none_succeeded`] are both `false` there (rather
    /// than the classical vacuous truth) — an empty campaign never
    /// certifies a scheme as broken *or* as resistant.
    pub fn all_succeeded(&self) -> bool {
        !self.runs.is_empty() && self.successes() == self.campaigns()
    }

    /// Whether the attack failed against every victim seed.
    ///
    /// Vacuously **false** on an empty report, mirroring
    /// [`CampaignReport::all_succeeded`] — see there.
    pub fn none_succeeded(&self) -> bool {
        !self.runs.is_empty() && self.successes() == 0
    }

    /// Statistical verdict of the campaign, designed so adaptive and
    /// exhaustive campaigns over the same victim population agree whenever
    /// the population's outcome is settled rather than mixed (see
    /// [`Verdict`] for the caveat near the threshold).
    ///
    /// Judges with the same test the campaign's [`StopRule`] stopped on (so
    /// a campaign the SPRT declared settled never reads back as
    /// inconclusive); exhaustive campaigns — and SPRT ones that ran out of
    /// seeds undecided — use the 95 % Wilson interval against a success
    /// rate of 1/2.
    pub fn verdict(&self) -> Verdict {
        if self.runs.is_empty() {
            return Verdict::Inconclusive;
        }
        if let Some(verdict) = self.stop_rule.decision(self.successes(), self.campaigns()) {
            return verdict;
        }
        let (low, high) = wilson_interval(self.successes(), self.campaigns(), 1.96);
        if low > 0.5 {
            Verdict::Breaks
        } else if high < 0.5 {
            Verdict::Resists
        } else {
            Verdict::Inconclusive
        }
    }

    /// Total oracle requests sent over all runs — the attacker-effort cost
    /// an adaptive stop rule reduces.
    pub fn total_requests(&self) -> u64 {
        self.runs.iter().map(|r| r.result.trials).sum()
    }

    /// Whether a stop rule ended the campaign before its full seed list.
    pub fn stopped_early(&self) -> bool {
        self.runs.len() < self.configured_seeds
    }

    /// Configured victims the stop rule cancelled before they were ever
    /// scheduled — the victim-construction work an adaptive campaign saved
    /// versus an exhaustive one.  Deterministic (unlike
    /// [`CampaignReport::victims_built`], which counts speculation).
    pub fn victims_cancelled(&self) -> usize {
        self.configured_seeds - self.runs.len()
    }

    /// Distinct victim configurations (scheme × deployment × buffer size)
    /// among the reported runs — the number of snapshots a fleet campaign
    /// needs to build.  Deterministic: derived from the runs' seed-selected
    /// population members (at their original victim indices, so rollout
    /// fleets resolve the stage each run drew under), not from cache timing.
    pub fn snapshot_configs(&self) -> usize {
        self.runs
            .iter()
            .enumerate()
            .map(|(index, run)| {
                let member = self.population.member_at(index, run.seed);
                (member.scheme, member.deployment, member.buffer_size)
            })
            .collect::<HashSet<_>>()
            .len()
    }

    /// Reported victim boots served by snapshot reuse instead of a fresh
    /// compile: `completed seeds − distinct configurations`.  Deterministic
    /// companion to [`CampaignReport::snapshot_hits`].
    pub fn snapshot_reuses(&self) -> usize {
        self.runs.len() - self.snapshot_configs()
    }

    /// Request-count distribution over **all** runs.
    pub fn trial_stats(&self) -> Option<TrialStats> {
        TrialStats::from_samples(&self.runs.iter().map(|r| r.result.trials).collect::<Vec<_>>())
    }

    /// Request-count distribution over the **successful** runs only.
    pub fn success_trial_stats(&self) -> Option<TrialStats> {
        TrialStats::from_samples(
            &self
                .runs
                .iter()
                .filter(|r| r.result.success)
                .map(|r| r.result.trials)
                .collect::<Vec<_>>(),
        )
    }

    /// The self-describing record form of this report, including the
    /// per-seed runs, for JSON/CSV export.
    pub fn record(&self) -> Record {
        let runs: Vec<Value> = self
            .runs
            .iter()
            .map(|run| {
                let mut rec = Record::new()
                    .field("seed", run.seed)
                    .field("success", run.result.success)
                    .field("requests", run.result.trials);
                if let Some(outcome) = run.result.final_outcome {
                    rec.push("final_outcome", outcome.label());
                }
                Value::Record(rec)
            })
            .collect();
        let mut rec = Record::new()
            .field("attack", self.attack)
            .field("scheme", self.scheme.name())
            .field("deployment", self.deployment.label())
            .field("population", self.population.label());
        if !self.population.is_uniform() {
            rec.push("population_mix", self.population.record());
        }
        let mut rec = rec
            .field("stop_rule", self.stop_rule.label())
            .field("configured_seeds", self.configured_seeds)
            .field("completed_seeds", self.runs.len())
            .field("stopped_early", self.stopped_early())
            .field("successes", self.successes())
            .field("success_rate", self.success_rate())
            .field("verdict", self.verdict().label())
            .field("total_requests", self.total_requests())
            .field("shard_size", self.shard_size)
            .field("victims_cancelled", self.victims_cancelled())
            .field("snapshot_configs", self.snapshot_configs())
            .field("snapshot_reuses", self.snapshot_reuses())
            .field("wall_ms", self.wall_time.as_secs_f64() * 1_000.0)
            .field("workers", self.workers);
        if let Some(stats) = self.success_trial_stats() {
            rec.push("success_requests_mean", stats.mean);
            rec.push("success_requests_median", stats.median);
            rec.push("success_requests_p95", stats.p95);
            rec.push("success_requests_max", stats.max);
        }
        rec.field("runs", runs)
    }
}

/// Driver replaying one attack strategy against N independently seeded
/// victims, fanned out over scoped worker threads.
///
/// Reports are a pure function of the seed list — the worker count only
/// changes wall time:
///
/// ```
/// use polycanary_attacks::campaign::{AttackKind, Campaign};
/// use polycanary_core::scheme::SchemeKind;
///
/// let report = Campaign::new(AttackKind::ByteByByte { budget: 4_000 }, SchemeKind::Ssp)
///     .with_seed_range(0xA77A, 4)
///     .with_workers(2)
///     .run();
/// assert_eq!(report.success_rate(), 1.0); // classic SSP falls in every seed
/// assert!(report.trial_stats().unwrap().mean > 64.0);
/// ```
#[derive(Debug, Clone)]
pub struct Campaign {
    attack: AttackKind,
    population: Population,
    buffer_size: u32,
    program: u64,
    seeds: SeedSource,
    workers: Option<usize>,
    stop_rule: StopRule,
    shard_size: Option<usize>,
}

/// Where a campaign's victim seeds come from: an explicit list, or a lazy
/// per-index derivation that allocates nothing proportional to the fleet
/// size — the representation behind [`Campaign::with_seeds`] and
/// [`Campaign::with_seed_range`] respectively.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SeedSource {
    /// Caller-supplied seeds, materialized.
    Explicit(Vec<u64>),
    /// `count` seeds derived on demand from `base` via [`derive_seed`] —
    /// how a 10^5-victim fleet stays allocation-free until results exist.
    Derived { base: u64, count: usize },
}

impl SeedSource {
    fn len(&self) -> usize {
        match self {
            SeedSource::Explicit(seeds) => seeds.len(),
            SeedSource::Derived { count, .. } => *count,
        }
    }

    fn get(&self, index: usize) -> u64 {
        match self {
            SeedSource::Explicit(seeds) => seeds[index],
            SeedSource::Derived { base, count } => {
                assert!(index < *count, "seed index {index} out of range {count}");
                derive_seed(*base, index as u64)
            }
        }
    }
}

/// Default number of victim seeds per campaign — enough for the §VI-C
/// tables to report a spread rather than an anecdote.
pub const DEFAULT_SEEDS: usize = 32;

impl Campaign {
    /// A campaign of `attack` against compiler-deployed victims protected by
    /// `scheme` (a uniform [`Population`]), with [`DEFAULT_SEEDS`] seeds and
    /// one worker per CPU.
    pub fn new(attack: AttackKind, scheme: SchemeKind) -> Self {
        Campaign::against(attack, Population::uniform(scheme))
    }

    /// A campaign of `attack` against an arbitrary victim fleet — a
    /// uniform population reproduces the paper's tables, a mixed one
    /// produces the in-between success rates that exercise the SPRT's
    /// indifference region.
    pub fn against(attack: AttackKind, population: Population) -> Self {
        Campaign {
            attack,
            population,
            buffer_size: 64,
            program: 0,
            seeds: SeedSource::Derived { base: 0x00DD_5EED, count: DEFAULT_SEEDS },
            workers: None,
            stop_rule: StopRule::Exhaustive,
            shard_size: None,
        }
    }

    /// Replaces the victim fleet.
    #[must_use]
    pub fn with_population(mut self, population: Population) -> Self {
        self.population = population;
        self
    }

    /// Selects the deployment vehicle of every victim (every population
    /// member).
    #[must_use]
    pub fn with_deployment(mut self, deployment: Deployment) -> Self {
        self.population = self.population.with_deployment(deployment);
        self
    }

    /// Overrides the vulnerable buffer size of every victim (population
    /// members with an explicit buffer override keep theirs).
    #[must_use]
    pub fn with_buffer_size(mut self, size: u32) -> Self {
        self.buffer_size = size;
        self
    }

    /// Selects a generated victim-program variant for every victim
    /// (`0`, the default, is the canonical hand-written server).
    #[must_use]
    pub fn with_program(mut self, program: u64) -> Self {
        self.program = program;
        self
    }

    /// Uses exactly these victim seeds (duplicates allowed; report order is
    /// this order).
    #[must_use]
    pub fn with_seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = SeedSource::Explicit(seeds.into_iter().collect());
        self
    }

    /// Uses `count` seeds derived deterministically from `base`.
    ///
    /// The seeds are drawn lazily per index ([`derive_seed`]), so this is
    /// how fleet campaigns scale: `count` can be 10^5+ without allocating a
    /// seed list.
    #[must_use]
    pub fn with_seed_range(mut self, base: u64, count: usize) -> Self {
        self.seeds = SeedSource::Derived { base, count };
        self
    }

    /// Overrides the worker-thread count (default: one per available CPU,
    /// capped at the seed count; `0` is treated as `1`).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Selects the adaptive-budget policy (default:
    /// [`StopRule::Exhaustive`]).
    #[must_use]
    pub fn with_stop_rule(mut self, stop_rule: StopRule) -> Self {
        self.stop_rule = stop_rule;
        self
    }

    /// Overrides the scheduling shard size — contiguous victim indices per
    /// worker claim (`0` is treated as `1`).  The default depends on the
    /// stop rule: 64 for exhaustive sweeps, 1 for adaptive campaigns so
    /// cancellation waste stays bounded by the worker count.  Results are
    /// identical for any shard size; only scheduling telemetry varies.
    #[must_use]
    pub fn with_shard_size(mut self, shard_size: usize) -> Self {
        self.shard_size = Some(shard_size.max(1));
        self
    }

    /// The configured victim seeds, materialized for inspection.
    ///
    /// This allocates a list proportional to the seed count — fine for
    /// tests and table-sized campaigns; fleet-scale callers should use
    /// [`Campaign::seed_at`] / [`Campaign::seed_count`] instead, which
    /// never materialize the range.
    pub fn seeds(&self) -> Vec<u64> {
        (0..self.seeds.len()).map(|i| self.seeds.get(i)).collect()
    }

    /// The victim seed at `index` (lazy; panics when out of range).
    pub fn seed_at(&self, index: usize) -> u64 {
        self.seeds.get(index)
    }

    /// Number of configured victim seeds.
    pub fn seed_count(&self) -> usize {
        self.seeds.len()
    }

    /// The configured victim fleet.
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// The victim a given seed produces — exposed so experiments and tests
    /// can assert properties (e.g. the frame geometry) of exactly the
    /// binaries the campaign attacks.  For mixed populations the seed also
    /// selects the population member (see [`Population::member_for`]).
    /// Rollout fleets additionally need the victim's position — use
    /// [`Campaign::victim_config_at`] there.
    pub fn victim_config(&self, seed: u64) -> VictimConfig {
        self.config_for(self.population.member_for(seed), seed)
    }

    /// The victim built at position `index` with `seed` — identical to
    /// [`Campaign::victim_config`] for static fleets; under a
    /// [`RolloutCurve`](crate::population::RolloutCurve) the member draw
    /// uses the stage weights in force at `index`.
    pub fn victim_config_at(&self, index: usize, seed: u64) -> VictimConfig {
        self.config_for(self.population.member_at(index, seed), seed)
    }

    fn config_for(&self, member: &crate::population::PopulationMember, seed: u64) -> VictimConfig {
        VictimConfig::new(member.scheme, seed)
            .with_deployment(member.deployment)
            .with_buffer_size(member.buffer_size.unwrap_or(self.buffer_size))
            .with_program(self.program)
    }

    /// Runs the campaign, fanning the per-seed runs out over the sharded
    /// [`JobPool`] executor ([`JobPool::run_sharded_with`]).
    ///
    /// Workers pull shards of victim indices ([`Campaign::with_shard_size`])
    /// and boot each victim from the campaign's [`SnapshotCache`], so each
    /// distinct victim configuration is compiled exactly once.  Each worker
    /// keeps one server and boots every victim it runs into it
    /// ([`AttackKind::run_once_with`]), so the victim's worker process is
    /// allocated once per campaign worker, not once per victim.  Under an
    /// adaptive [`StopRule`] the rule is evaluated event-driven on every
    /// seed-ordered result prefix, and the first settling prefix cancels
    /// all unscheduled shards; results a parallel worker computed past that
    /// point are discarded, exactly as if the campaign had run serially and
    /// stopped there.  Because the prefix walk never depends on worker
    /// finish order, the report stays deterministic in the seed list
    /// whatever the parallelism.
    pub fn run(&self) -> CampaignReport {
        let total = self.seeds.len();
        let shard_size = self.shard_size.unwrap_or_else(|| self.stop_rule.default_shard_size());
        let workers =
            self.workers.map(JobPool::with_workers).unwrap_or_default().resolved_workers(total);
        let pool = JobPool::with_workers(workers);
        let cache = SnapshotCache::new();
        let started = Instant::now();

        let mut successes = 0u64;
        let outcome = pool.run_sharded_with(
            total,
            shard_size,
            || None,
            |server, index| {
                let seed = self.seeds.get(index);
                let victim = self.victim_config_at(index, seed);
                CampaignRun { seed, result: self.attack.run_once_with(&cache, victim, server) }
            },
            |index, run: &CampaignRun| {
                successes += u64::from(run.result.success);
                self.stop_rule.should_stop(successes, index as u64 + 1)
            },
        );

        let dominant = *self.population.dominant();
        CampaignReport {
            attack: self.attack.name(),
            scheme: dominant.scheme,
            deployment: dominant.deployment,
            population: self.population.clone(),
            runs: outcome.results,
            configured_seeds: total,
            stop_rule: self.stop_rule,
            shard_size,
            victims_built: outcome.executed,
            shards_claimed: outcome.shards_claimed,
            snapshot_builds: cache.builds(),
            snapshot_hits: cache.hits(),
            wall_time: started.elapsed(),
            workers,
        }
    }
}

/// Derives the `index`-th victim seed of the range based at `base`
/// (SplitMix64-style odd-constant stride so nearby bases do not share
/// seeds) — the lazy per-index form [`Campaign::with_seed_range`] draws
/// from.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    (base ^ 0x5851_F42D_4C95_7F2D)
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .rotate_left(17)
}

/// Derives `count` well-spread victim seeds from `base` (the materialized
/// form of [`derive_seed`]).
pub fn derive_seeds(base: u64, count: usize) -> Vec<u64> {
    (0..count as u64).map(|i| derive_seed(base, i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::RequestOutcome;

    #[test]
    fn derive_seeds_is_deterministic_and_distinct() {
        let a = derive_seeds(7, 64);
        let b = derive_seeds(7, 64);
        assert_eq!(a, b);
        let mut unique = a.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 64, "derived seeds must be pairwise distinct");
        assert_ne!(derive_seeds(8, 4), derive_seeds(7, 4));
        // The lazy per-index form is the same function.
        for (i, &seed) in a.iter().enumerate() {
            assert_eq!(derive_seed(7, i as u64), seed);
        }
    }

    #[test]
    fn seed_ranges_are_lazy_and_indexable_at_fleet_scale() {
        // A 10^6-victim campaign configures instantly and draws any seed
        // without materializing the range.
        let fleet =
            Campaign::new(AttackKind::Reuse, SchemeKind::Ssp).with_seed_range(0xF1EE7, 1_000_000);
        assert_eq!(fleet.seed_count(), 1_000_000);
        assert_eq!(fleet.seed_at(0), derive_seed(0xF1EE7, 0));
        assert_eq!(fleet.seed_at(999_999), derive_seed(0xF1EE7, 999_999));
        // Explicit lists still answer identically.
        let explicit = Campaign::new(AttackKind::Reuse, SchemeKind::Ssp).with_seeds([5, 6, 7]);
        assert_eq!(explicit.seed_count(), 3);
        assert_eq!(explicit.seed_at(1), 6);
        assert_eq!(explicit.seeds(), vec![5, 6, 7]);
    }

    #[test]
    fn campaign_builds_one_snapshot_per_victim_configuration() {
        let uniform = Campaign::new(AttackKind::Exhaustive { budget: 20 }, SchemeKind::Pssp)
            .with_seed_range(11, 6)
            .with_workers(1)
            .run();
        assert_eq!(uniform.snapshot_builds, 1, "uniform fleet compiles once");
        assert_eq!(uniform.snapshot_hits, 5);
        assert_eq!(uniform.snapshot_configs(), 1);
        assert_eq!(uniform.snapshot_reuses(), 5);
        assert_eq!(uniform.victims_built, 6);

        let mixed = Campaign::against(
            AttackKind::Exhaustive { budget: 20 },
            Population::mixed("half", [(1, SchemeKind::Ssp), (1, SchemeKind::Pssp)]),
        )
        .with_seed_range(0x417C, 12)
        .with_workers(1)
        .run();
        assert_eq!(mixed.snapshot_configs(), 2, "one snapshot per member configuration");
        assert_eq!(mixed.snapshot_builds, 2);
        assert_eq!(mixed.snapshot_hits as usize, 12 - 2);
    }

    #[test]
    fn adaptive_campaign_cancels_unscheduled_victim_constructions() {
        let report = Campaign::new(AttackKind::Exhaustive { budget: 50 }, SchemeKind::Pssp)
            .with_seed_range(13, 64)
            .with_stop_rule(StopRule::sprt())
            .with_workers(1)
            .run();
        assert_eq!(report.campaigns(), 3, "unanimous SPRT settles in 3");
        assert_eq!(report.victims_built, 3, "serial runs never speculate");
        assert_eq!(report.victims_cancelled(), 61);
        assert_eq!(report.shard_size, 1, "adaptive campaigns default to unit shards");
        // Exhaustive shard-size default amortizes scheduling instead.
        let exhaustive = Campaign::new(AttackKind::Exhaustive { budget: 20 }, SchemeKind::Pssp)
            .with_seed_range(13, 8)
            .run();
        assert_eq!(exhaustive.shard_size, 64);
        assert_eq!(exhaustive.victims_cancelled(), 0);
    }

    #[test]
    fn snapshot_boot_matches_from_scratch_boot_per_seed() {
        // run_once and run_once_with are pinned bit-identical for every
        // attack kind (the fleet_engine battery covers every scheme cell).
        let cache = SnapshotCache::new();
        for attack in [
            AttackKind::ByteByByte { budget: 3_000 },
            AttackKind::Exhaustive { budget: 50 },
            AttackKind::Reuse,
        ] {
            let victim = VictimConfig::new(SchemeKind::Ssp, 0xD15EA5E);
            assert_eq!(
                attack.run_once(victim),
                attack.run_once_with(&cache, victim, &mut None),
                "{} must not depend on the construction path",
                attack.name()
            );
        }
    }

    #[test]
    fn same_seed_same_attack_is_bitwise_reproducible() {
        // Determinism at the single-run level: one victim seed, one
        // strategy, identical request count and outcome every time.
        for attack in [
            AttackKind::ByteByByte { budget: 3_000 },
            AttackKind::Exhaustive { budget: 50 },
            AttackKind::Reuse,
        ] {
            let victim = VictimConfig::new(SchemeKind::Ssp, 0xD15EA5E);
            let first = attack.run_once(victim);
            let second = attack.run_once(victim);
            assert_eq!(first, second, "{} must be deterministic in the seed", attack.name());
        }
    }

    #[test]
    fn report_is_independent_of_worker_count() {
        let base = Campaign::new(AttackKind::ByteByByte { budget: 3_000 }, SchemeKind::Ssp)
            .with_seed_range(42, 6);
        let serial = base.clone().with_workers(1).run();
        let parallel = base.clone().with_workers(4).run();
        let oversubscribed = base.with_workers(64).run();
        assert_eq!(serial.runs, parallel.runs);
        assert_eq!(serial.runs, oversubscribed.runs);
        assert_eq!(parallel.workers, 4);
        // 64 workers for 6 seeds is clamped to the seed count.
        assert_eq!(oversubscribed.workers, 6);
    }

    #[test]
    fn ssp_falls_in_every_seed_and_pssp_in_none() {
        let ssp = Campaign::new(AttackKind::ByteByByte { budget: 4_000 }, SchemeKind::Ssp)
            .with_seed_range(1, 8)
            .run();
        assert!(ssp.all_succeeded(), "SSP must fall in every seed: {ssp:?}");
        let stats = ssp.success_trial_stats().expect("all succeeded");
        assert!(stats.min >= 64 && stats.max <= 8 * 256 + 1, "{stats}");
        assert!(stats.min <= stats.median && stats.median <= stats.p95 && stats.p95 <= stats.max);

        let pssp = Campaign::new(AttackKind::ByteByByte { budget: 4_000 }, SchemeKind::Pssp)
            .with_seed_range(1, 8)
            .run();
        assert!(pssp.none_succeeded(), "P-SSP must survive every seed");
        assert!(pssp.success_trial_stats().is_none());
        assert_eq!(pssp.success_rate(), 0.0);
    }

    #[test]
    fn reuse_campaign_only_owf_resists() {
        let pssp = Campaign::new(AttackKind::Reuse, SchemeKind::Pssp).with_seed_range(3, 6).run();
        assert!(pssp.all_succeeded());
        let owf = Campaign::new(AttackKind::Reuse, SchemeKind::PsspOwf).with_seed_range(3, 6).run();
        assert!(owf.none_succeeded());
        assert_eq!(
            owf.runs[0].result.final_outcome,
            Some(RequestOutcome::Detected),
            "OWF detects the replayed canary"
        );
    }

    #[test]
    fn exhaustive_campaign_never_breaks_either_scheme_in_small_budgets() {
        for scheme in [SchemeKind::Ssp, SchemeKind::Pssp] {
            let report = Campaign::new(AttackKind::Exhaustive { budget: 200 }, scheme)
                .with_seed_range(9, 4)
                .run();
            assert!(report.none_succeeded(), "{scheme}");
            let stats = report.trial_stats().expect("has runs");
            assert_eq!(stats.min, 200);
            assert_eq!(stats.max, 200);
            assert_eq!(stats.std_dev, 0.0);
        }
    }

    #[test]
    fn trial_stats_nearest_rank_percentiles() {
        let stats = TrialStats::from_samples(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]).unwrap();
        assert_eq!(stats.min, 10);
        assert_eq!(stats.median, 50); // nearest-rank: ceil(0.5 * 10) = 5th value
        assert_eq!(stats.p95, 100); // ceil(0.95 * 10) = 10th value
        assert_eq!(stats.max, 100);
        assert!((stats.mean - 55.0).abs() < 1e-9);
        assert_eq!(TrialStats::from_samples(&[]), None);
        let single = TrialStats::from_samples(&[7]).unwrap();
        assert_eq!((single.min, single.median, single.p95, single.max), (7, 7, 7, 7));
    }

    #[test]
    fn wilson_interval_is_sane() {
        // n = 0 is the whole unit interval.
        assert_eq!(wilson_interval(0, 0, 1.96), (0.0, 1.0));
        // Unanimous success over 4 runs clears 1/2 from above ...
        let (low, _) = wilson_interval(4, 4, 1.96);
        assert!(low > 0.5, "low = {low}");
        // ... unanimous failure clears it from below ...
        let (_, high) = wilson_interval(0, 4, 1.96);
        assert!(high < 0.5, "high = {high}");
        // ... and a 3/4 split settles nothing.
        let (low, high) = wilson_interval(3, 4, 1.96);
        assert!(low < 0.5 && high > 0.5, "({low}, {high})");
        // The interval always brackets the point estimate.
        let (low, high) = wilson_interval(7, 20, 1.96);
        assert!(low < 0.35 && 0.35 < high);
    }

    #[test]
    fn empty_report_is_vacuously_unsettled() {
        let report =
            Campaign::new(AttackKind::Reuse, SchemeKind::Ssp).with_seeds(std::iter::empty()).run();
        assert_eq!(report.campaigns(), 0);
        // Zero runs prove nothing: neither "all" nor "none" succeeded.
        assert!(!report.all_succeeded());
        assert!(!report.none_succeeded());
        assert_eq!(report.verdict(), Verdict::Inconclusive);
        assert_eq!(report.success_rate(), 0.0);
        assert_eq!(report.total_requests(), 0);
        assert!(!report.stopped_early());
    }

    #[test]
    fn adaptive_campaign_agrees_with_exhaustive_and_spends_less() {
        let base = Campaign::new(AttackKind::ByteByByte { budget: 3_000 }, SchemeKind::Ssp)
            .with_seed_range(2, 12);
        let exhaustive = base.clone().run();
        let adaptive = base.with_stop_rule(StopRule::sprt()).run();
        assert_eq!(exhaustive.verdict(), Verdict::Breaks);
        assert_eq!(adaptive.verdict(), exhaustive.verdict(), "verdicts must agree");
        assert!(adaptive.stopped_early(), "unanimous SSP breaks settle early");
        assert_eq!(adaptive.configured_seeds, 12);
        assert!(
            adaptive.total_requests() < exhaustive.total_requests(),
            "{} vs {}",
            adaptive.total_requests(),
            exhaustive.total_requests()
        );
        // The adaptive runs are a prefix of the exhaustive ones.
        assert_eq!(adaptive.runs[..], exhaustive.runs[..adaptive.runs.len()]);
    }

    #[test]
    fn sprt_campaign_agrees_with_exhaustive_and_spends_less_than_wilson() {
        for (scheme, expected) in
            [(SchemeKind::Ssp, Verdict::Breaks), (SchemeKind::Pssp, Verdict::Resists)]
        {
            let base = Campaign::new(AttackKind::ByteByByte { budget: 3_000 }, scheme)
                .with_seed_range(4, 10);
            let exhaustive = base.clone().run();
            let sprt = base.with_stop_rule(StopRule::sprt()).run();
            assert_eq!(exhaustive.verdict(), expected, "{scheme}");
            assert_eq!(sprt.verdict(), expected, "{scheme}");
            // The shortest exhaustive prefix whose 95 % Wilson interval
            // clears 1/2: where a Wilson-interval stop would have settled.
            let wilson_runs = (1..=exhaustive.runs.len())
                .find(|&n| {
                    let prefix = &exhaustive.runs[..n];
                    let successes = prefix.iter().filter(|r| r.result.success).count() as u64;
                    let (low, high) = wilson_interval(successes, n as u64, 1.96);
                    low > 0.5 || high < 0.5
                })
                .expect("a unanimous population settles the Wilson interval");
            let wilson_requests: u64 =
                exhaustive.runs[..wilson_runs].iter().map(|r| r.result.trials).sum();
            // Unanimous population: SPRT settles after 3 runs, Wilson after 4.
            assert_eq!(sprt.campaigns(), 3, "{scheme}");
            assert_eq!(wilson_runs, 4, "{scheme}");
            assert!(
                sprt.total_requests() < wilson_requests,
                "{scheme}: {} vs {}",
                sprt.total_requests(),
                wilson_requests
            );
            // The SPRT runs are a prefix of the exhaustive ones.
            assert_eq!(sprt.runs[..], exhaustive.runs[..3]);
            assert!(sprt.stopped_early());
        }
    }

    #[test]
    fn adaptive_stop_is_independent_of_worker_count() {
        let base = Campaign::new(AttackKind::ByteByByte { budget: 3_000 }, SchemeKind::Ssp)
            .with_seed_range(2, 12)
            .with_stop_rule(StopRule::sprt());
        let serial = base.clone().with_workers(1).run();
        let parallel = base.with_workers(8).run();
        assert_eq!(serial.runs, parallel.runs);
        assert_eq!(serial.verdict(), Verdict::Breaks);
        assert!(serial.stopped_early());
    }

    #[test]
    fn mixed_outcomes_never_stop_the_sprt_rule() {
        let rule = StopRule::sprt();
        assert!(!rule.should_stop(0, 0));
        assert!(!rule.should_stop(2, 4));
        assert!(!rule.should_stop(3, 4));
        assert!(!rule.should_stop(4, 6));
        assert!(rule.should_stop(4, 5));
        assert!(rule.should_stop(1, 5));
        assert_eq!(StopRule::Exhaustive.label(), "exhaustive");
        assert_eq!(rule.label(), "sprt");
    }

    #[test]
    fn sprt_decides_after_three_unanimous_runs() {
        let sprt = StopRule::sprt();
        // Unanimous successes: SPRT needs 3 runs.
        assert_eq!(sprt.decision(2, 2), None);
        assert_eq!(sprt.decision(3, 3), Some(Verdict::Breaks));
        // Symmetrically for unanimous failures.
        assert_eq!(sprt.decision(0, 2), None);
        assert_eq!(sprt.decision(0, 3), Some(Verdict::Resists));
        // The exhaustive rule never decides early.
        assert_eq!(StopRule::Exhaustive.decision(8, 8), None);
        // Mixed evidence keeps the test running.
        assert_eq!(sprt.decision(2, 4), None);
        assert_eq!(sprt.decision(3, 5), None);
        // But a strong majority eventually crosses the boundary.
        assert_eq!(sprt.decision(9, 10), Some(Verdict::Breaks));
        assert_eq!(sprt.decision(1, 10), Some(Verdict::Resists));
        assert!(!sprt.should_stop(0, 0));
    }

    #[test]
    fn sprt_stop_is_independent_of_worker_count() {
        let base = Campaign::new(AttackKind::Exhaustive { budget: 100 }, SchemeKind::Pssp)
            .with_seed_range(6, 10)
            .with_stop_rule(StopRule::sprt());
        let serial = base.clone().with_workers(1).run();
        let parallel = base.with_workers(8).run();
        assert_eq!(serial.runs, parallel.runs);
        assert_eq!(serial.verdict(), Verdict::Resists);
        assert_eq!(serial.stop_rule.label(), "sprt");
        assert!(serial.stopped_early());
    }

    #[test]
    fn verdict_matches_the_rule_that_stopped_the_campaign() {
        let dummy_runs = |successes: usize, failures: usize| -> Vec<CampaignRun> {
            (0..successes + failures)
                .map(|i| CampaignRun {
                    seed: i as u64,
                    result: AttackResult {
                        strategy: "byte-by-byte",
                        scheme: SchemeKind::Ssp,
                        success: i < successes,
                        trials: 10,
                        recovered_canary: None,
                        final_outcome: None,
                    },
                })
                .collect()
        };
        // SPRT stops on a 5/7 split (successes − failures = 3) that the
        // 95 % Wilson test would call inconclusive (low bound ≈ 0.359); the
        // report's verdict must agree with the rule that stopped it.
        assert!(StopRule::sprt().should_stop(5, 7));
        let (low, _) = wilson_interval(5, 7, 1.96);
        assert!((0.35..0.5).contains(&low), "low = {low}");
        let report = CampaignReport {
            attack: "byte-by-byte",
            scheme: SchemeKind::Ssp,
            deployment: Deployment::Compiler,
            population: Population::uniform(SchemeKind::Ssp),
            runs: dummy_runs(5, 2),
            configured_seeds: 16,
            stop_rule: StopRule::sprt(),
            shard_size: 1,
            victims_built: 7,
            shards_claimed: 7,
            snapshot_builds: 1,
            snapshot_hits: 6,
            wall_time: Duration::ZERO,
            workers: 1,
        };
        assert_eq!(report.verdict(), Verdict::Breaks);
        let exhaustive = CampaignReport { stop_rule: StopRule::Exhaustive, ..report };
        assert_eq!(exhaustive.verdict(), Verdict::Inconclusive);
    }

    #[test]
    fn report_record_includes_per_seed_runs() {
        use polycanary_core::record::Value;

        let report = Campaign::new(AttackKind::Exhaustive { budget: 20 }, SchemeKind::Pssp)
            .with_seed_range(1, 4)
            .run();
        let rec = report.record();
        assert_eq!(rec.get("scheme"), Some(&Value::Str("P-SSP".into())));
        assert_eq!(rec.get("completed_seeds"), Some(&Value::UInt(4)));
        assert_eq!(rec.get("verdict"), Some(&Value::Str("resists".into())));
        let Some(Value::List(runs)) = rec.get("runs") else {
            panic!("record must nest the per-seed runs: {rec:?}")
        };
        assert_eq!(runs.len(), 4);
        let Value::Record(first) = &runs[0] else { panic!("runs are records") };
        assert_eq!(first.get("seed"), Some(&Value::UInt(report.runs[0].seed)));
        assert_eq!(first.get("requests"), Some(&Value::UInt(20)));
    }

    #[test]
    fn mixed_population_campaign_is_non_degenerate_and_reproducible() {
        let fleet = Population::mixed("half", [(1, SchemeKind::Ssp), (1, SchemeKind::Pssp)]);
        let base = Campaign::against(AttackKind::ByteByByte { budget: 3_000 }, fleet.clone())
            .with_seed_range(0x417C, 12);
        let once = base.clone().run();
        let twice = base.run();
        assert_eq!(once.runs, twice.runs);
        // A genuinely mixed fleet produces an in-between success rate.
        assert!(once.successes() > 0 && once.successes() < once.campaigns(), "{once:?}");
        assert_eq!(once.population, fleet);
        // Per-run schemes reflect each seed's member draw.
        for run in &once.runs {
            assert_eq!(run.result.scheme, fleet.member_for(run.seed).scheme);
            assert_eq!(
                run.result.success,
                run.result.scheme == SchemeKind::Ssp,
                "SSP victims fall, P-SSP victims survive: {run:?}"
            );
        }
    }

    #[test]
    fn mixed_population_record_labels_the_fleet() {
        use polycanary_core::record::Value;

        let report = Campaign::against(
            AttackKind::Exhaustive { budget: 20 },
            Population::mixed("half", [(1, SchemeKind::Ssp), (1, SchemeKind::Pssp)]),
        )
        .with_seed_range(3, 4)
        .run();
        let rec = report.record();
        assert_eq!(rec.get("population"), Some(&Value::Str("half".into())));
        let Some(Value::Record(mix)) = rec.get("population_mix") else {
            panic!("mixed campaigns export their member mix: {rec:?}")
        };
        let Some(Value::List(members)) = mix.get("members") else { panic!("members nest") };
        assert_eq!(members.len(), 2);
        // Uniform campaigns stay lean: label only, no mix record.
        let uniform = Campaign::new(AttackKind::Exhaustive { budget: 20 }, SchemeKind::Pssp)
            .with_seed_range(3, 2)
            .run()
            .record();
        assert_eq!(uniform.get("population"), Some(&Value::Str("P-SSP".into())));
        assert!(uniform.get("population_mix").is_none());
    }

    #[test]
    fn rollout_campaign_is_index_aware_and_worker_count_independent() {
        use crate::population::{PopulationMember, RolloutCurve};

        // A rollout that starts all-SSP and flips to all-P-SSP after 4
        // victims: the early runs fall, the late runs resist, whatever the
        // worker count.
        let fleet = Population::from_members(
            "staged-patch",
            [PopulationMember::new(1, SchemeKind::Pssp), PopulationMember::new(1, SchemeKind::Ssp)],
        )
        .with_rollout(RolloutCurve::new(4, vec![vec![0, 1], vec![1, 0]]).unwrap())
        .unwrap();
        let base = Campaign::against(AttackKind::ByteByByte { budget: 3_000 }, fleet.clone())
            .with_seed_range(0x5107, 8);
        let serial = base.clone().with_workers(1).run();
        let parallel = base.with_workers(8).run();
        assert_eq!(serial.runs, parallel.runs);
        for (index, run) in serial.runs.iter().enumerate() {
            let expected = if index < 4 { SchemeKind::Ssp } else { SchemeKind::Pssp };
            assert_eq!(run.result.scheme, expected, "victim {index}");
            assert_eq!(run.result.success, expected == SchemeKind::Ssp, "victim {index}");
        }
        assert_eq!(serial.snapshot_configs(), 2);
    }

    #[test]
    fn member_buffer_overrides_and_programs_reach_the_victim_config() {
        use crate::population::PopulationMember;

        let fleet = Population::from_members(
            "hetero",
            [
                PopulationMember::new(1, SchemeKind::Pssp).with_buffer_size(128),
                PopulationMember::new(1, SchemeKind::Ssp),
            ],
        );
        let campaign = Campaign::against(AttackKind::Reuse, fleet)
            .with_buffer_size(32)
            .with_program(0xDEAD_BEEF);
        for seed in campaign.seeds().into_iter().take(8) {
            let config = campaign.victim_config(seed);
            let expected = match config.scheme {
                SchemeKind::Pssp => 128, // member override wins
                _ => 32,                 // campaign default fills in
            };
            assert_eq!(config.buffer_size, expected);
            assert_eq!(config.program, 0xDEAD_BEEF);
        }
    }

    #[test]
    fn generated_victim_programs_keep_the_paper_verdicts() {
        // The PRNG program axis varies the binary's static shape, not the
        // vulnerable endpoints: SSP still falls, P-SSP still resists.
        let ssp = Campaign::new(AttackKind::ByteByByte { budget: 4_000 }, SchemeKind::Ssp)
            .with_program(0xC0FFEE)
            .with_seed_range(1, 4)
            .run();
        assert!(ssp.all_succeeded(), "{ssp:?}");
        let pssp = Campaign::new(AttackKind::ByteByByte { budget: 4_000 }, SchemeKind::Pssp)
            .with_program(0xC0FFEE)
            .with_seed_range(1, 4)
            .run();
        assert!(pssp.none_succeeded(), "{pssp:?}");
    }

    #[test]
    fn rewriter_deployment_campaign_resists_byte_by_byte() {
        let report = Campaign::new(AttackKind::ByteByByte { budget: 2_000 }, SchemeKind::PsspBin32)
            .with_deployment(Deployment::BinaryRewriter)
            .with_seed_range(5, 4)
            .run();
        assert!(report.none_succeeded(), "rewritten binaries must resist: {report:?}");
    }
}
