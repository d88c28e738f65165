//! Victim populations: the fleet a campaign attacks.
//!
//! The paper's tables campaign one attack against N victims that all run
//! the *same* defence — unanimous populations whose success rate is 0 or 1.
//! Real fleets are rarely unanimous: a partially rolled-out patch leaves,
//! say, 70 % of the servers on P-SSP and 30 % on classic SSP, and the
//! campaign's empirical success rate lands *between* the endpoints — right
//! where the SPRT stop rule's indifference region and error budget
//! actually matter.  A [`Population`] describes such a fleet as a weighted
//! mix of [`PopulationMember`]s; every victim seed deterministically draws
//! one member, so mixed campaigns stay bitwise reproducible and
//! worker-count independent like uniform ones.
//!
//! # Example
//!
//! ```
//! use polycanary_attacks::population::Population;
//! use polycanary_core::scheme::SchemeKind;
//!
//! // A fleet where the P-SSP rollout reached 70 % of the servers.
//! let fleet = Population::mixed("patched-70", [
//!     (7, SchemeKind::Pssp),
//!     (3, SchemeKind::Ssp),
//! ]);
//! assert!(!fleet.is_uniform());
//! // The same seed always maps to the same member.
//! assert_eq!(fleet.member_for(42).scheme, fleet.member_for(42).scheme);
//! ```

use std::fmt;

use polycanary_core::record::{Record, Value};
use polycanary_core::scheme::SchemeKind;
use polycanary_crypto::{Prng, SplitMix64};

use crate::victim::Deployment;

/// One slice of a [`Population`]: a defence configuration plus the weight
/// of the fleet running it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PopulationMember {
    /// Relative share of the fleet (weights need not sum to anything
    /// particular; only ratios matter).
    pub weight: u32,
    /// The protection scheme of this slice's victims.
    pub scheme: SchemeKind,
    /// Deployment vehicle of this slice's victims.
    pub deployment: Deployment,
    /// Vulnerable-buffer size of this slice's victims; `None` inherits the
    /// campaign-wide buffer size, so heterogeneous fleets can mix frame
    /// geometries (not just schemes and deployments).
    pub buffer_size: Option<u32>,
}

impl PopulationMember {
    /// A compiler-deployed member inheriting the campaign buffer size.
    pub fn new(weight: u32, scheme: SchemeKind) -> Self {
        PopulationMember { weight, scheme, deployment: Deployment::default(), buffer_size: None }
    }

    /// Selects this member's deployment vehicle.
    #[must_use]
    pub fn with_deployment(mut self, deployment: Deployment) -> Self {
        self.deployment = deployment;
        self
    }

    /// Overrides this member's vulnerable-buffer size.
    #[must_use]
    pub fn with_buffer_size(mut self, size: u32) -> Self {
        self.buffer_size = Some(size);
        self
    }

    /// The self-describing record form of this member.
    pub fn record(&self) -> Record {
        let record = Record::new()
            .field("weight", self.weight)
            .field("scheme", self.scheme.name())
            .field("deployment", self.deployment.label());
        match self.buffer_size {
            Some(size) => record.field("buffer_size", size),
            None => record,
        }
    }
}

/// A time-varying reweighting of a [`Population`]: the fleet's member
/// weights change as the campaign progresses, modelling a staged patch
/// rollout (day 1: 10 % patched, day 2: 90 %, day 3: 100 %).
///
/// The campaign's victim index is divided into consecutive *batches* of
/// `batch` victims; batch `k` draws members with `stages[k]`'s weights
/// (the last stage persists once the schedule is exhausted).  Because the
/// stage is a pure function of the victim index and the draw is a pure
/// function of (fleet, seed), rollout campaigns stay bitwise reproducible
/// and worker-count independent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RolloutCurve {
    batch: usize,
    stages: Vec<Vec<u32>>,
}

impl RolloutCurve {
    /// A rollout schedule: `stages[k]` holds the member weights in force
    /// for victims `k*batch .. (k+1)*batch`; the final stage applies to
    /// every victim beyond the schedule.
    ///
    /// # Errors
    ///
    /// [`RolloutError::ZeroBatch`] when `batch` is zero,
    /// [`RolloutError::NoStages`] when `stages` is empty and
    /// [`RolloutError::UnweightedStage`] when a stage has no positive
    /// weight.
    pub fn new(batch: usize, stages: Vec<Vec<u32>>) -> Result<Self, RolloutError> {
        if batch == 0 {
            return Err(RolloutError::ZeroBatch);
        }
        if stages.is_empty() {
            return Err(RolloutError::NoStages);
        }
        if let Some(stage) = stages.iter().position(|s| s.iter().all(|&w| w == 0)) {
            return Err(RolloutError::UnweightedStage { stage });
        }
        Ok(RolloutCurve { batch, stages })
    }

    /// Victims per stage.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The per-stage weight vectors.
    pub fn stages(&self) -> &[Vec<u32>] {
        &self.stages
    }

    /// The weights in force for the victim at `index` (the last stage
    /// persists past the end of the schedule).
    pub fn stage_for(&self, index: usize) -> &[u32] {
        let stage = (index / self.batch).min(self.stages.len() - 1);
        &self.stages[stage]
    }

    /// The self-describing record form of this curve.
    pub fn record(&self) -> Record {
        let stages: Vec<Value> = self
            .stages
            .iter()
            .map(|stage| Value::List(stage.iter().map(|&w| Value::from(u64::from(w))).collect()))
            .collect();
        Record::new().field("batch", self.batch as u64).field("stages", stages)
    }
}

/// Why a [`RolloutCurve`] or a rollout [`Population`] cannot be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutError {
    /// The batch covers no victim.
    ZeroBatch,
    /// The curve has no stage.
    NoStages,
    /// A stage weights no member positively, so it cannot be sampled.
    UnweightedStage {
        /// Index of the stage.
        stage: usize,
    },
    /// A stage does not have exactly one weight per population member.
    StageWidth {
        /// Index of the stage.
        stage: usize,
        /// Weights the stage has.
        weights: usize,
        /// Members the population has.
        members: usize,
    },
}

impl fmt::Display for RolloutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RolloutError::ZeroBatch => write!(f, "a rollout batch must cover at least one victim"),
            RolloutError::NoStages => write!(f, "a rollout curve needs at least one stage"),
            RolloutError::UnweightedStage { stage } => {
                write!(f, "rollout stage {stage} has no positively weighted member")
            }
            RolloutError::StageWidth { stage, weights, members } => write!(
                f,
                "rollout stage {stage} has {weights} weights but must weight all {members} members"
            ),
        }
    }
}

impl std::error::Error for RolloutError {}

/// A weighted victim fleet: every campaign seed deterministically draws one
/// [`PopulationMember`] whose scheme/deployment builds that seed's victim.
///
/// Member selection hashes the victim *seed* (not its position in the seed
/// list) together with a salt derived from the fleet's label and member
/// mix, so the victim a seed produces is a pure function of (fleet, seed) —
/// reports stay reproducible under re-ordered or truncated seed lists,
/// different fleets sample their members independently even over the same
/// seed list, and the empirical mix of a campaign converges on the
/// configured weights as the seed count grows.
#[derive(Debug, Clone, PartialEq)]
pub struct Population {
    label: String,
    members: Vec<PopulationMember>,
    rollout: Option<RolloutCurve>,
    salt: u64,
}

impl Population {
    /// The degenerate fleet every paper table uses: all victims run
    /// `scheme` via the compiler deployment.
    pub fn uniform(scheme: SchemeKind) -> Self {
        Population::build(scheme.name().to_string(), vec![PopulationMember::new(1, scheme)], None)
    }

    /// A mixed fleet from `(weight, scheme)` parts, all compiler-deployed.
    ///
    /// # Panics
    ///
    /// Panics when no part has a positive weight — an unsampleable fleet is
    /// a configuration bug, not a runtime condition.
    pub fn mixed(
        label: impl Into<String>,
        parts: impl IntoIterator<Item = (u32, SchemeKind)>,
    ) -> Self {
        let members: Vec<PopulationMember> = parts
            .into_iter()
            .filter(|(weight, _)| *weight > 0)
            .map(|(weight, scheme)| PopulationMember::new(weight, scheme))
            .collect();
        assert!(!members.is_empty(), "a population needs at least one positively weighted member");
        Population::build(label.into(), members, None)
    }

    /// A fleet from fully specified members, each free to pick its own
    /// scheme, deployment *and* buffer size — the constructor heterogeneous
    /// scenario-grammar populations use.
    ///
    /// # Panics
    ///
    /// Panics when no member has a positive weight.
    pub fn from_members(
        label: impl Into<String>,
        members: impl IntoIterator<Item = PopulationMember>,
    ) -> Self {
        let members: Vec<PopulationMember> = members.into_iter().filter(|m| m.weight > 0).collect();
        assert!(!members.is_empty(), "a population needs at least one positively weighted member");
        Population::build(label.into(), members, None)
    }

    /// Attaches a time-varying [`RolloutCurve`]: member draws switch from
    /// the static weights to the curve's per-batch stage weights.  The
    /// result is a different fleet, so its member-draw salt is recomputed.
    ///
    /// # Errors
    ///
    /// [`RolloutError::StageWidth`] when a stage's weight vector does not
    /// have exactly one weight per member.
    pub fn with_rollout(self, curve: RolloutCurve) -> Result<Self, RolloutError> {
        let members = self.members.len();
        let mut widths = curve.stages().iter().map(Vec::len).enumerate();
        if let Some((stage, weights)) = widths.find(|&(_, w)| w != members) {
            return Err(RolloutError::StageWidth { stage, weights, members });
        }
        Ok(Population::build(self.label, self.members, Some(curve)))
    }

    /// Finalizes a fleet: the member-draw salt folds the label, the member
    /// mix and any rollout curve (FNV-1a), so two different fleets never
    /// share a ticket sequence over the same seed list.
    fn build(label: String, members: Vec<PopulationMember>, rollout: Option<RolloutCurve>) -> Self {
        let mut salt = 0xCBF2_9CE4_8422_2325u64;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                salt = (salt ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        fold(label.as_bytes());
        for member in &members {
            fold(&member.weight.to_le_bytes());
            fold(member.scheme.name().as_bytes());
            fold(member.deployment.label().as_bytes());
            // Only an explicit override is folded, so fleets predating the
            // buffer axis keep their historical salts (and draw sequences).
            if let Some(size) = member.buffer_size {
                fold(b"buffer");
                fold(&size.to_le_bytes());
            }
        }
        if let Some(curve) = &rollout {
            fold(b"rollout");
            fold(&(curve.batch() as u64).to_le_bytes());
            for stage in curve.stages() {
                for weight in stage {
                    fold(&weight.to_le_bytes());
                }
            }
        }
        Population { label, members, rollout, salt }
    }

    /// Display label of the fleet ("P-SSP" for uniform populations).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The configured members.
    pub fn members(&self) -> &[PopulationMember] {
        &self.members
    }

    /// Whether every victim runs the same configuration.
    pub fn is_uniform(&self) -> bool {
        self.members.len() == 1
    }

    /// The heaviest member (first on ties) — the fleet's headline
    /// configuration, used for a report's scalar `scheme` / `deployment`
    /// fields.
    pub fn dominant(&self) -> &PopulationMember {
        self.members.iter().max_by_key(|m| m.weight).expect("populations are constructed non-empty")
    }

    /// Selects the deployment vehicle of **every** member (used by uniform
    /// campaigns switching to the binary rewriter).  The result is a
    /// different fleet, so its member-draw salt is recomputed.
    #[must_use]
    pub fn with_deployment(mut self, deployment: Deployment) -> Self {
        for member in &mut self.members {
            member.deployment = deployment;
        }
        Population::build(self.label, self.members, self.rollout)
    }

    /// The rollout curve, when this fleet's weights vary over time.
    pub fn rollout(&self) -> Option<&RolloutCurve> {
        self.rollout.as_ref()
    }

    /// The member the victim with `seed` draws: the fleet-salted seed is
    /// hashed through a SplitMix64 finalizer and reduced against the
    /// cumulative weights, so nearby seeds land on independent members,
    /// different fleets draw independently over the same seed list, and
    /// every (fleet, seed) draw is fixed forever.
    pub fn member_for(&self, seed: u64) -> &PopulationMember {
        self.draw(seed, self.members.iter().map(|m| m.weight))
    }

    /// The member the victim at position `index` with `seed` draws.  For a
    /// static fleet this is exactly [`member_for`](Population::member_for);
    /// under a [`RolloutCurve`] the draw uses the stage weights in force at
    /// `index`, so the fleet's mix shifts as the campaign progresses while
    /// each individual draw stays a pure function of (fleet, index, seed).
    pub fn member_at(&self, index: usize, seed: u64) -> &PopulationMember {
        match &self.rollout {
            Some(curve) => self.draw(seed, curve.stage_for(index).iter().copied()),
            None => self.member_for(seed),
        }
    }

    /// The weighted-ticket walk behind every draw: `weights` holds one
    /// weight per member, in member order, with at least one positive.
    fn draw(&self, seed: u64, weights: impl Iterator<Item = u32> + Clone) -> &PopulationMember {
        let total: u64 = weights.clone().map(u64::from).sum();
        let mut ticket = SplitMix64::new(seed ^ self.salt).next_u64() % total;
        for (member, weight) in self.members.iter().zip(weights) {
            let weight = u64::from(weight);
            if ticket < weight {
                return member;
            }
            ticket -= weight;
        }
        unreachable!("ticket < total weight by construction")
    }

    /// The self-describing record form of this fleet: label plus the
    /// weighted member mix (and the rollout curve, when one is attached).
    pub fn record(&self) -> Record {
        let record = Record::new().field("label", self.label.as_str()).field(
            "members",
            self.members.iter().map(PopulationMember::record).collect::<Vec<_>>(),
        );
        match &self.rollout {
            Some(curve) => record.field("rollout", curve.record()),
            None => record,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::derive_seeds;

    #[test]
    fn uniform_population_always_draws_its_only_member() {
        let pop = Population::uniform(SchemeKind::Pssp);
        assert!(pop.is_uniform());
        assert_eq!(pop.label(), "P-SSP");
        assert_eq!(pop.dominant().scheme, SchemeKind::Pssp);
        for seed in [0, 1, u64::MAX, 0xDEAD_BEEF] {
            assert_eq!(pop.member_for(seed).scheme, SchemeKind::Pssp);
        }
    }

    #[test]
    fn member_draws_are_deterministic_in_the_seed() {
        let pop = Population::mixed("mix", [(7, SchemeKind::Pssp), (3, SchemeKind::Ssp)]);
        for seed in derive_seeds(0xF00, 64) {
            assert_eq!(pop.member_for(seed), pop.member_for(seed));
        }
    }

    #[test]
    fn mixed_draws_approximate_the_configured_weights() {
        let pop = Population::mixed("patched-70", [(7, SchemeKind::Pssp), (3, SchemeKind::Ssp)]);
        let seeds = derive_seeds(0xA5A5, 1_000);
        let patched =
            seeds.iter().filter(|&&s| pop.member_for(s).scheme == SchemeKind::Pssp).count();
        // 70 % ± a generous sampling margin over 1000 draws.
        assert!((620..=780).contains(&patched), "patched share {patched}/1000");
    }

    #[test]
    fn different_fleets_draw_independently_over_the_same_seeds() {
        let a = Population::mixed("fleet-a", [(1, SchemeKind::Pssp), (1, SchemeKind::Ssp)]);
        let b = Population::mixed("fleet-b", [(1, SchemeKind::Pssp), (1, SchemeKind::Ssp)]);
        let seeds = derive_seeds(1, 64);
        let draws =
            |p: &Population| seeds.iter().map(|&s| p.member_for(s).scheme).collect::<Vec<_>>();
        // Same mix, different identity: the salted tickets decorrelate.
        assert_ne!(draws(&a), draws(&b));
        // Same identity: the draw sequence is stable.
        let a_again = Population::mixed("fleet-a", [(1, SchemeKind::Pssp), (1, SchemeKind::Ssp)]);
        assert_eq!(draws(&a), draws(&a_again));
    }

    #[test]
    fn zero_weight_members_are_never_drawn() {
        let pop =
            Population::mixed("effectively-uniform", [(0, SchemeKind::Ssp), (4, SchemeKind::Pssp)]);
        assert!(pop.is_uniform());
        assert_eq!(pop.member_for(99).scheme, SchemeKind::Pssp);
    }

    #[test]
    #[should_panic(expected = "positively weighted")]
    fn all_zero_weights_are_rejected() {
        let _ = Population::mixed("empty", [(0, SchemeKind::Ssp)]);
    }

    #[test]
    fn with_deployment_rewrites_every_member_and_the_salt() {
        let compiler = Population::mixed("mix", [(1, SchemeKind::PsspBin32), (1, SchemeKind::Ssp)]);
        let rewriter = compiler.clone().with_deployment(Deployment::BinaryRewriter);
        assert!(rewriter.members().iter().all(|m| m.deployment == Deployment::BinaryRewriter));
        // A deployment change makes a different fleet, so its draw sequence
        // decorrelates from the original — the documented invariant that two
        // different fleets never share a ticket sequence.
        let seeds = derive_seeds(3, 64);
        let draws =
            |p: &Population| seeds.iter().map(|&s| p.member_for(s).scheme).collect::<Vec<_>>();
        assert_ne!(draws(&compiler), draws(&rewriter));
    }

    #[test]
    fn from_members_mixes_deployments_and_buffer_sizes() {
        let pop = Population::from_members(
            "hetero",
            [
                PopulationMember::new(3, SchemeKind::Pssp).with_buffer_size(128),
                PopulationMember::new(1, SchemeKind::PsspBin32)
                    .with_deployment(Deployment::BinaryRewriter),
            ],
        );
        assert!(!pop.is_uniform());
        assert_eq!(pop.dominant().buffer_size, Some(128));
        let seeds = derive_seeds(0xBEEF, 256);
        let rewritten = seeds
            .iter()
            .filter(|&&s| pop.member_for(s).deployment == Deployment::BinaryRewriter)
            .count();
        assert!((25..=110).contains(&rewritten), "rewriter share {rewritten}/256");
        // A buffer-size override changes the fleet identity (and salt).
        let other = Population::from_members(
            "hetero",
            [
                PopulationMember::new(3, SchemeKind::Pssp).with_buffer_size(96),
                PopulationMember::new(1, SchemeKind::PsspBin32)
                    .with_deployment(Deployment::BinaryRewriter),
            ],
        );
        assert_ne!(pop, other);
    }

    #[test]
    fn rollout_stages_shift_the_member_draws_over_time() {
        let members =
            [PopulationMember::new(1, SchemeKind::Pssp), PopulationMember::new(1, SchemeKind::Ssp)];
        let curve = RolloutCurve::new(4, vec![vec![0, 1], vec![1, 0]]).unwrap();
        let pop = Population::from_members("rollout", members).with_rollout(curve).unwrap();
        let seeds = derive_seeds(7, 16);
        for (index, &seed) in seeds.iter().enumerate() {
            let expected = if index < 4 { SchemeKind::Ssp } else { SchemeKind::Pssp };
            assert_eq!(pop.member_at(index, seed).scheme, expected, "victim {index}");
        }
        // The last stage persists past the end of the schedule.
        assert_eq!(pop.member_at(1_000, 42).scheme, SchemeKind::Pssp);
        // Without a curve, member_at is exactly member_for.
        let flat = Population::mixed("flat", [(1, SchemeKind::Pssp), (1, SchemeKind::Ssp)]);
        for (index, &seed) in seeds.iter().enumerate() {
            assert_eq!(flat.member_at(index, seed), flat.member_for(seed));
        }
    }

    #[test]
    fn rollout_stage_width_must_match_the_member_count() {
        let members =
            [PopulationMember::new(1, SchemeKind::Pssp), PopulationMember::new(1, SchemeKind::Ssp)];
        let error = Population::from_members("bad", members)
            .with_rollout(RolloutCurve::new(2, vec![vec![1]]).unwrap())
            .unwrap_err();
        assert_eq!(error, RolloutError::StageWidth { stage: 0, weights: 1, members: 2 });
        assert!(error.to_string().contains("must weight all 2 members"), "{error}");
    }

    #[test]
    fn rollout_stages_need_a_positive_weight() {
        let error = RolloutCurve::new(2, vec![vec![0, 0]]).unwrap_err();
        assert_eq!(error, RolloutError::UnweightedStage { stage: 0 });
        assert!(error.to_string().contains("no positively weighted member"), "{error}");
        assert_eq!(RolloutCurve::new(0, vec![vec![1]]), Err(RolloutError::ZeroBatch));
        assert_eq!(RolloutCurve::new(2, Vec::new()), Err(RolloutError::NoStages));
    }

    #[test]
    fn rollout_record_nests_batch_and_stages() {
        let members =
            [PopulationMember::new(1, SchemeKind::Pssp), PopulationMember::new(1, SchemeKind::Ssp)];
        let pop = Population::from_members("curve", members)
            .with_rollout(RolloutCurve::new(3, vec![vec![1, 9], vec![9, 1]]).unwrap())
            .unwrap();
        let rec = pop.record();
        let Some(Value::Record(rollout)) = rec.get("rollout") else { panic!("rollout: {rec:?}") };
        assert_eq!(rollout.get("batch"), Some(&Value::UInt(3)));
        let Some(Value::List(stages)) = rollout.get("stages") else { panic!("stages") };
        assert_eq!(stages.len(), 2);
    }

    #[test]
    fn population_record_nests_the_member_mix() {
        use polycanary_core::record::Value;

        let rec = Population::mixed("half", [(1, SchemeKind::Pssp), (1, SchemeKind::Ssp)]).record();
        assert_eq!(rec.get("label"), Some(&Value::Str("half".into())));
        let Some(Value::List(members)) = rec.get("members") else { panic!("members: {rec:?}") };
        assert_eq!(members.len(), 2);
        let Value::Record(first) = &members[0] else { panic!("member records") };
        assert_eq!(first.get("weight"), Some(&Value::UInt(1)));
    }
}
