//! The scenario grammar: scheme × deployment × attack lattices as
//! first-class experiments.
//!
//! The static registry reproduces the paper's tables one hand-written
//! scenario at a time.  This module closes the coverage gap between those
//! eleven scenarios and the full configuration space the engine supports:
//! a small composable grammar whose sentences are *experiment cells*.
//!
//! * A [`Frag`] is a partial cell — any subset of the grammar's axes
//!   (scheme, deployment vehicle, buffer size, attack strategy, stop rule,
//!   generated victim program, rollout shape, fork-canary-policy
//!   constraint).
//! * A [`ScenarioSet`] is a list of frags with the usual combinators:
//!   per-axis constructors, [`ScenarioSet::cross`] (the row-major product;
//!   panics on axis conflicts and is associative, so lattice definitions
//!   can parenthesize freely), [`ScenarioSet::filter`] and the
//!   deterministic [`ScenarioSet::sample`].
//! * [`ScenarioSet::cells`] materializes frags into concrete [`Cell`]s by
//!   filling unset axes with the registry defaults and dropping
//!   ill-formed combinations (the binary rewriter only ships
//!   [`SchemeKind::PsspBin32`]).
//! * A [`Lattice`] is a named, seeded preset ([`lattices`]); every cell of
//!   a selected lattice registers as an ordinary
//!   [`Experiment`] named `gen:<lattice>:<cell>` through
//!   [`generated_experiments`] — the one dynamic registration path behind
//!   `harness --lattice NAME --gen-seed N` — and flows through listing,
//!   JSON/CSV export, `harness diff` and `harness report` exactly like the
//!   static scenarios.
//!
//! Determinism contract: enumeration order, sampling and every cell's
//! records are a pure function of `(lattice, gen_seed, ExperimentCtx)` —
//! the generator test battery pins byte-identical exports across worker
//! counts and `cross` reassociations.

use std::fmt::Write as _;

use polycanary_attacks::campaign::{AttackKind, Campaign, StopRule};
use polycanary_attacks::population::{Population, PopulationMember, RolloutCurve};
use polycanary_attacks::victim::Deployment;
use polycanary_core::record::Record;
use polycanary_core::scheme::{ForkCanaryPolicy, SchemeKind};
use polycanary_crypto::{Prng, SplitMix64};

use crate::experiments::{
    effectiveness_deployment, format_campaign_cell, Experiment, ExperimentCtx, ScenarioOutput,
    EFFECTIVENESS_SCHEMES,
};

/// Attack axis of the grammar, naming the three §VI-C strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenAttack {
    /// Byte-by-byte guessing against a forking server.
    ByteByByte,
    /// Exhaustive whole-canary guessing under a bounded budget.
    Exhaustive,
    /// Disclose a canary, reconnect, and replay it.
    Reconnect,
}

impl GenAttack {
    /// Slug used in generated scenario names.
    pub fn label(&self) -> &'static str {
        match self {
            GenAttack::ByteByByte => "bbb",
            GenAttack::Exhaustive => "exh",
            GenAttack::Reconnect => "reuse",
        }
    }

    /// The campaign-engine attack this axis value runs, budgeted from the
    /// experiment context like the static effectiveness scenario.
    pub fn kind(&self, ctx: &ExperimentCtx) -> AttackKind {
        match self {
            GenAttack::ByteByByte => AttackKind::ByteByByte { budget: ctx.byte_budget },
            GenAttack::Exhaustive => AttackKind::Exhaustive { budget: 500 },
            GenAttack::Reconnect => AttackKind::Reuse,
        }
    }
}

/// Stop-rule axis of the grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenStop {
    /// Run every victim seed to completion.
    Exhaustive,
    /// Wald's sequential probability-ratio test.
    Sprt,
}

impl GenStop {
    /// Slug used in generated scenario names.
    pub fn label(&self) -> &'static str {
        match self {
            GenStop::Exhaustive => "exhaustive",
            GenStop::Sprt => "sprt",
        }
    }

    /// The campaign stop rule this axis value selects.
    pub fn rule(&self) -> StopRule {
        match self {
            GenStop::Exhaustive => StopRule::Exhaustive,
            GenStop::Sprt => StopRule::sprt(),
        }
    }
}

/// Rollout axis: how a two-member patched-vs-legacy [`Population`] is
/// reweighted over campaign batches ([`RolloutCurve`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutShape {
    /// A flat 50/50 mix for the whole campaign — the SPRT indifference
    /// region's worst case.
    Flat,
    /// A steep rollout: the patched scheme dominates early and takes the
    /// whole fleet by the final stage.
    Steep,
}

impl RolloutShape {
    /// Slug used in generated scenario names.
    pub fn label(&self) -> &'static str {
        match self {
            RolloutShape::Flat => "flat",
            RolloutShape::Steep => "steep",
        }
    }

    /// The curve over a two-member `[patched, legacy]` population, staged
    /// in `batch`-sized victim batches.
    pub fn curve(&self, batch: usize) -> RolloutCurve {
        match self {
            RolloutShape::Flat => RolloutCurve::new(batch, vec![vec![1, 1]]),
            RolloutShape::Steep => {
                RolloutCurve::new(batch, vec![vec![4, 1], vec![8, 1], vec![1, 0]])
            }
        }
    }
}

/// One concrete point of the lattice: every axis resolved.  A cell is the
/// complete configuration of one generated experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Protection scheme of the victim fleet.
    pub scheme: SchemeKind,
    /// Deployment vehicle (compiler plugin or binary rewriter).
    pub deployment: Deployment,
    /// Vulnerable stack-buffer size in bytes.
    pub buffer_size: u32,
    /// Attack strategy campaigned against the cell.
    pub attack: GenAttack,
    /// Campaign stop rule.
    pub stop: GenStop,
    /// Victim-program generator id (`0` = the canonical module).
    pub program: u64,
    /// When set, the campaign runs against a two-member patched-vs-legacy
    /// population reweighted by this rollout shape.
    pub rollout: Option<RolloutShape>,
}

/// Scheme slug used in generated scenario names.
fn scheme_slug(scheme: SchemeKind) -> &'static str {
    match scheme {
        SchemeKind::Native => "native",
        SchemeKind::Ssp => "ssp",
        SchemeKind::RafSsp => "raf-ssp",
        SchemeKind::DynaGuard => "dynaguard",
        SchemeKind::Dcr => "dcr",
        SchemeKind::Pssp => "pssp",
        SchemeKind::PsspNt => "pssp-nt",
        SchemeKind::PsspLv => "pssp-lv",
        SchemeKind::PsspOwf => "pssp-owf",
        SchemeKind::PsspBin32 => "pssp-bin32",
        // `SchemeKind` is non-exhaustive; lattices only name the variants
        // above, so this arm is unreachable from any preset.
        _ => "scheme",
    }
}

/// Deployment slug used in generated scenario names.
fn deployment_slug(deployment: Deployment) -> &'static str {
    match deployment {
        Deployment::Compiler => "cc",
        Deployment::BinaryRewriter => "rw",
    }
}

impl Cell {
    /// The cell's stable name fragment — the `<cell>` part of
    /// `gen:<lattice>:<cell>`.  Every axis appears, so two distinct cells
    /// can never collide.
    pub fn slug(&self) -> String {
        let mut slug = format!(
            "{}-{}-b{}-{}-{}-p{:x}",
            scheme_slug(self.scheme),
            deployment_slug(self.deployment),
            self.buffer_size,
            self.attack.label(),
            self.stop.label(),
            self.program
        );
        if let Some(shape) = self.rollout {
            let _ = write!(slug, "-{}", shape.label());
        }
        slug
    }

    /// The fork-canary policy the cell's runtime scheme implies.
    pub fn fork_policy(&self) -> ForkCanaryPolicy {
        self.runtime_scheme().fork_canary_policy()
    }

    /// The scheme governing the deployed binary: the rewriter always ships
    /// [`SchemeKind::PsspBin32`].
    pub fn runtime_scheme(&self) -> SchemeKind {
        match self.deployment {
            Deployment::Compiler => self.scheme,
            Deployment::BinaryRewriter => SchemeKind::PsspBin32,
        }
    }

    /// The self-describing record form of the cell — embedded in the
    /// export envelope's ctx so `harness diff` classifies cell-axis
    /// changes as configuration divergence.
    pub fn record(&self) -> Record {
        let mut rec = Record::new()
            .field("scheme", self.scheme.name())
            .field("deployment", self.deployment.label())
            .field("buffer_size", self.buffer_size)
            .field("attack", self.attack.label())
            .field("stop", self.stop.label())
            .field("program", self.program)
            .field("fork_policy", self.fork_policy().label());
        if let Some(shape) = self.rollout {
            rec.push("rollout", shape.label());
        }
        rec
    }
}

/// A partial cell: any subset of the grammar's axes, plus an optional
/// fork-canary-policy constraint.  Frags merge when crossed; a fully
/// unset frag materializes as the registry-default cell.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Frag {
    scheme: Option<SchemeKind>,
    deployment: Option<Deployment>,
    buffer_size: Option<u32>,
    attack: Option<GenAttack>,
    stop: Option<GenStop>,
    program: Option<u64>,
    rollout: Option<RolloutShape>,
    policy: Option<ForkCanaryPolicy>,
}

impl Frag {
    /// Merges two frags; panics when both set the same axis (a `cross` of
    /// two sets sharing an axis is a lattice-definition bug, not data).
    fn merge(&self, other: &Frag) -> Frag {
        fn pick<T: Copy>(axis: &'static str, a: Option<T>, b: Option<T>) -> Option<T> {
            assert!(
                a.is_none() || b.is_none(),
                "grammar axis `{axis}` is set on both sides of a cross"
            );
            a.or(b)
        }
        Frag {
            scheme: pick("scheme", self.scheme, other.scheme),
            deployment: pick("deployment", self.deployment, other.deployment),
            buffer_size: pick("buffer_size", self.buffer_size, other.buffer_size),
            attack: pick("attack", self.attack, other.attack),
            stop: pick("stop", self.stop, other.stop),
            program: pick("program", self.program, other.program),
            rollout: pick("rollout", self.rollout, other.rollout),
            policy: pick("policy", self.policy, other.policy),
        }
    }

    /// Materializes the frag with registry defaults: P-SSP, the §VI-C
    /// deployment of the scheme, a 64-byte buffer, the byte-by-byte
    /// attack, the SPRT stop rule and the canonical victim program.
    fn cell(&self) -> Cell {
        let scheme = self.scheme.unwrap_or(SchemeKind::Pssp);
        Cell {
            scheme,
            deployment: self.deployment.unwrap_or_else(|| effectiveness_deployment(scheme)),
            buffer_size: self.buffer_size.unwrap_or(64),
            attack: self.attack.unwrap_or(GenAttack::ByteByByte),
            stop: self.stop.unwrap_or(GenStop::Sprt),
            program: self.program.unwrap_or(0),
            rollout: self.rollout,
        }
    }

    /// Whether the materialized cell is buildable and satisfies the frag's
    /// policy constraint: the binary rewriter only ships
    /// [`SchemeKind::PsspBin32`], and a policy axis keeps only cells whose
    /// runtime scheme implies that fork-canary policy.
    fn well_formed(&self) -> bool {
        let cell = self.cell();
        if cell.deployment == Deployment::BinaryRewriter && cell.scheme != SchemeKind::PsspBin32 {
            return false;
        }
        self.policy.is_none_or(|policy| cell.fork_policy() == policy)
    }
}

/// A set of [`Frag`]s under construction: the grammar's sentence type.
/// Constructors introduce one axis each; [`ScenarioSet::cross`] takes
/// products; [`ScenarioSet::cells`] materializes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScenarioSet {
    frags: Vec<Frag>,
}

/// Builds a one-axis [`ScenarioSet`].
fn axis<T: Copy>(values: &[T], set: impl Fn(&mut Frag, T)) -> ScenarioSet {
    let frags = values
        .iter()
        .map(|&value| {
            let mut frag = Frag::default();
            set(&mut frag, value);
            frag
        })
        .collect();
    ScenarioSet { frags }
}

impl ScenarioSet {
    /// One frag per scheme.
    pub fn schemes(values: &[SchemeKind]) -> Self {
        axis(values, |f, v| f.scheme = Some(v))
    }

    /// One frag per deployment vehicle.
    pub fn deployments(values: &[Deployment]) -> Self {
        axis(values, |f, v| f.deployment = Some(v))
    }

    /// One frag per buffer size.
    pub fn buffer_sizes(values: &[u32]) -> Self {
        axis(values, |f, v| f.buffer_size = Some(v))
    }

    /// One frag per attack strategy.
    pub fn attacks(values: &[GenAttack]) -> Self {
        axis(values, |f, v| f.attack = Some(v))
    }

    /// One frag per stop rule.
    pub fn stops(values: &[GenStop]) -> Self {
        axis(values, |f, v| f.stop = Some(v))
    }

    /// One frag per generated victim program (`0` = canonical module).
    pub fn programs(values: &[u64]) -> Self {
        axis(values, |f, v| f.program = Some(v))
    }

    /// One frag per rollout shape.
    pub fn rollouts(values: &[RolloutShape]) -> Self {
        axis(values, |f, v| f.rollout = Some(v))
    }

    /// One frag per fork-canary-policy constraint — crossed with schemes,
    /// it keeps only the cells whose runtime scheme implies the policy.
    pub fn policies(values: &[ForkCanaryPolicy]) -> Self {
        axis(values, |f, v| f.policy = Some(v))
    }

    /// The row-major product: every frag of `self` merged with every frag
    /// of `other`, `self`'s order outermost.  Associative — `(A × B) × C`
    /// enumerates the same frags in the same order as `A × (B × C)` — so
    /// [`ScenarioSet::sample`] is stable under reassociation.
    ///
    /// # Panics
    ///
    /// Panics when the two sides share an axis.
    #[must_use]
    pub fn cross(self, other: ScenarioSet) -> Self {
        let frags =
            self.frags.iter().flat_map(|a| other.frags.iter().map(|b| a.merge(b))).collect();
        ScenarioSet { frags }
    }

    /// Keeps the frags whose materialized [`Cell`] satisfies `pred`.
    #[must_use]
    pub fn filter(self, pred: impl Fn(&Cell) -> bool) -> Self {
        let frags = self.frags.into_iter().filter(|f| pred(&f.cell())).collect();
        ScenarioSet { frags }
    }

    /// A deterministic `n`-element subsample: indices are drawn by a
    /// seeded partial Fisher–Yates shuffle, then sorted ascending, so the
    /// survivors keep their enumeration order.  Because [`cross`] is
    /// associative, the same `(seed, n)` selects the same cells however
    /// the product was parenthesized.
    ///
    /// [`cross`]: ScenarioSet::cross
    #[must_use]
    pub fn sample(self, seed: u64, n: usize) -> Self {
        if n >= self.frags.len() {
            return self;
        }
        let mut rng = SplitMix64::new(seed ^ 0x5CE7_A1B0_5EED_C0DE);
        let mut indices: Vec<usize> = (0..self.frags.len()).collect();
        for slot in 0..n {
            let pick = slot + (rng.next_u64() % (indices.len() - slot) as u64) as usize;
            indices.swap(slot, pick);
        }
        let mut keep = indices[..n].to_vec();
        keep.sort_unstable();
        let frags = keep.into_iter().map(|i| self.frags[i].clone()).collect();
        ScenarioSet { frags }
    }

    /// Number of frags (before well-formedness filtering).
    pub fn len(&self) -> usize {
        self.frags.len()
    }

    /// Whether the set holds no frags.
    pub fn is_empty(&self) -> bool {
        self.frags.is_empty()
    }

    /// Materializes every frag into a concrete [`Cell`], filling unset
    /// axes with the registry defaults and dropping ill-formed
    /// combinations (the binary rewriter only ships
    /// [`SchemeKind::PsspBin32`], and policy-constrained frags must match
    /// their runtime scheme's fork-canary policy).
    pub fn cells(&self) -> Vec<Cell> {
        self.frags.iter().filter(|f| f.well_formed()).map(Frag::cell).collect()
    }
}

/// A named lattice preset: a seeded [`ScenarioSet`] recipe plus the
/// metadata its generated report sections share.
pub struct Lattice {
    name: &'static str,
    description: &'static str,
    paper_note: &'static str,
    build: fn(u64) -> ScenarioSet,
}

impl Lattice {
    /// The CLI name (`--lattice NAME`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description, shared by every generated section.
    pub fn description(&self) -> &'static str {
        self.description
    }

    /// The paper annotation the lattice's cells check against.
    pub fn paper_note(&self) -> &'static str {
        self.paper_note
    }

    /// The lattice's scenario set for a generator seed.
    pub fn set(&self, gen_seed: u64) -> ScenarioSet {
        (self.build)(gen_seed)
    }

    /// The lattice's materialized cells for a generator seed.
    pub fn cells(&self, gen_seed: u64) -> Vec<Cell> {
        self.set(gen_seed).cells()
    }
}

/// The `smoke` lattice: three representative schemes (classic SSP, the
/// paper's P-SSP, the binary-rewriter deployment) × the canonical victim
/// and one grammar-generated victim program — six cells, CI-sized.
fn smoke_set(gen_seed: u64) -> ScenarioSet {
    let generated_program = SplitMix64::new(gen_seed).next_u64() | 1;
    ScenarioSet::schemes(&[SchemeKind::Ssp, SchemeKind::Pssp, SchemeKind::PsspBin32])
        .cross(ScenarioSet::programs(&[0, generated_program]))
}

/// The `matrix` lattice: the full §VI-C scheme roster × three buffer
/// sizes × two attacks × {exhaustive, SPRT} stop rules — 60 cells, so every
/// SPRT cell sits next to its exhaustive reference.
fn matrix_set(_gen_seed: u64) -> ScenarioSet {
    ScenarioSet::schemes(EFFECTIVENESS_SCHEMES)
        .cross(ScenarioSet::buffer_sizes(&[32, 64, 128]))
        .cross(ScenarioSet::attacks(&[GenAttack::ByteByByte, GenAttack::Exhaustive]))
        .cross(ScenarioSet::stops(&[GenStop::Exhaustive, GenStop::Sprt]))
}

/// The `rollout` lattice: patched-vs-legacy populations under flat and
/// steep [`RolloutCurve`]s, SPRT-stopped — the power-analysis cells.
fn rollout_set(_gen_seed: u64) -> ScenarioSet {
    ScenarioSet::schemes(&[SchemeKind::Pssp, SchemeKind::PsspOwf])
        .cross(ScenarioSet::rollouts(&[RolloutShape::Flat, RolloutShape::Steep]))
}

/// Every named lattice, in canonical order.
pub fn lattices() -> &'static [Lattice] {
    &[
        Lattice {
            name: "smoke",
            description: "CI-sized generator smoke lattice: {SSP, P-SSP, binary-rewriter} \
                          x {canonical, generated} victim programs",
            paper_note: "the generated cells replay \u{a7}VI-C in miniature: SSP falls to \
                         byte-by-byte guessing in every victim program the grammar emits, \
                         the P-SSP cells never do, and the rewriter cells defend the \
                         in-place-upgraded binary the paper measures",
            build: smoke_set,
        },
        Lattice {
            name: "matrix",
            description: "full \u{a7}VI-C scheme roster x buffer sizes {32, 64, 128} x \
                          {byte-by-byte, exhaustive} attacks x {exhaustive, sprt} stop rules",
            paper_note: "\u{a7}VI-C's verdicts are buffer-size- and stop-rule-invariant: \
                         byte-by-byte breaks exactly the single-canary schemes at \
                         ~8\u{b7}2\u{2077} expected requests regardless of buffer size, and \
                         the SPRT reaches the exhaustive verdict in every cell",
            build: matrix_set,
        },
        Lattice {
            name: "rollout",
            description: "patched-vs-legacy fleets under flat and steep rollout curves, \
                          SPRT-stopped",
            paper_note: "a steep rollout to the patched scheme leaves the SPRT's \
                         indifference region quickly, so campaigns settle with fewer \
                         victims than under a flat 50/50 mix \u{2014} the power analysis \
                         behind fleet-scale deployment monitoring",
            build: rollout_set,
        },
    ]
}

/// Looks up a lattice by CLI name.
pub fn find_lattice(name: &str) -> Option<&'static Lattice> {
    lattices().iter().find(|l| l.name == name)
}

/// Materializes every cell of the named lattice as a registered
/// [`Experiment`] — the one dynamic registration path
/// (`experiments::registry_with`).
///
/// # Errors
///
/// Returns a message naming the valid lattices when `name` matches none.
pub fn generated_experiments(
    name: &str,
    gen_seed: u64,
) -> Result<Vec<Box<dyn Experiment>>, String> {
    let lattice = find_lattice(name).ok_or_else(|| {
        let valid: Vec<&str> = lattices().iter().map(Lattice::name).collect();
        format!("unknown lattice `{name}` (valid lattices: {})", valid.join(", "))
    })?;
    Ok(lattice
        .cells(gen_seed)
        .into_iter()
        .map(|cell| {
            Box::new(GeneratedExperiment::new(lattice, gen_seed, cell)) as Box<dyn Experiment>
        })
        .collect())
}

/// Synthesizes the report-section metadata for a generated scenario name
/// (`gen:<lattice>:<cell>`), so `harness report` documents generated
/// sections without the run having to carry metadata out of band.
pub fn report_section(name: &str) -> Option<polycanary_analysis::summary::SectionMeta> {
    let rest = name.strip_prefix("gen:")?;
    let (lattice_name, slug) = rest.split_once(':')?;
    let lattice = find_lattice(lattice_name)?;
    Some(polycanary_analysis::summary::SectionMeta {
        name: name.to_string(),
        title: format!("Grammar cell `{slug}` (lattice `{lattice_name}`)"),
        description: lattice.description.to_string(),
        paper_note: lattice.paper_note.to_string(),
    })
}

/// FNV-1a over the scenario name: folded into the context seed so every
/// generated cell campaigns an independent seed stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// One grammar cell registered as an [`Experiment`]: runs a single
/// campaign configured by the cell, named `gen:<lattice>:<cell>`.
pub struct GeneratedExperiment {
    name: String,
    title: String,
    lattice: &'static Lattice,
    gen_seed: u64,
    cell: Cell,
}

impl GeneratedExperiment {
    fn new(lattice: &'static Lattice, gen_seed: u64, cell: Cell) -> Self {
        let name = format!("gen:{}:{}", lattice.name, cell.slug());
        let mut title = format!(
            "Grammar cell: {} via {}, {}-byte buffer, {} / {}",
            cell.scheme.name(),
            cell.deployment.label(),
            cell.buffer_size,
            cell.attack.label(),
            cell.stop.label()
        );
        if let Some(shape) = cell.rollout {
            let _ = write!(title, ", {} rollout", shape.label());
        }
        GeneratedExperiment { name, title, lattice, gen_seed, cell }
    }

    /// The cell this experiment materializes.
    pub fn cell(&self) -> &Cell {
        &self.cell
    }

    /// The campaign this cell configures under `ctx`.  Rollout cells
    /// campaign a two-member patched-vs-legacy population (both members
    /// fully specified, mixing deployments and buffer sizes) reweighted by
    /// the cell's [`RolloutCurve`]; plain cells campaign a uniform fleet.
    fn campaign(&self, ctx: &ExperimentCtx) -> Campaign {
        let attack = self.cell.attack.kind(ctx);
        let seeds = ctx.campaign_seeds.max(1);
        let base = ctx.seed ^ fnv1a(self.name.as_bytes());
        let mut campaign = match self.cell.rollout {
            Some(shape) => {
                let patched = PopulationMember::new(1, self.cell.scheme)
                    .with_deployment(self.cell.deployment)
                    .with_buffer_size(self.cell.buffer_size);
                let legacy = PopulationMember::new(1, SchemeKind::Ssp)
                    .with_deployment(Deployment::Compiler)
                    .with_buffer_size(64);
                let label = format!("rollout-{}-{}", shape.label(), scheme_slug(self.cell.scheme));
                let batch = (seeds / 4).max(1);
                let population = Population::from_members(label, [patched, legacy])
                    .with_rollout(shape.curve(batch));
                Campaign::against(attack, population)
            }
            None => Campaign::new(attack, self.cell.scheme)
                .with_deployment(self.cell.deployment)
                .with_buffer_size(self.cell.buffer_size)
                .with_program(self.cell.program),
        };
        campaign = campaign.with_seed_range(base, seeds).with_stop_rule(self.cell.stop.rule());
        if let Some(workers) = ctx.workers {
            campaign = campaign.with_workers(workers);
        }
        campaign
    }
}

impl Experiment for GeneratedExperiment {
    fn name(&self) -> &str {
        &self.name
    }

    fn title(&self) -> &str {
        &self.title
    }

    fn description(&self) -> &str {
        self.lattice.description
    }

    fn paper_note(&self) -> &str {
        self.lattice.paper_note
    }

    fn export_ctx(&self, ctx: &ExperimentCtx) -> Record {
        ctx.record()
            .field("lattice", self.lattice.name)
            .field("gen_seed", self.gen_seed)
            .field("cell", self.cell.record())
    }

    fn run(&self, ctx: &ExperimentCtx) -> ScenarioOutput {
        let report = self.campaign(ctx).run();
        let text =
            format!("{}\n{:<24} {}\n", self.title, self.cell.slug(), format_campaign_cell(&report));
        let record =
            Record::new().field("cell", self.cell.record()).field("campaign", report.record());
        ScenarioOutput::new(text, vec![record])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_is_row_major_and_fills_defaults() {
        let set = ScenarioSet::schemes(&[SchemeKind::Ssp, SchemeKind::Pssp])
            .cross(ScenarioSet::buffer_sizes(&[32, 64]));
        let cells = set.cells();
        assert_eq!(cells.len(), 4);
        assert_eq!(
            cells.iter().map(|c| (c.scheme, c.buffer_size)).collect::<Vec<_>>(),
            vec![
                (SchemeKind::Ssp, 32),
                (SchemeKind::Ssp, 64),
                (SchemeKind::Pssp, 32),
                (SchemeKind::Pssp, 64),
            ]
        );
        // Unset axes materialize as the registry defaults.
        for cell in &cells {
            assert_eq!(cell.deployment, Deployment::Compiler);
            assert_eq!(cell.attack, GenAttack::ByteByByte);
            assert_eq!(cell.stop, GenStop::Sprt);
            assert_eq!(cell.program, 0);
            assert_eq!(cell.rollout, None);
        }
        let default_cell = &ScenarioSet { frags: vec![Frag::default()] }.cells()[0];
        assert_eq!(default_cell.scheme, SchemeKind::Pssp);
        assert_eq!(default_cell.buffer_size, 64);
    }

    #[test]
    #[should_panic(expected = "axis `scheme` is set on both sides")]
    fn cross_rejects_axis_conflicts() {
        let _ = ScenarioSet::schemes(&[SchemeKind::Ssp])
            .cross(ScenarioSet::schemes(&[SchemeKind::Pssp]));
    }

    #[test]
    fn cross_is_associative() {
        let a = || ScenarioSet::schemes(&[SchemeKind::Ssp, SchemeKind::Pssp]);
        let b = || ScenarioSet::buffer_sizes(&[32, 64, 128]);
        let c = || ScenarioSet::attacks(&[GenAttack::ByteByByte, GenAttack::Exhaustive]);
        let left = a().cross(b()).cross(c());
        let right = a().cross(b().cross(c()));
        assert_eq!(left, right);
        assert_eq!(left.cells(), right.cells());
    }

    #[test]
    fn sample_is_deterministic_order_stable_and_reassociation_invariant() {
        let a = || ScenarioSet::schemes(EFFECTIVENESS_SCHEMES);
        let b = || ScenarioSet::buffer_sizes(&[32, 64, 128]);
        let c = || ScenarioSet::stops(&[GenStop::Exhaustive, GenStop::Sprt]);
        let full = a().cross(b()).cross(c()).cells();
        let sampled = a().cross(b()).cross(c()).sample(9, 7).cells();
        assert_eq!(sampled.len(), 7);
        // The sample is a subsequence of the full enumeration (order-stable).
        let mut cursor = full.iter();
        for cell in &sampled {
            assert!(cursor.any(|c| c == cell), "sample must preserve enumeration order");
        }
        // Same seed, same cells — however the product is parenthesized.
        assert_eq!(sampled, a().cross(b().cross(c())).sample(9, 7).cells());
        // A different seed draws a different subsequence.
        assert_ne!(sampled, a().cross(b()).cross(c()).sample(10, 7).cells());
        // Oversampling is the identity.
        assert_eq!(a().sample(3, 99).cells(), a().cells());
    }

    #[test]
    fn filter_and_policy_constrain_cells() {
        let big = ScenarioSet::buffer_sizes(&[32, 64, 128]).filter(|c| c.buffer_size > 32);
        assert_eq!(big.cells().iter().map(|c| c.buffer_size).collect::<Vec<_>>(), vec![64, 128]);
        // The policy axis keeps only schemes implying that fork policy:
        // classic SSP inherits canaries across forks, P-SSP re-randomizes.
        let inherited = ScenarioSet::schemes(&[SchemeKind::Ssp, SchemeKind::Pssp])
            .cross(ScenarioSet::policies(&[ForkCanaryPolicy::Inherited]));
        assert_eq!(
            inherited.cells().iter().map(|c| c.scheme).collect::<Vec<_>>(),
            vec![SchemeKind::Ssp]
        );
    }

    #[test]
    fn ill_formed_rewriter_cells_are_dropped() {
        let set = ScenarioSet::schemes(&[SchemeKind::Pssp, SchemeKind::PsspBin32])
            .cross(ScenarioSet::deployments(&[Deployment::Compiler, Deployment::BinaryRewriter]));
        let cells = set.cells();
        // P-SSP x rewriter is unbuildable (the rewriter ships PsspBin32).
        assert_eq!(cells.len(), 3);
        assert!(cells
            .iter()
            .all(|c| c.deployment == Deployment::Compiler || c.scheme == SchemeKind::PsspBin32));
    }

    #[test]
    fn lattice_presets_enumerate_their_documented_shapes() {
        let names: Vec<&str> = lattices().iter().map(Lattice::name).collect();
        assert_eq!(names, vec!["smoke", "matrix", "rollout"]);
        assert_eq!(find_lattice("smoke").unwrap().cells(7).len(), 6);
        // The acceptance lattice: >= 48 cells, every combination well-formed.
        // Every frag of `matrix` is well-formed: it never relies on
        // `cells()` dropping one.
        let matrix = find_lattice("matrix").unwrap();
        assert_eq!(matrix.set(7).len(), 60);
        let matrix = matrix.cells(7);
        assert_eq!(matrix.len(), 60);
        assert!(matrix.len() >= 48);
        let rollout = find_lattice("rollout").unwrap().cells(7);
        assert_eq!(rollout.len(), 4);
        assert!(rollout.iter().all(|c| c.rollout.is_some()));
        assert!(find_lattice("no-such-lattice").is_none());
        // Slugs are unique within each lattice (they name the scenarios).
        for lattice in lattices() {
            let mut slugs: Vec<String> = lattice.cells(7).iter().map(Cell::slug).collect();
            let total = slugs.len();
            slugs.sort_unstable();
            slugs.dedup();
            assert_eq!(slugs.len(), total, "duplicate cell slugs in {}", lattice.name());
        }
    }

    #[test]
    fn smoke_lattice_derives_its_generated_program_from_the_gen_seed() {
        let cells_a = find_lattice("smoke").unwrap().cells(7);
        let cells_b = find_lattice("smoke").unwrap().cells(7);
        assert_eq!(cells_a, cells_b, "same gen seed, same cells");
        let cells_c = find_lattice("smoke").unwrap().cells(8);
        assert_ne!(cells_a, cells_c, "the generated victim program follows the gen seed");
        let programs: Vec<u64> = cells_a.iter().map(|c| c.program).filter(|&p| p != 0).collect();
        assert_eq!(programs.len(), 3);
        assert!(programs.iter().all(|&p| p == programs[0]));
    }

    #[test]
    fn generated_experiments_register_namespaced_cells() {
        let experiments = generated_experiments("smoke", 7).unwrap();
        assert_eq!(experiments.len(), 6);
        for experiment in &experiments {
            assert!(experiment.name().starts_with("gen:smoke:"));
            assert!(!experiment.title().is_empty());
            assert!(!experiment.description().is_empty());
            assert!(!experiment.paper_note().is_empty());
            // The export ctx appends the cell so diff sees axis changes as
            // configuration divergence.
            let ctx = ExperimentCtx::new(3).quick();
            let export = experiment.export_ctx(&ctx);
            use polycanary_core::record::Value;
            assert_eq!(export.get("lattice"), Some(&Value::Str("smoke".into())));
            assert!(matches!(export.get("cell"), Some(Value::Record(_))));
        }
        let Err(err) = generated_experiments("bogus", 7) else { panic!("must reject") };
        assert!(err.contains("bogus") && err.contains("smoke") && err.contains("matrix"), "{err}");
    }

    #[test]
    fn report_section_synthesizes_metadata_from_the_name() {
        let meta = report_section("gen:smoke:ssp-cc-b64-bbb-sprt-p0").unwrap();
        assert_eq!(meta.name, "gen:smoke:ssp-cc-b64-bbb-sprt-p0");
        assert!(meta.title.contains("ssp-cc-b64-bbb-sprt-p0"));
        assert!(!meta.paper_note.is_empty());
        assert!(report_section("gen:bogus:cell").is_none());
        assert!(report_section("table1").is_none());
    }

    #[test]
    fn generated_cells_run_deterministic_campaigns() {
        let experiments = generated_experiments("smoke", 7).unwrap();
        let ssp = experiments
            .iter()
            .find(|e| e.name() == "gen:smoke:ssp-cc-b64-bbb-sprt-p0")
            .expect("canonical SSP cell");
        let ctx = ExperimentCtx::new(3).quick().with_campaign_seeds(4).with_byte_budget(3_000);
        let once = ssp.run(&ctx.clone().with_workers(1));
        let twice = ssp.run(&ctx.with_workers(8));
        // Scrub the run-varying fields (wall times, worker counts) the way
        // every export consumer does, then demand byte-identical records.
        let scrubbed = polycanary_analysis::scrub::scrub_all;
        assert_eq!(
            scrubbed(&once.records),
            scrubbed(&twice.records),
            "worker count must not change records"
        );
        use polycanary_core::record::Value;
        let campaign = once.records[0].get("campaign").unwrap();
        let Value::Record(campaign) = campaign else { panic!("nested campaign record") };
        assert_eq!(campaign.get("verdict"), Some(&Value::Str("breaks".into())));
    }
}
