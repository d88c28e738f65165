//! The scenario grammar: scheme × deployment × attack lattices as
//! first-class experiments.
//!
//! The static registry reproduces the paper's tables one hand-written
//! scenario at a time.  This module replays their §VI-C verdicts across
//! the axes those scenarios fix: buffer size, stop rule, generated victim
//! program and rollout shape.
//!
//! * A [`Cell`] is one concrete configuration: every axis resolved.
//!   [`Cell::of`] holds the registry defaults; a preset overrides the axes
//!   it varies.
//! * A [`Lattice`] is a named preset ([`lattices`]): a plain function from
//!   the generator seed to its list of cells, enumerated row-major by
//!   nested loops.  Every preset cell is buildable by construction (the
//!   binary rewriter only ships [`SchemeKind::PsspBin32`]).
//! * Every cell of a selected lattice registers as an ordinary
//!   [`Experiment`] named `gen:<lattice>:<cell>` through
//!   [`generated_experiments`] — the one dynamic registration path behind
//!   `harness --lattice NAME --gen-seed N` — and flows through listing,
//!   JSON/CSV export, `harness diff` and `harness report` exactly like the
//!   static scenarios.
//!
//! Determinism contract: enumeration order and every cell's records are a
//! pure function of `(lattice, gen_seed, ExperimentCtx)`; the generator
//! test battery pins them with goldens and byte-identical exports across
//! worker counts.

use std::fmt::Write as _;

use polycanary_attacks::campaign::{AttackKind, Campaign, StopRule};
use polycanary_attacks::population::{Population, PopulationMember, RolloutCurve, RolloutError};
use polycanary_attacks::victim::Deployment;
use polycanary_core::record::Record;
use polycanary_core::scheme::{ForkCanaryPolicy, SchemeKind};
use polycanary_crypto::{Prng, SplitMix64};

use crate::experiments::campaigns::column_attacks;
use crate::experiments::{
    effectiveness_deployment, format_campaign_cell, Experiment, ExperimentCtx, ScenarioOutput,
    EFFECTIVENESS_SCHEMES,
};

/// Attack axis of the grammar: the first two §VI-C campaign-table
/// columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenAttack {
    /// Byte-by-byte guessing against a forking server.
    ByteByByte,
    /// Exhaustive whole-canary guessing under a bounded budget.
    Exhaustive,
}

impl GenAttack {
    /// Slug used in generated scenario names.
    pub fn label(&self) -> &'static str {
        match self {
            GenAttack::ByteByByte => "bbb",
            GenAttack::Exhaustive => "exh",
        }
    }

    /// The campaign-engine attack this axis value runs: its campaign-table
    /// column, budgeted from the experiment context.
    pub fn kind(&self, ctx: &ExperimentCtx) -> AttackKind {
        let column = match self {
            GenAttack::ByteByByte => 0,
            GenAttack::Exhaustive => 1,
        };
        column_attacks(ctx)[column]
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
    ///
    /// # Errors
    ///
    /// [`RolloutError::ZeroBatch`] when `batch` is zero; every preset's
    /// stages are otherwise valid.
    pub fn curve(&self, batch: usize) -> Result<RolloutCurve, RolloutError> {
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
#[derive(Debug, Clone, PartialEq)]
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
    pub stop: StopRule,
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
    /// The registry-default cell of `scheme`: its §VI-C deployment, a
    /// 64-byte buffer, the byte-by-byte attack, the SPRT stop rule, the
    /// canonical victim program and no rollout.  Presets override axes
    /// with struct-update syntax.
    pub fn of(scheme: SchemeKind) -> Cell {
        Cell {
            scheme,
            deployment: effectiveness_deployment(scheme),
            buffer_size: 64,
            attack: GenAttack::ByteByByte,
            stop: StopRule::sprt(),
            program: 0,
            rollout: None,
        }
    }

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

    /// The scheme governing the deployed binary, as its deployment
    /// pipeline decides it: the rewriter always ships
    /// [`SchemeKind::PsspBin32`].
    pub fn runtime_scheme(&self) -> SchemeKind {
        self.deployment.build(self.scheme).runtime_scheme()
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

/// A named lattice preset: the cells it enumerates for a generator seed,
/// plus the metadata its generated report sections share.
pub struct Lattice {
    name: &'static str,
    description: &'static str,
    paper_note: &'static str,
    cells: fn(u64) -> Vec<Cell>,
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

    /// The lattice's cells for a generator seed, in enumeration order.
    pub fn cells(&self, gen_seed: u64) -> Vec<Cell> {
        (self.cells)(gen_seed)
    }
}

/// The `smoke` lattice: three representative schemes (classic SSP, the
/// paper's P-SSP, the binary-rewriter deployment) × the canonical victim
/// and one grammar-generated victim program — six cells, CI-sized.
fn smoke_cells(gen_seed: u64) -> Vec<Cell> {
    let generated_program = SplitMix64::new(gen_seed).next_u64() | 1;
    let mut cells = Vec::new();
    for scheme in [SchemeKind::Ssp, SchemeKind::Pssp, SchemeKind::PsspBin32] {
        for program in [0, generated_program] {
            cells.push(Cell { program, ..Cell::of(scheme) });
        }
    }
    cells
}

/// The `matrix` lattice: the full §VI-C scheme roster × three buffer
/// sizes × two attacks × {exhaustive, SPRT} stop rules — 60 cells, so every
/// SPRT cell sits next to its exhaustive reference.
fn matrix_cells(_gen_seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &scheme in EFFECTIVENESS_SCHEMES {
        for buffer_size in [32, 64, 128] {
            for attack in [GenAttack::ByteByByte, GenAttack::Exhaustive] {
                for stop in [StopRule::Exhaustive, StopRule::sprt()] {
                    cells.push(Cell { buffer_size, attack, stop, ..Cell::of(scheme) });
                }
            }
        }
    }
    cells
}

/// The `rollout` lattice: patched-vs-legacy populations under flat and
/// steep [`RolloutCurve`]s, SPRT-stopped — the power-analysis cells.
fn rollout_cells(_gen_seed: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for scheme in [SchemeKind::Pssp, SchemeKind::PsspOwf] {
        for shape in [RolloutShape::Flat, RolloutShape::Steep] {
            cells.push(Cell { rollout: Some(shape), ..Cell::of(scheme) });
        }
    }
    cells
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
            cells: smoke_cells,
        },
        Lattice {
            name: "matrix",
            description: "full \u{a7}VI-C scheme roster x buffer sizes {32, 64, 128} x \
                          {byte-by-byte, exhaustive} attacks x {exhaustive, sprt} stop rules",
            paper_note: "\u{a7}VI-C's verdicts are buffer-size- and stop-rule-invariant: \
                         byte-by-byte breaks exactly the single-canary schemes at \
                         ~8\u{b7}2\u{2077} expected requests regardless of buffer size, and \
                         the SPRT reaches the exhaustive verdict in every cell",
            cells: matrix_cells,
        },
        Lattice {
            name: "rollout",
            description: "patched-vs-legacy fleets under flat and steep rollout curves, \
                          SPRT-stopped",
            paper_note: "a steep rollout to the patched scheme leaves the SPRT's \
                         indifference region quickly, so campaigns settle with fewer \
                         victims than under a flat 50/50 mix \u{2014} the power analysis \
                         behind fleet-scale deployment monitoring",
            cells: rollout_cells,
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
                let population = shape
                    .curve(batch)
                    .and_then(|curve| {
                        Population::from_members(label, [patched, legacy]).with_rollout(curve)
                    })
                    .expect("a preset curve over a positive batch weights both members");
                Campaign::against(attack, population)
            }
            None => Campaign::new(attack, self.cell.scheme)
                .with_deployment(self.cell.deployment)
                .with_buffer_size(self.cell.buffer_size)
                .with_program(self.cell.program),
        };
        campaign = campaign.with_seed_range(base, seeds).with_stop_rule(self.cell.stop);
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

    /// Every cell of every preset at gen seed 7.
    fn preset_cells() -> Vec<Cell> {
        lattices().iter().flat_map(|l| l.cells(7)).collect()
    }

    #[test]
    fn preset_cells_are_row_major_and_fill_defaults() {
        let matrix = find_lattice("matrix").unwrap().cells(7);
        let axes: Vec<_> =
            matrix.iter().map(|c| (c.scheme, c.buffer_size, c.attack, c.stop.label())).collect();
        assert_eq!(
            axes[..5],
            [
                (SchemeKind::Ssp, 32, GenAttack::ByteByByte, "exhaustive"),
                (SchemeKind::Ssp, 32, GenAttack::ByteByByte, "sprt"),
                (SchemeKind::Ssp, 32, GenAttack::Exhaustive, "exhaustive"),
                (SchemeKind::Ssp, 32, GenAttack::Exhaustive, "sprt"),
                (SchemeKind::Ssp, 64, GenAttack::ByteByByte, "exhaustive"),
            ]
        );
        assert_eq!(axes[12].0, SchemeKind::Pssp);
        // The axes a preset leaves alone keep the registry defaults.
        let default = Cell::of(SchemeKind::Pssp);
        assert_eq!(default.deployment, Deployment::Compiler);
        assert_eq!(default.buffer_size, 64);
        assert_eq!(default.attack, GenAttack::ByteByByte);
        assert_eq!(default.stop, StopRule::sprt());
        assert_eq!(default.program, 0);
        assert_eq!(default.rollout, None);
        assert!(matrix.iter().all(|c| c.program == 0 && c.rollout.is_none()));
        for cell in find_lattice("smoke").unwrap().cells(7) {
            assert_eq!(Cell { program: 0, ..cell.clone() }, Cell::of(cell.scheme));
        }
        for cell in find_lattice("rollout").unwrap().cells(7) {
            assert_eq!(Cell { rollout: None, ..cell.clone() }, Cell::of(cell.scheme));
        }
    }

    #[test]
    fn preset_cells_derive_their_fork_policy() {
        // Classic SSP inherits canaries across forks; every P-SSP variant,
        // the rewriter deployment included, re-randomizes them.
        for cell in preset_cells() {
            let expected = if cell.scheme == SchemeKind::Ssp {
                ForkCanaryPolicy::Inherited
            } else {
                ForkCanaryPolicy::Rerandomized
            };
            assert_eq!(cell.fork_policy(), expected, "{}", cell.slug());
        }
    }

    #[test]
    fn preset_rewriter_cells_all_ship_pssp_bin32() {
        // The binary rewriter only ships P-SSP-bin32, and P-SSP-bin32 only
        // ships through the rewriter.
        let cells = preset_cells();
        assert!(cells.iter().any(|c| c.deployment == Deployment::BinaryRewriter));
        for cell in cells {
            assert_eq!(
                cell.deployment == Deployment::BinaryRewriter,
                cell.scheme == SchemeKind::PsspBin32,
                "{}",
                cell.slug()
            );
        }
    }

    #[test]
    fn lattice_presets_enumerate_their_documented_shapes() {
        let names: Vec<&str> = lattices().iter().map(Lattice::name).collect();
        assert_eq!(names, vec!["smoke", "matrix", "rollout"]);
        assert_eq!(find_lattice("smoke").unwrap().cells(7).len(), 6);
        assert_eq!(find_lattice("matrix").unwrap().cells(7).len(), 60);
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
