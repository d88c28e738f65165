//! `harness verify` — static verification sweep over every workload ×
//! scheme × deployment × opt-level cell.
//!
//! Where every other scenario *runs* the builds, this sweep *proves* them:
//! each cell compiles one workload under one build vehicle at one
//! optimization level and hands the result to `polycanary_verifier` —
//! [`verify_compiled`] for compiler output, [`verify_rewritten`] for
//! rewriter output — collecting the typed findings.  A clean toolchain
//! yields zero findings over the whole matrix, so CI gates on the process
//! exit code; the [`InjectedDefect`] battery is the negative control proving
//! the gate can actually fail.  The O2 half of the matrix is what makes the
//! optimizer trustworthy: every transformed body re-proves all five canary
//! invariants.
//!
//! Results export in the same schema-versioned envelope as every scenario
//! (`scenario: "verify"`), so `harness diff` and `polycanary-analysis`
//! consume them without special cases.

use polycanary_compiler::ir::ModuleDef;
use polycanary_compiler::{Compiler, Frontend, OptLevel};
use polycanary_core::record::{export_envelope, Record};
use polycanary_core::scheme::SchemeKind;
use polycanary_rewriter::{LinkMode, Rewriter};
use polycanary_verifier::{verify_compiled, verify_rewritten, Finding};
use polycanary_vm::Program;
use polycanary_workloads::{spec_suite, Build, DatabaseModel, ServerModel};

pub use polycanary_verifier::InjectedDefect;

/// Result of verifying one workload × build × opt-level cell.
#[derive(Debug, Clone)]
pub struct VerifyCell {
    /// Workload name (SPEC program, server or database model).
    pub workload: String,
    /// Deployment vehicle label ([`Build::label`]).
    pub build: String,
    /// Optimization level the cell was compiled at.
    pub opt_level: OptLevel,
    /// Number of functions the verifier analysed.
    pub functions: usize,
    /// Every invariant violation found — empty on a clean toolchain.
    pub findings: Vec<Finding>,
}

impl VerifyCell {
    /// The cell as a self-describing record (findings nested as records).
    pub fn record(&self) -> Record {
        Record::new()
            .field("workload", self.workload.as_str())
            .field("build", self.build.as_str())
            .field("opt_level", self.opt_level.label())
            .field("functions", self.functions)
            .field("finding_count", self.findings.len())
            .field("findings", self.findings.iter().map(Finding::record).collect::<Vec<_>>())
    }
}

/// A full verification sweep.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Every verified cell, workload-major.
    pub cells: Vec<VerifyCell>,
}

impl VerifyReport {
    /// Total findings across all cells.
    pub fn finding_count(&self) -> usize {
        self.cells.iter().map(|cell| cell.findings.len()).sum()
    }

    /// Whether the whole matrix verified finding-free.
    pub fn is_clean(&self) -> bool {
        self.finding_count() == 0
    }

    /// The export envelope (`scenario: "verify"`), consumable by
    /// `harness diff` and `polycanary-analysis` like any scenario export.
    pub fn envelope(&self, quick: bool) -> Record {
        let ctx = Record::new()
            .field("quick", quick)
            .field("cells", self.cells.len())
            .field("finding_count", self.finding_count());
        export_envelope("verify", ctx, self.cells.iter().map(VerifyCell::record).collect())
    }

    /// Plain-text rendering: one line per cell, then a verdict.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "static verification: {} cells", self.cells.len());
        for cell in &self.cells {
            let verdict = if cell.findings.is_empty() {
                "ok".to_string()
            } else {
                format!("{} finding(s)", cell.findings.len())
            };
            let _ = writeln!(
                out,
                "  {:<18} {:<28} {:>3} {:>3} function(s)  {verdict}",
                cell.workload, cell.build, cell.opt_level, cell.functions
            );
            for finding in &cell.findings {
                let _ = writeln!(out, "    {finding}");
            }
        }
        let _ = writeln!(
            out,
            "verdict: {}",
            if self.is_clean() {
                "clean — all canary invariants proven".to_string()
            } else {
                format!("{} finding(s)", self.finding_count())
            }
        );
        out
    }
}

/// The workloads one sweep covers: SPEC-like programs (4 under `quick`,
/// all 28 otherwise) plus both server and both database models.
fn workload_modules(quick: bool) -> Vec<(String, ModuleDef)> {
    let spec = spec_suite();
    let spec_count = if quick { 4 } else { spec.len() };
    let mut modules: Vec<(String, ModuleDef)> = spec
        .iter()
        .take(spec_count)
        .map(|program| (program.name.to_string(), program.module()))
        .collect();
    for server in [ServerModel::ApacheLike, ServerModel::NginxLike] {
        modules.push((format!("{server:?}"), server.module()));
    }
    for database in [DatabaseModel::MySqlLike, DatabaseModel::SqliteLike] {
        modules.push((format!("{database:?}"), database.module()));
    }
    modules
}

/// The deployment vehicles every workload is verified under: all ten
/// compiler schemes plus both rewriter link modes.
fn builds() -> Vec<Build> {
    let mut builds: Vec<Build> = SchemeKind::ALL.into_iter().map(Build::Compiler).collect();
    builds.push(Build::BinaryRewriter(LinkMode::Dynamic));
    builds.push(Build::BinaryRewriter(LinkMode::Static));
    builds
}

/// The optimization levels every cell is verified at: the unoptimized
/// baseline plus the most aggressive pipeline.
fn opt_levels() -> [OptLevel; 2] {
    [OptLevel::O0, OptLevel::O2]
}

/// The compiler of one build vehicle at one level: the scheme's own, or
/// for the rewriter the SSP compiler of its input.  The rewriter
/// pattern-matches the canonical SSP sequences, so its input compiles
/// shape-preserved at every level — matching what `build_machine_at`
/// ships.
fn build_compiler(build: Build, opt: OptLevel) -> Compiler {
    let compiler = match build {
        Build::Native => Compiler::new(SchemeKind::Native),
        Build::Compiler(kind) => Compiler::new(kind),
        Build::BinaryRewriter(_) => Compiler::new(SchemeKind::Ssp).with_preserved_canary_shapes(),
    };
    compiler.with_opt_level(opt)
}

/// Verifies one prepared workload module under one build vehicle, lowered
/// by that build's `compiler`.  `ssp_build` caches the SSP shape-preserved
/// build of the front half, the input of both rewriter link modes.
fn verify_cell(
    workload: &str,
    front: &Frontend<'_>,
    build: Build,
    compiler: &Compiler,
    ssp_build: &mut Option<Program>,
) -> VerifyCell {
    let lower = || compiler.lower(front).expect("workload modules always compile");
    let (functions, findings) = match build {
        Build::Native | Build::Compiler(_) => {
            let compiled = lower();
            (compiled.program.len(), verify_compiled(&compiled))
        }
        Build::BinaryRewriter(mode) => {
            let original = ssp_build.get_or_insert_with(|| lower().program);
            let mut rewritten = original.clone();
            Rewriter::new()
                .with_link_mode(mode)
                .rewrite(&mut rewritten)
                .expect("SSP workloads are always rewritable");
            (original.len(), verify_rewritten(original, &rewritten))
        }
    };
    VerifyCell {
        workload: workload.to_string(),
        build: build.label(),
        opt_level: front.opt_level(),
        functions,
        findings,
    }
}

/// Runs the full verification sweep.  Each build's compiler is built once
/// per opt level; each workload module is prepared once per opt level (the
/// compiler's scheme-independent front half) and lowered under every build
/// vehicle from there.  The cells and their order are those of compiling
/// every cell from scratch.
pub fn run_verify(quick: bool) -> VerifyReport {
    let builds = builds();
    let compilers = opt_levels()
        .map(|opt| builds.iter().map(|&build| build_compiler(build, opt)).collect::<Vec<_>>());
    let mut cells = Vec::new();
    for (name, module) in workload_modules(quick) {
        // Any compiler of a level prepares its front half: nothing the
        // front half does depends on the scheme.
        let fronts = compilers
            .each_ref()
            .map(|level| level[0].prepare(&module).expect("workload modules always compile"));
        let mut ssp_builds: [Option<Program>; 2] = Default::default();
        for (index, &build) in builds.iter().enumerate() {
            for ((front, level), ssp_build) in fronts.iter().zip(&compilers).zip(&mut ssp_builds) {
                cells.push(verify_cell(&name, front, build, &level[index], ssp_build));
            }
        }
    }
    VerifyReport { cells }
}

/// Runs the injected-defect battery for one defect: a single synthetic cell
/// whose findings come from a deliberately broken program.  The cell is
/// labelled `inject:<defect>` so exports are unambiguous about their
/// provenance.
pub fn run_inject(defect: InjectedDefect) -> VerifyReport {
    let findings = defect.run();
    // The optimizer miscompile is the one defect planted into an O2 build.
    let opt_level = match defect {
        InjectedDefect::OptimizerDroppedCheck => OptLevel::O2,
        _ => OptLevel::O0,
    };
    let cell = VerifyCell {
        workload: format!("inject:{defect}"),
        build: format!("expected {}", defect.expected_kind()),
        opt_level,
        functions: 1,
        findings,
    };
    VerifyReport { cells: vec![cell] }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_is_clean_over_all_builds() {
        let report = run_verify(true);
        // 4 SPEC + 2 servers + 2 databases, × (10 schemes + 2 link modes),
        // × {O0, O2}.
        assert_eq!(report.cells.len(), 8 * 12 * 2);
        assert!(report.is_clean(), "{}", report.render_text());
    }

    /// One cell compiled from scratch, as the sweep did before it shared
    /// front halves.
    fn compiled_cell(
        workload: &str,
        module: &ModuleDef,
        build: Build,
        opt: OptLevel,
    ) -> VerifyCell {
        let compile = |compiler: Compiler| {
            compiler.with_opt_level(opt).compile(module).expect("workload modules always compile")
        };
        let verify_scheme = |kind: SchemeKind| {
            let compiled = compile(Compiler::new(kind));
            (compiled.program.len(), verify_compiled(&compiled))
        };
        let (functions, findings) = match build {
            Build::Native => verify_scheme(SchemeKind::Native),
            Build::Compiler(kind) => verify_scheme(kind),
            Build::BinaryRewriter(mode) => {
                let original =
                    compile(Compiler::new(SchemeKind::Ssp).with_preserved_canary_shapes()).program;
                let mut rewritten = original.clone();
                Rewriter::new().with_link_mode(mode).rewrite(&mut rewritten).unwrap();
                (original.len(), verify_rewritten(&original, &rewritten))
            }
        };
        VerifyCell {
            workload: workload.to_string(),
            build: build.label(),
            opt_level: opt,
            functions,
            findings,
        }
    }

    #[test]
    fn shared_front_halves_reproduce_per_cell_compiles() {
        let mut reference = Vec::new();
        for (name, module) in workload_modules(true) {
            for build in builds() {
                for opt in opt_levels() {
                    reference.push(compiled_cell(&name, &module, build, opt).record());
                }
            }
        }
        let records: Vec<Record> = run_verify(true).cells.iter().map(VerifyCell::record).collect();
        assert_eq!(records, reference);
    }

    #[test]
    fn every_injected_defect_dirties_the_report() {
        for defect in InjectedDefect::ALL {
            let report = run_inject(defect);
            assert!(!report.is_clean(), "{defect} produced no findings");
            assert!(
                report.cells[0].findings.iter().any(|f| f.kind == defect.expected_kind()),
                "{defect}: {:?}",
                report.cells[0].findings
            );
        }
    }

    #[test]
    fn envelope_round_trips_through_the_json_parser() {
        use polycanary_core::record::Envelope;
        let report = run_inject(InjectedDefect::ClobberedCanary);
        let json = report.envelope(true).to_json();
        let envelope = Envelope::from_json(&json).expect("envelope parses");
        assert_eq!(envelope.scenario, "verify");
        assert_eq!(envelope.records.len(), 1);
    }
}
