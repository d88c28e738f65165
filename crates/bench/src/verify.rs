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
//! The sweep runs one [`JobPool`] job per workload module, one worker per
//! CPU; the pool returns each module's cells in input order, so the
//! report, its text and its export are the same at any worker count.
//!
//! Results export in the same schema-versioned envelope as every scenario
//! (`scenario: "verify"`), so `harness diff` and `polycanary-analysis`
//! consume them without special cases.

use polycanary_attacks::pool::JobPool;
use polycanary_compiler::ir::ModuleDef;
use polycanary_compiler::{Compiler, Frontend, OptLevel};
use polycanary_core::record::{export_envelope, Record};
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

/// The optimization levels every cell is verified at: the unoptimized
/// baseline plus the most aggressive pipeline.
fn opt_levels() -> [OptLevel; 2] {
    [OptLevel::O0, OptLevel::O2]
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
        Build::BinaryRewriter(_) => {
            let original = ssp_build.get_or_insert_with(|| lower().program);
            let mut rewritten = original.clone();
            build.rewrite(&mut rewritten).expect("SSP workloads are always rewritable");
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

/// Verifies one workload module's cells, build-major and then by opt
/// level, under the sweep's `compilers` (one row per opt level, one
/// compiler per [`Build::ALL`] vehicle).  The module is prepared once per
/// level and lowered under every build from there.
fn verify_module(
    name: &str,
    module: &ModuleDef,
    compilers: &[[Compiler; Build::ALL.len()]; 2],
) -> Vec<VerifyCell> {
    // Any compiler of a level prepares its front half: nothing the front
    // half does depends on the scheme.
    let fronts = compilers
        .each_ref()
        .map(|level| level[0].prepare(module).expect("workload modules always compile"));
    let mut ssp_builds: [Option<Program>; 2] = Default::default();
    let mut cells = Vec::with_capacity(Build::ALL.len() * compilers.len());
    for (index, build) in Build::ALL.into_iter().enumerate() {
        for ((front, level), ssp_build) in fronts.iter().zip(compilers).zip(&mut ssp_builds) {
            cells.push(verify_cell(name, front, build, &level[index], ssp_build));
        }
    }
    cells
}

/// Runs the full verification sweep over every [`Build::ALL`] vehicle on
/// one [`JobPool`] job per workload module, one worker per CPU.  Each
/// build's compiler ([`Build::compiler`]) is built once per opt level and
/// shared by every job; each job prepares its module once per opt level
/// (the compiler's scheme-independent front half) and lowers it under
/// every build vehicle from there.  The cells and their order are those of
/// compiling every cell from scratch, whatever the worker count.
pub fn run_verify(quick: bool) -> VerifyReport {
    sweep(&workload_modules(quick), JobPool::new())
}

/// [`run_verify`] over `modules` on `pool`: the per-module cell lists are
/// concatenated in input order.
fn sweep(modules: &[(String, ModuleDef)], pool: JobPool) -> VerifyReport {
    let compilers = opt_levels().map(|opt| Build::ALL.map(|build| build.compiler(opt)));
    let cells = pool
        .run(modules, |_, (name, module)| verify_module(name, module, &compilers))
        .into_iter()
        .flatten()
        .collect();
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
        let compiled = build.compiler(opt).compile(module).expect("workload modules compile");
        let functions = compiled.program.len();
        let findings = match build {
            Build::Native | Build::Compiler(_) => verify_compiled(&compiled),
            Build::BinaryRewriter(_) => {
                let rewritten = build.program(module, opt);
                verify_rewritten(&compiled.program, &rewritten)
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
            for build in Build::ALL {
                for opt in opt_levels() {
                    reference.push(compiled_cell(&name, &module, build, opt).record());
                }
            }
        }
        let records: Vec<Record> = run_verify(true).cells.iter().map(VerifyCell::record).collect();
        assert_eq!(records, reference);
    }

    #[test]
    fn the_sweep_is_the_same_at_every_worker_count() {
        let modules = workload_modules(true);
        let mut reference = Vec::new();
        for (name, module) in &modules {
            for build in Build::ALL {
                for opt in opt_levels() {
                    reference.push(compiled_cell(name, module, build, opt).record());
                }
            }
        }
        for workers in [1, 2, 8] {
            let report = sweep(&modules, JobPool::with_workers(workers));
            let records: Vec<Record> = report.cells.iter().map(VerifyCell::record).collect();
            assert_eq!(records, reference, "workers = {workers}");
        }
    }

    #[test]
    fn a_failing_module_job_reaches_the_caller_with_its_own_payload() {
        use polycanary_compiler::ir::FunctionBuilder;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let broken = ModuleDef {
            functions: vec![FunctionBuilder::new("main").call("ghost").build()],
            entry: "main".into(),
        };
        let error = Build::ALL[0].compiler(OptLevel::O0).compile(&broken).unwrap_err();
        let expected = format!("workload modules always compile: {error:?}");
        let mut modules = workload_modules(true);
        modules.insert(3, ("broken".to_string(), broken));
        for workers in [1, 2, 8] {
            let sweep = || sweep(&modules, JobPool::with_workers(workers));
            let payload = catch_unwind(AssertUnwindSafe(sweep)).unwrap_err();
            assert_eq!(payload.downcast_ref::<String>(), Some(&expected), "workers = {workers}");
        }
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
