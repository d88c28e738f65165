//! Table I — defence-tool comparison.

use std::fmt::Write as _;

use polycanary_attacks::campaign::{AttackKind, Campaign, StopRule, Verdict};
use polycanary_core::record::Record;
use polycanary_core::scheme::{ForkCanaryPolicy, SchemeKind};
use polycanary_workloads::build::Build;
use polycanary_workloads::spec::{mean, spec_suite, SpecProgram};

use super::{Experiment, ExperimentCtx, ScenarioOutput};

/// The Table I scenario: BROP campaign verdicts, fork correctness and
/// compiler overhead per defence tool.
pub struct Table1;

impl Experiment for Table1 {
    fn name(&self) -> &str {
        "table1"
    }

    fn title(&self) -> &str {
        "Table I: comparison of brute-force-attack defence tools"
    }

    fn description(&self) -> &str {
        "Defence-tool comparison: SPRT BROP-campaign verdicts, fork-return \
         correctness, compiler overhead"
    }

    fn paper_note(&self) -> &str {
        "only P-SSP combines BROP prevention, fork-correctness and near-zero \
         overhead — SSP is correct but falls to the byte-by-byte attack, RAF-SSP \
         prevents it but breaks returns through inherited frames, DynaGuard/DCR \
         prevent it at higher bookkeeping cost.  The BROP column is a multi-seed \
         forking-server campaign verdict (`successes/victims, connections`) under \
         the sequential (SPRT) stop rule, and the fork-canary column is the §II \
         mechanism behind it: only the schemes whose forked workers inherit the \
         parent's canary byte-for-byte are BROP-able."
    }

    fn run(&self, ctx: &ExperimentCtx) -> ScenarioOutput {
        let rows = run_table1(ctx);
        ScenarioOutput::new(format_table1(&rows), rows.iter().map(Table1Row::record).collect())
    }
}

/// One row of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// The defence tool.
    pub scheme: SchemeKind,
    /// "BROP Prevention" column — the verdict of a multi-seed byte-by-byte
    /// campaign against forking servers protected by the scheme (`true`
    /// when the campaign proves the attack fails).
    pub brop_prevented: bool,
    /// The full tri-state campaign verdict behind [`Self::brop_prevented`]
    /// — an inconclusive campaign is not the same as a proven break.
    pub brop_verdict: Verdict,
    /// Successful hijacks in the BROP campaign.
    pub brop_successes: u64,
    /// Completed campaign runs (may stop short of [`TABLE1_BROP_SEEDS`]
    /// once the sequential stop rule settles the verdict).
    pub brop_runs: u64,
    /// Total connections the BROP campaign opened against its forking
    /// servers (one connection per byte-guess in the reconnect loop).
    pub brop_connections: u64,
    /// What a forked worker's canaries look like across the reconnect
    /// loop — the property the BROP column turns on.
    pub fork_canary_policy: ForkCanaryPolicy,
    /// "Correctness" column — measured by forking a child after the parent
    /// pushed protected frames and letting the child return through them.
    pub correct: bool,
    /// Compiler-based runtime overhead over native, in percent (measured on
    /// a subset of the SPEC-like suite).
    pub compiler_overhead_percent: f64,
}

impl Table1Row {
    /// The self-describing record form of this row, for JSON/CSV export.
    pub fn record(&self) -> Record {
        Record::new()
            .field("scheme", self.scheme.name())
            .field("brop_prevented", self.brop_prevented)
            .field("brop_verdict", self.brop_verdict.label())
            .field("brop_successes", self.brop_successes)
            .field("brop_runs", self.brop_runs)
            .field("brop_connections", self.brop_connections)
            .field("fork_canary_policy", self.fork_canary_policy.label())
            .field("correct", self.correct)
            .field("compiler_overhead_percent", self.compiler_overhead_percent)
    }
}

/// Victim seeds configured per Table-I BROP campaign; the SPRT stop rule
/// settles these unanimous verdicts after three victims.
pub const TABLE1_BROP_SEEDS: usize = 8;

/// Runs the Table I comparison.  Scheme rows are independent, so they fan
/// out over the shared [`super::ExperimentCtx::pool`]; the report only
/// depends on the context.
pub fn run_table1(ctx: &ExperimentCtx) -> Vec<Table1Row> {
    let seed = ctx.seed;
    let schemes = [
        SchemeKind::Ssp,
        SchemeKind::RafSsp,
        SchemeKind::DynaGuard,
        SchemeKind::Dcr,
        SchemeKind::Pssp,
    ];
    // The overhead column is a representative subset, never the whole suite.
    let programs: Vec<SpecProgram> =
        spec_suite().into_iter().take(ctx.spec_programs.clamp(1, 6)).collect();
    let pool = ctx.pool();
    let campaign_workers = pool.nested_workers(schemes.len());
    pool.run(&schemes, |_, &scheme| {
        // BROP prevention: a multi-seed forking-server campaign verdict, not
        // a single-seed anecdote.  The sequential (SPRT) rule stops the
        // reconnect loop as soon as the evidence is conclusive — after three
        // victims on these unanimous populations.
        let budget = if scheme == SchemeKind::Ssp { 4_000 } else { 3_000 };
        let brop = Campaign::new(AttackKind::ByteByByte { budget }, scheme)
            .with_seed_range(seed, TABLE1_BROP_SEEDS)
            .with_stop_rule(StopRule::sprt())
            .with_workers(campaign_workers)
            .run();

        // Correctness: child returning into an inherited protected frame.
        let correct = fork_return_correctness(scheme, seed);

        // Overhead on the SPEC-like subset.
        let overheads: Vec<f64> =
            programs.iter().map(|p| p.overhead_percent(Build::Compiler(scheme), seed)).collect();

        Table1Row {
            scheme,
            brop_prevented: brop.verdict() == Verdict::Resists,
            brop_verdict: brop.verdict(),
            brop_successes: brop.successes(),
            brop_runs: brop.campaigns(),
            brop_connections: brop.total_requests(),
            fork_canary_policy: scheme.fork_canary_policy(),
            correct,
            compiler_overhead_percent: mean(&overheads),
        }
    })
}

/// The fork-return correctness scenario of §II-B/§II-C: the parent forks
/// while a protected frame is live on its stack, and the child later executes
/// that frame's *epilogue* (i.e. returns through the inherited frame).
/// RAF-SSP fails this check because the child's TLS canary no longer matches
/// the canary the parent's prologue stored; every other scheme passes.
///
/// The scenario is built from two hand-assembled functions that share one
/// frame layout: `parent_half` runs the scheme's prologue (leaving the canary
/// and any bookkeeping state behind, exactly like a frame that is still live
/// at fork time) and `child_half` runs only the scheme's epilogue over that
/// inherited frame image.
pub fn fork_return_correctness(scheme: SchemeKind, seed: u64) -> bool {
    use polycanary_core::layout::FrameInfo;
    use polycanary_vm::inst::Inst;
    use polycanary_vm::machine::Machine;
    use polycanary_vm::program::Program;
    use polycanary_vm::reg::Reg;

    let scheme_obj = scheme.scheme();
    let frame = FrameInfo::protected(0x40);

    let mut parent_half = vec![
        Inst::PushReg(Reg::Rbp),
        Inst::MovRegReg { dst: Reg::Rbp, src: Reg::Rsp },
        Inst::SubRspImm(frame.frame_size),
    ];
    parent_half.extend(scheme_obj.emit_prologue(&frame));
    parent_half.extend([Inst::MovImmToReg { dst: Reg::Rax, imm: 0 }, Inst::Leave, Inst::Ret]);

    let mut child_half = vec![
        Inst::PushReg(Reg::Rbp),
        Inst::MovRegReg { dst: Reg::Rbp, src: Reg::Rsp },
        Inst::SubRspImm(frame.frame_size),
    ];
    child_half.extend(scheme_obj.emit_epilogue(&frame));
    child_half.extend([Inst::MovImmToReg { dst: Reg::Rax, imm: 0 }, Inst::Leave, Inst::Ret]);

    let mut program = Program::new();
    let parent_fn = program.add_function("parent_half", parent_half).expect("unique names");
    program.add_function("child_half", child_half).expect("unique names");
    program.set_entry(parent_fn);

    let mut machine = Machine::new(program, scheme_obj.runtime_hooks(seed), seed);
    let mut parent = machine.spawn();
    let parent_outcome = machine.run_function(&mut parent, "parent_half").expect("exists");
    if !parent_outcome.exit.is_normal() {
        return false;
    }
    // Fork while the parent's canary (and bookkeeping entries) are in place.
    let mut child = machine.fork(&mut parent);
    // The child now "returns" through the inherited frame: both functions use
    // the same frame size, so the epilogue reads exactly the slots the
    // parent's prologue wrote.
    let child_outcome = machine.run_function(&mut child, "child_half").expect("exists");
    child_outcome.exit.is_normal()
}

/// Renders Table I as text.
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>26} {:>14} {:>12} {:>24}",
        "Defence", "BROP Prevention", "Fork canary", "Correctness", "Compiler overhead (%)"
    );
    for row in rows {
        let brop = format!(
            "{} ({}/{}, {} conns)",
            match row.brop_verdict {
                Verdict::Resists => "Yes",
                Verdict::Breaks => "No",
                Verdict::Inconclusive => "?",
            },
            row.brop_successes,
            row.brop_runs,
            row.brop_connections
        );
        let _ = writeln!(
            out,
            "{:<12} {:>26} {:>14} {:>12} {:>24.2}",
            row.scheme.name(),
            brop,
            row.fork_canary_policy.label(),
            if row.correct { "Yes" } else { "No" },
            row.compiler_overhead_percent
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ExperimentCtx {
        ExperimentCtx::new(3).with_spec_programs(2)
    }

    #[test]
    fn table1_matches_paper_qualitative_columns() {
        let rows = run_table1(&ctx());
        let by_scheme = |k: SchemeKind| rows.iter().find(|r| r.scheme == k).unwrap();
        assert!(!by_scheme(SchemeKind::Ssp).brop_prevented);
        assert!(by_scheme(SchemeKind::Ssp).correct);
        assert!(by_scheme(SchemeKind::RafSsp).brop_prevented);
        assert!(!by_scheme(SchemeKind::RafSsp).correct);
        for k in [SchemeKind::DynaGuard, SchemeKind::Dcr, SchemeKind::Pssp] {
            assert!(by_scheme(k).brop_prevented, "{k}");
            assert!(by_scheme(k).correct, "{k}");
        }
        // P-SSP is the cheapest of the BROP-preventing schemes.
        assert!(
            by_scheme(SchemeKind::Pssp).compiler_overhead_percent
                <= by_scheme(SchemeKind::DynaGuard).compiler_overhead_percent + 1e-9
        );
        assert!(format_table1(&rows).contains("P-SSP"));
    }

    #[test]
    fn table1_brop_column_runs_on_the_sprt_reconnect_loop() {
        let rows = run_table1(&ctx());
        for row in &rows {
            // The SPRT rule settles the unanimous BROP cells in 3 victims.
            assert_eq!(row.brop_runs, 3, "{}", row.scheme);
            assert!(row.brop_connections > 0, "{}", row.scheme);
            let expected = match row.scheme {
                SchemeKind::Ssp => ForkCanaryPolicy::Inherited,
                _ => ForkCanaryPolicy::Rerandomized,
            };
            assert_eq!(row.fork_canary_policy, expected, "{}", row.scheme);
        }
        let rendered = format_table1(&rows);
        assert!(rendered.contains("conns"), "{rendered}");
        assert!(rendered.contains("Fork canary"), "{rendered}");
    }
}
