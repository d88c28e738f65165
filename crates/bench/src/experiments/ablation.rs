//! Ablation over the extensions (§IV / §VI-B), swept over the opt-level axis.

use polycanary_compiler::OptLevel;
use polycanary_core::analysis::attack_effort;
use polycanary_core::record::Record;
use polycanary_core::scheme::SchemeKind;

use super::campaigns::render_table;
use super::{canary_handling_cycles, Experiment, ExperimentCtx, ScenarioOutput};

/// The ablation scenario: cost and security trade-offs of the extensions.
pub struct Ablation;

impl Experiment for Ablation {
    fn name(&self) -> &str {
        "ablation"
    }

    fn title(&self) -> &str {
        "Extensions ablation (P-SSP vs NT / LV / OWF)"
    }

    fn description(&self) -> &str {
        "Per-call cycles (at O0 and the configured opt level), analytical \
         attack effort and deployment requirements of P-SSP and its extensions"
    }

    fn paper_note(&self) -> &str {
        "the extensions trade per-call cycles for deployment (NT needs no \
         TLS/fork changes) and disclosure resilience (only OWF), while all of \
         them keep the byte-by-byte attack at ≥ 2⁶³ expected trials.  The \
         security columns are a property of the scheme, not the optimizer: \
         they are identical across opt levels, and only the per-call cycle \
         column moves when the O2 strength reduction kicks in."
    }

    fn run(&self, ctx: &ExperimentCtx) -> ScenarioOutput {
        let rows = run_ablation(ctx);
        ScenarioOutput::new(format_ablation(&rows), rows.iter().map(AblationRow::record).collect())
    }
}

/// One row of the extensions ablation at one optimization level.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// The scheme.
    pub scheme: SchemeKind,
    /// Optimization level the per-call cost was measured at.
    pub opt_level: OptLevel,
    /// Per-call canary handling cost in cycles.
    pub per_call_cycles: u64,
    /// Expected byte-by-byte trials from the analytical model.
    pub analytical_byte_by_byte_trials: u64,
    /// Whether the scheme needs TLS/fork changes to deploy.
    pub needs_runtime_changes: bool,
    /// Whether the scheme resists the canary-reuse (disclosure) attack.
    pub exposure_resilient: bool,
}

impl AblationRow {
    /// The self-describing record form of this row, for JSON/CSV export.
    pub fn record(&self) -> Record {
        Record::new()
            .field("scheme", self.scheme.name())
            .field("opt_level", self.opt_level.label())
            .field("per_call_cycles", self.per_call_cycles)
            .field("analytical_byte_by_byte_trials", self.analytical_byte_by_byte_trials)
            .field("needs_runtime_changes", self.needs_runtime_changes)
            .field("exposure_resilient", self.exposure_resilient)
    }
}

/// Runs the ablation over P-SSP and its three extensions × the ctx's
/// opt-level axis.  Cells are independent parallel jobs on the shared pool.
pub fn run_ablation(ctx: &ExperimentCtx) -> Vec<AblationRow> {
    let seed = ctx.seed;
    let schemes = [SchemeKind::Pssp, SchemeKind::PsspNt, SchemeKind::PsspLv, SchemeKind::PsspOwf];
    let cells: Vec<(SchemeKind, OptLevel)> = schemes
        .into_iter()
        .flat_map(|s| ctx.opt_levels().into_iter().map(move |opt| (s, opt)))
        .collect();
    ctx.pool().run(&cells, |_, &(scheme, opt)| {
        let props = scheme.scheme().properties();
        AblationRow {
            scheme,
            opt_level: opt,
            per_call_cycles: canary_handling_cycles(scheme, 0, opt, seed),
            analytical_byte_by_byte_trials: attack_effort(&props).byte_by_byte_trials,
            needs_runtime_changes: props.modifies_tls_layout,
            exposure_resilient: props.exposure_resilient,
        }
    })
}

/// Renders the ablation.
pub fn format_ablation(rows: &[AblationRow]) -> String {
    let yes_no = |flag: bool| if flag { "yes" } else { "no" }.to_string();
    let lines: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let trials = if row.analytical_byte_by_byte_trials == u64::MAX {
                ">= 2^63".to_string()
            } else {
                row.analytical_byte_by_byte_trials.to_string()
            };
            vec![
                row.scheme.name().to_string(),
                row.opt_level.to_string(),
                row.per_call_cycles.to_string(),
                trials,
                yes_no(row.needs_runtime_changes),
                yes_no(row.exposure_resilient),
            ]
        })
        .collect();
    render_table(
        "per-call canary cycles, analytical attack effort and deployment needs",
        &[
            "Scheme",
            "Opt",
            "cycles/call",
            "byte-by-byte trials",
            "runtime changes",
            "exposure resilient",
        ],
        &lines,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_covers_the_three_extensions() {
        let rows = run_ablation(&ExperimentCtx::new(3).with_opt_level(OptLevel::O0));
        assert_eq!(rows.len(), 4);
        let owf = rows.iter().find(|r| r.scheme == SchemeKind::PsspOwf).unwrap();
        assert!(owf.exposure_resilient);
        let nt = rows.iter().find(|r| r.scheme == SchemeKind::PsspNt).unwrap();
        assert!(!nt.needs_runtime_changes);
        assert!(nt.per_call_cycles > rows[0].per_call_cycles);
        assert!(format_ablation(&rows).contains("cycles/call"));
    }

    #[test]
    fn ablation_o2_cells_cost_less_and_keep_the_security_columns() {
        let rows = run_ablation(&ExperimentCtx::new(3));
        // scheme × {O0, O2}, O0 first within each scheme.
        assert_eq!(rows.len(), 8);
        for pair in rows.chunks(2) {
            let (o0, o2) = (&pair[0], &pair[1]);
            assert_eq!(o0.scheme, o2.scheme);
            assert_eq!(o0.opt_level, OptLevel::O0);
            assert_eq!(o2.opt_level, OptLevel::O2);
            assert!(
                o2.per_call_cycles < o0.per_call_cycles,
                "{}: O2 ({}) must cost less per call than O0 ({})",
                o0.scheme.name(),
                o2.per_call_cycles,
                o0.per_call_cycles
            );
            // The optimizer must not change the scheme's security posture.
            assert_eq!(o0.analytical_byte_by_byte_trials, o2.analytical_byte_by_byte_trials);
            assert_eq!(o0.needs_runtime_changes, o2.needs_runtime_changes);
            assert_eq!(o0.exposure_resilient, o2.exposure_resilient);
        }
    }

    #[test]
    fn ablation_rows_are_worker_count_independent() {
        let once = run_ablation(&ExperimentCtx::new(3).with_workers(1));
        let twice = run_ablation(&ExperimentCtx::new(3).with_workers(8));
        assert_eq!(once, twice);
        assert_eq!(once.len(), 8);
    }
}
