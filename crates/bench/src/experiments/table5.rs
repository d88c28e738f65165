//! Table V — prologue/epilogue cycles, swept over the opt-level axis.

use polycanary_compiler::codegen::Compiler;
use polycanary_compiler::ir::{FunctionBuilder, ModuleBuilder};
use polycanary_compiler::OptLevel;
use polycanary_core::record::Record;
use polycanary_core::scheme::SchemeKind;

use super::campaigns::render_table;
use super::{Experiment, ExperimentCtx, ScenarioOutput};

/// The Table V scenario: canary-handling cycle cost per configuration ×
/// optimization level.
pub struct Table5;

impl Experiment for Table5 {
    fn name(&self) -> &str {
        "table5"
    }

    fn title(&self) -> &str {
        "Table V: prologue/epilogue CPU cycles"
    }

    fn description(&self) -> &str {
        "Canary-handling cycle cost of P-SSP and its NT / LV / OWF \
         extensions on a minimal probe function, at O0 and the configured \
         opt level"
    }

    fn paper_note(&self) -> &str {
        "6 / 343 / 343 / 986 / 278 cycles for the same five configurations.  The \
         reproduction preserves the ordering and ratios at O0: P-SSP costs a \
         handful of cycles, NT and LV-2 are equal (one extra random draw), LV-4 \
         roughly triples that, OWF sits between P-SSP and NT.  The O2 rows show \
         what an optimizing deployment pays: the redundant canary re-loads are \
         eliminated in leaf functions, so every configuration gets cheaper — \
         OWF most of all, because its epilogue re-encryption disappears."
    }

    fn run(&self, ctx: &ExperimentCtx) -> ScenarioOutput {
        let entries = run_table5(ctx);
        ScenarioOutput::new(
            format_table5(&entries),
            entries.iter().map(Table5Entry::record).collect(),
        )
    }
}

/// One column of Table V at one optimization level.
#[derive(Debug, Clone, PartialEq)]
pub struct Table5Entry {
    /// Configuration label (scheme, plus canary count for P-SSP-LV).
    pub label: String,
    /// Optimization level of both the protected and the baseline build.
    pub opt_level: OptLevel,
    /// Extra cycles spent in the prologue + epilogue relative to the same
    /// function compiled without protection.
    pub cycles: u64,
}

impl Table5Entry {
    /// The self-describing record form of this entry, for JSON/CSV export.
    pub fn record(&self) -> Record {
        Record::new()
            .field("configuration", self.label.as_str())
            .field("opt_level", self.opt_level.label())
            .field("cycles", self.cycles)
    }
}

/// Runs the Table V micro-measurement over configuration × opt level.  Each
/// cell is an independent parallel job on the shared pool; simulated cycle
/// counts are exact, so the entries are a pure function of the context seed.
pub fn run_table5(ctx: &ExperimentCtx) -> Vec<Table5Entry> {
    let seed = ctx.seed;
    let configs: [(&str, SchemeKind, u32); 5] = [
        ("P-SSP", SchemeKind::Pssp, 0),
        ("P-SSP-NT", SchemeKind::PsspNt, 0),
        ("P-SSP-LV (2 canaries)", SchemeKind::PsspLv, 1),
        ("P-SSP-LV (4 canaries)", SchemeKind::PsspLv, 3),
        ("P-SSP-OWF", SchemeKind::PsspOwf, 0),
    ];
    let cells: Vec<((&str, SchemeKind, u32), OptLevel)> = configs
        .into_iter()
        .flat_map(|c| ctx.opt_levels().into_iter().map(move |opt| (c, opt)))
        .collect();
    ctx.pool().run(&cells, |_, &((label, scheme, criticals), opt)| Table5Entry {
        label: label.into(),
        opt_level: opt,
        cycles: canary_handling_cycles(scheme, criticals, opt, seed),
    })
}

/// Measures the prologue+epilogue cycle cost of `scheme` on a minimal probe
/// function with `critical_buffers` critical locals at `opt`, by differencing
/// against the unprotected build of the same probe at the same level.
pub fn canary_handling_cycles(
    scheme: SchemeKind,
    critical_buffers: u32,
    opt: OptLevel,
    seed: u64,
) -> u64 {
    let probe = |kind: SchemeKind| -> u64 {
        let mut f = FunctionBuilder::new("probe").buffer("buf", 32).safe_copy("buf");
        for i in 0..critical_buffers {
            f = f.critical_buffer(format!("secret_{i}"), 16);
        }
        let module = ModuleBuilder::new().function(f.returns(0).build()).build().unwrap();
        let compiled =
            Compiler::new(kind).with_opt_level(opt).compile(&module).expect("probe compiles");
        let mut machine = compiled.into_machine(seed);
        let mut process = machine.spawn();
        process.set_input(vec![0u8; 8]);
        let outcome = machine.run(&mut process).expect("probe runs");
        assert!(outcome.exit.is_normal(), "probe must not crash: {:?}", outcome.exit);
        outcome.cycles
    };
    probe(scheme).saturating_sub(probe(SchemeKind::Native))
}

/// Renders Table V.
pub fn format_table5(entries: &[Table5Entry]) -> String {
    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|e| vec![e.label.clone(), e.opt_level.to_string(), e.cycles.to_string()])
        .collect();
    render_table(
        "canary-handling cycles over the unprotected build of the same probe",
        &["Configuration", "Opt", "Cycles (pro+epi)"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_reproduces_the_paper_ordering() {
        // The paper measured unoptimized prologue/epilogue sequences: pin its
        // ordering on the O0 rows.
        let entries = run_table5(&ExperimentCtx::new(5).with_opt_level(OptLevel::O0));
        assert_eq!(entries.len(), 5);
        let get = |label: &str| entries.iter().find(|e| e.label.starts_with(label)).unwrap().cycles;
        let pssp = get("P-SSP");
        let nt = get("P-SSP-NT");
        let lv2 = get("P-SSP-LV (2");
        let lv4 = get("P-SSP-LV (4");
        let owf = get("P-SSP-OWF");
        // Paper: 6, 343, 343, 986, 278.
        assert!(pssp < 30, "P-SSP should be a handful of cycles, got {pssp}");
        assert!(owf > pssp && owf < nt, "OWF ({owf}) sits between P-SSP ({pssp}) and NT ({nt})");
        assert!((lv2 as i64 - nt as i64).abs() < 60, "LV-2 ({lv2}) ~ NT ({nt})");
        assert!(lv4 > 2 * nt, "LV-4 ({lv4}) draws three random numbers vs NT's one ({nt})");
        assert!(format_table5(&entries).contains("P-SSP-OWF"));
    }

    #[test]
    fn table5_o2_rows_are_cheaper_than_their_o0_counterparts() {
        let entries = run_table5(&ExperimentCtx::new(5));
        // configuration × {O0, O2}, O0 first within each configuration.
        assert_eq!(entries.len(), 10);
        for pair in entries.chunks(2) {
            let (o0, o2) = (&pair[0], &pair[1]);
            assert_eq!(o0.label, o2.label);
            assert_eq!(o0.opt_level, OptLevel::O0);
            assert_eq!(o2.opt_level, OptLevel::O2);
            assert!(
                o2.cycles < o0.cycles,
                "{}: O2 ({}) must cost fewer canary cycles than O0 ({})",
                o0.label,
                o2.cycles,
                o0.cycles
            );
        }
    }

    #[test]
    fn table5_and_ablation_align_every_cell_under_its_heading() {
        // Regression: fixed-width formats printed the `Opt` heading two
        // columns right of the `O0`/`O2` cells.
        let ctx = ExperimentCtx::new(5);
        for text in [Table5.run(&ctx).text, crate::experiments::Ablation.run(&ctx).text] {
            let lines: Vec<&str> = text.lines().skip(1).collect();
            let opt = lines[0].find("Opt").expect("an Opt heading");
            assert!(lines.len() > 2, "{text}");
            for row in &lines[1..] {
                assert!(row[opt..].starts_with('O') && &row[opt - 1..opt] == " ", "{text}");
            }
        }
    }

    #[test]
    fn table5_entries_are_worker_count_independent() {
        let once = run_table5(&ExperimentCtx::new(5).with_workers(1));
        let twice = run_table5(&ExperimentCtx::new(5).with_workers(8));
        assert_eq!(once, twice);
        assert_eq!(once.len(), 10);
    }
}
