//! The generator test battery pinning the scenario grammar
//! (`polycanary_bench::grammar`):
//!
//! * determinism — the same `(lattice, gen_seed)` enumerates byte-identical
//!   cells, and every generated cell's export envelope is byte-identical at
//!   1 and 8 workers once run-varying fields are scrubbed;
//! * `sample` is order-stable under `cross` reassociation, and generated
//!   envelopes round-trip through `records_from_json`;
//! * every enumerated cell's victim program passes the verifier's five
//!   invariant checks at O0 and O2 — including the grammar-generated
//!   victim programs and the binary-rewriter cells — and an injected
//!   defect through the generated path is still caught (the negative
//!   control);
//! * rollout cells: a steep [`RolloutCurve`] leaves the SPRT indifference
//!   region sooner than a flat 50/50 mix, verdicts are worker-count
//!   independent, and a rollout-curve configuration change diffs as
//!   informational, not as a regression.
//!
//! [`RolloutCurve`]: polycanary_attacks::population::RolloutCurve

use polycanary_analysis::diff::{diff_runs, DiffOptions, Severity};
use polycanary_analysis::run::Run;
use polycanary_attacks::victim::{victim_module, Deployment};
use polycanary_bench::experiments::{registry_with, Experiment, ExperimentCtx};
use polycanary_bench::grammar::{
    find_lattice, generated_experiments, lattices, Cell, GenStop, ScenarioSet,
};
use polycanary_compiler::{Compiler, OptLevel};
use polycanary_core::record::{export_envelope, records_from_json, records_to_json, Record, Value};
use polycanary_core::scheme::SchemeKind;
use polycanary_rewriter::{LinkMode, Rewriter};
use polycanary_verifier::rewrite_check::verify_rewritten;
use polycanary_verifier::verify::verify_compiled;

/// A CI-sized context the whole battery shares.
fn battery_ctx(seed: u64) -> ExperimentCtx {
    ExperimentCtx::new(seed).quick().with_campaign_seeds(4).with_byte_budget(2_600)
}

/// Strips the fields that legitimately vary between runs — wall-clock
/// times and the worker count — exactly like every export consumer does.
fn scrub(record: &Record) -> Record {
    let mut out = Record::new();
    for (name, value) in record.fields() {
        if name == "wall_ms" || name == "workers" {
            continue;
        }
        out.push(name.clone(), scrub_value(value));
    }
    out
}

fn scrub_value(value: &Value) -> Value {
    match value {
        Value::Record(rec) => Value::Record(scrub(rec)),
        Value::List(items) => Value::List(items.iter().map(scrub_value).collect()),
        other => other.clone(),
    }
}

/// Runs one generated experiment under `ctx` and renders its scrubbed
/// export envelope — the byte sequence the determinism battery compares.
fn scrubbed_envelope(experiment: &dyn Experiment, ctx: &ExperimentCtx) -> String {
    let output = experiment.run(ctx);
    let envelope = export_envelope(experiment.name(), experiment.export_ctx(ctx), output.records);
    scrub(&envelope).to_json()
}

#[test]
fn same_gen_seed_enumerates_byte_identical_cells() {
    for lattice in lattices() {
        let once = lattice.cells(7);
        let again = lattice.cells(7);
        assert_eq!(once, again, "lattice {} must enumerate deterministically", lattice.name());
        assert!(!once.is_empty(), "lattice {} enumerates no cells", lattice.name());
        // The registered experiment list mirrors the enumeration exactly.
        let names: Vec<String> = generated_experiments(lattice.name(), 7)
            .unwrap()
            .iter()
            .map(|e| e.name().to_string())
            .collect();
        let expected: Vec<String> =
            once.iter().map(|c| format!("gen:{}:{}", lattice.name(), c.slug())).collect();
        assert_eq!(names, expected);
    }
}

#[test]
fn generated_exports_are_byte_identical_across_worker_counts() {
    let ctx = battery_ctx(0xC0FFEE);
    for experiment in generated_experiments("smoke", 7).unwrap() {
        let serial = scrubbed_envelope(experiment.as_ref(), &ctx.clone().with_workers(1));
        let parallel = scrubbed_envelope(experiment.as_ref(), &ctx.clone().with_workers(8));
        assert_eq!(serial, parallel, "{}: export depends on the worker count", experiment.name());
    }
}

#[test]
fn sample_is_order_stable_under_cross_reassociation() {
    let a = || ScenarioSet::schemes(&[SchemeKind::Ssp, SchemeKind::Pssp, SchemeKind::PsspNt]);
    let b = || ScenarioSet::buffer_sizes(&[32, 64, 128]);
    let c = || ScenarioSet::stops(&[GenStop::Exhaustive, GenStop::Sprt]);
    for seed in [0u64, 7, 0xDEAD_BEEF] {
        let left = a().cross(b()).cross(c()).sample(seed, 5).cells();
        let right = a().cross(b().cross(c())).sample(seed, 5).cells();
        assert_eq!(left, right, "sample(seed={seed}) must ignore cross parenthesization");
        assert_eq!(left.len(), 5);
        // The survivors appear in enumeration order.
        let full = a().cross(b()).cross(c()).cells();
        let mut cursor = full.iter();
        for cell in &left {
            assert!(cursor.any(|c| c == cell), "sample reordered the enumeration");
        }
    }
}

#[test]
fn generated_envelopes_round_trip_through_records_from_json() {
    let ctx = battery_ctx(0xC0FFEE).with_workers(2);
    let experiments = generated_experiments("smoke", 7).unwrap();
    let experiment = &experiments[0];
    let output = experiment.run(&ctx);
    let json = records_to_json(&output.records);
    let parsed = records_from_json(&json).expect("generated records re-parse");
    // JSON fixed point: whole floats reparse as unsigned integers, so the
    // stable comparison is serialize -> parse -> serialize.
    assert_eq!(records_to_json(&parsed), json, "round-trip must be a fixed point");
    // The full envelope survives the same trip.
    let envelope = export_envelope(experiment.name(), experiment.export_ctx(&ctx), output.records);
    let envelope_json = envelope.to_json();
    let reparsed = Record::from_json(&envelope_json).expect("envelope re-parses");
    assert_eq!(reparsed.to_json(), envelope_json);
}

/// Builds and statically verifies the victim binary a cell describes, at
/// the given opt level: compiler cells through `verify_compiled`, rewriter
/// cells through `verify_rewritten` against the pre-rewrite program.
fn verify_cell_victim(cell: &Cell, opt: OptLevel) {
    let module = victim_module(cell.buffer_size, cell.program);
    match cell.deployment {
        Deployment::Compiler => {
            let compiled = Compiler::new(cell.scheme)
                .with_opt_level(opt)
                .compile(&module)
                .expect("generated victim modules always compile");
            let findings = verify_compiled(&compiled);
            assert!(
                findings.is_empty(),
                "cell {} at {opt}: verifier findings {findings:?}",
                cell.slug()
            );
        }
        Deployment::BinaryRewriter => {
            let compiled = Compiler::new(SchemeKind::Ssp)
                .with_opt_level(opt)
                .with_preserved_canary_shapes()
                .compile(&module)
                .expect("generated victim modules always compile");
            let original = compiled.program.clone();
            let mut rewritten = compiled.program;
            Rewriter::new()
                .with_link_mode(LinkMode::Dynamic)
                .rewrite(&mut rewritten)
                .expect("generated SSP victims are always rewritable");
            let findings = verify_rewritten(&original, &rewritten);
            assert!(
                findings.is_empty(),
                "cell {} at {opt}: rewrite findings {findings:?}",
                cell.slug()
            );
        }
    }
}

#[test]
fn every_enumerated_cell_victim_passes_the_five_invariant_checks() {
    // The smoke lattice covers both deployments and the grammar-generated
    // victim programs; a seeded sample of the 60-cell matrix covers the
    // buffer-size axis without blowing up test time.
    let mut cells = find_lattice("smoke").expect("smoke lattice").cells(7);
    cells.extend(find_lattice("matrix").expect("matrix lattice").set(7).sample(3, 6).cells());
    for cell in &cells {
        for opt in [OptLevel::O0, OptLevel::O2] {
            verify_cell_victim(cell, opt);
        }
    }
}

#[test]
fn injected_defect_through_the_generated_path_is_caught() {
    // Negative control: take a grammar-generated victim program down the
    // rewriter path, then undo the rewrite of one function (a stale
    // rewrite — the binary half-upgraded).  The verifier must object.
    let cell = find_lattice("smoke")
        .expect("smoke lattice")
        .cells(7)
        .into_iter()
        .find(|c| c.deployment == Deployment::BinaryRewriter && c.program != 0)
        .expect("smoke has a rewriter cell with a generated program");
    let module = victim_module(cell.buffer_size, cell.program);
    let compiled = Compiler::new(SchemeKind::Ssp)
        .with_preserved_canary_shapes()
        .compile(&module)
        .expect("generated victim modules always compile");
    let original = compiled.program.clone();
    let mut rewritten = compiled.program;
    Rewriter::new()
        .with_link_mode(LinkMode::Dynamic)
        .rewrite(&mut rewritten)
        .expect("generated SSP victims are always rewritable");
    let (id, insts) = original
        .iter()
        .find_map(|(id, f)| (f.name() == "handle_request").then(|| (id, f.insts().to_vec())))
        .expect("generated victims keep handle_request");
    rewritten.replace_function_body(id, insts).expect("body swap is well-formed");
    let findings = verify_rewritten(&original, &rewritten);
    assert!(!findings.is_empty(), "a stale rewrite must produce findings");
}

/// Runs a rollout cell and returns `(completed_seeds, verdict)` from its
/// nested campaign record.
fn rollout_outcome(experiment: &dyn Experiment, ctx: &ExperimentCtx) -> (u64, String) {
    let output = experiment.run(ctx);
    let Some(Value::Record(campaign)) = output.records[0].get("campaign") else {
        panic!("{}: no nested campaign record", experiment.name())
    };
    let completed = campaign.get("completed_seeds").and_then(Value::as_u64).unwrap();
    let verdict = campaign.get("verdict").and_then(Value::as_str).unwrap().to_string();
    (completed, verdict)
}

#[test]
fn steep_rollout_settles_sprt_earlier_than_flat() {
    // A steep curve hands the fleet to the patched (resisting) scheme
    // almost immediately, so the SPRT's log-likelihood ratio marches
    // straight to the "resists" boundary; a flat 50/50 mix random-walks
    // inside the indifference region and needs more victims to settle.
    let ctx = ExperimentCtx::new(0xC0FFEE)
        .quick()
        .with_campaign_seeds(32)
        .with_byte_budget(2_600)
        .with_workers(2);
    let experiments = generated_experiments("rollout", 7).unwrap();
    let cell = |suffix: &str| {
        experiments
            .iter()
            .find(|e| e.name() == format!("gen:rollout:pssp-cc-b64-bbb-sprt-p0-{suffix}"))
            .unwrap_or_else(|| panic!("rollout lattice misses the {suffix} cell"))
    };
    let (steep_runs, steep_verdict) = rollout_outcome(cell("steep").as_ref(), &ctx);
    let (flat_runs, _) = rollout_outcome(cell("flat").as_ref(), &ctx);
    assert_eq!(steep_verdict, "resists", "the patched fleet must prove itself");
    assert!(
        steep_runs < flat_runs,
        "steep rollout must settle earlier: steep={steep_runs} flat={flat_runs}"
    );
    assert!(steep_runs < 32, "steep rollout must stop before exhausting the fleet");
}

#[test]
fn rollout_verdicts_are_worker_count_independent() {
    let ctx = ExperimentCtx::new(0xC0FFEE).quick().with_campaign_seeds(12).with_byte_budget(2_600);
    for experiment in generated_experiments("rollout", 7).unwrap() {
        let serial = scrubbed_envelope(experiment.as_ref(), &ctx.clone().with_workers(1));
        let parallel = scrubbed_envelope(experiment.as_ref(), &ctx.clone().with_workers(8));
        assert_eq!(serial, parallel, "{}: rollout depends on worker count", experiment.name());
    }
}

#[test]
fn rollout_curve_ctx_divergence_diffs_as_informational() {
    // Export the same scenario name with the flat cell's results on one
    // side and the steep cell's on the other.  The envelopes' ctx records
    // disagree on `cell.rollout`, so `harness diff` must classify every
    // downstream record delta as informational — a configuration change,
    // not a regression.
    let ctx = battery_ctx(0xC0FFEE).with_workers(2);
    let experiments = generated_experiments("rollout", 7).unwrap();
    let pick = |suffix: &str| {
        experiments
            .iter()
            .find(|e| e.name().ends_with(suffix))
            .unwrap_or_else(|| panic!("missing rollout cell {suffix}"))
    };
    let flat = pick("pssp-cc-b64-bbb-sprt-p0-flat");
    let steep = pick("pssp-cc-b64-bbb-sprt-p0-steep");
    let name = flat.name();
    let mut old = Run::new();
    let flat_out = flat.run(&ctx);
    old.ingest_json(
        "old",
        &export_envelope(name, flat.export_ctx(&ctx), flat_out.records).to_json(),
    )
    .unwrap();
    let mut new = Run::new();
    let steep_out = steep.run(&ctx);
    new.ingest_json(
        "new",
        &export_envelope(name, steep.export_ctx(&ctx), steep_out.records).to_json(),
    )
    .unwrap();

    let report = diff_runs(&old, &new, None, &DiffOptions::default());
    assert!(!report.has_regressions(), "ctx divergence must not gate: {report:?}");
    assert!(
        report.findings.iter().any(|f| f.message.contains("rollout")),
        "the diverging rollout knob must be named: {:?}",
        report.findings
    );
    assert!(report.findings.iter().all(|f| f.severity == Severity::Info));
}

#[test]
fn registry_with_a_lattice_keeps_static_scenarios_runnable() {
    // The combined catalogue serves both worlds: static names still
    // resolve, generated cells ride alongside, and the harness's implicit
    // `gen:*` selection has something to select.
    let catalogue = registry_with(Some(("smoke", 7))).unwrap();
    let names: Vec<&str> = catalogue.iter().map(|e| e.name()).collect();
    assert!(names.contains(&"table1"));
    assert_eq!(names.iter().filter(|n| n.starts_with("gen:smoke:")).count(), 6);
}
