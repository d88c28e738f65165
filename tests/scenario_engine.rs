//! Engine-wide guarantees of the scenario registry: every registered
//! scenario runs on the shared job pool (worker-count independent), obeys
//! the `ExperimentCtx` contract (seed-deterministic), and exports
//! envelopes the workspace's own JSON parser can read back.  Because the
//! sweep iterates [`registry`], a newly added scenario is covered the
//! moment it is registered — it cannot dodge these tests.

use polycanary::analysis::scrub::scrub_all;
use polycanary::crypto::sha1::Sha1;
use polycanary_bench::experiments::{registry, ExperimentCtx};
use polycanary_core::record::{
    export_envelope, records_from_json, records_to_json, Record, Value, SCHEMA_VERSION,
};

/// A CI-sized context: every sizing knob shrunk far enough that the whole
/// registry runs twice (serial + parallel) in test time.
fn sweep_ctx(seed: u64) -> ExperimentCtx {
    ExperimentCtx::new(seed)
        .quick()
        .with_spec_programs(2)
        .with_requests(10)
        .with_queries(2)
        .with_byte_budget(2_600)
        .with_campaign_seeds(4)
        .with_samples(600)
}

/// Strips the fields that legitimately vary between runs — wall-clock
/// times and the worker count — so two runs of the same scenario can be
/// compared record for record.
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

fn scrubbed(records: &[Record]) -> Vec<Record> {
    records.iter().map(scrub).collect()
}

#[test]
fn every_registered_scenario_is_worker_count_independent() {
    let ctx = sweep_ctx(0xC0FFEE);
    for experiment in registry() {
        let serial = experiment.run(&ctx.clone().with_workers(1));
        let parallel = experiment.run(&ctx.clone().with_workers(8));
        assert!(!serial.records.is_empty(), "{}: produced no records", experiment.name());
        assert!(!serial.text.trim().is_empty(), "{}: produced no rendering", experiment.name());
        assert_eq!(
            scrubbed(&serial.records),
            scrubbed(&parallel.records),
            "{}: records depend on the worker count",
            experiment.name()
        );
    }
}

#[test]
fn every_registered_scenario_export_reparses() {
    let ctx = sweep_ctx(0xC0FFEE).with_workers(4);
    for experiment in registry() {
        let output = experiment.run(&ctx);

        // The bare record array re-parses through the workspace parser.
        let reparsed = records_from_json(&records_to_json(&output.records))
            .unwrap_or_else(|err| panic!("{}: records do not re-parse: {err}", experiment.name()));
        assert_eq!(reparsed.len(), output.records.len(), "{}", experiment.name());

        // So does the full export envelope, with its metadata intact.
        let envelope = export_envelope(experiment.name(), ctx.record(), output.records);
        let parsed = Record::from_json(&envelope.to_json()).unwrap_or_else(|err| {
            panic!("{}: envelope does not re-parse: {err}", experiment.name())
        });
        assert_eq!(parsed.get("schema_version").and_then(Value::as_u64), Some(SCHEMA_VERSION));
        assert_eq!(parsed.get("scenario").and_then(Value::as_str), Some(experiment.name()));
        let Some(Value::Record(parsed_ctx)) = parsed.get("ctx") else {
            panic!("{}: envelope must nest the ctx record", experiment.name())
        };
        assert_eq!(parsed_ctx.get("seed").and_then(Value::as_u64), Some(ctx.seed));
        assert_eq!(parsed_ctx.get("workers").and_then(Value::as_u64), Some(4));
    }
}

#[test]
fn every_registered_scenario_consumes_the_context_seed() {
    // Every scenario whose output involves randomness must produce
    // different records under different context seeds — the regression
    // this guards against is the pre-registry `run_table2(programs)`,
    // which ignored the harness `--seed` entirely.  Three scenarios are
    // seed-*invariant* by design and asserted as such: simulated cycle
    // counts depend only on the executed instructions, never on the
    // canary values the seed draws, so `fig5` / `table5` / `ablation`
    // (cycle-derived overheads and analytical properties) are pure
    // functions of the workload.
    let seed_invariant = ["fig5", "table5", "ablation"];
    let a_ctx = sweep_ctx(0xA);
    let b_ctx = sweep_ctx(0xB);
    for experiment in registry() {
        let a = scrubbed(&experiment.run(&a_ctx).records);
        let b = scrubbed(&experiment.run(&b_ctx).records);
        if seed_invariant.contains(&experiment.name()) {
            assert_eq!(a, b, "{} is seed-invariant by design", experiment.name());
        } else {
            assert_ne!(a, b, "{}: records ignore the context seed", experiment.name());
        }
    }
}

/// Campaign-scenario goldens: `(scenario, adaptive, fleet, digest)`.  Each
/// digest is `Sha1::digest_word` of the scrubbed records' JSON at
/// [`golden_ctx`], so a campaign record moves only with a deliberate change
/// to what the campaign scenarios export; re-record it then and say why.
const CAMPAIGN_GOLDENS: [(&str, bool, Option<usize>, u64); 6] = [
    ("effectiveness", false, None, 0x579d_e224_d4a2_017e),
    ("effectiveness", true, None, 0xaa02_4e5e_cb94_0e1a),
    ("server-attack", false, None, 0x845c_d41c_4e7d_5c50),
    ("population", false, None, 0xc056_d8b9_3124_4141),
    ("server-attack", false, Some(10_000), 0x6190_c187_82e9_329e),
    ("population", false, Some(10_000), 0xd1cc_ffc2_6512_b46c),
];

/// The small context the campaign goldens are recorded at.
fn golden_ctx() -> ExperimentCtx {
    ExperimentCtx::new(5).with_byte_budget(3_000).with_campaign_seeds(4)
}

#[test]
fn campaign_scenario_records_match_their_goldens() {
    let mut mismatches = Vec::new();
    for (name, adaptive, fleet, golden) in CAMPAIGN_GOLDENS {
        let mut ctx = golden_ctx();
        if adaptive {
            ctx = ctx.adaptive();
        }
        if let Some(fleet) = fleet {
            ctx = ctx.with_fleet(fleet);
        }
        let experiment = registry()
            .into_iter()
            .find(|e| e.name() == name)
            .unwrap_or_else(|| panic!("{name} is registered"));
        let records = scrub_all(&experiment.run(&ctx).records);
        let digest = Sha1::digest_word(records_to_json(&records).as_bytes());
        if digest != golden {
            mismatches.push(format!(
                "{name} (adaptive {adaptive}, fleet {fleet:?}): {digest:#018x}, golden {golden:#018x}"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
