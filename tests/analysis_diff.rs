//! The trend-tracking battery over committed fixture envelopes: the
//! contracts `harness diff` and `harness report` are built on.
//!
//! `tests/fixtures/run_a.json` and `run_b.json` are two exports of the
//! same `server-attack` configuration (same seed, same sizing, different
//! worker counts and wall times).  Run B carries one injected behavior
//! change — the P-SSP byte-by-byte verdict flips to `breaks` — so the
//! battery can pin, from real files on disk: identical runs diff clean,
//! volatile fields never produce findings, verdict flips gate, wall-time
//! regressions trip the threshold against a timings baseline, ctx and
//! scenario mismatches name the diverging key, future schema versions are
//! clear errors, and the generated Markdown report is deterministic.
//! `run_o0.json`/`run_o2.json` are the same export with only
//! `ctx.opt_level` diverging, pinning that a deliberate opt-level change
//! downgrades its downstream record deltas to informational.

use std::path::Path;

use polycanary_analysis::diff::{diff_runs, DiffOptions, Severity};
use polycanary_analysis::run::{LoadError, Run};
use polycanary_analysis::summary::RunSummary;
use polycanary_bench::experiments::report_sections;
use polycanary_core::record::{Envelope, EnvelopeError, SCHEMA_VERSION};

fn fixture_path(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn fixture_run(name: &str) -> Run {
    Run::load(&fixture_path(name)).expect("committed fixture loads")
}

fn fixture_text(name: &str) -> String {
    std::fs::read_to_string(fixture_path(name)).expect("committed fixture reads")
}

/// A timings-only run, shaped like BENCH_scenarios.json.
fn timings(pairs: &[(&str, f64)]) -> Run {
    let rows: Vec<String> = pairs
        .iter()
        .map(|(scenario, ms)| {
            format!(
                "{{\"schema_version\":1,\"scenario\":\"{scenario}\",\"wall_ms\":{ms},\
                 \"records\":5,\"seed\":7,\"quick\":true}}"
            )
        })
        .collect();
    let mut run = Run::new();
    run.ingest_json("timings", &format!("[{}]", rows.join(","))).unwrap();
    run
}

#[test]
fn identical_runs_diff_clean() {
    let a = fixture_run("run_a.json");
    let again = fixture_run("run_a.json");
    let report = diff_runs(&a, &again, None, &DiffOptions::default());
    assert!(report.findings.is_empty(), "self-diff must be empty: {:?}", report.findings);
    assert!(!report.has_regressions());
    assert_eq!(report.scenarios_compared, 1);
    assert!(report.render_text().starts_with("clean:"), "{}", report.render_text());
}

#[test]
fn injected_verdict_flip_is_reported_and_gates() {
    let report = diff_runs(
        &fixture_run("run_a.json"),
        &fixture_run("run_b.json"),
        None,
        &DiffOptions::default(),
    );
    assert!(report.has_regressions());

    // The flip is named by record and path, and classified as a verdict flip.
    let flip = report
        .findings
        .iter()
        .find(|f| f.kind == "verdict-flip")
        .unwrap_or_else(|| panic!("no verdict flip in {:?}", report.findings));
    assert_eq!(flip.severity, Severity::Regression);
    assert_eq!(flip.scenario, "server-attack");
    assert!(flip.message.contains("scheme=P-SSP.byte_by_byte.verdict"), "{}", flip.message);
    assert!(flip.message.contains("\"resists\" -> \"breaks\""), "{}", flip.message);

    // The quantity drifts ride along as information, typed by field name.
    assert!(report.findings.iter().any(|f| f.kind == "success-rate-drift"
        && f.severity == Severity::Info
        && f.message.contains("success_rate: 0 -> 0.5")));
    assert!(report
        .findings
        .iter()
        .any(|f| f.kind == "request-drift" && f.message.contains("total_requests")));

    // The worker count (4 -> 8), format (json -> text) and embedded wall
    // times differ between the fixtures — none of that may surface.
    for finding in &report.findings {
        for volatile in ["workers", "wall_ms", "format"] {
            assert!(!finding.message.contains(volatile), "{finding:?}");
        }
    }
}

#[test]
fn wall_time_regression_trips_the_threshold_against_the_baseline() {
    // A fresh run 3x slower than its BENCH_scenarios.json baseline entry.
    let baseline = timings(&[("server-attack", 40.0), ("table1", 42.0)]);
    let fresh = timings(&[("server-attack", 120.0), ("table1", 43.0)]);

    let report = diff_runs(&fresh, &fresh, Some(&baseline), &DiffOptions::default());
    assert!(report.has_regressions());
    let wall = report.findings.iter().find(|f| f.kind == "wall-regression").unwrap();
    assert_eq!(wall.scenario, "server-attack");
    assert!(wall.message.contains("40.000 ms -> 120.000 ms (+200.0% > +25%)"), "{}", wall.message);
    // table1 moved 2.4%: inside the threshold, no finding.
    assert!(!report.findings.iter().any(|f| f.scenario == "table1"), "{:?}", report.findings);

    // Same data under a 300% threshold: clean.  And OLD's own timings are
    // the fallback baseline: self-diff is clean without --baseline.
    let lax = DiffOptions { threshold_pct: 300.0, ..DiffOptions::default() };
    assert!(!diff_runs(&fresh, &fresh, Some(&baseline), &lax).has_regressions());
    assert!(!diff_runs(&fresh, &fresh, None, &DiffOptions::default()).has_regressions());
}

#[test]
fn ctx_and_scenario_mismatches_name_the_diverging_key() {
    // Same scenario, different seed: the diverged ctx key is named, and
    // the record changes downstream are expected — informational, so the
    // diff still exits zero.
    let a = fixture_run("run_a.json");
    let mut reseeded = Run::new();
    reseeded
        .ingest_json("reseeded", &fixture_text("run_b.json").replace("\"seed\": 7", "\"seed\": 11"))
        .unwrap();
    let report = diff_runs(&a, &reseeded, None, &DiffOptions::default());
    assert!(!report.has_regressions(), "{:?}", report.findings);
    let ctx = report.findings.iter().find(|f| f.kind == "ctx-diverged").unwrap();
    assert!(ctx.message.contains("ctx.seed: 7 -> 11"), "{}", ctx.message);
    assert!(report
        .findings
        .iter()
        .any(|f| f.kind == "verdict-flip" && f.severity == Severity::Info));

    // Different scenario name entirely: the set difference is reported per
    // side, and the lost scenario gates.
    let mut renamed = Run::new();
    renamed
        .ingest_json(
            "renamed",
            &fixture_text("run_a.json").replace("\"server-attack\"", "\"server-attack-v2\""),
        )
        .unwrap();
    let report = diff_runs(&a, &renamed, None, &DiffOptions::default());
    assert!(report.has_regressions());
    assert!(report
        .findings
        .iter()
        .any(|f| f.kind == "scenario-removed" && f.scenario == "server-attack"));
    assert!(report
        .findings
        .iter()
        .any(|f| f.kind == "scenario-added" && f.scenario == "server-attack-v2"));
}

#[test]
fn opt_level_only_ctx_divergence_downgrades_downstream_changes() {
    // `run_o0.json` and `run_o2.json` differ only in `ctx.opt_level` (plus
    // the record changes an opt-level switch legitimately causes).  Like a
    // reseed, a deliberate opt-level change explains its downstream deltas:
    // the diverged key is named and everything downstream is informational.
    let report = diff_runs(
        &fixture_run("run_o0.json"),
        &fixture_run("run_o2.json"),
        None,
        &DiffOptions::default(),
    );
    assert!(!report.has_regressions(), "{:?}", report.findings);
    let ctx = report.findings.iter().find(|f| f.kind == "ctx-diverged").unwrap();
    assert!(ctx.message.contains("ctx.opt_level"), "{}", ctx.message);
    assert!(ctx.message.contains("O0") && ctx.message.contains("O2"), "{}", ctx.message);
    let flip = report.findings.iter().find(|f| f.kind == "verdict-flip").unwrap();
    assert_eq!(flip.severity, Severity::Info, "{flip:?}");
    assert!(report
        .findings
        .iter()
        .filter(|f| f.kind != "ctx-diverged")
        .all(|f| f.severity == Severity::Info));
}

#[test]
fn dropping_the_verdict_field_gates_even_without_a_value_change() {
    // A code change that stops exporting the verdict must not slip past the
    // gate just because nothing compared unequal.
    let a = fixture_run("run_a.json");
    let mut stripped = Run::new();
    stripped
        .ingest_json(
            "stripped",
            &fixture_text("run_a.json").replace("\"verdict\": \"resists\",\n        ", ""),
        )
        .unwrap();
    let report = diff_runs(&a, &stripped, None, &DiffOptions::default());
    assert!(report.has_regressions());
    let removed = report.findings.iter().find(|f| f.kind == "field-removed").unwrap();
    assert_eq!(removed.severity, Severity::Regression);
    assert!(removed.message.contains("byte_by_byte.verdict"), "{}", removed.message);
}

#[test]
fn future_schema_versions_are_clear_errors_not_panics() {
    let future = fixture_text("run_a.json")
        .replace("\"schema_version\": 1", &format!("\"schema_version\": {}", SCHEMA_VERSION + 1));

    // Through the typed accessor ...
    let err = Envelope::from_json(&future).unwrap_err();
    assert_eq!(
        err,
        EnvelopeError::FutureSchema { found: SCHEMA_VERSION + 1, supported: SCHEMA_VERSION }
    );
    assert!(err.to_string().contains("upgrade the analysis toolchain"), "{err}");

    // ... and through the run loader `harness diff` uses, with the source named.
    let err: LoadError = Run::new().ingest_json("future.json", &future).unwrap_err();
    let message = err.to_string();
    assert!(message.contains("future.json"), "{message}");
    assert!(message.contains(&format!("schema_version {}", SCHEMA_VERSION + 1)), "{message}");
}

#[test]
fn markdown_report_snapshot_is_deterministic() {
    let sections = report_sections();
    let once = RunSummary::new(&fixture_run("run_a.json"), &sections).to_markdown();
    let twice = RunSummary::new(&fixture_run("run_a.json"), &sections).to_markdown();
    assert_eq!(once, twice, "the report must be a pure function of the export");

    // Section metadata comes from the scenario registry, not the export.
    assert!(once.contains("## Forking-server attack: SPRT vs exhaustive"), "{once}");
    assert!(once.contains("**Paper:** each victim is a long-lived forking server"), "{once}");
    // Records render with campaign digests; volatile fields are scrubbed.
    assert!(once.contains("breaks 4/4, 3580 reqs"), "{once}");
    assert!(once.contains("resists 0/4, 1350 reqs"), "{once}");
    assert!(!once.contains("wall_ms"), "wall times must be scrubbed:\n{once}");
    assert!(!once.contains("| `workers` |"), "worker counts must be scrubbed:\n{once}");

    // And the run summary's JSON form re-parses through the workspace parser.
    let summary = RunSummary::new(&fixture_run("run_a.json"), &sections);
    let json = summary.to_record().to_json();
    polycanary_core::record::Record::from_json(&json).expect("summary JSON re-parses");
}
