//! Comparing two runs: typed findings, regression gating, wall-time ratios.
//!
//! [`diff_runs`] aligns an `old` and a `new` [`Run`] scenario by scenario
//! and emits one [`Finding`] per difference.  Findings are *typed* by
//! severity so CI can gate on them:
//!
//! * [`Severity::Regression`] — the diff's exit-non-zero class: a scenario
//!   disappeared, a campaign **verdict** or boolean claim **flipped** under
//!   an unchanged configuration, a record **lost a field** or list entries
//!   under an unchanged configuration, or a scenario's wall time exceeded
//!   the baseline by more than the configured threshold (and more than
//!   [`DiffOptions::min_wall_ms`], so sub-millisecond noise cannot trip
//!   the gate).
//! * [`Severity::Info`] — everything worth reporting but not gating on:
//!   added scenarios, ctx keys that diverged (named individually, e.g.
//!   `ctx.seed: 7 -> 11`), numeric drift in success rates / request and
//!   connection counts, wall-time movement inside the threshold, and —
//!   when the ctx itself diverged — record changes, which are then
//!   *expected* rather than regressions.
//!
//! Wall times come from `--timings` exports: the `new` run's timings are
//! compared against `baseline` (typically the committed
//! `BENCH_scenarios.json`), falling back to the `old` run's own timings.
//! Record comparison first [`scrub`]s both sides, so
//! worker counts and embedded wall times never produce findings.

use std::collections::BTreeSet;

use polycanary_core::record::{Record, Value};

use crate::run::Run;
use crate::scrub::{scrub, VOLATILE_FIELDS};

/// How severe a [`Finding`] is — the axis `harness diff` gates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Reported, but does not fail the diff.
    Info,
    /// Fails the diff: verdict flip, lost scenario, or a wall-time
    /// regression beyond the threshold.
    Regression,
}

impl Severity {
    /// Display label (`info` / `REGRESSION`).
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Regression => "REGRESSION",
        }
    }
}

/// One difference between two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Whether this finding fails the diff.
    pub severity: Severity,
    /// The scenario the finding belongs to (`*` for run-level findings).
    pub scenario: String,
    /// Stable machine-readable kind (`verdict-flip`, `wall-regression`,
    /// `ctx-diverged`, `success-rate-drift`, …).
    pub kind: &'static str,
    /// Human-readable description with the diverging key and both values.
    pub message: String,
}

impl Finding {
    /// The self-describing record form of this finding.
    pub fn record(&self) -> Record {
        Record::new()
            .field("severity", self.severity.label())
            .field("scenario", self.scenario.as_str())
            .field("kind", self.kind)
            .field("message", self.message.as_str())
    }
}

/// Tunables of a diff.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffOptions {
    /// Wall-time regression threshold in percent: a scenario regresses
    /// when `new > old * (1 + threshold_pct / 100)`.
    pub threshold_pct: f64,
    /// Absolute floor in milliseconds: wall-time growth below this never
    /// regresses, so micro-scenarios (0.1 ms cells) cannot trip the gate
    /// on scheduler noise.
    pub min_wall_ms: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions { threshold_pct: 25.0, min_wall_ms: 1.0 }
    }
}

/// Everything [`diff_runs`] found, plus the counts behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Every difference, in deterministic scenario order.
    pub findings: Vec<Finding>,
    /// How many scenarios had envelopes on both sides.
    pub scenarios_compared: usize,
    /// How many scenarios had wall times on both sides.
    pub timings_compared: usize,
    /// The options the diff ran under.
    pub options: DiffOptions,
}

impl DiffReport {
    /// True when any finding is a [`Severity::Regression`] — the condition
    /// under which `harness diff` exits non-zero.
    pub fn has_regressions(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Regression)
    }

    /// The findings of one severity.
    pub fn with_severity(&self, severity: Severity) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.severity == severity)
    }

    /// The self-describing record form of this report (Record-based JSON).
    pub fn to_record(&self) -> Record {
        Record::new()
            .field("scenarios_compared", self.scenarios_compared)
            .field("timings_compared", self.timings_compared)
            .field("threshold_pct", self.options.threshold_pct)
            .field("min_wall_ms", self.options.min_wall_ms)
            .field("regressions", self.with_severity(Severity::Regression).count())
            .field("clean", !self.has_regressions())
            .field("findings", self.findings.iter().map(Finding::record).collect::<Vec<_>>())
    }

    /// Plain-text rendering: one line per finding, then the verdict line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for finding in &self.findings {
            out.push_str(&format!(
                "[{}] {}: {}\n",
                finding.severity.label(),
                finding.scenario,
                finding.message
            ));
        }
        let regressions = self.with_severity(Severity::Regression).count();
        out.push_str(&format!(
            "{}: {} scenario(s), {} timing(s) compared, {} finding(s), {} regression(s) \
             (threshold +{}%, floor {} ms)\n",
            if regressions == 0 { "clean" } else { "REGRESSED" },
            self.scenarios_compared,
            self.timings_compared,
            self.findings.len(),
            regressions,
            self.options.threshold_pct,
            self.options.min_wall_ms,
        ));
        out
    }
}

/// Diffs `new` against `old`, with wall times judged against `baseline`
/// (defaulting to `old`'s own timings) under `options`.
pub fn diff_runs(
    old: &Run,
    new: &Run,
    baseline: Option<&Run>,
    options: &DiffOptions,
) -> DiffReport {
    let mut findings = Vec::new();

    // Scenario set alignment: a lost scenario is a regression (CI would
    // silently stop covering it), a new one is information.
    let old_names: BTreeSet<&String> = old.scenarios.keys().collect();
    let new_names: BTreeSet<&String> = new.scenarios.keys().collect();
    for name in old_names.difference(&new_names) {
        findings.push(Finding {
            severity: Severity::Regression,
            scenario: (*name).clone(),
            kind: "scenario-removed",
            message: "scenario present in OLD but missing from NEW".into(),
        });
    }
    for name in new_names.difference(&old_names) {
        findings.push(Finding {
            severity: Severity::Info,
            scenario: (*name).clone(),
            kind: "scenario-added",
            message: "scenario present in NEW but not in OLD".into(),
        });
    }

    let mut scenarios_compared = 0;
    for name in old_names.intersection(&new_names) {
        let (o, n) = (&old.scenarios[*name], &new.scenarios[*name]);
        scenarios_compared += 1;
        diff_scenario(name, o, n, &mut findings);
    }

    // Wall times: NEW vs the baseline (explicit file, else OLD's timings).
    let timing_reference = baseline.map(|b| &b.timings).unwrap_or(&old.timings);
    let mut timings_compared = 0;
    for (name, new_timing) in &new.timings {
        let Some(old_timing) = timing_reference.get(name) else {
            findings.push(Finding {
                severity: Severity::Info,
                scenario: name.clone(),
                kind: "timing-unbaselined",
                message: format!(
                    "no baseline wall time for this scenario (new: {:.3} ms)",
                    new_timing.wall_ms
                ),
            });
            continue;
        };
        timings_compared += 1;
        diff_timing(name, old_timing.wall_ms, new_timing.wall_ms, options, &mut findings);
    }
    for name in timing_reference.keys() {
        if !new.timings.contains_key(name) {
            findings.push(Finding {
                severity: Severity::Info,
                scenario: name.clone(),
                kind: "timing-missing",
                message: "baseline has a wall time for this scenario but NEW does not".into(),
            });
        }
    }

    findings.sort_by(|a, b| (a.scenario.as_str(), a.kind).cmp(&(b.scenario.as_str(), b.kind)));
    DiffReport { findings, scenarios_compared, timings_compared, options: options.clone() }
}

/// Diffs one scenario present on both sides.
fn diff_scenario(
    name: &str,
    old: &crate::run::ScenarioRun,
    new: &crate::run::ScenarioRun,
    findings: &mut Vec<Finding>,
) {
    if old.schema_version != new.schema_version {
        findings.push(Finding {
            severity: Severity::Info,
            scenario: name.into(),
            kind: "schema-version-changed",
            message: format!(
                "envelope schema_version {} -> {} (format change, not a data change)",
                old.schema_version, new.schema_version
            ),
        });
    }

    // Ctx alignment: every diverged key is named.  A diverged ctx means
    // record differences are *expected* (the configuration changed), so
    // they are downgraded from regressions to information.
    let ctx_diverged = diff_ctx(name, &old.ctx, &new.ctx, findings);

    let old_records = crate::scrub::scrub_all(&old.records);
    let new_records = crate::scrub::scrub_all(&new.records);
    if old_records.len() != new_records.len() {
        findings.push(Finding {
            severity: if ctx_diverged { Severity::Info } else { Severity::Regression },
            scenario: name.into(),
            kind: "record-count",
            message: format!("record count {} -> {}", old_records.len(), new_records.len()),
        });
    }
    for (index, (o, n)) in old_records.iter().zip(&new_records).enumerate() {
        let label = record_label(o, index);
        diff_value(
            name,
            &label,
            &Value::Record(o.clone()),
            &Value::Record(n.clone()),
            ctx_diverged,
            findings,
        );
    }
}

/// The field names of `old` followed by the names only `new` has, without
/// duplicates — the iteration order every record-pair comparison uses.
fn union_keys<'a>(old: &'a Record, new: &'a Record) -> Vec<&'a str> {
    let mut keys: Vec<&str> = old.fields().iter().map(|(k, _)| k.as_ref()).collect();
    for (key, _) in new.fields() {
        if !keys.contains(&key.as_ref()) {
            keys.push(key);
        }
    }
    keys
}

/// Compares the two ctx records (volatile keys excluded); pushes one
/// finding per diverged key and returns whether any result-affecting key
/// diverged.
fn diff_ctx(name: &str, old: &Record, new: &Record, findings: &mut Vec<Finding>) -> bool {
    let (old, new) = (scrub(old), scrub(new));
    let keys = union_keys(&old, &new);
    let mut diverged = false;
    for key in keys {
        let (o, n) = (old.get(key), new.get(key));
        if o != n {
            diverged = true;
            findings.push(Finding {
                severity: Severity::Info,
                scenario: name.into(),
                kind: "ctx-diverged",
                message: format!(
                    "ctx.{key}: {} -> {} (configurations differ; record changes below are \
                     expected, not regressions)",
                    render_opt(o),
                    render_opt(n)
                ),
            });
        }
    }
    diverged
}

fn render_opt(value: Option<&Value>) -> String {
    value.map(Value::to_json).unwrap_or_else(|| "(absent)".into())
}

/// A stable label for the `index`-th record: its first string field (the
/// scheme / program / fleet column every scenario leads with), else the
/// index.
fn record_label(record: &Record, index: usize) -> String {
    record
        .fields()
        .iter()
        .find_map(|(k, v)| v.as_str().map(|s| format!("{k}={s}")))
        .unwrap_or_else(|| format!("#{index}"))
}

/// Recursively compares one aligned value pair, emitting typed findings at
/// `path`.
fn diff_value(
    scenario: &str,
    path: &str,
    old: &Value,
    new: &Value,
    ctx_diverged: bool,
    findings: &mut Vec<Finding>,
) {
    if old == new {
        return;
    }
    // Losing data under an unchanged configuration gates — a scenario that
    // silently drops its verdict field (or truncates its per-seed runs)
    // must not pass the diff just because nothing *compared* unequal.
    // Gaining a field or list entries is ordinary evolution: informational.
    let gating = if ctx_diverged { Severity::Info } else { Severity::Regression };
    match (old, new) {
        (Value::Record(o), Value::Record(n)) => {
            for key in union_keys(o, n) {
                if VOLATILE_FIELDS.contains(&key) {
                    continue;
                }
                let child = format!("{path}.{key}");
                match (o.get(key), n.get(key)) {
                    (Some(ov), Some(nv)) => {
                        diff_value(scenario, &child, ov, nv, ctx_diverged, findings)
                    }
                    (Some(removed), None) => findings.push(Finding {
                        severity: gating,
                        scenario: scenario.into(),
                        kind: "field-removed",
                        message: format!("{child}: {} -> (absent)", removed.to_json()),
                    }),
                    (None, added) => findings.push(Finding {
                        severity: Severity::Info,
                        scenario: scenario.into(),
                        kind: "field-added",
                        message: format!("{child}: (absent) -> {}", render_opt(added)),
                    }),
                }
            }
        }
        (Value::List(o), Value::List(n)) => {
            if o.len() != n.len() {
                findings.push(Finding {
                    severity: if n.len() < o.len() { gating } else { Severity::Info },
                    scenario: scenario.into(),
                    kind: "list-length",
                    message: format!("{path}: length {} -> {}", o.len(), n.len()),
                });
            }
            for (i, (ov, nv)) in o.iter().zip(n).enumerate() {
                diff_value(scenario, &format!("{path}[{i}]"), ov, nv, ctx_diverged, findings);
            }
        }
        _ => findings.push(scalar_finding(scenario, path, old, new, ctx_diverged)),
    }
}

/// Types a scalar difference by its field name: verdict flips gate, known
/// quantity drifts get their own kinds, everything else is generic change.
fn scalar_finding(
    scenario: &str,
    path: &str,
    old: &Value,
    new: &Value,
    ctx_diverged: bool,
) -> Finding {
    let field = path.rsplit('.').next().unwrap_or(path);
    let field = field.split('[').next().unwrap_or(field);
    // Under an unchanged configuration records are pure functions of the
    // ctx, so a flipped claim is a behavior change, not noise.  Verdicts
    // (`verdict`, `brop_verdict`, …) and boolean claims (`correct`,
    // `brop_prevented`, `verdicts_agree`, per-seed `success`, …) gate;
    // quantities drift informationally.
    let gating = if ctx_diverged { Severity::Info } else { Severity::Regression };
    if field == "verdict" || field.ends_with("_verdict") {
        return Finding {
            severity: gating,
            scenario: scenario.into(),
            kind: "verdict-flip",
            message: format!("{path}: {} -> {}", old.to_json(), new.to_json()),
        };
    }
    if matches!((old, new), (Value::Bool(_), Value::Bool(_))) {
        return Finding {
            severity: gating,
            scenario: scenario.into(),
            kind: "flag-flip",
            message: format!("{path}: {} -> {}", old.to_json(), new.to_json()),
        };
    }
    if let (Some(o), Some(n)) = (old.as_f64(), new.as_f64()) {
        let kind = match field {
            "success_rate" => "success-rate-drift",
            "connections" | "requests" | "total_requests" => "request-drift",
            _ => "value-drift",
        };
        let delta = n - o;
        return Finding {
            severity: Severity::Info,
            scenario: scenario.into(),
            kind,
            message: format!("{path}: {} -> {} ({delta:+})", old.to_json(), new.to_json()),
        };
    }
    Finding {
        severity: Severity::Info,
        scenario: scenario.into(),
        kind: "value-changed",
        message: format!("{path}: {} -> {}", old.to_json(), new.to_json()),
    }
}

/// Classifies one scenario's wall-time movement against the baseline.
fn diff_timing(
    name: &str,
    old_ms: f64,
    new_ms: f64,
    options: &DiffOptions,
    findings: &mut Vec<Finding>,
) {
    if old_ms <= 0.0 || !old_ms.is_finite() || !new_ms.is_finite() {
        return;
    }
    let ratio = new_ms / old_ms;
    let pct = (ratio - 1.0) * 100.0;
    let over_threshold = pct > options.threshold_pct && (new_ms - old_ms) > options.min_wall_ms;
    if over_threshold {
        findings.push(Finding {
            severity: Severity::Regression,
            scenario: name.into(),
            kind: "wall-regression",
            message: format!(
                "wall time {old_ms:.3} ms -> {new_ms:.3} ms ({pct:+.1}% > +{}%)",
                options.threshold_pct
            ),
        });
    } else if pct < -options.threshold_pct && (old_ms - new_ms) > options.min_wall_ms {
        findings.push(Finding {
            severity: Severity::Info,
            scenario: name.into(),
            kind: "wall-improved",
            message: format!("wall time {old_ms:.3} ms -> {new_ms:.3} ms ({pct:+.1}%)"),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polycanary_core::record::export_envelope;

    fn run_with(scenario: &str, ctx: Record, records: Vec<Record>) -> Run {
        let mut run = Run::new();
        run.ingest_json("test", &export_envelope(scenario, ctx, records).to_json()).unwrap();
        run
    }

    fn timings_run(pairs: &[(&str, f64)]) -> Run {
        let mut run = Run::new();
        let body: Vec<String> = pairs
            .iter()
            .map(|(s, ms)| format!("{{\"scenario\":\"{s}\",\"wall_ms\":{ms},\"records\":1}}"))
            .collect();
        run.ingest_json("timings", &format!("[{}]", body.join(","))).unwrap();
        run
    }

    fn ctx() -> Record {
        Record::new().field("seed", 7u64).field("quick", true).field("workers", 4u64)
    }

    #[test]
    fn identical_runs_diff_clean() {
        let a = run_with("t", ctx(), vec![Record::new().field("scheme", "SSP")]);
        let report = diff_runs(&a, &a.clone(), None, &DiffOptions::default());
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!(!report.has_regressions());
        assert!(report.render_text().starts_with("clean"));
    }

    #[test]
    fn worker_count_and_wall_time_differences_are_invisible() {
        let old = run_with(
            "t",
            ctx(),
            vec![Record::new().field("scheme", "SSP").field("wall_ms", 10.0f64)],
        );
        let new = run_with(
            "t",
            Record::new().field("seed", 7u64).field("quick", true).field("workers", 16u64),
            vec![Record::new().field("scheme", "SSP").field("wall_ms", 99.0f64)],
        );
        let report = diff_runs(&old, &new, None, &DiffOptions::default());
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn verdict_flip_is_a_regression_under_the_same_ctx() {
        let rec = |verdict: &str| {
            Record::new()
                .field("scheme", "SSP")
                .field("campaign", Record::new().field("verdict", verdict))
        };
        let old = run_with("t", ctx(), vec![rec("resists")]);
        let new = run_with("t", ctx(), vec![rec("breaks")]);
        let report = diff_runs(&old, &new, None, &DiffOptions::default());
        assert!(report.has_regressions());
        let flip = &report.findings[0];
        assert_eq!(flip.kind, "verdict-flip");
        assert!(flip.message.contains("scheme=SSP.campaign.verdict"), "{}", flip.message);
        assert!(flip.message.contains("\"resists\" -> \"breaks\""), "{}", flip.message);
    }

    #[test]
    fn ctx_divergence_names_the_key_and_downgrades_record_changes() {
        let rec = |verdict: &str| Record::new().field("verdict", verdict);
        let old = run_with("t", ctx(), vec![rec("resists")]);
        let new_ctx = Record::new().field("seed", 11u64).field("quick", true);
        let new = run_with("t", new_ctx, vec![rec("breaks")]);
        let report = diff_runs(&old, &new, None, &DiffOptions::default());
        assert!(!report.has_regressions(), "{:?}", report.findings);
        let ctx_finding = report.findings.iter().find(|f| f.kind == "ctx-diverged").unwrap();
        assert!(ctx_finding.message.contains("ctx.seed: 7 -> 11"), "{}", ctx_finding.message);
        assert!(report
            .findings
            .iter()
            .any(|f| f.kind == "verdict-flip" && f.severity == Severity::Info));
    }

    #[test]
    fn drift_kinds_follow_the_field_names() {
        let rec = |rate: f64, reqs: u64, label: &str| {
            Record::new()
                .field("scheme", "SSP")
                .field("success_rate", rate)
                .field("total_requests", reqs)
                .field("note", label)
        };
        let old = run_with("t", ctx(), vec![rec(0.5, 100, "a")]);
        let new = run_with("t", ctx(), vec![rec(0.75, 130, "b")]);
        let report = diff_runs(&old, &new, None, &DiffOptions::default());
        let kinds: Vec<&str> = report.findings.iter().map(|f| f.kind).collect();
        assert_eq!(kinds, ["request-drift", "success-rate-drift", "value-changed"]);
        assert!(!report.has_regressions());
    }

    #[test]
    fn losing_a_field_or_list_entries_gates_gaining_informs() {
        let full = Record::new().field("scheme", "SSP").field("verdict", "resists").field(
            "runs",
            vec![Record::new().field("seed", 1u64), Record::new().field("seed", 2u64)],
        );
        // NEW drops the verdict field and truncates the per-seed runs: both
        // gate under the unchanged ctx, even though no value compared unequal.
        let stripped = Record::new()
            .field("scheme", "SSP")
            .field("runs", vec![Record::new().field("seed", 1u64)])
            .field("note", "fresh column");
        let old = run_with("t", ctx(), vec![full.clone()]);
        let new = run_with("t", ctx(), vec![stripped]);
        let report = diff_runs(&old, &new, None, &DiffOptions::default());
        assert!(report.has_regressions());
        let removed = report.findings.iter().find(|f| f.kind == "field-removed").unwrap();
        assert_eq!(removed.severity, Severity::Regression);
        assert!(
            removed.message.contains("verdict: \"resists\" -> (absent)"),
            "{}",
            removed.message
        );
        let shrunk = report.findings.iter().find(|f| f.kind == "list-length").unwrap();
        assert_eq!(shrunk.severity, Severity::Regression);
        // The added column is ordinary evolution.
        let added = report.findings.iter().find(|f| f.kind == "field-added").unwrap();
        assert_eq!(added.severity, Severity::Info);

        // The same losses under a diverged ctx are expected, not gating.
        let reseeded = Record::new().field("seed", 99u64).field("quick", true);
        let mut renamed = Run::new();
        renamed
            .ingest_json(
                "t2",
                &export_envelope(
                    "t",
                    reseeded,
                    vec![Record::new()
                        .field("scheme", "SSP")
                        .field("runs", vec![Record::new().field("seed", 1u64)])],
                )
                .to_json(),
            )
            .unwrap();
        assert!(!diff_runs(&old, &renamed, None, &DiffOptions::default()).has_regressions());
    }

    #[test]
    fn removed_scenario_is_a_regression_added_is_info() {
        let old = run_with("gone", ctx(), vec![Record::new().field("x", 1u64)]);
        let new = run_with("fresh", ctx(), vec![Record::new().field("x", 1u64)]);
        let report = diff_runs(&old, &new, None, &DiffOptions::default());
        assert!(report.has_regressions());
        assert_eq!(
            report
                .findings
                .iter()
                .map(|f| (f.scenario.as_str(), f.kind, f.severity))
                .collect::<Vec<_>>(),
            vec![
                ("fresh", "scenario-added", Severity::Info),
                ("gone", "scenario-removed", Severity::Regression),
            ]
        );
    }

    #[test]
    fn wall_time_regressions_gate_on_threshold_and_floor() {
        let baseline = timings_run(&[("slow", 40.0), ("micro", 0.1)]);
        // 40 -> 70 ms is +75% over a 1 ms floor: regression at +25%.
        let regressed = timings_run(&[("slow", 70.0), ("micro", 0.4)]);
        let report = diff_runs(&baseline, &regressed, None, &DiffOptions::default());
        assert!(report.has_regressions());
        let wall = report.findings.iter().find(|f| f.kind == "wall-regression").unwrap();
        assert_eq!(wall.scenario, "slow");
        assert!(wall.message.contains("+75.0%"), "{}", wall.message);
        // The micro scenario quadrupled but moved 0.3 ms: under the floor.
        assert!(!report.findings.iter().any(|f| f.scenario == "micro"), "{:?}", report.findings);

        // A generous threshold accepts the same movement.
        let lax = DiffOptions { threshold_pct: 100.0, ..DiffOptions::default() };
        assert!(!diff_runs(&baseline, &regressed, None, &lax).has_regressions());

        // An explicit --baseline overrides OLD's own timings.
        let explicit = diff_runs(
            &timings_run(&[("slow", 70.0)]),
            &regressed,
            Some(&baseline),
            &DiffOptions::default(),
        );
        assert!(explicit.has_regressions());

        // Improvements are informational.
        let faster = timings_run(&[("slow", 10.0), ("micro", 0.1)]);
        let report = diff_runs(&baseline, &faster, None, &DiffOptions::default());
        assert!(!report.has_regressions());
        assert!(report.findings.iter().any(|f| f.kind == "wall-improved"));
    }

    #[test]
    fn report_record_and_text_carry_the_verdict() {
        let old = run_with("t", ctx(), vec![Record::new().field("verdict", "resists")]);
        let new = run_with("t", ctx(), vec![Record::new().field("verdict", "breaks")]);
        let report = diff_runs(&old, &new, None, &DiffOptions::default());
        let record = report.to_record();
        assert_eq!(record.get("clean").and_then(Value::as_bool), Some(false));
        assert_eq!(record.get("regressions").and_then(Value::as_u64), Some(1));
        let text = report.render_text();
        assert!(text.contains("[REGRESSION] t:"), "{text}");
        assert!(
            text.trim_end().ends_with("1 regression(s) (threshold +25%, floor 1 ms)"),
            "{text}"
        );
    }
}
