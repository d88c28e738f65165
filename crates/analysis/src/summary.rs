//! The [`RunSummary`] model: one run rendered for machines and humans.
//!
//! A summary pairs each loaded scenario with its registry metadata
//! ([`SectionMeta`]: title, description, paper annotation — supplied by
//! the harness so the scenario registry stays the single source of truth)
//! and renders the whole run two ways:
//!
//! * [`RunSummary::to_record`] — Record-based JSON, for tooling;
//! * [`RunSummary::to_markdown`] — the generated experiment report.
//!   EXPERIMENTS.md *is* this rendering of a `--quick all` export: the
//!   records are scrubbed of run-varying fields first
//!   ([`crate::scrub`]), so the same configuration regenerates the same
//!   bytes and CI can `git diff --exit-code` the document against a fresh
//!   run.

use polycanary_core::record::{Record, Value};

use crate::run::Run;
use crate::scrub::{scrub, scrub_all};

/// Registry metadata for one report section, supplied by the harness from
/// `experiments::registry()`.  Owned strings, because generated scenarios
/// (`gen:<lattice>:<cell>`) synthesize their metadata at runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionMeta {
    /// Scenario registry name (`table1`, `fig5`, …).
    pub name: String,
    /// Section heading (the paper artefact the scenario reproduces).
    pub title: String,
    /// One-line description of what the scenario measures.
    pub description: String,
    /// The annotation comparing this scenario's output to the paper.
    pub paper_note: String,
}

/// One scenario section of a [`RunSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSummary {
    /// Scenario name (registry name, also the envelope's `scenario`).
    pub scenario: String,
    /// Section metadata, when the scenario is known to the registry.
    pub meta: Option<SectionMeta>,
    /// The scrubbed experiment context.
    pub ctx: Record,
    /// The scrubbed result records.
    pub records: Vec<Record>,
    /// Wall time from the run's timings, when present.
    pub wall_ms: Option<f64>,
}

/// A whole run, summarized: scenarios in registry order (then unknown
/// scenarios alphabetically), each scrubbed for deterministic rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// The per-scenario sections.
    pub sections: Vec<ScenarioSummary>,
}

impl RunSummary {
    /// Summarizes `run`, ordering sections by `metas` (the registry order)
    /// and appending scenarios the registry does not know alphabetically.
    pub fn new(run: &Run, metas: &[SectionMeta]) -> RunSummary {
        let mut sections = Vec::new();
        let mut seen = Vec::new();
        for meta in metas {
            if let Some(scenario) = run.scenarios.get(&meta.name) {
                seen.push(meta.name.as_str());
                sections.push(ScenarioSummary {
                    scenario: meta.name.clone(),
                    meta: Some(meta.clone()),
                    ctx: scrub(&scenario.ctx),
                    records: scrub_all(&scenario.records),
                    wall_ms: run.timings.get(&meta.name).map(|t| t.wall_ms),
                });
            }
        }
        // BTreeMap iteration is sorted, so leftovers arrive alphabetically.
        for (name, scenario) in &run.scenarios {
            if !seen.contains(&name.as_str()) {
                sections.push(ScenarioSummary {
                    scenario: name.clone(),
                    meta: None,
                    ctx: scrub(&scenario.ctx),
                    records: scrub_all(&scenario.records),
                    wall_ms: run.timings.get(name).map(|t| t.wall_ms),
                });
            }
        }
        RunSummary { sections }
    }

    /// The context shared by every section, when they all agree (the
    /// normal case for an `--out DIR` export of one invocation).
    pub fn shared_ctx(&self) -> Option<&Record> {
        let first = &self.sections.first()?.ctx;
        self.sections.iter().all(|s| &s.ctx == first).then_some(first)
    }

    /// The self-describing record form of this summary (Record-based JSON).
    pub fn to_record(&self) -> Record {
        let sections: Vec<Record> = self
            .sections
            .iter()
            .map(|section| {
                let mut rec = Record::new().field("scenario", section.scenario.as_str());
                if let Some(meta) = &section.meta {
                    rec.push("title", meta.title.as_str());
                }
                rec.push("ctx", section.ctx.clone());
                rec.push("records", section.records.clone());
                if let Some(wall_ms) = section.wall_ms {
                    rec.push("wall_ms", wall_ms);
                }
                rec
            })
            .collect();
        Record::new().field("sections", sections)
    }

    /// Renders the Markdown experiment report — the generator behind
    /// EXPERIMENTS.md.  Deterministic: scrubbed records only, no wall
    /// times, no worker counts.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "<!-- GENERATED by `harness report` from the JSON export envelopes of a\n\
             `--quick --lattice smoke all` run. Do not edit by hand: regenerate with\n\n\
             \x20    cargo run --release -p polycanary-bench --bin harness -- \\\n\
             \x20        --quick --lattice smoke --gen-seed 7 \\\n\
             \x20        --format json --out /tmp/experiments all\n\
             \x20    cargo run --release -p polycanary-bench --bin harness -- \\\n\
             \x20        report /tmp/experiments --out EXPERIMENTS.md\n\n\
             CI regenerates this file and fails on drift (git diff --exit-code). -->\n\n",
        );
        out.push_str("# EXPERIMENTS — generated experiment report\n\n");
        out.push_str(
            "Each section below is one registered scenario (`harness --list`), rendered\n\
             from its export envelope.  Records are a pure function of the context —\n\
             run-varying fields (wall times, worker counts) are scrubbed, so the same\n\
             configuration always regenerates this document byte for byte.\n\n",
        );
        let shared_ctx = self.shared_ctx();
        if let Some(ctx) = shared_ctx {
            out.push_str("Shared experiment context:\n\n");
            render_ctx_table(ctx, &mut out);
        }
        for section in &self.sections {
            let title =
                section.meta.as_ref().map(|m| m.title.as_str()).unwrap_or(&section.scenario);
            out.push_str(&format!("\n## {title}\n\n"));
            if let Some(meta) = &section.meta {
                out.push_str(&format!("`{}` — {}\n\n", meta.name, meta.description));
            } else {
                out.push_str(&format!(
                    "`{}` — (scenario not in this build's registry)\n\n",
                    section.scenario
                ));
            }
            if shared_ctx.is_none() {
                render_ctx_table(&section.ctx, &mut out);
                out.push('\n');
            }
            render_record_table(&section.records, &mut out);
            if let Some(note) =
                section.meta.as_ref().map(|m| m.paper_note.as_str()).filter(|n| !n.is_empty())
            {
                out.push_str(&format!("\n**Paper:** {note}\n"));
            }
        }
        out
    }
}

/// Renders the ctx as a two-column Markdown table.
fn render_ctx_table(ctx: &Record, out: &mut String) {
    out.push_str("| knob | value |\n|---|---|\n");
    for (name, value) in ctx.fields() {
        out.push_str(&format!("| `{}` | {} |\n", markdown_escape(name), render_cell(value)));
    }
}

/// Renders records as one Markdown table: columns are the union of field
/// names in first-appearance order, nested values summarized.
fn render_record_table(records: &[Record], out: &mut String) {
    if records.is_empty() {
        out.push_str("(no records)\n");
        return;
    }
    let mut columns: Vec<&str> = Vec::new();
    for record in records {
        for (name, _) in record.fields() {
            if !columns.contains(&name.as_ref()) {
                columns.push(name);
            }
        }
    }
    out.push_str(&format!(
        "| {} |\n",
        columns.iter().map(|c| markdown_escape(c)).collect::<Vec<_>>().join(" | ")
    ));
    out.push_str(&format!("|{}\n", "---|".repeat(columns.len())));
    for record in records {
        let cells: Vec<String> = columns
            .iter()
            .map(|c| record.get(c).map(render_cell).unwrap_or_else(|| "–".into()))
            .collect();
        out.push_str(&format!("| {} |\n", cells.join(" | ")));
    }
}

/// Renders one value into a table cell: scalars verbatim (floats rounded
/// to four decimals for readability — the rounding is pure, so the report
/// stays deterministic), nested campaign records as a
/// `verdict successes/seeds (requests)` digest, other nesting summarized
/// by size.
fn render_cell(value: &Value) -> String {
    match value {
        Value::Null => "–".into(),
        Value::Bool(_) | Value::UInt(_) | Value::Int(_) => value.to_json(),
        Value::Float(f) => format_float(*f),
        Value::Str(s) => markdown_escape(s),
        Value::Record(rec) => summarize_record(rec),
        Value::List(items) => format!("[{} items]", items.len()),
    }
}

/// Four-decimal float rendering with trailing zeros trimmed (`0.2531`,
/// `32.807`, `11`).
fn format_float(f: f64) -> String {
    if !f.is_finite() {
        return "–".into();
    }
    let fixed = format!("{f:.4}");
    let trimmed = fixed.trim_end_matches('0').trim_end_matches('.');
    if trimmed == "-0" {
        "0".into()
    } else {
        trimmed.to_string()
    }
}

/// Digest of a nested record.  Campaign reports (the dominant nested shape)
/// compress to their verdict; anything else reports its field count.
fn summarize_record(rec: &Record) -> String {
    let verdict = rec.get("verdict").and_then(Value::as_str);
    if let Some(verdict) = verdict {
        let successes = rec.get("successes").and_then(Value::as_u64);
        let seeds = rec.get("completed_seeds").and_then(Value::as_u64);
        let requests = rec.get("total_requests").and_then(Value::as_u64);
        let mut cell = verdict.to_string();
        if let (Some(successes), Some(seeds)) = (successes, seeds) {
            cell.push_str(&format!(" {successes}/{seeds}"));
        }
        if let Some(requests) = requests {
            cell.push_str(&format!(", {requests} reqs"));
        }
        return markdown_escape(&cell);
    }
    format!("{{{} fields}}", rec.fields().len())
}

/// Escapes the characters that would break a Markdown table cell.
fn markdown_escape(s: &str) -> String {
    s.replace('|', "\\|").replace('\n', " ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use polycanary_core::record::export_envelope;

    fn metas() -> Vec<SectionMeta> {
        vec![
            SectionMeta {
                name: "table1".into(),
                title: "Table I: defences".into(),
                description: "defence comparison".into(),
                paper_note: "only P-SSP combines everything".into(),
            },
            SectionMeta {
                name: "fig5".into(),
                title: "Figure 5: overhead".into(),
                description: "SPEC-like overhead".into(),
                paper_note: String::new(),
            },
        ]
    }

    fn sample_run() -> Run {
        let mut run = Run::new();
        let ctx = Record::new().field("seed", 7u64).field("quick", true).field("workers", 4u64);
        let campaign = Record::new()
            .field("verdict", "breaks")
            .field("successes", 3u64)
            .field("completed_seeds", 3u64)
            .field("total_requests", 3173u64)
            .field("wall_ms", 9.5f64);
        let records = vec![Record::new()
            .field("scheme", "SSP")
            .field("byte_by_byte", campaign)
            .field("overhead_percent", 0.25f64)];
        run.ingest_json("t1", &export_envelope("table1", ctx.clone(), records).to_json()).unwrap();
        run.ingest_json(
            "extra",
            &export_envelope("zeta", ctx, vec![Record::new().field("x", 1u64)]).to_json(),
        )
        .unwrap();
        run
    }

    #[test]
    fn sections_follow_registry_order_then_alphabetical_leftovers() {
        let summary = RunSummary::new(&sample_run(), &metas());
        let names: Vec<&str> = summary.sections.iter().map(|s| s.scenario.as_str()).collect();
        assert_eq!(names, ["table1", "zeta"]);
        assert!(summary.sections[0].meta.is_some());
        assert!(summary.sections[1].meta.is_none());
        assert!(summary.shared_ctx().is_some(), "both sections share one scrubbed ctx");
    }

    #[test]
    fn markdown_is_deterministic_and_scrubbed() {
        let summary = RunSummary::new(&sample_run(), &metas());
        let once = summary.to_markdown();
        let twice = RunSummary::new(&sample_run(), &metas()).to_markdown();
        assert_eq!(once, twice, "rendering must be a pure function of the run");
        assert!(once.contains("## Table I: defences"), "{once}");
        assert!(once.contains("breaks 3/3, 3173 reqs"), "{once}");
        assert!(once.contains("**Paper:** only P-SSP combines everything"), "{once}");
        assert!(once.contains("| `seed` | 7 |"), "{once}");
        assert!(!once.contains("wall_ms"), "wall times must be scrubbed:\n{once}");
        assert!(!once.contains("| `workers` |"), "worker counts must be scrubbed:\n{once}");
        assert!(once.starts_with("<!-- GENERATED by `harness report`"), "{once}");
    }

    #[test]
    fn record_form_nests_sections() {
        let summary = RunSummary::new(&sample_run(), &metas());
        let record = summary.to_record();
        let Some(Value::List(sections)) = record.get("sections") else { panic!("sections list") };
        assert_eq!(sections.len(), 2);
        let Value::Record(first) = &sections[0] else { panic!("section record") };
        assert_eq!(first.get("scenario").and_then(Value::as_str), Some("table1"));
        assert_eq!(first.get("title").and_then(Value::as_str), Some("Table I: defences"));
    }

    #[test]
    fn missing_cells_and_empty_sections_render_placeholders() {
        let mut run = Run::new();
        let ctx = Record::new().field("seed", 1u64);
        let records = vec![Record::new().field("a", 1u64), Record::new().field("b", "two|pipes")];
        run.ingest_json("t", &export_envelope("table1", ctx.clone(), records).to_json()).unwrap();
        run.ingest_json("e", &export_envelope("fig5", ctx, vec![]).to_json()).unwrap();
        let md = RunSummary::new(&run, &metas()).to_markdown();
        assert!(md.contains("| 1 | – |"), "{md}");
        assert!(md.contains("two\\|pipes"), "{md}");
        assert!(md.contains("(no records)"), "{md}");
    }
}
