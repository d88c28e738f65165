//! Loading one run's exported artifacts into a comparable [`Run`].
//!
//! A "run" is whatever a harness invocation left on disk: a `--out DIR`
//! directory of per-scenario envelope files, a single envelope file, the
//! stdout envelope *array* of a multi-scenario `--format json` invocation,
//! or a `--timings FILE` wall-time array (`BENCH_scenarios.json`).  The
//! loader detects each shape from its content, so `harness diff` accepts
//! any of them on either side.

use std::collections::BTreeMap;
use std::path::Path;

use polycanary_core::record::{Envelope, EnvelopeError, ParseError, Record, Value};

/// One scenario's export: the validated envelope, keyed by scenario name
/// inside a [`Run`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRun {
    /// Schema version the export was written under.
    pub schema_version: u64,
    /// The experiment context the run was configured with.
    pub ctx: Record,
    /// The scenario's result records.
    pub records: Vec<Record>,
}

/// One scenario's wall time from a `--timings` export.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// Wall-clock milliseconds the scenario took.
    pub wall_ms: f64,
    /// How many records the scenario produced.
    pub records: u64,
}

/// Everything one run exported: scenario envelopes and/or wall-time
/// records, each keyed by scenario name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Run {
    /// Scenario envelopes by scenario name.
    pub scenarios: BTreeMap<String, ScenarioRun>,
    /// Wall times by scenario name (from a `--timings` file, if any).
    pub timings: BTreeMap<String, Timing>,
}

impl Run {
    /// An empty run, to be filled through [`Run::ingest_json`].
    pub fn new() -> Run {
        Run::default()
    }

    /// Loads a run from `path`: a directory (every `*.json` file inside,
    /// in name order) or a single JSON file.
    ///
    /// # Errors
    ///
    /// [`LoadError`] naming the offending file when it cannot be read, is
    /// not a recognized export shape, or fails envelope validation (e.g. a
    /// future `schema_version`).
    pub fn load(path: &Path) -> Result<Run, LoadError> {
        let mut run = Run::new();
        let io_err = |path: &Path, err: std::io::Error| LoadError {
            source: path.display().to_string(),
            kind: LoadErrorKind::Io(err.to_string()),
        };
        if path.is_dir() {
            let mut files: Vec<_> = std::fs::read_dir(path)
                .map_err(|err| io_err(path, err))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
                .collect();
            files.sort();
            if files.is_empty() {
                return Err(LoadError {
                    source: path.display().to_string(),
                    kind: LoadErrorKind::Shape("directory contains no .json exports".into()),
                });
            }
            for file in files {
                let body = std::fs::read_to_string(&file).map_err(|err| io_err(&file, err))?;
                run.ingest_json(&file.display().to_string(), &body)?;
            }
        } else {
            let body = std::fs::read_to_string(path).map_err(|err| io_err(path, err))?;
            run.ingest_json(&path.display().to_string(), &body)?;
        }
        Ok(run)
    }

    /// Ingests one JSON document into this run, detecting its shape: an
    /// envelope object, an array of envelopes (the stdout stream of a
    /// multi-scenario export) or an array of timing records (`--timings`).
    /// `source` names the document in error messages.
    ///
    /// # Errors
    ///
    /// [`LoadError`] when the document is malformed JSON, an unrecognized
    /// shape, a duplicate scenario, or an incompatible envelope.
    pub fn ingest_json(&mut self, source: &str, json: &str) -> Result<(), LoadError> {
        let fail = |kind: LoadErrorKind| LoadError { source: source.to_string(), kind };
        let value = Value::from_json(json).map_err(|err| fail(LoadErrorKind::Json(err)))?;
        match value {
            Value::Record(record) => self.ingest_envelope(source, record),
            Value::List(items) => {
                // An array is either all envelopes or all timings; decide by
                // the first element so a mixed file is an explicit error.
                let Some(Value::Record(first)) = items.first() else {
                    return Err(fail(LoadErrorKind::Shape(
                        "array export must contain objects (envelopes or timings)".into(),
                    )));
                };
                let is_timings = first.get("wall_ms").is_some();
                for item in items {
                    let Value::Record(record) = item else {
                        return Err(fail(LoadErrorKind::Shape(
                            "array export must contain objects (envelopes or timings)".into(),
                        )));
                    };
                    if is_timings {
                        self.ingest_timing(source, &record)?;
                    } else {
                        self.ingest_envelope(source, record)?;
                    }
                }
                Ok(())
            }
            _ => Err(fail(LoadErrorKind::Shape(
                "expected an export envelope object or a JSON array".into(),
            ))),
        }
    }

    fn ingest_envelope(&mut self, source: &str, record: Record) -> Result<(), LoadError> {
        let fail = |kind: LoadErrorKind| LoadError { source: source.to_string(), kind };
        let envelope =
            Envelope::try_from(record).map_err(|err| fail(LoadErrorKind::Envelope(err)))?;
        let scenario = envelope.scenario;
        let run = ScenarioRun {
            schema_version: envelope.schema_version,
            ctx: envelope.ctx,
            records: envelope.records,
        };
        if self.scenarios.insert(scenario.clone(), run).is_some() {
            return Err(fail(LoadErrorKind::Shape(format!(
                "duplicate export for scenario `{scenario}`"
            ))));
        }
        Ok(())
    }

    fn ingest_timing(&mut self, source: &str, record: &Record) -> Result<(), LoadError> {
        let fail = |what: &str| LoadError {
            source: source.to_string(),
            kind: LoadErrorKind::Shape(format!("timing record field `{what}` missing or mistyped")),
        };
        let scenario = record
            .get("scenario")
            .and_then(Value::as_str)
            .ok_or_else(|| fail("scenario"))?
            .to_string();
        let wall_ms =
            record.get("wall_ms").and_then(Value::as_f64).ok_or_else(|| fail("wall_ms"))?;
        let records = record.get("records").and_then(Value::as_u64).unwrap_or(0);
        if self.timings.insert(scenario.clone(), Timing { wall_ms, records }).is_some() {
            return Err(LoadError {
                source: source.to_string(),
                kind: LoadErrorKind::Shape(format!("duplicate timing for scenario `{scenario}`")),
            });
        }
        Ok(())
    }
}

/// Why a run artifact could not be loaded, with the offending file named.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadError {
    /// The file (or caller-supplied source label) that failed.
    pub source: String,
    /// What went wrong with it.
    pub kind: LoadErrorKind,
}

/// The failure behind a [`LoadError`].
#[derive(Debug, Clone, PartialEq)]
pub enum LoadErrorKind {
    /// The file could not be read.
    Io(String),
    /// The document is not well-formed JSON.
    Json(ParseError),
    /// The document parsed but failed envelope validation (missing fields,
    /// or a `schema_version` newer than this build understands).
    Envelope(EnvelopeError),
    /// The document is well-formed JSON but not a recognized export shape.
    Shape(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            LoadErrorKind::Io(err) => write!(f, "{}: {err}", self.source),
            LoadErrorKind::Json(err) => write!(f, "{}: {err}", self.source),
            LoadErrorKind::Envelope(err) => write!(f, "{}: {err}", self.source),
            LoadErrorKind::Shape(what) => write!(f, "{}: {what}", self.source),
        }
    }
}

impl std::error::Error for LoadError {}

#[cfg(test)]
mod tests {
    use super::*;
    use polycanary_core::record::{export_envelope, SCHEMA_VERSION};

    fn envelope_json(scenario: &str) -> String {
        let ctx = Record::new().field("seed", 7u64).field("quick", true);
        export_envelope(scenario, ctx, vec![Record::new().field("scheme", "SSP")]).to_json()
    }

    #[test]
    fn ingests_single_envelopes_and_envelope_arrays() {
        let mut run = Run::new();
        run.ingest_json("a", &envelope_json("table1")).unwrap();
        run.ingest_json("b", &format!("[{},{}]", envelope_json("fig5"), envelope_json("table5")))
            .unwrap();
        assert_eq!(
            run.scenarios.keys().collect::<Vec<_>>(),
            ["fig5", "table1", "table5"].iter().collect::<Vec<_>>()
        );
        assert_eq!(run.scenarios["table1"].records.len(), 1);
        assert!(run.timings.is_empty());
    }

    #[test]
    fn ingests_timing_arrays_like_bench_scenarios_json() {
        let mut run = Run::new();
        let timings = r#"[{"schema_version":1,"scenario":"table1","wall_ms":42.5,"records":5,"seed":1,"quick":true},
                          {"schema_version":1,"scenario":"fig5","wall_ms":3.25,"records":4,"seed":1,"quick":true}]"#;
        run.ingest_json("BENCH_scenarios.json", timings).unwrap();
        assert_eq!(run.timings["table1"], Timing { wall_ms: 42.5, records: 5 });
        assert_eq!(run.timings["fig5"].wall_ms, 3.25);
        assert!(run.scenarios.is_empty());
    }

    #[test]
    fn rejects_duplicates_future_schemas_and_unknown_shapes() {
        let mut run = Run::new();
        run.ingest_json("a", &envelope_json("table1")).unwrap();
        let err = run.ingest_json("a2", &envelope_json("table1")).unwrap_err();
        assert!(err.to_string().contains("duplicate export for scenario `table1`"), "{err}");

        let future = envelope_json("table2")
            .replace("\"schema_version\":1", &format!("\"schema_version\":{}", SCHEMA_VERSION + 1));
        let err = run.ingest_json("future.json", &future).unwrap_err();
        assert!(matches!(err.kind, LoadErrorKind::Envelope(EnvelopeError::FutureSchema { .. })));
        assert!(err.to_string().contains("future.json"), "{err}");

        for bad in ["3", "[1,2]", "{\"no\":\"envelope\"}", "not json"] {
            assert!(run.clone().ingest_json("bad", bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn load_reads_directories_and_single_files() {
        let dir = std::env::temp_dir().join(format!("polycanary-run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("table1.json"), envelope_json("table1")).unwrap();
        std::fs::write(dir.join("timings.json"), "[{\"scenario\":\"table1\",\"wall_ms\":1.5}]")
            .unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored: not a .json export").unwrap();

        let run = Run::load(&dir).unwrap();
        assert!(run.scenarios.contains_key("table1"));
        assert_eq!(run.timings["table1"].wall_ms, 1.5);

        let single = Run::load(&dir.join("table1.json")).unwrap();
        assert_eq!(single.scenarios.len(), 1);
        assert!(Run::load(&dir.join("missing.json")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
