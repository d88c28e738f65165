//! Stripping run-varying fields so exports compare record-for-record.
//!
//! The engine-wide determinism contract says a scenario's records are a
//! pure function of the experiment context's reproducibility knobs —
//! except for the fields that *measure* the run rather than
//! describe its results: wall-clock times (`wall_ms`), the worker budget
//! (`workers`, which changes wall time but never records) and the output
//! medium (`format`).  [`scrub`] removes exactly those, recursively, so
//! two exports of the same configuration are byte-comparable and the
//! Markdown report is deterministic.

use polycanary_core::record::{Record, Value};

/// Field names that legitimately vary between otherwise-identical runs
/// and are therefore excluded from comparisons and generated reports.
pub const VOLATILE_FIELDS: &[&str] = &["wall_ms", "workers", "format"];

/// Returns `record` with every [`VOLATILE_FIELDS`] member removed, at
/// every nesting depth.
pub fn scrub(record: &Record) -> Record {
    let mut out = Record::new();
    for (name, value) in record.fields() {
        if VOLATILE_FIELDS.contains(&name.as_ref()) {
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

/// Scrubs a whole record list.
pub fn scrub_all(records: &[Record]) -> Vec<Record> {
    records.iter().map(scrub).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_removes_volatile_fields_at_every_depth() {
        let nested = Record::new().field("verdict", "breaks").field("wall_ms", 12.5f64);
        let rec = Record::new()
            .field("scheme", "SSP")
            .field("workers", 8u64)
            .field("format", "json")
            .field("campaign", nested)
            .field("runs", vec![Record::new().field("seed", 1u64).field("wall_ms", 0.25f64)]);
        let scrubbed = scrub(&rec);
        assert_eq!(
            scrubbed.to_json(),
            r#"{"scheme":"SSP","campaign":{"verdict":"breaks"},"runs":[{"seed":1}]}"#
        );
        // Already-clean records pass through unchanged.
        assert_eq!(scrub(&scrubbed), scrubbed);
        assert_eq!(scrub_all(&[rec.clone(), rec]).len(), 2);
    }
}
