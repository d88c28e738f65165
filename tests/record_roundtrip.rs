//! Export/parse round trips for `polycanary_core::record`: every JSON
//! export the harness produces must be readable back by the workspace's
//! own parser, with per-seed runs and summary fields intact.  (Before the
//! parser existed, exports could only be *written* — nothing in the
//! workspace could verify one.)  A PRNG fuzz closes the loop from the
//! other side: random values are writer → parser → writer fixed points,
//! and mutated or arbitrary text never panics the parser.

use polycanary::attacks::{AttackKind, Campaign, StopRule};
use polycanary::core::record::{records_from_json, records_to_json, Record, Value};
use polycanary::core::SchemeKind;
use polycanary::crypto::{Prng, SplitMix64};

#[test]
fn campaign_report_survives_a_json_round_trip() {
    let report = Campaign::new(AttackKind::ByteByByte { budget: 3_000 }, SchemeKind::Ssp)
        .with_seed_range(0x40BD, 5)
        .with_stop_rule(StopRule::sprt())
        .run();
    let rec = report.record();
    let parsed = Record::from_json(&rec.to_json()).expect("campaign export parses");

    // Summary fields survive with their values.
    assert_eq!(parsed.get("attack").and_then(Value::as_str), Some("byte-by-byte"));
    assert_eq!(parsed.get("scheme").and_then(Value::as_str), Some("SSP"));
    assert_eq!(parsed.get("stop_rule").and_then(Value::as_str), Some("sprt"));
    assert_eq!(parsed.get("verdict").and_then(Value::as_str), Some(report.verdict().label()));
    assert_eq!(parsed.get("configured_seeds").and_then(Value::as_u64), Some(5));
    assert_eq!(parsed.get("completed_seeds").and_then(Value::as_u64), Some(report.campaigns()));
    assert_eq!(parsed.get("stopped_early").and_then(Value::as_bool), Some(true));
    assert_eq!(parsed.get("successes").and_then(Value::as_u64), Some(report.successes()));
    assert_eq!(parsed.get("total_requests").and_then(Value::as_u64), Some(report.total_requests()));
    // Float fields compare numerically (whole-valued floats re-parse as
    // integers — the documented JSON re-typing).
    assert_eq!(parsed.get("success_rate").and_then(Value::as_f64), Some(report.success_rate()));

    // Every per-seed run survives field by field.
    let Some(Value::List(runs)) = parsed.get("runs") else {
        panic!("parsed record must nest the per-seed runs: {parsed:?}")
    };
    assert_eq!(runs.len() as u64, report.campaigns());
    for (parsed_run, run) in runs.iter().zip(&report.runs) {
        let Value::Record(parsed_run) = parsed_run else { panic!("runs are records") };
        assert_eq!(parsed_run.get("seed").and_then(Value::as_u64), Some(run.seed));
        assert_eq!(parsed_run.get("success").and_then(Value::as_bool), Some(run.result.success));
        assert_eq!(parsed_run.get("requests").and_then(Value::as_u64), Some(run.result.trials));
    }
}

#[test]
fn effectiveness_row_array_survives_a_json_round_trip() {
    use polycanary_bench::experiments::{scheme_fleets, Effectiveness, Experiment, ExperimentCtx};

    let ctx = ExperimentCtx::new(3).with_byte_budget(3_000).with_campaign_seeds(4);
    let records = Effectiveness.run(&ctx).records;
    let parsed = records_from_json(&records_to_json(&records)).expect("array export parses");
    let fleets = scheme_fleets();
    assert_eq!(parsed.len(), fleets.len());
    for (parsed_row, fleet) in parsed.iter().zip(&fleets) {
        assert_eq!(parsed_row.get("scheme").and_then(Value::as_str), Some(fleet.label()));
        let Some(Value::Record(byte)) = parsed_row.get("byte_by_byte") else {
            panic!("nested campaign record")
        };
        let Some(Value::List(runs)) = byte.get("runs") else { panic!("per-seed runs") };
        assert_eq!(runs.len(), 4);
        let successes = runs
            .iter()
            .filter(|run| matches!(run, Value::Record(r) if r.get("success") == Some(&Value::Bool(true))))
            .count() as u64;
        assert_eq!(byte.get("successes").and_then(Value::as_u64), Some(successes));
    }
}

#[test]
fn parsed_export_equals_reserialized_export() {
    // Writer → parser → writer is a fixed point: re-serializing the parsed
    // form reproduces the original JSON byte for byte (field order is
    // preserved, and the victim campaign contains no non-finite floats).
    let report = Campaign::new(AttackKind::Exhaustive { budget: 50 }, SchemeKind::Pssp)
        .with_seed_range(7, 3)
        .run();
    let json = report.record().to_json();
    let reparsed = Record::from_json(&json).expect("parses");
    assert_eq!(reparsed.to_json(), json);
}

/// A random scalar, list or record up to `depth` levels deep: floats from
/// raw bit patterns (so NaN, infinities, `-0.0` and subnormals appear),
/// full-range integers, and strings mixing quotes, escapes, control and
/// astral-plane characters.
fn random_value(rng: &mut SplitMix64, depth: u32) -> Value {
    let arms = if depth == 0 { 7 } else { 9 };
    match rng.next_below(arms) {
        0 => Value::Null,
        1 => Value::Bool(rng.next_u64() & 1 == 1),
        2 => Value::UInt(rng.next_u64() >> rng.next_below(64)),
        3 => Value::Int((rng.next_u64() as i64) >> rng.next_below(64)),
        4 => Value::Float(f64::from_bits(rng.next_u64())),
        5 => Value::Float([0.0, -0.0, 1.0, -3.0, 0.5, 1e300, -1e-300][rng.next_below(7) as usize]),
        6 => Value::Str(random_text(rng, 8)),
        7 => Value::List((0..rng.next_below(4)).map(|_| random_value(rng, depth - 1)).collect()),
        _ => Value::Record((0..rng.next_below(4)).fold(Record::new(), |rec, _| {
            rec.field(random_text(rng, 4), random_value(rng, depth - 1))
        })),
    }
}

/// Up to `max_len` characters, biased towards JSON's own syntax.
fn random_text(rng: &mut SplitMix64, max_len: u64) -> String {
    (0..rng.next_below(max_len + 1)).map(|_| random_char(rng)).collect()
}

fn random_char(rng: &mut SplitMix64) -> char {
    const SYNTAX: &[u8] = b"{}[]\":,-+.eE0123456789\\/utfnrlabx \t\n\r";
    match rng.next_below(4) {
        0 | 1 => SYNTAX[rng.next_below(SYNTAX.len() as u64) as usize] as char,
        2 => char::from_u32(rng.next_below(0x80) as u32).unwrap_or('?'),
        _ => char::from_u32(rng.next_below(0x11_0000) as u32).unwrap_or('\u{1F600}'),
    }
}

/// Applies one to four random edits — insert, delete, duplicate or
/// replace a span of characters — to `input`.
fn mutate(rng: &mut SplitMix64, input: &str) -> String {
    let mut chars: Vec<char> = input.chars().collect();
    for _ in 0..1 + rng.next_below(4) {
        let at = rng.next_below(chars.len() as u64 + 1) as usize;
        let end = (at + 1 + rng.next_below(6) as usize).min(chars.len());
        match rng.next_below(4) {
            0 => chars.insert(at, random_char(rng)),
            1 => drop(chars.drain(at..end)),
            2 => {
                let span: Vec<char> = chars[at..end].to_vec();
                chars.splice(at..at, span);
            }
            _ => {
                if at < chars.len() {
                    chars[at] = random_char(rng);
                }
            }
        }
    }
    chars.into_iter().collect()
}

/// Parses `input` with both entry points; whatever parses must reach the
/// writer's fixed point after one normalization.
fn assert_parses_to_a_fixed_point(input: &str) {
    if let Ok(value) = Value::from_json(input) {
        let once = value.to_json();
        let reparsed = Value::from_json(&once)
            .unwrap_or_else(|e| panic!("writer output {once:?} (from {input:?}) fails: {e}"));
        assert_eq!(reparsed.to_json(), once, "not a fixed point: {input:?}");
    }
    if let Ok(record) = Record::from_json(input) {
        let once = record.to_json();
        let reparsed = Record::from_json(&once).expect("a written record parses");
        assert_eq!(reparsed.to_json(), once, "not a fixed point: {input:?}");
    }
}

#[test]
fn negative_zero_survives_writer_parser_writer() {
    let json = Value::Float(-0.0).to_json();
    assert_eq!(json, "-0");
    let parsed = Value::from_json(&json).expect("parses");
    assert!(matches!(parsed, Value::Float(z) if z == 0.0 && z.is_sign_negative()), "{parsed:?}");
    assert_eq!(parsed.to_json(), "-0");
    assert_eq!(Value::from_json("0"), Ok(Value::UInt(0)));
    assert_eq!(Value::from_json("-7"), Ok(Value::Int(-7)));
}

#[test]
fn random_values_are_writer_parser_writer_fixed_points() {
    let mut rng = SplitMix64::new(0x7E57_F1C5);
    for case in 0..5_000 {
        let json = random_value(&mut rng, 3).to_json();
        let parsed = Value::from_json(&json)
            .unwrap_or_else(|e| panic!("case {case}: writer output {json:?} fails: {e}"));
        assert_eq!(parsed.to_json(), json, "case {case}");
    }
}

#[test]
fn mutated_and_arbitrary_inputs_never_panic_the_parser() {
    let mut rng = SplitMix64::new(0xF022_5EED);
    let export = Campaign::new(AttackKind::Exhaustive { budget: 20 }, SchemeKind::Ssp)
        .with_seed_range(3, 2)
        .run()
        .record()
        .to_json();
    for _ in 0..20_000 {
        let seed = match rng.next_below(3) {
            0 => export.clone(),
            1 => random_value(&mut rng, 3).to_json(),
            _ => random_text(&mut rng, 24),
        };
        assert_parses_to_a_fixed_point(&mutate(&mut rng, &seed));
    }
}
