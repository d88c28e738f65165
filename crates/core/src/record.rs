//! Self-describing experiment records with JSON and CSV rendering — and a
//! JSON *parser*, so exported reports can be read back and verified.
//!
//! Every table row and campaign report in the evaluation can describe
//! itself as a [`Record`]: an ordered list of named [`Value`]s.  Records
//! make the whole bench trajectory machine-readable — the harness emits
//! them as JSON (nested values preserved) or CSV (one row per record,
//! nested values JSON-encoded into their cell) without pulling any
//! serialization dependency into the workspace.  [`Record::from_json`] and
//! [`records_from_json`] invert the JSON writer: cross-run tooling (and the
//! round-trip tests) re-parse an export instead of trusting it blindly.
//!
//! Round-trip caveats, both inherent to JSON: numbers are re-typed from
//! their textual form (a whole-valued [`Value::Float`] like `1.0` prints as
//! `1` and re-parses as [`Value::UInt`]; only `-0` stays a float), and
//! non-finite floats serialize as `null`, which re-parses as
//! [`Value::Null`].  Comparisons across a round trip should therefore be
//! numeric ([`Value::as_f64`]) rather than variant-exact for float fields.
//! The text itself is stable: writer → parser → writer is a fixed point.
//!
//! # Ownership and allocation
//!
//! A record allocates only for what it carries.  Field names are
//! [`Cow<'static, str>`](Cow): a record built in code borrows its static
//! names, and a parsed record owns the names it read.  Per stage:
//!
//! - **build** allocates the field vector, each [`Value::Str`] and each
//!   nested list or record; a static field name costs nothing;
//! - **serialize** ([`Record::to_json`], [`records_to_json`]) allocates only
//!   its output string: numbers are formatted straight into it, and each
//!   run of unescaped string bytes is copied as one slice;
//! - **parse** ([`Record::from_json`], [`records_from_json`]) allocates
//!   once per returned string (a name or a [`Value::Str`]) and per
//!   container.  A string with no escape is copied from the input at its
//!   exact length; only a string with a `\` escape is decoded char by
//!   char.  Numbers are parsed from a slice of the input.
//!
//! # Example
//!
//! ```
//! use polycanary_core::record::{Record, Value};
//!
//! let rec = Record::new()
//!     .field("scheme", "P-SSP")
//!     .field("successes", 0u64)
//!     .field("rate", 0.0f64);
//! assert_eq!(rec.to_json(), r#"{"scheme":"P-SSP","successes":0,"rate":0}"#);
//! assert_eq!(rec.get("scheme"), Some(&Value::Str("P-SSP".into())));
//! ```

use std::borrow::Cow;
use std::fmt::Write as _;

/// Version of the export-envelope layout produced by
/// [`export_envelope`].  Cross-run trend tooling keys on this: bump it
/// whenever the envelope's field set or semantics change, so a diff
/// between two exports can tell a data change from a format change.
pub const SCHEMA_VERSION: u64 = 1;

/// Wraps one scenario's records in the self-describing export envelope:
///
/// | field | meaning |
/// |---|---|
/// | `schema_version` | [`SCHEMA_VERSION`] of the envelope layout |
/// | `scenario` | registry name of the scenario that produced the records |
/// | `ctx` | the full experiment context (seed, quick, workers, stop rule …) |
/// | `records` | the scenario's result records |
///
/// Every harness export (file or stream entry) is one envelope, so a later
/// run can re-parse it with [`records_from_json`] / [`Record::from_json`]
/// and diff like against like.
pub fn export_envelope(scenario: &str, ctx: Record, records: Vec<Record>) -> Record {
    Record::new()
        .field("schema_version", SCHEMA_VERSION)
        .field("scenario", scenario)
        .field("ctx", ctx)
        .field("records", records)
}

/// A parsed-and-validated export envelope: the typed view of the JSON
/// object [`export_envelope`] writes.
///
/// Cross-run tooling (the `polycanary-analysis` crate, `harness diff`,
/// `harness report`) goes through this accessor instead of poking at raw
/// [`Record`]s, because construction is where compatibility is enforced:
/// an envelope written by a *newer* schema than this library understands
/// is rejected with a clear [`EnvelopeError::FutureSchema`] — never
/// misread field-by-field, never a panic.
///
/// ```
/// use polycanary_core::record::{export_envelope, Envelope, Record};
///
/// let ctx = Record::new().field("seed", 7u64).field("quick", true);
/// let json = export_envelope("table1", ctx, vec![Record::new().field("scheme", "P-SSP")])
///     .to_json();
/// let envelope = Envelope::from_json(&json).unwrap();
/// assert_eq!(envelope.scenario, "table1");
/// assert_eq!(envelope.records.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Schema version the export was written under (≤ [`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Registry name of the scenario that produced the records.
    pub scenario: String,
    /// The full experiment context the run was configured with.
    pub ctx: Record,
    /// The scenario's result records.
    pub records: Vec<Record>,
}

impl Envelope {
    /// Validates a parsed record as an export envelope.
    ///
    /// # Errors
    ///
    /// [`EnvelopeError::FutureSchema`] when the export was written by a
    /// newer envelope layout than this library supports, and
    /// [`EnvelopeError::Malformed`] when a required field is missing or
    /// has the wrong type.
    pub fn from_record(record: &Record) -> Result<Envelope, EnvelopeError> {
        let malformed = |what: &str| EnvelopeError::Malformed { field: what.to_string() };
        let schema_version = record
            .get("schema_version")
            .and_then(Value::as_u64)
            .ok_or_else(|| malformed("schema_version"))?;
        if schema_version > SCHEMA_VERSION {
            return Err(EnvelopeError::FutureSchema {
                found: schema_version,
                supported: SCHEMA_VERSION,
            });
        }
        let scenario =
            record.get("scenario").and_then(Value::as_str).ok_or_else(|| malformed("scenario"))?;
        let ctx = match record.get("ctx") {
            Some(Value::Record(ctx)) => ctx.clone(),
            _ => return Err(malformed("ctx")),
        };
        let Some(Value::List(items)) = record.get("records") else {
            return Err(malformed("records"));
        };
        let records = items
            .iter()
            .map(|item| match item {
                Value::Record(rec) => Ok(rec.clone()),
                _ => Err(malformed("records")),
            })
            .collect::<Result<Vec<Record>, EnvelopeError>>()?;
        Ok(Envelope { schema_version, scenario: scenario.to_string(), ctx, records })
    }

    /// Parses one JSON export envelope, enforcing schema compatibility.
    ///
    /// # Errors
    ///
    /// [`EnvelopeError::Json`] when `input` is not well-formed JSON, plus
    /// everything [`Envelope::from_record`] rejects.
    pub fn from_json(input: &str) -> Result<Envelope, EnvelopeError> {
        let record = Record::from_json(input).map_err(EnvelopeError::Json)?;
        Envelope::from_record(&record)
    }

    /// The record form of this envelope — the inverse of
    /// [`Envelope::from_record`], laid out exactly like [`export_envelope`].
    pub fn to_record(&self) -> Record {
        export_envelope_versioned(
            self.schema_version,
            &self.scenario,
            self.ctx.clone(),
            &self.records,
        )
    }
}

fn export_envelope_versioned(
    schema_version: u64,
    scenario: &str,
    ctx: Record,
    records: &[Record],
) -> Record {
    Record::new()
        .field("schema_version", schema_version)
        .field("scenario", scenario)
        .field("ctx", ctx)
        .field("records", records.to_vec())
}

/// Why a JSON document could not be accepted as an export envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum EnvelopeError {
    /// The document is not well-formed JSON at all.
    Json(ParseError),
    /// A required envelope field is missing or has the wrong type.
    Malformed {
        /// The offending field (`schema_version`, `scenario`, `ctx`,
        /// `records`).
        field: String,
    },
    /// The export was written by a newer envelope layout than this library
    /// understands — re-run the diff/report with a matching toolchain.
    FutureSchema {
        /// The `schema_version` recorded in the export.
        found: u64,
        /// The newest version this library supports ([`SCHEMA_VERSION`]).
        supported: u64,
    },
}

impl std::fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvelopeError::Json(err) => write!(f, "not a JSON export envelope: {err}"),
            EnvelopeError::Malformed { field } => {
                write!(f, "export envelope field `{field}` is missing or has the wrong type")
            }
            EnvelopeError::FutureSchema { found, supported } => write!(
                f,
                "export envelope uses schema_version {found}, but this build only understands \
                 versions up to {supported}; upgrade the analysis toolchain to read it"
            ),
        }
    }
}

impl std::error::Error for EnvelopeError {}

/// One field value of a [`Record`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null` — produced by the parser (and by serializing a
    /// non-finite float); the writers emit it as `null` / an empty CSV cell.
    Null,
    /// A boolean.
    Bool(bool),
    /// An unsigned integer (seeds, counts, cycle totals).
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A float; non-finite values serialize as JSON `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered list of values (e.g. per-seed runs).
    List(Vec<Value>),
    /// A nested record.
    Record(Record),
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::UInt(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::UInt(v.into())
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::UInt(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<Record> for Value {
    fn from(v: Record) -> Self {
        Value::Record(v)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::List(v)
    }
}
impl From<Vec<Record>> for Value {
    fn from(v: Vec<Record>) -> Self {
        Value::List(v.into_iter().map(Value::Record).collect())
    }
}

impl Value {
    /// Renders this value as a JSON fragment.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Writing to a `String` cannot fail.
            Value::UInt(n) => _ = write!(out, "{n}"),
            Value::Int(n) => _ = write!(out, "{n}"),
            Value::Float(f) if f.is_finite() => _ = write!(out, "{f}"),
            Value::Float(_) => out.push_str("null"),
            Value::Str(s) => write_json_string(s, out),
            Value::List(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            Value::Record(rec) => rec.write_json(out),
        }
    }

    /// Renders this value as one CSV cell: scalars verbatim (strings quoted
    /// when needed), nested lists/records as a JSON-encoded cell.
    fn to_csv_cell(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Bool(_) | Value::UInt(_) | Value::Int(_) | Value::Float(_) => self.to_json(),
            Value::Str(s) => csv_escape(s),
            Value::List(_) | Value::Record(_) => csv_escape(&self.to_json()),
        }
    }

    /// This value as a float, when it is numeric: the variant-insensitive
    /// accessor round-trip comparisons use (see the module docs on number
    /// re-typing).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::UInt(n) => Some(*n as f64),
            Value::Int(n) => Some(*n as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// This value as an unsigned integer, when it is one (or a
    /// whole-valued, in-range signed integer).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            Value::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// This value as a string slice, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as a boolean, when it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Parses one JSON value (object, array, scalar) from `input`.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the first offending byte when
    /// `input` is not exactly one well-formed JSON value.
    pub fn from_json(input: &str) -> Result<Value, ParseError> {
        let mut parser = Parser::new(input);
        let value = parser.parse_value()?;
        parser.expect_end()?;
        Ok(value)
    }
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    // Every escaped byte is ASCII, so each unescaped run between two of
    // them is a `str` slice, copied whole.
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..0x20 => None,
            _ => continue,
        };
        out.push_str(&s[run..i]);
        match escape {
            Some(escape) => out.push_str(escape),
            None => _ = write!(out, "\\u{byte:04x}"),
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Error describing why a JSON document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What the parser expected or found there.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Deepest nesting of objects and arrays the parser accepts.  The writers
/// nest a handful of levels; the limit keeps the recursive-descent parser
/// from overflowing the stack on hostile input, which it rejects with a
/// [`ParseError`] instead.
pub const MAX_NESTING_DEPTH: usize = 128;

/// Recursive-descent parser over the subset of JSON the writers emit (which
/// is all of JSON except exotic number forms like leading `+`).
struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Objects and arrays currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser { input, bytes: input.as_bytes(), pos: 0, depth: 0 }
    }

    /// Parses one object or array with `parse`, one nesting level deeper.
    fn nested(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_NESTING_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_NESTING_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError { offset: self.pos, message: message.into() }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    fn expect_end(&mut self) -> Result<(), ParseError> {
        if self.peek().is_some() {
            return Err(self.error("trailing data after the JSON value"));
        }
        Ok(())
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(|p| p.parse_record().map(Value::Record)),
            Some(b'[') => self.nested(Self::parse_list),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b't') | Some(b'f') => {
                if self.eat_keyword("true") {
                    Ok(Value::Bool(true))
                } else if self.eat_keyword("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(self.error("expected `true` or `false`"))
                }
            }
            Some(b'n') => {
                if self.eat_keyword("null") {
                    Ok(Value::Null)
                } else {
                    Err(self.error("expected `null`"))
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(self.error(format!("unexpected byte `{}`", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_record(&mut self) -> Result<Record, ParseError> {
        self.expect(b'{')?;
        let mut record = Record::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(record);
        }
        loop {
            let name = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            record.push(name, value);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(record);
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn parse_list(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::List(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::List(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    /// Reads the four hex digits of a `\u` escape starting at `start`.
    fn hex_escape(&self, start: usize) -> Result<u32, ParseError> {
        let hex = self
            .bytes
            .get(start..start + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape"))
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        // Up to the closing quote or the first escape, the string is the
        // input verbatim; both bytes are ASCII, so the run is a `str` slice.
        let start = self.pos;
        let run = self.bytes[start..].iter().position(|b| matches!(b, b'"' | b'\\'));
        self.pos = run.map_or(self.bytes.len(), |run| start + run);
        let verbatim = &self.input[start..self.pos];
        if self.bytes.get(self.pos) == Some(&b'"') {
            self.pos += 1;
            return Ok(verbatim.to_owned());
        }
        let mut out = verbatim.to_owned();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.hex_escape(self.pos + 1)?;
                            self.pos += 4;
                            let scalar = match code {
                                // High surrogate: JSON encodes astral-plane
                                // characters (which standard encoders emit,
                                // e.g. Python's ensure_ascii) as a
                                // \uD800-\uDBFF + \uDC00-\uDFFF pair.
                                0xD800..=0xDBFF => {
                                    if self.bytes.get(self.pos + 1) != Some(&b'\\')
                                        || self.bytes.get(self.pos + 2) != Some(&b'u')
                                    {
                                        return Err(self.error("unpaired high surrogate"));
                                    }
                                    let low = self.hex_escape(self.pos + 3)?;
                                    if !(0xDC00..=0xDFFF).contains(&low) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    self.pos += 6;
                                    0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                                }
                                0xDC00..=0xDFFF => return Err(self.error("unpaired low surrogate")),
                                code => code,
                            };
                            out.push(
                                char::from_u32(scalar)
                                    .ok_or_else(|| self.error("invalid \\u escape"))?,
                            );
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(&b) => {
                    // Consume one multi-byte UTF-8 scalar.  The input is a
                    // &str, so the leading byte reliably gives the width and
                    // the sequence is well-formed — decode just that slice
                    // rather than revalidating the whole remaining input.
                    let width = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + width)
                        .and_then(|chunk| std::str::from_utf8(chunk).ok())
                        .ok_or_else(|| self.error("invalid UTF-8"))?;
                    out.push_str(chunk);
                    self.pos += width;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(self.bytes.get(self.pos),
            Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = &self.input[start..self.pos];
        if text.contains(['.', 'e', 'E']) {
            text.parse::<f64>().map(Value::Float).map_err(|_| self.error("invalid number"))
        } else if text.starts_with('-') {
            // `-0` is how the writer prints `Float(-0.0)`; reading it as
            // `Int(0)` would re-print as `0` and break the fixed point.
            text.parse::<i64>()
                .map(|n| if n == 0 { Value::Float(-0.0) } else { Value::Int(n) })
                .or_else(|_| text.parse::<f64>().map(Value::Float))
                .map_err(|_| self.error("invalid number"))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .or_else(|_| text.parse::<f64>().map(Value::Float))
                .map_err(|_| self.error("invalid number"))
        }
    }
}

fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// An ordered list of named values — the self-describing form of one table
/// row, campaign report or benchmark result.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Record {
    fields: Vec<(Cow<'static, str>, Value)>,
}

impl Record {
    /// An empty record.
    pub fn new() -> Self {
        Record::default()
    }

    /// Appends a field (builder style).
    #[must_use]
    pub fn field(mut self, name: impl Into<Cow<'static, str>>, value: impl Into<Value>) -> Self {
        self.fields.push((name.into(), value.into()));
        self
    }

    /// Appends a field in place.
    pub fn push(&mut self, name: impl Into<Cow<'static, str>>, value: impl Into<Value>) {
        self.fields.push((name.into(), value.into()));
    }

    /// The fields in insertion order.  A built record borrows its static
    /// names; a parsed record owns its names.
    pub fn fields(&self) -> &[(Cow<'static, str>, Value)] {
        &self.fields
    }

    /// The first field named `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Renders this record as a JSON object (fields in insertion order).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, (name, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(name, out);
            out.push(':');
            value.write_json(out);
        }
        out.push('}');
    }

    /// Parses one JSON object back into a [`Record`] (field order
    /// preserved) — the inverse of [`Record::to_json`], modulo the number
    /// re-typing described in the module docs.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] when `input` is not exactly one JSON object.
    pub fn from_json(input: &str) -> Result<Record, ParseError> {
        match Value::from_json(input)? {
            Value::Record(rec) => Ok(rec),
            _ => Err(ParseError { offset: 0, message: "expected a JSON object".into() }),
        }
    }
}

/// Renders `records` as one JSON array.
pub fn records_to_json(records: &[Record]) -> String {
    let mut out = String::from("[");
    for (i, rec) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        rec.write_json(&mut out);
    }
    out.push(']');
    out
}

/// Parses a JSON array of objects back into records — the inverse of
/// [`records_to_json`].
///
/// # Errors
///
/// Returns a [`ParseError`] when `input` is not a JSON array or any element
/// is not an object.
pub fn records_from_json(input: &str) -> Result<Vec<Record>, ParseError> {
    match Value::from_json(input)? {
        Value::List(items) => items
            .into_iter()
            .map(|item| match item {
                Value::Record(rec) => Ok(rec),
                _ => {
                    Err(ParseError { offset: 0, message: "array element is not an object".into() })
                }
            })
            .collect(),
        _ => Err(ParseError { offset: 0, message: "expected a JSON array".into() }),
    }
}

/// Renders `records` as CSV with a header row.
///
/// The column set is the union of all field names in first-appearance
/// order; records missing a column leave the cell empty.  Nested lists and
/// records are JSON-encoded into their cell, so no data is dropped.
pub fn records_to_csv(records: &[Record]) -> String {
    let mut columns: Vec<&str> = Vec::new();
    for rec in records {
        for (name, _) in rec.fields() {
            if !columns.contains(&name.as_ref()) {
                columns.push(name);
            }
        }
    }
    let mut out = String::new();
    out.push_str(&columns.iter().map(|c| csv_escape(c)).collect::<Vec<_>>().join(","));
    out.push('\n');
    for rec in records {
        let row: Vec<String> = columns
            .iter()
            .map(|c| rec.get(c).map(Value::to_csv_cell).unwrap_or_default())
            .collect();
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_envelope_is_self_describing_and_parses_back() {
        let ctx = Record::new().field("seed", 7u64).field("quick", true);
        let envelope = export_envelope("table1", ctx, vec![Record::new().field("scheme", "P-SSP")]);
        assert_eq!(envelope.get("schema_version"), Some(&Value::UInt(SCHEMA_VERSION)));
        assert_eq!(envelope.get("scenario"), Some(&Value::Str("table1".into())));
        let parsed = Record::from_json(&envelope.to_json()).expect("envelope parses");
        let Some(Value::Record(ctx)) = parsed.get("ctx") else { panic!("ctx nests: {parsed:?}") };
        assert_eq!(ctx.get("seed"), Some(&Value::UInt(7)));
        let Some(Value::List(records)) = parsed.get("records") else { panic!("records nest") };
        assert_eq!(records.len(), 1);
    }

    #[test]
    fn nesting_is_capped_with_a_parse_error() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Value::from_json(&nest(MAX_NESTING_DEPTH)).is_ok());
        let err = Value::from_json(&nest(MAX_NESTING_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_NESTING_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        // Objects count too, and a hostile depth fails fast rather than
        // overflowing the stack.
        let objects =
            "{\"a\":".repeat(MAX_NESTING_DEPTH + 1) + "1" + &"}".repeat(MAX_NESTING_DEPTH + 1);
        assert!(Record::from_json(&objects).is_err());
        assert!(Record::from_json(&("{\"a\":".to_string() + &nest(200_000) + "}")).is_err());
        assert!(Value::from_json(&nest(200_000)).is_err());
        assert!(Record::from_json(&nest(200_000)).is_err());
    }

    #[test]
    fn envelope_accessor_round_trips_the_writer() {
        let ctx = Record::new().field("seed", 7u64).field("quick", true);
        let records = vec![Record::new().field("scheme", "P-SSP").field("verdict", "resists")];
        let written = export_envelope("server-attack", ctx.clone(), records.clone());
        let envelope = Envelope::from_json(&written.to_json()).expect("own export parses");
        assert_eq!(envelope.schema_version, SCHEMA_VERSION);
        assert_eq!(envelope.scenario, "server-attack");
        assert_eq!(envelope.ctx, ctx);
        assert_eq!(envelope.records, records);
        assert_eq!(envelope.to_record(), written);
    }

    #[test]
    fn envelope_from_a_future_schema_version_is_a_clear_error() {
        // A future export must be rejected with a readable message naming
        // both versions — not misread field-by-field, not a panic.
        let future = export_envelope("table1", Record::new(), vec![])
            .to_json()
            .replace("\"schema_version\":1", &format!("\"schema_version\":{}", SCHEMA_VERSION + 1));
        let err = Envelope::from_json(&future).unwrap_err();
        assert_eq!(
            err,
            EnvelopeError::FutureSchema { found: SCHEMA_VERSION + 1, supported: SCHEMA_VERSION }
        );
        let message = err.to_string();
        assert!(message.contains(&format!("schema_version {}", SCHEMA_VERSION + 1)), "{message}");
        assert!(message.contains(&format!("up to {SCHEMA_VERSION}")), "{message}");
    }

    #[test]
    fn envelope_rejects_missing_or_mistyped_fields_by_name() {
        for (json, field) in [
            (r#"{"scenario":"t","ctx":{},"records":[]}"#, "schema_version"),
            (r#"{"schema_version":1,"ctx":{},"records":[]}"#, "scenario"),
            (r#"{"schema_version":1,"scenario":"t","records":[]}"#, "ctx"),
            (r#"{"schema_version":1,"scenario":"t","ctx":{}}"#, "records"),
            (r#"{"schema_version":1,"scenario":"t","ctx":{},"records":[1]}"#, "records"),
            (r#"{"schema_version":1,"scenario":"t","ctx":3,"records":[]}"#, "ctx"),
        ] {
            let err = Envelope::from_json(json).unwrap_err();
            assert_eq!(err, EnvelopeError::Malformed { field: field.into() }, "{json}");
            assert!(err.to_string().contains(field), "{err}");
        }
        assert!(matches!(Envelope::from_json("not json"), Err(EnvelopeError::Json(_))));
    }

    #[test]
    fn json_escapes_strings_and_handles_non_finite_floats() {
        let rec = Record::new()
            .field("label", "a \"quoted\"\nline")
            .field("nan", f64::NAN)
            .field("neg", -3i64)
            .field("ok", 1.5f64);
        assert_eq!(rec.to_json(), r#"{"label":"a \"quoted\"\nline","nan":null,"neg":-3,"ok":1.5}"#);
    }

    #[test]
    fn nested_records_and_lists_round_trip_into_json() {
        let run = Record::new().field("seed", 7u64).field("success", true);
        let rec = Record::new().field("runs", vec![run.clone(), run]);
        assert_eq!(
            rec.to_json(),
            r#"{"runs":[{"seed":7,"success":true},{"seed":7,"success":true}]}"#
        );
    }

    #[test]
    fn csv_takes_the_union_of_columns_and_escapes_cells() {
        let a = Record::new().field("name", "x,y").field("n", 1u64);
        let b = Record::new().field("name", "plain").field("extra", 2.5f64);
        let csv = records_to_csv(&[a, b]);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("name,n,extra"));
        assert_eq!(lines.next(), Some("\"x,y\",1,"));
        assert_eq!(lines.next(), Some("plain,,2.5"));
    }

    #[test]
    fn csv_json_encodes_nested_values_into_one_cell() {
        let rec = Record::new()
            .field("scheme", "SSP")
            .field("runs", vec![Record::new().field("seed", 1u64)]);
        let csv = records_to_csv(&[rec]);
        assert!(csv.contains("\"[{\"\"seed\"\":1}]\""), "{csv}");
    }

    #[test]
    fn records_to_json_builds_an_array() {
        let recs = vec![Record::new().field("i", 0u64), Record::new().field("i", 1u64)];
        assert_eq!(records_to_json(&recs), r#"[{"i":0},{"i":1}]"#);
        assert_eq!(records_to_json(&[]), "[]");
    }

    #[test]
    fn parser_round_trips_the_writer_output() {
        let rec = Record::new()
            .field("scheme", "P-SSP")
            .field("ok", true)
            .field("bad", false)
            .field("count", 42u64)
            .field("delta", -7i64)
            .field("rate", 0.125f64)
            .field("label", "quote \" backslash \\ tab \t newline \n")
            .field(
                "runs",
                vec![Record::new().field("seed", 3u64), Record::new().field("seed", 4u64)],
            )
            .field("empty_list", Vec::<Value>::new())
            .field("nested", Record::new().field("x", 1u64));
        let parsed = Record::from_json(&rec.to_json()).expect("writer output parses");
        assert_eq!(parsed, rec);
        // And through the array writer/parser pair.
        let parsed = records_from_json(&records_to_json(std::slice::from_ref(&rec))).unwrap();
        assert_eq!(parsed, vec![rec]);
    }

    #[test]
    fn parser_retypes_numbers_predictably() {
        assert_eq!(Value::from_json("5"), Ok(Value::UInt(5)));
        assert_eq!(Value::from_json("-5"), Ok(Value::Int(-5)));
        assert_eq!(Value::from_json("5.5"), Ok(Value::Float(5.5)));
        assert_eq!(Value::from_json("1e3"), Ok(Value::Float(1000.0)));
        assert_eq!(Value::from_json("null"), Ok(Value::Null));
        // A whole-valued float prints without a fraction and comes back as
        // an integer — the documented caveat as_f64 smooths over.
        let rec = Record::new().field("rate", 1.0f64);
        let back = Record::from_json(&rec.to_json()).unwrap();
        assert_eq!(back.get("rate"), Some(&Value::UInt(1)));
        assert_eq!(back.get("rate").unwrap().as_f64(), Some(1.0));
        // Non-finite floats serialize as null and come back Null.
        let rec = Record::new().field("nan", f64::NAN);
        assert_eq!(Record::from_json(&rec.to_json()).unwrap().get("nan"), Some(&Value::Null));
        // u64 values above i64::MAX survive.
        let big = u64::MAX;
        let rec = Record::new().field("big", big);
        assert_eq!(Record::from_json(&rec.to_json()).unwrap().get("big"), Some(&Value::UInt(big)));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "{\"a\":1,}", "{\"a\" 1}", "tru", "1 2", "\"abc"] {
            assert!(Value::from_json(bad).is_err(), "{bad:?} must not parse");
        }
        assert!(Record::from_json("[1]").is_err(), "a record must be an object");
        assert!(records_from_json("{}").is_err(), "records must be an array");
        assert!(records_from_json("[1]").is_err(), "record array elements must be objects");
        let err = Value::from_json("{\"a\":nope}").unwrap_err();
        assert!(err.to_string().contains("byte"), "{err}");
    }

    #[test]
    fn parser_decodes_surrogate_pairs_and_rejects_lone_surrogates() {
        // Standard encoders (e.g. Python's ensure_ascii) emit astral-plane
        // characters as \u surrogate pairs; they must decode, not corrupt.
        assert_eq!(Value::from_json(r#""\ud83d\udc14""#), Ok(Value::Str("\u{1F414}".into())));
        assert_eq!(
            Value::from_json(r#""fork \ud83d\udc14 loop""#),
            Ok(Value::Str("fork \u{1F414} loop".into()))
        );
        for bad in [r#""\ud83d""#, r#""\ud83d\n""#, r#""\ud83dA""#, r#""\udc14""#] {
            assert!(Value::from_json(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn parser_round_trips_multibyte_strings() {
        let rec = Record::new()
            .field("two", "canari\u{00e9}s")
            .field("three", "\u{20ac}100 \u{2260} free")
            .field("four", "fork \u{1F414} loop");
        assert_eq!(Record::from_json(&rec.to_json()), Ok(rec));
    }

    #[test]
    fn parser_handles_whitespace_and_escapes() {
        let parsed = Value::from_json(" { \"a\" : [ 1 , \"\\u0041\\n\" ] } ").unwrap();
        let Value::Record(rec) = parsed else { panic!("object expected") };
        assert_eq!(
            rec.get("a"),
            Some(&Value::List(vec![Value::UInt(1), Value::Str("A\n".into())]))
        );
    }

    #[test]
    fn value_accessors_cover_the_scalar_variants() {
        assert_eq!(Value::UInt(3).as_f64(), Some(3.0));
        assert_eq!(Value::Int(-3).as_f64(), Some(-3.0));
        assert_eq!(Value::Float(0.5).as_f64(), Some(0.5));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
        assert_eq!(Value::UInt(3).as_u64(), Some(3));
        assert_eq!(Value::Int(-3).as_u64(), None);
        assert_eq!(Value::Int(3).as_u64(), Some(3));
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Null.as_bool(), None);
        assert_eq!(Value::Null.to_json(), "null");
    }
}
