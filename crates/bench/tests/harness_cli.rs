//! The `harness` binary on hostile input: a malformed export is a runtime
//! error and a malformed command line a usage error, each with its
//! documented exit code, never a crash of the host process.

use std::path::PathBuf;
use std::process::Command;

/// A scratch file under the system temp directory, removed on drop.
struct TempFile(PathBuf);

impl TempFile {
    fn with_contents(name: &str, contents: &str) -> TempFile {
        let path = std::env::temp_dir().join(format!("{}-{name}", std::process::id()));
        std::fs::write(&path, contents).expect("temp dir is writable");
        TempFile(path)
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn diff_of_a_deeply_nested_export_exits_1_instead_of_aborting() {
    // 200 000 nested arrays used to overflow the parser's stack (SIGABRT).
    let depth = 200_000;
    let file =
        TempFile::with_contents("deep-nesting.json", &("[".repeat(depth) + &"]".repeat(depth)));
    let output = Command::new(env!("CARGO_BIN_EXE_harness"))
        .arg("diff")
        .arg(&file.0)
        .arg(&file.0)
        .output()
        .expect("harness runs");
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("nesting deeper than"), "{stderr}");
}

/// A value-taking flag: `(command prefix, flag, malformed value,
/// out-of-range value)`.  Path flags accept any string, so only their
/// missing value is an error.
type ValueFlag =
    (&'static [&'static str], &'static str, Option<&'static str>, Option<&'static str>);

/// Every value-taking flag of every command.
const VALUE_FLAGS: &[ValueFlag] = &[
    (&[], "--seed", Some("0x12"), Some("18446744073709551616")),
    (&[], "--workers", Some("four"), Some("18446744073709551616")),
    (&[], "--fleet", Some("-3"), Some("0")),
    (&[], "--format", Some(""), Some("xml")),
    (&[], "--out", None, None),
    (&[], "--timings", None, None),
    (&[], "--opt-level", Some("fast"), Some("O1")),
    (&[], "--lattice", Some(""), Some("no-such-lattice")),
    (&[], "--gen-seed", Some("7.5"), Some("-1")),
    (&["diff"], "--baseline", None, None),
    (&["diff"], "--threshold", Some("NaN"), Some("-5")),
    (&["diff"], "--format", Some(""), Some("md")),
    (&["report"], "--out", None, None),
    (&["report"], "--format", Some(""), Some("text")),
    (&["verify"], "--inject", Some(""), Some("no-such-defect")),
    (&["verify"], "--format", Some(""), Some("md")),
    (&["verify"], "--out", None, None),
];

/// Every malformed invocation [`VALUE_FLAGS`] implies, plus an unknown flag
/// per command.
fn bad_invocations() -> Vec<Vec<&'static str>> {
    let mut cases = Vec::new();
    for &(prefix, flag, malformed, out_of_range) in VALUE_FLAGS {
        let with = |tail: &[&'static str]| [prefix, &[flag], tail].concat();
        cases.push(with(&[]));
        cases.extend(malformed.into_iter().chain(out_of_range).map(|value| with(&[value])));
    }
    for prefix in [&[][..], &["diff"], &["report"], &["verify"]] {
        cases.push([prefix, &["--no-such-flag"]].concat());
    }
    cases
}

#[test]
fn every_malformed_flag_exits_2_with_usage() {
    let cases = bad_invocations();
    assert_eq!(cases.len(), 17 + 2 * 12 + 4);
    for args in cases {
        let output =
            Command::new(env!("CARGO_BIN_EXE_harness")).args(&args).output().expect("harness runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: harness"), "{args:?} prints usage: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_reader_closing_the_pipe_early_ends_the_run_quietly_with_exit_0() {
    use std::process::Stdio;

    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/run_a.json");
    let runs: [&[&str]; 3] = [
        &["--lattice", "matrix", "--gen-seed", "7", "--list"],
        &["report", fixture],
        &["--quick", "--format", "json", "table1"],
    ];
    for args in runs {
        let mut child = Command::new(env!("CARGO_BIN_EXE_harness"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("harness runs");
        // Close the read end before the harness writes: every write it
        // makes then fails with a broken pipe.
        drop(child.stdout.take());
        let output = child.wait_with_output().expect("harness exits");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
