//! The `harness` binary on hostile input: a malformed export is a runtime
//! error with the documented exit code, never a crash of the host process.

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
