//! A report bin whose reader closed stdout stops quietly: exit status 141
//! (128 + SIGPIPE, as a shell reports a tool that signal killed) and no
//! panic on stderr.

use std::process::{Command, Stdio};

#[test]
fn table1_exits_141_when_its_reader_is_gone() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--threads", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("table1 starts");
    // table1 prints only after its campaign, so the read end is closed
    // before its first write.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("table1 runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(141), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
