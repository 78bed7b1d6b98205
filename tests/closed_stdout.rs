//! The `qsyn` binary when the reader of its stdout has gone away, as in
//! `qsyn list | head -1`: a pipeline stopping early is a normal end.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_ends_quietly() {
    // Close the read end before the child starts, so its very first write
    // fails with a broken pipe.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_qsyn"))
        .arg("list")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("qsyn runs");
    assert_eq!(String::from_utf8_lossy(&out.stderr), "");
    assert!(out.status.success(), "{:?}", out.status);
}
