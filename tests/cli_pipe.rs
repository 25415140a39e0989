//! `zenesis-cli` piped into a reader that stops early (`| head -5`): the
//! closed pipe ends the output quietly instead of panicking with "failed
//! printing to stdout".

use std::io::Write;
use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_is_a_quiet_exit() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_zenesis-cli"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn zenesis-cli");
    // Close the read end before the job is even sent, so the result's
    // first write meets a pipe nobody reads.
    drop(child.stdout.take());
    let job = r#"{"mode":"interactive","prompt":"particles",
        "input":{"source":"phantom_slice","kind":"amorphous","seed":1,"side":32}}"#;
    let mut stdin = child.stdin.take().expect("stdin is piped");
    stdin.write_all(job.as_bytes()).expect("send the job");
    drop(stdin);
    let done = child
        .wait_with_output()
        .expect("zenesis-cli runs to the end");
    let stderr = String::from_utf8_lossy(&done.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(done.status.success(), "{:?}: {stderr}", done.status);
}
