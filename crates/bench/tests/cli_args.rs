//! Argument validation of the `repro` binary: a bad value is a usage
//! error (message + usage, exit 1), never a panic.

use std::process::Command;

#[test]
fn a_run_timeout_too_large_for_a_duration_is_a_usage_error() {
    for secs in ["1e20", "0", "-1", "nan", "inf"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["table1", "--quick", "--run-timeout", secs])
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--run-timeout {secs}: {stderr}");
        assert!(
            stderr.contains("--run-timeout needs positive seconds") && stderr.contains("usage:"),
            "--run-timeout {secs}: {stderr}"
        );
    }
}
