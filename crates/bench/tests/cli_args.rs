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

/// `repro profile` shares the sweep's argument parser: it takes every
/// run-shaping flag, the shard flags included.
#[test]
fn profile_accepts_the_run_shaping_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "profile",
            "table1",
            "--quick",
            "--ops",
            "1000",
            "--seed",
            "2",
            "--jobs",
            "1",
            "--shard-ops",
            "500",
            "--shard-secs",
            "0.5",
        ])
        .output()
        .expect("spawn repro");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for row in ["table1: ", "\nruns ", "\nbaseline computes "] {
        assert!(stdout.contains(row), "missing {row:?} in {stdout}");
    }
}

/// ...and refuses the flags only a sweep takes, and a zero count, with a
/// usage error.
#[test]
fn profile_refuses_the_sweep_only_flags() {
    for flag in [
        "--out",
        "--bench-out",
        "--trace-out",
        "--checkpoint",
        "--resume",
        "--run-timeout",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["profile", "table1", "--quick", flag, "1"])
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {flag}\n")) && stderr.contains("usage:"),
            "{flag}: {stderr}"
        );
    }
    for (flag, message) in [
        ("--ops", "--ops needs a positive integer"),
        ("--jobs", "--jobs needs a positive integer"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["profile", "table1", flag, "0"])
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} 0: {stderr}");
        assert!(stderr.contains(message), "{flag} 0: {stderr}");
    }
}
