//! End-to-end tests for the `bench` binary's command line, run as a real
//! subprocess: `--smoke` is the only invocation, and everything else
//! exits 2 before any gate runs. Each case runs in an empty working
//! directory that must stay empty, so no refused invocation leaves a
//! baseline behind. None of them reaches a gate, so they stay fast in a
//! debug build.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty working directory unique to this test process.
fn empty_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-cli-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create working directory");
    dir
}

/// Runs `bench args` in `dir`, with `OBS_SMOKE_DIR` set to `obs_dir` or
/// unset.
fn bench(dir: &Path, args: &[&str], obs_dir: Option<&Path>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bench"));
    cmd.args(args).current_dir(dir).env_remove("OBS_SMOKE_DIR");
    if let Some(obs_dir) = obs_dir {
        cmd.env("OBS_SMOKE_DIR", obs_dir);
    }
    cmd.output().expect("run bench")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

/// Asserts that `dir` is still empty, then removes it.
fn assert_left_empty(dir: &Path, case: &str) {
    let left: Vec<_> = std::fs::read_dir(dir)
        .expect("read working directory")
        .map(|entry| entry.expect("directory entry").file_name())
        .collect();
    assert!(left.is_empty(), "{case} left {left:?} behind");
    std::fs::remove_dir(dir).expect("remove working directory");
}

#[test]
fn every_invocation_but_smoke_is_a_usage_error() {
    for args in [&[][..], &["--scenarios"], &["fleet"], &["--bogus"]] {
        let dir = empty_dir("usage");
        let out = bench(&dir, args, None);
        let case = format!("bench {args:?}");
        assert_eq!(code(&out), 2, "{case}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("usage: bench --smoke"),
            "{case} printed no usage line: {}",
            stderr(&out)
        );
        assert_left_empty(&dir, &case);
    }
}

#[test]
fn a_missing_obs_smoke_dir_is_refused_before_any_gate_runs() {
    let dir = empty_dir("missing-obs-dir");
    let missing = dir.join("no-such-dir");
    let out = bench(&dir, &["--smoke"], Some(&missing));
    assert_eq!(code(&out), 2, "{}", stderr(&out));
    assert!(
        stderr(&out).contains(missing.to_str().expect("utf8 path")),
        "stderr must name the directory: {}",
        stderr(&out)
    );
    assert!(out.stdout.is_empty(), "a gate ran before the check");
    assert_left_empty(&dir, "bench --smoke with a missing OBS_SMOKE_DIR");
}
