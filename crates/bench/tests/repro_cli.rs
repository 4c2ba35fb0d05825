//! `repro` must fail loudly on input it does not understand: a stale flag,
//! a misspelt figure, or a flag whose figure is not selected exits with
//! status 2 before any figure runs, instead of silently measuring something
//! else.

use std::process::Command;

/// Runs `repro` with `args`; asserts a usage error and that nothing ran
/// (figures print their tables to stdout).
fn assert_rejected(args: &[&str], needle: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "repro {args:?} must exit 2");
    assert!(
        out.stdout.is_empty(),
        "repro {args:?} must not run a figure"
    );
    assert!(
        stderr.contains(needle) && stderr.contains("usage: repro"),
        "repro {args:?} must name the offender and print usage, got:\n{stderr}"
    );
}

#[test]
fn removed_shards_flag_is_rejected() {
    assert_rejected(
        &["fig8", "--quick", "--shards", "2"],
        "unknown flag `--shards`",
    );
}

#[test]
fn unknown_flag_is_rejected() {
    assert_rejected(&["--nope"], "unknown flag `--nope`");
}

#[test]
fn wrong_case_figure_is_rejected_not_widened_to_all() {
    assert_rejected(&["Fig8", "--quick"], "unknown figure `Fig8`");
}

#[test]
fn misspelt_figure_is_rejected() {
    assert_rejected(&["fig8", "fig99", "--quick"], "unknown figure `fig99`");
}

#[test]
fn removed_bench_out_flag_is_rejected() {
    assert_rejected(
        &["fig8", "--quick", "--bench-out", "x.json"],
        "unknown flag `--bench-out`",
    );
}

#[test]
fn faults_without_fig10_is_rejected() {
    assert_rejected(&["fig8", "--faults"], "--faults applies only to fig10");
}

#[test]
fn huge_without_fig9_is_rejected() {
    assert_rejected(&["fig8", "--huge"], "--huge applies only to fig9");
}

/// An unwritable `--json` path fails the run with exit 1 before any figure
/// runs, not with a panic after the whole sweep.
#[test]
fn unwritable_json_path_fails_before_any_figure() {
    let file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_cli_not_a_dir");
    std::fs::write(&file, b"").expect("create a regular file");
    let path = file.join("out.json");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig8", "--quick", "--json"])
        .arg(&path)
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(out.stdout.is_empty(), "no figure may run");
    assert!(
        stderr.starts_with("error: --json ") && !stderr.contains("panicked"),
        "must name the path without a panic, got:\n{stderr}"
    );
}
