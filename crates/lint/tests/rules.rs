//! Fixture tests: each rule fires exactly where expected, suppressions
//! suppress, stale suppressions are themselves findings — checked both
//! through the library API (exact file:line assertions) and through the
//! built binary (exit codes, the acceptance-criteria surface).

use neutrino_lint::findings::Finding;
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn lint_fixture(name: &str) -> Vec<Finding> {
    let path = fixture(name);
    let src = std::fs::read_to_string(&path).unwrap();
    neutrino_lint::lint_source(name, &src)
}

/// (rule, line) pairs of the findings, sorted.
fn fired(findings: &[Finding]) -> Vec<(String, u32)> {
    let mut v: Vec<(String, u32)> =
        findings.iter().map(|f| (f.rule.clone(), f.line)).collect();
    v.sort();
    v
}

#[test]
fn wall_clock_fires_exactly_once() {
    let f = lint_fixture("bad_wall_clock.rs");
    assert_eq!(fired(&f), [("wall-clock".to_string(), 4)], "{f:?}");
}

#[test]
fn thread_net_env_rng_fire_at_expected_lines() {
    assert_eq!(fired(&lint_fixture("bad_thread.rs")), [("thread".to_string(), 3)]);
    assert_eq!(fired(&lint_fixture("bad_net.rs")), [("net".to_string(), 2)]);
    assert_eq!(fired(&lint_fixture("bad_env.rs")), [("env".to_string(), 3)]);
    assert_eq!(
        fired(&lint_fixture("bad_rng.rs")),
        [("ambient-rng".to_string(), 3), ("ambient-rng".to_string(), 4)]
    );
}

#[test]
fn hash_iter_fires_on_hash_not_btree() {
    let f = lint_fixture("bad_hash_iter.rs");
    assert_eq!(
        fired(&f),
        [
            ("hash-iter".to_string(), 10),
            ("hash-iter".to_string(), 13),
            ("hash-iter".to_string(), 18),
        ],
        "{f:?}"
    );
}

#[test]
fn uemap_sorted_view_is_clean_and_raw_hash_iter_still_fires() {
    let f = lint_fixture("uemap_sorted_view.rs");
    assert_eq!(fired(&f), [("hash-iter".to_string(), 19)], "{f:?}");
}

#[test]
fn inline_allows_suppress_and_stale_allows_fire() {
    let f = lint_fixture("allowed_ok.rs");
    assert!(f.is_empty(), "justified allows must fully suppress: {f:?}");
    let f = lint_fixture("stale_allow.rs");
    assert_eq!(fired(&f), [("stale-allow".to_string(), 3)], "{f:?}");
}

#[test]
fn sans_io_list_covers_every_crate_ci_calls_sans_io() {
    // CI's `lint-allow(thread)` grep spells out the crates it treats as
    // sans-IO; the determinism rules must run over every one of them.
    let ci = include_str!("../../../.github/workflows/ci.yml");
    let (_, grep) = ci.split_once("grep -rn 'lint-allow(thread)'").expect("CI thread-allowance grep");
    let (_, list) = grep.split_once("crates/{").expect("brace list of crates");
    let (list, _) = list.split_once('}').expect("closing brace");
    for krate in list.split(',') {
        assert!(
            neutrino_lint::SANS_IO_CRATES.contains(&krate),
            "`{krate}` missing from SANS_IO_CRATES"
        );
    }
}

// --- binary exit codes (the `cargo run -p neutrino-lint` surface) ---------

fn run_bin(args: &[&str]) -> std::process::ExitStatus {
    Command::new(env!("CARGO_BIN_EXE_neutrino-lint"))
        .args(args)
        .output()
        .expect("spawn neutrino-lint")
        .status
}

#[test]
fn binary_exits_nonzero_on_each_bad_fixture() {
    for bad in [
        "bad_wall_clock.rs",
        "bad_thread.rs",
        "bad_net.rs",
        "bad_env.rs",
        "bad_rng.rs",
        "bad_hash_iter.rs",
        "stale_allow.rs",
    ] {
        let status = run_bin(&["--check-file", fixture(bad).to_str().unwrap()]);
        assert_eq!(status.code(), Some(1), "{bad} must exit 1");
    }
    let status = run_bin(&["--check-file", fixture("allowed_ok.rs").to_str().unwrap()]);
    assert_eq!(status.code(), Some(0), "allowed_ok.rs must exit 0");
}

#[test]
fn unrecognised_modes_exit_2() {
    // An unknown mode is a usage error, never a silent workspace run.
    for mode in ["--wire", "--coverage", "--nope"] {
        let status = run_bin(&[mode, "a.rs", "b.rs"]);
        assert_eq!(status.code(), Some(2), "{mode} must exit 2");
    }
}

#[test]
fn binary_is_clean_on_the_real_workspace() {
    let status = run_bin(&[]);
    assert_eq!(status.code(), Some(0), "the tree must lint clean");
}

// --- protocol-flow rules ------------------------------------------

use neutrino_lint::flow::FlowFile;

/// Runs the flow pass over fixture files: `files` is `(name, role,
/// is_handler)`; labels are the bare fixture names so line assertions stay
/// readable.
fn flow_check(table: &str, files: &[(&str, &str, bool)]) -> Vec<Finding> {
    let read = |n: &str| std::fs::read_to_string(fixture(n)).unwrap();
    let sysmsg = read("flow_sysmsg.rs");
    let table_src = read(table);
    let flow_files: Vec<FlowFile> = files
        .iter()
        .map(|(name, role, handler)| FlowFile {
            label: name.to_string(),
            src: read(name),
            role: Some(role.to_string()),
            handler: *handler,
        })
        .collect();
    let (_, findings) = neutrino_lint::lint_flow_fixture(
        ("flow_sysmsg.rs", &sysmsg),
        (table, &table_src),
        &flow_files,
    );
    findings
}

/// (file, rule, line) triples of the findings, sorted.
fn fired_at(findings: &[Finding]) -> Vec<(String, String, u32)> {
    let mut v: Vec<(String, String, u32)> =
        findings.iter().map(|f| (f.file.clone(), f.rule.clone(), f.line)).collect();
    v.sort();
    v
}

const CTA_GOOD: (&str, &str, bool) = ("flow_cta_good.rs", "cta", true);
const CPF_GOOD: (&str, &str, bool) = ("flow_cpf_good.rs", "cpf", true);

#[test]
fn flow_good_pair_is_clean() {
    let f = flow_check("flow_table_good.rs", &[CTA_GOOD, CPF_GOOD]);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn deleting_a_handler_arm_flips_clean_to_failing() {
    // The identical table and CTA file lint clean with flow_cpf_good.rs
    // (asserted above); removing just the SysMsg::Data arm must fail.
    let f = flow_check(
        "flow_table_good.rs",
        &[CTA_GOOD, ("flow_cpf_missing_arm.rs", "cpf", true)],
    );
    assert_eq!(
        fired_at(&f),
        [("flow_cpf_missing_arm.rs".into(), "flow-missing-handler".into(), 8)],
        "{f:?}"
    );
}

#[test]
fn undeclared_send_fires_at_the_construction_site() {
    let f = flow_check(
        "flow_table_good.rs",
        &[("flow_cta_undeclared_send.rs", "cta", true), CPF_GOOD],
    );
    assert_eq!(
        fired_at(&f),
        [("flow_cta_undeclared_send.rs".into(), "flow-undeclared-send".into(), 13)],
        "{f:?}"
    );
}

#[test]
fn dead_arm_fires_at_the_arm_line() {
    let f = flow_check(
        "flow_table_good.rs",
        &[("flow_cta_dead_arm.rs", "cta", true), CPF_GOOD],
    );
    assert_eq!(
        fired_at(&f),
        [("flow_cta_dead_arm.rs".into(), "flow-dead-arm".into(), 15)],
        "{f:?}"
    );
}

#[test]
fn declared_but_never_sent_is_an_orphan_at_the_table_entry() {
    let f = flow_check(
        "flow_table_good.rs",
        &[("flow_cta_no_data_send.rs", "cta", true), CPF_GOOD],
    );
    assert_eq!(
        fired_at(&f),
        [("flow_table_good.rs".into(), "flow-orphan".into(), 6)],
        "{f:?}"
    );
}

#[test]
fn sent_but_nowhere_handled_is_an_orphan_at_the_send_site() {
    // The CPF file participates but is not a registered handler, so its
    // arms are invisible: the CTA's Ping and Data sends land nowhere.
    let f = flow_check(
        "flow_table_good.rs",
        &[CTA_GOOD, ("flow_cpf_good.rs", "cpf", false)],
    );
    assert_eq!(
        fired_at(&f),
        [
            ("flow_cta_good.rs".into(), "flow-orphan".into(), 5),
            ("flow_cta_good.rs".into(), "flow-orphan".into(), 9),
        ],
        "{f:?}"
    );
}

#[test]
fn wildcard_arm_fires_unless_audited_and_stale_audits_fire() {
    let f = flow_check(
        "flow_table_good.rs",
        &[CTA_GOOD, ("flow_cpf_wildcard.rs", "cpf", true)],
    );
    assert_eq!(
        fired_at(&f),
        [("flow_cpf_wildcard.rs".into(), "flow-wildcard".into(), 11)],
        "{f:?}"
    );

    let f = flow_check(
        "flow_table_good.rs",
        &[CTA_GOOD, ("flow_cpf_wildcard_allowed.rs", "cpf", true)],
    );
    assert!(f.is_empty(), "audited wildcard must fully suppress: {f:?}");

    let f = flow_check(
        "flow_table_good.rs",
        &[CTA_GOOD, ("flow_cpf_stale_allow.rs", "cpf", true)],
    );
    assert_eq!(
        fired_at(&f),
        [("flow_cpf_stale_allow.rs".into(), "stale-allow".into(), 11)],
        "{f:?}"
    );
}

#[test]
fn malformed_table_fires_on_each_defect() {
    let f = flow_check("flow_table_bad.rs", &[CTA_GOOD, CPF_GOOD]);
    assert_eq!(
        fired_at(&f),
        [
            // Pong is now declared cpf→bogus only: the real cpf→cta send
            // is undeclared and the CTA's Pong arm is dead.
            ("flow_cpf_good.rs".into(), "flow-undeclared-send".into(), 5),
            ("flow_cta_good.rs".into(), "flow-dead-arm".into(), 14),
            ("flow_table_bad.rs".into(), "flow-table".into(), 6),
            ("flow_table_bad.rs".into(), "flow-table".into(), 7),
            ("flow_table_bad.rs".into(), "flow-table".into(), 9),
        ],
        "{f:?}"
    );
}

#[test]
fn missing_table_entry_violates_totality() {
    let f = flow_check("flow_table_missing_entry.rs", &[CTA_GOOD, CPF_GOOD]);
    assert_eq!(
        fired_at(&f),
        [
            // Data has no entry: the enum totality check fires at the
            // variant, and the CPF's Data arm can no longer be justified.
            ("flow_cpf_good.rs".into(), "flow-dead-arm".into(), 11),
            ("flow_sysmsg.rs".into(), "flow-table".into(), 6),
        ],
        "{f:?}"
    );
}

#[test]
fn empty_edge_list_is_a_table_finding() {
    let sysmsg = "pub enum SysMsg {\n    Ping,\n}\n";
    let table =
        "pub const FLOWS: &[FlowSpec] = &[\n    FlowSpec { variant: \"Ping\", edges: &[] },\n];\n";
    let (_, f) = neutrino_lint::lint_flow_fixture(("s.rs", sysmsg), ("t.rs", table), &[]);
    assert!(
        f.iter().any(|x| x.rule == "flow-table" && x.message.contains("no edges")),
        "{f:?}"
    );
}

#[test]
fn binary_flow_mode_exit_codes() {
    let fx = |n: &str| fixture(n).to_str().unwrap().to_owned();
    let spec = |role: &str, n: &str| format!("{role}+handler={}", fx(n));
    let clean = run_bin(&[
        "--flow",
        &fx("flow_sysmsg.rs"),
        &fx("flow_table_good.rs"),
        &spec("cta", "flow_cta_good.rs"),
        &spec("cpf", "flow_cpf_good.rs"),
    ]);
    assert_eq!(clean.code(), Some(0), "good flow fixtures must exit 0");
    let failing = run_bin(&[
        "--flow",
        &fx("flow_sysmsg.rs"),
        &fx("flow_table_good.rs"),
        &spec("cta", "flow_cta_good.rs"),
        &spec("cpf", "flow_cpf_missing_arm.rs"),
    ]);
    assert_eq!(failing.code(), Some(1), "deleted handler arm must exit 1");
    let bogus = run_bin(&["--flow", &fx("flow_sysmsg.rs"), &fx("flow_table_good.rs"), "wat"]);
    assert_eq!(bogus.code(), Some(2), "malformed spec must exit 2");
}

#[test]
fn binary_flow_graph_is_byte_identical_across_runs() {
    let fx = |n: &str| fixture(n).to_str().unwrap().to_owned();
    let spec = |role: &str, n: &str| format!("{role}+handler={}", fx(n));
    let tmp = std::env::temp_dir();
    let g1 = tmp.join("neutrino_lint_flow_graph_1.json");
    let g2 = tmp.join("neutrino_lint_flow_graph_2.json");
    for g in [&g1, &g2] {
        let status = run_bin(&[
            "--flow-graph",
            g.to_str().unwrap(),
            "--flow",
            &fx("flow_sysmsg.rs"),
            &fx("flow_table_good.rs"),
            &spec("cta", "flow_cta_good.rs"),
            &spec("cpf", "flow_cpf_good.rs"),
        ]);
        assert_eq!(status.code(), Some(0));
    }
    let a = std::fs::read(&g1).unwrap();
    let b = std::fs::read(&g2).unwrap();
    assert!(!a.is_empty() && a == b, "flow graph must serialize byte-identically");
}

#[test]
fn binary_json_findings_are_machine_readable() {
    let fx = |n: &str| fixture(n).to_str().unwrap().to_owned();
    let spec = |role: &str, n: &str| format!("{role}+handler={}", fx(n));
    let out = Command::new(env!("CARGO_BIN_EXE_neutrino-lint"))
        .args([
            "--json",
            "--flow",
            &fx("flow_sysmsg.rs"),
            &fx("flow_table_good.rs"),
            &spec("cta", "flow_cta_good.rs"),
            &spec("cpf", "flow_cpf_missing_arm.rs"),
        ])
        .output()
        .expect("spawn neutrino-lint");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let v: serde_json::Value = serde_json::from_str(&stdout).expect("stdout is JSON");
    let arr = v.as_seq().expect("JSON array");
    assert_eq!(arr.len(), 1, "{arr:?}");
    let field = |name: &str| {
        arr[0]
            .as_map()
            .expect("finding object")
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("field {name}"))
    };
    assert_eq!(field("rule").as_str(), Some("flow-missing-handler"));
    assert_eq!(field("line"), serde_json::Value::U64(8));
    assert!(field("file").as_str().unwrap().ends_with("flow_cpf_missing_arm.rs"));

    // A clean run under --json prints an empty array, still exit 0.
    let out = Command::new(env!("CARGO_BIN_EXE_neutrino-lint"))
        .args([
            "--json",
            "--flow",
            &fx("flow_sysmsg.rs"),
            &fx("flow_table_good.rs"),
            &spec("cta", "flow_cta_good.rs"),
            &spec("cpf", "flow_cpf_good.rs"),
        ])
        .output()
        .expect("spawn neutrino-lint");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let v: serde_json::Value = serde_json::from_str(&stdout).expect("stdout is JSON");
    assert_eq!(v, serde_json::Value::Seq(Vec::new()));
}
