//! `neutrino-lint` — workspace static analysis for the determinism contract.
//!
//! Every figure this reproduction produces is trustworthy only because the
//! sans-IO protocol crates are bit-deterministic from a seed. This crate
//! machine-checks that contract instead of leaving it to convention:
//!
//! * **Determinism rules** ([`determinism`]) over the sans-IO crates:
//!   no wall clocks, threads, sockets, ambient env/RNG, and no iteration
//!   over `HashMap`/`HashSet` (per-process-random order — the exact class
//!   behind the PR 2/PR 3 failover-ordering bugs).
//! * **Protocol-flow rules** ([`flow`]): every `SysMsg` send site and
//!   `handle()` match arm must agree with the declared flow registry
//!   (`messages/src/flow.rs`) — no undeclared senders, missing handler
//!   arms, dead arms, orphan variants, or silent wildcard arms.
//!
//! Both are facts about source text that neither rustc nor a test on the
//! running program can establish. What the compiler or a test *can* check
//! is checked there instead: the `SysMsg` ⇄ frame-tag mapping by
//! `neutrino-net/tests/framing_exhaustive.rs`, the invariant catalog by
//! the table in `check/src/invariants.rs` and its tests (TESTING.md,
//! "Checked by the compiler or a test").
//!
//! The one suppression mechanism is an inline
//! `// lint-allow(<rule>): <reason>` comment, audited for staleness (see
//! [`findings`]). Run with `cargo run -p neutrino-lint --`; the TESTING.md
//! "Determinism contract" section is the user-facing rule catalog.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod determinism;
pub mod findings;
pub mod flow;
pub mod lexer;

use findings::Finding;
use std::fs;
use std::path::{Path, PathBuf};

/// The sans-IO crates subject to the determinism rules (crate dir names
/// under `crates/`). `neutrino-net`, `bench`, `check` and `apps` drive real
/// time, threads and files by design and are exempt.
pub const SANS_IO_CRATES: &[&str] = &[
    "common",
    "messages",
    "codec",
    "cta",
    "cpf",
    "upf",
    "geo",
    "trafficgen",
    "netsim",
    "neutrino-core",
];

/// Lint one source file against the determinism rules, honouring its inline
/// `lint-allow` comments (and reporting stale ones). `label` is the path
/// used in findings.
pub fn lint_source(label: &str, src: &str) -> Vec<Finding> {
    let lexed = lexer::lex(src);
    let tokens = determinism::strip_test_mods(&lexed.tokens);
    let raw = determinism::check(label, &tokens);
    let (mut allows, mut out) = findings::parse_inline_allows(label, &lexed.comments);
    let surviving = findings::apply_inline_allows(raw, &mut allows);
    out.extend(surviving);
    out.extend(findings::stale_inline_allows(label, &allows));
    out
}

/// Lint the whole workspace rooted at `root` and also return the static
/// protocol-flow graph (the payload of `neutrino-lint --flow-graph`).
/// Findings are sorted by (file, line, rule); empty means the tree is clean.
pub fn lint_workspace_full(root: &Path) -> Result<(flow::FlowGraph, Vec<Finding>), String> {
    let mut all = Vec::new();

    // Read every sans-IO source file once; the determinism and protocol-
    // flow rules share the set, and their findings go through one
    // inline-allow application per file so a `lint-allow(flow-wildcard)`
    // is usable (and auditable for staleness) like any other rule.
    let mut sources: Vec<(String, String)> = Vec::new();
    for krate in SANS_IO_CRATES {
        let src_dir = root.join("crates").join(krate).join("src");
        for file in rust_files(&src_dir)? {
            let src = fs::read_to_string(&file)
                .map_err(|e| format!("{}: {e}", file.display()))?;
            sources.push((rel_label(root, &file), src));
        }
    }

    // Protocol flow (graph + raw findings, grouped per file).
    let sysmsg_label = "crates/messages/src/sysmsg.rs".to_string();
    let flow_label = "crates/messages/src/flow.rs".to_string();
    let find_src = |label: &str| -> Result<&str, String> {
        sources
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, s)| s.as_str())
            .ok_or_else(|| format!("{label}: missing from the sans-IO source set"))
    };
    let flow_files: Vec<flow::FlowFile> = sources
        .iter()
        .map(|(label, src)| {
            let (role, handler) = flow::classify(label);
            flow::FlowFile {
                label: label.clone(),
                src: src.clone(),
                role: role.map(String::from),
                handler,
            }
        })
        .collect();
    let (graph, flow_raw) = flow::check(
        (&sysmsg_label, find_src(&sysmsg_label)?),
        (&flow_label, find_src(&flow_label)?),
        &flow_files,
    );
    let mut flow_by_file: std::collections::BTreeMap<String, Vec<Finding>> = Default::default();
    for f in flow_raw {
        flow_by_file.entry(f.file.clone()).or_default().push(f);
    }

    // Both rule sets, with one allow application per file.
    for (label, src) in &sources {
        let lexed = lexer::lex(src);
        let tokens = determinism::strip_test_mods(&lexed.tokens);
        let mut raw = determinism::check(label, &tokens);
        raw.extend(flow_by_file.remove(label).unwrap_or_default());
        let (mut allows, bad) = findings::parse_inline_allows(label, &lexed.comments);
        all.extend(bad);
        all.extend(findings::apply_inline_allows(raw, &mut allows));
        all.extend(findings::stale_inline_allows(label, &allows));
    }
    // Flow findings on files outside the sans-IO set (shouldn't happen, but
    // never drop a finding on the floor).
    for (_, v) in flow_by_file {
        all.extend(v);
    }

    all.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    Ok((graph, all))
}

/// Run only the protocol-flow rules over an explicit file set (the
/// `neutrino-lint --flow` fixture mode). Inline `lint-allow` comments in
/// every supplied file are honoured and audited for staleness, exactly as
/// in workspace mode.
pub fn lint_flow_fixture(
    sysmsg: (&str, &str),
    table: (&str, &str),
    files: &[flow::FlowFile],
) -> (flow::FlowGraph, Vec<Finding>) {
    let (graph, raw) = flow::check(sysmsg, table, files);
    let mut by_file: std::collections::BTreeMap<String, Vec<Finding>> = Default::default();
    for f in raw {
        by_file.entry(f.file.clone()).or_default().push(f);
    }
    let mut texts: Vec<(&str, &str)> = vec![sysmsg, table];
    texts.extend(files.iter().map(|f| (f.label.as_str(), f.src.as_str())));
    let mut seen = std::collections::BTreeSet::new();
    let mut all = Vec::new();
    for (label, src) in texts {
        if !seen.insert(label.to_string()) {
            continue;
        }
        let lexed = lexer::lex(src);
        let raw = by_file.remove(label).unwrap_or_default();
        let (mut allows, bad) = findings::parse_inline_allows(label, &lexed.comments);
        all.extend(bad);
        all.extend(findings::apply_inline_allows(raw, &mut allows));
        all.extend(findings::stale_inline_allows(label, &allows));
    }
    for (_, v) in by_file {
        all.extend(v);
    }
    all.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    (graph, all)
}

/// Locate the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// All `.rs` files under `dir`, recursively, in sorted order (so output is
/// stable across filesystems).
fn rust_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries = fs::read_dir(&d).map_err(|e| format!("{}: {e}", d.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("{}: {e}", d.display()))?;
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Workspace-relative label for a path (falls back to the full path).
fn rel_label(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_applies_inline_allows() {
        let dirty = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(lint_source("x.rs", dirty).len(), 1);
        let allowed =
            "fn f() { let t = std::time::Instant::now(); } // lint-allow(wall-clock): calibration only\n";
        assert!(lint_source("x.rs", allowed).is_empty());
    }

    #[test]
    fn workspace_root_detection() {
        let here = std::env::current_dir().unwrap();
        let root = find_workspace_root(&here).expect("in a workspace");
        assert!(root.join("crates/lint").is_dir());
    }
}
