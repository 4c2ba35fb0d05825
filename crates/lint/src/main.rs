//! CLI for `neutrino-lint`.
//!
//! ```text
//! cargo run -p neutrino-lint --                      # lint the whole workspace
//! neutrino-lint --check-file <file.rs>               # determinism rules on one file
//! neutrino-lint --flow <sysmsg.rs> <flow.rs> [role[+handler]=FILE ...]
//! ```
//!
//! Two flags compose with any mode:
//!
//! * `--json` — emit findings as a sorted JSON array (`[{file, line, rule,
//!   message}, ...]`) instead of plain text; exit codes are unchanged.
//! * `--flow-graph FILE` (workspace and `--flow` modes) — also write the
//!   observed protocol-flow graph as deterministic JSON to `FILE` (`-` for
//!   stdout).
//!
//! Exit code 0 = clean, 1 = findings, 2 = usage/IO error. The two explicit-
//! file modes exist for the fixture tests under `tests/fixtures/` and for
//! spot-checking a file while editing.

use neutrino_lint::findings::Finding;
use neutrino_lint::flow;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = {
        let n = args.len();
        args.retain(|a| a != "--json");
        args.len() != n
    };
    let mut graph_out: Option<String> = None;
    if let Some(i) = args.iter().position(|a| a == "--flow-graph") {
        if i + 1 >= args.len() {
            eprintln!("neutrino-lint: error: --flow-graph needs an output path");
            return ExitCode::from(2);
        }
        graph_out = Some(args.remove(i + 1));
        args.remove(i);
    }
    let graph_ref = graph_out.as_deref();
    let result = match args.first().map(String::as_str) {
        None => workspace(graph_ref),
        Some("--check-file") if args.len() == 2 && graph_ref.is_none() => check_file(&args[1]),
        Some("--flow") if args.len() >= 3 => flow_mode(&args[1], &args[2], &args[3..], graph_ref),
        Some("--help" | "-h") => {
            eprintln!(
                "usage: neutrino-lint [--json] [--flow-graph OUT] \
                 [--check-file FILE \
                 | --flow SYSMSG FLOW_TABLE [role[+handler]=FILE ...]]"
            );
            return ExitCode::SUCCESS;
        }
        _ => Err("unrecognized arguments (try --help)".to_string()),
    };
    match result {
        Err(e) => {
            eprintln!("neutrino-lint: error: {e}");
            ExitCode::from(2)
        }
        Ok(mut findings) => {
            findings.sort_by(|a, b| {
                (&a.file, a.line, &a.rule, &a.message).cmp(&(&b.file, b.line, &b.rule, &b.message))
            });
            if json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&findings).expect("findings serialize")
                );
            } else if findings.is_empty() {
                println!("neutrino-lint: clean");
            } else {
                for f in &findings {
                    println!("{}", f.render());
                }
                println!("neutrino-lint: {} finding(s)", findings.len());
            }
            if findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

fn workspace(graph_out: Option<&str>) -> Result<Vec<Finding>, String> {
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let root = neutrino_lint::find_workspace_root(&cwd)
        .ok_or_else(|| "not inside a cargo workspace".to_string())?;
    let (graph, findings) = neutrino_lint::lint_workspace_full(&root)?;
    if let Some(out) = graph_out {
        write_graph(out, &graph)?;
    }
    Ok(findings)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(Path::new(path)).map_err(|e| format!("{path}: {e}"))
}

fn write_graph(out: &str, graph: &flow::FlowGraph) -> Result<(), String> {
    if out == "-" {
        print!("{}", graph.to_json());
        Ok(())
    } else {
        std::fs::write(Path::new(out), graph.to_json()).map_err(|e| format!("{out}: {e}"))
    }
}

fn check_file(path: &str) -> Result<Vec<Finding>, String> {
    Ok(neutrino_lint::lint_source(path, &read(path)?))
}

/// `--flow SYSMSG TABLE [role[+handler]=FILE ...]`: run the protocol-flow
/// rules over an explicit fixture set. Each spec names the role the file
/// belongs to (`cta`, `cpf`, `upf`, `uepop`, `harness`, or `-` for none);
/// a `+handler` suffix marks it as a registered handler file whose
/// `fn handle` match arms are checked.
fn flow_mode(
    sysmsg: &str,
    table: &str,
    specs: &[String],
    graph_out: Option<&str>,
) -> Result<Vec<Finding>, String> {
    let sysmsg_src = read(sysmsg)?;
    let table_src = read(table)?;
    let mut files = Vec::new();
    for spec in specs {
        let (head, path) = spec
            .split_once('=')
            .ok_or_else(|| format!("bad --flow spec `{spec}` (want role[+handler]=FILE)"))?;
        let (role, handler) = match head.strip_suffix("+handler") {
            Some(r) => (r, true),
            None => (head, false),
        };
        if role != "-" && !flow::ROLE_NAMES.contains(&role) {
            return Err(format!("unknown role `{role}` in --flow spec `{spec}`"));
        }
        files.push(flow::FlowFile {
            label: path.to_string(),
            src: read(path)?,
            role: (role != "-").then(|| role.to_string()),
            handler,
        });
    }
    let (graph, findings) =
        neutrino_lint::lint_flow_fixture((sysmsg, &sysmsg_src), (table, &table_src), &files);
    if let Some(out) = graph_out {
        write_graph(out, &graph)?;
    }
    Ok(findings)
}
