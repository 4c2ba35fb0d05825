//! The protocol-flow contract.
//!
//! Cross-parses the flow registry (`messages/src/flow.rs`, the `FLOWS`
//! table), the `SysMsg` enum, and every sans-IO source file, and builds the
//! *observed* send/handle graph: each `SysMsg::X` construction routed
//! through a node-output wrapper (`CtaOutput::ToCpf { .. }`,
//! `CpfOutput::ToCta { .. }`, …) or a simulator send
//! (`out.send(cta_node(..), SimMsg::Sys(SysMsg::X ..))` /
//! `inject_at(.., SimMsg::Sys(SysMsg::X ..))`), and each `SysMsg::X` match
//! arm inside the registered `handle()` functions. The observed graph is
//! checked against the declared one:
//!
//! | rule | what it rejects |
//! |---|---|
//! | `flow-table` | a `FLOWS` entry for a nonexistent variant, a variant with no entry, duplicates, empty edge lists, unknown roles |
//! | `flow-undeclared-send` | a send site whose `(src, dst)` role pair is not a declared edge |
//! | `flow-missing-handler` | a declared destination role whose `handle()` has no arm for the variant |
//! | `flow-dead-arm` | a handler arm for a variant that role is never declared to receive |
//! | `flow-orphan` | a variant declared but never sent anywhere, or sent but matched by no handler |
//! | `flow-wildcard` | a silent catch-all (`_ =>` or an irrefutable binding) in a `SysMsg` handler match — make it explicit or carry `// lint-allow(flow-wildcard): reason` |
//!
//! The same analysis emits the deterministic static graph behind
//! `neutrino-lint --flow-graph out.json`, which `explore --flow-coverage`
//! diffs against dynamically witnessed edges.

use crate::determinism;
use crate::findings::Finding;
use crate::lexer::{lex, TokKind, Token};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// Every role name the flow table may use (lower-cased `Role::X` idents).
pub const ROLE_NAMES: &[&str] = &["cta", "cpf", "upf", "uepop", "harness"];

/// One source file handed to the flow pass.
pub struct FlowFile {
    /// Label used in findings (workspace-relative path).
    pub label: String,
    /// File contents.
    pub src: String,
    /// The role whose code this file is, if any (`None` = roleless support
    /// code: codecs, message definitions, the netsim engine, …).
    pub role: Option<String>,
    /// Whether this file carries the role's registered `fn handle`.
    pub handler: bool,
}

/// Workspace classification of a sans-IO source file: `(role, handler)`.
/// CTA/CPF/UPF crates are their role; `uepop.rs` is the UE-population side;
/// the rest of `neutrino-core` (cluster wiring, failure injectors, repro
/// drivers) acts as the test harness / environment role.
pub fn classify(label: &str) -> (Option<&'static str>, bool) {
    match label {
        "crates/cta/src/core.rs" => (Some("cta"), true),
        "crates/cpf/src/core.rs" => (Some("cpf"), true),
        "crates/upf/src/session.rs" => (Some("upf"), true),
        "crates/neutrino-core/src/uepop.rs" => (Some("uepop"), true),
        l if l.starts_with("crates/cta/") => (Some("cta"), false),
        l if l.starts_with("crates/cpf/") => (Some("cpf"), false),
        l if l.starts_with("crates/upf/") => (Some("upf"), false),
        l if l.starts_with("crates/neutrino-core/") => (Some("harness"), false),
        _ => (None, false),
    }
}

/// One declared `(variant, src, dst)` edge of the static graph.
#[derive(Debug, Clone, Serialize, PartialEq, Eq, PartialOrd, Ord)]
pub struct DeclaredEdge {
    /// Variant name, e.g. `StateSync`.
    pub variant: String,
    /// Source role name.
    pub src: String,
    /// Destination role name.
    pub dst: String,
}

/// One observed send site.
#[derive(Debug, Clone, Serialize, PartialEq, Eq, PartialOrd, Ord)]
pub struct SendSite {
    /// Variant name.
    pub variant: String,
    /// Sending role.
    pub src: String,
    /// Destination role.
    pub dst: String,
    /// File the construction sits in.
    pub file: String,
    /// 1-based line of the `SysMsg::X` token.
    pub line: u32,
}

/// One observed handler match arm.
#[derive(Debug, Clone, Serialize, PartialEq, Eq, PartialOrd, Ord)]
pub struct HandlerArm {
    /// Handling role.
    pub role: String,
    /// Variant name.
    pub variant: String,
    /// Handler file.
    pub file: String,
    /// 1-based arm line.
    pub line: u32,
}

/// One catch-all arm in a `SysMsg` handler match.
#[derive(Debug, Clone, Serialize, PartialEq, Eq, PartialOrd, Ord)]
pub struct WildcardArm {
    /// Handling role.
    pub role: String,
    /// Handler file.
    pub file: String,
    /// 1-based arm line.
    pub line: u32,
}

/// The static protocol-flow graph: declared edges plus everything observed
/// in source. All vectors are sorted, so serializing is byte-stable.
#[derive(Debug, Clone, Serialize, Default)]
pub struct FlowGraph {
    /// Declared `(variant, src, dst)` edges from the `FLOWS` table.
    pub declared: Vec<DeclaredEdge>,
    /// Observed send sites.
    pub sends: Vec<SendSite>,
    /// Observed handler arms.
    pub handlers: Vec<HandlerArm>,
    /// Observed catch-all arms (audited or not).
    pub wildcards: Vec<WildcardArm>,
}

/// A parsed `FLOWS` table entry.
struct TableEntry {
    variant: String,
    edges: Vec<(String, String)>,
    line: u32,
}

/// Run the flow-contract checks and build the static graph.
///
/// `sysmsg` and `table` are `(label, source)` pairs for the enum and the
/// registry; `files` is every sans-IO source file (roles pre-assigned via
/// [`classify`] or explicitly, for fixtures). Returned findings are **raw**:
/// the caller applies inline-allow suppression per file (see
/// `lint_workspace_full`), so `flow-wildcard` sites can carry an audited
/// `// lint-allow(flow-wildcard): reason`.
pub fn check(
    sysmsg: (&str, &str),
    table: (&str, &str),
    files: &[FlowFile],
) -> (FlowGraph, Vec<Finding>) {
    let mut findings = Vec::new();
    let mut graph = FlowGraph::default();

    let sys_tokens = determinism::strip_test_mods(&lex(sysmsg.1).tokens);
    let variants = enum_variants(&sys_tokens, "SysMsg");
    if variants.is_empty() {
        findings.push(finding(sysmsg.0, 1, "flow-table", "could not find `enum SysMsg` — flow contract unverifiable".into()));
        return (graph, findings);
    }

    let table_tokens = determinism::strip_test_mods(&lex(table.1).tokens);
    let entries = parse_table(&table_tokens);
    if entries.is_empty() {
        findings.push(finding(table.0, 1, "flow-table", "could not find any `FlowSpec { variant: \"..\", edges: &[..] }` entries — flow contract unverifiable".into()));
        return (graph, findings);
    }

    // --- Table sanity: totality both ways, uniqueness, edges, role names.
    let variant_names: BTreeSet<&str> = variants.iter().map(|v| v.name.as_str()).collect();
    let mut seen = BTreeSet::new();
    for e in &entries {
        if !variant_names.contains(e.variant.as_str()) {
            findings.push(finding(table.0, e.line, "flow-table", format!("FLOWS declares `{}`, which is not a SysMsg variant", e.variant)));
        }
        if !seen.insert(e.variant.as_str()) {
            findings.push(finding(table.0, e.line, "flow-table", format!("duplicate FLOWS entry for `{}`", e.variant)));
        }
        if e.edges.is_empty() {
            findings.push(finding(table.0, e.line, "flow-table", format!("FLOWS entry for `{}` declares no edges", e.variant)));
        }
        for (src, dst) in &e.edges {
            for role in [src, dst] {
                if !ROLE_NAMES.contains(&role.as_str()) {
                    findings.push(finding(table.0, e.line, "flow-table", format!("FLOWS entry for `{}` names unknown role `{role}`", e.variant)));
                }
            }
        }
    }
    for v in &variants {
        if !seen.contains(v.name.as_str()) {
            findings.push(finding(
                sysmsg.0,
                v.line,
                "flow-table",
                format!("SysMsg::{} has no FLOWS entry in {} — declare its allowed (src, dst) roles", v.name, table.0),
            ));
        }
    }

    // --- Observed graph from the source files. `present` records, per role
    // with a registered handler file, where its `fn handle` starts (the
    // anchor line for missing-arm reports).
    let mut present: BTreeMap<String, (String, u32)> = BTreeMap::new();
    for f in files {
        let tokens = determinism::strip_test_mods(&lex(&f.src).tokens);
        extract_sends(&tokens, f, &mut graph.sends);
        if f.handler {
            let role = f.role.as_deref().unwrap_or("?");
            if let Some((open, close)) = fn_body(&tokens, "handle") {
                let handle_line = tokens[open].line;
                collect_arms(&tokens[open..=close], role, f, &mut graph.handlers, &mut graph.wildcards);
                present.insert(role.to_string(), (f.label.clone(), handle_line));
            } else {
                findings.push(finding(&f.label, 1, "flow-table", format!("registered handler file for role `{role}` has no `fn handle`")));
            }
        }
    }
    graph.sends.sort();
    graph.sends.dedup();
    graph.handlers.sort();
    graph.handlers.dedup();
    graph.wildcards.sort();
    graph.wildcards.dedup();
    for e in &entries {
        for (src, dst) in &e.edges {
            graph.declared.push(DeclaredEdge { variant: e.variant.clone(), src: src.clone(), dst: dst.clone() });
        }
    }
    graph.declared.sort();

    let by_variant: BTreeMap<&str, &TableEntry> =
        entries.iter().map(|e| (e.variant.as_str(), e)).collect();

    // --- flow-undeclared-send.
    for s in &graph.sends {
        let Some(entry) = by_variant.get(s.variant.as_str()) else {
            // Variant missing from the table entirely — flow-table already
            // fired (or the variant doesn't exist; the compiler owns that).
            continue;
        };
        if !entry.edges.iter().any(|(a, b)| a == &s.src && b == &s.dst) {
            let declared: Vec<String> =
                entry.edges.iter().map(|(a, b)| format!("{a}→{b}")).collect();
            findings.push(finding(
                &s.file,
                s.line,
                "flow-undeclared-send",
                format!(
                    "SysMsg::{} sent {}→{} but the flow table declares only [{}]",
                    s.variant,
                    s.src,
                    s.dst,
                    declared.join(", ")
                ),
            ));
        }
    }

    // --- flow-missing-handler: every declared destination with a registered
    // handler file must match the variant.
    for e in &entries {
        if !variant_names.contains(e.variant.as_str()) {
            continue; // flow-table already fired; don't demand handlers for it
        }
        let dsts: BTreeSet<&str> = e.edges.iter().map(|(_, d)| d.as_str()).collect();
        for dst in dsts {
            let Some((file, line)) = present.get(dst) else { continue };
            let handled = graph.handlers.iter().any(|h| h.role == dst && h.variant == e.variant);
            if !handled {
                findings.push(finding(
                    file,
                    *line,
                    "flow-missing-handler",
                    format!(
                        "role `{dst}` is a declared destination of SysMsg::{} ({}:{}) but its handle() has no arm for it",
                        e.variant, table.0, e.line
                    ),
                ));
            }
        }
    }

    // --- flow-dead-arm: arms for variants the role never receives.
    for h in &graph.handlers {
        let dead = match by_variant.get(h.variant.as_str()) {
            Some(e) => !e.edges.iter().any(|(_, d)| d == &h.role),
            // Arm for a variant the table (and possibly the enum) does not
            // know — dead by definition.
            None => true,
        };
        if dead {
            findings.push(finding(
                &h.file,
                h.line,
                "flow-dead-arm",
                format!("handler arm for SysMsg::{} in role `{}`, which is never a declared destination for it", h.variant, h.role),
            ));
        }
    }

    // --- flow-orphan: declared but never sent; sent but matched nowhere.
    let sent: BTreeSet<&str> = graph.sends.iter().map(|s| s.variant.as_str()).collect();
    let handled: BTreeSet<&str> = graph.handlers.iter().map(|h| h.variant.as_str()).collect();
    for e in &entries {
        if !variant_names.contains(e.variant.as_str()) {
            continue; // flow-table already fired
        }
        if !sent.contains(e.variant.as_str()) {
            findings.push(finding(
                table.0,
                e.line,
                "flow-orphan",
                format!("SysMsg::{} is declared but no send site constructs it — a dead protocol path", e.variant),
            ));
        }
    }
    for s in &graph.sends {
        let missing_already = by_variant
            .get(s.variant.as_str())
            .is_some_and(|e| e.edges.iter().any(|(_, d)| present.contains_key(d.as_str())));
        if !handled.contains(s.variant.as_str()) && !missing_already {
            findings.push(finding(
                &s.file,
                s.line,
                "flow-orphan",
                format!("SysMsg::{} is sent here but no registered handler matches it", s.variant),
            ));
        }
    }

    // --- flow-wildcard.
    for w in &graph.wildcards {
        findings.push(finding(
            &w.file,
            w.line,
            "flow-wildcard",
            format!(
                "silent catch-all arm in a SysMsg handler match (role `{}`) — make the expected variants explicit, count the rest, or audit with `// lint-allow(flow-wildcard): reason`",
                w.role
            ),
        ));
    }

    (graph, findings)
}

impl FlowGraph {
    /// Serialize to pretty JSON (trailing newline, byte-stable).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("flow graph serializes");
        s.push('\n');
        s
    }
}

fn finding(file: &str, line: u32, rule: &str, message: String) -> Finding {
    Finding { file: file.into(), line, rule: rule.into(), message }
}

/// A parsed enum variant.
struct Variant {
    name: String,
    line: u32,
}

/// Extract the variant names of `enum <name> { ... }`.
fn enum_variants(tokens: &[Token], name: &str) -> Vec<Variant> {
    let mut out = Vec::new();
    let Some(start) = tokens.windows(2).position(|w| w[0].text == "enum" && w[1].text == name)
    else {
        return out;
    };
    // Find the opening brace of the enum body.
    let mut i = start + 2;
    while i < tokens.len() && tokens[i].text != "{" {
        i += 1;
    }
    let mut depth = 0usize;
    let mut expecting_variant = true;
    while i < tokens.len() {
        match tokens[i].text.as_str() {
            "{" | "(" | "[" => {
                depth += 1;
                // Depth 2+ is a variant's payload; names only live at depth 1.
            }
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "," if depth == 1 => expecting_variant = true,
            "#" if depth == 1 => {
                // Skip a variant attribute `#[...]`.
                if i + 1 < tokens.len() && tokens[i + 1].text == "[" {
                    let mut d = 0usize;
                    i += 1;
                    while i < tokens.len() {
                        match tokens[i].text.as_str() {
                            "[" => d += 1,
                            "]" => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        i += 1;
                    }
                }
            }
            _ => {
                if depth == 1 && expecting_variant && tokens[i].kind == TokKind::Ident {
                    out.push(Variant { name: tokens[i].text.clone(), line: tokens[i].line });
                    expecting_variant = false;
                }
            }
        }
        i += 1;
    }
    out
}

/// Locate a `fn <name>` and return its brace-matched body token range.
fn fn_body(tokens: &[Token], name: &str) -> Option<(usize, usize)> {
    let start = tokens.windows(2).position(|w| w[0].text == "fn" && w[1].text == name)?;
    let mut i = start + 2;
    while i < tokens.len() && tokens[i].text != "{" {
        i += 1;
    }
    let open = i;
    let mut depth = 0usize;
    while i < tokens.len() {
        match tokens[i].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, i));
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Parse `FlowSpec { variant: "X", edges: &[(Role::A, Role::B), ...] }`
/// entries out of the registry source. Struct/impl declarations of
/// `FlowSpec` itself are skipped.
fn parse_table(tokens: &[Token]) -> Vec<TableEntry> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].text != "FlowSpec"
            || (i > 0 && matches!(tokens[i - 1].text.as_str(), "struct" | "impl" | "for"))
        {
            i += 1;
            continue;
        }
        // Find the opening brace of the literal.
        let mut j = i + 1;
        if j >= tokens.len() || tokens[j].text != "{" {
            i += 1;
            continue;
        }
        let open = j;
        let mut depth = 0usize;
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let body = &tokens[open..j.min(tokens.len())];
        let mut entry = TableEntry { variant: String::new(), edges: Vec::new(), line: tokens[i].line };
        let mut k = 0;
        while k < body.len() {
            if body[k].text == "variant"
                && k + 2 < body.len()
                && body[k + 1].text == ":"
                && body[k + 2].kind == TokKind::Lit
            {
                entry.variant = unquote(&body[k + 2].text);
                k += 3;
                continue;
            }
            // ( Role :: A , Role :: B )
            if body[k].text == "("
                && k + 7 < body.len()
                && body[k + 1].text == "Role"
                && body[k + 2].text == "::"
                && body[k + 4].text == ","
                && body[k + 5].text == "Role"
                && body[k + 6].text == "::"
            {
                entry
                    .edges
                    .push((body[k + 3].text.to_lowercase(), body[k + 7].text.to_lowercase()));
                k += 8;
                continue;
            }
            k += 1;
        }
        if !entry.variant.is_empty() {
            out.push(entry);
        }
        i = j + 1;
    }
    out
}

/// Strip the quotes off a string literal token.
fn unquote(lit: &str) -> String {
    lit.trim_matches('"').to_string()
}

/// Output-wrapper conventions: `Wrapper::Variant` implies `(src, dst)`.
const WRAPPERS: &[(&str, &str, &str, &str)] = &[
    ("CtaOutput", "ToCpf", "cta", "cpf"),
    ("CtaOutput", "ToBs", "cta", "uepop"),
    ("CpfOutput", "ToCta", "cpf", "cta"),
    ("CpfOutput", "ToCpf", "cpf", "cpf"),
    ("CpfOutput", "ToUpf", "cpf", "upf"),
    ("UpfOutput", "ToCta", "upf", "cta"),
    ("UpfOutput", "ToCpf", "upf", "cpf"),
];

/// Simulator address helpers: `fn_name` implies the destination role.
const NODE_FNS: &[(&str, &str)] = &[
    ("cta_node", "cta"),
    ("cpf_node", "cpf"),
    ("upf_node", "upf"),
    ("UEPOP_NODE", "uepop"),
];

/// How far back to look from a `SimMsg::Sys(SysMsg::X` construction for the
/// address expression of the enclosing `send`/`inject_at` call.
const SEND_LOOKBACK: usize = 16;

/// Extract observed send sites from one file's token stream.
fn extract_sends(tokens: &[Token], f: &FlowFile, out: &mut Vec<SendSite>) {
    for i in 0..tokens.len() {
        // (a) Output-wrapper constructions: `CtaOutput::ToCpf { .., msg:
        // SysMsg::X .. }`. Pattern matches over wrappers bind `msg` without
        // naming a variant, so requiring `SysMsg::` inside the braces keeps
        // this to construction sites.
        if tokens[i].kind == TokKind::Ident
            && i + 3 < tokens.len()
            && tokens[i + 1].text == "::"
            && tokens[i + 3].text == "{"
        {
            if let Some(&(_, _, src, dst)) = WRAPPERS
                .iter()
                .find(|(w, v, _, _)| tokens[i].text == *w && tokens[i + 2].text == *v)
            {
                let mut depth = 0usize;
                let mut j = i + 3;
                while j < tokens.len() {
                    match tokens[j].text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        "SysMsg"
                            if j + 2 < tokens.len()
                                && tokens[j + 1].text == "::"
                                && tokens[j + 2].kind == TokKind::Ident =>
                        {
                            out.push(SendSite {
                                variant: tokens[j + 2].text.clone(),
                                src: src.to_string(),
                                dst: dst.to_string(),
                                file: f.label.clone(),
                                line: tokens[j].line,
                            });
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
        }
        // (b) Direct simulator sends: `out.send(cta_node(x), SimMsg::Sys(
        // SysMsg::X ..))` and `inject_at(.., upf_node(y), SimMsg::Sys(..))`.
        // The address helper within the lookback window resolves the
        // destination; without one this is a match pattern, not a send.
        if tokens[i].text == "SimMsg"
            && i + 6 < tokens.len()
            && tokens[i + 1].text == "::"
            && tokens[i + 2].text == "Sys"
            && tokens[i + 3].text == "("
            && tokens[i + 4].text == "SysMsg"
            && tokens[i + 5].text == "::"
            && tokens[i + 6].kind == TokKind::Ident
        {
            let Some(src) = f.role.as_deref() else { continue };
            let start = i.saturating_sub(SEND_LOOKBACK);
            let dst = tokens[start..i]
                .iter()
                .rev()
                .find_map(|t| NODE_FNS.iter().find(|(n, _)| t.text == *n).map(|(_, d)| *d));
            if let Some(dst) = dst {
                out.push(SendSite {
                    variant: tokens[i + 6].text.clone(),
                    src: src.to_string(),
                    dst: dst.to_string(),
                    file: f.label.clone(),
                    line: tokens[i + 4].line,
                });
            }
        }
    }
}

/// One parsed match arm: pattern token range plus body token range.
struct Arm {
    pat: (usize, usize),
    body: (usize, usize),
    line: u32,
}

/// Parse the arms of the `match` starting at `tokens[m]` (the `match`
/// keyword). Returns the arms and the index just past the match block.
fn parse_match(tokens: &[Token], m: usize) -> (Vec<Arm>, usize) {
    // The match body is the first `{` at paren/bracket depth 0.
    let mut i = m + 1;
    let mut pdepth = 0i32;
    while i < tokens.len() {
        match tokens[i].text.as_str() {
            "(" | "[" => pdepth += 1,
            ")" | "]" => pdepth -= 1,
            "{" if pdepth == 0 => break,
            _ => {}
        }
        i += 1;
    }
    if i >= tokens.len() {
        return (Vec::new(), tokens.len());
    }
    let mut arms = Vec::new();
    i += 1; // past `{`
    loop {
        // Skip separators; detect end of match.
        while i < tokens.len() && tokens[i].text == "," {
            i += 1;
        }
        if i >= tokens.len() || tokens[i].text == "}" {
            return (arms, i.saturating_add(1));
        }
        // Pattern: up to `=>` at depth 0 (lexed as `=` `>`).
        let pat_start = i;
        let mut depth = 0i32;
        while i < tokens.len() {
            match tokens[i].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "=" if depth == 0 && i + 1 < tokens.len() && tokens[i + 1].text == ">" => break,
                _ => {}
            }
            i += 1;
        }
        if i >= tokens.len() {
            return (arms, tokens.len());
        }
        let pat_end = i; // exclusive
        i += 2; // past `=` `>`
        // Body: a block, or an expression up to `,` / the match's `}`.
        let body_start = i;
        let body_end = if i < tokens.len() && tokens[i].text == "{" {
            let mut d = 0i32;
            while i < tokens.len() {
                match tokens[i].text.as_str() {
                    "{" => d += 1,
                    "}" => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            i += 1; // past closing `}`
            i
        } else {
            let mut d = 0i32;
            while i < tokens.len() {
                match tokens[i].text.as_str() {
                    "(" | "[" | "{" => d += 1,
                    ")" | "]" => d -= 1,
                    "}" if d == 0 => break, // match block closes
                    "}" => d -= 1,
                    "," if d == 0 => break,
                    _ => {}
                }
                i += 1;
            }
            i
        };
        arms.push(Arm {
            pat: (pat_start, pat_end),
            body: (body_start, body_end),
            line: tokens[pat_start].line,
        });
    }
}

/// Recursively collect `SysMsg` handler arms and catch-all arms from every
/// `match` in `tokens` (a `handle()` body). A match participates if at least
/// one arm pattern names `SysMsg::`.
fn collect_arms(
    tokens: &[Token],
    role: &str,
    f: &FlowFile,
    handlers: &mut Vec<HandlerArm>,
    wildcards: &mut Vec<WildcardArm>,
) {
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].text != "match" {
            i += 1;
            continue;
        }
        let (arms, end) = parse_match(tokens, i);
        let involves_sysmsg = arms.iter().any(|a| {
            tokens[a.pat.0..a.pat.1]
                .windows(2)
                .any(|w| w[0].text == "SysMsg" && w[1].text == "::")
        });
        for a in &arms {
            let pat = &tokens[a.pat.0..a.pat.1];
            if involves_sysmsg {
                for k in 0..pat.len() {
                    if pat[k].text == "SysMsg"
                        && k + 2 < pat.len()
                        && pat[k + 1].text == "::"
                        && pat[k + 2].kind == TokKind::Ident
                    {
                        handlers.push(HandlerArm {
                            role: role.to_string(),
                            variant: pat[k + 2].text.clone(),
                            file: f.label.clone(),
                            line: a.line,
                        });
                    }
                }
                if pat.len() == 1 && (pat[0].text == "_" || pat[0].kind == TokKind::Ident) {
                    wildcards.push(WildcardArm {
                        role: role.to_string(),
                        file: f.label.clone(),
                        line: a.line,
                    });
                }
            }
            // Nested matches inside the arm body.
            collect_arms(&tokens[a.body.0..a.body.1.min(tokens.len())], role, f, handlers, wildcards);
        }
        i = end.max(i + 1);
    }
}
