//! The sans-IO determinism contract.
//!
//! Applied to the non-test code of the sans-IO protocol crates. Bans the
//! ambient-environment escape hatches (`std::time::{Instant,SystemTime}`,
//! `std::thread`, `std::net`, `std::env`, `thread_rng`/`from_entropy`) and —
//! the class behind the PR 2/PR 3 failover bugs — flags iteration over
//! `HashMap`/`HashSet` values, which yields a per-process-random order.
//! Deterministic alternatives: `BTreeMap`/`BTreeSet`, or a helper whose name
//! ends in `sorted` (such helpers are never flagged because only the raw
//! std iteration methods are).

use crate::findings::Finding;
use crate::lexer::{TokKind, Token};

/// Iteration/drain methods on std hash collections whose order is random.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Remove the bodies of `#[cfg(test)] mod ... { ... }` blocks: tests are
/// allowed to use wall clocks and hash iteration (they assert on their own
/// output and don't feed the simulation).
pub fn strip_test_mods(tokens: &[Token]) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        if is_cfg_test_at(tokens, i) {
            // Skip attribute tokens up to `]`, then expect `mod name {`.
            let mut j = i;
            while j < tokens.len() && tokens[j].text != "]" {
                j += 1;
            }
            j += 1; // past `]`
            if j + 2 < tokens.len()
                && tokens[j].text == "mod"
                && tokens[j + 1].kind == TokKind::Ident
                && tokens[j + 2].text == "{"
            {
                // Skip to the matching close brace.
                let mut depth = 0usize;
                let mut k = j + 2;
                while k < tokens.len() {
                    match tokens[k].text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                i = k + 1;
                continue;
            }
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

/// Is `tokens[i..]` the start of a `#[cfg(test)]` attribute?
fn is_cfg_test_at(tokens: &[Token], i: usize) -> bool {
    let texts: Vec<&str> = tokens[i..].iter().take(7).map(|t| t.text.as_str()).collect();
    texts.len() == 7 && texts == ["#", "[", "cfg", "(", "test", ")", "]"]
}

/// Run the determinism rules over one (already test-stripped) token stream.
pub fn check(file: &str, tokens: &[Token]) -> Vec<Finding> {
    let mut findings = Vec::new();
    banned_paths(file, tokens, &mut findings);
    hash_iteration(file, tokens, &mut findings);
    findings
}

/// Flag the banned `std::` modules and ambient RNG constructors.
fn banned_paths(file: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    let push = |findings: &mut Vec<Finding>, line: u32, rule: &str, msg: String| {
        findings.push(Finding { file: file.into(), line, rule: rule.into(), message: msg });
    };
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind == TokKind::Ident && t.text == "std" && i + 2 < tokens.len() && tokens[i + 1].text == "::"
        {
            let module = tokens[i + 2].text.as_str();
            match module {
                "time" => {
                    // Only Instant/SystemTime are banned (Duration is fine:
                    // it is a value type, not a clock). Look ahead to the end
                    // of the path or use-group for the offending names.
                    let mut j = i + 3;
                    let mut hit: Option<(&str, u32)> = None;
                    while j < tokens.len() && j < i + 24 {
                        match tokens[j].text.as_str() {
                            ";" | "=" | ")" => break,
                            "Instant" | "SystemTime" => {
                                hit = Some((if tokens[j].text == "Instant" {
                                    "std::time::Instant"
                                } else {
                                    "std::time::SystemTime"
                                }, tokens[j].line));
                                break;
                            }
                            _ => j += 1,
                        }
                    }
                    if let Some((what, line)) = hit {
                        push(findings, line, "wall-clock", format!(
                            "{what} reads the host clock; sans-IO crates must take time from the simulation (neutrino_common::Instant)"
                        ));
                    }
                }
                "thread" => push(findings, t.line, "thread", "std::thread in a sans-IO crate; concurrency lives in neutrino-net/bench drivers".into()),
                "net" => push(findings, t.line, "net", "std::net in a sans-IO crate; real sockets live in neutrino-net".into()),
                "env" => push(findings, t.line, "env", "std::env reads ambient process state; thread configuration through SystemConfig instead".into()),
                _ => {}
            }
        }
        if t.kind == TokKind::Ident && (t.text == "thread_rng" || t.text == "from_entropy") {
            push(findings, t.line, "ambient-rng", format!(
                "{} draws from ambient entropy; derive randomness from the experiment seed (SplitMix/StdRng::seed_from_u64)",
                t.text
            ));
        }
        i += 1;
    }
}

/// Flag iteration over `HashMap`/`HashSet`-typed bindings.
///
/// Pass 1 collects binding names whose declared type (field, let, or param)
/// mentions `HashMap`/`HashSet`, or that are initialized from
/// `HashMap::new()`-style constructors. Pass 2 flags `name.iter()` (and the
/// rest of [`ITER_METHODS`]) plus direct `for _ in name` loops over them.
fn hash_iteration(file: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    let mut names: Vec<String> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        if let Some(name) = binding_name_before(tokens, i) {
            if !names.contains(&name) {
                names.push(name);
            }
        }
    }
    if names.is_empty() {
        return;
    }

    let mut flagged: Vec<(u32, String)> = Vec::new();
    let mut push = |line: u32, name: &str, via: &str, findings: &mut Vec<Finding>| {
        let key = (line, name.to_string());
        if flagged.contains(&key) {
            return;
        }
        flagged.push(key);
        findings.push(Finding {
            file: file.into(),
            line,
            rule: "hash-iter".into(),
            message: format!(
                "iteration over hash collection `{name}` ({via}) yields per-process-random order; use BTreeMap/BTreeSet or a `*_sorted` helper"
            ),
        });
    };

    for i in 0..tokens.len() {
        let t = &tokens[i];
        // name . method (
        if t.kind == TokKind::Ident
            && names.contains(&t.text)
            && i + 3 < tokens.len()
            && tokens[i + 1].text == "."
            && tokens[i + 2].kind == TokKind::Ident
            && tokens[i + 3].text == "("
        {
            let m = tokens[i + 2].text.as_str();
            if ITER_METHODS.contains(&m) && !m.ends_with("sorted") {
                push(tokens[i + 2].line, &t.text, &format!(".{m}()"), findings);
            }
        }
        // for pat in [&[mut]] name
        if t.kind == TokKind::Ident && t.text == "in" && i > 0 {
            // Confirm a `for` opened this loop header within a few tokens back.
            let start = i.saturating_sub(8);
            let is_for = tokens[start..i].iter().any(|p| p.text == "for");
            if is_for {
                let mut j = i + 1;
                while j < tokens.len() && (tokens[j].text == "&" || tokens[j].text == "mut") {
                    j += 1;
                }
                // `for k in self.field` loops: step over the `self .` prefix.
                if j + 1 < tokens.len() && tokens[j].text == "self" && tokens[j + 1].text == "." {
                    j += 2;
                }
                if j < tokens.len()
                    && tokens[j].kind == TokKind::Ident
                    && names.contains(&tokens[j].text)
                {
                    // Direct loop only: `for k in map {`. A following `.` is
                    // a method chain and handled above.
                    if j + 1 < tokens.len() && tokens[j + 1].text == "{" {
                        push(tokens[j].line, &tokens[j].text, "for-loop", findings);
                    }
                }
            }
        }
    }
}

/// Given `tokens[i]` == `HashMap`/`HashSet`, walk backwards over the type
/// position to find the binding name (`name: HashMap<...>`, `name: &mut
/// std::collections::HashMap<...>`, or `name = HashMap::new()`).
fn binding_name_before(tokens: &[Token], i: usize) -> Option<String> {
    let mut j = i;
    // Walk back over path/reference noise: `std :: collections ::`, `&`, `mut`.
    while j > 0 {
        let p = &tokens[j - 1];
        let skip = match p.text.as_str() {
            "::" | "&" | "mut" => true,
            _ if p.kind == TokKind::Lifetime => true,
            // An ident is only type-position noise if it is a path segment,
            // i.e. the token we already accepted to its right is `::`.
            _ if p.kind == TokKind::Ident => tokens[j].text == "::",
            _ => false,
        };
        if !skip {
            break;
        }
        j -= 1;
    }
    if j == 0 {
        return None;
    }
    match tokens[j - 1].text.as_str() {
        ":" => {
            // `name :` — the token before the colon is the binding.
            if j >= 2 && tokens[j - 2].kind == TokKind::Ident {
                let name = &tokens[j - 2];
                // Exclude syntactic positions that are not bindings
                // (e.g. `-> HashMap`, `as HashMap`).
                if name.text != "super" && name.text != "crate" {
                    return Some(name.text.clone());
                }
            }
            None
        }
        "=" => {
            // `name = HashMap::new()` or `let mut name = ...`.
            if j >= 2 && tokens[j - 2].kind == TokKind::Ident {
                return Some(tokens[j - 2].text.clone());
            }
            None
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str) -> Vec<Finding> {
        let lexed = lex(src);
        let stripped = strip_test_mods(&lexed.tokens);
        check("t.rs", &stripped)
    }

    #[test]
    fn bans_wall_clock_but_not_duration() {
        let f = run("let t = std::time::Instant::now();\nlet d = std::time::Duration::from_secs(1);\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "wall-clock");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn bans_use_import_of_systemtime() {
        let f = run("use std::time::{Duration, SystemTime};\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "wall-clock");
    }

    #[test]
    fn bans_thread_net_env_rng() {
        let f = run("use std::thread;\nuse std::net::UdpSocket;\nlet h = std::env::var(\"HOME\");\nlet r = thread_rng();\n");
        let rules: Vec<&str> = f.iter().map(|x| x.rule.as_str()).collect();
        assert_eq!(rules, ["thread", "net", "env", "ambient-rng"]);
    }

    #[test]
    fn flags_hash_iteration_by_type() {
        let f = run("struct S { m: HashMap<u32, u32> }\nimpl S { fn f(&self) { for (k, v) in self.m.iter() { let _ = (k, v); } } }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "hash-iter");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn flags_constructor_binding_and_for_loop() {
        let f = run("fn f() { let mut seen = HashSet::new(); seen.insert(1);\nfor x in &seen { use_(x); } }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn btreemap_and_lookups_are_clean() {
        let f = run("struct S { m: BTreeMap<u32, u32>, h: HashMap<u32, u32> }\nimpl S { fn f(&self) -> Option<&u32> { let _ = self.m.iter(); self.h.get(&1) } }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn test_modules_are_exempt() {
        let f = run("struct S;\n#[cfg(test)]\nmod tests {\n  use std::time::Instant;\n  fn f() { let m: HashMap<u32,u32> = HashMap::new(); for x in &m {} }\n}\n");
        assert!(f.is_empty(), "{f:?}");
    }
}
