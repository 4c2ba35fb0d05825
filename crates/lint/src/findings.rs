//! Finding and suppression machinery shared by both rule families.
//!
//! The one suppression channel is an inline
//! `// lint-allow(<rule>): <reason>` comment, which suppresses a finding of
//! `<rule>` on the same line or the next code line — every suppression
//! carries its reason next to the code it excuses.
//!
//! A suppression that suppresses nothing is itself reported
//! (`stale-allow`): the contract tightens monotonically.

use crate::lexer::Comment;
use serde::Serialize;

/// One lint finding.
#[derive(Debug, Clone, Serialize)]
pub struct Finding {
    /// Path as reported (workspace-relative where possible).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule identifier, e.g. `hash-iter`.
    pub rule: String,
    /// Human-readable message.
    pub message: String,
}

impl Finding {
    /// Render as `file:line: [rule] message`.
    pub fn render(&self) -> String {
        format!("{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// An inline `// lint-allow(rule): reason` comment found in a file.
#[derive(Debug, Clone)]
pub struct InlineAllow {
    /// Rule the comment suppresses.
    pub rule: String,
    /// Justification text after the colon.
    pub reason: String,
    /// Line the comment sits on.
    pub line: u32,
    /// Whether any finding actually matched it (staleness tracking).
    pub used: bool,
}

/// Parse every `lint-allow` comment out of a file's comment channel.
/// Malformed ones (missing rule or missing `: reason`) are reported as
/// findings so they cannot silently fail to suppress.
pub fn parse_inline_allows(file: &str, comments: &[Comment]) -> (Vec<InlineAllow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for c in comments {
        let Some(pos) = c.text.find("lint-allow") else {
            continue;
        };
        let rest = &c.text[pos + "lint-allow".len()..];
        // Only `lint-allow(` is a suppression attempt; a prose mention of
        // "lint-allow" without the paren is just a comment.
        if !rest.trim_start().starts_with('(') {
            continue;
        }
        let ok = (|| {
            let rest = rest.trim_start();
            let rest = rest.strip_prefix('(')?;
            let close = rest.find(')')?;
            let rule = rest[..close].trim().to_string();
            if rule.is_empty() {
                return None;
            }
            let after = rest[close + 1..].trim_start();
            let reason = after.strip_prefix(':')?.trim().to_string();
            if reason.is_empty() {
                return None;
            }
            Some(InlineAllow { rule, reason, line: c.line, used: false })
        })();
        match ok {
            Some(a) => allows.push(a),
            None => bad.push(Finding {
                file: file.to_string(),
                line: c.line,
                rule: "malformed-allow".into(),
                message: "malformed lint-allow comment; expected `// lint-allow(<rule>): <reason>`"
                    .into(),
            }),
        }
    }
    (allows, bad)
}

/// Apply inline allows to `findings` for one file: a finding is suppressed if
/// an allow for its rule sits on the same line or the line directly above.
/// Returns the surviving findings; marks used allows.
pub fn apply_inline_allows(findings: Vec<Finding>, allows: &mut [InlineAllow]) -> Vec<Finding> {
    findings
        .into_iter()
        .filter(|f| {
            for a in allows.iter_mut() {
                if a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line) {
                    a.used = true;
                    return false;
                }
            }
            true
        })
        .collect()
}

/// Report unused inline allows as `stale-allow` findings.
pub fn stale_inline_allows(file: &str, allows: &[InlineAllow]) -> Vec<Finding> {
    allows
        .iter()
        .filter(|a| !a.used)
        .map(|a| Finding {
            file: file.to_string(),
            line: a.line,
            rule: "stale-allow".into(),
            message: format!(
                "lint-allow({}) suppresses nothing here — remove it or fix the rule name",
                a.rule
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn f(file: &str, line: u32, rule: &str) -> Finding {
        Finding { file: file.into(), line, rule: rule.into(), message: "m".into() }
    }

    #[test]
    fn inline_allow_same_and_next_line() {
        let src = "// lint-allow(hash-iter): sorted downstream\nlet x = 1;\nlet y = 2; // lint-allow(wall-clock): calibration\n";
        let lexed = lex(src);
        let (mut allows, bad) = parse_inline_allows("f.rs", &lexed.comments);
        assert!(bad.is_empty());
        assert_eq!(allows.len(), 2);
        let surviving = apply_inline_allows(
            vec![f("f.rs", 2, "hash-iter"), f("f.rs", 3, "wall-clock"), f("f.rs", 2, "net")],
            &mut allows,
        );
        assert_eq!(surviving.len(), 1);
        assert_eq!(surviving[0].rule, "net");
        assert!(stale_inline_allows("f.rs", &allows).is_empty());
    }

    #[test]
    fn stale_and_malformed() {
        let src = "// lint-allow(hash-iter): never fires\n// lint-allow(no-reason)\n";
        let lexed = lex(src);
        let (allows, bad) = parse_inline_allows("f.rs", &lexed.comments);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "malformed-allow");
        let stale = stale_inline_allows("f.rs", &allows);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].rule, "stale-allow");
    }
}
