//! Pinned regression cases.
//!
//! When the explorer finds a violation, it shrinks the plan and writes a
//! [`CorpusCase`] into `crates/check/corpus/`. The contract for files in
//! that directory: on a **healthy** tree every case replays *clean* and
//! *byte-identically* (same [`Fingerprint`] on every run) — the recorded
//! `violation` documents what the case caught when it was pinned, on the
//! then-broken tree. The corpus test replays every pinned case; the
//! `explore --replay FILE` flag replays one interactively.

use crate::run::{Fingerprint, ViolationRecord};
use crate::scenario::CasePlan;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// One pinned regression case. Like [`CasePlan`], it rejects a field it
/// does not name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CorpusCase {
    /// The (shrunk) plan that reproduced the violation.
    pub plan: CasePlan,
    /// The first violation observed when the case was pinned — what the
    /// then-broken build did, kept for the human reading the file.
    pub violation: Option<ViolationRecord>,
    /// The broken build's fingerprint at pin time (documentation; a fixed
    /// tree produces a different one).
    pub fingerprint: Fingerprint,
}

/// The in-tree corpus directory (`crates/check/corpus/`).
pub fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// Canonical file name for a case.
pub fn case_filename(plan: &CasePlan) -> String {
    format!("{}-seed{}.json", plan.scenario, plan.seed)
}

/// Writes a case into `dir`; returns the path written.
pub fn save(dir: &Path, case: &CorpusCase) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(case_filename(&case.plan));
    let json = serde_json::to_string_pretty(case).expect("case serializes");
    std::fs::write(&path, json + "\n")?;
    Ok(path)
}

/// Loads one case file.
pub fn load(path: &Path) -> Result<CorpusCase, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Loads every `.json` case in `dir`, sorted by file name (deterministic
/// replay order). A missing directory is an empty corpus.
pub fn load_dir(dir: &Path) -> Result<Vec<(PathBuf, CorpusCase)>, String> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return Ok(Vec::new()),
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().map(|x| x == "json").unwrap_or(false))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| load(&p).map(|c| (p, c)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Fingerprint;
    use crate::scenario::Scenario;

    #[test]
    fn save_load_round_trips() {
        let case = CorpusCase {
            plan: Scenario::by_name("chaos").unwrap().plan(99),
            violation: Some(ViolationRecord {
                invariant: "consistency".into(),
                at_us: 123_456,
                ue: Some(7),
                detail: "no live copy; CTA expects procedure 3".into(),
            }),
            fingerprint: Fingerprint {
                violations: 1,
                ..Fingerprint::default()
            },
        };
        let dir = std::env::temp_dir().join(format!(
            "neutrino-check-corpus-{}",
            std::process::id()
        ));
        let path = save(&dir, &case).unwrap();
        assert_eq!(path.file_name().unwrap(), "chaos-seed99.json");
        let loaded = load(&path).unwrap();
        assert_eq!(loaded, case);
        let all = load_dir(&dir).unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].1, case);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_dir_is_empty_corpus() {
        let dir = std::env::temp_dir().join("neutrino-check-no-such-dir");
        assert!(load_dir(&dir).unwrap().is_empty());
    }
}
