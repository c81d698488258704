//! Drives the fixture corpus under `tests/fixtures/`: one directory per
//! rule, each holding at least two `bad_*.rs` cases and one `allowed.rs`.
//! Every fixture runs through the one engine, [`vp_lint::lint`], so every
//! rule sees every fixture; a finding of another rule is annotated too.
//!
//! Expectation syntax inside fixtures: a trailing `//~ <rule>` comment
//! pins a diagnostic to its own line, `//~^ <rule>` to the line above
//! (needed where the trailing text would be swallowed by a marker's
//! justification, or where a line carries two findings). A `bad_*.rs`
//! file must produce *exactly* its annotated active findings; an
//! `allowed.rs` file must produce none, and every marker it carries must
//! have suppressed something.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use vp_lint::{lint, RuleId};

/// Lint path assigned to a fixture: the crate-root attribute check only
/// fires on `src/lib.rs` paths; everything else pretends to be a module
/// inside a library crate.
fn pretend_path(file_name: &str) -> &'static str {
    if file_name.contains("missing_forbid") {
        "crates/demo/src/lib.rs"
    } else {
        "crates/demo/src/engine.rs"
    }
}

/// Extracts `(rule, line)` expectations from the annotation comments.
fn expectations(src: &str) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        let line_no = (i + 1) as u32;
        let Some(pos) = line.find("//~") else {
            continue;
        };
        let rest = &line[pos + 3..];
        let (rest, at) = match rest.strip_prefix('^') {
            Some(r) => (r, line_no - 1),
            None => (rest, line_no),
        };
        let rule = rest.split_whitespace().next().unwrap_or_default();
        assert!(
            RuleId::from_name(rule).is_some(),
            "fixture annotation names unknown rule `{rule}`"
        );
        out.push((rule.to_string(), at));
    }
    out.sort();
    out
}

#[test]
fn fixture_corpus_matches_expectations() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    // rule-dir name -> (bad files, allowed files)
    let mut coverage: BTreeMap<String, (usize, usize)> = BTreeMap::new();

    let mut dirs: Vec<_> = fs::read_dir(&root)
        .expect("fixture root")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    assert!(!dirs.is_empty(), "fixture corpus is empty");

    for dir in dirs {
        let rule_name = dir
            .file_name()
            .expect("dir name")
            .to_string_lossy()
            .into_owned();
        assert!(
            RuleId::from_name(&rule_name).is_some(),
            "fixture directory `{rule_name}` is not a rule"
        );
        let mut files: Vec<_> = fs::read_dir(&dir)
            .expect("rule dir")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "rs"))
            .collect();
        files.sort();

        for file in files {
            let file_name = file
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            let src = fs::read_to_string(&file).expect("fixture readable");
            let expected = expectations(&src);
            let report = lint(&[(
                pretend_path(&file_name).to_string(),
                src.clone().into_bytes(),
            )]);
            let mut active: Vec<(String, u32)> = report
                .diagnostics
                .iter()
                .filter(|d| !d.allowed)
                .map(|d| (d.rule.name().to_string(), d.line))
                .collect();
            active.sort();

            let slot = coverage.entry(rule_name.clone()).or_insert((0, 0));
            if file_name.starts_with("bad") {
                slot.0 += 1;
                assert!(
                    expected.iter().any(|(r, _)| *r == rule_name),
                    "{rule_name}/{file_name}: no expectation for its own rule"
                );
                assert_eq!(
                    active, expected,
                    "{rule_name}/{file_name}: active findings differ from annotations"
                );
            } else {
                assert!(
                    file_name.starts_with("allowed"),
                    "{rule_name}/{file_name}: fixtures are bad_*.rs or allowed*.rs"
                );
                slot.1 += 1;
                assert!(
                    active.is_empty(),
                    "{rule_name}/{file_name}: allowed fixture has active findings: {active:?}"
                );
                assert!(
                    report.stale_markers.is_empty(),
                    "{rule_name}/{file_name}: markers that suppressed nothing: {:?}",
                    report.stale_markers
                );
                if src.contains("vp-lint: allow(") {
                    assert!(
                        report
                            .diagnostics
                            .iter()
                            .any(|d| d.allowed && d.reason.is_some()),
                        "{rule_name}/{file_name}: marker present but nothing was suppressed"
                    );
                }
            }
        }
    }

    for rule in vp_lint::ALL_RULES {
        let (bad, allowed) = coverage.get(rule.name()).copied().unwrap_or((0, 0));
        assert!(
            bad >= 2 && allowed >= 1,
            "rule `{}` needs >=2 bad and >=1 allowed fixtures, has {bad}/{allowed}",
            rule.name()
        );
    }
}

#[test]
fn fixture_directory_is_exempt_from_workspace_scan() {
    let marker = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/.vp-lint-fixtures");
    assert!(
        marker.is_file(),
        "the {} marker keeps the deliberately-bad corpus out of the workspace scan",
        vp_lint::SKIP_MARKER
    );
}
