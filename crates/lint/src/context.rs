//! File classification and suppression markers: which rules apply where.
//!
//! Two layers of context decide whether a rule fires on a token:
//!
//! 1. **File kind**, from the workspace-relative path: integration tests,
//!    examples, benches, the `vp-bench` measurement crate and the
//!    `perfbench` benchmark get the lenient treatment (determinism rules
//!    are about the *detection pipeline*, not about test scaffolding or
//!    timing harnesses).
//! 2. **In-file test regions**: items under a `#[cfg(test)]` /
//!    `#[test]` / `#[bench]` attribute, found when the file is parsed
//!    (`FileModel::in_test` in [`crate::model`]).
//!
//! This module also parses the suppression markers
//! (`// vp-lint: allow(<rule>) — <reason>`) out of comment tokens.

use crate::lexer::{Token, TokenKind};

/// Coarse classification of a source file from its path alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library / binary code in the detection pipeline: all rules apply.
    Library,
    /// Test, example or fixture code: determinism rules do not apply.
    TestLike,
    /// Benchmark code (the `vp-bench` crate and the `perfbench`
    /// benchmark): wall-clock timing is the point, so the lenient
    /// treatment applies.
    BenchLike,
}

/// Classifies a workspace-relative path (forward slashes).
pub fn classify_path(rel: &str) -> FileKind {
    let components: Vec<&str> = rel.split('/').collect();
    if rel.starts_with("crates/bench/")
        || rel.starts_with("perfbench/")
        || components.contains(&"benches")
    {
        return FileKind::BenchLike;
    }
    if components
        .iter()
        .any(|c| matches!(*c, "tests" | "examples" | "fixtures"))
        || components.last().is_some_and(|f| *f == "build.rs")
    {
        return FileKind::TestLike;
    }
    FileKind::Library
}

/// `true` when `rel` is a crate root whose `#![forbid(unsafe_code)]`
/// attribute is mandatory (every `src/lib.rs` in the workspace, including
/// the umbrella crate's).
pub fn is_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"))
}

/// A parsed `vp-lint` suppression marker.
///
/// Syntax: `// vp-lint: allow(rule-a, rule-b) — <justification>`. The
/// justification is mandatory: a bare marker is itself a diagnostic
/// ([`crate::rules::RuleId::BadMarker`]). `—`, `-` or `:` all work as the
/// reason separator. A marker covers its own line and the next line, so
/// it can sit at the end of the offending line or directly above it
/// (including inside a method chain).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Marker {
    /// 1-based line the marker comment starts on.
    pub line: u32,
    /// Rules the marker names (as written; unknown names are reported).
    pub rules: Vec<String>,
    /// The justification text, if a non-empty one was given.
    pub reason: Option<String>,
}

impl Marker {
    /// Whether this marker justifies a `rule` finding on `line`: it names
    /// the rule, carries a reason, and sits on that line or the one above.
    pub fn covers(&self, line: u32, rule: &str) -> bool {
        (self.line == line || self.line + 1 == line)
            && self.reason.is_some()
            && self.rules.iter().any(|r| r == rule)
    }
}

/// Extracts every marker from the comment tokens.
// vp-lint: allow(panic-reachability) — `close` is the byte offset of an ASCII ')' inside the same str, so both slices are in range and on char boundaries
pub fn parse_markers(tokens: &[Token], src: &[u8]) -> Vec<Marker> {
    let mut out = Vec::new();
    for t in tokens {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let text = String::from_utf8_lossy(t.bytes(src));
        // A marker must open the comment (after the `//`/`/*`/doc
        // sigils): prose that merely *mentions* the syntax, like this
        // module's own docs, is not a marker.
        let head = text.trim_start_matches(['/', '!', '*']).trim_start();
        let Some(rest) = head.strip_prefix("vp-lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("allow") else {
            // `vp-lint:` with anything else is a malformed marker; report
            // it as one with no rules so it surfaces as bad-marker.
            out.push(Marker {
                line: t.line,
                rules: Vec::new(),
                reason: None,
            });
            continue;
        };
        let rest = rest.trim_start();
        let (rules, tail) = match rest
            .strip_prefix('(')
            .and_then(|r| r.find(')').map(|close| (&r[..close], &r[close + 1..])))
        {
            Some((inside, tail)) => {
                let rules: Vec<String> = inside
                    .split(',')
                    .map(|r| r.trim().to_string())
                    .filter(|r| !r.is_empty())
                    .collect();
                (rules, tail)
            }
            None => (Vec::new(), rest),
        };
        let reason = tail
            .trim_start()
            .trim_start_matches(['—', '–', '-', ':'])
            .trim()
            .trim_end_matches("*/")
            .trim();
        out.push(Marker {
            line: t.line,
            rules,
            reason: if reason.is_empty() {
                None
            } else {
                Some(reason.to_string())
            },
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn path_classification() {
        assert_eq!(
            classify_path("crates/core/src/confirm.rs"),
            FileKind::Library
        );
        assert_eq!(classify_path("crates/core/tests/x.rs"), FileKind::TestLike);
        assert_eq!(classify_path("tests/end_to_end.rs"), FileKind::TestLike);
        assert_eq!(classify_path("examples/demo.rs"), FileKind::TestLike);
        assert_eq!(
            classify_path("crates/bench/src/bin/b.rs"),
            FileKind::BenchLike
        );
        assert_eq!(
            classify_path("crates/core/benches/b.rs"),
            FileKind::BenchLike
        );
        assert_eq!(
            classify_path("perfbench/src/traced.rs"),
            FileKind::BenchLike
        );
        assert_eq!(
            classify_path("crates/lint/tests/fixtures/wall-clock/bad.rs"),
            FileKind::TestLike
        );
    }

    #[test]
    fn crate_roots() {
        assert!(is_crate_root("src/lib.rs"));
        assert!(is_crate_root("crates/core/src/lib.rs"));
        assert!(!is_crate_root("crates/core/src/confirm.rs"));
        assert!(!is_crate_root("crates/core/src/bin/lib.rs"));
    }

    #[test]
    fn marker_parsing() {
        let src = "// vp-lint: allow(wall-clock) — linter timing only\nlet x = 1;\n// vp-lint: allow(float-ordering)\n";
        let toks = lex(src.as_bytes());
        let m = parse_markers(&toks, src.as_bytes());
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].rules, vec!["wall-clock"]);
        assert_eq!(m[0].reason.as_deref(), Some("linter timing only"));
        assert_eq!(m[1].rules, vec!["float-ordering"]);
        assert_eq!(m[1].reason, None, "missing justification must be visible");
    }

    #[test]
    fn marker_with_two_rules_and_ascii_dash() {
        let src = "// vp-lint: allow(wall-clock, forbidden-panic) - measured, documented\n";
        let toks = lex(src.as_bytes());
        let m = parse_markers(&toks, src.as_bytes());
        assert_eq!(m[0].rules.len(), 2);
        assert_eq!(m[0].reason.as_deref(), Some("measured, documented"));
        assert!(m[0].covers(1, "forbidden-panic") && m[0].covers(2, "wall-clock"));
        assert!(!m[0].covers(3, "wall-clock") && !m[0].covers(1, "float-ordering"));
    }
}
