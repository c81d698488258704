//! Rendering: rustc-style human diagnostics, machine JSON, and the
//! run-summary document tracked in `results/BENCH_lint.json`.
//!
//! The JSON writer is hand-rolled (the crate has no dependencies); it
//! emits a stable field order so reports diff cleanly across PRs.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::analyses::{Coverage, StaleMarker};
use crate::rules::{Diagnostic, RuleId, ALL_RULES};
use crate::Report;

/// Escapes a string for a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Aggregate of one lint run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Summary {
    /// `.rs` files scanned.
    pub files_scanned: usize,
    /// Wall time of the scan, milliseconds (reported by the CLI; the
    /// library itself never reads the clock).
    pub wall_time_ms: u128,
    /// Per rule: `(findings, of which allowed by marker)`.
    pub per_rule: BTreeMap<&'static str, (usize, usize)>,
    /// Each cross-file analysis' coverage counters, by rule name.
    pub analyses: Vec<(&'static str, Coverage)>,
    /// Markers that suppressed nothing anywhere — reported as warnings,
    /// they never affect the exit code.
    pub stale_markers: Vec<StaleMarker>,
}

impl Summary {
    /// Tallies a run: findings per rule, coverage, stale markers (wall
    /// time left at 0; the CLI fills it in).
    pub fn of(report: &Report) -> Summary {
        let mut per_rule: BTreeMap<&'static str, (usize, usize)> =
            ALL_RULES.iter().map(|r| (r.name(), (0, 0))).collect();
        for d in &report.diagnostics {
            let entry = per_rule.entry(d.rule.name()).or_default();
            entry.0 += 1;
            if d.allowed {
                entry.1 += 1;
            }
        }
        Summary {
            files_scanned: report.files_scanned,
            wall_time_ms: 0,
            per_rule,
            analyses: report
                .coverage
                .iter()
                .map(|(rule, coverage)| (rule.name(), coverage.clone()))
                .collect(),
            stale_markers: report.stale_markers.clone(),
        }
    }

    /// Findings not covered by a marker — what makes the exit code
    /// non-zero.
    pub fn active(&self) -> usize {
        self.per_rule.values().map(|(f, a)| f - a).sum()
    }

    /// Marker-suppressed findings.
    pub fn allowed(&self) -> usize {
        self.per_rule.values().map(|(_, a)| a).sum()
    }

    /// The summary document (`results/BENCH_lint.json` schema).
    pub fn to_json(&self) -> String {
        let mut rules = String::new();
        for (i, (name, (found, allowed))) in self.per_rule.iter().enumerate() {
            if i > 0 {
                rules.push(',');
            }
            let _ = write!(
                rules,
                "\n    \"{}\": {{\"found\": {found}, \"allowed\": {allowed}}}",
                json_escape(name)
            );
        }
        let mut analyses = String::new();
        for (i, (name, coverage)) in self.analyses.iter().enumerate() {
            if i > 0 {
                analyses.push(',');
            }
            let counters: Vec<String> = coverage
                .iter()
                .map(|(k, v)| format!("\"{}\": {v}", json_escape(k)))
                .collect();
            let _ = write!(
                analyses,
                "\n    \"{}\": {{{}}}",
                json_escape(name),
                counters.join(", ")
            );
        }
        let mut stale = String::new();
        for (i, m) in self.stale_markers.iter().enumerate() {
            if i > 0 {
                stale.push(',');
            }
            let rules_list = m
                .rules
                .iter()
                .map(|r| format!("\"{}\"", json_escape(r)))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = write!(
                stale,
                "\n    {{\"file\": \"{}\", \"line\": {}, \"rules\": [{rules_list}]}}",
                json_escape(&m.path),
                m.line,
            );
        }
        let stale_close = if self.stale_markers.is_empty() {
            "]"
        } else {
            "\n  ]"
        };
        let analyses_close = if self.analyses.is_empty() {
            "}"
        } else {
            "\n  }"
        };
        format!(
            "{{\n  \"schema\": \"vp-lint-summary/3\",\n  \"files_scanned\": {},\n  \
             \"wall_time_ms\": {},\n  \"active\": {},\n  \"allowed\": {},\n  \
             \"rules\": {{{rules}\n  }},\n  \
             \"analyses\": {{{analyses}{analyses_close},\n  \
             \"stale_markers\": [{stale}{stale_close}\n}}\n",
            self.files_scanned,
            self.wall_time_ms,
            self.active(),
            self.allowed(),
        )
    }
}

/// Renders diagnostics rustc-style. Allowed findings are listed (dimly,
/// one line each) only when `show_allowed` is set; active findings always
/// get the full block.
pub fn render_human(diags: &[Diagnostic], summary: &Summary, show_allowed: bool) -> String {
    let mut out = String::new();
    for d in diags {
        if d.allowed {
            if show_allowed {
                let _ = writeln!(
                    out,
                    "allowed[{}]: {}:{}:{} — {}",
                    d.rule.name(),
                    d.path,
                    d.line,
                    d.col,
                    d.reason.as_deref().unwrap_or("")
                );
            }
            continue;
        }
        let _ = writeln!(out, "error[{}]: {}", d.rule.name(), d.message);
        let _ = writeln!(out, "  --> {}:{}:{}", d.path, d.line, d.col);
        if d.rule != RuleId::BadMarker {
            let _ = writeln!(
                out,
                "   = help: fix it, or suppress with `// vp-lint: allow({}) — <why>`",
                d.rule.name()
            );
        }
    }
    for m in &summary.stale_markers {
        let _ = writeln!(
            out,
            "warning[stale-marker]: {}:{} — allow({}) suppresses nothing; remove the marker",
            m.path,
            m.line,
            m.rules.join(", "),
        );
    }
    let _ = writeln!(
        out,
        "vp-lint: {} file(s) scanned, {} active finding(s), {} allowed by marker",
        summary.files_scanned,
        summary.active(),
        summary.allowed(),
    );
    out
}

/// Renders the machine-readable report: every diagnostic (allowed ones
/// included, with their justification) plus the summary.
pub fn render_json(diags: &[Diagnostic], summary: &Summary) -> String {
    let mut items = String::new();
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            items.push(',');
        }
        let reason = match &d.reason {
            Some(r) => format!(", \"reason\": \"{}\"", json_escape(r)),
            None => String::new(),
        };
        let _ = write!(
            items,
            "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"col\": {}, \
             \"allowed\": {}, \"message\": \"{}\"{reason}}}",
            d.rule.name(),
            json_escape(&d.path),
            d.line,
            d.col,
            d.allowed,
            json_escape(&d.message),
        );
    }
    format!(
        "{{\n  \"schema\": \"vp-lint-report/1\",\n  \"summary\": {},\n  \"diagnostics\": [{items}\n  ]\n}}\n",
        // Indent the nested summary by reusing its document form.
        summary.to_json().trim_end().replace('\n', "\n  ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(diags: Vec<Diagnostic>) -> Summary {
        Summary::of(&Report {
            diagnostics: diags,
            files_scanned: 4,
            coverage: vec![(RuleId::LockOrder, Coverage::from([("fns_walked", 2)]))],
            stale_markers: Vec::new(),
        })
    }

    fn diag(rule: RuleId, allowed: bool) -> Diagnostic {
        Diagnostic {
            rule,
            path: "crates/x/src/a.rs".to_string(),
            line: 3,
            col: 7,
            message: "msg with \"quotes\"".to_string(),
            allowed,
            reason: allowed.then(|| "because\treasons".to_string()),
        }
    }

    #[test]
    fn escape_covers_controls() {
        assert_eq!(json_escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn summary_tallies_active_vs_allowed() {
        let diags = vec![
            diag(RuleId::WallClock, true),
            diag(RuleId::WallClock, false),
            diag(RuleId::ForbiddenPanic, true),
        ];
        let s = summary(diags);
        assert_eq!(s.active(), 1);
        assert_eq!(s.allowed(), 2);
        assert_eq!(s.per_rule["wall-clock"], (2, 1));
        let json = s.to_json();
        assert!(json.contains("\"files_scanned\": 4"));
        assert!(json.contains("\"wall-clock\": {\"found\": 2, \"allowed\": 1}"));
        assert!(json.contains("\"lock-order\": {\"fns_walked\": 2}"));
    }

    #[test]
    fn human_render_hides_allowed_by_default() {
        let diags = vec![
            diag(RuleId::WallClock, true),
            diag(RuleId::WallClock, false),
        ];
        let s = summary(diags.clone());
        let quiet = render_human(&diags, &s, false);
        assert_eq!(quiet.matches("error[wall-clock]").count(), 1);
        assert!(!quiet.contains("allowed[wall-clock]"));
        let loud = render_human(&diags, &s, true);
        assert!(loud.contains("allowed[wall-clock]"));
    }

    #[test]
    fn json_report_is_valid_enough_to_round_trip_quotes() {
        let diags = vec![diag(RuleId::BadMarker, false)];
        let s = summary(diags.clone());
        let json = render_json(&diags, &s);
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\"rule\": \"bad-marker\""));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // No line may open with a comma and no value slot may hold two —
        // the writer emits separators at the end of the preceding item.
        for line in json.lines() {
            assert!(
                !line.trim_start().starts_with(','),
                "stray leading comma in: {line}"
            );
        }
        assert!(!json.contains(",,"));
    }
}
