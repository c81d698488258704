//! The rule catalog, the per-file token rules, and marker application.
//!
//! Every rule guards one clause of the repository's determinism contract
//! (DESIGN.md §13). The per-file rules here match token patterns over a
//! parsed [`FileModel`], never types, so each has a documented
//! approximation and an escape hatch — the
//! `// vp-lint: allow(<rule>) — <reason>` marker ([`crate::context`]).
//! The cross-file rules live in [`crate::analyses`].

use std::collections::{BTreeMap, BTreeSet};

use crate::context::{is_crate_root, FileKind, Marker};
use crate::model::{idents_with_type, FileModel, WorkspaceModel};

/// Identifies one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Iterating a default-hasher `HashMap`/`HashSet` in pipeline code
    /// without sorting in the same (or immediately following) statement.
    NondeterministicIteration,
    /// `SystemTime::now` / `Instant::now` in pipeline crates: verdicts
    /// must be a function of simulated time, never of the host clock.
    WallClock,
    /// `partial_cmp` on floats where `total_cmp` is required: NaN makes
    /// the comparison fallible and the fallback branch order-dependent.
    FloatOrdering,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!` in library
    /// code: hot paths must degrade, not abort.
    ForbiddenPanic,
    /// `unsafe` usage, or a crate root missing `#![forbid(unsafe_code)]`.
    UnsafeCode,
    /// A malformed suppression marker: unknown rule name or missing
    /// justification. Never suppressible.
    BadMarker,
    /// Cross-file analysis: an `encode_*`/`write_*` function whose paired
    /// `decode_*`/`read_*` disagrees on field count, order or integer
    /// width (VPCK/VPCY framing drift). See [`crate::analyses`].
    CodecSymmetry,
    /// Cross-file analysis: nested `Mutex`/`RwLock` guards acquired in
    /// inconsistent orders, double-acquisition of one lock, or a channel
    /// `send` while a guard is held. See [`crate::analyses`].
    LockOrder,
    /// Cross-file analysis: an f64/f32 accumulator folded over a
    /// default-hasher container whose iteration order is not
    /// BTree/slice-deterministic. See [`crate::analyses`].
    FloatAccumulation,
    /// Cross-file analysis: a panic-capable site (indexing, `unwrap`,
    /// panic-family macro, slice-fitting op) reachable on the call graph
    /// from a `StreamingRuntime` entry point without a justifying marker.
    /// See [`crate::analyses`].
    PanicReachability,
}

/// Every rule, in stable (report) order. The last four are the cross-file
/// analyses of [`crate::analyses`]; every run applies all of them.
pub const ALL_RULES: [RuleId; 10] = [
    RuleId::NondeterministicIteration,
    RuleId::WallClock,
    RuleId::FloatOrdering,
    RuleId::ForbiddenPanic,
    RuleId::UnsafeCode,
    RuleId::BadMarker,
    RuleId::CodecSymmetry,
    RuleId::LockOrder,
    RuleId::FloatAccumulation,
    RuleId::PanicReachability,
];

impl RuleId {
    /// Kebab-case rule name, as used in markers and reports.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::NondeterministicIteration => "nondeterministic-iteration",
            RuleId::WallClock => "wall-clock",
            RuleId::FloatOrdering => "float-ordering",
            RuleId::ForbiddenPanic => "forbidden-panic",
            RuleId::UnsafeCode => "unsafe-code",
            RuleId::BadMarker => "bad-marker",
            RuleId::CodecSymmetry => "codec-symmetry",
            RuleId::LockOrder => "lock-order",
            RuleId::FloatAccumulation => "float-accumulation",
            RuleId::PanicReachability => "panic-reachability",
        }
    }

    /// Parses a rule name (as written in a marker).
    pub fn from_name(name: &str) -> Option<RuleId> {
        ALL_RULES.into_iter().find(|r| r.name() == name)
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The violated rule.
    pub rule: RuleId,
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Human explanation of this occurrence.
    pub message: String,
    /// `true` when a valid marker suppresses it (still reported, still
    /// counted — just not fatal).
    pub allowed: bool,
    /// The marker's justification, when allowed.
    pub reason: Option<String>,
}

/// An active finding of `rule` at the `mi`-th meaningful token of `file`.
pub(crate) fn diag(rule: RuleId, file: &FileModel, mi: usize, message: String) -> Diagnostic {
    let (line, col) = file.pos(mi);
    Diagnostic {
        rule,
        path: file.path.clone(),
        line,
        col,
        message,
        allowed: false,
        reason: None,
    }
}

/// Runs the per-file rules over one parsed file: marker hygiene
/// everywhere (a marker that names an unknown rule or carries no
/// justification is dead weight, even in tests), and the token rules in
/// library code outside test regions (see
/// [`crate::context::classify_path`]).
pub(crate) fn check_file(file: &FileModel, diags: &mut Vec<Diagnostic>) {
    for m in &file.markers {
        check_marker(m, &file.path, diags);
    }
    if file.kind != FileKind::Library {
        return;
    }
    if is_crate_root(&file.path) && !forbids_unsafe(file) {
        diags.push(Diagnostic {
            rule: RuleId::UnsafeCode,
            path: file.path.clone(),
            line: 1,
            col: 1,
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            allowed: false,
            reason: None,
        });
    }
    let hash_idents = idents_with_type(file, &[b"HashMap", b"HashSet"]);
    for mi in 0..file.meaningful.len() {
        if file.is_test(mi) {
            continue;
        }
        let t = file.text(mi);
        let (rule, message) = match t {
            // `wall-clock`: `SystemTime::now` / `Instant::now`.
            b"SystemTime" | b"Instant"
                if file.text(mi + 1) == b":"
                    && file.text(mi + 2) == b":"
                    && file.text(mi + 3) == b"now" =>
            {
                (
                    RuleId::WallClock,
                    format!(
                        "`{}::now()` reads the host clock; pipeline results must depend on \
                         simulated time only (deadline/observability code may justify this \
                         with an allow marker)",
                        String::from_utf8_lossy(t)
                    ),
                )
            }
            // `float-ordering`: `partial_cmp` call sites (definitions of
            // the `PartialOrd` trait method are exempt).
            b"partial_cmp" if file.text(mi.wrapping_sub(1)) != b"fn" => (
                RuleId::FloatOrdering,
                "`partial_cmp` is fallible on NaN and its fallback branch breaks total \
                 ordering; use `f64::total_cmp` (or justify with an allow marker)"
                    .to_string(),
            ),
            // `forbidden-panic`: aborting macros.
            b"panic" | b"unreachable" | b"todo" | b"unimplemented" if file.text(mi + 1) == b"!" => {
                (
                    RuleId::ForbiddenPanic,
                    format!(
                        "`{}!` aborts the pipeline; return a `VpError`/degrade instead, or \
                         justify the invariant with an allow marker",
                        String::from_utf8_lossy(t)
                    ),
                )
            }
            // `unsafe-code` (usage half): any `unsafe` keyword.
            b"unsafe" => (
                RuleId::UnsafeCode,
                "`unsafe` is forbidden workspace-wide (#![forbid(unsafe_code)])".to_string(),
            ),
            _ => match hash_iteration(file, mi, &hash_idents) {
                Some(receiver) => (
                    RuleId::NondeterministicIteration,
                    format!(
                        "iteration over default-hasher collection `{}` observes hasher order; \
                         sort the result, use a BTree collection, or justify with an allow marker",
                        String::from_utf8_lossy(receiver)
                    ),
                ),
                None => continue,
            },
        };
        diags.push(diag(rule, file, mi, message));
    }
}

fn check_marker(m: &Marker, rel_path: &str, diags: &mut Vec<Diagnostic>) {
    let mut problems = Vec::new();
    if m.rules.is_empty() {
        problems.push("names no rule".to_string());
    }
    for r in &m.rules {
        if RuleId::from_name(r).is_none() {
            problems.push(format!("names unknown rule `{r}`"));
        } else if r == RuleId::BadMarker.name() {
            problems.push("bad-marker cannot be allowed".to_string());
        }
    }
    if m.reason.is_none() {
        problems.push("has no justification after the rule list".to_string());
    }
    if !problems.is_empty() {
        diags.push(Diagnostic {
            rule: RuleId::BadMarker,
            path: rel_path.to_string(),
            line: m.line,
            col: 1,
            message: format!(
                "malformed vp-lint marker: {}; expected `// vp-lint: allow(<rule>) — <reason>`",
                problems.join(", ")
            ),
            allowed: false,
            reason: None,
        });
    }
}

/// Marks every finding that a justified marker in its file covers (see
/// [`Marker::covers`]) as allowed, for the per-file rules and the
/// cross-file analyses alike. `bad-marker` findings are never allowed;
/// findings already allowed (by a declaration-line marker of
/// `panic-reachability`) keep their reason.
pub(crate) fn apply_markers(model: &WorkspaceModel, diags: &mut [Diagnostic]) {
    let markers: BTreeMap<&str, &[Marker]> = model
        .files
        .iter()
        .map(|f| (f.path.as_str(), f.markers.as_slice()))
        .collect();
    for d in diags.iter_mut() {
        if d.allowed || d.rule == RuleId::BadMarker {
            continue;
        }
        let Some(ms) = markers.get(d.path.as_str()) else {
            continue;
        };
        if let Some(m) = ms.iter().find(|m| m.covers(d.line, d.rule.name())) {
            d.allowed = true;
            d.reason.clone_from(&m.reason);
        }
    }
}

/// Methods whose call on a hash collection observes iteration order.
const ITER_METHODS: [&[u8]; 10] = [
    b"iter",
    b"iter_mut",
    b"keys",
    b"values",
    b"values_mut",
    b"into_iter",
    b"into_keys",
    b"into_values",
    b"drain",
    b"retain",
];

/// Sort-family calls that canonicalise an iteration's output.
const SORT_METHODS: [&[u8]; 6] = [
    b"sort",
    b"sort_by",
    b"sort_by_key",
    b"sort_unstable",
    b"sort_unstable_by",
    b"sort_unstable_by_key",
];

/// `nondeterministic-iteration`: an order-observing method call on a
/// hash-typed receiver, or `for _ in [&[mut]] <hash> {`, not
/// canonicalised nearby (see [`sorted_nearby`]). Returns the receiver's
/// name for the message.
fn hash_iteration<'a>(
    file: &'a FileModel,
    mi: usize,
    hash_idents: &BTreeSet<Vec<u8>>,
) -> Option<&'a [u8]> {
    let t = file.text(mi);
    let receiver = if ITER_METHODS.contains(&t) {
        // `<hash> . method` (also matches the tail of
        // `self.<hash>.method`).
        let recv = file.text(mi.wrapping_sub(2));
        (file.text(mi.wrapping_sub(1)) == b"."
            && hash_idents.contains(recv)
            && file.text(mi + 1) == b"(")
            .then_some(recv)
    } else if t == b"in" {
        let mut k = mi + 1;
        while file.text(k) == b"&" || file.text(k) == b"mut" {
            k += 1;
        }
        (hash_idents.contains(file.text(k)) && file.text(k + 1) == b"{")
            .then_some(b"<loop target>".as_slice())
    } else {
        None
    }?;
    (!sorted_nearby(file, mi)).then_some(receiver)
}

/// Looks for canonicalisation evidence around the iteration at `mi`:
/// backward to the start of the statement for a BTree type annotation
/// (`let x: BTreeMap<…> = m.iter()…collect()`), and forward for a
/// sort-family call or BTree turbofish within the current statement or
/// the one after it (two `;` at the statement's own bracket depth),
/// capped at 250 tokens.
fn sorted_nearby(file: &FileModel, mi: usize) -> bool {
    for k in (mi.saturating_sub(60)..mi).rev() {
        match file.text(k) {
            b";" | b"{" | b"}" => break,
            b"BTreeMap" | b"BTreeSet" => return true,
            _ => {}
        }
    }
    let mut depth = 0i64;
    let mut semis = 0;
    for k in mi..(mi + 250).min(file.meaningful.len()) {
        let t = file.text(k);
        match t {
            b"(" | b"[" | b"{" => depth += 1,
            b")" | b"]" | b"}" => {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
            }
            b";" if depth == 0 => {
                semis += 1;
                if semis >= 2 {
                    return false;
                }
            }
            _ => {
                if SORT_METHODS.contains(&t) || t == b"BTreeMap" || t == b"BTreeSet" {
                    return true;
                }
            }
        }
    }
    false
}

/// `unsafe-code` (attribute half): whether the file carries
/// `#![forbid(unsafe_code)]` (or `deny` where forbid is impossible).
fn forbids_unsafe(file: &FileModel) -> bool {
    (0..file.meaningful.len()).any(|mi| {
        (file.text(mi) == b"forbid" || file.text(mi) == b"deny")
            && file.text(mi + 1) == b"("
            && file.text(mi + 2) == b"unsafe_code"
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: &str = "crates/demo/src/engine.rs";

    fn lint_one(path: &str, src: &[u8]) -> Vec<Diagnostic> {
        crate::lint(&[(path.to_string(), src.to_vec())]).diagnostics
    }

    fn active(src: &str) -> Vec<(RuleId, u32)> {
        lint_one(LIB, src.as_bytes())
            .into_iter()
            .filter(|d| !d.allowed)
            .map(|d| (d.rule, d.line))
            .collect()
    }

    #[test]
    fn hash_iteration_is_flagged() {
        let src = "fn f(m: std::collections::HashMap<u64, u64>) -> Vec<u64> {\n    m.keys().copied().collect()\n}";
        assert_eq!(active(src), vec![(RuleId::NondeterministicIteration, 2)]);
    }

    #[test]
    fn sorted_iteration_is_clean() {
        let src = "fn f(m: std::collections::HashMap<u64, u64>) -> Vec<u64> {\n    let mut v: Vec<u64> = m.keys().copied().collect();\n    v.sort_unstable();\n    v\n}";
        assert_eq!(active(src), vec![]);
    }

    #[test]
    fn btree_collect_is_clean() {
        let src = "fn f(m: std::collections::HashMap<u64, u64>) {\n    let _b: std::collections::BTreeMap<u64, u64> = m.iter().map(|(k, v)| (*k, *v)).collect();\n}";
        assert_eq!(active(src), vec![]);
    }

    #[test]
    fn for_loop_over_hash_set_is_flagged() {
        let src = "fn f(s: std::collections::HashSet<u64>) {\n    for x in &s {\n        drop(x);\n    }\n}";
        assert_eq!(active(src), vec![(RuleId::NondeterministicIteration, 2)]);
    }

    #[test]
    fn lookup_only_maps_are_clean() {
        let src = "fn f(m: std::collections::HashMap<u64, u64>) -> Option<u64> {\n    m.get(&1).copied()\n}";
        assert_eq!(active(src), vec![]);
    }

    #[test]
    fn marker_suppresses_but_still_reports() {
        let src = "fn f(m: std::collections::HashMap<u64, u64>) -> usize {\n    // vp-lint: allow(nondeterministic-iteration) — consumer folds order-free\n    m.values().sum::<u64>() as usize\n}";
        let all = lint_one(LIB, src.as_bytes());
        assert_eq!(active(src), vec![]);
        assert!(all.iter().any(|d| d.allowed
            && d.rule == RuleId::NondeterministicIteration
            && d.reason.is_some()));
    }

    #[test]
    fn marker_without_reason_is_bad_and_suppresses_nothing() {
        let src = "fn f(m: std::collections::HashMap<u64, u64>) -> usize {\n    // vp-lint: allow(nondeterministic-iteration)\n    m.values().count()\n}";
        let rules: Vec<RuleId> = active(src).into_iter().map(|(r, _)| r).collect();
        assert!(rules.contains(&RuleId::BadMarker));
        assert!(rules.contains(&RuleId::NondeterministicIteration));
    }

    #[test]
    fn wall_clock_float_panic() {
        let src = "fn f() {\n    let t = std::time::Instant::now();\n    let o = 1.0_f64.partial_cmp(&2.0);\n    panic!(\"no\");\n}";
        let rules: Vec<RuleId> = active(src).into_iter().map(|(r, _)| r).collect();
        assert_eq!(
            rules,
            vec![
                RuleId::WallClock,
                RuleId::FloatOrdering,
                RuleId::ForbiddenPanic
            ]
        );
    }

    #[test]
    fn partial_cmp_definition_is_exempt() {
        let src = "impl PartialOrd for X {\n    fn partial_cmp(&self, o: &X) -> Option<core::cmp::Ordering> {\n        None\n    }\n}";
        assert_eq!(active(src), vec![]);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let t = std::time::Instant::now();\n        panic!(\"fine in tests\");\n    }\n}";
        assert_eq!(active(src), vec![]);
    }

    #[test]
    fn crate_root_requires_forbid() {
        let with = "#![forbid(unsafe_code)]\npub fn f() {}\n";
        let without = "pub fn f() {}\n";
        assert_eq!(lint_one("crates/demo/src/lib.rs", with.as_bytes()), vec![]);
        let d = lint_one("crates/demo/src/lib.rs", without.as_bytes());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, RuleId::UnsafeCode);
    }

    #[test]
    fn unsafe_usage_is_flagged() {
        let src = "pub fn f() {\n    let p = unsafe { *(0 as *const u8) };\n    drop(p);\n}";
        assert_eq!(active(src), vec![(RuleId::UnsafeCode, 2)]);
    }

    #[test]
    fn strings_and_comments_never_trigger() {
        let src = "pub fn f() -> &'static str {\n    // Instant::now, partial_cmp, panic! in a comment\n    \"Instant::now partial_cmp panic! unsafe\"\n}";
        assert_eq!(active(src), vec![]);
    }

    #[test]
    fn non_library_paths_get_marker_hygiene_only() {
        let src =
            "fn t() { let t = std::time::Instant::now(); }\n// vp-lint: allow(unknown-rule) — x\n";
        let d = lint_one("tests/integration.rs", src.as_bytes());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, RuleId::BadMarker);
    }
}
