//! `vp-lint` — the workspace's determinism & soundness linter.
//!
//! The reproduction's evidence is bit-identity: golden digests pin that
//! the parallel sweep, fault quarantine, streaming runtime and
//! observability layer never change a verdict. Those digests rest on
//! invariants nothing used to check *statically*: no wall-clock reads in
//! the pipeline, order-stable iteration, NaN-total float ordering, no
//! aborts in library paths. This crate machine-checks them (DESIGN.md
//! §13, §18) with zero external dependencies, in the same spirit as
//! `vp-obs`: a hand-rolled lexer ([`lexer`]) feeds one parse per file
//! ([`model`]), and every rule reads that parse — the per-file token
//! rules ([`rules`]) and four cross-file analyses ([`analyses`]): codec
//! field symmetry, lock acquisition order, hash-order float accumulation,
//! and panic reachability from public runtime entry points.
//!
//! # Running
//!
//! ```text
//! cargo run -p vp-lint -- --workspace              # human diagnostics
//! cargo run -p vp-lint -- --workspace --format json
//! cargo run -p vp-lint -- --workspace --summary-out results/BENCH_lint.json
//! ```
//!
//! Exit code 0 means every finding is either fixed or carries a justified
//! `// vp-lint: allow(<rule>) — <reason>` marker; 1 means active
//! findings; 2 means a usage or I/O error.
//!
//! # Determinism of the linter itself
//!
//! The scan is deterministic by construction: directory entries are
//! sorted, internal state lives in `BTreeMap`/`BTreeSet`, and the library
//! never reads the clock (the CLI stamps wall time around the call).

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod analyses;
pub mod context;
pub mod lexer;
pub mod model;
pub mod report;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use analyses::{Coverage, StaleMarker};
pub use model::{FileModel, WorkspaceModel};
pub use report::Summary;
pub use rules::{Diagnostic, RuleId, ALL_RULES};

/// Marker file whose presence exempts a directory (and everything below
/// it) from the scan — the fixture corpus is deliberately bad code.
pub const SKIP_MARKER: &str = ".vp-lint-fixtures";

/// One run's outcome: every rule over every file.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every diagnostic, allowed ones included, sorted by
    /// path/line/col/rule.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files linted.
    pub files_scanned: usize,
    /// Each cross-file analysis' coverage counters, in report order.
    pub coverage: Vec<(RuleId, Coverage)>,
    /// Valid markers that suppressed nothing.
    pub stale_markers: Vec<StaleMarker>,
}

impl Report {
    /// Findings not suppressed by a marker.
    pub fn active(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| !d.allowed)
    }
}

/// Lints in-memory `(rel_path, bytes)` files — workspace-relative paths
/// with forward slashes, which decide the rules that apply (see
/// [`context::classify_path`]). Each file is lexed and parsed once; every
/// rule, per-file and cross-file, reads that parse; markers are applied
/// to all findings alike, and stale markers are judged against the
/// result. Never panics, for any bytes.
pub fn lint(inputs: &[(String, Vec<u8>)]) -> Report {
    let model = WorkspaceModel::build(inputs);
    let mut diagnostics = Vec::new();
    for file in &model.files {
        rules::check_file(file, &mut diagnostics);
    }
    let coverage = analyses::run_all(&model, &mut diagnostics);
    rules::apply_markers(&model, &mut diagnostics);
    diagnostics.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    let stale_markers = analyses::stale_markers(&model, &diagnostics);
    Report {
        diagnostics,
        files_scanned: model.files.len(),
        coverage,
        stale_markers,
    }
}

/// Lints every `.rs` file under `root` (the workspace root); see
/// [`collect_rs_files`] for what the walk skips.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    Ok(lint(&load_workspace_sources(root)?))
}

/// Collects every `.rs` file under `root`, sorted, skipping `target`,
/// hidden directories, and directories carrying a [`SKIP_MARKER`] file.
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    walk(root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if dir.join(SKIP_MARKER).exists() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Reads every `.rs` file under `root` into `(rel_path, bytes)` pairs,
/// workspace-relative with forward slashes — the input of [`lint`].
pub fn load_workspace_sources(root: &Path) -> io::Result<Vec<(String, Vec<u8>)>> {
    let files = collect_rs_files(root)?;
    let mut out = Vec::with_capacity(files.len());
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        out.push((rel, fs::read(path)?));
    }
    Ok(out)
}

/// Walks upward from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_is_found_from_this_crate() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("inside the workspace");
        assert!(root.join("crates").is_dir());
    }

    #[test]
    fn fixture_directories_are_skipped() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let files = collect_rs_files(here).expect("readable crate dir");
        assert!(
            files
                .iter()
                .all(|f| !f.to_string_lossy().contains("fixtures")),
            "fixture corpus must not be scanned: {files:?}"
        );
        assert!(files.iter().any(|f| f.ends_with("src/lib.rs")));
    }
}
