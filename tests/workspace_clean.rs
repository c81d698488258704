//! The determinism gate: the workspace must lint clean. This runs the
//! same engine as `cargo run -p vp-lint -- --workspace` — every rule over
//! every `.rs` file, each lexed and parsed once — so plain `cargo test`
//! catches a determinism-contract regression (DESIGN.md §13, §18).

use std::path::Path;

use vp_lint::lint_workspace;

#[test]
fn workspace_has_no_active_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = lint_workspace(root).expect("workspace tree is readable");

    let active: Vec<String> = report
        .active()
        .map(|d| {
            format!(
                "{}:{}:{} [{}] {}",
                d.path,
                d.line,
                d.col,
                d.rule.name(),
                d.message
            )
        })
        .collect();
    assert!(
        active.is_empty(),
        "vp-lint found {} active finding(s):\n{}",
        active.len(),
        active.join("\n")
    );
    let stale: Vec<String> = report
        .stale_markers
        .iter()
        .map(|m| format!("{}:{} allow({})", m.path, m.line, m.rules.join(", ")))
        .collect();
    assert!(
        stale.is_empty(),
        "vp-lint found {} marker(s) that suppress nothing:\n{}",
        stale.len(),
        stale.join("\n")
    );

    // Sanity: the scan actually covered the tree (every crate plus the
    // root), and the justified markers are visible in the report.
    assert!(
        report.files_scanned >= 100,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
    assert!(
        report.diagnostics.iter().any(|d| d.allowed),
        "expected at least one marker-allowed diagnostic in the workspace"
    );
}
