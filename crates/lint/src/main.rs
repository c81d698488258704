//! CLI entry point: `cargo run -p vp-lint -- --workspace`.
//!
//! See the crate docs (`src/lib.rs`) and DESIGN.md §13 for the rule
//! catalog and the marker syntax.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use vp_lint::{find_workspace_root, lint_workspace, report, Summary};

struct Args {
    root: Option<PathBuf>,
    json: bool,
    show_allowed: bool,
    summary_out: Option<PathBuf>,
}

const USAGE: &str = "usage: vp-lint --workspace [--root <dir>] [--format human|json] \
                     [--show-allowed] [--summary-out <path>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        json: false,
        show_allowed: false,
        summary_out: None,
    };
    let mut saw_workspace = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => saw_workspace = true,
            "--root" => {
                args.root = Some(PathBuf::from(it.next().ok_or("--root needs a directory")?));
            }
            "--format" => match it.next().as_deref() {
                Some("json") => args.json = true,
                Some("human") => args.json = false,
                _ => return Err("--format takes `human` or `json`".to_string()),
            },
            "--show-allowed" => args.show_allowed = true,
            "--summary-out" => {
                args.summary_out = Some(PathBuf::from(
                    it.next().ok_or("--summary-out needs a path")?,
                ));
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if !saw_workspace && args.root.is_none() {
        return Err(USAGE.to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let root = match args.root.clone().or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("vp-lint: no workspace root found (no Cargo.toml with [workspace])");
            return ExitCode::from(2);
        }
    };
    // vp-lint: allow(wall-clock) — scan timing for the summary document only
    let t0 = Instant::now();
    let report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("vp-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    let mut summary = Summary::of(&report);
    summary.wall_time_ms = t0.elapsed().as_millis();

    if let Some(path) = &args.summary_out {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, summary.to_json()) {
            eprintln!("vp-lint: cannot write summary to {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if args.json {
        print!("{}", report::render_json(&report.diagnostics, &summary));
    } else {
        print!(
            "{}",
            report::render_human(&report.diagnostics, &summary, args.show_allowed)
        );
    }
    if summary.active() > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
