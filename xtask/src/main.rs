//! `cargo xtask` — the workspace task runner.
//!
//! The only task today is `analyze`, the static-analysis gate:
//!
//! ```text
//! cargo xtask analyze                   # human report, exit 1 on findings
//! cargo xtask analyze --json out.json   # also write the machine report
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage/IO error.
//!
//! The root it scans is baked in at build time (`CARGO_MANIFEST_DIR`), so a
//! binary run from a copied `target/` scans the tree it was built from; the
//! first stderr line names that root.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ufotm_analyze as analyze;

fn repo_root() -> PathBuf {
    // xtask lives at <root>/xtask, so the workspace root is one level up.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask has a parent directory")
        .to_path_buf()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo xtask analyze [--json PATH]\n\
         \n\
         Runs the workspace lint passes (see docs/STATIC_ANALYSIS.md):\n\
         {}",
        analyze::lints::LINTS
            .iter()
            .map(|l| format!("  - {l}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(("analyze", rest)) = args.split_first().map(|(c, r)| (c.as_str(), r)) else {
        return usage();
    };

    let json_path = match rest {
        [] => None,
        [flag, p] if flag == "--json" => Some(PathBuf::from(p)),
        _ => return usage(),
    };

    let root = repo_root();
    eprintln!("analyze: scanning {}", root.display());
    let report = match analyze::analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("analyze: error: {e}");
            return ExitCode::from(2);
        }
    };

    print!("{}", analyze::render_text(&report));
    if let Some(p) = json_path {
        if let Err(e) = std::fs::write(&p, analyze::render_json(&report)) {
            eprintln!("analyze: cannot write {}: {e}", p.display());
            return ExitCode::from(2);
        }
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
