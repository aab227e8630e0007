//! The tier-1 clippy gate: `cargo test` fails when clippy does.
//!
//! The checks that used to be token passes of a workspace lint engine are
//! compiler and clippy checks now (`docs/STATIC_ANALYSIS.md`): the root
//! `clippy.toml`'s determinism bans, native's `Mutex::lock` ban, the
//! unsafe-documentation lints, `sigguard`'s denied panicking shapes, and
//! the unused binding a `merge` that forgets a counter leaves behind.

use std::path::Path;
use std::process::Command;

/// Clippy over every target of the workspace with warnings denied, plus
/// the lints its configuration relies on by name and
/// `unfulfilled_lint_expectations`, so a stale `#[expect]` fails too. It
/// builds into its own target directory because `cargo test` holds the
/// main one.
#[test]
fn clippy_gate_is_clean() {
    let out = Command::new(env!("CARGO"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args([
            "clippy",
            "--workspace",
            "--all-targets",
            "--quiet",
            "--target-dir",
        ])
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy"))
        .args([
            "--",
            "-D",
            "warnings",
            "-D",
            "clippy::disallowed_types",
            "-D",
            "clippy::disallowed_methods",
            "-D",
            "clippy::undocumented_unsafe_blocks",
            "-D",
            "clippy::missing_safety_doc",
            "-D",
            "unfulfilled_lint_expectations",
        ])
        .output()
        .expect("cannot run cargo");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("no such command"),
        "`cargo clippy` is missing: install the clippy component \
         (`rustup component add clippy`)\n{stderr}"
    );
    assert!(out.status.success(), "the clippy gate failed:\n{stderr}");
}
