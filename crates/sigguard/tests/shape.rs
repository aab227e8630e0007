//! The shape of the handler crate, checked from its text: what neither the
//! `no_std` boundary nor the crate's clippy lints catch.
//!
//! `clippy::panic`, `unwrap_used`, `indexing_slicing` and
//! `arithmetic_side_effects` reject their shapes, but the `assert` family
//! passes all of them, and `extern crate alloc;` would bring the allocator
//! back into a `no_std` crate. Everything in `src/` is handler-side code,
//! so a text match is exact: no call graph is needed.

use std::fs;
use std::path::{Path, PathBuf};

/// The lints `src/lib.rs` must deny, as `clippy::<name>` unless qualified.
const DENIED: [&str; 10] = [
    "clippy::panic",
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::indexing_slicing",
    "clippy::arithmetic_side_effects",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::undocumented_unsafe_blocks",
    "unsafe_op_in_unsafe_fn",
];

/// Panicking macros that clippy's denied lints let through.
const ASSERTS: [&str; 6] = [
    "assert!",
    "assert_eq!",
    "assert_ne!",
    "debug_assert!",
    "debug_assert_eq!",
    "debug_assert_ne!",
];

fn crate_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `src/`, with its text.
fn sources() -> Vec<(PathBuf, String)> {
    let mut out = Vec::new();
    let mut stack = vec![crate_dir().join("src")];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|x| x == "rs") {
                let text = fs::read_to_string(&path).unwrap();
                out.push((path, text));
            }
        }
    }
    out.sort();
    assert!(out.len() >= 2, "src/ went missing: {out:?}");
    out
}

/// The code of `text` before its first `#[cfg(test)]` (test modules go
/// last in a file), line by line with `//` comments cut: `(line, code)`.
fn code_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let live = text.find("#[cfg(test)]").map_or(text, |i| &text[..i]);
    live.lines()
        .enumerate()
        .map(|(n, line)| (n + 1, line.split("//").next().unwrap_or_default()))
}

/// The inner `#![deny(...)]` attributes of `lib.rs`, joined.
fn deny_attributes(lib: &str) -> String {
    let mut out = String::new();
    let mut rest = lib;
    while let Some(start) = rest.find("#![deny(") {
        let tail = &rest[start..];
        let end = tail.find(")]").expect("unterminated #![deny(");
        out.push_str(&tail[..end]);
        out.push(',');
        rest = &tail[end..];
    }
    out
}

#[test]
fn crate_is_no_std() {
    let lib = fs::read_to_string(crate_dir().join("src/lib.rs")).unwrap();
    assert!(
        lib.lines().any(|l| l.trim() == "#![no_std]"),
        "src/lib.rs must be #![no_std]"
    );
}

#[test]
fn crate_denies_the_panicking_shapes() {
    let lib = fs::read_to_string(crate_dir().join("src/lib.rs")).unwrap();
    let denied: Vec<String> = deny_attributes(&lib)
        .split(|c: char| c == ',' || c == '(' || c.is_whitespace())
        .map(str::to_owned)
        .collect();
    for lint in DENIED {
        assert!(
            denied.iter().any(|d| d == lint),
            "src/lib.rs must deny {lint}"
        );
    }
}

#[test]
fn no_extern_crate() {
    for (path, text) in sources() {
        for (n, code) in code_lines(&text) {
            assert!(
                !code.contains("extern crate"),
                "{}:{n}: `extern crate` would bring std or alloc back into the handler",
                path.display()
            );
        }
    }
}

#[test]
fn no_assert_outside_tests() {
    for (path, text) in sources() {
        for (n, code) in code_lines(&text) {
            for mac in ASSERTS {
                let hit = code
                    .match_indices(mac)
                    .any(|(i, _)| !code[..i].ends_with(|c: char| c.is_alphanumeric() || c == '_'));
                assert!(
                    !hit,
                    "{}:{n}: `{mac}` can panic in the signal handler",
                    path.display()
                );
            }
        }
    }
}

#[test]
fn manifest_has_no_dependencies() {
    let manifest = fs::read_to_string(crate_dir().join("Cargo.toml")).unwrap();
    let mut table = String::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            table = line.to_owned();
        } else if table.contains("dependencies") && !line.is_empty() && !line.starts_with('#') {
            panic!("Cargo.toml: {table} must stay empty, found `{line}`");
        }
    }
}
