//! The ui-fixture harness (trybuild-style, but for lints): every file
//! under `tests/fixtures/` is analyzed as if it lived at the virtual path
//! named by its `//@ path:` first line, and the complete set of findings
//! must equal the `//~ <lint>` expectations annotated on the flagged
//! lines. Positive fixtures prove each lint fires; negative fixtures prove
//! it stays quiet on the idiomatic pattern; suppressed fixtures prove the
//! allow-marker machinery; the meta fixtures replay this repo's actual
//! shipped bugs (PR 3, PR 4) and prove the gate would have caught them.
//!
//! Fixtures carrying a `//@ group` second line are analyzed *together*
//! (all group files in the same directory form one virtual workspace), so
//! the call-graph passes can follow edges across files — that is how the
//! two-hops-from-the-handler D9 case is proven.
//!
//! The lints that moved to clippy are gated here too, so `cargo test`
//! keeps failing when they fire: [`clippy_gate_is_clean`] runs them.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use ufotm_analyze::lints::HOST_EXEMPT;
use ufotm_analyze::{
    analyze_file, analyze_sources, analyze_workspace, render_text, Report, SourceFile,
};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
}

/// Reads the `//@ path: <virtual path>` directive off the first line.
fn virtual_path(src: &str, file: &Path) -> String {
    let first = src.lines().next().unwrap_or_default();
    first
        .strip_prefix("//@ path:")
        .unwrap_or_else(|| panic!("{}: first line must be `//@ path: …`", file.display()))
        .trim()
        .to_string()
}

/// Collects `//~ <lint>` expectations: each occurrence on a line expects
/// that lint to fire on that line. Multiple `//~` markers per line allowed.
fn expectations(src: &str) -> BTreeSet<(u32, String)> {
    let mut out = BTreeSet::new();
    for (idx, line) in src.lines().enumerate() {
        let mut rest = line;
        while let Some(pos) = rest.find("//~") {
            rest = &rest[pos + 3..];
            let lint = rest
                .split_whitespace()
                .next()
                .expect("`//~` must be followed by a lint name");
            out.insert((idx as u32 + 1, lint.to_string()));
        }
    }
    out
}

/// Whether the fixture opts into directory-group analysis.
fn is_group(src: &str) -> bool {
    src.lines().nth(1).is_some_and(|l| l.trim() == "//@ group")
}

type LineLints = BTreeSet<(u32, String)>;

fn run_fixture(file: &Path) -> (Report, LineLints, LineLints) {
    let src = fs::read_to_string(file).unwrap();
    let report = analyze_file(&virtual_path(&src, file), &src);
    let actual: BTreeSet<(u32, String)> = report
        .findings
        .iter()
        .map(|f| (f.line, f.lint.to_string()))
        .collect();
    let expected = expectations(&src);
    (report, actual, expected)
}

fn check_fixture(file: &Path) {
    let (report, actual, expected) = run_fixture(file);
    assert_eq!(
        actual,
        expected,
        "\n== {} ==\nmissing: {:?}\nunexpected: {:?}\nfull report:\n{}",
        file.display(),
        expected.difference(&actual).collect::<Vec<_>>(),
        actual.difference(&expected).collect::<Vec<_>>(),
        render_text(&report),
    );
    let stem = file.file_stem().unwrap().to_string_lossy();
    if stem == "suppressed" {
        assert!(
            report.suppressed() > 0,
            "{}: a suppressed fixture must actually exercise a marker",
            file.display()
        );
    }
    if stem == "negative" {
        assert_eq!(
            report.suppressed(),
            0,
            "{}: a negative fixture must be quiet without any markers",
            file.display()
        );
    }
}

/// Analyzes the files of one `//@ group` directory as a single virtual
/// workspace; expectations are matched on (virtual path, line, lint).
fn check_group(dir: &Path, files: &[PathBuf]) {
    let mut sources = Vec::new();
    let mut expected: BTreeSet<(String, u32, String)> = BTreeSet::new();
    for file in files {
        let src = fs::read_to_string(file).unwrap();
        let vp = virtual_path(&src, file);
        for (line, lint) in expectations(&src) {
            expected.insert((vp.clone(), line, lint));
        }
        sources.push(SourceFile::new(&vp, &src));
    }
    let report = analyze_sources(sources);
    let actual: BTreeSet<(String, u32, String)> = report
        .findings
        .iter()
        .map(|f| (f.path.clone(), f.line, f.lint.to_string()))
        .collect();
    assert_eq!(
        actual,
        expected,
        "\n== group {} ==\nmissing: {:?}\nunexpected: {:?}\nfull report:\n{}",
        dir.display(),
        expected.difference(&actual).collect::<Vec<_>>(),
        actual.difference(&expected).collect::<Vec<_>>(),
        render_text(&report),
    );
}

/// Every fixture on disk, so a new fixture can never be silently skipped.
fn all_fixtures() -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![fixtures_dir()];
    while let Some(d) = stack.pop() {
        for e in fs::read_dir(&d).unwrap() {
            let p = e.unwrap().path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

#[test]
fn every_fixture_matches_its_expectations() {
    let fixtures = all_fixtures();
    // 5 lints × {positive, negative, suppressed} + 2 suppression-hygiene
    // + 2 meta regressions + 1 bound-form (D5) + 3 multi-file D9 group.
    assert_eq!(
        fixtures.len(),
        23,
        "fixture inventory drifted: {fixtures:?}"
    );
    let mut groups: std::collections::BTreeMap<PathBuf, Vec<PathBuf>> =
        std::collections::BTreeMap::new();
    for f in &fixtures {
        let src = fs::read_to_string(f).unwrap();
        if is_group(&src) {
            groups
                .entry(f.parent().unwrap().to_path_buf())
                .or_default()
                .push(f.clone());
        } else {
            check_fixture(f);
        }
    }
    assert!(!groups.is_empty(), "the multi-file D9 group went missing");
    for (dir, files) in &groups {
        assert!(
            files.len() > 1,
            "a single-file `//@ group` defeats its purpose: {}",
            dir.display()
        );
        check_group(dir, files);
    }
}

/// The PR-3 regression (hasher-ordered TL2 write-back) is caught by D1 at
/// the iteration.
#[test]
fn meta_pr3_hashmap_writeback_is_caught() {
    let file = fixtures_dir().join("meta/pr3_tl2_writeback.rs");
    let (report, _, _) = run_fixture(&file);
    let lints: BTreeSet<&str> = report.findings.iter().map(|f| f.lint).collect();
    assert!(
        lints.contains("nondet-iteration"),
        "D1 must flag the write-back loop: {lints:?}"
    );
}

/// The PR-4 regression (owner-mask `1 << cpu` wrap at cpu >= 64) is caught
/// by D2 at every raw shift.
#[test]
fn meta_pr4_shift_overflow_is_caught() {
    let file = fixtures_dir().join("meta/pr4_shift_overflow.rs");
    let (report, _, _) = run_fixture(&file);
    let shifts = report
        .findings
        .iter()
        .filter(|f| f.lint == "unchecked-cpu-shift")
        .count();
    assert_eq!(shifts, 2, "both raw shifts must be flagged");
}

/// The determinism scope fails closed: a crate that `HOST_EXEMPT` does not
/// name gets D5 for an inline unwrap of a machine access, with nobody
/// having listed it anywhere.
#[test]
fn an_unlisted_crate_is_deterministic() {
    let src = "pub fn peek(m: &mut Machine) -> u64 {\n    m.load(0, 0).unwrap()\n}\n";
    let report = analyze_file("crates/newcomer/src/lib.rs", src);
    let found: Vec<(u32, &str)> = report.findings.iter().map(|f| (f.line, f.lint)).collect();
    assert_eq!(
        found,
        [(2, "panicking-machine-access")],
        "{}",
        render_text(&report)
    );
    assert!(analyze_file("crates/native/src/lib.rs", src).is_clean());
}

fn live_source(path: &str) -> (String, String) {
    (
        path.to_string(),
        fs::read_to_string(workspace_root().join(path)).unwrap(),
    )
}

/// The acceptance demo for D9, run against the *live* guard module: an
/// allocation slipped into a `segv_handler`-reachable function makes the
/// gate fail, and the finding names the handler root.
#[test]
fn meta_guard_handler_reachable_alloc_is_caught() {
    let (path, src) = live_source("crates/native/src/guard.rs");
    let needle = "fn sched_yield() {";
    assert!(src.contains(needle), "guard.rs lost its sched_yield helper");
    let sabotaged = src.replace(
        needle,
        "fn sched_yield() {\n        let _boom: Vec<u8> = Vec::new();",
    );
    let report = analyze_file(&path, &sabotaged);
    let d9: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.lint == "signal-unsafe-reachable")
        .collect();
    assert!(
        !d9.is_empty(),
        "Vec::new() in sched_yield must be flagged:\n{}",
        render_text(&report)
    );
    assert!(
        d9.iter().any(|f| f.message.contains("segv_handler")),
        "the finding must name the handler root: {:?}",
        d9
    );
}

/// The D5 unwrap pass, run against live code: swapping the audited route
/// in the simulated runtime for an inline unwrap (`.plain("…")` →
/// `.unwrap()`) adds exactly one finding, on the mutated line.
#[test]
fn live_inline_unwraps_are_caught() {
    let (path, src) = live_source("crates/core/src/runtime.rs");
    let needle = "ctx.stall(backoff).plain(\"TL2 backoff\")";
    let sabotage = "ctx.stall(backoff).unwrap()";
    assert_eq!(src.matches(needle).count(), 1, "{path} lost `{needle}`");
    assert!(
        analyze_file(&path, &src).is_clean(),
        "live {path} must be clean"
    );
    let line = src[..src.find(needle).unwrap()].lines().count() as u32;
    let report = analyze_file(&path, &src.replace(needle, sabotage));
    let found: Vec<(u32, &str)> = report.findings.iter().map(|f| (f.line, f.lint)).collect();
    assert_eq!(
        found,
        [(line, "panicking-machine-access")],
        "`{sabotage}` in {path} must add exactly one finding:\n{}",
        render_text(&report)
    );
}

/// The gate itself: the live workspace must lint clean. Running this from
/// the tier-1 suite means `cargo test` fails the moment a violation lands,
/// even before CI's dedicated `cargo xtask analyze` step.
#[test]
fn workspace_is_clean() {
    let report = analyze_workspace(workspace_root()).unwrap();
    assert!(
        report.is_clean(),
        "workspace has unsuppressed findings:\n{}",
        render_text(&report)
    );
    assert!(report.files >= 50, "discovery walked too few files");
}

/// The lints that moved to clippy (`docs/STATIC_ANALYSIS.md`, "Checked by
/// clippy"), denied over every target of the workspace, plus
/// `unfulfilled_lint_expectations` so a stale `#[expect]` fails like an
/// unused allow marker. It builds into its own target directory because
/// `cargo test` holds the main one.
#[test]
fn clippy_gate_is_clean() {
    let out = Command::new(env!("CARGO"))
        .current_dir(workspace_root())
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

/// The exemption is one decision: exactly the `HOST_EXEMPT` crates carry a
/// `clippy.toml` of their own (which replaces the root file and its
/// determinism ban), and each quotes its recorded reason on line one.
#[test]
fn host_exempt_crates_carry_their_own_clippy_config() {
    let root = workspace_root();
    assert!(
        root.join("clippy.toml").is_file(),
        "the root clippy.toml is the determinism scope every crate inherits"
    );
    let mut dirs = vec![root.join("xtask")];
    for e in fs::read_dir(root.join("crates")).unwrap() {
        dirs.push(e.unwrap().path());
    }
    let mut own = BTreeSet::new();
    for dir in dirs {
        let Ok(cfg) = fs::read_to_string(dir.join("clippy.toml")) else {
            continue;
        };
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        if let Some((_, reason)) = HOST_EXEMPT.iter().find(|(c, _)| *c == name) {
            assert_eq!(
                cfg.lines().next(),
                Some(format!("# HOST_EXEMPT: {reason}").as_str()),
                "{name}/clippy.toml must open by quoting its HOST_EXEMPT reason"
            );
        }
        own.insert(name);
    }
    let exempt: BTreeSet<String> = HOST_EXEMPT.iter().map(|(c, _)| c.to_string()).collect();
    assert_eq!(
        own, exempt,
        "the crates with their own clippy.toml must be exactly HOST_EXEMPT"
    );
}
