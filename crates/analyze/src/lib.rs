//! # `ufotm-analyze` — repo-specific static analysis
//!
//! This crate is the engine behind `cargo xtask analyze`: a small,
//! dependency-free lint framework that parses every workspace source file
//! (with the hand-rolled lexer in [`lexer`] — the workspace deliberately has
//! no third-party dependencies, so there is no `syn` to lean on) and runs
//! the protocol passes in [`lints`]. Single-file token passes are joined
//! by workspace-wide passes built on the function/call-graph index in
//! [`callgraph`] (D9's async-signal-safety walk needs to see every crate
//! at once).
//!
//! The rules it enforces are the ones neither the compiler nor clippy can:
//! determinism of the simulated machine (no hasher-ordered iteration), the
//! checked `cpu_bit` route for CPU bitmask shifts, exhaustive stats
//! merges, the audited `PlainAccess::plain` route for panicking machine
//! accesses, and async-signal-safety of everything the guard's handler
//! reaches. Host clocks and hasher-seeded types, unwrapped `Mutex::lock`
//! on real threads, and undocumented `unsafe` are clippy lints configured
//! in the workspace's `clippy.toml` files. Each rule corresponds to a bug
//! class this repo has shipped and debugged; `docs/STATIC_ANALYSIS.md`
//! tells those stories.
//!
//! ## Suppressions
//!
//! A finding is silenced in place with a justified marker:
//!
//! ```text
//! // analyze: allow(nondet-iteration) -- order-insensitive: <why>
//! ```
//!
//! A standalone marker applies to the next code line; a trailing marker to
//! its own line. A marker without a `-- reason` is itself a finding
//! (`bad-suppression`), as is a marker that matches nothing
//! (`unused-suppression`) — suppressions cannot rot silently. A marker is
//! the only way to silence a finding: nothing is grandfathered.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod lexer;
pub mod lints;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lexer::{lex, Comment, Token, TokenKind};

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// The lint that fired (one of [`lints::LINTS`] or a pseudo-lint).
    pub lint: &'static str,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human explanation, including the suggested fix.
    pub message: String,
    /// The trimmed source line.
    pub snippet: String,
}

/// A lexed, test-stripped source file ready for the passes.
pub struct SourceFile {
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// Owning crate: `crates/X/src/… → "X"`, `src/… → "root"`,
    /// `xtask/src/… → "xtask"`.
    pub crate_name: String,
    /// Code tokens with `#[cfg(test)]` / `#[test]` items stripped — test
    /// code may freely use host collections and `.unwrap()`.
    pub tokens: Vec<Token>,
    /// All comments (suppression markers live here).
    pub comments: Vec<Comment>,
    /// Lines that carry at least one code token *before* stripping; used to
    /// anchor standalone suppression markers to the next code line.
    pub code_lines: BTreeSet<u32>,
    lines: Vec<String>,
}

impl SourceFile {
    /// Lexes and strips `src` under the given repo-relative `path`.
    #[must_use]
    pub fn new(path: &str, src: &str) -> Self {
        let lexed = lex(src);
        let code_lines: BTreeSet<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        SourceFile {
            path: path.to_string(),
            crate_name: crate_of(path),
            tokens: strip_tests(lexed.tokens),
            comments: lexed.comments,
            code_lines,
            lines: src.lines().map(str::to_string).collect(),
        }
    }

    /// The trimmed text of `line` (1-based), or empty when out of range.
    #[must_use]
    pub fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }
}

/// Maps a repo-relative path to its owning crate name.
#[must_use]
pub fn crate_of(path: &str) -> String {
    let p = path.replace('\\', "/");
    if let Some(rest) = p.strip_prefix("crates/") {
        if let Some((name, _)) = rest.split_once('/') {
            return name.to_string();
        }
    }
    if p.starts_with("xtask/") {
        return "xtask".to_string();
    }
    "root".to_string()
}

/// Cross-file facts the passes need: per crate, the set of identifier names
/// declared with a std `HashMap`/`HashSet` type (D1's iteration targets).
/// Scoped per crate so an unrelated binding of the same name in another
/// crate cannot cause a false positive.
#[derive(Debug, Default)]
pub struct WorkspaceIndex {
    /// crate name → binding/field names of hash-ordered collections.
    pub hash_names: BTreeMap<String, BTreeSet<String>>,
}

impl WorkspaceIndex {
    /// Builds the index over all files.
    #[must_use]
    pub fn build(files: &[SourceFile]) -> Self {
        let mut idx = WorkspaceIndex::default();
        for f in files {
            // Only files that actually pull in the std hash types: the
            // stamp crate defines its own *simulated* `HashSet` workload
            // structure, which is deterministic and must not be indexed.
            if !uses_std_hash(&f.tokens) {
                continue;
            }
            let names = idx.hash_names.entry(f.crate_name.clone()).or_default();
            let t = &f.tokens;
            for i in 0..t.len() {
                if t[i].kind == TokenKind::Ident
                    && (t[i].text == "HashMap" || t[i].text == "HashSet")
                    && i >= 2
                    && t[i - 2].kind == TokenKind::Ident
                    && (t[i - 1].is_punct(":") || t[i - 1].is_punct("="))
                {
                    // `name: HashMap<…>` (field/param/struct-literal) or
                    // `let name = HashMap::new()` / `with_capacity(…)`.
                    names.insert(t[i - 2].text.clone());
                }
            }
        }
        idx
    }
}

/// Whether the token stream imports or names a std hash-randomized type.
fn uses_std_hash(t: &[Token]) -> bool {
    t.windows(5).any(|w| {
        w[0].is_ident("std")
            && w[1].is_punct(":")
            && w[2].is_punct(":")
            && w[3].is_ident("collections")
            && w[4].is_punct(":")
    })
}

/// Removes `#[cfg(test)]`-gated items and `#[test]` functions from the
/// token stream: test code is allowed to use host collections, raw shifts
/// with assert-checked inputs, and `.unwrap()`.
#[must_use]
pub fn strip_tests(tokens: Vec<Token>) -> Vec<Token> {
    let t = tokens;
    let mut out = Vec::with_capacity(t.len());
    let mut i = 0usize;
    while i < t.len() {
        if t[i].is_punct("#") && t.get(i + 1).is_some_and(|x| x.is_punct("[")) {
            let is_cfg_test = t.get(i + 2).is_some_and(|x| x.is_ident("cfg"))
                && t.get(i + 3).is_some_and(|x| x.is_punct("("))
                && t.get(i + 4).is_some_and(|x| x.is_ident("test"))
                && t.get(i + 5).is_some_and(|x| x.is_punct(")"))
                && t.get(i + 6).is_some_and(|x| x.is_punct("]"));
            let is_test = t.get(i + 2).is_some_and(|x| x.is_ident("test"))
                && t.get(i + 3).is_some_and(|x| x.is_punct("]"));
            if is_cfg_test || is_test {
                let mut j = i + if is_cfg_test { 7 } else { 4 };
                // Skip any further attributes on the same item.
                while t.get(j).is_some_and(|x| x.is_punct("#"))
                    && t.get(j + 1).is_some_and(|x| x.is_punct("["))
                {
                    let mut depth = 0i32;
                    while j < t.len() {
                        if t[j].is_punct("[") {
                            depth += 1;
                        } else if t[j].is_punct("]") {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        j += 1;
                    }
                }
                i = skip_item(&t, j);
                continue;
            }
        }
        out.push(t[i].clone());
        i += 1;
    }
    out
}

/// Skips one item starting at `i`: consumes up to and including either a
/// `;` or a balanced `{ … }` body at the top level.
fn skip_item(t: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < t.len() {
        let tok = &t[j];
        if tok.is_punct("(") || tok.is_punct("[") {
            depth += 1;
        } else if tok.is_punct(")") || tok.is_punct("]") {
            depth -= 1;
        } else if depth == 0 && tok.is_punct(";") {
            return j + 1;
        } else if depth == 0 && tok.is_punct("{") {
            let mut b = 1i32;
            let mut k = j + 1;
            while k < t.len() && b > 0 {
                if t[k].is_punct("{") {
                    b += 1;
                } else if t[k].is_punct("}") {
                    b -= 1;
                }
                k += 1;
            }
            return k;
        }
        j += 1;
    }
    j
}

/// One parsed `// analyze: allow(<lint>) -- <reason>` marker.
#[derive(Debug)]
struct Suppression {
    lint: String,
    has_reason: bool,
    known: bool,
    comment_line: u32,
    anchor: u32,
    used: bool,
}

/// Parses the suppression markers of one file, anchoring each to the line
/// it governs.
fn parse_suppressions(file: &SourceFile) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in &file.comments {
        // Doc comments (`///…` lexes as text starting with `/`, `//!…`
        // with `!`) are prose *about* the marker syntax, never markers.
        if c.text.starts_with('/') || c.text.starts_with('!') {
            continue;
        }
        let Some(rest) = c.text.split("analyze:").nth(1) else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else {
            continue;
        };
        let Some((lint, after)) = rest.split_once(')') else {
            continue;
        };
        let lint = lint.trim().to_string();
        let reason = after
            .split_once("--")
            .map(|(_, r)| r.trim())
            .unwrap_or_default();
        let anchor = if c.standalone {
            // A standalone marker governs the next line that carries code.
            file.code_lines
                .range(c.line + 1..)
                .next()
                .copied()
                .unwrap_or(c.line)
        } else {
            c.line
        };
        out.push(Suppression {
            known: lints::LINTS.contains(&lint.as_str()),
            lint,
            has_reason: !reason.is_empty(),
            comment_line: c.line,
            anchor,
            used: false,
        });
    }
    out
}

/// The result of an analysis run.
#[derive(Debug, Default)]
pub struct Report {
    /// Actionable findings (unsuppressed), sorted by (path, line, lint).
    pub findings: Vec<Finding>,
    /// Findings silenced by justified allow markers, per lint — the
    /// diffable inventory CI uploads, so a PR that grows the number of
    /// justified exceptions shows up in the artifact diff even though the
    /// gate still passes.
    pub suppressed_by_lint: BTreeMap<&'static str, usize>,
    /// Files analyzed.
    pub files: usize,
}

impl Report {
    /// Whether the run is clean (gate passes).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings silenced by justified allow markers, over all lints.
    #[must_use]
    pub fn suppressed(&self) -> usize {
        self.suppressed_by_lint.values().sum()
    }
}

/// Runs all passes over `files`, applies suppressions, and returns the
/// report. This is the deterministic core: same sources in, same report
/// out, independent of filesystem enumeration order.
#[must_use]
pub fn analyze_sources(mut files: Vec<SourceFile>) -> Report {
    files.sort_by(|a, b| a.path.cmp(&b.path));
    let index = WorkspaceIndex::build(&files);
    // Workspace passes (D9) see every file at once; their findings are
    // bucketed by path so the per-file suppression machinery below governs
    // them exactly like single-file findings.
    let graph = callgraph::CallGraph::build(&files);
    let mut ws_buckets: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    {
        let mut ws: Vec<Finding> = Vec::new();
        lints::run_workspace_passes(&files, &graph, &mut ws);
        for f in ws {
            ws_buckets.entry(f.path.clone()).or_default().push(f);
        }
    }
    let mut report = Report {
        files: files.len(),
        ..Report::default()
    };
    let mut findings: Vec<Finding> = Vec::new();
    for f in &files {
        let mut raw: Vec<Finding> = Vec::new();
        lints::run_passes(f, &index, &mut raw);
        if let Some(mut ws) = ws_buckets.remove(&f.path) {
            raw.append(&mut ws);
        }
        let mut sups = parse_suppressions(f);
        raw.retain(|finding| {
            let suppressed = sups.iter_mut().any(|s| {
                let hit =
                    s.known && s.has_reason && s.lint == finding.lint && s.anchor == finding.line;
                if hit {
                    s.used = true;
                }
                hit
            });
            if suppressed {
                *report.suppressed_by_lint.entry(finding.lint).or_default() += 1;
            }
            !suppressed
        });
        findings.append(&mut raw);
        for s in &sups {
            if !s.has_reason {
                findings.push(Finding {
                    lint: lints::BAD_SUPPRESSION,
                    path: f.path.clone(),
                    line: s.comment_line,
                    message: format!(
                        "suppression of `{}` has no `-- <reason>`: every allow marker \
                         must record why the finding is acceptable",
                        s.lint
                    ),
                    snippet: f.snippet(s.comment_line),
                });
            } else if !s.known {
                findings.push(Finding {
                    lint: lints::BAD_SUPPRESSION,
                    path: f.path.clone(),
                    line: s.comment_line,
                    message: format!(
                        "suppression names unknown lint `{}` (known: {})",
                        s.lint,
                        lints::LINTS.join(", ")
                    ),
                    snippet: f.snippet(s.comment_line),
                });
            } else if !s.used {
                findings.push(Finding {
                    lint: lints::UNUSED_SUPPRESSION,
                    path: f.path.clone(),
                    line: s.comment_line,
                    message: format!(
                        "suppression of `{}` matches no finding on its line; delete it \
                         (or re-anchor it to the line it should govern)",
                        s.lint
                    ),
                    snippet: f.snippet(s.comment_line),
                });
            }
        }
    }
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.lint).cmp(&(b.path.as_str(), b.line, b.lint)));
    report.findings = findings;
    report
}

/// Analyzes a single in-memory file (the ui-fixture entry point): the index
/// is built from that file alone.
#[must_use]
pub fn analyze_file(path: &str, src: &str) -> Report {
    analyze_sources(vec![SourceFile::new(path, src)])
}

/// Discovers the workspace's shipped sources under `root`: `src/`,
/// `crates/*/src/`, and `xtask/src/`. Integration tests, benches, and
/// examples are host-side by definition and are not walked (unit tests
/// inside `src/` are stripped token-wise instead).
pub fn discover_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut found = Vec::new();
    let mut roots: Vec<PathBuf> = vec![root.join("src"), root.join("xtask").join("src")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            roots.push(entry?.path().join("src"));
        }
    }
    for r in roots {
        if r.is_dir() {
            walk(&r, &mut found)?;
        }
    }
    found.sort();
    Ok(found)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            walk(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Discovers, loads, and analyzes the workspace at `root`.
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    for p in discover_sources(root)? {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(&p)?;
        files.push(SourceFile::new(&rel, &src));
    }
    Ok(analyze_sources(files))
}

/// Renders the human-readable report.
#[must_use]
pub fn render_text(report: &Report) -> String {
    let mut s = String::new();
    for f in &report.findings {
        let _ = writeln!(s, "{}:{}: [{}] {}", f.path, f.line, f.lint, f.message);
        if !f.snippet.is_empty() {
            let _ = writeln!(s, "    | {}", f.snippet);
        }
    }
    let _ = writeln!(
        s,
        "analyze: {} finding(s) across {} file(s) ({} suppressed)",
        report.findings.len(),
        report.files,
        report.suppressed(),
    );
    s
}

/// Renders the machine-readable report (for the CI artifact). Hand-rolled
/// like `ufotm-core`'s run reports — the workspace has no serde.
#[must_use]
pub fn render_json(report: &Report) -> String {
    let mut s = String::from("{\n  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n    {{\"lint\": {}, \"path\": {}, \"line\": {}, \"message\": {}, \
             \"snippet\": {}}}",
            if i == 0 { "" } else { "," },
            json_str(f.lint),
            json_str(&f.path),
            f.line,
            json_str(&f.message),
            json_str(&f.snippet),
        );
    }
    if !report.findings.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("],\n  \"suppressed_by_lint\": {");
    for (i, (lint, n)) in report.suppressed_by_lint.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n    {}: {}",
            if i == 0 { "" } else { "," },
            json_str(lint),
            n
        );
    }
    if !report.suppressed_by_lint.is_empty() {
        s.push_str("\n  ");
    }
    let _ = write!(
        s,
        "}},\n  \"files\": {},\n  \"suppressed\": {},\n  \"clean\": {}\n}}\n",
        report.files,
        report.suppressed(),
        report.is_clean()
    );
    s
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_mapping() {
        assert_eq!(crate_of("crates/machine/src/btm.rs"), "machine");
        assert_eq!(crate_of("src/main.rs"), "root");
        assert_eq!(crate_of("xtask/src/main.rs"), "xtask");
    }

    #[test]
    fn test_items_are_stripped() {
        let src = "fn live() { a.iter(); }\n\
                   #[cfg(test)]\nmod tests { fn t() { b.iter(); } }\n\
                   #[test]\nfn unit() { c.iter(); }\n\
                   fn live2() {}\n";
        let f = SourceFile::new("crates/core/src/x.rs", src);
        let idents: Vec<&str> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert!(idents.contains(&"live"));
        assert!(idents.contains(&"live2"));
        assert!(!idents.contains(&"tests"));
        assert!(!idents.contains(&"unit"));
    }

    #[test]
    fn suppression_round_trip() {
        let src = "use std::collections::HashMap;\n\
                   struct S { m: HashMap<u64, u64> }\n\
                   impl S {\n\
                       fn f(&self) {\n\
                           // analyze: allow(nondet-iteration) -- test justification\n\
                           for k in self.m.keys() { let _ = k; }\n\
                       }\n\
                   }\n";
        let r = analyze_file("crates/core/src/x.rs", src);
        assert!(r.is_clean(), "unexpected findings: {:?}", r.findings);
        assert_eq!(r.suppressed(), 1);
    }

    #[test]
    fn json_is_escaped() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
