//! A workspace-wide function and call-graph index.
//!
//! The single-file token passes (D1, D2, D4, D5) can only see invariants
//! that are local to one statement. The guard's async-signal-safety claim is not:
//! "nothing reachable from the SIGSEGV handler allocates, locks, or
//! panics" is a property of the *call graph*, and checking it needs the
//! whole workspace lexed at once. This module builds that index:
//!
//! * every `fn` definition, per crate, with its body's token range;
//! * intra-workspace call edges, resolved **by name within the defining
//!   crate** (the workspace has no name resolution, so a call edge means
//!   "some function of this name exists in this crate" — deliberately an
//!   over-approximation);
//! * signal-handler roots: functions whose name is taken as a function
//!   pointer inside a body that touches `rt_sigaction`, plus functions
//!   carrying an explicit `analyze: signal-handler-root` marker comment;
//! * cycle-safe reachability with recorded parent edges, so a finding can
//!   print the call path from the root to the offending line.
//!
//! ## What "conservative over method calls" means here
//!
//! A method call `x.f(…)` resolves to *every* function named `f` in the
//! crate — receivers are invisible at token level, so the graph
//! over-approximates rather than miss a real edge. The one carve-out is
//! [`PRIMITIVE_METHODS`]: method names that are overwhelmingly std
//! atomic/pointer primitives (`load`, `store`, `fetch_add`, `cast`, …).
//! Without the carve-out every `AtomicU64::load` in a handler would
//! resolve to the heap's `fn load` and drag the whole crate into the
//! handler's reachable set; with it, a handler that really does call a
//! workspace `load` goes unchecked — that hole is documented in
//! `docs/STATIC_ANALYSIS.md` and is the price of name-only resolution.
//! Qualified calls whose path starts at `std`/`core`/`alloc` are external
//! by construction and never resolve into the workspace.

use std::collections::BTreeMap;

use crate::lexer::TokenKind;
use crate::SourceFile;

/// Method names assumed to be std atomic/pointer/iterator primitives:
/// `.name(…)` calls through these do **not** resolve to same-named
/// workspace functions (see module docs for the trade-off).
pub const PRIMITIVE_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "cast",
    "add",
    "sub",
    "offset",
    "read",
    "write",
    "read_volatile",
    "write_volatile",
];

/// One `fn` definition found in the workspace.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Owning crate (path-derived, as [`crate::crate_of`]).
    pub crate_name: String,
    /// The function's name.
    pub name: String,
    /// Index of the defining file in the slice passed to [`CallGraph::build`].
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range `[start, end)` of the body, *including* the braces.
    /// `start == end` for bodyless trait signatures.
    pub body: (usize, usize),
    /// Whether this function is a signal-handler root.
    pub root: bool,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every function definition, in (file, token) order.
    pub fns: Vec<FnDef>,
    /// Call edges: `edges[i]` lists the indices of functions `fns[i]` may
    /// call (name-resolved, deduplicated, sorted).
    pub edges: Vec<Vec<usize>>,
    /// (crate, fn name) → indices into `fns` (a name may be defined by
    /// several impls; resolution takes the union).
    by_name: BTreeMap<(String, String), Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph over `files` (the same slice the passes run on;
    /// file indices in [`FnDef::file`] refer to it).
    #[must_use]
    pub fn build(files: &[SourceFile]) -> Self {
        let mut g = CallGraph::default();
        for (fi, f) in files.iter().enumerate() {
            collect_fns(fi, f, &mut g);
        }
        for (i, d) in g.fns.iter().enumerate() {
            let key = (d.crate_name.clone(), d.name.clone());
            g.by_name.entry(key).or_default().push(i);
        }
        g.edges = g
            .fns
            .iter()
            .map(|d| collect_edges(d, &files[d.file], &g.by_name))
            .collect();
        mark_sigaction_roots(&mut g, files);
        g
    }

    /// Indices of every signal-handler root.
    #[must_use]
    pub fn roots(&self) -> Vec<usize> {
        (0..self.fns.len()).filter(|&i| self.fns[i].root).collect()
    }

    /// Cycle-safe BFS from `start`: returns, for every reachable function
    /// index, the index of the function it was first reached *from*
    /// (`start` maps to itself). Visiting each node once makes recursion
    /// and mutual recursion terminate.
    #[must_use]
    pub fn reachable_from(&self, start: usize) -> BTreeMap<usize, usize> {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        parent.insert(start, start);
        let mut queue = vec![start];
        while let Some(n) = queue.pop() {
            for &callee in &self.edges[n] {
                if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(callee) {
                    e.insert(n);
                    queue.push(callee);
                }
            }
        }
        parent
    }

    /// The call path `root → … → target` as function names, following the
    /// parent map from [`CallGraph::reachable_from`].
    #[must_use]
    pub fn path_to(&self, parent: &BTreeMap<usize, usize>, target: usize) -> String {
        let mut chain = vec![target];
        let mut cur = target;
        while let Some(&p) = parent.get(&cur) {
            if p == cur {
                break;
            }
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain
            .iter()
            .map(|&i| self.fns[i].name.as_str())
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// Scans one file for `fn` definitions. Nested `fn`s are collected in
/// their own right; their tokens also remain inside the enclosing body's
/// range, which only widens (never narrows) reachability.
fn collect_fns(fi: usize, f: &SourceFile, g: &mut CallGraph) {
    let t = &f.tokens;
    // Marker comments: `analyze: signal-handler-root` governs the next
    // `fn` at or below its line (doc comments are prose, not markers).
    let marker_lines: Vec<u32> = f
        .comments
        .iter()
        .filter(|c| !c.text.starts_with('/') && !c.text.starts_with('!'))
        .filter(|c| {
            c.text
                .split("analyze:")
                .nth(1)
                .is_some_and(|r| r.trim_start().starts_with("signal-handler-root"))
        })
        .map(|c| c.line)
        .collect();
    let mut i = 0usize;
    while i < t.len() {
        if t[i].is_ident("fn") && t.get(i + 1).is_some_and(|n| n.kind == TokenKind::Ident)
        // `unsafe(naked)` lexes `unsafe ( naked )`; an `fn` preceded by
        // `(` can only be a fn-pointer type like `Option<fn(usize)>`,
        // never a definition — but those have no name token anyway.
        {
            let name = t[i + 1].text.clone();
            let line = t[i].line;
            // Find the body's `{` (or `;` for a bodyless signature),
            // skipping the parameter list and any return type.
            let mut j = i + 2;
            let mut depth = 0i32;
            let body = loop {
                let Some(tok) = t.get(j) else {
                    break (j, j);
                };
                if tok.is_punct("(") || tok.is_punct("[") {
                    depth += 1;
                } else if tok.is_punct(")") || tok.is_punct("]") {
                    depth -= 1;
                } else if depth == 0 && tok.is_punct(";") {
                    break (j, j);
                } else if depth == 0 && tok.is_punct("{") {
                    // Balance the braces to the body's end.
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
                    break (j, k);
                }
                j += 1;
            };
            let root = marker_lines
                .iter()
                .any(|&m| m < line && f.code_lines.range(m + 1..=line).next() == Some(&line));
            g.fns.push(FnDef {
                crate_name: f.crate_name.clone(),
                name,
                file: fi,
                line,
                body,
                root,
            });
        }
        i += 1;
    }
}

/// Extracts the call edges of one function body.
fn collect_edges(
    d: &FnDef,
    f: &SourceFile,
    by_name: &BTreeMap<(String, String), Vec<usize>>,
) -> Vec<usize> {
    let t = &f.tokens;
    let mut out: Vec<usize> = Vec::new();
    let resolve = |name: &str, out: &mut Vec<usize>| {
        if let Some(ids) = by_name.get(&(d.crate_name.clone(), name.to_string())) {
            out.extend(ids.iter().copied());
        }
    };
    let (start, end) = d.body;
    for i in start..end.min(t.len()) {
        if t[i].kind != TokenKind::Ident {
            continue;
        }
        let name = t[i].text.as_str();
        let prev_dot = i > start && t[i - 1].is_punct(".");
        let next_paren = t.get(i + 1).is_some_and(|x| x.is_punct("("));
        // Turbofish method call: `.cast::<u8>(…)`.
        let next_turbofish = t.get(i + 1).is_some_and(|x| x.is_punct(":"))
            && t.get(i + 2).is_some_and(|x| x.is_punct(":"))
            && t.get(i + 3).is_some_and(|x| x.is_punct("<"));
        if prev_dot && (next_paren || next_turbofish) {
            // Method call: conservative name resolution, minus the std
            // primitive carve-out.
            if !PRIMITIVE_METHODS.contains(&name) {
                resolve(name, &mut out);
            }
            continue;
        }
        if next_paren && !prev_dot {
            // Plain or path-qualified call. `fn name(` is the definition
            // itself, not a call.
            if i > start && t[i - 1].is_ident("fn") {
                continue;
            }
            if let Some(first) = path_first_segment(t, i, start) {
                if first == "std" || first == "core" || first == "alloc" {
                    continue; // external, never a workspace edge
                }
            }
            resolve(name, &mut out);
            continue;
        }
        // Function-pointer reference: `name as <type>` (how a handler is
        // handed to `rt_sigaction`).
        if t.get(i + 1).is_some_and(|x| x.is_ident("as")) {
            resolve(name, &mut out);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// For a call at token `i`, walks `seg :: seg :: name` back to the path's
/// first segment (`None` when the name is unqualified).
fn path_first_segment(t: &[crate::lexer::Token], i: usize, start: usize) -> Option<&str> {
    let mut cur = i;
    let mut first: Option<&str> = None;
    while cur >= start + 3
        && t[cur - 1].is_punct(":")
        && t[cur - 2].is_punct(":")
        && t[cur - 3].kind == TokenKind::Ident
    {
        cur -= 3;
        first = Some(t[cur].text.as_str());
    }
    first
}

/// Marks rt_sigaction-registered handlers as roots: inside any body that
/// names `rt_sigaction` (`SYS_RT_SIGACTION`, a libc `sigaction`, …), every
/// workspace function whose name is taken with `name as` is a handler
/// being registered.
fn mark_sigaction_roots(g: &mut CallGraph, files: &[SourceFile]) {
    let mut roots: Vec<usize> = Vec::new();
    for d in &g.fns {
        let f = &files[d.file];
        let t = &f.tokens;
        let (start, end) = d.body;
        let mentions_sigaction = t[start..end.min(t.len())].iter().any(|tok| {
            tok.kind == TokenKind::Ident && tok.text.to_ascii_lowercase().contains("sigaction")
        });
        if !mentions_sigaction {
            continue;
        }
        for i in start..end.min(t.len()) {
            if t[i].kind == TokenKind::Ident && t.get(i + 1).is_some_and(|x| x.is_ident("as")) {
                if let Some(ids) = g.by_name.get(&(d.crate_name.clone(), t[i].text.clone())) {
                    roots.extend(ids.iter().copied());
                }
            }
        }
    }
    for r in roots {
        g.fns[r].root = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(src: &str) -> (CallGraph, Vec<SourceFile>) {
        let files = vec![SourceFile::new("crates/native/src/g.rs", src)];
        let g = CallGraph::build(&files);
        (g, files)
    }

    fn idx(g: &CallGraph, name: &str) -> usize {
        g.fns.iter().position(|d| d.name == name).unwrap()
    }

    #[test]
    fn defs_and_direct_edges() {
        let (g, _) = graph("fn a() { b(); }\nfn b() { c(3); }\nfn c(x: u64) {}\n");
        assert_eq!(g.fns.len(), 3);
        let (a, b, c) = (idx(&g, "a"), idx(&g, "b"), idx(&g, "c"));
        assert_eq!(g.edges[a], vec![b]);
        assert_eq!(g.edges[b], vec![c]);
        assert!(g.edges[c].is_empty());
    }

    #[test]
    fn reachability_is_cycle_safe() {
        // a → b → c → a (cycle) plus c → d; e is unreachable.
        let (g, _) = graph(
            "fn a() { b(); }\nfn b() { c(); }\nfn c() { a(); d(); }\nfn d() {}\nfn e() { a(); }\n",
        );
        let a = idx(&g, "a");
        let reach = g.reachable_from(a);
        let names: Vec<&str> = reach.keys().map(|&i| g.fns[i].name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c", "d"]);
        let d = idx(&g, "d");
        assert_eq!(g.path_to(&reach, d), "a -> b -> c -> d");
    }

    #[test]
    fn sigaction_registration_marks_roots() {
        let src = "const SYS_RT_SIGACTION: usize = 13;\n\
                   fn handler() {}\n\
                   fn helper() {}\n\
                   fn install() { let h = handler as usize; let _ = (SYS_RT_SIGACTION, h); }\n";
        let (g, _) = graph(src);
        assert!(g.fns[idx(&g, "handler")].root);
        assert!(!g.fns[idx(&g, "helper")].root);
        assert!(!g.fns[idx(&g, "install")].root);
    }

    #[test]
    fn marker_comment_marks_root() {
        let src = "// analyze: signal-handler-root\nfn h() {}\nfn other() {}\n";
        let (g, _) = graph(src);
        assert!(g.fns[idx(&g, "h")].root);
        assert!(!g.fns[idx(&g, "other")].root);
    }

    #[test]
    fn primitive_methods_and_external_paths_do_not_resolve() {
        let src = "fn load() { panic!(\"workspace load\"); }\n\
                   fn read() {}\n\
                   fn h() { X.load(core::sync::atomic::Ordering::SeqCst); core::ptr::read(p); }\n";
        let (g, _) = graph(src);
        let h = idx(&g, "h");
        assert!(
            g.edges[h].is_empty(),
            "atomic .load and core::ptr::read must not resolve into the workspace: {:?}",
            g.edges[h]
        );
    }

    #[test]
    fn method_calls_resolve_conservatively() {
        let src = "fn publish(&self) {}\nfn h(w: W) { w.publish(); }\n";
        let (g, _) = graph(src);
        let h = idx(&g, "h");
        assert_eq!(g.edges[h], vec![idx(&g, "publish")]);
    }
}
