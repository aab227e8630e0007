//! The repo-specific lint passes (D1, D2, D4, D5, D9). D6 and D7 are
//! retired; D3, D8 and D10 moved to clippy (the `clippy.toml` files and
//! `docs/STATIC_ANALYSIS.md`'s "Checked by clippy" table). No number is
//! reused.
//!
//! Each pass is a token-level pattern matcher over [`crate::lexer::Lexed`]
//! streams with test code stripped. The passes encode *protocol* rules
//! neither the compiler nor clippy can check — every one of them
//! corresponds to a bug class this repo has actually shipped (see
//! `docs/STATIC_ANALYSIS.md` for the history):
//!
//! * [`NONDET_ITERATION`] — iterating a `HashMap`/`HashSet` in a
//!   cycle-charged crate (the PR-3 replay-divergence class).
//! * [`UNCHECKED_CPU_SHIFT`] — a raw `1 << cpu`-shaped shift outside the
//!   checked `cpu_bit` helper (the PR-4 owner-mask overflow class).
//! * [`STATS_MERGE_EXHAUSTIVENESS`] — a stats `fn merge` that does not
//!   destructure every field (silently drops new counters).
//! * [`PANICKING_MACHINE_ACCESS`] — `.unwrap()`/`.expect()` chained
//!   directly onto a machine access in simulation code instead of the
//!   audited `PlainAccess::plain` route (defined in `ufotm-machine`). It
//!   matches the chained form *and* the bound form
//!   (`let r = m.load(…); … r.unwrap()`), via a per-function local binding
//!   dataflow.
//!
//! One pass rides on the workspace call graph ([`crate::callgraph`]):
//!
//! * [`SIGNAL_UNSAFE_REACHABLE`] — anything reachable from a signal
//!   handler root (a function registered via `rt_sigaction`, or marked
//!   `analyze: signal-handler-root`) that allocates, takes a lock,
//!   panics, or touches stdio. A signal handler interrupts an arbitrary
//!   instruction on an arbitrary thread: an allocation can deadlock on
//!   the allocator's own lock, a mutex can self-deadlock, and a panic
//!   unwinds through a frame that never expected it — exactly when the
//!   strong-atomicity guard is busiest. The guard's handler must stay
//!   atomics + raw syscalls, and this pass machine-checks that instead
//!   of trusting a doc comment.
//!
//! The determinism scope fails closed: every crate is deterministic (D5
//! applies) unless [`HOST_EXEMPT`] names it with a recorded justification,
//! so a new crate gets the determinism lints without anyone listing it.
//! The same list decides which crates carry their own `clippy.toml` (and
//! so escape the root file's host-nondeterminism ban); a ui test keeps the
//! two equal.

use std::collections::BTreeMap;

use crate::callgraph::CallGraph;
use crate::lexer::{Token, TokenKind};
use crate::{Finding, SourceFile, WorkspaceIndex};

/// Lint name: nondeterministic iteration in a cycle-charged crate.
pub const NONDET_ITERATION: &str = "nondet-iteration";
/// Lint name: raw `1 << cpu` shift outside the checked helper.
pub const UNCHECKED_CPU_SHIFT: &str = "unchecked-cpu-shift";
/// Lint name: `fn merge` without an exhaustive field destructure.
pub const STATS_MERGE_EXHAUSTIVENESS: &str = "stats-merge-exhaustiveness";
/// Lint name: panicking call chained onto a machine access.
pub const PANICKING_MACHINE_ACCESS: &str = "panicking-machine-access";
/// Lint name: allocation/lock/panic/stdio reachable from a signal handler.
pub const SIGNAL_UNSAFE_REACHABLE: &str = "signal-unsafe-reachable";
/// Pseudo-lint: a suppression marker missing its `-- <reason>`.
pub const BAD_SUPPRESSION: &str = "bad-suppression";
/// Pseudo-lint: a suppression marker that matched no finding.
pub const UNUSED_SUPPRESSION: &str = "unused-suppression";

/// Every real lint (suppressible via `analyze: allow(...)`).
pub const LINTS: &[&str] = &[
    NONDET_ITERATION,
    UNCHECKED_CPU_SHIFT,
    STATS_MERGE_EXHAUSTIVENESS,
    PANICKING_MACHINE_ACCESS,
    SIGNAL_UNSAFE_REACHABLE,
];

/// Crates whose code runs under the cycle-charged simulation clock: any
/// observable iteration order here is replayed bit-for-bit, so hasher
/// randomness is a determinism bug (D1 scope).
pub const CYCLE_CHARGED: &[&str] = &["machine", "ustm", "tl2", "core"];

/// Crates deliberately allowed to observe host state, each with the
/// recorded justification for its exemption. Every other crate must be
/// free of *host* nondeterminism (D5 and the root `clippy.toml`'s scope):
/// everything that runs inside (or drives) the deterministic simulation —
/// `bench` included, since its artifacts are byte-deterministic and host
/// time is measured in `benchmark/` only — and any crate added later,
/// until it is listed here.
pub const HOST_EXEMPT: &[(&str, &str)] = &[
    (
        "analyze",
        "host tooling: walks the filesystem, never runs under the simulated clock",
    ),
    (
        "xtask",
        "host tooling: drives cargo, CI gates, and artifact diffing",
    ),
    (
        "native",
        "host-atomics backend (TL2 fast path, redo-log USTM slow path, mprotect \
         strong-atomicity guard, failover hybrid driver): real races, raw signal \
         handling, and wall-clock timing are its product, not a contaminant",
    ),
];

/// Machine access methods whose results must not be unwrapped inline on
/// plain-access paths (D5). The audited escape hatch is
/// `PlainAccess::plain`, which names the operation in its panic message.
const MACHINE_METHODS: &[&str] = &[
    "with",
    "load",
    "store",
    "work",
    "stall",
    "btm_begin",
    "btm_end",
    "btm_event",
    "read_ufo_bits",
    "set_ufo_bits",
    "add_ufo_bits",
];

/// HashMap/HashSet iteration methods whose visit order is hasher-dependent.
const NONDET_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "retain",
];

/// Shift bases that make `base << ident` a CPU-mask-shaped shift (D2).
const SHIFT_BASES: &[&str] = &["1", "1u8", "1u16", "1u32", "1u64", "1u128", "1usize"];

/// Functions whose bodies are allowed to contain the raw shift (D2): the
/// checked helper itself.
const SHIFT_HELPERS: &[&str] = &["cpu_bit"];

/// Allocating constructors (D9): `Type::anything(…)` on these types goes
/// through the global allocator, which may hold its own lock at the
/// instant a signal interrupts the thread.
const ALLOC_TYPES: &[&str] = &["Box", "Vec", "String"];

/// Allocating macros (D9).
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Allocating methods (D9).
const ALLOC_METHODS: &[&str] = &["to_string", "to_owned", "to_vec"];

/// Panicking macros (D9): unwinding out of a signal handler is UB-adjacent
/// at best, and the panic machinery itself allocates and takes locks.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];

/// Stdio macros (D9): `println!` takes the stdout lock — a handler
/// interrupting a thread that holds it deadlocks.
const STDIO_MACROS: &[&str] = &["println", "print", "eprintln", "eprint", "dbg"];

/// Runs every pass that applies to `file`, appending findings to `out`.
pub fn run_passes(file: &SourceFile, index: &WorkspaceIndex, out: &mut Vec<Finding>) {
    if CYCLE_CHARGED.contains(&file.crate_name.as_str()) {
        nondet_iteration(file, index, out);
    }
    unchecked_cpu_shift(file, out);
    stats_merge_exhaustiveness(file, out);
    if !HOST_EXEMPT.iter().any(|(c, _)| *c == file.crate_name) {
        unwraps(file, out);
    }
}

/// Runs the call-graph passes, which see the whole workspace at once
/// (call edges cross files). Findings land on whichever file holds the
/// offending line, so the normal per-file suppression machinery governs
/// them like any other finding.
pub fn run_workspace_passes(files: &[SourceFile], graph: &CallGraph, out: &mut Vec<Finding>) {
    signal_unsafe_reachable(files, graph, out);
}

fn push(out: &mut Vec<Finding>, lint: &'static str, file: &SourceFile, line: u32, message: String) {
    // One finding per (lint, line) per file: the passes overlap on purpose
    // (e.g. a `for` loop over `map.iter()` matches both D1 patterns).
    if out
        .iter()
        .any(|f| f.lint == lint && f.path == file.path && f.line == line)
    {
        return;
    }
    out.push(Finding {
        lint,
        path: file.path.clone(),
        line,
        message,
        snippet: file.snippet(line),
    });
}

/// D1: flags iteration over identifiers the [`WorkspaceIndex`] recorded as
/// `HashMap`/`HashSet` bindings in this crate — both explicit adaptor calls
/// (`m.iter()`, `m.drain()`, …) and `for … in` headers that mention an
/// indexed name (`for (k, v) in &m`).
fn nondet_iteration(file: &SourceFile, index: &WorkspaceIndex, out: &mut Vec<Finding>) {
    let Some(names) = index.hash_names.get(&file.crate_name) else {
        return;
    };
    let t = &file.tokens;
    for i in 0..t.len() {
        // name . iter (   — adaptor call on an indexed binding.
        if t[i].kind == TokenKind::Ident && names.contains(&t[i].text) {
            if let (Some(dot), Some(m), Some(paren)) = (t.get(i + 1), t.get(i + 2), t.get(i + 3)) {
                if dot.is_punct(".")
                    && m.kind == TokenKind::Ident
                    && NONDET_ITER_METHODS.contains(&m.text.as_str())
                    && paren.is_punct("(")
                {
                    push(
                        out,
                        NONDET_ITERATION,
                        file,
                        m.line,
                        format!(
                            "`{}.{}()` visits entries in hasher order; iteration order is \
                             observable in a cycle-charged crate (use a BTree collection, \
                             sort first, or justify with an allow marker)",
                            t[i].text, m.text
                        ),
                    );
                }
            }
        }
        // for <pat> in <expr> {   — expr mentions an indexed binding.
        if t[i].is_ident("for") {
            let mut depth = 0i32;
            let mut j = i + 1;
            let mut in_expr = false;
            while j < t.len() {
                let tok = &t[j];
                if tok.is_punct("(") || tok.is_punct("[") {
                    depth += 1;
                } else if tok.is_punct(")") || tok.is_punct("]") {
                    depth -= 1;
                } else if depth == 0 && tok.is_punct("{") {
                    break;
                } else if depth == 0 && tok.is_ident("in") {
                    in_expr = true;
                    j += 1;
                    continue;
                }
                if in_expr && tok.kind == TokenKind::Ident && names.contains(&tok.text) {
                    // Skip when the very name is immediately adaptor-called:
                    // the arm above already reported it (dedup covers the
                    // same-line case; this keeps messages specific).
                    push(
                        out,
                        NONDET_ITERATION,
                        file,
                        tok.line,
                        format!(
                            "`for` loop over `{}` visits entries in hasher order; iteration \
                             order is observable in a cycle-charged crate",
                            tok.text
                        ),
                    );
                }
                j += 1;
            }
        }
    }
}

/// D2: flags `1 << <non-literal>` everywhere outside the body of a checked
/// helper ([`SHIFT_HELPERS`]). Constant shifts (`1 << 16`) are fine — they
/// cannot overflow by CPU id.
fn unchecked_cpu_shift(file: &SourceFile, out: &mut Vec<Finding>) {
    let t = &file.tokens;
    // Track enclosing fn names so the helper's own body is exempt.
    let mut fn_stack: Vec<(String, i32)> = Vec::new();
    let mut pending_fn: Option<String> = None;
    let mut depth = 0i32;
    for i in 0..t.len() {
        let tok = &t[i];
        if tok.is_ident("fn") {
            if let Some(name) = t.get(i + 1) {
                if name.kind == TokenKind::Ident {
                    pending_fn = Some(name.text.clone());
                }
            }
        } else if tok.is_punct(";") && depth == 0 {
            pending_fn = None; // trait method without a body
        } else if tok.is_punct("{") {
            depth += 1;
            if let Some(name) = pending_fn.take() {
                fn_stack.push((name, depth));
            }
        } else if tok.is_punct("}") {
            if fn_stack.last().is_some_and(|(_, d)| *d == depth) {
                fn_stack.pop();
            }
            depth -= 1;
        } else if tok.is_punct("<<")
            && i > 0
            && t[i - 1].kind == TokenKind::Number
            && SHIFT_BASES.contains(&t[i - 1].text.as_str())
            && t.get(i + 1).is_some_and(|n| n.kind != TokenKind::Number)
        {
            let exempt = fn_stack
                .iter()
                .any(|(name, _)| SHIFT_HELPERS.contains(&name.as_str()));
            if !exempt {
                push(
                    out,
                    UNCHECKED_CPU_SHIFT,
                    file,
                    tok.line,
                    format!(
                        "raw `{} << <expr>` shift: at shift amounts >= 64 this silently \
                         wraps in release builds (the PR-4 owner-mask bug); route through \
                         `ufotm_machine::cpu_bit`",
                        t[i - 1].text
                    ),
                );
            }
        }
    }
}

/// D4: every `fn merge` must exhaustively destructure `other` — a
/// `let Stats {{ a, b, c }} = other;` with no `..` rest pattern — so adding
/// a field without aggregating it becomes a compile error, not a silently
/// wrong report.
fn stats_merge_exhaustiveness(file: &SourceFile, out: &mut Vec<Finding>) {
    let t = &file.tokens;
    let mut i = 0usize;
    while i < t.len() {
        if !(t[i].is_ident("fn") && t.get(i + 1).is_some_and(|x| x.is_ident("merge"))) {
            i += 1;
            continue;
        }
        let merge_line = t[i + 1].line;
        // Find the body's opening brace (first `{` outside parens/brackets).
        let mut j = i + 2;
        let mut pdepth = 0i32;
        while j < t.len() {
            if t[j].is_punct("(") || t[j].is_punct("[") {
                pdepth += 1;
            } else if t[j].is_punct(")") || t[j].is_punct("]") {
                pdepth -= 1;
            } else if pdepth == 0 && t[j].is_punct("{") {
                break;
            } else if pdepth == 0 && t[j].is_punct(";") {
                // Trait signature without a body — nothing to check.
                break;
            }
            j += 1;
        }
        if j >= t.len() || !t[j].is_punct("{") {
            i = j;
            continue;
        }
        // Scan the body for `let Ident { … no `..` … } = …other…;`.
        let body_start = j + 1;
        let mut depth = 1i32;
        let mut k = body_start;
        let mut ok = false;
        while k < t.len() && depth > 0 {
            if t[k].is_punct("{") {
                depth += 1;
            } else if t[k].is_punct("}") {
                depth -= 1;
            } else if t[k].is_ident("let")
                && t.get(k + 1).is_some_and(|x| x.kind == TokenKind::Ident)
                && t.get(k + 2).is_some_and(|x| x.is_punct("{"))
            {
                // Walk the pattern braces, watching for a `..` rest pattern.
                let mut b = 1i32;
                let mut p = k + 3;
                let mut has_rest = false;
                while p < t.len() && b > 0 {
                    if t[p].is_punct("{") {
                        b += 1;
                    } else if t[p].is_punct("}") {
                        b -= 1;
                    } else if t[p].is_punct(".") && t.get(p + 1).is_some_and(|x| x.is_punct(".")) {
                        has_rest = true;
                    }
                    p += 1;
                }
                // `= … other … ;` must follow.
                let mut binds_other = false;
                if t.get(p).is_some_and(|x| x.is_punct("=")) {
                    let mut q = p + 1;
                    while q < t.len() && !t[q].is_punct(";") {
                        if t[q].is_ident("other") {
                            binds_other = true;
                        }
                        q += 1;
                    }
                }
                if !has_rest && binds_other {
                    ok = true;
                }
            }
            k += 1;
        }
        if !ok {
            push(
                out,
                STATS_MERGE_EXHAUSTIVENESS,
                file,
                merge_line,
                "`fn merge` does not exhaustively destructure `other` \
                 (`let Stats { every, field } = other;` with no `..`): a newly added \
                 counter would be silently dropped from merged reports"
                    .to_string(),
            );
        }
        i = k.max(i + 2);
    }
}

/// Whether `t[j..]` starts a machine access `.method(` ([`MACHINE_METHODS`]).
fn tracked_call(t: &[Token], j: usize) -> bool {
    t[j].is_punct(".")
        && t.get(j + 1).is_some_and(|m| {
            m.kind == TokenKind::Ident && MACHINE_METHODS.contains(&m.text.as_str())
        })
        && t.get(j + 2).is_some_and(|x| x.is_punct("("))
}

/// Whether the expression starting after token `eq` (a `=`) and ending at
/// its statement's `;` contains a tracked call; returns the method name.
fn expr_tracked_call(t: &[Token], eq: usize) -> Option<String> {
    let mut depth = 0i32;
    let mut j = eq + 1;
    while j < t.len() {
        let tok = &t[j];
        if tok.is_punct("(") || tok.is_punct("[") || tok.is_punct("{") {
            depth += 1;
        } else if tok.is_punct(")") || tok.is_punct("]") || tok.is_punct("}") {
            depth -= 1;
            if depth < 0 {
                return None; // ran off the enclosing block
            }
        } else if depth == 0 && tok.is_punct(";") {
            return None;
        } else if tracked_call(t, j) {
            return Some(t[j + 1].text.clone());
        }
        j += 1;
    }
    None
}

/// D5: flags `.unwrap()` / `.expect(…)` on the result of a machine access
/// in the deterministic scope, in two forms. Access results on
/// plain-access paths must go through `PlainAccess::plain("what")`, which
/// names the operation and is the one audited place that may panic on a
/// machine error. The chained form is `.load(…).unwrap()`. The bound form
/// is a local binding whose initializer makes a tracked call, unwrapped
/// later in the same function (`let r = m.load(…); … r.unwrap()`): a
/// per-function map of binding name → originating call finds it. A
/// rebinding of the name (plain `let` or assignment with an untracked
/// initializer) clears it. Parameters are deliberately out of scope: the
/// `mop` funnels in `ufotm-tl2`/`ufotm-ustm` unwrap a *parameter* and are
/// the audited route the findings point at.
fn unwraps(file: &SourceFile, out: &mut Vec<Finding>) {
    let fix = "use `PlainAccess::plain(\"what\")` (or handle the error)";
    let t = &file.tokens;
    let mut bindings: BTreeMap<String, String> = BTreeMap::new();
    let mut i = 0usize;
    while i < t.len() {
        let tok = &t[i];
        // Chained form: balance the call's parens, then require
        // `.unwrap(` / `.expect(`.
        if tracked_call(t, i) {
            let mut depth = 1i32;
            let mut j = i + 3;
            while j < t.len() && depth > 0 {
                if t[j].is_punct("(") {
                    depth += 1;
                } else if t[j].is_punct(")") {
                    depth -= 1;
                }
                j += 1;
            }
            if let (Some(dot), Some(panicky)) = (t.get(j), t.get(j + 1)) {
                if dot.is_punct(".") && (panicky.is_ident("unwrap") || panicky.is_ident("expect")) {
                    push(
                        out,
                        PANICKING_MACHINE_ACCESS,
                        file,
                        panicky.line,
                        format!(
                            "`.{}()` chained onto `.{}(…)`: a chaos-injected machine fault \
                             here crashes the run with a context-free panic; {fix}",
                            panicky.text,
                            t[i + 1].text
                        ),
                    );
                }
            }
            i += 1;
            continue;
        }
        if tok.is_ident("fn") {
            // A new function body: bindings do not flow across functions.
            bindings.clear();
            i += 1;
            continue;
        }
        // `let [mut] name [: T] = expr ;`
        if tok.is_ident("let") {
            let mut j = i + 1;
            if t.get(j).is_some_and(|x| x.is_ident("mut")) {
                j += 1;
            }
            if let Some(name) = t.get(j).filter(|x| x.kind == TokenKind::Ident) {
                // Find the `=` of this let (skip any `: Type` annotation);
                // bail at `;` (a `let name;` declaration) or `(`/`{`
                // immediately after the name (destructuring — untracked).
                let mut k = j + 1;
                let mut depth = 0i32;
                let eq = loop {
                    let Some(x) = t.get(k) else { break None };
                    if x.is_punct("(") || x.is_punct("[") || x.is_punct("{") {
                        depth += 1;
                    } else if x.is_punct(")") || x.is_punct("]") || x.is_punct("}") {
                        depth -= 1;
                    } else if depth == 0 && x.is_punct(";") {
                        break None;
                    } else if depth == 0 && x.is_punct("=") {
                        break Some(k);
                    }
                    k += 1;
                };
                if let Some(eq) = eq {
                    match expr_tracked_call(t, eq) {
                        Some(method) => {
                            bindings.insert(name.text.clone(), method);
                        }
                        None => {
                            bindings.remove(&name.text);
                        }
                    }
                }
            }
            i += 1;
            continue;
        }
        // Plain reassignment `name = expr;` re-derives the origin.
        if tok.kind == TokenKind::Ident
            && bindings.contains_key(&tok.text)
            && (i == 0 || !t[i - 1].is_punct(".") && !t[i - 1].is_punct(":"))
            && t.get(i + 1).is_some_and(|x| x.is_punct("="))
            && !t.get(i + 2).is_some_and(|x| x.is_punct("="))
        {
            if expr_tracked_call(t, i + 1).is_none() {
                bindings.remove(&tok.text);
            }
            i += 1;
            continue;
        }
        // `name.unwrap()` / `name.expect(…)` on a tracked binding.
        if tok.kind == TokenKind::Ident
            && (i == 0 || !t[i - 1].is_punct("."))
            && t.get(i + 1).is_some_and(|x| x.is_punct("."))
            && t.get(i + 3).is_some_and(|x| x.is_punct("("))
        {
            if let Some(panicky) = t
                .get(i + 2)
                .filter(|m| m.is_ident("unwrap") || m.is_ident("expect"))
            {
                if let Some(method) = bindings.get(&tok.text) {
                    push(
                        out,
                        PANICKING_MACHINE_ACCESS,
                        file,
                        panicky.line,
                        format!(
                            "`{}.{}()` unwraps the result `.{}(…)` bound into `{}` \
                             earlier in this function; the panic risk is the same as \
                             the chained form — {fix}",
                            tok.text, panicky.text, method, tok.text
                        ),
                    );
                }
            }
        }
        i += 1;
    }
}

/// D9: walks the call graph from every signal-handler root and flags any
/// reachable allocation, lock acquisition, panicking macro, or stdio
/// macro. The message names the root and the call path, so the finding is
/// actionable even when the offending line is several hops from the
/// handler.
fn signal_unsafe_reachable(files: &[SourceFile], graph: &CallGraph, out: &mut Vec<Finding>) {
    for root in graph.roots() {
        let reach = graph.reachable_from(root);
        for &fi in reach.keys() {
            let def = &graph.fns[fi];
            let file = &files[def.file];
            let path = graph.path_to(&reach, fi);
            let t = &file.tokens;
            let (start, end) = def.body;
            for i in start..end.min(t.len()) {
                if t[i].kind != TokenKind::Ident {
                    continue;
                }
                let name = t[i].text.as_str();
                let next_bang = t.get(i + 1).is_some_and(|x| x.is_punct("!"));
                let next_path = t.get(i + 1).is_some_and(|x| x.is_punct(":"))
                    && t.get(i + 2).is_some_and(|x| x.is_punct(":"));
                let prev_dot = i > start && t[i - 1].is_punct(".");
                let next_paren = t.get(i + 1).is_some_and(|x| x.is_punct("("));
                let offence = if (ALLOC_TYPES.contains(&name) && next_path)
                    || (ALLOC_MACROS.contains(&name) && next_bang)
                    || (prev_dot && ALLOC_METHODS.contains(&name) && next_paren)
                {
                    Some("allocates")
                } else if (prev_dot && name == "lock" && next_paren)
                    || (name == "lock_recover" && next_paren)
                {
                    Some("takes a lock")
                } else if PANIC_MACROS.contains(&name) && next_bang {
                    Some("can panic")
                } else if STDIO_MACROS.contains(&name) && next_bang {
                    Some("locks stdio")
                } else {
                    None
                };
                if let Some(verb) = offence {
                    push(
                        out,
                        SIGNAL_UNSAFE_REACHABLE,
                        file,
                        t[i].line,
                        format!(
                            "`{}` {} inside `{}`, which is reachable from signal-handler \
                             root `{}` (call path: {}); a signal handler interrupts an \
                             arbitrary instruction, so everything it can reach must be \
                             async-signal-safe — atomics and raw syscalls only",
                            name, verb, def.name, graph.fns[root].name, path
                        ),
                    );
                }
            }
        }
    }
}
