//! The run report: one deterministic, serializable summary per run.
//!
//! A [`RunReport`] gathers everything a run produced — per-CPU machine
//! counters, hybrid commit-path counters, USTM/TL2/PhTM counters, otable
//! occupancy, swap and chaos counters, and (when tracing was enabled) the
//! audited trace journal — into one plain-old-data struct with a
//! hand-rolled JSON serialization.
//!
//! Determinism is a design requirement, not an accident: the simulator
//! replays bit-for-bit from a seed, so two same-seed runs must serialize
//! to **byte-identical** JSON. The serializer therefore emits integers,
//! booleans and fixed-order keys only — no floats, no timestamps, no
//! host-dependent values. Derived ratios are the reader's job.

use std::collections::BTreeMap;

use ufotm_machine::{AbortReason, ChaosStats, CpuStats, Machine, SwapStats};
use ufotm_tl2::Tl2Stats;
use ufotm_ustm::{OtableOccupancy, UstmStats};

use crate::audit::{audit_events, CommitPath};
use crate::shared::TmShared;

/// The Figure-6 abort taxonomy: groups [`AbortReason`]s into the buckets
/// the paper plots, in a stable order.
pub const ABORT_TAXONOMY: &[(&str, &[AbortReason])] = &[
    ("conflict", &[AbortReason::Conflict]),
    ("nonT-conflict", &[AbortReason::NonTConflict]),
    ("ufo-set", &[AbortReason::UfoSet]),
    ("ufo-fault", &[AbortReason::UfoFault]),
    ("overflow", &[AbortReason::Overflow]),
    ("explicit", &[AbortReason::Explicit]),
    (
        "recoverable",
        &[
            AbortReason::Interrupt,
            AbortReason::PageFault,
            AbortReason::Spurious,
        ],
    ),
    (
        "unsupported",
        &[
            AbortReason::Syscall,
            AbortReason::Io,
            AbortReason::Exception,
            AbortReason::Uncacheable,
            AbortReason::DepthOverflow,
            AbortReason::IllegalOp,
        ],
    ),
];

/// A histogram over power-of-two buckets: bucket 0 holds the value 0,
/// bucket `i` (for `i >= 1`) holds values in `[2^(i-1), 2^i - 1]`.
///
/// Integer-only and order-insensitive, so it aggregates deterministically
/// regardless of recording order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Log2Histogram {
    counts: Vec<u64>,
}

impl Log2Histogram {
    /// The bucket index a value lands in.
    #[must_use]
    pub fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let b = Self::bucket_of(value);
        if self.counts.len() <= b {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
    }

    /// Per-bucket counts; the highest occupied bucket is last (no trailing
    /// zeros).
    #[must_use]
    pub fn buckets(&self) -> &[u64] {
        &self.counts
    }

    /// Total samples recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

/// Table-4-style attribution of where cycles went, beyond useful work.
/// Each field is a sum over all CPUs; fields can overlap with each other
/// only where documented.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CycleAttribution {
    /// Cycles spent in STM read/write barriers and otable maintenance
    /// (the paper's "instrumentation" share).
    pub barrier: u64,
    /// Cycles lost to nacked coherence requests (back-pressure stalls).
    pub nack_stall: u64,
    /// Cycles spent in contention backoff between attempts.
    pub backoff: u64,
    /// Cycles on the watchdog's last tier (lock acquisition, the eldest
    /// attempt, lock release).
    pub serial: u64,
    /// All explicitly stalled cycles (includes `backoff` and the stall
    /// portions of `serial`; kept as the machine's raw counter).
    pub stall: u64,
}

/// Summary of the trace journal after auditing (all zeros when tracing
/// was disabled).
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Events recorded.
    pub events: u64,
    /// Whether the journal hit its cap (histograms then undercount).
    pub truncated: bool,
    /// Invariant violations the auditor found (0 for a correct run).
    pub audit_violations: u64,
    /// The first few violation messages, for diagnostics (not
    /// serialized: the JSON carries only the count).
    pub audit_violation_samples: Vec<String>,
    /// Transactions reconstructed from the journal.
    pub txns: u64,
    /// Committed transactions per final path, keyed by
    /// [`CommitPath::label`].
    pub commit_paths: BTreeMap<&'static str, u64>,
    /// First-begin-to-commit latency, log2 buckets of cycles.
    pub latency_log2: Log2Histogram,
    /// Retries before the committing attempt, log2 buckets.
    pub retry_log2: Log2Histogram,
}

/// Everything one run produced, ready to serialize.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The system that ran ([`SystemKind::label`](crate::SystemKind::label)).
    pub system: &'static str,
    /// Simulated CPUs.
    pub threads: usize,
    /// The run's replay seed.
    pub seed: u64,
    /// Slowest CPU's final clock: the run's wall-clock in cycles.
    pub makespan_cycles: u64,
    /// Hybrid driver counters (commit paths, failovers, escalations).
    pub hybrid: crate::HybridStats,
    /// Machine counters summed over all CPUs.
    pub machine: CpuStats,
    /// Cycle attribution (Table 4 style).
    pub cycles: CycleAttribution,
    /// USTM counters.
    pub ustm: UstmStats,
    /// TL2 counters.
    pub tl2: Tl2Stats,
    /// PhTM phase counters: (stm_count, must_count, phase_aborts,
    /// phase_stalls).
    pub phtm: (u64, u64, u64, u64),
    /// Otable occupancy at end of run.
    pub otable: OtableOccupancy,
    /// Demand-paging counters.
    pub swap: SwapStats,
    /// Fault-injection counters.
    pub chaos: ChaosStats,
    /// Audited trace journal summary.
    pub trace: TraceSummary,
}

impl RunReport {
    /// Gathers a report from a finished run.
    ///
    /// `seed` is the run's replay seed (the machine does not know it).
    /// Auditing the journal is part of collection: `trace.audit_violations`
    /// must be 0 for any correct run that had tracing enabled.
    #[must_use]
    pub fn collect(seed: u64, machine: &Machine, shared: &TmShared) -> RunReport {
        let makespan = (0..machine.cpus())
            .map(|c| machine.now(c))
            .max()
            .unwrap_or(0);
        let agg = machine.stats().aggregate();
        let audit = audit_events(shared.trace.events(), shared.trace.truncated());

        let mut trace = TraceSummary {
            events: shared.trace.events().len() as u64,
            truncated: shared.trace.truncated(),
            audit_violations: audit.violations.len() as u64,
            audit_violation_samples: audit
                .violations
                .iter()
                .take(8)
                .map(ToString::to_string)
                .collect(),
            txns: audit.txns.len() as u64,
            ..TraceSummary::default()
        };
        for path in [
            CommitPath::Hw,
            CommitPath::Sw,
            CommitPath::Serial,
            CommitPath::Plain,
        ] {
            trace.commit_paths.insert(path.label(), 0);
        }
        for t in &audit.txns {
            *trace.commit_paths.entry(t.path.label()).or_insert(0) += 1;
            trace.latency_log2.record(t.latency());
            trace.retry_log2.record(u64::from(t.retries()));
        }
        // A dropped UFO bit is silent protection loss — strong atomicity
        // can no longer be trusted, so surface it as an audit violation
        // rather than a counter a reader might skim past.
        let dropped = machine.swap_stats().ufo_bits_dropped;
        if dropped != 0 {
            trace.audit_violations += 1;
            trace.audit_violation_samples.push(format!(
                "swap dropped {dropped} UFO bit(s): strong atomicity was silently lost"
            ));
        }

        RunReport {
            system: shared.kind.label(),
            threads: machine.cpus(),
            seed,
            makespan_cycles: makespan,
            cycles: CycleAttribution {
                barrier: shared.ustm.stats.barrier_cycles,
                nack_stall: agg.nack_stall_cycles,
                backoff: shared.stats.backoff_cycles,
                serial: shared.stats.serial_cycles,
                stall: agg.stall_cycles,
            },
            hybrid: shared.stats.clone(),
            machine: agg,
            ustm: shared.ustm.stats,
            tl2: shared.tl2.stats,
            phtm: (
                shared.phtm.stm_count,
                shared.phtm.must_count,
                shared.phtm.phase_aborts,
                shared.phtm.phase_stalls,
            ),
            otable: shared.ustm.otable.occupancy(),
            swap: machine.swap_stats(),
            chaos: machine.chaos_stats(),
            trace,
        }
    }

    /// Panics unless the trace auditor found the journal invariant-clean.
    /// A no-op when tracing was off (there is nothing to audit).
    ///
    /// # Panics
    ///
    /// Panics if collection found audit violations, listing the first few.
    pub fn assert_audit_clean(&self) {
        assert!(
            self.trace.audit_violations == 0,
            "trace audit found {} violation(s), e.g.:\n{}",
            self.trace.audit_violations,
            self.trace
                .audit_violation_samples
                .iter()
                .map(|v| format!("  {v}"))
                .collect::<Vec<_>>()
                .join("\n"),
        );
    }

    /// The Figure-6 abort taxonomy over the machine's BTM abort counters.
    /// Every bucket is present (zeros included), in [`ABORT_TAXONOMY`]
    /// order.
    #[must_use]
    pub fn abort_taxonomy(&self) -> Vec<(&'static str, u64)> {
        ABORT_TAXONOMY
            .iter()
            .map(|&(name, reasons)| (name, reasons.iter().map(|&r| self.machine.aborts(r)).sum()))
            .collect()
    }

    /// Serializes the report as deterministic JSON: fixed key order,
    /// integers and booleans only. Two same-seed runs produce
    /// byte-identical output.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut root = JsonObj::new();
        root.u64("schema", SCHEMA_VERSION);
        root.str("system", self.system);
        root.u64("threads", self.threads as u64);
        root.u64("seed", self.seed);
        root.u64("makespan_cycles", self.makespan_cycles);

        let mut commits = JsonObj::new();
        commits.u64("hw", self.hybrid.hw_commits);
        commits.u64("sw", self.hybrid.sw_commits);
        commits.u64("lock", self.hybrid.lock_commits);
        commits.u64("serial", self.hybrid.serial_commits);
        commits.u64("total", self.hybrid.total_commits());
        root.raw("commits", &commits.close());

        let mut failovers = JsonObj::new();
        for (&reason, &n) in &self.hybrid.failovers {
            failovers.u64(&reason.to_string(), n);
        }
        root.raw("failovers", &failovers.close());
        root.u64("hw_retries", self.hybrid.hw_retries);
        root.u64("forced_failovers", self.hybrid.forced_failovers);
        root.u64("watchdog_escalations", self.hybrid.watchdog_escalations);
        root.u64("alloc_syscalls", self.hybrid.alloc_syscalls);

        let mut machine = JsonObj::new();
        machine.u64("accesses", self.machine.accesses);
        machine.u64("l1_misses", self.machine.l1_misses);
        machine.u64("l2_misses", self.machine.l2_misses);
        machine.u64("nacks", self.machine.nacks);
        machine.u64("ufo_faults", self.machine.ufo_faults);
        machine.u64("interrupts", self.machine.interrupts);
        machine.u64("btm_commits", self.machine.btm_commits);
        let mut aborts = JsonObj::new();
        for (&reason, &n) in &self.machine.btm_aborts {
            aborts.u64(&reason.to_string(), n);
        }
        machine.raw("btm_aborts", &aborts.close());
        root.raw("machine", &machine.close());

        let mut taxonomy = JsonObj::new();
        for (name, n) in self.abort_taxonomy() {
            taxonomy.u64(name, n);
        }
        root.raw("abort_taxonomy", &taxonomy.close());

        let mut cycles = JsonObj::new();
        cycles.u64("barrier", self.cycles.barrier);
        cycles.u64("nack_stall", self.cycles.nack_stall);
        cycles.u64("backoff", self.cycles.backoff);
        cycles.u64("serial", self.cycles.serial);
        cycles.u64("stall", self.cycles.stall);
        root.raw("cycle_attribution", &cycles.close());

        let mut ustm = JsonObj::new();
        ustm.u64("begins", self.ustm.begins);
        ustm.u64("commits", self.ustm.commits);
        ustm.u64("aborts", self.ustm.aborts);
        ustm.u64("kills_issued", self.ustm.kills_issued);
        ustm.u64("stall_polls", self.ustm.stall_polls);
        ustm.u64("chain_walks", self.ustm.chain_walks);
        ustm.u64("nont_faults", self.ustm.nont_faults);
        ustm.u64("retries_entered", self.ustm.retries_entered);
        ustm.u64("retries_woken", self.ustm.retries_woken);
        ustm.u64("barrier_cycles", self.ustm.barrier_cycles);
        ustm.u64("max_chain_seen", self.ustm.max_chain_seen);
        root.raw("ustm", &ustm.close());

        let mut tl2 = JsonObj::new();
        tl2.u64("begins", self.tl2.begins);
        tl2.u64("commits", self.tl2.commits);
        tl2.u64("aborts", self.tl2.aborts);
        root.raw("tl2", &tl2.close());

        let mut phtm = JsonObj::new();
        phtm.u64("stm_count", self.phtm.0);
        phtm.u64("must_count", self.phtm.1);
        phtm.u64("phase_aborts", self.phtm.2);
        phtm.u64("phase_stalls", self.phtm.3);
        root.raw("phtm", &phtm.close());

        let mut otable = JsonObj::new();
        otable.u64("bins", self.otable.bins);
        otable.u64("live_entries", self.otable.live_entries);
        otable.u64("occupied_bins", self.otable.occupied_bins);
        otable.u64("aliased_bins", self.otable.aliased_bins);
        otable.u64("max_chain", self.otable.max_chain);
        root.raw("otable", &otable.close());

        let mut swap = JsonObj::new();
        swap.u64("page_ins", self.swap.page_ins);
        swap.u64("page_outs", self.swap.page_outs);
        swap.u64("ufo_pages_saved", self.swap.ufo_pages_saved);
        swap.u64("all_clear_fast_path", self.swap.all_clear_fast_path);
        swap.u64("ufo_pages_restored", self.swap.ufo_pages_restored);
        swap.u64("ufo_bits_dropped", self.swap.ufo_bits_dropped);
        root.raw("swap", &swap.close());

        let mut chaos = JsonObj::new();
        chaos.u64("spurious_aborts", self.chaos.spurious_aborts);
        chaos.u64("forced_evictions", self.chaos.forced_evictions);
        chaos.u64("injected_nacks", self.chaos.injected_nacks);
        chaos.u64("ufo_set_retries", self.chaos.ufo_set_retries);
        chaos.u64("swap_thrashes", self.chaos.swap_thrashes);
        root.raw("chaos", &chaos.close());

        let mut trace = JsonObj::new();
        trace.u64("events", self.trace.events);
        trace.bool("truncated", self.trace.truncated);
        trace.u64("audit_violations", self.trace.audit_violations);
        trace.u64("txns", self.trace.txns);
        let mut paths = JsonObj::new();
        for (&path, &n) in &self.trace.commit_paths {
            paths.u64(path, n);
        }
        trace.raw("commit_paths", &paths.close());
        trace.raw(
            "latency_log2",
            &json_u64_array(self.trace.latency_log2.buckets()),
        );
        trace.raw(
            "retry_log2",
            &json_u64_array(self.trace.retry_log2.buckets()),
        );
        root.raw("trace", &trace.close());

        root.close()
    }
}

/// Bumped whenever a field is added, removed or renamed; consumers key
/// off it. Documented in `docs/RUN_REPORT.md`.
///
/// v4 = v3 minus everything v2–v3 added for the retired persistence domain (`persist`, `chaos.power_fails`, the five `ustm` redo/recovery counters, `durable_serial_refusals`).
pub const SCHEMA_VERSION: u64 = 4;

fn json_u64_array(values: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
    out
}

/// Escapes a string for embedding in a JSON string literal (RFC 8259):
/// `"` and `\` get their two-character escapes, `\n`/`\t`/`\r` their
/// short forms, and every other control character below `0x20` a
/// `\u00XX` escape. Everything else — including non-BMP characters —
/// passes through as UTF-8 (lone surrogates cannot occur: Rust `&str`
/// is valid UTF-8 by construction).
///
/// Shared by every hand-rolled JSON writer in the workspace (run
/// reports here, bench artifacts in `ufotm-bench`) so hostile workload
/// names and labels cannot produce invalid JSON.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A tiny insertion-ordered JSON object writer. Key order is whatever the
/// caller's code order is — fixed at compile time, hence deterministic.
struct JsonObj {
    buf: String,
    any: bool,
}

impl JsonObj {
    fn new() -> Self {
        JsonObj {
            buf: String::from("{"),
            any: false,
        }
    }

    fn raw(&mut self, key: &str, value: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        self.buf.push('"');
        self.buf.push_str(&json_escape(key));
        self.buf.push_str("\":");
        self.buf.push_str(value);
    }

    fn u64(&mut self, key: &str, value: u64) {
        self.raw(key, &value.to_string());
    }

    fn bool(&mut self, key: &str, value: bool) {
        self.raw(key, if value { "true" } else { "false" });
    }

    fn str(&mut self, key: &str, value: &str) {
        let quoted = format!("\"{}\"", json_escape(value));
        self.raw(key, &quoted);
    }

    fn close(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_buckets_land_where_documented() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        assert_eq!(Log2Histogram::bucket_of(2), 2);
        assert_eq!(Log2Histogram::bucket_of(3), 2);
        assert_eq!(Log2Histogram::bucket_of(4), 3);
        assert_eq!(Log2Histogram::bucket_of(1023), 10);
        assert_eq!(Log2Histogram::bucket_of(1024), 11);
        let mut h = Log2Histogram::default();
        for v in [0, 1, 2, 3, 1024] {
            h.record(v);
        }
        assert_eq!(h.total(), 5);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[2], 2);
        assert_eq!(h.buckets()[11], 1);
    }

    #[test]
    fn json_writer_is_plain_and_ordered() {
        let mut o = JsonObj::new();
        o.u64("a", 1);
        o.str("b", "x\"y");
        o.bool("c", true);
        assert_eq!(o.close(), r#"{"a":1,"b":"x\"y","c":true}"#);
    }

    /// A strict little JSON string-literal reader: parses exactly one
    /// quoted string from `input` and returns its decoded value. Errors
    /// (not panics) on anything RFC 8259 forbids — unescaped control
    /// characters, unknown escapes, bad `\uXXXX` — so the round-trip
    /// test rejects invalid output instead of misreading it.
    fn parse_json_string(input: &str) -> Result<String, String> {
        let mut chars = input.chars();
        if chars.next() != Some('"') {
            return Err("missing opening quote".into());
        }
        let mut out = String::new();
        loop {
            let c = chars.next().ok_or("unterminated string")?;
            match c {
                '"' => {
                    return if chars.next().is_none() {
                        Ok(out)
                    } else {
                        Err("trailing garbage".into())
                    };
                }
                '\\' => match chars.next().ok_or("dangling backslash")? {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    'r' => out.push('\r'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'u' => {
                        let hex: String = (0..4)
                            .map(|_| chars.next().ok_or("short \\u escape"))
                            .collect::<Result<_, _>>()?;
                        let n = u32::from_str_radix(&hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(n).ok_or("\\u escape is a surrogate")?);
                    }
                    other => return Err(format!("unknown escape \\{other}")),
                },
                c if (c as u32) < 0x20 => {
                    return Err(format!("raw control character {:#x}", c as u32));
                }
                c => out.push(c),
            }
        }
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn json_escape_round_trips_hostile_strings() {
        let hostile = [
            "",
            "plain",
            "\\",
            "\\\\",
            "\"",
            "\\\"",
            "a\"b\\c",
            "\n\t\r",
            "\u{0}\u{1}\u{1f}",
            "ctrl\u{b}mixed\u{7f}", // 0x7f is not a control char per RFC 8259
            "trailing backslash\\",
            "\\u0041 looks like an escape but is literal",
            "unicode: é 漢 🦀 \u{10FFFF}",
            "already \\n escaped",
            "quote-backslash tangle: \\\" \"\\ \\\\\" ",
        ];
        for s in hostile {
            let encoded = format!("\"{}\"", json_escape(s));
            let decoded = parse_json_string(&encoded)
                .unwrap_or_else(|e| panic!("invalid JSON for {s:?}: {e}\n  encoded: {encoded}"));
            assert_eq!(decoded, s, "round-trip mangled {s:?} via {encoded}");
        }
    }

    #[test]
    fn json_escape_round_trips_seeded_random_strings() {
        // Deterministic fuzz: random mixes of quotes, backslashes,
        // control characters and multibyte text. No host randomness —
        // same bytes every run.
        let alphabet: Vec<char> = ('\u{0}'..='\u{2f}')
            .chain(['\\', '"', 'a', 'é', '漢', '🦀', '\u{7f}', '\u{9f}'])
            .collect();
        let mut state = 0xDEAD_BEEF_u64;
        for _ in 0..2000 {
            let len = (splitmix(&mut state) % 24) as usize;
            let s: String = (0..len)
                .map(|_| alphabet[(splitmix(&mut state) as usize) % alphabet.len()])
                .collect();
            let encoded = format!("\"{}\"", json_escape(&s));
            let decoded = parse_json_string(&encoded)
                .unwrap_or_else(|e| panic!("invalid JSON for {s:?}: {e}\n  encoded: {encoded}"));
            assert_eq!(decoded, s, "round-trip mangled {s:?} via {encoded}");
        }
    }

    #[test]
    fn taxonomy_covers_every_reason_once() {
        let mut seen = std::collections::BTreeSet::new();
        for (_, reasons) in ABORT_TAXONOMY {
            for &r in *reasons {
                assert!(seen.insert(r), "{r} appears in two buckets");
            }
        }
        assert_eq!(seen.len(), AbortReason::all().len());
    }

    /// The keys of the JSON object starting at `obj[0] == '{'`, in order
    /// (nested objects and arrays are skipped, not descended into).
    fn object_keys(obj: &str) -> Vec<&str> {
        let mut keys = Vec::new();
        let mut depth = 0;
        let mut rest = obj;
        while let Some(i) = rest.find(['{', '}', '[', ']', '"']) {
            let (c, after) = (rest.as_bytes()[i], &rest[i + 1..]);
            rest = after;
            match c {
                b'{' | b'[' => depth += 1,
                b'}' | b']' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {
                    let end = after.find('"').expect("closing quote");
                    if depth == 1 && after[end + 1..].starts_with(':') {
                        keys.push(&after[..end]);
                    }
                    rest = &after[end + 1..];
                }
            }
        }
        keys
    }

    #[test]
    fn schema_4_key_lists_are_pinned() {
        // A deliberate tripwire: adding, removing or renaming a key here
        // means bumping SCHEMA_VERSION and docs/RUN_REPORT.md with it.
        let cfg = ufotm_machine::MachineConfig::table4(1);
        let shared = TmShared::standard(crate::SystemKind::UfoHybrid, &cfg);
        let json = RunReport::collect(0, &Machine::new(cfg), &shared).to_json();
        assert!(json.starts_with("{\"schema\":4,"));
        assert_eq!(
            object_keys(&json),
            [
                "schema",
                "system",
                "threads",
                "seed",
                "makespan_cycles",
                "commits",
                "failovers",
                "hw_retries",
                "forced_failovers",
                "watchdog_escalations",
                "alloc_syscalls",
                "machine",
                "abort_taxonomy",
                "cycle_attribution",
                "ustm",
                "tl2",
                "phtm",
                "otable",
                "swap",
                "chaos",
                "trace",
            ]
        );
        let section = |key: &str| {
            let at = json
                .find(&format!("\"{key}\":{{"))
                .expect("section present");
            object_keys(&json[at + key.len() + 3..])
        };
        assert_eq!(
            section("ustm"),
            [
                "begins",
                "commits",
                "aborts",
                "kills_issued",
                "stall_polls",
                "chain_walks",
                "nont_faults",
                "retries_entered",
                "retries_woken",
                "barrier_cycles",
                "max_chain_seen",
            ]
        );
        assert_eq!(
            section("chaos"),
            [
                "spurious_aborts",
                "forced_evictions",
                "injected_nacks",
                "ufo_set_retries",
                "swap_thrashes",
            ]
        );
    }
}
