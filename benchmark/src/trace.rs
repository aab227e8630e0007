//! Outside-in tracing: spans recorded around the calls the benchmark
//! makes into each layer, from the benchmark's own files.
//!
//! A traced transaction is one parent span (first `begin` to commit,
//! retries included) with one child span per `read`/`write`/`work`/`alloc`
//! call its body makes. A layer's self time is its span minus the part
//! its children cover, so the parent's self time is begin + commit +
//! gate + retry overhead. Spans stay in memory; the first [`SPAN_CAP`]
//! per thread are written out when the run ends, the aggregates cover
//! all of them.

use std::fmt::Write as _;
use std::time::Instant;

use ufotm_core::{Stop, TxScope};
use ufotm_machine::Addr;

/// Spans kept per thread for the trace file (the aggregates are not
/// capped).
const SPAN_CAP: usize = 40_000;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub tid: usize,
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub txn: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct OpAgg {
    pub calls: u64,
    pub ns: u64,
}

/// The scope calls a child span can stand for; indexes [`Tracer::ops`].
#[derive(Clone, Copy, Debug)]
pub enum Op {
    Read,
    Write,
    Work,
    Alloc,
}

const OP_NAMES: [&str; 4] = ["read", "write", "work", "alloc"];

/// One thread's span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    tid: usize,
    next_id: u64,
    txn_id: u64,
    txn_span: u64,
    txn_start: u64,
    spans: Vec<Span>,
    /// Child-span aggregates, indexed by [`Op`].
    ops: [OpAgg; 4],
    /// Parent-span aggregate.
    pub txns: OpAgg,
}

impl Tracer {
    /// `epoch` is shared by all threads of a run so their spans lie on
    /// one time axis.
    pub fn new(epoch: Instant, tid: usize) -> Self {
        Tracer {
            epoch,
            tid,
            next_id: 1,
            txn_id: 0,
            txn_span: 0,
            txn_start: 0,
            spans: Vec::with_capacity(SPAN_CAP),
            ops: [OpAgg::default(); 4],
            txns: OpAgg::default(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn record(&mut self, name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) {
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                name,
                tid: self.tid,
                id,
                parent,
                txn: self.txn_id,
                start_ns,
                end_ns,
            });
        }
    }

    /// Opens the parent span of the next transaction.
    pub fn begin_txn(&mut self) {
        self.txn_id += 1;
        self.txn_span = self.next_id;
        self.next_id += 1;
        self.txn_start = self.now();
    }

    /// Closes the parent span: the transaction committed.
    pub fn end_txn(&mut self) {
        let end = self.now();
        self.txns.calls += 1;
        self.txns.ns += end - self.txn_start;
        self.record("txn", self.txn_span, 0, self.txn_start, end);
    }

    /// Records a root span that is not a transaction (a whole simulator
    /// run, say), timed by the caller.
    pub fn root_span(&mut self, name: &'static str, start: Instant, end: Instant) {
        let id = self.next_id;
        self.next_id += 1;
        self.txn_id += 1;
        let s = start.duration_since(self.epoch).as_nanos() as u64;
        let e = end.duration_since(self.epoch).as_nanos() as u64;
        self.record(name, id, 0, s, e);
    }

    fn child(&mut self, op: Op, start: u64) {
        let end = self.now();
        let agg = &mut self.ops[op as usize];
        agg.calls += 1;
        agg.ns += end - start;
        let id = self.next_id;
        self.next_id += 1;
        self.record(OP_NAMES[op as usize], id, self.txn_span, start, end);
    }

    pub fn op(&self, op: Op) -> OpAgg {
        self.ops[op as usize]
    }

    /// Time inside transactions but outside any scope call.
    pub fn txn_self_ns(&self) -> u64 {
        let children: u64 = self.ops.iter().map(|o| o.ns).sum();
        self.txns.ns.saturating_sub(children)
    }
}

/// A [`TxScope`] that records a child span around every call it
/// forwards.
pub struct TimedScope<'a> {
    inner: &'a mut dyn TxScope,
    tracer: &'a mut Tracer,
}

impl<'a> TimedScope<'a> {
    pub fn new(inner: &'a mut dyn TxScope, tracer: &'a mut Tracer) -> Self {
        TimedScope { inner, tracer }
    }
}

impl TxScope for TimedScope<'_> {
    fn read(&mut self, addr: Addr) -> Result<u64, Stop> {
        let t0 = self.tracer.now();
        let r = self.inner.read(addr);
        self.tracer.child(Op::Read, t0);
        r
    }

    fn write(&mut self, addr: Addr, value: u64) -> Result<(), Stop> {
        let t0 = self.tracer.now();
        let r = self.inner.write(addr, value);
        self.tracer.child(Op::Write, t0);
        r
    }

    fn work(&mut self, cycles: u64) -> Result<(), Stop> {
        let t0 = self.tracer.now();
        let r = self.inner.work(cycles);
        self.tracer.child(Op::Work, t0);
        r
    }

    fn alloc(&mut self, words: u64) -> Result<Addr, Stop> {
        let t0 = self.tracer.now();
        let r = self.inner.alloc(words);
        self.tracer.child(Op::Alloc, t0);
        r
    }
}

/// Renders the kept spans of all threads as one JSON document.
pub fn spans_json(workload: &str, seed: u64, tracers: &[Tracer]) -> String {
    let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [");
    let mut first = true;
    for s in tracers.iter().flat_map(|t| &t.spans) {
        let sep = if first { "" } else { "," };
        first = false;
        write!(
            out,
            "{sep}\n{{\"name\": \"{}\", \"tid\": {}, \"id\": {}, \"parent\": {}, \"txn\": {}, \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.name, s.tid, s.id, s.parent, s.txn, s.start_ns, s.end_ns
        )
        .expect("write to String");
    }
    out.push_str("\n]}\n");
    out
}
