//! Sim-vs-native cross-validation: TL2, USTM, and the hybrid driver.
//!
//! Both TL2 implementations (`ufotm_tl2::Tl2Txn` on the simulated
//! machine, `ufotm_native::NativeTxn` on host atomics) expose manual
//! step-at-a-time transaction handles, so the *same* single-threaded
//! script can interleave two transactions on either substrate. Each
//! script records every operation's result (values, abort
//! classifications) plus the final heap words it touched; the sim and
//! native logs must be string-identical. The one exception is pinned by
//! its own test: a first read of a line newer than the reader's snapshot
//! aborts on the simulator and extends the snapshot natively
//! (`docs/ARCHITECTURE.md` §7a classifies what each test holds the two
//! substrates to). Both sides use a 4096-entry lock table but map lines
//! to stripes differently (the simulator scatters, the native TL2 goes in
//! address order), so the scripts only ever pair addresses that are on
//! distinct stripes under both mappings.
//!
//! The USTM scripts drive a *single* manual handle per substrate
//! (`ufotm_ustm::UstmTxn` vs `ufotm_native::NativeUstmTxn`): the
//! simulated USTM's blocking protocol stalls a conflictor until its
//! opponent retires, so a one-thread script interleaving two handles
//! would deadlock — conflict behaviour is covered end-to-end by the
//! workload runs instead. Both sides share the `UstmAbort` type, so the
//! scripts compare classification *events* (where in the script aborts
//! surface and what they roll back), not just formatting.
//!
//! The hybrid scripts run at transaction granularity through the
//! [`TmBackend`] trait — the same generic script on the simulated
//! UfoHybrid driver and the native TL2+USTM failover driver — and label
//! each transaction's commit path from [`TmBackend::backend_stats`] deltas,
//! including a forced fast→slow failover via `force_failover_next()`,
//! once onto the slow path and once onto the serial tier.

use std::sync::{Arc, Mutex};

use ufotm_core::{BackendStats, HybridPolicy, TmBackend};
use ufotm_machine::{Addr, Machine, MachineConfig};
use ufotm_native::{
    HybridThread, NativeHybrid, NativeHybridPolicy, NativeTl2, NativeTxn, NativeUstm, NativeUstmTxn,
};
use ufotm_sim::{Ctx, Sim, ThreadFn};
use ufotm_tl2::{stripe_index, Tl2Abort, Tl2Shared, Tl2Txn};
use ufotm_ustm::{UstmAbort, UstmConfig, UstmShared, UstmTxn};

const X: Addr = Addr(512);
const LOCK_ENTRIES: u64 = 4096;

/// The stripe the simulated TL2 hashes a line to.
fn sim_stripe(addr: Addr) -> usize {
    stripe_index(addr.line(), LOCK_ENTRIES - 1)
}

/// The stripe the native TL2 puts a line on: its line number's low bits.
fn native_stripe(addr: Addr) -> usize {
    (addr.line().0 % LOCK_ENTRIES) as usize
}

/// An address past `from` on a different stripe than X on both
/// substrates, so neither side sees a collision the other does not.
fn distinct_stripe(from: u64) -> Addr {
    let y = (1..64)
        .map(|i| Addr(from + i * 64))
        .find(|&a| sim_stripe(a) != sim_stripe(X) && native_stripe(a) != native_stripe(X))
        .expect("a distinct stripe within 64 lines");
    assert_ne!(sim_stripe(y), sim_stripe(X));
    assert_ne!(native_stripe(y), native_stripe(X));
    y
}

/// Two interleaved transactions plus plain heap access — the least
/// common denominator of the two substrates' manual APIs.
trait TxnPair {
    fn begin(&mut self, who: usize);
    fn read(&mut self, who: usize, addr: Addr) -> Result<u64, Tl2Abort>;
    fn write(&mut self, who: usize, addr: Addr, value: u64) -> Result<(), Tl2Abort>;
    fn commit(&mut self, who: usize) -> Result<(), Tl2Abort>;
    fn peek(&mut self, addr: Addr) -> u64;
}

struct SimPair<'c> {
    ctx: &'c mut Ctx<Tl2Shared>,
    txns: [Tl2Txn; 2],
}

impl TxnPair for SimPair<'_> {
    fn begin(&mut self, who: usize) {
        self.txns[who].begin(self.ctx);
    }
    fn read(&mut self, who: usize, addr: Addr) -> Result<u64, Tl2Abort> {
        self.txns[who].read(self.ctx, addr)
    }
    fn write(&mut self, who: usize, addr: Addr, value: u64) -> Result<(), Tl2Abort> {
        self.txns[who].write(self.ctx, addr, value)
    }
    fn commit(&mut self, who: usize) -> Result<(), Tl2Abort> {
        self.txns[who].commit(self.ctx)
    }
    fn peek(&mut self, addr: Addr) -> u64 {
        self.ctx.with(|w| w.machine.peek(addr))
    }
}

struct NativePair<'a> {
    shared: &'a NativeTl2,
    txns: [NativeTxn<'a>; 2],
}

impl TxnPair for NativePair<'_> {
    fn begin(&mut self, who: usize) {
        self.txns[who].begin();
    }
    fn read(&mut self, who: usize, addr: Addr) -> Result<u64, Tl2Abort> {
        self.txns[who].read(addr)
    }
    fn write(&mut self, who: usize, addr: Addr, value: u64) -> Result<(), Tl2Abort> {
        self.txns[who].write(addr, value)
    }
    fn commit(&mut self, who: usize) -> Result<(), Tl2Abort> {
        self.txns[who].commit()
    }
    fn peek(&mut self, addr: Addr) -> u64 {
        self.shared.peek(addr)
    }
}

/// Runs `script` on the simulated TL2 (one logical thread driving two
/// manual handles) and returns its event log.
fn run_sim(script: fn(&mut dyn TxnPair) -> Vec<String>) -> Vec<String> {
    let out = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&out);
    let machine = Machine::new(MachineConfig::table4(2));
    let shared = Tl2Shared::new(Addr(1 << 20), LOCK_ENTRIES);
    let body: ThreadFn<Tl2Shared> = Box::new(move |ctx: &mut Ctx<Tl2Shared>| {
        let mut pair = SimPair {
            ctx,
            txns: [Tl2Txn::new(0), Tl2Txn::new(1)],
        };
        *sink.lock().unwrap() = script(&mut pair);
    });
    Sim::new(machine, shared).run(vec![body]);
    Arc::try_unwrap(out).unwrap().into_inner().unwrap()
}

/// Runs `script` on the native TL2 and returns its event log.
fn run_native(script: fn(&mut dyn TxnPair) -> Vec<String>) -> Vec<String> {
    let shared = NativeTl2::new(1 << 15, LOCK_ENTRIES, 1 << 14);
    let mut pair = NativePair {
        txns: [NativeTxn::new(&shared, 0), NativeTxn::new(&shared, 1)],
        shared: &shared,
    };
    script(&mut pair)
}

/// Asserts both substrates produce the identical event log, and returns
/// it for script-specific spot checks.
fn cross_validate(name: &str, script: fn(&mut dyn TxnPair) -> Vec<String>) -> Vec<String> {
    let sim = run_sim(script);
    let native = run_native(script);
    assert_eq!(sim, native, "{name}: sim and native logs diverge");
    assert!(!sim.is_empty(), "{name}: vacuous script");
    sim
}

#[test]
fn isolation_and_publication_agree() {
    let log = cross_validate("isolation", |p| {
        let mut ev = Vec::new();
        p.begin(0);
        ev.push(format!("a.read X pre: {:?}", p.read(0, X)));
        ev.push(format!("a.write X=7: {:?}", p.write(0, X, 7)));
        ev.push(format!("a.read own: {:?}", p.read(0, X)));
        ev.push(format!("heap X before commit: {}", p.peek(X)));
        p.begin(1);
        ev.push(format!("b.read X (isolated): {:?}", p.read(1, X)));
        ev.push(format!("b.commit: {:?}", p.commit(1)));
        ev.push(format!("a.commit: {:?}", p.commit(0)));
        ev.push(format!("heap X after commit: {}", p.peek(X)));
        ev
    });
    assert!(log.contains(&"a.read own: Ok(7)".to_string()));
    assert!(log.contains(&"heap X after commit: 7".to_string()));
}

#[test]
fn stale_read_classification_agrees() {
    let log = cross_validate("stale-read", |p| {
        let mut ev = Vec::new();
        p.begin(0);
        ev.push(format!("a.read X: {:?}", p.read(0, X)));
        p.begin(1);
        ev.push(format!("b.write X=42: {:?}", p.write(1, X, 42)));
        ev.push(format!("b.commit: {:?}", p.commit(1)));
        // B overwrote a line A already read: no snapshot holds both reads.
        ev.push(format!("a.read X stale: {:?}", p.read(0, X)));
        ev.push(format!("heap X: {}", p.peek(X)));
        ev
    });
    assert!(
        log.contains(&format!(
            "a.read X stale: {:?}",
            Err::<u64, _>(Tl2Abort::ReadValidation)
        )),
        "both sides must classify the stale read as ReadValidation: {log:?}"
    );
}

/// The one divergence the contract allows (ARCHITECTURE §7a): A's first
/// read meets a line B committed after A began. The simulated TL2 aborts
/// it; the native TL2 has read nothing B could have moved, so it extends
/// its snapshot and reads B's value, without an abort.
#[test]
fn first_read_of_a_newer_line_extends_natively() {
    let script: fn(&mut dyn TxnPair) -> Vec<String> = |p| {
        let mut ev = Vec::new();
        p.begin(0); // A's rv predates B's commit
        p.begin(1);
        ev.push(format!("b.write X=42: {:?}", p.write(1, X, 42)));
        ev.push(format!("b.commit: {:?}", p.commit(1)));
        ev.push(format!("a.read X newer: {:?}", p.read(0, X)));
        ev.push(format!("heap X: {}", p.peek(X)));
        ev
    };
    let sim = run_sim(script);
    let shared = NativeTl2::new(1 << 15, LOCK_ENTRIES, 1 << 14);
    let mut pair = NativePair {
        txns: [NativeTxn::new(&shared, 0), NativeTxn::new(&shared, 1)],
        shared: &shared,
    };
    let native = script(&mut pair);

    let read = |r: Result<u64, Tl2Abort>| format!("a.read X newer: {r:?}");
    assert_eq!(sim[2], read(Err(Tl2Abort::ReadValidation)), "{sim:?}");
    assert_eq!(native[2], read(Ok(42)), "{native:?}");
    let a = &pair.txns[0];
    assert_eq!((a.stats.extensions, a.stats.total_aborts()), (1, 0));
    let rest = |log: &[String]| [&log[..2], &log[3..]].concat();
    assert_eq!(rest(&sim), rest(&native), "only the newer read may diverge");
}

#[test]
fn commit_validation_classification_agrees() {
    let log = cross_validate("commit-validation", |p| {
        let y = distinct_stripe(1024);
        let mut ev = Vec::new();
        p.begin(0);
        ev.push(format!("a.read X: {:?}", p.read(0, X)));
        p.begin(1);
        ev.push(format!("b.write X=9: {:?}", p.write(1, X, 9)));
        ev.push(format!("b.commit: {:?}", p.commit(1)));
        ev.push(format!("a.write Y=1: {:?}", p.write(0, y, 1)));
        ev.push(format!("a.commit: {:?}", p.commit(0)));
        ev.push(format!("heap X: {}", p.peek(X)));
        ev.push(format!("heap Y: {}", p.peek(y)));
        ev
    });
    assert!(
        log.contains(&format!(
            "a.commit: {:?}",
            Err::<(), _>(Tl2Abort::CommitValidation)
        )),
        "both sides must classify the doomed commit as CommitValidation: {log:?}"
    );
    assert!(
        log.contains(&"heap Y: 0".to_string()),
        "aborted write leaked"
    );
}

#[test]
fn final_heaps_agree_after_a_deterministic_mix() {
    // A serial pseudo-random mix of read-modify-write transactions over a
    // small address range, alternating handles: no aborts, and the final
    // heap must be word-identical across substrates.
    cross_validate("deterministic-mix", |p| {
        let addrs: Vec<Addr> = (0..16).map(|i| Addr(512 + i * 64)).collect();
        let mut rng = 0xDEAD_BEEFu64;
        for step in 0..200 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let who = (step & 1) as usize;
            let src = addrs[(rng % 16) as usize];
            let dst = addrs[((rng >> 8) % 16) as usize];
            p.begin(who);
            let v = p.read(who, src).unwrap();
            p.write(who, dst, v + (rng % 7) + 1).unwrap();
            p.commit(who).unwrap();
        }
        let mut ev = Vec::new();
        for &a in &addrs {
            ev.push(format!("heap {}: {}", a.0, p.peek(a)));
        }
        ev
    });
}

// --- USTM: single-handle manual scripts --------------------------------

/// One manual USTM transaction handle plus plain heap access — the least
/// common denominator of `UstmTxn` (simulated) and `NativeUstmTxn`.
trait UstmHandle {
    fn begin(&mut self);
    fn read(&mut self, addr: Addr) -> Result<u64, UstmAbort>;
    fn write(&mut self, addr: Addr, value: u64) -> Result<(), UstmAbort>;
    fn commit(&mut self) -> Result<(), UstmAbort>;
    fn abort(&mut self) -> UstmAbort;
    fn peek(&mut self, addr: Addr) -> u64;
}

struct SimUstm<'c> {
    ctx: &'c mut Ctx<UstmShared>,
    txn: UstmTxn,
}

impl UstmHandle for SimUstm<'_> {
    fn begin(&mut self) {
        self.txn.begin(self.ctx);
    }
    fn read(&mut self, addr: Addr) -> Result<u64, UstmAbort> {
        self.txn.read(self.ctx, addr)
    }
    fn write(&mut self, addr: Addr, value: u64) -> Result<(), UstmAbort> {
        self.txn.write(self.ctx, addr, value)
    }
    fn commit(&mut self) -> Result<(), UstmAbort> {
        self.txn.commit(self.ctx)
    }
    fn abort(&mut self) -> UstmAbort {
        self.txn.abort_explicit(self.ctx)
    }
    fn peek(&mut self, addr: Addr) -> u64 {
        self.ctx.with(|w| w.machine.peek(addr))
    }
}

struct NativeUstmHandle<'a> {
    heap: &'a NativeTl2,
    txn: NativeUstmTxn<'a>,
}

impl UstmHandle for NativeUstmHandle<'_> {
    fn begin(&mut self) {
        self.txn.begin();
    }
    fn read(&mut self, addr: Addr) -> Result<u64, UstmAbort> {
        self.txn.read(addr)
    }
    fn write(&mut self, addr: Addr, value: u64) -> Result<(), UstmAbort> {
        self.txn.write(addr, value)
    }
    fn commit(&mut self) -> Result<(), UstmAbort> {
        self.txn.commit()
    }
    fn abort(&mut self) -> UstmAbort {
        self.txn.abort_explicit()
    }
    fn peek(&mut self, addr: Addr) -> u64 {
        self.heap.peek(addr)
    }
}

/// Runs a USTM script on the simulated machine (strong-atomicity config,
/// one CPU) and returns its event log.
fn run_sim_ustm(script: fn(&mut dyn UstmHandle) -> Vec<String>) -> Vec<String> {
    let out = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&out);
    let machine = Machine::new(MachineConfig::table4(1));
    let shared = UstmShared::new(UstmConfig::default(), Addr(1 << 20), 1, 1 << 10);
    let body: ThreadFn<UstmShared> = Box::new(move |ctx: &mut Ctx<UstmShared>| {
        let mut h = SimUstm {
            ctx,
            txn: UstmTxn::new(0),
        };
        *sink.lock().unwrap() = script(&mut h);
    });
    Sim::new(machine, shared).run(vec![body]);
    Arc::try_unwrap(out).unwrap().into_inner().unwrap()
}

/// Runs a USTM script on the native slow path and returns its event log.
fn run_native_ustm(script: fn(&mut dyn UstmHandle) -> Vec<String>) -> Vec<String> {
    let heap = NativeTl2::new(1 << 15, LOCK_ENTRIES, 1 << 14);
    let ustm = NativeUstm::new(&heap, 1);
    let mut h = NativeUstmHandle {
        txn: NativeUstmTxn::new(&heap, &ustm, 0),
        heap: &heap,
    };
    script(&mut h)
}

/// Asserts both USTM substrates produce the identical event log.
///
/// The scripts must not peek the heap while a writer transaction is in
/// flight: the simulated USTM versions eagerly (speculative stores land
/// in place, undone on abort) while the native USTM buffers a redo log,
/// so mid-transaction heap bytes legitimately differ — only the
/// committed (or rolled-back) states are comparable.
fn cross_validate_ustm(name: &str, script: fn(&mut dyn UstmHandle) -> Vec<String>) -> Vec<String> {
    let sim = run_sim_ustm(script);
    let native = run_native_ustm(script);
    assert_eq!(sim, native, "{name}: sim and native USTM logs diverge");
    assert!(!sim.is_empty(), "{name}: vacuous script");
    sim
}

#[test]
fn ustm_publication_and_read_own_write_agree() {
    let log = cross_validate_ustm("ustm-publication", |h| {
        let y = distinct_stripe(2048);
        let mut ev = Vec::new();
        ev.push(format!("heap X pristine: {}", h.peek(X)));
        h.begin();
        ev.push(format!("read X pre: {:?}", h.read(X)));
        ev.push(format!("write X=7: {:?}", h.write(X, 7)));
        ev.push(format!("read own X: {:?}", h.read(X)));
        ev.push(format!("write Y=3: {:?}", h.write(y, 3)));
        ev.push(format!("commit: {:?}", h.commit()));
        ev.push(format!("heap X published: {}", h.peek(X)));
        ev.push(format!("heap Y published: {}", h.peek(y)));
        ev
    });
    assert!(log.contains(&"read own X: Ok(7)".to_string()));
    assert!(log.contains(&"heap X published: 7".to_string()));
}

#[test]
fn ustm_explicit_abort_classification_and_rollback_agree() {
    let log = cross_validate_ustm("ustm-explicit-abort", |h| {
        let y = distinct_stripe(4096);
        let mut ev = Vec::new();
        h.begin();
        ev.push(format!("write X=9: {:?}", h.write(X, 9)));
        ev.push(format!("write Y=5: {:?}", h.write(y, 5)));
        let abort = h.abort();
        ev.push(format!("abort debug: {abort:?}"));
        ev.push(format!("abort display: {abort}"));
        ev.push(format!("heap X rolled back: {}", h.peek(X)));
        ev.push(format!("heap Y rolled back: {}", h.peek(y)));
        // The handle is reusable after an explicit abort.
        h.begin();
        ev.push(format!("write X=5: {:?}", h.write(X, 5)));
        ev.push(format!("commit: {:?}", h.commit()));
        ev.push(format!("heap X after retry: {}", h.peek(X)));
        ev
    });
    assert!(
        log.contains(&"abort display: explicit STM abort".to_string()),
        "both sides must classify the abort identically: {log:?}"
    );
    assert!(log.contains(&"heap X rolled back: 0".to_string()));
    assert!(log.contains(&"heap X after retry: 5".to_string()));
}

#[test]
fn ustm_serial_rmw_mix_final_heaps_agree() {
    // A serial pseudo-random read-modify-write mix over a small address
    // range: no aborts, and the final heap must be word-identical.
    cross_validate_ustm("ustm-deterministic-mix", |h| {
        let addrs: Vec<Addr> = (0..12).map(|i| Addr(512 + i * 64)).collect();
        let mut rng = 0x5EED_CAFEu64;
        for _ in 0..100 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let src = addrs[(rng % 12) as usize];
            let dst = addrs[((rng >> 8) % 12) as usize];
            h.begin();
            let v = h.read(src).unwrap();
            h.write(dst, v + (rng % 5) + 1).unwrap();
            h.commit().unwrap();
        }
        let mut ev = Vec::new();
        for &a in &addrs {
            ev.push(format!("heap {}: {}", a.0, h.peek(a)));
        }
        ev
    });
}

// --- Hybrid: transaction-granularity scripts over TmBackend ------------

/// Labels one transaction's commit path from the [`BackendStats`] before
/// and after it.
fn path(before: BackendStats, after: BackendStats) -> &'static str {
    match (
        after.fast_commits - before.fast_commits,
        after.slow_commits - before.slow_commits,
        after.serial_commits - before.serial_commits,
    ) {
        (1, 0, 0) => "fast",
        (0, 1, 0) => "slow",
        // The serial tier is part of the slow path on both substrates.
        (0, 1, 1) => "serial",
        _ => "mixed",
    }
}

/// The shared hybrid script: three read-modify-write transactions, the
/// middle one forced onto the slow path via the driver's failover hook.
/// Runs unchanged on the simulated UfoHybrid (BTM fast path, USTM slow
/// path) and the native hybrid (TL2 fast path, native USTM slow path);
/// values, per-transaction path labels, and failover counts must agree.
fn hybrid_script<B: TmBackend>(b: &mut B) -> Vec<String> {
    let mut ev = Vec::new();
    let s0 = b.backend_stats();
    let v = b.transaction(|tx| {
        let v = tx.read(X)?;
        tx.write(X, v + 7)?;
        tx.read(X)
    });
    let s1 = b.backend_stats();
    ev.push(format!("rmw: {v}, path {}", path(s0, s1)));

    b.force_failover_next();
    let v = b.transaction(|tx| {
        let v = tx.read(X)?;
        tx.write(X, v * 3)?;
        tx.read(X)
    });
    let s2 = b.backend_stats();
    ev.push(format!("forced: {v}, path {}", path(s1, s2)));
    ev.push(format!("failovers taken: {}", s2.failovers - s1.failovers));

    // The forced failover is one-shot: the next transaction goes back to
    // the fast path on both drivers.
    let v = b.transaction(|tx| {
        let v = tx.read(X)?;
        tx.write(X, v + 1)?;
        tx.read(X)
    });
    let s3 = b.backend_stats();
    ev.push(format!("after forced: {v}, path {}", path(s2, s3)));
    ev.push(format!("final X: {}", b.plain_load(X)));
    ev
}

/// Runs [`hybrid_script`] on one simulated UfoHybrid thread and one native
/// hybrid thread, checks the two logs are identical, and returns the log.
fn hybrid_script_on_both(sim: HybridPolicy, native: NativeHybridPolicy) -> Vec<String> {
    use ufotm_core::SystemKind;
    use ufotm_stamp::backend::SimBackend;
    use ufotm_stamp::harness::{run_workload, RunSpec, WorkBody};

    let out = Arc::new(Mutex::new(Vec::new()));
    let mut spec = RunSpec::new(SystemKind::UfoHybrid, 1);
    spec.policy = sim;
    run_workload(
        &spec,
        |_m, _w| {},
        |tid| -> WorkBody {
            let sink = Arc::clone(&out);
            Box::new(move |t, ctx| {
                let mut b = SimBackend::new(t, ctx, tid, 1);
                *sink.lock().unwrap() = hybrid_script(&mut b);
            })
        },
        |_m, _w| {},
    );
    let sim = Arc::try_unwrap(out).unwrap().into_inner().unwrap();

    let h = NativeHybrid::new(1 << 15, LOCK_ENTRIES, 1 << 14, 1, native);
    let mut th = HybridThread::new(&h, None, 0, 1);
    let native = hybrid_script(&mut th);

    assert_eq!(sim, native, "hybrid script logs diverge");
    sim
}

#[test]
fn hybrid_forced_failover_script_agrees() {
    let log = hybrid_script_on_both(HybridPolicy::default(), NativeHybridPolicy::default());
    assert!(
        log.contains(&"forced: 21, path slow".to_string()),
        "forced transaction must take the slow path on both drivers: {log:?}"
    );
    assert!(
        log.contains(&"after forced: 22, path fast".to_string()),
        "failover must be one-shot on both drivers: {log:?}"
    );
    assert!(log.contains(&"failovers taken: 1".to_string()));
}

/// The same script with both drivers escalating a slow transaction at
/// once: the third tier is the eldest software transaction on both
/// substrates, and the logs must still be identical.
#[test]
fn hybrid_forced_failover_script_agrees_on_the_serial_tier() {
    let log = hybrid_script_on_both(
        HybridPolicy {
            watchdog_sw_kills: Some(0),
            ..HybridPolicy::default()
        },
        NativeHybridPolicy {
            serial_after: 0,
            ..NativeHybridPolicy::default()
        },
    );
    assert!(
        log.contains(&"forced: 21, path serial".to_string()),
        "forced transaction must take the serial tier on both drivers: {log:?}"
    );
    assert!(log.contains(&"after forced: 22, path fast".to_string()));
    assert!(log.contains(&"failovers taken: 1".to_string()));
}

#[test]
fn hybrid_workload_commit_counts_agree() {
    // End-to-end: the backend-generic vacation/genome bodies, run on the
    // simulated UfoHybrid and the native failover hybrid, commit exactly
    // the same number of transactions (every logical transaction commits
    // once, on whichever path the driver picked).
    use ufotm_core::SystemKind;
    use ufotm_stamp::harness::{self, RunSpec};
    use ufotm_stamp::{genome, vacation};

    let gp = genome::GenomeParams {
        segments: 80,
        segment_space: 1 << 30,
        buckets: 32,
    };
    let sim = harness::run_sim(&RunSpec::new(SystemKind::UfoHybrid, 3), &gp);
    let native = harness::run_native(&RunSpec::new(SystemKind::UfoHybrid, 3), &gp);
    assert_eq!(sim.total_commits(), native.total_commits());

    let vp = vacation::VacationParams {
        relations: 64,
        id_space: 128,
        queries: 6,
        query_range_pct: 50,
        reserve_pct: 90,
        total_tasks: 30,
        customers: 16,
    };
    let sim = harness::run_sim(&RunSpec::new(SystemKind::UfoHybrid, 4), &vp);
    let native = harness::run_native(&RunSpec::new(SystemKind::UfoHybrid, 4), &vp);
    assert_eq!(sim.total_commits(), native.total_commits());
}

#[test]
fn workload_results_agree_between_substrates() {
    // End-to-end: the same backend-generic kmeans/ssca2 bodies verify
    // against the same host-side replay on both substrates, and commit
    // exactly the same number of transactions.
    use ufotm_core::SystemKind;
    use ufotm_stamp::harness::{self, RunSpec};
    use ufotm_stamp::{kmeans, ssca2};

    let kp = kmeans::KmeansParams {
        points: 96,
        dims: 2,
        clusters: 4,
        iterations: 2,
    };
    let sim = harness::run_sim(&RunSpec::new(SystemKind::Tl2, 4), &kp);
    let native = harness::run_native(&RunSpec::new(SystemKind::Tl2, 4), &kp);
    assert_eq!(sim.total_commits(), native.hybrid.fast.commits);

    let sp = ssca2::Ssca2Params {
        nodes: 32,
        edges: 120,
    };
    let sim = harness::run_sim(&RunSpec::new(SystemKind::Tl2, 4), &sp);
    let native = harness::run_native(&RunSpec::new(SystemKind::Tl2, 4), &sp);
    assert_eq!(sim.total_commits(), native.hybrid.fast.commits);
}
