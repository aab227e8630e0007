//! Real-thread stress for the native hybrid and its USTM slow path —
//! counter invariants under genuine contention. These (with
//! `ustm_protocol.rs` and `concurrent.rs`) are the CI ThreadSanitizer
//! targets for the crate: TSan runs them with `UFOTM_SKIP_GUARD=1`, so
//! the heap uses plain boxed atomics and every USTM/hybrid
//! synchronization path is visible to the race detector.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use ufotm_core::TmBackend;
use ufotm_machine::Addr;
use ufotm_native::{
    run_hybrid_threads, run_hybrid_threads_collect, HybridThread, NativeHybrid, NativeHybridPolicy,
};

const COUNTER: Addr = Addr(512);
const ACCT_A: Addr = Addr(1024);
const ACCT_B: Addr = Addr(8192); // different page and stripe

fn world(threads: usize) -> NativeHybrid {
    world_with(threads, NativeHybridPolicy::default())
}

fn world_with(threads: usize, policy: NativeHybridPolicy) -> NativeHybrid {
    NativeHybrid::new(1 << 16, 1 << 12, 1 << 12, threads, 1 << 8, policy)
}

#[test]
fn hybrid_counter_increments_are_exact() {
    const THREADS: usize = 4;
    const PER: u64 = 400;
    let h = world(THREADS);
    let (stats, _) = run_hybrid_threads(&h, THREADS, |th| {
        for _ in 0..PER {
            th.transaction(|tx| {
                let v = tx.read(COUNTER)?;
                tx.work(16)?;
                tx.write(COUNTER, v + 1)?;
                Ok(())
            });
        }
    });
    assert_eq!(h.peek(COUNTER), THREADS as u64 * PER, "increments lost");
    assert_eq!(
        stats.total_commits(),
        THREADS as u64 * PER,
        "exactly one commit per transaction across both paths"
    );
    assert_eq!(
        stats.fast.begins,
        stats.fast.commits + stats.fast.total_aborts(),
        "fast-path accounting must balance"
    );
    assert_eq!(
        stats.slow.begins,
        stats.slow.commits + stats.slow.total_aborts(),
        "slow-path accounting must balance"
    );
    assert_eq!(h.ustm().owned_lines(), 0, "ownership must drain");
}

/// An aggressive failover policy under heavy conflict: the slow path
/// must actually be taken, and still not lose an update.
#[test]
fn hybrid_fails_over_under_conflict_and_stays_exact() {
    const THREADS: usize = 4;
    const PER: u64 = 300;
    let h = NativeHybrid::new(
        1 << 16,
        1 << 12,
        1 << 12,
        THREADS,
        1 << 8,
        NativeHybridPolicy {
            failover_after: 1, // any abort fails over
            ..NativeHybridPolicy::default()
        },
    );
    let (stats, _) = run_hybrid_threads(&h, THREADS, |th| {
        for _ in 0..PER {
            th.transaction(|tx| {
                let v = tx.read(COUNTER)?;
                // Yield mid-body so another thread's commit lands between
                // this read and our commit even on a single-CPU host:
                // conflicts (and thus failovers) become near-certain
                // instead of depending on a lucky preemption.
                tx.work(16)?;
                std::thread::yield_now();
                tx.write(COUNTER, v + 1)?;
                Ok(())
            });
        }
    });
    assert_eq!(h.peek(COUNTER), THREADS as u64 * PER);
    assert_eq!(stats.total_commits(), THREADS as u64 * PER);
    assert!(
        stats.failovers > 0 && stats.slow.commits > 0,
        "contention at failover_after=1 must exercise the slow path \
         (failovers={}, slow commits={})",
        stats.failovers,
        stats.slow.commits
    );
}

/// Forced failover: the test hook sends exactly the next transaction to
/// the slow path, counted separately.
#[test]
fn forced_failover_runs_next_transaction_on_the_slow_path() {
    let h = world(1);
    let (stats, _) = run_hybrid_threads(&h, 1, |th| {
        th.transaction(|tx| tx.write(COUNTER, 1));
        th.force_failover_next();
        th.transaction(|tx| {
            let v = tx.read(COUNTER)?;
            tx.write(COUNTER, v + 10)?;
            Ok(())
        });
        th.transaction(|tx| {
            let v = tx.read(COUNTER)?;
            tx.write(COUNTER, v + 100)?;
            Ok(())
        });
    });
    assert_eq!(h.peek(COUNTER), 111);
    assert_eq!(stats.slow.commits, 1, "exactly the forced txn went slow");
    assert_eq!(stats.fast.commits, 2, "the others stayed on the fast path");
    assert_eq!(stats.forced_failovers, 1);
    assert_eq!(stats.failovers, 1);
}

/// Invariant preservation across both paths: transfers between two
/// accounts (on different pages/stripes) with interleaved read-only
/// audits. The total must be conserved at every audit and at the end.
#[test]
fn hybrid_transfers_conserve_the_total() {
    const THREADS: usize = 4;
    const PER: u64 = 250;
    const TOTAL: u64 = 1_000_000;
    let h = NativeHybrid::new(
        1 << 16,
        1 << 12,
        1 << 12,
        THREADS,
        1 << 8,
        NativeHybridPolicy {
            failover_after: 2,
            ..NativeHybridPolicy::default()
        },
    );
    h.poke(ACCT_A, TOTAL);
    h.poke(ACCT_B, 0);
    let audits = AtomicU64::new(0);

    let body = |th: &mut HybridThread<'_>| {
        let tid = th.tid() as u64;
        for i in 0..PER {
            if (i + tid).is_multiple_of(5) {
                // Read-only audit transaction.
                let sum = th.transaction(|tx| {
                    let a = tx.read(ACCT_A)?;
                    let b = tx.read(ACCT_B)?;
                    Ok(a + b)
                });
                assert_eq!(sum, TOTAL, "audit saw a torn transfer");
                audits.fetch_add(1, Ordering::Relaxed);
            } else {
                let amount = (tid * 131 + i) % 97 + 1;
                th.transaction(|tx| {
                    let a = tx.read(ACCT_A)?;
                    if a < amount {
                        return Ok(()); // insufficient funds: no-op
                    }
                    let b = tx.read(ACCT_B)?;
                    tx.work(32)?;
                    tx.write(ACCT_A, a - amount)?;
                    tx.write(ACCT_B, b + amount)?;
                    Ok(())
                });
            }
        }
    };
    let (stats, _) = run_hybrid_threads(&h, THREADS, body);

    assert_eq!(
        h.peek(ACCT_A) + h.peek(ACCT_B),
        TOTAL,
        "transfers must conserve the total"
    );
    assert!(audits.load(Ordering::Relaxed) > 0);
    assert_eq!(stats.total_commits(), THREADS as u64 * PER);
    assert_eq!(h.ustm().owned_lines(), 0);
}

/// Pure slow-path stress: every transaction forced onto USTM, maximal
/// kill/stall traffic through the ownership table.
#[test]
fn all_slow_path_counter_is_exact() {
    const THREADS: usize = 3;
    const PER: u64 = 200;
    let h = world(THREADS);
    let (stats, _) = run_hybrid_threads(&h, THREADS, |th| {
        for _ in 0..PER {
            th.force_failover_next();
            th.transaction(|tx| {
                let v = tx.read(COUNTER)?;
                tx.work(16)?;
                tx.write(COUNTER, v + 1)?;
                Ok(())
            });
        }
    });
    assert_eq!(h.peek(COUNTER), THREADS as u64 * PER);
    // A forced-slow transaction whose USTM attempts keep getting killed
    // escalates to the serial tier after `serial_after` tries and commits
    // there, so the exact invariant is over both tiers together.
    assert_eq!(
        stats.slow.commits + stats.serial_commits,
        THREADS as u64 * PER
    );
    assert_eq!(stats.fast.begins, 0, "everything was forced slow");
    assert_eq!(stats.forced_failovers, THREADS as u64 * PER);
}

/// How long a parked body lingers once the other side has been told to
/// go: long enough that a gate which let the other side through would be
/// caught in the act. A correct gate passes however the scheduler
/// behaves — lingering can only turn a wrong pass into a failure.
const LINGER: Duration = Duration::from_millis(50);

/// The gate, fast side registered first: while tid 0 sits inside a
/// fast-path body its gate flag is up, so tid 1's slow-path transaction
/// must wait in its drain and cannot run its body until tid 0 has left.
/// (That no two gate flags share a 128-byte line is a `const` assertion
/// beside `GateFlag` in `src/hybrid.rs`.)
#[test]
fn slow_transaction_waits_for_a_parked_fast_body() {
    let (h, slow_ran) = (&world(2), &AtomicBool::new(false));
    let (entered_tx, entered_rx) = mpsc::channel();
    let (asking_tx, asking_rx) = mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut th = HybridThread::new(h, None, 0, 2);
            let mut first = true;
            th.transaction(|tx| {
                let v = tx.read(COUNTER)?;
                if std::mem::take(&mut first) {
                    entered_tx.send(()).unwrap();
                    asking_rx.recv().unwrap();
                    std::thread::sleep(LINGER);
                    assert!(
                        !slow_ran.load(Ordering::SeqCst),
                        "a slow-path body ran beside a registered fast transaction"
                    );
                }
                tx.write(COUNTER, v + 1)
            });
            assert_eq!(th.stats().fast.commits, 1);
        });
        s.spawn(move || {
            let mut th = HybridThread::new(h, None, 1, 2);
            entered_rx.recv().unwrap();
            asking_tx.send(()).unwrap();
            th.force_failover_next();
            th.transaction(|tx| {
                slow_ran.store(true, Ordering::SeqCst);
                tx.write(ACCT_A, 1)
            });
            assert_eq!(th.stats().slow.commits, 1);
        });
    });
    assert!(slow_ran.load(Ordering::SeqCst));
    assert_eq!((h.peek(COUNTER), h.peek(ACCT_A)), (1, 1));
}

/// The gate, roles reversed and the fast side anonymous: while tid 0
/// sits inside a slow-path body `slow_mode` is raised, so a tid-less
/// [`NativeHybrid::poke`] from another thread parks at the gate and
/// returns only after the slow transaction has committed.
#[test]
fn anonymous_poke_waits_for_a_parked_slow_body() {
    let (h, poke_returned) = (&world(1), &AtomicBool::new(false));
    let (entered_tx, entered_rx) = mpsc::channel();
    let (poking_tx, poking_rx) = mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut th = HybridThread::new(h, None, 0, 1);
            let mut first = true;
            th.force_failover_next();
            th.transaction(|tx| {
                let v = tx.read(COUNTER)?;
                if std::mem::take(&mut first) {
                    entered_tx.send(()).unwrap();
                    poking_rx.recv().unwrap();
                    std::thread::sleep(LINGER);
                    assert!(
                        !poke_returned.load(Ordering::SeqCst),
                        "a plain store got through the gate beside a slow-path body"
                    );
                }
                tx.write(COUNTER, v + 1)
            });
            assert_eq!(th.stats().slow.commits, 1);
        });
        s.spawn(move || {
            entered_rx.recv().unwrap();
            poking_tx.send(()).unwrap();
            h.poke(ACCT_B, 7);
            poke_returned.store(true, Ordering::SeqCst);
        });
    });
    assert!(poke_returned.load(Ordering::SeqCst));
    assert_eq!((h.peek(COUNTER), h.peek(ACCT_B)), (1, 7));
}

/// A body that unwinds on the serial tier must take `serial_mode` down
/// with it. tid 0 escalates straight to the serial tier
/// (`serial_after: 0`) and panics inside its body; tid 1 starts only once
/// tid 0 is in there, so it parks at the gate with the mode raised — and
/// must be released by the unwind, not wait forever. The run happens on a
/// detached thread and reports over a channel, so a wedged survivor fails
/// the test instead of hanging it.
#[test]
fn a_panic_on_the_serial_tier_releases_the_parked_survivors() {
    const PER: u64 = 100;
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let policy = NativeHybridPolicy {
            serial_after: 0,
            ..NativeHybridPolicy::default()
        };
        let h = world_with(2, policy);
        let (entered_tx, entered_rx) = mpsc::channel();
        let entered_rx = std::sync::Mutex::new(entered_rx);
        let outcomes = run_hybrid_threads_collect(&h, 2, |th| {
            if th.tid() == 0 {
                th.force_failover_next();
                th.transaction(|tx| {
                    tx.write(ACCT_A, 1)?;
                    entered_tx.send(()).unwrap();
                    panic!("body died on the serial tier");
                })
            } else {
                entered_rx.lock().unwrap().recv().unwrap();
                for _ in 0..PER {
                    th.transaction(|tx| {
                        let v = tx.read(COUNTER)?;
                        tx.write(COUNTER, v + 1)
                    });
                }
            }
        });
        let verdicts: Vec<bool> = outcomes.iter().map(|o| o.result.is_ok()).collect();
        done_tx.send((verdicts, h.peek(COUNTER))).unwrap();
    });
    let (verdicts, counter) = done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the survivor is still parked behind a dead serial transaction's mode");
    assert_eq!(verdicts, [false, true], "tid 0 dies, tid 1 finishes");
    assert_eq!(counter, PER);
}
