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
    run_hybrid_threads, run_hybrid_threads_collect, HybridStats, HybridThread, NativeHybrid,
    NativeHybridPolicy,
};
use ufotm_ustm::UstmAbort;

const COUNTER: Addr = Addr(512);
const ACCT_A: Addr = Addr(1024);
const ACCT_B: Addr = Addr(8192); // different page and stripe

fn world(threads: usize) -> NativeHybrid {
    world_with(threads, NativeHybridPolicy::default())
}

fn world_with(threads: usize, policy: NativeHybridPolicy) -> NativeHybrid {
    NativeHybrid::new(1 << 16, 1 << 12, 1 << 12, threads, policy)
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
/// kill/stall traffic through the owner words.
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

/// How long a parent waits for a detached scenario to report.
const PARENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Runs `scenario` on a detached thread and waits for its report, so one
/// that wedges fails its test (with `wedged`) instead of hanging it.
fn or_time_out<T: Send + 'static>(
    wedged: &str,
    scenario: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || done_tx.send(scenario()));
    done_rx.recv_timeout(PARENT_TIMEOUT).expect(wedged)
}

/// Straight to the serial tier: a forced-slow transaction makes no USTM
/// attempt at all.
const SERIAL_AT_ONCE: NativeHybridPolicy = NativeHybridPolicy {
    failover_after: 4,
    serial_after: 0,
};

/// tid 0 parks in the middle of a fast-path body; tid 1's forced-slow
/// transaction on other lines (a serial one under `SERIAL_AT_ONCE`)
/// begins, commits and reports; tid 0 resumes only on that report. Returns
/// (tid 0's stats, tid 1's stats), COUNTER and ACCT_B.
fn forced_slow_commit_beside_a_parked_fast_body(
    policy: NativeHybridPolicy,
    wedged: &str,
) -> ((HybridStats, HybridStats), u64, u64) {
    or_time_out(wedged, move || {
        let h = &world_with(2, policy);
        let (entered_tx, entered_rx) = mpsc::channel();
        let (committed_tx, committed_rx) = mpsc::channel();
        let stats = std::thread::scope(|s| {
            let fast = s.spawn(move || {
                let mut th = HybridThread::new(h, None, 0, 2);
                let mut first = true;
                th.transaction(|tx| {
                    let v = tx.read(COUNTER)?;
                    if std::mem::take(&mut first) {
                        entered_tx.send(()).unwrap();
                        committed_rx.recv().unwrap();
                    }
                    tx.write(COUNTER, v + 1)
                });
                th.stats()
            });
            let slow = s.spawn(move || {
                let mut th = HybridThread::new(h, None, 1, 2);
                entered_rx.recv().unwrap();
                th.force_failover_next();
                th.transaction(|tx| {
                    let a = tx.read(ACCT_A)?;
                    tx.write(ACCT_B, a + 7)
                });
                committed_tx.send(()).unwrap();
                th.stats()
            });
            (fast.join().unwrap(), slow.join().unwrap())
        });
        (stats, h.peek(COUNTER), h.peek(ACCT_B))
    })
}

/// No tier stops the fast path: while tid 0 is parked in the middle of a
/// fast-path body, tid 1's *serial* transaction on other lines begins,
/// commits and reports — tid 0 resumes only on that report, so a serial
/// tier that still drained fast bodies would wedge both (and time out at
/// the parent). tid 0 then commits without a single abort.
#[test]
fn serial_transaction_commits_beside_a_parked_fast_body() {
    let wedged = "the serial transaction is waiting for the parked fast body";
    let ((fast, serial), counter, acct_b) =
        forced_slow_commit_beside_a_parked_fast_body(SERIAL_AT_ONCE, wedged);
    assert_eq!(
        (serial.serial_commits, serial.slow.begins),
        (1, 0),
        "straight to the serial tier"
    );
    assert_eq!(serial.total_aborts(), 0);
    assert_eq!(
        (fast.fast.commits, fast.total_aborts()),
        (1, 0),
        "a serial commit on other lines must not cost the parked fast body an attempt"
    );
    assert_eq!((counter, acct_b), (1, 7));
}

/// The exclusion that went: while tid 0 is parked in the middle of a
/// fast-path body, tid 1's forced-slow transaction on other lines begins,
/// commits and reports — tid 0 resumes only on that report, so a slow
/// path that still waited for fast bodies would wedge both (and time out
/// at the parent). tid 0 then commits without a single abort: the slow
/// commit ticked the clock (a slow commit still moves it, a fast one only
/// reads it) but not the stripe tid 0 had read, and tid 0's commit
/// validates the stripes it read, not the clock.
#[test]
fn slow_transaction_commits_beside_a_parked_fast_body() {
    let wedged = "the slow transaction is waiting for the parked fast body";
    let ((fast, slow), counter, acct_b) =
        forced_slow_commit_beside_a_parked_fast_body(NativeHybridPolicy::default(), wedged);
    assert_eq!((slow.slow.commits, slow.total_aborts()), (1, 0));
    assert_eq!(
        (fast.fast.commits, fast.total_aborts()),
        (1, 0),
        "a slow commit on other lines must not cost the parked fast body an attempt"
    );
    assert_eq!((counter, acct_b), (1, 7));
}

/// A fast commit yields to a slow owner, as a hardware transaction takes
/// a UFO fault. tid 0's slow transaction reads ACCT_A and parks; tid 1's
/// fast increment of ACCT_A takes the stripe, finds the reader in its
/// owner word and aborts `LockBusy`; told so, the reader reads the
/// word again — the same value — and commits; only then does the
/// increment land. tid 1 never fails over (`failover_after` is out of
/// reach), so every abort it counts is the fast path yielding. The reader
/// is driven as an ordinary slow transaction and as the serial tier's
/// eldest one: rule 3 is all that protects either from the fast path.
#[test]
fn fast_commit_yields_to_a_slow_reader_of_the_line() {
    for policy in [NativeHybridPolicy::default(), SERIAL_AT_ONCE] {
        fast_commit_yields_to_a_reader_under(policy);
    }
}

fn fast_commit_yields_to_a_reader_under(policy: NativeHybridPolicy) {
    const BEFORE: u64 = 40;
    let wedged = "the reader and the yielding writer wedged each other";
    let (writer, acct_a) = or_time_out(wedged, move || {
        let h = &world_with(
            2,
            NativeHybridPolicy {
                failover_after: u32::MAX,
                ..policy
            },
        );
        h.poke(ACCT_A, BEFORE);
        let (entered_tx, entered_rx) = mpsc::channel();
        let (tried_tx, tried_rx) = mpsc::channel();
        let writer = std::thread::scope(|s| {
            s.spawn(move || {
                let mut th = HybridThread::new(h, None, 0, 2);
                let mut first = true;
                th.force_failover_next();
                let (before, after) = th.transaction(|tx| {
                    let before = tx.read(ACCT_A)?;
                    if std::mem::take(&mut first) {
                        entered_tx.send(()).unwrap();
                        tried_rx.recv().unwrap();
                    }
                    Ok((before, tx.read(ACCT_A)?))
                });
                assert_eq!(
                    (before, after),
                    (BEFORE, BEFORE),
                    "a fast commit wrote a line under its slow reader"
                );
                let stats = th.stats();
                assert_eq!(stats.slow.commits + stats.serial_commits, 1);
                assert_eq!(stats.serial_commits, u64::from(policy.serial_after == 0));
            });
            let writer = s.spawn(move || {
                let mut th = HybridThread::new(h, None, 1, 2);
                entered_rx.recv().unwrap();
                let mut attempts = 0;
                th.transaction(|tx| {
                    attempts += 1;
                    if attempts == 2 {
                        // The first attempt is over: it aborted.
                        tried_tx.send(()).unwrap();
                    }
                    let v = tx.read(ACCT_A)?;
                    tx.write(ACCT_A, v + 1)
                });
                // A first attempt that got through says so too, so the
                // reader's second read can convict it.
                let _ = tried_tx.send(());
                th.stats()
            });
            writer.join().unwrap()
        });
        (writer, h.peek(ACCT_A))
    });
    assert!(
        writer.fast.slow_owner_aborts >= 1,
        "the writer never yielded"
    );
    assert_eq!(
        writer.fast.total_aborts(),
        writer.fast.slow_owner_aborts,
        "every abort of the writer, its first included, is a yield to the slow owner: {writer:?}"
    );
    assert_eq!(writer.fast.commits, 1);
    assert_eq!(acct_a, BEFORE + 1, "the increment lands after the reader");
}

/// The age rule with the eldest in it. tid 0's slow transaction reads
/// ACCT_A and stays in its body, polling `work` — where a body notices a
/// kill. tid 1's serial read-modify-write of ACCT_A needs the line for
/// writing, finds the younger reader and kills it: the reader leaves its
/// poll loop by that kill and no other way, the serial transaction commits
/// on its one attempt, and the reader's retry reads what it wrote. (A
/// serial tier that drew a fresh timestamp would be the younger of the
/// two, stall behind the reader for ever, and time out at the parent.)
#[test]
fn serial_transaction_kills_a_younger_slow_owner() {
    const BEFORE: u64 = 40;
    let wedged = "the serial transaction is outwaiting a younger reader it should have killed";
    let ((reader, seen), serial, acct_a) = or_time_out(wedged, || {
        let h = &world_with(2, SERIAL_AT_ONCE);
        h.poke(ACCT_A, BEFORE);
        let (parked_tx, parked_rx) = mpsc::channel();
        let (reader, serial) = std::thread::scope(|s| {
            let reader = s.spawn(move || {
                // A bare slow-path handle: under this policy a
                // `HybridThread`'s slow transaction would be serial too.
                let (_, mut slow) = h.debug_step_handles(0);
                let mut first = true;
                let seen = loop {
                    let attempt = slow.attempt(|t| {
                        let v = t.read(ACCT_A)?;
                        if std::mem::take(&mut first) {
                            parked_tx.send(()).unwrap();
                            loop {
                                t.work(0)?;
                                std::thread::yield_now();
                            }
                        }
                        Ok::<_, UstmAbort>(v)
                    });
                    if let Some(v) = attempt {
                        break v;
                    }
                };
                (slow.stats, seen)
            });
            let serial = s.spawn(move || {
                let mut th = HybridThread::new(h, None, 1, 2);
                parked_rx.recv().unwrap();
                th.force_failover_next();
                th.transaction(|tx| {
                    let v = tx.read(ACCT_A)?;
                    tx.write(ACCT_A, v + 1)
                });
                th.stats()
            });
            (reader.join().unwrap(), serial.join().unwrap())
        });
        (reader, serial, h.peek(ACCT_A))
    });
    assert_eq!((serial.serial_commits, serial.total_aborts()), (1, 0));
    assert!(serial.slow.kills_issued >= 1 && reader.aborts_killed >= 1);
    assert_eq!((reader.commits, seen, acct_a), (1, BEFORE + 1, BEFORE + 1));
}

/// One eldest seat. tid 0 parks inside a serial body; tid 1's serial
/// transaction, on another line, must not start its body until tid 0 has
/// committed — age does not order two timestamp-0 transactions, and on one
/// line each would stall behind the other for ever. tid 0 listens (for
/// `LINGER`: behind a correct gate there is nothing to hear) for tid 1's
/// body starting, and says what it heard only after it has committed: an
/// assertion inside the body would leave a corpse owning the line.
#[test]
fn two_serial_transactions_run_one_at_a_time() {
    let wedged = "two serial transactions wedged each other";
    let ((overlapped, first), second, heap) = or_time_out(wedged, || {
        let h = &world_with(2, SERIAL_AT_ONCE);
        let (entered_tx, entered_rx) = mpsc::channel();
        let (started_tx, started_rx) = mpsc::channel();
        let (first, second) = std::thread::scope(|s| {
            let first = s.spawn(move || {
                let mut th = HybridThread::new(h, None, 0, 2);
                let mut overlapped = false;
                th.force_failover_next();
                th.transaction(|tx| {
                    let v = tx.read(COUNTER)?;
                    entered_tx.send(()).unwrap();
                    overlapped = started_rx.recv_timeout(LINGER).is_ok();
                    tx.write(COUNTER, v + 1)
                });
                (overlapped, th.stats())
            });
            let second = s.spawn(move || {
                let mut th = HybridThread::new(h, None, 1, 2);
                entered_rx.recv().unwrap();
                th.force_failover_next();
                th.transaction(|tx| {
                    // Nobody is listening once tid 0 has committed.
                    let _ = started_tx.send(());
                    tx.write(ACCT_A, 1)
                });
                th.stats()
            });
            (first.join().unwrap(), second.join().unwrap())
        });
        (first, second, (h.peek(COUNTER), h.peek(ACCT_A)))
    });
    assert!(
        !overlapped,
        "tid 1's serial body started while tid 0's was still running"
    );
    assert_eq!((first.serial_commits, second.serial_commits), (1, 1));
    assert_eq!(first.total_aborts() + second.total_aborts(), 0);
    assert_eq!(heap, (1, 1));
}

/// Both paths at once on the same few lines: 4 workers move money among
/// 8 one-line accounts, every third transaction forced slow, with
/// read-only audits of all 8 on either path. Every audit — fast
/// (invisible reads, validated) or slow (visible reads, owned) — sees
/// the total, and the table drains.
#[test]
fn mixed_paths_on_shared_lines_conserve_the_total() {
    const THREADS: usize = 4;
    const PER: u64 = 20_000;
    const ACCOUNTS: u64 = 8;
    const EACH: u64 = 1_000;
    let account = |i: u64| Addr(ACCT_A.0 + (i % ACCOUNTS) * 64);
    let h = world(THREADS);
    for i in 0..ACCOUNTS {
        h.poke(account(i), EACH);
    }
    let (stats, _) = run_hybrid_threads(&h, THREADS, |th| {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ (th.tid() as u64 + 1);
        for i in 0..PER {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            if i % 3 == 0 {
                th.force_failover_next();
            }
            if i % 8 == 5 {
                let sum = th.transaction(|tx| {
                    let mut sum = 0;
                    for a in 0..ACCOUNTS {
                        sum += tx.read(account(a))?;
                    }
                    Ok(sum)
                });
                assert_eq!(sum, ACCOUNTS * EACH, "an audit saw a torn transfer");
            } else {
                let (from, to) = (account(rng), account(rng >> 8));
                let amount = (rng >> 16) % 50;
                th.transaction(|tx| {
                    let f = tx.read(from)?;
                    if from == to || f < amount {
                        return Ok(());
                    }
                    let t = tx.read(to)?;
                    tx.write(from, f - amount)?;
                    tx.write(to, t + amount)
                });
            }
        }
    });
    let total: u64 = (0..ACCOUNTS).map(|a| h.peek(account(a))).sum();
    assert_eq!(total, ACCOUNTS * EACH, "transfers must conserve the total");
    assert_eq!(stats.total_commits(), THREADS as u64 * PER);
    assert!(stats.fast.commits > 0 && stats.slow.commits > 0);
    assert_eq!(h.ustm().owned_lines(), 0, "ownership must drain");
    h.ustm().audit().expect("owner-word audit");
}

/// Private data never conflicts: two workers increment four consecutive
/// lines at a time in disjoint contiguous regions, every eighth
/// transaction forced slow, chaos disarmed. Stripes and their owner
/// words are indexed in address order, so neither worker touches a
/// stripe or an owner word of the other's: no fast abort, no slow abort,
/// and no failover but the forced ones.
#[test]
fn private_regions_never_conflict() {
    const THREADS: usize = 2;
    const PER: u64 = 100_000;
    const REGION_LINES: u64 = 2048;
    const RMWS: u64 = 4;
    let line = |tid: usize, i: u64| Addr((16 + tid as u64 * REGION_LINES + i) * 64);
    let h = world(THREADS);
    let (stats, _) = run_hybrid_threads(&h, THREADS, |th| {
        let tid = th.tid();
        let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ (tid as u64 + 1);
        th.barrier();
        for i in 0..PER {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            if i % 8 == 7 {
                th.force_failover_next();
            }
            let first = rng % (REGION_LINES - RMWS + 1);
            th.transaction(|tx| {
                for l in first..first + RMWS {
                    let v = tx.read(line(tid, l))?;
                    tx.write(line(tid, l), v + 1)?;
                }
                Ok(())
            });
        }
    });
    for tid in 0..THREADS {
        let sum: u64 = (0..REGION_LINES).map(|i| h.peek(line(tid, i))).sum();
        assert_eq!(sum, PER * RMWS, "worker {tid}'s region lost an update");
    }
    assert_eq!(stats.fast.total_aborts(), 0, "{:?}", stats.fast);
    assert_eq!(stats.slow.total_aborts(), 0, "{:?}", stats.slow);
    assert_eq!(stats.total_commits(), THREADS as u64 * PER);
    assert_eq!(stats.forced_failovers, THREADS as u64 * PER / 8);
    assert_eq!(stats.failovers, stats.forced_failovers);
    h.ustm().audit().expect("owner-word audit");
}

/// Per line, not per mode (1 of 2): tid 0's slow transaction (a serial
/// one under `SERIAL_AT_ONCE`) reads COUNTER and parks; a tid-less
/// [`NativeHybrid::poke`] of COUNTER from another thread takes the stripe,
/// finds the reader in the owner word as a fast commit would, gives
/// the stripe back and waits. It returns only after the body has
/// committed, so the body's read-modify-write lands whole (WITNESS, on the
/// same line, carries its result) and the poke lands after it.
#[test]
fn a_poke_to_a_line_a_parked_slow_body_read_waits_for_its_commit() {
    const BEFORE: u64 = 40;
    const POKED: u64 = 7;
    const WITNESS: Addr = Addr(COUNTER.0 + 8);
    for policy in [NativeHybridPolicy::default(), SERIAL_AT_ONCE] {
        let wedged = "the poke and the slow body it waits for wedged each other";
        let (returned_early, seen, stats, heap) = or_time_out(wedged, move || {
            let (h, poke_returned) = (&world_with(1, policy), &AtomicBool::new(false));
            h.poke(COUNTER, BEFORE);
            let (entered_tx, entered_rx) = mpsc::channel();
            let (poking_tx, poking_rx) = mpsc::channel();
            let (returned_early, seen, stats) = std::thread::scope(|s| {
                let body = s.spawn(move || {
                    let mut th = HybridThread::new(h, None, 0, 1);
                    let (mut first, mut returned_early) = (true, false);
                    th.force_failover_next();
                    let seen = th.transaction(|tx| {
                        let v = tx.read(COUNTER)?;
                        if std::mem::take(&mut first) {
                            entered_tx.send(()).unwrap();
                            poking_rx.recv().unwrap();
                            std::thread::sleep(LINGER);
                            returned_early = poke_returned.load(Ordering::SeqCst);
                        }
                        tx.write(COUNTER, v + 1)?;
                        tx.write(WITNESS, v + 1)?;
                        Ok(v)
                    });
                    (returned_early, seen, th.stats())
                });
                s.spawn(move || {
                    entered_rx.recv().unwrap();
                    poking_tx.send(()).unwrap();
                    h.poke(COUNTER, POKED);
                    poke_returned.store(true, Ordering::SeqCst);
                });
                body.join().unwrap()
            });
            (
                returned_early,
                seen,
                stats,
                (h.peek(COUNTER), h.peek(WITNESS)),
            )
        });
        assert!(
            !returned_early,
            "a plain store to a line a {policy:?} body had read returned before it committed"
        );
        assert_eq!(seen, BEFORE);
        assert_eq!((stats.total_commits(), stats.total_aborts()), (1, 0));
        assert_eq!(stats.serial_commits, u64::from(policy.serial_after == 0));
        assert_eq!(
            heap,
            (POKED, BEFORE + 1),
            "the poke lands after the body's read-modify-write, which is not lost"
        );
    }
}

/// Per line, not per mode (2 of 2): while tid 0's slow body (a serial one
/// under `SERIAL_AT_ONCE`) is parked having read COUNTER, a tid-less poke
/// and peek of ACCT_B — a line the body never touched — return. The body
/// resumes only on their report, so plain accessors that waited for every
/// slow transaction would wedge both (and time out at the parent).
#[test]
fn a_plain_access_to_another_line_returns_beside_a_parked_slow_body() {
    for policy in [NativeHybridPolicy::default(), SERIAL_AT_ONCE] {
        let wedged = "a plain access to another line is waiting for the parked slow body";
        let (peeked, stats, heap) = or_time_out(wedged, move || {
            let h = &world_with(1, policy);
            let (entered_tx, entered_rx) = mpsc::channel();
            let (peeked_tx, peeked_rx) = mpsc::channel();
            let (peeked, stats) = std::thread::scope(|s| {
                let body = s.spawn(move || {
                    let mut th = HybridThread::new(h, None, 0, 1);
                    let mut peeked = None;
                    th.force_failover_next();
                    th.transaction(|tx| {
                        let v = tx.read(COUNTER)?;
                        if peeked.is_none() {
                            entered_tx.send(()).unwrap();
                            peeked = Some(peeked_rx.recv().unwrap());
                        }
                        tx.write(COUNTER, v + 1)
                    });
                    (peeked, th.stats())
                });
                s.spawn(move || {
                    entered_rx.recv().unwrap();
                    h.poke(ACCT_B, 7);
                    peeked_tx.send(h.peek(ACCT_B)).unwrap();
                });
                body.join().unwrap()
            });
            (peeked, stats, (h.peek(COUNTER), h.peek(ACCT_B)))
        });
        assert_eq!(peeked, Some(7));
        assert_eq!((stats.total_commits(), stats.total_aborts()), (1, 0));
        assert_eq!(stats.serial_commits, u64::from(policy.serial_after == 0));
        assert_eq!(heap, (1, 7));
    }
}

/// A slow body that unwinds outside any runner (a `HybridThread` driven
/// directly, the panic caught by its caller) leaves a corpse that nobody
/// marks dead or reaps: its status slot and its read ownership of COUNTER
/// stay. Plain accesses to lines it never owned must not wait for it —
/// they return, on a detached thread, well inside the parent's timeout.
#[test]
fn plain_accesses_return_after_a_slow_body_unwinds_outside_a_runner() {
    for policy in [NativeHybridPolicy::default(), SERIAL_AT_ONCE] {
        let wedged = "a plain access is waiting for a slow body that unwound";
        let (died, acct_b) = or_time_out(wedged, move || {
            let h = &world_with(1, policy);
            let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut th = HybridThread::new(h, None, 0, 1);
                th.force_failover_next();
                let () = th.transaction(|tx| {
                    tx.read(COUNTER)?;
                    panic!("slow body unwinds outside a runner");
                });
            }))
            .is_err();
            h.poke(ACCT_B, 7);
            (died, h.peek(ACCT_B))
        });
        assert_eq!((died, acct_b), (true, 7), "{policy:?}");
    }
}

/// A body that unwinds on the serial tier must not take the survivors
/// with it. tid 0 escalates straight to the serial tier
/// (`serial_after: 0`) and panics inside its body, the eldest transaction
/// with a write buffered and the serial gate held; tid 1 starts only once
/// tid 0 is in there, and must get every transaction through: the unwind
/// releases (and poisons) the gate, the runner reaps the corpse's slot and
/// ownerships, and no other word was raised. The run happens
/// on a detached thread and reports over a channel, so a wedged survivor
/// fails the test instead of hanging it.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "only the survivor locks the receiver's mutex; the dying thread never holds it"
)]
fn a_panic_on_the_serial_tier_releases_the_parked_survivors() {
    const PER: u64 = 100;
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let h = world_with(2, SERIAL_AT_ONCE);
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
