//! Sticky guard pages (ISSUE 14): a commit window closes the pages of
//! its write set that are still open and never reopens them; the SIGSEGV
//! handler reopens a page the first time a plain access touches it with
//! no window open. These tests pin the protocol between the two — the
//! per-region state word and the per-page closed flags — with
//! handshakes, never sleeps.
//!
//! Tests that need real page protection pass trivially when the guard is
//! unavailable (non-Linux/x86_64, or `UFOTM_SKIP_GUARD=1`); the last one
//! runs on boxed storage too.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ufotm_core::TmBackend;
use ufotm_machine::Addr;
use ufotm_native::{
    guard, run_hybrid_threads, spin_work, NativeHybrid, NativeHybridPolicy, NativeTl2,
    NativeUstmTxn,
};

const X: Addr = Addr(4096); // word 512: its own page, away from page 0
const DEADLINE: Duration = Duration::from_secs(20);

fn wait_until(mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < DEADLINE, "guard test deadline exceeded");
        std::thread::yield_now();
    }
}

/// Raises the flag when dropped, so a failed assertion in the thread that
/// owns it still stops the hammering thread its scope is about to join.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

fn heap() -> NativeTl2 {
    NativeTl2::new(1 << 14, 1 << 8, 1 << 13)
}

fn world() -> NativeHybrid {
    NativeHybrid::new(1 << 14, 1 << 8, 1 << 13, 1, NativeHybridPolicy::default())
}

/// (a) A commit leaves its page closed; the first plain access after it
/// takes exactly one classified fault, sees the committed value, and
/// reopens the page, so the second takes none.
#[test]
fn first_plain_touch_after_a_commit_reopens_the_page_once() {
    if !guard::available() {
        return;
    }
    let h = world();
    h.tl2().poke(X, 7);
    let committed = NativeUstmTxn::new(h.tl2(), h.ustm(), 0).attempt(|t| {
        let v = t.read(X)?;
        t.write(X, v + 1)
    });
    assert!(committed.is_some(), "an uncontended commit");
    assert_eq!(
        h.tl2().debug_closed_pages(),
        1,
        "the commit closes X's page"
    );
    let before = h.guard_stats();

    assert_eq!(
        h.tl2().peek(X),
        8,
        "plain read must see the committed value"
    );
    let first = h.guard_stats();
    assert_eq!(first.faults_after_window, before.faults_after_window + 1);
    assert_eq!(first.faults_in_window, before.faults_in_window);
    assert_eq!(
        h.tl2().debug_last_fault_offset().map(|off| off / 4096),
        Some(X.0 as usize / 4096)
    );
    assert_eq!(h.tl2().debug_closed_pages(), 0, "the fault reopened it");

    assert_eq!(h.tl2().peek(X), 8);
    h.tl2().poke(X, 9);
    assert_eq!(
        h.guard_stats(),
        first,
        "an open page costs plain code nothing"
    );
}

/// (b) A window over an already-closed page issues no syscall, and must
/// be as tight as the first: a racing raw store is detected, held out of
/// memory for the whole window, and lands after it.
#[test]
fn window_over_a_closed_page_still_defers_a_racing_store() {
    if !guard::available() {
        return;
    }
    let heap = heap();
    heap.poke(X, 7);
    drop(heap.debug_open_window(&[X]));
    assert_eq!(
        heap.debug_closed_pages(),
        1,
        "the first window left it closed"
    );

    std::thread::scope(|scope| {
        let win = heap.debug_open_window(&[X]);
        let baseline = heap.guard_stats();
        let poker = scope.spawn(|| heap.poke(X, 99));
        wait_until(|| heap.guard_stats().faults_in_window > baseline.faults_in_window);
        assert_eq!(
            heap.debug_shadow_peek(X),
            7,
            "plain write leaked into a window that skipped the syscall"
        );
        assert_eq!(
            heap.guard_stats().faults_after_window,
            baseline.faults_after_window
        );
        assert_eq!(
            heap.debug_closed_pages(),
            1,
            "reopened under an open window"
        );
        drop(win);
        poker.join().expect("poker thread panicked");
    });
    assert_eq!(
        heap.debug_shadow_peek(X),
        99,
        "deferred plain write was lost"
    );
    assert_eq!(
        heap.debug_closed_pages(),
        0,
        "the deferred store reopened it"
    );
}

/// (c) Exclusion under fire. One thread hammers raw stores into X; the
/// other opens window after window over X's page and reads X twice
/// through the shadow view inside each, a spin apart. No store may land
/// between the two reads: the handler must not reopen the page while the
/// window bit is up, and a window must not open while a reopen is in
/// flight. Even rounds wait for the poker to land a store first, so the
/// window closes a page that is open and under fire; odd rounds open at
/// once, racing the reopen the previous window's drop has just released.
#[test]
fn no_plain_store_lands_inside_any_of_many_windows() {
    if !guard::available() {
        return;
    }
    const WINDOWS: u64 = 10_000;
    let heap = heap();
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let poker = scope.spawn(|| {
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                n += 1;
                heap.poke(X, n);
            }
        });
        let stop_poker = StopOnDrop(&stop);
        let mut last = 0;
        for round in 0..WINDOWS {
            if round % 2 == 0 {
                wait_until(|| heap.debug_shadow_peek(X) != last);
            }
            let win = heap.debug_open_window(&[X]);
            let first = heap.debug_shadow_peek(X);
            spin_work(100);
            let second = heap.debug_shadow_peek(X);
            drop(win);
            assert_eq!(first, second, "a plain store landed inside window {round}");
            last = second;
        }
        drop(stop_poker);
        poker.join().expect("poker thread panicked");
    });

    let stats = heap.guard_stats();
    assert_eq!(stats.windows_opened, WINDOWS);
    assert!(
        stats.faults_in_window + stats.faults_after_window >= WINDOWS / 2,
        "every even window closed an open page, so the poker reopened it: {stats:?}"
    );
}

/// (d) The handler waits for its own region only: a window held open on
/// heap B does not stall a plain access to a closed page of heap A.
#[test]
fn a_window_on_another_heap_does_not_stall_a_reopen() {
    if !guard::available() {
        return;
    }
    let a = heap();
    let b = heap();
    a.poke(X, 5);
    drop(a.debug_open_window(&[X]));
    let before = a.guard_stats();
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let win_b = b.debug_open_window(&[X]);
        let reader = scope.spawn(|| {
            let v = a.peek(X);
            done.store(true, Ordering::Release);
            v
        });
        // With B's window still open, A's reader must get through.
        wait_until(|| done.load(Ordering::Acquire));
        drop(win_b);
        assert_eq!(reader.join().expect("reader thread panicked"), 5);
    });

    let after = a.guard_stats();
    assert_eq!(after.faults_after_window, before.faults_after_window + 1);
    assert_eq!(
        after.faults_in_window, before.faults_in_window,
        "heap B's window was charged to heap A"
    );
}

/// (e) Two forced-slow hybrid commits to one page open a window each but
/// close the page once: it is still closed when the second arrives, and
/// stays so until plain code touches it. On boxed storage nothing is ever
/// closed and the same commits go through.
#[test]
fn two_slow_commits_to_one_page_close_it_once() {
    let h = world();
    let guarded = h.guard_stats().guarded;
    let closed_after_commit = usize::from(guarded);
    let y = Addr(X.0 + 512); // same page, another line

    let (stats, _) = run_hybrid_threads(&h, 1, |th| {
        for (addr, v) in [(X, 1), (y, 2)] {
            th.force_failover_next();
            th.transaction(|tx| tx.write(addr, v));
            assert_eq!(h.tl2().debug_closed_pages(), closed_after_commit);
        }
    });
    assert_eq!(stats.slow.commits, 2);
    let g = h.guard_stats();
    assert_eq!(g.windows_opened, if guarded { 2 } else { 0 });
    assert_eq!(g.faults_in_window + g.faults_after_window, 0);

    assert_eq!((h.peek(X), h.peek(y)), (1, 2));
    assert_eq!(h.tl2().debug_closed_pages(), 0);
    assert_eq!(
        h.guard_stats().faults_after_window,
        u64::from(guarded),
        "one reopen serves both words of the page"
    );
}

/// The other half of the rule: transactions never touch the public view
/// of a closed page. With X's page left closed by a slow commit, a fast
/// (TL2) transaction and a serial-tier one both read and write X without
/// a single fault, and the page is still closed afterwards.
#[test]
fn fast_and_serial_transactions_do_not_fault_on_a_closed_page() {
    let h = NativeHybrid::new(
        1 << 14,
        1 << 8,
        1 << 13,
        1,
        // Every failover escalates straight to the serial tier.
        NativeHybridPolicy {
            serial_after: 0,
            ..NativeHybridPolicy::default()
        },
    );
    let closed = usize::from(h.guard_stats().guarded);
    h.tl2().poke(X, 1);
    let committed = NativeUstmTxn::new(h.tl2(), h.ustm(), 0).attempt(|t| t.write(X, 2));
    assert!(committed.is_some(), "an uncontended commit");
    assert_eq!(h.tl2().debug_closed_pages(), closed);

    let increment = |tx: &mut dyn ufotm_core::TxScope| {
        let v = tx.read(X)?;
        tx.write(X, v + 1)
    };
    let (stats, _) = run_hybrid_threads(&h, 1, |th| {
        th.transaction(increment);
        th.force_failover_next();
        th.transaction(increment);
    });
    assert_eq!((stats.fast.commits, stats.serial_commits), (1, 1));
    let g = h.guard_stats();
    assert_eq!(g.faults_in_window + g.faults_after_window, 0);
    assert_eq!(h.tl2().debug_closed_pages(), closed);
    assert_eq!(h.peek(X), 4);
}
