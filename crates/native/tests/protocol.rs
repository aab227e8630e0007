//! Single-threaded protocol scripts: two manual [`NativeTxn`] handles
//! interleaved step by step, pinning the TL2 semantics (isolation,
//! publication, each abort class, the clock) deterministically — no real
//! races needed. One script puts a slow-path commit among them, for the
//! clock rule the two paths share.

use ufotm_machine::Addr;
use ufotm_native::{NativeTl2, NativeTxn, NativeUstm, NativeUstmTxn};
use ufotm_tl2::Tl2Abort;

const X: Addr = Addr(512);

fn heap() -> NativeTl2 {
    NativeTl2::new(4096, 1024, 2048)
}

/// Finds an address at/after `base` whose lock stripe differs from
/// `not`'s, by holding `not`'s stripe and probing candidates: a probe
/// that observes the hold shares the stripe.
fn distinct_stripe_addr(shared: &NativeTl2, base: Addr, not: Addr) -> Addr {
    let hold = shared.debug_lock_stripe(not, 63);
    let mut found = None;
    for i in 0..256u64 {
        let cand = Addr(base.0 + i * 64);
        let raw = shared.debug_lock_stripe(cand, 62);
        shared.debug_restore_stripe(cand, raw);
        if raw & 1 == 0 {
            found = Some(cand);
            break;
        }
    }
    shared.debug_restore_stripe(not, hold);
    found.expect("no address with a distinct stripe within 256 lines")
}

#[test]
fn read_your_writes_and_isolation_until_commit() {
    let shared = heap();
    let mut a = NativeTxn::new(&shared, 0);
    a.begin();
    assert_eq!(a.read(X).unwrap(), 0);
    a.write(X, 7).unwrap();
    assert_eq!(a.read(X).unwrap(), 7, "buffered write must be visible");
    // Not published yet: plain memory and a second transaction see 0.
    assert_eq!(shared.peek(X), 0);
    let mut b = NativeTxn::new(&shared, 1);
    b.begin();
    assert_eq!(b.read(X).unwrap(), 0);
    assert!(b.commit().is_ok());
    a.commit().unwrap();
    assert_eq!(shared.peek(X), 7, "commit publishes");
}

#[test]
fn read_only_commit_is_a_fast_path() {
    let shared = heap();
    shared.poke(X, 3);
    let clock_before = shared.clock_now();
    let mut a = NativeTxn::new(&shared, 0);
    a.begin();
    assert_eq!(a.read(X).unwrap(), 3);
    a.commit().unwrap();
    assert_eq!(
        shared.clock_now(),
        clock_before,
        "read-only commits must not bump the global clock"
    );
    assert_eq!(a.stats.commits, 1);
    assert_eq!(a.stats.total_aborts(), 0);
}

/// The stripe version of `addr`'s line, read through a debug hold.
fn version_of(shared: &NativeTl2, addr: Addr) -> u64 {
    let raw = shared.debug_lock_stripe(addr, 63);
    shared.debug_restore_stripe(addr, raw);
    assert_eq!(raw & 1, 0, "{addr:?}'s stripe is held");
    raw >> 1
}

#[test]
fn stale_read_aborts_with_read_validation() {
    let shared = heap();
    let mut a = NativeTxn::new(&shared, 0);
    let mut b = NativeTxn::new(&shared, 1);
    a.begin();
    assert_eq!(a.read(X).unwrap(), 0); // X enters A's read set
    b.begin();
    b.write(X, 42).unwrap();
    b.commit().unwrap();
    // X's stripe is now newer than A's rv, and extending the snapshot
    // would have to revalidate A's own read of X: the read must fail.
    assert_eq!(a.read(X), Err(Tl2Abort::ReadValidation));
    assert!(!a.is_active(), "failed read rolls the attempt back");
    assert_eq!(a.stats.read_validation_aborts, 1);
    assert_eq!(a.stats.extensions, 0);
}

/// A fast commit draws its version from the clock and leaves the clock
/// where it was; its stripes carry the version one past it. The next
/// round's read of X meets that newer version and extends: the reader,
/// not the committer, moves the clock.
#[test]
fn a_writing_commit_leaves_the_clock_unchanged() {
    let shared = heap();
    let y = distinct_stripe_addr(&shared, Addr(1024), X);
    let mut a = NativeTxn::new(&shared, 0);
    for round in 1..=3 {
        a.begin();
        let v = a.read(X).unwrap();
        a.write(X, v + 1).unwrap();
        a.write(y, round).unwrap();
        let before = shared.clock_now();
        a.commit().unwrap();
        assert_eq!(shared.clock_now(), before, "round {round} moved the clock");
        assert_eq!(version_of(&shared, X), before + 1);
        assert_eq!(version_of(&shared, y), before + 1);
    }
    assert_eq!((shared.peek(X), shared.peek(y)), (3, 3));
    assert_eq!(a.stats.extensions, 2);
    assert_eq!(a.stats.total_aborts(), 0);
}

/// A sealed slow commit draws `wv = clock + 1` once it holds its
/// stripes and leaves the clock where it was, like a fast commit. A fast
/// commit that draws next, with nobody having moved the clock, draws the
/// same `wv`, and both values land. A fast transaction begun before both
/// meets the newer version on its first read, extends once, and reads
/// both commits' values.
#[test]
fn a_slow_commit_leaves_the_clock_unchanged() {
    let shared = heap();
    let ustm = NativeUstm::new(&shared, 3);
    let z = distinct_stripe_addr(&shared, Addr(1024), X);
    let mut reader = NativeTxn::new(&shared, 0);
    let mut slow = NativeUstmTxn::new(&shared, &ustm, 1);
    let mut fast = NativeTxn::new(&shared, 2);
    reader.begin();

    let before = shared.clock_now();
    slow.begin();
    slow.write(X, 42).unwrap();
    slow.commit().unwrap();
    assert_eq!(
        shared.clock_now(),
        before,
        "the slow commit moved the clock"
    );
    assert_eq!(version_of(&shared, X), before + 1);

    fast.begin();
    fast.write(z, 43).unwrap();
    fast.commit().unwrap();
    assert_eq!(version_of(&shared, z), before + 1, "the same wv");
    assert_eq!((shared.peek(X), shared.peek(z)), (42, 43));

    assert_eq!(reader.read(X), Ok(42));
    assert_eq!(reader.read(z), Ok(43));
    assert_eq!(reader.stats.extensions, 1);
    reader.commit().unwrap();
    assert_eq!(reader.stats.total_aborts(), 0);
}

/// A's first read meets a line B committed after A began. A has read
/// nothing a commit could have moved, so the read extends A's snapshot
/// instead of aborting: the clock is raised to the line's version, and
/// A's `rv` with it — A's read of a second line B wrote at the same
/// version needs no second extension.
#[test]
fn a_first_read_of_a_newer_line_extends_the_snapshot() {
    let shared = heap();
    let y = distinct_stripe_addr(&shared, Addr(1024), X);
    let mut a = NativeTxn::new(&shared, 0);
    let mut b = NativeTxn::new(&shared, 1);
    a.begin();
    b.begin();
    b.write(X, 42).unwrap();
    b.write(y, 43).unwrap();
    b.commit().unwrap();
    let version = version_of(&shared, X);
    assert!(shared.clock_now() < version, "B's commit moved the clock");

    assert_eq!(a.read(X), Ok(42));
    assert!(shared.clock_now() >= version, "the clock was not raised");
    assert_eq!(a.read(y), Ok(43), "rv did not move to the raised clock");
    assert_eq!(a.stats.extensions, 1);
    a.commit().unwrap();
    assert_eq!(a.stats.total_aborts(), 0);
}

/// Extension revalidates the read set: it fails, as `ReadValidation`,
/// when a line A already read has moved past A's snapshot, and when a
/// line A already read is held by a committer.
#[test]
fn extension_fails_when_an_earlier_read_moved_or_is_held() {
    let shared = heap();
    let y = distinct_stripe_addr(&shared, Addr(1024), X);
    let mut a = NativeTxn::new(&shared, 0);
    let mut b = NativeTxn::new(&shared, 1);
    let commit_to = |b: &mut NativeTxn<'_>, addr: Addr, value: u64| {
        b.begin();
        b.write(addr, value).unwrap();
        b.commit().unwrap();
    };

    // Moved: B overwrites Y, which A read, then X, which A has not.
    a.begin();
    assert_eq!(a.read(y), Ok(0));
    commit_to(&mut b, y, 1);
    commit_to(&mut b, X, 2);
    assert_eq!(a.read(X), Err(Tl2Abort::ReadValidation));
    assert_eq!(a.stats.read_validation_aborts, 1);

    // Held: Y is unchanged since A read it, but a committer holds it.
    a.begin();
    assert_eq!(a.read(y), Ok(1));
    commit_to(&mut b, X, 3);
    let raw = shared.debug_lock_stripe(y, 9);
    assert_eq!(a.read(X), Err(Tl2Abort::ReadValidation));
    shared.debug_restore_stripe(y, raw);
    assert_eq!(a.stats.read_validation_aborts, 2);
    assert_eq!(a.stats.extensions, 0);

    // Neither: the retry extends and reads the latest X.
    a.begin();
    assert_eq!(a.read(y), Ok(1));
    commit_to(&mut b, X, 4);
    assert_eq!(a.read(X), Ok(4));
    assert_eq!(a.stats.extensions, 1);
}

#[test]
fn concurrent_writer_forces_commit_validation() {
    let shared = heap();
    let y = distinct_stripe_addr(&shared, Addr(1024), X);
    let mut a = NativeTxn::new(&shared, 0);
    let mut b = NativeTxn::new(&shared, 1);
    a.begin();
    assert_eq!(a.read(X).unwrap(), 0); // X enters A's read set
    b.begin();
    b.write(X, 9).unwrap();
    b.commit().unwrap(); // X's version advances past A's rv
    a.write(y, 1).unwrap(); // write set non-empty: full validation path
    assert_eq!(a.commit(), Err(Tl2Abort::CommitValidation));
    assert_eq!(a.stats.commit_validation_aborts, 1);
    assert_eq!(shared.peek(X), 9);
    assert_eq!(shared.peek(y), 0, "aborted write set must not publish");
}

/// A reads X and then word 0 of another line, B commits to word
/// `b_word` of that line, and A's writing commit must fail validation:
/// every line A read is validated, not only the first its read set logged.
fn b_commits_to_the_second_line_a_read(b_word: u64) {
    let shared = heap();
    let line = distinct_stripe_addr(&shared, Addr(1024), X);
    let w = Addr(4096);
    let mut a = NativeTxn::new(&shared, 0);
    let mut b = NativeTxn::new(&shared, 1);
    a.begin();
    assert_eq!(a.read(X).unwrap(), 0);
    assert_eq!(a.read(line).unwrap(), 0);
    b.begin();
    b.write(Addr(line.0 + 8 * b_word), 9).unwrap();
    b.commit().unwrap();
    a.write(w, 1).unwrap();
    assert_eq!(a.commit(), Err(Tl2Abort::CommitValidation));
    assert_eq!(a.stats.commit_validation_aborts, 1);
    assert_eq!(shared.peek(w), 0, "aborted write set must not publish");
}

#[test]
fn a_later_read_line_is_validated_at_commit() {
    b_commits_to_the_second_line_a_read(0);
}

/// A stripe guards its whole line: B's commit to word 1 invalidates A's
/// read of word 0.
#[test]
fn a_commit_to_another_word_of_a_read_line_fails_validation() {
    b_commits_to_the_second_line_a_read(1);
}

#[test]
fn busy_lock_aborts_with_lock_busy_and_restores_the_stripe() {
    let shared = heap();
    let raw = shared.debug_lock_stripe(X, 7);
    let mut a = NativeTxn::new(&shared, 0);
    a.begin();
    a.write(X, 5).unwrap();
    assert_eq!(a.commit(), Err(Tl2Abort::LockBusy));
    assert_eq!(a.stats.lock_busy_aborts, 1);
    shared.debug_restore_stripe(X, raw);
    // The stripe is usable again after the hold is released.
    a.begin();
    a.write(X, 5).unwrap();
    a.commit().unwrap();
    assert_eq!(shared.peek(X), 5);
}

#[test]
fn failed_lock_acquire_rolls_back_already_held_stripes() {
    let shared = heap();
    let other = distinct_stripe_addr(&shared, Addr(1024), X);
    let raw = shared.debug_lock_stripe(other, 9);
    let mut a = NativeTxn::new(&shared, 0);
    a.begin();
    a.write(X, 1).unwrap();
    a.write(other, 2).unwrap();
    assert_eq!(a.commit(), Err(Tl2Abort::LockBusy));
    shared.debug_restore_stripe(other, raw);
    // X's stripe was rolled back to unlocked: a fresh writer touching
    // both words succeeds without waiting on anything.
    let mut b = NativeTxn::new(&shared, 1);
    b.begin();
    b.write(X, 3).unwrap();
    b.write(other, 4).unwrap();
    b.commit().unwrap();
    assert_eq!(shared.peek(X), 3);
    assert_eq!(shared.peek(other), 4);
}

#[test]
fn run_retries_until_commit() {
    let shared = heap();
    let raw = shared.debug_lock_stripe(X, 7);
    let mut a = NativeTxn::new(&shared, 0);
    let r = (1..)
        .find_map(|attempts| {
            a.attempt(|tx| {
                if attempts == 2 {
                    // First attempt hit LockBusy against the held stripe;
                    // release it so this retry can commit.
                    shared.debug_restore_stripe(X, raw);
                }
                tx.write(X, 11)?;
                Ok::<_, Tl2Abort>(attempts)
            })
        })
        .unwrap();
    assert_eq!(r, 2, "the loop ends only after a successful commit");
    assert_eq!(a.stats.lock_busy_aborts, 1);
    assert_eq!(shared.peek(X), 11);
}

#[test]
fn alloc_hands_out_disjoint_fresh_words() {
    let shared = heap();
    let mut a = NativeTxn::new(&shared, 0);
    a.begin();
    let p = a.alloc(2).unwrap();
    let q = a.alloc(3).unwrap();
    assert_ne!(p, q);
    assert_eq!(q.0 - p.0, 16, "bump allocator is contiguous");
    a.write(p, 1).unwrap();
    a.write(q, 2).unwrap();
    a.commit().unwrap();
    assert_eq!(shared.peek(p), 1);
    assert_eq!(shared.peek(q), 2);
}

#[test]
fn write_skew_on_disjoint_stripes_matches_tl2_validation() {
    // TL2 validates the read set only. A and B each read the word the
    // other writes; A commits first, bumping X's stripe past B's rv, so
    // B's commit-time validation must fail — the native backend
    // classifies it CommitValidation exactly like the simulated TL2.
    let shared = heap();
    let y = distinct_stripe_addr(&shared, Addr(1024), X);
    let mut a = NativeTxn::new(&shared, 0);
    let mut b = NativeTxn::new(&shared, 1);
    a.begin();
    b.begin();
    assert_eq!(a.read(y).unwrap(), 0);
    assert_eq!(b.read(X).unwrap(), 0);
    a.write(X, 1).unwrap();
    b.write(y, 1).unwrap();
    a.commit().unwrap();
    assert_eq!(b.commit(), Err(Tl2Abort::CommitValidation));
    assert_eq!(shared.peek(X), 1);
    assert_eq!(shared.peek(y), 0);
}

/// The sorted-`Vec` write set under its worst insertion order: 1 000
/// distinct words written from the highest address down (every insert
/// lands at the front), every tenth one overwritten twice.
#[test]
fn descending_writes_and_overwrites_keep_the_last_value_per_word() {
    const WORDS: u64 = 1000;
    let shared = heap();
    let word = |i: u64| Addr(8 * (1000 + i));
    let last = |i: u64| {
        if i.is_multiple_of(10) {
            3 * i + 9
        } else {
            i + 1
        }
    };
    let mut a = NativeTxn::new(&shared, 0);
    a.begin();
    for i in (0..WORDS).rev() {
        a.write(word(i), i + 1).unwrap();
        if i.is_multiple_of(10) {
            a.write(word(i), 2 * i + 7).unwrap();
            assert_eq!(a.read(word(i)).unwrap(), 2 * i + 7);
            a.write(word(i), 3 * i + 9).unwrap();
        }
        assert_eq!(a.read(word(i)).unwrap(), last(i), "read-own-write {i}");
    }
    for i in 0..WORDS {
        assert_eq!(a.read(word(i)).unwrap(), last(i), "read-own-write {i}");
        assert_eq!(shared.peek(word(i)), 0, "nothing publishes before commit");
    }
    a.commit().unwrap();
    assert_eq!(a.stats.total_aborts(), 0);
    let mut b = NativeTxn::new(&shared, 1);
    b.begin();
    for i in 0..WORDS {
        assert_eq!(shared.peek(word(i)), last(i), "word {i} not published");
        assert_eq!(b.read(word(i)).unwrap(), last(i), "word {i} unreadable");
    }
    b.commit().unwrap();
}

/// Two words of one 64-byte line share a stripe, and commit must lock it
/// once: a second acquisition would find the commit's own lock and abort.
/// Against a held stripe the pair costs one `LockBusy`, not two, and
/// leaves the holder's lock word exactly as it found it.
#[test]
fn two_words_of_one_line_take_one_stripe_lock() {
    let shared = heap();
    let x2 = Addr(X.0 + 8);
    let mut a = NativeTxn::new(&shared, 0);
    let write_pair = |a: &mut NativeTxn<'_>, v: u64| {
        a.begin();
        a.write(x2, v + 1).unwrap();
        a.write(X, v).unwrap();
        a.commit()
    };

    let free = shared.debug_lock_stripe(X, 7);
    assert_eq!(free & 1, 0);
    assert_eq!(write_pair(&mut a, 10), Err(Tl2Abort::LockBusy));
    assert_eq!(a.stats.lock_busy_aborts, 1);
    assert_eq!(a.stats.total_aborts(), 1);
    let hold = shared.debug_lock_stripe(X, 7);
    assert_eq!(hold, 7 << 1 | 1, "the failed commit disturbed the holder");
    shared.debug_restore_stripe(X, free);

    assert_eq!(write_pair(&mut a, 20), Ok(()));
    assert_eq!(a.stats.total_aborts(), 1, "one stripe, locked once");
    assert_eq!((shared.peek(X), shared.peek(x2)), (20, 21));
    // Released, stamped with the commit's version: one past the clock,
    // which a fast commit does not move.
    let after = shared.debug_lock_stripe(X, 7);
    shared.debug_restore_stripe(X, after);
    assert_eq!(after, (shared.clock_now() + 1) << 1);
}

/// The handle reuses its write set and its commit scratch across
/// attempts. An attempt that aborted — at commit with locks already
/// taken, or dropped mid-body — must leave nothing behind for a shorter
/// attempt that follows: no stale write published, no stale stripe
/// locked, released or restamped.
#[test]
fn a_shorter_attempt_after_an_abort_publishes_nothing_from_the_first() {
    let shared = heap();
    let y = distinct_stripe_addr(&shared, Addr(1024), X);
    let z = distinct_stripe_addr(&shared, Addr(y.0 + 64), y);
    let w = Addr(4096);
    let mut a = NativeTxn::new(&shared, 0);

    // Three stripes, the last write's held by someone else: LockBusy
    // with up to two locks taken and rolled back.
    let raw = shared.debug_lock_stripe(z, 9);
    a.begin();
    a.write(X, 1).unwrap();
    a.write(y, 2).unwrap();
    a.write(z, 3).unwrap();
    assert_eq!(a.commit(), Err(Tl2Abort::LockBusy));
    shared.debug_restore_stripe(z, raw);
    // A longer write set still, abandoned mid-body.
    a.begin();
    for addr in [X, y, z, Addr(X.0 + 8)] {
        a.write(addr, 4).unwrap();
    }
    a.drop_attempt();

    a.begin();
    assert_eq!(a.read(X).unwrap(), 0, "stale buffered write read back");
    a.write(w, 5).unwrap();
    a.commit().unwrap();
    assert_eq!(shared.peek(w), 5);
    for addr in [X, y, z, Addr(X.0 + 8)] {
        assert_eq!(shared.peek(addr), 0, "{addr:?} leaked from an abort");
        let lock = shared.debug_lock_stripe(addr, 9);
        shared.debug_restore_stripe(addr, lock);
        assert_eq!(lock, 0, "{addr:?}'s stripe was touched by a later commit");
    }
}
