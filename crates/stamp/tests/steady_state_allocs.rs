//! Steady-state allocation guard for the simulated TM systems.
//!
//! A warm simulated transaction allocates nothing on the host: the BTM
//! sets, the USTM ownership set and the TL2 write buffer are pre-sized and
//! kept across transactions, and commit staging reuses persistent scratch.
//! This binary counts the calling thread's allocations with a counting
//! global allocator. A 1-CPU world runs CPU 0 on the caller, so the count
//! sees exactly one simulated CPU's work: world set-up and a warm-up batch
//! first, then a measured batch of lookup-then-update transactions over a
//! `BstMap`, which must allocate nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ufotm_core::{SystemKind, TmBackend};
use ufotm_machine::{Machine, SimRng};
use ufotm_stamp::harness::{run_workload, RunSpec, WorkBody, STATIC_BASE};
use ufotm_stamp::structures::BstMap;
use ufotm_stamp::SimBackend;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocations (and reallocations) per thread, then defers to the
/// system allocator.
struct Counting;

fn count() {
    // `try_with`: an allocation during thread teardown goes uncounted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialized
// thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `alloc_zeroed`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Keys in the fixture tree.
const KEYS: u64 = 256;
/// Transactions before counting starts: enough for every table to reach
/// its working size and every first-time counter to exist.
const WARM: usize = 300;
/// Transactions counted.
const MEASURED: usize = 600;

/// Runs `WARM + MEASURED` lookup-then-update transactions under `kind` on
/// a 1-CPU world; returns the allocations of the measured batch. On a
/// hybrid, every eighth transaction is forced onto the software path.
fn measured_allocs(kind: SystemKind) -> u64 {
    let spec = RunSpec::new(kind, 1);
    let tree = BstMap::new(STATIC_BASE);
    // Key i sits at position i of a fixed permutation, so the tree is
    // bushy rather than a list.
    let key = |i: u64| (i * 37) % KEYS + 1;
    let setup = |m: &mut Machine, w: &mut ufotm_stamp::StampWorld| {
        let m = std::cell::RefCell::new(m);
        let heap = &mut w.tm.heap;
        for i in 0..KEYS {
            tree.host_insert(
                &|a| m.borrow().peek(a),
                &mut |a, v| m.borrow_mut().poke(a, v),
                &mut |words| heap.alloc_line_aligned(words).expect("fixture heap"),
                key(i),
                &[0; 4],
            );
        }
    };
    let counted = Arc::new(AtomicU64::new(u64::MAX));
    let out = Arc::clone(&counted);
    let make_body = move |tid: usize| -> WorkBody {
        let out = Arc::clone(&out);
        Box::new(move |t, ctx| {
            let mut b = SimBackend::new(t, ctx, tid, 1);
            let mut rng = SimRng::seed_from_u64(0x5EED);
            let mut before = 0;
            for n in 0..WARM + MEASURED {
                if n == WARM {
                    before = allocs();
                }
                if n % 8 == 0 {
                    b.force_failover_next();
                }
                let k = key(rng.gen_range(0..KEYS));
                b.transaction(|tx| {
                    let node = tree.lookup(tx, k)?.expect("every key is in the tree");
                    let v = tree.value(tx, node, 0)?;
                    tree.set_value(tx, node, 0, v + 1)
                });
            }
            out.store(allocs() - before, Ordering::Relaxed);
        })
    };
    let verify = |m: &Machine, _: &ufotm_stamp::StampWorld| {
        let mut sum = 0;
        tree.peek_each(&|a| m.peek(a), |_, v| sum += v[0]);
        assert_eq!(sum, (WARM + MEASURED) as u64, "{kind}: lost an update");
    };
    let outcome = run_workload(&spec, setup, make_body, verify);
    assert_eq!(
        outcome.total_commits(),
        (WARM + MEASURED) as u64,
        "{kind}: commits"
    );
    if kind.is_hybrid() {
        assert_eq!(
            outcome.forced_failovers,
            (WARM + MEASURED).div_ceil(8) as u64,
            "{kind}: forced failovers"
        );
    }
    counted.load(Ordering::Relaxed)
}

/// Every simulated system, hybrids with every eighth transaction failed
/// over to USTM: a warm transaction allocates nothing.
#[test]
fn warm_transactions_allocate_nothing() {
    let allocating: Vec<_> = SystemKind::all()
        .into_iter()
        .map(|kind| (kind, measured_allocs(kind)))
        .filter(|&(_, n)| n > 0)
        .collect();
    assert!(
        allocating.is_empty(),
        "allocations in {MEASURED} warm transactions: {allocating:?}"
    );
}
