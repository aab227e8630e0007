//! Explored schedules for the hybrid's two concurrent paths, one whole
//! call per step.
//!
//! One slow-path and one or two fast-path transactions, each a two-word
//! program of four steps (`begin`, two accesses, `commit`), are driven on
//! **one OS thread** through *every* interleaving of their steps, over
//! the handles a [`HybridThread`](ufotm_native::HybridThread) is built
//! from. Each run records a history — per transaction its begin and end
//! positions, every value read, every value written, commit or abort —
//! and a brute-force checker looks for a serial order that respects real
//! time, explains every read of every transaction (an aborted one too:
//! opacity — it must have seen a consistent snapshot up to its abort) and
//! ends in the final heap. A schedule with no such order is printed.
//!
//! Steps are whole calls, so what is explored is the protocol between
//! the paths — who must see whom at which access and at commit — not the
//! interleaving of the atomics inside one call (`hybrid_stress.rs` and
//! the TSan job race those; enumerating them needs a scheduler that
//! yields inside a call, at its failpoints). On one thread no step ever
//! waits: at a step boundary nobody holds a stripe, and there is only one
//! slow transaction.

use ufotm_machine::Addr;
use ufotm_native::{NativeHybrid, NativeHybridPolicy, NativeTxn, NativeUstmTxn};

/// The two words, on different lines (and stripes).
const WORDS: [Addr; 2] = [Addr(512), Addr(1024)];
const INIT: [u64; 2] = [10, 20];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Read(usize),
    Write(usize),
}
use Op::{Read, Write};

type Program = [Op; 2];

const PROGRAMS: [Program; 6] = [
    // Read-then-write, crossed: this pair is write skew if both commit
    // off the initial values.
    [Read(0), Write(1)],
    [Read(1), Write(0)],
    // Blind double write.
    [Write(0), Write(1)],
    // Read-only audit.
    [Read(0), Read(1)],
    // Read-modify-write of one word.
    [Read(0), Write(0)],
    [Read(1), Write(1)],
];

/// Steps of one transaction: begin, two accesses, commit.
const STEPS: usize = 4;

/// What transaction `t` writes to word `w`: distinct per writer and word,
/// so a value read names who wrote it.
fn written(t: usize, w: usize) -> u64 {
    1000 * (t as u64 + 1) + w as u64
}

/// The step API both paths' handles share. `None`/`false`: the
/// transaction aborted (the handle has already rolled it back).
trait Steps {
    fn begin(&mut self);
    fn read(&mut self, addr: Addr) -> Option<u64>;
    fn write(&mut self, addr: Addr, value: u64) -> bool;
    fn commit(&mut self) -> bool;
}

macro_rules! impl_steps {
    ($handle:ident) => {
        impl Steps for $handle<'_> {
            fn begin(&mut self) {
                $handle::begin(self);
            }
            fn read(&mut self, addr: Addr) -> Option<u64> {
                $handle::read(self, addr).ok()
            }
            fn write(&mut self, addr: Addr, value: u64) -> bool {
                $handle::write(self, addr, value).is_ok()
            }
            fn commit(&mut self) -> bool {
                $handle::commit(self).is_ok()
            }
        }
    };
}
impl_steps!(NativeTxn);
impl_steps!(NativeUstmTxn);

/// A slow-path handle whose transactions begin as the eldest one — what
/// the hybrid's serial tier runs.
struct Eldest<'a>(NativeUstmTxn<'a>);

impl Steps for Eldest<'_> {
    fn begin(&mut self) {
        self.0.begin_eldest();
    }
    fn read(&mut self, addr: Addr) -> Option<u64> {
        Steps::read(&mut self.0, addr)
    }
    fn write(&mut self, addr: Addr, value: u64) -> bool {
        Steps::write(&mut self.0, addr, value)
    }
    fn commit(&mut self) -> bool {
        Steps::commit(&mut self.0)
    }
}

/// What one transaction did in one schedule.
#[derive(Clone, Copy, Debug)]
struct History {
    /// Schedule positions of its `begin` and of the step that ended it.
    begin: usize,
    end: usize,
    /// The accesses that completed, in program order, each with the value
    /// it read or wrote.
    done: [(Op, u64); 2],
    n: usize,
    committed: bool,
}

const UNBORN: History = History {
    begin: usize::MAX,
    end: usize::MAX,
    done: [(Read(0), 0); 2],
    n: 0,
    committed: false,
};

/// Runs `schedule` (one transaction index per step) and returns each
/// transaction's history and the final heap. The steps a transaction has
/// left after aborting are skipped.
fn run(
    world: &NativeHybrid,
    txns: &mut [&mut dyn Steps],
    programs: &[Program],
    schedule: &[usize],
) -> (Vec<History>, [u64; 2]) {
    // Every schedule starts from the same heap. The reset is itself a
    // committed fast transaction, ordered before everything by real time.
    txns[1].begin();
    for w in 0..2 {
        assert!(txns[1].write(WORDS[w], INIT[w]));
    }
    assert!(txns[1].commit(), "nothing contends with the reset");

    let mut hist = vec![UNBORN; programs.len()];
    let mut pc = vec![0; programs.len()];
    for (pos, &t) in schedule.iter().enumerate() {
        let h = &mut hist[t];
        let step = pc[t];
        pc[t] += 1;
        if h.end != usize::MAX {
            continue;
        }
        let alive = match step {
            0 => {
                txns[t].begin();
                h.begin = pos;
                true
            }
            3 => {
                h.committed = txns[t].commit();
                false
            }
            _ => {
                let op = programs[t][step - 1];
                let outcome = match op {
                    Read(w) => txns[t].read(WORDS[w]),
                    Write(w) => txns[t]
                        .write(WORDS[w], written(t, w))
                        .then_some(written(t, w)),
                };
                if let Some(v) = outcome {
                    h.done[h.n] = (op, v);
                    h.n += 1;
                }
                outcome.is_some()
            }
        };
        if !alive {
            h.end = pos;
        }
    }
    let heap = WORDS.map(|a| world.tl2().debug_shadow_peek(a));
    (hist, heap)
}

/// Every order of `0..n`.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for shorter in permutations(n - 1) {
        for at in 0..n {
            let mut p = shorter.clone();
            p.insert(at, n - 1);
            out.push(p);
        }
    }
    out
}

/// A serial order of the transactions that respects real time (one that
/// ended before another began comes first), in which every read — of
/// committed and aborted transactions alike — returns the latest write
/// before it (its own included), and which ends in `heap`. Aborted
/// transactions take a place in the order but leave nothing behind.
fn explain(hist: &[History], heap: [u64; 2], orders: &[Vec<usize>]) -> Option<Vec<usize>> {
    orders
        .iter()
        .find(|order| {
            let real_time = order
                .iter()
                .enumerate()
                .all(|(i, &a)| order[i + 1..].iter().all(|&b| hist[b].end >= hist[a].begin));
            let mut state = INIT;
            real_time
                && order.iter().all(|&t| {
                    let mut view = state;
                    let legal = hist[t].done[..hist[t].n].iter().all(|&(op, v)| match op {
                        Read(w) => view[w] == v,
                        Write(w) => {
                            view[w] = v;
                            true
                        }
                    });
                    if hist[t].committed {
                        state = view;
                    }
                    legal
                })
                && state == heap
        })
        .cloned()
}

/// Calls `visit` with every interleaving of `txns` transactions' steps.
fn interleavings(txns: usize, visit: &mut impl FnMut(&[usize])) {
    fn extend(left: &mut [usize], prefix: &mut Vec<usize>, visit: &mut impl FnMut(&[usize])) {
        if left.iter().all(|&n| n == 0) {
            return visit(prefix);
        }
        for t in 0..left.len() {
            if left[t] > 0 {
                left[t] -= 1;
                prefix.push(t);
                extend(left, prefix, visit);
                prefix.pop();
                left[t] += 1;
            }
        }
    }
    extend(&mut vec![STEPS; txns], &mut Vec::new(), visit);
}

/// What an exploration saw, so a test can tell it was not vacuous.
#[derive(Debug, Default)]
struct Tally {
    schedules: u64,
    commits: u64,
    aborts: u64,
    /// Schedules in which transaction 0, the slow one, committed.
    slow_commits: u64,
}

/// Explores every schedule of every tuple in `tuples`: transaction 0 of a
/// tuple runs on the slow path (as the eldest transaction if `eldest`),
/// the others on the fast path. One world serves all of them (setting one
/// up costs more than a thousand schedules).
fn explore(tuples: &[Vec<Program>], eldest: bool) -> (Tally, u64) {
    let n = tuples[0].len();
    let world = NativeHybrid::new(1 << 8, 1 << 6, 1 << 8, n, NativeHybridPolicy::default());
    let (_, slow) = world.debug_step_handles(0);
    let mut slow: Box<dyn Steps + '_> = if eldest {
        Box::new(Eldest(slow))
    } else {
        Box::new(slow)
    };
    let mut fast: Vec<NativeTxn<'_>> = (1..n).map(|t| world.debug_step_handles(t).0).collect();
    let mut txns: Vec<&mut dyn Steps> = vec![&mut *slow];
    txns.extend(fast.iter_mut().map(|f| f as &mut dyn Steps));
    let orders = permutations(n);
    let mut tally = Tally::default();
    for programs in tuples {
        interleavings(n, &mut |schedule| {
            let (hist, heap) = run(&world, &mut txns, programs, schedule);
            assert!(
                explain(&hist, heap, &orders).is_some(),
                "no serial order explains this schedule\n  programs (0 is slow) {programs:?}\n  \
                 schedule {schedule:?}\n  final heap {heap:?}\n  histories {hist:?}"
            );
            tally.schedules += 1;
            tally.commits += hist.iter().filter(|h| h.committed).count() as u64;
            tally.aborts += hist.iter().filter(|h| !h.committed).count() as u64;
            tally.slow_commits += u64::from(hist[0].committed);
        });
    }
    drop(txns);
    let yields = fast.iter().map(|f| f.stats.slow_owner_aborts).sum();
    assert_eq!(world.ustm().owned_lines(), 0);
    world.ustm().audit().expect("owner-word audit");
    (tally, yields)
}

/// One slow and one fast transaction: all 36 program pairs, all 70
/// interleavings of each — once with an ordinary slow transaction, once
/// with the eldest one, which on top of being explainable must commit in
/// every schedule: that is the serial tier's whole contract.
#[test]
fn every_schedule_of_a_slow_and_a_fast_transaction_is_explainable() {
    let pairs: Vec<Vec<Program>> = PROGRAMS
        .iter()
        .flat_map(|&slow| PROGRAMS.iter().map(move |&fast| vec![slow, fast]))
        .collect();
    for eldest in [false, true] {
        let (tally, yields) = explore(&pairs, eldest);
        assert_eq!(tally.schedules, 36 * 70);
        assert!(
            tally.aborts > 0 && yields > 0 && tally.commits > tally.schedules,
            "the exploration met no conflict: {tally:?}, {yields} yields to a slow owner"
        );
        if eldest {
            assert_eq!(tally.slow_commits, tally.schedules, "the eldest lost");
        }
    }
}

/// One slow and two fast transactions over the crossed pair and the
/// audit: 27 program triples, 34 650 interleavings of each.
#[test]
fn every_schedule_of_a_slow_and_two_fast_transactions_is_explainable() {
    let subset = [PROGRAMS[0], PROGRAMS[1], PROGRAMS[3]];
    let mut triples = Vec::new();
    for slow in subset {
        for fast_a in subset {
            for fast_b in subset {
                triples.push(vec![slow, fast_a, fast_b]);
            }
        }
    }
    let (tally, yields) = explore(&triples, false);
    assert_eq!(tally.schedules, 27 * 34_650);
    assert!(tally.aborts > 0 && yields > 0, "{tally:?}, {yields} yields");
}

/// The checker can say no: write skew, a lost update and a torn audit
/// have no serial order; the same histories put right do.
#[test]
fn the_checker_rejects_the_classic_anomalies() {
    let txn = |begin, end, done: [(Op, u64); 2], committed| History {
        begin,
        end,
        done,
        n: 2,
        committed,
    };
    let orders = permutations(2);
    // Both read the initial value of one word and write the other.
    let skew = [
        txn(0, 6, [(Read(0), 10), (Write(1), 1001)], true),
        txn(1, 7, [(Read(1), 20), (Write(0), 2000)], true),
    ];
    assert_eq!(explain(&skew, [2000, 1001], &orders), None);
    let mut one_aborted = skew;
    one_aborted[1].committed = false;
    assert_eq!(explain(&one_aborted, [10, 1001], &orders), Some(vec![1, 0]));
    // Two increments off the same value.
    let lost = [
        txn(0, 6, [(Read(0), 10), (Write(0), 1000)], true),
        txn(1, 7, [(Read(0), 10), (Write(0), 2000)], true),
    ];
    assert_eq!(explain(&lost, [2000, 20], &orders), None);
    // An audit between the two stores of a double write, aborted or not.
    let torn = [
        txn(0, 6, [(Write(0), 1000), (Write(1), 1001)], true),
        txn(1, 7, [(Read(0), 1000), (Read(1), 20)], false),
    ];
    assert_eq!(explain(&torn, [1000, 1001], &orders), None);
    // Real time: a transaction cannot precede one that ended before it began.
    let stale = [
        txn(0, 3, [(Write(0), 1000), (Write(1), 1001)], true),
        txn(4, 7, [(Read(0), 10), (Read(1), 20)], true),
    ];
    assert_eq!(explain(&stale, [1000, 1001], &orders), None);
}
