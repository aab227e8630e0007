//! Transactional data structures, written once against [`TxScope`].
//!
//! Nodes are heap-allocated (one 8-word node per cache line) and all
//! pointer/field accesses go through the scope, so traversals generate
//! realistic read sets — a tree lookup reads one line per level, and a
//! sorted-list insertion reads its whole prefix, exactly the footprint
//! shapes that drive the paper's vacation and genome results.
//!
//! Because the structures only see `&mut dyn TxScope`, the same lookup
//! and insert code runs on the simulated machine (via `SimBackend`,
//! cycle-charged and deterministic) and on the native backends (host
//! atomics, real threads). Host-side verification walkers take a `peek`
//! closure for the same reason: `|a| machine.peek(a)` on the simulator,
//! `|a| heap.peek(a)` on the native heap.
//!
//! A null pointer is encoded as 0 (neither heap starts at address 0).

use ufotm_core::{Stop, TxScope};
use ufotm_machine::Addr;

/// Node layout: one 8-word line.
const F_KEY: u64 = 0;
const F_LEFT: u64 = 1;
const F_RIGHT: u64 = 2;
const F_NEXT: u64 = 1; // list nodes reuse the layout
/// First of four value words.
const F_VAL: u64 = 3;
const NODE_WORDS: u64 = 8;

fn field(node: Addr, f: u64) -> Addr {
    node.add_words(f)
}

/// A host-side (non-transactional) word reader for verification walks.
pub type Peek<'a> = dyn Fn(Addr) -> u64 + 'a;

/// An unbalanced binary search tree keyed by `u64`, with up to four value
/// words per node. The root pointer lives at a fixed address.
#[derive(Clone, Copy, Debug)]
pub struct BstMap {
    root: Addr,
}

impl BstMap {
    /// Creates a handle for a tree whose root pointer cell is at `root`
    /// (reserve one word; must be zero-initialized).
    #[must_use]
    pub fn new(root: Addr) -> Self {
        BstMap { root }
    }

    /// Transactionally looks up `key`, returning the node address.
    ///
    /// # Errors
    ///
    /// Propagates the scope's abort token.
    pub fn lookup(&self, tx: &mut dyn TxScope, key: u64) -> Result<Option<Addr>, Stop> {
        let mut cur = tx.read(self.root)?;
        while cur != 0 {
            let node = Addr(cur);
            let k = tx.read(field(node, F_KEY))?;
            if k == key {
                return Ok(Some(node));
            }
            let next_field = if key < k { F_LEFT } else { F_RIGHT };
            cur = tx.read(field(node, next_field))?;
        }
        Ok(None)
    }

    /// Transactionally inserts `key` with up to four value words. Returns
    /// `false` (and writes nothing) if the key already exists.
    ///
    /// # Errors
    ///
    /// Propagates the scope's abort token.
    ///
    /// # Panics
    ///
    /// Panics if more than four value words are supplied.
    pub fn insert(&self, tx: &mut dyn TxScope, key: u64, values: &[u64]) -> Result<bool, Stop> {
        assert!(values.len() <= 4, "at most four value words per node");
        let mut parent_field = self.root;
        let mut cur = tx.read(self.root)?;
        while cur != 0 {
            let node = Addr(cur);
            let k = tx.read(field(node, F_KEY))?;
            if k == key {
                return Ok(false);
            }
            let next_field = if key < k { F_LEFT } else { F_RIGHT };
            parent_field = field(node, next_field);
            cur = tx.read(parent_field)?;
        }
        let node = tx.alloc(NODE_WORDS)?;
        tx.write(field(node, F_KEY), key)?;
        tx.write(field(node, F_LEFT), 0)?;
        tx.write(field(node, F_RIGHT), 0)?;
        for (i, v) in values.iter().enumerate() {
            tx.write(field(node, F_VAL + i as u64), *v)?;
        }
        tx.write(parent_field, node.0)?;
        Ok(true)
    }

    /// Reads value word `i` of `node`.
    ///
    /// # Errors
    ///
    /// Propagates the scope's abort token.
    pub fn value(&self, tx: &mut dyn TxScope, node: Addr, i: u64) -> Result<u64, Stop> {
        tx.read(field(node, F_VAL + i))
    }

    /// Writes value word `i` of `node`.
    ///
    /// # Errors
    ///
    /// Propagates the scope's abort token.
    pub fn set_value(&self, tx: &mut dyn TxScope, node: Addr, i: u64, v: u64) -> Result<(), Stop> {
        tx.write(field(node, F_VAL + i), v)
    }

    /// Host-side (non-transactional) traversal for verification: calls `f`
    /// with `(key, [v0..v3])` for every node, in key order.
    pub fn peek_each(&self, peek: &Peek<'_>, mut f: impl FnMut(u64, [u64; 4])) {
        fn rec(peek: &Peek<'_>, cur: u64, f: &mut impl FnMut(u64, [u64; 4])) {
            if cur == 0 {
                return;
            }
            let node = Addr(cur);
            rec(peek, peek(field(node, F_LEFT)), f);
            let key = peek(field(node, F_KEY));
            let vals = [
                peek(field(node, F_VAL)),
                peek(field(node, F_VAL + 1)),
                peek(field(node, F_VAL + 2)),
                peek(field(node, F_VAL + 3)),
            ];
            f(key, vals);
            rec(peek, peek(field(node, F_RIGHT)), f);
        }
        rec(peek, peek(self.root), &mut f);
    }

    /// Host-side insert for setup phases (no transactions, no cycle
    /// charges): walks with `peek`, allocates a node with `alloc`, and
    /// publishes it with `poke`. No-op if `key` is already present.
    pub fn host_insert(
        &self,
        peek: &Peek<'_>,
        poke: &mut dyn FnMut(Addr, u64),
        alloc: &mut dyn FnMut(u64) -> Addr,
        key: u64,
        values: &[u64; 4],
    ) {
        let mut parent_field = self.root;
        let mut cur = peek(self.root);
        while cur != 0 {
            let node = Addr(cur);
            let k = peek(field(node, F_KEY));
            if k == key {
                return; // already present
            }
            let f = if key < k { F_LEFT } else { F_RIGHT };
            parent_field = field(node, f);
            cur = peek(parent_field);
        }
        let node = alloc(NODE_WORDS);
        poke(field(node, F_KEY), key);
        poke(field(node, F_LEFT), 0);
        poke(field(node, F_RIGHT), 0);
        for (i, v) in values.iter().enumerate() {
            poke(field(node, F_VAL + i as u64), *v);
        }
        poke(parent_field, node.0);
    }
}

/// A sorted singly-linked list with unique keys. Insertion reads the whole
/// prefix up to the insertion point — genome's contention pattern.
#[derive(Clone, Copy, Debug)]
pub struct SortedList {
    head: Addr,
}

impl SortedList {
    /// Creates a handle for a list whose head pointer cell is at `head`
    /// (reserve one word; must be zero-initialized).
    #[must_use]
    pub fn new(head: Addr) -> Self {
        SortedList { head }
    }

    /// Transactionally inserts `key` (with one value word), keeping the
    /// list sorted. Returns `false` if the key is already present.
    ///
    /// # Errors
    ///
    /// Propagates the scope's abort token.
    pub fn insert(&self, tx: &mut dyn TxScope, key: u64, value: u64) -> Result<bool, Stop> {
        let mut prev_field = self.head;
        let mut cur = tx.read(self.head)?;
        while cur != 0 {
            let node = Addr(cur);
            let k = tx.read(field(node, F_KEY))?;
            if k == key {
                return Ok(false);
            }
            if k > key {
                break;
            }
            prev_field = field(node, F_NEXT);
            cur = tx.read(prev_field)?;
        }
        let node = tx.alloc(NODE_WORDS)?;
        tx.write(field(node, F_KEY), key)?;
        tx.write(field(node, F_NEXT), cur)?;
        tx.write(field(node, F_VAL), value)?;
        tx.write(prev_field, node.0)?;
        Ok(true)
    }

    /// Host-side traversal for verification: yields keys in list order.
    #[must_use]
    pub fn peek_keys(&self, peek: &Peek<'_>) -> Vec<u64> {
        let mut out = Vec::new();
        let mut cur = peek(self.head);
        while cur != 0 {
            let node = Addr(cur);
            out.push(peek(field(node, F_KEY)));
            cur = peek(field(node, F_NEXT));
        }
        out
    }
}

/// A fixed-bucket chained hash set of `u64` keys. The bucket array lives in
/// a static region; chain nodes come from the heap.
#[derive(Clone, Copy, Debug)]
pub struct HashSet {
    buckets: Addr,
    bucket_count: u64,
}

impl HashSet {
    /// Creates a handle for a set whose bucket array (one word per bucket,
    /// zero-initialized) starts at `buckets`.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_count` is not a power of two.
    #[must_use]
    pub fn new(buckets: Addr, bucket_count: u64) -> Self {
        assert!(bucket_count.is_power_of_two());
        HashSet {
            buckets,
            bucket_count,
        }
    }

    fn bucket_of(&self, key: u64) -> Addr {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        self.buckets.add_words(h & (self.bucket_count - 1))
    }

    /// Transactionally tests membership.
    ///
    /// # Errors
    ///
    /// Propagates the scope's abort token.
    pub fn contains(&self, tx: &mut dyn TxScope, key: u64) -> Result<bool, Stop> {
        let bucket = self.bucket_of(key);
        let mut cur = tx.read(bucket)?;
        while cur != 0 {
            let node = Addr(cur);
            if tx.read(field(node, F_KEY))? == key {
                return Ok(true);
            }
            cur = tx.read(field(node, F_NEXT))?;
        }
        Ok(false)
    }

    /// Transactionally inserts `key`; returns `false` if already present.
    ///
    /// # Errors
    ///
    /// Propagates the scope's abort token.
    pub fn insert(&self, tx: &mut dyn TxScope, key: u64) -> Result<bool, Stop> {
        let bucket = self.bucket_of(key);
        let mut cur = tx.read(bucket)?;
        let head = cur;
        while cur != 0 {
            let node = Addr(cur);
            if tx.read(field(node, F_KEY))? == key {
                return Ok(false);
            }
            cur = tx.read(field(node, F_NEXT))?;
        }
        let node = tx.alloc(NODE_WORDS)?;
        tx.write(field(node, F_KEY), key)?;
        tx.write(field(node, F_NEXT), head)?;
        tx.write(bucket, node.0)?;
        Ok(true)
    }

    /// Host-side scan for verification: all keys, unordered.
    #[must_use]
    pub fn peek_all(&self, peek: &Peek<'_>) -> Vec<u64> {
        let mut out = Vec::new();
        for b in 0..self.bucket_count {
            let mut cur = peek(self.buckets.add_words(b));
            while cur != 0 {
                let node = Addr(cur);
                out.push(peek(field(node, F_KEY)));
                cur = peek(field(node, F_NEXT));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ufotm_core::{SystemKind, TmBackend, TmShared, TmThread};
    use ufotm_machine::{Machine, MachineConfig};
    use ufotm_sim::{Sim, SimResult, ThreadFn};

    use crate::backend::SimBackend;
    use crate::world::{Barrier, StampWorld};

    /// Runs a single-threaded body against a fresh simulated backend and
    /// returns the final world.
    fn run_one(
        kind: SystemKind,
        body: impl FnOnce(&mut SimBackend<'_>) + Send + 'static,
    ) -> SimResult<StampWorld> {
        let cfg = MachineConfig::table4(1);
        let tm = TmShared::standard(kind, &cfg);
        let machine = Machine::new(cfg);
        let world = StampWorld {
            tm,
            barrier: Barrier::new(Addr(64), 1),
        };
        Sim::new(machine, world).run(vec![Box::new(move |ctx: &mut ufotm_sim::Ctx<StampWorld>| {
            let mut t = TmThread::new(kind, 0);
            t.install(ctx);
            let mut b = SimBackend::new(&mut t, ctx, 0, 1);
            body(&mut b);
        }) as ThreadFn<StampWorld>])
    }

    #[test]
    fn bst_insert_lookup_and_order() {
        let r = run_one(SystemKind::Sequential, |b| {
            let map = BstMap::new(Addr(4096));
            for key in [50u64, 20, 80, 10, 30, 70, 90] {
                let fresh = b.transaction(|tx| map.insert(tx, key, &[key * 2, 0, 0, 0]));
                assert!(fresh);
            }
            let dup = b.transaction(|tx| map.insert(tx, 30, &[1, 0, 0, 0]));
            assert!(!dup, "duplicate insert must be rejected");
            b.transaction(|tx| {
                let node = map.lookup(tx, 70)?.expect("70 present");
                assert_eq!(map.value(tx, node, 0)?, 140);
                map.set_value(tx, node, 0, 7)?;
                assert!(map.lookup(tx, 99)?.is_none());
                Ok(())
            });
        });
        let map = BstMap::new(Addr(4096));
        let mut seen = Vec::new();
        map.peek_each(&|a| r.machine.peek(a), |k, vals| seen.push((k, vals[0])));
        assert_eq!(
            seen,
            vec![
                (10, 20),
                (20, 40),
                (30, 60),
                (50, 100),
                (70, 7),
                (80, 160),
                (90, 180)
            ],
            "in-order traversal with updated value"
        );
    }

    #[test]
    fn bst_works_transactionally_on_the_hybrid() {
        let r = run_one(SystemKind::UfoHybrid, |b| {
            let map = BstMap::new(Addr(4096));
            for key in 0..20u64 {
                // Mixed order insertion via bit-reversal.
                let k = (key.reverse_bits() >> 59) ^ key;
                b.transaction(|tx| map.insert(tx, k, &[k, 0, 0, 0]));
            }
        });
        let map = BstMap::new(Addr(4096));
        let mut keys = Vec::new();
        map.peek_each(&|a| r.machine.peek(a), |k, _| keys.push(k));
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn bst_host_insert_matches_transactional_layout() {
        let r = run_one(SystemKind::Sequential, |b| {
            let map = BstMap::new(Addr(4096));
            b.transaction(|tx| map.insert(tx, 10, &[1, 0, 0, 0]));
        });
        // A host-side insert into a detached tree, then lookups through
        // plain peeks must see the same field layout.
        let mut words = vec![0u64; 64];
        let map = BstMap::new(Addr(0));
        let mut next = 8u64; // word index of the next free node
        let mut poke = |a: Addr, v: u64| words[(a.0 / 8) as usize] = v;
        let mut alloc = |w: u64| {
            let at = Addr(next * 8);
            next += w;
            at
        };
        // Rust closures can't borrow `words` both ways at once, so stage
        // the walk manually: empty tree, single insert at the root cell.
        map.host_insert(&|_a| 0, &mut poke, &mut alloc, 42, &[7, 0, 0, 0]);
        assert_eq!(words[0], 64, "root points at the allocated node");
        assert_eq!(words[8], 42, "key word");
        assert_eq!(words[11], 7, "first value word");
        // And the transactional tree from the simulated run agrees on the
        // same offsets.
        let m = &r.machine;
        let root = m.peek(Addr(4096));
        assert_ne!(root, 0);
        assert_eq!(m.peek(Addr(root)), 10);
    }

    #[test]
    fn sorted_list_stays_sorted_and_unique() {
        let r = run_one(SystemKind::Sequential, |b| {
            let list = SortedList::new(Addr(4096));
            for key in [5u64, 3, 9, 1, 7, 3, 9] {
                b.transaction(|tx| list.insert(tx, key, key + 100));
            }
        });
        let list = SortedList::new(Addr(4096));
        assert_eq!(list.peek_keys(&|a| r.machine.peek(a)), vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn hash_set_deduplicates_across_buckets() {
        let r = run_one(SystemKind::UstmStrong, |b| {
            let set = HashSet::new(Addr(4096), 8);
            let mut fresh_count = 0;
            for key in [1u64, 2, 3, 1, 2, 3, 4, 100, 1000, 100] {
                if b.transaction(|tx| set.insert(tx, key)) {
                    fresh_count += 1;
                }
            }
            assert_eq!(fresh_count, 6);
        });
        let set = HashSet::new(Addr(4096), 8);
        let mut all = set.peek_all(&|a| r.machine.peek(a));
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 3, 4, 100, 1000]);
    }

    #[test]
    fn structures_allocate_one_line_per_node() {
        let r = run_one(SystemKind::Sequential, |b| {
            let list = SortedList::new(Addr(4096));
            for key in 1..=4u64 {
                b.transaction(|tx| list.insert(tx, key, 0));
            }
        });
        assert_eq!(r.shared.tm.heap.live_allocations(), 4);
    }
}
