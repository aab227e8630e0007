//! The three native workloads. Each stresses a different layer of
//! `ufotm-native`; README.md records why each exists.

use ufotm_core::{Stop, TxScope};
use ufotm_machine::{Addr, SimRng};
use ufotm_native::NativeHybrid;
use ufotm_stamp::harness::{native_hybrid_world, STATIC_BASE};
use ufotm_stamp::structures::{BstMap, Peek};

use crate::native::Workload;

const LINE: u64 = 64;

fn line(base: Addr, i: u64) -> Addr {
    Addr(base.0 + i * LINE)
}

/// Populates `count` line-spaced counters from `base` with their initial
/// value. The heap is born zeroed; storing the zeros anyway is what an
/// application's set-up does, and it faults every page in during set-up
/// and not during warm-up.
fn zero_lines(world: &NativeHybrid, base: Addr, count: u64) {
    for i in 0..count {
        world.tl2().poke(line(base, i), 0);
    }
}

/// `native_spread`: one-read-one-write increments on a random one of
/// 4096 line-spaced slots. The TL2 fast path, the mode gate and the
/// global clock do all the work.
///
/// One worker. With two, throughput is set by what it costs to move the
/// gate's and the clock's cache lines between the cores, and on the VM
/// this was written on that cost holds one of several values for tens of
/// seconds at a time: ten pinned 20 s runs read 2.6 M to 3.4 M commits/s,
/// each steady within 3 %. That is a finding (`native.hybrid.
/// commits_per_s_2t`, `scale_2t_over_1t`), not a number to gate on.
pub struct Spread;

pub const SPREAD_SLOTS: u64 = 4096;

impl Workload for Spread {
    type Input = Addr;

    fn workers(&self, _nproc: usize) -> usize {
        1
    }

    fn build(&self, threads: usize) -> NativeHybrid {
        let world = native_hybrid_world(line(STATIC_BASE, SPREAD_SLOTS), 0, threads);
        zero_lines(&world, STATIC_BASE, SPREAD_SLOTS);
        world
    }

    fn next(&self, rng: &mut SimRng, _tid: usize, _seq: u64) -> Addr {
        line(STATIC_BASE, rng.gen_range(0..SPREAD_SLOTS))
    }

    fn body(&self, tx: &mut dyn TxScope, _tid: usize, slot: &Addr) -> Result<(), Stop> {
        let v = tx.read(*slot)?;
        tx.write(*slot, v + 1)
    }

    fn verify(&self, world: &NativeHybrid, commits: &[u64]) -> Result<(), String> {
        let sum: u64 = (0..SPREAD_SLOTS)
            .map(|i| world.peek(line(STATIC_BASE, i)))
            .sum();
        let expected: u64 = commits.iter().sum();
        if sum == expected {
            Ok(())
        } else {
            Err(format!(
                "slots sum to {sum}, {expected} increments committed"
            ))
        }
    }
}

/// `native_failover`: the paper's Figure 7 microbenchmark on real
/// threads. Each thread increments four consecutive lines of its own
/// private region; every eighth transaction is forced onto the USTM slow
/// path, so the slow-path count does not depend on the scheduler.
pub struct Failover;

const REGION_LINES: u64 = 2048;
const RMWS: u64 = 4;
const FAILOVER_STRIDE: u64 = 8;

impl Failover {
    fn region(tid: usize) -> Addr {
        line(STATIC_BASE, tid as u64 * REGION_LINES)
    }
}

impl Workload for Failover {
    type Input = Addr;

    fn build(&self, threads: usize) -> NativeHybrid {
        let world = native_hybrid_world(Failover::region(threads), 0, threads);
        zero_lines(&world, STATIC_BASE, threads as u64 * REGION_LINES);
        world
    }

    fn next(&self, rng: &mut SimRng, tid: usize, _seq: u64) -> Addr {
        line(
            Failover::region(tid),
            rng.gen_range(0..REGION_LINES - RMWS + 1),
        )
    }

    fn force_slow(&self, seq: u64) -> bool {
        seq % FAILOVER_STRIDE == FAILOVER_STRIDE - 1
    }

    fn body(&self, tx: &mut dyn TxScope, _tid: usize, first: &Addr) -> Result<(), Stop> {
        for l in 0..RMWS {
            let a = line(*first, l);
            let v = tx.read(a)?;
            tx.write(a, v + 1)?;
        }
        Ok(())
    }

    fn verify(&self, world: &NativeHybrid, commits: &[u64]) -> Result<(), String> {
        for (tid, &n) in commits.iter().enumerate() {
            let sum: u64 = (0..REGION_LINES)
                .map(|i| world.peek(line(Failover::region(tid), i)))
                .sum();
            if sum != n * RMWS {
                return Err(format!(
                    "thread {tid}'s region sums to {sum}, expected {}",
                    n * RMWS
                ));
            }
        }
        Ok(())
    }
}

/// `native_reserve`: vacation-low's reservation shape over the public
/// [`BstMap`] (`vacation::task_body` is private, so the body is stated
/// here): sixteen tree lookups over three relation tables, then at most
/// three writes. Long read-mostly transactions: read-set validation and
/// write-buffer lookups on every read.
///
/// Unlike vacation, which only ever reserves and so runs dry within a
/// second, a customer holding [`HOLD_CAP`] reservations gives one back
/// and a customer holding none takes one (a coin decides in between), so
/// the world stays in a steady state however long the run.
pub struct Reserve;

/// The tables are a fixture: `--seed` drives the stream of requests, not
/// the shape of the trees, so runs with different seeds do the same
/// amount of work per transaction.
const WORLD_SEED: u64 = 0xC0FF_EE11;

const TABLES: usize = 3;
const RELATIONS: u64 = 512;
const ID_SPACE: u64 = 1024;
const QUERY_RANGE: u64 = ID_SPACE * 90 / 100;
const CUSTOMERS: u64 = 64;
const QUERIES: usize = 16;
const HOLD_CAP: u64 = 32;

/// Relation node values: `[total, free, price, 0]`; customer node
/// values: `[reservations, 0, 0, 0]`.
const V_TOTAL: u64 = 0;
const V_FREE: u64 = 1;
const V_PRICE: u64 = 2;
const V_HELD: u64 = 0;

pub struct ReserveInput {
    customer: u64,
    queries: [(usize, u64); QUERIES],
    coin: bool,
}

fn table(t: usize) -> BstMap {
    BstMap::new(STATIC_BASE.add_words(t as u64))
}

fn customers() -> BstMap {
    BstMap::new(STATIC_BASE.add_words(TABLES as u64))
}

/// vacation's set-up hash, restated: deterministic, shuffled-feeling.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut x =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xD1B5_4A32_D192_ED03);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x
}

impl Reserve {
    /// Every node of the fixture, in insertion order: the three relation
    /// tables, then the customers. The tables are the same for every
    /// seed.
    ///
    /// Customers go in in shuffled order. vacation inserts them in
    /// ascending order, which grows a 64-deep spine that every
    /// transaction walks and every transaction writes somewhere along:
    /// the workload would measure that artefact, not the read path.
    pub fn fixture() -> impl Iterator<Item = (BstMap, u64, [u64; 4])> {
        let relations = (0..TABLES).flat_map(|t| {
            (0..RELATIONS).map(move |i| {
                let id = mix(WORLD_SEED, t as u64, i) % ID_SPACE;
                let price = 50 + mix(WORLD_SEED, id, t as u64 + 7) % 450;
                let total = 3 + mix(WORLD_SEED, id, 99) % 5;
                (table(t), id, [total, total, price, 0])
            })
        });
        let mut ids: Vec<u64> = (0..CUSTOMERS).collect();
        ids.sort_by_key(|&c| mix(WORLD_SEED, c, 4242));
        relations.chain(ids.into_iter().map(|c| (customers(), c, [0; 4])))
    }

    /// vacation's conservation law on a quiescent world: what the tables
    /// gave out is what the customers hold, and no relation is over- or
    /// under-booked.
    pub fn check(peek: &Peek<'_>) -> Result<(), String> {
        let mut given_out = 0u64;
        let mut overbooked = 0u64;
        for t in 0..TABLES {
            table(t).peek_each(peek, |_, vals| {
                let (total, free) = (vals[V_TOTAL as usize], vals[V_FREE as usize]);
                if free > total {
                    overbooked += 1;
                } else {
                    given_out += total - free;
                }
            });
        }
        let mut held = 0u64;
        customers().peek_each(peek, |_, vals| held += vals[V_HELD as usize]);
        if overbooked != 0 {
            return Err(format!("{overbooked} relations have free > total"));
        }
        if given_out != held {
            return Err(format!(
                "tables gave out {given_out} reservations, customers hold {held}"
            ));
        }
        Ok(())
    }

    /// The read phase: looks every query up and returns the cheapest
    /// relation with a free unit and the first with a unit given out.
    pub fn lookups(
        &self,
        tx: &mut dyn TxScope,
        input: &ReserveInput,
    ) -> Result<(Option<Addr>, Option<Addr>), Stop> {
        let any = table(0); // field helpers only
        let mut cheapest: Option<(Addr, u64)> = None;
        let mut returnable: Option<Addr> = None;
        for &(t, id) in &input.queries {
            if let Some(node) = table(t).lookup(tx, id)? {
                let total = any.value(tx, node, V_TOTAL)?;
                let free = any.value(tx, node, V_FREE)?;
                let price = any.value(tx, node, V_PRICE)?;
                if free > 0 && cheapest.is_none_or(|(_, p)| price < p) {
                    cheapest = Some((node, price));
                }
                if free < total && returnable.is_none() {
                    returnable = Some(node);
                }
            }
        }
        Ok((cheapest.map(|(node, _)| node), returnable))
    }
}

impl Workload for Reserve {
    type Input = ReserveInput;

    fn build(&self, threads: usize) -> NativeHybrid {
        let nodes = TABLES as u64 * RELATIONS + CUSTOMERS;
        let world = native_hybrid_world(
            STATIC_BASE.add_words(TABLES as u64 + 1),
            (nodes + 64) * 8,
            threads,
        );
        let heap = world.tl2();
        for (map, key, values) in Reserve::fixture() {
            map.host_insert(
                &|a| heap.peek(a),
                &mut |a, v| heap.poke(a, v),
                &mut |words| heap.host_alloc(words),
                key,
                &values,
            );
        }
        world
    }

    fn next(&self, rng: &mut SimRng, _tid: usize, _seq: u64) -> ReserveInput {
        ReserveInput {
            customer: rng.gen_range(0..CUSTOMERS),
            queries: std::array::from_fn(|_| {
                (rng.gen_index(0..TABLES), rng.gen_range(0..QUERY_RANGE))
            }),
            coin: rng.gen_bool(0.5),
        }
    }

    fn body(&self, tx: &mut dyn TxScope, _tid: usize, input: &ReserveInput) -> Result<(), Stop> {
        let any = table(0); // field helpers only
        let (cheapest, returnable) = self.lookups(tx, input)?;
        let cust = customers();
        let cnode = cust
            .lookup(tx, input.customer)?
            .expect("every customer id is populated");
        let held = cust.value(tx, cnode, V_HELD)?;
        let take = held == 0 || (held < HOLD_CAP && input.coin);
        if take {
            if let Some(node) = cheapest {
                let free = any.value(tx, node, V_FREE)?;
                any.set_value(tx, node, V_FREE, free - 1)?;
                cust.set_value(tx, cnode, V_HELD, held + 1)?;
            }
        } else if let Some(node) = returnable {
            let free = any.value(tx, node, V_FREE)?;
            any.set_value(tx, node, V_FREE, free + 1)?;
            cust.set_value(tx, cnode, V_HELD, held - 1)?;
        }
        Ok(())
    }

    fn verify(&self, world: &NativeHybrid, _commits: &[u64]) -> Result<(), String> {
        Reserve::check(&|a| world.peek(a))
    }
}
