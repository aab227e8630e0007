#![allow(clippy::needless_range_loop, reason = "index loops mirror the math")]

//! kmeans: clustering with small, hot transactions (paper §5.1).
//!
//! Each thread assigns its chunk of points to the nearest cluster centre
//! (non-transactional reads + compute), then transactionally adds the point
//! into the cluster's accumulator — one small transaction per point, all
//! threads hammering `K` accumulator lines. High contention = few clusters.
//! Between iterations, thread 0 recomputes the centres at a barrier.
//!
//! The workload is one [`Workload`] impl, written once against
//! [`TmBackend`], and runs on both substrates:
//! [`run_sim`](crate::harness::run_sim) on the simulated machine
//! (cycle-charged, deterministic),
//! [`run_native`](crate::harness::run_native) on host atomics — TL2-only
//! or the failover hybrid, per `spec.kind`.

use ufotm_core::TmBackend;
use ufotm_machine::{Addr, LINE_WORDS};

use crate::harness::{chunk, Workload, STATIC_BASE};
use crate::structures::Peek;

/// kmeans parameters.
#[derive(Clone, Copy, Debug)]
pub struct KmeansParams {
    /// Number of points.
    pub points: usize,
    /// Dimensions per point.
    pub dims: usize,
    /// Number of clusters (fewer = more contention).
    pub clusters: usize,
    /// Assignment iterations.
    pub iterations: usize,
}

impl KmeansParams {
    /// The paper's high-contention configuration, scaled down.
    #[must_use]
    pub fn high_contention() -> Self {
        KmeansParams {
            points: 768,
            dims: 4,
            clusters: 4,
            iterations: 2,
        }
    }

    /// The paper's low-contention configuration, scaled down.
    #[must_use]
    pub fn low_contention() -> Self {
        KmeansParams {
            points: 768,
            dims: 4,
            clusters: 32,
            iterations: 2,
        }
    }

    fn points_base(&self) -> Addr {
        STATIC_BASE
    }

    fn point(&self, i: usize, d: usize) -> Addr {
        self.points_base().add_words((i * self.dims + d) as u64)
    }

    fn centers_base(&self) -> Addr {
        let end = self
            .points_base()
            .add_words((self.points * self.dims) as u64);
        Addr(end.0.next_multiple_of(64))
    }

    fn center(&self, k: usize, d: usize) -> Addr {
        // One line per centre.
        self.centers_base()
            .add_words(k as u64 * LINE_WORDS + d as u64)
    }

    fn accs_base(&self) -> Addr {
        Addr(self.centers_base().0 + self.clusters as u64 * 64)
    }

    /// Accumulator layout: word 0 = count, words 1..=D = per-dim sums.
    fn acc(&self, k: usize, field: usize) -> Addr {
        self.accs_base()
            .add_words(k as u64 * LINE_WORDS + field as u64)
    }
}

/// Deterministic point generator (xorshift on the seed).
fn coord(seed: u64, i: usize, d: usize) -> u64 {
    let mut x = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (d as u64) << 17;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x % 1024
}

fn nearest(point: &[u64], centers: &[Vec<u64>]) -> usize {
    let mut best = 0usize;
    let mut best_d = u64::MAX;
    for (k, c) in centers.iter().enumerate() {
        let d: u64 = point
            .iter()
            .zip(c.iter())
            .map(|(&p, &q)| {
                let diff = p.abs_diff(q);
                diff * diff
            })
            .sum();
        if d < best_d {
            best_d = d;
            best = k;
        }
    }
    best
}

impl Workload for KmeansParams {
    fn static_end(&self) -> Addr {
        Addr(self.accs_base().0 + self.clusters as u64 * 64)
    }

    /// One transaction per point per iteration.
    fn ops(&self, _seed: u64) -> u64 {
        (self.points * self.iterations) as u64
    }

    /// Populates points and initial centres (= the first K points).
    fn setup(
        &self,
        seed: u64,
        _peek: &Peek<'_>,
        poke: &mut dyn FnMut(Addr, u64),
        _alloc: &mut dyn FnMut(u64) -> Addr,
    ) {
        let p = *self;
        for i in 0..p.points {
            for d in 0..p.dims {
                poke(p.point(i, d), coord(seed, i, d));
            }
        }
        for k in 0..p.clusters {
            for d in 0..p.dims {
                poke(p.center(k, d), coord(seed, k, d));
            }
        }
    }

    fn body<B: TmBackend>(&self, b: &mut B, _seed: u64) {
        let p = *self;
        let (start, end) = chunk(p.points, b.threads(), b.tid());
        for iter in 0..p.iterations {
            for i in start..end {
                // Plain reads of the point and all centres, plus the
                // distance computation.
                let mut pt = vec![0u64; p.dims];
                for (d, v) in pt.iter_mut().enumerate() {
                    *v = b.plain_load(p.point(i, d));
                }
                let mut centers = vec![vec![0u64; p.dims]; p.clusters];
                for (k, c) in centers.iter_mut().enumerate() {
                    for (d, v) in c.iter_mut().enumerate() {
                        *v = b.plain_load(p.center(k, d));
                    }
                }
                b.compute((p.clusters * p.dims * 3) as u64);
                let k = nearest(&pt, &centers);
                // The transaction: fold the point into accumulator k.
                b.transaction(|tx| {
                    let c = tx.read(p.acc(k, 0))?;
                    tx.write(p.acc(k, 0), c + 1)?;
                    for (d, v) in pt.iter().enumerate() {
                        let s = tx.read(p.acc(k, d + 1))?;
                        tx.write(p.acc(k, d + 1), s + v)?;
                    }
                    Ok(())
                });
            }
            b.barrier();
            if b.tid() == 0 && iter + 1 < p.iterations {
                // Recompute centres and reset accumulators for the next
                // pass (plain accesses: everyone else is at the barrier).
                for k in 0..p.clusters {
                    let count = b.plain_load(p.acc(k, 0));
                    #[allow(
                        clippy::manual_checked_ops,
                        reason = "not `checked_div`: the accumulator loads must be skipped \
                                  entirely for an empty cluster, or the simulated access \
                                  count (and thus cycle totals) would change"
                    )]
                    if count > 0 {
                        for d in 0..p.dims {
                            let sum = b.plain_load(p.acc(k, d + 1));
                            b.plain_store(p.center(k, d), sum / count);
                        }
                    }
                    b.plain_store(p.acc(k, 0), 0);
                    for d in 0..p.dims {
                        b.plain_store(p.acc(k, d + 1), 0);
                    }
                }
            }
            b.barrier();
        }
    }

    /// Host-side replay of the final accumulators: same integer
    /// arithmetic, same tie-breaks — exact on both substrates regardless
    /// of commit order.
    fn verify(&self, seed: u64, peek: &Peek<'_>) {
        let p = *self;
        let mut centers: Vec<Vec<u64>> = (0..p.clusters)
            .map(|k| (0..p.dims).map(|d| coord(seed, k, d)).collect())
            .collect();
        let mut counts = vec![0u64; p.clusters];
        let mut sums = vec![vec![0u64; p.dims]; p.clusters];
        for iter in 0..p.iterations {
            counts.iter_mut().for_each(|c| *c = 0);
            sums.iter_mut()
                .for_each(|s| s.iter_mut().for_each(|v| *v = 0));
            for i in 0..p.points {
                let pt: Vec<u64> = (0..p.dims).map(|d| coord(seed, i, d)).collect();
                let k = nearest(&pt, &centers);
                counts[k] += 1;
                for (d, v) in pt.iter().enumerate() {
                    sums[k][d] += v;
                }
            }
            if iter + 1 < p.iterations {
                for k in 0..p.clusters {
                    for d in 0..p.dims {
                        if let Some(c) = sums[k][d].checked_div(counts[k]) {
                            centers[k][d] = c;
                        }
                    }
                }
            }
        }
        let total: u64 = counts.iter().sum();
        assert_eq!(total, p.points as u64);
        for k in 0..p.clusters {
            assert_eq!(
                peek(p.acc(k, 0)),
                counts[k],
                "cluster {k} count diverged (lost transactional updates?)"
            );
            for d in 0..p.dims {
                assert_eq!(peek(p.acc(k, d + 1)), sums[k][d], "cluster {k} dim {d} sum");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_native, run_sim, RunSpec};
    use ufotm_core::SystemKind;

    fn tiny() -> KmeansParams {
        KmeansParams {
            points: 96,
            dims: 2,
            clusters: 4,
            iterations: 2,
        }
    }

    #[test]
    fn kmeans_verifies_on_sequential() {
        let spec = RunSpec::new(SystemKind::Sequential, 1);
        let out = run_sim(&spec, &tiny());
        assert_eq!(out.total_commits(), 96 * 2);
    }

    #[test]
    fn kmeans_verifies_on_ufo_hybrid() {
        let spec = RunSpec::new(SystemKind::UfoHybrid, 4);
        let out = run_sim(&spec, &tiny());
        assert_eq!(out.total_commits(), 96 * 2);
        assert!(out.hw_commits > 0, "kmeans txns should run in hardware");
    }

    #[test]
    fn kmeans_verifies_on_stms() {
        for kind in [SystemKind::UstmStrong, SystemKind::Tl2] {
            let spec = RunSpec::new(kind, 2);
            let out = run_sim(&spec, &tiny());
            assert_eq!(out.total_commits(), 96 * 2, "{kind}");
        }
    }

    #[test]
    fn parallel_beats_sequential_in_simulated_time() {
        let p = tiny();
        let seq = run_sim(&RunSpec::new(SystemKind::Sequential, 1), &p);
        let par = run_sim(&RunSpec::new(SystemKind::UnboundedHtm, 4), &p);
        assert!(
            par.makespan < seq.makespan,
            "4-thread HTM ({}) should beat sequential ({})",
            par.makespan,
            seq.makespan
        );
    }

    #[test]
    fn kmeans_verifies_on_native_threads() {
        let out = run_native(&RunSpec::new(SystemKind::Tl2, 4), &tiny());
        assert_eq!(out.ops, 96 * 2);
        assert_eq!(out.hybrid.fast.commits, 96 * 2, "one commit per assignment");
    }

    #[test]
    fn kmeans_verifies_on_native_hybrid() {
        let out = run_native(&RunSpec::new(SystemKind::UfoHybrid, 4), &tiny());
        assert_eq!(out.ops, 96 * 2);
        assert_eq!(
            out.total_commits(),
            96 * 2,
            "one commit per assignment across both paths"
        );
    }
}
