//! ssca2-style graph construction (an *extension* workload, not in the
//! paper's evaluation).
//!
//! STAMP's ssca2 kernel 1 builds a directed multigraph: every transaction
//! prepends one edge to the source node's adjacency list and bumps its
//! degree — tiny transactions over a wide address space, the
//! high-throughput/low-contention end of the spectrum. Useful as a sanity
//! extension: every TM system should scale here, with hybrids committing
//! ~everything in hardware.
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

/// ssca2 parameters.
#[derive(Clone, Copy, Debug)]
pub struct Ssca2Params {
    /// Number of graph nodes.
    pub nodes: usize,
    /// Total edges inserted (split across threads).
    pub edges: usize,
}

impl Ssca2Params {
    /// The standard scaled-down configuration.
    #[must_use]
    pub fn standard() -> Self {
        Ssca2Params {
            nodes: 256,
            edges: 1024,
        }
    }

    /// Node record: one line per node — [head, degree, ...].
    fn node(&self, n: usize) -> Addr {
        STATIC_BASE.add_words(n as u64 * LINE_WORDS)
    }
}

/// Deterministic edge stream.
fn edge(seed: u64, i: usize, nodes: usize) -> (u64, u64) {
    let mut x = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    let src = x % nodes as u64;
    let dst = (x >> 32) % nodes as u64;
    (src, dst)
}

impl Workload for Ssca2Params {
    fn static_end(&self) -> Addr {
        self.node(self.nodes)
    }

    /// 2 words per edge, with generous slack because every aborted
    /// attempt leaks its cell (bump allocator).
    fn native_alloc_words(&self) -> u64 {
        self.edges as u64 * 2 * 64
    }

    /// One transaction per edge.
    fn ops(&self, _seed: u64) -> u64 {
        self.edges as u64
    }

    /// Inserts this thread's chunk of the edge stream.
    fn body<B: TmBackend>(&self, b: &mut B, seed: u64) {
        let p = *self;
        let (start, end) = chunk(p.edges, b.threads(), b.tid());
        for i in start..end {
            let (src, dst) = edge(seed, i, p.nodes);
            let node = p.node(src as usize);
            b.transaction(|tx| {
                // Edge cell: [dst, next].
                let cell = tx.alloc(2)?;
                tx.write(cell, dst)?;
                let head = tx.read(node)?;
                tx.write(cell.add_words(1), head)?;
                tx.write(node, cell.0)?;
                let deg = tx.read(node.add_words(1))?;
                tx.write(node.add_words(1), deg + 1)?;
                Ok(())
            });
            b.compute(40);
        }
    }

    /// Walks every adjacency list in the final heap and compares it, as
    /// a multiset, against the generated edge stream; degrees must sum to
    /// the edge count. Works on both substrates (aborted native
    /// allocations leak unreferenced cells, which a reachability walk
    /// never visits).
    fn verify(&self, seed: u64, peek: &Peek<'_>) {
        let p = *self;
        // Expected multiset of targets per source.
        let mut expected: Vec<Vec<u64>> = vec![Vec::new(); p.nodes];
        for i in 0..p.edges {
            let (src, dst) = edge(seed, i, p.nodes);
            expected[src as usize].push(dst);
        }
        let mut total_degree = 0u64;
        for (n, exp) in expected.iter_mut().enumerate() {
            let node = p.node(n);
            let mut got = Vec::new();
            let mut cur = peek(node);
            while cur != 0 {
                let cell = Addr(cur);
                got.push(peek(cell));
                cur = peek(cell.add_words(1));
            }
            let deg = peek(node.add_words(1));
            assert_eq!(deg as usize, got.len(), "node {n}: degree vs list length");
            total_degree += deg;
            got.sort_unstable();
            exp.sort_unstable();
            assert_eq!(got, *exp, "node {n}: adjacency multiset");
        }
        assert_eq!(total_degree, p.edges as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_native, run_sim, RunSpec};
    use ufotm_core::SystemKind;

    fn tiny() -> Ssca2Params {
        Ssca2Params {
            nodes: 32,
            edges: 120,
        }
    }

    #[test]
    fn ssca2_verifies_on_sequential() {
        let out = run_sim(&RunSpec::new(SystemKind::Sequential, 1), &tiny());
        assert_eq!(out.total_commits(), 120);
    }

    #[test]
    fn ssca2_verifies_on_hybrids_and_stms() {
        for kind in [
            SystemKind::UfoHybrid,
            SystemKind::PhTm,
            SystemKind::UstmStrong,
            SystemKind::Tl2,
        ] {
            let out = run_sim(&RunSpec::new(kind, 3), &tiny());
            assert_eq!(out.total_commits(), 120, "{kind}");
        }
    }

    #[test]
    fn ssca2_hybrid_runs_mostly_in_hardware() {
        let out = run_sim(&RunSpec::new(SystemKind::UfoHybrid, 4), &tiny());
        assert!(
            out.hw_commits > out.sw_commits * 5,
            "tiny graph txns should overwhelmingly commit in hardware \
             (hw={}, sw={})",
            out.hw_commits,
            out.sw_commits
        );
    }

    #[test]
    fn ssca2_scales_in_simulated_time() {
        let p = tiny();
        let seq = run_sim(&RunSpec::new(SystemKind::Sequential, 1), &p);
        let par = run_sim(&RunSpec::new(SystemKind::UfoHybrid, 4), &p);
        assert!(par.makespan < seq.makespan, "4T must beat sequential");
    }

    #[test]
    fn ssca2_verifies_on_native_threads() {
        let out = run_native(&RunSpec::new(SystemKind::Tl2, 4), &tiny());
        assert_eq!(out.ops, 120);
        assert_eq!(out.hybrid.fast.commits, 120, "one commit per edge");
    }

    #[test]
    fn ssca2_verifies_on_native_hybrid() {
        let out = run_native(&RunSpec::new(SystemKind::UfoHybrid, 4), &tiny());
        assert_eq!(out.ops, 120);
        assert_eq!(out.total_commits(), 120, "one commit per edge across paths");
    }

    /// `spec.kind` picks the native backend; a system with none is refused
    /// before any thread starts, not run as something else.
    #[test]
    #[should_panic(expected = "no native backend runs HyTM")]
    fn a_kind_with_no_native_backend_is_refused() {
        let _ = run_native(&RunSpec::new(SystemKind::HyTm, 2), &tiny());
    }
}
