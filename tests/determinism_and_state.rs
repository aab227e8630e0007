//! Cross-cutting integration tests: the simulation is deterministic, and
//! order-independent workloads reach identical final states on every
//! system.

use ufotm::prelude::*;
use ufotm::stamp::genome::GenomeParams;
use ufotm::stamp::harness::run_sim;
use ufotm::stamp::kmeans::KmeansParams;
use ufotm::stamp::micro::{self, MicroParams};

fn tiny_kmeans() -> KmeansParams {
    KmeansParams {
        points: 96,
        dims: 2,
        clusters: 4,
        iterations: 2,
    }
}

#[test]
fn identical_seeds_give_identical_simulations() {
    for kind in [
        SystemKind::UfoHybrid,
        SystemKind::UstmStrong,
        SystemKind::PhTm,
    ] {
        let a = run_sim(&RunSpec::new(kind, 3), &tiny_kmeans());
        let b = run_sim(&RunSpec::new(kind, 3), &tiny_kmeans());
        assert_eq!(a.makespan, b.makespan, "{kind}: nondeterministic makespan");
        assert_eq!(a.hw_commits, b.hw_commits, "{kind}");
        assert_eq!(a.sw_commits, b.sw_commits, "{kind}");
        assert_eq!(
            a.report.machine.btm_aborts, b.report.machine.btm_aborts,
            "{kind}: nondeterministic abort mix"
        );
    }
}

#[test]
fn different_seeds_change_microbenchmark_forcing() {
    let mut s1 = RunSpec::new(SystemKind::UfoHybrid, 2);
    s1.seed = 1;
    let mut s2 = RunSpec::new(SystemKind::UfoHybrid, 2);
    s2.seed = 2;
    let p = MicroParams {
        txns_per_thread: 60,
        ..MicroParams::with_rate(0.5)
    };
    let a = micro::run(&s1, &p);
    let b = micro::run(&s2, &p);
    // Same totals, (almost certainly) different forced subsets.
    assert_eq!(a.total_commits(), b.total_commits());
    assert_ne!(
        (a.forced_failovers, a.makespan),
        (b.forced_failovers, b.makespan),
        "different seeds should perturb the run"
    );
}

#[test]
fn genome_reaches_the_same_list_on_every_system() {
    // The final sorted list is fully determined by the input segments, so
    // every system must converge to it (each run also self-verifies).
    let p = GenomeParams {
        segments: 80,
        segment_space: 1 << 30,
        buckets: 32,
    };
    for kind in [
        SystemKind::Sequential,
        SystemKind::GlobalLock,
        SystemKind::UstmWeak,
        SystemKind::UstmStrong,
        SystemKind::Tl2,
        SystemKind::UnboundedHtm,
        SystemKind::UfoHybrid,
        SystemKind::HyTm,
        SystemKind::PhTm,
    ] {
        let threads = if kind == SystemKind::Sequential { 1 } else { 3 };
        run_sim(&RunSpec::new(kind, threads), &p);
    }
}

#[test]
fn kmeans_accumulators_match_across_systems() {
    // kmeans verification compares against a host-side replay, so passing
    // on two systems proves their final accumulators are identical.
    for kind in [
        SystemKind::UnboundedHtm,
        SystemKind::UfoHybrid,
        SystemKind::Tl2,
    ] {
        run_sim(&RunSpec::new(kind, 4), &tiny_kmeans());
    }
}

#[test]
fn makespan_grows_with_offered_work() {
    let small = run_sim(
        &RunSpec::new(SystemKind::UfoHybrid, 2),
        &KmeansParams {
            points: 64,
            dims: 2,
            clusters: 4,
            iterations: 1,
        },
    );
    let large = run_sim(
        &RunSpec::new(SystemKind::UfoHybrid, 2),
        &KmeansParams {
            points: 256,
            dims: 2,
            clusters: 4,
            iterations: 1,
        },
    );
    assert!(large.makespan > small.makespan);
}

#[test]
fn engine_quantum_preserves_results_for_private_workloads() {
    // With a conflict-free workload, batched scheduling must not change the
    // simulated outcome (timing is identical; only host-side batching
    // differs).
    let p = MicroParams {
        txns_per_thread: 50,
        ..MicroParams::with_rate(0.0)
    };
    let exact = micro::run(&RunSpec::new(SystemKind::UfoHybrid, 3), &p);
    let mut spec = RunSpec::new(SystemKind::UfoHybrid, 3);
    spec.quantum = 50;
    let batched = micro::run(&spec, &p);
    assert_eq!(exact.makespan, batched.makespan);
    assert_eq!(exact.hw_commits, batched.hw_commits);
}
