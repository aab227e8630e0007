//! Golden simulated runs: every STAMP workload's makespan and full run
//! report, pinned across commits.
//!
//! Simulated runs replay bit-for-bit from a seed, so a refactor that only
//! moves *who calls what* must leave every `(makespan, report)` pair below
//! untouched; any change to an operation stream, an ordering or a cycle
//! charge moves at least one of them. The report is pinned as the FNV-1a
//! hash of [`RunReport::to_json`](ufotm_core::RunReport::to_json), which
//! is byte-deterministic by construction.
//!
//! Parameters are each workload module's unit-test `tiny()` values; the
//! seed and thread count are fixed here. If a change *means* to alter
//! simulated timing, re-record the table in the same commit and say why.

use ufotm_core::SystemKind;
use ufotm_stamp::harness::{RunOutcome, RunSpec};
use ufotm_stamp::{genome, kmeans, ssca2, vacation};

const SEED: u64 = 0x601D_5EED;
const THREADS: usize = 3;
const KINDS: [SystemKind; 3] = [
    SystemKind::UfoHybrid,
    SystemKind::Tl2,
    SystemKind::UstmStrong,
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn spec(kind: SystemKind) -> RunSpec {
    let mut spec = RunSpec::new(kind, THREADS);
    spec.seed = SEED;
    spec
}

/// Runs `run` on each pinned system and compares against `golden`
/// (`(makespan, report hash)` in [`KINDS`] order).
fn check(workload: &str, run: impl Fn(&RunSpec) -> RunOutcome, golden: [(u64, u64); 3]) {
    let got: Vec<(u64, u64)> = KINDS
        .iter()
        .map(|&kind| {
            let out = run(&spec(kind));
            (out.makespan, fnv1a(out.report.to_json().as_bytes()))
        })
        .collect();
    let shown: Vec<String> = got
        .iter()
        .map(|(m, h)| format!("({m}, {h:#018x})"))
        .collect();
    assert_eq!(
        got,
        golden.to_vec(),
        "{workload}: simulated (makespan, report hash) moved for {KINDS:?} — \
         got [{}]",
        shown.join(", ")
    );
}

#[test]
fn kmeans_golden() {
    let p = kmeans::KmeansParams {
        points: 96,
        dims: 2,
        clusters: 4,
        iterations: 2,
    };
    check(
        "kmeans",
        |s| kmeans::run(s, &p),
        [
            (11692, 0x3859_04b4_3155_8294),
            (33746, 0xe808_b0da_837c_b2fa),
            (45526, 0x2b4d_7a1e_ebeb_784d),
        ],
    );
}

#[test]
fn ssca2_golden() {
    let p = ssca2::Ssca2Params {
        nodes: 32,
        edges: 120,
    };
    check(
        "ssca2",
        |s| ssca2::run(s, &p),
        [
            (17678, 0xa5ff_1821_7f2b_843b),
            (37686, 0xdf57_36d1_b8de_3124),
            (42330, 0xa4bf_4e03_d06a_51af),
        ],
    );
}

#[test]
fn vacation_golden() {
    let p = vacation::VacationParams {
        relations: 64,
        id_space: 128,
        queries: 6,
        query_range_pct: 50,
        reserve_pct: 90,
        total_tasks: 30,
        customers: 16,
    };
    check(
        "vacation",
        |s| vacation::run(s, &p),
        [
            (15704, 0xe794_6d9b_e06d_2987),
            (60521, 0x84db_cd9f_a90d_ce26),
            (121_432, 0x5d4b_ba41_c0f4_6d50),
        ],
    );
}

#[test]
fn genome_golden() {
    let p = genome::GenomeParams {
        segments: 80,
        segment_space: 1 << 30,
        buckets: 32,
    };
    check(
        "genome",
        |s| genome::run(s, &p),
        [
            (75970, 0xcad0_4c8c_74bc_98dc),
            (151_882, 0x3e91_e436_af02_661c),
            (300_236, 0x5aba_c366_6eea_2bf4),
        ],
    );
}
