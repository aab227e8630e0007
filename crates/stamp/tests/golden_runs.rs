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
use ufotm_stamp::harness::{run_sim, RunOutcome, RunSpec};
use ufotm_stamp::{genome, kmeans, ssca2, vacation};

const SEED: u64 = 0x601D_5EED;
const THREADS: usize = 3;
const KINDS: [SystemKind; 6] = [
    SystemKind::UfoHybrid,
    SystemKind::Tl2,
    SystemKind::UstmStrong,
    SystemKind::HyTm,
    SystemKind::PhTm,
    SystemKind::UnboundedHtm,
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
fn check(workload: &str, run: impl Fn(&RunSpec) -> RunOutcome, golden: [(u64, u64); KINDS.len()]) {
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
        |s| run_sim(s, &p),
        [
            (11692, 0x112e_226e_d4ee_526f),
            (33746, 0xf750_2651_3854_16dd),
            (45526, 0x1877_b7c1_b708_00c4),
            (17282, 0xe267_1648_efd0_1457),
            (12474, 0xd14e_6768_95a9_5ded),
            (11692, 0x938d_a7b6_7134_bb88),
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
        |s| run_sim(s, &p),
        [
            (17678, 0x4870_f133_6d51_9a8a),
            (37686, 0x040b_3751_2b4b_ab55),
            (42330, 0x2208_8c88_12cc_bda8),
            (29946, 0x9937_fcb0_31b6_c47b),
            (20672, 0xc4ef_8470_b11f_c0fd),
            (16692, 0x4e98_e327_84df_55c9),
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
        |s| run_sim(s, &p),
        [
            (15704, 0xd0c5_2c96_011b_9c22),
            (60521, 0x287c_aade_f097_2d6b),
            (121_432, 0x0e50_0aeb_7520_673f),
            (39276, 0xda33_2a21_309e_872e),
            (15504, 0x310d_f830_39f8_aeec),
            (15704, 0xd7ab_aa3b_7355_f1e9),
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
        |s| run_sim(s, &p),
        [
            (75970, 0x089a_7217_eb80_76bd),
            (151_882, 0x5b23_e90f_0eaa_d9d3),
            (300_236, 0x2854_7632_c43a_35e3),
            (100_114, 0x81a4_66d1_00c8_7930),
            (84118, 0x472d_9f37_f833_8151),
            (44422, 0x8880_35ce_40b7_d35f),
        ],
    );
}
