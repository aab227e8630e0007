//! Building a Table 4 machine and its shared TM state must cost what a
//! run touches, not what it could touch: the directory (8 MiB), the L2
//! and the TL2 lock table are zero-representable, so they come from
//! zeroed allocations whose pages materialize only on first touch, and the
//! otable builds its bin array at its first insert. An O(memory)
//! initialisation raises the resident set by about 9 MiB, and one written
//! chain `Vec` per otable bin by 390–640 kB; this test fails if either
//! comes back.
//!
//! It is the only test in its binary, so no other test's allocations share
//! the process's resident set while it measures.

#![cfg(target_os = "linux")]

use ufotm_core::{SystemKind, TmShared};
use ufotm_machine::{Machine, MachineConfig};

/// The process's resident set in kB, from `/proc/self/status`.
fn vm_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line in /proc/self/status")
}

#[test]
fn table4_machine_and_shared_state_touch_under_2_mib() {
    let cfg = MachineConfig::table4(8);

    // The shared TM state alone, built and dropped like the worlds below.
    let shared = || TmShared::standard(SystemKind::UfoHybrid, &cfg);
    let before = vm_rss_kb();
    for _ in 0..3 {
        drop(shared());
    }
    let tm = shared();
    let grown = vm_rss_kb().saturating_sub(before);
    assert!(
        grown < 64,
        "building TmShared raised VmRSS by {grown} kB (limit 64 kB): some \
         construction writes in proportion to the otable or lock table"
    );
    drop(tm);

    let build = || {
        (
            Machine::new(cfg.clone()),
            TmShared::standard(SystemKind::UfoHybrid, &cfg),
        )
    };
    let before = vm_rss_kb();
    // A process builds machine after machine (figure cells, seeds, set-up
    // samples): the allocator must not hand the tables of the later ones
    // back from its heap and clear them there.
    for _ in 0..3 {
        drop(build());
    }
    let world = build();
    let grown = vm_rss_kb().saturating_sub(before);
    assert!(
        grown < 2 * 1024,
        "building Table 4 machines and their TmShared raised VmRSS by {grown} kB \
         (limit 2048 kB): some construction writes in proportion to simulated \
         memory or lock-table size"
    );
    drop(world);
}
