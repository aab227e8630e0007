//! World set-up probe: host time and minor page faults per simulated world
//! that runs no transaction, the work the benchmark's `setup_s` times.
//!
//! Each row runs in a fresh child process, as the benchmark's set-up
//! samples do: it builds 101 worlds back to back and prints the median
//! microseconds and the median minor faults (from `/proc/self/stat`) per
//! world. Besides the whole zero-transaction `micro::run`, the parts are
//! built alone, in `run_workload`'s order, to attribute what remains:
//!
//! * `tm` — `TmShared` with the standard layout;
//! * `machine` — the Table 4 `Machine`;
//! * `both` — `TmShared`, then `Machine`, dropped together;
//! * `engine` — `both`, run by `Sim::run` with one empty body per CPU;
//! * `world` — `micro::run` with zero transactions per thread.
//!
//! It prints and checks nothing; faults read 0 where `/proc` is absent.
//!
//! ```sh
//! cargo run --release --example world_setup
//! ```

#![expect(
    clippy::disallowed_types,
    reason = "a host-time probe: it times world construction with the host clock, and \
              nothing it measures feeds a simulated result"
)]

use std::io::Read;
use std::process::Command;
use std::time::Instant;

use ufotm::prelude::*;
use ufotm::stamp::micro::{self, MicroParams};

/// Worlds built per row (the benchmark's set-up sample count).
const WORLDS: usize = 101;

const PARTS: [&str; 5] = ["tm", "machine", "both", "engine", "world"];

/// This process's minor page faults so far (field 10 of
/// `/proc/self/stat`), read into a stack buffer so that reading it
/// allocates nothing.
fn minor_faults() -> u64 {
    let mut buf = [0u8; 1024];
    let Ok(mut f) = std::fs::File::open("/proc/self/stat") else {
        return 0;
    };
    let n = f.read(&mut buf).unwrap_or(0);
    let stat = std::str::from_utf8(&buf[..n]).unwrap_or("");
    // The command name (field 2) may hold spaces; fields after it start
    // at the last ')' with field 3.
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(10 - 3))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn kind_of(name: &str) -> SystemKind {
    match name {
        "UfoHybrid" => SystemKind::UfoHybrid,
        "Tl2" => SystemKind::Tl2,
        _ => panic!("unknown system {name}"),
    }
}

/// Builds (and drops) one world of the given part.
fn build(part: &str, kind: SystemKind, cpus: usize) {
    let cfg = MachineConfig::table4(cpus);
    match part {
        "tm" => drop(TmShared::standard(kind, &cfg)),
        "machine" => drop(Machine::new(cfg)),
        "both" => {
            let tm = TmShared::standard(kind, &cfg);
            drop((tm, Machine::new(cfg)));
        }
        "engine" => {
            let tm = TmShared::standard(kind, &cfg);
            let bodies = (0..cpus)
                .map(|_| -> ThreadFn<TmShared> { Box::new(|_| {}) })
                .collect();
            drop(Sim::new(Machine::new(cfg), tm).run(bodies));
        }
        "world" => {
            let params = MicroParams {
                txns_per_thread: 0,
                ..MicroParams::with_rate(0.1)
            };
            drop(micro::run(&RunSpec::new(kind, cpus), &params));
        }
        _ => panic!("unknown part {part}"),
    }
}

/// One row, in this (fresh) process: median µs and median faults.
fn row(part: &str, kind: &str, cpus: usize) {
    let kind = kind_of(kind);
    let mut us = Vec::with_capacity(WORLDS);
    let mut faults = Vec::with_capacity(WORLDS);
    for _ in 0..WORLDS {
        let f0 = minor_faults();
        let t0 = Instant::now();
        build(part, kind, cpus);
        us.push(t0.elapsed().as_secs_f64() * 1e6);
        faults.push(minor_faults() - f0);
    }
    us.sort_by(f64::total_cmp);
    faults.sort_unstable();
    println!("{:.1} {}", us[WORLDS / 2], faults[WORLDS / 2]);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [part, kind, cpus] = args.as_slice() {
        row(part, kind, cpus.parse().expect("cpu count"));
        return;
    }
    let exe = std::env::current_exe().expect("own executable");
    println!("median per world of {WORLDS}, each row in a fresh process");
    println!(
        "{:<10} {:>4}  {:<8} {:>9} {:>7}",
        "system", "cpus", "part", "µs", "faults"
    );
    for kind in ["UfoHybrid", "Tl2"] {
        for cpus in [1usize, 2] {
            for part in PARTS {
                let out = Command::new(&exe)
                    .args([part, kind, &cpus.to_string()])
                    .output()
                    .expect("run a probe row");
                assert!(
                    out.status.success(),
                    "probe row {part} {kind} {cpus} failed"
                );
                let line = String::from_utf8_lossy(&out.stdout);
                let (us, faults) = line.trim().split_once(' ').expect("two fields");
                println!("{kind:<10} {cpus:>4}  {part:<8} {us:>9} {faults:>7}");
            }
        }
    }
}
