//! Where threads run. Two findings on a 2-core VM make placement part
//! of the benchmark and not of the scheduler's mood (README.md,
//! "Placement"):
//!
//! * a 2-CPU simulation is several times slower when its threads may run
//!   on both cores, so `run.py` confines the simulator workloads to one;
//! * two native workers fighting over the fast path's shared lines commit
//!   two to three times *more* when the scheduler happens to stack them on
//!   one core, so each native worker pins itself to a core of its own.

use std::process::{Command, Stdio};

/// A field of `/proc/self/status`, e.g. `VmHWM`.
pub fn proc_status(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// The CPUs this process may run on, ascending (`Cpus_allowed_list`,
/// e.g. `0-1,4`); empty if the kernel does not say.
pub fn allowed_cpus() -> Vec<usize> {
    let Some(list) = proc_status("Cpus_allowed_list") else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Pins the calling thread to `cpu` with util-linux `taskset` (the
/// standard library has no affinity call and this workspace has no libc).
/// Returns whether it worked.
pub fn pin_current_thread(cpu: usize) -> bool {
    let Ok(link) = std::fs::read_link("/proc/thread-self") else {
        return false;
    };
    let Some(tid) = link.file_name().and_then(|t| t.to_str()) else {
        return false;
    };
    Command::new("taskset")
        .args(["-p", "-c", &cpu.to_string(), tid])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}
