//! The watchdog's last tier is the eldest software transaction: it is
//! isolated by ownership, and nobody is stopped for it. An offset sweep
//! lands a second CPU's transaction at every point of the serial window —
//! before it, on its begin, inside the body, on its commit — and checks
//! that no update is lost at any offset and that some offsets really do
//! overlap (so the first check is not vacuous).

use ufotm_core::{audit_log, HybridPolicy, SystemKind, TmShared, TmThread, TraceEvent, TraceKind};
use ufotm_machine::{Addr, Machine, MachineConfig};
use ufotm_sim::{Ctx, Sim, SimResult, ThreadFn};

const X: Addr = Addr(0);
const Y: Addr = Addr(4096);

/// A watchdog that escalates a software attempt to the serial tier after
/// `kills` kills: 0 is "at once", `u32::MAX` is "armed, but never".
fn escalate_after(kills: u32) -> HybridPolicy {
    HybridPolicy {
        watchdog_sw_kills: Some(kills),
        ..HybridPolicy::default()
    }
}

/// CPU 0 increments `X` on the serial tier around 3 000 cycles of work;
/// CPU 1 runs `other` after stalling `k` cycles. With `warm`, both first
/// read `X` in a transaction of their own, so the measured ones hit warm
/// caches and metadata.
fn run(
    kind: SystemKind,
    k: u64,
    warm: bool,
    other: fn(&mut TmThread, &mut Ctx<TmShared>),
) -> SimResult<TmShared> {
    let cfg = MachineConfig::table4(2);
    let mut shared = TmShared::standard(kind, &cfg);
    shared.trace.enable(4096);
    let warm_up = move |t: &mut TmThread, ctx: &mut Ctx<TmShared>| {
        if warm {
            t.transaction(ctx, |tx, ctx| tx.read(ctx, X));
        }
    };
    Sim::new(Machine::new(cfg), shared).run(vec![
        Box::new(move |ctx: &mut Ctx<TmShared>| {
            // The warm-up stays off the serial tier: one window per run.
            let mut t = TmThread::with_policy(kind, 0, escalate_after(u32::MAX));
            t.install(ctx);
            warm_up(&mut t, ctx);
            let mut t = TmThread::with_policy(kind, 0, escalate_after(0));
            t.transaction(ctx, |tx, ctx| {
                tx.force_failover(ctx)?;
                let v = tx.read(ctx, X)?;
                tx.work(ctx, 3_000)?;
                tx.write(ctx, X, v + 1)
            });
        }) as ThreadFn<TmShared>,
        Box::new(move |ctx: &mut Ctx<TmShared>| {
            let mut t = TmThread::with_policy(kind, 1, escalate_after(u32::MAX));
            t.install(ctx);
            warm_up(&mut t, ctx);
            ctx.stall(k).unwrap();
            other(&mut t, ctx);
        }) as ThreadFn<TmShared>,
    ])
}

/// CPU 0's serial window: the cycles of its `serial-irrevocable` entry and
/// of the `plain-commit` that closes it.
fn serial_window(events: &[TraceEvent]) -> (u64, u64) {
    let at = |kind| {
        events
            .iter()
            .find(|e| e.cpu == 0 && e.kind == kind)
            .unwrap_or_else(|| panic!("cpu 0 journaled no {kind}"))
            .cycle
    };
    (at(TraceKind::SerialIrrevocable), at(TraceKind::PlainCommit))
}

/// Whether CPU 1 journaled `kind` strictly inside CPU 0's serial window.
fn lands_inside(r: &SimResult<TmShared>, kind: TraceKind) -> bool {
    let (open, close) = serial_window(r.shared.trace.events());
    r.shared
        .trace
        .for_cpu(1)
        .any(|e| e.kind == kind && open < e.cycle && e.cycle < close)
}

#[test]
fn software_increment_at_every_offset_of_the_serial_window_is_not_lost() {
    for warm in [false, true] {
        let mut overlapping = 0;
        for k in (0..6_000).step_by(25) {
            let r = run(SystemKind::UstmStrong, k, warm, |t, ctx| {
                t.transaction(ctx, |tx, ctx| {
                    let v = tx.read(ctx, X)?;
                    tx.write(ctx, X, v + 1)
                });
            });
            let label = format!("warm {warm}, offset {k}");
            assert_eq!(r.machine.peek(X), 2, "{label}: lost update");
            assert_eq!(r.shared.stats.serial_commits, 1, "{label}");
            let audit = audit_log(&r.shared.trace);
            assert!(audit.is_clean(), "{label}: {:?}", audit.violations);
            overlapping += u32::from(lands_inside(&r, TraceKind::SwBegin));
        }
        assert!(
            overlapping > 0,
            "warm {warm}: no offset began a software transaction inside the \
             serial window — nobody was running beside it"
        );
    }
}

#[test]
fn hardware_commit_on_a_disjoint_line_lands_inside_the_serial_window() {
    let mut inside = 0;
    for k in (0..4_000).step_by(250) {
        let r = run(SystemKind::UfoHybrid, k, false, |t, ctx| {
            t.transaction(ctx, |tx, ctx| {
                let v = tx.read(ctx, Y)?;
                tx.write(ctx, Y, v + 1)
            });
        });
        assert_eq!(r.machine.peek(X), 1, "offset {k}");
        assert_eq!(r.machine.peek(Y), 1, "offset {k}");
        assert_eq!(r.shared.stats.serial_commits, 1, "offset {k}");
        assert_eq!(r.shared.stats.hw_commits, 1, "offset {k}");
        audit_log(&r.shared.trace).assert_clean();
        inside += u32::from(lands_inside(&r, TraceKind::HwCommit));
    }
    assert!(
        inside > 0,
        "no hardware commit landed inside the serial window"
    );
}
