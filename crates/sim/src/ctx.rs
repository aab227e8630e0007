//! The per-thread execution context.
//!
//! The designated runner's `Ctx` owns the [`World`]: operations run against
//! it with no lock, and it moves through the scheduler only at a handoff.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use ufotm_machine::{AbortInfo, AccessResult, Addr, BtmEvent, BtmStatus, CpuId, UfoBits};

use crate::engine::{HandoffMode, Shared, World};

/// How many times the runner-up yields its core, waiting for its turn,
/// before it parks on its condvar. A yield hands the core to the runner
/// (one syscall, no sleep); the cap bounds the wait of a runner-up whose
/// turn is far off, e.g. behind a long stretch of the runner's work.
const YIELD_BUDGET: u32 = 64;

/// Handle through which a logical thread executes operations on its CPU.
///
/// Each method runs exactly one *scheduled operation*: the thread blocks
/// until the lockstep scheduler designates it (its CPU has the smallest
/// clock), executes against the shared [`World`], and returns. Compound
/// closures passed to [`Ctx::with`] execute atomically at the thread's
/// current simulated time — use them for software metadata manipulation
/// (e.g. an otable update under its chain lock), not for long stretches of
/// simulated work.
pub struct Ctx<U> {
    cpu: CpuId,
    shared: Arc<Shared<U>>,
    /// The world, held exactly while this thread is the designated runner:
    /// operations then run against it directly, with no lock.
    world: Option<Box<World<U>>>,
    /// Valid only while designated: the runner may keep executing without
    /// a handoff while its clock is ≤ this.
    limit: u64,
}

impl<U> Ctx<U> {
    pub(crate) fn new(cpu: CpuId, shared: Arc<Shared<U>>) -> Self {
        Ctx {
            cpu,
            shared,
            world: None,
            limit: 0,
        }
    }

    /// The CPU this thread runs on.
    #[must_use]
    pub fn cpu(&self) -> CpuId {
        self.cpu
    }

    /// Waits until the scheduler designates this thread, then takes the
    /// parked world in the same critical section and caches the limit.
    /// The runner-up (the thread the next handoff most likely designates)
    /// first yields its core while its turn has not come, at most
    /// [`YIELD_BUDGET`] times; then, and for every other waiter at once,
    /// it sleeps on its private condvar, flagged `parked` so the handoff
    /// that designates it knows to wake it.
    #[cold]
    fn wait_for_turn(&mut self) -> Box<World<U>> {
        let me = self.cpu;
        let sh = &*self.shared;
        if sh.mode == HandoffMode::Targeted {
            let next_in_line = || {
                sh.turn.load(Ordering::Relaxed) != me && sh.next_up.load(Ordering::Relaxed) == me
            };
            for _ in 0..YIELD_BUDGET {
                if !next_in_line() {
                    break;
                }
                std::thread::yield_now();
            }
        }
        let mut sched = sh.sched.lock().expect("engine mutex poisoned");
        while sched.current != me {
            sched.parked[me] = true;
            sched = sh.cvs[me].wait(sched).expect("engine mutex poisoned");
            sched.parked[me] = false;
        }
        self.limit = sched.limit;
        let world = sched.world.take();
        // Panic (if at all) after releasing the lock, so this thread's
        // FinishGuard can still hand off and the next peer fails fast too.
        drop(sched);
        world.expect("engine world poisoned: a thread panicked inside Ctx::with")
    }

    /// Hands off after the clock reached `now` (> `limit`). The scheduler
    /// may re-designate this same thread (it is still the minimum), in
    /// which case only the cached limit is refreshed, the world stays here
    /// and nobody is woken; otherwise the world is parked for the next
    /// runner before the lock is released.
    #[cold]
    fn yield_turn(&mut self, now: u64, world: Box<World<U>>) {
        let mut sched = self.shared.sched.lock().expect("engine mutex poisoned");
        let next = sched.handoff(self.cpu, now);
        if next == self.cpu {
            self.limit = sched.limit;
            self.world = Some(world);
        } else {
            sched.world = Some(world);
            self.shared.hand_to(sched, next);
        }
    }

    /// Executes one scheduled operation against the world.
    ///
    /// # Panics
    ///
    /// Panics if another thread panicked inside its `with` closure (that
    /// destroys the world, and every peer fails fast at its next turn), or
    /// if the clock passes the armed cycle limit.
    pub fn with<R>(&mut self, f: impl FnOnce(&mut World<U>) -> R) -> R {
        // Held in a local, not in `self`, while `f` runs: a panic inside the
        // closure drops the world instead of parking it for a peer.
        let mut world = match self.world.take() {
            Some(world) => world,
            None => self.wait_for_turn(),
        };
        let r = f(&mut world);
        let now = world.machine.now(self.cpu);
        if let Some(cap) = self.shared.cycle_limit {
            assert!(
                now <= cap,
                "cycle limit exceeded: cpu {} reached {} > {} — \
                 likely a livelock or deadlock in the protocol under test",
                self.cpu,
                now,
                cap
            );
        }
        if now > self.limit {
            self.yield_turn(now, world);
        } else {
            self.world = Some(world);
        }
        r
    }

    // --- Machine conveniences -------------------------------------------

    /// This CPU's local clock.
    pub fn now(&mut self) -> u64 {
        let cpu = self.cpu;
        self.with(|w| w.machine.now(cpu))
    }

    /// Loads a word (see [`Machine::load`](ufotm_machine::Machine::load)).
    ///
    /// # Errors
    ///
    /// Propagates the machine's access errors (UFO fault, nack, abort).
    pub fn load(&mut self, addr: Addr) -> AccessResult<u64> {
        let cpu = self.cpu;
        self.with(|w| w.machine.load(cpu, addr))
    }

    /// Stores a word (see [`Machine::store`](ufotm_machine::Machine::store)).
    ///
    /// # Errors
    ///
    /// Propagates the machine's access errors (UFO fault, nack, abort).
    pub fn store(&mut self, addr: Addr, value: u64) -> AccessResult<()> {
        let cpu = self.cpu;
        self.with(|w| w.machine.store(cpu, addr, value))
    }

    /// Charges computation cycles.
    ///
    /// # Errors
    ///
    /// Surfaces a pending transaction doom.
    pub fn work(&mut self, cycles: u64) -> AccessResult<()> {
        let cpu = self.cpu;
        self.with(|w| w.machine.work(cpu, cycles))
    }

    /// Charges stall cycles (tracked separately in the stats).
    ///
    /// # Errors
    ///
    /// Surfaces a pending transaction doom.
    pub fn stall(&mut self, cycles: u64) -> AccessResult<()> {
        let cpu = self.cpu;
        self.with(|w| w.machine.stall(cpu, cycles))
    }

    /// Begins (or nests) a BTM transaction.
    ///
    /// # Errors
    ///
    /// Propagates aborts (pending doom, nesting-depth overflow).
    pub fn btm_begin(&mut self) -> AccessResult<()> {
        let cpu = self.cpu;
        self.with(|w| w.machine.btm_begin(cpu))
    }

    /// Commits the innermost BTM transaction.
    ///
    /// # Errors
    ///
    /// Propagates aborts discovered at commit.
    pub fn btm_end(&mut self) -> AccessResult<()> {
        let cpu = self.cpu;
        self.with(|w| w.machine.btm_end(cpu))
    }

    /// Explicitly aborts the current BTM transaction.
    pub fn btm_abort(&mut self) -> AbortInfo {
        let cpu = self.cpu;
        self.with(|w| w.machine.btm_abort(cpu))
    }

    /// Aborts the current BTM transaction with a supplied reason.
    pub fn btm_abort_with(&mut self, info: AbortInfo) -> AbortInfo {
        let cpu = self.cpu;
        self.with(|w| w.machine.btm_abort_with(cpu, info))
    }

    /// Raises a transactional event (syscall, I/O, …).
    ///
    /// # Errors
    ///
    /// Aborts the current transaction, if any.
    pub fn btm_event(&mut self, event: BtmEvent) -> AccessResult<()> {
        let cpu = self.cpu;
        self.with(|w| w.machine.btm_event(cpu, event))
    }

    /// Reads the transactional status registers.
    pub fn btm_status(&mut self) -> BtmStatus {
        let cpu = self.cpu;
        self.with(|w| w.machine.btm_status(cpu))
    }

    /// Enables/disables UFO fault delivery for this CPU.
    pub fn set_ufo_enabled(&mut self, enabled: bool) {
        let cpu = self.cpu;
        self.with(|w| w.machine.set_ufo_enabled(cpu, enabled));
    }

    /// Sets a line's UFO bits.
    ///
    /// # Errors
    ///
    /// Propagates the machine's errors (illegal inside a BTM transaction).
    pub fn set_ufo_bits(&mut self, addr: Addr, bits: UfoBits) -> AccessResult<()> {
        let cpu = self.cpu;
        self.with(|w| w.machine.set_ufo_bits(cpu, addr, bits))
    }

    /// ORs bits into a line's UFO bits.
    ///
    /// # Errors
    ///
    /// Propagates the machine's errors (illegal inside a BTM transaction).
    pub fn add_ufo_bits(&mut self, addr: Addr, bits: UfoBits) -> AccessResult<()> {
        let cpu = self.cpu;
        self.with(|w| w.machine.add_ufo_bits(cpu, addr, bits))
    }

    /// Reads a line's UFO bits.
    ///
    /// # Errors
    ///
    /// Surfaces a pending transaction doom.
    pub fn read_ufo_bits(&mut self, addr: Addr) -> AccessResult<UfoBits> {
        let cpu = self.cpu;
        self.with(|w| w.machine.read_ufo_bits(cpu, addr))
    }
}

impl<U> Drop for Ctx<U> {
    /// Parks the world this runner holds, for its `FinishGuard` to hand
    /// off. (A world dropped by a panic inside `with` is not here.)
    fn drop(&mut self) {
        if let Some(world) = self.world.take() {
            // A poisoned sched mutex means the simulation is unwinding; the
            // world no longer matters.
            if let Ok(mut sched) = self.shared.sched.lock() {
                sched.world = Some(world);
            }
        }
    }
}

impl<U> std::fmt::Debug for Ctx<U> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("cpu", &self.cpu)
            .field("designated", &self.world.is_some())
            .finish_non_exhaustive()
    }
}
