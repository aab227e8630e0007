//! Seed-sweep tests of the machine model: random operation sequences
//! must match a simple reference memory, and internal cache/directory/BTM
//! invariants must hold at every step. Failures print the seed; replay
//! with `CHAOS_SEED=<n>`.

#![expect(
    clippy::disallowed_types,
    reason = "the reference model is a lookup table; its one sweep (merging an overlay \
              at commit) writes distinct keys, so its order cannot show"
)]

use std::collections::HashMap;

use ufotm_machine::{
    AccessError, Addr, BtmEvent, Machine, MachineConfig, SimRng, SwapConfig, UfoBits,
};
use ufotm_sim::{for_each_seed, seed_count};

/// One scripted operation.
#[derive(Clone, Debug)]
enum Op {
    Load { cpu: usize, word: u64 },
    Store { cpu: usize, word: u64, value: u64 },
    Begin { cpu: usize },
    End { cpu: usize },
    Abort { cpu: usize },
    Work { cpu: usize, cycles: u64 },
    SetUfo { cpu: usize, word: u64, bits: u8 },
    Event { cpu: usize },
    EnableUfo { cpu: usize, on: bool },
}

/// Draws one op with the same weights the old proptest strategy used
/// (loads/stores 4, begin/end 2, everything else 1).
fn gen_op(rng: &mut SimRng, cpus: usize, words: u64) -> Op {
    let cpu = rng.gen_index(0..cpus);
    match rng.gen_range(0..17) {
        0..=3 => Op::Load {
            cpu,
            word: rng.gen_range(0..words),
        },
        4..=7 => Op::Store {
            cpu,
            word: rng.gen_range(0..words),
            value: rng.next_u64(),
        },
        8..=9 => Op::Begin { cpu },
        10..=11 => Op::End { cpu },
        12 => Op::Abort { cpu },
        13 => Op::Work {
            cpu,
            cycles: rng.gen_range(0..200),
        },
        14 => Op::SetUfo {
            cpu,
            word: rng.gen_range(0..words),
            bits: rng.gen_range(0..4) as u8,
        },
        15 => Op::Event { cpu },
        _ => Op::EnableUfo {
            cpu,
            on: rng.gen_bool(0.5),
        },
    }
}

fn gen_script(rng: &mut SimRng, cpus: usize, words: u64, max_len: usize) -> Vec<Op> {
    let len = rng.gen_index(1..max_len);
    (0..len).map(|_| gen_op(rng, cpus, words)).collect()
}

/// A reference model: committed memory plus per-CPU transactional overlays.
#[derive(Default)]
struct Reference {
    mem: HashMap<u64, u64>,
    /// Per-CPU speculative overlay while its txn is live.
    overlay: Vec<Option<HashMap<u64, u64>>>,
}

impl Reference {
    fn new(cpus: usize) -> Self {
        Reference {
            mem: HashMap::new(),
            overlay: vec![None; cpus],
        }
    }

    fn read(&self, cpu: usize, word: u64) -> u64 {
        if let Some(Some(ov)) = self.overlay.get(cpu) {
            if let Some(&v) = ov.get(&word) {
                return v;
            }
        }
        self.mem.get(&word).copied().unwrap_or(0)
    }

    fn write(&mut self, cpu: usize, word: u64, value: u64) {
        match &mut self.overlay[cpu] {
            Some(ov) => {
                ov.insert(word, value);
            }
            None => {
                self.mem.insert(word, value);
            }
        }
    }

    fn begin(&mut self, cpu: usize) {
        if self.overlay[cpu].is_none() {
            self.overlay[cpu] = Some(HashMap::new());
        }
    }

    fn commit(&mut self, cpu: usize) {
        if let Some(ov) = self.overlay[cpu].take() {
            self.mem.extend(ov);
        }
    }

    fn abort(&mut self, cpu: usize) {
        self.overlay[cpu] = None;
    }
}

/// Runs a script against the machine and the reference in lockstep. BTM
/// nesting is flattened by tracking depth host-side; any machine-reported
/// abort resets the overlay.
fn check_script(mut m: Machine, ops: Vec<Op>) {
    let cpus = m.cpus();
    let mut reference = Reference::new(cpus);
    let mut depth = vec![0u32; cpus];
    for op in ops {
        match op {
            Op::Load { cpu, word } => {
                match m.load(cpu, Addr::from_word_index(word)) {
                    Ok(v) => {
                        assert_eq!(
                            v,
                            reference.read(cpu, word),
                            "load divergence at word {word}"
                        );
                    }
                    Err(AccessError::TxnAbort(_)) => {
                        reference.abort(cpu);
                        depth[cpu] = 0;
                    }
                    Err(AccessError::Nacked) => { /* retryable; skip */ }
                    Err(AccessError::UfoFault { .. }) => { /* not performed */ }
                }
            }
            Op::Store { cpu, word, value } => {
                match m.store(cpu, Addr::from_word_index(word), value) {
                    Ok(()) => reference.write(cpu, word, value),
                    Err(AccessError::TxnAbort(_)) => {
                        reference.abort(cpu);
                        depth[cpu] = 0;
                    }
                    Err(AccessError::Nacked) => {}
                    Err(AccessError::UfoFault { .. }) => {}
                }
            }
            Op::Begin { cpu } => match m.btm_begin(cpu) {
                Ok(()) => {
                    if depth[cpu] == 0 {
                        reference.begin(cpu);
                    }
                    depth[cpu] += 1;
                }
                Err(AccessError::TxnAbort(_)) => {
                    reference.abort(cpu);
                    depth[cpu] = 0;
                }
                Err(e) => panic!("begin: {e}"),
            },
            Op::End { cpu } => {
                if depth[cpu] == 0 {
                    continue; // no txn to end
                }
                match m.btm_end(cpu) {
                    Ok(()) => {
                        depth[cpu] -= 1;
                        if depth[cpu] == 0 {
                            reference.commit(cpu);
                        }
                    }
                    Err(AccessError::TxnAbort(_)) => {
                        reference.abort(cpu);
                        depth[cpu] = 0;
                    }
                    Err(e) => panic!("end: {e}"),
                }
            }
            Op::Abort { cpu } => {
                if depth[cpu] > 0 {
                    m.btm_abort(cpu);
                    reference.abort(cpu);
                    depth[cpu] = 0;
                }
            }
            Op::Work { cpu, cycles } => {
                if m.work(cpu, cycles).is_err() {
                    reference.abort(cpu);
                    depth[cpu] = 0;
                }
            }
            Op::SetUfo { cpu, word, bits } => {
                match m.set_ufo_bits(cpu, Addr::from_word_index(word), UfoBits::from_raw(bits)) {
                    Ok(()) => {}
                    Err(AccessError::TxnAbort(_)) => {
                        reference.abort(cpu);
                        depth[cpu] = 0;
                    }
                    Err(e) => panic!("set_ufo: {e}"),
                }
            }
            Op::Event { cpu } => {
                if m.btm_event(cpu, BtmEvent::Syscall).is_err() {
                    reference.abort(cpu);
                    depth[cpu] = 0;
                }
            }
            Op::EnableUfo { cpu, on } => m.set_ufo_enabled(cpu, on),
        }
        m.debug_validate();
    }
    // Drain all live transactions, then compare full memory.
    for (cpu, &d) in depth.iter().enumerate().take(cpus) {
        if d > 0 {
            m.btm_abort(cpu);
            reference.abort(cpu);
        }
    }
    m.debug_validate();
    for word in 0..64u64 {
        assert_eq!(
            m.peek(Addr::from_word_index(word)),
            reference.read(usize::MAX - 1, word).to_owned(),
            "final memory divergence at word {word}"
        );
    }
}

#[test]
fn machine_matches_reference_model() {
    for_each_seed(0, seed_count(24), |seed| {
        let mut rng = SimRng::seed_from_u64(seed);
        let ops = gen_script(&mut rng, 3, 64, 120);
        let mut cfg = MachineConfig::small(3);
        cfg.timer_quantum = Some(5_000);
        check_script(Machine::new(cfg), ops);
    });
}

#[test]
fn machine_matches_reference_model_unbounded() {
    for_each_seed(1000, seed_count(24), |seed| {
        let mut rng = SimRng::seed_from_u64(seed);
        let ops = gen_script(&mut rng, 2, 64, 120);
        check_script(Machine::new(MachineConfig::small(2).unbounded()), ops);
    });
}

#[test]
fn machine_matches_reference_model_with_paging() {
    for_each_seed(2000, seed_count(24), |seed| {
        let mut rng = SimRng::seed_from_u64(seed);
        let ops = gen_script(&mut rng, 2, 64, 80);
        let mut m = Machine::new(MachineConfig::small(2));
        m.enable_swap(SwapConfig {
            max_resident_pages: 2,
        });
        check_script(m, ops);
    });
}

#[test]
fn reference_overlay_semantics() {
    let mut r = Reference::new(1);
    r.write(0, 1, 10);
    r.begin(0);
    r.write(0, 1, 20);
    assert_eq!(r.read(0, 1), 20);
    r.abort(0);
    assert_eq!(r.read(0, 1), 10);
    r.begin(0);
    r.write(0, 1, 30);
    r.commit(0);
    assert_eq!(r.read(0, 1), 30);
}
