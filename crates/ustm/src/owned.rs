//! A transaction's ownership set: the lines it holds in the otable, and
//! with which permission.

#![expect(
    clippy::disallowed_types,
    reason = "probed by every barrier, so a hash table; hashed with the fixed `IndexBuild` \
              (no per-process seed), pre-sized and kept across transactions so a warm one \
              never allocates, and never iterated: every cycle-charged walk visits the \
              ascending `order` instead"
)]

use std::collections::HashMap;

use ufotm_machine::{IndexBuild, LineAddr};

use crate::otable::Perm;

/// Lines a fresh set holds before its first growth.
const PRESIZE: usize = 64;

/// The ownership set of one USTM handle.
///
/// Releasing a line and demoting it for `retry` charge simulated cycles,
/// so the order of those walks is timing-visible. They visit
/// [`OwnedSet::ascending`], one sort of the lines in acquisition order,
/// which is the order the ordered map this set replaced iterated in.
#[derive(Debug)]
pub(crate) struct OwnedSet {
    perms: HashMap<LineAddr, Perm, IndexBuild>,
    /// Every line of `perms` once, in acquisition order until `ascending`
    /// sorts it.
    order: Vec<LineAddr>,
}

impl OwnedSet {
    pub(crate) fn new() -> Self {
        OwnedSet {
            perms: HashMap::with_capacity_and_hasher(PRESIZE, IndexBuild::default()),
            order: Vec::with_capacity(PRESIZE),
        }
    }

    /// The permission held on `line`, if any.
    pub(crate) fn perm(&self, line: LineAddr) -> Option<Perm> {
        self.perms.get(&line).copied()
    }

    /// Records `perm` on `line`: a first acquisition, or a read → write
    /// upgrade of a line already held.
    pub(crate) fn grant(&mut self, line: LineAddr, perm: Perm) {
        if self.perms.insert(line, perm).is_none() {
            self.order.push(line);
        }
    }

    /// The owned lines, ascending by address.
    pub(crate) fn ascending(&mut self) -> &[LineAddr] {
        self.order.sort_unstable();
        &self.order
    }

    /// [`OwnedSet::ascending`] with each line's permission.
    pub(crate) fn ascending_perms(&mut self) -> impl Iterator<Item = (LineAddr, Perm)> + '_ {
        self.order.sort_unstable();
        let perms = &self.perms;
        self.order.iter().map(move |l| (*l, perms[l]))
    }

    /// Forgets every line, keeping the capacity.
    pub(crate) fn clear(&mut self) {
        self.perms.clear();
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use ufotm_machine::SimRng;

    use super::*;

    /// Random streams of what a USTM handle does to its set, against the
    /// ordered map the set replaced: first reads, re-reads, writes, read →
    /// write upgrades, `retry` demotion walks, commits and kills (a kill
    /// releases like a commit). After every step, membership and
    /// permission of every line and the walk order must agree; a commit or
    /// kill must release in the reference's key order and leave the set
    /// empty. Line numbers are spread so the hash order is not the
    /// ascending one.
    #[test]
    fn owned_set_matches_the_ordered_map_reference() {
        let (seeds, steps) = if cfg!(miri) { (1, 120) } else { (8, 4_000) };
        const LINES: u64 = 200;
        for seed in 0..seeds {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut set = OwnedSet::new();
            let mut model: BTreeMap<LineAddr, Perm> = BTreeMap::new();
            for step in 0..steps {
                let line = LineAddr(rng.gen_range(0..LINES).wrapping_mul(0x9E37_79B9));
                match rng.gen_index(0..10) {
                    // First read or re-read: acquire read only if absent.
                    0..=3 => {
                        if set.perm(line).is_none() {
                            set.grant(line, Perm::Read);
                        }
                        model.entry(line).or_insert(Perm::Read);
                    }
                    // Write: a first acquisition or an upgrade.
                    4..=6 => {
                        if set.perm(line) != Some(Perm::Write) {
                            set.grant(line, Perm::Write);
                        }
                        model.insert(line, Perm::Write);
                    }
                    // `retry` demotion walk: visits every line in order.
                    7 => {
                        let want: Vec<_> = model.iter().map(|(&l, &p)| (l, p)).collect();
                        let got: Vec<_> = set.ascending_perms().collect();
                        assert_eq!(got, want, "seed {seed} step {step}: demotion walk");
                    }
                    // Commit or kill: release every line in order, retire.
                    _ => {
                        let want: Vec<_> = model.keys().copied().collect();
                        assert_eq!(set.ascending(), want, "seed {seed} step {step}: release");
                        set.clear();
                        model.clear();
                    }
                }
                assert_eq!(set.order.len(), model.len(), "seed {seed} step {step}");
                for l in (0..LINES).map(|i| LineAddr(i.wrapping_mul(0x9E37_79B9))) {
                    assert_eq!(
                        set.perm(l),
                        model.get(&l).copied(),
                        "seed {seed} step {step}: {l:?}"
                    );
                }
            }
        }
    }
}
