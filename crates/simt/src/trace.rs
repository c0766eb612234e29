//! Concrete execution traces: the soundness oracle for the abstract
//! interpreter in `ggpu-lint`.
//!
//! When a trace is attached ([`crate::Gpu::launch_traced`]), the
//! scheduler calls the wave engine's read-only `observe` hook
//! immediately before every issue. The hook replays the engine's own
//! issue-set selection without mutating anything and records, per
//! program counter:
//!
//! * the address interval actually touched (all issued lanes, even
//!   lanes past the first faulting one — the abstract state must
//!   cover would-be accesses too);
//! * whether any lane was out of bounds or unaligned;
//! * whether a local store raced: two lanes of the *completing
//!   prefix* (the lanes the simulator architecturally commits before
//!   faulting, in ascending order) wrote different values to one
//!   word;
//! * whether a branch issue had mixed outcomes (lane divergence).
//!
//! The property suite (`tests/prop_absint_soundness.rs`) then checks
//! that every abstract prediction over-approximates these
//! observations, on both the scalar and the SoA backend — whose
//! traces must also be identical to each other.

/// Observed facts about one instruction (indexed by program counter).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InstTrace {
    /// Wavefront issues observed at this PC (memory and branch
    /// instructions only).
    pub issues: u64,
    /// Any memory access was observed here.
    pub any_access: bool,
    /// Lowest byte address any lane computed (valid iff `any_access`).
    pub min_addr: u32,
    /// Highest byte address any lane computed (valid iff `any_access`).
    pub max_addr: u32,
    /// Some lane's word index was past the memory bound.
    pub any_oob: bool,
    /// Some lane's address was not word-aligned.
    pub any_unaligned: bool,
    /// Two lanes of one completing issue wrote different values to
    /// the same local word.
    pub racy_write: bool,
    /// Some branch issue had both taken and not-taken lanes.
    pub divergent_branch: bool,
}

/// A whole-launch execution trace; start from `ExecTrace::default()`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecTrace {
    /// Per-PC observations; grows on demand.
    pub insts: Vec<InstTrace>,
}

impl ExecTrace {
    /// The observation slot for `pc`, if anything was recorded there.
    pub fn at(&self, pc: usize) -> Option<&InstTrace> {
        self.insts.get(pc)
    }

    fn entry(&mut self, pc: usize) -> &mut InstTrace {
        if self.insts.len() <= pc {
            self.insts.resize(pc + 1, InstTrace::default());
        }
        // Just resized to cover `pc`; direct indexing would be
        // panic-safe but the lint forbids the idiom in lib code.
        match self.insts.get_mut(pc) {
            Some(e) => e,
            None => unreachable!(),
        }
    }

    /// Records one observed memory issue. `lanes` holds `(address,
    /// stored value)` pairs in ascending lane order for every issued
    /// lane (`value` is ignored for loads); `bound_words` is the word
    /// count of the accessed memory.
    pub fn record_access(
        &mut self,
        pc: usize,
        local: bool,
        is_store: bool,
        lanes: &[(u32, u32)],
        bound_words: usize,
    ) {
        if lanes.is_empty() {
            return;
        }
        let t = self.entry(pc);
        t.issues += 1;

        // Address interval and fault flags cover every issued lane:
        // the abstract address must contain even the accesses the
        // fault at an earlier lane prevented.
        let mut completing = lanes.len();
        for (i, &(addr, _)) in lanes.iter().enumerate() {
            if t.any_access {
                t.min_addr = t.min_addr.min(addr);
                t.max_addr = t.max_addr.max(addr);
            } else {
                t.any_access = true;
                t.min_addr = addr;
                t.max_addr = addr;
            }
            let unaligned = addr % 4 != 0;
            let oob = (addr / 4) as usize >= bound_words;
            t.any_unaligned |= unaligned;
            t.any_oob |= oob;
            if (unaligned || oob) && i < completing {
                completing = i;
            }
        }

        if local && is_store {
            // Race: two committed writes to one word with different
            // values. Same-value collisions are order-insensitive and
            // benign — exactly the K012 contract. Only the completing
            // prefix commits: the simulator visits lanes in ascending
            // order and faults at the first bad one.
            let done = &lanes[..completing];
            let mut words: Vec<(u32, u32)> = Vec::with_capacity(done.len());
            for &(addr, value) in done {
                let w = addr / 4;
                match words.iter().find(|&&(pw, _)| pw == w) {
                    Some(&(_, pv)) => t.racy_write |= pv != value,
                    None => words.push((w, value)),
                }
            }
        }
    }

    /// Records one observed branch issue.
    pub fn record_branch(&mut self, pc: usize, any_taken: bool, any_not_taken: bool) {
        let t = self.entry(pc);
        t.issues += 1;
        t.divergent_branch |= any_taken && any_not_taken;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_and_fault_flags_cover_all_lanes() {
        let mut t = ExecTrace::default();
        // Lane 1 is unaligned; lane 2's address must still widen the
        // interval even though the machine faults before it commits.
        t.record_access(3, false, false, &[(0, 0), (6, 0), (400, 0)], 64);
        let e = t.at(3).unwrap();
        assert!(e.any_unaligned);
        assert!(e.any_oob); // 400/4 = 100 >= 64
        assert_eq!((e.min_addr, e.max_addr), (0, 400));
    }

    #[test]
    fn racy_write_needs_differing_values_in_completing_prefix() {
        let mut t = ExecTrace::default();
        // Same word, same value: benign.
        t.record_access(0, true, true, &[(8, 7), (8, 7)], 4096);
        assert!(!t.at(0).unwrap().racy_write);
        // Same word, different values: a race.
        t.record_access(1, true, true, &[(8, 7), (8, 9)], 4096);
        assert!(t.at(1).unwrap().racy_write);
        // The conflicting lane sits past a faulting lane: no race
        // (its store never architecturally happened).
        t.record_access(2, true, true, &[(8, 7), (2, 0), (8, 9)], 4096);
        let e = t.at(2).unwrap();
        assert!(!e.racy_write);
        assert!(e.any_unaligned);
    }
}
