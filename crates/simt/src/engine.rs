//! The generic wavefront scheduler shared by both execution backends.
//!
//! The scheduler (dispatch, round-robin issue selection, the
//! event-driven due-CU sweep over per-CU readiness rows and the
//! cycle-stepping reference driver that is its oracle,
//! fault-injection/watchdog harness hooks) is written once, generic
//! over a [`Wave`] engine that owns the per-wavefront architectural
//! state and the per-instruction lane loop. Two engines ship:
//!
//! * [`ScalarWave`] — the retained reference: per-lane `Vec`s, one
//!   scalar loop per instruction. Kept byte-for-byte equivalent to the
//!   pre-trait simulator and used as the validation oracle.
//! * [`crate::soa::SoaWave`] — the data-oriented fast path:
//!   structure-of-arrays register file, 64-bit `exec` bitmask, dense
//!   vectorizable lane loops and a reusable scratch arena.
//!
//! Both engines execute the *same* scheduler passes in the same order,
//! which is what makes their outputs, [`RunStats`], memory images and
//! fault semantics bit-identical (enforced by
//! `crates/simt/tests/prop_backend_equiv.rs`).

use crate::config::SimtConfig;
use crate::fault::{
    FaultEvent, FaultLog, FaultReport, FaultSite, HardenedRun, Injection, InjectionOutcome,
    Protection,
};
use crate::global_mem::{GlobalMemory, PageSnapshot, PAGE_SHIFT};
use crate::gpu::{HardenState, RunStats, SimError, WatchdogState, LOCAL_WORDS, PARAM_SLOTS};
use crate::memsys::{Dram, SharedCache};
use crate::trace::ExecTrace;
use ggpu_isa::inst::{AluOp, IdSource, Inst};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Read-only launch context threaded through every issue.
#[derive(Clone, Copy)]
pub(crate) struct IssueEnv<'a> {
    pub config: SimtConfig,
    pub program: &'a [Inst],
    pub params: [u32; PARAM_SLOTS],
    pub global_size: u32,
    pub workgroup_size: u32,
    /// `log2(pes_per_cu)` when the PE count is a power of two: the
    /// per-issue occupancy `div_ceil` then compiles to a shift (this
    /// runs once per issued instruction on both backends).
    pub pes_shift: Option<u32>,
}

/// What one wavefront issue did.
pub(crate) enum StepOut {
    /// The wavefront had no active lane left (e.g. after an exec-mask
    /// upset) and retired without issuing.
    Retired,
    /// One vector instruction was issued.
    Issued {
        /// The instruction, for shared latency/occupancy accounting.
        inst: Inst,
        /// Number of lanes that executed it.
        lane_count: u32,
        /// Earliest cycle the memory system can deliver the results.
        mem_ready: u64,
    },
}

/// One wavefront's architectural state and lane-execution engine.
///
/// The contract every implementation must honour for bit-identity:
/// lanes are visited in ascending index order wherever the visit has
/// an observable side effect (memory writes, cache-port arbitration,
/// fault surfacing), and per-lane semantics match [`ScalarWave`]'s
/// scalar loops exactly.
pub(crate) trait Wave: Sized + Clone {
    /// Reusable per-scheduler scratch (lane lists, operand staging,
    /// touched-line buffers). One instance lives in the [`Sched`] and
    /// is lent to every issue, so the steady-state instruction loop
    /// performs no heap allocation.
    type Scratch: Default;

    /// A fresh wavefront covering `items` lanes.
    fn new(wf_size: u32, group_id: u32, first_global: u32, first_local: u32, items: u32) -> Self;
    /// Reinitializes a recycled wavefront in place (the dispatch
    /// arena): afterwards the wave must be indistinguishable from
    /// [`Wave::new`] with the same arguments.
    fn reinit(&mut self, group_id: u32, first_global: u32, first_local: u32, items: u32);

    fn done(&self) -> bool;
    fn at_barrier(&self) -> bool;
    fn ready_at(&self) -> u64;
    fn set_ready_at(&mut self, t: u64);
    fn group_id(&self) -> u32;

    /// Executes one vector instruction (select min active PC, fetch,
    /// run every active lane at that PC) and updates PCs, masks and
    /// barrier/done flags.
    fn step(
        &mut self,
        env: &IssueEnv<'_>,
        memory: &mut GlobalMemory,
        local_mem: &mut [u32],
        cache: &mut SharedCache,
        now: u64,
        scratch: &mut Self::Scratch,
    ) -> Result<StepOut, SimError>;

    /// Read-only replay of the *next* issue's lane selection,
    /// recording per-lane addresses, store values and branch outcomes
    /// into `trace`. Called immediately before [`Wave::step`] with the
    /// same arguments' pre-state, so what it records is exactly what
    /// the step is about to do — including accesses the step will
    /// fault on. Must not mutate any architectural or lazy engine
    /// state (the step that follows must be unaffected).
    fn observe(
        &self,
        env: &IssueEnv<'_>,
        memory_words: usize,
        local_words: usize,
        trace: &mut ExecTrace,
    );

    /// Advances every active lane past a released barrier.
    fn release_from_barrier(&mut self, now: u64);

    /// Hashes all architectural state the watchdog watches.
    fn fingerprint(&self, h: &mut DefaultHasher);

    /// `true` when `lane` exists in this wavefront's geometry.
    fn has_lane(&self, lane: u32) -> bool;
    /// Mutable view of one lane's architectural register, if resolvable.
    fn reg_slot(&mut self, lane: u32, reg: u8) -> Option<&mut u32>;
    /// Mutable view of one lane's PC, if resolvable.
    fn pc_slot(&mut self, lane: u32) -> Option<&mut u32>;
    /// Toggles one lane's execution-mask bit (the caller has checked
    /// [`Wave::has_lane`]).
    fn toggle_exec(&mut self, lane: u32);

    /// Overwrites `buf` with this wavefront, lazy engine state
    /// included, reusing `buf`'s lane storage: the fork snapshot copies
    /// every resident wavefront before each forked suffix.
    fn clone_into_buf(&self, buf: &mut Self);
}

/// One compute unit: resident wavefronts, scratchpad, issue stage.
/// Retired wavefronts are recycled through `pool`, so steady-state
/// dispatch performs no allocation either.
pub(crate) struct ComputeUnit<W> {
    pub wavefronts: Vec<W>,
    pool: Vec<W>,
    pub local_mem: Vec<u32>,
    pub busy_until: u64,
    pub rr_cursor: usize,
    /// Dispatch can only newly succeed after a retirement freed a
    /// slot (or on the very first pass), so the compaction/dispatch
    /// block is skipped until then. Behaviour-neutral: between a
    /// failed dispatch attempt and the next retirement no wavefront
    /// retires, so the skipped compactions are provably no-ops.
    dispatch_hint: bool,
    /// The readiness row of the event-driven sweep: per resident
    /// wavefront, in list order, its `ready_at`, or `u64::MAX` once it
    /// has retired or while it waits at a barrier. Wavefront state only
    /// changes inside a visit of this CU (dispatch, issue, barrier
    /// release; no upset touches retirement, barrier or readiness
    /// state), and every visit leaves the row, `cached_live` and
    /// `cached_ready` exact. The sweep therefore picks the issuing wave
    /// from one contiguous row, and answers an idle CU from two words,
    /// without reading the wave structs. The cycle-stepping reference
    /// never reads any of the three.
    ready: Vec<u64>,
    /// Some resident wavefront has not retired.
    cached_live: bool,
    /// The row's minimum: the first cycle a wavefront can issue
    /// (`u64::MAX` when none is issuable).
    cached_ready: u64,
    /// The first cycle whose busy/stall accounting is still pending.
    /// Each visit of the sweep settles the span before it, and
    /// [`Sched::finish`] settles the rest through the last pass.
    settled: u64,
}

impl<W: Wave> ComputeUnit<W> {
    fn new() -> Self {
        Self {
            wavefronts: Vec::new(),
            pool: Vec::new(),
            local_mem: vec![0; LOCAL_WORDS],
            busy_until: 0,
            rr_cursor: 0,
            dispatch_hint: true,
            ready: Vec::new(),
            cached_live: false,
            cached_ready: u64::MAX,
            settled: 0,
        }
    }

    /// Copies `src`'s resident wavefronts, LRAM, issue stage, readiness
    /// row and pending accounting into `self`, reusing `self`'s buffers
    /// (surplus wavefronts wait in `self.pool`). Pools are not copied:
    /// a pooled wavefront is reinitialized before it is dispatched
    /// again. The fork driver restores by swapping the two units whole,
    /// so each keeps at most one resident list's worth of wavefronts.
    fn save_from(&mut self, src: &Self) {
        let keep = src.wavefronts.len().min(self.wavefronts.len());
        self.pool.extend(self.wavefronts.drain(keep..));
        for (i, w) in src.wavefronts.iter().enumerate() {
            if i == self.wavefronts.len() {
                let buf = self.pool.pop().unwrap_or_else(|| w.clone());
                self.wavefronts.push(buf);
            }
            w.clone_into_buf(&mut self.wavefronts[i]);
        }
        self.local_mem.copy_from_slice(&src.local_mem);
        self.busy_until = src.busy_until;
        self.rr_cursor = src.rr_cursor;
        self.dispatch_hint = src.dispatch_hint;
        self.ready.clone_from(&src.ready);
        self.cached_live = src.cached_live;
        self.cached_ready = src.cached_ready;
        self.settled = src.settled;
    }

    /// Compacts retired wavefronts into the pool, then dispatches whole
    /// workgroups from `next_group` into the free slots until one does
    /// not fit. Returns whether a workgroup was dispatched.
    ///
    /// Compaction runs once, *before* the slot computation (not per
    /// dispatched group), preserves resident order, and re-clamps the
    /// round-robin cursor so it cannot point past the end of the list.
    fn dispatch(
        &mut self,
        env: &IssueEnv<'_>,
        next_group: &mut u32,
        total_groups: u32,
        stats: &mut RunStats,
    ) -> bool {
        let mut i = 0;
        while i < self.wavefronts.len() {
            if self.wavefronts[i].done() {
                let retired = self.wavefronts.remove(i);
                self.pool.push(retired);
            } else {
                i += 1;
            }
        }
        if self.rr_cursor >= self.wavefronts.len() {
            self.rr_cursor = 0;
        }
        let mut dispatched = false;
        while *next_group < total_groups {
            // All retired wavefronts were compacted into the pool
            // above, so every resident wavefront is live.
            let live = self.wavefronts.len() as u32;
            let free = env.config.max_wavefronts_per_cu - live;
            let first_item = *next_group * env.workgroup_size;
            let items_in_group = env.workgroup_size.min(env.global_size - first_item);
            let needed = env.config.wavefronts_per_group(items_in_group);
            if needed > free {
                // Re-armed by the next retirement on this CU.
                self.dispatch_hint = false;
                break;
            }
            for wf_idx in 0..needed {
                let first_local = wf_idx * env.config.wavefront_size;
                let items = env.config.wavefront_size.min(items_in_group - first_local);
                let first_global = first_item + first_local;
                let wave = match self.pool.pop() {
                    Some(mut recycled) => {
                        recycled.reinit(*next_group, first_global, first_local, items);
                        recycled
                    }
                    None => W::new(
                        env.config.wavefront_size,
                        *next_group,
                        first_global,
                        first_local,
                        items,
                    ),
                };
                self.wavefronts.push(wave);
                stats.wavefronts += 1;
            }
            *next_group += 1;
            dispatched = true;
        }
        dispatched
    }

    /// A wavefront's entry in the readiness row.
    fn readiness(w: &W) -> u64 {
        if w.done() || w.at_barrier() {
            u64::MAX
        } else {
            w.ready_at()
        }
    }

    /// Rebuilds the readiness row and the summary from the resident
    /// list.
    fn summarize(&mut self) {
        self.ready.clear();
        self.ready
            .extend(self.wavefronts.iter().map(Self::readiness));
        self.cached_live = self.wavefronts.iter().any(|w| !w.done());
        self.cached_ready = row_min(&self.ready);
    }

    /// Whether the row and the summary are what [`Self::summarize`]
    /// would build now: the sweep's debug check of every read.
    fn summary_is_exact(&self) -> bool {
        self.ready
            .iter()
            .copied()
            .eq(self.wavefronts.iter().map(Self::readiness))
            && self.cached_live == self.wavefronts.iter().any(|w| !w.done())
            && self.cached_ready == row_min(&self.ready)
    }

    /// The round-robin pick from the readiness row: the first slot at
    /// or after `rr_cursor`, wrapping, whose wavefront can issue at
    /// `now`.
    fn pick(&self, now: u64) -> Option<usize> {
        let (head, tail) = self.ready.split_at(self.rr_cursor);
        match tail.iter().position(|&r| r <= now) {
            Some(i) => Some(self.rr_cursor + i),
            None => head.iter().position(|&r| r <= now),
        }
    }

    /// Adds the busy and stall cycles of `settled..end` to `stats` and
    /// moves `settled` to `end`, in closed form: over the span no state
    /// of this CU changed and no wavefront could issue, so a cycle
    /// counts as busy while `cycle < busy_until`, and as stalled for the
    /// rest of the span iff the CU holds live wavefronts.
    fn settle(&mut self, end: u64, stats: &mut RunStats) {
        stats.busy_cycles += self.busy_until.min(end).saturating_sub(self.settled);
        if self.cached_live {
            stats.stall_cycles += end.saturating_sub(self.busy_until.max(self.settled));
        }
        self.settled = end;
    }
}

/// The minimum of a readiness row (`u64::MAX` when empty), folded into
/// four independent accumulators instead of one serial compare chain:
/// the sweep recomputes it after every issue.
fn row_min(row: &[u64]) -> u64 {
    let mut acc = [u64::MAX; 4];
    let mut chunks = row.chunks_exact(4);
    for chunk in &mut chunks {
        for (a, &r) in acc.iter_mut().zip(chunk) {
            *a = (*a).min(r);
        }
    }
    for (a, &r) in acc.iter_mut().zip(chunks.remainder()) {
        *a = (*a).min(r);
    }
    acc[0].min(acc[1]).min(acc[2].min(acc[3]))
}

/// What one issue changed beyond the issued wavefront's own readiness.
#[derive(PartialEq)]
enum Issued {
    /// Nothing else: the readiness row needs only the issued slot.
    Alone,
    /// A barrier arrival, which may have released the group.
    Barrier,
    /// The wavefront retired, freeing a slot; the group may have been
    /// released.
    Retired,
}

/// One in-flight kernel run: machine state plus scheduling queues,
/// shared by the event-driven scheduler and the cycle-stepping
/// reference so both execute byte-for-byte identical passes. The run
/// is resumable: `now` is state, so a driver can stop between passes
/// (the fork driver saves the state there, runs a faulted suffix and
/// restores it).
pub(crate) struct Sched<'a, W: Wave> {
    env: IssueEnv<'a>,
    memory: &'a mut GlobalMemory,
    cache: SharedCache,
    cus: Vec<ComputeUnit<W>>,
    total_groups: u32,
    next_group: u32,
    stats: RunStats,
    /// Simulated time of the next pass.
    now: u64,
    scratch: W::Scratch,
    /// Fault-injection / watchdog harness; `None` for plain runs.
    hard: Option<&'a mut HardenState>,
    /// Soundness-oracle trace sink; `None` for plain runs.
    trace: Option<&'a mut ExecTrace>,
}

/// What an injection does to the machine, decided without touching
/// it.
enum Verdict {
    /// No architectural state changes: a vacant site, a SEC-DED
    /// correction, or flips that cancel out. The run logs the outcome
    /// and continues exactly as if fault-free.
    Unchanged(InjectionOutcome),
    /// Parity or SEC-DED flags the word uncorrectable: the run aborts.
    Detected(FaultReport),
    /// The upset lands: [`Sched::apply_injection`] changes the
    /// machine, and the run logs the outcome.
    Lands(InjectionOutcome),
}

/// The forkable state of a [`Sched`], saved before a mutating
/// injection's suffix runs and put back after it. One per fork driver,
/// reused by every fork.
struct Snapshot<W> {
    cus: Vec<ComputeUnit<W>>,
    cache: SharedCache,
    next_group: u32,
    stats: RunStats,
    now: u64,
    watchdog: WatchdogState,
    pages: PageSnapshot,
}

/// The sites where a landing upset changes nothing the rest of the
/// launch reads ([`Sched::untouched`]).
struct Untouched {
    /// Bit `r` set: register `r`, in every lane.
    regs: u32,
    /// Every LRAM word.
    lram: bool,
    /// Per 4 KiB page of global memory, whether the fault-free run
    /// filled a cache line of it; `None` when no page is known.
    filled: Option<Vec<bool>>,
}

impl Untouched {
    const NOTHING: Self = Self {
        regs: 0,
        lram: false,
        filled: None,
    };

    fn covers(&self, site: FaultSite) -> bool {
        match site {
            FaultSite::Register { reg, .. } => self.regs >> (reg & 31) & 1 == 1,
            FaultSite::LocalWord { .. } => self.lram,
            FaultSite::GlobalWord { word } => {
                self.filled
                    .as_ref()
                    .and_then(|filled| filled.get(word as usize >> PAGE_SHIFT))
                    == Some(&false)
            }
            FaultSite::Pc { .. } | FaultSite::ExecMask { .. } => false,
        }
    }
}

/// One fully validated launch, ready for a wave engine. Built by
/// [`crate::Gpu`] after its geometry checks and parameter staging.
pub(crate) struct LaunchRequest<'a> {
    pub(crate) config: SimtConfig,
    pub(crate) program: &'a [Inst],
    pub(crate) params: [u32; PARAM_SLOTS],
    pub(crate) global_size: u32,
    pub(crate) workgroup_size: u32,
    pub(crate) memory: &'a mut GlobalMemory,
    /// Use the cycle-stepping reference driver instead of the
    /// event-driven sweep (validation runs).
    pub(crate) reference: bool,
    /// Fault-injection / watchdog harness; `None` for plain runs.
    pub(crate) hard: Option<&'a mut HardenState>,
    /// Soundness-oracle trace sink; `None` for plain runs.
    pub(crate) trace: Option<&'a mut ExecTrace>,
    /// Fork plan of [`crate::Gpu::launch_forked`]; `None` otherwise.
    pub(crate) fork: Option<Fork<'a>>,
}

/// What [`crate::Gpu::launch_forked`] asks of the scheduler: the
/// single-injection runs to fork from the fault-free one, and where to
/// hand each result.
pub(crate) struct Fork<'a> {
    pub(crate) injections: &'a [Injection],
    pub(crate) visit: &'a mut Visit<'a>,
}

/// Receives each forked run: the injection's index, its result and the
/// memory image it leaves.
pub(crate) type Visit<'a> = dyn FnMut(usize, Result<HardenedRun, SimError>, &[u32]) + 'a;

/// Builds and runs one launch on wave engine `W`: under the fork
/// driver when the request carries a fork plan, otherwise under the
/// event-driven or the cycle-stepping reference driver.
pub(crate) fn run_launch<W: Wave>(req: LaunchRequest<'_>) -> Result<RunStats, SimError> {
    let config = req.config;
    let env = IssueEnv {
        config,
        program: req.program,
        params: req.params,
        global_size: req.global_size,
        workgroup_size: req.workgroup_size,
        pes_shift: config
            .pes_per_cu
            .is_power_of_two()
            .then(|| config.pes_per_cu.trailing_zeros()),
    };
    let mut sched = Sched::<W>::new(env, req.memory, req.hard, req.trace);
    match req.fork {
        Some(fork) => sched.run_forked(fork),
        None => sched.run(req.reference),
    }
}

impl<'a, W: Wave> Sched<'a, W> {
    /// A launch at cycle 0: no workgroup dispatched, a cold cache.
    fn new(
        env: IssueEnv<'a>,
        memory: &'a mut GlobalMemory,
        hard: Option<&'a mut HardenState>,
        trace: Option<&'a mut ExecTrace>,
    ) -> Self {
        let config = env.config;
        let total_groups = env.global_size.div_ceil(env.workgroup_size);
        Self {
            env,
            memory,
            cache: SharedCache::new(config.cache, Dram::new(config.dram)),
            cus: (0..config.compute_units)
                .map(|_| ComputeUnit::new())
                .collect(),
            total_groups,
            next_group: 0,
            stats: RunStats {
                workgroups: u64::from(total_groups),
                ..RunStats::default()
            },
            now: 0,
            scratch: W::Scratch::default(),
            hard,
            trace,
        }
    }

    /// Runs from `now` to the end of the launch: one pass per event
    /// (the due-CU sweep), or per simulated cycle under the `reference`
    /// driver.
    fn run(&mut self, reference: bool) -> Result<RunStats, SimError> {
        loop {
            self.check_ceiling()?;
            if self.step(reference)? {
                return Ok(self.finish());
            }
        }
    }

    /// Fork driver: runs the fault-free launch once. At the first pass
    /// at or after each injection's cycle, taken in cycle order, it
    /// hands `fork.visit` the result and memory image that a launch
    /// with that one injection gives. An injection that changes no
    /// state, or lands in state the run never accesses
    /// ([`Sched::untouched`]), is answered from the fault-free run; a
    /// detected one aborts on the spot; any other landing one saves
    /// the machine into the snapshot, runs the faulted suffix, visits
    /// and restores.
    fn run_forked(&mut self, fork: Fork<'_>) -> Result<RunStats, SimError> {
        let Fork { injections, visit } = fork;
        let mut order: Vec<usize> = (0..injections.len()).collect();
        order.sort_by_key(|&i| injections[i].cycle);
        let mut pending = order.into_iter().peekable();
        let mut snap = Snapshot {
            cus: self.cus.iter().map(|_| ComputeUnit::new()).collect(),
            cache: self.cache.clone(),
            next_group: 0,
            stats: RunStats::default(),
            now: 0,
            watchdog: WatchdogState::default(),
            pages: PageSnapshot::default(),
        };
        let untouched = self.untouched(injections, &mut snap.pages);
        // Injections answered from the fault-free run, with their pass
        // time, outcome and, for a landing global upset, the word it
        // flips; visited once that run's result is known.
        let mut answered: Vec<(usize, u64, InjectionOutcome, Option<usize>)> = Vec::new();
        let golden = loop {
            if let Err(e) = self.check_ceiling() {
                break Err(e);
            }
            while let Some(i) = pending.next_if(|&i| injections[i].cycle <= self.now) {
                let inj = &injections[i];
                match Self::resolve_injection(&self.cus, self.memory, inj, self.now) {
                    Verdict::Unchanged(outcome) => answered.push((i, self.now, outcome, None)),
                    Verdict::Detected(report) => {
                        visit(i, Err(SimError::UncorrectableFault(report)), self.memory)
                    }
                    Verdict::Lands(outcome) if untouched.covers(inj.site) => {
                        let word = match inj.site {
                            FaultSite::GlobalWord { word } => Some(word as usize),
                            _ => None,
                        };
                        answered.push((i, self.now, outcome, word));
                    }
                    Verdict::Lands(_) => {
                        self.save(&mut snap);
                        let run = self.run_with(inj);
                        visit(i, run, self.memory);
                        self.restore(&mut snap);
                    }
                }
            }
            match self.step(false) {
                Ok(false) => {}
                Ok(true) => break Ok(self.finish()),
                Err(e) => break Err(e),
            }
        };
        let with_log = |events: Vec<FaultEvent>| {
            golden.clone().map(|stats| HardenedRun {
                stats,
                log: FaultLog { events },
            })
        };
        for (i, cycle, outcome, word) in answered {
            let inj = &injections[i];
            let event = FaultEvent {
                cycle,
                label: inj.label.clone(),
                outcome,
            };
            // The flipped global word is all a never-accessed upset
            // changes in memory: flip it for the visit, then back.
            let mask = flip_mask(&inj.flips);
            let flip = |memory: &mut GlobalMemory| {
                if let Some(w) = word.and_then(|w| memory.word_mut(w)) {
                    *w ^= mask;
                }
            };
            flip(self.memory);
            visit(i, with_log(vec![event]), self.memory);
            flip(self.memory);
        }
        // Past the run's last pass: never applied.
        for i in pending {
            visit(i, with_log(Vec::new()), self.memory);
        }
        golden
    }

    /// The state this launch never reads or writes, where a landing
    /// upset leaves every later pass, and so the result, as the
    /// fault-free run has them: the un-ACE state of ACE analysis.
    ///
    /// Registers no instruction names and, in a program without `lwl`
    /// and `swl`, the LRAM are known from the program. Global pages
    /// are known from a fault-free hardened pre-pass on a machine of
    /// its own, run between a save and a restore of the written pages
    /// (`pages` is the buffer): the pages it fills are the pages it
    /// accesses. The pre-pass also tells whether the watchdog ever saw
    /// an unchanged fingerprint. Registers and the LRAM are in the
    /// fingerprint, so an upset there resets a streak that was
    /// building; they count as untouched only when no streak ever
    /// began. Global memory is not in the fingerprint, but its pages
    /// count only when the pre-pass completed. The pre-pass is skipped
    /// when no injection could land in any of these sites.
    fn untouched(&mut self, injections: &[Injection], pages: &mut PageSnapshot) -> Untouched {
        let program = self.env.program;
        let named = program
            .iter()
            .flat_map(|inst| inst.uses().chain(inst.def()))
            .fold(0u32, |named, r| named | 1 << r.index());
        let no_lram = !program
            .iter()
            .any(|inst| matches!(inst, Inst::Lwl { .. } | Inst::Swl { .. }));
        let may_answer = |inj: &Injection| {
            let site = match inj.site {
                FaultSite::Register { reg, .. } => named >> (reg & 31) & 1 == 0,
                FaultSite::LocalWord { .. } => no_lram,
                FaultSite::GlobalWord { .. } => true,
                FaultSite::Pc { .. } | FaultSite::ExecMask { .. } => false,
            };
            site && matches!(decide(inj, 0), Verdict::Lands(_))
        };
        if !injections.iter().any(may_answer) {
            return Untouched::NOTHING;
        }
        let watchdog = self.hard.as_deref().and_then(|hard| hard.watchdog);
        let mut hard = HardenState::new(&[], watchdog);
        self.memory.save_pages(pages);
        let (completed, filled) = {
            let mut pre = Sched::<W>::new(self.env, &mut *self.memory, Some(&mut hard), None);
            pre.cache
                .record_fills(pre.memory.len().div_ceil(1 << PAGE_SHIFT));
            let completed = pre.run(false).is_ok();
            (completed, pre.cache.take_fills())
        };
        self.memory.restore_pages(pages);
        let quiet = !hard.watchdog_state.repeated;
        Untouched {
            regs: if quiet { !named } else { 0 },
            lram: quiet && no_lram,
            filled: filled.filter(|_| completed),
        }
    }

    /// Runs the rest of the launch with `inj` planned at the current
    /// pass, as a hardened launch with that one injection would.
    fn run_with(&mut self, inj: &Injection) -> Result<HardenedRun, SimError> {
        if let Some(hard) = self.hard.as_deref_mut() {
            hard.injections.push(inj.clone());
        }
        let stats = self.run(false)?;
        let log = self
            .hard
            .as_deref_mut()
            .map(|hard| std::mem::take(&mut hard.log))
            .unwrap_or_default();
        Ok(HardenedRun { stats, log })
    }

    /// Copies the forkable state into `snap`: every CU, the shared
    /// cache and AXI interfaces, the dispatch position, the `RunStats`
    /// accumulators, `now`, the watchdog and the written pages of
    /// global memory.
    fn save(&self, snap: &mut Snapshot<W>) {
        for (saved, cu) in snap.cus.iter_mut().zip(&self.cus) {
            saved.save_from(cu);
        }
        snap.cache.save_from(&self.cache);
        snap.next_group = self.next_group;
        snap.stats = self.stats;
        snap.now = self.now;
        if let Some(hard) = self.hard.as_deref() {
            snap.watchdog = hard.watchdog_state;
        }
        self.memory.save_pages(&mut snap.pages);
    }

    /// Puts back what [`Sched::save`] copied and clears the forked
    /// run's injection plan. The CUs and the cache swap with their
    /// copies, which keep the forked run's state as buffers for the
    /// next save.
    fn restore(&mut self, snap: &mut Snapshot<W>) {
        for (cu, saved) in self.cus.iter_mut().zip(&mut snap.cus) {
            std::mem::swap(cu, saved);
        }
        std::mem::swap(&mut self.cache, &mut snap.cache);
        self.next_group = snap.next_group;
        self.stats = snap.stats;
        self.now = snap.now;
        if let Some(hard) = self.hard.as_deref_mut() {
            hard.watchdog_state = snap.watchdog;
            hard.injections.clear();
            hard.next_inj = 0;
            hard.log.events.clear();
        }
        self.memory.restore_pages(&snap.pages);
    }

    /// The cycle ceiling, checked before every pass.
    fn check_ceiling(&self) -> Result<(), SimError> {
        if self.now > self.env.config.max_cycles {
            return Err(SimError::CycleLimit {
                limit: self.env.config.max_cycles,
            });
        }
        Ok(())
    }

    /// The harness hook and one pass at `now`, then the move to the
    /// next pass time: the next event, or `now + 1` under the
    /// cycle-stepping `reference`. Returns `true` once the launch has
    /// finished (`now` is then its cycle count).
    fn step(&mut self, reference: bool) -> Result<bool, SimError> {
        self.harness_tick(self.now)?;
        let next = if reference {
            self.reference_pass(self.now)?
        } else {
            self.sweep(self.now)?
        };
        match next {
            Some(next) => {
                self.now = next;
                Ok(false)
            }
            None => Ok(true),
        }
    }

    /// The counters of a finished launch: settles every CU's pending
    /// accounting through the last pass, at `now`.
    fn finish(&mut self) -> RunStats {
        for cu in &mut self.cus {
            cu.settle(self.now + 1, &mut self.stats);
        }
        RunStats {
            cycles: self.now,
            mem: self.cache.stats(),
            ..self.stats
        }
    }

    /// Fault-injection / watchdog hook, run before every scheduler
    /// pass. Exact no-op when no harness is attached; with an attached
    /// harness but an empty plan the only work is the (mutation-free)
    /// watchdog heartbeat, so architectural state and accounting are
    /// untouched — the zero-injection bit-identity guarantee.
    fn harness_tick(&mut self, now: u64) -> Result<(), SimError> {
        let Some(hard) = self.hard.take() else {
            return Ok(());
        };
        // `hard` is re-attached by the inner function for reuse on the
        // next pass; on error the run aborts and the owner (the
        // `launch_hardened` frame) still holds the log.
        self.harness_tick_inner(now, hard)
    }

    fn harness_tick_inner(&mut self, now: u64, hard: &'a mut HardenState) -> Result<(), SimError> {
        // Apply every injection that has come due. Between passes no
        // architectural state is read, so landing at the first pass at
        // or after the target cycle is bit-equivalent to landing at
        // the target cycle itself on the cycle-stepping machine.
        while let Some(inj) = hard
            .injections
            .get(hard.next_inj)
            .filter(|inj| inj.cycle <= now)
        {
            hard.next_inj += 1;
            let outcome = match Self::resolve_injection(&self.cus, self.memory, inj, now) {
                Verdict::Unchanged(outcome) => outcome,
                Verdict::Detected(report) => {
                    self.hard = Some(hard);
                    return Err(SimError::UncorrectableFault(report));
                }
                Verdict::Lands(outcome) => {
                    Self::apply_injection(&mut self.cus, self.memory, inj);
                    outcome
                }
            };
            hard.log.events.push(FaultEvent {
                cycle: now,
                label: inj.label.clone(),
                outcome,
            });
        }

        // Retirement-progress watchdog: evaluated at the first pass at
        // or past each deadline, armed only when instructions were
        // issued since the previous check (pure memory stalls always
        // resolve — modelled latencies are finite — and must not trip
        // the heartbeat).
        if let Some(wd) = hard.watchdog {
            let st = &mut hard.watchdog_state;
            if now >= st.next {
                st.next = now + wd.interval.max(1);
                let instr = self.stats.vector_instructions;
                if instr > st.last_instr {
                    st.last_instr = instr;
                    let fp = self.arch_fingerprint();
                    if st.fp_valid && fp == st.last_fp {
                        st.streak += 1;
                        st.repeated = true;
                        if st.streak >= wd.patience.max(1) {
                            self.hard = Some(hard);
                            return Err(SimError::Watchdog { cycle: now });
                        }
                    } else {
                        st.streak = 0;
                        st.last_fp = fp;
                        st.fp_valid = true;
                    }
                }
            }
        }
        self.hard = Some(hard);
        Ok(())
    }

    /// Hash of all architectural state the watchdog watches: PCs,
    /// activity masks, registers, IDs, barrier/done flags, LRAM and
    /// the dispatch position. Global memory is excluded for cost; a
    /// kernel making progress only through memory writes still changes
    /// registers (addresses, loop counters) every iteration.
    fn arch_fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.next_group.hash(&mut h);
        for cu in &self.cus {
            cu.local_mem.hash(&mut h);
            cu.wavefronts.len().hash(&mut h);
            for wf in &cu.wavefronts {
                wf.fingerprint(&mut h);
            }
        }
        h.finish()
    }

    /// The live wavefront in `slot` of `cu`, if any.
    fn live_wave(cus: &[ComputeUnit<W>], cu: u32, slot: u32) -> Option<&W> {
        cus.get(cu as usize)
            .and_then(|c| c.wavefronts.get(slot as usize))
            .filter(|w| !w.done())
    }

    /// Decides what `inj` does at pass time `now` without changing the
    /// machine. Unresolvable coordinates (index out of range, retired
    /// slot) are [`InjectionOutcome::Vacant`]; protection is decided by
    /// the total codeword flip count. This function cannot panic for
    /// any `(site, cycle, bits)` input.
    fn resolve_injection(
        cus: &[ComputeUnit<W>],
        memory: &GlobalMemory,
        inj: &Injection,
        now: u64,
    ) -> Verdict {
        let resolves = match inj.site {
            FaultSite::Register { cu, slot, lane, .. }
            | FaultSite::Pc { cu, slot, lane }
            | FaultSite::ExecMask { cu, slot, lane } => {
                Self::live_wave(cus, cu, slot).is_some_and(|w| w.has_lane(lane))
            }
            FaultSite::LocalWord { cu, word } => cus
                .get(cu as usize)
                .is_some_and(|c| (word as usize) < c.local_mem.len()),
            FaultSite::GlobalWord { word } => (word as usize) < memory.len(),
        };
        if !resolves {
            return Verdict::Unchanged(InjectionOutcome::Vacant);
        }
        decide(inj, now)
    }

    /// Applies an injection that [`Sched::resolve_injection`] found to
    /// land: XORs its flips into the word, or toggles the lane's
    /// exec-mask bit. No upset changes a wavefront's retirement,
    /// barrier or readiness state (an exec-mask flip that empties a
    /// wave retires it at its next issue), so the CU's readiness row
    /// stays exact.
    fn apply_injection(cus: &mut [ComputeUnit<W>], memory: &mut GlobalMemory, inj: &Injection) {
        fn wave<W: Wave>(cus: &mut [ComputeUnit<W>], cu: u32, slot: u32) -> Option<&mut W> {
            cus.get_mut(cu as usize)?.wavefronts.get_mut(slot as usize)
        }
        let mask = flip_mask(&inj.flips);
        let word = match inj.site {
            FaultSite::Register {
                cu,
                slot,
                lane,
                reg,
            } => wave(cus, cu, slot).and_then(|w| w.reg_slot(lane, reg)),
            FaultSite::Pc { cu, slot, lane } => wave(cus, cu, slot).and_then(|w| w.pc_slot(lane)),
            FaultSite::LocalWord { cu, word } => cus
                .get_mut(cu as usize)
                .and_then(|c| c.local_mem.get_mut(word as usize)),
            FaultSite::GlobalWord { word } => memory.word_mut(word as usize),
            FaultSite::ExecMask { cu, slot, lane } => {
                if let Some(w) = wave(cus, cu, slot) {
                    w.toggle_exec(lane);
                }
                None
            }
        };
        if let Some(w) = word {
            *w ^= mask;
        }
    }

    /// One pass of the event-driven driver at `now`. It visits each CU
    /// at most once, and only when something is due there: a dispatch
    /// pending, or `max(busy_until, cached_ready) <= now`. A visit
    /// settles the CU's accounting up to `now`, dispatches, then
    /// accounts cycle `now` as the reference pass does: busy, an issue
    /// of the round-robin pick from the readiness row, or a stall. A CU
    /// with nothing due changes no state, so its cycles wait in
    /// `settled` for its next visit or [`Sched::finish`].
    ///
    /// Returns the next pass time, or `None` once the launch has
    /// finished. The next pass is the earliest `max(busy_until,
    /// cached_ready)` over CUs holding live wavefronts; `now + 1` when a
    /// retirement or dispatch left workgroups queued (dispatch may
    /// newly succeed); and, once no live wavefront remains anywhere,
    /// one final drain pass at `now + 1`, which reproduces the
    /// reference loop's break timing.
    fn sweep(&mut self, now: u64) -> Result<Option<u64>, SimError> {
        self.stats.sched_iterations += 1;
        let mut any_alive = false;
        let mut reopen = false;
        let mut stalled = false;
        let mut next = u64::MAX;
        for cu in self.cus.iter_mut() {
            debug_assert!(cu.summary_is_exact(), "readiness row out of date");
            let may_dispatch = cu.dispatch_hint && self.next_group < self.total_groups;
            let due = may_dispatch || cu.busy_until.max(cu.cached_ready) <= now;
            if due {
                cu.settle(now, &mut self.stats);
                if may_dispatch {
                    reopen |= cu.dispatch(
                        &self.env,
                        &mut self.next_group,
                        self.total_groups,
                        &mut self.stats,
                    );
                    cu.summarize();
                }
            }
            any_alive |= cu.cached_live;
            if due {
                cu.settled = now + 1;
                if cu.busy_until > now {
                    self.stats.busy_cycles += 1;
                } else if let Some(idx) = cu.pick(now) {
                    cu.rr_cursor = if idx + 1 >= cu.wavefronts.len() {
                        0
                    } else {
                        idx + 1
                    };
                    let issued = Self::issue(
                        &self.env,
                        self.memory,
                        &mut self.cache,
                        cu,
                        idx,
                        now,
                        &mut self.stats,
                        &mut self.scratch,
                        self.trace.as_deref_mut(),
                    )?;
                    if issued == Issued::Alone {
                        cu.ready[idx] = cu.wavefronts[idx].ready_at();
                        cu.cached_ready = row_min(&cu.ready);
                    } else {
                        if issued == Issued::Retired {
                            cu.dispatch_hint = true;
                            reopen = true;
                        }
                        cu.summarize();
                    }
                } else if cu.cached_live {
                    self.stats.stall_cycles += 1;
                }
            }
            if cu.cached_live {
                // A live CU always has an issuable (non-barrier)
                // wavefront: barrier release is immediate once the
                // whole group has arrived. An all-waiting CU would stop
                // the clock, so it is a typed scheduler invariant
                // violation (raised once the pass is complete) rather
                // than a silent `now + 1` re-poll that spins to the
                // cycle ceiling.
                stalled |= cu.cached_ready == u64::MAX;
                next = next.min(cu.busy_until.max(cu.cached_ready));
            }
        }
        if !any_alive && self.next_group >= self.total_groups {
            return Ok(None);
        }
        if stalled {
            return Err(SimError::SchedulerStall { cycle: now });
        }
        if next == u64::MAX {
            next = now + 1; // final drain pass
        }
        if reopen && self.next_group < self.total_groups {
            next = next.min(now + 1);
        }
        Ok(Some(next.max(now + 1)))
    }

    /// One pass of the cycle-stepping reference at `now`: per CU in
    /// index order, workgroup dispatch, then (unless the issue stage
    /// is occupied) a round-robin scan over the wave structs and the
    /// issue of one vector instruction, with the cycle's busy or stall
    /// accounted on the spot. It reads no readiness row, summary or
    /// pending span, so it is the oracle of all three. Returns `now +
    /// 1`, or `None` once the launch has finished.
    fn reference_pass(&mut self, now: u64) -> Result<Option<u64>, SimError> {
        self.stats.sched_iterations += 1;
        let mut any_alive = false;
        for cu in self.cus.iter_mut() {
            if cu.dispatch_hint && self.next_group < self.total_groups {
                cu.dispatch(
                    &self.env,
                    &mut self.next_group,
                    self.total_groups,
                    &mut self.stats,
                );
            }
            let has_live = cu.wavefronts.iter().any(|w| !w.done());
            any_alive |= has_live;
            cu.settled = now + 1;
            if cu.busy_until > now {
                self.stats.busy_cycles += 1;
                continue;
            }
            let n_wf = cu.wavefronts.len();
            let chosen = (cu.rr_cursor..n_wf).chain(0..cu.rr_cursor).find(|&i| {
                let w = &cu.wavefronts[i];
                !w.done() && !w.at_barrier() && w.ready_at() <= now
            });
            let Some(idx) = chosen else {
                if has_live {
                    self.stats.stall_cycles += 1;
                }
                continue;
            };
            cu.rr_cursor = if idx + 1 >= n_wf { 0 } else { idx + 1 };
            let issued = Self::issue(
                &self.env,
                self.memory,
                &mut self.cache,
                cu,
                idx,
                now,
                &mut self.stats,
                &mut self.scratch,
                self.trace.as_deref_mut(),
            )?;
            if issued == Issued::Retired {
                cu.dispatch_hint = true;
            }
        }
        let finished = !any_alive && self.next_group >= self.total_groups;
        Ok((!finished).then_some(now + 1))
    }

    /// Issues one vector instruction for wavefront `idx` of `cu`:
    /// delegates the lane loop to the wave engine, then performs the
    /// engine-independent beat/latency/occupancy accounting and
    /// barrier-release bookkeeping, and says what it changed beyond
    /// the issued wavefront's readiness.
    #[allow(clippy::too_many_arguments)]
    fn issue(
        env: &IssueEnv<'_>,
        memory: &mut GlobalMemory,
        cache: &mut SharedCache,
        cu: &mut ComputeUnit<W>,
        idx: usize,
        now: u64,
        stats: &mut RunStats,
        scratch: &mut W::Scratch,
        trace: Option<&mut ExecTrace>,
    ) -> Result<Issued, SimError> {
        if let Some(trace) = trace {
            cu.wavefronts[idx].observe(env, memory.len(), cu.local_mem.len(), trace);
        }
        let wf = &mut cu.wavefronts[idx];
        let (inst, lane_count, mem_ready) =
            match wf.step(env, memory, &mut cu.local_mem, cache, now, scratch)? {
                StepOut::Retired => return Ok(Self::retire(cu, idx, now)),
                StepOut::Issued {
                    inst,
                    lane_count,
                    mem_ready,
                } => (inst, lane_count, mem_ready),
            };
        stats.vector_instructions += 1;
        stats.lane_ops += u64::from(lane_count);

        let base_beats = u64::from(
            match env.pes_shift {
                Some(s) => (lane_count + (1 << s) - 1) >> s,
                None => lane_count.div_ceil(env.config.pes_per_cu),
            }
            .max(1),
        );
        // One decode for the whole timing model: occupancy beats
        // (divides serialize on the shared iterative divider) and
        // result latency together.
        let (beats, latency) = match inst {
            Inst::Alu { op, .. } | Inst::AluImm { op, .. } => match op {
                AluOp::Mul => (base_beats, u64::from(env.config.mul_latency)),
                AluOp::Divu | AluOp::Remu => (
                    base_beats + u64::from(lane_count) * u64::from(env.config.div_serial),
                    u64::from(env.config.div_latency),
                ),
                _ => (base_beats, u64::from(env.config.alu_latency)),
            },
            // Memory latency is folded into `mem_ready`.
            Inst::Lw { .. } | Inst::Sw { .. } => (base_beats, 0),
            Inst::Lwl { .. } | Inst::Swl { .. } => {
                (base_beats, u64::from(env.config.local_latency))
            }
            _ => (base_beats, u64::from(env.config.alu_latency)),
        };
        let new_ready = (now + beats + latency).max(mem_ready);
        let wf = &mut cu.wavefronts[idx];
        wf.set_ready_at(new_ready);
        cu.busy_until = now + beats;
        Ok(match inst {
            Inst::Ret if wf.done() => Self::retire(cu, idx, now),
            Inst::Bar => {
                let group = wf.group_id();
                Self::release_barrier_group(cu, group, now);
                Issued::Barrier
            }
            _ => Issued::Alone,
        })
    }

    /// The one retirement step, whatever emptied wavefront `idx` (a
    /// `ret`, or an exec-mask upset that cleared its last lane): the
    /// group-mates already waiting at a barrier may now be the whole
    /// live group, so the release check runs.
    fn retire(cu: &mut ComputeUnit<W>, idx: usize, now: u64) -> Issued {
        let group = cu.wavefronts[idx].group_id();
        Self::release_barrier_group(cu, group, now);
        Issued::Retired
    }

    /// Advances every waiting wavefront of `group` past its barrier if
    /// no live wavefront of the group is still on its way there.
    fn release_barrier_group(cu: &mut ComputeUnit<W>, group: u32, now: u64) {
        let all_arrived = cu
            .wavefronts
            .iter()
            .filter(|w| !w.done() && w.group_id() == group)
            .all(|w| w.at_barrier());
        let any_waiting = cu
            .wavefronts
            .iter()
            .any(|w| !w.done() && w.group_id() == group && w.at_barrier());
        if all_arrived && any_waiting {
            for w in cu
                .wavefronts
                .iter_mut()
                .filter(|w| !w.done() && w.group_id() == group)
            {
                w.release_from_barrier(now);
            }
        }
    }
}

/// What `inj` does to a site that resolves to live state at pass time
/// `now`: protection is decided by the total codeword flip count.
fn decide(inj: &Injection, now: u64) -> Verdict {
    // A word whose flips cancel out keeps its value; an exec-mask
    // upset toggles the lane whatever its flip list.
    let changes = matches!(inj.site, FaultSite::ExecMask { .. }) || flip_mask(&inj.flips) != 0;
    let lands = |outcome| {
        if changes {
            Verdict::Lands(outcome)
        } else {
            Verdict::Unchanged(outcome)
        }
    };
    let total = inj.codeword_flips.max(inj.flips.len() as u32);
    let detected = || {
        Verdict::Detected(FaultReport {
            cycle: now,
            label: inj.label.clone(),
            domain: inj.site.domain(),
            flips: total,
        })
    };
    match inj.protection {
        Protection::None => lands(InjectionOutcome::Applied),
        _ if total == 0 => Verdict::Unchanged(InjectionOutcome::Vacant),
        // An odd flip count inverts the parity: detected, not
        // correctable. Even counts cancel in the parity sum and land
        // silently (potential SDC).
        Protection::Parity if total % 2 == 1 => detected(),
        Protection::Parity => lands(InjectionOutcome::Applied),
        Protection::SecDed => match total {
            1 => Verdict::Unchanged(InjectionOutcome::Corrected),
            t if t % 2 == 0 => detected(),
            // Odd >= 3: the decoder sees a plausible single-bit
            // syndrome and "corrects" the wrong bit.
            _ => lands(InjectionOutcome::MisCorrected),
        },
    }
}

/// The XOR mask of a flip list (bit positions taken modulo 32): a bit
/// flipped twice is back where it was.
fn flip_mask(flips: &[u8]) -> u32 {
    flips.iter().fold(0, |m, &b| m ^ (1u32 << (b % 32)))
}

/// Shared `observe` tail used by both engines once they have resolved
/// the issuing PC and the ascending-ordered issue set: computes
/// per-lane addresses, store values and branch outcomes from a
/// register-read closure (`reg(ordinal, r)` reads register `r` of the
/// ordinal-th issuing lane) and records them into the trace. Only
/// memory and branch instructions leave observations.
pub(crate) fn observe_issue(
    trace: &mut ExecTrace,
    env: &IssueEnv<'_>,
    pc: u32,
    lane_count: usize,
    memory_words: usize,
    local_words: usize,
    mut reg: impl FnMut(usize, ggpu_isa::inst::Reg) -> u32,
) {
    let Some(&inst) = env.program.get(pc as usize) else {
        return;
    };
    let pcu = pc as usize;
    let addr = |reg: &mut dyn FnMut(usize, ggpu_isa::inst::Reg) -> u32,
                l: usize,
                rs1: ggpu_isa::inst::Reg,
                imm: i16| reg(l, rs1).wrapping_add(imm as i32 as u32);
    match inst {
        Inst::Lw { rs1, imm, .. } => {
            let lanes: Vec<(u32, u32)> = (0..lane_count)
                .map(|l| (addr(&mut reg, l, rs1, imm), 0))
                .collect();
            trace.record_access(pcu, false, false, &lanes, memory_words);
        }
        Inst::Sw { rs1, rs2, imm } => {
            let lanes: Vec<(u32, u32)> = (0..lane_count)
                .map(|l| (addr(&mut reg, l, rs1, imm), reg(l, rs2)))
                .collect();
            trace.record_access(pcu, false, true, &lanes, memory_words);
        }
        Inst::Lwl { rs1, imm, .. } => {
            let lanes: Vec<(u32, u32)> = (0..lane_count)
                .map(|l| (addr(&mut reg, l, rs1, imm), 0))
                .collect();
            trace.record_access(pcu, true, false, &lanes, local_words);
        }
        Inst::Swl { rs1, rs2, imm } => {
            let lanes: Vec<(u32, u32)> = (0..lane_count)
                .map(|l| (addr(&mut reg, l, rs1, imm), reg(l, rs2)))
                .collect();
            trace.record_access(pcu, true, true, &lanes, local_words);
        }
        Inst::Branch { cond, rs1, rs2, .. } => {
            let mut any_taken = false;
            let mut any_not = false;
            for l in 0..lane_count {
                if cond.test(reg(l, rs1), reg(l, rs2)) {
                    any_taken = true;
                } else {
                    any_not = true;
                }
            }
            trace.record_branch(pcu, any_taken, any_not);
        }
        _ => {}
    }
}

/// The retained scalar reference engine: per-lane `Vec`s and scalar
/// loops, byte-for-byte the pre-trait simulator semantics. The only
/// behavioural-neutral change from the historical code is that the
/// per-instruction lane list and the per-access touched-line list live
/// in a reusable [`ScalarScratch`] instead of being allocated fresh
/// for every instruction.
#[derive(Clone)]
pub(crate) struct ScalarWave {
    pcs: Vec<u32>,
    active: Vec<bool>,
    regs: Vec<u32>,
    global_ids: Vec<u32>,
    local_ids: Vec<u32>,
    group_id: u32,
    ready_at: u64,
    done: bool,
    at_barrier: bool,
}

/// Reusable buffers for the scalar engine's instruction loop.
#[derive(Default)]
pub(crate) struct ScalarScratch {
    /// Active lanes at the issuing PC.
    lanes: Vec<usize>,
    /// Cache lines already arbitrated for this instruction.
    touched_lines: Vec<u64>,
}

impl ScalarWave {
    fn reg(&self, lane: usize, r: ggpu_isa::inst::Reg) -> u32 {
        self.regs[lane * 32 + r.index()]
    }

    fn min_active_pc(&self) -> Option<u32> {
        self.pcs
            .iter()
            .zip(&self.active)
            .filter(|(_, &a)| a)
            .map(|(&pc, _)| pc)
            .min()
    }
}

impl Wave for ScalarWave {
    type Scratch = ScalarScratch;

    fn new(wf_size: u32, group_id: u32, first_global: u32, first_local: u32, items: u32) -> Self {
        let n = wf_size as usize;
        let mut wave = Self {
            pcs: vec![0; n],
            active: vec![false; n],
            regs: vec![0; n * 32],
            global_ids: vec![0; n],
            local_ids: vec![0; n],
            group_id,
            ready_at: 0,
            done: items == 0,
            at_barrier: false,
        };
        for lane in 0..items as usize {
            wave.active[lane] = true;
            wave.global_ids[lane] = first_global + lane as u32;
            wave.local_ids[lane] = first_local + lane as u32;
        }
        wave
    }

    fn reinit(&mut self, group_id: u32, first_global: u32, first_local: u32, items: u32) {
        self.pcs.fill(0);
        self.active.fill(false);
        self.regs.fill(0);
        self.global_ids.fill(0);
        self.local_ids.fill(0);
        for lane in 0..items as usize {
            self.active[lane] = true;
            self.global_ids[lane] = first_global + lane as u32;
            self.local_ids[lane] = first_local + lane as u32;
        }
        self.group_id = group_id;
        self.ready_at = 0;
        self.done = items == 0;
        self.at_barrier = false;
    }

    fn done(&self) -> bool {
        self.done
    }

    fn at_barrier(&self) -> bool {
        self.at_barrier
    }

    fn ready_at(&self) -> u64 {
        self.ready_at
    }

    fn set_ready_at(&mut self, t: u64) {
        self.ready_at = t;
    }

    fn group_id(&self) -> u32 {
        self.group_id
    }

    fn step(
        &mut self,
        env: &IssueEnv<'_>,
        memory: &mut GlobalMemory,
        local_mem: &mut [u32],
        cache: &mut SharedCache,
        now: u64,
        scratch: &mut ScalarScratch,
    ) -> Result<StepOut, SimError> {
        let Some(pc) = self.min_active_pc() else {
            self.done = true;
            return Ok(StepOut::Retired);
        };
        let inst = *env
            .program
            .get(pc as usize)
            .ok_or(SimError::PcOutOfRange { pc })?;

        scratch.lanes.clear();
        scratch
            .lanes
            .extend((0..self.pcs.len()).filter(|&l| self.active[l] && self.pcs[l] == pc));
        let lanes = &scratch.lanes;
        let lane_count = lanes.len() as u32;
        let mut mem_ready: u64 = now;

        match inst {
            Inst::Alu { op, rd, rs1, rs2 } => {
                for &l in lanes {
                    let v = op.apply(self.reg(l, rs1), self.reg(l, rs2));
                    self.regs[l * 32 + rd.index()] = v;
                    self.pcs[l] = pc + 1;
                }
            }
            Inst::AluImm { op, rd, rs1, imm } => {
                for &l in lanes {
                    let v = op.apply(self.reg(l, rs1), imm as i32 as u32);
                    self.regs[l * 32 + rd.index()] = v;
                    self.pcs[l] = pc + 1;
                }
            }
            Inst::Lui { rd, imm } => {
                for &l in lanes {
                    self.regs[l * 32 + rd.index()] = u32::from(imm) << 16;
                    self.pcs[l] = pc + 1;
                }
            }
            Inst::ReadId { rd, src } => {
                for &l in lanes {
                    let v = match src {
                        IdSource::GlobalId => self.global_ids[l],
                        IdSource::LocalId => self.local_ids[l],
                        IdSource::GroupId => self.group_id,
                        IdSource::GroupSize => env.workgroup_size,
                        IdSource::GlobalSize => env.global_size,
                    };
                    self.regs[l * 32 + rd.index()] = v;
                    self.pcs[l] = pc + 1;
                }
            }
            Inst::Param { rd, idx: p } => {
                // `idx` is a free u8 in the encoding; a slot outside
                // the 8 RTM words is a typed error, not an index panic.
                let v = *env
                    .params
                    .get(p as usize)
                    .ok_or(SimError::ParamOutOfRange { pc, idx: p })?;
                for &l in lanes {
                    self.regs[l * 32 + rd.index()] = v;
                    self.pcs[l] = pc + 1;
                }
            }
            Inst::Lw { rd, rs1, imm } | Inst::Sw { rs1, rs2: rd, imm } => {
                let is_store = matches!(inst, Inst::Sw { .. });
                // Coalesce: unique lines accessed once, in first-touch
                // lane order (the arbitration order is architectural:
                // it decides bank/interface queueing).
                scratch.touched_lines.clear();
                for &l in lanes {
                    let addr = self.reg(l, rs1).wrapping_add(imm as i32 as u32);
                    if !addr.is_multiple_of(4) {
                        return Err(SimError::Unaligned { addr });
                    }
                    let widx = (addr / 4) as usize;
                    if widx >= memory.len() {
                        return Err(SimError::MemoryOutOfBounds { addr });
                    }
                    if is_store {
                        memory.store(widx, self.reg(l, rd));
                    } else {
                        self.regs[l * 32 + rd.index()] = memory[widx];
                    }
                    let line = u64::from(addr) / u64::from(cache.line_bytes());
                    if !scratch.touched_lines.contains(&line) {
                        scratch.touched_lines.push(line);
                        let ready = cache.access(now, u64::from(addr), is_store);
                        mem_ready = mem_ready.max(ready);
                    }
                    self.pcs[l] = pc + 1;
                }
            }
            Inst::Lwl { rd, rs1, imm } | Inst::Swl { rs1, rs2: rd, imm } => {
                let is_store = matches!(inst, Inst::Swl { .. });
                for &l in lanes {
                    let addr = self.reg(l, rs1).wrapping_add(imm as i32 as u32);
                    if !addr.is_multiple_of(4) {
                        return Err(SimError::Unaligned { addr });
                    }
                    let widx = (addr / 4) as usize;
                    if widx >= local_mem.len() {
                        return Err(SimError::LocalOutOfBounds { addr });
                    }
                    if is_store {
                        local_mem[widx] = self.reg(l, rd);
                    } else {
                        self.regs[l * 32 + rd.index()] = local_mem[widx];
                    }
                    self.pcs[l] = pc + 1;
                }
            }
            Inst::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                for &l in lanes {
                    let taken = cond.test(self.reg(l, rs1), self.reg(l, rs2));
                    self.pcs[l] = if taken { target } else { pc + 1 };
                }
            }
            Inst::Jmp { target } => {
                for &l in lanes {
                    self.pcs[l] = target;
                }
            }
            Inst::Bar => {
                // All active lanes must arrive together (uniform
                // control flow at barriers, as on real SIMT machines).
                let active_count = self.active.iter().filter(|&&a| a).count();
                if lanes.len() != active_count {
                    return Err(SimError::DivergentBarrier { pc });
                }
                self.at_barrier = true;
                // PCs advance only on release.
            }
            Inst::Ret => {
                for &l in lanes {
                    self.active[l] = false;
                }
                if self.active.iter().all(|&a| !a) {
                    self.done = true;
                }
            }
        }
        Ok(StepOut::Issued {
            inst,
            lane_count,
            mem_ready,
        })
    }

    fn observe(
        &self,
        env: &IssueEnv<'_>,
        memory_words: usize,
        local_words: usize,
        trace: &mut ExecTrace,
    ) {
        // Mirrors the selection at the top of `step`: min active PC,
        // then every active lane parked there, in ascending order.
        let Some(pc) = self.min_active_pc() else {
            return;
        };
        let lanes: Vec<usize> = (0..self.pcs.len())
            .filter(|&l| self.active[l] && self.pcs[l] == pc)
            .collect();
        observe_issue(
            trace,
            env,
            pc,
            lanes.len(),
            memory_words,
            local_words,
            |i, r| self.reg(lanes[i], r),
        );
    }

    fn release_from_barrier(&mut self, now: u64) {
        self.at_barrier = false;
        for l in 0..self.pcs.len() {
            if self.active[l] {
                self.pcs[l] += 1;
            }
        }
        self.ready_at = self.ready_at.max(now + 1);
    }

    fn fingerprint(&self, h: &mut DefaultHasher) {
        self.pcs.hash(h);
        self.active.hash(h);
        self.regs.hash(h);
        self.global_ids.hash(h);
        self.local_ids.hash(h);
        self.group_id.hash(h);
        self.done.hash(h);
        self.at_barrier.hash(h);
    }

    fn has_lane(&self, lane: u32) -> bool {
        (lane as usize) < self.pcs.len()
    }

    fn reg_slot(&mut self, lane: u32, reg: u8) -> Option<&mut u32> {
        if !self.has_lane(lane) {
            return None;
        }
        self.regs
            .get_mut(lane as usize * 32 + usize::from(reg & 31))
    }

    fn pc_slot(&mut self, lane: u32) -> Option<&mut u32> {
        self.pcs.get_mut(lane as usize)
    }

    fn toggle_exec(&mut self, lane: u32) {
        if let Some(a) = self.active.get_mut(lane as usize) {
            *a = !*a;
        }
    }

    fn clone_into_buf(&self, buf: &mut Self) {
        let mut pcs = std::mem::take(&mut buf.pcs);
        let mut active = std::mem::take(&mut buf.active);
        let mut regs = std::mem::take(&mut buf.regs);
        let mut global_ids = std::mem::take(&mut buf.global_ids);
        let mut local_ids = std::mem::take(&mut buf.local_ids);
        pcs.clone_from(&self.pcs);
        active.clone_from(&self.active);
        regs.clone_from(&self.regs);
        global_ids.clone_from(&self.global_ids);
        local_ids.clone_from(&self.local_ids);
        *buf = Self {
            pcs,
            active,
            regs,
            global_ids,
            local_ids,
            ..*self
        };
    }
}
