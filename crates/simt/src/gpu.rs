//! The cycle-level SIMT machine.
//!
//! Execution model (following the FGPU): work-items are grouped into
//! wavefronts of 64, wavefronts into workgroups; workgroups are
//! dispatched to CUs with free wavefront slots; each CU issues one
//! vector instruction per ready wavefront, occupying its 8 PEs for
//! `active_lanes / 8` beats. Divergence uses multi-PC lockstep: every
//! work-item keeps its own PC, and the wavefront executes the minimum
//! active PC each issue — arbitrary control flow is supported and the
//! serialization cost of divergence emerges naturally.

use crate::config::{AccelBackend, SimtConfig};
use crate::engine::{run_launch, Fork, LaunchRequest, ScalarWave};
use crate::fault::{
    FaultLog, FaultReport, HardenedOptions, HardenedRun, Injection, WatchdogConfig,
};
use crate::global_mem::GlobalMemory;
use crate::memsys::MemStats;
use crate::soa::{SoaWave, MAX_WF};
use crate::trace::ExecTrace;
use ggpu_isa::asm::{assemble, AssembleError};
use ggpu_isa::inst::Inst;
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

/// Local scratch (LRAM) words per CU. Public so site-map builders
/// (the `ggpu-fault` crate) can bound [`crate::FaultSite::LocalWord`]
/// coordinates to the live scratchpad.
pub const LOCAL_WORDS: usize = 4096;
/// Kernel parameter slots (FGPU runtime memory).
pub(crate) const PARAM_SLOTS: usize = 8;

/// A compiled kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Kernel name (for reports).
    pub name: String,
    /// The instruction stream.
    pub program: Vec<Inst>,
}

impl Kernel {
    /// Assembles a kernel from source text.
    ///
    /// # Errors
    ///
    /// Returns [`AssembleError`] on syntax errors.
    pub fn from_asm(name: impl Into<String>, source: &str) -> Result<Self, AssembleError> {
        Ok(Self {
            name: name.into(),
            program: assemble(source)?,
        })
    }

    /// Assembles a kernel and runs the static verifier as a pre-flight
    /// gate: the kernel is rejected if any deny-level diagnostic is
    /// found (out-of-range control flow, missing `ret`, local-memory
    /// races, divergent barriers, …). Warnings are retained in the
    /// returned report but do not reject.
    ///
    /// # Errors
    ///
    /// Returns [`KernelVerifyError::Asm`] on syntax errors and
    /// [`KernelVerifyError::Lint`] (carrying the full report, whose
    /// subject is `name`) when the verifier denies the program. Every
    /// call runs [`ggpu_lint::verify_program`] in full; nothing is
    /// remembered between calls.
    pub fn from_asm_verified(
        name: impl Into<String>,
        source: &str,
    ) -> Result<Self, KernelVerifyError> {
        let name = name.into();
        let program = assemble(source).map_err(KernelVerifyError::Asm)?;
        let config = ggpu_lint::LintConfig::new();
        let report = ggpu_lint::verify_program(&name, &program, &config);
        if report.denial_count() > 0 {
            return Err(KernelVerifyError::Lint(report));
        }
        Ok(Self { name, program })
    }

    /// Runs the static verifier over the (already assembled) program
    /// under the default policy.
    pub fn lint(&self) -> ggpu_lint::Report {
        ggpu_lint::verify_program(&self.name, &self.program, &ggpu_lint::LintConfig::new())
    }
}

/// Why [`Kernel::from_asm_verified`] rejected a kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelVerifyError {
    /// The source failed to assemble.
    Asm(AssembleError),
    /// The verifier found deny-level diagnostics; the report carries
    /// every finding.
    Lint(ggpu_lint::Report),
}

impl fmt::Display for KernelVerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelVerifyError::Asm(e) => write!(f, "assembly: {e}"),
            KernelVerifyError::Lint(report) => {
                write!(f, "static verification denied: {report}")
            }
        }
    }
}

impl Error for KernelVerifyError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            KernelVerifyError::Asm(e) => Some(e),
            KernelVerifyError::Lint(_) => None,
        }
    }
}

impl From<AssembleError> for KernelVerifyError {
    fn from(e: AssembleError) -> Self {
        KernelVerifyError::Asm(e)
    }
}

/// Kernel launch geometry and arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Launch {
    /// Total number of work-items.
    pub global_size: u32,
    /// Work-items per workgroup.
    pub workgroup_size: u32,
    /// Kernel arguments (up to 8 words, the FGPU's RTM parameters).
    pub params: Vec<u32>,
}

impl Launch {
    /// A launch with the given geometry and arguments.
    pub fn new(global_size: u32, workgroup_size: u32, params: Vec<u32>) -> Self {
        Self {
            global_size,
            workgroup_size,
            params,
        }
    }
}

/// Simulator errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The launch parameters are invalid.
    BadLaunch(String),
    /// A global-memory access fell outside the configured memory.
    MemoryOutOfBounds {
        /// The offending byte address.
        addr: u32,
    },
    /// A global/local access was not word-aligned.
    Unaligned {
        /// The offending byte address.
        addr: u32,
    },
    /// A local-memory access fell outside the CU scratch.
    LocalOutOfBounds {
        /// The offending byte address.
        addr: u32,
    },
    /// Control flow left the program.
    PcOutOfRange {
        /// The offending instruction index.
        pc: u32,
    },
    /// A wavefront reached a workgroup barrier with divergent control
    /// flow (not all active lanes arrived together).
    DivergentBarrier {
        /// The barrier's instruction index.
        pc: u32,
    },
    /// The cycle ceiling was hit (runaway kernel).
    CycleLimit {
        /// The configured ceiling.
        limit: u64,
    },
    /// The machine configuration is structurally invalid (zero-sized
    /// geometry that would divide by zero inside the memory system).
    BadConfig(String),
    /// A `param` instruction named a slot outside the RTM's 8
    /// parameter words.
    ParamOutOfRange {
        /// The offending instruction index.
        pc: u32,
        /// The requested parameter slot.
        idx: u8,
    },
    /// The retirement-progress watchdog found no architectural
    /// progress across consecutive heartbeats: livelock.
    Watchdog {
        /// Cycle at which the watchdog fired.
        cycle: u64,
    },
    /// An injected fault was detected by parity/SEC-DED but could not
    /// be corrected — graceful degradation instead of silent data
    /// corruption.
    UncorrectableFault(FaultReport),
    /// A live compute unit had no schedulable event: every resident
    /// wavefront was parked at a barrier that can never release. The
    /// release check runs whenever a group member arrives at a barrier
    /// or retires, whatever retired it (a `ret` or an exec-mask upset
    /// that cleared its last lane), so no kernel or fault plan reaches
    /// this state: a stall means a simulator bug. It is reported
    /// instead of silently re-polling every cycle.
    SchedulerStall {
        /// Cycle at which the scheduler found no event.
        cycle: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadLaunch(m) => write!(f, "bad launch: {m}"),
            SimError::MemoryOutOfBounds { addr } => {
                write!(f, "global memory access at {addr:#x} out of bounds")
            }
            SimError::Unaligned { addr } => write!(f, "unaligned word access at {addr:#x}"),
            SimError::LocalOutOfBounds { addr } => {
                write!(f, "local memory access at {addr:#x} out of bounds")
            }
            SimError::PcOutOfRange { pc } => write!(f, "pc {pc} outside program"),
            SimError::DivergentBarrier { pc } => {
                write!(f, "divergent control flow at barrier (pc {pc})")
            }
            SimError::CycleLimit { limit } => write!(f, "cycle limit {limit} exceeded"),
            SimError::BadConfig(m) => write!(f, "bad machine configuration: {m}"),
            SimError::ParamOutOfRange { pc, idx } => {
                write!(f, "param slot {idx} out of range at pc {pc}")
            }
            SimError::Watchdog { cycle } => {
                write!(f, "watchdog: no architectural progress by cycle {cycle}")
            }
            SimError::UncorrectableFault(report) => report.fmt(f),
            SimError::SchedulerStall { cycle } => {
                write!(f, "no schedulable event at cycle {cycle} (all-waiting CU)")
            }
        }
    }
}

impl Error for SimError {}

/// Counters of one kernel run.
///
/// Equality compares only the *architectural* counters (cycles,
/// instruction/stall/busy counts and memory statistics). The two
/// host-side performance fields — [`RunStats::sim_wall`] and
/// [`RunStats::sched_iterations`] — are excluded, so a run under the
/// event-driven scheduler compares equal to the same run under the
/// cycle-stepping reference even though the host cost differs.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Total cycles until the last wavefront finished.
    pub cycles: u64,
    /// Vector instructions issued.
    pub vector_instructions: u64,
    /// Per-lane operations executed.
    pub lane_ops: u64,
    /// Wavefronts executed.
    pub wavefronts: u64,
    /// Workgroups executed.
    pub workgroups: u64,
    /// CU-cycles in which a CU held live wavefronts but none was
    /// ready to issue (all stalled on memory or long-latency results).
    pub stall_cycles: u64,
    /// CU-cycles spent with the issue stage occupied (vector beats,
    /// including serialized divides).
    pub busy_cycles: u64,
    /// Always 0: the LRAM serves every lane in its scheduled beat, so
    /// no issue waits on a bank conflict. Kept only because the
    /// benchmark and the Table III `RunStats` golden still print it.
    pub lram_conflict_cycles: u64,
    /// Memory-system counters.
    pub mem: MemStats,
    /// Host wall-clock time spent inside the simulator for this run.
    pub sim_wall: Duration,
    /// Scheduler-loop passes the run took on the host. The
    /// cycle-stepping reference performs one pass per simulated cycle;
    /// the event-driven scheduler performs one per *event*, so the
    /// ratio between the two is the direct measure of skipped idle
    /// cycles.
    pub sched_iterations: u64,
}

impl PartialEq for RunStats {
    fn eq(&self, other: &Self) -> bool {
        // Host-perf fields (sim_wall, sched_iterations) intentionally
        // excluded: they describe the simulator, not the simulation.
        self.cycles == other.cycles
            && self.vector_instructions == other.vector_instructions
            && self.lane_ops == other.lane_ops
            && self.wavefronts == other.wavefronts
            && self.workgroups == other.workgroups
            && self.stall_cycles == other.stall_cycles
            && self.busy_cycles == other.busy_cycles
            && self.lram_conflict_cycles == other.lram_conflict_cycles
            && self.mem == other.mem
    }
}

impl Eq for RunStats {}

impl RunStats {
    /// Issue occupancy: fraction of CU-cycles that issued work, out of
    /// all CU-cycles with resident wavefronts.
    pub fn occupancy(&self) -> f64 {
        let total = self.busy_cycles + self.stall_cycles;
        if total == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / total as f64
        }
    }

    /// Simulation throughput: simulated cycles per host second.
    ///
    /// Returns 0.0 when the run was too fast for the host clock to
    /// resolve.
    pub fn simulated_cycles_per_second(&self) -> f64 {
        let secs = self.sim_wall.as_secs_f64();
        if secs > 0.0 {
            self.cycles as f64 / secs
        } else {
            0.0
        }
    }
}

/// The SIMT machine: configuration plus global memory.
pub struct Gpu {
    config: SimtConfig,
    memory: GlobalMemory,
}

impl fmt::Debug for Gpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gpu")
            .field("config", &self.config)
            .field("memory_words", &self.memory.len())
            .finish()
    }
}

impl Gpu {
    /// Creates a machine with `memory_words` words of zeroed global
    /// memory.
    pub fn new(config: SimtConfig, memory_words: usize) -> Self {
        Self {
            config,
            memory: GlobalMemory::zeroed(memory_words),
        }
    }

    /// Returns global memory to its [`Gpu::new`] state, all zeros.
    /// Only the 4 KiB pages written since the machine was built or
    /// last reset are cleared (by launches, faulting ones included,
    /// by injected upsets and by [`Gpu::write_words`]), so the cost
    /// scales with what the last run wrote, not with the memory size.
    pub fn reset(&mut self) {
        self.memory.reset();
    }

    /// The machine configuration.
    pub fn config(&self) -> &SimtConfig {
        &self.config
    }

    /// Global memory size in bytes.
    pub fn memory_bytes(&self) -> u32 {
        (self.memory.len() * 4) as u32
    }

    /// Copies words into global memory at a byte address.
    ///
    /// # Errors
    ///
    /// Fails on unaligned or out-of-bounds addresses.
    pub fn write_words(&mut self, byte_addr: u32, data: &[u32]) -> Result<(), SimError> {
        let start = self.word_index(byte_addr)?;
        self.words_end(byte_addr, start, data.len())?;
        self.memory.store_slice(start, data);
        Ok(())
    }

    /// Reads words from global memory at a byte address.
    ///
    /// # Errors
    ///
    /// Fails on unaligned or out-of-bounds addresses.
    pub fn read_words(&self, byte_addr: u32, len: usize) -> Result<Vec<u32>, SimError> {
        let start = self.word_index(byte_addr)?;
        let end = self.words_end(byte_addr, start, len)?;
        Ok(self.memory[start..end].to_vec())
    }

    /// The word index one past `len` words from word `start` (at
    /// `byte_addr`), or the out-of-bounds error at the byte address one
    /// past the range, saturated to `u32::MAX`.
    fn words_end(&self, byte_addr: u32, start: usize, len: usize) -> Result<usize, SimError> {
        match start.checked_add(len) {
            Some(end) if end <= self.memory.len() => Ok(end),
            _ => Err(SimError::MemoryOutOfBounds {
                addr: u32::try_from(len)
                    .ok()
                    .and_then(|len| len.checked_mul(4))
                    .and_then(|bytes| byte_addr.checked_add(bytes))
                    .unwrap_or(u32::MAX),
            }),
        }
    }

    fn word_index(&self, byte_addr: u32) -> Result<usize, SimError> {
        if !byte_addr.is_multiple_of(4) {
            return Err(SimError::Unaligned { addr: byte_addr });
        }
        let idx = (byte_addr / 4) as usize;
        if idx >= self.memory.len() {
            return Err(SimError::MemoryOutOfBounds { addr: byte_addr });
        }
        Ok(idx)
    }

    /// Runs `kernel` with the given launch geometry to completion
    /// using the event-driven scheduler.
    ///
    /// Instead of stepping time one cycle at a time, the scheduler
    /// jumps straight to the next timestamp at which any compute unit
    /// can change state (issue-stage release, operand or memory
    /// readiness, barrier release, workgroup dispatch), folding the
    /// busy/stall accounting of the skipped cycles into closed-form
    /// sums. The resulting [`RunStats`] are bit-identical to the
    /// cycle-stepping reference ([`Gpu::launch_reference`]); only the
    /// host-side `sched_iterations` and `sim_wall` fields differ, and
    /// those are excluded from `RunStats` equality.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on invalid launches, memory faults,
    /// control flow leaving the program, or the cycle ceiling.
    pub fn launch(&mut self, kernel: &Kernel, launch: &Launch) -> Result<RunStats, SimError> {
        self.launch_impl(kernel, launch, false, None, None, None)
    }

    /// Runs `kernel` while recording a concrete execution trace into
    /// `trace` — the soundness oracle for the abstract interpreter in
    /// `ggpu-lint` (see [`ExecTrace`]). The run itself is bit-identical
    /// to [`Gpu::launch`]: the observe hook is read-only and fires
    /// immediately before each issue, so the trace also covers the
    /// issue a faulting run dies on.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] exactly as [`Gpu::launch`] does; on error
    /// the trace still holds everything observed up to and including
    /// the faulting issue.
    pub fn launch_traced(
        &mut self,
        kernel: &Kernel,
        launch: &Launch,
        trace: &mut ExecTrace,
    ) -> Result<RunStats, SimError> {
        self.launch_impl(kernel, launch, false, None, Some(trace), None)
    }

    /// Runs `kernel` under the fault-injection / watchdog harness.
    ///
    /// The harness acts only at scheduler passes that already exist:
    /// pending injections land at the first pass at or after their
    /// cycle, and the watchdog heartbeat is evaluated at the first
    /// pass past each deadline. With an empty
    /// [`crate::fault::FaultPlan`] the run is **bit-identical** to
    /// [`Gpu::launch`] — same cycles, same [`RunStats`], same memory
    /// image — whether or not the watchdog is enabled, because a
    /// no-progress check mutates nothing.
    ///
    /// # Errors
    ///
    /// All of [`Gpu::launch`]'s errors, plus
    /// [`SimError::UncorrectableFault`] when a detected-uncorrectable
    /// fault occurs and [`SimError::Watchdog`] on livelock. Injected
    /// corruption may also surface as any ordinary [`SimError`]
    /// (e.g. a flipped PC leaving the program) — never as a panic.
    pub fn launch_hardened(
        &mut self,
        kernel: &Kernel,
        launch: &Launch,
        opts: &HardenedOptions,
    ) -> Result<HardenedRun, SimError> {
        let mut hard = HardenState::new(opts.plan.injections(), opts.watchdog);
        let stats = self.launch_impl(kernel, launch, false, Some(&mut hard), None, None)?;
        Ok(HardenedRun {
            stats,
            log: hard.log,
        })
    }

    /// Runs `kernel` fault-free under the hardened harness once and
    /// forks every single-injection run from it.
    ///
    /// For each `injections[i]`, `visit(i, result, image)` receives
    /// exactly what [`Gpu::launch_hardened`] with a plan of that one
    /// injection (and this `watchdog`) gives on this machine: the
    /// result (`RunStats`, fault log or typed error) and the whole
    /// global-memory image the run leaves. Only the host-side
    /// `sim_wall` differs: it is zero for a visited run.
    ///
    /// Injections are taken in cycle order, at the first scheduler
    /// pass at or after their cycle, where a hardened launch would
    /// apply them:
    ///
    /// * one that changes no state (a vacant site, a SEC-DED
    ///   correction, flips that cancel) is answered from the
    ///   fault-free run and visited once that run has finished;
    /// * so is one that lands in state the launch never reads or
    ///   writes, with its one logged event: a register no instruction
    ///   names, the LRAM of a program without `lwl` and `swl`, or a
    ///   global word in a 4 KiB page of which the fault-free run fills
    ///   no cache line. A global one is visited with the fault-free
    ///   image with its flip applied, which is undone afterwards;
    /// * one that parity or SEC-DED detects is visited on the spot
    ///   with [`SimError::UncorrectableFault`];
    /// * any other landing one saves the scheduler state (CUs, cache,
    ///   AXI interfaces, dispatch position, counters, watchdog, cycle)
    ///   and the written global-memory pages, runs the faulted rest of
    ///   the launch, visits, and restores.
    ///
    /// The filled pages come from a fault-free hardened pre-pass on a
    /// machine of its own, run first, between a save and a restore of
    /// the written pages. It is skipped when no injection could land
    /// in such a site, and its pages count only when it completes (a
    /// launch starts with a cold cache, and every global load and store
    /// accesses its line). Registers and the LRAM are in the watchdog's
    /// fingerprint, so an upset there resets a streak of unchanged
    /// fingerprints that was building: they are answered this way only
    /// when the pre-pass's watchdog never saw an unchanged fingerprint.
    /// Global memory is not in the fingerprint. These answers are exact
    /// up to a collision of the watchdog's 64-bit fingerprint, which
    /// its verdicts already assume.
    ///
    /// Injections past the last pass are never applied and are visited
    /// with the fault-free result and an empty log. The machine is
    /// left holding the fault-free run's memory image.
    ///
    /// # Errors
    ///
    /// Returns the fault-free run's own result: [`Gpu::launch`]'s
    /// errors, or [`SimError::Watchdog`] on livelock. When the launch
    /// fails validation ([`SimError::BadLaunch`],
    /// [`SimError::BadConfig`]) nothing runs and `visit` is never
    /// called; otherwise it is called exactly once per injection.
    pub fn launch_forked(
        &mut self,
        kernel: &Kernel,
        launch: &Launch,
        watchdog: Option<WatchdogConfig>,
        injections: &[Injection],
        mut visit: impl FnMut(usize, Result<HardenedRun, SimError>, &[u32]),
    ) -> Result<HardenedRun, SimError> {
        let mut hard = HardenState::new(&[], watchdog);
        let fork = Fork {
            injections,
            visit: &mut visit,
        };
        let stats = self.launch_impl(kernel, launch, false, Some(&mut hard), None, Some(fork))?;
        Ok(HardenedRun {
            stats,
            log: FaultLog::default(),
        })
    }

    /// Runs `kernel` under the cycle-stepping reference scheduler —
    /// the plain `now += 1` loop that visits every simulated cycle — on
    /// the scalar engine, whatever [`SimtConfig::backend`] says.
    ///
    /// This is the validation oracle for [`Gpu::launch`]: both
    /// schedulers execute the *same* per-cycle pass, so any change to
    /// the event-driven fast path can be checked for bit-identical
    /// architectural counters against this one. It is dramatically
    /// slower on memory-bound or barrier-heavy kernels and exists for
    /// verification, not for use.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] exactly as [`Gpu::launch`] does.
    pub fn launch_reference(
        &mut self,
        kernel: &Kernel,
        launch: &Launch,
    ) -> Result<RunStats, SimError> {
        self.launch_impl(kernel, launch, true, None, None, None)
    }

    /// Validates the launch and runs it on the engine the configured
    /// backend selects ([`AccelBackend::Scalar`] for the `reference`
    /// driver).
    fn launch_impl<'a>(
        &'a mut self,
        kernel: &'a Kernel,
        launch: &Launch,
        reference: bool,
        hard: Option<&'a mut HardenState>,
        trace: Option<&'a mut ExecTrace>,
        fork: Option<Fork<'a>>,
    ) -> Result<RunStats, SimError> {
        let wall = Instant::now();
        self.config.validate().map_err(SimError::BadConfig)?;
        if kernel.program.is_empty() {
            return Err(SimError::BadLaunch("empty program".into()));
        }
        if launch.global_size == 0 {
            return Err(SimError::BadLaunch("zero global size".into()));
        }
        let max_wg = self.config.wavefront_size * self.config.max_wavefronts_per_cu;
        if launch.workgroup_size == 0 || launch.workgroup_size > max_wg {
            return Err(SimError::BadLaunch(format!(
                "workgroup size {} outside 1-{max_wg}",
                launch.workgroup_size
            )));
        }
        if launch.params.len() > PARAM_SLOTS {
            return Err(SimError::BadLaunch(format!(
                "{} kernel parameters exceed the {PARAM_SLOTS} RTM slots",
                launch.params.len()
            )));
        }
        let mut params = [0u32; PARAM_SLOTS];
        params[..launch.params.len()].copy_from_slice(&launch.params);

        let backend = if reference {
            AccelBackend::Scalar
        } else {
            self.config.backend
        };
        let wide = self.config.wavefront_size > MAX_WF;
        let req = LaunchRequest {
            config: self.config,
            program: &kernel.program,
            params,
            global_size: launch.global_size,
            workgroup_size: launch.workgroup_size,
            memory: &mut self.memory,
            reference,
            hard,
            trace,
            fork,
        };
        // `Auto` runs the SoA engine unless the wavefront is wider than
        // its one exec-mask word; an explicit `Soa` is refused there,
        // never silently demoted.
        let mut stats = match (backend, wide) {
            (AccelBackend::Scalar, _) | (AccelBackend::Auto, true) => run_launch::<ScalarWave>(req),
            (AccelBackend::Soa, true) => Err(SimError::BadConfig(format!(
                "SoA backend supports wavefront_size <= {MAX_WF} (one exec-mask word), got {}",
                self.config.wavefront_size
            ))),
            (AccelBackend::Auto | AccelBackend::Soa, false) => run_launch::<SoaWave>(req),
        }?;
        stats.sim_wall = wall.elapsed();
        Ok(stats)
    }
}

/// Mutable state of the fault-injection / watchdog harness for one
/// hardened run. Owned by [`Gpu::launch_hardened`] and lent to the
/// scheduler; `None` in the scheduler means a plain run and the
/// harness hook is an exact no-op.
pub(crate) struct HardenState {
    /// Injections sorted by cycle (from the [`crate::fault::FaultPlan`]).
    pub(crate) injections: Vec<Injection>,
    /// Next injection to apply.
    pub(crate) next_inj: usize,
    /// Watchdog configuration, if enabled.
    pub(crate) watchdog: Option<WatchdogConfig>,
    /// The watchdog's progress record.
    pub(crate) watchdog_state: WatchdogState,
    /// Applied injections and their outcomes.
    pub(crate) log: FaultLog,
}

/// What the retirement-progress watchdog remembers between heartbeats.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WatchdogState {
    /// Next heartbeat deadline.
    pub(crate) next: u64,
    /// Fingerprint at the previous armed check.
    pub(crate) last_fp: u64,
    /// Whether `last_fp` holds a real sample yet.
    pub(crate) fp_valid: bool,
    /// Consecutive armed checks with an unchanged fingerprint.
    pub(crate) streak: u32,
    /// `vector_instructions` at the previous check (activity gate).
    pub(crate) last_instr: u64,
    /// Some armed check saw an unchanged fingerprint (read by the fork
    /// driver's fault-free pre-pass).
    pub(crate) repeated: bool,
}

impl HardenState {
    pub(crate) fn new(injections: &[Injection], watchdog: Option<WatchdogConfig>) -> Self {
        Self {
            injections: injections.to_vec(),
            next_inj: 0,
            watchdog,
            watchdog_state: WatchdogState::default(),
            log: FaultLog::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu(cus: u32) -> Gpu {
        Gpu::new(SimtConfig::with_cus(cus), 1 << 18) // 1 MiB
    }

    /// out[i] = in[i] + 1 over n items; in @ param0, out @ param1.
    const INCR: &str = "
        gid   r1
        param r2, 0
        param r3, 1
        slli  r4, r1, 2
        add   r5, r4, r2
        lw    r6, r5, 0
        addi  r6, r6, 1
        add   r7, r4, r3
        sw    r7, r6, 0
        ret
    ";

    #[test]
    fn functional_increment() {
        let mut g = gpu(1);
        let n = 256u32;
        let input: Vec<u32> = (0..n).map(|i| i * 3).collect();
        g.write_words(0x1000, &input).unwrap();
        let k = Kernel::from_asm("incr", INCR).unwrap();
        let stats = g
            .launch(&k, &Launch::new(n, 64, vec![0x1000, 0x8000]))
            .unwrap();
        let out = g.read_words(0x8000, n as usize).unwrap();
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i as u32) * 3 + 1, "item {i}");
        }
        assert!(stats.cycles > 0);
        assert_eq!(stats.workgroups, 4);
        assert_eq!(stats.wavefronts, 4);
    }

    #[test]
    fn more_cus_are_faster() {
        let k = Kernel::from_asm("incr", INCR).unwrap();
        let n = 4096u32;
        let input: Vec<u32> = (0..n).collect();
        let mut cycles = Vec::new();
        for cus in [1u32, 2, 4] {
            let mut g = gpu(cus);
            g.write_words(0x1000, &input).unwrap();
            let s = g
                .launch(&k, &Launch::new(n, 256, vec![0x1000, 0x10000]))
                .unwrap();
            cycles.push(s.cycles);
        }
        assert!(cycles[1] < cycles[0], "2 CUs beat 1: {cycles:?}");
        assert!(cycles[2] < cycles[1], "4 CUs beat 2: {cycles:?}");
    }

    #[test]
    fn divergent_kernel_is_slower_than_uniform() {
        // Both kernels run the same instruction count per item, but one
        // branches on gid parity (splitting every wavefront) while the
        // other branches uniformly.
        let divergent = "
            gid  r1
            andi r2, r1, 1
            addi r3, r0, 16
            beq  r2, r0, even
            odd_loop:
            addi r4, r4, 1
            blt  r4, r3, odd_loop
            ret
            even:
            even_loop:
            addi r4, r4, 1
            blt  r4, r3, even_loop
            ret
        ";
        let uniform = divergent.replace("andi r2, r1, 1", "andi r2, r0, 1");
        let k_div = Kernel::from_asm("div", divergent).unwrap();
        let k_uni = Kernel::from_asm("uni", &uniform).unwrap();
        let launch = Launch::new(1024, 256, vec![]);
        let c_div = gpu(1).launch(&k_div, &launch).unwrap().cycles;
        let c_uni = gpu(1).launch(&k_uni, &launch).unwrap().cycles;
        assert!(
            c_div > c_uni,
            "divergence must cost cycles: {c_div} vs {c_uni}"
        );
    }

    #[test]
    fn cache_hits_make_reuse_cheap() {
        // Sum the same small buffer from every work-item: after warmup
        // everything hits.
        let k = Kernel::from_asm(
            "reuse",
            "
            param r2, 0
            addi  r3, r0, 0    ; i
            addi  r4, r0, 16   ; count
            loop:
            slli  r5, r3, 2
            add   r5, r5, r2
            lw    r6, r5, 0
            add   r7, r7, r6
            addi  r3, r3, 1
            blt   r3, r4, loop
            ret
            ",
        )
        .unwrap();
        let mut g = gpu(1);
        g.write_words(0, &[1u32; 16]).unwrap();
        let stats = g.launch(&k, &Launch::new(512, 512, vec![0])).unwrap();
        assert!(
            stats.mem.miss_ratio() < 0.05,
            "miss ratio {}",
            stats.mem.miss_ratio()
        );
    }

    #[test]
    fn launch_validation() {
        let mut g = gpu(1);
        let k = Kernel::from_asm("k", "ret").unwrap();
        assert!(matches!(
            g.launch(&k, &Launch::new(0, 64, vec![])),
            Err(SimError::BadLaunch(_))
        ));
        assert!(matches!(
            g.launch(&k, &Launch::new(64, 0, vec![])),
            Err(SimError::BadLaunch(_))
        ));
        assert!(matches!(
            g.launch(&k, &Launch::new(64, 1024, vec![])),
            Err(SimError::BadLaunch(_))
        ));
        assert!(matches!(
            g.launch(&k, &Launch::new(64, 64, vec![0; 9])),
            Err(SimError::BadLaunch(_))
        ));
        let empty = Kernel {
            name: "e".into(),
            program: vec![],
        };
        assert!(matches!(
            g.launch(&empty, &Launch::new(64, 64, vec![])),
            Err(SimError::BadLaunch(_))
        ));
    }

    #[test]
    fn memory_faults_are_reported() {
        let mut g = gpu(1);
        let k = Kernel::from_asm("oob", "lui r1, 0x7fff\nlw r2, r1, 0\nret").unwrap();
        assert!(matches!(
            g.launch(&k, &Launch::new(1, 1, vec![])),
            Err(SimError::MemoryOutOfBounds { .. })
        ));
        let k2 = Kernel::from_asm("unaligned", "addi r1, r0, 2\nlw r2, r1, 0\nret").unwrap();
        assert!(matches!(
            g.launch(&k2, &Launch::new(1, 1, vec![])),
            Err(SimError::Unaligned { .. })
        ));
    }

    #[test]
    fn word_staging_past_memory_is_a_typed_error() {
        let mut g = Gpu::new(SimtConfig::with_cus(1), 1024);
        let oob = |addr| SimError::MemoryOutOfBounds { addr };
        assert_eq!(g.read_words(4, usize::MAX).unwrap_err(), oob(u32::MAX));
        assert_eq!(g.read_words(0, 1 << 31).unwrap_err(), oob(u32::MAX));
        assert_eq!(g.read_words(4092, 2).unwrap_err(), oob(4100));
        assert_eq!(g.write_words(4092, &[1, 2]).unwrap_err(), oob(4100));
        assert_eq!(g.read_words(4092, 1), Ok(vec![0]));
    }

    #[test]
    fn runaway_kernel_hits_cycle_limit() {
        let mut cfg = SimtConfig::with_cus(1);
        cfg.max_cycles = 10_000;
        let mut g = Gpu::new(cfg, 1024);
        let k = Kernel::from_asm("spin", "forever: jmp forever").unwrap();
        assert!(matches!(
            g.launch(&k, &Launch::new(64, 64, vec![])),
            Err(SimError::CycleLimit { limit: 10_000 })
        ));
    }

    #[test]
    fn local_memory_is_per_cu_scratch() {
        let k = Kernel::from_asm(
            "lram",
            "
            lid  r1
            slli r2, r1, 2
            addi r3, r0, 7
            swl  r2, r3, 0
            lwl  r4, r2, 0
            param r5, 0
            gid  r6
            slli r6, r6, 2
            add  r5, r5, r6
            sw   r5, r4, 0
            ret
            ",
        )
        .unwrap();
        let mut g = gpu(2);
        let stats = g.launch(&k, &Launch::new(128, 64, vec![0x4000])).unwrap();
        let out = g.read_words(0x4000, 128).unwrap();
        assert!(out.iter().all(|&v| v == 7));
        assert!(stats.mem.accesses > 0, "global stores went via cache");
    }

    #[test]
    fn partial_wavefront_and_group() {
        // 70 items in groups of 64: one full WF + one 6-item WF.
        let mut g = gpu(1);
        let input: Vec<u32> = (0..70).collect();
        g.write_words(0x1000, &input).unwrap();
        let k = Kernel::from_asm("incr", INCR).unwrap();
        let stats = g
            .launch(&k, &Launch::new(70, 64, vec![0x1000, 0x8000]))
            .unwrap();
        assert_eq!(stats.workgroups, 2);
        let out = g.read_words(0x8000, 70).unwrap();
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32 + 1));
    }

    #[test]
    fn verified_construction_gates_on_the_static_verifier() {
        // Falls through its end: K004 is deny-level. The same source
        // under two names reports each name.
        let falls_through = "gid r1\nsw r1, r1, 0";
        for name in ["falls_through", "renamed"] {
            match Kernel::from_asm_verified(name, falls_through) {
                Err(KernelVerifyError::Lint(report)) => {
                    assert_eq!(report.subject, name);
                    assert!(report.has(ggpu_lint::Code::K004), "{report}");
                }
                other => panic!("{name}: expected a lint rejection, got {other:?}"),
            }
        }
        assert!(matches!(
            Kernel::from_asm_verified("bad_syntax", "gid r1\nfrobnicate r2\nret"),
            Err(KernelVerifyError::Asm(_))
        ));
        let (name, source) = ggpu_lint::SHIPPED_KERNELS
            .into_iter()
            .find(|(name, _)| *name == "copy")
            .expect("copy ships");
        let kernel = Kernel::from_asm_verified(name, source).expect("copy passes the gate");
        assert_eq!(kernel, Kernel::from_asm(name, source).unwrap());
    }
}

#[cfg(test)]
mod hardened_tests {
    use super::*;
    use crate::fault::{
        FaultPlan, FaultSite, HardenedOptions, Injection, InjectionOutcome, Protection,
    };

    /// out[i] = in[i] + 1 over n items; in @ param0, out @ param1.
    const INCR: &str = "
        gid   r1
        param r2, 0
        param r3, 1
        slli  r4, r1, 2
        add   r5, r4, r2
        lw    r6, r5, 0
        addi  r6, r6, 1
        add   r7, r4, r3
        sw    r7, r6, 0
        ret
    ";

    fn incr_gpu() -> (Gpu, Kernel, Launch) {
        let mut g = Gpu::new(SimtConfig::with_cus(1), 1 << 16);
        let input: Vec<u32> = (0..256).map(|i| i * 3).collect();
        g.write_words(0x1000, &input).unwrap();
        let k = Kernel::from_asm("incr", INCR).unwrap();
        (g, k, Launch::new(256, 64, vec![0x1000, 0x8000]))
    }

    #[test]
    fn zero_injection_run_is_bit_identical_with_watchdog_on() {
        let (mut plain, k, launch) = incr_gpu();
        let base = plain.launch(&k, &launch).unwrap();
        let base_mem = plain.read_words(0, 1 << 14).unwrap();

        let (mut hard, k, launch) = incr_gpu();
        let opts = HardenedOptions {
            plan: FaultPlan::empty(),
            watchdog: Some(WatchdogConfig::default()),
        };
        let run = hard.launch_hardened(&k, &launch, &opts).unwrap();
        assert_eq!(run.stats, base, "RunStats must be bit-identical");
        assert_eq!(run.stats.cycles, base.cycles);
        assert_eq!(
            hard.read_words(0, 1 << 14).unwrap(),
            base_mem,
            "memory image must be bit-identical"
        );
        assert!(run.log.events.is_empty());
    }

    #[test]
    fn watchdog_flags_spin_kernel_within_10k_cycles() {
        // The spin kernel is only caught by max_cycles (400M default)
        // without the watchdog; the heartbeat must flag it in < 10k
        // simulated cycles.
        let mut g = Gpu::new(SimtConfig::with_cus(1), 1024);
        let k = Kernel::from_asm("spin", "forever: jmp forever").unwrap();
        let opts = HardenedOptions {
            plan: FaultPlan::empty(),
            watchdog: Some(WatchdogConfig::default()),
        };
        let err = g
            .launch_hardened(&k, &Launch::new(64, 64, vec![]), &opts)
            .unwrap_err();
        match err {
            SimError::Watchdog { cycle } => {
                assert!(cycle < 10_000, "flagged at cycle {cycle}, need < 10k");
            }
            other => panic!("expected watchdog, got {other}"),
        }
    }

    #[test]
    fn watchdog_leaves_long_convergent_kernel_untouched() {
        // A loop that runs far longer than several watchdog intervals
        // but makes progress (counter register changes) every
        // iteration must complete normally, bit-identical to plain.
        let src = "
            addi r2, r0, 4000
            loop:
            addi r3, r3, 1
            add  r4, r4, r3
            bne  r3, r2, loop
            param r5, 0
            sw   r5, r4, 0
            ret
        ";
        let k = Kernel::from_asm("converge", src).unwrap();
        let launch = Launch::new(64, 64, vec![0x100]);
        let mut plain = Gpu::new(SimtConfig::with_cus(1), 1024);
        let base = plain.launch(&k, &launch).unwrap();
        assert!(
            base.cycles > 8 * WatchdogConfig::default().interval,
            "kernel must span several heartbeats ({} cycles)",
            base.cycles
        );
        let mut hard = Gpu::new(SimtConfig::with_cus(1), 1024);
        let opts = HardenedOptions {
            plan: FaultPlan::empty(),
            watchdog: Some(WatchdogConfig::default()),
        };
        let run = hard.launch_hardened(&k, &launch, &opts).unwrap();
        assert_eq!(run.stats, base);
        assert_eq!(
            plain.read_words(0x100, 1).unwrap(),
            hard.read_words(0x100, 1).unwrap()
        );
    }

    #[test]
    fn unprotected_register_flip_corrupts_output() {
        // Flip a bit of r1 (the gid) in lane 0 of slot 0 right after
        // dispatch (cycle 1 — at cycle 0 nothing is resident yet):
        // silent data corruption the campaign will classify as SDC.
        let (mut g, k, launch) = incr_gpu();
        let inj = Injection::single(
            1,
            FaultSite::Register {
                cu: 0,
                slot: 0,
                lane: 0,
                reg: 1,
            },
            7,
            Protection::None,
        )
        .with_label("cu/pe/rf_bank");
        let opts = HardenedOptions {
            plan: FaultPlan::new(vec![inj]),
            watchdog: None,
        };
        let run = g.launch_hardened(&k, &launch, &opts).unwrap();
        assert_eq!(run.log.count(InjectionOutcome::Applied), 1);
        // r1 (gid) flipped by 128 in lane 0: its output lands at the
        // wrong address / wrong value — the image differs.
        let (plain_gpu, k2, launch2) = incr_gpu();
        let mut plain_gpu = plain_gpu;
        plain_gpu.launch(&k2, &launch2).unwrap();
        assert_ne!(
            g.read_words(0x8000, 256).unwrap(),
            plain_gpu.read_words(0x8000, 256).unwrap(),
            "unprotected flip must corrupt the output"
        );
    }

    #[test]
    fn secded_corrects_single_bit_flip() {
        let (mut g, k, launch) = incr_gpu();
        let inj = Injection::single(
            1,
            FaultSite::Register {
                cu: 0,
                slot: 0,
                lane: 0,
                reg: 1,
            },
            7,
            Protection::SecDed,
        );
        let opts = HardenedOptions {
            plan: FaultPlan::new(vec![inj]),
            watchdog: None,
        };
        let run = g.launch_hardened(&k, &launch, &opts).unwrap();
        assert_eq!(run.log.count(InjectionOutcome::Corrected), 1);
        let out = g.read_words(0x8000, 256).unwrap();
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i as u32) * 3 + 1, "corrected run must be clean");
        }
    }

    #[test]
    fn parity_detects_odd_and_misses_even_flips() {
        let site = FaultSite::GlobalWord { word: 0x1000 / 4 };
        let (mut g, k, launch) = incr_gpu();
        let odd = Injection::single(0, site, 3, Protection::Parity).with_label("dcache");
        let opts = HardenedOptions {
            plan: FaultPlan::new(vec![odd]),
            watchdog: None,
        };
        match g.launch_hardened(&k, &launch, &opts).unwrap_err() {
            SimError::UncorrectableFault(report) => {
                assert_eq!(report.label, "dcache");
                assert_eq!(report.flips, 1);
                assert_eq!(report.domain, "global");
            }
            other => panic!("expected uncorrectable fault, got {other}"),
        }

        let (mut g, k, launch) = incr_gpu();
        let even = Injection {
            cycle: 0,
            site,
            flips: vec![3, 9],
            codeword_flips: 2,
            protection: Protection::Parity,
            label: "dcache".into(),
        };
        let opts = HardenedOptions {
            plan: FaultPlan::new(vec![even]),
            watchdog: None,
        };
        let run = g.launch_hardened(&k, &launch, &opts).unwrap();
        assert_eq!(run.log.count(InjectionOutcome::Applied), 1, "even slips by");
    }

    #[test]
    fn secded_double_flip_is_detected_uncorrectable() {
        let (mut g, k, launch) = incr_gpu();
        let inj = Injection {
            cycle: 0,
            site: FaultSite::LocalWord { cu: 0, word: 3 },
            flips: vec![0, 1],
            codeword_flips: 2,
            protection: Protection::SecDed,
            label: "cu/lram".into(),
        };
        let opts = HardenedOptions {
            plan: FaultPlan::new(vec![inj]),
            watchdog: None,
        };
        assert!(matches!(
            g.launch_hardened(&k, &launch, &opts),
            Err(SimError::UncorrectableFault(_))
        ));
    }

    #[test]
    fn out_of_range_sites_are_vacant_not_errors() {
        let (mut g, k, launch) = incr_gpu();
        let plan = FaultPlan::new(vec![
            Injection::single(
                0,
                FaultSite::Register {
                    cu: 99,
                    slot: 0,
                    lane: 0,
                    reg: 1,
                },
                0,
                Protection::None,
            ),
            Injection::single(
                0,
                FaultSite::Register {
                    cu: 0,
                    slot: 57,
                    lane: 0,
                    reg: 1,
                },
                0,
                Protection::None,
            ),
            Injection::single(
                0,
                FaultSite::GlobalWord { word: u32::MAX },
                31,
                Protection::SecDed,
            ),
            Injection::single(
                1,
                FaultSite::ExecMask {
                    cu: 0,
                    slot: 0,
                    lane: 4096,
                },
                0,
                Protection::None,
            ),
        ]);
        let opts = HardenedOptions {
            plan,
            watchdog: None,
        };
        let run = g.launch_hardened(&k, &launch, &opts).unwrap();
        assert_eq!(run.log.count(InjectionOutcome::Vacant), 4);
        let out = g.read_words(0x8000, 256).unwrap();
        assert!(out
            .iter()
            .enumerate()
            .all(|(i, &v)| v == (i as u32) * 3 + 1));
    }

    #[test]
    fn pc_flip_surfaces_as_typed_error_or_completes() {
        // Flipping a high PC bit sends control flow outside the
        // program: must be PcOutOfRange (a crash classification),
        // never a panic.
        let (mut g, k, launch) = incr_gpu();
        let inj = Injection::single(
            2,
            FaultSite::Pc {
                cu: 0,
                slot: 0,
                lane: 0,
            },
            20,
            Protection::None,
        );
        let opts = HardenedOptions {
            plan: FaultPlan::new(vec![inj]),
            watchdog: None,
        };
        match g.launch_hardened(&k, &launch, &opts) {
            Err(SimError::PcOutOfRange { .. }) | Ok(_) => {}
            Err(other) => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn param_slot_out_of_range_is_typed() {
        use ggpu_isa::inst::Reg;
        let k = Kernel {
            name: "badparam".into(),
            program: vec![
                Inst::Param {
                    rd: Reg::try_new(1).unwrap(),
                    idx: 200,
                },
                Inst::Ret,
            ],
        };
        let mut g = Gpu::new(SimtConfig::with_cus(1), 1024);
        assert_eq!(
            g.launch(&k, &Launch::new(1, 1, vec![])),
            Err(SimError::ParamOutOfRange { pc: 0, idx: 200 })
        );
    }

    #[test]
    fn bad_config_is_typed_not_division_panic() {
        let mut cfg = SimtConfig::with_cus(1);
        cfg.dram.interfaces = 0;
        let mut g = Gpu::new(cfg, 1024);
        let k = Kernel::from_asm("k", "ret").unwrap();
        assert!(matches!(
            g.launch(&k, &Launch::new(1, 1, vec![])),
            Err(SimError::BadConfig(_))
        ));
        let mut cfg = SimtConfig::with_cus(1);
        cfg.cache.banks = 0;
        let mut g = Gpu::new(cfg, 1024);
        assert!(matches!(
            g.launch(&k, &Launch::new(1, 1, vec![])),
            Err(SimError::BadConfig(_))
        ));
    }

    #[test]
    fn exec_mask_flip_changes_lane_participation() {
        // Deactivating lane 0 before it stores: its output word stays
        // zero while every other lane completes.
        let (mut g, k, launch) = incr_gpu();
        let inj = Injection::single(
            1,
            FaultSite::ExecMask {
                cu: 0,
                slot: 0,
                lane: 0,
            },
            0,
            Protection::None,
        );
        let opts = HardenedOptions {
            plan: FaultPlan::new(vec![inj]),
            watchdog: None,
        };
        let run = g.launch_hardened(&k, &launch, &opts).unwrap();
        assert_eq!(run.log.count(InjectionOutcome::Applied), 1);
        let out = g.read_words(0x8000, 256).unwrap();
        assert_eq!(out[0], 0, "lane 0 was masked off before its store");
        assert_eq!(out[1], 3 + 1, "other lanes unaffected");
    }
}

#[cfg(test)]
mod scheduler_equivalence_tests {
    use super::*;

    /// Runs `src` under both schedulers on identically-initialised
    /// machines and checks the architectural counters are
    /// bit-identical. Returns (event, reference) stats.
    fn both(src: &str, cus: u32, launch: &Launch, seed: &[u32]) -> (RunStats, RunStats) {
        let kernel = Kernel::from_asm("equiv", src).expect("valid");
        let run = |reference: bool| {
            let mut g = Gpu::new(SimtConfig::with_cus(cus), 1 << 16);
            g.write_words(0x1000, seed).expect("in range");
            let stats = if reference {
                g.launch_reference(&kernel, launch).expect("runs")
            } else {
                g.launch(&kernel, launch).expect("runs")
            };
            (stats, g.read_words(0, 1 << 14).expect("in range"))
        };
        let (ev, ev_mem) = run(false);
        let (re, re_mem) = run(true);
        assert_eq!(ev_mem, re_mem, "schedulers must produce identical memory");
        assert_eq!(ev, re, "architectural counters must be bit-identical");
        (ev, re)
    }

    #[test]
    fn compute_bound_kernel_matches_reference() {
        let src = "
            gid r1
            addi r2, r0, 24
            loop:
            add r3, r3, r1
            mul r4, r3, r1
            addi r2, r2, -1
            bne r2, r0, loop
            ret
        ";
        let (ev, re) = both(src, 2, &Launch::new(512, 128, vec![]), &[]);
        assert_eq!(ev.cycles, re.cycles);
        assert!(ev.sched_iterations < re.sched_iterations);
    }

    #[test]
    fn memory_bound_kernel_matches_and_skips_idle_cycles() {
        // Strided loads: one cache line per lane, DRAM-latency bound.
        let src = "
            gid r1
            param r2, 0
            slli r3, r1, 6
            add r3, r3, r2
            lw r4, r3, 0
            sw r3, r4, 4
            ret
        ";
        let (ev, re) = both(src, 2, &Launch::new(512, 256, vec![0x1000]), &[7; 64]);
        // Acceptance criterion: >= 5x fewer scheduler-loop iterations
        // than the cycle stepper on memory-bound kernels.
        assert!(
            ev.sched_iterations * 5 <= re.sched_iterations,
            "event-driven must skip idle cycles: {} vs {} passes",
            ev.sched_iterations,
            re.sched_iterations
        );
    }

    #[test]
    fn barrier_heavy_kernel_matches_and_skips_idle_cycles() {
        // Repeated LRAM exchange across two wavefronts per group.
        let src = "
            lid   r1
            slli  r2, r1, 2
            addi  r5, r0, 8
            round:
            swl   r2, r1, 0
            bar
            lwl   r4, r2, 0
            bar
            addi  r5, r5, -1
            bne   r5, r0, round
            ret
        ";
        let (ev, re) = both(src, 2, &Launch::new(512, 128, vec![]), &[]);
        assert!(
            ev.sched_iterations * 5 <= re.sched_iterations,
            "event-driven must skip barrier waits: {} vs {} passes",
            ev.sched_iterations,
            re.sched_iterations
        );
    }

    #[test]
    fn divergent_kernel_matches_reference() {
        let src = "
            gid  r1
            andi r2, r1, 3
            addi r3, r0, 12
            beq  r2, r0, fast
            slow:
            addi r4, r4, 1
            divu r5, r3, r2
            blt  r4, r3, slow
            ret
            fast:
            addi r4, r4, 2
            ret
        ";
        both(src, 3, &Launch::new(448, 64, vec![]), &[]);
    }

    #[test]
    fn partial_groups_and_multi_cu_match_reference() {
        let src = "
            gid   r1
            param r2, 0
            slli  r3, r1, 2
            add   r3, r3, r2
            lw    r4, r3, 0
            addi  r4, r4, 5
            sw    r3, r4, 0
            ret
        ";
        for (n, wg, cus) in [(70, 64, 1), (300, 128, 2), (1000, 96, 4)] {
            let seed: Vec<u32> = (0..1024).collect();
            both(src, cus, &Launch::new(n, wg, vec![0x1000]), &seed);
        }
    }

    #[test]
    fn errors_match_reference() {
        let kernel = Kernel::from_asm("oob", "lui r1, 0x7fff\nlw r2, r1, 0\nret").unwrap();
        let launch = Launch::new(1, 1, vec![]);
        let ev = Gpu::new(SimtConfig::with_cus(1), 1024).launch(&kernel, &launch);
        let re = Gpu::new(SimtConfig::with_cus(1), 1024).launch_reference(&kernel, &launch);
        assert_eq!(ev, re);
        assert!(matches!(ev, Err(SimError::MemoryOutOfBounds { .. })));

        let mut cfg = SimtConfig::with_cus(1);
        cfg.max_cycles = 10_000;
        let spin = Kernel::from_asm("spin", "forever: jmp forever").unwrap();
        let launch = Launch::new(64, 64, vec![]);
        let ev = Gpu::new(cfg, 1024).launch(&spin, &launch);
        let re = Gpu::new(cfg, 1024).launch_reference(&spin, &launch);
        assert_eq!(ev, re);
        assert!(matches!(ev, Err(SimError::CycleLimit { limit: 10_000 })));
    }

    #[test]
    fn wall_clock_and_throughput_are_recorded() {
        let kernel = Kernel::from_asm("w", "gid r1\nmul r2, r1, r1\nret").unwrap();
        let stats = Gpu::new(SimtConfig::with_cus(1), 4096)
            .launch(&kernel, &Launch::new(256, 64, vec![]))
            .unwrap();
        assert!(stats.sim_wall > Duration::ZERO);
        assert!(stats.simulated_cycles_per_second() > 0.0);
        assert!(stats.sched_iterations > 0);
    }
}

#[cfg(test)]
mod occupancy_tests {
    use super::*;

    #[test]
    fn memory_bound_kernels_stall_more_than_compute_bound() {
        // Pointer-chase-free streaming load kernel vs pure ALU kernel.
        let mem_kernel = Kernel::from_asm(
            "stream",
            "
            gid r1
            param r2, 0
            slli r3, r1, 8    ; stride 256B: one line per lane
            add r3, r3, r2
            lw r4, r3, 0
            ret
            ",
        )
        .unwrap();
        let alu_kernel = Kernel::from_asm(
            "alu",
            "
            gid r1
            addi r2, r0, 32
            loop:
            add r3, r3, r1
            addi r2, r2, -1
            bne r2, r0, loop
            ret
            ",
        )
        .unwrap();
        let mut g1 = Gpu::new(SimtConfig::with_cus(1), 1 << 20);
        let mem = g1
            .launch(&mem_kernel, &Launch::new(512, 512, vec![0]))
            .unwrap();
        let mut g2 = Gpu::new(SimtConfig::with_cus(1), 1 << 20);
        let alu = g2
            .launch(&alu_kernel, &Launch::new(512, 512, vec![]))
            .unwrap();
        assert!(
            mem.occupancy() < alu.occupancy(),
            "memory-bound occupancy {:.2} must be below compute-bound {:.2}",
            mem.occupancy(),
            alu.occupancy()
        );
        assert!(alu.occupancy() > 0.8, "ALU loop keeps the CU busy");
    }

    #[test]
    fn occupancy_is_zero_for_empty_stats() {
        assert_eq!(RunStats::default().occupancy(), 0.0);
    }
}

#[cfg(test)]
mod barrier_tests {
    use super::*;

    /// Producer/consumer across wavefronts in one workgroup: every
    /// lane publishes a value to LRAM, the group barriers, then each
    /// lane reads its neighbour's slot.
    #[test]
    fn barrier_orders_cross_wavefront_lram_traffic() {
        let src = "
            lid   r1
            addi  r3, r1, 3      ; value = lid + 3
            slli  r2, r1, 2
            swl   r2, r3, 0      ; lram[lid] = lid + 3
            bar
            wgsize r4
            addi  r5, r1, 1
            blt   r5, r4, nowrap ; neighbour = (lid + 1) mod wgsize
            addi  r5, r0, 0
            nowrap:
            slli  r6, r5, 2
            lwl   r7, r6, 0      ; lram[neighbour]
            param r8, 0
            gid   r9
            slli  r9, r9, 2
            add   r8, r8, r9
            sw    r8, r7, 0
            ret
        ";
        let kernel = Kernel::from_asm("exchange", src).unwrap();
        let mut gpu = Gpu::new(SimtConfig::with_cus(2), 1 << 16);
        // 256 items in 128-item workgroups: two wavefronts per group,
        // so correctness requires the barrier to actually wait.
        let stats = gpu
            .launch(&kernel, &Launch::new(256, 128, vec![0x400]))
            .unwrap();
        let out = gpu.read_words(0x400, 256).unwrap();
        for wg in 0..2u32 {
            for lid in 0..128u32 {
                let neighbour = (lid + 1) % 128;
                let expect = neighbour + 3;
                assert_eq!(out[(wg * 128 + lid) as usize], expect, "wg {wg} lid {lid}");
            }
        }
        assert!(stats.cycles > 0);
    }

    #[test]
    fn divergent_barrier_is_detected() {
        let src = "
            lid  r1
            andi r2, r1, 1
            beq  r2, r0, even
            bar                  ; only odd lanes arrive here
            even:
            ret
        ";
        let kernel = Kernel::from_asm("divbar", src).unwrap();
        let mut gpu = Gpu::new(SimtConfig::with_cus(1), 1 << 12);
        let err = gpu
            .launch(&kernel, &Launch::new(64, 64, vec![]))
            .unwrap_err();
        assert!(matches!(err, SimError::DivergentBarrier { .. }), "{err}");
    }

    #[test]
    fn single_wavefront_barrier_is_a_noop() {
        let kernel = Kernel::from_asm("solo", "bar\naddi r1, r0, 7\nret").unwrap();
        let mut gpu = Gpu::new(SimtConfig::with_cus(1), 1 << 12);
        let stats = gpu.launch(&kernel, &Launch::new(32, 32, vec![])).unwrap();
        assert!(stats.cycles > 0, "must not deadlock");
    }

    #[test]
    fn strided_lram_matches_on_both_backends() {
        use crate::config::AccelBackend;
        // Stride-8 words: a dense, in-bounds issue that is neither
        // unit-stride nor a broadcast, so the SoA engine serves it
        // lane by lane.
        let strided = "
            lid  r1
            slli r2, r1, 5       ; byte address = lid * 32 (word stride 8)
            swl  r2, r1, 0
            lwl  r3, r2, 0
            param r4, 0
            gid  r5
            slli r5, r5, 2
            add  r4, r4, r5
            sw   r4, r3, 0
            ret
        ";
        let kernel = Kernel::from_asm("stride8", strided).unwrap();
        let launch = Launch::new(64, 64, vec![0x800]);
        let run = |backend: AccelBackend| {
            let mut gpu = Gpu::new(SimtConfig::with_cus(1).with_backend(backend), 1 << 16);
            let stats = gpu.launch(&kernel, &launch).unwrap();
            (stats, gpu.read_words(0x800, 64).unwrap())
        };
        let (scalar, out_scalar) = run(AccelBackend::Scalar);
        let (soa, out_soa) = run(AccelBackend::Soa);
        assert_eq!(scalar, soa);
        assert_eq!(out_scalar, out_soa);
        // Each lane reads back its own local id.
        assert_eq!(out_scalar, (0..64).collect::<Vec<u32>>());
    }

    #[test]
    fn early_exiting_wavefront_does_not_deadlock_the_barrier() {
        // One wavefront of the group returns before the barrier: the
        // other must still be released (done WFs are excluded).
        let src = "
            lid  r1
            addi r2, r0, 64
            blt  r1, r2, waiters  ; first WF waits at barrier
            ret                   ; second WF exits immediately
            waiters:
            bar
            ret
        ";
        let kernel = Kernel::from_asm("halfexit", src).unwrap();
        let mut gpu = Gpu::new(SimtConfig::with_cus(1), 1 << 12);
        let stats = gpu.launch(&kernel, &Launch::new(128, 128, vec![])).unwrap();
        assert!(stats.cycles > 0);
    }

    #[test]
    fn exec_mask_retirement_releases_the_barrier() {
        // 65 items in one group: slot 1 holds one lane. An upset that
        // clears it retires the wavefront without a `ret`, and slot 0,
        // possibly already waiting at the barrier, must be released
        // whatever the upset's cycle, on both engines and when forked.
        use crate::fault::{FaultPlan, FaultSite, HardenedOptions, Injection, Protection};
        let src = "
            addi r1, r0, 1
            addi r2, r0, 2
            addi r3, r0, 3
            addi r4, r0, 4
            bar
            ret
        ";
        let kernel = Kernel::from_asm("lone_lane", src).unwrap();
        let launch = Launch::new(65, 65, vec![]);
        let site = FaultSite::ExecMask {
            cu: 0,
            slot: 1,
            lane: 0,
        };
        for backend in [AccelBackend::Soa, AccelBackend::Scalar] {
            let mut gpu = Gpu::new(SimtConfig::with_cus(1).with_backend(backend), 1 << 12);
            let clean = gpu.launch(&kernel, &launch).unwrap();
            let upsets: Vec<Injection> = (0..=clean.cycles)
                .map(|cycle| Injection::single(cycle, site, 0, Protection::None))
                .collect();
            let mut hardened = Vec::new();
            for upset in &upsets {
                let opts = HardenedOptions {
                    plan: FaultPlan::new(vec![upset.clone()]),
                    watchdog: None,
                };
                let run = gpu.launch_hardened(&kernel, &launch, &opts);
                let stats = run
                    .unwrap_or_else(|e| panic!("{backend:?}, upset at cycle {}: {e}", upset.cycle));
                hardened.push(stats.stats);
            }
            let mut forked = vec![None; upsets.len()];
            gpu.launch_forked(&kernel, &launch, None, &upsets, |i, run, _| {
                forked[i] = Some(run.map(|r| r.stats));
            })
            .unwrap();
            for ((upset, fork), fresh) in upsets.iter().zip(forked).zip(hardened) {
                let fork = fork.expect("every injection is visited");
                let fork = fork.unwrap_or_else(|e| {
                    panic!("{backend:?}, forked upset at cycle {}: {e}", upset.cycle)
                });
                assert_eq!(fork, fresh, "{backend:?}, upset at cycle {}", upset.cycle);
            }
        }
    }
}

#[cfg(test)]
mod backend_tests {
    use super::*;

    /// 128 lanes exceed the SoA engine's one exec-mask word: `Auto`
    /// runs such a machine on the scalar engine, and an explicit `Soa`
    /// is refused rather than silently demoted.
    #[test]
    fn wide_wavefronts_run_on_the_scalar_engine() {
        // out[gid] = 3 * (gid % 4) + gid, through a divergent loop.
        let src = "
            gid  r1
            param r2, 0
            slli r3, r1, 2
            add  r3, r3, r2
            andi r4, r1, 3
            beq  r4, r0, store
            loop:
            addi r5, r5, 3
            addi r4, r4, -1
            bne  r4, r0, loop
            store:
            add  r5, r5, r1
            sw   r3, r5, 0
            ret
        ";
        let kernel = Kernel::from_asm("wide", src).unwrap();
        let launch = Launch::new(512, 256, vec![0x400]);
        let run = |backend: AccelBackend| {
            let mut cfg = SimtConfig::with_cus(2).with_backend(backend);
            cfg.wavefront_size = 128;
            let mut gpu = Gpu::new(cfg, 1 << 12);
            let stats = gpu.launch(&kernel, &launch);
            (stats, gpu.read_words(0x400, 512).unwrap())
        };
        let (auto, out_auto) = run(AccelBackend::Auto);
        let (scalar, out_scalar) = run(AccelBackend::Scalar);
        let auto = auto.unwrap();
        assert_eq!(auto.wavefronts, 4, "four 128-lane wavefronts");
        assert_eq!(auto, scalar.unwrap());
        assert_eq!(out_auto, out_scalar);
        for (gid, &word) in out_auto.iter().enumerate() {
            assert_eq!(word as usize, 3 * (gid % 4) + gid, "gid {gid}");
        }
        assert!(matches!(
            run(AccelBackend::Soa).0,
            Err(SimError::BadConfig(_))
        ));
    }
}
