//! The pluggable execution-backend boundary of the SIMT simulator.
//!
//! [`Accelerator`] abstracts *how* a launch is executed — which wave
//! engine runs the lane loops — while the architectural contract
//! (outputs, [`RunStats`], memory image, fault semantics) is fixed:
//! every backend must be bit-identical. Two backends ship:
//!
//! * [`ScalarAccelerator`] — the retained per-lane reference engine,
//!   the validation oracle.
//! * [`SoaAccelerator`] — the data-oriented fast path
//!   (structure-of-arrays register file, bitmask issue, scratch
//!   arena; see the crate-private `soa` module).
//!
//! Plain [`crate::Gpu::launch`] resolves a backend from
//! [`SimtConfig::backend`]; [`crate::Gpu::launch_with`] runs an
//! explicit backend, which is how the equivalence suite drives both
//! engines over identical launches.

use crate::config::{AccelBackend, SimtConfig};
use crate::engine::{run_launch, ScalarWave};
use crate::global_mem::GlobalMemory;
use crate::gpu::{HardenState, RunStats, SimError, PARAM_SLOTS};
use crate::soa::{SoaWave, MAX_WF};
use crate::trace::ExecTrace;
use ggpu_isa::inst::Inst;

/// One fully-validated launch, ready for a backend to execute. Built
/// by [`crate::Gpu`] (geometry checks, parameter staging) and handed
/// to [`Accelerator::run`]; the fields stay crate-private so backends
/// outside this crate cannot bypass launch validation.
pub struct LaunchRequest<'a> {
    pub(crate) config: SimtConfig,
    pub(crate) program: &'a [Inst],
    pub(crate) params: [u32; PARAM_SLOTS],
    pub(crate) global_size: u32,
    pub(crate) workgroup_size: u32,
    pub(crate) memory: &'a mut GlobalMemory,
    /// Use the cycle-stepping reference driver instead of the
    /// event-driven time wheel (validation runs).
    pub(crate) reference: bool,
    /// Fault-injection / watchdog harness; `None` for plain runs.
    pub(crate) hard: Option<&'a mut HardenState>,
    /// Soundness-oracle trace sink; `None` for plain runs.
    pub(crate) trace: Option<&'a mut ExecTrace>,
}

impl LaunchRequest<'_> {
    /// The machine configuration of this launch.
    pub fn config(&self) -> &SimtConfig {
        &self.config
    }

    /// The instruction stream.
    pub fn program(&self) -> &[Inst] {
        self.program
    }

    /// `(global_size, workgroup_size)`.
    pub fn sizes(&self) -> (u32, u32) {
        (self.global_size, self.workgroup_size)
    }
}

/// An execution backend for the SIMT machine.
///
/// Implementations differ only in host performance; the simulated
/// architecture is identical, and the equivalence property suite holds
/// every backend to bit-identity with [`ScalarAccelerator`].
pub trait Accelerator {
    /// Stable backend name (reports, benchmark JSON).
    fn name(&self) -> &'static str;

    /// Executes one validated launch to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] exactly as [`crate::Gpu::launch`] does;
    /// backends with geometry limits reject unsupported
    /// configurations with [`SimError::BadConfig`].
    fn run(&self, req: LaunchRequest<'_>) -> Result<RunStats, SimError>;
}

/// The retained scalar reference engine (per-lane `Vec`s, scalar
/// loops): slow, simple, the oracle every other backend is measured
/// against.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarAccelerator;

impl Accelerator for ScalarAccelerator {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn run(&self, req: LaunchRequest<'_>) -> Result<RunStats, SimError> {
        run_launch::<ScalarWave>(
            req.config,
            req.program,
            req.params,
            (req.global_size, req.workgroup_size),
            req.memory,
            req.reference,
            req.hard,
            req.trace,
        )
    }
}

/// The data-oriented fast path: structure-of-arrays register file,
/// 64-bit exec-mask issue, reusable scratch arena, batched memory
/// arbitration. Supports `wavefront_size <= 64` (one mask word).
#[derive(Debug, Clone, Copy, Default)]
pub struct SoaAccelerator;

impl Accelerator for SoaAccelerator {
    fn name(&self) -> &'static str {
        "soa"
    }

    fn run(&self, req: LaunchRequest<'_>) -> Result<RunStats, SimError> {
        if req.config.wavefront_size > MAX_WF {
            return Err(SimError::BadConfig(format!(
                "SoA backend supports wavefront_size <= {MAX_WF} (one exec-mask word), got {}",
                req.config.wavefront_size
            )));
        }
        run_launch::<SoaWave>(
            req.config,
            req.program,
            req.params,
            (req.global_size, req.workgroup_size),
            req.memory,
            req.reference,
            req.hard,
            req.trace,
        )
    }
}

/// Resolves a configured backend choice to a concrete engine.
///
/// [`AccelBackend::Auto`] picks the SoA fast path, falling back to the
/// scalar engine for geometries the mask word cannot cover. An *explicit*
/// [`AccelBackend::Soa`] on such a geometry is not silently demoted —
/// [`SoaAccelerator::run`] rejects it with [`SimError::BadConfig`].
pub(crate) fn resolve(backend: AccelBackend, wavefront_size: u32) -> &'static dyn Accelerator {
    const SCALAR: ScalarAccelerator = ScalarAccelerator;
    const SOA: SoaAccelerator = SoaAccelerator;
    match backend {
        AccelBackend::Scalar => &SCALAR,
        AccelBackend::Auto if wavefront_size > MAX_WF => &SCALAR,
        AccelBackend::Auto | AccelBackend::Soa => &SOA,
    }
}
