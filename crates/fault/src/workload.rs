//! The unit of work a campaign perturbs: one kernel, one input size,
//! one golden output.
//!
//! Mirrors `ggpu_kernels::bench`'s run recipe exactly (memory layout,
//! parameter order, workgroup sizing) so a zero-injection campaign run
//! is bit-identical to the benchmark harness's own launches. Runs
//! execute on whatever [`SimtConfig::backend`] resolves to — the SoA
//! fast path by default — and every golden/trial comparison in this
//! module is backend-independent by the equivalence suite's
//! bit-identity guarantee.

use ggpu_kernels::bench::{Bench, Kind};
use ggpu_kernels::layout::{GPU_A, GPU_B, GPU_MEMORY_WORDS, GPU_OUT};
use ggpu_simt::{Gpu, Kernel, KernelVerifyError, Launch, RunStats, SimError, SimtConfig};

/// Errors preparing or golden-running a workload.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// The kernel failed the static pre-flight verifier.
    Verify(KernelVerifyError),
    /// The grid size is invalid for this kernel (e.g. `mat_mul_local`
    /// requires full wavefronts).
    BadSize(String),
    /// The fault-free reference run itself faulted.
    Golden(SimError),
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::Verify(e) => write!(f, "kernel verification: {e}"),
            WorkloadError::BadSize(m) => write!(f, "bad grid size: {m}"),
            WorkloadError::Golden(e) => write!(f, "golden run: {e}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// A prepared, repeatable kernel launch with its golden output.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Kernel name (Table III row label).
    pub name: &'static str,
    /// Grid size.
    pub n: u32,
    kernel: Kernel,
    launch: Launch,
    a: Vec<u32>,
    b: Vec<u32>,
    golden: Vec<u32>,
}

impl Workload {
    /// Prepares `bench` at grid size `n`: verifies the kernel once and
    /// computes inputs and the golden output.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] on verifier rejection or an invalid
    /// grid size.
    pub fn from_bench(bench: &Bench, n: u32) -> Result<Self, WorkloadError> {
        if bench.kind == Kind::MatMulLocal && !n.is_multiple_of(64) {
            return Err(WorkloadError::BadSize(format!(
                "mat_mul_local requires full wavefronts (n % 64 == 0), got {n}"
            )));
        }
        let kernel = Kernel::from_asm_verified(bench.name, bench.gpu_asm())
            .map_err(WorkloadError::Verify)?;
        let (a, b) = bench.inputs(n);
        let golden = bench.golden(n);
        let wg = n.min(256);
        let launch = Launch::new(n, wg, vec![n, GPU_A, GPU_B, GPU_OUT, bench.extra(n)]);
        Ok(Self {
            name: bench.name,
            n,
            kernel,
            launch,
            a,
            b,
            golden,
        })
    }

    /// The golden (fault-free) output words at `GPU_OUT`.
    pub fn golden(&self) -> &[u32] {
        &self.golden
    }

    /// The verified kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The launch descriptor.
    pub fn launch(&self) -> &Launch {
        &self.launch
    }

    /// Global-memory words every run is given (the benchmark layout).
    pub fn memory_words(&self) -> usize {
        GPU_MEMORY_WORDS
    }

    /// A new machine with inputs staged: [`Gpu::new`] plus
    /// [`Workload::restage`]. Campaigns do not build one per trial:
    /// every worker restages one machine and forks all of its trials
    /// from one fault-free pass on it ([`Gpu::launch_forked`]). A
    /// forked trial's result and memory image equal those of the same
    /// single-injection [`Gpu::launch_hardened`] on a `fresh_gpu`,
    /// which is how the campaign tests check the fork.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the inputs do not fit the memory image
    /// (impossible for the shipped layouts, but surfaced rather than
    /// assumed).
    pub fn fresh_gpu(&self, config: SimtConfig) -> Result<Gpu, SimError> {
        let mut gpu = Gpu::new(config, GPU_MEMORY_WORDS);
        self.restage(&mut gpu)?;
        Ok(gpu)
    }

    /// Returns `gpu` to the state every run starts from: [`Gpu::reset`]
    /// zeroes the pages the previous run wrote, then the inputs are
    /// written again. After any run, faulting or forked ones included,
    /// the machine is indistinguishable from [`Workload::fresh_gpu`]'s
    /// with the same configuration. A campaign restages each worker's
    /// machine before its fault-free reference and before its forked
    /// pass; the forks themselves restore only what their suffix
    /// changed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the inputs do not fit `gpu`'s memory.
    pub fn restage(&self, gpu: &mut Gpu) -> Result<(), SimError> {
        gpu.reset();
        gpu.write_words(GPU_A, &self.a)?;
        if !self.b.is_empty() {
            gpu.write_words(GPU_B, &self.b)?;
        }
        Ok(())
    }

    /// Runs the workload fault-free on a new machine and returns its
    /// stats — the campaign's reference for cycles and for output
    /// comparison.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::Golden`] if the reference run faults
    /// or produces output differing from the golden model (which would
    /// mean the simulator itself is broken).
    pub fn run_golden(&self, config: SimtConfig) -> Result<RunStats, WorkloadError> {
        self.run_golden_on(&mut Gpu::new(config, GPU_MEMORY_WORDS))
    }

    /// [`Workload::run_golden`] on `gpu`, which it restages first: a
    /// campaign runs its reference on the machine its first worker
    /// then reuses.
    ///
    /// # Errors
    ///
    /// As [`Workload::run_golden`].
    pub(crate) fn run_golden_on(&self, gpu: &mut Gpu) -> Result<RunStats, WorkloadError> {
        self.restage(gpu).map_err(WorkloadError::Golden)?;
        let stats = gpu
            .launch(&self.kernel, &self.launch)
            .map_err(WorkloadError::Golden)?;
        let out = self.read_output(gpu).map_err(WorkloadError::Golden)?;
        if out != self.golden {
            return Err(WorkloadError::Golden(SimError::BadLaunch(
                "golden run diverged from reference model".into(),
            )));
        }
        Ok(stats)
    }

    /// Reads the output region of a finished run for comparison
    /// against [`Workload::golden`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the output region is out of range.
    pub fn read_output(&self, gpu: &Gpu) -> Result<Vec<u32>, SimError> {
        gpu.read_words(GPU_OUT, self.golden.len())
    }

    /// The output region of a whole global-memory image, as
    /// [`Gpu::launch_forked`] hands it to its visitor; `None` if the
    /// image is too small to hold it.
    pub(crate) fn output_of<'m>(&self, image: &'m [u32]) -> Option<&'m [u32]> {
        let start = GPU_OUT as usize / 4;
        image.get(start..start + self.golden.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ggpu_kernels::bench;

    #[test]
    fn golden_run_matches_bench_harness() {
        let copy = bench::all()[1];
        let w = Workload::from_bench(&copy, 256).unwrap();
        let stats = w.run_golden(SimtConfig::with_cus(2)).unwrap();
        let harness = copy.run_gpu(256, 2).unwrap();
        assert_eq!(stats, harness);
    }

    #[test]
    fn mat_mul_local_rejects_partial_wavefronts() {
        let b = bench::mat_mul_local();
        assert!(matches!(
            Workload::from_bench(&b, 65),
            Err(WorkloadError::BadSize(_))
        ));
    }
}
