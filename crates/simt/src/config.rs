//! Simulator configuration: machine geometry and timing parameters.

/// Which execution backend ([`crate::Accelerator`]) runs a launch.
///
/// Every backend simulates the identical architecture — outputs,
/// [`crate::RunStats`], memory image and fault semantics are
/// bit-identical — so this knob only trades host speed for engine
/// simplicity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccelBackend {
    /// Pick automatically: the SoA fast path where the geometry
    /// allows it (`wavefront_size <= 64`), with a silent scalar
    /// fallback where it does not.
    #[default]
    Auto,
    /// The retained per-lane scalar reference engine (the oracle).
    Scalar,
    /// The data-oriented structure-of-arrays fast path. Explicitly
    /// selecting it on `wavefront_size > 64` fails the launch with
    /// [`crate::SimError::BadConfig`] instead of silently demoting.
    Soa,
}

/// How the local scratchpad (LRAM) serves a wavefront beat's lanes.
///
/// `Banked { banks }` models a word-interleaved scratchpad (word `w`
/// lives in bank `w % banks`); lanes of one beat that touch *distinct
/// words* of the same bank serialize, costing extra beats, while
/// lanes reading the same word broadcast for free. No generated
/// netlist is banked this way: the model is a simulator-side study.
/// `Ideal` is the infinite-port model — zero conflict cost, and the
/// timing every datasheet and Table III cell uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LramModel {
    /// Every lane is served in its scheduled beat (legacy timing).
    #[default]
    Ideal,
    /// Word-interleaved banks with per-beat conflict serialization.
    Banked {
        /// Number of banks (≥ 1).
        banks: u32,
    },
}

impl LramModel {
    /// The bank count the conflict model arbitrates over (`None` for
    /// the ideal model).
    pub fn banks(&self) -> Option<u32> {
        match self {
            LramModel::Ideal => None,
            LramModel::Banked { banks } => Some(*banks),
        }
    }
}

/// Shared data-cache parameters (direct-mapped, write-back,
/// write-allocate, banked — the FGPU's central multi-port cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in KiB.
    pub size_kib: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Independently-ported banks (line index modulo banks).
    pub banks: u32,
    /// Hit latency in cycles.
    pub hit_latency: u32,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            size_kib: 32,
            line_bytes: 64,
            banks: 4,
            hit_latency: 6,
        }
    }
}

impl CacheConfig {
    /// Number of cache lines.
    pub fn lines(&self) -> u32 {
        self.size_kib * 1024 / self.line_bytes
    }
}

/// External-memory parameters (the AXI data interfaces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of parallel AXI data interfaces (paper: up to 4).
    pub interfaces: u32,
    /// Fixed access latency in cycles.
    pub latency: u32,
    /// Transfer bandwidth per interface, bytes per cycle.
    pub bytes_per_cycle: u32,
}

impl Default for DramConfig {
    fn default() -> Self {
        Self {
            interfaces: 4,
            latency: 60,
            bytes_per_cycle: 4,
        }
    }
}

/// Full machine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimtConfig {
    /// Number of compute units.
    pub compute_units: u32,
    /// Processing elements per CU (FGPU: 8).
    pub pes_per_cu: u32,
    /// Work-items per wavefront (FGPU: 64).
    pub wavefront_size: u32,
    /// Resident wavefronts per CU (FGPU: 8, i.e. 512 work-items).
    pub max_wavefronts_per_cu: u32,
    /// Shared data cache.
    pub cache: CacheConfig,
    /// External memory.
    pub dram: DramConfig,
    /// Simple-ALU result latency (deep FGPU pipeline).
    pub alu_latency: u32,
    /// Multiplier latency.
    pub mul_latency: u32,
    /// Divider latency.
    pub div_latency: u32,
    /// Cycles of CU occupancy per *lane* of a divide/remainder: the
    /// FGPU's iterative divider is shared, so a wavefront's divides
    /// serialize lane by lane (this is why the paper's div_int kernel
    /// only reaches a 1.2x speed-up over the RISC-V).
    pub div_serial: u32,
    /// Local scratch (LRAM) access latency.
    pub local_latency: u32,
    /// Local scratch arbitration model (bank-conflict timing).
    pub lram: LramModel,
    /// Hard cycle ceiling; exceeded means a runaway kernel.
    pub max_cycles: u64,
    /// Execution backend (host-side engine choice; architecturally
    /// invisible).
    pub backend: AccelBackend,
}

impl SimtConfig {
    /// The paper's machine with the given CU count.
    ///
    /// # Panics
    ///
    /// Panics if `compute_units` is zero.
    pub fn with_cus(compute_units: u32) -> Self {
        assert!(compute_units > 0, "need at least one compute unit");
        Self {
            compute_units,
            ..Self::default()
        }
    }

    /// The same machine with an explicit execution backend.
    pub fn with_backend(mut self, backend: AccelBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The same machine with an explicit LRAM arbitration model.
    pub fn with_lram(mut self, lram: LramModel) -> Self {
        self.lram = lram;
        self
    }

    /// Wavefronts needed for one full workgroup.
    pub fn wavefronts_per_group(&self, workgroup_size: u32) -> u32 {
        workgroup_size.div_ceil(self.wavefront_size)
    }

    /// Checks the geometry for structural validity. All fields are
    /// public, so a hand-built configuration can contain zero-sized
    /// extents that would divide by zero inside the memory system;
    /// the simulator rejects those with a typed error at launch
    /// instead of panicking mid-run.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.compute_units == 0 {
            return Err("zero compute units".into());
        }
        if self.pes_per_cu == 0 {
            return Err("zero processing elements per CU".into());
        }
        if self.wavefront_size == 0 {
            return Err("zero wavefront size".into());
        }
        if self.max_wavefronts_per_cu == 0 {
            return Err("zero resident wavefronts per CU".into());
        }
        if self.cache.line_bytes == 0 {
            return Err("zero cache line size".into());
        }
        if self.cache.lines() == 0 {
            return Err(format!(
                "cache of {} KiB holds no {}-byte lines",
                self.cache.size_kib, self.cache.line_bytes
            ));
        }
        if self.cache.banks == 0 {
            return Err("zero cache banks".into());
        }
        if self.dram.interfaces == 0 {
            return Err("zero DRAM interfaces".into());
        }
        if self.dram.bytes_per_cycle == 0 {
            return Err("zero DRAM bytes per cycle".into());
        }
        if self.lram.banks() == Some(0) {
            return Err("zero LRAM banks".into());
        }
        Ok(())
    }
}

impl Default for SimtConfig {
    fn default() -> Self {
        Self {
            compute_units: 1,
            pes_per_cu: 8,
            wavefront_size: 64,
            max_wavefronts_per_cu: 8,
            cache: CacheConfig::default(),
            dram: DramConfig::default(),
            alu_latency: 4,
            mul_latency: 6,
            div_latency: 18,
            div_serial: 36,
            local_latency: 3,
            lram: LramModel::default(),
            max_cycles: 400_000_000,
            backend: AccelBackend::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_fgpu() {
        let c = SimtConfig::default();
        assert_eq!(c.pes_per_cu, 8);
        assert_eq!(c.wavefront_size, 64);
        assert_eq!(c.max_wavefronts_per_cu * c.wavefront_size, 512);
        assert_eq!(c.dram.interfaces, 4);
    }

    #[test]
    fn cache_line_count() {
        assert_eq!(CacheConfig::default().lines(), 512);
    }

    #[test]
    fn wavefronts_per_group_rounds_up() {
        let c = SimtConfig::default();
        assert_eq!(c.wavefronts_per_group(512), 8);
        assert_eq!(c.wavefronts_per_group(65), 2);
        assert_eq!(c.wavefronts_per_group(1), 1);
    }

    #[test]
    #[should_panic(expected = "at least one compute unit")]
    fn zero_cus_panics() {
        let _ = SimtConfig::with_cus(0);
    }

    #[test]
    fn validate_catches_zero_extents() {
        assert!(SimtConfig::default().validate().is_ok());
        type Mutator = fn(&mut SimtConfig);
        let cases: Vec<(Mutator, &str)> = vec![
            (|c| c.compute_units = 0, "compute units"),
            (|c| c.pes_per_cu = 0, "processing elements"),
            (|c| c.wavefront_size = 0, "wavefront size"),
            (|c| c.max_wavefronts_per_cu = 0, "resident wavefronts"),
            (|c| c.cache.line_bytes = 0, "line size"),
            (|c| c.cache.size_kib = 0, "holds no"),
            (|c| c.cache.banks = 0, "cache banks"),
            (|c| c.dram.interfaces = 0, "DRAM interfaces"),
            (|c| c.dram.bytes_per_cycle = 0, "bytes per cycle"),
            (|c| c.lram = LramModel::Banked { banks: 0 }, "LRAM banks"),
        ];
        for (mutate, needle) in cases {
            let mut c = SimtConfig::default();
            mutate(&mut c);
            let err = c.validate().expect_err(needle);
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
    }
}
