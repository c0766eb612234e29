//! GPUPlanner: the paper's primary contribution — a fully automated
//! generator of GPU-like ASIC accelerators, from RTL to (a model of)
//! GDSII.
//!
//! The flow follows the paper's Fig. 2: the designer writes a
//! [`Specification`] (CU count + frequency + optional PPA ceilings);
//! [`GpuPlanner::estimate`] gives a first-order PPA estimate;
//! [`GpuPlanner::plan`] runs the frequency map's design-space
//! exploration (memory division / pipeline insertion) and logic
//! synthesis; [`GpuPlanner::implement`] runs the partitioned physical
//! flow and checks the result against the specification.
//!
//! # Example
//!
//! ```
//! use gpuplanner::{GpuPlanner, Specification};
//! use ggpu_tech::units::Mhz;
//! use ggpu_tech::Tech;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let planner = GpuPlanner::new(Tech::l65());
//! let version = planner.plan(&Specification::new(1, Mhz::new(590.0)))?;
//! assert!(version.synthesis.meets_timing);
//! println!("{}", version.synthesis.table_row());
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod datasheet;
pub mod dse;
pub mod flow;
pub mod journal;
pub mod map;
pub mod spec;
pub mod spreadsheet;
pub mod supervise;
pub mod sweep;
pub mod versions;

pub use cache::{fingerprint, StaCache};
pub use datasheet::{datasheet, datasheet_with_supervision};
pub use dse::{
    apply_plan, optimize_for, optimize_for_with, optimize_with_config, Action, DseConfig, DseError,
    OptimizationPlan, Optimized,
};
pub use flow::{GpuPlanner, ImplementedVersion, PlanError, PlannedVersion, PpaEstimate};
pub use journal::TransformJournal;
pub use map::{advise, advise_with, Advice};
pub use spec::Specification;
pub use spreadsheet::{frequency_map, frequency_map_with_policy, map_to_csv, render_map, MapRow};
pub use supervise::{
    spec_fingerprint, verify_kernels, DegradationReport, FailurePlan, FlowError, FlowErrorKind,
    FlowStage, Injection, SupervisedVersion, Supervisor, SupervisorConfig,
};
pub use sweep::{SweepConfig, SweepError, SweepReport};
pub use versions::{paper_versions, physical_versions};
