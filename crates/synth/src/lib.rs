//! Logic-synthesis model and the GPUPlanner netlist transforms.
//!
//! [`synthesize`] produces a [`SynthesisReport`] — one row of the
//! paper's Table I (area, cell/macro counts, leakage, dynamic power,
//! timing closure). [`divide_macro`] and [`insert_pipeline`] are the
//! two optimizations GPUPlanner applies while exploring the design
//! space: memory division when the critical path starts at a memory
//! block, pipeline insertion otherwise. Each edits one module in
//! place; the planner's transform journal snapshots that module first,
//! divides every structural sibling of a divided macro, and restores
//! the snapshot to undo the edit.
//!
//! # Example
//!
//! ```
//! use ggpu_rtl::{generate, GgpuConfig};
//! use ggpu_synth::synthesize;
//! use ggpu_tech::units::Mhz;
//! use ggpu_tech::Tech;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = generate(&GgpuConfig::with_cus(1)?)?;
//! let report = synthesize(&design, &Tech::l65(), Mhz::new(500.0))?;
//! assert!(report.meets_timing); // the baseline closes at 500 MHz
//! # Ok(())
//! # }
//! ```

pub mod report;
pub mod synthesis;
pub mod transform;

pub use report::SynthesisReport;
pub use synthesis::{synthesize, SynthesisError};
pub use transform::{
    divide_macro, insert_pipeline, DivideAxis, DivideOutcome, TransformError, PIPELINE_WIDTH_BITS,
};
