//! Static timing analysis for `ggpu-netlist` designs.
//!
//! [`analyze`] times every representative path in a design against a
//! clock, producing a [`TimingReport`]; [`max_frequency`] finds the
//! zero-slack clock. Paths launching from memory macros use the
//! compiled macro's access time, reproducing the paper's observation
//! that the unoptimized G-GPU's critical path *"has its starting point
//! at a memory block"*.
//!
//! # Example
//!
//! ```
//! use ggpu_netlist::module::{MacroInst, MemoryRole, Module};
//! use ggpu_netlist::timing::{LogicStage, PathEndpoint, TimingPath};
//! use ggpu_netlist::Design;
//! use ggpu_sta::analyze;
//! use ggpu_tech::sram::SramConfig;
//! use ggpu_tech::stdcell::CellClass;
//! use ggpu_tech::units::Mhz;
//! use ggpu_tech::Tech;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut design = Design::new("demo");
//! let mut m = Module::new("m");
//! m.macros.push(MacroInst::new(
//!     "ram", SramConfig::dual(2048, 32), MemoryRole::CacheData, 0.5,
//! ));
//! m.paths.push(TimingPath::new(
//!     "read",
//!     PathEndpoint::Macro("ram".into()),
//!     PathEndpoint::Register,
//!     LogicStage::chain(CellClass::Nand2, 5, 2),
//! ));
//! let id = design.add_module(m);
//! design.set_top(id);
//! let report = analyze(&design, &Tech::l65(), Mhz::new(500.0))?;
//! assert!(report.critical().unwrap().is_memory_launched());
//! # Ok(())
//! # }
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod analysis;
pub mod report;

pub use analysis::{analyze, max_frequency, StaError, CLOCK_UNCERTAINTY, INPUT_DELAY_BUDGET};
pub use report::{PathTiming, TimingReport};
