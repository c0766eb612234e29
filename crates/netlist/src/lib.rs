//! Structural netlist intermediate representation for the G-GPU flow.
//!
//! A [`design::Design`] is an arena of [`module::Module`]s forming a
//! DAG under instantiation. Modules hold run-length-encoded standard
//! cell populations ([`module::CellGroup`]), memory macros
//! ([`module::MacroInst`]) and representative timing paths
//! ([`timing::TimingPath`]) — the three things the synthesis and
//! physical-design models consume.
//!
//! # Example
//!
//! ```
//! use ggpu_netlist::design::Design;
//! use ggpu_netlist::module::{CellGroup, Module};
//! use ggpu_netlist::stats::design_stats;
//! use ggpu_tech::stdcell::CellClass;
//! use ggpu_tech::Tech;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut design = Design::new("demo");
//! let top = design.add_module(
//!     Module::new("top").with_group(CellGroup::new("regs", CellClass::Dff, 128, 0.3)),
//! );
//! design.set_top(top);
//! design.validate()?;
//! let stats = design_stats(&design, &Tech::l65())?;
//! assert_eq!(stats.ff_cells, 128);
//! # Ok(())
//! # }
//! ```

pub mod design;
pub mod ecc;
pub mod export;
pub mod geometry;
pub mod ids;
pub mod module;
pub mod stats;
pub mod timing;

pub use design::{Design, MacroIter, ModuleSnapshot};
pub use ecc::EccPolicy;
pub use export::to_structural_verilog;
pub use geometry::BankGroupId;
pub use ids::ModuleId;
pub use module::{CellGroup, Instance, MacroInst, MemoryRole, Module};
pub use stats::{design_stats, NetlistStats};
pub use timing::{LogicStage, PathEndpoint, TimingPath};
