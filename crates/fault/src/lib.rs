// Same panic audit as ggpu-simt: campaign code must never panic on a
// fault path — every fallible operation surfaces a typed error.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! Resilience analysis for the G-GPU: seeded single-event-upset (SEU)
//! campaigns over the SIMT performance simulator.
//!
//! The mechanism — bit-flips at architectural [`ggpu_simt::FaultSite`]s
//! guarded by per-word [`ggpu_simt::Protection`] — lives in
//! `ggpu-simt::fault` and `Gpu::launch_hardened`. This crate is the
//! policy layer:
//!
//! * [`ecc`] — working parity and extended-Hamming SEC-DED codecs,
//!   property-tested to the guarantees the behavioural model assumes;
//! * [`map`] — injection-site derivation from the design's actual SRAM
//!   macro instances, capacity-weighted, so the design-space
//!   exploration's memory division measurably moves each macro's
//!   exposure;
//! * [`workload`] — the benchmark kernels as repeatable launches with
//!   golden outputs;
//! * [`campaign`] — the deterministic, parallel Monte-Carlo runner
//!   with the standard outcome taxonomy (masked / SDC /
//!   detected-corrected / detected-uncorrectable / hang / crash);
//! * [`report`] — per-macro AVF campaign reports with byte-stable
//!   JSON.
//!
//! # Example
//!
//! ```
//! use ggpu_fault::{CampaignConfig, MacroMap, Workload};
//! use ggpu_netlist::EccPolicy;
//! use ggpu_rtl::{generate, GgpuConfig};
//! use ggpu_tech::sram::EccScheme;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = generate(&GgpuConfig::with_cus(1)?)?;
//! let map = MacroMap::from_design(&design, &EccPolicy::uniform(EccScheme::SecDed))?;
//! let copy = ggpu_kernels::bench::all()[1];
//! let workload = Workload::from_bench(&copy, 256)?;
//! let report = ggpu_fault::run_campaign(&workload, &map, &CampaignConfig::new(7, 8))?;
//! assert_eq!(report.counts.total(), 8);
//! # Ok(())
//! # }
//! ```

pub mod campaign;
pub mod ecc;
pub mod map;
pub mod report;
pub mod rng;
pub mod workload;

pub use campaign::{run_campaign, CampaignConfig, CampaignError, Outcome};
pub use map::{Domain, Geometry, MacroMap, MacroSite, MapError};
pub use report::{CampaignReport, MacroAvf, OutcomeCounts};
pub use rng::Rng;
pub use workload::{Workload, WorkloadError};
