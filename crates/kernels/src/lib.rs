//! The seven micro-benchmarks of the G-GPU evaluation (paper
//! Table III / Figs. 5–6): `mat_mul`, `copy`, `vec_mul`, `fir`,
//! `div_int`, `xcorr` and `parallel_sel`, implemented for both the
//! SIMT accelerator and the RISC-V baseline, with golden references
//! the harness verifies every run against.
//!
//! # Example
//!
//! ```
//! use ggpu_kernels::bench;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let copy = bench::all()[1];
//! assert_eq!(copy.name, "copy");
//! let stats = copy.run_gpu(256, 2)?; // verified against the golden output
//! assert!(stats.cycles > 0);
//! # Ok(())
//! # }
//! ```

pub mod bench;
pub mod kernels;
pub mod layout;

pub use bench::{all, scaled_speedup, suite_threads, Bench, BenchError, Kind};
