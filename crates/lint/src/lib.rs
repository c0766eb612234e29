//! `ggpu-lint`: static analysis for the G-GPU reproduction.
//!
//! Two analyzers with stable diagnostic codes:
//!
//! * the **kernel verifier** ([`kernel`]) builds a control-flow graph
//!   over an assembled SIMT program and runs dataflow passes —
//!   uninitialized reads, dead stores, unreachable code, missing-`ret`
//!   paths, branch-target bounds, divergence depth, divergent barriers
//!   (`K001`–`K009`) — plus the abstract interpreter ([`absint`]):
//!   proven/possible out-of-bounds and misalignment and the
//!   flow-sensitive local-memory race (`K010`–`K012`), with
//!   [`analyze`] exporting the address intervals and branch
//!   uniformity those checks stand on;
//! * the **design linter** ([`design`]) checks netlist structure and
//!   numerics — duplicate names, dangling references, SRAM compiler
//!   range, activity sanity (`N001`–`N004`, `N007`) — and [`flow`] asserts
//!   post-transform invariants after every GPUPlanner step
//!   (`N005`–`N006`).
//!
//! Both are wired as *pre-flight gates*: `ggpu_simt::Kernel::
//! from_asm_verified` rejects deny-level kernels before they reach the
//! simulator, and `GpuPlanner::plan` lints the generated and the
//! optimized netlist. The `ggpu-lint` binary runs the same checks from
//! the command line (CI uses `--all-kernels --deny warn`).
//!
//! ```
//! use ggpu_lint::{verify_asm, Code, LintConfig};
//!
//! let (_, report) = verify_asm("demo", "gid r1\nsw r1, r1, 0", &LintConfig::new()).unwrap();
//! assert!(report.has(Code::K004)); // falls through the end: missing ret
//! assert!(report.denial_count() > 0);
//! ```

pub mod absint;
pub mod cfg;
pub mod design;
pub mod diag;
pub mod flow;
pub mod kernel;
pub mod shipped;

pub use absint::{analyze, AnalysisCtx, KernelAnalysis, MemAccessSummary};
pub use cfg::Cfg;
pub use design::lint_design;
pub use diag::{Code, Diagnostic, LintConfig, Report, Severity};
pub use flow::{check_division, check_pipeline, check_supervision, DegradationStep, FlowSnapshot};
pub use kernel::{verify_asm, verify_program, verify_program_with_ctx, DIVERGENCE_DEPTH_LIMIT};
pub use shipped::{verify_shipped, SHIPPED_KERNELS};
