//! End-to-end equivalence of the event-driven SIMT core against the
//! retained cycle-stepping reference, across the paper's whole
//! Table III kernel suite (plus the LRAM-tiled extension).
//!
//! `RunStats` equality covers cycles, instruction/lane/wavefront/
//! workgroup counts, busy and stall accounting and the full memory
//! statistics — everything except the host-side performance fields
//! (`sim_wall`, `sched_iterations`), which are expected to differ:
//! that difference *is* the optimization.

use ggpu_kernels::bench::{all, mat_mul_local, Bench};
use ggpu_simt::RunStats;

fn both(bench: &Bench, n: u32, cus: u32) -> (RunStats, RunStats) {
    let event = bench
        .run_gpu(n, cus)
        .unwrap_or_else(|e| panic!("{} event-driven: {e}", bench.name));
    let reference = bench
        .run_gpu_reference(n, cus)
        .unwrap_or_else(|e| panic!("{} reference: {e}", bench.name));
    (event, reference)
}

#[test]
fn every_paper_kernel_matches_the_reference_scheduler() {
    for bench in all() {
        // Reduced sizes keep the cycle-stepping oracle fast; the
        // protocol (grid, workgroup, params) is the paper's.
        let n = match bench.name {
            "xcorr" | "parallel_sel" => 192,
            _ => 512,
        };
        // At 8 CUs most CUs stay idle at these sizes: the sweep's
        // deferred accounting covers whole launches for them.
        for cus in [1, 2, 4, 8] {
            let (event, reference) = both(&bench, n, cus);
            assert_eq!(
                event, reference,
                "{} at n={n}, {cus} CU(s): event-driven stats diverge",
                bench.name
            );
        }
    }
}

#[test]
fn lram_tiled_kernel_matches_the_reference_scheduler() {
    // The barrier-heavy extension kernel: workgroup-wide staging with
    // two barriers per tile exercises the wheel's barrier-release
    // events hardest.
    let bench = mat_mul_local();
    let (event, reference) = both(&bench, 256, 2);
    assert_eq!(event, reference, "mat_mul_local stats diverge");
}

#[test]
fn event_core_never_does_more_scheduler_work() {
    // The wheel may only *skip* idle cycles: on every kernel its
    // iteration count is bounded by the reference's, and on the
    // memory-bound streamers it is at least 5x lower.
    for bench in all() {
        let n = match bench.name {
            "xcorr" | "parallel_sel" => 192,
            _ => 1024,
        };
        let (event, reference) = both(&bench, n, 2);
        assert!(
            event.sched_iterations <= reference.sched_iterations,
            "{}: event {} > reference {} iterations",
            bench.name,
            event.sched_iterations,
            reference.sched_iterations
        );
        if matches!(bench.name, "copy" | "vec_mul") {
            assert!(
                event.sched_iterations * 5 <= reference.sched_iterations,
                "{}: memory-bound kernel must skip >=5x iterations ({} vs {})",
                bench.name,
                event.sched_iterations,
                reference.sched_iterations
            );
        }
    }
}
