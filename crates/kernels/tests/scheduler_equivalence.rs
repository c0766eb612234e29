//! End-to-end equivalence of the event-driven SIMT core against the
//! retained cycle-stepping reference, across the paper's whole
//! Table III kernel suite (plus the LRAM-tiled extension).
//!
//! `RunStats` equality covers cycles, instruction/lane/wavefront/
//! workgroup counts, busy and stall accounting and the full memory
//! statistics — everything except the host-side performance fields
//! (`sim_wall`, `sched_iterations`), which are expected to differ:
//! that difference *is* the optimization.
//!
//! The same suite pins each kernel's LRAM bank-conflict profile under
//! the ideal, 4-bank and 8-bank local-memory models.

use ggpu_kernels::bench::{all, mat_mul_local, run_gpu_suite_with_threads, Bench};
use ggpu_simt::{LramModel, RunStats, SimtConfig};

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
        for cus in [1, 2, 4] {
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

#[test]
fn threaded_suite_matches_sequential_suite() {
    let benches = all();
    let seq = run_gpu_suite_with_threads(&benches, 256, 2, 1).expect("sequential sweep");
    let par = run_gpu_suite_with_threads(&benches, 256, 2, 4).expect("threaded sweep");
    assert_eq!(seq.len(), benches.len());
    for ((sn, ss), (pn, ps)) in seq.iter().zip(&par) {
        assert_eq!(sn, pn, "suite order must be input order");
        assert_eq!(ss, ps, "{sn}: threaded stats diverge from sequential");
    }
}

#[test]
fn lram_banking_only_adds_conflict_cycles() {
    // Banking is a timing model: run_gpu_with golden-checks every
    // output, the ideal LRAM never charges a conflict, and more banks
    // never conflict more. mat_mul_local, the one kernel with LRAM
    // traffic, conflicts on 4 banks and runs clean on 8.
    let run = |bench: &Bench, lram: LramModel| {
        let config = SimtConfig {
            lram,
            ..SimtConfig::default()
        };
        bench
            .run_gpu_with(256, config)
            .unwrap_or_else(|e| panic!("{} under {lram:?}: {e}", bench.name))
    };
    for bench in all().into_iter().chain([mat_mul_local()]) {
        let ideal = run(&bench, LramModel::Ideal);
        let b4 = run(&bench, LramModel::Banked { banks: 4 });
        let b8 = run(&bench, LramModel::Banked { banks: 8 });
        assert_eq!(ideal.lram_conflict_cycles, 0, "{}", bench.name);
        assert!(b4.cycles >= ideal.cycles, "{}", bench.name);
        assert!(b8.cycles >= ideal.cycles, "{}", bench.name);
        assert!(
            b8.lram_conflict_cycles <= b4.lram_conflict_cycles,
            "{}: more banks must not conflict more",
            bench.name
        );
        if bench.name == "mat_mul_local" {
            assert!(b4.lram_conflict_cycles > 0, "4 banks must conflict");
            assert_eq!(b8.lram_conflict_cycles, 0, "8 banks must not conflict");
        }
    }
}
