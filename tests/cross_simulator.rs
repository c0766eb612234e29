//! Cross-simulator agreement: every benchmark kernel must produce the
//! same output on the SIMT accelerator, the RISC-V baseline, and the
//! golden Rust reference, across awkward grid shapes (partial
//! wavefronts, partial workgroups, single item).

use g_gpu::kernels::all;

#[test]
fn kernels_agree_across_simulators_at_awkward_sizes() {
    // 4: below one wavefront; 64: exactly one; 68: partial second WF;
    // 260: partial workgroup spillover.
    for n in [4u32, 64, 68, 260] {
        for bench in all() {
            bench
                .run_gpu(n, 1)
                .unwrap_or_else(|e| panic!("{} n={n} gpu 1cu: {e}", bench.name));
            bench
                .run_gpu(n, 3)
                .unwrap_or_else(|e| panic!("{} n={n} gpu 3cu: {e}", bench.name));
            bench
                .run_riscv(n)
                .unwrap_or_else(|e| panic!("{} n={n} riscv: {e}", bench.name));
        }
    }
}

#[test]
fn single_item_grids_work() {
    for bench in all() {
        bench
            .run_gpu(1, 1)
            .unwrap_or_else(|e| panic!("{} n=1: {e}", bench.name));
    }
}

#[test]
fn cycle_counts_are_deterministic() {
    let bench = all()[2]; // vec_mul
    let a = bench.run_gpu(512, 2).unwrap();
    let b = bench.run_gpu(512, 2).unwrap();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.mem, b.mem);
}

#[test]
fn gpu_cycle_counts_scale_down_with_cus_for_parallel_kernels() {
    for bench in all()
        .iter()
        .filter(|b| matches!(b.name, "mat_mul" | "fir" | "parallel_sel"))
    {
        let c1 = bench.run_gpu(1024, 1).unwrap().cycles;
        let c4 = bench.run_gpu(1024, 4).unwrap().cycles;
        assert!(
            c4 < c1,
            "{}: 4 CUs ({c4}) must beat 1 CU ({c1})",
            bench.name
        );
    }
}

#[test]
fn more_cus_never_slow_any_kernel() {
    // Weaker than the scaling test above, but over all seven Table III
    // kernels: an 8-CU machine retires the same grid in no more cycles
    // than a 1-CU machine.
    for bench in all() {
        let c1 = bench.run_gpu(512, 1).unwrap().cycles;
        let c8 = bench.run_gpu(512, 8).unwrap().cycles;
        assert!(
            c8 <= c1,
            "{}: 8 CUs took {c8} cycles vs {c1} on 1",
            bench.name
        );
    }
}

#[test]
fn divergent_kernels_issue_more_than_their_lane_ops_imply() {
    // parallel_sel branches per element: its vector-instruction count
    // per lane-op must exceed the branchless copy kernel's.
    let sel = all()[6].run_gpu(512, 1).unwrap();
    let copy = all()[1].run_gpu(512, 1).unwrap();
    let sel_ratio = sel.vector_instructions as f64 / sel.lane_ops as f64;
    let copy_ratio = copy.vector_instructions as f64 / copy.lane_ops as f64;
    assert!(
        sel_ratio > copy_ratio,
        "divergence must fragment issues: {sel_ratio:.4} vs {copy_ratio:.4}"
    );
}
