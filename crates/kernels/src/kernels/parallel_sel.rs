//! `parallel_sel`: parallel selection (rank) sort —
//! `out[rank(a[i])] = a[i]` where the rank counts smaller elements
//! (ties broken by index). Quadratic work with data-dependent
//! branches: the divergence-heavy kernel of the evaluation.

use crate::layout::data;

/// Kernel name as reported in the paper's Table III.
pub const NAME: &str = "parallel_sel";

/// Builds the input values (second buffer unused).
pub fn inputs(n: u32) -> (Vec<u32>, Vec<u32>) {
    (data(n as usize, 12, 65_536), Vec::new())
}

/// Reference output: the sorted permutation of `a`. Ranks with index
/// tie-breaks are distinct, so placing every value at its rank, as the
/// kernel does, lays out exactly the sorted multiset.
pub fn golden(n: u32, a: &[u32], _b: &[u32]) -> Vec<u32> {
    let mut out = a[..n as usize].to_vec();
    out.sort_unstable();
    out
}

/// G-GPU kernel (params: 0=n, 1=&a, 2=&b, 3=&out, 4=extra).
pub const GPU_ASM: &str = include_str!("asm/parallel_sel.s");

/// RISC-V program (a0=n, a1=&a, a2=&b, a3=&out, a4=extra).
pub const RISCV_ASM: &str = "
    li   t0, 0
    beqz a0, done
    outer:
    slli t1, t0, 2
    add  t1, t1, a1
    lw   t1, 0(t1)
    li   t2, 0
    li   t3, 0
    inner:
    slli t4, t2, 2
    add  t4, t4, a1
    lw   t4, 0(t4)
    bltu t4, t1, inc
    bne  t4, t1, next
    bge  t2, t0, next
    inc:
    addi t3, t3, 1
    next:
    addi t2, t2, 1
    blt  t2, a0, inner
    slli t4, t3, 2
    add  t4, t4, a3
    sw   t1, 0(t4)
    addi t0, t0, 1
    blt  t0, a0, outer
    done:
    ecall
";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::data;
    use ggpu_prop::Rng;

    /// The kernel's own algorithm: each value lands at its rank, the
    /// count of smaller values plus equal values at lower indices. The
    /// oracle the sort-based reference is checked against.
    fn rank_golden(n: u32, a: &[u32]) -> Vec<u32> {
        let n = n as usize;
        let mut out = vec![0u32; n];
        for i in 0..n {
            let v = a[i];
            let rank = a
                .iter()
                .enumerate()
                .filter(|&(j, &w)| w < v || (w == v && j < i))
                .count();
            out[rank] = v;
        }
        out
    }

    #[test]
    fn sorted_reference_matches_the_rank_placement() {
        for n in 0..=130u32 {
            let (a, b) = inputs(n);
            assert_eq!(golden(n, &a, &b), rank_golden(n, &a), "n = {n}");
            // Few distinct values: long runs of index tie-breaks.
            let few = data(n as usize, 5, 3);
            assert_eq!(golden(n, &few, &[]), rank_golden(n, &few), "ties n = {n}");
        }
    }

    #[test]
    fn sorted_reference_matches_on_adversarial_inputs() {
        let len = 67;
        let alternating: Vec<u32> = (0..len)
            .map(|i| if i % 3 == 0 { u32::MAX } else { 0 })
            .collect();
        let descending: Vec<u32> = (0..len as u32).rev().collect();
        let mut rng = Rng::seeded(18);
        let cases = [
            vec![42; len],
            vec![0; len],
            vec![u32::MAX; len],
            alternating,
            descending,
            (0..len).map(|_| rng.any_u32()).collect(),
        ];
        for a in &cases {
            assert_eq!(golden(len as u32, a, &[]), rank_golden(len as u32, a));
        }
    }
}
