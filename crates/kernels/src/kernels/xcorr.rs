//! `xcorr`: circular cross-correlation,
//! `out[lag] = sum_i a[i] * b[(i+lag) mod n]` — long per-item
//! reductions. Both implementations use a wrapping pointer for `b`
//! and unroll by four; the wrap check diverges briefly per wavefront
//! (each lane wraps at a different `i`), and the long `b` window
//! stresses the shared direct-mapped cache.

use crate::layout::data;

/// Kernel name as reported in the paper's Table III.
pub const NAME: &str = "xcorr";

/// Builds the `(a, b)` sequences of length `n` (`n` divisible by 4).
pub fn inputs(n: u32) -> (Vec<u32>, Vec<u32>) {
    (data(n as usize, 10, 251), data(n as usize, 11, 251))
}

/// Reference output (one value per lag). Each lag's sum splits at the
/// wrap point into two contiguous dot products, `a[..n-lag]·b[lag..]`
/// and `a[n-lag..]·b[..lag]`, so no term needs an index modulo `n`.
pub fn golden(n: u32, a: &[u32], b: &[u32]) -> Vec<u32> {
    let n = n as usize;
    let (a, b) = (&a[..n], &b[..n]);
    (0..n)
        .map(|lag| {
            let (head, tail) = a.split_at(n - lag);
            dot(head, &b[lag..]).wrapping_add(dot(tail, &b[..lag]))
        })
        .collect()
}

/// Wrapping dot product of two equal-length slices.
fn dot(x: &[u32], y: &[u32]) -> u32 {
    x.iter()
        .zip(y)
        .fold(0u32, |acc, (&p, &q)| acc.wrapping_add(p.wrapping_mul(q)))
}

/// G-GPU kernel (params: 0=n lags, 1=&a, 2=&b, 3=&out, 4=n).
pub const GPU_ASM: &str = include_str!("asm/xcorr.s");

/// RISC-V program (a0=n lags, a1=&a, a2=&b, a3=&out, a4=n).
pub const RISCV_ASM: &str = "
    beqz a0, done
    slli s0, a4, 2       # size in bytes
    add  s1, a2, s0      # bEnd
    li   t0, 0           # lag
    outer:
    mv   t1, a1          # pA
    add  s2, a1, s0      # aEnd
    slli t2, t0, 2
    add  t2, t2, a2      # pB = &b[lag]
    li   t3, 0           # acc
    inner:
    lw   t4, 0(t1)
    lw   t5, 0(t2)
    mul  t4, t4, t5
    add  t3, t3, t4
    addi t2, t2, 4
    blt  t2, s1, w0
    sub  t2, t2, s0
    w0:
    lw   t4, 4(t1)
    lw   t5, 0(t2)
    mul  t4, t4, t5
    add  t3, t3, t4
    addi t2, t2, 4
    blt  t2, s1, w1
    sub  t2, t2, s0
    w1:
    lw   t4, 8(t1)
    lw   t5, 0(t2)
    mul  t4, t4, t5
    add  t3, t3, t4
    addi t2, t2, 4
    blt  t2, s1, w2
    sub  t2, t2, s0
    w2:
    lw   t4, 12(t1)
    lw   t5, 0(t2)
    mul  t4, t4, t5
    add  t3, t3, t4
    addi t2, t2, 4
    blt  t2, s1, w3
    sub  t2, t2, s0
    w3:
    addi t1, t1, 16
    blt  t1, s2, inner
    slli t4, t0, 2
    add  t4, t4, a3
    sw   t3, 0(t4)
    addi t0, t0, 1
    blt  t0, a0, outer
    done:
    ecall
";

#[cfg(test)]
mod tests {
    use super::*;
    use ggpu_prop::Rng;

    /// The textbook definition, one `% n` per term: the oracle the
    /// split-at-the-wrap reference is checked against.
    fn modulo_golden(n: u32, a: &[u32], b: &[u32]) -> Vec<u32> {
        let n = n as usize;
        (0..n)
            .map(|lag| {
                (0..n)
                    .map(|i| a[i].wrapping_mul(b[(i + lag) % n]))
                    .fold(0u32, u32::wrapping_add)
            })
            .collect()
    }

    #[test]
    fn split_reference_matches_the_modulo_definition() {
        let mut rng = Rng::seeded(18);
        for n in 0..=130u32 {
            let (a, b) = inputs(n);
            assert_eq!(golden(n, &a, &b), modulo_golden(n, &a, &b), "n = {n}");
            // Full-range words: nearly every product and sum wraps.
            let a: Vec<u32> = (0..n).map(|_| rng.any_u32()).collect();
            let b: Vec<u32> = (0..n).map(|_| rng.any_u32()).collect();
            assert_eq!(golden(n, &a, &b), modulo_golden(n, &a, &b), "wide n = {n}");
        }
    }

    #[test]
    fn split_reference_matches_on_adversarial_inputs() {
        let n = 67;
        let len = n as usize;
        let alternating: Vec<u32> = (0..len)
            .map(|i| if i % 2 == 0 { 0 } else { u32::MAX })
            .collect();
        let cases: [(Vec<u32>, Vec<u32>); 5] = [
            (vec![7; len], vec![7; len]),
            (vec![0; len], vec![u32::MAX; len]),
            (vec![u32::MAX; len], vec![u32::MAX; len]),
            (
                alternating.clone(),
                alternating.iter().rev().copied().collect(),
            ),
            (vec![0x8000_0001; len], vec![0xFFFF_0003; len]),
        ];
        for (a, b) in &cases {
            assert_eq!(golden(n, a, b), modulo_golden(n, a, b));
        }
    }
}
