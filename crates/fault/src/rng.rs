//! Deterministic pseudo-random numbers for campaign trial derivation.
//!
//! The same splitmix64 generator as `ggpu-prop`'s test harness, kept
//! local so the campaign's determinism contract (`seed` ⇒ byte-identical
//! report) depends only on this crate. A dev-test cross-checks the two
//! implementations bit-for-bit.

/// splitmix64: tiny, fast, and statistically strong enough to scatter
/// injection sites; cryptographic quality is irrelevant here.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator with the given seed.
    pub fn seeded(seed: u64) -> Self {
        Self {
            // Avoid the all-zero orbit start without losing
            // determinism (same whitening as ggpu-prop).
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// A per-trial generator: mixes the campaign seed with the trial
    /// index so trial `i`'s stream is independent of which trials ran
    /// before it (required for thread-count determinism: a campaign's
    /// report does not depend on how its trials split across workers).
    pub fn for_trial(seed: u64, trial: u64) -> Self {
        let mut r = Self::seeded(seed ^ trial.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        // Burn one output so adjacent trial seeds decorrelate.
        let _ = r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound` > 0).
    pub fn u64_in(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Modulo bias is < 2^-32 for every bound used here (all far
        // below 2^32); irrelevant for fault sampling.
        self.next_u64() % bound
    }

    /// Uniform in `0..bound` (`bound` > 0).
    pub fn u32_in(&mut self, bound: u32) -> u32 {
        self.u64_in(u64::from(bound)) as u32
    }

    /// Uniform in `0..bound` (`bound` > 0).
    pub fn usize_in(&mut self, bound: usize) -> usize {
        self.u64_in(bound as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_prop_crate_stream() {
        let mut a = Rng::seeded(0xfeed_beef);
        let mut b = ggpu_prop::Rng::seeded(0xfeed_beef);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn trial_streams_differ() {
        let x = Rng::for_trial(7, 0).next_u64();
        let y = Rng::for_trial(7, 1).next_u64();
        assert_ne!(x, y);
        // And are reproducible.
        assert_eq!(Rng::for_trial(7, 0).next_u64(), x);
    }

    #[test]
    fn bounds_respected() {
        let mut r = Rng::seeded(1);
        for _ in 0..1000 {
            assert!(r.u64_in(7) < 7);
            assert!(r.u32_in(3) < 3);
            assert!(r.usize_in(10) < 10);
        }
    }
}
