//! Batched (lane-oriented) random generation for the sampling hot
//! loops.
//!
//! The Monte-Carlo inner loops draw millions of `u64`s one call at a
//! time. [`BatchRng`] is a counter-based splitmix64 generator whose
//! output `i` is a pure finalizer over `state + (i+1)·φ` — there is no
//! loop-carried dependency between lanes, so [`BatchRng::fill`] is a
//! straight-line loop LLVM autovectorizes (no `unsafe`, no
//! intrinsics). The serial [`rand::RngCore`] implementation walks the
//! **same** stream, so `fill(&mut buf)` is bit-identical to calling
//! `next_u64()` `buf.len()` times — batching is a pure reordering of
//! work, never of randomness.
//!
//! Batch consumers ([`AliasTable::sample_batch`] and the
//! [`DiscreteDistribution`] uniform fast path) process draws in blocks
//! of [`LANES`]; the constant is exported so callers can size stack
//! buffers to the same width.
//!
//! `BatchRng` is **not** the trial generator — the executor's
//! documented streams use `StdRng` (xoshiro256++), and
//! `dut_core::montecarlo::sampling_rng` returns one. `BatchRng` is a
//! standalone generator for callers that draw in bulk; the batched
//! kernels are bit-identical to their scalar draws on it as on any
//! `RngCore`.
//!
//! [`AliasTable::sample_batch`]: crate::DiscreteDistribution::sample_batch
//! [`DiscreteDistribution`]: crate::DiscreteDistribution

use rand::{RngCore, SeedableRng};

/// Lane width of the batched kernels: draws are produced and consumed
/// in blocks of this many samples. 16 × u64 fills two AVX2 (or one
/// AVX-512) register group per vectorized mix step while keeping the
/// per-block stack scratch (`[u64; 2·LANES]`) trivially small.
pub const LANES: usize = 16;

/// The splitmix64 increment (the 64-bit golden ratio).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 finalizer: a pure bijective mix of one counter word.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A counter-based splitmix64 generator with a vectorizable batch
/// fill. See the module docs for the stream contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRng {
    state: u64,
}

impl BatchRng {
    /// A generator seeded at `seed`; the stream is the classic
    /// splitmix64 sequence `mix(seed + i·φ)` for `i = 1, 2, ...`.
    pub fn new(seed: u64) -> Self {
        BatchRng { state: seed }
    }

    /// Fills `out` with the next `out.len()` outputs of the stream —
    /// bit-identical to that many [`RngCore::next_u64`] calls, but as
    /// an autovectorizable loop: each lane is `mix(base + (j+1)·φ)`,
    /// independent of every other lane.
    #[inline]
    pub fn fill(&mut self, out: &mut [u64]) {
        let base = self.state;
        for (j, o) in out.iter_mut().enumerate() {
            *o = mix(base.wrapping_add(GOLDEN.wrapping_mul(j as u64 + 1)));
        }
        self.state = base.wrapping_add(GOLDEN.wrapping_mul(out.len() as u64));
    }
}

impl RngCore for BatchRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        mix(self.state)
    }
}

impl SeedableRng for BatchRng {
    type Seed = [u8; 8];

    fn from_seed(seed: Self::Seed) -> Self {
        BatchRng::new(u64::from_le_bytes(seed))
    }

    /// Uses `state` directly (the counter construction already *is*
    /// splitmix64 expansion, so re-expanding would mix twice).
    fn seed_from_u64(state: u64) -> Self {
        BatchRng::new(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn fill_is_bit_identical_to_serial_draws() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let mut serial = BatchRng::new(seed);
            let expect: Vec<u64> = (0..100).map(|_| serial.next_u64()).collect();
            let mut batched = BatchRng::new(seed);
            let mut got = vec![0u64; 100];
            // Uneven block sizes: the stream must not depend on how
            // the fill calls are split.
            let (a, rest) = got.split_at_mut(7);
            let (b, c) = rest.split_at_mut(64);
            batched.fill(a);
            batched.fill(b);
            batched.fill(c);
            assert_eq!(got, expect, "seed {seed}");
        }
    }

    #[test]
    fn empty_fill_is_a_no_op() {
        let mut rng = BatchRng::new(9);
        let before = rng.clone();
        rng.fill(&mut []);
        assert_eq!(rng, before);
        assert_eq!(rng.next_u64(), before.clone().next_u64());
    }

    #[test]
    fn streams_are_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = BatchRng::new(3);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = BatchRng::new(3);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = BatchRng::new(4);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn works_through_the_rng_trait() {
        let mut rng = BatchRng::new(11);
        for _ in 0..10_000 {
            let x = rng.gen_range(10usize..20);
            assert!((10..20).contains(&x));
            let f = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn unit_floats_are_roughly_uniform() {
        let mut rng = BatchRng::new(5);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} far from 0.5");
    }

    #[test]
    fn seed_from_u64_matches_new() {
        let mut a = BatchRng::seed_from_u64(77);
        let mut b = BatchRng::new(77);
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
