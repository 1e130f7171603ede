//! Differential suite for the batched sampling kernels.
//!
//! The batched paths (`AliasTable::sample_batch` behind
//! `DiscreteDistribution::sample_batch`/`sample_batch_into`, and the
//! adaptive `CollisionScratch`) promise **bit-identity** with the
//! scalar paths they replace: same draws, same RNG end state, same
//! verdicts — for *any* `RngCore`, not just the one the benchmarks
//! happen to use. This suite drives that contract across the
//! pmf/hostile-weights strategy palette on both `StdRng` (the trial
//! generator) and the counter-based `BatchRng`.
//!
//! The Monte-Carlo trial generator `dut_core::montecarlo::sampling_rng`
//! is also checked against the exact oracle: the gap tester's
//! rejection-rate estimate on it must land inside a tight band around
//! the closed-form rate.

use dut_core::decision::Decision;
use dut_core::gap::GapTester;
use dut_core::montecarlo::{sampling_rng, trial_rng, MonteCarlo};
use dut_core::scratch::TesterScratch;
use dut_distributions::batch::BatchRng;
use dut_distributions::collision::{has_collision, CollisionScratch};
use dut_distributions::DiscreteDistribution;
use dut_testkit::oracles;
use dut_testkit::strategies;
use proptest::collection;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Asserts the batched draws, the appended draws, and the RNG end
/// state all match the scalar path exactly on `R`.
fn assert_bit_identical<R: RngCore + SeedableRng + Clone>(
    dist: &DiscreteDistribution,
    seed: u64,
    draws: usize,
) -> Result<(), TestCaseError> {
    let mut scalar_rng = R::seed_from_u64(seed);
    let expect: Vec<usize> = (0..draws).map(|_| dist.sample(&mut scalar_rng)).collect();

    let mut batched_rng = R::seed_from_u64(seed);
    let mut out = vec![0u32; draws];
    dist.sample_batch(&mut batched_rng, &mut out);
    let got: Vec<usize> = out.iter().map(|&x| x as usize).collect();
    prop_assert_eq!(&got, &expect, "sample_batch diverged from scalar sample");
    prop_assert_eq!(
        batched_rng.next_u64(),
        scalar_rng.next_u64(),
        "sample_batch left the RNG in a different state"
    );

    let mut into_rng = R::seed_from_u64(seed);
    let mut appended = vec![usize::MAX];
    dist.sample_batch_into(&mut into_rng, draws, &mut appended);
    prop_assert_eq!(&appended[0], &usize::MAX, "sample_batch_into must append");
    prop_assert_eq!(&appended[1..], &expect[..], "sample_batch_into diverged");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Alias-table batched draws are bit-identical to scalar draws on
    /// arbitrary valid pmfs, for both trial generators.
    #[test]
    fn batched_draws_bit_identical_on_pmfs(
        p in strategies::pmf(1, 64),
        seed in any::<u64>(),
        draws in 0usize..200,
    ) {
        let dist = DiscreteDistribution::from_pmf(p).unwrap();
        assert_bit_identical::<StdRng>(&dist, seed, draws)?;
        assert_bit_identical::<BatchRng>(&dist, seed, draws)?;
    }

    /// Same contract on the hostile-weights palette: every weight
    /// vector the constructor accepts must sample identically batched
    /// and scalar (vectors it rejects are out of scope here — the
    /// constructor-rejection suite owns those).
    #[test]
    fn batched_draws_bit_identical_on_hostile_weights(
        w in strategies::hostile_weights(1, 32),
        seed in any::<u64>(),
    ) {
        if let Ok(dist) = DiscreteDistribution::from_weights(w) {
            assert_bit_identical::<StdRng>(&dist, seed, 100)?;
            assert_bit_identical::<BatchRng>(&dist, seed, 100)?;
        }
    }

    /// Uniform distributions take the multiply-shift fast path inside
    /// `sample_batch`; it must stay on the scalar stream too.
    #[test]
    fn batched_draws_bit_identical_on_uniform(
        n in 1usize..5000,
        seed in any::<u64>(),
        draws in 0usize..200,
    ) {
        let dist = DiscreteDistribution::uniform(n);
        assert_bit_identical::<StdRng>(&dist, seed, draws)?;
        assert_bit_identical::<BatchRng>(&dist, seed, draws)?;
    }

    /// The adaptive collision scratch (stamp mode, bitset mode, and the
    /// mid-call conversion between them) agrees with the sort-based
    /// detector on every sample set, including values that straddle the
    /// 2^19 stamp ceiling.
    #[test]
    fn collision_scratch_agrees_with_sort(
        sets in collection::vec(
            collection::vec(
                // Mix small values with values past the stamp ceiling so
                // runs exercise both table layouts and the conversion
                // (the shim has no prop_oneof; fold the coin into the range).
                (0usize..200).prop_map(|v| {
                    if v < 100 { v } else { (1usize << 19) - 50 + (v - 100) }
                }),
                0..20,
            ),
            1..8,
        ),
    ) {
        let mut scratch = CollisionScratch::new();
        for set in &sets {
            prop_assert_eq!(
                scratch.has_collision(set),
                has_collision(set),
                "scratch diverged on {:?}", set
            );
        }
    }

    /// End-to-end verdict identity: the gap tester over the batched
    /// draw path reaches the same decision as the same tester drawing
    /// scalar samples with the same RNG stream.
    #[test]
    fn gap_tester_verdicts_identical_batched_vs_scalar(
        p in strategies::pmf(2, 32),
        seed in any::<u64>(),
    ) {
        let dist = DiscreteDistribution::from_pmf(p).unwrap();
        // Tiny domains can't meet the tester's sample plan; skip those.
        let Ok(tester) = GapTester::new(dist.domain_size(), 0.2) else {
            return Ok(());
        };
        // Batched: run_with_scratch routes through sample_batch_into.
        let mut scratch = TesterScratch::new();
        let mut rng = trial_rng(seed);
        let batched = tester.run_with_scratch(&dist, &mut rng, &mut scratch);
        // Scalar: draw the samples one by one from a fresh stream.
        let mut rng = trial_rng(seed);
        let samples: Vec<usize> = (0..tester.samples()).map(|_| dist.sample(&mut rng)).collect();
        let scalar = Decision::from_accept(!has_collision(&samples));
        prop_assert_eq!(batched, scalar);
    }
}

/// Verdict contract for the trial generator: the Monte-Carlo
/// rejection-rate estimate on `sampling_rng` streams must bracket the
/// exact oracle's closed-form rate, so a kernel bug that skews the
/// sample distribution fails here.
#[test]
fn gap_tester_rejection_rate_matches_exact_oracle_on_sampling_rng() {
    let n = 256;
    let tester = GapTester::new(n, 0.1).unwrap();
    let uniform = DiscreteDistribution::uniform(n);
    let exact = oracles::rejection_probability(uniform.pmf_slice(), tester.samples());
    let trials = 20_000u32;
    let estimate = MonteCarlo::new(trials as usize, 99)
        .run_with_state(TesterScratch::new, |seed, scratch| {
            let mut rng = sampling_rng(seed);
            tester.run_with_scratch(&uniform, &mut rng, scratch) == Decision::Reject
        })
        .expect("trials > 0");
    // 5σ band around the exact binomial rate: loose enough to never
    // flake, tight enough to catch a biased kernel.
    let sigma = (exact * (1.0 - exact) / f64::from(trials)).sqrt();
    let err = (estimate.rate - exact).abs();
    assert!(
        err <= 5.0 * sigma,
        "estimate {} vs exact {exact} ({} sigma)",
        estimate.rate,
        err / sigma
    );
}
