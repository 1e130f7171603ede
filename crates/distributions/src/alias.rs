//! Walker alias method for O(1) sampling from a discrete distribution.
//!
//! The alias method preprocesses a probability mass function over
//! `{0, .., n-1}` into a column table in O(n) time. Sampling then
//! draws one uniform index and one uniform real, which is optimal.
//! This is internal machinery for
//! [`DiscreteDistribution`](crate::DiscreteDistribution).
//!
//! Layout: each column stores its acceptance probability and alias
//! side by side ([`Column`]), so a draw touches **one** table slot —
//! one bounds check, one cache line — instead of parallel `prob[i]` /
//! `alias[i]` arrays costing two of each. Construction normalizes the
//! weights *during* the small/large classification pass rather than in
//! a separate scaled-copy pass (the column table doubles as the
//! working residual array).
//!
//! [`AliasTable::sample_batch`] is the batched kernel. The
//! accept-or-alias choice is resolved by indexing the column's
//! [`Column::pick`] pair with the comparison bit rather than by an
//! `if`/select: the pair lives in the heap table, so the compiled code
//! is a load whose *address* depends on the comparison — branchless by
//! construction. Writing the choice as a select is ~2.4× slower here:
//! LLVM lowers a select that feeds a store to a conditional branch,
//! and `frac < prob` is a coin flip per draw, so that branch
//! mispredicts constantly (measured ~17 vs ~7 cycles/draw on a
//! baseline-x86-64 Xeon). For the same reason the kernel deliberately
//! draws its `u64`s serially per sample instead of pre-filling a lane
//! buffer: without AVX-512, autovectorizing SplitMix64 synthesizes
//! each 64-bit vector multiply from three 32×32 `pmuludq`s and is
//! slower than native scalar `imul`.
//!
//! The draws consumed per sample — one index word, one fraction word,
//! in that order — replicate [`AliasTable::sample`]'s exactly, so for
//! any `RngCore` the batched path is bit-identical to a loop of scalar
//! draws.

use rand::Rng;

/// One alias column: acceptance probability and the two candidate
/// outcomes of a draw, laid out for branchless indexing.
#[derive(Debug, Clone, Copy)]
struct Column {
    /// Acceptance probability of this column (scaled to [0, 1]).
    prob: f64,
    /// `pick[1]` is the column's own index (chosen when the fraction
    /// draw lands below `prob`), `pick[0]` the alias fallback; columns
    /// with `prob == 1.0` never consult `pick[0]` and self-alias. A
    /// draw computes `pick[(frac < prob) as usize]` — one load at a
    /// comparison-dependent address, no select, no branch.
    pick: [u32; 2],
}

/// Preprocessed alias table for a discrete distribution.
#[derive(Debug, Clone)]
pub(crate) struct AliasTable {
    cols: Vec<Column>,
}

impl AliasTable {
    /// Builds the alias table from non-negative weights.
    ///
    /// Weights need not be normalized; they are normalized internally.
    /// Panics if the weight vector is empty or sums to a non-positive
    /// or non-finite value — callers ([`DiscreteDistribution`])
    /// validate first. The finiteness assert matters: a `+inf` total
    /// (one infinite weight, or finite weights whose sum overflows)
    /// would make `scale == 0` and silently degenerate the sampler, so
    /// it must fail loudly here rather than sample from the wrong
    /// distribution.
    ///
    /// [`DiscreteDistribution`]: crate::DiscreteDistribution
    pub(crate) fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table needs at least one weight");
        assert!(
            weights.len() <= u32::MAX as usize,
            "alias table domain exceeds u32 range"
        );
        let n = weights.len();
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "alias table weights must have positive sum");
        assert!(
            total.is_finite(),
            "alias table weights must have a finite sum"
        );

        // Scale so the average column is exactly 1. The scaling is
        // folded into the classification pass below — `cols[i].prob`
        // starts as the scaled weight and doubles as the residual-mass
        // working array, so there is no separate normalized copy.
        let scale = n as f64 / total;
        let mut cols: Vec<Column> = Vec::with_capacity(n);
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &w) in weights.iter().enumerate() {
            let scaled = w * scale;
            cols.push(Column {
                prob: scaled,
                pick: [i as u32, i as u32],
            });
            if scaled < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }

        // Classic two-stack (small/large) construction.
        while !small.is_empty() && !large.is_empty() {
            let s = small.pop().expect("checked non-empty");
            let l = *large.last().expect("checked non-empty");
            // The small column keeps its residual as its acceptance
            // probability and points at the donor.
            cols[s as usize].pick[0] = l;
            // Large column donates mass to fill the small column up to 1.
            let donated = (cols[l as usize].prob + cols[s as usize].prob) - 1.0;
            cols[l as usize].prob = donated;
            if donated < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Numerical leftovers: all remaining columns are full.
        for l in large {
            cols[l as usize].prob = 1.0;
        }
        for s in small {
            cols[s as usize].prob = 1.0;
        }

        AliasTable { cols }
    }

    /// Draws one sample in O(1).
    #[inline]
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.gen_range(0..self.cols.len());
        let col = &self.cols[i];
        col.pick[(rng.gen::<f64>() < col.prob) as usize] as usize
    }

    /// Fills `out` with `out.len()` samples. Per draw: one
    /// widening-multiply bounded index (the exact `gen_range(0..n)`
    /// reduction of the vendored rand), one 53-bit unit float (the
    /// exact `gen::<f64>()` map), and a [`Column::pick`] load indexed
    /// by the comparison — no data-dependent branch anywhere in the
    /// loop (see the module docs for why this beats both a select and
    /// a lane-buffered pre-fill). Bit-identical to `out.len()` scalar
    /// [`AliasTable::sample`] calls on the same generator state, for
    /// any `R` — the per-sample word order (index word, then fraction
    /// word) is the same.
    pub(crate) fn sample_batch<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [u32]) {
        let n = self.cols.len() as u64;
        for o in out.iter_mut() {
            let i = ((u128::from(rng.next_u64()) * u128::from(n)) >> 64) as usize;
            let col = &self.cols[i];
            let frac = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            *o = col.pick[(frac < col.prob) as usize];
        }
    }

    /// Number of columns (domain size).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.cols.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchRng;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn empirical(table: &AliasTable, trials: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counts = vec![0usize; table.len()];
        for _ in 0..trials {
            counts[table.sample(&mut rng)] += 1;
        }
        counts.iter().map(|&c| c as f64 / trials as f64).collect()
    }

    /// The pre-optimization reference construction: a separate scaled
    /// copy of the weights and parallel `prob`/`alias` arrays. The
    /// production [`AliasTable::new`] must build exactly these values.
    fn reference_tables(weights: &[f64]) -> (Vec<f64>, Vec<u32>) {
        let n = weights.len();
        let total: f64 = weights.iter().sum();
        let scale = n as f64 / total;
        let mut scaled: Vec<f64> = weights.iter().map(|w| w * scale).collect();
        let mut prob = vec![0.0f64; n];
        let mut alias: Vec<u32> = (0..n as u32).collect();
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &w) in scaled.iter().enumerate() {
            if w < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while !small.is_empty() && !large.is_empty() {
            let s = small.pop().unwrap();
            let l = *large.last().unwrap();
            prob[s as usize] = scaled[s as usize];
            alias[s as usize] = l;
            scaled[l as usize] = (scaled[l as usize] + scaled[s as usize]) - 1.0;
            if scaled[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        for l in large {
            prob[l as usize] = 1.0;
        }
        for s in small {
            prob[s as usize] = 1.0;
        }
        (prob, alias)
    }

    #[test]
    fn construction_matches_the_reference_two_array_build() {
        // Regression test for the folded-normalization / merged-column
        // construction: identical probs and aliases, bit for bit.
        let palettes: &[&[f64]] = &[
            &[1.0],
            &[1.0; 8],
            &[1.0, 2.0, 3.0, 4.0],
            &[0.0, 1.0, 0.0, 1.0],
            &[25.0, 75.0],
            &[1e-12, 1.0, 1e12],
            &[0.3, 0.3, 0.4, 1e-9, 7.0, 0.0, 2.5],
        ];
        for weights in palettes {
            let table = AliasTable::new(weights);
            let (prob, alias) = reference_tables(weights);
            for (i, col) in table.cols.iter().enumerate() {
                assert_eq!(
                    col.prob.to_bits(),
                    prob[i].to_bits(),
                    "prob[{i}] for {weights:?}"
                );
                assert_eq!(col.pick[1], i as u32, "pick[1] for {weights:?}");
                if prob[i] < 1.0 {
                    assert_eq!(col.pick[0], alias[i], "alias[{i}] for {weights:?}");
                }
            }
        }
    }

    #[test]
    fn batched_draws_are_bit_identical_to_scalar() {
        let table = AliasTable::new(&[1.0, 2.0, 3.0, 4.0, 0.5, 9.0, 0.0, 1.5]);
        for seed in [0u64, 1, 7, 12345] {
            // StdRng: the default (bit-identical) path.
            let mut scalar = StdRng::seed_from_u64(seed);
            let expect: Vec<u32> = (0..100).map(|_| table.sample(&mut scalar) as u32).collect();
            let mut batched = StdRng::seed_from_u64(seed);
            let mut got = vec![0u32; 100];
            table.sample_batch(&mut batched, &mut got);
            assert_eq!(got, expect, "StdRng seed {seed}");
            // BatchRng: the counter-based stream must agree with its
            // own scalar draws too.
            let mut scalar = BatchRng::new(seed);
            let expect: Vec<u32> = (0..100).map(|_| table.sample(&mut scalar) as u32).collect();
            let mut batched = BatchRng::new(seed);
            table.sample_batch(&mut batched, &mut got);
            assert_eq!(got, expect, "BatchRng seed {seed}");
        }
    }

    #[test]
    fn batched_draws_leave_the_rng_in_the_scalar_state() {
        use rand::RngCore;
        let table = AliasTable::new(&[2.0, 1.0, 1.0]);
        let mut a = StdRng::seed_from_u64(8);
        let mut buf = vec![0u32; 37]; // deliberately not a LANES multiple
        table.sample_batch(&mut a, &mut buf);
        let mut b = StdRng::seed_from_u64(8);
        for _ in 0..37 {
            table.sample(&mut b);
        }
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_weights_sample_uniformly() {
        let table = AliasTable::new(&[1.0; 8]);
        let freqs = empirical(&table, 200_000, 1);
        for f in freqs {
            assert!((f - 0.125).abs() < 0.01, "frequency {f} too far from 1/8");
        }
    }

    #[test]
    fn skewed_weights_match_expectations() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let table = AliasTable::new(&weights);
        let freqs = empirical(&table, 400_000, 2);
        for (i, f) in freqs.iter().enumerate() {
            let expected = weights[i] / 10.0;
            assert!(
                (f - expected).abs() < 0.01,
                "index {i}: frequency {f} vs expected {expected}"
            );
        }
    }

    #[test]
    fn single_element_always_sampled() {
        let table = AliasTable::new(&[42.0]);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert_eq!(table.sample(&mut rng), 0);
        }
    }

    #[test]
    fn zero_weight_elements_never_sampled() {
        let table = AliasTable::new(&[0.0, 1.0, 0.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10_000 {
            let s = table.sample(&mut rng);
            assert!(s == 1 || s == 3, "sampled zero-weight index {s}");
        }
        let mut out = vec![0u32; 10_000];
        table.sample_batch(&mut StdRng::seed_from_u64(5), &mut out);
        assert!(out.iter().all(|&s| s == 1 || s == 3));
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn empty_weights_panic() {
        let _ = AliasTable::new(&[]);
    }

    #[test]
    #[should_panic(expected = "positive sum")]
    fn all_zero_weights_panic() {
        let _ = AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    fn unnormalized_weights_are_normalized() {
        // Sum is 100, not 1 — sampling must still follow the ratios.
        let table = AliasTable::new(&[25.0, 75.0]);
        let freqs = empirical(&table, 100_000, 5);
        assert!((freqs[0] - 0.25).abs() < 0.01);
        assert!((freqs[1] - 0.75).abs() < 0.01);
    }
}
