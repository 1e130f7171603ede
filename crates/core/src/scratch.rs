//! Reusable per-trial buffers for Monte-Carlo-scale simulation.
//!
//! A single tester run is cheap; the experiments run millions of them.
//! The single-node `run`s (`GapTester`, `RepeatedGapTester`) create a
//! sample `Vec` and a sort buffer per call, which at Monte-Carlo scale
//! turns the allocator into the bottleneck. Each tester therefore has a
//! `run_with_scratch` variant threading a [`TesterScratch`] through; the
//! multi-node 0-round testers' `run`s build one per network run and
//! pass it through every node, so a run allocates the same two buffers
//! at any node count. Decisions are bit-identical to the allocating
//! paths: the same sample stream is drawn and the marking-table
//! collision detector agrees exactly with the sorting one.
//!
//! Pair with [`crate::montecarlo::estimate_failure_rate_with_state`],
//! which gives every worker thread its own scratch:
//!
//! ```rust
//! use dut_core::gap::GapTester;
//! use dut_core::decision::Decision;
//! use dut_core::montecarlo::{estimate_failure_rate_with_state, trial_rng};
//! use dut_core::scratch::TesterScratch;
//! use dut_distributions::DiscreteDistribution;
//!
//! let n = 1 << 12;
//! let tester = GapTester::new(n, 0.05).unwrap();
//! let uniform = DiscreteDistribution::uniform(n);
//! let estimate = estimate_failure_rate_with_state(
//!     5_000,
//!     7,
//!     TesterScratch::new,
//!     |seed, scratch| {
//!         let mut rng = trial_rng(seed);
//!         tester.run_with_scratch(&uniform, &mut rng, scratch) == Decision::Reject
//!     },
//! )
//! .unwrap();
//! assert!(estimate.rate <= 0.1);
//! ```

use dut_distributions::collision::CollisionScratch;

/// Reusable buffers for one tester's trials: a sample buffer and a
/// collision detector. One scratch serves any mix of testers and domain
/// sizes; buffers grow to the largest seen and stay.
#[derive(Debug, Clone, Default)]
pub struct TesterScratch {
    /// Per-trial sample buffer (cleared, not shrunk, between trials).
    pub(crate) samples: Vec<usize>,
    /// O(s) collision detector with a generation-stamped marking table.
    pub(crate) collision: CollisionScratch,
}

impl TesterScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        TesterScratch::default()
    }

    /// Creates a scratch pre-sized for `samples` samples over domain
    /// `0..domain_size`, avoiding even first-trial growth.
    pub fn with_capacity(domain_size: usize, samples: usize) -> Self {
        TesterScratch {
            samples: Vec::with_capacity(samples),
            collision: CollisionScratch::with_domain(domain_size),
        }
    }

    /// The collision detector alone (for `run_on_samples_with` call
    /// sites that gather samples elsewhere).
    pub fn collision_mut(&mut self) -> &mut CollisionScratch {
        &mut self.collision
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_constructors() {
        let mut s = TesterScratch::new();
        assert!(!s.collision_mut().has_collision(&[1, 2, 3]));
        let mut p = TesterScratch::with_capacity(64, 8);
        assert!(p.collision_mut().has_collision(&[63, 63]));
    }
}
