//! Differential suite for the 0-round network testers' `run`s.
//!
//! `AsymmetricThresholdTester`, `AsymmetricAndTester`, `AndNetworkTester`
//! and `ThresholdNetworkTester` run every node of a network through one
//! shared `TesterScratch`: a batched `draw_into` and the marking-table
//! `CollisionScratch`. They promise exactly what the per-node allocating
//! loop they replaced gave — `draw_many` plus the sorting
//! `has_collision` at every node — and the same RNG stream. That loop is
//! frozen in [`frozen`] as the oracle.
//!
//! Cases cover domain sizes on both sides of the collision scratch's
//! stamp/bitset switch (2^10 and 2^19 use stamps, 2^19+1 and 2^20 the
//! bitset), uniform, two-class and power-law costs (the last two price
//! some nodes out at small `n`), uniform and far inputs, and both a bare
//! `DiscreteDistribution` and a `DistributionOracle`.

use dut_core::asymmetric::{AsymmetricAndTester, AsymmetricThresholdTester, CostVector};
use dut_core::decision::NetworkOutcome;
use dut_core::zero_round::{AndNetworkTester, ThresholdNetworkTester};
use dut_distributions::families::paninski_far;
use dut_distributions::{DiscreteDistribution, DistributionOracle, SampleOracle};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The per-node allocating loop the network `run`s used before they
/// shared one scratch per run.
mod frozen {
    use dut_core::asymmetric::{AsymmetricAndTester, AsymmetricThresholdTester};
    use dut_core::decision::{DecisionRule, NetworkOutcome};
    use dut_core::zero_round::{AndNetworkTester, ThresholdNetworkTester};
    use dut_distributions::collision::has_collision;
    use dut_distributions::SampleOracle;
    use rand::rngs::StdRng;

    /// One node's gap test: `s` fresh samples, reject on any collision.
    fn node_rejects<O: SampleOracle + ?Sized>(oracle: &O, rng: &mut StdRng, s: usize) -> bool {
        has_collision(&oracle.draw_many(rng, s))
    }

    /// `m` gap tests of `s` samples, rejecting iff all reject (stops
    /// drawing at the first accept).
    fn repeated_rejects<O: SampleOracle + ?Sized>(
        oracle: &O,
        rng: &mut StdRng,
        s: usize,
        m: usize,
    ) -> bool {
        (0..m).all(|_| node_rejects(oracle, rng, s))
    }

    fn outcome(rule: DecisionRule, rejecting_nodes: usize, nodes: usize) -> NetworkOutcome {
        NetworkOutcome {
            decision: rule.decide(rejecting_nodes),
            rejecting_nodes,
            nodes,
        }
    }

    pub fn asymmetric_threshold<O: SampleOracle + ?Sized>(
        t: &AsymmetricThresholdTester,
        oracle: &O,
        rng: &mut StdRng,
    ) -> NetworkOutcome {
        let counts = t.sample_counts();
        let rejecting = counts
            .iter()
            .filter(|&&s| s > 0 && node_rejects(oracle, rng, s))
            .count();
        outcome(
            DecisionRule::Threshold(t.threshold()),
            rejecting,
            counts.len(),
        )
    }

    pub fn asymmetric_and<O: SampleOracle + ?Sized>(
        t: &AsymmetricAndTester,
        oracle: &O,
        rng: &mut StdRng,
    ) -> NetworkOutcome {
        let (counts, m) = (t.sample_counts(), t.repetitions());
        let rejecting = counts
            .iter()
            .filter(|&&s| s > 0 && repeated_rejects(oracle, rng, s / m, m))
            .count();
        outcome(DecisionRule::And, rejecting, counts.len())
    }

    pub fn and_network<O: SampleOracle + ?Sized>(
        t: &AndNetworkTester,
        oracle: &O,
        rng: &mut StdRng,
    ) -> NetworkOutcome {
        let plan = t.plan_details();
        let rejecting = (0..plan.k)
            .filter(|_| repeated_rejects(oracle, rng, plan.samples_per_run, plan.m))
            .count();
        outcome(DecisionRule::And, rejecting, plan.k)
    }

    pub fn threshold_network<O: SampleOracle + ?Sized>(
        t: &ThresholdNetworkTester,
        oracle: &O,
        rng: &mut StdRng,
    ) -> NetworkOutcome {
        let plan = t.plan_details();
        let rejecting = (0..plan.k)
            .filter(|_| node_rejects(oracle, rng, plan.samples_per_node))
            .count();
        outcome(DecisionRule::Threshold(plan.threshold), rejecting, plan.k)
    }
}

/// Nodes per network: the smallest size at which every tester and cost
/// profile below plans at every domain size.
const K: usize = 16_384;
const EPSILON: f64 = 1.0;
const P: f64 = 1.0 / 3.0;
const SEEDS: u64 = 2;

/// Uniform, two-class (every other node 4× dearer) and power-law
/// (`c_i = (i+1)^0.1`) costs.
fn cost_profiles() -> [(&'static str, CostVector); 3] {
    let two_class = (0..K).map(|i| if i % 2 == 0 { 4.0 } else { 1.0 });
    let power_law = (0..K).map(|i| ((i + 1) as f64).powf(0.1));
    [
        ("uniform costs", CostVector::uniform(K)),
        (
            "two-class costs",
            CostVector::new(two_class.collect()).unwrap(),
        ),
        (
            "power-law costs",
            CostVector::new(power_law.collect()).unwrap(),
        ),
    ]
}

/// Paninski's ε-far distribution; an odd domain keeps its last element
/// at weight 1/n beside the pattern on the even prefix.
fn far(n: usize) -> DiscreteDistribution {
    let mut weights = paninski_far(n - n % 2, EPSILON)
        .unwrap()
        .pmf_slice()
        .to_vec();
    if n % 2 == 1 {
        weights.push(1.0 / n as f64);
    }
    DiscreteDistribution::from_weights(weights).unwrap()
}

/// Asserts `run` and `frozen` give the same outcome from the same seed
/// and leave the RNG in the same state; returns the outcome.
fn assert_same<O, F, G>(label: &str, oracle: &O, seed: u64, run: F, frozen: G) -> NetworkOutcome
where
    O: SampleOracle + ?Sized,
    F: Fn(&O, &mut StdRng) -> NetworkOutcome,
    G: Fn(&O, &mut StdRng) -> NetworkOutcome,
{
    let mut fast_rng = StdRng::seed_from_u64(seed);
    let mut frozen_rng = StdRng::seed_from_u64(seed);
    let got = run(oracle, &mut fast_rng);
    assert_eq!(got, frozen(oracle, &mut frozen_rng), "{label}, seed {seed}");
    assert_eq!(
        fast_rng.next_u64(),
        frozen_rng.next_u64(),
        "{label}, seed {seed}: RNG left in a different state"
    );
    got
}

/// Runs all four testers, planned for domain `n`, against the frozen
/// loop on every input; returns the total rejecting nodes seen.
fn check_oracle<O: SampleOracle + ?Sized>(
    label: &str,
    oracle: &O,
    asym: &[(&str, AsymmetricThresholdTester, AsymmetricAndTester)],
    sym_thr: &ThresholdNetworkTester,
    sym_and: &AndNetworkTester,
) -> usize {
    let mut rejecting = 0;
    for seed in 0..SEEDS {
        for (costs, thr, and) in asym {
            let thr_label = format!("{label}, asymmetric threshold, {costs}");
            let and_label = format!("{label}, asymmetric AND, {costs}");
            let outcomes = [
                assert_same(
                    &thr_label,
                    oracle,
                    seed,
                    |o, r| thr.run(o, r),
                    |o, r| frozen::asymmetric_threshold(thr, o, r),
                ),
                assert_same(
                    &and_label,
                    oracle,
                    seed,
                    |o, r| and.run(o, r),
                    |o, r| frozen::asymmetric_and(and, o, r),
                ),
            ];
            rejecting += outcomes.iter().map(|o| o.rejecting_nodes).sum::<usize>();
        }
        let outcomes = [
            assert_same(
                &format!("{label}, threshold network"),
                oracle,
                seed,
                |o, r| sym_thr.run(o, r),
                |o, r| frozen::threshold_network(sym_thr, o, r),
            ),
            assert_same(
                &format!("{label}, AND network"),
                oracle,
                seed,
                |o, r| sym_and.run(o, r),
                |o, r| frozen::and_network(sym_and, o, r),
            ),
        ];
        rejecting += outcomes.iter().map(|o| o.rejecting_nodes).sum::<usize>();
    }
    rejecting
}

fn check_domain(n: usize) {
    let asym: Vec<_> = cost_profiles()
        .into_iter()
        .map(|(name, costs)| {
            let thr = AsymmetricThresholdTester::plan(n, &costs, EPSILON, P).unwrap();
            let and = AsymmetricAndTester::plan(n, &costs, EPSILON, P).unwrap();
            (name, thr, and)
        })
        .collect();
    let sym_thr = ThresholdNetworkTester::plan(n, K, EPSILON, P).unwrap();
    let sym_and = AndNetworkTester::plan(n, K, EPSILON, P).unwrap();
    for (input, dist) in [
        ("uniform", DiscreteDistribution::uniform(n)),
        ("far", far(n)),
    ] {
        let wrapped = DistributionOracle::new(dist.clone());
        let bare_label = format!("n={n}, {input}, DiscreteDistribution");
        let wrapped_label = format!("n={n}, {input}, DistributionOracle");
        let rejecting = check_oracle(&bare_label, &dist, &asym, &sym_thr, &sym_and)
            + check_oracle(&wrapped_label, &wrapped, &asym, &sym_thr, &sym_and);
        // Collisions must actually occur, or the check is vacuous.
        assert!(rejecting > 0, "n={n}, {input}: no node ever rejected");
    }
}

#[test]
fn network_runs_match_frozen_loop_stamp_table_2_10() {
    check_domain(1 << 10);
}

#[test]
fn network_runs_match_frozen_loop_stamp_table_2_19() {
    check_domain(1 << 19);
}

#[test]
fn network_runs_match_frozen_loop_bitset_2_19_plus_1() {
    check_domain((1 << 19) + 1);
}

#[test]
fn network_runs_match_frozen_loop_bitset_2_20() {
    check_domain(1 << 20);
}
