//! The 0-round distributed uniformity testers (Theorems 1.1 and 1.2).
//!
//! In the 0-round model each of the `k` nodes examines its own samples
//! and outputs accept/reject without any communication. The network's
//! verdict is computed by a decision rule:
//!
//! * [`AndNetworkTester`] — the standard "AND" rule (reject iff some node
//!   rejects), Theorem 1.1. Not amplification-friendly: reaching constant
//!   error costs a significant blow-up in samples, and at realistic `k`
//!   the planner honestly reports when the provable gap is out of reach.
//! * [`ThresholdNetworkTester`] — the threshold rule (reject iff at least
//!   `T` nodes reject), Theorem 1.2: `T = Θ(1/ε⁴)` and
//!   `s = Θ(√(n/k)/ε²)` samples per node suffice.

use crate::amplify::RepeatedGapTester;
use crate::decision::{Decision, DecisionRule, NetworkOutcome};
use crate::error::PlanError;
use crate::gap::GapTester;
use crate::params::{plan_and_rule, plan_threshold, AndPlan, ThresholdPlan, WindowMethod};
use crate::scratch::TesterScratch;
use dut_distributions::SampleOracle;
use dut_obs::{keys, Sink};
use rand::Rng;

/// Shared `core.zero_round.*` recording for the network testers.
fn record_zero_round(sink: &mut dyn Sink, outcome: &NetworkOutcome) {
    if sink.enabled() {
        sink.add(keys::CORE_ZERO_ROUND_RUNS, 1);
        sink.add(keys::CORE_ZERO_ROUND_VOTES, outcome.nodes as u64);
        sink.add(
            keys::CORE_ZERO_ROUND_REJECTIONS,
            outcome.rejecting_nodes as u64,
        );
    }
}

/// The 0-round AND-rule network tester (Theorem 1.1).
///
/// Every node runs `m` repetitions of the gap tester `A_{δ'}` and rejects
/// iff all repetitions reject; the network rejects iff any node rejects.
#[derive(Debug, Clone)]
pub struct AndNetworkTester {
    plan: AndPlan,
    node_tester: RepeatedGapTester,
}

impl AndNetworkTester {
    /// Plans the tester for `k` nodes on domain size `n` at distance
    /// `epsilon` with target error `p`.
    ///
    /// # Errors
    ///
    /// Propagates planning failures from
    /// [`plan_and_rule`].
    pub fn plan(n: usize, k: usize, epsilon: f64, p: f64) -> Result<Self, PlanError> {
        Self::from_plan(plan_and_rule(n, k, epsilon, p)?)
    }

    /// Builds the tester from an explicit plan (e.g. one computed with
    /// modified parameters for an ablation).
    ///
    /// # Errors
    ///
    /// Returns an error if the plan's sample counts are degenerate.
    pub fn from_plan(plan: AndPlan) -> Result<Self, PlanError> {
        let inner = GapTester::with_samples(plan.n, plan.samples_per_run)?;
        let node_tester = RepeatedGapTester::new(inner, plan.m)?;
        Ok(AndNetworkTester { plan, node_tester })
    }

    /// The derived plan (sample counts, predicted errors, feasibility).
    pub fn plan_details(&self) -> &AndPlan {
        &self.plan
    }

    /// The per-node tester.
    pub fn node_tester(&self) -> &RepeatedGapTester {
        &self.node_tester
    }

    /// Samples each node draws.
    pub fn samples_per_node(&self) -> usize {
        self.plan.samples_per_node
    }

    /// Simulates one full run: all `k` nodes independently draw their
    /// samples from `oracle` and vote; the AND rule aggregates. Every
    /// node shares one [`TesterScratch`] built for this run.
    pub fn run<O, R>(&self, oracle: &O, rng: &mut R) -> NetworkOutcome
    where
        O: SampleOracle + ?Sized,
        R: Rng + ?Sized,
    {
        let samples = self.plan.samples_per_run;
        let mut scratch = TesterScratch::with_capacity(oracle.domain_size(), samples);
        self.run_with_scratch(oracle, rng, &mut scratch)
    }

    /// [`AndNetworkTester::run`] with caller-owned buffers, for callers
    /// that run many networks: same decisions and RNG stream.
    pub fn run_with_scratch<O, R>(
        &self,
        oracle: &O,
        rng: &mut R,
        scratch: &mut TesterScratch,
    ) -> NetworkOutcome
    where
        O: SampleOracle + ?Sized,
        R: Rng + ?Sized,
    {
        let mut rejecting = 0usize;
        for _ in 0..self.plan.k {
            if self.node_tester.run_with_scratch(oracle, rng, scratch) == Decision::Reject {
                rejecting += 1;
            }
        }
        NetworkOutcome {
            decision: DecisionRule::And.decide(rejecting),
            rejecting_nodes: rejecting,
            nodes: self.plan.k,
        }
    }

    /// [`AndNetworkTester::run_with_scratch`] recording
    /// `core.zero_round.*` metrics into `sink` (one run, `k` votes, the
    /// rejecting votes); each node's tester records `core.amplify.*`
    /// and `core.gap.*` as well. The protocol itself sends no messages
    /// — Theorem 1.1's entire cost is samples, which is what these
    /// counters surface.
    pub fn run_with_scratch_observed<O, R>(
        &self,
        oracle: &O,
        rng: &mut R,
        scratch: &mut TesterScratch,
        sink: &mut dyn Sink,
    ) -> NetworkOutcome
    where
        O: SampleOracle + ?Sized,
        R: Rng + ?Sized,
    {
        let mut rejecting = 0usize;
        for _ in 0..self.plan.k {
            if self
                .node_tester
                .run_with_scratch_observed(oracle, rng, scratch, sink)
                == Decision::Reject
            {
                rejecting += 1;
            }
        }
        let outcome = NetworkOutcome {
            decision: DecisionRule::And.decide(rejecting),
            rejecting_nodes: rejecting,
            nodes: self.plan.k,
        };
        record_zero_round(sink, &outcome);
        outcome
    }
}

/// The 0-round threshold-rule network tester (Theorem 1.2).
///
/// Every node runs one gap tester `A_δ`; the network rejects iff at
/// least `T` nodes reject.
#[derive(Debug, Clone)]
pub struct ThresholdNetworkTester {
    plan: ThresholdPlan,
    node_tester: GapTester,
}

impl ThresholdNetworkTester {
    /// Plans the tester using exact binomial tail evaluation (see
    /// [`WindowMethod`]) — the tightest
    /// honest plan; the paper's Chernoff window is available through
    /// [`ThresholdNetworkTester::plan_with_method`].
    ///
    /// # Errors
    ///
    /// Propagates planning failures from
    /// [`plan_threshold`].
    pub fn plan(n: usize, k: usize, epsilon: f64, p: f64) -> Result<Self, PlanError> {
        Self::plan_with_method(n, k, epsilon, p, WindowMethod::Exact)
    }

    /// Plans the tester with an explicit window method (the paper's
    /// Chernoff window needs `k` roughly 64/ε⁴ times larger).
    ///
    /// # Errors
    ///
    /// Propagates planning failures from
    /// [`plan_threshold`].
    pub fn plan_with_method(
        n: usize,
        k: usize,
        epsilon: f64,
        p: f64,
        method: WindowMethod,
    ) -> Result<Self, PlanError> {
        Self::from_plan(plan_threshold(n, k, epsilon, p, method)?)
    }

    /// Builds the tester from an explicit plan.
    ///
    /// # Errors
    ///
    /// Returns an error if the plan's sample count is degenerate.
    pub fn from_plan(plan: ThresholdPlan) -> Result<Self, PlanError> {
        let node_tester = GapTester::with_samples(plan.n, plan.samples_per_node)?;
        Ok(ThresholdNetworkTester { plan, node_tester })
    }

    /// The derived plan.
    pub fn plan_details(&self) -> &ThresholdPlan {
        &self.plan
    }

    /// The per-node tester.
    pub fn node_tester(&self) -> &GapTester {
        &self.node_tester
    }

    /// Samples each node draws.
    pub fn samples_per_node(&self) -> usize {
        self.plan.samples_per_node
    }

    /// The rejection-count threshold `T`.
    pub fn threshold(&self) -> usize {
        self.plan.threshold
    }

    /// Simulates one full run of the `k`-node network. Every node
    /// shares one [`TesterScratch`] built for this run.
    pub fn run<O, R>(&self, oracle: &O, rng: &mut R) -> NetworkOutcome
    where
        O: SampleOracle + ?Sized,
        R: Rng + ?Sized,
    {
        let samples = self.plan.samples_per_node;
        let mut scratch = TesterScratch::with_capacity(oracle.domain_size(), samples);
        self.run_with_scratch(oracle, rng, &mut scratch)
    }

    /// [`ThresholdNetworkTester::run`] with caller-owned buffers, for
    /// callers that run many networks: same decisions and RNG stream.
    pub fn run_with_scratch<O, R>(
        &self,
        oracle: &O,
        rng: &mut R,
        scratch: &mut TesterScratch,
    ) -> NetworkOutcome
    where
        O: SampleOracle + ?Sized,
        R: Rng + ?Sized,
    {
        let mut rejecting = 0usize;
        for _ in 0..self.plan.k {
            if self.node_tester.run_with_scratch(oracle, rng, scratch) == Decision::Reject {
                rejecting += 1;
            }
        }
        self.outcome_from_votes(rejecting)
    }

    /// [`ThresholdNetworkTester::run_with_scratch`] recording
    /// `core.zero_round.*` metrics into `sink`; each node's gap tester
    /// records `core.gap.*` as well, so `core.gap.samples` across a run
    /// is the network's total sample cost (`k · s`, Theorem 1.2).
    pub fn run_with_scratch_observed<O, R>(
        &self,
        oracle: &O,
        rng: &mut R,
        scratch: &mut TesterScratch,
        sink: &mut dyn Sink,
    ) -> NetworkOutcome
    where
        O: SampleOracle + ?Sized,
        R: Rng + ?Sized,
    {
        let mut rejecting = 0usize;
        for _ in 0..self.plan.k {
            if self
                .node_tester
                .run_with_scratch_observed(oracle, rng, scratch, sink)
                == Decision::Reject
            {
                rejecting += 1;
            }
        }
        let outcome = self.outcome_from_votes(rejecting);
        record_zero_round(sink, &outcome);
        outcome
    }

    /// Applies the threshold rule to an externally computed rejection
    /// count (used when the nodes are *virtual* — e.g. token packages in
    /// the CONGEST protocol).
    pub fn outcome_from_votes(&self, rejecting_nodes: usize) -> NetworkOutcome {
        NetworkOutcome {
            decision: DecisionRule::Threshold(self.plan.threshold).decide(rejecting_nodes),
            rejecting_nodes,
            nodes: self.plan.k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dut_distributions::families::paninski_far;
    use dut_distributions::DiscreteDistribution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn threshold_tester_accepts_uniform_mostly() {
        let n = 1 << 20;
        let k = 150_000;
        let t = ThresholdNetworkTester::plan(n, k, 0.5, 1.0 / 3.0).unwrap();
        let uniform = DiscreteDistribution::uniform(n);
        let mut rng = StdRng::seed_from_u64(1);
        let trials = 30;
        let errors = (0..trials)
            .filter(|_| t.run(&uniform, &mut rng).decision == Decision::Reject)
            .count();
        assert!(
            errors <= trials / 3 + 2,
            "too many false alarms: {errors}/{trials}"
        );
    }

    #[test]
    fn threshold_tester_rejects_far_mostly() {
        let n = 1 << 20;
        let k = 150_000;
        let t = ThresholdNetworkTester::plan(n, k, 0.5, 1.0 / 3.0).unwrap();
        let far = paninski_far(n, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let trials = 30;
        let errors = (0..trials)
            .filter(|_| t.run(&far, &mut rng).decision == Decision::Accept)
            .count();
        assert!(
            errors <= trials / 3 + 2,
            "too many missed detections: {errors}/{trials}"
        );
    }

    #[test]
    fn threshold_tester_uses_sublinear_samples() {
        let n = 1 << 20;
        let k = 150_000;
        let t = ThresholdNetworkTester::plan(n, k, 0.5, 1.0 / 3.0).unwrap();
        let centralized = (n as f64).sqrt() / 0.25; // √n/ε²
        assert!(
            (t.samples_per_node() as f64) < centralized / 4.0,
            "samples per node {} not far below centralized {centralized}",
            t.samples_per_node()
        );
    }

    #[test]
    fn outcome_from_votes_applies_threshold() {
        let n = 1 << 20;
        let t = ThresholdNetworkTester::plan(n, 150_000, 0.5, 1.0 / 3.0).unwrap();
        let t_val = t.threshold();
        assert_eq!(t.outcome_from_votes(t_val - 1).decision, Decision::Accept);
        assert_eq!(t.outcome_from_votes(t_val).decision, Decision::Reject);
    }

    #[test]
    fn and_tester_protects_completeness() {
        // Whatever else happens, uniform must be accepted w.p. >= 1-p.
        let n = 1 << 20;
        let k = 512;
        let t = AndNetworkTester::plan(n, k, 0.5, 1.0 / 3.0).unwrap();
        let uniform = DiscreteDistribution::uniform(n);
        let mut rng = StdRng::seed_from_u64(3);
        let trials = 60;
        let false_alarms = (0..trials)
            .filter(|_| t.run(&uniform, &mut rng).decision == Decision::Reject)
            .count();
        assert!(
            false_alarms <= trials / 2,
            "AND tester false-alarms too often: {false_alarms}/{trials}"
        );
    }

    #[test]
    fn and_tester_detects_far_with_weak_signal() {
        // At small k the AND tester is only guaranteed a weak advantage;
        // verify rejections on far inputs exceed those on uniform.
        let n = 1 << 20;
        let k = 512;
        let t = AndNetworkTester::plan(n, k, 0.75, 1.0 / 3.0).unwrap();
        let uniform = DiscreteDistribution::uniform(n);
        let far = paninski_far(n, 0.75).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let trials = 120;
        let rejects = |d: &DiscreteDistribution, rng: &mut StdRng| {
            (0..trials)
                .filter(|_| t.run(d, rng).decision == Decision::Reject)
                .count()
        };
        let ru = rejects(&uniform, &mut rng);
        let rf = rejects(&far, &mut rng);
        assert!(rf > ru, "far rejections {rf} <= uniform rejections {ru}");
    }

    #[test]
    fn scratch_runs_match_allocating_runs() {
        let n = 1 << 14;
        let uniform = DiscreteDistribution::uniform(n);
        let far = paninski_far(n, 0.75).unwrap();
        let mut scratch = TesterScratch::new();

        // The threshold rule needs a large network; the AND rule doesn't.
        let and_t = AndNetworkTester::plan(n, 64, 0.75, 1.0 / 3.0).unwrap();
        let thr_t = ThresholdNetworkTester::plan(n, 4096, 0.75, 1.0 / 3.0).unwrap();
        for d in [&uniform, &far] {
            for seed in 0..10 {
                let mut r1 = StdRng::seed_from_u64(seed);
                let mut r2 = StdRng::seed_from_u64(seed);
                assert_eq!(
                    and_t.run(d, &mut r1),
                    and_t.run_with_scratch(d, &mut r2, &mut scratch),
                    "AND seed {seed}"
                );
                let mut r1 = StdRng::seed_from_u64(seed);
                let mut r2 = StdRng::seed_from_u64(seed);
                assert_eq!(
                    thr_t.run(d, &mut r1),
                    thr_t.run_with_scratch(d, &mut r2, &mut scratch),
                    "threshold seed {seed}"
                );
            }
        }
    }

    #[test]
    fn observed_runs_match_and_record_votes() {
        use dut_obs::{keys, MemorySink};
        let n = 1 << 14;
        let far = paninski_far(n, 0.75).unwrap();
        let mut scratch = TesterScratch::new();
        let thr_t = ThresholdNetworkTester::plan(n, 4096, 0.75, 1.0 / 3.0).unwrap();
        let mut sink = MemorySink::new();
        let mut r1 = StdRng::seed_from_u64(11);
        let mut r2 = StdRng::seed_from_u64(11);
        let plain = thr_t.run_with_scratch(&far, &mut r1, &mut scratch);
        let observed = thr_t.run_with_scratch_observed(&far, &mut r2, &mut scratch, &mut sink);
        assert_eq!(plain, observed);
        assert_eq!(sink.counter(keys::CORE_ZERO_ROUND_RUNS), 1);
        assert_eq!(sink.counter(keys::CORE_ZERO_ROUND_VOTES), 4096);
        assert_eq!(
            sink.counter(keys::CORE_ZERO_ROUND_REJECTIONS),
            observed.rejecting_nodes as u64
        );
        // Theorem 1.2's sample cost: every node drew exactly s samples.
        assert_eq!(
            sink.counter(keys::CORE_GAP_SAMPLES),
            (4096 * thr_t.samples_per_node()) as u64
        );

        let and_t = AndNetworkTester::plan(n, 64, 0.75, 1.0 / 3.0).unwrap();
        let mut and_sink = MemorySink::new();
        let mut r1 = StdRng::seed_from_u64(12);
        let mut r2 = StdRng::seed_from_u64(12);
        let plain = and_t.run_with_scratch(&far, &mut r1, &mut scratch);
        let observed = and_t.run_with_scratch_observed(&far, &mut r2, &mut scratch, &mut and_sink);
        assert_eq!(plain, observed);
        assert_eq!(sink.counter(keys::CORE_ZERO_ROUND_RUNS), 1);
        assert_eq!(and_sink.counter(keys::CORE_AMPLIFY_RUNS), 64);
        // Short-circuiting: executed repetitions never exceed m per node.
        assert!(
            and_sink.counter(keys::CORE_AMPLIFY_REPETITIONS)
                <= (64 * and_t.node_tester().repetitions()) as u64
        );
    }

    #[test]
    fn and_tester_reports_plan_honestly() {
        let t = AndNetworkTester::plan(1 << 20, 512, 0.5, 1.0 / 3.0).unwrap();
        let plan = t.plan_details();
        assert_eq!(t.samples_per_node(), plan.samples_per_node);
        // completeness is protected by construction
        assert!(plan.predicted_completeness_error <= 1.0 / 3.0 + 1e-9);
    }
}
