//! Asymmetric-cost 0-round testers (§4 of the paper).
//!
//! Each node `i` pays a cost `c_i` per sample; the goal is to minimize
//! the *maximum individual cost* `C = max_i s_i·c_i`. The paper's
//! solution assigns every node the same total cost `C` and hence
//! `s_i = C·T_i` samples, where `T_i = 1/c_i` is the inverse cost. The
//! resulting bounds are governed by norms of the inverse-cost vector `T`:
//!
//! * Threshold rule (§4.2): `C = Θ(√n/ε²) / ‖T‖₂`.
//! * AND rule (§4.1): `C = √2·(ln 1/(1−p))^{1/(2m)}·m·√n / ‖T‖₂ₘ` with
//!   `m = Θ(C_p/ε²)` repetitions per node.
//!
//! Setting all costs to 1 recovers the symmetric testers
//! (`‖T‖₂ = √k`). The module also provides the Lemma 4.1 extremal-point
//! functions, which justify using the *same* gap α for all nodes.

use crate::decision::{Decision, DecisionRule, NetworkOutcome};
use crate::error::PlanError;
use crate::gap::GapTester;
use crate::params::{c_p, gamma_slack, normal_quantile};
use crate::scratch::TesterScratch;
use dut_distributions::SampleOracle;
use rand::Rng;

/// A vector of per-sample costs, one per node. All costs must be
/// positive and finite.
#[derive(Debug, Clone, PartialEq)]
pub struct CostVector {
    costs: Vec<f64>,
}

impl CostVector {
    /// Creates a cost vector.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::InvalidParameter`] if empty or any cost is
    /// non-positive / non-finite.
    pub fn new(costs: Vec<f64>) -> Result<Self, PlanError> {
        if costs.is_empty() {
            return Err(PlanError::InvalidParameter {
                name: "costs",
                value: 0.0,
                expected: "at least one node",
            });
        }
        for &c in &costs {
            if !(c > 0.0 && c.is_finite()) {
                return Err(PlanError::InvalidParameter {
                    name: "cost",
                    value: c,
                    expected: "each cost must be positive and finite",
                });
            }
        }
        Ok(CostVector { costs })
    }

    /// The uniform cost vector (all costs 1) — recovers the symmetric
    /// setting.
    pub fn uniform(k: usize) -> Self {
        CostVector {
            costs: vec![1.0; k.max(1)],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.costs.len()
    }

    /// Whether the vector is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.costs.is_empty()
    }

    /// Per-sample cost of node `i`.
    pub fn cost(&self, i: usize) -> f64 {
        self.costs[i]
    }

    /// Inverse cost `T_i = 1/c_i` of node `i`.
    pub fn inverse(&self, i: usize) -> f64 {
        1.0 / self.costs[i]
    }

    /// The `L_p` norm of the inverse-cost vector `T`.
    ///
    /// # Panics
    ///
    /// Panics if `p <= 0`.
    pub fn inverse_norm(&self, p: f64) -> f64 {
        assert!(p > 0.0, "norm order must be positive");
        self.costs
            .iter()
            .map(|&c| (1.0 / c).powf(p))
            .sum::<f64>()
            .powf(1.0 / p)
    }

    /// Iterates over the costs.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.costs.iter().copied()
    }
}

/// A planned asymmetric threshold tester: per-node sample counts
/// `s_i = C·T_i`, a shared threshold `T`, and the achieved maximum
/// individual cost.
#[derive(Debug, Clone)]
pub struct AsymmetricThresholdTester {
    /// `None` for nodes whose budget rounds below 2 samples (they never
    /// reject and contribute nothing).
    node_testers: Vec<Option<GapTester>>,
    threshold: usize,
    max_cost: f64,
    expected_alarms_uniform: f64,
    expected_alarms_far: f64,
}

impl AsymmetricThresholdTester {
    /// Plans the asymmetric threshold tester (§4.2): finds the smallest
    /// maximum-cost budget `C` such that the per-node budgets
    /// `s_i = C/c_i` produce an alarm-count window wide enough to
    /// separate uniform from ε-far with error `p` (normal window).
    ///
    /// # Errors
    ///
    /// Fails when no budget admits a valid window (network too
    /// small/expensive relative to `1/ε⁴`).
    pub fn plan(n: usize, costs: &CostVector, epsilon: f64, p: f64) -> Result<Self, PlanError> {
        if !(epsilon > 0.0 && epsilon <= 1.0) {
            return Err(PlanError::InvalidParameter {
                name: "epsilon",
                value: epsilon,
                expected: "0 < epsilon <= 1",
            });
        }
        if !(p > 0.0 && p < 0.5) {
            return Err(PlanError::InvalidParameter {
                name: "p",
                value: p,
                expected: "0 < p < 1/2",
            });
        }
        let z = normal_quantile(1.0 - p);
        let norm2 = costs.inverse_norm(2.0);

        // Scan the expected alarm count x = Σδ_i upward; C = √(2nx)/‖T‖₂.
        let mut x = 1.0f64;
        let mut best: Option<AsymmetricThresholdTester> = None;
        while x < 1e7 {
            let c_budget = (2.0 * n as f64 * x).sqrt() / norm2;
            if let Some(t) = Self::try_budget(n, costs, epsilon, z, c_budget) {
                best = Some(t);
                break;
            }
            x *= 1.1;
        }
        best.ok_or(PlanError::Infeasible {
            condition: "no max-cost budget yields a valid threshold window",
            detail: format!("n={n}, k={}, epsilon={epsilon}", costs.len()),
        })
    }

    fn try_budget(
        n: usize,
        costs: &CostVector,
        epsilon: f64,
        z: f64,
        c_budget: f64,
    ) -> Option<AsymmetricThresholdTester> {
        let mut node_testers = Vec::with_capacity(costs.len());
        let mut eta_u = 0.0f64;
        let mut eta_f = 0.0f64;
        let mut max_cost = 0.0f64;
        let mut var_u = 0.0f64;
        let mut var_f = 0.0f64;
        for i in 0..costs.len() {
            let s = (c_budget * costs.inverse(i)).floor() as usize;
            if s < 2 {
                node_testers.push(None);
                continue;
            }
            let tester = GapTester::with_samples(n, s).ok()?;
            let delta = tester.delta();
            let gamma = gamma_slack(n, s, epsilon);
            if gamma <= 0.0 {
                // This node's budget is too large for the gap regime;
                // cap it rather than fail the whole plan.
                node_testers.push(None);
                continue;
            }
            let reject_far = (1.0 + gamma * epsilon * epsilon) * delta;
            eta_u += delta;
            eta_f += reject_far;
            var_u += delta * (1.0 - delta);
            var_f += reject_far * (1.0 - reject_far);
            max_cost = max_cost.max(s as f64 * costs.cost(i));
            node_testers.push(Some(tester));
        }
        if eta_u <= 0.0 {
            return None;
        }
        let lo = eta_u + z * var_u.sqrt();
        let hi = eta_f - z * var_f.sqrt();
        if lo > hi {
            return None;
        }
        let threshold = (lo.ceil() as usize).max(1);
        if (threshold as f64) > hi {
            return None;
        }
        Some(AsymmetricThresholdTester {
            node_testers,
            threshold,
            max_cost,
            expected_alarms_uniform: eta_u,
            expected_alarms_far: eta_f,
        })
    }

    /// The alarm threshold `T`.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// The maximum individual cost `C = max_i s_i·c_i` actually paid.
    pub fn max_cost(&self) -> f64 {
        self.max_cost
    }

    /// Expected number of alarms on the uniform distribution.
    pub fn expected_alarms_uniform(&self) -> f64 {
        self.expected_alarms_uniform
    }

    /// Lower bound on expected alarms on an ε-far distribution.
    pub fn expected_alarms_far(&self) -> f64 {
        self.expected_alarms_far
    }

    /// Per-node sample counts (0 for nodes priced out of participation).
    pub fn sample_counts(&self) -> Vec<usize> {
        self.node_testers
            .iter()
            .map(|t| t.as_ref().map_or(0, |t| t.samples()))
            .collect()
    }

    /// Simulates one run of the network. Every node runs through one
    /// shared [`TesterScratch`], so a run allocates the same two buffers
    /// at any `k`; draws and decisions are those of per-node
    /// [`GapTester::run`] calls.
    pub fn run<O, R>(&self, oracle: &O, rng: &mut R) -> NetworkOutcome
    where
        O: SampleOracle + ?Sized,
        R: Rng + ?Sized,
    {
        let testers = self.node_testers.iter().flatten();
        let max_samples = testers.clone().map(GapTester::samples).max().unwrap_or(0);
        let mut scratch = TesterScratch::with_capacity(oracle.domain_size(), max_samples);
        let rejecting = testers
            .filter(|t| t.run_with_scratch(oracle, rng, &mut scratch) == Decision::Reject)
            .count();
        NetworkOutcome {
            decision: DecisionRule::Threshold(self.threshold).decide(rejecting),
            rejecting_nodes: rejecting,
            nodes: self.node_testers.len(),
        }
    }
}

/// A planned asymmetric AND-rule tester (§4.1): node `i` runs `m`
/// repetitions of the gap tester on `sᵢ/m` samples each and rejects iff
/// all `m` repetitions reject; the network rejects iff any node rejects.
///
/// The per-node false-alarm budgets `δᵢ` follow the cost profile
/// (`δᵢ ∝ (C·Tᵢ)^{2m}`), constrained so `Π(1−δᵢ) = 1−p` — the Eq. (6)
/// completeness condition — and Lemma 4.1 guarantees the asymmetric
/// profile only *improves* soundness over the symmetric one.
#[derive(Debug, Clone)]
pub struct AsymmetricAndTester {
    /// `None` for nodes priced out of participation (< 2 samples per
    /// run); they always accept.
    node_testers: Vec<Option<crate::amplify::RepeatedGapTester>>,
    m: usize,
    max_cost: f64,
    predicted_completeness_error: f64,
    predicted_soundness_error: f64,
}

impl AsymmetricAndTester {
    /// Plans the asymmetric AND tester: searches the repetition count
    /// `m` and, for each, binary-searches the cost budget `C` so that
    /// the per-node budgets satisfy the Eq. (6) completeness constraint
    /// `Σ −ln(1−δᵢ) = ln(1/(1−p))`; the cheapest feasible (γ > 0 on all
    /// participants) plan wins, preferring smaller predicted soundness
    /// error on ties.
    ///
    /// # Errors
    ///
    /// Fails when no `(m, C)` yields positive γ on the participating
    /// nodes.
    pub fn plan(n: usize, costs: &CostVector, epsilon: f64, p: f64) -> Result<Self, PlanError> {
        if !(epsilon > 0.0 && epsilon <= 1.0) {
            return Err(PlanError::InvalidParameter {
                name: "epsilon",
                value: epsilon,
                expected: "0 < epsilon <= 1",
            });
        }
        if !(p > 0.0 && p < 0.5) {
            return Err(PlanError::InvalidParameter {
                name: "p",
                value: p,
                expected: "0 < p < 1/2",
            });
        }
        let target = (1.0 / (1.0 - p)).ln();
        let mut best: Option<AsymmetricAndTester> = None;
        for m in 1..=8usize {
            // Binary search the per-node-budget scale C: Σ −ln(1−δᵢ(C))
            // is increasing in C.
            let (mut lo, mut hi) = (1.0f64, 1e9f64);
            if Self::completeness_load(n, costs, m, hi) < target {
                continue; // even huge budgets cannot reach the target
            }
            for _ in 0..80 {
                let mid = (lo + hi) / 2.0;
                if Self::completeness_load(n, costs, m, mid) < target {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let c_budget = lo;
            if let Some(plan) = Self::try_budget(n, costs, epsilon, p, m, c_budget) {
                let better = match &best {
                    None => true,
                    Some(b) => plan.predicted_soundness_error < b.predicted_soundness_error,
                };
                if better {
                    best = Some(plan);
                }
            }
        }
        best.ok_or(PlanError::Infeasible {
            condition: "no (m, C) yields positive gamma on participating nodes",
            detail: format!("n={n}, k={}, epsilon={epsilon}", costs.len()),
        })
    }

    /// `Σ −ln(1−δᵢ)` at budget scale `C` (the completeness load that
    /// must equal `ln(1/(1−p))`).
    fn completeness_load(n: usize, costs: &CostVector, m: usize, c_budget: f64) -> f64 {
        let mut load = 0.0;
        for i in 0..costs.len() {
            let s_run = (c_budget * costs.inverse(i) / m as f64).floor() as usize;
            if s_run < 2 {
                continue;
            }
            let delta_run = delta_for_samples_local(n, s_run);
            if delta_run >= 1.0 {
                return f64::INFINITY;
            }
            let delta_node = delta_run.powi(m as i32);
            load += -(1.0 - delta_node).ln();
        }
        load
    }

    fn try_budget(
        n: usize,
        costs: &CostVector,
        epsilon: f64,
        _p: f64,
        m: usize,
        c_budget: f64,
    ) -> Option<AsymmetricAndTester> {
        let mut node_testers = Vec::with_capacity(costs.len());
        let mut max_cost = 0.0f64;
        let mut log_acc_uniform = 0.0f64;
        let mut log_acc_far = 0.0f64;
        let mut participants = 0usize;
        for i in 0..costs.len() {
            let s_run = (c_budget * costs.inverse(i) / m as f64).floor() as usize;
            if s_run < 2 {
                node_testers.push(None);
                continue;
            }
            let inner = GapTester::with_samples(n, s_run).ok()?;
            let gamma = gamma_slack(n, s_run, epsilon);
            if gamma <= 0.0 {
                return None; // a participating node outside the gap regime
            }
            let tester = crate::amplify::RepeatedGapTester::new(inner, m).ok()?;
            let delta_node = tester.delta();
            let reject_far = tester.soundness_rejection_bound(epsilon).min(1.0);
            log_acc_uniform += (1.0 - delta_node).ln();
            log_acc_far += (1.0 - reject_far).ln();
            max_cost = max_cost.max((m * s_run) as f64 * costs.cost(i));
            participants += 1;
            node_testers.push(Some(tester));
        }
        if participants == 0 {
            return None;
        }
        Some(AsymmetricAndTester {
            node_testers,
            m,
            max_cost,
            predicted_completeness_error: 1.0 - log_acc_uniform.exp(),
            predicted_soundness_error: log_acc_far.exp(),
        })
    }

    /// Repetitions per node.
    pub fn repetitions(&self) -> usize {
        self.m
    }

    /// The maximum individual cost `max_i sᵢ·cᵢ` actually paid.
    pub fn max_cost(&self) -> f64 {
        self.max_cost
    }

    /// Predicted probability of a false alarm on the uniform
    /// distribution (`1 − Π(1−δᵢ)`; equals `p` by construction up to
    /// rounding).
    pub fn predicted_completeness_error(&self) -> f64 {
        self.predicted_completeness_error
    }

    /// Predicted probability of missing an ε-far distribution
    /// (`Π(1−(1+γᵢε²)^m δᵢ)` — honest: close to 1−p·C_p-ish only at
    /// asymptotic scale, per Theorem 1.1's regime).
    pub fn predicted_soundness_error(&self) -> f64 {
        self.predicted_soundness_error
    }

    /// Per-node total sample counts (0 for non-participants).
    pub fn sample_counts(&self) -> Vec<usize> {
        self.node_testers
            .iter()
            .map(|t| t.as_ref().map_or(0, |t| t.samples()))
            .collect()
    }

    /// Simulates one run of the network under the AND rule; every node
    /// shares one [`TesterScratch`].
    pub fn run<O, R>(&self, oracle: &O, rng: &mut R) -> NetworkOutcome
    where
        O: SampleOracle + ?Sized,
        R: Rng + ?Sized,
    {
        let testers = self.node_testers.iter().flatten();
        let max_samples = testers.clone().map(|t| t.samples()).max().unwrap_or(0);
        let mut scratch = TesterScratch::with_capacity(oracle.domain_size(), max_samples);
        let rejecting = testers
            .filter(|t| t.run_with_scratch(oracle, rng, &mut scratch) == Decision::Reject)
            .count();
        NetworkOutcome {
            decision: DecisionRule::And.decide(rejecting),
            rejecting_nodes: rejecting,
            nodes: self.node_testers.len(),
        }
    }
}

/// Local copy of the δ(s) formula to keep the budget search free of
/// result plumbing.
fn delta_for_samples_local(n: usize, s: usize) -> f64 {
    (s as f64) * (s as f64 - 1.0) / (2.0 * n as f64)
}

/// The paper's closed-form maximum-cost bound for the asymmetric
/// threshold tester (§4.2): `C = √n/ε² / ‖T‖₂` (Θ-constant set to 1).
pub fn theory_max_cost_threshold(n: usize, costs: &CostVector, epsilon: f64) -> f64 {
    (n as f64).sqrt() / (epsilon * epsilon) / costs.inverse_norm(2.0)
}

/// The paper's closed-form maximum-cost bound for the asymmetric AND
/// tester (§4.1): `C = √2·(ln 1/(1−p))^{1/(2m)}·m·√n / ‖T‖₂ₘ`.
pub fn theory_max_cost_and(n: usize, costs: &CostVector, epsilon: f64, p: f64) -> f64 {
    let m = default_and_repetitions(epsilon, p);
    let ln_term = (1.0 / (1.0 - p)).ln();
    (2.0f64).sqrt() * ln_term.powf(1.0 / (2.0 * m as f64)) * m as f64 * (n as f64).sqrt()
        / costs.inverse_norm(2.0 * m as f64)
}

/// The repetition count `m = ⌈ln(C_p)/ln(1+ε²/2)⌉` used by the
/// asymmetric AND analysis (the paper's `m = Θ(C_p/ε²)`).
pub fn default_and_repetitions(epsilon: f64, p: f64) -> usize {
    let target = c_p(p);
    let per_rep = 1.0 + epsilon * epsilon / 2.0;
    (target.ln() / per_rep.ln()).ceil().max(1.0) as usize
}

/// Lemma 4.1's constrained product `f_k(X) = Π (1 − x_i)`.
pub fn lemma_4_1_f(x: &[f64]) -> f64 {
    x.iter().map(|&v| 1.0 - v).product()
}

/// Lemma 4.1's objective `g_k(X) = Π (1 − a·x_i)`.
pub fn lemma_4_1_g(x: &[f64], a: f64) -> f64 {
    x.iter().map(|&v| 1.0 - a * v).product()
}

/// Checks the Lemma 4.1 inequality for a concrete point: given `X` with
/// `f_k(X) = c`, the symmetric point `Y = (1 − c^{1/k})·(1,…,1)` must
/// satisfy `g_k(X) ≤ g_k(Y)`.
///
/// Returns the pair `(g(X), g(Y))` so tests can verify the inequality.
pub fn lemma_4_1_check(x: &[f64], a: f64) -> (f64, f64) {
    let c = lemma_4_1_f(x);
    let k = x.len();
    let d = 1.0 - c.powf(1.0 / k as f64);
    let y = vec![d; k];
    (lemma_4_1_g(x, a), lemma_4_1_g(&y, a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dut_distributions::families::paninski_far;
    use dut_distributions::DiscreteDistribution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cost_vector_validation() {
        assert!(CostVector::new(vec![]).is_err());
        assert!(CostVector::new(vec![1.0, 0.0]).is_err());
        assert!(CostVector::new(vec![1.0, -2.0]).is_err());
        assert!(CostVector::new(vec![1.0, f64::INFINITY]).is_err());
        assert!(CostVector::new(vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn uniform_cost_norms() {
        let c = CostVector::uniform(16);
        assert!((c.inverse_norm(2.0) - 4.0).abs() < 1e-12);
        // L_{2m} norm of all-ones is k^{1/(2m)}
        assert!((c.inverse_norm(8.0) - 16.0f64.powf(1.0 / 8.0)).abs() < 1e-12);
    }

    #[test]
    fn symmetric_costs_recover_symmetric_bound() {
        // ‖T‖₂ = √k, so theory cost = √(n/k)/ε² per node.
        let n = 1 << 16;
        let k = 1024;
        let costs = CostVector::uniform(k);
        let c = theory_max_cost_threshold(n, &costs, 0.5);
        let symmetric = (n as f64 / k as f64).sqrt() / 0.25;
        assert!((c - symmetric).abs() < 1e-9);
    }

    #[test]
    fn cheap_nodes_draw_more_samples() {
        let n = 1 << 20;
        let mut costs = vec![1.0; 150_000];
        // half the nodes are 4x more expensive
        for c in costs.iter_mut().take(75_000) {
            *c = 4.0;
        }
        let costs = CostVector::new(costs).unwrap();
        let t = AsymmetricThresholdTester::plan(n, &costs, 0.5, 1.0 / 3.0).unwrap();
        let s = t.sample_counts();
        // Expensive nodes draw ~4x fewer samples than cheap nodes.
        assert!(
            s[0] < s[75_000],
            "expensive node {} should draw fewer than cheap node {}",
            s[0],
            s[75_000]
        );
        // Costs equalize: s_i * c_i roughly constant among participants.
        let cost_exp = s[0] as f64 * 4.0;
        let cost_cheap = s[75_000] as f64;
        assert!(
            (cost_exp - cost_cheap).abs() / cost_cheap < 0.5,
            "per-node costs diverge: {cost_exp} vs {cost_cheap}"
        );
    }

    #[test]
    fn asymmetric_tester_distinguishes() {
        let n = 1 << 20;
        let k = 150_000;
        let mut cost_values = vec![1.0; k];
        for (i, c) in cost_values.iter_mut().enumerate() {
            if i % 2 == 0 {
                *c = 2.0;
            }
        }
        let costs = CostVector::new(cost_values).unwrap();
        let t = AsymmetricThresholdTester::plan(n, &costs, 0.5, 1.0 / 3.0).unwrap();
        let uniform = DiscreteDistribution::uniform(n);
        let far = paninski_far(n, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let trials = 20;
        let rejects = |d: &DiscreteDistribution, rng: &mut StdRng| {
            (0..trials)
                .filter(|_| t.run(d, rng).decision == Decision::Reject)
                .count()
        };
        let ru = rejects(&uniform, &mut rng);
        let rf = rejects(&far, &mut rng);
        assert!(ru <= trials / 3 + 2, "false alarms {ru}/{trials}");
        assert!(rf >= trials - trials / 3 - 2, "detections {rf}/{trials}");
    }

    #[test]
    fn theory_and_cost_exceeds_threshold_cost() {
        let n = 1 << 16;
        let costs = CostVector::uniform(4096);
        let and_cost = theory_max_cost_and(n, &costs, 0.5, 1.0 / 3.0);
        let thr_cost = theory_max_cost_threshold(n, &costs, 0.5);
        assert!(
            and_cost > thr_cost,
            "AND cost {and_cost} should exceed threshold cost {thr_cost}"
        );
    }

    #[test]
    fn default_and_repetitions_reasonable() {
        let m = default_and_repetitions(0.5, 1.0 / 3.0);
        // ln(2.7095)/ln(1.125) ≈ 8.46 → 9
        assert_eq!(m, 9);
        assert!(default_and_repetitions(1.0, 1.0 / 3.0) < m);
    }

    #[test]
    fn lemma_4_1_symmetric_point_is_maximum() {
        // Asymmetric δ's must give a smaller g (better soundness).
        let a = 2.0;
        let x = [0.1, 0.3, 0.05];
        let (gx, gy) = lemma_4_1_check(&x, a);
        assert!(gx <= gy + 1e-12, "lemma 4.1 violated: {gx} > {gy}");
    }

    #[test]
    fn lemma_4_1_equality_at_symmetric_point() {
        let a = 1.5;
        let x = [0.2, 0.2, 0.2, 0.2];
        let (gx, gy) = lemma_4_1_check(&x, a);
        assert!((gx - gy).abs() < 1e-12);
    }
}

#[cfg(test)]
mod and_tests {
    use super::*;
    use dut_distributions::families::paninski_far;
    use dut_distributions::DiscreteDistribution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn and_plan_protects_completeness_by_construction() {
        let n = 1 << 20;
        let costs = CostVector::uniform(1024);
        let t = AsymmetricAndTester::plan(n, &costs, 0.75, 1.0 / 3.0).unwrap();
        assert!(
            t.predicted_completeness_error() <= 1.0 / 3.0 + 0.02,
            "completeness {} above target",
            t.predicted_completeness_error()
        );
    }

    #[test]
    fn and_cheap_nodes_draw_more() {
        let n = 1 << 20;
        let mut costs = vec![1.0; 2048];
        for c in costs.iter_mut().take(1024) {
            *c = 4.0;
        }
        let costs = CostVector::new(costs).unwrap();
        let t = AsymmetricAndTester::plan(n, &costs, 0.75, 1.0 / 3.0).unwrap();
        let s = t.sample_counts();
        assert!(
            s[0] < s[2047],
            "expensive node {} should draw fewer than cheap node {}",
            s[0],
            s[2047]
        );
    }

    #[test]
    fn and_empirical_separation() {
        let n = 1 << 20;
        let costs = CostVector::uniform(1024);
        let t = AsymmetricAndTester::plan(n, &costs, 0.75, 1.0 / 3.0).unwrap();
        let uniform = DiscreteDistribution::uniform(n);
        let far = paninski_far(n, 0.75).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let trials = 60;
        let rejects = |d: &DiscreteDistribution, rng: &mut StdRng| {
            (0..trials)
                .filter(|_| t.run(d, rng).decision == Decision::Reject)
                .count()
        };
        let ru = rejects(&uniform, &mut rng);
        let rf = rejects(&far, &mut rng);
        assert!(ru <= trials / 2, "false alarms {ru}/{trials}");
        assert!(rf > ru, "no separation: far {rf} vs uniform {ru}");
    }

    #[test]
    fn and_symmetric_costs_match_symmetric_planner_scale() {
        // With unit costs the asymmetric AND plan should land within a
        // small factor of the symmetric AND plan's per-node samples.
        let n = 1 << 20;
        let k = 1024;
        let costs = CostVector::uniform(k);
        let asym = AsymmetricAndTester::plan(n, &costs, 0.5, 1.0 / 3.0).unwrap();
        let sym = crate::params::plan_and_rule(n, k, 0.5, 1.0 / 3.0).unwrap();
        let s_asym = asym.sample_counts()[0] as f64;
        let s_sym = sym.samples_per_node as f64;
        let ratio = s_asym / s_sym;
        assert!(
            (0.3..3.5).contains(&ratio),
            "asymmetric {s_asym} vs symmetric {s_sym}"
        );
    }
}
