//! `mc_estimate`: fixed-budget Monte-Carlo error estimates of the gap
//! tester (n = 2^16, δ = 0.05) and the asymmetric threshold tester
//! (n = 2^20, k = 150 000, E5's uniform costs), on uniform and
//! Paninski-far inputs.
//!
//! Nearly all the time goes to `distributions` (alias draws, collision
//! checks) and `core` (testers, executor).

use super::{Check, Env, Workload, GATE_Z};
use crate::alloc;
use crate::stats::{ratio, Digest};
use crate::trace::Trace;
use dut_core::asymmetric::{AsymmetricThresholdTester, CostVector};
use dut_core::montecarlo::{sampling_rng, ErrorEstimate};
use dut_core::{Decision, GapTester, MonteCarlo, MonteCarloConfig, TesterScratch};
use dut_distributions::collision::CollisionScratch;
use dut_distributions::families::paninski_far_random;
use dut_distributions::{DiscreteDistribution, SampleOracle};
use dut_obs::keys;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;
use std::time::Instant;

const GAP_N: usize = 1 << 16;
const GAP_DELTA: f64 = 0.05;
const GAP_EPS: f64 = 0.5;
const GAP_TRIALS: usize = 20_000;
const ASYM_N: usize = 1 << 20;
const ASYM_K: usize = 150_000;
const ASYM_EPS: f64 = 0.5;
const ASYM_P: f64 = 1.0 / 3.0;
const ASYM_TRIALS: usize = 4;

/// Which tester an op estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tester {
    /// The gap tester.
    Gap,
    /// The asymmetric threshold tester.
    Asym,
}

/// One estimate's outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct McOut {
    tester: Tester,
    far: bool,
    trials: usize,
    rejections: usize,
    /// Traced trials whose probe (`draw_into` + `has_collision`)
    /// disagreed with `run_with_scratch`.
    mismatches: u64,
}

/// Per-trial measurements a worker accumulates and hands over when it
/// finishes (on drop).
#[derive(Debug, Default, Clone, Copy)]
struct TrialTotals {
    busy_ns: u64,
    draw_ns: u64,
    draws: u64,
    collision_ns: u64,
    checks: u64,
    mismatches: u64,
    asym_run_ns: u64,
}

impl TrialTotals {
    fn add(&mut self, o: &TrialTotals) {
        self.busy_ns += o.busy_ns;
        self.draw_ns += o.draw_ns;
        self.draws += o.draws;
        self.collision_ns += o.collision_ns;
        self.checks += o.checks;
        self.mismatches += o.mismatches;
        self.asym_run_ns += o.asym_run_ns;
    }
}

/// A traced Monte-Carlo worker's totals, added to `shared` when the
/// worker finishes.
struct Flush<'a> {
    local: TrialTotals,
    shared: &'a Mutex<TrialTotals>,
}

impl Drop for Flush<'_> {
    fn drop(&mut self) {
        // Drop must not panic: a poisoned lock means a trial already
        // panicked, and the executor re-raises that panic.
        if let Ok(mut totals) = self.shared.lock() {
            totals.add(&self.local);
        }
    }
}

/// A traced gap-tester worker: the tester's scratch, the probe's own
/// buffers, and its totals.
struct GapWorker<'a> {
    scratch: TesterScratch,
    samples: Vec<usize>,
    collision: CollisionScratch,
    totals: Flush<'a>,
}

/// Layer totals over the traced pass.
#[derive(Debug, Default)]
struct McLayers {
    trials: TrialTotals,
    /// Σ threads × wall of each Monte-Carlo call.
    worker_wall_ns: u64,
    gap_trials: u64,
    asym_trials: u64,
    asym_allocs: u64,
}

/// The `mc_estimate` workload.
pub struct McEstimate {
    env: Env,
    gap: GapTester,
    gap_uniform: DiscreteDistribution,
    gap_far: DiscreteDistribution,
    asym: AsymmetricThresholdTester,
    asym_uniform: DiscreteDistribution,
    asym_far: DiscreteDistribution,
    asym_draws: u64,
    asym_nodes: u64,
    /// `[tester][far]` → (trials, rejections).
    tally: [[(usize, usize); 2]; 2],
    layers: McLayers,
}

/// One cycle of ops as (tester, far input): 5 gap/uniform, 10 gap/far,
/// 4 asymmetric/uniform, 1 asymmetric/far. Sorted by latency, the
/// gap/uniform estimates come first (25%), then the gap/far ones (50%,
/// about 2.5 times slower), then the asymmetric/uniform ones (20%), then
/// the asymmetric/far one, whose 16 MiB alias table makes it the slowest
/// and the most sensitive to memory contention. The median op lies in
/// the middle of the gap/far cluster and the 90th percentile inside the
/// asymmetric/uniform one, never on a boundary between clusters.
const SCHEDULE: [(Tester, bool); 20] = {
    use Tester::{Asym as A, Gap as G};
    [
        (G, false),
        (G, true),
        (G, true),
        (A, false),
        (G, false),
        (G, true),
        (G, true),
        (A, false),
        (G, false),
        (G, true),
        (G, true),
        (A, false),
        (G, false),
        (G, true),
        (G, true),
        (A, false),
        (G, false),
        (G, true),
        (G, true),
        (A, true),
    ]
};

impl McEstimate {
    fn config(&self) -> MonteCarloConfig {
        MonteCarloConfig::with_threads(self.env.threads)
    }

    fn gap_op(&mut self, base: u64, far: bool, trace: Option<&mut Trace>) -> McOut {
        let (gap, s) = (self.gap, self.gap.samples());
        let dist = if far {
            &self.gap_far
        } else {
            &self.gap_uniform
        };
        let run = MonteCarlo::new(GAP_TRIALS, base).config(self.config());
        let (estimate, mismatches) = match trace {
            None => {
                let est = run
                    .run_with_state(
                        || TesterScratch::with_capacity(GAP_N, s),
                        |seed, scratch| {
                            gap.run_with_scratch(dist, &mut sampling_rng(seed), scratch)
                                == Decision::Reject
                        },
                    )
                    .expect("GAP_TRIALS > 0");
                (est, 0)
            }
            Some(trace) => {
                let shared = Mutex::new(TrialTotals::default());
                let t0 = Instant::now();
                let (est, sink) = trace.span("core.mc.run_observed", |_| {
                    run.run_observed(
                        || GapWorker {
                            scratch: TesterScratch::with_capacity(GAP_N, s),
                            samples: Vec::with_capacity(s),
                            collision: CollisionScratch::with_domain(GAP_N),
                            totals: Flush {
                                local: TrialTotals::default(),
                                shared: &shared,
                            },
                        },
                        |seed, w, sink| {
                            let start = Instant::now();
                            let decision = gap.run_with_scratch_observed(
                                dist,
                                &mut sampling_rng(seed),
                                &mut w.scratch,
                                sink,
                            );
                            // Probe: the same draws and check through
                            // the distributions layer's own entry points.
                            let drawn = Instant::now();
                            w.samples.clear();
                            dist.draw_into(&mut sampling_rng(seed), s, &mut w.samples);
                            let checked = Instant::now();
                            let hit = w.collision.has_collision(&w.samples);
                            let end = Instant::now();
                            let l = &mut w.totals.local;
                            l.busy_ns += (end - start).as_nanos() as u64;
                            l.draw_ns += (checked - drawn).as_nanos() as u64;
                            l.collision_ns += (end - checked).as_nanos() as u64;
                            l.draws += s as u64;
                            l.checks += 1;
                            l.mismatches += u64::from(hit != (decision == Decision::Reject));
                            decision == Decision::Reject
                        },
                    )
                    .expect("GAP_TRIALS > 0")
                });
                let wall = t0.elapsed().as_nanos() as u64;
                trace.sink.merge(&sink);
                let totals = *shared.lock().expect("workers do not panic");
                let threads = self.env.threads as u64;
                trace.add_probe_ns((totals.draw_ns + totals.collision_ns) / threads);
                let l = &mut self.layers;
                l.trials.add(&totals);
                l.worker_wall_ns += wall * threads;
                l.gap_trials += GAP_TRIALS as u64;
                (est, totals.mismatches)
            }
        };
        out(Tester::Gap, far, estimate, mismatches)
    }

    fn asym_op(&mut self, base: u64, far: bool, trace: Option<&mut Trace>) -> McOut {
        let asym = &self.asym;
        let dist = if far {
            &self.asym_far
        } else {
            &self.asym_uniform
        };
        let run = MonteCarlo::new(ASYM_TRIALS, base).config(self.config());
        let trial = |seed| asym.run(dist, &mut sampling_rng(seed)).decision == Decision::Reject;
        let estimate = match trace {
            None => run.run(trial).expect("ASYM_TRIALS > 0"),
            Some(trace) => {
                let shared = Mutex::new(TrialTotals::default());
                let allocs = alloc::allocations();
                let t0 = Instant::now();
                let (est, _) = trace.span("core.asym.estimate", |_| {
                    run.run_observed(
                        || Flush {
                            local: TrialTotals::default(),
                            shared: &shared,
                        },
                        |seed, w, _sink| {
                            let start = Instant::now();
                            let rejected = trial(seed);
                            let ns = start.elapsed().as_nanos() as u64;
                            w.local.busy_ns += ns;
                            w.local.asym_run_ns += ns;
                            rejected
                        },
                    )
                    .expect("ASYM_TRIALS > 0")
                });
                let wall = t0.elapsed().as_nanos() as u64;
                let l = &mut self.layers;
                l.asym_allocs += alloc::allocations() - allocs;
                l.trials.add(&shared.lock().expect("workers do not panic"));
                l.worker_wall_ns += wall * self.env.threads as u64;
                l.asym_trials += ASYM_TRIALS as u64;
                est
            }
        };
        out(Tester::Asym, far, estimate, 0)
    }
}

fn out(tester: Tester, far: bool, est: ErrorEstimate, mismatches: u64) -> McOut {
    McOut {
        tester,
        far,
        trials: est.trials,
        rejections: est.failures,
        mismatches,
    }
}

impl Workload for McEstimate {
    type Out = McOut;
    const CYCLE: usize = SCHEDULE.len();

    fn setup(env: &Env) -> Result<Self, String> {
        let gap = GapTester::new(GAP_N, GAP_DELTA).map_err(|e| e.to_string())?;
        let far = |n, eps, stream| {
            paninski_far_random(n, eps, &mut StdRng::seed_from_u64(env.seed_for(stream, 0)))
                .map_err(|e| e.to_string())
        };
        let asym =
            AsymmetricThresholdTester::plan(ASYM_N, &CostVector::uniform(ASYM_K), ASYM_EPS, ASYM_P)
                .map_err(|e| e.to_string())?;
        let counts = asym.sample_counts();
        Ok(McEstimate {
            env: *env,
            gap,
            gap_uniform: DiscreteDistribution::uniform(GAP_N),
            gap_far: far(GAP_N, GAP_EPS, 1)?,
            asym_draws: counts.iter().sum::<usize>() as u64,
            asym_nodes: counts.iter().filter(|&&c| c > 0).count() as u64,
            asym,
            asym_uniform: DiscreteDistribution::uniform(ASYM_N),
            asym_far: far(ASYM_N, ASYM_EPS, 2)?,
            tally: [[(0, 0); 2]; 2],
            layers: McLayers::default(),
        })
    }

    fn describe(&self) -> String {
        format!(
            "gap n={GAP_N} s={} delta={:.4} trials={GAP_TRIALS}; asymmetric n={ASYM_N} \
             k={ASYM_K} threshold={} draws/trial={} trials={ASYM_TRIALS}; eps={GAP_EPS}; \
             threads={}",
            self.gap.samples(),
            self.gap.delta(),
            self.asym.threshold(),
            self.asym_draws,
            self.env.threads
        )
    }

    fn op(&mut self, index: u64, trace: Option<&mut Trace>) -> McOut {
        let base = self.env.seed_for(3, index);
        match SCHEDULE[index as usize % Self::CYCLE] {
            (Tester::Gap, far) => self.gap_op(base, far, trace),
            (Tester::Asym, far) => self.asym_op(base, far, trace),
        }
    }

    fn record(&mut self, out: &McOut, digest: &mut Digest) -> Check {
        digest.words(&[
            out.tester as u64,
            u64::from(out.far),
            out.trials as u64,
            out.rejections as u64,
        ]);
        let t = &mut self.tally[out.tester as usize][usize::from(out.far)];
        t.0 += out.trials;
        t.1 += out.rejections;
        let budget = match out.tester {
            Tester::Gap => GAP_TRIALS,
            Tester::Asym => ASYM_TRIALS,
        };
        if out.trials != budget {
            Check::Failed(format!("{} of {budget} trials ran", out.trials))
        } else if out.mismatches > 0 {
            Check::Failed(format!(
                "{} probe decisions differ from run_with_scratch",
                out.mismatches
            ))
        } else {
            Check::Ok
        }
    }

    fn check_run(&self) -> Vec<String> {
        let mut v = Vec::new();
        let est = |tester: Tester, far: bool| {
            let (trials, rejections) = self.tally[tester as usize][usize::from(far)];
            (trials > 0).then(|| ErrorEstimate::from_counts(trials, rejections, GATE_Z))
        };
        if let Some(e) = est(Tester::Gap, false) {
            if e.certified_above(self.gap.delta()) {
                v.push(format!(
                    "gap completeness: uniform rejection {} [{}, {}] above delta {}",
                    e.rate,
                    e.lower,
                    e.upper,
                    self.gap.delta()
                ));
            }
        }
        if let Some(e) = est(Tester::Gap, true) {
            let bound = self.gap.soundness_rejection_bound(GAP_EPS);
            if e.certified_below(bound) {
                v.push(format!(
                    "gap soundness: far rejection {} [{}, {}] below {bound}",
                    e.rate, e.lower, e.upper
                ));
            }
        }
        if let Some(e) = est(Tester::Asym, false) {
            if e.certified_above(ASYM_P) {
                v.push(format!(
                    "asymmetric completeness: uniform rejection {} above p = {ASYM_P}",
                    e.rate
                ));
            }
        }
        if let Some(e) = est(Tester::Asym, true) {
            if e.certified_below(1.0 - ASYM_P) {
                v.push(format!(
                    "asymmetric soundness: far rejection {} below 1 - p",
                    e.rate
                ));
            }
        }
        v
    }

    fn corrupt(out: &mut McOut) {
        // A tester that rejects everything it sees.
        out.rejections = out.trials;
    }

    fn layers(&self, trace: &Trace, ops: usize) -> Vec<(&'static str, f64)> {
        let l = &self.layers;
        let t = &l.trials;
        let ops = ops as f64;
        let draws = trace.sink.counter(keys::CORE_GAP_SAMPLES) + l.asym_trials * self.asym_draws;
        let checks = trace.sink.counter(keys::CORE_GAP_RUNS) + l.asym_trials * self.asym_nodes;
        vec![
            ("distributions.draws", ratio(draws as f64, ops)),
            (
                "distributions.draw_ns",
                ratio(t.draw_ns as f64, t.draws as f64),
            ),
            ("distributions.collision_checks", ratio(checks as f64, ops)),
            (
                "distributions.collision_ns",
                ratio(t.collision_ns as f64, t.checks as f64),
            ),
            (
                "core.mc.trials",
                ratio((l.gap_trials + l.asym_trials) as f64, ops),
            ),
            (
                "core.mc.idle_frac",
                1.0 - ratio(t.busy_ns as f64, l.worker_wall_ns as f64),
            ),
            (
                "core.asym.run_ms",
                ratio(t.asym_run_ns as f64, l.asym_trials as f64) / 1e6,
            ),
            (
                "core.allocs_per_trial",
                ratio(l.asym_allocs as f64, l.asym_trials as f64),
            ),
        ]
    }
}
