//! `congest_plain`: fault-free CONGEST runs to a verdict — the
//! uniformity tester (Theorem 1.4; n = 2^12, k = 12 000, s = 1, ε = 1 on
//! a 100×120 grid) and the conductance tester (Φ = 0.1, ε = 0.5 on a
//! side-16 Margulis expander and on 256-node bridged cliques).
//!
//! The time goes to the `netsim` round engine and to `congest`
//! packaging and walks; `ecc` is idle.

use super::{Check, Env, Workload, CONDUCTANCE_SPAN, CONGEST_SPAN, GATE_Z};
use crate::stats::Digest;
use crate::trace::Trace;
use dut_congest::{
    ConductanceError, ConductanceRunResult, ConductanceTester, CongestError, CongestRunResult,
    CongestUniformityTester,
};
use dut_core::montecarlo::ErrorEstimate;
use dut_core::Decision;
use dut_distributions::families::paninski_far_random;
use dut_distributions::DiscreteDistribution;
use dut_netsim::engine::RunOptions;
use dut_netsim::graph::{Graph, ImplicitTopology};
use dut_netsim::topology::{bridged_cliques, grid, MargulisExpander};
use dut_obs::NoopSink;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 1 << 12;
const ROWS: usize = 100;
const COLS: usize = 120;
const EPS: f64 = 1.0;
const P: f64 = 1.0 / 3.0;
const PHI: f64 = 0.1;
const PHI_EPS: f64 = 0.5;
const MARGULIS_SIDE: usize = 16;
/// E6's envelope: rounds stay below this multiple of D + τ.
const ENVELOPE: f64 = 10.0;

/// One op's outputs.
#[derive(Debug, Clone, PartialEq)]
pub enum PlainOut {
    /// A uniformity tester run.
    Uniformity {
        /// Whether the input was the far distribution.
        far: bool,
        /// The run's outcome.
        result: Result<CongestRunResult, CongestError>,
    },
    /// A conductance tester run.
    Conductance {
        /// Whether the graph was the expander (the accept instance).
        expander: bool,
        /// The run's outcome.
        result: Result<ConductanceRunResult, ConductanceError>,
    },
}

/// The `congest_plain` workload.
pub struct CongestPlain {
    env: Env,
    tester: CongestUniformityTester,
    grid: Graph,
    diameter: usize,
    uniform: DiscreteDistribution,
    far: DiscreteDistribution,
    conductance: ConductanceTester,
    margulis: Graph,
    bridged: Graph,
    options: RunOptions,
    /// Uniformity runs and rejections, `[far]`.
    rejections: [(usize, usize); 2],
    /// Conductance runs and acceptances, `[expander]`.
    accepts: [(usize, usize); 2],
    /// Σ rounds and Σ packages over successful uniformity runs.
    rounds: u64,
    packages: u64,
}

impl Workload for CongestPlain {
    type Out = PlainOut;
    /// Uniformity on uniform and far, the expander, uniformity again,
    /// the bridged cliques: the median and 90th-percentile ops are
    /// uniformity runs.
    const CYCLE: usize = 6;

    fn setup(env: &Env) -> Result<Self, String> {
        let k = ROWS * COLS;
        let tester = CongestUniformityTester::plan(N, k, EPS, P, 1).map_err(|e| e.to_string())?;
        let far = paninski_far_random(N, EPS, &mut StdRng::seed_from_u64(env.seed_for(1, 0)))
            .map_err(|e| e.to_string())?;
        let side2 = MARGULIS_SIDE * MARGULIS_SIDE;
        let conductance =
            ConductanceTester::plan(side2, PHI, PHI_EPS).map_err(|e| e.to_string())?;
        Ok(CongestPlain {
            env: *env,
            tester,
            grid: grid(ROWS, COLS),
            diameter: ROWS + COLS - 2,
            uniform: DiscreteDistribution::uniform(N),
            far,
            conductance,
            margulis: MargulisExpander::new(MARGULIS_SIDE).materialize(),
            bridged: bridged_cliques(side2),
            options: RunOptions {
                threads: env.threads,
                ..RunOptions::default()
            },
            rejections: [(0, 0); 2],
            accepts: [(0, 0); 2],
            rounds: 0,
            packages: 0,
        })
    }

    fn describe(&self) -> String {
        format!(
            "uniformity n={N} k={} s=1 eps={EPS} tau={} on grid {ROWS}x{COLS} (D={}); \
             conductance phi={PHI} eps={PHI_EPS} on margulis({MARGULIS_SIDE}) and \
             bridged_cliques({}); engine threads={}",
            self.grid.node_count(),
            self.tester.tau(),
            self.diameter,
            self.bridged.node_count(),
            self.options.threads
        )
    }

    fn op(&mut self, index: u64, trace: Option<&mut Trace>) -> PlainOut {
        let seed = self.env.seed_for(2, index);
        match index % Self::CYCLE as u64 {
            slot @ (2 | 5) => {
                let expander = slot == 2;
                let g = if expander {
                    &self.margulis
                } else {
                    &self.bridged
                };
                let result = match trace {
                    None => self
                        .conductance
                        .run_observed(g, seed, &self.options, &mut NoopSink),
                    Some(t) => t.span(CONDUCTANCE_SPAN, |sink| {
                        self.conductance.run_observed(g, seed, &self.options, sink)
                    }),
                };
                PlainOut::Conductance { expander, result }
            }
            slot => {
                let far = slot % 3 == 1;
                let dist = if far { &self.far } else { &self.uniform };
                let mut rng = StdRng::seed_from_u64(seed);
                let result = match trace {
                    None => self.tester.run(&self.grid, dist, &mut rng),
                    Some(t) => t.span(CONGEST_SPAN, |sink| {
                        self.tester.run_observed(&self.grid, dist, &mut rng, sink)
                    }),
                };
                PlainOut::Uniformity { far, result }
            }
        }
    }

    fn record(&mut self, out: &PlainOut, digest: &mut Digest) -> Check {
        match out {
            PlainOut::Uniformity { far, result } => {
                let r = match result {
                    Ok(r) => r,
                    Err(e) => {
                        digest.word(u64::MAX);
                        return Check::Failed(format!("uniformity run failed: {e}"));
                    }
                };
                digest.words(&[
                    u64::from(r.decision == Decision::Reject),
                    r.rejecting_packages as u64,
                    r.packages as u64,
                    r.rounds as u64,
                    r.bits as u64,
                ]);
                let t = &mut self.rejections[usize::from(*far)];
                t.0 += 1;
                t.1 += usize::from(r.decision == Decision::Reject);
                self.rounds += r.rounds as u64;
                self.packages += r.packages as u64;
                let envelope = ENVELOPE * (self.diameter + self.tester.tau()) as f64;
                if r.rounds as f64 >= envelope {
                    return Check::Failed(format!(
                        "{} rounds outside the envelope {envelope} = {ENVELOPE}·(D + tau)",
                        r.rounds
                    ));
                }
                Check::Ok
            }
            PlainOut::Conductance { expander, result } => {
                let r = match result {
                    Ok(r) => r,
                    Err(e) => {
                        digest.word(u64::MAX);
                        return Check::Failed(format!("conductance run failed: {e}"));
                    }
                };
                digest.words(&[
                    u64::from(r.verdict.accepts()),
                    r.collisions,
                    r.rounds as u64,
                    r.walk_rounds as u64,
                    r.bits,
                    r.tokens,
                ]);
                let t = &mut self.accepts[usize::from(*expander)];
                t.0 += 1;
                t.1 += usize::from(r.verdict.accepts());
                let bound = self.conductance.round_bound(r.tree_height);
                if r.rounds as f64 > bound {
                    return Check::Failed(format!(
                        "{} rounds above the conductance round bound {bound}",
                        r.rounds
                    ));
                }
                Check::Ok
            }
        }
    }

    fn check_run(&self) -> Vec<String> {
        let mut v = Vec::new();
        // E6: far inputs reject at least as often as uniform ones.
        let rate = |(runs, rej): (usize, usize)| rej as f64 / runs.max(1) as f64;
        let [uniform, far] = self.rejections;
        if uniform.0 > 0 && far.0 > 0 && rate(far) < rate(uniform) {
            v.push(format!(
                "uniformity tester does not separate: far rejects {}/{}, uniform {}/{}",
                far.1, far.0, uniform.1, uniform.0
            ));
        }
        // E16: expanders accepted, bridged cliques rejected; a wrong-
        // verdict rate certified above 1/3 fails.
        for (expander, name) in [(true, "expander"), (false, "bridged cliques")] {
            let (runs, accepts) = self.accepts[usize::from(expander)];
            if runs == 0 {
                continue;
            }
            let wrong = if expander { runs - accepts } else { accepts };
            let e = ErrorEstimate::from_counts(runs, wrong, GATE_Z);
            if e.certified_above(P) {
                v.push(format!(
                    "conductance tester misjudges the {name}: {wrong} of {runs} runs wrong"
                ));
            }
        }
        v
    }

    fn corrupt(out: &mut PlainOut) {
        // A run that took a hundred times the rounds it did.
        match out {
            PlainOut::Uniformity { result: Ok(r), .. } => r.rounds *= 100,
            PlainOut::Conductance { result: Ok(r), .. } => r.rounds *= 100,
            _ => {}
        }
    }

    fn layers(&self, _trace: &Trace, _ops: usize) -> Vec<(&'static str, f64)> {
        let runs = (self.rejections[0].0 + self.rejections[1].0).max(1) as f64;
        vec![
            ("congest.rounds", self.rounds as f64 / runs),
            ("congest.packages", self.packages as f64 / runs),
        ]
    }
}
