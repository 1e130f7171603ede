//! `congest_coded`: the fault-hardened CONGEST uniformity tester
//! (`run_robust`, max_retries = 8) through E13's quick fault cells —
//! clean, flips 3e-4, drops 5e-4, drops + flips — on uniform and far
//! inputs, at n = 2^11, k = 128, s = 64, ε = 1 on an 8×16 grid.
//!
//! Every message is a Justesen codeword, so `ecc` decoding dominates
//! even when nothing is corrupted. The traced pass also times
//! `JustesenCode::encode`/`decode` directly on codewords corrupted at
//! the op's flip rate.

use super::{Check, Env, Workload, CONGEST_SPAN};
use crate::stats::{ratio, Digest};
use crate::trace::Trace;
use dut_congest::{CongestError, CongestUniformityTester, PackagingError, RobustRunResult};
use dut_core::Decision;
use dut_distributions::families::paninski_far_random;
use dut_distributions::DiscreteDistribution;
use dut_ecc::{BinaryCode, JustesenCode};
use dut_netsim::fault::FaultPlan;
use dut_netsim::graph::Graph;
use dut_netsim::topology::grid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 1 << 11;
const ROWS: usize = 8;
const COLS: usize = 16;
const SAMPLES: usize = 64;
const EPS: f64 = 1.0;
const P: f64 = 1.0 / 3.0;
const MAX_RETRIES: usize = 8;
/// E13's quick cells, (drop rate, flip rate).
const CELLS: [(f64, f64); 4] = [(0.0, 0.0), (0.0, 3e-4), (5e-4, 0.0), (5e-4, 3e-4)];
/// Field degree of the Justesen code every robust message travels in
/// (the rate-1/3 instance wide enough for the 97-bit ARQ message).
const CODE_M: u32 = 5;
/// Codewords the traced pass encodes and decodes directly per op.
const PROBE_WORDS: usize = 128;

/// One op's outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct CodedOut {
    cell: usize,
    far: bool,
    result: Result<RobustRunResult, CongestError>,
    /// Traced probe codewords within the correction radius that did
    /// not decode back to their message.
    probe_errors: u64,
}

/// The `congest_coded` workload.
pub struct CongestCoded {
    env: Env,
    tester: CongestUniformityTester,
    grid: Graph,
    uniform: DiscreteDistribution,
    far: DiscreteDistribution,
    code: JustesenCode,
    /// Corrected bits over flip-cell ops (flips must be injected).
    flip_cell_ops: usize,
    flip_cell_corrected: u64,
    /// Traced-pass totals read from the outputs.
    ok_ops: u64,
    rounds: u64,
    packages: u64,
    codewords: u64,
    /// Failures of overwhelmed runs, which never reach the sink.
    overwhelmed_failures: u64,
}

impl CongestCoded {
    /// Encodes and decodes [`PROBE_WORDS`] random messages, flipping
    /// each codeword bit with probability `flip`; returns the decodes
    /// within the radius that came back wrong.
    fn probe(&self, index: u64, flip: f64, trace: &mut Trace) -> u64 {
        let mut rng = StdRng::seed_from_u64(self.env.seed_for(5, index));
        let (bits, radius) = (
            self.code.input_bits(),
            self.code.certified_correction_radius(),
        );
        let probe = trace.enter("probe.ecc");
        let mut errors = 0;
        for _ in 0..PROBE_WORDS {
            let mut message: Vec<u64> = (0..bits.div_ceil(64)).map(|_| rng.gen()).collect();
            if bits % 64 != 0 {
                let last = message.len() - 1;
                message[last] &= (1u64 << (bits % 64)) - 1;
            }
            let mut word = trace.span("ecc.encode", |_| self.code.encode(&message));
            let mut flipped = 0;
            for bit in 0..self.code.output_bits() {
                if flip > 0.0 && rng.gen_bool(flip) {
                    word[bit / 64] ^= 1 << (bit % 64);
                    flipped += 1;
                }
            }
            let name = if flipped == 0 {
                "ecc.decode_clean"
            } else {
                "ecc.decode_corrupt"
            };
            let decoded = trace.span(name, |_| self.code.decode(&word));
            if flipped <= radius && decoded.as_ref() != Ok(&message) {
                errors += 1;
            }
        }
        trace.exit(probe);
        errors
    }
}

impl Workload for CongestCoded {
    type Out = CodedOut;
    /// Each fault cell on uniform, then each on far.
    const CYCLE: usize = 8;

    fn setup(env: &Env) -> Result<Self, String> {
        let tester = CongestUniformityTester::plan(N, ROWS * COLS, EPS, P, SAMPLES)
            .map_err(|e| e.to_string())?;
        let far = paninski_far_random(N, EPS, &mut StdRng::seed_from_u64(env.seed_for(1, 0)))
            .map_err(|e| e.to_string())?;
        Ok(CongestCoded {
            env: *env,
            tester,
            grid: grid(ROWS, COLS),
            uniform: DiscreteDistribution::uniform(N),
            far,
            code: JustesenCode::rate_one_third(CODE_M),
            flip_cell_ops: 0,
            flip_cell_corrected: 0,
            ok_ops: 0,
            rounds: 0,
            packages: 0,
            codewords: 0,
            overwhelmed_failures: 0,
        })
    }

    fn describe(&self) -> String {
        format!(
            "robust uniformity n={N} k={} s={SAMPLES} eps={EPS} tau={} on grid {ROWS}x{COLS}, \
             max_retries={MAX_RETRIES}, cells (drop, flip) {CELLS:?}; justesen m={CODE_M} \
             {} -> {} bits, radius {}",
            self.grid.node_count(),
            self.tester.tau(),
            self.code.input_bits(),
            self.code.output_bits(),
            self.code.certified_correction_radius()
        )
    }

    fn op(&mut self, index: u64, trace: Option<&mut Trace>) -> CodedOut {
        let cell = index as usize % CELLS.len();
        let far = (index as usize / CELLS.len()) % 2 == 1;
        let (drop, flip) = CELLS[cell];
        let plan = FaultPlan::seeded(self.env.seed_for(4, index))
            .with_drops(drop)
            .with_flips(flip);
        let dist = if far { &self.far } else { &self.uniform };
        let mut rng = StdRng::seed_from_u64(self.env.seed_for(2, index));
        let (result, probe_errors) = match trace {
            None => (
                self.tester
                    .run_robust(&self.grid, dist, &mut rng, &plan, MAX_RETRIES),
                0,
            ),
            Some(t) => {
                let result = t.span(CONGEST_SPAN, |sink| {
                    self.tester.run_robust_observed(
                        &self.grid,
                        dist,
                        &mut rng,
                        &plan,
                        MAX_RETRIES,
                        sink,
                    )
                });
                (result, self.probe(index, flip, t))
            }
        };
        CodedOut {
            cell,
            far,
            result,
            probe_errors,
        }
    }

    fn record(&mut self, out: &CodedOut, digest: &mut Digest) -> Check {
        let (drops, flips) = (CELLS[out.cell].0 > 0.0, CELLS[out.cell].1 > 0.0);
        digest.words(&[out.cell as u64, u64::from(out.far)]);
        if out.probe_errors > 0 {
            return Check::Failed(format!(
                "{} probe codewords within the radius decoded wrong",
                out.probe_errors
            ));
        }
        let r = match &out.result {
            Ok(r) => r,
            Err(CongestError::Packaging(PackagingError::FaultOverwhelmed {
                failures,
                stage,
                round,
                ..
            })) => {
                digest.words(&[u64::MAX, *failures, *round as u64]);
                self.overwhelmed_failures += failures;
                return if drops {
                    Check::TypedError
                } else {
                    Check::Failed(format!(
                        "overwhelmed at the {stage:?} stage without drops in cell {:?}",
                        CELLS[out.cell]
                    ))
                };
            }
            Err(e) => {
                digest.word(u64::MAX - 1);
                return Check::Failed(format!("robust run failed: {e}"));
            }
        };
        let s = &r.stats;
        digest.words(&[
            u64::from(r.run.decision == Decision::Reject),
            r.run.rejecting_packages as u64,
            r.run.packages as u64,
            r.run.rounds as u64,
            r.run.bits as u64,
            s.corrected_bits,
            s.decode_failures,
            s.retransmits,
            s.failures,
            r.informed_nodes as u64,
        ]);
        self.ok_ops += 1;
        self.rounds += r.run.rounds as u64;
        self.packages += r.run.packages as u64;
        self.codewords += (r.run.bits / self.code.output_bits()) as u64;
        if flips && !drops {
            self.flip_cell_ops += 1;
            self.flip_cell_corrected += s.corrected_bits;
        }
        if !drops && s.decode_failures > 0 {
            return Check::Failed(format!(
                "{} decode failures below the radius",
                s.decode_failures
            ));
        }
        if !drops && !flips && (s.corrected_bits > 0 || s.retransmits > 0) {
            return Check::Failed(format!(
                "fault-free run made {} corrections and {} retransmits",
                s.corrected_bits, s.retransmits
            ));
        }
        Check::Ok
    }

    fn check_run(&self) -> Vec<String> {
        if self.flip_cell_ops > 0 && self.flip_cell_corrected == 0 {
            vec![format!(
                "{} flip-cell runs corrected no bits: flips were never injected",
                self.flip_cell_ops
            )]
        } else {
            Vec::new()
        }
    }

    fn corrupt(out: &mut CodedOut) {
        // A clean-cell run that claims to have corrected a bit.
        if let Ok(r) = &mut out.result {
            r.stats.corrected_bits += 1;
        }
    }

    fn layers(&self, trace: &Trace, ops: usize) -> Vec<(&'static str, f64)> {
        let ok = self.ok_ops as f64;
        let codewords = ratio(self.codewords as f64, ok);
        let clean = trace.totals("ecc.decode_clean");
        let corrupt = trace.totals("ecc.decode_corrupt");
        let decode_ns = ratio(
            (clean.total_ns + corrupt.total_ns) as f64,
            (clean.count + corrupt.count) as f64,
        );
        let run_ms = trace.mean_ns(CONGEST_SPAN) / 1e6;
        let robust_failures = trace.sink.counter(dut_obs::keys::CONGEST_ROBUST_FAILURES);
        vec![
            ("congest.rounds", ratio(self.rounds as f64, ok)),
            ("congest.packages", ratio(self.packages as f64, ok)),
            (
                "congest.robust.failures",
                ratio(
                    (robust_failures + self.overwhelmed_failures) as f64,
                    ops as f64,
                ),
            ),
            ("ecc.encode_ns", trace.mean_ns("ecc.encode")),
            ("ecc.decode_clean_ns", trace.mean_ns("ecc.decode_clean")),
            ("ecc.decode_corrupt_ns", trace.mean_ns("ecc.decode_corrupt")),
            ("ecc.codewords", codewords),
            ("ecc.share", ratio(codewords * decode_ns, run_ms * 1e6)),
        ]
    }
}
