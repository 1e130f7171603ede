//! `stream_ingest`: a sharded `StreamService` (domain 4096, ε = 1,
//! window 512, 4 shards, 24 round-robin streams, reject threshold 12)
//! fed alternating uniform and far phases of 20 000 samples; one op is
//! one phase's ingests followed by `verdict()` and `global_verdict()`.
//!
//! The only consumer of the `stream` layer: writes (ingest) mixed with
//! reads (the merge inside `global_verdict`).

use super::{Check, Env, Workload, GLOBAL_VERDICT_SPAN, INGEST_SPAN, VERDICT_SPAN};
use crate::stats::Digest;
use crate::trace::Trace;
use dut_distributions::families::paninski_far_random;
use dut_distributions::{DiscreteDistribution, SampleOracle};
use dut_stream::{Anytime, StreamConfig, StreamError, StreamService, Verdict};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DOMAIN: usize = 4096;
const EPS: f64 = 1.0;
const WINDOW: usize = 512;
const SHARDS: usize = 4;
const STREAMS: u64 = 24;
const REJECT_THRESHOLD: usize = 12;
const PHASE_SAMPLES: usize = 20_000;
/// Distinct phases generated in set-up; ops cycle through them.
const PHASES: usize = 16;

/// One op's outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOut {
    far: bool,
    ingest: Result<(), StreamError>,
    verdict: Anytime<Verdict>,
    global: Anytime<Verdict>,
}

/// The `stream_ingest` workload.
pub struct StreamIngest {
    service: StreamService,
    /// `PHASES` phases of samples; even phases uniform, odd phases far.
    feed: Vec<Vec<u16>>,
}

fn label(j: usize) -> u64 {
    j as u64 % STREAMS
}

fn verdict_word(v: Verdict) -> u64 {
    match v {
        Verdict::Uniform => 0,
        Verdict::Far => 1,
        Verdict::Pending => 2,
    }
}

impl Workload for StreamIngest {
    type Out = StreamOut;
    /// A uniform phase, then a far one.
    const CYCLE: usize = 2;

    fn setup(env: &Env) -> Result<Self, String> {
        let uniform = DiscreteDistribution::uniform(DOMAIN);
        let far = paninski_far_random(DOMAIN, EPS, &mut StdRng::seed_from_u64(env.seed_for(1, 0)))
            .map_err(|e| e.to_string())?;
        let feed = (0..PHASES)
            .map(|phase| {
                let dist = if phase % 2 == 1 { &far } else { &uniform };
                let mut rng = StdRng::seed_from_u64(env.seed_for(2, phase as u64));
                (0..PHASE_SAMPLES)
                    .map(|_| dist.draw(&mut rng) as u16)
                    .collect()
            })
            .collect();
        let service = StreamService::new(StreamConfig {
            domain: DOMAIN,
            epsilon: EPS,
            window: WINDOW,
            shards: SHARDS,
            reject_threshold: REJECT_THRESHOLD,
            base_seed: env.seed_for(3, 0),
        })
        .map_err(|e| e.to_string())?;
        Ok(StreamIngest { service, feed })
    }

    fn describe(&self) -> String {
        format!(
            "stream service domain={DOMAIN} eps={EPS} window={WINDOW} shards={SHARDS} \
             streams={STREAMS} reject_threshold={REJECT_THRESHOLD}; {PHASE_SAMPLES} ingests \
             per op over {PHASES} pre-generated phases"
        )
    }

    fn op(&mut self, index: u64, trace: Option<&mut Trace>) -> StreamOut {
        let phase = index as usize % PHASES;
        let samples = &self.feed[phase];
        let svc = &mut self.service;
        let (ingest, verdict, global) = match trace {
            None => {
                let ingest = samples
                    .iter()
                    .enumerate()
                    .try_for_each(|(j, &x)| svc.ingest(label(j), usize::from(x)));
                (ingest, svc.verdict(), svc.global_verdict())
            }
            Some(t) => {
                let ingest = t.span(INGEST_SPAN, |sink| {
                    samples
                        .iter()
                        .enumerate()
                        .try_for_each(|(j, &x)| svc.ingest_observed(label(j), usize::from(x), sink))
                });
                let verdict = t.span(VERDICT_SPAN, |sink| svc.verdict_observed(sink));
                let global = t.span(GLOBAL_VERDICT_SPAN, |sink| {
                    svc.global_verdict_observed(sink)
                });
                (ingest, verdict, global)
            }
        };
        StreamOut {
            far: phase % 2 == 1,
            ingest,
            verdict,
            global,
        }
    }

    fn record(&mut self, out: &StreamOut, digest: &mut Digest) -> Check {
        if let Err(e) = &out.ingest {
            digest.word(u64::MAX);
            return Check::Failed(format!("ingest failed: {e}"));
        }
        for v in [&out.verdict, &out.global] {
            digest.words(&[
                verdict_word(v.value),
                v.samples,
                v.look as u64,
                u64::from(v.certified),
            ]);
        }
        let expect = if out.far {
            Verdict::Far
        } else {
            Verdict::Uniform
        };
        if out.verdict.value != expect || out.global.value != expect {
            return Check::Failed(format!(
                "after a {} phase the verdicts read {:?} (streams) and {:?} (pooled)",
                if out.far { "far" } else { "uniform" },
                out.verdict.value,
                out.global.value
            ));
        }
        Check::Ok
    }

    fn check_run(&self) -> Vec<String> {
        // The per-op check already requires the verdict to follow every
        // phase, so it flips between uniform and far phases.
        Vec::new()
    }

    /// The pooled collision-pair count and the shard placement: the
    /// per-op verdicts follow the phases whatever the seed, these
    /// follow the samples.
    fn final_words(&self) -> Vec<u64> {
        let mut words = vec![self.service.merged_sketch().pairs()];
        words.extend((0..STREAMS).map(|l| self.service.shard_of(l) as u64));
        words
    }

    fn corrupt(out: &mut StreamOut) {
        // A verdict stuck on the other side.
        out.verdict.value = if out.far {
            Verdict::Uniform
        } else {
            Verdict::Far
        };
    }

    fn layers(&self, _trace: &Trace, _ops: usize) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}
