//! The four workloads and what they share.

pub mod coded;
pub mod mc;
pub mod plain;
pub mod stream;

use crate::stats::{ratio, Digest};
use crate::trace::Trace;
use dut_core::executor::derive_trial_seed;
use dut_obs::keys;

/// What every workload's set-up receives.
#[derive(Debug, Clone, Copy)]
pub struct Env {
    /// The workload seed every input derives from.
    pub seed: u64,
    /// Worker threads for the Monte-Carlo executor and the round engine
    /// (`available_parallelism`, never more).
    pub threads: usize,
}

impl Env {
    /// A seed for input stream `stream`, item `index`, derived from the
    /// workload seed (splitmix64, as the Monte-Carlo executor derives
    /// trial seeds).
    pub fn seed_for(&self, stream: u64, index: u64) -> u64 {
        derive_trial_seed(derive_trial_seed(self.seed, stream), index)
    }
}

/// The gate's view of one op.
#[derive(Debug, Clone, PartialEq)]
pub enum Check {
    /// The op's outputs passed their checks.
    Ok,
    /// The op returned a typed error its workload allows (a drop-cell
    /// run overwhelmed by faults); it counts against `ok_frac`.
    TypedError,
    /// The op failed a correctness check.
    Failed(String),
}

/// Wilson z of the run-level rate gates: two-sided 1e-4. A run checks
/// a few rates and the benchmark is run many times, so E1's 1.96 would
/// fail correct programs too often — e.g. the asymmetric threshold
/// tester's uniform rejection rate (measured 0.345 over 1200 trials)
/// sits just above its planned p = 1/3.
pub const GATE_Z: f64 = 3.89;

/// A closed-loop workload: a set-up, then ops run one after another.
pub trait Workload: Sized {
    /// One op's outputs.
    type Out;
    /// Ops in one cycle of the input mix; timed passes end on a cycle
    /// boundary so every run sees the same mix.
    const CYCLE: usize;

    /// Generates inputs from the seed, builds tables and graphs, plans
    /// the testers.
    ///
    /// # Errors
    ///
    /// A message if a tester cannot be planned.
    fn setup(env: &Env) -> Result<Self, String>;

    /// One line naming the planned parameters.
    fn describe(&self) -> String;

    /// Runs op `index`. With a trace, it calls the layers' `*_observed`
    /// entry points, opens spans around each call and runs the probes;
    /// its outputs must equal the untraced op's.
    fn op(&mut self, index: u64, trace: Option<&mut Trace>) -> Self::Out;

    /// Folds the op's deterministic outputs into `digest`, checks them
    /// and adds them to the run-level tallies.
    fn record(&mut self, out: &Self::Out, digest: &mut Digest) -> Check;

    /// Run-level checks over the tallies; one message per violation.
    fn check_run(&self) -> Vec<String>;

    /// Deterministic state left after the last op, folded into the
    /// digest after the timed phase (for outputs that only the
    /// accumulated state shows).
    fn final_words(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Damages an output the way a wrong program would (self-test of
    /// the gate).
    fn corrupt(out: &mut Self::Out);

    /// Per-layer metrics this workload measures beyond
    /// [`common_layers`]; `ops` is the traced pass's op count.
    fn layers(&self, trace: &Trace, ops: usize) -> Vec<(&'static str, f64)>;
}

/// Per-layer metrics read the same way on every workload: counters per
/// op and the mean durations of the spans the workloads share names
/// for. A workload that never reaches a layer reads 0 there.
pub fn common_layers(trace: &Trace, ops: usize) -> Vec<(&'static str, f64)> {
    let ops = ops as f64;
    let round_nanos = trace.sink.histogram(keys::NETSIM_ROUND_NANOS);
    let round_us = round_nanos.map_or(0.0, |h| hist_median(h) / 1e3);
    let nanos_sum = round_nanos.map_or(0, |h| h.sum()) as f64;
    let conductance_runs = trace.totals(CONDUCTANCE_SPAN).count as f64;
    let pushes = trace.sink.counter(keys::STREAM_PUSHES) as f64;
    vec![
        ("netsim.rounds", trace.per(keys::NETSIM_ROUNDS, ops)),
        ("netsim.messages", trace.per(keys::NETSIM_MESSAGES, ops)),
        ("netsim.bits", trace.per(keys::NETSIM_BITS, ops)),
        ("netsim.round_us", round_us),
        (
            "netsim.ns_per_message",
            ratio(nanos_sum, trace.sink.counter(keys::NETSIM_MESSAGES) as f64),
        ),
        (
            "netsim.fault.flipped_bits",
            trace.per(keys::NETSIM_FAULT_FLIPPED_BITS, ops),
        ),
        (
            "netsim.fault.dropped_messages",
            trace.per(keys::NETSIM_FAULT_DROPPED_MESSAGES, ops),
        ),
        (
            "netsim.reliable.retransmits",
            trace.per(keys::NETSIM_RELIABLE_RETRANSMITS, ops),
        ),
        ("congest.run_ms", trace.mean_ns(CONGEST_SPAN) / 1e6),
        (
            "congest.conductance.run_ms",
            trace.mean_ns(CONDUCTANCE_SPAN) / 1e6,
        ),
        (
            "congest.conductance.walk_rounds",
            trace.per(keys::CONGEST_CONDUCTANCE_WALK_ROUNDS, conductance_runs),
        ),
        (
            "congest.conductance.tokens",
            trace.per(keys::CONGEST_CONDUCTANCE_TOKENS, conductance_runs),
        ),
        (
            "ecc.corrected_bits",
            trace.per(keys::CONGEST_ECC_CORRECTED_BITS, ops),
        ),
        (
            "ecc.decode_failures",
            trace.per(keys::CONGEST_ECC_DECODE_FAILURES, ops),
        ),
        ("stream.pushes", ratio(pushes, ops)),
        (
            "stream.ingest_ns",
            ratio(trace.totals(INGEST_SPAN).total_ns as f64, pushes),
        ),
        (
            "stream.window.evictions",
            trace.per(keys::STREAM_WINDOW_EVICTIONS, ops),
        ),
        ("stream.verdict_us", trace.mean_ns(VERDICT_SPAN) / 1e3),
        (
            "stream.global_verdict_us",
            trace.mean_ns(GLOBAL_VERDICT_SPAN) / 1e3,
        ),
        (
            "stream.coordinator.merges",
            trace.per(keys::STREAM_COORDINATOR_MERGES, ops),
        ),
    ]
}

/// Span around one CONGEST uniformity tester run (plain or robust).
pub const CONGEST_SPAN: &str = "congest.run";
/// Span around one conductance tester run.
pub const CONDUCTANCE_SPAN: &str = "congest.conductance.run";
/// Span around one op's batch of `StreamService` ingests.
pub const INGEST_SPAN: &str = "stream.ingest";
/// Span around `StreamService::verdict`.
pub const VERDICT_SPAN: &str = "stream.verdict";
/// Span around `StreamService::global_verdict`.
pub const GLOBAL_VERDICT_SPAN: &str = "stream.global_verdict";

/// The median of a bit-length histogram (bucket `b` holds values of
/// bit length `b`, i.e. `[2^(b-1), 2^b)`), interpolated linearly by
/// rank inside its bucket.
fn hist_median(h: &dut_obs::hist::Histogram) -> f64 {
    let half = h.count() as f64 / 2.0;
    let mut seen = 0.0;
    for (b, &n) in h.buckets().iter().enumerate() {
        let n = n as f64;
        if n > 0.0 && seen + n >= half {
            if b == 0 {
                return 0.0;
            }
            let lo = (1u128 << (b - 1)) as f64;
            return lo + lo * ((half - seen) / n);
        }
        seen += n;
    }
    0.0
}
