//! The sharded streaming service: many concurrent labeled streams,
//! per-stream sliding windows, shard-local state, coordinator verdicts.

use std::collections::BTreeMap;

use dut_core::executor::{derive_trial_seed, sequence_z};
use dut_core::montecarlo::ErrorEstimate;
use dut_obs::keys;
use dut_obs::Sink;

use crate::collision::CollisionSketch;
use crate::error::StreamError;
use crate::sketch::{Anytime, Sketch, Verdict};
use crate::window::SlidingWindow;

/// Configuration for a [`StreamService`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Domain size `n` of the tested distributions.
    pub domain: usize,
    /// Distance parameter ε each per-stream tester uses.
    pub epsilon: f64,
    /// Per-stream sliding-window capacity (each stream's verdict is on
    /// its last `window` samples).
    pub window: usize,
    /// Number of shards stream state is partitioned across. A pure
    /// performance knob: every verdict is bit-identical at any value.
    pub shards: usize,
    /// Coordinator threshold `T`: the service verdict is `Far` iff at
    /// least `T` decided streams currently reject.
    pub reject_threshold: usize,
    /// Base seed of the stateless shard-placement function.
    pub base_seed: u64,
}

/// Per-stream state: a windowed collision sketch.
type StreamState = SlidingWindow<CollisionSketch>;

/// One shard's slice of the stream table, keyed by stream label.
/// `BTreeMap` so coordinator iteration is deterministic.
#[derive(Debug, Default)]
struct Shard {
    streams: BTreeMap<u64, StreamState>,
}

/// A sharded streaming uniformity-testing service.
///
/// Samples arrive tagged with a `u64` stream label; each stream gets a
/// sliding-window [`CollisionSketch`] living on the shard selected by
/// the stateless placement function
/// `derive_trial_seed(base_seed, label) % shards` — a pure function of
/// the label, never of arrival order or shard load. Per-stream state
/// depends only on that stream's own sample order, and every
/// coordinator aggregate is a sum over streams in deterministic
/// (shard, label) order, so **all verdicts are bit-identical at any
/// shard count** (enforced by the merge-differential suite).
///
/// Two verdict surfaces:
///
/// * [`verdict`](StreamService::verdict) — the threshold rule over
///   per-stream votes (a stream votes once its window verdict is
///   decidable; `Far` iff at least `reject_threshold` reject). Each
///   call is one *look* in the `sequence_z` union-bound Wilson
///   schedule; the returned [`Anytime`] carries the schedule-priced
///   interval check, so callers may poll as often as they like without
///   silently spending their confidence budget.
/// * [`global_verdict`](StreamService::global_verdict) — merges every
///   stream's window sketch into one collision sketch (the mergeable
///   decomposition at coordinator scale) and reads the pooled verdict.
#[derive(Debug)]
pub struct StreamService {
    cfg: StreamConfig,
    shards: Vec<Shard>,
    looks: usize,
    pushes: u64,
}

impl StreamService {
    /// Creates an empty service.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] if any of `domain`,
    /// `window`, `shards`, or `reject_threshold` is zero, or ε is not
    /// in `(0, 1]`.
    pub fn new(cfg: StreamConfig) -> Result<Self, StreamError> {
        fn invalid(name: &'static str, value: f64, expected: &'static str) -> StreamError {
            StreamError::InvalidConfig {
                name,
                value,
                expected,
            }
        }
        if cfg.domain == 0 {
            return Err(invalid("domain", 0.0, "domain >= 1"));
        }
        if !(cfg.epsilon > 0.0 && cfg.epsilon <= 1.0) {
            return Err(invalid("epsilon", cfg.epsilon, "0 < epsilon <= 1"));
        }
        if cfg.window == 0 {
            return Err(invalid("window", 0.0, "window >= 1"));
        }
        if cfg.shards == 0 {
            return Err(invalid("shards", 0.0, "shards >= 1"));
        }
        if cfg.reject_threshold == 0 {
            return Err(invalid("reject_threshold", 0.0, "reject_threshold >= 1"));
        }
        let mut shards = Vec::with_capacity(cfg.shards);
        shards.resize_with(cfg.shards, Shard::default);
        Ok(StreamService {
            cfg,
            shards,
            looks: 0,
            pushes: 0,
        })
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// The shard that owns `label`: a pure function of
    /// `(base_seed, label)`, independent of arrival order and shard
    /// count changes elsewhere in the config.
    pub fn shard_of(&self, label: u64) -> usize {
        (derive_trial_seed(self.cfg.base_seed, label) % self.cfg.shards as u64) as usize
    }

    /// Total samples ingested across all streams.
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Number of distinct streams seen so far.
    pub fn stream_count(&self) -> usize {
        self.shards.iter().map(|s| s.streams.len()).sum()
    }

    /// Ingests one sample on stream `label`.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::OutOfDomain`] if `sample` is outside the
    /// configured domain; the service state is unchanged.
    pub fn ingest(&mut self, label: u64, sample: usize) -> Result<(), StreamError> {
        self.window(label, sample)?.push(sample);
        self.pushes += 1;
        Ok(())
    }

    /// The window of stream `label` that `sample` goes into, created on
    /// the stream's first sample.
    fn window(&mut self, label: u64, sample: usize) -> Result<&mut StreamState, StreamError> {
        if sample >= self.cfg.domain {
            return Err(StreamError::OutOfDomain {
                sample,
                domain: self.cfg.domain,
            });
        }
        let shard = self.shard_of(label);
        let cfg = self.cfg;
        Ok(self.shards[shard].streams.entry(label).or_insert_with(|| {
            SlidingWindow::new(cfg.window, CollisionSketch::new(cfg.domain, cfg.epsilon))
        }))
    }

    /// [`ingest`](Self::ingest) with `stream.*` metrics recorded to
    /// `sink`: the push, a new stream, and the evictions this push
    /// caused (never those of earlier unobserved ingests). Sinks never
    /// touch sketch state, so an observed ingest is bit-identical to
    /// the plain one.
    pub fn ingest_observed(
        &mut self,
        label: u64,
        sample: usize,
        sink: &mut dyn Sink,
    ) -> Result<(), StreamError> {
        if !sink.enabled() {
            return self.ingest(label, sample);
        }
        let window = self.window(label, sample)?;
        // Windows only shrink by evicting from a full window, so an
        // empty one was created for this sample.
        let new = window.is_empty();
        let before = window.evictions();
        window.push(sample);
        let evicted = window.evictions() - before;
        self.pushes += 1;
        sink.add(keys::STREAM_PUSHES, 1);
        if new {
            sink.add(keys::STREAM_STREAMS, 1);
        }
        if evicted > 0 {
            sink.add(keys::STREAM_WINDOW_EVICTIONS, evicted);
        }
        Ok(())
    }

    /// The coordinator's anytime threshold-rule verdict.
    ///
    /// Streams whose window verdict is decidable (≥ 2 samples) each
    /// cast one vote; the verdict is `Far` iff at least
    /// `reject_threshold` votes reject, `Pending` while no stream has
    /// voted. Each call advances the look counter of the union-bound
    /// Wilson schedule; `certified` reports whether the vote-rate
    /// interval at this look clears `reject_threshold / votes`.
    pub fn verdict(&mut self) -> Anytime<Verdict> {
        self.verdict_with_votes().0
    }

    /// [`verdict`](Self::verdict) and the rejecting-vote count it was
    /// read from, from one tally.
    fn verdict_with_votes(&mut self) -> (Anytime<Verdict>, usize) {
        let (votes, rejecting) = self.tally();
        let look = self.looks;
        self.looks += 1;
        if votes == 0 {
            let pending = Anytime::at_look(Verdict::Pending, self.pushes, look, false);
            return (pending, rejecting);
        }
        let value = if rejecting >= self.cfg.reject_threshold {
            Verdict::Far
        } else {
            Verdict::Uniform
        };
        let est = ErrorEstimate::from_counts(votes, rejecting, sequence_z(look));
        let frac = self.cfg.reject_threshold as f64 / votes as f64;
        let certified = match value {
            Verdict::Far => est.certified_above(frac) || rejecting == votes,
            Verdict::Uniform => est.certified_below(frac),
            Verdict::Pending => false,
        };
        let verdict = Anytime::at_look(value, self.pushes, look, certified);
        (verdict, rejecting)
    }

    /// [`verdict`](Self::verdict) with `stream.*` metrics recorded to
    /// `sink`.
    pub fn verdict_observed(&mut self, sink: &mut dyn Sink) -> Anytime<Verdict> {
        let (result, rejecting) = self.verdict_with_votes();
        if sink.enabled() {
            sink.add(keys::STREAM_COORDINATOR_LOOKS, 1);
            sink.add(keys::STREAM_COORDINATOR_REJECTING_VOTES, rejecting as u64);
        }
        result
    }

    /// Counts (decided votes, rejecting votes) over every stream in
    /// deterministic (shard, label) order. Integer sums, so the result
    /// is independent of the iteration order — and of the shard count.
    fn tally(&self) -> (usize, usize) {
        let mut votes = 0usize;
        let mut rejecting = 0usize;
        for shard in &self.shards {
            for window in shard.streams.values() {
                match window.verdict().value {
                    Verdict::Far => {
                        votes += 1;
                        rejecting += 1;
                    }
                    Verdict::Uniform => votes += 1,
                    Verdict::Pending => {}
                }
            }
        }
        (votes, rejecting)
    }

    /// Merges every stream's window sketch into one pooled
    /// [`CollisionSketch`], folding shards in index order and streams
    /// in label order. Sketch merging is exact integer arithmetic, so
    /// the result is identical at any shard count.
    pub fn merged_sketch(&self) -> CollisionSketch {
        let mut pooled = CollisionSketch::new(self.cfg.domain, self.cfg.epsilon);
        for shard in &self.shards {
            for window in shard.streams.values() {
                pooled.merge(window.sketch());
            }
        }
        pooled
    }

    /// The pooled verdict: the collision tester over the union of every
    /// stream's current window contents.
    pub fn global_verdict(&self) -> Anytime<Verdict> {
        self.merged_sketch().verdict()
    }

    /// [`global_verdict`](Self::global_verdict) with the coordinator
    /// merge count recorded to `sink`.
    pub fn global_verdict_observed(&mut self, sink: &mut dyn Sink) -> Anytime<Verdict> {
        if sink.enabled() {
            let merges = self.stream_count() as u64;
            sink.add(keys::STREAM_COORDINATOR_MERGES, merges);
        }
        self.global_verdict()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dut_obs::{MemorySink, NoopSink};

    fn cfg(shards: usize) -> StreamConfig {
        StreamConfig {
            domain: 64,
            epsilon: 1.0,
            window: 32,
            shards,
            reject_threshold: 2,
            base_seed: 7,
        }
    }

    #[test]
    fn config_validation_is_typed() {
        let mut bad = cfg(1);
        bad.shards = 0;
        assert!(matches!(
            StreamService::new(bad),
            Err(StreamError::InvalidConfig { name: "shards", .. })
        ));
        let mut bad = cfg(1);
        bad.epsilon = 0.0;
        assert!(StreamService::new(bad).is_err());
    }

    #[test]
    fn out_of_domain_sample_is_a_typed_error() {
        let mut svc = StreamService::new(cfg(2)).unwrap();
        let err = svc.ingest(1, 64).unwrap_err();
        assert_eq!(
            err,
            StreamError::OutOfDomain {
                sample: 64,
                domain: 64
            }
        );
        assert_eq!(svc.pushes(), 0);
    }

    #[test]
    fn shard_placement_is_stateless() {
        let svc = StreamService::new(cfg(4)).unwrap();
        for label in 0..100 {
            assert_eq!(svc.shard_of(label), svc.shard_of(label));
            assert!(svc.shard_of(label) < 4);
        }
    }

    #[test]
    fn verdicts_are_shard_count_invariant() {
        // Mixed traffic: even streams uniform-ish, odd streams constant.
        let feed = |svc: &mut StreamService| {
            for i in 0..600u64 {
                let label = i % 6;
                let sample = if label % 2 == 0 {
                    ((i * 37 + 11) % 64) as usize
                } else {
                    5
                };
                svc.ingest(label, sample).unwrap();
            }
        };
        let mut one = StreamService::new(cfg(1)).unwrap();
        let mut many = StreamService::new(cfg(5)).unwrap();
        feed(&mut one);
        feed(&mut many);
        assert_eq!(one.verdict(), many.verdict());
        assert_eq!(one.global_verdict(), many.global_verdict());
        assert_eq!(one.merged_sketch().pairs(), many.merged_sketch().pairs());
    }

    #[test]
    fn threshold_rule_fires_on_enough_rejecting_streams() {
        let mut svc = StreamService::new(cfg(3)).unwrap();
        // Three constant streams: each window fills with one symbol.
        for label in 0..3u64 {
            for _ in 0..32 {
                svc.ingest(label, label as usize).unwrap();
            }
        }
        let v = svc.verdict();
        assert_eq!(v.value, Verdict::Far);
        assert_eq!(v.look, 0);
        // The look counter advances per call.
        assert_eq!(svc.verdict().look, 1);
    }

    #[test]
    fn observed_paths_record_and_do_not_perturb() {
        let mut plain = StreamService::new(cfg(2)).unwrap();
        let mut observed = StreamService::new(cfg(2)).unwrap();
        let mut sink = MemorySink::new();
        let mut noop = NoopSink;
        for i in 0..200u64 {
            let label = i % 4;
            let sample = ((i * 13 + 1) % 64) as usize;
            plain.ingest_observed(label, sample, &mut noop).unwrap();
            observed.ingest_observed(label, sample, &mut sink).unwrap();
        }
        assert_eq!(plain.verdict(), observed.verdict_observed(&mut sink));
        assert_eq!(sink.counter(keys::STREAM_PUSHES), 200);
        assert_eq!(sink.counter(keys::STREAM_STREAMS), 4);
        // 4 streams x 50 samples into 32-capacity windows -> evictions.
        assert_eq!(sink.counter(keys::STREAM_WINDOW_EVICTIONS), 4 * 18);
        assert_eq!(sink.counter(keys::STREAM_COORDINATOR_LOOKS), 1);
        observed.global_verdict_observed(&mut sink);
        assert_eq!(sink.counter(keys::STREAM_COORDINATOR_MERGES), 4);
    }

    #[test]
    fn observed_ingest_bills_only_its_own_evictions() {
        // An unobserved warm-up fills and overflows stream 0's window;
        // the observed pushes that follow must not inherit its
        // evictions.
        let mut svc = StreamService::new(cfg(2)).unwrap();
        for i in 0..40u64 {
            svc.ingest(0, (i % 64) as usize).unwrap();
        }
        let mut sink = MemorySink::new();
        for i in 0..10u64 {
            // Stream 0 is full: each push evicts one sample. Stream 1
            // is new and holds 5 samples: no evictions.
            svc.ingest_observed(i % 2, (i % 64) as usize, &mut sink)
                .unwrap();
        }
        assert_eq!(sink.counter(keys::STREAM_PUSHES), 10);
        assert_eq!(sink.counter(keys::STREAM_STREAMS), 1);
        assert_eq!(sink.counter(keys::STREAM_WINDOW_EVICTIONS), 5);
        // Unobserved pushes in between are not billed to later
        // observed ones either.
        for i in 0..7u64 {
            svc.ingest(0, (i % 64) as usize).unwrap();
        }
        svc.ingest_observed(1, 3, &mut sink).unwrap();
        assert_eq!(sink.counter(keys::STREAM_WINDOW_EVICTIONS), 5);
    }
}
