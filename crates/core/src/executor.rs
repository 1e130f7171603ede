//! The deterministic parallel Monte-Carlo executor.
//!
//! Every estimate in this repository — each cell of an experiment
//! grid, each differential fuzz budget — is a loop of independent
//! boolean trials. This module runs those loops in parallel while
//! keeping the result **bit-identical at any thread count**:
//!
//! * **Stateless per-trial seeding.** Trial `i`'s RNG seed is
//!   [`derive_trial_seed`]`(base_seed, i)` — a splitmix64 finalizer
//!   over the trial *index*, the same counter-stream trick the fault
//!   substrate uses — so a trial's randomness depends only on
//!   `(base_seed, i)`, never on which worker ran it or what ran
//!   before it.
//! * **Fixed chunk geometry.** Trials are partitioned into contiguous
//!   chunks whose size is a pure function of the trial count (or an
//!   explicit [`MonteCarloConfig::chunk_size`]) — never of the thread
//!   count; [`auto_chunk_size`] goes down to one trial per chunk, so a
//!   few costly trials still occupy every worker. Workers claim whole
//!   chunks from an atomic counter (work-stealing: a fast worker simply
//!   claims more chunks).
//! * **Order-independent reduction.** Each chunk produces a failure
//!   count and (for observed runs) a private [`MemorySink`]. Failure
//!   counts add and sinks merge element-wise — both commutative and
//!   associative over integers — and the final reduction walks chunks
//!   in index order, so the totals are identical whether the run used
//!   1 thread or 64, chunk size 16 or 1024.
//! * **Per-worker state.** `init()` runs once per worker; trials reuse
//!   that worker's scratch buffers (`TesterScratch` and friends), so
//!   the per-trial hot path allocates nothing.
//!
//! Chunks are also the unit of checkpointing: with a
//! [`crate::checkpoint::Checkpoint`] attached, each completed chunk is
//! appended (and flushed) to a JSONL file, and a rerun skips every
//! recorded chunk — the final estimate is bit-identical to an
//! uninterrupted run because chunk geometry and seeds don't depend on
//! who computed a chunk.
//!
//! The ergonomic entry points live in [`crate::montecarlo`]
//! ([`crate::montecarlo::MonteCarlo`] and the free `estimate_*`
//! functions); this module holds the engine and its configuration.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use dut_obs::{MemorySink, NoopSink, Sink};

use crate::checkpoint::{Checkpoint, CheckpointError, ChunkRecord, Plan, PlanStop};

/// Largest chunk the automatic policy picks. 1024 trials per chunk
/// keeps checkpoint files small (≤ ~400 lines for a 400k-trial cell)
/// while leaving chunk-claim contention negligible.
pub const MAX_AUTO_CHUNK: usize = 1024;

/// Process-wide default worker count; 0 means "ask the OS".
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker count used by configs with `threads == 0`
/// (the `--threads` flag of the experiments binary lands here).
/// Passing 0 restores the OS-reported parallelism. Thread count never
/// affects results — only wall-clock time.
pub fn set_default_threads(threads: usize) {
    DEFAULT_THREADS.store(threads, Ordering::Relaxed);
}

/// The worker count an auto-threaded config resolves to: the
/// [`set_default_threads`] override if set, else the OS-reported
/// available parallelism.
pub fn default_threads() -> usize {
    match DEFAULT_THREADS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// The chunk size the automatic policy picks for `trials`: about 64
/// chunks per run, clamped to `[1, `[`MAX_AUTO_CHUNK`]`]`, so a 4-trial
/// estimate is 4 chunks that spread across every worker. A pure
/// function of `trials` — deliberately independent of thread count — so
/// chunk geometry (and therefore checkpoint layout) is reproducible.
pub fn auto_chunk_size(trials: usize) -> usize {
    (trials / 64).clamp(1, MAX_AUTO_CHUNK)
}

/// The α the adaptive confidence sequence spends across its looks: the
/// whole sequence of stop decisions is simultaneously valid at level
/// `1 − ADAPTIVE_ALPHA` (α is peeled as `α/((k+1)(k+2))` over looks
/// `k = 0, 1, ..` — the peelings sum to exactly α).
pub const ADAPTIVE_ALPHA: f64 = 1e-3;

/// The z-score the adaptive confidence sequence uses at its `look`-th
/// chunk boundary (0-indexed): `sqrt(2·ln((k+1)(k+2)/α))` with
/// α = [`ADAPTIVE_ALPHA`], the subgaussian quantile bound for the
/// peeled level `α/((k+1)(k+2))`. Monotonically widening in `k`, which
/// is what makes every look simultaneously valid — an interval that
/// cleared a threshold stays cleared in expectation, and the union
/// bound over looks is exactly α.
pub fn sequence_z(look: usize) -> f64 {
    let k = look as f64;
    (2.0 * ((k + 1.0) * (k + 2.0) / ADAPTIVE_ALPHA).ln()).sqrt()
}

/// When a Monte-Carlo run stops.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum StopRule {
    /// Run every trial of the budget (the historical behavior; the
    /// estimate is bit-identical to pre-adaptive builds).
    #[default]
    FixedBudget,
    /// Stop at the first chunk boundary (in chunk-index order) where
    /// the always-valid confidence sequence either shrinks below
    /// `tolerance` or clears `threshold` entirely (interval wholly
    /// below or wholly above it). Decisions are made on the contiguous
    /// chunk prefix only, so any thread count — and a kill/resume
    /// through the checkpoint — agrees on the stopping chunk.
    Adaptive {
        /// Stop once `upper − lower ≤ tolerance`.
        tolerance: f64,
        /// Stop once the interval no longer straddles this value
        /// (`None` disables threshold-clearing stops).
        threshold: Option<f64>,
    },
}

impl From<StopRule> for PlanStop {
    fn from(stop: StopRule) -> PlanStop {
        match stop {
            StopRule::FixedBudget => PlanStop::FixedBudget,
            StopRule::Adaptive {
                tolerance,
                threshold,
            } => PlanStop::Adaptive {
                tolerance_bits: tolerance.to_bits(),
                threshold_bits: threshold.map(f64::to_bits),
            },
        }
    }
}

/// How a Monte-Carlo run executes. The thread and chunk knobs **never**
/// change what it computes; the [`StopRule`] is the one semantic field
/// (an adaptive run may spend fewer trials), and it is itself
/// deterministic — the same `(trials, base_seed, stop)` stops at the
/// same trial at any thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MonteCarloConfig {
    /// Worker threads; 0 = [`default_threads`].
    pub threads: usize,
    /// Trials per chunk; 0 = [`auto_chunk_size`].
    pub chunk_size: usize,
    /// When the run stops (fixed budget by default).
    pub stop: StopRule,
}

impl MonteCarloConfig {
    /// Auto threads, auto chunk size — what the free
    /// `estimate_failure_rate*` functions use.
    pub fn auto() -> Self {
        MonteCarloConfig::default()
    }

    /// Single-threaded execution (the serial side of the
    /// serial-vs-parallel differential tests).
    pub fn serial() -> Self {
        MonteCarloConfig {
            threads: 1,
            ..MonteCarloConfig::default()
        }
    }

    /// Exactly `threads` workers (0 = auto).
    pub fn with_threads(threads: usize) -> Self {
        MonteCarloConfig {
            threads,
            ..MonteCarloConfig::default()
        }
    }

    /// Auto threads and chunks with confidence-sequence early stopping:
    /// the run halts at the first chunk boundary where the always-valid
    /// interval is narrower than `tolerance` (see
    /// [`StopRule::Adaptive`]; add a decision threshold with
    /// [`MonteCarloConfig::stop_threshold`] to stop as soon as the
    /// interval clears it).
    ///
    /// # Panics
    ///
    /// Panics unless `tolerance` is finite and positive.
    pub fn adaptive(tolerance: f64) -> Self {
        assert!(
            tolerance.is_finite() && tolerance > 0.0,
            "adaptive tolerance must be a positive finite width"
        );
        MonteCarloConfig {
            stop: StopRule::Adaptive {
                tolerance,
                threshold: None,
            },
            ..MonteCarloConfig::default()
        }
    }

    /// Sets the decision threshold of an adaptive config: the run stops
    /// as soon as the confidence sequence lies entirely below or
    /// entirely above `threshold` (the comparison the caller's verdict
    /// makes is then already decided).
    ///
    /// # Panics
    ///
    /// Panics on a fixed-budget config — a threshold without an
    /// adaptive stop rule would be silently ignored.
    pub fn stop_threshold(mut self, threshold: f64) -> Self {
        match &mut self.stop {
            StopRule::Adaptive { threshold: t, .. } => *t = Some(threshold),
            StopRule::FixedBudget => {
                panic!("stop_threshold requires MonteCarloConfig::adaptive")
            }
        }
        self
    }

    /// Whether this config stops adaptively.
    pub fn is_adaptive(&self) -> bool {
        matches!(self.stop, StopRule::Adaptive { .. })
    }

    /// Sets the chunk size (0 = auto). Affects checkpoint granularity
    /// and scheduling only, never results — but a checkpoint records
    /// its chunk size, so resuming must use the same value.
    pub fn chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size;
        self
    }

    /// The worker count this config resolves to right now.
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            default_threads()
        } else {
            self.threads
        }
        .max(1)
    }

    /// The chunk size this config resolves to for a `trials`-sized run.
    pub fn resolved_chunk_size(&self, trials: usize) -> usize {
        if self.chunk_size == 0 {
            auto_chunk_size(trials)
        } else {
            self.chunk_size.min(trials.max(1))
        }
    }
}

/// What one chunk produced (or was restored with).
#[derive(Debug)]
struct ChunkOut {
    failures: usize,
    sink: Option<MemorySink>,
}

/// The chunk-ordered reduction of a whole run.
#[derive(Debug)]
pub(crate) struct Reduction {
    /// Trials actually counted (the full budget for fixed-budget runs;
    /// the stopping prefix for adaptive runs).
    pub trials: usize,
    /// Failed trials among the counted ones.
    pub failures: usize,
    /// Number of chunks the counted trials span (`stop chunk + 1` for
    /// adaptive runs) — the number of confidence-sequence looks taken.
    pub chunks_counted: usize,
    /// Merge of every counted chunk's sink, in chunk-index order
    /// (empty for unobserved runs).
    pub sink: MemorySink,
}

/// The contiguous-prefix scanner behind adaptive stopping: as chunk
/// results land (in any order), the holder of the mutex advances
/// through them **in chunk-index order**, accumulating counts and
/// evaluating the stop rule at each boundary. Because the looks are a
/// pure function of the ordered prefix — never of which worker, which
/// thread count, or which resumed run produced a chunk — every
/// execution stops at the same chunk.
#[derive(Debug)]
struct PrefixScan {
    /// Next chunk index the scanner is waiting on.
    next: usize,
    /// Trials accumulated over chunks `0..next`.
    trials: usize,
    /// Failures accumulated over chunks `0..next`.
    failures: usize,
    /// Set once a stop decision was made (the scanner never advances
    /// past its stopping boundary, so the triggering counts are final).
    done: bool,
}

/// Evaluates the stop rule at the `boundary`-th look (0-indexed chunk
/// boundary) given the prefix counts.
fn should_stop(stop: StopRule, boundary: usize, trials: usize, failures: usize) -> bool {
    let StopRule::Adaptive {
        tolerance,
        threshold,
    } = stop
    else {
        return false;
    };
    let est = crate::montecarlo::ErrorEstimate::from_counts(trials, failures, sequence_z(boundary));
    est.upper - est.lower <= tolerance || threshold.is_some_and(|t| est.upper < t || est.lower > t)
}

/// Advances the prefix scanner over every landed chunk and records a
/// stop decision into `stop_chunk` (a `fetch_min`, so the first
/// decision wins; there is only ever one because `done` latches).
fn advance_prefix(
    prefix: &Mutex<PrefixScan>,
    results: &[OnceLock<ChunkOut>],
    stop: StopRule,
    chunk_size: usize,
    total_trials: usize,
    stop_chunk: &AtomicUsize,
) {
    let mut p = prefix.lock().unwrap_or_else(|e| e.into_inner());
    if p.done {
        return;
    }
    while p.next < results.len() {
        let Some(out) = results[p.next].get() else {
            break;
        };
        let start = p.next * chunk_size;
        p.trials += chunk_size.min(total_trials - start);
        p.failures += out.failures;
        if should_stop(stop, p.next, p.trials, p.failures) {
            stop_chunk.fetch_min(p.next, Ordering::Relaxed);
            p.done = true;
            return;
        }
        p.next += 1;
    }
}

/// Runs `trials` boolean trials chunk-parallel and reduces them
/// deterministically. `trial(seed, state, sink)` returns `true` iff
/// the trial **failed**; `init()` runs once per worker. With
/// `observe`, each chunk records into a private [`MemorySink`];
/// without, trials see a [`NoopSink`] (`enabled() == false`) and the
/// reduction's sink stays empty.
///
/// Panics in `init`/`trial` re-raise their original payload on the
/// caller. Checkpoint failures surface as `Err` and stop the run early.
pub(crate) fn run_chunked<S, I, F>(
    cfg: MonteCarloConfig,
    trials: usize,
    base_seed: u64,
    observe: bool,
    checkpoint: Option<(&mut Checkpoint, &str)>,
    init: I,
    trial: F,
) -> Result<Reduction, CheckpointError>
where
    I: Fn() -> S + Sync,
    F: Fn(u64, &mut S, &mut dyn Sink) -> bool + Sync,
{
    assert!(trials > 0, "callers guard trials == 0");
    let chunk_size = cfg.resolved_chunk_size(trials);
    let chunk_count = trials.div_ceil(chunk_size);
    let results: Vec<OnceLock<ChunkOut>> = (0..chunk_count).map(|_| OnceLock::new()).collect();

    let ck = match checkpoint {
        Some((ck, label)) => {
            let plan = Plan {
                trials,
                chunk_size,
                base_seed,
                observed: observe,
                stop: cfg.stop.into(),
            };
            for (chunk, ChunkRecord { failures, sink }) in ck.begin(label, plan)? {
                let out = ChunkOut {
                    failures,
                    sink: observe.then_some(sink),
                };
                results[chunk].set(out).expect("chunks are recorded once");
            }
            Some((Mutex::new(ck), label))
        }
        None => None,
    };

    // Adaptive stopping state. `stop_chunk` is the boundary the
    // confidence sequence stopped at (usize::MAX = never); the prefix
    // scanner re-derives the same boundary from checkpoint-restored
    // chunks, so a kill/resume agrees with an uninterrupted run even
    // when speculative chunks beyond the stop landed in the file.
    let adaptive = matches!(cfg.stop, StopRule::Adaptive { .. });
    let stop_chunk = AtomicUsize::new(usize::MAX);
    let prefix = Mutex::new(PrefixScan {
        next: 0,
        trials: 0,
        failures: 0,
        done: false,
    });
    if adaptive {
        // Scan whatever the checkpoint restored before starting work —
        // a fully recorded run must stop without recomputing anything.
        advance_prefix(&prefix, &results, cfg.stop, chunk_size, trials, &stop_chunk);
    }

    let threads = cfg.resolved_threads().min(chunk_count);
    let next = AtomicUsize::new(0);
    // First trial-panic payload, carried across the scope join so the
    // caller sees the trial's own panic, not the scope's generic one.
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let ck_failure: Mutex<Option<CheckpointError>> = Mutex::new(None);
    let (results_ref, init_ref, trial_ref, ck_ref) = (&results, &init, &trial, &ck);
    let (prefix_ref, stop_ref) = (&prefix, &stop_chunk);

    let scope_result = crossbeam::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| {
                // `init` and `trial` run under `catch_unwind` so a
                // panicking closure stops this worker cleanly; the
                // payload is stashed instead of unwinding through the
                // scope (which would replace it with "a scoped thread
                // panicked").
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    let mut state = init_ref();
                    loop {
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        if c >= chunk_count {
                            break;
                        }
                        if c > stop_ref.load(Ordering::Relaxed) {
                            continue; // past an adaptive stop decision
                        }
                        if results_ref[c].get().is_some() {
                            continue; // restored from the checkpoint
                        }
                        let start = c * chunk_size;
                        let len = chunk_size.min(trials - start);
                        let mut failures = 0usize;
                        let mut mem = observe.then(MemorySink::new);
                        let mut noop = NoopSink;
                        for i in start..start + len {
                            let seed = derive_trial_seed(base_seed, i as u64);
                            let sink: &mut dyn Sink = match mem.as_mut() {
                                Some(m) => m,
                                None => &mut noop,
                            };
                            if trial_ref(seed, &mut state, sink) {
                                failures += 1;
                            }
                        }
                        if let Some((ck, label)) = ck_ref {
                            let empty = MemorySink::new();
                            let chunk_sink = mem.as_ref().unwrap_or(&empty);
                            let appended = ck
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .append_chunk(label, c, start, len, failures, chunk_sink);
                            if let Err(e) = appended {
                                // Stop the other workers early; the
                                // run fails with the typed error.
                                next.fetch_add(chunk_count, Ordering::Relaxed);
                                let mut slot = ck_failure.lock().unwrap_or_else(|e| e.into_inner());
                                if slot.is_none() {
                                    *slot = Some(e);
                                }
                                break;
                            }
                        }
                        let out = ChunkOut {
                            failures,
                            sink: mem,
                        };
                        results_ref[c].set(out).expect("each chunk is claimed once");
                        if adaptive {
                            // Advance the in-order scanner past every
                            // landed chunk; it may decide to stop here.
                            advance_prefix(
                                prefix_ref,
                                results_ref,
                                cfg.stop,
                                chunk_size,
                                trials,
                                stop_ref,
                            );
                        }
                    }
                }));
                if let Err(payload) = caught {
                    // Stop the other workers early; the estimate is
                    // void anyway.
                    next.fetch_add(chunk_count, Ordering::Relaxed);
                    let mut slot = panic_payload.lock().unwrap_or_else(|e| e.into_inner());
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
            });
        }
    });
    // Workers catch their own panics, so the scope itself cannot fail.
    let () = scope_result.expect("worker panics are caught inside the workers");
    if let Some(payload) = panic_payload
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
    {
        resume_unwind(payload);
    }
    if let Some(e) = ck_failure.into_inner().unwrap_or_else(|e| e.into_inner()) {
        return Err(e);
    }

    // Chunk-ordered reduction over the counted prefix: every chunk for
    // a fixed-budget run, chunks `0..=stop` for an adaptively stopped
    // one (workers may have computed speculative chunks beyond the
    // stop while the decision was being made; those are discarded, so
    // the counted prefix is identical at any thread count). Counter
    // addition and histogram merges are commutative, so this equals
    // any other order — walking the index order just makes the
    // determinism obvious.
    let chunks_counted = match stop_chunk.load(Ordering::Relaxed) {
        usize::MAX => chunk_count,
        stop => stop + 1,
    };
    let mut counted_trials = 0usize;
    let mut failures = 0usize;
    let mut sink = MemorySink::new();
    for (c, slot) in results.iter().enumerate().take(chunks_counted) {
        let out = slot.get().expect("all counted chunks completed");
        counted_trials += chunk_size.min(trials - c * chunk_size);
        failures += out.failures;
        if let Some(mem) = &out.sink {
            sink.merge(mem);
        }
    }
    Ok(Reduction {
        trials: counted_trials,
        failures,
        chunks_counted,
        sink,
    })
}

/// The seed trial `i` runs under: a splitmix64 finalizer over the
/// trial index mixed into `base_seed`, so nearby trials get unrelated
/// RNG streams and a trial's randomness is a pure function of
/// `(base_seed, index)` — the property that makes parallel, resumed,
/// and serial runs bit-identical.
pub fn derive_trial_seed(base_seed: u64, index: u64) -> u64 {
    splitmix64(base_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_chunks_are_a_pure_function_of_trials() {
        assert_eq!(auto_chunk_size(1), 1);
        assert_eq!(auto_chunk_size(10), 1);
        assert_eq!(auto_chunk_size(40), 1);
        assert_eq!(auto_chunk_size(20_000), 312);
        assert_eq!(auto_chunk_size(400_000), MAX_AUTO_CHUNK);
    }

    #[test]
    fn resolved_chunk_size_clamps_to_trials() {
        let cfg = MonteCarloConfig::auto().chunk_size(1 << 20);
        assert_eq!(cfg.resolved_chunk_size(100), 100);
        assert_eq!(MonteCarloConfig::auto().resolved_chunk_size(5), 1);
    }

    #[test]
    fn default_threads_override_round_trips() {
        // Serial configs ignore the override entirely.
        assert_eq!(MonteCarloConfig::serial().resolved_threads(), 1);
        set_default_threads(3);
        assert_eq!(default_threads(), 3);
        assert_eq!(MonteCarloConfig::auto().resolved_threads(), 3);
        set_default_threads(0);
        assert!(default_threads() >= 1);
    }

    #[test]
    fn trial_seeds_are_stateless_and_distinct() {
        let a: Vec<u64> = (0..64).map(|i| derive_trial_seed(7, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| derive_trial_seed(7, i)).collect();
        assert_eq!(a, b);
        let mut seen = std::collections::BTreeSet::new();
        for s in a {
            assert!(seen.insert(s), "seed collision");
        }
    }

    #[test]
    fn resumed_chunks_are_skipped_not_recomputed() {
        let dir = std::env::temp_dir().join("dut_core_executor_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("skip.jsonl");
        let _ = std::fs::remove_file(&path);
        let trial = |seed: u64, (): &mut (), _sink: &mut dyn Sink| seed.is_multiple_of(3);
        let cfg = MonteCarloConfig::serial().chunk_size(50);

        let mut ck = Checkpoint::open(&path).unwrap();
        let full = run_chunked(cfg, 500, 9, false, Some((&mut ck, "cell")), || (), trial).unwrap();
        assert_eq!(ck.completed_chunks("cell"), 10);
        let lines_after_first = std::fs::read_to_string(&path).unwrap().lines().count();

        // Re-running against the same file restores every chunk and
        // appends nothing new.
        let again = run_chunked(cfg, 500, 9, false, Some((&mut ck, "cell")), || (), trial).unwrap();
        assert_eq!(again.failures, full.failures);
        let lines_after_second = std::fs::read_to_string(&path).unwrap().lines().count();
        assert_eq!(lines_after_first, lines_after_second);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sequence_z_widens_monotonically_from_above_fixed_z() {
        let zs: Vec<f64> = (0..12).map(sequence_z).collect();
        assert!(zs.windows(2).all(|w| w[0] < w[1]), "{zs:?}");
        // Even the first look is wider than the fixed-budget 1.96 —
        // the price of always-valid peeking.
        assert!(zs[0] > 1.96);
    }

    #[test]
    #[should_panic(expected = "requires MonteCarloConfig::adaptive")]
    fn stop_threshold_requires_adaptive() {
        let _ = MonteCarloConfig::auto().stop_threshold(0.5);
    }

    #[test]
    fn fixed_budget_counts_every_trial() {
        let trial = |seed: u64, (): &mut (), _sink: &mut dyn Sink| seed.is_multiple_of(7);
        let cfg = MonteCarloConfig::serial().chunk_size(64);
        let red = run_chunked(cfg, 1000, 13, false, None, || (), trial).unwrap();
        assert_eq!(red.trials, 1000);
        assert_eq!(red.chunks_counted, 1000usize.div_ceil(64));
    }

    #[test]
    fn adaptive_threshold_stops_at_the_first_clear_boundary() {
        // Zero failures: the very first look's interval sits far below
        // a 0.5 threshold, so exactly one chunk is spent.
        let trial = |_seed: u64, (): &mut (), _sink: &mut dyn Sink| false;
        let cfg = MonteCarloConfig::adaptive(1e-9)
            .stop_threshold(0.5)
            .chunk_size(100);
        let red = run_chunked(cfg, 10_000, 3, false, None, || (), trial).unwrap();
        assert_eq!(red.chunks_counted, 1);
        assert_eq!(red.trials, 100);
        assert_eq!(red.failures, 0);
    }

    #[test]
    fn adaptive_stop_is_thread_invariant() {
        let trial = |seed: u64, (): &mut (), _sink: &mut dyn Sink| seed.is_multiple_of(20);
        let mut outs = Vec::new();
        for threads in [1, 2, 8] {
            let cfg = MonteCarloConfig {
                threads,
                ..MonteCarloConfig::adaptive(0.05)
                    .stop_threshold(0.5)
                    .chunk_size(25)
            };
            let red = run_chunked(cfg, 10_000, 11, false, None, || (), trial).unwrap();
            outs.push((red.trials, red.failures, red.chunks_counted));
        }
        assert!(outs.windows(2).all(|w| w[0] == w[1]), "{outs:?}");
        assert!(outs[0].0 < 10_000, "should stop early: {outs:?}");
    }

    #[test]
    fn adaptive_without_a_stop_runs_the_full_budget() {
        // A tolerance far below what the budget can resolve, and no
        // threshold: the sequence never stops and the run degrades to
        // the fixed budget (with the wider final-look z applied by the
        // montecarlo layer, not here).
        let trial = |seed: u64, (): &mut (), _sink: &mut dyn Sink| seed.is_multiple_of(2);
        let cfg = MonteCarloConfig::adaptive(1e-12).chunk_size(50);
        let red = run_chunked(cfg, 500, 21, false, None, || (), trial).unwrap();
        assert_eq!(red.trials, 500);
        assert_eq!(red.chunks_counted, 10);
    }

    #[test]
    fn failure_counts_are_chunk_and_thread_invariant() {
        let trial = |seed: u64, (): &mut (), _sink: &mut dyn Sink| seed.is_multiple_of(5);
        let mut counts = Vec::new();
        for cfg in [
            MonteCarloConfig::serial(),
            MonteCarloConfig::with_threads(2).chunk_size(7),
            MonteCarloConfig::with_threads(8).chunk_size(101),
            MonteCarloConfig::auto(),
        ] {
            let red = run_chunked(cfg, 1000, 42, false, None, || (), trial).unwrap();
            counts.push(red.failures);
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }
}
