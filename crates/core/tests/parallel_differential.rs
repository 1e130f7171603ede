//! Serial ↔ parallel differential suite for the Monte-Carlo executor
//! over the real testers (CI's testkit lane).
//!
//! Each test runs one tester's trial closure through
//! `dut_testkit::parallel::config_spread()` — serial, 2 threads, and
//! 8 threads with a ragged chunk size — and asserts bit-identical
//! failure counts, Wilson intervals, and merged `dut-obs` metrics.
//! A final test kills a checkpointed run after a few chunks and
//! resumes it, asserting the stitched result equals the uninterrupted
//! one.

use dut_core::amplify::RepeatedGapTester;
use dut_core::asymmetric::{AsymmetricThresholdTester, CostVector};
use dut_core::decision::Decision;
use dut_core::gap::GapTester;
use dut_core::montecarlo::trial_rng;
use dut_core::zero_round::AndNetworkTester;
use dut_core::{Checkpoint, MonteCarlo, MonteCarloConfig, TesterScratch};
use dut_distributions::families::paninski_far;
use dut_distributions::DiscreteDistribution;
use dut_testkit::parallel::{assert_thread_invariant, assert_thread_invariant_observed};

const TRIALS: usize = 2_000;

#[test]
fn gap_tester_is_thread_invariant_observed() {
    let n = 1 << 12;
    let tester = GapTester::new(n, 0.05).expect("plannable");
    let far = paninski_far(n, 1.0).expect("valid family");
    let (est, sink) = assert_thread_invariant_observed(
        TRIALS,
        4242,
        TesterScratch::new,
        |seed, scratch, sink| {
            let mut rng = trial_rng(seed);
            tester.run_with_scratch_observed(&far, &mut rng, scratch, sink) == Decision::Reject
        },
    );
    // ε-far at ε=1 must reject often; and every trial must be metered.
    assert!(est.rate > 0.0, "far input never rejected: {est:?}");
    assert_eq!(sink.counter(dut_obs::keys::CORE_GAP_RUNS) as usize, TRIALS);
}

#[test]
fn amplified_tester_is_thread_invariant() {
    let n = 1 << 12;
    let tester =
        RepeatedGapTester::new(GapTester::new(n, 0.1).expect("plannable"), 3).expect("plannable");
    let uniform = DiscreteDistribution::uniform(n);
    let est = assert_thread_invariant(TRIALS, 77, TesterScratch::new, |seed, scratch| {
        let mut rng = trial_rng(seed);
        tester.run_with_scratch(&uniform, &mut rng, scratch) == Decision::Reject
    });
    // Amplification drives completeness error below the single-run δ.
    assert!(est.upper < 0.5, "uniform rejected too often: {est:?}");
}

#[test]
fn zero_round_and_network_is_thread_invariant_observed() {
    let n = 1 << 12;
    let tester = AndNetworkTester::plan(n, 64, 0.75, 1.0 / 3.0).expect("plannable");
    let uniform = DiscreteDistribution::uniform(n);
    let (_, sink) =
        assert_thread_invariant_observed(200, 1234, TesterScratch::new, |seed, scratch, sink| {
            let mut rng = trial_rng(seed);
            tester
                .run_with_scratch_observed(&uniform, &mut rng, scratch, sink)
                .decision
                == Decision::Reject
        });
    assert!(sink.counter(dut_obs::keys::CORE_ZERO_ROUND_RUNS) > 0);
}

/// Kill-and-resume round trip: run a checkpointed estimate to
/// completion, replay it from a prefix of the file (as if the process
/// died after k chunks), and require the resumed run — under a
/// *different* thread count — to reproduce the uninterrupted result
/// bit for bit, recomputing only the missing chunks.
#[test]
fn small_budget_spreads_across_workers_with_the_same_estimate() {
    // The `mc_estimate` asymmetric shape: 4 network trials. At 2
    // threads they are 4 one-trial chunks, so both workers get work,
    // and any chunking gives the serial estimate.
    let n = 1 << 16;
    let asym = AsymmetricThresholdTester::plan(n, &CostVector::uniform(1_000), 1.0, 1.0 / 3.0)
        .expect("plannable");
    let far = paninski_far(n, 1.0).expect("valid family");
    let two = MonteCarloConfig::with_threads(2);
    assert_eq!(4usize.div_ceil(two.resolved_chunk_size(4)), 4);
    let estimate = |cfg| {
        MonteCarlo::new(4, 99)
            .config(cfg)
            .run(|seed| asym.run(&far, &mut trial_rng(seed)).decision == Decision::Accept)
            .expect("no checkpoint")
    };
    let serial = estimate(MonteCarloConfig::serial());
    assert_eq!(estimate(two), serial);
    for chunk in [1, 2, 4] {
        assert_eq!(
            estimate(two.chunk_size(chunk)),
            serial,
            "chunk size {chunk}"
        );
    }
}

#[test]
fn checkpoint_kill_resume_round_trips() {
    let n = 1 << 12;
    let tester = GapTester::new(n, 0.05).expect("plannable");
    let far = paninski_far(n, 1.0).expect("valid family");
    let trial = |seed: u64, scratch: &mut TesterScratch| {
        let mut rng = trial_rng(seed);
        tester.run_with_scratch(&far, &mut rng, scratch) == Decision::Reject
    };
    let cfg = MonteCarloConfig::serial().chunk_size(100);

    let reference = MonteCarlo::new(TRIALS, 9)
        .config(cfg)
        .run_with_state(TesterScratch::new, trial)
        .expect("trials > 0");

    let dir = std::env::temp_dir().join(format!("dut-par-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("kill-resume.jsonl");
    let _ = std::fs::remove_file(&path);

    // First incarnation: full checkpointed run.
    let mut ck = Checkpoint::open(&path).unwrap();
    let full = MonteCarlo::new(TRIALS, 9)
        .config(cfg)
        .checkpoint(&mut ck, "kill/resume")
        .run_with_state(TesterScratch::new, trial)
        .expect("usable checkpoint");
    assert_eq!(full, reference, "checkpointing changed the estimate");
    drop(ck);

    // Simulate a kill after 5 chunks: keep the plan line + 5 chunk
    // lines, drop the rest.
    let text = std::fs::read_to_string(&path).unwrap();
    let prefix: Vec<&str> = text.lines().take(6).collect();
    std::fs::write(&path, format!("{}\n", prefix.join("\n"))).unwrap();

    // Second incarnation resumes under a different thread count.
    let mut ck = Checkpoint::open(&path).unwrap();
    assert_eq!(ck.completed_chunks("kill/resume"), 5);
    let resumed = MonteCarlo::new(TRIALS, 9)
        .config(MonteCarloConfig::with_threads(8).chunk_size(100))
        .checkpoint(&mut ck, "kill/resume")
        .run_with_state(TesterScratch::new, trial)
        .expect("usable checkpoint");
    assert_eq!(resumed, reference, "resume diverged from the clean run");
    assert_eq!(
        ck.completed_chunks("kill/resume"),
        TRIALS.div_ceil(100),
        "resume did not complete the remaining chunks"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The thread count is an execution detail, not part of a label's plan
/// identity: a checkpoint written under any `threads` setting must
/// resume under any other (8 → serial, 8 → 3, serial → 8) and stitch to
/// the bit-identical estimate. Only trials / chunk_size / seed /
/// observed / stop rule participate in plan matching.
#[test]
fn checkpoint_resume_accepts_any_thread_count() {
    let n = 1 << 12;
    let tester = GapTester::new(n, 0.05).expect("plannable");
    let far = paninski_far(n, 1.0).expect("valid family");
    let trial = |seed: u64, scratch: &mut TesterScratch| {
        let mut rng = trial_rng(seed);
        tester.run_with_scratch(&far, &mut rng, scratch) == Decision::Reject
    };
    let trials = 1_000;

    let reference = MonteCarlo::new(trials, 31)
        .config(MonteCarloConfig::serial().chunk_size(50))
        .run_with_state(TesterScratch::new, trial)
        .expect("trials > 0");

    let dir = std::env::temp_dir().join(format!("dut-threads-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("any-threads.jsonl");
    let _ = std::fs::remove_file(&path);

    // First incarnation runs on 8 threads; kill it after 3 chunks.
    let mut ck = Checkpoint::open(&path).unwrap();
    MonteCarlo::new(trials, 31)
        .config(MonteCarloConfig::with_threads(8).chunk_size(50))
        .checkpoint(&mut ck, "threads/any")
        .run_with_state(TesterScratch::new, trial)
        .expect("usable checkpoint");
    drop(ck);
    let text = std::fs::read_to_string(&path).unwrap();
    let prefix: Vec<&str> = text.lines().take(4).collect();
    std::fs::write(&path, format!("{}\n", prefix.join("\n"))).unwrap();

    // Resume serially, then (from another killed prefix) on 3 threads;
    // both must accept the plan and reproduce the reference estimate.
    for threads in [1usize, 3] {
        let mut ck = Checkpoint::open(&path).unwrap();
        assert_eq!(ck.completed_chunks("threads/any"), 3);
        let cfg = if threads == 1 {
            MonteCarloConfig::serial().chunk_size(50)
        } else {
            MonteCarloConfig::with_threads(threads).chunk_size(50)
        };
        let resumed = MonteCarlo::new(trials, 31)
            .config(cfg)
            .checkpoint(&mut ck, "threads/any")
            .run_with_state(TesterScratch::new, trial)
            .expect("a different thread count must not be a PlanMismatch");
        assert_eq!(
            resumed, reference,
            "resume under {threads} thread(s) diverged"
        );
        drop(ck);
        // Re-truncate for the next thread count.
        let text = std::fs::read_to_string(&path).unwrap();
        let prefix: Vec<&str> = text.lines().take(4).collect();
        std::fs::write(&path, format!("{}\n", prefix.join("\n"))).unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}
