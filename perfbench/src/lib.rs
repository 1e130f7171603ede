//! The tester-stack benchmark: four closed-loop workloads, six
//! end-to-end metrics each, and a traced pass that reports per-layer
//! metrics for the crates the workloads reach (`distributions`, `core`,
//! `netsim`, `congest`, `ecc`, `stream`).
//!
//! One run is `perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`. Inputs come from the seed; every op's outputs are
//! checked and folded into a digest. `--trace 0` reports the end-to-end
//! metrics of an untraced pass; `--trace 1` runs an untraced pass, then
//! a traced pass over the same ops on a fresh set-up, requires equal
//! digests, and reports the per-layer metrics. See `README.md`.

pub mod alloc;
mod calib;
mod stats;
mod trace;
mod workloads;

use calib::Calibrator;
use stats::{quantile, ratio, Digest};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;
use trace::Trace;
use workloads::{Check, Env, Workload};

/// Command-line usage.
pub const USAGE: &str = "usage: perfbench --workload <mc_estimate|congest_plain|congest_coded|\
stream_ingest> --seed <u64> --seconds <s> --trace <0|1> [--ops <n>] [--corrupt]";

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &[
    "mc_estimate",
    "congest_plain",
    "congest_coded",
    "stream_ingest",
];

/// End-to-end metrics (name, unit), reported by `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_frac", "ratio"),
    ("peak_heap_mb", "MiB"),
];

/// Per-layer metrics (name, unit), reported by `--trace 1` on every
/// workload; a layer a workload never reaches reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("distributions.draws", "count"),
    ("distributions.draw_ns", "ns"),
    ("distributions.collision_checks", "count"),
    ("distributions.collision_ns", "ns"),
    ("core.mc.trials", "count"),
    ("core.mc.idle_frac", "ratio"),
    ("core.asym.run_ms", "ms"),
    ("core.allocs_per_trial", "count"),
    ("netsim.rounds", "count"),
    ("netsim.messages", "count"),
    ("netsim.bits", "count"),
    ("netsim.round_us", "us"),
    ("netsim.ns_per_message", "ns"),
    ("netsim.fault.flipped_bits", "count"),
    ("netsim.fault.dropped_messages", "count"),
    ("netsim.reliable.retransmits", "count"),
    ("congest.run_ms", "ms"),
    ("congest.rounds", "count"),
    ("congest.packages", "count"),
    ("congest.conductance.run_ms", "ms"),
    ("congest.conductance.walk_rounds", "count"),
    ("congest.conductance.tokens", "count"),
    ("congest.robust.failures", "count"),
    ("ecc.encode_ns", "ns"),
    ("ecc.decode_clean_ns", "ns"),
    ("ecc.decode_corrupt_ns", "ns"),
    ("ecc.codewords", "count"),
    ("ecc.corrected_bits", "count"),
    ("ecc.decode_failures", "count"),
    ("ecc.share", "ratio"),
    ("stream.pushes", "count"),
    ("stream.ingest_ns", "ns"),
    ("stream.window.evictions", "count"),
    ("stream.verdict_us", "us"),
    ("stream.global_verdict_us", "us"),
    ("stream.coordinator.merges", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Set-up is timed in two batches, one before and one after the
/// untraced pass, each of at least `SETUP_REPS` repetitions and
/// `SETUP_MIN_S` seconds (at most `SETUP_MAX_REPS`); `setup_s` is the
/// median of both, so a set-up of a few milliseconds is measured many
/// times, at two moments of the run. Each repetition is scaled to the
/// reference host speed (see [`calib`]); `raw_s` gets the wall-clock
/// durations.
const SETUP_REPS: usize = 3;
const SETUP_MIN_S: f64 = 0.5;
const SETUP_MAX_REPS: usize = 500;

/// Runs one batch of timed set-ups, appending each duration to
/// `setup_s`, and returns the last workload built.
fn timed_setups<W: Workload>(
    env: &Env,
    setup_s: &mut Vec<f64>,
    raw_s: &mut Vec<f64>,
) -> Result<W, String> {
    let mut cal = Calibrator::start(Calibrator::capacity_for(SETUP_MIN_S));
    let (mut reps, mut spent) = (0, 0.0);
    let mut w = None;
    let mut timed = Vec::new();
    while reps < SETUP_REPS || (spent < SETUP_MIN_S && reps < SETUP_MAX_REPS) {
        drop(w.take());
        let interval = cal.tick();
        let t = Instant::now();
        w = Some(W::setup(env)?);
        let s = t.elapsed().as_secs_f64();
        timed.push((interval, s));
        spent += s;
        reps += 1;
    }
    cal.finish();
    for (interval, s) in timed {
        raw_s.push(s);
        setup_s.push(s * cal.scale(interval));
    }
    Ok(w.expect("SETUP_REPS > 0"))
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds of the untraced pass (a quarter of it in a traced run).
    pub seconds: f64,
    /// Whether to run the traced pass.
    pub trace: bool,
    /// Run exactly this many ops instead of `seconds` (self-test sizes).
    pub ops: Option<usize>,
    /// Corrupt op 0's output before the gate sees it (self-test).
    pub corrupt: bool,
}

impl Args {
    /// Parses `--flag value` pairs.
    ///
    /// # Errors
    ///
    /// A message naming the missing, unknown or malformed argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut it = args.into_iter();
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let (mut ops, mut corrupt) = (None, false);
        while let Some(flag) = it.next() {
            if flag == "--corrupt" {
                corrupt = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} {value}: expected {what}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a u64"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(bad("positive seconds"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    })
                }
                "--ops" => match value.parse::<usize>() {
                    Ok(n) if n > 0 => ops = Some(n),
                    _ => return Err(bad("a positive op count")),
                },
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let workload = workload.ok_or("missing --workload")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
            ops,
            corrupt,
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The outcome of one invocation.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every gate passed (per-op checks, run-level checks, digests).
    pub correct: bool,
    /// Ops attempted (both passes of a traced run).
    pub attempted: usize,
    /// Ops that failed their correctness check.
    pub failed: usize,
    /// End-to-end (untraced) or per-layer (traced) metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON result.
    pub lines: Vec<String>,
}

impl RunResult {
    /// The human-readable lines followed by the one-line JSON result.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        );
        out
    }
}

/// Runs the workload `args` names.
///
/// # Errors
///
/// A message when the workload's set-up is impossible on this input.
pub fn run(args: &Args) -> Result<RunResult, String> {
    let env = Env {
        seed: args.seed,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    match args.workload.as_str() {
        "mc_estimate" => run_workload::<workloads::mc::McEstimate>(args, &env),
        "congest_plain" => run_workload::<workloads::plain::CongestPlain>(args, &env),
        "congest_coded" => run_workload::<workloads::coded::CongestCoded>(args, &env),
        "stream_ingest" => run_workload::<workloads::stream::StreamIngest>(args, &env),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Ops a measured pass runs at least, so that at least ten of them lie
/// beyond the 90th percentile.
const MIN_OPS: usize = 100;

/// When a timed pass stops.
#[derive(Debug, Clone, Copy)]
enum Budget {
    /// At the first cycle boundary after this many seconds and at least
    /// this many ops (and at least one full cycle of the input mix).
    Seconds(f64, usize),
    /// After exactly this many ops.
    Ops(usize),
}

/// What one pass over the ops measured.
#[derive(Debug)]
struct Pass {
    ops: usize,
    /// Wall-clock op latencies.
    latencies_ms: Vec<f64>,
    /// The same, scaled to the reference host speed.
    scaled_ms: Vec<f64>,
    /// Wall-clock time of the pass, calibration left out.
    wall_s: f64,
    /// The same, scaled to the reference host speed.
    scaled_wall_s: f64,
    /// Median calibration kernel time, ms.
    kernel_ms: f64,
    peak_bytes: usize,
    digest: Digest,
    failed: usize,
    typed_errors: usize,
    violations: Vec<String>,
}

fn pass<W: Workload>(
    w: &mut W,
    budget: Budget,
    corrupt: bool,
    mut trace: Option<&mut Trace>,
) -> Pass {
    // One untraced warm-up op, outside the timed phase and the digest.
    let warm = Instant::now();
    let _ = w.op(0, None);
    let warm_s = warm.elapsed().as_secs_f64().max(1e-6);
    let capacity = match budget {
        Budget::Ops(n) => n,
        Budget::Seconds(s, min) => ((s / warm_s) * 4.0).min(4e6) as usize + 64 + min,
    };
    let mut latencies_ms = Vec::with_capacity(capacity);
    // Per op: its calibration interval and its time including the check.
    let mut intervals = Vec::with_capacity(capacity);
    let mut cycles_ms = Vec::with_capacity(capacity);
    let mut cal = Calibrator::start(Calibrator::capacity_for(match budget {
        Budget::Ops(n) => n as f64 * warm_s,
        Budget::Seconds(s, min) => s.max(min as f64 * warm_s),
    }));
    let mut digest = Digest::default();
    let (mut failed, mut typed_errors) = (0, 0);
    let mut violations = Vec::new();

    alloc::reset_peak();
    let start = Instant::now();
    let mut i = 0usize;
    loop {
        let done = match budget {
            Budget::Ops(n) => i >= n,
            Budget::Seconds(s, min) => {
                i >= W::CYCLE.max(min)
                    && i.is_multiple_of(W::CYCLE)
                    && start.elapsed().as_secs_f64() >= s
            }
        };
        if done {
            break;
        }
        let interval = cal.tick();
        let t0 = Instant::now();
        let mut out = match trace.as_deref_mut() {
            Some(t) => {
                t.set_op(i as u64);
                let id = t.enter("op");
                let out = w.op(i as u64, Some(&mut *t));
                t.exit(id);
                out
            }
            None => w.op(i as u64, None),
        };
        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if corrupt && i == 0 {
            W::corrupt(&mut out);
        }
        match w.record(&out, &mut digest) {
            Check::Ok => {}
            Check::TypedError => typed_errors += 1,
            Check::Failed(why) => {
                failed += 1;
                if violations.len() < 8 {
                    violations.push(format!("op {i}: {why}"));
                }
            }
        }
        cycles_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        intervals.push(interval);
        i += 1;
    }
    let wall_s = (start.elapsed() - cal.spent()).as_secs_f64();
    cal.finish();
    // The buffers were live before the timed phase began; leave the
    // benchmark's own bookkeeping out of the program's peak.
    let bookkeeping = (latencies_ms.capacity() + intervals.capacity() + cycles_ms.capacity())
        * std::mem::size_of::<f64>()
        + cal.heap_bytes();
    let peak_bytes = alloc::peak().saturating_sub(bookkeeping);
    let scales: Vec<f64> = intervals.iter().map(|&k| cal.scale(k)).collect();
    let scaled_ms = latencies_ms
        .iter()
        .zip(&scales)
        .map(|(l, s)| l * s)
        .collect();
    // The wall time, scaled by the op-time-weighted mean scale.
    let cycles: f64 = cycles_ms.iter().sum();
    let scaled_cycles: f64 = cycles_ms.iter().zip(&scales).map(|(c, s)| c * s).sum();
    let scaled_wall_s = wall_s * ratio(scaled_cycles, cycles);
    digest.words(&w.final_words());
    violations.extend(w.check_run());
    Pass {
        ops: i,
        latencies_ms,
        scaled_ms,
        wall_s,
        scaled_wall_s,
        kernel_ms: cal.median_ms(),
        peak_bytes,
        digest,
        failed,
        typed_errors,
        violations,
    }
}

fn run_workload<W: Workload>(args: &Args, env: &Env) -> Result<RunResult, String> {
    let mut lines = vec![provenance(args, env)];
    let (mut setup_s, mut raw_setup_s) = (Vec::new(), Vec::new());
    let mut w: W = timed_setups(env, &mut setup_s, &mut raw_setup_s)?;
    lines.push(format!("workload {}: {}", args.workload, w.describe()));

    let budget = match (args.ops, args.trace) {
        (Some(n), _) => Budget::Ops(n),
        (None, false) => Budget::Seconds(args.seconds, MIN_OPS),
        // The traced pass replays the untraced pass's ops and runs
        // slower (observed entry points, probes), so the untraced pass
        // of a traced run takes a quarter of the time. It reports no
        // percentiles, so it needs no minimum op count.
        (None, true) => Budget::Seconds(args.seconds / 4.0, 0),
    };
    let plain = pass(&mut w, budget, args.corrupt, None);
    drop(w);
    lines.push(format!(
        "untraced pass: {} ops in {:.3} s, digest {:016x}, {} failed, {} typed errors",
        plain.ops,
        plain.wall_s,
        plain.digest.value(),
        plain.failed,
        plain.typed_errors
    ));
    let mut violations = plain.violations.clone();
    let mut attempted = plain.ops;
    let mut failed = plain.failed;

    let metrics = if args.trace {
        let mut w = W::setup(env)?;
        let mut trace = Trace::default();
        let traced = pass(
            &mut w,
            Budget::Ops(plain.ops),
            args.corrupt,
            Some(&mut trace),
        );
        lines.push(format!(
            "traced pass: {} ops in {:.3} s ({:.3} s in probes), digest {:016x}, {} spans",
            traced.ops,
            traced.wall_s,
            trace.probe_ns() as f64 * 1e-9,
            traced.digest.value(),
            trace.len()
        ));
        if traced.digest != plain.digest {
            violations.push(format!(
                "digest mismatch: untraced {:016x}, traced {:016x}",
                plain.digest.value(),
                traced.digest.value()
            ));
        }
        violations.extend(traced.violations.iter().map(|v| format!("traced {v}")));
        attempted += traced.ops;
        failed += traced.failed;

        let path = spans_path(args);
        match trace.write_jsonl(&path) {
            Ok(()) => lines.push(format!("spans written to {}", path.display())),
            Err(e) => lines.push(format!("spans not written to {}: {e}", path.display())),
        }
        let overhead = ratio(
            traced.wall_s - trace.probe_ns() as f64 * 1e-9 - plain.wall_s,
            plain.wall_s,
        );
        let mut measured = workloads::common_layers(&trace, traced.ops);
        measured.extend(w.layers(&trace, traced.ops));
        measured.push(("trace.overhead_frac", overhead));
        per_layer(measured)
    } else {
        drop(timed_setups::<W>(env, &mut setup_s, &mut raw_setup_s)?);
        let lat = &plain.latencies_ms;
        let beyond_p90 = lat.len() - (lat.len() as f64 * 0.9).ceil() as usize;
        lines.push(format!(
            "samples: setup {} runs, {} op latencies ({beyond_p90} beyond p90), \
             fail_frac {} ({} failed + {} typed errors of {})",
            setup_s.len(),
            lat.len(),
            ratio((plain.failed + plain.typed_errors) as f64, plain.ops as f64),
            plain.failed,
            plain.typed_errors,
            plain.ops
        ));
        lines.push(format!(
            "wall clock, unscaled: setup_s {} ops_per_s {} op_p50_ms {} op_p90_ms {}; \
             calibration kernel median {} ms against {} ms (the scale is their ratio)",
            quantile(&raw_setup_s, 0.5),
            ratio(plain.ops as f64, plain.wall_s),
            quantile(lat, 0.5),
            quantile(lat, 0.9),
            plain.kernel_ms,
            calib::REF_MS
        ));
        let values = [
            quantile(&setup_s, 0.5),
            ratio(plain.ops as f64, plain.scaled_wall_s),
            quantile(&plain.scaled_ms, 0.5),
            quantile(&plain.scaled_ms, 0.9),
            ratio(
                (plain.ops - plain.failed - plain.typed_errors) as f64,
                plain.ops as f64,
            ),
            plain.peak_bytes as f64 / (1u64 << 20) as f64,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, unit, value })
            .collect()
    };
    for m in &metrics {
        lines.push(format!("metric {} = {} {}", m.name, m.value, m.unit));
    }
    for v in &violations {
        lines.push(format!("VIOLATION {v}"));
    }
    Ok(RunResult {
        correct: violations.is_empty(),
        attempted,
        failed,
        metrics,
        lines,
    })
}

/// Orders measured per-layer values as [`PER_LAYER`] lists them; a
/// later value for a name replaces an earlier one, and a layer the
/// workload never reached reads 0.
fn per_layer(measured: Vec<(&'static str, f64)>) -> Vec<Metric> {
    for (name, _) in &measured {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "{name} is not a declared per-layer metric"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .rev()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            Metric {
                name,
                unit,
                value: if value.is_finite() { value } else { 0.0 },
            }
        })
        .collect()
}

/// Where the traced pass writes its spans: under the cargo target
/// directory, so a checkout keeps nothing outside ignored build output.
fn spans_path(args: &Args) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target)
        .join("perfbench")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed))
}

/// Git revision, CPU model, core count, rustc version, features, seed
/// and thread counts, as one line.
fn provenance(args: &Args, env: &Env) -> String {
    // Git must not search above the working directory for a repository.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.as_os_str().to_owned()))
        .unwrap_or_default();
    let run = |cmd: &str, argv: &[&str]| {
        Command::new(cmd)
            .args(argv)
            .env("GIT_CEILING_DIRECTORIES", &ceiling)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    // The one feature that changes what the layers compute swaps the
    // sampling generator; read it from the type the build resolved.
    let sampling_rng = std::any::type_name::<dut_core::montecarlo::SamplingRng>();
    let features = if sampling_rng.ends_with("BatchRng") {
        "fast-sampling"
    } else {
        ""
    };
    format!(
        "provenance: git_rev={} cpu=\"{cpu}\" nproc={} rustc=\"{}\" features=[{}] \
         seed={} trace={} mc_threads={} engine_threads={}",
        run("git", &["rev-parse", "--short=12", "HEAD"]),
        env.threads,
        run("rustc", &["--version"]),
        features,
        args.seed,
        u8::from(args.trace),
        env.threads,
        env.threads,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = Args::parse(argv(
            "--workload congest_plain --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "congest_plain");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert_eq!((a.ops, a.corrupt), (None, false));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload mc_estimate --seed x --seconds 1 --trace 0",
            "--workload mc_estimate --seed 1 --seconds 0 --trace 0",
            "--workload mc_estimate --seed 1 --seconds 1 --trace 2",
            "--workload mc_estimate --seed 1 --seconds 1",
            "--workload mc_estimate --seed 1 --seconds 1 --trace 0 --bogus 1",
        ] {
            assert!(Args::parse(argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn per_layer_fills_unreached_layers_with_zero() {
        let m = per_layer(vec![("ecc.share", 0.5), ("ecc.share", 0.25)]);
        assert_eq!(m.len(), PER_LAYER.len());
        let share = m.iter().find(|m| m.name == "ecc.share").unwrap();
        assert_eq!(share.value, 0.25);
        assert!(m
            .iter()
            .filter(|m| m.name != "ecc.share")
            .all(|m| m.value == 0.0));
    }
}
