//! E16 — distributed conductance testing (Fichtenberger–Vasudev) on
//! the fault-hardened CONGEST substrate.
//!
//! A second property-testing workload on the uniformity tester's
//! machinery: every node launches seeded lazy random walks, the
//! endpoint collision statistic is convergecast to an elected root,
//! and the root's exact-integer threshold decision separates
//! Φ-expanders from graphs ε-far from every Φ*-expander.
//!
//! Predictions: (1) the tester **accepts** Margulis expanders and
//! **rejects** bridged two-cliques at the configured (Φ, ε), both on
//! the plain pipeline and on the coded/ARQ robust pipeline under an
//! E13-style flip plan (which must also leave the statistic exactly
//! equal to the fault-free run); (2) the realized round count stays
//! within the O(D + log n/(εΦ²)) envelope; (3) the walk census is
//! bit-identical across the serial, sharded-parallel, and naive
//! reference engines, clean and faulted — the counter-keyed RNG
//! discipline extended to walk coins.

use crate::metrics::MetricsLog;
use crate::table::{fmt_f, Table};
use crate::Scale;
use dut_congest::conductance::walk::{
    run_walks_observed, run_walks_reference_faulted, walk_bandwidth_model, WalkOutcome,
};
use dut_congest::ConductanceTester;
use dut_netsim::engine::RunOptions;
use dut_netsim::fault::FaultPlan;
use dut_netsim::graph::{Graph, ImplicitTopology};
use dut_netsim::topology::{bridged_cliques, MargulisExpander};
use dut_obs::{MemorySink, RunRecord};

const PHI: f64 = 0.1;
const EPS: f64 = 0.5;
const SEED: u64 = 0xE16;

/// An E13-style light flip plan: every flip lands below the Justesen
/// correction radius, so the robust pipeline must absorb all of them.
fn flip_plan() -> FaultPlan {
    FaultPlan::seeded(0xE16_F11D).with_flips(3e-4)
}

/// An order-independent census fingerprint (FNV-1a over the
/// row-major counts), printed so bit-identity is visible in the table.
fn fingerprint(outcome: &WalkOutcome) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for row in &outcome.counts {
        for &c in row {
            h ^= c;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Runs E16, appending one `dut-metrics/1` record per pipeline run to
/// `log` (params: instance, pipeline, k, verdict; the
/// `congest.conductance.*` counters carry the round/bit/token totals).
pub fn run(scale: Scale, log: &mut MetricsLog) -> Vec<Table> {
    let side = scale.pick(8usize, 16);
    let k = side * side;
    // The robust rows stay at k = 36 on both scales because the recorded
    // E16 tables are pinned at this size. Decoding no longer forces it:
    // clean walk codewords skip Berlekamp–Welch, so resizing is a change
    // to the recorded tables, not a speed trade.
    let robust_side = 6usize;
    let robust_k = robust_side * robust_side;
    let max_retries = 4;

    let mut sep = Table::new(
        "E16: distributed conductance testing (accept/reject separation + round bound)",
        format!(
            "Φ = {PHI}, ε = {EPS}; plan: ℓ = ⌈12/ε⌉ walks per node, L = ⌈ln k/Φ⌉ lazy \
             rounds. Margulis expanders must be accepted, bridged two-cliques rejected. \
             `bound` is D + ln k/(ε·Φ²) (Θ-constants 1); `ratio` = rounds/bound must stay \
             ≤ 1.5. Robust rows run every phase coded/ARQ under a flip plan (rate 3e-4) \
             at k = {robust_k} and must reproduce the plain statistic exactly.",
        ),
        &[
            "instance",
            "pipeline",
            "k",
            "verdict",
            "collisions",
            "threshold",
            "rounds",
            "bound",
            "ratio",
        ],
    );

    let mut sink = MemorySink::new();
    let instances: Vec<(&str, Graph, usize)> = vec![
        ("margulis", MargulisExpander::new(side).materialize(), k),
        ("bridged-cliques", bridged_cliques(k), k),
        (
            "margulis",
            MargulisExpander::new(robust_side).materialize(),
            robust_k,
        ),
        ("bridged-cliques", bridged_cliques(robust_k), robust_k),
    ];
    for (i, (name, g, kk)) in instances.iter().enumerate() {
        let robust = i >= 2;
        let tester = ConductanceTester::plan(*kk, PHI, EPS).expect("plannable");
        sink.reset();
        let (result, pipeline) = if robust {
            // Plain twin first: the robust run must reproduce it.
            let plain = tester.run(g, SEED).expect("plain twin");
            let (r, stats) = tester
                .run_robust_observed(
                    g,
                    SEED,
                    &flip_plan(),
                    max_retries,
                    &RunOptions::default(),
                    &mut sink,
                )
                .expect("flips below the radius must be absorbed");
            assert_eq!(
                r.collisions, plain.collisions,
                "robust skewed the statistic"
            );
            assert_eq!(r.verdict, plain.verdict);
            assert!(stats.corrected_bits > 0, "flip plan never fired");
            (r, "robust+flips")
        } else {
            let r = tester
                .run_observed(g, SEED, &RunOptions::default(), &mut sink)
                .expect("plain run");
            (r, "plain")
        };
        let bound = tester.round_bound(result.tree_height);
        let ratio = result.rounds as f64 / bound;
        sep.push_row(vec![
            (*name).to_string(),
            pipeline.to_string(),
            kk.to_string(),
            if result.verdict.accepts() {
                "accept".into()
            } else {
                "reject".into()
            },
            result.collisions.to_string(),
            fmt_f(result.threshold),
            result.rounds.to_string(),
            fmt_f(bound),
            fmt_f(ratio),
        ]);
        if log.enabled() {
            let rec = RunRecord::new("e16", &format!("{name}/{pipeline}"))
                .param("k", *kk)
                .param("phi", PHI)
                .param("eps", EPS)
                .param("instance", *name)
                .param("pipeline", pipeline)
                .param(
                    "verdict",
                    if result.verdict.accepts() {
                        "accept"
                    } else {
                        "reject"
                    },
                );
            log.write(&rec, &sink).expect("metrics write");
        }
    }

    // ------------------------------------------------ engine bit-identity
    let ident_k = 36usize;
    let ident_walks = 8u64;
    let ident_len = 16usize;
    let ident_g = MargulisExpander::new(6).materialize();
    let model = walk_bandwidth_model(ident_k, ident_walks);
    let mut ident = Table::new(
        "E16: walk-census bit-identity across engines",
        format!(
            "Margulis side 6 (k = {ident_k}), ℓ = {ident_walks}, L = {ident_len}. The \
             same seed must produce the identical per-source endpoint census on the \
             serial flat engine, the sharded parallel engine, and the naive reference \
             engine — clean and under the E13-style flip plan (faults are keyed by the \
             same counter discipline, so corruption is reproduced, not avoided).",
        ),
        &[
            "plan",
            "engine",
            "collisions",
            "tokens",
            "census fp",
            "match",
        ],
    );
    for (plan_name, plan) in [("clean", FaultPlan::none()), ("flips 3e-4", flip_plan())] {
        let serial = run_walks_observed(
            &ident_g,
            SEED,
            ident_walks,
            ident_len,
            model,
            &RunOptions::default().with_faults(plan.clone()),
            &mut dut_obs::NoopSink,
        )
        .expect("serial walk");
        let engines: Vec<(&str, WalkOutcome)> = vec![
            ("serial", serial.clone()),
            (
                "parallel-2",
                run_walks_observed(
                    &ident_g,
                    SEED,
                    ident_walks,
                    ident_len,
                    model,
                    &RunOptions::parallel(2).with_faults(plan.clone()),
                    &mut dut_obs::NoopSink,
                )
                .expect("parallel walk"),
            ),
            (
                "parallel-4+shard",
                run_walks_observed(
                    &ident_g,
                    SEED,
                    ident_walks,
                    ident_len,
                    model,
                    &RunOptions::parallel(4)
                        .with_shard_delivery(1)
                        .with_faults(plan.clone()),
                    &mut dut_obs::NoopSink,
                )
                .expect("sharded walk"),
            ),
            (
                "reference",
                run_walks_reference_faulted(&ident_g, SEED, ident_walks, ident_len, model, &plan)
                    .expect("reference walk"),
            ),
        ];
        for (engine, outcome) in engines {
            let matches = outcome.counts == serial.counts;
            ident.push_row(vec![
                plan_name.to_string(),
                engine.to_string(),
                outcome.collision_statistic().to_string(),
                outcome.total_tokens().to_string(),
                format!("{:016x}", fingerprint(&outcome)),
                if matches { "yes".into() } else { "NO".into() },
            ]);
        }
    }

    vec![sep, ident]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_separation_and_bit_identity_hold() {
        let tables = run(Scale::Quick, &mut MetricsLog::disabled());
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].rows.len(), 4);
        assert_eq!(tables[1].rows.len(), 8);
        crate::verdict::check("e16", &tables).unwrap();
    }

    #[test]
    fn metrics_log_one_record_per_pipeline_run() {
        let mut log = MetricsLog::buffer();
        let tables = run(Scale::Quick, &mut log);
        assert_eq!(log.records(), 4);
        for line in log.lines() {
            assert!(line.starts_with("{\"schema\":\"dut-metrics/1\""));
            assert!(line.contains("\"experiment\":\"e16\""));
            assert!(line.contains("\"verdict\":"));
        }
        // Logging must not perturb the sweep.
        let plain = run(Scale::Quick, &mut MetricsLog::disabled());
        assert_eq!(plain, tables);
    }
}
