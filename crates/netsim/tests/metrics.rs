//! Metrics-layer consistency: what a [`Sink`] accumulates must agree
//! with the engine's own [`RunReport`], and observing a run must never
//! change its outcome.

use dut_netsim::algorithms::{broadcast_value, build_bfs_tree, convergecast_sum};
use dut_netsim::engine::{BandwidthModel, Network, NodeProtocol, Outbox, RunReport};
use dut_netsim::graph::{Graph, NodeId};
use dut_netsim::reference::run_reference;
use dut_netsim::{topology, EngineScratch, RunOptions};
use dut_obs::{keys, Histogram, MemorySink, NoopSink, Sink};

/// Flood with a 32-bit payload so bit totals are non-trivial.
#[derive(Clone, Debug)]
struct Flood {
    seen: bool,
}

impl NodeProtocol for Flood {
    type Msg = u32;
    fn on_round(
        &mut self,
        node: NodeId,
        round: usize,
        inbox: &[(NodeId, u32)],
        out: &mut Outbox<'_, u32>,
    ) {
        let newly = (node == 0 && round == 0) || (!self.seen && !inbox.is_empty());
        if newly {
            self.seen = true;
            out.broadcast(7);
        }
    }
    fn is_done(&self) -> bool {
        self.seen
    }
}

fn flood_states(n: usize) -> Vec<Flood> {
    vec![Flood { seen: false }; n]
}

/// Floods every node of `net` under `options`, recording into `sink`.
fn flood(
    net: &mut Network<'_>,
    options: &RunOptions,
    scratch: &mut EngineScratch<u32>,
    sink: &mut dyn Sink,
) -> RunReport<Flood> {
    let n = net.graph().node_count();
    net.run(flood_states(n), 64, options, scratch, sink)
        .unwrap()
}

/// Every counter and histogram a sink holds, minus the wall-clock
/// `*.nanos` histograms, which differ from run to run.
type Recorded = (Vec<(&'static str, u64)>, Vec<(&'static str, Histogram)>);

fn without_nanos(sink: &MemorySink) -> Recorded {
    let timed = |k: &str| k.ends_with(".nanos");
    (
        sink.counters().filter(|(k, _)| !timed(k)).collect(),
        sink.histograms()
            .filter(|(k, _)| !timed(k))
            .map(|(k, h)| (k, h.clone()))
            .collect(),
    )
}

fn topologies() -> Vec<(&'static str, Graph)> {
    vec![
        ("clique", topology::complete(16)),
        ("line", topology::line(16)),
        ("tree", topology::balanced_binary_tree(15)),
    ]
}

#[test]
fn sink_bits_match_report_on_clique_line_tree() {
    let (serial, parallel) = (RunOptions::serial(), RunOptions::parallel(2));
    for (name, g) in topologies() {
        let mut net = Network::new(&g, BandwidthModel::Local);
        let mut sink = MemorySink::new();
        let report = flood(&mut net, &serial, &mut EngineScratch::new(), &mut sink);

        assert_eq!(
            sink.counter(keys::NETSIM_BITS),
            report.total_bits as u64,
            "{name}: sink bits != report bits"
        );
        assert_eq!(
            sink.counter(keys::NETSIM_MESSAGES),
            report.total_messages as u64
        );
        assert_eq!(sink.counter(keys::NETSIM_ROUNDS), report.rounds as u64);
        assert_eq!(sink.counter(keys::NETSIM_RUNS), 1);

        // Per-round histograms must sum back to the run totals, with
        // one observation per executed round.
        let round_bits = sink.histogram(keys::NETSIM_ROUND_BITS).unwrap();
        assert_eq!(round_bits.sum(), report.total_bits as u64, "{name}");
        assert_eq!(round_bits.count(), report.rounds as u64, "{name}");
        let round_msgs = sink.histogram(keys::NETSIM_ROUND_MESSAGES).unwrap();
        assert_eq!(round_msgs.sum(), report.total_messages as u64, "{name}");

        // The per-run edge max is the max over per-round edge maxima.
        let run_max = sink.histogram(keys::NETSIM_RUN_MAX_EDGE_BITS).unwrap();
        assert_eq!(
            run_max.max(),
            report.max_edge_bits_per_round as u64,
            "{name}"
        );
        let round_max = sink.histogram(keys::NETSIM_ROUND_MAX_EDGE_BITS).unwrap();
        assert_eq!(
            round_max.max(),
            report.max_edge_bits_per_round as u64,
            "{name}"
        );

        // The plain dense loop records neither fault nor sparse keys,
        // and its stream is the parallel path's, up to wall-clock.
        let (counters, histograms) = without_nanos(&sink);
        let keys = counters
            .iter()
            .map(|c| c.0)
            .chain(histograms.iter().map(|h| h.0));
        for key in keys {
            assert!(
                !key.starts_with("netsim.fault.") && !key.starts_with("netsim.sparse."),
                "{name}: unfaulted dense run recorded {key}"
            );
        }
        let mut par_sink = MemorySink::new();
        let par = flood(
            &mut net,
            &parallel,
            &mut EngineScratch::new(),
            &mut par_sink,
        );
        assert_eq!(par.total_bits, report.total_bits, "{name}");
        assert_eq!(
            without_nanos(&par_sink),
            without_nanos(&sink),
            "{name}: parallel(2) sink differs from the serial sink"
        );
    }
}

#[test]
fn noop_sink_is_bit_identical_to_unobserved_runs() {
    let serial = RunOptions::serial();
    for (name, g) in topologies() {
        let n = g.node_count();
        let mut net = Network::new(&g, BandwidthModel::Congest { bits_per_edge: 64 });
        let plain = flood(&mut net, &serial, &mut EngineScratch::new(), &mut NoopSink);
        // A reused scratch, then a recording sink: neither may change
        // the run.
        let mut scratch = EngineScratch::new();
        flood(&mut net, &serial, &mut scratch, &mut NoopSink);
        let noop = flood(&mut net, &serial, &mut scratch, &mut NoopSink);
        let mut mem = MemorySink::new();
        let observed = flood(&mut net, &serial, &mut EngineScratch::new(), &mut mem);

        for (label, r) in [("noop", &noop), ("memory", &observed)] {
            assert_eq!(r.rounds, plain.rounds, "{name}/{label}");
            assert_eq!(r.total_messages, plain.total_messages, "{name}/{label}");
            assert_eq!(r.total_bits, plain.total_bits, "{name}/{label}");
            assert_eq!(
                r.max_edge_bits_per_round, plain.max_edge_bits_per_round,
                "{name}/{label}"
            );
        }

        // Differential check against the reference engine, both ways.
        let reference = run_reference(&g, net.model(), flood_states(n), 64, &mut NoopSink).unwrap();
        let mut ref_sink = MemorySink::new();
        let reference_obs =
            run_reference(&g, net.model(), flood_states(n), 64, &mut ref_sink).unwrap();
        assert_eq!(reference.rounds, plain.rounds, "{name}");
        assert_eq!(reference.total_bits, plain.total_bits, "{name}");
        assert_eq!(reference_obs.total_bits, plain.total_bits, "{name}");
        assert_eq!(
            ref_sink.counter(keys::REFERENCE_BITS),
            mem.counter(keys::NETSIM_BITS),
            "{name}: the two engines' sinks disagree"
        );
    }
}

#[test]
fn parallel_observed_metrics_match_serial() {
    let g = topology::complete(24);
    let mut net = Network::new(&g, BandwidthModel::Local);
    let mut serial_sink = MemorySink::new();
    let serial = RunOptions::serial();
    flood(
        &mut net,
        &serial,
        &mut EngineScratch::new(),
        &mut serial_sink,
    );
    for threads in [2, 4] {
        let mut scratch = EngineScratch::new();
        let mut par_sink = MemorySink::new();
        let options = RunOptions::parallel(threads);
        flood(&mut net, &options, &mut scratch, &mut par_sink);
        for key in [
            keys::NETSIM_RUNS,
            keys::NETSIM_ROUNDS,
            keys::NETSIM_MESSAGES,
            keys::NETSIM_BITS,
        ] {
            assert_eq!(
                par_sink.counter(key),
                serial_sink.counter(key),
                "{threads} threads: {key}"
            );
        }
        assert_eq!(
            par_sink
                .histogram(keys::NETSIM_ROUND_BITS)
                .unwrap()
                .buckets(),
            serial_sink
                .histogram(keys::NETSIM_ROUND_BITS)
                .unwrap()
                .buckets(),
        );
        assert_eq!(
            without_nanos(&par_sink),
            without_nanos(&serial_sink),
            "{threads} threads: full metric stream"
        );
    }
}

#[test]
fn tree_primitives_report_their_wire_cost() {
    let g = topology::balanced_binary_tree(15);
    let model = BandwidthModel::congest_for(64);
    let (tree, _) = build_bfs_tree(&g, 0, model).unwrap();
    let mut sink = MemorySink::new();

    let values = vec![1u64; g.node_count()];
    let (total, conv_cost) = convergecast_sum(&g, &tree, &values, model, &mut sink).unwrap();
    assert_eq!(total, 15);
    assert_eq!(sink.counter(keys::CONVERGECAST_RUNS), 1);
    assert_eq!(sink.counter(keys::CONVERGECAST_BITS), conv_cost.bits as u64);
    assert_eq!(
        sink.counter(keys::CONVERGECAST_ROUNDS),
        conv_cost.rounds as u64
    );
    // Every non-root node sends exactly one message up the tree.
    assert_eq!(conv_cost.messages, g.node_count() - 1);

    let (vals, bcast_cost) = broadcast_value(&g, &tree, 9, model, &mut sink).unwrap();
    assert!(vals.iter().all(|&v| v == 9));
    assert_eq!(sink.counter(keys::BROADCAST_BITS), bcast_cost.bits as u64);
    assert_eq!(bcast_cost.messages, g.node_count() - 1);

    // The engine-layer counters saw both runs.
    assert_eq!(
        sink.counter(keys::NETSIM_BITS),
        (conv_cost.bits + bcast_cost.bits) as u64
    );
    assert_eq!(sink.counter(keys::NETSIM_RUNS), 2);
}
