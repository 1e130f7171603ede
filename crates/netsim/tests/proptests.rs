//! Property-based tests for the network simulator.

use dut_netsim::algorithms::bfs::build_bfs_tree;
use dut_netsim::algorithms::convergecast::{broadcast_value, convergecast_sum};
use dut_netsim::algorithms::leader::elect_leader;
use dut_netsim::algorithms::mis::{luby_mis, verify_mis};
use dut_netsim::engine::BandwidthModel;
use dut_netsim::power::{neighborhood, power_graph};
use dut_netsim::topology::{connected_erdos_renyi, Topology};
use dut_obs::NoopSink;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_connected_graph() -> impl Strategy<Value = dut_netsim::Graph> {
    (4usize..60, 0.05f64..0.5, any::<u64>()).prop_map(|(k, p, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        connected_erdos_renyi(k, p, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bfs_depths_equal_graph_distances(g in arb_connected_graph(), root_frac in 0.0f64..1.0) {
        let root = ((g.node_count() - 1) as f64 * root_frac) as usize;
        let (tree, _) = build_bfs_tree(&g, root, BandwidthModel::Local).unwrap();
        let dist = g.bfs_distances(root);
        for (v, d) in dist.iter().enumerate() {
            prop_assert_eq!(tree.depth[v], d.unwrap());
        }
    }

    #[test]
    fn bfs_parents_form_a_tree(g in arb_connected_graph()) {
        let (tree, _) = build_bfs_tree(&g, 0, BandwidthModel::Local).unwrap();
        // Every non-root reaches the root by parent pointers, acyclically.
        for mut v in 0..g.node_count() {
            let mut hops = 0;
            while let Some(p) = tree.parent[v] {
                v = p;
                hops += 1;
                prop_assert!(hops <= g.node_count(), "parent cycle");
            }
            prop_assert_eq!(v, 0);
        }
    }

    #[test]
    fn convergecast_computes_the_sum(g in arb_connected_graph(), seed in any::<u64>()) {
        let (tree, _) = build_bfs_tree(&g, 0, BandwidthModel::Local).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let values: Vec<u64> = (0..g.node_count())
            .map(|_| rand::Rng::gen_range(&mut rng, 0..100u64))
            .collect();
        let (total, _) =
            convergecast_sum(&g, &tree, &values, BandwidthModel::Local, &mut NoopSink).unwrap();
        prop_assert_eq!(total, values.iter().sum::<u64>());
    }

    #[test]
    fn broadcast_delivers_everywhere(g in arb_connected_graph(), value in any::<u32>()) {
        let (tree, _) = build_bfs_tree(&g, 0, BandwidthModel::Local).unwrap();
        let (values, cost) =
            broadcast_value(&g, &tree, value as u64, BandwidthModel::Local, &mut NoopSink).unwrap();
        prop_assert!(values.iter().all(|&v| v == value as u64));
        prop_assert!(cost.rounds <= tree.height + 3);
    }

    #[test]
    fn leader_is_global_max(g in arb_connected_graph(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = g.node_count();
        // distinct ids via shuffled range
        let mut ids: Vec<u64> = (0..k as u64).collect();
        for i in (1..k).rev() {
            let j = rand::Rng::gen_range(&mut rng, 0..=i);
            ids.swap(i, j);
        }
        let (leader, rounds) = elect_leader(&g, &ids, BandwidthModel::Local).unwrap();
        prop_assert_eq!(ids[leader], (k - 1) as u64);
        prop_assert!(rounds <= 2 * k + 2);
    }

    #[test]
    fn luby_mis_always_valid(g in arb_connected_graph(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mis = luby_mis(&g, &mut rng);
        prop_assert!(verify_mis(&g, &mis.in_mis));
        prop_assert!(mis.phases >= 1);
    }

    #[test]
    fn power_graph_edges_match_distances(g in arb_connected_graph(), r in 1usize..5) {
        let p = power_graph(&g, r);
        for u in 0..g.node_count() {
            let dist = g.bfs_distances(u);
            #[allow(clippy::needless_range_loop)]
            for v in 0..g.node_count() {
                if u == v { continue; }
                let within = dist[v].map(|d| d <= r).unwrap_or(false);
                prop_assert_eq!(p.has_edge(u, v), within, "edge ({}, {}) r={}", u, v, r);
            }
        }
    }

    #[test]
    fn neighborhood_grows_at_least_linearly(g in arb_connected_graph(), t in 0usize..10) {
        // Connected graph: |N^t(v)| >= min(t+1, k) — the §6 argument.
        let k = g.node_count();
        for v in 0..k.min(5) {
            let nb = neighborhood(&g, v, t);
            prop_assert!(nb.len() >= (t + 1).min(k));
        }
    }

    #[test]
    fn catalogue_topologies_connected(k in 4usize..80, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for t in Topology::ALL {
            let g = t.instantiate(k, &mut rng);
            prop_assert!(g.is_connected(), "{} on {k}", t.name());
        }
    }
}
