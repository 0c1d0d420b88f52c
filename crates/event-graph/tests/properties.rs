//! Property-based tests of event-graph construction and algorithms over
//! randomly generated balanced programs.

use anacin_event_graph::{
    algo, diff,
    graph::{EdgeKind, EventGraph, NodeId},
    lamport, slice,
    stats::GraphStats,
};
use anacin_mpisim::prelude::*;
use proptest::prelude::*;

fn build_program(world: u32, msgs: &[(u32, u32)]) -> Program {
    let mut b = ProgramBuilder::new(world);
    let mut inbound = vec![0u32; world as usize];
    for &(src, dst) in msgs {
        b.rank(Rank(src)).send(Rank(dst), Tag(0), 8);
        inbound[dst as usize] += 1;
    }
    for (r, &n) in inbound.iter().enumerate() {
        for _ in 0..n {
            b.rank(Rank(r as u32)).recv_any(TagSpec::Tag(Tag(0)));
        }
    }
    b.build()
}

fn msgs_strategy(world: u32) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec(
        (0..world, 0..world).prop_filter("no self sends", |(s, d)| s != d),
        0..30,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every trace's event graph is a DAG with verified Lamport clocks,
    /// and its statistics are internally consistent.
    #[test]
    fn graphs_are_sound(
        msgs in msgs_strategy(6),
        nd in 0.0f64..=100.0,
        seed in 0u64..200,
    ) {
        let p = build_program(6, &msgs);
        let t = simulate(&p, &SimConfig::with_nd_percent(nd, seed)).unwrap();
        let g = EventGraph::from_trace(&t);
        prop_assert!(algo::is_dag(&g));
        let ts = lamport::lamport_times(&g);
        lamport::verify_lamport(&g, &ts).unwrap();
        let s = GraphStats::of(&g);
        prop_assert_eq!(s.sends, msgs.len());
        prop_assert_eq!(s.recvs, msgs.len());
        prop_assert_eq!(s.message_edges, msgs.len());
        // Traffic conservation, in both the sparse and dense views.
        prop_assert_eq!(s.traffic.total() as usize, msgs.len());
        let dense_total: u64 = s.traffic.to_dense().iter().flatten().sum();
        prop_assert_eq!(dense_total as usize, msgs.len());
        // Node accounting: init + finalize per rank + send/recv events.
        prop_assert_eq!(s.nodes, 12 + 2 * msgs.len());
    }

    /// The streaming two-pass CSR construction is bit-identical to the
    /// legacy edge-list materialisation: every node's out- and in-
    /// adjacency, including edge order, equals a `Vec<Vec<_>>` rebuild
    /// from the trace in canonical emission order (program edges rank by
    /// rank, then message edges in trace-iteration order).
    #[test]
    fn streaming_csr_matches_legacy_edge_list(
        msgs in msgs_strategy(6),
        nd in 0.0f64..=100.0,
        seed in 0u64..200,
    ) {
        let world = 6u32;
        let p = build_program(world, &msgs);
        let t = simulate(&p, &SimConfig::with_nd_percent(nd, seed)).unwrap();
        let g = EventGraph::from_trace(&t);
        let mut base = vec![0u32; world as usize + 1];
        for r in 0..world as usize {
            base[r + 1] = base[r] + t.rank_events(Rank(r as u32)).len() as u32;
        }
        let node_of = |rank: Rank, idx: u32| NodeId(base[rank.index()] + idx);
        let n = g.node_count();
        let mut out: Vec<Vec<(NodeId, EdgeKind)>> = vec![Vec::new(); n];
        let mut inc: Vec<Vec<(NodeId, EdgeKind)>> = vec![Vec::new(); n];
        for r in 0..world {
            let len = t.rank_events(Rank(r)).len() as u32;
            for i in 1..len {
                let (u, v) = (node_of(Rank(r), i - 1), node_of(Rank(r), i));
                out[u.index()].push((v, EdgeKind::Program));
                inc[v.index()].push((u, EdgeKind::Program));
            }
        }
        for (id, e) in t.iter() {
            if let EventKind::Recv { send_event, .. } = &e.kind {
                let (u, v) = (node_of(send_event.rank, send_event.idx),
                              node_of(id.rank, id.idx));
                out[u.index()].push((v, EdgeKind::Message));
                inc[v.index()].push((u, EdgeKind::Message));
            }
        }
        for id in g.node_ids() {
            prop_assert_eq!(g.out_edges(id), &out[id.index()][..]);
            prop_assert_eq!(g.in_edges(id), &inc[id.index()][..]);
        }
    }

    /// Slicing partitions: both slicers cover every node exactly once,
    /// and position slices are identical across runs.
    #[test]
    fn slicers_partition(
        msgs in msgs_strategy(5),
        seed_a in 0u64..50,
        seed_b in 50u64..100,
        count in 1usize..12,
    ) {
        let p = build_program(5, &msgs);
        let ga = EventGraph::from_trace(
            &simulate(&p, &SimConfig::with_nd_percent(100.0, seed_a)).unwrap());
        let gb = EventGraph::from_trace(
            &simulate(&p, &SimConfig::with_nd_percent(100.0, seed_b)).unwrap());
        for slicer in [slice::slice_into, slice::slice_by_position] {
            let sa = slicer(&ga, count);
            let total: usize = sa.iter().map(|s| s.nodes.len()).sum();
            prop_assert_eq!(total, ga.node_count());
        }
        let pa = slice::slice_by_position(&ga, count);
        let pb = slice::slice_by_position(&gb, count);
        for (x, y) in pa.iter().zip(&pb) {
            prop_assert_eq!(&x.nodes, &y.nodes);
        }
    }

    /// diff() of a graph with itself is empty; diff across seeds reports
    /// exactly the receives whose matched source changed.
    #[test]
    fn diff_counts_changed_receives(
        msgs in msgs_strategy(5),
        seed_a in 0u64..50,
        seed_b in 50u64..100,
    ) {
        let p = build_program(5, &msgs);
        let ga = EventGraph::from_trace(
            &simulate(&p, &SimConfig::with_nd_percent(100.0, seed_a)).unwrap());
        let gb = EventGraph::from_trace(
            &simulate(&p, &SimConfig::with_nd_percent(100.0, seed_b)).unwrap());
        let self_diff = diff::diff(&ga, &ga).unwrap();
        prop_assert!(self_diff.identical());
        let d = diff::diff(&ga, &gb).unwrap();
        prop_assert_eq!(d.total_receives, msgs.len());
        // Cross-check against the match orders.
        let mut expected = 0;
        for r in 0..5 {
            let oa = ga.match_order(Rank(r));
            let ob = gb.match_order(Rank(r));
            expected += oa.iter().zip(&ob).filter(|(a, b)| a != b).count();
        }
        prop_assert_eq!(d.differing.len(), expected);
    }
}
