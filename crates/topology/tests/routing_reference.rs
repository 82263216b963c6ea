//! The flat route table against a straightforward reference: for every
//! builder and every committed `corpus/` topology, `next_hops(node, dst)`
//! must list exactly the ports a per-destination breadth-first search finds,
//! in port order, for every (node, host) pair.

use hpcc_topology::{
    asymmetric_clos, corpus, dumbbell, fat_tree, leaf_spine, oversubscribed_clos, star,
    testbed_pod, FatTreeParams, NodeKind, TopologySpec,
};
use hpcc_types::{Bandwidth, Duration, NodeId, PortId};
use std::collections::VecDeque;

/// Hop distance of every node to `dst` (`None` when unreachable).
fn hops_to(topo: &TopologySpec, dst: NodeId) -> Vec<Option<u32>> {
    let mut dist = vec![None; topo.node_count()];
    dist[dst.index()] = Some(0);
    let mut queue = VecDeque::from([dst]);
    while let Some(n) = queue.pop_front() {
        let d = dist[n.index()].unwrap();
        for port in topo.ports(n) {
            if dist[port.peer_node.index()].is_none() {
                dist[port.peer_node.index()] = Some(d + 1);
                queue.push_back(port.peer_node);
            }
        }
    }
    dist
}

fn assert_matches_reference(name: &str, topo: &TopologySpec) {
    assert!(!topo.hosts().is_empty(), "{name}: no hosts");
    for &dst in topo.hosts() {
        let dist = hops_to(topo, dst);
        for n in 0..topo.node_count() {
            let node = NodeId(n as u32);
            let expected: Vec<PortId> = match dist[n] {
                Some(d) if node != dst => topo
                    .ports(node)
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| dist[p.peer_node.index()] == Some(d - 1))
                    .map(|(i, _)| PortId(i as u32))
                    .collect(),
                _ => Vec::new(),
            };
            assert_eq!(
                topo.next_hops(node, dst),
                expected.as_slice(),
                "{name}: node {n} towards host {dst}"
            );
        }
    }
    // Unknown ids and non-host destinations have no route.
    let past_end = NodeId(topo.node_count() as u32);
    let host = topo.hosts()[0];
    assert!(topo.next_hops(past_end, host).is_empty(), "{name}");
    assert!(topo.next_hops(host, past_end).is_empty(), "{name}");
    assert!(topo.next_hops(NodeId(u32::MAX), host).is_empty(), "{name}");
    assert!(topo.next_hops(host, NodeId(u32::MAX)).is_empty(), "{name}");
    for &sw in topo.switches() {
        assert_eq!(topo.kind(sw), NodeKind::Switch);
        assert!(topo.next_hops(host, sw).is_empty(), "{name}: switch {sw}");
    }
}

#[test]
fn every_builder_matches_the_bfs_reference() {
    let g = Bandwidth::from_gbps;
    let d = Duration::from_us(1);
    let medium = FatTreeParams {
        pods: 3,
        tors_per_pod: 3,
        aggs_per_pod: 3,
        cores: 6,
        hosts_per_tor: 6,
        ..FatTreeParams::small()
    };
    let topologies = [
        ("star", star(8, g(100), d)),
        ("dumbbell", dumbbell(3, 2, g(100), g(40), d)),
        ("testbed_pod", testbed_pod(d)),
        ("leaf_spine", leaf_spine(4, 3, 4, g(25), g(100), d)),
        ("fat_tree_small", fat_tree(FatTreeParams::small())),
        ("fat_tree_medium", fat_tree(medium)),
        ("fat_tree_paper", fat_tree(FatTreeParams::paper())),
        (
            "oversubscribed_clos",
            oversubscribed_clos(4, 2, 8, g(25), 4.0, d),
        ),
        (
            "asymmetric_clos",
            asymmetric_clos(4, 3, 4, g(25), g(100), 0.5, d),
        ),
    ];
    for (name, topo) in &topologies {
        assert_matches_reference(name, topo);
    }
}

#[test]
fn every_corpus_topology_matches_the_bfs_reference() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no corpus files in {}", dir.display());
    for path in &paths {
        let text = std::fs::read_to_string(path).unwrap();
        let topo = corpus::parse(&text).unwrap().build();
        assert_matches_reference(&path.display().to_string(), &topo);
    }
}
