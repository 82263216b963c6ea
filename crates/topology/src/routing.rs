//! All-shortest-path ECMP route computation and the flat route table.
//!
//! For every destination host we run a breadth-first search over the
//! topology graph; a node's next-hop ports towards that destination are all
//! ports whose peer is one hop closer. The simulator picks among the
//! candidates with a per-flow hash (destination-based ECMP, as in the
//! paper's switch implementation, §4.1).
//!
//! The result is one flat [`RouteTable`]: a dense `node × host-ordinal`
//! array of list ids into a pool of deduplicated candidate lists. A
//! fat-tree's ToR and Agg uplink sets are the same list towards almost
//! every destination, so the pool stays small and a forwarding lookup is
//! two array reads.

use crate::spec::PortDesc;
use hpcc_types::{NodeId, PortId};
use std::collections::{BTreeMap, VecDeque};

/// Host ordinal of a node that is not a host.
const NOT_A_HOST: u32 = u32::MAX;

/// Equal-cost next-hop ports of every node towards every host, as a flat
/// table of deduplicated candidate lists.
#[derive(Clone, Debug)]
pub struct RouteTable {
    /// Position of each node in the host list, or [`NOT_A_HOST`].
    host_ordinal: Vec<u32>,
    /// Number of hosts (the row stride of `list_of`).
    host_count: usize,
    /// `list_of[node * host_count + ordinal(dst)]`: id of the candidate
    /// list. List 0 is the empty list (no route).
    list_of: Vec<u32>,
    /// List `i` is `ports[list_start[i]..list_start[i + 1]]`.
    list_start: Vec<u32>,
    /// Every distinct candidate list, back to back.
    ports: Vec<PortId>,
}

impl RouteTable {
    /// The equal-cost next-hop ports of `node` towards host `dst`, in port
    /// order. Empty when `dst` is unreachable, `node == dst`, or either id
    /// is out of range or `dst` is not a host.
    pub fn next_hops(&self, node: NodeId, dst: NodeId) -> &[PortId] {
        let Some(&ordinal) = self.host_ordinal.get(dst.index()) else {
            return &[];
        };
        if ordinal == NOT_A_HOST || node.index() >= self.host_ordinal.len() {
            return &[];
        }
        let list = self.list_of[node.index() * self.host_count + ordinal as usize] as usize;
        &self.ports[self.list_start[list] as usize..self.list_start[list + 1] as usize]
    }
}

/// Compute the route table: for every node and every host in `hosts`, the
/// ports of `node` whose peer is one hop closer to the host.
pub fn compute_routes(node_count: usize, ports: &[Vec<PortDesc>], hosts: &[NodeId]) -> RouteTable {
    let host_count = hosts.len();
    let mut host_ordinal = vec![NOT_A_HOST; node_count];
    for (i, &h) in hosts.iter().enumerate() {
        host_ordinal[h.index()] = i as u32;
    }
    let mut table = RouteTable {
        host_ordinal,
        host_count,
        list_of: vec![0; node_count * host_count],
        list_start: vec![0, 0],
        ports: Vec::new(),
    };
    // Lookup only (never iterated), so its order cannot reach any output.
    let mut list_ids: BTreeMap<Vec<PortId>, u32> = BTreeMap::new();
    let mut dist = vec![u32::MAX; node_count];
    let mut queue = VecDeque::new();
    let mut candidates = Vec::new();
    for (ordinal, &dst) in hosts.iter().enumerate() {
        // BFS from the destination: dist[n] = hops from n to dst.
        dist.fill(u32::MAX);
        dist[dst.index()] = 0;
        queue.push_back(dst);
        while let Some(n) = queue.pop_front() {
            let d = dist[n.index()];
            for p in &ports[n.index()] {
                let m = p.peer_node;
                if dist[m.index()] == u32::MAX {
                    dist[m.index()] = d + 1;
                    queue.push_back(m);
                }
            }
        }
        // Next hops: every port whose peer is strictly closer to dst.
        for n in 0..node_count {
            if n == dst.index() || dist[n] == u32::MAX {
                continue;
            }
            candidates.clear();
            for (pi, p) in ports[n].iter().enumerate() {
                if dist[p.peer_node.index()] + 1 == dist[n] {
                    candidates.push(PortId(pi as u32));
                }
            }
            if candidates.is_empty() {
                continue;
            }
            let id = match list_ids.get(candidates.as_slice()) {
                Some(&id) => id,
                None => {
                    let id = table.list_start.len() as u32 - 1;
                    table.ports.extend_from_slice(&candidates);
                    table.list_start.push(table.ports.len() as u32);
                    list_ids.insert(candidates.clone(), id);
                    id
                }
            };
            table.list_of[n * host_count + ordinal] = id;
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TopologyBuilder;
    use hpcc_types::{Bandwidth, Duration};

    /// Two ToR switches, two spines, two hosts per ToR: the classic ECMP
    /// diamond where cross-rack traffic has two equal-cost paths.
    fn leaf_spine_2x2() -> crate::spec::TopologySpec {
        let mut b = TopologyBuilder::new();
        let hosts = b.add_hosts(4);
        let tors = b.add_switches(2);
        let spines = b.add_switches(2);
        let bw = Bandwidth::from_gbps(100);
        let d = Duration::from_us(1);
        b.link(hosts[0], tors[0], bw, d);
        b.link(hosts[1], tors[0], bw, d);
        b.link(hosts[2], tors[1], bw, d);
        b.link(hosts[3], tors[1], bw, d);
        for &t in &tors {
            for &s in &spines {
                b.link(t, s, bw, d);
            }
        }
        b.build()
    }

    #[test]
    fn cross_rack_traffic_sees_two_equal_cost_paths() {
        let t = leaf_spine_2x2();
        let tor0 = NodeId(4);
        // From ToR0 towards host 2 (other rack): both spine uplinks qualify.
        let hops = t.next_hops(tor0, NodeId(2));
        assert_eq!(hops.len(), 2);
        // Towards a local host only the single host-facing port qualifies.
        let local = t.next_hops(tor0, NodeId(0));
        assert_eq!(local.len(), 1);
    }

    #[test]
    fn spine_routes_down_to_the_right_tor() {
        let t = leaf_spine_2x2();
        let spine0 = NodeId(6);
        let down = t.next_hops(spine0, NodeId(3));
        assert_eq!(down.len(), 1);
        // Following that port must land on ToR1 (node 5).
        let desc = t.ports(spine0)[down[0].index()];
        assert_eq!(desc.peer_node, NodeId(5));
    }

    #[test]
    fn hosts_route_via_their_single_uplink() {
        let t = leaf_spine_2x2();
        for src in 0..4u32 {
            for dst in 0..4u32 {
                if src == dst {
                    continue;
                }
                assert_eq!(
                    t.next_hops(NodeId(src), NodeId(dst)),
                    &[PortId(0)],
                    "host {src} to {dst}"
                );
            }
        }
    }

    #[test]
    fn path_hops_cross_vs_same_rack() {
        let t = leaf_spine_2x2();
        assert_eq!(t.path_hops(NodeId(0), NodeId(1)), Some(2));
        assert_eq!(t.path_hops(NodeId(0), NodeId(2)), Some(4));
    }

    #[test]
    fn disconnected_nodes_have_no_route() {
        let mut b = TopologyBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let _lonely = b.add_host();
        let s = b.add_switch();
        b.link(h0, s, Bandwidth::from_gbps(10), Duration::from_us(1));
        b.link(h1, s, Bandwidth::from_gbps(10), Duration::from_us(1));
        let t = b.build();
        assert!(t.next_hops(NodeId(0), NodeId(2)).is_empty());
        assert_eq!(t.path_hops(NodeId(0), NodeId(2)), None);
    }
}
