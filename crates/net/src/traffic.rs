//! Per-node traffic accounting.
//!
//! Every protocol step records the bytes it put on the wire with a
//! [`TrafficAccountant`]: the summed lengths of real encodings, tallied by
//! a transport or measured by a codec — there is no analytic byte model
//! beside them.  The accountant tracks those bytes per node (both
//! directions) and, on request, per node pair, so the harness reports the
//! paper's "traffic per node" series (Figures 4, 5 right, 6 right)
//! directly from measurement.

use crate::wire::{self, Wire, WireError};
use std::collections::HashMap;

/// Identifier of a simulated node (participant).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub usize);

impl Wire for NodeId {
    fn encode_into(&self, out: &mut Vec<u8>) {
        wire::put_uvarint(out, self.0 as u64);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(NodeId(wire::get_uvarint(buf)? as usize))
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Per-node traffic counters: the *measured* encoded bytes a node sent
/// and received, each the summed length of actual [`crate::wire`]
/// encodings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeTraffic {
    /// Measured encoded bytes sent by this node.
    pub wire_bytes_sent: u64,
    /// Measured encoded bytes received by this node.
    pub wire_bytes_received: u64,
}

impl NodeTraffic {
    /// Total bytes handled (sent + received).
    pub fn total_bytes(&self) -> u64 {
        self.wire_bytes_sent + self.wire_bytes_received
    }

    fn add(&mut self, other: &NodeTraffic) {
        self.wire_bytes_sent += other.wire_bytes_sent;
        self.wire_bytes_received += other.wire_bytes_received;
    }
}

impl Wire for NodeTraffic {
    fn encode_into(&self, out: &mut Vec<u8>) {
        wire::put_uvarint(out, self.wire_bytes_sent);
        wire::put_uvarint(out, self.wire_bytes_received);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(NodeTraffic {
            wire_bytes_sent: wire::get_uvarint(buf)?,
            wire_bytes_received: wire::get_uvarint(buf)?,
        })
    }
}

/// Aggregated view of the traffic in a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrafficReport {
    /// Total measured bytes sent across all nodes.
    pub total_bytes: u64,
    /// Average bytes *sent* per node that sent anything.
    pub mean_bytes_sent_per_node: f64,
    /// Maximum bytes handled (sent + received) by any single node.
    pub max_node_bytes: u64,
    /// Number of nodes that participated (sent or received at least once).
    pub active_nodes: usize,
}

/// Records the measured traffic of a protocol run, per node and, on
/// request, per (sender, receiver) pair.
#[derive(Clone, Debug, Default)]
pub struct TrafficAccountant {
    per_node: HashMap<NodeId, NodeTraffic>,
    per_pair: HashMap<(NodeId, NodeId), u64>,
    track_pairs: bool,
}

impl TrafficAccountant {
    /// Creates an accountant that tracks only per-node totals.
    pub fn new() -> Self {
        TrafficAccountant::default()
    }

    /// Creates an accountant that additionally tracks per-(sender, receiver)
    /// byte counts (more memory, used by the edge-privacy analysis tests).
    pub fn with_pair_tracking() -> Self {
        TrafficAccountant {
            track_pairs: true,
            ..TrafficAccountant::default()
        }
    }

    /// Records `bytes` measured encoded bytes from `from` to `to`: the
    /// length of an actual wire encoding, or the sum of several.
    pub fn record(&mut self, from: NodeId, to: NodeId, bytes: u64) {
        self.per_node.entry(from).or_default().wire_bytes_sent += bytes;
        self.per_node.entry(to).or_default().wire_bytes_received += bytes;
        if self.track_pairs {
            *self.per_pair.entry((from, to)).or_insert(0) += bytes;
        }
    }

    /// Traffic counters for a single node.
    pub fn node(&self, id: NodeId) -> NodeTraffic {
        self.per_node.get(&id).copied().unwrap_or_default()
    }

    /// Bytes sent from `from` to `to`, if pair tracking is enabled.
    pub fn pair_bytes(&self, from: NodeId, to: NodeId) -> Option<u64> {
        if self.track_pairs {
            Some(self.per_pair.get(&(from, to)).copied().unwrap_or(0))
        } else {
            None
        }
    }

    /// Per-node counters in ascending node order: the serializable view
    /// an outcome carries.  Replaying these entries through
    /// [`Self::add_entries`] into an empty accountant reproduces this
    /// one's per-node counters and report.
    pub fn sorted_node_entries(&self) -> Vec<(NodeId, NodeTraffic)> {
        let mut entries: Vec<(NodeId, NodeTraffic)> =
            self.per_node.iter().map(|(&id, &t)| (id, t)).collect();
        entries.sort_by_key(|&(id, _)| id);
        entries
    }

    /// Adds a list of per-node counters, such as
    /// [`Self::sorted_node_entries`] yields.
    pub fn add_entries(&mut self, entries: &[(NodeId, NodeTraffic)]) {
        for (id, t) in entries {
            self.per_node.entry(*id).or_default().add(t);
        }
    }

    /// Produces the aggregate report.
    pub fn report(&self) -> TrafficReport {
        let total_bytes: u64 = self.per_node.values().map(|t| t.wire_bytes_sent).sum();
        let senders = self
            .per_node
            .values()
            .filter(|t| t.wire_bytes_sent > 0)
            .count();
        let mean = if senders == 0 {
            0.0
        } else {
            total_bytes as f64 / senders as f64
        };
        let max_node_bytes = self
            .per_node
            .values()
            .map(NodeTraffic::total_bytes)
            .max()
            .unwrap_or(0);
        TrafficReport {
            total_bytes,
            mean_bytes_sent_per_node: mean,
            max_node_bytes,
            active_nodes: self.per_node.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn records_both_directions() {
        let mut acct = TrafficAccountant::new();
        acct.record(NodeId(0), NodeId(1), 100);
        acct.record(NodeId(1), NodeId(0), 40);
        let n0 = acct.node(NodeId(0));
        let n1 = acct.node(NodeId(1));
        assert_eq!(n0.wire_bytes_sent, 100);
        assert_eq!(n0.wire_bytes_received, 40);
        assert_eq!(n1.wire_bytes_sent, 40);
        assert_eq!(n1.wire_bytes_received, 100);
        assert_eq!(n0.total_bytes(), 140);
    }

    #[test]
    fn unknown_node_is_zero() {
        let acct = TrafficAccountant::new();
        assert_eq!(acct.node(NodeId(7)), NodeTraffic::default());
    }

    #[test]
    fn pair_tracking() {
        let mut acct = TrafficAccountant::with_pair_tracking();
        acct.record(NodeId(0), NodeId(1), 5);
        acct.record(NodeId(0), NodeId(1), 7);
        acct.record(NodeId(1), NodeId(0), 3);
        assert_eq!(acct.pair_bytes(NodeId(0), NodeId(1)), Some(12));
        assert_eq!(acct.pair_bytes(NodeId(1), NodeId(0)), Some(3));
        assert_eq!(acct.pair_bytes(NodeId(2), NodeId(0)), Some(0));
        // Disabled by default.
        assert_eq!(
            TrafficAccountant::new().pair_bytes(NodeId(0), NodeId(1)),
            None
        );
    }

    #[test]
    fn report_aggregates() {
        let mut acct = TrafficAccountant::new();
        acct.record(NodeId(0), NodeId(1), 100);
        acct.record(NodeId(1), NodeId(2), 300);
        let report = acct.report();
        assert_eq!(report.total_bytes, 400);
        assert_eq!(report.active_nodes, 3);
        // Two nodes sent; node 2 only received.
        assert_eq!(report.mean_bytes_sent_per_node, 200.0);
        assert_eq!(report.max_node_bytes, 400); // node 1 sent 300, received 100
    }

    #[test]
    fn display_of_node_id() {
        assert_eq!(NodeId(3).to_string(), "node3");
    }

    #[test]
    fn entry_replay_reproduces_merge() {
        let mut source = TrafficAccountant::new();
        source.record(NodeId(2), NodeId(0), 10);
        source.record(NodeId(0), NodeId(1), 7);
        source.record(NodeId(1), NodeId(2), 5);

        let entries = source.sorted_node_entries();
        assert_eq!(
            entries.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
        let mut replayed = TrafficAccountant::new();
        replayed.add_entries(&entries);
        assert_eq!(replayed.report(), source.report());
        for id in 0..4 {
            assert_eq!(replayed.node(NodeId(id)), source.node(NodeId(id)));
        }
    }

    proptest! {
        /// Recording each flow's byte total once — as an execution folds
        /// in its transport tally, one record per node pair — equals
        /// recording every message on its own: per-node totals, pair bytes
        /// and the report.
        #[test]
        fn prop_bulk_flush_equals_per_message_record(
            messages in proptest::collection::vec(any::<u64>(), 0..120),
        ) {
            const NODES: usize = 5;
            let mut per_message = TrafficAccountant::with_pair_tracking();
            let mut flows = [[0u64; NODES]; NODES];
            for word in messages {
                let (from, to) = ((word % 5) as usize, (word / 5 % 5) as usize);
                let bytes = word >> 40;
                per_message.record(NodeId(10 * from), NodeId(10 * to), bytes);
                flows[from][to] += bytes;
            }
            let mut bulk = TrafficAccountant::with_pair_tracking();
            for (from, row) in flows.iter().enumerate() {
                for (to, &bytes) in row.iter().enumerate() {
                    if bytes > 0 {
                        bulk.record(NodeId(10 * from), NodeId(10 * to), bytes);
                    }
                }
            }
            prop_assert_eq!(bulk.report(), per_message.report());
            for from in 0..NODES {
                for to in 0..NODES {
                    let (from, to) = (NodeId(10 * from), NodeId(10 * to));
                    prop_assert_eq!(bulk.node(from), per_message.node(from));
                    prop_assert_eq!(bulk.pair_bytes(from, to), per_message.pair_bytes(from, to));
                }
            }
        }
    }

    #[test]
    fn node_id_and_traffic_round_trip_the_wire() {
        let id = NodeId(300);
        assert_eq!(NodeId::decode_exact(&id.encode()).unwrap(), id);
        let t = NodeTraffic {
            wire_bytes_sent: 70_000,
            wire_bytes_received: 6,
        };
        assert_eq!(NodeTraffic::decode_exact(&t.encode()).unwrap(), t);
        // uvarints: f0 a2 04 · 06.  The four modeled counters that led
        // the layout (bytes sent/received, messages sent/received) left it.
        assert_eq!(crate::wire::hex(&t.encode()), "f0a20406");
        for cut in 0..t.encode().len() {
            assert!(NodeTraffic::decode_exact(&t.encode()[..cut]).is_err());
        }
    }
}
