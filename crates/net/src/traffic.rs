//! Per-node traffic accounting.
//!
//! Every simulated protocol step records its network sends with a
//! [`TrafficAccountant`].  The accountant tracks bytes and message counts
//! per node (both directions) so the harness can report the paper's
//! "traffic per node" series (Figures 4, 5 right, 6 right) directly from
//! measurement.

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

/// Per-node traffic counters.
///
/// The `bytes_*` fields carry the *analytical* wire-cost model (what the
/// figure-level traffic series report); the `wire_bytes_*` fields carry
/// the bytes *measured* by encoding every message through the
/// [`crate::wire`] layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeTraffic {
    /// Bytes sent by this node (analytical model).
    pub bytes_sent: u64,
    /// Bytes received by this node (analytical model).
    pub bytes_received: u64,
    /// Messages sent by this node.
    pub messages_sent: u64,
    /// Messages received by this node.
    pub messages_received: u64,
    /// Measured encoded bytes sent by this node.
    pub wire_bytes_sent: u64,
    /// Measured encoded bytes received by this node.
    pub wire_bytes_received: u64,
}

impl NodeTraffic {
    /// Total bytes handled (sent + received).
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }
}

impl Wire for NodeTraffic {
    fn encode_into(&self, out: &mut Vec<u8>) {
        wire::put_uvarint(out, self.bytes_sent);
        wire::put_uvarint(out, self.bytes_received);
        wire::put_uvarint(out, self.messages_sent);
        wire::put_uvarint(out, self.messages_received);
        wire::put_uvarint(out, self.wire_bytes_sent);
        wire::put_uvarint(out, self.wire_bytes_received);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(NodeTraffic {
            bytes_sent: wire::get_uvarint(buf)?,
            bytes_received: wire::get_uvarint(buf)?,
            messages_sent: wire::get_uvarint(buf)?,
            messages_received: wire::get_uvarint(buf)?,
            wire_bytes_sent: wire::get_uvarint(buf)?,
            wire_bytes_received: wire::get_uvarint(buf)?,
        })
    }
}

/// Aggregated view of the traffic in a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrafficReport {
    /// Total bytes sent across all nodes.
    pub total_bytes: u64,
    /// Total messages sent across all nodes.
    pub total_messages: u64,
    /// Average bytes *sent* per node that sent anything.
    pub mean_bytes_sent_per_node: f64,
    /// Maximum bytes handled (sent + received) by any single node.
    pub max_node_bytes: u64,
    /// Total *measured* encoded bytes sent across all nodes (zero when a
    /// run never crossed the wire-format layer).
    pub total_wire_bytes: u64,
    /// Number of nodes that participated (sent or received at least once).
    pub active_nodes: usize,
}

/// Records the traffic generated by a simulated protocol run.
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

    /// Records a message of `bytes` bytes from `from` to `to`.
    pub fn record(&mut self, from: NodeId, to: NodeId, bytes: u64) {
        self.record_bulk(from, to, bytes, 1);
    }

    /// Records `messages` messages totalling `bytes` bytes from `from` to
    /// `to` in one step — the entry point for callers that accumulate a
    /// flow's counters themselves and fold them in once.  Equal, on every
    /// counter, to `messages` calls of [`Self::record`] with the same
    /// byte total.
    pub fn record_bulk(&mut self, from: NodeId, to: NodeId, bytes: u64, messages: u64) {
        let sender = self.per_node.entry(from).or_default();
        sender.bytes_sent += bytes;
        sender.messages_sent += messages;
        let receiver = self.per_node.entry(to).or_default();
        receiver.bytes_received += bytes;
        receiver.messages_received += messages;
        if self.track_pairs {
            *self.per_pair.entry((from, to)).or_insert(0) += bytes;
        }
    }

    /// Records `bytes` *measured* encoded bytes from `from` to `to` (the
    /// length of an actual wire encoding, not the analytical model).
    /// Measured bytes are tracked separately and do not contribute to the
    /// modeled `bytes_*` counters or the message counts.
    pub fn record_wire(&mut self, from: NodeId, to: NodeId, bytes: u64) {
        self.per_node.entry(from).or_default().wire_bytes_sent += bytes;
        self.per_node.entry(to).or_default().wire_bytes_received += bytes;
    }

    /// Records a broadcast of `bytes` bytes from `from` to every node in
    /// `recipients` (accounted as one message per recipient, as DStress
    /// has no multicast substrate).
    pub fn record_broadcast(&mut self, from: NodeId, recipients: &[NodeId], bytes: u64) {
        for &to in recipients {
            if to != from {
                self.record(from, to, bytes);
            }
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

    /// All nodes that have sent or received traffic.
    pub fn nodes(&self) -> impl Iterator<Item = (&NodeId, &NodeTraffic)> {
        self.per_node.iter()
    }

    /// Per-node counters in ascending node order: the serializable view a
    /// remote worker ships back to the master.  Because the default
    /// accountant tracks no per-pair state, replaying these entries
    /// through [`Self::add_node_traffic`] reproduces [`Self::merge`]
    /// exactly.
    pub fn sorted_node_entries(&self) -> Vec<(NodeId, NodeTraffic)> {
        let mut entries: Vec<(NodeId, NodeTraffic)> =
            self.per_node.iter().map(|(&id, &t)| (id, t)).collect();
        entries.sort_by_key(|&(id, _)| id);
        entries
    }

    /// Adds one node's counters wholesale (the merge half of
    /// [`Self::sorted_node_entries`]).
    pub fn add_node_traffic(&mut self, id: NodeId, t: &NodeTraffic) {
        let entry = self.per_node.entry(id).or_default();
        entry.bytes_sent += t.bytes_sent;
        entry.bytes_received += t.bytes_received;
        entry.messages_sent += t.messages_sent;
        entry.messages_received += t.messages_received;
        entry.wire_bytes_sent += t.wire_bytes_sent;
        entry.wire_bytes_received += t.wire_bytes_received;
    }

    /// Adds a list of per-node counters, such as
    /// [`Self::sorted_node_entries`] yields.
    pub fn add_entries(&mut self, entries: &[(NodeId, NodeTraffic)]) {
        for (id, t) in entries {
            self.add_node_traffic(*id, t);
        }
    }

    /// Merges the counters of another accountant into this one (used when
    /// per-block sub-protocols are accounted separately and then combined).
    pub fn merge(&mut self, other: &TrafficAccountant) {
        for (id, t) in &other.per_node {
            let entry = self.per_node.entry(*id).or_default();
            entry.bytes_sent += t.bytes_sent;
            entry.bytes_received += t.bytes_received;
            entry.messages_sent += t.messages_sent;
            entry.messages_received += t.messages_received;
            entry.wire_bytes_sent += t.wire_bytes_sent;
            entry.wire_bytes_received += t.wire_bytes_received;
        }
        if self.track_pairs {
            for (pair, bytes) in &other.per_pair {
                *self.per_pair.entry(*pair).or_insert(0) += bytes;
            }
        }
    }

    /// Produces the aggregate report.
    pub fn report(&self) -> TrafficReport {
        let total_bytes: u64 = self.per_node.values().map(|t| t.bytes_sent).sum();
        let total_messages: u64 = self.per_node.values().map(|t| t.messages_sent).sum();
        let senders = self
            .per_node
            .values()
            .filter(|t| t.messages_sent > 0)
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
        let total_wire_bytes: u64 = self.per_node.values().map(|t| t.wire_bytes_sent).sum();
        TrafficReport {
            total_bytes,
            total_messages,
            mean_bytes_sent_per_node: mean,
            max_node_bytes,
            total_wire_bytes,
            active_nodes: self.per_node.len(),
        }
    }

    /// Resets all counters.
    pub fn reset(&mut self) {
        self.per_node.clear();
        self.per_pair.clear();
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
        assert_eq!(n0.bytes_sent, 100);
        assert_eq!(n0.bytes_received, 40);
        assert_eq!(n0.messages_sent, 1);
        assert_eq!(n1.bytes_sent, 40);
        assert_eq!(n1.bytes_received, 100);
        assert_eq!(n0.total_bytes(), 140);
    }

    #[test]
    fn unknown_node_is_zero() {
        let acct = TrafficAccountant::new();
        assert_eq!(acct.node(NodeId(7)), NodeTraffic::default());
    }

    #[test]
    fn broadcast_skips_self() {
        let mut acct = TrafficAccountant::new();
        let all: Vec<NodeId> = (0..4).map(NodeId).collect();
        acct.record_broadcast(NodeId(0), &all, 10);
        assert_eq!(acct.node(NodeId(0)).bytes_sent, 30);
        assert_eq!(acct.node(NodeId(0)).bytes_received, 0);
        assert_eq!(acct.node(NodeId(3)).bytes_received, 10);
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
    fn wire_bytes_are_tracked_separately() {
        let mut acct = TrafficAccountant::new();
        acct.record(NodeId(0), NodeId(1), 100);
        acct.record_wire(NodeId(0), NodeId(1), 64);
        acct.record_wire(NodeId(1), NodeId(0), 8);
        let n0 = acct.node(NodeId(0));
        assert_eq!(n0.bytes_sent, 100);
        assert_eq!(n0.wire_bytes_sent, 64);
        assert_eq!(n0.wire_bytes_received, 8);
        // Measured bytes never leak into the modeled counters or the
        // message counts.
        assert_eq!(n0.messages_sent, 1);
        assert_eq!(acct.report().total_bytes, 100);
        assert_eq!(acct.report().total_wire_bytes, 72);

        let mut other = TrafficAccountant::new();
        other.record_wire(NodeId(0), NodeId(1), 6);
        acct.merge(&other);
        assert_eq!(acct.node(NodeId(0)).wire_bytes_sent, 70);
    }

    #[test]
    fn report_aggregates() {
        let mut acct = TrafficAccountant::new();
        acct.record(NodeId(0), NodeId(1), 100);
        acct.record(NodeId(1), NodeId(2), 300);
        let report = acct.report();
        assert_eq!(report.total_bytes, 400);
        assert_eq!(report.total_messages, 2);
        assert_eq!(report.active_nodes, 3);
        assert_eq!(report.mean_bytes_sent_per_node, 200.0);
        assert_eq!(report.max_node_bytes, 400); // node 1 sent 300, received 100
    }

    #[test]
    fn merge_combines_counters() {
        let mut a = TrafficAccountant::new();
        a.record(NodeId(0), NodeId(1), 10);
        let mut b = TrafficAccountant::new();
        b.record(NodeId(0), NodeId(1), 15);
        b.record(NodeId(2), NodeId(0), 5);
        a.merge(&b);
        assert_eq!(a.node(NodeId(0)).bytes_sent, 25);
        assert_eq!(a.node(NodeId(0)).bytes_received, 5);
        assert_eq!(a.node(NodeId(2)).bytes_sent, 5);
    }

    #[test]
    fn reset_clears() {
        let mut acct = TrafficAccountant::new();
        acct.record(NodeId(0), NodeId(1), 10);
        acct.reset();
        assert_eq!(acct.report().total_bytes, 0);
        assert_eq!(acct.report().active_nodes, 0);
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
        source.record_wire(NodeId(1), NodeId(2), 5);

        let mut merged = TrafficAccountant::new();
        merged.record(NodeId(0), NodeId(3), 100);
        let mut replayed = merged.clone();
        merged.merge(&source);
        let entries = source.sorted_node_entries();
        assert_eq!(
            entries.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
        for (id, t) in &entries {
            replayed.add_node_traffic(*id, t);
        }
        assert_eq!(replayed.report(), merged.report());
        for id in 0..4 {
            assert_eq!(replayed.node(NodeId(id)), merged.node(NodeId(id)));
        }
    }

    proptest! {
        /// Accumulating each flow's `(bytes, messages)` and folding them
        /// in once equals recording every message on its own: per-node
        /// totals, message counts, pair bytes and the report.
        #[test]
        fn prop_bulk_flush_equals_per_message_record(
            messages in proptest::collection::vec(any::<u64>(), 0..120),
        ) {
            const NODES: usize = 5;
            let mut per_message = TrafficAccountant::with_pair_tracking();
            let mut flows = [[(0u64, 0u64); NODES]; NODES];
            for word in messages {
                let (from, to) = ((word % 5) as usize, (word / 5 % 5) as usize);
                let bytes = word >> 40;
                per_message.record(NodeId(10 * from), NodeId(10 * to), bytes);
                flows[from][to].0 += bytes;
                flows[from][to].1 += 1;
            }
            let mut bulk = TrafficAccountant::with_pair_tracking();
            for (from, row) in flows.iter().enumerate() {
                for (to, &(bytes, count)) in row.iter().enumerate() {
                    if count > 0 {
                        bulk.record_bulk(NodeId(10 * from), NodeId(10 * to), bytes, count);
                    }
                }
            }
            prop_assert_eq!(bulk.report(), per_message.report());
            prop_assert_eq!(bulk.sorted_node_entries(), per_message.sorted_node_entries());
            for from in 0..NODES {
                for to in 0..NODES {
                    let (from, to) = (NodeId(10 * from), NodeId(10 * to));
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
            bytes_sent: 1,
            bytes_received: 200,
            messages_sent: 3,
            messages_received: 4,
            wire_bytes_sent: 70_000,
            wire_bytes_received: 6,
        };
        assert_eq!(NodeTraffic::decode_exact(&t.encode()).unwrap(), t);
        // uvarints: 01 · c8 01 · 03 · 04 · f0 a2 04 · 06
        assert_eq!(crate::wire::hex(&t.encode()), "01c8010304f0a20406");
        for cut in 0..t.encode().len() {
            assert!(NodeTraffic::decode_exact(&t.encode()[..cut]).is_err());
        }
    }
}
