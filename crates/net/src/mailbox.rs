//! Typed in-memory message passing between simulated nodes.
//!
//! Protocol code that needs to *deliver* values (not only account for
//! them) uses a [`Mailbox`], which is a deterministic, round-structured
//! post office: senders deposit messages addressed to a node, and the
//! recipient drains its queue in FIFO order.  Delivery order is fully
//! deterministic (insertion order), which keeps every simulation
//! reproducible.

use crate::traffic::NodeId;
use std::collections::VecDeque;

/// A typed message queue per node.
#[derive(Clone, Debug)]
pub struct Mailbox<T> {
    queues: Vec<VecDeque<(NodeId, T)>>,
    delivered: u64,
}

impl<T> Mailbox<T> {
    /// Creates a mailbox system for `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        Mailbox {
            queues: (0..nodes).map(|_| VecDeque::new()).collect(),
            delivered: 0,
        }
    }

    /// Number of nodes this mailbox serves.
    pub fn nodes(&self) -> usize {
        self.queues.len()
    }

    /// Sends `message` from `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a valid node id (an internal wiring error in
    /// the simulation, never data-dependent).
    pub fn send(&mut self, from: NodeId, to: NodeId, message: T) {
        self.queues[to.0].push_back((from, message));
        self.delivered += 1;
    }

    /// Sends a batch of messages from `from` in one call — the batch
    /// entry point used by the transport layer to queue a whole protocol
    /// round at once.
    pub fn send_many<I: IntoIterator<Item = (NodeId, T)>>(&mut self, from: NodeId, batch: I) {
        for (to, message) in batch {
            self.send(from, to, message);
        }
    }

    /// Receives the oldest pending message for `node`, if any.
    pub fn recv(&mut self, node: NodeId) -> Option<(NodeId, T)> {
        self.queues[node.0].pop_front()
    }

    /// Drains every pending message for `node`.
    pub fn drain(&mut self, node: NodeId) -> Vec<(NodeId, T)> {
        self.queues[node.0].drain(..).collect()
    }

    /// Number of messages currently queued for `node`.
    pub fn pending(&self, node: NodeId) -> usize {
        self.queues[node.0].len()
    }

    /// Total messages ever sent through this mailbox.
    pub fn total_delivered(&self) -> u64 {
        self.delivered
    }

    /// Returns `true` if no node has pending messages.
    pub fn is_idle(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_per_node() {
        let mut mb: Mailbox<u32> = Mailbox::new(3);
        mb.send(NodeId(0), NodeId(2), 10);
        mb.send(NodeId(1), NodeId(2), 20);
        assert_eq!(mb.pending(NodeId(2)), 2);
        assert_eq!(mb.recv(NodeId(2)), Some((NodeId(0), 10)));
        assert_eq!(mb.recv(NodeId(2)), Some((NodeId(1), 20)));
        assert_eq!(mb.recv(NodeId(2)), None);
    }

    #[test]
    fn drain_collects_all() {
        let mut mb: Mailbox<&str> = Mailbox::new(2);
        mb.send(NodeId(0), NodeId(1), "a");
        mb.send(NodeId(0), NodeId(1), "b");
        let msgs = mb.drain(NodeId(1));
        assert_eq!(msgs, vec![(NodeId(0), "a"), (NodeId(0), "b")]);
        assert!(mb.is_idle());
    }

    #[test]
    fn counters() {
        let mut mb: Mailbox<()> = Mailbox::new(2);
        assert!(mb.is_idle());
        mb.send(NodeId(0), NodeId(1), ());
        mb.send(NodeId(1), NodeId(0), ());
        assert_eq!(mb.total_delivered(), 2);
        assert_eq!(mb.nodes(), 2);
        assert!(!mb.is_idle());
    }

    #[test]
    fn send_many_batches() {
        let mut mb: Mailbox<u8> = Mailbox::new(3);
        mb.send_many(
            NodeId(0),
            [(NodeId(1), 1u8), (NodeId(2), 2), (NodeId(1), 3)],
        );
        assert_eq!(mb.total_delivered(), 3);
        assert_eq!(mb.drain(NodeId(1)), vec![(NodeId(0), 1), (NodeId(0), 3)]);
        assert_eq!(mb.recv(NodeId(2)), Some((NodeId(0), 2)));
    }

    #[test]
    fn separate_queues() {
        let mut mb: Mailbox<u8> = Mailbox::new(3);
        mb.send(NodeId(0), NodeId(1), 1);
        mb.send(NodeId(0), NodeId(2), 2);
        assert_eq!(mb.pending(NodeId(1)), 1);
        assert_eq!(mb.pending(NodeId(2)), 1);
        assert_eq!(mb.pending(NodeId(0)), 0);
        assert_eq!(mb.recv(NodeId(1)).unwrap().1, 1);
        assert_eq!(mb.recv(NodeId(2)).unwrap().1, 2);
    }
}
