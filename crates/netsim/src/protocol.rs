//! The node-automaton abstraction.
//!
//! A distributed algorithm in the paper's model is "a copy of a node algorithm
//! determining its response to every kind of message received" (§2). The
//! [`Protocol`] trait is that node algorithm; the [`Context`] trait is the only
//! window it gets on the outside world: its own identity, its incident links
//! and the ability to send messages over them. There are deliberately no
//! timers and no global information — exactly the event-driven model of the
//! paper.

use crate::message::NetMessage;
use mdst_graph::NodeId;

/// The interface a running node uses to interact with the network.
///
/// Implemented by every runtime (simulator, pool, step-controlled net);
/// protocols never see which one is driving them.
pub trait Context<M: NetMessage> {
    /// Identity of this node.
    fn id(&self) -> NodeId;

    /// Identities of the neighbours (the endpoints of this node's links),
    /// sorted by identity.
    fn neighbors(&self) -> &[NodeId];

    /// Sends `msg` to neighbour `to`. Panics if `to` is not a neighbour —
    /// a protocol addressing a non-neighbour is a bug, not a runtime condition.
    fn send(&mut self, to: NodeId, msg: M);

    /// Number of nodes in the network.
    ///
    /// The paper's model lets every node know `n` only implicitly (identities
    /// are bounded); exposing it keeps the bit-accounting honest and matches
    /// the usual "named network" assumption.
    fn network_size(&self) -> usize;
}

/// A distributed node algorithm.
pub trait Protocol: Send + 'static {
    /// The message alphabet of the protocol.
    type Message: NetMessage;

    /// Called exactly once when the node spontaneously wakes up. The paper's
    /// algorithms are "started independently by all nodes, perhaps at
    /// different times"; the runtime decides the wake-up schedule.
    fn on_start(&mut self, ctx: &mut dyn Context<Self::Message>);

    /// Called for every message delivered to this node.
    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Message,
        ctx: &mut dyn Context<Self::Message>,
    );

    /// Whether the node has locally terminated. Used by the runtimes for
    /// sanity checks and by tests for termination-by-process assertions; the
    /// protocols must not rely on it for correctness (termination must be
    /// decided by messages, per the paper).
    fn is_terminated(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::bits::message_bits;

    /// A trivial protocol used to exercise the trait object plumbing.
    #[derive(Debug, Clone)]
    struct Ping;

    impl NetMessage for Ping {
        fn kind(&self) -> &'static str {
            "Ping"
        }
        fn encoded_bits(&self) -> usize {
            message_bits(2, 0)
        }
    }

    struct Echo {
        got: usize,
    }

    impl Protocol for Echo {
        type Message = Ping;
        fn on_start(&mut self, ctx: &mut dyn Context<Ping>) {
            let targets: Vec<NodeId> = ctx.neighbors().to_vec();
            for to in targets {
                ctx.send(to, Ping);
            }
        }
        fn on_message(&mut self, _from: NodeId, _msg: Ping, _ctx: &mut dyn Context<Ping>) {
            self.got += 1;
        }
        fn is_terminated(&self) -> bool {
            self.got > 0
        }
    }

    struct FakeCtx {
        id: NodeId,
        neighbors: Vec<NodeId>,
        sent: Vec<(NodeId, Ping)>,
    }

    impl Context<Ping> for FakeCtx {
        fn id(&self) -> NodeId {
            self.id
        }
        fn neighbors(&self) -> &[NodeId] {
            &self.neighbors
        }
        fn send(&mut self, to: NodeId, msg: Ping) {
            self.sent.push((to, msg));
        }
        fn network_size(&self) -> usize {
            2
        }
    }

    #[test]
    fn protocol_can_drive_a_fake_context() {
        let mut ctx = FakeCtx {
            id: NodeId(0),
            neighbors: vec![NodeId(1)],
            sent: Vec::new(),
        };
        let mut node = Echo { got: 0 };
        node.on_start(&mut ctx);
        assert_eq!(ctx.sent.len(), 1);
        assert!(!node.is_terminated());
        node.on_message(NodeId(1), Ping, &mut ctx);
        assert!(node.is_terminated());
    }
}
