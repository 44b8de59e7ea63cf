//! Execution traces.
//!
//! The paper's Figure 2 is a snapshot of the BFS wave spreading through the
//! fragments and discovering a "cousin" (outgoing) edge. To regenerate that
//! figure we need the actual sequence of sends and deliveries of a run; the
//! [`TraceRecorder`] captures it when enabled (it is off by default because
//! traces of large sweeps would dominate memory).
//!
//! Every backend records the same event vocabulary. Each *message* carries a
//! run-unique [`TraceEvent::msg_id`] and a per-sender per-directed-link
//! sequence number [`TraceEvent::seq`], stamped at send time and echoed by the
//! matching `Deliver`/`Drop` event. Those two numbers are what make a trace
//! *auditable*: the `mdst-analysis` crate reconstructs the happens-before
//! partial order from them and statically checks per-link FIFO, causal
//! delivery and protocol-level mutual exclusion — on the discrete-event
//! simulator, where the trace is totally ordered by simulated time, and on the
//! pool backend, where each worker keeps a lock-free local buffer stamped
//! from one atomic global counter and the buffers are merged into a single
//! recorder at quiescence.

use mdst_graph::NodeId;
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::sync::Arc;

/// An interned message-kind label.
///
/// Protocols name their message kinds with `&'static str` constants
/// ([`crate::message::NetMessage::kind`]), so in the overwhelmingly common
/// case a trace event can simply borrow that static name instead of cloning
/// it into a fresh `String` per event — on a traced 10⁵-node run that is
/// millions of avoided allocations. Labels that only exist at runtime (for
/// example kinds read back from a serialized trace) are shared behind an
/// `Arc<str>` so cloning an event stays allocation-free either way.
#[derive(Debug, Clone)]
pub enum KindLabel {
    /// Borrowed from the protocol's static kind table. The fast path: every
    /// live backend records kinds this way.
    Static(&'static str),
    /// A shared runtime label (deserialized traces, synthetic fixtures).
    Shared(Arc<str>),
}

impl KindLabel {
    /// The label text.
    pub fn as_str(&self) -> &str {
        match self {
            KindLabel::Static(s) => s,
            KindLabel::Shared(s) => s,
        }
    }
}

impl fmt::Display for KindLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl PartialEq for KindLabel {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for KindLabel {}

impl std::hash::Hash for KindLabel {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl PartialEq<str> for KindLabel {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for KindLabel {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl From<&'static str> for KindLabel {
    fn from(s: &'static str) -> Self {
        KindLabel::Static(s)
    }
}

impl From<String> for KindLabel {
    fn from(s: String) -> Self {
        KindLabel::Shared(Arc::from(s.as_str()))
    }
}

impl Serialize for KindLabel {
    fn to_value(&self) -> Value {
        Value::String(self.as_str().to_string())
    }
}

impl Deserialize for KindLabel {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        v.as_str()
            .map(|s| KindLabel::Shared(Arc::from(s)))
            .ok_or_else(|| serde::Error::custom("expected string message kind"))
    }
}

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEventKind {
    /// A message was handed to the network.
    Send,
    /// A message was delivered to its destination.
    Deliver,
    /// A message was lost (random loss, cut link, or crashed receiver).
    Drop,
    /// A node crash-stopped (`from == to == the crashed node`).
    Crash,
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// When the event happened. The simulator records the simulated clock;
    /// the pool backend records a globally unique stamp drawn
    /// from one atomic counter (so the merged trace is totally ordered by
    /// real recording order, and a message's `Send` stamp is always smaller
    /// than its `Deliver` stamp).
    pub time: u64,
    /// What happened.
    pub kind: TraceEventKind,
    /// Sender of the message.
    pub from: NodeId,
    /// Receiver of the message.
    pub to: NodeId,
    /// Message kind label (e.g. `"BFS"`), interned — see [`KindLabel`].
    pub message_kind: KindLabel,
    /// Run-unique message identity, assigned at send time starting from 1 and
    /// echoed by the matching `Deliver`/`Drop` event. `0` on events that carry
    /// no message ([`TraceEventKind::Crash`]).
    pub msg_id: u64,
    /// Position of this message in its directed link's send order: the k-th
    /// message the sender handed to this `(from, to)` link has `seq == k`
    /// (counting from 0). FIFO links must deliver strictly increasing `seq`
    /// per directed link; a lost message consumes its slot, so gaps are legal
    /// but inversions never are. `0` on [`TraceEventKind::Crash`] events.
    pub seq: u64,
}

/// Collects [`TraceEvent`]s during a run on any backend.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecorder {
    enabled: bool,
    events: Vec<TraceEvent>,
}

impl TraceRecorder {
    /// A recorder that actually records.
    pub fn enabled() -> Self {
        TraceRecorder {
            enabled: true,
            events: Vec::new(),
        }
    }

    /// A recorder that drops everything (zero overhead beyond the branch).
    pub fn disabled() -> Self {
        TraceRecorder::default()
    }

    /// An enabled recorder over pre-recorded events — how the pool backend
    /// publishes its merged per-worker buffers. The caller is responsible
    /// for the event order (the pool sorts by the
    /// atomic global stamp in [`TraceEvent::time`]).
    pub fn from_events(events: Vec<TraceEvent>) -> Self {
        TraceRecorder {
            enabled: true,
            events,
        }
    }

    /// Whether events are being kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one event (no-op when disabled).
    pub fn record(&mut self, event: TraceEvent) {
        if self.enabled {
            self.events.push(event);
        }
    }

    /// The recorded events, in the order they were recorded.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The recorded events whose message kind equals `kind`.
    pub fn events_of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a TraceEvent> {
        self.events.iter().filter(move |e| e.message_kind == kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: TraceEventKind, label: &'static str) -> TraceEvent {
        TraceEvent {
            time: 1,
            kind,
            from: NodeId(0),
            to: NodeId(1),
            message_kind: label.into(),
            msg_id: 1,
            seq: 0,
        }
    }

    #[test]
    fn kind_labels_compare_and_intern_across_representations() {
        let stat: KindLabel = "BFS".into();
        let shared: KindLabel = String::from("BFS").into();
        assert_eq!(stat, shared);
        assert_eq!(stat, "BFS");
        assert_eq!(shared, "BFS");
        assert_ne!(stat, KindLabel::from("Update"));
        assert_eq!(stat.to_string(), "BFS");
        // Serialization is representation-blind: both sides round-trip to the
        // same JSON string and come back as shared labels.
        let back = KindLabel::from_value(&stat.to_value()).unwrap();
        assert!(matches!(back, KindLabel::Shared(_)));
        assert_eq!(back, stat);
    }

    #[test]
    fn disabled_recorder_drops_events() {
        let mut r = TraceRecorder::disabled();
        r.record(ev(TraceEventKind::Send, "BFS"));
        assert!(r.events().is_empty());
        assert!(!r.is_enabled());
    }

    #[test]
    fn enabled_recorder_keeps_and_filters_events() {
        let mut r = TraceRecorder::enabled();
        r.record(ev(TraceEventKind::Send, "BFS"));
        r.record(ev(TraceEventKind::Deliver, "BFS"));
        r.record(ev(TraceEventKind::Deliver, "Update"));
        assert_eq!(r.events().len(), 3);
        assert_eq!(r.events_of_kind("BFS").count(), 2);
        assert_eq!(r.events_of_kind("Update").count(), 1);
        assert_eq!(r.events_of_kind("Cut").count(), 0);
    }

    #[test]
    fn from_events_is_enabled_and_keeps_order() {
        let r = TraceRecorder::from_events(vec![
            ev(TraceEventKind::Send, "BFS"),
            ev(TraceEventKind::Deliver, "BFS"),
        ]);
        assert!(r.is_enabled());
        assert_eq!(r.events().len(), 2);
        assert_eq!(r.events()[0].kind, TraceEventKind::Send);
    }

    #[test]
    fn trace_round_trips_through_json() {
        use serde::{Deserialize, Serialize};
        let mut r = TraceRecorder::enabled();
        r.record(ev(TraceEventKind::Send, "BFS"));
        r.record(ev(TraceEventKind::Drop, "Cut"));
        let json = r.to_value().to_json_pretty();
        let back = TraceRecorder::from_value(&serde::from_json_str(&json).unwrap()).unwrap();
        assert_eq!(back, r);
    }
}
