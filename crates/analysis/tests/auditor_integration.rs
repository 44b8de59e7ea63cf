//! End-to-end audits of real executions.
//!
//! Three layers of evidence that the happens-before auditor separates
//! healthy runs from corrupted ones:
//!
//! * property tests: every trace recorded by the discrete-event simulator
//!   (across graphs, seeds and random delay models) and by the
//!   step-controlled net (across random schedules, including drops and
//!   crashes) audits clean;
//! * mutation tests: corrupting a *real* clean trace — swapping two
//!   deliveries on a link, deleting a send, forging a duplicate delivery —
//!   is flagged with the matching rule label;
//! * cross-backend agreement: the same seed/topology run on the simulator
//!   and the work-stealing pool both audit clean and agree on the per-link
//!   message counts.

use mdst_analysis::{audit, audit_events, AuditReport, Rule};
use mdst_core::{Pipeline, PipelineConfig};
use mdst_graph::{generators, NodeId};
use mdst_netsim::{
    Context, ControlledEvent, ControlledNet, DelayModel, ExecutorKind, NetMessage, Protocol,
    SimConfig, StartDiscipline, TraceEvent, TraceEventKind,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn traced_config(executor: ExecutorKind) -> PipelineConfig {
    PipelineConfig {
        sim: SimConfig {
            record_trace: true,
            ..Default::default()
        },
        executor,
        ..Default::default()
    }
}

/// A traced improvement-phase run of the full MDST pipeline.
fn pipeline_trace(executor: ExecutorKind, n: usize, p: f64, seed: u64) -> Vec<TraceEvent> {
    let graph = Arc::new(generators::gnp_connected(n, p, seed).unwrap());
    let report = Pipeline::on(&graph)
        .config(traced_config(executor))
        .run()
        .unwrap();
    report.trace.events().to_vec()
}

// ---------------------------------------------------------------------------
// Property tests: clean executions audit clean
// ---------------------------------------------------------------------------

/// The flooding broadcast: the smallest protocol that exercises sends,
/// wake-ups and multi-hop causality on the controlled net.
#[derive(Debug, Clone)]
struct Token;

impl NetMessage for Token {
    fn kind(&self) -> &'static str {
        "Token"
    }
    fn encoded_bits(&self) -> usize {
        64
    }
}

struct Flood {
    id: NodeId,
    seen: bool,
}

impl Protocol for Flood {
    type Message = Token;
    fn on_start(&mut self, ctx: &mut dyn Context<Token>) {
        if self.id == NodeId(0) {
            self.seen = true;
            for t in ctx.neighbors().to_vec() {
                ctx.send(t, Token);
            }
        }
    }
    fn on_message(&mut self, from: NodeId, _msg: Token, ctx: &mut dyn Context<Token>) {
        if !self.seen {
            self.seen = true;
            let targets: Vec<NodeId> = ctx
                .neighbors()
                .iter()
                .copied()
                .filter(|&x| x != from)
                .collect();
            for t in targets {
                ctx.send(t, Token);
            }
        }
    }
    fn is_terminated(&self) -> bool {
        self.seen
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_sim_trace_audits_clean(
        n in 6usize..24,
        seed in 0u64..10_000,
        delayed in any::<bool>(),
    ) {
        let graph = Arc::new(generators::gnp_connected(n, 0.3, seed).unwrap());
        let mut config = traced_config(ExecutorKind::Sim);
        if delayed {
            // Random per-message delays reorder deliveries across links but
            // must never produce an intra-link inversion or a causal cycle.
            config.sim.delay = DelayModel::UniformRandom { min: 1, max: 5, seed };
        }
        let report = Pipeline::on(&graph).config(config).run().unwrap();
        let verdict = audit(&report.trace);
        prop_assert!(verdict.is_clean(), "{:#?}", verdict.findings);
        prop_assert!(verdict.sends > 0);
        prop_assert_eq!(verdict.sends, verdict.delivers);
    }

    #[test]
    fn every_controlled_schedule_audits_clean(
        n in 3usize..7,
        seed in 0u64..10_000,
        sched in any::<u64>(),
    ) {
        let graph = Arc::new(generators::gnp_connected(n, 0.5, seed).unwrap());
        let mut net =
            ControlledNet::new_traced(&graph, StartDiscipline::Lazy, true, |id, _| Flood {
                id,
                seen: false,
            });
        let mut budget_drops = 2usize;
        let mut budget_crashes = 1usize;
        // Derive the schedule choices from one xorshift stream (the vendored
        // proptest shim has no collection strategies).
        let mut state = sched | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as usize % 64
        };
        for _ in 0..300 {
            let c = next();
            let enabled = net.enabled_events();
            if enabled.is_empty() {
                break;
            }
            // Mostly protocol events; occasionally spend the fault budget on
            // a drop or a crash so those trace paths are audited too.
            let event = if c % 11 == 0 && (budget_drops > 0 || budget_crashes > 0) {
                let faults = net.fault_events();
                let fault = faults[c % faults.len()];
                match fault {
                    ControlledEvent::Drop { .. } if budget_drops > 0 => {
                        budget_drops -= 1;
                        fault
                    }
                    ControlledEvent::Crash { .. } if budget_crashes > 0 => {
                        budget_crashes -= 1;
                        fault
                    }
                    _ => enabled[c % enabled.len()],
                }
            } else {
                enabled[c % enabled.len()]
            };
            net.apply(event).unwrap();
        }
        let verdict = audit(net.trace());
        prop_assert!(verdict.is_clean(), "{:#?}", verdict.findings);
    }
}

// ---------------------------------------------------------------------------
// Mutation tests: corrupted traces are flagged with the right rule
// ---------------------------------------------------------------------------

/// A clean sim trace with at least two deliveries on one directed link.
fn trace_with_busy_link() -> (Vec<TraceEvent>, usize, usize) {
    let events = pipeline_trace(ExecutorKind::Sim, 12, 0.35, 42);
    assert!(audit_events(&events).is_clean());
    let mut last: BTreeMap<(NodeId, NodeId), usize> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        if e.kind != TraceEventKind::Deliver {
            continue;
        }
        if let Some(&prev) = last.get(&(e.from, e.to)) {
            return (events, prev, i);
        }
        last.insert((e.from, e.to), i);
    }
    panic!("no link carried two deliveries; pick a busier topology");
}

#[test]
fn swapping_two_deliveries_is_a_fifo_inversion() {
    let (mut events, first, second) = trace_with_busy_link();
    // Swap the message identities of the two deliveries: the earlier slot
    // now claims the later sequence number.
    let (a_id, a_seq) = (events[first].msg_id, events[first].seq);
    let (b_id, b_seq) = (events[second].msg_id, events[second].seq);
    events[first].msg_id = b_id;
    events[first].seq = b_seq;
    events[second].msg_id = a_id;
    events[second].seq = a_seq;
    let verdict = audit_events(&events);
    assert!(!verdict.is_clean());
    assert!(
        verdict.count(Rule::FifoInversion) >= 1,
        "{:#?}",
        verdict.findings
    );
}

#[test]
fn deleting_a_send_is_an_orphan_delivery() {
    let events = pipeline_trace(ExecutorKind::Sim, 10, 0.4, 7);
    assert!(audit_events(&events).is_clean());
    let victim = events
        .iter()
        .position(|e| e.kind == TraceEventKind::Send)
        .unwrap();
    let msg = events[victim].msg_id;
    let mutated: Vec<TraceEvent> = events
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != victim)
        .map(|(_, e)| e.clone())
        .collect();
    let verdict = audit_events(&mutated);
    let orphans: Vec<_> = verdict
        .findings
        .iter()
        .filter(|f| f.rule == Rule::OrphanDelivery)
        .collect();
    assert_eq!(orphans.len(), 1, "{:#?}", verdict.findings);
    assert_eq!(orphans[0].msg_id, msg);
}

#[test]
fn forging_a_second_delivery_is_a_duplicate() {
    let events = pipeline_trace(ExecutorKind::Sim, 10, 0.4, 9);
    assert!(audit_events(&events).is_clean());
    let mut mutated = events.clone();
    let forged = events
        .iter()
        .find(|e| e.kind == TraceEventKind::Deliver)
        .unwrap()
        .clone();
    mutated.push(forged.clone());
    let verdict = audit_events(&mutated);
    assert!(
        verdict
            .findings
            .iter()
            .any(|f| f.rule == Rule::DuplicateDelivery && f.msg_id == forged.msg_id),
        "{:#?}",
        verdict.findings
    );
}

// ---------------------------------------------------------------------------
// Cross-backend agreement
// ---------------------------------------------------------------------------

fn link_counts(report: &AuditReport) -> BTreeMap<(NodeId, NodeId), (u64, u64, u64)> {
    report
        .links
        .iter()
        .map(|l| ((l.from, l.to), (l.sends, l.delivers, l.drops)))
        .collect()
}

#[test]
fn all_backends_audit_clean_and_agree_on_per_link_counts() {
    // The improvement protocol is message-deterministic, so whatever the
    // scheduling backend, the multiset of (link, message) events must match
    // — and each backend's interleaving must independently satisfy the
    // happens-before discipline.
    for (n, p, seed) in [(14, 0.3, 1u64), (20, 0.25, 2), (9, 0.5, 3)] {
        let graph = Arc::new(generators::gnp_connected(n, p, seed).unwrap());
        let mut verdicts = Vec::new();
        for executor in [ExecutorKind::Sim, ExecutorKind::Pool] {
            let report = Pipeline::on(&graph)
                .config(traced_config(executor))
                .run()
                .unwrap();
            let verdict = audit(&report.trace);
            assert!(verdict.is_clean(), "{executor}: {:#?}", verdict.findings);
            verdicts.push((executor, verdict));
        }
        let baseline = link_counts(&verdicts[0].1);
        assert!(!baseline.is_empty());
        for (executor, verdict) in &verdicts[1..] {
            assert_eq!(
                link_counts(verdict),
                baseline,
                "{executor} disagrees with sim on per-link message counts (n={n}, seed={seed})"
            );
        }
    }
}
