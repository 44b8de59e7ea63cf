//! The four workloads, their seeded run lists and the checks every run's
//! output must pass.

use crate::calib::Sensitivity;
use mdst_graph::{algorithms, Graph, NodeId, RootedTree};
use mdst_netsim::ExecutorKind;
use mdst_scenario::runner::{RunOutcome, RunRecord};
use mdst_scenario::spec::{DelaySpec, FaultSpec, ParamValue, ResolvedGraph, RunSpec, StartSpec};
use std::sync::Arc;

/// A named set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `gnp_connected(200, 0.04)`, BFS seed, simulator, audit off.
    GnpSim,
    /// `star_with_leaf_edges(STAR_NODES)`, greedy-hub seed, pool with 2
    /// workers.
    StarPool,
    /// `gnp_connected(100, 0.08)`, BFS seed, simulator, audit on.
    AuditSim,
    /// Exhaustive fault-free model checking of 5-node topologies.
    ModelCheck,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 4] = [
    Workload::GnpSim,
    Workload::StarPool,
    Workload::AuditSim,
    Workload::ModelCheck,
];

/// Node count of every `star-pool` run. The star family is deterministic,
/// so every run is the same instance and its counts are compared with
/// every other run's.
pub const STAR_NODES: u64 = 220;

/// Pool workers of `star-pool`: the two vCPUs of the reference box.
pub const POOL_WORKERS: usize = 2;

/// Node count of the model-checked topologies.
pub const CHECK_NODES: usize = 5;

/// How many 5-node topologies [`is_checked_topology`] keeps.
pub const CHECKED_TOPOLOGIES: usize = 5;

/// Set-up repetitions per execution; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

impl Workload {
    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GnpSim => "gnp-sim",
            Workload::StarPool => "star-pool",
            Workload::AuditSim => "audit-sim",
            Workload::ModelCheck => "model-check",
        }
    }

    /// Typical cost of one run on the reference box. Only sizes the run
    /// list: a fixed function of `--seconds`, never a wall-clock loop.
    fn nominal_ms(self) -> f64 {
        match self {
            Workload::GnpSim => 190.0,
            Workload::StarPool => 150.0,
            Workload::AuditSim => 130.0,
            Workload::ModelCheck => 57.0,
        }
    }

    /// Runs each set-up repetition executes, as warm-ups, before measuring:
    /// enough that a repetition is a few hundred milliseconds of work and
    /// not one or two instances' worth.
    pub fn warmup_runs(self) -> usize {
        match self {
            Workload::GnpSim => 4,
            Workload::StarPool => 5,
            Workload::AuditSim => 6,
            Workload::ModelCheck => 2 * CHECKED_TOPOLOGIES,
        }
    }

    /// Which host slowdowns the workload's runs feel (see
    /// [`crate::calib`]).
    pub fn sensitivity(self) -> Sensitivity {
        match self {
            Workload::StarPool => Sensitivity::Core,
            Workload::ModelCheck => Sensitivity::SharedOnly,
            Workload::GnpSim | Workload::AuditSim => Sensitivity::Shared,
        }
    }

    /// Length of the run list for a measuring budget of `seconds`.
    pub fn run_count(self, seconds: u64) -> usize {
        let runs = (seconds as f64 * 1e3 / self.nominal_ms()).round() as usize;
        match self {
            // Whole passes over the checked topologies, so each pass weighs
            // every topology equally.
            Workload::ModelCheck => runs.div_ceil(CHECKED_TOPOLOGIES).max(1) * CHECKED_TOPOLOGIES,
            _ => runs.max(1),
        }
    }

    /// The run list for `seed`: the same seed and count always give the
    /// same list.
    pub fn run_list(self, seed: u64, count: usize) -> Vec<Item> {
        match self {
            Workload::GnpSim => (0..count)
                .map(|i| {
                    Item::Campaign(campaign_spec(
                        self,
                        gnp(200, 0.04),
                        "bfs",
                        ExecutorKind::Sim,
                        false,
                        mix(seed, i as u64),
                    ))
                })
                .collect(),
            Workload::StarPool => (0..count)
                .map(|i| {
                    Item::Campaign(campaign_spec(
                        self,
                        family(
                            "star_with_leaf_edges",
                            vec![("n", ParamValue::Int(STAR_NODES))],
                        ),
                        "greedy_hub",
                        ExecutorKind::Pool,
                        false,
                        mix(seed, i as u64),
                    ))
                })
                .collect(),
            Workload::AuditSim => (0..count)
                .map(|i| {
                    Item::Campaign(campaign_spec(
                        self,
                        gnp(100, 0.08),
                        "bfs",
                        ExecutorKind::Sim,
                        true,
                        mix(seed, i as u64),
                    ))
                })
                .collect(),
            Workload::ModelCheck => (0..count / CHECKED_TOPOLOGIES)
                .flat_map(|pass| {
                    // Each pass visits every topology once, in seeded order.
                    let mut order: Vec<usize> = (0..CHECKED_TOPOLOGIES).collect();
                    for i in (1..order.len()).rev() {
                        let j = (mix(seed, (pass * CHECKED_TOPOLOGIES + i) as u64) % (i as u64 + 1))
                            as usize;
                        order.swap(i, j);
                    }
                    order.into_iter().map(Item::Check)
                })
                .collect(),
        }
    }
}

/// One run of a run list.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// One campaign run through `execute_run_cached`.
    Campaign(Box<RunSpec>),
    /// One exhaustive check of the `i`-th checked topology.
    Check(usize),
}

impl Item {
    /// Identity of the instance, shared by every run of the same input: the
    /// graph, plus the run seed where the seed draws the graph.
    pub fn key(&self) -> String {
        match self {
            Item::Campaign(spec) => match &spec.graph {
                ResolvedGraph::Family { family, .. } if family == "gnp_connected" => {
                    format!("{} / seed {}", spec.graph.label(), spec.seed)
                }
                graph => graph.label(),
            },
            Item::Check(i) => format!("n{CHECK_NODES}-checked-{i}"),
        }
    }
}

/// SplitMix64 of `seed` and `i`: the benchmark's only source of input
/// randomness.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn family(name: &str, params: Vec<(&str, ParamValue)>) -> ResolvedGraph {
    ResolvedGraph::Family {
        family: name.to_string(),
        params: params
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    }
}

/// `gnp_connected(n, p)`; the run seed picks the graph.
pub fn gnp(n: u64, p: f64) -> ResolvedGraph {
    family(
        "gnp_connected",
        vec![("n", ParamValue::Int(n)), ("p", ParamValue::Float(p))],
    )
}

/// A fault-free, unit-delay campaign run of `workload`.
pub fn campaign_spec(
    workload: Workload,
    graph: ResolvedGraph,
    initial: &str,
    executor: ExecutorKind,
    audit: bool,
    seed: u64,
) -> Box<RunSpec> {
    Box::new(RunSpec {
        scenario: workload.name().to_string(),
        graph,
        initial: initial.to_string(),
        delay: DelaySpec::Unit,
        start: StartSpec::Simultaneous,
        faults: FaultSpec::none(),
        executor,
        workers: if executor == ExecutorKind::Pool {
            POOL_WORKERS
        } else {
            0
        },
        batch: 0,
        audit,
        seed,
        root: 0,
        max_events: mdst_netsim::SimConfig::default().max_events,
    })
}

/// The model-checked topologies: connected 5-node graphs with 7 or 8 edges
/// whose greedy tree from node 0 has degree 4. These are the ones whose
/// state spaces fall in the ~1k–5k band; K5 (46k states) and the sparse
/// sub-millisecond graphs stay out, so no single instance sets the tail.
pub fn is_checked_topology(graph: &Graph, tree: &RootedTree) -> bool {
    matches!(graph.edge_count(), 7 | 8) && tree.max_degree() == 4
}

/// The greedy initial tree every checked topology starts from.
pub fn greedy_tree(graph: &Arc<Graph>) -> RootedTree {
    algorithms::greedy_high_degree_tree(graph, NodeId(0)).expect("checked graphs are connected")
}

/// Exact per-instance counts: any two runs of one instance must agree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Counts {
    /// A campaign run.
    Campaign {
        /// Final tree degree `k*`.
        final_degree: usize,
        /// Improvement messages.
        messages: u64,
        /// Improvement rounds.
        rounds: u32,
        /// Simulated quiescence time; `None` on the pool, whose causal
        /// clock depends on the schedule.
        quiescence_time: Option<u64>,
    },
    /// A model-checking run.
    Check {
        /// Degree of the single quiescent outcome.
        max_degree: usize,
        /// Distinct states explored.
        states: usize,
        /// Transitions into already-visited states.
        revisits: usize,
    },
}

/// Quality ratios of one run, from exact counts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Ratios {
    /// Final degree over the combinatorial lower bound.
    pub approx: f64,
    /// Messages over the paper's `(k − k* + 1)·m` budget.
    pub msg_budget: f64,
    /// Quiescence time over the paper's `(k − k* + 1)·n` budget.
    pub time_budget: f64,
}

impl Ratios {
    /// The ratios of a run on `n` nodes and `m` edges.
    pub fn of(
        k: usize,
        k_star: usize,
        lower: usize,
        n: usize,
        m: usize,
        msgs: u64,
        time: u64,
    ) -> Self {
        let rounds_budget = (k.saturating_sub(k_star) + 1) as f64;
        Ratios {
            approx: k_star as f64 / lower.max(1) as f64,
            msg_budget: msgs as f64 / (rounds_budget * m as f64),
            time_budget: time as f64 / (rounds_budget * n as f64),
        }
    }
}

/// What one run produced, judged.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Exact counts (compared across runs of the same instance).
    pub counts: Counts,
    /// Quality ratios.
    pub ratios: Ratios,
    /// Why the run is not correct, if it is not.
    pub failure: Option<String>,
}

/// Judges a campaign record: no error, `quiesced-correct`, within the
/// paper's degree bound, a final degree between the lower bound and the
/// initial degree, and a clean audit when the run was audited.
pub fn judge_record(record: &RunRecord) -> Outcome {
    let failure = if let Some(e) = &record.error {
        Some(e.clone())
    } else if record.outcome != RunOutcome::QuiescedCorrect {
        Some(format!("outcome {}", record.outcome.label()))
    } else if !record.within_bound {
        Some(format!(
            "final degree {} exceeds the paper bound {}",
            record.final_degree, record.degree_upper_bound
        ))
    } else if record.final_degree > record.initial_degree
        || record.final_degree < record.degree_lower_bound
    {
        Some(format!(
            "final degree {} outside [{}, {}]",
            record.final_degree, record.degree_lower_bound, record.initial_degree
        ))
    } else if record.audit && record.audit_findings > 0 {
        Some(format!(
            "{} audit findings ({})",
            record.audit_findings, record.audit_rules
        ))
    } else {
        None
    };
    Outcome {
        counts: Counts::Campaign {
            final_degree: record.final_degree,
            messages: record.messages,
            rounds: record.rounds,
            quiescence_time: (record.executor != ExecutorKind::Pool.label())
                .then_some(record.quiescence_time),
        },
        ratios: Ratios::of(
            record.initial_degree,
            record.final_degree,
            record.degree_lower_bound,
            record.n,
            record.m,
            record.messages,
            record.quiescence_time,
        ),
        failure,
    }
}

/// Judges a model-checking report: no violation, the whole state space
/// covered, and exactly one (terminated) quiescent outcome, since a
/// fault-free run of the protocol is schedule-independent. `reference`
/// carries the instance's ratios from its simulator schedule.
pub fn judge_check(report: &mdst_check::CheckReport, reference: Ratios) -> Outcome {
    let failure = if let Some(v) = &report.violation {
        Some(format!("violation: {:?}", v.violation))
    } else if !report.complete {
        Some("state space not fully explored".to_string())
    } else if report.outcomes.len() != 1 || !report.outcomes[0].all_live_done {
        Some(format!(
            "{} quiescent outcomes; expected one terminated outcome",
            report.outcomes.len()
        ))
    } else {
        None
    };
    Outcome {
        counts: Counts::Check {
            max_degree: report.outcomes.first().map_or(0, |o| o.max_degree),
            states: report.stats.states_explored,
            revisits: report.stats.revisits_pruned,
        },
        ratios: reference,
        failure,
    }
}
