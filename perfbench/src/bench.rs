//! Set-up, the measured pass and the traced pass of one execution.
//!
//! Load is a closed loop on one thread: each run starts when the previous
//! one has returned, against one shared `TopologyCache` — what `scenario
//! run` does with one thread. Every timed segment is bracketed by the
//! calibration kernel and reported at the reference host speed (see
//! [`crate::calib`]).

use crate::calib::{Calibrator, Measured};
use crate::spans::{Tracer, NO_RUN};
use crate::workload::{
    greedy_tree, is_checked_topology, judge_check, judge_record, Counts, Item, Outcome, Ratios,
    Workload, CHECKED_TOPOLOGIES, CHECK_NODES,
};
use mdst_bench::fabric::{rounds as flood_ttl, EchoFloodSt};
use mdst_check::{CheckConfig, CheckReport};
use mdst_core::{bounds, survivor_report, MdstNode, Pipeline, PipelineConfig};
use mdst_graph::{Graph, NodeId, RootedTree};
use mdst_netsim::{ExecConfig, ExecRun, ExecStatus, SimConfig, SimError};
use mdst_scenario::report::campaign_to_json;
use mdst_scenario::runner::{aggregate_records, execute_run_cached, RunRecord, TopologyCache};
use mdst_scenario::spec::RunSpec;
use serde::Serialize as _;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::Arc;

/// A model-checked topology and its reference ratios.
struct Checked {
    graph: Arc<Graph>,
    /// Ratios of the instance's unit-delay simulator schedule, one of the
    /// schedules the checker explores.
    reference: Ratios,
}

/// One execution's inputs and the state shared by its runs.
pub struct Bench {
    workload: Workload,
    items: Vec<Item>,
    cache: TopologyCache,
    checked: Vec<Checked>,
    cal: Calibrator,
    /// First exact counts seen per instance key, in their `Debug` form:
    /// this execution's and, through [`Bench::remember`], earlier ones'.
    seen: BTreeMap<String, String>,
    /// Mean `Graph::memory_bytes / n` over the topologies of the last
    /// set-up repetition.
    pub bytes_per_node: f64,
}

/// What a run returned, before judging.
enum Executed {
    Record(RunRecord),
    /// A check report with its topology's reference ratios.
    Check(CheckReport, Ratios),
}

/// The untraced measured pass.
pub struct Pass {
    /// Each run, timed from outside.
    pub samples: Vec<Measured>,
    /// Judged outcome of each run.
    pub outcomes: Vec<Outcome>,
    /// The whole run list plus the campaign report.
    pub wall: Measured,
}

/// Everything the traced pass measures beyond the spans themselves.
#[derive(Default)]
pub struct TracedPass {
    /// Untraced milliseconds per run at the reference speed (interleaved
    /// with the traced run).
    pub untraced_ms: Vec<f64>,
    /// Per run id, reference over measured speed of its traced execution
    /// and probes; spans are scaled by it.
    pub speed: BTreeMap<u64, f64>,
    /// The same factor for the report.
    pub report_speed: f64,
    /// Outcomes of the traced runs.
    pub outcomes: Vec<Outcome>,
    /// Improvement messages over all traced runs.
    pub messages: u64,
    /// Improvement rounds over all traced runs.
    pub rounds: u64,
    /// Sum over traced runs of `(k − k*) / rounds`.
    pub drop_per_round_sum: f64,
    /// Improvement nanoseconds with trace recording on / off, same runs.
    pub improve_traced_ns: u64,
    /// See [`TracedPass::improve_traced_ns`].
    pub improve_untraced_ns: u64,
    /// Echo-flood messages and nanoseconds on the runs' topologies.
    pub fabric_msgs: u64,
    /// See [`TracedPass::fabric_msgs`].
    pub fabric_ns: u64,
    /// Trace events audited.
    pub audit_events: u64,
    /// Checker states explored and revisits pruned.
    pub check_states: u64,
    /// See [`TracedPass::check_states`].
    pub check_revisits: u64,
}

impl Bench {
    /// A bench over `items`; nothing is built until [`Bench::set_up`].
    pub fn new(workload: Workload, items: Vec<Item>) -> Bench {
        Bench {
            workload,
            items,
            cache: TopologyCache::new(),
            checked: Vec::new(),
            cal: Calibrator::new(workload.sensitivity()),
            seen: BTreeMap::new(),
            bytes_per_node: 0.0,
        }
    }

    /// Set-up, `reps` times: each repetition builds every topology through
    /// the program into a fresh cache, then runs the first
    /// [`Workload::warmup_runs`] runs, whose times are not samples. Returns
    /// each repetition's time; the last repetition's topologies serve the
    /// measured runs.
    pub fn set_up(
        &mut self,
        reps: usize,
        tracer: &mut Option<Tracer>,
    ) -> Result<Vec<Measured>, String> {
        (0..reps)
            .map(|_| {
                let watch = self.cal.start();
                self.build_topologies(tracer)?;
                let mut total = self.cal.stop(watch);
                for i in 0..self.workload.warmup_runs().min(self.items.len()) {
                    let (warmup, result, _) = self.run(i);
                    black_box(result);
                    total.raw_ms += warmup.raw_ms;
                    total.ms += warmup.ms;
                }
                Ok(total)
            })
            .collect()
    }

    /// Loads the exact counts an earlier execution of the same build saved
    /// with [`Bench::remembered`]; runs are then checked against them too.
    /// Lines without a tab are skipped.
    pub fn remember(&mut self, saved: &str) {
        for line in saved.lines() {
            if let Some((key, counts)) = line.split_once('\t') {
                self.seen.insert(key.to_string(), counts.to_string());
            }
        }
    }

    /// The exact counts seen so far, one `key<TAB>counts` line per instance.
    pub fn remembered(&self) -> String {
        self.seen
            .iter()
            .map(|(k, c)| format!("{k}\t{c}\n"))
            .collect()
    }

    fn build_topologies(&mut self, tracer: &mut Option<Tracer>) -> Result<(), String> {
        let setup = tracer.as_mut().map(|t| t.open("setup", None, NO_RUN));
        let graphs = match self.workload {
            Workload::ModelCheck => {
                let all = traced(tracer, "topology.build", setup, || {
                    mdst_check::connected_graphs(CHECK_NODES)
                });
                self.checked.clear();
                for graph in all {
                    let graph = Arc::new(graph);
                    if is_checked_topology(&graph, &greedy_tree(&graph)) {
                        let reference = reference_ratios(&graph)?;
                        self.checked.push(Checked { graph, reference });
                    }
                }
                if self.checked.len() != CHECKED_TOPOLOGIES {
                    return Err(format!(
                        "{} checked topologies, expected {CHECKED_TOPOLOGIES}",
                        self.checked.len()
                    ));
                }
                self.checked.iter().map(|c| Arc::clone(&c.graph)).collect()
            }
            _ => {
                self.cache = TopologyCache::new();
                let mut keys = BTreeSet::new();
                let mut graphs = Vec::new();
                for item in &self.items {
                    if let Item::Campaign(spec) = item {
                        if keys.insert(item.key()) {
                            graphs.push(traced(tracer, "topology.build", setup, || {
                                self.cache.get(&spec.graph, spec.seed)
                            })?);
                        }
                    }
                }
                graphs
            }
        };
        if let (Some(t), Some(id)) = (tracer.as_mut(), setup) {
            t.close(id);
        }
        let per_node: Vec<f64> = graphs
            .iter()
            .map(|g: &Arc<Graph>| g.memory_bytes() as f64 / g.node_count() as f64)
            .collect();
        self.bytes_per_node = crate::stats::mean(&per_node);
        Ok(())
    }

    /// Executes run `i` untraced, timed from outside, and judges it.
    fn run(&mut self, i: usize) -> (Measured, Executed, Outcome) {
        let watch = self.cal.start();
        let executed = match &self.items[i] {
            Item::Campaign(spec) => Executed::Record(execute_run_cached(spec, &self.cache)),
            Item::Check(t) => {
                let Checked { graph, reference } = &self.checked[*t];
                let tree = greedy_tree(graph);
                let report = mdst_check::check(graph, &tree, &CheckConfig::default());
                Executed::Check(report, *reference)
            }
        };
        let time = self.cal.stop(watch);
        let mut outcome = match &executed {
            Executed::Record(record) => judge_record(record),
            Executed::Check(report, reference) => judge_check(report, *reference),
        };
        self.compare_counts(i, &mut outcome);
        (time, executed, outcome)
    }

    /// Fails `outcome` when its exact counts differ from an earlier run of
    /// the same instance.
    fn compare_counts(&mut self, i: usize, outcome: &mut Outcome) {
        let key = self.items[i].key();
        let counts = format!("{:?}", outcome.counts);
        match self.seen.get(&key) {
            Some(first) if *first != counts => {
                let problem =
                    format!("{key}: counts {counts} differ from an earlier run's {first}");
                outcome.failure.get_or_insert(problem);
            }
            Some(_) => {}
            None => {
                self.seen.insert(key, counts);
            }
        }
    }

    /// The measured pass: every run of the list once, back to back, then
    /// the campaign report.
    pub fn measure(&mut self) -> Pass {
        let mut samples = Vec::with_capacity(self.items.len());
        let mut outcomes = Vec::with_capacity(self.items.len());
        let mut executed = Vec::with_capacity(self.items.len());
        for i in 0..self.items.len() {
            let (time, result, outcome) = self.run(i);
            samples.push(time);
            outcomes.push(outcome);
            executed.push(result);
        }
        let watch = self.cal.start();
        let problem = self.report(executed);
        let report = self.cal.stop(watch);
        let wall = Measured {
            raw_ms: report.raw_ms + samples.iter().map(|m| m.raw_ms).sum::<f64>(),
            ms: report.ms + samples.iter().map(|m| m.ms).sum::<f64>(),
        };
        if let Some(problem) = problem {
            // A report that disagrees with its records fails the last run.
            if let Some(last) = outcomes.last_mut() {
                last.failure.get_or_insert(problem);
            }
        }
        Pass {
            samples,
            outcomes,
            wall,
        }
    }

    /// Renders the pass's report the way `scenario run` does: aggregate the
    /// records, then serialize. Returns a problem if the report's totals
    /// disagree with the records.
    fn report(&self, executed: Vec<Executed>) -> Option<String> {
        let runs = executed.len();
        let mut records = Vec::new();
        let mut checks = Vec::new();
        for e in executed {
            match e {
                Executed::Record(r) => records.push(r),
                Executed::Check(c, _) => checks.push(c.to_value()),
            }
        }
        if !checks.is_empty() {
            black_box(serde::Value::Array(checks).to_json_pretty());
            return None;
        }
        let failed = records.iter().filter(|r| r.error.is_some()).count();
        let name = self.workload.name().to_string();
        let report = aggregate_records(&name, std::slice::from_ref(&name), records, 1, None, 0.0);
        black_box(campaign_to_json(&report));
        (report.total.runs != runs || report.total.failures != failed).then(|| {
            format!(
                "report counts {} runs / {} failures; the records have {runs} / {failed}",
                report.total.runs, report.total.failures
            )
        })
    }

    /// The traced pass: each run once untraced and once split into spans
    /// at every layer call (alternating which goes first), then the report
    /// under its own span. A run fails if either execution fails.
    pub fn measure_traced(&mut self, tracer: &mut Tracer) -> TracedPass {
        let mut pass = TracedPass::default();
        let mut executed = Vec::with_capacity(self.items.len());
        for i in 0..self.items.len() {
            let (traced, (time, result, untraced)) = if i % 2 == 0 {
                let untraced = self.run(i);
                (self.run_traced(i, tracer, &mut pass), untraced)
            } else {
                let traced = self.run_traced(i, tracer, &mut pass);
                (traced, self.run(i))
            };
            let outcome = match traced {
                Ok(mut outcome) => {
                    self.compare_counts(i, &mut outcome);
                    if let Some(problem) = untraced.failure {
                        outcome.failure.get_or_insert(problem);
                    }
                    outcome
                }
                Err(e) => Outcome {
                    failure: Some(e),
                    ..untraced
                },
            };
            pass.untraced_ms.push(time.ms);
            pass.outcomes.push(outcome);
            executed.push(result);
        }
        let watch = self.cal.start();
        let report = tracer.open("report", None, NO_RUN);
        let problem = self.report(executed);
        tracer.close(report);
        pass.report_speed = self.cal.stop(watch).speed();
        if let (Some(problem), Some(last)) = (problem, pass.outcomes.last_mut()) {
            last.failure.get_or_insert(problem);
        }
        pass
    }

    /// Run `i` split into spans, then its probes, timed together for their
    /// speed factor.
    fn run_traced(
        &mut self,
        i: usize,
        tracer: &mut Tracer,
        pass: &mut TracedPass,
    ) -> Result<Outcome, String> {
        let watch = self.cal.start();
        let outcome = self.spans_of_run(i, tracer, pass);
        let run = i as u64;
        pass.speed.insert(run, self.cal.stop(watch).speed());
        outcome
    }

    fn spans_of_run(
        &self,
        i: usize,
        tracer: &mut Tracer,
        pass: &mut TracedPass,
    ) -> Result<Outcome, String> {
        let run = i as u64;
        let root = tracer.open("run", None, run);
        let outcome = match &self.items[i] {
            Item::Campaign(spec) => self.campaign_traced(spec, tracer, root, run, pass),
            Item::Check(t) => {
                let checked = &self.checked[*t];
                let graph = tracer.time("topology.lookup", Some(root), run, || {
                    Arc::clone(&checked.graph)
                });
                let tree = tracer.time("construct", Some(root), run, || greedy_tree(&graph));
                let report = tracer.time("check", Some(root), run, || {
                    mdst_check::check(&graph, &tree, &CheckConfig::default())
                });
                pass.check_states += report.stats.states_explored as u64;
                pass.check_revisits += report.stats.revisits_pruned as u64;
                Ok(judge_check(&report, checked.reference))
            }
        };
        tracer.close(root);
        if let (Item::Campaign(spec), Ok(Outcome { failure: None, .. })) =
            (&self.items[i], &outcome)
        {
            self.probes(spec, tracer, run, pass);
        }
        outcome
    }

    /// One campaign run, phase by phase, each phase a span around the same
    /// public call `execute_run_cached` makes (through `Pipeline::run`).
    fn campaign_traced(
        &self,
        spec: &RunSpec,
        tracer: &mut Tracer,
        root: usize,
        run: u64,
        pass: &mut TracedPass,
    ) -> Result<Outcome, String> {
        let graph = tracer.time("topology.lookup", Some(root), run, || {
            self.cache.get(&spec.graph, spec.seed)
        })?;
        let config = spec.pipeline_config().map_err(|e| e.to_string())?;
        let tree = tracer.time("construct", Some(root), run, || {
            let (tree, _) = mdst_spanning::build_initial_tree(&graph, config.root, config.initial)?;
            tree.validate_against(&graph).map(|()| tree)
        });
        let tree = tree.map_err(|e| e.to_string())?;
        let span = tracer.open("improve", Some(root), run);
        let exec = improve(&graph, &tree, &config);
        let improve_ns = tracer.close(span);
        let exec = exec.map_err(|e| e.to_string())?;
        let survivor = tracer.time("survivor", Some(root), run, || {
            let parents: Vec<Option<NodeId>> = exec.nodes.iter().map(|p| p.parent()).collect();
            let survivor = survivor_report(&graph, &parents, &exec.crashed);
            let tree =
                mdst_spanning::collect_tree(&exec.nodes).and_then(|t| t.validate_against(&graph));
            (survivor, tree)
        });
        let (lower, upper) = tracer.time("grade", Some(root), run, || {
            (
                bounds::degree_lower_bound(&graph),
                bounds::paper_degree_upper_bound(&graph),
            )
        });
        let findings = spec.audit.then(|| {
            tracer.time("audit", Some(root), run, || {
                mdst_analysis::audit(&exec.trace).findings.len()
            })
        });

        let (survivor, collected) = survivor;
        let k = tree.max_degree();
        let k_star = survivor.max_degree;
        let rounds = exec.nodes.iter().map(|p| p.round()).max().unwrap_or(0);
        let messages = exec.metrics.messages_total;
        let time = exec.metrics.quiescence_time;
        let failure = if exec.status != ExecStatus::Quiesced || !exec.all_terminated() {
            Some(format!("traced run ended {:?}", exec.status))
        } else if let Err(e) = collected {
            Some(format!("traced run's final tree: {e}"))
        } else if !survivor.spans_component {
            Some("traced run's tree does not span the graph".to_string())
        } else if k_star > upper || k_star < lower || k_star > k {
            Some(format!(
                "traced final degree {k_star} outside [{lower}, {upper}] or above {k}"
            ))
        } else if findings.unwrap_or(0) > 0 {
            Some(format!("{} audit findings", findings.unwrap_or(0)))
        } else {
            None
        };

        pass.messages += messages;
        pass.rounds += u64::from(rounds);
        pass.drop_per_round_sum += (k - k_star.min(k)) as f64 / f64::from(rounds.max(1));
        if spec.audit {
            pass.improve_traced_ns += improve_ns;
            pass.audit_events += exec.trace.events().len() as u64;
        } else {
            pass.improve_untraced_ns += improve_ns;
        }
        Ok(Outcome {
            counts: Counts::Campaign {
                final_degree: k_star,
                messages,
                rounds,
                quiescence_time: (config.executor != mdst_netsim::ExecutorKind::Pool)
                    .then_some(time),
            },
            ratios: Ratios::of(
                k,
                k_star,
                lower,
                graph.node_count(),
                graph.edge_count(),
                messages,
                time,
            ),
            failure,
        })
    }

    /// Out-of-run probes on the same topology and executor: the improvement
    /// again with trace recording flipped (for the trace-overhead ratio) and
    /// the echo-flood fabric fixture (the fabric floor).
    fn probes(&self, spec: &RunSpec, tracer: &mut Tracer, run: u64, pass: &mut TracedPass) {
        let Ok(graph) = self.cache.get(&spec.graph, spec.seed) else {
            return;
        };
        let Ok(mut config) = spec.pipeline_config() else {
            return;
        };
        config.sim.record_trace = !spec.audit;
        if let Ok((tree, _)) =
            mdst_spanning::build_initial_tree(&graph, config.root, config.initial)
        {
            let id = tracer.open("probe.improve", None, run);
            black_box(improve(&graph, &tree, &config).ok());
            let ns = tracer.close(id);
            if config.sim.record_trace {
                pass.improve_traced_ns += ns;
            } else {
                pass.improve_untraced_ns += ns;
            }
        }
        let flood = ExecConfig {
            sim: SimConfig::default(),
            workers: config.workers,
            batch: config.batch,
        };
        let ttl = flood_ttl(graph.node_count());
        let id = tracer.open("probe.fabric", None, run);
        let exec = config
            .executor
            .run(&graph, |id, _| EchoFloodSt::new(id, ttl), &flood);
        let ns = tracer.close(id);
        if let Ok(exec) = exec {
            pass.fabric_msgs += exec.metrics.messages_total;
            pass.fabric_ns += ns;
        }
    }
}

/// The improvement phase: the executor call `Pipeline::run` and
/// `run_distributed_mdst_on` both make.
fn improve(
    graph: &Arc<Graph>,
    tree: &RootedTree,
    config: &PipelineConfig,
) -> Result<ExecRun<MdstNode>, SimError> {
    let nodes = MdstNode::from_tree(tree);
    config.executor.run(
        graph,
        |id, _| nodes[id.index()].clone(),
        &config.exec_config(),
    )
}

/// Ratios of a checked topology's unit-delay simulator schedule.
fn reference_ratios(graph: &Arc<Graph>) -> Result<Ratios, String> {
    let report = Pipeline::on(graph)
        .initial_tree(greedy_tree(graph))
        .run()
        .map_err(|e| e.to_string())?;
    Ok(Ratios::of(
        report.initial_degree,
        report.final_degree,
        bounds::degree_lower_bound(graph),
        report.n,
        report.m,
        report.improvement_metrics.messages_total,
        report.improvement_metrics.quiescence_time,
    ))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs `f` under a span when tracing, plain otherwise.
fn traced<R>(
    tracer: &mut Option<Tracer>,
    name: &'static str,
    parent: Option<usize>,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.time(name, parent, NO_RUN, f),
        None => f(),
    }
}
