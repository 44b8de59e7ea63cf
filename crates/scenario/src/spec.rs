//! Declarative scenario specifications.
//!
//! A [`ScenarioMatrix`] describes an experiment campaign: one or more
//! [`ScenarioSpec`]s, each naming a graph source (a generator family with
//! parameter *lists*, or an external file), the initial-tree constructions,
//! delay models, start models and seeds to sweep. [`ScenarioMatrix::expand`]
//! takes the cartesian product of every axis and yields the flat list of
//! [`RunSpec`]s the parallel runner executes.
//!
//! Specs load from TOML (see `examples/sweep.toml`) or JSON; both decode into
//! the same [`serde::Value`] tree, so the two formats are interchangeable.

use crate::io::GraphFormat;
use crate::toml;
use mdst_graph::{generators, Graph, NodeId};
use mdst_netsim::sim::StartModel;
use mdst_netsim::{CrashAt, CutAt, DelayModel, ExecutorKind, FaultPlan, SimConfig};
use mdst_spanning::InitialTreeKind;
use serde::Value;
use std::fmt;

/// Error produced while loading, validating or expanding a scenario spec.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario spec error: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn spec_err<T>(msg: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError(msg.into()))
}

/// A full campaign: a name plus the scenarios to sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioMatrix {
    /// Campaign name (used in reports).
    pub name: String,
    /// Default cap on runner worker threads (`[campaign] parallelism = N`);
    /// `None` means one per available CPU. A non-zero
    /// `RunnerConfig::threads` (the CLI `--jobs` flag) overrides it.
    pub parallelism: Option<usize>,
    /// The scenarios; each expands independently.
    pub scenarios: Vec<ScenarioSpec>,
}

/// One scenario: a graph source and the axes swept over it.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (used to group campaign statistics).
    pub name: String,
    /// Where graphs come from.
    pub graph: GraphSpec,
    /// Initial-tree constructions to sweep (see [`parse_initial_kind`]).
    pub initial: Vec<String>,
    /// Delay models to sweep.
    pub delay: Vec<DelaySpec>,
    /// Start models to sweep.
    pub start: Vec<StartSpec>,
    /// Fault plans to sweep (message loss, node crashes, link cuts).
    pub faults: Vec<FaultSpec>,
    /// Executor backends to sweep (`"sim"`, `"pool"`). The pool only
    /// combines with unit delays, simultaneous starts and benign fault
    /// plans; the spec parser rejects anything else.
    pub executor: Vec<ExecutorKind>,
    /// Worker threads for pool-backed runs (`0` = auto).
    pub workers: usize,
    /// Drain-batch axis for pool-backed runs (`batch = 128` /
    /// `batch = [0, 16, 256]`; `0` = the backend default). Swept like any
    /// other axis so campaigns can chart throughput against batch size.
    pub batch: Vec<usize>,
    /// Trace-audit axis (`audit = true` / `audit = [false, true]`). Audited
    /// runs record a message trace on every backend and replay it through the
    /// `mdst-analysis` happens-before auditor after the run finishes.
    pub audit: Vec<bool>,
    /// Seeds to sweep; each seed produces an independent run (and, for seeded
    /// generator families, an independent graph).
    pub seeds: Vec<u64>,
    /// Root / initiator node of every run.
    pub root: usize,
    /// Event cap handed to the simulator.
    pub max_events: u64,
}

/// Graph source of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphSpec {
    /// A generator family from [`mdst_graph::generators`], each parameter
    /// given as a single value or a list of values to sweep.
    Family {
        /// Family name, e.g. `"gnp_connected"`.
        family: String,
        /// Parameter lists, in spec order.
        params: Vec<(String, Vec<ParamValue>)>,
    },
    /// An external graph file (edge list, DIMACS, METIS or MatrixMarket;
    /// `.gz` variants decompress transparently).
    File {
        /// Path, relative to the process working directory.
        path: String,
        /// Explicit format; inferred from the extension when absent.
        format: Option<GraphFormat>,
    },
    /// A list of external graph files swept as an axis
    /// (`graph_files = ["a.mtx.gz", "b.graph", …]`): each file expands to
    /// its own set of runs, so a published benchmark suite sweeps straight
    /// from disk.
    Files {
        /// Paths, relative to the process working directory.
        paths: Vec<String>,
        /// Explicit format applied to every file; per-file extension
        /// inference when absent.
        format: Option<GraphFormat>,
    },
}

/// A scalar generator parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamValue {
    /// Integer-valued parameter (sizes, counts).
    Int(u64),
    /// Real-valued parameter (probabilities, radii).
    Float(f64),
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Int(i) => write!(f, "{i}"),
            ParamValue::Float(x) => write!(f, "{x}"),
        }
    }
}

impl ParamValue {
    fn as_usize(&self) -> Result<usize, SpecError> {
        match self {
            ParamValue::Int(i) => {
                usize::try_from(*i).map_err(|_| SpecError("parameter too large".into()))
            }
            ParamValue::Float(_) => spec_err("expected an integer parameter"),
        }
    }

    fn as_f64(&self) -> f64 {
        match self {
            ParamValue::Int(i) => *i as f64,
            ParamValue::Float(x) => *x,
        }
    }
}

/// Delay model axis entry (the per-run RNG seed is filled in at expansion).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelaySpec {
    /// Unit delays (the paper's accounting model).
    Unit,
    /// Seeded uniform random delays in `[min, max]`.
    Uniform {
        /// Smallest delay.
        min: u64,
        /// Largest delay.
        max: u64,
    },
    /// Fixed per-link delays in `[min, max]` (adversarially skewed network).
    PerLink {
        /// Smallest delay.
        min: u64,
        /// Largest delay.
        max: u64,
    },
}

impl DelaySpec {
    /// Concrete delay model for one run.
    pub fn to_model(&self, seed: u64) -> DelayModel {
        match *self {
            DelaySpec::Unit => DelayModel::Unit,
            DelaySpec::Uniform { min, max } => DelayModel::UniformRandom { min, max, seed },
            DelaySpec::PerLink { min, max } => DelayModel::PerLinkFixed { min, max, seed },
        }
    }

    /// Short label used in reports.
    pub fn label(&self) -> String {
        match self {
            DelaySpec::Unit => "unit".to_string(),
            DelaySpec::Uniform { min, max } => format!("uniform({min},{max})"),
            DelaySpec::PerLink { min, max } => format!("per-link({min},{max})"),
        }
    }
}

/// Fault-injection axis entry. The per-run loss seed is filled in at
/// expansion, like the delay seed, so replicated seeds replicate the faults.
///
/// TOML shape (every field optional; `faults = "none"` is the explicit
/// no-fault entry):
///
/// ```text
/// faults = [
///     "none",
///     { loss = 0.05 },
///     { loss = 0.01, crashes = [[3, 40]], cuts = [[0, 1, 25]] },
/// ]
/// ```
///
/// `crashes` entries are `[node, time]` pairs; `cuts` entries are
/// `[u, v, time]` triples cutting the undirected link `{u, v}` at `time`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpec {
    /// Per-send message-loss probability in `[0, 1]`.
    pub loss: f64,
    /// Scheduled crashes as `(node, time)` pairs.
    pub crashes: Vec<(usize, u64)>,
    /// Scheduled link cuts as `(u, v, time)` triples.
    pub cuts: Vec<(usize, usize, u64)>,
}

impl FaultSpec {
    /// The no-fault entry (the implicit value when a scenario has no
    /// `faults` key).
    pub fn none() -> Self {
        FaultSpec::default()
    }

    /// Whether this entry injects nothing.
    pub fn is_none(&self) -> bool {
        self.loss == 0.0 && self.crashes.is_empty() && self.cuts.is_empty()
    }

    /// Concrete fault plan for one run. A benign spec produces the default
    /// (empty) plan — seed included — so a `faults = "none"` run is
    /// bit-identical to a run from a spec without a `faults` key.
    pub fn to_plan(&self, seed: u64) -> FaultPlan {
        if self.is_none() {
            return FaultPlan::none();
        }
        FaultPlan {
            loss: self.loss,
            seed,
            crashes: self
                .crashes
                .iter()
                .map(|&(node, at)| CrashAt {
                    node: NodeId::new(node),
                    at,
                })
                .collect(),
            cuts: self
                .cuts
                .iter()
                .map(|&(a, b, at)| CutAt {
                    a: NodeId::new(a),
                    b: NodeId::new(b),
                    at,
                })
                .collect(),
        }
    }

    /// Short label used in reports, e.g. `loss(0.05)+crashes(2)`.
    pub fn label(&self) -> String {
        if self.is_none() {
            return "none".to_string();
        }
        let mut parts = Vec::new();
        if self.loss > 0.0 {
            parts.push(format!("loss({})", self.loss));
        }
        if !self.crashes.is_empty() {
            parts.push(format!("crashes({})", self.crashes.len()));
        }
        if !self.cuts.is_empty() {
            parts.push(format!("cuts({})", self.cuts.len()));
        }
        parts.join("+")
    }

    fn from_spec_value(value: &Value, scenario: &str) -> Result<Self, SpecError> {
        if let Some(s) = value.as_str() {
            return match s {
                "none" => Ok(FaultSpec::none()),
                other => spec_err(format!(
                    "scenario `{scenario}`: unknown faults entry `{other}` \
                     (\"none\", or a table with loss / crashes / cuts)"
                )),
            };
        }
        let Some(obj) = value.as_object() else {
            return spec_err(format!(
                "scenario `{scenario}`: every faults entry must be \"none\" or a table"
            ));
        };
        for (key, _) in obj {
            if !matches!(key.as_str(), "loss" | "crashes" | "cuts") {
                return spec_err(format!(
                    "scenario `{scenario}`: faults table does not take a key `{key}` \
                     (accepted: loss, crashes, cuts)"
                ));
            }
        }
        let loss = match value.get("loss") {
            None => 0.0,
            Some(v) => v.as_f64().ok_or_else(|| {
                SpecError(format!(
                    "scenario `{scenario}`: faults `loss` must be a number"
                ))
            })?,
        };
        if !loss.is_finite() || !(0.0..=1.0).contains(&loss) {
            return spec_err(format!(
                "scenario `{scenario}`: faults `loss` must be in [0, 1], got {loss}"
            ));
        }
        let crashes = match value.get("crashes") {
            None => Vec::new(),
            Some(v) => tuple_list::<2>(v)
                .ok_or_else(|| {
                    SpecError(format!(
                        "scenario `{scenario}`: faults `crashes` must be a list of \
                         [node, time] integer pairs"
                    ))
                })?
                .into_iter()
                .map(|[node, at]| (node as usize, at))
                .collect(),
        };
        let cuts = match value.get("cuts") {
            None => Vec::new(),
            Some(v) => tuple_list::<3>(v)
                .ok_or_else(|| {
                    SpecError(format!(
                        "scenario `{scenario}`: faults `cuts` must be a list of \
                         [u, v, time] integer triples"
                    ))
                })?
                .into_iter()
                .map(|[a, b, at]| (a as usize, b as usize, at))
                .collect(),
        };
        Ok(FaultSpec {
            loss,
            crashes,
            cuts,
        })
    }
}

/// Start model axis entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StartSpec {
    /// Every node wakes at time zero.
    Simultaneous,
    /// Random wake-ups in `[0, max_offset]`.
    Staggered {
        /// Largest wake-up offset.
        max_offset: u64,
    },
}

impl StartSpec {
    /// Concrete start model for one run.
    pub fn to_model(&self, seed: u64) -> StartModel {
        match *self {
            StartSpec::Simultaneous => StartModel::Simultaneous,
            StartSpec::Staggered { max_offset } => StartModel::Staggered { max_offset, seed },
        }
    }

    /// Short label used in reports.
    pub fn label(&self) -> String {
        match self {
            StartSpec::Simultaneous => "simultaneous".to_string(),
            StartSpec::Staggered { max_offset } => format!("staggered({max_offset})"),
        }
    }
}

/// A fully resolved graph source for one run.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolvedGraph {
    /// A generator family with scalar parameters.
    Family {
        /// Family name.
        family: String,
        /// Resolved scalar parameters, in spec order.
        params: Vec<(String, ParamValue)>,
    },
    /// An external file.
    File {
        /// Path to the file.
        path: String,
        /// Explicit format, if any.
        format: Option<GraphFormat>,
    },
}

impl ResolvedGraph {
    /// Human-readable label, e.g. `gnp_connected(n=32,p=0.1)`.
    pub fn label(&self) -> String {
        match self {
            ResolvedGraph::Family { family, params } => {
                if params.is_empty() {
                    format!("{family}()")
                } else {
                    let args: Vec<String> =
                        params.iter().map(|(k, v)| format!("{k}={v}")).collect();
                    format!("{family}({})", args.join(","))
                }
            }
            ResolvedGraph::File { path, .. } => format!("file({path})"),
        }
    }

    fn param(&self, name: &str) -> Option<ParamValue> {
        match self {
            ResolvedGraph::Family { params, .. } => {
                params.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
            }
            ResolvedGraph::File { .. } => None,
        }
    }

    /// Declared node-count hint of the source, readable before any build:
    /// the `n` parameter of a generator family. `None` for file sources and
    /// parameterless families (the serve cost model then falls back to
    /// observed sizes, or to no prediction at all).
    pub fn n_hint(&self) -> Option<usize> {
        self.param("n").and_then(|v| v.as_usize().ok())
    }

    fn usize_param(&self, name: &str, family: &str) -> Result<usize, SpecError> {
        self.param(name)
            .ok_or_else(|| SpecError(format!("family `{family}` needs parameter `{name}`")))?
            .as_usize()
            .map_err(|e| SpecError(format!("family `{family}`, parameter `{name}`: {e}")))
    }

    fn f64_param(&self, name: &str, family: &str) -> Result<f64, SpecError> {
        Ok(self
            .param(name)
            .ok_or_else(|| SpecError(format!("family `{family}` needs parameter `{name}`")))?
            .as_f64())
    }

    /// Builds the graph. `seed` drives the seeded families (a `seed` parameter
    /// in the spec, if present, is added as a fixed offset so sweeps can be
    /// displaced without rewriting the seed list).
    pub fn build(&self, seed: u64) -> Result<Graph, SpecError> {
        match self {
            ResolvedGraph::File { path, format } => crate::io::load_graph(path, *format)
                .map_err(|e| SpecError(format!("loading `{path}`: {e}"))),
            ResolvedGraph::Family { family, .. } => {
                let offset = match self.param("seed") {
                    None => 0,
                    Some(ParamValue::Int(i)) => i,
                    Some(ParamValue::Float(_)) => {
                        return spec_err(format!(
                            "family `{family}`: the `seed` parameter must be an integer"
                        ))
                    }
                };
                let seed = seed.wrapping_add(offset);
                let g = match family.as_str() {
                    "complete" => generators::complete(self.usize_param("n", family)?),
                    "path" => generators::path(self.usize_param("n", family)?),
                    "cycle" => generators::cycle(self.usize_param("n", family)?),
                    "star" => generators::star(self.usize_param("n", family)?),
                    "wheel" => generators::wheel(self.usize_param("n", family)?),
                    "star_with_leaf_edges" | "star_plus_path" => {
                        generators::star_with_leaf_edges(self.usize_param("n", family)?)
                    }
                    "petersen" => generators::petersen(),
                    "grid" => generators::grid(
                        self.usize_param("rows", family)?,
                        self.usize_param("cols", family)?,
                    ),
                    "hypercube" => generators::hypercube(self.usize_param("d", family)?),
                    "complete_bipartite" => generators::complete_bipartite(
                        self.usize_param("a", family)?,
                        self.usize_param("b", family)?,
                    ),
                    "binary_tree_plus" => generators::binary_tree_plus(
                        self.usize_param("n", family)?,
                        self.usize_param("extra", family)?,
                        seed,
                    ),
                    "caterpillar" => generators::caterpillar(
                        self.usize_param("spine", family)?,
                        self.usize_param("legs", family)?,
                    ),
                    "barbell" => generators::barbell(
                        self.usize_param("k", family)?,
                        self.usize_param("bridge", family)?,
                    ),
                    "lollipop" => generators::lollipop(
                        self.usize_param("k", family)?,
                        self.usize_param("tail", family)?,
                    ),
                    "gnp" => generators::gnp(
                        self.usize_param("n", family)?,
                        self.f64_param("p", family)?,
                        seed,
                    ),
                    "gnp_connected" => generators::gnp_connected(
                        self.usize_param("n", family)?,
                        self.f64_param("p", family)?,
                        seed,
                    ),
                    "random_geometric_connected" | "geometric" => {
                        generators::random_geometric_connected(
                            self.usize_param("n", family)?,
                            self.f64_param("radius", family)?,
                            seed,
                        )
                    }
                    "random_connected" => generators::random_connected(
                        self.usize_param("n", family)?,
                        self.usize_param("extra", family)?,
                        seed,
                    ),
                    "high_optimum" => generators::high_optimum(
                        self.usize_param("branches", family)?,
                        self.usize_param("branch_len", family)?,
                    ),
                    other => {
                        return spec_err(format!(
                            "unknown graph family `{other}` (known: {})",
                            KNOWN_FAMILIES.join(", ")
                        ))
                    }
                };
                g.map_err(|e| SpecError(format!("{}: {e}", self.label())))
            }
        }
    }
}

/// Generator families the spec language accepts.
pub const KNOWN_FAMILIES: &[&str] = &[
    "complete",
    "path",
    "cycle",
    "star",
    "wheel",
    "star_with_leaf_edges",
    "petersen",
    "grid",
    "hypercube",
    "complete_bipartite",
    "binary_tree_plus",
    "caterpillar",
    "barbell",
    "lollipop",
    "gnp",
    "gnp_connected",
    "random_geometric_connected",
    "random_connected",
    "high_optimum",
];

/// The parameters each family accepts (beyond the optional `seed` offset of
/// the seeded families). Canonical family names only; aliases are normalised
/// before lookup.
fn family_params(family: &str) -> Option<(&'static [&'static str], bool)> {
    // (accepted parameter names, takes a seed)
    Some(match family {
        "complete" | "path" | "cycle" | "star" | "wheel" | "star_with_leaf_edges" => {
            (&["n"], false)
        }
        "petersen" => (&[], false),
        "grid" => (&["rows", "cols"], false),
        "hypercube" => (&["d"], false),
        "complete_bipartite" => (&["a", "b"], false),
        "binary_tree_plus" => (&["n", "extra"], true),
        "caterpillar" => (&["spine", "legs"], false),
        "barbell" => (&["k", "bridge"], false),
        "lollipop" => (&["k", "tail"], false),
        "gnp" | "gnp_connected" => (&["n", "p"], true),
        "random_geometric_connected" => (&["n", "radius"], true),
        "random_connected" => (&["n", "extra"], true),
        "high_optimum" => (&["branches", "branch_len"], false),
        _ => return None,
    })
}

/// Parses a graph-format spelling from a spec (`format` / `graph_format`).
fn parse_format_name(spelling: &str, scenario: &str) -> Result<GraphFormat, SpecError> {
    match spelling.to_ascii_lowercase().replace('-', "_").as_str() {
        "edge_list" | "edgelist" | "el" => Ok(GraphFormat::EdgeList),
        "dimacs" => Ok(GraphFormat::Dimacs),
        "metis" | "graph" => Ok(GraphFormat::Metis),
        "matrix_market" | "matrixmarket" | "mtx" => Ok(GraphFormat::MatrixMarket),
        other => Err(SpecError(format!(
            "scenario `{scenario}`: unknown graph format `{other}` \
             (edge_list | dimacs | metis | matrix_market)"
        ))),
    }
}

/// Normalises the family aliases accepted by [`ResolvedGraph::build`].
fn canonical_family(family: &str) -> &str {
    match family {
        "star_plus_path" => "star_with_leaf_edges",
        "geometric" => "random_geometric_connected",
        other => other,
    }
}

/// One executable unit of a campaign: a fully resolved configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Name of the scenario this run belongs to.
    pub scenario: String,
    /// Graph source with resolved parameters.
    pub graph: ResolvedGraph,
    /// Initial-tree construction name (resolved via [`parse_initial_kind`]).
    pub initial: String,
    /// Delay model axis entry.
    pub delay: DelaySpec,
    /// Start model axis entry.
    pub start: StartSpec,
    /// Fault-injection axis entry.
    pub faults: FaultSpec,
    /// Executor backend of this run.
    pub executor: ExecutorKind,
    /// Worker threads for the pool backend (`0` = auto).
    pub workers: usize,
    /// Drain-batch size for the pool backend (`0` = backend default).
    pub batch: usize,
    /// Whether this run records a trace and feeds it to the happens-before
    /// auditor.
    pub audit: bool,
    /// Seed of the run (drives graph generation, delays, start offsets and
    /// the loss coin stream).
    pub seed: u64,
    /// Root / initiator.
    pub root: usize,
    /// Simulator event cap.
    pub max_events: u64,
}

impl RunSpec {
    /// The pipeline configuration of this run.
    pub fn pipeline_config(&self) -> Result<mdst_core::PipelineConfig, SpecError> {
        Ok(mdst_core::PipelineConfig {
            initial: parse_initial_kind(&self.initial, self.seed)?,
            root: NodeId::new(self.root),
            sim: SimConfig {
                delay: self.delay.to_model(self.seed ^ 0xD1B5_4A32_D192_ED03),
                start: self.start.to_model(self.seed ^ 0x8CB9_2BA7_2F3D_8DD7),
                max_events: self.max_events,
                record_trace: self.audit,
                faults: self.faults.to_plan(self.seed ^ 0x1F85_D2F6_0B5E_AD4C),
            },
            executor: self.executor,
            workers: self.workers,
            batch: self.batch,
        })
    }
}

/// Resolves an initial-tree construction name.
pub fn parse_initial_kind(name: &str, seed: u64) -> Result<InitialTreeKind, SpecError> {
    match name.to_ascii_lowercase().replace('-', "_").as_str() {
        "greedy_hub" | "greedyhub" => Ok(InitialTreeKind::GreedyHub),
        "bfs" => Ok(InitialTreeKind::Bfs),
        "dfs" => Ok(InitialTreeKind::Dfs),
        "random" => Ok(InitialTreeKind::Random(seed)),
        "flooding" | "dist_flooding" | "distributed_flooding" => {
            Ok(InitialTreeKind::DistributedFlooding)
        }
        "token" | "dist_token" | "distributed_token" => Ok(InitialTreeKind::DistributedToken),
        other => spec_err(format!(
            "unknown initial tree kind `{other}` \
             (known: greedy_hub, bfs, dfs, random, flooding, token)"
        )),
    }
}

impl ScenarioMatrix {
    /// Loads a matrix from TOML text.
    pub fn from_toml_str(input: &str) -> Result<Self, SpecError> {
        let value = toml::parse(input).map_err(|e| SpecError(e.to_string()))?;
        Self::from_spec_value(&value)
    }

    /// Loads a matrix from JSON text.
    pub fn from_json_str(input: &str) -> Result<Self, SpecError> {
        let value = serde::from_json_str(input).map_err(|e| SpecError(e.to_string()))?;
        Self::from_spec_value(&value)
    }

    /// Loads a matrix from a file, dispatching on the `.json` extension
    /// (everything else is treated as TOML).
    pub fn from_path(path: impl AsRef<std::path::Path>) -> Result<Self, SpecError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| SpecError(format!("{}: {e}", path.display())))?;
        if path
            .extension()
            .and_then(|e| e.to_str())
            .is_some_and(|e| e.eq_ignore_ascii_case("json"))
        {
            Self::from_json_str(&text)
        } else {
            Self::from_toml_str(&text)
        }
    }

    /// Decodes a matrix from a spec [`Value`] tree (shared by TOML and JSON).
    pub fn from_spec_value(value: &Value) -> Result<Self, SpecError> {
        let name = match value.get("campaign").and_then(|c| c.get("name")) {
            Some(v) => v
                .as_str()
                .ok_or_else(|| SpecError("campaign.name must be a string".into()))?
                .to_string(),
            None => "campaign".to_string(),
        };
        let parallelism = match value.get("campaign").and_then(|c| c.get("parallelism")) {
            None => None,
            Some(v) => {
                let p = v.as_u64().ok_or_else(|| {
                    SpecError("campaign.parallelism must be a positive integer".into())
                })?;
                if p == 0 {
                    return spec_err("campaign.parallelism must be at least 1");
                }
                Some(p as usize)
            }
        };
        let Some(list) = value.get("scenario") else {
            return spec_err("spec has no [[scenario]] entries");
        };
        let list = list
            .as_array()
            .ok_or_else(|| SpecError("`scenario` must be an array of tables".into()))?;
        if list.is_empty() {
            return spec_err("spec has no [[scenario]] entries");
        }
        let scenarios = list
            .iter()
            .map(ScenarioSpec::from_spec_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ScenarioMatrix {
            name,
            parallelism,
            scenarios,
        })
    }

    /// Expands every scenario into its cartesian product of runs.
    pub fn expand(&self) -> Result<Vec<RunSpec>, SpecError> {
        let mut runs = Vec::new();
        for scenario in &self.scenarios {
            scenario.expand_into(&mut runs)?;
        }
        Ok(runs)
    }
}

impl ScenarioSpec {
    fn from_spec_value(value: &Value) -> Result<Self, SpecError> {
        let name = value
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| SpecError("every scenario needs a string `name`".into()))?
            .to_string();
        let graph = match (value.get("graph"), value.get("graph_files")) {
            (Some(_), Some(_)) => {
                return spec_err(format!(
                    "scenario `{name}`: give either a `graph` table or a `graph_files` \
                     list, not both"
                ))
            }
            (Some(g), None) => GraphSpec::from_spec_value(g, &name)?,
            (None, Some(files)) => {
                let paths = string_list(files).ok_or_else(|| {
                    SpecError(format!(
                        "scenario `{name}`: `graph_files` must be a string or list of strings"
                    ))
                })?;
                if paths.is_empty() {
                    return spec_err(format!("scenario `{name}`: `graph_files` is empty"));
                }
                let format = match value.get("graph_format").and_then(Value::as_str) {
                    None => None,
                    Some(spelling) => Some(parse_format_name(spelling, &name)?),
                };
                GraphSpec::Files { paths, format }
            }
            (None, None) => {
                return spec_err(format!(
                    "scenario `{name}` has no `graph` table (or `graph_files` list)"
                ))
            }
        };
        let initial = match value.get("initial") {
            None => vec!["greedy_hub".to_string()],
            Some(v) => string_list(v).ok_or_else(|| {
                SpecError(format!(
                    "scenario `{name}`: `initial` must be a string or list of strings"
                ))
            })?,
        };
        let delay = match value.get("delay") {
            None => vec![DelaySpec::Unit],
            Some(v) => one_or_many(v)
                .iter()
                .map(|d| DelaySpec::from_spec_value(d, &name))
                .collect::<Result<Vec<_>, _>>()?,
        };
        let start = match value.get("start") {
            None => vec![StartSpec::Simultaneous],
            Some(v) => one_or_many(v)
                .iter()
                .map(|s| StartSpec::from_spec_value(s, &name))
                .collect::<Result<Vec<_>, _>>()?,
        };
        let faults = match value.get("faults") {
            None => vec![FaultSpec::none()],
            Some(v) => one_or_many(v)
                .iter()
                .map(|f| FaultSpec::from_spec_value(f, &name))
                .collect::<Result<Vec<_>, _>>()?,
        };
        let executor = match value.get("executor") {
            None => vec![ExecutorKind::Sim],
            Some(v) => {
                let names = string_list(v).ok_or_else(|| {
                    SpecError(format!(
                        "scenario `{name}`: `executor` must be a string or list of strings"
                    ))
                })?;
                names
                    .iter()
                    .map(|s| {
                        ExecutorKind::parse(s)
                            .map_err(|e| SpecError(format!("scenario `{name}`: {e}")))
                    })
                    .collect::<Result<Vec<_>, _>>()?
            }
        };
        // The pool schedules on real threads: no simulated delays, no
        // staggered clock, no fault injection. Reject the cross product at
        // parse time instead of failing runs one by one — the author should
        // split the scenario.
        if executor.contains(&ExecutorKind::Pool) {
            if delay.iter().any(|d| !matches!(d, DelaySpec::Unit)) {
                return spec_err(format!(
                    "scenario `{name}`: executor `pool` cannot combine with a \
                     non-unit `delay` axis; split the scenario or drop the delay models"
                ));
            }
            if start.iter().any(|s| !matches!(s, StartSpec::Simultaneous)) {
                return spec_err(format!(
                    "scenario `{name}`: executor `pool` cannot combine with a \
                     staggered `start` axis; split the scenario"
                ));
            }
            if faults.iter().any(|f| !f.is_none()) {
                return spec_err(format!(
                    "scenario `{name}`: executor `pool` cannot combine with a \
                     `faults` axis (fault injection needs the simulated clock); split the scenario"
                ));
            }
        }
        let workers = match value.get("workers") {
            None => 0,
            Some(v) => v.as_u64().ok_or_else(|| {
                SpecError(format!(
                    "scenario `{name}`: `workers` must be a non-negative integer"
                ))
            })? as usize,
        };
        let batch = match value.get("batch") {
            None => vec![0],
            Some(v) => u64_list(v)
                .map(|l| l.into_iter().map(|b| b as usize).collect::<Vec<_>>())
                .ok_or_else(|| {
                    SpecError(format!(
                        "scenario `{name}`: `batch` must be a non-negative integer \
                         or list of non-negative integers"
                    ))
                })?,
        };
        let audit = match value.get("audit") {
            None => vec![false],
            Some(v) => bool_list(v).ok_or_else(|| {
                SpecError(format!(
                    "scenario `{name}`: `audit` must be a boolean or list of booleans"
                ))
            })?,
        };
        let seeds = match value.get("seeds") {
            None => vec![1],
            Some(v) => u64_list(v).ok_or_else(|| {
                SpecError(format!(
                    "scenario `{name}`: `seeds` must be an integer or list of integers"
                ))
            })?,
        };
        let root = match value.get("root") {
            None => 0,
            Some(v) => v.as_u64().ok_or_else(|| {
                SpecError(format!(
                    "scenario `{name}`: `root` must be a non-negative integer"
                ))
            })? as usize,
        };
        let max_events = match value.get("max_events") {
            None => SimConfig::default().max_events,
            Some(v) => v.as_u64().ok_or_else(|| {
                SpecError(format!(
                    "scenario `{name}`: `max_events` must be an integer"
                ))
            })?,
        };
        if seeds.is_empty()
            || initial.is_empty()
            || delay.is_empty()
            || start.is_empty()
            || faults.is_empty()
            || executor.is_empty()
            || batch.is_empty()
            || audit.is_empty()
        {
            return spec_err(format!("scenario `{name}`: empty sweep axis"));
        }
        Ok(ScenarioSpec {
            name,
            graph,
            initial,
            delay,
            start,
            faults,
            executor,
            workers,
            batch,
            audit,
            seeds,
            root,
            max_events,
        })
    }

    fn expand_into(&self, runs: &mut Vec<RunSpec>) -> Result<(), SpecError> {
        for graph in self.graph.resolve_all()? {
            for initial in &self.initial {
                for delay in &self.delay {
                    for start in &self.start {
                        for faults in &self.faults {
                            for &executor in &self.executor {
                                for &batch in &self.batch {
                                    for &audit in &self.audit {
                                        for &seed in &self.seeds {
                                            runs.push(RunSpec {
                                                scenario: self.name.clone(),
                                                graph: graph.clone(),
                                                initial: initial.clone(),
                                                delay: *delay,
                                                start: *start,
                                                faults: faults.clone(),
                                                executor,
                                                workers: self.workers,
                                                batch,
                                                audit,
                                                seed,
                                                root: self.root,
                                                max_events: self.max_events,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

impl GraphSpec {
    fn from_spec_value(value: &Value, scenario: &str) -> Result<Self, SpecError> {
        let obj = value
            .as_object()
            .ok_or_else(|| SpecError(format!("scenario `{scenario}`: `graph` must be a table")))?;
        if let Some(path) = value.get("path") {
            let path = path
                .as_str()
                .ok_or_else(|| {
                    SpecError(format!(
                        "scenario `{scenario}`: graph `path` must be a string"
                    ))
                })?
                .to_string();
            let format = match value.get("format").and_then(Value::as_str) {
                None => None,
                Some(spelling) => Some(parse_format_name(spelling, scenario)?),
            };
            return Ok(GraphSpec::File { path, format });
        }
        let Some(family) = value.get("family").and_then(Value::as_str) else {
            return spec_err(format!(
                "scenario `{scenario}`: graph table needs `family = \"...\"` or `path = \"...\"`"
            ));
        };
        let mut params = Vec::new();
        for (key, v) in obj {
            if key == "family" {
                continue;
            }
            let list = param_list(v).ok_or_else(|| {
                SpecError(format!(
                    "scenario `{scenario}`: graph parameter `{key}` must be a number or list of numbers"
                ))
            })?;
            if list.is_empty() {
                return spec_err(format!(
                    "scenario `{scenario}`: graph parameter `{key}` is an empty list"
                ));
            }
            params.push((key.clone(), list));
        }
        Ok(GraphSpec::Family {
            family: family.to_string(),
            params,
        })
    }

    /// All resolved parameter combinations (cartesian product of the lists;
    /// one resolved source per file for the `graph_files` axis).
    pub fn resolve_all(&self) -> Result<Vec<ResolvedGraph>, SpecError> {
        match self {
            GraphSpec::File { path, format } => Ok(vec![ResolvedGraph::File {
                path: path.clone(),
                format: *format,
            }]),
            GraphSpec::Files { paths, format } => Ok(paths
                .iter()
                .map(|path| ResolvedGraph::File {
                    path: path.clone(),
                    format: *format,
                })
                .collect()),
            GraphSpec::Family { family, params } => {
                let Some((accepted, seeded)) = family_params(canonical_family(family)) else {
                    return spec_err(format!(
                        "unknown graph family `{family}` (known: {})",
                        KNOWN_FAMILIES.join(", ")
                    ));
                };
                for (key, _) in params {
                    let known = accepted.contains(&key.as_str()) || (seeded && key == "seed");
                    if !known {
                        return spec_err(format!(
                            "family `{family}` does not take a parameter `{key}` (accepted: {}{})",
                            if accepted.is_empty() {
                                "none".to_string()
                            } else {
                                accepted.join(", ")
                            },
                            if seeded { ", seed" } else { "" },
                        ));
                    }
                }
                let mut combos = vec![Vec::new()];
                for (key, values) in params {
                    let mut next = Vec::with_capacity(combos.len() * values.len());
                    for combo in &combos {
                        for v in values {
                            let mut c: Vec<(String, ParamValue)> = combo.clone();
                            c.push((key.clone(), *v));
                            next.push(c);
                        }
                    }
                    combos = next;
                }
                Ok(combos
                    .into_iter()
                    .map(|params| ResolvedGraph::Family {
                        family: family.clone(),
                        params,
                    })
                    .collect())
            }
        }
    }
}

impl DelaySpec {
    fn from_spec_value(value: &Value, scenario: &str) -> Result<Self, SpecError> {
        if let Some(s) = value.as_str() {
            return match s {
                "unit" => Ok(DelaySpec::Unit),
                other => spec_err(format!(
                    "scenario `{scenario}`: unknown delay `{other}` (unit, or a table with model = uniform | per_link)"
                )),
            };
        }
        let model = value.get("model").and_then(Value::as_str).ok_or_else(|| {
            SpecError(format!("scenario `{scenario}`: delay table needs `model`"))
        })?;
        let min = value.get("min").and_then(Value::as_u64).unwrap_or(1);
        let max = value.get("max").and_then(Value::as_u64).unwrap_or(min);
        match model {
            "unit" => Ok(DelaySpec::Unit),
            "uniform" | "uniform_random" => Ok(DelaySpec::Uniform { min, max }),
            "per_link" | "per-link" | "per_link_fixed" => Ok(DelaySpec::PerLink { min, max }),
            other => spec_err(format!(
                "scenario `{scenario}`: unknown delay model `{other}` (unit | uniform | per_link)"
            )),
        }
    }
}

impl StartSpec {
    fn from_spec_value(value: &Value, scenario: &str) -> Result<Self, SpecError> {
        if let Some(s) = value.as_str() {
            return match s {
                "simultaneous" => Ok(StartSpec::Simultaneous),
                other => spec_err(format!(
                    "scenario `{scenario}`: unknown start `{other}` (simultaneous, or a table with model = staggered)"
                )),
            };
        }
        let model = value.get("model").and_then(Value::as_str).ok_or_else(|| {
            SpecError(format!("scenario `{scenario}`: start table needs `model`"))
        })?;
        match model {
            "simultaneous" => Ok(StartSpec::Simultaneous),
            "staggered" => Ok(StartSpec::Staggered {
                max_offset: value
                    .get("max_offset")
                    .and_then(Value::as_u64)
                    .unwrap_or(10),
            }),
            other => spec_err(format!(
                "scenario `{scenario}`: unknown start model `{other}` (simultaneous | staggered)"
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// Value helpers (scalar-or-list acceptance)
// ---------------------------------------------------------------------------

fn one_or_many(v: &Value) -> Vec<&Value> {
    match v.as_array() {
        Some(items) => items.iter().collect(),
        None => vec![v],
    }
}

fn string_list(v: &Value) -> Option<Vec<String>> {
    one_or_many(v)
        .into_iter()
        .map(|item| item.as_str().map(str::to_string))
        .collect()
}

fn u64_list(v: &Value) -> Option<Vec<u64>> {
    one_or_many(v).into_iter().map(Value::as_u64).collect()
}

fn bool_list(v: &Value) -> Option<Vec<bool>> {
    one_or_many(v).into_iter().map(Value::as_bool).collect()
}

/// Decodes an array of fixed-width integer tuples, e.g. `[[3, 40], [5, 60]]`.
fn tuple_list<const W: usize>(v: &Value) -> Option<Vec<[u64; W]>> {
    let items = v.as_array()?;
    items
        .iter()
        .map(|item| {
            let fields = item.as_array()?;
            if fields.len() != W {
                return None;
            }
            let mut out = [0u64; W];
            for (slot, field) in out.iter_mut().zip(fields) {
                *slot = field.as_u64()?;
            }
            Some(out)
        })
        .collect()
}

fn param_scalar(v: &Value) -> Option<ParamValue> {
    if let Some(u) = v.as_u64() {
        Some(ParamValue::Int(u))
    } else {
        match v {
            Value::Float(f) => Some(ParamValue::Float(*f)),
            _ => None,
        }
    }
}

fn param_list(v: &Value) -> Option<Vec<ParamValue>> {
    one_or_many(v).into_iter().map(param_scalar).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"
        [campaign]
        name = "demo"

        [[scenario]]
        name = "gnp"
        graph = { family = "gnp_connected", n = [8, 12], p = [0.2, 0.4] }
        initial = ["greedy_hub", "bfs"]
        seeds = [1, 2, 3]

        [[scenario]]
        name = "worst"
        graph = { family = "star_with_leaf_edges", n = 10 }
        delay = [{ model = "uniform", min = 1, max = 5 }, "unit"]
        start = { model = "staggered", max_offset = 7 }
    "#;

    #[test]
    fn expansion_takes_the_cartesian_product() {
        let matrix = ScenarioMatrix::from_toml_str(SPEC).unwrap();
        assert_eq!(matrix.name, "demo");
        assert_eq!(matrix.scenarios.len(), 2);
        let runs = matrix.expand().unwrap();
        // gnp: 2 n × 2 p × 2 initial × 1 delay × 1 start × 3 seeds = 24
        // worst: 1 graph × 1 initial × 2 delay × 1 start × 1 seed = 2
        assert_eq!(runs.len(), 26);
        assert_eq!(runs.iter().filter(|r| r.scenario == "gnp").count(), 24);
        let labels: std::collections::BTreeSet<String> = runs
            .iter()
            .filter(|r| r.scenario == "gnp")
            .map(|r| r.graph.label())
            .collect();
        assert_eq!(labels.len(), 4);
        assert!(labels.contains("gnp_connected(n=8,p=0.2)"));
    }

    #[test]
    fn json_specs_are_equivalent_to_toml() {
        let json = r#"{
            "campaign": {"name": "demo"},
            "scenario": [{
                "name": "gnp",
                "graph": {"family": "gnp_connected", "n": [8, 12], "p": [0.2, 0.4]},
                "initial": ["greedy_hub", "bfs"],
                "seeds": [1, 2, 3]
            }, {
                "name": "worst",
                "graph": {"family": "star_with_leaf_edges", "n": 10},
                "delay": [{"model": "uniform", "min": 1, "max": 5}, "unit"],
                "start": {"model": "staggered", "max_offset": 7}
            }]
        }"#;
        let a = ScenarioMatrix::from_toml_str(SPEC).unwrap();
        let b = ScenarioMatrix::from_json_str(json).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn resolved_graphs_build() {
        let matrix = ScenarioMatrix::from_toml_str(SPEC).unwrap();
        let runs = matrix.expand().unwrap();
        for run in runs.iter().take(4) {
            let g = run.graph.build(run.seed).unwrap();
            assert!(g.node_count() >= 8);
            run.pipeline_config().unwrap();
        }
    }

    #[test]
    fn seeded_families_vary_with_the_seed() {
        let g = ResolvedGraph::Family {
            family: "gnp_connected".to_string(),
            params: vec![
                ("n".to_string(), ParamValue::Int(16)),
                ("p".to_string(), ParamValue::Float(0.3)),
            ],
        };
        assert_ne!(g.build(1).unwrap(), g.build(2).unwrap());
        assert_eq!(g.build(1).unwrap(), g.build(1).unwrap());
    }

    #[test]
    fn bad_specs_are_rejected_with_context() {
        assert!(ScenarioMatrix::from_toml_str("").is_err());
        let no_name = "[[scenario]]\ngraph = { family = \"path\", n = 4 }\n";
        assert!(ScenarioMatrix::from_toml_str(no_name).is_err());
        let bad_family = "[[scenario]]\nname = \"x\"\ngraph = { family = \"mobius\", n = 4 }\n";
        let m = ScenarioMatrix::from_toml_str(bad_family).unwrap();
        let err = m.expand().unwrap_err();
        assert!(err.to_string().contains("mobius"));
        let bad_initial = "[[scenario]]\nname = \"x\"\ngraph = { family = \"path\", n = 4 }\ninitial = \"steiner\"\n";
        let m = ScenarioMatrix::from_toml_str(bad_initial).unwrap();
        let run = &m.expand().unwrap()[0];
        assert!(run.pipeline_config().is_err());
    }

    #[test]
    fn unknown_graph_parameters_are_rejected() {
        // A stray parameter must fail expansion, not silently run a
        // differently shaped graph than the label claims.
        let stray = "[[scenario]]\nname = \"x\"\ngraph = { family = \"petersen\", n = 64 }\n";
        let err = ScenarioMatrix::from_toml_str(stray)
            .unwrap()
            .expand()
            .unwrap_err();
        assert!(err.to_string().contains("`n`"), "{err}");
        let typo =
            "[[scenario]]\nname = \"x\"\ngraph = { family = \"grid\", rows = 3, colums = 4 }\n";
        let err = ScenarioMatrix::from_toml_str(typo)
            .unwrap()
            .expand()
            .unwrap_err();
        assert!(err.to_string().contains("colums"), "{err}");
        // Seeded families accept the optional `seed` offset; others do not.
        let seeded =
            "[[scenario]]\nname = \"x\"\ngraph = { family = \"gnp\", n = 8, p = 0.5, seed = 7 }\n";
        ScenarioMatrix::from_toml_str(seeded)
            .unwrap()
            .expand()
            .unwrap();
        let unseeded =
            "[[scenario]]\nname = \"x\"\ngraph = { family = \"path\", n = 8, seed = 7 }\n";
        assert!(ScenarioMatrix::from_toml_str(unseeded)
            .unwrap()
            .expand()
            .is_err());
    }

    #[test]
    fn float_seed_offsets_are_rejected_not_ignored() {
        let g = ResolvedGraph::Family {
            family: "gnp_connected".to_string(),
            params: vec![
                ("n".to_string(), ParamValue::Int(8)),
                ("p".to_string(), ParamValue::Float(0.5)),
                ("seed".to_string(), ParamValue::Float(77.0)),
            ],
        };
        let err = g.build(1).unwrap_err();
        assert!(err.to_string().contains("seed"), "{err}");
    }

    #[test]
    fn family_aliases_expand_and_build() {
        for alias in ["star_plus_path", "geometric"] {
            let spec = format!(
                "[[scenario]]\nname = \"x\"\ngraph = {{ family = \"{alias}\", n = 8{} }}\n",
                if alias == "geometric" {
                    ", radius = 0.5"
                } else {
                    ""
                }
            );
            let runs = ScenarioMatrix::from_toml_str(&spec)
                .unwrap()
                .expand()
                .unwrap();
            runs[0].graph.build(1).unwrap();
        }
    }

    #[test]
    fn fault_axes_expand_and_produce_plans() {
        let spec = r#"
            [[scenario]]
            name = "faulty"
            graph = { family = "path", n = 6 }
            faults = [
                "none",
                { loss = 0.25 },
                { loss = 0.1, crashes = [[3, 40], [5, 60]], cuts = [[0, 1, 25]] },
            ]
            seeds = [1, 2]
        "#;
        let matrix = ScenarioMatrix::from_toml_str(spec).unwrap();
        let runs = matrix.expand().unwrap();
        assert_eq!(runs.len(), 3 * 2);
        let labels: Vec<String> = runs.iter().map(|r| r.faults.label()).collect();
        assert!(labels.contains(&"none".to_string()));
        assert!(labels.contains(&"loss(0.25)".to_string()));
        assert!(labels.contains(&"loss(0.1)+crashes(2)+cuts(1)".to_string()));
        let faulty = runs
            .iter()
            .find(|r| !r.faults.is_none() && !r.faults.crashes.is_empty())
            .unwrap();
        let plan = faulty.faults.to_plan(7);
        assert_eq!(plan.loss, 0.1);
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.crashes.len(), 2);
        assert_eq!(plan.cuts.len(), 1);
        assert_eq!(plan.crashes[0].node, NodeId(3));
        assert_eq!(plan.crashes[0].at, 40);
        // The benign entry maps to the default plan, seed included, so it is
        // indistinguishable from a spec without a `faults` key.
        let benign = runs.iter().find(|r| r.faults.is_none()).unwrap();
        assert_eq!(benign.faults.to_plan(7), FaultPlan::none());
        benign.pipeline_config().unwrap();
        faulty.pipeline_config().unwrap();
    }

    #[test]
    fn scenarios_without_faults_get_the_implicit_none_axis() {
        let spec = "[[scenario]]\nname = \"x\"\ngraph = { family = \"path\", n = 4 }\n";
        let runs = ScenarioMatrix::from_toml_str(spec)
            .unwrap()
            .expand()
            .unwrap();
        assert_eq!(runs.len(), 1);
        assert!(runs[0].faults.is_none());
        assert_eq!(runs[0].faults.label(), "none");
        assert_eq!(
            runs[0].pipeline_config().unwrap().sim.faults,
            FaultPlan::none()
        );
    }

    #[test]
    fn malformed_fault_axes_are_rejected() {
        let cases = [
            // Loss outside [0, 1].
            "faults = { loss = 1.5 }",
            // Unknown string entry.
            "faults = \"chaos\"",
            // Unknown key in the table.
            "faults = { lossiness = 0.1 }",
            // Crashes must be [node, time] pairs.
            "faults = { crashes = [3] }",
            "faults = { crashes = [[3]] }",
            "faults = [{ crashes = [[3, 4, 5]] }]",
            // Cuts must be [u, v, time] triples.
            "faults = { cuts = [[0, 1]] }",
            // Scalar where a list of tuples is expected.
            "faults = { cuts = 7 }",
        ];
        for case in cases {
            let spec = format!(
                "[[scenario]]\nname = \"x\"\ngraph = {{ family = \"path\", n = 4 }}\n{case}\n"
            );
            let err = ScenarioMatrix::from_toml_str(&spec);
            assert!(err.is_err(), "accepted malformed fault axis: {case}");
        }
    }

    #[test]
    fn graph_files_axis_expands_one_source_per_file() {
        let spec = r#"
            [[scenario]]
            name = "suite"
            graph_files = ["a.mtx.gz", "b.graph", "c.el"]
            initial = ["greedy_hub", "bfs"]
            seeds = [1, 2]
        "#;
        let runs = ScenarioMatrix::from_toml_str(spec)
            .unwrap()
            .expand()
            .unwrap();
        // 3 files × 2 initial × 2 seeds.
        assert_eq!(runs.len(), 12);
        let labels: std::collections::BTreeSet<String> =
            runs.iter().map(|r| r.graph.label()).collect();
        assert_eq!(labels.len(), 3);
        assert!(labels.contains("file(a.mtx.gz)"));
        assert!(labels.contains("file(b.graph)"));
        // A single string is accepted as a one-file list.
        let single = "[[scenario]]\nname = \"s\"\ngraph_files = \"only.mtx\"\n";
        let runs = ScenarioMatrix::from_toml_str(single)
            .unwrap()
            .expand()
            .unwrap();
        assert_eq!(runs.len(), 1);
    }

    #[test]
    fn graph_files_axis_rejects_conflicts_and_unknown_formats() {
        let both = r#"
            [[scenario]]
            name = "x"
            graph = { family = "path", n = 4 }
            graph_files = ["a.el"]
        "#;
        let err = ScenarioMatrix::from_toml_str(both).unwrap_err();
        assert!(err.to_string().contains("not both"), "{err}");

        let empty = "[[scenario]]\nname = \"x\"\ngraph_files = []\n";
        assert!(ScenarioMatrix::from_toml_str(empty).is_err());

        let bad_format = r#"
            [[scenario]]
            name = "x"
            graph_files = ["a.data"]
            graph_format = "hdf5"
        "#;
        let err = ScenarioMatrix::from_toml_str(bad_format).unwrap_err();
        assert!(err.to_string().contains("hdf5"), "{err}");

        // An explicit format overrides extension inference for every file.
        let forced = r#"
            [[scenario]]
            name = "x"
            graph_files = ["a.data", "b.data"]
            graph_format = "mtx"
        "#;
        let matrix = ScenarioMatrix::from_toml_str(forced).unwrap();
        let runs = matrix.expand().unwrap();
        for run in &runs {
            let ResolvedGraph::File { format, .. } = &run.graph else {
                panic!("file source expected");
            };
            assert_eq!(*format, Some(GraphFormat::MatrixMarket));
        }
    }

    #[test]
    fn graph_table_accepts_the_new_format_spellings() {
        for (spelling, expected) in [
            ("metis", GraphFormat::Metis),
            ("matrix_market", GraphFormat::MatrixMarket),
            ("matrix-market", GraphFormat::MatrixMarket),
            ("mtx", GraphFormat::MatrixMarket),
            ("edge_list", GraphFormat::EdgeList),
            ("dimacs", GraphFormat::Dimacs),
        ] {
            let spec = format!(
                "[[scenario]]\nname = \"x\"\ngraph = {{ path = \"g.data\", format = \"{spelling}\" }}\n"
            );
            let matrix = ScenarioMatrix::from_toml_str(&spec).unwrap();
            let runs = matrix.expand().unwrap();
            let ResolvedGraph::File { format, .. } = &runs[0].graph else {
                panic!("file source expected");
            };
            assert_eq!(*format, Some(expected), "{spelling}");
        }
    }

    #[test]
    fn unknown_executor_names_are_spec_errors_not_panics() {
        let spec = r#"
            [[scenario]]
            name = "x"
            graph = { family = "path", n = 4 }
            executor = ["sim", "quantum"]
        "#;
        let err = ScenarioMatrix::from_toml_str(spec).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("scenario `x`"), "{msg}");
        assert!(msg.contains("unknown executor `quantum`"), "{msg}");
        assert!(msg.contains("sim, pool"), "{msg}");
    }

    #[test]
    fn initial_kinds_cover_all_constructions() {
        for name in ["greedy_hub", "bfs", "dfs", "random", "flooding", "token"] {
            parse_initial_kind(name, 3).unwrap();
        }
        assert_eq!(
            parse_initial_kind("random", 9).unwrap(),
            InitialTreeKind::Random(9)
        );
        assert!(parse_initial_kind("nope", 0).is_err());
    }
}
