//! End-to-end and per-layer benchmark of the MDST campaign stack.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's run list from the seed, sets up, runs the list,
//! checks every output and prints one JSON object as the last line of
//! standard output: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Times are reported at the reference host
//! speed ([`calib`]). See `README.md` next to this crate.

mod bench;
mod calib;
mod spans;
mod stats;
mod workload;

use bench::{peak_rss_mib, Bench, Pass, TracedPass};
use calib::Measured;
use spans::Tracer;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use workload::{Outcome, Workload, SETUP_REPS};

/// End-to-end metrics and their units, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("runs_per_s", "1/s"),
    ("run_ms.p50", "ms"),
    ("run_ms.tail", "ms"),
    ("ok_ratio", "ratio"),
    ("approx_ratio.mean", "ratio"),
    ("msg_budget_ratio.mean", "ratio"),
    ("time_budget_ratio.mean", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and their units, in output order. A layer the
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("topology.build_ms", "ms"),
    ("topology.bytes_per_node", "B"),
    ("topology.lookup_ms", "ms"),
    ("construct.ms", "ms"),
    ("improve.ms", "ms"),
    ("improve.ns_per_msg", "ns"),
    ("improve.msgs_per_run", "count"),
    ("improve.rounds_per_run", "count"),
    ("improve.drop_per_round", "ratio"),
    ("improve.trace_overhead_ratio", "ratio"),
    ("fabric.ns_per_msg", "ns"),
    ("survivor.ms", "ms"),
    ("grade.ms", "ms"),
    ("audit.ms", "ms"),
    ("audit.ns_per_event", "ns"),
    ("audit.events_per_run", "count"),
    ("check.ms", "ms"),
    ("check.states_per_run", "count"),
    ("check.ns_per_state", "ns"),
    ("check.revisit_ratio", "ratio"),
    ("report.ms", "ms"),
    ("glue.ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.accounted_ratio", "ratio"),
];

/// Layers whose spans sit inside a run span.
const RUN_LAYERS: &[&str] = &[
    "topology.lookup",
    "construct",
    "improve",
    "survivor",
    "grade",
    "audit",
    "check",
];

/// How far the layers' share of the untraced run time may fall short of 1,
/// and how far the traced runs may take longer than the untraced ones.
/// Recording a span costs two clock reads, so the traced runs should take
/// as long as the untraced ones; the slack absorbs host noise left after
/// calibration. A phase the traced run skips, or work it adds, is far
/// outside it.
const ACCOUNTING_SLACK: f64 = 0.15;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let known: Vec<&str> = workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (known: {})", known.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("--seconds must be 1..=600, got `{value}`"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// The result line's content.
struct Summary {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: BTreeMap<&'static str, f64>,
}

impl Summary {
    fn to_json(&self, catalog: &[(&'static str, &'static str)]) -> String {
        let metrics = catalog
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(f64::NAN);
                (
                    name.to_string(),
                    serde::Value::Object(vec![
                        ("value".to_string(), serde::Value::Float(value)),
                        ("unit".to_string(), serde::Value::String(unit.to_string())),
                    ]),
                )
            })
            .collect();
        serde::Value::Object(vec![
            ("correct".to_string(), serde::Value::Bool(self.correct)),
            (
                "attempted".to_string(),
                serde::Value::UInt(self.attempted as u64),
            ),
            ("failed".to_string(), serde::Value::UInt(self.failed as u64)),
            ("metrics".to_string(), serde::Value::Object(metrics)),
        ])
        .to_json()
    }
}

/// Counts failed outcomes, printing each failure to stderr.
fn failures(outcomes: &[Outcome]) -> usize {
    let mut failed = 0;
    for (i, o) in outcomes.iter().enumerate() {
        if let Some(why) = &o.failure {
            eprintln!("run {i} FAILED: {why}");
            failed += 1;
        }
    }
    failed
}

/// Means of the quality ratios over the correct runs.
fn ratio_means(outcomes: &[Outcome], metrics: &mut BTreeMap<&'static str, f64>) {
    let ok: Vec<_> = outcomes.iter().filter(|o| o.failure.is_none()).collect();
    let of = |f: fn(&Outcome) -> f64| stats::mean(&ok.iter().map(|o| f(o)).collect::<Vec<_>>());
    metrics.insert("approx_ratio.mean", of(|o| o.ratios.approx));
    metrics.insert("msg_budget_ratio.mean", of(|o| o.ratios.msg_budget));
    metrics.insert("time_budget_ratio.mean", of(|o| o.ratios.time_budget));
}

/// The end-to-end metrics of an untraced execution.
fn end_to_end(setup: &[Measured], pass: &Pass) -> Summary {
    let runs = pass.samples.len();
    let failed = failures(&pass.outcomes);
    let samples_ms: Vec<f64> = pass.samples.iter().map(|m| m.ms).collect();
    let raw_ms: Vec<f64> = pass.samples.iter().map(|m| m.raw_ms).collect();
    let setup_s: Vec<f64> = setup.iter().map(|m| m.ms / 1e3).collect();
    eprintln!(
        "as measured: setup_s {:.4}, runs_per_s {:.3}, run_ms.p50 {:.3}; host speed factor {:.3}",
        stats::median(&setup.iter().map(|m| m.raw_ms / 1e3).collect::<Vec<_>>()),
        runs as f64 / (pass.wall.raw_ms / 1e3),
        stats::median(&raw_ms),
        pass.wall.speed()
    );
    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s", stats::median(&setup_s));
    metrics.insert("runs_per_s", runs as f64 / (pass.wall.ms / 1e3));
    metrics.insert("run_ms.p50", stats::median(&samples_ms));
    let tail = match stats::tail(&samples_ms) {
        Some(t) => {
            eprintln!(
                "run_ms.tail is p{} over {runs} samples ({} beyond it)",
                t.percentile, t.beyond
            );
            t.value
        }
        None => {
            eprintln!("run_ms.tail: only {runs} samples, reporting the maximum");
            stats::percentile(&samples_ms, 100.0)
        }
    };
    metrics.insert("run_ms.tail", tail);
    metrics.insert("ok_ratio", (runs - failed) as f64 / runs as f64);
    ratio_means(&pass.outcomes, &mut metrics);
    metrics.insert("peak_rss_mb", peak_rss_mib().unwrap_or(f64::NAN));
    Summary {
        correct: failed == 0,
        attempted: runs,
        failed,
        metrics,
    }
}

/// The per-layer metrics of a traced execution, and its accounting check.
fn per_layer(bench: &Bench, tracer: &Tracer, pass: &TracedPass) -> Summary {
    let runs = pass.outcomes.len();
    let per_run = |x: f64| x / runs as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    // Spans are scaled to the reference speed by the factor of their run;
    // set-up and report spans by the report's.
    let own =
        tracer.self_time_by_name(|run| pass.speed.get(&run).copied().unwrap_or(pass.report_speed));
    let own_ns = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let own_ms_per_run = |name: &str| per_run(own_ns(name) / 1e6);
    let builds: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "topology.build")
        .map(|s| s.duration_ns() as f64 * pass.report_speed / 1e6)
        .collect();

    let mut m = BTreeMap::new();
    m.insert("topology.build_ms", stats::mean(&builds));
    m.insert("topology.bytes_per_node", bench.bytes_per_node);
    m.insert("topology.lookup_ms", own_ms_per_run("topology.lookup"));
    for (metric, layer) in [
        ("construct.ms", "construct"),
        ("improve.ms", "improve"),
        ("survivor.ms", "survivor"),
        ("grade.ms", "grade"),
        ("audit.ms", "audit"),
        ("check.ms", "check"),
        ("glue.ms", "run"),
    ] {
        m.insert(metric, own_ms_per_run(layer));
    }
    m.insert(
        "improve.ns_per_msg",
        ratio(own_ns("improve"), pass.messages as f64),
    );
    m.insert("improve.msgs_per_run", per_run(pass.messages as f64));
    m.insert("improve.rounds_per_run", per_run(pass.rounds as f64));
    m.insert("improve.drop_per_round", per_run(pass.drop_per_round_sum));
    m.insert(
        "improve.trace_overhead_ratio",
        ratio(
            pass.improve_traced_ns as f64,
            pass.improve_untraced_ns as f64,
        ),
    );
    m.insert(
        "fabric.ns_per_msg",
        ratio(pass.fabric_ns as f64, pass.fabric_msgs as f64),
    );
    m.insert(
        "audit.ns_per_event",
        ratio(own_ns("audit"), pass.audit_events as f64),
    );
    m.insert("audit.events_per_run", per_run(pass.audit_events as f64));
    m.insert("check.states_per_run", per_run(pass.check_states as f64));
    m.insert(
        "check.ns_per_state",
        ratio(own_ns("check"), pass.check_states as f64),
    );
    // Every transition reaches a new state (all but the initial one) or
    // revisits an old one.
    let transitions = pass.check_states.saturating_sub(runs as u64) + pass.check_revisits;
    m.insert(
        "check.revisit_ratio",
        ratio(pass.check_revisits as f64, transitions as f64),
    );
    m.insert("report.ms", own_ns("report") / 1e6);

    let untraced_ns: f64 = pass.untraced_ms.iter().sum::<f64>() * 1e6;
    let traced_ns: f64 = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "run")
        .map(|s| s.duration_ns() as f64 * pass.speed.get(&s.run).copied().unwrap_or(1.0))
        .sum();
    let layers_ns: f64 = RUN_LAYERS.iter().map(|l| own_ns(l)).sum();
    let overhead = ratio(traced_ns, untraced_ns);
    let accounted = ratio(layers_ns, untraced_ns);
    m.insert("trace.overhead_ratio", overhead);
    m.insert("trace.accounted_ratio", accounted);

    let failed = failures(&pass.outcomes);
    // Layer spans are sequential children of the run span, so accounted ≤
    // overhead always; the check bounds both from the two sides of 1.
    let accounts = accounted >= 1.0 - ACCOUNTING_SLACK && overhead <= 1.0 + ACCOUNTING_SLACK;
    eprintln!(
        "layers account for {:.1}% of untraced run time; traced/untraced = {overhead:.4}",
        accounted * 100.0
    );
    if !accounts {
        eprintln!(
            "ACCOUNTING FAILED: layer self times do not explain the untraced run time, \
             or the traced runs do work the program does not"
        );
    }
    Summary {
        correct: failed == 0 && accounts,
        attempted: runs,
        failed,
        metrics: m,
    }
}

/// The first line of the file where executions keep the exact counts they
/// saw, so that a later execution of the same build checks its runs against
/// them: a hash of the running executable. A rebuilt program starts afresh,
/// since a change to it may change its counts.
fn build_line() -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("reading {}: {e}", exe.display()))?;
    // FNV-1a.
    let hash = bytes.iter().fold(0xCBF2_9CE4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    });
    Ok(format!("build {hash:016x}\n"))
}

fn execute(args: &Args) -> Result<Summary, String> {
    let count = args.workload.run_count(args.seconds);
    let items = args.workload.run_list(args.seed, count);
    let mut bench = Bench::new(args.workload, items);
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let counts = dir.join(format!("counts-{}.tsv", args.workload.name()));
    let build = build_line()?;
    match std::fs::read_to_string(&counts) {
        Ok(saved) if saved.starts_with(&build) => bench.remember(&saved),
        _ => {}
    }
    let mut tracer = args.trace.then(Tracer::new);
    let setup = bench.set_up(SETUP_REPS, &mut tracer)?;
    eprintln!(
        "{} seed {}: {} runs, set-up {:?} ms",
        args.workload.name(),
        args.seed,
        count,
        setup.iter().map(|m| m.ms).collect::<Vec<_>>()
    );
    let write = |path: &Path, text: String| {
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(path, text))
            .map_err(|e| format!("writing {}: {e}", path.display()))
    };
    match tracer.as_mut() {
        None => {
            let summary = end_to_end(&setup, &bench.measure());
            write(&counts, build + &bench.remembered())?;
            Ok(summary)
        }
        Some(tracer) => {
            let pass = bench.measure_traced(tracer);
            let summary = per_layer(&bench, tracer, &pass);
            write(&counts, build + &bench.remembered())?;
            let path = dir.join(format!(
                "spans-{}-seed{}.jsonl",
                args.workload.name(),
                args.seed
            ));
            write(&path, tracer.to_json_lines())?;
            eprintln!(
                "{} spans written to {}",
                tracer.spans().len(),
                path.display()
            );
            Ok(summary)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match execute(&parsed) {
        Ok(summary) => {
            let catalog = if parsed.trace { PER_LAYER } else { END_TO_END };
            println!("{}", summary.to_json(catalog));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdst_netsim::ExecutorKind;
    use workload::{campaign_spec, gnp, Item};

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_and_workload_names_use_the_allowed_characters() {
        let names = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(name, _)| *name)
            .chain(workload::ALL.iter().map(|w| w.name()));
        for name in names {
            assert!(valid_name(name), "bad name `{name}`");
        }
        assert!(!valid_name("run ms"));
        assert!(!valid_name("run_ms/p50"));
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let json = serde::from_json_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |catalog: &[(&str, &str)]| -> Vec<(String, String)> {
            catalog
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(|v| v.as_str())
                    .expect("name")
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn same_seed_gives_the_same_run_list_and_counts() {
        for w in workload::ALL {
            assert_eq!(w.run_list(7, 12), w.run_list(7, 12), "{}", w.name());
            assert_ne!(w.run_list(7, 12), w.run_list(8, 12), "{}", w.name());
        }
        let counts = |w: Workload| {
            let mut bench = Bench::new(w, w.run_list(7, 5));
            bench.set_up(1, &mut None).expect("set-up");
            let pass = bench.measure();
            assert_eq!(failures(&pass.outcomes), 0);
            pass.outcomes
                .into_iter()
                .map(|o| o.counts)
                .collect::<Vec<_>>()
        };
        for w in workload::ALL {
            assert_eq!(counts(w), counts(w), "{}", w.name());
        }
    }

    #[test]
    fn counts_from_an_earlier_execution_are_checked() {
        let items = || Workload::StarPool.run_list(3, 3);
        let mut first = Bench::new(Workload::StarPool, items());
        first.set_up(1, &mut None).expect("set-up");
        assert_eq!(failures(&first.measure().outcomes), 0);
        let saved = first.remembered();
        // Every star-pool run is one instance, so one line holds its counts.
        assert_eq!(saved.lines().count(), 1);

        let mut same = Bench::new(Workload::StarPool, items());
        same.remember(&saved);
        same.set_up(1, &mut None).expect("set-up");
        assert_eq!(failures(&same.measure().outcomes), 0);

        let tampered = saved.replacen("messages: ", "messages: 1", 1);
        let mut other = Bench::new(Workload::StarPool, items());
        other.remember(&tampered);
        let setup = other.set_up(1, &mut None).expect("set-up");
        let summary = end_to_end(&setup, &other.measure());
        assert!(!summary.correct);
        assert_eq!(summary.failed, 3);
    }

    #[test]
    fn a_failing_run_lowers_ok_ratio() {
        let good = |seed| {
            Item::Campaign(campaign_spec(
                Workload::GnpSim,
                gnp(30, 0.2),
                "bfs",
                ExecutorKind::Sim,
                false,
                seed,
            ))
        };
        let Item::Campaign(mut bad) = good(3) else {
            unreachable!()
        };
        bad.root = 10_000;
        let items = vec![good(1), good(2), Item::Campaign(bad), good(4)];
        let mut bench = Bench::new(Workload::GnpSim, items);
        let setup = bench.set_up(1, &mut None).expect("set-up");
        let summary = end_to_end(&setup, &bench.measure());
        assert!(!summary.correct);
        assert_eq!((summary.attempted, summary.failed), (4, 1));
        assert_eq!(summary.metrics["ok_ratio"], 0.75);
    }

    fn traced(w: Workload, items: Vec<Item>) -> Summary {
        let mut bench = Bench::new(w, items);
        let mut tracer = Some(Tracer::new());
        bench.set_up(1, &mut tracer).expect("set-up");
        let tracer = tracer.as_mut().expect("tracer");
        let pass = bench.measure_traced(tracer);
        assert_eq!(failures(&pass.outcomes), 0);
        let summary = per_layer(&bench, tracer, &pass);
        for (name, _) in PER_LAYER {
            assert!(summary.metrics[name].is_finite(), "{name}");
        }
        summary
    }

    #[test]
    fn traced_passes_report_every_layer_metric() {
        let check = traced(Workload::ModelCheck, Workload::ModelCheck.run_list(1, 5));
        assert!(check.metrics["check.states_per_run"] > 1000.0);
        assert!(check.metrics["check.revisit_ratio"] > 0.0);
        let audited = (1..=4)
            .map(|seed| {
                Item::Campaign(campaign_spec(
                    Workload::AuditSim,
                    gnp(40, 0.2),
                    "bfs",
                    ExecutorKind::Sim,
                    true,
                    seed,
                ))
            })
            .collect();
        let audit = traced(Workload::AuditSim, audited);
        for name in [
            "improve.msgs_per_run",
            "improve.trace_overhead_ratio",
            "fabric.ns_per_msg",
            "grade.ms",
            "audit.events_per_run",
        ] {
            assert!(audit.metrics[name] > 0.0, "{name}");
        }
    }
}
