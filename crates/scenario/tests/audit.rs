//! End-to-end tests of the `audit` campaign axis (the `scenario audit` CLI
//! subcommand is exercised in `crates/serve/tests/cli_audit.rs`, next to the
//! binary).

use mdst_scenario::prelude::*;

const AUDITED: &str = r#"
    [campaign]
    name = "audited"

    [[scenario]]
    name = "both-backends"
    graph = { family = "gnp_connected", n = 16, p = 0.3 }
    executor = ["sim", "pool"]
    audit = true
    seeds = [3]
"#;

#[test]
fn audited_runs_are_clean_on_every_backend() {
    let matrix = ScenarioMatrix::from_toml_str(AUDITED).unwrap();
    let report = run_campaign(&matrix, &RunnerConfig::default()).unwrap();
    assert_eq!(report.total.runs, 2);
    assert_eq!(report.total.failures, 0);
    assert_eq!(report.total.audited, 2);
    assert_eq!(report.total.audit_violations, 0);
    for run in &report.runs {
        assert!(run.audit);
        assert_eq!(
            run.audit_findings, 0,
            "{}: rules {}",
            run.executor, run.audit_rules
        );
        assert!(run.audit_rules.is_empty());
    }
}

#[test]
fn the_audit_axis_sweeps_both_values() {
    let spec = r#"
        [[scenario]]
        name = "both"
        graph = { family = "star_with_leaf_edges", n = 10 }
        audit = [false, true]
    "#;
    let matrix = ScenarioMatrix::from_toml_str(spec).unwrap();
    let report = run_campaign(&matrix, &RunnerConfig::default()).unwrap();
    assert_eq!(report.total.runs, 2);
    assert_eq!(report.total.audited, 1);
    let audited: Vec<bool> = report.runs.iter().map(|r| r.audit).collect();
    assert!(audited.contains(&true) && audited.contains(&false));
    // The audit observer must not perturb the measured protocol numbers.
    let (a, b) = (&report.runs[0], &report.runs[1]);
    assert_eq!(a.messages, b.messages);
    assert_eq!(a.final_degree, b.final_degree);
}

#[test]
fn audit_fields_survive_json_and_csv_round_trips() {
    let matrix = ScenarioMatrix::from_toml_str(AUDITED).unwrap();
    let report = run_campaign(
        &matrix,
        &RunnerConfig {
            threads: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let json = campaign_to_json(&report);
    let value = serde::from_json_str(&json).unwrap();
    use serde::Deserialize;
    let back = CampaignReport::from_value(&value).unwrap();
    assert_eq!(back, report);
    let csv = campaign_to_csv(&report);
    let header = csv.lines().next().unwrap();
    assert!(header.contains(",audit,"), "{header}");
    assert!(header.contains(",audit_findings,"), "{header}");
    assert!(header.contains(",audit_rules,"), "{header}");
    assert!(csv.lines().skip(1).all(|l| l.contains(",true,")));
}

#[test]
fn a_non_boolean_audit_axis_is_rejected() {
    let spec = r#"
        [[scenario]]
        name = "bad"
        graph = { family = "path", n = 4 }
        audit = [1, 2]
    "#;
    let err = ScenarioMatrix::from_toml_str(spec).unwrap_err();
    assert!(err.to_string().contains("audit"), "{err}");
}

#[test]
fn batched_pool_traces_audit_clean_and_match_sim_link_counts_across_batch_sizes() {
    use mdst_analysis::audit::audit;
    use mdst_graph::{generators, NodeId};
    use mdst_netsim::{
        Context, ExecStatus, NetMessage, PoolConfig, PoolRuntime, Protocol, SimConfig, Simulator,
    };
    use std::sync::Arc;

    /// Hop-bounded echo flood: every delivery's fan-out is a local function
    /// of the arriving token, so the multiset of `from → to` messages — and
    /// with it every per-link count — is schedule independent. That makes
    /// the per-link audit statistics comparable *exactly* between the
    /// simulator and the pool, whatever the worker interleaving.
    #[derive(Debug, Clone)]
    struct Echo(u8);
    impl NetMessage for Echo {
        fn kind(&self) -> &'static str {
            "Echo"
        }
        fn encoded_bits(&self) -> usize {
            8
        }
    }
    struct EchoSt(NodeId);
    impl Protocol for EchoSt {
        type Message = Echo;
        fn on_start(&mut self, ctx: &mut dyn Context<Echo>) {
            if self.0 == NodeId(0) {
                for i in 0..ctx.neighbors().len() {
                    let to = ctx.neighbors()[i];
                    ctx.send(to, Echo(3));
                }
            }
        }
        fn on_message(&mut self, from: NodeId, msg: Echo, ctx: &mut dyn Context<Echo>) {
            if msg.0 > 0 {
                for i in 0..ctx.neighbors().len() {
                    let to = ctx.neighbors()[i];
                    if to != from {
                        ctx.send(to, Echo(msg.0 - 1));
                    }
                }
            }
        }
    }

    let graph = Arc::new(generators::random_connected(60, 120, 13).unwrap());
    let sim_config = SimConfig {
        record_trace: true,
        ..Default::default()
    };
    let mut sim = Simulator::new(&graph, sim_config, |id, _| EchoSt(id)).unwrap();
    sim.run().unwrap();
    let sim_audit = audit(sim.trace());
    assert!(sim_audit.is_clean(), "{}", sim_audit.to_markdown());
    assert!(sim_audit.sends > 0);

    // Every swept batch size must audit clean *and* agree with the simulator
    // link by link — the coalesced flush regroups sends per destination, but
    // the messages each directed link carries are invariant.
    for batch in [1usize, 2, 7, 64, 256] {
        let run = PoolRuntime::run(
            &graph,
            |id, _| EchoSt(id),
            &PoolConfig {
                record_trace: true,
                batch,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(run.status, ExecStatus::Quiesced, "batch {batch}");
        let pool_audit = audit(&run.trace);
        assert!(
            pool_audit.is_clean(),
            "batch {batch}:\n{}",
            pool_audit.to_markdown()
        );
        assert_eq!(pool_audit.sends, sim_audit.sends, "batch {batch}");
        assert_eq!(pool_audit.delivers, sim_audit.delivers, "batch {batch}");
        assert_eq!(pool_audit.links, sim_audit.links, "batch {batch}");
    }
}
