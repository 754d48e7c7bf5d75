//! Chaos suite: the fault-injection plane and degradation-aware recovery.
//!
//! The invariant under test: **faults may change how long a query takes,
//! never what it returns.** For every (query × placement × fault plan)
//! cell, the degraded execution either returns rows *bit-identical* to
//! the fault-free run, or fails with the *identical* typed error the
//! fault-free run produces (placements that are invalid regardless of
//! faults stay invalid in the same way). The inputs are exact-integer
//! tables, so "bit-identical" is meaningful even though re-placement and
//! priced retries legitimately re-route packets.
//!
//! Alongside the matrix, targeted scenarios pin each recovery layer:
//! priced transfer retries, permanent-loss re-placement (down to a full
//! GPU-fleet loss degrading GpuOnly onto the surviving CPUs), broadcast
//! OOM quarantine, the bounded transfer-retry and replan budgets' typed
//! exhaustion errors, and the serving layer's `Outcome::Degraded`
//! reporting.

use hape::core::fault::{FaultKind, FaultPlan, FaultSpec, RetryPolicy, Trigger};
use hape::core::serve::{Outcome, SessionServer};
use hape::core::{
    Catalog, Engine, EngineError, ExecConfig, JoinAlgo, Placement, Query, QueryPlan,
    QueryReport, Session, SpanKind, TraceRecorder,
};
use hape::ops::{col, AggFunc, AggSpec, Expr};
use hape::sim::topology::Server;
use hape::sim::SimTime;
use hape::storage::datagen::gen_key_fk_table;

/// Exact-integer join + aggregation inputs: every aggregated value is an
/// integer-valued f64, so sums are exact under any packet routing and
/// bit-identity across degraded re-executions is well-defined.
fn setup() -> (Catalog, Vec<QueryPlan>) {
    let mut catalog = Catalog::new();
    catalog.register_as("fact", gen_key_fk_table(1 << 16, 1 << 18, 1));
    catalog.register_as("dim", gen_key_fk_table(1 << 13, 1 << 13, 2));
    let join_agg = QueryPlan::try_new(
        "join_agg",
        vec![
            hape::core::Stage::Build {
                name: "dim_ht".into(),
                key_col: 0,
                pipeline: hape::core::Pipeline::scan("dim"),
            },
            hape::core::Stage::Stream {
                pipeline: hape::core::Pipeline::scan("fact")
                    .join("dim_ht", 0, vec![1], JoinAlgo::NonPartitioned)
                    .aggregate(AggSpec::ungrouped(vec![
                        (AggFunc::Count, Expr::col(0)),
                        (AggFunc::Sum, Expr::col(2)),
                    ])),
            },
        ],
    )
    .expect("join_agg plan is valid");
    let scan_agg = QueryPlan::try_new(
        "scan_agg",
        vec![hape::core::Stage::Stream {
            pipeline: hape::core::Pipeline::scan("fact").aggregate(AggSpec::ungrouped(vec![
                (AggFunc::Count, Expr::col(0)),
                (AggFunc::Sum, Expr::col(1)),
                (AggFunc::Min, Expr::col(1)),
                (AggFunc::Max, Expr::col(1)),
            ])),
        }],
    )
    .expect("scan_agg plan is valid");
    (catalog, vec![join_agg, scan_agg])
}

const PLACEMENTS: [Placement; 4] =
    [Placement::CpuOnly, Placement::GpuOnly, Placement::Hybrid, Placement::Auto];

fn run(
    engine: &Engine,
    catalog: &Catalog,
    plan: &QueryPlan,
    placement: Placement,
    faults: FaultPlan,
) -> Result<QueryReport, String> {
    let cfg = ExecConfig::new(placement).with_faults(faults);
    engine.run(catalog, plan, &cfg).map_err(|e| e.to_string())
}

#[test]
fn canonical_fault_plans_preserve_results_across_the_matrix() {
    let (catalog, plans) = setup();
    let engine = Engine::new(Server::paper_testbed());
    for plan in &plans {
        for placement in PLACEMENTS {
            let clean = run(&engine, &catalog, plan, placement, FaultPlan::off());
            for seed in [1u64, 7, 42] {
                let faulted =
                    run(&engine, &catalog, plan, placement, FaultPlan::canonical(seed));
                let ctx = format!("{}/{placement:?}/seed={seed}", plan.name);
                match (&clean, &faulted) {
                    (Ok(c), Ok(f)) => {
                        assert_eq!(c.rows, f.rows, "{ctx}: degraded rows diverged");
                    }
                    (Err(c), Err(f)) => {
                        assert_eq!(c, f, "{ctx}: error diverged under faults");
                    }
                    (c, f) => panic!("{ctx}: success/failure flipped: {c:?} vs {f:?}"),
                }
            }
        }
    }
}

#[test]
fn faulted_runs_are_deterministic_across_repeats() {
    let (catalog, plans) = setup();
    let engine = Engine::new(Server::paper_testbed());
    let faults = FaultPlan::canonical(7);
    for placement in [Placement::GpuOnly, Placement::Hybrid, Placement::Auto] {
        let a = run(&engine, &catalog, &plans[0], placement, faults.clone())
            .expect("canonical plan recovers");
        let b = run(&engine, &catalog, &plans[0], placement, faults.clone())
            .expect("canonical plan recovers");
        assert_eq!(a.rows, b.rows, "{placement:?}: rows");
        assert_eq!(a.time, b.time, "{placement:?}: makespan");
        assert_eq!(a.retries, b.retries, "{placement:?}: retries");
        assert_eq!(a.replans, b.replans, "{placement:?}: replans");
    }
}

#[test]
fn cpu_only_runs_are_untouched_by_gpu_fault_plans() {
    let (catalog, plans) = setup();
    let engine = Engine::new(Server::paper_testbed());
    let clean = run(&engine, &catalog, &plans[0], Placement::CpuOnly, FaultPlan::off())
        .expect("clean CpuOnly run");
    let faulted =
        run(&engine, &catalog, &plans[0], Placement::CpuOnly, FaultPlan::canonical(1))
            .expect("faulted CpuOnly run");
    // No GPU workers exist, so no trigger can fire: even the makespan is
    // bit-identical, and nothing is counted as recovered.
    assert_eq!(clean.rows, faulted.rows);
    assert_eq!(clean.time, faulted.time);
    assert_eq!(faulted.retries, 0);
    assert_eq!(faulted.replans, 0);
}

#[test]
fn transfer_faults_are_priced_retries_not_result_changes() {
    let (catalog, plans) = setup();
    let engine = Engine::new(Server::paper_testbed());
    let clean = run(&engine, &catalog, &plans[0], Placement::GpuOnly, FaultPlan::off())
        .expect("clean run");
    let faults = FaultPlan::new(
        vec![FaultSpec {
            gpu: 0,
            kind: FaultKind::TransferError { failures: 2 },
            trigger: Trigger::AtGpuPacket(1),
        }],
        RetryPolicy::default(),
    );
    let faulted =
        run(&engine, &catalog, &plans[0], Placement::GpuOnly, faults).expect("retries recover");
    assert_eq!(clean.rows, faulted.rows, "rows diverged");
    assert_eq!(faulted.retries, 2, "both transfer failures priced as retries");
    assert_eq!(faulted.replans, 0);
    assert!(
        faulted.time > clean.time,
        "backoff + re-sent transfers must cost simulated time: {} vs {}",
        faulted.time,
        clean.time
    );
}

#[test]
fn permanent_gpu_loss_replans_on_the_survivors() {
    let (catalog, plans) = setup();
    let engine = Engine::new(Server::paper_testbed());
    let clean = run(&engine, &catalog, &plans[0], Placement::Hybrid, FaultPlan::off())
        .expect("clean run");
    let faults = FaultPlan::new(
        vec![FaultSpec {
            gpu: 1,
            kind: FaultKind::GpuFailed,
            trigger: Trigger::AtGpuPacket(2),
        }],
        RetryPolicy::default(),
    );
    let faulted = run(&engine, &catalog, &plans[0], Placement::Hybrid, faults)
        .expect("loss of one GPU recovers");
    assert_eq!(clean.rows, faulted.rows, "rows diverged after re-placement");
    assert_eq!(faulted.replans, 1, "one mid-query re-placement");
}

#[test]
fn gpu_only_degrades_onto_surviving_cpus_when_the_whole_gpu_fleet_dies() {
    let (catalog, plans) = setup();
    let engine = Engine::new(Server::paper_testbed());
    let clean = run(&engine, &catalog, &plans[0], Placement::GpuOnly, FaultPlan::off())
        .expect("clean run");
    let faults = FaultPlan::new(
        vec![
            FaultSpec { gpu: 0, kind: FaultKind::GpuFailed, trigger: Trigger::AtGpuPacket(1) },
            FaultSpec { gpu: 1, kind: FaultKind::GpuFailed, trigger: Trigger::AtGpuPacket(1) },
        ],
        RetryPolicy::default(),
    );
    let faulted = run(&engine, &catalog, &plans[0], Placement::GpuOnly, faults)
        .expect("full GPU loss falls back to the surviving CPUs");
    assert_eq!(clean.rows, faulted.rows, "rows diverged after CPU fallback");
    assert!(faulted.replans >= 1 && faulted.replans <= 2, "replans: {}", faulted.replans);
}

#[test]
fn broadcast_oom_quarantines_the_device_and_replans() {
    let (catalog, plans) = setup();
    let engine = Engine::new(Server::paper_testbed());
    let clean = run(&engine, &catalog, &plans[0], Placement::GpuOnly, FaultPlan::off())
        .expect("clean run");
    let faults = FaultPlan::new(
        vec![FaultSpec { gpu: 0, kind: FaultKind::BroadcastOom, trigger: Trigger::AtStage(1) }],
        RetryPolicy::default(),
    );
    let faulted = run(&engine, &catalog, &plans[0], Placement::GpuOnly, faults)
        .expect("OOM quarantine recovers on the other GPU");
    assert_eq!(clean.rows, faulted.rows, "rows diverged after OOM recovery");
    assert_eq!(faulted.replans, 1);
}

#[test]
fn device_slow_changes_timing_but_never_rows() {
    let (catalog, plans) = setup();
    let engine = Engine::new(Server::paper_testbed());
    let clean = run(&engine, &catalog, &plans[0], Placement::GpuOnly, FaultPlan::off())
        .expect("clean run");
    let faults = FaultPlan::new(
        vec![FaultSpec {
            gpu: 0,
            kind: FaultKind::DeviceSlow { factor: 4.0 },
            trigger: Trigger::AtStage(0),
        }],
        RetryPolicy::default(),
    );
    let faulted =
        run(&engine, &catalog, &plans[0], Placement::GpuOnly, faults).expect("slow run");
    assert_eq!(clean.rows, faulted.rows, "a slow link must not change results");
    assert!(
        faulted.time >= clean.time,
        "a 4x slower PCIe link cannot make the query faster: {} vs {}",
        faulted.time,
        clean.time
    );
    assert_eq!(faulted.replans, 0, "slow-down is not a loss");
}

#[test]
fn exhausted_replan_budget_is_a_typed_recovery_failure() {
    let (catalog, plans) = setup();
    let engine = Engine::new(Server::paper_testbed());
    let faults = FaultPlan::new(
        vec![
            FaultSpec { gpu: 0, kind: FaultKind::GpuFailed, trigger: Trigger::AtGpuPacket(1) },
            FaultSpec { gpu: 1, kind: FaultKind::GpuFailed, trigger: Trigger::AtGpuPacket(1) },
        ],
        RetryPolicy { max_replans: 1, ..RetryPolicy::default() },
    );
    let cfg = ExecConfig::new(Placement::GpuOnly).with_faults(faults);
    let err = engine.run(&catalog, &plans[0], &cfg).expect_err("budget of 1 cannot absorb 2");
    assert!(
        matches!(err, EngineError::RecoveryFailed { .. }),
        "expected RecoveryFailed, got: {err}"
    );
    let msg = err.to_string();
    assert!(msg.contains("replan budget"), "{msg}");
}

#[test]
fn exhausted_transfer_retries_are_a_typed_error_and_traced() {
    let (catalog, plans) = setup();
    let engine = Engine::new(Server::paper_testbed());
    let faults = FaultPlan::new(
        vec![FaultSpec {
            gpu: 0,
            kind: FaultKind::TransferError { failures: 4 },
            trigger: Trigger::AtGpuPacket(1),
        }],
        RetryPolicy::default(),
    );
    let recorder = TraceRecorder::new();
    let cfg =
        ExecConfig::new(Placement::GpuOnly).with_faults(faults).with_trace(recorder.clone());
    let err = engine
        .run(&catalog, &plans[0], &cfg)
        .expect_err("4 failures exceed the default budget of 3 retries");
    assert!(
        matches!(
            err,
            EngineError::TransferRetriesExhausted { ref device, attempts: 3 } if device == "gpu0"
        ),
        "expected TransferRetriesExhausted on gpu0, got: {err}"
    );
    // The fault fired, so the trace counts it like every other fault: the
    // chaos sweep's `fired` column reads this counter.
    let trace = recorder.snapshot();
    assert_eq!(trace.counters.get("fault.injected"), Some(&1), "{:?}", trace.counters);
    let fault_spans = trace.spans.iter().filter(|s| s.kind == SpanKind::Fault).count();
    assert_eq!(fault_spans, 1, "one Fault span");
}

/// The logical front-end face of the synthetic join + aggregation.
fn served_query(name: &str) -> Query {
    Query::new(name)
        .from_table("fact")
        .join(Query::scan("dim"), "k", "k", JoinAlgo::NonPartitioned)
        .agg(vec![(AggFunc::Count, col("k")), (AggFunc::Sum, col("v"))])
}

fn served_session() -> Session {
    let mut session = Session::new(Server::paper_testbed());
    session.register_as("fact", gen_key_fk_table(1 << 16, 1 << 18, 1));
    session.register_as("dim", gen_key_fk_table(1 << 13, 1 << 13, 2));
    session
}

#[test]
fn serving_layer_reports_degraded_outcomes_with_identical_rows() {
    let session = served_session();
    let query = served_query("served");
    let cfg = ExecConfig::new(Placement::GpuOnly);
    let clean = session.execute_with(&query, &cfg).expect("clean solo run");

    let faults = FaultPlan::new(
        vec![FaultSpec {
            gpu: 1,
            kind: FaultKind::GpuFailed,
            trigger: Trigger::AtGpuPacket(2),
        }],
        RetryPolicy::default(),
    );
    let mut server = SessionServer::new(session).with_faults(faults);
    let handle = server.submit_with(&query, &cfg);
    let batch = server.run_all();
    let outcome = batch.outcome(handle);
    match outcome.outcome {
        Outcome::Degraded { replans, .. } => assert!(replans >= 1, "replans: {replans}"),
        other => panic!("expected Degraded, got {other:?}"),
    }
    let report = outcome.report.as_ref().expect("degraded query still completes");
    assert_eq!(report.rows, clean.rows, "degraded served rows diverged from clean solo");
    // The loss is fleet-wide state: gpu1 stays quarantined, so the
    // admission budget now reflects the surviving fleet only.
    assert!(server.health().is_failed(1), "gpu1 quarantined server-wide");
    assert!(server.gpu_budget().is_some(), "gpu0 survives");
}

#[test]
fn timed_out_query_finishes_with_partial_report_not_error() {
    let session = served_session();
    let query = served_query("deadlined");
    let cfg = ExecConfig::new(Placement::CpuOnly);
    let mut server = SessionServer::new(session);
    // A deadline no multi-stage query can meet: one femtosecond.
    let handle = server.submit_with_budget(&query, &cfg, SimTime::from_ns(0.000_001));
    let batch = server.run_all();
    let outcome = batch.outcome(handle);
    match outcome.outcome {
        Outcome::TimedOut { budget, elapsed } => {
            assert!(elapsed > budget, "elapsed {elapsed} must exceed budget {budget}");
        }
        other => panic!("expected TimedOut, got {other:?}"),
    }
    assert!(outcome.report.is_ok(), "a deadline is a scheduling outcome, not an error");
}

#[test]
fn canceled_query_stops_at_the_next_stage_barrier() {
    let session = served_session();
    let query = served_query("canceled");
    let cfg = ExecConfig::new(Placement::CpuOnly);
    let mut server = SessionServer::new(session);
    let handle = server.submit_with(&query, &cfg);
    let token = server.cancel_token(handle).expect("pending submission has a token");
    assert!(!token.is_canceled());
    assert!(server.cancel(handle), "known handle cancels");
    assert!(token.is_canceled());
    let batch = server.run_all();
    let outcome = batch.outcome(handle);
    assert_eq!(outcome.outcome, Outcome::Canceled);
    assert!(outcome.report.is_ok(), "cancellation keeps the partial report");
}
