//! The tracing + metrics plane, observed from outside the engine: span
//! nesting, counter/report agreement, the pinned Chrome-JSON schema and
//! the deterministic profile table for a fixed Q5 run, and the serving
//! layer's trace events.
//!
//! Everything asserted on the simulated side must be bit-identical across
//! runs and thread counts — the profile golden test runs the same query
//! at threads 1 and 8 and compares the rendered tables byte for byte.

use hape::core::serve::SessionServer;
use hape::core::trace::{SpanKind, Trace, TraceRecorder};
use hape::core::{ExecConfig, JoinAlgo, Placement, Session};
use hape::sim::topology::Server;
use hape::tpch::queries::q5_query;

const SF: f64 = 0.01;

fn tpch_session() -> Session {
    let data = hape::tpch::generate(SF, 7170);
    let mut session = Session::new(Server::tpch_scaled(SF));
    session.register(data.lineitem.clone());
    session.register(data.orders.clone());
    session.register(data.customer.clone());
    session.register(data.supplier.clone());
    session.register(data.partsupp.clone());
    session.register(data.nation.clone());
    session.register(data.region);
    session
}

/// One traced Q5 run under the optimizer at the given thread count.
fn traced_q5(threads: usize) -> (Trace, hape::core::QueryReport) {
    let session = tpch_session();
    let recorder = TraceRecorder::new();
    let cfg =
        ExecConfig::new(Placement::Auto).with_threads(threads).with_trace(recorder.clone());
    let report = session
        .execute_with(&q5_query(JoinAlgo::Partitioned), &cfg)
        .expect("Q5 Auto completes");
    (recorder.snapshot(), report)
}

#[test]
fn spans_nest_packet_within_stage_within_query() {
    let (trace, _) = traced_q5(1);
    let query_span =
        trace.spans.iter().find(|s| s.kind == SpanKind::Query).expect("query span recorded");
    assert_eq!(query_span.name, "Q5");
    let stages: Vec<_> = trace.spans.iter().filter(|s| s.kind == SpanKind::Stage).collect();
    assert!(!stages.is_empty(), "stage spans recorded");
    for stage in &stages {
        assert!(
            query_span.sim_contains(stage),
            "stage {:?} escapes the query's sim interval",
            stage.name
        );
        // Every stage of an Auto plan carries the optimizer's estimate —
        // the predicted side of the predicted-vs-observed record.
        assert!(stage.estimate.is_some(), "stage {:?} lost its estimate", stage.name);
    }
    for packet in trace.spans.iter().filter(|s| s.kind == SpanKind::Packet) {
        let stage = stages
            .iter()
            .find(|s| s.stage == packet.stage)
            .unwrap_or_else(|| panic!("packet {:?} has no stage span", packet.name));
        assert!(
            stage.sim_contains(packet),
            "packet {:?} escapes stage {:?}",
            packet.name,
            stage.name
        );
        assert!(packet.lane.is_some(), "packet {:?} lost its worker lane", packet.name);
    }
}

#[test]
fn counters_agree_with_the_query_report() {
    let (trace, report) = traced_q5(2);
    let counter = |name: &str| trace.counters.get(name).copied().unwrap_or(0);
    // Per-class, per-worker and per-span packet accounting all agree.
    let class_total = counter("packets.class.cpu") + counter("packets.class.gpu");
    let per_worker: u64 = trace
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("packets.worker."))
        .map(|(_, v)| v)
        .sum();
    let packet_spans = trace.spans.iter().filter(|s| s.kind == SpanKind::Packet).count() as u64;
    assert_eq!(class_total, packet_spans, "one packet span per routed packet");
    assert_eq!(per_worker, class_total, "per-worker counters decompose the class totals");
    // The report counts stream/co-process packets only; build stages route
    // packets through the same loop, so the trace's total dominates it.
    assert!(
        class_total >= (report.packets_cpu + report.packets_gpu) as u64,
        "trace saw {class_total} packets, report {}+{}",
        report.packets_cpu,
        report.packets_gpu
    );
    // The probe saw rows; the h2d counters saw the broadcast traffic.
    assert!(counter("rows.probe.in") > 0, "probe row counters recorded");
    assert_eq!(
        counter("h2d.broadcast_bytes") + counter("h2d.packet_bytes"),
        report.h2d_bytes,
        "h2d byte counters must decompose the report's h2d total"
    );
}

#[test]
fn chrome_json_schema_is_pinned_for_a_fixed_q5_run() {
    let (trace, _) = traced_q5(1);
    let json = trace.to_chrome_json();
    // The envelope: one JSON array, one event object per line.
    assert!(json.starts_with("[\n") && json.trim_end().ends_with(']'));
    // Both clock lanes are named via process-metadata events.
    assert!(
        json.contains(r#""pid":1,"tid":0,"name":"process_name","args":{"name":"sim-time"}"#)
    );
    assert!(
        json.contains(r#""pid":2,"tid":0,"name":"process_name","args":{"name":"wall-time"}"#)
    );
    // Worker lanes appear as named threads.
    assert!(json.contains(r#""name":"thread_name","args":{"name":"cpu0.0"}"#));
    // Spans export as complete events on both lanes, counters as one
    // counter event; no other phase kinds exist in the schema.
    let phase_counts = |ph: &str| json.matches(&format!(r#""ph":"{ph}""#)).count();
    assert_eq!(phase_counts("X"), 2 * trace.spans.len(), "two X events per span");
    assert_eq!(phase_counts("C"), 1, "one counter event");
    assert_eq!(
        phase_counts("X") + phase_counts("C") + phase_counts("M"),
        json.matches(r#""ph":""#).count(),
        "only X, C and M events in the export"
    );
    // Every event carries a non-empty name.
    assert_eq!(json.matches(r#""name":"""#).count(), 0, "no empty event names");
    // The query/stage/packet layers are all present.
    for name in [r#""name":"Q5""#, r#""name":"stream Q5.lineitem""#, r#""name":"packet 0""#] {
        assert!(json.contains(name), "missing span name {name}");
    }
    // Stage events carry the estimate decomposition next to observed rows.
    assert!(json.contains(r#""est_ms":"#) && json.contains(r#""rows_out":"#));
}

#[test]
fn profile_table_is_deterministic_and_pinned_for_q5() {
    let (trace_a, _) = traced_q5(1);
    let (trace_b, _) = traced_q5(8);
    let profile = trace_a.render_profile();
    // The profile derives only from simulated state and counters: the
    // rendered table is byte-identical across runs and thread counts.
    assert_eq!(profile, trace_b.render_profile(), "profile must not depend on threads");
    // Pinned structure: the header row and Q5's fixed stage names.
    assert!(profile.starts_with("== profile: predicted vs observed per stage (sim time) ==\n"));
    assert!(profile.contains("est/act") && profile.contains("rows_out"));
    for stage in [
        "build Q5.region",
        "build Q5.nation",
        "build Q5.customer",
        "build Q5.orders",
        "build Q5.supplier",
        "stream Q5.lineitem",
    ] {
        assert!(profile.contains(stage), "missing stage row {stage:?}\n{profile}");
    }
    assert!(profile.contains("-- queries --") && profile.contains("-- counters --"));
    // Session::profile renders the same table shape end to end.
    let via_session =
        tpch_session().profile(&q5_query(JoinAlgo::Partitioned)).expect("profile runs");
    assert!(via_session.contains("stream Q5.lineitem"));
    assert!(via_session.contains("est/act"));
}

#[test]
fn serving_layer_records_admission_and_cache_events() {
    let session = tpch_session();
    let recorder = TraceRecorder::new();
    let mut server = SessionServer::new(session).with_trace(recorder.clone());
    let q5 = q5_query(JoinAlgo::Partitioned);
    let a = server.submit_with(&q5, &ExecConfig::new(Placement::Auto));
    let b = server.submit_with(&q5, &ExecConfig::new(Placement::Auto));
    let batch = server.run_all();
    assert!(batch.report(a).is_ok() && batch.report(b).is_ok());

    let trace = recorder.snapshot();
    let count = |kind: SpanKind| trace.spans.iter().filter(|s| s.kind == kind).count();
    assert_eq!(count(SpanKind::Admission), 2, "one admission span per query");
    assert_eq!(count(SpanKind::Query), 2, "one query span per served query");
    // The repeat hit the cross-query cache: lookup events and the served
    // build both left their marks.
    assert!(count(SpanKind::Cache) >= 2, "cache lookups and served builds recorded");
    assert!(trace.counters.get("cache.hits").copied().unwrap_or(0) >= 1);
    assert!(trace.counters.get("cache.misses").copied().unwrap_or(0) >= 1);
    assert_eq!(trace.counters.get("admission.grants").copied(), Some(2));

    // The batch's metrics snapshot and Display summary agree with it.
    assert_eq!(batch.metrics.queries, 2);
    assert_eq!(batch.metrics.failures, 0);
    let builds_cached: usize = batch
        .outcomes
        .iter()
        .filter_map(|o| o.report.as_ref().ok())
        .map(|r| r.builds_cached)
        .sum();
    assert_eq!(batch.metrics.builds_cached, builds_cached);
    assert!(batch.metrics.builds_cached >= 1, "repeat served from cache");
    let text = batch.to_string();
    assert!(text.starts_with("served 2 queries"), "{text}");
    assert_eq!(text.matches("Q5").count(), 2, "one line per query:\n{text}");
    assert!(text.contains("ok"), "{text}");
}
