//! The execution tracing + metrics plane: structured spans, counters and
//! predicted-vs-observed cost records for every layer of the engine.
//!
//! A [`TraceRecorder`] is handed to the engine via
//! [`ExecConfig::with_trace`](crate::engine::ExecConfig::with_trace) (or to
//! the serving layer via
//! [`SessionServer::with_trace`](crate::serve::SessionServer::with_trace)).
//! While a query runs, the instrumented layers record
//!
//! * **spans** — query → stage → packet, the co-processing phases
//!   (prefix, GPU lanes, fold), build-cache lookups and admission rounds —
//!   each stamped with *both* clocks: the deterministic simulated interval
//!   ([`hape_sim::SimTime`]) and the wall-clock interval actually spent
//!   computing it (nanoseconds relative to the recorder's origin
//!   [`std::time::Instant`]);
//! * **counters** — rows in/out per operator kind, host-to-device packet
//!   and broadcast bytes, cache hits/misses, admission waits, packets per
//!   worker and per device class;
//! * **predicted-vs-observed records** — every stage span of an
//!   optimizer-placed ([`Placement::Auto`](crate::engine::Placement)) plan
//!   carries the optimizer's chosen [`StageCost`] decomposition next to
//!   the observed simulated elapsed time and row counts, making estimate
//!   error queryable per stage (the feedback hook of ROADMAP item 4).
//!
//! Recording is strictly an *observer*: the recorder is never consulted
//! for a decision, wall timestamps never feed back into simulated state,
//! and per-packet spans are recorded on the sequential control plane in
//! packet order — so results and simulated makespans stay bit-identical
//! to untraced runs at any data-plane thread count
//! (`tests/runtime_determinism.rs` asserts this).
//!
//! Two exporters turn a [`Trace`] snapshot into artifacts:
//! [`Trace::to_chrome_json`] (the Chrome tracing event format, sim time
//! and wall time as separate process lanes, workers as threads — load it
//! in `chrome://tracing` or Perfetto) and [`Trace::render_profile`] (a
//! deterministic plain-text per-stage table with est/actual ratios,
//! rendered by [`Session::profile`](crate::session::Session::profile) and
//! `figures --profile`).
//!
//! ```
//! use hape_core::trace::{SpanKind, TraceRecorder};
//! use hape_core::{ExecConfig, JoinAlgo, Placement, Query, Session};
//! use hape_ops::{col, AggFunc};
//! use hape_sim::topology::Server;
//! use hape_storage::datagen::gen_key_fk_table;
//!
//! let mut session = Session::new(Server::paper_testbed());
//! session.register_as("fact", gen_key_fk_table(1 << 14, 1 << 14, 42));
//! session.register_as("dim", gen_key_fk_table(1 << 12, 1 << 12, 43));
//! let query = session
//!     .query("q")
//!     .from_table("fact")
//!     .join(Query::scan("dim"), "k", "k", JoinAlgo::NonPartitioned)
//!     .agg(vec![(AggFunc::Count, col("k"))]);
//!
//! let recorder = TraceRecorder::new();
//! let cfg = ExecConfig::new(Placement::Auto).with_trace(recorder.clone());
//! session.execute_with(&query, &cfg).unwrap();
//!
//! let trace = recorder.snapshot();
//! assert!(trace.spans.iter().any(|s| s.kind == SpanKind::Packet));
//! let json = trace.to_chrome_json();
//! assert!(json.starts_with('['));
//! let profile = trace.render_profile();
//! assert!(profile.contains("est"));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hape_sim::SimTime;

use crate::cost::StageCost;

/// What a [`Span`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One whole query (lower → … → run), from sim zero to its makespan.
    Query,
    /// One placed stage (build / stream / co-process) of a query.
    Stage,
    /// One routed packet on the worker it committed to.
    Packet,
    /// A sub-stage phase: the co-processing prefix, GPU lanes or fold.
    Phase,
    /// A build-cache event: a lookup, or a build served from the cache
    /// (zero simulated duration).
    Cache,
    /// One scheduler admission round of the serving layer (wall only).
    Admission,
    /// The optimizer choosing a stage's device subset (carries the chosen
    /// estimate; zero simulated duration).
    Optimize,
    /// A fault-plane event: an injection firing, a priced transfer retry,
    /// or a mid-query re-placement on the surviving fleet.
    Fault,
}

impl std::fmt::Display for SpanKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SpanKind::Query => "query",
            SpanKind::Stage => "stage",
            SpanKind::Packet => "packet",
            SpanKind::Phase => "phase",
            SpanKind::Cache => "cache",
            SpanKind::Admission => "admission",
            SpanKind::Optimize => "optimize",
            SpanKind::Fault => "fault",
        })
    }
}

/// One recorded interval, stamped with both clocks.
#[derive(Debug, Clone)]
pub struct Span {
    /// What the interval describes.
    pub kind: SpanKind,
    /// Human-readable name (`"build q5.region"`, `"packet 17"`, …).
    pub name: String,
    /// The owning query's name (empty for server-level spans).
    pub query: String,
    /// Placed-stage index within the query, when the span belongs to one.
    pub stage: Option<usize>,
    /// The lane the span ran on: a worker (`"cpu0.3"`, `"gpu1"`) for
    /// packets, a pool thread (`"pool0"`) attribution for wall time.
    pub lane: Option<String>,
    /// Simulated interval start (query-local clock).
    pub sim_start: SimTime,
    /// Simulated interval end.
    pub sim_end: SimTime,
    /// Wall-clock start, nanoseconds since the recorder's origin.
    pub wall_start_ns: u64,
    /// Wall-clock end, nanoseconds since the recorder's origin.
    pub wall_end_ns: u64,
    /// Rows entering the spanned work (0 when not meaningful).
    pub rows_in: u64,
    /// Rows leaving the spanned work.
    pub rows_out: u64,
    /// The data-plane pool thread that computed the wall interval (packet
    /// spans). Wall-side metadata only — which thread ran a packet is
    /// scheduling-dependent and carries no simulated meaning.
    pub pool_thread: Option<usize>,
    /// The optimizer's chosen estimate, on stage/optimize spans of
    /// [`Placement::Auto`](crate::engine::Placement) plans — the
    /// *predicted* side of the predicted-vs-observed record.
    pub estimate: Option<StageCost>,
}

impl Span {
    /// A span with the given identity and every measurement zeroed; chain
    /// the `at_*`/`rows`/`lane`/`stage`/`estimate` builders to fill it in.
    pub fn new(kind: SpanKind, name: impl Into<String>, query: impl Into<String>) -> Self {
        Span {
            kind,
            name: name.into(),
            query: query.into(),
            stage: None,
            lane: None,
            sim_start: SimTime::ZERO,
            sim_end: SimTime::ZERO,
            wall_start_ns: 0,
            wall_end_ns: 0,
            rows_in: 0,
            rows_out: 0,
            pool_thread: None,
            estimate: None,
        }
    }

    /// Set the simulated interval.
    pub fn at_sim(mut self, start: SimTime, end: SimTime) -> Self {
        self.sim_start = start;
        self.sim_end = end;
        self
    }

    /// Set the wall interval (origin-relative nanoseconds).
    pub fn at_wall(mut self, start_ns: u64, end_ns: u64) -> Self {
        self.wall_start_ns = start_ns;
        self.wall_end_ns = end_ns;
        self
    }

    /// Set row counts.
    pub fn rows(mut self, rows_in: u64, rows_out: u64) -> Self {
        self.rows_in = rows_in;
        self.rows_out = rows_out;
        self
    }

    /// Set the lane label.
    pub fn lane(mut self, lane: impl Into<String>) -> Self {
        self.lane = Some(lane.into());
        self
    }

    /// Set the placed-stage index.
    pub fn stage(mut self, stage: usize) -> Self {
        self.stage = Some(stage);
        self
    }

    /// Set the data-plane pool thread that computed the wall interval.
    pub fn pool_thread(mut self, thread: usize) -> Self {
        self.pool_thread = Some(thread);
        self
    }

    /// Attach the optimizer's chosen estimate.
    pub fn estimate(mut self, cost: StageCost) -> Self {
        self.estimate = Some(cost);
        self
    }

    /// Simulated elapsed time of the span.
    pub fn sim_elapsed(&self) -> SimTime {
        self.sim_end - self.sim_start
    }

    /// Wall elapsed nanoseconds of the span.
    pub fn wall_elapsed_ns(&self) -> u64 {
        self.wall_end_ns.saturating_sub(self.wall_start_ns)
    }

    /// True when `other`'s simulated interval lies within this span's.
    pub fn sim_contains(&self, other: &Span) -> bool {
        self.sim_start <= other.sim_start && other.sim_end <= self.sim_end
    }
}

/// A snapshot of everything recorded so far: spans in record order plus
/// the aggregated counters (sorted by name for deterministic export).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Recorded spans, in the order the control plane recorded them.
    pub spans: Vec<Span>,
    /// Aggregated named counters.
    pub counters: BTreeMap<String, u64>,
}

struct Shared {
    origin: Instant,
    state: Mutex<Trace>,
}

/// A thread-safe handle that collects [`Span`]s and counters while the
/// engine runs. Cloning shares the underlying buffer, so one recorder can
/// observe a whole serving batch (or a sweep of solo runs) and export a
/// single combined [`Trace`].
///
/// The default recorder is **off**: every recording call is a no-op and
/// the instrumented layers skip even the bookkeeping that would produce
/// the values (`Default` is what an un-configured
/// [`ExecConfig`](crate::engine::ExecConfig) carries).
#[derive(Clone, Default)]
pub struct TraceRecorder {
    shared: Option<Arc<Shared>>,
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.shared {
            Some(s) => {
                let t = s.state.lock().expect("trace lock");
                write!(f, "TraceRecorder(on, {} spans)", t.spans.len())
            }
            None => f.write_str("TraceRecorder(off)"),
        }
    }
}

impl TraceRecorder {
    /// An **enabled** recorder with an empty buffer and a fresh wall-clock
    /// origin.
    #[allow(clippy::new_without_default)] // Default is the *disabled* recorder.
    pub fn new() -> Self {
        TraceRecorder {
            shared: Some(Arc::new(Shared {
                origin: Instant::now(),
                state: Mutex::new(Trace::default()),
            })),
        }
    }

    /// A disabled recorder (same as `Default`): all methods are no-ops.
    pub fn off() -> Self {
        TraceRecorder { shared: None }
    }

    /// Whether recording is on. Instrumentation gates *all* measurement
    /// work behind this, so a disabled recorder costs one branch.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Nanoseconds since the recorder's origin (0 when disabled). Wall
    /// times are inherently nondeterministic; they live only in trace
    /// output and never feed back into simulated state.
    pub fn now_ns(&self) -> u64 {
        match &self.shared {
            Some(s) => s.origin.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Record a span (no-op when disabled).
    pub fn record(&self, span: Span) {
        if let Some(s) = &self.shared {
            s.state.lock().expect("trace lock").spans.push(span);
        }
    }

    /// Add `delta` to the named counter (no-op when disabled).
    pub fn add(&self, counter: &str, delta: u64) {
        if let Some(s) = &self.shared {
            let mut t = s.state.lock().expect("trace lock");
            *t.counters.entry(counter.to_string()).or_insert(0) += delta;
        }
    }

    /// Clone the collected trace out of the recorder.
    pub fn snapshot(&self) -> Trace {
        match &self.shared {
            Some(s) => s.state.lock().expect("trace lock").clone(),
            None => Trace::default(),
        }
    }
}

/// The recording context one stage execution threads into the packet
/// loop: the recorder plus the identity (query name, stage index) every
/// packet span it records should carry. The context — not the recorder —
/// carries per-query identity, because the serving layer interleaves many
/// queries over one recorder.
#[derive(Debug, Clone)]
pub struct TraceCtx {
    rec: TraceRecorder,
    query: String,
    stage: Option<usize>,
}

impl TraceCtx {
    /// A disabled context (for untraced paths).
    pub fn disabled() -> Self {
        TraceCtx { rec: TraceRecorder::off(), query: String::new(), stage: None }
    }

    /// A context recording into `rec` on behalf of `query`'s stage
    /// `stage`.
    pub fn new(rec: &TraceRecorder, query: &str, stage: usize) -> Self {
        if !rec.is_enabled() {
            return TraceCtx::disabled();
        }
        TraceCtx { rec: rec.clone(), query: query.to_string(), stage: Some(stage) }
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.rec.is_enabled()
    }

    /// Nanoseconds since the recorder's origin (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        self.rec.now_ns()
    }

    /// Add `delta` to the named counter.
    pub fn add(&self, counter: &str, delta: u64) {
        self.rec.add(counter, delta);
    }

    /// Record `span` stamped with this context's query and stage.
    pub fn record(&self, span: Span) {
        if !self.is_enabled() {
            return;
        }
        let mut span = span;
        span.query.clone_from(&self.query);
        if span.stage.is_none() {
            span.stage = self.stage;
        }
        self.rec.record(span);
    }
}

/// Escape a string for embedding in a JSON string literal: quotes,
/// backslashes and every control character.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Format a float for JSON (finite guaranteed by construction; integral
/// values print without an exponent).
fn json_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The sim-time process lane in the Chrome export.
const PID_SIM: u32 = 1;
/// The wall-time process lane in the Chrome export.
const PID_WALL: u32 = 2;

impl Trace {
    /// Export as a Chrome tracing event array (load in `chrome://tracing`
    /// or [Perfetto](https://ui.perfetto.dev)).
    ///
    /// Two process lanes: pid 1 plots every span on the **simulated**
    /// clock, pid 2 plots the same spans on the **wall** clock — so the
    /// deterministic schedule the engine models and the real time the
    /// host spent computing it sit side by side. Within each lane, spans
    /// run on one thread row per lane label (workers like `cpu0.3` /
    /// `gpu1`, co-process phases, or the query itself), and every event's
    /// `args` carry the row counts plus the est/actual record when the
    /// span has one.
    pub fn to_chrome_json(&self) -> String {
        // Stable lane → tid mapping: sorted, queries-and-stages first row.
        let mut lanes: Vec<&str> =
            self.spans.iter().filter_map(|s| s.lane.as_deref()).collect();
        lanes.sort_unstable();
        lanes.dedup();
        let tid_of = |span: &Span| -> u32 {
            match span.lane.as_deref() {
                Some(l) => {
                    1 + lanes.iter().position(|x| *x == l).expect("lane collected") as u32
                }
                None => 0,
            }
        };
        let mut events: Vec<String> = Vec::new();
        for (pid, pname) in [(PID_SIM, "sim-time"), (PID_WALL, "wall-time")] {
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"{pname}\"}}}}"
            ));
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"control\"}}}}"
            ));
            for (i, lane) in lanes.iter().enumerate() {
                events.push(format!(
                    "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    i + 1,
                    json_escape(lane)
                ));
            }
        }
        for span in &self.spans {
            let tid = tid_of(span);
            let name = json_escape(&span.name);
            let mut args = format!(
                "\"kind\":\"{}\",\"query\":\"{}\",\"rows_in\":{},\"rows_out\":{},\
                 \"sim_ms\":{}",
                span.kind,
                json_escape(&span.query),
                span.rows_in,
                span.rows_out,
                json_f64(span.sim_elapsed().as_secs() * 1e3),
            );
            if let Some(stage) = span.stage {
                let _ = write!(args, ",\"stage\":{stage}");
            }
            if let Some(t) = span.pool_thread {
                let _ = write!(args, ",\"pool_thread\":{t}");
            }
            if let Some(est) = &span.estimate {
                let _ = write!(
                    args,
                    ",\"est_ms\":{},\"est_stream_ms\":{},\"est_broadcast_ms\":{},\
                     \"est_d2h_ms\":{}",
                    json_f64(est.total_seconds() * 1e3),
                    json_f64(est.stream_seconds * 1e3),
                    json_f64(est.broadcast_seconds * 1e3),
                    json_f64(est.d2h_seconds * 1e3),
                );
            }
            // Sim lane: microsecond timestamps from the simulated clock.
            let sim_ts = span.sim_start.as_ns() / 1e3;
            let sim_dur = span.sim_elapsed().as_ns() / 1e3;
            events.push(format!(
                "{{\"ph\":\"X\",\"pid\":{PID_SIM},\"tid\":{tid},\"name\":\"{name}\",\
                 \"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
                json_f64(sim_ts),
                json_f64(sim_dur),
            ));
            // Wall lane: microseconds since the recorder's origin.
            let wall_ts = span.wall_start_ns as f64 / 1e3;
            let wall_dur = span.wall_elapsed_ns() as f64 / 1e3;
            events.push(format!(
                "{{\"ph\":\"X\",\"pid\":{PID_WALL},\"tid\":{tid},\"name\":\"{name}\",\
                 \"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
                json_f64(wall_ts),
                json_f64(wall_dur),
            ));
        }
        // Counters ride one instant event so nothing is lost in export.
        if !self.counters.is_empty() {
            let body: Vec<String> = self
                .counters
                .iter()
                .map(|(k, v)| format!("\"{}\":{v}", json_escape(k)))
                .collect();
            events.push(format!(
                "{{\"ph\":\"C\",\"pid\":{PID_SIM},\"tid\":0,\"name\":\"counters\",\
                 \"ts\":0.0,\"args\":{{{}}}}}",
                body.join(",")
            ));
        }
        format!("[\n{}\n]\n", events.join(",\n"))
    }

    /// Render the deterministic per-stage predicted-vs-observed profile.
    ///
    /// One row per stage span — query, stage index, stage name, the
    /// devices the optimizer chose (blank for manual placements), the
    /// estimated and observed simulated makespans with their ratio, and
    /// the observed output rows — followed by the per-query totals and
    /// the counter block. Everything printed derives from simulated state
    /// and counters, so the output is bit-identical across runs and
    /// thread counts (wall time is exported via
    /// [`Trace::to_chrome_json`], not here).
    pub fn render_profile(&self) -> String {
        let mut out = String::new();
        out.push_str("== profile: predicted vs observed per stage (sim time) ==\n");
        let _ = writeln!(
            out,
            "{:<10} {:>5} {:<26} {:<20} {:>12} {:>12} {:>10} {:>10}",
            "query", "stage", "name", "devices", "est", "actual", "est/act", "rows_out"
        );
        for span in self.spans.iter().filter(|s| s.kind == SpanKind::Stage) {
            let devices =
                span.estimate.as_ref().map(StageCost::devices_label).unwrap_or_default();
            let (est, ratio) = match &span.estimate {
                Some(e) => {
                    let est_s = e.total_seconds();
                    let actual_s = span.sim_elapsed().as_secs();
                    let ratio = if actual_s > 0.0 {
                        format!("{:.2}", est_s / actual_s)
                    } else {
                        "-".to_string()
                    };
                    (fmt_ms(est_s), ratio)
                }
                None => ("-".to_string(), "-".to_string()),
            };
            let _ = writeln!(
                out,
                "{:<10} {:>5} {:<26} {:<20} {:>12} {:>12} {:>10} {:>10}",
                span.query,
                span.stage.map(|s| s.to_string()).unwrap_or_default(),
                span.name,
                devices,
                est,
                fmt_ms(span.sim_elapsed().as_secs()),
                ratio,
                span.rows_out,
            );
        }
        let queries: Vec<&Span> =
            self.spans.iter().filter(|s| s.kind == SpanKind::Query).collect();
        if !queries.is_empty() {
            out.push_str("-- queries --\n");
            for span in queries {
                let _ = writeln!(
                    out,
                    "{:<10} total {:>12}  rows_out {:>8}",
                    span.query,
                    fmt_ms(span.sim_elapsed().as_secs()),
                    span.rows_out
                );
            }
        }
        if !self.counters.is_empty() {
            out.push_str("-- counters --\n");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "{k:<36} {v:>14}");
            }
        }
        out
    }
}

/// Milliseconds with three decimals — matches the explain renderer's
/// estimate formatting so est and actual columns compare directly.
fn fmt_ms(seconds: f64) -> String {
    format!("{:.3}ms", seconds * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, name: &str, sim: (f64, f64)) -> Span {
        Span::new(kind, name, "q").at_sim(SimTime::from_ms(sim.0), SimTime::from_ms(sim.1))
    }

    #[test]
    fn disabled_recorder_records_nothing_and_stamps_zero() {
        let rec = TraceRecorder::off();
        assert!(!rec.is_enabled());
        assert_eq!(rec.now_ns(), 0);
        rec.record(span(SpanKind::Query, "q", (0.0, 1.0)));
        rec.add("x", 7);
        let t = rec.snapshot();
        assert!(t.spans.is_empty());
        assert!(t.counters.is_empty());
        // Default is the disabled recorder.
        assert!(!TraceRecorder::default().is_enabled());
    }

    #[test]
    fn clones_share_one_buffer_and_counters_aggregate() {
        let rec = TraceRecorder::new();
        let other = rec.clone();
        rec.add("rows", 3);
        other.add("rows", 4);
        other.record(span(SpanKind::Stage, "s", (0.0, 2.0)));
        let t = rec.snapshot();
        assert_eq!(t.counters["rows"], 7);
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].sim_elapsed(), SimTime::from_ms(2.0));
    }

    #[test]
    fn counters_aggregate_under_concurrent_recording() {
        // The recorder is shared by pool threads when wall spans are
        // measured on the data plane: hammer it from many threads.
        let rec = TraceRecorder::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let rec = rec.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        rec.add("hits", 1);
                    }
                });
            }
        });
        assert_eq!(rec.snapshot().counters["hits"], 800);
    }

    #[test]
    fn ctx_stamps_query_and_stage() {
        let rec = TraceRecorder::new();
        let ctx = TraceCtx::new(&rec, "Q5", 2);
        ctx.record(Span::new(SpanKind::Packet, "packet 0", ""));
        let t = rec.snapshot();
        assert_eq!(t.spans[0].query, "Q5");
        assert_eq!(t.spans[0].stage, Some(2));
        // A disabled recorder yields a disabled ctx.
        assert!(!TraceCtx::new(&TraceRecorder::off(), "Q5", 2).is_enabled());
        assert!(!TraceCtx::disabled().is_enabled());
    }

    #[test]
    fn span_nesting_is_checkable_via_sim_contains() {
        let query = span(SpanKind::Query, "q", (0.0, 10.0));
        let stage = span(SpanKind::Stage, "s", (2.0, 8.0));
        let packet = span(SpanKind::Packet, "p", (3.0, 4.0));
        assert!(query.sim_contains(&stage));
        assert!(stage.sim_contains(&packet));
        assert!(!packet.sim_contains(&stage));
    }

    #[test]
    fn chrome_export_has_both_lanes_and_escapes_names() {
        let rec = TraceRecorder::new();
        rec.record(
            span(SpanKind::Stage, "build \"dim\"", (0.0, 1.0)).lane("cpu0.0").rows(10, 5),
        );
        rec.add("h2d.packet_bytes", 42);
        let json = rec.snapshot().to_chrome_json();
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"name\":\"build \\\"dim\\\"\""));
        assert!(json.contains("\"name\":\"sim-time\""));
        assert!(json.contains("\"name\":\"wall-time\""));
        assert!(json.contains("\"name\":\"cpu0.0\""));
        assert!(json.contains("\"h2d.packet_bytes\":42"));
        assert!(json.contains("\"ph\":\"X\""));
    }

    #[test]
    fn profile_renders_est_actual_and_ratio() {
        use hape_sim::topology::DeviceId;
        let rec = TraceRecorder::new();
        let est = StageCost {
            devices: vec![DeviceId::Cpu(0), DeviceId::Gpu(1)],
            stream_seconds: 0.002,
            broadcast_seconds: 0.0,
            d2h_seconds: 0.0,
            ht_bytes: 0,
            gpu_required: 0,
            gpu_capacity: None,
            coprocess: None,
        };
        rec.record(
            Span::new(SpanKind::Stage, "stream", "Q5")
                .stage(1)
                .at_sim(SimTime::ZERO, SimTime::from_ms(4.0))
                .rows(100, 10)
                .estimate(est),
        );
        rec.record(
            Span::new(SpanKind::Query, "Q5", "Q5")
                .at_sim(SimTime::ZERO, SimTime::from_ms(4.0))
                .rows(0, 10),
        );
        let text = rec.snapshot().render_profile();
        assert!(text.contains("2.000ms"), "{text}");
        assert!(text.contains("4.000ms"), "{text}");
        assert!(text.contains("0.50"), "{text}");
        assert!(text.contains("cpu0+gpu1"), "{text}");
        assert!(text.contains("Q5"), "{text}");
    }
}
