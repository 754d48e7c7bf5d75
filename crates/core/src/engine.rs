//! The HAPE engine: discrete-event execution of placed plans over the
//! simulated server.
//!
//! Execution follows §4.2/§5 as a generic interpretation of a
//! [`PlacedPlan`]: each placed stage instantiates one
//! [`crate::provider::DeviceProvider`] worker per operator
//! instance of its segments (a [`CpuWorker`] per core, a [`GpuWorker`] per
//! GPU), the stage's [`Exchange::Router`](crate::exchange::Exchange)
//! distributes source packets over *all* workers, and each worker realises
//! the exchanges on its own input edge — GPU workers charge the mem-move
//! across their PCIe link, broadcast the probed hash tables into device
//! memory first (the paper's Q9 capacity constraint, §6.4), and swap in
//! the GPU code-generation backend (the device crossing). Every worker
//! folds into a private aggregation state; states merge at the end — no
//! cross-device shared mutable structures, which is the paper's answer to
//! missing system-wide cache coherence.
//!
//! The interpreter never branches on [`Placement`]: placement decisions
//! are made once by [`crate::place::place`] and read back from the IR.

use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::Arc;

use hape_ops::agg::AggState;
use hape_ops::{AggSpec, GroupKey};
use hape_sim::topology::{DeviceId, Server};
use hape_sim::{pool, CpuCostModel, Fidelity, SimTime};
use hape_storage::Batch;

use hape_join::{coprocess_join_on, BuildProbeVariant, CoprocessConfig, JoinInput, OutputMode};

use crate::catalog::Catalog;
use crate::error::PlanError;
use crate::exchange::{route, CandidateLoad, Exchange};
use crate::fault::{FaultPlan, FaultSession, HealthRegistry};
use crate::place::{participants, place, place_on, PlacedPlan, PlacedStage, Segment};
use crate::plan::{JoinTable, PipeOp, Pipeline, QueryPlan};
use crate::provider::{
    gather_matches, run_ops, CpuWorker, DeviceProvider, GpuWorker, PacketWork, Scratch,
    TableStore,
};
use crate::runtime;
use crate::trace::{Span, SpanKind, TraceCtx, TraceRecorder};
use crate::traits::DeviceType;

pub use crate::error::EngineError;

/// Which devices execute the stream stage.
///
/// Since the placement pass, the manual arms are *sugar only*: they select
/// the participating devices in [`crate::place::participants`] and nothing
/// on the execution path branches on them. [`Placement::Auto`] instead
/// invokes the cost-based optimizer ([`crate::optimize::optimize`]), which
/// picks per-stage device subsets from the hardware model — the engine
/// interprets the resulting [`crate::place::PlacedPlan`] exactly like a
/// manually placed one. New device mixes (per-GPU subsets, remote
/// backends) extend the placement/optimizer passes, not the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// All CPU cores, no GPUs (Proteus CPU in Figure 8).
    CpuOnly,
    /// GPUs only (Proteus GPU).
    GpuOnly,
    /// Everything (Proteus Hybrid).
    Hybrid,
    /// Cost-based: the optimizer picks per-stage device subsets from the
    /// hardware model (compute throughput, interconnect cost, device
    /// memory capacity).
    Auto,
}

impl std::fmt::Display for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Placement::CpuOnly => "cpu",
            Placement::GpuOnly => "gpu",
            Placement::Hybrid => "hybrid",
            Placement::Auto => "auto",
        })
    }
}

/// A placement name that [`Placement`]'s `FromStr` did not recognise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePlacementError {
    /// The unrecognised input.
    pub input: String,
}

impl std::fmt::Display for ParsePlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown placement {:?} (expected cpu, gpu, hybrid or auto)", self.input)
    }
}

impl std::error::Error for ParsePlacementError {}

impl std::str::FromStr for Placement {
    type Err = ParsePlacementError;

    /// Parse a CLI-style placement name: `cpu`/`cpu-only`, `gpu`/
    /// `gpu-only`, `hybrid`, `auto` (case-insensitive).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "cpu" | "cpu-only" | "cpuonly" => Ok(Placement::CpuOnly),
            "gpu" | "gpu-only" | "gpuonly" => Ok(Placement::GpuOnly),
            "hybrid" => Ok(Placement::Hybrid),
            "auto" => Ok(Placement::Auto),
            _ => Err(ParsePlacementError { input: s.to_string() }),
        }
    }
}

/// Execution configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Device placement.
    pub placement: Placement,
    /// Rows per packet (`None` = auto: see
    /// [`ExecConfig::auto_packet_rows`]).
    pub packet_rows: Option<usize>,
    /// Data-plane threads (`None` = the `HAPE_THREADS` environment
    /// variable, else the host's available parallelism — see
    /// [`crate::runtime::resolve_threads`]). A pure wall-clock knob:
    /// simulated makespans and result rows are bit-identical at any value.
    pub threads: Option<usize>,
    /// The execution tracing plane's recorder (disabled by default).
    /// When enabled ([`ExecConfig::with_trace`]), runs through
    /// [`Engine::run`] / [`crate::session::Session`] record query, stage
    /// and packet spans plus counters into it — a pure observer: results
    /// and simulated makespans stay bit-identical to untraced runs.
    pub trace: TraceRecorder,
    /// The fault-injection plane's schedule (off by default, zero-cost
    /// when disabled — the tracer's discipline). When armed
    /// ([`ExecConfig::with_faults`]), runs fire the plan's deterministic
    /// faults and recover through priced retries and mid-query
    /// re-placement on the surviving fleet (see [`crate::fault`]).
    pub faults: FaultPlan,
}

impl ExecConfig {
    /// Default config for a placement.
    pub fn new(placement: Placement) -> Self {
        ExecConfig {
            placement,
            packet_rows: None,
            threads: None,
            trace: TraceRecorder::off(),
            faults: FaultPlan::off(),
        }
    }

    /// Explicit packet sizing.
    pub fn with_packet_rows(mut self, rows: usize) -> Self {
        self.packet_rows = Some(rows);
        self
    }

    /// Explicit data-plane thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Record spans and counters into `trace` while queries run under
    /// this config (see [`crate::trace`]). Clone the recorder before
    /// handing it over to snapshot the trace afterwards.
    pub fn with_trace(mut self, trace: TraceRecorder) -> Self {
        self.trace = trace;
        self
    }

    /// Arm the fault-injection plane: queries run under this config fire
    /// `faults`' deterministic schedule and recover through the
    /// [`crate::fault`] machinery (priced retries, re-placement on the
    /// surviving fleet). Triggers are simulated-time/packet-ordinal
    /// conditions, so a fixed plan stays bit-identical across thread
    /// counts.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The engine's packet-sizing rule for a stream of `rows` rows over
    /// `shares` worker packet shares: the `explicit` override when set,
    /// else about four packets per share, clamped to [2K, 1M] rows. The
    /// cost model ([`crate::cost::CostModel::stage_cost`]) prices packets
    /// by this rule too, and the `figures` binary / `tpch_hybrid` example
    /// expose the override as `--packet-rows` for sweeps.
    pub fn auto_packet_rows(rows: usize, shares: usize, explicit: Option<usize>) -> usize {
        if let Some(r) = explicit {
            return r.max(1);
        }
        (rows / (4 * shares.max(1))).clamp(2 << 10, 1 << 20)
    }

    /// The packet-size override a stage runs under: `explicit` for stream
    /// and co-process stages, none for builds, which are plumbing rather
    /// than the measured workload and always use the automatic rule.
    pub(crate) fn stage_packet_rows(is_build: bool, explicit: Option<usize>) -> Option<usize> {
        if is_build {
            None
        } else {
            explicit
        }
    }
}

/// The result of running a query.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// Aggregated result rows, sorted by group key.
    pub rows: Vec<(GroupKey, Vec<f64>)>,
    /// End-to-end simulated latency.
    pub time: SimTime,
    /// Aggregate CPU busy time.
    pub cpu_busy: SimTime,
    /// Aggregate GPU busy time.
    pub gpu_busy: SimTime,
    /// Host-to-device bytes moved (packet mem-moves and hash-table
    /// broadcasts, across all stages).
    pub h2d_bytes: u64,
    /// *Stream-stage* packets routed to CPU workers (build-stage packets
    /// are not counted — builds are plumbing, not the measured workload).
    pub packets_cpu: usize,
    /// *Stream-stage* packets routed to GPUs.
    pub packets_gpu: usize,
    /// Build stages served from the serving layer's cross-query build
    /// cache instead of executing (always 0 for solo [`Engine::run`] /
    /// [`Engine::run_placed`] runs, which start cold).
    pub builds_cached: usize,
    /// Transient transfer retries priced into the makespan (0 unless the
    /// fault plane fired a `TransferError`).
    pub retries: usize,
    /// Mid-query re-placements on the surviving fleet (0 unless the fault
    /// plane fired a permanent loss / OOM the query recovered from).
    pub replans: usize,
}

/// The engine.
#[derive(Debug, Clone)]
pub struct Engine {
    /// The server topology.
    pub server: Server,
}

/// Aggregated result rows, sorted by group key.
type AggRows = Vec<(GroupKey, Vec<f64>)>;

/// The simulated clock and counters a run adds to its query: where its
/// simulated interval ends, busy times, host-to-device bytes and packets.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    end: SimTime,
    cpu_busy: SimTime,
    gpu_busy: SimTime,
    h2d_bytes: u64,
    packets_cpu: usize,
    packets_gpu: usize,
}

impl Tally {
    /// The one accumulator: `next` ran after `self`, so its end is the new
    /// end and its counters add on.
    fn then(self, next: Tally) -> Tally {
        Tally {
            end: next.end,
            cpu_busy: self.cpu_busy + next.cpu_busy,
            gpu_busy: self.gpu_busy + next.gpu_busy,
            h2d_bytes: self.h2d_bytes + next.h2d_bytes,
            packets_cpu: self.packets_cpu + next.packets_cpu,
            packets_gpu: self.packets_gpu + next.packets_gpu,
        }
    }
}

/// What one segment run — or one whole co-process stage — reported back to
/// the interpreter.
struct StageOutcome {
    /// A non-aggregating pipeline's packet outputs, in packet order.
    outputs: Vec<Batch>,
    /// An aggregating pipeline's state: the workers' partial states merged
    /// in worker order.
    agg: Option<AggState>,
    tally: Tally,
}

impl StageOutcome {
    /// The aggregate's result rows (empty for a non-aggregating run).
    fn rows(&self) -> AggRows {
        self.agg.as_ref().map(AggState::finish).unwrap_or_default()
    }
}

/// The inputs that stay fixed while one placed stage runs, borrowed once and
/// shared by every segment run inside it (the co-process prefix and suffix
/// included).
struct StageEnv<'s> {
    engine: &'s Engine,
    catalog: &'s Catalog,
    tables: &'s TableStore,
    /// Tables already in device memory (the serving layer's cross-query
    /// cache installed them): GPU workers still account their footprint but
    /// skip the broadcast transfer and partition prep.
    resident: &'s HashSet<String>,
    /// The explicit packet-size override (see
    /// [`ExecConfig::auto_packet_rows`]).
    packet_rows: Option<usize>,
    threads: usize,
    faults: &'s FaultSession,
    ctx: &'s TraceCtx,
}

/// Where a segment run's packets come from.
#[derive(Clone, Copy)]
enum Input<'b> {
    /// The pipeline's catalog source table.
    Source,
    /// An in-memory batch: the co-process suffix's joined rows.
    Batch(&'b Batch),
}

impl Engine {
    /// Engine over a server (the GPU memory model runs at
    /// [`Fidelity::Analytic`]).
    pub fn new(server: Server) -> Self {
        Engine { server }
    }

    /// Place and run `plan` against `catalog` under `cfg`: sugar for the
    /// placement step followed by [`Engine::run_placed`]. Manual
    /// placements go through [`crate::place::place`];
    /// [`Placement::Auto`] goes through the cost-based optimizer
    /// ([`crate::optimize::optimize`]), which consumes the catalog's scan
    /// statistics to pick per-stage device subsets. Either way the
    /// interpreter sees only the placed IR.
    ///
    /// The plan is structurally re-validated by the placement pass, so
    /// hand-assembled physical plans that bypass [`QueryPlan::try_new`]
    /// surface [`EngineError::InvalidPlan`] instead of panicking
    /// mid-execution.
    pub fn run(
        &self,
        catalog: &Catalog,
        plan: &QueryPlan,
        cfg: &ExecConfig,
    ) -> Result<QueryReport, EngineError> {
        let placed = match cfg.placement {
            Placement::Auto => crate::optimize::optimize(plan, catalog, cfg, &self.server)?,
            _ => place(plan, cfg, &self.server)?,
        };
        let mut exec =
            self.begin(catalog, &placed)?.with_trace(&cfg.trace).with_faults(&cfg.faults);
        while !exec.is_done() {
            exec.step()?;
        }
        Ok(exec.finish())
    }

    /// Interpret a placed plan: stages in order, each over the workers its
    /// segments instantiate. Sugar for driving a [`QueryExec`] to
    /// completion — the serving layer ([`crate::serve::SessionServer`])
    /// instead steps many `QueryExec`s round-robin over the shared fleet.
    pub fn run_placed(
        &self,
        catalog: &Catalog,
        placed: &PlacedPlan,
    ) -> Result<QueryReport, EngineError> {
        let mut exec = self.begin(catalog, placed)?;
        while !exec.is_done() {
            exec.step()?;
        }
        Ok(exec.finish())
    }

    /// Start interpreting a placed plan without driving it to completion:
    /// the returned [`QueryExec`] owns every piece of per-query execution
    /// state (the run's table store, its simulated clock, busy/packet
    /// counters, partial results) and advances one stage per
    /// [`QueryExec::step`]. The engine itself stays stateless across
    /// queries — workers (and their clocks, aggregation states and
    /// calibrated estimates) are instantiated per stage inside the step —
    /// so one engine (one simulated fleet) serves any number of
    /// interleaved `QueryExec`s re-entrantly.
    ///
    /// Fallible since the fault-plane work: a set-but-invalid
    /// `HAPE_THREADS` surfaces as [`EngineError::InvalidConfig`] here
    /// instead of silently falling back.
    pub fn begin<'a>(
        &'a self,
        catalog: &'a Catalog,
        placed: &'a PlacedPlan,
    ) -> Result<QueryExec<'a>, EngineError> {
        // Debug builds run the static verifier on every plan the engine
        // begins and abort on *structural* diagnostics — IR the pass
        // pipeline must never emit. Conditions the interpreter rejects
        // with typed runtime errors (absent devices, unbuilt probes,
        // capacity) are left to it. See `crate::verify`.
        #[cfg(debug_assertions)]
        crate::verify::debug_check_placed(placed, catalog, &self.server);
        Ok(QueryExec {
            engine: self,
            catalog,
            placed: Cow::Borrowed(placed),
            threads: runtime::resolve_threads(placed.threads)?,
            tables: TableStore::new(),
            resident: HashSet::new(),
            tally: Tally::default(),
            builds_cached: 0,
            rows: Vec::new(),
            next_stage: 0,
            trace: TraceRecorder::off(),
            wall_start_ns: 0,
            faults: FaultSession::disabled(),
        })
    }

    /// Materialise a (non-aggregating) pipeline on all CPU cores against
    /// an explicit table store. Returns the output batch, the completion
    /// time (relative to `start`) and the CPU busy time.
    ///
    /// Placed plans never come through here — the co-processing stage
    /// materialises its prefix through the same segment runner. This hook
    /// exists for the co-processing makespan yardstick in
    /// `tests/auto_placement.rs`, which rebuilds the old hand-written Q9
    /// hybrid from it.
    pub fn materialize_cpu(
        &self,
        catalog: &Catalog,
        pipeline: &Pipeline,
        tables: &TableStore,
        start: SimTime,
    ) -> Result<(Batch, SimTime, SimTime), EngineError> {
        if pipeline.agg.is_some() {
            return Err(EngineError::InvalidPlan(PlanError::BuildWithAggregate {
                stage: pipeline.source.clone(),
            }));
        }
        let segments: Vec<Segment> = participants(Placement::CpuOnly, &self.server)
            .into_iter()
            .map(|d| Segment {
                target: d,
                traits: crate::place::segment_traits(d, &self.server),
                exchanges: Vec::new(),
            })
            .collect();
        let env = StageEnv {
            engine: self,
            catalog,
            tables,
            resident: &HashSet::new(),
            packet_rows: None,
            threads: runtime::resolve_threads(None)?,
            faults: &FaultSession::disabled(),
            ctx: &TraceCtx::disabled(),
        };
        let out = env.run(pipeline, &segments, Input::Source, start)?;
        Ok((concat_outputs(out.outputs), out.tally.end, out.tally.cpu_busy))
    }
}

impl StageEnv<'_> {
    /// Instantiate the workers a segment list describes: one
    /// [`CpuWorker`] per core of a CPU segment, one [`GpuWorker`] per GPU
    /// segment. A segment targeting a device this server lacks is the
    /// typed [`EngineError::DeviceNotPresent`]; one targeting a GPU the
    /// fault plane excluded is the recoverable
    /// [`EngineError::DeviceFailed`], and a GPU under an active
    /// `DeviceSlow` fault gets its PCIe link bandwidth derated before the
    /// worker prices anything.
    fn workers(
        &self,
        segments: &[Segment],
        agg: Option<&AggSpec>,
    ) -> Result<Vec<Box<dyn DeviceProvider>>, EngineError> {
        let server = &self.engine.server;
        let mut workers: Vec<Box<dyn DeviceProvider>> = Vec::new();
        for seg in segments {
            self.faults.ensure_usable(seg.target)?;
            match seg.target {
                DeviceId::Cpu(socket) => {
                    let spec = server.cpus.get(socket).ok_or_else(|| {
                        EngineError::DeviceNotPresent { device: format!("cpu{socket}") }
                    })?;
                    let model = CpuCostModel::new(spec.clone(), spec.cores);
                    for core in 0..spec.cores {
                        workers.push(Box::new(CpuWorker::new(
                            socket,
                            core,
                            model.clone(),
                            agg.map(|a| AggState::new(a.clone())),
                        )));
                    }
                }
                DeviceId::Gpu(idx) => {
                    let (spec, link) =
                        server.gpus.get(idx).zip(server.pcie.get(idx)).ok_or_else(|| {
                            EngineError::DeviceNotPresent { device: format!("gpu{idx}") }
                        })?;
                    let mut link = link.clone();
                    if let Some(f) = self.faults.link_slowdown(idx) {
                        // A degraded link: every transfer this stage prices
                        // — broadcasts, packets, build pulls — pays the
                        // derated bandwidth.
                        link.bw /= f;
                    }
                    // The segment's broadcast mem-move exchanges are the
                    // authoritative list of tables the worker installs.
                    let broadcast: Vec<String> = seg
                        .broadcast_moves()
                        .filter_map(|e| match e {
                            Exchange::MemMove { table: Some(t), .. } => Some(t.clone()),
                            _ => None,
                        })
                        .collect();
                    workers.push(Box::new(
                        GpuWorker::new(
                            idx,
                            spec.clone(),
                            link,
                            Fidelity::Analytic,
                            agg.map(|a| AggState::new(a.clone())),
                            broadcast,
                        )
                        .with_resident(self.resident.clone()),
                    ));
                }
            }
        }
        Ok(workers)
    }

    /// The segment runner: every Build, Stream and co-process segment run
    /// goes through here. It instantiates the segments' workers (one
    /// `dyn DeviceProvider` each — no knowledge of device classes beyond
    /// the trait), splits `input` into packets, and runs the two-plane
    /// packet loop from `start`.
    fn run(
        &self,
        pipeline: &Pipeline,
        segments: &[Segment],
        input: Input<'_>,
        start: SimTime,
    ) -> Result<StageOutcome, EngineError> {
        let agg_spec = pipeline.agg.as_ref();
        let mut workers = self.workers(segments, agg_spec)?;
        let (data, from_source) = match input {
            Input::Source => (&self.catalog.lookup(&pipeline.source)?.data, true),
            Input::Batch(batch) => (batch, false),
        };
        if workers.is_empty() {
            return Err(EngineError::NoWorkers { placement: "placed stage".to_string() });
        }
        let shares: usize = workers.iter().map(|w| w.packet_share()).sum();
        let rows_per_packet =
            ExecConfig::auto_packet_rows(data.rows(), shares, self.packet_rows);
        // Stateful aggregates consume whole per-user runs, so their packet
        // boundaries snap to user boundaries (plan validation guarantees
        // only filters precede the op, making its user column a valid
        // source-table index). The split is computed once, before any
        // worker sees a packet, so it is identical at every thread count.
        let packets = match pipeline.stateful_agg() {
            Some(agg) if from_source => {
                hape_ops::stateful::split_user_aligned(data, agg.user_col(), rows_per_packet)
            }
            _ => data.split(rows_per_packet),
        };
        self.packet_loop(&packets, pipeline, &mut workers, start)
    }

    /// The packet loop proper, over pre-split packets. Execution is split
    /// into the engine's two planes:
    ///
    /// 1. **Data plane (parallel)** — every packet runs the canonical
    ///    fused-kernel pass ([`run_ops`]) exactly once on the
    ///    [`hape_sim::pool`] and is priced per worker *cost class*
    ///    ([`DeviceProvider::charge`]). Results are pure per packet.
    /// 2. **Control plane (sequential)** — the router replays the exact
    ///    sequential semantics on the coordinator: per-packet candidate
    ///    `ready_at` state, the pick, the fault plane's commit hook
    ///    ([`FaultSession::on_commit`]) and the commit against the routed
    ///    worker's simulated clocks ([`DeviceProvider::commit_packet`]), in
    ///    packet order. Simulated makespans are therefore bit-identical at
    ///    any thread count.
    /// 3. **Data plane again** — each worker folds the packets routed to
    ///    it into its partial aggregation state, in routed order, one
    ///    fold job per worker on the same pool; the partial states merge at
    ///    the stage barrier in worker order.
    fn packet_loop(
        &self,
        packets: &[Batch],
        pipeline: &Pipeline,
        workers: &mut [Box<dyn DeviceProvider>],
        start: SimTime,
    ) -> Result<StageOutcome, EngineError> {
        let (tables, faults, ctx) = (self.tables, self.faults, self.ctx);

        // ---- Broadcast the probed hash tables along each worker's input
        // exchanges (a no-op for host-local workers) and check capacities.
        let mut h2d_bytes = 0u64;
        for w in workers.iter_mut() {
            faults.on_install(&**w, ctx)?;
            h2d_bytes += w.install_tables(pipeline, tables, start)?;
        }
        if h2d_bytes > 0 {
            ctx.add("h2d.broadcast_bytes", h2d_bytes);
        }

        // ---- Cost classes: one charge per packet per distinct class,
        // not per worker (all cores of a socket share a model). `reps`
        // holds each class's first worker.
        let mut reps: Vec<usize> = Vec::new();
        let class_of: Vec<usize> = (0..workers.len())
            .map(|wi| {
                let c = workers[wi].cost_class();
                reps.iter().position(|&r| workers[r].cost_class() == c).unwrap_or_else(|| {
                    reps.push(wi);
                    reps.len() - 1
                })
            })
            .collect();

        // ---- Phase 1, data plane: kernels once per packet, priced per
        // class, on the worker pool.
        let agg_spec = pipeline.agg.as_ref();
        let shared: &[Box<dyn DeviceProvider>] = workers;
        let charged = pool::scatter(
            self.threads,
            packets.len(),
            |t| (Scratch::new(), t),
            |i, (scratch, thread): &mut (Scratch, usize)| {
                let wall_start = ctx.now_ns();
                let work = run_ops(packets[i].clone(), pipeline, tables, scratch)?;
                let costs = reps
                    .iter()
                    .map(|&r| shared[r].charge(&work, agg_spec, tables))
                    .collect::<Result<Vec<SimTime>, EngineError>>()?;
                // Traced runs measure the packet's wall interval and pool
                // thread here; the control plane records the span.
                let span = ctx.is_enabled().then(|| {
                    Span::new(SpanKind::Packet, format!("packet {i}"), "")
                        .pool_thread(*thread)
                        .at_wall(wall_start, ctx.now_ns())
                        .rows(packets[i].rows() as u64, work.out.rows() as u64)
                });
                Ok::<_, EngineError>((work, costs, span))
            },
        );
        // First error in packet order — the same packet the sequential
        // loop would have tripped on.
        let mut works = charged.into_iter().collect::<Result<Vec<_>, EngineError>>()?;

        // ---- Phase 2, control plane: sequential routing + sim-time
        // accounting, replaying worker `ready_at` state in packet order.
        let mut end = start;
        let mut packets_cpu = 0usize;
        let mut packets_gpu = 0usize;
        let mut picks: Vec<usize> = Vec::with_capacity(works.len());
        for (i, (work, costs, span)) in works.iter_mut().enumerate() {
            let bytes = work.bytes.max(1);
            let candidates: Vec<CandidateLoad> = workers
                .iter()
                .map(|w| CandidateLoad {
                    ready_at: w.ready_at(start, bytes),
                    est_ns_per_byte: w.est_ns_per_byte(),
                })
                .collect();
            let pick = route(&candidates, packets[i].bytes());
            let w = &mut workers[pick];
            faults.on_commit(&mut **w, i, bytes, start, ctx)?;
            let outcome = w.commit_packet(work, costs[class_of[pick]], start);
            end = end.max(outcome.done);
            h2d_bytes += outcome.h2d_bytes;
            match w.device() {
                DeviceType::Cpu => packets_cpu += 1,
                DeviceType::Gpu => packets_gpu += 1,
            }
            picks.push(pick);
            if let Some(span) = span.take() {
                let span = span.at_sim(candidates[pick].ready_at, outcome.done);
                trace_packet(ctx, span, &**w, work, outcome.h2d_bytes);
            }
        }

        // ---- Phase 3: a build's outputs, or — data plane again — one
        // fold job per worker over the packets routed to it, in routed
        // order.
        let mut outputs = Vec::new();
        let mut routed: Vec<Vec<Batch>> = workers.iter().map(|_| Vec::new()).collect();
        for ((work, _, _), pick) in works.into_iter().zip(picks) {
            if work.out.rows() == 0 {
                continue;
            }
            match agg_spec {
                Some(_) => routed[pick].push(work.out),
                None => outputs.push(work.out),
            }
        }
        let jobs: Vec<_> =
            workers.iter_mut().zip(routed).filter(|(_, mine)| !mine.is_empty()).collect();
        pool::drain(self.threads, jobs, |(w, mine)| {
            for b in &mine {
                w.fold_packet(b);
            }
        });

        // ---- The stage barrier: partial states merge in worker order.
        let agg = agg_spec.map(|spec| {
            let mut merged = AggState::new(spec.clone());
            for a in workers.iter().filter_map(|w| w.agg()) {
                merged.merge(a);
            }
            merged
        });
        let busy_of = |device: DeviceType| {
            workers.iter().filter(|w| w.device() == device).map(|w| w.busy()).sum()
        };
        Ok(StageOutcome {
            outputs,
            agg,
            tally: Tally {
                end,
                cpu_busy: busy_of(DeviceType::Cpu),
                gpu_busy: busy_of(DeviceType::Gpu),
                h2d_bytes,
                packets_cpu,
                packets_gpu,
            },
        })
    }

    /// Run a placed co-processing stage
    /// ([`crate::place::PlacedStage::CoProcess`], §5):
    ///
    /// 1. the CPU segments run the pipeline *prefix* (every operator before
    ///    the final probe) through the segment runner, materialising the
    ///    intermediate;
    /// 2. the intermediate is co-partitioned against the final probe's
    ///    hash table and joined via `hape_join::coprocess_join_on` over
    ///    the stage's GPU lanes — each lane priced and capacity-checked
    ///    against its own spec, link and budget;
    /// 3. the match pairs are gathered into the same physical layout an
    ///    in-pipeline probe would produce; the remaining operators plus
    ///    the terminal aggregation run through the segment runner on the
    ///    CPU workers, or — when the probe feeds the aggregation directly
    ///    — through the fused fold.
    ///
    /// All failures are typed [`EngineError`]s — the skew/capacity cases
    /// surface as [`EngineError::OversizedCoPartition`], never a panic.
    fn run_coprocess(
        &self,
        pipeline: &Pipeline,
        agg_spec: &AggSpec,
        ht: &str,
        segments: &[Segment],
        gpus: &[DeviceId],
        start: SimTime,
    ) -> Result<StageOutcome, EngineError> {
        // The co-processed join drives its GPU lanes outside the packet
        // loop, so the lanes pass the workers' exclusion check up front.
        for &d in gpus {
            self.faults.ensure_usable(d)?;
        }
        let ctx = self.ctx;
        // ---- Split the pipeline at its final probe.
        let probe_idx = match pipeline.last_probe() {
            Some((idx, probe_ht)) if probe_ht == ht => idx,
            _ => return Err(EngineError::InvalidCoProcessStage { table: ht.to_string() }),
        };
        let PipeOp::JoinProbe { key_col, build_payload_cols, .. } = &pipeline.ops[probe_idx]
        else {
            return Err(EngineError::InvalidCoProcessStage { table: ht.to_string() });
        };
        let jt = self
            .tables
            .get(ht)
            .ok_or_else(|| EngineError::HashTableNotBuilt { table: ht.to_string() })?;

        // ---- 1. CPU prefix through the device providers.
        let prefix = Pipeline {
            source: pipeline.source.clone(),
            ops: pipeline.ops[..probe_idx].to_vec(),
            agg: None,
        };
        let wall_prefix_start = ctx.now_ns();
        let pre = self.run(&prefix, segments, Input::Source, start)?;
        let inter = concat_outputs(pre.outputs);
        let pre_end = pre.tally.end;
        let wall_prefix_end = ctx.now_ns();

        // ---- 2. Co-partition + single-pass GPU joins on the stage's
        // lanes. Sides follow the §5 convention: the (smaller) build side
        // is R, the streamed intermediate is S; values are row indices so
        // the match pairs address both batches. The lanes' tally holds the
        // CPU co-partitioning passes, the GPU joins and their transfers,
        // and one packet per co-partition.
        let mut joined = Batch::empty();
        let mut first_join_done = SimTime::ZERO;
        let mut lanes = Tally { end: pre_end, ..Tally::default() };
        if inter.rows() > 0 {
            // Zero-copy: the co-partitioner reads the Arc-backed key
            // column slice directly; no per-stage key vector is built.
            let probe_keys: &[i32] = inter.col(*key_col).as_i32();
            let probe_vals: Vec<u32> = (0..inter.rows() as u32).collect();
            let build_vals: Vec<u32> = (0..jt.rows() as u32).collect();
            let gpu_ids: Vec<usize> = gpus
                .iter()
                .filter_map(|d| match d {
                    DeviceId::Gpu(g) => Some(*g),
                    DeviceId::Cpu(_) => None,
                })
                .collect();
            let cfg = CoprocessConfig {
                n_gpus: gpu_ids.len(),
                cpu_workers: segments.iter().map(|s| s.traits.dop).sum(),
                variant: BuildProbeVariant::Sm,
                mode: OutputMode::MatchIndices,
                fidelity: Fidelity::Analytic,
                threads: self.threads,
            };
            let rep = coprocess_join_on(
                &self.engine.server,
                &gpu_ids,
                JoinInput::new(&jt.keys, &build_vals),
                JoinInput::new(probe_keys, &probe_vals),
                &cfg,
            )?;
            if let Some((build_rows, probe_rows)) = rep.outcome.pairs.as_ref() {
                joined = gather_matches(&inter, jt, probe_rows, build_rows, build_payload_cols);
            }
            first_join_done = rep.first_join_done;
            lanes = Tally {
                end: pre_end + rep.outcome.time,
                cpu_busy: rep.cpu_partition_time,
                gpu_busy: rep.gpu_busy,
                h2d_bytes: rep.h2d_bytes,
                packets_cpu: 0,
                packets_gpu: rep.per_gpu_assignments.iter().sum(),
            };
            if ctx.is_enabled() {
                // One co-partition assignment per lane: the per-lane
                // packet counters the profile's packet breakdown reads.
                for (g, n) in gpu_ids.iter().zip(&rep.per_gpu_assignments) {
                    ctx.add(&format!("packets.worker.gpu{g}"), *n as u64);
                }
                ctx.add("h2d.packet_bytes", rep.h2d_bytes);
            }
        }
        let join_end = lanes.end;
        let wall_join_end = ctx.now_ns();

        // ---- 3. Remaining operators + aggregation on the CPU workers.
        // Match pairs stream back as co-partitions complete, so the fold
        // overlaps the join phase (§5's pipelining) — but it cannot start
        // before the first co-partition's join lands *and* the CPUs have
        // finished the co-partitioning passes; the stage ends when both
        // the last join and the fold have finished.
        let fold_start = pre_end + first_join_done.max(lanes.cpu_busy);
        let suffix_ops = &pipeline.ops[probe_idx + 1..];
        let fold = if suffix_ops.is_empty() {
            self.fused_fold(agg_spec, &joined, ht, segments, fold_start)?
        } else {
            // Operators remain after the co-processed probe: the joined
            // rows re-enter the segment runner on the CPU workers.
            let suffix = Pipeline {
                source: pipeline.source.clone(),
                ops: suffix_ops.to_vec(),
                agg: pipeline.agg.clone(),
            };
            self.run(&suffix, segments, Input::Batch(&joined), fold_start)?
        };
        let mut tally = pre.tally.then(lanes).then(fold.tally);
        tally.end = tally.end.max(join_end);

        if ctx.is_enabled() {
            // The §5 phase spans: CPU prefix, the co-partitioned GPU
            // lanes, and the overlapping CPU fold.
            let wall_fold_end = ctx.now_ns();
            let groups = fold.agg.as_ref().map_or(0, AggState::n_groups);
            ctx.record(
                Span::new(SpanKind::Phase, "coprocess prefix", "")
                    .at_sim(start, pre_end)
                    .at_wall(wall_prefix_start, wall_prefix_end)
                    .rows(0, inter.rows() as u64),
            );
            ctx.record(
                Span::new(SpanKind::Phase, format!("coprocess lanes {ht}"), "")
                    .at_sim(pre_end, join_end)
                    .at_wall(wall_prefix_end, wall_join_end)
                    .rows(inter.rows() as u64, joined.rows() as u64),
            );
            ctx.record(
                Span::new(SpanKind::Phase, "coprocess fold", "")
                    .at_sim(fold_start, tally.end)
                    .at_wall(wall_join_end, wall_fold_end)
                    .rows(joined.rows() as u64, groups as u64),
            );
        }
        Ok(StageOutcome { outputs: Vec::new(), agg: fold.agg, tally })
    }

    /// The §5 shape of the co-process fold: the co-processed probe feeds
    /// the aggregation directly, so the match pairs stream through
    /// registers into the fold (fused consumption) — expression evaluation
    /// plus group-table random accesses, spread over the CPU workers; no
    /// rematerialised scan of the joined rows. The fold keeps its own
    /// charge: it is a model term, not a packet loop.
    fn fused_fold(
        &self,
        agg_spec: &AggSpec,
        joined: &Batch,
        ht: &str,
        segments: &[Segment],
        start: SimTime,
    ) -> Result<StageOutcome, EngineError> {
        let socket = segments
            .iter()
            .find_map(|s| match s.target {
                DeviceId::Cpu(socket) => Some(socket),
                DeviceId::Gpu(_) => None,
            })
            .ok_or_else(|| EngineError::InvalidCoProcessStage { table: ht.to_string() })?;
        let spec =
            self.engine.server.cpus.get(socket).ok_or_else(|| {
                EngineError::DeviceNotPresent { device: format!("cpu{socket}") }
            })?;
        let model = CpuCostModel::new(spec.clone(), spec.cores);
        let dop: usize = segments.iter().map(|s| s.traits.dop).sum();
        // The fold rides the same worker pool as the packet loop:
        // deterministic per-dop chunks folded in parallel, partial states
        // merged in chunk order (thread-count-independent), charged
        // exactly what the single-pass fold charges — the same expression
        // work plus random accesses into the final group table.
        let mut state = AggState::new(agg_spec.clone());
        let busy = if joined.rows() > 0 {
            let chunk_rows = ExecConfig::auto_packet_rows(joined.rows(), dop, None);
            let chunks = joined.split(chunk_rows);
            let partials = pool::scatter(
                self.threads,
                chunks.len(),
                |_| (),
                |i, _scratch| {
                    let mut partial = AggState::new(agg_spec.clone());
                    partial.update(&chunks[i]);
                    partial
                },
            );
            for p in &partials {
                state.merge(p);
            }
            hape_ops::cpu::agg_cost(agg_spec, joined.rows() as u64, state.n_groups(), &model)
        } else {
            SimTime::ZERO
        };
        let end = start + busy / (dop.max(1) as f64 * 0.9);
        Ok(StageOutcome {
            outputs: Vec::new(),
            agg: Some(state),
            tally: Tally { end, cpu_busy: busy, ..Tally::default() },
        })
    }
}

/// Record one committed packet: its span on the routed worker's lane, and
/// the per-worker, per-class, h2d and per-operator row counters.
fn trace_packet(
    ctx: &TraceCtx,
    span: Span,
    worker: &dyn DeviceProvider,
    work: &PacketWork,
    h2d_bytes: u64,
) {
    let lane = worker.id().to_string();
    ctx.record(span.lane(lane.clone()));
    ctx.add(&format!("packets.worker.{lane}"), 1);
    let class = match worker.device() {
        DeviceType::Cpu => "packets.class.cpu",
        DeviceType::Gpu => "packets.class.gpu",
    };
    ctx.add(class, 1);
    if h2d_bytes > 0 {
        ctx.add("h2d.packet_bytes", h2d_bytes);
    }
    for op in &work.ops {
        ctx.add(&format!("rows.{}.in", op.label()), op.rows_in());
        ctx.add(&format!("rows.{}.out", op.label()), op.rows_out());
    }
}

/// The per-query execution state of one in-flight placed plan: the table
/// store accumulating built hash tables, the query's private simulated
/// clock (always starting at [`SimTime::ZERO`], regardless of what else
/// the fleet is serving), busy/packet counters and partial results.
///
/// Created by [`Engine::begin`]; advanced one placed stage at a time by
/// [`QueryExec::step`]; consumed by [`QueryExec::finish`]. Because all
/// worker state (clocks, aggregation states, calibrated estimates) is
/// instantiated per stage *inside* the step, interleaving steps of many
/// `QueryExec`s over the same engine — as the serving layer's scheduler
/// does — leaves every query's simulated makespan and result rows
/// bit-identical to running it solo.
pub struct QueryExec<'a> {
    engine: &'a Engine,
    catalog: &'a Catalog,
    // Borrowed for the common fault-free run; re-placement on the
    // surviving fleet swaps in an owned degraded plan mid-query.
    placed: Cow<'a, PlacedPlan>,
    threads: usize,
    tables: TableStore,
    resident: HashSet<String>,
    /// The query's private simulated clock (`end`) and counters.
    tally: Tally,
    builds_cached: usize,
    rows: AggRows,
    next_stage: usize,
    trace: TraceRecorder,
    wall_start_ns: u64,
    faults: FaultSession,
}

impl<'a> QueryExec<'a> {
    /// Record this execution into `trace` (see [`crate::trace`]): a query
    /// span over the whole run, one stage span per [`QueryExec::step`] —
    /// carrying the optimizer's estimate when the plan has one — and
    /// per-packet spans from the packet loop. A disabled recorder keeps
    /// this a no-op; either way results and simulated times are
    /// bit-identical to an untraced execution.
    pub fn with_trace(mut self, trace: &TraceRecorder) -> Self {
        self.trace = trace.clone();
        self.wall_start_ns = trace.now_ns();
        self
    }

    /// Arm the fault plane for this execution with a private health
    /// registry (solo runs — each query sees its own fleet health).
    pub fn with_faults(self, plan: &FaultPlan) -> Self {
        self.with_fault_health(plan, HealthRegistry::new())
    }

    /// Arm the fault plane with a *shared* health registry — the serving
    /// layer's: a device a query loses permanently stays quarantined for
    /// every later admission on the same [`crate::serve::SessionServer`].
    pub fn with_fault_health(mut self, plan: &FaultPlan, health: HealthRegistry) -> Self {
        self.faults = FaultSession::new(plan.clone(), health);
        self
    }

    /// The query's private simulated clock (sim time elapsed so far) —
    /// what the serving layer's per-query deadline checks against.
    pub fn sim_time(&self) -> SimTime {
        self.tally.end
    }

    /// True once every placed stage has run (or been served from cache).
    pub fn is_done(&self) -> bool {
        self.next_stage >= self.placed.stages.len()
    }

    /// Index of the next stage [`QueryExec::step`] would run.
    pub fn stage_index(&self) -> usize {
        self.next_stage
    }

    /// The placed plan this execution interprets — the degraded
    /// re-placement once mid-query recovery has swapped one in.
    pub fn placed(&self) -> &PlacedPlan {
        &self.placed
    }

    /// Pre-install a built hash table under `name`, as the serving
    /// layer's cross-query cache does at admission: the matching
    /// [`PlacedStage::Build`] stage is then skipped entirely — no build
    /// work, no clock advance — and counted in
    /// [`QueryReport::builds_cached`]. With `device_resident`, GPU
    /// workers additionally treat the table as already broadcast: its
    /// footprint still counts against device memory, but the PCIe
    /// transfer and partition prep are skipped.
    pub fn install_cached_build(
        &mut self,
        name: &str,
        table: Arc<JoinTable>,
        device_resident: bool,
    ) {
        if self.tables.insert(name.to_string(), table).is_none() {
            self.builds_cached += 1;
        }
        if device_resident {
            self.resident.insert(name.to_string());
        }
    }

    /// A hash table built (or cache-installed) so far, by name — how the
    /// serving layer harvests freshly built tables into its cache.
    pub fn built_table(&self, name: &str) -> Option<Arc<JoinTable>> {
        self.tables.get(name).cloned()
    }

    /// Run the next placed stage to completion. A no-op once
    /// [`QueryExec::is_done`]; errors leave the execution positioned
    /// after the failed stage (per-query failure isolation: other
    /// in-flight queries are unaffected).
    ///
    /// With the fault plane armed, the stage-barrier faults fire first
    /// and a stage lost to a (recoverable) [`EngineError::DeviceFailed`]
    /// is re-placed on the surviving fleet and re-run from this barrier —
    /// bounded by [`crate::fault::RetryPolicy::max_replans`], after which the typed
    /// [`EngineError::RecoveryFailed`] surfaces. Aborted attempts leave
    /// no trace in the query's clock or counters: all accumulation
    /// happens after the stage result is `Ok`.
    pub fn step(&mut self) -> Result<(), EngineError> {
        if self.next_stage >= self.placed.stages.len() {
            return Ok(());
        }
        let idx = self.next_stage;
        self.next_stage += 1;
        if !self.faults.is_active() {
            return self.run_stage_at(idx);
        }
        self.fire_barrier_faults(idx);
        loop {
            match self.run_stage_at(idx) {
                Err(EngineError::DeviceFailed { device }) => {
                    let policy = self.faults.retry_policy();
                    if self.faults.replans() >= policy.max_replans as usize {
                        return Err(EngineError::RecoveryFailed {
                            reason: format!(
                                "replan budget ({}) exhausted after losing {device}",
                                policy.max_replans
                            ),
                        });
                    }
                    self.replan_surviving(idx, &device)?;
                }
                other => return other,
            }
        }
    }

    /// Interpret one placed stage by index — the body of the fault-free
    /// fast path, and the retried unit of the recovery loop. Clones the
    /// stage up front: the plan may be `Cow::Owned` after a re-placement
    /// and the interpretation mutates `self` throughout.
    fn run_stage_at(&mut self, idx: usize) -> Result<(), EngineError> {
        let Some(stage) = self.placed.stages.get(idx).cloned() else {
            return Ok(());
        };
        let stage = &stage;
        let pipeline = stage.pipeline();
        let ctx = TraceCtx::new(&self.trace, &self.placed.name, idx);
        let sim_start = self.tally.end;
        let wall_start = ctx.now_ns();
        // Observed source cardinality — the stage span's rows_in.
        let rows_in = if ctx.is_enabled() {
            self.catalog.lookup(pipeline.source.as_str()).map_or(0, |t| t.rows() as u64)
        } else {
            0
        };
        if let PlacedStage::Build { name, .. } = stage {
            if self.tables.contains_key(name) {
                // Served from the cross-query cache at admission: nothing
                // to build, no simulated time passes.
                if ctx.is_enabled() {
                    ctx.add("cache.builds_served", 1);
                    ctx.record(
                        Span::new(SpanKind::Cache, format!("cached build {name}"), "")
                            .at_sim(sim_start, sim_start)
                            .at_wall(wall_start, ctx.now_ns()),
                    );
                }
                return Ok(());
            }
        }
        let stream_agg = || {
            pipeline.agg.as_ref().ok_or_else(|| {
                EngineError::InvalidPlan(PlanError::StreamWithoutAggregate {
                    name: pipeline.source.clone(),
                })
            })
        };
        let env = StageEnv {
            engine: self.engine,
            catalog: self.catalog,
            tables: &self.tables,
            resident: &self.resident,
            packet_rows: ExecConfig::stage_packet_rows(
                matches!(stage, PlacedStage::Build { .. }),
                self.placed.packet_rows,
            ),
            threads: self.threads,
            faults: &self.faults,
            ctx: &ctx,
        };
        let (out, stage_name, rows_out) = match stage {
            PlacedStage::Build { name, key_col, segments, .. } => {
                let mut out = env.run(pipeline, segments, Input::Source, sim_start)?;
                let batch = concat_outputs(std::mem::take(&mut out.outputs));
                let table = Arc::new(JoinTable::build(batch, *key_col));
                let rows_out = table.rows() as u64;
                self.tables.insert(name.clone(), table);
                // Builds are plumbing, not the measured workload: the
                // report counts stream-stage packets only.
                (out.tally.packets_cpu, out.tally.packets_gpu) = (0, 0);
                (out, format!("build {name}"), rows_out)
            }
            PlacedStage::Stream { segments, .. } => {
                stream_agg()?;
                let out = env.run(pipeline, segments, Input::Source, sim_start)?;
                self.rows = out.rows();
                (out, format!("stream {}", pipeline.source), self.rows.len() as u64)
            }
            PlacedStage::CoProcess { ht, segments, gpus, .. } => {
                let out =
                    env.run_coprocess(pipeline, stream_agg()?, ht, segments, gpus, sim_start)?;
                self.rows = out.rows();
                (out, format!("coprocess {ht}"), self.rows.len() as u64)
            }
        };
        self.tally = self.tally.then(out.tally);
        if ctx.is_enabled() {
            // The predicted-vs-observed record: the optimizer's chosen
            // estimate (Auto plans only) rides the stage span next to the
            // observed simulated elapsed time and row counts.
            let mut span = Span::new(SpanKind::Stage, stage_name, "")
                .at_sim(sim_start, self.tally.end)
                .at_wall(wall_start, ctx.now_ns())
                .rows(rows_in, rows_out);
            if let Some(est) = self.placed.costs.as_ref().and_then(|c| c.stages.get(idx)) {
                span = span.estimate(est.clone());
            }
            ctx.record(span);
        }
        Ok(())
    }

    /// Fire the fault plan's stage-/time-triggered faults at this stage
    /// barrier (before any of the stage's workers exist): permanent
    /// losses land in the health registry, slow-downs derate links, OOMs
    /// arm for the next broadcast install.
    fn fire_barrier_faults(&self, idx: usize) {
        let ctx = TraceCtx::new(&self.trace, &self.placed.name, idx);
        for spec in self.faults.begin_stage(idx, self.tally.end) {
            ctx.fault(format!(
                "injected {:?} on gpu{} at stage {idx} barrier",
                spec.kind, spec.gpu
            ));
        }
    }

    /// Mid-query re-placement after losing `lost`: re-derive the logical
    /// plan, route it around the quarantined devices through the ordinary
    /// placement passes, gate the result on the static verifier's
    /// *structural* diagnostics, price one backoff onto the sim clock and
    /// swap the degraded plan in. The stage at `idx` then re-runs from
    /// its barrier; completed builds replay as cache hits from their host
    /// copies (device-resident copies on the old fleet are dropped).
    fn replan_surviving(&mut self, idx: usize, lost: &str) -> Result<(), EngineError> {
        let excluded = self.faults.excluded();
        let server = &self.engine.server;
        let survives = |d: &DeviceId| match d {
            DeviceId::Gpu(g) => !excluded.contains(g),
            DeviceId::Cpu(_) => true,
        };
        let logical = self.placed.logical();
        let mut cfg = ExecConfig::new(Placement::Auto);
        cfg.packet_rows = self.placed.packet_rows;
        cfg.threads = self.placed.threads;
        let replaced = if self.placed.costs.is_some() {
            // The optimizer placed this plan: re-optimize every stage
            // against the surviving pool.
            let pool: Vec<DeviceId> =
                participants(Placement::Auto, server).into_iter().filter(survives).collect();
            crate::optimize::optimize_on(&logical, self.catalog, &cfg, server, &pool)
        } else {
            // Manual placement: keep each stage's device set minus the
            // quarantined GPUs; a stage left empty falls back to the
            // surviving CPUs.
            let cpu_survivors = participants(Placement::CpuOnly, server);
            let subsets: Vec<Vec<DeviceId>> = self
                .placed
                .stage_devices()
                .into_iter()
                .map(|devs| {
                    let kept: Vec<DeviceId> =
                        devs.into_iter().filter(|d| survives(d)).collect();
                    if kept.is_empty() {
                        cpu_survivors.clone()
                    } else {
                        kept
                    }
                })
                .collect();
            place_on(&logical, &cfg, server, &subsets)
        };
        let new_placed = replaced.map_err(|e| EngineError::RecoveryFailed {
            reason: format!("lost {lost}; re-placement refused: {e}"),
        })?;
        // Gate resumption on the static verifier, but only refuse on
        // *structural* diagnostics — capacity diagnostics stay with the
        // interpreter so a degraded plan that genuinely cannot fit fails
        // with the same typed error a fault-free run would produce.
        if let Err(e) = crate::verify::verify_placed(&new_placed, self.catalog, server) {
            if e.structural().is_some() {
                return Err(EngineError::RecoveryFailed {
                    reason: format!("lost {lost}; degraded plan failed verification: {e}"),
                });
            }
        }
        self.resident.clear();
        // Recovery is priced: one backoff per replan attempt lands on the
        // query's simulated clock (see the cost-formula table).
        let policy = self.faults.retry_policy();
        let attempt = self.faults.replans() as u32 + 1;
        self.tally.end += policy.backoff(attempt);
        self.faults.note_replan();
        if self.trace.is_enabled() {
            let ctx = TraceCtx::new(&self.trace, &self.placed.name, idx);
            ctx.record(Span::new(
                SpanKind::Fault,
                format!("replanned stage {idx} on surviving fleet after losing {lost}"),
                "",
            ));
            ctx.add("fault.replans", 1);
        }
        self.placed = Cow::Owned(new_placed);
        Ok(())
    }

    /// Consume the execution into its final report.
    pub fn finish(self) -> QueryReport {
        if self.trace.is_enabled() {
            self.trace.record(
                Span::new(SpanKind::Query, self.placed.name.clone(), self.placed.name.clone())
                    .at_sim(SimTime::ZERO, self.tally.end)
                    .at_wall(self.wall_start_ns, self.trace.now_ns())
                    .rows(0, self.rows.len() as u64),
            );
        }
        QueryReport {
            rows: self.rows,
            time: self.tally.end,
            cpu_busy: self.tally.cpu_busy,
            gpu_busy: self.tally.gpu_busy,
            h2d_bytes: self.tally.h2d_bytes,
            packets_cpu: self.tally.packets_cpu,
            packets_gpu: self.tally.packets_gpu,
            builds_cached: self.builds_cached,
            retries: self.faults.retries(),
            replans: self.faults.replans(),
        }
    }
}

/// Concatenate packet outputs into one batch (column-wise).
fn concat_outputs(outputs: Vec<Batch>) -> Batch {
    match outputs.len() {
        0 => Batch::empty(),
        1 => outputs.into_iter().next().expect("len checked"),
        _ => {
            let n_cols = outputs[0].columns.len();
            let cols = (0..n_cols)
                .map(|c| {
                    let parts: Vec<_> = outputs.iter().map(|b| b.columns[c].clone()).collect();
                    hape_storage::Column::concat(&parts)
                })
                .collect();
            Batch::new(cols)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{JoinAlgo, Pipeline, Stage};
    use hape_ops::{AggFunc, AggSpec, Expr};
    use hape_storage::datagen::gen_key_fk_table;

    fn setup() -> (Catalog, QueryPlan) {
        let mut catalog = Catalog::new();
        catalog.register_as("fact", gen_key_fk_table(1 << 18, 1 << 18, 1));
        catalog.register_as("dim", gen_key_fk_table(1 << 14, 1 << 14, 2));
        let plan = QueryPlan::try_new(
            "test",
            vec![
                Stage::Build {
                    name: "dim_ht".into(),
                    key_col: 0,
                    pipeline: Pipeline::scan("dim"),
                },
                Stage::Stream {
                    pipeline: Pipeline::scan("fact")
                        .join("dim_ht", 0, vec![1], JoinAlgo::NonPartitioned)
                        .aggregate(AggSpec::ungrouped(vec![
                            (AggFunc::Count, Expr::col(0)),
                            (AggFunc::Sum, Expr::col(2)),
                        ])),
                },
            ],
        )
        .unwrap();
        (catalog, plan)
    }

    #[test]
    fn all_placements_agree_on_results() {
        let (catalog, plan) = setup();
        let engine = Engine::new(Server::paper_testbed());
        let mut results = Vec::new();
        for placement in [Placement::CpuOnly, Placement::GpuOnly, Placement::Hybrid] {
            let rep = engine.run(&catalog, &plan, &ExecConfig::new(placement)).unwrap();
            assert_eq!(rep.rows[0].1[0], (1 << 14) as f64, "{placement:?}");
            results.push(rep.rows.clone());
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn hybrid_uses_both_device_kinds() {
        let (catalog, plan) = setup();
        let engine = Engine::new(Server::paper_testbed());
        let rep = engine.run(&catalog, &plan, &ExecConfig::new(Placement::Hybrid)).unwrap();
        assert!(rep.packets_cpu > 0, "no CPU packets");
        assert!(rep.packets_gpu > 0, "no GPU packets");
        assert!(rep.h2d_bytes > 0);
        assert!(rep.gpu_busy.as_ns() > 0.0);
        assert!(rep.cpu_busy.as_ns() > 0.0);
    }

    #[test]
    fn gpu_only_moves_everything_over_pcie() {
        let (catalog, plan) = setup();
        let engine = Engine::new(Server::paper_testbed());
        let rep = engine.run(&catalog, &plan, &ExecConfig::new(Placement::GpuOnly)).unwrap();
        assert_eq!(rep.packets_cpu, 0);
        assert!(rep.packets_gpu > 0);
        // Fact table + hash-table broadcast both crossed PCIe.
        let fact_bytes = catalog.expect("fact").bytes();
        assert!(rep.h2d_bytes > fact_bytes);
    }

    #[test]
    fn oversized_hash_table_rejected_on_gpu() {
        let (catalog, plan) = setup();
        // GPU memory scaled to ~96 KiB: the 16K-entry table cannot fit.
        let engine = Engine::new(Server::paper_testbed_gpu_mem_scaled(1.0 / 65536.0));
        let err =
            engine.run(&catalog, &plan, &ExecConfig::new(Placement::GpuOnly)).unwrap_err();
        assert!(matches!(err, EngineError::GpuMemoryExceeded { .. }), "{err}");
        // CPU-only still works.
        assert!(engine.run(&catalog, &plan, &ExecConfig::new(Placement::CpuOnly)).is_ok());
    }

    #[test]
    fn missing_table_reported() {
        let (_, plan) = setup();
        let engine = Engine::new(Server::paper_testbed());
        let err = engine
            .run(&Catalog::new(), &plan, &ExecConfig::new(Placement::CpuOnly))
            .unwrap_err();
        assert!(matches!(err, EngineError::MissingTable(_)));
    }

    #[test]
    fn gpu_placement_on_cpu_only_server_is_a_typed_error() {
        let (catalog, plan) = setup();
        let engine = Engine::new(Server::cpu_only());
        let err =
            engine.run(&catalog, &plan, &ExecConfig::new(Placement::GpuOnly)).unwrap_err();
        assert!(matches!(err, EngineError::NoWorkers { .. }), "{err}");
        // Hybrid degrades gracefully to the CPUs that do exist.
        let rep = engine.run(&catalog, &plan, &ExecConfig::new(Placement::Hybrid)).unwrap();
        assert_eq!(rep.packets_gpu, 0);
        assert!(rep.packets_cpu > 0);
    }

    #[test]
    fn placed_plan_against_smaller_server_is_a_typed_error() {
        // Place against the 2-GPU testbed, run on a 1-GPU server: the
        // second GPU segment must surface DeviceNotPresent, not panic.
        let (catalog, plan) = setup();
        let placed = crate::place::place(
            &plan,
            &ExecConfig::new(Placement::GpuOnly),
            &Server::paper_testbed(),
        )
        .unwrap();
        let engine = Engine::new(Server::single_gpu());
        let err = engine.run_placed(&catalog, &placed).unwrap_err();
        assert!(matches!(err, EngineError::DeviceNotPresent { .. }), "{err}");
    }

    #[test]
    fn unbuilt_hash_table_is_a_typed_error_not_a_panic() {
        // A hand-assembled placed plan whose stream probes a table no
        // stage built — only constructible by bypassing plan validation.
        let (catalog, plan) = setup();
        let engine = Engine::new(Server::paper_testbed());
        let mut placed =
            crate::place::place(&plan, &ExecConfig::new(Placement::CpuOnly), &engine.server)
                .unwrap();
        placed.stages.remove(0); // drop the build stage
        let err = engine.run_placed(&catalog, &placed).unwrap_err();
        assert!(
            matches!(err, EngineError::HashTableNotBuilt { ref table } if table == "dim_ht"),
            "{err}"
        );
    }

    #[test]
    fn placement_parses_and_displays_round_trip() {
        for p in [Placement::CpuOnly, Placement::GpuOnly, Placement::Hybrid, Placement::Auto] {
            assert_eq!(p.to_string().parse::<Placement>().unwrap(), p);
        }
        assert_eq!("CPU-only".parse::<Placement>().unwrap(), Placement::CpuOnly);
        assert_eq!("gpuonly".parse::<Placement>().unwrap(), Placement::GpuOnly);
        assert_eq!("AUTO".parse::<Placement>().unwrap(), Placement::Auto);
        let err = "both".parse::<Placement>().unwrap_err();
        assert!(err.to_string().contains("both"), "{err}");
    }

    #[test]
    fn auto_runs_through_the_optimizer_and_matches_manual_results() {
        let (catalog, plan) = setup();
        let engine = Engine::new(Server::paper_testbed());
        let auto = engine.run(&catalog, &plan, &ExecConfig::new(Placement::Auto)).unwrap();
        let cpu = engine.run(&catalog, &plan, &ExecConfig::new(Placement::CpuOnly)).unwrap();
        assert_eq!(auto.rows, cpu.rows);
        // Handing Auto to the bare placement pass is a typed error.
        let err = crate::place::place(
            &plan,
            &ExecConfig::new(Placement::Auto),
            &Server::paper_testbed(),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::AutoWithoutOptimizer), "{err}");
    }

    #[test]
    fn deterministic_execution() {
        let (catalog, plan) = setup();
        let engine = Engine::new(Server::paper_testbed());
        let a = engine.run(&catalog, &plan, &ExecConfig::new(Placement::Hybrid)).unwrap();
        let b = engine.run(&catalog, &plan, &ExecConfig::new(Placement::Hybrid)).unwrap();
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.time, b.time);
        assert_eq!(a.packets_gpu, b.packets_gpu);
    }
}
