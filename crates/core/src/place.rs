//! The placement pass: [`QueryPlan`] + [`ExecConfig`] → [`PlacedPlan`].
//!
//! This is the HetExchange separation (§3) made explicit as an IR layer:
//! relational operators stay heterogeneity-oblivious while a *placement*
//! decides where each pipeline runs. [`place`] annotates every pipeline
//! with [`Segment`]s — one per participating device, each carrying the
//! [`HetTraits`] its operators execute under — and inserts the exchange
//! operators ([`Exchange::Router`], [`Exchange::MemMove`],
//! [`Exchange::DeviceCrossing`]) wherever the source traits and a
//! segment's traits disagree, using the [`HetTraits::needs_router`] /
//! [`HetTraits::needs_mem_move`] / [`HetTraits::needs_device_crossing`]
//! predicates. The engine then interprets the placed plan generically over
//! [`crate::provider::DeviceProvider`]s; no placement-enum branching
//! survives on the execution path — [`Placement`] is only sugar selecting
//! which devices participate here.

use hape_sim::topology::{DeviceId, Server};

use crate::cost::PlanCost;
use crate::engine::{ExecConfig, Placement};
use crate::error::EngineError;
use crate::exchange::Exchange;
use crate::plan::{PipeOp, Pipeline, ProbeExec, QueryPlan, Stage};
use crate::traits::{DeviceType, HetTraits, Packing};

/// One pipeline segment placed on a concrete device.
///
/// A segment is the unit the router feeds: its `traits.dop` operator
/// instances all run on `target`, reading packets whose locality the
/// segment's input exchanges have already converted.
#[derive(Debug, Clone)]
pub struct Segment {
    /// The device the segment's operator instances run on.
    pub target: DeviceId,
    /// The heterogeneity traits the segment's operators execute under.
    pub traits: HetTraits,
    /// Exchange operators inserted on the segment's input edge, in
    /// conversion order: the streaming mem-move, the device crossing, then
    /// one broadcast mem-move per hash table the pipeline probes. (The
    /// router is stage-level: it fans out over *all* segments at once.)
    ///
    /// The executor consumes these: the broadcast mem-moves are the
    /// authoritative list of tables a GPU worker installs (and
    /// capacity-checks), while the streaming mem-move and device crossing
    /// are realised by instantiating the worker with its transfer link
    /// and device-specific provider.
    pub exchanges: Vec<Exchange>,
}

impl Segment {
    /// The broadcast hash-table moves on this segment's input edge.
    pub fn broadcast_moves(&self) -> impl Iterator<Item = &Exchange> {
        self.exchanges.iter().filter(|e| e.is_broadcast())
    }
}

/// One placed stage: the stage's pipeline plus where it runs.
#[derive(Debug, Clone)]
pub enum PlacedStage {
    /// Build a named hash table over the pipeline's output.
    Build {
        /// Name under which probes reference the table.
        name: String,
        /// Key column of the pipeline's output.
        key_col: usize,
        /// The producing pipeline.
        pipeline: Pipeline,
        /// The stage-level router (absent when no parallelism conversion
        /// is needed).
        router: Option<Exchange>,
        /// The placed segments, in router candidate order.
        segments: Vec<Segment>,
    },
    /// Run the pipeline into its terminal aggregation.
    Stream {
        /// The aggregating pipeline.
        pipeline: Pipeline,
        /// The stage-level router (absent when no parallelism conversion
        /// is needed).
        router: Option<Exchange>,
        /// The placed segments, in router candidate order.
        segments: Vec<Segment>,
    },
    /// Run the pipeline as an intra-operator co-processing stage (§5,
    /// [`ProbeExec::CoProcess`]): the CPU segments execute the pipeline
    /// prefix and co-partition the stream against the final probe's
    /// oversized hash table; every co-partition pair makes a single PCIe
    /// pass and joins on one of `gpus` — each priced and capacity-checked
    /// against its own spec. The chosen aggregation then folds CPU-side.
    CoProcess {
        /// The aggregating pipeline (its final probe is co-processed).
        pipeline: Pipeline,
        /// The oversized hash table the co-processing join probes.
        ht: String,
        /// The stage-level router for the CPU prefix (absent when no
        /// parallelism conversion is needed).
        router: Option<Exchange>,
        /// The CPU segments running the prefix and the co-partitioning.
        segments: Vec<Segment>,
        /// The GPUs receiving co-partition pairs for single-pass joins.
        gpus: Vec<DeviceId>,
    },
}

impl PlacedStage {
    /// The stage's pipeline.
    pub fn pipeline(&self) -> &Pipeline {
        match self {
            PlacedStage::Build { pipeline, .. }
            | PlacedStage::Stream { pipeline, .. }
            | PlacedStage::CoProcess { pipeline, .. } => pipeline,
        }
    }

    /// The stage's placed segments (for co-processing stages: the CPU
    /// segments running the prefix; the GPU lanes are listed separately).
    pub fn segments(&self) -> &[Segment] {
        match self {
            PlacedStage::Build { segments, .. }
            | PlacedStage::Stream { segments, .. }
            | PlacedStage::CoProcess { segments, .. } => segments,
        }
    }

    /// The stage-level router exchange, if a parallelism conversion was
    /// needed.
    pub fn router(&self) -> Option<&Exchange> {
        match self {
            PlacedStage::Build { router, .. }
            | PlacedStage::Stream { router, .. }
            | PlacedStage::CoProcess { router, .. } => router.as_ref(),
        }
    }

    /// The probe execution mode this stage was placed under.
    pub fn exec(&self) -> ProbeExec {
        match self {
            PlacedStage::CoProcess { ht, .. } => ProbeExec::CoProcess { ht: ht.clone() },
            _ => ProbeExec::Broadcast,
        }
    }
}

/// A fully placed physical plan: the executable IR the engine interprets.
#[derive(Debug, Clone)]
pub struct PlacedPlan {
    /// Display name (e.g. `"Q5"`).
    pub name: String,
    /// Rows per packet for the *stream* stage (`None` = auto: ~4 packets
    /// per worker share). Build stages always auto-size — they are
    /// plumbing, not the tunable workload.
    pub packet_rows: Option<usize>,
    /// Data-plane threads for the interpreter's worker pool (`None` =
    /// resolve from the environment; see
    /// [`crate::runtime::resolve_threads`]). Purely a wall-clock knob —
    /// simulated results are thread-count-invariant.
    pub threads: Option<usize>,
    /// The placed stages, executed in order.
    pub stages: Vec<PlacedStage>,
    /// Per-stage cost estimates, attached when the cost-based optimizer
    /// ([`crate::optimize::optimize`]) chose the subsets; `None` for
    /// manually placed plans. Rendered by [`PlacedPlan::render`].
    pub costs: Option<PlanCost>,
}

/// The devices a placement selects on a server — [`Placement`] survives
/// only as this sugar; nothing downstream branches on it. For
/// [`Placement::Auto`] this is the *candidate pool* (every device): the
/// cost-based optimizer narrows it to per-stage subsets.
pub fn participants(placement: Placement, server: &Server) -> Vec<DeviceId> {
    server
        .devices()
        .into_iter()
        .filter(|d| match placement {
            Placement::CpuOnly => !d.is_gpu(),
            Placement::GpuOnly => d.is_gpu(),
            Placement::Hybrid | Placement::Auto => true,
        })
        .collect()
}

/// The traits a pipeline segment executes under on `device`.
///
/// CPU segments keep host (`dram0`) locality: workers stream socket-0
/// resident packets in place (NUMA placement is not modelled, so the
/// cross-socket link never appears on the packet path). GPU segments are
/// device-memory local — their packets must be mem-moved across PCIe.
pub fn segment_traits(device: DeviceId, server: &Server) -> HetTraits {
    match device {
        DeviceId::Cpu(socket) => HetTraits {
            device: DeviceType::Cpu,
            dop: server.cpus[socket].cores,
            locality: HetTraits::cpu_seq().locality,
            packing: Packing::Packets,
        },
        DeviceId::Gpu(_) => HetTraits {
            device: DeviceType::Gpu,
            dop: 1,
            locality: device.local_mem(),
            packing: Packing::Packets,
        },
    }
}

/// Place one pipeline over `devices`: a segment per device, with the
/// trait-mismatch exchanges inserted on each input edge, plus the
/// stage-level router when the total dop differs from the source's.
fn place_pipeline(
    pipeline: &Pipeline,
    devices: &[DeviceId],
    server: &Server,
) -> (Option<Exchange>, Vec<Segment>) {
    let source = HetTraits::cpu_seq();
    // Distinct tables only: memoised build sides let a pipeline probe the
    // same hash table at several sites, but it is broadcast into device
    // memory (and capacity-counted) once.
    let mut probed: Vec<String> = Vec::new();
    for t in pipeline.tables_probed() {
        if probed.iter().all(|p| p != t) {
            probed.push(t.to_string());
        }
    }
    let segments: Vec<Segment> = devices
        .iter()
        .map(|&device| {
            let traits = segment_traits(device, server);
            let mut exchanges = Vec::new();
            if source.needs_mem_move(&traits) {
                exchanges.push(Exchange::MemMove {
                    from: source.locality,
                    to: traits.locality,
                    table: None,
                });
            }
            if source.needs_device_crossing(&traits) {
                exchanges
                    .push(Exchange::DeviceCrossing { from: source.device, to: traits.device });
            }
            // Built hash tables live in host memory; a segment whose
            // locality differs needs each probed table broadcast to it.
            if source.needs_mem_move(&traits) {
                for ht in &probed {
                    exchanges.push(Exchange::MemMove {
                        from: source.locality,
                        to: traits.locality,
                        table: Some(ht.clone()),
                    });
                }
            }
            Segment { target: device, traits, exchanges }
        })
        .collect();
    let total_dop: usize = segments.iter().map(|s| s.traits.dop).sum();
    let target = HetTraits { dop: total_dop, ..source };
    let router = source
        .needs_router(&target)
        .then_some(Exchange::Router { from_dop: source.dop, to_dop: total_dop });
    (router, segments)
}

/// Run the placement pass: validate `plan`, pick the participating devices
/// for `cfg`, and annotate every stage with segments and exchanges.
///
/// Under a manual placement, build stages always run CPU-side (dimension
/// pipelines are scan-light and their tables must end up host-resident
/// for broadcasting) and the stream stage runs on the placement's
/// devices. A placement that selects no existing device — e.g.
/// [`Placement::GpuOnly`] on a zero-GPU server — is the typed
/// [`EngineError::NoWorkers`], not a panic.
///
/// [`Placement::Auto`] has no fixed device pool to fan over: it needs the
/// catalog statistics the cost-based optimizer consumes, so handing it to
/// this pass directly is the typed [`EngineError::AutoWithoutOptimizer`].
/// [`crate::session::Session`] and [`crate::engine::Engine::run`] route
/// `Auto` through [`crate::optimize::optimize`] automatically.
pub fn place(
    plan: &QueryPlan,
    cfg: &ExecConfig,
    server: &Server,
) -> Result<PlacedPlan, EngineError> {
    if cfg.placement == Placement::Auto {
        return Err(EngineError::AutoWithoutOptimizer);
    }
    plan.validate().map_err(EngineError::InvalidPlan)?;
    let stream_devices = participants(cfg.placement, server);
    if stream_devices.is_empty() {
        return Err(EngineError::NoWorkers { placement: format!("{:?}", cfg.placement) });
    }
    let build_devices = participants(Placement::CpuOnly, server);
    let subsets: Vec<Vec<DeviceId>> = plan
        .stages
        .iter()
        .map(|stage| match stage {
            Stage::Build { .. } => build_devices.clone(),
            Stage::Stream { .. } => stream_devices.clone(),
        })
        .collect();
    place_on(plan, cfg, server, &subsets)
}

/// Rewrite a placed *stream* stage into a co-processing stage
/// ([`PlacedStage::CoProcess`]): the existing (CPU) segments keep running
/// the pipeline prefix, while `gpus` become the single-pass join lanes for
/// the final probe of `ht`. This is the entry point the cost-based
/// optimizer uses after [`place_on`] placed the stage's CPU side.
///
/// The stage must be a stream whose final probe targets `ht`, and its
/// segments must all be CPU-side (the co-partitioning is CPU work);
/// anything else is the typed [`EngineError::InvalidCoProcessStage`].
pub fn into_coprocess_stage(
    stage: PlacedStage,
    ht: String,
    gpus: Vec<DeviceId>,
) -> Result<PlacedStage, EngineError> {
    let PlacedStage::Stream { pipeline, router, segments } = stage else {
        return Err(EngineError::InvalidCoProcessStage { table: ht });
    };
    let last_probes_ht = pipeline.last_probe().is_some_and(|(_, t)| t == ht);
    if !last_probes_ht || segments.iter().any(|s| s.target.is_gpu()) || gpus.is_empty() {
        return Err(EngineError::InvalidCoProcessStage { table: ht });
    }
    Ok(PlacedStage::CoProcess { pipeline, ht, router, segments, gpus })
}

/// Place each stage of `plan` on an explicit device subset — the entry
/// point the cost-based optimizer drives, one subset per stage in stage
/// order. A stage handed an empty subset is the typed
/// [`EngineError::NoWorkers`]; a subset list whose length does not match
/// the plan's stage count is the typed
/// [`EngineError::SubsetCountMismatch`].
pub fn place_on(
    plan: &QueryPlan,
    cfg: &ExecConfig,
    server: &Server,
    subsets: &[Vec<DeviceId>],
) -> Result<PlacedPlan, EngineError> {
    plan.validate().map_err(EngineError::InvalidPlan)?;
    if subsets.len() != plan.stages.len() {
        return Err(EngineError::SubsetCountMismatch {
            stages: plan.stages.len(),
            subsets: subsets.len(),
        });
    }
    let mut stages = Vec::with_capacity(plan.stages.len());
    for (stage, devices) in plan.stages.iter().zip(subsets) {
        if devices.is_empty() {
            return Err(EngineError::NoWorkers {
                placement: "empty device subset".to_string(),
            });
        }
        match stage {
            Stage::Build { name, key_col, pipeline } => {
                let (router, segments) = place_pipeline(pipeline, devices, server);
                stages.push(PlacedStage::Build {
                    name: name.clone(),
                    key_col: *key_col,
                    pipeline: pipeline.clone(),
                    router,
                    segments,
                });
            }
            Stage::Stream { pipeline } => {
                let (router, segments) = place_pipeline(pipeline, devices, server);
                stages.push(PlacedStage::Stream {
                    pipeline: pipeline.clone(),
                    router,
                    segments,
                });
            }
        }
    }
    Ok(PlacedPlan {
        name: plan.name.clone(),
        packet_rows: cfg.packet_rows,
        threads: cfg.threads,
        stages,
        costs: None,
    })
}

impl PlacedPlan {
    /// Reconstruct the logical [`QueryPlan`] this placed plan realises —
    /// the input the `optimize`/`place_on` passes need to re-place the
    /// query on a *degraded* topology after permanent device loss.
    /// Co-processing stages collapse back to the stream stage they were
    /// rewritten from (`into_coprocess_stage` keeps the probe in the
    /// pipeline, so the reconstruction is lossless).
    pub fn logical(&self) -> QueryPlan {
        QueryPlan {
            name: self.name.clone(),
            stages: self
                .stages
                .iter()
                .map(|s| match s {
                    PlacedStage::Build { name, key_col, pipeline, .. } => Stage::Build {
                        name: name.clone(),
                        key_col: *key_col,
                        pipeline: pipeline.clone(),
                    },
                    PlacedStage::Stream { pipeline, .. }
                    | PlacedStage::CoProcess { pipeline, .. } => {
                        Stage::Stream { pipeline: pipeline.clone() }
                    }
                })
                .collect(),
        }
    }

    /// The devices each stage runs on, in stage order: segment targets
    /// plus, for co-processing stages, the GPU lanes. This is the seed the
    /// fault plane filters against a degraded fleet before handing
    /// [`place_on`] its per-stage subsets.
    pub fn stage_devices(&self) -> Vec<Vec<DeviceId>> {
        self.stages
            .iter()
            .map(|s| {
                let mut devices: Vec<DeviceId> =
                    s.segments().iter().map(|seg| seg.target).collect();
                if let PlacedStage::CoProcess { gpus, .. } = s {
                    for g in gpus {
                        if !devices.contains(g) {
                            devices.push(*g);
                        }
                    }
                }
                devices
            })
            .collect()
    }

    /// Render the placed plan for humans: one block per stage listing the
    /// pipeline shape, the router, and each segment with its traits and
    /// the exchanges inserted on its input edge. Optimized plans
    /// additionally render the chosen subset's per-stage cost estimate and
    /// the estimated plan makespan. This is what
    /// [`crate::session::Session::explain`] returns.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "PlacedPlan {}", self.name);
        for (i, stage) in self.stages.iter().enumerate() {
            let pipeline = stage.pipeline();
            match stage {
                PlacedStage::Build { name, key_col, .. } => {
                    let _ = writeln!(out, "stage {i}: build {name} (key col {key_col})");
                }
                PlacedStage::Stream { .. } => {
                    let _ = writeln!(out, "stage {i}: stream");
                }
                PlacedStage::CoProcess { .. } => {
                    let _ = writeln!(out, "stage {i}: stream ({})", stage.exec());
                }
            }
            let _ = writeln!(out, "  pipeline: {}", render_pipeline(pipeline));
            if let Some(router) = stage.router() {
                let _ = writeln!(out, "  {router}");
            }
            for seg in stage.segments() {
                let t = &seg.traits;
                let _ = writeln!(
                    out,
                    "  segment {}: {:?} dop={} mem={} packing={:?}",
                    seg.target, t.device, t.dop, t.locality, t.packing
                );
                for x in &seg.exchanges {
                    let _ = writeln!(out, "    {x}");
                }
            }
            if let PlacedStage::CoProcess { ht, gpus, .. } = stage {
                let lanes: Vec<String> = gpus.iter().map(|g| g.to_string()).collect();
                let _ = writeln!(
                    out,
                    "  co-process: cpu co-partition {ht:?} -> single-pass join on {}",
                    lanes.join(", "),
                );
            }
            if let Some(cost) = self.costs.as_ref().and_then(|c| c.stages.get(i)) {
                let _ = writeln!(
                    out,
                    "  est: total {} = stream {} + broadcast {} + d2h {}",
                    fmt_ms(cost.total_seconds()),
                    fmt_ms(cost.stream_seconds),
                    fmt_ms(cost.broadcast_seconds),
                    fmt_ms(cost.d2h_seconds),
                );
                if let Some(cp) = &cost.coprocess {
                    let _ = writeln!(
                        out,
                        "  est: co-process cpu-partition {} (2^{} fanout) + gpu pass {}",
                        fmt_ms(cp.cpu_partition_seconds),
                        cp.cpu_bits,
                        fmt_ms(cp.gpu_pass_seconds),
                    );
                    let _ = writeln!(
                        out,
                        "  est: co-partition pair {} B of {} B gpu budget",
                        cp.per_partition_bytes,
                        cost.gpu_capacity.unwrap_or(0),
                    );
                } else if let Some(cap) = cost.gpu_capacity {
                    let _ = writeln!(
                        out,
                        "  est: gpu hash tables {} B ({} B with working space) of {cap} B",
                        cost.ht_bytes, cost.gpu_required,
                    );
                }
            }
        }
        if let Some(costs) = &self.costs {
            let _ = writeln!(out, "est makespan: {}", fmt_ms(costs.total_seconds()));
        }
        out
    }
}

/// Fixed-format milliseconds for cost rendering (snapshot-stable).
fn fmt_ms(seconds: f64) -> String {
    format!("{:.4} ms", seconds * 1e3)
}

/// One-line pipeline shape: `scan(src) | filter | join(ht) | ... | agg`.
fn render_pipeline(p: &Pipeline) -> String {
    let mut parts = vec![format!("scan({})", p.source)];
    for op in &p.ops {
        parts.push(match op {
            PipeOp::Filter(_) => "filter".to_string(),
            PipeOp::Project(exprs) => format!("project[{}]", exprs.len()),
            PipeOp::JoinProbe { ht, .. } => format!("join({ht})"),
            PipeOp::Stateful(agg) => agg.label(),
        });
    }
    if p.agg.is_some() {
        parts.push("agg".to_string());
    }
    parts.join(" | ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::JoinAlgo;
    use hape_ops::{AggFunc, AggSpec, Expr};
    use hape_sim::topology::MemNode;

    fn join_plan() -> QueryPlan {
        QueryPlan::try_new(
            "t",
            vec![
                Stage::Build {
                    name: "dim_ht".into(),
                    key_col: 0,
                    pipeline: Pipeline::scan("dim"),
                },
                Stage::Stream {
                    pipeline: Pipeline::scan("fact")
                        .join("dim_ht", 0, vec![1], JoinAlgo::NonPartitioned)
                        .aggregate(AggSpec::ungrouped(vec![(AggFunc::Count, Expr::col(0))])),
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn cpu_only_placement_has_no_device_exchanges() {
        let plan = join_plan();
        let server = Server::paper_testbed();
        let placed = place(&plan, &ExecConfig::new(Placement::CpuOnly), &server).unwrap();
        assert_eq!(placed.stages.len(), 2);
        let stream = placed.stages.last().unwrap();
        assert_eq!(stream.segments().len(), 2); // one per socket
        for seg in stream.segments() {
            assert_eq!(seg.traits.device, DeviceType::Cpu);
            assert_eq!(seg.traits.locality, MemNode::CpuDram(0));
            assert!(seg.exchanges.is_empty(), "no trait mismatch on CPU segments");
        }
        // 1 -> 24 parallelism conversion: the router is required.
        match stream.router() {
            Some(Exchange::Router { from_dop: 1, to_dop: 24, .. }) => {}
            r => panic!("unexpected router {r:?}"),
        }
    }

    #[test]
    fn gpu_segments_get_mem_move_crossing_and_broadcasts() {
        let plan = join_plan();
        let server = Server::paper_testbed();
        let placed = place(&plan, &ExecConfig::new(Placement::Hybrid), &server).unwrap();
        let stream = placed.stages.last().unwrap();
        // CPU sockets first (router candidate order), then GPUs.
        assert_eq!(stream.segments().len(), 4);
        let gpu1 = &stream.segments()[3];
        assert_eq!(gpu1.target, DeviceId::Gpu(1));
        assert_eq!(gpu1.traits.device, DeviceType::Gpu);
        assert_eq!(gpu1.traits.locality, MemNode::GpuDram(1));
        assert_eq!(
            gpu1.exchanges,
            vec![
                Exchange::MemMove {
                    from: MemNode::CpuDram(0),
                    to: MemNode::GpuDram(1),
                    table: None,
                },
                Exchange::DeviceCrossing { from: DeviceType::Cpu, to: DeviceType::Gpu },
                Exchange::MemMove {
                    from: MemNode::CpuDram(0),
                    to: MemNode::GpuDram(1),
                    table: Some("dim_ht".into()),
                },
            ]
        );
        assert_eq!(gpu1.broadcast_moves().count(), 1);
        // Hybrid router fans 1 -> 24 cores + 2 GPUs.
        match stream.router() {
            Some(Exchange::Router { from_dop: 1, to_dop: 26, .. }) => {}
            r => panic!("unexpected router {r:?}"),
        }
    }

    #[test]
    fn builds_stay_cpu_side_even_under_gpu_only() {
        let plan = join_plan();
        let server = Server::paper_testbed();
        let placed = place(&plan, &ExecConfig::new(Placement::GpuOnly), &server).unwrap();
        let PlacedStage::Build { segments, .. } = &placed.stages[0] else {
            panic!("first stage is the build");
        };
        assert!(segments.iter().all(|s| !s.target.is_gpu()));
        let stream = placed.stages.last().unwrap();
        assert!(stream.segments().iter().all(|s| s.target.is_gpu()));
    }

    #[test]
    fn gpu_only_on_zero_gpu_server_is_a_typed_error() {
        let plan = join_plan();
        let err = place(&plan, &ExecConfig::new(Placement::GpuOnly), &Server::cpu_only())
            .unwrap_err();
        assert!(matches!(err, EngineError::NoWorkers { .. }), "{err}");
    }

    #[test]
    fn hybrid_on_zero_gpu_server_degrades_to_cpu_segments() {
        let plan = join_plan();
        let placed =
            place(&plan, &ExecConfig::new(Placement::Hybrid), &Server::cpu_only()).unwrap();
        let stream = placed.stages.last().unwrap();
        assert_eq!(stream.segments().len(), 2);
        assert!(stream.segments().iter().all(|s| !s.target.is_gpu()));
    }

    #[test]
    fn single_worker_placement_needs_no_router() {
        // A single GPU is a 1 -> 1 parallelism "conversion": the
        // needs_router predicate correctly suppresses the exchange.
        let plan = join_plan();
        let placed =
            place(&plan, &ExecConfig::new(Placement::GpuOnly), &Server::single_gpu()).unwrap();
        let stream = placed.stages.last().unwrap();
        assert!(stream.router().is_none());
        assert_eq!(stream.segments().len(), 1);
    }

    #[test]
    fn duplicate_probes_broadcast_once() {
        // Memoised lowering can probe one hash table at two sites; the
        // GPU segment's input edge carries a single broadcast for it.
        let plan = QueryPlan::try_new(
            "t",
            vec![
                Stage::Build {
                    name: "dim_ht".into(),
                    key_col: 0,
                    pipeline: Pipeline::scan("dim"),
                },
                Stage::Stream {
                    pipeline: Pipeline::scan("fact")
                        .join("dim_ht", 0, vec![1], JoinAlgo::NonPartitioned)
                        .join("dim_ht", 0, vec![1], JoinAlgo::NonPartitioned)
                        .aggregate(AggSpec::ungrouped(vec![(AggFunc::Count, Expr::col(0))])),
                },
            ],
        )
        .unwrap();
        let placed =
            place(&plan, &ExecConfig::new(Placement::GpuOnly), &Server::paper_testbed())
                .unwrap();
        for seg in placed.stages.last().unwrap().segments() {
            assert_eq!(seg.broadcast_moves().count(), 1, "{}", seg.target);
        }
    }

    #[test]
    fn into_coprocess_rewrites_streams_and_rejects_everything_else() {
        let plan = join_plan();
        let server = Server::paper_testbed();
        let placed = place(&plan, &ExecConfig::new(Placement::CpuOnly), &server).unwrap();
        assert_eq!(placed.stages[0].exec(), ProbeExec::Broadcast);
        // A build stage cannot co-process.
        let err = into_coprocess_stage(
            placed.stages[0].clone(),
            "dim_ht".into(),
            vec![DeviceId::Gpu(0)],
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::InvalidCoProcessStage { .. }), "{err}");
        let stream = placed.stages[1].clone();
        // The named table must be the stream's *final* probe.
        let err = into_coprocess_stage(stream.clone(), "ghost".into(), vec![DeviceId::Gpu(0)])
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidCoProcessStage { .. }), "{err}");
        // At least one GPU lane is required.
        let err =
            into_coprocess_stage(stream.clone(), "dim_ht".into(), Vec::new()).unwrap_err();
        assert!(matches!(err, EngineError::InvalidCoProcessStage { .. }), "{err}");
        let cp = into_coprocess_stage(
            stream,
            "dim_ht".into(),
            vec![DeviceId::Gpu(0), DeviceId::Gpu(1)],
        )
        .unwrap();
        assert_eq!(cp.exec(), ProbeExec::CoProcess { ht: "dim_ht".into() });
        assert!(cp.segments().iter().all(|s| !s.target.is_gpu()));
        let PlacedStage::CoProcess { gpus, .. } = &cp else {
            panic!("rewrite must produce a co-process stage")
        };
        assert_eq!(gpus.len(), 2);
    }

    #[test]
    fn place_on_subset_count_mismatch_is_typed() {
        let plan = join_plan();
        let server = Server::paper_testbed();
        let err = place_on(
            &plan,
            &ExecConfig::new(Placement::CpuOnly),
            &server,
            &[vec![DeviceId::Cpu(0)]], // 1 subset for 2 stages
        )
        .unwrap_err();
        assert!(
            matches!(err, EngineError::SubsetCountMismatch { stages: 2, subsets: 1 }),
            "{err}"
        );
    }

    #[test]
    fn invalid_plan_rejected_before_placement() {
        let plan = QueryPlan {
            name: "bad".into(),
            stages: vec![Stage::Stream { pipeline: Pipeline::scan("t") }],
        };
        let err = place(&plan, &ExecConfig::new(Placement::CpuOnly), &Server::paper_testbed())
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidPlan(_)));
    }

    #[test]
    fn render_shows_exchanges() {
        let plan = join_plan();
        let placed =
            place(&plan, &ExecConfig::new(Placement::Hybrid), &Server::paper_testbed())
                .unwrap();
        let text = placed.render();
        assert!(text.contains("Router(LoadAware, 1 -> 26)"), "{text}");
        assert!(text.contains("MemMove(dram0 -> gmem0)"), "{text}");
        assert!(text.contains("DeviceCrossing(Cpu -> Gpu)"), "{text}");
        assert!(text.contains("broadcast \"dim_ht\""), "{text}");
        assert!(text.contains("pipeline: scan(fact) | join(dim_ht) | agg"), "{text}");
    }
}
