//! The cost-based placement optimizer: the decision layer between
//! lowering and placement that [`Placement::Auto`](crate::Placement)
//! invokes.
//!
//! Manual placements fan every stream stage over *all* devices of a
//! class-selected pool. [`optimize`] instead enumerates candidate device
//! subsets per stage over the [`PlacedPlan`] IR's expressiveness, prices
//! each candidate with the analytic [`CostModel`] (derived from the same
//! hardware specs the simulator executes against), prunes subsets whose
//! estimated GPU hash-table footprint exceeds device capacity (the
//! paper's §6.4 constraint — this is what routes Q9 away from the
//! GPU-only out-of-memory failure automatically), and places each stage
//! on its minimum-makespan subset. Build stages participate too: they may
//! place on GPUs when the footprint fits and the estimate wins, paying
//! the device-to-host return of the built table.
//!
//! The output is an ordinary [`PlacedPlan`] — the engine interprets it
//! with zero knowledge that an optimizer chose the subsets — annotated
//! with the chosen per-stage [`crate::cost::StageCost`]
//! estimates so [`Session::explain`](crate::session::Session::explain)
//! can render the decision.

use hape_sim::topology::{DeviceId, Server};

use crate::catalog::Catalog;
use crate::cost::{CostModel, HtEstimates, PlanCost, StageCost};
use crate::engine::{ExecConfig, Placement};
use crate::error::EngineError;
use crate::place::{participants, place_on, PlacedPlan};
use crate::plan::{QueryPlan, Stage};
use crate::trace::{Span, SpanKind};

/// Above this device count the subset enumeration stops being exhaustive
/// (2^n candidates) and falls back to the pruned class-combination lattice.
const MAX_EXHAUSTIVE_DEVICES: usize = 10;

/// Candidate device subsets for one stage, in deterministic order.
///
/// Small servers (≤ `MAX_EXHAUSTIVE_DEVICES` devices) enumerate every
/// non-empty subset. Larger pools prune to the class lattice: all CPUs,
/// all GPUs, everything, each single device, and all-CPUs plus each
/// single GPU — the shapes the cost model can actually distinguish.
pub fn candidate_subsets(pool: &[DeviceId]) -> Vec<Vec<DeviceId>> {
    if pool.len() <= MAX_EXHAUSTIVE_DEVICES {
        let mut subsets = Vec::with_capacity((1 << pool.len()) - 1);
        for mask in 1u32..(1 << pool.len()) {
            subsets.push(
                pool.iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, &d)| d)
                    .collect(),
            );
        }
        return subsets;
    }
    let cpus: Vec<DeviceId> = pool.iter().copied().filter(|d| !d.is_gpu()).collect();
    let gpus: Vec<DeviceId> = pool.iter().copied().filter(|d| d.is_gpu()).collect();
    let mut subsets: Vec<Vec<DeviceId>> = Vec::new();
    let mut push = |s: Vec<DeviceId>| {
        if !s.is_empty() && !subsets.contains(&s) {
            subsets.push(s);
        }
    };
    push(cpus.clone());
    push(gpus.clone());
    push(pool.to_vec());
    for &d in pool {
        push(vec![d]);
    }
    for &g in &gpus {
        let mut s = cpus.clone();
        s.push(g);
        push(s);
    }
    subsets
}

/// Run the cost-based optimizer: lower → **optimize** → place.
///
/// Walks the plan's stages in order, maintaining estimated hash-table
/// footprints for every build, prices every candidate subset per stage,
/// discards candidates whose estimated GPU footprint exceeds capacity,
/// and places each stage on the cheapest surviving subset. If *no*
/// candidate survives for a stage (a zero-CPU server whose GPUs cannot
/// hold the tables), the capacity violation surfaces as the typed
/// [`EngineError::GpuMemoryExceeded`] — estimated, before any packet
/// moves.
pub fn optimize(
    plan: &QueryPlan,
    catalog: &Catalog,
    cfg: &ExecConfig,
    server: &Server,
) -> Result<PlacedPlan, EngineError> {
    let pool = participants(Placement::Auto, server);
    optimize_on(plan, catalog, cfg, server, &pool)
}

/// [`optimize`] against an explicit device pool — the degraded-topology
/// entry point. The fault plane's mid-query recovery calls this with the
/// surviving fleet (the full pool minus failed/quarantined devices), so a
/// degraded topology is just another input to the same pass, never a
/// special case.
pub fn optimize_on(
    plan: &QueryPlan,
    catalog: &Catalog,
    cfg: &ExecConfig,
    server: &Server,
    pool: &[DeviceId],
) -> Result<PlacedPlan, EngineError> {
    plan.validate().map_err(EngineError::InvalidPlan)?;
    if pool.is_empty() {
        return Err(EngineError::NoWorkers { placement: "Auto (empty server)".to_string() });
    }
    let candidates = candidate_subsets(pool);
    let model = CostModel::new(server, catalog);
    let mut hts = HtEstimates::new();
    let mut subsets: Vec<Vec<DeviceId>> = Vec::with_capacity(plan.stages.len());
    let mut costs: Vec<StageCost> = Vec::with_capacity(plan.stages.len());
    // Per-stage co-processing decision: `Some((ht, gpus))` when the stage
    // places as a `PlacedStage::CoProcess` after the trait pass runs.
    let mut coprocess: Vec<Option<(String, Vec<DeviceId>)>> =
        Vec::with_capacity(plan.stages.len());
    let cpus: Vec<DeviceId> = pool.iter().copied().filter(|d| !d.is_gpu()).collect();
    let gpus: Vec<DeviceId> = pool.iter().copied().filter(|d| d.is_gpu()).collect();
    for stage in &plan.stages {
        let (pipeline, is_build) = match stage {
            Stage::Build { pipeline, .. } => (pipeline, true),
            Stage::Stream { pipeline } => (pipeline, false),
        };
        // The cardinality walk is subset-independent: run it once per
        // stage and price every candidate subset against it.
        let est = model.estimate_pipeline(pipeline, &hts)?;
        let packet_rows = ExecConfig::stage_packet_rows(is_build, cfg.packet_rows);
        let mut best: Option<StageCost> = None;
        let mut over_capacity: Option<(u64, u64)> = None;
        let mut gpu_subset_fits = false;
        for subset in &candidates {
            let cost = model.stage_cost(&est, subset, is_build, packet_rows)?;
            if !cost.fits_gpu_memory() {
                let cap = cost.gpu_capacity.unwrap_or(0);
                if over_capacity.is_none_or(|(r, _)| cost.gpu_required < r) {
                    over_capacity = Some((cost.gpu_required, cap));
                }
                continue;
            }
            gpu_subset_fits |= subset.iter().any(|d| d.is_gpu());
            if best.as_ref().is_none_or(|b| cost.total_seconds() < b.total_seconds()) {
                best = Some(cost);
            }
        }
        // The §5 co-processing arm: when the stream's probed tables
        // overflow *every* GPU (all GPU-bearing subsets were pruned), the
        // choice is no longer "CPUs or nothing" — CPU-side co-partitioning
        // can feed single-pass GPU joins of the stage's final probe.
        // Priced like any other candidate; the cheaper mode wins.
        if !is_build && !gpu_subset_fits && over_capacity.is_some() {
            if let Some(cost) = model.coprocess_cost(&est, &cpus, &gpus)? {
                if best.as_ref().is_none_or(|b| cost.total_seconds() < b.total_seconds()) {
                    best = Some(cost);
                }
            }
        }
        let chosen = match best {
            Some(c) => c,
            None => {
                // Only reachable when the pool has no CPU fallback.
                let (required, capacity) = over_capacity.unwrap_or((0, 0));
                return Err(EngineError::GpuMemoryExceeded { required, capacity });
            }
        };
        if let Stage::Build { name, .. } = stage {
            hts.insert(name.clone(), est.table_estimate());
        }
        match &chosen.coprocess {
            Some(cp) => {
                // The trait pass places the CPU side; the GPU lanes ride
                // the stage rewrite below.
                subsets.push(cpus.clone());
                coprocess.push(Some((cp.ht.clone(), gpus.clone())));
            }
            None => {
                subsets.push(chosen.devices.clone());
                coprocess.push(None);
            }
        }
        if cfg.trace.is_enabled() {
            // The estimate side of the predicted-vs-observed record: a
            // zero-duration event carrying the chosen decomposition, one
            // per stage, before any packet moves. The matching observation
            // rides the engine's stage span for the same stage index.
            let now = cfg.trace.now_ns();
            cfg.trace.record(
                Span::new(
                    SpanKind::Optimize,
                    format!("optimize stage {}", costs.len()),
                    plan.name.clone(),
                )
                .stage(costs.len())
                .at_wall(now, now)
                .estimate(chosen.clone()),
            );
            cfg.trace.add("optimize.stages_costed", 1);
        }
        costs.push(chosen);
    }
    let mut placed = place_on(plan, cfg, server, &subsets)?;
    for (i, cp) in coprocess.into_iter().enumerate() {
        if let Some((ht, lanes)) = cp {
            let stage = placed.stages[i].clone();
            placed.stages[i] = crate::place::into_coprocess_stage(stage, ht, lanes)?;
        }
    }
    placed.costs = Some(PlanCost { stages: costs });
    // Debug builds statically verify the chosen candidate before handing
    // it to the engine: a structural diagnostic here is an optimizer or
    // placement bug, not a user error.
    #[cfg(debug_assertions)]
    crate::verify::debug_check_placed(&placed, catalog, server);
    Ok(placed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{JoinAlgo, Pipeline};
    use hape_ops::{AggFunc, AggSpec, Expr};
    use hape_storage::datagen::gen_key_fk_table;

    fn setup() -> (Catalog, QueryPlan) {
        let mut catalog = Catalog::new();
        catalog.register_as("fact", gen_key_fk_table(1 << 18, 1 << 18, 1));
        catalog.register_as("dim", gen_key_fk_table(1 << 13, 1 << 13, 2));
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
                        .aggregate(AggSpec::ungrouped(vec![(AggFunc::Count, Expr::col(0))])),
                },
            ],
        )
        .unwrap();
        (catalog, plan)
    }

    #[test]
    fn exhaustive_enumeration_covers_the_power_set() {
        let server = Server::paper_testbed();
        let subsets = candidate_subsets(&server.devices());
        assert_eq!(subsets.len(), 15); // 2^4 - 1
                                       // Deterministic: first is {cpu0}, last is the full pool.
        assert_eq!(subsets[0], vec![DeviceId::Cpu(0)]);
        assert_eq!(subsets.last().unwrap().len(), 4);
    }

    #[test]
    fn large_pools_prune_to_the_class_lattice() {
        let pool: Vec<DeviceId> =
            (0..8).map(DeviceId::Cpu).chain((0..8).map(DeviceId::Gpu)).collect();
        let subsets = candidate_subsets(&pool);
        assert!(subsets.len() < 50, "pruned lattice, not 2^16");
        assert!(subsets.contains(&pool));
        assert!(subsets.iter().any(|s| s.iter().all(|d| !d.is_gpu()) && s.len() == 8));
    }

    #[test]
    fn auto_uses_every_device_on_scan_bound_streams() {
        // A broadcast-free scan: every device adds streaming throughput,
        // so the min-makespan subset is the full pool.
        let mut catalog = Catalog::new();
        catalog.register_as("fact", gen_key_fk_table(1 << 22, 1 << 22, 1));
        let plan = QueryPlan::try_new(
            "scan",
            vec![Stage::Stream {
                pipeline: Pipeline::scan("fact")
                    .aggregate(AggSpec::ungrouped(vec![(AggFunc::Sum, Expr::col(1))])),
            }],
        )
        .unwrap();
        let server = Server::paper_testbed();
        let placed =
            optimize(&plan, &catalog, &ExecConfig::new(Placement::Auto), &server).unwrap();
        let stream = placed.stages.last().unwrap();
        assert_eq!(stream.segments().len(), 4);
        let costs = placed.costs.as_ref().expect("optimizer attaches costs");
        assert_eq!(costs.stages.len(), 1);
        assert!(costs.total_seconds() > 0.0);
    }

    #[test]
    fn auto_join_placement_is_feasible_and_costed() {
        let (catalog, plan) = setup();
        let server = Server::paper_testbed();
        let placed =
            optimize(&plan, &catalog, &ExecConfig::new(Placement::Auto), &server).unwrap();
        assert_eq!(placed.stages.len(), 2);
        let costs = placed.costs.as_ref().expect("optimizer attaches costs");
        assert_eq!(costs.stages.len(), 2);
        for cost in &costs.stages {
            assert!(cost.fits_gpu_memory());
            assert!(cost.total_seconds() > 0.0);
        }
    }

    #[test]
    fn auto_routes_away_from_over_capacity_gpus() {
        let (catalog, plan) = setup();
        let server = Server::paper_testbed_gpu_mem_scaled(1.0 / 65536.0);
        let placed =
            optimize(&plan, &catalog, &ExecConfig::new(Placement::Auto), &server).unwrap();
        let stream = placed.stages.last().unwrap();
        assert!(
            stream.segments().iter().all(|s| !s.target.is_gpu()),
            "scaled-down GPUs must be pruned"
        );
        for cost in &placed.costs.as_ref().unwrap().stages {
            assert!(cost.fits_gpu_memory());
        }
    }

    #[test]
    fn builds_stay_on_cpus_for_small_dimensions() {
        let (catalog, plan) = setup();
        let server = Server::paper_testbed();
        let placed =
            optimize(&plan, &catalog, &ExecConfig::new(Placement::Auto), &server).unwrap();
        let build = &placed.stages[0];
        assert!(build.segments().iter().all(|s| !s.target.is_gpu()));
    }

    #[test]
    fn zero_gpu_capacity_without_cpu_fallback_is_typed() {
        let (catalog, plan) = setup();
        let mut server = Server::paper_testbed_gpu_mem_scaled(1.0 / 65536.0);
        server.cpus.clear();
        let err =
            optimize(&plan, &catalog, &ExecConfig::new(Placement::Auto), &server).unwrap_err();
        assert!(matches!(err, EngineError::GpuMemoryExceeded { .. }), "{err}");
    }

    #[test]
    fn degraded_pool_routes_around_excluded_gpus() {
        let (catalog, plan) = setup();
        let server = Server::paper_testbed();
        // The surviving fleet after losing gpu1: the optimizer must place
        // every stage without it, through the ordinary pass.
        let pool: Vec<DeviceId> =
            server.devices().into_iter().filter(|d| *d != DeviceId::Gpu(1)).collect();
        let placed =
            optimize_on(&plan, &catalog, &ExecConfig::new(Placement::Auto), &server, &pool)
                .unwrap();
        for stage in &placed.stages {
            assert!(
                stage.segments().iter().all(|s| s.target != DeviceId::Gpu(1)),
                "excluded device must not be placed on"
            );
        }
        assert!(placed.costs.is_some(), "degraded plans are costed like any other");
    }

    #[test]
    fn packet_rows_override_prices_gpu_streams() {
        // The engine cuts streams (not builds) into `packet_rows`-row
        // packets; the estimate must price those packets' fixed costs.
        let (catalog, plan) = setup();
        let server = Server::paper_testbed();
        let price = |cfg: ExecConfig| {
            let placed =
                optimize_on(&plan, &catalog, &cfg, &server, &[DeviceId::Gpu(0)]).unwrap();
            placed.costs.unwrap().stages
        };
        let auto = price(ExecConfig::new(Placement::Auto));
        let small = price(ExecConfig::new(Placement::Auto).with_packet_rows(256));
        assert_eq!(small[0].total_seconds(), auto[0].total_seconds(), "builds ignore it");
        assert!(
            small[1].total_seconds() > auto[1].total_seconds(),
            "256-row packets must cost more than the automatic size: {small:?} vs {auto:?}"
        );
    }

    #[test]
    fn empty_server_is_typed() {
        let (catalog, plan) = setup();
        let mut server = Server::paper_testbed();
        server.cpus.clear();
        server.gpus.clear();
        server.pcie.clear();
        server.gpu_socket.clear();
        let err =
            optimize(&plan, &catalog, &ExecConfig::new(Placement::Auto), &server).unwrap_err();
        assert!(matches!(err, EngineError::NoWorkers { .. }));
    }
}
