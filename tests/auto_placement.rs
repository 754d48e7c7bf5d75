//! Cost-based auto-placement properties.
//!
//! 1. **Capacity guard** (deterministic property sweep — the Q9
//!    regression guard): across GPU memory scalings and hash-table sizes,
//!    `Placement::Auto` never selects a placement whose *estimated* GPU
//!    hash-table footprint exceeds device capacity, and the placement it
//!    does select executes to the `CpuOnly` reference rows.
//! 2. **TPC-H sweep**: `Auto` picks a valid placement for every query —
//!    row-identical to `CpuOnly`, including Q9, which completes where the
//!    manual GPU placements hit the §6.4 out-of-memory failure.
//! 3. **Makespan**: on Q1/Q5/Q6, and on B1–B4 over 2 000 users, the
//!    optimizer's simulated makespan is no worse than the best of the
//!    three manual placements.
//! 4. **Explain snapshot**: Q5 under `Auto` renders the chosen subsets
//!    with per-stage cost estimates.
//! 5. **Co-processing regression** (the tentpole): Auto plans Q9's stream
//!    as a first-class `PlacedStage::CoProcess`, beats the CPU-routed
//!    placement, and is no slower than the deleted hand-written
//!    `run_q9_hybrid` path (reconstructed here from the same public
//!    pieces it was built on).

use hape::core::engine::EngineError;
use hape::core::provider::TableStore;
use hape::core::{ExecConfig, HapeError, JoinAlgo, PlacedStage, Placement, Query, Session};
use hape::join::{coprocess_join, CoprocessConfig, JoinInput, OutputMode};
use hape::ops::{col, AggFunc};
use hape::sim::topology::Server;
use hape::sim::SimTime;
use hape::storage::datagen::gen_key_fk_table;
use hape::tpch::events::{behavioral_queries, generate_events};
use hape::tpch::queries::{q1_query, q5_query, q6_query, q9_query};
use hape::tpch::reference::rows_approx_eq;

const SF: f64 = 0.01;

fn tpch_session() -> Session {
    let data = hape::tpch::generate(SF, 31337);
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

fn tpch_queries() -> Vec<Query> {
    vec![
        q1_query(),
        q5_query(JoinAlgo::NonPartitioned),
        q5_query(JoinAlgo::Partitioned),
        q6_query(),
        q9_query(JoinAlgo::NonPartitioned),
    ]
}

/// The Q9 regression guard as a property: whatever the ratio between
/// hash-table size and GPU memory, the optimizer either keeps the tables
/// off the GPUs or proves (on its own estimates) that they fit — and the
/// chosen placement always executes to the CPU reference rows.
#[test]
fn auto_never_overcommits_gpu_memory() {
    for dim_rows in [1usize << 10, 1 << 13, 1 << 16] {
        for mem_factor in [1.0, 1.0 / 256.0, 1.0 / 4096.0, 1.0 / 65536.0] {
            let mut session = Session::new(Server::paper_testbed_gpu_mem_scaled(mem_factor))
                .with_placement(Placement::Auto);
            session.register_as("fact", gen_key_fk_table(1 << 18, 1 << 18, 7));
            session.register_as("dim", gen_key_fk_table(dim_rows, dim_rows, 8));
            let q = session
                .query("guard")
                .from_table("fact")
                .join(Query::scan("dim"), "k", "k", JoinAlgo::NonPartitioned)
                .agg(vec![(AggFunc::Count, col("k")), (AggFunc::Sum, col("v"))]);
            let ctx = format!("dim_rows={dim_rows} mem_factor={mem_factor}");
            let placed = session.place(&q).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let costs = placed.costs.as_ref().expect("auto plans carry cost estimates");
            for (i, cost) in costs.stages.iter().enumerate() {
                assert!(
                    cost.fits_gpu_memory(),
                    "{ctx}: stage {i} estimated footprint {} exceeds capacity {:?}",
                    cost.gpu_required,
                    cost.gpu_capacity
                );
                // The estimate is attached to the stage that actually uses
                // GPUs — broadcast segments or co-processing lanes; pure
                // CPU stages have no capacity bound.
                let uses_gpu = placed.stages[i].segments().iter().any(|s| s.target.is_gpu())
                    || matches!(&placed.stages[i], PlacedStage::CoProcess { gpus, .. } if !gpus.is_empty());
                assert_eq!(cost.gpu_capacity.is_some(), uses_gpu, "{ctx}: stage {i}");
                // A co-processing stage co-partitions on the CPUs only.
                if let PlacedStage::CoProcess { segments, .. } = &placed.stages[i] {
                    assert!(
                        segments.iter().all(|s| !s.target.is_gpu()),
                        "{ctx}: stage {i} co-partitions on GPUs"
                    );
                }
            }
            let auto = session.execute(&q).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let cpu = session
                .execute_with(&q, &ExecConfig::new(Placement::CpuOnly))
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_eq!(auto.rows, cpu.rows, "{ctx}: rows diverge from CpuOnly");
        }
    }
}

#[test]
fn auto_is_row_identical_to_cpu_reference_across_tpch() {
    let session = tpch_session();
    for query in &tpch_queries() {
        let reference =
            session.execute_with(query, &ExecConfig::new(Placement::CpuOnly)).unwrap().rows;
        let auto = session
            .execute_with(query, &ExecConfig::new(Placement::Auto))
            .unwrap_or_else(|e| panic!("{} under Auto: {e}", query.name));
        assert_eq!(auto.rows.len(), reference.len(), "{}: row count", query.name);
        for (got, want) in auto.rows.iter().zip(&reference) {
            assert_eq!(got.0, want.0, "{}: group keys", query.name);
        }
        assert!(
            rows_approx_eq(&auto.rows, &reference),
            "{}: Auto values diverge from CpuOnly",
            query.name
        );
    }
}

#[test]
fn auto_completes_q9_through_a_coprocess_stage() {
    let session = tpch_session();
    let q9 = q9_query(JoinAlgo::NonPartitioned);
    // The manual GPU placements reproduce the §6.4 failure…
    for placement in [Placement::GpuOnly, Placement::Hybrid] {
        match session.execute_with(&q9, &ExecConfig::new(placement)).unwrap_err() {
            HapeError::Engine(EngineError::GpuMemoryExceeded { required, capacity }) => {
                assert!(required > capacity, "{placement:?}");
            }
            e => panic!("{placement:?}: unexpected error {e}"),
        }
    }
    // …while the optimizer plans the §5 intra-operator co-processing
    // stage: CPU segments co-partition the stream against the oversized
    // orders table, the GPUs run single-pass joins.
    let placed = session.place_with(&q9, &ExecConfig::new(Placement::Auto)).unwrap();
    let stream = placed.stages.last().unwrap();
    let PlacedStage::CoProcess { ht, segments, gpus, .. } = stream else {
        panic!("Q9's stream must place as a co-process stage:\n{}", placed.render());
    };
    assert_eq!(ht, "Q9*.orders", "the oversized final probe is co-processed");
    assert!(segments.iter().all(|s| !s.target.is_gpu()), "co-partitioning is CPU work");
    assert_eq!(gpus.len(), 2, "both GPUs serve as single-pass join lanes");
    let cost = &placed.costs.as_ref().unwrap().stages.last().unwrap();
    let cp = cost.coprocess.as_ref().expect("co-process stages carry the §5 decomposition");
    assert_eq!(cp.ht, "Q9*.orders");
    assert!(cp.cpu_partition_seconds > 0.0 && cp.gpu_pass_seconds > 0.0);
    // Explain renders the decision and its cost decomposition.
    let text = session.explain_with(&q9, &ExecConfig::new(Placement::Auto)).unwrap();
    assert!(text.contains("stream (co-process \"Q9*.orders\")"), "{text}");
    assert!(text.contains("co-process: cpu co-partition \"Q9*.orders\""), "{text}");
    assert!(text.contains("est: co-process cpu-partition"), "{text}");
    // The co-processed run matches the CPU reference rows and beats the
    // CPU-routed stream placement the old optimizer fell back to.
    let auto = session.execute_with(&q9, &ExecConfig::new(Placement::Auto)).unwrap();
    let cpu = session.execute_with(&q9, &ExecConfig::new(Placement::CpuOnly)).unwrap();
    assert!(rows_approx_eq(&auto.rows, &cpu.rows));
    assert!(
        auto.time < cpu.time,
        "co-processing {} must beat the CPU-routed stream {}",
        auto.time,
        cpu.time
    );
    assert!(auto.packets_gpu > 0, "co-partitions must reach the GPUs");
    assert!(auto.h2d_bytes > 0, "co-partitions must cross PCIe");
}

/// The deleted `run_q9_hybrid` path, reconstructed from the same public
/// pieces it was built on (explicit CPU materialisation + direct
/// `coprocess_join`), as the makespan yardstick: the optimizer-planned
/// co-processing stage must be no slower than the hand-written escape
/// hatch it replaces.
#[test]
fn auto_q9_is_no_slower_than_the_old_hand_written_hybrid() {
    use hape::core::plan::Stage;
    use hape::sim::CpuCostModel;

    let data = hape::tpch::generate(SF, 31337);
    let catalog = hape::tpch::queries::base_catalog(&data);
    let engine = hape::core::Engine::new(Server::tpch_scaled(SF));
    let algo = JoinAlgo::NonPartitioned;

    // ---- The pre-PR hand-written hybrid, verbatim: materialise the
    // lineitem-side intermediate on the CPUs, co-process the big
    // intermediate⋈orders join, charge the final fold analytically.
    let inter_query = Query::new("Q9.intermediate")
        .from_table("lineitem")
        .join(Query::scan("partsupp"), "l_pskey", "ps_pskey", algo)
        .join(
            Query::scan("supplier").join(
                Query::scan("nation"),
                "s_nationkey",
                "n_nationkey",
                algo,
            ),
            "l_suppkey",
            "s_suppkey",
            algo,
        );
    let lowered = inter_query
        .lower_materialize(
            &catalog,
            &[
                "l_orderkey",
                "l_quantity",
                "l_extendedprice",
                "l_discount",
                "ps_supplycost",
                "n_name",
            ],
        )
        .unwrap();
    let mut tables = TableStore::new();
    let mut clock = SimTime::ZERO;
    for stage in &lowered.builds {
        let Stage::Build { name, key_col, pipeline } = stage else { continue };
        let (jt, end, _) = engine
            .build_join_table(&lowered.catalog, pipeline, *key_col, &tables, clock)
            .unwrap();
        tables.insert(name.clone(), jt);
        clock = end;
    }
    let (inter, inter_end, _) =
        engine.materialize_cpu(&lowered.catalog, &lowered.pipeline, &tables, clock).unwrap();
    let inter_keys: Vec<i32> =
        inter.col(lowered.index_of("l_orderkey").unwrap()).as_i32().to_vec();
    let inter_vals: Vec<u32> = (0..inter.rows() as u32).collect();
    let order_keys: Vec<i32> = data.orders.column("o_orderkey").as_i32().to_vec();
    let order_vals: Vec<u32> = (0..order_keys.len() as u32).collect();
    let cfg = CoprocessConfig {
        n_gpus: engine.server.gpus.len(),
        cpu_workers: engine.server.total_cpu_cores(),
        mode: OutputMode::MatchIndices,
        ..Default::default()
    };
    let cop = coprocess_join(
        &engine.server,
        JoinInput::new(&order_keys, &order_vals),
        JoinInput::new(&inter_keys, &inter_vals),
        &cfg,
    )
    .unwrap();
    let model = CpuCostModel::new(engine.server.cpus[0].clone(), engine.server.cpus[0].cores);
    let agg_time = model.random_accesses(cop.outcome.stats.matches, 1 << 16)
        / (engine.server.total_cpu_cores() as f64 * 0.9);
    let old_hybrid = inter_end + cop.outcome.time + agg_time;

    // ---- The optimizer-planned co-processing stage.
    let q9 = q9_query(algo).lower(&catalog).unwrap();
    let auto = engine.run(&q9.catalog, &q9.plan, &ExecConfig::new(Placement::Auto)).unwrap();
    assert!(
        auto.time <= old_hybrid,
        "Auto Q9 {} must be no slower than the old hand-written hybrid {}",
        auto.time,
        old_hybrid
    );
}

/// Asserts that `Auto`'s simulated makespan is no worse than the best
/// manual placement's on every query.
fn assert_auto_no_worse_than_best_manual(session: &Session, queries: &[Query]) {
    for query in queries {
        let auto = session
            .execute_with(query, &ExecConfig::new(Placement::Auto))
            .unwrap_or_else(|e| panic!("{} under Auto: {e}", query.name))
            .time;
        let mut best = None::<SimTime>;
        for placement in [Placement::CpuOnly, Placement::GpuOnly, Placement::Hybrid] {
            if let Ok(rep) = session.execute_with(query, &ExecConfig::new(placement)) {
                best = Some(best.map_or(rep.time, |b: SimTime| b.min(rep.time)));
            }
        }
        let best = best.expect("at least one manual placement runs");
        assert!(auto <= best, "{}: Auto {auto} slower than best manual {best}", query.name);
    }
}

/// B1–B4 over an `n_users`-user event log (seed 7171) on the paper
/// testbed.
fn behavioral_session(n_users: usize) -> Session {
    let mut session = Session::new(Server::paper_testbed());
    session.register(generate_events(n_users, 7171));
    session
}

#[test]
fn auto_makespan_is_no_worse_than_the_best_manual_placement() {
    assert_auto_no_worse_than_best_manual(
        &tpch_session(),
        &[q1_query(), q5_query(JoinAlgo::Partitioned), q6_query()],
    );
    assert_auto_no_worse_than_best_manual(&behavioral_session(2_000), &behavioral_queries());
}

#[test]
#[ignore = "known defect: at 20 000 users B4 auto takes 140.1 µs simulated against 118.5 µs for cpu"]
fn auto_makespan_is_no_worse_than_the_best_manual_placement_at_20k_users() {
    assert_auto_no_worse_than_best_manual(&behavioral_session(20_000), &behavioral_queries());
}

const Q5_AUTO_EXPLAIN: &str = "\
PlacedPlan Q5
stage 0: build Q5.region (key col 0)
  pipeline: scan(region) | filter
  Router(LoadAware, 1 -> 24)
  segment cpu0: Cpu dop=12 mem=dram0 packing=Packets
  segment cpu1: Cpu dop=12 mem=dram0 packing=Packets
  est: total 0.0000 ms = stream 0.0000 ms + broadcast 0.0000 ms + d2h 0.0000 ms
stage 1: build Q5.nation (key col 0)
  pipeline: scan(nation) | join(Q5.region)
  Router(LoadAware, 1 -> 24)
  segment cpu0: Cpu dop=12 mem=dram0 packing=Packets
  segment cpu1: Cpu dop=12 mem=dram0 packing=Packets
  est: total 0.0000 ms = stream 0.0000 ms + broadcast 0.0000 ms + d2h 0.0000 ms
stage 2: build Q5.customer (key col 0)
  pipeline: scan(customer) | join(Q5.nation)
  Router(LoadAware, 1 -> 24)
  segment cpu0: Cpu dop=12 mem=dram0 packing=Packets
  segment cpu1: Cpu dop=12 mem=dram0 packing=Packets
  est: total 0.0005 ms = stream 0.0005 ms + broadcast 0.0000 ms + d2h 0.0000 ms
stage 3: build Q5.orders (key col 0)
  pipeline: scan(Q5.orders) | filter | join(Q5.customer)
  Router(LoadAware, 1 -> 24)
  segment cpu0: Cpu dop=12 mem=dram0 packing=Packets
  segment cpu1: Cpu dop=12 mem=dram0 packing=Packets
  est: total 0.0034 ms = stream 0.0034 ms + broadcast 0.0000 ms + d2h 0.0000 ms
stage 4: build Q5.supplier (key col 0)
  pipeline: scan(supplier) | join(Q5.nation)
  Router(LoadAware, 1 -> 24)
  segment cpu0: Cpu dop=12 mem=dram0 packing=Packets
  segment cpu1: Cpu dop=12 mem=dram0 packing=Packets
  est: total 0.0000 ms = stream 0.0000 ms + broadcast 0.0000 ms + d2h 0.0000 ms
stage 5: stream
  pipeline: scan(Q5.lineitem) | join(Q5.orders) | join(Q5.supplier) | filter | agg
  Router(LoadAware, 1 -> 26)
  segment cpu0: Cpu dop=12 mem=dram0 packing=Packets
  segment cpu1: Cpu dop=12 mem=dram0 packing=Packets
  segment gpu0: Gpu dop=1 mem=gmem0 packing=Packets
    MemMove(dram0 -> gmem0)
    DeviceCrossing(Cpu -> Gpu)
    MemMove(dram0 -> gmem0, broadcast \"Q5.orders\")
    MemMove(dram0 -> gmem0, broadcast \"Q5.supplier\")
  segment gpu1: Gpu dop=1 mem=gmem1 packing=Packets
    MemMove(dram0 -> gmem1)
    DeviceCrossing(Cpu -> Gpu)
    MemMove(dram0 -> gmem1, broadcast \"Q5.orders\")
    MemMove(dram0 -> gmem1, broadcast \"Q5.supplier\")
  est: total 0.0522 ms = stream 0.0373 ms + broadcast 0.0149 ms + d2h 0.0000 ms
  est: gpu hash tables 179280 B (448200 B with working space) of 858993 B
est makespan: 0.0562 ms
verified: 6 stages, 0 diagnostics
";

#[test]
fn q5_auto_explain_renders_subsets_and_cost_estimates() {
    let session = tpch_session();
    let q5 = q5_query(JoinAlgo::NonPartitioned);
    let text = session.explain_with(&q5, &ExecConfig::new(Placement::Auto)).unwrap();
    assert_eq!(text, Q5_AUTO_EXPLAIN, "Auto snapshot diverged:\n{text}");
    // Manual placements render no cost lines.
    let manual = session.explain_with(&q5, &ExecConfig::new(Placement::Hybrid)).unwrap();
    assert!(!manual.contains("est:"), "{manual}");
}
