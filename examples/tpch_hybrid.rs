//! TPC-H on HAPE: run Q1/Q5/Q6/Q9* under a CLI-selectable placement list
//! (the paper's Figure 8 setting) and print the outcome, including the Q9
//! GPU-only out-of-memory failure and the cost-based optimizer (`auto`)
//! planning the §5 intra-operator co-processing stage that completes it —
//! no hand-written fallback anywhere.
//!
//! The queries are logical `Query` builders over named columns; the
//! session lowers them (with automatic projection pushdown and memoised
//! shared build sides), optimizes (`auto` only: per-stage device subsets
//! — and probe execution modes — from the hardware model), places them
//! (explicit per-device segments + exchange operators — pass `--explain`
//! to see Q9's placed plan with the co-process stage and cost estimates),
//! and interprets the placed plans.
//!
//! ```text
//! cargo run --release --example tpch_hybrid [sf] [--explain]
//!     [--placements cpu,gpu,hybrid,auto] [--packet-rows <n>] [--threads <n>]
//!     [--concurrency <n>]
//! ```
//!
//! `--packet-rows` overrides the engine's auto packet-sizing heuristic
//! (`ExecConfig::auto_packet_rows`) and `--threads` pins the data-plane
//! worker pool — both sweepable without recompiling. Simulated times are
//! thread-count-invariant; packet size genuinely changes the routing.
//!
//! `--concurrency N` additionally drives the whole matrix through the
//! concurrent serving layer: every (query, placement) cell is submitted N
//! times to one `SessionServer` sharing the fleet, so the run exercises
//! device-aware admission (GPU-hungry queries queue instead of OOMing the
//! fleet) and the cross-query build cache (repeats skip memoised builds) —
//! and prints the batch summary next to the solo table.
//!
//! `--concurrency` **composes with `--placements`**: the batch contains
//! `queries × placements × N` submissions, so narrowing the placement list
//! shrinks the concurrent workload too (e.g. `--placements auto
//! --concurrency 8` serves 32 optimizer-planned queries and nothing else).
//! Per-cell failures (Q9's manual GPU OOM) stay isolated inside the batch,
//! exactly as in the solo table. `--packet-rows` and `--threads` apply to
//! every submission in both modes.
//!
//! For a traced run (Chrome trace JSON or the predicted-vs-observed
//! profile table) use `figures --trace <path>` / `figures --profile`.
//!
//! Unknown `--flags` and unparsable values are rejected with an error and
//! the usage synopsis — a typo like `--concurency 4` aborts instead of
//! silently running the solo matrix.

use std::process::ExitCode;

use hape::core::serve::SessionServer;
use hape::core::{ExecConfig, JoinAlgo, PlacedStage, Placement, Session};
use hape::sim::topology::Server;
use hape::tpch::queries::{q9_query, tpch_queries};
use hape_bench::cli::{parse_value, Args, CliError};

/// Flags that take a value.
const VALUE_FLAGS: [&str; 4] = ["--placements", "--packet-rows", "--threads", "--concurrency"];
/// Flags that stand alone.
const BOOL_FLAGS: [&str; 1] = ["--explain"];

const USAGE: &str = "usage: tpch_hybrid [sf] [--explain] \
                     [--placements cpu,gpu,hybrid,auto] [--packet-rows <n>] \
                     [--threads <n>] [--concurrency <n>]";

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), CliError> {
    let args = Args::parse(std::env::args().skip(1), &VALUE_FLAGS, &BOOL_FLAGS)?;
    let sf: f64 = args.positional().map(|v| parse_value("sf", v)).transpose()?.unwrap_or(0.05);
    let placements = args.list::<Placement>("--placements")?.unwrap_or_else(|| {
        vec![Placement::CpuOnly, Placement::GpuOnly, Placement::Hybrid, Placement::Auto]
    });
    let packet_rows = args.get::<usize>("--packet-rows")?;
    let threads = args.get::<usize>("--threads")?;
    let concurrency = args.get::<usize>("--concurrency")?;
    println!("generating TPC-H at SF {sf} …");
    let data = hape::tpch::generate(sf, 42);
    // GPU memory scales with SF so the paper's SF-100 capacity effects hold.
    let mut session = Session::new(Server::tpch_scaled(sf));
    session.register(data.lineitem.clone());
    session.register(data.orders.clone());
    session.register(data.customer.clone());
    session.register(data.supplier.clone());
    session.register(data.partsupp.clone());
    session.register(data.nation.clone());
    session.register(data.region);

    let mk_cfg = |placement: Placement| {
        let mut cfg = ExecConfig::new(placement);
        cfg.packet_rows = packet_rows;
        cfg.threads = threads;
        cfg
    };

    if args.flag("--explain") {
        // Q9 under Auto renders the optimizer's headline decision: the
        // stream stage becomes a co-processing stage (CPU co-partition →
        // per-GPU single-pass joins) with its cost decomposition.
        let q9 = q9_query(JoinAlgo::Partitioned);
        let cfg = mk_cfg(*placements.last().unwrap_or(&Placement::Auto));
        println!("{}", session.explain_with(&q9, &cfg).expect("Q9 places"));
    }

    let queries = tpch_queries();
    print!("{:<5}", "query");
    for p in &placements {
        print!(" {:>16}", p.to_string());
    }
    println!();
    for query in &queries {
        print!("{:<5}", query.name);
        for &placement in &placements {
            let cfg = mk_cfg(placement);
            // Q9's hash tables exceed GPU memory (§6.4): the manual GPU
            // placements report the OOM, while `auto` plans the §5
            // co-processing stage and completes — flagged in the cell.
            let cell = match session.execute_with(query, &cfg) {
                Ok(r) => {
                    // Only the optimizer can plan a co-processing stage;
                    // manual placements never do, so only `auto` cells pay
                    // the extra placement pass for the tag.
                    let coproc = placement == Placement::Auto
                        && session.place_with(query, &cfg).is_ok_and(|placed| {
                            placed
                                .stages
                                .iter()
                                .any(|s| matches!(s, PlacedStage::CoProcess { .. }))
                        });
                    if coproc {
                        format!("{} (coproc)", r.time)
                    } else {
                        format!("{}", r.time)
                    }
                }
                Err(_) => "OOM".to_string(),
            };
            print!(" {cell:>16}");
        }
        println!();
    }

    // `--concurrency N`: re-run the whole matrix through the serving layer
    // — N copies of every cell interleaved over one shared fleet. Failures
    // (Q9's manual GPU OOM) stay per-query; repeats hit the build cache.
    if let Some(copies) = concurrency {
        let mut server = SessionServer::new(session.clone());
        let mut handles = Vec::new();
        for query in &queries {
            for &placement in &placements {
                for _ in 0..copies {
                    handles.push((
                        &query.name,
                        placement,
                        server.submit_with(query, &mk_cfg(placement)),
                    ));
                }
            }
        }
        let submitted = handles.len();
        println!("\nserving {submitted} concurrent queries ({copies} copies per cell) …");
        let batch = server.run_all();
        let (mut ok, mut failed) = (0usize, 0usize);
        for (name, placement, handle) in &handles {
            match batch.report(*handle) {
                Ok(_) => ok += 1,
                Err(e) => {
                    failed += 1;
                    println!("  {name}/{placement}: {e}");
                }
            }
        }
        let stats = server.cache_stats();
        println!(
            "completed {ok}/{submitted} ({failed} failed), admission waits {}, \
             cache-served builds {} (hits {}, misses {})",
            batch.metrics.admission_waits,
            batch.metrics.builds_cached,
            stats.hits,
            stats.misses
        );
    }
    Ok(())
}
