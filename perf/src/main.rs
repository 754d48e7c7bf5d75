//! The HAPE benchmark: one workload per process, one closed-loop client.
//!
//! ```text
//! cargo run --release --manifest-path perf/Cargo.toml -- \
//!     --workload tpch-solo --seed 0 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1`
//! makes the separate traced run that gives the per-layer breakdown. The
//! last line of standard output is the JSON result; see `README.md` for
//! the workloads and every metric.

mod cells;
mod clock;
mod data;
mod heap;
mod layers;
mod report;
mod serve;
mod solo;

use std::process::ExitCode;

use report::Report;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// The workloads (see `README.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Solo TPC-H cells at SF 0.1 through `Session::execute_with`.
    TpchSolo,
    /// A `SessionServer` batch over warm build caches.
    ServeHot,
    /// The same batch, re-registering `supplier` before every batch.
    ServeRefresh,
}

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload to run.
    pub workload: Workload,
    /// Seconds the measured loop runs for.
    pub seconds: f64,
    /// Make the traced per-layer run instead of the end-to-end one.
    pub trace: bool,
    /// TPC-H generator seed: `420 + --seed`.
    pub tpch_seed: u64,
    /// Event-log generator seed: `7171 + --seed`.
    pub events_seed: u64,
    /// TPC-H scale factor.
    pub sf: f64,
    /// Users in the event log (0: no event log).
    pub users: usize,
    /// Set-ups made to report the median set-up time.
    pub setups: usize,
}

const USAGE: &str = "usage: hape-perf --workload <tpch-solo|serve-hot|serve-refresh> \
[--seed N] [--seconds S] [--trace 0|1] [--sf X] [--users N] [--setups N]";

/// The TPC-H seed `--seed 0` selects.
const TPCH_SEED: u64 = 420;
/// The event-log seed `--seed 0` selects.
const EVENTS_SEED: u64 = 7171;

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut flags = std::collections::HashMap::new();
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument {flag}"));
        };
        flags.insert(name.to_string(), value.clone());
    }
    let mut take = |name: &str| flags.remove(name);
    fn num<T: std::str::FromStr>(
        name: &str,
        v: Option<String>,
        default: T,
    ) -> Result<T, String> {
        v.map_or(Ok(default), |s| s.parse().map_err(|_| format!("--{name}: bad value {s:?}")))
    }
    let workload = match take("workload").as_deref() {
        Some("tpch-solo") => Workload::TpchSolo,
        Some("serve-hot") => Workload::ServeHot,
        Some("serve-refresh") => Workload::ServeRefresh,
        other => return Err(format!("--workload: unknown workload {other:?}")),
    };
    let solo = workload == Workload::TpchSolo;
    let seed: u64 = num("seed", take("seed"), 0)?;
    let opts = Opts {
        workload,
        seconds: num("seconds", take("seconds"), 10.0)?,
        trace: match take("trace").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("--trace: expected 0 or 1, got {v:?}")),
        },
        tpch_seed: TPCH_SEED.wrapping_add(seed),
        events_seed: EVENTS_SEED.wrapping_add(seed),
        sf: num("sf", take("sf"), if solo { 0.1 } else { 0.01 })?,
        users: num("users", take("users"), if solo { 0 } else { 2_000 })?,
        setups: num("setups", take("setups"), if solo { 5 } else { 15 })?,
    };
    if let Some(name) = flags.keys().next() {
        return Err(format!("unknown option --{name}"));
    }
    if !(opts.seconds.is_finite() && opts.seconds >= 0.0 && opts.sf > 0.0 && opts.setups > 0) {
        return Err("--seconds must be >= 0, --sf > 0 and --setups > 0".to_string());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = match hape_core::resolve_threads(None) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {:?} trace {} tpch_seed {} events_seed {} sf {} users {} threads {} seconds {}",
        opts.workload,
        u8::from(opts.trace),
        opts.tpch_seed,
        opts.events_seed,
        opts.sf,
        opts.users,
        threads,
        opts.seconds
    );
    let mut rep = Report::default();
    let ran = match (opts.workload, opts.trace) {
        (Workload::TpchSolo, false) => solo::untraced(&opts, &mut rep),
        (Workload::TpchSolo, true) => solo::traced(&opts, &mut rep),
        (_, false) => serve::untraced(&opts, &mut rep),
        (_, true) => serve::traced(&opts, &mut rep),
    };
    if let Err(e) = ran {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    rep.print();
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Print the end-to-end metrics over the measured loop's operations: a
/// pass over the cells on `tpch-solo`, a batch on the serve workloads.
/// `cell_ms` holds each solo cell's CPU times (the measured loop on
/// `tpch-solo`; on the serve workloads, the passes over the cells at the
/// workload's own scale between batches). `qps` and `batch_p90_ms` are
/// medians over [`report::windows`] of the operations.
fn end_to_end(
    rep: &mut Report,
    setup_s: &[f64],
    ops: &[report::Op],
    cells: &[data::Job],
    cell_ms: &[Vec<f64>],
) {
    use report::{median, percentile, windows};
    let windows = windows(ops);
    let qps: Vec<f64> = windows
        .iter()
        .map(|w| {
            let done: usize = w.iter().map(|op| op.completed).sum();
            done as f64 / w.iter().map(|op| op.loop_s).sum::<f64>()
        })
        .collect();
    let cpu_ms: Vec<f64> = ops.iter().map(|op| op.cpu_ms).collect();
    let p90: Vec<f64> = windows
        .iter()
        .map(|w| percentile(&w.iter().map(|op| op.cpu_ms).collect::<Vec<_>>(), 90.0))
        .collect();
    let sim_ms: Vec<f64> = ops.iter().map(|op| op.sim_ms).collect();
    rep.add("setup_s", median(setup_s), "s", setup_s.len());
    rep.add("qps", median(&qps), "1/s", ops.len());
    rep.add("sim_ms", median(&sim_ms), "ms", ops.len());
    rep.add("peak_heap_mb", heap::peak_mb(), "MB", 1);
    let attempted = rep.attempted.max(1);
    rep.add(
        "ok_ratio",
        (attempted - rep.failed) as f64 / attempted as f64,
        "ratio",
        attempted as usize,
    );
    for (cell, times) in cells.iter().zip(cell_ms) {
        rep.add(format!("{}_ms", cell.label), median(times), "ms", times.len());
    }
    rep.add("batch_p50_ms", median(&cpu_ms), "ms", ops.len());
    rep.add("batch_p90_ms", median(&p90), "ms", ops.len());
}

/// Per-operation layer metrics: the median over operations of each.
const LAYERS: [(&str, &str); 23] = [
    ("query.lower_us", "us"),
    ("optimize.us", "us"),
    ("place.us", "us"),
    ("verify.us", "us"),
    ("engine.begin_us", "us"),
    ("engine.finish_us", "us"),
    ("serve.submit_ms", "ms"),
    ("serve.run_all_ms", "ms"),
    ("serve.admission_waits", "count"),
    ("engine.build_ms", "ms"),
    ("engine.stream_ms", "ms"),
    ("engine.coprocess_ms", "ms"),
    ("engine.stream_residual_ms", "ms"),
    ("provider.packet_ms", "ms"),
    ("provider.packets_cpu", "count"),
    ("provider.packets_gpu", "count"),
    ("join.prefix_ms", "ms"),
    ("join.lanes_ms", "ms"),
    ("join.fold_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.builds_cached", "count"),
    ("serve.cache_invalidations", "count"),
    ("sim.h2d_mb", "MB"),
];

/// Print the per-layer metrics: `op_samples` per operation, the per-cell
/// breakdown, the thread speed-up and tracing overhead from `walls`, the
/// optimizer's accuracy over the workload's own auto queries (`acc`) and
/// per cell (`cell_acc`, where the cells are not the workload's queries),
/// and the TPC-H generation time. A layer the workload does not run
/// reads 0.
fn per_layer(
    rep: &mut Report,
    op_samples: &[report::Sample],
    cell_samples: &[report::Sample],
    walls: &report::Walls,
    acc: &cells::Accuracy,
    cell_acc: Option<&cells::Accuracy>,
    gen_s: f64,
) {
    use report::median;
    for (name, unit) in LAYERS {
        let values: Vec<f64> =
            op_samples.iter().map(|s| s.get(name).copied().unwrap_or(0.0)).collect();
        rep.add(name, median(&values), unit, values.len());
    }
    let n = acc.est_err.len();
    rep.add("optimize.est_err_geomean", cells::geomean(&acc.est_err), "ratio", n);
    rep.add(
        "optimize.est_err_worst",
        acc.est_err.iter().copied().fold(1.0, f64::max),
        "ratio",
        n,
    );
    let worst = acc.regret.iter().map(|r| r.1).fold(0.0, f64::max);
    rep.add("optimize.regret", worst, "ratio", acc.regret.len());
    let untraced = median(&walls.untraced_ms);
    let rounds = walls.traced_ms.len();
    rep.add("runtime.speedup", median(&walls.one_thread_ms) / untraced, "ratio", rounds);
    let overhead_pct = (median(&walls.traced_ms) / untraced - 1.0) * 100.0;
    rep.add("trace.overhead_pct", overhead_pct, "%", rounds);
    rep.add("tpch.gen_s", gen_s, "s", 1);
    rep.add_medians(cell_samples, |name| if name.ends_with("_us") { "us" } else { "ms" });
    let cell_acc = cell_acc.unwrap_or(acc);
    for (label, regret) in &cell_acc.regret {
        rep.add(format!("{label}.regret"), *regret, "ratio", 1);
    }
    for (label, err) in &cell_acc.job_err {
        rep.add(format!("{label}.est_err"), *err, "ratio", 1);
    }
}
