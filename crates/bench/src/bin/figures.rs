//! Regenerate the paper's figures and run the verification and chaos
//! sweeps.
//!
//! ```text
//! figures [fig5|fig6|fig7|fig8|fig9|all] [--full] [--smoke] [--sf <f64>]
//!         [--placements <p,p,...>] [--packet-rows <n>] [--threads <n>]
//!         [--verify | --chaos [--seed <n>]] [--users <n>] [--out <path>]
//!         [--trace <path>] [--profile]
//! ```
//!
//! Default sizes are scaled down from the paper's; `--full` uses
//! paper-scale inputs where host memory permits (slow). `--smoke` shrinks
//! every figure and sweep to seconds of runtime — the CI guard that keeps
//! this harness runnable.
//!
//! `--placements` selects the Proteus series of fig8 by name (`cpu`,
//! `gpu`, `hybrid`, `auto` — `Placement`'s `FromStr`); `auto` plots the
//! cost-based optimizer against the manual placements. `--packet-rows`
//! overrides the auto packet-sizing heuristic; `--threads` pins the
//! data-plane pool size of fig8 and the traced run.
//!
//! `--verify` and `--chaos` sweep one matrix instead of drawing the
//! figures: TPC-H Q1/Q5/Q6/Q9* plus the behavioral B1–B4 suite over a
//! `--users`-user event log, each under every placement.
//!
//! - `--verify` statically verifies every placed plan, executes it, and
//!   writes `VERIFY_tpch.json`; the process exits non-zero unless the
//!   static and runtime verdicts agree in every cell.
//! - `--chaos` runs every cell clean and under the canonical seeded fault
//!   plan (`--seed` varies the schedule), recording fired faults, priced
//!   retries/replans and the degraded/clean makespan ratio, and writes
//!   `CHAOS_tpch.json`; the process exits non-zero when any cell's rows
//!   diverge.
//!
//! `--out` overrides either sweep's output path.
//!
//! `--trace <path>` runs the TPC-H workload under the cost-based
//! optimizer with the execution tracing plane attached and writes the
//! Chrome trace JSON (sim-time and wall-time lanes, workers as threads —
//! load it in `chrome://tracing` or Perfetto). `--profile` prints the
//! deterministic plain-text predicted-vs-observed profile table instead
//! (the two flags compose: one traced run feeds both exporters).
//!
//! Wall-clock and per-layer performance is measured by the `perf/`
//! benchmark package, not by this binary.
//!
//! Unknown `--flags` and unparsable values are rejected with an error and
//! the usage synopsis (exit code 2).

use std::process::ExitCode;

use hape_bench::chaos::{chaos_tpch, print_chaos};
use hape_bench::cli::{Args, CliError};
use hape_bench::figures::{fig5, fig6, fig7, fig8, fig9, print_figure};
use hape_bench::trace::{trace_tpch, write_chrome_trace};
use hape_bench::verify::{print_verify, verify_tpch};
use hape_core::Placement;

/// Flags that take a value.
const VALUE_FLAGS: [&str; 8] = [
    "--sf",
    "--placements",
    "--packet-rows",
    "--threads",
    "--out",
    "--users",
    "--trace",
    "--seed",
];
/// Flags that stand alone.
const BOOL_FLAGS: [&str; 5] = ["--full", "--smoke", "--profile", "--verify", "--chaos"];

const USAGE: &str = "usage: figures [fig5|fig6|fig7|fig8|fig9|all] [--full] [--smoke] \
                     [--sf <f64>] [--placements <p,p,...>] [--packet-rows <n>] \
                     [--threads <n>] [--verify | --chaos [--seed <n>]] [--users <n>] \
                     [--out <path>] [--trace <path>] [--profile]";

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, CliError> {
    let args = Args::parse(std::env::args().skip(1), &VALUE_FLAGS, &BOOL_FLAGS)?;
    let which = args.positional().unwrap_or("all");
    let full = args.flag("--full");
    let smoke = args.flag("--smoke");
    let sf = args.get::<f64>("--sf")?.unwrap_or(if full {
        1.0
    } else if smoke {
        0.01
    } else {
        0.05
    });
    let placements = args.list::<Placement>("--placements")?.unwrap_or_else(|| {
        vec![Placement::CpuOnly, Placement::Hybrid, Placement::GpuOnly, Placement::Auto]
    });
    let packet_rows = args.get::<usize>("--packet-rows")?;
    let threads = args.get::<usize>("--threads")?;
    let users = args.get::<usize>("--users")?.unwrap_or(if smoke { 2_000 } else { 20_000 });

    // `--trace` / `--profile`: one traced TPC-H run under Auto feeds both
    // exporters — the Chrome JSON artifact and/or the profile table.
    let trace_path = args.value("--trace");
    let profile = args.flag("--profile");
    if trace_path.is_some() || profile {
        let trace = trace_tpch(sf, threads, packet_rows);
        if let Some(path) = trace_path {
            write_chrome_trace(&trace, path).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            println!(
                "wrote {path} ({} spans, {} counters)",
                trace.spans.len(),
                trace.counters.len()
            );
        }
        if profile {
            print!("{}", trace.render_profile());
        }
        return Ok(ExitCode::SUCCESS);
    }

    if args.flag("--verify") {
        let out = args.value("--out").unwrap_or("VERIFY_tpch.json");
        let sweep = verify_tpch(sf, users);
        print_verify(&sweep);
        hape_bench::verify::write_json(&sweep, out)
            .unwrap_or_else(|e| panic!("writing {out}: {e}"));
        println!("wrote {out}");
        if !sweep.clean() {
            eprintln!("static and runtime verdicts disagree — see {out}");
            return Ok(ExitCode::FAILURE);
        }
        return Ok(ExitCode::SUCCESS);
    }

    if args.flag("--chaos") {
        let out = args.value("--out").unwrap_or("CHAOS_tpch.json");
        let seed = args.get::<u64>("--seed")?.unwrap_or(42);
        let sweep = chaos_tpch(sf, users, seed);
        print_chaos(&sweep);
        hape_bench::chaos::write_json(&sweep, out)
            .unwrap_or_else(|e| panic!("writing {out}: {e}"));
        println!("wrote {out}");
        if !sweep.rows_identical() {
            eprintln!("a fault schedule changed an answer — see {out}");
            return Ok(ExitCode::FAILURE);
        }
        return Ok(ExitCode::SUCCESS);
    }

    let run = |id: &str| which == "all" || which == id;

    if run("fig5") {
        let tuples = if full {
            32 << 20
        } else if smoke {
            1 << 17
        } else {
            1 << 20
        };
        let sizes: &[usize] =
            if smoke { &[256, 1024, 4096] } else { &[128, 256, 512, 1024, 2048, 4096] };
        print_figure(&fig5(tuples, sizes));
    }
    if run("fig6") {
        let sizes: Vec<usize> = if full {
            vec![1 << 20, 1 << 23, 1 << 25, 1 << 27]
        } else if smoke {
            vec![1 << 19, 1 << 21]
        } else {
            vec![1 << 20, 1 << 21, 1 << 22, 1 << 23]
        };
        print_figure(&fig6(&sizes));
    }
    if run("fig7") {
        let sizes: Vec<usize> = if full {
            vec![256 << 20, 512 << 20, 1024 << 20]
        } else if smoke {
            vec![1 << 20, 1 << 21]
        } else {
            vec![1 << 21, 1 << 22, 1 << 23, 1 << 24]
        };
        print_figure(&fig7(&sizes));
    }
    if run("fig8") {
        print_figure(&fig8(sf, &placements, packet_rows, threads));
    }
    if run("fig9") {
        print_figure(&fig9(sf));
    }
    Ok(ExitCode::SUCCESS)
}
