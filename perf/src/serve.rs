//! `serve-hot` and `serve-refresh`: a closed loop of `SessionServer`
//! batches over SF 0.01 TPC-H plus a 2 000-user event log.

use std::time::{Duration, Instant};

use hape_core::serve::{QueryHandle, ServeReport, SessionServer};
use hape_core::{ExecConfig, QueryReport, TraceRecorder};
use hape_tpch::TpchData;

use crate::cells;
use crate::clock::CpuTime;
use crate::data::{self, Job, Oracle};
use crate::layers;
use crate::report::{bump, ms, Op, Report, Sample, Walls, WINDOWS};
use crate::{end_to_end, per_layer, Opts, Workload};

/// Batches between two passes over the solo cells in the measured loop.
const CELL_PASS_EVERY: usize = 10;
/// Batches the measured loop makes at least: 100 per window, so that ten
/// samples lie beyond each window's p90 (and each solo cell gets at least
/// 100 samples).
const MIN_BATCHES: usize = WINDOWS * 100;
/// Traced rounds made at least.
const MIN_ROUNDS: usize = 30;

/// One submitted and completed batch.
struct Batch {
    /// Wall milliseconds from the first submit to the end of `run_all`.
    wall_ms: f64,
    /// CPU milliseconds over the same span.
    cpu_ms: f64,
    /// Wall milliseconds of the submits alone.
    submit_ms: f64,
    report: ServeReport,
    handles: Vec<QueryHandle>,
}

impl Batch {
    fn results(&self) -> impl Iterator<Item = Result<&QueryReport, &hape_core::HapeError>> {
        self.handles.iter().map(|&h| self.report.report(h).as_ref())
    }
}

/// One operation: on `serve-refresh` re-register `supplier` with the same
/// contents, then submit every job and wait for `run_all`.
fn run_batch(
    server: &mut SessionServer,
    jobs: &[Job],
    configs: &[ExecConfig],
    data: &TpchData,
    refresh: bool,
) -> Batch {
    if refresh {
        server.register_table("supplier", data.supplier.clone());
    }
    let t = Instant::now();
    let cpu = CpuTime::now();
    let handles =
        jobs.iter().zip(configs).map(|(j, c)| server.submit_with(&j.query, c)).collect();
    let submit_ms = ms(t);
    let report = server.run_all();
    Batch { wall_ms: ms(t), cpu_ms: cpu.ms(), submit_ms, report, handles }
}

/// Check a batch against the oracle and, when given, the reference batch
/// bit for bit; returns the queries answered correctly and the batch's
/// simulated milliseconds (sum of the queries' makespans).
fn check_batch(
    rep: &mut Report,
    oracle: &Oracle,
    jobs: &[Job],
    batch: &Batch,
    want: &[Option<QueryReport>],
) -> (usize, f64) {
    let mut completed = 0;
    let mut sim_ms = 0.0;
    for (i, (job, got)) in jobs.iter().zip(batch.results()).enumerate() {
        if cells::check(rep, oracle, job, got, want.get(i).and_then(Option::as_ref)) {
            completed += 1;
        }
        if let Ok(r) = got {
            sim_ms += r.time.as_secs() * 1e3;
        }
    }
    (completed, sim_ms)
}

fn configs_for(jobs: &[Job], threads: Option<usize>) -> Vec<ExecConfig> {
    jobs.iter()
        .map(|j| {
            let mut cfg = j.config();
            cfg.threads = threads;
            cfg
        })
        .collect()
}

/// The end-to-end run: `--setups` timed set-ups (generation, registration
/// and one warm-up batch), then batches for `--seconds`, with a pass over
/// the eight solo cells at this scale after every window of batches.
pub fn untraced(o: &Opts, rep: &mut Report) -> Result<(), String> {
    let refresh = o.workload == Workload::ServeRefresh;
    let jobs = data::batch();
    let configs = configs_for(&jobs, None);
    let (setup_s, data, (mut server, warm)) = data::timed_setups(o, |session, data| {
        let mut server = SessionServer::new(session);
        let warm = run_batch(&mut server, &jobs, &configs, data, refresh);
        (server, warm)
    })?;
    let oracle = Oracle::new(&data, server.session())?;
    check_batch(rep, &oracle, &jobs, &warm, &[]);

    // The solo cells at this scale: one pass after every
    // `CELL_PASS_EVERY` batches, so their samples spread over the whole
    // run as the batches' do. A pass is not part of any batch.
    let cells = data::cells();
    let cell_warm = cells::warm_up(server.session(), &cells);
    let cell_refs =
        cells::references(rep, &oracle, &cells, cell_warm.iter().map(Result::as_ref));
    let mut cell_ms = vec![Vec::new(); cells.len()];

    let mut reference: Vec<Option<QueryReport>> = Vec::new();
    let mut ops = Vec::new();
    let start = Instant::now();
    while ops.len() < MIN_BATCHES || start.elapsed() < Duration::from_secs_f64(o.seconds) {
        let t = CpuTime::now();
        let batch = run_batch(&mut server, &jobs, &configs, &data, refresh);
        let (completed, sim_ms) = check_batch(rep, &oracle, &jobs, &batch, &reference);
        if reference.is_empty() {
            // The first measured batch is the reference the others repeat.
            reference = batch.results().map(|r| r.ok().cloned()).collect();
        }
        ops.push(Op { loop_s: t.secs(), cpu_ms: batch.cpu_ms, sim_ms, completed });
        if ops.len() % CELL_PASS_EVERY == 0 {
            cells::pass(server.session(), &cells, &oracle, &cell_refs, &mut cell_ms, rep);
        }
    }
    end_to_end(rep, &setup_s, &ops, &cells, &cell_ms);
    Ok(())
}

/// The traced run: a traced probe of the solo cells, the optimizer's
/// accuracy, then rounds of an untraced, a one-thread and a traced batch
/// for `--seconds`. Every batch must answer exactly as the untraced
/// reference batch did.
pub fn traced(o: &Opts, rep: &mut Report) -> Result<(), String> {
    let refresh = o.workload == Workload::ServeRefresh;
    let jobs = data::batch();
    let configs = configs_for(&jobs, None);
    let one_thread = configs_for(&jobs, Some(1));
    let (session, data, gen_s) = data::session(o);
    let mut server = SessionServer::new(session);
    let warm = run_batch(&mut server, &jobs, &configs, &data, refresh);
    let oracle = Oracle::new(&data, server.session())?;
    check_batch(rep, &oracle, &jobs, &warm, &[]);

    let cells = data::cells();
    let (probe, acc_cells, acc_jobs) = {
        let session = server.session();
        let warm = cells::warm_up(session, &cells);
        let refs = cells::references(rep, &oracle, &cells, warm.iter().map(Result::as_ref));
        let probe =
            cells::layered_rounds(session, &cells, &oracle, &refs, o.seconds / 4.0, 3, rep);
        let acc_cells = cells::accuracy(session, &cells).map_err(|e| e.to_string())?;
        let acc_jobs = cells::accuracy(session, &jobs).map_err(|e| e.to_string())?;
        (probe, acc_cells, acc_jobs)
    };

    let first = run_batch(&mut server, &jobs, &configs, &data, refresh);
    let reference = cells::references(rep, &oracle, &jobs, first.results());
    let mut walls = Walls::default();
    let mut samples = Vec::new();
    let start = Instant::now();
    while walls.traced_ms.len() < MIN_ROUNDS
        || start.elapsed() < Duration::from_secs_f64(o.seconds)
    {
        let batch = run_batch(&mut server, &jobs, &configs, &data, refresh);
        check_batch(rep, &oracle, &jobs, &batch, &reference);
        walls.untraced_ms.push(batch.wall_ms);

        let batch = run_batch(&mut server, &jobs, &one_thread, &data, refresh);
        check_batch(rep, &oracle, &jobs, &batch, &reference);
        walls.one_thread_ms.push(batch.wall_ms);

        // The layers `submit_with` runs, timed through their public
        // functions on the same session (the batch's own calls are inside
        // the server).
        let mut sample = Sample::new();
        for (job, cfg) in jobs.iter().zip(&configs) {
            if let Err(e) = layers::plan(server.session(), job, cfg, &mut sample) {
                rep.check(false, || format!("{}: {e}", job.label));
            }
        }
        let recorder = TraceRecorder::new();
        server = server.with_trace(recorder.clone());
        let before = server.cache_stats();
        let batch = run_batch(&mut server, &jobs, &configs, &data, refresh);
        let after = server.cache_stats();
        server = server.with_trace(TraceRecorder::off());
        check_batch(rep, &oracle, &jobs, &batch, &reference);
        walls.traced_ms.push(batch.wall_ms);

        let trace = recorder.snapshot();
        layers::fold_trace(&mut sample, &trace, true);
        let counter = |name: &str| trace.counters.get(name).copied().unwrap_or(0) as f64;
        let waits = counter("admission.waits");
        // The trace's counters must agree with the server's own report.
        if waits != batch.report.metrics.admission_waits as f64 {
            rep.check(false, || "admission.waits counter disagrees with ServeReport".into());
        }
        let lookups = counter("cache.hits") + counter("cache.misses");
        bump(&mut sample, "serve.submit_ms", batch.submit_ms);
        bump(&mut sample, "serve.run_all_ms", batch.wall_ms - batch.submit_ms);
        bump(&mut sample, "serve.admission_waits", waits);
        bump(
            &mut sample,
            "serve.cache_hit_ratio",
            if lookups > 0.0 { counter("cache.hits") / lookups } else { 0.0 },
        );
        bump(&mut sample, "serve.builds_cached", batch.report.metrics.builds_cached as f64);
        bump(
            &mut sample,
            "serve.cache_invalidations",
            (after.invalidations - before.invalidations) as f64,
        );
        let h2d: u64 = batch.results().flatten().map(|r| r.h2d_bytes).sum();
        bump(&mut sample, "sim.h2d_mb", h2d as f64 / 1e6);
        samples.push(sample);
    }
    per_layer(rep, &samples, &probe.cells, &walls, &acc_jobs, Some(&acc_cells), gen_s);
    Ok(())
}
