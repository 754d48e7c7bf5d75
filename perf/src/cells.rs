//! The solo cells: Q1, Q5, Q6 and Q9* under `cpu` and `auto`, each run
//! through `Session::execute_with` by a closed-loop client.

use std::time::{Duration, Instant};

use hape_core::{ExecConfig, HapeError, Placement, QueryReport, Session, TraceRecorder};

use crate::clock::CpuTime;
use crate::data::{Job, Oracle};
use crate::layers;
use crate::report::{bump, Op, Report, Sample, Walls};

/// Whether `got` is the answer `oracle` expects and repeats `want` — the
/// run that fixed the reference — bit for bit, rows and makespan.
pub fn check(
    rep: &mut Report,
    oracle: &Oracle,
    job: &Job,
    got: Result<&QueryReport, &HapeError>,
    want: Option<&QueryReport>,
) -> bool {
    let ok = got.is_ok_and(|r| {
        oracle.matches(job.which, &r.rows)
            && want.is_none_or(|w| w.rows == r.rows && w.time == r.time)
    });
    rep.check(ok, || match got {
        Ok(r) => format!("{}: wrong answer or makespan ({} rows)", job.label, r.rows.len()),
        Err(e) => format!("{}: {e}", job.label),
    });
    ok
}

/// One pass over `cells`: each executed, its CPU milliseconds appended to
/// `cell_ms`, and its answer checked against `oracle` and the reference
/// run `refs`.
pub fn pass(
    session: &Session,
    cells: &[Job],
    oracle: &Oracle,
    refs: &[Option<QueryReport>],
    cell_ms: &mut [Vec<f64>],
    rep: &mut Report,
) -> Op {
    let configs: Vec<ExecConfig> = cells.iter().map(Job::config).collect();
    let start = CpuTime::now();
    let mut op = Op { loop_s: 0.0, cpu_ms: 0.0, sim_ms: 0.0, completed: 0 };
    for (i, cell) in cells.iter().enumerate() {
        let t = CpuTime::now();
        let got = session.execute_with(&cell.query, &configs[i]);
        cell_ms[i].push(t.ms());
        if check(rep, oracle, cell, got.as_ref(), refs[i].as_ref()) {
            op.completed += 1;
        }
        if let Ok(r) = &got {
            op.sim_ms += r.time.as_secs() * 1e3;
        }
    }
    op.cpu_ms = start.ms();
    op.loop_s = start.secs();
    op
}

/// Execute every cell once (the warm-up pass, which also fixes the
/// reference answers and makespans).
pub fn warm_up(session: &Session, cells: &[Job]) -> Vec<Result<QueryReport, HapeError>> {
    cells.iter().map(|c| session.execute_with(&c.query, &c.config())).collect()
}

/// Check the answers of the run that fixes the references, and keep them.
pub fn references<'a>(
    rep: &mut Report,
    oracle: &Oracle,
    jobs: &[Job],
    got: impl IntoIterator<Item = Result<&'a QueryReport, &'a HapeError>>,
) -> Vec<Option<QueryReport>> {
    jobs.iter()
        .zip(got)
        .map(|(job, g)| check(rep, oracle, job, g, None).then(|| g.ok().cloned()).flatten())
        .collect()
}

/// Per-layer numbers of the cells from a traced run.
pub struct CellLayers {
    /// Per pass: the layer metrics summed over the cells.
    pub passes: Vec<Sample>,
    /// Per pass: the per-cell metrics (`q5_auto.build_ms`, ...).
    pub cells: Vec<Sample>,
    /// Wall milliseconds of each round's three passes.
    pub walls: Walls,
}

/// The per-cell breakdown: each metric suffix and the layer metrics it
/// sums.
const CELL_METRICS: [(&str, &[&str]); 5] = [
    ("plan_us", &["query.lower_us", "optimize.us", "place.us"]),
    ("build_ms", &["engine.build_ms"]),
    ("stream_ms", &["engine.stream_ms", "engine.coprocess_ms"]),
    ("packet_ms", &["provider.packet_ms"]),
    ("residual_ms", &["engine.stream_residual_ms"]),
];

/// Rounds of three passes over the cells, all through [`layers::run`]:
/// untraced on the default pool, traced on the default pool, untraced on
/// one thread. Runs until `seconds` have passed and `min_rounds` rounds
/// are done. Every answer must equal the untraced reference `refs` bit
/// for bit — tracing is a pure observer.
pub fn layered_rounds(
    session: &Session,
    cells: &[Job],
    oracle: &Oracle,
    refs: &[Option<QueryReport>],
    seconds: f64,
    min_rounds: usize,
    rep: &mut Report,
) -> CellLayers {
    let mut out = CellLayers { passes: Vec::new(), cells: Vec::new(), walls: Walls::default() };
    let start = Instant::now();
    while out.walls.traced_ms.len() < min_rounds
        || start.elapsed() < Duration::from_secs_f64(seconds)
    {
        for variant in 0..3 {
            let mut pass = Sample::new();
            let mut per_cell = Sample::new();
            let mut wall_ms = 0.0;
            for (i, cell) in cells.iter().enumerate() {
                let mut cfg = cell.config();
                match variant {
                    1 => cfg = cfg.with_trace(TraceRecorder::new()),
                    2 => cfg = cfg.with_threads(1),
                    _ => {}
                }
                let got = layers::run(session, cell, &cfg);
                check(rep, oracle, cell, got.as_ref().map(|l| &l.report), refs[i].as_ref());
                let Ok(l) = got else { continue };
                wall_ms += l.wall_ms;
                if variant != 1 {
                    continue;
                }
                let s = &l.sample;
                for (suffix, keys) in CELL_METRICS {
                    let v = keys.iter().map(|k| s.get(*k).copied().unwrap_or(0.0)).sum();
                    bump(&mut per_cell, &format!("{}.{suffix}", cell.label), v);
                }
                for (k, v) in s {
                    bump(&mut pass, k, *v);
                }
            }
            match variant {
                0 => out.walls.untraced_ms.push(wall_ms),
                1 => {
                    out.walls.traced_ms.push(wall_ms);
                    out.passes.push(pass);
                    out.cells.push(per_cell);
                }
                _ => out.walls.one_thread_ms.push(wall_ms),
            }
        }
    }
    out
}

/// The optimizer's accuracy on the `auto` jobs: per-stage estimate
/// errors, and per job its makespan over the best manual placement's
/// (manual placements that refuse, like Q9* on GPUs, are skipped).
pub struct Accuracy {
    /// `max(est/actual, actual/est)` of every stage of every auto job.
    pub est_err: Vec<f64>,
    /// `(label, auto makespan / best manual makespan)` per auto job.
    pub regret: Vec<(String, f64)>,
    /// `(label, geometric-mean estimate error)` per auto job.
    pub job_err: Vec<(String, f64)>,
}

/// Measure [`Accuracy`] over the `auto` jobs among `jobs`.
pub fn accuracy(session: &Session, jobs: &[Job]) -> Result<Accuracy, HapeError> {
    let mut acc = Accuracy { est_err: Vec::new(), regret: Vec::new(), job_err: Vec::new() };
    for job in jobs.iter().filter(|j| j.placement == Placement::Auto) {
        let auto = layers::run(session, job, &job.config())?;
        let best = [Placement::CpuOnly, Placement::GpuOnly, Placement::Hybrid]
            .into_iter()
            .filter_map(|p| session.execute_with(&job.query, &ExecConfig::new(p)).ok())
            .map(|r| r.time.as_secs())
            .fold(f64::INFINITY, f64::min);
        acc.regret.push((job.label.clone(), auto.report.time.as_secs() / best));
        acc.job_err.push((job.label.clone(), geomean(&auto.est_err)));
        acc.est_err.extend(auto.est_err);
    }
    Ok(acc)
}

/// Geometric mean (1 for an empty slice, the neutral error).
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 1.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}
