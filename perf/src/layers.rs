//! The per-layer view: one query driven through the engine's public
//! layer functions with each call timed from here, and the self times
//! read back from the engine's existing trace spans.

use std::time::Instant;

use hape_core::trace::{Span, SpanKind, Trace};
use hape_core::{
    optimize, place, ExecConfig, HapeError, LoweredQuery, PlacedPlan, PlacedStage, Placement,
    QueryReport, Session,
};

use crate::data::Job;
use crate::report::{bump, ms, us, Sample};

/// One query executed layer by layer.
pub struct Layered {
    /// Per-layer times and counts under their metric names.
    pub sample: Sample,
    /// The execution's report (rows and simulated makespan).
    pub report: QueryReport,
    /// Wall milliseconds of lower + optimize/place + begin..finish — what
    /// `Session::execute_with` does; the extra verify call is excluded.
    pub wall_ms: f64,
    /// Per-stage `max(est/actual, actual/est)` of the optimizer's
    /// simulated-time estimate (auto placements only).
    pub est_err: Vec<f64>,
}

/// Lower and place `job` the way `Session::execute_with` does, timing
/// `Session::lower`, `optimize` (auto) or `place` (manual) and the extra
/// `Session::verify_placed` call into `sample`. Returns the plan and the
/// wall milliseconds of lowering plus placement.
pub fn plan(
    session: &Session,
    job: &Job,
    cfg: &ExecConfig,
    sample: &mut Sample,
) -> Result<(LoweredQuery, PlacedPlan, f64), HapeError> {
    let server = &session.engine().server;
    let t = Instant::now();
    let lowered = session.lower(&job.query)?;
    let lower_us = us(t);
    bump(sample, "query.lower_us", lower_us);

    let t = Instant::now();
    let placed = if cfg.placement == Placement::Auto {
        optimize(&lowered.plan, &lowered.catalog, cfg, server)?
    } else {
        place(&lowered.plan, cfg, server)?
    };
    let plan_us = us(t);
    let plan_key = if cfg.placement == Placement::Auto { "optimize.us" } else { "place.us" };
    bump(sample, plan_key, plan_us);

    let t = Instant::now();
    let verified = session.verify_placed(&lowered.catalog, &placed);
    bump(sample, "verify.us", us(t));
    verified?;
    Ok((lowered, placed, (lower_us + plan_us) / 1e3))
}

/// Run `job` with every layer call timed: [`plan`], then `Engine::begin`,
/// `QueryExec::step` by stage kind and `QueryExec::finish`. `cfg.trace`,
/// when enabled, records the engine's own spans and counters, which are
/// folded in.
pub fn run(session: &Session, job: &Job, cfg: &ExecConfig) -> Result<Layered, HapeError> {
    let mut sample = Sample::new();
    let (lowered, placed, plan_ms) = plan(session, job, cfg, &mut sample)?;

    let exec_start = Instant::now();
    let t = Instant::now();
    let mut exec = session.engine().begin(&lowered.catalog, &placed)?.with_trace(&cfg.trace);
    bump(&mut sample, "engine.begin_us", us(t));
    let mut est_err = Vec::new();
    while !exec.is_done() {
        let idx = exec.stage_index();
        let sim_before = exec.sim_time();
        let t = Instant::now();
        exec.step()?;
        let step_ms = ms(t);
        let key = match &placed.stages[idx] {
            PlacedStage::Build { .. } => "engine.build_ms",
            PlacedStage::Stream { .. } => "engine.stream_ms",
            PlacedStage::CoProcess { .. } => "engine.coprocess_ms",
        };
        bump(&mut sample, key, step_ms);
        if let Some(est) = placed.costs.as_ref().and_then(|c| c.stages.get(idx)) {
            let actual = (exec.sim_time() - sim_before).as_secs();
            if actual > 0.0 {
                let ratio = est.total_seconds() / actual;
                est_err.push(ratio.max(1.0 / ratio));
            }
        }
    }
    let t = Instant::now();
    let report = exec.finish();
    bump(&mut sample, "engine.finish_us", us(t));
    let wall_ms = plan_ms + ms(exec_start);

    if cfg.trace.is_enabled() {
        fold_trace(&mut sample, &cfg.trace.snapshot(), false);
    }
    bump(&mut sample, "sim.h2d_mb", report.h2d_bytes as f64 / 1e6);
    Ok(Layered { sample, report, wall_ms, est_err })
}

/// Total length of the union of `[start, end)` intervals, each clipped to
/// `window`.
fn covered_ns(intervals: &[(u64, u64)], window: (u64, u64)) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(window.0), e.min(window.1)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

fn wall(span: &Span) -> (u64, u64) {
    (span.wall_start_ns, span.wall_end_ns)
}

/// Fold a trace into `sample`: packet self time, the stream-step residual
/// not covered by packet spans, the co-processing phase self times and
/// the packet counters. With `stage_walls`, the build/stream/co-process
/// stage times also come from the trace's stage spans (for batches, whose
/// steps run inside `SessionServer::run_all`).
///
/// Spans are walked in record order: a stage's packet and phase spans are
/// recorded before its stage span, and the serving layer runs one stage
/// at a time, so each stage span closes the group of spans before it.
pub fn fold_trace(sample: &mut Sample, trace: &Trace, stage_walls: bool) {
    let mut packets: Vec<(u64, u64)> = Vec::new();
    let mut phases: Vec<&Span> = Vec::new();
    for span in &trace.spans {
        match span.kind {
            SpanKind::Packet => packets.push(wall(span)),
            SpanKind::Phase => phases.push(span),
            SpanKind::Stage => {
                let stage_ms = span.wall_elapsed_ns() as f64 / 1e6;
                let packet_ms: u64 = packets.iter().map(|(s, e)| e.saturating_sub(*s)).sum();
                bump(sample, "provider.packet_ms", packet_ms as f64 / 1e6);
                let kind = span.name.split(' ').next().unwrap_or("");
                if kind == "stream" {
                    let covered = covered_ns(&packets, wall(span)) as f64 / 1e6;
                    bump(sample, "engine.stream_residual_ms", (stage_ms - covered).max(0.0));
                }
                for phase in &phases {
                    let key = match phase.name.split(' ').nth(1) {
                        Some("prefix") => "join.prefix_ms",
                        Some("lanes") => "join.lanes_ms",
                        _ => "join.fold_ms",
                    };
                    let own = phase.wall_elapsed_ns() - covered_ns(&packets, wall(phase));
                    bump(sample, key, own as f64 / 1e6);
                }
                if stage_walls {
                    let key = match kind {
                        "build" => "engine.build_ms",
                        "stream" => "engine.stream_ms",
                        _ => "engine.coprocess_ms",
                    };
                    bump(sample, key, stage_ms);
                }
                packets.clear();
                phases.clear();
            }
            _ => {}
        }
    }
    for class in ["cpu", "gpu"] {
        let n = trace.counters.get(&format!("packets.class.{class}")).copied().unwrap_or(0);
        bump(sample, &format!("provider.packets_{class}"), n as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_merges_overlaps_and_clips() {
        let iv = [(0, 10), (5, 15), (20, 30), (40, 50)];
        assert_eq!(covered_ns(&iv, (0, 100)), 15 + 10 + 10);
        assert_eq!(covered_ns(&iv, (8, 25)), 7 + 5);
        assert_eq!(covered_ns(&[], (0, 10)), 0);
    }
}
